"""Gentle presentations: recognition, critical cycles, Gorenstein projectives.

For a gentle presentation the relation pairs define a partial successor map
on arrows (each arrow has at most one relation successor and at most one
relation predecessor), so the arrows whose products are all zero around a
loop form disjoint cycles.  These critical cycles govern the singularity
invariants computed here: each cycle contributes one factor, recorded by its
length, and each cycle arrow carries a string module obtained by walking the
unique relation-free continuation as far as it goes.
"""

from __future__ import annotations

from collections import Counter

from .quiver import Presentation, QuiverError, _MALFORMED, _expect, _field_error, _record


@_record(QuiverError)
class GentleViolation:
    condition: str
    location: str
    detail: str


@_record(QuiverError)
class GentleReport:
    is_gentle: bool
    violations: tuple[GentleViolation, ...]


def _multiple(condition: str, label: str, kind: str, labels: list[str]) -> GentleViolation:
    return GentleViolation(condition, label, f"multiple {kind} of {label}: {labels}")


def check_gentle(pres: Presentation) -> GentleReport:
    """Check the gentle conditions and report every violation found.

    (G1) each vertex has at most two incoming and two outgoing arrows;
    (G3) each arrow has at most one relation successor and at most one
         relation predecessor;
    (G4) each arrow has at most one relation-free composable successor and
         at most one relation-free composable predecessor.

    The condition that relations are pairs of arrows is built into the
    presentation type, so it can never be violated here.
    """
    _expect(pres, Presentation, "presentation")
    outgoing, incoming = pres.outgoing, pres.incoming
    successors, predecessors = pres.successors, pres.predecessors
    violations: list[GentleViolation] = []
    for v in pres.vertices:
        for arrows, verb in ((outgoing[v], "leave"), (incoming[v], "enter")):
            if len(arrows) > 2:
                labels = [a.label for a in arrows]
                violations.append(
                    GentleViolation("G1", v, f"{len(arrows)} arrows {verb} {v}: {labels}")
                )
    for a in pres.arrows:
        lab = a.label
        succ = successors.get(lab, ())
        pred = predecessors.get(lab, ())
        after = outgoing[a.target]
        before = incoming[a.source]
        # Relation partners of an arrow are composable with it, so each list
        # below filters the neighbouring arrows, keeping declaration order.
        if len(succ) > 1:
            labels = [b.label for b in after if b.label in succ]
            violations.append(_multiple("G3", lab, "relation successors", labels))
        if len(pred) > 1:
            labels = [b.label for b in before if b.label in pred]
            violations.append(_multiple("G3", lab, "relation predecessors", labels))
        if len(after) - len(succ) > 1:
            labels = [b.label for b in after if b.label not in succ]
            violations.append(_multiple("G4", lab, "relation-free successors", labels))
        if len(before) - len(pred) > 1:
            labels = [b.label for b in before if b.label not in pred]
            violations.append(_multiple("G4", lab, "relation-free predecessors", labels))
    return GentleReport(not violations, violations)


def _is_gentle(pres: Presentation) -> bool:
    """Whether ``check_gentle`` would find no violation, read from the index.

    Once G1 and G3 hold, an arrow into v has at most two arrows after it and
    at most one relation successor among them, so G4 fails after it exactly
    when v has two outgoing arrows and the arrow has no relation successor;
    dually before an arrow out of a vertex with two incoming arrows.
    """
    outgoing, incoming = pres.outgoing, pres.incoming
    successors, predecessors = pres.successors, pres.predecessors
    out_degree = max(map(len, outgoing.values()), default=0)
    in_degree = max(map(len, incoming.values()), default=0)
    if (
        out_degree > 2 or in_degree > 2
        or max(map(len, successors.values()), default=0) > 1
        or max(map(len, predecessors.values()), default=0) > 1
    ):
        return False
    if out_degree == 2:
        for v, after in outgoing.items():
            if len(after) == 2:
                for a in incoming[v]:
                    if a.label not in successors:
                        return False
    if in_degree == 2:
        for v, before in incoming.items():
            if len(before) == 2:
                for a in outgoing[v]:
                    if a.label not in predecessors:
                        return False
    return True


def _require_gentle(pres: Presentation) -> None:
    """Refuse ``pres`` unless it is gentle; the refusal's witness lists the
    whole report, which is built only then."""
    _expect(pres, Presentation, "presentation")
    if _is_gentle(pres):
        return
    report = check_gentle(pres)
    first = report.violations[0]
    raise QuiverError(
        f"presentation is not gentle: {first.condition} fails at "
        f"{first.location} ({first.detail})",
        precondition="gentle presentation",
        witness=[
            {"condition": w.condition, "location": w.location, "detail": w.detail}
            for w in report.violations
        ],
    )


@_record(QuiverError)
class CriticalCycle:
    """A cycle of arrows whose consecutive products all lie in the ideal.

    ``arrows`` is the canonical rotation in traversal order; the canonical
    rotation is the one whose display tuple (labels reversed, the printed
    right-to-left order) is lexicographically greatest.  ``display`` and
    ``name`` (the display labels joined, by spaces unless all are single
    characters) are built once, at construction.
    """

    arrows: tuple[str, ...]

    def __post_init__(self):
        try:
            display = self.arrows[::-1]
            joined = "".join(display)
        except _MALFORMED:
            raise _field_error("arrows", "a sequence of str") from None
        # every label is one character exactly when none is empty and the
        # joined labels are as many characters as there are labels
        short = len(joined) == len(display) and "" not in display
        object.__setattr__(self, "display", display)
        object.__setattr__(self, "name", joined if short else " ".join(display))

    @property
    def length(self) -> int:
        return len(self.arrows)


def _canonical_rotation(chain: list[str]) -> tuple[str, ...]:
    """The rotation of a cycle (traversal order) with the greatest display.

    The labels of a cycle are distinct, so the greatest display starts with
    the greatest label, which traversal order puts last.
    """
    cut = chain.index(max(chain)) + 1
    return tuple(chain[cut:] + chain[:cut])


def critical_cycles(pres: Presentation) -> list[CriticalCycle]:
    """All critical cycles, sorted by (length, display tuple)."""
    _require_gentle(pres)
    # G3 makes the relation successor map a partial bijection, so its orbits
    # are disjoint chains and cycles: one walk per unvisited arrow finds all.
    successors = pres.successors
    visited: set[str] = set()
    cycles: list[CriticalCycle] = []
    for a in pres.arrows:
        start = a.label
        if start in visited:
            continue
        chain = []
        cur = start
        while cur is not None and cur not in visited:
            visited.add(cur)
            chain.append(cur)
            after = successors.get(cur)
            cur = after[0] if after else None
        if cur == start:
            cycles.append(CriticalCycle(_canonical_rotation(chain)))
    cycles.sort(key=lambda c: (len(c.arrows), c.display))
    return cycles


@_record(QuiverError)
class StringModule:
    """A string module given by a directed walk starting at its top vertex."""

    top: str
    arrows: tuple[str, ...]

    @property
    def is_simple(self) -> bool:
        return not self.arrows


def _radical_walk(pres: Presentation, cycle: CriticalCycle, first: str) -> StringModule:
    """Walk the unique relation-free continuation of the cycle arrow ``first``."""
    rel, outgoing = pres.relation_set, pres.outgoing
    top = pres._by_label[first].target
    prev, at = first, top
    walk: list[str] = []
    used: set[str] = set()
    while True:
        for arrow in outgoing[at]:
            if (prev, arrow.label) not in rel:
                break
        else:
            break
        step = arrow.label
        if step in used:
            raise QuiverError(
                "the algebra is infinite dimensional: the relation-free walk "
                f"after {first!r} repeats the arrow {step!r}",
                precondition="finite-dimensional gentle algebra",
                witness={"cycle": cycle.name, "repeated_arrow": step},
            )
        used.add(step)
        walk.append(step)
        prev, at = step, arrow.target
    return StringModule(top, walk)


def radical_embeddings(
    pres: Presentation,
) -> dict[tuple[CriticalCycle, str], StringModule]:
    """String modules attached to cycle arrows, keyed by (cycle, source vertex)."""
    _expect(pres, Presentation, "presentation")
    by_label = pres._by_label
    out: dict[tuple[CriticalCycle, str], StringModule] = {}
    for cycle in critical_cycles(pres):
        sources: set[str] = set()
        for label in cycle.arrows:
            source = by_label[label].source
            if source in sources:
                raise QuiverError(
                    f"cycle {cycle.name} passes through vertex "
                    f"{source!r} twice; its radical strings are "
                    "not indexed by vertices",
                    precondition="critical cycle visits each vertex once",
                    witness={"cycle": cycle.name, "vertex": source},
                )
            sources.add(source)
            out[cycle, source] = _radical_walk(pres, cycle, label)
    return out


@_record(QuiverError)
class GPClassification:
    """Indecomposable Gorenstein projectives: all vertex projectives plus
    the radical strings of the critical cycles."""

    projectives: tuple[str, ...]
    radicals: dict[tuple[CriticalCycle, str], StringModule]


def gorenstein_projectives(pres: Presentation) -> GPClassification:
    radicals = radical_embeddings(pres)  # checks ``pres`` first
    return GPClassification(sorted(pres.vertices), radicals)


@_record(QuiverError)
class SingularityDecomposition:
    """One block per critical cycle, recorded by the cycle's length."""

    factors: tuple[int, ...]
    cycle_of_factor: tuple[CriticalCycle, ...]


def singularity_category(pres: Presentation) -> SingularityDecomposition:
    cycles = critical_cycles(pres)
    return SingularityDecomposition([c.length for c in cycles], cycles)


@_record(QuiverError)
class InvariantComparison:
    compatible: bool
    only_first: tuple[int, ...]
    only_second: tuple[int, ...]


def compare_invariant(
    first: Presentation, second: Presentation
) -> InvariantComparison:
    """Compare the block-length multisets of two presentations.

    Equality of the multisets is necessary for the singularity categories to
    be equivalent; it does not certify an equivalence on its own.
    """
    f1 = Counter(singularity_category(first).factors)
    f2 = Counter(singularity_category(second).factors)
    only_first = sorted((f1 - f2).elements())
    only_second = sorted((f2 - f1).elements())
    return InvariantComparison(not only_first and not only_second, only_first, only_second)
