"""Quivers presented by arrows and length-two zero relations.

A presentation is a finite quiver together with a set of relations, each
relation being a composable pair of arrows whose product is declared zero.
Paths are stored in traversal order (first arrow applied comes first); the
textual display convention is the opposite, a path is printed right to left
so that "ba" means "apply a, then b".  Relation pairs are stored in
application order, so the printed relation "ba" is the stored pair (a, b).

Text format, one statement per ';' (newlines are not significant, '#' starts
a comment running to the end of the line)::

    vertices 1 2 3;
    arrow a: 1 -> 2;
    arrow b: 2 -> 3;
    relation ba;

A juxtaposed relation token such as "ba" is split over the declared arrow
labels and must split uniquely; the spaced form "relation b a;" (same display
order) is always accepted and is emitted by the serializer whenever the
juxtaposed form would not round-trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Container, Iterable, Sequence

_NAME_RE = re.compile(r"^[^\s;:#]+$")


class SingcatError(Exception):
    """Domain error with a structured diagnostic.

    ``precondition`` names the violated requirement and ``witness`` carries
    the offending data in JSON-serializable form, so command line consumers
    can report exactly what went wrong.
    """

    def __init__(self, message: str, precondition: str | None = None, witness=None):
        super().__init__(message)
        self.message = message
        self.precondition = precondition
        self.witness = witness

    def diagnostic(self) -> dict:
        return {
            "message": self.message,
            "precondition": self.precondition,
            "witness": self.witness,
        }


class QuiverError(SingcatError):
    pass


# Precondition of every integer read from text: ``int()`` refuses decimal
# strings longer than Python's conversion limit (4,300 digits by default).
INT_DIGITS = "integer fits Python's string conversion limit"


class ParseError(QuiverError):
    def __init__(
        self,
        message: str,
        line: int,
        column: int,
        precondition: str = "well-formed presentation text",
    ):
        super().__init__(
            f"{message} (line {line}, column {column})",
            precondition=precondition,
            witness={"line": line, "column": column},
        )
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Arrow:
    label: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A path in a quiver, possibly lazy (length zero at a vertex).

    ``arrows`` holds labels in traversal order.  The printed form reverses
    them, matching the right-to-left composition convention.
    """

    arrows: tuple[str, ...]
    source: str
    target: str

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def is_lazy(self) -> bool:
        return not self.arrows

    def display(self) -> str:
        if not self.arrows:
            return f"e_{self.source}"
        return "".join(reversed(self.arrows))


def _check_name(name: str, kind: str):
    if isinstance(name, str) and _NAME_RE.match(name) and name != "->":
        return
    is_str = isinstance(name, str)
    raise QuiverError(
        f"invalid {kind} name {name!r}",
        precondition="names contain no whitespace, ';', ':' or '#' and are not '->'"
        if is_str else f"{kind} names are strings",
        witness={kind: name if is_str else repr(name)},
    )


def _field(build, field: str, shape: str) -> tuple:
    """Run ``build`` and report a malformed constructor argument by name."""
    try:
        return build()
    except (TypeError, ValueError):
        raise QuiverError(
            f"{field} is not a sequence of {shape}",
            precondition=f"{field} is a sequence of {shape}",
            witness={"field": field},
        ) from None


class Presentation:
    """Immutable quiver presentation with length-two relations.

    Construction indexes it once: ``outgoing``/``incoming`` hold each vertex's
    arrows in declaration order, ``successors``/``predecessors`` each arrow's
    relation partners (labels in relation order; absent when there are none).
    """

    def __init__(
        self,
        vertices: Sequence[str],
        arrows: Iterable[Arrow | tuple[str, str, str]],
        relations: Iterable[tuple[str, str]] = (),
    ):
        self.vertices: tuple[str, ...] = _field(
            lambda: tuple(vertices), "vertices", "vertex names"
        )
        self.arrows: tuple[Arrow, ...] = _field(
            lambda: tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows),
            "arrows", "(label, source, target) triples",
        )
        self.relations: tuple[tuple[str, str], ...] = _field(
            lambda: tuple((str(a), str(b)) for a, b in relations),
            "relations", "arrow label pairs",
        )
        self._validate()

    def _validate(self):
        """Check every precondition and build the indices in the same pass."""
        outgoing: dict[str, list[Arrow]] = {}
        incoming: dict[str, list[Arrow]] = {}
        for v in self.vertices:
            _check_name(v, "vertex")
            if v in outgoing:
                raise QuiverError(
                    f"duplicate vertex {v!r}",
                    precondition="vertex names are distinct",
                    witness={"vertex": v},
                )
            outgoing[v] = []
            incoming[v] = []
        by_label: dict[str, Arrow] = {}
        for a in self.arrows:
            _check_name(a.label, "arrow")
            if a.label in by_label:
                raise QuiverError(
                    f"duplicate arrow label {a.label!r}",
                    precondition="arrow labels are distinct",
                    witness={"arrow": a.label},
                )
            by_label[a.label] = a
            for v in (a.source, a.target):
                if not isinstance(v, str) or v not in outgoing:
                    raise QuiverError(
                        f"arrow {a.label!r} uses undeclared vertex {v!r}",
                        precondition="arrow endpoints are declared vertices",
                        witness={"arrow": a.label, "vertex": v},
                    )
            outgoing[a.source].append(a)
            incoming[a.target].append(a)
        relation_set: set[tuple[str, str]] = set()
        successors: dict[str, tuple[str, ...]] = {}
        predecessors: dict[str, tuple[str, ...]] = {}
        for first, second in self.relations:
            for lab in (first, second):
                if lab not in by_label:
                    raise QuiverError(
                        f"relation uses undeclared arrow {lab!r}",
                        precondition="relations reference declared arrows",
                        witness={"arrow": lab},
                    )
            if by_label[first].target != by_label[second].source:
                raise QuiverError(
                    f"relation pair ({first!r}, {second!r}) is not composable",
                    precondition="relation arrows compose head to tail",
                    witness={"first": first, "second": second},
                )
            if (first, second) in relation_set:
                raise QuiverError(
                    f"duplicate relation ({first!r}, {second!r})",
                    precondition="relations are distinct",
                    witness={"first": first, "second": second},
                )
            relation_set.add((first, second))
            successors[first] = successors.get(first, ()) + (second,)
            predecessors[second] = predecessors.get(second, ()) + (first,)
        self._by_label = by_label
        self.outgoing = {v: tuple(arrs) for v, arrs in outgoing.items()}
        self.incoming = {v: tuple(arrs) for v, arrs in incoming.items()}
        self.successors = successors
        self.predecessors = predecessors
        self.relation_set = frozenset(relation_set)

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows, self.relations))

    def __repr__(self):
        return (
            f"Presentation({len(self.vertices)} vertices, "
            f"{len(self.arrows)} arrows, {len(self.relations)} relations)"
        )

    def arrow(self, label: str) -> Arrow:
        try:
            return self._by_label[label]
        except KeyError:
            raise QuiverError(
                f"no arrow labelled {label!r}",
                precondition="label names a declared arrow",
                witness={"arrow": label},
            ) from None

    def source(self, label: str) -> str:
        return self.arrow(label).source

    def target(self, label: str) -> str:
        return self.arrow(label).target

    def arrows_from(self, vertex: str) -> list[Arrow]:
        return list(self.outgoing.get(vertex, ()))

    def arrows_into(self, vertex: str) -> list[Arrow]:
        return list(self.incoming.get(vertex, ()))

    def lazy_path(self, vertex: str) -> Path:
        if vertex not in self.vertices:
            raise QuiverError(
                f"undeclared vertex {vertex!r}",
                precondition="paths start at declared vertices",
                witness={"vertex": vertex},
            )
        return Path((), vertex, vertex)

    def path(self, labels: Sequence[str]) -> Path:
        """Build a path from labels in traversal order (first applied first)."""
        labels = tuple(labels)
        if not labels:
            raise QuiverError(
                "empty label list; use lazy_path for length-zero paths",
                precondition="path has at least one arrow",
            )
        arrows = [self.arrow(lab) for lab in labels]
        for prev, nxt in zip(arrows, arrows[1:]):
            if prev.target != nxt.source:
                raise QuiverError(
                    f"arrows {prev.label!r} and {nxt.label!r} do not compose",
                    precondition="consecutive arrows compose head to tail",
                    witness={"first": prev.label, "second": nxt.label},
                )
        return Path(labels, arrows[0].source, arrows[-1].target)


def compose(p: Path, q: Path) -> Path:
    """Concatenation in traversal order: apply p first, then q.

    Requires target(p) = source(q).  Lazy paths are two-sided identities.
    In the right-to-left display convention the result prints as the
    product "qp".
    """
    if p.target != q.source:
        raise QuiverError(
            "paths do not compose: target of the first factor "
            f"({p.target!r}) differs from source of the second ({q.source!r})",
            precondition="target of first factor equals source of second factor",
            witness={"first_target": p.target, "second_source": q.source},
        )
    return Path(p.arrows + q.arrows, p.source, q.target)


def path_in_ideal(path: Path, pres: Presentation) -> bool:
    """True when the path lies in the two-sided ideal of the presentation.

    The ideal is generated by the relation pairs, so a path is in it exactly
    when some pair of consecutive arrows (in application order) is a relation.
    """
    return any(
        (a, b) in pres.relation_set for a, b in zip(path.arrows, path.arrows[1:])
    )


# ---------------------------------------------------------------------------
# text format


_TOKEN_RE = re.compile(r"#[^\n]*|;|[^ \t\r\n;#]+")


def _statements(text: str) -> list[list[tuple[str, int, int]]]:
    """Split text into ';'-terminated statements of (token, line, column)."""
    statements, current = [], []
    line, line_start, last = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        pos = m.start()
        newlines = text.count("\n", last, pos)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, pos) + 1
        last = pos
        token = m.group()
        if token == ";":
            if current:
                statements.append(current)
                current = []
        elif token[0] != "#":
            current.append((token, line, pos - line_start + 1))
    if current:
        raise ParseError("statement is not terminated by ';'", *current[0][1:])
    return statements


def _split_relation_token(token: str, labels: Container[str]):
    """All ways to split a juxtaposed display token into two declared labels."""
    out = []
    for cut in range(1, len(token)):
        first, second = token[:cut], token[cut:]
        if first in labels and second in labels:
            out.append((first, second))
    return out


def parse_presentation(text: str) -> Presentation:
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations: list[tuple[str, str]] = []
    relation_set: set[tuple[str, str]] = set()
    vset: set[str] = set()
    labels: dict[str, Arrow] = {}

    def err(msg, at):
        raise ParseError(msg, at[1], at[2])

    for stmt in _statements(text):
        head = stmt[0]
        if head[0] in ("arrows", "relations") and len(stmt) == 1:
            continue  # bare section headers declare nothing
        if head[0] == "vertices":
            if len(stmt) < 2:
                err("'vertices' expects at least one name", head)
            for tok in stmt[1:]:
                if tok[0] in vset:
                    err(f"duplicate vertex {tok[0]!r}", tok)
                if tok[0] == "->":
                    err("'->' is not a valid vertex name", tok)
                vset.add(tok[0])
                vertices.append(tok[0])
        elif head[0] == "arrow":
            rest = list(stmt[1:])
            # accept both "a:" and "a :"
            if rest and rest[0][0].endswith(":") and rest[0][0] != ":":
                lab = rest[0]
                rest[0] = (lab[0][:-1], lab[1], lab[2])
            elif len(rest) >= 2 and rest[1][0] == ":":
                del rest[1]
            else:
                err("expected 'arrow <label>: <src> -> <tgt>'", head)
            if len(rest) != 4 or rest[2][0] != "->":
                err("expected 'arrow <label>: <src> -> <tgt>'", head)
            (lab, src, _, tgt) = rest
            if not lab[0]:
                err("empty arrow label", lab)
            if lab[0] in labels:
                err(f"duplicate arrow label {lab[0]!r}", lab)
            for tok in (src, tgt):
                if tok[0] not in vset:
                    err(f"undeclared vertex {tok[0]!r}", tok)
            arrows.append(Arrow(lab[0], src[0], tgt[0]))
            labels[lab[0]] = arrows[-1]
        elif head[0] == "relation":
            rest = stmt[1:]
            if len(rest) == 1:
                tok = rest[0]
                splits = _split_relation_token(tok[0], labels)
                if not splits:
                    err(
                        f"relation token {tok[0]!r} does not split into two "
                        "declared arrow labels",
                        tok,
                    )
                if len(splits) > 1:
                    err(
                        f"relation token {tok[0]!r} splits ambiguously; "
                        "write the two labels separated by a space",
                        tok,
                    )
                disp_first, disp_second = splits[0]
            elif len(rest) == 2:
                disp_first, disp_second = rest[0][0], rest[1][0]
                for tok in rest:
                    if tok[0] not in labels:
                        err(f"undeclared arrow {tok[0]!r} in relation", tok)
            else:
                err("'relation' expects one juxtaposed token or two labels", head)
            # display order is right to left: the first displayed label is
            # applied second.
            first_applied, second_applied = disp_second, disp_first
            a1 = labels[first_applied]
            a2 = labels[second_applied]
            if a1.target != a2.source:
                err(
                    f"relation {disp_first}{disp_second} is not composable: "
                    f"{first_applied!r} ends at {a1.target!r} but "
                    f"{second_applied!r} starts at {a2.source!r}",
                    rest[0],
                )
            if (first_applied, second_applied) in relation_set:
                err(f"duplicate relation {disp_first} {disp_second}", rest[0])
            relation_set.add((first_applied, second_applied))
            relations.append((first_applied, second_applied))
        else:
            err(f"unknown statement {head[0]!r}", head)

    return Presentation(vertices, arrows, relations)


def serialize_presentation(pres: Presentation) -> str:
    lines = []
    lines.append("vertices " + " ".join(pres.vertices) + ";")
    for a in pres.arrows:
        lines.append(f"arrow {a.label}: {a.source} -> {a.target};")
    for first, second in pres.relations:
        joined = second + first
        if _split_relation_token(joined, pres._by_label) == [(second, first)]:
            lines.append(f"relation {joined};")
        else:
            lines.append(f"relation {second} {first};")
    return "\n".join(lines) + "\n"


def presentation_to_json(pres: Presentation) -> dict:
    return {
        "vertices": list(pres.vertices),
        "arrows": [
            {"label": a.label, "source": a.source, "target": a.target}
            for a in pres.arrows
        ],
        "relations": [[a, b] for a, b in pres.relations],
    }


def presentation_from_json(data: dict) -> Presentation:
    try:
        vertices, relations = data["vertices"], data["relations"]
        arrows = [Arrow(d["label"], d["source"], d["target"]) for d in data["arrows"]]
    except (KeyError, TypeError) as exc:
        raise QuiverError(
            f"malformed presentation JSON: {exc}",
            precondition="JSON has vertices, arrows and relations fields",
        ) from None
    return Presentation(vertices, arrows, relations)
