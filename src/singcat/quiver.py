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


_COMMENT_RE = re.compile(r"#[^\n]*")
_WORD_RE = re.compile(r"[^ \t\r\n]+")
_ARROW_SHAPE = "expected 'arrow <label>: <src> -> <tgt>'"


def _blank(comment: re.Match) -> str:
    return " " * len(comment.group())


def _parse_error(message: str, text: str, pos: int) -> ParseError:
    """ParseError at offset ``pos``; lines end at '\n', columns count from 1."""
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, text.count("\n", 0, line_start) + 1, pos - line_start + 1)


def _split_relation_token(token: str, labels: Container[str]):
    """All ways to split a juxtaposed display token into two declared labels."""
    out = []
    for cut in range(1, len(token)):
        first, second = token[:cut], token[cut:]
        if first in labels and second in labels:
            out.append((first, second))
    return out


def parse_presentation(text: str) -> Presentation:
    """Read the text format statement by statement.

    Comments are blanked in place, so every offset into the cleaned text is
    an offset into ``text``; positions are worked out only for an error.
    """
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations: list[tuple[str, str]] = []
    relation_set: set[tuple[str, str]] = set()
    vset: set[str] = set()
    labels: dict[str, Arrow] = {}

    clean = _COMMENT_RE.sub(_blank, text)
    *bodies, tail = clean.split(";")
    # an unterminated final statement is reported before anything else
    word = _WORD_RE.search(tail)
    if word:
        raise _parse_error(
            "statement is not terminated by ';'", text, len(clean) - len(tail) + word.start()
        )

    def err(msg, index):
        # reads the loop's current statement: the index-th word of bodies[number]
        start = sum(len(body) + 1 for body in bodies[:number])
        match = list(_WORD_RE.finditer(bodies[number]))[index]
        raise _parse_error(msg, text, start + match.start())

    for number, body in enumerate(bodies):
        words = _WORD_RE.findall(body)
        if not words:
            continue
        head = words[0]
        if head in ("arrows", "relations") and len(words) == 1:
            continue  # bare section headers declare nothing
        if head == "vertices":
            if len(words) < 2:
                err("'vertices' expects at least one name", 0)
            for i, name in enumerate(words[1:], 1):
                if name in vset:
                    err(f"duplicate vertex {name!r}", i)
                if name == "->":
                    err("'->' is not a valid vertex name", i)
                vset.add(name)
                vertices.append(name)
        elif head == "arrow":
            # accept both "a:" and "a :"; i indexes the source vertex
            if len(words) > 1 and words[1].endswith(":") and words[1] != ":":
                label, i = words[1][:-1], 2
            elif len(words) > 2 and words[2] == ":":
                label, i = words[1], 3
            else:
                err(_ARROW_SHAPE, 0)
            if len(words) != i + 3 or words[i + 1] != "->":
                err(_ARROW_SHAPE, 0)
            if label in labels:
                err(f"duplicate arrow label {label!r}", 1)
            for j in (i, i + 2):
                if words[j] not in vset:
                    err(f"undeclared vertex {words[j]!r}", j)
            arrows.append(Arrow(label, words[i], words[i + 2]))
            labels[label] = arrows[-1]
        elif head == "relation":
            if len(words) == 2:
                splits = _split_relation_token(words[1], labels)
                if not splits:
                    err(
                        f"relation token {words[1]!r} does not split into two "
                        "declared arrow labels",
                        1,
                    )
                if len(splits) > 1:
                    err(
                        f"relation token {words[1]!r} splits ambiguously; "
                        "write the two labels separated by a space",
                        1,
                    )
                disp_first, disp_second = splits[0]
            elif len(words) == 3:
                disp_first, disp_second = words[1], words[2]
                for i in (1, 2):
                    if words[i] not in labels:
                        err(f"undeclared arrow {words[i]!r} in relation", i)
            else:
                err("'relation' expects one juxtaposed token or two labels", 0)
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
                    1,
                )
            if (first_applied, second_applied) in relation_set:
                err(f"duplicate relation {disp_first} {disp_second}", 1)
            relation_set.add((first_applied, second_applied))
            relations.append((first_applied, second_applied))
        else:
            err(f"unknown statement {head!r}", 0)

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
