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
from typing import Container, Iterable, Sequence

_NAME_RE = re.compile(r"[^\s;:#]+")  # used with fullmatch


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


class FrozenRecordError(AttributeError):
    """Assigning or deleting an attribute of a ``_record`` instance."""


def _no_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _no_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _record(cls):
    """Class decorator: a frozen value class over the annotated fields.

    As for a frozen dataclass, the methods are generated as code: ``__init__``
    takes the fields in order (a class attribute of the same name is the
    default) and then calls ``__post_init__`` if the class has one;
    ``__eq__`` compares the field tuples of two instances of the same class,
    ``__hash__`` hashes that tuple and ``__repr__`` prints
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    ``FrozenRecordError``; ``_fields`` names the fields in order.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    names = {f"_d_{f}": cls.__dict__[f] for f in fields if f in cls.__dict__}
    params = "".join(f", {f}=_d_{f}" if f"_d_{f}" in names else f", {f}" for f in fields)
    # object.__setattr__ keeps the instance's values inline, as a dataclass
    # does; writing to self.__dict__ would build a dict for every instance
    body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    mine = "".join(f"self.{f}, " for f in fields)
    theirs = "".join(f"other.{f}, " for f in fields)
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    source = f"""
def __init__(self{params}):{body or " pass"}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
def __repr__(self):
    return f"{{self.__class__.__qualname__}}({shown})"
"""
    names["_set"] = object.__setattr__
    methods: dict = {}
    exec(source, names, methods)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__, cls.__delattr__ = _no_setattr, _no_delattr
    cls._fields = cls.__match_args__ = fields
    return cls


def replace(obj, **changes):
    """Copy of the record ``obj`` with ``changes``, built (and checked) anew."""
    fields = _field(lambda: type(obj)._fields, "obj", "a record")
    for f in changes:
        if f not in fields:
            raise QuiverError(
                f"{type(obj).__name__} has no field {f!r}",
                precondition="changes name fields of the record",
                witness={"field": f},
            )
    for f in fields:
        if f not in changes:
            changes[f] = getattr(obj, f)
    return obj.__class__(**changes)


@_record
class Arrow:
    label: str
    source: str
    target: str


@_record
class Path:
    """A path in a quiver, possibly lazy (length zero at a vertex).

    ``arrows`` holds labels in traversal order.  The printed form reverses
    them, matching the right-to-left composition convention.
    """

    arrows: tuple[str, ...]
    source: str
    target: str

    def __post_init__(self):
        arrows = self.arrows
        if not (isinstance(arrows, tuple) and all(isinstance(a, str) for a in arrows)):
            raise QuiverError(
                f"expected a tuple of str as arrows, got {arrows!r}",
                precondition="arrows is a tuple of str",
                witness={"arrows": repr(arrows)},
            )
        _expect(self.source, str, "source")
        _expect(self.target, str, "target")

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


_NAME_RULE = "names contain no whitespace, ';', ':' or '#' and are not '->'"


def _check_name(name: str, kind: str):
    if isinstance(name, str) and _NAME_RE.fullmatch(name) and name != "->":
        return
    is_str = isinstance(name, str)
    raise QuiverError(
        f"invalid {kind} name {name!r}",
        precondition=_NAME_RULE if is_str else f"{kind} names are strings",
        witness={kind: name if is_str else repr(name)},
    )


def _names_ok(names: Sequence) -> bool:
    """True when ``_check_name`` accepts every name: one regex pass per list."""
    try:
        return all(map(_NAME_RE.fullmatch, names)) and "->" not in names
    except TypeError:  # a name that is not a string
        return False


def _field(build, field: str, shape: str, error: type = QuiverError):
    """Run ``build`` and report a malformed argument by name, as ``error``."""
    try:
        return build()
    except (TypeError, ValueError, AttributeError, LookupError):
        raise error(
            f"{field} is not {shape}",
            precondition=f"{field} is {shape}",
            witness={"field": field},
        ) from None


def _expect(value, cls: type, name: str, error: type = QuiverError) -> None:
    """Refuse the argument ``name`` unless it is a ``cls``, as ``error``."""
    if not isinstance(value, cls):
        raise error(
            f"expected a {cls.__name__}, got {type(value).__name__}",
            precondition=f"{name} is a {cls.__name__}",
            witness={name: repr(value)},
        )


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
            lambda: tuple(vertices), "vertices", "a sequence of vertex names"
        )
        self.arrows: tuple[Arrow, ...] = _field(
            lambda: tuple([a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]),
            "arrows", "a sequence of (label, source, target) triples",
        )
        self.relations: tuple[tuple[str, str], ...] = _field(
            lambda: tuple([(str(a), str(b)) for a, b in relations]),
            "relations", "a sequence of arrow label pairs",
        )
        self._validate()

    @classmethod
    def _checked(cls, vertices, arrows, relations, by_label, relation_set):
        """A presentation of fields that already passed every check of
        ``_validate``, as tuples; ``by_label`` maps each label to its arrow."""
        self = object.__new__(cls)
        self.vertices, self.arrows, self.relations = vertices, arrows, relations
        self._index(by_label, relation_set)
        return self

    def _validate(self):
        """Check every precondition, then build the index."""
        # a list with a bad name is checked name by name in the loops below,
        # so the first violation in list order is the one reported
        vertex_names_ok = _names_ok(self.vertices)
        declared: set[str] = set()
        for v in self.vertices:
            if not vertex_names_ok:
                _check_name(v, "vertex")
            if v in declared:
                raise QuiverError(
                    f"duplicate vertex {v!r}",
                    precondition="vertex names are distinct",
                    witness={"vertex": v},
                )
            declared.add(v)
        labels_ok = _names_ok([a.label for a in self.arrows])
        by_label: dict[str, Arrow] = {}
        for a in self.arrows:
            if not labels_ok:
                _check_name(a.label, "arrow")
            if a.label in by_label:
                raise QuiverError(
                    f"duplicate arrow label {a.label!r}",
                    precondition="arrow labels are distinct",
                    witness={"arrow": a.label},
                )
            by_label[a.label] = a
            for v in (a.source, a.target):
                if not isinstance(v, str) or v not in declared:
                    raise QuiverError(
                        f"arrow {a.label!r} uses undeclared vertex {v!r}",
                        precondition="arrow endpoints are declared vertices",
                        witness={"arrow": a.label, "vertex": v},
                    )
        relation_set: set[tuple[str, str]] = set()
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
        self._index(by_label, relation_set)

    def _index(self, by_label: dict[str, Arrow], relation_set: set[tuple[str, str]]):
        """Build the indices of checked fields, for ``_validate`` and the parser."""
        outgoing: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        incoming: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            outgoing[a.source].append(a)
            incoming[a.target].append(a)
        successors: dict[str, list[str]] = {}
        predecessors: dict[str, list[str]] = {}
        for first, second in self.relations:
            successors.setdefault(first, []).append(second)
            predecessors.setdefault(second, []).append(first)
        self._by_label = by_label
        self.outgoing = {v: tuple(arrs) for v, arrs in outgoing.items()}
        self.incoming = {v: tuple(arrs) for v, arrs in incoming.items()}
        self.successors = {a: tuple(bs) for a, bs in successors.items()}
        self.predecessors = {a: tuple(bs) for a, bs in predecessors.items()}
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
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise QuiverError(
                f"no arrow labelled {label!r}",
                precondition="label names a declared arrow",
                witness={"arrow": label if isinstance(label, str) else repr(label)},
            ) from None

    def source(self, label: str) -> str:
        return self.arrow(label).source

    def target(self, label: str) -> str:
        return self.arrow(label).target

    # vertices are strs, so any other value, hashable or not, has no arrows
    def arrows_from(self, vertex: str) -> list[Arrow]:
        return list(self.outgoing.get(vertex, ())) if isinstance(vertex, str) else []

    def arrows_into(self, vertex: str) -> list[Arrow]:
        return list(self.incoming.get(vertex, ())) if isinstance(vertex, str) else []

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
        labels = _field(lambda: tuple(labels), "labels", "a sequence of arrow labels")
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
    _expect(p, Path, "first factor")
    _expect(q, Path, "second factor")
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
    _expect(path, Path, "path")
    _expect(pres, Presentation, "presentation")
    return any(
        (a, b) in pres.relation_set for a, b in zip(path.arrows, path.arrows[1:])
    )


# ---------------------------------------------------------------------------
# text format


_COMMENT_RE = re.compile(r"#[^\n]*")
# Words are separated by exactly these characters; other whitespace, such as
# a no-break space, stays inside a word for the name check to refuse.  The
# map is one character to one, so offsets survive it.
_SEPARATORS = str.maketrans("\t\r\n", "   ")
_ARROW_SHAPE = "expected 'arrow <label>: <src> -> <tgt>'"


def _blank(comment: re.Match) -> str:
    return " " * len(comment.group())


def _parse_error(message: str, text: str, pos: int, **kw) -> ParseError:
    """ParseError at offset ``pos``; lines end at '\n', columns count from 1."""
    line_start = text.rfind("\n", 0, pos) + 1
    line = text.count("\n", 0, line_start) + 1
    return ParseError(message, line, pos - line_start + 1, **kw)


def _word_starts(body: str) -> list[int]:
    """Offsets of the words of a separator-normalised statement."""
    starts, pos = [], 0
    for piece in body.split(" "):
        if piece:
            starts.append(pos)
        pos += len(piece) + 1
    return starts


def _split_relation_token(token: str, labels: Container[str]):
    """All ways to split a juxtaposed display token into two declared labels."""
    out = []
    for cut in range(1, len(token)):
        first, second = token[:cut], token[cut:]
        if first in labels and second in labels:
            out.append((first, second))
    return out


def parse_presentation(text: str) -> Presentation:
    """Read the text format, checking each statement as it is read.

    Comments are blanked in place and separators become spaces, so every
    offset into the cleaned text is an offset into ``text``; positions are
    worked out only for an error.  The statements' checks cover every
    precondition of ``Presentation`` but the name rule, which is checked
    once per name list at the end, so the index is built once and nothing
    is checked twice.
    """
    if not isinstance(text, str):
        raise QuiverError(
            f"expected text, got {type(text).__name__}",
            precondition="text is a str",
            witness={"text": repr(text)},
        )
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations: list[tuple[str, str]] = []
    relation_set: set[tuple[str, str]] = set()
    vertex_at: dict[str, tuple[int, int]] = {}  # name -> (statement, word) declaring it
    labels: dict[str, Arrow] = {}
    label_at: dict[str, int] = {}  # label -> statement declaring it

    clean = _COMMENT_RE.sub(_blank, text).translate(_SEPARATORS)
    *bodies, tail = clean.split(";")
    # an unterminated final statement is reported before anything else
    if tail.strip(" "):
        pos = len(clean) - len(tail) + _word_starts(tail)[0]
        raise _parse_error("statement is not terminated by ';'", text, pos)

    def err(msg, index, **kw):
        # the index-th word of bodies[number], the statement in hand
        start = sum(len(body) + 1 for body in bodies[:number])
        raise _parse_error(msg, text, start + _word_starts(bodies[number])[index], **kw)

    for number, body in enumerate(bodies):
        words = body.strip(" ").split(" ")
        if "" in words:  # a blank statement, or words apart by more than one space
            words = [w for w in words if w]
            if not words:
                continue
        head = words[0]
        if head == "arrow":
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
                if words[j] not in vertex_at:
                    err(f"undeclared vertex {words[j]!r}", j)
            arrows.append(Arrow(label, words[i], words[i + 2]))
            labels[label] = arrows[-1]
            label_at[label] = number
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
            pair = first_applied, second_applied
            if pair in relation_set:
                err(f"duplicate relation {disp_first} {disp_second}", 1)
            relation_set.add(pair)
            relations.append(pair)
        elif head == "vertices":
            if len(words) < 2:
                err("'vertices' expects at least one name", 0)
            for i, name in enumerate(words[1:], 1):
                if name in vertex_at:
                    err(f"duplicate vertex {name!r}", i)
                if name == "->":
                    err("'->' is not a valid vertex name", i)
                vertex_at[name] = number, i
                vertices.append(name)
        elif head not in ("arrows", "relations") or len(words) > 1:
            # bare section headers declare nothing
            err(f"unknown statement {head!r}", 0)

    # the name rule last, vertices first: report the first bad name in list
    # order at the word that declares it
    for names, kind in ((vertices, "vertex"), (labels, "arrow")):
        if _names_ok(names):
            continue
        for name in names:
            try:
                _check_name(name, kind)
            except QuiverError as bad:
                number, index = vertex_at[name] if kind == "vertex" else (label_at[name], 1)
                err(bad.message, index, precondition=bad.precondition)
    return Presentation._checked(
        tuple(vertices), tuple(arrows), tuple(relations), labels, relation_set
    )


def serialize_presentation(pres: Presentation) -> str:
    _expect(pres, Presentation, "presentation")
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
    _expect(pres, Presentation, "presentation")
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
