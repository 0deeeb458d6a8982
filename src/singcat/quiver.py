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
from collections.abc import Container, Iterable, Sequence
from functools import cache, partial

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


def _repr(self):
    shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
    return f"{self.__class__.__qualname__}({shown})"


def _reduce(self):
    return self.__class__, tuple([getattr(self, f) for f in self._fields])


def _as_tuple(value, field: str, shape: str, error: type) -> tuple:
    """``tuple(value)`` for the record field ``field``, refused by name; a
    str is refused too, not split into one-letter items."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except _MALFORMED:
            pass
    raise _field_error(field, shape, error)


# a field annotated ``tuple[X, ...]`` (the annotation read as text) holds X
_SEQUENCE_RE = re.compile(r"tuple\[(.+), \.\.\.\]")


def _record(error: type):
    """Class decorator: ``@_record(Error)`` makes a frozen value class over
    the annotated fields, which refuses a malformed field as ``Error``.

    The class is rebuilt with one slot per field, so an instance holds its
    values in fixed places and ``vars()`` does not list them.  A class with
    a ``__post_init__`` also gets an instance ``__dict__``, for the state
    that method derives from the fields.  As for a frozen dataclass, the
    methods that run often are generated as code: ``__init__`` takes the
    fields in order (a class attribute of the same name is the default),
    writes each through its slot's descriptor and then calls
    ``__post_init__``; ``__eq__`` compares the field tuples of two instances
    of the same class and ``__hash__`` hashes that tuple.  ``__repr__``
    prints ``Name(field=value, ...)``, and ``__reduce__`` rebuilds an
    instance from its fields, so a copy or an unpickled record passes
    ``__init__`` again.  Assigning or deleting an attribute raises
    ``FrozenRecordError``; ``_fields`` names the fields in order.  A field
    annotated ``tuple[X, ...]`` is stored as ``tuple(value)`` when given
    anything but a tuple, so a list or an iterator hashes and compares like
    the tuple it holds; a str, or a value that does not iterate, is refused
    as "<field> is not a sequence of X".
    """
    return partial(_frozen, error)


def _frozen(error: type, cls):
    """``cls`` rebuilt by ``@_record(error)``."""
    hints = cls.__dict__.get("__annotations__", {})
    fields = tuple(hints)
    shapes = {
        f: f"a sequence of {held[1]}"
        for f, hint in hints.items() if (held := _SEQUENCE_RE.fullmatch(str(hint)))
    }
    names = {f"_d_{f}": cls.__dict__[f] for f in fields if f in cls.__dict__}
    namespace = {
        k: v for k, v in cls.__dict__.items()
        if k not in fields and k not in ("__dict__", "__weakref__")
    }
    post_init = hasattr(cls, "__post_init__")
    namespace["__slots__"] = fields + (("__dict__",) if post_init else ())
    namespace["__qualname__"] = cls.__qualname__
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    names.update({f"_set_{f}": cls.__dict__[f].__set__ for f in fields})
    names.update(_as_tuple=_as_tuple, _error=error)
    params = "".join(f", {f}=_d_{f}" if f"_d_{f}" in names else f", {f}" for f in fields)
    body = "".join(
        f"\n    _set_{f}(self, {f} if {f}.__class__ is tuple"
        f" else _as_tuple({f}, {f!r}, {shapes[f]!r}, _error))"
        if f in shapes else f"\n    _set_{f}(self, {f})"
        for f in fields
    )
    if post_init:
        body += "\n    self.__post_init__()"
    mine = "".join(f"self.{f}, " for f in fields)
    theirs = "".join(f"other.{f}, " for f in fields)
    source = f"""
def __init__(self{params}):{body or " pass"}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
"""
    methods: dict = {}
    exec(source, names, methods)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__repr__, cls.__reduce__ = _repr, _reduce
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


@_record(QuiverError)
class Arrow:
    label: str
    source: str
    target: str


@_record(QuiverError)
class Path:
    """A path in a quiver, possibly lazy (length zero at a vertex).

    ``arrows`` holds labels in traversal order.  The printed form reverses
    them, matching the right-to-left composition convention.
    """

    arrows: tuple[str, ...]
    source: str
    target: str

    def __post_init__(self):
        if not all(isinstance(a, str) for a in self.arrows):
            raise _field_error("arrows", "a sequence of str")
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


# what reading a malformed argument raises, and ``_field`` refuses by name
_MALFORMED = (TypeError, ValueError, AttributeError, LookupError)


def _field_error(field: str, shape: str, error: type = QuiverError) -> SingcatError:
    """The refusal of the argument ``field``, which is not ``shape``, as
    ``error``; a hot path raises it from its own ``except _MALFORMED``."""
    return error(
        f"{field} is not {shape}",
        precondition=f"{field} is {shape}",
        witness={"field": field},
    )


def _field(build, field: str, shape: str, error: type = QuiverError):
    """Run ``build`` and report a malformed argument by name, as ``error``."""
    try:
        return build()
    except _MALFORMED:
        raise _field_error(field, shape, error) from None


def _expect_text(text, error: type) -> None:
    """Refuse ``text`` unless it is a str, as ``error``: the parsers' check."""
    if not isinstance(text, str):
        raise error(
            f"expected text, got {type(text).__name__}",
            precondition="text is a str",
            witness={"text": repr(text)},
        )


def _read_int(digits: str, error: type, subject: str, key: str, text: str) -> int:
    """``int(digits)``, for decimal digits read from the argument ``text``.

    Digits beyond ``int()``'s limit are refused as ``error``, whose message
    says that ``subject`` (a format string given ``text``) has too many
    digits and whose witness holds ``text`` under ``key``.  The refusal is
    built only when raised, as readers call this once or twice per object.
    """
    try:
        return int(digits)
    except ValueError:
        raise error(
            f"{subject.format(text)} has too many digits",
            precondition=INT_DIGITS,
            witness={key: text},
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
    """Quiver presentation with length-two relations.

    ``vertices``, ``arrows`` and ``relations`` are tuples, and they are all
    that ``==`` and ``hash`` read.  The checks index the fields as they pass:
    ``outgoing``/``incoming`` hold each vertex's arrows in declaration order,
    ``successors``/``predecessors`` each arrow's relation partners (labels in
    relation order; absent if none) and ``relation_set`` the relation pairs.
    The index keeps the dicts, lists and set the checks filled, so callers
    must not change it; ``arrows_from``/``arrows_into`` return copies.
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
    def _checked(cls, by_label, outgoing, incoming, relations,
                 successors, predecessors, relation_set):
        """A presentation of fields that already passed every check of
        ``_validate``, keeping their index as built; ``by_label`` and
        ``outgoing`` keep declaration order, so they give the arrows and the
        vertices."""
        self = object.__new__(cls)
        self.vertices, self.arrows = tuple(outgoing), tuple(by_label.values())
        self.relations = tuple(relations)
        self._by_label, self.outgoing, self.incoming = by_label, outgoing, incoming
        self.successors, self.predecessors = successors, predecessors
        self.relation_set = relation_set
        return self

    def _validate(self):
        """Check every precondition, indexing the fields as they pass."""
        # each name is checked before it is looked up, so the first
        # violation in list order is the one reported
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
            outgoing[v], incoming[v] = [], []
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
        successors: dict[str, list[str]] = {}
        predecessors: dict[str, list[str]] = {}
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
            successors.setdefault(first, []).append(second)
            predecessors.setdefault(second, []).append(first)
        self._by_label, self.outgoing, self.incoming = by_label, outgoing, incoming
        self.successors, self.predecessors = successors, predecessors
        self.relation_set = relation_set

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


def _statement_error(text: str, clean: str, number: int, index: int, message: str, **kw):
    """ParseError at word ``index`` (negative counts from the end) of
    statement ``number`` of the cleaned text."""
    bodies = clean.split(";")
    start = sum(len(body) + 1 for body in bodies[:number])
    return _parse_error(message, text, start + _word_starts(bodies[number])[index], **kw)


def _split_relation_token(token: str, labels: Container[str]):
    """All ways to split a juxtaposed display token into two declared labels."""
    out = []
    for cut in range(1, len(token)):
        first, second = token[:cut], token[cut:]
        if first in labels and second in labels:
            out.append((first, second))
    return out


# One ';'-terminated statement of the cleaned text, whose separators are all
# spaces.  ``findall`` gives the nine groups of each statement; a malformed
# statement falls through to the last, and its error is at its first word.
_NAME = _NAME_RE.pattern
_WORD = r"[^ ;]+"
_STATEMENT = rf"""\ *(?:
      arrow\ +(?:
          ((?!->\ *:){_NAME})\ *             # 1: a label that obeys the name rule,
        | ({_WORD}(?=:\ )                    # 2: or one that breaks it: "<label>: ",
          | [^\ ;]*[^\ ;:](?=\ +:)           #    or "<label> :" where the label does
          | :(?=\ +:)                         #    not end in ':' or is ':'
          )\ *
      ):\ +({_WORD})\ +->\ +({_WORD})        # 3, 4: source and target
    | relation\ +({_WORD})(?:\ +({_WORD}))?  # 5, 6: a juxtaposed token, or two labels
    | vertices((?:\ +{_NAME})+)              # 7: names that obey the rule, but '->'
    | vertices((?:\ +{_WORD})+)              # 8: any names
    | ([^;]*)                                # 9: blank, a bare header or malformed
    )\ *;"""


@cache
def _statement_re() -> re.Pattern:
    # compiled on the first parse, not at import, as most commands never
    # read a presentation: about 0.4 ms of a 10 ms import (Python 3.11, a
    # 2-core x86-64 machine)
    return re.compile(_STATEMENT, re.VERBOSE)


_SHAPES = {  # the error of a malformed statement, by its first word
    "arrow": "expected 'arrow <label>: <src> -> <tgt>'",
    "relation": "'relation' expects one juxtaposed token or two labels",
    "vertices": "'vertices' expects at least one name",
}


def parse_presentation(text: str) -> Presentation:
    """Read the text format, checking and indexing each statement as it is read.

    Comments are blanked in place and separators become spaces, so every
    offset into the cleaned text is an offset into ``text``; positions are
    worked out only for an error.  One ``findall`` splits the cleaned text
    into statements and their words.  The statements' checks cover every
    precondition of ``Presentation``.  A name that breaks the name rule is
    located where it is read, but raised only after the last statement, so
    every other error comes first, vertices before labels.  The index is
    filled by the statement loop and kept as built, so no arrow or relation
    is visited twice.
    """
    _expect_text(text, QuiverError)
    labels: dict[str, Arrow] = {}  # the declared arrows
    outgoing: dict[str, list[Arrow]] = {}  # the declared vertices, with their arrows
    incoming: dict[str, list[Arrow]] = {}
    relations: list[tuple[str, str]] = []
    relation_set: set[tuple[str, str]] = set()
    successors: dict[str, list[str]] = {}
    predecessors: dict[str, list[str]] = {}
    # the first name that breaks the rule, as (statement, word, name)
    bad_vertex = bad_label = None

    clean = (_COMMENT_RE.sub(_blank, text) if "#" in text else text).translate(_SEPARATORS)
    end = clean.rfind(";") + 1
    # an unterminated final statement is reported before anything else
    if clean[end:].strip(" "):
        raise _parse_error(
            "statement is not terminated by ';'", text, end + _word_starts(clean[end:])[0]
        )

    at = partial(_statement_error, text, clean)
    statements = _statement_re().findall(clean, 0, end)
    for number, (label, odd_label, source, target, first, second,
                 names, odd_names, other) in enumerate(statements):
        if source:
            if not label:
                # group 2 only ever holds a label that breaks the name rule:
                # group 1 is tried first on the same text and reads every
                # label that obeys it (it refuses '->', which breaks it)
                label = odd_label
                bad_label = bad_label or (number, 1, label)
            if label in labels:
                raise at(number, 1, f"duplicate arrow label {label!r}")
            if source not in outgoing or target not in outgoing:
                j, name = (-3, source) if source not in outgoing else (-1, target)
                raise at(number, j, f"undeclared vertex {name!r}")
            labels[label] = arrow = Arrow(label, source, target)
            outgoing[source].append(arrow)
            incoming[target].append(arrow)
        elif first:  # the display labels, right to left
            if not second:
                splits = _split_relation_token(first, labels)
                if not splits:
                    raise at(
                        number, 1,
                        f"relation token {first!r} does not split into two "
                        "declared arrow labels",
                    )
                if len(splits) > 1:
                    raise at(
                        number, 1,
                        f"relation token {first!r} splits ambiguously; "
                        "write the two labels separated by a space",
                    )
                first, second = splits[0]
            elif first not in labels or second not in labels:
                i, name = (1, first) if first not in labels else (2, second)
                raise at(number, i, f"undeclared arrow {name!r} in relation")
            # the second displayed label is applied first
            a1, a2 = labels[second], labels[first]
            if a1.target != a2.source:
                raise at(
                    number, 1,
                    f"relation {first}{second} is not composable: "
                    f"{second!r} ends at {a1.target!r} but "
                    f"{first!r} starts at {a2.source!r}",
                )
            pair = second, first
            if pair in relation_set:
                raise at(number, 1, f"duplicate relation {first} {second}")
            relation_set.add(pair)
            relations.append(pair)
            successors.setdefault(second, []).append(first)
            predecessors.setdefault(first, []).append(second)
        elif names or odd_names:
            for i, name in enumerate(filter(None, (names or odd_names).split(" ")), 1):
                if name in outgoing:
                    raise at(number, i, f"duplicate vertex {name!r}")
                if name == "->":
                    raise at(number, i, "'->' is not a valid vertex name")
                if odd_names and not (bad_vertex or _NAME_RE.fullmatch(name)):
                    bad_vertex = number, i, name
                outgoing[name], incoming[name] = [], []
        elif other.rstrip(" ") not in ("", "arrows", "relations"):
            # a blank statement or a bare section header declares nothing
            head = other.split(" ", 1)[0]
            raise at(number, 0, _SHAPES.get(head) or f"unknown statement {head!r}")

    # the name rule last, vertices first
    for bad, kind in ((bad_vertex, "vertex"), (bad_label, "arrow")):
        if bad:
            number, i, name = bad
            raise at(number, i, f"invalid {kind} name {name!r}", precondition=_NAME_RULE)
    return Presentation._checked(
        labels, outgoing, incoming, relations, successors, predecessors, relation_set
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
