"""Resolution graphs of rational surface singularities.

A dual graph is a tree of exceptional curves with self-intersection weights
at most -2 and a negative definite intersection form (diagonal = weights,
off-diagonal = 1 for adjacent curves).  Definiteness is tested only on
forests, leaf first by Sylvester's criterion, which on a tree needs no fill
and costs one step per vertex and per edge.  The module computes fundamental
cycles by Laufer's algorithm, continued fraction expansions for cyclic
quotient singularities, ADE recognition of (-2)-subtrees, and the block
decompositions obtained by contracting a subset of (-2)-curves.

Text format for graph files ('#' starts a comment)::

    vertex 1 -2;
    vertex 2 -5;
    edge 1 2;

All arithmetic is exact (integers, and fractions for continued fractions);
no floating point.
"""

from __future__ import annotations

import re
from collections.abc import Container, Iterable, Mapping, Sequence
from itertools import islice
from math import gcd
from types import MappingProxyType

from .quiver import (
    _COMMENT_RE, INT_DIGITS, ParseError, SingcatError, _blank, _expect, _expect_text, _field,
    _items, _record,
)


class SurfaceError(SingcatError):
    pass


# shapes of the list arguments, as reported when one is malformed
_NAMES = "a sequence of vertex names"
_PAIRS = "a sequence of vertex pairs"
_WEIGHTS = "a mapping from vertex names to weights"
_SIMPLE_TREE = "the dual graph is a simple tree"
# what the text format reads as a name
_NAME = r"[^\s;#]+"
_NAME_RE = re.compile(_NAME)


def _check_weight(v: str, w) -> None:
    # type(), not isinstance: a bool is not a weight
    if type(w) is not int:
        raise SurfaceError(
            f"vertex {v} has weight {w!r}, not an integer",
            precondition="weights are ints",
            witness={"vertex": v, "weight": repr(w)},
        )


def _edge_faults(declared: Container, edges: Iterable, precondition: str) -> None:
    """Raise at the first edge, in edge order, with an undeclared end, that is
    a self-loop or that repeats an earlier edge in either orientation;
    ``precondition`` names the simplicity the last two break."""
    seen: set = set()
    for u, v in edges:
        try:
            declares = u in declared and v in declared
        except TypeError:  # an unhashable endpoint is never a declared vertex
            declares = False
        if not declares:
            raise SurfaceError(
                f"edge ({u}, {v}) uses an undeclared vertex",
                precondition="edge endpoints are declared vertices",
                witness={"edge": [u, v]},
            )
        if u == v:
            raise SurfaceError(
                f"self-loop at {u}", precondition=precondition, witness={"vertex": u}
            )
        if (u, v) in seen or (v, u) in seen:
            raise SurfaceError(
                f"duplicate edge ({u}, {v})",
                precondition=precondition,
                witness={"edge": [u, v]},
            )
        seen.add((u, v))


def _edge_index(nbrs: dict[str, list[str]], edges: Iterable, precondition: str) -> None:
    """Append each edge to its ends' lists in ``nbrs``, so each is in edge order.

    Refuses an edge with an undeclared end, but lets loops and repeated edges
    through: a multigraph on n vertices in c components has at least n - c
    distinct edges that are not loops, so one with exactly n - c edges, as a
    tree or forest has, has neither.  Callers that accept only those scan
    for them, with ``_edge_faults``, only when that count fails.
    """
    try:
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
    except (KeyError, TypeError):  # an undeclared or unhashable end
        _edge_faults(nbrs, edges, precondition)


def _neighbour_lists(vertices: Sequence[str]) -> dict[str, list[str]]:
    """An empty neighbour list per vertex, in vertex order; refuses a
    repeated vertex name."""
    nbrs: dict[str, list[str]] = {v: [] for v in vertices}
    if len(nbrs) != len(vertices):
        raise SurfaceError(
            "duplicate vertex in dual graph",
            precondition="vertex names are distinct",
            witness={"vertices": list(vertices)},
        )
    return nbrs


def _negative_definite(parent: Mapping[str, str | None], num: dict[str, int]) -> bool:
    """Sylvester's criterion leaf first on one tree, with no fill.

    ``parent`` maps each vertex of the tree, in breadth-first order from its
    root, to the vertex it was reached from (the root to None), as
    ``_component`` returns it.  Walking that order backwards, every vertex
    comes after all of its descendants.  Each vertex v carries an integer
    pair (num, den), starting at (-w_v, 1) with -w_v given in ``num``, which
    is folded in place: folding in a child with pair (a, b) sets
    num <- num·a - den·b and den <- den·a.  Once all children are folded in,
    num is det(-M) of v's subtree and den is det(-M) of that subtree without
    v, so num/den is v's elimination pivot of -M.  The form is negative
    definite iff every num is positive.  Cost: one step per vertex and per
    edge, on integers the size of those determinants.
    """
    den = dict.fromkeys(parent, 1)
    for v in reversed(parent):
        a = num[v]
        if a <= 0:
            return False
        p = parent[v]
        if p is not None:
            num[p] = num[p] * a - den[p] * den[v]
            den[p] *= a
    return True


def is_negative_definite(
    vertices: Sequence[str],
    edges: Iterable[tuple[str, str]],
    weights: Mapping[str, int],
) -> bool:
    """Exact test of the intersection form of a weighted forest.

    Runs Sylvester's criterion leaf first on each tree of the forest, in
    time linear in the number of vertices and edges (up to the cost of
    multiplying integers as large as the subtree determinants).

    Raises ``SurfaceError`` unless the vertices are distinct, each has an
    ``int`` weight, every edge joins two declared vertices, at most once,
    and the graph is a forest (has no cycle); in that order, and the edges
    in edge order.  A forest of c trees on n vertices has n - c edges, which
    rules out loops and repeats, so they are looked for only when that count
    fails.
    """
    vertices = _field(lambda: _items(vertices), "vertices", _NAMES, SurfaceError)
    nbrs = _field(lambda: _neighbour_lists(vertices), "vertices", _NAMES, SurfaceError)
    weights = _field(
        lambda: {v: weights[v] for v in vertices if v in weights},
        "weights", _WEIGHTS, SurfaceError,
    )
    num = {}
    for v in vertices:
        if v not in weights:
            raise SurfaceError(
                f"vertex {v} has no weight",
                precondition="every vertex has a weight",
                witness={"vertex": v},
            )
        _check_weight(v, weights[v])
        num[v] = -weights[v]
    edges = _field(
        lambda: [(u, v) for u, v in map(_items, _items(edges))], "edges", _PAIRS, SurfaceError
    )
    _edge_index(nbrs, edges, "the graph is simple")
    trees: list[dict[str, str | None]] = []
    reached: set[str] = set()
    for v in vertices:
        if v not in reached:
            trees.append(_component(v, nbrs))
            reached.update(trees[-1])
    # a forest has one edge fewer than vertices per tree
    if len(edges) != len(vertices) - len(trees):
        _edge_faults(nbrs, edges, "the graph is simple")
        raise SurfaceError(
            "the graph has a cycle",
            precondition="the graph is a forest",
            witness={"vertices": len(vertices), "edges": len(edges)},
        )
    return all(_negative_definite(tree, num) for tree in trees)


def _component(
    start: str, nbrs: Mapping, inside: Container | None = None
) -> dict[str, str | None]:
    """Breadth-first walk from ``start`` through ``nbrs``, stepping only onto
    vertices in ``inside`` when it is given.

    Returns each reached vertex, in the order reached, mapped to the vertex
    it was reached from (``start`` to None).
    """
    parent: dict[str, str | None] = {start: None}
    queue = [start]
    for v in queue:
        for w in nbrs[v]:
            if w not in parent and (inside is None or w in inside):
                parent[w] = v
                queue.append(w)
    return parent


def _tree(
    vertices: Sequence[str], edges: Sequence[tuple[str, str]]
) -> tuple[dict[str, list[str]], dict[str, str | None]]:
    """Neighbour lists of a simple tree, in vertex order and each in edge
    order, and its breadth-first walk from its first vertex, as
    ``_component`` returns it.

    Refuses, in this order: a repeated name, no vertex at all, the first
    edge with an undeclared end, and a graph that is not connected with
    n - 1 edges.  A graph that passes that test is simple, so the edges are
    scanned for the first loop or repeat only when it fails.
    """
    n = len(vertices)
    nbrs = _neighbour_lists(vertices)
    if not n:
        raise SurfaceError(
            "dual graph needs at least one vertex",
            precondition="at least one exceptional curve",
        )
    _edge_index(nbrs, edges, _SIMPLE_TREE)
    tree = _component(vertices[0], nbrs)
    if len(edges) != n - 1 or len(tree) != n:
        _edge_faults(nbrs, edges, _SIMPLE_TREE)
        raise SurfaceError(
            "the dual graph is not a tree",
            precondition="the graph is connected and acyclic",
            witness={"vertices": n, "edges": len(edges)},
        )
    return nbrs, tree


@_record(SurfaceError)
class DualGraph:
    """Validated resolution graph: a weighted negative definite tree.

    Vertex names are what the text format can carry: non-empty, with no
    whitespace, ';' or '#'.  ``adjacency`` maps each vertex, in vertex
    order, to the tuple of its neighbours in edge order; it is built during
    validation, which walks the edges once: a connected graph with n - 1
    edges is a simple tree, so loops and repeated edges are looked for only
    when that test fails.  ``weights`` and ``adjacency`` are read-only
    views of the dicts that ``_weights`` and ``_adjacency`` hold, so an
    in-place change raises ``TypeError``.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    weights: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple([str(v) for v in self.vertices]))
        object.__setattr__(self, "edges", _field(
            lambda: tuple([(str(u), str(v)) for u, v in map(_items, self.edges)]),
            "edges", _PAIRS, SurfaceError,
        ))
        object.__setattr__(self, "weights", _field(
            lambda: {str(v): w for v, w in self.weights.items()},
            "weights", _WEIGHTS, SurfaceError,
        ))
        for v in self.vertices:
            if not _NAME_RE.fullmatch(v):
                raise SurfaceError(
                    f"invalid vertex name {v!r}",
                    precondition="vertex names are non-empty and contain no "
                    "whitespace, ';' or '#'",
                    witness={"vertex": v},
                )
        self._validate()

    @classmethod
    def _checked(cls, edges: list[tuple[str, str]], weights: dict[str, int]) -> DualGraph:
        """A graph of fields already of the right types (str names that the
        text format can carry, pairs of them, int weights), as the text
        parser builds them, whose vertices are the keys of ``weights`` in
        order: skips the conversions and the name check of
        ``__post_init__``, not its other checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "vertices", tuple(weights))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "weights", weights)
        self._validate()
        return self

    def _validate(self):
        # weights is this graph's own dict (from __post_init__ or _checked);
        # the public names show read-only views of it and of the adjacency
        weights = self.weights
        object.__setattr__(self, "weights", MappingProxyType(weights))
        nbrs, tree = _tree(self.vertices, self.edges)
        adjacency = {v: tuple(ns) for v, ns in nbrs.items()}
        self.__dict__.update(
            _weights=weights, _adjacency=adjacency, adjacency=MappingProxyType(adjacency)
        )
        if weights.keys() != nbrs.keys():
            raise SurfaceError(
                "weights do not cover the vertex set exactly",
                precondition="every vertex has exactly one weight",
                witness={"weighted": sorted(weights), "vertices": sorted(nbrs)},
            )
        num = {}
        for v, w in weights.items():
            if type(w) is not int or w > -2:
                _check_weight(v, w)
                raise SurfaceError(
                    f"vertex {v} has weight {w}",
                    precondition="every self-intersection weight is at most -2",
                    witness={"vertex": v, "weight": w},
                )
            num[v] = -w
        if not _negative_definite(tree, num):
            raise SurfaceError(
                "the intersection form is not negative definite",
                precondition="negative definite intersection form",
                witness={
                    "weights": {v: weights[v] for v in sorted(weights)}
                },
            )

    def __repr__(self):
        return f"DualGraph({len(self.vertices)} vertices)"


# ---------------------------------------------------------------------------
# Laufer's algorithm


def _laufer(
    vertices: Sequence[str],
    adjacency: Mapping[str, Sequence[str]],
    weights: Mapping[str, int],
    rng: Random | None,
) -> dict[str, int]:
    """Laufer's increment loop from Z = (1, ..., 1), driven by a worklist.

    Each curve v owns one cell, ``[Z·E_v, z_v, w_v, neighbours of v]``,
    and ``cells`` maps v to it in vertex order.  ``pending`` lists exactly
    the cells whose first slot is positive.  A step raises one pending
    curve v by 1 in its own cell, which adds w_v to its Z·E_v and 1 to
    each neighbour's, reached by one ``cells[u]`` lookup; only v and its
    neighbours can change state, so a step still costs O(deg v).  ``rng``
    picks the cell uniformly from ``pending``, a list built in vertex and
    adjacency order, so a seed gives the same run whatever the hash seed.

    The caller passes a validated ``DualGraph``'s vertices, adjacency and
    weights, which no one can change in place: on its negative definite
    form every order of raises reaches the same Z (the minimal anti-nef
    cycle) after Σz − n steps in all, so the step count does not depend on
    ``rng``.  On other input the loop need not stop.
    """
    cells = {v: [weights[v] + len(adjacency[v]), 1, weights[v], adjacency[v]] for v in vertices}
    pending = [cell for cell in cells.values() if cell[0] > 0]
    while pending:
        if rng is not None:
            i = rng.randrange(len(pending))
            pending[i], pending[-1] = pending[-1], pending[i]
        cell = pending.pop()
        cell[1] += 1
        cell[0] += cell[2]
        for u in cell[3]:
            near = cells[u]
            near[0] += 1
            if near[0] == 1:
                pending.append(near)
        if cell[0] > 0:
            pending.append(cell)
    return {v: cell[1] for v, cell in cells.items()}


def fundamental_cycle(graph: DualGraph, seed: int | None = None) -> dict[str, int]:
    """Coefficients of the fundamental cycle, by Laufer's increment loop.

    The result does not depend on the choice of violated vertex; ``seed``
    randomizes that choice so callers can confirm it.
    """
    _expect(graph, DualGraph, "graph", SurfaceError)
    rng = None
    if seed is not None:
        if type(seed) is not int:
            raise SurfaceError(
                f"expected None or an int as seed, got {type(seed).__name__}",
                precondition="seed is None or an int",
                witness={"seed": repr(seed)},
            )
        from random import Random  # here, so importing singcat skips it

        rng = Random(seed)
    # the dicts behind the read-only views: the loop's setup reads every
    # entry, and a lookup through a view costs more
    return _laufer(graph.vertices, graph._adjacency, graph._weights, rng)


def special_ranks(graph: DualGraph) -> dict[str, int]:
    """Rank of the special module attached to each curve: the fundamental
    cycle coefficient at that curve."""
    return fundamental_cycle(graph)


def canonical_syzygy_multiplicities(graph: DualGraph) -> dict[str, int]:
    """Multiplicity -2 - weight(v) for each curve (zero exactly at -2-curves)."""
    _expect(graph, DualGraph, "graph", SurfaceError)
    return {v: -2 - graph.weights[v] for v in graph.vertices}


@_record(SurfaceError)
class ProjectiveInjectives:
    """Curves with weight below -2, plus the ever-present free module."""

    vertices: tuple[str, ...]
    includes_free_module: bool = True


def projective_injective_vertices(graph: DualGraph) -> ProjectiveInjectives:
    _expect(graph, DualGraph, "graph", SurfaceError)
    return ProjectiveInjectives(sorted(v for v in graph.vertices if graph.weights[v] < -2))


# ---------------------------------------------------------------------------
# cyclic quotient singularities


def jung_hirzebruch(n: int, a: int) -> list[int]:
    """Ceiling continued fraction expansion of n/a.

    n/a = c1 - 1/(c2 - 1/(... - 1/ct)) with every ci >= 2; requires
    0 < a < n and gcd(n, a) = 1.
    """
    if not (type(n) is int and type(a) is int):
        raise SurfaceError(
            "expansion arguments must be integers",
            precondition="n and a are integers",
            witness={"n": repr(n), "a": repr(a)},
        )
    if not 0 < a < n:
        raise SurfaceError(
            f"need 0 < a < n, got n={n}, a={a}",
            precondition="0 < a < n",
            witness={"n": n, "a": a},
        )
    if gcd(n, a) != 1:
        raise SurfaceError(
            f"n and a are not coprime: gcd({n}, {a}) = {gcd(n, a)}",
            precondition="gcd(n, a) = 1",
            witness={"n": n, "a": a, "gcd": gcd(n, a)},
        )
    out: list[int] = []
    while a:
        c = -(-n // a)
        out.append(c)
        n, a = a, c * a - n
    return out


def evaluate_expansion(coefficients: Iterable[int]) -> Fraction:
    """Exact value c1 - 1/(c2 - 1/(...)) of a ceiling continued fraction."""
    from fractions import Fraction  # here, so importing singcat skips it

    coefficients = _field(
        lambda: tuple(coefficients), "coefficients", "an iterable of integers",
        SurfaceError,
    )
    if not coefficients:
        raise SurfaceError(
            "empty expansion",
            precondition="at least one coefficient",
        )
    for c in coefficients:
        if type(c) is not int or c < 2:
            raise SurfaceError(
                f"invalid coefficient {c!r}",
                precondition="all coefficients are integers >= 2",
                witness={"coefficient": repr(c)},
            )
    value = Fraction(coefficients[-1])
    for c in reversed(coefficients[:-1]):
        value = c - 1 / value
    return value


def cyclic_dual_graph(n: int, a: int) -> DualGraph:
    """String of curves with weights -c1, ..., -ct from the expansion of n/a."""
    weights = {str(i): -c for i, c in enumerate(jung_hirzebruch(n, a), 1)}
    vertices = list(weights)
    return DualGraph._checked(list(zip(vertices, vertices[1:])), weights)


# ---------------------------------------------------------------------------
# ADE recognition and contraction decompositions


@_record(SurfaceError)
class ADEType:
    family: str
    rank: int

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"


def ade_recognize(
    vertices: Sequence[str], edges: Iterable[tuple[str, str]]
) -> ADEType:
    """Recognize the shape of a connected tree of (-2)-curves.

    Paths are A_n, one degree-3 vertex with arm lengths (1, 1, k) is
    D_{k+3}, arm lengths (1, 2, 2), (1, 2, 3), (1, 2, 4) are E6, E7, E8.
    A graph that is not a tree is refused as ``DualGraph`` refuses it;
    any other tree raises 'not ADE'.
    """
    vertices = _field(
        lambda: [str(v) for v in _items(vertices)], "vertices", _NAMES, SurfaceError
    )
    edges = _field(
        lambda: [(str(u), str(v)) for u, v in map(_items, _items(edges))],
        "edges", _PAIRS, SurfaceError,
    )
    return _ade_shape(vertices, _tree(vertices, edges)[0])


def _diagram(family: str, n: int) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, of the Dynkin tree family_n on the vertices 1..n,
    in order of u: A_n is the path from 1; D_n hangs 1 on 3 and E_n hangs 1
    on 4, each then the path from 2."""
    if family == "A":
        return [(u, u + 1) for u in range(1, n)]
    return [(1, 3 if family == "D" else 4)] + [(u, u + 1) for u in range(2, n)]


def _ade_shape(vertices: Sequence[str], nbrs: Mapping[str, Sequence[str]]) -> ADEType:
    """Dynkin type of a tree, from its degrees and its branch vertex's arms."""
    branch = [v for v in vertices if len(nbrs[v]) >= 3]
    if not branch:
        return ADEType("A", len(vertices))
    if len(branch) > 1 or len(nbrs[branch[0]]) > 3:
        raise SurfaceError(
            "not ADE: the tree is not a path or a single three-armed star",
            precondition="ADE shape",
            witness={"branch_vertices": sorted(branch)},
        )
    center = branch[0]
    # without the centre, each arm is a path component of the tree
    rest = set(vertices) - {center}
    arms = sorted(len(_component(first, nbrs, rest)) for first in nbrs[center])
    a, b, c = arms
    if (a, b) == (1, 1):
        return ADEType("D", c + 3)
    if (a, b) == (1, 2) and c in (2, 3, 4):
        return ADEType("E", c + 4)
    raise SurfaceError(
        f"not ADE: arm lengths {arms} match no Dynkin tree",
        precondition="ADE shape",
        witness={"arms": arms},
    )


@_record(SurfaceError)
class Decomposition:
    """ADE blocks of the contraction along a set of (-2)-curves."""

    blocks: tuple[ADEType, ...]
    component_vertices: tuple[tuple[str, ...], ...]


def decompose(graph: DualGraph, contracted: Iterable[str]) -> Decomposition:
    """Connected components of the subgraph induced on ``contracted``,
    each recognized as an ADE tree.

    Every contracted vertex must be a (-2)-curve; the empty set gives the
    empty decomposition.
    """
    _expect(graph, DualGraph, "graph", SurfaceError)
    S = _field(lambda: [str(v) for v in _items(contracted)], "contracted", _NAMES, SurfaceError)
    sset = set(S)
    if len(sset) != len(S):
        raise SurfaceError(
            "contracted set contains duplicates",
            precondition="contracted vertices are distinct",
            witness={"contracted": S},
        )
    for v in S:
        if v not in graph.weights:
            raise SurfaceError(
                f"unknown vertex {v!r} in contracted set",
                precondition="contracted vertices belong to the graph",
                witness={"vertex": v},
            )
        if graph.weights[v] != -2:
            raise SurfaceError(
                f"vertex {v} has weight {graph.weights[v]}; only (-2)-curves "
                "can be contracted",
                precondition="contracted vertices have weight -2",
                witness={"vertex": v, "weight": graph.weights[v]},
            )
    # one pass in graph order; a component opens at its first vertex
    component_of: dict[str, list[str]] = {}
    components: list[list[str]] = []
    for v in graph.vertices:
        if v in sset:
            if v not in component_of:
                components.append([])
                for w in _component(v, graph.adjacency, sset):
                    component_of[w] = components[-1]
            component_of[v].append(v)
    pieces = []
    for comp in components:
        nbrs = {v: [w for w in graph.adjacency[v] if w in sset] for v in comp}
        pieces.append((_ade_shape(comp, nbrs), tuple(comp)))
    pieces.sort(key=lambda p: (p[0].family, p[0].rank, p[1]))
    return Decomposition([p[0] for p in pieces], [p[1] for p in pieces])


def all_minus_two(graph: DualGraph) -> list[str]:
    _expect(graph, DualGraph, "graph", SurfaceError)
    return [v for v in graph.vertices if graph.weights[v] == -2]


# ---------------------------------------------------------------------------
# text format


# the characters str.splitlines ends a line at; each becomes '\n' before the
# scan, so the patterns need no other ("\r\n" becomes two, which only adds
# whitespace), and offsets stay those of the text
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_ONE_BREAK = str.maketrans(dict.fromkeys(_LINE_BREAKS, "\n"))
_SPACE = r"[^\S\n]"  # whitespace within a line
# One statement and what ends it: whitespace, line breaks included, then a
# vertex (name, weight), an edge (name, name) or any other text up to the
# next ';' or line break (trailing whitespace included), then whitespace and
# the end: ';', a line break, or '' at the end of the text.  Some statement
# matches wherever the previous one ended, so one scan reads every character.
_STATEMENT_RE = re.compile(
    rf"\s*(?:vertex{_SPACE}+({_NAME}){_SPACE}+(-?\d+)"
    rf"|edge{_SPACE}+({_NAME}){_SPACE}+({_NAME})"
    rf"|([^;\n]*)){_SPACE}*([;\n]|\Z)"
)
_GRAPH_TEXT = "well-formed dual graph text"


def _statement_error(
    message: str, text: str, clean: str, index: int,
    precondition: str = _GRAPH_TEXT, at_line_end: bool = False,
) -> ParseError:
    """ParseError at the start of the index-th statement of ``clean``, the
    scanned form of ``text``, or, with ``at_line_end``, at the length of its
    line; lines are those of ``str.splitlines``, and columns count from 1."""
    m = next(islice(_STATEMENT_RE.finditer(clean), index, None))
    pos = m.end() - len(m.group().lstrip())
    # the statement's first character stands for it, so a break just
    # before it opens its line
    lines = text[: pos + 1].splitlines()
    column = len(lines[-1])
    if at_line_end:  # the line ends where the statement does
        column = m.start(6) - (pos + 1 - column)
    return ParseError(message, len(lines), column, precondition=precondition)


def parse_dual_graph(text: str) -> DualGraph:
    """Read the text format in one scan.

    Statements are read in order, each ended by ';'.  A statement is
    ``vertex <name> <weight>`` or ``edge <name> <name>``; a name is a run of
    characters other than whitespace, ';' and '#', and a weight is an
    optional '-' and decimal digits.  Blank statements are allowed, and a
    statement may not span lines.  A statement left without ';' at the end
    of its line is read, and then refused.  Comments are blanked and line
    breaks made '\\n' in place, so offsets into the scanned text are offsets
    into ``text``; positions are worked out only for an error.
    """
    _expect_text(text, SurfaceError)
    clean = text.translate(_ONE_BREAK)
    if "#" in clean:
        clean = _COMMENT_RE.sub(_blank, clean)
    weights: dict[str, int] = {}  # the declared vertices, in order
    edges: list[tuple[str, str]] = []
    for index, (name, weight, u, v, other, end) in enumerate(
        _STATEMENT_RE.findall(clean)
    ):
        if name:
            try:
                w = int(weight)
            except ValueError:
                raise _statement_error(
                    f"weight of vertex {name!r} has too many digits",
                    text, clean, index, INT_DIGITS,
                ) from None
            if name in weights:
                raise _statement_error(f"duplicate vertex {name!r}", text, clean, index)
            weights[name] = w
        elif u:
            edges.append((u, v))
        elif other:
            raise _statement_error(
                f"cannot parse statement {other.rstrip()!r}; expected "
                "'vertex <id> <weight>' or 'edge <id> <id>'",
                text, clean, index,
            )
        else:
            continue
        if end != ";":
            raise _statement_error(
                "statement is not terminated by ';'", text, clean, index,
                at_line_end=True,
            )
    return DualGraph._checked(edges, weights)


def serialize_dual_graph(graph: DualGraph) -> str:
    _expect(graph, DualGraph, "graph", SurfaceError)
    lines = [f"vertex {v} {graph.weights[v]};" for v in graph.vertices]
    lines += [f"edge {u} {v};" for u, v in graph.edges]
    return "\n".join(lines) + "\n"


def dual_graph_to_json(graph: DualGraph) -> dict:
    _expect(graph, DualGraph, "graph", SurfaceError)
    order = sorted(graph.vertices)
    return {
        "vertices": order,
        "weights": {v: graph.weights[v] for v in order},
        "edges": sorted(tuple(sorted(e)) for e in graph.edges),
    }
