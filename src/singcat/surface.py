"""Resolution graphs of rational surface singularities.

A dual graph is a tree of exceptional curves with self-intersection weights
at most -2 and a negative definite intersection form (diagonal = weights,
off-diagonal = 1 for adjacent curves).  The module computes fundamental
cycles by Laufer's algorithm, continued fraction expansions for cyclic
quotient singularities, ADE recognition of (-2)-subtrees, and the block
decompositions obtained by contracting a subset of (-2)-curves.

Text format for graph files ('#' starts a comment)::

    vertex 1 -2;
    vertex 2 -5;
    edge 1 2;

All arithmetic is exact (integers and fractions); no floating point.
"""

from __future__ import annotations

import random
import re
from math import gcd
from typing import TYPE_CHECKING, Container, Iterable, Mapping, NamedTuple, Sequence

from .quiver import INT_DIGITS, ParseError, SingcatError, _expect, _field, _record

if TYPE_CHECKING:
    from fractions import Fraction


class SurfaceError(SingcatError):
    pass


# shapes of the list arguments, as reported when one is malformed
_NAMES = "a sequence of vertex names"
_PAIRS = "a sequence of vertex pairs"
_WEIGHTS = "a mapping from vertex names to weights"


def _intersection_matrix(
    vertices: Sequence[str],
    edges: Iterable[tuple[str, str]],
    weights: Mapping[str, int],
) -> list[list[int]]:
    index = {v: i for i, v in enumerate(vertices)}
    n = len(index)
    m = [[0] * n for _ in range(n)]
    for v in vertices:
        m[index[v]][index[v]] = weights[v]
    for u, v in edges:
        m[index[u]][index[v]] = 1
        m[index[v]][index[u]] = 1
    return m


def _leading_minors(matrix: list[list[int]]) -> list[int] | None:
    """All leading principal minors by fraction-free elimination.

    Returns None as soon as a zero minor shows up (the matrix is singular
    in some corner, hence not definite).
    """
    m = [row[:] for row in matrix]
    n = len(m)
    minors: list[int] = []
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0:
            return None
        minors.append(pivot)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = pivot
    return minors


def _check_weight(v: str, w) -> None:
    # type(), not isinstance: a bool is not a weight
    if type(w) is not int:
        raise SurfaceError(
            f"vertex {v} has weight {w!r}, not an integer",
            precondition="weights are ints",
            witness={"vertex": v, "weight": repr(w)},
        )


def _simple_edge(u, v, seen: set, precondition: str) -> None:
    """Refuse a self-loop or an edge already in ``seen``; else add it there."""
    if u == v:
        raise SurfaceError(
            f"self-loop at {u}", precondition=precondition, witness={"vertex": u}
        )
    key = frozenset((u, v))
    if key in seen:
        raise SurfaceError(
            f"duplicate edge ({u}, {v})",
            precondition=precondition,
            witness={"edge": [u, v]},
        )
    seen.add(key)


def is_negative_definite(
    vertices: Sequence[str],
    edges: Iterable[tuple[str, str]],
    weights: Mapping[str, int],
) -> bool:
    """Exact test: leading principal minors alternate in sign, starting < 0.

    Raises ``SurfaceError`` unless the vertices are distinct, each has an
    ``int`` weight, and every edge joins two declared vertices, at most once.
    """
    vertices = _field(lambda: tuple(vertices), "vertices", _NAMES, SurfaceError)
    declared = _field(lambda: set(vertices), "vertices", _NAMES, SurfaceError)
    if len(declared) != len(vertices):
        raise SurfaceError(
            "duplicate vertex in dual graph",
            precondition="vertex names are distinct",
            witness={"vertices": list(vertices)},
        )
    weights = _field(
        lambda: {v: weights[v] for v in vertices if v in weights},
        "weights", _WEIGHTS, SurfaceError,
    )
    for v in vertices:
        if v not in weights:
            raise SurfaceError(
                f"vertex {v} has no weight",
                precondition="every vertex has a weight",
                witness={"vertex": v},
            )
        _check_weight(v, weights[v])
    edges = _field(lambda: [(u, v) for u, v in edges], "edges", _PAIRS, SurfaceError)
    seen = set()
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
        _simple_edge(u, v, seen, "the graph is simple")
    minors = _leading_minors(_intersection_matrix(vertices, edges, weights))
    if minors is None:
        return False
    for k, d in enumerate(minors, start=1):
        if (d > 0) != (k % 2 == 0):
            return False
    return True


def _component(start: str, nbrs: Mapping, inside: Container | None = None) -> set[str]:
    """Vertices reachable from ``start`` through ``nbrs``, stepping only onto
    vertices in ``inside`` when it is given."""
    seen = {start}
    stack = [start]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen and (inside is None or w in inside):
                seen.add(w)
                stack.append(w)
    return seen


class DualGraph:
    """Validated resolution graph: a weighted negative definite tree.

    ``adjacency`` maps each vertex, in vertex order, to the tuple of its
    neighbours in edge order; it is built during validation.
    """

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Iterable[tuple[str, str]],
        weights: Mapping[str, int],
    ):
        self.vertices: tuple[str, ...] = _field(
            lambda: tuple(str(v) for v in vertices), "vertices", _NAMES, SurfaceError
        )
        self.edges: tuple[tuple[str, str], ...] = _field(
            lambda: tuple((str(u), str(v)) for u, v in edges),
            "edges", _PAIRS, SurfaceError,
        )
        self.weights: dict[str, int] = _field(
            lambda: {str(v): w for v, w in weights.items()},
            "weights", _WEIGHTS, SurfaceError,
        )
        self._validate()

    def _validate(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise SurfaceError(
                "duplicate vertex in dual graph",
                precondition="vertex names are distinct",
                witness={"vertices": list(self.vertices)},
            )
        if not self.vertices:
            raise SurfaceError(
                "dual graph needs at least one vertex",
                precondition="at least one exceptional curve",
            )
        seen = set()
        nbrs: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            if u not in vset or v not in vset:
                raise SurfaceError(
                    f"edge ({u}, {v}) uses an undeclared vertex",
                    precondition="edge endpoints are declared vertices",
                    witness={"edge": [u, v]},
                )
            _simple_edge(u, v, seen, "the dual graph is a simple tree")
            nbrs[u].append(v)
            nbrs[v].append(u)
        # tree: connected with |V| - 1 edges
        n = len(self.vertices)
        if len(self.edges) != n - 1 or len(_component(self.vertices[0], nbrs)) != n:
            raise SurfaceError(
                "the dual graph is not a tree",
                precondition="the graph is connected and acyclic",
                witness={"vertices": n, "edges": len(self.edges)},
            )
        self.adjacency = {v: tuple(ns) for v, ns in nbrs.items()}
        if set(self.weights) != vset:
            raise SurfaceError(
                "weights do not cover the vertex set exactly",
                precondition="every vertex has exactly one weight",
                witness={"weighted": sorted(self.weights), "vertices": sorted(vset)},
            )
        for v, w in self.weights.items():
            _check_weight(v, w)
            if w > -2:
                raise SurfaceError(
                    f"vertex {v} has weight {w}",
                    precondition="every self-intersection weight is at most -2",
                    witness={"vertex": v, "weight": w},
                )
        if not is_negative_definite(self.vertices, self.edges, self.weights):
            raise SurfaceError(
                "the intersection form is not negative definite",
                precondition="negative definite intersection form",
                witness={
                    "weights": {v: self.weights[v] for v in sorted(self.weights)}
                },
            )

    def __eq__(self, other):
        return (
            isinstance(other, DualGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"DualGraph({len(self.vertices)} vertices)"


# ---------------------------------------------------------------------------
# Laufer's algorithm


def _laufer(
    vertices: Sequence[str],
    adjacency: Mapping[str, Sequence[str]],
    weights: Mapping[str, int],
    rng: random.Random | None,
    guard: bool = True,
) -> dict[str, int]:
    """Laufer's increment loop from Z = (1, ..., 1), driven by a worklist.

    ``excess[v]`` is Z·E_v for the current Z, and ``pending`` lists exactly
    the curves with ``excess > 0``.  A step raises one pending curve v by 1,
    which adds w_v to its own excess and 1 to each neighbour's, so only v
    and its neighbours can change state: a step costs O(deg v).  ``rng``
    picks the curve uniformly from ``pending``, a list built in vertex and
    adjacency order, so a seed gives the same run whatever the hash seed.
    ``adjacency`` lists each curve's neighbours in a loop-free graph.

    Every order of raises reaches the same Z (the minimal anti-nef cycle)
    after Σz − n steps, so the step count does not depend on ``rng``.  On
    unvalidated input the loop may diverge, so by default it gives up after
    64·n + 64 steps.  Callers holding a ``DualGraph`` pass ``guard=False``:
    its form is negative definite, so the loop terminates, and a
    near-degenerate form can need far more steps than that.
    """
    z = {v: 1 for v in vertices}
    excess = {v: weights[v] + len(adjacency[v]) for v in vertices}
    pending = [v for v in vertices if excess[v] > 0]
    bound = 64 * len(vertices) + 64 if guard else None
    steps = 0
    while pending:
        if rng is not None:
            i = rng.randrange(len(pending))
            pending[i], pending[-1] = pending[-1], pending[i]
        v = pending.pop()
        z[v] += 1
        excess[v] += weights[v]
        for u in adjacency[v]:
            excess[u] += 1
            if excess[u] == 1:
                pending.append(u)
        if excess[v] > 0:
            pending.append(v)
        steps += 1
        if bound is not None and steps > bound:
            raise SurfaceError(
                "cycle computation did not stabilize; the intersection form "
                "is not negative definite",
                precondition="negative definite intersection form",
                witness={"iterations": steps},
            )
    return z


def fundamental_cycle(graph: DualGraph, seed: int | None = None) -> dict[str, int]:
    """Coefficients of the fundamental cycle, by Laufer's increment loop.

    The result does not depend on the choice of violated vertex; ``seed``
    randomizes that choice so callers can confirm it.
    """
    _expect(graph, DualGraph, "graph", SurfaceError)
    if seed is not None and type(seed) is not int:
        raise SurfaceError(
            f"expected None or an int as seed, got {type(seed).__name__}",
            precondition="seed is None or an int",
            witness={"seed": repr(seed)},
        )
    rng = None if seed is None else random.Random(seed)
    return _laufer(graph.vertices, graph.adjacency, graph.weights, rng, guard=False)


def special_ranks(graph: DualGraph) -> dict[str, int]:
    """Rank of the special module attached to each curve: the fundamental
    cycle coefficient at that curve."""
    return fundamental_cycle(graph)


def canonical_syzygy_multiplicities(graph: DualGraph) -> dict[str, int]:
    """Multiplicity -2 - weight(v) for each curve (zero exactly at -2-curves)."""
    _expect(graph, DualGraph, "graph", SurfaceError)
    return {v: -2 - graph.weights[v] for v in graph.vertices}


@_record
class ProjectiveInjectives:
    """Curves with weight below -2, plus the ever-present free module."""

    vertices: tuple[str, ...]
    includes_free_module: bool = True


def projective_injective_vertices(graph: DualGraph) -> ProjectiveInjectives:
    _expect(graph, DualGraph, "graph", SurfaceError)
    return ProjectiveInjectives(
        vertices=tuple(sorted(v for v in graph.vertices if graph.weights[v] < -2)),
        includes_free_module=True,
    )


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
    coeffs = jung_hirzebruch(n, a)
    vertices = [str(i + 1) for i in range(len(coeffs))]
    edges = [(vertices[i], vertices[i + 1]) for i in range(len(coeffs) - 1)]
    weights = {vertices[i]: -coeffs[i] for i in range(len(coeffs))}
    return DualGraph(vertices, edges, weights)


# ---------------------------------------------------------------------------
# ADE recognition and contraction decompositions


class ADEType(NamedTuple):
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
    Anything else raises 'not ADE'.
    """
    vertices = _field(
        lambda: [str(v) for v in vertices], "vertices", _NAMES, SurfaceError
    )
    edges = _field(
        lambda: [(str(u), str(v)) for u, v in edges], "edges", _PAIRS, SurfaceError
    )
    nbrs: dict[str, list[str]] = {}
    for v in vertices:
        if v in nbrs:
            raise SurfaceError(
                f"duplicate vertex {v}",
                precondition="vertex names are distinct",
                witness={"vertex": v},
            )
        nbrs[v] = []
    if not vertices:
        raise SurfaceError(
            "shape needs at least one vertex",
            precondition="at least one exceptional curve",
        )
    seen = set()
    for u, v in edges:
        if u not in nbrs or v not in nbrs or u == v:
            raise SurfaceError(
                f"bad edge ({u}, {v})",
                precondition="edges join distinct declared vertices",
                witness={"edge": [u, v]},
            )
        _simple_edge(u, v, seen, "the dual graph is a simple tree")
        nbrs[u].append(v)
        nbrs[v].append(u)
    n = len(vertices)
    if len(edges) != n - 1:
        raise SurfaceError(
            "shape is not a tree",
            precondition="the component is a tree",
            witness={"vertices": n, "edges": len(edges)},
        )
    reached = len(_component(vertices[0], nbrs))
    if reached != n:
        raise SurfaceError(
            "shape is not connected",
            precondition="the component is connected",
            witness={"reached": reached, "vertices": n},
        )
    return _ade_shape(vertices, nbrs)


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


@_record
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
    S = _field(lambda: [str(v) for v in contracted], "contracted", _NAMES, SurfaceError)
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
    return Decomposition(
        blocks=tuple(p[0] for p in pieces),
        component_vertices=tuple(p[1] for p in pieces),
    )


def all_minus_two(graph: DualGraph) -> list[str]:
    _expect(graph, DualGraph, "graph", SurfaceError)
    return [v for v in graph.vertices if graph.weights[v] == -2]


# ---------------------------------------------------------------------------
# text format


_VERTEX_RE = re.compile(r"^vertex\s+(\S+)\s+(-?\d+)$")
_EDGE_RE = re.compile(r"^edge\s+(\S+)\s+(\S+)$")


def parse_dual_graph(text: str) -> DualGraph:
    if not isinstance(text, str):
        raise SurfaceError(
            f"expected text, got {type(text).__name__}",
            precondition="text is a str",
            witness={"text": repr(text)},
        )
    vertices: list[str] = []
    weights: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    line_no = 0
    for raw in text.splitlines():
        line_no += 1
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for stmt in filter(None, (s.strip() for s in line.split(";"))):
            m = _VERTEX_RE.match(stmt)
            if m:
                name = m.group(1)
                try:
                    w = int(m.group(2))
                except ValueError:
                    raise ParseError(
                        f"weight of vertex {name!r} has too many digits",
                        line_no,
                        1,
                        precondition=INT_DIGITS,
                    ) from None
                if name in weights:
                    raise ParseError(f"duplicate vertex {name!r}", line_no, 1)
                vertices.append(name)
                weights[name] = w
                continue
            m = _EDGE_RE.match(stmt)
            if m:
                edges.append((m.group(1), m.group(2)))
                continue
            raise ParseError(
                f"cannot parse statement {stmt!r}; expected "
                "'vertex <id> <weight>' or 'edge <id> <id>'",
                line_no,
                1,
            )
        if line and not line.rstrip().endswith(";"):
            raise ParseError("statement is not terminated by ';'", line_no, len(raw))
    return DualGraph(vertices, edges, weights)


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
