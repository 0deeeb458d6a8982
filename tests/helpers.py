"""Shared fixtures and independent reference oracles for the test suite.

The oracle functions here are deliberately self-contained: they never call
into the package and use their own data representations (signs as +1/-1
integers, matrices as plain lists of Fractions), so agreement between the
library and an oracle is a genuine dual-route check rather than the same
code evaluated twice.
"""

from __future__ import annotations

from fractions import Fraction

from singcat.quiver import Presentation

# ---------------------------------------------------------------------------
# gentle presentation fixtures


def illustrative() -> Presentation:
    """Eight-vertex presentation with two critical cycles, jfe and kgh."""
    return Presentation(
        vertices=[str(i) for i in range(1, 9)],
        arrows=[
            ("a", "1", "2"),
            ("b", "2", "3"),
            ("c", "3", "4"),
            ("d", "5", "1"),
            ("e", "6", "2"),
            ("f", "2", "7"),
            ("g", "4", "7"),
            ("h", "8", "4"),
            ("j", "7", "6"),
            ("k", "7", "8"),
            ("i", "6", "5"),
        ],
        relations=[
            ("a", "b"),
            ("e", "f"),
            ("f", "j"),
            ("j", "e"),
            ("g", "k"),
            ("k", "h"),
            ("h", "g"),
        ],
    )


def lambda_n(n: int) -> Presentation:
    """Fan with a two-arrow source vertex 0 and n-1 paired two-cycles.

    Vertices 0..n; arrows g1: 0 -> 1, g2: 0 -> n, and for each rung
    i = 1..n-1 a forward arrow a_i: i -> i+1 and a backward arrow
    b_i: i+1 -> i, with both composites a_i b_i and b_i a_i zero.
    """
    vertices = [str(i) for i in range(n + 1)]
    arrows = [("g1", "0", "1"), ("g2", "0", str(n))]
    for i in range(1, n):
        arrows.append((f"a{i}", str(i), str(i + 1)))
        arrows.append((f"b{i}", str(i + 1), str(i)))
    relations = []
    for i in range(1, n):
        relations.append((f"b{i}", f"a{i}"))
        relations.append((f"a{i}", f"b{i}"))
    return Presentation(vertices, arrows, relations)


def hexagon() -> Presentation:
    """Oriented 3-cycle with every length-two composite zero."""
    return Presentation(
        vertices=["1", "2", "3"],
        arrows=[("x", "1", "2"), ("y", "2", "3"), ("z", "3", "1")],
        relations=[("x", "y"), ("y", "z"), ("z", "x")],
    )


def final_example() -> Presentation:
    """Nine-vertex presentation with cycles of lengths 1, 6 and 7."""
    arrows = [
        ("a1", "2", "3"),
        ("a2", "3", "5"),
        ("a3", "5", "6"),
        ("a4", "6", "7"),
        ("a5", "7", "1"),
        ("a6", "1", "2"),
        ("b1", "2", "3"),
        ("b2", "3", "6"),
        ("b3", "6", "7"),
        ("b4", "7", "8"),
        ("b5", "8", "9"),
        ("b6", "9", "10"),
        ("b7", "10", "2"),
        ("c", "8", "8"),
    ]
    a_cycle = [(f"a{i}", f"a{i + 1}") for i in range(1, 6)] + [("a6", "a1")]
    b_cycle = [(f"b{j}", f"b{j + 1}") for j in range(1, 7)] + [("b7", "b1")]
    return Presentation(
        vertices=["1", "2", "3", "5", "6", "7", "8", "9", "10"],
        arrows=arrows,
        relations=a_cycle + b_cycle + [("c", "c")],
    )


def loop_square() -> Presentation:
    """One loop with square zero: a single critical cycle of length 1."""
    return Presentation(["v"], [("b", "v", "v")], [("b", "b")])


def two_cycle() -> Presentation:
    """Two vertices joined both ways, both composites zero."""
    return Presentation(
        ["1", "2"],
        [("a", "1", "2"), ("b", "2", "1")],
        [("a", "b"), ("b", "a")],
    )


def two_loops_all_relations() -> Presentation:
    """Two loops with every length-two product zero; violates G3."""
    return Presentation(
        ["v"],
        [("x", "v", "v"), ("y", "v", "v")],
        [("x", "x"), ("y", "x"), ("x", "y"), ("y", "y")],
    )


def two_loops_mixed() -> Presentation:
    """Two loops with only the mixed products zero; infinite dimensional."""
    return Presentation(
        ["v"],
        [("x", "v", "v"), ("y", "v", "v")],
        [("y", "x"), ("x", "y")],
    )


def parallel_triple() -> Presentation:
    """Three parallel arrows; violates G1 at both endpoints."""
    return Presentation(
        ["1", "2"],
        [("x", "1", "2"), ("y", "1", "2"), ("z", "1", "2")],
        [],
    )


def a2_path() -> Presentation:
    """Hereditary two-vertex path; no relations, no critical cycles."""
    return Presentation(["1", "2"], [("a", "1", "2")], [])


def brute_force_critical_cycles(pres: Presentation) -> set[frozenset[str]]:
    """Cycle oracle by exhaustive search over repetition-free sequences.

    A critical cycle is a sequence of distinct arrows whose consecutive
    pairs, read cyclically in application order, are all relations.  The
    search is exponential in the number of arrows, so use it only on tiny
    presentations.
    """
    labels = [a.label for a in pres.arrows]
    rel = pres.relation_set
    found: set[frozenset[str]] = set()

    def extend(seq: list[str]) -> None:
        last = seq[-1]
        for b in labels:
            if b == seq[0] and (last, b) in rel:
                found.add(frozenset(seq))
            if b not in seq and (last, b) in rel:
                extend(seq + [b])

    for start in labels:
        extend([start])
    return found


# ---------------------------------------------------------------------------
# brute-force scans mirroring the indexed quiver lookups
#
# These rescan every arrow on each query, as the package did before it
# indexed presentations and graded quivers at construction.


def scan_arrows_from(pres: Presentation, vertex: str) -> list:
    return [a for a in pres.arrows if a.source == vertex]


def scan_arrows_into(pres: Presentation, vertex: str) -> list:
    return [a for a in pres.arrows if a.target == vertex]


def presentation_index(pres: Presentation) -> dict:
    """Every index a presentation keeps, with ``arrow()`` of each label, so
    that two routes to the same presentation can be compared in full."""
    return {
        "outgoing": pres.outgoing,
        "incoming": pres.incoming,
        "successors": pres.successors,
        "predecessors": pres.predecessors,
        "relation_set": pres.relation_set,
        "arrow": {a.label: pres.arrow(a.label) for a in pres.arrows},
    }


def rebuilt(pres: Presentation) -> Presentation:
    """The same fields through the public, fully validating constructor."""
    return Presentation(pres.vertices, pres.arrows, pres.relations)


def scan_gentle_violations(pres: Presentation) -> tuple[tuple[str, str, str], ...]:
    """(condition, location, detail) of every gentle violation, in report order.

    G1 per vertex (leaving, then entering arrows), then per arrow in
    declaration order: G3 successors, G3 predecessors, G4 successors, G4
    predecessors.  Label lists keep declaration order.
    """
    rel = set(pres.relations)
    found = []
    for v in pres.vertices:
        for verb, scan in (("leave", scan_arrows_from), ("enter", scan_arrows_into)):
            labels = [a.label for a in scan(pres, v)]
            if len(labels) > 2:
                found.append(("G1", v, f"{len(labels)} arrows {verb} {v}: {labels}"))
    for a in pres.arrows:
        after = [b.label for b in scan_arrows_from(pres, a.target)]
        before = [b.label for b in scan_arrows_into(pres, a.source)]
        for condition, kind, labels in (
            ("G3", "relation successors", [b for b in after if (a.label, b) in rel]),
            ("G3", "relation predecessors", [b for b in before if (b, a.label) in rel]),
            ("G4", "relation-free successors", [b for b in after if (a.label, b) not in rel]),
            ("G4", "relation-free predecessors", [b for b in before if (b, a.label) not in rel]),
        ):
            if len(labels) > 1:
                found.append((condition, a.label, f"multiple {kind} of {a.label}: {labels}"))
    return tuple(found)


def _mesh_label_key(label: str) -> tuple[int, int]:
    """α_k sorts by (k, 0), α_k* by (k, 1), any other label last."""
    body = label[2:]
    starred = body.endswith("*")
    digits = body[:-1] if starred else body
    if label.startswith("α_") and digits.isdecimal():
        return (int(digits), int(starred))
    return (10**9, 0)


def _mesh_term_key(term: tuple[str, str]):
    """Display order: 2-cycles α_k α_k* first, by k; then the rest."""
    (ka, sa), (kb, sb) = _mesh_label_key(term[0]), _mesh_label_key(term[1])
    if ka == kb and sa != sb:
        return (0, ka, sa)
    return (1, ka, sa, kb, sb)


def scan_mesh_differential(quiver) -> dict[str, tuple[tuple[str, str], ...]]:
    """Mesh differential of every broken arrow by scanning all solid arrows.

    The summand for a solid a: i -> j is (a, b) with b the unique solid
    arrow from j to the vertex whose translate is i.
    """
    result = {}
    for rho in quiver.broken:
        untranslated = [k for k, v in quiver.translation.items() if v == rho.source]
        terms = []
        for a in quiver.solid:
            if a.source != rho.source:
                continue
            partners = [
                b.label
                for b in quiver.solid
                if b.source == a.target and b.target == untranslated[-1]
            ]
            if len(partners) != 1:
                raise ValueError(f"mesh at {rho.source} through {a.label}: {partners}")
            terms.append((a.label, partners[0]))
        result[rho.label] = tuple(sorted(terms, key=_mesh_term_key))
    return result


# ---------------------------------------------------------------------------
# Hom dimension oracle for the nodal block
#
# Objects are plain tuples: ("P", s, p) is the shifted projective with sign
# s in {+1, -1} and shift p; ("S", s, l, p) is the shifted minimal string of
# length l.  The shift twist is the multiplication by (-1)**n instead of a
# parity branch.


def _twist(n: int, s: int) -> int:
    return s * (-1) ** (n % 2)


def oracle_hom(x: tuple, y: tuple) -> int:
    if x[0] == "P" and y[0] == "P":
        _, mu, p = x
        _, tau, q = y
        n = q - p
        return 1 if n <= 0 and mu == _twist(n, tau) else 0
    if x[0] == "P" and y[0] == "S":
        _, mu, p = x
        _, tau, l, q = y
        n = p - q
        return 1 if 0 <= n < l and mu == _twist(n, tau) else 0
    if x[0] == "S" and y[0] == "P":
        _, tau, l, p = x
        _, mu, q = y
        n = q - p
        return 1 if 2 <= n <= l + 1 and mu != _twist(n, tau) else 0
    _, tau, l, p = x
    _, mu, lp, q = y
    n = q - p
    if n <= 0 and 1 <= lp + n <= l and mu == _twist(n, tau):
        return 1
    if n >= 2 and 1 <= l + 2 - n <= lp and mu != _twist(n, tau):
        return 1
    return 0


def oracle_k0(sign: int, length: int, shift: int) -> tuple[int, int]:
    """Closed form for the class of a shifted string in the (plus, minus)
    basis, obtained by telescoping the alternating sum over its terms."""
    sigma = sign if length % 2 == 0 else -sign
    vec = {1: 0, -1: 0}
    vec[sign] += 1
    vec[sigma] += (-1) ** (length + 1)
    s = (-1) ** (shift % 2)
    return (s * vec[1], s * vec[-1])


def to_oracle(obj) -> tuple:
    """Convert a package-level nodal object to the oracle representation."""
    from singcat import nodal

    sign = 1 if obj.sign == nodal.PLUS else -1
    if isinstance(obj, nodal.NodalProjective):
        return ("P", sign, obj.shift)
    return ("S", sign, obj.length, obj.shift)


# ---------------------------------------------------------------------------
# Hom dimension in the zero-dimensional block
#
# A frozen copy of the closed formulas of ``nodal.hom_dim_zero``, kept as the
# reference its type dispatch is checked against.  Objects are plain tuples:
# ("P", p) is P2[p] and ("S", l, p) is S(l)[p].


def frozen_hom_zero(x: tuple, y: tuple) -> int:
    if x[0] == "P" and y[0] == "P":
        return int(y[1] - x[1] <= 0)
    if x[0] == "P" and y[0] == "S":
        n = x[1] - y[2]
        return int(0 <= n < y[1])
    if x[0] == "S" and y[0] == "P":
        n = y[1] - x[2]
        return int(2 <= n <= x[1] + 1)
    _, l, p = x
    _, lp, q = y
    n = q - p
    return int((n <= 0 and 0 < lp + n <= l) or (2 <= n <= l + 1 < n + lp))


def to_zero_oracle(obj) -> tuple:
    """Convert a package-level zero-block object to the tuple form above."""
    from singcat import nodal

    if isinstance(obj, nodal.ZeroProjective):
        return ("P", obj.shift)
    return ("S", obj.length, obj.shift)


# ---------------------------------------------------------------------------
# negative definiteness oracle


def oracle_negative_definite(matrix: list[list[int]]) -> bool:
    """Gaussian elimination over exact fractions, no pivoting.

    A symmetric matrix is negative definite exactly when elimination
    produces a strictly negative pivot at every step; a zero or positive
    pivot disqualifies it immediately.
    """
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    for k in range(n):
        if m[k][k] >= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return True


# ---------------------------------------------------------------------------
# tree utilities for the exhaustive surface sweeps


def tree_shapes(n: int) -> list[list[tuple[int, int]]]:
    """Edge lists of all unlabeled trees on n vertices (nodes 0..n-1)."""
    if n == 1:
        return [[]]
    import networkx as nx

    return [
        [tuple(sorted(e)) for e in g.edges()] for g in nx.nonisomorphic_trees(n)
    ]


def adjacency_of(vertices, edges) -> dict:
    nbrs = {v: [] for v in vertices}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def induced_components(vertices, edges, inside) -> list[tuple]:
    """Components of the subgraph induced on ``inside``, by breadth-first
    search; each lists its vertices in the order of ``vertices``."""
    nbrs = adjacency_of(vertices, edges)
    root = {}
    for start in vertices:
        if start in inside and start not in root:
            root[start] = start
            queue = [start]
            for u in queue:
                for w in nbrs[u]:
                    if w in inside and w not in root:
                        root[w] = start
                        queue.append(w)
    return [
        tuple(v for v in vertices if root.get(v) == r)
        for r in vertices
        if root.get(r) == r
    ]


def violates_anti_nef(z, vertices, adjacency, weights) -> bool:
    """True when some curve meets the cycle positively."""
    return any(
        weights[v] * z[v] + sum(z[u] for u in adjacency[v]) > 0 for v in vertices
    )


class OracleDiverged(Exception):
    """``oracle_laufer`` took more than its step bound."""

    def __init__(self, iterations: int):
        super().__init__(f"no anti-nef cycle after {iterations} increments")
        self.iterations = iterations


def oracle_laufer(vertices, adjacency, weights, bound=None) -> dict:
    """Laufer's loop by rescanning: from Z = (1, ..., 1), recompute Z·E_v
    for every curve after each increment and raise the first violator in
    vertex order.  Raises ``OracleDiverged`` once more than ``bound``
    increments were needed."""
    z = {v: 1 for v in vertices}
    steps = 0
    while True:
        violators = [
            v
            for v in vertices
            if weights[v] * z[v] + sum(z[u] for u in adjacency[v]) > 0
        ]
        if not violators:
            return z
        z[violators[0]] += 1
        steps += 1
        if bound is not None and steps > bound:
            raise OracleDiverged(steps)


# ---------------------------------------------------------------------------
# dual graph fixtures


def path_graph(weights):
    """Chain of curves 1 - 2 - ... - n carrying the given weights."""
    from singcat.surface import DualGraph

    names = [str(i + 1) for i in range(len(weights))]
    edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return DualGraph(names, edges, dict(zip(names, weights)))


def star_parts(center_weight, leaf_count, leaf_weight=-2):
    """Raw (vertices, edges, weights) of a star, skipping all validation."""
    leaves = [f"l{i + 1}" for i in range(leaf_count)]
    vertices = ["c"] + leaves
    edges = [("c", leaf) for leaf in leaves]
    weights = {"c": center_weight, **{leaf: leaf_weight for leaf in leaves}}
    return vertices, edges, weights


def star_graph(center_weight, leaf_weights):
    """Validated star-shaped dual graph with center c and leaves l1, l2, ..."""
    from singcat.surface import DualGraph

    leaves = [f"l{i + 1}" for i in range(len(leaf_weights))]
    weights = {"c": center_weight}
    weights.update(dict(zip(leaves, leaf_weights)))
    return DualGraph(["c"] + leaves, [("c", leaf) for leaf in leaves], weights)


def m25_graph():
    return path_graph([-2, -5])


def g2719_graph():
    return path_graph([-2, -2, -5, -2, -2, -2])


def g5111_graph():
    return path_graph([-5, -3, -4])


def t13_graph():
    from singcat.surface import DualGraph

    vertices = [str(i) for i in range(1, 7)]
    edges = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("3", "6")]
    weights = {"1": -2, "2": -2, "3": -4, "4": -2, "5": -2, "6": -2}
    return DualGraph(vertices, edges, weights)
