"""Resolution graph computations checked against independent oracles.

Negative definiteness is cross-checked against a fraction-arithmetic
Gaussian elimination, and fundamental cycles against the anti-nef
characterization: the result must be anti-nef, and on small graphs an
exhaustive box search confirms that no smaller positive cycle is.
"""

from __future__ import annotations

import gc
import itertools
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from singcat.quiver import ParseError
from singcat.surface import (
    ADEType,
    Decomposition,
    DualGraph,
    SurfaceError,
    _LINE_BREAKS,
    _laufer,
    ade_recognize,
    all_minus_two,
    canonical_syzygy_multiplicities,
    cyclic_dual_graph,
    decompose,
    dual_graph_to_json,
    evaluate_expansion,
    fundamental_cycle,
    is_negative_definite,
    jung_hirzebruch,
    parse_dual_graph,
    projective_injective_vertices,
    serialize_dual_graph,
    special_ranks,
)

SWEEP_WEIGHTS = (-2, -3, -4)

# Nearly degenerate 10-vertex tree (leading minors -2, 3, -4, ..., -1289, 4):
# its fundamental cycle needs 719 increments, more than a linear step cap
# such as 64·n + 64 = 704 allows.
LAUFER_WITNESS = """\
vertex 0 -2; vertex 1 -2; vertex 2 -2; vertex 3 -3; vertex 4 -4;
vertex 5 -3; vertex 6 -3; vertex 7 -4; vertex 8 -3; vertex 9 -2;
edge 1 0; edge 2 1; edge 3 2; edge 4 1; edge 5 0;
edge 6 3; edge 7 5; edge 8 4; edge 9 1;
"""


@st.composite
def weighted_forests(draw):
    """Random labeled forest with liberal weights, for definiteness testing:
    each vertex after the first hangs from an earlier one or starts a tree,
    and the vertex order (so the root of each tree) is shuffled."""
    n = draw(st.integers(1, 7))
    labels = [str(i) for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = draw(st.none() | st.integers(0, i - 1))
        if parent is not None:
            edges.append((str(parent), str(i)))
    values = draw(st.lists(st.integers(-9, 2), min_size=n, max_size=n))
    vertices = draw(st.permutations(labels))
    return vertices, edges, dict(zip(labels, values))


# edge lists with an edge that is not a pair, or that are no sequence at all
MALFORMED_EDGES = [[("a",)], [("a", "b", "c")], [("a", "b"), 7], [None], 7, None]


class TestNegativeDefiniteness:
    @settings(max_examples=200, deadline=None)
    @given(weighted_forests())
    def test_agrees_with_fraction_oracle(self, parts):
        vertices, edges, weights = parts
        matrix = helpers.intersection_matrix(vertices, edges, weights)
        assert is_negative_definite(vertices, edges, weights) == (
            helpers.oracle_negative_definite(matrix)
        )

    def test_every_small_tree_agrees_with_fraction_oracle(self):
        # every tree on at most 5 vertices, weights -1..-3: near the boundary
        # of definiteness, where a pivot folded in wrongly flips the verdict
        definite = 0
        for n in range(1, 6):
            for shape in helpers.tree_shapes(n):
                vertices = [str(i) for i in range(n)]
                edges = [(str(u), str(v)) for u, v in shape]
                for values in itertools.product((-1, -2, -3), repeat=n):
                    weights = dict(zip(vertices, values))
                    matrix = helpers.intersection_matrix(vertices, edges, weights)
                    expected = helpers.oracle_negative_definite(matrix)
                    assert is_negative_definite(vertices, edges, weights) == expected
                    definite += expected
        assert definite > 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_minus_two_chains_are_definite(self, n):
        vertices = [str(i) for i in range(n)]
        edges = [(str(i), str(i + 1)) for i in range(n - 1)]
        assert is_negative_definite(vertices, edges, {v: -2 for v in vertices})

    def test_affine_star_is_not_definite(self):
        vertices, edges, weights = helpers.star_parts(-2, 4)
        assert not is_negative_definite(vertices, edges, weights)

    def test_zero_weight_vertex_is_not_definite(self):
        assert not is_negative_definite(["v"], [], {"v": 0})
        assert is_negative_definite(["v"], [], {"v": -2})

    def test_singular_corner_is_caught(self):
        # det = 0 makes the root's pivot vanish
        vertices = ["a", "b"]
        edges = [("a", "b")]
        assert not is_negative_definite(vertices, edges, {"a": -1, "b": -1})

    def test_forest_without_edges(self):
        assert is_negative_definite(["a", "b"], [], {"a": -2, "b": -3})

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            ("abc", [("a", "b"), ("b", "c"), ("c", "a")]),
            ("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
            # a triangle beside a tree: 5 vertices, 2 components, 4 edges
            ("abcde", [("d", "e"), ("a", "b"), ("b", "c"), ("a", "c")]),
        ],
    )
    def test_cycle_is_refused(self, vertices, edges):
        # a definite weighting: the refusal is about the shape alone
        weights = dict.fromkeys(vertices, -5)
        with pytest.raises(SurfaceError, match="the graph has a cycle") as info:
            is_negative_definite(list(vertices), edges, weights)
        assert info.value.precondition == "the graph is a forest"
        assert info.value.witness == {"vertices": len(vertices), "edges": len(edges)}

    def test_duplicate_vertex(self):
        with pytest.raises(SurfaceError, match="duplicate vertex") as info:
            is_negative_definite(["a", "a"], [], {"a": -2})
        assert info.value.precondition == "vertex names are distinct"

    def test_unweighted_vertex(self):
        with pytest.raises(SurfaceError, match="vertex a has no weight") as info:
            is_negative_definite(["a"], [], {})
        assert info.value.precondition == "every vertex has a weight"
        assert info.value.witness == {"vertex": "a"}

    def test_undeclared_edge_endpoint(self):
        with pytest.raises(SurfaceError, match="undeclared vertex") as info:
            is_negative_definite(["a"], [("a", "z")], {"a": -2})
        assert info.value.precondition == "edge endpoints are declared vertices"
        assert info.value.witness == {"edge": ["a", "z"]}

    def test_weights_are_ints(self):
        with pytest.raises(SurfaceError, match="not an integer") as info:
            is_negative_definite(["a"], [], {"a": -2.0})
        assert info.value.precondition == "weights are ints"

    @pytest.mark.parametrize("edges", MALFORMED_EDGES)
    def test_edges_are_pairs(self, edges):
        with pytest.raises(SurfaceError, match="edges is not") as info:
            is_negative_definite(["a", "b"], edges, {"a": -2, "b": -2})
        assert info.value.precondition == "edges is a sequence of vertex pairs"
        assert info.value.witness == {"field": "edges"}

    @pytest.mark.parametrize("vertices", [None, 3, [[1]], ["a", {}], iter([["a"]])])
    def test_vertices_are_names(self, vertices):
        with pytest.raises(SurfaceError, match="vertices is not") as info:
            is_negative_definite(vertices, [], {"a": -2})
        assert info.value.precondition == "vertices is a sequence of vertex names"
        assert info.value.witness == {"field": "vertices"}

    @pytest.mark.parametrize("weights", [None, 3, "a", ["a"], (None, "a")])
    def test_weights_are_a_mapping(self, weights):
        with pytest.raises(SurfaceError, match="weights is not") as info:
            is_negative_definite(["a"], [], weights)
        assert info.value.precondition == (
            "weights is a mapping from vertex names to weights"
        )
        assert info.value.witness == {"field": "weights"}

    def test_vertices_may_be_any_iterable(self):
        assert is_negative_definite(iter(["a", "b"]), [("a", "b")], {"a": -2, "b": -2})

    def test_unhashable_edge_endpoint_is_undeclared(self):
        with pytest.raises(SurfaceError, match="undeclared vertex") as info:
            is_negative_definite(["a"], [("a", [1])], {"a": -2})
        assert info.value.witness == {"edge": ["a", [1]]}


class TestDualGraphValidation:
    def test_valid_graph_builds_adjacency(self):
        g = helpers.t13_graph()
        assert g.adjacency["3"] == ("2", "4", "6")
        assert g.adjacency["1"] == ("2",)

    def test_duplicate_vertex(self):
        with pytest.raises(SurfaceError, match="duplicate vertex"):
            DualGraph(["1", "1"], [], {"1": -2})

    def test_empty_graph(self):
        with pytest.raises(SurfaceError, match="at least one vertex"):
            DualGraph([], [], {})

    def test_undeclared_edge_endpoint(self):
        with pytest.raises(SurfaceError, match="undeclared vertex"):
            DualGraph(["1"], [("1", "2")], {"1": -2})

    def test_self_loop(self):
        with pytest.raises(SurfaceError, match="self-loop"):
            DualGraph(["1"], [("1", "1")], {"1": -2})

    def test_duplicate_edge(self):
        with pytest.raises(SurfaceError, match="duplicate edge"):
            DualGraph(
                ["1", "2"], [("1", "2"), ("2", "1")], {"1": -2, "2": -2}
            )

    @pytest.mark.parametrize(
        "vertices, edges, weights, witness",
        [
            (["a"], [("a", "a")], {"a": -4}, {"vertex": "a"}),
            (["a", "b"], [("a", "b"), ("b", "a")], {"a": -2, "b": -2},
             {"edge": ["b", "a"]}),
            (["a", "b"], [("a", "b"), ("a", "b")], {"a": -9, "b": -9},
             {"edge": ["a", "b"]}),
        ],
    )
    def test_definiteness_needs_a_simple_graph(self, vertices, edges, weights, witness):
        with pytest.raises(SurfaceError) as info:
            is_negative_definite(vertices, edges, weights)
        assert info.value.precondition == "the graph is simple"
        assert info.value.witness == witness

    def test_disconnected_is_not_a_tree(self):
        with pytest.raises(SurfaceError, match="not a tree"):
            DualGraph(["1", "2"], [], {"1": -2, "2": -2})

    def test_weights_must_cover_vertices(self):
        with pytest.raises(SurfaceError, match="cover the vertex set"):
            DualGraph(["1", "2"], [("1", "2")], {"1": -2})
        with pytest.raises(SurfaceError, match="cover the vertex set"):
            DualGraph(["1"], [], {"1": -2, "2": -3})

    @pytest.mark.parametrize("weight", [-2.7, "x", None, "-2", True])
    def test_weights_are_ints(self, weight):
        with pytest.raises(SurfaceError, match="not an integer") as info:
            DualGraph(["a"], [], {"a": weight})
        assert info.value.precondition == "weights are ints"
        assert info.value.witness == {"vertex": "a", "weight": repr(weight)}

    @pytest.mark.parametrize("edges", MALFORMED_EDGES)
    def test_edges_are_pairs(self, edges):
        with pytest.raises(SurfaceError, match="edges is not") as info:
            DualGraph(["a", "b"], edges, {"a": -2, "b": -2})
        assert info.value.precondition == "edges is a sequence of vertex pairs"

    @pytest.mark.parametrize(
        "vertices, weights, field",
        [
            (None, {"a": -2}, "vertices"),
            (3, {"a": -2}, "vertices"),
            (["a"], None, "weights"),
            (["a"], [("a", -2)], "weights"),
        ],
    )
    def test_malformed_vertices_and_weights(self, vertices, weights, field):
        with pytest.raises(SurfaceError) as info:
            DualGraph(vertices, [], weights)
        assert info.value.witness == {"field": field}

    def test_weights_are_at_most_minus_two(self):
        with pytest.raises(SurfaceError, match="has weight -1"):
            DualGraph(["1", "2"], [("1", "2")], {"1": -1, "2": -2})

    def test_indefinite_form_is_rejected(self):
        vertices, edges, weights = helpers.star_parts(-2, 4)
        with pytest.raises(SurfaceError, match="not negative definite"):
            DualGraph(vertices, edges, weights)


def _refusal(function, *args):
    """``function``'s diagnostic as (message, precondition, witness), None
    when it builds a graph, or its answer."""
    try:
        result = function(*args)
    except SurfaceError as exc:
        return exc.message, exc.precondition, exc.witness
    return None if isinstance(result, DualGraph) else result


def _faulty_graph(rng):
    """At most 5 vertices, often a tree or forest, then damaged: a repeated
    name, an edge to the stray name 'x', loops, repeats in either
    orientation, weights missing, extra, not ints or above -2."""
    names = [str(i) for i in range(rng.randrange(6))]
    vertices = list(names)
    if names and rng.random() < 0.1:
        vertices.insert(rng.randrange(len(names) + 1), rng.choice(names))
    edges = []
    for i in range(1, len(names)):
        if rng.random() < 0.9:
            edges.append((names[rng.randrange(i)], names[i]))
    ends = names + ["x"] if rng.random() < 0.15 else names
    for _ in range(rng.choice((0, 0, 0, 1, 2)) if ends else 0):
        edges.insert(rng.randrange(len(edges) + 1), (rng.choice(ends), rng.choice(ends)))
    if edges and rng.random() < 0.15:
        u, v = rng.choice(edges)
        edges.insert(rng.randrange(len(edges) + 1), rng.choice([(u, v), (v, u)]))
    rng.shuffle(edges)
    weights = {}
    for v in rng.sample(names, len(names)):
        r = rng.random()
        if r < 0.03:
            continue
        weights[v] = rng.choice((-1, 0, -2.0, True, "-2")) if r < 0.08 else rng.choice((-2, -2, -3))
    if rng.random() < 0.03:
        weights["x"] = -2
    return vertices, edges, weights


class TestRefusalOrder:
    """Every entry point refuses the fault that ``oracle_graph_refusal``,
    which states the README's order, names first."""

    TREE_FAULTS = {
        "vertex names are distinct", "at least one exceptional curve",
        "edge endpoints are declared vertices", "the dual graph is a simple tree",
        "the graph is connected and acyclic", "every vertex has exactly one weight",
        "weights are ints", "every self-intersection weight is at most -2",
        "negative definite intersection form",
    }
    # the first five, which ``ade_recognize`` refuses as ``DualGraph`` does
    SHAPE_FAULTS = {
        "vertex names are distinct", "at least one exceptional curve",
        "edge endpoints are declared vertices", "the dual graph is a simple tree",
        "the graph is connected and acyclic",
    }
    FOREST_FAULTS = {
        "vertex names are distinct", "every vertex has a weight", "weights are ints",
        "edge endpoints are declared vertices", "the graph is simple",
        "the graph is a forest",
    }

    def test_small_faulty_graphs_agree_with_oracle(self):
        rng = random.Random(23)
        seen, forest_seen, parsed = set(), set(), 0
        for _ in range(6000):
            graph = vertices, edges, weights = _faulty_graph(rng)
            expected = helpers.oracle_graph_refusal(*graph)
            assert _refusal(DualGraph, *graph) == expected, graph
            seen.add(expected and expected[1])
            # the shape alone: the same tree faults, then a Dynkin type or not
            shape = _refusal(ade_recognize, vertices, edges)
            if expected and expected[1] in self.SHAPE_FAULTS:
                assert shape == expected, graph
            else:
                assert type(shape) is ADEType or shape[1] == "ADE shape", graph
            # text spells distinct names with one int weight each, in their order
            if len(set(vertices)) == len(vertices) == len(weights) and all(
                type(weights.get(v)) is int for v in vertices
            ):
                in_order = {v: weights[v] for v in vertices}
                text = "".join(f"vertex {v} {w};\n" for v, w in in_order.items())
                text += "".join(f"edge {u} {v};\n" for u, v in edges)
                expected = helpers.oracle_graph_refusal(vertices, edges, in_order)
                assert _refusal(parse_dual_graph, text) == expected, text
                parsed += 1
            expected = helpers.oracle_graph_refusal(*graph, forest=True)
            if expected is None:  # a forest: the answer is its definiteness
                matrix = helpers.intersection_matrix(*graph)
                expected = helpers.oracle_negative_definite(matrix)
            assert _refusal(is_negative_definite, *graph) == expected, graph
            forest_seen.add(expected if type(expected) is bool else expected[1])
        assert seen == self.TREE_FAULTS | {None}
        assert forest_seen == self.FOREST_FAULTS | {True, False}
        assert parsed > 1000

    @pytest.mark.parametrize("last", [("4998", "4999"), ("4999", "4998")])
    def test_long_path_with_its_last_edge_repeated(self, last):
        # a single refusal scan, in edge order, over 5,000 edges
        vertices, edges = _path_parts(5000)
        edges.append(last)
        weights = dict.fromkeys(vertices, -2)
        expected = helpers.oracle_graph_refusal(vertices, edges, weights)
        assert expected == (
            f"duplicate edge ({last[0]}, {last[1]})",
            "the dual graph is a simple tree",
            {"edge": list(last)},
        )
        assert _refusal(DualGraph, vertices, edges, weights) == expected
        text = "".join(f"vertex {v} -2;" for v in vertices)
        text += "".join(f"edge {u} {v};" for u, v in edges)
        assert _refusal(parse_dual_graph, text) == expected
        forest = helpers.oracle_graph_refusal(vertices, edges, weights, forest=True)
        assert forest == (expected[0], "the graph is simple", expected[2])
        assert _refusal(is_negative_definite, vertices, edges, weights) == forest


class TestLauferAlgorithm:
    def test_affine_star_stabilizes_at_the_radical_vector(self):
        # the form is semidefinite, not definite, yet the loop stops, in
        # every order, on the vector spanning the kernel of the affine D4 form
        vertices, edges, weights = helpers.star_parts(-2, 4)
        adjacency = helpers.adjacency_of(vertices, edges)
        for rng in [None] + [random.Random(seed) for seed in range(20)]:
            z = _laufer(vertices, adjacency, weights, rng)
            assert z == {"c": 2, "l1": 1, "l2": 1, "l3": 1, "l4": 1}

    def test_near_degenerate_witness_is_not_capped(self):
        g = parse_dual_graph(LAUFER_WITNESS)
        z = fundamental_cycle(g)
        assert [z[str(i)] for i in range(10)] == [
            121, 198, 122, 46, 54, 44, 16, 11, 18, 99
        ]
        assert sum(z.values()) - len(z) > 64 * len(z) + 64
        assert not helpers.violates_anti_nef(z, g.vertices, g.adjacency, g.weights)
        for v in g.vertices:
            lowered = dict(z)
            lowered[v] -= 1
            assert helpers.violates_anti_nef(
                lowered, g.vertices, g.adjacency, g.weights
            )
        assert special_ranks(g) == z
        assert fundamental_cycle(g, seed=7) == z

    @pytest.mark.parametrize("n", range(1, 8))
    def test_minus_two_chain_gives_all_ones(self, n):
        g = helpers.path_graph([-2] * n)
        assert fundamental_cycle(g) == {v: 1 for v in g.vertices}

    def test_d4_star_pin(self):
        g = helpers.star_graph(-2, [-2, -2, -2])
        assert fundamental_cycle(g) == {"c": 2, "l1": 1, "l2": 1, "l3": 1}

    def test_corpus_graph_pins(self):
        for graph in (
            helpers.m25_graph(),
            helpers.t13_graph(),
            helpers.g2719_graph(),
            helpers.g5111_graph(),
        ):
            assert fundamental_cycle(graph) == {v: 1 for v in graph.vertices}

    def test_seed_choice_never_changes_the_cycle(self):
        graphs = [
            helpers.m25_graph(),
            helpers.t13_graph(),
            helpers.g2719_graph(),
            helpers.g5111_graph(),
            helpers.star_graph(-2, [-2, -2, -2]),
        ]
        for graph in graphs:
            base = fundamental_cycle(graph)
            for seed in range(100):
                assert fundamental_cycle(graph, seed=seed) == base

    @pytest.mark.parametrize("seed", [[1], 1.5, "7", b"7", True])
    def test_seed_must_be_none_or_an_int(self, seed):
        with pytest.raises(SurfaceError) as info:
            fundamental_cycle(helpers.t13_graph(), seed=seed)
        assert info.value.precondition == "seed is None or an int"

    def test_small_graphs_box_search_confirms_global_minimality(self):
        """No positive anti-nef cycle below the computed one exists at all.

        Any competing anti-nef cycle w <= z would live in the box
        1 <= w <= z, so scanning that box proves z is the minimum.
        """
        for n in range(1, 7):
            for shape in helpers.tree_shapes(n):
                vertices = [str(i) for i in range(n)]
                edges = [(str(u), str(v)) for u, v in shape]
                adjacency = helpers.adjacency_of(vertices, edges)
                for values in itertools.product(SWEEP_WEIGHTS, repeat=n):
                    weights = dict(zip(vertices, values))
                    if not is_negative_definite(vertices, edges, weights):
                        continue
                    z = _laufer(vertices, adjacency, weights, None)
                    for box in itertools.product(
                        *(range(1, z[v] + 1) for v in vertices)
                    ):
                        w = dict(zip(vertices, box))
                        if w == z:
                            continue
                        assert helpers.violates_anti_nef(
                            w, vertices, adjacency, weights
                        ), (weights, edges, w, z)


def _random_tree(tree_seed):
    """(vertices, edges, weights, oracle verdict on definiteness) of a tree
    on 1..40 curves with weights -5..-2."""
    rng = random.Random(tree_seed)
    n = rng.randint(1, 40)
    vertices = [f"v{i}" for i in range(n)]
    edges = [(vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    weights = {v: rng.randint(-5, -2) for v in vertices}
    matrix = helpers.intersection_matrix(vertices, edges, weights)
    return vertices, edges, weights, helpers.oracle_negative_definite(matrix)


class TestLauferMatchesOracle:
    """The worklist loop against the rescanning ``helpers.oracle_laufer``."""

    def test_every_small_definite_sweep_candidate(self):
        definite = 0
        for n in range(1, 7):
            for shape in helpers.tree_shapes(n):
                vertices = [str(i) for i in range(n)]
                edges = [(str(u), str(v)) for u, v in shape]
                adjacency = helpers.adjacency_of(vertices, edges)
                for values in itertools.product(SWEEP_WEIGHTS, repeat=n):
                    weights = dict(zip(vertices, values))
                    if not is_negative_definite(vertices, edges, weights):
                        continue
                    definite += 1
                    expected = helpers.oracle_laufer(vertices, adjacency, weights)
                    for rng in (None, random.Random(definite)):
                        z = _laufer(vertices, adjacency, weights, rng)
                        assert list(z.items()) == list(expected.items())
        assert definite > 0

    def test_corpus_witness(self):
        g = parse_dual_graph(LAUFER_WITNESS)
        expected = helpers.oracle_laufer(g.vertices, g.adjacency, g.weights)
        assert list(fundamental_cycle(g).items()) == list(expected.items())
        for seed in range(20):
            assert fundamental_cycle(g, seed=seed) == expected

    @pytest.mark.parametrize("tree_seed", range(40))
    def test_random_trees(self, tree_seed):
        vertices, edges, weights, definite = _random_tree(tree_seed)
        if not definite:
            # the loop need not stop here, and validation keeps it away
            with pytest.raises(SurfaceError, match="not negative definite"):
                DualGraph(vertices, edges, weights)
            return
        adjacency = helpers.adjacency_of(vertices, edges)
        expected = list(helpers.oracle_laufer(vertices, adjacency, weights).items())
        for rng in [None] + [random.Random(seed) for seed in range(20)]:
            assert list(_laufer(vertices, adjacency, weights, rng).items()) == expected

    def test_random_trees_are_compared(self):
        definite = sum(_random_tree(tree_seed)[3] for tree_seed in range(40))
        assert 0 < definite < 40

    @pytest.mark.parametrize("n", [10, 12, 14, 16])
    @pytest.mark.parametrize("tree_seed", range(2))
    def test_near_degenerate_trees(self, tree_seed, n):
        # long walks: at least 20n raises, where a random tree needs few
        vertices, edges, weights = helpers.near_degenerate_tree(tree_seed, n)
        adjacency = helpers.adjacency_of(vertices, edges)
        expected = list(helpers.oracle_laufer(vertices, adjacency, weights).items())
        assert sum(z for _, z in expected) - n >= 20 * n
        g = DualGraph(vertices, edges, weights)
        assert list(fundamental_cycle(g).items()) == expected
        assert list(special_ranks(g).items()) == expected
        for seed in range(10):
            assert list(fundamental_cycle(g, seed=seed).items()) == expected

    def test_the_cycle_follows_vertex_order(self):
        # adjacency and weights listed backwards, each neighbour list too
        vertices, edges, weights = helpers.near_degenerate_tree(0, 12)
        forward = helpers.adjacency_of(vertices, edges)
        adjacency = {v: forward[v][::-1] for v in reversed(vertices)}
        weights = dict(reversed(weights.items()))
        expected = list(helpers.oracle_laufer(vertices, forward, weights).items())
        assert [v for v, _ in expected] == vertices
        for rng in [None] + [random.Random(seed) for seed in range(5)]:
            assert list(_laufer(vertices, adjacency, weights, rng).items()) == expected


class TestLauferScale:
    """Closed forms at n = 2,000, called on raw adjacencies, so that only
    Laufer's loop runs."""

    N = 2000

    def test_d_n(self):
        # chain 0 - 1 - ... - (n-2) with a second leaf n-1 on vertex n-3
        n = self.N
        vertices = [str(i) for i in range(n)]
        edges = [(str(i), str(i + 1)) for i in range(n - 2)]
        edges.append((str(n - 3), str(n - 1)))
        adjacency = helpers.adjacency_of(vertices, edges)
        z = _laufer(vertices, adjacency, dict.fromkeys(vertices, -2), None)
        assert [z[v] for v in vertices] == [1] + [2] * (n - 3) + [1, 1]

    def test_a_n(self):
        n = self.N
        vertices = [str(i) for i in range(n)]
        edges = [(str(i), str(i + 1)) for i in range(n - 1)]
        adjacency = helpers.adjacency_of(vertices, edges)
        z = _laufer(vertices, adjacency, dict.fromkeys(vertices, -2), None)
        assert z == dict.fromkeys(vertices, 1)


class TestDefinitenessScale:
    """``DualGraph`` validation far past the sweep sizes.  Leaf-first
    elimination is linear in the tree, so each graph builds in milliseconds."""

    N = 2000

    def test_d_n(self):
        # chain 0 - 1 - ... - (n-3) with leaf n-2 on vertex 1 and leaf n-1 on
        # vertex n-4: the affine diagram D~_{n-1}, semidefinite with -2s
        n = self.N
        vertices = [str(i) for i in range(n)]
        edges = [(str(i), str(i + 1)) for i in range(n - 3)]
        edges += [("1", str(n - 2)), (str(n - 4), str(n - 1))]
        weights = dict.fromkeys(vertices, -2)
        with pytest.raises(SurfaceError, match="not negative definite"):
            DualGraph(vertices, edges, weights)
        # without the second fork it is D_{n-1}; or one heavier curve
        d = DualGraph(vertices[:-1], edges[:-1], dict.fromkeys(vertices[:-1], -2))
        assert len(d.vertices) == n - 1
        weights[str(n // 2)] = -3
        assert DualGraph(vertices, edges, weights).weights[str(n // 2)] == -3

    def test_a_n(self):
        vertices, edges = _path_parts(self.N)
        g = DualGraph(vertices, edges, dict.fromkeys(vertices, -2))
        assert fundamental_cycle(g) == dict.fromkeys(vertices, 1)

    def test_random_tree(self):
        rng = random.Random(self.N)
        vertices = [str(i) for i in range(self.N)]
        edges = [(str(rng.randrange(i)), str(i)) for i in range(1, self.N)]
        degree = {v: 0 for v in vertices}
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        # a curve of degree >= 4 with its neighbours spans the affine D~4, so
        # all -2s are not definite; weights -max(2, deg) are diagonally
        # dominant, strictly at the leaves, so they are
        assert max(degree.values()) >= 4
        with pytest.raises(SurfaceError, match="not negative definite"):
            DualGraph(vertices, edges, dict.fromkeys(vertices, -2))
        weights = {v: -max(2, d) for v, d in degree.items()}
        assert DualGraph(vertices, edges, weights).weights == weights

    def test_path_of_5000(self):
        vertices, edges = _path_parts(5000)
        g = DualGraph(vertices, edges, dict.fromkeys(vertices, -2))
        assert g.adjacency["0"] == ("1",) and g.adjacency["4999"] == ("4998",)


class TestSpecialModules:
    def test_ranks_follow_the_fundamental_cycle(self):
        for graph in (helpers.m25_graph(), helpers.g2719_graph()):
            assert special_ranks(graph) == fundamental_cycle(graph)

    def test_syzygy_multiplicities(self):
        assert canonical_syzygy_multiplicities(helpers.m25_graph()) == {
            "1": 0,
            "2": 3,
        }
        assert canonical_syzygy_multiplicities(helpers.g5111_graph()) == {
            "1": 3,
            "2": 1,
            "3": 2,
        }
        t13 = canonical_syzygy_multiplicities(helpers.t13_graph())
        assert t13 == {"1": 0, "2": 0, "3": 2, "4": 0, "5": 0, "6": 0}

    def test_projective_injective_curves(self):
        pi = projective_injective_vertices(helpers.g2719_graph())
        assert pi.vertices == ("3",)
        assert pi.includes_free_module
        assert projective_injective_vertices(helpers.t13_graph()).vertices == (
            "3",
        )
        assert projective_injective_vertices(
            helpers.path_graph([-2, -2, -2])
        ).vertices == ()
        assert projective_injective_vertices(
            helpers.g5111_graph()
        ).vertices == ("1", "2", "3")


class TestJungHirzebruch:
    def test_pinned_expansions(self):
        assert jung_hirzebruch(27, 19) == [2, 2, 4, 3]
        assert jung_hirzebruch(51, 11) == [5, 3, 4]
        assert jung_hirzebruch(3, 2) == [2, 2]
        assert jung_hirzebruch(7, 5) == [2, 2, 3]
        for n in (2, 5, 9):
            assert jung_hirzebruch(n, 1) == [n]

    def test_preconditions(self):
        with pytest.raises(SurfaceError, match="not coprime"):
            jung_hirzebruch(4, 2)
        for n, a in ((5, 5), (5, 7), (5, 0), (5, -1)):
            with pytest.raises(SurfaceError, match="0 < a < n"):
                jung_hirzebruch(n, a)
        with pytest.raises(SurfaceError, match="integers"):
            jung_hirzebruch(5.0, 2)
        with pytest.raises(SurfaceError, match="integers"):
            jung_hirzebruch(5, True)

    def test_thousand_random_pairs_re_evaluate_exactly(self):
        rng = random.Random(20260817)
        for _ in range(1000):
            n = rng.randrange(2, 10001)
            a = rng.randrange(1, n)
            while Fraction(n, a).denominator != a:  # i.e. gcd(n, a) > 1
                a = rng.randrange(1, n)
            expansion = jung_hirzebruch(n, a)
            assert all(isinstance(c, int) and c >= 2 for c in expansion)
            assert evaluate_expansion(expansion) == Fraction(n, a)

    def test_evaluate_expansion_pins(self):
        assert evaluate_expansion([2, 2, 4, 3]) == Fraction(27, 19)
        assert evaluate_expansion([5, 3, 4]) == Fraction(51, 11)
        assert evaluate_expansion([2, 2, 5, 2, 2, 2]) == Fraction(43, 30)
        assert evaluate_expansion([7]) == 7

    def test_evaluate_expansion_reads_an_iterator_once(self):
        assert evaluate_expansion(iter([2, 2, 4, 3])) == Fraction(27, 19)
        assert evaluate_expansion(c for c in (5, 3, 4)) == Fraction(51, 11)
        with pytest.raises(SurfaceError, match="empty expansion"):
            evaluate_expansion(iter([]))

    def test_evaluate_expansion_preconditions(self):
        with pytest.raises(SurfaceError, match="empty expansion"):
            evaluate_expansion([])
        with pytest.raises(SurfaceError, match="invalid coefficient"):
            evaluate_expansion([2, 1])
        with pytest.raises(SurfaceError, match="invalid coefficient"):
            evaluate_expansion([2, 2.0])
        with pytest.raises(SurfaceError) as info:
            evaluate_expansion(5)
        assert info.value.precondition == "coefficients is an iterable of integers"


class TestCyclicDualGraph:
    def test_27_19(self):
        g = cyclic_dual_graph(27, 19)
        assert g.vertices == ("1", "2", "3", "4")
        assert g.weights == {"1": -2, "2": -2, "3": -4, "4": -3}
        assert g.edges == (("1", "2"), ("2", "3"), ("3", "4"))

    def test_51_11(self):
        g = cyclic_dual_graph(51, 11)
        assert g.weights == {"1": -5, "2": -3, "3": -4}

    def test_2_1(self):
        g = cyclic_dual_graph(2, 1)
        assert g.vertices == ("1",)
        assert g.edges == ()
        assert g.weights == {"1": -2}

    def test_hirzebruch_jung_determinants(self):
        """For n/a = [b1, ..., br], det(-M) of the chain is n, and a with
        its first curve removed; by the helpers' own elimination."""
        pairs = 0
        for n in range(2, 80):
            for a in range(1, n):
                if gcd(n, a) != 1:
                    continue
                g = cyclic_dual_graph(n, a)
                m = helpers.intersection_matrix(g.vertices, g.edges, g.weights)
                minus = [[-x for x in row] for row in m]
                assert helpers.oracle_determinant(minus) == n, (n, a)
                rest = [row[1:] for row in minus[1:]]
                assert helpers.oracle_determinant(rest) == a, (n, a)
                pairs += 1
        assert pairs == 1933


def _path_parts(n):
    vertices = [str(i) for i in range(n)]
    return vertices, [(str(i), str(i + 1)) for i in range(n - 1)]


def _star_parts_shape(arms):
    """Tree with one center and arms of the given lengths."""
    vertices = ["c"]
    edges = []
    for i, length in enumerate(arms):
        prev = "c"
        for k in range(length):
            name = f"a{i}n{k}"
            vertices.append(name)
            edges.append((prev, name))
            prev = name
    return vertices, edges


class TestADERecognition:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_paths(self, n):
        vertices, edges = _path_parts(n)
        assert ade_recognize(vertices, edges) == ADEType("A", n)

    @pytest.mark.parametrize(
        "arms,expected",
        [
            ((1, 1, 1), ADEType("D", 4)),
            ((1, 1, 2), ADEType("D", 5)),
            ((1, 1, 4), ADEType("D", 7)),
            ((1, 2, 2), ADEType("E", 6)),
            ((1, 2, 3), ADEType("E", 7)),
            ((1, 2, 4), ADEType("E", 8)),
            ((2, 2, 1), ADEType("E", 6)),
        ],
    )
    def test_three_armed_stars(self, arms, expected):
        vertices, edges = _star_parts_shape(arms)
        assert ade_recognize(vertices, edges) == expected

    def test_type_names(self):
        assert ADEType("A", 1).name == "A1"
        assert ADEType("D", 4).name == "D4"
        assert ADEType("E", 8).name == "E8"

    def test_bad_arm_lengths(self):
        vertices, edges = _star_parts_shape((2, 2, 2))
        with pytest.raises(SurfaceError, match="match no Dynkin tree") as info:
            ade_recognize(vertices, edges)
        assert info.value.witness == {"arms": [2, 2, 2]}
        vertices, edges = _star_parts_shape((1, 2, 5))
        with pytest.raises(SurfaceError, match="match no Dynkin tree"):
            ade_recognize(vertices, edges)

    def test_degree_four_vertex(self):
        vertices, edges = _star_parts_shape((1, 1, 1, 1))
        with pytest.raises(SurfaceError, match="three-armed star") as info:
            ade_recognize(vertices, edges)
        assert info.value.witness == {"branch_vertices": ["c"]}

    def test_two_branch_vertices(self):
        vertices, edges = _star_parts_shape((1, 1, 3))
        # grow a second branch midway along the long arm
        vertices = vertices + ["x"]
        edges = edges + [("a2n1", "x")]
        with pytest.raises(SurfaceError, match="three-armed star"):
            ade_recognize(vertices, edges)

    def test_not_a_tree(self):
        assert _refusal(
            ade_recognize, ["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")]
        ) == (
            "the dual graph is not a tree",
            "the graph is connected and acyclic",
            {"vertices": 3, "edges": 3},
        )

    def test_not_connected(self):
        # right edge count, but a triangle leaves vertex 4 unreached
        assert _refusal(
            ade_recognize, ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "1")]
        ) == (
            "the dual graph is not a tree",
            "the graph is connected and acyclic",
            {"vertices": 4, "edges": 3},
        )

    def test_duplicate_vertex(self):
        assert _refusal(ade_recognize, ["a", "a", "b"], [("a", "b"), ("a", "b")]) == (
            "duplicate vertex in dual graph",
            "vertex names are distinct",
            {"vertices": ["a", "a", "b"]},
        )

    @pytest.mark.parametrize(
        "edges", [[("a", "b"), ("a", "b")], [("a", "b"), ("b", "a")]]
    )
    def test_duplicate_edge(self, edges):
        u, v = edges[1]
        assert _refusal(ade_recognize, ["a", "b", "c"], edges) == (
            f"duplicate edge ({u}, {v})",
            "the dual graph is a simple tree",
            {"edge": [u, v]},
        )

    def test_empty_shape(self):
        assert _refusal(ade_recognize, [], []) == (
            "dual graph needs at least one vertex",
            "at least one exceptional curve",
            None,
        )

    def test_bad_edges(self):
        assert _refusal(ade_recognize, ["1"], [("1", "9")]) == (
            "edge (1, 9) uses an undeclared vertex",
            "edge endpoints are declared vertices",
            {"edge": ["1", "9"]},
        )
        assert _refusal(ade_recognize, ["1"], [("1", "1")]) == (
            "self-loop at 1", "the dual graph is a simple tree", {"vertex": "1"}
        )

    @pytest.mark.parametrize("edges", MALFORMED_EDGES)
    def test_edges_are_pairs(self, edges):
        with pytest.raises(SurfaceError, match="edges is not") as info:
            ade_recognize(["a", "b"], edges)
        assert info.value.precondition == "edges is a sequence of vertex pairs"

    def test_vertices_are_a_sequence(self):
        with pytest.raises(SurfaceError, match="vertices is not") as info:
            ade_recognize(None, [])
        assert info.value.precondition == "vertices is a sequence of vertex names"


class TestDecompose:
    def test_g2719_all_minus_two(self):
        g = helpers.g2719_graph()
        dec = decompose(g, all_minus_two(g))
        assert [b.name for b in dec.blocks] == ["A2", "A3"]
        assert dec.component_vertices == (("1", "2"), ("4", "5", "6"))

    def test_g2719_partial_contraction(self):
        dec = decompose(helpers.g2719_graph(), ["2", "4", "5", "6"])
        assert [b.name for b in dec.blocks] == ["A1", "A3"]
        assert dec.component_vertices == (("2",), ("4", "5", "6"))

    def test_g5111_has_nothing_to_contract(self):
        g = helpers.g5111_graph()
        assert all_minus_two(g) == []
        assert decompose(g, []) == Decomposition((), ())

    def test_t13_all_minus_two(self):
        g = helpers.t13_graph()
        dec = decompose(g, all_minus_two(g))
        assert [b.name for b in dec.blocks] == ["A1", "A2", "A2"]
        assert dec.component_vertices == (("6",), ("1", "2"), ("4", "5"))

    def test_d4_contraction(self):
        g = helpers.star_graph(-2, [-2, -2, -2])
        dec = decompose(g, g.vertices)
        assert dec.blocks == (ADEType("D", 4),)

    def test_partition_invariants(self):
        cases = [
            (helpers.g2719_graph(), ("1", "2", "4", "5", "6")),
            (helpers.t13_graph(), ("1", "2", "4", "5", "6")),
            (helpers.t13_graph(), ("1", "4", "6")),
            (helpers.m25_graph(), ("1",)),
        ]
        for graph, contracted in cases:
            dec = decompose(graph, contracted)
            flattened = [v for comp in dec.component_vertices for v in comp]
            assert sorted(flattened) == sorted(contracted)
            assert len(set(flattened)) == len(flattened)
            for block, comp in zip(dec.blocks, dec.component_vertices):
                assert block.rank == len(comp)

    def test_contracted_set_preconditions(self):
        g = helpers.t13_graph()
        with pytest.raises(SurfaceError, match="duplicates"):
            decompose(g, ["2", "2"])
        with pytest.raises(SurfaceError, match="unknown vertex"):
            decompose(g, ["9"])
        with pytest.raises(SurfaceError, match=r"only \(-2\)-curves"):
            decompose(g, ["3"])
        for contracted in (None, 2):
            with pytest.raises(SurfaceError, match="contracted is not") as info:
                decompose(g, contracted)
            assert info.value.witness == {"field": "contracted"}


GRAPH_FUNCTIONS = [
    fundamental_cycle,
    special_ranks,
    canonical_syzygy_multiplicities,
    projective_injective_vertices,
    lambda graph: decompose(graph, []),
    all_minus_two,
    serialize_dual_graph,
    dual_graph_to_json,
]


class TestGraphArgument:
    @pytest.mark.parametrize("function", GRAPH_FUNCTIONS)
    @pytest.mark.parametrize(
        "graph", [None, "vertex 1 -2;", {"vertices": ["1"]}, helpers.star_parts(-2, 3)]
    )
    def test_only_a_dual_graph_is_accepted(self, function, graph):
        with pytest.raises(SurfaceError, match="expected a DualGraph") as info:
            function(graph)
        assert info.value.precondition == "graph is a DualGraph"
        assert info.value.witness == {"graph": repr(graph)}

    @pytest.mark.parametrize("function", GRAPH_FUNCTIONS)
    def test_a_dual_graph_is_accepted(self, function):
        function(helpers.t13_graph())


class TestDecomposeMatchesRecognition:
    def test_every_contraction_of_small_definite_trees(self):
        """On every definite tree with n <= 6 and weights in {-2, -3}, and
        every set of its (-2)-curves, decompose finds the components a plain
        breadth-first search finds and types each as ade_recognize does."""
        contractions = 0
        for n in range(1, 7):
            for shape in helpers.tree_shapes(n):
                # graph order runs against name order
                vertices = [str(i) for i in reversed(range(n))]
                edges = [(str(u), str(v)) for u, v in shape]
                for values in itertools.product((-2, -3), repeat=n):
                    weights = dict(zip(vertices, values))
                    matrix = helpers.intersection_matrix(vertices, edges, weights)
                    if not helpers.oracle_negative_definite(matrix):
                        continue
                    graph = DualGraph(vertices, edges, weights)
                    minus_two = [v for v in vertices if weights[v] == -2]
                    for k in range(len(minus_two) + 1):
                        for subset in itertools.combinations(minus_two, k):
                            contractions += 1
                            dec = decompose(graph, subset)
                            assert sorted(dec.component_vertices) == sorted(
                                helpers.induced_components(vertices, edges, subset)
                            )
                            for block, comp in zip(dec.blocks, dec.component_vertices):
                                induced = [e for e in edges if set(e) <= set(comp)]
                                assert block == ade_recognize(comp, induced)
        assert contractions == 4552


GRAPH_TEXT = """vertex 1 -2;
vertex 2 -5;
edge 1 2;
"""


class TestGraphText:
    def test_round_trip(self):
        g = parse_dual_graph(GRAPH_TEXT)
        assert g == helpers.m25_graph()
        assert serialize_dual_graph(g) == GRAPH_TEXT

    def test_comments_and_layout(self):
        text = "# resolution\nvertex 1 -2; vertex 2 -5;\n  edge 1 2;  # done\n"
        assert parse_dual_graph(text) == helpers.m25_graph()

    def test_serialize_all_corpus_graphs(self):
        for graph in (
            helpers.m25_graph(),
            helpers.t13_graph(),
            helpers.g2719_graph(),
            helpers.g5111_graph(),
        ):
            assert parse_dual_graph(serialize_dual_graph(graph)) == graph

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="not terminated"):
            parse_dual_graph("vertex 1 -2")
        with pytest.raises(ParseError, match="duplicate vertex"):
            parse_dual_graph("vertex 1 -2; vertex 1 -3;")
        with pytest.raises(ParseError, match="cannot parse"):
            parse_dual_graph("curve 1 -2;")

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="ab #;\t\xa0\n\r\x1c\x85\u2028", max_size=3),
            min_size=1, max_size=4, unique=True,
        )
    )
    def test_names_are_refused_or_read_back(self, names):
        bad = [v for v in names if not v or any(c.isspace() or c in ";#" for c in v)]
        try:
            g = DualGraph(names, list(zip(names, names[1:])), dict.fromkeys(names, -2))
        except SurfaceError as err:
            assert err.witness == {"vertex": bad[0]}
            assert err.precondition.startswith("vertex names are non-empty")
        else:
            assert not bad
            assert parse_dual_graph(serialize_dual_graph(g)) == g

    def test_line_breaks_are_those_of_splitlines(self):
        # every code point in order has no "\r\n" in it, so each line but
        # the last ends in exactly one break
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        breaks = {line[-1] for line in every.splitlines(keepends=True)[:-1]}
        assert set(_LINE_BREAKS) == breaks

    def test_json_shape(self):
        payload = dual_graph_to_json(helpers.t13_graph())
        assert payload == {
            "vertices": ["1", "2", "3", "4", "5", "6"],
            "weights": {"1": -2, "2": -2, "3": -4, "4": -2, "5": -2, "6": -2},
            "edges": [
                ("1", "2"),
                ("2", "3"),
                ("3", "4"),
                ("3", "6"),
                ("4", "5"),
            ],
        }


@pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="CPython's tuple free lists"
)
def test_building_graphs_leaves_no_tuples_in_free_lists():
    """``tuple(<generator>)`` takes its block from the size-10 free list and
    frees the result into the list of its final size, so building graphs
    of many sizes fills CPython's tuple free lists (up to 2,000 tuples per
    size) and keeps them allocated: about 12,000 blocks for this loop when
    ``DualGraph`` and ``decompose`` built their tuples that way."""
    gc.collect()  # a full collection empties the free lists
    before = sys.getallocatedblocks()
    for _ in range(300):
        for n in range(2, 20):
            vertices, edges = _path_parts(n)
            g = DualGraph(vertices, edges, dict.fromkeys(vertices, -2))
            decompose(g, all_minus_two(g))
    assert sys.getallocatedblocks() - before < 2000
