"""Resolution graph computations checked against independent oracles.

Negative definiteness is cross-checked against a fraction-arithmetic
Gaussian elimination, and fundamental cycles against the anti-nef
characterization: the result must be anti-nef, and on small graphs an
exhaustive box search confirms that no smaller positive cycle is.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

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
    _intersection_matrix,
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
# its fundamental cycle needs 719 increments, more than 64·n + 64 = 704.
LAUFER_WITNESS = """\
vertex 0 -2; vertex 1 -2; vertex 2 -2; vertex 3 -3; vertex 4 -4;
vertex 5 -3; vertex 6 -3; vertex 7 -4; vertex 8 -3; vertex 9 -2;
edge 1 0; edge 2 1; edge 3 2; edge 4 1; edge 5 0;
edge 6 3; edge 7 5; edge 8 4; edge 9 1;
"""


@st.composite
def weighted_trees(draw):
    """Random labeled tree with liberal weights, for definiteness testing."""
    n = draw(st.integers(1, 7))
    vertices = [str(i) for i in range(n)]
    edges = [
        (str(draw(st.integers(0, i - 1))), str(i)) for i in range(1, n)
    ]
    values = draw(st.lists(st.integers(-9, 0), min_size=n, max_size=n))
    return vertices, edges, dict(zip(vertices, values))


# edge lists with an edge that is not a pair, or that are no sequence at all
MALFORMED_EDGES = [[("a",)], [("a", "b", "c")], [("a", "b"), 7], [None], 7, None]


class TestNegativeDefiniteness:
    @settings(max_examples=200, deadline=None)
    @given(weighted_trees())
    def test_agrees_with_fraction_oracle(self, parts):
        vertices, edges, weights = parts
        matrix = _intersection_matrix(vertices, edges, weights)
        assert is_negative_definite(vertices, edges, weights) == (
            helpers.oracle_negative_definite(matrix)
        )

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
        # det = 0 makes the second fraction-free pivot vanish
        vertices = ["a", "b"]
        edges = [("a", "b")]
        assert not is_negative_definite(vertices, edges, {"a": -1, "b": -1})

    def test_forest_without_edges(self):
        assert is_negative_definite(["a", "b"], [], {"a": -2, "b": -3})

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


class TestLauferAlgorithm:
    def test_affine_star_stabilizes_at_the_radical_vector(self):
        # the iteration is well defined beyond the definite range and lands
        # on the vector spanning the kernel of the affine D4 form
        vertices, edges, weights = helpers.star_parts(-2, 4)
        adjacency = helpers.adjacency_of(vertices, edges)
        z = _laufer(vertices, adjacency, weights, None)
        assert z == {"c": 2, "l1": 1, "l2": 1, "l3": 1, "l4": 1}

    def test_divergent_star_raises(self):
        vertices, edges, weights = helpers.star_parts(-2, 6)
        adjacency = helpers.adjacency_of(vertices, edges)
        with pytest.raises(SurfaceError, match="did not stabilize"):
            _laufer(vertices, adjacency, weights, None)

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

    def test_exhaustive_minimality_sweep(self):
        """Anti-nef minimality on every small tree with desk-scale weights.

        For each negative definite candidate the computed cycle must be
        anti-nef, and removing one curve from it must break that property,
        so no coefficient can be lowered.
        """
        candidates = 0
        definite = 0
        nontrivial = 0
        for n in range(1, 9):
            for shape in helpers.tree_shapes(n):
                vertices = [str(i) for i in range(n)]
                edges = [(str(u), str(v)) for u, v in shape]
                adjacency = helpers.adjacency_of(vertices, edges)
                for values in itertools.product(SWEEP_WEIGHTS, repeat=n):
                    candidates += 1
                    weights = dict(zip(vertices, values))
                    if not is_negative_definite(vertices, edges, weights):
                        continue
                    definite += 1
                    z = _laufer(vertices, adjacency, weights, None)
                    assert all(z[v] >= 1 for v in vertices)
                    assert not helpers.violates_anti_nef(
                        z, vertices, adjacency, weights
                    )
                    if any(z[v] > 1 for v in vertices):
                        nontrivial += 1
                    for v in vertices:
                        if z[v] == 1:
                            continue
                        lowered = dict(z)
                        lowered[v] -= 1
                        assert helpers.violates_anti_nef(
                            lowered, vertices, adjacency, weights
                        ), (weights, edges, v)
        assert candidates == 180264
        assert definite > 0
        assert nontrivial > 0

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


def _guarded_outcomes(vertices, adjacency, weights, seeds):
    """Under the 64·n + 64 step guard: the oracle's outcome, then
    ``_laufer``'s without a seed and with each seed.  An outcome is the
    cycle's items in key order, or the witness of the step count at which
    the loop gave up."""
    bound = 64 * len(vertices) + 64
    try:
        z = helpers.oracle_laufer(vertices, adjacency, weights, bound)
        outcomes = [list(z.items())]
    except helpers.OracleDiverged as exc:
        outcomes = [{"iterations": exc.iterations}]
    for rng in [None] + [random.Random(seed) for seed in seeds]:
        try:
            outcomes.append(list(_laufer(vertices, adjacency, weights, rng).items()))
        except SurfaceError as exc:
            outcomes.append(exc.witness)
    return outcomes


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
        rng = random.Random(tree_seed)
        n = rng.randint(1, 40)
        vertices = [f"v{i}" for i in range(n)]
        edges = [(vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
        weights = {v: rng.randint(-5, -2) for v in vertices}
        adjacency = helpers.adjacency_of(vertices, edges)
        outcomes = _guarded_outcomes(vertices, adjacency, weights, range(20))
        assert all(outcome == outcomes[0] for outcome in outcomes)

    @pytest.mark.parametrize(
        "leaves, expected",
        [
            (4, [("c", 2), ("l1", 1), ("l2", 1), ("l3", 1), ("l4", 1)]),
            (6, {"iterations": 64 * 7 + 65}),
        ],
    )
    def test_affine_and_divergent_stars(self, leaves, expected):
        vertices, edges, weights = helpers.star_parts(-2, leaves)
        adjacency = helpers.adjacency_of(vertices, edges)
        outcomes = _guarded_outcomes(vertices, adjacency, weights, range(20))
        assert outcomes == [expected] * len(outcomes)


class TestLauferScale:
    """Closed forms at n = 2,000, called on raw adjacencies: building a
    ``DualGraph`` would spend its time in the cubic definiteness check."""

    N = 2000

    def test_d_n(self):
        # chain 0 - 1 - ... - (n-2) with a second leaf n-1 on vertex n-3
        n = self.N
        vertices = [str(i) for i in range(n)]
        edges = [(str(i), str(i + 1)) for i in range(n - 2)]
        edges.append((str(n - 3), str(n - 1)))
        adjacency = helpers.adjacency_of(vertices, edges)
        z = _laufer(vertices, adjacency, dict.fromkeys(vertices, -2), None, guard=False)
        assert [z[v] for v in vertices] == [1] + [2] * (n - 3) + [1, 1]

    def test_a_n(self):
        n = self.N
        vertices = [str(i) for i in range(n)]
        edges = [(str(i), str(i + 1)) for i in range(n - 1)]
        adjacency = helpers.adjacency_of(vertices, edges)
        z = _laufer(vertices, adjacency, dict.fromkeys(vertices, -2), None, guard=False)
        assert z == dict.fromkeys(vertices, 1)


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
        with pytest.raises(SurfaceError, match="not a tree"):
            ade_recognize(
                ["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")]
            )

    def test_not_connected(self):
        # right edge count, but a triangle leaves vertex 4 unreached
        with pytest.raises(SurfaceError, match="not connected"):
            ade_recognize(
                ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "1")]
            )

    def test_duplicate_vertex(self):
        with pytest.raises(SurfaceError, match="duplicate vertex a") as info:
            ade_recognize(["a", "a", "b"], [("a", "b"), ("a", "b")])
        assert info.value.precondition == "vertex names are distinct"
        assert info.value.witness == {"vertex": "a"}

    @pytest.mark.parametrize(
        "edges", [[("a", "b"), ("a", "b")], [("a", "b"), ("b", "a")]]
    )
    def test_duplicate_edge(self, edges):
        u, v = edges[1]
        with pytest.raises(SurfaceError, match="duplicate edge") as info:
            ade_recognize(["a", "b", "c"], edges)
        assert info.value.precondition == "the dual graph is a simple tree"
        assert info.value.witness == {"edge": [u, v]}

    def test_empty_shape(self):
        with pytest.raises(SurfaceError, match="at least one vertex") as info:
            ade_recognize([], [])
        assert info.value.precondition == "at least one exceptional curve"

    def test_bad_edges(self):
        with pytest.raises(SurfaceError, match="bad edge"):
            ade_recognize(["1"], [("1", "9")])
        with pytest.raises(SurfaceError, match="bad edge"):
            ade_recognize(["1"], [("1", "1")])

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
                    matrix = _intersection_matrix(vertices, edges, weights)
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
