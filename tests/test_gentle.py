"""Gentle recognition, critical cycles and Gorenstein projective strings."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import helpers
from singcat.gentle import (
    CriticalCycle,
    check_gentle,
    compare_invariant,
    critical_cycles,
    gorenstein_projectives,
    radical_embeddings,
    singularity_category,
)
from singcat.quiver import Arrow, Presentation, QuiverError


class TestGentleConditions:
    def test_illustrative_is_gentle(self):
        report = check_gentle(helpers.illustrative())
        assert report.is_gentle
        assert report.violations == ()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_lambda_family_is_gentle(self, n):
        assert check_gentle(helpers.lambda_n(n)).is_gentle

    def test_hexagon_and_final_example_are_gentle(self):
        assert check_gentle(helpers.hexagon()).is_gentle
        assert check_gentle(helpers.final_example()).is_gentle

    def test_two_loops_with_all_relations_fail_g3(self):
        report = check_gentle(helpers.two_loops_all_relations())
        assert not report.is_gentle
        first = report.violations[0]
        assert first.condition == "G3"
        assert first.location == "x"
        assert {(v.condition, v.location) for v in report.violations} >= {
            ("G3", "x"),
            ("G3", "y"),
        }

    def test_three_parallel_arrows_fail_g1(self):
        report = check_gentle(helpers.parallel_triple())
        conditions = {(v.condition, v.location) for v in report.violations}
        assert conditions == {("G1", "1"), ("G1", "2")}

    def test_g4_violation_without_relations(self):
        pres = Presentation(
            ["1", "2", "3"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "3")],
        )
        report = check_gentle(pres)
        assert not report.is_gentle
        assert any(
            v.condition == "G4" and v.location == "a" for v in report.violations
        )

    def test_non_gentle_input_blocks_cycle_computation(self):
        with pytest.raises(QuiverError, match="not gentle") as info:
            critical_cycles(helpers.two_loops_all_relations())
        # the witness lists every violation, not only the first
        assert len(info.value.witness) >= 2


def _violation_tuples(pres):
    report = check_gentle(pres)
    return tuple((v.condition, v.location, v.detail) for v in report.violations)


def _three_cycles(k: int):
    """k disjoint 3-cycles with every composite zero (gentle)."""
    vertices, arrows, relations = [], [], []
    for i in range(k):
        vs = [f"{i}.{j}" for j in range(3)]
        labs = [f"c{i}_{j}" for j in range(3)]
        vertices += vs
        arrows += [(labs[j], vs[j], vs[(j + 1) % 3]) for j in range(3)]
        relations += [(labs[j], labs[(j + 1) % 3]) for j in range(3)]
    return vertices, arrows, relations


def _planted(kind: str, k: int) -> Presentation:
    """k disjoint 3-cycles with one violation of the named kind planted."""
    vertices, arrows, relations = _three_cycles(k)
    if kind == "G1":
        arrows += [(f"p{j}", "0.0", f"{k - 1}.{j}") for j in range(2)]
    elif kind == "G3":
        arrows.append(("p", "0.1", "0.1"))
        relations.append(("c0_0", "p"))
    else:  # G4: r continues freely by c0_1 and p; p follows c0_0 and r freely
        vertices += ["x", "y"]
        arrows += [("p", "0.1", "x"), ("r", "y", "0.1")]
    return Presentation(vertices, arrows, relations)


class TestGentleOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_presentations_match_the_scan(self, data):
        n_vertices = data.draw(st.integers(1, 6), label="vertices")
        vertices = [str(i) for i in range(n_vertices)]
        ends = st.sampled_from(vertices)
        arrows = [
            Arrow(f"x{i}", data.draw(ends), data.draw(ends))
            for i in range(data.draw(st.integers(0, 10), label="arrows"))
        ]
        composable = [
            (a.label, b.label) for a in arrows for b in arrows if a.target == b.source
        ]
        relations = []
        if composable:
            relations = data.draw(
                st.lists(st.sampled_from(composable), unique=True, max_size=8),
                label="relations",
            )
        pres = Presentation(vertices, arrows, relations)
        assert _violation_tuples(pres) == helpers.scan_gentle_violations(pres)

    @pytest.mark.parametrize("kind", ["G1", "G3", "G4"])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_planted_violations_match_the_scan(self, kind, k):
        pres = _planted(kind, k)
        got = _violation_tuples(pres)
        assert got == helpers.scan_gentle_violations(pres)
        assert kind in {condition for condition, _, _ in got}

    def test_fixtures_match_the_scan(self):
        for pres in (
            helpers.illustrative(),
            helpers.two_loops_all_relations(),
            helpers.two_loops_mixed(),
            helpers.parallel_triple(),
            Presentation(*_three_cycles(5)),
        ):
            assert _violation_tuples(pres) == helpers.scan_gentle_violations(pres)


class TestCriticalCycles:
    def test_illustrative_cycles(self):
        cycles = critical_cycles(helpers.illustrative())
        assert [c.name for c in cycles] == ["jfe", "kgh"]
        assert [c.length for c in cycles] == [3, 3]
        assert cycles[0].arrows == ("e", "f", "j")
        assert cycles[0].display == ("j", "f", "e")
        assert cycles[1].arrows == ("h", "g", "k")
        assert cycles[1].display == ("k", "g", "h")

    @pytest.mark.parametrize("n", range(2, 9))
    def test_lambda_cycles(self, n):
        cycles = critical_cycles(helpers.lambda_n(n))
        assert len(cycles) == n - 1
        assert all(c.length == 2 for c in cycles)
        assert [c.name for c in cycles] == [f"b{i} a{i}" for i in range(1, n)]

    def test_hexagon_single_cycle(self):
        cycles = critical_cycles(helpers.hexagon())
        assert len(cycles) == 1
        assert cycles[0].length == 3
        assert cycles[0].name == "zyx"

    def test_final_example_cycles(self):
        cycles = critical_cycles(helpers.final_example())
        assert [c.length for c in cycles] == [1, 6, 7]
        assert [c.name for c in cycles] == [
            "c",
            "a6 a5 a4 a3 a2 a1",
            "b7 b6 b5 b4 b3 b2 b1",
        ]

    def test_loop_and_two_cycle(self):
        assert [c.length for c in critical_cycles(helpers.loop_square())] == [1]
        assert [c.length for c in critical_cycles(helpers.two_cycle())] == [2]

    def test_hereditary_path_has_no_cycles(self):
        assert critical_cycles(helpers.a2_path()) == []

    @pytest.mark.parametrize(
        "arrows, display, name",
        [
            (("a", "b"), ("b", "a"), "ba"),
            (["a", "bc"], ("bc", "a"), "bc a"),
            # as many characters as labels, but not one each
            (("", "ab"), ("ab", ""), "ab "),
            ((), (), ""),
        ],
    )
    def test_display_and_name_of_a_built_cycle(self, arrows, display, name):
        cycle = CriticalCycle(arrows)
        assert (cycle.display, cycle.name) == (display, name)

    @pytest.mark.parametrize("arrows", [None, 5, ("a", 1)])
    def test_cycle_of_non_labels_is_refused(self, arrows):
        with pytest.raises(QuiverError) as info:
            CriticalCycle(arrows)
        assert info.value.precondition == "arrows is a sequence of arrow labels"

    def test_declaration_order_does_not_matter(self):
        base = helpers.illustrative()
        shuffled = Presentation(
            tuple(reversed(base.vertices)),
            tuple(reversed(base.arrows)),
            tuple(reversed(base.relations)),
        )
        assert critical_cycles(base) == critical_cycles(shuffled)

    def test_canonical_rotation_is_a_rotation(self):
        for pres in (
            helpers.illustrative(),
            helpers.lambda_n(4),
            helpers.hexagon(),
            helpers.final_example(),
        ):
            for cycle in critical_cycles(pres):
                arrows = cycle.arrows
                for idx, lab in enumerate(arrows):
                    succ = arrows[(idx + 1) % len(arrows)]
                    assert (lab, succ) in pres.relation_set

    def test_brute_force_oracle_on_fixtures(self):
        for pres in (
            helpers.illustrative(),
            helpers.lambda_n(3),
            helpers.hexagon(),
            helpers.final_example(),
            helpers.loop_square(),
            helpers.two_cycle(),
        ):
            expected = helpers.brute_force_critical_cycles(pres)
            got = {frozenset(c.arrows) for c in critical_cycles(pres)}
            assert got == expected

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(st.data())
    def test_brute_force_oracle_on_small_presentations(self, data):
        n_vertices = data.draw(st.integers(1, 3), label="vertices")
        vertices = [str(i) for i in range(n_vertices)]
        n_arrows = data.draw(st.integers(0, 4), label="arrows")
        arrows = []
        for i in range(n_arrows):
            src = data.draw(st.sampled_from(vertices), label=f"src{i}")
            tgt = data.draw(st.sampled_from(vertices), label=f"tgt{i}")
            arrows.append(Arrow(f"x{i}", src, tgt))
        composable = sorted(
            (a.label, b.label)
            for a in arrows
            for b in arrows
            if a.target == b.source
        )
        relations = []
        if composable:
            relations = data.draw(
                st.lists(st.sampled_from(composable), unique=True, max_size=3),
                label="relations",
            )
        pres = Presentation(vertices, arrows, relations)
        assume(check_gentle(pres).is_gentle)
        expected = helpers.brute_force_critical_cycles(pres)
        got = {frozenset(c.arrows) for c in critical_cycles(pres)}
        assert got == expected


def _walk_is_maximal_and_relation_free(pres, cycle, vertex, module):
    rel = pres.relation_set
    start = next(lab for lab in cycle.arrows if pres.source(lab) == vertex)
    assert module.top == pres.target(start)
    chain = (start,) + module.arrows
    for prev, nxt in zip(chain, chain[1:]):
        assert pres.target(prev) == pres.source(nxt)
        assert (prev, nxt) not in rel
    continuations = [
        b.label
        for b in pres.arrows_from(pres.target(chain[-1]))
        if (chain[-1], b.label) not in rel
    ]
    assert continuations == []


class TestRadicalEmbeddings:
    def test_illustrative_pinned_walks(self):
        pres = helpers.illustrative()
        radicals = radical_embeddings(pres)
        table = {
            (cycle.name, vertex): (module.top, module.arrows)
            for (cycle, vertex), module in radicals.items()
        }
        assert table == {
            ("jfe", "6"): ("2", ("b", "c", "g", "j", "i", "d", "a", "f", "k")),
            ("jfe", "2"): ("7", ("k",)),
            ("jfe", "7"): ("6", ("i", "d", "a", "f", "k")),
            ("kgh", "4"): ("7", ("j", "i", "d", "a", "f", "k")),
            ("kgh", "7"): ("8", ()),
            ("kgh", "8"): ("4", ()),
        }

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lambda_printed_walks(self, n):
        radicals = radical_embeddings(helpers.lambda_n(n))
        table = {
            (cycle.name, vertex): (module.top, module.arrows)
            for (cycle, vertex), module in radicals.items()
        }
        expected = {}
        for i in range(1, n):
            forward = tuple(f"a{k}" for k in range(i + 1, n))
            backward = tuple(f"b{k}" for k in range(i - 1, 0, -1))
            expected[(f"b{i} a{i}", str(i))] = (str(i + 1), forward)
            expected[(f"b{i} a{i}", str(i + 1))] = (str(i), backward)
        assert table == expected

    def test_hexagon_radicals_are_all_simple(self):
        radicals = radical_embeddings(helpers.hexagon())
        assert len(radicals) == 3
        assert all(module.is_simple for module in radicals.values())
        tops = {vertex: module.top for (_, vertex), module in radicals.items()}
        assert tops == {"1": "2", "2": "3", "3": "1"}

    def test_walks_are_maximal_relation_free_continuations(self):
        for pres in (
            helpers.illustrative(),
            helpers.lambda_n(5),
            helpers.hexagon(),
            helpers.final_example(),
        ):
            for (cycle, vertex), module in radical_embeddings(pres).items():
                _walk_is_maximal_and_relation_free(pres, cycle, vertex, module)

    def test_infinite_dimensional_walk_is_detected(self):
        pres = helpers.two_loops_mixed()
        assert check_gentle(pres).is_gentle
        assert [c.length for c in critical_cycles(pres)] == [2]
        with pytest.raises(QuiverError, match="infinite dimensional"):
            radical_embeddings(pres)

    def test_gorenstein_projectives_lists_all_vertices(self):
        gp = gorenstein_projectives(helpers.illustrative())
        assert gp.projectives == tuple(str(i) for i in range(1, 9))
        assert gp.radicals == radical_embeddings(helpers.illustrative())


class TestSingularityDecomposition:
    def test_factors_follow_cycle_order(self):
        dec = singularity_category(helpers.final_example())
        assert dec.factors == (1, 6, 7)
        assert [c.length for c in dec.cycle_of_factor] == [1, 6, 7]
        assert dec.factors == tuple(sorted(dec.factors))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_lambda_factors(self, n):
        assert singularity_category(helpers.lambda_n(n)).factors == (2,) * (n - 1)

    def test_hereditary_algebra_has_empty_decomposition(self):
        assert singularity_category(helpers.a2_path()).factors == ()

    def test_factor_count_matches_cycle_count(self):
        for pres in (helpers.illustrative(), helpers.lambda_n(6)):
            dec = singularity_category(pres)
            assert len(dec.factors) == len(critical_cycles(pres))


class TestInvariantComparison:
    def test_final_example_vs_hexagon(self):
        cmp = compare_invariant(helpers.final_example(), helpers.hexagon())
        assert not cmp.compatible
        assert cmp.only_first == (1, 6, 7)
        assert cmp.only_second == (3,)

    def test_relabeling_preserves_compatibility(self):
        base = helpers.lambda_n(3)
        relabeled = Presentation(
            [f"w{v}" for v in base.vertices],
            [Arrow(f"r{a.label}", f"w{a.source}", f"w{a.target}") for a in base.arrows],
            [(f"r{x}", f"r{y}") for x, y in base.relations],
        )
        cmp = compare_invariant(base, relabeled)
        assert cmp.compatible
        assert cmp.only_first == ()
        assert cmp.only_second == ()

    def test_witness_reports_multiset_difference(self):
        cmp = compare_invariant(helpers.loop_square(), helpers.two_cycle())
        assert not cmp.compatible
        assert cmp.only_first == (1,)
        assert cmp.only_second == (2,)

    def test_multiplicities_matter(self):
        one = helpers.lambda_n(2)
        two = helpers.lambda_n(3)
        cmp = compare_invariant(one, two)
        assert not cmp.compatible
        assert cmp.only_first == ()
        assert cmp.only_second == (2,)
