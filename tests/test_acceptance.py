"""Acceptance gate: thirteen checks covering the shipped guarantees.

Each test prints a single ``criterion NN: PASS`` or ``criterion NN: FAIL``
line, so running this file with ``pytest -s`` reads as a scoreboard.
Check 08 is expected to stay red; its failure message carries the
arithmetic that shows why the pinned reference list cannot be reproduced.
"""

from __future__ import annotations

import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from singcat import dg_auslander as dga
from singcat import gentle, nodal, surface
from singcat.nodal import (
    MINUS,
    NODAL_K0_RANK,
    NODAL_PRESENTATION,
    PLUS,
    NodalProjective,
    NodalString,
)
from singcat.quiver import path_in_ideal
from singcat.surface import DualGraph, SurfaceError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SIGNS = (PLUS, MINUS)

ADE_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)]
)

ODD_COUNTS = {
    ("A", 1): (2, 0, 2),
    ("A", 2): (1, 1, 1),
    ("A", 3): (3, 4, 3),
    ("A", 4): (2, 3, 2),
    ("A", 5): (4, 6, 4),
    ("A", 6): (3, 5, 3),
    ("A", 7): (5, 8, 5),
    ("A", 8): (4, 7, 4),
    ("D", 4): (8, 12, 8),
    ("D", 5): (7, 12, 7),
    ("D", 6): (12, 20, 12),
    ("D", 7): (11, 20, 11),
    ("D", 8): (16, 28, 16),
    ("E", 6): (6, 10, 6),
    ("E", 7): (14, 24, 14),
    ("E", 8): (16, 28, 16),
}


@contextmanager
def scoreboard(number: int):
    """Print one PASS or FAIL line for the wrapped criterion body."""
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL")
        raise
    print(f"criterion {number:02d}: PASS")


def hom_window(shift_bound: int = 4, max_length: int = 4) -> list:
    shifts = range(-shift_bound, shift_bound + 1)
    objs: list = [NodalProjective(s, m) for s in SIGNS for m in shifts]
    objs += [
        NodalString(s, l, m)
        for s in SIGNS
        for l in range(1, max_length + 1)
        for m in shifts
    ]
    return objs


def test_criterion_01():
    """The worked example has exactly the cycles jfe and kgh, length 3 each."""
    with scoreboard(1):
        cycles = gentle.critical_cycles(helpers.illustrative())
        assert [(c.name, c.length) for c in cycles] == [("jfe", 3), ("kgh", 3)]
        assert [c.display for c in cycles] == [("j", "f", "e"), ("k", "g", "h")]


def test_criterion_02():
    """Ladder algebras carry n - 1 period-2 cycles and nothing else."""
    with scoreboard(2):
        for n in range(2, 9):
            pres = helpers.lambda_n(n)
            cycles = gentle.critical_cycles(pres)
            assert len(cycles) == n - 1
            assert all(c.length == 2 for c in cycles)
            dec = gentle.singularity_category(pres)
            assert tuple(dec.factors) == (2,) * (n - 1)


def test_criterion_03():
    """The nine-vertex example decomposes as {1, 6, 7} and differs from the hexagon."""
    with scoreboard(3):
        final = helpers.final_example()
        dec = gentle.singularity_category(final)
        assert list(dec.factors) == [1, 6, 7]
        cmp = gentle.compare_invariant(final, helpers.hexagon())
        assert cmp.compatible is False
        assert list(cmp.only_first) == [1, 6, 7]
        assert list(cmp.only_second) == [3]


def test_criterion_04():
    """Radicals of the non-projective Gorenstein projectives over ladders."""
    with scoreboard(4):
        for n in range(2, 7):
            gp = gentle.gorenstein_projectives(helpers.lambda_n(n))
            assert gp.projectives == tuple(str(v) for v in range(n + 1))
            table = {
                (cycle.name, vertex): (module.top, tuple(module.arrows))
                for (cycle, vertex), module in gp.radicals.items()
            }
            expected = {}
            for i in range(1, n):
                name = f"b{i} a{i}"
                expected[(name, str(i))] = (
                    str(i + 1),
                    tuple(f"a{j}" for j in range(i + 1, n)),
                )
                expected[(name, str(i + 1))] = (
                    str(i),
                    tuple(f"b{j}" for j in range(i - 1, 0, -1)),
                )
            assert table == expected


def test_criterion_05():
    """Hom dimensions match the oracle and separate every window object."""
    with scoreboard(5):
        objs = hom_window()
        for x in objs:
            ox = helpers.to_oracle(x)
            for y in objs:
                got = nodal.hom_dim(x, y)
                assert got == helpers.oracle_hom(ox, helpers.to_oracle(y)), (x, y)
        probes = [
            NodalString(s, j, m)
            for s in SIGNS
            for j in range(1, 7)
            for m in range(-6, 7)
        ]
        for x, y in itertools.combinations(objs, 2):
            assert any(
                nodal.hom_dim(t, x) != nodal.hom_dim(t, y) for t in probes
            ), (x, y)


def test_criterion_06():
    """Short string complexes are pinned and d squared lands in the ideal."""
    with scoreboard(6):
        one = nodal.minimal_string_complex(PLUS, 1)
        assert one.terms == ("P-", "P*", "P+")
        assert tuple(d.display() for d in one.differentials) == ("β", "γ")
        two = nodal.minimal_string_complex(PLUS, 2)
        assert two.terms == ("P+", "P*", "P*", "P+")
        assert tuple(d.display() for d in two.differentials) == ("δ", "αβ", "γ")
        for sign in SIGNS:
            for length in range(1, 11):
                cx = nodal.minimal_string_complex(sign, length)
                for composite in nodal.complex_d_squared(cx):
                    assert path_in_ideal(composite, NODAL_PRESENTATION)


def test_criterion_07():
    """Cluster membership holds for minus projectives and even minus strings only."""
    with scoreboard(7):
        for x in hom_window():
            expected = x.sign == MINUS and (
                isinstance(x, NodalProjective) or x.length % 2 == 0
            )
            assert nodal.cluster_member(x) is expected, x


def test_criterion_08():
    """Continued fraction expansions re-evaluate to their input quotient."""
    try:
        assert surface.jung_hirzebruch(51, 11) == [5, 3, 4]
        rng = random.Random(1311)
        checked = 0
        while checked < 1000:
            n = rng.randrange(2, 10001)
            a = rng.randrange(1, n)
            if math.gcd(n, a) != 1:
                continue
            expansion = surface.jung_hirzebruch(n, a)
            assert surface.evaluate_expansion(expansion) == Fraction(n, a)
            checked += 1
    except BaseException:
        print("criterion 08: FAIL")
        raise
    pinned = [2, 2, 5, 2, 2, 2]
    got = surface.jung_hirzebruch(27, 19)
    if got == pinned:
        print("criterion 08: PASS")
        return
    print("criterion 08: FAIL")
    pytest.fail(
        f"expansion check for (27, 19): the recursion yields {got}, which "
        f"re-evaluates to {surface.evaluate_expansion(got)}; the pinned "
        f"reference list {pinned} re-evaluates to "
        f"{surface.evaluate_expansion(pinned)} and therefore cannot be the "
        "expansion of 27/19; keeping the faithful computation and leaving "
        "this check red intentionally."
    )


def test_criterion_09():
    """Contraction blocks of the three stock graphs, plus a chosen subset."""
    with scoreboard(9):
        def blocks_of(graph, contracted):
            dec = surface.decompose(graph, contracted)
            names = [b.name for b in dec.blocks]
            parts = [list(vs) for vs in dec.component_vertices]
            return names, parts

        g = helpers.g2719_graph()
        assert blocks_of(g, surface.all_minus_two(g)) == (
            ["A2", "A3"],
            [["1", "2"], ["4", "5", "6"]],
        )
        assert blocks_of(g, ["2", "4", "5", "6"]) == (
            ["A1", "A3"],
            [["2"], ["4", "5", "6"]],
        )
        g = helpers.g5111_graph()
        assert blocks_of(g, surface.all_minus_two(g)) == ([], [])
        g = helpers.t13_graph()
        assert blocks_of(g, surface.all_minus_two(g)) == (
            ["A1", "A2", "A2"],
            [["6"], ["1", "2"], ["4", "5"]],
        )


def test_criterion_10():
    """Fundamental cycles are order independent and coefficient minimal."""
    with scoreboard(10):
        graph_files = sorted(CORPUS.glob("*.graph"))
        assert graph_files
        for path in graph_files:
            graph = surface.parse_dual_graph(path.read_text(encoding="utf-8"))
            base = surface.fundamental_cycle(graph)
            for seed in range(100):
                assert surface.fundamental_cycle(graph, seed=seed) == base

        star = helpers.star_graph(-2, [-2, -2, -2])
        z = surface.fundamental_cycle(star)
        assert sorted(z.values(), reverse=True) == [2, 1, 1, 1]

        # every tree on at most 8 curves with weights -2, -3 or -4: each
        # definite one's cycle is anti-nef, and lowering any coefficient
        # above 1 breaks that, so no coefficient can be lowered
        candidates = indefinite = definite = nontrivial = 0
        for n in range(1, 9):
            for shape in helpers.tree_shapes(n):
                vertices = [str(i) for i in range(n)]
                edges = [(str(u), str(v)) for u, v in shape]
                adjacency = helpers.adjacency_of(vertices, edges)
                for values in itertools.product((-2, -3, -4), repeat=n):
                    candidates += 1
                    weights = dict(zip(vertices, values))
                    # DualGraph decides definiteness itself; only that
                    # precondition may reject a candidate
                    try:
                        graph = DualGraph(vertices, edges, weights)
                    except SurfaceError as err:
                        assert err.precondition == "negative definite intersection form"
                        indefinite += 1
                        continue
                    definite += 1
                    z = surface.fundamental_cycle(graph)
                    # the step guard never trips on a definite tree this small
                    assert surface._laufer(vertices, adjacency, weights, None) == z
                    assert all(z[v] >= 1 for v in vertices)
                    if any(z[v] > 1 for v in vertices):
                        nontrivial += 1
                    assert not helpers.violates_anti_nef(
                        z, vertices, adjacency, weights
                    )
                    for v in vertices:
                        if z[v] == 1:
                            continue
                        lowered = dict(z)
                        lowered[v] -= 1
                        assert helpers.violates_anti_nef(
                            lowered, vertices, adjacency, weights
                        ), (weights, edges, v)
        assert candidates == 180264
        assert indefinite == 9489
        assert definite > 0
        assert nontrivial > 0


def test_criterion_11():
    """A (-2)-tree is recognized as ADE exactly when it is negative definite."""
    with scoreboard(11):
        per_size = []
        for n in range(1, 10):
            shapes = helpers.tree_shapes(n)
            per_size.append(len(shapes))
            for shape in shapes:
                vertices = [str(i) for i in range(n)]
                edges = [(str(u), str(v)) for u, v in shape]
                weights = {v: -2 for v in vertices}
                try:
                    surface.ade_recognize(vertices, edges)
                    recognized = True
                except SurfaceError:
                    recognized = False
                assert recognized == surface.is_negative_definite(
                    vertices, edges, weights
                ), edges
        assert per_size == [1, 1, 1, 2, 3, 6, 11, 23, 47]


def test_criterion_12():
    """Structure of every emitted graded quiver, with pinned renderings."""
    with scoreboard(12):
        for family, rank in ADE_TYPES:
            for parity in ("even", "odd"):
                q = dga.dg_auslander(f"{family}{rank}", parity)
                assert len(set(q.vertices)) == len(q.vertices)
                assert len(q.broken) == len(q.vertices)
                assert all(q.translation[q.translation[v]] == v for v in q.vertices)
                for b in q.broken:
                    assert b.label == f"ρ_{b.source}"
                    assert b.target == q.translation[b.source]
                diff = dga.differential(q)
                for v in q.vertices:
                    terms = diff[f"ρ_{v}"]
                    assert (len(terms) == 0) == (not q.solid_from(v)), (q, v)
                counts = (len(q.vertices), len(q.solid), len(q.broken))
                if parity == "odd":
                    assert counts == ODD_COUNTS[(family, rank)]
                else:
                    assert counts == (rank, 2 * rank - 2, rank)

        def rendered(ade, parity):
            q = dga.dg_auslander(ade, parity)
            return {r: dga.render_sum(t) for r, t in dga.differential(q).items()}

        assert rendered("A2", "odd")["ρ_1"] == "γ^2"
        assert rendered("A2", "even")["ρ_2"] == "α_1α_1*"
        for n in range(3, 9):
            assert rendered(f"A{n}", "even")["ρ_2"] == "α_1α_1* + α_2*α_2"


def test_criterion_13():
    """Grothendieck group ranks: 2 for the nodal block, vertex count for quivers."""
    with scoreboard(13):
        assert NODAL_K0_RANK == 2
        for family, rank in ADE_TYPES:
            for parity in ("even", "odd"):
                q = dga.dg_auslander(f"{family}{rank}", parity)
                assert dga.k0_rank(q) == len(q.vertices)
                if parity == "odd":
                    assert dga.k0_rank(q) == ODD_COUNTS[(family, rank)][0]
                else:
                    assert dga.k0_rank(q) == rank
