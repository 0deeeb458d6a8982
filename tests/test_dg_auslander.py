"""Structural checks for the graded quivers attached to ADE configurations.

Every family and parity goes through the same invariant battery: one
degree -1 arrow per vertex matched to the translation, mesh differentials
that close up through unique partners, and the expected vertex and arrow
counts.  Rendered differentials of the small instances are pinned verbatim.
"""

from __future__ import annotations

import json

import pytest

import helpers
from singcat import cli
from singcat.dg_auslander import (
    DGAError,
    GradedQuiver,
    check_ade_type,
    dg_auslander,
    differential,
    graded_quiver_to_json,
    k0_rank,
    knoerrer_parity,
    mesh_image,
    render_sum,
    serialize_graded_quiver,
)
from singcat.quiver import Arrow
from singcat.surface import ADEType

ALL_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", r) for r in (6, 7, 8)]
)

# (family, rank, parity) -> (vertices, solid arrows, broken arrows)
EXPECTED_COUNTS = {
    ("A", 1, "odd"): (2, 0, 2),
    ("A", 2, "odd"): (1, 1, 1),
    ("A", 3, "odd"): (3, 4, 3),
    ("A", 4, "odd"): (2, 3, 2),
    ("A", 5, "odd"): (4, 6, 4),
    ("A", 6, "odd"): (3, 5, 3),
    ("A", 7, "odd"): (5, 8, 5),
    ("A", 8, "odd"): (4, 7, 4),
    ("D", 4, "odd"): (8, 12, 8),
    ("D", 5, "odd"): (7, 12, 7),
    ("D", 6, "odd"): (12, 20, 12),
    ("D", 7, "odd"): (11, 20, 11),
    ("D", 8, "odd"): (16, 28, 16),
    ("E", 6, "odd"): (6, 10, 6),
    ("E", 7, "odd"): (14, 24, 14),
    ("E", 8, "odd"): (16, 28, 16),
}
for _family, _rank in ALL_TYPES:
    EXPECTED_COUNTS[(_family, _rank, "even")] = (_rank, 2 * (_rank - 1), _rank)

ALL_INSTANCES = [
    (family, rank, parity)
    for family, rank in ALL_TYPES
    for parity in ("even", "odd")
]


def instance_id(case):
    family, rank, parity = case
    return f"{family}{rank}-{parity}"


@pytest.fixture(params=ALL_INSTANCES, ids=instance_id)
def quiver(request):
    family, rank, parity = request.param
    return dg_auslander(ADEType(family, rank), parity)


class TestStructuralInvariants:
    def test_vertices_are_distinct(self, quiver):
        assert len(set(quiver.vertices)) == len(quiver.vertices)

    def test_arrows_use_declared_vertices(self, quiver):
        vset = set(quiver.vertices)
        for arrow in quiver.solid + quiver.broken:
            assert arrow.source in vset and arrow.target in vset

    def test_labels_are_unique(self, quiver):
        labels = [a.label for a in quiver.solid + quiver.broken]
        assert len(set(labels)) == len(labels)

    def test_translation_is_an_involution(self, quiver):
        tau = quiver.translation
        assert sorted(tau) == sorted(quiver.vertices)
        assert sorted(tau.values()) == sorted(quiver.vertices)
        for v in quiver.vertices:
            assert tau[tau[v]] == v

    def test_one_broken_arrow_per_vertex_onto_the_translate(self, quiver):
        assert len(quiver.broken) == len(quiver.vertices)
        by_source = {a.source: a for a in quiver.broken}
        assert sorted(by_source) == sorted(quiver.vertices)
        for v, arrow in by_source.items():
            assert arrow.label == f"ρ_{v}"
            assert arrow.target == quiver.translation[v]

    def test_mesh_summands_close_up(self, quiver):
        solid_by_label = {a.label: a for a in quiver.solid}
        for v in quiver.vertices:
            terms = mesh_image(quiver, v)
            outgoing = quiver.solid_from(v)
            assert len(terms) == len(outgoing)
            assert sorted(first for first, _ in terms) == sorted(
                a.label for a in outgoing
            )
            for first, second in terms:
                a, b = solid_by_label[first], solid_by_label[second]
                assert a.source == v
                assert b.source == a.target
                assert b.target == quiver.translation[v]

    def test_differential_vanishes_exactly_at_sinks(self, quiver):
        diff = differential(quiver)
        assert sorted(diff) == sorted(a.label for a in quiver.broken)
        for rho in quiver.broken:
            is_zero = diff[rho.label] == ()
            assert is_zero == (quiver.solid_from(rho.source) == [])

    def test_counts_table(self, quiver):
        key = (quiver.family, quiver.rank, quiver.parity)
        assert (
            len(quiver.vertices),
            len(quiver.solid),
            len(quiver.broken),
        ) == EXPECTED_COUNTS[key]

    def test_k0_rank_is_the_vertex_count(self, quiver):
        assert k0_rank(quiver) == len(quiver.vertices)


def rendered(family, rank, parity) -> dict[str, str]:
    q = dg_auslander(ADEType(family, rank), parity)
    return {rho: render_sum(terms) for rho, terms in differential(q).items()}


ORACLE_INSTANCES = [
    (family, rank, parity)
    for family, ranks in (("A", range(1, 21)), ("D", range(4, 21)), ("E", (6, 7, 8)))
    for rank in ranks
    for parity in ("even", "odd")
]


@pytest.mark.parametrize("family, rank, parity", ORACLE_INSTANCES)
def test_indexed_mesh_matches_a_full_scan(family, rank, parity):
    q = dg_auslander(ADEType(family, rank), parity)
    assert differential(q) == helpers.scan_mesh_differential(q)
    for v in q.vertices:
        assert q.solid_from(v) == [a for a in q.solid if a.source == v]


@pytest.mark.parametrize("family, rank, parity", ORACLE_INSTANCES)
def test_tables_pass_the_public_constructor(family, rank, parity):
    # the built-in tables are built through the constructor; rebuilding one
    # from its fields gives the same quiver and the same index
    q = dg_auslander(ADEType(family, rank), parity)
    checked = GradedQuiver(*(getattr(q, f) for f in GradedQuiver._fields))
    assert checked == q
    for index in ("_solid_from", "_untranslate"):
        assert getattr(checked, index) == getattr(q, index)


TABLES = [
    (f"{family}{rank}", parity)
    for family, ranks in (("A", range(1, 121)), ("D", range(4, 121)), ("E", (6, 7, 8)))
    for rank in ranks
    for parity in ("even", "odd")
]


def _emitted(capsys, name, parity):
    """Solid arrows (label, source, target) and translation that
    ``dga emit NAME PARITY`` prints."""
    assert cli.run(["dga", "emit", name, parity]) == 0
    payload = json.loads(capsys.readouterr().out)
    solid = [(a["label"], a["source"], a["target"]) for a in payload["solid_arrows"]]
    return solid, payload["translation"]


def _identity(count):
    return {str(v): str(v) for v in range(1, count + 1)}


def test_even_tables_are_the_double_quivers_of_the_dynkin_trees(capsys):
    for name, parity in TABLES:
        if parity == "even":
            family, rank = name[0], int(name[1:])
            solid, translation = _emitted(capsys, name, parity)
            assert solid == helpers.oracle_double_quiver(family, rank), name
            assert translation == _identity(rank), name


def test_odd_a_tables_are_double_quivers_with_a_loop_or_a_swap(capsys):
    for n in range(2, 121):
        solid, translation = _emitted(capsys, f"A{n}", "odd")
        m = (n + 1) // 2
        if n % 2 == 0:  # A_m with a loop at m
            expected = helpers.oracle_double_quiver("A", m) + [("γ", str(m), str(m))]
            tau = _identity(m)
        else:  # the D-shaped tree on m + 1 vertices, 1 and 2 swapped
            expected = helpers.oracle_double_quiver("D", m + 1)
            tau = _identity(m + 1) | {"1": "2", "2": "1"}
        assert solid == expected, n
        assert translation == tau, n


def test_no_table_repeats_an_arrow_label():
    for ade, parity in TABLES:
        q = dg_auslander(ade, parity)
        labels = [a.label for a in q.solid + q.broken]
        assert len(set(labels)) == len(labels), (ade, parity)


@pytest.mark.parametrize(
    "solid, broken",
    [
        ((), (Arrow("r", "1", "1"), Arrow("r", "1", "1"))),
        ((Arrow("r", "1", "1"),), (Arrow("r", "1", "1"),)),
        ([Arrow("a", "1", "1"), Arrow("r", "1", "1")], iter([Arrow("r", "1", "1")])),
    ],
)
def test_a_repeated_arrow_label_is_refused(solid, broken):
    with pytest.raises(DGAError) as info:
        GradedQuiver("A", 1, "even", ("1",), solid, broken, {"1": "1"})
    assert info.value.diagnostic() == {
        "message": "arrow label 'r' is repeated",
        "precondition": "arrow labels are distinct",
        "witness": {"label": "r"},
    }


@pytest.mark.parametrize(
    "vertices, solid, broken, field, shape",
    [
        (5, (), (), "vertices", "a sequence of str"),
        (("1",), 5, (), "solid", "a sequence of Arrow"),
        (("1",), (), None, "broken", "a sequence of Arrow"),
        # an element that is not an Arrow reads like a field that does not iterate
        (("1",), [("a", "1", "1")], (), "solid", "a sequence of Arrow"),
        (("1",), (), [Arrow("r", "1", "2")], "broken", "a sequence of Arrow"),
        # the sequences are stored before any is checked
        (("1", "1"), 5, (), "solid", "a sequence of Arrow"),
        (("1", "1"), (), (), "vertices", "a sequence of distinct strs"),
    ],
)
def test_a_malformed_sequence_field_is_refused_in_full(vertices, solid, broken, field, shape):
    with pytest.raises(DGAError) as info:
        GradedQuiver("A", 1, "even", vertices, solid, broken, {"1": "1"})
    assert info.value.diagnostic() == {
        "message": f"{field} is not {shape}",
        "precondition": f"{field} is {shape}",
        "witness": {"field": field},
    }


def test_a_label_ending_in_a_newline_is_not_an_alpha_label():
    # "α_1\n" sorts last, like any label that is not α_k or α_k*, as in the oracle
    q = GradedQuiver(
        "A", 3, "even", ("1", "2", "3"),
        (Arrow("α_1\n", "1", "2"), Arrow("α_2", "1", "3"),
         Arrow("z", "2", "1"), Arrow("w", "3", "1")),
        tuple(Arrow(f"ρ_{v}", v, v) for v in "123"),
        {v: v for v in "123"},
    )
    assert differential(q)["ρ_1"] == mesh_image(q, "1") == (("α_2", "w"), ("α_1\n", "z"))
    assert differential(q) == helpers.scan_mesh_differential(q)


def identity_quiver(*solid) -> GradedQuiver:
    """Even-parity quiver on the vertices the solid arrows use, identity
    translation, one broken arrow per vertex."""
    vertices = tuple(sorted({v for _, s, t in solid for v in (s, t)}))
    return GradedQuiver(
        "A", len(vertices), "even", vertices, tuple(Arrow(*a) for a in solid),
        tuple(Arrow(f"ρ_{v}", v, v) for v in vertices), {v: v for v in vertices},
    )


def test_an_alpha_label_past_the_digit_limit_is_ordered():
    long = "α_" + "1" * 5000
    q = identity_quiver((long, "1", "1"))
    assert mesh_image(q, "1") == ((long, long),)
    assert differential(q) == helpers.scan_mesh_differential(q)
    assert graded_quiver_to_json(q)["differential"]["ρ_1"] == [[long, long]]
    assert f"d(ρ_1) = {long}^2;" in serialize_graded_quiver(q)
    # a number of 5000 digits follows α_9, and precedes any plain label
    q = identity_quiver(("z", "1", "2"), (long, "2", "1"), ("α_9", "1", "3"), ("w", "3", "1"))
    assert mesh_image(q, "1") == (("α_9", "w"), ("z", long))
    assert mesh_image(q, "2") == ((long, "z"),)
    assert differential(q) == helpers.scan_mesh_differential(q)


def test_an_alpha_label_sorts_before_every_plain_label():
    # a large k used to share its key with every label that is not α_k
    q = identity_quiver(
        ("α_2000000000", "1", "2"), ("z", "2", "1"), ("b", "1", "3"), ("c", "3", "1")
    )
    assert mesh_image(q, "1") == (("α_2000000000", "z"), ("b", "c"))
    assert differential(q) == helpers.scan_mesh_differential(q)
    # and α_k* with a plain label is no 2-cycle
    q = identity_quiver(("b", "1", "2"), ("c", "2", "1"), ("α_1000000000*", "1", "3"), ("z", "3", "1"))
    assert mesh_image(q, "1") == (("α_1000000000*", "z"), ("b", "c"))
    assert differential(q) == helpers.scan_mesh_differential(q)


def test_leading_zeros_do_not_change_the_number():
    assert helpers._mesh_label_key("α_01") == helpers._mesh_label_key("α_1")
    assert helpers._mesh_label_key("α_01*") == helpers._mesh_label_key("α_1*")
    assert helpers._mesh_label_key("α_10") > helpers._mesh_label_key("α_09")
    # α_01 α_1* is the 2-cycle of the number 1, before the term of α_2
    q = identity_quiver(("α_2", "1", "3"), ("x", "3", "1"), ("α_01", "1", "2"), ("α_1*", "2", "1"))
    assert mesh_image(q, "1") == (("α_01", "α_1*"), ("α_2", "x"))
    assert differential(q) == helpers.scan_mesh_differential(q)


@pytest.mark.parametrize(
    "label", ["α_", "α_*", "α_1**", "α__1", "α_٣", "α_٣*", "α_１", "α_1 ", "a_1", "α_-1"]
)
def test_labels_that_are_not_alpha_k_sort_as_plain_labels(label):
    assert helpers._mesh_label_key(label) == ((1,), 0)
    q = identity_quiver((label, "1", "2"), ("y", "2", "1"), ("α_7*", "1", "3"), ("x", "3", "1"))
    assert mesh_image(q, "1") == (("α_7*", "x"), (label, "y"))
    assert differential(q) == helpers.scan_mesh_differential(q)


def test_edge_labels_in_one_mesh_sort_as_the_oracle_sorts_them():
    # every label at the edge of α_k and α_k* in one mesh sum, each with a
    # plain partner, and α_1 α_01* as the 2-cycle of the number 1
    long = "α_" + "7" * 5000
    edge = ["α_", "α_*", "α_1**", "α__1", "α_٣", "α_٣*", "α_１", long, long + "*", "α_9", "α_10"]
    solid = [(label, "0", f"{i}") for i, label in enumerate(edge, 1)]
    solid += [(f"z{i}", f"{i}", "0") for i in range(1, len(edge) + 1)]
    solid += [("α_1", "0", "x"), ("α_01*", "x", "0")]
    q = identity_quiver(*solid)
    terms = mesh_image(q, "0")
    assert terms == tuple(sorted(terms, key=helpers._mesh_term_key))
    assert terms[0] == ("α_1", "α_01*")
    assert [first for first, _ in terms[1:5]] == ["α_9", "α_10", long, long + "*"]
    assert differential(q) == helpers.scan_mesh_differential(q)


class TestPinnedDifferentials:
    def test_odd_a1_is_formal(self):
        assert rendered("A", 1, "odd") == {"ρ_1": "0", "ρ_2": "0"}

    def test_odd_a2(self):
        assert rendered("A", 2, "odd") == {"ρ_1": "γ^2"}

    def test_odd_a3(self):
        assert rendered("A", 3, "odd") == {
            "ρ_1": "α_2*α_1",
            "ρ_2": "α_1*α_2",
            "ρ_3": "α_1α_1* + α_2α_2*",
        }

    def test_odd_a4(self):
        assert rendered("A", 4, "odd")["ρ_2"] == "α_1α_1* + γ^2"

    def test_odd_a5_center(self):
        assert rendered("A", 5, "odd")["ρ_3"] == "α_1α_1* + α_2α_2* + α_3*α_3"

    def test_odd_d4(self):
        assert rendered("D", 4, "odd")["ρ_2"] == "α_1α_1* + α_7α_7* + α_5α_2"

    def test_odd_d5(self):
        d = rendered("D", 5, "odd")
        assert d["ρ_0"] == "α_1*α_0"
        assert d["ρ_2"] == "α_1α_1* + α_3*α_2"
        assert d["ρ_6"] == "α_4*α_4 + α_5α_5*"

    def test_odd_e6(self):
        d = rendered("E", 6, "odd")
        assert d["ρ_1"] == "α_2*α_1"
        assert d["ρ_3"] == "α_1α_1* + α_4*α_3"
        assert d["ρ_5"] == "α_3α_3* + α_4α_4* + α_5*α_5"
        assert d["ρ_6"] == "α_5α_5*"

    def test_odd_e8_branch_foot(self):
        assert (
            rendered("E", 8, "odd")["ρ_10"] == "α_8α_8* + α_16α_16* + α_9*α_10"
        )

    def test_even_a2(self):
        assert rendered("A", 2, "even")["ρ_2"] == "α_1α_1*"

    @pytest.mark.parametrize("n", range(3, 9))
    def test_even_a_interior_vertex(self, n):
        assert rendered("A", n, "even")["ρ_2"] == "α_1α_1* + α_2*α_2"

    def test_even_mesh_at_an_end(self):
        q = dg_auslander("A3", "even")
        assert render_sum(mesh_image(q, "1")) == "α_1*α_1"

    def test_mesh_rejects_unknown_vertex(self):
        q = dg_auslander("A3", "even")
        with pytest.raises(DGAError, match="unknown vertex"):
            mesh_image(q, "9")


class TestRendering:
    def test_repeated_arrow_renders_as_a_square(self):
        assert render_sum([("γ", "γ")]) == "γ^2"

    def test_application_order_reverses_for_display(self):
        assert render_sum([("α_1", "α_2*")]) == "α_2*α_1"

    def test_empty_sum(self):
        assert render_sum(()) == "0"

    def test_serialized_odd_a2(self):
        text = serialize_graded_quiver(dg_auslander("A2", "odd"))
        assert text == (
            "vertices 1;\n"
            "arrow γ: 1 -> 1 deg 0;\n"
            "arrow ρ_1: 1 --> 1 deg -1;\n"
            "d(ρ_1) = γ^2;\n"
        )

    def test_serialized_even_a3_lines(self):
        text = serialize_graded_quiver(dg_auslander("A3", "even"))
        lines = text.splitlines()
        assert lines[0] == "vertices 1 2 3;"
        assert "arrow α_1: 1 -> 2 deg 0;" in lines
        assert "arrow ρ_1: 1 --> 1 deg -1;" in lines
        assert "d(ρ_2) = α_1α_1* + α_2*α_2;" in lines

    def test_json_payload(self):
        payload = graded_quiver_to_json(dg_auslander("A2", "odd"))
        assert payload == {
            "family": "A",
            "rank": 2,
            "parity": "odd",
            "vertices": ["1"],
            "solid_arrows": [{"label": "γ", "source": "1", "target": "1"}],
            "broken_arrows": [{"label": "ρ_1", "source": "1", "target": "1"}],
            "translation": {"1": "1"},
            "differential": {"ρ_1": [["γ", "γ"]]},
        }

    def test_json_pairs_are_in_display_order(self):
        payload = graded_quiver_to_json(dg_auslander("A2", "even"))
        # stored application-order pair (α_1*, α_1) flips for display
        assert payload["differential"]["ρ_2"] == [["α_1", "α_1*"]]


class TestDifferentialMemo:
    def test_repeated_calls_agree_and_are_fresh_dicts(self):
        q = dg_auslander("D6", "odd")
        first, second = differential(q), differential(q)
        assert first == second == helpers.scan_mesh_differential(q)
        assert first is not second

    def test_mutating_a_result_changes_nothing_later(self):
        q = dg_auslander("E7", "odd")
        pristine = dg_auslander("E7", "odd")
        got = differential(q)
        got["ρ_1"] = ()
        del got["ρ_2"]
        got["extra"] = (("x", "y"),)
        assert differential(q) == differential(pristine)
        assert graded_quiver_to_json(q) == graded_quiver_to_json(pristine)
        assert serialize_graded_quiver(q) == serialize_graded_quiver(pristine)
        differential(q).clear()
        assert serialize_graded_quiver(q) == serialize_graded_quiver(pristine)

    def test_a_mesh_without_a_unique_partner_fails_on_use_not_construction(self):
        # mesh at 1 runs through a: 1 -> 2 and needs one arrow 2 -> 1; there are two
        q = GradedQuiver(
            "A", 2, "even", ("1", "2"),
            (Arrow("a", "1", "2"), Arrow("b", "2", "1"), Arrow("c", "2", "1")),
            (Arrow("ρ_1", "1", "1"), Arrow("ρ_2", "2", "2")),
            {"1": "1", "2": "2"},
        )
        for _ in range(2):
            with pytest.raises(DGAError, match="not uniquely completable") as info:
                differential(q)
            assert info.value.witness == {"vertex": "1", "arrow": "a", "candidates": ["b", "c"]}
            with pytest.raises(DGAError, match="not uniquely completable"):
                mesh_image(q, "1")
        with pytest.raises(DGAError, match="not uniquely completable"):
            graded_quiver_to_json(q)


class TestTypeHandling:
    def test_parse_and_passthrough(self):
        assert check_ade_type("A7") == ADEType("A", 7)
        assert check_ade_type("D4") == ADEType("D", 4)
        assert check_ade_type(ADEType("E", 8)) == ADEType("E", 8)

    @pytest.mark.parametrize("bad", ["D3", "E9", "E5", "A0", "X5", "A-1", "A"])
    def test_rejected_types(self, bad):
        with pytest.raises(DGAError):
            check_ade_type(bad)

    def test_a_trailing_newline_is_not_a_type(self):
        # the whole string must be a type: '$' would also match before '\n'
        with pytest.raises(DGAError) as info:
            check_ade_type("A3\n")
        assert info.value.message == "cannot parse ADE type 'A3\\n'"

    @pytest.mark.parametrize("bad", [5, ("A", "x"), ("A",), (1, 7), None, ("A", True)])
    def test_malformed_type_objects(self, bad):
        with pytest.raises(DGAError) as info:
            dg_auslander(bad, "odd")
        assert info.value.precondition == (
            "type is a string like A7 or a (family, rank) pair"
        )

    def test_unknown_parity(self):
        with pytest.raises(DGAError, match="unknown parity"):
            dg_auslander("A2", "mixed")

    def test_knoerrer_parity_values(self):
        assert knoerrer_parity(0) == "even"
        assert knoerrer_parity(1) == "odd"
        assert knoerrer_parity(2) == "even"
        assert knoerrer_parity(3) == "odd"

    def test_knoerrer_parity_preconditions(self):
        with pytest.raises(DGAError, match="non-negative"):
            knoerrer_parity(-1)
        with pytest.raises(DGAError, match="non-negative"):
            knoerrer_parity(2.0)
        with pytest.raises(DGAError, match="non-negative"):
            knoerrer_parity(True)


# ---------------------------------------------------------------------------
# H^0: the solid path algebra modulo the mesh sums, read from the JSON payload

H0_TYPES = ["A1", "A2", "A3", "A5", "D4", "D5", "D7", "E6", "E7", "E8"]
COXETER = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get}


def h0_dimension(name: str, parity: str) -> int:
    payload = json.loads(json.dumps(graded_quiver_to_json(dg_auslander(name, parity))))
    return helpers.oracle_h0_dimension(payload)


@pytest.mark.parametrize("name", H0_TYPES)
def test_even_h0_is_the_preprojective_algebra(name):
    # even parity is the double quiver of the Dynkin tree with one mesh
    # relation per vertex, so H^0 is its preprojective algebra, of dimension
    # n·h(h+1)/6 with h the Coxeter number (Malkin–Ostrik–Vybornov 2005)
    n = int(name[1:])
    h = COXETER[name[0]](n)
    assert h0_dimension(name, "even") == n * h * (h + 1) // 6


@pytest.mark.parametrize(
    "name, dimension",
    zip(H0_TYPES, [2, 2, 10, 28, 56, 84, 286, 156, 798, 2480]),
)
def test_odd_h0_dimension_is_pinned(name, dimension):
    assert h0_dimension(name, "odd") == dimension
