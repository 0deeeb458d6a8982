"""Hom calculus, string complexes and K-theory of the nodal block.

The closed Hom formulas are checked against the independent oracle in
``helpers`` over an exhaustive window, and the window objects are separated
pairwise by Hom from a finite family of test strings, so the dimension
table really distinguishes every object it claims to classify.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from singcat import nodal
from singcat.nodal import (
    MINUS,
    NODAL_K0_RANK,
    NODAL_PRESENTATION,
    PLUS,
    ZERO_BLOCK_PRESENTATION,
    K0Class,
    NodalError,
    NodalProjective,
    NodalString,
    ZeroProjective,
    ZeroString,
    ar_translate,
    ar_window,
    cluster_member,
    complex_d_squared,
    delta,
    flip,
    format_object,
    hom_dim,
    hom_dim_sum,
    hom_dim_zero,
    k0_class,
    minimal_string_complex,
    parse_object,
    zero_string_complex,
)
from singcat.quiver import path_in_ideal, replace

SIGNS = (PLUS, MINUS)


def window_objects(shift_bound: int = 4, max_length: int = 4) -> list:
    """All indecomposables with |shift| bounded and string length bounded."""
    shifts = range(-shift_bound, shift_bound + 1)
    objs: list = [NodalProjective(s, n) for s in SIGNS for n in shifts]
    objs += [
        NodalString(s, l, n)
        for s in SIGNS
        for l in range(1, max_length + 1)
        for n in shifts
    ]
    return objs


def zero_window_objects(shift_bound: int = 6, max_length: int = 8) -> list:
    """The zero-block counterpart of ``window_objects``."""
    shifts = range(-shift_bound, shift_bound + 1)
    objs: list = [ZeroProjective(n) for n in shifts]
    objs += [ZeroString(l, n) for l in range(1, max_length + 1) for n in shifts]
    return objs


class Tagged(NodalString):
    """A subclass, which hom_dim accepts like its base."""


class TaggedProjective(NodalProjective):
    pass


class TaggedZeroString(ZeroString):
    pass


class TaggedZeroProjective(ZeroProjective):
    pass


SUBCLASS = {
    NodalString: Tagged, NodalProjective: TaggedProjective,
    ZeroString: TaggedZeroString, ZeroProjective: TaggedZeroProjective,
}


def tagged(obj):
    """The same fields as an instance of the trivial subclass of its type."""
    return SUBCLASS[type(obj)](*(getattr(obj, f) for f in obj._fields))


class Bare(NodalString):
    """A subclass whose __post_init__ skips the base's checks and twist bit."""

    def __post_init__(self):
        pass


class BareProjective(NodalProjective):
    def __post_init__(self):
        pass


def every_build(obj) -> list:
    """``obj`` built every way: the constructor, parse_object, replace,
    shifted, and subclasses with and without the base's __post_init__."""
    fields = [getattr(obj, f) for f in obj._fields]
    # an odd step flips the shift's parity, so a stale twist bit would show
    away = replace(obj, shift=obj.shift + 7)
    bare = {NodalString: Bare, NodalProjective: BareProjective}[type(obj)]
    return [
        type(obj)(*fields),
        parse_object(format_object(obj))[0],
        replace(away, shift=obj.shift),
        away.shifted(-7),
        tagged(obj),
        bare(*fields),
    ]


class TestHomFormulas:
    def test_objects_built_every_way(self):
        # both signs, lengths 1-5 and shifts -4..4; every build of each
        # argument against the other as built by its constructor
        objs = window_objects(4, 5)
        builds = [every_build(x) for x in objs]
        oracle = [helpers.to_oracle(x) for x in objs]
        for x, xs, ox in zip(objs, builds, oracle):
            assert [b == x for b in xs] == [True] * 4 + [False] * 2
            for y, ys, oy in zip(objs, builds, oracle):
                want = helpers.oracle_hom(ox, oy)
                assert [hom_dim(b, y) for b in xs] == [want] * len(xs), (x, y)
                assert [hom_dim(x, b) for b in ys] == [want] * len(ys), (x, y)

    @pytest.mark.parametrize("bad", [
        None, 3, "P+", ZeroString(1), ZeroProjective(2),
        Bare("x", 1), Bare(PLUS, 0), Bare(PLUS, 1, 1.5), BareProjective(PLUS, "1"),
    ], ids=repr)
    def test_only_a_nodal_error_escapes(self, bad):
        for good in (NodalString(PLUS, 2, 1), NodalProjective(MINUS), Bare(MINUS, 3, -2)):
            for args in ((bad, good), (good, bad)):
                with pytest.raises(NodalError):
                    hom_dim(*args)

    def test_the_twist_bit_is_not_a_field(self):
        x = NodalString(MINUS, 2, 3)
        assert x._fields == ("sign", "length", "shift")
        assert repr(x) == "NodalString(sign='-', length=2, shift=3)"
        assert x == NodalString(MINUS, 2, 3) and hash(x) == hash((MINUS, 2, 3))
        assert replace(x, shift=4) == NodalString(MINUS, 2, 4)

    def test_agrees_with_oracle_on_window(self):
        # every ordered pair of 234 objects, so all four type pairs, each
        # argument given as its exact type and as a subclass instance
        objs = window_objects(6, 8)
        assert {type(x) for x in objs} == {NodalProjective, NodalString}
        oracle = [helpers.to_oracle(x) for x in objs]
        subs = [tagged(x) for x in objs]
        for x, sx, ox in zip(objs, subs, oracle):
            for y, sy, oy in zip(objs, subs, oracle):
                want = helpers.oracle_hom(ox, oy)
                assert hom_dim(x, y) == want, (x, y)
                assert hom_dim(sx, y) == hom_dim(x, sy) == hom_dim(sx, sy) == want, (x, y)

    def test_subclasses_are_accepted(self):
        x, tagged = NodalString(MINUS, 2, 1), Tagged(MINUS, 2, 1)
        for y in window_objects(2, 3):
            assert hom_dim(tagged, y) == hom_dim(x, y), y
            assert hom_dim(y, tagged) == hom_dim(y, x), y

    def test_dimensions_are_zero_or_one(self):
        objs = window_objects(3, 3)
        assert {hom_dim(x, y) for x in objs for y in objs} == {0, 1}

    def test_pinned_dimensions(self):
        P = NodalProjective
        S = NodalString
        assert hom_dim(P(PLUS), P(PLUS)) == 1
        assert hom_dim(P(PLUS), P(MINUS, -1)) == 1
        assert hom_dim(P(PLUS), P(PLUS, 1)) == 0
        assert hom_dim(S(PLUS, 1), P(MINUS, 2)) == 1
        assert hom_dim(P(PLUS), S(PLUS, 2)) == 1
        assert hom_dim(S(PLUS, 2), S(PLUS, 2)) == 1

    def test_boundary_cell_of_string_string_formula(self):
        # second clause with l' = l + 2 - n = 1: the smallest target string
        # still receives a map, and the formula assigns dimension 1 there
        assert hom_dim(NodalString(PLUS, 1), NodalString(MINUS, 1, 2)) == 1, (
            "the boundary cell l' = l + 2 - n = 1 must have dimension 1"
        )
        assert hom_dim(NodalString(PLUS, 3), NodalString(MINUS, 1, 4)) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.integers(-8, 8),
        st.data(),
    )
    def test_shift_invariance(self, p, q, k, data):
        def draw_obj(tag):
            sign = data.draw(st.sampled_from(SIGNS), label=f"sign {tag}")
            if data.draw(st.booleans(), label=f"projective {tag}"):
                return NodalProjective(sign, 0)
            return NodalString(sign, data.draw(st.integers(1, 5), label=f"l {tag}"), 0)

        x = draw_obj("x").shifted(p)
        y = draw_obj("y").shifted(q)
        assert hom_dim(x.shifted(k), y.shifted(k)) == hom_dim(x, y)

    def test_window_objects_are_separated_by_test_strings(self):
        objs = window_objects()
        tests = [
            NodalString(s, j, m)
            for s in SIGNS
            for j in range(1, 7)
            for m in range(-6, 7)
        ]
        for x, y in itertools.combinations(objs, 2):
            assert any(hom_dim(t, x) != hom_dim(t, y) for t in tests), (
                f"{format_object(x)} and {format_object(y)} receive identical "
                "Hom dimensions from every test string"
            )

    @pytest.mark.parametrize(
        "x, y",
        [
            (NodalProjective(PLUS), ZeroProjective()),
            (None, NodalProjective(PLUS)),
            (NodalString(PLUS, 2), None),
            (NodalProjective(MINUS), None),
            (None, NodalString(MINUS, 1)),
            (ZeroString(2), NodalString(PLUS, 1)),
            (NodalString(PLUS, 1), ZeroString(2)),
            ("P+", NodalProjective(PLUS)),
            (Tagged(PLUS, 1), TaggedZeroProjective()),
            (TaggedZeroString(2), TaggedProjective(MINUS)),
            (TaggedProjective(PLUS), 1),
        ],
    )
    def test_rejects_foreign_objects(self, x, y):
        with pytest.raises(NodalError, match="not nodal") as info:
            hom_dim(x, y)
        assert info.value.precondition == "both arguments are nodal indecomposables"
        assert info.value.witness == {"first": repr(x), "second": repr(y)}


class TestZeroBlock:
    def test_pinned_dimensions(self):
        assert hom_dim_zero(ZeroProjective(1), ZeroString(3)) == 1
        assert hom_dim_zero(ZeroString(2), ZeroString(2, 3)) == 1
        assert hom_dim_zero(ZeroProjective(), ZeroProjective()) == 1
        assert hom_dim_zero(ZeroProjective(), ZeroProjective(1)) == 0
        assert hom_dim_zero(ZeroProjective(1), ZeroProjective()) == 1
        assert hom_dim_zero(ZeroString(2), ZeroProjective(2)) == 1
        assert hom_dim_zero(ZeroString(2), ZeroProjective(4)) == 0
        assert hom_dim_zero(ZeroString(3), ZeroString(3)) == 1

    def test_shift_invariance(self):
        objs = [ZeroProjective(n) for n in range(-3, 4)]
        objs += [ZeroString(l, n) for l in (1, 2, 3) for n in range(-3, 4)]
        for x in objs:
            for y in objs:
                assert hom_dim_zero(x.shifted(2), y.shifted(2)) == hom_dim_zero(x, y)

    def test_dimensions_are_zero_or_one(self):
        objs = [ZeroProjective(n) for n in range(-4, 5)]
        objs += [ZeroString(l, n) for l in (1, 2, 3, 4) for n in range(-4, 5)]
        assert {hom_dim_zero(x, y) for x in objs for y in objs} <= {0, 1}

    def test_agrees_with_frozen_formulas_on_window(self):
        # each argument as its exact type and as a subclass instance
        objs = zero_window_objects()
        frozen = [helpers.to_zero_oracle(x) for x in objs]
        subs = [tagged(x) for x in objs]
        for x, sx, fx in zip(objs, subs, frozen):
            for y, sy, fy in zip(objs, subs, frozen):
                want = helpers.frozen_hom_zero(fx, fy)
                assert hom_dim_zero(x, y) == want, (x, y)
                assert hom_dim_zero(sx, y) == hom_dim_zero(x, sy) == hom_dim_zero(sx, sy) == want

    @pytest.mark.parametrize(
        "x, y",
        [
            (ZeroProjective(), NodalProjective(PLUS)),
            (NodalString(PLUS, 2), ZeroString(2)),
            (ZeroString(1), NodalString(MINUS, 1)),
            (None, ZeroProjective()),
            (ZeroString(3), None),
            (ZeroProjective(), None),
            (TaggedZeroString(1), Tagged(MINUS, 1)),
            (TaggedProjective(PLUS), TaggedZeroProjective()),
            (TaggedZeroProjective(), "S(1)"),
        ],
    )
    def test_rejects_foreign_objects(self, x, y):
        with pytest.raises(NodalError, match="not zero-block") as info:
            hom_dim_zero(x, y)
        assert info.value.precondition == (
            "both arguments are zero-block indecomposables"
        )
        assert info.value.witness == {"first": repr(x), "second": repr(y)}


class TestHomOfSums:
    def test_zero_object(self):
        assert hom_dim_sum([], [NodalProjective(PLUS)]) == 0
        assert hom_dim_sum([NodalProjective(PLUS)], []) == 0
        assert hom_dim_sum([], []) == 0

    def test_direct_sum_pin(self):
        xs = [NodalProjective(PLUS), NodalProjective(MINUS)]
        assert hom_dim_sum(xs, [NodalProjective(PLUS)]) == 1

    def test_bilinearity(self):
        xs = parse_object("P+, S-(2)[1], P-[2]")
        ys = parse_object("S+(1), P+[3]")
        expected = sum(hom_dim(x, y) for x in xs for y in ys)
        assert hom_dim_sum(xs, ys) == expected

    def test_zero_block_sums_dispatch(self):
        assert hom_dim_sum([ZeroProjective(1)], [ZeroString(3)]) == 1

    def test_mixed_blocks_are_rejected(self):
        with pytest.raises(NodalError, match="different blocks"):
            hom_dim_sum([NodalProjective(PLUS)], [ZeroProjective()])
        with pytest.raises(NodalError, match="mixes summands"):
            hom_dim_sum([NodalProjective(PLUS), ZeroProjective()], [])

    @pytest.mark.parametrize("value", [None, 3, NodalProjective(PLUS)])
    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_arguments_are_sequences(self, value, side):
        args = {"xs": [NodalProjective(PLUS)], "ys": [NodalProjective(MINUS)], side: value}
        with pytest.raises(NodalError, match=f"{side} is not") as info:
            hom_dim_sum(args["xs"], args["ys"])
        assert info.value.precondition == f"{side} is a sequence of block indecomposables"
        assert info.value.witness == {"field": side}

    def test_iterators_are_read_once(self):
        xs = [NodalProjective(PLUS), NodalProjective(MINUS)]
        assert hom_dim_sum(iter(xs), iter([NodalProjective(PLUS)])) == 1


PINNED_COMPLEXES = {
    (PLUS, 1): (("P-", "P*", "P+"), ("β", "γ")),
    (PLUS, 2): (("P+", "P*", "P*", "P+"), ("δ", "αβ", "γ")),
    (MINUS, 1): (("P+", "P*", "P-"), ("δ", "α")),
    (MINUS, 2): (("P-", "P*", "P*", "P-"), ("β", "γδ", "α")),
    (PLUS, 3): (("P-", "P*", "P*", "P*", "P+"), ("β", "γδ", "αβ", "γ")),
    (MINUS, 3): (("P+", "P*", "P*", "P*", "P-"), ("δ", "αβ", "γδ", "α")),
    (PLUS, 4): (("P+", "P*", "P*", "P*", "P*", "P+"), ("δ", "αβ", "γδ", "αβ", "γ")),
}


class TestStringComplexes:
    @pytest.mark.parametrize("key", sorted(PINNED_COMPLEXES, key=str))
    def test_pinned_presentations(self, key):
        sign, length = key
        terms, displays = PINNED_COMPLEXES[key]
        cx = minimal_string_complex(sign, length)
        assert cx.terms == terms
        assert tuple(d.display() for d in cx.differentials) == displays

    def test_degrees_run_up_to_zero(self):
        cx = minimal_string_complex(PLUS, 3)
        assert cx.degrees == (-4, -3, -2, -1, 0)

    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("length", range(1, 11))
    def test_differential_endpoints_match_terms(self, sign, length):
        vertex_of = {"P+": "+", "P-": "-", "P*": "*"}
        cx = minimal_string_complex(sign, length)
        assert len(cx.differentials) == len(cx.terms) - 1
        for j, d in enumerate(cx.differentials):
            assert d.target == vertex_of[cx.terms[j]]
            assert d.source == vertex_of[cx.terms[j + 1]]

    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("length", range(1, 11))
    def test_d_squared_lands_in_the_ideal(self, sign, length):
        cx = minimal_string_complex(sign, length)
        for composite in complex_d_squared(cx):
            assert path_in_ideal(composite, NODAL_PRESENTATION)

    def test_d_squared_composites_are_the_expected_paths(self):
        one = complex_d_squared(minimal_string_complex(PLUS, 1))
        assert [p.arrows for p in one] == [("γ", "β")]
        two = complex_d_squared(minimal_string_complex(PLUS, 2))
        assert [p.arrows for p in two] == [("β", "α", "δ"), ("γ", "β", "α")]

    @pytest.mark.parametrize("length", range(1, 11))
    def test_zero_block_complex(self, length):
        cx = zero_string_complex(length)
        assert cx.terms == ("P2",) + ("P1",) * length + ("P2",)
        displays = tuple(d.display() for d in cx.differentials)
        assert displays == ("a",) + ("ba",) * (length - 1) + ("b",)
        for composite in complex_d_squared(cx):
            assert path_in_ideal(composite, ZERO_BLOCK_PRESENTATION)

    def test_length_must_be_positive(self):
        with pytest.raises(NodalError, match="positive"):
            minimal_string_complex(PLUS, 0)
        with pytest.raises(NodalError, match="positive"):
            zero_string_complex(0)
        with pytest.raises(NodalError, match="positive"):
            NodalString(PLUS, 0)


class TestIntegerArguments:
    """Lengths and shifts are ints; anything else is refused on construction."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NodalString(PLUS, 2.5),
            lambda: NodalString(PLUS, "3"),
            lambda: NodalString(PLUS, True),
            lambda: ZeroString(2.0),
            lambda: minimal_string_complex(PLUS, 2.5),
            lambda: zero_string_complex("3"),
        ],
    )
    def test_length(self, build):
        with pytest.raises(NodalError, match="length must be an integer") as info:
            build()
        assert info.value.precondition == "length is an int"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NodalProjective(PLUS, "1"),
            lambda: NodalProjective(MINUS, 0.5),
            lambda: NodalString(PLUS, 2, None),
            lambda: ZeroProjective(1.0),
            lambda: ZeroString(2, "1"),
            lambda: NodalProjective(PLUS).shifted("1"),
        ],
    )
    def test_shift(self, build):
        with pytest.raises(NodalError, match="shift must be an integer") as info:
            build()
        assert info.value.precondition == "shift is an int"

    def test_witness_is_the_repr(self):
        with pytest.raises(NodalError) as info:
            NodalString(PLUS, 2.5)
        assert info.value.witness == {"length": "2.5"}
        with pytest.raises(NodalError) as info:
            NodalProjective(PLUS, "1")
        assert info.value.witness == {"shift": "'1'"}


class TestK0:
    def test_rank_constant(self):
        assert NODAL_K0_RANK == 2

    def test_projective_classes(self):
        assert k0_class(NodalProjective(PLUS)) == K0Class(1, 0)
        assert k0_class(NodalProjective(MINUS)) == K0Class(0, 1)
        assert k0_class(NodalProjective(PLUS, 1)) == K0Class(-1, 0)
        assert k0_class(NodalProjective(PLUS, 2)) == K0Class(1, 0)

    def test_pinned_string_classes(self):
        assert k0_class(NodalString(PLUS, 1)) == K0Class(1, 1)
        assert k0_class(NodalString(PLUS, 2)) == K0Class(0, 0)

    def test_string_class_is_the_alternating_sum_of_its_complex(self):
        # [S] = sum over the terms of (-1)^degree [term], with [P_*] = 0
        basis = {"P+": (1, 0), "P-": (0, 1), "P*": (0, 0)}
        for sign, length in itertools.product(SIGNS, range(1, 12)):
            cx = minimal_string_complex(sign, length)
            total = [0, 0]
            for term, degree in zip(cx.terms, cx.degrees):
                for i in (0, 1):
                    total[i] += (-1) ** degree * basis[term][i]
            assert k0_class(NodalString(sign, length)) == tuple(total)

    def test_matches_closed_form_oracle(self):
        for sign, length, shift in itertools.product(
            SIGNS, range(1, 9), range(-3, 4)
        ):
            got = k0_class(NodalString(sign, length, shift))
            want = helpers.oracle_k0(1 if sign == PLUS else -1, length, shift)
            assert tuple(got) == want, (sign, length, shift)

    def test_shift_negates(self):
        for obj in (NodalProjective(MINUS, 1), NodalString(MINUS, 3, -2)):
            assert k0_class(obj.shifted(1)) == -k0_class(obj)

    def test_sums_add(self):
        xs = parse_object("P+, S-(2)[1], S+(3)")
        total = k0_class(xs)
        by_hand = K0Class(0, 0)
        for x in xs:
            by_hand = by_hand + k0_class(x)
        assert total == by_hand

    def test_empty_sum_is_zero(self):
        assert k0_class([]) == K0Class(0, 0)

    def test_rejects_zero_block_objects(self):
        with pytest.raises(NodalError, match="no K0 class"):
            k0_class(ZeroProjective())


class TestClusterMembership:
    def test_pins(self):
        assert cluster_member(NodalProjective(MINUS, 5))
        assert cluster_member(NodalString(MINUS, 4, -2))
        assert not cluster_member(NodalString(MINUS, 3, 0))
        assert not cluster_member(NodalString(PLUS, 2, 0))

    def test_exact_membership_on_window(self):
        for obj in window_objects():
            if isinstance(obj, NodalProjective):
                expected = obj.sign == MINUS
            else:
                expected = obj.sign == MINUS and obj.length % 2 == 0
            assert cluster_member(obj) == expected

    def test_closed_under_shift(self):
        for obj in window_objects(2, 3):
            for k in (-2, -1, 1, 2):
                assert cluster_member(obj.shifted(k)) == cluster_member(obj)

    def test_rejects_foreign_objects(self):
        with pytest.raises(NodalError, match="not a nodal"):
            cluster_member(ZeroString(2))


class TestARComponents:
    def test_projective_plus_window(self):
        win = ar_window("projective-plus", (-2, 2))
        assert win.vertices == ("P+[-2]", "P-[-1]", "P+", "P-[1]", "P+[2]")
        assert set(win.solid) == {
            ("P+[2]", "P-[1]"),
            ("P-[1]", "P+"),
            ("P+", "P-[-1]"),
            ("P-[-1]", "P+[-2]"),
        }
        assert win.dashed == ()

    def test_projective_minus_window(self):
        win = ar_window("projective-minus", (0, 1))
        assert win.vertices == ("P-", "P+[1]")
        assert win.solid == (("P+[1]", "P-"),)

    def test_string_window_arrows(self):
        win = ar_window("string-plus", (0, 1), maxlen=2)
        assert set(win.vertices) == {"S+(1)", "S+(2)", "S-(1)[1]", "S-(2)[1]"}
        assert set(win.solid) == {
            ("S+(2)", "S+(1)"),
            ("S-(2)[1]", "S-(1)[1]"),
            ("S-(1)[1]", "S+(2)"),
        }
        assert set(win.dashed) == {
            ("S+(1)", "S-(1)[1]"),
            ("S+(2)", "S-(2)[1]"),
        }

    def test_ordered_windows_are_pinned(self):
        # vertices run shift-major, then by length; each vertex lists its
        # arrow to the shorter string before the one to S(l + 1)[n - 1]
        win = ar_window("string-minus", (-1, 0), maxlen=3)
        assert win.vertices == (
            "S+(1)[-1]", "S+(2)[-1]", "S+(3)[-1]", "S-(1)", "S-(2)", "S-(3)",
        )
        assert win.solid == (
            ("S+(2)[-1]", "S+(1)[-1]"),
            ("S+(3)[-1]", "S+(2)[-1]"),
            ("S-(1)", "S+(2)[-1]"),
            ("S-(2)", "S-(1)"),
            ("S-(2)", "S+(3)[-1]"),
            ("S-(3)", "S-(2)"),
        )
        assert win.dashed == (
            ("S+(1)[-1]", "S-(1)"),
            ("S+(2)[-1]", "S-(2)"),
            ("S+(3)[-1]", "S-(3)"),
        )
        win = ar_window("projective-minus", (-1, 1))
        assert win.vertices == ("P+[-1]", "P-", "P+[1]")
        assert win.solid == (("P-", "P+[-1]"), ("P+[1]", "P-"))
        assert win.dashed == ()

    def test_empty_window_is_empty(self):
        for component in ("string-plus", "projective-minus"):
            win = ar_window(component, (3, 2))
            assert win.vertices == ()
            assert win.solid == ()
            assert win.dashed == ()

    def test_string_components_require_maxlen(self):
        with pytest.raises(NodalError, match="maxlen"):
            ar_window("string-plus", (0, 1))
        with pytest.raises(NodalError, match="maxlen"):
            ar_window("string-minus", (0, 0), maxlen=0)

    @pytest.mark.parametrize(
        "args, precondition",
        [
            (("string-plus", (0, 1), "2"), "maxlen is an int"),
            (("string-minus", (0, 1), True), "maxlen is an int"),
            (("string-minus", (0, 1), 2.0), "maxlen is an int"),
            (("projective-plus", (0.5, 2)), "window is a (lo, hi) pair of ints"),
            (("projective-plus", (0, "2")), "window is a (lo, hi) pair of ints"),
            (("projective-plus", (1,)), "window is a (lo, hi) pair of ints"),
            (("string-plus", None, 2), "window is a (lo, hi) pair of ints"),
            (("projective-minus", (0, True)), "window is a (lo, hi) pair of ints"),
        ],
    )
    def test_malformed_arguments(self, args, precondition):
        with pytest.raises(NodalError) as info:
            ar_window(*args)
        assert info.value.precondition == precondition

    def test_unknown_component(self):
        with pytest.raises(NodalError, match="unknown component"):
            ar_window("strings", (0, 1), maxlen=1)

    def test_translation_squares_to_double_shift(self):
        start = NodalString(PLUS, 1, 0)
        once = ar_translate(start)
        assert once == NodalString(MINUS, 1, 1)
        assert ar_translate(once) == NodalString(PLUS, 1, 2)

    def test_translation_matches_dashed_arrows(self):
        win = ar_window("string-minus", (0, 1), maxlen=3)
        for src, tgt in win.dashed:
            (obj,) = parse_object(src)
            assert format_object(ar_translate(obj)) == tgt

    def test_translation_rejects_projectives(self):
        with pytest.raises(NodalError, match="strings only"):
            ar_translate(NodalProjective(PLUS))

    def test_serre_duality(self):
        """The Serre functor of a Hom-finite triangulated category is τ[1]
        (Reiten–Van den Bergh, JAMS 2002): Hom(X, Y) and Hom(Y, τX[1]) have
        the same dimension for every string X and every object Y.  No other
        shift τ[k] with k in -3..3 passes, so the test tells them apart."""
        objs = window_objects(shift_bound=4, max_length=5)
        strings = [x for x in objs if isinstance(x, NodalString)]
        assert len(strings) * len(objs) == 9720

        def mismatches(k):
            return (
                (x, y) for x in strings for y in objs
                if hom_dim(x, y) != hom_dim(y, ar_translate(x).shifted(k))
            )

        assert list(mismatches(1)) == []
        for k in range(-3, 4):
            if k != 1:
                assert next(mismatches(k), None) is not None, k


class TestObjectNotation:
    @pytest.mark.parametrize(
        "text",
        ["P+", "P-[3]", "S+(2)[-1]", "S-(10)", "P2[1]", "S(4)[2]"],
    )
    def test_round_trip(self, text):
        (obj,) = parse_object(text)
        assert format_object(obj) == text

    def test_zero_and_zero_summands(self):
        assert parse_object("0") == []
        assert parse_object("P*") == []
        assert parse_object("P*[3]") == []
        assert parse_object("P1") == []
        assert format_object([]) == "0"

    def test_sums_and_spaces(self):
        objs = parse_object("P+ , S-(2)[1]")
        assert objs == [NodalProjective(PLUS), NodalString(MINUS, 2, 1)]
        assert format_object(objs) == "P+, S-(2)[1]"
        assert parse_object("S+( 2 )[ -1 ]") == [NodalString(PLUS, 2, -1)]

    @pytest.mark.parametrize("bad", ["P", "S+", "S+()", "Q-(2)", "S+(2)[x]", ""])
    def test_rejects_malformed_objects(self, bad):
        with pytest.raises(NodalError):
            parse_object(bad)

    def test_sign_helpers(self):
        assert flip(PLUS) == MINUS and flip(MINUS) == PLUS
        assert delta(0, PLUS) == PLUS
        assert delta(1, PLUS) == MINUS
        assert delta(-3, MINUS) == PLUS
        assert delta(2, MINUS) == MINUS
        with pytest.raises(NodalError, match="invalid sign"):
            delta(0, "x")
        with pytest.raises(NodalError, match="shift must be an integer") as info:
            delta("1", PLUS)
        assert info.value.precondition == "shift is an int"

    @pytest.mark.parametrize("bad", [None, 3, ["P+"]])
    def test_notation_is_a_string(self, bad):
        with pytest.raises(NodalError, match="must be a string") as info:
            parse_object(bad)
        assert info.value.precondition == "object notation is a string"
        assert info.value.witness == {"object": repr(bad)}
