"""Result types are frozen value classes built by ``quiver._record``.

Their reprs, equality, hashing, construction and immutability match the
frozen dataclasses they replace, and importing singcat loads none of
``dataclasses``, ``fractions``, ``random`` and ``typing``.
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

import singcat
from singcat.dg_auslander import DGAError, GradedQuiver, dg_auslander, serialize_graded_quiver
from singcat.gentle import (
    CriticalCycle,
    GentleReport,
    GentleViolation,
    GPClassification,
    InvariantComparison,
    SingularityDecomposition,
    StringModule,
)
from singcat.nodal import (
    ARWindow,
    K0Class,
    NodalError,
    NodalProjective,
    NodalString,
    StringComplex,
    ZeroProjective,
    ZeroString,
)
from singcat.quiver import Arrow, FrozenRecordError, Path, QuiverError, _record, replace
from singcat.surface import ADEType, Decomposition, ProjectiveInjectives, SurfaceError


def samples():
    """(instance, pinned repr): one of each of the 20 result types."""
    cycle = CriticalCycle(("a", "b"))
    return [
        (Arrow("a", "1", "2"), "Arrow(label='a', source='1', target='2')"),
        (Path(("a", "b"), "1", "3"), "Path(arrows=('a', 'b'), source='1', target='3')"),
        (
            GentleViolation("G1", "1", "multiple arrows"),
            "GentleViolation(condition='G1', location='1', detail='multiple arrows')",
        ),
        (
            GentleReport(False, (GentleViolation("G3", "a", "x"),)),
            "GentleReport(is_gentle=False, violations=(GentleViolation("
            "condition='G3', location='a', detail='x'),))",
        ),
        (cycle, "CriticalCycle(arrows=('a', 'b'))"),
        (StringModule("1", ("a",)), "StringModule(top='1', arrows=('a',))"),
        (
            GPClassification(("1", "2"), {(cycle, "b"): StringModule("2", ())}),
            "GPClassification(projectives=('1', '2'), radicals={(CriticalCycle("
            "arrows=('a', 'b')), 'b'): StringModule(top='2', arrows=())})",
        ),
        (
            SingularityDecomposition((2,), (cycle,)),
            "SingularityDecomposition(factors=(2,), cycle_of_factor=(CriticalCycle("
            "arrows=('a', 'b')),))",
        ),
        (
            InvariantComparison(False, (3,), ()),
            "InvariantComparison(compatible=False, only_first=(3,), only_second=())",
        ),
        (NodalProjective("+", 1), "NodalProjective(sign='+', shift=1)"),
        (NodalString("-", 2, -1), "NodalString(sign='-', length=2, shift=-1)"),
        (ZeroProjective(), "ZeroProjective(shift=0)"),
        (ZeroString(3, 2), "ZeroString(length=3, shift=2)"),
        (K0Class(1, 0), "K0Class(plus=1, minus=0)"),
        (
            StringComplex(("P+", "P*"), (Path(("δ",), "*", "+"),)),
            "StringComplex(terms=('P+', 'P*'), differentials=(Path(arrows=('δ',), "
            "source='*', target='+'),))",
        ),
        (
            ARWindow("projective-plus", ("P+",), (), ()),
            "ARWindow(component='projective-plus', vertices=('P+',), solid=(), dashed=())",
        ),
        (
            ProjectiveInjectives(("2",)),
            "ProjectiveInjectives(vertices=('2',), includes_free_module=True)",
        ),
        (ADEType("A", 1), "ADEType(family='A', rank=1)"),
        (
            Decomposition((ADEType("A", 1),), (("1",),)),
            "Decomposition(blocks=(ADEType(family='A', rank=1),), component_vertices=(('1',),))",
        ),
        (
            GradedQuiver("A", 1, "odd", ("1",), (), (Arrow("ρ_1", "1", "1"),), {"1": "1"}),
            "GradedQuiver(family='A', rank=1, parity='odd', vertices=('1',), solid=(), "
            "broken=(Arrow(label='ρ_1', source='1', target='1'),), translation={'1': '1'})",
        ),
    ]


SAMPLES = samples()
IDS = [type(obj).__name__ for obj, _ in SAMPLES]
# a dict field makes an instance unhashable, as it made the dataclass
UNHASHABLE = (GPClassification, GradedQuiver)


def twin(obj):
    """An equal instance built afresh from the same field values."""
    return type(obj)(*(getattr(obj, f) for f in obj._fields))


def test_twenty_types():
    assert len({type(obj) for obj, _ in SAMPLES}) == 20


@pytest.mark.parametrize("obj, shown", SAMPLES, ids=IDS)
def test_repr_is_pinned(obj, shown):
    assert repr(obj) == shown


@pytest.mark.parametrize("obj, shown", SAMPLES, ids=IDS)
def test_equal_objects_hash_equally(obj, shown):
    other = twin(obj)
    assert other is not obj
    assert other == obj and not other != obj
    if isinstance(obj, UNHASHABLE):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert hash(other) == hash(obj)
        assert hash(obj) == hash(tuple(getattr(obj, f) for f in obj._fields))


def assert_frozen(obj):
    for name in obj._fields + ("extra",):
        with pytest.raises(FrozenRecordError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(FrozenRecordError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)


@pytest.mark.parametrize("obj, shown", SAMPLES, ids=IDS)
def test_fields_are_frozen(obj, shown):
    assert_frozen(obj)
    assert repr(obj) == shown


# what ``__post_init__`` derives from the fields and keeps on the instance
DERIVED = {
    CriticalCycle: ("display", "name"),
    NodalProjective: ("_twist",),
    NodalString: ("_twist",),
    GradedQuiver: ("_solid_from", "_solid_between", "_untranslate", "_differential"),
}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("obj, shown", SAMPLES, ids=IDS)
def test_copies_are_equal(obj, shown):
    assert copy.copy(obj) == obj
    assert copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("obj, shown", SAMPLES, ids=IDS)
def test_copies_keep_derived_state_and_stay_frozen(obj, shown, how):
    other = COPIES[how](obj)
    assert type(other) is type(obj) and repr(other) == shown
    for name in DERIVED.get(type(obj), ()):
        assert getattr(other, name) == getattr(obj, name)
    assert_frozen(other)


@pytest.mark.parametrize("obj, shown", SAMPLES, ids=IDS)
def test_fields_live_in_slots(obj, shown):
    cls = type(obj)
    assert cls.__slots__[: len(cls._fields)] == cls._fields
    if cls.__slots__ == cls._fields:  # no __post_init__, no instance dict
        with pytest.raises(TypeError):
            vars(obj)
    else:  # the instance dict holds the derived state only
        assert set(vars(obj)) == set(DERIVED.get(cls, ()))


@pytest.mark.parametrize("how", COPIES)
def test_a_copied_quiver_is_indexed_anew(how):
    arrow = Arrow("a", "1", "2")
    quiver = GradedQuiver("A", 1, "odd", ("1", "2"), (arrow,), (), {"1": "2", "2": "1"})
    other = COPIES[how](quiver)
    assert other._solid_from == {"1": [arrow]}
    assert other._solid_between == {("1", "2"): [arrow]}
    assert other._untranslate == {"2": "1", "1": "2"}
    assert other._untranslate is not quiver._untranslate


def test_class_mismatch_is_unequal():
    @_record(QuiverError)
    class Triple:
        label: str
        source: str
        target: str

    arrow = Arrow("a", "1", "2")
    assert Triple("a", "1", "2") != arrow and arrow != Triple("a", "1", "2")
    assert arrow.__eq__(Triple("a", "1", "2")) is NotImplemented
    assert arrow != ("a", "1", "2")
    assert ZeroProjective(0) != NodalProjective("+", 0)
    assert ZeroString(2, 1) != NodalString("+", 2, 1)


def test_differing_fields_are_unequal():
    assert NodalString("+", 2, 1) != NodalString("+", 2, 0)
    assert Arrow("a", "1", "2") != Arrow("a", "2", "1")


def test_keyword_and_default_construction():
    assert NodalString(sign="+", length=2) == NodalString("+", 2, 0)
    assert NodalString(length=2, shift=3, sign="-") == NodalString("-", 2, 3)
    assert NodalProjective("+").shift == 0
    assert ZeroProjective() == ZeroProjective(shift=0)
    assert ProjectiveInjectives(("1",)).includes_free_module is True
    assert ProjectiveInjectives(vertices=(), includes_free_module=False).vertices == ()
    with pytest.raises(TypeError, match="length"):
        NodalString("+")
    with pytest.raises(TypeError, match="colour"):
        Arrow("a", "1", "2", colour="red")


def test_field_order_and_pattern_matching():
    assert NodalString._fields == ("sign", "length", "shift")
    match NodalString("-", 4, 2):
        case NodalString(sign, length, shift=shift):
            assert (sign, length, shift) == ("-", 4, 2)
        case _:
            pytest.fail("positional pattern did not match")


def test_construction_validates():
    with pytest.raises(NodalError, match="invalid sign"):
        NodalString("*", 2)
    with pytest.raises(NodalError, match="length"):
        NodalString(sign="+", length=0)


def test_shifted_validates_its_argument():
    s = NodalString("+", 2, 1)
    assert s.shifted(3) == NodalString("+", 2, 4)
    assert ZeroProjective().shifted(-2) == ZeroProjective(-2)
    for k in ("1", 1.0, True, None):
        with pytest.raises(NodalError, match="shift must be an integer"):
            s.shifted(k)


def test_replace_rebuilds_and_checks():
    s = NodalString("+", 2, 1)
    assert replace(s, length=5) == NodalString("+", 5, 1)
    assert replace(s) == s and replace(s) is not s
    with pytest.raises(NodalError, match="length"):
        replace(s, length=0)
    with pytest.raises(QuiverError, match="NodalString has no field 'colour'") as info:
        replace(s, colour="red")
    assert info.value.precondition == "changes name fields of the record"
    assert info.value.witness == {"field": "colour"}


# "arrows is not a sequence of str", as QuiverError: the record's reading
# of a value that does not iterate, and Path's of a label that is not a str
NOT_LABELS = {
    "message": "arrows is not a sequence of str",
    "precondition": "arrows is a sequence of str",
    "witness": {"field": "arrows"},
}


@pytest.mark.parametrize(
    "arrows, source, target, diagnostic",
    [
        (None, "1", "1", NOT_LABELS),
        (5, "1", "1", NOT_LABELS),
        (("a", 5), "1", "2", NOT_LABELS),
        (["a", None], "1", "2", NOT_LABELS),
        (("a",), 5, "2", {
            "message": "expected a str, got int",
            "precondition": "source is a str",
            "witness": {"source": "5"},
        }),
        (("a",), "1", None, {
            "message": "expected a str, got NoneType",
            "precondition": "target is a str",
            "witness": {"target": "None"},
        }),
    ],
)
def test_path_checks_its_fields(arrows, source, target, diagnostic):
    for build in (
        lambda: Path(arrows, source, target),
        lambda: Path(arrows=arrows, source=source, target=target),
    ):
        with pytest.raises(QuiverError) as info:
            build()
        assert info.value.diagnostic() == diagnostic


def test_a_path_takes_any_sequence_of_labels():
    path = Path(("a", "b"), "1", "3")
    for arrows in (["a", "b"], iter(["a", "b"])):
        built = Path(arrows, "1", "3")
        assert built == path and hash(built) == hash(path)
        assert type(built.arrows) is tuple


def test_graded_quiver_keeps_what_an_iterator_gives():
    built = dg_auslander("A3", "odd")
    fields = [built.family, built.rank, built.parity, built.vertices, built.solid, built.broken]
    once = GradedQuiver(*fields[:3], *map(iter, fields[3:]), built.translation)
    assert (once.vertices, once.solid, once.broken) == tuple(fields[3:])
    assert once == built and repr(once) == repr(built)
    assert serialize_graded_quiver(once) == serialize_graded_quiver(built)


def sequence_fields():
    """(record, field) for each field of a sample record that is annotated
    ``tuple[X, ...]``, read from the annotations as ``_record`` reads them."""
    found = []
    for obj, _ in SAMPLES:
        hints = type(obj).__annotations__
        found += [(obj, f) for f in obj._fields if str(hints[f]).startswith("tuple[")]
    return found


TUPLE_FIELDS = sequence_fields()
TUPLE_IDS = [f"{type(obj).__name__}.{field}" for obj, field in TUPLE_FIELDS]
# the error of each record's module; quiver and gentle records refuse as QuiverError
ERRORS = {
    StringComplex: NodalError, ARWindow: NodalError, ProjectiveInjectives: SurfaceError,
    Decomposition: SurfaceError, GradedQuiver: DGAError,
}


def test_the_sequence_fields_are_found():
    # among them the fields of the records that once kept a list as given
    assert {(type(obj), f) for obj, f in TUPLE_FIELDS} >= {
        (Path, "arrows"), (CriticalCycle, "arrows"), (GPClassification, "projectives"),
        (StringComplex, "terms"),
        (StringComplex, "differentials"), (ARWindow, "vertices"), (ARWindow, "solid"),
        (ARWindow, "dashed"), (ProjectiveInjectives, "vertices"),
        (Decomposition, "blocks"), (Decomposition, "component_vertices"),
        (GradedQuiver, "vertices"), (GradedQuiver, "solid"), (GradedQuiver, "broken"),
    }


@pytest.mark.parametrize("given", [list, iter])
@pytest.mark.parametrize("obj, field", TUPLE_FIELDS, ids=TUPLE_IDS)
def test_a_sequence_field_is_kept_as_a_tuple(obj, field, given):
    value = getattr(obj, field)
    built = replace(obj, **{field: given(value)})
    assert type(getattr(built, field)) is tuple and getattr(built, field) == value
    assert built == obj and repr(built) == repr(obj)
    if not isinstance(obj, UNHASHABLE):
        assert hash(built) == hash(obj)


# a value that does not iterate, and a str, which would be split into
# one-letter items
@pytest.mark.parametrize("value", [5, "ab"], ids=["int", "str"])
@pytest.mark.parametrize("obj, field", TUPLE_FIELDS, ids=TUPLE_IDS)
def test_a_sequence_field_refuses_what_is_not_a_sequence(obj, field, value):
    shape = str(type(obj).__annotations__[field])[len("tuple["):-len(", ...]")]
    with pytest.raises(ERRORS.get(type(obj), QuiverError)) as info:
        replace(obj, **{field: value})
    assert info.value.diagnostic() == {
        "message": f"{field} is not a sequence of {shape}",
        "precondition": f"{field} is a sequence of {shape}",
        "witness": {"field": field},
    }


def test_post_init_state_is_kept():
    quiver = GradedQuiver("A", 1, "odd", ("1",), (), (), {"1": "1"})
    assert quiver._untranslate == {"1": "1"}
    assert quiver.solid_from("1") == []


SOURCE = str(FilePath(singcat.__file__).resolve().parent.parent)
T13 = str(FilePath(__file__).resolve().parent.parent / "corpus" / "t13.graph")


def loaded(statement: str) -> set[str]:
    """Module names in ``sys.modules`` after ``statement``, in a new
    interpreter started with ``-S``: no site module runs, so a module that a
    site ``.pth`` file preloads cannot hide an import of singcat's."""
    code = f"import sys\nsys.path.insert(0, {SOURCE!r})\n{statement}\n"
    code += "print(*sys.modules, sep='\\n')"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


# requests, help and a usage error, read and answered in memory
CLI_RUNS = f"""
import contextlib, io
argvs = (["nodal", "hom", "P+", "P-"], ["surface", "fundamental", {T13!r}], ["-h"], ["bogus"])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [singcat.cli.run(argv) for argv in argvs]
assert codes == [0, 0, 0, 2], codes
"""


@pytest.mark.parametrize("target", ["singcat.cli", "singcat"])
def test_import_skips_heavy_modules(target):
    """``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
    ``tokenize``) and ``fractions`` (with ``decimal``) cost milliseconds on
    every start, and no command needs them up front; the command line is
    read, and its help and usage errors written, without ``argparse`` and
    ``gettext``; ``random`` is needed only for a seeded fundamental cycle;
    annotations are never evaluated, so nothing needs ``typing``."""
    statement = f"import {target}" + (CLI_RUNS if target == "singcat.cli" else "")
    added = loaded(statement) - loaded("pass")
    assert target in added
    heavy = {"dataclasses", "inspect", "fractions", "argparse", "gettext", "random", "typing"}
    assert not heavy & added


def test_a_seed_loads_random():
    # the check above can see ``random``: a seeded request loads it
    statement = (
        "import singcat.surface as s\n"
        f"s.fundamental_cycle(s.parse_dual_graph(open({T13!r}).read()), seed=1)"
    )
    assert "random" in loaded(statement) - loaded("pass")
