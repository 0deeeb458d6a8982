"""Malformed input to any entry point raises a SingcatError.

Each text entry point is fed random text, token soups close to its grammar
and, for JSON, arbitrary values in and around the expected fields.  Library
functions that take objects are fed values of the wrong type mixed with
valid ones.  Whatever comes back must be a result or a SingcatError, never a
raw Python exception.
"""

from __future__ import annotations

import ast
import inspect
import json
import re
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import singcat
import test_records
from singcat.dg_auslander import (
    DGAError,
    GradedQuiver,
    dg_auslander,
    differential,
    graded_quiver_to_json,
    k0_rank,
    mesh_image,
    render_sum,
    serialize_graded_quiver,
)
from singcat.gentle import (
    check_gentle,
    compare_invariant,
    critical_cycles,
    gorenstein_projectives,
    radical_embeddings,
    singularity_category,
)
from singcat.nodal import (
    NODAL_PRESENTATION,
    NodalError,
    NodalProjective,
    NodalString,
    StringComplex,
    ZeroProjective,
    ZeroString,
    ar_window,
    complex_d_squared,
    delta,
    hom_dim,
    hom_dim_sum,
    minimal_string_complex,
    parse_object,
)
from singcat.quiver import (
    INT_DIGITS,
    Arrow,
    ParseError,
    Presentation,
    QuiverError,
    SingcatError,
    compose,
    parse_presentation,
    path_in_ideal,
    presentation_from_json,
    presentation_to_json,
    serialize_presentation,
)
from singcat.surface import (
    DualGraph,
    SurfaceError,
    ade_recognize,
    all_minus_two,
    canonical_syzygy_multiplicities,
    decompose,
    dual_graph_to_json,
    fundamental_cycle,
    is_negative_definite,
    parse_dual_graph,
    projective_injective_vertices,
    serialize_dual_graph,
    special_ranks,
)

FUZZ = settings(max_examples=150, deadline=None)


def soup(tokens):
    return st.lists(st.sampled_from(tokens), max_size=24).map(" ".join)


def accepts_or_refuses(call, *args):
    try:
        call(*args)
    except SingcatError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
names = st.sampled_from(["1", "2", "a", "b", "", "a b", "->"]) | json_values
arrow_records = st.dictionaries(
    st.sampled_from(["label", "source", "target"]), names, max_size=3
)
presentation_json = st.fixed_dictionaries(
    {
        "vertices": st.lists(names, max_size=4) | json_values,
        "arrows": st.lists(arrow_records | json_values, max_size=4) | json_values,
        "relations": st.lists(st.lists(names, max_size=3) | json_values, max_size=4)
        | json_values,
    }
)


@FUZZ
@given(
    st.text(max_size=60)
    | soup(["vertices", "arrow", "relation", "arrows", "1", "2", "a", "b", "ab",
            "a:", ":", "->", ";", "#", "\n"])
)
def test_parse_presentation(text):
    try:
        pres = parse_presentation(text)
    except SingcatError:
        return
    # an accepted text gives the index the validating constructor gives
    assert helpers.presentation_index(pres) == helpers.presentation_index(helpers.rebuilt(pres))


@FUZZ
@given(presentation_json | json_values)
def test_presentation_from_json(data):
    accepts_or_refuses(presentation_from_json, data)


@FUZZ
@given(
    st.text(max_size=60)
    | soup(["vertex", "edge", "1", "2", "3", "x", "-1", "-2", "-3", "0", "7", ";", "#", "\n"])
)
def test_parse_dual_graph(text):
    accepts_or_refuses(parse_dual_graph, text)


@FUZZ
@given(
    st.text(max_size=30)
    | soup(["P+", "P-", "P", "S+(2)", "S-(0)", "S(3)", "P1", "P2", "P*", "[1]",
            "[-1]", "[", "]", "(", ")", ",", "+", "0"])
)
def test_parse_object(text):
    accepts_or_refuses(parse_object, text)


@FUZZ
@given(
    # at most three characters keep a well-formed rank below 100
    st.text(max_size=3)
    | st.builds("{}{}".format, st.sampled_from("ADEX"), st.integers(-2, 30)),
    st.sampled_from(["even", "odd"]) | st.text(max_size=5),
)
def test_dg_auslander(ade, parity):
    accepts_or_refuses(dg_auslander, ade, parity)


# Values of the wrong type, small enough that no accepted one builds a large
# window or graph.
small_values = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
)
wrong_types = st.recursive(
    small_values,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
shifts = st.integers(-3, 3)
block_objects = (
    st.builds(NodalProjective, st.sampled_from("+-"), shifts)
    | st.builds(NodalString, st.sampled_from("+-"), st.integers(1, 4), shifts)
    | st.builds(ZeroProjective, shifts)
    | st.builds(ZeroString, st.integers(1, 4), shifts)
)
vertex_names = st.sampled_from(["a", "b", "c", 1]) | small_values
edge_lists = st.lists(
    st.tuples(vertex_names, vertex_names)
    | st.lists(vertex_names, max_size=3)
    | wrong_types,
    max_size=4,
)


@FUZZ
@given(
    st.sampled_from(["string-plus", "string-minus", "projective-plus",
                     "projective-minus"]) | wrong_types,
    st.tuples(shifts, shifts) | wrong_types,
    st.none() | st.integers(-1, 4) | wrong_types,
)
def test_ar_window(component, window, maxlen):
    accepts_or_refuses(ar_window, component, window, maxlen)


@FUZZ
@given(st.integers() | wrong_types, st.sampled_from("+-") | wrong_types)
def test_delta(n, sign):
    accepts_or_refuses(delta, n, sign)


@FUZZ
@given(block_objects | wrong_types, block_objects | wrong_types)
def test_hom_dim(x, y):
    accepts_or_refuses(hom_dim, x, y)


@FUZZ
@given(st.lists(vertex_names, max_size=5) | wrong_types, edge_lists | wrong_types)
def test_ade_recognize(vertices, edges):
    accepts_or_refuses(ade_recognize, vertices, edges)


@FUZZ
@given(
    st.lists(vertex_names, max_size=5) | wrong_types,
    edge_lists | wrong_types,
    st.dictionaries(vertex_names, st.integers(-5, -1) | small_values, max_size=5)
    | wrong_types,
)
def test_dual_graph(vertices, edges, weights):
    accepts_or_refuses(DualGraph, vertices, edges, weights)


@FUZZ
@given(
    st.lists(vertex_names, max_size=5) | st.lists(wrong_types, max_size=3) | wrong_types,
    edge_lists | wrong_types,
    st.dictionaries(vertex_names, st.integers(-5, 1) | small_values, max_size=5)
    | wrong_types,
)
def test_is_negative_definite(vertices, edges, weights):
    accepts_or_refuses(is_negative_definite, vertices, edges, weights)


# a valid graph now and then, so the accepted path is exercised too
graphs = st.builds(
    lambda n: DualGraph([str(i) for i in range(n)],
                        [(str(i), str(i + 1)) for i in range(n - 1)],
                        {str(i): -2 for i in range(n)}),
    st.integers(1, 4),
) | wrong_types


@FUZZ
@given(
    graphs,
    st.sampled_from([
        fundamental_cycle, special_ranks, canonical_syzygy_multiplicities,
        projective_injective_vertices, all_minus_two, serialize_dual_graph,
        dual_graph_to_json,
    ]),
)
def test_graph_functions(graph, function):
    accepts_or_refuses(function, graph)


@FUZZ
@given(graphs, st.lists(vertex_names, max_size=3) | wrong_types)
def test_decompose(graph, contracted):
    accepts_or_refuses(decompose, graph, contracted)


# a gentle 2-cycle and a fan of three parallel arrows (not gentle) now and then
presentations = st.sampled_from([
    Presentation(["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [("a", "b"), ("b", "a")]),
    Presentation(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")]),
]) | wrong_types
PRESENTATION_FUNCTIONS = [
    check_gentle, critical_cycles, gorenstein_projectives, radical_embeddings,
    singularity_category, serialize_presentation, presentation_to_json,
]


@FUZZ
@given(presentations, st.sampled_from(PRESENTATION_FUNCTIONS))
def test_presentation_functions(pres, function):
    accepts_or_refuses(function, pres)


@FUZZ
@given(presentations, presentations)
def test_compare_invariant(first, second):
    accepts_or_refuses(compare_invariant, first, second)


graded_quivers = st.sampled_from([dg_auslander("A3", "odd"), dg_auslander("D4", "even")])
GRADED_QUIVER_FUNCTIONS = [
    serialize_graded_quiver, graded_quiver_to_json, differential, k0_rank,
]


@FUZZ
@given(graded_quivers | wrong_types, st.sampled_from(GRADED_QUIVER_FUNCTIONS))
def test_graded_quiver_functions(quiver, function):
    accepts_or_refuses(function, quiver)


@FUZZ
@given(
    st.lists(st.just(Arrow("a", "1", "1")) | wrong_types, max_size=2) | wrong_types,
    st.dictionaries(st.sampled_from(["1", "2"]), st.just("1") | wrong_types, max_size=2)
    | wrong_types,
)
def test_graded_quiver(solid, translation):
    accepts_or_refuses(GradedQuiver, "A", 1, "odd", ("1",), solid, (), translation)


@pytest.mark.parametrize(
    "vertices, solid, broken, translation, field",
    [
        (("1",), None, (), {}, "solid"),
        (("1",), [("a", "1", "1")], (), {"1": "1"}, "solid"),
        (("1",), (), (), None, "translation"),
        (("1",), (), (), {"1": []}, "translation"),
        (None, (), (), {}, "vertices"),
        ((1,), (), (), {1: 1}, "vertices"),
        (("1", "1"), (), (), {"1": "1"}, "vertices"),
        (("1",), (), None, {"1": "1"}, "broken"),
        (("1",), (), [("r", "1", "1")], {"1": "1"}, "broken"),
        (("1",), (), (Arrow("r", "1", "2"),), {"1": "1"}, "broken"),
        (("1",), (Arrow(1, "1", "1"),), (), {"1": "1"}, "solid"),
        (("1",), (Arrow("a", "1", "2"),), (), {"1": "1"}, "solid"),
        (("1", "2"), (), (), {"1": "2"}, "translation"),
        (("1",), (), (), {"1": "2"}, "translation"),
        (("1", "2"), (), (), {"1": "1", "2": "1"}, "translation"),
        # solid is checked before translation
        (("1",), None, (), None, "solid"),
    ],
)
def test_graded_quiver_names_the_wrong_field(vertices, solid, broken, translation, field):
    with pytest.raises(DGAError) as info:
        GradedQuiver("A", 1, "odd", vertices, solid, broken, translation)
    assert info.value.witness == {"field": field}
    assert info.value.precondition.startswith(f"{field} is ")


@FUZZ
@given(graded_quivers | wrong_types, vertex_names)
def test_mesh_image(quiver, vertex):
    accepts_or_refuses(mesh_image, quiver, vertex)


# the nodal quiver's paths, its presentation and a complex now and then
paths = st.sampled_from([
    NODAL_PRESENTATION.path(["α"]),
    NODAL_PRESENTATION.path(["α", "β"]),
    NODAL_PRESENTATION.lazy_path("*"),
]) | wrong_types
labels = st.lists(st.sampled_from(["α", "β", "γ", "δ", "x"]) | wrong_types, max_size=3)


@FUZZ
@given(paths, paths)
def test_compose(p, q):
    accepts_or_refuses(compose, p, q)


@FUZZ
@given(paths, st.just(NODAL_PRESENTATION) | presentations)
def test_path_in_ideal(path, pres):
    accepts_or_refuses(path_in_ideal, path, pres)


@FUZZ
@given(labels | wrong_types)
def test_presentation_path(labels):
    accepts_or_refuses(NODAL_PRESENTATION.path, labels)


@FUZZ
@given(
    st.just(minimal_string_complex("+", 2))
    | st.tuples(wrong_types, st.lists(paths, max_size=3) | wrong_types).map(
        lambda fields: partial(StringComplex, *fields)
    )
    | wrong_types
)
def test_complex_d_squared(cx):
    # a complex over fuzzed fields is built in the test, where its refusal counts
    accepts_or_refuses(lambda: complex_d_squared(cx() if isinstance(cx, partial) else cx))


@FUZZ
@given(
    st.lists(st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]))
             | wrong_types, max_size=3)
    | wrong_types
)
def test_render_sum(terms):
    accepts_or_refuses(render_sum, terms)


@pytest.mark.parametrize(
    "function, error, precondition",
    [(f, QuiverError, "presentation is a Presentation") for f in PRESENTATION_FUNCTIONS]
    + [(f, DGAError, "quiver is a GradedQuiver") for f in GRADED_QUIVER_FUNCTIONS]
    + [
        (parse_presentation, QuiverError, "text is a str"),
        (parse_dual_graph, SurfaceError, "text is a str"),
        (NODAL_PRESENTATION.path, QuiverError, "labels is a sequence of arrow labels"),
        (complex_d_squared, NodalError, "complex is a StringComplex"),
        (render_sum, DGAError, "terms is an iterable of (str, str) pairs"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_wrong_type_names_the_precondition(function, error, precondition):
    with pytest.raises(error) as info:
        function(None)
    assert info.value.precondition == precondition


@pytest.mark.parametrize(
    "function, args, error, precondition",
    [
        (compose, (None, None), QuiverError, "first factor is a Path"),
        (compose, (NODAL_PRESENTATION.path(["α"]), None), QuiverError,
         "second factor is a Path"),
        (path_in_ideal, (None, None), QuiverError, "path is a Path"),
        (path_in_ideal, (NODAL_PRESENTATION.path(["α"]), None), QuiverError,
         "presentation is a Presentation"),
        (render_sum, (5,), DGAError, "terms is an iterable of (str, str) pairs"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_each_argument_names_its_precondition(function, args, error, precondition):
    with pytest.raises(error) as info:
        function(*args)
    assert info.value.precondition == precondition


def test_unhashable_label_gets_a_json_witness():
    with pytest.raises(QuiverError) as info:
        NODAL_PRESENTATION.path([{"α"}])
    assert json.loads(json.dumps(info.value.diagnostic()))["witness"] == {"arrow": "{'α'}"}


summands = st.lists(block_objects | wrong_types, max_size=3)


@FUZZ
@given(summands | block_objects | wrong_types, summands | block_objects | wrong_types)
def test_hom_dim_sum(xs, ys):
    accepts_or_refuses(hom_dim_sum, xs, ys)


# More digits than Python converts to int by default (4,300).
NINES = "9" * 5000


@pytest.mark.parametrize(
    "text, line",
    [(f"vertex 0 -{NINES};", 1), (f"vertex 0 -2;\nvertex 1 {NINES}; edge 0 1;", 2)],
)
def test_dual_graph_weight_beyond_the_digit_limit(text, line):
    with pytest.raises(ParseError) as info:
        parse_dual_graph(text)
    assert info.value.precondition == INT_DIGITS
    assert (info.value.line, info.value.column) == (line, 1)


def read_dual_graph(text):
    """What ``parse_dual_graph`` gives, in the oracle's terms: the graph's
    lists, a parse error as (message, line, column, precondition), or the
    diagnostic of a graph the text spells but ``DualGraph`` refuses."""
    try:
        graph = parse_dual_graph(text)
    except ParseError as exc:
        suffix = f" (line {exc.line}, column {exc.column})"
        assert exc.message.endswith(suffix)
        assert exc.witness == {"line": exc.line, "column": exc.column}
        return exc.message[: -len(suffix)], exc.line, exc.column, exc.precondition
    except SurfaceError as exc:
        return exc.diagnostic()
    return list(graph.vertices), list(graph.edges), graph.weights


def oracle_read_dual_graph(text):
    expected = helpers.oracle_parse_dual_graph(text)
    if len(expected) == 3:  # the text spells a graph; the refusal oracle judges it
        refusal = helpers.oracle_graph_refusal(*expected)
        if refusal:
            return dict(zip(("message", "precondition", "witness"), refusal))
    return expected


# Statements, pieces of them and layout: line breaks of several kinds,
# whitespace that ends no line (\x1f, a no-break space, also inside a name),
# blank statements, comments, non-ASCII digits and a weight past the digit
# limit.
GRAPH_FRAGMENTS = [
    "vertex 1 -2;", "vertex 2 -3;", "vertex 3 -2;", "edge 1 2;", "edge 2 3;",
    "vertex 1 -2", "edge 1 2", "vertex", "edge", "1", "2", "a\xa0b", "-2", "-3",
    "-٢", "٣", "+2", "-", f"-{NINES}", ";", ";;", " ", "\t", "\x1f", "\xa0",
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "#", "# c\n", "x",
]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(GRAPH_FRAGMENTS), max_size=14).map("".join))
def test_parse_dual_graph_agrees_with_oracle(text):
    assert read_dual_graph(text) == oracle_read_dual_graph(text)


# (text, message, line, column); the precondition is "well-formed dual
# graph text" unless the message is about digits
PINNED_GRAPH_ERRORS = [
    ("vertex 1 -2; vertex 2 -5;\nedge 1 2; edge 2 3 4;",
     "cannot parse statement 'edge 2 3 4'; expected 'vertex <id> <weight>' or "
     "'edge <id> <id>'", 2, 11),
    ("vertex 1 -2; vertex 1 -3;", "duplicate vertex '1'", 1, 14),
    # the unterminated last statement is read, and refused, first
    ("vertex 1 -2;\nvertex 2 -2; vertex 1 -3", "duplicate vertex '1'", 2, 14),
    ("vertex 1 -2; edge 1",
     "cannot parse statement 'edge 1'; expected 'vertex <id> <weight>' or "
     "'edge <id> <id>'", 1, 14),
    ("vertex 1 -2", "statement is not terminated by ';'", 1, 11),
    # the column of an unterminated statement is the length of its line
    ("vertex 1 -2 # first curve", "statement is not terminated by ';'", 1, 25),
    ("vertex 1 -2;\r\nvertex 2 -2\r\nedge 1 2;",
     "statement is not terminated by ';'", 2, 11),
    ("vertex 1 -2;\x85  curve 1;",
     "cannot parse statement 'curve 1'; expected 'vertex <id> <weight>' or "
     "'edge <id> <id>'", 2, 3),
    ("vertex 1 -2;;  ;vertex a\xa0b -2;",
     "cannot parse statement 'vertex a\\xa0b -2'; expected 'vertex <id> <weight>' "
     "or 'edge <id> <id>'", 1, 17),
    ("vertex 1 -2;\x1c x\x1fy;",
     "cannot parse statement 'x\\x1fy'; expected 'vertex <id> <weight>' or "
     "'edge <id> <id>'", 2, 2),
    ("vertex ١ -٢;\u2028vertex ١ -٣;", "duplicate vertex '١'", 2, 1),
    # '\x0c' ends a line of its own, and the '\n' after it another
    ("# only a comment\n\x0c\nvertex 1 +2;",
     "cannot parse statement 'vertex 1 +2'; expected 'vertex <id> <weight>' or "
     "'edge <id> <id>'", 4, 1),
    (f"vertex 0 -2;\n\tvertex 1 -{NINES};",
     "weight of vertex '1' has too many digits", 2, 2),
]


@pytest.mark.parametrize(
    "text, message, line, column", PINNED_GRAPH_ERRORS,
    ids=[repr(case[0])[:32] for case in PINNED_GRAPH_ERRORS],
)
def test_dual_graph_parse_error_is_pinned(text, message, line, column):
    precondition = INT_DIGITS if "digits" in message else "well-formed dual graph text"
    expected = (message, line, column, precondition)
    assert helpers.oracle_parse_dual_graph(text) == expected
    assert read_dual_graph(text) == expected


@pytest.mark.parametrize(
    "text",
    [f"S+({NINES})", f"S-(2)[-{NINES}]", f"P+[{NINES}]", f"P2[{NINES}]",
     f"S({NINES})", f"P-, S({NINES})[1]"],
)
def test_object_integer_beyond_the_digit_limit(text):
    part = text.rpartition(", ")[2]  # the summand that holds the number
    with pytest.raises(NodalError) as info:
        parse_object(text)
    assert info.value.diagnostic() == {
        "message": f"an integer in object {part!r} has too many digits",
        "precondition": INT_DIGITS,
        "witness": {"object": part},
    }


def test_ade_rank_beyond_the_digit_limit():
    with pytest.raises(DGAError) as info:
        dg_auslander(f"A{NINES}", "odd")
    assert info.value.diagnostic() == {
        "message": "the rank of the ADE type has too many digits",
        "precondition": INT_DIGITS,
        "witness": {"type": f"A{NINES}"},
    }


def test_no_string_in_the_source_ends_in_a_bare_dollar():
    """``$`` also matches before a final newline, so a pattern ending in it
    reads text such as "A3\\n" that its diagnostics call malformed: whole
    words are matched with ``fullmatch``.  Patterns are built from pieces,
    so every string literal of ``src/singcat`` is checked, not only those
    passed to ``re``."""
    bare = re.compile(r"(?<!\\)(?:\\\\)*\$\Z")  # '$' after an even run of backslashes
    found = []
    for path in sorted(Path(singcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if bare.search(node.value):
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


# Every public callable of the library, and every public method of one valid
# instance of each public class, refuses a wrong-type argument with a
# SingcatError.  Public means a name without a leading underscore, defined in
# its own module; nothing else is listed, so a new name is checked the day it
# lands.
LIBRARY = [singcat.quiver, singcat.gentle, singcat.nodal, singcat.surface,
           singcat.dg_auslander]
WRONG = [None, 5, True, "x", [], {}, 2.5, (None,), object()]
INSTANCES = [obj for obj, _ in test_records.SAMPLES] + [
    NODAL_PRESENTATION,
    DualGraph(["1", "2"], [("1", "2")], {"1": -2, "2": -3}),
]
# one valid instance of each public class, by name; also the argument for a
# parameter annotated with that class
VALID = {type(obj).__name__: obj for obj in INSTANCES}


def public_callables():
    """(qualified name, callable) for each public function, class and method."""
    for module in LIBRARY:
        for name, value in vars(module).items():
            if (
                name.startswith("_")
                or not callable(value)
                or getattr(value, "__module__", None) != module.__name__
            ):
                continue
            if isinstance(value, type):
                if issubclass(value, BaseException):
                    continue
                instance = VALID[name]  # a new public class needs one in INSTANCES
                for attr in dir(instance):
                    method = getattr(instance, attr)
                    if not attr.startswith("_") and inspect.ismethod(method):
                        yield f"{module.__name__}.{name}.{attr}", method
            yield f"{module.__name__}.{name}", value


PUBLIC = dict(public_callables())


@pytest.mark.parametrize("name", PUBLIC)
def test_public_callable_refuses_wrong_types(name):
    function = PUBLIC[name]
    slots = [
        p for p in inspect.signature(function).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) and p.default is p.empty
    ]
    leaks = []
    for i in range(len(slots)):
        for wrong in WRONG:
            args = [wrong if j == i else VALID.get(p.annotation, wrong)
                    for j, p in enumerate(slots)]
            try:
                function(*args)
            except SingcatError:
                pass
            except Exception as exc:  # any other escape is a leak
                leaks.append(f"{name}{tuple(args)!r}: {type(exc).__name__}: {exc}")
    assert not leaks, "\n".join(leaks)
