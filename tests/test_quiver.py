"""Parsing, serialization and the path calculus of quiver presentations."""

from __future__ import annotations

import random
import re
from functools import partial
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from singcat.quiver import (
    Arrow,
    ParseError,
    Path,
    Presentation,
    QuiverError,
    compose,
    parse_presentation,
    path_in_ideal,
    presentation_from_json,
    presentation_to_json,
    serialize_presentation,
)

CANONICAL_TEXT = """\
vertices 1 2 3 4 5 6 7 8;
arrow a: 1 -> 2;
arrow b: 2 -> 3;
arrow c: 3 -> 4;
arrow d: 5 -> 1;
arrow e: 6 -> 2;
arrow f: 2 -> 7;
arrow g: 4 -> 7;
arrow h: 8 -> 4;
arrow j: 7 -> 6;
arrow k: 7 -> 8;
arrow i: 6 -> 5;
relation ba;
relation fe;
relation jf;
relation ej;
relation kg;
relation hk;
relation gh;
"""


@st.composite
def presentations(draw):
    n_vertices = draw(st.integers(min_value=1, max_value=5))
    vertices = [f"v{i}" for i in range(n_vertices)]
    n_arrows = draw(st.integers(min_value=0, max_value=6))
    arrows = []
    for i in range(n_arrows):
        src = draw(st.sampled_from(vertices))
        tgt = draw(st.sampled_from(vertices))
        arrows.append(Arrow(f"x{i}", src, tgt))
    composable = [
        (a.label, b.label) for a in arrows for b in arrows if a.target == b.source
    ]
    relations = []
    if composable:
        relations = draw(
            st.lists(st.sampled_from(composable), unique=True, max_size=4)
        )
    return Presentation(vertices, arrows, relations)


class TestTextFormat:
    def test_canonical_text_round_trips_bit_exact(self):
        pres = parse_presentation(CANONICAL_TEXT)
        assert serialize_presentation(pres) == CANONICAL_TEXT

    def test_parse_matches_programmatic_fixture(self):
        assert parse_presentation(CANONICAL_TEXT) == helpers.illustrative()

    def test_relation_storage_is_application_order(self):
        pres = parse_presentation(CANONICAL_TEXT)
        # displayed "ba" means apply a first, then b
        assert ("a", "b") in pres.relation_set
        assert ("b", "a") not in pres.relation_set

    def test_spaced_relation_form_is_equivalent(self):
        juxtaposed = "vertices 1 2 3; arrow a: 1 -> 2; arrow b: 2 -> 3; relation ba;"
        spaced = "vertices 1 2 3; arrow a: 1 -> 2; arrow b: 2 -> 3; relation b a;"
        assert parse_presentation(juxtaposed) == parse_presentation(spaced)

    def test_arrow_label_colon_may_be_detached(self):
        attached = "vertices 1 2; arrow a: 1 -> 2;"
        detached = "vertices 1 2; arrow a : 1 -> 2;"
        assert parse_presentation(attached) == parse_presentation(detached)

    def test_comments_and_layout_are_ignored(self):
        text = """
        # a comment line
        vertices 1
                 2;   # trailing comment
        arrow a: 1 -> 2;
        """
        pres = parse_presentation(text)
        assert pres.vertices == ("1", "2")
        assert pres.arrows == (Arrow("a", "1", "2"),)

    def test_one_point_quiver_with_bare_section_headers(self):
        pres = parse_presentation("vertices 1; arrows; relations;")
        assert pres.vertices == ("1",)
        assert pres.arrows == ()
        assert pres.relations == ()
        assert serialize_presentation(pres) == "vertices 1;\n"

    def test_multicharacter_labels_serialize_spaced_when_ambiguous(self):
        pres = Presentation(
            ["1"],
            [("a", "1", "1"), ("aa", "1", "1"), ("aaa", "1", "1")],
            [("aa", "a")],
        )
        text = serialize_presentation(pres)
        # "aaa" by itself names an arrow, so the joined form cannot be used
        assert "relation a aa;" in text
        assert parse_presentation(text) == pres

    @settings(max_examples=120, deadline=None)
    @given(presentations())
    def test_serialize_parse_identity(self, pres):
        parsed = parse_presentation(serialize_presentation(pres))
        assert parsed == pres
        assert helpers.presentation_index(parsed) == helpers.presentation_index(pres)

    @settings(max_examples=120, deadline=None)
    @given(presentations())
    def test_json_round_trip(self, pres):
        data = presentation_to_json(pres)
        assert presentation_from_json(data) == pres
        assert data["vertices"] == list(pres.vertices)
        assert all(set(d) == {"label", "source", "target"} for d in data["arrows"])

    def test_json_rejects_malformed_payload(self):
        with pytest.raises(QuiverError, match="malformed"):
            presentation_from_json({"vertices": ["1"]})

    @pytest.mark.parametrize(
        "data, precondition",
        [
            ({"vertices": 1, "arrows": [], "relations": []},
             "vertices is a sequence of vertex names"),
            ({"vertices": None, "arrows": [], "relations": []},
             "vertices is a sequence of vertex names"),
            ({"vertices": [1], "arrows": [], "relations": []},
             "vertex names are strings"),
            ({"vertices": ["1", "2"],
              "arrows": [{"label": 2, "source": "1", "target": "2"}],
              "relations": []},
             "arrow names are strings"),
        ],
    )
    def test_json_with_wrong_field_types_names_the_field(self, data, precondition):
        with pytest.raises(QuiverError) as info:
            presentation_from_json(data)
        assert info.value.precondition == precondition


class TestParseErrors:
    def test_unterminated_statement(self):
        with pytest.raises(ParseError, match="not terminated"):
            parse_presentation("vertices 1;\narrow a: 1 -> 1")

    def test_undeclared_vertex_in_arrow(self):
        with pytest.raises(ParseError, match="undeclared vertex '2'") as info:
            parse_presentation("vertices 1;\narrow a: 1 -> 2;")
        assert info.value.line == 2

    def test_unknown_statement(self):
        with pytest.raises(ParseError, match="unknown statement"):
            parse_presentation("vertices 1; widget;")

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError, match="duplicate vertex"):
            parse_presentation("vertices 1 1;")

    def test_duplicate_arrow_label(self):
        with pytest.raises(ParseError, match="duplicate arrow"):
            parse_presentation("vertices 1; arrow a: 1 -> 1; arrow a: 1 -> 1;")

    def test_relation_over_undeclared_arrow(self):
        with pytest.raises(ParseError, match="does not split"):
            parse_presentation("vertices 1; arrow a: 1 -> 1; relation qa;")

    def test_relation_not_composable(self):
        text = (
            "vertices 1 2; arrow a: 1 -> 2; arrow b: 1 -> 2; relation ba;"
        )
        # displayed "ba" needs target(a) = source(b), but both start at 1
        with pytest.raises(ParseError, match="not composable"):
            parse_presentation(text)

    def test_ambiguous_juxtaposition_requires_spaces(self):
        text = (
            "vertices 1; arrow a: 1 -> 1; arrow aa: 1 -> 1; relation aaa;"
        )
        with pytest.raises(ParseError, match="ambiguous"):
            parse_presentation(text)
        fixed = (
            "vertices 1; arrow a: 1 -> 1; arrow aa: 1 -> 1; relation a aa;"
        )
        pres = parse_presentation(fixed)
        assert pres.relations == (("aa", "a"),)

    def test_error_carries_position_witness(self):
        with pytest.raises(ParseError) as info:
            parse_presentation("vertices 1;\n\nwidget;")
        assert info.value.witness == {"line": 3, "column": 1}


# (text, message without its position, line, column): every diagnostic of
# parse_presentation, placed behind comments, tabs, CRLF and line breaks
# inside statements.
PARSE_ERRORS = [
    ("vertices 1;\narrow a: 1 -> 1",
     "statement is not terminated by ';'", 2, 1),
    ("widget;\nvertices 1 1;\n  arrow a",
     "statement is not terminated by ';'", 3, 3),
    ("vertices 1; # a; b;\n\tarrow",
     "statement is not terminated by ';'", 2, 2),
    ("# header; not a statement\n  vertices ;",
     "'vertices' expects at least one name", 2, 3),
    ("vertices 1\t2\t1;",
     "duplicate vertex '1'", 1, 14),
    ("vertices 1\r\n ->;",
     "'->' is not a valid vertex name", 2, 2),
    ("vertices 1;\narrow a 1 -> 1;",
     "expected 'arrow <label>: <src> -> <tgt>'", 2, 1),
    ("vertices 1; arrow a: 1 1;",
     "expected 'arrow <label>: <src> -> <tgt>'", 1, 13),
    ("vertices 1;\r\narrow a : 1 -> 1 -> 1;",
     "expected 'arrow <label>: <src> -> <tgt>'", 2, 1),
    ("vertices 1; arrow a: 1 -> 1;\narrow a : 1 -> 1;",
     "duplicate arrow label 'a'", 2, 7),
    ("vertices 1; arrow a: 3 -> 1;",
     "undeclared vertex '3'", 1, 22),
    ("vertices 1;\narrow a:\n  1 ->\n\t2;",
     "undeclared vertex '2'", 4, 2),
    ("vertices 1; arrow a: 1 -> 1; relation qa;",
     "relation token 'qa' does not split into two declared arrow labels", 1, 39),
    ("vertices 1; arrow a: 1 -> 1; arrow aa: 1 -> 1;\nrelation  aaa;",
     "relation token 'aaa' splits ambiguously; write the two labels "
     "separated by a space", 2, 11),
    ("vertices 1; arrow a: 1 -> 1;\nrelation a\tq;",
     "undeclared arrow 'q' in relation", 2, 12),
    ("vertices 1; arrow a: 1 -> 1; relation a a a;",
     "'relation' expects one juxtaposed token or two labels", 1, 30),
    ("vertices 1; arrow a: 1 -> 1; # relation a;\n relation;",
     "'relation' expects one juxtaposed token or two labels", 2, 2),
    ("vertices 1 2; arrow a: 1 -> 2; arrow b: 1 -> 2;\n  relation ba;",
     "relation ba is not composable: 'a' ends at '2' but 'b' starts at '1'", 2, 12),
    ("vertices 1; arrow a: 1 -> 1; relation aa; # again\nrelation a a;",
     "duplicate relation a a", 2, 10),
    ("vertices 1; # widget; more\nwidget;",
     "unknown statement 'widget'", 2, 1),
    ("vertices 1;\r\n\r\n  vertex 2;",
     "unknown statement 'vertex'", 3, 3),
    # names Presentation refuses keep its message and precondition
    ("vertices 1 a:b;",
     "invalid vertex name 'a:b'", 1, 12),
    ("# names\nvertices 1\ta\xa0b;",
     "invalid vertex name 'a\\xa0b'", 2, 12),
    ("vertices 1 2; arrow a:: 1 -> 2;",
     "invalid arrow name 'a:'", 1, 21),
    ("vertices 1 2;\r\n  arrow a\xa0b: 1 -> 2;",
     "invalid arrow name 'a\\xa0b'", 2, 9),
    # the name rule runs after every statement, vertices before labels
    ("vertices 1; arrow a:b: 1 -> 1;\nvertices 2 c:d;",
     "invalid vertex name 'c:d'", 2, 12),
    ("vertices 1 ->x; arrow ->: 1 -> ->x; arrow c:: 1 -> 1;",
     "invalid arrow name '->'", 1, 23),
    # the error is at the word the bad name was read from, not at the first
    # word that spells it: word 1 of "arrow a: ..." is also the bad label "a:"
    ("vertices 1 2;\narrow a: 1 -> 2;\nvertices 3 4;\narrow a:: 1 -> 2;",
     "invalid arrow name 'a:'", 4, 7),
    ("vertices 1;\nvertices 2 3;;\nvertices  4 a:b 5;",
     "invalid vertex name 'a:b'", 3, 13),
    # the first bad name in declaration order wins, and every other error,
    # even in a later statement or later in the same one, comes first
    ("vertices 1 a:b;\nvertices c:d;",
     "invalid vertex name 'a:b'", 1, 12),
    ("vertices 1; arrow a:: 1 -> 1;\narrow a:: 1 -> 1;",
     "duplicate arrow label 'a:'", 2, 7),
    ("vertices a:b 1 ->;",
     "'->' is not a valid vertex name", 1, 16),
    ("vertices 1; arrow b\xa0c: 1 -> 1; arrow d:: 1 -> 1;",
     "invalid arrow name 'b\\xa0c'", 1, 19),
    ("vertices 1 x:y; arrow a: 1 -> 9;",
     "undeclared vertex '9'", 1, 31),
]
NAME_RULE = "names contain no whitespace, ';', ':' or '#' and are not '->'"


class TestParseErrorPositions:
    @pytest.mark.parametrize("text, message, line, column", PARSE_ERRORS)
    def test_message_line_and_column(self, text, message, line, column):
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        error = info.value
        assert error.message == f"{message} (line {line}, column {column})"
        assert (error.line, error.column) == (line, column)
        well_formed = "well-formed presentation text"
        rule = NAME_RULE if message.startswith("invalid ") else well_formed
        assert error.precondition == rule
        assert error.witness == {"line": line, "column": column}

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([
                "vertices", "arrow", "relation", "relations", "1", "2", "a", "b",
                "ab", "a:", ":", "->", ";", "# c; d\n", "#", " ", "  ", "\t",
                "\n", "\r\n", "\xa0",
            ]),
            max_size=30,
        ).map("".join)
    )
    def test_position_is_the_start_of_a_token(self, text):
        try:
            parse_presentation(text)
        except ParseError as error:
            lines = text.split("\n")
            assert 1 <= error.line <= len(lines)
            before = lines[error.line - 1][: error.column - 1]
            rest = lines[error.line - 1][error.column - 1:]
            assert "#" not in before, "position lies inside a comment"
            assert rest and rest[0] not in " \t\r;#"
            assert not before or before[-1] in " \t\r;"
        except QuiverError:
            pass


def read_presentation(text):
    """What ``parse_presentation`` gives, in the oracle's terms: the lists of
    the presentation, or a parse error as (message, line, column,
    precondition)."""
    try:
        pres = parse_presentation(text)
    except ParseError as exc:
        suffix = f" (line {exc.line}, column {exc.column})"
        assert exc.message.endswith(suffix)
        assert exc.witness == {"line": exc.line, "column": exc.column}
        return exc.message[: -len(suffix)], exc.line, exc.column, exc.precondition
    triples = [(a.label, a.source, a.target) for a in pres.arrows]
    return list(pres.vertices), triples, list(pres.relations)


# Statement heads, both arrow forms, names that break the rule (':', '->',
# a no-break space, '\x0b'), layout, a comment holding ';' and blank
# statements, plus a few whole statements so that some texts are valid.
PRESENTATION_FRAGMENTS = [
    "arrow", "relation", "vertices", "arrows", "a:", "a :", ":", "->", "ab",
    "a\xa0b", "\x0b", "\t", "\r\n", "# c; d\n", ";;", " ", " ", ";", "1", "2",
    "a", "b", "\n", "vertices 1 2;", "arrow a: 1 -> 2;", "arrow b : 2 -> 1;",
    "relation ab;", "relation b a;",
]


class TestOracle:
    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.sampled_from(PRESENTATION_FRAGMENTS), max_size=20).map("".join))
    def test_parse_presentation_agrees_with_oracle(self, text):
        assert read_presentation(text) == helpers.oracle_parse_presentation(text)

    @pytest.mark.parametrize("text, message, line, column", PARSE_ERRORS)
    def test_every_pinned_error_agrees_with_oracle(self, text, message, line, column):
        rule = NAME_RULE if message.startswith("invalid ") else helpers.PRESENTATION_TEXT
        assert helpers.oracle_parse_presentation(text) == (message, line, column, rule)

    @pytest.mark.parametrize("text", [CANONICAL_TEXT] + [
        path.read_text(encoding="utf-8") for path in sorted(
            (FilePath(__file__).resolve().parent.parent / "corpus").glob("*.q")
        )
    ])
    def test_valid_texts_agree_with_oracle(self, text):
        expected = helpers.oracle_parse_presentation(text)
        assert len(expected) == 3
        assert read_presentation(text) == expected

    def test_planted_bad_names_agree_with_oracle(self):
        # fragments rarely spell a whole text, so name-rule errors, which come
        # only after every statement has read cleanly, are seldom reached there
        rng, texts, name_rule = random.Random(22), 3000, 0
        for _ in range(texts):
            text = _text_with_planted_names(rng)
            expected = helpers.oracle_parse_presentation(text)
            assert read_presentation(text) == expected, text
            name_rule += len(expected) == 4 and expected[3] == NAME_RULE
        assert name_rule * 10 >= texts


# names the text reads as one word that break the name rule: a ':', a
# space other than ' ', '\t', '\r' and '\n' (a line ends only at '\n'), or
# the arrow token (as a label)
BAD_NAMES = ["a:b", ":", "c:", "x\xa0y", "p\x0bq", "u\x0cv", "w\u2028z", "m\u3000n"]


def _text_with_planted_names(rng):
    """A presentation text over declared names, each arrow between declared
    vertices and each relation composable, in which some vertex names and
    arrow labels break the name rule, and rarely a statement has another
    fault; the statements are spread over lines at random."""
    vertices = rng.sample(["1", "2", "3", "4"], rng.randint(1, 4))
    labels = rng.sample(["a", "b", "c", "d"], rng.randint(0, 4))
    for names, extra in ((vertices, BAD_NAMES), (labels, BAD_NAMES + ["->"])):
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            names.insert(rng.randrange(len(names) + 1), rng.choice(extra))
    vertices = list(dict.fromkeys(vertices))
    ends = {label: (rng.choice(vertices), rng.choice(vertices)) for label in labels}
    if labels and rng.random() < 0.1:  # a fault other than a name
        ends[rng.choice(labels)] = ("9", vertices[0])
    cut = rng.randint(1, len(vertices))
    statements = [f"vertices {' '.join(vertices[:cut])};"]
    if cut < len(vertices):
        statements.append(f"vertices {' '.join(vertices[cut:])};")
    for label, (source, target) in ends.items():
        colon = rng.choice((":", " :"))
        statements.append(f"arrow {label}{colon} {source} -> {target};")
    composable = [(x, y) for x in ends for y in ends if ends[y][1] == ends[x][0]]
    for left, right in rng.sample(composable, min(len(composable), rng.randint(0, 2))):
        statements.append(f"relation {left} {right};")
    return "".join(s + rng.choice((" ", "\n", "\n\n", "  # note\n")) for s in statements)


TRIPLES = "(label, source, target) triples"
PAIRS = "arrow label pairs"


class TestPresentationValidation:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(QuiverError, match="duplicate vertex"):
            Presentation(["1", "1"], [])

    def test_whitespace_in_names_rejected(self):
        with pytest.raises(QuiverError, match="invalid vertex name"):
            Presentation(["a b"], [])

    def test_arrow_token_rejected_as_name(self):
        with pytest.raises(QuiverError, match="invalid vertex name"):
            Presentation(["->"], [])

    @pytest.mark.parametrize("name", ["a\n", "1\n"])
    def test_trailing_newline_in_a_name_rejected(self, name):
        with pytest.raises(QuiverError) as info:
            Presentation([name], [])
        assert info.value.diagnostic() == {
            "message": f"invalid vertex name {name!r}",
            "precondition": NAME_RULE,
            "witness": {"vertex": name},
        }
        with pytest.raises(QuiverError) as info:
            Presentation(["1"], [(name, "1", "1")])
        assert info.value.witness == {"arrow": name}
        assert info.value.precondition == NAME_RULE

    def test_trailing_newline_rejected_from_json(self):
        data = {
            "vertices": ["1", "a\n"],
            "arrows": [{"label": "b\n", "source": "1", "target": "1"}],
            "relations": [],
        }
        with pytest.raises(QuiverError, match="invalid vertex name") as info:
            presentation_from_json(data)
        assert info.value.witness == {"vertex": "a\n"}
        data["vertices"] = ["1"]
        with pytest.raises(QuiverError, match="invalid arrow name") as info:
            presentation_from_json(data)
        assert info.value.witness == {"arrow": "b\n"}

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet="ab1;:#-> \t\r\n\x0b\xa0", min_size=1, max_size=4),
        st.text(alphabet="ab1;:#-> \t\r\n\x0b\xa0", min_size=1, max_size=4),
    )
    def test_every_accepted_name_survives_the_text_round_trip(self, vertex, label):
        try:
            pres = Presentation(["0", vertex], [(label, "0", vertex)])
        except QuiverError:
            return
        assert parse_presentation(serialize_presentation(pres)) == pres

    @pytest.mark.parametrize(
        "vertices, arrows, message",
        [
            # the first violation in list order is reported, name or not
            (["1", "1", "a b"], [], "duplicate vertex '1'"),
            (["a b", "1", "1"], [], "invalid vertex name 'a b'"),
            (["1", "->"], [("a b", "1", "1")], "invalid vertex name '->'"),
            (["1"], [("a", "1", "9"), ("b c", "1", "1")], "uses undeclared vertex"),
            (["1"], [("a", "1", "1"), ("a", "1", "1"), ("b\n", "1", "1")],
             "duplicate arrow label 'a'"),
            (["1"], [("a", "1", "1"), ("b\n", "1", "1"), ("a", "1", "1")],
             "invalid arrow name 'b\\n'"),
            (["1"], [("a", "1", "1"), (7, "1", "1")], "invalid arrow name 7"),
        ],
    )
    def test_first_violation_is_reported(self, vertices, arrows, message):
        with pytest.raises(QuiverError, match=re.escape(message)):
            Presentation(vertices, arrows)

    @pytest.mark.parametrize(
        "vertices, labels, diagnostic",
        [
            # a list with both a repeat and a rule-breaking name: whichever
            # comes first in the list is reported, in full
            (["a", "a", "b c"], [], {
                "message": "duplicate vertex 'a'",
                "precondition": "vertex names are distinct",
                "witness": {"vertex": "a"},
            }),
            (["b c", "a", "a"], [], {
                "message": "invalid vertex name 'b c'",
                "precondition": NAME_RULE,
                "witness": {"vertex": "b c"},
            }),
            (["1"], ["a", "a", "b c"], {
                "message": "duplicate arrow label 'a'",
                "precondition": "arrow labels are distinct",
                "witness": {"arrow": "a"},
            }),
            (["1"], ["b c", "a", "a"], {
                "message": "invalid arrow name 'b c'",
                "precondition": NAME_RULE,
                "witness": {"arrow": "b c"},
            }),
        ],
    )
    def test_first_fault_diagnostic_is_exact(self, vertices, labels, diagnostic):
        with pytest.raises(QuiverError) as info:
            Presentation(vertices, [(label, "1", "1") for label in labels])
        assert type(info.value) is QuiverError
        assert info.value.diagnostic() == diagnostic

    def test_arrow_over_undeclared_vertex(self):
        with pytest.raises(QuiverError, match="undeclared vertex"):
            Presentation(["1"], [("a", "1", "2")])

    def test_relation_must_be_composable(self):
        with pytest.raises(QuiverError, match="not composable"):
            Presentation(
                ["1", "2"],
                [("a", "1", "2"), ("b", "1", "2")],
                [("a", "b")],
            )

    def test_relation_over_unknown_arrow(self):
        with pytest.raises(QuiverError, match="undeclared arrow"):
            Presentation(["1"], [("a", "1", "1")], [("a", "q")])

    def test_duplicate_relation(self):
        with pytest.raises(QuiverError, match="duplicate relation"):
            Presentation(["1"], [("a", "1", "1")], [("a", "a"), ("a", "a")])

    @pytest.mark.parametrize(
        "vertices, arrows, relations, precondition",
        [
            (["1"], [("a", "1")], [], f"arrows is a sequence of {TRIPLES}"),
            (["1"], [7], [], f"arrows is a sequence of {TRIPLES}"),
            (["1"], [("a", "1", "1")], [("a",)], f"relations is a sequence of {PAIRS}"),
            (["1"], [("a", "1", ["1"])], [], "arrow endpoints are declared vertices"),
        ],
    )
    def test_malformed_fields_raise_quiver_errors(
        self, vertices, arrows, relations, precondition
    ):
        with pytest.raises(QuiverError) as info:
            Presentation(vertices, arrows, relations)
        assert info.value.precondition == precondition


CORPUS = FilePath(__file__).resolve().parent.parent / "corpus"
FIXTURES = [
    helpers.illustrative, helpers.hexagon, helpers.final_example,
    helpers.loop_square, helpers.two_cycle, helpers.two_loops_all_relations,
    helpers.two_loops_mixed, helpers.parallel_triple, helpers.a2_path,
    *(partial(helpers.lambda_n, n) for n in (1, 2, 3, 6)),
]


class TestParsedIndex:
    """The parser checks statements itself and builds the index without
    ``Presentation``'s validation; both routes must give the same index."""

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.q")), ids=lambda p: p.name)
    def test_corpus_files(self, path):
        parsed = parse_presentation(path.read_text(encoding="utf-8"))
        assert helpers.presentation_index(parsed) == helpers.presentation_index(
            helpers.rebuilt(parsed)
        )

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_serialized_fixtures(self, fixture):
        pres = fixture()
        parsed = parse_presentation(serialize_presentation(pres))
        assert parsed == pres
        assert helpers.presentation_index(parsed) == helpers.presentation_index(pres)


    # text the serializer never writes: comments, blank statements, runs of
    # spaces, tabs and CRs, the "a :" form, bare headers, statements over
    # several lines, interleaved statements, juxtaposed relation tokens,
    # loops and parallel arrows
    UNUSUAL = [
        (
            "# a comment; with a semicolon\r\nvertices\t1  2;;\n arrows ;\n"
            "arrow a : 1 -> 2; # trailing\narrow\tb:\t2\r\n->\n1;\nvertices 3;\n"
            "relations;\nrelation ab;\narrow l: 3 -> 3;\narrow p: 1 -> 2;\n"
            "arrow q :\t1 ->  2;\nrelation l  l;\nrelation ba;\nrelation bp;\n"
            "relation b q;\n\t;",
            Presentation(
                ("1", "2", "3"),
                [("a", "1", "2"), ("b", "2", "1"), ("l", "3", "3"),
                 ("p", "1", "2"), ("q", "1", "2")],
                [("b", "a"), ("l", "l"), ("a", "b"), ("p", "b"), ("q", "b")],
            ),
        ),
        (
            "vertices x;relations\n;vertices y z;arrow c: z -> x;arrow d: x -> z;"
            "relation dc;arrow e: z -> z;relation ce;relation ee;relation e d;",
            Presentation(
                ("x", "y", "z"),
                [("c", "z", "x"), ("d", "x", "z"), ("e", "z", "z")],
                [("c", "d"), ("e", "c"), ("e", "e"), ("d", "e")],
            ),
        ),
    ]

    @pytest.mark.parametrize("text, expected", UNUSUAL, ids=["spaced-out", "interleaved"])
    def test_text_the_serializer_never_writes(self, text, expected):
        parsed = parse_presentation(text)
        assert parsed == expected
        got = helpers.presentation_index(parsed)
        want = helpers.presentation_index(helpers.rebuilt(parsed))
        assert got == want
        # == on dicts ignores key order, which orders the gentle violations
        for name in ("outgoing", "incoming", "successors", "predecessors", "arrow"):
            assert list(got[name].items()) == list(want[name].items()), name


class TestIndex:
    @settings(max_examples=120, deadline=None)
    @given(presentations())
    def test_arrow_lookups_match_a_full_scan(self, pres):
        for v in pres.vertices + ("undeclared",):
            assert pres.arrows_from(v) == helpers.scan_arrows_from(pres, v)
            assert pres.arrows_into(v) == helpers.scan_arrows_into(pres, v)

    def test_lookups_return_fresh_lists(self):
        pres = helpers.illustrative()
        pres.arrows_from("2").clear()
        assert [a.label for a in pres.arrows_from("2")] == ["b", "f"]


def _paths_up_to(pres: Presentation, max_len: int) -> list[Path]:
    out = [pres.lazy_path(v) for v in pres.vertices]
    layer = [pres.path([a.label]) for a in pres.arrows]
    out += layer
    for _ in range(max_len - 1):
        nxt = []
        for p in layer:
            for a in pres.arrows_from(p.target):
                nxt.append(Path(p.arrows + (a.label,), p.source, a.target))
        out += nxt
        layer = nxt
    return out


class TestCompose:
    def test_single_arrows_concatenate_in_traversal_order(self):
        pres = Presentation(
            ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]
        )
        p = compose(pres.path(["a"]), pres.path(["b"]))
        assert p == Path(("a", "b"), "1", "3")
        assert p.display() == "ba"

    def test_lazy_paths_are_two_sided_identities(self):
        pres = helpers.illustrative()
        p = pres.path(["a", "f"])
        assert compose(pres.lazy_path("1"), p) == p
        assert compose(p, pres.lazy_path("7")) == p

    def test_mismatched_endpoints_raise(self):
        pres = helpers.illustrative()
        with pytest.raises(QuiverError, match="do not compose") as info:
            compose(pres.path(["a"]), pres.path(["a"]))
        assert info.value.witness == {"first_target": "2", "second_source": "1"}

    def test_associativity_on_enumerated_paths(self):
        pres = helpers.illustrative()
        paths = _paths_up_to(pres, 3)
        by_source: dict[str, list[Path]] = {}
        for p in paths:
            by_source.setdefault(p.source, []).append(p)
        checked = 0
        for p in paths:
            for q in by_source.get(p.target, []):
                for r in by_source.get(q.target, []):
                    lhs = compose(compose(p, q), r)
                    rhs = compose(p, compose(q, r))
                    assert lhs == rhs
                    checked += 1
        assert checked > 100

    def test_display_reverses_traversal(self):
        pres = helpers.illustrative()
        assert pres.path(["a", "b"]).display() == "ba"
        assert pres.lazy_path("4").display() == "e_4"

    def test_path_builder_checks_composability(self):
        pres = helpers.illustrative()
        with pytest.raises(QuiverError, match="do not compose"):
            pres.path(["a", "a"])
        with pytest.raises(QuiverError, match="empty label list"):
            pres.path([])
        with pytest.raises(QuiverError, match="no arrow labelled"):
            pres.path(["nope"])

    def test_lazy_path_requires_declared_vertex(self):
        with pytest.raises(QuiverError, match="undeclared vertex"):
            helpers.illustrative().lazy_path("99")


class TestIdealMembership:
    def test_relation_pair_lies_in_ideal(self):
        pres = helpers.illustrative()
        assert path_in_ideal(pres.path(["a", "b"]), pres)
        assert not path_in_ideal(pres.path(["b", "c"]), pres)
        assert not path_in_ideal(pres.lazy_path("1"), pres)
        assert not path_in_ideal(pres.path(["a"]), pres)

    def test_membership_is_monotone_under_composition(self):
        pres = helpers.illustrative()
        paths = _paths_up_to(pres, 4)
        for p in paths:
            if not path_in_ideal(p, pres):
                continue
            for q in paths:
                if q.source == p.target:
                    assert path_in_ideal(compose(p, q), pres)
                if q.target == p.source:
                    assert path_in_ideal(compose(q, p), pres)
