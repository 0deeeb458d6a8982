"""End-to-end checks of the command line interface and the corpus runner."""

from __future__ import annotations

import contextlib
import enum
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_cli_dispatch
import helpers
from singcat import cli, nodal
from singcat.cli import run, run_corpus
from singcat.quiver import INT_DIGITS, SingcatError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
README = CORPUS.parent / "README.md"

ILLUSTRATIVE_CYCLES = {
    "cycles": [
        {"arrows": ["j", "f", "e"], "length": 3},
        {"arrows": ["k", "g", "h"], "length": 3},
    ]
}

EXIT_ZERO_CASES = [
    path.name
    for path in sorted(CORPUS.glob("*.json"))
    if json.loads(path.read_text(encoding="utf-8")).get("exit", 0) == 0
]

NON_GENTLE = "vertices 1 2;\narrow a: 1 -> 2;\narrow b: 1 -> 2;\narrow c: 1 -> 2;\n"


# --format text renderings of corpus inputs, run from the corpus directory
CORPUS_TEXT = [
    (["gentle", "check", "illustrative.q"], "gentle\n"),
    (["gentle", "gp", "lambda3.q"], (
        "projectives: 0 1 2 3\n"
        "R[b1 a1, 1]: top 2, walk a2\n"
        "R[b1 a1, 2]: top 1, walk (simple)\n"
        "R[b2 a2, 2]: top 3, walk (simple)\n"
        "R[b2 a2, 3]: top 2, walk b1\n"
    )),
    (["gentle", "singcat", "final72.q"], "factors: 1 6 7\n"),
    (["gentle", "compare", "hexagon.q", "hexagon.q"], "compatible\n"),
    (["surface", "cyclic", "27", "19"], (
        "expansion: 2 2 4 3\n"
        "vertex 1 -2;\nvertex 2 -2;\nvertex 3 -4;\nvertex 4 -3;\n"
        "edge 1 2;\nedge 2 3;\nedge 3 4;\n"
    )),
    (["surface", "fundamental", "laufer_witness.graph", "--seed", "3"], (
        "0: 121\n1: 198\n2: 122\n3: 46\n4: 54\n"
        "5: 44\n6: 16\n7: 11\n8: 18\n9: 99\n"
    )),
    (["surface", "ranks", "m25.graph"], "1: 1\n2: 1\n"),
    (["surface", "decompose", "g2719.graph", "--all-minus-two"],
     "A2: 1 2\nA3: 4 5 6\n"),
    (["surface", "decompose", "g5111.graph", "--all-minus-two"],
     "empty decomposition\n"),
]


def invoke(capsys, argv):
    """Run the CLI in process and capture both streams."""
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_error(err: str) -> dict:
    payload = json.loads(err)
    assert set(payload["error"]) == {"message", "precondition", "witness"}
    return payload["error"]


class TestExitCodes:
    def test_check_reports_violations_without_failing(self, tmp_path, capsys):
        path = tmp_path / "fanout.q"
        path.write_text(NON_GENTLE, encoding="utf-8")
        code, out, _ = invoke(capsys, ["gentle", "check", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["is_gentle"] is False
        assert payload["violations"]

    def test_cycles_refuses_a_non_gentle_presentation(self, tmp_path, capsys):
        path = tmp_path / "fanout.q"
        path.write_text(NON_GENTLE, encoding="utf-8")
        code, out, err = invoke(capsys, ["gentle", "cycles", str(path)])
        assert code == 1
        assert out == ""
        assert "not gentle" in stderr_error(err)["message"]

    def test_missing_file_is_a_domain_error(self, capsys):
        code, out, err = invoke(capsys, ["gentle", "cycles", "no-such-file.q"])
        assert code == 1
        assert out == ""
        error = stderr_error(err)
        assert "cannot read" in error["message"]
        assert error["witness"] == {"path": "no-such-file.q"}

    def test_hom_across_blocks_fails(self, capsys):
        code, _, err = invoke(capsys, ["nodal", "hom", "P+", "P2"])
        assert code == 1
        assert "different blocks" in stderr_error(err)["message"]

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["gentle"], ["nodal", "bogus"]])
    def test_usage_errors_exit_with_two(self, argv, capsys):
        code, out, err = invoke(capsys, argv)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_only_the_fundamental_cycle_takes_a_seed(self, capsys):
        argv = ["gentle", "check", str(CORPUS / "illustrative.q"), "--seed", "3"]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --seed 3" in err
        argv = ["surface", "fundamental", str(CORPUS / "t13.graph"), "--seed", "3"]
        assert invoke(capsys, argv)[0] == 0


class TestJsonOutput:
    def test_cycle_payload_is_pinned(self, capsys):
        argv = ["gentle", "cycles", str(CORPUS / "illustrative.q")]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert json.loads(out) == ILLUSTRATIVE_CYCLES

    def test_repeated_runs_are_byte_identical(self, capsys):
        argv = ["gentle", "cycles", str(CORPUS / "illustrative.q")]
        _, first, _ = invoke(capsys, argv)
        _, second, _ = invoke(capsys, argv)
        assert first == second

    @pytest.mark.parametrize(
        "source, target, dim",
        [("P+", "P+[1]", 0), ("P+", "P-[-1]", 1), ("P2[1]", "S(3)", 1)],
    )
    def test_hom_dimensions(self, source, target, dim, capsys):
        code, out, _ = invoke(capsys, ["nodal", "hom", source, target])
        assert code == 0
        assert json.loads(out) == {"dim": dim}

    def test_cyclic_quotient_payload(self, capsys):
        code, out, _ = invoke(capsys, ["surface", "cyclic", "27", "19"])
        assert code == 0
        payload = json.loads(out)
        assert payload["expansion"] == [2, 2, 4, 3]
        assert payload["graph"]["weights"] == {"1": -2, "2": -2, "3": -4, "4": -3}
        assert payload["graph"]["edges"] == [["1", "2"], ["2", "3"], ["3", "4"]]

    def test_graded_quiver_payload(self, capsys):
        code, out, _ = invoke(capsys, ["dga", "emit", "A2", "odd"])
        assert code == 0
        assert json.loads(out) == {
            "family": "A",
            "rank": 2,
            "parity": "odd",
            "vertices": ["1"],
            "solid_arrows": [{"label": "γ", "source": "1", "target": "1"}],
            "broken_arrows": [{"label": "ρ_1", "source": "1", "target": "1"}],
            "translation": {"1": "1"},
            "differential": {"ρ_1": [["γ", "γ"]]},
        }


class TestTextFormat:
    def test_cycles_text(self, capsys):
        argv = ["gentle", "cycles", str(CORPUS / "illustrative.q"), "--format", "text"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert out == "jfe (length 3)\nkgh (length 3)\n"

    @pytest.mark.parametrize(
        "source, target, text", [("P+", "P-[-1]", "1\n"), ("P+", "P+[1]", "0\n")]
    )
    def test_hom_text_is_the_bare_dimension(self, source, target, text, capsys):
        argv = ["nodal", "hom", source, target, "--format", "text"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert out == text

    def test_zero_block_complex_text(self, capsys):
        argv = ["nodal", "complex", "S(2)", "--format", "text"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert out == "terms: P2 P1 P1 P2\ndifferentials: a ba b\n"

    @pytest.mark.parametrize(
        "argv, text", CORPUS_TEXT, ids=[" ".join(argv) for argv, _ in CORPUS_TEXT]
    )
    def test_corpus_inputs_in_text(self, argv, text, monkeypatch, capsys):
        monkeypatch.chdir(CORPUS)
        assert invoke(capsys, argv + ["--format", "text"]) == (0, text, "")

    def test_violations_and_no_factors_in_text(self, tmp_path, capsys):
        fanout = tmp_path / "fanout.q"
        fanout.write_text(NON_GENTLE, encoding="utf-8")
        code, out, _ = invoke(capsys, ["gentle", "check", str(fanout), "--format", "text"])
        assert code == 0
        assert out.startswith("not gentle\nG1 at 1: ")
        arrow = tmp_path / "arrow.q"
        arrow.write_text("vertices 1 2;\narrow a: 1 -> 2;\n", encoding="utf-8")
        argv = ["gentle", "singcat", str(arrow), "--format", "text"]
        assert invoke(capsys, argv) == (0, "factors: (none)\n", "")


class TestParityArgument:
    def test_a_dimension_is_read_mod_two(self, capsys):
        assert invoke(capsys, ["dga", "emit", "A3", "3"]) == invoke(
            capsys, ["dga", "emit", "A3", "odd"]
        )

    def test_unreadable_parity_is_a_domain_error(self, capsys):
        code, out, err = invoke(capsys, ["dga", "emit", "A3", "x"])
        assert (code, out) == (1, "")
        assert stderr_error(err) == {
            "message": "cannot parse parity argument 'x'",
            "precondition": "parity is 'even', 'odd' or a non-negative dimension",
            "witness": {"parity": "x"},
        }

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_a_dimension_beyond_the_digit_limit_is_not_unreadable(self, capsys, sign):
        # int() refuses it for its length alone: report that, not a bad parity
        raw = sign + "7" * 5000
        code, out, err = invoke(capsys, ["dga", "emit", "A3", raw])
        assert (code, out) == (1, "")
        assert stderr_error(err) == {
            "message": "the dimension has too many digits",
            "precondition": INT_DIGITS,
            "witness": {"parity": raw},
        }

    @pytest.mark.parametrize("raw", ["1.5", "+-3", "3x", "1__0", "7" * 4000 + "x"])
    def test_other_non_integers_stay_unreadable(self, capsys, raw):
        code, out, err = invoke(capsys, ["dga", "emit", "A3", raw])
        assert (code, out) == (1, "")
        assert stderr_error(err)["message"] == f"cannot parse parity argument {raw!r}"


class TestOutFlag:
    def test_out_writes_the_rendering_and_keeps_stdout_quiet(self, tmp_path, capsys):
        target = tmp_path / "hom.json"
        argv = ["nodal", "hom", "P+", "P-[-1]", "--out", str(target)]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == '{\n  "dim": 1\n}\n'

    def test_unwritable_out_path_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "hom.json"
        argv = ["nodal", "hom", "P+", "P-[-1]", "--out", str(target)]
        code, _, err = invoke(capsys, argv)
        assert code == 1
        assert "cannot write" in stderr_error(err)["message"]

    def test_empty_out_value_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, ["nodal", "hom", "P+", "P-[-1]", "--out="])
        assert (code, out) == (1, "")
        assert err == (
            '{"error": {"message": "cannot write \'\': not a file name", '
            '"precondition": "output path is writable", "witness": {"path": ""}}}\n'
        )
        assert list(tmp_path.iterdir()) == []

    def test_explicit_dash_dash_out_value(self, tmp_path, monkeypatch, capsys):
        # argparse stores "--" under Python 3.13 and [], which names no file, under 3.11
        monkeypatch.chdir(tmp_path)
        argv = ["nodal", "hom", "P+", "P-[-1]", "--out=--"]
        stored = cli._parser().parse_args(argv).out
        code, out, err = invoke(capsys, argv)
        if stored == "--":
            assert (code, out, err) == (0, "", "")
            assert (tmp_path / "--").read_text(encoding="utf-8") == '{\n  "dim": 1\n}\n'
        else:
            assert (code, out) == (1, "")
            assert stderr_error(err)["witness"] == {"path": stored}

    def test_unwritable_out_path_diagnostic_is_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["nodal", "hom", "P+", "P-[-1]", "--out", "missing-dir/hom.json"]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (1, "")
        assert err == (
            '{"error": {"message": "cannot write missing-dir/hom.json: No such file '
            'or directory", "precondition": "output path is writable", '
            '"witness": {"path": "missing-dir/hom.json"}}}\n'
        )


class TestHomTable:
    WINDOW = ["nodal", "table", "--shifts", "0..1", "--maxlen", "2"]

    def test_window_objects_are_ordered(self, capsys):
        code, out, _ = invoke(capsys, self.WINDOW)
        assert code == 0
        assert json.loads(out)["objects"] == [
            "P+", "P+[1]", "P-", "P-[1]",
            "S+(1)", "S+(1)[1]", "S+(2)", "S+(2)[1]",
            "S-(1)", "S-(1)[1]", "S-(2)", "S-(2)[1]",
        ]

    def test_dims_match_the_library(self, capsys):
        code, out, _ = invoke(capsys, self.WINDOW)
        assert code == 0
        payload = json.loads(out)
        objects = [nodal.parse_object(name)[0] for name in payload["objects"]]
        for i, x in enumerate(objects):
            for j, y in enumerate(objects):
                assert payload["dims"][i][j] == nodal.hom_dim(x, y)

    @pytest.mark.parametrize(
        "shifts, needle",
        [("4..1", "empty shift window"), ("abc", "cannot parse shift window")],
    )
    def test_bad_shift_windows(self, shifts, needle, capsys):
        argv = ["nodal", "table", "--shifts", shifts, "--maxlen", "2"]
        code, _, err = invoke(capsys, argv)
        assert code == 1
        assert needle in stderr_error(err)["message"]

    @pytest.mark.parametrize("window", ["-2..2", "-2..-1", "0..1"])
    def test_window_as_separate_token_or_joined(self, window, capsys):
        spaced = invoke(
            capsys, ["nodal", "table", "--shifts", window, "--maxlen", "3"]
        )
        joined = invoke(
            capsys, ["nodal", "table", f"--shifts={window}", "--maxlen", "3"]
        )
        assert spaced[0] == 0, spaced[2]
        assert spaced == joined

    @pytest.mark.parametrize("flag", ["--s", "--sh", "--shi", "--shif", "--shift"])
    def test_unique_abbreviations_join_a_window(self, flag, capsys):
        spaced = invoke(capsys, ["nodal", "table", flag, "-2..2", "--maxlen", "1"])
        joined = invoke(capsys, ["nodal", "table", "--shifts=-2..2", "--maxlen", "1"])
        assert spaced[0] == 0, spaced[2]
        assert spaced == joined

    def test_only_windows_are_joined(self, capsys):
        code, out, err = invoke(
            capsys, ["nodal", "table", "--shifts", "-x", "--maxlen", "3"]
        )
        assert code == 2
        assert out == ""
        assert "--shifts: expected one argument" in err

    def test_window_bound_beyond_the_digit_limit(self, capsys):
        argv = ["nodal", "table", f"--shifts=-{'9' * 5000}..2", "--maxlen", "1"]
        code, out, err = invoke(capsys, argv)
        assert code == 1
        assert out == ""
        assert stderr_error(err)["precondition"] == INT_DIGITS

    def test_maxlen_must_be_positive(self, capsys):
        argv = ["nodal", "table", "--shifts", "0..1", "--maxlen", "0"]
        code, _, err = invoke(capsys, argv)
        assert code == 1
        assert "maxlen must be positive" in stderr_error(err)["message"]

    @staticmethod
    def table_objects(lo: int, hi: int, maxlen: int) -> tuple[list, list]:
        """Names and oracle tuples of the window's objects, in table order."""
        kinds = [(f"P{c}", ("P", s)) for c, s in (("+", 1), ("-", -1))]
        kinds += [
            (f"S{c}({l})", ("S", s, l))
            for c, s in (("+", 1), ("-", -1))
            for l in range(1, maxlen + 1)
        ]
        shifts = range(lo, hi + 1)
        names = [base if n == 0 else f"{base}[{n}]" for base, _ in kinds for n in shifts]
        return names, [kind + (n,) for _, kind in kinds for n in shifts]

    @pytest.mark.parametrize("maxlen", range(1, 7))
    def test_every_window_matches_the_oracle_in_both_formats(self, maxlen, capsys):
        _, objects = self.table_objects(-6, 6, maxlen)
        dim = {(x, y): helpers.oracle_hom(x, y) for x in objects for y in objects}
        # single shifts (lo == hi) and all-negative windows included
        for lo in range(-6, 7):
            for hi in range(lo, 7):
                argv = ["nodal", "table", f"--shifts={lo}..{hi}", "--maxlen", str(maxlen)]
                sub, oracle = self.table_objects(lo, hi, maxlen)
                rows = [[dim[x, y] for y in oracle] for x in oracle]
                code, out, err = invoke(capsys, argv)
                assert (code, err) == (0, "")
                assert json.loads(out) == {"objects": sub, "dims": rows}, argv
                width = max(map(len, sub))
                text = [" " * (width + 1) + " ".join(n.rjust(width) for n in sub)]
                text += [
                    x.rjust(width) + "  " + " ".join(str(d).rjust(width) for d in row)
                    for x, row in zip(sub, rows)
                ]
                code, out, err = invoke(capsys, argv + ["--format", "text"])
                assert (code, out, err) == (0, "\n".join(text) + "\n", ""), argv


class TestComplexCommand:
    def test_short_string_complex(self, capsys):
        code, out, _ = invoke(capsys, ["nodal", "complex", "S+(1)"])
        assert code == 0
        assert json.loads(out) == {
            "terms": ["P-", "P*", "P+"],
            "differentials": ["β", "γ"],
        }

    def test_projectives_are_rejected(self, capsys):
        code, _, err = invoke(capsys, ["nodal", "complex", "P+"])
        assert code == 1
        assert "expected a single minimal string" in stderr_error(err)["message"]

    def test_shifted_strings_are_rejected(self, capsys):
        code, _, err = invoke(capsys, ["nodal", "complex", "S+(2)[1]"])
        assert code == 1
        assert "unshifted" in stderr_error(err)["message"]


def write_case(directory: Path, name: str, body: dict) -> None:
    text = json.dumps(body, ensure_ascii=False)
    (directory / name).write_text(text, encoding="utf-8")


class TestCorpusRunner:
    def test_passing_case(self, tmp_path):
        write_case(
            tmp_path,
            "hom.json",
            {"argv": ["nodal", "hom", "P+", "P-[-1]"], "expect": {"dim": 1}},
        )
        payload, code = run_corpus(str(tmp_path))
        assert code == 0
        assert payload == {
            "cases": [{"case": "hom.json", "status": "pass"}],
            "passed": 1,
            "failed": 0,
        }

    def test_mismatched_expectation_fails_with_detail(self, tmp_path):
        write_case(
            tmp_path,
            "hom.json",
            {"argv": ["nodal", "hom", "P+", "P-[-1]"], "expect": {"dim": 2}},
        )
        payload, code = run_corpus(str(tmp_path))
        assert code == 1
        record = payload["cases"][0]
        assert record["status"] == "fail"
        assert "differs from expectation" in record["detail"]
        assert payload["failed"] == 1

    def test_unexpected_exit_code_fails_with_detail(self, tmp_path):
        write_case(
            tmp_path,
            "hom.json",
            {"argv": ["nodal", "hom", "P+", "P2"], "expect": {"dim": 0}},
        )
        payload, code = run_corpus(str(tmp_path))
        assert code == 1
        assert payload["cases"][0]["detail"].startswith("exit 1, expected 0")

    def test_error_cases_match_on_a_stderr_substring(self, tmp_path):
        write_case(
            tmp_path,
            "missing.json",
            {
                "argv": ["gentle", "cycles", "nope.q"],
                "exit": 1,
                "expect_error_contains": "cannot read",
            },
        )
        payload, code = run_corpus(str(tmp_path))
        assert code == 0
        assert payload["cases"][0]["status"] == "pass"

    def test_output_that_is_not_json_fails(self, tmp_path):
        argv = ["gentle", "cycles", str(CORPUS / "illustrative.q"), "--format", "text"]
        write_case(tmp_path, "text.json", {"argv": argv, "expect": ILLUSTRATIVE_CYCLES})
        payload, code = run_corpus(str(tmp_path))
        assert code == 1
        assert payload["cases"] == [{
            "case": "text.json",
            "status": "fail",
            "detail": "output null differs from expectation",
        }]

    def test_stderr_without_the_needle_fails(self, tmp_path):
        write_case(
            tmp_path,
            "missing.json",
            {
                "argv": ["gentle", "cycles", "nope.q"],
                "exit": 1,
                "expect_error_contains": "not gentle",
            },
        )
        payload, code = run_corpus(str(tmp_path))
        assert code == 1
        assert payload["cases"] == [{
            "case": "missing.json",
            "status": "fail",
            "detail": "stderr does not contain 'not gentle'",
        }]

    def test_empty_directory(self, tmp_path):
        payload, code = run_corpus(str(tmp_path))
        assert code == 0
        assert payload == {"cases": [], "passed": 0, "failed": 0}

    def test_relative_paths_resolve_against_the_corpus(self, tmp_path, monkeypatch):
        corpus = tmp_path / "cases"
        corpus.mkdir()
        (corpus / "p.q").write_text("vertices 1 2;\narrow a: 1 -> 2;\n")
        write_case(
            corpus,
            "check.json",
            {
                "argv": ["gentle", "check", "p.q"],
                "expect": {"is_gentle": True, "violations": []},
            },
        )
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        payload, code = run_corpus(str(corpus))
        assert code == 0
        assert payload["failed"] == 0
        assert Path.cwd() == elsewhere

    def test_invalid_json_is_a_corpus_error(self, tmp_path):
        (tmp_path / "bad.json").write_text("{", encoding="utf-8")
        with pytest.raises(SingcatError, match="not valid JSON"):
            run_corpus(str(tmp_path))

    def test_missing_argv_is_a_corpus_error(self, tmp_path):
        write_case(tmp_path, "bad.json", {"expect": {}})
        with pytest.raises(SingcatError, match="lacks an argv"):
            run_corpus(str(tmp_path))

    def test_missing_expect_is_a_corpus_error(self, tmp_path):
        write_case(tmp_path, "bad.json", {"argv": ["nodal", "hom", "P+", "P+"]})
        with pytest.raises(SingcatError, match="lacks an expect"):
            run_corpus(str(tmp_path))

    def test_malformed_argv_is_a_corpus_error(self, tmp_path):
        write_case(tmp_path, "bad.json", {"argv": "nodal hom", "expect": {}})
        with pytest.raises(SingcatError, match="malformed argv"):
            run_corpus(str(tmp_path))

    def test_missing_directory_is_a_corpus_error(self, tmp_path):
        with pytest.raises(SingcatError, match="does not exist"):
            run_corpus(str(tmp_path / "absent"))


class TestShippedCorpus:
    def test_every_recorded_case_passes(self):
        payload, code = run_corpus(str(CORPUS))
        assert code == 0
        assert payload["failed"] == 0
        assert len(payload["cases"]) == 17

    def test_text_summary_line(self, capsys):
        code, out, _ = invoke(capsys, ["corpus", str(CORPUS), "--format", "text"])
        assert code == 0
        assert out.rstrip("\n").splitlines()[-1] == "17 passed, 0 failed"

    @pytest.mark.parametrize("name", EXIT_ZERO_CASES)
    def test_stdout_is_the_expectation_byte_for_byte(self, name, monkeypatch, capsys):
        # run_corpus compares parsed JSON, which cannot see key order
        case = json.loads((CORPUS / name).read_text(encoding="utf-8"))
        monkeypatch.chdir(CORPUS)
        code, out, _ = invoke(capsys, case["argv"])
        assert code == 0
        assert out == json.dumps(case["expect"], ensure_ascii=False, indent=2) + "\n"


README_COMMANDS = helpers.readme_commands()


@pytest.mark.parametrize(
    "line, printed, subset", README_COMMANDS, ids=[case[0] for case in README_COMMANDS]
)
def test_readme_command_runs_as_printed(line, printed, subset, monkeypatch, capsys):
    monkeypatch.chdir(README.parent)
    code, out, err = invoke(capsys, helpers.readme_argv(line))
    assert code == 0, err
    if printed is not None:
        assert out.rstrip("\n") == printed
    if subset is not None:
        payload = json.loads(out)
        assert {key: payload[key] for key in subset} == subset


def test_module_invocation_round_trip():
    result = subprocess.run(
        [sys.executable, "-m", "singcat", "gentle", "cycles", str(CORPUS / "illustrative.q")],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == ILLUSTRATIVE_CYCLES


def test_closed_pipe_ends_quietly():
    # about 1.5 MB of JSON: more than a pipe holds, so writing goes on after
    # the reader has gone, as in ``singcat nodal table ... | head -1``
    argv = ["nodal", "table", "--shifts=-20..20", "--maxlen", "4"]
    with subprocess.Popen(
        [sys.executable, "-m", "singcat", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait() == 141


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_a_diagnostic():
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "singcat", "gentle", "cycles", str(CORPUS / "illustrative.q")],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            check=False,
        )
    assert result.returncode == 1
    assert result.stderr == (
        '{"error": {"message": "cannot write <stdout>: No space left on device", '
        '"precondition": "output path is writable", "witness": {"path": "<stdout>"}}}\n'
    )


# ---------------------------------------------------------------------------
# one parser per process


@pytest.fixture
def fresh_parser_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def replay_requests():
    """(working directory, argv): every corpus argv and README command in
    order, with a usage error, ``--help`` and a domain error mixed in."""
    requests = [(CORPUS, argv) for argv in helpers.corpus_argvs()]
    requests += [(README.parent, helpers.readme_argv(line)) for line, _, _ in README_COMMANDS]
    requests[3:3] = [
        (CORPUS, ["nodal", "table", "--maxlen", "x"]),
        (CORPUS, ["nodal", "table", "--shifts", "-2..2", "--maxlen", "3"]),
        (CORPUS, ["surface", "--help"]),
        (CORPUS, ["gentle", "cycles", "illustrative.q"]),
        (CORPUS, ["nodal", "hom", "P+", "P2"]),
        (CORPUS, ["nodal", "hom", "P+", "P-[-1]", "--format", "text"]),
        (CORPUS, ["bogus"]),
        (CORPUS, ["surface", "decompose", "g2719.graph", "--contract", "2"]),
    ]
    requests.append((README.parent, ["corpus", str(CORPUS), "--format", "text"]))
    return requests


def replay(requests):
    """Exit code, stdout and stderr of each request, captured in memory."""
    results = []
    prev = os.getcwd()
    try:
        for cwd, argv in requests:
            os.chdir(cwd)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            results.append((argv, code, out.getvalue(), err.getvalue()))
    finally:
        os.chdir(prev)
    return results


class TestParserReuse:
    def test_one_parser_serves_every_run(self, fresh_parser_cache, monkeypatch):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        results = replay((replay_requests() * 2)[:50] + [(CORPUS, ["corpus", "."])])
        assert {code for _, code, _, _ in results} == {0, 1, 2}
        assert results[-1][1] == 0
        assert len(built) == 1

    def test_reuse_matches_a_fresh_parser_per_call(
        self, fresh_parser_cache, monkeypatch
    ):
        requests = replay_requests()
        reused = replay(requests)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            # in reverse, so that each request follows a different one
            fresh = replay(requests[::-1])[::-1]
        assert reused == fresh
        assert {code for _, code, _, _ in reused} == {0, 1, 2}
        assert (["surface", "--help"], 0) in [(argv, code) for argv, code, _, _ in reused]


class TestLeafDispatch:
    def test_dispatch_matches_the_full_parse(self, fresh_parser_cache):
        argvs = check_cli_dispatch.requests() + [argv for _, argv in replay_requests()]
        assert list(check_cli_dispatch.mismatches(argvs)) == []
        routes = {check_cli_dispatch.route(argv) for argv in argvs}
        assert routes == {"plain", "argparse"}

    def test_shipped_commands_take_the_plain_route(self):
        argvs = helpers.corpus_argvs() + check_cli_dispatch.readme_argvs()
        assert {check_cli_dispatch.route(argv) for argv in argvs} == {"plain"}

    def test_plain_requests_build_no_parser(
        self, fresh_parser_cache, monkeypatch, capsys, tmp_path
    ):
        def refuse():
            raise AssertionError("argparse ran")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert invoke(capsys, ["nodal", "hom", "P+", "P-[-1]", "--format=text"])[:2] == (
            0, "1\n"
        )
        assert invoke(capsys, ["corpus", str(tmp_path), "--format", "text"])[:2] == (
            0, "0 passed, 0 failed\n"
        )
        with pytest.raises(AssertionError, match="argparse ran"):
            run(["nodal", "hom", "P+", "P-[-1]", "--form", "text"])

    def test_usage_errors_come_from_argparse(self, capsys):
        code, out, err = invoke(capsys, ["nodal", "hom", "P+", "P-", "extra", "--x"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: singcat [-h]")
        assert err.endswith("singcat: error: unrecognized arguments: extra --x\n")

    def test_text_is_rendered_only_when_asked(self, fresh_parser_cache, monkeypatch, capsys):
        rendered = []
        serialize = cli.dga.serialize_graded_quiver

        def counting(quiver):
            rendered.append(quiver)
            return serialize(quiver)

        monkeypatch.setattr(cli.dga, "serialize_graded_quiver", counting)
        assert invoke(capsys, ["dga", "emit", "A3", "odd"])[0] == 0
        assert rendered == []
        assert invoke(capsys, ["dga", "emit", "A3", "odd", "--format", "text"])[0] == 0
        assert len(rendered) == 1


# ---------------------------------------------------------------------------
# plain match and JSON writer against argparse and json.dumps

COMMANDS = sorted(cli._COMMANDS)
VALUES = ["json", "text", "x", "3", "07", "-1", "-2..2", "0..1", "a.q", "1,2", "P+", "S+(1)"]


def table_arguments(words):
    """(flags, keywords) of each argument the table declares for ``words``."""
    for entry in cli._COMMON + cli._COMMANDS[words][2]:
        yield from entry if isinstance(entry, list) else [entry]


@st.composite
def command_words(draw, words):
    """Words for the command ``words``: one value per positional and a few
    option chunks in any order.  The chunks draw on the command's option
    strings, ``-h``, ``--help``, their abbreviations and ``=`` forms, values
    with and without a leading ``-``, ``""`` and ``--``."""
    arguments = list(table_arguments(words))
    options = sorted(
        flag for flags, _ in arguments for flag in flags if flag.startswith("-")
    ) + ["--help", "-h"]
    flags = options + [s[:n] for s in options if s.startswith("--") for n in range(3, len(s))]
    value = st.sampled_from(VALUES + ["", "--"])
    chunk = (
        st.tuples(st.sampled_from(flags), value).map(list)
        | st.builds("{}={}".format, st.sampled_from(flags), value).map(lambda w: [w])
        | st.sampled_from(flags + VALUES + ["", "--", "-h"]).map(lambda w: [w])
    )
    positionals = sum(not flags[0].startswith("-") for flags, _ in arguments)
    chunks = draw(st.lists(value.map(lambda w: [w]), min_size=positionals, max_size=positionals))
    chunks += draw(st.lists(chunk, max_size=4))
    return [word for chunk in draw(st.permutations(chunks)) for word in chunk]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_plain_parse_is_argparse_or_declines(data):
    words = data.draw(st.sampled_from(COMMANDS))
    argv = [*words, *data.draw(command_words(words))]
    taken = check_cli_dispatch.plain(argv)
    if taken is not None:
        full = check_cli_dispatch.outcome(cli._parser().parse_args, argv)
        assert (taken, None, "", "") == full


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | st.text()
    | st.text(st.sampled_from("\x00\x1f\x7f\"\\/\n\t\u2028é𝔸 "))
)
payloads = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=30,
)


class Level(enum.IntEnum):
    LOW = 1


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_json_writer_matches_json_dumps(payload):
    assert cli._json(payload) == json.dumps(payload, ensure_ascii=False, indent=2)


@settings(max_examples=100, deadline=None)
@given(
    payloads,
    st.sampled_from(
        [1.5, float("nan"), -0.0, Level.LOW, {1: "a"}, {Level.LOW: 2}, {True: 0}, [0.5]]
    ),
)
def test_json_writer_leaves_other_values_to_json_dumps(payload, odd):
    value = {"plain": payload, "nested": [payload, {"odd": odd}]}
    with pytest.raises(cli._NotPlain):
        cli._indented(value, "")
    assert cli._json(value) == json.dumps(value, ensure_ascii=False, indent=2)
