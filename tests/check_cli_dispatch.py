"""Leaf dispatch of ``singcat.cli.run`` against the full argparse parse.

``run()`` hands ``singcat <module> <op> ...`` straight to the op's own
subparser and every other command line to the full parser.  For each
request this script parses the command line both ways and compares the
outcome: ``vars(namespace)`` when parsing succeeds, and the exit code,
stdout and stderr when it stops (a usage error or ``--help``).  The
requests are every corpus argv, every ``singcat`` line of the README and
cases at the edges of the dispatch: arguments left over, unknown options
after the op, ``-h`` at each level, ``--sh -2..2``, ``--`` separators, a
module without an op and unknown names.  argparse changes between Python
releases, so run it under each supported interpreter.  Runs without pytest,
against whichever singcat the interpreter finds::

    python tests/check_cli_dispatch.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

from singcat import cli

ROOT = Path(__file__).resolve().parent.parent

EDGE_CASES = [
    # arguments left over after the leaf
    ["nodal", "hom", "P+", "P-", "extra"],
    ["gentle", "compare", "a.q", "b.q", "c.q", "d.q"],
    ["corpus", ".", "extra"],
    # unknown options after the op
    ["surface", "cyclic", "27", "19", "--bogus"],
    ["surface", "cyclic", "27", "19", "--bogus=1", "x"],
    ["gentle", "check", "a.q", "-x"],
    # help at each level
    ["-h"],
    ["--help"],
    ["nodal", "-h"],
    ["surface", "--help"],
    ["nodal", "table", "-h"],
    ["dga", "emit", "A3", "odd", "--help"],
    ["corpus", "-h"],
    ["nodal", "hom", "P+", "P-", "--he"],
    # shift windows and abbreviations
    ["nodal", "table", "--sh", "-2..2", "--maxlen", "1"],
    ["nodal", "table", "--shifts", "-2..2", "--maxlen", "1", "--format", "text"],
    ["nodal", "table", "--shifts=-2..-1", "--maxlen", "2"],
    ["nodal", "table", "--s", "-2..2", "--maxlen", "1"],
    ["nodal", "table", "--shifts", "-x", "--maxlen", "3"],
    ["nodal", "table", "--maxlen", "x", "--shifts=0..1"],
    ["nodal", "hom", "P+", "P-", "--form", "text"],
    # separators
    ["nodal", "hom", "--", "P+", "P-"],
    ["nodal", "hom", "P+", "--", "-P"],
    ["nodal", "table", "--maxlen", "1", "--shifts", "--", "-2..2"],
    ["nodal", "--", "hom", "P+", "P-"],
    ["--", "nodal", "hom", "P+", "P-"],
    # modules without an op, unknown names, options before the op
    [],
    ["nodal"],
    ["corpus"],
    ["gentle", "bogus"],
    ["bogus"],
    ["bogus", "hom"],
    ["nodal", "--format", "text", "hom", "P+", "P-"],
    ["--format", "text", "nodal", "hom", "P+", "P-"],
    # the leaf's own errors and defaults
    ["gentle", "check"],
    ["gentle", "check", "--format", "xml", "a.q"],
    ["surface", "decompose", "g.graph", "--contract", "1", "--all-minus-two"],
    ["surface", "decompose", "g.graph"],
    ["surface", "fundamental", "t.graph", "--seed", "3", "--out", "z.json"],
    ["surface", "fundamental", "t.graph", "--seed", "x"],
    ["surface", "cyclic", "-5", "3"],
    ["dga", "emit", "A3", "-1"],
    ["nodal", "hom", "P+", "P-", "--out"],
]


def corpus_argvs() -> list[list[str]]:
    return [
        json.loads(path.read_text(encoding="utf-8"))["argv"]
        for path in sorted((ROOT / "corpus").glob("*.json"))
    ]


def readme_argvs() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [
        shlex.split(line, comments=True)[1:]
        for block in re.finditer(r"^```sh\n(.*?)^```$", text, re.M | re.S)
        for line in block.group(1).splitlines()
        if line.startswith("singcat ")
    ]


def requests() -> list[list[str]]:
    return corpus_argvs() + readme_argvs() + EDGE_CASES


def outcome(parse, argv: list[str]) -> tuple:
    """(namespace as a dict or None, exit code, stdout, stderr) of ``parse``."""
    out, err = io.StringIO(), io.StringIO()
    namespace = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def through_leaf(argv: list[str]) -> bool:
    leaves = cli._parser().leaves
    return tuple(argv[:2]) in leaves or tuple(argv[:1]) in leaves


def mismatches(argvs):
    """(argv, leaf outcome, full outcome) for each request the two disagree on."""
    full = cli._parser().parse_args
    for argv in argvs:
        argv = cli._join_shift_windows(list(argv))
        got, expected = outcome(cli._parse, argv), outcome(full, argv)
        if got != expected:
            yield argv, got, expected


def main() -> int:
    argvs = requests()
    found = list(mismatches(argvs))
    for argv, got, expected in found:
        print(f"MISMATCH {argv}\n  leaf: {got}\n  full: {expected}")
    leaf = sum(through_leaf(argv) for argv in argvs)
    print(f"python {sys.version.split()[0]}: {len(argvs)} requests, {leaf} through "
          f"a leaf, {len(found)} mismatches")
    return int(bool(found))


if __name__ == "__main__":
    sys.exit(main())
