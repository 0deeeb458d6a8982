"""Parse routes of ``singcat.cli.run`` against the full argparse parse.

``run()`` matches a plain ``singcat <module> <op> ...`` line against the
command table (``cli._plain``) without building argparse's parser, and
hands every other command line to that parser.  For each request this
script parses the command line both ways and compares the outcome:
``vars(namespace)`` when parsing succeeds, and the exit code, stdout and
stderr when it stops (a usage error or ``--help``).  It also compares the
plain match on its own with the full parse.  The requests are every corpus
argv, every ``singcat`` line of the README and cases at the edges of the
match: arguments left over, unknown options after the op, ``-h`` at each
level, ``--sh -2..2``, ``--`` separators, a module without an op, unknown
names, ``=`` forms, repeated options and values that start with ``-``.
argparse changes between Python releases (``--out=--``, for one), so run
it under each supported interpreter.  Runs without pytest, against
whichever singcat the interpreter finds::

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
    # arguments left over after the command
    ["nodal", "hom", "P+", "P-", "extra"],
    ["nodal", "hom", "P+", "P-", "extra", "--x"],
    ["gentle", "compare", "a.q", "b.q", "c.q", "d.q"],
    ["corpus", ".", "extra"],
    # unknown options after the op
    ["surface", "cyclic", "27", "19", "--bogus"],
    ["surface", "cyclic", "27", "19", "--bogus=1", "x"],
    ["gentle", "check", "a.q", "-x"],
    ["gentle", "check", "a.q", "--seed", "3"],
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
    # the command's own errors and defaults
    ["gentle", "check"],
    ["gentle", "check", "--format", "xml", "a.q"],
    ["surface", "decompose", "g.graph", "--contract", "1", "--all-minus-two"],
    ["surface", "decompose", "g.graph"],
    ["surface", "fundamental", "t.graph", "--seed", "3", "--out", "z.json"],
    ["surface", "fundamental", "t.graph", "--seed", "x"],
    ["surface", "cyclic", "-5", "3"],
    ["dga", "emit", "A3", "-1"],
    ["nodal", "hom", "P+", "P-", "--out"],
    # words the plain match must take as argparse does, or decline
    ["nodal", "hom", "P+", "P-", "--format=json"],
    ["nodal", "hom", "P+", "P-", "--format="],
    ["nodal", "hom", "P+", "P-", "--out="],
    ["nodal", "hom", "P+", "P-", "--out=--"],
    ["nodal", "hom", "P+", "P-", "--format", "text", "--format", "json"],
    ["surface", "decompose", "g.graph", "--all-minus-two=x"],
    ["surface", "decompose", "g.graph", "--all-minus-two", "--out", "d.json"],
    ["surface", "decompose", "--contract=1,2", "g.graph"],
    ["surface", "fundamental", "t.graph", "--seed", "-1"],
    ["surface", "fundamental", "t.graph", "--seed=-1"],
    ["nodal", "table", "--shifts=0..1", "--maxlen", "07"],
    ["nodal", "table", "--shifts=0..1"],
    ["surface", "cyclic", "-27", "19"],
    ["surface", "cyclic", "27", "19", "--format", "text"],
    ["nodal", "hom", "", "P-"],
    ["nodal", "k0", "S+(1)", ""],
    ["corpus", "corpus", "--format", "text", "--out", "c.txt"],
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


def plain(argv: list[str]):
    """``vars`` of the namespace the plain match makes of ``argv``, or None
    when it declines."""
    namespace = cli._plain(argv)
    return None if namespace is None else vars(namespace)


def route(argv: list[str]) -> str:
    """The parse ``run()`` gives ``argv``: "plain" or "argparse"."""
    return "argparse" if plain(cli._join_shift_windows(list(argv))) is None else "plain"


def mismatches(argvs):
    """(argv, path, its outcome, full outcome) for each disagreement: path
    "dispatch" is ``cli._parse`` as a whole, "plain" the plain match."""
    full = cli._parser().parse_args
    for argv in argvs:
        argv = cli._join_shift_windows(list(argv))
        expected = outcome(full, argv)
        got = outcome(cli._parse, argv)
        if got != expected:
            yield argv, "dispatch", got, expected
        taken = plain(argv)
        if taken is not None and (taken, None, "", "") != expected:
            yield argv, "plain", taken, expected


def main() -> int:
    argvs = requests()
    found = list(mismatches(argvs))
    for argv, path, got, expected in found:
        print(f"MISMATCH {argv}\n  {path}: {got}\n  full: {expected}")
    routes = [route(argv) for argv in argvs]
    print(f"python {sys.version.split()[0]}: {len(argvs)} requests, "
          f"{routes.count('plain')} plain, {routes.count('argparse')} argparse, "
          f"{len(found)} mismatches")
    return int(bool(found))


if __name__ == "__main__":
    sys.exit(main())
