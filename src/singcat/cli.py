"""Command line entry point: ``singcat <module> <subcommand> ...``.

Every subcommand prints JSON by default (stable key order, canonical cycle
rotations, lexicographic vertex order) or a short text rendering with
``--format text``.  Domain errors exit with code 1 and a structured
diagnostic on stderr; usage errors exit with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import sys

from . import dg_auslander as dga
from . import gentle, nodal, surface
from .quiver import INT_DIGITS, SingcatError, parse_presentation


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SingcatError(
            f"cannot read {path}: {exc.strerror or exc}",
            precondition="input file is readable",
            witness={"path": path},
        ) from None


def _write(path: str, text: str) -> None:
    # "--out=" gives "", and some argparse releases store [] for "--out=--"
    if not isinstance(path, str) or not path:
        raise SingcatError(
            f"cannot write {path!r}: not a file name",
            precondition="output path is writable",
            witness={"path": path},
        )
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SingcatError(
            f"cannot write {path}: {exc.strerror or exc}",
            precondition="output path is writable",
            witness={"path": path},
        ) from None


def _print(text: str) -> None:
    """Print ``text`` to stdout and flush it, so a failed write shows here.

    A closed pipe stays a ``BrokenPipeError`` for ``run()``; any other
    failed write is reported as a failed ``--out`` write is.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise SingcatError(
            f"cannot write <stdout>: {exc.strerror or exc}",
            precondition="output path is writable",
            witness={"path": "<stdout>"},
        ) from None


def _load_presentation(path: str):
    return parse_presentation(_read(path))


def _load_graph(path: str):
    return surface.parse_dual_graph(_read(path))


# ---------------------------------------------------------------------------
# Every handler returns (payload, text, exit code): the payload is what
# --format json prints, and text() renders --format text.  run() calls only
# the one the request asks for.

# ---------------------------------------------------------------------------
# gentle


def _cmd_gentle_check(args):
    report = gentle.check_gentle(_load_presentation(args.file))
    payload = {
        "is_gentle": report.is_gentle,
        "violations": [
            {"condition": v.condition, "location": v.location, "detail": v.detail}
            for v in report.violations
        ],
    }

    def text():
        if report.is_gentle:
            return "gentle"
        return "not gentle\n" + "\n".join(
            f"{v.condition} at {v.location}: {v.detail}" for v in report.violations
        )

    return payload, text, 0


def _cmd_gentle_cycles(args):
    cycles = gentle.critical_cycles(_load_presentation(args.file))
    payload = {
        "cycles": [{"arrows": list(c.display), "length": c.length} for c in cycles]
    }

    def text():
        return "\n".join(f"{c.name} (length {c.length})" for c in cycles) or "no cycles"

    return payload, text, 0


def _cmd_gentle_gp(args):
    gp = gentle.gorenstein_projectives(_load_presentation(args.file))
    records = sorted(
        (
            {
                "cycle": cycle.name,
                "vertex": vertex,
                "top": module.top,
                "walk": list(module.arrows),
            }
            for (cycle, vertex), module in gp.radicals.items()
        ),
        key=lambda r: (r["cycle"], r["vertex"]),
    )
    payload = {"projectives": list(gp.projectives), "radicals": records}

    def text():
        lines = ["projectives: " + " ".join(gp.projectives)]
        for r in records:
            walk = " ".join(r["walk"]) if r["walk"] else "(simple)"
            lines.append(f"R[{r['cycle']}, {r['vertex']}]: top {r['top']}, walk {walk}")
        return "\n".join(lines)

    return payload, text, 0


def _cmd_gentle_singcat(args):
    dec = gentle.singularity_category(_load_presentation(args.file))
    payload = {
        "factors": list(dec.factors),
        "cycle_of_factor": [c.name for c in dec.cycle_of_factor],
    }

    def text():
        return "factors: " + (" ".join(map(str, dec.factors)) or "(none)")

    return payload, text, 0


def _cmd_gentle_compare(args):
    cmp = gentle.compare_invariant(
        _load_presentation(args.first), _load_presentation(args.second)
    )
    payload = {
        "compatible": cmp.compatible,
        "witness": {
            "only_first": list(cmp.only_first),
            "only_second": list(cmp.only_second),
        },
    }

    def text():
        if cmp.compatible:
            return "compatible"
        return (
            "incompatible: only first "
            + (" ".join(map(str, cmp.only_first)) or "-")
            + ", only second "
            + (" ".join(map(str, cmp.only_second)) or "-")
        )

    return payload, text, 0


# ---------------------------------------------------------------------------
# nodal


def _cmd_nodal_hom(args):
    xs = nodal.parse_object(args.source)
    ys = nodal.parse_object(args.target)
    dim = nodal.hom_dim_sum(xs, ys)
    return {"dim": dim}, lambda: str(dim), 0


_WINDOW_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _parse_shifts(window: str) -> tuple[int, int]:
    m = _WINDOW_RE.match(window)
    if not m:
        raise SingcatError(
            f"cannot parse shift window {window!r}",
            precondition="window looks like -4..4",
            witness={"shifts": window},
        )
    try:
        lo, hi = int(m.group(1)), int(m.group(2))
    except ValueError:
        raise SingcatError(
            "a bound of the shift window has too many digits",
            precondition=INT_DIGITS,
            witness={"shifts": window},
        ) from None
    if lo > hi:
        raise SingcatError(
            f"empty shift window {window!r}",
            precondition="window lower bound does not exceed upper bound",
            witness={"shifts": window},
        )
    return lo, hi


def _table_objects(lo: int, hi: int, maxlen: int):
    objs = []
    for sign in (nodal.PLUS, nodal.MINUS):
        objs += [nodal.NodalProjective(sign, n) for n in range(lo, hi + 1)]
    for sign in (nodal.PLUS, nodal.MINUS):
        for l in range(1, maxlen + 1):
            objs += [nodal.NodalString(sign, l, n) for n in range(lo, hi + 1)]
    return objs


def _cmd_nodal_table(args):
    lo, hi = _parse_shifts(args.shifts)
    if args.maxlen < 1:
        raise SingcatError(
            f"maxlen must be positive, got {args.maxlen}",
            precondition="maxlen >= 1",
            witness={"maxlen": args.maxlen},
        )
    objs = _table_objects(lo, hi, args.maxlen)
    names = [nodal.format_object(o) for o in objs]
    # hom_dim reads only the two types and the shift difference, so the table
    # holds one value per pair of blocks (one type over the window) and
    # difference d in [1 - k, k - 1].  Against a block, the block's last
    # object gives d <= 0 and its first object gives d > 0; entry d sits at
    # index d + k - 1, and the row of shift offset i takes the slice of d
    # from -i to k - 1 - i.
    k = hi - lo + 1
    blocks = [objs[start:start + k] for start in range(0, len(objs), k)]
    dims = []
    for xs in blocks:
        by_difference = [
            [nodal.hom_dim(xs[-1], y) for y in ys]
            + [nodal.hom_dim(xs[0], y) for y in ys[1:]]
            for ys in blocks
        ]
        for i in range(k):
            row = []
            for line in by_difference:
                row += line[k - 1 - i : 2 * k - 1 - i]
            dims.append(row)
    payload = {"objects": names, "dims": dims}

    def text():
        width = max(len(n) for n in names)
        cells = ["0".rjust(width), "1".rjust(width)]  # hom_dim is 0 or 1
        lines = [" " * (width + 1) + " ".join(n.rjust(width) for n in names)]
        for name, row in zip(names, dims):
            lines.append(name.rjust(width) + "  " + " ".join(map(cells.__getitem__, row)))
        return "\n".join(lines)

    return payload, text, 0


def _cmd_nodal_complex(args):
    summands = nodal.parse_object(args.string)
    if len(summands) != 1 or not isinstance(
        summands[0], (nodal.NodalString, nodal.ZeroString)
    ):
        raise SingcatError(
            f"expected a single minimal string like S+(2) or S(3), got {args.string!r}",
            precondition="argument is one unshifted minimal string",
            witness={"object": args.string},
        )
    s = summands[0]
    if s.shift != 0:
        raise SingcatError(
            "complexes are computed for unshifted strings",
            precondition="shift is zero",
            witness={"object": args.string},
        )
    if isinstance(s, nodal.NodalString):
        cx = nodal.minimal_string_complex(s.sign, s.length)
    else:
        cx = nodal.zero_string_complex(s.length)
    payload = {
        "terms": list(cx.terms),
        "differentials": [d.display() for d in cx.differentials],
    }

    def text():
        return (
            "terms: "
            + " ".join(cx.terms)
            + "\ndifferentials: "
            + " ".join(payload["differentials"])
        )

    return payload, text, 0


def _cmd_nodal_k0(args):
    summands = nodal.parse_object(args.object)
    cls = nodal.k0_class(summands)
    return {"class": [cls.plus, cls.minus]}, lambda: f"[{cls.plus}, {cls.minus}]", 0


# ---------------------------------------------------------------------------
# surface


def _cmd_surface_cyclic(args):
    expansion = surface.jung_hirzebruch(args.n, args.a)
    graph = surface.cyclic_dual_graph(args.n, args.a)
    payload = {
        "n": args.n,
        "a": args.a,
        "expansion": expansion,
        "graph": surface.dual_graph_to_json(graph),
    }

    def text():
        return (
            "expansion: "
            + " ".join(map(str, expansion))
            + "\n"
            + surface.serialize_dual_graph(graph).rstrip("\n")
        )

    return payload, text, 0


def _lines(mapping: dict) -> str:
    return "\n".join(f"{key}: {value}" for key, value in mapping.items())


def _cmd_surface_fundamental(args):
    graph = _load_graph(args.file)
    z = surface.fundamental_cycle(graph, seed=args.seed)
    ordered = {v: z[v] for v in sorted(z)}
    return {"coefficients": ordered}, lambda: _lines(ordered), 0


def _cmd_surface_decompose(args):
    graph = _load_graph(args.file)
    if args.all_minus_two:
        contracted = surface.all_minus_two(graph)
    else:
        contracted = [v for v in args.contract.split(",") if v]
    dec = surface.decompose(graph, contracted)
    payload = {
        "blocks": [b.name for b in dec.blocks],
        "components": [
            {"type": b.name, "vertices": list(vs)}
            for b, vs in zip(dec.blocks, dec.component_vertices)
        ],
    }

    def text():
        if not dec.blocks:
            return "empty decomposition"
        return "\n".join(
            f"{b.name}: " + " ".join(vs)
            for b, vs in zip(dec.blocks, dec.component_vertices)
        )

    return payload, text, 0


def _cmd_surface_ranks(args):
    graph = _load_graph(args.file)
    ranks = surface.special_ranks(graph)
    ordered = {v: ranks[v] for v in sorted(ranks)}
    return {"ranks": ordered}, lambda: _lines(ordered), 0


# ---------------------------------------------------------------------------
# dg-Auslander


def _cmd_dga_emit(args):
    raw = args.parity
    if raw in ("even", "odd"):
        parity = raw
    else:
        try:
            parity = dga.knoerrer_parity(int(raw))
        except ValueError:
            long = re.fullmatch(r"[+-]?\d+(?:_\d+)*", raw.strip())  # an int but for its length
            raise SingcatError(
                "the dimension has too many digits" if long
                else f"cannot parse parity argument {raw!r}",
                precondition=INT_DIGITS if long
                else "parity is 'even', 'odd' or a non-negative dimension",
                witness={"parity": raw},
            ) from None
    quiver = dga.dg_auslander(args.type, parity)
    return (
        dga.graded_quiver_to_json(quiver),
        lambda: dga.serialize_graded_quiver(quiver).rstrip("\n"),
        0,
    )


# ---------------------------------------------------------------------------
# corpus runner


def run_corpus(directory: str) -> tuple[dict, int]:
    """Replay recorded command invocations and compare their JSON output.

    Case files are ``*.json`` with fields ``argv`` (list of strings), and
    either ``expect`` (parsed stdout JSON, exit code 0) or ``exit`` plus
    ``expect_error_contains`` (substring of stderr) for failing commands.
    Relative paths inside argv resolve against the corpus directory.
    A malformed case file is a corpus error, not a case failure.
    """
    if not os.path.isdir(directory):
        raise SingcatError(
            f"corpus directory {directory!r} does not exist",
            precondition="corpus path is a directory",
            witness={"path": directory},
        )
    case_files = sorted(
        f for f in os.listdir(directory) if f.endswith(".json")
    )
    results = []
    failed = 0
    for name in case_files:
        path = os.path.join(directory, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                case = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SingcatError(
                f"corpus case {name} is not valid JSON: {exc}",
                precondition="case files contain valid JSON",
                witness={"case": name},
            ) from None
        if not isinstance(case, dict) or "argv" not in case:
            raise SingcatError(
                f"corpus case {name} lacks an argv field",
                precondition="case files carry argv and an expectation",
                witness={"case": name},
            )
        argv = case["argv"]
        expected_exit = case.get("exit", 0)
        if expected_exit == 0 and "expect" not in case:
            raise SingcatError(
                f"corpus case {name} lacks an expect field",
                precondition="case files carry argv and an expectation",
                witness={"case": name},
            )
        if not isinstance(argv, list) or not all(isinstance(s, str) for s in argv):
            raise SingcatError(
                f"corpus case {name} has a malformed argv",
                precondition="argv is a list of strings",
                witness={"case": name},
            )
        out, err = io.StringIO(), io.StringIO()
        prev = os.getcwd()
        try:
            os.chdir(directory)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(prev)
        status, detail = "pass", None
        if code != expected_exit:
            status = "fail"
            detail = f"exit {code}, expected {expected_exit}; stderr: {err.getvalue().strip()}"
        elif expected_exit == 0:
            try:
                got = json.loads(out.getvalue())
            except json.JSONDecodeError:
                got = None
            if got != case["expect"]:
                status = "fail"
                detail = f"output {json.dumps(got, ensure_ascii=False)} differs from expectation"
        else:
            needle = case.get("expect_error_contains", "")
            if needle not in err.getvalue():
                status = "fail"
                detail = f"stderr does not contain {needle!r}"
        if status == "fail":
            failed += 1
        record = {"case": name, "status": status}
        if detail:
            record["detail"] = detail
        results.append(record)
    payload = {
        "cases": results,
        "passed": len(results) - failed,
        "failed": failed,
    }
    return payload, 0 if failed == 0 else 1


def _cmd_corpus(args):
    payload, code = run_corpus(args.directory)

    def text():
        lines = [
            f"{r['status'].upper()} {r['case']}"
            + (f": {r['detail']}" if "detail" in r else "")
            for r in payload["cases"]
        ]
        lines.append(f"{payload['passed']} passed, {payload['failed']} failed")
        return "\n".join(lines)

    return payload, text, code


# ---------------------------------------------------------------------------
# command table

# The options every command takes, ahead of its own arguments.  An argument
# is (flags, add_argument keywords); only ``store`` arguments with one value
# and ``store_true`` options occur, which is what ``_plain`` matches.
_COMMON = [
    (("--format",), {"choices": ("json", "text"), "default": "json", "help": "output format"}),
    (("--out",), {"metavar": "FILE", "help": "write the output to FILE"}),
]

_MODULES = {
    "gentle": "gentle presentations",
    "nodal": "nodal block calculus",
    "surface": "resolution graphs",
    "dga": "dg-Auslander quivers",
}

_FILE = (("file",), {})

# (module, op) or ("corpus",) -> (handler, help, arguments).  A list among
# the arguments is a required mutually exclusive group.
_COMMANDS = {
    ("gentle", "check"): (_cmd_gentle_check, "report the gentle conditions", [_FILE]),
    ("gentle", "cycles"): (_cmd_gentle_cycles, "critical cycles", [_FILE]),
    ("gentle", "gp"): (_cmd_gentle_gp, "Gorenstein projectives", [_FILE]),
    ("gentle", "singcat"): (_cmd_gentle_singcat, "singularity block factors", [_FILE]),
    ("gentle", "compare"): (_cmd_gentle_compare, "compare block factors", [
        (("first",), {}),
        (("second",), {}),
    ]),
    ("nodal", "hom"): (_cmd_nodal_hom, "Hom dimension between objects", [
        (("source",), {}),
        (("target",), {}),
    ]),
    ("nodal", "table"): (_cmd_nodal_table, "Hom table over a window", [
        (("--shifts",), {"required": True, "help": "shift window, e.g. -2..2"}),
        (("--maxlen",), {"type": int, "required": True, "help": "largest string length"}),
    ]),
    ("nodal", "complex"): (_cmd_nodal_complex, "minimal string complex", [
        (("string",), {"help": "e.g. S+(2) or S(3)"}),
    ]),
    ("nodal", "k0"): (_cmd_nodal_k0, "class in the Grothendieck group", [(("object",), {})]),
    ("surface", "cyclic"): (_cmd_surface_cyclic, "cyclic quotient data", [
        (("n",), {"type": int}),
        (("a",), {"type": int}),
    ]),
    ("surface", "fundamental"): (_cmd_surface_fundamental, "fundamental cycle", [
        _FILE,
        (("--seed",), {"type": int, "metavar": "N", "help": "seed for randomized choices"}),
    ]),
    ("surface", "decompose"): (_cmd_surface_decompose, "ADE contraction blocks", [
        _FILE,
        [
            (("--contract",), {"help": "comma separated vertices"}),
            (("--all-minus-two",), {"action": "store_true", "help": "contract every (-2)-curve"}),
        ],
    ]),
    ("surface", "ranks"): (_cmd_surface_ranks, "special module ranks", [_FILE]),
    ("dga", "emit"): (_cmd_dga_emit, "emit a graded quiver", [
        (("type",), {"help": "ADE type, e.g. A7 or E8"}),
        (("parity",), {"help": "'even', 'odd' or an ambient dimension"}),
    ]),
    ("corpus",): (_cmd_corpus, "run recorded examples", [(("directory",), {})]),
}


def build_parser() -> argparse.ArgumentParser:
    """Return a fresh argparse parser for the ``singcat`` command line.

    ``run()`` does not call this per request: a plain command line needs no
    parser (``_plain``), and the others share one per process
    (``_parser()``), which keeps no request's state.
    """
    parser = argparse.ArgumentParser(prog="singcat", description=__doc__)
    top = parser.add_subparsers(dest="module", required=True)
    ops = {}
    for words, (handler, summary, arguments) in _COMMANDS.items():
        if len(words) == 1:
            choices = top
        else:
            choices = ops.get(words[0])
            if choices is None:
                module = top.add_parser(words[0], help=_MODULES[words[0]])
                choices = ops[words[0]] = module.add_subparsers(dest="op", required=True)
        p = choices.add_parser(words[-1], help=summary)
        for entry in _COMMON + arguments:
            if isinstance(entry, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flags, keywords in entry:
                    group.add_argument(*flags, **keywords)
            else:
                p.add_argument(*entry[0], **entry[1])
        p.set_defaults(handler=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


class _NotPlain(Exception):
    """Input the fast paths leave to argparse or ``json.dumps``."""


def _value(keywords: dict, word: str):
    """The value argparse stores for ``word``: type conversion, then choices."""
    try:
        value = keywords.get("type", str)(word)
    except ValueError:
        raise _NotPlain from None
    if value not in keywords.get("choices", (value,)):
        raise _NotPlain
    return value


@functools.cache
def _spec(words: tuple[str, ...]):
    """What ``_plain`` reads of the command ``words``: its options by flag
    as (dest, keywords, or None for ``store_true``), its positionals as
    (dest, keywords), the dests of each required option and of the group,
    exactly one of which must be given, and the namespace of defaults."""
    handler, _, arguments = _COMMANDS[words]
    options, positionals, one_of = {}, [], []
    defaults = dict(zip(("module", "op"), words))
    for entry in _COMMON + arguments:
        exclusive = isinstance(entry, list)
        dests = []
        for flags, keywords in entry if exclusive else [entry]:
            if not flags[0].startswith("-"):
                positionals.append((flags[0], keywords))
                continue
            dest = flags[0].lstrip("-").replace("-", "_")
            if keywords.get("action") == "store_true":
                options.update(dict.fromkeys(flags, (dest, None)))
                defaults[dest] = False
            else:
                options.update(dict.fromkeys(flags, (dest, keywords)))
                defaults[dest] = keywords.get("default")
            if exclusive or keywords.get("required"):
                dests.append(dest)
        if dests:
            one_of.append(dests)
    defaults["handler"] = handler
    return options, positionals, one_of, defaults


def _plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``_parser().parse_args(argv)`` builds, when ``argv`` is
    a command of ``_COMMANDS`` followed by plain words only; otherwise None.

    Plain words are exact option strings, each given once, a value word
    after a ``store`` option that is non-empty and does not start with
    ``-`` (or a ``--option=value`` word, whose value is taken verbatim), and
    one word for each positional, such that every conversion and choice
    passes, every required option is present and the mutually exclusive
    group has exactly one member.  Help, abbreviations, ``--``, negative
    numbers and every error are left to argparse.
    """
    words = tuple(argv[:2])
    if words not in _COMMANDS:
        words = words[:1]
        if words not in _COMMANDS:
            return None
    options, positionals, one_of, defaults = _spec(words)
    seen: dict = {}
    given = []
    rest = iter(argv[len(words):])
    try:
        for word in rest:
            if word[:1] != "-":
                if not word:
                    return None
                given.append(word)
                continue
            option = options.get(word)
            if option is None:
                name, _, value = word.partition("=")
                option = options.get(name)
                # argparse releases differ on an explicit "--" value
                if option is None or option[1] is None or value == "--":
                    return None
            elif option[1] is not None:
                value = next(rest, "")
                if value[:1] in ("", "-"):
                    return None
            dest, keywords = option
            if dest in seen:
                return None
            seen[dest] = True if keywords is None else _value(keywords, value)
        if len(given) != len(positionals):
            return None
        for (dest, keywords), word in zip(positionals, given):
            seen[dest] = _value(keywords, word)
    except _NotPlain:
        return None
    for dests in one_of:
        if sum(dest in seen for dest in dests) != 1:
            return None
    return argparse.Namespace(**{**defaults, **seen})


def _is_shifts_flag(token: str) -> bool:
    """``--shifts`` or an abbreviation of it (``--s`` and longer), which
    argparse resolves to it alone."""
    return len(token) > 2 and "--shifts".startswith(token)


def _join_shift_windows(argv: list[str]) -> list[str]:
    """Rewrite ``--shifts -2..2`` as ``--shifts=-2..2``, up to a ``--``.

    argparse reads a separate token that starts with ``-`` and is no plain
    negative number as an option, so the window needs the ``=`` form.  The
    flag is kept as typed, so ``--shift -2..2`` becomes ``--shift=-2..2``.
    """
    joined: list[str] = []
    for i, token in enumerate(argv):
        if token == "--":
            return joined + argv[i:]
        if joined and _is_shifts_flag(joined[-1]) and _WINDOW_RE.match(token):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, without building argparse's parser
    for a plain command line."""
    return _plain(argv) or _parser().parse_args(argv)


# ---------------------------------------------------------------------------
# JSON output

_QUOTE = json.encoder.encode_basestring  # the ensure_ascii=False quoting
_SCALAR_LIST = {int: int.__repr__, str: _QUOTE}  # one join for such a list


def _indented(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, ensure_ascii=False, indent=2)``
    writes it at depth ``indent``; ``_NotPlain`` for any value that is not a
    dict with str keys, list, tuple, str, int, bool or None (exact types)."""
    kind = type(value)
    if kind is str:
        return _QUOTE(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        if set(map(type, value)) != {str}:
            raise _NotPlain
        items = [_QUOTE(key) + ": " + _indented(item, inner) for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        scalar = _SCALAR_LIST.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, value) if scalar else [_indented(x, inner) for x in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    raise _NotPlain


def _json(payload) -> str:
    """``json.dumps(payload, ensure_ascii=False, indent=2)``, byte for byte.

    Any ``indent`` sends ``json.dumps`` to its pure-Python encoder, so the
    plain payloads the handlers build are written directly; anything else
    is left to ``json.dumps``.
    """
    try:
        return _indented(payload, "")
    except _NotPlain:
        return json.dumps(payload, ensure_ascii=False, indent=2)


def run(argv) -> int:
    try:
        args = _parse(_join_shift_windows(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, text, code = args.handler(args)
        rendered = _json(payload) if args.format == "json" else text()
        if args.out is None:
            _print(rendered)
        else:
            _write(args.out, rendered + "\n")
    except BrokenPipeError:
        # the reader went away (``singcat ... | head``): stop quietly, with
        # the status a shell reports for a process ended by SIGPIPE
        return 141
    except SingcatError as err:
        sys.stderr.write(
            json.dumps({"error": err.diagnostic()}, ensure_ascii=False) + "\n"
        )
        return 1
    return code


def main():
    code = run(sys.argv[1:])
    if code == 141:
        # Python's recipe for a closed pipe: what may still be buffered goes
        # to devnull, so the flush at exit cannot raise BrokenPipeError again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
