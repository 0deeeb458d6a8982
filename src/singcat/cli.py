"""Command line entry point: ``singcat <module> <subcommand> ...``.

Every subcommand prints JSON by default (stable key order, canonical cycle
rotations, lexicographic vertex order) or a short text rendering with
``--format text``.  Domain errors exit with code 1 and a structured
diagnostic on stderr; usage errors exit with code 2.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import sys
import types

from . import dg_auslander as dga
from . import gentle, nodal, surface
from .quiver import INT_DIGITS, SingcatError, _read_int, parse_presentation


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        raise SingcatError(
            f"cannot read {path}: byte {exc.start} is not UTF-8",
            precondition="input file is UTF-8 text",
            witness={"path": path, "byte": exc.start},
        ) from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise SingcatError(
            f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}",
            precondition="input file is readable",
            witness={"path": path},
        ) from None


def _unwritable(path, shown: str, reason) -> SingcatError:
    """The refusal of a failed write to ``path``, shown as ``shown``."""
    return SingcatError(
        f"cannot write {shown}: {reason}",
        precondition="output path is writable",
        witness={"path": path},
    )


def _write(path: str, text: str) -> None:
    if not path:  # "--out="
        raise _unwritable(path, repr(path), "not a file name")
    try:
        # encoded first, so text that UTF-8 cannot hold leaves no file
        data = text.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
    except (OSError, ValueError) as exc:  # text UTF-8 cannot hold, or a NUL in the path
        raise _unwritable(path, path, getattr(exc, "strerror", None) or exc) from None


def _print(text: str) -> None:
    """Print ``text`` to stdout and flush it, so a failed write shows here.

    A closed pipe stays a ``BrokenPipeError`` for ``run()``; any other
    failed write, text the stream's encoding cannot hold included, is
    reported as a failed ``--out`` write is.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        raise
    except (OSError, UnicodeEncodeError) as exc:
        raise _unwritable("<stdout>", "<stdout>", getattr(exc, "strerror", None) or exc) from None


# ---------------------------------------------------------------------------
# Every handler returns (payload, text, exit code): the payload is what
# --format json prints, and text() renders --format text.  run() calls only
# the one the request asks for.

# ---------------------------------------------------------------------------
# gentle


def _cmd_gentle_check(args):
    report = gentle.check_gentle(parse_presentation(_read(args.file)))
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
    cycles = gentle.critical_cycles(parse_presentation(_read(args.file)))
    payload = {
        "cycles": [{"arrows": list(c.display), "length": c.length} for c in cycles]
    }

    def text():
        return "\n".join(f"{c.name} (length {c.length})" for c in cycles) or "no cycles"

    return payload, text, 0


def _cmd_gentle_gp(args):
    gp = gentle.gorenstein_projectives(parse_presentation(_read(args.file)))
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
    dec = gentle.singularity_category(parse_presentation(_read(args.file)))
    payload = {
        "factors": list(dec.factors),
        "cycle_of_factor": [c.name for c in dec.cycle_of_factor],
    }

    def text():
        return "factors: " + (" ".join(map(str, dec.factors)) or "(none)")

    return payload, text, 0


def _cmd_gentle_compare(args):
    cmp = gentle.compare_invariant(
        parse_presentation(_read(args.first)), parse_presentation(_read(args.second))
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


_WINDOW_RE = re.compile(r"(-?\d+)\.\.(-?\d+)")  # used with fullmatch


def _parse_shifts(window: str) -> tuple[int, int]:
    m = _WINDOW_RE.fullmatch(window)
    if not m:
        raise SingcatError(
            f"cannot parse shift window {window!r}",
            precondition="window looks like -4..4",
            witness={"shifts": window},
        )
    lo, hi = [
        _read_int(bound, SingcatError, "a bound of the shift window", "shifts", window)
        for bound in m.groups()
    ]
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
    graph = surface.cyclic_dual_graph(args.n, args.a)
    expansion = [-graph.weights[v] for v in graph.vertices]
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
    graph = surface.parse_dual_graph(_read(args.file))
    z = surface.fundamental_cycle(graph, seed=args.seed)
    ordered = {v: z[v] for v in sorted(z)}
    return {"coefficients": ordered}, lambda: _lines(ordered), 0


def _cmd_surface_decompose(args):
    graph = surface.parse_dual_graph(_read(args.file))
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
    graph = surface.parse_dual_graph(_read(args.file))
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


def _bad_case(name: str, fault: str, precondition: str) -> SingcatError:
    """The refusal of the corpus case file ``name``."""
    return SingcatError(f"corpus case {name} {fault}", precondition=precondition,
                        witness={"case": name})


def run_corpus(directory: str) -> tuple[dict, int]:
    """Replay recorded command invocations and compare their JSON output.

    Case files are ``*.json`` with fields ``argv`` (list of strings), and
    either ``expect`` (parsed stdout JSON, exit code 0) or ``exit`` plus
    ``expect_error_contains`` (substring of stderr) for failing commands.
    Relative paths inside argv resolve against the corpus directory, and a
    case may not write a file (``--out``).  A case file is read as every
    input file is (``_read``), and one that cannot be read or is malformed
    is a corpus error, not a case failure.
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
        try:
            case = json.loads(_read(os.path.join(directory, name)))
        except json.JSONDecodeError as exc:
            raise _bad_case(name, f"is not valid JSON: {exc}",
                            "case files contain valid JSON") from None
        except ValueError:  # valid JSON, with a number past Python's digit limit
            raise _bad_case(name, "holds an integer with too many digits", INT_DIGITS) from None
        except RecursionError:  # valid JSON, nested past Python's recursion limit
            raise _bad_case(name, "is nested too deeply",
                            "case JSON nests within Python's recursion limit") from None
        if not isinstance(case, dict) or "argv" not in case:
            raise _bad_case(name, "lacks an argv field", "case files carry argv and an expectation")
        argv = case["argv"]
        expected_exit = case.get("exit", 0)
        if expected_exit == 0 and "expect" not in case:
            raise _bad_case(name, "lacks an expect field",
                            "case files carry argv and an expectation")
        if not isinstance(argv, list) or not all(isinstance(s, str) for s in argv):
            raise _bad_case(name, "has a malformed argv", "argv is a list of strings")
        if argv[:1] == ["corpus"]:
            raise _bad_case(name, "replays a corpus", "a case replays one command, not a corpus")
        needle = case.get("expect_error_contains", "")
        if not isinstance(needle, str):
            raise _bad_case(name, "has a malformed expect_error_contains",
                            "expect_error_contains is a string")
        request = _request(argv)
        # a case that names --out could overwrite the corpus being replayed
        if not isinstance(request, _UsageError) and request.out is not None:
            raise _bad_case(name, "writes a file", "a case writes to stdout, not to a file")
        out, err = io.StringIO(), io.StringIO()
        prev = os.getcwd()
        try:
            os.chdir(directory)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _replay(request)
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
        elif needle not in err.getvalue():
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
# is (name, keywords): an option ("-" name) takes one value unless it is a
# ``flag``, a positional takes one word.  Keywords: ``type``, ``choices``,
# ``default``, ``required``, and ``metavar`` and ``help`` for help.
_COMMON = [
    ("--format", {"choices": ("json", "text"), "default": "json", "help": "output format"}),
    ("--out", {"metavar": "FILE", "help": "write the output to FILE"}),
]

_MODULES = {
    "gentle": "gentle presentations",
    "nodal": "nodal block calculus",
    "surface": "resolution graphs",
    "dga": "dg-Auslander quivers",
}

_FILE = ("file", {})

# (module, op) or ("corpus",) -> (handler, help, arguments).  A list among
# the arguments is a required mutually exclusive group.
_COMMANDS = {
    ("gentle", "check"): (_cmd_gentle_check, "report the gentle conditions", [_FILE]),
    ("gentle", "cycles"): (_cmd_gentle_cycles, "critical cycles", [_FILE]),
    ("gentle", "gp"): (_cmd_gentle_gp, "Gorenstein projectives", [_FILE]),
    ("gentle", "singcat"): (_cmd_gentle_singcat, "singularity block factors", [_FILE]),
    ("gentle", "compare"): (_cmd_gentle_compare, "compare block factors",
                            [("first", {}), ("second", {})]),
    ("nodal", "hom"): (_cmd_nodal_hom, "Hom dimension between objects",
                       [("source", {}), ("target", {})]),
    ("nodal", "table"): (_cmd_nodal_table, "Hom table over a window", [
        ("--shifts", {"required": True, "help": "shift window, e.g. -2..2"}),
        ("--maxlen", {"type": int, "required": True, "help": "largest string length"}),
    ]),
    ("nodal", "complex"): (_cmd_nodal_complex, "minimal string complex",
                           [("string", {"help": "e.g. S+(2) or S(3)"})]),
    ("nodal", "k0"): (_cmd_nodal_k0, "class in the Grothendieck group", [("object", {})]),
    ("surface", "cyclic"): (_cmd_surface_cyclic, "cyclic quotient data",
                            [("n", {"type": int}), ("a", {"type": int})]),
    ("surface", "fundamental"): (_cmd_surface_fundamental, "fundamental cycle", [
        _FILE,
        ("--seed", {"type": int, "metavar": "N", "help": "seed for randomized choices"}),
    ]),
    ("surface", "decompose"): (_cmd_surface_decompose, "ADE contraction blocks", [
        _FILE,
        [
            ("--contract", {"help": "comma separated vertices"}),
            ("--all-minus-two", {"flag": True, "help": "contract every (-2)-curve"}),
        ],
    ]),
    ("surface", "ranks"): (_cmd_surface_ranks, "special module ranks", [_FILE]),
    ("dga", "emit"): (_cmd_dga_emit, "emit a graded quiver", [
        ("type", {"help": "ADE type, e.g. A7 or E8"}),
        ("parity", {"help": "'even', 'odd' or an ambient dimension"}),
    ]),
    ("corpus",): (_cmd_corpus, "run recorded examples", [("directory", {})]),
}


# ---------------------------------------------------------------------------
# command line reader

# an argument as the reader holds it: (name, namespace attribute, keywords)
_HELP = ("-h, --help", "help", {"flag": True, "help": "show this help message and exit"})
_HELPS = {"-h": _HELP, "--help": _HELP}
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")  # a positional, not an option (fullmatch)


class _UsageError(Exception):
    """A command line the table does not read: its usage and error lines."""


def _shown(name: str, keywords: dict) -> str:
    """An argument as usage and help show it: an option with its value."""
    if name[0] != "-" or keywords.get("flag"):
        return name
    choices = keywords.get("choices")
    value = "{" + ",".join(choices) + "}" if choices else name.lstrip("-").upper()
    return f"{name} {keywords.get('metavar', value)}"


class _Reader:
    """The ``singcat`` command line, read against ``_COMMANDS``.  After the
    command's words, a word that starts with ``-`` is an option, unless it is
    ``-``, a negative number or after ``--``.  An option is named in full, by
    a unique ``--`` prefix or as ``--name=value``; one that takes a value reads
    the next word as it, whatever it is.  The last of repeated options wins."""

    def __init__(self):
        # the words that may follow a prefix of command words, with help; each
        # command's arguments, options by name, positionals, required
        # arguments, exclusive group and namespace of defaults
        self.choices, self.commands = {}, {}
        for words, (handler, summary, table) in _COMMANDS.items():
            for n, word in enumerate(words):
                shown = summary if n == len(words) - 1 else _MODULES[word]
                self.choices.setdefault(words[:n], {})[word] = shown
            arguments = [_HELP] + [
                (name, name.lstrip("-").replace("-", "_"), keywords)
                for entry in _COMMON + table
                for name, keywords in (entry if isinstance(entry, list) else [entry])
            ]
            options = {**_HELPS, **{a[0]: a for a in arguments[1:] if a[0][0] == "-"}}
            self.commands[words] = (
                arguments, options, [a for a in arguments if a[0][0] != "-"],
                [a[0] for a in arguments if a[0][0] != "-" or a[2].get("required")],
                [name for entry in table if isinstance(entry, list) for name, _ in entry],
                {"handler": handler, **{a[1]: a[2].get("default") for a in options.values()}},
            )

    def parse(self, argv) -> types.SimpleNamespace:
        """The namespace of ``argv``: the command's ``handler`` and one
        attribute per argument.  Help is a namespace whose handler renders
        it; anything else the table does not read, an ``argv`` that is not a
        list of str included, raises ``_UsageError``."""
        if not isinstance(argv, list) or not all(isinstance(word, str) for word in argv):
            raise self.error((), "argv is not a list of str")
        words, rest = (), list(argv)
        while words not in self.commands:
            slot = ("op" if words else "module", None, {"choices": self.choices[words]})
            if not rest:
                raise self.error(words, f"the following arguments are required: {slot[0]}")
            if self.option(_HELPS, rest[0])[0]:
                return self.help(words)
            words += (self.value(words, slot, rest.pop(0)),)
        _, options, positionals, required, group, values = self.commands[words]
        values, given, extras = dict(values), set(), []
        args, slots, dashed = iter(rest), iter(positionals), False
        for word in args:
            if word == "--" and not dashed:
                dashed = True
                continue
            if dashed or word[:1] != "-" or word == "-" or _NEGATIVE.fullmatch(word):
                argument, value = next(slots, None), word
            else:
                argument, value = self.option(options, word)
            if argument is None:
                extras.append(word)
                continue
            name, dest, keywords = argument
            if keywords.get("flag"):
                if value is not None:
                    raise self.error(words, f"argument {name}: ignored explicit argument {value!r}")
                if argument is _HELP:
                    return self.help(words)
                value = True
            else:
                value = next(args, None) if value is None else value
                if value is None:
                    raise self.error(words, f"argument {name}: expected one argument")
                value = self.value(words, argument, value)
            values[dest] = value
            given.add(name)
        missing = [name for name in required if name not in given]
        if missing:
            raise self.error(words, "the following arguments are required: " + ", ".join(missing))
        if group and len(given.intersection(group)) != 1:
            raise self.error(words, f"exactly one of the arguments {' '.join(group)} is required")
        if extras:
            raise self.error(words, "unrecognized arguments: " + " ".join(extras))
        return types.SimpleNamespace(**values)

    @staticmethod
    def option(options: dict, word: str) -> tuple:
        """(the argument of ``options`` that ``word`` names in full or by a
        unique ``--`` prefix, or None; the value after its ``=``, or None)."""
        name, eq, value = word.partition("=") if word[:2] == "--" else (word, "", "")
        if name not in options and name[:2] == "--" and len(name) > 2:
            matches = [flag for flag in options if flag.startswith(name)]
            name = matches[0] if len(matches) == 1 else name
        return options.get(name), value if eq else None

    def value(self, words, argument: tuple, word: str):
        """``word`` as the value of ``argument``: converted, then checked
        against its choices."""
        name, _, keywords = argument
        kind, choices = keywords.get("type", str), keywords.get("choices")
        try:
            value = kind(word)
        except ValueError:
            problem = f"invalid {kind.__name__} value: {word!r}"
        else:
            if choices is None or value in choices:
                return value
            problem = f"invalid choice: {word!r} (choose from {', '.join(map(repr, choices))})"
        raise self.error(words, f"argument {name}: {problem}")

    def usage(self, words) -> str:
        parts = ["singcat", *words, "[-h]"]
        if words not in self.commands:
            return " ".join(parts + ["{" + ",".join(self.choices[words]) + "}", "..."])
        for entry in _COMMON + _COMMANDS[words][2]:
            if isinstance(entry, list):
                parts.append("(" + " | ".join(_shown(*argument) for argument in entry) + ")")
            else:
                optional = entry[0][0] == "-" and not entry[1].get("required")
                parts.append(f"[{_shown(*entry)}]" if optional else _shown(*entry))
        return " ".join(parts)

    def error(self, words, message: str) -> _UsageError:
        prog = " ".join(("singcat", *words))
        return _UsageError(f"usage: {self.usage(words)}\n{prog}: error: {message}\n")

    def help(self, words) -> types.SimpleNamespace:
        """A namespace whose handler renders the help of ``words``: the usage
        line, then each argument or each word that may follow, with its help."""
        if words in self.commands:
            rows = [(_shown(a[0], a[2]), a[2].get("help", "")) for a in self.commands[words][0]]
        else:
            rows = [(_HELP[0], _HELP[2]["help"]), *self.choices[words].items()]
        width = max(len(left) for left, _ in rows)
        text = "\n".join([f"usage: {self.usage(words)}", ""] + [
            f"  {left:<{width}}  {right}".rstrip() for left, right in rows
        ])
        return types.SimpleNamespace(handler=lambda _: (None, lambda: text, 0),
                                     format="text", out=None)


def build_parser() -> _Reader:
    """A fresh reader of the command line; ``run()`` reads every request of
    a process with one (``_parser()``), which keeps no request's state."""
    return _Reader()


@functools.cache
def _parser() -> _Reader:
    return build_parser()


# ---------------------------------------------------------------------------
# JSON output


_QUOTE = json.encoder.encode_basestring  # the ensure_ascii=False quoting
_SCALAR_LIST = {int: int.__repr__, str: _QUOTE}  # one join for such a list


def _indented(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, ensure_ascii=False, indent=2)``
    writes it at depth ``indent``, byte for byte; ``TypeError`` for any value
    that is not a dict with str keys, list, tuple, str, int, bool or None
    (exact types).

    Any ``indent`` sends ``json.dumps`` to its pure-Python encoder, so the
    payloads the handlers build, which hold only these values, are written
    directly: ``run()`` calls ``_indented(payload, "")``.
    """
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
        items = [_QUOTE(key) + ": " + _indented(item, inner) for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        scalar = _SCALAR_LIST.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, value) if scalar else [_indented(x, inner) for x in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    raise TypeError(f"the JSON writer does not take {kind.__name__}")


def _request(argv) -> types.SimpleNamespace | _UsageError:
    """The namespace of ``argv``, or the reader's refusal of it."""
    try:
        return _parser().parse(argv)
    except _UsageError as error:
        return error


def _replay(args: types.SimpleNamespace | _UsageError) -> int:
    """Answer what ``_request`` read: run the handler and write what it
    renders, or write the reader's refusal; the exit status."""
    if isinstance(args, _UsageError):
        sys.stderr.write(str(args))
        return 2
    try:
        payload, text, code = args.handler(args)
        rendered = _indented(payload, "") if args.format == "json" else text()
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


def run(argv) -> int:
    return _replay(_request(argv))


def main():
    code = run(sys.argv[1:])
    if code == 141:
        # Python's recipe for a closed pipe: what may still be buffered goes
        # to devnull, so the flush at exit cannot raise BrokenPipeError again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
