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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SingcatError(
            f"cannot write {path}: {exc.strerror or exc}",
            precondition="output path is writable",
            witness={"path": path},
        ) from None


def _load_presentation(path: str):
    return parse_presentation(_read(path))


def _load_graph(path: str):
    return surface.parse_dual_graph(_read(path))


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
    if report.is_gentle:
        text = "gentle"
    else:
        text = "not gentle\n" + "\n".join(
            f"{v.condition} at {v.location}: {v.detail}" for v in report.violations
        )
    return payload, text, 0


def _cmd_gentle_cycles(args):
    cycles = gentle.critical_cycles(_load_presentation(args.file))
    payload = {
        "cycles": [{"arrows": list(c.display), "length": c.length} for c in cycles]
    }
    text = "\n".join(f"{c.name} (length {c.length})" for c in cycles) or "no cycles"
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
    lines = ["projectives: " + " ".join(gp.projectives)]
    for r in records:
        walk = " ".join(r["walk"]) if r["walk"] else "(simple)"
        lines.append(f"R[{r['cycle']}, {r['vertex']}]: top {r['top']}, walk {walk}")
    return payload, "\n".join(lines), 0


def _cmd_gentle_singcat(args):
    dec = gentle.singularity_category(_load_presentation(args.file))
    payload = {
        "factors": list(dec.factors),
        "cycle_of_factor": [c.name for c in dec.cycle_of_factor],
    }
    text = "factors: " + (" ".join(map(str, dec.factors)) or "(none)")
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
    if cmp.compatible:
        text = "compatible"
    else:
        text = (
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
    return {"dim": dim}, str(dim), 0


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
    dims = [[nodal.hom_dim(x, y) for y in objs] for x in objs]
    payload = {"objects": names, "dims": dims}
    width = max(len(n) for n in names)
    lines = [" " * (width + 1) + " ".join(n.rjust(width) for n in names)]
    for name, row in zip(names, dims):
        lines.append(
            name.rjust(width) + "  " + " ".join(str(d).rjust(width) for d in row)
        )
    return payload, "\n".join(lines), 0


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
    text = (
        "terms: "
        + " ".join(cx.terms)
        + "\ndifferentials: "
        + " ".join(d.display() for d in cx.differentials)
    )
    return payload, text, 0


def _cmd_nodal_k0(args):
    summands = nodal.parse_object(args.object)
    cls = nodal.k0_class(summands)
    return {"class": [cls.plus, cls.minus]}, f"[{cls.plus}, {cls.minus}]", 0


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
    text = (
        "expansion: "
        + " ".join(map(str, expansion))
        + "\n"
        + surface.serialize_dual_graph(graph).rstrip("\n")
    )
    return payload, text, 0


def _cmd_surface_fundamental(args):
    graph = _load_graph(args.file)
    z = surface.fundamental_cycle(graph, seed=args.seed)
    ordered = {v: z[v] for v in sorted(z)}
    payload = {"coefficients": ordered}
    text = "\n".join(f"{v}: {c}" for v, c in ordered.items())
    return payload, text, 0


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
    if dec.blocks:
        text = "\n".join(
            f"{b.name}: " + " ".join(vs)
            for b, vs in zip(dec.blocks, dec.component_vertices)
        )
    else:
        text = "empty decomposition"
    return payload, text, 0


def _cmd_surface_ranks(args):
    graph = _load_graph(args.file)
    ranks = surface.special_ranks(graph)
    ordered = {v: ranks[v] for v in sorted(ranks)}
    payload = {"ranks": ordered}
    text = "\n".join(f"{v}: {r}" for v, r in ordered.items())
    return payload, text, 0


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
            raise SingcatError(
                f"cannot parse parity argument {raw!r}",
                precondition="parity is 'even', 'odd' or a non-negative dimension",
                witness={"parity": raw},
            ) from None
    quiver = dga.dg_auslander(args.type, parity)
    return dga.graded_quiver_to_json(quiver), dga.serialize_graded_quiver(quiver).rstrip("\n"), 0


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
    lines = [
        f"{r['status'].upper()} {r['case']}"
        + (f": {r['detail']}" if "detail" in r else "")
        for r in payload["cases"]
    ]
    lines.append(f"{payload['passed']} passed, {payload['failed']} failed")
    return payload, "\n".join(lines), code


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """Return a fresh parser for the ``singcat`` command line.

    ``run()`` does not call this per request: it reuses one parser per
    process (``_parser()``).  Parsing keeps no state on the parser, since
    every ``parse_args`` call builds a new namespace and writes usage and
    errors to the ``sys.stdout``/``sys.stderr`` of the moment.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    common.add_argument("--out", metavar="FILE", help="write the output to FILE")
    common.add_argument(
        "--seed", type=int, metavar="N", help="seed for randomized choices"
    )

    parser = _Parser(prog="singcat", description=__doc__)
    top = parser.add_subparsers(dest="module", required=True)

    g = top.add_parser("gentle", help="gentle presentations").add_subparsers(
        dest="op", required=True
    )
    p = g.add_parser("check", parents=[common], help="report the gentle conditions")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_gentle_check)
    p = g.add_parser("cycles", parents=[common], help="critical cycles")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_gentle_cycles)
    p = g.add_parser("gp", parents=[common], help="Gorenstein projectives")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_gentle_gp)
    p = g.add_parser("singcat", parents=[common], help="singularity block factors")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_gentle_singcat)
    p = g.add_parser("compare", parents=[common], help="compare block factors")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_gentle_compare)

    n = top.add_parser("nodal", help="nodal block calculus").add_subparsers(
        dest="op", required=True
    )
    p = n.add_parser("hom", parents=[common], help="Hom dimension between objects")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(handler=_cmd_nodal_hom)
    p = n.add_parser("table", parents=[common], help="Hom table over a window")
    p.add_argument("--shifts", required=True, help="shift window, e.g. -2..2")
    p.add_argument("--maxlen", type=int, required=True, help="largest string length")
    p.set_defaults(handler=_cmd_nodal_table)
    p = n.add_parser("complex", parents=[common], help="minimal string complex")
    p.add_argument("string", help="e.g. S+(2) or S(3)")
    p.set_defaults(handler=_cmd_nodal_complex)
    p = n.add_parser("k0", parents=[common], help="class in the Grothendieck group")
    p.add_argument("object")
    p.set_defaults(handler=_cmd_nodal_k0)

    s = top.add_parser("surface", help="resolution graphs").add_subparsers(
        dest="op", required=True
    )
    p = s.add_parser("cyclic", parents=[common], help="cyclic quotient data")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)
    p.set_defaults(handler=_cmd_surface_cyclic)
    p = s.add_parser("fundamental", parents=[common], help="fundamental cycle")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_surface_fundamental)
    p = s.add_parser("decompose", parents=[common], help="ADE contraction blocks")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--contract", help="comma separated vertices")
    group.add_argument(
        "--all-minus-two", action="store_true", help="contract every (-2)-curve"
    )
    p.set_defaults(handler=_cmd_surface_decompose)
    p = s.add_parser("ranks", parents=[common], help="special module ranks")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_surface_ranks)

    d = top.add_parser("dga", help="dg-Auslander quivers").add_subparsers(
        dest="op", required=True
    )
    p = d.add_parser("emit", parents=[common], help="emit a graded quiver")
    p.add_argument("type", help="ADE type, e.g. A7 or E8")
    p.add_argument("parity", help="'even', 'odd' or an ambient dimension")
    p.set_defaults(handler=_cmd_dga_emit)

    p = top.add_parser("corpus", parents=[common], help="run recorded examples")
    p.add_argument("directory")
    p.set_defaults(handler=_cmd_corpus)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _is_shifts_flag(token: str) -> bool:
    """``--shifts`` or an abbreviation argparse resolves to it alone
    (``--sh`` and longer; ``--s`` also abbreviates ``--seed``)."""
    return len(token) > 3 and "--shifts".startswith(token)


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


def run(argv) -> int:
    try:
        args = _parser().parse_args(_join_shift_windows(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, text, code = args.handler(args)
        rendered = (
            json.dumps(payload, ensure_ascii=False, indent=2)
            if args.format == "json"
            else text
        )
        if args.out:
            _write(args.out, rendered + "\n")
        else:
            print(rendered)
    except SingcatError as err:
        sys.stderr.write(
            json.dumps({"error": err.diagnostic()}, ensure_ascii=False) + "\n"
        )
        return 1
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
