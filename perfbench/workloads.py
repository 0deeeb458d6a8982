"""Seeded job lists for the three workloads, each job with its answer check.

A job's ``call`` is the timed work: it calls ``singcat`` through module
attributes (so the tracer's rebinding reaches it) and returns the answer as
text.  A job's ``check`` runs after timing and compares that text with
``reference``, which never imports ``singcat``.  Generation, input files
and references all happen before the timed loop starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shlex
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Callable

import reference as ref
from singcat import cli, gentle, nodal, quiver, surface
from singcat import dg_auslander as dga

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# The ROADMAP item-1 witness, exactly as printed there.  Its fundamental
# cycle needs 719 Laufer increments; the program gives up after 64n + 64.
WITNESS = """\
vertex 0 -2; vertex 1 -2; vertex 2 -2; vertex 3 -3; vertex 4 -4;
vertex 5 -3; vertex 6 -3; vertex 7 -4; vertex 8 -3; vertex 9 -2;
edge 1 0; edge 2 1; edge 3 2; edge 4 1; edge 5 0;
edge 6 3; edge 7 5; edge 8 4; edge 9 1;
"""


@dataclass(frozen=True)
class Outcome:
    """What one job produced: its answer text, or the exception it raised.

    ``error`` is (exception type, is a SingcatError, precondition, message).
    """

    value: object = None
    error: tuple | None = None


@dataclass
class Job:
    name: str
    family: str  # which checker judges it; keys the self-test corruption
    call: Callable[[], object]
    check: Callable[[Outcome], str | None]
    large: bool = False  # top rung, reported as large_job_s
    cwd: str | None = None
    argv: list | None = None
    post: Callable[[object], object] | None = None  # untimed, after the call


# ---------------------------------------------------------------------------
# check helpers


def _raised(out: Outcome) -> str:
    kind, _, pre, msg = out.error
    return f"raised {kind} ({pre}): {msg[:160]}"


def expect(judge):
    """Check a JSON answer with ``judge(payload) -> reason or None``."""

    def check(out: Outcome):
        if out.error:
            return _raised(out)
        return judge(json.loads(out.value))

    return check


def expect_equal(expected_fn):
    def judge(got):
        want = expected_fn()
        return None if got == want else "answer differs from the reference"

    return expect(judge)


def expect_error(precondition: str):
    def check(out: Outcome):
        if out.error is None:
            return "accepted an input planted as invalid"
        if not out.error[1]:
            return _raised(out)
        if out.error[2] != precondition:
            return f"diagnostic names {out.error[2]!r}, expected {precondition!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# surface-scale


def _surface_job(text: str, op: str) -> str:
    g = surface.parse_dual_graph(text)
    if op == "fundamental":
        z = surface.fundamental_cycle(g)
        payload = {"coefficients": {v: z[v] for v in sorted(z)}}
    elif op == "ranks":
        r = surface.special_ranks(g)
        payload = {"ranks": {v: r[v] for v in sorted(r)}}
    else:
        dec = surface.decompose(g, surface.all_minus_two(g))
        payload = {
            "blocks": [b.name for b in dec.blocks],
            "components": [
                {"type": b.name, "vertices": list(vs)}
                for b, vs in zip(dec.blocks, dec.component_vertices)
            ],
        }
    return json.dumps(payload)


def _cyclic_job(n: int, a: int) -> str:
    expansion = surface.jung_hirzebruch(n, a)
    g = surface.cyclic_dual_graph(n, a)
    return json.dumps(
        {"n": n, "a": a, "expansion": expansion, "graph": surface.dual_graph_to_json(g)}
    )


def _surface_check(graph, op: str, closed_form=None):
    vertices, weights, edges = graph
    if op == "decompose":
        contracted = [v for v in vertices if weights[v] == -2]
        return expect_equal(lambda: ref.decompose(vertices, weights, edges, contracted))
    key = "coefficients" if op == "fundamental" else "ranks"

    def judge(got):
        z = got[key]
        if closed_form is not None:
            return None if z == closed_form else "differs from the closed form"
        return ref.cycle_problems(z, vertices, weights, edges)

    return expect(judge)


def random_tree(rng, n: int, weights=(-2, -3, -4, -5, -6)):
    """A random negative definite tree, shuffled names and statement order.

    Weights are drawn from ``weights``.  While some elimination pivot lies
    above -1/2, the weight of a random vertex above -6 is lowered by one, so
    the form stays clear of singular and Laufer's cost follows the size of
    the tree, not the luck of the seed; the near-degenerate regime is the
    job of ``near_degenerate``.
    """
    names = [str(x) for x in rng.sample(range(1, 20 * n + 20), n)]
    w = {v: rng.choice(weights) for v in names}
    edges = []
    for i in range(1, n):
        u, p = names[i], names[rng.randrange(i)]
        edges.append((u, p) if rng.random() < 0.5 else (p, u))
    order = names[:]
    rng.shuffle(order)
    rng.shuffle(edges)
    while True:
        pivots = ref.elimination_pivots(order, w, edges)
        if pivots is not None and max(pivots.values()) <= Fraction(-1, 2):
            return order, w, edges
        v = rng.choice([v for v in names if w[v] > -6])
        w[v] -= 1


def _chain(n: int, d: bool):
    """D_n (two short arms at vertex 3) or A_n, all (-2)-curves."""
    vs = [str(i) for i in range(1, n + 1)]
    edges = [(str(i), str(i + 1)) for i in range(3 if d else 1, n)]
    if d:
        edges = [("1", "3"), ("2", "3")] + edges
        z = {v: 2 for v in vs}
        z["1"] = z["2"] = z[str(n)] = 1
    else:
        z = {v: 1 for v in vs}
    return (vs, {v: -2 for v in vs}, edges), z


def _root_pivot(parent, w):
    """Last pivot of leaf-first elimination from vertex n-1 down to 0, or
    None if some pivot is not negative (the form is not definite)."""
    piv = list(w)
    for i in range(len(w) - 1, 0, -1):
        if piv[i] >= 0:
            return None
        piv[parent[i]] -= 1 / piv[i]
    return piv[0] if piv[0] < 0 else None


def near_degenerate(rng, n: int, lo: int, hi: int):
    """Seeded search for an n-vertex definite tree whose fundamental cycle
    needs between lo*n and hi*n Laufer increments (so sum(Z) >> n).

    Random trees with weights mostly -2 whose elimination pivot at the root
    lies within 1/20 of zero are handed to the reference Laufer loop until
    one needs at least 40n increments; from there single-weight changes and
    leaf moves climb to the band.  The band keeps the cost of a job similar
    from seed to seed.
    """
    while True:
        tree = None
        while tree is None:
            tree = _candidate(n, *_random_weighted_tree(rng, n), 40, hi)
        for _ in range(400):
            if tree[2] >= lo * n:
                parent, w, _ = tree
                vs = [str(i) for i in range(n)]
                return vs, {v: w[i] for i, v in enumerate(vs)}, [(vs[i], vs[parent[i]]) for i in range(1, n)]
            parent, w = list(tree[0]), list(tree[1])
            i = rng.randrange(1, n)
            if rng.random() < 0.5:
                w[i] = min(-2, w[i] + rng.choice((-1, 1)))
            else:
                parent[i] = rng.randrange(i)
            step = _candidate(n, parent, w, tree[2] / n, hi)
            if step is not None:
                tree = step


def _random_weighted_tree(rng, n: int):
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    return parent, [rng.choice((-2, -2, -2, -2, -3, -3, -4)) for _ in range(n)]


def _candidate(n, parent, w, lo, hi):
    """(parent, weights, increments) if the tree is nearly singular and
    needs between lo*n and hi*n increments, else None."""
    p = _root_pivot(parent, [float(x) for x in w])  # cheap filter first
    if p is None or p < -0.06:
        return None
    p = _root_pivot(parent, [Fraction(x) for x in w])
    if p is None or p < Fraction(-1, 20):
        return None
    vs = [str(i) for i in range(n)]
    z = ref.laufer(vs, {v: w[i] for i, v in enumerate(vs)},
                   [(vs[i], vs[parent[i]]) for i in range(1, n)], limit=hi * n)
    if z is None or sum(z.values()) - n < lo * n:
        return None
    return parent, w, sum(z.values()) - n


def surface_scale(rng, work):
    jobs = []

    def add(name, graph, op, **kw):
        closed = kw.pop("closed_form", None)
        text = ref.graph_text(*graph)
        jobs.append(
            Job(name, "surface.decompose" if op == "decompose" else
                "surface.cycle" + (".closed-form" if closed else ""),
                partial(_surface_job, text, op), _surface_check(graph, op, closed), **kw)
        )

    ops = ("fundamental", "ranks", "decompose")
    for i in range(180):
        n = 3 + i % 38
        add(f"tree n={n} {ops[i % 3]}", random_tree(rng, n), ops[i % 3])
    for n in (12, 25, 50, 100):
        large = n == 100
        graph, z = _chain(n, d=True)
        add(f"ladder D{n} fundamental", graph, "fundamental", closed_form=z, large=large)
        add(f"ladder D{n} decompose", graph, "decompose")
        graph, z = _chain(n, d=False)
        add(f"ladder A{n} ranks", graph, "ranks", closed_form=z, large=large)
        add(f"ladder A{n} decompose", graph, "decompose")
        add(f"ladder tree n={n} fundamental", random_tree(rng, n), "fundamental", large=large)
    # Six trees below the seed commit's step cap of 64n + 64 and two above
    # it, so the cap's false diagnostic shows on a fixed number of jobs.
    specs = [(n, 40, 60) for n in (10, 11, 12, 13, 14, 12)] + [(12, 70, 110), (14, 70, 110)]
    for i, spec in enumerate(specs):
        graph = near_degenerate(rng, *spec)
        add(f"near-degenerate n={len(graph[0])} {ops[i % 2]}", graph, ops[i % 2])
    witness = ref.parse_graph(WITNESS)
    add("roadmap witness fundamental", witness, "fundamental")
    add("roadmap witness decompose", witness, "decompose")
    for _ in range(40):
        while True:
            n, a = ref.coprime_pair(rng, 100000)
            if len(ref.expansion(n, a)) <= 12:
                break
        jobs.append(
            Job(f"cyclic {n}/{a}", "surface.cyclic", partial(_cyclic_job, n, a),
                expect(partial(ref.cyclic_problems, n, a)))
        )
    return jobs


# ---------------------------------------------------------------------------
# algebra-scale


def gentle_quiver(rng, prefix: str, lengths, tail_share=0.4, max_tail=4):
    """Disjoint critical cycles with relation-free tails hanging off them.

    ``tail_share`` of the cycle arrows, chosen at random, get a tail; the
    t-th tail has 1 + t % max_tail arrows, so the size is fixed by
    ``lengths``.  Returns the quiver, the planted cycles (traversal order)
    and the planted radical walk of every cycle arrow.
    """
    total = sum(lengths)
    tails = {pos: 1 + t % max_tail
             for t, pos in enumerate(sorted(rng.sample(range(total), round(tail_share * total))))}
    vertices, arrows, relations, cycles, walks = [], [], [], [], {}
    for c, length in enumerate(lengths):
        vs = [f"{prefix}v{c}_{j}" for j in range(length)]
        labs = [f"{prefix}c{c}_{j}" for j in range(length)]
        vertices += vs
        arrows += [(labs[j], vs[j], vs[(j + 1) % length]) for j in range(length)]
        relations += [(labs[j], labs[(j + 1) % length]) for j in range(length)]
        cycles.append(tuple(labs))
        for j in range(length):
            tail = []
            pos = len(walks)
            if pos in tails:
                at = vs[(j + 1) % length]
                for k in range(tails[pos]):
                    w = f"{prefix}w{c}_{j}_{k}"
                    tail.append(f"{prefix}t{c}_{j}_{k}")
                    vertices.append(w)
                    arrows.append((tail[-1], at, w))
                    at = w
            walks[labs[j]] = tail
    order = list(range(len(arrows)))
    rng.shuffle(order)
    q = ref.Quiver(vertices, [arrows[i] for i in order], relations)
    return q, cycles, walks


def plant_violation(rng, q: ref.Quiver, kind: str, prefix: str):
    """Add one G1, G3 or G4 violation; returns (quiver, (condition, location))."""
    vertices, arrows, relations = list(q.vertices), list(q.arrows), list(q.relations)
    if kind == "G1":
        x = f"{prefix}x"
        vertices += [x] + [f"{prefix}y{i}" for i in range(3)]
        arrows += [(f"{prefix}e{i}", x, f"{prefix}y{i}") for i in range(3)]
        where = ("G1", x)
    elif kind == "G3":
        related = {first for first, _ in relations}
        a, _, t = rng.choice([x for x in arrows if x[0] in related and len(q.out(x[2])) == 1])
        e = f"{prefix}e"
        vertices.append(f"{prefix}y")
        arrows.append((e, t, f"{prefix}y"))
        relations.append((a, e))
        where = ("G3", a)
    else:
        x, y = f"{prefix}x", f"{prefix}y"
        vertices += [x, y, f"{prefix}z0", f"{prefix}z1"]
        arrows += [(f"{prefix}p", x, y), (f"{prefix}q0", y, f"{prefix}z0"), (f"{prefix}q1", y, f"{prefix}z1")]
        where = ("G4", f"{prefix}p")
    return ref.Quiver(vertices, arrows, relations), where


def _gentle_payload(op: str, p, other=None) -> dict:
    if op == "check":
        r = gentle.check_gentle(p)
        return {
            "is_gentle": r.is_gentle,
            "violations": [
                {"condition": v.condition, "location": v.location, "detail": v.detail}
                for v in r.violations
            ],
        }
    if op == "cycles":
        return {"cycles": [{"arrows": list(c.display), "length": c.length}
                           for c in gentle.critical_cycles(p)]}
    if op == "gp":
        gp = gentle.gorenstein_projectives(p)
        records = sorted(
            ({"cycle": c.name, "vertex": v, "top": m.top, "walk": list(m.arrows)}
             for (c, v), m in gp.radicals.items()),
            key=lambda r: (r["cycle"], r["vertex"]),
        )
        return {"projectives": list(gp.projectives), "radicals": records}
    if op == "singcat":
        d = gentle.singularity_category(p)
        return {"factors": list(d.factors), "cycle_of_factor": [c.name for c in d.cycle_of_factor]}
    cmp = gentle.compare_invariant(p, other)
    return {"compatible": cmp.compatible,
            "witness": {"only_first": list(cmp.only_first), "only_second": list(cmp.only_second)}}


def _gentle_job(op: str, text: str, other: str | None = None) -> str:
    p = quiver.parse_presentation(text)
    o = quiver.parse_presentation(other) if other is not None else None
    return json.dumps(_gentle_payload(op, p, o))


def _gentle_check(op, q, other=None, cycles=None, walks=None):
    """Reference equality, plus the planted cycles and walk lengths."""
    def judge(got):
        want = ref.gentle_payload(op, q, other)
        if op == "check":
            return None if ref.normalise_check(got) == want else "violation report differs from the reference"
        if got != want:
            return "answer differs from the reference"
        if cycles is not None and op in ("cycles", "singcat"):
            lengths = sorted(c["length"] for c in got["cycles"]) if op == "cycles" else sorted(got["factors"])
            if lengths != sorted(len(c) for c in cycles):
                return "cycle lengths differ from the planted cycles"
        if walks is not None and op == "gp":
            if sorted(len(r["walk"]) for r in got["radicals"]) != sorted(len(w) for w in walks.values()):
                return "walk lengths differ from the planted tails"
        return None

    return expect(judge)


def _planted_check(q, where):
    def judge(got):
        got = ref.normalise_check(got)
        if got["is_gentle"] or where not in got["violations"]:
            return f"planted {where[0]} at {where[1]} not reported"
        if got != ref.gentle_payload("check", q):
            return "violation report differs from the reference"
        return None

    return expect(judge)


def _k_cycles(k: int) -> ref.Quiver:
    return ref.Quiver(
        [f"v{c}_{j}" for c in range(k) for j in range(3)],
        [(f"a{c}_{j}", f"v{c}_{j}", f"v{c}_{(j + 1) % 3}") for c in range(k) for j in range(3)],
        [(f"a{c}_{j}", f"a{c}_{(j + 1) % 3}") for c in range(k) for j in range(3)],
    )


def _dga_job(ade: str, parity: str) -> str:
    q = dga.dg_auslander(ade, parity)
    return json.dumps(dga.graded_quiver_to_json(q)) + "\n" + dga.serialize_graded_quiver(q)


def _dga_check(family: str, rank: int, parity: str):
    def check(out: Outcome):
        if out.error:
            return _raised(out)
        head, _, text = out.value.partition("\n")
        payload = json.loads(head)
        why = ref.mesh_problems(payload, family, rank, parity)
        if why:
            return why
        lines = text.rstrip("\n").split("\n")
        n_solid, n_broken = len(payload["solid_arrows"]), len(payload["broken_arrows"])
        if len(lines) != 1 + n_solid + 2 * n_broken:
            return "text rendering has the wrong number of statements"
        for line, b in zip(lines[1 + n_solid + n_broken:], payload["broken_arrows"]):
            terms = payload["differential"][b["label"]]
            rhs = line.split(" = ", 1)[-1].rstrip(";")
            if line.split(" = ")[0] != f"d({b['label']})" or (rhs.count(" + ") + 1 if terms else 0) != len(terms):
                return f"text differential of {b['label']} disagrees with the JSON"
        return None

    return check


def hom_table(objs):
    """The benchmark's own Hom-table loop, one traced span per table."""
    return [[nodal.hom_dim(x, y) for y in objs] for x in objs]


def _table_job(names) -> str:
    objs = [nodal.parse_object(name)[0] for name in names]
    return json.dumps({"objects": names, "dims": hom_table(objs)})


def _ar_job(component: str, lo: int, hi: int, maxlen: int) -> str:
    w = nodal.ar_window(component, (lo, hi), maxlen)
    return json.dumps({"component": w.component, "vertices": list(w.vertices),
                       "solid": [list(p) for p in w.solid], "dashed": [list(p) for p in w.dashed]})


def _ref_table(objs):
    return {"objects": [ref.fmt_obj(o) for o in objs],
            "dims": [[ref.hom(x, y) for y in objs] for x in objs]}


def algebra_scale(rng, work):
    jobs = []
    ops = ("check", "cycles", "gp", "singcat", "compare")
    for k in (12, 25, 50, 100):
        q = _k_cycles(k)
        text = ref.quiver_text(q)
        cycles = [tuple(f"a{c}_{j}" for j in range(3)) for c in range(k)]
        walks = {a: [] for a, _, _ in q.arrows}
        for op in ops:
            other = text if op == "compare" else None
            jobs.append(Job(
                f"{k} disjoint 3-cycles {op}", f"gentle.{op}", partial(_gentle_job, op, text, other),
                _gentle_check(op, q, q if other else None, cycles, walks), large=k == 100))
    for i in range(40):
        lengths = [1 + (i + j) % 7 for j in range(2 + i % 7)]
        q, cycles, walks = gentle_quiver(rng, "", lengths)
        op = ops[i % 5]
        other = gentle_quiver(rng, "o", [1 + (i + j + 3) % 7 for j in range(4)])[0] if op == "compare" else None
        jobs.append(Job(
            f"random gentle {len(q.arrows)} arrows {op}", f"gentle.{op}",
            partial(_gentle_job, op, ref.quiver_text(q), other and ref.quiver_text(other)),
            _gentle_check(op, q, other, cycles, walks)))
    planted_ops = ("check", "check", "cycles", "gp", "singcat", "compare")
    for i in range(18):
        kind = ("G1", "G3", "G4")[i % 3]
        base, _, _ = gentle_quiver(rng, "", [2 + (i + j) % 5 for j in range(2 + i % 4)], tail_share=0.3)
        q, where = plant_violation(rng, base, kind, "bad")
        op = planted_ops[i // 3]
        text = ref.quiver_text(q)
        check = _planted_check(q, where) if op == "check" else expect_error("gentle presentation")
        jobs.append(Job(f"planted {kind} {op}", "gentle.planted" if op == "check" else "error",
                        partial(_gentle_job, op, text, text if op == "compare" else None), check))
    for family in "AD":
        for n in (12, 25, 50, 100):
            for parity in ("even", "odd"):
                jobs.append(Job(f"dga {family}{n} {parity}", "dga", partial(_dga_job, f"{family}{n}", parity),
                                _dga_check(family, n, parity), large=(family, n) == ("D", 100)))
    for n in (6, 7, 8):
        for parity in ("even", "odd"):
            jobs.append(Job(f"dga E{n} {parity}", "dga", partial(_dga_job, f"E{n}", parity),
                            _dga_check("E", n, parity)))
    for half in (1, 3, 5):
        for maxlen in (3, 8):
            mid = rng.randint(-3, 3)
            objs = ref.table_objects(mid - half, mid + half, maxlen)
            names = [ref.fmt_obj(o) for o in objs]
            jobs.append(Job(f"hom table {len(names)} objects", "nodal.table",
                            partial(_table_job, names), expect_equal(partial(_ref_table, objs))))
    for comp in ("string-plus", "string-minus", "projective-plus", "projective-minus"):
        for half, maxlen in ((3, 4), (6, 8)):
            lo = rng.randint(-3, 3) - half
            jobs.append(Job(f"ar window {comp} {2 * half + 1}x{maxlen}", "nodal.ar",
                            partial(_ar_job, comp, lo, lo + 2 * half, maxlen),
                            expect_equal(partial(ref.ar_window, comp, lo, lo + 2 * half, maxlen))))
    return jobs


# ---------------------------------------------------------------------------
# cli-small


def _append_file(path: str, value: tuple) -> tuple:
    with open(path, encoding="utf-8") as fh:
        return value + (fh.read(),)


def _cli_job(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _parse_argv(argv):
    pos, opts, i = [], {}, 0
    while i < len(argv):
        a = argv[i]
        if a == "--all-minus-two":
            opts["all-minus-two"] = True
        elif a.startswith("--") and "=" in a:
            k, v = a[2:].split("=", 1)
            opts[k] = v
        elif a.startswith("--"):
            opts[a[2:]] = argv[i + 1]
            i += 1
        else:
            pos.append(a)
        i += 1
    return pos, opts


def cli_expectation(argv, cwd: str):
    """(exit code, payload or precondition) the reference expects."""
    pos, opts = _parse_argv(argv)
    path = lambda p: os.path.join(cwd, p)  # noqa: E731

    def read(p):
        with open(path(p), encoding="utf-8") as fh:
            return fh.read()

    try:
        module, op = pos[0], pos[1] if len(pos) > 1 else None
        if module == "corpus":
            names = sorted(f for f in os.listdir(path(pos[1])) if f.endswith(".json"))
            return 0, {"cases": [{"case": n, "status": "pass"} for n in names],
                       "passed": len(names), "failed": 0}
        if module == "gentle":
            qs = [ref.parse_quiver(read(p)) for p in pos[2:]]
            return 0, ref.gentle_payload(op, *qs)
        if module == "nodal":
            if op == "hom":
                return 0, {"dim": ref.hom_sum(ref.parse_obj(pos[2]), ref.parse_obj(pos[3]))}
            if op == "k0":
                return 0, {"class": ref.k0(ref.parse_obj(pos[2]))}
            if op == "complex":
                terms, diffs = ref.string_complex(ref.parse_obj(pos[2])[0])
                return 0, {"terms": terms, "differentials": diffs}
            lo, hi = map(int, opts["shifts"].split(".."))
            return 0, _ref_table(ref.table_objects(lo, hi, int(opts["maxlen"])))
        if module == "surface":
            if op == "cyclic":
                n, a = int(pos[2]), int(pos[3])
                if gcd(n, a) != 1:
                    raise ref.RefError("gcd(n, a) = 1")
                exp = ref.expansion(n, a)
                names = [str(i + 1) for i in range(len(exp))]
                graph = {"vertices": sorted(names), "weights": {v: -exp[int(v) - 1] for v in sorted(names)},
                         "edges": sorted(sorted(e) for e in zip(names, names[1:]))}
                return 0, {"n": n, "a": a, "expansion": exp, "graph": graph}
            vs, ws, es = ref.parse_graph(read(pos[2]))
            if op == "decompose":
                contracted = ([v for v in vs if ws[v] == -2] if opts.get("all-minus-two")
                              else [v for v in opts["contract"].split(",") if v])
                return 0, ref.decompose(vs, ws, es, contracted)
            z = ref.laufer(vs, ws, es)
            return 0, {("coefficients" if op == "fundamental" else "ranks"): {v: z[v] for v in sorted(z)}}
        if module == "dga":
            m = re.match(r"^([ADE])(\d+)$", pos[2])
            fam, rank = (m.group(1), int(m.group(2))) if m else (None, 0)
            if not m or not ((fam == "A" and rank >= 1) or (fam == "D" and rank >= 4) or (fam == "E" and rank in (6, 7, 8))):
                raise ref.RefError("A_n (n>=1), D_n (n>=4) or E_6, E_7, E_8")
            parity = pos[3] if pos[3] in ("even", "odd") else ("even" if int(pos[3]) % 2 == 0 else "odd")
            return 0, ("mesh", fam, rank, parity)
    except ref.RefError as exc:
        return 1, exc.precondition
    raise ValueError(f"no reference for {argv}")


def cli_check(argv, cwd, prints=None, subset=None):
    """Judge exit code, diagnostic, and JSON or text output of one request."""
    pos, opts = _parse_argv(argv)
    cmd = tuple(pos[:2])

    def check(out: Outcome):
        if out.error:
            return _raised(out)
        code, stdout, stderr = out.value[:3]
        want_code, want = cli_expectation(argv, cwd)
        if code != want_code:
            return f"exit {code}, expected {want_code}: {stderr.strip()[-200:]}"
        if code == 1:
            got = json.loads(stderr)["error"]["precondition"]
            return None if got == want else f"diagnostic names {got!r}, expected {want!r}"
        if "out" in opts:
            if stdout:
                return "printed to stdout despite --out"
            stdout = out.value[3]
        text = stdout.rstrip("\n")
        if prints is not None and text != prints:
            return "output differs from what the README prints"
        if opts.get("format") == "text":
            rendered = ref.render_text(cmd, want) if isinstance(want, dict) else None
            if rendered is not None and text != rendered:
                return "text output differs from the reference rendering"
            if rendered is None and prints is None:
                return "no reference rendering for this text request"
            return None
        got = json.loads(text)
        if subset and any(got.get(k) != v for k, v in subset.items()):
            return "output contradicts what the README prints"
        if isinstance(want, tuple):
            return ref.mesh_problems(got, *want[1:])
        if cmd == ("gentle", "check"):
            got = ref.normalise_check(got)
            return None if got == want else "violation report differs from the reference"
        return None if got == want else "answer differs from the reference"

    return check


def _corpus_check(case):
    def check(out: Outcome):
        if out.error:
            return _raised(out)
        code, stdout, stderr = out.value
        if code != case.get("exit", 0):
            return f"exit {code}, corpus expects {case.get('exit', 0)}"
        if code == 0:
            return None if json.loads(stdout) == case["expect"] else "output differs from the corpus expectation"
        return None if case["expect_error_contains"] in stderr else "stderr lacks the corpus needle"

    return check


def _nodal_obj(rng, block: str):
    if block == "zero":
        return ("P2", rng.randint(-4, 4)) if rng.random() < 0.3 else ("Z", rng.randint(1, 5), rng.randint(-4, 4))
    s = rng.choice("+-")
    return ("P", s, rng.randint(-4, 4)) if rng.random() < 0.4 else ("S", s, rng.randint(1, 5), rng.randint(-4, 4))


def _letters(q: ref.Quiver) -> str:
    """Serialize with single-letter labels and juxtaposed relations."""
    names = {a: chr(ord("a") + i) for i, (a, _, _) in enumerate(q.arrows)}
    verts = {v: str(i + 1) for i, v in enumerate(q.vertices)}
    lines = ["vertices " + " ".join(verts[v] for v in q.vertices) + ";"]
    lines += [f"arrow {names[a]}: {verts[s]} -> {verts[t]};" for a, s, t in q.arrows]
    lines += [f"relation {names[b]}{names[a]};" for a, b in q.relations]
    return "\n".join(lines) + "\n"


def cli_small(rng, work):
    jobs = []
    corpus_dir = os.path.join(work, "corpus")
    os.makedirs(corpus_dir)
    for name in sorted(os.listdir(os.path.join(DATA, "corpus"))):
        with open(os.path.join(DATA, "corpus", name), encoding="utf-8") as src, \
                open(os.path.join(corpus_dir, name), "w", encoding="utf-8") as dst:
            dst.write(src.read())

    def add(name, argv, family=None, large=False, **kw):
        command = argv[:1] if argv[0] == "corpus" else argv[:2]
        family = family or ".".join(["cli"] + command) + (".text" if "text" in argv else "")
        post = partial(_append_file, argv[argv.index("--out") + 1]) if "--out" in argv else None
        jobs.append(Job(name, family, partial(_cli_job, argv), cli_check(argv, work, **kw),
                        large=large, cwd=work, argv=argv, post=post))

    for name in sorted(os.listdir(corpus_dir)):
        if name.endswith(".json"):
            with open(os.path.join(corpus_dir, name), encoding="utf-8") as fh:
                case = json.load(fh)
            jobs.append(Job(f"corpus {name}", "cli.corpus", partial(_cli_job, case["argv"]),
                            _corpus_check(case), cwd=corpus_dir, argv=case["argv"]))
    with open(os.path.join(DATA, "readme_commands.json"), encoding="utf-8") as fh:
        readme = json.load(fh)
    for entry in readme:
        argv = shlex.split(entry["line"], comments=True)[1:]
        add(f"README {' '.join(argv)}", argv, large=argv[0] == "corpus",
            prints=entry["prints"], subset=entry["prints_subset"])
    add("corpus replay", ["corpus", corpus_dir], large=True)

    def fmt(i):
        return ["--format", "text"] if i % 2 == 0 else []

    for i in range(16):
        block = "zero" if i % 5 == 4 else "nodal"
        x = ",".join(ref.fmt_obj(_nodal_obj(rng, block)) for _ in range(rng.randint(1, 2)))
        y = ",".join(ref.fmt_obj(_nodal_obj(rng, block)) for _ in range(rng.randint(1, 2)))
        add(f"nodal hom {x} {y}", ["nodal", "hom", x, y] + fmt(i))
    for i in range(8):
        x = ",".join(ref.fmt_obj(_nodal_obj(rng, "nodal")) for _ in range(rng.randint(1, 3)))
        add(f"nodal k0 {x}", ["nodal", "k0", x] + fmt(i))
    for i in range(8):
        s = f"S{rng.choice('+-')}({rng.randint(1, 6)})" if i % 4 else f"S({rng.randint(1, 6)})"
        add(f"nodal complex {s}", ["nodal", "complex", s] + fmt(i))
    for i in range(4):
        lo = rng.randint(-2, 1)
        argv = ["nodal", "table", f"--shifts={lo}..{rng.randint(lo, 2)}", "--maxlen", str(rng.randint(1, 3))]
        add(f"nodal table {' '.join(argv[2:])}", argv + fmt(i))
    for i in range(8):
        while True:
            n, a = ref.coprime_pair(rng, 500)
            if len(ref.expansion(n, a)) <= 8:
                break
        add(f"surface cyclic {n} {a}", ["surface", "cyclic", str(n), str(a)] + fmt(i))
    for i in range(18):
        vs, ws, es = random_tree(rng, 3 + i % 10)
        path = os.path.join(work, f"g{i}.graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ref.graph_text(vs, ws, es))
        op = ("fundamental", "ranks", "decompose")[i % 3]
        extra = []
        if op == "decompose":
            minus_two = [v for v in vs if ws[v] == -2]
            extra = (["--contract", ",".join(rng.sample(minus_two, rng.randint(1, len(minus_two))))]
                     if minus_two and i % 2 else ["--all-minus-two"])
        add(f"surface {op} {len(vs)} vertices", ["surface", op, path] + extra + fmt(i))
    for i in range(15):
        q = gentle_quiver(rng, "", [1 + (i + j) % 4 for j in range(1 + i % 3)], max_tail=2)[0]
        path = os.path.join(work, f"p{i}.q")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_letters(q))
        op = ("check", "cycles", "gp", "singcat", "compare")[i % 5]
        argv = ["gentle", op, path] + ([os.path.join(work, f"p{i - 1}.q")] if op == "compare" else [])
        add(f"gentle {op} {len(q.arrows)} arrows", argv + fmt(i))
    for i in range(8):
        family = rng.choice("ADE")
        rank = {"A": rng.randint(1, 12), "D": rng.randint(4, 12), "E": rng.randint(6, 8)}[family]
        parity = rng.choice(["even", "odd", str(rng.randint(0, 9))])
        add(f"dga emit {family}{rank} {parity}", ["dga", "emit", f"{family}{rank}", parity])
    bad = os.path.join(work, "bad.q")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write(_letters(plant_violation(rng, gentle_quiver(rng, "", [3, 2])[0], "G1", "z")[0]))
    for argv in (["nodal", "hom", "P+", "P2"], ["surface", "cyclic", "12", "8"],
                 ["dga", "emit", "D3", "even"], ["gentle", "cycles", bad]):
        add(f"invalid {' '.join(argv[:2])}", argv, family="cli.error")
    for i, argv in enumerate((["nodal", "hom", "S+(3)", "P-[2]"], ["surface", "cyclic", "27", "19", "--format", "text"])):
        add(f"{' '.join(argv[:2])} --out", argv + ["--out", os.path.join(work, f"out{i}.txt")],
            family="cli.out")
    return jobs


WORKLOADS = {
    "surface-scale": surface_scale,
    "algebra-scale": algebra_scale,
    "cli-small": cli_small,
}


def build(workload: str, seed: int, work: str):
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng, work)
    random.Random(seed).shuffle(jobs)
    return jobs
