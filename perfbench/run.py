"""singcat benchmark: seeded workloads, answer checks, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload surface-scale --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py            # all three workloads, one child process each

Each workload is a closed loop with one client and no threads: the job
list is replayed in whole passes for about ``--seconds``.  Inputs,
input files and reference data are generated from ``--seed`` before timing
starts; every answer is checked afterwards against ``reference.py``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
number of passes untraced and then traced, and reports per-layer metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("surface-scale", "algebra-scale", "cli-small")
OUT_DIR = ".perfbench"  # temporary inputs and span dumps, under the checkout

END_TO_END = [
    ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
    ("large_job_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
]
SETUP_LAUNCHES = 10  # before and again after the timed loop, so 20 in all
LARGE_RUNS = 2  # runs of each top-rung job per pass
TAIL_PERCENTILES = (50, 90, 95, 99, 99.9)

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import singcat.cli
t1 = time.perf_counter()
singcat.cli.build_parser()
print(t1 - t0, time.perf_counter() - t1)
"""


def _env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Setup:
    """Fresh interpreters that import singcat and build the parser.

    The first launch warms the bytecode cache and is not counted.  With
    ``bare`` the plain interpreter start is measured as well.
    """

    def __init__(self, root: str, bare: bool):
        self.root, self.bare = root, bare
        self.env = _env(os.path.join(root, "src"))
        self.samples = {"setup_s": [], "setup.import_s": [], "setup.parser_s": [],
                        "setup.interpreter_s": []}
        self._launch(SETUP_CHILD)

    def _launch(self, code):
        t0 = perf_counter()
        r = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.root,
                           capture_output=True, text=True, check=True)
        return perf_counter() - t0, r.stdout

    def measure(self):
        for _ in range(SETUP_LAUNCHES):
            wall, out = self._launch(SETUP_CHILD)
            imp, par = map(float, out.split())
            self.samples["setup_s"].append(wall)
            self.samples["setup.import_s"].append(imp)
            self.samples["setup.parser_s"].append(par)
            if self.bare:
                self.samples["setup.interpreter_s"].append(self._launch("pass")[0])

    def medians(self) -> dict:
        return {k: statistics.median(v) for k, v in self.samples.items() if v}


class Pass:
    """Latencies and outcomes of whole passes over a job list."""

    def __init__(self, jobs):
        self.latency = [[] for _ in jobs]
        self.outcomes = [[] for _ in jobs]  # distinct outcomes of each job
        self.which = [[] for _ in jobs]  # outcome index of each execution
        self.passes = 0
        self.wall = 0.0
        self.peak_rss_mb = 0.0


def schedule(jobs) -> list:
    """One pass: every job once, and each top-rung job ``LARGE_RUNS`` times,
    its runs spaced evenly around the pass."""
    n = len(jobs)
    slots = [(i, i) for i in range(n)]
    slots += [((i + r * n / LARGE_RUNS) % n + 0.5, i)
              for i, job in enumerate(jobs) if job.large for r in range(1, LARGE_RUNS)]
    return [i for _, i in sorted(slots)]


def run_passes(jobs, seconds, passes=None, tracer=None) -> Pass:
    """Replay whole passes: exactly ``passes``, or while the next pass is
    expected to end no later than half a pass after ``seconds``."""
    from singcat.quiver import SingcatError
    from workloads import Outcome

    rec = Pass(jobs)
    order = schedule(jobs)
    call = tracer.root if tracer else (lambda f: f())
    gc.collect()
    cwd = os.getcwd()
    start = perf_counter()
    while True:
        for i in order:
            job = jobs[i]
            if job.cwd and job.cwd != cwd:
                os.chdir(job.cwd)
                cwd = job.cwd
            if tracer:
                tracer.job = i
            t0 = perf_counter()
            try:
                value, error = call(job.call), None
            except SingcatError as exc:
                value, error = None, (type(exc).__name__, True, exc.precondition, str(exc.message))
            except Exception as exc:  # counted as a failed job, never fatal
                value, error = None, (type(exc).__name__, False, None, repr(exc))
            rec.latency[i].append(perf_counter() - t0)
            if job.post and error is None:
                value = job.post(value)
            if tracer and job.argv is not None and error is None:
                tracer.counts["cli.bytes_out"] += sum(len(s.encode()) for s in value[1:2] + value[3:])
            out = Outcome(value, error)
            seen = rec.outcomes[i]
            k = next((k for k, o in enumerate(seen) if o == out), None)
            if k is None:
                seen.append(out)
                k = len(seen) - 1
            rec.which[i].append(k)
        rec.passes += 1
        rec.wall = perf_counter() - start
        if passes is not None:
            if rec.passes >= passes:
                break
        elif rec.wall + 0.5 * rec.wall / rec.passes >= seconds:
            break
    rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rec


# ---------------------------------------------------------------------------
# judging answers


def known_defect(job, out) -> str | None:
    """Tag failures that are documented defects of the program (ROADMAP item 1)."""
    if out.error and out.error[0] == "SurfaceError" and "did not stabilize" in out.error[3]:
        return "laufer-step-cap"
    if job.argv is not None and out.error is None:
        code, _, stderr = out.value[:3]
        if code == 1 and "did not stabilize" in stderr:
            return "laufer-step-cap"
        argv = job.argv
        if code == 2 and "--shifts" in argv and argv[argv.index("--shifts") + 1].startswith("-"):
            return "shifts-window-read-as-option"
    return None


def judge(job, out):
    """(reason, known-defect tag); reason is None when the answer is right."""
    try:
        reason = job.check(out)
    except Exception as exc:  # a malformed answer the checker cannot parse
        reason = f"checker could not read the answer: {exc!r}"
    return (None, None) if reason is None else (reason, known_defect(job, out))


def _mutate(obj):
    """Flip the first bool, else bump the first int, else extend the first string."""
    leaves = []

    def walk(x, holder, key):
        if isinstance(x, dict):
            for k, v in x.items():
                walk(v, x, k)
        elif isinstance(x, list):
            for k, v in enumerate(x):
                walk(v, x, k)
        elif holder is not None:
            leaves.append((holder, key, x))

    walk(obj, None, None)
    for kind in (bool, int, str):
        for holder, key, x in leaves:
            if type(x) is kind:
                holder[key] = (not x) if kind is bool else (x + 1 if kind is int else x + "x")
                return obj
    obj["corrupted"] = True
    return obj


def _json_object(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def _corrupt_text(text: str) -> str:
    """Mutate a JSON answer (whole, or its first line); otherwise alter the text."""
    obj = _json_object(text)
    if obj is not None:
        return json.dumps(_mutate(obj), ensure_ascii=False, indent=2) + "\n"
    head, sep, rest = text.partition("\n")
    obj = _json_object(head)
    if obj is not None:
        return json.dumps(_mutate(obj)) + sep + rest
    return text.rstrip("\n") + "x\n"


def corrupt(out):
    """One wrong answer for a job that passed."""
    from workloads import Outcome

    if out.error is not None:
        return Outcome(value="{}")
    if isinstance(out.value, tuple):
        code, stdout, stderr, *rest = out.value
        if code != 0:
            return Outcome((0, "{}\n", ""))
        if rest:
            return Outcome((code, stdout, stderr, _corrupt_text(rest[0])))
        return Outcome((code, _corrupt_text(stdout), stderr))
    return Outcome(_corrupt_text(out.value))


def evaluate(jobs, recs):
    """Judge every distinct outcome; returns (failed executions, failure lines,
    unexplained failure count, self-test summary)."""
    failed, lines, unexplained = 0, [], 0
    first_pass = {}
    for rec in recs:
        for i, job in enumerate(jobs):
            verdicts = [judge(job, o) for o in rec.outcomes[i]]
            for k in rec.which[i]:
                reason, tag = verdicts[k]
                if reason is not None:
                    failed += 1
            for (reason, tag), o in zip(verdicts, rec.outcomes[i]):
                if reason is None:
                    first_pass.setdefault(job.family, (job, o))
                    continue
                line = f"FAIL job {i} [{job.name}]: " + " | ".join(reason.split("\n"))
                if tag:
                    line += f" (known defect: {tag})"
                else:
                    unexplained += 1
                if line not in lines:
                    lines.append(line)
    missed = []
    for family, (job, o) in sorted(first_pass.items()):
        reason, tag = judge(job, corrupt(o))
        if reason is None or tag is not None:
            missed.append(family)
    return failed, lines, unexplained, (len(first_pass), missed)


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten of ``n`` samples beyond it."""
    return max(p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10 or p == 50)


def percentile(values, p: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def end_to_end(jobs, rec: Pass, setup: dict):
    """Metrics over each job's fastest run across the passes.

    On a shared machine noise only ever adds time, and its slow periods
    last seconds, so a job's minimum over passes is the steady estimate;
    the wall-clock throughput and median are printed alongside.
    """
    best = [min(row) for row in rec.latency]
    large = [b for job, b in zip(jobs, best) if job.large]
    p = tail_percentile(len(jobs))
    tail = percentile(best, p)
    runs = sum(len(row) for row in rec.latency)
    every = [dt for row in rec.latency for dt in row]
    return {
        "jobs_per_s": (len(jobs) / sum(best),
                       f"{len(jobs)} jobs over the sum of their fastest of {rec.passes} passes; "
                       f"wall clock {runs / rec.wall:.3f}/s"),
        "job_p50_ms": (statistics.median(best) * 1e3,
                       f"{len(jobs)} jobs, fastest of {rec.passes}; median of all {runs} runs "
                       f"{statistics.median(every) * 1e3:.3f} ms"),
        "job_tail_ms": (tail * 1e3, f"p{p:g} of {len(jobs)} jobs, "
                                    f"{sum(1 for x in best if x > tail)} beyond"),
        "large_job_s": (statistics.geometric_mean(large),
                        f"geometric mean of {len(large)} top-rung jobs, "
                        f"fastest of {LARGE_RUNS * rec.passes} runs each"),
        "peak_rss_mb": (rec.peak_rss_mb, "high-water mark after the timed loop, before checks"),
        "setup_s": (setup["setup_s"], f"median of {2 * SETUP_LAUNCHES} launches"),
    }


def per_layer(rec: Pass, base: Pass, tracer, setup: dict, n_jobs: int):
    from tracing import COUNTERS, SPANS

    agg = tracer.self_times()
    per = rec.passes
    values = {}
    layer_self = 0.0
    for _, _, name, _ in SPANS:
        s, calls, errors = agg.get(name, (0.0, 0, 0))
        layer_self += s
        values[f"{name}.self_s"] = (s / per, "s")
        values[f"{name}.calls"] = (calls / per, "count")
        values[f"{name}.errors"] = (errors / per, "count")
    for name in COUNTERS:
        values[name] = (tracer.counts[name] / per, "count")
    vertices = tracer.counts["surface.laufer_vertices"]
    values["surface.increments_per_vertex"] = (
        tracer.counts["surface.laufer_increments"] / vertices if vertices else 0.0, "ratio")
    values["harness.self_s"] = ((rec.wall - layer_self) / per, "s")
    values["trace.wall_s"] = (rec.wall / per, "s")
    untraced = n_jobs / sum(min(row) for row in base.latency)
    traced = n_jobs / sum(min(row) for row in rec.latency)
    values["trace.untraced_jobs_per_s"] = (untraced, "1/s")
    values["trace.traced_jobs_per_s"] = (traced, "1/s")
    values["trace.overhead_jobs_per_s"] = (untraced - traced, "1/s")
    values["trace.overhead_frac"] = ((untraced - traced) / untraced, "ratio")
    for key in ("setup.interpreter_s", "setup.import_s", "setup.parser_s"):
        values[key] = (setup[key], "s")
    return values, agg


# ---------------------------------------------------------------------------
# entry points


def run_workload(args, root: str) -> int:
    import workloads

    units = dict(END_TO_END)
    setup = Setup(root, bare=bool(args.trace))
    setup.measure()
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, OUT_DIR))
    tracer = None
    try:
        t0 = perf_counter()
        jobs = workloads.build(args.workload, args.seed, work)
        gen_s = perf_counter() - t0
        run_passes(jobs, 0, passes=1)  # untimed warm-up
        if args.trace:
            from tracing import Tracer

            base = run_passes(jobs, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                rec = run_passes(jobs, None, passes=base.passes, tracer=tracer)
            finally:
                tracer.uninstall()
                os.chdir(root)
            recs = [base, rec]
        else:
            rec = run_passes(jobs, args.seconds)
            os.chdir(root)
            recs = [rec]
        setup.measure()
        failed, fail_lines, unexplained, (checked, missed) = evaluate(jobs, recs)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(row) for r in recs for row in r.latency)
    setup = setup.medians()
    print(f"workload {args.workload}  seed {args.seed}  {len(jobs)} jobs per pass  "
          f"generation {gen_s:.2f} s  trace {args.trace}")
    for line in fail_lines:
        print("  " + line)
    print(f"  failed_frac {failed / attempted:.6f} ({failed} of {attempted} attempted)")
    print(f"  self-test: {checked} checkers given a corrupted answer, "
          f"{checked - len(missed)} counted it as failed" + (f"; missed: {missed}" if missed else ""))
    if args.trace:
        values, agg = per_layer(rec, base, tracer, setup, len(jobs))
        spans_path = os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"  traced {rec.passes} passes, {len(tracer.spans)} spans written to {spans_path}")
        print(f"  {'layer span':44} {'self s/pass':>12} {'calls/pass':>11} {'errors':>7}")
        total = 0.0
        for name, (s, calls, errors) in sorted(agg.items(), key=lambda kv: -kv[1][0]):
            if name == "harness.job":
                continue
            total += s / rec.passes
            print(f"  {name:44} {s / rec.passes:12.6f} {calls / rec.passes:11.1f} {errors / rec.passes:7.1f}")
        harness = values["harness.self_s"][0]
        print(f"  {'harness (job glue, loop, checks excluded)':44} {harness:12.6f}")
        print(f"  layers {total:.6f} s + harness {harness:.6f} s = {total + harness:.6f} s; "
              f"traced wall {values['trace.wall_s'][0]:.6f} s per pass")
        print(f"  tracing overhead: {values['trace.overhead_jobs_per_s'][0]:.3f} jobs/s "
              f"({100 * values['trace.overhead_frac'][0]:.2f}% of untraced "
              f"{values['trace.untraced_jobs_per_s'][0]:.3f} jobs/s)")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        values = end_to_end(jobs, rec, setup)
        for name, (value, note) in values.items():
            print(f"  {name:12} {value:14.6f} {units[name]:4} ({note})")
        metrics = {k: {"value": v, "unit": units[k]} for k, (v, _) in values.items()}
    print(json.dumps({"correct": unexplained == 0 and not missed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        report = lines[:-1] if not results else [x for x in lines[:-1] if "setup_s" not in x]
        print("\n".join(report))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    metrics = {}
    for name, res in results.items():
        for key, m in res["metrics"].items():
            if key == "setup_s":
                metrics.setdefault(key, m)
            else:
                metrics[f"{name}.{key}"] = m
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "singcat", "__init__.py")):
        sys.stderr.write("perfbench: ./src/singcat not found; run from the repository root\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [HERE, src]
    import singcat

    if not os.path.abspath(singcat.__file__).startswith(src + os.sep):
        sys.stderr.write(f"perfbench: imported singcat from {singcat.__file__}, not ./src\n")
        return 2
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
