"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``SPANS`` by a
wrapper that records a span (name, start, end, parent span, job id, whether
a SingcatError escaped).  The function is rebound in its own module and in
every namespace that imported it by name (``cli`` imports
``parse_presentation`` directly, for instance).  ``DualGraph`` and
``Presentation`` are timed through their ``_validate`` methods.  Spans stay
in memory until ``write`` dumps them once, at the end of a run.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import workloads
from singcat import cli, dg_auslander, gentle, nodal, quiver, surface
from singcat.quiver import SingcatError


def _count(name, measure):
    def update(counts, args, result):
        counts[name] += measure(args, result)

    return update


def _laufer(counts, args, result):
    counts["surface.laufer_increments"] += sum(result.values()) - len(result)
    counts["surface.laufer_vertices"] += len(result)


# (module, attribute, span name, counter update or None)
SPANS = [
    (surface, "DualGraph._validate", "surface.DualGraph",
     _count("surface.vertices", lambda a, r: len(a[0].vertices))),
    (surface, "is_negative_definite", "surface.is_negative_definite", None),
    (surface, "fundamental_cycle", "surface.fundamental_cycle", _laufer),
    (surface, "parse_dual_graph", "surface.parse_dual_graph", None),
    (surface, "decompose", "surface.decompose", None),
    (surface, "ade_recognize", "surface.ade_recognize", None),
    (surface, "cyclic_dual_graph", "surface.cyclic_dual_graph", None),
    (quiver, "parse_presentation", "quiver.parse_presentation", None),
    (quiver, "Presentation._validate", "quiver.Presentation",
     _count("quiver.arrows", lambda a, r: len(a[0].arrows))),
    (gentle, "check_gentle", "gentle.check_gentle",
     _count("gentle.arrows_checked", lambda a, r: len(a[0].arrows))),
    (gentle, "critical_cycles", "gentle.critical_cycles",
     _count("gentle.cycles_found", lambda a, r: len(r))),
    (gentle, "gorenstein_projectives", "gentle.gorenstein_projectives",
     _count("gentle.walk_steps", lambda a, r: sum(len(m.arrows) for m in r.radicals.values()))),
    (gentle, "singularity_category", "gentle.singularity_category", None),
    (gentle, "compare_invariant", "gentle.compare_invariant", None),
    (dg_auslander, "dg_auslander", "dg_auslander.dg_auslander", None),
    (dg_auslander, "differential", "dg_auslander.differential",
     _count("dg_auslander.mesh_terms", lambda a, r: sum(len(t) for t in r.values()))),
    (dg_auslander, "graded_quiver_to_json", "dg_auslander.graded_quiver_to_json", None),
    (dg_auslander, "serialize_graded_quiver", "dg_auslander.serialize_graded_quiver", None),
    (workloads, "hom_table", "nodal.hom_table",
     _count("nodal.hom_evals", lambda a, r: len(a[0]) ** 2)),
    (nodal, "ar_window", "nodal.ar_window", None),
    (nodal, "parse_object", "nodal.parse_object", None),
    (cli, "run", "cli.run", None),
    (cli, "build_parser", "cli.build_parser", None),
]

COUNTERS = [
    "surface.vertices", "surface.laufer_increments", "quiver.arrows",
    "gentle.arrows_checked", "gentle.cycles_found", "gentle.walk_steps",
    "dg_auslander.mesh_terms", "nodal.hom_evals", "cli.bytes_out",
]

_NAMESPACES = (quiver, gentle, nodal, surface, dg_auslander, cli, workloads)

ROOT = "harness.job"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.counts: Counter = Counter()
        self._saved: list[tuple] = []
        self.root = self._wrap(ROOT, lambda call: call(), None)

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SingcatError:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, holder, key, value):
        self._saved.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def install(self):
        for module, attr, name, count in SPANS:
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, leaf)
            wrapper = self._wrap(name, original, count)
            self._set(holder, leaf, wrapper)
            if owner:
                continue
            for ns in _NAMESPACES:
                for key, value in list(vars(ns).items()):
                    if value is original and (ns, key) != (module, leaf):
                        self._set(ns, key, wrapper)

    def uninstall(self):
        while self._saved:
            holder, key, value = self._saved.pop()
            setattr(holder, key, value)

    def self_times(self):
        """{span name: [self seconds, calls, errors]}; self time is the span's
        duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        agg = defaultdict(lambda: [0.0, 0, 0])
        for i, (name, t0, t1, _, _, err) in enumerate(self.spans):
            a = agg[name]
            a[0] += (t1 - t0) - covered[i]
            a[1] += 1
            a[2] += err
        return agg

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, job, err) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job, "error": err}) + "\n")
