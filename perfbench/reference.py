"""Independent reference answers for the benchmark's answer checks.

Nothing here imports ``singcat``: every parser, invariant and rendering is
written from the documented formats and the mathematics, so a check that
compares the program against this module compares two separate routes.
All arithmetic is exact (integers and fractions).
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import gcd


class RefError(Exception):
    """The reference expects the program to refuse this input."""

    def __init__(self, precondition: str):
        super().__init__(precondition)
        self.precondition = precondition


# ---------------------------------------------------------------------------
# dual graphs


def parse_graph(text: str):
    """Vertices (declaration order), weights and edges of a ``.graph`` text."""
    vertices, weights, edges = [], {}, []
    for raw in text.splitlines():
        for stmt in raw.split("#", 1)[0].split(";"):
            tok = stmt.split()
            if not tok:
                continue
            if tok[0] == "vertex" and len(tok) == 3:
                vertices.append(tok[1])
                weights[tok[1]] = int(tok[2])
            elif tok[0] == "edge" and len(tok) == 3:
                edges.append((tok[1], tok[2]))
            else:
                raise ValueError(f"bad graph statement {stmt!r}")
    return vertices, weights, edges


def graph_text(vertices, weights, edges) -> str:
    lines = [f"vertex {v} {weights[v]};" for v in vertices]
    lines += [f"edge {u} {v};" for u, v in edges]
    return "\n".join(lines) + "\n"


def neighbours(vertices, edges):
    nb = {v: [] for v in vertices}
    for u, v in edges:
        nb[u].append(v)
        nb[v].append(u)
    return nb


def elimination_pivots(vertices, weights, edges):
    """Pivots of leaf-first Schur elimination on a tree, or None.

    Eliminating a leaf c with pivot p_c < 0 replaces its parent's diagonal
    entry w by w - 1/p_c, which keeps the tree shape and needs no fill; the
    form is negative definite exactly when every pivot is negative.  None
    means the graph is not a tree or a pivot is not negative.
    """
    nb = neighbours(vertices, edges)
    root = vertices[0]
    order, parent = [root], {root: None}
    for v in order:
        for u in nb[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    if len(order) != len(vertices) or len(edges) != len(vertices) - 1:
        return None
    pivot = {v: Fraction(weights[v]) for v in vertices}
    for v in reversed(order):
        if pivot[v] >= 0:
            return None
        p = parent[v]
        if p is not None:
            pivot[p] -= 1 / pivot[v]
    return pivot


def laufer(vertices, weights, edges, limit: int | None = None):
    """Laufer's increment loop with a worklist and no step cap.

    Returns the fundamental cycle, or None once more than ``limit``
    increments have been made (the caller uses that to bound a search).
    """
    nb = neighbours(vertices, edges)
    z = {v: 1 for v in vertices}
    work = list(vertices)
    queued = set(work)
    steps = 0
    while work:
        v = work.pop()
        queued.discard(v)
        before = z[v]
        while weights[v] * z[v] + sum(z[u] for u in nb[v]) > 0:
            z[v] += 1
            steps += 1
            if limit is not None and steps > limit:
                return None
        if z[v] == before:
            continue
        for u in nb[v]:
            if u not in queued:
                queued.add(u)
                work.append(u)
    return z


def pairing(z, v, weights, nb) -> int:
    """Intersection number Z . E_v."""
    return weights[v] * z[v] + sum(z[u] for u in nb[v])


def cycle_problems(z, vertices, weights, edges) -> str | None:
    """Why ``z`` is not the fundamental cycle, or None if it is.

    Checks positivity, anti-nefness (Z.E_v <= 0 for every v), local
    minimality (no Z - E_v is still an anti-nef positive cycle), and
    equality with the uncapped worklist recomputation.
    """
    nb = neighbours(vertices, edges)
    if set(z) != set(vertices):
        return "coefficients do not cover the vertex set"
    if any(not isinstance(c, int) or c < 1 for c in z.values()):
        return "a coefficient is not a positive integer"
    for v in vertices:
        if pairing(z, v, weights, nb) > 0:
            return f"not anti-nef at {v}"
    for v in vertices:
        if z[v] > 1:
            z[v] -= 1
            ok = all(pairing(z, u, weights, nb) <= 0 for u in [v] + nb[v])
            z[v] += 1
            if ok:
                return f"not minimal: lowering {v} stays anti-nef"
    ref = laufer(vertices, weights, edges)
    if ref != z:
        return "differs from the uncapped recomputation"
    return None


def ade_name(comp, nb_in) -> str:
    """Dynkin type of a connected (-2)-tree given by its internal adjacency."""
    n = len(comp)
    branch = [v for v in comp if len(nb_in[v]) >= 3]
    if not branch:
        return f"A{n}"
    if len(branch) > 1 or len(nb_in[branch[0]]) > 3:
        raise RefError("ADE shape")
    c = branch[0]
    arms = []
    for first in nb_in[c]:
        length, prev, cur = 1, c, first
        while True:
            nxt = [w for w in nb_in[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    a, b, k = sorted(arms)
    if (a, b) == (1, 1):
        return f"D{k + 3}"
    if (a, b) == (1, 2) and k in (2, 3, 4):
        return f"E{k + 4}"
    raise RefError("ADE shape")


def decompose(vertices, weights, edges, contracted):
    """Payload of ``surface decompose``: components of the contracted set."""
    sset = set(contracted)
    nb = neighbours(vertices, edges)
    nb_in = {v: [u for u in nb[v] if u in sset] for v in sset}
    seen, pieces = set(), []
    for v in vertices:
        if v not in sset or v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for u in nb_in[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        name = ade_name(comp, nb_in)
        m = re.match(r"([ADE])(\d+)", name)
        pieces.append(((m.group(1), int(m.group(2))), name, [u for u in vertices if u in comp]))
    pieces.sort(key=lambda p: (p[0], p[2]))
    return {
        "blocks": [p[1] for p in pieces],
        "components": [{"type": p[1], "vertices": p[2]} for p in pieces],
    }


def cyclic_problems(n: int, a: int, payload) -> str | None:
    """The expansion must re-evaluate to n/a and the graph must be its chain."""
    exp = payload.get("expansion")
    if not exp or any(not isinstance(c, int) or c < 2 for c in exp):
        return "expansion has a coefficient below 2"
    value = Fraction(exp[-1])
    for c in reversed(exp[:-1]):
        value = c - 1 / value
    if value != Fraction(n, a):
        return f"expansion evaluates to {value}, not {n}/{a}"
    names = [str(i + 1) for i in range(len(exp))]
    graph = {
        "vertices": sorted(names),
        "weights": {v: -exp[int(v) - 1] for v in sorted(names)},
        "edges": sorted(sorted(e) for e in zip(names, names[1:])),
    }
    if payload.get("graph") != graph or payload.get("n") != n or payload.get("a") != a:
        return "graph is not the chain of the expansion"
    return None


def expansion(n: int, a: int) -> list[int]:
    """Hirzebruch-Jung expansion by the Euclid-like recursion, for rendering."""
    out = []
    while a:
        c = -(-n // a)
        out.append(c)
        n, a = a, c * a - n
    return out


# ---------------------------------------------------------------------------
# presentations and gentle invariants


class Quiver:
    def __init__(self, vertices, arrows, relations):
        self.vertices = list(vertices)
        self.arrows = list(arrows)  # (label, source, target)
        self.relations = list(relations)  # (first applied, second applied)
        self.src = {a: s for a, s, _ in arrows}
        self.tgt = {a: t for a, _, t in arrows}
        self.rel = set(relations)
        self._out = {v: [] for v in self.vertices}
        self._into = {v: [] for v in self.vertices}
        for a, s, t in self.arrows:
            self._out[s].append(a)
            self._into[t].append(a)

    def out(self, v):
        return self._out[v]

    def into(self, v):
        return self._into[v]


def parse_quiver(text: str) -> Quiver:
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    vertices, arrows, relations = [], [], []
    labels: set[str] = set()
    for stmt in text.split(";"):
        tok = stmt.split()
        if not tok or (tok[0] in ("arrows", "relations") and len(tok) == 1):
            continue
        if tok[0] == "vertices":
            vertices += tok[1:]
        elif tok[0] == "arrow":
            rest = " ".join(tok[1:]).replace(":", " : ").split()
            label, _, s, _, t = rest
            arrows.append((label, s, t))
            labels.add(label)
        elif tok[0] == "relation":
            if len(tok) == 3:
                shown_first, shown_second = tok[1], tok[2]
            else:
                cuts = [
                    (tok[1][:i], tok[1][i:])
                    for i in range(1, len(tok[1]))
                    if tok[1][:i] in labels and tok[1][i:] in labels
                ]
                if len(cuts) != 1:
                    raise ValueError(f"relation token {tok[1]!r} is ambiguous")
                shown_first, shown_second = cuts[0]
            relations.append((shown_second, shown_first))
        else:
            raise ValueError(f"bad statement {stmt!r}")
    return Quiver(vertices, arrows, relations)


def quiver_text(q: Quiver) -> str:
    lines = ["vertices " + " ".join(q.vertices) + ";"]
    lines += [f"arrow {a}: {s} -> {t};" for a, s, t in q.arrows]
    lines += [f"relation {b} {a};" for a, b in q.relations]
    return "\n".join(lines) + "\n"


def gentle_violations(q: Quiver) -> Counter:
    """Multiset of (condition, location) for G1, G3 and G4."""
    found = Counter()
    for v in q.vertices:
        found[("G1", v)] += (len(q.out(v)) > 2) + (len(q.into(v)) > 2)
    for a, s, t in q.arrows:
        after, before = q.out(t), q.into(s)
        found[("G3", a)] += sum(1 for b in after if (a, b) in q.rel) > 1
        found[("G3", a)] += sum(1 for b in before if (b, a) in q.rel) > 1
        found[("G4", a)] += sum(1 for b in after if (a, b) not in q.rel) > 1
        found[("G4", a)] += sum(1 for b in before if (b, a) not in q.rel) > 1
    return +found


def _require_gentle(q: Quiver):
    if gentle_violations(q):
        raise RefError("gentle presentation")


def cycle_name(display) -> str:
    return "".join(display) if all(len(x) == 1 for x in display) else " ".join(display)


def critical_cycles(q: Quiver):
    """Canonical display tuples of the critical cycles, in output order."""
    _require_gentle(q)
    nxt = dict(q.relations)
    seen, out = set(), []
    for a, _, _ in q.arrows:
        chain, cur = [a], nxt.get(a)
        while cur is not None and cur != a and len(chain) <= len(q.arrows):
            chain.append(cur)
            cur = nxt.get(cur)
        if cur != a or frozenset(chain) in seen:
            continue
        seen.add(frozenset(chain))
        shown = max(
            tuple(reversed(chain[i:] + chain[:i])) for i in range(len(chain))
        )
        out.append(shown)
    out.sort(key=lambda d: (len(d), d))
    return out


def radical_walk(q: Quiver, first: str):
    prev, at, walk = first, q.tgt[first], []
    while True:
        free = [b for b in q.out(at) if (prev, b) not in q.rel]
        if not free:
            return walk
        if free[0] in walk:
            raise RefError("finite-dimensional gentle algebra")
        walk.append(free[0])
        prev, at = free[0], q.tgt[free[0]]


def gentle_payload(op: str, q: Quiver, other: Quiver | None = None) -> dict:
    """Expected ``gentle <op>`` JSON, except violation details for ``check``."""
    if op == "check":
        v = gentle_violations(q)
        return {"is_gentle": not v, "violations": sorted(v.elements())}
    if op == "compare":
        f1 = Counter(len(c) for c in critical_cycles(q))
        f2 = Counter(len(c) for c in critical_cycles(other))
        only1, only2 = sorted((f1 - f2).elements()), sorted((f2 - f1).elements())
        return {
            "compatible": not only1 and not only2,
            "witness": {"only_first": only1, "only_second": only2},
        }
    cycles = critical_cycles(q)
    if op == "cycles":
        return {"cycles": [{"arrows": list(c), "length": len(c)} for c in cycles]}
    if op == "singcat":
        return {
            "factors": [len(c) for c in cycles],
            "cycle_of_factor": [cycle_name(c) for c in cycles],
        }
    if op == "gp":
        records, keys = [], set()
        for c in cycles:
            for label in reversed(c):
                key = (cycle_name(c), q.src[label])
                if key in keys:
                    raise RefError("critical cycle visits each vertex once")
                keys.add(key)
                records.append(
                    {
                        "cycle": key[0],
                        "vertex": key[1],
                        "top": q.tgt[label],
                        "walk": radical_walk(q, label),
                    }
                )
        records.sort(key=lambda r: (r["cycle"], r["vertex"]))
        return {"projectives": sorted(q.vertices), "radicals": records}
    raise ValueError(op)


def normalise_check(payload) -> dict:
    """Drop the free-text detail of each violation so reports compare."""
    return {
        "is_gentle": payload["is_gentle"],
        "violations": sorted(
            (v["condition"], v["location"]) for v in payload["violations"]
        ),
    }


# ---------------------------------------------------------------------------
# nodal block


_OBJ = re.compile(r"^(P|S)([+-]|[12*])?(?:\((\d+)\))?(?:\[(-?\d+)\])?$")


def parse_obj(text: str):
    """Summands as tuples: ('P', sign, shift), ('S', sign, length, shift),
    ('P2', shift) and ('Z', length, shift); P* and P1 are zero."""
    text = text.strip()
    if text == "0":
        return []
    out = []
    for part in text.split(","):
        part = part.replace(" ", "")
        m = _OBJ.match(part)
        if not m:
            raise RefError("objects look like P+[n], S-(l)[n], P2[n] or S(l)[n]")
        kind, sign, length, shift = m.group(1), m.group(2), m.group(3), int(m.group(4) or 0)
        if kind == "P" and length is None and sign in ("*", "1"):
            continue
        if kind == "P" and length is None and sign in ("+", "-"):
            out.append(("P", sign, shift))
        elif kind == "P" and length is None and sign == "2":
            out.append(("P2", shift))
        elif kind == "S" and length is not None and sign in ("+", "-"):
            out.append(("S", sign, int(length), shift))
        elif kind == "S" and length is not None and sign is None:
            out.append(("Z", int(length), shift))
        else:
            raise RefError("objects look like P+[n], S-(l)[n], P2[n] or S(l)[n]")
        if length is not None and int(length) < 1:
            raise RefError("length >= 1")
    return out


def fmt_obj(o) -> str:
    base = {"P": lambda: f"P{o[1]}", "S": lambda: f"S{o[1]}({o[2]})",
            "P2": lambda: "P2", "Z": lambda: f"S({o[1]})"}[o[0]]()
    return base if o[-1] == 0 else f"{base}[{o[-1]}]"


def _twist(n: int, sign: str) -> str:
    return sign if n % 2 == 0 else ("-" if sign == "+" else "+")


def hom(x, y) -> int:
    """Hom dimension between two indecomposables of one block."""
    kx, ky = x[0], y[0]
    n = y[-1] - x[-1]
    if kx == "P" and ky == "P":
        return int(n <= 0 and x[1] == _twist(n, y[1]))
    if kx == "P" and ky == "S":
        return int(0 <= -n < y[2] and x[1] == _twist(-n, y[1]))
    if kx == "S" and ky == "P":
        return int(2 <= n <= x[2] + 1 and y[1] != _twist(n, x[1]))
    if kx == "S" and ky == "S":
        l, lp = x[2], y[2]
        same = y[1] == _twist(n, x[1])
        return int((n <= 0 and 1 <= lp + n <= l and same)
                   or (n >= 2 and 1 <= l + 2 - n <= lp and not same))
    if kx == "P2" and ky == "P2":
        return int(n <= 0)
    if kx == "P2" and ky == "Z":
        return int(0 <= -n < y[1])
    if kx == "Z" and ky == "P2":
        return int(2 <= n <= x[1] + 1)
    if kx == "Z" and ky == "Z":
        l, lp = x[1], y[1]
        return int((n <= 0 and 0 < lp + n <= l) or (2 <= n <= l + 1 < n + lp))
    raise RefError("both objects live in the same block")


def _block(summands):
    blocks = {"nodal" if s[0] in ("P", "S") else "zero" for s in summands}
    if len(blocks) > 1:
        raise RefError("all summands belong to one block")
    return blocks.pop() if blocks else None


def hom_sum(xs, ys) -> int:
    bx, by = _block(xs), _block(ys)
    if bx and by and bx != by:
        raise RefError("both objects live in the same block")
    return sum(hom(x, y) for x in xs for y in ys)


def k0(summands):
    plus = minus = 0
    for s in summands:
        if s[0] == "P":
            c = {"+": (1, 0), "-": (0, 1)}[s[1]]
            sg = (-1) ** (s[2] % 2)
        elif s[0] == "S":
            _, tau, l, shift = s
            sigma = tau if l % 2 == 0 else _twist(1, tau)
            c = [0, 0]
            c[0 if tau == "+" else 1] += 1
            c[0 if sigma == "+" else 1] += (-1) ** ((l + 1) % 2)
            sg = (-1) ** (shift % 2)
        else:
            raise RefError("object is a nodal indecomposable or a list of them")
        plus += sg * c[0]
        minus += sg * c[1]
    return [plus, minus]


def string_complex(s):
    """Terms and differential displays of an unshifted minimal string."""
    if s[0] == "Z":
        l = s[1]
        return ["P2"] + ["P1"] * l + ["P2"], ["a"] + ["ba"] * (l - 1) + ["b"]
    _, tau, l, _ = s
    sigma = tau if l % 2 == 0 else _twist(1, tau)
    diffs = ["δ" if sigma == "+" else "β"]
    pair = "αβ" if (tau == "+") == (l % 2 == 0) else "γδ"
    for _ in range(1, l):
        diffs.append(pair)
        pair = "γδ" if pair == "αβ" else "αβ"
    diffs.append("γ" if tau == "+" else "α")
    return [f"P{sigma}"] + ["P*"] * l + [f"P{tau}"], diffs


def table_objects(lo: int, hi: int, maxlen: int):
    objs = [("P", s, n) for s in "+-" for n in range(lo, hi + 1)]
    objs += [("S", s, l, n) for s in "+-" for l in range(1, maxlen + 1)
             for n in range(lo, hi + 1)]
    return objs


def ar_window(component: str, lo: int, hi: int, maxlen: int):
    sign = "+" if component.endswith("plus") else "-"
    flip = {"+": "-", "-": "+"}
    if component.startswith("projective"):
        members = [("P", _twist(n, sign), n) for n in range(lo, hi + 1)]
        inside = set(members)
        solid = [(m, ("P", flip[m[1]], m[2] - 1)) for m in members
                 if ("P", flip[m[1]], m[2] - 1) in inside]
        dashed = []
    else:
        members = [("S", _twist(n, sign), l, n)
                   for n in range(lo, hi + 1) for l in range(1, maxlen + 1)]
        inside = set(members)
        solid, dashed = [], []
        for m in members:
            _, s, l, n = m
            for t in (("S", s, l - 1, n), ("S", flip[s], l + 1, n - 1)):
                if t in inside:
                    solid.append((m, t))
            t = ("S", flip[s], l, n + 1)
            if t in inside:
                dashed.append((m, t))
    return {
        "component": component,
        "vertices": [fmt_obj(m) for m in members],
        "solid": [[fmt_obj(a), fmt_obj(b)] for a, b in solid],
        "dashed": [[fmt_obj(a), fmt_obj(b)] for a, b in dashed],
    }


# ---------------------------------------------------------------------------
# dg-Auslander graded quivers


def mesh_problems(payload, family: str, rank: int, parity: str) -> str | None:
    """Check the mesh rule on a graded quiver JSON.

    d(rho_v) has exactly one term per solid arrow out of v; the term that
    starts with a: v -> j continues with a solid arrow j -> tau^-1(v).
    """
    if (payload.get("family"), payload.get("rank"), payload.get("parity")) != (family, rank, parity):
        return "header does not name the requested type"
    vertices = payload["vertices"]
    tau = payload["translation"]
    if sorted(tau) != sorted(vertices) or sorted(tau.values()) != sorted(vertices):
        return "translation is not a bijection of the vertices"
    inv = {w: v for v, w in tau.items()}
    solid = {a["label"]: (a["source"], a["target"]) for a in payload["solid_arrows"]}
    if len(solid) != len(payload["solid_arrows"]):
        return "solid labels repeat"
    if parity == "even" and (len(vertices), len(solid)) != (rank, 2 * (rank - 1)):
        return "even parity quiver is not the double quiver of the Dynkin tree"
    broken = payload["broken_arrows"]
    if [(b["source"], b["target"]) for b in broken] != [(v, tau[v]) for v in vertices]:
        return "broken arrows do not run from each vertex to its translate"
    diff = payload["differential"]
    for b in broken:
        v = b["source"]
        terms = diff.get(b["label"])
        if terms is None:
            return f"no differential for {b['label']}"
        firsts = sorted(t[1] for t in terms)
        if firsts != sorted(a for a, (s, _) in solid.items() if s == v):
            return f"d({b['label']}) does not have one term per solid arrow out of {v}"
        for second, first in terms:
            if second not in solid or solid[first][1] != solid[second][0] or solid[second][1] != inv[v]:
                return f"term {second}{first} of d({b['label']}) does not end at tau^-1({v})"
    return None


# ---------------------------------------------------------------------------
# text renderings of the command line tool


def render_text(cmd: tuple, payload: dict) -> str:
    """The ``--format text`` rendering of a command's payload."""
    if cmd == ("nodal", "hom"):
        return str(payload["dim"])
    if cmd == ("nodal", "k0"):
        return "[{}, {}]".format(*payload["class"])
    if cmd == ("nodal", "complex"):
        return ("terms: " + " ".join(payload["terms"]) + "\ndifferentials: "
                + " ".join(payload["differentials"]))
    if cmd == ("nodal", "table"):
        names = payload["objects"]
        w = max(len(n) for n in names)
        lines = [" " * (w + 1) + " ".join(n.rjust(w) for n in names)]
        lines += [name.rjust(w) + "  " + " ".join(str(d).rjust(w) for d in row)
                  for name, row in zip(names, payload["dims"])]
        return "\n".join(lines)
    if cmd == ("surface", "cyclic"):
        exp = payload["expansion"]
        names = [str(i + 1) for i in range(len(exp))]
        body = graph_text(names, {v: -c for v, c in zip(names, exp)},
                          list(zip(names, names[1:])))
        return "expansion: " + " ".join(map(str, exp)) + "\n" + body.rstrip("\n")
    if cmd in (("surface", "fundamental"), ("surface", "ranks")):
        key = "coefficients" if cmd[1] == "fundamental" else "ranks"
        return "\n".join(f"{v}: {c}" for v, c in payload[key].items())
    if cmd == ("surface", "decompose"):
        return "\n".join(f"{c['type']}: " + " ".join(c["vertices"])
                         for c in payload["components"]) or "empty decomposition"
    if cmd == ("gentle", "check"):
        return "gentle" if payload["is_gentle"] else None
    if cmd == ("gentle", "cycles"):
        return "\n".join(f"{cycle_name(c['arrows'])} (length {c['length']})"
                         for c in payload["cycles"]) or "no cycles"
    if cmd == ("gentle", "singcat"):
        return "factors: " + (" ".join(map(str, payload["factors"])) or "(none)")
    if cmd == ("gentle", "compare"):
        if payload["compatible"]:
            return "compatible"
        w = payload["witness"]
        return ("incompatible: only first " + (" ".join(map(str, w["only_first"])) or "-")
                + ", only second " + (" ".join(map(str, w["only_second"])) or "-"))
    if cmd == ("gentle", "gp"):
        lines = ["projectives: " + " ".join(payload["projectives"])]
        for r in payload["radicals"]:
            walk = " ".join(r["walk"]) if r["walk"] else "(simple)"
            lines.append(f"R[{r['cycle']}, {r['vertex']}]: top {r['top']}, walk {walk}")
        return "\n".join(lines)
    return None


def coprime_pair(rng, hi: int):
    while True:
        n = rng.randint(2, hi)
        a = rng.randint(1, n - 1)
        if gcd(n, a) == 1:
            return n, a
