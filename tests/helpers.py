"""Shared fixtures and independent reference oracles for the test suite.

The oracle functions here are deliberately self-contained: they never call
into the package and use their own data representations (signs as +1/-1
integers, matrices as plain lists of Fractions), so agreement between the
library and an oracle is a genuine dual-route check rather than the same
code evaluated twice.
"""

from __future__ import annotations

import json
import random
import re
import shlex
from fractions import Fraction
from pathlib import Path

from singcat.quiver import Presentation

ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# command lines shipped with the repository


def corpus_argvs() -> list[list[str]]:
    """The argv of each corpus case, in file name order."""
    return [
        json.loads(path.read_text(encoding="utf-8"))["argv"]
        for path in sorted((ROOT / "corpus").glob("*.json"))
    ]


def readme_commands() -> list[tuple]:
    """(line, printed text, printed JSON subset) for each README command.

    Every ``singcat`` line of the README's sh blocks is listed.  An untagged
    block right after an sh block shows what that block's last command
    prints; a trailing ``# {...}`` comment shows keys of a command's JSON
    output, with ``, ...`` standing for the keys left out.
    """
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S))
    cases = []
    for block, following in zip(blocks, blocks[1:] + [None]):
        if block.group(1) != "sh":
            continue
        lines = [ln for ln in block.group(2).splitlines() if ln.startswith("singcat ")]
        printed = None
        if (
            following is not None
            and following.group(1) == ""
            and not text[block.end():following.start()].strip()
        ):
            printed = following.group(2).rstrip("\n")
        for i, line in enumerate(lines):
            comment = re.search(r"#\s*(\{.*\})\s*$", line)
            subset = json.loads(comment.group(1).replace(", ...}", "}")) if comment else None
            cases.append((line, printed if i == len(lines) - 1 else None, subset))
    return cases


def readme_argv(line: str) -> list[str]:
    """The argv of a README command line, without ``singcat`` and comments."""
    return shlex.split(line, comments=True)[1:]


# ---------------------------------------------------------------------------
# gentle presentation fixtures


def illustrative() -> Presentation:
    """Eight-vertex presentation with two critical cycles, jfe and kgh."""
    return Presentation(
        vertices=[str(i) for i in range(1, 9)],
        arrows=[
            ("a", "1", "2"),
            ("b", "2", "3"),
            ("c", "3", "4"),
            ("d", "5", "1"),
            ("e", "6", "2"),
            ("f", "2", "7"),
            ("g", "4", "7"),
            ("h", "8", "4"),
            ("j", "7", "6"),
            ("k", "7", "8"),
            ("i", "6", "5"),
        ],
        relations=[
            ("a", "b"),
            ("e", "f"),
            ("f", "j"),
            ("j", "e"),
            ("g", "k"),
            ("k", "h"),
            ("h", "g"),
        ],
    )


def lambda_n(n: int) -> Presentation:
    """Fan with a two-arrow source vertex 0 and n-1 paired two-cycles.

    Vertices 0..n; arrows g1: 0 -> 1, g2: 0 -> n, and for each rung
    i = 1..n-1 a forward arrow a_i: i -> i+1 and a backward arrow
    b_i: i+1 -> i, with both composites a_i b_i and b_i a_i zero.
    """
    vertices = [str(i) for i in range(n + 1)]
    arrows = [("g1", "0", "1"), ("g2", "0", str(n))]
    for i in range(1, n):
        arrows.append((f"a{i}", str(i), str(i + 1)))
        arrows.append((f"b{i}", str(i + 1), str(i)))
    relations = []
    for i in range(1, n):
        relations.append((f"b{i}", f"a{i}"))
        relations.append((f"a{i}", f"b{i}"))
    return Presentation(vertices, arrows, relations)


def hexagon() -> Presentation:
    """Oriented 3-cycle with every length-two composite zero."""
    return Presentation(
        vertices=["1", "2", "3"],
        arrows=[("x", "1", "2"), ("y", "2", "3"), ("z", "3", "1")],
        relations=[("x", "y"), ("y", "z"), ("z", "x")],
    )


def final_example() -> Presentation:
    """Nine-vertex presentation with cycles of lengths 1, 6 and 7."""
    arrows = [
        ("a1", "2", "3"),
        ("a2", "3", "5"),
        ("a3", "5", "6"),
        ("a4", "6", "7"),
        ("a5", "7", "1"),
        ("a6", "1", "2"),
        ("b1", "2", "3"),
        ("b2", "3", "6"),
        ("b3", "6", "7"),
        ("b4", "7", "8"),
        ("b5", "8", "9"),
        ("b6", "9", "10"),
        ("b7", "10", "2"),
        ("c", "8", "8"),
    ]
    a_cycle = [(f"a{i}", f"a{i + 1}") for i in range(1, 6)] + [("a6", "a1")]
    b_cycle = [(f"b{j}", f"b{j + 1}") for j in range(1, 7)] + [("b7", "b1")]
    return Presentation(
        vertices=["1", "2", "3", "5", "6", "7", "8", "9", "10"],
        arrows=arrows,
        relations=a_cycle + b_cycle + [("c", "c")],
    )


def loop_square() -> Presentation:
    """One loop with square zero: a single critical cycle of length 1."""
    return Presentation(["v"], [("b", "v", "v")], [("b", "b")])


def two_cycle() -> Presentation:
    """Two vertices joined both ways, both composites zero."""
    return Presentation(
        ["1", "2"],
        [("a", "1", "2"), ("b", "2", "1")],
        [("a", "b"), ("b", "a")],
    )


def two_loops_all_relations() -> Presentation:
    """Two loops with every length-two product zero; violates G3."""
    return Presentation(
        ["v"],
        [("x", "v", "v"), ("y", "v", "v")],
        [("x", "x"), ("y", "x"), ("x", "y"), ("y", "y")],
    )


def two_loops_mixed() -> Presentation:
    """Two loops with only the mixed products zero; infinite dimensional."""
    return Presentation(
        ["v"],
        [("x", "v", "v"), ("y", "v", "v")],
        [("y", "x"), ("x", "y")],
    )


def parallel_triple() -> Presentation:
    """Three parallel arrows; violates G1 at both endpoints."""
    return Presentation(
        ["1", "2"],
        [("x", "1", "2"), ("y", "1", "2"), ("z", "1", "2")],
        [],
    )


def a2_path() -> Presentation:
    """Hereditary two-vertex path; no relations, no critical cycles."""
    return Presentation(["1", "2"], [("a", "1", "2")], [])


def brute_force_critical_cycles(pres: Presentation) -> set[frozenset[str]]:
    """Cycle oracle by exhaustive search over repetition-free sequences.

    A critical cycle is a sequence of distinct arrows whose consecutive
    pairs, read cyclically in application order, are all relations.  The
    search is exponential in the number of arrows, so use it only on tiny
    presentations.
    """
    labels = [a.label for a in pres.arrows]
    rel = pres.relation_set
    found: set[frozenset[str]] = set()

    def extend(seq: list[str]) -> None:
        last = seq[-1]
        for b in labels:
            if b == seq[0] and (last, b) in rel:
                found.add(frozenset(seq))
            if b not in seq and (last, b) in rel:
                extend(seq + [b])

    for start in labels:
        extend([start])
    return found


# ---------------------------------------------------------------------------
# brute-force scans mirroring the indexed quiver lookups
#
# These rescan every arrow on each query, as the package did before it
# indexed presentations and graded quivers at construction.


def scan_arrows_from(pres: Presentation, vertex: str) -> list:
    return [a for a in pres.arrows if a.source == vertex]


def scan_arrows_into(pres: Presentation, vertex: str) -> list:
    return [a for a in pres.arrows if a.target == vertex]


def presentation_index(pres: Presentation) -> dict:
    """Every index a presentation keeps, with ``arrow()`` of each label, so
    that two routes to the same presentation can be compared in full."""
    return {
        "outgoing": pres.outgoing,
        "incoming": pres.incoming,
        "successors": pres.successors,
        "predecessors": pres.predecessors,
        "relation_set": pres.relation_set,
        "arrow": {a.label: pres.arrow(a.label) for a in pres.arrows},
    }


def rebuilt(pres: Presentation) -> Presentation:
    """The same fields through the public, fully validating constructor."""
    return Presentation(pres.vertices, pres.arrows, pres.relations)


def scan_gentle_violations(pres: Presentation) -> tuple[tuple[str, str, str], ...]:
    """(condition, location, detail) of every gentle violation, in report order.

    G1 per vertex (leaving, then entering arrows), then per arrow in
    declaration order: G3 successors, G3 predecessors, G4 successors, G4
    predecessors.  Label lists keep declaration order.
    """
    rel = set(pres.relations)
    found = []
    for v in pres.vertices:
        for verb, scan in (("leave", scan_arrows_from), ("enter", scan_arrows_into)):
            labels = [a.label for a in scan(pres, v)]
            if len(labels) > 2:
                found.append(("G1", v, f"{len(labels)} arrows {verb} {v}: {labels}"))
    for a in pres.arrows:
        after = [b.label for b in scan_arrows_from(pres, a.target)]
        before = [b.label for b in scan_arrows_into(pres, a.source)]
        for condition, kind, labels in (
            ("G3", "relation successors", [b for b in after if (a.label, b) in rel]),
            ("G3", "relation predecessors", [b for b in before if (b, a.label) in rel]),
            ("G4", "relation-free successors", [b for b in after if (a.label, b) not in rel]),
            ("G4", "relation-free predecessors", [b for b in before if (b, a.label) not in rel]),
        ):
            if len(labels) > 1:
                found.append((condition, a.label, f"multiple {kind} of {a.label}: {labels}"))
    return tuple(found)


def _mesh_label_key(label: str) -> tuple[tuple, int]:
    """(number, star) of a solid label.

    α_k and α_k*, k written in the digits 0-9, have the number k and the
    star 0 and 1.  A number is compared without converting it to an int:
    first by how many digits it has once leading zeros are dropped, then
    digit by digit, so k may have any length and α_01 is α_1.  Every other
    label has the number (1,), after all numbers k.
    """
    starred = label.endswith("*")
    digits = label[2:-1] if starred else label[2:]
    if label.startswith("α_") and digits and all(c in "0123456789" for c in digits):
        significant = digits.lstrip("0")
        return (0, len(significant), significant), int(starred)
    return (1,), 0


def _mesh_term_key(term: tuple[str, str]):
    """Display order: 2-cycles α_k α_k* first, by k; then the rest."""
    (ka, sa), (kb, sb) = _mesh_label_key(term[0]), _mesh_label_key(term[1])
    if ka == kb and sa != sb:
        return (0, ka, sa)
    return (1, ka, sa, kb, sb)


def scan_mesh_differential(quiver) -> dict[str, tuple[tuple[str, str], ...]]:
    """Mesh differential of every broken arrow by scanning all solid arrows.

    The summand for a solid a: i -> j is (a, b) with b the unique solid
    arrow from j to the vertex whose translate is i.
    """
    result = {}
    for rho in quiver.broken:
        untranslated = [k for k, v in quiver.translation.items() if v == rho.source]
        terms = []
        for a in quiver.solid:
            if a.source != rho.source:
                continue
            partners = [
                b.label
                for b in quiver.solid
                if b.source == a.target and b.target == untranslated[-1]
            ]
            if len(partners) != 1:
                raise ValueError(f"mesh at {rho.source} through {a.label}: {partners}")
            terms.append((a.label, partners[0]))
        result[rho.label] = tuple(sorted(terms, key=_mesh_term_key))
    return result


# ---------------------------------------------------------------------------
# double quivers of the Dynkin trees, in the README numbering
#
# A_n joins i and i + 1.  D_n joins 1 and 3, E_n joins 1 and 4, and both join
# i and i + 1 from i = 2 on.  An edge from its smaller end u to its larger
# end v gives the arrows α_u: u -> v and α_u*: v -> u.


def _dynkin_joined(family: str, u: int, v: int) -> bool:
    """Whether the vertices u < v of the Dynkin tree are joined."""
    if u == 1 and family != "A":
        return v == {"D": 3, "E": 4}[family]
    return v == u + 1


def oracle_double_quiver(family: str, n: int) -> list[tuple[str, str, str]]:
    """Solid arrows (label, source, target) of the double quiver of the
    Dynkin tree family_n on the vertices 1..n: every pair u < v is tried,
    in order of u, and a joined pair gives α_u, then α_u*."""
    arrows = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if _dynkin_joined(family, u, v):
                arrows += [(f"α_{u}", str(u), str(v)), (f"α_{u}*", str(v), str(u))]
    return arrows


def _reduce(row: dict, rows: dict) -> None:
    """Clear from ``row`` every pivot column of ``rows`` (in place)."""
    for col in [c for c in row if c in rows]:
        f = row[col]
        for c, x in rows[col].items():
            row[c] = row.get(c, 0) - f * x
            if not row[c]:
                del row[c]


def oracle_h0_dimension(payload: dict, limit: int = 10_000) -> int:
    """Dimension over Q of H^0 of a graded quiver, read from its JSON
    payload (as ``graded_quiver_to_json`` writes it): the path algebra of
    the solid arrows modulo the ideal of the broken arrows' differentials.

    Each differential is a sum, coefficients 1, of pairs [b, a] that stand
    for the composite of a, then b.  These relations are quadratic, so H^0
    is graded by path length, and A_d = (A_(d-1) x arrows) / (A_(d-2) x
    relations): each pair (x, a) of a basis element x of A_(d-1) and an
    arrow a out of x's end spans A_d, and each pair (y, r) of a basis
    element y of A_(d-2) and a relation r out of y's end gives the linear
    relation sum_(b, a) in r (y a) b, where y a is read off A_(d-1).  The
    degrees are built until one is 0; a sum over them is the dimension.
    Raises ``AssertionError`` once that sum passes ``limit``.
    """
    vertices = payload["vertices"]
    ends = {a["label"]: (a["source"], a["target"]) for a in payload["solid_arrows"]}
    out_of: dict = {v: [] for v in vertices}
    for label, (source, _) in ends.items():
        out_of[source].append(label)
    relations: dict = {v: [] for v in vertices}
    for rho in payload["broken_arrows"]:
        terms = payload["differential"][rho["label"]]
        for b, a in terms:
            assert ends[a][0] == rho["source"] and ends[a][1] == ends[b][0]
            assert ends[b][1] == rho["target"]
        relations[rho["source"]].append([(a, b) for b, a in terms])
    # basis of A_(d-1) and A_d as (start, end) pairs; ``times`` maps
    # (element of A_(d-2), arrow) to its product in A_(d-1), as {index: coeff}
    previous: list = []
    current = [(v, v) for v in vertices]
    times: dict = {}
    total = 0
    while current:
        total += len(current)
        if total > limit:
            raise AssertionError(f"H^0 has dimension above {limit}")
        spanning = [
            (x, a) for x, (_, end) in enumerate(current) for a in out_of[end]
        ]
        column = {pair: i for i, pair in enumerate(spanning)}
        rows: dict = {}  # reduced echelon form, by pivot column
        for y, (_, end) in enumerate(previous):
            for relation in relations[end]:
                row: dict = {}
                for a, b in relation:
                    for x, c in times[y, a].items():
                        col = column[x, b]
                        row[col] = row.get(col, 0) + c
                        if not row[col]:
                            del row[col]
                _reduce(row, rows)
                if row:
                    pivot = max(row)
                    f = Fraction(1, 1) / row[pivot]
                    row = {c: f * x for c, x in row.items()}
                    for other in rows.values():
                        _reduce(other, {pivot: row})
                    rows[pivot] = row
        free = [i for i in range(len(spanning)) if i not in rows]
        index = {col: k for k, col in enumerate(free)}
        products = {}
        for i, pair in enumerate(spanning):
            if i in rows:  # pivot = -(the rest of its row)
                products[pair] = {index[c]: -x for c, x in rows[i].items() if c != i}
            else:
                products[pair] = {index[i]: 1}
        previous, times = current, products
        current = [(previous[spanning[i][0]][0], ends[spanning[i][1]][1]) for i in free]
    return total


# ---------------------------------------------------------------------------
# Hom dimension oracle for the nodal block
#
# Objects are plain tuples: ("P", s, p) is the shifted projective with sign
# s in {+1, -1} and shift p; ("S", s, l, p) is the shifted minimal string of
# length l.  The shift twist is the multiplication by (-1)**n instead of a
# parity branch.


def _twist(n: int, s: int) -> int:
    return s * (-1) ** (n % 2)


def oracle_hom(x: tuple, y: tuple) -> int:
    if x[0] == "P" and y[0] == "P":
        _, mu, p = x
        _, tau, q = y
        n = q - p
        return 1 if n <= 0 and mu == _twist(n, tau) else 0
    if x[0] == "P" and y[0] == "S":
        _, mu, p = x
        _, tau, l, q = y
        n = p - q
        return 1 if 0 <= n < l and mu == _twist(n, tau) else 0
    if x[0] == "S" and y[0] == "P":
        _, tau, l, p = x
        _, mu, q = y
        n = q - p
        return 1 if 2 <= n <= l + 1 and mu != _twist(n, tau) else 0
    _, tau, l, p = x
    _, mu, lp, q = y
    n = q - p
    if n <= 0 and 1 <= lp + n <= l and mu == _twist(n, tau):
        return 1
    if n >= 2 and 1 <= l + 2 - n <= lp and mu != _twist(n, tau):
        return 1
    return 0


def oracle_k0(sign: int, length: int, shift: int) -> tuple[int, int]:
    """Closed form for the class of a shifted string in the (plus, minus)
    basis, obtained by telescoping the alternating sum over its terms."""
    sigma = sign if length % 2 == 0 else -sign
    vec = {1: 0, -1: 0}
    vec[sign] += 1
    vec[sigma] += (-1) ** (length + 1)
    s = (-1) ** (shift % 2)
    return (s * vec[1], s * vec[-1])


def to_oracle(obj) -> tuple:
    """Convert a package-level nodal object to the oracle representation."""
    from singcat import nodal

    sign = 1 if obj.sign == nodal.PLUS else -1
    if isinstance(obj, nodal.NodalProjective):
        return ("P", sign, obj.shift)
    return ("S", sign, obj.length, obj.shift)


# ---------------------------------------------------------------------------
# Hom dimension in the zero-dimensional block
#
# A frozen copy of the closed formulas of ``nodal.hom_dim_zero``, kept as the
# reference its type dispatch is checked against.  Objects are plain tuples:
# ("P", p) is P2[p] and ("S", l, p) is S(l)[p].


def frozen_hom_zero(x: tuple, y: tuple) -> int:
    if x[0] == "P" and y[0] == "P":
        return int(y[1] - x[1] <= 0)
    if x[0] == "P" and y[0] == "S":
        n = x[1] - y[2]
        return int(0 <= n < y[1])
    if x[0] == "S" and y[0] == "P":
        n = y[1] - x[2]
        return int(2 <= n <= x[1] + 1)
    _, l, p = x
    _, lp, q = y
    n = q - p
    return int((n <= 0 and 0 < lp + n <= l) or (2 <= n <= l + 1 < n + lp))


def to_zero_oracle(obj) -> tuple:
    """Convert a package-level zero-block object to the tuple form above."""
    from singcat import nodal

    if isinstance(obj, nodal.ZeroProjective):
        return ("P", obj.shift)
    return ("S", obj.length, obj.shift)


# ---------------------------------------------------------------------------
# negative definiteness oracle


def intersection_matrix(vertices, edges, weights) -> list[list[int]]:
    """Weights on the diagonal, 1 where two curves meet, in vertex order."""
    vertices = list(vertices)
    pairs = set(edges)
    return [
        [
            weights[u] if u == v else int((u, v) in pairs or (v, u) in pairs)
            for v in vertices
        ]
        for u in vertices
    ]


def fraction_pivots(matrix: list[list[int]]):
    """Pivots of Gaussian elimination over exact fractions, no pivoting.

    Yields each pivot before eliminating below it, and stops after a zero
    pivot, below which nothing can be eliminated.  A row whose entry below
    the pivot is already 0, and an entry above a 0 in the pivot row, are
    left as they are.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]  # ints until a Fraction is subtracted
    for k in range(n):
        pivot = Fraction(m[k][k])
        yield pivot
        if pivot == 0:
            return
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / pivot
                for j in range(k, n):
                    if m[k][j]:
                        m[i][j] -= f * m[k][j]


def oracle_negative_definite(matrix: list[list[int]]) -> bool:
    """A symmetric matrix is negative definite exactly when elimination
    produces a strictly negative pivot at every step; a zero or positive
    pivot disqualifies it immediately.
    """
    return all(p < 0 for p in fraction_pivots(matrix))


def oracle_determinant(matrix: list[list[int]]) -> Fraction:
    """Product of the elimination pivots: the determinant of a matrix whose
    leading principal minors are all non-zero, as for a definite one."""
    det = Fraction(1)
    for p in fraction_pivots(matrix):
        assert p != 0, "a leading principal minor vanishes"
        det *= p
    return det


# ---------------------------------------------------------------------------
# dual graph refusal oracle


def oracle_graph_refusal(vertices, edges, weights, forest=False):
    """The first fault of a weighted graph of named curves, in the order
    the README gives, as ``DualGraph`` (a tree, weights at most -2, a
    definite form) or, with ``forest``, ``is_negative_definite`` (a forest,
    whose definiteness is the answer, not a fault) states it.

    The order: distinct names; then at least one vertex for a tree, or an
    int weight on every vertex in vertex order for a forest; then the first
    edge, in edge order, with an undeclared end, that is a self-loop or that
    repeats an earlier edge in either orientation; then the shape, a tree
    being connected with n - 1 edges and a forest of c trees having n - c;
    then, for a tree, weights on exactly the vertices, each weight in
    weights order an int and at most -2, and a definite form.

    Returns (message, precondition, witness), or None when nothing is
    wrong.  The last step runs fraction elimination on the whole matrix, so
    a large graph should be one that an earlier step refuses.
    """
    vertices, edges = list(vertices), list(edges)
    n, m = len(vertices), len(edges)
    declared = set(vertices)
    if len(declared) != n:
        return "duplicate vertex in dual graph", "vertex names are distinct", {"vertices": vertices}

    def not_an_int(v):
        message = f"vertex {v} has weight {weights[v]!r}, not an integer"
        return message, "weights are ints", {"vertex": v, "weight": repr(weights[v])}

    if forest:
        for v in vertices:
            if v not in weights:
                return f"vertex {v} has no weight", "every vertex has a weight", {"vertex": v}
            if type(weights[v]) is not int:
                return not_an_int(v)
    elif not vertices:
        return "dual graph needs at least one vertex", "at least one exceptional curve", None
    simple = "the graph is simple" if forest else "the dual graph is a simple tree"
    seen = set()
    for u, v in edges:
        if u not in declared or v not in declared:
            message = f"edge ({u}, {v}) uses an undeclared vertex"
            return message, "edge endpoints are declared vertices", {"edge": [u, v]}
        if u == v:
            return f"self-loop at {u}", simple, {"vertex": u}
        if frozenset((u, v)) in seen:
            return f"duplicate edge ({u}, {v})", simple, {"edge": [u, v]}
        seen.add(frozenset((u, v)))
    components = len(induced_components(vertices, edges, declared))
    shape = {"vertices": n, "edges": m}
    if forest:
        if m != n - components:
            return "the graph has a cycle", "the graph is a forest", shape
        return None
    if components != 1 or m != n - 1:
        return "the dual graph is not a tree", "the graph is connected and acyclic", shape
    if set(weights) != declared:
        message = "weights do not cover the vertex set exactly"
        witness = {"weighted": sorted(weights), "vertices": sorted(vertices)}
        return message, "every vertex has exactly one weight", witness
    for v, w in weights.items():
        if type(w) is not int:
            return not_an_int(v)
        if w > -2:
            bound = "every self-intersection weight is at most -2"
            return f"vertex {v} has weight {w}", bound, {"vertex": v, "weight": w}
    if not oracle_negative_definite(intersection_matrix(vertices, edges, weights)):
        message = "the intersection form is not negative definite"
        witness = {"weights": {v: weights[v] for v in sorted(weights)}}
        return message, "negative definite intersection form", witness
    return None


# ---------------------------------------------------------------------------
# presentation text oracle


PRESENTATION_TEXT = "well-formed presentation text"
NAME_RULE = "names contain no whitespace, ';', ':' or '#' and are not '->'"


def _presentation_statements(text: str):
    """The ';'-terminated statements of a presentation text, each a list of
    (word, line, column), and the words left after the last ';'.

    Words are apart by spaces, tabs, '\\r' and '\\n'; '#' starts a comment
    that runs to the next '\\n'.  Lines end at '\\n', and every character is
    one column.
    """
    statements, words, word = [], [], None
    line, column, in_comment = 1, 0, False
    for ch in text:
        column += 1
        if ch == "\n":
            in_comment = False
        elif in_comment:
            continue
        if ch in " \t\r\n#;":
            if word is not None:
                words.append(tuple(word))
                word = None
            if ch == "#":
                in_comment = True
            elif ch == ";":
                statements.append(words)
                words = []
            elif ch == "\n":
                line, column = line + 1, 0
        elif word is None:
            word = [ch, line, column]
        else:
            word[0] += ch
    if word is not None:
        words.append(tuple(word))
    return statements, words


def _breaks_name_rule(name: str) -> bool:
    return name == "->" or any(c.isspace() or c in ";:#" for c in name)


def oracle_parse_presentation(text: str):
    """Read a presentation text statement by statement, as the README's
    format describes it.

    A statement is ``vertices <name>...``, ``arrow <label>: <src> -> <tgt>``
    (or ``<label> :``), ``relation <token>`` (two declared labels run
    together, splitting in exactly one way), ``relation <label> <label>``,
    a bare ``arrows`` or ``relations`` header, or blank.  A relation's
    labels are written in composition order, the right one applied first.
    The name rule is checked once every statement has been read, vertex
    names before arrow labels, in the order they were declared.

    Returns (vertices, arrows, relations): the vertex names, (label,
    source, target) triples and (applied first, applied second) pairs, or
    the first error as (message, line, column, precondition), placed at
    the offending word.  An unterminated last statement is the first error.
    """
    statements, tail = _presentation_statements(text)
    if tail:
        return "statement is not terminated by ';'", tail[0][1], tail[0][2], PRESENTATION_TEXT
    vertex_word: dict = {}  # name -> the word declaring it
    label_word: dict = {}
    arrows: dict = {}  # label -> (source, target)
    relations: list = []
    for words in statements:
        names = [w for w, _, _ in words]

        def fail(message, k, precondition=PRESENTATION_TEXT):
            return message, words[k][1], words[k][2], precondition

        if not names or names in (["arrows"], ["relations"]):
            continue
        if names[0] == "vertices":
            if len(names) == 1:
                return fail("'vertices' expects at least one name", 0)
            for k, name in enumerate(names[1:], 1):
                if name in vertex_word:
                    return fail(f"duplicate vertex {name!r}", k)
                if name == "->":
                    return fail("'->' is not a valid vertex name", k)
                vertex_word[name] = words[k]
        elif names[0] == "arrow":
            joined = len(names) > 1 and names[1].endswith(":") and names[1] != ":"
            if joined and len(names) == 5 and names[3] == "->":
                label, source, target = names[1][:-1], 2, 4
            elif not joined and len(names) == 6 and names[2] == ":" and names[4] == "->":
                label, source, target = names[1], 3, 5
            else:
                return fail("expected 'arrow <label>: <src> -> <tgt>'", 0)
            if label in arrows:
                return fail(f"duplicate arrow label {label!r}", 1)
            for k in (source, target):
                if names[k] not in vertex_word:
                    return fail(f"undeclared vertex {names[k]!r}", k)
            arrows[label] = (names[source], names[target])
            label_word[label] = words[1]
        elif names[0] == "relation":
            if len(names) == 2:
                token = names[1]
                splits = [
                    (token[:cut], token[cut:]) for cut in range(1, len(token))
                    if token[:cut] in arrows and token[cut:] in arrows
                ]
                if not splits:
                    return fail(
                        f"relation token {token!r} does not split into two "
                        "declared arrow labels", 1,
                    )
                if len(splits) > 1:
                    return fail(
                        f"relation token {token!r} splits ambiguously; write "
                        "the two labels separated by a space", 1,
                    )
                left, right = splits[0]
            elif len(names) == 3:
                left, right = names[1], names[2]
                for k in (1, 2):
                    if names[k] not in arrows:
                        return fail(f"undeclared arrow {names[k]!r} in relation", k)
            else:
                return fail("'relation' expects one juxtaposed token or two labels", 0)
            if arrows[right][1] != arrows[left][0]:
                return fail(
                    f"relation {left}{right} is not composable: {right!r} ends at "
                    f"{arrows[right][1]!r} but {left!r} starts at {arrows[left][0]!r}",
                    1,
                )
            if (right, left) in relations:
                return fail(f"duplicate relation {left} {right}", 1)
            relations.append((right, left))
        else:
            return fail(f"unknown statement {names[0]!r}", 0)
    for kind, declared in (("vertex", vertex_word), ("arrow", label_word)):
        for name, (_, line, column) in declared.items():
            if _breaks_name_rule(name):
                return f"invalid {kind} name {name!r}", line, column, NAME_RULE
    triples = [(label, source, target) for label, (source, target) in arrows.items()]
    return list(vertex_word), triples, relations


# ---------------------------------------------------------------------------
# dual graph text oracle


GRAPH_TEXT = "well-formed dual graph text"
DIGIT_LIMIT = "integer fits Python's string conversion limit"


def _is_weight(word: str) -> bool:
    """An optional minus sign and one or more decimal digits, any script."""
    digits = word[1:] if word.startswith("-") else word
    return digits != "" and all(c.isdecimal() for c in digits)


def oracle_parse_dual_graph(text: str):
    """Read a dual graph text line by line, as the format describes it.

    Lines end where ``str.splitlines`` ends them; '#' starts a comment that
    runs to the end of its line.  A line is a sequence of statements, each
    ended by ';', and blank statements are allowed.  A statement is
    ``vertex <name> <weight>`` or ``edge <name> <name>``, words apart by
    whitespace, a name being any run of characters other than whitespace,
    ';' and '#'.  A statement left without ';' at the end of its line is
    still read, then refused as unterminated.

    Returns (vertices, edges, weights) as a list, a list of pairs and a
    dict, or the first error as (message, line, column, precondition): the
    column is where the statement starts, and that of an unterminated
    statement is the length of its whole line, comment included.
    """
    vertices: list = []
    edges: list = []
    weights: dict = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        pieces = raw.split("#", 1)[0].split(";")
        offset = 0
        for k, piece in enumerate(pieces):
            column = offset + len(piece) - len(piece.lstrip()) + 1
            offset += len(piece) + 1
            words = piece.split()
            if not words:
                continue
            if len(words) == 3 and words[0] == "vertex" and _is_weight(words[2]):
                name = words[1]
                try:
                    weight = int(words[2])
                except ValueError:
                    message = f"weight of vertex {name!r} has too many digits"
                    return message, line_no, column, DIGIT_LIMIT
                if name in weights:
                    return f"duplicate vertex {name!r}", line_no, column, GRAPH_TEXT
                vertices.append(name)
                weights[name] = weight
            elif len(words) == 3 and words[0] == "edge":
                edges.append((words[1], words[2]))
            else:
                message = (
                    f"cannot parse statement {piece.strip()!r}; expected "
                    "'vertex <id> <weight>' or 'edge <id> <id>'"
                )
                return message, line_no, column, GRAPH_TEXT
            if k == len(pieces) - 1:  # no ';' after this statement
                message = "statement is not terminated by ';'"
                return message, line_no, len(raw), GRAPH_TEXT
    return vertices, edges, weights


# ---------------------------------------------------------------------------
# tree utilities for the exhaustive surface sweeps


def tree_shapes(n: int) -> list[list[tuple[int, int]]]:
    """Edge lists of all unlabeled trees on n vertices (nodes 0..n-1)."""
    if n == 1:
        return [[]]
    import networkx as nx

    return [
        [tuple(sorted(e)) for e in g.edges()] for g in nx.nonisomorphic_trees(n)
    ]


def adjacency_of(vertices, edges) -> dict:
    nbrs = {v: [] for v in vertices}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def induced_components(vertices, edges, inside) -> list[tuple]:
    """Components of the subgraph induced on ``inside``, by breadth-first
    search; each lists its vertices in the order of ``vertices``."""
    nbrs = adjacency_of(vertices, edges)
    root = {}
    for start in vertices:
        if start in inside and start not in root:
            root[start] = start
            queue = [start]
            for u in queue:
                for w in nbrs[u]:
                    if w in inside and w not in root:
                        root[w] = start
                        queue.append(w)
    return [
        tuple(v for v in vertices if root.get(v) == r)
        for r in vertices
        if root.get(r) == r
    ]


def violates_anti_nef(z, vertices, adjacency, weights) -> bool:
    """True when some curve meets the cycle positively."""
    return any(
        weights[v] * z[v] + sum(z[u] for u in adjacency[v]) > 0 for v in vertices
    )


def oracle_laufer(vertices, adjacency, weights) -> dict:
    """Laufer's loop by rescanning: from Z = (1, ..., 1), recompute Z·E_v
    for every curve after each increment and raise the first violator in
    vertex order.  Stops on a negative definite form."""
    z = {v: 1 for v in vertices}
    while True:
        violators = [
            v
            for v in vertices
            if weights[v] * z[v] + sum(z[u] for u in adjacency[v]) > 0
        ]
        if not violators:
            return z
        z[violators[0]] += 1


def near_degenerate_tree(seed: int, n: int):
    """Seeded (vertices, edges, weights) of a negative definite tree on n
    curves, weights mostly -2, whose fundamental cycle needs at least 20n
    raises of ``oracle_laufer``: a long walk for Laufer's loop.

    Random trees (curve i > 0 hangs below a curve before it) are drawn until
    one passes.  Eliminating leaf first, from the last curve to the root,
    gives one pivot per curve; all of them are negative on a definite form,
    and a root pivot just below zero marks a nearly singular one, whose
    fundamental cycle tends to be large.  Float pivots screen the draws
    (root above -0.06); ``oracle_negative_definite`` then decides
    definiteness exactly, and ``oracle_laufer`` counts the raises.
    """
    rng = random.Random(seed)
    vertices = [f"c{i}" for i in range(n)]
    while True:
        parent = [rng.randrange(i) for i in range(1, n)]
        w = [-2 if rng.random() < 0.8 else -3 for _ in range(n)]
        pivots = [float(x) for x in w]
        for i in range(n - 1, 0, -1):
            if pivots[i] >= 0:
                break
            pivots[parent[i - 1]] -= 1 / pivots[i]
        else:
            if not -0.06 < pivots[0] < 0.01:
                continue
            edges = [(vertices[p], vertices[i]) for i, p in enumerate(parent, 1)]
            weights = dict(zip(vertices, w))
            if not oracle_negative_definite(intersection_matrix(vertices, edges, weights)):
                continue
            z = oracle_laufer(vertices, adjacency_of(vertices, edges), weights)
            if sum(z.values()) - n >= 20 * n:
                return vertices, edges, weights


# ---------------------------------------------------------------------------
# dual graph fixtures


def path_graph(weights):
    """Chain of curves 1 - 2 - ... - n carrying the given weights."""
    from singcat.surface import DualGraph

    names = [str(i + 1) for i in range(len(weights))]
    edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return DualGraph(names, edges, dict(zip(names, weights)))


def star_parts(center_weight, leaf_count, leaf_weight=-2):
    """Raw (vertices, edges, weights) of a star, skipping all validation."""
    leaves = [f"l{i + 1}" for i in range(leaf_count)]
    vertices = ["c"] + leaves
    edges = [("c", leaf) for leaf in leaves]
    weights = {"c": center_weight, **{leaf: leaf_weight for leaf in leaves}}
    return vertices, edges, weights


def star_graph(center_weight, leaf_weights):
    """Validated star-shaped dual graph with center c and leaves l1, l2, ..."""
    from singcat.surface import DualGraph

    leaves = [f"l{i + 1}" for i in range(len(leaf_weights))]
    weights = {"c": center_weight}
    weights.update(dict(zip(leaves, leaf_weights)))
    return DualGraph(["c"] + leaves, [("c", leaf) for leaf in leaves], weights)


def m25_graph():
    return path_graph([-2, -5])


def g2719_graph():
    return path_graph([-2, -2, -5, -2, -2, -2])


def g5111_graph():
    return path_graph([-5, -3, -4])


def t13_graph():
    from singcat.surface import DualGraph

    vertices = [str(i) for i in range(1, 7)]
    edges = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("3", "6")]
    weights = {"1": -2, "2": -2, "3": -4, "4": -2, "5": -2, "6": -2}
    return DualGraph(vertices, edges, weights)
