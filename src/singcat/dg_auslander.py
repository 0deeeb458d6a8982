"""Graded quivers of dg-Auslander type for ADE configurations.

For each simply laced family and each parity of the ambient dimension there
is a graded quiver: solid arrows in degree 0 and a translation τ, an
involution of the vertices (Ω² ≅ id on a hypersurface).  One broken arrow of
degree -1, ρ_i: i -> τ(i), leaves every vertex i.  The differential of a
broken arrow is the mesh sum at its source, with all coefficients 1: for
every solid arrow a: i -> j it contains the composite b a, where b is the
unique solid arrow from j to τ(i).  A table is its solid arrows and its
translation; the broken arrows and the differentials are always derived.

Even parity quivers are the double quivers of the Dynkin trees of
``surface._diagram``, with identity translation, and so are the odd A ones,
of A_m with a loop or of a D-shaped tree with a swap.  The other odd parity
quivers depend on the family in an irregular way (halved ranks, ladders
with a folded tail) and are written out.
"""

from __future__ import annotations

import re
from functools import partial
from types import MappingProxyType

from .quiver import (
    Arrow, SingcatError, _MALFORMED, _expect, _field_error, _read_int, _record,
)
from .surface import ADEType, _diagram


class DGAError(SingcatError):
    pass


_PARITIES = ("even", "odd")


def knoerrer_parity(dimension: int) -> str:
    """Parity class of an ambient dimension d >= 0; periodicity two."""
    if type(dimension) is not int or dimension < 0:
        raise DGAError(
            f"dimension must be a non-negative integer, got {dimension!r}",
            precondition="dimension >= 0",
            witness={"dimension": repr(dimension)},
        )
    return "even" if dimension % 2 == 0 else "odd"


def check_ade_type(ade) -> ADEType:
    if isinstance(ade, str):
        m = re.fullmatch(r"([ADE])(\d+)", ade)
        if not m:
            raise DGAError(
                f"cannot parse ADE type {ade!r}",
                precondition="type looks like A7, D4 or E8",
                witness={"type": ade},
            )
        family = m.group(1)
        rank = _read_int(m.group(2), DGAError, "the rank of the ADE type", "type", ade)
    elif isinstance(ade, ADEType):
        family, rank = ade.family, ade.rank
    else:
        family = rank = None
    if not isinstance(family, str) or type(rank) is not int:
        raise DGAError(
            f"cannot read ADE type {ade!r}",
            precondition="type is a string like A7 or an ADEType",
            witness={"type": repr(ade)},
        )
    ok = (
        (family == "A" and rank >= 1)
        or (family == "D" and rank >= 4)
        or (family == "E" and rank in (6, 7, 8))
    )
    if not ok:
        raise DGAError(
            f"no ADE diagram of type {family}{rank}",
            precondition="A_n (n>=1), D_n (n>=4) or E_6, E_7, E_8",
            witness={"family": family, "rank": rank},
        )
    return ADEType(family, rank)


@_record(DGAError)
class GradedQuiver:
    """Vertices, degree-0 solid arrows and an involution τ of the vertices.

    The constructor is the one way in, for the built-in tables too: it
    checks every field, keeps ``translation`` as a read-only view of its own
    copy, derives ``broken``, the degree -1 arrows ρ_v: v -> τ(v) in vertex
    order, and indexes the solid arrows by source for the mesh differential.
    """

    family: str
    rank: int
    parity: str
    vertices: tuple[str, ...]
    solid: tuple[Arrow, ...]
    translation: dict[str, str]

    def __post_init__(self):
        # Check the fields in order and name the first malformed one:
        # distinct str vertices, Arrows between them whose str labels are
        # distinct and none a broken arrow's, and an involution of the vertices.
        field, shape = "vertices", "a sequence of distinct strs"
        try:
            vertices = {v for v in self.vertices if isinstance(v, str)}
            if len(vertices) != len(self.vertices):  # a duplicate or not a str
                raise ValueError
            field, shape, by_source = "solid", "a sequence of Arrow", {}
            labels = {f"ρ_{v}" for v in vertices}  # the broken arrows' labels
            for a in self.solid:
                if not (isinstance(a, Arrow) and isinstance(a.label, str)
                        and a.source in vertices and a.target in vertices):
                    raise ValueError
                if a.label in labels:
                    raise DGAError(f"arrow label {a.label!r} is repeated",
                                   "arrow labels are distinct", {"label": a.label})
                labels.add(a.label)
                by_source.setdefault(a.source, []).append(a)
            field, shape = "translation", "an involution of the vertices"
            tau = dict(self.translation.items())  # a list of pairs is no mapping
            if tau.keys() != vertices or dict(zip(tau.values(), tau)) != tau:  # τ⁻¹ = τ
                raise ValueError
        except _MALFORMED:
            raise _field_error(field, shape, DGAError) from None
        object.__setattr__(self, "translation", MappingProxyType(tau))
        broken = tuple([Arrow(f"ρ_{v}", v, tau[v]) for v in self.vertices])
        # ``_differential`` is filled by the first ``differential`` call, so
        # a mesh that does not complete uniquely is reported there, not here
        self.__dict__.update(broken=broken, _solid_from=by_source, _differential=None)

    def solid_from(self, vertex: str) -> list[Arrow]:
        return list(self._solid_from.get(vertex, ())) if isinstance(vertex, str) else []


def _alpha(i: int) -> str:
    return f"α_{i}"


def _alpha_star(i: int) -> str:
    return f"α_{i}*"


def _finish(family, rank, parity, solid, tau) -> GradedQuiver:
    """The quiver of a table over int vertices, the keys of ``tau`` in
    order, checked and indexed by ``GradedQuiver`` like any other."""
    text = {v: str(v) for v in tau}  # each str(v) once
    solid_arrows = [Arrow(lab, text[src], text[tgt]) for lab, src, tgt in solid]
    translation = {text[v]: text[w] for v, w in tau.items()}
    return GradedQuiver(family, rank, parity, tuple(text.values()), solid_arrows, translation)


def _pairs(edges):
    """Double quiver arrows for tree edges (u, v): α_u from u to v, α_u*
    back."""
    out = []
    for u, v in edges:
        out.append((_alpha(u), u, v))
        out.append((_alpha_star(u), v, u))
    return out


def _odd_A(n: int) -> GradedQuiver:
    if n == 1:
        return _finish("A", 1, "odd", [], {1: 2, 2: 1})
    m = (n + 1) // 2
    if n % 2 == 0:  # A_m with a loop at its end
        solid = _pairs(_diagram("A", m)) + [("γ", m, m)]
        return _finish("A", n, "odd", solid, {v: v for v in range(1, m + 1)})
    # the D-shaped tree on m + 1 vertices (for m = 2, A_3 centred at 3)
    # with 1 and 2 swapped
    tau = {v: v for v in range(1, m + 2)}
    tau[1], tau[2] = 2, 1
    return _finish("A", n, "odd", _pairs(_diagram("D", m + 1)), tau)


def _odd_D(n: int) -> GradedQuiver:
    if n % 2 == 1:
        m = (n - 1) // 2
        solid = []
        for i in range(0, 4 * m - 4):
            solid.append((_alpha(i), i, i + 2))
        for i in range(0, 4 * m - 5, 2):
            solid.append((_alpha_star(i), i + 3, i))
        for i in range(1, 4 * m - 4, 2):
            solid.append((_alpha_star(i), i + 1, i))
        solid += [
            (_alpha(4 * m - 4), 4 * m - 2, 4 * m - 4),
            (_alpha_star(4 * m - 4), 4 * m - 4, 4 * m - 2),
            (_alpha(4 * m - 3), 4 * m - 3, 4 * m - 2),
            (_alpha_star(4 * m - 3), 4 * m - 2, 4 * m - 3),
        ]
        tau = {}
        for k in range(0, 2 * m - 1):
            tau[2 * k], tau[2 * k + 1] = 2 * k + 1, 2 * k
        tau[4 * m - 2] = 4 * m - 2
        return _finish("D", n, "odd", solid, tau)
    m = n // 2
    solid = []
    for i in range(0, 4 * m - 7, 2):
        solid.append((_alpha(i), i, i + 2))
    for i in range(1, 4 * m - 6, 2):
        solid.append((_alpha(i), i, i + 2))
    for i in range(0, 4 * m - 7, 2):
        solid.append((_alpha_star(i), i + 3, i))
    for i in range(1, 4 * m - 6, 2):
        solid.append((_alpha_star(i), i + 1, i))
    solid += [
        (_alpha_star(4 * m - 4), 4 * m - 5, 4 * m - 4),
        (_alpha(4 * m - 4), 4 * m - 4, 4 * m - 6),
        (_alpha_star(4 * m - 1), 4 * m - 6, 4 * m - 1),
        (_alpha(4 * m - 1), 4 * m - 1, 4 * m - 5),
        (_alpha(4 * m - 6), 4 * m - 6, 4 * m - 3),
        (_alpha(4 * m - 3), 4 * m - 3, 4 * m - 5),
        (_alpha(4 * m - 5), 4 * m - 5, 4 * m - 2),
        (_alpha(4 * m - 2), 4 * m - 2, 4 * m - 6),
    ]
    tau = {}
    for k in range(0, 2 * m):
        tau[2 * k], tau[2 * k + 1] = 2 * k + 1, 2 * k
    return _finish("D", n, "odd", solid, tau)


def _odd_E(n: int) -> GradedQuiver:
    if n == 6:
        solid = [
            (_alpha_star(1), 3, 1),
            (_alpha_star(2), 4, 2),
            (_alpha(1), 1, 4),
            (_alpha(2), 2, 3),
            (_alpha(3), 3, 5),
            (_alpha_star(3), 5, 3),
            (_alpha(4), 4, 5),
            (_alpha_star(4), 5, 4),
            (_alpha(5), 5, 6),
            (_alpha_star(5), 6, 5),
        ]
        tau = {1: 2, 2: 1, 3: 4, 4: 3, 5: 5, 6: 6}
        return _finish("E", 6, "odd", solid, tau)
    # E7 and E8 share the ladder shape; the branch hangs off a middle rung.
    rungs = 5 if n == 7 else 6
    branch = (13, 14, 6, 5) if n == 7 else (15, 16, 10, 9)
    solid = []
    for k in range(1, rungs + 1):
        solid.append((_alpha(2 * k - 1), 2 * k - 1, 2 * k + 2))
        solid.append((_alpha(2 * k), 2 * k, 2 * k + 1))
        solid.append((_alpha_star(2 * k - 1), 2 * k + 1, 2 * k - 1))
        solid.append((_alpha_star(2 * k), 2 * k + 2, 2 * k))
    b1, b2, down, up = branch
    solid.append((_alpha(b1), b1, down))
    solid.append((_alpha_star(b1), up, b1))
    solid.append((_alpha(b2), b2, up))
    solid.append((_alpha_star(b2), down, b2))
    tau = {}
    for k in range(1, rungs + 2):
        tau[2 * k - 1], tau[2 * k] = 2 * k, 2 * k - 1
    tau[b1], tau[b2] = b2, b1
    return _finish("E", n, "odd", solid, tau)


def _even(family: str, n: int) -> GradedQuiver:
    tau = {v: v for v in range(1, n + 1)}
    return _finish(family, n, "even", _pairs(_diagram(family, n)), tau)


def dg_auslander(ade, parity: str) -> GradedQuiver:
    """The graded quiver for an ADE type and a dimension parity."""
    ade = check_ade_type(ade)
    if parity not in _PARITIES:
        raise DGAError(
            f"unknown parity {parity!r}",
            precondition="parity is 'even' or 'odd'",
            witness={"parity": parity},
        )
    if parity == "even":
        return _even(ade.family, ade.rank)
    if ade.family == "A":
        return _odd_A(ade.rank)
    if ade.family == "D":
        return _odd_D(ade.rank)
    return _odd_E(ade.rank)


def k0_rank(quiver: GradedQuiver) -> int:
    """Rank of the Grothendieck group: one generator per vertex."""
    _expect(quiver, GradedQuiver, "quiver", DGAError)
    return len(quiver.vertices)


# ---------------------------------------------------------------------------
# mesh differential

def _label_key(label: str) -> tuple[tuple, int]:
    """(number, star): the number of α_k or α_k*, k in the digits 0-9, is
    k, compared as its digits without leading zeros (shorter first, then
    digit by digit), and any other label's number follows every α label's."""
    if label[:2] == "α_":
        star = 1 if label[-1] == "*" else 0
        digits = label[2:len(label) - star]
        if digits.isascii() and digits.isdigit():
            digits = digits.lstrip("0")
            return (0, len(digits), digits), star
    return (1,), 0


def _term_key(label_key, term: tuple[str, str]):
    """Display order, given the label keys: 2-cycles α_k α_k* first, by k;
    then the rest, by the label keys of their two labels."""
    (ka, sa), (kb, sb) = label_key(term[0]), label_key(term[1])
    if ka == kb and sa != sb:
        return (0, ka, sa)
    return (1, ka, sa, kb, sb)


def _mesh(quiver: GradedQuiver, vertex: str, key) -> tuple[tuple[str, str], ...]:
    """The mesh sum at a vertex of the quiver, its terms sorted by ``key``;
    each ends at τ(vertex), which is τ⁻¹(vertex) as τ is an involution."""
    target, solid_from = quiver.translation[vertex], quiver._solid_from
    terms = []
    for a in solid_from.get(vertex, ()):
        partners = [b for b in solid_from.get(a.target, ()) if b.target == target]
        if len(partners) != 1:
            raise DGAError(
                f"mesh at {vertex} is not uniquely completable through "
                f"{a.label}: {len(partners)} candidates",
                precondition="each mesh summand completes uniquely",
                witness={
                    "vertex": vertex,
                    "arrow": a.label,
                    "candidates": [b.label for b in partners],
                },
            )
        terms.append((a.label, partners[0].label))
    if len(terms) > 1:
        terms.sort(key=key)
    return tuple(terms)


def mesh_image(quiver: GradedQuiver, vertex: str) -> tuple[tuple[str, str], ...]:
    """Mesh sum at a vertex: application-order label pairs, sorted for display.

    For each solid a: vertex -> j the summand is (a, b) with b the unique
    solid arrow from j to the translate of ``vertex``; coefficients are all
    1.  Vertices are strs, so any other value is an unknown vertex.
    """
    _expect(quiver, GradedQuiver, "quiver", DGAError)
    if not (isinstance(vertex, str) and vertex in quiver.translation):
        raise DGAError(
            f"unknown vertex {vertex!r}",
            precondition="vertex belongs to the quiver",
            witness={"vertex": vertex if isinstance(vertex, str) else repr(vertex)},
        )
    return _mesh(quiver, vertex, partial(_term_key, _label_key))


def differential(quiver: GradedQuiver) -> dict[str, tuple[tuple[str, str], ...]]:
    """d of every broken arrow, keyed by its label, in vertex order.

    The mesh images are computed once per quiver; each call returns a new
    dict over them, so a caller may change its copy.
    """
    _expect(quiver, GradedQuiver, "quiver", DGAError)
    diff = quiver._differential
    if diff is None:
        keys = {a.label: _label_key(a.label) for a in quiver.solid}  # once per label
        key = partial(_term_key, keys.__getitem__)
        diff = {rho.label: _mesh(quiver, rho.source, key) for rho in quiver.broken}
        object.__setattr__(quiver, "_differential", diff)
    return dict(diff)


def _render_term(term: tuple[str, str]) -> str:
    first, second = term
    if first == second:
        return f"{first}^2"
    return second + first


def render_sum(terms) -> str:
    try:
        rendered = " + ".join(map(_render_term, terms))
    except _MALFORMED:
        raise _field_error("terms", "an iterable of (str, str) pairs", DGAError) from None
    return rendered or "0"


# ---------------------------------------------------------------------------
# output formats


def serialize_graded_quiver(quiver: GradedQuiver) -> str:
    _expect(quiver, GradedQuiver, "quiver", DGAError)
    lines = ["vertices " + " ".join(quiver.vertices) + ";"]
    for a in quiver.solid:
        lines.append(f"arrow {a.label}: {a.source} -> {a.target} deg 0;")
    for a in quiver.broken:
        lines.append(f"arrow {a.label}: {a.source} --> {a.target} deg -1;")
    diff = differential(quiver)
    for rho in quiver.broken:
        lines.append(f"d({rho.label}) = {render_sum(diff[rho.label])};")
    return "\n".join(lines) + "\n"


def graded_quiver_to_json(quiver: GradedQuiver) -> dict:
    diff = differential(quiver)
    return {
        "family": quiver.family,
        "rank": quiver.rank,
        "parity": quiver.parity,
        "vertices": list(quiver.vertices),
        "solid_arrows": [
            {"label": a.label, "source": a.source, "target": a.target}
            for a in quiver.solid
        ],
        "broken_arrows": [
            {"label": a.label, "source": a.source, "target": a.target}
            for a in quiver.broken
        ],
        "translation": {v: quiver.translation[v] for v in quiver.vertices},
        "differential": {
            rho.label: [[second, first] for first, second in diff[rho.label]]
            for rho in quiver.broken
        },
    }
