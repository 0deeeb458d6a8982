"""Hom calculus for the nodal block and its zero-dimensional companion.

The nodal quiver has three vertices -, *, + with arrows α: - -> *,
β: * -> -, δ: * -> +, γ: + -> * and relations δα = βγ = 0.  Its
singularity-type category has indecomposables P_+[n], P_-[n] and shifted
minimal strings S_+(l)[n], S_-(l)[n]; every Hom space is 0 or 1 dimensional
and is decided by the closed formulas implemented in :func:`hom_dim`.

The zero-dimensional companion block lives on the two-vertex quiver
1 <-> 2 (arrows a: 1 -> 2, b: 2 -> 1, relation ab = 0); its objects are
P2[n] and S(l)[n], handled by :func:`hom_dim_zero`.

Objects that become zero in these categories (P*, and P1 in the companion
block) parse to the empty sum, so Hom against them is 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

from .quiver import INT_DIGITS, Arrow, Path, Presentation, SingcatError, compose

PLUS = "+"
MINUS = "-"

NODAL_PRESENTATION = Presentation(
    vertices=("-", "*", "+"),
    arrows=[
        Arrow("α", "-", "*"),
        Arrow("β", "*", "-"),
        Arrow("δ", "*", "+"),
        Arrow("γ", "+", "*"),
    ],
    relations=[("α", "δ"), ("γ", "β")],
)

ZERO_BLOCK_PRESENTATION = Presentation(
    vertices=("1", "2"),
    arrows=[Arrow("a", "1", "2"), Arrow("b", "2", "1")],
    relations=[("b", "a")],
)

NODAL_K0_RANK = 2


class NodalError(SingcatError):
    pass


def _check_sign(sign: str) -> str:
    if sign not in (PLUS, MINUS):
        raise NodalError(
            f"invalid sign {sign!r}",
            precondition="sign is '+' or '-'",
            witness={"sign": sign},
        )
    return sign


def flip(sign: str) -> str:
    return MINUS if _check_sign(sign) == PLUS else PLUS


def delta(n: int, sign: str) -> str:
    """Sign twisted by the shift: identity for even n, swap for odd n."""
    return _check_sign(sign) if n % 2 == 0 else flip(sign)


@dataclass(frozen=True)
class NodalProjective:
    sign: str
    shift: int = 0

    def __post_init__(self):
        _check_sign(self.sign)

    def shifted(self, k: int) -> "NodalProjective":
        return NodalProjective(self.sign, self.shift + k)


@dataclass(frozen=True)
class NodalString:
    sign: str
    length: int
    shift: int = 0

    def __post_init__(self):
        _check_sign(self.sign)
        if self.length < 1:
            raise NodalError(
                f"string length must be positive, got {self.length}",
                precondition="length >= 1",
                witness={"length": self.length},
            )

    def shifted(self, k: int) -> "NodalString":
        return NodalString(self.sign, self.length, self.shift + k)


@dataclass(frozen=True)
class ZeroProjective:
    shift: int = 0

    def shifted(self, k: int) -> "ZeroProjective":
        return ZeroProjective(self.shift + k)


@dataclass(frozen=True)
class ZeroString:
    length: int
    shift: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise NodalError(
                f"string length must be positive, got {self.length}",
                precondition="length >= 1",
                witness={"length": self.length},
            )

    def shifted(self, k: int) -> "ZeroString":
        return ZeroString(self.length, self.shift + k)


NodalIndecomposable = Union[NodalProjective, NodalString]
ZeroIndecomposable = Union[ZeroProjective, ZeroString]


def hom_dim(x: NodalIndecomposable, y: NodalIndecomposable) -> int:
    """Dimension of Hom(x, y) in the nodal block; always 0 or 1."""
    if isinstance(x, NodalProjective) and isinstance(y, NodalProjective):
        n = y.shift - x.shift
        return int(n <= 0 and x.sign == delta(n, y.sign))
    if isinstance(x, NodalProjective) and isinstance(y, NodalString):
        n = x.shift - y.shift
        return int(0 <= n < y.length and x.sign == delta(n, y.sign))
    if isinstance(x, NodalString) and isinstance(y, NodalProjective):
        n = y.shift - x.shift
        return int(2 <= n <= x.length + 1 and y.sign != delta(n, x.sign))
    if isinstance(x, NodalString) and isinstance(y, NodalString):
        n = y.shift - x.shift
        l, lp = x.length, y.length
        if n <= 0 and 1 <= lp + n <= l and y.sign == delta(n, x.sign):
            return 1
        if n >= 2 and 1 <= l + 2 - n <= lp and y.sign != delta(n, x.sign):
            return 1
        return 0
    raise NodalError(
        f"not nodal objects: {x!r}, {y!r}",
        precondition="both arguments are nodal indecomposables",
        witness={"first": repr(x), "second": repr(y)},
    )


def hom_dim_zero(x: ZeroIndecomposable, y: ZeroIndecomposable) -> int:
    """Dimension of Hom(x, y) in the zero-dimensional block; always 0 or 1."""
    if isinstance(x, ZeroProjective) and isinstance(y, ZeroProjective):
        return int(y.shift - x.shift <= 0)
    if isinstance(x, ZeroProjective) and isinstance(y, ZeroString):
        n = x.shift - y.shift
        return int(0 <= n < y.length)
    if isinstance(x, ZeroString) and isinstance(y, ZeroProjective):
        n = y.shift - x.shift
        return int(2 <= n <= x.length + 1)
    if isinstance(x, ZeroString) and isinstance(y, ZeroString):
        n = y.shift - x.shift
        l, lp = x.length, y.length
        return int((n <= 0 and 0 < lp + n <= l) or (2 <= n <= l + 1 < n + lp))
    raise NodalError(
        f"not zero-block objects: {x!r}, {y!r}",
        precondition="both arguments are zero-block indecomposables",
        witness={"first": repr(x), "second": repr(y)},
    )


def _family(summands) -> str | None:
    families = set()
    for s in summands:
        if isinstance(s, (NodalProjective, NodalString)):
            families.add("nodal")
        elif isinstance(s, (ZeroProjective, ZeroString)):
            families.add("zero")
        else:
            raise NodalError(
                f"not an indecomposable object: {s!r}",
                precondition="summands are block indecomposables",
                witness={"summand": repr(s)},
            )
    if len(families) > 1:
        raise NodalError(
            "object mixes summands of different blocks",
            precondition="all summands belong to one block",
            witness={"summands": [repr(s) for s in summands]},
        )
    return families.pop() if families else None


def hom_dim_sum(xs: Sequence, ys: Sequence) -> int:
    """Bilinear extension of the Hom dimension to finite direct sums.

    Empty sequences denote the zero object.  Summands of the two arguments
    must belong to the same block (or be absent).
    """
    fx, fy = _family(xs), _family(ys)
    if fx and fy and fx != fy:
        raise NodalError(
            "Hom between objects of different blocks",
            precondition="both objects live in the same block",
            witness={"first": [repr(x) for x in xs], "second": [repr(y) for y in ys]},
        )
    pair = hom_dim if (fx or fy) == "nodal" else hom_dim_zero
    return sum(pair(x, y) for x in xs for y in ys)


# ---------------------------------------------------------------------------
# minimal string complexes


@dataclass(frozen=True)
class StringComplex:
    """Projective presentation of a minimal string, listed in display order.

    ``terms[0]`` sits in homological degree -(length+1) and ``terms[-1]`` in
    degree 0; ``differentials[j]`` is the right-multiplication path giving the
    map terms[j] -> terms[j+1].
    """

    terms: tuple[str, ...]
    differentials: tuple[Path, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        l = len(self.terms) - 2
        return tuple(range(-(l + 1), 1))


def _nodal_path(display: str) -> Path:
    return NODAL_PRESENTATION.path(tuple(reversed(display)))


def minimal_string_complex(sign: str, length: int) -> StringComplex:
    """Complex of projectives presenting S_sign(length).

    The degree-0 term is P_sign; l copies of P_* follow to the left and the
    leftmost term is P_sigma where sigma = sign for even l and the opposite
    sign for odd l.
    """
    tau = _check_sign(sign)
    l = length
    if l < 1:
        raise NodalError(
            f"string length must be positive, got {l}",
            precondition="length >= 1",
            witness={"length": l},
        )
    sigma = tau if l % 2 == 0 else flip(tau)
    terms = (f"P{sigma}",) + ("P*",) * l + (f"P{tau}",)
    diffs: list[str] = [""] * (l + 1)
    diffs[l] = "γ" if tau == PLUS else "α"
    pair = "αβ" if tau == PLUS else "γδ"
    for j in range(l - 1, 0, -1):
        diffs[j] = pair
        pair = "γδ" if pair == "αβ" else "αβ"
    diffs[0] = "δ" if sigma == PLUS else "β"
    return StringComplex(terms, tuple(_nodal_path(d) for d in diffs))


def zero_string_complex(length: int) -> StringComplex:
    """Projective presentation of S(length) in the zero-dimensional block."""
    if length < 1:
        raise NodalError(
            f"string length must be positive, got {length}",
            precondition="length >= 1",
            witness={"length": length},
        )
    terms = ("P2",) + ("P1",) * length + ("P2",)
    displays = ["a"] + ["ba"] * (length - 1) + ["b"]
    paths = tuple(
        ZERO_BLOCK_PRESENTATION.path(tuple(reversed(d))) for d in displays
    )
    return StringComplex(terms, paths)


def complex_d_squared(cx: StringComplex) -> list[Path]:
    """Composite right-multiplication paths of consecutive differentials.

    The maps terms[j] -> terms[j+1] -> terms[j+2] compose to right
    multiplication by the product path; each composite must lie in the
    relation ideal for the complex to be a complex.
    """
    return [
        compose(shallow, deep)
        for deep, shallow in zip(cx.differentials, cx.differentials[1:])
    ]


# ---------------------------------------------------------------------------
# K-theory


class K0Class(NamedTuple):
    plus: int
    minus: int

    def __neg__(self) -> "K0Class":
        return K0Class(-self.plus, -self.minus)

    def __add__(self, other) -> "K0Class":
        return K0Class(self.plus + other[0], self.minus + other[1])


def _sign_of_degree(deg: int) -> int:
    return 1 if deg % 2 == 0 else -1


def k0_class(obj) -> K0Class:
    """Class in K0 of the nodal block, basis ([P_+], [P_-])."""
    if isinstance(obj, (list, tuple)):
        total = K0Class(0, 0)
        for summand in obj:
            total = total + k0_class(summand)
        return total
    if isinstance(obj, NodalProjective):
        s = _sign_of_degree(obj.shift)
        return K0Class(s, 0) if obj.sign == PLUS else K0Class(0, s)
    if isinstance(obj, NodalString):
        cx = minimal_string_complex(obj.sign, obj.length)
        total = K0Class(0, 0)
        for j, term in enumerate(cx.terms):
            deg = -(obj.length + 1) + j
            s = _sign_of_degree(deg)
            if term == "P+":
                total = total + K0Class(s, 0)
            elif term == "P-":
                total = total + K0Class(0, s)
        s = _sign_of_degree(obj.shift)
        return K0Class(s * total.plus, s * total.minus)
    raise NodalError(
        f"no K0 class for {obj!r}",
        precondition="object is a nodal indecomposable or a list of them",
        witness={"object": repr(obj)},
    )


# ---------------------------------------------------------------------------
# cluster tilting subcategory


def cluster_member(obj) -> bool:
    """Membership in the cluster tilting subcategory of the nodal block.

    Exactly the shifts of P_- and of the even-length strings S_-(2k) belong.
    """
    if isinstance(obj, NodalProjective):
        return obj.sign == MINUS
    if isinstance(obj, NodalString):
        return obj.sign == MINUS and obj.length % 2 == 0
    raise NodalError(
        f"not a nodal indecomposable: {obj!r}",
        precondition="object is a nodal indecomposable",
        witness={"object": repr(obj)},
    )


# ---------------------------------------------------------------------------
# Auslander-Reiten components


@dataclass(frozen=True)
class ARWindow:
    component: str
    vertices: tuple[str, ...]
    solid: tuple[tuple[str, str], ...]
    dashed: tuple[tuple[str, str], ...]


_AR_COMPONENTS = ("string-plus", "string-minus", "projective-plus", "projective-minus")


def ar_window(
    component: str, window: tuple[int, int], maxlen: int | None = None
) -> ARWindow:
    """Finite window of one Auslander-Reiten component of the nodal block.

    String components contain the S_tau(l)[n] with delta_n(tau) equal to the
    component sign; they are infinite in the length direction, so ``maxlen``
    is required.  Projective components contain the P_sigma[n] with
    delta_n(sigma) equal to the component sign and need no length bound.
    Solid pairs are irreducible maps, dashed pairs point from an object to
    its translate.
    """
    if component not in _AR_COMPONENTS:
        raise NodalError(
            f"unknown component {component!r}",
            precondition=f"component is one of {', '.join(_AR_COMPONENTS)}",
            witness={"component": component},
        )
    lo, hi = window
    if lo > hi:
        return ARWindow(component, (), (), ())
    comp_sign = PLUS if component.endswith("plus") else MINUS

    if component.startswith("projective"):
        members = [
            NodalProjective(delta(n, comp_sign), n) for n in range(lo, hi + 1)
        ]
        inside = {(m.sign, m.shift) for m in members}
        solid = [
            (format_object(m), format_object(NodalProjective(flip(m.sign), m.shift - 1)))
            for m in members
            if (flip(m.sign), m.shift - 1) in inside
        ]
        return ARWindow(
            component,
            tuple(format_object(m) for m in members),
            tuple(solid),
            (),
        )

    if maxlen is None or maxlen < 1:
        raise NodalError(
            "string components are infinite in the length direction; "
            "pass a positive maxlen",
            precondition="maxlen >= 1 for string components",
            witness={"maxlen": maxlen},
        )
    members = [
        NodalString(delta(n, comp_sign), l, n)
        for n in range(lo, hi + 1)
        for l in range(1, maxlen + 1)
    ]
    inside = {(m.sign, m.length, m.shift) for m in members}
    solid: list[tuple[str, str]] = []
    dashed: list[tuple[str, str]] = []
    for m in members:
        if m.length >= 2 and (m.sign, m.length - 1, m.shift) in inside:
            solid.append(
                (format_object(m), format_object(NodalString(m.sign, m.length - 1, m.shift)))
            )
        if (flip(m.sign), m.length + 1, m.shift - 1) in inside:
            solid.append(
                (
                    format_object(m),
                    format_object(NodalString(flip(m.sign), m.length + 1, m.shift - 1)),
                )
            )
        if (flip(m.sign), m.length, m.shift + 1) in inside:
            dashed.append(
                (
                    format_object(m),
                    format_object(NodalString(flip(m.sign), m.length, m.shift + 1)),
                )
            )
    return ARWindow(
        component,
        tuple(format_object(m) for m in members),
        tuple(solid),
        tuple(dashed),
    )


def ar_translate(obj: NodalIndecomposable) -> NodalIndecomposable:
    """Auslander-Reiten translation on the string components."""
    if isinstance(obj, NodalString):
        return NodalString(flip(obj.sign), obj.length, obj.shift + 1)
    raise NodalError(
        f"translation is computed on strings only, got {obj!r}",
        precondition="object is a shifted minimal string",
        witness={"object": repr(obj)},
    )


# ---------------------------------------------------------------------------
# object notation

_P_NODAL_RE = re.compile(r"^P([+-])(?:\[(-?\d+)\])?$")
_S_NODAL_RE = re.compile(r"^S([+-])\((\d+)\)(?:\[(-?\d+)\])?$")
_P_ZERO_RE = re.compile(r"^P([12])(?:\[(-?\d+)\])?$")
_S_ZERO_RE = re.compile(r"^S\((\d+)\)(?:\[(-?\d+)\])?$")
_P_STAR_RE = re.compile(r"^P\*(?:\[(-?\d+)\])?$")


def _integer(digits: str | None, part: str) -> int:
    try:
        return int(digits or 0)
    except ValueError:
        raise NodalError(
            f"an integer in object {part!r} has too many digits",
            precondition=INT_DIGITS,
            witness={"object": part},
        ) from None


def parse_object(text: str) -> list:
    """Parse object notation into a list of indecomposable summands.

    Accepts P+, P-, S+(l), S-(l) (nodal block), P2, S(l) (zero-dimensional
    block), each with an optional [n] shift, comma-separated sums, "0" for
    the zero object, and the zero summands P* and P1 (which parse to no
    summands at all).
    """
    text = text.strip()
    if text == "0":
        return []
    summands = []
    for part in text.split(","):
        part = part.strip().replace(" ", "")
        if not part:
            raise NodalError(
                f"empty summand in {text!r}",
                precondition="summands are non-empty",
                witness={"object": text},
            )
        if _P_STAR_RE.match(part):
            continue
        m = _P_NODAL_RE.match(part)
        if m:
            summands.append(NodalProjective(m.group(1), _integer(m.group(2), part)))
            continue
        m = _S_NODAL_RE.match(part)
        if m:
            summands.append(
                NodalString(
                    m.group(1), _integer(m.group(2), part), _integer(m.group(3), part)
                )
            )
            continue
        m = _P_ZERO_RE.match(part)
        if m:
            if m.group(1) == "1":
                continue
            summands.append(ZeroProjective(_integer(m.group(2), part)))
            continue
        m = _S_ZERO_RE.match(part)
        if m:
            summands.append(
                ZeroString(_integer(m.group(1), part), _integer(m.group(2), part))
            )
            continue
        raise NodalError(
            f"cannot parse object {part!r}",
            precondition="objects look like P+[n], S-(l)[n], P2[n] or S(l)[n]",
            witness={"object": part},
        )
    return summands


def format_object(obj) -> str:
    if isinstance(obj, (list, tuple)):
        return ", ".join(format_object(o) for o in obj) if obj else "0"
    if isinstance(obj, NodalProjective):
        base = f"P{obj.sign}"
    elif isinstance(obj, NodalString):
        base = f"S{obj.sign}({obj.length})"
    elif isinstance(obj, ZeroProjective):
        base = "P2"
    elif isinstance(obj, ZeroString):
        base = f"S({obj.length})"
    else:
        raise NodalError(
            f"cannot format {obj!r}",
            precondition="object is a block indecomposable",
            witness={"object": repr(obj)},
        )
    return base if obj.shift == 0 else f"{base}[{obj.shift}]"
