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
from typing import NamedTuple, Sequence, Union

from .quiver import (
    INT_DIGITS,
    Arrow,
    Path,
    Presentation,
    SingcatError,
    _field,
    _record,
    compose,
    replace,
)

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
    _check_int("shift", n)
    return _check_sign(sign) if n % 2 == 0 else flip(sign)


def _check_int(name: str, value) -> None:
    # type(), not isinstance: a bool is not a length or a shift
    if type(value) is not int:
        raise NodalError(
            f"{name} must be an integer, got {value!r}",
            precondition=f"{name} is an int",
            witness={name: repr(value)},
        )


def _check_length(length) -> None:
    _check_int("length", length)
    if length < 1:
        raise NodalError(
            f"string length must be positive, got {length}",
            precondition="length >= 1",
            witness={"length": length},
        )


class _Shiftable:
    __slots__ = ()

    def shifted(self, k: int):
        """The same object with its shift raised by k."""
        _check_int("shift", k)
        return replace(self, shift=self.shift + k)


@_record
class NodalProjective(_Shiftable):
    sign: str
    shift: int = 0

    def __post_init__(self):
        _check_sign(self.sign)
        _check_int("shift", self.shift)
        # the bit hom_dim compares: (sign is '-') XOR (shift is odd)
        object.__setattr__(self, "_twist", (self.shift & 1) ^ (self.sign == MINUS))


@_record
class NodalString(_Shiftable):
    sign: str
    length: int
    shift: int = 0

    def __post_init__(self):
        _check_sign(self.sign)
        _check_length(self.length)
        _check_int("shift", self.shift)
        object.__setattr__(self, "_twist", (self.shift & 1) ^ (self.sign == MINUS))


@_record
class ZeroProjective(_Shiftable):
    shift: int = 0

    def __post_init__(self):
        _check_int("shift", self.shift)


@_record
class ZeroString(_Shiftable):
    length: int
    shift: int = 0

    def __post_init__(self):
        _check_length(self.length)
        _check_int("shift", self.shift)


NodalIndecomposable = Union[NodalProjective, NodalString]
ZeroIndecomposable = Union[ZeroProjective, ZeroString]


def _kind(obj, first: type, second: type) -> type | None:
    """Whichever of the two types ``obj`` is an instance of, else None.

    The Hom functions test the exact class first and call this only for
    other objects, so an instance of a subclass is read as its base.
    """
    if isinstance(obj, first):
        return first
    if isinstance(obj, second):
        return second
    return None


def _as_base(obj, base: type):
    """``obj`` rebuilt as an instance of ``base``, with its checks.  Kept out
    of ``hom_dim``, where the comprehension would turn x and y into cells."""
    return base(*[getattr(obj, f) for f in base._fields])


def hom_dim(x: NodalIndecomposable, y: NodalIndecomposable) -> int:
    """Dimension of Hom(x, y) in the nodal block; always 0 or 1.

    The formulas compare signs through the shift twist: for n the difference
    of the shifts, delta_n(s) = t exactly when (s != t) == (n is odd), that
    is when the two objects' ``_twist`` bits agree.
    """
    tx, ty = x.__class__, y.__class__
    if tx is NodalString:
        if ty is NodalString:
            n = y.shift - x.shift
            # y.sign == delta(n, x.sign) exactly when the bits agree
            if n <= 0:
                return 1 if 1 <= y.length + n <= x.length and x._twist == y._twist else 0
            return 1 if n >= 2 and 1 <= x.length + 2 - n <= y.length and x._twist != y._twist else 0
        if ty is NodalProjective:
            n = y.shift - x.shift
            # y.sign != delta(n, x.sign)
            return 1 if 2 <= n <= x.length + 1 and x._twist != y._twist else 0
    elif tx is NodalProjective:
        if ty is NodalProjective:
            # n = y.shift - x.shift <= 0 and x.sign == delta(n, y.sign)
            return 1 if y.shift <= x.shift and x._twist == y._twist else 0
        if ty is NodalString:
            n = x.shift - y.shift
            # x.sign == delta(n, y.sign)
            return 1 if 0 <= n < y.length and x._twist == y._twist else 0
    # an instance of a subclass is read as its base, rebuilt with its checks
    kx, ky = _kind(x, NodalString, NodalProjective), _kind(y, NodalString, NodalProjective)
    if kx and ky:
        return hom_dim(_as_base(x, kx), _as_base(y, ky))
    raise NodalError(
        f"not nodal objects: {x!r}, {y!r}",
        precondition="both arguments are nodal indecomposables",
        witness={"first": repr(x), "second": repr(y)},
    )


def hom_dim_zero(x: ZeroIndecomposable, y: ZeroIndecomposable) -> int:
    """Dimension of Hom(x, y) in the zero-dimensional block; always 0 or 1."""
    tx, ty = x.__class__, y.__class__
    if tx is not ZeroString and tx is not ZeroProjective:
        tx = _kind(x, ZeroString, ZeroProjective)
    if ty is not ZeroString and ty is not ZeroProjective:
        ty = _kind(y, ZeroString, ZeroProjective)
    if tx is ZeroString:
        if ty is ZeroString:
            n = y.shift - x.shift
            l, lp = x.length, y.length
            return 1 if (n <= 0 and 0 < lp + n <= l) or (2 <= n <= l + 1 < n + lp) else 0
        if ty is ZeroProjective:
            n = y.shift - x.shift
            return 1 if 2 <= n <= x.length + 1 else 0
    elif tx is ZeroProjective:
        if ty is ZeroProjective:
            return 1 if y.shift - x.shift <= 0 else 0
        if ty is ZeroString:
            n = x.shift - y.shift
            return 1 if 0 <= n < y.length else 0
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


_SUMMANDS = "a sequence of block indecomposables"


def hom_dim_sum(xs: Sequence, ys: Sequence) -> int:
    """Bilinear extension of the Hom dimension to finite direct sums.

    Empty sequences denote the zero object.  Summands of the two arguments
    must belong to the same block (or be absent).
    """
    xs = _field(lambda: tuple(xs), "xs", _SUMMANDS, NodalError)
    ys = _field(lambda: tuple(ys), "ys", _SUMMANDS, NodalError)
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


@_record
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
        return tuple(range(1 - len(self.terms), 1))


def _nodal_path(display: str) -> Path:
    return NODAL_PRESENTATION.path(tuple(reversed(display)))


def minimal_string_complex(sign: str, length: int) -> StringComplex:
    """Complex of projectives presenting S_sign(length).

    The degree-0 term is P_sign; l copies of P_* follow to the left and the
    leftmost term is P_sigma where sigma = sign for even l and the opposite
    sign for odd l.
    """
    tau = _check_sign(sign)
    _check_length(length)
    l = length
    sigma = tau if l % 2 == 0 else flip(tau)
    terms = (f"P{sigma}",) + ("P*",) * l + (f"P{tau}",)
    # the maps between P_* terms alternate, counted from the right end
    pairs = ("αβ", "γδ") if tau == PLUS else ("γδ", "αβ")
    middle = [pairs[(l - 1 - j) % 2] for j in range(1, l)]
    diffs = ["δ" if sigma == PLUS else "β", *middle, "γ" if tau == PLUS else "α"]
    return StringComplex(terms, tuple([_nodal_path(d) for d in diffs]))


def zero_string_complex(length: int) -> StringComplex:
    """Projective presentation of S(length) in the zero-dimensional block."""
    _check_length(length)
    terms = ("P2",) + ("P1",) * length + ("P2",)
    displays = ["a"] + ["ba"] * (length - 1) + ["b"]
    paths = tuple(
        [ZERO_BLOCK_PRESENTATION.path(tuple(reversed(d))) for d in displays]
    )
    return StringComplex(terms, paths)


def complex_d_squared(cx: StringComplex) -> list[Path]:
    """Composite right-multiplication paths of consecutive differentials.

    The maps terms[j] -> terms[j+1] -> terms[j+2] compose to right
    multiplication by the product path; each composite must lie in the
    relation ideal for the complex to be a complex.
    """
    diffs = _field(
        lambda: tuple(cx.differentials), "complex", "a StringComplex", NodalError
    )
    return [compose(shallow, deep) for deep, shallow in zip(diffs, diffs[1:])]


# ---------------------------------------------------------------------------
# K-theory


class K0Class(NamedTuple):
    plus: int
    minus: int

    def __neg__(self) -> "K0Class":
        return K0Class(-self.plus, -self.minus)

    def __add__(self, other) -> "K0Class":
        return K0Class(self.plus + other[0], self.minus + other[1])


def k0_class(obj) -> K0Class:
    """Class in K0 of the nodal block, basis ([P_+], [P_-]).

    A shift by n multiplies a class by (-1)^n.  S_tau(l) is read off its
    minimal complex: the l middle terms P_* have class 0, and the end terms
    P_sigma (degree -(l+1)) and P_tau (degree 0) give (-1)^(l+1)[P_sigma] +
    [P_tau].  For odd l, sigma is the opposite sign, so the class is
    [P_+] + [P_-] = (1, 1); for even l, sigma = tau and the ends cancel.
    """
    if isinstance(obj, (list, tuple)):
        total = K0Class(0, 0)
        for summand in obj:
            total = total + k0_class(summand)
        return total
    if not isinstance(obj, (NodalProjective, NodalString)):
        raise NodalError(
            f"no K0 class for {obj!r}",
            precondition="object is a nodal indecomposable or a list of them",
            witness={"object": repr(obj)},
        )
    s = -1 if obj.shift % 2 else 1
    if isinstance(obj, NodalString):
        return K0Class(s, s) if obj.length % 2 else K0Class(0, 0)
    return K0Class(s, 0) if obj.sign == PLUS else K0Class(0, s)


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


@_record
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
    lo, hi = _window(window)
    if lo > hi:
        return ARWindow(component, (), (), ())
    comp_sign = PLUS if component.endswith("plus") else MINUS
    twisted = (comp_sign, flip(comp_sign))  # delta_n(comp_sign), by parity of n

    if component.startswith("projective"):
        names = [_with_shift(f"P{twisted[n % 2]}", n) for n in range(lo, hi + 1)]
        return ARWindow(component, tuple(names), tuple(zip(names[1:], names)), ())

    if maxlen is not None:
        _check_int("maxlen", maxlen)
    if maxlen is None or maxlen < 1:
        raise NodalError(
            "string components are infinite in the length direction; "
            "pass a positive maxlen",
            precondition="maxlen >= 1 for string components",
            witness={"maxlen": maxlen},
        )
    # the member at (l, n) has sign delta_n(comp_sign), so an arrow stays in
    # the component exactly when its other end's (l, n) is in the grid
    grid = {
        (l, n): _with_shift(f"S{twisted[n % 2]}({l})", n)
        for n in range(lo, hi + 1)
        for l in range(1, maxlen + 1)
    }
    solid: list[tuple[str, str]] = []
    dashed: list[tuple[str, str]] = []
    for (l, n), name in grid.items():
        ends = (((l - 1, n), solid), ((l + 1, n - 1), solid), ((l, n + 1), dashed))
        for end, arrows in ends:
            if end in grid:
                arrows.append((name, grid[end]))
    return ARWindow(component, tuple(grid.values()), tuple(solid), tuple(dashed))


def _window(window) -> tuple[int, int]:
    try:
        lo, hi = window
    except (TypeError, ValueError):
        pass
    else:
        # type(), not isinstance: a bool is not a shift
        if type(lo) is int and type(hi) is int:
            return lo, hi
    raise NodalError(
        f"window must be a pair of integers, got {window!r}",
        precondition="window is a (lo, hi) pair of ints",
        witness={"window": repr(window)},
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

_OBJECT_RE = re.compile(r"^(?:P([+\-12*])|S([+-]?)\((\d+)\))(?:\[(-?\d+)\])?$")


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
    if not isinstance(text, str):
        raise NodalError(
            f"object notation must be a string, got {text!r}",
            precondition="object notation is a string",
            witness={"object": repr(text)},
        )
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
        m = _OBJECT_RE.match(part)
        if not m:
            raise NodalError(
                f"cannot parse object {part!r}",
                precondition="objects look like P+[n], S-(l)[n], P2[n] or S(l)[n]",
                witness={"object": part},
            )
        projective, sign, length, shift = m.groups()
        if projective in ("*", "1"):
            continue
        if projective in (PLUS, MINUS):
            obj = NodalProjective(projective, _integer(shift, part))
        elif projective:
            obj = ZeroProjective(_integer(shift, part))
        elif sign:
            obj = NodalString(sign, _integer(length, part), _integer(shift, part))
        else:
            obj = ZeroString(_integer(length, part), _integer(shift, part))
        summands.append(obj)
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
    return _with_shift(base, obj.shift)


def _with_shift(base: str, shift: int) -> str:
    return base if shift == 0 else f"{base}[{shift}]"
