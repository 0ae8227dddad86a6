"""Integer boxes, and directed-rounding Decimal arithmetic for the edges.

Balls hold exact integers in midpoint-radius form (see ``balls``), and
points are integer boxes (re_lo, re_hi, im_lo, im_hi) at one scale
10**-S: :func:`box_add`, :func:`box_sub` and :func:`box_conj` are exact,
:func:`box_mul`, :func:`box_sqr` and :func:`box_inv` round outward once
per part.
Decimal serves the edges, where numbers come in or go out, and the
scalar bounds (norms, theta, epsilon, kappa), through a
:class:`RoundingContext` with one decimal context rounding toward minus
infinity (lower endpoints) and one toward plus infinity (upper ones);
each operation is exact-then-rounded, so every :class:`Interval`
encloses the exact result.  The edges: :meth:`RoundingContext.scaled_dn`
and :meth:`RoundingContext.scaled_up` bound an integer times 10**-S,
:func:`floor_at` and :func:`ceil_at` read a decimal into an integer at a
scale, exactly and in integers only, :meth:`RoundingContext.to_int_ends`
and :meth:`RoundingContext.to_box` read intervals and rectangles through
them and :meth:`RoundingContext.box_rectangle` writes a box back, all
outward (:meth:`RoundingContext.box_strings` as the text of its ends);
:func:`exact_decimal` and :func:`box_text` write exactly.  A
complex point comes in, and a value goes out, as a :class:`Rectangle`, a
pair of intervals; no arithmetic runs on rectangles but
:meth:`RoundingContext.rmul`, which the benchmark times
(``perfbench/run.py``).

Rounding state lives entirely inside context instances: nothing here reads
or writes the thread-local decimal context, so contexts can be confined to
one worker each and values moved freely between workers.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal

from .errors import ConfigError, DivisionByZeroInterval

__all__ = [
    "Interval",
    "Rectangle",
    "RoundingContext",
    "as_decimal",
    "finite_decimal",
    "interval",
    "rectangle",
    "IZERO",
    "IONE",
    "box_add",
    "box_sub",
    "box_conj",
    "box_mul",
    "box_sqr",
    "box_inv",
    "box_text",
    "exact_decimal",
    "floor_at",
    "ceil_at",
    "EXACT",
]

_D0 = Decimal(0)
_D1 = Decimal(1)

#: unbounded precision: a product or a scaleb in it is exact, whatever the
#: thread's context
EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def as_decimal(x) -> Decimal:
    """Convert an exactly representable value to Decimal.

    Accepts Decimal, int, and str.  Floats are rejected: their binary
    expansion is rarely the number the caller meant, so the conversion must
    be made explicit at the call site.
    """
    if isinstance(x, Decimal):
        return x
    if isinstance(x, int):
        return Decimal(x)
    if isinstance(x, str):
        return Decimal(x)
    if isinstance(x, float):
        raise TypeError("floats are not exactly representable here; pass str(x)")
    raise TypeError(f"cannot convert {type(x).__name__} to Decimal")


def floor_at(x: Decimal, scale: int) -> int:
    """x * 10**scale rounded down to an integer, for a finite decimal x;
    exact, in integers only."""
    num, den = x.as_integer_ratio()
    if scale >= 0:
        return num * 10 ** scale // den
    return num // (den * 10 ** -scale)


def ceil_at(x: Decimal, scale: int) -> int:
    """x * 10**scale rounded up to an integer, for a finite decimal x."""
    # copy_negate: the unary minus would round x through the thread's context
    return -floor_at(x.copy_negate(), scale)


def finite_decimal(text: str, what: str) -> Decimal:
    """The finite number written in ``text``, read from outside input;
    ConfigError naming ``what`` for anything else (NaN, infinity, junk)."""
    try:
        x = Decimal(text)
    except decimal.InvalidOperation:
        raise ConfigError(f"{what}: {text!r} is not a number") from None
    if not x.is_finite():
        raise ConfigError(f"{what}: {text!r} is not a finite number")
    return x


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] of extended reals, endpoints representable."""

    lo: Decimal
    hi: Decimal

    def __post_init__(self):
        if self.lo.is_nan() or self.hi.is_nan():
            raise ConfigError("NaN interval endpoint")
        if self.lo > self.hi:
            raise ConfigError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"

    @property
    def mag(self) -> Decimal:
        """Exact upper bound of |x| over the interval."""
        return max(self.lo.copy_abs(), self.hi.copy_abs())

    def contains(self, point) -> bool:
        p = as_decimal(point)
        return self.lo <= p <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def interval(lo, hi=None) -> Interval:
    """Build an interval from exactly representable endpoint(s)."""
    d = as_decimal(lo)
    return Interval(d, d if hi is None else as_decimal(hi))


IZERO = interval(0)
IONE = interval(1)


@dataclass(frozen=True, slots=True)
class Rectangle:
    """Axis-aligned complex enclosure: re(z) in ``re``, im(z) in ``im``."""

    re: Interval
    im: Interval

    def __repr__(self):
        return f"({self.re} + {self.im}i)"

    def is_real(self) -> bool:
        return self.im.lo == 0 and self.im.hi == 0


def rectangle(re, im=None) -> Rectangle:
    """Build a rectangle from exact value(s); ``re``/``im`` may be Interval."""
    r = re if isinstance(re, Interval) else interval(re)
    if im is None:
        i = IZERO
    else:
        i = im if isinstance(im, Interval) else interval(im)
    return Rectangle(r, i)


class RoundingContext:
    """Directed-rounding arithmetic at a fixed decimal significand precision.

    The precision is immutable.  ``_dn`` rounds every result toward -inf
    and ``_up`` toward +inf; decimals are read into integers in integers
    (:func:`floor_at`, :func:`ceil_at`), with no context.
    """

    __slots__ = ("precision", "_dn", "_up")

    def __init__(self, precision: int):
        if not isinstance(precision, int) or precision < 2:
            raise ConfigError("precision must be an int >= 2")
        self.precision = precision
        self._dn = decimal.Context(prec=precision, rounding=decimal.ROUND_FLOOR)
        self._up = decimal.Context(prec=precision, rounding=decimal.ROUND_CEILING)

    def __repr__(self):
        return f"RoundingContext(precision={self.precision})"

    def __reduce__(self):
        return (RoundingContext, (self.precision,))

    # -- directed scalar helpers ------------------------------------------

    def add_up(self, a, b):
        return self._up.add(a, b)

    def sub_dn(self, a, b):
        return self._dn.subtract(a, b)

    def mul_dn(self, a, b):
        return self._dn.multiply(a, b)

    def mul_up(self, a, b):
        return self._up.multiply(a, b)

    def div_up(self, a, b):
        return self._up.divide(a, b)

    def pow_up(self, base: Decimal, n: int) -> Decimal:
        """Upper bound of base**n for base >= 0, n >= 0 (binary exponentiation)."""
        if base < 0 or n < 0:
            raise ConfigError("pow_up needs base >= 0 and n >= 0")
        result = _D1
        b = base
        while n:
            if n & 1:
                result = self._up.multiply(result, b)
            n >>= 1
            if n:
                b = self._up.multiply(b, b)
        return result

    # -- integer forms ------------------------------------------------------

    def to_int_ends(self, x: Interval, scale: int) -> tuple[int, int]:
        """Integer endpoints, at scale 10**-``scale``, enclosing ``x``: the
        lower endpoint rounds down and the upper one up, so both are exact
        when the endpoint has no digit below 10**-``scale``."""
        return floor_at(x.lo, scale), ceil_at(x.hi, scale)

    def scaled_dn(self, value: int, scale: int) -> Decimal:
        """Lower bound of value * 10**-scale at working precision."""
        if not value:
            return _D0
        # floor away the surplus digits in integers first, so the Decimal
        # built from them carries no more digits than it keeps
        cut = (value.bit_length() * 1233 >> 12) - self.precision
        if cut > 0:
            value //= 10 ** cut
            scale -= cut
        return self._dn.scaleb(Decimal(value), -scale)

    def scaled_up(self, value: int, scale: int) -> Decimal:
        """Upper bound of value * 10**-scale at working precision."""
        if not value:
            return _D0
        return self.scaled_dn(-value, scale).copy_negate()

    def to_box(self, z: Rectangle, scale: int) -> tuple[int, int, int, int]:
        """The integer box at scale 10**-``scale`` enclosing z (see
        :meth:`to_int_ends`); an imaginary part exactly 0 stays 0."""
        im = self.to_int_ends(z.im, scale) if z.im.lo or z.im.hi else (0, 0)
        return (*self.to_int_ends(z.re, scale), *im)

    def box_rectangle(self, box, scale: int) -> Rectangle:
        """The box at scale 10**-``scale`` as a rectangle at working
        precision, outward; a part exactly 0 is not converted."""
        rl, rh, il, ih = box
        re = Interval(self.scaled_dn(rl, scale), self.scaled_up(rh, scale)) if rl or rh else IZERO
        im = Interval(self.scaled_dn(il, scale), self.scaled_up(ih, scale)) if il or ih else IZERO
        return Rectangle(re, im)

    def box_strings(self, box, scale: int) -> tuple[str, str, str, str]:
        """str() of the four ends of :meth:`box_rectangle`, with no Interval
        or Rectangle built: a covering row."""
        rl, rh, il, ih = box
        dn, up = self.scaled_dn, self.scaled_up
        re = (str(dn(rl, scale)), str(up(rh, scale))) if rl or rh else ("0", "0")
        im = (str(dn(il, scale)), str(up(ih, scale))) if il or ih else ("0", "0")
        return (*re, *im)

    # -- interval arithmetic ----------------------------------------------

    def iadd(self, x: Interval, y: Interval) -> Interval:
        return Interval(self._dn.add(x.lo, y.lo), self._up.add(x.hi, y.hi))

    def isub(self, x: Interval, y: Interval) -> Interval:
        return Interval(self._dn.subtract(x.lo, y.hi), self._up.subtract(x.hi, y.lo))

    def ineg(self, x: Interval) -> Interval:
        # copy_negate: the unary minus operator would round through the
        # thread-local decimal context and break the enclosure
        return Interval(x.hi.copy_negate(), x.lo.copy_negate())

    def imul(self, x: Interval, y: Interval) -> Interval:
        a, b, c, d = x.lo, x.hi, y.lo, y.hi
        if a >= 0:
            if c >= 0:
                return Interval(self._dn.multiply(a, c), self._up.multiply(b, d))
            if d <= 0:
                return Interval(self._dn.multiply(b, c), self._up.multiply(a, d))
            return Interval(self._dn.multiply(b, c), self._up.multiply(b, d))
        if b <= 0:
            if c >= 0:
                return Interval(self._dn.multiply(a, d), self._up.multiply(b, c))
            if d <= 0:
                return Interval(self._dn.multiply(b, d), self._up.multiply(a, c))
            return Interval(self._dn.multiply(a, d), self._up.multiply(a, c))
        if c >= 0:
            return Interval(self._dn.multiply(a, d), self._up.multiply(b, d))
        if d <= 0:
            return Interval(self._dn.multiply(b, c), self._up.multiply(a, c))
        lo = min(self._dn.multiply(a, d), self._dn.multiply(b, c))
        hi = max(self._up.multiply(a, c), self._up.multiply(b, d))
        return Interval(lo, hi)

    def idiv(self, x: Interval, y: Interval) -> Interval:
        a, b, c, d = x.lo, x.hi, y.lo, y.hi
        if c <= 0 <= d:
            raise DivisionByZeroInterval(f"denominator {y} contains zero")
        if c > 0:
            if a >= 0:
                return Interval(self._dn.divide(a, d), self._up.divide(b, c))
            if b <= 0:
                return Interval(self._dn.divide(a, c), self._up.divide(b, d))
            return Interval(self._dn.divide(a, c), self._up.divide(b, c))
        if a >= 0:
            return Interval(self._dn.divide(b, d), self._up.divide(a, c))
        if b <= 0:
            return Interval(self._dn.divide(b, c), self._up.divide(a, d))
        return Interval(self._dn.divide(b, d), self._up.divide(a, d))

    def isqr(self, x: Interval) -> Interval:
        a, b = x.lo, x.hi
        if a >= 0:
            return Interval(self._dn.multiply(a, a), self._up.multiply(b, b))
        if b <= 0:
            return Interval(self._dn.multiply(b, b), self._up.multiply(a, a))
        m = x.mag
        return Interval(_D0, self._up.multiply(m, m))

    def iscale(self, x: Interval, s: Decimal) -> Interval:
        """Multiply an interval by an exact scalar."""
        if s >= 0:
            return Interval(self._dn.multiply(x.lo, s), self._up.multiply(x.hi, s))
        return Interval(self._dn.multiply(x.hi, s), self._up.multiply(x.lo, s))

    # -- rectangle product -------------------------------------------------

    def rmul(self, x: Rectangle, y: Rectangle) -> Rectangle:
        # four-products formula; real operands skip the imaginary work
        if x.is_real():
            if y.is_real():
                return Rectangle(self.imul(x.re, y.re), IZERO)
            return Rectangle(self.imul(x.re, y.re), self.imul(x.re, y.im))
        if y.is_real():
            return Rectangle(self.imul(x.re, y.re), self.imul(x.im, y.re))
        re = self.isub(self.imul(x.re, y.re), self.imul(x.im, y.im))
        im = self.iadd(self.imul(x.re, y.im), self.imul(x.im, y.re))
        return Rectangle(re, im)



# -- integer boxes ------------------------------------------------------------
#
# A box (re_lo, re_hi, im_lo, im_hi) holds integer ends at a scale 1/unit
# that the caller keeps.  Products are formed exactly, and each part is
# floored at its lower end and ceiled at its upper end once, back to 1/unit.

def _imul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Exact ends of the interval product [a, b] [c, d]."""
    if a >= 0:
        if c >= 0:
            return a * c, b * d
        if d <= 0:
            return b * c, a * d
        return b * c, b * d
    if b <= 0:
        if c >= 0:
            return a * d, b * c
        if d <= 0:
            return b * d, a * c
        return a * d, a * c
    if c >= 0:
        return a * d, b * d
    if d <= 0:
        return b * c, a * c
    return min(a * d, b * c), max(a * c, b * d)


def _isqr(a: int, b: int) -> tuple[int, int]:
    """Exact ends of {x**2 : x in [a, b]}."""
    if a >= 0:
        return a * a, b * b
    if b <= 0:
        return b * b, a * a
    return 0, max(a * a, b * b)


def box_add(x, y):
    """x + y, exact."""
    return x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]


def box_sub(x, y):
    """x - y, exact."""
    return x[0] - y[1], x[1] - y[0], x[2] - y[3], x[3] - y[2]


def box_conj(x):
    """The complex conjugate of x, exact."""
    return x[0], x[1], -x[3], -x[2]


def box_mul(x, y, unit: int):
    """x y by the four-products formula; real operands skip the imaginary
    work, so a real product stays real."""
    xrl, xrh, xil, xih = x
    yrl, yrh, yil, yih = y
    pl, ph = _imul(xrl, xrh, yrl, yrh)
    if xil or xih:
        tl, th = _imul(xil, xih, yrl, yrh)
        if yil or yih:
            sl, sh = _imul(xil, xih, yil, yih)
            ql, qh = _imul(xrl, xrh, yil, yih)
            pl, ph, tl, th = pl - sh, ph - sl, tl + ql, th + qh
    elif yil or yih:
        tl, th = _imul(xrl, xrh, yil, yih)
    else:
        return pl // unit, -(-ph // unit), 0, 0
    return pl // unit, -(-ph // unit), tl // unit, -(-th // unit)


def box_sqr(x, unit: int):
    """x**2 as re**2 - im**2 + 2 re im i, each square a true interval
    square: the product x x would let an imaginary part straddling 0 widen
    the real part by im_lo im_hi."""
    rl, rh, il, ih = x
    sl, sh = _isqr(rl, rh)
    if not (il or ih):
        return sl // unit, -(-sh // unit), 0, 0
    tl, th = _isqr(il, ih)
    pl, ph = _imul(rl, rh, il, ih)
    return (sl - th) // unit, -((tl - sh) // unit), 2 * pl // unit, -(-2 * ph // unit)


def box_inv(x, unit: int):
    """1/x for a real box x whose interval excludes 0."""
    lo, hi, il, ih = x
    if il or ih:
        raise ConfigError(f"box_inv takes a real box, got {x}")
    if lo <= 0 <= hi:
        raise DivisionByZeroInterval(f"denominator box {x} contains zero")
    one = unit * unit
    return one // hi, -(-one // lo), 0, 0


def exact_decimal(v: int, scale: int) -> Decimal:
    """v * 10**-scale exactly, written without trailing zeros after the point."""
    if not v:
        return _D0
    # through Decimal: str() of an int stops at sys.get_int_max_str_digits()
    digits = str(Decimal(v))
    zeros = min(len(digits) - len(digits.rstrip("0")), max(scale, 0))
    return Decimal(f"{digits[:len(digits) - zeros]}E{zeros - scale}")


def box_text(box, scale: int) -> str:
    """The box at scale 10**-``scale`` written exactly, as a rectangle."""
    rl, rh, il, ih = (exact_decimal(v, scale) for v in box)
    return f"([{rl}, {rh}] + [{il}, {ih}]i)"
