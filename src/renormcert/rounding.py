"""Multi-precision interval and complex-rectangle arithmetic with directed rounding.

Endpoints are ``decimal.Decimal`` values.  Every operation is performed
through a :class:`RoundingContext`, which owns one decimal context rounding
toward minus infinity (for lower endpoints) and one rounding toward plus
infinity (for upper endpoints).  Decimal add/subtract/multiply/divide are
exact-then-rounded, so each computed endpoint is a faithful directed
rounding of the exact result and every result interval encloses the exact
mathematical one.

Function balls do not use these intervals: they hold their coefficients
as exact Python integers (see ``balls``).  This module gives them the
scalar side: :meth:`RoundingContext.scaled_dn` and
:meth:`RoundingContext.scaled_up` round an integer times 10**-S to a
working-precision bound, and :meth:`RoundingContext.to_int_ends` reads a
point's interval as integers, outward, for pointwise evaluation.

Rounding state lives entirely inside context instances: nothing here reads
or writes the thread-local decimal context, so contexts can be confined to
one worker each and values moved freely between workers.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal

from .errors import ConfigError, DivisionByZeroInterval, DivisionByZeroRectangle

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
]

_D0 = Decimal(0)
_D1 = Decimal(1)
_D2 = Decimal(2)


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

    @property
    def mig(self) -> Decimal:
        """Exact lower bound of |x| over the interval."""
        if self.lo <= 0 <= self.hi:
            return _D0
        return min(self.lo.copy_abs(), self.hi.copy_abs())

    def contains(self, point) -> bool:
        p = as_decimal(point)
        return self.lo <= p <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


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

    def contains(self, re_part, im_part=0) -> bool:
        return self.im.contains(im_part) and self.re.contains(re_part)


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

    The precision is immutable.  ``_dn`` rounds every result toward -inf,
    ``_up`` toward +inf; ``_exact`` has enough digits that the product of
    two working-precision operands is exact (used for square-root endpoint
    correction), and ``_near`` rounds to nearest for midpoints only.
    """

    __slots__ = ("precision", "_dn", "_up", "_near", "_exact", "_floor", "_ceil")

    def __init__(self, precision: int):
        if not isinstance(precision, int) or precision < 2:
            raise ConfigError("precision must be an int >= 2")
        self.precision = precision
        self._dn = decimal.Context(prec=precision, rounding=decimal.ROUND_FLOOR)
        self._up = decimal.Context(prec=precision, rounding=decimal.ROUND_CEILING)
        self._near = decimal.Context(prec=precision, rounding=decimal.ROUND_HALF_EVEN)
        self._exact = decimal.Context(prec=2 * precision + 8, rounding=decimal.ROUND_HALF_EVEN)
        # unbounded precision: scaleb is exact and to_integral_value rounds
        # once, down or up, to an integer
        unbounded = dict(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        self._floor = decimal.Context(rounding=decimal.ROUND_FLOOR, **unbounded)
        self._ceil = decimal.Context(rounding=decimal.ROUND_CEILING, **unbounded)

    def __repr__(self):
        return f"RoundingContext(precision={self.precision})"

    def __reduce__(self):
        return (RoundingContext, (self.precision,))

    # -- directed scalar helpers ------------------------------------------

    def add_dn(self, a, b):
        return self._dn.add(a, b)

    def add_up(self, a, b):
        return self._up.add(a, b)

    def sub_dn(self, a, b):
        return self._dn.subtract(a, b)

    def sub_up(self, a, b):
        return self._up.subtract(a, b)

    def mul_dn(self, a, b):
        return self._dn.multiply(a, b)

    def mul_up(self, a, b):
        return self._up.multiply(a, b)

    def div_dn(self, a, b):
        return self._dn.divide(a, b)

    def div_up(self, a, b):
        return self._up.divide(a, b)

    def round_nearest(self, a):
        return self._near.plus(a)

    def sqrt_up(self, x: Decimal) -> Decimal:
        """Smallest representable s with s >= sqrt(x) (x >= 0)."""
        if x < 0:
            raise ConfigError("sqrt of negative value")
        s = self._up.sqrt(x)
        # decimal sqrt is correctly rounded to nearest regardless of the
        # context rounding; nudge until the exact square clears x.
        while self._exact.multiply(s, s) < x:
            s = self._up.next_plus(s)
        return s

    def sqrt_dn(self, x: Decimal) -> Decimal:
        """Largest representable s with 0 <= s <= sqrt(x) (x >= 0)."""
        if x < 0:
            raise ConfigError("sqrt of negative value")
        s = self._dn.sqrt(x)
        while self._exact.multiply(s, s) > x:
            s = self._dn.next_minus(s)
        if s < 0:
            s = _D0
        return s

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
        fl, ce = self._floor, self._ceil
        return (int(fl.to_integral_value(fl.scaleb(x.lo, scale))),
                int(ce.to_integral_value(ce.scaleb(x.hi, scale))))

    def scaled_dn(self, value: int, scale: int) -> Decimal:
        """Lower bound of value * 10**-scale at working precision."""
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

    def imid(self, x: Interval) -> Decimal:
        return self._near.divide(self._near.add(x.lo, x.hi), _D2)

    def iwidth(self, x: Interval) -> Decimal:
        return self._up.subtract(x.hi, x.lo)

    # -- rectangle arithmetic ---------------------------------------------

    def radd(self, x: Rectangle, y: Rectangle) -> Rectangle:
        return Rectangle(self.iadd(x.re, y.re), self.iadd(x.im, y.im))

    def rsub(self, x: Rectangle, y: Rectangle) -> Rectangle:
        return Rectangle(self.isub(x.re, y.re), self.isub(x.im, y.im))

    def rneg(self, x: Rectangle) -> Rectangle:
        return Rectangle(self.ineg(x.re), self.ineg(x.im))

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

    def rsqr(self, x: Rectangle) -> Rectangle:
        if x.is_real():
            return Rectangle(self.isqr(x.re), IZERO)
        re = self.isub(self.isqr(x.re), self.isqr(x.im))
        im = self.iscale(self.imul(x.re, x.im), _D2)
        return Rectangle(re, im)

    def rdiv(self, x: Rectangle, y: Rectangle) -> Rectangle:
        denom = self.iadd(self.isqr(y.re), self.isqr(y.im))
        if denom.lo <= 0:
            raise DivisionByZeroRectangle(f"denominator {y} may contain zero")
        if x.is_real() and y.is_real():
            return Rectangle(self.idiv(x.re, y.re), IZERO)
        num_re = self.iadd(self.imul(x.re, y.re), self.imul(x.im, y.im))
        num_im = self.isub(self.imul(x.im, y.re), self.imul(x.re, y.im))
        return Rectangle(self.idiv(num_re, denom), self.idiv(num_im, denom))

    def rabs(self, x: Rectangle) -> Interval:
        """Interval bounding |z| over the rectangle (upper bound rigorous)."""
        lo2 = self._dn.add(self._dn.multiply(x.re.mig, x.re.mig),
                           self._dn.multiply(x.im.mig, x.im.mig))
        hi2 = self._up.add(self._up.multiply(x.re.mag, x.re.mag),
                           self._up.multiply(x.im.mag, x.im.mag))
        return Interval(self.sqrt_dn(lo2), self.sqrt_up(hi2))
