"""Enclosures of real-analytic functions on a disc, with guaranteed-enclosure arithmetic.

A :class:`FunctionBall` represents a set of functions analytic on the open
disc D(c, r), continuous on its closure, written in the scaled-monomial
basis e_k : z -> ((z - c)/r)**k with the l1 coefficient norm and real
coefficients.  The center c and radius r are real, so every member
satisfies f(conj z) = conj f(z) and is real on the real axis.  The set is

    f = f_P + f_H + f_E

where f_P is a polynomial of degree <= N whose basis coefficients lie in
the stored intervals, f_H is any real-coefficient function supported
strictly above degree N with ||f_H|| <= v_high, and f_E is any
real-coefficient function with ||f_E|| <= v_err.  Every operation returns
a ball enclosing the exact image of every member.  Coefficients are held
as rectangles whose imaginary part is exactly zero; a ball with any other
coefficient is refused when it is built.

Why real coefficients suffice.  The doubling operator T, its derivative
DT, the noise operator L and both eigen residuals map real-coefficient
functions to real-coefficient functions: a = G(1) is real, and sums,
products and compositions of real series are real.  The frozen map
Lambda of a certificate is a real matrix with a real tail scalar.  So
Phi = id - Lambda F maps the closed real ball B(x0, rho), which is
complete, into the real subspace, and kappa bounds DPhi restricted to
that subspace.  The contraction argument therefore holds verbatim and
gives a zero that is unique among the real-coefficient functions in the
ball.  The domain-extension check is unchanged: it is a statement about
every member at complex points.

Coefficient kernels run on :class:`IntBall`, the exact integer
midpoint-radius form of a ball's coefficients.  Products convolve it
exactly; composition goes through a :class:`PowerTable`, which holds the
first BABY_STEPS + 1 powers of the normalized argument in that form only,
so composing is one exact integer matrix-vector product per block of
coefficients and Horner in the last power (Paterson-Stockmeyer), rounded
outward once per giant step and once at the end.  Complex
arithmetic is kept for pointwise work only: a :class:`PointEvaluator`
holds a ball's coefficient endpoints as integers for interval Horner on
integer boxes.  A member's value at a real point is real; at a non-real
point its tails may move both parts of the value.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from decimal import Decimal
from math import isqrt
from operator import add as _iadd
from operator import mul as _imul

from .errors import (
    CompositionContractFailure,
    ConfigError,
    DomainMismatch,
    IndexBeyondTruncation,
    PointOutsideDomain,
)
from .rounding import (
    IZERO,
    Interval,
    Rectangle,
    RoundingContext,
    as_decimal,
    finite_decimal,
    interval,
)

__all__ = [
    "Disc",
    "FunctionBall",
    "STANDARD_DISC",
    "zero_ball",
    "one_ball",
    "const_ball",
    "basis_ball",
    "ball_from_decimals",
    "affine_arg",
    "norm_upper",
    "add",
    "sub",
    "negate",
    "scale",
    "mul",
    "theta",
    "compose",
    "compose_derivative",
    "evaluate",
    "evaluate_derivative",
    "PointEvaluator",
    "PointRead",
    "point_evaluator",
    "coefficient",
    "inflate",
    "normalized_argument",
    "BABY_STEPS",
    "PowerTable",
    "power_table",
    "IntBall",
    "to_int_ball",
    "from_int_ball",
    "int_mul",
    "int_add",
    "int_outward",
    "serialize_ball",
    "deserialize_ball",
    "ball_checksum",
]

_D0 = Decimal(0)
_D1 = Decimal(1)


@dataclass(frozen=True, slots=True)
class Disc:
    """Open disc D(center, radius) in the complex plane."""

    center: Decimal
    radius: Decimal

    def __post_init__(self):
        if self.radius <= 0:
            raise ConfigError("disc radius must be positive")

    def __repr__(self):
        return f"D({self.center}, {self.radius})"


#: Domain used throughout the certification pipeline.
STANDARD_DISC = Disc(Decimal(1), Decimal("2.5"))


@dataclass(frozen=True, slots=True)
class FunctionBall:
    domain: Disc
    coeffs: tuple[Rectangle, ...]
    v_high: Decimal
    v_err: Decimal

    def __post_init__(self):
        if not self.coeffs:
            raise ConfigError("function ball needs at least the constant coefficient")
        if self.v_high < 0 or self.v_err < 0:
            raise ConfigError("tail bounds must be nonnegative")
        for k, c in enumerate(self.coeffs):
            if not c.is_real():
                raise ConfigError(f"coefficient {k} is not real: {c}")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        return (f"FunctionBall(N={self.truncation}, domain={self.domain}, "
                f"v_high={self.v_high}, v_err={self.v_err})")


def _real_ball(domain: Disc, coeffs, v_high: Decimal, v_err: Decimal) -> FunctionBall:
    """The ball with the given interval coefficients."""
    return FunctionBall(domain, tuple(Rectangle(x, IZERO) for x in coeffs), v_high, v_err)


def _real_scalar(s) -> Interval:
    """A real scalar as an interval: an Interval, a Rectangle with zero
    imaginary part, or an exactly representable value."""
    if isinstance(s, Interval):
        return s
    if isinstance(s, Rectangle):
        if not s.is_real():
            raise ConfigError(f"scalar {s} is not real")
        return s.re
    return interval(as_decimal(s))


def _check_same_space(f: FunctionBall, g: FunctionBall):
    if f.domain != g.domain:
        raise DomainMismatch(f"domains differ: {f.domain} vs {g.domain}")
    if f.truncation != g.truncation:
        raise DomainMismatch(f"truncation degrees differ: {f.truncation} vs {g.truncation}")


# -- constructors -----------------------------------------------------------

def zero_ball(domain: Disc, n: int) -> FunctionBall:
    return _real_ball(domain, (IZERO,) * (n + 1), _D0, _D0)


def const_ball(domain: Disc, n: int, value) -> FunctionBall:
    return _real_ball(domain, (_real_scalar(value),) + (IZERO,) * n, _D0, _D0)


def one_ball(domain: Disc, n: int) -> FunctionBall:
    return const_ball(domain, n, 1)


def basis_ball(domain: Disc, n: int, k: int) -> FunctionBall:
    """The basis element e_k as an exact ball (k <= n)."""
    if not 0 <= k <= n:
        raise IndexBeyondTruncation(f"basis index {k} not in 0..{n}")
    coeffs = [IZERO] * (n + 1)
    coeffs[k] = interval(1)
    return _real_ball(domain, coeffs, _D0, _D0)


def ball_from_decimals(domain: Disc, values, n: int | None = None) -> FunctionBall:
    """Exact polynomial ball from a sequence of representable coefficients."""
    coeffs = [interval(as_decimal(v)) for v in values]
    if n is not None:
        if len(coeffs) > n + 1:
            raise ConfigError("more coefficients than truncation allows")
        coeffs += [IZERO] * (n + 1 - len(coeffs))
    return _real_ball(domain, coeffs, _D0, _D0)


def affine_arg(ctx: RoundingContext, domain: Disc, n: int, s) -> FunctionBall:
    """The map X -> s*X as a ball: coefficients (s*c, s*r, 0, ...), s real."""
    if n < 1:
        raise ConfigError("affine argument needs truncation degree >= 1")
    s = _real_scalar(s)
    coeffs = [ctx.iscale(s, domain.center), ctx.iscale(s, domain.radius)] + [IZERO] * (n - 1)
    return _real_ball(domain, coeffs, _D0, _D0)


# -- norm and linear structure ----------------------------------------------

def norm_upper(ctx: RoundingContext, f: FunctionBall) -> Decimal:
    """Upper bound of ||g|| over every member g of the ball."""
    total = _D0
    for ck in f.coeffs:
        total = ctx.add_up(total, ck.re.mag)
    total = ctx.add_up(total, f.v_high)
    return ctx.add_up(total, f.v_err)


def add(ctx: RoundingContext, f: FunctionBall, g: FunctionBall) -> FunctionBall:
    _check_same_space(f, g)
    return _real_ball(f.domain, (ctx.iadd(a.re, b.re) for a, b in zip(f.coeffs, g.coeffs)),
                      ctx.add_up(f.v_high, g.v_high), ctx.add_up(f.v_err, g.v_err))


def sub(ctx: RoundingContext, f: FunctionBall, g: FunctionBall) -> FunctionBall:
    _check_same_space(f, g)
    return _real_ball(f.domain, (ctx.isub(a.re, b.re) for a, b in zip(f.coeffs, g.coeffs)),
                      ctx.add_up(f.v_high, g.v_high), ctx.add_up(f.v_err, g.v_err))


def negate(ctx: RoundingContext, f: FunctionBall) -> FunctionBall:
    return _real_ball(f.domain, (ctx.ineg(c.re) for c in f.coeffs), f.v_high, f.v_err)


def scale(ctx: RoundingContext, s, f: FunctionBall) -> FunctionBall:
    """Multiply the ball by a real scalar (Interval, real Rectangle, or exact value)."""
    s = _real_scalar(s)
    m = s.mag
    return _real_ball(f.domain, (ctx.imul(s, c.re) for c in f.coeffs),
                      ctx.mul_up(f.v_high, m), ctx.mul_up(f.v_err, m))


# -- exact integer form ------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IntBall:
    """A function ball in exact integer midpoint-radius form.

    Coefficient k lies in mid[k] +- rad[k], times 10**-scale.  A list may
    stop early: missing entries are zero.  v_high and v_err are the tail
    bounds of :class:`FunctionBall`.  Kernels combine these exactly and
    round outward only where they say so.
    """

    mid: list[int]
    rad: list[int]
    scale: int
    v_high: Decimal
    v_err: Decimal


def _int_parts(ctx: RoundingContext, coeffs: list[Interval], n: int):
    """Integer form (mid, rad, S) at scale 10**-S of the intervals up to the
    last nonzero one, with an all-zero list stored as the empty list."""
    size = len(coeffs)
    while size and coeffs[size - 1].lo == coeffs[size - 1].hi == 0:
        size -= 1
    s = ctx.ball_scale(n, coeffs[:size])
    return tuple(v if any(v) else [] for v in ctx.to_midrad(coeffs[:size], s)) + (s,)


def to_int_ball(ctx: RoundingContext, f: FunctionBall) -> IntBall:
    """f in integer form at the scale ctx.ball_scale gives it, rounded outward."""
    return IntBall(*_int_parts(ctx, [c.re for c in f.coeffs], f.truncation),
                   f.v_high, f.v_err)


def _padded(xs: list[int], n: int) -> list[int]:
    """xs cut or padded with zeros to n + 1 entries."""
    return list(xs[:n + 1]) + [0] * (n + 1 - len(xs))


def from_int_ball(ctx: RoundingContext, domain: Disc, n: int, b: IntBall) -> FunctionBall:
    """Degree-n working-precision ball enclosing b, each coefficient rounded outward."""
    return _real_ball(domain, ctx.from_midrad(_padded(b.mid, n), _padded(b.rad, n), b.scale),
                      b.v_high, b.v_err)


def _conv(a: list[int], b: list[int], n: int) -> list[int]:
    """Exact Cauchy product of two integer sequences, truncated to degree n."""
    la, lb = len(a), len(b)
    if la < lb:
        a, b, la, lb = b, a, lb, la
    if not lb:
        return []
    size = min(n, la + lb - 2) + 1
    rb = b[::-1]
    out = []
    for k in range(size):
        lo = k - lb + 1 if k >= lb else 0
        hi = k + 1 if k < la else la
        out.append(sum(map(_imul, a[lo:hi], rb[lb - 1 - k + lo:lb - 1 - k + hi])))
    return out


def _add_lists(a: list[int], b: list[int]) -> list[int]:
    """Elementwise sum of two sequences, the shorter one padded with zeros."""
    if len(a) < len(b):
        a, b = b, a
    return list(map(_iadd, a, b)) + a[len(b):]


def _magnitudes(mid: list[int], rad: list[int]) -> list[int]:
    """Upper bounds |mid| + rad of the coefficients of an integer ball."""
    return _add_lists(list(map(abs, mid)), rad)


def _product_radii(fm: list[int], fr: list[int], gm: list[int], gr: list[int],
                   n: int) -> list[int]:
    """Radii of the product of two integer balls, from their midpoints and
    radii: a product of intervals (m, r)(m', r') has radius
    |m| r' + r (|m'| + r')."""
    return _add_lists(_conv(list(map(abs, fm)), gr, n), _conv(fr, _magnitudes(gm, gr), n))


def int_mul(ctx: RoundingContext, f: IntBall, g: IntBall, n: int) -> IntBall:
    """Exact product of two integer balls to degree n, at scale f.scale + g.scale.

    Polynomial-by-polynomial mass of degree > N is provably high-order and
    goes to v_high, as do polynomial-by-high products; anything touching an
    error part lands in v_err.  Only those tail bounds are rounded (upward).
    """
    mid = _conv(f.mid, g.mid, n)
    rad = _product_radii(f.mid, f.rad, g.mid, g.rad, n)
    mf, mg = _magnitudes(f.mid, f.rad), _magnitudes(g.mid, g.rad)
    # spill: sum of mf[i] mg[j] over i + j > N, from suffix sums of mg
    tail, suffix = 0, [0] * (len(mg) + 1)
    for j in range(len(mg) - 1, -1, -1):
        tail += mg[j]
        suffix[j] = tail
    spill = sum(m * suffix[n - i + 1] for i, m in enumerate(mf) if n - i + 1 < len(mg))
    pf, pg = ctx.scaled_up(sum(mf), f.scale), ctx.scaled_up(sum(mg), g.scale)
    v_high = ctx.scaled_up(spill, f.scale + g.scale)
    v_high = ctx.add_up(v_high, ctx.mul_up(pf, g.v_high))
    v_high = ctx.add_up(v_high, ctx.mul_up(f.v_high, pg))
    v_high = ctx.add_up(v_high, ctx.mul_up(f.v_high, g.v_high))
    v_err = ctx.mul_up(f.v_err, ctx.add_up(ctx.add_up(pg, g.v_high), g.v_err))
    v_err = ctx.add_up(v_err, ctx.mul_up(g.v_err, ctx.add_up(pf, f.v_high)))
    return IntBall(mid if any(mid) else [], rad if any(rad) else [],
                   f.scale + g.scale, v_high, v_err)


def int_add(ctx: RoundingContext, f: IntBall, g: IntBall) -> IntBall:
    """Exact sum of two integer balls, at the finer of their scales."""
    s = max(f.scale, g.scale)
    uf, ug = 10 ** (s - f.scale), 10 ** (s - g.scale)
    parts = [_add_lists(a if uf == 1 else [x * uf for x in a],
                        b if ug == 1 else [x * ug for x in b])
             for a, b in ((f.mid, g.mid), (f.rad, g.rad))]
    return IntBall(*parts, s, ctx.add_up(f.v_high, g.v_high), ctx.add_up(f.v_err, g.v_err))


def int_outward(ctx: RoundingContext, b: IntBall, n: int) -> IntBall:
    """b rounded outward to the scale ctx.ball_scale gives a degree-n ball
    with the same largest coefficient, so that it keeps precision +
    digits(n+1) digits: each midpoint is floored and each radius grows by
    the remainder, then rounds up."""
    top = max(_magnitudes(b.mid, b.rad), default=0)
    if not top:
        return IntBall([], [], 0, b.v_high, b.v_err)
    cut = b.scale - (ctx.precision + len(str(n + 1)) - (len(str(top)) - 1 - b.scale))
    if cut <= 0:
        return b
    unit = 10 ** cut
    size = max(len(b.mid), len(b.rad))
    qr = [divmod(m, unit) for m in _padded(b.mid, size - 1)]
    return IntBall([q for q, _ in qr],
                   [-((-r - rem) // unit) for (_, rem), r in zip(qr, _padded(b.rad, size - 1))],
                   b.scale - cut, b.v_high, b.v_err)


def mul(ctx: RoundingContext, f: FunctionBall, g: FunctionBall) -> FunctionBall:
    """Product ball: Cauchy product to degree N, l1 spill above N into v_high.

    The coefficient product runs exactly on the integer midpoint-radius form
    of each factor (see ctx.ball_scale and :func:`int_mul`), so the only
    roundings are the outward conversions in and out.
    """
    _check_same_space(f, g)
    n = f.truncation
    product = int_mul(ctx, to_int_ball(ctx, f), to_int_ball(ctx, g), n)
    return from_int_ball(ctx, f.domain, n, product)


# -- composition --------------------------------------------------------------

def normalized_argument(ctx: RoundingContext, h: FunctionBall) -> FunctionBall:
    """The ball (h - c)/r used as composition argument."""
    inv = ctx.idiv(interval(1), interval(h.domain.radius))
    shifted = [ctx.isub(h.coeffs[0].re, interval(h.domain.center))] + [c.re for c in h.coeffs[1:]]
    return _real_ball(h.domain, (ctx.imul(x, inv) for x in shifted),
                      ctx.mul_up(h.v_high, inv.hi), ctx.mul_up(h.v_err, inv.hi))


def theta(ctx: RoundingContext, h: FunctionBall) -> Decimal:
    """Upper bound of ||(h - c)/r||, the composition contraction factor."""
    total = ctx.isub(h.coeffs[0].re, interval(h.domain.center)).mag
    for ck in h.coeffs[1:]:
        total = ctx.add_up(total, ck.re.mag)
    total = ctx.add_up(total, ctx.add_up(h.v_high, h.v_err))
    return ctx.div_up(total, h.domain.radius)


def _derivative_coeffs(ctx: RoundingContext, f: FunctionBall) -> list[Interval]:
    """Coefficients of f_P' in the same basis: d/dz e_k = (k/r) e_{k-1}."""
    r = interval(f.domain.radius)
    out = [ctx.imul(f.coeffs[k].re, ctx.idiv(interval(k), r))
           for k in range(1, f.truncation + 1)]
    return out or [IZERO]


def _sup_k_theta(ctx: RoundingContext, th: Decimal, n: int) -> Decimal:
    """Upper bound of sup_{k>n} k*theta**(k-1) for 0 <= theta < 1."""
    head = ctx.mul_up(Decimal(n + 1), ctx.pow_up(th, n))
    if ctx.mul_up(Decimal(n + 2), th) <= Decimal(n + 1):
        # terms k*theta**(k-1) are nonincreasing from k = n+1 on
        return head
    one_minus = ctx.sub_dn(_D1, th)
    denom = ctx.mul_dn(one_minus, one_minus)
    return ctx.div_up(head, denom)


def _with_error(ctx: RoundingContext, f: FunctionBall, extra: Decimal) -> FunctionBall:
    if extra == 0:
        return f
    return FunctionBall(f.domain, f.coeffs, f.v_high, ctx.add_up(f.v_err, extra))


def _dots(vec: list[int], rows) -> list[int]:
    return [sum(map(_imul, vec, row)) for row in rows] if vec else []


#: degrees above the truncation that every power, every block and the
#: Horner accumulator of a composition carry exactly, so the high part of a
#: composition keeps the cancellations between powers; for the fixed point
#: at N=20 and N=80 the v_high of G(Q(G(a**2 X))) is within 0.1% of its
#: limit at 8 (and 50 times larger at 0)
_GUARD_DEGREES = 8

#: baby steps m of a composition: a power table holds u**0..u**m and runs
#: Horner in u**m.  approx.HEAD_DEGREE is m - 1, so the baby powers are
#: also the column images of the frozen map's head.
BABY_STEPS = 21


@dataclass(frozen=True)
class PowerTable:
    """The baby powers u**0..u**(m-1) of a normalized argument
    u = (h - c)/r, m = min(N + 1, BABY_STEPS), and the giant step
    U = u**m when N >= m, held only in exact integer midpoint-radius form
    to degree D = N + _GUARD_DEGREES, with theta(h).

    Row j of each matrix holds coefficient j of every baby power, for
    j = 0..D; power k is at scale 10**-scales[k], v_spill[k] bounds its
    mass above D and v_err[k] is its error tail.  Composing f with h is
    Paterson-Stockmeyer evaluation (Paterson and Stockmeyer, SIAM J.
    Comput. 2, 1973): f splits into blocks B_i = sum_{j<m} f_{im+j} u**j,
    each one exact integer matrix-vector product, and Horner in U,
    acc <- int_outward(acc U) + B_i, runs to degree D; the rows above N of
    the result go to v_high and the rest is rounded outward once.  That is
    m - 1 products to build the table and ceil((N+1)/m) - 1 per
    composition, instead of the N - 1 of a table of every power.  Power k,
    cut at degree N, is the image of e_k (:meth:`power`).
    """

    domain: Disc
    theta_bound: Decimal
    scales: tuple
    mid: tuple
    rad: tuple
    v_spill: tuple
    v_err: tuple
    giant: IntBall | None

    @property
    def truncation(self) -> int:
        return len(self.mid) - 1 - _GUARD_DEGREES

    def _giant_step(self, ctx: RoundingContext, b: IntBall) -> IntBall:
        """b U to degree D, rounded outward."""
        d = len(self.mid) - 1
        return int_outward(ctx, int_mul(ctx, b, self.giant, d), d)

    def _full_power(self, ctx: RoundingContext, k: int) -> IntBall:
        """u**k to degree D: a baby power, U, or u**(k-m) U formed on demand."""
        m = len(self.scales)
        if k < m:
            mid, rad = ([row[k] for row in rows] for rows in (self.mid, self.rad))
            return IntBall(mid, rad, self.scales[k], self.v_spill[k], self.v_err[k])
        if k == m:
            return self.giant
        return self._giant_step(ctx, self._full_power(ctx, k - m))

    def power(self, ctx: RoundingContext, k: int) -> IntBall:
        """u**k in integer form to degree N, its mass above N in v_high."""
        n = self.truncation
        if not 0 <= k <= n:
            raise IndexBeyondTruncation(f"power {k} not in 0..{n}")
        b = self._full_power(ctx, k)
        guard = sum(_magnitudes(b.mid[n + 1:], b.rad[n + 1:]))
        mid, rad = b.mid[:n + 1], b.rad[:n + 1]
        return IntBall(mid if any(mid) else [], rad if any(rad) else [], b.scale,
                       ctx.add_up(b.v_high, ctx.scaled_up(guard, b.scale)), b.v_err)

    def _require(self, strict: bool):
        th = self.theta_bound
        if th > 1 or (strict and th >= 1):
            raise CompositionContractFailure(
                f"composition argument has theta = {th} (strict={strict})")

    def _block(self, fm: list[int], fr: list[int], mags) -> tuple[list[int], list[int]]:
        """sum_j (fm[j] +- fr[j]) u**j over the baby powers to degree D,
        exactly, at scale 10**-(S + max(scales)) for fm, fr at 10**-S."""
        top = max(self.scales)
        units = [10 ** (top - s) for s in self.scales]
        am, ar = list(map(_imul, fm, units)), list(map(_imul, fr, units))
        return (_dots(am, self.mid),
                _add_lists(_dots(list(map(abs, am)), self.rad), _dots(ar, mags)))

    def _tails(self, ctx: RoundingContext, fm: list[int], fr: list[int], sf: int,
               v_high: Decimal, v_err: Decimal) -> tuple[Decimal, Decimal]:
        """v_high and v_err raised by the baby powers' tails, weighted by
        |fm[j]| + fr[j] at scale 10**-sf."""
        for k, m in enumerate(_magnitudes(fm, fr)):
            if m and (self.v_spill[k] or self.v_err[k]):
                mk = ctx.scaled_up(m, sf)
                v_high = ctx.add_up(v_high, ctx.mul_up(mk, self.v_spill[k]))
                v_err = ctx.add_up(v_err, ctx.mul_up(mk, self.v_err[k]))
        return v_high, v_err

    def _polynomial(self, ctx: RoundingContext, coeffs: list[Interval]) -> FunctionBall:
        """Enclosure of sum_k coeffs[k] u**k over every member of the argument."""
        n = self.truncation
        fm, fr, sf = _int_parts(ctx, coeffs, n)
        m, scale = len(self.scales), sf + max(self.scales)
        mags = [list(map(_iadd, map(abs, a), r)) for a, r in zip(self.mid, self.rad)]
        upper = None     # sum_{i >= 1} B_i U**(i-1), Horner in U from the top block
        for i in reversed(range(m, max(len(fm), len(fr)), m)):
            bm, br = fm[i:i + m], fr[i:i + m]
            block = IntBall(*self._block(bm, br, mags), scale,
                            *self._tails(ctx, bm, br, sf, _D0, _D0))
            upper = block if upper is None else int_add(ctx, self._giant_step(ctx, upper), block)
        low = IntBall(*self._block(fm[:m], fr[:m], mags), scale, _D0, _D0)
        if upper is not None:
            low = int_add(ctx, self._giant_step(ctx, upper), low)
        v_high = ctx.scaled_up(sum(_magnitudes(low.mid[n + 1:], low.rad[n + 1:])), low.scale)
        if low.v_high:
            v_high = ctx.add_up(v_high, low.v_high)
        v_high, v_err = self._tails(ctx, fm[:m], fr[:m], sf, v_high, low.v_err)
        out = IntBall(low.mid[:n + 1], low.rad[:n + 1], low.scale, v_high, v_err)
        return from_int_ball(ctx, self.domain, n, out)

    def compose(self, ctx: RoundingContext, f: FunctionBall) -> FunctionBall:
        """Enclosure of f o h.

        Requires theta(h) <= 1, strictly below 1 when f carries tail mass.
        The high tail of f contributes v_high * theta**(N+1) and the error
        tail of f contributes v_err, both into the result's error bound.
        """
        if f.domain != self.domain or f.truncation != self.truncation:
            raise DomainMismatch("composed ball and power table differ in space")
        self._require(strict=f.v_high > 0 or f.v_err > 0)
        out = self._polynomial(ctx, [c.re for c in f.coeffs])
        tail = f.v_err
        if f.v_high > 0:
            th = self.theta_bound
            tail = ctx.add_up(tail, ctx.mul_up(f.v_high, ctx.pow_up(th, f.truncation + 1)))
        return _with_error(ctx, out, tail)

    def compose_derivative(self, ctx: RoundingContext, f: FunctionBall) -> FunctionBall:
        """Enclosure of f' o h; requires theta(h) < 1 strictly.

        Tail mass of f is differentiated through the majorants
        sup_{k>N} k theta**(k-1) for the high part and
        sum_{k>=1} k theta**(k-1) = (1-theta)**-2 for the error part,
        each divided by r.
        """
        if f.domain != self.domain or f.truncation != self.truncation:
            raise DomainMismatch("composed ball and power table differ in space")
        self._require(strict=True)
        out = self._polynomial(ctx, _derivative_coeffs(ctx, f))
        th = self.theta_bound
        tail = _D0
        if f.v_high > 0:
            tail = ctx.mul_up(f.v_high, _sup_k_theta(ctx, th, f.truncation))
        if f.v_err > 0:
            one_minus = ctx.sub_dn(_D1, th)
            geo = ctx.div_up(_D1, ctx.mul_dn(one_minus, one_minus))
            tail = ctx.add_up(tail, ctx.mul_up(f.v_err, geo))
        if tail > 0:
            tail = ctx.div_up(tail, f.domain.radius)
        return _with_error(ctx, out, tail)


def power_table(ctx: RoundingContext, h: FunctionBall) -> PowerTable:
    """Power table of the normalized argument of h.

    u**k, for k = 2..min(N, BABY_STEPS), is the exact integer product of
    u**(k-1) and u to degree N + _GUARD_DEGREES, rounded outward once
    (:func:`int_outward`) to keep precision + digits(N+1) digits on its
    largest coefficient.
    """
    n = h.truncation
    d = n + _GUARD_DEGREES
    last = min(n, BABY_STEPS)
    u = to_int_ball(ctx, normalized_argument(ctx, h))
    powers = [IntBall([1], [], 0, _D0, _D0), u][:last + 1]
    for _ in range(2, last + 1):
        powers.append(int_outward(ctx, int_mul(ctx, powers[-1], u, d), d))
    baby = powers[:BABY_STEPS]
    return PowerTable(h.domain, theta(ctx, h), tuple(p.scale for p in baby),
                      tuple(zip(*(_padded(p.mid, d) for p in baby))),
                      tuple(zip(*(_padded(p.rad, d) for p in baby))),
                      tuple(p.v_high for p in baby), tuple(p.v_err for p in baby),
                      powers[BABY_STEPS] if last == BABY_STEPS else None)


def compose(ctx: RoundingContext, f: FunctionBall, h: FunctionBall) -> FunctionBall:
    """Enclosure of f o h through the power table of h (see :meth:`PowerTable.compose`)."""
    _check_same_space(f, h)
    return power_table(ctx, h).compose(ctx, f)


def compose_derivative(ctx: RoundingContext, f: FunctionBall, h: FunctionBall) -> FunctionBall:
    """Enclosure of f' o h through the power table of h
    (see :meth:`PowerTable.compose_derivative`)."""
    _check_same_space(f, h)
    return power_table(ctx, h).compose_derivative(ctx, f)


# -- pointwise evaluation -------------------------------------------------------

def _outward(lo: int, hi: int, unit: int) -> tuple[int, int]:
    """[lo, hi] / unit rounded outward to integers: lo floors, hi ceils."""
    return lo // unit, -(-hi // unit)


def _exact_int(ctx: RoundingContext, x: Decimal, scale: int) -> tuple[int, int]:
    """(m, s) with x = m * 10**-s exactly and s >= scale."""
    s = max(scale, -x.as_tuple().exponent)
    return ctx.to_int_ends(Interval(x, x), s)[1], s


class PointRead:
    """z as read by :meth:`PointEvaluator.read`: the box z - c, re in
    [re_lo, re_hi] and im in [im_lo, im_hi] (both 0 when z is real), and
    d2 = sup |z - c|**2 over it."""

    __slots__ = ("z", "re_lo", "re_hi", "im_lo", "im_hi", "d2")

    def __init__(self, z, re_lo, re_hi, im_lo, im_hi, d2):
        self.z, self.re_lo, self.re_hi, self.im_lo, self.im_hi, self.d2 = (
            z, re_lo, re_hi, im_lo, im_hi, d2)


@dataclass(frozen=True)
class PointEvaluator:
    """A ball held for pointwise evaluation in exact integer box form.

    coeffs[k] is the interval (lo, hi) of coefficient k and dcoeffs[k] that
    of (k+1) f_{k+1} / r, the coefficients of f_P', both at scale
    10**-scale and rounded outward.  A point z is read once (:meth:`read`)
    into the box z - c at scale 10**-point_scale, where the disc's center
    and radius are exact integers; reading rounds outward and is exact for
    every working-precision endpoint above 10**-arg_scale in magnitude, and
    a real point (im z exactly 0) converts its real part only.
    :meth:`in_disc`, :meth:`value` and :meth:`derivative` share that read,
    as does every evaluator with the same disc and point_scale.  The
    normalized argument u = (z - c)/r is rounded outward to scale
    10**-arg_scale, and interval Horner runs on boxes with exact products
    and one floor/ceil per step back to 10**-scale.  The tail pad
    v_high + v_err is held exactly, at scale 10**-pad_scale.  Every member
    is real on the real axis: at a real point Horner runs on real boxes
    and the pad widens the real part only; at a non-real point the tails
    may move both parts, and both are padded.
    """

    domain: Disc
    scale: int
    coeffs: tuple
    dcoeffs: tuple
    arg_scale: int
    point_scale: int
    center: int
    radius: int
    tail_mass: Decimal
    pad: int
    pad_scale: int

    def read(self, ctx: RoundingContext, z: Rectangle) -> PointRead:
        """The box z - c at scale 10**-point_scale, rounded outward, and
        sup |z - c|**2 over it: its farthest corner."""
        s = self.point_scale
        rl, rh = ctx.to_int_ends(z.re, s)
        rl, rh = rl - self.center, rh - self.center
        re = max(-rl, rh)
        if not (z.im.lo or z.im.hi):
            return PointRead(z, rl, rh, 0, 0, re * re)
        il, ih = ctx.to_int_ends(z.im, s)
        im = max(-il, ih)
        return PointRead(z, rl, rh, il, ih, re * re + im * im)

    def in_disc(self, p: PointRead, strict: bool = False) -> bool:
        """Whether the box read as p lies in the closed disc (the open one if
        strict): the exact comparison of its d2 with r**2."""
        r2 = self.radius * self.radius
        return p.d2 < r2 if strict else p.d2 <= r2

    def _argument(self, p: PointRead) -> tuple[int, int, int, int]:
        """u = (z - c)/r at scale 10**-arg_scale, rounded outward, for z read
        as p in the closed disc."""
        if p.d2 > self.radius * self.radius:
            raise PointOutsideDomain(f"|z - {self.domain.center}| may exceed "
                                     f"{self.domain.radius} at {p.z}")
        unit, r = 10 ** self.arg_scale, self.radius
        return (*_outward(p.re_lo * unit, p.re_hi * unit, r),
                *_outward(p.im_lo * unit, p.im_hi * unit, r))

    def _horner(self, coeffs, u) -> tuple[int, int, int, int]:
        """Box Horner: acc <- acc u + c_k, each product exact, its lower end
        floored and its upper end ceiled back to 10**-scale.  A product
        [a, b] [c, d] picks its ends by sign: for c >= 0, a*c or a*d and b*d
        or b*c; mirrored for d <= 0; min/max pairs when c < 0 < d.  The
        coefficients are real, so at a real u the imaginary part stays 0 and
        Horner runs on the real axis, one loop per sign of u."""
        ul, uh, vl, vh = u
        unit = 10 ** self.arg_scale
        rl, rh = coeffs[-1]
        rest = coeffs[-2::-1]
        if vl or vh:
            il = ih = 0
            for cl, ch in rest:
                # (R + iI)(U + iV) = RU - IV + i(RV + IU)
                if ul >= 0:
                    pl, ph = rl * (ul if rl >= 0 else uh), rh * (uh if rh >= 0 else ul)
                    tl, th = il * (ul if il >= 0 else uh), ih * (uh if ih >= 0 else ul)
                elif uh <= 0:
                    pl, ph = rh * (ul if rh >= 0 else uh), rl * (uh if rl >= 0 else ul)
                    tl, th = ih * (ul if ih >= 0 else uh), il * (uh if il >= 0 else ul)
                else:
                    pl, ph = min(rl * uh, rh * ul), max(rl * ul, rh * uh)
                    tl, th = min(il * uh, ih * ul), max(il * ul, ih * uh)
                if vl >= 0:
                    ql, qh = rl * (vl if rl >= 0 else vh), rh * (vh if rh >= 0 else vl)
                    sl, sh = il * (vl if il >= 0 else vh), ih * (vh if ih >= 0 else vl)
                elif vh <= 0:
                    ql, qh = rh * (vl if rh >= 0 else vh), rl * (vh if rl >= 0 else vl)
                    sl, sh = ih * (vl if ih >= 0 else vh), il * (vh if il >= 0 else vl)
                else:
                    ql, qh = min(rl * vh, rh * vl), max(rl * vl, rh * vh)
                    sl, sh = min(il * vh, ih * vl), max(il * vl, ih * vh)
                rl, rh = (pl - sh) // unit + cl, -((sl - ph) // unit) + ch
                il, ih = (ql + tl) // unit, -(-(qh + th) // unit)
            return rl, rh, il, ih
        if ul >= 0:
            for cl, ch in rest:
                rl, rh = (rl * (ul if rl >= 0 else uh) // unit + cl,
                          -(-rh * (uh if rh >= 0 else ul) // unit) + ch)
        elif uh <= 0:
            for cl, ch in rest:
                rl, rh = (rh * (ul if rh >= 0 else uh) // unit + cl,
                          -(-rl * (uh if rl >= 0 else ul) // unit) + ch)
        else:
            for cl, ch in rest:
                rl, rh = (min(rl * uh, rh * ul) // unit + cl,
                          -(-max(rl * ul, rh * uh) // unit) + ch)
        return rl, rh, 0, 0

    def _rectangle(self, ctx: RoundingContext, acc, pad: int, pad_scale: int,
                   real: bool) -> Rectangle:
        """acc widened by +-pad, in the real part only at a real point, and
        converted once, outward; a part exactly 0 is not converted."""
        lift = 10 ** (pad_scale - self.scale)
        rl, rh, il, ih = acc
        lo, hi = rl * lift - pad, rh * lift + pad
        re = (Interval(ctx.scaled_dn(lo, pad_scale), ctx.scaled_up(hi, pad_scale))
              if lo or hi else IZERO)
        ipad = 0 if real else pad
        lo, hi = il * lift - ipad, ih * lift + ipad
        im = (Interval(ctx.scaled_dn(lo, pad_scale), ctx.scaled_up(hi, pad_scale))
              if lo or hi else IZERO)
        return Rectangle(re, im)

    def value(self, ctx: RoundingContext, p: PointRead) -> Rectangle:
        """Enclosure of f(z) over every member of f, for the read p of a point
        z in the closed disc."""
        return self._rectangle(ctx, self._horner(self.coeffs, self._argument(p)), self.pad,
                               self.pad_scale, not (p.im_lo or p.im_hi))

    def derivative(self, ctx: RoundingContext, p: PointRead) -> Rectangle:
        """Enclosure of f'(z) for the read p of z; needs |z - c| strictly below
        r when f has tails, whose derivative is bounded by
        (v_high + v_err) (1 - |u|)**-2 / r."""
        acc = self._horner(self.dcoeffs, self._argument(p))
        real = not (p.im_lo or p.im_hi)
        if self.tail_mass == 0:
            return self._rectangle(ctx, acc, 0, self.scale, real)
        d2 = p.d2
        if d2 >= self.radius * self.radius:
            raise PointOutsideDomain("derivative tail bound needs |z - c| < r strictly")
        # |u| <= ceil(sqrt(d2)) / r, rounded up to 10**-arg_scale
        root = isqrt(d2)
        root += root * root < d2
        au = ctx.scaled_up(-(-root * 10 ** self.arg_scale // self.radius), self.arg_scale)
        if au >= 1:
            raise PointOutsideDomain("derivative tail bound needs |z - c| < r strictly")
        one_minus = ctx.sub_dn(_D1, au)
        geo = ctx.div_up(_D1, ctx.mul_dn(one_minus, one_minus))
        pad = ctx.div_up(ctx.mul_up(self.tail_mass, geo), self.domain.radius)
        return self._rectangle(ctx, acc, *_exact_int(ctx, pad, self.scale), real)


def point_evaluator(ctx: RoundingContext, f: FunctionBall) -> PointEvaluator:
    """Integer form of f for evaluating it and its derivative at many points.

    Coefficient endpoints are rounded outward to the scale ctx.ball_scale
    gives them; the derivative coefficients (k+1) f_{k+1} / r are formed
    from those integers and rounded outward once.  Arguments carry
    precision + digits(N+1) digits after the point, as |u| <= 1.
    """
    n = f.truncation
    c, r = f.domain.center, f.domain.radius
    parts = [x.re for x in f.coeffs]
    s = ctx.ball_scale(n, parts)
    coeffs = tuple(zip(*ctx.to_ends(parts, s)))
    arg_scale = ctx.precision + len(str(n + 1))
    point_scale = max(2 * arg_scale, -c.as_tuple().exponent, -r.as_tuple().exponent)
    (center, radius), _ = ctx.to_ends([Interval(c, c), Interval(r, r)], point_scale)
    # k f_k / r at scale 10**-s is k f_k 10**point_scale / radius there
    dcoeffs = tuple(_outward(lo * k * 10 ** point_scale, hi * k * 10 ** point_scale, radius)
                    for k, (lo, hi) in enumerate(coeffs[1:], 1))
    tail_mass = ctx.add_up(f.v_high, f.v_err)
    return PointEvaluator(f.domain, s, coeffs, dcoeffs or ((0, 0),),
                          arg_scale, point_scale,
                          center, radius, tail_mass, *_exact_int(ctx, tail_mass, s))


def evaluate(ctx: RoundingContext, f: FunctionBall, z: Rectangle) -> Rectangle:
    """Enclosure of f(z) over every member of f, for z in the closed disc
    (see :meth:`PointEvaluator.value`)."""
    ev = point_evaluator(ctx, f)
    return ev.value(ctx, ev.read(ctx, z))


def evaluate_derivative(ctx: RoundingContext, f: FunctionBall, z: Rectangle) -> Rectangle:
    """Enclosure of f'(z); needs |z - c| strictly below r when f has tails
    (see :meth:`PointEvaluator.derivative`)."""
    ev = point_evaluator(ctx, f)
    return ev.derivative(ctx, ev.read(ctx, z))


# -- coefficients ---------------------------------------------------------------

def coefficient(ctx: RoundingContext, f: FunctionBall, k: int) -> Rectangle:
    """Rectangle containing coefficient k of every member (error part
    included); its imaginary part is 0, as every member's is."""
    if k > f.truncation or k < 0:
        raise IndexBeyondTruncation(f"coefficient {k} beyond truncation {f.truncation}")
    c = f.coeffs[k]
    if f.v_err == 0:
        return c
    return Rectangle(ctx.iadd(c.re, Interval(f.v_err.copy_negate(), f.v_err)), IZERO)


def inflate(ctx: RoundingContext, f: FunctionBall, rho) -> FunctionBall:
    """Widen the ball by rho in the error bound (closed l1 ball of radius rho)."""
    rho = as_decimal(rho)
    if rho < 0:
        raise ConfigError("inflation radius must be nonnegative")
    return FunctionBall(f.domain, f.coeffs, f.v_high, ctx.add_up(f.v_err, rho))


# -- serialization --------------------------------------------------------------

_BALL_HEADER = "renormcert-ball v1"


def serialize_ball(f: FunctionBall) -> str:
    """Text form with exact decimal endpoint strings; round-trips bit-exactly."""
    lines = [
        _BALL_HEADER,
        f"center {f.domain.center}",
        f"radius {f.domain.radius}",
        f"truncation {f.truncation}",
        f"v_high {f.v_high}",
        f"v_err {f.v_err}",
    ]
    for ck in f.coeffs:
        lines.append(f"coeff {ck.re.lo} {ck.re.hi} {ck.im.lo} {ck.im.hi}")
    return "\n".join(lines) + "\n"


def deserialize_ball(text: str) -> FunctionBall:
    """The ball written by :func:`serialize_ball`.  Text read from outside
    is checked: a missing field, a malformed line or number, a non-finite
    or misordered endpoint, a coefficient count that does not match the
    truncation and a non-real coefficient each raise ConfigError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _BALL_HEADER:
        raise ConfigError("not a serialized function ball")
    fields = {}
    coeffs = []
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key == "coeff":
            ends = rest.split()
            if len(ends) != 4:
                raise ConfigError(f"coeff line needs 4 endpoints: {ln!r}")
            a, b, c, d = (finite_decimal(x, "coeff endpoint") for x in ends)
            coeffs.append(Rectangle(Interval(a, b), Interval(c, d)))
        else:
            fields[key] = rest
    missing = [k for k in ("center", "radius", "truncation", "v_high", "v_err")
               if k not in fields]
    if missing:
        raise ConfigError(f"missing field(s): {', '.join(missing)}")
    value = {k: finite_decimal(fields[k], k) for k in ("center", "radius", "v_high", "v_err")}
    n = finite_decimal(fields["truncation"], "truncation")
    if len(coeffs) != n + 1:
        raise ConfigError("coefficient count does not match truncation")
    return FunctionBall(Disc(value["center"], value["radius"]), tuple(coeffs),
                        value["v_high"], value["v_err"])


def ball_checksum(f: FunctionBall) -> str:
    return hashlib.sha256(serialize_ball(f).encode()).hexdigest()
