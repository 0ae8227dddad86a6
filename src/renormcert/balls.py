"""Enclosures of real-analytic functions on one disc, with guaranteed-enclosure arithmetic.

Every function lives on :data:`STANDARD_DISC` = D(c, r), c = 1, r = 2.5,
the one disc the paper proves its bounds on: a constant of this module,
not a field of a ball.  A :class:`FunctionBall` represents a set of
functions analytic on the open disc, continuous on its closure, written in
the scaled-monomial basis e_k : z -> ((z - c)/r)**k with the l1 coefficient
norm and real coefficients.  c and r are real, so every member satisfies
f(conj z) = conj f(z) and is real on the real axis; c = 1, so a = G(1) is
the constant coefficient and e_k(1) = 0 for k >= 1.  The set is

    f = f_P + f_H + f_E

where f_P is the polynomial of degree <= N with the stored midpoints
plus a rounding part of l1 norm at most rad at any degree, f_H is any
real-coefficient function supported strictly above degree N with
||f_H|| <= v_high, and f_E is any real-coefficient function with
||f_E|| <= v_err.  Every operation returns a ball enclosing the exact
image of every member.

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

A ball holds exact integer midpoints and one integer radius, the ball
polynomial with a single norm radius (van der Hoeven, "Ball arithmetic",
2010): f_P = sum_k mid[k] e_k plus a rounding part d, any real function
with ||d|| <= rad, all times 10**-scale.  d may sit at any degree, so rad
is an error part of its own; it is kept apart from v_err because
v_err carries rho and the parameter ball, which the operator tables read
separately (:mod:`operators`).  A :class:`FunctionBall` is an
:class:`IntBall` with a degree, so kernels read it directly.  Kernels
combine midpoints exactly, form rad from exact integer norms, and round
their result outward once (:func:`int_outward`), keeping precision +
digits(N+1) digits on its largest coefficient; sums, negations and shifts
are exact.  A product convolves midpoints exactly (:func:`int_mul`); its
rad is ||f_P|| rad_g + rad_f (||g_P|| + rad_g); a square (:func:`sqr`)
forms each cross pair once; within :func:`product_memo` an exact product
of operands seen before is read back, not formed again.  A scalar times a
ball is the product with the scalar's constant ball; composition goes
through a :class:`PowerTable`, which holds the baby powers of the normalized
argument at one scale, each with its rad, and its giant step, so
composing is one exact integer matrix-vector product per block of
coefficients and Horner in the giant step (Paterson-Stockmeyer), rounded
outward once per giant step and once at the end.  Decimal numbers appear
only at the edges: balls built from decimals (:func:`ball_from_decimals`,
:func:`deserialize_ball`) hold the coefficient intervals' exact
midpoints, read into integers by :func:`rounding.floor_at`, with rad the
sum of their half-widths, and those two check that their outside values
name the standard disc; :func:`serialize_ball` writes the midpoints and
adds rad to v_err, so an exact ball writes the text it reads; the
read-only :attr:`FunctionBall.coeffs` view gives each coefficient's
interval mid +- rad as exact decimals for digits and plots.  Complex
arithmetic is kept for pointwise work only: a :class:`PointEvaluator`
holds a ball's midpoints as integers, its rounding part in the tail
pad, and evaluates on integer boxes at one
decimal point scale, from a point's box to the box of its value, with
the normalized argument on a binary scale so that each Horner step
rounds by shifts; Decimal appears only where a caller reads a Rectangle
in or writes one out.  A member's value at a real point is real; at a
non-real point its tails may move both parts of the value.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
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
    EXACT,
    IONE,
    IZERO,
    Interval,
    Rectangle,
    RoundingContext,
    as_decimal,
    box_text,
    ceil_at,
    exact_decimal,
    finite_decimal,
    floor_at,
    interval,
)

__all__ = [
    "Disc",
    "FunctionBall",
    "STANDARD_DISC",
    "zero_ball",
    "const_ball",
    "ball_from_decimals",
    "affine_arg",
    "norm_upper",
    "add",
    "sub",
    "negate",
    "scale",
    "mul",
    "sqr",
    "theta",
    "compose",
    "compose_derivative",
    "evaluate",
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
    "int_mul",
    "int_sqr",
    "int_add",
    "int_outward",
    "product_memo",
    "products_unkept",
    "product_counts",
    "serialize_ball",
    "deserialize_ball",
    "endpoint_decimal",
    "ball_checksum",
]

_D0 = Decimal(0)
_D1 = Decimal(1)


@dataclass(frozen=True, slots=True)
class Disc:
    """Open disc D(center, radius) in the complex plane."""

    center: Decimal
    radius: Decimal

    def __repr__(self):
        return f"D({self.center}, {self.radius})"

    def at(self, scale: int) -> tuple[int, int]:
        """center and radius times 10**scale (exact for scale >= their digits)."""
        return floor_at(self.center, scale), floor_at(self.radius, scale)


#: The disc every function ball lives on.
STANDARD_DISC = Disc(Decimal(1), Decimal("2.5"))
_C, _R = STANDARD_DISC.center, STANDARD_DISC.radius


@dataclass(frozen=True, slots=True)
class IntBall:
    """A function ball in exact integer midpoint-radius form.

    Its polynomial part is sum_k mid[k] e_k plus a rounding part of l1 norm
    at most rad, at any degree, times 10**-scale.  The list may stop early:
    missing entries are zero.  v_high and v_err are the tail bounds of
    :class:`FunctionBall`.  Kernels combine these exactly and round outward
    only where they say so.
    """

    mid: list[int]
    rad: int
    scale: int
    v_high: Decimal
    v_err: Decimal


@dataclass(frozen=True, slots=True)
class FunctionBall(IntBall):
    """A ball of degree N = ``truncation``: an :class:`IntBall`, which every
    integer kernel reads, with its midpoints at most N + 1 long."""

    truncation: int

    def __post_init__(self):
        if self.truncation < 0:
            raise ConfigError("function ball needs at least the constant coefficient")
        if len(self.mid) > self.truncation + 1:
            raise ConfigError("more coefficients than truncation allows")
        if self.v_high < 0 or self.v_err < 0 or self.rad < 0:
            raise ConfigError("radius and tail bounds must be nonnegative")

    @classmethod
    def wrap(cls, n: int, b: IntBall) -> "FunctionBall":
        """The degree-n ball with the integer form b, as it is."""
        return cls(b.mid, b.rad, b.scale, b.v_high, b.v_err, n)

    @property
    def coeffs(self) -> tuple[Rectangle, ...]:
        """The coefficient intervals mid[k] +- rad as exact decimals,
        imaginary parts 0, without the tails: a read-only view for digits,
        plots and tests."""
        n, s, r = self.truncation, self.scale, self.rad
        return tuple(Rectangle(Interval(exact_decimal(m - r, s), exact_decimal(m + r, s)), IZERO)
                     for m in _padded(self.mid, n))

    def __repr__(self):
        return f"FunctionBall(N={self.truncation}, v_high={self.v_high}, v_err={self.v_err})"


def _padded(xs: list[int], n: int) -> list[int]:
    """xs cut or padded with zeros to n + 1 entries."""
    return list(xs[:n + 1]) + [0] * (n + 1 - len(xs))


def _exact(n: int, xs: list[Interval], v_high: Decimal = _D0,
           v_err: Decimal = _D0) -> FunctionBall:
    """The degree-n ball holding every polynomial with coefficients in the
    intervals xs: their exact midpoints, at the finest scale the digits
    need (one digit finer where a midpoint needs it), and rad the sum of
    their half-widths."""
    s = max([0] + [-x.as_tuple().exponent for iv in xs for x in (iv.lo, iv.hi) if x])
    los, his = [floor_at(iv.lo, s) for iv in xs], [floor_at(iv.hi, s) for iv in xs]
    if any((lo + hi) & 1 for lo, hi in zip(los, his)):
        s, los, his = s + 1, [10 * x for x in los], [10 * x for x in his]
    mid = [(lo + hi) >> 1 for lo, hi in zip(los, his)]
    rad = sum(hi - m for hi, m in zip(his, mid))
    return FunctionBall(mid if any(mid) else [], rad, s, v_high, v_err, n)


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


def _check_same_degree(f: FunctionBall, g: FunctionBall):
    if f.truncation != g.truncation:
        raise DomainMismatch(f"truncation degrees differ: {f.truncation} vs {g.truncation}")


# -- constructors -----------------------------------------------------------

def zero_ball(n: int) -> FunctionBall:
    return FunctionBall([], 0, 0, _D0, _D0, n)


def const_ball(n: int, value) -> FunctionBall:
    return _exact(n, [_real_scalar(value)])


def ball_from_decimals(domain: Disc, values, n: int | None = None) -> FunctionBall:
    """Exact polynomial ball from a sequence of representable coefficients;
    domain must be :data:`STANDARD_DISC`, the only disc a ball lives on."""
    if domain != STANDARD_DISC:
        raise ConfigError(f"ball on {domain}, every ball lives on {STANDARD_DISC}")
    coeffs = [interval(as_decimal(v)) for v in values]
    return _exact(len(coeffs) - 1 if n is None else n, coeffs)


def affine_arg(ctx: RoundingContext, n: int, s) -> FunctionBall:
    """The map X -> s*X as a ball: coefficients (s*c, s*r, 0, ...), s real."""
    if n < 1:
        raise ConfigError("affine argument needs truncation degree >= 1")
    return scale(ctx, s, _exact(n, [interval(_C), interval(_R)]))


# -- norm and linear structure ----------------------------------------------

def norm_upper(ctx: RoundingContext, f: FunctionBall) -> Decimal:
    """Upper bound of ||g|| over every member g of the ball."""
    total = ctx.scaled_up(sum(map(abs, f.mid)) + f.rad, f.scale)
    return ctx.add_up(ctx.add_up(total, f.v_high), f.v_err)


def add(ctx: RoundingContext, f: FunctionBall, g: FunctionBall) -> FunctionBall:
    _check_same_degree(f, g)
    return FunctionBall.wrap(f.truncation, int_add(ctx, f, g))


def sub(ctx: RoundingContext, f: FunctionBall, g: FunctionBall) -> FunctionBall:
    return add(ctx, f, negate(ctx, g))


def negate(ctx: RoundingContext, f: FunctionBall) -> FunctionBall:
    return replace(f, mid=[-m for m in f.mid])


def scale(ctx: RoundingContext, s, f: FunctionBall) -> FunctionBall:
    """Multiply the ball by a real scalar (Interval, real Rectangle, or exact
    value): the product (:func:`mul`) with the scalar's constant ball."""
    return mul(ctx, const_ball(f.truncation, s), f)


# -- exact integer kernels ---------------------------------------------------

def _nonzero_length(a: list[int], n: int) -> int:
    """Length of a cut to degree n with its trailing zeros dropped."""
    k = min(len(a), n + 1)
    while k and not a[k - 1]:
        k -= 1
    return k


#: exact products of :func:`_conv` and :func:`_sqr` since import: how many
#: were computed and how many were read from the open memo
_PRODUCTS = {"computed": 0, "reused": 0}
#: operands -> product while a :func:`product_memo` is open, else None
_memo: dict | None = None


def product_counts() -> dict:
    """A copy of the counts of exact products computed and reused so far."""
    return dict(_PRODUCTS)


@contextmanager
def product_memo():
    """Within it, :func:`_conv` and :func:`_sqr` keep every product and
    return a copy of a kept one for the same operands: keyed by their
    content, never their identity, as callers mutate the lists they hold.
    Products are exact, so a reused one is the product it stands for.  A
    memo opened inside another leaves the outer one in place."""
    global _memo
    outer, _memo = _memo, {} if _memo is None else _memo
    try:
        yield
    finally:
        _memo = outer


@contextmanager
def products_unkept():
    """Within it, no product is kept or read back, even inside an open
    :func:`product_memo`, which keeps what it held for after."""
    global _memo
    outer, _memo = _memo, None
    try:
        yield
    finally:
        _memo = outer


def _kept(key, product, *operands) -> list[int]:
    """A copy of the product the open memo keeps under key, formed by
    ``product(*operands)`` and kept first if it is not there yet."""
    out = _memo.get(key)
    if out is None:
        _PRODUCTS["computed"] += 1
        out = _memo[key] = product(*operands)
    else:
        _PRODUCTS["reused"] += 1
    return list(out)


def _conv(a: list[int], b: list[int], n: int) -> list[int]:
    """Exact Cauchy product of two integer sequences, truncated to degree n
    (:func:`_convolve`), read from the open memo when it keeps it."""
    if _memo is None:
        _PRODUCTS["computed"] += 1
        return _convolve(a, b, n)
    return _kept((n, tuple(a), tuple(b)), _convolve, a, b, n)


def _sqr(a: list[int], n: int) -> list[int]:
    """_conv(a, a, n) (:func:`_square`), read from the open memo when it
    keeps it."""
    if _memo is None:
        _PRODUCTS["computed"] += 1
        return _square(a, n)
    return _kept((n, tuple(a)), _square, a, n)


def _convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """Exact Cauchy product of two integer sequences, truncated to degree n.

    Trailing zeros of either input are dropped before the loop (a baby
    power u**k of an affine u has k + 1 nonzero coefficients of its N + 1);
    the result keeps the length of the full truncated product.  A
    one-coefficient operand (a constant ball's) scales the other one."""
    if not (a and b):
        return []
    size = min(n, len(a) + len(b) - 2) + 1
    la, lb = _nonzero_length(a, n), _nonzero_length(b, n)
    if la < lb:
        a, b, la, lb = b, a, lb, la
    if not lb:
        return [0] * size
    if lb == 1:
        b0 = b[0]
        out = [b0 * x for x in a[:min(size, la)]]
        return out + [0] * (size - len(out))
    rb = b[lb - 1::-1]
    out = []
    for k in range(min(size, la + lb - 1)):
        lo = k - lb + 1 if k >= lb else 0
        hi = k + 1 if k < la else la
        out.append(sum(map(_imul, a[lo:hi], rb[lb - 1 - k + lo:lb - 1 - k + hi])))
    return out + [0] * (size - len(out))


def _square(a: list[int], n: int) -> list[int]:
    """_convolve(a, a, n) at about half its cost: each cross pair a_i a_j,
    i < j, is formed once and doubled, then the diagonal a_(k/2)**2 added."""
    if not a:
        return []
    size = min(n, 2 * len(a) - 2) + 1
    la = _nonzero_length(a, n)
    ra = a[la - 1::-1] if la else []
    out = []
    for k in range(min(size, 2 * la - 1)):
        lo = k - la + 1 if k >= la else 0
        hi = (k + 1) >> 1
        s = 2 * sum(map(_imul, a[lo:hi], ra[la - 1 - k + lo:la - 1 - k + hi]))
        out.append(s if k & 1 else s + a[k >> 1] * a[k >> 1])
    return out + [0] * (size - len(out))


def _add_lists(a: list[int], b: list[int]) -> list[int]:
    """Elementwise sum of two sequences, the shorter one padded with zeros."""
    if len(a) < len(b):
        a, b = b, a
    return list(map(_iadd, a, b)) + a[len(b):]


def int_mul(ctx: RoundingContext, f: IntBall, g: IntBall, n: int) -> IntBall:
    """Product of two integer balls to degree n, at scale f.scale + g.scale.

    Midpoints are the exact product to degree n and rad the exact bound
    ||f_P|| rad_g + rad_f (||g_P|| + rad_g) of the rounding parts' terms,
    at any degree.  Midpoint mass of degree > N is provably high-order and
    goes to v_high, as do products of a polynomial part (rounding part
    included) with a high part; anything touching an error part lands in
    v_err, which stays an exact 0 when neither has one.  Those tail bounds
    are rounded upward.
    """
    return _int_product(ctx, f, g, n, _conv(f.mid, g.mid, n))


def int_sqr(ctx: RoundingContext, f: IntBall, n: int) -> IntBall:
    """int_mul(ctx, f, f, n), its midpoints squared by :func:`_sqr`."""
    return _int_product(ctx, f, f, n, _sqr(f.mid, n))


def _int_product(ctx: RoundingContext, f: IntBall, g: IntBall, n: int,
                 mid: list[int]) -> IntBall:
    """The ball of :func:`int_mul` from the exact product ``mid`` of f's
    and g's midpoints to degree n: its rad, spill and tails."""
    mf, mg = list(map(abs, f.mid)), list(map(abs, g.mid))
    nf, ng = sum(mf), sum(mg)
    rad = nf * g.rad + f.rad * (ng + g.rad)
    # spill: sum of mf[i] mg[j] over i + j > N, from suffix sums of mg
    tail, suffix = 0, [0] * (len(mg) + 1)
    for j in range(len(mg) - 1, -1, -1):
        tail += mg[j]
        suffix[j] = tail
    spill = sum(m * suffix[n - i + 1] for i, m in enumerate(mf) if n - i + 1 < len(mg))
    pf, pg = ctx.scaled_up(nf + f.rad, f.scale), ctx.scaled_up(ng + g.rad, g.scale)
    v_high = ctx.scaled_up(spill, f.scale + g.scale)
    v_high = ctx.add_up(v_high, ctx.mul_up(pf, g.v_high))
    v_high = ctx.add_up(v_high, ctx.mul_up(f.v_high, pg))
    v_high = ctx.add_up(v_high, ctx.mul_up(f.v_high, g.v_high))
    v_err = ctx.add_up(ctx.mul_up(f.v_err, ctx.add_up(ctx.add_up(pg, g.v_high), g.v_err)),
                       ctx.mul_up(g.v_err, ctx.add_up(pf, f.v_high))) if f.v_err or g.v_err else _D0
    return IntBall(mid if any(mid) else [], rad, f.scale + g.scale, v_high, v_err)


def int_add(ctx: RoundingContext, f: IntBall, g: IntBall) -> IntBall:
    """Exact sum of two integer balls, at the finer of their scales."""
    s = max(f.scale, g.scale)
    uf, ug = 10 ** (s - f.scale), 10 ** (s - g.scale)
    mid = _add_lists(f.mid if uf == 1 else [x * uf for x in f.mid],
                     g.mid if ug == 1 else [x * ug for x in g.mid])
    return IntBall(mid, f.rad * uf + g.rad * ug, s, ctx.add_up(f.v_high, g.v_high),
                   ctx.add_up(f.v_err, g.v_err))


def _cut(ctx: RoundingContext, b: IntBall, n: int) -> int:
    """Digits b drops when rounded as a degree-n ball: it keeps precision +
    digits(n+1) digits on its largest coefficient, the digits of n+1
    keeping a kernel's sum of n+1 roundings below one unit in the last
    working digit (a zero ball counts as 1).  0 or less: b keeps every
    digit."""
    top = max(max(map(abs, b.mid), default=0), b.rad)
    # Decimal, not str(): str() of an int stops at sys.get_int_max_str_digits()
    exponent = Decimal(top).adjusted() - b.scale if top else 0
    return b.scale - (ctx.precision + len(str(n + 1)) - exponent)


def int_outward(ctx: RoundingContext, b: IntBall, n: int) -> IntBall:
    """b rounded outward to the scale :func:`_cut` gives it: each midpoint
    is floored, and rad grows by the sum of their remainders, the l1 norm
    of what flooring moved, then rounds up."""
    cut = _cut(ctx, b, n)
    if cut <= 0:
        return b
    unit = 10 ** cut
    qr = [divmod(m, unit) for m in b.mid]
    return IntBall([q for q, _ in qr], -(-(b.rad + sum(rem for _, rem in qr)) // unit),
                   b.scale - cut, b.v_high, b.v_err)


def mul(ctx: RoundingContext, f: FunctionBall, g: FunctionBall) -> FunctionBall:
    """Product ball: Cauchy product to degree N, l1 spill above N into v_high.

    The product runs exactly on the integer midpoint-radius form
    (:func:`int_mul`) and is rounded outward once.
    """
    _check_same_degree(f, g)
    n = f.truncation
    return FunctionBall.wrap(n, int_outward(ctx, int_mul(ctx, f, g, n), n))


def sqr(ctx: RoundingContext, f: FunctionBall) -> FunctionBall:
    """mul(ctx, f, f) through :func:`int_sqr`."""
    n = f.truncation
    return FunctionBall.wrap(n, int_outward(ctx, int_sqr(ctx, f, n), n))


# -- composition --------------------------------------------------------------

def _centred(ctx: RoundingContext, h: FunctionBall) -> FunctionBall:
    """h - c, exactly."""
    return sub(ctx, h, const_ball(h.truncation, _C))


def normalized_argument(ctx: RoundingContext, h: FunctionBall) -> FunctionBall:
    """The ball (h - c)/r used as composition argument."""
    return scale(ctx, ctx.idiv(IONE, interval(_R)), _centred(ctx, h))


def theta(ctx: RoundingContext, h: FunctionBall) -> Decimal:
    """Upper bound of ||(h - c)/r||, the composition contraction factor."""
    return ctx.div_up(norm_upper(ctx, _centred(ctx, h)), _R)


def _derivative(ctx: RoundingContext, f: FunctionBall) -> FunctionBall:
    """The derivative of f's midpoint polynomial in the same basis,
    d/dz e_k = (k/r) e_{k-1}: coefficient k - 1 is k mid[k] / r, the
    k mid[k] exact and the division rounded outward once.  f's rounding
    part is the caller's, as its tails are."""
    ks = IntBall([k * m for k, m in enumerate(f.mid)][1:], 0, f.scale, _D0, _D0)
    return scale(ctx, ctx.idiv(IONE, interval(_R)), FunctionBall.wrap(f.truncation, ks))


def _sup_k_theta(ctx: RoundingContext, th: Decimal, n: int) -> Decimal:
    """Upper bound of sup_{k>n} k*theta**(k-1) for 0 <= theta < 1."""
    head = ctx.mul_up(Decimal(n + 1), ctx.pow_up(th, n))
    if ctx.mul_up(Decimal(n + 2), th) <= Decimal(n + 1):
        # terms k*theta**(k-1) are nonincreasing from k = n+1 on
        return head
    one_minus = ctx.sub_dn(_D1, th)
    denom = ctx.mul_dn(one_minus, one_minus)
    return ctx.div_up(head, denom)


def _dots(vec: list[int], rows) -> list[int]:
    """The dot product of vec with every row; 0 for an all-zero row (the
    rows of an affine argument's table above its baby powers' degrees)."""
    return [sum(map(_imul, vec, row)) if any(row) else 0 for row in rows] if vec else []


#: degrees above the truncation that every power, every block and the
#: Horner accumulator of a composition carry exactly, so the high part of a
#: composition keeps the cancellations between powers; for the fixed point
#: at N=20 and N=80 the v_high of G(Q(G(a**2 X))) is within 0.1% of its
#: limit at 8 (and 50 times larger at 0)
_GUARD_DEGREES = 8

#: baby steps m of a composition: a power table holds u**0..u**m and runs
#: Horner in u**m.  contraction.HEAD_DEGREE is m - 1, so the baby powers are
#: also the column images of the frozen map's head.
BABY_STEPS = 21


@dataclass(frozen=True)
class PowerTable:
    """The baby powers u**0..u**(m-1) of a normalized argument
    u = (h - c)/r, m = min(N + 1, BABY_STEPS), and the giant step
    U = u**m when N >= m, held only in exact integer midpoint-radius form
    to degree D = N + _GUARD_DEGREES, with theta(h).

    Row j of ``mid`` holds midpoint j of every baby power, for j = 0..D,
    all at one scale 10**-scale; rad[k] is power k's rounding radius at
    that scale, v_spill[k] bounds its mass above D and v_err[k] is its
    error tail.  Composing f with h is
    Paterson-Stockmeyer evaluation (Paterson and Stockmeyer, SIAM J.
    Comput. 2, 1973): f splits into blocks B_i = sum_{j<m} f_{im+j} u**j,
    each one exact integer matrix-vector product rounded outward to
    degree D, and Horner in U, acc <- int_outward(acc U) + B_i, runs from
    the top block down to B_0, each B_i carrying its baby powers' radii
    and tails weighted by |f_j|, so a giant step multiplies operands of
    precision + digits(D+1) digits; the rows above N of the result go to
    v_high, f's own rounding part adds its rad, which composes to at most
    itself as theta <= 1, and the rest is rounded outward once.  That is
    m - 1 products to build the table (the even powers squares,
    :func:`int_sqr`) and ceil((N+1)/m) - 1 per composition, instead of
    the N - 1 of a table of every power.  Baby
    power k, cut at degree N, is the image of e_k (:meth:`power`), so a
    frozen map's head columns 0..K need K < BABY_STEPS.
    """

    theta_bound: Decimal
    scale: int
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

    def power(self, ctx: RoundingContext, k: int) -> IntBall:
        """Baby power u**k, k < min(N + 1, BABY_STEPS), in integer form to
        degree N at the table's scale, its mass above N in v_high: the
        image of e_k."""
        m, n = len(self.rad), self.truncation
        if not 0 <= k < m:
            raise IndexBeyondTruncation(f"power {k} not in the baby powers 0..{m - 1}")
        mid, s = [row[k] for row in self.mid], self.scale
        guard = sum(map(abs, mid[n + 1:]))
        mid = mid[:n + 1]
        return IntBall(mid if any(mid) else [], self.rad[k], s,
                       ctx.add_up(self.v_spill[k], ctx.scaled_up(guard, s)), self.v_err[k])

    def _require(self, strict: bool):
        th = self.theta_bound
        if th > 1 or (strict and th >= 1):
            raise CompositionContractFailure(
                f"composition argument has theta = {th} (strict={strict})")

    def _block(self, ctx: RoundingContext, fm: list[int], sf: int) -> IntBall:
        """sum_j fm[j] u**j over the baby powers to degree D, exactly, at
        scale 10**-(sf + scale) for fm at 10**-sf, with the baby powers'
        radii and tails weighted by |fm[j]|."""
        v_high = v_err = _D0
        mags = list(map(abs, fm))
        for k, m in enumerate(mags):
            if m and (self.v_spill[k] or self.v_err[k]):
                mk = ctx.scaled_up(m, sf)
                v_high = ctx.add_up(v_high, ctx.mul_up(mk, self.v_spill[k]))
                v_err = ctx.add_up(v_err, ctx.mul_up(mk, self.v_err[k]))
        return IntBall(_dots(fm, self.mid), sum(map(_imul, mags, self.rad)),
                       sf + self.scale, v_high, v_err)

    def _polynomial(self, ctx: RoundingContext, p: FunctionBall) -> FunctionBall:
        """Enclosure of p_P o h over every member of the argument, for the
        polynomial part of p (its tails are not read), rounded outward to
        the scale int_outward gives a degree-N ball first: the midpoints
        through the blocks, the rounding part as its rad, since
        ||d o h|| <= ||d|| for theta(h) <= 1."""
        n = self.truncation
        p = int_outward(ctx, p, n)
        fm, sf, m, d = p.mid, p.scale, len(self.rad), len(self.mid) - 1
        acc = None
        for i in reversed(range(0, max(len(fm), 1), m)):
            block = int_outward(ctx, self._block(ctx, fm[i:i + m], sf), d)
            acc = block if acc is None else int_add(ctx, self._giant_step(ctx, acc), block)
        guard = ctx.scaled_up(sum(map(abs, acc.mid[n + 1:])), acc.scale)
        out = IntBall(acc.mid[:n + 1], acc.rad, acc.scale, ctx.add_up(guard, acc.v_high), acc.v_err)
        out = int_add(ctx, out, IntBall([], p.rad, p.scale, _D0, _D0))
        return FunctionBall.wrap(n, int_outward(ctx, out, n))

    def compose(self, ctx: RoundingContext, f: FunctionBall) -> FunctionBall:
        """Enclosure of f o h.

        Requires theta(h) <= 1, strictly below 1 when f carries tail mass.
        The high tail of f contributes v_high * theta**(N+1) and the error
        tail of f contributes v_err, both into the result's error bound;
        f's rounding part keeps its rad (:meth:`_polynomial`).
        """
        if f.truncation != self.truncation:
            raise DomainMismatch("composed ball and power table differ in degree")
        self._require(strict=f.v_high > 0 or f.v_err > 0)
        out = self._polynomial(ctx, f)
        tail = f.v_err
        if f.v_high > 0:
            th = self.theta_bound
            tail = ctx.add_up(tail, ctx.mul_up(f.v_high, ctx.pow_up(th, f.truncation + 1)))
        return inflate(ctx, out, tail)

    def compose_derivative(self, ctx: RoundingContext, f: FunctionBall) -> FunctionBall:
        """Enclosure of f' o h; requires theta(h) < 1 strictly.

        Tail mass of f is differentiated through the majorants
        sup_{k>N} k theta**(k-1) for the high part and
        sum_{k>=1} k theta**(k-1) = (1-theta)**-2 for the error part and
        the rounding part, each divided by r; the rounding part's bound
        goes to rad, the tails' to v_err.
        """
        if f.truncation != self.truncation:
            raise DomainMismatch("composed ball and power table differ in degree")
        self._require(strict=True)
        out = self._polynomial(ctx, _derivative(ctx, f))
        th = self.theta_bound
        tail = _D0
        if f.v_high > 0:
            tail = ctx.mul_up(f.v_high, _sup_k_theta(ctx, th, f.truncation))
        if f.v_err > 0 or f.rad:
            one_minus = ctx.sub_dn(_D1, th)
            geo = ctx.div_up(_D1, ctx.mul_dn(one_minus, one_minus))
            tail = ctx.add_up(tail, ctx.mul_up(f.v_err, geo))
            rad = ctx.div_up(ctx.mul_up(ctx.scaled_up(f.rad, f.scale), geo), _R)
            out = replace(out, rad=out.rad + ceil_at(rad, out.scale))
        if tail > 0:
            tail = ctx.div_up(tail, _R)
        return inflate(ctx, out, tail)


def power_table(ctx: RoundingContext, h: FunctionBall) -> PowerTable:
    """Power table of the normalized argument of h.

    u**k, for k = 2..min(N, BABY_STEPS), is the exact integer square of
    u**(k/2) for even k (:func:`int_sqr`) and the product of u**(k-1) and
    u for odd k, to degree N + _GUARD_DEGREES, rounded outward once
    (:func:`int_outward`) to keep precision + digits(N+1) digits on its
    largest coefficient.  The baby powers are then lifted exactly to the
    finest of their scales, which the table holds, radii with them.
    """
    n = h.truncation
    d = n + _GUARD_DEGREES
    last = min(n, BABY_STEPS)
    u = normalized_argument(ctx, h)
    powers = [IntBall([1], 0, 0, _D0, _D0), u][:last + 1]
    for k in range(2, last + 1):
        p = int_sqr(ctx, powers[k // 2], d) if k % 2 == 0 else int_mul(ctx, powers[-1], u, d)
        powers.append(int_outward(ctx, p, d))
    baby = powers[:BABY_STEPS]
    top = max(p.scale for p in baby)
    units = [10 ** (top - p.scale) for p in baby]
    mid = tuple(zip(*([x * unit for x in _padded(p.mid, d)] for p, unit in zip(baby, units))))
    return PowerTable(theta(ctx, h), top, mid, tuple(p.rad * unit for p, unit in zip(baby, units)),
                      tuple(p.v_high for p in baby), tuple(p.v_err for p in baby),
                      powers[BABY_STEPS] if last == BABY_STEPS else None)


def compose(ctx: RoundingContext, f: FunctionBall, h: FunctionBall) -> FunctionBall:
    """Enclosure of f o h through the power table of h (see :meth:`PowerTable.compose`)."""
    _check_same_degree(f, h)
    return power_table(ctx, h).compose(ctx, f)


def compose_derivative(ctx: RoundingContext, f: FunctionBall, h: FunctionBall) -> FunctionBall:
    """Enclosure of f' o h through the power table of h
    (see :meth:`PowerTable.compose_derivative`)."""
    _check_same_degree(f, h)
    return power_table(ctx, h).compose_derivative(ctx, f)


# -- pointwise evaluation -------------------------------------------------------

def _outward(lo: int, hi: int, unit: int) -> tuple[int, int]:
    """[lo, hi] / unit rounded outward to integers: lo floors, hi ceils."""
    return lo // unit, -(-hi // unit)


class PointRead:
    """z as read by :meth:`PointEvaluator.read`: its box at scale
    10**-point_scale, d2 = sup |z - c|**2 over it, and the normalized
    argument u, formed on first use and shared by every evaluator with the
    same point scale."""

    __slots__ = ("box", "d2", "u")

    def __init__(self, box, d2):
        self.box, self.d2, self.u = box, d2, None


@dataclass(frozen=True)
class PointEvaluator:
    """A ball held for pointwise evaluation in exact integer box form.

    coeffs[k] is the interval (lo, hi) of coefficient k and dcoeffs[k] that
    of (k+1) f_{k+1} / r, the coefficients of f_P', both at scale
    10**-scale and rounded outward.  Points, values and derivatives are
    integer boxes (re_lo, re_hi, im_lo, im_hi) at scale 10**-point_scale,
    where the disc's center and radius are exact integers; a decimal
    Rectangle becomes one through :meth:`RoundingContext.to_box`, which is
    exact for every working-precision endpoint above 10**-arg_scale in
    magnitude, arg_scale = precision + digits(N+1), and goes back through
    :meth:`RoundingContext.box_rectangle`.  A box is read once
    (:meth:`read`); :meth:`in_disc`, :meth:`value` and :meth:`derivative`
    share that read, as does every evaluator with the same point_scale.
    The normalized argument u = (z - c)/r is rounded outward to
    2**-arg_bits, 2**arg_bits >= 10**arg_scale, so interval Horner runs on
    boxes with exact products and one shift per end and step back to
    10**-scale, scale <= point_scale; its result is multiplied exactly by
    ``lift`` = 10**(point_scale - scale).  The tail pad ``tail`` bounds
    v_high + v_err + rad at the point scale: each rounded up there,
    exactly.  Every member is real on
    the real axis: at a real point Horner runs on real boxes and the pad
    widens the real part only; at a non-real point the tails may move both
    parts, and both are padded.
    """

    scale: int
    coeffs: tuple
    dcoeffs: tuple
    arg_bits: int
    point_scale: int
    center: int
    radius: int
    lift: int
    tail: int

    def read(self, box) -> PointRead:
        """The box z at scale 10**-point_scale with sup |z - c|**2 over it:
        its farthest corner."""
        rl, rh, il, ih = box
        re, im = max(self.center - rl, rh - self.center), max(-il, ih)
        return PointRead(box, re * re + im * im)

    def in_disc(self, p: PointRead, strict: bool = False) -> bool:
        """Whether the box read as p lies in the closed disc (the open one if
        strict): the exact comparison of its d2 with r**2."""
        r2 = self.radius * self.radius
        return p.d2 < r2 if strict else p.d2 <= r2

    def _argument(self, p: PointRead) -> tuple[int, int, int, int]:
        """u = (z - c)/r at scale 2**-arg_bits, rounded outward, for z read
        as p in the closed disc."""
        if p.u is None:
            if p.d2 > self.radius * self.radius:
                raise PointOutsideDomain(f"|z - {_C}| may exceed {_R} at "
                                         f"{box_text(p.box, self.point_scale)}")
            rl, rh, il, ih = p.box
            bits, c, r = self.arg_bits, self.center, self.radius
            p.u = (*_outward((rl - c) << bits, (rh - c) << bits, r),
                   *_outward(il << bits, ih << bits, r))
        return p.u

    def _horner(self, coeffs, u) -> tuple[int, int, int, int]:
        """Box Horner: acc <- acc u + c_k, each product exact, its lower end
        floored and its upper end ceiled back to 10**-scale by a shift.  A
        product [a, b] [c, d] picks its ends by sign: for c >= 0, a*c or a*d
        and b*d or b*c; mirrored for d <= 0; min/max pairs when c < 0 < d.
        The coefficients are real, so at a real u the imaginary part stays
        0 and Horner runs on the real axis, one loop per sign of u."""
        ul, uh, vl, vh = u
        bits = self.arg_bits
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
                rl, rh = ((pl - sh) >> bits) + cl, -((sl - ph) >> bits) + ch
                il, ih = (ql + tl) >> bits, -(-(qh + th) >> bits)
            return rl, rh, il, ih
        if ul >= 0:
            for cl, ch in rest:
                rl, rh = ((rl * (ul if rl >= 0 else uh) >> bits) + cl,
                          -(-rh * (uh if rh >= 0 else ul) >> bits) + ch)
        elif uh <= 0:
            for cl, ch in rest:
                rl, rh = ((rh * (ul if rh >= 0 else uh) >> bits) + cl,
                          -(-rl * (uh if rl >= 0 else ul) >> bits) + ch)
        else:
            for cl, ch in rest:
                rl, rh = ((min(rl * uh, rh * ul) >> bits) + cl,
                          -(-max(rl * ul, rh * uh) >> bits) + ch)
        return rl, rh, 0, 0

    def _widen(self, acc, pad: int, real: bool) -> tuple[int, int, int, int]:
        """acc lifted exactly to the point scale and widened by +-pad, in the
        real part only at a real point."""
        lift = self.lift
        rl, rh, il, ih = acc
        ipad = 0 if real else pad
        return rl * lift - pad, rh * lift + pad, il * lift - ipad, ih * lift + ipad

    def value(self, p: PointRead) -> tuple[int, int, int, int]:
        """Box enclosing f(z) over every member of f, for the read p of a
        point z in the closed disc."""
        return self._widen(self._horner(self.coeffs, self._argument(p)), self.tail,
                           not (p.box[2] or p.box[3]))

    def derivative(self, p: PointRead) -> tuple[int, int, int, int]:
        """Box enclosing f'(z) for the read p of z; needs |z - c| strictly
        below r when f has tails, whose derivative is at most
        (v_high + v_err) (1 - |u|)**-2 / r.  With |u| <= root / R, root =
        ceil(sqrt(d2)) and R the radius at the point scale S, that is the
        pad ceil(tail R 10**S / (R - root)**2) at the point scale, exactly."""
        acc = self._horner(self.dcoeffs, self._argument(p))
        pad = 0
        if self.tail:
            root = isqrt(p.d2)
            root += root * root < p.d2
            gap = self.radius - root
            if gap <= 0:
                raise PointOutsideDomain("derivative tail bound needs |z - c| < r strictly")
            pad = -(-self.tail * self.radius * 10 ** self.point_scale // (gap * gap))
        return self._widen(acc, pad, not (p.box[2] or p.box[3]))


def point_evaluator(ctx: RoundingContext, f: FunctionBall) -> PointEvaluator:
    """Integer form of f for evaluating it and its derivative at many points.

    Midpoints are rounded outward to the scale at which they keep
    precision + digits(N+1) digits on the largest one (the scale
    int_outward rounds to, or the point scale if that is coarser), and the
    rounding part joins the tails in the pad; the
    derivative coefficients (k+1) f_{k+1} / r are formed from those
    integers and rounded outward once.  Arguments carry arg_bits >=
    (precision + digits(N+1)) log2(10) bits after the point, as |u| <= 1.
    """
    n = f.truncation
    arg_scale = ctx.precision + len(str(n + 1))
    point_scale = max(2 * arg_scale, -_C.as_tuple().exponent, -_R.as_tuple().exponent)
    s = min(f.scale - _cut(ctx, f, n), point_scale)
    lift, unit = 10 ** max(s - f.scale, 0), 10 ** max(f.scale - s, 0)
    coeffs = tuple(_outward(m * lift, m * lift, unit) for m in _padded(f.mid, n))
    center, radius = STANDARD_DISC.at(point_scale)
    # k f_k / r at scale 10**-s is k f_k 10**point_scale / radius there
    dcoeffs = tuple(_outward(lo * k * 10 ** point_scale, hi * k * 10 ** point_scale, radius)
                    for k, (lo, hi) in enumerate(coeffs[1:], 1))
    return PointEvaluator(s, coeffs, dcoeffs or ((0, 0),), (10 ** arg_scale).bit_length(),
                          point_scale, center, radius, 10 ** (point_scale - s),
                          ceil_at(f.v_high, point_scale) + ceil_at(f.v_err, point_scale)
                          + -(-f.rad * 10 ** point_scale // 10 ** f.scale))


def evaluate(ctx: RoundingContext, f: FunctionBall, z: Rectangle) -> Rectangle:
    """Enclosure of f(z) over every member of f, for z in the closed disc
    (see :meth:`PointEvaluator.value`)."""
    ev = point_evaluator(ctx, f)
    s = ev.point_scale
    return ctx.box_rectangle(ev.value(ev.read(ctx.to_box(z, s))), s)


# -- coefficients ---------------------------------------------------------------

def coefficient(ctx: RoundingContext, f: FunctionBall, k: int) -> Rectangle:
    """Rectangle containing coefficient k of every member (rounding and
    error parts included); its imaginary part is 0, as every member's is."""
    if k > f.truncation or k < 0:
        raise IndexBeyondTruncation(f"coefficient {k} beyond truncation {f.truncation}")
    m, r = _padded(f.mid, k)[k], f.rad
    s = max(f.scale, -f.v_err.as_tuple().exponent)
    e = floor_at(f.v_err, s)     # exact at this scale
    lift = 10 ** (s - f.scale)
    return Rectangle(Interval(ctx.scaled_dn((m - r) * lift - e, s),
                              ctx.scaled_up((m + r) * lift + e, s)), IZERO)


def inflate(ctx: RoundingContext, f: FunctionBall, rho) -> FunctionBall:
    """Widen the ball by rho in the error bound (closed l1 ball of radius
    rho); rho must be a finite number."""
    rho = finite_decimal(rho, "inflation radius")
    if rho < 0:
        raise ConfigError("inflation radius must be nonnegative")
    return replace(f, v_err=ctx.add_up(f.v_err, rho))


# -- serialization --------------------------------------------------------------

_BALL_HEADER = "renormcert-ball v1"

#: the most digits a coefficient endpoint read from a file may have before
#: or after the point.  A ball is held at the scale of its finest endpoint,
#: so one endpoint of 10**-k makes every coefficient a k-digit integer.
#: The bound is far above the precision of any run (P = 106 at N = 160).
MAX_ENDPOINT_DIGITS = 10_000


def endpoint_decimal(text: str, what: str) -> Decimal:
    """The endpoint written in ``text``, read from outside input: a finite
    number with at most MAX_ENDPOINT_DIGITS digits before and after the
    point, or ConfigError naming ``what``."""
    x = finite_decimal(text, what)
    if x and max(x.adjusted(), -x.as_tuple().exponent) > MAX_ENDPOINT_DIGITS:
        raise ConfigError(f"{what} {x} has more than {MAX_ENDPOINT_DIGITS} digits")
    return x


def serialize_ball(f: FunctionBall) -> str:
    """Text form with exact decimal endpoint strings (imaginary columns 0):
    each coefficient the point interval of its midpoint, and rad, if any,
    added exactly to v_err.  A ball with rad = 0 round-trips bit-exactly."""
    lines = [
        _BALL_HEADER,
        f"center {_C}",
        f"radius {_R}",
        f"truncation {f.truncation}",
        f"v_high {f.v_high}",
        f"v_err {EXACT.add(f.v_err, exact_decimal(f.rad, f.scale)) if f.rad else f.v_err}",
    ]
    lines += [f"coeff {c} {c} 0 0" for c in (exact_decimal(m, f.scale)
                                             for m in _padded(f.mid, f.truncation))]
    return "\n".join(lines) + "\n"


def deserialize_ball(text: str) -> FunctionBall:
    """The ball written by :func:`serialize_ball`, coefficient intervals
    read as their midpoints with rad the sum of their half-widths
    (:func:`_exact`).  Text read from outside
    is checked: a missing field, a malformed line or number, a non-finite
    or misordered endpoint, an endpoint beyond MAX_ENDPOINT_DIGITS digits,
    a coefficient count that does not match the truncation, a non-real
    coefficient and a center or radius other than the standard disc's
    each raise ConfigError."""
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
            a, b = (endpoint_decimal(x, "coeff endpoint") for x in ends[:2])
            c, d = (finite_decimal(x, "coeff endpoint") for x in ends[2:])
            if c or d:
                raise ConfigError(f"coefficient {len(coeffs)} is not real: {ln!r}")
            coeffs.append(Interval(a, b))
        else:
            fields[key] = rest
    missing = [k for k in ("center", "radius", "truncation", "v_high", "v_err")
               if k not in fields]
    if missing:
        raise ConfigError(f"missing field(s): {', '.join(missing)}")
    value = {k: finite_decimal(fields[k], k) for k in ("center", "radius", "v_high", "v_err")}
    if (value["center"], value["radius"]) != (_C, _R):
        raise ConfigError(f"ball on D({value['center']}, {value['radius']}), "
                          f"every ball lives on {STANDARD_DISC}")
    n = finite_decimal(fields["truncation"], "truncation")
    if len(coeffs) != n + 1:
        raise ConfigError("coefficient count does not match truncation")
    return _exact(int(n), coeffs, value["v_high"], value["v_err"])


def ball_checksum(f: FunctionBall) -> str:
    return hashlib.sha256(serialize_ball(f).encode()).hexdigest()
