"""Enclosures of analytic functions on a disc, with guaranteed-enclosure arithmetic.

A :class:`FunctionBall` represents a set of functions analytic on the open
disc D(c, r) and continuous on its closure, written in the scaled-monomial
basis e_k : z -> ((z - c)/r)**k with the l1 coefficient norm.  The set is

    f = f_P + f_H + f_E

where f_P is a polynomial of degree <= N whose basis coefficients lie in
the stored rectangles, f_H is any function supported strictly above degree
N with ||f_H|| <= v_high, and f_E is any function with ||f_E|| <= v_err.
Every operation returns a ball enclosing the exact image of every member.

Coefficient magnitudes are accounted with |re| + |im|, an upper bound of
the complex modulus that is exact for real coefficients and keeps the norm
submultiplicative without square roots.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from decimal import Decimal
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
    interval,
    rectangle,
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
    "coefficient",
    "inflate",
    "normalized_argument",
    "power_table",
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

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def is_polynomial(self) -> bool:
        return self.v_high == 0 and self.v_err == 0

    def __repr__(self):
        return (f"FunctionBall(N={self.truncation}, domain={self.domain}, "
                f"v_high={self.v_high}, v_err={self.v_err})")


def _check_same_space(f: FunctionBall, g: FunctionBall):
    if f.domain != g.domain:
        raise DomainMismatch(f"domains differ: {f.domain} vs {g.domain}")
    if f.truncation != g.truncation:
        raise DomainMismatch(f"truncation degrees differ: {f.truncation} vs {g.truncation}")


# -- constructors -----------------------------------------------------------

def zero_ball(domain: Disc, n: int) -> FunctionBall:
    zero = rectangle(0)
    return FunctionBall(domain, (zero,) * (n + 1), _D0, _D0)


def const_ball(domain: Disc, n: int, value) -> FunctionBall:
    v = value if isinstance(value, Rectangle) else rectangle(value)
    zero = rectangle(0)
    return FunctionBall(domain, (v,) + (zero,) * n, _D0, _D0)


def one_ball(domain: Disc, n: int) -> FunctionBall:
    return const_ball(domain, n, 1)


def basis_ball(domain: Disc, n: int, k: int) -> FunctionBall:
    """The basis element e_k as an exact ball (k <= n)."""
    if not 0 <= k <= n:
        raise IndexBeyondTruncation(f"basis index {k} not in 0..{n}")
    coeffs = [rectangle(0)] * (n + 1)
    coeffs[k] = rectangle(1)
    return FunctionBall(domain, tuple(coeffs), _D0, _D0)


def ball_from_decimals(domain: Disc, values, n: int | None = None) -> FunctionBall:
    """Exact polynomial ball from a sequence of representable coefficients."""
    coeffs = [rectangle(as_decimal(v)) for v in values]
    if n is not None:
        if len(coeffs) > n + 1:
            raise ConfigError("more coefficients than truncation allows")
        coeffs += [rectangle(0)] * (n + 1 - len(coeffs))
    return FunctionBall(domain, tuple(coeffs), _D0, _D0)


def affine_arg(ctx: RoundingContext, domain: Disc, n: int, s) -> FunctionBall:
    """The map X -> s*X as a ball: coefficients (s*c, s*r, 0, ...)."""
    if isinstance(s, Rectangle):
        sr = s
    elif isinstance(s, Interval):
        sr = Rectangle(s, IZERO)
    else:
        sr = rectangle(as_decimal(s))
    c0 = ctx.rscale(sr, domain.center)
    c1 = ctx.rscale(sr, domain.radius)
    coeffs = [c0, c1] + [rectangle(0)] * (n - 1)
    if n < 1:
        raise ConfigError("affine argument needs truncation degree >= 1")
    return FunctionBall(domain, tuple(coeffs), _D0, _D0)


# -- norm and linear structure ----------------------------------------------

def norm_upper(ctx: RoundingContext, f: FunctionBall) -> Decimal:
    """Upper bound of ||g|| over every member g of the ball."""
    total = _D0
    for ck in f.coeffs:
        total = ctx.add_up(total, ctx.mag1(ck))
    total = ctx.add_up(total, f.v_high)
    return ctx.add_up(total, f.v_err)


def add(ctx: RoundingContext, f: FunctionBall, g: FunctionBall) -> FunctionBall:
    _check_same_space(f, g)
    coeffs = tuple(ctx.radd(a, b) for a, b in zip(f.coeffs, g.coeffs))
    return FunctionBall(f.domain, coeffs,
                        ctx.add_up(f.v_high, g.v_high), ctx.add_up(f.v_err, g.v_err))


def sub(ctx: RoundingContext, f: FunctionBall, g: FunctionBall) -> FunctionBall:
    _check_same_space(f, g)
    coeffs = tuple(ctx.rsub(a, b) for a, b in zip(f.coeffs, g.coeffs))
    return FunctionBall(f.domain, coeffs,
                        ctx.add_up(f.v_high, g.v_high), ctx.add_up(f.v_err, g.v_err))


def negate(ctx: RoundingContext, f: FunctionBall) -> FunctionBall:
    return FunctionBall(f.domain, tuple(ctx.rneg(c) for c in f.coeffs), f.v_high, f.v_err)


def scale(ctx: RoundingContext, s, f: FunctionBall) -> FunctionBall:
    """Multiply the ball by a scalar (Rectangle, Interval, or exact value)."""
    if isinstance(s, Rectangle):
        sr = s
    elif isinstance(s, Interval):
        sr = Rectangle(s, IZERO)
    else:
        sr = rectangle(as_decimal(s))
    m = ctx.mag1(sr)
    coeffs = tuple(ctx.rmul(sr, c) for c in f.coeffs)
    return FunctionBall(f.domain, coeffs,
                        ctx.mul_up(f.v_high, m), ctx.mul_up(f.v_err, m))


def _bump_coeff0(ctx: RoundingContext, f: FunctionBall, value: Rectangle) -> FunctionBall:
    coeffs = (ctx.radd(f.coeffs[0], value),) + f.coeffs[1:]
    return FunctionBall(f.domain, coeffs, f.v_high, f.v_err)


# -- multiplication ----------------------------------------------------------

def _int_parts(ctx: RoundingContext, coeffs, n: int):
    """Integer form of the coefficients up to the last nonzero one:
    (re_mid, re_rad, im_mid, im_rad, S) at scale 10**-S, with an all-zero
    list stored as the empty list."""
    size = len(coeffs)
    while size and coeffs[size - 1].re.lo == coeffs[size - 1].re.hi == 0 \
            and coeffs[size - 1].is_real():
        size -= 1
    res = [c.re for c in coeffs[:size]]
    ims = [] if all(c.is_real() for c in coeffs[:size]) else [c.im for c in coeffs[:size]]
    s = ctx.ball_scale(n, res + ims)
    parts = ctx.to_midrad(res, s) + ctx.to_midrad(ims, s)
    return tuple(v if any(v) else [] for v in parts) + (s,)


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


def _add_into(acc: list[int], terms: list[int], sign: int = 1):
    for k, t in enumerate(terms):
        acc[k] += sign * t


def _product_radii(f_parts, g_parts, n: int) -> tuple[list[int], list[int]]:
    """Radii of the real and imaginary coefficients of the product of two
    integer balls, each given as (re_mid, re_rad, im_mid, im_rad).

    A product of real intervals (m, r)(m', r') has radius |m| r' + r (|m'| + r');
    the real part sums the terms of fm gm and fmi gmi, the imaginary part
    those of fm gmi and fmi gm."""
    fm, fr, fmi, fri = f_parts
    gm, gr, gmi, gri = g_parts
    fa, fai = list(map(abs, fm)), list(map(abs, fmi))
    gmag, gmagi = _add_lists(list(map(abs, gm)), gr), _add_lists(list(map(abs, gmi)), gri)
    re_rad, im_rad = [0] * (n + 1), [0] * (n + 1)
    for left, to_re, to_im in ((fa, gr, gri), (fai, gri, gr),
                               (fr, gmag, gmagi), (fri, gmagi, gmag)):
        _add_into(re_rad, _conv(left, to_re, n))
        _add_into(im_rad, _conv(left, to_im, n))
    return re_rad, im_rad


def _magnitudes(m, r, mi, ri) -> list[int]:
    """Upper bounds |re| + |im| of the coefficients of an integer ball."""
    return _add_lists(_add_lists(list(map(abs, m)), r), _add_lists(list(map(abs, mi)), ri))


def mul(ctx: RoundingContext, f: FunctionBall, g: FunctionBall) -> FunctionBall:
    """Product ball: Cauchy product to degree N, l1 spill above N into v_high.

    Polynomial-by-polynomial mass of degree > N is provably high-order and
    goes to v_high, as do polynomial-by-high products; anything touching an
    error part lands in v_err.  The coefficient product runs exactly on the
    integer midpoint-radius form of each factor (see ctx.ball_scale), so
    the only roundings are the outward conversions in and out.
    """
    _check_same_space(f, g)
    n = f.truncation
    fm, fr, fmi, fri, sf = _int_parts(ctx, f.coeffs, n)
    gm, gr, gmi, gri, sg = _int_parts(ctx, g.coeffs, n)
    re_mid, im_mid = [0] * (n + 1), [0] * (n + 1)
    _add_into(re_mid, _conv(fm, gm, n))
    _add_into(re_mid, _conv(fmi, gmi, n), -1)
    _add_into(im_mid, _conv(fm, gmi, n))
    _add_into(im_mid, _conv(fmi, gm, n))
    re_rad, im_rad = _product_radii((fm, fr, fmi, fri), (gm, gr, gmi, gri), n)
    coeffs_re = ctx.from_midrad(re_mid, re_rad, sf + sg)
    if any(im_mid) or any(im_rad):
        out = tuple(map(Rectangle, coeffs_re, ctx.from_midrad(im_mid, im_rad, sf + sg)))
    else:
        out = tuple(Rectangle(re, IZERO) for re in coeffs_re)

    mf, mg = _magnitudes(fm, fr, fmi, fri), _magnitudes(gm, gr, gmi, gri)
    # spill: sum of mf[i] mg[j] over i + j > N, from suffix sums of mg
    tail, suffix = 0, [0] * (len(mg) + 1)
    for j in range(len(mg) - 1, -1, -1):
        tail += mg[j]
        suffix[j] = tail
    spill = sum(m * suffix[n - i + 1] for i, m in enumerate(mf) if n - i + 1 < len(mg))
    pf, pg = ctx.scaled_up(sum(mf), sf), ctx.scaled_up(sum(mg), sg)
    v_high = ctx.scaled_up(spill, sf + sg)
    v_high = ctx.add_up(v_high, ctx.mul_up(pf, g.v_high))
    v_high = ctx.add_up(v_high, ctx.mul_up(f.v_high, pg))
    v_high = ctx.add_up(v_high, ctx.mul_up(f.v_high, g.v_high))
    v_err = ctx.mul_up(f.v_err, ctx.add_up(ctx.add_up(pg, g.v_high), g.v_err))
    v_err = ctx.add_up(v_err, ctx.mul_up(g.v_err, ctx.add_up(pf, f.v_high)))
    return FunctionBall(f.domain, out, v_high, v_err)


# -- composition --------------------------------------------------------------

def normalized_argument(ctx: RoundingContext, h: FunctionBall) -> FunctionBall:
    """The ball (h - c)/r used as composition argument."""
    c = h.domain.center
    inv = ctx.idiv(interval(1), interval(h.domain.radius))
    shifted = (ctx.rsub(h.coeffs[0], rectangle(c)),) + h.coeffs[1:]
    coeffs = tuple(ctx.rscale_i(ck, inv) for ck in shifted)
    vh = ctx.mul_up(h.v_high, inv.hi)
    ve = ctx.mul_up(h.v_err, inv.hi)
    return FunctionBall(h.domain, coeffs, vh, ve)


def theta(ctx: RoundingContext, h: FunctionBall) -> Decimal:
    """Upper bound of ||(h - c)/r||, the composition contraction factor."""
    c = h.domain.center
    total = ctx.mag1(ctx.rsub(h.coeffs[0], rectangle(c)))
    for ck in h.coeffs[1:]:
        total = ctx.add_up(total, ctx.mag1(ck))
    total = ctx.add_up(total, ctx.add_up(h.v_high, h.v_err))
    return ctx.div_up(total, h.domain.radius)


def _require_contraction(ctx, f, h, strict: bool):
    th = theta(ctx, h)
    if th > 1 or (strict and th >= 1):
        raise CompositionContractFailure(
            f"composition argument has theta = {th} (strict={strict})")
    return th


def _horner(ctx: RoundingContext, coeffs, u: FunctionBall) -> FunctionBall:
    """Evaluate a polynomial with rectangle coefficients at the ball u."""
    n = u.truncation
    acc = const_ball(u.domain, n, coeffs[-1])
    for k in range(len(coeffs) - 2, -1, -1):
        acc = mul(ctx, acc, u)
        acc = _bump_coeff0(ctx, acc, coeffs[k])
    return acc


def compose(ctx: RoundingContext, f: FunctionBall, h: FunctionBall) -> FunctionBall:
    """Enclosure of f o h.

    Requires theta(h) <= 1, strictly below 1 when f carries tail mass.  The
    polynomial part goes through Horner evaluation in ball arithmetic; the
    high tail of f contributes v_high * theta**(N+1) and the error tail of
    f contributes v_err, both into the result's error bound.
    """
    _check_same_space(f, h)
    strict = f.v_high > 0 or f.v_err > 0
    th = _require_contraction(ctx, f, h, strict)
    u = normalized_argument(ctx, h)
    out = _horner(ctx, f.coeffs, u)
    tail = f.v_err
    if f.v_high > 0:
        tail = ctx.add_up(tail, ctx.mul_up(f.v_high, ctx.pow_up(th, f.truncation + 1)))
    if tail > 0:
        out = FunctionBall(out.domain, out.coeffs, out.v_high, ctx.add_up(out.v_err, tail))
    return out


def _derivative_coeffs(ctx: RoundingContext, f: FunctionBall) -> list[Rectangle]:
    """Coefficients of f_P' in the same basis: d/dz e_k = (k/r) e_{k-1}."""
    r = f.domain.radius
    out = []
    for k in range(1, f.truncation + 1):
        factor = ctx.idiv(interval(k), interval(r))
        out.append(ctx.rscale_i(f.coeffs[k], factor))
    if not out:
        out.append(rectangle(0))
    return out


def _sup_k_theta(ctx: RoundingContext, th: Decimal, n: int) -> Decimal:
    """Upper bound of sup_{k>n} k*theta**(k-1) for 0 <= theta < 1."""
    head = ctx.mul_up(Decimal(n + 1), ctx.pow_up(th, n))
    if ctx.mul_up(Decimal(n + 2), th) <= Decimal(n + 1):
        # terms k*theta**(k-1) are nonincreasing from k = n+1 on
        return head
    one_minus = ctx.sub_dn(_D1, th)
    denom = ctx.mul_dn(one_minus, one_minus)
    return ctx.div_up(head, denom)


def compose_derivative(ctx: RoundingContext, f: FunctionBall, h: FunctionBall) -> FunctionBall:
    """Enclosure of f' o h; requires theta(h) < 1 strictly.

    Tail mass of f is differentiated through the majorants
    sup_{k>N} k theta**(k-1) for the high part and
    sum_{k>=1} k theta**(k-1) = (1-theta)**-2 for the error part,
    each divided by r.
    """
    _check_same_space(f, h)
    th = _require_contraction(ctx, f, h, strict=True)
    u = normalized_argument(ctx, h)
    out = _horner(ctx, _derivative_coeffs(ctx, f), u)
    tail = _D0
    if f.v_high > 0:
        tail = ctx.mul_up(f.v_high, _sup_k_theta(ctx, th, f.truncation))
    if f.v_err > 0:
        one_minus = ctx.sub_dn(_D1, th)
        geo = ctx.div_up(_D1, ctx.mul_dn(one_minus, one_minus))
        tail = ctx.add_up(tail, ctx.mul_up(f.v_err, geo))
    if tail > 0:
        tail = ctx.div_up(tail, f.domain.radius)
        out = FunctionBall(out.domain, out.coeffs, out.v_high, ctx.add_up(out.v_err, tail))
    return out


# -- evaluation and coefficients ----------------------------------------------

def _eval_argument(ctx: RoundingContext, f: FunctionBall, z: Rectangle) -> Rectangle:
    c, r = f.domain.center, f.domain.radius
    dist = ctx.rabs(ctx.rsub(z, rectangle(c)))
    if dist.hi > r:
        raise PointOutsideDomain(f"|z - {c}| may exceed {r} (bound {dist.hi})")
    inv = ctx.idiv(interval(1), interval(r))
    return ctx.rscale_i(ctx.rsub(z, rectangle(c)), inv)


def _pad_rectangle(ctx: RoundingContext, z: Rectangle, pad: Decimal) -> Rectangle:
    if pad == 0:
        return z
    box = Interval(pad.copy_negate(), pad)
    return Rectangle(ctx.iadd(z.re, box), ctx.iadd(z.im, box))


def evaluate(ctx: RoundingContext, f: FunctionBall, z: Rectangle) -> Rectangle:
    """Enclosure of f(z) over every member of f, for z in the closed disc."""
    u = _eval_argument(ctx, f, z)
    acc = f.coeffs[-1]
    for k in range(f.truncation - 1, -1, -1):
        acc = ctx.radd(ctx.rmul(acc, u), f.coeffs[k])
    return _pad_rectangle(ctx, acc, ctx.add_up(f.v_high, f.v_err))


def evaluate_derivative(ctx: RoundingContext, f: FunctionBall, z: Rectangle) -> Rectangle:
    """Enclosure of f'(z); needs |z - c| strictly below r when f has tails."""
    u = _eval_argument(ctx, f, z)
    dcoeffs = _derivative_coeffs(ctx, f)
    acc = dcoeffs[-1]
    for k in range(len(dcoeffs) - 2, -1, -1):
        acc = ctx.radd(ctx.rmul(acc, u), dcoeffs[k])
    tail_mass = ctx.add_up(f.v_high, f.v_err)
    if tail_mass == 0:
        return acc
    au = ctx.rabs(u).hi
    if au >= 1:
        raise PointOutsideDomain("derivative tail bound needs |z - c| < r strictly")
    one_minus = ctx.sub_dn(_D1, au)
    geo = ctx.div_up(_D1, ctx.mul_dn(one_minus, one_minus))
    pad = ctx.div_up(ctx.mul_up(tail_mass, geo), f.domain.radius)
    return _pad_rectangle(ctx, acc, pad)


def coefficient(ctx: RoundingContext, f: FunctionBall, k: int) -> Rectangle:
    """Rectangle containing coefficient k of every member (error part included)."""
    if k > f.truncation or k < 0:
        raise IndexBeyondTruncation(f"coefficient {k} beyond truncation {f.truncation}")
    return _pad_rectangle(ctx, f.coeffs[k], f.v_err)


def inflate(ctx: RoundingContext, f: FunctionBall, rho) -> FunctionBall:
    """Widen the ball by rho in the error bound (closed l1 ball of radius rho)."""
    rho = as_decimal(rho)
    if rho < 0:
        raise ConfigError("inflation radius must be nonnegative")
    return FunctionBall(f.domain, f.coeffs, f.v_high, ctx.add_up(f.v_err, rho))


# -- composition power tables --------------------------------------------------

@dataclass(frozen=True)
class PowerTable:
    """Powers u**0..u**N of a normalized argument, with its theta bound.

    compose(e_k, h) equals u**k exactly, so a table turns basis-column
    composition into a lookup and general composition into a linear pass.
    """

    powers: tuple[FunctionBall, ...]
    theta_bound: Decimal

    def compose(self, ctx: RoundingContext, f: FunctionBall) -> FunctionBall:
        """Same contract as :func:`compose`, reusing the tabulated powers."""
        strict = f.v_high > 0 or f.v_err > 0
        th = self.theta_bound
        if th > 1 or (strict and th >= 1):
            raise CompositionContractFailure(f"tabulated argument has theta = {th}")
        n = f.truncation
        out = zero_ball(f.domain, n)
        for k, ck in enumerate(f.coeffs):
            if ctx.mag1(ck) == 0:
                continue
            out = add(ctx, out, scale(ctx, ck, self.powers[k]))
        tail = f.v_err
        if f.v_high > 0:
            tail = ctx.add_up(tail, ctx.mul_up(f.v_high, ctx.pow_up(th, n + 1)))
        if tail > 0:
            out = FunctionBall(out.domain, out.coeffs, out.v_high, ctx.add_up(out.v_err, tail))
        return out


def power_table(ctx: RoundingContext, h: FunctionBall) -> PowerTable:
    th = theta(ctx, h)
    u = normalized_argument(ctx, h)
    n = h.truncation
    powers = [one_ball(h.domain, n), u]
    for _ in range(2, n + 1):
        powers.append(mul(ctx, powers[-1], u))
    return PowerTable(tuple(powers), th)


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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _BALL_HEADER:
        raise ConfigError("not a serialized function ball")
    fields = {}
    coeffs = []
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key == "coeff":
            a, b, c, d = rest.split()
            coeffs.append(Rectangle(Interval(Decimal(a), Decimal(b)),
                                    Interval(Decimal(c), Decimal(d))))
        else:
            fields[key] = rest
    domain = Disc(Decimal(fields["center"]), Decimal(fields["radius"]))
    n = int(fields["truncation"])
    if len(coeffs) != n + 1:
        raise ConfigError("coefficient count does not match truncation")
    return FunctionBall(domain, tuple(coeffs),
                        Decimal(fields["v_high"]), Decimal(fields["v_err"]))


def ball_checksum(f: FunctionBall) -> str:
    return hashlib.sha256(serialize_ball(f).encode()).hexdigest()
