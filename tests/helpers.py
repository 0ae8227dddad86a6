"""Shared test utilities: reference digits, random sampling, member oracles."""

from __future__ import annotations

import dataclasses
import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np

from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import contraction as ct
from renormcert import operators as op
from renormcert import pipeline as pl
from renormcert.errors import ContainmentFailure, PointOutsideDomain
from renormcert.rounding import (EXACT, IZERO, Interval, Rectangle, RoundingContext, box_mul,
                                 box_sqr, exact_decimal, interval, rectangle)

# Published high-precision reference values for the universal constants
# (first 60 fractional/significant digits; used as prefix oracles).
_C, _R = fb.STANDARD_DISC.center, fb.STANDARD_DISC.radius

REF_A = "-0.399535280523134489857580468633693719433544280466952727517073"
REF_ALPHA = "-2.50290787509589282228390287321821578638127137672714997733619"
REF_DELTA = "4.66920160910299067185320382046620161725818557747576863274565"
REF_GAMMA = "6.61903651081792804532380890514746660143644298809101198088905"

#: degree -> certified digit counts the pipeline reaches at desk (N=20,
#: P=30), N=40 (P=40) and N=80 (P=60),
#: pinned as lower bounds so that no change can cost a digit unnoticed
MIN_DIGITS = {
    20: {"a": 11, "alpha": 10, "delta": 7, "gamma": 8},
    40: {"a": 24, "alpha": 24, "delta": 21, "gamma": 20},
    80: {"a": 49, "alpha": 49, "delta": 46, "gamma": 45},
}


def assert_min_digits(report: dict, degree: int) -> None:
    """Every certified digit count of a pipeline report reaches its pin."""
    counts = {name: report["digits"][name]["count"] for name in MIN_DIGITS[degree]}
    assert all(counts[name] >= pin for name, pin in MIN_DIGITS[degree].items()), counts


def digit_match_count(text: str, reference: str) -> int:
    """Number of leading significant digits of ``text`` matching ``reference``."""
    def canon(s):
        s = s.lstrip("+-").replace(".", "").lstrip("0")
        return s
    if (text.strip().startswith("-")) != (reference.strip().startswith("-")):
        return 0
    a, b = canon(text), canon(reference)
    n = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        n += 1
    return n


def float_matrix(m) -> np.ndarray:
    """A Decimal matrix rounded to float64, for numpy as the spectrum oracle."""
    return np.array([[float(x) for x in row] for row in m], dtype=float)


def decimals(ints, scale: int, width: int | None = None) -> list[Decimal]:
    """Integers at the scale 10**-scale as exact Decimals, zero-padded to
    ``width`` entries."""
    out = [Decimal(x).scaleb(-scale, EXACT) for x in ints]
    return out + [Decimal(0)] * ((width or 0) - len(out))


def matrix(apply, width: int):
    """Rows of the width x width head of a linear map: column k is apply(e_k)
    for the unit vector e_k of length ``width``, cut to ``width`` entries."""
    cols = []
    for k in range(width):
        e = [Decimal(0)] * width
        e[k] = Decimal(1)
        cols.append(apply(e)[:width])
    return ax._rows(cols)


def t_apply(g, digits: int = 30) -> list[Decimal]:
    """T(G) truncated to the degree of g, in round-to-nearest arithmetic."""
    with decimal.localcontext(ax._context(digits)):
        return ax._MidShared(g).t()


def dt_matrix(g, digits: int = 30) -> list[list[Decimal]]:
    """Rows of the truncated derivative of T at g; column k is DT(g) e_k."""
    with decimal.localcontext(ax._context(digits)):
        shared = ax._MidShared(g)
        return matrix(lambda v: shared.apply(1, v), len(g))


def l_matrix(g, digits: int = 30) -> list[list[Decimal]]:
    """Rows of the truncated noise-scaling operator L(g)."""
    with decimal.localcontext(ax._context(digits)):
        shared = ax._MidShared(g)
        return matrix(lambda v: shared.apply(2, v), len(g))


def jacobian_probe(shared, kind: str, x=None):
    """v -> DF v at the midpoint shared evaluations, for the residual F of
    the problem kind: T(g) - g, or M_p x - phi(x)**p x with lambda =
    phi(x) = x[0], whose derivative is M_p - lambda**p I - p lambda**(p-1)
    x e_0^T (reference for ``approx.jacobian_head``: ``matrix`` of it
    probes the unit vectors)."""
    if kind == "fixed_point":
        return lambda v: ax.p_sub(shared.apply(1, v), v)
    power = ct.KINDS.index(kind)
    lam_p = x[0] ** power
    dlam = Decimal(power) * x[0] ** (power - 1)

    def apply(v):
        out = ax.p_sub(shared.apply(power, v), ax.p_scale(lam_p, v))
        if v[0]:
            out = ax.p_sub(out, ax.p_scale(dlam * v[0], x))
        return out
    return apply


def poly_eval(f, x):
    """Evaluate a Decimal polynomial at a point by Horner in the scaled basis."""
    u = (x - ax._C) / ax._R
    acc = f[-1]
    for k in range(len(f) - 2, -1, -1):
        acc = acc * u + f[k]
    return acc


# -- Decimal midpoint oracle --------------------------------------------------
#
# The midpoint engine the integer one replaced: every product, composition
# and scalar in round-to-nearest Decimal at the context precision, every
# power u**0..u**N of both composition arguments built.  Run at twice the
# working precision it is the reference the integer engine is checked
# against.


def p_mul(f, g):
    """Product truncated to the degree of f."""
    n = len(f) - 1
    out = [Decimal(0)] * (n + 1)
    for i, fi in enumerate(f):
        if not fi:
            continue
        for j, gj in enumerate(g):
            k = i + j
            if k > n:
                break
            if gj:
                out[k] += fi * gj
    return out


def _normalize_arg(h):
    """(h - c)/r on the standard disc."""
    return [(h[0] - ax._C) / ax._R] + [x / ax._R for x in h[1:]]


def _table_compose(f, powers):
    out = [Decimal(0)] * len(powers[0])
    for fk, pk in zip(f, powers):
        if fk:
            out = [o + fk * p for o, p in zip(out, pk)]
    return out


def oracle_power_list(u, count: int, digits: int) -> list[list[Decimal]]:
    """u**0..u**(count-1), each truncated to the length of u, by Decimal
    ``p_mul`` at ``digits``."""
    with decimal.localcontext(ax._context(digits)):
        powers = [ax._pad([Decimal(1)], len(u)), list(u)]
        for _ in range(2, count):
            powers.append(p_mul(powers[-1], u))
        return powers[:count]


class DecimalShared:
    """Decimal midpoint shared evaluations at g, in the active context,
    with the interface of ``approx._MidShared`` (``t``, ``apply``) and the
    M_q head probed column by column."""

    def __init__(self, g):
        n, prec = len(g) - 1, decimal.getcontext().prec
        d2 = Decimal(2)
        a = g[0]
        self.a_inv = 1 / a
        self.a_inv2 = self.a_inv * self.a_inv
        a2 = a * a
        self.up1 = oracle_power_list(_normalize_arg(ax._pad([a2 * ax._C, a2 * ax._R], n + 1)),
                                     n + 1, prec)
        self.inner = _table_compose(g, self.up1)
        self.up2 = oracle_power_list(_normalize_arg(p_mul(self.inner, self.inner)), n + 1, prec)
        self.outer_comp = _table_compose(g, self.up2)
        gd = [Decimal(k + 1) * g[k + 1] / ax._R for k in range(n)] + [Decimal(0)]
        deriv_outer = _table_compose(gd, self.up2)
        deriv_inner = _table_compose(gd, self.up1)
        self.factor16 = p_mul(deriv_outer, ax.p_scale(d2 * self.a_inv, self.inner))
        self.factor16_sq = p_mul(self.factor16, self.factor16)
        x_poly = ax._pad([ax._C, ax._R], n + 1)
        self.factor17 = p_mul(p_mul(self.factor16, deriv_inner), ax.p_scale(d2 * a, x_poly))

    def t(self):
        return ax.p_scale(self.a_inv, self.outer_comp)

    def apply(self, q: int, v):
        scalar, factor = ((self.a_inv, self.factor16) if q == 1
                          else (self.a_inv2, self.factor16_sq))
        out = ax.p_add(ax.p_scale(scalar, _table_compose(v, self.up2)),
                       p_mul(factor, _table_compose(v, self.up1)))
        if q == 1 and v[0]:
            out = ax.p_add(out, ax.p_scale(-self.a_inv2 * v[0], self.outer_comp))
            out = ax.p_add(out, ax.p_scale(v[0], self.factor17))
        return out

    def head(self, q: int, width: int):
        return matrix(lambda v: self.apply(q, ax._pad(v, len(self.outer_comp))), width)


# -- dense bootstrap oracles --------------------------------------------------
#
# The full-size solvers the block-preconditioned ones replaced: every step
# builds and factors the whole (N+1) x (N+1) matrix.


def dense_newton_step(g, digits: int):
    """(sup |T(g) - g|, g + delta) with delta the exact Newton correction
    for T(g) = g, from the LU of the whole Jacobian DT(g) - I."""
    with decimal.localcontext(ax._context(digits)):
        shared = ax._MidShared(g)
        residual = ax.p_sub(shared.t(), g)
        lu, perm = ax.lu_factor(matrix(jacobian_probe(shared, "fixed_point"), len(g)))
        delta = ax._lu_solve_factored(lu, perm, [-r for r in residual])
        return ax._sup_norm(residual), ax.p_add(g, delta)


#: classical starting guess g(x) ~ 1 - 1.5276 x**2, written for G(X).
_SEED_QUADRATIC = Decimal("-1.5276")


def oracle_fixed_point(n: int, digits: int) -> list[Decimal]:
    """The fixed point by dense Newton steps from the classical quadratic
    seed G(X) = 1 - 1.5276 X through the degree ladder of
    ``approx_fixed_point``, every rung solved to its top rung's residual
    test (reference for it and for its tabulated seed)."""
    tol = Decimal(10) ** -(digits - 6)
    g = [1 + _SEED_QUADRATIC * ax._C, _SEED_QUADRATIC * ax._R]
    for stage_n in ax._stage_ladder(n):
        g = ax._pad(g, stage_n + 1)
        for _ in range(50):
            residual, stepped = dense_newton_step(g, digits)
            if residual < tol:
                break
            g = stepped
        else:
            raise AssertionError(f"dense Newton did not converge at degree {stage_n}")
    return g


def oracle_eigenpair(kind: str, g0, digits: int) -> list[Decimal]:
    """Eigenvector by shifted inverse iteration on the whole (N+1) x (N+1)
    M_p(g0) (reference for ``approx_eigenpair``)."""
    power = ct.KINDS.index(kind + "_eigen")
    with decimal.localcontext(ax._context(digits)):
        shared = ax._MidShared(g0)
        full = matrix(lambda v: shared.apply(power, v), len(g0))
        return ax._inverse_iteration(full, ax._EIGEN_HINT[kind] ** power, power, digits)


def rand_decimal(rng: random.Random, scale: float = 4.0) -> Decimal:
    """Random decimal with a few digits, roughly in [-scale, scale]."""
    return Decimal(rng.randint(-int(scale * 1000), int(scale * 1000))) / Decimal(1000)


def rand_interval(rng: random.Random, scale: float = 4.0) -> Interval:
    a, b = rand_decimal(rng, scale), rand_decimal(rng, scale)
    if a > b:
        a, b = b, a
    return Interval(a, b)


def rand_subinterval(rng: random.Random, x: Interval) -> Interval:
    w = x.hi - x.lo
    if w == 0:
        return x
    f1, f2 = sorted((rng.random(), rng.random()))
    lo = x.lo + w * Decimal(str(round(f1, 6)))
    hi = x.lo + w * Decimal(str(round(f2, 6)))
    if lo > hi:
        lo, hi = hi, lo
    return Interval(min(max(lo, x.lo), x.hi), min(max(hi, x.lo), x.hi))


def sample_point(rng: random.Random, x: Interval) -> Decimal:
    w = x.hi - x.lo
    return x.lo + w * Decimal(str(round(rng.random(), 8)))


_NEAR = decimal.Context(prec=120)


def midpoint(x: Interval) -> Decimal:
    """The midpoint of x, rounded to nearest at 120 digits."""
    return _NEAR.divide(_NEAR.add(x.lo, x.hi), 2)


# -- Decimal rectangle arithmetic, for the references --------------------------

def rsub(ctx: RoundingContext, x: Rectangle, y: Rectangle) -> Rectangle:
    return Rectangle(ctx.isub(x.re, y.re), ctx.isub(x.im, y.im))


def rsqr(ctx: RoundingContext, x: Rectangle) -> Rectangle:
    """x**2 as re**2 - im**2 + 2 re im i, each square a true interval square."""
    re = ctx.isub(ctx.isqr(x.re), ctx.isqr(x.im))
    return Rectangle(re, ctx.iscale(ctx.imul(x.re, x.im), Decimal(2)))


def abs2_upper(ctx: RoundingContext, x: Rectangle) -> Decimal:
    """Upper bound of |z|**2 over the rectangle."""
    return ctx.add_up(ctx.mul_up(x.re.mag, x.re.mag), ctx.mul_up(x.im.mag, x.im.mag))


# -- function-ball member sampling ------------------------------------------------


def interval_ball(coeffs, v_high=Decimal(0), v_err=Decimal(0),
                  n: int | None = None) -> fb.FunctionBall:
    """The ball of degree n (len(coeffs) - 1 by default) whose coefficient
    intervals are exactly ``coeffs``, with the given tails."""
    return fb._exact(len(coeffs) - 1 if n is None else n, list(coeffs),
                     Decimal(v_high), Decimal(v_err))


def with_tails(f: fb.FunctionBall, v_high, v_err) -> fb.FunctionBall:
    """f with its tail bounds replaced."""
    return dataclasses.replace(f, v_high=Decimal(v_high), v_err=Decimal(v_err))


def basis_ball(n: int, k: int) -> fb.FunctionBall:
    """The basis element e_k as an exact ball of degree n >= k."""
    return fb.FunctionBall([0] * k + [1], [], 0, Decimal(0), Decimal(0), n)


def identity_map(n: int, diagonal=1, tail_scalar=-1) -> ct.LinearMap:
    """diagonal times the identity on the head 0..n, tail_scalar above it."""
    return ct.LinearMap([[diagonal if i == j else 0 for j in range(n + 1)]
                         for i in range(n + 1)], tail_scalar)


def certificate_map(ctx: RoundingContext, problem: ct.Problem, x0: fb.FunctionBall, rho,
                    head: int | None = None):
    """(ball, images, map) of a certificate over B(x0, rho): the ball, the
    column images 0..K over it and the frozen map ``certify`` forms from
    them, K = min(N, HEAD_DEGREE) unless ``head`` is given."""
    ball = fb.inflate(ctx, x0, rho)
    k = min(x0.truncation, ct.HEAD_DEGREE) if head is None else head
    images = problem.column_images(ctx, ball, k)
    return ball, images, ct.frozen_map(ctx, problem, x0, images)


def bounds_with_map(ctx: RoundingContext, problem: ct.Problem, x0: fb.FunctionBall, rho,
                    lam: ct.LinearMap):
    """(epsilon, kappa columns, kappa tail) of a certificate over B(x0, rho)
    with the frozen map ``lam`` in place of the one ``certify`` forms: the
    bound functions ``certify`` calls, on the column images of lam's head."""
    ball = fb.inflate(ctx, x0, rho)
    images = problem.column_images(ctx, ball, lam.dim - 1)
    return (ct.bound_epsilon(ctx, problem, x0, lam)[0],
            ct.bound_kappa_columns(ctx, images, lam)[0],
            ct.bound_kappa_tail(ctx, problem, ball, lam)[0])


def _exact_norm(lam: ct.LinearMap) -> Decimal:
    """||Lam||: the larger of |tail scalar| and the largest column sum of
    |head|, exactly."""
    k1 = lam.dim
    with decimal.localcontext(EXACT):
        return max([abs(lam.tail_scalar)] + [sum(abs(lam.matrix[i][j]) for i in range(k1))
                                             for j in range(k1)])


def oracle_kappa_tail(ctx: RoundingContext, problem: ct.Problem, x_ball: fb.FunctionBall,
                      lam: ct.LinearMap) -> tuple[Decimal, Decimal]:
    """``bound_kappa_tail`` restated in exact Decimal arithmetic from the
    certificate's own map and the problem's tail factor -phi**p = q and
    channel norms and thetas, with K = lam.dim - 1 and t the tail scalar:

        (max over q of |1 - q t| + ||Lam|| S,  max_j |Lam_0j| S),
        S = sum over the channels of ||coeff|| theta**(K+1),

    ||Lam|| exact (:func:`_exact_norm`).  No step rounds, so the kernel's
    upward roundings may only raise it."""
    k1, t = lam.dim, lam.tail_scalar
    q = problem.tail_phi_factor(ctx, x_ball)
    norm = _exact_norm(lam)
    with decimal.localcontext(EXACT):
        head = max(abs(1 - end * t) for end in (q.lo, q.hi))
        tail_sum = sum(coeff * theta ** k1 for coeff, theta in problem.tail_channels(ctx, x_ball))
        return head + norm * tail_sum, max(abs(x) for x in lam.matrix[0]) * tail_sum


def oracle_kappa_columns(lam: ct.LinearMap,
                         images: list[fb.FunctionBall]) -> tuple[list[Decimal], Decimal]:
    """``bound_kappa_columns`` restated in exact Decimal arithmetic: for
    each column image b_k, the ball e_k - Lam b_k with the head rows acting
    on the midpoints and (through |Lam|) the radii of degrees 0..K and the
    tail scalar t on the degrees above, high part |t| v_high and error
    part ||Lam|| v_err; its norm, and the largest of its |coefficient 0|
    plus error part over k.  No step rounds."""
    k1, t = lam.dim, lam.tail_scalar
    norm = _exact_norm(lam)
    with decimal.localcontext(EXACT):
        bounds, row0 = [], Decimal(0)
        for k, b in enumerate(images):
            n = b.truncation
            mid, rad = ([Decimal(x).scaleb(-b.scale) for x in xs] + [Decimal(0)] * (n + 1 - len(xs))
                        for xs in (b.mid, b.rad))
            out_mid = [sum(row[j] * mid[j] for j in range(k1)) for row in lam.matrix]
            out_rad = [sum(abs(row[j]) * rad[j] for j in range(k1)) for row in lam.matrix]
            out_mid += [t * m for m in mid[k1:]]
            out_rad += [abs(t) * r for r in rad[k1:]]
            out_mid[k] -= 1
            mags = [abs(m) + r for m, r in zip(out_mid, out_rad)]
            v_err = norm * b.v_err
            bounds.append(sum(mags) + abs(t) * b.v_high + v_err)
            row0 = max(row0, mags[0] + v_err)
        return bounds, row0


def oracle_powers(u: list[Decimal], count: int, degree: int) -> list[list[Decimal]]:
    """u**0..u**(count-1) of a polynomial u, each exact to ``degree``
    (coefficients above it dropped)."""
    with decimal.localcontext(EXACT):
        powers = [[Decimal(1)] + [Decimal(0)] * degree]
        padded = (list(u) + [Decimal(0)] * degree)[:degree + 1]
        for _ in range(1, count):
            powers.append(p_mul(powers[-1], padded))
        return powers


def holds_polynomial(ball: fb.IntBall, coeffs: list[Decimal], n: int) -> bool:
    """Whether the exact coefficients, known to some degree at or above n,
    can be those of a member of the ball: coefficients 0..n in the ball's
    intervals widened by v_err, and the mass above n within v_high plus
    what v_err has left."""
    with decimal.localcontext(EXACT):
        spent = Decimal(0)
        for k in range(n + 1):
            m = Decimal(ball.mid[k]).scaleb(-ball.scale) if k < len(ball.mid) else Decimal(0)
            r = Decimal(ball.rad[k]).scaleb(-ball.scale) if k < len(ball.rad) else Decimal(0)
            spent += max(abs(coeffs[k] - m) - r, Decimal(0))
        high = sum(abs(c) for c in coeffs[n + 1:])
        return spent <= ball.v_err and high <= ball.v_high + (ball.v_err - spent)


def evaluate_derivative(ctx: RoundingContext, f: fb.FunctionBall, z: Rectangle) -> Rectangle:
    """Enclosure of f'(z) by ``balls.PointEvaluator.derivative``, in the
    Rectangle form of ``balls.evaluate``."""
    ev = fb.point_evaluator(ctx, f)
    s = ev.point_scale
    return ctx.box_rectangle(ev.derivative(ev.read(ctx.to_box(z, s))), s)


def rand_poly_ball(rng: random.Random, n: int, degree: int,
                   coeff_scale: float = 1.0) -> fb.FunctionBall:
    """Random exact polynomial ball of the given degree (<= n)."""
    coeffs = [rand_decimal(rng, coeff_scale) for _ in range(degree + 1)]
    return fb.ball_from_decimals(fb.STANDARD_DISC, coeffs, n)


def sample_member(rng: random.Random, ball: fb.FunctionBall,
                  tail_degrees: int = 4) -> dict[int, Decimal]:
    """A concrete member function: polynomial coefficients inside the
    rectangles plus random tail mass below the v_high / v_err budgets.
    Returned as a degree -> coefficient map (real functions only)."""
    member: dict[int, Decimal] = {}
    for k, ck in enumerate(ball.coeffs):
        member[k] = sample_point(rng, ck.re)
    n = ball.truncation
    if ball.v_high > 0:
        budget = ball.v_high * Decimal(str(round(rng.random(), 6)))
        degrees = rng.sample(range(n + 1, n + 1 + tail_degrees + 3), tail_degrees)
        for d in degrees:
            part = budget * Decimal(str(round(rng.random(), 6))) / tail_degrees
            member[d] = member.get(d, Decimal(0)) + (part if rng.random() < 0.5 else -part)
    if ball.v_err > 0:
        budget = ball.v_err * Decimal(str(round(rng.random(), 6)))
        degrees = rng.sample(range(0, n + 1 + tail_degrees), tail_degrees)
        for d in degrees:
            part = budget * Decimal(str(round(rng.random(), 6))) / tail_degrees
            member[d] = member.get(d, Decimal(0)) + (part if rng.random() < 0.5 else -part)
    return member


def eval_member(member: dict[int, Decimal], z: Decimal, digits: int) -> Decimal:
    """Evaluate a member at a real point in round-to-nearest arithmetic."""
    with decimal.localcontext(decimal.Context(prec=digits)):
        u = (z - _C) / _R
        top = max(member)
        acc = Decimal(0)
        for k in range(top, -1, -1):
            acc = acc * u + member.get(k, Decimal(0))
        return acc


def eval_member_derivative(member: dict[int, Decimal], z: Decimal, digits: int) -> Decimal:
    with decimal.localcontext(decimal.Context(prec=digits)):
        deriv = {k - 1: Decimal(k) * c / _R for k, c in member.items() if k > 0}
        if not deriv:
            return Decimal(0)
        u = (z - _C) / _R
        top = max(deriv)
        acc = Decimal(0)
        for k in range(top, -1, -1):
            acc = acc * u + deriv.get(k, Decimal(0))
        return acc


def member_product(a: dict[int, Decimal], b: dict[int, Decimal],
                   digits: int) -> dict[int, Decimal]:
    with decimal.localcontext(decimal.Context(prec=digits)):
        out: dict[int, Decimal] = {}
        for i, ai in a.items():
            for j, bj in b.items():
                out[i + j] = out.get(i + j, Decimal(0)) + ai * bj
        return out


def domain_points(rng: random.Random, count: int) -> list[Decimal]:
    """Random real points of the closed domain interval."""
    return [sample_point(rng, Interval(_C - _R, _C + _R)) for _ in range(count)]


# -- Decimal interval reference kernels -----------------------------------------
#
# The coefficient loops the integer kernels replaced, kept as differential
# oracles: every product and sum is an outward-rounded Decimal interval op
# on the exact coefficient intervals of the ``coeffs`` view, and every
# result is built back exactly (``interval_ball``).


def _reals(f: fb.FunctionBall) -> list[Interval]:
    return [c.re for c in f.coeffs]


def oracle_add(ctx: RoundingContext, f: fb.FunctionBall, g: fb.FunctionBall) -> fb.FunctionBall:
    """Sum ball by interval sums (reference for ``balls.add``)."""
    return interval_ball([ctx.iadd(a, b) for a, b in zip(_reals(f), _reals(g))],
                         ctx.add_up(f.v_high, g.v_high), ctx.add_up(f.v_err, g.v_err))


def oracle_sub(ctx: RoundingContext, f: fb.FunctionBall, g: fb.FunctionBall) -> fb.FunctionBall:
    """Difference ball by interval differences (reference for ``balls.sub``)."""
    return interval_ball([ctx.isub(a, b) for a, b in zip(_reals(f), _reals(g))],
                         ctx.add_up(f.v_high, g.v_high), ctx.add_up(f.v_err, g.v_err))


def oracle_negate(ctx: RoundingContext, f: fb.FunctionBall) -> fb.FunctionBall:
    """Negated ball (reference for ``balls.negate``)."""
    return interval_ball([ctx.ineg(c) for c in _reals(f)], f.v_high, f.v_err)


def oracle_scale(ctx: RoundingContext, s: Interval, f: fb.FunctionBall) -> fb.FunctionBall:
    """f times the real interval s by interval products (reference for
    ``balls.scale``)."""
    m = s.mag
    return interval_ball([ctx.imul(s, c) for c in _reals(f)],
                         ctx.mul_up(f.v_high, m), ctx.mul_up(f.v_err, m))


def oracle_normalized_argument(ctx: RoundingContext, h: fb.FunctionBall) -> fb.FunctionBall:
    """(h - c)/r by interval operations (reference for ``balls.normalized_argument``)."""
    inv = ctx.idiv(interval(1), interval(_R))
    coeffs = _reals(h)
    shifted = [ctx.isub(coeffs[0], interval(_C))] + coeffs[1:]
    return interval_ball([ctx.imul(x, inv) for x in shifted],
                         ctx.mul_up(h.v_high, inv.hi), ctx.mul_up(h.v_err, inv.hi))


def oracle_derivative_coeffs(ctx: RoundingContext, f: fb.FunctionBall) -> list[Interval]:
    """Coefficients of f_P' in the same basis, d/dz e_k = (k/r) e_{k-1}, by
    interval operations (reference for the coefficients ``balls._derivative``
    forms)."""
    r, coeffs = interval(_R), _reals(f)
    out = [ctx.imul(coeffs[k], ctx.idiv(interval(k), r)) for k in range(1, f.truncation + 1)]
    return out or [IZERO]


def oracle_mul(ctx: RoundingContext, f: fb.FunctionBall, g: fb.FunctionBall) -> fb.FunctionBall:
    """Product ball by interval Cauchy product (reference for ``balls.mul``)."""
    out, v_high, v_err = _oracle_product(ctx, (_reals(f), f.v_high, f.v_err),
                                         (_reals(g), g.v_high, g.v_err), f.truncation)
    return interval_ball(out, v_high, v_err)


def _oracle_product(ctx: RoundingContext, f, g, n: int):
    """The product of two balls given as (coefficient intervals, v_high,
    v_err), in that form, to degree n."""
    (fc, fh, fe), (gc, gh, ge) = f, g
    out = [IZERO] * (n + 1)
    mf = [c.mag for c in fc]
    mg = [c.mag for c in gc]
    spill = Decimal(0)
    for i, fi in enumerate(fc):
        if mf[i] == 0:
            continue
        for j, gj in enumerate(gc):
            if mg[j] == 0:
                continue
            k = i + j
            if k <= n:
                out[k] = ctx.iadd(out[k], ctx.imul(fi, gj))
            else:
                spill = ctx.add_up(spill, ctx.mul_up(mf[i], mg[j]))
    pf = Decimal(0)
    for m in mf:
        pf = ctx.add_up(pf, m)
    pg = Decimal(0)
    for m in mg:
        pg = ctx.add_up(pg, m)
    v_high = spill
    v_high = ctx.add_up(v_high, ctx.mul_up(pf, gh))
    v_high = ctx.add_up(v_high, ctx.mul_up(fh, pg))
    v_high = ctx.add_up(v_high, ctx.mul_up(fh, gh))
    v_err = ctx.mul_up(fe, ctx.add_up(ctx.add_up(pg, gh), ge))
    v_err = ctx.add_up(v_err, ctx.mul_up(ge, ctx.add_up(pf, fh)))
    return out, v_high, v_err


def oracle_radius_conv(a: list[int], b: list[int], n: int) -> list[int]:
    """Exact Cauchy product of two nonnegative integer sequences to degree n
    by the schoolbook double loop (reference for ``balls._radius_conv``)."""
    out = [0] * min(n + 1, max(len(a) + len(b) - 1, 0))
    for i, x in enumerate(a[:n + 1]):
        for j, y in enumerate(b[:n + 1 - i]):
            out[i + j] += x * y
    return out


def radius_rounding_excess(a: list[int], b: list[int], n: int, bits: int) -> list[int]:
    """Bound of what rounding a and b up to ``bits``-bit mantissas adds to
    each coefficient of their product to degree n: per term a_i b_j, one
    unit 2**s_a of a's mantissa times b_j rounded up, plus a_i times one
    unit 2**s_b, s being the shift that the largest entry of the sequence
    cut to degree n needs."""
    ua, ub = (1 << max(max(x[:n + 1], default=0).bit_length() - bits, 0) for x in (a, b))
    out = [0] * min(n + 1, max(len(a) + len(b) - 1, 0))
    for i, x in enumerate(a[:n + 1]):
        for j, y in enumerate(b[:n + 1 - i]):
            if x and y:
                out[i + j] += ua * (y + ub) + x * ub
    return out


def oracle_apply_lambda(ctx: RoundingContext, lam, f: fb.FunctionBall) -> fb.FunctionBall:
    """Frozen block map applied by interval dot products (reference for
    ``apply_lambda``): the head rows on coefficients 0..K = lam.dim - 1 and
    the tail scalar on every coefficient above K."""
    from renormcert.contraction import lambda_norm_upper

    n, dim, fc = f.truncation, lam.dim, _reals(f)
    coeffs = []
    for i in range(dim):
        row = lam.matrix[i]
        acc = IZERO
        for k in range(dim):
            if row[k] and fc[k].mag != 0:
                acc = ctx.iadd(acc, ctx.iscale(fc[k], row[k]))
        coeffs.append(acc)
    coeffs += [ctx.iscale(fc[i], lam.tail_scalar) for i in range(dim, n + 1)]
    v_high = ctx.mul_up(f.v_high, lam.tail_scalar.copy_abs())
    v_err = ctx.mul_up(f.v_err, lambda_norm_upper(ctx, lam))
    return interval_ball(coeffs, v_high, v_err)


def oracle_lambda_residual(ctx: RoundingContext, lam) -> Decimal:
    """Column-sum bound of I - B M by interval dot products, B the midpoint
    approximate inverse (reference for ``verify_lambda_invertible``)."""
    from renormcert.approx import mat_inv

    n = lam.dim
    approx_inv = mat_inv([list(row) for row in lam.matrix], ctx.precision)
    bound = Decimal(0)
    for j in range(n):
        col_sum = Decimal(0)
        for i in range(n):
            acc = interval(1 if i == j else 0)
            row = approx_inv[i]
            for k in range(n):
                if row[k] and lam.matrix[k][j]:
                    acc = ctx.isub(acc, ctx.imul(interval(row[k]), interval(lam.matrix[k][j])))
            col_sum = ctx.add_up(col_sum, acc.mag)
        bound = max(bound, col_sum)
    return bound


def _oracle_horner(ctx: RoundingContext, coeffs, u: fb.FunctionBall) -> fb.FunctionBall:
    """Evaluate a polynomial with interval coefficients at the ball u."""
    n, arg = u.truncation, (_reals(u), u.v_high, u.v_err)
    acc = ([coeffs[-1]] + [IZERO] * n, Decimal(0), Decimal(0))
    for k in range(len(coeffs) - 2, -1, -1):
        out, v_high, v_err = _oracle_product(ctx, acc, arg, n)
        out[0] = ctx.iadd(out[0], coeffs[k])
        acc = (out, v_high, v_err)
    return interval_ball(*acc)


def _oracle_argument(ctx: RoundingContext, f: fb.FunctionBall, h: fb.FunctionBall,
                     strict: bool):
    from renormcert.errors import CompositionContractFailure

    th = fb.theta(ctx, h)
    if th > 1 or (strict and th >= 1):
        raise CompositionContractFailure(
            f"composition argument has theta = {th} (strict={strict})")
    return th, oracle_normalized_argument(ctx, h)


def _oracle_with_error(ctx, out: fb.FunctionBall, tail: Decimal) -> fb.FunctionBall:
    if tail > 0:
        out = with_tails(out, out.v_high, ctx.add_up(out.v_err, tail))
    return out


def oracle_compose(ctx: RoundingContext, f: fb.FunctionBall,
                   h: fb.FunctionBall) -> fb.FunctionBall:
    """f o h by Horner evaluation in Decimal ball arithmetic (reference for
    ``balls.compose``): same contract and the same tail rule."""
    th, u = _oracle_argument(ctx, f, h, strict=f.v_high > 0 or f.v_err > 0)
    out = _oracle_horner(ctx, _reals(f), u)
    tail = f.v_err
    if f.v_high > 0:
        tail = ctx.add_up(tail, ctx.mul_up(f.v_high, ctx.pow_up(th, f.truncation + 1)))
    return _oracle_with_error(ctx, out, tail)


def oracle_compose_derivative(ctx: RoundingContext, f: fb.FunctionBall,
                              h: fb.FunctionBall) -> fb.FunctionBall:
    """f' o h by Horner evaluation in Decimal ball arithmetic (reference for
    ``balls.compose_derivative``): same contract and the same tail rule."""
    th, u = _oracle_argument(ctx, f, h, strict=True)
    out = _oracle_horner(ctx, oracle_derivative_coeffs(ctx, f), u)
    tail = Decimal(0)
    if f.v_high > 0:
        tail = ctx.mul_up(f.v_high, fb._sup_k_theta(ctx, th, f.truncation))
    if f.v_err > 0:
        one_minus = ctx.sub_dn(Decimal(1), th)
        geo = ctx.div_up(Decimal(1), ctx.mul_dn(one_minus, one_minus))
        tail = ctx.add_up(tail, ctx.mul_up(f.v_err, geo))
    if tail > 0:
        tail = ctx.div_up(tail, _R)
    return _oracle_with_error(ctx, out, tail)


def _oracle_eval_argument(ctx: RoundingContext, f: fb.FunctionBall, z: Rectangle) -> Rectangle:
    c, r = _C, _R
    w = rsub(ctx, z, rectangle(c))
    dist2 = abs2_upper(ctx, w)
    if dist2 > r * r:
        raise PointOutsideDomain(f"|z - {c}|**2 may exceed {r}**2 (bound {dist2})")
    inv = ctx.idiv(interval(1), interval(r))
    return Rectangle(ctx.imul(w.re, inv), ctx.imul(w.im, inv))


def _oracle_rect_horner(ctx: RoundingContext, coeffs, u: Rectangle) -> Rectangle:
    acc = Rectangle(coeffs[-1], IZERO)
    for k in range(len(coeffs) - 2, -1, -1):
        p = ctx.rmul(acc, u)
        acc = Rectangle(ctx.iadd(p.re, coeffs[k]), p.im)
    return acc


def _oracle_pad(ctx: RoundingContext, value: Rectangle, pad: Decimal, z: Rectangle) -> Rectangle:
    """value widened by the tails' +-pad: in the real part only at a real
    point z, where every member's value is real, and in both parts elsewhere."""
    if pad == 0:
        return value
    box = Interval(pad.copy_negate(), pad)
    im = value.im if z.im.lo == z.im.hi == 0 else ctx.iadd(value.im, box)
    return Rectangle(ctx.iadd(value.re, box), im)


def oracle_evaluate(ctx: RoundingContext, f: fb.FunctionBall, z: Rectangle) -> Rectangle:
    """f(z) by Horner in Decimal rectangle arithmetic (reference for
    ``balls.evaluate``): the same disc test and the same v_high + v_err
    pad."""
    u = _oracle_eval_argument(ctx, f, z)
    acc = _oracle_rect_horner(ctx, _reals(f), u)
    return _oracle_pad(ctx, acc, ctx.add_up(f.v_high, f.v_err), z)


def oracle_evaluate_derivative(ctx: RoundingContext, f: fb.FunctionBall,
                               z: Rectangle) -> Rectangle:
    """f'(z) by Horner in Decimal rectangle arithmetic (reference for
    ``evaluate_derivative``): the same tail rule, the tails'
    derivative (v_high + v_err) (1 - |u|)**-2 / r bounded at the
    evaluator's point scale 10**-S by ceil(tail R 10**S / (R - root)**2),
    with tail = v_high + v_err rounded up and R = r at that scale, root the
    ceiling of sup |z - c| there; formed in fractions from z's corners."""
    u = _oracle_eval_argument(ctx, f, z)
    acc = _oracle_rect_horner(ctx, oracle_derivative_coeffs(ctx, f), u)
    tail_mass = ctx.add_up(f.v_high, f.v_err)
    if tail_mass == 0:
        return acc
    s = fb.point_evaluator(ctx, f).point_scale
    unit = 10 ** s
    far_re = max(abs(Fraction(x) - Fraction(_C)) for x in (z.re.lo, z.re.hi))
    far_im = max(abs(Fraction(x)) for x in (z.im.lo, z.im.hi))
    d2 = math.ceil((far_re ** 2 + far_im ** 2) * unit ** 2)
    root = math.isqrt(d2)
    root += root * root < d2
    radius = int(Fraction(_R) * unit)
    if root >= radius:
        raise PointOutsideDomain("derivative tail bound needs |z - c| < r strictly")
    tail = math.ceil(Fraction(tail_mass) * unit)
    pad = math.ceil(Fraction(tail * radius * unit, (radius - root) ** 2))
    return _oracle_pad(ctx, acc, Decimal(f"{pad}E-{s}"), z)


# -- integer box Horner ------------------------------------------------------------

def imul_ends(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Exact endpoints of the interval product [a, b] [c, d]."""
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


def outward_ends(lo: int, hi: int, unit: int) -> tuple[int, int]:
    """[lo, hi] / unit rounded outward: lo floors, hi ceils."""
    return lo // unit, -(-hi // unit)


def sign_class(lo: int, hi: int) -> str:
    return "degenerate" if lo == hi else ">=0" if lo >= 0 else "<=0" if hi <= 0 else "straddles"


def per_step_horner(coeffs, u, unit: int, outward=outward_ends, seen: set | None = None):
    """Integer box Horner one product at a time (reference for
    ``balls.PointEvaluator._horner``): every interval product through
    imul_ends and every product rounded by ``outward`` back to the
    coefficients' scale, unit being 2**arg_bits.  ``seen`` collects the
    sign classes (of re u, or "complex", and of the accumulator's real part)
    met at each step."""
    ul, uh, vl, vh = u
    rl, rh = coeffs[-1]
    il = ih = 0
    for cl, ch in reversed(coeffs[:-1]):
        if seen is not None:
            seen.add(("complex" if vl or vh else sign_class(ul, uh), sign_class(rl, rh)))
        pl, ph = imul_ends(rl, rh, ul, uh)
        if vl or vh:
            ql, qh = imul_ends(rl, rh, vl, vh)
            if il or ih:
                sl, sh = imul_ends(il, ih, vl, vh)
                tl, th = imul_ends(il, ih, ul, uh)
                pl, ph, ql, qh = pl - sh, ph - sl, ql + tl, qh + th
            il, ih = outward(ql, qh, unit)
        rl, rh = outward(pl, ph, unit)
        rl, rh = rl + cl, rh + ch
    return rl, rh, il, ih


def recorded_reads(monkeypatch) -> list:
    """The boxes ``balls.PointEvaluator.read`` reads from now on, in order."""
    reads, read = [], fb.PointEvaluator.read

    def recorded(self, box):
        reads.append(box)
        return read(self, box)
    monkeypatch.setattr(fb.PointEvaluator, "read", recorded)
    return reads


def set_pool_rule(monkeypatch, cores: int, min_degree: int = 0) -> None:
    """Make the eigen bootstrap pool start from ``min_degree`` (any degree by
    default) with ``cores`` usable cores, whatever the machine has."""
    monkeypatch.setattr(pl, "POOL_MIN_DEGREE", min_degree)
    monkeypatch.setattr(pl, "_usable_cores", lambda: cores)


def powers_above_baby_steps(monkeypatch) -> None:
    """Let ``balls.PowerTable.power`` serve every k <= N, for the dense-map
    oracles (K = N) that bound the columns above the baby steps one by one;
    the certificates' heads need k < BABY_STEPS only.  u**k for
    k >= BABY_STEPS is e_k composed through the table."""
    power = fb.PowerTable.power

    def any_power(self, ctx, k):
        if k < len(self.mid[0]):
            return power(self, ctx, k)
        return self.compose(ctx, basis_ball(self.truncation, k))
    monkeypatch.setattr(fb.PowerTable, "power", any_power)


def oracle_domain_extension(ctx: RoundingContext, G: fb.FunctionBall, m: int):
    """The boundary check with every boundary box read and evaluated, no
    box taking its conjugate twin's images: (boundary, gamma1, gamma2,
    point_scale), or ContainmentFailure at the first offending box."""
    g = fb.point_evaluator(ctx, G)
    s = g.point_scale
    unit = 10 ** s
    a2 = box_sqr(g.value(g.read((g.center, g.center, 0, 0))), unit)
    boundary = op.boundary_cover(m, s)
    gamma1, gamma2 = [], []
    for idx, z in enumerate(boundary):
        w1 = g.read(box_mul(a2, z, unit))
        if not g.in_disc(w1, strict=True):
            raise ContainmentFailure("a**2 z", index=idx, equation=1)
        gamma1.append(w1.box)
        w2 = g.read(box_sqr(g.value(w1), unit))
        if not g.in_disc(w2, strict=True):
            raise ContainmentFailure("Q(G(a**2 z))", index=idx, equation=2)
        gamma2.append(w2.box)
    return boundary, gamma1, gamma2, s


def oracle_plot_covering(ctx: RoundingContext, figure: str, subdivisions: int,
                         balls: dict) -> list[tuple]:
    """The rows of ``pipeline.emit_plot_covering`` with every graph cell
    evaluated (a lowercase target squares each cell itself), every boundary
    box read (:func:`oracle_domain_extension`) and every row written
    through ``RoundingContext.box_rectangle``."""
    target, x_range, depth = pl.FIGURES[figure]
    if figure == "fig1":
        boundary, gamma1, gamma2, s = oracle_domain_extension(ctx, balls["G"], subdivisions)
        rows = []
        for label, boxes in (("boundary", boundary), ("gamma1", gamma1), ("gamma2", gamma2)):
            for box in boxes:
                rect = ctx.box_rectangle(box, s)
                rows.append((label, str(rect.re.lo), str(rect.re.hi),
                             str(rect.im.lo), str(rect.im.hi)))
        return rows
    extension = op.RecursiveExtension.build(ctx, balls["G"], balls.get("V"), balls.get("W"))
    s = extension.G.point_scale
    if x_range is None:
        lo, hi = pl._default_range(target, extension.G)
    else:
        lo, hi = ctx.to_int_ends(interval(*x_range), s)
    pts = op.grid_points(lo, hi, subdivisions)
    xs = [str(exact_decimal(x, s)) for x in pts]
    rows = []
    for j in range(subdivisions):
        y = ctx.box_rectangle(extension.evaluate_box(target, (pts[j], pts[j + 1], 0, 0), depth),
                              s).re
        rows.append((target, xs[j], xs[j + 1], str(y.lo), str(y.hi)))
    return rows
