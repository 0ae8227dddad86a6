"""Shared test utilities: reference digits, random sampling, member oracles."""

from __future__ import annotations

import decimal
import random
from decimal import Decimal

import numpy as np

from renormcert import approx as ax
from renormcert import balls as fb
from renormcert.errors import PointOutsideDomain
from renormcert.rounding import IZERO, Interval, Rectangle, RoundingContext, interval, rectangle

# Published high-precision reference values for the universal constants
# (first 60 fractional/significant digits; used as prefix oracles).
REF_A = "-0.399535280523134489857580468633693719433544280466952727517073"
REF_ALPHA = "-2.50290787509589282228390287321821578638127137672714997733619"
REF_DELTA = "4.66920160910299067185320382046620161725818557747576863274565"
REF_GAMMA = "6.61903651081792804532380890514746660143644298809101198088905"


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


def t_apply(g, digits: int = 30) -> list[Decimal]:
    """T(G) truncated to the degree of g, in round-to-nearest arithmetic."""
    with decimal.localcontext(ax._context(digits)):
        return ax._MidShared(g).t()


def dt_matrix(g, digits: int = 30) -> list[list[Decimal]]:
    """Rows of the truncated derivative of T at g; column k is DT(g) e_k."""
    with decimal.localcontext(ax._context(digits)):
        shared = ax._MidShared(g)
        return shared.matrix(lambda v: shared.apply(1, v))


def l_matrix(g, digits: int = 30) -> list[list[Decimal]]:
    """Rows of the truncated noise-scaling operator L(g)."""
    with decimal.localcontext(ax._context(digits)):
        shared = ax._MidShared(g)
        return shared.matrix(lambda v: shared.apply(2, v))


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


def contains_with_slack(outer: Interval, value: Decimal, slack: str = "0") -> bool:
    s = Decimal(slack)
    return outer.lo - s <= value <= outer.hi + s


# -- function-ball member sampling ------------------------------------------------


def rand_poly_ball(rng: random.Random, domain, n: int, degree: int,
                   coeff_scale: float = 1.0) -> fb.FunctionBall:
    """Random exact polynomial ball of the given degree (<= n)."""
    coeffs = [rand_decimal(rng, coeff_scale) for _ in range(degree + 1)]
    return fb.ball_from_decimals(domain, coeffs, n)


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


def eval_member(member: dict[int, Decimal], z: Decimal, domain, digits: int) -> Decimal:
    """Evaluate a member at a real point in round-to-nearest arithmetic."""
    with decimal.localcontext(decimal.Context(prec=digits)):
        u = (z - domain.center) / domain.radius
        top = max(member)
        acc = Decimal(0)
        for k in range(top, -1, -1):
            acc = acc * u + member.get(k, Decimal(0))
        return acc


def eval_member_derivative(member: dict[int, Decimal], z: Decimal, domain,
                           digits: int) -> Decimal:
    with decimal.localcontext(decimal.Context(prec=digits)):
        deriv = {k - 1: Decimal(k) * c / domain.radius for k, c in member.items() if k > 0}
        if not deriv:
            return Decimal(0)
        u = (z - domain.center) / domain.radius
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


def domain_points(rng: random.Random, domain, count: int) -> list[Decimal]:
    """Random real points of the closed domain interval."""
    lo = domain.center - domain.radius
    hi = domain.center + domain.radius
    return [sample_point(rng, Interval(lo, hi)) for _ in range(count)]


# -- Decimal interval reference kernels -----------------------------------------
#
# The coefficient loops the integer kernels replaced, kept as differential
# oracles: every product and sum is an outward-rounded Decimal interval op.
# They take real balls, as every ball is, and read the real parts.


def oracle_mul(ctx: RoundingContext, f: fb.FunctionBall, g: fb.FunctionBall) -> fb.FunctionBall:
    """Product ball by interval Cauchy product (reference for ``balls.mul``)."""
    n = f.truncation
    out = [IZERO] * (n + 1)
    mf = [c.re.mag for c in f.coeffs]
    mg = [c.re.mag for c in g.coeffs]
    spill = Decimal(0)
    for i, fi in enumerate(f.coeffs):
        if mf[i] == 0:
            continue
        for j, gj in enumerate(g.coeffs):
            if mg[j] == 0:
                continue
            k = i + j
            if k <= n:
                out[k] = ctx.iadd(out[k], ctx.imul(fi.re, gj.re))
            else:
                spill = ctx.add_up(spill, ctx.mul_up(mf[i], mg[j]))
    pf = Decimal(0)
    for m in mf:
        pf = ctx.add_up(pf, m)
    pg = Decimal(0)
    for m in mg:
        pg = ctx.add_up(pg, m)
    v_high = spill
    v_high = ctx.add_up(v_high, ctx.mul_up(pf, g.v_high))
    v_high = ctx.add_up(v_high, ctx.mul_up(f.v_high, pg))
    v_high = ctx.add_up(v_high, ctx.mul_up(f.v_high, g.v_high))
    v_err = ctx.mul_up(f.v_err, ctx.add_up(ctx.add_up(pg, g.v_high), g.v_err))
    v_err = ctx.add_up(v_err, ctx.mul_up(g.v_err, ctx.add_up(pf, f.v_high)))
    return _real_ball(f.domain, out, v_high, v_err)


def _real_ball(domain, coeffs, v_high, v_err) -> fb.FunctionBall:
    return fb.FunctionBall(domain, tuple(Rectangle(x, IZERO) for x in coeffs), v_high, v_err)


def oracle_apply_lambda(ctx: RoundingContext, lam, f: fb.FunctionBall) -> fb.FunctionBall:
    """Frozen block map applied by interval dot products (reference for
    ``apply_lambda``): the head rows on coefficients 0..K = lam.dim - 1 and
    the tail scalar on every coefficient above K."""
    from renormcert.contraction import lambda_norm_upper

    n, dim = f.truncation, lam.dim
    coeffs = []
    for i in range(dim):
        row = lam.matrix[i]
        acc = IZERO
        for k in range(dim):
            if row[k] and f.coeffs[k].re.mag != 0:
                acc = ctx.iadd(acc, ctx.iscale(f.coeffs[k].re, row[k]))
        coeffs.append(acc)
    coeffs += [ctx.iscale(f.coeffs[i].re, lam.tail_scalar) for i in range(dim, n + 1)]
    v_high = ctx.mul_up(f.v_high, lam.tail_scalar.copy_abs())
    v_err = ctx.mul_up(f.v_err, lambda_norm_upper(ctx, lam))
    return _real_ball(f.domain, coeffs, v_high, v_err)


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
    n = u.truncation
    acc = fb.const_ball(u.domain, n, coeffs[-1])
    for k in range(len(coeffs) - 2, -1, -1):
        acc = oracle_mul(ctx, acc, u)
        bumped = [ctx.iadd(acc.coeffs[0].re, coeffs[k])] + [c.re for c in acc.coeffs[1:]]
        acc = _real_ball(acc.domain, bumped, acc.v_high, acc.v_err)
    return acc


def _oracle_argument(ctx: RoundingContext, f: fb.FunctionBall, h: fb.FunctionBall,
                     strict: bool):
    from renormcert.errors import CompositionContractFailure

    th = fb.theta(ctx, h)
    if th > 1 or (strict and th >= 1):
        raise CompositionContractFailure(
            f"composition argument has theta = {th} (strict={strict})")
    return th, fb.normalized_argument(ctx, h)


def _oracle_with_error(ctx, out: fb.FunctionBall, tail: Decimal) -> fb.FunctionBall:
    if tail > 0:
        out = fb.FunctionBall(out.domain, out.coeffs, out.v_high, ctx.add_up(out.v_err, tail))
    return out


def oracle_compose(ctx: RoundingContext, f: fb.FunctionBall,
                   h: fb.FunctionBall) -> fb.FunctionBall:
    """f o h by Horner evaluation in Decimal ball arithmetic (reference for
    ``balls.compose``): same contract and the same tail rule."""
    th, u = _oracle_argument(ctx, f, h, strict=f.v_high > 0 or f.v_err > 0)
    out = _oracle_horner(ctx, [c.re for c in f.coeffs], u)
    tail = f.v_err
    if f.v_high > 0:
        tail = ctx.add_up(tail, ctx.mul_up(f.v_high, ctx.pow_up(th, f.truncation + 1)))
    return _oracle_with_error(ctx, out, tail)


def oracle_compose_derivative(ctx: RoundingContext, f: fb.FunctionBall,
                              h: fb.FunctionBall) -> fb.FunctionBall:
    """f' o h by Horner evaluation in Decimal ball arithmetic (reference for
    ``balls.compose_derivative``): same contract and the same tail rule."""
    th, u = _oracle_argument(ctx, f, h, strict=True)
    out = _oracle_horner(ctx, fb._derivative_coeffs(ctx, f), u)
    tail = Decimal(0)
    if f.v_high > 0:
        tail = ctx.mul_up(f.v_high, fb._sup_k_theta(ctx, th, f.truncation))
    if f.v_err > 0:
        one_minus = ctx.sub_dn(Decimal(1), th)
        geo = ctx.div_up(Decimal(1), ctx.mul_dn(one_minus, one_minus))
        tail = ctx.add_up(tail, ctx.mul_up(f.v_err, geo))
    if tail > 0:
        tail = ctx.div_up(tail, f.domain.radius)
    return _oracle_with_error(ctx, out, tail)


def _oracle_eval_argument(ctx: RoundingContext, f: fb.FunctionBall, z: Rectangle) -> Rectangle:
    c, r = f.domain.center, f.domain.radius
    dist = ctx.rabs(ctx.rsub(z, rectangle(c)))
    if dist.hi > r:
        raise PointOutsideDomain(f"|z - {c}| may exceed {r} (bound {dist.hi})")
    inv = ctx.idiv(interval(1), interval(r))
    w = ctx.rsub(z, rectangle(c))
    return Rectangle(ctx.imul(w.re, inv), ctx.imul(w.im, inv))


def _oracle_rect_horner(ctx: RoundingContext, coeffs, u: Rectangle) -> Rectangle:
    acc = Rectangle(coeffs[-1], IZERO)
    for k in range(len(coeffs) - 2, -1, -1):
        acc = ctx.radd(ctx.rmul(acc, u), Rectangle(coeffs[k], IZERO))
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
    ``balls.evaluate``): the same disc test, up to its square roots, and
    the same v_high + v_err pad."""
    u = _oracle_eval_argument(ctx, f, z)
    acc = _oracle_rect_horner(ctx, [c.re for c in f.coeffs], u)
    return _oracle_pad(ctx, acc, ctx.add_up(f.v_high, f.v_err), z)


def oracle_evaluate_derivative(ctx: RoundingContext, f: fb.FunctionBall,
                               z: Rectangle) -> Rectangle:
    """f'(z) by Horner in Decimal rectangle arithmetic (reference for
    ``balls.evaluate_derivative``): the same tail rule."""
    u = _oracle_eval_argument(ctx, f, z)
    acc = _oracle_rect_horner(ctx, fb._derivative_coeffs(ctx, f), u)
    tail_mass = ctx.add_up(f.v_high, f.v_err)
    if tail_mass == 0:
        return acc
    au = ctx.rabs(u).hi
    if au >= 1:
        raise PointOutsideDomain("derivative tail bound needs |z - c| < r strictly")
    one_minus = ctx.sub_dn(Decimal(1), au)
    geo = ctx.div_up(Decimal(1), ctx.mul_dn(one_minus, one_minus))
    pad = ctx.div_up(ctx.mul_up(tail_mass, geo), f.domain.radius)
    return _oracle_pad(ctx, acc, pad, z)
