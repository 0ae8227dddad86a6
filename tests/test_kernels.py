"""Differential tests of the integer midpoint-radius kernels against the
Decimal interval loops they replaced (kept in helpers as oracles).

Inputs are short decimals, so the oracles compute without rounding and give
the exact interval-arithmetic result.  A kernel result must contain it, and
may be wider only by what midpoint-radius arithmetic allows: the product of
the two radii per term, one unit of 10**-S per input coefficient (S being the
operand's integer scale) times the other factor's norm, and one outward
rounding per output endpoint.
"""

import decimal
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import oracle_apply_lambda, oracle_lambda_residual, oracle_mul
from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import contraction as ct
from renormcert.errors import SingularJacobian
from renormcert.rounding import IZERO, Interval, Rectangle, RoundingContext

P = 40
ctx = RoundingContext(P)
DOM = fb.STANDARD_DISC
EXACT = decimal.Context(prec=500)


def _short_interval(rng, scale_digits: int) -> Interval:
    mid = Decimal(rng.randint(-4000, 4000)).scaleb(-3 - scale_digits)
    if rng.random() < 0.3:
        return Interval(mid, mid)
    rad = Decimal(rng.randint(1, 99)).scaleb(-rng.randint(8, 12))
    return Interval(EXACT.subtract(mid, rad), EXACT.add(mid, rad))


def _rand_ball(rng, n: int, kind: str) -> fb.FunctionBall:
    """Random ball with short-decimal coefficients: real, complex with
    centred imaginary parts (as inflated balls carry), or fully complex."""
    coeffs = []
    for _ in range(n + 1):
        re = _short_interval(rng, rng.randint(0, 3))
        if kind == "real":
            im = IZERO
        elif kind == "centred":
            w = Decimal(rng.randint(0, 99)).scaleb(-rng.randint(9, 12))
            im = Interval(w.copy_negate(), w)
        else:
            im = _short_interval(rng, rng.randint(0, 3))
        coeffs.append(Rectangle(re, im))
    tails = [Decimal(rng.randint(0, 9)).scaleb(-rng.randint(3, 9)) for _ in range(2)]
    return fb.FunctionBall(DOM, tuple(coeffs), *tails)


def _width(x: Interval) -> Decimal:
    return EXACT.subtract(x.hi, x.lo)


def _ulp(x: Interval) -> Decimal:
    top = max(abs(x.lo), abs(x.hi))
    return Decimal(1).scaleb(top.adjusted() - P + 1) if top else Decimal(0)


def _mag1(c: Rectangle) -> Decimal:
    return EXACT.add(max(abs(c.re.lo), abs(c.re.hi)), max(abs(c.im.lo), abs(c.im.hi)))


def _rad1(c: Rectangle) -> Decimal:
    return EXACT.add(_width(c.re), _width(c.im)) / 2


def _unit(f: fb.FunctionBall) -> Decimal:
    """One unit of the integer scale the kernels use for f."""
    n = f.truncation
    return Decimal(1).scaleb(-ctx.ball_scale(n, [c.re for c in f.coeffs] + [c.im for c in f.coeffs]))


def _check_part(new: Interval, ref: Interval, slack: Decimal):
    mid = EXACT.add(ref.lo, ref.hi) / 2
    assert new.lo <= mid <= new.hi
    assert new.contains_interval(ref)
    assert _width(new) <= EXACT.add(_width(ref), slack), (new, ref, slack)


@pytest.mark.parametrize("n", [0, 1, 8, 40])
@pytest.mark.parametrize("kinds", [("real", "real"), ("centred", "real"),
                                   ("centred", "centred"), ("complex", "centred"),
                                   ("complex", "complex")])
def test_mul_matches_decimal_oracle(n, kinds):
    rng = random.Random(f"{n}-{kinds}")
    for _ in range(3 if n == 40 else 10):
        f, g = _rand_ball(rng, n, kinds[0]), _rand_ball(rng, n, kinds[1])
        new, ref = fb.mul(ctx, f, g), oracle_mul(ctx, f, g)
        norm_f = sum((_mag1(c) for c in f.coeffs), Decimal(0))
        norm_g = sum((_mag1(c) for c in g.coeffs), Decimal(0))
        inputs = 4 * (_unit(f) * norm_g + _unit(g) * norm_f)
        for k in range(n + 1):
            quad = sum((_rad1(f.coeffs[i]) * _rad1(g.coeffs[k - i]) for i in range(k + 1)),
                       Decimal(0))
            for part in ("re", "im"):
                a, b = getattr(new.coeffs[k], part), getattr(ref.coeffs[k], part)
                _check_part(a, b, 2 * quad + inputs + 2 * _ulp(a))
        for tail in ("v_high", "v_err"):
            a, b = getattr(new, tail), getattr(ref, tail)
            slack = inputs * (1 + norm_f + norm_g) + 4 * _ulp(Interval(b, b))
            assert b - slack <= a <= b + slack, (tail, a, b)


def _rand_map(rng, n: int) -> ct.LinearMap:
    rows = [[Decimal(rng.randint(-999, 999)).scaleb(-rng.randint(0, 4)) if rng.random() < 0.8
             else Decimal(0) for _ in range(n + 1)] for _ in range(n + 1)]
    return ct.LinearMap(rows, Decimal(rng.choice([-7, -3, 2, 9])).scaleb(-1))


@pytest.mark.parametrize("n", [0, 1, 8, 40])
@pytest.mark.parametrize("kind", ["real", "centred", "complex"])
def test_apply_lambda_matches_decimal_oracle(n, kind):
    rng = random.Random(f"lam-{n}-{kind}")
    for _ in range(3 if n == 40 else 8):
        lam, f = _rand_map(rng, n), _rand_ball(rng, n, kind)
        new, ref = ct.apply_lambda(ctx, lam, f), oracle_apply_lambda(ctx, lam, f)
        for i in range(n + 1):
            row_norm = sum((abs(x) for x in lam.matrix[i]), Decimal(0))
            for part in ("re", "im"):
                a, b = getattr(new.coeffs[i], part), getattr(ref.coeffs[i], part)
                _check_part(a, b, 4 * row_norm * _unit(f) + 2 * _ulp(a))
        assert (new.v_high, new.v_err) == (ref.v_high, ref.v_err)


def test_apply_lambda_reuses_integer_rows():
    lam = _rand_map(random.Random(7), 5)
    f = _rand_ball(random.Random(8), 5, "real")
    first = ct.apply_lambda(ctx, lam, f)
    rows = lam.int_rows()
    assert ct.apply_lambda(ctx, lam, f) == first
    assert lam.int_rows() is rows


@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_lambda_residual_matches_exact_fractions(n):
    rng = random.Random(f"res-{n}")
    for _ in range(10):
        lam = _rand_map(rng, n)
        try:
            approx_inv = ax.mat_inv([list(r) for r in lam.matrix], P)
        except SingularJacobian:
            continue
        m = [[Fraction(x) for x in row] for row in lam.matrix]
        b = [[Fraction(x) for x in row] for row in approx_inv]
        dim = n + 1
        exact = max(sum(abs((1 if i == j else 0) - sum(b[i][k] * m[k][j] for k in range(dim)))
                        for i in range(dim)) for j in range(dim))
        bound = ct.verify_lambda_invertible(ctx, lam)
        assert exact <= Fraction(bound)
        assert Fraction(bound) <= exact + Fraction(_ulp(Interval(bound, bound)))
        assert bound <= oracle_lambda_residual(ctx, lam)


def test_lambda_residual_of_pipeline_map(desk):
    """On the desk fixed-point map the exact residual is no worse than the oracle's."""
    bound = ct.verify_lambda_invertible(desk.ctx, desk.lam_fixed)
    assert 0 < bound <= oracle_lambda_residual(desk.ctx, desk.lam_fixed)
