import decimal
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_interval, rand_subinterval, sample_point
from renormcert.errors import DivisionByZeroInterval, DivisionByZeroRectangle
from renormcert.rounding import (
    Interval,
    Rectangle,
    RoundingContext,
    interval,
    rectangle,
)

ctx = RoundingContext(30)


def test_add_exact():
    assert ctx.iadd(interval(1, 2), interval(3, 4)) == Interval(Decimal(4), Decimal(6))


def test_mul_endpoint_enumeration():
    assert ctx.imul(interval(-1, 2), interval(3, 4)) == Interval(Decimal(-4), Decimal(8))


def test_div_by_zero_interval():
    with pytest.raises(DivisionByZeroInterval):
        ctx.idiv(interval(1), interval(0, 1))


def test_reduce_ops():
    assert interval(-3, 2).mag == 3
    assert interval(0, 1).hull(interval(2, 3)) == interval(0, 3)
    assert interval(-1, 1).contains(0)
    assert not interval(-1, 1).contains("1.5")
    assert interval(-3, 2).mig == 0
    assert interval(1, 2).mig == 1


def test_rectangle_i_times_i():
    i = rectangle(0, 1)
    sq = ctx.rmul(i, i)
    assert sq.re == interval(-1) and sq.im == interval(0)


def test_rectangle_sqr_real():
    sq = ctx.rsqr(rectangle(1))
    assert sq.re == interval(1) and sq.im == interval(0)


def test_abs_three_four_five():
    assert ctx.rabs(rectangle(3, 4)) == interval(5)


def test_rectangle_div_by_zero():
    with pytest.raises(DivisionByZeroRectangle):
        ctx.rdiv(rectangle(1), rectangle(0, 0))


def test_rectangle_div_inverse():
    z = rectangle(2, 1)
    w = ctx.rdiv(ctx.rmul(z, z), z)
    assert w.re.contains(2) and w.im.contains(1)


def test_sqrt_directed():
    for v in ("2", "3", "0.1", "123.456", "1e-20"):
        x = Decimal(v)
        lo, hi = ctx.sqrt_dn(x), ctx.sqrt_up(x)
        exact = ctx._exact
        assert exact.multiply(lo, lo) <= x <= exact.multiply(hi, hi)
        assert lo <= hi


def test_pow_directed():
    t = Decimal("0.693")
    hi = ctx.pow_up(t, 21)
    with decimal.localcontext(decimal.Context(prec=80)):
        exact = t ** 21
    assert exact <= hi


def test_scale_negative():
    assert ctx.iscale(interval(1, 2), Decimal(-3)) == interval(-6, -3)


def _check_isotonicity_and_containment(seed: int, cases: int):
    """Random inclusion-isotonicity plus high-precision point containment."""
    rng = random.Random(seed)
    hi_ctx = RoundingContext(120)
    ops = [
        ("add", ctx.iadd, hi_ctx._near.add),
        ("sub", ctx.isub, hi_ctx._near.subtract),
        ("mul", ctx.imul, hi_ctx._near.multiply),
        ("div", ctx.idiv, hi_ctx._near.divide),
    ]
    done = 0
    while done < cases:
        x = rand_interval(rng)
        y = rand_interval(rng)
        name, op, exact_op = ops[done % len(ops)]
        if name == "div" and y.contains_zero():
            y = Interval(y.mag + 1, y.mag + 2)
        big = op(x, y)
        xs, ys = rand_subinterval(rng, x), rand_subinterval(rng, y)
        small = op(xs, ys)
        assert big.contains_interval(small), (name, x, y, xs, ys)
        a, b = sample_point(rng, x), sample_point(rng, y)
        v = exact_op(a, b)
        assert big.lo <= v <= big.hi, (name, x, y, a, b, v)
        done += 1


def test_isotonicity_and_containment_quick():
    _check_isotonicity_and_containment(seed=7, cases=4000)


def test_precision_monotonicity():
    rng = random.Random(11)
    wide, tight = RoundingContext(20), RoundingContext(40)
    for _ in range(1000):
        x, y = rand_interval(rng), rand_interval(rng)
        if y.contains_zero():
            y = Interval(y.mag + 1, y.mag + 2)
        for op in ("iadd", "isub", "imul", "idiv"):
            a = getattr(wide, op)(x, y)
            b = getattr(tight, op)(x, y)
            assert a.contains_interval(b), (op, x, y)


def test_thread_context_independence():
    """Rigorous results must not change when the ambient decimal context is
    poisoned: every operation goes through explicit directed contexts."""
    x, y = interval("1.2345678901234567890123456789012345", "2"), interval("3", "4.5")
    reference = {}
    for op in ("iadd", "isub", "imul", "idiv"):
        reference[op] = getattr(ctx, op)(x, y)
    old = decimal.getcontext().prec
    try:
        decimal.getcontext().prec = 3
        for op in ("iadd", "isub", "imul", "idiv"):
            assert getattr(ctx, op)(x, y) == reference[op]
        z = ctx.ineg(interval("1.234567890123456789012345678901", "2"))
        assert z.lo == Decimal("-2")
        assert z.hi == Decimal("-1.234567890123456789012345678901")
        s = ctx.rneg(rectangle("1.234567890123456789012345678901"))
        assert s.re.lo == Decimal("-1.234567890123456789012345678901")
    finally:
        decimal.getcontext().prec = old


@given(st.decimals(allow_nan=False, allow_infinity=False, places=6,
                   min_value=Decimal(-100), max_value=Decimal(100)),
       st.decimals(allow_nan=False, allow_infinity=False, places=6,
                   min_value=Decimal(-100), max_value=Decimal(100)))
@settings(max_examples=300, deadline=None)
def test_point_products_contained(a, b):
    x, y = interval(a), interval(b)
    p = ctx.imul(x, y)
    with decimal.localcontext(decimal.Context(prec=60)):
        exact = a * b
    assert p.lo <= exact <= p.hi


def test_interval_ordering_validated():
    from renormcert.errors import ConfigError
    with pytest.raises(ConfigError):
        Interval(Decimal(2), Decimal(1))


def test_context_pickles():
    import pickle
    c2 = pickle.loads(pickle.dumps(ctx))
    assert c2.precision == ctx.precision
    assert c2.iadd(interval(1), interval(2)) == interval(3)
