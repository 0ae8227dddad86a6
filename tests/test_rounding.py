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
    box_add,
    box_inv,
    box_mul,
    box_sqr,
    box_sub,
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


# -- integer boxes --------------------------------------------------------------

#: scale of the random boxes, and the finer grid their sampled members lie on
BOX_UNIT = 10 ** 12
MEMBER_GRID = 1000
#: kinds of random boxes: real with no sign condition, real with the real
#: part straddling 0, and complex with each part of any sign class
BOX_KINDS = ("real", "straddles", "complex")


def _rand_ends(rng, straddle: bool | None = None) -> tuple[int, int]:
    """Integer ends at scale 1/BOX_UNIT, at most about 10 in size; widths
    and distances from 0 are log-uniform, so thin intervals near 0 and
    wide ones both occur.  straddle=None draws any sign class."""
    def size():
        return rng.randint(0, 10 ** rng.randint(0, 13))
    if straddle is None:
        straddle = rng.random() < 0.3
    if straddle:
        return -1 - size(), 1 + size()
    lo = size() * rng.choice((-1, 1))
    return (lo, lo + size()) if rng.random() < 0.9 else (lo, lo)


def _rand_box(rng, kind: str) -> tuple[int, int, int, int]:
    re = _rand_ends(rng, straddle=True if kind == "straddles" else None)
    if kind != "complex":
        return (*re, 0, 0)
    return (*re, *_rand_ends(rng))


def _members(rng, box, count: int = 3):
    """Members of the box on the grid 1/(BOX_UNIT MEMBER_GRID): its corners,
    the points nearest 0 in each part, and ``count`` random points."""
    rl, rh, il, ih = (e * MEMBER_GRID for e in box)
    res = {rl, rh, min(max(0, rl), rh)} | {rng.randint(rl, rh) for _ in range(count)}
    ims = {il, ih, min(max(0, il), ih)} | {rng.randint(il, ih) for _ in range(count)}
    return [(a, b) for a in res for b in ims]


def _contains(box, scale: int, re: int, im: int) -> bool:
    """Whether the box, at scale 1/BOX_UNIT, holds re + i im at scale 1/scale."""
    lift = scale // BOX_UNIT
    return box[0] * lift <= re <= box[1] * lift and box[2] * lift <= im <= box[3] * lift


def _box_misses(mul, cases: int, seed: str) -> tuple[int, int, int]:
    """Sampled members whose exact product, square or sum the box result of
    ``mul``, box_sqr or box_add misses, over random box pairs of every kind
    in BOX_KINDS."""
    rng = random.Random(seed)
    fine = BOX_UNIT * MEMBER_GRID
    product = square = total = 0
    for i in range(cases):
        x = _rand_box(rng, BOX_KINDS[i % 3])
        y = _rand_box(rng, BOX_KINDS[(i // 3) % 3])
        xy, xx, s = mul(x, y, BOX_UNIT), box_sqr(x, BOX_UNIT), box_add(x, y)
        for (a, b), (c, d) in zip(_members(rng, x), _members(rng, y)):
            product += not _contains(xy, fine * fine, a * c - b * d, a * d + b * c)
            square += not _contains(xx, fine * fine, a * a - b * b, 2 * a * b)
            total += not _contains(s, fine, a + c, b + d)
    return product, square, total


def test_box_arithmetic_contains_sampled_members():
    """On 10**4 random pairs of real, zero-straddling and complex boxes, the
    product, the square and the sum contain the exact result of every
    sampled member, corners and points nearest 0 included."""
    assert _box_misses(box_mul, 10 ** 4, "boxes") == (0, 0, 0)


def test_box_arithmetic_negative_control():
    """A product whose ends are rounded to nearest, not outward, misses the
    product of some sampled member."""
    def nearest(x, y, unit):
        return tuple((e + unit // 2) // unit for e in box_mul(x, y, 1))
    assert _box_misses(nearest, 300, "nearest")[0] > 0


def _width(box) -> tuple[int, int]:
    return box[1] - box[0], box[3] - box[2]


def test_box_sqr_never_wider_than_product():
    """box_sqr(y) is never wider than box_mul(y, y) in either part; exactly
    (at unit 1, no rounding) its real part is strictly narrower whenever
    the imaginary part straddles 0, where y y adds -im_lo im_hi > 0."""
    rng = random.Random("sqr")
    straddled = 0
    for i in range(10 ** 4):
        y = _rand_box(rng, BOX_KINDS[i % 3])
        sqr, mul = _width(box_sqr(y, BOX_UNIT)), _width(box_mul(y, y, BOX_UNIT))
        assert sqr[0] <= mul[0] and sqr[1] <= mul[1], y
        if y[2] < 0 < y[3]:
            straddled += 1
            assert _width(box_sqr(y, 1))[0] < _width(box_mul(y, y, 1))[0], y
    assert straddled > 1000


def test_box_inv_and_sub():
    """1/[2, 4] is [1/4, 1/2] exactly and 1/[-3, -1] is [-1, -1/3] with
    -1/3 rounded up; a box with 0 in it is refused; x - y is exact."""
    u = BOX_UNIT
    assert box_inv((2 * u, 4 * u, 0, 0), u) == (u // 4, u // 2, 0, 0)
    assert box_inv((-3 * u, -u, 0, 0), u) == (-u, -(u // 3), 0, 0)
    with pytest.raises(DivisionByZeroInterval):
        box_inv((-1, 1, 0, 0), BOX_UNIT)
    assert box_sub((1, 2, 3, 4), (5, 7, -1, 1)) == (-6, -3, 2, 5)


def test_box_conversions_enclose():
    """A rectangle read into a box and written back encloses the original."""
    z = rectangle(interval("-1.23456789012345678901234567890123", "2.5"),
                  interval("1e-40", "3.000000000000000000000000000000001"))
    back = ctx.box_rectangle(ctx.to_box(z, 20), 20)
    assert back.re.contains_interval(z.re) and back.im.contains_interval(z.im)
    assert ctx.to_box(rectangle("0.5"), 3) == (500, 500, 0, 0)
    assert ctx.box_rectangle((500, 500, 0, 0), 3) == Rectangle(interval("0.5"), interval(0))
