import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import abs2_upper, rand_interval, rand_subinterval, rsqr, sample_point
from renormcert.errors import DivisionByZeroInterval
from renormcert.rounding import (
    IZERO,
    Interval,
    Rectangle,
    RoundingContext,
    box_add,
    box_inv,
    box_mul,
    box_sqr,
    box_sub,
    ceil_at,
    exact_decimal,
    floor_at,
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
    assert interval(-1, 1).contains(0)
    assert not interval(-1, 1).contains("1.5")


def test_rectangle_i_times_i():
    i = rectangle(0, 1)
    sq = ctx.rmul(i, i)
    assert sq.re == interval(-1) and sq.im == interval(0)


def test_rectangle_sqr_real():
    """The tests' reference square keeps a real rectangle real."""
    sq = rsqr(ctx, rectangle(1))
    assert sq.re == interval(1) and sq.im == interval(0)


def test_abs_three_four_five():
    """The disc test of the tests' references bounds |3 + 4i|**2 by 25."""
    assert abs2_upper(ctx, rectangle(3, 4)) == 25


def test_pow_directed():
    t = Decimal("0.693")
    hi = ctx.pow_up(t, 21)
    with decimal.localcontext(decimal.Context(prec=80)):
        exact = t ** 21
    assert exact <= hi


def test_scale_negative():
    assert ctx.iscale(interval(1, 2), Decimal(-3)) == interval(-6, -3)


def _rand_rectangle(rng) -> Rectangle:
    """Parts with 20 digits after the point, so that products round at the
    working precision; real (im exactly 0) or, half the time, complex."""
    def part():
        a, b = sorted(Decimal(f"{rng.randint(-4 * 10 ** 20, 4 * 10 ** 20)}E-20") for _ in range(2))
        return Interval(a, b)
    return Rectangle(part(), part() if rng.random() < 0.5 else IZERO)


def _parts(z) -> tuple:
    return (z.re, z.im) if isinstance(z, Rectangle) else (z,)


def _shrink(rng, z):
    if isinstance(z, Rectangle):
        return Rectangle(rand_subinterval(rng, z.re), rand_subinterval(rng, z.im))
    return rand_subinterval(rng, z)


def _check_isotonicity_and_containment(seed: int, cases: int):
    """Random inclusion-isotonicity, and containment of the result at
    sampled points, corners included, computed at 120 digits, for the interval operations and
    for rmul with each operand real or complex (all four of its branches)."""
    rng = random.Random(seed)
    near = decimal.Context(prec=120)

    def complex_product(a, b):
        (ar, ai), (br, bi) = a, b
        return (near.subtract(near.multiply(ar, br), near.multiply(ai, bi)),
                near.add(near.multiply(ar, bi), near.multiply(ai, br)))

    ops = [
        ("add", ctx.iadd, near.add),
        ("sub", ctx.isub, near.subtract),
        ("mul", ctx.imul, near.multiply),
        ("div", ctx.idiv, near.divide),
        ("rmul", ctx.rmul, complex_product),
    ]
    branches = set()
    for done in range(cases):
        name, op, exact_op = ops[done % len(ops)]
        if name == "rmul":
            x, y = _rand_rectangle(rng), _rand_rectangle(rng)
            branches.add((x.is_real(), y.is_real()))
        else:
            x, y = rand_interval(rng), rand_interval(rng)
        if name == "div" and y.lo <= 0 <= y.hi:
            y = Interval(y.mag + 1, y.mag + 2)
        big = op(x, y)
        xs, ys = _shrink(rng, x), _shrink(rng, y)
        small = op(xs, ys)
        assert all(b.contains_interval(s) for b, s in zip(_parts(big), _parts(small))), \
            (name, x, y, xs, ys)
        # an end or an inner point of each part: products peak at corners
        a, b = ([rng.choice((p.lo, p.hi, sample_point(rng, p))) for p in _parts(z)]
                for z in (x, y))
        v = exact_op(a, b) if name == "rmul" else (exact_op(a[0], b[0]),)
        assert all(p.lo <= e <= p.hi for p, e in zip(_parts(big), v)), (name, x, y, a, b, v)
    assert len(branches) == 4


def test_isotonicity_and_containment_quick():
    _check_isotonicity_and_containment(seed=7, cases=5000)


def test_precision_monotonicity():
    rng = random.Random(11)
    wide, tight = RoundingContext(20), RoundingContext(40)
    for _ in range(1000):
        x, y = rand_interval(rng), rand_interval(rng)
        if y.lo <= 0 <= y.hi:
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


def _random_decimal(rng: random.Random) -> Decimal:
    """A decimal of 1 to 60 digits, either sign, its exponent on either side
    of the point; signed zeros included."""
    digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 60)))
    return Decimal(f"{rng.choice('+-')}{digits}E{rng.randint(-80, 40)}")


def test_floor_and_ceil_at_match_fractions():
    """floor_at and ceil_at are floor and ceil of x * 10**s, for x of up to
    60 digits and s of either sign.  They run under a 3-digit thread
    context: a unary minus on x would round it there and miss."""
    rng = random.Random(27)
    cases = [(Decimal(z), s) for z in ("0", "-0", "0E-50", "-0E+7") for s in (-3, 0, 5)]
    cases += [(_random_decimal(rng), rng.randint(-50, 100)) for _ in range(3000)]
    with decimal.localcontext(decimal.Context(prec=3)):
        for x, s in cases:
            exact = Fraction(x) * Fraction(10) ** s
            assert floor_at(x, s) == math.floor(exact), (x, s)
            assert ceil_at(x, s) == math.ceil(exact), (x, s)
    x = Decimal("-1.2345")
    assert (floor_at(x, 2), ceil_at(x, 2)) == (-124, -123)
    assert (floor_at(x, 4), ceil_at(x, 4)) == (-12345, -12345)


def test_exact_decimal_round_trips_past_the_int_string_limit():
    """An integer of 5000 digits, more than str() of an int writes, is
    written exactly and reads back to the same integer."""
    v = -(7 * 10 ** 4999 + 123456789)
    assert Decimal(v).adjusted() == 4999
    for scale in (0, 17, 6000, -3):
        assert floor_at(exact_decimal(v, scale), scale) == v
    assert str(exact_decimal(12300, 2)) == "123"
