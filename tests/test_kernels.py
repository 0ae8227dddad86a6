"""Differential tests of the integer midpoint-radius kernels against the
Decimal interval loops they replaced (kept in helpers as oracles).

A ball is exact midpoints plus one l1 radius for its rounding part, so the
oracles run on the midpoints as point intervals, with the radius in the
error part.  Inputs are short decimals, so the product and map oracles
compute without rounding.  A kernel result must then have the oracle's
midpoints up to its one outward rounding, and its radius and tails must
bound the same parts as the oracle's error and high parts: their sums
agree up to the roundings of both (see _check_l1).

Every ball is real.  Coefficient cases draw general real intervals
("real"), intervals centred at 0 ("centred", the shape of an error pad,
all radius and no midpoint) or points ("point", no radius).

Pointwise evaluation is checked against Horner in Decimal rectangle
arithmetic, at real points ("real"), at boxes symmetric about the real
axis ("centred") and at general complex points and boxes ("complex"):
both run the same box Horner, so the integer result may be wider only by
its roundings (see _eval_slack).  The inlined integer box Horner must
return exactly the integers of the per-step Horner it replaced
(helpers.per_step_horner), one interval product and one outward rounding
per call.

Composition through a power table is checked against Horner evaluation in
Decimal ball arithmetic.  There the two differ in algorithm, not only in
rounding: a power sum carries sum_k |f_k| rad(u**k) of the argument's
radius where Horner can cancel, so that term is allowed on top of the
rounding terms (see _compose_slack).
"""

import dataclasses
import decimal
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import (
    basis_ball,
    evaluate_derivative,
    interval_ball,
    mid_intervals,
    oracle_add,
    oracle_apply_lambda,
    oracle_compose,
    oracle_compose_derivative,
    oracle_derivative_coeffs,
    oracle_evaluate,
    oracle_evaluate_derivative,
    oracle_lambda_residual,
    oracle_mul,
    oracle_negate,
    oracle_normalized_argument,
    oracle_scale,
    oracle_sub,
    per_step_horner,
    rounding_part,
    schoolbook_product,
    with_tails,
)
from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import contraction as ct
from renormcert.errors import CompositionContractFailure, PointOutsideDomain, SingularJacobian
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


def _centred_interval(rng) -> Interval:
    w = Decimal(rng.randint(0, 99)).scaleb(-rng.randint(9, 12))
    return Interval(w.copy_negate(), w)


def _rand_ball(rng, n: int, kind: str) -> fb.FunctionBall:
    """Random real ball with short-decimal coefficients: general intervals
    ("real"), intervals centred at 0 ("centred") or points ("point")."""
    coeffs = [_centred_interval(rng) if kind == "centred"
              else _short_interval(rng, rng.randint(0, 3)) for _ in range(n + 1)]
    if kind == "point":
        coeffs = [Interval(x.hi, x.hi) for x in coeffs]
    tails = [Decimal(rng.randint(0, 9)).scaleb(-rng.randint(3, 9)) for _ in range(2)]
    return interval_ball(coeffs, *tails)


def _width(x: Interval) -> Decimal:
    return EXACT.subtract(x.hi, x.lo)


def _ulp(x: Interval) -> Decimal:
    top = max(abs(x.lo), abs(x.hi))
    return Decimal(1).scaleb(top.adjusted() - P + 1) if top else Decimal(0)


def _unit(f: fb.FunctionBall) -> Decimal:
    """One unit of the scale an outward rounding keeps f at: f's own scale
    once rounded, the finer working scale while f is still exact."""
    return Decimal(1).scaleb(min(fb._cut(ctx, f, f.truncation), 0) - f.scale)


def _mids(b: fb.FunctionBall) -> list[Decimal]:
    """b's midpoints as exact decimals, N + 1 of them."""
    return [Decimal(m).scaleb(-b.scale, EXACT) for m in b.mid] + \
        [Decimal(0)] * (b.truncation + 1 - len(b.mid))


def _radius(b: fb.IntBall) -> Decimal:
    return Decimal(b.rad).scaleb(-b.scale, EXACT)


def _mass(b: fb.FunctionBall) -> Decimal:
    """rad + v_high + v_err, exactly."""
    return EXACT.add(EXACT.add(_radius(b), b.v_high), b.v_err)


def _oracle_rounding(ref: fb.FunctionBall, ops: int) -> Decimal:
    """What ``ops`` outward-rounded interval operations per coefficient
    add to the oracle's radius: one ulp per end and operation."""
    return ops * sum((_ulp(Interval(m, m)) for m in _mids(ref)), Decimal(0))


def _check_l1(new: fb.FunctionBall, ref: fb.FunctionBall, mid_slack: Decimal,
              mass_slack: Decimal):
    """new against its oracle ref in the l1 norm the balls use: new's
    midpoints lie within ref's radius plus mid_slack of ref's, and new's
    radius and tails, which bound the same parts as ref's, sum to within
    mass_slack of ref's."""
    with decimal.localcontext(EXACT):
        off = sum((abs(a - b) for a, b in zip(_mids(new), _mids(ref))), Decimal(0))
        assert off <= _radius(ref) + mid_slack, (off, _radius(ref), mid_slack)
        assert abs(_mass(new) - _mass(ref)) <= mass_slack, (_mass(new), _mass(ref), mass_slack)


@pytest.mark.parametrize("n", [0, 1, 8, 40])
@pytest.mark.parametrize("kinds", [("real", "real"), ("centred", "real"),
                                   ("centred", "centred"), ("real", "centred"),
                                   ("point", "real")])
def test_mul_matches_decimal_oracle(n, kinds):
    """The product's rad, v_high and v_err split the oracle's v_high and
    v_err (in which the factors' radii ride) otherwise, by the degrees
    a rounding part times a high part reaches, but bound the same sum;
    only the midpoints' one rounding and the tails' upward roundings may
    separate them."""
    rng = random.Random(f"{n}-{kinds}")
    for _ in range(3 if n == 40 else 10):
        f, g = _rand_ball(rng, n, kinds[0]), _rand_ball(rng, n, kinds[1])
        new, ref = fb.mul(ctx, f, g), oracle_mul(ctx, f, g)
        unit, ulp = _unit(new), 8 * _ulp(Interval(_mass(ref), _mass(ref)))
        _check_l1(new, ref, (n + 1) * unit, (n + 1) * unit + ulp)
        assert new.v_high >= ref.v_high - ulp and new.v_err <= ref.v_err + ulp


#: operand lengths of the exact-product tests: empty, a constant, affine,
#: the degree-40 and degree-80 sizes with guard rows (N + 1 and N + 9)
_LENGTHS = (0, 1, 2, 41, 89)


def _signed(rng, length: int) -> list[int]:
    """Random signed integers of up to 40 digits, about one in five zero;
    half the draws end in a run of zeros, the shape of a baby power padded
    to its table's rows."""
    out = [rng.randint(-10 ** rng.randint(0, 40), 10 ** rng.randint(0, 40))
           if rng.random() < 0.8 else 0 for _ in range(length)]
    if length and rng.random() < 0.5:
        cut = rng.randint(1, length)
        out[-cut:] = [0] * cut
    return out


def _degrees(full: int) -> set[int]:
    """Truncation degrees below, at and above the full degree of a product."""
    return {d for d in (0, full // 2, full - 1, full, full + 3) if d >= 0}


@pytest.mark.parametrize("length", _LENGTHS)
def test_exact_products_match_schoolbook_oracle(length):
    """_conv and _sqr give the schoolbook product integer for integer, its
    length included: on random signed operands with zeros and trailing
    zeros, against every operand length, one-coefficient operands (the
    constant branch) with and without trailing zeros, and all-zero ones,
    at degrees below, at and above the full one."""
    rng = random.Random(f"products-{length}")
    for _ in range(3):
        a = _signed(rng, length)
        c = rng.choice([-1, 1]) * rng.randint(1, 10 ** 40)
        others = [_signed(rng, m) for m in _LENGTHS] + [[c], [c, 0, 0], [0], [0] * 5]
        for b in others:
            for n in _degrees(len(a) + len(b) - 2):
                assert fb._conv(a, b, n) == fb._conv(b, a, n) == schoolbook_product(a, b, n)
        for n in _degrees(2 * len(a) - 2):
            assert fb._sqr(a, n) == schoolbook_product(a, a, n), n
    assert schoolbook_product([2, 3], [5, 7], 9) == [10, 29, 21]


def test_memo_hits_match_schoolbook_oracle():
    """Inside product_memo a second _conv or _sqr of equal operands, passed
    as new lists, is read from the memo, not computed, and is still the
    schoolbook product; a different degree or operand is computed."""
    rng = random.Random("memo-hits")
    pairs = [(_signed(rng, m), _signed(rng, k)) for m, k in ((5, 9), (21, 21), (40, 3))]
    with fb.product_memo():
        for a, b in pairs:
            n = len(a) + len(b) - 2
            fb._conv(a, b, n), fb._sqr(a, n)
        before = fb.product_counts()
        for a, b in pairs:
            n = len(a) + len(b) - 2
            assert fb._conv(list(a), list(b), n) == schoolbook_product(a, b, n)
            assert fb._sqr(list(a), n) == schoolbook_product(a, a, n)
        hits = fb.product_counts()
        assert (hits["computed"], hits["reused"]) == (before["computed"], before["reused"] + 6)
        a, b = pairs[0]
        assert fb._conv(a, b, 3) == schoolbook_product(a, b, 3)
        assert fb._conv(a, [x + 1 for x in b], 3) == schoolbook_product(a, [x + 1 for x in b], 3)
        assert fb.product_counts()["computed"] == hits["computed"] + 2


def test_memo_returns_copies():
    """A caller may mutate the list a product returns: later hits for the
    same operands, and the products of lists that mutated operands now
    equal, are still the exact products."""
    a, b = [3, -1, 4, 1], [5, 9, -2]
    with fb.product_memo():
        first = fb._conv(a, b, 5)
        first[0] += 1
        first.append(7)
        assert fb._conv(a, b, 5) == schoolbook_product(a, b, 5)
        square = fb._sqr(a, 6)
        square[2] = 0
        assert fb._sqr(a, 6) == schoolbook_product(a, a, 6)
        a[0] = 2
        assert fb._conv(a, b, 5) == schoolbook_product(a, b, 5)


def test_memo_is_closed_outside_its_block():
    """Outside product_memo, and after it, every product is computed."""
    a, b = [1, 2, 3], [4, 5]
    with fb.product_memo():
        with fb.product_memo():
            fb._conv(a, b, 3)
        before = fb.product_counts()
        fb._conv(a, b, 3)
        assert fb.product_counts()["reused"] == before["reused"] + 1
    before = fb.product_counts()
    assert fb._conv(a, b, 3) == schoolbook_product(a, b, 3)
    assert fb.product_counts() == {"computed": before["computed"] + 1,
                                   "reused": before["reused"]}


@pytest.mark.parametrize("n", [0, 8, 40])
def test_ball_square_is_the_product_with_itself(n):
    """sqr and int_sqr are mul and int_mul of a ball with itself, field for
    field: the same midpoints, rad, spill and tails."""
    rng = random.Random(f"sqr-{n}")
    for kind in ("real", "centred", "point"):
        f = _rand_ball(rng, n, kind)
        assert fb.sqr(ctx, f) == fb.mul(ctx, f, f)
        assert fb.int_sqr(ctx, f, n + 8) == fb.int_mul(ctx, f, f, n + 8)


#: points on the circle |z - 1| = 2.5, where every square root is exact
CIRCLE = [Rectangle(Interval(Decimal(x), Decimal(x)), Interval(Decimal(y), Decimal(y)))
          for x, y in (("3.5", "0"), ("-1.5", "0"), ("1", "2.5"), ("2.5", "2"),
                       ("-0.5", "-2"))]


def _rand_point_args(rng, kind: str) -> list[Rectangle]:
    """Points and boxes inside the disc D(1, 2.5) and on its circle: real
    ones with the point 1 ("real"), boxes symmetric about the real axis
    ("centred"), or complex points and boxes ("complex")."""
    def near(scale):
        return Decimal(rng.randint(-scale, scale)).scaleb(-3)

    real = [z for z in CIRCLE if z.im == IZERO]
    args = {"real": [Rectangle(Interval(Decimal(1), Decimal(1)), IZERO)] + real,
            "centred": [Rectangle(Interval(Decimal(1), Decimal(1)), Interval(-y, y))
                        for y in (Decimal("0.5"), Decimal("2.4"))],
            "complex": [z for z in CIRCLE if z.im != IZERO]}[kind]
    for _ in range(3):
        x, y, hx, hy = 1 + near(1200), near(1200), abs(near(300)), abs(near(300))
        args += {"real": [Rectangle(Interval(x, x), IZERO),
                          Rectangle(Interval(x - hx, x + hx), IZERO)],
                 "centred": [Rectangle(Interval(x, x), Interval(-hy, hy)),
                             Rectangle(Interval(x - hx, x + hx), Interval(-hy, hy))],
                 "complex": [Rectangle(Interval(x, x), Interval(y, y)),
                             Rectangle(Interval(x - hx, x + hx), Interval(y - hy, y + hy))]}[kind]
    return args


def _eval_slack(ball: fb.FunctionBall, coeffs, z: Rectangle) -> Decimal:
    """Rounding slack between the integer and the Decimal box Horner, which
    both enclose the exact one.  With M = max(1, sup|re u| + sup|im u|) and
    S, T the coefficient and argument scales, the integer path adds to the
    exact result 10**-S M**N for each of its 2N + 2 coefficient and step
    roundings and 10**-T sum_k k |f_k| M**(k-1) for the argument's, on each
    end; the Decimal path rounds each of its 4N + 2 operations by one unit
    in digit P of a value at most sum_k |f_k| M**k."""
    n = ball.truncation
    with decimal.localcontext(EXACT):
        re = max(abs(z.re.lo - DOM.center), abs(z.re.hi - DOM.center))
        im = max(abs(z.im.lo), abs(z.im.hi))
        m = max(Decimal(1), (re + im) / DOM.radius + Decimal(10) ** -P)
        s = fb.point_evaluator(ctx, ball).scale
        t = P + len(str(n + 1))
        mags = [c.mag for c in coeffs]
        steps = (2 * n + 2) * Decimal(10) ** -s * m ** n
        arg = Decimal(10) ** -t * sum(
            (k * f * m ** (k - 1) for k, f in enumerate(mags) if k), Decimal(0))
        oracle = (4 * n + 2) * Decimal(10) ** (1 - P) * sum(
            (f * m ** k for k, f in enumerate(mags)), Decimal(0))
        return 2 * (steps + arg + oracle)


@pytest.mark.parametrize("n", [0, 1, 8, 40])
@pytest.mark.parametrize("kind", ["real", "centred", "complex"])
@pytest.mark.parametrize("derivative", [False, True])
def test_evaluate_matches_decimal_oracle(n, kind, derivative):
    rng = random.Random(f"eval-{n}-{kind}-{derivative}")
    kernel, oracle = ((evaluate_derivative, oracle_evaluate_derivative) if derivative
                      else (fb.evaluate, oracle_evaluate))
    for i in range(2 if n == 40 else 4):
        f = _rand_ball(rng, n, ("real", "centred")[i % 2])
        f = with_tails(f, Decimal(rng.randint(1, 9)).scaleb(-6),
                       Decimal(rng.randint(1, 9)).scaleb(-8))
        coeffs = oracle_derivative_coeffs(ctx, f) if derivative else mid_intervals(f)
        for z in _rand_point_args(rng, kind):
            if derivative and z in CIRCLE:
                # the tails' derivative bound needs |z - c| < r strictly
                for fn in (kernel, oracle):
                    with pytest.raises(PointOutsideDomain):
                        fn(ctx, f, z)
                continue
            new, ref = kernel(ctx, f, z), oracle(ctx, f, z)
            if kind == "real":
                # a real-coefficient function is real on the real axis
                assert new.im == IZERO, (z, new)
            slack = _eval_slack(f, coeffs, z)
            for part in ("re", "im"):
                a, b = getattr(new, part), getattr(ref, part)
                mid = EXACT.divide(EXACT.add(b.lo, b.hi), 2)
                assert a.lo <= mid <= a.hi, (z, part, a, b)
                tol = EXACT.add(slack, 2 * _ulp(a))
                assert a.lo <= EXACT.add(b.lo, tol), (z, part, a, b)
                assert EXACT.subtract(b.hi, tol) <= a.hi, (z, part, a, b)
                assert _width(a) <= EXACT.add(_width(b), tol), (z, part, a, b)


def test_evaluate_at_one_matches_oracle_exactly(desk):
    """At the point 1 Horner reduces to f_0 plus the tail pad, which the
    integer path adds exactly: on balls with P-digit coefficients a = G(1)
    is the oracle's, bit for bit.  The parameter ball, the Newton step
    Phi(g0), keeps P + digits(N+1) digits, which the oracle rounds to P
    before it adds the pad: there the integer value lies inside the
    oracle's, at most one unit of the last place from each end."""
    one = Rectangle(Interval(Decimal(1), Decimal(1)), IZERO)
    for ball in (fb.inflate(ctx, desk.G0, desk.cert_fixed.proven_radius), desk.G0,
                 fb.inflate(ctx, desk.V0, "1e-7")):
        assert fb.evaluate(desk.ctx, ball, one) == oracle_evaluate(desk.ctx, ball, one)
    new, ref = (f(desk.ctx, desk.param, one).re for f in (fb.evaluate, oracle_evaluate))
    unit = Decimal(1).scaleb(new.lo.adjusted() - desk.ctx.precision + 1)
    assert ref.contains_interval(new)
    assert new.lo - ref.lo <= unit and ref.hi - new.hi <= unit


#: kinds of the argument box u in the box Horner differential test: the
#: sign classes of helpers.sign_class for a real u, and "complex"
U_KINDS = (">=0", "<=0", "straddles", "degenerate", "complex")


def _rand_u_box(rng, unit: int, kind: str) -> tuple[int, int, int, int]:
    """A normalized argument box (ul, uh, vl, vh) at scale 1/unit, its ends
    at most unit in size; widths and distances from 0 are log-uniform, so
    thin boxes near 0 and wide ones near the circle both occur."""
    def size():
        return rng.randint(0, 10 ** rng.randint(0, len(str(unit)) - 1))
    if kind == "complex":
        ul, uh, _, _ = _rand_u_box(rng, unit, rng.choice(U_KINDS[:4]))
        vl, vh, _, _ = _rand_u_box(rng, unit, rng.choice(U_KINDS[:3]))
        return ul, uh, vl, vh or 1
    if kind == "degenerate":
        x = size() * rng.choice((-1, 1))
        return x, x, 0, 0
    if kind == "straddles":
        return -1 - size(), 1 + size(), 0, 0
    lo = min(size(), unit - 1)
    hi = min(unit, lo + 1 + size())
    return (lo, hi, 0, 0) if kind == ">=0" else (-hi, -lo, 0, 0)


def _horner_mismatches(ev: fb.PointEvaluator, horner, count: int, seed: str,
                       seen: set | None = None) -> int:
    """Random argument boxes, as many of each kind in U_KINDS, at which
    ``horner`` differs from the per-step oracle on the evaluator's
    coefficients or on its derivative's."""
    rng = random.Random(seed)
    unit = 2 ** ev.arg_bits
    misses = 0
    for i in range(count):
        u = _rand_u_box(rng, unit, U_KINDS[i % len(U_KINDS)])
        for coeffs in (ev.coeffs, ev.dcoeffs):
            misses += horner(coeffs, u) != per_step_horner(coeffs, u, unit, seen=seen)
    return misses


def _horner_evaluator(desk, ball: str) -> fb.PointEvaluator:
    """The desk parameter ball G, or an inflated random ball of degree 20
    with interval coefficients, held for pointwise evaluation."""
    if ball == "desk_G":
        return fb.point_evaluator(desk.ctx, desk.param)
    f = _rand_ball(random.Random("horner"), 20, "real")
    return fb.point_evaluator(ctx, fb.inflate(ctx, f, "1e-6"))


@pytest.mark.parametrize("ball", ["desk_G", "inflated_random"])
def test_box_horner_matches_per_step_oracle(desk, ball):
    """The inlined box Horner returns the per-step oracle's integers on 10**4
    random boxes, for the coefficients and the derivative's.  Every kind of
    argument meets accumulators >= 0 and <= 0, and some straddle 0."""
    ev = _horner_evaluator(desk, ball)
    seen = set()
    assert _horner_mismatches(ev, ev._horner, 10 ** 4, ball, seen) == 0
    for kind in U_KINDS:
        assert (kind, ">=0") in seen and (kind, "<=0") in seen, kind
    assert "straddles" in {acc for _, acc in seen}


def test_box_horner_negative_control(desk):
    """A Horner that floors the upper end of each product fails the
    comparison with the per-step oracle."""
    ev = _horner_evaluator(desk, "desk_G")
    unit = 2 ** ev.arg_bits

    def floor_upper(lo, hi, unit):
        return lo // unit, hi // unit

    def faulty(coeffs, u):
        return per_step_horner(coeffs, u, unit, outward=floor_upper)
    assert _horner_mismatches(ev, faulty, 100, "negative") > 0


def _rand_argument(rng, n: int, kind: str) -> fb.FunctionBall:
    """Full-degree composition argument near the disc centre: coefficient k
    is about 10**-k, so theta stays near 0.2.  General interval
    coefficients ("real"), intervals centred at 0 apart from the constant
    1 ("centred"), or point coefficients ("point"); no tails."""
    coeffs = []
    for k in range(n + 1):
        x = _centred_interval(rng) if kind == "centred" else _short_interval(rng, k + 1)
        if kind == "point":
            x = Interval(x.lo, x.lo)
        if k == 0:
            x = Interval(EXACT.add(x.lo, 1), EXACT.add(x.hi, 1))
        coeffs.append(x)
    return interval_ball(coeffs)


def _compose_slack(h: fb.FunctionBall, coeffs) -> tuple[Decimal, Decimal]:
    """(argument term, rounding term) allowed on a table composition's
    width over Horner's, for the polynomial with the given coefficients.

    With m = ||mid u|| and r its rad and v_err for the normalized argument
    u, a midpoint-radius power u**k has radius at most (m + r)**k - m**k; the
    argument term is sum_k |f_k| ((m + r)**k - m**k).  Each integer
    conversion and each power step rounds by at most one unit in digit
    precision + digits(N+1) of its operand, so power k carries at most
    k + 2 such units of (m + r)**k: the rounding term is
    10**(2-P) sum_k (k + 2) |f_k| (m + r)**k, a tenfold margin on that.
    Above the baby steps, term k = i b + j (b = balls.BABY_STEPS) reads
    U = u**b i times and passes i giant-step roundings: at most
    k + 2 + 3i <= 8 (k + 2) / 7 units, still inside the margin.
    """
    u = fb.normalized_argument(ctx, h)
    with decimal.localcontext(EXACT):
        m = sum((abs(x) for x in _mids(u)), Decimal(0))
        r = _radius(u) + u.v_err
        mags = [c.mag for c in coeffs]
        argument = sum((f * ((m + r) ** k - m ** k) for k, f in enumerate(mags) if k),
                       Decimal(0))
        rounding = Decimal(10) ** (2 - P) * sum(
            ((k + 2) * f * (m + r) ** k for k, f in enumerate(mags)), Decimal(0))
    return argument, rounding


@pytest.mark.parametrize("n", [1, 8, 40, 80])
@pytest.mark.parametrize("kind", ["real", "centred", "point"])
@pytest.mark.parametrize("derivative", [False, True])
def test_compose_matches_decimal_oracle(n, kind, derivative):
    """At n = 40 and 80 the composition takes 1 and 3 giant steps.  The
    midpoints drift from the exact composition of f's midpoints only by
    roundings that rad holds; rad and v_err exceed the oracle's radius and
    error part by at most the argument and rounding terms; and v_err is f's
    tail rule alone, at most the oracle's, which also carries the radii."""
    rng = random.Random(f"compose-{n}-{kind}-{derivative}")
    kernel, oracle = ((fb.compose_derivative, oracle_compose_derivative) if derivative
                      else (fb.compose, oracle_compose))
    for _ in range(1 if n >= 40 else 4):
        h = _rand_argument(rng, n, kind)
        f = _rand_ball(rng, n, "real" if kind == "point" else kind)
        f = with_tails(f, Decimal(rng.randint(1, 9)).scaleb(-5),
                       Decimal(rng.randint(1, 9)).scaleb(-7))
        new, ref = kernel(ctx, f, h), oracle(ctx, f, h)
        coeffs = oracle_derivative_coeffs(ctx, f) if derivative else mid_intervals(f)
        argument, rounding = _compose_slack(h, coeffs)
        with decimal.localcontext(EXACT):
            off = sum((abs(a - b) for a, b in zip(_mids(new), _mids(ref))), Decimal(0))
            assert off <= _radius(ref) + _radius(new) + rounding, (off, new, ref)
            # f's rad through the derivative rounds up once more, to new's scale
            ulp = 4 * _ulp(Interval(_mass(ref), _mass(ref))) + Decimal(1).scaleb(-new.scale)
            assert _radius(new) + new.v_err <= \
                _radius(ref) + ref.v_err + 2 * argument + rounding + ulp, (new, ref)
        # the argument has no error part, so v_err is f's tail rule alone
        th = fb.theta(ctx, h)
        if derivative:
            one_minus = ctx.sub_dn(Decimal(1), th)
            geo = ctx.div_up(Decimal(1), ctx.mul_dn(one_minus, one_minus))
            rule = ctx.div_up(ctx.add_up(ctx.mul_up(f.v_high, fb._sup_k_theta(ctx, th, n)),
                                         ctx.mul_up(f.v_err, geo)), DOM.radius)
        else:
            rule = ctx.add_up(f.v_err, ctx.mul_up(f.v_high, ctx.pow_up(th, n + 1)))
        assert new.v_err == rule <= ref.v_err
        assert new.v_high >= 0


def _endpoint_member(rng, f: fb.FunctionBall) -> list[Decimal]:
    """A polynomial member of f: its midpoints plus a rounding part of
    degree <= N that spends rad in full half the time
    (helpers.rounding_part)."""
    member = _mids(f)
    if f.rad:
        for d, c in rounding_part(rng, f.rad, f.scale, range(f.truncation + 1)).items():
            member[d] = EXACT.add(member[d], c)
    return member


def _poly_mul(a, b):
    out = [Decimal(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exact_compose(f, h) -> list[Decimal]:
    """f(h) for polynomials in the scaled basis, exactly: sum_k f_k u**k
    with u = (h - c)/r."""
    u = [(h[0] - DOM.center) / DOM.radius] + [x / DOM.radius for x in h[1:]]
    out, power = [f[0]], [Decimal(1)]
    for fk in f[1:]:
        power = _poly_mul(power, u)
        term = _poly_mul([fk], power)
        out += [Decimal(0)] * (len(term) - len(out))
        out = [o + t for o, t in zip(out, term)] + out[len(term):]
    return out


def _membership_excess(ball: fb.FunctionBall, p) -> Decimal:
    """How far the polynomial p is from being a member of the ball, in the
    l1 norm the balls use: coefficient distances to the midpoints plus the
    mass above N beyond v_high, minus rad and v_err."""
    n = ball.truncation
    near = sum((abs(x - m) for x, m in zip(p, _mids(ball))), Decimal(0))
    high = sum((abs(x) for x in p[n + 1:]), Decimal(0))
    return near + max(Decimal(0), high - ball.v_high) - ball.v_err - _radius(ball)


@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("kind", ["real", "centred", "point"])
def test_compose_contains_endpoint_members(n, kind):
    """Compositions of polynomial members of f and h at the edge of their
    radii lie in the composed ball (and derivatives in the derivative
    ball), exactly."""
    rng = random.Random(f"members-{n}-{kind}")
    with decimal.localcontext(EXACT):
        for _ in range(6):
            h = _rand_argument(rng, n, kind)
            f = _rand_ball(rng, n, "real" if kind == "point" else kind)
            f = with_tails(f, 0, 0)
            comp, dcomp = fb.compose(ctx, f, h), fb.compose_derivative(ctx, f, h)
            for _ in range(4):
                fm, hm = _endpoint_member(rng, f), _endpoint_member(rng, h)
                dfm = [k * x / DOM.radius for k, x in enumerate(fm)][1:] or [Decimal(0)]
                assert _membership_excess(comp, _exact_compose(fm, hm)) <= 0
                assert _membership_excess(dcomp, _exact_compose(dfm, hm)) <= 0


def _long_interval(rng, kind: str) -> Interval:
    """A working-precision interval: a midpoint of 45 to 48 digits, more
    than P, so kernels must round, with a general radius ("real"), none
    ("point"), or all radius ("centred")."""
    mid = Decimal(rng.randint(-10 ** 45, 10 ** 45)).scaleb(-45 - rng.randint(0, 3), EXACT)
    rad = Decimal(rng.randint(1, 10 ** 6)).scaleb(-rng.randint(40, 50), EXACT)
    if kind == "point":
        return Interval(mid, mid)
    if kind == "centred":
        return Interval(rad.copy_negate(), rad)
    return Interval(EXACT.subtract(mid, rad), EXACT.add(mid, rad))


def _long_ball(rng, n: int, kind: str, tails: bool) -> fb.FunctionBall:
    bounds = [Decimal(rng.randint(0, 9)).scaleb(-rng.randint(3, 9)) if tails else 0
              for _ in range(2)]
    return interval_ball([_long_interval(rng, kind) for _ in range(n + 1)], *bounds)


#: the kernels that stand for the Decimal interval loops of oracle_add,
#: oracle_sub, oracle_negate, oracle_scale, oracle_normalized_argument and
#: oracle_derivative_coeffs; the first three are exact, the others round
#: outward once
LINEAR = ("add", "sub", "negate", "scale", "normalized_argument", "derivative")
EXACT_LINEAR = ("add", "sub", "negate")


def _linear_case(rng, name: str, n: int, kind: str, tails: bool = True):
    """The kernel's ball, the oracle's ball, and the exact images of four
    polynomial members of the inputs at the edge of their radii (the
    scalar of "scale" at an endpoint); for "derivative", of f's midpoint
    polynomial, as balls._derivative leaves f's rounding part to its
    caller."""
    f, g = _long_ball(rng, n, kind, tails), _long_ball(rng, n, kind, tails)
    s = _long_interval(rng, kind)
    c, r = DOM.center, DOM.radius
    new, ref, image = {
        "add": (lambda: fb.add(ctx, f, g), lambda: oracle_add(ctx, f, g),
                lambda fm, gm, x: [a + b for a, b in zip(fm, gm)]),
        "sub": (lambda: fb.sub(ctx, f, g), lambda: oracle_sub(ctx, f, g),
                lambda fm, gm, x: [a - b for a, b in zip(fm, gm)]),
        "negate": (lambda: fb.negate(ctx, f), lambda: oracle_negate(ctx, f),
                   lambda fm, gm, x: [-a for a in fm]),
        "scale": (lambda: fb.scale(ctx, s, f), lambda: oracle_scale(ctx, s, f),
                  lambda fm, gm, x: [x * a for a in fm]),
        "normalized_argument": (
            lambda: fb.normalized_argument(ctx, f), lambda: oracle_normalized_argument(ctx, f),
            lambda fm, gm, x: [(fm[0] - c) / r] + [a / r for a in fm[1:]]),
        "derivative": (
            lambda: fb._derivative(ctx, f),
            lambda: interval_ball(oracle_derivative_coeffs(ctx, f), n=n),
            lambda fm, gm, x: [k * a / r for k, a in enumerate(fm)][1:]),
    }[name]
    with decimal.localcontext(EXACT):
        images = [image(_mids(f) if name == "derivative" else _endpoint_member(rng, f),
                        _endpoint_member(rng, g), rng.choice((s.lo, s.hi)))
                  for _ in range(4)]
    return new(), ref(), images


def _linear_misses(name: str) -> int:
    """Sampled members of tail-free point balls whose images the kernel misses."""
    rng = random.Random(f"linear-misses-{name}")
    misses = 0
    for _ in range(3):
        for n in (0, 1, 8):
            new, _, images = _linear_case(rng, name, n, "point", tails=False)
            with decimal.localcontext(EXACT):
                misses += sum(_membership_excess(new, p) > 0 for p in images)
    return misses


@pytest.mark.parametrize("n", [0, 1, 8, 40])
@pytest.mark.parametrize("kind", ["real", "centred", "point"])
@pytest.mark.parametrize("name", LINEAR)
def test_linear_kernel_matches_decimal_oracle(name, kind, n):
    """Each integer kernel contains the exact images of sampled members.
    Against its Decimal interval oracle: an exact kernel has the oracle's
    midpoints, and its rad and v_err sum to the oracle's error part up to
    the oracle's upward rounding; a rounding one is off by at most its one
    outward rounding, N + 1 units of its scale, in its midpoints and its
    radius.  Both have the oracle's v_high, and a v_err (which holds no
    radius) at most the oracle's, up to their upward roundings."""
    rng = random.Random(f"linear-{name}-{kind}-{n}")
    for _ in range(2 if n == 40 else 4):
        new, ref, images = _linear_case(rng, name, n, kind)
        with decimal.localcontext(EXACT):
            assert all(_membership_excess(new, p) <= 0 for p in images)
        assert new.truncation == ref.truncation
        ulp = 4 * _ulp(Interval(_mass(ref), _mass(ref)))
        rounding = 0 if name in EXACT_LINEAR else (n + 1) * _unit(new)
        _check_l1(new, ref, rounding, rounding + _oracle_rounding(ref, 2) + ulp)
        assert EXACT.subtract(ref.v_high, ulp) <= new.v_high <= EXACT.add(ref.v_high, ulp)
        assert new.v_err <= EXACT.add(ref.v_err, ulp)


def _nearest(c, b, n):
    """int_outward with each midpoint rounded to nearest and the remainder
    left out of the radius: an inward rounding."""
    cut = fb._cut(c, b, n)
    if cut <= 0:
        return b
    unit = 10 ** cut
    return fb.IntBall([(m + unit // 2) // unit for m in b.mid], -(-b.rad // unit),
                      b.scale - cut, b.v_high, b.v_err)


def test_linear_kernels_negative_control(monkeypatch):
    """Midpoints rounded to nearest instead of outward make each rounding
    kernel miss a sampled member; with the outward rounding none misses."""
    rounding = [name for name in LINEAR if name not in EXACT_LINEAR]
    assert all(_linear_misses(name) == 0 for name in rounding)
    monkeypatch.setattr(fb, "int_outward", _nearest)
    for name in rounding:
        assert _linear_misses(name) > 0, name


def _positive_quadratic(n: int) -> fb.FunctionBall:
    """Argument h = c + r u with u = (0.3 +- 0.001)(1 + X + X**2): every
    coefficient and every product stays positive, so interval and
    midpoint-radius arithmetic are tight at the all-upper member, and
    theta = 0.903 leaves a large mass above N + 8 in f o h.  Its three
    coefficients have equal half-widths, a third of rad each."""
    u = Interval(Decimal("0.299"), Decimal("0.301"))
    with decimal.localcontext(EXACT):
        coeffs = [Interval(DOM.center + DOM.radius * u.lo, DOM.center + DOM.radius * u.hi)]
        coeffs += [Interval(DOM.radius * u.lo, DOM.radius * u.hi)] * 2
    return interval_ball(coeffs + [IZERO] * (n - 2))


def _upper(h: fb.FunctionBall) -> list[Decimal]:
    """The all-upper member of a :func:`_positive_quadratic` argument, which
    spends its rad in full."""
    return [m + _radius(h) / 3 for m in _mids(h)[:3]]


def _no_spill(int_mul):
    """int_mul whose v_high forgets the product's mass above degree n."""
    def product(c, f, g, n):
        whole = int_mul(c, f, g, len(f.mid) + len(g.mid))
        return dataclasses.replace(int_mul(c, f, g, n), v_high=whole.v_high)
    return product


def test_giant_steps_negative_control(monkeypatch):
    """At N = 80 a composition takes 3 giant steps.  The all-upper member
    of f o h lies in the composed ball; giant products that drop the
    radius of U = u**m, or drop their spill above N + 8 from v_high, miss
    it."""
    n = 80
    h = _positive_quadratic(n)
    f = interval_ball([Interval(Decimal(1), Decimal(1))] * (n + 1))
    table = fb.power_table(ctx, h)
    assert -(-(n + 1) // len(table.mid[0])) - 1 == 3
    with decimal.localcontext(EXACT):
        upper = _exact_compose([Decimal(1)] * (n + 1), _upper(h))
        assert _membership_excess(table.compose(ctx, f), upper) <= 0
        giant = table.giant
        pointed = dataclasses.replace(
            table, giant=fb.IntBall(giant.mid, 0, giant.scale, giant.v_high, giant.v_err))
        assert _membership_excess(pointed.compose(ctx, f), upper) > 0
        monkeypatch.setattr(fb, "int_mul", _no_spill(fb.int_mul))
        assert _membership_excess(table.compose(ctx, f), upper) > 0


def test_block_tails_negative_control(monkeypatch):
    """Every block of a composition carries its baby powers' tails, block 0
    included.  An argument with an error tail v_err = 1e-6 has the member
    h + v_err e_0, whose image under the all-ones f lies in the composed ball
    at N = 20 (block 0 alone) and N = 80 (four blocks); blocks that drop
    their v_spill and v_err miss it."""
    dropped = fb.PowerTable._block

    def tailless(self, c, fm, sf):
        return dataclasses.replace(dropped(self, c, fm, sf), v_high=Decimal(0),
                                   v_err=Decimal(0))
    for n in (20, 80):
        h = with_tails(_positive_quadratic(n), 0, "1e-6")
        f = interval_ball([Interval(Decimal(1), Decimal(1))] * (n + 1))
        table = fb.power_table(ctx, h)
        with decimal.localcontext(EXACT):
            upper = _upper(h)
            member = _exact_compose([Decimal(1)] * (n + 1),
                                    [upper[0] + h.v_err] + upper[1:])
            assert _membership_excess(table.compose(ctx, f), member) <= 0
            with monkeypatch.context() as patch:
                patch.setattr(fb.PowerTable, "_block", tailless)
                assert _membership_excess(table.compose(ctx, f), member) > 0, n


@pytest.mark.parametrize("n", [20, 80])
def test_zero_ball_composes_to_zero(n):
    """The zero ball, with no coefficients, is one empty block: through a
    table whose argument has tails it composes to the zero ball, with zero
    tails, and so does its derivative."""
    table = fb.power_table(ctx, with_tails(_positive_quadratic(n), "1e-6", "1e-6"))
    for out in (table.compose(ctx, fb.zero_ball(n)),
                table.compose_derivative(ctx, fb.zero_ball(n))):
        assert not any(out.mid) and out.rad == 0
        assert out.v_high == out.v_err == 0 and out.truncation == n


def test_compose_contract_matches_oracle():
    n = 8
    ident = fb.affine_arg(ctx, n, 1)                  # theta == 1
    wide = fb.affine_arg(ctx, n, 2)                   # theta > 1
    poly = basis_ball(n, 2)
    tailed = fb.inflate(ctx, poly, "0.1")
    for kernel, oracle in ((fb.compose, oracle_compose),
                           (fb.compose_derivative, oracle_compose_derivative)):
        for f, h in ((tailed, ident), (poly, wide), (tailed, wide)):
            for fn in (kernel, oracle):
                with pytest.raises(CompositionContractFailure):
                    fn(ctx, f, h)
    # a polynomial composes at theta == 1; its derivative needs theta < 1
    new, ref = fb.compose(ctx, poly, ident), oracle_compose(ctx, poly, ident)
    assert all(a.re.contains_interval(b.re) for a, b in zip(new.coeffs, ref.coeffs))
    for fn in (fb.compose_derivative, oracle_compose_derivative):
        with pytest.raises(CompositionContractFailure):
            fn(ctx, poly, ident)


def _rand_map(rng, n: int) -> ct.LinearMap:
    rows = [[Decimal(rng.randint(-999, 999)).scaleb(-rng.randint(0, 4)) if rng.random() < 0.8
             else Decimal(0) for _ in range(n + 1)] for _ in range(n + 1)]
    return ct.LinearMap.from_decimals(rows, Decimal(rng.choice([-7, -3, 2, 9])).scaleb(-1))


def _check_apply_lambda(lam, f):
    """The image has the oracle's midpoints and v_high; its rad ||Lam|| rad_f
    and v_err sum to the oracle's error part, in which f's rad rides, up to
    the one outward rounding and the upward roundings of ||Lam||."""
    new, ref = ct.apply_lambda(ctx, lam, f), oracle_apply_lambda(ctx, lam, f)
    unit, ulp = _unit(new), 4 * _ulp(Interval(_mass(ref), _mass(ref)))
    _check_l1(new, ref, (f.truncation + 1) * unit, (f.truncation + 1) * unit + ulp)
    assert new.v_high == ref.v_high and new.v_err <= ref.v_err


@pytest.mark.parametrize("n", [0, 1, 8, 40])
@pytest.mark.parametrize("kind", ["real", "centred"])
def test_apply_lambda_matches_decimal_oracle(n, kind):
    rng = random.Random(f"lam-{n}-{kind}")
    for _ in range(3 if n == 40 else 8):
        _check_apply_lambda(_rand_map(rng, n), _rand_ball(rng, n, kind))


@pytest.mark.parametrize("n, head", [(1, 0), (8, 3), (40, 20)])
def test_block_apply_lambda_matches_decimal_oracle(n, head):
    """A map whose head is smaller than the ball: rows on coefficients
    0..head and the tail scalar, with its own digits, on those above."""
    rng = random.Random(f"block-{n}-{head}")
    for _ in range(3 if n == 40 else 8):
        lam = _rand_map(rng, head)
        lam = ct.LinearMap.from_decimals(lam.matrix, Decimal(rng.randint(-999, 999)).scaleb(-6))
        _check_apply_lambda(lam, _rand_ball(rng, n, rng.choice(["real", "centred"])))


@pytest.mark.parametrize("n", [0, 1, 8, 40])
def test_lambda_norm_is_exact_norm_rounded_up_once(n):
    """The integer form of a map is its entries exactly, and its norm bound
    is the exact l1 operator norm rounded up once: within one ulp above
    it, and no larger than column sums rounded up term by term."""
    rng = random.Random(f"norm-{n}")
    rounded = 0
    for i in range(8):
        lam = _rand_map(rng, n)
        if i % 2:
            # 39-digit entries at scattered scales: column sums need more than P digits
            rows = [[Decimal(rng.randint(-10 ** 39, 10 ** 39)).scaleb(-rng.randint(30, 60))
                     for _ in row] for row in lam.matrix]
            lam = ct.LinearMap.from_decimals(rows, lam.tail_scalar)
        unit = Fraction(1, 10 ** lam.scale)
        assert [[x * unit for x in row] for row in lam.rows] == \
            [[Fraction(x) for x in row] for row in lam.matrix]
        assert lam.tail * unit == Fraction(lam.tail_scalar)
        exact = max([abs(Fraction(lam.tail_scalar))]
                    + [sum(abs(Fraction(x)) for x in col) for col in zip(*lam.matrix)])
        bound = ct.lambda_norm_upper(ctx, lam)
        assert exact <= Fraction(bound) <= exact + Fraction(_ulp(Interval(bound, bound)))
        rounded += Fraction(bound) > exact
        termwise = Decimal(0)
        for col in zip(*lam.matrix):
            total = Decimal(0)
            for x in col:
                total = ctx.add_up(total, x.copy_abs())
            termwise = max(termwise, total)
        assert bound <= max(termwise, lam.tail_scalar.copy_abs())
    assert rounded or n == 0


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
