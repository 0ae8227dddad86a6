import decimal
import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import (
    REF_A,
    basis_ball,
    domain_points,
    eval_member,
    eval_member_derivative,
    evaluate_derivative,
    holds_polynomial,
    interval_ball,
    member_product,
    midpoint,
    oracle_compose,
    rand_decimal,
    rand_interval,
    rand_poly_ball,
    rounding_part,
    sample_member,
    sample_point,
    with_tails,
)
from renormcert import balls as fb
from renormcert import pipeline as pl
from renormcert.errors import (
    CompositionContractFailure,
    ConfigError,
    DomainMismatch,
    IndexBeyondTruncation,
    PointOutsideDomain,
)
from renormcert.rounding import EXACT, IZERO, Interval, RoundingContext, interval, rectangle

ctx = RoundingContext(30)
DOM = fb.STANDARD_DISC
N = 8
WIDE = decimal.Context(prec=60)


def test_norm_examples():
    f = fb.ball_from_decimals(DOM, ["1", "-2"], N)
    f = with_tails(f, "0.5", 0)
    assert fb.norm_upper(ctx, f) == Decimal("3.5")
    assert fb.norm_upper(ctx, fb.zero_ball(N)) == 0
    for k in range(N + 1):
        assert fb.norm_upper(ctx, basis_ball(N, k)) == 1


def test_linear_ops():
    f = rand_poly_ball(random.Random(0), N, 5)
    z = fb.add(ctx, f, fb.zero_ball(N))
    assert all(z.coeffs[k].re == f.coeffs[k].re for k in range(N + 1))
    e2 = basis_ball(N, 2)
    d = fb.sub(ctx, e2, e2)
    assert fb.norm_upper(ctx, d) == 0
    # f + (-1)*f contains zero with doubled tail budgets
    g = fb.inflate(ctx, f, "0.25")
    s = fb.add(ctx, g, fb.scale(ctx, Decimal(-1), g))
    assert all(s.coeffs[k].re.contains(0) for k in range(N + 1))
    assert s.v_err == Decimal("0.5")


def test_domain_mismatch():
    f = fb.const_ball(N, 1)
    g = fb.const_ball(N + 1, 1)
    with pytest.raises(DomainMismatch):
        fb.add(ctx, f, g)


def test_mul_basis():
    e1 = basis_ball(N, 1)
    p = fb.mul(ctx, e1, e1)
    assert p.coeffs[2].re == interval(1)
    assert p.v_high == 0 and p.v_err == 0
    one = fb.const_ball(N, 1)
    f = rand_poly_ball(random.Random(1), N, 6)
    q = fb.mul(ctx, f, one)
    assert all(q.coeffs[k].re.contains_interval(f.coeffs[k].re) for k in range(N + 1))


def test_mul_spill_goes_high():
    # degree-5 times degree-5 at N=8: degrees 9, 10 spill into v_high only
    rng = random.Random(2)
    f = rand_poly_ball(rng, N, 5)
    g = rand_poly_ball(rng, N, 5)
    p = fb.mul(ctx, f, g)
    assert p.v_high > 0
    assert p.v_err == 0
    # within-truncation product stays exact: degree 2 * degree 3 at N=8
    p2 = fb.mul(ctx, rand_poly_ball(rng, N, 2), rand_poly_ball(rng, N, 3))
    assert p2.v_high == 0 and p2.v_err == 0


def _interval_ball(rng, degree: int) -> fb.FunctionBall:
    """Exact-free polynomial ball: random real interval coefficients."""
    return interval_ball([rand_interval(rng, 1.0) for _ in range(degree + 1)], n=N)


def _mul_sampling_misses(seed: int) -> int:
    """Sampling oracle for mul: sampled members of point and interval balls,
    their exact product evaluated at random points; counts the values the
    product ball fails to enclose."""
    rng = random.Random(seed)
    misses = 0
    for _ in range(12):
        for f, g in ((rand_poly_ball(rng, N, 5), rand_poly_ball(rng, N, 5)),
                     (_interval_ball(rng, 4), _interval_ball(rng, 4))):
            p = fb.mul(ctx, f, g)
            fm, gm = sample_member(rng, f), sample_member(rng, g)
            hm = member_product(fm, gm, 120)
            for z in domain_points(rng, 10):
                val = eval_member(hm, z, 120)
                misses += not fb.evaluate(ctx, p, rectangle(z)).re.contains(val)
    return misses


def test_mul_sampling_oracle():
    assert _mul_sampling_misses(3) == 0


def test_mul_sampling_oracle_negative_control(monkeypatch):
    """A product kernel that drops the factors' radii fails the oracle."""
    int_mul = fb.int_mul
    monkeypatch.setattr(fb, "int_mul", lambda c, f, g, n: replace(int_mul(c, f, g, n), rad=0))
    assert _mul_sampling_misses(3) > 0


def test_norm_submultiplicative():
    rng = random.Random(4)
    for _ in range(50):
        f = fb.inflate(ctx, rand_poly_ball(rng, N, 4), "0.01")
        g = fb.inflate(ctx, rand_poly_ball(rng, N, 4), "0.02")
        lhs = fb.norm_upper(ctx, fb.mul(ctx, f, g))
        rhs = ctx.mul_up(fb.norm_upper(ctx, f), fb.norm_upper(ctx, g))
        assert lhs <= rhs * Decimal("1.000000000000000001")


def test_theta_values():
    ident = fb.affine_arg(ctx, N, 1)
    assert fb.theta(ctx, ident) == 1
    assert fb.theta(ctx, fb.const_ball(N, 1)) == 0
    # affine argument with the published scaling constant squared
    a = Decimal(REF_A[:22])
    a2 = ctx.mul_up(a, a)
    th = fb.theta(ctx, fb.affine_arg(ctx, N, a2))
    assert Decimal("0.4957") < th < Decimal("0.4959")


def test_affine_arg_coeffs():
    ident = fb.affine_arg(ctx, N, 1)
    assert ident.coeffs[0].re == interval(1)
    assert ident.coeffs[1].re == interval("2.5")
    zero = fb.affine_arg(ctx, N, 0)
    assert fb.norm_upper(ctx, zero) == 0
    a = Decimal(REF_A[:22])
    a2 = ctx.mul_up(a, a)
    aff = fb.affine_arg(ctx, N, a2)
    assert str(aff.coeffs[0].re.lo)[:9] == "0.1596284"
    assert str(aff.coeffs[1].re.lo)[:9] == "0.3990711"


def test_compose_basics():
    rng = random.Random(5)
    h = rand_poly_ball(rng, N, 3, coeff_scale=0.4)
    e1 = basis_ball(N, 1)
    c = fb.compose(ctx, e1, h)
    u = fb.normalized_argument(ctx, h)
    assert all(c.coeffs[k].re == u.coeffs[k].re for k in range(N + 1))
    ident = fb.affine_arg(ctx, N, 1)
    f = rand_poly_ball(rng, N, 4)
    cf = fb.compose(ctx, f, ident)
    for k in range(N + 1):
        assert cf.coeffs[k].re.contains_interval(f.coeffs[k].re)


def test_compose_contract_failure():
    f = fb.inflate(ctx, basis_ball(N, 2), "0.1")
    ident = fb.affine_arg(ctx, N, 1)  # theta == 1
    with pytest.raises(CompositionContractFailure):
        fb.compose(ctx, f, ident)
    # pure polynomial composition tolerates theta == 1
    fb.compose(ctx, basis_ball(N, 2), ident)


def _interval_argument(rng, degree: int) -> fb.FunctionBall:
    """Real argument of the given degree near the disc centre, with
    interval coefficients of radius up to 9e-4."""
    coeffs = []
    for k in range(degree + 1):
        mid = (Decimal(1) if k == 0 else Decimal(0)) + rand_decimal(rng, 0.3 / 2 ** k)
        rad = Decimal(rng.randint(1, 9)).scaleb(-4)
        coeffs.append(interval(mid - rad, mid + rad))
    return interval_ball(coeffs, n=N)


def _compose_sampling_misses(seed: int, derivative: bool = False) -> int:
    """Sampling oracle for compose (or compose_derivative): sampled members
    of f (tails included) and of exact affine and quadratic interval
    arguments, composed exactly and evaluated at random points; counts the
    values the composed ball fails to enclose.  f's tails are small, so they
    do not mask the argument's radius."""
    rng = random.Random(seed)
    kernel, value = ((fb.compose_derivative, eval_member_derivative) if derivative
                     else (fb.compose, eval_member))
    misses = 0
    for i in range(12):
        coeffs = [c.re for c in rand_poly_ball(rng, N, 4).coeffs]
        if i % 2:
            # no linear term: the argument's radius reaches the result only
            # through the powers u**k, k >= 2, that the table computes
            coeffs[1] = IZERO
            h = _interval_argument(rng, 2)
        else:
            s = Decimal(rng.randint(100, 350)) / Decimal(1000)
            h = fb.affine_arg(ctx, N, s)
        f = interval_ball(coeffs, "1e-6", "1e-6")
        comp = kernel(ctx, f, h)
        fm, hm = sample_member(rng, f), sample_member(rng, h)
        for z in domain_points(rng, 10):
            val = value(fm, eval_member(hm, z, 120), 120)
            misses += not fb.evaluate(ctx, comp, rectangle(z)).re.contains(val)
    return misses


def test_compose_sampling_oracle():
    assert _compose_sampling_misses(6) == 0


def test_compose_sampling_oracle_negative_control(monkeypatch):
    """A power table whose steps drop the radius each power carries (the
    outward bump of the rounding included) fails the oracle."""
    def midpoints_only(c, b, n):
        return fb.IntBall(b.mid, 0, b.scale, b.v_high, b.v_err)
    monkeypatch.setattr(fb, "int_outward", midpoints_only)
    assert _compose_sampling_misses(6) > 0


def _block_escapes(seed: int) -> int:
    """Sampled members of f o h at N=40, P=40 whose exact images are not
    members of the composed ball (helpers.holds_polynomial).  h = c + s r e_1
    for a short s, so u = s e_1 and coefficient k of f o h is f_k s**k
    exactly; f has coefficients with 40 digits after the point, so every
    block of the composition has more digits than the 42 a ball keeps.
    f is exact, or has coefficient radii of 0 to 3 units there.  Members
    of f: its lower ends, its upper ends and sampled members, formed
    exactly."""
    wide, n = RoundingContext(40), 40
    rng = random.Random(seed)
    unit = Decimal(10) ** -40
    escapes = 0
    with decimal.localcontext(EXACT):
        for s in (Decimal("0.5"), Decimal(rng.randint(100, 900)) / 1000):
            h = fb.ball_from_decimals(DOM, [DOM.center, s * DOM.radius], n)
            mids = [rng.randint(-10**40, 10**40) * unit for _ in range(n + 1)]
            for rads in ([0] * (n + 1), [rng.randint(0, 3) * unit for _ in range(n + 1)]):
                f = interval_ball([Interval(m - r, m + r) for m, r in zip(mids, rads)])
                comp = fb.compose(wide, f, h)
                members = [dict(enumerate(m - r for m, r in zip(mids, rads))),
                           dict(enumerate(m + r for m, r in zip(mids, rads)))]
                members += [sample_member(rng, f) for _ in range(4)]
                for member in members:
                    image = [member.get(k, 0) * s ** k for k in range(max(member) + 1)]
                    escapes += not holds_polynomial(comp, image, n)
    return escapes


def test_compose_n40_sampling_oracle():
    """Every sampled member of f o h lies in the composed ball at N=40,
    where each block of the composition is rounded outward before it
    joins the Horner accumulator."""
    assert _block_escapes(40) == 0


def test_compose_n40_block_rounded_to_nearest_lets_a_member_escape(monkeypatch):
    """Negative control: blocks rounded to nearest at the scale
    int_outward gives them, without their remainders in the radii, let a
    sampled member escape."""
    exact_block = fb.PowerTable._block

    def nearest_block(self, ctx, fm, sf):
        b = exact_block(self, ctx, fm, sf)
        cut = fb._cut(ctx, b, len(self.mid) - 1)
        if cut <= 0:
            return b
        unit = 10 ** cut
        return fb.IntBall([(x + unit // 2) // unit for x in b.mid], -(-b.rad // unit),
                          b.scale - cut, b.v_high, b.v_err)
    monkeypatch.setattr(fb.PowerTable, "_block", nearest_block)
    assert _block_escapes(40) > 0


def test_compose_derivative_basics():
    e2 = basis_ball(N, 2)
    d = fb.compose_derivative(ctx, e2, fb.const_ball(N, 1))
    assert fb.norm_upper(ctx, d) == 0
    ident = fb.affine_arg(ctx, N, 1)
    h = fb.scale(ctx, Decimal("0.3"), ident)
    d2 = fb.compose_derivative(ctx, ident, h)
    assert d2.coeffs[0].re.contains(1)
    assert all(c.re.mag == 0 for c in d2.coeffs[1:])


def test_compose_derivative_sampling_oracle():
    assert _compose_sampling_misses(7, derivative=True) == 0


def test_eval_basics():
    for k in range(1, N + 1):
        out = fb.evaluate(ctx, basis_ball(N, k), rectangle(1))
        assert out.re.contains(0) and out.re.mag == 0
    one = fb.const_ball(N, 1)
    out = fb.evaluate(ctx, one, rectangle("3.2"))
    assert out.re.contains(1)
    with pytest.raises(PointOutsideDomain):
        fb.evaluate(ctx, one, rectangle("3.6"))


def _eval_sampling_misses(seed: int, derivative: bool = False) -> int:
    """Sampling oracle for evaluate (or evaluate_derivative): sampled members
    of point and interval balls, some with tails, evaluated exactly at random
    points of the disc and at points near its centre; counts the values the
    enclosure misses.  The point balls have no constant term, and half of
    them no linear term, so their values (or derivatives) near the centre
    are small against the coefficients and the output rounding to working
    precision cannot hide a step, or an argument, rounded inward."""
    rng = random.Random(seed)
    kernel, value = ((evaluate_derivative, eval_member_derivative) if derivative
                     else (fb.evaluate, eval_member))
    misses = 0
    for i in range(12):
        if i % 2:
            f = _interval_ball(rng, 6)
        else:
            f = rand_poly_ball(rng, N, 6)
            low = 2 if i % 4 else 1
            f = interval_ball([IZERO] * low + [c.re for c in f.coeffs[low:]],
                              f.v_high, f.v_err)
        if i % 3 == 2:
            f = fb.inflate(ctx, f, "1e-6")
        fm = sample_member(rng, f)
        # 32 digits after the point: u = (z - c)/r needs rounding
        near = [WIDE.add(DOM.center, Decimal(rng.randint(-10 ** 28, 10 ** 28)).scaleb(-32))
                for _ in range(5)]
        for z in near + domain_points(rng, 5):
            val = value(fm, z, 120)
            misses += not kernel(ctx, f, rectangle(z)).re.contains(val)
    return misses


def test_eval_sampling_oracle():
    assert _eval_sampling_misses(10) == 0
    assert _eval_sampling_misses(11, derivative=True) == 0


def test_eval_sampling_oracle_negative_control(monkeypatch):
    """Pointwise Horner that truncates toward zero, instead of flooring lower
    and ceiling upper ends, fails the oracle."""
    def toward_zero(lo, hi, unit):
        return tuple(-(-x // unit) if x < 0 else x // unit for x in (lo, hi))
    monkeypatch.setattr(fb, "_outward", toward_zero)
    assert _eval_sampling_misses(10) > 0
    assert _eval_sampling_misses(11, derivative=True) > 0


def test_eval_disc_boundary():
    """The closed disc test is exact: a point on the circle |z - c| = r is
    accepted by evaluate, and by evaluate_derivative for a polynomial, but
    not for a ball with tails, whose derivative bound needs |z - c| < r; a
    point or box just outside is rejected by both."""
    f = rand_poly_ball(random.Random(9), N, 5)
    tailed = fb.inflate(ctx, f, "1e-6")
    ev = fb.point_evaluator(ctx, tailed)
    on = [rectangle("3.5"), rectangle("-1.5"), rectangle("2.5", "2"), rectangle(1, "-2.5"),
          rectangle(interval("-1.5", "3.5"))]
    for z in on:
        p = ev.read(ctx.to_box(z, ev.point_scale))
        assert ev.in_disc(p) and not ev.in_disc(p, strict=True)
        for ball in (f, tailed):
            assert fb.evaluate(ctx, ball, z).re.hi.is_finite()
        assert evaluate_derivative(ctx, f, z).re.hi.is_finite()
        with pytest.raises(PointOutsideDomain):
            evaluate_derivative(ctx, tailed, z)
    outside = [rectangle("3.50000000000000000000000000001"),
               rectangle("-1.50000000000000000000000000001"),
               rectangle("2.5", "2.00000000000000000000000000001"),
               rectangle(interval("0", "3.5"), interval("0", "1e-30"))]
    for z in outside:
        assert not ev.in_disc(ev.read(ctx.to_box(z, ev.point_scale)))
        for fn in (fb.evaluate, evaluate_derivative):
            for ball in (f, tailed):
                with pytest.raises(PointOutsideDomain):
                    fn(ctx, ball, z)


def test_eval_isotonic_in_argument():
    rng = random.Random(8)
    f = fb.inflate(ctx, rand_poly_ball(rng, N, 5), "0.001")
    big = rectangle(interval("0.5", "1.5"))
    small = rectangle(interval("0.7", "1.2"))
    out_b = fb.evaluate(ctx, f, big)
    out_s = fb.evaluate(ctx, f, small)
    assert out_b.re.contains_interval(out_s.re)


def test_coefficient():
    e3 = basis_ball(N, 3)
    assert fb.coefficient(ctx, e3, 3).re == interval(1)
    assert fb.coefficient(ctx, e3, 0).re == interval(0)
    with pytest.raises(IndexBeyondTruncation):
        fb.coefficient(ctx, e3, N + 1)
    g = fb.inflate(ctx, e3, "0.5")
    c0 = fb.coefficient(ctx, g, 0)
    assert c0.re == interval("-0.5", "0.5")


def test_inflate():
    f = rand_poly_ball(random.Random(9), N, 3)
    assert fb.inflate(ctx, f, 0) == f
    u = fb.inflate(ctx, fb.zero_ball(N), 1)
    assert fb.norm_upper(ctx, u) == 1


@pytest.mark.parametrize("radius", ["abc", "nan", "inf"])
def test_inflate_refuses_a_radius_that_is_not_a_finite_number(radius):
    with pytest.raises(ConfigError, match="inflation radius"):
        fb.inflate(ctx, fb.zero_ball(N), radius)


def _fraction_ball(b: fb.IntBall) -> tuple[list[Fraction], Fraction]:
    """b's midpoints and rad as exact fractions."""
    unit = Fraction(1, 10 ** b.scale)
    return [m * unit for m in b.mid], b.rad * unit


def _l1(a: list[Fraction], b: list[Fraction]) -> Fraction:
    """||a - b|| over every degree."""
    size = max(len(a), len(b))
    return sum(abs(x - y) for x, y in zip(a + [0] * (size - len(a)), b + [0] * (size - len(b))))


def _fraction_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _rounding(rng, b: fb.IntBall, n: int) -> list[Fraction]:
    """A rounding part of b, ||d|| <= rad at degrees 0..n + 3, exact."""
    d = [Fraction(0)] * (n + 4)
    if b.rad:
        for k, c in rounding_part(rng, b.rad, b.scale, range(n + 4)).items():
            d[k] = Fraction(c)
    return d


def test_int_mul_and_int_outward_radius_bound_exact_fractions():
    """In exact fractions: the product of members f_P + d_f and g_P + d_g
    is int_mul's midpoints (degrees 0..N, exactly), its spill above N
    (within v_high) and a rest within rad of them at any degree; rounding
    it outward moves its midpoints by at most the new rad minus the old.
    The product's bound is met with equality by nonnegative midpoints and
    rounding parts at degree 0, so rad is no wider than it needs to be;
    the outward rounding (at 6 digits, so that it cuts) adds less than one
    unit of its scale beyond the midpoints' move."""
    rng = random.Random(43)
    narrow, rounded = RoundingContext(6), 0
    for i in range(40):
        n = rng.choice([0, 1, 4, 12, 40])
        f = interval_ball([rand_interval(rng, 4.0) for _ in range(rng.randint(1, n + 1))], n=n)
        g = interval_ball([rand_interval(rng, 4.0) for _ in range(rng.randint(1, n + 1))], n=n)
        if i % 4 == 0:
            f, g = (interval_ball([Interval(abs(c.re.lo), abs(c.re.lo) + abs(c.re.hi))
                                   for c in b.coeffs[:len(b.mid) or 1]], n=n) for b in (f, g))
        prod = fb.int_mul(ctx, f, g, n)
        (fm, fr), (gm, gr), (pm, pr) = map(_fraction_ball, (f, g, prod))
        exact = _fraction_product(fm, gm)
        assert pm + [0] * (n + 1 - len(pm)) == (exact + [0] * (n + 1))[:n + 1]
        assert sum(map(abs, exact[n + 1:])) <= Fraction(prod.v_high)
        worst = Fraction(0)
        for _ in range(6):
            df, dg = _rounding(rng, f, n), _rounding(rng, g, n)
            member = _fraction_product([a + b for a, b in zip(fm + [0] * (n + 4), df)],
                                       [a + b for a, b in zip(gm + [0] * (n + 4), dg)])
            worst = max(worst, _l1(member, exact))
            assert worst <= pr
        if i % 4 == 0:
            # nonnegative midpoints, both rounding parts in full at degree 0
            df, dg = [fr] + [0] * (n + 3), [gr] + [0] * (n + 3)
            member = _fraction_product([a + b for a, b in zip(fm + [0] * (n + 4), df)],
                                       [a + b for a, b in zip(gm + [0] * (n + 4), dg)])
            assert _l1(member, exact) == pr
        out = fb.int_outward(narrow, prod, n)
        om, orad = _fraction_ball(out)
        rounded += out.scale < prod.scale
        assert _l1(pm, om) + pr <= orad
        assert orad - pr - _l1(pm, om) < Fraction(1, 10 ** out.scale)
    assert rounded > 30


def test_int_sqr_radius_bound_exact_fractions():
    """In exact fractions: the square of a member f_P + d is int_sqr's
    midpoints (degrees 0..N, exactly), its spill above N (within v_high)
    and a rest within rad = 2 ||f_P|| rad_f + rad_f**2 of them at any
    degree, which nonnegative midpoints with d in full at degree 0 meet
    with equality."""
    rng = random.Random(44)
    for i in range(24):
        n = rng.choice([0, 1, 4, 12, 40])
        f = interval_ball([rand_interval(rng, 4.0) for _ in range(rng.randint(1, n + 1))], n=n)
        if i % 3 == 0:
            f = interval_ball([Interval(abs(c.re.lo), abs(c.re.lo) + abs(c.re.hi))
                               for c in f.coeffs[:len(f.mid) or 1]], n=n)
        sq = fb.int_sqr(ctx, f, n)
        (fm, fr), (pm, pr) = _fraction_ball(f), _fraction_ball(sq)
        exact = _fraction_product(fm, fm)
        assert pm + [0] * (n + 1 - len(pm)) == (exact + [0] * (n + 1))[:n + 1]
        assert sum(map(abs, exact[n + 1:])) <= Fraction(sq.v_high)
        parts = [_rounding(rng, f, n) for _ in range(4)]
        if i % 3 == 0:
            parts.append([fr] + [0] * (n + 3))
        for d in parts:
            member = [a + b for a, b in zip(fm + [0] * (n + 4), d)]
            assert _l1(_fraction_product(member, member), exact) <= pr
        if i % 3 == 0:
            assert _l1(_fraction_product(member, member), exact) == pr


def test_centres_serialize_as_with_coefficient_radii(desk, n40):
    """An exact centre writes the text it wrote when a ball held one radius
    per coefficient: the sha256 of the desk (N=20, P=30) g0, pinned from
    that layout.  The N=40 (P=40) and N=80 (P=60) g0 are pinned from the
    bootstrap whose lower rungs run at their own precision and whose
    corrections run on coarse views; they moved by at most 8.4e-45 and
    2.2e-64, below 10**-(P+4), from the centres the full-precision
    bootstrap made.  The eigen centres are pinned from the bootstrap that
    reads the fixed-point certificate's tables; they moved by at most
    3.6e-29, 3.1e-39 and 1.5e-59 at desk, N=40 and N=80, below
    10**-(P-2), from those read off a midpoint build of g0."""
    assert {name: fb.ball_checksum(b) for name, b in
            (("g0", desk.G0), ("delta0", desk.V0), ("gamma0", desk.W0))} == {
        "g0": "aefd45103c30a87a2809239622cd1954709e7bd27da224010eb434aad9393208",
        "delta0": "5746064e7b07cfa656e21f47ffd88a7dbfe8766b2da9113c0b530cec79b11790",
        "gamma0": "67ee83ac4690c1186d960ccac72317ae5426b417afaae85bf3b34f96578855db"}
    assert n40.result.report["checksums"] == {
        "g0": "be740e5641456516a231ee867db6290bed627bf6500694b52264453b948d4711",
        "delta0": "1e028fb1ae41d05a1c67d679f56b5465b680432b7c0b3fc7920a2ea45d135402",
        "gamma0": "bec05248e4785995cbd27d572d1b581bdb402034fafc1d26263217ed7281e448"}
    centres, _ = pl.bootstrap(pl.RunConfig(degree=80))
    assert {name: fb.ball_checksum(centres[target]) for name, target in
            (("g0", "fixed_point"), ("delta0", "delta"), ("gamma0", "gamma"))} == {
        "g0": "bcd3f967a04aa30dbdd9824950218ab7f14768acc6e3c95cea267b49ae17e2ab",
        "delta0": "cf55bde1ce2570b753a11b6cda8798aa5dae58836d04528c0d149c3a709316f4",
        "gamma0": "23c314ad96e99df803f38480910d9a19b984140e0d011474a932f4480ff7b7b7"}


def test_ball_with_radius_reloads_with_its_members():
    """A ball with rad > 0 writes its midpoints and rad + v_err as the error
    part; read back, it holds every sampled member of the ball it was."""
    rng = random.Random(44)
    for _ in range(6):
        f = fb.mul(ctx, _interval_ball(rng, 6), fb.inflate(ctx, _interval_ball(rng, 3), "1e-7"))
        assert f.rad > 0
        back = fb.deserialize_ball(fb.serialize_ball(f))
        assert back.rad == 0 and back.v_high == f.v_high
        assert back.v_err == f.v_err + Decimal(f.rad).scaleb(-f.scale, EXACT)
        for _ in range(20):
            member = sample_member(rng, f)
            coeffs = [member.get(k, Decimal(0)) for k in range(max(member) + 1)]
            assert holds_polynomial(back, coeffs, N)


def test_v1_file_with_coefficient_intervals_reads_as_a_ball_holding_them():
    """A v1 file whose coefficients are intervals lo < hi reads as their
    midpoints with rad the sum of their half-widths: every polynomial with
    coefficients in the boxes, at their corners too, is a member."""
    rng = random.Random(45)
    for _ in range(10):
        boxes = [rand_interval(rng, 2.0) for _ in range(N + 1)]
        lines = ["renormcert-ball v1", "center 1", "radius 2.5", f"truncation {N}",
                 "v_high 0", "v_err 0"] + [f"coeff {b.lo} {b.hi} 0 0" for b in boxes]
        f = fb.deserialize_ball("\n".join(lines) + "\n")
        with decimal.localcontext(EXACT):
            assert Decimal(f.rad).scaleb(-f.scale) == sum((b.hi - b.lo for b in boxes),
                                                          Decimal(0)) / 2
            for _ in range(10):
                corner = [rng.choice((b.lo, b.hi)) for b in boxes]
                inside = [sample_point(rng, b) for b in boxes]
                assert holds_polynomial(f, corner, N) and holds_polynomial(f, inside, N)


def test_serialization_roundtrip():
    rng = random.Random(10)
    f = fb.inflate(ctx, rand_poly_ball(rng, N, 6), "1e-9")
    text = fb.serialize_ball(f)
    assert fb.serialize_ball(fb.deserialize_ball(text)) == text


@pytest.mark.parametrize("line", ["center 0", "radius 1"])
def test_deserialize_refuses_other_disc(line):
    """A ball read from outside must name the standard disc."""
    text = fb.serialize_ball(rand_poly_ball(random.Random(15), N, 4))
    key = line.split()[0]
    assert f"{key} {getattr(DOM, key)}\n" in text
    with pytest.raises(ConfigError, match="lives on"):
        fb.deserialize_ball(text.replace(f"{key} {getattr(DOM, key)}\n", line + "\n"))


def test_deserialize_reads_the_standard_disc_in_any_spelling():
    """radius 2.50 is the standard disc: the same ball, written back in the
    standard spelling, so its checksum is unchanged."""
    f = fb.inflate(ctx, rand_poly_ball(random.Random(16), N, 4), "1e-9")
    text = fb.serialize_ball(f)
    g = fb.deserialize_ball(text.replace("radius 2.5\n", "radius 2.50\n"))
    assert g == fb.deserialize_ball(text)
    assert fb.ball_checksum(g) == fb.ball_checksum(f)


def test_ball_from_decimals_refuses_other_disc():
    with pytest.raises(ConfigError):
        fb.ball_from_decimals(fb.Disc(Decimal(0), Decimal(1)), ["1", "2"], N)


def test_power_table_matches_compose():
    # the table composition and Horner evaluation in Decimal ball arithmetic
    # enclose the same composition; they must agree on every sampled member
    # value even though their widths differ slightly
    rng = random.Random(12)
    h = rand_poly_ball(rng, N, 3, coeff_scale=0.3)
    table = fb.power_table(ctx, h)
    f = fb.inflate(ctx, rand_poly_ball(rng, N, 5), "0.001")
    via_table = table.compose(ctx, f)
    oracle = oracle_compose(ctx, f, h)
    for z in domain_points(rng, 20):
        a = fb.evaluate(ctx, via_table, rectangle(z))
        b = fb.evaluate(ctx, oracle, rectangle(z))
        mid = midpoint(b.re)
        assert a.re.lo <= mid <= a.re.hi
    for _ in range(10):
        fm = sample_member(rng, f)
        hm = sample_member(rng, h)
        for z in domain_points(rng, 5):
            inner = eval_member(hm, z, 120)
            val = eval_member(fm, inner, 120)
            assert fb.evaluate(ctx, via_table, rectangle(z)).re.contains(val)


def test_power_above_baby_steps_is_refused():
    """power(k) serves the baby powers only, the head columns' images: at
    N = 40 it gives u**20 and refuses u**21 (the giant step), u**30 and
    u**41; at N = 8, where every power up to N is a baby power, it refuses
    u**9."""
    rng = random.Random(13)
    for n in (40, 8):
        h = fb.inflate(ctx, rand_poly_ball(rng, n, 3, coeff_scale=0.3), "1e-6")
        table = fb.power_table(ctx, h)
        last = min(n, fb.BABY_STEPS - 1)
        assert table.power(ctx, last).mid
        for k in (last + 1, 30, n + 1, -1):
            with pytest.raises(IndexBeyondTruncation):
                table.power(ctx, k)


# -- real coefficients -------------------------------------------------------------


def test_non_real_coefficient_is_refused():
    """Balls are real: a coefficient with a non-zero imaginary endpoint is
    refused when a ball is read, and so is a non-real scalar."""
    text = fb.serialize_ball(basis_ball(2, 1))
    assert "coeff 1 1 0 0\n" in text
    with pytest.raises(ConfigError):
        fb.deserialize_ball(text.replace("coeff 1 1 0 0\n", "coeff 1 1 -1e-30 0\n"))
    one = fb.const_ball(N, 1)
    for build in (lambda s: fb.scale(ctx, s, one), lambda s: fb.const_ball(N, s),
                  lambda s: fb.affine_arg(ctx, N, s)):
        build(rectangle("0.5"))
        with pytest.raises(ConfigError):
            build(rectangle("0.5", "1e-30"))


def test_value_at_real_point_is_real():
    """Every member is real on the real axis: at a real point the value and
    the derivative of an inflated ball have imaginary part exactly 0."""
    f = fb.inflate(ctx, rand_poly_ball(random.Random(13), N, 6), "1e-6")
    ev = fb.point_evaluator(ctx, f)
    for z in (rectangle(1), rectangle("-1.2"), rectangle(interval("0.5", "2")),
              rectangle("3.4")):
        p = ev.read(ctx.to_box(z, ev.point_scale))
        value, slope = ev.value(p), ev.derivative(p)
        assert value[2:] == slope[2:] == (0, 0)
        assert value[0] < value[1]


#: radius of the inflation and the points z = 1 + 2.5 i t of the member checks
RHO = Decimal("1e-6")
IMAGINARY_T = ("0.6", "-0.3", "1")


def _shifted_member_misses() -> int:
    """Evaluates the ball f0 inflated by RHO at z = 1 + 2.5 i t, where u = i t;
    counts the points at which the enclosure misses the exact complex
    value of the member f0 + RHO e_1, sum_k f0_k (i t)**k + RHO i t."""
    f0 = rand_poly_ball(random.Random(14), N, 6)
    ev = fb.point_evaluator(ctx, fb.inflate(ctx, f0, RHO))
    misses = 0
    with decimal.localcontext(WIDE):
        for text in IMAGINARY_T:
            t = Decimal(text)
            z = rectangle(1, DOM.radius * t)
            re = sum((c.re.lo * (-1) ** (k // 2) * t ** k
                      for k, c in enumerate(f0.coeffs) if k % 2 == 0), Decimal(0))
            im = sum((c.re.lo * (-1) ** (k // 2) * t ** k
                      for k, c in enumerate(f0.coeffs) if k % 2), RHO * t)
            s = ev.point_scale
            value = ctx.box_rectangle(ev.value(ev.read(ctx.to_box(z, s))), s)
            misses += not (value.re.contains(re) and value.im.contains(im))
    return misses


def test_inflated_ball_contains_member_at_non_real_point():
    assert _shifted_member_misses() == 0


def test_inflated_ball_member_negative_control(monkeypatch):
    """An evaluator that pads only the real part at non-real points misses
    the imaginary part RHO t that the member's tail adds there."""
    widen = fb.PointEvaluator._widen
    monkeypatch.setattr(fb.PointEvaluator, "_widen",
                        lambda self, acc, pad, real: widen(self, acc, pad, True))
    assert _shifted_member_misses() == len(IMAGINARY_T)
