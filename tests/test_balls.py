import decimal
import random
from decimal import Decimal

import pytest

from helpers import (
    REF_A,
    basis_ball,
    domain_points,
    eval_member,
    eval_member_derivative,
    evaluate_derivative,
    interval_ball,
    member_product,
    midpoint,
    oracle_compose,
    rand_decimal,
    rand_interval,
    rand_poly_ball,
    sample_member,
    with_tails,
)
from renormcert import balls as fb
from renormcert.errors import (
    CompositionContractFailure,
    ConfigError,
    DomainMismatch,
    IndexBeyondTruncation,
    PointOutsideDomain,
)
from renormcert.rounding import IZERO, RoundingContext, interval, rectangle

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
    """A product kernel that drops the coefficient radii fails the oracle."""
    monkeypatch.setattr(fb, "_product_radii", lambda fm, fr, gm, gr, n: [])
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
        return fb.IntBall(b.mid, [], b.scale, b.v_high, b.v_err)
    monkeypatch.setattr(fb, "int_outward", midpoints_only)
    assert _compose_sampling_misses(6) > 0


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
