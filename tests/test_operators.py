import decimal
import math
import random
from decimal import Decimal

import pytest

from helpers import REF_A, domain_points, eval_member, sample_member
from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import contraction as ct
from renormcert import operators as op
from renormcert.errors import ContainmentFailure, DepthExceeded
from renormcert.rounding import Interval, Rectangle, RoundingContext, interval, rectangle

ctx = RoundingContext(30)
DOM = fb.STANDARD_DISC


def test_shared_constant_one():
    one = fb.one_ball(DOM, 8)
    s = op.precompute_shared(ctx, one, with_derivatives=False)
    assert s.a.contains(1)
    assert s.inner.coeffs[0].re.contains(1)
    assert fb.norm_upper(ctx, fb.sub(ctx, s.squared, one)) == 0


def test_shared_inflation_widens(desk):
    s0 = op.precompute_shared(ctx, desk.G0, with_derivatives=False)
    s1 = op.precompute_shared(ctx, fb.inflate(ctx, desk.G0, "1e-10"),
                              with_derivatives=False)
    assert s1.a.contains_interval(s0.a)
    for k in range(desk.n + 1):
        assert s1.squared.coeffs[k].re.contains_interval(s0.squared.coeffs[k].re)
    assert s1.theta_squared >= s0.theta_squared


def test_shared_a_matches_reference(desk):
    s = op.precompute_shared(ctx, desk.G0, with_derivatives=False)
    ref = Decimal(REF_A[:16])
    assert abs(ctx.imid(s.a) - ref) < Decimal("1e-13")


def test_apply_T_smoke_toy():
    # a tame affine input for which both composition contracts hold
    toy = fb.ball_from_decimals(DOM, ["0.6", "-1"], 8)   # 1 - 0.4 X
    out = ct.FixedPointProblem().residual(ctx, toy)      # T(toy) - toy
    assert fb.norm_upper(ctx, out).is_finite()
    # the steep classical seed makes the outer composition leave the disc;
    # that is reported as a contract failure, not silently accepted
    from renormcert.errors import CompositionContractFailure
    with pytest.raises(CompositionContractFailure):
        ct.FixedPointProblem().residual(ctx, fb.ball_from_decimals(DOM, ["-0.5", "-3.8"], 8))


def test_apply_T_residual_small(desk):
    r = ct.FixedPointProblem().residual(ctx, desk.G0)
    assert fb.norm_upper(ctx, r) < Decimal("1e-10")


def test_apply_T_pointwise_oracle(desk):
    """Direct high-precision evaluation of the defining expression at member
    polynomials lies inside the pointwise enclosure of the residual T(G) - G."""
    rng = random.Random(21)
    ball = fb.inflate(ctx, desk.G0, "1e-6")
    image = ct.FixedPointProblem().residual(ctx, ball)
    for _ in range(5):
        m = sample_member(rng, ball)
        with decimal.localcontext(decimal.Context(prec=120)):
            a_m = eval_member(m, Decimal(1), DOM, 120)
            for z in domain_points(rng, DOM, 10):
                inner = eval_member(m, a_m * a_m * z, DOM, 120)
                value = eval_member(m, inner * inner, DOM, 120) / a_m \
                    - eval_member(m, z, DOM, 120)
                out = fb.evaluate(ctx, image, rectangle(z))
                assert out.re.contains(value), (z, value, out)


def test_apply_DT_delta_a_terms_vanish(desk):
    """The variation of a = G(1) acts on column 0 only: a column image is
    a**-1 u2**k + factor16 u1**k alone exactly when k >= 1."""
    tables = desk.tables
    s = tables.shared

    def power(table, k):
        return fb.from_int_ball(ctx, DOM, desk.n, table.power(k))

    for k in (0, 1, 2, 5):
        image = tables.dt_basis_image(ctx, k)
        simple = fb.add(ctx, fb.scale(ctx, s.a_inv, power(s.table_squared, k)),
                        fb.mul(ctx, s.factor16, power(s.table_affine, k)))
        agree = all(image.coeffs[i].re.contains(ctx.imid(simple.coeffs[i].re))
                    for i in range(desk.n + 1))
        assert agree == (k != 0), k


def _contains_midpoints(image, ball, n):
    return all(image.coeffs[i].re.contains(ctx.imid(ball.coeffs[i].re)) for i in range(n + 1))


@pytest.mark.parametrize("q, basis_image", [(1, "dt_basis_image"), (2, "l_basis_image")])
def test_column_images_contain_apply(desk, q, basis_image):
    """The integer column path of M_q against its ball apply, for q = 1 (DT)
    and q = 2 (L): basis image k contains the midpoints of M_q e_k."""
    tables = desk.tables
    for k in (0, 1, 2, 5):
        image = getattr(tables, basis_image)(ctx, k)
        applied = tables.apply(ctx, q, fb.basis_ball(DOM, desk.n, k))
        assert _contains_midpoints(image, applied, desk.n), k


def test_l_column_images_with_dt_coefficients_miss_apply(desk, monkeypatch):
    """Negative control: q = 2 column images built with the q = 1
    coefficients (a**-1 and factor16) miss L e_k."""
    tables = desk.tables
    applied = [tables.l_apply(ctx, fb.basis_ball(DOM, desk.n, k)) for k in (0, 1, 2, 5)]
    coefficients = op.SharedEvaluations.coefficients
    monkeypatch.setattr(op.SharedEvaluations, "coefficients",
                        lambda shared, q: coefficients(shared, 1))
    for k, l_e_k in zip((0, 1, 2, 5), applied):
        assert not _contains_midpoints(tables.l_basis_image(ctx, k), l_e_k, desk.n), k


def test_apply_DT_linearity(desk):
    tables = desk.tables
    e1 = fb.basis_ball(DOM, desk.n, 1)
    e3 = fb.basis_ball(DOM, desk.n, 3)
    both = tables.dt_apply(ctx, fb.add(ctx, e1, e3))
    summed = fb.add(ctx, tables.dt_apply(ctx, e1), tables.dt_apply(ctx, e3))
    for k in range(desk.n + 1):
        mid = ctx.imid(both.coeffs[k].re)
        assert summed.coeffs[k].re.lo - Decimal("1e-20") <= mid \
            <= summed.coeffs[k].re.hi + Decimal("1e-20")


def test_apply_DT_pointwise_oracle(desk):
    rng = random.Random(22)
    dG = fb.ball_from_decimals(DOM, ["0.3", "-0.2", "0.1"], desk.n)
    image = desk.tables.dt_apply(ctx, dG)
    m = {k: c.re.lo for k, c in enumerate(desk.param.coeffs)}
    dm = {0: Decimal("0.3"), 1: Decimal("-0.2"), 2: Decimal("0.1")}
    with decimal.localcontext(decimal.Context(prec=120)):
        a = eval_member(m, Decimal(1), DOM, 120)
        da = eval_member(dm, Decimal(1), DOM, 120)
        from helpers import eval_member_derivative
        for z in domain_points(rng, DOM, 25):
            a2z = a * a * z
            g_in = eval_member(m, a2z, DOM, 120)
            u2 = g_in * g_in
            gp_u2 = eval_member_derivative(m, u2, DOM, 120)
            gp_in = eval_member_derivative(m, a2z, DOM, 120)
            t14 = -da * eval_member(m, u2, DOM, 120) / (a * a)
            t15 = eval_member(dm, u2, DOM, 120) / a
            t16 = gp_u2 * 2 * g_in * eval_member(dm, a2z, DOM, 120) / a
            t17 = gp_u2 * 2 * g_in * gp_in * 2 * z * a * da / a
            value = t14 + t15 + t16 + t17
            out = fb.evaluate(ctx, image, rectangle(z))
            assert out.re.contains(value), (z, value, out)


def test_apply_L_basics(desk):
    tables = desk.tables
    zero = fb.zero_ball(DOM, desk.n)
    assert fb.norm_upper(ctx, tables.l_apply(ctx, zero)) == 0
    w = fb.ball_from_decimals(DOM, ["1", "0.5"], desk.n)
    one_w = tables.l_apply(ctx, w)
    two_w = tables.l_apply(ctx, fb.scale(ctx, Decimal(2), w))
    for k in range(desk.n + 1):
        mid = ctx.imid(one_w.coeffs[k].re)
        assert two_w.coeffs[k].re.lo - Decimal("1e-18") <= 2 * mid \
            <= two_w.coeffs[k].re.hi + Decimal("1e-18")


def test_apply_L_pointwise_oracle(desk):
    rng = random.Random(24)
    W = fb.ball_from_decimals(DOM, ["1", "-0.4", "0.2"], desk.n)
    image = desk.tables.l_apply(ctx, W)
    m = {k: c.re.lo for k, c in enumerate(desk.param.coeffs)}
    wm = {0: Decimal("1"), 1: Decimal("-0.4"), 2: Decimal("0.2")}
    from helpers import eval_member_derivative
    with decimal.localcontext(decimal.Context(prec=120)):
        a = eval_member(m, Decimal(1), DOM, 120)
        for z in domain_points(rng, DOM, 25):
            a2z = a * a * z
            g_in = eval_member(m, a2z, DOM, 120)
            u2 = g_in * g_in
            gp_u2 = eval_member_derivative(m, u2, DOM, 120)
            chain = gp_u2 * 2 * g_in
            value = (chain * chain * eval_member(wm, a2z, DOM, 120)
                     + eval_member(wm, u2, DOM, 120)) / (a * a)
            out = fb.evaluate(ctx, image, rectangle(z))
            assert out.re.contains(value), (z, value, out)


def test_apply_L_eigen_ratio(desk):
    """phi(L W*)/phi(W*) must enclose the square of the noise constant."""
    w_ball = fb.inflate(ctx, desk.W0, "1e-7")
    image = desk.tables.l_apply(ctx, w_ball)
    ratio = ctx.idiv(fb.coefficient(ctx, image, 0).re,
                     fb.coefficient(ctx, w_ball, 0).re)
    gamma_sq = ctx.isqr(desk.cert_gamma.enclosures["gamma"])
    assert ratio.lo <= gamma_sq.hi and gamma_sq.lo <= ratio.hi


def test_boundary_cover_covers_circle():
    rng = random.Random(23)
    for m in (8, 64, 256):
        rects = op.boundary_cover(ctx, DOM, m)
        assert len(rects) == m
        for _ in range(500):
            phi = rng.random() * 2 * math.pi
            x = Decimal(str(1 + 2.5 * math.cos(phi)))
            y = Decimal(str(2.5 * math.sin(phi)))
            assert any(r.re.lo <= x <= r.re.hi and r.im.lo <= y <= r.im.hi
                       for r in rects), (m, x, y)


def test_domain_extension_analytic_spot_check():
    a = Decimal(REF_A[:22])
    with decimal.localcontext(decimal.Context(prec=40)):
        a2 = a * a
        reach = abs(a2 * DOM.center - DOM.center) + abs(a2) * DOM.radius
    assert Decimal("1.239") < reach < Decimal("1.240")
    assert reach < DOM.radius


def test_domain_extension_pass_and_monotone(desk):
    for rho in ("1e-8", "1e-10"):
        for m in (64, 128):
            ball = fb.inflate(ctx, desk.G0, rho)
            res = op.check_domain_extension(ctx, ball, m)
            assert res.passed
            assert len(res.gamma1) == m and len(res.gamma2) == m


def test_domain_extension_failure(desk):
    with pytest.raises(ContainmentFailure) as info:
        op.check_domain_extension(ctx, fb.inflate(ctx, desk.G0, 1), 64)
    assert info.value.equation in (1, 2)
    assert info.value.index is not None


def test_domain_extension_images_inside(desk):
    ball = fb.inflate(ctx, desk.G0, "1e-8")
    res = op.check_domain_extension(ctx, ball, 64)
    c = rectangle(DOM.center)
    for w in list(res.gamma1) + list(res.gamma2):
        assert ctx.rabs(ctx.rsub(w, c)).hi < DOM.radius


def test_extend_recursive_depth0(desk):
    z = rectangle("2.75")
    direct = fb.evaluate(ctx, desk.G0, z)
    rec = op.extend_recursive(ctx, "G", z, 0, G=desk.G0)
    assert rec.re == direct.re


def test_extend_recursive_g_at_one(desk):
    # over the certified ball, g(1) encloses the true scaling constant
    out = op.extend_recursive(ctx, "g", rectangle(1), 0, G=desk.param)
    assert out.re.contains(Decimal(REF_A[:22]))


def test_extend_recursive_outside_matches_identity(desk):
    # value outside the disc equals the unwound fixed-point relation computed
    # through depth-0 evaluations
    X = rectangle("5")
    rec = op.extend_recursive(ctx, "G", X, 2, G=desk.G0)
    a = fb.evaluate(ctx, desk.G0, rectangle(1))
    a2 = ctx.rsqr(a)
    y = fb.evaluate(ctx, desk.G0, ctx.rmul(a2, X))
    manual = ctx.rdiv(fb.evaluate(ctx, desk.G0, ctx.rsqr(y)), a)
    hull = rec.re.hull(manual.re)
    assert rec.re.contains(ctx.imid(manual.re))
    assert hull.hi - hull.lo < Decimal("1e-8")


def test_extend_recursive_depth_exceeded(desk):
    with pytest.raises(DepthExceeded):
        op.extend_recursive(ctx, "G", rectangle("50"), 0, G=desk.G0)


def test_extend_recursive_eigenfunctions(desk):
    # inside: agreement with direct evaluation
    for target, ball in (("V", desk.V0), ("W", desk.W0)):
        z = rectangle("0.5")
        direct = fb.evaluate(ctx, ball, z)
        rec = op.extend_recursive(ctx, target, z, 0, G=desk.G0, V=desk.V0, W=desk.W0)
        assert rec.re == direct.re
    # outside: finite enclosures via the eigenproblem relations
    for target in ("V", "W"):
        out = op.extend_recursive(ctx, target, rectangle("4.5"), 2,
                                  G=desk.G0, V=desk.V0, W=desk.W0)
        assert out.re.hi.is_finite()
