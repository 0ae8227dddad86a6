import dataclasses
import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import (REF_A, DecimalShared, abs2_upper, basis_ball, domain_points, eval_member,
                     holds_polynomial, midpoint, oracle_domain_extension, oracle_powers,
                     recorded_reads, rsqr, rsub, sample_member, with_tails)
from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import contraction as ct
from renormcert import operators as op
from renormcert import pipeline as pl
from renormcert.errors import (
    CompositionContractFailure,
    ConfigError,
    ContainmentFailure,
    DepthExceeded,
    DomainMismatch,
    NormalizationSingular,
)
from renormcert.rounding import (EXACT, Rectangle, RoundingContext, box_conj, interval,
                                 rectangle)

ctx = RoundingContext(30)
DOM = fb.STANDARD_DISC


def test_shared_constant_one():
    one = fb.const_ball(8, 1)
    s = op.precompute_shared(ctx, one)
    assert s.a.contains(1)
    assert s.inner.coeffs[0].re.contains(1)
    assert fb.norm_upper(ctx, fb.sub(ctx, fb.mul(ctx, s.inner, s.inner), one)) == 0


def test_shared_inflation_widens(desk):
    s0 = op.precompute_shared(ctx, desk.G0)
    s1 = op.precompute_shared(ctx, fb.inflate(ctx, desk.G0, "1e-10"))
    assert s1.a.contains_interval(s0.a)
    sq0, sq1 = (fb.mul(ctx, s.inner, s.inner) for s in (s0, s1))
    for k in range(desk.n + 1):
        assert sq1.coeffs[k].re.contains_interval(sq0.coeffs[k].re)
    assert s1.table_squared.theta_bound >= s0.table_squared.theta_bound


def test_shared_a_matches_reference(desk):
    s = op.precompute_shared(ctx, desk.G0)
    ref = Decimal(REF_A[:16])
    assert abs(midpoint(s.a) - ref) < Decimal("1e-13")


def test_shared_a_is_constant_coefficient_with_high_tail(desk):
    """a = G(1) is read as coefficient 0 plus or minus v_err, the high tail
    vanishing at 1: on a ball with v_high > 0 it is narrower than the
    evaluated G(1) and holds G(1) of sampled members."""
    ball = with_tails(desk.G0, "1e-6", "1e-8")
    a = op.precompute_shared(ctx, ball).a
    evaluated = fb.evaluate(ctx, ball, rectangle(1)).re
    assert evaluated.contains_interval(a) and a.hi - a.lo < evaluated.hi - evaluated.lo
    rng = random.Random(41)
    for _ in range(50):
        assert a.contains(eval_member(sample_member(rng, ball), Decimal(1), 40))


def test_apply_T_smoke_toy():
    # a tame affine input for which both composition contracts hold
    toy = fb.ball_from_decimals(DOM, ["0.6", "-1"], 8)   # 1 - 0.4 X
    out = ct.Problem(0).residual(ctx, toy)      # T(toy) - toy
    assert fb.norm_upper(ctx, out).is_finite()
    # the steep classical seed makes the outer composition leave the disc;
    # that is reported as a contract failure, not silently accepted
    from renormcert.errors import CompositionContractFailure
    with pytest.raises(CompositionContractFailure):
        ct.Problem(0).residual(ctx, fb.ball_from_decimals(DOM, ["-0.5", "-3.8"], 8))


def test_apply_T_residual_small(desk):
    r = ct.Problem(0).residual(ctx, desk.G0)
    assert fb.norm_upper(ctx, r) < Decimal("1e-10")


def test_apply_T_pointwise_oracle(desk):
    """Direct high-precision evaluation of the defining expression at member
    polynomials lies inside the pointwise enclosure of the residual T(G) - G."""
    rng = random.Random(21)
    ball = fb.inflate(ctx, desk.G0, "1e-6")
    image = ct.Problem(0).residual(ctx, ball)
    for _ in range(5):
        m = sample_member(rng, ball)
        with decimal.localcontext(decimal.Context(prec=120)):
            a_m = eval_member(m, Decimal(1), 120)
            for z in domain_points(rng, 10):
                inner = eval_member(m, a_m * a_m * z, 120)
                value = eval_member(m, inner * inner, 120) / a_m \
                    - eval_member(m, z, 120)
                out = fb.evaluate(ctx, image, rectangle(z))
                assert out.re.contains(value), (z, value, out)


def test_squared_table_products_stay_sub_linear(monkeypatch):
    """Structural guard: over precompute_shared and OperatorTables.build at
    N = 80, the squared
    argument's table and its two compositions take at most
    m + 2 ceil((N+1)/m) full-length products (the baby steps u**2..u**m
    and ceil((N+1)/m) - 1 giant steps per composition), not the N - 1 of a
    table of every power, which the bound must stay below.  A product is
    full-length when both factors have
    more than m + 1 coefficients, which leaves out the affine argument's
    table; the ball products of the shared subexpressions (balls.mul) are
    not counted."""
    n, m = 80, fb.BABY_STEPS
    wide = RoundingContext(60)
    G = fb.ball_from_decimals(DOM, ax.approx_fixed_point(n, 60), n)
    products, inside_mul = [], []
    int_mul, mul = fb.int_mul, fb.mul

    def counted_int_mul(c, f, g, degree):
        if not inside_mul and min(len(f.mid), len(g.mid)) > m + 1:
            products.append(degree)
        return int_mul(c, f, g, degree)

    def uncounted_mul(c, f, g):
        inside_mul.append(True)
        try:
            return mul(c, f, g)
        finally:
            inside_mul.pop()

    monkeypatch.setattr(fb, "int_mul", counted_int_mul)
    monkeypatch.setattr(fb, "mul", uncounted_mul)
    op.OperatorTables.build(wide, G)
    assert (m - 1) + 2 * 3 == len(products) <= m + 2 * -(-(n + 1) // m) < n - 1


def test_operator_tables_hold_their_ball(desk):
    """M_q's tables are built from their ball in one call, and their shared
    evaluations are the one record of it."""
    tables = op.OperatorTables.build(ctx, desk.param)
    assert tables.shared.source is desk.param
    assert tables.shared.a == op.precompute_shared(ctx, desk.param).a


def test_problem_builds_tables_once_per_ball(desk, monkeypatch):
    """One certify of Problem(0) builds M_1's tables once, over the ball its
    bounds receive; the same problem on a second ball builds again.
    Problem(1, tables) only reads the tables it is given."""
    built, build = [], op.OperatorTables.build.__func__

    def counted(cls, c, G):
        built.append(G)
        return build(cls, c, G)
    monkeypatch.setattr(op.OperatorTables, "build", classmethod(counted))
    problem = ct.Problem(0)
    ct.certify(desk.ctx, problem, desk.G0, pl.RHO)
    assert len(built) == 1 and problem.tables.shared.source is built[0]
    again = fb.ball_from_decimals(DOM, desk.g0, desk.n)
    ct.certify(desk.ctx, problem, again, pl.RHO)
    assert len(built) == 2 and built[1] is not built[0]
    ct.certify(desk.ctx, ct.Problem(1, desk.tables), desk.V0, pl.RHO)
    assert len(built) == 2


def test_apply_DT_variation_of_a_acts_on_column0_only(desk):
    """The variation of a = G(1) acts on column 0 only: a column image is
    a**-1 u2**k + factor16 u1**k alone exactly when k >= 1."""
    tables = desk.tables
    s = tables.shared
    a_inv, factor16 = tables.terms[0]

    def power(table, k):
        return fb.FunctionBall.wrap(desk.n, table.power(ctx, k))

    for k in (0, 1, 2, 5):
        image = tables.dt_basis_image(ctx, k)
        simple = fb.add(ctx, fb.mul(ctx, a_inv, power(s.table_squared, k)),
                        fb.mul(ctx, factor16, power(s.table_affine, k)))
        agree = all(image.coeffs[i].re.contains(midpoint(simple.coeffs[i].re))
                    for i in range(desk.n + 1))
        assert agree == (k != 0), k


def _contains_midpoints(image, ball, n):
    return all(image.coeffs[i].re.contains(midpoint(ball.coeffs[i].re)) for i in range(n + 1))


@pytest.mark.parametrize("q, basis_image", [(1, "dt_basis_image"), (2, "l_basis_image")])
def test_column_images_contain_apply(desk, q, basis_image):
    """The integer column path of M_q against its ball apply, for q = 1 (DT)
    and q = 2 (L): basis image k contains the midpoints of M_q e_k."""
    tables = desk.tables
    for k in (0, 1, 2, 5):
        image = getattr(tables, basis_image)(ctx, k)
        applied = tables.apply(ctx, q, basis_ball(desk.n, k))
        assert _contains_midpoints(image, applied, desk.n), k


def test_l_column_images_with_dt_coefficients_miss_apply(desk):
    """Negative control: q = 2 column images built with the q = 1
    coefficients (a**-1 and factor16) miss L e_k."""
    tables = desk.tables
    applied = [tables.l_apply(ctx, basis_ball(desk.n, k)) for k in (0, 1, 2, 5)]
    wrong = dataclasses.replace(tables, terms=(tables.terms[0],) * 2)
    for k, l_e_k in zip((0, 1, 2, 5), applied):
        assert not _contains_midpoints(wrong.l_basis_image(ctx, k), l_e_k, desk.n), k


@pytest.mark.parametrize("misuse, error", [
    (lambda t: t.apply(ctx, 0, fb.const_ball(20, 1)), ConfigError),
    (lambda t: t.apply(ctx, 3, fb.const_ball(20, 1)), ConfigError),
    (lambda t: t.basis_image(ctx, 0, 0), ConfigError),
    (lambda t: t.basis_image(ctx, 3, 0), ConfigError),
    (lambda t: t.image(ctx, 0, *[t.shared.table_affine.power(ctx, 1)] * 2, None), ConfigError),
    (lambda t: t.image(ctx, 3, *[t.shared.table_affine.power(ctx, 1)] * 2, None), ConfigError),
    (lambda t: ct.Problem(1, t).column_images(ctx, fb.const_ball(25, 1), 20), DomainMismatch),
    (lambda t: ct.Problem(2, t).column_images(ctx, fb.const_ball(25, 1), 20), DomainMismatch),
], ids=["apply-q0", "apply-q3", "columns-q0", "columns-q3", "image-q0", "image-q3",
        "column0-q1", "column0-degree"])
def test_operator_tables_refuse_misuse(desk, misuse, error):
    """M_q exists for q = 1 and 2 only, and the column images of an eigen
    problem need a ball of the tables' degree, for either q."""
    with pytest.raises(error):
        misuse(desk.tables)


def test_apply_DT_linearity(desk):
    tables = desk.tables
    e1 = basis_ball(desk.n, 1)
    e3 = basis_ball(desk.n, 3)
    both = tables.dt_apply(ctx, fb.add(ctx, e1, e3))
    summed = fb.add(ctx, tables.dt_apply(ctx, e1), tables.dt_apply(ctx, e3))
    for k in range(desk.n + 1):
        mid = midpoint(both.coeffs[k].re)
        assert summed.coeffs[k].re.lo - Decimal("1e-20") <= mid \
            <= summed.coeffs[k].re.hi + Decimal("1e-20")


def _dt_oracle(desk, tables):
    """(z, value, enclosure) at 25 domain points: DT v at a member G of the
    parameter ball by direct evaluation, and the ball enclosure of
    tables.dt_apply over the ball, for v = 0.3 - 0.2 e_1 + 0.1 e_2."""
    rng = random.Random(22)
    dG = fb.ball_from_decimals(DOM, ["0.3", "-0.2", "0.1"], desk.n)
    image = tables.dt_apply(ctx, dG)
    out = []
    m = {k: c.re.lo for k, c in enumerate(desk.param.coeffs)}
    dm = {0: Decimal("0.3"), 1: Decimal("-0.2"), 2: Decimal("0.1")}
    with decimal.localcontext(decimal.Context(prec=120)):
        a = eval_member(m, Decimal(1), 120)
        da = eval_member(dm, Decimal(1), 120)
        from helpers import eval_member_derivative
        for z in domain_points(rng, 25):
            a2z = a * a * z
            g_in = eval_member(m, a2z, 120)
            u2 = g_in * g_in
            gp_u2 = eval_member_derivative(m, u2, 120)
            gp_in = eval_member_derivative(m, a2z, 120)
            t14 = -da * eval_member(m, u2, 120) / (a * a)
            t15 = eval_member(dm, u2, 120) / a
            t16 = gp_u2 * 2 * g_in * eval_member(dm, a2z, 120) / a
            t17 = gp_u2 * 2 * g_in * gp_in * 2 * z * a * da / a
            out.append((z, t14 + t15 + t16 + t17, fb.evaluate(ctx, image, rectangle(z))))
    return out


def test_apply_DT_pointwise_oracle(desk):
    for z, value, out in _dt_oracle(desk, desk.tables):
        assert out.re.contains(value), (z, value, out)


def test_apply_DT_without_variation_of_a_misses_pointwise_oracle(desk):
    """Negative control: a DT apply whose kernel drops the variation of a
    misses the direct evaluations of the pointwise oracle."""
    zero = fb.IntBall([], [], 0, Decimal(0), Decimal(0))
    dropped = dataclasses.replace(desk.tables, variation=zero)
    assert not all(out.re.contains(value) for _, value, out in _dt_oracle(desk, dropped))


def test_apply_L_basics(desk):
    tables = desk.tables
    zero = fb.zero_ball(desk.n)
    assert fb.norm_upper(ctx, tables.l_apply(ctx, zero)) == 0
    w = fb.ball_from_decimals(DOM, ["1", "0.5"], desk.n)
    one_w = tables.l_apply(ctx, w)
    two_w = tables.l_apply(ctx, fb.scale(ctx, Decimal(2), w))
    for k in range(desk.n + 1):
        mid = midpoint(one_w.coeffs[k].re)
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
        a = eval_member(m, Decimal(1), 120)
        for z in domain_points(rng, 25):
            a2z = a * a * z
            g_in = eval_member(m, a2z, 120)
            u2 = g_in * g_in
            gp_u2 = eval_member_derivative(m, u2, 120)
            chain = gp_u2 * 2 * g_in
            value = (chain * chain * eval_member(wm, a2z, 120)
                     + eval_member(wm, u2, 120)) / (a * a)
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


def _exact_circle_points(rng, count: int, scale: int) -> list:
    """Exact points c + r ((1 - t**2) + 2t i) / (1 + t**2) of the domain's
    boundary circle for random rational t, and c - r, each part x at scale
    10**-scale as (floor, ceil): an integer box end b has b <= x exactly
    when b <= floor and x <= b when ceil <= b."""
    c, r, unit = Fraction(DOM.center), Fraction(DOM.radius), 10 ** scale
    ts = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
          for _ in range(count)]
    points = [(c - r, Fraction(0))] + [(c + r * (1 - t * t) / (1 + t * t),
                                        r * 2 * t / (1 + t * t)) for t in ts]
    return [tuple((math.floor(v * unit), math.ceil(v * unit)) for v in p) for p in points]


def _uncovered(boxes, points) -> int:
    return sum(not any(rl <= xf and xc <= rh and il <= yf and yc <= ih
                       for rl, rh, il, ih in boxes)
               for (xf, xc), (yf, yc) in points)


def test_boundary_cover_covers_circle():
    """Every exact point of the circle lies in a box of the cover, at the
    point scale of a desk ball and at coarse scales, where each box end is
    rounded by up to 10**-scale."""
    rng = random.Random(23)
    s = fb.point_evaluator(ctx, fb.const_ball(20, 1)).point_scale
    for scale, sizes in ((s, (8, 64, 256)), (1, (16, 64)), (2, (16, 64))):
        points = _exact_circle_points(rng, 400, scale)
        for m in sizes:
            boxes = op.boundary_cover(m, scale)
            assert len(boxes) == m
            assert _uncovered(boxes, points) == 0, (scale, m)


def test_boundary_cover_negative_control(monkeypatch):
    """A cover whose companion upper end sqrt(1 - t**2) is floored instead
    of ceiled misses exact circle points near the ends of its arcs."""
    def floored(lo, hi, unit):
        small = 0 if lo <= 0 <= hi else min(lo * lo, hi * hi)
        return companion(lo, hi, unit)[0], math.isqrt(unit * unit - small)
    companion = op._companion
    monkeypatch.setattr(op, "_companion", floored)
    points = _exact_circle_points(random.Random(24), 400, 2)
    assert _uncovered(op.boundary_cover(64, 2), points) > 0


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
            assert len(res.boundary) == len(res.gamma1) == len(res.gamma2) == m


def test_domain_extension_failure(desk):
    with pytest.raises(ContainmentFailure) as info:
        op.check_domain_extension(ctx, fb.inflate(ctx, desk.G0, 1), 64)
    assert info.value.equation in (1, 2)
    assert info.value.index is not None


def _circle_points():
    """Exact points c + r(u + iv) of the domain's boundary circle, (u, v)
    from (3, 4)/5 and (7, 24)/25 with their sign and swap variants."""
    points = []
    for u, v in ((Decimal("0.6"), Decimal("0.8")), (Decimal("0.28"), Decimal("0.96"))):
        for x, y in ((u, v), (v, u)):
            for sx in (1, -1):
                for sy in (1, -1):
                    points.append(Rectangle(interval(DOM.center + DOM.radius * sx * x),
                                            interval(DOM.radius * sy * y)))
    return points


def _theta_reach(rctx, ball):
    """[(reach**2, (theta r)**2)] for the two composition arguments: the
    largest |a**2 z - c| and |Q(G(a**2 z)) - c| over the circle points,
    upper bounds, and theta r of the argument's power table, a lower
    bound."""
    shared = op.precompute_shared(rctx, ball)
    g = fb.point_evaluator(rctx, ball)
    s = g.point_scale
    a2 = Rectangle(rctx.isqr(shared.a), interval(0))
    centre = rectangle(DOM.center)
    reach = [Decimal(0), Decimal(0)]
    for z in _circle_points():
        w1 = rctx.rmul(a2, z)
        w2 = rsqr(rctx, rctx.box_rectangle(g.value(g.read(rctx.to_box(w1, s))), s))
        for i, w in enumerate((w1, w2)):
            reach[i] = max(reach[i], abs2_upper(rctx, rsub(rctx, w, centre)))
    bounds = (rctx.mul_dn(table.theta_bound, DOM.radius)
              for table in (shared.table_affine, shared.table_squared))
    return [(r, rctx.mul_dn(b, b)) for r, b in zip(reach, bounds)]


@pytest.mark.parametrize("scale", ["desk", "n40"])
def test_theta_below_one_proves_domain_extension(request, scale):
    """theta < 1 of a power table, which precompute_shared requires of both
    composition arguments on every ball with v_err > 0, bounds the
    argument by theta r on the closed disc: that is the boundary check's
    claim.  Exact circle points of the inflated centre and of the
    parameter ball land within theta r.  The ball inflated by 1 fails both
    routes: precompute_shared refuses it (its a may vanish) and so does the
    boundary check."""
    run = request.getfixturevalue(scale)
    if scale == "desk":
        balls = [fb.inflate(run.ctx, run.G0, "1e-8"), run.param]
    else:
        balls = [run.setup("fixed_point", 20)[2], run.result.balls["parameter"]]
    for ball in balls:
        assert ball.v_err > 0
        assert all(reach <= bound for reach, bound in _theta_reach(run.ctx, ball))
    if scale == "desk":
        wide = fb.inflate(run.ctx, run.G0, 1)
        with pytest.raises((CompositionContractFailure, NormalizationSingular)):
            op.precompute_shared(run.ctx, wide)
        with pytest.raises(ContainmentFailure):
            op.check_domain_extension(run.ctx, wide, 64)


def test_domain_extension_images_inside(desk):
    ball = fb.inflate(ctx, desk.G0, "1e-8")
    res = op.check_domain_extension(ctx, ball, 64)
    c = rectangle(DOM.center)
    for box in list(res.gamma1) + list(res.gamma2):
        w = ctx.box_rectangle(box, res.point_scale)
        assert abs2_upper(ctx, rsub(ctx, w, c)) < DOM.radius ** 2


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
    a2 = rsqr(ctx, a)
    y = fb.evaluate(ctx, desk.G0, ctx.rmul(a2, X))
    manual = ctx.idiv(fb.evaluate(ctx, desk.G0, rsqr(ctx, y)).re, a.re)
    assert rec.re.contains(midpoint(manual))
    assert max(rec.re.hi, manual.hi) - min(rec.re.lo, manual.lo) < Decimal("1e-8")


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


def test_extension_needs_one_reading_frame(desk):
    """Points are read once by G's evaluator for V and W too, so a V whose
    N + 1 has another digit count, and thus another point scale, is refused."""
    wide = fb.ball_from_decimals(DOM, desk.v0, 99)
    with pytest.raises(ConfigError):
        op.RecursiveExtension.build(ctx, desk.G0, V=wide)


def test_domain_extension_reads_each_argument_once(desk, monkeypatch):
    """One read of the point 1 for a, then w1 = a**2 z and w2 = Q(G(w1)) once
    each per boundary rectangle whose conjugate is not earlier in the cover:
    at 64 rectangles, half of them, as the cover is symmetric about the
    real axis."""
    reads = recorded_reads(monkeypatch)
    res = op.check_domain_extension(ctx, desk.param, 64)
    assert len(reads) == 1 + 2 * 32
    read = [i for i, z in enumerate(res.boundary) if box_conj(z) not in res.boundary[:i]]
    assert reads[1::2] == [res.gamma1[i] for i in read]
    assert reads[2::2] == [res.gamma2[i] for i in read]


@pytest.mark.parametrize("radius, index", [("1", 0), ("0.0875", 364), ("0.085", 432)])
def test_domain_extension_fails_where_every_box_oracle_fails(desk, radius, index):
    """A box that takes its conjugate twin's images cannot move the first
    failure: the check raises at the index and equation of the loop that
    reads every box."""
    ball = fb.inflate(ctx, desk.G0, radius)
    failures = []
    for check in (oracle_domain_extension, op.check_domain_extension):
        with pytest.raises(ContainmentFailure) as info:
            check(ctx, ball, 1000)
        failures.append((info.value.index, info.value.equation))
    assert failures[0] == failures[1] and failures[0][0] == index


def test_extension_beyond_disc_reads_no_argument_twice(desk, monkeypatch):
    """V at a point beyond the disc, one level of the eigenproblem relation:
    the point, a**2 z and Q(G(a**2 z)) are read once each, though the
    relation takes values and derivatives at both pulled-back arguments."""
    ext = op.RecursiveExtension.build(ctx, desk.G0, V=desk.V0)
    reads = recorded_reads(monkeypatch)
    out = ext.evaluate_box("V", ctx.to_box(rectangle("4.5"), ext.G.point_scale), 2)
    assert out[0] <= out[1] and out[2] == out[3] == 0
    assert len(reads) == len(set(reads)) == 3


def _point_argument(tables: op.OperatorTables) -> fb.FunctionBall:
    """An exact degree-N polynomial near the squared composition argument
    Q(G(a**2 X)) of the tables: the lower ends of its coefficients."""
    s = tables.shared
    square = fb.mul(ctx, s.inner, s.inner)
    return fb.ball_from_decimals(DOM, [c.re.lo for c in square.coeffs], square.truncation)


@pytest.mark.parametrize("scale", ["desk", "n40"])
def test_baby_powers_hold_the_exact_powers_to_degree_3n(desk, n40, scale):
    """Each baby power u**k of a power table, the image of e_k, holds the
    exact u**k of its argument formed to degree 3N by the Decimal oracle:
    its coefficients 0..N in the power's intervals and its mass above N in
    v_high, which must carry the guard rows (degrees N+1..N+8) of the
    table as well as the spill above them."""
    G = desk.param if scale == "desk" else n40.result.balls["parameter"]
    c = ctx if scale == "desk" else n40.ctx
    h = _point_argument(op.OperatorTables.build(c, G))
    n = h.truncation
    table = fb.power_table(c, h)
    with decimal.localcontext(EXACT):
        u = [(x.re.lo - DOM.center) / DOM.radius if k == 0 else x.re.lo / DOM.radius
             for k, x in enumerate(h.coeffs)]
    for k, exact in enumerate(oracle_powers(u, fb.BABY_STEPS, 3 * n)):
        assert holds_polynomial(table.power(c, k), exact, n), k


@pytest.mark.parametrize("q", [1, 2])
def test_operator_basis_images_hold_the_decimal_images_to_degree_3n(desk, q):
    """M_q e_k over the exact desk centre G0, k = 0..K, holds the Decimal
    engine's M_q e_k at G0 formed to degree 3N: its coefficients 0..N within
    the image's intervals widened by v_err, and its mass above N within
    v_high and what v_err has left.  Fails when a baby power drops its
    guard rows' mass from v_high."""
    n = desk.n
    tables = op.OperatorTables.build(ctx, desk.G0)
    with decimal.localcontext(ax._context(100)):
        oracle = DecimalShared(desk.g0 + [Decimal(0)] * (2 * n))
        for k in range(ct.HEAD_DEGREE + 1):
            image = oracle.apply(q, [Decimal(int(j == k)) for j in range(3 * n + 1)])
            assert holds_polynomial(tables.basis_image(ctx, q, k), image, n), k
