import decimal
from decimal import Decimal

import numpy as np
import pytest

from helpers import (
    REF_A,
    REF_DELTA,
    REF_GAMMA,
    digit_match_count,
    dt_matrix,
    float_matrix,
    l_matrix,
    t_apply,
)
from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import contraction as ct
from renormcert import operators as op
from renormcert.errors import (
    ConfigError,
    EigenSelectionAmbiguous,
    NewtonDivergence,
    SingularJacobian,
)
from renormcert.rounding import RoundingContext


def test_fixed_point_value(desk):
    assert digit_match_count(str(desk.g0[0]), REF_A) >= 12


def test_fixed_point_residual(desk):
    tg = t_apply(desk.g0, digits=30)
    res = max(abs(x - y) for x, y in zip(tg, desk.g0))
    assert res < Decimal("1e-25")


def test_seed_converges():
    g = ax.approx_fixed_point(20, 30, seed=ax.default_seed())
    assert digit_match_count(str(g[0]), REF_A) >= 12


def test_seed_normalisation_guard():
    # seed value at 1 is its constant basis coefficient; 0.01 is below the guard
    with pytest.raises(NewtonDivergence):
        ax.approx_fixed_point(8, 20, seed=[Decimal("0.01"), Decimal("-0.5")])


def test_degree_continuation_consistency(desk):
    g40 = ax.approx_fixed_point(40, 30)
    for k in range(10):
        assert abs(g40[k] - desk.g0[k]) < Decimal("1e-10"), k


def test_eigen_delta(desk):
    assert digit_match_count(str(desk.lam0), REF_DELTA) >= 12
    assert desk.v0[0] == desk.lam0


def test_eigen_gamma(desk):
    assert digit_match_count(str(desk.gam0), REF_GAMMA) >= 10
    assert desk.w0[0] == desk.gam0


def test_eigen_residual_invariant(desk):
    with decimal.localcontext(decimal.Context(prec=30)):
        m = dt_matrix(desk.g0, digits=30)
        mv = ax._mat_vec(m, desk.v0)
        res = max(abs(mv[i] - desk.lam0 * desk.v0[i]) for i in range(desk.n + 1))
        sup = max(abs(x) for x in desk.v0)
    assert res / sup < Decimal("1e-15")


def test_spectrum_two_large_eigenvalues(desk):
    m = dt_matrix(desk.g0, digits=30)
    values = np.linalg.eigvals(float_matrix(m))
    big = sorted((v for v in values if abs(v) > 1), key=lambda v: -abs(v))
    assert len(big) == 2
    assert abs(big[0].real - 6.264547) < 1e-3
    assert abs(big[1].real - 4.669201) < 1e-3


# eigenvalues 4 and 6 with eigenvectors (1, 1) and (1, 2)
_TOY = [[Decimal(2), Decimal(2)], [Decimal(-4), Decimal(8)]]


@pytest.mark.parametrize("shift, vector", [("4.1", ("4", "4")), ("5.9", ("6", "12"))])
def test_inverse_iteration_takes_eigenvalue_nearest_shift(shift, vector):
    with decimal.localcontext(ax._context(30)):
        x = ax._inverse_iteration(_TOY, Decimal(shift), 1, 30)
    assert all(abs(a - Decimal(b)) < Decimal("1e-20") for a, b in zip(x, vector))


@pytest.mark.parametrize("matrix, shift, power", [
    pytest.param(_TOY, "5", 1, id="shift equidistant from 4 and 6"),
    pytest.param([[-m for m in row] for row in _TOY], "-4.1", 2, id="nearest eigenvalue -4 < 0"),
])
def test_inverse_iteration_negative_controls(matrix, shift, power):
    with decimal.localcontext(ax._context(30)), pytest.raises(EigenSelectionAmbiguous):
        ax._inverse_iteration(matrix, Decimal(shift), power, 30)


def test_eigen_selection_matches_float_spectrum(desk):
    """delta0 is the real eigenvalue of DT outside the unit disc nearest
    4.669, and gamma0**2 the dominant eigenvalue of L, by numpy in float64."""
    dt = np.linalg.eigvals(float_matrix(dt_matrix(desk.g0, digits=30)))
    real_outside = [v.real for v in dt if abs(v) > 1 and abs(v.imag) < 1e-6]
    assert abs(min(real_outside, key=lambda v: abs(v - 4.669)) - float(desk.lam0)) < 1e-9
    spectrum = np.linalg.eigvals(float_matrix(l_matrix(desk.g0, digits=30)))
    top = max(spectrum, key=abs)
    assert abs(top - float(desk.gam0) ** 2) < 1e-9 * abs(top)


def test_jacobian_column_delta_a_only_in_first(desk):
    jac_dt = dt_matrix(desk.g0, digits=30)
    jac_simple = []
    with decimal.localcontext(ax._context(30)):
        s = ax._MidShared(desk.g0)
        for k in range(desk.n + 1):
            col = ax.p_scale(s.a_inv, s.up2[k])
            col = ax.p_add(col, ax.p_mul(s.factor16, s.up1[k]))
            jac_simple.append(col)
    for k in range(1, desk.n + 1):
        for i in range(desk.n + 1):
            assert jac_dt[i][k] == jac_simple[k][i]
    assert any(jac_dt[i][0] != jac_simple[0][i] for i in range(desk.n + 1))


def test_newton_builds_shared_evaluations_once_per_iterate(monkeypatch):
    """Each fixed-point Newton iterate builds the midpoint shared evaluations
    once and reads both T(g) and the Jacobian from them; the Jacobian it
    factors is approx_jacobian("fixed_point", g) entry for entry."""
    iterates, factored = [], []
    shared_cls, lu_factor = ax._MidShared, ax.lu_factor

    class CountingShared(shared_cls):
        def __init__(self, g):
            iterates.append(list(g))
            super().__init__(g)

    def recording_lu_factor(a):
        factored.append([row[:] for row in a])
        return lu_factor(a)

    monkeypatch.setattr(ax, "_MidShared", CountingShared)
    monkeypatch.setattr(ax, "lu_factor", recording_lu_factor)
    g = ax.approx_fixed_point(20, 30)
    monkeypatch.undo()
    assert len(iterates) == 7
    assert len(factored) == len(iterates) - 1
    assert iterates[-1] == g
    for g_k, jac in zip(iterates, factored):
        ref = ax.approx_jacobian("fixed_point", g_k, digits=30)
        assert [list(map(str, row)) for row in jac] == [list(map(str, row)) for row in ref]


def test_finite_difference_oracle(desk):
    """Directional derivative columns against finite differences of the
    operator, at shrinking steps in round-to-nearest arithmetic."""
    digits = 40
    g = ax.approx_fixed_point(20, digits)
    m = dt_matrix(g, digits=digits)
    n = len(g) - 1
    for k in (0, 1, 4):
        col = [m[i][k] for i in range(n + 1)]
        scale = max(abs(x) for x in col)
        errs = []
        for exp in (3, 4, 5, 6):
            t = Decimal(10) ** -exp
            with decimal.localcontext(ax._context(digits)):
                bumped = list(g)
                bumped[k] = bumped[k] + t
                fd = [(a - b) / t for a, b in
                      zip(t_apply(bumped, digits=digits), t_apply(g, digits=digits))]
                err = max(abs(fd[i] - col[i]) for i in range(n + 1)) / scale
            errs.append(err)
        assert errs[-1] < errs[0]
        assert errs[-1] < Decimal("1e-4"), (k, errs)


def _misses(ball, values, digits: int) -> list[int]:
    """Degrees k at which values[k] lies outside coefficient k of the ball,
    widened by its v_err and by 10**(4-digits) max(1, |values[k]|)."""
    misses = []
    with decimal.localcontext(decimal.Context(prec=3 * digits)):
        for k, (c, x) in enumerate(zip(ball.coeffs, values)):
            slack = ball.v_err + Decimal(10) ** (4 - digits) * max(1, abs(x))
            if not c.re.lo - slack <= x <= c.re.hi + slack:
                misses.append(k)
    return misses


def _cross_engine(run):
    """The midpoint evaluations at g0 of a fixture run, and the ball
    engine's at the point ball g0, with a constructor of point balls."""
    ctx, n = run.ctx, len(run.g0) - 1

    def ball(coeffs):
        return fb.ball_from_decimals(fb.STANDARD_DISC, coeffs, n)

    shared = op.precompute_shared(ctx, ball(run.g0))
    with decimal.localcontext(ax._context(ctx.precision)):
        mid = ax._MidShared(run.g0)
    return mid, shared, op.OperatorTables.build(ctx, shared), ball


@pytest.mark.parametrize("scale", ["desk", "n40"])
def test_midpoint_operators_lie_in_ball_enclosures(request, scale):
    """Cross-engine check: T(g0), DT(g0) v and L(g0) v of the Decimal
    midpoint engine lie in the ball engine's enclosures at the point ball
    g0, for v with v(1) = v[0] != 0, so the normalisation terms of DT act."""
    run = request.getfixturevalue(scale)
    ctx, digits = run.ctx, run.ctx.precision
    mid, shared, tables, ball = _cross_engine(run)
    names = ["T", "DT v0", "L v0", "DT w0", "L w0"]
    with decimal.localcontext(ax._context(digits)):
        midpoints = [mid.t()] + [mid.apply(q, v) for v in (run.v0, run.w0) for q in (1, 2)]
    enclosures = [fb.scale(ctx, shared.a_inv, shared.outer_comp)] + [
        tables.apply(ctx, q, ball(v)) for v in (run.v0, run.w0) for q in (1, 2)]
    for name, values, enclosure in zip(names, midpoints, enclosures):
        assert _misses(enclosure, values, digits) == [], name


@pytest.mark.parametrize("scale", ["desk", "n40"])
def test_midpoint_dt_without_factor17_leaves_enclosure(request, scale):
    """Negative control for the cross-engine check: DT(g0) v with its
    v[0] factor17 term dropped falls outside the ball enclosure."""
    run = request.getfixturevalue(scale)
    ctx, digits = run.ctx, run.ctx.precision
    mid, _, tables, ball = _cross_engine(run)
    with decimal.localcontext(ax._context(digits)):
        dropped = ax.p_sub(mid.apply(1, run.v0), ax.p_scale(run.v0[0], mid.factor17))
    assert _misses(tables.dt_apply(ctx, ball(run.v0)), dropped, digits)


@pytest.mark.parametrize("kind", ["fixed_point", "delta_eigen", "gamma_eigen"])
def test_column_kernels_contain_midpoint_jacobians(desk, kind):
    """Cross-engine check of the derivative: with the problem built on the
    point balls g0 and x0, column kernel image k contains column k of the
    midpoint Jacobian approx_jacobian(kind, g0, x0), for every k <= K."""
    ctx, digits = desk.ctx, desk.ctx.precision
    _, _, tables, ball = _cross_engine(desk)
    x0 = {"fixed_point": None, "delta_eigen": desk.v0, "gamma_eigen": desk.w0}[kind]
    if x0 is None:
        problem, x_ball = ct.FixedPointProblem(), ball(desk.g0)
    else:
        cls = ct.DeltaProblem if kind == "delta_eigen" else ct.GammaProblem
        problem, x_ball = cls(ctx, ball(desk.g0), tables), ball(x0)
    kernel = problem.column_kernel(ctx, x_ball)
    jac = ax.approx_jacobian(kind, desk.g0, x0, digits=digits)
    for k in range(len(jac)):
        assert _misses(kernel.image_ball(ctx, k), [row[k] for row in jac], digits) == [], k


def test_gamma_column0_without_power_factor_leaves_midpoint_jacobian(desk):
    """Negative control for the kernel check: a gamma column 0 built with
    -phi x in place of -2 phi x misses the midpoint Jacobian's column 0."""
    ctx, digits = desk.ctx, desk.ctx.precision
    _, _, tables, ball = _cross_engine(desk)
    w_ball = ball(desk.w0)
    phi = fb.coefficient(ctx, w_ball, 0).re
    wrong = tables.columns(ctx, 2, column0=fb.negate(ctx, fb.scale(ctx, phi, w_ball)),
                           diagonal=ctx.isqr(phi))
    jac = ax.approx_jacobian("gamma_eigen", desk.g0, desk.w0, digits=digits)
    assert _misses(wrong.image_ball(ctx, 0), [row[0] for row in jac], digits)


def test_jacobian_kinds(desk):
    jf = ax.approx_jacobian("fixed_point", desk.g0, digits=30)
    assert len(jf) == desk.n + 1
    jd = ax.approx_jacobian("delta_eigen", desk.g0, desk.v0, digits=30)
    jg = ax.approx_jacobian("gamma_eigen", desk.g0, desk.w0, digits=30)
    # rank-one normalisation terms keep the eigen Jacobians well-conditioned
    for j in (jd, jg):
        cond = np.linalg.cond(float_matrix(j))
        assert cond < 1e6
    with pytest.raises(ConfigError):
        ax.approx_jacobian("delta_eigen", desk.g0, None, digits=30)


def test_jacobian_head_is_head_of_full_matrix(n40):
    """approx_jacobian gives the rows and columns 0..HEAD_DEGREE of the full
    Jacobian, digit for digit, for every problem kind."""
    k1 = ax.HEAD_DEGREE + 1
    with decimal.localcontext(ax._context(40)):
        full = ax._MidShared(n40.g0)
        refs = {kind: (x0, full.matrix(full.jacobian_apply(kind, x0)))
                for kind, x0 in (("fixed_point", None), ("delta_eigen", n40.v0),
                                 ("gamma_eigen", n40.w0))}
    for kind, (x0, ref) in refs.items():
        head = ax.approx_jacobian(kind, n40.g0, x0, digits=40)
        assert [list(map(str, row)) for row in head] == \
            [list(map(str, row[:k1])) for row in ref[:k1]], kind


def test_build_lambda_toy():
    n = 4
    jac = [[Decimal(-1) if i == j else Decimal(0) for j in range(n + 1)]
           for i in range(n + 1)]
    lam = ax.build_lambda("fixed_point", jac, 30)
    assert lam.tail_scalar == -1
    for i in range(n + 1):
        for j in range(n + 1):
            assert lam.matrix[i][j] == (-1 if i == j else 0)


def test_build_lambda_singular():
    n = 3
    jac = [[Decimal(0)] * (n + 1) for _ in range(n + 1)]
    with pytest.raises(SingularJacobian):
        ax.build_lambda("fixed_point", jac, 30)


def test_lambda_tail_scalars(desk):
    assert desk.lam_fixed.tail_scalar == -1
    with decimal.localcontext(ax._context(30)):
        assert abs(desk.lam_delta.tail_scalar + 1 / desk.lam0) < Decimal("1e-28")
        assert abs(desk.lam_gamma.tail_scalar + 1 / (desk.gam0 ** 2)) < Decimal("1e-28")


def test_perturbed_lambda_still_certifies(desk):
    """The Newton-like scheme tolerates a mildly wrong frozen map."""
    import random
    rng = random.Random(77)
    rows = [list(r) for r in desk.lam_fixed.matrix]
    for i in range(len(rows)):
        for j in range(len(rows)):
            rows[i][j] = rows[i][j] + Decimal(rng.randint(-1000, 1000)) / Decimal(10) ** 6
    bumped = ct.LinearMap(rows, desk.lam_fixed.tail_scalar)
    cert = ct.certify(desk.ctx, ct.FixedPointProblem(), desk.G0, bumped, "1e-4")
    assert cert.passed
    assert cert.kappa < 1


def test_mat_inv_identity():
    import random
    rng = random.Random(6)
    n = 10
    a = [[Decimal(rng.randint(-50, 50)) / 10 for _ in range(n)] for _ in range(n)]
    for i in range(n):
        a[i][i] += 15
    inv = ax.mat_inv(a, digits=40)
    with decimal.localcontext(ax._context(40)):
        for i in range(n):
            for j in range(n):
                s = sum(a[i][k] * inv[k][j] for k in range(n))
                assert abs(s - (1 if i == j else 0)) < Decimal("1e-30")
