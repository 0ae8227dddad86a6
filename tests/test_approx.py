import dataclasses
import decimal
from decimal import Decimal

import numpy as np
import pytest

from helpers import (
    REF_A,
    REF_DELTA,
    REF_GAMMA,
    DecimalShared,
    MidDecimal,
    bounds_with_map,
    decimals,
    digit_match_count,
    dt_matrix,
    engine_ints,
    float_matrix,
    inverse_iteration,
    jacobian_probe,
    l_matrix,
    mat_vec,
    matrix,
    oracle_eigenpair,
    oracle_fixed_point,
    oracle_power_list,
    p_scale,
    p_sub,
    sup_norm,
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
from renormcert.rounding import EXACT, interval


def test_fixed_point_value(desk):
    assert digit_match_count(str(desk.g0[0]), REF_A) >= 12


def test_fixed_point_residual(desk):
    tg = t_apply(desk.g0, digits=30)
    res = max(abs(x - y) for x, y in zip(tg, desk.g0))
    assert res < Decimal("1e-25")


def test_seed_converges():
    g = ax.approx_fixed_point(20, 30)
    assert digit_match_count(str(g[0]), REF_A) >= 12


def test_tabulated_seed_regenerates_from_quadratic_seed():
    """Dense Newton from g(x) ~ 1 - 1.5276 x**2 reproduces the tabulated
    degree-20 seed, and at N=20, P=30 the bootstrap returns the seed read
    at the engine's scale 10**-36, integer for integer."""
    seed = [Decimal(x) for x in ax._SEED_G20]
    assert _sup_diff(oracle_fixed_point(20, 30), seed) < Decimal("1e-28")
    assert engine_ints(ax.approx_fixed_point(20, 30), 30) == engine_ints(seed, 30)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_truncated_seed_matches_dense_newton(n):
    """Below degree 20 the seed is truncated to degree n, and Newton from it
    reaches the zero that dense Newton from the quadratic seed reaches."""
    assert _sup_diff(ax.approx_fixed_point(n, 30), oracle_fixed_point(n, 30)) < Decimal("1e-24")


def _residual(g, digits: int) -> Decimal:
    """sup |T(g) - g| by the Decimal engine at twice the precision."""
    with decimal.localcontext(ct._context(2 * digits)):
        return _sup_diff(DecimalShared(g).t(), g)


def test_seed_rounded_to_working_precision():
    """Below its 30 digits the seed is read at the engine's scale
    10**-(P+6), and every coefficient of the result is an integer there;
    a seed read at full length would leave digits below it."""
    g = ax.approx_fixed_point(20, 20)
    assert all(x == x.quantize(Decimal("1e-26")) for x in g)
    assert any(Decimal(x) != Decimal(x).quantize(Decimal("1e-26")) for x in ax._SEED_G20)
    assert _residual(g, 20) < Decimal("1e-14")


def _counting_builds(monkeypatch) -> list[int]:
    """The degrees of the midpoint builds made from now on, in order."""
    degrees = []
    shared_cls = ax._MidShared

    class CountingShared(shared_cls):
        def __init__(self, g, digits, width=None):
            degrees.append(len(g) - 1)
            super().__init__(g, digits, width)

    monkeypatch.setattr(ax, "_MidShared", CountingShared)
    return degrees


def test_lower_rungs_stop_at_truncation_level(monkeypatch):
    """At N=80, P=60 the seed passes rung 20 as it stands, rung 40 stops
    after one correction, at about |g_40|/100, and only the top rung
    reaches 10**-(P-6).  A lower rung's check reads a build at the next
    rung's width, which is then that rung's first build: builds at
    degrees 40 (rung 20's check, rung 40's first), 80 (rung 40's check
    after its correction, rung 80's first) and 80."""
    degrees = _counting_builds(monkeypatch)
    g = ax.approx_fixed_point(80, 60)
    monkeypatch.undo()
    assert degrees == [40, 80, 80]
    assert _residual(g, 60) < Decimal("1e-54")


@pytest.mark.parametrize("m", [20, 40])
def test_builds_are_causal(bootstrap80, m):
    """A build over g zero-padded to degree 2m gives T(g) and DT(g) v
    to degree m integer for integer as the build at g's own degree m:
    the ground on which a lower rung's check reads the next rung's build."""
    g = engine_ints(bootstrap80[0][:m + 1], 60)
    v = engine_ints(bootstrap80[1][:m + 1], 60)
    wide, own = ax._MidShared(fb._padded(g, 2 * m), 60), ax._MidShared(g, 60)
    assert wide.t()[:m + 1] == own.t()
    assert wide.apply(1, v)[:m + 1] == own.apply(1, v)


def test_failing_lower_rung_check_still_converges(monkeypatch):
    """Negative control for the look-ahead build: with the top rung's
    tolerance on every rung, the seed's check at rung 20 fails, so rung
    20's correction reads the degree-40 build it was checked on to degree
    20, and a second degree-40 build checks the corrected g; the bootstrap
    still reaches 10**-(P-6) at N=80, P=60."""
    rung_tolerance = ax._rung_tolerance
    monkeypatch.setattr(ax, "_rung_tolerance",
                        lambda tg, tol, top: rung_tolerance(tg, tol, True))
    degrees = _counting_builds(monkeypatch)
    g = ax.approx_fixed_point(80, 60)
    monkeypatch.undo()
    assert degrees == [40, 40, 80, 80, 80]
    assert _residual(g, 60) < Decimal("1e-54")


def test_top_rung_stopped_at_truncation_level_is_caught(monkeypatch):
    """Negative control for the rung stop: applied to the top rung too, it
    returns the 30-digit seed at N=20, P=60, whose residual is above
    10**-(P-6); the full bootstrap's is below."""
    tol = Decimal(10) ** -54
    assert _residual(ax.approx_fixed_point(20, 60), 60) < tol
    rung_tolerance = ax._rung_tolerance
    monkeypatch.setattr(ax, "_rung_tolerance",
                        lambda tg, tol, top: rung_tolerance(tg, tol, False))
    assert _residual(ax.approx_fixed_point(20, 60), 60) > tol


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
        mv = mat_vec(m, desk.v0)
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
    """The Decimal oracle and the binary64 head iteration both take the
    eigenvalue nearest the shift."""
    with decimal.localcontext(ct._context(30)):
        x = inverse_iteration(_TOY, Decimal(shift), 1, 30)
    assert all(abs(a - Decimal(b)) < Decimal("1e-20") for a, b in zip(x, vector))
    y = ax._inverse_iteration(float_matrix(_TOY).tolist(), float(shift), 1, 30)
    assert all(abs(a - float(b)) < 1e-12 for a, b in zip(y, vector))


@pytest.mark.parametrize("matrix, shift, power", [
    pytest.param(_TOY, "5", 1, id="shift equidistant from 4 and 6"),
    pytest.param([[-m for m in row] for row in _TOY], "-4.1", 2, id="nearest eigenvalue -4 < 0"),
])
def test_inverse_iteration_negative_controls(matrix, shift, power):
    with decimal.localcontext(ct._context(30)), pytest.raises(EigenSelectionAmbiguous):
        inverse_iteration(matrix, Decimal(shift), power, 30)
    with pytest.raises(EigenSelectionAmbiguous):
        ax._inverse_iteration(float_matrix(matrix).tolist(), float(shift), power, 30)


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
    """Column k >= 1 of DT is a**-1 u2**k + factor16 u1**k digit for digit,
    from the baby powers u2**k, u1**k of the integer power tables, each
    product rounded once at the engine's scale; column 0 differs."""
    jac_dt = dt_matrix(desk.g0, digits=30)
    s = ax._MidShared(engine_ints(desk.g0, 30), 30)
    jac_simple = []
    for k in range(desk.n + 1):
        up2, up1 = (table.power(k, desk.n + 1) for table in (s.table_squared, s.table_affine))
        col = fb._add_lists(ax._rounded([s.a_inv * c for c in up2], s.unit),
                            ax._rounded(fb._conv(s.factor16, up1, desk.n), s.unit))
        jac_simple.append(decimals(col, s.scale))
    for k in range(1, desk.n + 1):
        for i in range(desk.n + 1):
            assert jac_dt[i][k] == jac_simple[k][i]
    assert any(jac_dt[i][0] != jac_simple[0][i] for i in range(desk.n + 1))


def test_newton_builds_shared_evaluations_once_per_iterate(monkeypatch):
    """Each fixed-point Newton iterate builds the midpoint shared evaluations
    once and reads both T(g) and the Jacobian from them; the Jacobian it
    factors is approx_jacobian("fixed_point", g) entry for entry, each
    rounded to binary64, the arithmetic of the block map.  At N=20, P=60
    the 30-digit seed still takes a Newton correction."""
    iterates, factored = [], []
    shared_cls, lu_factor = ax._MidShared, ax.lu_factor

    class CountingShared(shared_cls):
        def __init__(self, g, digits, width=None):
            iterates.append(decimals(g, digits + 6))
            super().__init__(g, digits, width)

    def recording_lu_factor(a):
        factored.append([row[:] for row in a])
        return lu_factor(a)

    monkeypatch.setattr(ax, "_MidShared", CountingShared)
    monkeypatch.setattr(ax, "lu_factor", recording_lu_factor)
    g = ax.approx_fixed_point(20, 60)
    monkeypatch.undo()
    assert len(iterates) == 2
    assert len(factored) == len(iterates) - 1
    assert iterates[-1] == g
    for g_k, jac in zip(iterates, factored):
        ref = ax.approx_jacobian("fixed_point", g_k, digits=60)
        assert jac == [[float(m) for m in row] for row in ref]


def _sup_diff(x, y) -> Decimal:
    return max(abs(a - b) for a, b in zip(x, y, strict=True))


@pytest.fixture(scope="module")
def bootstrap40():
    """approx_fixed_point and both approx_eigenpair kinds at N=40, P=40."""
    g0 = ax.approx_fixed_point(40, 40)
    return g0, {kind: ax.approx_eigenpair(kind, g0, 40)[0] for kind in ("delta", "gamma")}


def test_fixed_point_matches_dense_newton(bootstrap40):
    """The block-preconditioned inexact Newton steps above degree K reach
    the zero that dense Newton on the whole Jacobian reaches."""
    g0, _ = bootstrap40
    assert _sup_diff(g0, oracle_fixed_point(40, 40)) < Decimal("1e-32")


@pytest.mark.parametrize("kind", ["delta", "gamma"])
def test_eigenpair_matches_full_inverse_iteration(bootstrap40, kind):
    """The head eigenvector refined by the block map agrees with inverse
    iteration on the whole (N+1) x (N+1) operator."""
    g0, vectors = bootstrap40
    assert _sup_diff(vectors[kind], oracle_eigenpair(kind, g0, 40)) < Decimal("1e-32")


@pytest.mark.parametrize("target, error, match", [
    pytest.param("fixed_point", NewtonDivergence, "Newton step at degree 40", id="fixed_point"),
    pytest.param("delta", EigenSelectionAmbiguous, "delta_eigen refinement above degree 20",
                 id="delta"),
    pytest.param("gamma", EigenSelectionAmbiguous, "gamma_eigen refinement above degree 20",
                 id="gamma"),
])
def test_block_map_with_wrong_tail_sign_fails_by_name(monkeypatch, bootstrap40, target,
                                                      error, match):
    """Negative control for the block-map iterations: with the tail scalar's
    sign flipped (+1, +1/x[0]**p) the tail doubles each step, and the solver
    stops at its step cap with its named error."""
    block_map = ax._block_map
    monkeypatch.setattr(ax, "_block_map", lambda head, tail, unit: block_map(head, -tail, unit))
    with pytest.raises(error, match=match):
        if target == "fixed_point":
            ax.approx_fixed_point(40, 40)
        else:
            ax.approx_eigenpair(target, bootstrap40[0], 40)


@pytest.mark.parametrize("entry, match", [("1E-400", "zero pivot in column 0"),
                                          ("1E+400", "factor not finite")])
def test_block_map_head_beyond_binary64_is_singular(entry, match):
    """Negative control for the binary64 block map: a head entry that
    binary64 rounds to 0.0 or beyond its range is a SingularJacobian by
    name, not a ZeroDivisionError, an OverflowError or a NaN."""
    unit = 10 ** 36
    head = [[int(Decimal(entry).scaleb(36)), 0], [0, unit]]
    with pytest.raises(SingularJacobian, match=match):
        ax._block_map(head, -unit, unit)


def test_block_map_solves_beyond_binary64_range():
    """The block map reads its head part scaled by a power of two, so a
    residual far below binary64's range at the engine's scale, or far above
    it as an integer, is solved, not flushed to zero or overflowed."""
    unit = 10 ** 36
    block = ax._block_map([[2 * unit, 0], [0, 4 * unit]], -unit, unit)
    assert block([2, 4, 6]) == [1, 1, -6]
    big = 1 << 1700
    assert block([2 * big, 4 * big, 6 * big]) == [big, big, -6 * big]


def test_no_lu_or_matrix_above_head_size(monkeypatch):
    """Structural guard: at N=80 the bootstrap factors and builds no matrix
    larger than the (K+1) x (K+1) head."""
    sizes = []
    lu_factor, head = ax.lu_factor, ax._MidShared.head

    def recording_lu_factor(a):
        sizes.append(len(a))
        return lu_factor(a)

    def recording_head(self, q, width):
        sizes.append(width)
        return head(self, q, width)

    monkeypatch.setattr(ax, "lu_factor", recording_lu_factor)
    monkeypatch.setattr(ax._MidShared, "head", recording_head)
    g0 = ax.approx_fixed_point(80, 60)
    for kind in ("delta", "gamma"):
        ax.approx_eigenpair(kind, g0, 60)
    assert sizes and max(sizes) == ct.HEAD_DEGREE + 1


def _baby_and_giant(table, width: int) -> list[list[int]]:
    """The baby powers and the giant step of a midpoint table, as integer lists."""
    return [table.power(k, width) for k in range(len(table.rows[0]))] + [table.giant]


@pytest.mark.parametrize("argument", ["affine", "dense"])
def test_integer_power_list_matches_decimal_oracle(bootstrap40, argument):
    """The baby powers u**0..u**20 and the giant step u**21 of the integer
    tables of the affine and the dense squared argument agree with Decimal
    p_mul powers at twice the precision within N 10**-(P+5); built at a
    scale 10 digits shorter they miss (negative control)."""
    n, digits = 40, 40
    shared = ax._MidShared(engine_ints(bootstrap40[0], digits), digits)
    table = {"affine": shared.table_affine, "dense": shared.table_squared}[argument]
    scale = shared.scale
    u = decimals(table.power(1, n + 1), scale)
    reference = oracle_power_list(u, fb.BABY_STEPS + 1, 2 * digits)

    def error(powers, power_scale):
        return max(_sup_diff(decimals(p, power_scale, n + 1), q)
                   for p, q in zip(powers, reference, strict=True))

    bound = n * Decimal(10) ** -(digits + 5)
    assert table.giant is not None
    assert error(_baby_and_giant(table, n + 1), scale) < bound
    short = scale - 10
    u_short = [round(x.scaleb(short)) for x in u]
    coarse = ax._MidTable(u_short, n + 1, n + 1, 10 ** short)
    assert error(_baby_and_giant(coarse, n + 1), short) > bound


@pytest.fixture(scope="module")
def bootstrap80():
    """approx_fixed_point at N=80, P=60 and its delta eigenvector."""
    g0 = ax.approx_fixed_point(80, 60)
    return g0, ax.approx_eigenpair("delta", g0, 60)[0]


class _EagerShared(MidDecimal):
    """The integer engine with every derivative term formed at construction."""

    def __init__(self, g, digits, width=None):
        super().__init__(g, digits, width)
        self.factor16, self.factor16_sq, self.factor17


def _engine_and_oracle(g0, v, digits: int):
    """t(), apply(1, v), apply(2, v) and the heads of M_1 and M_2 of the
    integer engine built lazily and eagerly (the heads from head-only
    builds) and of the Decimal oracle at twice the precision, as (name,
    lazy, eager, oracle, size) with the sup norm ``size`` of the input: 1
    for T and for the unit vectors the heads are images of, max(1, |v|)
    for the applies, which are linear.  Lazily, each output is read off a
    build of its own, which forms on first use only the derivative terms
    that output reads; eagerly, off one build that formed them all."""
    width = min(len(g0), ct.HEAD_DEGREE + 1)

    def outputs(full, heads):
        return ([full().t(), full().apply(1, v), full().apply(2, v)]
                + [[x for row in heads().head(q, width) for x in row] for q in (1, 2)])

    lazy = outputs(lambda: MidDecimal(g0, digits), lambda: MidDecimal(g0, digits, width))
    full, heads = _EagerShared(g0, digits), _EagerShared(g0, digits, width)
    eager = outputs(lambda: full, lambda: heads)
    with decimal.localcontext(ct._context(2 * digits)):
        oracle_build = DecimalShared(g0)
        oracle = outputs(lambda: oracle_build, lambda: oracle_build)
    one = Decimal(1)
    size = max(one, sup_norm(v))
    return list(zip(["T", "DT v", "L v", "head M_1", "head M_2"], lazy, eager, oracle,
                    [one, size, size, one, one]))


@pytest.mark.parametrize("scale", ["desk", "n80"])
def test_integer_engine_matches_decimal_oracle(request, scale):
    """Differential check of the integer midpoint engine against the Decimal
    one at twice the precision: T(g0), DT(g0) v and L(g0) v for the dense
    delta eigenvector v (|v| = delta), and the K+1 heads of M_1 and M_2
    from the head-only build, each within N 10**-(P+5) times the size of
    its input.  Every output of the lazily built engine equals that of the
    eagerly built one.  At N=80 every composition runs giant steps; at desk
    (N+1 = 21 baby powers) none does."""
    if scale == "desk":
        run = request.getfixturevalue("desk")
        g0, v, digits = run.g0, run.v0, 30
    else:
        (g0, v), digits = request.getfixturevalue("bootstrap80"), 60
    n = len(g0) - 1
    bound = n * Decimal(10) ** -(digits + 5)
    assert (MidDecimal(g0, digits).table_squared.giant is None) == (n + 1 <= fb.BABY_STEPS)
    for name, lazy, eager, oracle, size in _engine_and_oracle(g0, v, digits):
        assert lazy == eager, name
        assert _sup_diff(lazy, oracle) < bound * size, name


def test_midpoint_build_product_count(monkeypatch, bootstrap80):
    """Structural guard: a build at N=80, P=60 makes
    2(m-1) + 2(ceil((N+1)/m) - 1) + 1 = 47 exact products (m = 21), all
    that T(g) reads: m - 1 per power table (u**2..u**20 and the giant step
    u**21), ceil(81/21) - 1 = 3 giant steps in each of the two
    compositions of g, and inner**2.  21 of them are squares (_sqr): the
    10 even powers of each table and inner**2; 26 general products
    (_conv).  The derivative terms take 10 more on first use, and none
    after: 3 giant steps in each of the two compositions of G', and the
    products factor16, factor16**2 (a square) and the two of factor17, 57
    in all, 22 of them squares.  A table of every power makes 158."""
    calls = []
    conv, sqr = ax._conv, ax._sqr

    def counting_conv(a, b, n):
        calls.append("conv")
        return conv(a, b, n)

    def counting_sqr(a, n):
        calls.append("sqr")
        return sqr(a, n)

    monkeypatch.setattr(ax, "_conv", counting_conv)
    monkeypatch.setattr(ax, "_sqr", counting_sqr)
    shared = ax._MidShared(engine_ints(bootstrap80[0], 60), 60)
    shared.t()
    t_calls = list(calls)
    for _ in range(2):
        shared.factor16, shared.factor16_sq, shared.factor17
    m, n = fb.BABY_STEPS, 80
    giant_steps = -(-(n + 1) // m) - 1
    squares = 2 * ((m - 1) // 2) + 1
    assert len(t_calls) == 2 * (m - 1) + 2 * giant_steps + 1 == 47
    assert t_calls.count("sqr") == squares == 21 and t_calls.count("conv") == 26
    assert len(calls) - len(t_calls) == 2 * giant_steps + 4 == 10
    assert calls.count("sqr") == squares + 1 == 22 and calls.count("conv") == 35


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
            with decimal.localcontext(ct._context(digits)):
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

    tables = op.OperatorTables.build(ctx, ball(run.g0))
    return MidDecimal(run.g0, ctx.precision), tables.shared, tables, ball


@pytest.mark.parametrize("scale", ["desk", "n40"])
def test_midpoint_operators_lie_in_ball_enclosures(request, scale):
    """Cross-engine check: T(g0), DT(g0) v and L(g0) v of the integer
    midpoint engine lie in the ball engine's enclosures at the point ball
    g0, for v with v(1) = v[0] != 0, so the normalisation terms of DT act."""
    run = request.getfixturevalue(scale)
    ctx, digits = run.ctx, run.ctx.precision
    mid, shared, tables, ball = _cross_engine(run)
    names = ["T", "DT v0", "L v0", "DT w0", "L w0"]
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
    with decimal.localcontext(ct._context(digits)):
        factor17 = decimals(mid.factor17, mid.scale, len(run.v0))
        dropped = p_sub(mid.apply(1, run.v0), p_scale(run.v0[0], factor17))
    assert _misses(tables.dt_apply(ctx, ball(run.v0)), dropped, digits)


@pytest.mark.parametrize("kind", ["fixed_point", "delta_eigen", "gamma_eigen"])
def test_column_kernels_contain_midpoint_jacobians(desk, kind):
    """Cross-engine check of the derivative: with the problem built on the
    point balls g0 and x0, column image k (Problem.column_images) contains
    column k of the midpoint Jacobian approx_jacobian(kind, g0, x0), for
    every k <= K."""
    ctx, digits = desk.ctx, desk.ctx.precision
    _, _, tables, ball = _cross_engine(desk)
    x0 = {"fixed_point": None, "delta_eigen": desk.v0, "gamma_eigen": desk.w0}[kind]
    if x0 is None:
        problem, x_ball = ct.Problem(0), ball(desk.g0)
    else:
        problem, x_ball = ct.Problem(ct.KINDS.index(kind), tables), ball(x0)
    jac = ax.approx_jacobian(kind, desk.g0, x0, digits=digits)
    images = problem.column_images(ctx, x_ball, len(jac) - 1)
    for k, image in enumerate(images):
        assert _misses(image, [row[k] for row in jac], digits) == [], k


def _column0(ctx, tables, q: int, column0, diagonal):
    """M_q e_0 + column0 - diagonal e_0 over the tables' ball, rounded once:
    column 0 of the column rule, for a rule with a deliberate mistake."""
    n = tables.shared.source.truncation
    out = fb.int_add(ctx, tables.basis_image(ctx, q, 0), column0)
    out = fb.int_add(ctx, out, fb.const_ball(n, ctx.ineg(diagonal)))
    return fb.FunctionBall.wrap(n, fb.int_outward(ctx, out, n))


def test_gamma_column0_without_power_factor_leaves_midpoint_jacobian(desk):
    """Negative control for the column rule: a gamma column 0 built from
    M_2 e_0 with -phi x in place of -2 phi x misses the midpoint
    Jacobian's column 0."""
    ctx, digits = desk.ctx, desk.ctx.precision
    _, _, tables, ball = _cross_engine(desk)
    w_ball = ball(desk.w0)
    phi = fb.coefficient(ctx, w_ball, 0).re
    wrong = _column0(ctx, tables, 2, fb.negate(ctx, fb.scale(ctx, phi, w_ball)),
                     ctx.isqr(phi))
    jac = ax.approx_jacobian("gamma_eigen", desk.g0, desk.w0, digits=digits)
    assert _misses(wrong, [row[0] for row in jac], digits)


@pytest.mark.parametrize("kind", ["fixed_point", "delta_eigen"])
def test_column0_without_variation_of_a_leaves_midpoint_jacobian(desk, kind):
    """Negative control for the column rule: a q = 1 column 0 built from an
    M_1 e_0 that drops the variation of a misses the midpoint Jacobian's
    column 0."""
    ctx, digits = desk.ctx, desk.ctx.precision
    _, _, tables, ball = _cross_engine(desk)
    zero = fb.IntBall([], 0, 0, Decimal(0), Decimal(0))
    dropped = dataclasses.replace(tables, variation=zero)
    if kind == "fixed_point":
        x0, wrong = None, _column0(ctx, dropped, 1, fb.zero_ball(desk.n), interval(1))
    else:
        x0, v_ball = desk.v0, ball(desk.v0)
        wrong = _column0(ctx, dropped, 1, fb.negate(ctx, v_ball),
                         fb.coefficient(ctx, v_ball, 0).re)
    jac = ax.approx_jacobian(kind, desk.g0, x0, digits=digits)
    assert _misses(wrong, [row[0] for row in jac], digits)


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
    Jacobian, probed column by column in exact arithmetic from the full
    build, for every problem kind: digit for digit for the fixed point and
    delta, and within one unit of the engine's scale 10**-(P+6) for gamma,
    whose lambda**2 and 2 lambda x are rounded there."""
    k1 = ct.HEAD_DEGREE + 1
    full = MidDecimal(n40.g0, 40)
    with decimal.localcontext(EXACT):
        refs = {kind: (x0, matrix(jacobian_probe(full, kind, x0), len(n40.g0)))
                for kind, x0 in (("fixed_point", None), ("delta_eigen", n40.v0),
                                 ("gamma_eigen", n40.w0))}
    for kind, (x0, ref) in refs.items():
        head = ax.approx_jacobian(kind, n40.g0, x0, digits=40)
        ref = [row[:k1] for row in ref[:k1]]
        if kind == "gamma_eigen":
            assert max(abs(a - b) for row, r in zip(head, ref) for a, b in zip(row, r)) \
                <= Decimal(10) ** -46
        else:
            assert head == ref, kind


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
    """A singular head is a SingularJacobian; an eigen kind whose
    eigenvalue is 0 has no tail scalar -1/lambda0**p, a ConfigError."""
    n = 3
    jac = [[Decimal(0)] * (n + 1) for _ in range(n + 1)]
    with pytest.raises(SingularJacobian):
        ax.build_lambda("fixed_point", jac, 30)
    identity = [[Decimal(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
    with pytest.raises(ConfigError, match="nonzero lambda0"):
        ax.build_lambda("delta_eigen", identity, 30, lambda0=Decimal(0))


def test_lambda_tail_scalars(desk):
    assert desk.lam_fixed.tail_scalar == -1
    with decimal.localcontext(ct._context(30)):
        assert abs(desk.lam_delta.tail_scalar + 1 / desk.lam0) < Decimal("1e-28")
        assert abs(desk.lam_gamma.tail_scalar + 1 / (desk.gam0 ** 2)) < Decimal("1e-28")


def test_perturbed_lambda_still_certifies(desk):
    """The Newton-like scheme tolerates a mildly wrong frozen map: with every
    head entry of the certificate's map moved by up to 1e-3, the bounds
    still pass the contraction inequality at rho = 1e-4."""
    import random
    rng = random.Random(77)
    rows = [list(r) for r in desk.lam_fixed.matrix]
    for i in range(len(rows)):
        for j in range(len(rows)):
            rows[i][j] = rows[i][j] + Decimal(rng.randint(-1000, 1000)) / Decimal(10) ** 6
    bumped = ct.LinearMap.from_decimals(rows, desk.lam_fixed.tail_scalar)
    c, rho = desk.ctx, Decimal("1e-4")
    epsilon, columns, tail = bounds_with_map(c, ct.Problem(0), desk.G0, rho, bumped)
    kappa = max(max(columns), tail)
    assert kappa < 1
    assert epsilon < c.mul_dn(rho, c.sub_dn(Decimal(1), kappa))


def test_mat_inv_identity():
    import random
    rng = random.Random(6)
    n = 10
    a = [[Decimal(rng.randint(-50, 50)) / 10 for _ in range(n)] for _ in range(n)]
    for i in range(n):
        a[i][i] += 15
    inv = ax.mat_inv(a, digits=40)
    with decimal.localcontext(ct._context(40)):
        for i in range(n):
            for j in range(n):
                s = sum(a[i][k] * inv[k][j] for k in range(n))
                assert abs(s - (1 if i == j else 0)) < Decimal("1e-30")
