import dataclasses
import decimal
import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import (
    REF_A,
    REF_ALPHA,
    REF_DELTA,
    REF_GAMMA,
    basis_ball,
    bounds_with_map,
    certificate_map,
    domain_points,
    eval_member,
    holds_polynomial,
    identity_map,
    oracle_kappa_columns,
    oracle_kappa_tail,
    powers_above_baby_steps,
    rand_decimal,
    rand_poly_ball,
    sample_member,
    with_tails,
)
from renormcert import balls as fb
from renormcert import cli
from renormcert import contraction as ct
from renormcert import operators as op
from renormcert import pipeline as pl
from renormcert.errors import (
    CertificationFailed,
    ConfigError,
    DimensionMismatch,
    InversionUncertified,
    SingularJacobian,
    StageFailure,
)
from renormcert.rounding import (EXACT, Interval, RoundingContext, exact_decimal, interval,
                                 rectangle)

ctx = RoundingContext(30)
DOM = fb.STANDARD_DISC
N = 8


class ToyProblem:
    """F(x) = K - x for a constant target: DF = -I everywhere.  It has the
    methods of :class:`ct.Problem` that the bounds and certify call, and
    the fixed point's kind, whose frozen map has the tail scalar -1."""

    kind = "fixed_point"

    def __init__(self, target: fb.FunctionBall):
        self.target = target

    def residual(self, c, x):
        return fb.sub(c, self.target, x)

    def column_images(self, c, x_ball, head_degree):
        return [fb.negate(c, basis_ball(x_ball.truncation, k)) for k in range(head_degree + 1)]

    def tail_phi_factor(self, c, x_ball):
        return interval(-1)

    def tail_channels(self, c, x_ball):
        return ()

    def enclosures(self, c, x0, radius, newton, newton_radius):
        return {}


def test_apply_lambda_identity():
    lam = identity_map(N)
    f = fb.inflate(ctx, fb.ball_from_decimals(DOM, ["1", "2", "-0.5"], N), "0.25")
    out = ct.apply_lambda(ctx, lam, f)
    assert all(out.coeffs[k].re == f.coeffs[k].re for k in range(N + 1))
    assert out.v_err == f.v_err and out.v_high == f.v_high


def test_apply_lambda_scaling():
    lam = identity_map(N, diagonal=2, tail_scalar=2)
    f = with_tails(fb.const_ball(N, 1), "0.5", "0.25")
    out = ct.apply_lambda(ctx, lam, f)
    assert out.coeffs[0].re == interval(2)
    assert out.v_high == Decimal("1.0")
    assert out.v_err == Decimal("0.5")


def test_apply_lambda_columns():
    rng = random.Random(1)
    rows = [[Decimal(rng.randint(-3, 3)) for _ in range(N + 1)] for _ in range(N + 1)]
    lam = ct.LinearMap.from_decimals(rows, -1)
    for k in (0, 3, N):
        out = ct.apply_lambda(ctx, lam, basis_ball(N, k))
        for i in range(N + 1):
            assert out.coeffs[i].re.contains(rows[i][k])


def test_apply_lambda_dimension_mismatch():
    """A head wider than the ball does not fit it; a narrower one does."""
    lam = identity_map(N + 2)
    with pytest.raises(DimensionMismatch):
        ct.apply_lambda(ctx, lam, fb.const_ball(N, 1))
    ct.apply_lambda(ctx, identity_map(N), fb.const_ball(N + 2, 1))


def test_lambda_norm():
    lam = ct.LinearMap.from_decimals([[1, -2], [3, 4]], tail_scalar="-0.5")
    assert ct.lambda_norm_upper(ctx, lam) == 6  # column 1: |\-2| + |4|


@pytest.mark.parametrize("matrix, tail", [([], -1), ([[1, 2]], -1), ([[1, 0], [0]], -1),
                                          ([["NaN"]], -1), ([[1]], "Infinity")],
                         ids=["empty", "wide", "ragged", "nan_entry", "infinite_tail"])
def test_linear_map_refuses_malformed_matrix(matrix, tail):
    """An empty or non-square head, or a non-finite entry, is a ConfigError."""
    with pytest.raises(ConfigError):
        ct.LinearMap.from_decimals(matrix, tail)


def test_verify_invertible_identity():
    assert ct.verify_lambda_invertible(ctx, identity_map(N)) == 0


def test_verify_invertible_singular():
    rows = [[Decimal(0)] * (N + 1) for _ in range(N + 1)]
    with pytest.raises(InversionUncertified):
        ct.verify_lambda_invertible(ctx, ct.LinearMap.from_decimals(rows, -1))
    with pytest.raises(InversionUncertified):
        ct.verify_lambda_invertible(ctx, identity_map(N, tail_scalar=0))


def test_verify_invertible_desk_lambda(desk):
    bound = ct.verify_lambda_invertible(desk.ctx, desk.lam_fixed)
    assert bound < Decimal("1e-20")


def test_toy_epsilon_zero():
    target = fb.ball_from_decimals(DOM, ["0.25", "-1", "0.5"], N)
    problem = ToyProblem(target)
    lam = identity_map(N, diagonal=-1, tail_scalar=-1)
    eps, newton, newton_phi = ct.bound_epsilon(ctx, problem, target, lam)
    assert eps == 0 and newton.coeffs == target.coeffs
    assert newton_phi == interval("0.25")


def test_toy_columns_and_tail_zero():
    target = fb.ball_from_decimals(DOM, ["0.25", "-1", "0.5"], N)
    problem = ToyProblem(target)
    lam = identity_map(N, diagonal=-1, tail_scalar=-1)
    ball = fb.inflate(ctx, target, "0.125")
    images = problem.column_images(ctx, ball, N)
    assert ct.bound_kappa_columns(ctx, images, lam) == ([0] * (N + 1), 0)
    assert ct.bound_kappa_tail(ctx, problem, ball, lam) == (0, 0)
    with pytest.raises(DimensionMismatch):   # a head column without its image
        ct.bound_kappa_columns(ctx, images[:N], lam)


def test_toy_certificate_passes():
    """certify inverts the toy's columns -e_k to the map -I it needs, so
    its Newton step lands on the target; the solution ball is centred on
    x0, and its error part is the exact distance 0.0001 of the step from x0,
    as kappa r = 0."""
    target = fb.ball_from_decimals(DOM, ["0.25", "-1", "0.5"], N)
    problem = ToyProblem(target)
    x0 = fb.ball_from_decimals(DOM, ["0.25", "-1", "0.4999"], N)
    cert = ct.certify(ctx, problem, x0, "0.001")
    assert cert.passed and cert.kappa == 0 and cert.head_degree == N
    assert cert.epsilon <= Decimal("0.0001")
    assert cert.kappa_phi == cert.step_radius == 0
    assert cert.newton.coeffs == target.coeffs
    ball = cert.solution_ball(ctx)
    assert ball.coeffs == x0.coeffs and ball.v_high == 0 and ball.v_err == Decimal("0.0001")
    assert holds_polynomial(ball, [Decimal(x) for x in ("0.25", "-1", "0.5")], N)


class _BlurredToy(ToyProblem):
    """The toy with an error part of 0.001 on every column image, so the
    columns' part of kappa_phi is the only one (the toy has no tail
    channel)."""

    def column_images(self, c, x_ball, head_degree):
        return [fb.inflate(c, image, "0.001")
                for image in super().column_images(c, x_ball, head_degree)]


def test_row0_readouts_round_the_map_row_up():
    """max_j |Lam_0j| is rounded up where the precision cuts it: at 5 digits
    a map whose row 0 has 1.00009 reads an error part of 1 in a column
    image, and one in the residual, as at least 1.00009 in coefficient 0,
    in kappa_phi's column part and in phi(Phi(x0)) alike."""
    c = RoundingContext(5)
    lam = ct.LinearMap.from_decimals([["1.00009", "0"], ["0", "1"]], -1)
    blurred = with_tails(fb.zero_ball(1), 0, 1)
    assert ct.bound_kappa_columns(c, [blurred, blurred], lam)[1] >= Decimal("1.00009")

    class Blurred:
        def residual(self, c, x):
            return blurred
    phi = ct.bound_epsilon(c, Blurred(), fb.zero_ball(1), lam)[2]
    assert phi.lo <= Decimal("-1.00009") and phi.hi >= Decimal("1.00009")


def test_kappa_phi_takes_the_columns_part():
    """kappa_phi is the larger of its two parts: for the blurred toy, whose
    map is -I, it is the columns' part ||Lam|| 0.001 = 0.001, which is also
    kappa, and the step radius is kappa r."""
    target = fb.ball_from_decimals(DOM, ["0.25", "-1", "0.5"], N)
    x0 = fb.ball_from_decimals(DOM, ["0.25", "-1", "0.4999"], N)
    cert = ct.certify(ctx, _BlurredToy(target), x0, "0.001")
    assert cert.kappa_phi == cert.kappa == Decimal("0.001") and cert.kappa_tail == 0
    assert (cert.kappa_phi_columns, cert.kappa_phi_tail) == (cert.kappa_phi, 0)
    assert cert.step_radius == EXACT.multiply(cert.kappa, cert.proven_radius)


@pytest.mark.parametrize("power, with_tables", [(1, False), (2, False), (0, True),
                                               (3, True), (-1, False)])
def test_problem_refuses_misuse(desk, power, with_tables):
    """An eigen problem needs the parameter-ball tables, the fixed-point
    problem builds its own, and p lies in 0..2: otherwise a ConfigError,
    not an AttributeError inside a bound."""
    with pytest.raises(ConfigError):
        ct.Problem(power, desk.tables if with_tables else None)


def test_problem_kinds(desk):
    assert [ct.Problem(p, desk.tables if p else None).kind for p in range(3)] == \
        list(ct.KINDS) == ["fixed_point", "delta_eigen", "gamma_eigen"]


def test_epsilon_requires_exact_center(desk):
    with pytest.raises(ConfigError):
        ct.bound_epsilon(desk.ctx, ct.Problem(0),
                         fb.inflate(desk.ctx, desk.G0, "1e-9"), desk.lam_fixed)


def test_certificates_build_no_decimal_coefficients(desk, monkeypatch):
    """The certificate stages run on the integer form alone: certifying the
    three desk problems, with the parameter ball's tables built in between,
    builds the Decimal ``coeffs`` view of no ball (reading a centre's
    decimals does)."""
    built = []
    view = fb.FunctionBall.coeffs
    monkeypatch.setattr(fb.FunctionBall, "coeffs",
                        property(lambda f: built.append(f) or view.fget(f)))
    c = desk.ctx
    fixed = ct.certify(c, ct.Problem(0), desk.G0, pl.RHO)
    param = fb.inflate(c, desk.G0, fixed.proven_radius)
    tables = op.OperatorTables.build(c, param)
    for power, x0 in ((1, desk.V0), (2, desk.W0)):
        assert ct.certify(c, ct.Problem(power, tables), x0, pl.RHO).passed
    assert built == []
    pl._centre(desk.G0)
    assert built == [desk.G0]


@pytest.mark.parametrize("rho", ["abc", "nan", "inf"])
def test_certify_refuses_a_radius_that_is_not_a_finite_number(desk, rho):
    """As RunConfig refuses such a rho: a ConfigError, not a raw
    decimal.InvalidOperation, nor a run on an infinite ball."""
    with pytest.raises(ConfigError, match="rho"):
        ct.certify(desk.ctx, ct.Problem(0), desk.G0, rho)


def test_certification_failure_small_rho(desk):
    with pytest.raises(CertificationFailed) as info:
        ct.certify(desk.ctx, ct.Problem(0), desk.G0, "1e-13")
    cert = info.value.certificate
    assert cert is not None and not cert.passed
    assert cert.epsilon > 0 and cert.kappa > 0 and cert.rho == Decimal("1e-13")


def test_radius_changes_no_fixed_point_digit(desk):
    """The digits come from the a-posteriori radius, not from rho: the desk
    fixed point certified at rho = 1e-7 and at 1e-11, the smallest decade
    above its epsilon (2.7e-12), gives the same digit strings for a and
    alpha.  Negative control: the next decade down, 1e-12, lies below
    epsilon, so no contraction is proven there."""
    from renormcert.pipeline import certified_digits

    wide = ct.certify(desk.ctx, ct.Problem(0), desk.G0, "1e-7")
    narrow = ct.certify(desk.ctx, ct.Problem(0), desk.G0, "1e-11")
    for name in ("a", "alpha"):
        digits = certified_digits(wide.enclosures[name])
        assert digits == certified_digits(narrow.enclosures[name])
        assert digits[1] == {"a": 15, "alpha": 15}[name]
    assert Decimal("2.7e-12") < wide.epsilon < Decimal("2.71e-12")
    with pytest.raises(CertificationFailed):
        ct.certify(desk.ctx, ct.Problem(0), desk.G0, "1e-12")


def test_desk_fixed_point_certificate(desk):
    cert = desk.cert_fixed
    assert cert.passed
    assert cert.kappa < 1
    assert cert.kappa_columns_max < 1
    assert cert.kappa_tail < 1
    assert cert.epsilon < cert.rho * (1 - cert.kappa)
    a = cert.enclosures["a"]
    assert a.contains(Decimal("-0.3995352805231344"))
    alpha = cert.enclosures["alpha"]
    assert alpha.contains(Decimal("-2.5029078750958928"))


def test_certificate_payload_roundtrips(desk, tmp_path):
    payload = desk.cert_fixed.to_payload()
    assert sorted(payload) == sorted([
        "kind", "rho", "epsilon", "kappa", "kappa_columns_max", "kappa_tail", "kappa_phi",
        "kappa_phi_columns", "kappa_phi_tail", "head_degree", "passed", "posterior_radius",
        "step_radius", "enclosures", "config"])
    assert payload["head_degree"] == 20
    path = tmp_path / "certificate_fixed_point.json"
    path.write_text(json.dumps({"certificate": payload}))
    assert cli._read_enclosures(str(path)) == desk.cert_fixed.enclosures
    assert payload["passed"] is True
    assert Decimal(payload["epsilon"]) == desk.cert_fixed.epsilon


@pytest.mark.parametrize("scale", ["desk", "n40"])
def test_kappa_phi_is_the_larger_of_its_parts(desk, n40, scale):
    """Every payload carries kappa_phi's column part and tail part, and
    kappa_phi is their larger, as kappa is the larger of kappa_columns_max
    and kappa_tail.  At desk and N = 40 the row-0 column part stays below
    the tail part in all three certificates, so the tail part is kappa_phi."""
    certs = ((desk.cert_fixed, desk.cert_delta, desk.cert_gamma) if scale == "desk"
             else tuple(n40.result.certificates.values()))
    assert len(certs) == 3
    for cert in certs:
        payload = cert.to_payload()
        columns, tail = (Decimal(payload[k]) for k in ("kappa_phi_columns", "kappa_phi_tail"))
        assert Decimal(payload["kappa_phi"]) == max(columns, tail) == tail > columns > 0
        assert Decimal(payload["kappa"]) == max(Decimal(payload["kappa_columns_max"]),
                                                Decimal(payload["kappa_tail"]))


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers carry a coarse ambient decimal context
    (5 digits, rounding toward -inf), unlike the test process."""
    coarse = decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR)
    return ProcessPoolExecutor(max_workers=workers, initializer=decimal.setcontext,
                               initargs=(coarse,))


def test_worker_determinism(desk):
    """The kappa column bounds computed in pool workers, one or two, are
    those of this process: they read nothing of the ambient decimal context."""
    ball = fb.inflate(desk.ctx, desk.G0, pl.RHO)
    args = (desk.ctx, ct.Problem(0).column_images(desk.ctx, ball, 20), desk.lam_fixed)
    here = ct.bound_kappa_columns(*args)
    for workers in (1, 2):
        with _worker_pool(workers) as pool:
            there = list(pool.map(ct.bound_kappa_columns, *([a] * workers for a in args)))
        assert there == [here] * workers


def _dense_form(lam: ct.LinearMap, n: int) -> ct.LinearMap:
    """The block map lam written as a dense map on degrees 0..n: its head,
    then the tail scalar on the rest of the diagonal."""
    k1 = lam.dim
    rows = [list(row) + [Decimal(0)] * (n + 1 - k1) for row in lam.matrix]
    rows += [[lam.tail_scalar if i == j else Decimal(0) for j in range(n + 1)]
             for i in range(k1, n + 1)]
    return ct.LinearMap.from_decimals(rows, lam.tail_scalar)


@pytest.mark.parametrize("head", [10, 20])
@pytest.mark.parametrize("target", ["fixed_point", "delta", "gamma"])
def test_tail_bound_covers_columns_above_head(n40, monkeypatch, target, head):
    """Oracle for the tail argument at N = 40: the theta**(K+1) bound of
    bound_kappa_tail bounds every column k > K, computed one by one through
    the dense form of the same map, whose columns 0..K and epsilon are
    those of the block map."""
    powers_above_baby_steps(monkeypatch)
    problem, x0, ball, lam = n40.setup(target, head)
    assert lam.dim == head + 1
    dense = _dense_form(lam, 40)
    images = problem.column_images(n40.ctx, ball, 40)
    columns, dense_phi = ct.bound_kappa_columns(n40.ctx, images, dense)
    head_columns, head_phi = ct.bound_kappa_columns(n40.ctx, images[:head + 1], lam)
    tail, tail_phi = ct.bound_kappa_tail(n40.ctx, problem, ball, lam)
    assert columns[:head + 1] == head_columns
    assert max(columns[head + 1:]) <= tail
    # kappa_phi bounds coefficient 0 of every column, those above K too
    assert dense_phi <= max(head_phi, tail_phi)
    assert (ct.bound_epsilon(n40.ctx, problem, x0, dense)
            == ct.bound_epsilon(n40.ctx, problem, x0, lam))


@pytest.mark.parametrize("head, target", [(10, "fixed_point"), (10, "delta"),
                                          (10, "gamma"), (20, "fixed_point")])
def test_tail_bound_at_full_degree_misses_columns_above_head(n40, monkeypatch, head, target):
    """Negative control: the tail formula with theta**(N+1) in place of
    theta**(K+1) (what the dense form of the map gets) lies below a column
    above K, so the factor must follow the head degree."""
    powers_above_baby_steps(monkeypatch)
    problem, _, ball, lam = n40.setup(target, head)
    dense = _dense_form(lam, 40)
    columns = ct.bound_kappa_columns(n40.ctx, problem.column_images(n40.ctx, ball, 40), dense)[0]
    assert ct.bound_kappa_tail(n40.ctx, problem, ball, dense)[0] < max(columns[head + 1:])


def test_certificate_deterministic_across_workers(desk):
    """A certificate computed in a pool worker has the payload of the one
    computed in this process."""
    with _worker_pool(1) as pool:
        cert = pool.submit(ct.certify, desk.ctx, ct.Problem(0), desk.G0, pl.RHO).result()
    assert cert.passed
    assert cert.to_payload() == desk.cert_fixed.to_payload()


def test_precision_antitone(desk):
    """Widening the working precision never worsens epsilon or kappa."""
    lo, hi = RoundingContext(30), RoundingContext(60)
    certs = {}
    for c in (lo, hi):
        certs[c.precision] = ct.certify(c, ct.Problem(0), desk.G0, pl.RHO)
    assert certs[60].epsilon <= certs[30].epsilon
    assert certs[60].kappa <= certs[30].kappa


def test_delta_certificate(desk):
    cert = desk.cert_delta
    assert cert.passed
    d = cert.enclosures["delta"]
    assert d.contains(Decimal("4.669201609102990671"))


def test_gamma_certificate(desk):
    cert = desk.cert_gamma
    assert cert.passed
    g = cert.enclosures["gamma"]
    assert g.contains(Decimal("6.619036510817928045"))


def test_eigen_digits_use_tightest_radius(desk):
    """Eigenvalue enclosures come from the tighter of rho and the a-posteriori
    radius r, cut by the Newton step's phi(Phi(x0)) +- kappa_phi r, so their
    certified digit counts never fall below the rho-based or r-based ones.
    phi(Phi(x0)) is x0's coefficient 0 minus row 0 of Lam on F(x0)'s
    midpoints, exactly, widened by max_j |Lam_0j| times the residual's
    rad and error part, the part of them that reaches row 0: within a
    rounding of that and narrower than coefficient 0 of the ball Phi(x0),
    whose rad and error part carry ||Lam||."""
    from renormcert.pipeline import certified_digits

    c = desk.ctx
    for cert, centre, name, lam, power in (
            (desk.cert_delta, desk.V0, "delta", desk.lam_delta, 1),
            (desk.cert_gamma, desk.W0, "gamma", desk.lam_gamma, 2)):
        problem = ct.Problem(power, desk.tables)
        residual = problem.residual(c, centre)
        row0 = max(abs(x) for x in lam.rows[0])
        error = c.mul_up(c.scaled_up(row0, lam.scale), residual.v_err)
        assert 0 < error < cert.newton.v_err
        newton = ct.bound_epsilon(c, problem, centre, lam)[2]
        s = residual.scale + lam.scale
        exact = Fraction(centre.mid[0], 10 ** centre.scale) - \
            Fraction(sum(a * b for a, b in zip(lam.rows[0], residual.mid)), 10 ** s)
        half = Fraction(row0 * residual.rad, 10 ** s) + Fraction(error)
        assert residual.rad > 0 and centre.rad == 0
        ulp = Fraction(1, 10 ** (c.precision - 1))
        assert Fraction(newton.lo) <= exact - half and exact + half <= Fraction(newton.hi)
        assert Fraction(newton.hi) - Fraction(newton.lo) <= 2 * half + 2 * ulp * abs(exact)
        ball = fb.coefficient(c, cert.newton, 0).re
        assert newton.hi - newton.lo < ball.hi - ball.lo
        phi = centre.coeffs[0].re
        by_rho = Interval(c.sub_dn(phi.lo, cert.rho), c.add_up(phi.hi, cert.rho))
        enc = cert.enclosures[name]
        assert cert.proven_radius == min(cert.rho, cert.posterior_radius)
        r = cert.proven_radius
        by_r = Interval(c.sub_dn(phi.lo, r), c.add_up(phi.hi, r))
        step = c.mul_up(cert.kappa_phi, r)
        by_step = Interval(c.sub_dn(newton.lo, step), c.add_up(newton.hi, step))
        assert enc == Interval(max(by_r.lo, by_step.lo), min(by_r.hi, by_step.hi))
        assert by_rho.contains_interval(by_r) and by_r.contains_interval(enc)
        assert certified_digits(enc)[1] > certified_digits(by_r)[1] >= \
            certified_digits(by_rho)[1]


def test_delta_interval_consistent_with_rayleigh(desk):
    """The certified interval intersects the independent coefficient-ratio
    enclosure computed from the certified eigenfunction ball."""
    v_ball = fb.inflate(desk.ctx, desk.V0, desk.cert_delta.rho)
    image = desk.tables.dt_apply(desk.ctx, v_ball)
    ratio = desk.ctx.idiv(fb.coefficient(desk.ctx, image, 0).re,
                          fb.coefficient(desk.ctx, v_ball, 0).re)
    cert = desk.cert_delta.enclosures["delta"]
    assert ratio.lo <= cert.hi and cert.lo <= ratio.hi


def test_certificate_soundness_pointwise(desk):
    """Sampled members of the certified ball map under the operator to values
    within the pointwise envelope of a moderately inflated ball (the
    derivative norm of the operator is about 6.3, so image spread is a small
    multiple of rho)."""
    import decimal as _dec

    rng = random.Random(31)
    rho = desk.cert_fixed.rho
    ball = fb.inflate(desk.ctx, desk.G0, rho)
    envelope = fb.inflate(desk.ctx, desk.G0, Decimal(10) * rho)
    for _ in range(30):
        m = sample_member(rng, ball)
        with _dec.localcontext(_dec.Context(prec=120)):
            a_m = eval_member(m, Decimal(1), 120)
            for z in domain_points(rng, 20):
                inner = eval_member(m, a_m * a_m * z, 120)
                tm = eval_member(m, inner * inner, 120) / a_m
                out = fb.evaluate(desk.ctx, envelope, rectangle(z))
                assert out.re.lo - Decimal("1e-12") <= tm <= out.re.hi + Decimal("1e-12")


def test_certify_needs_no_approx_numerics(desk, monkeypatch):
    """The certificate path calls nothing in the non-rigorous bootstrap and no
    second invertibility proof: kappa < 1 is the proof that Lam is invertible."""
    import inspect

    from renormcert import approx as ax

    def refuse(*args, **kwargs):
        raise AssertionError("certify called into the bootstrap numerics")

    for name, obj in vars(ax).items():
        if inspect.isfunction(obj) and obj.__module__ == ax.__name__:
            monkeypatch.setattr(ax, name, refuse)
    monkeypatch.setattr(ct, "verify_lambda_invertible", refuse)
    for problem, x0, rho, fixture_cert in (
            (ct.Problem(0), desk.G0, pl.RHO, desk.cert_fixed),
            (ct.Problem(1, desk.tables), desk.V0, pl.RHO, desk.cert_delta),
            (ct.Problem(2, desk.tables), desk.W0, pl.RHO, desk.cert_gamma)):
        cert = ct.certify(desk.ctx, problem, x0, rho)
        assert cert.passed
        assert cert.to_payload() == fixture_cert.to_payload()


def _modified_map(lam, change):
    rows = [list(row) for row in lam.matrix]
    tail = lam.tail_scalar
    if change == "row 3 zeroed":
        rows[3] = [Decimal(0)] * len(rows)
    elif change == "row 3 := row 5":
        rows[3] = list(rows[5])
    elif change == "column 7 := column 2":
        for row in rows:
            row[7] = row[2]
    else:
        tail = Decimal(0)
    return ct.LinearMap.from_decimals(rows, tail)


@pytest.mark.parametrize("change, part", [
    ("row 3 zeroed", "kappa_columns_max"),
    ("row 3 := row 5", "kappa_columns_max"),
    ("column 7 := column 2", "kappa_columns_max"),
    ("tail scalar 0", "kappa_tail"),
])
def test_singular_map_fails_with_kappa_at_least_one(desk, change, part):
    """A frozen map that is not invertible cannot pass: ||I - Lam DF(x0)|| < 1
    would make it onto, so the kappa bound of a singular map is at least 1,
    in its columns or in its tail."""
    lam = _modified_map(desk.lam_fixed, change)
    _, columns, tail = bounds_with_map(desk.ctx, ct.Problem(0), desk.G0, pl.RHO, lam)
    assert {"kappa_columns_max": max(columns), "kappa_tail": tail}[part] >= 1


@pytest.mark.parametrize("target", ["fixed_point", "delta", "gamma"])
@pytest.mark.parametrize("scale", ["desk", "n40"])
def test_tail_bound_is_at_least_its_decimal_statement(desk, n40, scale, target):
    """bound_kappa_tail, both its kappa part and its kappa_phi part, is at
    least the same bound stated in exact Decimal from the certificate's
    own map, thetas and channel norms (helpers.oracle_kappa_tail), for all
    three problems at desk and at N = 40.  It fails on theta**(K+2) for
    theta**(K+1), and on a tail without the factor ||Lam|| (the fixed
    point's and delta's ||Lam|| exceed 1)."""
    c, problem, ball, _, lam, cert = _certificate_setup(desk, n40, scale, target)
    kappa_tail, tail_phi = ct.bound_kappa_tail(c, problem, ball, lam)
    exact_tail, exact_phi = oracle_kappa_tail(c, problem, ball, lam)
    assert exact_tail <= kappa_tail <= exact_tail * Decimal("1.000001")
    assert exact_phi <= tail_phi <= exact_phi * Decimal("1.000001")
    assert cert.kappa_tail == kappa_tail and cert.kappa_phi >= tail_phi


def _certificate_setup(desk, n40, scale: str, target: str):
    """(context, problem, ball, column images, map, certificate) of a
    certificate at desk or N = 40, as ``certify`` forms them."""
    if scale == "desk":
        problem, x0, cert = {"fixed_point": (ct.Problem(0), desk.G0, desk.cert_fixed),
                             "delta": (ct.Problem(1, desk.tables), desk.V0, desk.cert_delta),
                             "gamma": (ct.Problem(2, desk.tables), desk.W0, desk.cert_gamma)}[target]
        return (desk.ctx, problem, *certificate_map(desk.ctx, problem, x0, pl.RHO), cert)
    problem, _, ball, lam = n40.setup(target, 20)
    return (n40.ctx, problem, ball, problem.column_images(n40.ctx, ball, 20), lam,
            n40.result.certificates[target])


@pytest.mark.parametrize("target", ["fixed_point", "delta", "gamma"])
@pytest.mark.parametrize("scale", ["desk", "n40"])
def test_column_bounds_are_their_decimal_statement_rounded_up(desk, n40, scale, target):
    """Each kappa column bound, and the columns' part of kappa_phi, is the
    same bound stated in exact Decimal (helpers.oracle_kappa_columns),
    rounded up: at least it, and within a few units of the last place of
    it.  A diagonal entry moved by its radius, either way, misses.  The
    certificate's kappa_phi is at least the columns' part."""
    c, _, _, images, lam, cert = _certificate_setup(desk, n40, scale, target)
    columns, row0 = ct.bound_kappa_columns(c, images, lam)
    exact_columns, exact_row0 = oracle_kappa_columns(lam, images)
    for bound, exact in [*zip(columns, exact_columns), (row0, exact_row0)]:
        ulp = Decimal(1).scaleb(bound.adjusted() - c.precision + 1)
        assert exact <= bound <= EXACT.add(exact, 4 * ulp)
    assert cert.kappa_phi >= row0 and cert.kappa_columns_max == max(columns)


def _member_image(lam: ct.LinearMap, member: dict) -> dict:
    """The frozen map applied exactly to a member: head rows on degrees
    0..K, the tail scalar on every degree above K."""
    k1 = lam.dim
    with decimal.localcontext(EXACT):
        out = {i: sum((row[k] * member.get(k, Decimal(0)) for k in range(k1)), Decimal(0))
               for i, row in enumerate(lam.matrix)}
        out.update({d: lam.tail_scalar * c for d, c in member.items() if d >= k1})
    return out


def _holds_member(ball: fb.FunctionBall, member: dict) -> bool:
    n = ball.truncation
    top = max(max(member), n)
    return holds_polynomial(ball, [member.get(d, Decimal(0)) for d in range(top + 1)], n)


def _high_content_misses(seed: int, at_degree_n: bool) -> int:
    """Sampled members with content above N (within v_high) of balls
    without an error part, through apply_lambda and sub, the kernels of
    the Newton step x0 - Lam F(x0); counts the exact images the image balls
    do not hold.  With ``at_degree_n`` each member's high content is moved
    down to degree N, which v_high may not hold."""
    rng = random.Random(seed)
    n, k = 6, 3
    misses = 0
    for _ in range(10):
        f = with_tails(rand_poly_ball(rng, n, n), Decimal("0.01"), Decimal(0))
        g = with_tails(rand_poly_ball(rng, n, n), Decimal("0.02"), Decimal(0))
        lam = ct.LinearMap.from_decimals(
            [[rand_decimal(rng) for _ in range(k + 1)] for _ in range(k + 1)], rand_decimal(rng))
        fm, gm = sample_member(rng, f), sample_member(rng, g)
        if at_degree_n:
            for m in (fm, gm):
                m[n] += sum(m.pop(d) for d in sorted(m) if d > n)
        with decimal.localcontext(EXACT):
            diff = {d: fm.get(d, Decimal(0)) - gm.get(d, Decimal(0)) for d in set(fm) | set(gm)}
        misses += not _holds_member(ct.apply_lambda(ctx, lam, f), _member_image(lam, fm))
        misses += not _holds_member(fb.sub(ctx, f, g), diff)
    return misses


def test_high_content_stays_above_degree_n_through_lambda_and_sub():
    """v_high bounds content of degree above N only, through apply_lambda
    and sub, the kernels that form the Newton step: a member's content
    above N (within v_high) maps to content above N (within the image's
    v_high), and its coefficients 0..N into the image's intervals, which
    v_high does not widen.  The Newton step's enclosure reads coefficient
    0 without v_high and rests on this.  Negative control: the same
    content moved down to degree N leaves the image's intervals."""
    assert _high_content_misses(5, at_degree_n=False) == 0
    assert _high_content_misses(5, at_degree_n=True) > 0


_REFERENCES = {"a": REF_A, "alpha": REF_ALPHA, "delta": REF_DELTA, "gamma": REF_GAMMA}


def test_newton_step_enclosures_hold_the_references(desk, n40):
    """At desk and N = 40 every enclosure lies inside phi(x0) +- r, the
    enclosure before the Newton step, holds the reference, and certifies
    15/15/10/11 digits at desk and 27/27/24/24 at N = 40 (11/10/7/8 and
    24/24/21/20 without the step and its parameter ball)."""
    desk_certs = {"fixed_point": (desk.cert_fixed, desk.G0), "delta": (desk.cert_delta, desk.V0),
                  "gamma": (desk.cert_gamma, desk.W0)}
    n40_certs = {t: (n40.result.certificates[t], n40.result.balls[b])
                 for t, b in (("fixed_point", "G0"), ("delta", "V0"), ("gamma", "W0"))}
    expected = {"desk": {"a": 15, "alpha": 15, "delta": 10, "gamma": 11},
                "n40": {"a": 27, "alpha": 27, "delta": 24, "gamma": 24}}
    for scale, certs, c in (("desk", desk_certs, desk.ctx), ("n40", n40_certs, n40.ctx)):
        for cert, x0 in certs.values():
            phi = ct._widened(c, ct._phi(c, x0), cert.proven_radius)
            before = ({"a": phi, "alpha": c.idiv(interval(1), phi)}
                      if cert.kind == "fixed_point" else dict.fromkeys(cert.enclosures, phi))
            for name, enclosure in cert.enclosures.items():
                assert before[name].contains_interval(enclosure)
                assert enclosure.contains(Decimal(_REFERENCES[name]))
                assert pl.certified_digits(enclosure)[1] == expected[scale][name]


def test_newton_step_without_kappa_phi_misses_the_reference(desk):
    """Negative control for the kappa_phi r term: at desk, coefficient 0 of
    the Newton step Phi(g0) alone excludes the reference a, so the term is
    needed.  (For delta and gamma it does not miss at desk: there the
    error part the residual takes from the parameter ball, read through
    row 0 of the map, widens phi(Phi(x0)) beyond kappa_phi r.)"""
    bare = fb.coefficient(desk.ctx, desk.cert_fixed.newton, 0).re
    assert not bare.contains(Decimal(REF_A))
    assert desk.cert_fixed.enclosures["a"].contains(Decimal(REF_A))


# -- the solution ball ----------------------------------------------------------------

def _perturbed_fixed_point(desk, shift: int = 9):
    """The desk fixed-point certificate at G0 with coefficient 3 moved by
    10**-shift: its Newton step lands about that far from its x0, far
    more than kappa r."""
    x0 = desk.G0
    mid = list(x0.mid)
    mid[3] += 10 ** (x0.scale - shift)
    return ct.certify(desk.ctx, ct.Problem(0), dataclasses.replace(x0, mid=mid), pl.RHO)


def _as_decimals(b: fb.IntBall, n: int) -> list[Decimal]:
    return [exact_decimal(m, b.scale) for m in b.mid] + [Decimal(0)] * (n + 1 - len(b.mid))


def _newton_members(rng, cert) -> list[list[Decimal]]:
    """Members of the Newton ball Phi(x0) + B(0, kappa r), as coefficient
    lists to degree N + 7: five sampled ones (sample_member), and for five
    degrees k the one that puts all of Phi(x0)'s rounding and error parts
    and kappa r at degree k, away from x0, so its distance from x0 is the
    largest any member's is."""
    newton, n = cert.newton, cert.newton.truncation
    ball = fb.inflate(ctx, newton, cert.step_radius)
    members = []
    for _ in range(5):
        member = sample_member(rng, ball)
        members.append([member.get(k, Decimal(0)) for k in range(n + 8)])
    centre, x0 = _as_decimals(newton, n), _as_decimals(cert.x0, n)
    with decimal.localcontext(EXACT):
        free = Decimal(newton.rad).scaleb(-newton.scale) + newton.v_err + cert.step_radius
        for k in rng.sample(range(n + 1), 5):
            member = centre + [Decimal(0)] * 7
            member[k] += free if centre[k] >= x0[k] else -free
            members.append(member)
    return members


@pytest.mark.parametrize("which", ["fixed_point", "delta", "gamma", "perturbed"])
def test_solution_ball_holds_the_newton_ball(desk, which):
    """The solution ball keeps x0's midpoints, rad and scale and Phi(x0)'s
    high part, and holds Phi(x0) + B(0, kappa r): sampled members and the
    members farthest from x0 lie in it, at the desk certificates and at a
    fixed point whose x0 is 1e-9 off G0, where the Newton step moves far
    more than kappa r."""
    certs = {"fixed_point": desk.cert_fixed, "delta": desk.cert_delta,
             "gamma": desk.cert_gamma}
    cert = _perturbed_fixed_point(desk) if which == "perturbed" else certs[which]
    ball = cert.solution_ball(desk.ctx)
    x0 = cert.x0
    assert (ball.mid, ball.rad, ball.scale, ball.truncation) == \
        (x0.mid, x0.rad, x0.scale, x0.truncation)
    assert ball.v_high == cert.newton.v_high
    rng = random.Random(sum(map(ord, which)))
    for member in _newton_members(rng, cert):
        assert holds_polynomial(ball, member, ball.truncation)


def test_solution_ball_without_the_shift_misses_the_newton_step(desk):
    """Negative control: at the perturbed x0, a ball centred on x0 whose
    error part drops the distance of Phi(x0)'s midpoints from x0's misses
    Phi(x0)'s own midpoint polynomial, which the solution ball holds."""
    cert = _perturbed_fixed_point(desk)
    c, newton, n = desk.ctx, cert.newton, cert.newton.truncation
    ball = cert.solution_ball(c)
    rest = c.add_up(c.add_up(newton.v_err, cert.step_radius),
                    c.scaled_up(newton.rad, newton.scale))
    centre = _as_decimals(newton, n)
    assert holds_polynomial(ball, centre, n)
    assert not holds_polynomial(dataclasses.replace(ball, v_err=rest), centre, n)


# -- the binary64 frozen map ---------------------------------------------------------

def _decimal_frozen_map(c, problem, x0, images):
    """The frozen map from the Decimal head: build_lambda (mat_inv at the
    context's precision) of the exact midpoints of the column images, with
    frozen_map's tail scalar."""
    k1 = len(images)
    cols = [[exact_decimal(m, b.scale) for m in (b.mid + [0] * k1)[:k1]] for b in images]
    lambda0 = exact_decimal(x0.mid[0], x0.scale)
    return ct.build_lambda(problem.kind, [list(row) for row in zip(*cols)], c.precision,
                           lambda0=lambda0)


def _decimal_grid_map(c, problem, x0, images):
    """The frozen map by way of decimals: the binary64 inverse of the
    column images' midpoint head, each entry's exact binary fraction
    rounded to the nearest point of the grid 10**-s (ties up) on which the
    largest entry has 17 digits, written as a Decimal and read with the
    tail -1/phi(x0)**p at the context's precision by
    LinearMap.from_decimals."""
    k1 = len(images)
    cols = [[ct._binary64(m, b.scale) for m in (b.mid + [0] * k1)[:k1]] for b in images]
    head = ct.mat_inv([list(row) for row in zip(*cols)])
    top = max(abs(Fraction(x)) for row in head for x in row)
    decade = 0
    while top >= Fraction(10) ** decade:
        decade += 1
    while top < Fraction(10) ** (decade - 1):
        decade -= 1
    s = max(0, 17 - decade)
    entries = [[Decimal(math.floor(Fraction(x) * 10 ** s + Fraction(1, 2))).scaleb(-s, EXACT)
                for x in row] for row in head]
    power = ct.KINDS.index(problem.kind)
    with decimal.localcontext(decimal.Context(prec=c.precision)):
        tail = -1 / exact_decimal(x0.mid[0], x0.scale) ** power if power else Decimal(-1)
    return ct.LinearMap.from_decimals(entries, tail)


def test_frozen_map_rows_are_those_of_the_decimal_grid(run_centres, monkeypatch):
    """frozen_map writes the binary64 inverse straight onto its integer
    grid: for all three targets at desk and N=40 its rows, tail and scale
    are those of the map read from the same grid written in decimals, and
    its tail scalar and decimal head equal that map's."""
    c, centres = run_centres
    pairs, integer = [], ct.frozen_map

    def both(c, problem, x0, images):
        lam = integer(c, problem, x0, images)
        pairs.append((lam, _decimal_grid_map(c, problem, x0, images)))
        return lam

    monkeypatch.setattr(ct, "frozen_map", both)
    _certificates(c, centres)
    assert len(pairs) == 3
    for lam, ref in pairs:
        assert (lam.rows, lam.tail, lam.scale) == (ref.rows, ref.tail, ref.scale)
        assert str(lam.tail_scalar) == str(ref.tail_scalar)
        assert lam.matrix == ref.matrix and lam.norm == ref.norm


def _certificates(c, centres):
    """The three certificates of a run from its centres (G0, V0, W0), the
    eigen tables over the fixed point's solution ball; a failed one is
    returned as the diagnostic certificate it carries."""
    def run(problem, x0):
        try:
            return ct.certify(c, problem, x0, pl.RHO)
        except CertificationFailed as exc:
            return exc.certificate

    fixed = run(ct.Problem(0), centres["G0"])
    tables = op.OperatorTables.build(c, fixed.solution_ball(c))
    return {"fixed_point": fixed, "delta": run(ct.Problem(1, tables), centres["V0"]),
            "gamma": run(ct.Problem(2, tables), centres["W0"])}


def _agree(x: Decimal, y: Decimal) -> bool:
    """x and y agree to at least 10 significant digits."""
    return abs(x - y) <= abs(x) * Decimal("1e-10")


@pytest.fixture(params=["desk", "n40"])
def run_centres(request):
    """(context, centres) of the desk run (P=30) and of the N=40 run (P=40)."""
    if request.param == "desk":
        desk = request.getfixturevalue("desk")
        return desk.ctx, {"G0": desk.G0, "V0": desk.V0, "W0": desk.W0}
    n40 = request.getfixturevalue("n40")
    return n40.ctx, n40.result.balls


def test_binary64_lambda_matches_the_decimal_inverse(run_centres, monkeypatch):
    """The frozen map inverted in binary64 against mat_inv of the Decimal
    head, on the same column images, for all three targets at desk and
    N=40: head entries within 1e-12 of the largest entry, the same tail
    scalar, epsilon, kappa and kappa_phi equal to 10 significant digits and
    every certified digit string the same."""
    c, centres = run_centres
    pairs, binary64 = [], ct.frozen_map

    def both(c, problem, x0, images):
        lam = binary64(c, problem, x0, images)
        pairs.append((lam, _decimal_frozen_map(c, problem, x0, images)))
        return lam

    monkeypatch.setattr(ct, "frozen_map", both)
    new = _certificates(c, centres)
    monkeypatch.setattr(ct, "frozen_map", _decimal_frozen_map)
    old = _certificates(c, centres)
    assert len(pairs) == 3
    for lam, ref in pairs:
        top = max(abs(x) for row in ref.matrix for x in row)
        assert max(abs(x - y) for row, ref_row in zip(lam.matrix, ref.matrix)
                   for x, y in zip(row, ref_row)) <= top * Decimal("1e-12")
        assert lam.tail_scalar == ref.tail_scalar
    for target, cert in new.items():
        assert cert.passed and old[target].passed
        for name in ("epsilon", "kappa", "kappa_phi"):
            assert _agree(getattr(cert, name), getattr(old[target], name)), (target, name)
        assert {k: pl.certified_digits(v) for k, v in cert.enclosures.items()} \
            == {k: pl.certified_digits(v) for k, v in old[target].enclosures.items()}


def test_lambda_head_to_two_digits_misses_the_kappa_agreement(desk, monkeypatch):
    """Negative control for the agreement test: the binary64 map with its
    head rounded to 2 significant digits moves kappa in its leading digits."""
    binary64, two_digits = ct.frozen_map, decimal.Context(prec=2)

    def rounded(c, problem, x0, images):
        lam = binary64(c, problem, x0, images)
        return ct.LinearMap.from_decimals(
            [[two_digits.plus(x) for x in row] for row in lam.matrix], lam.tail_scalar)

    monkeypatch.setattr(ct, "frozen_map", rounded)
    coarse = ct.certify(desk.ctx, ct.Problem(0), desk.G0, pl.RHO)
    assert not _agree(coarse.kappa, desk.cert_fixed.kappa)


def _tiny_pivot_images(n: int, k1: int) -> list[fb.FunctionBall]:
    """Column images e_0..e_(k1-1) of the identity with column 0 scaled by
    1E-400, which binary64 rounds to 0."""
    return [fb.FunctionBall([1], 0, 400, Decimal(0), Decimal(0), n)] + \
        [basis_ball(n, k) for k in range(1, k1)]


def test_head_beyond_binary64_is_singular(desk):
    """Negative controls for the binary64 inverses: a pivot 1E-400 rounds
    to 0.0, a subnormal pivot inverts to inf and an entry 1E+400 rounds to
    inf; each is a SingularJacobian by name, never a ZeroDivisionError, an
    OverflowError or a NaN entry of the map."""
    with pytest.raises(SingularJacobian, match="zero pivot in column 0"):
        ct.frozen_map(desk.ctx, ct.Problem(0), desk.G0, _tiny_pivot_images(desk.n, 3))
    for head, match in (([[float(Decimal("1E-400")), 0.0], [0.0, 1.0]], "zero pivot"),
                        ([[5e-324]], "solution not finite"),
                        ([[1.0, 0.0], [0.0, float(Decimal("1E+400"))]], "factor not finite")):
        with pytest.raises(SingularJacobian, match=match):
            ct.build_lambda("fixed_point", head)
    huge = [fb.FunctionBall([10 ** 400], 0, 0, Decimal(0), Decimal(0), desk.n)] + \
        [basis_ball(desk.n, k) for k in (1, 2)]
    with pytest.raises(SingularJacobian, match="not finite"):
        ct.frozen_map(desk.ctx, ct.Problem(0), desk.G0, huge)


def test_singular_binary64_head_fails_its_stage(tmp_path, monkeypatch, capsys):
    """A fixed-point head whose pivot binary64 cannot hold fails the
    certificate stage as data: StageFailure at stage fixed_point caused by
    SingularJacobian, and from the CLI exit 2 with the stage named and no
    traceback."""
    column_images = ct.Problem.column_images

    def tiny_pivot(self, c, x_ball, head_degree):
        images = column_images(self, c, x_ball, head_degree)
        return _tiny_pivot_images(x_ball.truncation, 1) + images[1:]

    monkeypatch.setattr(ct.Problem, "column_images", tiny_pivot)
    with pytest.raises(StageFailure) as info:
        pl.run_pipeline(pl.RunConfig(targets=("fixed_point",), output_dir=str(tmp_path / "run")))
    assert info.value.stage == "fixed_point"
    assert isinstance(info.value.__cause__, SingularJacobian)
    assert cli.main(["certify", "--targets", "fixed_point", "-o", str(tmp_path / "cli")]) == 2
    err = capsys.readouterr().err
    assert "FAILED at stage fixed_point: zero pivot in column 0" in err
    assert "Traceback" not in err
