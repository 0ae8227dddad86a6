import decimal
import json
import random
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal

import pytest

from helpers import (
    basis_ball,
    bounds_with_map,
    domain_points,
    eval_member,
    identity_map,
    powers_above_baby_steps,
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
)
from renormcert.rounding import Interval, RoundingContext, interval, rectangle

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

    def enclosures(self, c, x0, radius):
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
    lam = ct.LinearMap(rows, -1)
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
    lam = ct.LinearMap([[1, -2], [3, 4]], tail_scalar="-0.5")
    assert ct.lambda_norm_upper(ctx, lam) == 6  # column 1: |\-2| + |4|


@pytest.mark.parametrize("matrix, tail", [([], -1), ([[1, 2]], -1), ([[1, 0], [0]], -1),
                                          ([["NaN"]], -1), ([[1]], "Infinity")],
                         ids=["empty", "wide", "ragged", "nan_entry", "infinite_tail"])
def test_linear_map_refuses_malformed_matrix(matrix, tail):
    """An empty or non-square head, or a non-finite entry, is a ConfigError."""
    with pytest.raises(ConfigError):
        ct.LinearMap(matrix, tail)


def test_verify_invertible_identity():
    assert ct.verify_lambda_invertible(ctx, identity_map(N)) == 0


def test_verify_invertible_singular():
    rows = [[Decimal(0)] * (N + 1) for _ in range(N + 1)]
    with pytest.raises(InversionUncertified):
        ct.verify_lambda_invertible(ctx, ct.LinearMap(rows, -1))
    with pytest.raises(InversionUncertified):
        ct.verify_lambda_invertible(ctx, identity_map(N, tail_scalar=0))


def test_verify_invertible_desk_lambda(desk):
    bound = ct.verify_lambda_invertible(desk.ctx, desk.lam_fixed)
    assert bound < Decimal("1e-20")


def test_toy_epsilon_zero():
    target = fb.ball_from_decimals(DOM, ["0.25", "-1", "0.5"], N)
    problem = ToyProblem(target)
    lam = identity_map(N, diagonal=-1, tail_scalar=-1)
    eps = ct.bound_epsilon(ctx, problem, target, lam)
    assert eps == 0


def test_toy_columns_and_tail_zero():
    target = fb.ball_from_decimals(DOM, ["0.25", "-1", "0.5"], N)
    problem = ToyProblem(target)
    lam = identity_map(N, diagonal=-1, tail_scalar=-1)
    ball = fb.inflate(ctx, target, "0.125")
    images = problem.column_images(ctx, ball, N)
    assert max(ct.bound_kappa_columns(ctx, images, lam)) == 0
    assert ct.bound_kappa_tail(ctx, problem, ball, lam) == 0
    with pytest.raises(DimensionMismatch):   # a head column without its image
        ct.bound_kappa_columns(ctx, images[:N], lam)


def test_toy_certificate_passes():
    """certify inverts the toy's columns -e_k to the map -I it needs."""
    target = fb.ball_from_decimals(DOM, ["0.25", "-1", "0.5"], N)
    problem = ToyProblem(target)
    x0 = fb.ball_from_decimals(DOM, ["0.25", "-1", "0.4999"], N)
    cert = ct.certify(ctx, problem, x0, "0.001")
    assert cert.passed and cert.kappa == 0 and cert.head_degree == N
    assert cert.epsilon <= Decimal("0.0001")


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
    builds the Decimal ``coeffs`` view of no ball (serializing one does)."""
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
    fb.serialize_ball(desk.G0)
    assert built == [desk.G0]


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
        assert digits[1] == {"a": 11, "alpha": 10}[name]
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
        "kind", "rho", "epsilon", "kappa", "kappa_columns_max", "kappa_tail",
        "head_degree", "passed", "posterior_radius", "enclosures", "config"])
    assert payload["head_degree"] == 20
    path = tmp_path / "certificate_fixed_point.json"
    path.write_text(json.dumps({"certificate": payload}))
    assert cli._read_enclosures(str(path)) == desk.cert_fixed.enclosures
    assert payload["passed"] is True
    assert Decimal(payload["epsilon"]) == desk.cert_fixed.epsilon


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
    return ct.LinearMap(rows, lam.tail_scalar)


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
    columns = ct.bound_kappa_columns(n40.ctx, images, dense)
    assert columns[:head + 1] == ct.bound_kappa_columns(n40.ctx, images[:head + 1], lam)
    assert max(columns[head + 1:]) <= ct.bound_kappa_tail(n40.ctx, problem, ball, lam)
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
    columns = ct.bound_kappa_columns(n40.ctx, problem.column_images(n40.ctx, ball, 40), dense)
    assert ct.bound_kappa_tail(n40.ctx, problem, ball, dense) < max(columns[head + 1:])


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
    radius, so their certified digit counts never fall below the rho-based ones."""
    from renormcert.pipeline import certified_digits

    c = desk.ctx
    for cert, centre, name in ((desk.cert_delta, desk.V0, "delta"),
                               (desk.cert_gamma, desk.W0, "gamma")):
        phi = centre.coeffs[0].re
        by_rho = Interval(c.sub_dn(phi.lo, cert.rho), c.add_up(phi.hi, cert.rho))
        enc = cert.enclosures[name]
        assert cert.proven_radius == min(cert.rho, cert.posterior_radius)
        r = cert.proven_radius
        assert enc == Interval(c.sub_dn(phi.lo, r), c.add_up(phi.hi, r))
        assert by_rho.contains_interval(enc)
        assert certified_digits(enc)[1] >= certified_digits(by_rho)[1]


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
    return ct.LinearMap(rows, tail)


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
