"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import random
import time
from decimal import Decimal

import numpy as np
import pytest

from helpers import (
    REF_A,
    REF_ALPHA,
    REF_DELTA,
    REF_GAMMA,
    assert_min_digits,
    digit_match_count,
    domain_points,
    dt_matrix,
    eval_member,
    eval_member_derivative,
    float_matrix,
    member_product,
    rand_poly_ball,
    sample_member,
    t_apply,
)
from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import contraction as ct
from renormcert import operators as op
from renormcert import pipeline as pl
from renormcert.errors import CertificationFailed, ContainmentFailure
from renormcert.rounding import RoundingContext, rectangle
from test_rounding import _check_isotonicity_and_containment

DESK = dict(degree=20, precision=30, rho="1e-8", boundary_rects=64)


@pytest.fixture(scope="module")
def desk_run():
    start = time.perf_counter()
    result = pl.run_pipeline(pl.RunConfig(**DESK))
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_1_desk_end_to_end(desk_run):
    result, elapsed = desk_run
    for name in ("fixed_point", "delta", "gamma"):
        cert = result.certificates[name]
        assert cert.passed, name
        assert cert.kappa < 1, name
        assert cert.epsilon < cert.rho * (1 - cert.kappa), name
    assert elapsed < 300, f"desk run took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: desk-scale certificates all pass in {elapsed:.1f}s "
          f"(kappa max {max(c.kappa for c in result.certificates.values()):.2E})")


def test_criterion_2_desk_digits(desk_run):
    result, _ = desk_run
    digits = result.report["digits"]
    checks = [("a", REF_A), ("delta", REF_DELTA), ("gamma", REF_GAMMA)]
    matched = {}
    for name, ref in checks:
        text = digits[name]["digits"]
        matched[name] = digit_match_count(text, ref)
        assert matched[name] >= 6, (name, text)
        assert digits[name]["count"] >= 6
    alpha_matched = digit_match_count(digits["alpha"]["digits"], REF_ALPHA)
    assert alpha_matched >= 6
    assert_min_digits(result.report, 20)
    print(f"\nACCEPTANCE 2 PASS: desk digits a={matched['a']} delta={matched['delta']} "
          f"gamma={matched['gamma']} alpha={alpha_matched} (all >= 6)")


def test_criterion_3_medium_scale():
    start = time.perf_counter()
    result = pl.run_pipeline(pl.RunConfig(degree=80, precision=60, rho="1e-40",
                                          boundary_rects=64))
    elapsed = time.perf_counter() - start
    digits = result.report["digits"]
    matched = {}
    for name, ref in (("a", REF_A), ("alpha", REF_ALPHA),
                      ("delta", REF_DELTA), ("gamma", REF_GAMMA)):
        matched[name] = digit_match_count(digits[name]["digits"], ref)
        assert matched[name] >= 30, (name, digits[name])
    assert_min_digits(result.report, 80)
    assert elapsed < 3600, f"medium run took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 PASS: medium scale in {elapsed:.0f}s, digits "
          + " ".join(f"{k}={v}" for k, v in matched.items()) + " (all >= 30)")


def test_criterion_4_domain_extension(desk_run):
    result, _ = desk_run
    ctx = RoundingContext(30)
    ball = fb.inflate(ctx, result.balls["G0"], Decimal(DESK["rho"]))
    res = op.check_domain_extension(ctx, ball, 256)
    assert len(res.boundary) == len(res.gamma1) == len(res.gamma2) == 256
    # analytic spot check with the reference constant
    import decimal
    with decimal.localcontext(decimal.Context(prec=40)):
        a = Decimal(REF_A[:22])
        a2 = a * a
        reach = abs(a2 * 1 - 1) + abs(a2) * Decimal("2.5")
    assert Decimal("1.239") < reach < Decimal("1.240")
    assert reach < Decimal("2.5")
    print(f"\nACCEPTANCE 4 PASS: M=256 covering verified; |a^2 c - c| + |a^2| r "
          f"= {reach:.4f} < 2.5")


def test_criterion_5_spectrum(desk_run):
    result, _ = desk_run
    g0 = [c.re.lo for c in result.balls["G0"].coeffs]
    m = dt_matrix(g0, digits=30)
    values = np.linalg.eigvals(float_matrix(m))
    big = sorted((v for v in values if abs(v) > 1), key=lambda v: -abs(v))
    assert len(big) == 2
    assert abs(big[0].real - 6.264547) < 1e-3
    assert abs(big[1].real - 4.669201) < 1e-3
    print(f"\nACCEPTANCE 5 PASS: two eigenvalues outside the unit disc: "
          f"{big[0].real:.6f}, {big[1].real:.6f}")


def test_criterion_6a_interval_properties():
    cases = 100_000
    _check_isotonicity_and_containment(seed=123, cases=cases)
    print(f"\nACCEPTANCE 6a PASS: inclusion isotonicity + containment on "
          f"{cases} randomized interval cases")


def test_criterion_6b_function_ball_oracles():
    ctx = RoundingContext(30)
    dom = fb.STANDARD_DISC
    n = 8
    rng = random.Random(2024)
    counts = {"mul": 0, "compose": 0, "compose_derivative": 0, "eval": 0}
    for _ in range(12):
        f = fb.inflate(ctx, rand_poly_ball(rng, n, 5), "0.001")
        g = rand_poly_ball(rng, n, 5)
        s = Decimal(rng.randint(100, 350)) / Decimal(1000)
        h = fb.affine_arg(ctx, n, s)
        hm = {0: s * dom.center, 1: s * dom.radius}
        product = fb.mul(ctx, f, g)
        comp = fb.compose(ctx, f, h)
        dcomp = fb.compose_derivative(ctx, f, h)
        fm, gm = sample_member(rng, f), sample_member(rng, g)
        pm = member_product(fm, gm, 120)
        for z in domain_points(rng, 25):
            val = eval_member(pm, z, 120)
            assert fb.evaluate(ctx, product, rectangle(z)).re.contains(val)
            counts["mul"] += 1
            inner = eval_member(hm, z, 120)
            assert fb.evaluate(ctx, comp, rectangle(z)).re.contains(
                eval_member(fm, inner, 120))
            counts["compose"] += 1
            assert fb.evaluate(ctx, dcomp, rectangle(z)).re.contains(
                eval_member_derivative(fm, inner, 120))
            counts["compose_derivative"] += 1
            assert fb.evaluate(ctx, f, rectangle(z)).re.contains(
                eval_member(fm, z, 120))
            counts["eval"] += 1
    total = sum(counts.values())
    assert total >= 1000
    assert all(v >= 250 for v in counts.values())
    print(f"\nACCEPTANCE 6b PASS: {total} sampling-oracle containment cases "
          f"across mul/compose/compose_derivative/eval")


def test_criterion_6c_finite_difference():
    digits = 40
    g = ax.approx_fixed_point(20, digits)
    m = dt_matrix(g, digits=digits)
    n = len(g) - 1
    worst_final = Decimal(0)
    for k in (0, 2, 7):
        col = [m[i][k] for i in range(n + 1)]
        scale = max(abs(x) for x in col)
        errs = []
        import decimal
        for exp in (3, 4, 5, 6):
            t = Decimal(10) ** -exp
            with decimal.localcontext(decimal.Context(prec=digits)):
                bumped = list(g)
                bumped[k] = bumped[k] + t
                fd = [(x - y) / t for x, y in
                      zip(t_apply(bumped, digits=digits),
                          t_apply(g, digits=digits))]
                err = max(abs(fd[i] - col[i]) for i in range(n + 1)) / scale
            errs.append(err)
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1)), (k, errs)
        assert errs[-1] < Decimal("1e-4")
        worst_final = max(worst_final, errs[-1])
    print(f"\nACCEPTANCE 6c PASS: directional derivative matches finite "
          f"differences, relative error at step 1e-6 <= {worst_final:.2E}")


def test_criterion_6d_worker_determinism(desk_run):
    """Desk runs with 2 and 4 workers, which bootstrap delta and gamma in a
    process pool, report what the one-worker run reports."""
    result, _ = desk_run
    keys = ("certificates", "digits", "checksums")
    for workers in (2, 4):
        report = pl.run_pipeline(pl.RunConfig(**DESK, workers=workers)).report
        assert [report[k] for k in keys] == [result.report[k] for k in keys]
    print("\nACCEPTANCE 6d PASS: certificates, digits and checksums bitwise "
          "identical for worker counts 1, 2, 4")


def test_criterion_7_negative_controls(desk_run):
    result, _ = desk_run
    ctx = RoundingContext(30)
    G0 = result.balls["G0"]
    with pytest.raises(CertificationFailed) as info:
        ct.certify(ctx, ct.Problem(0), G0, "1e-13")
    assert info.value.certificate is not None
    assert not info.value.certificate.passed
    with pytest.raises(ContainmentFailure) as info2:
        op.check_domain_extension(ctx, fb.inflate(ctx, G0, 1), 64)
    assert info2.value.equation in (1, 2)
    print("\nACCEPTANCE 7 PASS: undersized rho -> CertificationFailed; "
          "rho=1 ball -> ContainmentFailure")
