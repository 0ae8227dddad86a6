import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import contraction as ct
from renormcert import operators as op
from renormcert import pipeline as pl
from renormcert.rounding import RoundingContext


@pytest.fixture(scope="session")
def desk():
    """Desk-scale artifacts shared across the suite: degree 20, 30 digits."""
    ctx = RoundingContext(30)
    n = 20
    g0 = ax.approx_fixed_point(n, 30)
    G0 = fb.ball_from_decimals(fb.STANDARD_DISC, g0, n)
    lam_fixed = ax.build_lambda(
        "fixed_point", ax.approx_jacobian("fixed_point", g0, digits=30), 30)
    cert_fixed = ct.certify(ctx, ct.Problem(0), G0, lam_fixed, "1e-8")
    param = fb.inflate(ctx, G0, cert_fixed.posterior_radius)
    tables = op.OperatorTables.build(ctx, op.precompute_shared(ctx, param))

    v0, lam0 = ax.approx_eigenpair("delta", g0, 30)
    V0 = fb.ball_from_decimals(fb.STANDARD_DISC, v0, n)
    lam_delta = ax.build_lambda(
        "delta_eigen", ax.approx_jacobian("delta_eigen", g0, v0, digits=30),
        30, lambda0=lam0)
    cert_delta = ct.certify(ctx, ct.Problem(1, tables), V0,
                            lam_delta, "1e-7")

    w0, gam0 = ax.approx_eigenpair("gamma", g0, 30)
    W0 = fb.ball_from_decimals(fb.STANDARD_DISC, w0, n)
    lam_gamma = ax.build_lambda(
        "gamma_eigen", ax.approx_jacobian("gamma_eigen", g0, w0, digits=30),
        30, lambda0=gam0)
    cert_gamma = ct.certify(ctx, ct.Problem(2, tables), W0,
                            lam_gamma, "1e-7")

    return SimpleNamespace(
        ctx=ctx, n=n,
        g0=g0, G0=G0, lam_fixed=lam_fixed, cert_fixed=cert_fixed,
        param=param, tables=tables,
        v0=v0, lam0=lam0, V0=V0, lam_delta=lam_delta, cert_delta=cert_delta,
        w0=w0, gam0=gam0, W0=W0, lam_gamma=lam_gamma, cert_gamma=cert_gamma,
    )


@pytest.fixture(scope="session")
def n40():
    """Degree-40 run (40 digits, rho 1e-20, all targets) and the frozen maps
    of its three problems at head degrees 10 and 20, built from its centres
    through the approx API.  ``setup(target, head)`` gives (problem, x0,
    ball, map): the problem, its approximate zero, the ball its certificate
    bounds kappa over, and the map with that head."""
    cfg = pl.RunConfig(degree=40, precision=40, rho="1e-20")
    result = pl.run_pipeline(cfg)
    ctx = RoundingContext(40)
    tables = op.OperatorTables.build(ctx, op.precompute_shared(ctx, result.balls["parameter"]))

    def decimals(name):
        return [c.re.lo for c in result.balls[name].coeffs]

    g0, v0, w0 = decimals("G0"), decimals("V0"), decimals("W0")
    maps = {}
    for head in (10, 20):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ax, "HEAD_DEGREE", head)
            maps[head] = {"fixed_point": ax.build_lambda(
                "fixed_point", ax.approx_jacobian("fixed_point", g0, digits=40), 40)}
            for target, x0 in (("delta", v0), ("gamma", w0)):
                kind = target + "_eigen"
                maps[head][target] = ax.build_lambda(
                    kind, ax.approx_jacobian(kind, g0, x0, digits=40), 40, lambda0=x0[0])
    problems = {"fixed_point": (ct.Problem(0), "G0"),
                "delta": (ct.Problem(1, tables), "V0"),
                "gamma": (ct.Problem(2, tables), "W0")}

    def setup(target, head):
        problem, centre = problems[target]
        x0 = result.balls[centre]
        return problem, x0, fb.inflate(ctx, x0, cfg.rho_for(target)), maps[head][target]

    return SimpleNamespace(ctx=ctx, cfg=cfg, result=result, setup=setup,
                           g0=g0, v0=v0, w0=w0)
