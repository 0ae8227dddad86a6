import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import certificate_map
from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import contraction as ct
from renormcert import operators as op
from renormcert import pipeline as pl
from renormcert.rounding import RoundingContext


@pytest.fixture(scope="session")
def desk():
    """Desk-scale artifacts shared across the suite: degree 20, 30 digits,
    with the frozen map each certificate forms (``lam_*``)."""
    ctx = RoundingContext(30)
    n = 20
    g0 = ax.approx_fixed_point(n, 30)
    G0 = fb.ball_from_decimals(fb.STANDARD_DISC, g0, n)
    cert_fixed = ct.certify(ctx, ct.Problem(0), G0, pl.RHO)
    lam_fixed = certificate_map(ctx, ct.Problem(0), G0, pl.RHO)[2]
    param = fb.inflate(ctx, G0, cert_fixed.posterior_radius)
    tables = op.OperatorTables.build(ctx, param)

    v0, lam0 = ax.approx_eigenpair("delta", g0, 30)
    V0 = fb.ball_from_decimals(fb.STANDARD_DISC, v0, n)
    cert_delta = ct.certify(ctx, ct.Problem(1, tables), V0, pl.RHO)
    lam_delta = certificate_map(ctx, ct.Problem(1, tables), V0, pl.RHO)[2]

    w0, gam0 = ax.approx_eigenpair("gamma", g0, 30)
    W0 = fb.ball_from_decimals(fb.STANDARD_DISC, w0, n)
    cert_gamma = ct.certify(ctx, ct.Problem(2, tables), W0, pl.RHO)
    lam_gamma = certificate_map(ctx, ct.Problem(2, tables), W0, pl.RHO)[2]

    return SimpleNamespace(
        ctx=ctx, n=n,
        g0=g0, G0=G0, lam_fixed=lam_fixed, cert_fixed=cert_fixed,
        param=param, tables=tables,
        v0=v0, lam0=lam0, V0=V0, lam_delta=lam_delta, cert_delta=cert_delta,
        w0=w0, gam0=gam0, W0=W0, lam_gamma=lam_gamma, cert_gamma=cert_gamma,
    )


@pytest.fixture(scope="session")
def n40():
    """Degree-40 run (40 digits, all targets) and the frozen maps
    of its three problems at head degrees 10 and 20, formed as ``certify``
    forms its own from the column images over each certificate's ball.
    ``setup(target, head)`` gives (problem, x0, ball, map): the problem, its
    approximate zero, the ball its certificate bounds kappa over, and the
    map with that head."""
    cfg = pl.RunConfig(degree=40, precision=40)
    result = pl.run_pipeline(cfg)
    ctx = RoundingContext(40)
    tables = op.OperatorTables.build(ctx, result.balls["parameter"])

    def decimals(name):
        return [c.re.lo for c in result.balls[name].coeffs]

    g0, v0, w0 = decimals("G0"), decimals("V0"), decimals("W0")
    problems = {"fixed_point": (ct.Problem(0), "G0"),
                "delta": (ct.Problem(1, tables), "V0"),
                "gamma": (ct.Problem(2, tables), "W0")}
    runs = {}
    for target, (problem, centre) in problems.items():
        x0 = result.balls[centre]
        ball = fb.inflate(ctx, x0, pl.RHO)
        images = problem.column_images(ctx, ball, 20)
        runs[target] = (problem, x0, ball, {head: ct.frozen_map(ctx, problem, x0,
                                                                images[:head + 1])
                                            for head in (10, 20)})

    def setup(target, head):
        problem, x0, ball, maps = runs[target]
        return problem, x0, ball, maps[head]

    return SimpleNamespace(ctx=ctx, cfg=cfg, result=result, setup=setup,
                           g0=g0, v0=v0, w0=w0)
