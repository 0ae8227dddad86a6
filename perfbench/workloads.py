"""The benchmark's workloads: configurations, set-up and one job each.

The inputs are fixed by the mathematics (degree, precision, radius); the
seed only shuffles the order in which figures are drawn.  Why each
workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import pipeline as pl
from renormcert.errors import RenormcertError
from renormcert.rounding import RoundingContext

from . import checks


@dataclass(frozen=True)
class Workload:
    config: dict
    #: smallest accepted certified digit count per constant
    min_digits: dict
    #: subdivisions per figure covering; 0 means no coverings
    subdivisions: int = 0

    def run_config(self) -> pl.RunConfig:
        return pl.RunConfig(**self.config)


WORKLOADS = {
    "n40_serial": Workload(
        config=dict(degree=40, precision=40, rho="1e-20", boundary_rects=64, workers=1),
        min_digits={"a": 22, "delta": 19, "gamma": 19}),
    "n80_fixed_w2": Workload(
        config=dict(degree=80, precision=60, rho="1e-40", boundary_rects=64, workers=2,
                    targets=("fixed_point",)),
        min_digits={"a": 49}),
    "desk_plots": Workload(
        config=dict(degree=20, precision=30, rho="1e-8", boundary_rects=1024),
        min_digits={"a": 11, "delta": 7, "gamma": 7},
        subdivisions=1000),
}

_EIGEN = (("delta", "delta_eigen"), ("gamma", "gamma_eigen"))


def bootstrap(cfg: pl.RunConfig) -> dict:
    """The pipeline's approx stage, run through the approx module's API.

    Returns the checksum of every approximate centre, which the caller
    compares with the checksums a pipeline run reports, so set-up time is
    known to measure the same work.
    """
    n, p, domain = cfg.degree, cfg.precision, fb.STANDARD_DISC
    g0_ball = fb.ball_from_decimals(domain, ax.approx_fixed_point(n, p), n)
    g0 = [c.re.lo for c in g0_ball.coeffs]
    ax.build_lambda("fixed_point", ax.approx_jacobian("fixed_point", g0, digits=p), p)
    sums = {"g0": fb.ball_checksum(g0_ball)}
    for target, kind in _EIGEN:
        if target not in cfg.targets:
            continue
        x0_ball = fb.ball_from_decimals(domain, ax.approx_eigenpair(target, g0, p)[0], n)
        x0 = [c.re.lo for c in x0_ball.coeffs]
        ax.build_lambda(kind, ax.approx_jacobian(kind, g0, x0, digits=p), p, lambda0=x0[0])
        sums[target + "0"] = fb.ball_checksum(x0_ball)
    return sums


@dataclass
class JobResult:
    start: float     # perf_counter at the start and end of the job
    end: float
    cpu_s: float
    attempted: int
    failures: list = field(default_factory=list)
    digits: dict = field(default_factory=dict)
    margin_log10: float = float("nan")
    fingerprints: dict = field(default_factory=dict)
    checksums: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    rows: int = 0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def digits_min(self) -> int:
        return min(self.digits.values(), default=0)


def run_job(workload: Workload, seed: int, cpu_clock) -> JobResult:
    """One timed job: the pipeline, then the coverings; checked after timing."""
    cfg = workload.run_config()
    figures = sorted(pl.FIGURES) if workload.subdivisions else []
    random.Random(seed).shuffle(figures)
    attempted = len(cfg.targets) + len(figures)
    coverings = {}
    started, cpu0 = time.perf_counter(), cpu_clock()
    try:
        result = pl.run_pipeline(cfg)
        if figures:
            ctx = RoundingContext(cfg.precision)
            certs = result.certificates
            balls = {"G": result.balls["parameter"],
                     "V": fb.inflate(ctx, result.balls["V0"], certs["delta"].rho),
                     "W": fb.inflate(ctx, result.balls["W0"], certs["gamma"].rho)}
            for fig in figures:
                coverings[fig] = pl.emit_plot_covering(ctx, fig, workload.subdivisions, balls)
    except RenormcertError as exc:
        return JobResult(started, time.perf_counter(), cpu_clock() - cpu0, attempted,
                         failures=[f"job failed: {type(exc).__name__}: {exc}"] * attempted)
    job = JobResult(started, time.perf_counter(), cpu_clock() - cpu0, attempted,
                    checksums=dict(result.report["checksums"]),
                    timings=dict(result.report["timings"]))
    _check_certificates(workload, result, job)
    for fig, rows in coverings.items():
        expected = 3 * workload.subdivisions if fig == "fig1" else workload.subdivisions
        job.rows += len(rows)
        if not checks.covering_rows_ok(rows, expected):
            job.failures.append(f"covering {fig}: {len(rows)} rows or an unordered box")
    return job


def _check_certificates(workload: Workload, result, job: JobResult) -> None:
    digits = result.report["digits"]
    margins = []
    for kind in result.config.targets:
        payload = result.report["certificates"][kind]
        ok, margin = checks.contraction_margin(payload)
        margins.append(margin)
        job.fingerprints[kind] = checks.fingerprint(payload)
        problems = [] if ok and payload["passed"] else ["epsilon < rho(1-kappa) not re-proved"]
        for name in checks.CERTIFIED_NAMES[kind]:
            text, count = digits[name]["digits"], digits[name]["count"]
            job.digits[name] = count
            if not checks.digits_ok(name, text, count):
                problems.append(f"{name} digits {text!r} disagree with the reference")
            floor = workload.min_digits.get(name, 1)
            if count < floor:
                problems.append(f"{name}: {count} digits, expected at least {floor}")
        if problems:
            job.failures.append(f"{kind}: " + "; ".join(problems))
    job.margin_log10 = min(margins)
