"""The names perfbench/ reaches for exist: its tracer resolves every traced
name, run.op_timings times RoundingContext.imul and rmul, and
workloads.bootstrap runs the approx stage through the approx API, and every
workload's configuration is a valid RunConfig."""

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from renormcert import pipeline as pl  # noqa: E402
from renormcert.rounding import RoundingContext  # noqa: E402


def test_tracer_products_and_bootstrap_resolve():
    rmul = RoundingContext.__dict__["rmul"]
    wall_clock = SimpleNamespace(reference_seconds=lambda start, end: end - start)
    with Tracer() as tracer:
        timings = run.op_timings(20, wall_clock, seed=1)
        sums = workloads.bootstrap(pl.RunConfig())
    assert set(timings) == {"imul", "rmul"} and min(timings.values()) > 0
    assert tracer.ops["interval_ops"] > 0 and tracer.ops["rect_ops"] > 0
    assert tracer.calls["approx.approx_fixed_point"] == 1
    assert set(sums) == {"g0", "delta0", "gamma0"}
    assert RoundingContext.__dict__["rmul"] is rmul


def test_every_workload_config_builds_a_run_config():
    """Each workload's config, boundary_rects included, is a RunConfig."""
    for name, workload in workloads.WORKLOADS.items():
        cfg = pl.RunConfig(**workload.config)
        assert {key: getattr(cfg, key) for key in workload.config} == workload.config, name
