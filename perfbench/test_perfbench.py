"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, run  # noqa: E402
from perfbench.probe import MIN_SLICES, REFERENCE_SLICE_S, SpeedProbe  # noqa: E402
from perfbench.tracing import Tracer, op_family, self_times  # noqa: E402


# -- digit matching ------------------------------------------------------------------

def test_digit_match_counts_significant_digits():
    assert checks.digit_match_count("-0.3995352805", checks.REFERENCE["a"]) == 10
    assert checks.digit_match_count("4.669201", checks.REFERENCE["delta"]) == 7
    assert checks.digit_match_count("4.669202", checks.REFERENCE["delta"]) == 6
    assert checks.digit_match_count("0.3995", checks.REFERENCE["a"]) == 0  # sign


def test_digits_ok_needs_every_certified_digit():
    assert checks.digits_ok("gamma", "6.619036", 7)
    assert not checks.digits_ok("gamma", "6.619037", 7)
    assert not checks.digits_ok("gamma", "6.619036", 8)   # count beyond the string
    assert not checks.digits_ok("a", "", 0)


# -- self time from nested spans ---------------------------------------------------------

def test_self_time_subtracts_children_only():
    spans = [
        ("job", 0.0, 10.0, -1),
        ("certify", 1.0, 7.0, 0),
        ("mul", 2.0, 3.0, 1),
        ("mul", 4.0, 6.5, 1),
        ("mul", 8.0, 9.0, 0),
    ]
    out = self_times(spans)
    assert out["job"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert out["certify"] == pytest.approx(6.0 - 1.0 - 2.5)
    assert out["mul"] == pytest.approx(1.0 + 2.5 + 1.0)
    assert sum(out.values()) == pytest.approx(10.0)


def test_self_time_of_recursive_calls_counts_each_level_once():
    spans = [("f", 0.0, 4.0, -1), ("f", 1.0, 3.0, 0), ("f", 1.5, 2.0, 1)]
    assert self_times(spans)["f"] == pytest.approx(4.0)


# -- contraction margin ------------------------------------------------------------------

def test_margin_is_log10_of_slack_over_epsilon():
    ok, margin = checks.contraction_margin({"rho": "1e-8", "kappa": "0.5", "epsilon": "5e-11"})
    assert ok
    assert margin == pytest.approx(2.0)


def test_margin_rejects_epsilon_at_or_above_the_slack():
    ok, margin = checks.contraction_margin({"rho": "1e-8", "kappa": "0.5", "epsilon": "5e-9"})
    assert not ok and margin == pytest.approx(0.0, abs=1e-12)
    ok, margin = checks.contraction_margin({"rho": "1e-8", "kappa": "1", "epsilon": "1e-20"})
    assert not ok and margin == -math.inf


def test_margin_of_a_desk_scale_payload():
    payload = {"rho": "1E-8", "kappa": "0.00233876503052316902538681677756",
               "epsilon": "2.96607179785047296787170698269E-12"}
    ok, margin = checks.contraction_margin(payload)
    assert ok
    assert margin == pytest.approx(math.log10(1e-8 * (1 - 0.00233876503) / 2.96607179785e-12))


# -- coverings and fingerprints -------------------------------------------------------------

def test_covering_rows_need_order_and_count():
    good = [("G", "0", "0.1", "-1", "1"), ("G", "0.1", "0.2", "2", "2")]
    assert checks.covering_rows_ok(good, 2)
    assert not checks.covering_rows_ok(good, 3)
    assert not checks.covering_rows_ok([("G", "0.2", "0.1", "0", "1")], 1)


def test_fingerprint_hash_ignores_key_order():
    payload = {"epsilon": "1E-9", "kappa": "0.1", "kappa_columns_max": "0.01",
               "kappa_tail": "0.1", "posterior_radius": "1.2E-9", "config": {"b": 1, "a": 2}}
    shuffled = dict(reversed(list(payload.items())))
    assert checks.fingerprint(payload) == checks.fingerprint(shuffled)
    assert checks.fingerprint(payload)["kappa_tail"] == "0.1"


# -- host-speed probe -------------------------------------------------------------------------

def test_reference_seconds_scale_by_mean_slice_speed():
    probe = SpeedProbe()
    ref = REFERENCE_SLICE_S
    # slices at twice and at two thirds of the reference speed, mean speed 4/3
    probe.samples = [(0.1 + 0.02 * i, ref / 2 if i % 2 else ref * 1.5)
                     for i in range(2 * MIN_SLICES)]
    end = 0.1 + 0.04 * MIN_SLICES
    probe_time = sum(d for _, d in probe.samples)
    assert probe.speed(0.0, end) == pytest.approx(4 / 3)
    assert probe.reference_seconds(0.0, end) == pytest.approx((end - probe_time) * 4 / 3)
    assert probe.reference_seconds(0.0, end, measured=0.5) == pytest.approx(
        (0.5 - probe_time) * 4 / 3)


def test_short_intervals_borrow_the_nearest_slices():
    probe = SpeedProbe()
    ref = REFERENCE_SLICE_S
    probe.samples = ([(float(t), ref) for t in range(MIN_SLICES)]
                     + [(100.0 + t, ref / 4) for t in range(MIN_SLICES)])
    assert probe.speed(2.0, 2.5) == pytest.approx(1.0)
    assert probe.speed(110.0, 110.1) == pytest.approx(4.0)


# -- tracing and the metric list ------------------------------------------------------------

def test_rounding_methods_fall_into_three_counters():
    assert op_family("iadd") == op_family("imul") == "interval_ops"
    assert op_family("rmul") == op_family("mag1") == "rect_ops"
    assert op_family("mul_up") == op_family("round_nearest") == "scalar_ops"
    assert op_family("__init__") is None


def test_tracer_counts_calls_and_restores_aliases():
    from renormcert import balls as fb
    from renormcert import pipeline as pl
    from renormcert.rounding import RoundingContext
    mul, certify_alias = fb.mul, pl._certify
    ctx = RoundingContext(20)
    f = fb.ball_from_decimals(fb.STANDARD_DISC, ["1", "2"], 4)
    with Tracer() as tracer:
        assert pl._certify is not certify_alias
        fb.mul(ctx, f, f)
        fb.mul(ctx, f, f)
    assert fb.mul is mul and pl._certify is certify_alias
    assert tracer.calls["balls.mul"] == 2
    assert tracer.ops["interval_ops"] > 0
    assert [s[0] for s in tracer.finished_spans()] == ["balls.mul", "balls.mul"]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    from perfbench.workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
