import concurrent.futures
import decimal
import inspect
import json
import multiprocessing
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MidDecimal,
    assert_min_digits,
    jacobian_probe,
    matrix,
    oracle_evaluate,
    oracle_evaluate_derivative,
    oracle_plot_covering,
    poly_eval,
    powers_above_baby_steps,
    rand_interval,
    recorded_reads,
    sample_point,
    set_pool_rule,
)
from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import contraction as ct
from renormcert import operators as op
from renormcert import pipeline as pl
from renormcert.errors import (
    CertificationFailed,
    CompositionContractFailure,
    ConfigError,
    EigenSelectionAmbiguous,
    MissingCertificate,
    NormalizationSingular,
    PipelineOrderError,
    StageFailure,
)
from renormcert.rounding import Interval, RoundingContext, interval, rectangle


def test_config_validation():
    with pytest.raises(ConfigError):
        pl.RunConfig(boundary_rects=2)
    with pytest.raises(ConfigError):
        pl.RunConfig(degree=3)
    with pytest.raises(ConfigError):
        pl.RunConfig(precision=10)
    with pytest.raises(ConfigError):
        pl.RunConfig(rho="-1e-8")
    with pytest.raises(ConfigError):
        pl.RunConfig(rho="0")
    with pytest.raises(ConfigError):
        pl.RunConfig(targets=("delta", "unknown"))
    with pytest.raises(ConfigError, match="twice"):
        pl.RunConfig(targets=("fixed_point", "fixed_point"))
    with pytest.raises(ConfigError):
        pl.RunConfig(workers=0)


@pytest.mark.parametrize("field", ["rho"])
@pytest.mark.parametrize("text", ["abc", "1e-x", "", "nan", "inf", "-1e-8",
                                  "1", "1e+500", "1e+1000000"])
def test_config_rejects_junk_radius(field, text):
    """The radius is outside input: junk, non-finite and non-positive values
    raise ConfigError naming the field, never a decimal exception.  So does
    a radius of 1 or more, which cannot certify (a = G(1) is about -0.4, so
    the ball holds a function with a = 0): 1e+1000000 used to overflow in
    balls.inflate and 1e+500 to fail writing a ContainmentFailure message."""
    with pytest.raises(ConfigError, match=field):
        pl.RunConfig(**{field: text})


@pytest.mark.parametrize("rho", [1e-8, Decimal("1e-8"), 1])
def test_config_refuses_a_radius_not_given_as_text(rho):
    """The radius is read from its decimal text only: the float 1e-8 would
    certify, and be written into every payload, at its binary expansion
    1.0000000000000000209...E-8."""
    with pytest.raises(ConfigError, match="rho"):
        pl.RunConfig(rho=rho)


@pytest.mark.parametrize("field, value", [
    ("degree", 20.0), ("precision", 30.0), ("boundary_rects", 64.0), ("workers", 1.0),
    ("degree", "20"), ("workers", True), ("targets", "fixed_point")])
def test_config_refuses_counts_that_are_not_ints(field, value):
    """Counts are ints and targets a sequence of names: 20.0 or 64.0 used to
    pass and then fail the run with a TypeError inside a stage, and the
    string "fixed_point" was read as its letters."""
    with pytest.raises(ConfigError, match=re.escape(f"{field}: {value!r}")):
        pl.RunConfig(**{field: value})


def test_radius_changes_no_payload(desk_all_targets):
    """No run reads RunConfig.rho: every ball has radius pl.RHO, so two
    valid radii give byte-identical payloads, and the report's config names
    no radius."""
    report = pl.run_pipeline(pl.RunConfig(precision=30, rho="1e-3")).report
    assert json.dumps(report["certificates"]) == json.dumps(
        desk_all_targets.report["certificates"])
    assert report["digits"] == desk_all_targets.report["digits"]
    assert report["config"] == desk_all_targets.report["config"] == {
        "degree": 20, "precision": 30, "targets": ["fixed_point", "delta", "gamma"]}
    assert all(c["rho"] == str(pl.RHO) for c in report["certificates"].values())


@pytest.mark.parametrize("verb", ["approx", "certify", "report", "plot"])
def test_cli_has_no_boundary_rects_flag(capsys, verb):
    """The certificates' theta < 1 proves the domain extension, so no verb
    takes a boundary rectangle count: its help lists none and -M is a usage
    error (exit 2), not a traceback."""
    from renormcert import cli

    with pytest.raises(SystemExit) as info:
        cli.main([verb, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    assert "--boundary-rects" not in text and "-M" not in text
    argv = [verb, "-M", "64"] + ["--figure", "fig1"] * (verb == "plot")
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "-M" in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["output_dir", "checkpoint_dir"])
def test_config_refuses_a_file_as_a_directory(tmp_path, field):
    """An output or checkpoint path that is an existing file is refused when
    the run is configured, before any work, by a ConfigError naming it."""
    path = tmp_path / "file"
    path.write_text("x")
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        pl.RunConfig(**{field: str(path)})


#: stand for an existing file and for a directory not yet made in the argv of a test
_FILE, _NEW = object(), object()


@pytest.mark.parametrize("argv, named", [
    (["certify", "-o", _FILE], _FILE), (["certify", "--checkpoint-dir", _FILE], _FILE),
    (["approx", "--checkpoint-dir", _FILE], _FILE),
    (["plot", "--figure", "fig2a", "-o", _FILE], _FILE),
    (["certify", "--targets", "fixed_point,fixed_point"], "twice"),
    (["plot", "--figure", "fig4a", "--targets", "fixed_point,delta", "-N", "80", "-o", _NEW],
     "figure fig4a needs the certified W ball"),
    (["plot", "--figure", "fig3c", "--targets", "fixed_point", "-o", _NEW],
     "figure fig3c needs the certified V ball")],
    ids=["certify-output", "certify-checkpoint", "approx-checkpoint", "plot-output",
         "repeated-target", "plot-without-gamma", "plot-without-delta"])
def test_cli_refuses_bad_paths_and_targets_before_any_work(tmp_path, monkeypatch, capsys,
                                                           argv, named):
    """A file given as a directory, a target named twice, or a figure whose
    ball the targets do not certify, is an error (exit 2) with no
    traceback, and no work runs: the pipeline and the fixed-point bootstrap
    are refused, and nothing is written."""
    from renormcert import cli

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the configuration was checked")

    monkeypatch.setattr(ax, "confirm_fixed_point", refuse)
    monkeypatch.setattr(ax, "fixed_point_ladder", refuse)
    monkeypatch.setattr(pl, "run_pipeline", refuse)
    path = tmp_path / "file"
    path.write_text("x")
    paths = {_FILE: str(path), _NEW: str(tmp_path / "out")}
    named = paths.get(named, named)
    assert cli.main([paths.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_unwritable_paths_are_config_errors(tmp_path):
    """A path below a file passes the configuration check, as it does not
    exist, but cannot be written: the OSError becomes a ConfigError naming
    it, in the approx stage for a checkpoint and after the run for the
    outputs."""
    blocker = tmp_path / "file"
    blocker.write_text("x")
    path = blocker / "sub"
    cfg = pl.RunConfig(degree=20, precision=30, targets=("fixed_point",),
                       checkpoint_dir=str(path))
    with pytest.raises(StageFailure) as info:
        pl.run_pipeline(cfg)
    assert info.value.stage == "approx"
    assert isinstance(info.value.__cause__, ConfigError) and str(path) in str(info.value.__cause__)
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        pl.run_pipeline(replace(cfg, checkpoint_dir=None, output_dir=str(path)))


@pytest.mark.parametrize("degree, precision", [(4, 15), (15, 16), (20, 20), (30, 26), (40, 33),
                                               (80, 60), (160, 113), (320, 220), (640, 433)])
def test_precision_follows_the_degree(degree, precision):
    """The working precision is ceil(2N/3) + 6 digits, at least 15: the
    default of RunConfig and the precision of every CLI run."""
    from renormcert import cli

    assert pl.precision_for(degree) == precision
    assert pl.RunConfig(degree=degree).precision == precision
    assert pl.RunConfig().precision == pl.precision_for(20)
    args = cli.build_parser().parse_args(["certify", "-N", str(degree)])
    assert cli._config_from_args(args).precision == precision


def _digits(degree: int, precision: int) -> dict:
    return pl.run_pipeline(pl.RunConfig(degree=degree, precision=precision)).report["digits"]


@pytest.mark.parametrize("degree", [20, 40])
def test_rule_precision_certifies_the_digits_of_a_higher_one(degree):
    """At P(N) the four digit strings are those of P(N) + 10: more
    precision certifies no more digits."""
    p = pl.precision_for(degree)
    assert _digits(degree, p) == _digits(degree, p + 10)


def test_precision_below_the_rule_loses_digits():
    """The rule's P is not slack: at N = 80, P(80) - 6 = 54 certifies a
    shorter a and alpha (52/50/49/48 against 53/53/49/48)."""
    p = pl.precision_for(80)
    rule, low = _digits(80, p), _digits(80, p - 6)
    counts = {name: (low[name]["count"], rule[name]["count"]) for name in rule}
    assert all(short <= full for short, full in counts.values())
    assert counts["a"][0] < counts["a"][1] and counts["alpha"][0] < counts["alpha"][1]


@pytest.mark.parametrize("verb", ["approx", "certify"])
def test_cli_defaults_are_the_run_config_defaults(verb):
    """Parsing no flag gives the fields of RunConfig(): the CLI reads its
    defaults from there."""
    from renormcert import cli

    assert cli._config_from_args(cli.build_parser().parse_args([verb])) == pl.RunConfig()


def test_pipeline_ordering_enforced():
    with pytest.raises(PipelineOrderError):
        pl.RunConfig(targets=("delta",))
    with pytest.raises(PipelineOrderError):
        pl.RunConfig(targets=("gamma",))
    pl.RunConfig(targets=("fixed_point",))  # alone is fine


def test_certified_digits_examples():
    text, count = pl.certified_digits(interval("-0.39953528053", "-0.39953528051"))
    assert text.startswith("-0.399535280")
    assert count >= 9
    assert pl.certified_digits(interval("4.5", "4.7")) == ("4", 1)
    assert pl.certified_digits(interval("-1", "1")) == ("", 0)
    assert pl.certified_digits(interval("0.999", "1.001")) == ("", 0)
    assert pl.certified_digits(interval("0.123", "0.1234")) == ("0.123", 3)
    text, count = pl.certified_digits(interval("4500", "4700"))
    assert count == 1 and text.startswith("4")


def test_certified_digits_never_excludes_members():
    rng = random.Random(42)
    for _ in range(10000):
        x = rand_interval(rng, scale=10.0)
        text, count = pl.certified_digits(x)
        if count == 0:
            continue
        digits = text.lstrip("+-").replace(".", "").lstrip("0")[:count]
        for _ in range(5):
            member = sample_point(rng, x)
            mdigits = "".join(str(d) for d in member.as_tuple().digits)
            mdigits = (mdigits + "0" * count)[:count]
            assert mdigits == digits, (x, text, member)


def test_certified_digits_maximal():
    rng = random.Random(43)
    for _ in range(2000):
        x = rand_interval(rng, scale=10.0)
        if x.lo <= 0 <= x.hi or x.lo == x.hi:
            continue
        _, count = pl.certified_digits(x)
        lo, hi = (x.lo, x.hi) if x.lo > 0 else (x.hi.copy_abs(), x.lo.copy_abs())
        dlo, dhi = lo.as_tuple(), hi.as_tuple()
        if dlo.exponent + len(dlo.digits) != dhi.exponent + len(dhi.digits):
            assert count == 0
            continue
        width = max(len(dlo.digits), len(dhi.digits))
        a = list(dlo.digits) + [0] * (width - len(dlo.digits))
        b = list(dhi.digits) + [0] * (width - len(dhi.digits))
        shared = 0
        for da, db in zip(a, b):
            if da != db:
                break
            shared += 1
        assert count == shared


@given(st.decimals(allow_nan=False, allow_infinity=False, places=8,
                   min_value=Decimal("0.0001"), max_value=Decimal("1000")),
       st.decimals(allow_nan=False, allow_infinity=False, places=8,
                   min_value=Decimal("0"), max_value=Decimal("0.01")))
@settings(max_examples=300, deadline=None)
def test_certified_digits_hypothesis(center, width):
    x = Interval(center, center + width)
    text, count = pl.certified_digits(x)
    if count:
        digits = text.lstrip("+-").replace(".", "").lstrip("0")[:count]
        for member in (x.lo, x.hi):
            mdigits = "".join(str(d) for d in member.as_tuple().digits)
            mdigits = (mdigits + "0" * count)[:count]
            assert mdigits == digits


def test_format_digit_block():
    block = pl.format_digit_block("-0." + "1234567890" * 7)
    lines = block.strip().splitlines()
    assert lines[0] == "-0."
    assert lines[1].split() == ["1234567890"] * 5
    assert lines[2].split() == ["1234567890"] * 2
    block2 = pl.format_digit_block("4.669201609")
    assert block2.startswith("+4.")


def _drop_line(key):
    return lambda desk, text: "".join(ln for ln in text.splitlines(True)
                                      if not ln.startswith(key))


def _set_line(key, value):
    return lambda desk, text: "".join(f"{key} {value}\n" if ln.startswith(key + " ") else ln
                                      for ln in text.splitlines(True))


def _first_coeff(value):
    def edit(desk, text):
        head, _, rest = text.partition("coeff ")
        return head + f"coeff {value}\n" + rest.partition("\n")[2]
    return edit


def _degree_12(desk, text):
    return fb.serialize_ball(fb.ball_from_decimals(fb.STANDARD_DISC, desk.g0[:13], 12))


#: corruption of the g0 checkpoint: (desk, file text) -> new file text
BALL_CHECKPOINT_CASES = {
    "missing_field": _drop_line("v_err"),
    "short_coeff_line": _first_coeff("0.1 0.2 0"),
    "nan_v_high": _set_line("v_high", "NaN"),
    "bad_number": _set_line("center", "one"),
    "non_real_coeff": _first_coeff("0.1 0.2 0 1e-30"),
    "tiny_endpoint": _first_coeff("0 1E-1000000000 0 0"),
    "huge_endpoint": _first_coeff("-1E+1000000000 0 0 0"),
    "degree_12_in_n20_run": _degree_12,
    "other_disc": _set_line("center", "0"),
    "tail_mass": _set_line("v_err", "1E-30"),
}


def _approx_failure(tmp_path, path):
    """Run an N=20 pipeline on the checkpoints in tmp_path: it must fail the
    approx stage with a ConfigError naming the file at path."""
    cfg = pl.RunConfig(degree=20, precision=30, targets=("fixed_point",),
                       checkpoint_dir=str(tmp_path))
    with pytest.raises(StageFailure) as info:
        pl.run_pipeline(cfg)
    assert info.value.stage == "approx"
    assert isinstance(info.value.__cause__, ConfigError)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("case", sorted(BALL_CHECKPOINT_CASES))
def test_bad_ball_checkpoint_is_refused(desk, tmp_path, case):
    """A g0 checkpoint that does not parse, is not real, is not an exact
    centre, or does not fit the run fails the approx stage with a
    ConfigError naming the file."""
    path = tmp_path / "g0_n20_p30.txt"
    path.write_text(BALL_CHECKPOINT_CASES[case](desk, fb.serialize_ball(desk.G0)))
    _approx_failure(tmp_path, path)


@pytest.mark.parametrize("case", ["directory", "not_utf8"])
def test_unreadable_checkpoint_fails_cleanly(tmp_path, capsys, case):
    """A g0 checkpoint path that is a directory, or a file that is not UTF-8
    text, fails the approx stage with a ConfigError naming the path: the
    CLI exits 2 with a partial report, not with a traceback."""
    from renormcert import cli

    path = tmp_path / "ck" / f"g0_n20_p{pl.precision_for(20)}.txt"
    if case == "directory":
        path.mkdir(parents=True)
    else:
        path.parent.mkdir()
        path.write_bytes(b"\xff\xfe" + fb.serialize_ball(fb.zero_ball(20)).encode())
    out = tmp_path / "out"
    assert cli.main(["certify", "-N", "20", "--checkpoint-dir",
                     str(path.parent), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FAILED at stage approx: ") and str(path) in err
    report = json.loads((out / "report.json").read_text())
    assert report["partial"] is True and report["failed_stage"] == "approx"


def test_environment_sets_no_checkpoint_directory(tmp_path, monkeypatch, capsys):
    """Only --checkpoint-dir names the checkpoint directory: with
    RENORMCERT_SCRATCH naming a directory that holds a corrupt g0
    checkpoint, a desk certify run bootstraps afresh and passes."""
    from renormcert import cli

    (tmp_path / f"g0_n20_p{pl.precision_for(20)}.txt").write_text("not a ball\n")
    monkeypatch.setenv("RENORMCERT_SCRATCH", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["certify", "-N", "20"]) == 0
    assert "\na: 15 certified digits" in capsys.readouterr().out


def test_checkpoint_past_the_int_string_limit_runs(desk, tmp_path):
    """A g0 checkpoint whose last coefficient has a 5000-digit endpoint, more
    than str() of an int writes, is held as 5000-digit integers: the run
    checksums it and certifies, or fails as a StageFailure, never with a
    raw ValueError from writing an integer out."""
    lines = fb.serialize_ball(desk.G0).splitlines()
    last = lines[-1].split()[1]
    mantissa, _, exponent = last.partition("E")
    long = mantissa + "7" * (5000 - len(mantissa.lstrip("-").replace(".", ""))) \
        + (f"E{exponent}" if exponent else "")
    assert len(long.lstrip("-").split("E")[0].replace(".", "")) == 5000
    lines[-1] = f"coeff {long} {long} 0 0"
    (tmp_path / "g0_n20_p30.txt").write_text("\n".join(lines) + "\n")
    cfg = pl.RunConfig(degree=20, precision=30, targets=("fixed_point",),
                       checkpoint_dir=str(tmp_path))
    try:
        report = pl.run_pipeline(cfg).report
    except StageFailure:
        return
    assert report["certificates"]["fixed_point"]["passed"]
    assert report["checksums"]["g0"] != fb.ball_checksum(desk.G0)


def test_smaller_head_certifies(monkeypatch):
    """A frozen map whose head is smaller than the run's degree certifies:
    with K = 12 in an N = 20 run the fixed-point certificate passes.  The
    one HEAD_DEGREE is read when certify runs."""
    monkeypatch.setattr(ct, "HEAD_DEGREE", 12)
    cfg = pl.RunConfig(degree=20, precision=30, targets=("fixed_point",))
    cert = pl.run_pipeline(cfg).report["certificates"]["fixed_point"]
    assert cert["head_degree"] == 12 and cert["passed"]


def test_n40_certified_digit_counts(n40):
    assert_min_digits(n40.result.report, 40)


def test_dense_map_certifies_same_digits(n40, monkeypatch):
    """A dense map (K = N), inverted from the full midpoint Jacobian, passes
    the bounds with the digits certify's K = 20 block map gives at N = 40
    (27 for a and alpha), and one more for each (28): the block map's
    kappa_phi is its tail part, which a dense map does not have, and the
    dense map's column part reads the columns' error parts through row 0
    of the map, max_j |Lam_0j|, not ||Lam|| (ROADMAP item 16)."""
    powers_above_baby_steps(monkeypatch)
    full = MidDecimal(n40.g0, 40)
    with decimal.localcontext(ct._context(40)):
        jac = matrix(jacobian_probe(full, "fixed_point"), len(n40.g0))
    lam = ct.build_lambda("fixed_point", jac, 40)
    assert lam.dim == 41
    monkeypatch.setattr(ct, "HEAD_DEGREE", 40)
    monkeypatch.setattr(ct, "frozen_map", lambda *args: lam)
    cert = ct.certify(n40.ctx, ct.Problem(0), n40.result.balls["G0"], pl.RHO)
    assert cert.passed and cert.head_degree == 40
    for name, dense_count in (("a", 28), ("alpha", 28)):
        text, count = pl.certified_digits(cert.enclosures[name])
        block = n40.result.report["digits"][name]
        assert text.startswith(block["digits"]) and block["count"] == 27
        assert count == dense_count


def test_run_pipeline_desk(tmp_path):
    cfg = pl.RunConfig(degree=20, precision=30, boundary_rects=64,
                       output_dir=str(tmp_path / "out"),
                       checkpoint_dir=str(tmp_path / "ckpt"))
    res = pl.run_pipeline(cfg)
    report = res.report
    assert set(report["certificates"]) == {"fixed_point", "delta", "gamma"}
    assert all(c["passed"] for c in report["certificates"].values())
    assert report["digits"]["a"]["count"] >= 8
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "certificate_delta.json").exists()
    assert (tmp_path / "out" / "digits_a.txt").exists()
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert data["schema"] == pl.REPORT_SCHEMA
    assert not data["partial"]
    assert set(data["checksums"]) == {"g0", "delta0", "gamma0"}
    assert data["execution"]["peak_rss_mb"] > 0
    assert data["execution"]["workers"] == 1
    assert sorted(data["timings"]) == ["approx", "delta", "fixed_point", "gamma",
                                       "parameter_ball"]
    assert "domain_extension" not in data and "boundary_rects" not in data["config"]
    assert all(sorted(c["config"]) == ["degree", "input_checksums", "precision"]
               for c in data["certificates"].values())
    for target, payload in data["certificates"].items():
        written = json.loads((tmp_path / "out" / f"certificate_{target}.json").read_text())
        assert written == {"certificate": payload,
                           "execution": {"wall_time_s": data["timings"][target]}}
    products = data["execution"]["products"]
    assert list(products) == ["approx", "fixed_point", "parameter_ball", "delta", "gamma"]
    assert all(sorted(counts) == ["computed", "reused"] for counts in products.values())
    assert not any("products" in payload for payload in data["certificates"].values())
    assert list(data["execution"]["bootstrap"]) == ["fixed_point", "delta", "gamma"]
    assert not any("bootstrap" in payload for payload in data["certificates"].values())
    # checkpoints reload on the second run, which bootstraps nothing: its
    # fixed_point stage builds the tables the approx stage built before
    res2 = pl.run_pipeline(cfg)
    assert res2.report["certificates"] == report["certificates"]
    again = res2.report["execution"]["products"]
    assert again["approx"] == {"computed": 0, "reused": 0}
    assert {k: again[k] for k in ("parameter_ball", "delta", "gamma")} \
        == {k: products[k] for k in ("parameter_ball", "delta", "gamma")}
    assert res2.report["execution"]["bootstrap"] == {}


@pytest.mark.parametrize("degree", [20, 40])
def test_eigen_stages_reuse_the_fixed_point_products(degree, monkeypatch):
    """The parameter ball is centred on G0, so its tables compute no exact
    product: each repeats one the fixed-point certificate formed over
    B(G0, rho).  Neither do delta's M_1 head columns, which that
    certificate's columns formed too.  The memo is dropped after delta:
    gamma's M_2 repeats nothing, and reuses nothing."""
    heads = {}
    column_images = ct.Problem.column_images

    def counted(self, c, x_ball, head_degree):
        before = fb.product_counts()
        images = column_images(self, c, x_ball, head_degree)
        heads[self.kind] = {k: v - before[k] for k, v in fb.product_counts().items()}
        return images

    monkeypatch.setattr(ct.Problem, "column_images", counted)
    products = pl.run_pipeline(pl.RunConfig(degree=degree)).report["execution"]["products"]
    assert products["parameter_ball"]["computed"] == 0 < products["parameter_ball"]["reused"]
    assert heads["delta_eigen"]["computed"] == 0 < heads["delta_eigen"]["reused"]
    assert products["gamma"]["reused"] == 0 < products["gamma"]["computed"]
    assert fb._memo is None


def test_approx_stage_counts_its_products(monkeypatch):
    """execution.products has an approx entry, in report.json only: the
    exact products of the midpoint ladder and eigen refinements, and of the
    fixed-point certificate's tables, which the approx stage builds with
    the memo open (60 products at N=40, 2 of them repeats), so that the
    fixed_point stage computes only its residual and columns and the
    parameter ball's tables repeat all 60.  Pinned at N=40, P=33."""
    report = pl.run_pipeline(pl.RunConfig(degree=40)).report
    assert report["execution"]["products"] == {
        "approx": {"computed": 195, "reused": 2},
        "fixed_point": {"computed": 43, "reused": 1},
        "parameter_ball": {"computed": 0, "reused": 60},
        "delta": {"computed": 6, "reused": 43},
        "gamma": {"computed": 48, "reused": 0}}
    assert not any("products" in payload for payload in report["certificates"].values())
    counted = {}
    monkeypatch.setattr(op.OperatorTables, "build", _counted_products(counted))
    with fb.product_memo():
        pl.bootstrap(pl.RunConfig(degree=40))
    assert counted == {"computed": 58, "reused": 2}


def _counted_products(counted: dict):
    """OperatorTables.build, adding the products each build computes and
    reuses to ``counted``."""
    build = op.OperatorTables.build.__func__

    def counting(cls, c, G):
        before = fb.product_counts()
        tables = build(cls, c, G)
        for key, value in fb.product_counts().items():
            counted[key] = counted.get(key, 0) + value - before[key]
        return tables
    return classmethod(counting)


def _work(builds: int, views: int, applies: int, coefficients: int) -> dict:
    return {"builds": builds, "views": views, "applies": applies,
            "coefficients": coefficients}


@pytest.mark.parametrize("degree, precision, work", [
    (40, 33, {"fixed_point": _work(1, 1, 3, 123), "delta": _work(0, 0, 4, 164),
              "gamma": _work(0, 0, 4, 164)}),
    (40, 40, {"fixed_point": _work(1, 1, 4, 164), "delta": _work(0, 0, 5, 204),
              "gamma": _work(0, 0, 5, 204)}),
    (80, 60, {"fixed_point": _work(2, 2, 7, 408), "delta": _work(0, 0, 8, 578),
              "gamma": _work(0, 0, 8, 566)}),
])
def test_bootstrap_counts_its_work(n40, degree, precision, work):
    """The approx stage records per target the midpoint builds, coarse
    views and applies of M_q its bootstrap made, and the summed length of
    the vectors those applies read, in report.json's execution.bootstrap:
    deterministic counts.  The fixed point makes 1 build at N=40 and 2 at
    N=80 (one per rung below the top, whose correction the fixed-point
    certificate's tables confirm) and one view per Newton correction; the
    eigen targets read one view of those tables, which counts as neither,
    and make no build of their own."""
    if (degree, precision) == (40, 40):
        assert n40.result.report["execution"]["bootstrap"] == work
    counted = {}
    pl.bootstrap(pl.RunConfig(degree=degree, precision=precision), counted)
    assert counted == work


def test_checkpointed_fixed_point_makes_no_build(tmp_path):
    """With g0 checkpointed, the eigen targets read a view of the
    fixed-point tables over it and the fixed point does no work: no
    midpoint build at all, and the centres of a run with no checkpoint."""
    cfg = pl.RunConfig(degree=20, checkpoint_dir=str(tmp_path))
    pl.bootstrap(replace(cfg, targets=("fixed_point",)))
    counted = {}
    centres, _ = pl.bootstrap(cfg, counted)
    assert counted == {"delta": _work(0, 0, 1, 21), "gamma": _work(0, 0, 2, 32)}
    fresh, _ = pl.bootstrap(replace(cfg, checkpoint_dir=None))
    assert {t: fb.ball_checksum(b) for t, b in centres.items()} \
        == {t: fb.ball_checksum(b) for t, b in fresh.items()}


def test_fixed_point_run_opens_no_product_memo(monkeypatch):
    """A run with the fixed-point target alone has no later stage to
    reuse its products, so it never opens the memo."""
    def refused():
        raise AssertionError("product memo opened")

    monkeypatch.setattr(fb, "product_memo", refused)
    report = pl.run_pipeline(pl.RunConfig(degree=20, targets=("fixed_point",))).report
    assert list(report["execution"]["products"]) == ["approx", "fixed_point"]
    assert all(counts["reused"] == 0 for counts in report["execution"]["products"].values())


def _counting_tables(monkeypatch) -> list[int]:
    """The degree of each OperatorTables.build made from now on, in order."""
    built, build = [], op.OperatorTables.build.__func__

    def counted(cls, c, G):
        built.append(G.truncation)
        return build(cls, c, G)
    monkeypatch.setattr(op.OperatorTables, "build", classmethod(counted))
    return built


@pytest.mark.parametrize("degree", [20, 40, 80])
def test_fixed_point_run_confirms_g0_on_its_certificate_tables(monkeypatch, degree):
    """With no eigen target pending, the top rung's last Newton correction
    is confirmed on the fixed-point certificate's own tables over
    B(g0, RHO), which the certificate then reads: one OperatorTables.build
    in the run.  g0 and the fixed-point payload are those of the run with
    every target, whose confirming build is a midpoint one, byte for byte."""
    full = pl.run_pipeline(pl.RunConfig(degree=degree)).report
    built = _counting_tables(monkeypatch)
    alone = pl.run_pipeline(pl.RunConfig(degree=degree, targets=("fixed_point",))).report
    assert built == [degree]
    assert alone["checksums"]["g0"] == full["checksums"]["g0"]
    assert json.dumps(alone["certificates"]["fixed_point"]) \
        == json.dumps(full["certificates"]["fixed_point"])


@pytest.mark.parametrize("degree, builds", [(40, 1), (80, 2), (160, 3)])
def test_fixed_point_run_makes_no_confirming_build(degree, builds):
    """The bootstrap makes one midpoint build fewer than
    approx.approx_fixed_point, which confirms the top rung's correction on
    a build of g0: 1, 2 and 3 builds at N = 40, 80 and 160, and the same
    views, applies and coefficients, with the fixed-point target alone or
    with every target, whose eigen bootstraps make no build."""
    cfg = pl.RunConfig(degree=degree, targets=("fixed_point",))
    start = ax.work_counts()
    ax.approx_fixed_point(degree, cfg.precision)
    confirmed = pl._work_since(start)
    work, every = {}, {}
    pl.bootstrap(cfg, work)
    pl.bootstrap(replace(cfg, targets=pl._TARGETS), every)
    assert work == {"fixed_point": {**confirmed, "builds": builds}}
    assert every["fixed_point"] == work["fixed_point"]
    assert every["delta"]["builds"] == every["gamma"]["builds"] == 0
    assert confirmed["builds"] == builds + 1


def test_missed_table_confirmation_corrects_on_the_ladder(monkeypatch):
    """At N=40, P=43 (the rule's P + 10) the top rung's one correction
    leaves the residual above 10**-(P-6): the check on the tables misses,
    the ladder's midpoint loop corrects g0 again, and the tables are built
    again over that g0: in the approx stage for the eigen bootstraps, which
    read them, or in the fixed_point stage with no eigen target.  Either
    run certifies from that g0 with the same midpoint builds, 3, and the
    same a and alpha strings."""
    cfg = pl.RunConfig(degree=40, precision=43)
    built = _counting_tables(monkeypatch)
    read, from_tables = [], ax._MidShared.from_tables.__func__

    def reading(cls, tables, digits):
        read.append(tables.shared.source)
        return from_tables(cls, tables, digits)

    monkeypatch.setattr(ax._MidShared, "from_tables", classmethod(reading))
    full = pl.run_pipeline(cfg).report
    assert built == [40, 40, 40]   # the missed check, the eigen bootstraps', parameter_ball
    assert [fb.ball_checksum(replace(source, v_err=Decimal(0))) for source in read] \
        == [full["checksums"]["g0"]]
    built.clear()
    alone = pl.run_pipeline(replace(cfg, targets=("fixed_point",))).report
    assert built == [40, 40]
    assert alone["checksums"]["g0"] == full["checksums"]["g0"]
    assert alone["digits"] == {name: full["digits"][name] for name in ("a", "alpha")}
    assert alone["execution"]["bootstrap"]["fixed_point"]["builds"] \
        == full["execution"]["bootstrap"]["fixed_point"]["builds"] == 3


def test_confirmation_that_always_accepts_is_caught(monkeypatch):
    """Negative control for the check on the tables: one that accepts every
    residual leaves the N=40, P=43 g0 after a single top-rung correction,
    more than 10**-(P-6) from approx_fixed_point(40, 43)."""
    monkeypatch.setattr(ax, "below_tolerance", lambda *args: True)
    centres, _ = pl.bootstrap(pl.RunConfig(degree=40, precision=43, targets=("fixed_point",)))
    monkeypatch.undo()
    g0 = [c.re.lo for c in centres["fixed_point"].coeffs]
    assert max(abs(a - b) for a, b in zip(g0, ax.approx_fixed_point(40, 43))) > Decimal("1e-37")


def test_tables_that_cannot_be_built_fail_the_fixed_point_stage(monkeypatch, tmp_path, capsys):
    """Tables that cannot be built over B(g0, RHO) are a miss: g0 is
    confirmed on the midpoint ladder instead, and the failure is the
    fixed_point stage's, with or without an eigen target: a StageFailure
    naming it with the CompositionContractFailure as cause, in the
    partial report too.  With an eigen target the approx stage, which needs
    the tables, raises it, after writing the confirmed g0, and the approx
    verb exits 2 with no traceback."""
    from renormcert import cli

    def fail(cls, c, G):
        raise CompositionContractFailure("theta >= 1", subexpression="G(a2 X)")

    monkeypatch.setattr(op.OperatorTables, "build", classmethod(fail))
    for targets in (("fixed_point",), pl._TARGETS):
        out = tmp_path / str(len(targets))
        with pytest.raises(StageFailure) as info:
            pl.run_pipeline(pl.RunConfig(degree=40, targets=targets, output_dir=str(out)))
        assert info.value.stage == "fixed_point"
        assert isinstance(info.value.__cause__, CompositionContractFailure)
        data = json.loads((out / "report.json").read_text())
        assert (data["partial"], data["failed_stage"]) == (True, "fixed_point")
        assert data["failure"] == "CompositionContractFailure: theta >= 1"
    ck = tmp_path / "ck"
    assert cli.main(["approx", "-N", "40", "--checkpoint-dir", str(ck)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "theta >= 1" in err and "Traceback" not in err
    assert [p.name for p in ck.iterdir()] == ["g0_n40_p33.txt"]


def test_fixed_point_checkpoint_round_trip(tmp_path):
    """A fixed-point-only approx stage at N=40 writes g0 once confirmed; a
    run from that checkpoint bootstraps nothing and writes the fixed-point
    payload of a fresh run."""
    cfg = pl.RunConfig(degree=40, targets=("fixed_point",), checkpoint_dir=str(tmp_path))
    pl.bootstrap(cfg)
    assert [p.name for p in tmp_path.iterdir()] == [f"g0_n40_p{cfg.precision}.txt"]
    from_checkpoint = pl.run_pipeline(cfg).report
    fresh = pl.run_pipeline(replace(cfg, checkpoint_dir=None)).report
    assert from_checkpoint["execution"]["bootstrap"] == {}
    assert from_checkpoint["certificates"] == fresh["certificates"]


def test_report_reproducible_across_workers(tmp_path, monkeypatch):
    """All three targets in one process and with the eigen bootstraps in a
    real fork pool (2 and 4 usable cores, so 2 processes): equal
    certificates, digits, checksums and checkpoint files (written by the
    parent), and each report counts the processes it used."""
    runs = []
    for cores in (1, 2, 4):
        set_pool_rule(monkeypatch, cores)
        ckpt = tmp_path / f"ckpt{cores}"
        cfg = pl.RunConfig(degree=20, precision=30, checkpoint_dir=str(ckpt))
        report = pl.run_pipeline(cfg).report
        assert report["execution"]["workers"] == min(cores, 2)
        files = {f.name: f.read_text() for f in ckpt.iterdir()}
        runs.append((report["certificates"], report["digits"], report["checksums"], files))
    assert len(runs[0][3]) == 3
    assert runs[0] == runs[1] == runs[2]


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor: records its size and runs the work
    in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def _record_pool_sizes(monkeypatch) -> list:
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(sizes, max_workers))
    return sizes


def test_pool_starts_by_degree_and_usable_cores(monkeypatch):
    """The rule itself, with the bootstraps stubbed out: no pool at desk,
    N=40 or N=80 however many cores are usable; from POOL_MIN_DEGREE on, a
    pool of min(2, cores) for both eigen targets, and none with one usable
    core or one pending target."""
    sizes = _record_pool_sizes(monkeypatch)
    monkeypatch.setattr(pl, "_confirmed_on_tables",
                        lambda c, cfg, fixed: fb.zero_ball(cfg.degree))
    monkeypatch.setattr(ct.Problem, "_tables", lambda self, c, ball: None)
    monkeypatch.setattr(ax._MidShared, "from_tables", staticmethod(lambda tables, p: None))
    monkeypatch.setattr(ax, "eigenpair_from_view",
                        lambda target, view, p: ([Decimal(1)], Decimal(1)))
    top = pl.POOL_MIN_DEGREE
    assert top > 80
    both, delta = pl._TARGETS, ("fixed_point", "delta")
    for degree, cores, targets, size in [
            *((n, c, both, 1) for n in (20, 40, 80) for c in (1, 2, 4, 64)),
            *((n, c, both, min(2, c)) for n in (top, top + 20) for c in (1, 2, 3, 64)),
            (top, 4, delta, 1), (top - 1, 4, both, 1)]:
        monkeypatch.setattr(pl, "_usable_cores", lambda: cores)
        sizes.clear()
        centres, processes = pl.bootstrap(pl.RunConfig(degree=degree, targets=targets))
        assert (processes, sizes) == (size, [size] if size > 1 else []), (degree, cores)
        assert list(centres) == list(targets)


def test_eigen_pool_starts_one_process_per_pending_target(monkeypatch):
    """Usable cores beyond the two pending eigen targets start no extra
    process, and the centres are those of one process."""
    sizes = _record_pool_sizes(monkeypatch)
    serial, _ = pl.bootstrap(pl.RunConfig())
    assert sizes == []
    for cores in (2, 3, 5000):
        set_pool_rule(monkeypatch, cores)
        centres, processes = pl.bootstrap(pl.RunConfig())
        assert processes == 2
        assert {t: fb.ball_checksum(b) for t, b in centres.items()} \
            == {t: fb.ball_checksum(b) for t, b in serial.items()}
    assert sizes == [2, 2, 2]


@pytest.mark.parametrize("precision", [33, 40], ids=["rule", "benchmark"])
def test_n40_centres_agree_across_bootstrap_paths(monkeypatch, precision):
    """At N=40, where the eigen bootstraps refine a binary64 head vector,
    three paths give byte-identical centres: the bootstrap in one process
    and in a pool, whose eigen targets both read one view of the
    fixed-point certificate's tables over B(g0, RHO) (a pool worker
    receives it and builds neither tables nor a midpoint build), and the
    API calls the benchmark's set-up makes, approx_fixed_point and then
    approx_eigenpair per target on the ball's centre, which builds the
    tables over g0 itself: their integers are those over B(g0, RHO).
    Either bootstrap makes one degree-40 midpoint build, one fewer than the
    API calls (approx_fixed_point's confirming build), and one table
    build, the fixed-point certificate's, where the API calls make two."""
    degrees, init, parent = [], ax._MidShared.__init__, os.getpid()

    def counting_init(self, g, digits, width=None):
        if os.getpid() != parent:
            raise AssertionError("a pool worker made a midpoint build")
        degrees.append(len(g) - 1)
        init(self, g, digits, width)

    monkeypatch.setattr(ax._MidShared, "__init__", counting_init)
    built, build = [], op.OperatorTables.build.__func__

    def counting_build(cls, c, G):
        if os.getpid() != parent:
            raise AssertionError("a pool worker built operator tables")
        built.append(G.truncation)
        return build(cls, c, G)

    monkeypatch.setattr(op.OperatorTables, "build", classmethod(counting_build))
    cfg = pl.RunConfig(degree=40, precision=precision)
    serial, processes = pl.bootstrap(cfg)
    assert processes == 1
    assert (degrees.count(40), built) == (1, [40])
    degrees.clear(), built.clear()
    g0 = fb.ball_from_decimals(fb.STANDARD_DISC, ax.approx_fixed_point(40, precision), 40)
    centre = [c.re.lo for c in g0.coeffs]
    api = {"fixed_point": g0}
    for target in ("delta", "gamma"):
        x0 = ax.approx_eigenpair(target, centre, precision)[0]
        api[target] = fb.ball_from_decimals(fb.STANDARD_DISC, x0, 40)
    assert (degrees.count(40), built) == (2, [40, 40])
    degrees.clear(), built.clear()
    set_pool_rule(monkeypatch, 2)
    pooled, processes = pl.bootstrap(cfg)
    assert processes == 2
    assert (degrees.count(40), built) == (1, [40])
    texts = [{t: fb.serialize_ball(b) for t, b in run.items()} for run in (serial, pooled, api)]
    assert list(texts[0]) == list(pl._TARGETS)
    assert texts[0] == texts[1] == texts[2]


def test_one_pending_target_starts_no_pool(desk, tmp_path, monkeypatch):
    """With the delta checkpoint present only gamma is pending: it is
    bootstrapped in this process and its checkpoint written."""
    (tmp_path / "delta0_n20_p30.txt").write_text(fb.serialize_ball(desk.V0))
    sizes = _record_pool_sizes(monkeypatch)
    set_pool_rule(monkeypatch, 2)
    centres, processes = pl.bootstrap(pl.RunConfig(precision=30, checkpoint_dir=str(tmp_path)))
    assert (sizes, processes) == ([], 1)
    assert fb.ball_checksum(centres["delta"]) == fb.ball_checksum(desk.V0)
    assert (tmp_path / "gamma0_n20_p30.txt").exists()


@pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                    reason="the patched bootstrap reaches workers only by fork")
def test_worker_failure_is_a_stage_failure(tmp_path, monkeypatch):
    """An eigen selection that fails inside a pool worker surfaces as the
    serial run's failure: StageFailure at stage "approx" with the same cause
    type and message, and the same partial report."""

    def ambiguous(target, view, digits):
        raise EigenSelectionAmbiguous(f"{target}: two eigenvalues near the target")

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(ax, "eigenpair_from_view", ambiguous)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    outcomes = []
    for cores in (1, 2):
        set_pool_rule(monkeypatch, cores)
        out = tmp_path / f"w{cores}"
        with pytest.raises(StageFailure) as info:
            pl.run_pipeline(pl.RunConfig(output_dir=str(out)))
        cause = info.value.__cause__
        data = json.loads((out / "report.json").read_text())
        del data["timings"], data["execution"]
        outcomes.append((info.value.stage, type(cause), str(cause), data))
    assert pools == [2]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:3] == ("approx", EigenSelectionAmbiguous,
                               "delta: two eigenvalues near the target")
    assert outcomes[0][3]["partial"] is True


@pytest.mark.parametrize("rho", ["0.05", "0.2"])
def test_radius_too_wide_for_theta_fails_at_fixed_point(desk, rho):
    """A fixed-point ball with theta >= 1 for a composition argument fails
    cleanly, where the certificate's power tables refuse it: theta < 1 is
    the one proof that the operators are well defined on the ball."""
    with pytest.raises((CompositionContractFailure, NormalizationSingular)) as info:
        ct.certify(desk.ctx, ct.Problem(0), desk.G0, rho)
    if isinstance(info.value, CompositionContractFailure):
        assert info.value.subexpression


def test_partial_report_on_failure(tmp_path):
    """At degree 4 the fixed-point certificate fails (kappa is 1.40): the
    run stops there and writes a partial report naming the stage."""
    cfg = pl.RunConfig(degree=4, precision=30, output_dir=str(tmp_path))
    with pytest.raises(StageFailure) as info:
        pl.run_pipeline(cfg)
    assert info.value.stage == "fixed_point"
    assert isinstance(info.value.__cause__, CertificationFailed)
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["partial"] is True
    assert data["failed_stage"] == "fixed_point"
    assert "failure" in data
    assert sorted(data["timings"]) == ["approx", "fixed_point"]


def test_plot_coverings(desk):
    balls = {"G": desk.param, "V": desk.V0, "W": desk.W0}
    rows = pl.emit_plot_covering(desk.ctx, "fig2a", 10, balls)
    assert len(rows) == 10
    lo = Decimal(rows[0][1])
    hi = Decimal(rows[-1][2])
    assert lo == Decimal("-1.5") and hi == Decimal("3.5")
    rows1 = pl.emit_plot_covering(desk.ctx, "fig1", 64, balls)
    assert len(rows1) == 3 * 64
    labels = {r[0] for r in rows1}
    assert labels == {"boundary", "gamma1", "gamma2"}
    with pytest.raises(ConfigError):
        pl.emit_plot_covering(desk.ctx, "fig9z", 10, balls)
    with pytest.raises(MissingCertificate):
        pl.emit_plot_covering(desk.ctx, "fig3a", 10, {"G": desk.param})


def _certified_desk_balls(desk) -> dict:
    ctx = desk.ctx
    return {"G": desk.param,
            "V": fb.inflate(ctx, desk.V0, desk.cert_delta.proven_radius),
            "W": fb.inflate(ctx, desk.W0, desk.cert_gamma.proven_radius)}


@pytest.mark.parametrize("figure, subdivisions",
                         [(f, 40) for f in sorted(pl.FIGURES)] + [("fig1", 64)])
def test_plot_covering_writes_zero_ends_as_0(desk, figure, subdivisions):
    """An end that is exactly 0 is written "0", lower and upper alike: fig1
    at 64 boxes used to write four lower ends as 0E-64."""
    rows = pl.emit_plot_covering(desk.ctx, figure, subdivisions, _certified_desk_balls(desk))
    assert not [row for row in rows
                if any(Decimal(end) == 0 and end != "0" for end in row[1:])]


@pytest.mark.parametrize("figure", ["fig2b", "fig2c", "fig2d", "fig3c", "fig3d", "fig4a",
                                    "fig4b"])
def test_plot_covering_hoisted_constants_bit_identical(desk, figure):
    """A covering prepares the balls and a, lambda, gamma once; its rows
    equal those of extend_recursive, which prepares them for every point."""
    balls = _certified_desk_balls(desk)
    rows = pl.emit_plot_covering(desk.ctx, figure, 10, balls)
    target, _, depth = pl.FIGURES[figure]
    for label, x_lo, x_hi, y_lo, y_hi in rows:
        x = Interval(Decimal(x_lo), Decimal(x_hi))
        val = op.extend_recursive(desk.ctx, target, x, depth, **balls)
        assert (y_lo, y_hi) == (str(val.re.lo), str(val.re.hi))


def _desk_ball_sets(desk) -> dict:
    """The desk balls as the benchmark draws them, V and W inflated by
    their certificates' rho, and as ``renormcert plot`` does, through
    certified_balls."""
    ctx = desk.ctx
    result = SimpleNamespace(
        balls={"G0": desk.G0, "V0": desk.V0, "W0": desk.W0},
        certificates={"fixed_point": desk.cert_fixed, "delta": desk.cert_delta,
                      "gamma": desk.cert_gamma})
    return {"rho": {"G": desk.param, "V": fb.inflate(ctx, desk.V0, desk.cert_delta.rho),
                    "W": fb.inflate(ctx, desk.W0, desk.cert_gamma.rho)},
            "certified": pl.certified_balls(ctx, result)}


@pytest.mark.parametrize("figure, subdivisions",
                         [(figure, n) for figure in sorted(pl.FIGURES) if figure != "fig1"
                          for n in (40, 37, 8)]
                         + [("fig1", m) for m in (4, 8, 40, 64, 1000)])
def test_covering_rows_match_every_box_oracle(desk, figure, subdivisions):
    """Rows are byte-identical to those of the loop that evaluates every
    cell, reads every boundary box and writes through box_rectangle, though
    mirror cells share one evaluation, conjugate boundary boxes share one
    and rows are written by box_strings."""
    for balls in _desk_ball_sets(desk).values():
        rows = pl.emit_plot_covering(desk.ctx, figure, subdivisions, balls)
        assert rows == oracle_plot_covering(desk.ctx, figure, subdivisions, balls)


def test_fig1_mirror_that_keeps_the_imaginary_ends_fails_the_oracle(desk, monkeypatch):
    """Negative control: a twin's images copied without negating and
    swapping their imaginary ends give rows the every-box oracle refuses."""
    monkeypatch.setattr(op, "box_conj", lambda box: box)
    balls = _desk_ball_sets(desk)["rho"]
    assert pl.emit_plot_covering(desk.ctx, "fig1", 64, balls) != \
        oracle_plot_covering(desk.ctx, "fig1", 64, balls)


def test_symmetric_graph_evaluates_each_squared_cell_once(desk, monkeypatch):
    """On a symmetric range cells j and n-1-j square to one box, so n
    subdivisions evaluate n/2 distinct boxes: fig2d over +-3.1 at 40, and
    fig2b and fig3b over their default ranges +-edge at 1000, where
    (hi - lo) j // n alone would square the two cells of a pair to
    different boxes whenever n does not divide 2 edge."""
    boxes, evaluate_box = [], op.RecursiveExtension.evaluate_box

    def counted(self, target, z, depth):
        boxes.append(z)
        return evaluate_box(self, target, z, depth)
    monkeypatch.setattr(op.RecursiveExtension, "evaluate_box", counted)
    for figure, n in (("fig2d", 40), ("fig2b", 1000), ("fig3b", 1000)):
        boxes.clear()
        rows = pl.emit_plot_covering(desk.ctx, figure, n, _certified_desk_balls(desk))
        assert len(rows) == n and len(boxes) == len(set(boxes)) == n // 2, figure
        assert all(rows[j][3:] == rows[n - 1 - j][3:] for j in range(n // 2))
        assert all(Decimal(rows[j][1]) == Decimal(rows[n - 1 - j][2]).copy_negate()
                   for j in range(n))


class _OracleEvaluator:
    """A point evaluator whose values come from the Decimal Horner oracles,
    at the box each read carries written as a Rectangle, and are read back
    as boxes; its read, disc test, reading frame and centre are the
    integer evaluator's."""

    point_evaluator = staticmethod(fb.point_evaluator)

    def __init__(self, ctx, ball):
        self.ctx, self.ball, self.exact = ctx, ball, self.point_evaluator(ctx, ball)
        self.point_scale, self.center = self.exact.point_scale, self.exact.center

    def read(self, box):
        return self.exact.read(box)

    def in_disc(self, p, strict=False):
        return self.exact.in_disc(p, strict)

    def _oracle(self, oracle, p):
        ctx, s = self.ctx, self.point_scale
        return ctx.to_box(oracle(ctx, self.ball, ctx.box_rectangle(p.box, s)), s)

    def value(self, p):
        return self._oracle(oracle_evaluate, p)

    def derivative(self, p):
        return self._oracle(oracle_evaluate_derivative, p)


@pytest.mark.parametrize("figure", ["fig2c", "fig3c", "fig4a"])
def test_recursive_covering_matches_decimal_oracle(desk, monkeypatch, figure):
    """Each row of a recursively extended covering meets the row computed
    through the Decimal oracles, and its midpoint and width are the
    oracle's up to rounding: 10**(6-P) relative, for the roundings of up to
    four levels of the functional equations."""
    balls = _certified_desk_balls(desk)
    rows = pl.emit_plot_covering(desk.ctx, figure, 25, balls)
    monkeypatch.setattr(fb, "point_evaluator", _OracleEvaluator)
    reference = pl.emit_plot_covering(desk.ctx, figure, 25, balls)
    assert len(rows) == len(reference) == 25
    for new, ref in zip(rows, reference):
        assert new[:3] == ref[:3]
        lo, hi, ref_lo, ref_hi = map(Decimal, new[3:] + ref[3:])
        assert lo <= ref_hi and ref_lo <= hi, (new, ref)
        slack = Decimal(10) ** (6 - desk.ctx.precision) * max(1, abs(ref_lo), abs(ref_hi))
        assert ref_lo - slack <= (lo + hi) / 2 <= ref_hi + slack, (new, ref)
        assert hi - lo <= ref_hi - ref_lo + slack, (new, ref)


@pytest.mark.parametrize("figure", ["fig2a", "fig2b"])
def test_graph_covering_reads_each_point_once(desk, monkeypatch, figure):
    """A depth-0 graph covering reads the point 1 once, for a, lambda and
    gamma alike, then each distinct argument box once: its disc test and
    its value share the read.  fig2a has 40 of them, fig2b's 40 cells
    square to 20 (its range is symmetric)."""
    reads = recorded_reads(monkeypatch)
    rows = pl.emit_plot_covering(desk.ctx, figure, 40, _certified_desk_balls(desk))
    assert len(rows) == 40 and len(reads) == 1 + {"fig2a": 40, "fig2b": 20}[figure]


@pytest.mark.parametrize("figure, subdivisions", [("fig2a", 0), ("fig2a", -3), ("fig1", 10),
                                                  ("fig1", 2), ("fig1", 0)])
def test_plot_covering_rejects_bad_subdivisions(desk, figure, subdivisions):
    with pytest.raises(ConfigError):
        pl.emit_plot_covering(desk.ctx, figure, subdivisions, {"G": desk.param})


@pytest.mark.parametrize("argv", [["--figure", "fig2a", "--subdivisions", "0"],
                                  ["--figure", "fig2a", "--subdivisions", "-3"],
                                  ["--figure", "fig1", "--subdivisions", "10"]])
def test_cli_plot_rejects_bad_subdivisions(tmp_path, monkeypatch, capsys, argv):
    """A subdivision count no figure or not this figure takes is a usage
    error (exit 2) before the pipeline runs, and writes no CSV."""
    from renormcert import cli

    def no_pipeline(cfg):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(pl, "run_pipeline", no_pipeline)
    with pytest.raises(SystemExit) as info:
        cli.main(["plot", *argv, "-o", str(tmp_path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--subdivisions" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_cli_plot_refuses_a_directory_as_its_csv(tmp_path, monkeypatch, capsys):
    """A covering path that is a directory is a usage error (exit 2) naming
    the path, before the pipeline runs and with nothing written."""
    from renormcert import cli

    def no_pipeline(cfg):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(pl, "run_pipeline", no_pipeline)
    (tmp_path / "fig2a.csv").mkdir()
    assert cli.main(["plot", "--figure", "fig2a", "--subdivisions", "10",
                     "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "fig2a.csv") in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["fig2a.csv"]
    assert not list((tmp_path / "fig2a.csv").iterdir())


def test_covering_csv_write_error_names_the_path(tmp_path):
    """An OSError while writing a covering CSV is a ConfigError naming the
    path: here its parent is a file."""
    (tmp_path / "file").write_text("")
    path = tmp_path / "file" / "fig2a.csv"
    with pytest.raises(ConfigError, match=str(path)):
        pl.write_covering_csv(path, [("G", "0", "1", "0", "1")])


def test_plot_covering_contains_midpoints(desk):
    """Graph rectangles contain midpoint evaluations of the eigenfunction."""
    import decimal as _dec

    balls = {"G": desk.param, "V": desk.V0, "W": desk.W0}
    rows = pl.emit_plot_covering(desk.ctx, "fig3a", 25, balls)
    with _dec.localcontext(_dec.Context(prec=40)):
        for _, x_lo, x_hi, y_lo, y_hi in rows:
            mid = (Decimal(x_lo) + Decimal(x_hi)) / 2
            val = poly_eval(desk.v0, mid)
            assert Decimal(y_lo) <= val <= Decimal(y_hi)


def test_plot_covering_csv(tmp_path, desk):
    rows = pl.emit_plot_covering(desk.ctx, "fig2b", 8, {"G": desk.param})
    path = tmp_path / "fig2b.csv"
    pl.write_covering_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "label,x_lo,x_hi,y_lo,y_hi"
    assert len(lines) == 9


def test_cli_report_and_digits(tmp_path, capsys):
    from renormcert import cli

    out = tmp_path / "out"
    assert cli.build_parser().parse_args(["report"]).verb == "certify"
    rc = cli.main(["report", "-N", "20",
                   "-o", str(out), "--checkpoint-dir", str(tmp_path / "ck")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "fixed_point: PASS" in text
    assert "delta: PASS" in text
    p = pl.precision_for(20)
    assert json.loads((out / "report.json").read_text())["config"]["precision"] == p
    payload = json.loads((out / "certificate_gamma.json").read_text())["certificate"]
    assert payload["config"]["precision"] == p
    rc = cli.main(["digits", str(out / "certificate_gamma.json")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "gamma" in text and "669036" not in text  # gamma digits, not delta
    assert "619036" in text.replace(" ", "").replace("\n", "")


def test_cli_digits_block_writes_the_exponent_apart(tmp_path, capsys):
    """A digit string in exponent form keeps its exponent out of the digit
    groups: the block puts it on a line of its own."""
    from renormcert import cli

    path = tmp_path / "certificate_x.json"
    path.write_text('{"certificate": {"enclosures": {"x": ["12345", "12399"]}}}')
    assert cli.main(["digits", str(path)]) == 0
    assert capsys.readouterr().out == "x: 3 certified digits\n+1.\n23\ne+4\n\n"
    assert cli.main(["digits", str(path), "--plain"]) == 0
    assert capsys.readouterr().out == "x: 3 certified digits\n1.23e+4\n"


@pytest.mark.parametrize("content", [None, "{", "[1]", '{"enclosures": {"a": ["x", "1"]}}',
                                     '{"enclosures": {"a": ["1"]}}',
                                     '{"certificate": {"enclosures": {"a": "55"}}}',
                                     '{"enclosures": {"a": {"1": 0, "2": 0}}}',
                                     '{"enclosures": {"a": [0.1, 0.1]}}',
                                     '{"a": ["0.1", "0.1"]}',
                                     '{"certificate": {"a": ["0.1", "0.1"]}}',
                                     '{"certificate": []}'])
def test_cli_digits_bad_file(tmp_path, capsys, content):
    """A missing or malformed certificate file is an error naming the file
    (exit 2), not a traceback.  An enclosure is a list of exactly two
    strings: a two-character string, a dict's two keys and two JSON
    numbers (read as binary floats) are refused, not read as endpoints.
    An object without an ``enclosures`` key is no certificate, not the
    certificate of a failed run."""
    from renormcert import cli

    path = tmp_path / "certificate_fixed_point.json"
    if content is not None:
        path.write_text(content)
    assert cli.main(["digits", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: certificate ") and str(path) in err


def test_cli_digits_of_a_failed_run(desk, tmp_path, capsys):
    """The certificate of a failed run, whose enclosures are empty, is read:
    exit 2 with the failed-run message, not a not-a-certificate error."""
    from renormcert import cli

    with pytest.raises(CertificationFailed) as info:
        ct.certify(desk.ctx, ct.Problem(0), desk.G0, "1e-13")
    path = tmp_path / "certificate_fixed_point.json"
    path.write_text(json.dumps({"certificate": info.value.certificate.to_payload()}))
    assert cli.main(["digits", str(path)]) == 2
    assert capsys.readouterr().err == "certificate has no enclosures (failed run?)\n"


@pytest.mark.parametrize("endpoint, code", [("1E-20000000", 2), ("-1E+20000000", 2),
                                            ("1E-10000", 0)])
def test_cli_digits_refuses_an_endpoint_too_long_to_write(tmp_path, capsys, endpoint, code):
    """An enclosure endpoint with more than MAX_ENDPOINT_DIGITS digits
    before or after the point is refused before any digit string is built:
    exit 2, the file named, nothing printed.  One at the bound prints."""
    from renormcert import cli

    path = tmp_path / "certificate_fixed_point.json"
    path.write_text(json.dumps({"certificate": {"enclosures": {"a": [endpoint, endpoint]}}}))
    assert cli.main(["digits", str(path), "--plain"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and str(path) in captured.err
        assert f"more than {fb.MAX_ENDPOINT_DIGITS} digits" in captured.err
    else:
        assert captured.out == "a: 1 certified digits\n0." + "0" * 9999 + "1\n"


@pytest.mark.parametrize("plain", [False, True])
def test_cli_digits_without_certified_digit(tmp_path, capsys, plain):
    """An enclosure with no certified digit prints its count and no digit
    block, in both layouts."""
    from renormcert import cli

    path = tmp_path / "certificate_fixed_point.json"
    path.write_text('{"enclosures": {"a": ["1", "2"]}}')
    assert cli.main(["digits", str(path)] + ["--plain"] * plain) == 0
    assert capsys.readouterr().out == "a: 0 certified digits\n"


def test_cli_certify_runs_without_numpy(tmp_path):
    """The runtime needs no numpy: a desk certify run with the import blocked
    bootstraps and passes all three targets with their desk digit counts."""
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from renormcert import cli\n"
            "sys.exit(cli.main(['certify', '-N', '20']))")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(pl.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    counts = {line.split(":")[0]: line.split()[1] for line in out.stdout.splitlines()
              if "certified digits" in line}
    assert counts == {"a": "15", "alpha": "15", "delta": "10", "gamma": "11"}


def test_cli_approx_writes_every_checkpoint(tmp_path, monkeypatch, capsys):
    """The approx verb writes the three approximate zeros and nothing else,
    and a certify run on the same directory reads them instead of
    recomputing them, with the certificates of a fresh run."""
    from renormcert import cli

    fresh = pl.run_pipeline(pl.RunConfig(degree=20))
    ck = tmp_path / "ck"
    assert cli.main(["approx", "-N", "20", "--checkpoint-dir", str(ck)]) == 0
    names = ("g0", "delta0", "gamma0")
    assert sorted(p.name for p in ck.iterdir()) == \
        sorted(f"{x}_n20_p{fresh.config.precision}.txt" for x in names)

    def refuse(*args, **kwargs):
        raise AssertionError("approximate zero recomputed instead of read")

    monkeypatch.setattr(ax, "confirm_fixed_point", refuse)
    monkeypatch.setattr(ax, "fixed_point_ladder", refuse)
    monkeypatch.setattr(ax, "eigenpair_from_view", refuse)
    out = tmp_path / "out"
    assert cli.main(["certify", "-N", "20", "-o", str(out),
                     "--checkpoint-dir", str(ck)]) == 0
    for name, cert in fresh.certificates.items():
        data = json.loads((out / f"certificate_{name}.json").read_text())
        assert data["certificate"] == json.loads(json.dumps(cert.to_payload()))


def test_cli_approx_builds_no_frozen_map(tmp_path, monkeypatch):
    """The approx verb writes the three checkpoints without building a
    frozen map: the maps belong to the certificates.  The one build_lambda
    is refused under each name it is bound to."""
    from renormcert import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the approx verb built a frozen map")

    assert ax.build_lambda is ct.build_lambda
    for module in (ax, ct):
        monkeypatch.setattr(module, "build_lambda", refuse)
    ck = tmp_path / "ck"
    assert cli.main(["approx", "-N", "20", "--checkpoint-dir", str(ck)]) == 0
    assert sorted(p.name for p in ck.iterdir()) == \
        sorted(f"{x}_n20_p{pl.precision_for(20)}.txt" for x in ("g0", "delta0", "gamma0"))


def test_old_map_file_is_never_read(desk, tmp_path):
    """A frozen-map file left in a checkpoint directory by an older run is
    ignored: garbage there does not change the certificate."""
    cfg = pl.RunConfig(degree=20, precision=30, targets=("fixed_point",))
    fresh = pl.run_pipeline(cfg).certificates["fixed_point"].to_payload()
    (tmp_path / "g0_n20_p30.txt").write_text(fb.serialize_ball(desk.G0))
    (tmp_path / "lambda_fixed_n20_p30.txt").write_text("renormcert-lambda v1\ndim x\n")
    cfg = replace(cfg, checkpoint_dir=str(tmp_path))
    assert pl.run_pipeline(cfg).certificates["fixed_point"].to_payload() == fresh


@pytest.fixture(scope="module")
def desk_all_targets():
    return pl.run_pipeline(pl.RunConfig(degree=20, precision=30))


#: the three desk centres (N=20, P=30) in renormcert-ball v1 form, as the
#: version whose bootstrap held Decimal coefficients wrote them: P
#: significant digits, so small coefficients have digits below 10**-36, and
#: some endpoints end in zeros, which the integer form does not keep
V1_CENTRES = Path(__file__).parent / "data" / "desk_centres_v1"
#: the centres this bootstrap makes at N=20, P=30, in the same v1 layout:
#: Decimal strings at its scale 10**-36, trailing zeros kept
V1_GRID_CENTRES = Path(__file__).parent / "data" / "desk_centres_v1_grid"


def _certify_from_copy(centres, tmp_path, monkeypatch):
    """The desk run certified from a copy of the centres in the directory
    ``centres``, with every function defined in approx and its midpoint
    engine refused, so the certificate stages run no approx numerics.
    Checks that each file loads, round-trips and is left as it was, and
    returns the result and the balls loaded from the files."""
    ck = tmp_path / "ck"
    shutil.copytree(centres, ck)

    def refuse(*args, **kwargs):
        raise AssertionError("a certificate run called into the approx numerics")

    for name, obj in vars(ax).items():
        if inspect.isfunction(obj) and obj.__module__ == ax.__name__:
            monkeypatch.setattr(ax, name, refuse)
    monkeypatch.setattr(ax, "_MidShared", refuse)
    result = pl.run_pipeline(pl.RunConfig(degree=20, precision=30, checkpoint_dir=str(ck)))
    loaded, rewritten = {}, 0
    for name, key in pl._CENTRES.values():
        text = (centres / f"{name}_n20_p30.txt").read_text()
        assert (ck / f"{name}_n20_p30.txt").read_text() == text
        loaded[key] = fb.deserialize_ball(text)
        again = fb.serialize_ball(loaded[key])
        assert fb.serialize_ball(fb.deserialize_ball(again)) == again
        rewritten += again != text
    assert rewritten
    return result, loaded


def test_v1_checkpoints_certify_as_a_fresh_run(desk_all_targets, tmp_path, monkeypatch):
    """This bootstrap's centres in the v1 layout load to the fresh centres,
    read every centre, recompute none and rewrite none, and give the fresh
    run's certificates, input checksums included, and digits; each text
    differs from the one written now only in the digit layout."""
    result, loaded = _certify_from_copy(V1_GRID_CENTRES, tmp_path, monkeypatch)
    fresh = desk_all_targets
    assert result.report["certificates"] == fresh.report["certificates"]
    assert result.report["digits"] == fresh.report["digits"]
    for key, ball in loaded.items():
        assert fb.serialize_ball(ball) == fb.serialize_ball(fresh.balls[key])


def test_v1_checkpoints_of_the_decimal_bootstrap_certify_the_same_digits(
        desk_all_targets, tmp_path, monkeypatch):
    """Centres written by the version whose bootstrap held Decimal
    coefficients, with digits below this bootstrap's scale, still load,
    round-trip and certify, reading every centre and recomputing none, to
    the fresh run's digit strings (15/15/10/11); their centres are not the
    fresh ones, so neither are the certificates' checksums."""
    result, loaded = _certify_from_copy(V1_CENTRES, tmp_path, monkeypatch)
    fresh = desk_all_targets
    assert result.report["digits"] == fresh.report["digits"]
    assert [d["count"] for d in result.report["digits"].values()] == [15, 15, 10, 11]
    assert sorted(result.report["certificates"]) == sorted(fresh.report["certificates"])
    for key, ball in loaded.items():
        assert fb.serialize_ball(ball) != fb.serialize_ball(fresh.balls[key])
        assert fb.serialize_ball(result.balls[key]) == fb.serialize_ball(ball)


def test_certified_fixed_point_ball_is_the_parameter_ball(desk_all_targets):
    """The certified G of an all-target run is the ball the eigen stages
    built their tables on: the centre inflated by the fixed point's proven
    radius, formed by the same rule as V and W."""
    result = desk_all_targets
    balls = pl.certified_balls(RoundingContext(30), result)
    assert sorted(balls) == ["G", "V", "W"]
    assert balls["G"] == result.balls["parameter"]


@pytest.mark.parametrize("target, centre, missing", [("delta", "delta0", "gamma"),
                                                     ("gamma", "gamma0", "delta")])
def test_one_eigen_target_alone(desk_all_targets, target, centre, missing):
    """An eigen target run without the other certifies the payload of the
    all-target run, whose input checksums name its own inputs only, and
    the run holds nothing of the missing target."""
    cfg = pl.RunConfig(degree=20, precision=30, targets=("fixed_point", target))
    result = pl.run_pipeline(cfg)
    report = result.report
    expected = desk_all_targets.report["certificates"][target]
    assert sorted(expected["config"]["input_checksums"]) == sorted(["g0", centre])
    assert report["certificates"][target] == expected
    assert list(report["certificates"]) == ["fixed_point", target]
    assert sorted(report["timings"]) == sorted(
        ["approx", "fixed_point", "parameter_ball", target])
    assert sorted(report["digits"]) == sorted(["a", "alpha", target])
    assert missing not in report["digits"] and missing + "0" not in report["checksums"]
    own = {"delta": "V0", "gamma": "W0"}
    assert sorted(result.balls) == sorted(["G0", "parameter", own[target]])
    assert sorted(pl.certified_balls(RoundingContext(30), result)) == \
        sorted(["G", own[target][0]])


def test_fixed_point_payload_does_not_depend_on_the_target_set(desk_all_targets):
    """The fixed-point certificate of a run without eigen targets is the one
    of the all-target run, byte for byte: its input checksums name g0 only."""
    alone = pl.run_pipeline(pl.RunConfig(precision=30, targets=("fixed_point",))).report
    payload = alone["certificates"]["fixed_point"]
    assert list(payload["config"]["input_checksums"]) == ["g0"]
    assert json.dumps(payload) == json.dumps(
        desk_all_targets.report["certificates"]["fixed_point"])


def test_cli_plot(tmp_path, capsys):
    from renormcert import cli

    rc = cli.main(["plot", "--figure", "fig2a", "--subdivisions", "12",
                   "-N", "20", "-o", str(tmp_path),
                   "--checkpoint-dir", str(tmp_path / "ck")])
    assert rc == 0
    assert (tmp_path / "fig2a.csv").exists()


@pytest.mark.parametrize("figure, targets, key, centre, target", [
    ("fig3a", "fixed_point,delta,gamma", "V", "delta0", "delta"),
    ("fig2a", "fixed_point", "G", "g0", "fixed_point"),
])
def test_cli_plot_covers_ball_boundary(tmp_path, monkeypatch, figure, targets, key, centre,
                                       target):
    """The plot covers members at the boundary of the certified ball, the
    Newton step Phi(x0) + B(0, kappa r): its midpoints moved by its
    radius and error bound along e_0 and e_N and by its high-order bound
    along e_(N+1), not only the centre.  That ball's
    coefficient 0 lies within the proven radius r of the centre x0's."""
    from helpers import eval_member
    from renormcert import cli

    seen = {}
    emit = pl.emit_plot_covering

    def spy(ctx, fig, subdivisions, balls):
        seen.update(balls, ctx=ctx)
        return emit(ctx, fig, subdivisions, balls)

    monkeypatch.setattr(pl, "emit_plot_covering", spy)
    out, ck = tmp_path / "out", tmp_path / "ck"
    assert cli.main(["plot", "--figure", figure, "--subdivisions", "16", "--targets", targets,
                     "-N", "20", "-o", str(out), "--checkpoint-dir", str(ck)]) == 0
    payload = json.loads((out / f"certificate_{target}.json").read_text())["certificate"]
    radius = min(Decimal(payload["rho"]), Decimal(payload["posterior_radius"]))
    center = fb.deserialize_ball((ck / f"{centre}_n20_p{pl.precision_for(20)}.txt").read_text())
    ball = seen[key]
    assert Decimal(payload["step_radius"]) <= ball.v_err
    exact = decimal.Context(prec=200)
    c0 = center.coeffs[0].re
    assert Interval(exact.subtract(c0.lo, radius),
                    exact.add(c0.hi, radius)).contains_interval(ball.coeffs[0].re)
    rows = (out / f"{figure}.csv").read_text().splitlines()[1:]
    points = sorted({Decimal(v) for row in rows for v in row.split(",")[1:3]})
    n = center.truncation
    for k in (0, n):
        for sign in (1, -1):
            member = {j: Decimal(m).scaleb(-ball.scale, exact) for j, m in enumerate(ball.mid)}
            edge = exact.add(ball.v_err, Decimal(ball.rad).scaleb(-ball.scale, exact))
            member[k] = exact.add(member.get(k, 0), exact.multiply(sign, edge))
            member[n + 1] = exact.multiply(sign, ball.v_high)
            for x in points:
                val = eval_member(member, x, 60)
                assert fb.evaluate(seen["ctx"], ball, rectangle(x)).re.contains(val)
            for row in rows:
                _, x_lo, x_hi, y_lo, y_hi = row.split(",")
                for x in (Decimal(x_lo), Decimal(x_hi)):
                    val = eval_member(member, x, 60)
                    assert Decimal(y_lo) <= val <= Decimal(y_hi)


@pytest.mark.parametrize("verb", ["approx", "certify", "plot"])
def test_cli_has_no_workers_flag(capsys, monkeypatch, verb):
    """The process count is worked out, not asked for: --workers is a usage
    error (exit 2), not a traceback, and RENORMCERT_WORKERS is not read."""
    from renormcert import cli

    monkeypatch.setenv("RENORMCERT_WORKERS", "two")
    monkeypatch.setattr(pl, "run_pipeline", lambda cfg: pytest.fail("the pipeline ran"))
    monkeypatch.setattr(pl, "bootstrap", lambda cfg: pytest.fail("the bootstrap ran"))
    argv = [verb] + ["--figure", "fig1"] * (verb == "plot")
    assert cli._config_from_args(cli.build_parser().parse_args(argv)).workers == 1
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--workers", "2"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --workers 2" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["approx", "certify", "plot"])
def test_cli_has_no_rho_flag(capsys, monkeypatch, verb):
    """Every ball has radius pl.RHO, so no verb asks for one: --rho is a
    usage error (exit 2), not a traceback, and no work runs."""
    from renormcert import cli

    monkeypatch.setattr(pl, "run_pipeline", lambda cfg: pytest.fail("the pipeline ran"))
    monkeypatch.setattr(pl, "bootstrap", lambda cfg: pytest.fail("the bootstrap ran"))
    argv = [verb] + ["--figure", "fig1"] * (verb == "plot")
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--rho", "1e-8"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --rho 1e-8" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["-P", "--precision"])
@pytest.mark.parametrize("verb", ["approx", "certify", "report", "digits", "plot"])
def test_cli_has_no_precision_flag(capsys, monkeypatch, verb, flag):
    """The precision follows the degree (pl.precision_for), so no verb asks
    for one: -P and --precision are usage errors (exit 2), not tracebacks,
    and no work runs."""
    from renormcert import cli

    monkeypatch.setattr(pl, "run_pipeline", lambda cfg: pytest.fail("the pipeline ran"))
    monkeypatch.setattr(pl, "bootstrap", lambda cfg: pytest.fail("the bootstrap ran"))
    argv = [verb] + {"plot": ["--figure", "fig1"], "digits": ["cert.json"]}.get(verb, [])
    with pytest.raises(SystemExit) as info:
        cli.main(argv + [flag, "30"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} 30" in err and "Traceback" not in err


def test_cli_failure_exit_code(tmp_path, capsys):
    """At degree 15 the delta certificate fails (epsilon is 7.5e-7 at
    P(15) = 16): exit 2, the stage named on stderr, and a partial report."""
    from renormcert import cli

    rc = cli.main(["certify", "-N", "15", "-o", str(tmp_path),
                   "--checkpoint-dir", str(tmp_path / "ck")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "FAILED at stage delta" in err and "Traceback" not in err
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["partial"] is True and data["failed_stage"] == "delta"
    assert list(data["certificates"]) == ["fixed_point"]


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_cli_closed_pipe_is_silent(tmp_path, flags):
    """A reader that closes the pipe before the verb prints: nothing on
    stderr, no traceback, exit 1, whether the write that fails is a print
    (unbuffered) or the flush of the buffered output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(pl.__file__).parents[1])
    proc = subprocess.Popen([sys.executable, *flags, "-m", "renormcert.cli", "certify",
                             "--targets", "fixed_point"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=tmp_path)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""
