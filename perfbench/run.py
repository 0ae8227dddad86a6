"""Benchmark: wall time to certified digits of the period-doubling constants.

Run from the repository root:

    python3 perfbench/run.py --workload n40_serial --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it sets up (import plus the approx bootstrap, several
times), then repeats the workload's job until ``--seconds`` have passed,
checks every output, and reports the end-to-end metrics.  With
``--trace 1`` it runs a traced job, then an untraced one to measure the
tracing overhead, and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it repeat every
metric with its unit, the raw wall times, the environment and the
certificate fingerprints.  A record of the run is written under
``.perfbench_out/`` in the repository root.

End-to-end times (``wall_s``, ``setup_s``, ``cpu_s`` and the rate
``digits_per_s``) are in reference-speed seconds: measured seconds scaled
by the host speed that ``probe.SpeedProbe`` sampled during the same
interval.  Raw wall seconds are printed and recorded beside them.
"""

from __future__ import annotations

import argparse
import decimal
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: set-up repeats the bootstrap at least this often and for this long
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
#: a traced run adds its untraced reference job only if that job, taking
#: as long as the traced one, would end this soon after the start
TRACE_RUN_LIMIT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "digits_per_s": "1/s",
    "digits_min": "count", "margin_log10": "log10", "peak_rss_mb": "MB",
}

STAGES = ("approx", "domain_extension", "fixed_point", "parameter_ball", "delta", "gamma")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    from perfbench.tracing import TRACED
    units = {}
    for module, names in TRACED.items():
        for name in names:
            if module == "pipeline" and name == "run_pipeline":
                continue   # traced only as the root span of a job
            units[f"{module}.{name}.self_s"] = "s"
            units[f"{module}.{name}.calls"] = "count"
    for family in ("interval_ops", "rect_ops", "scalar_ops"):
        units[f"rounding.{family}"] = "count"
    units["rounding.imul_ns"] = "ns"
    units["rounding.rmul_ns"] = "ns"
    units["contraction.pool_bytes"] = "bytes"
    for stage in STAGES:
        units[f"pipeline.stage.{stage}_s"] = "s"
    return units


# -- environment ------------------------------------------------------------------

def cpu_clock() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def code_hash(*dirs: Path) -> str:
    """Hash of the Python sources under ``dirs``: runs with equal hashes are siblings."""
    digest = hashlib.sha256()
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


# -- state shared by sibling runs of the same code ----------------------------------

def compare_with_siblings(key: str, kind: str, value: dict) -> list[str]:
    """Compare ``value`` with what an earlier run of the same code stored.

    The first run stores its value; later runs report every entry that
    differs.  Runs are sequential, so the file needs no lock.
    """
    path = OUT / "siblings.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    entry = state.setdefault(key, {})
    if kind not in entry:
        entry[kind] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return []
    old = entry[kind]
    return [f"{kind} {k}: {old.get(k)!r} != {value.get(k)!r}"
            for k in sorted(set(old) | set(value)) if old.get(k) != value.get(k)]


# -- measurement ---------------------------------------------------------------------

def measure_setup(workload, probe, import_span, record) -> tuple[float, dict]:
    """Import time plus the median of several approx bootstraps."""
    from perfbench.workloads import bootstrap
    cfg = workload.run_config()
    spans, sums = [], {}
    while len(spans) < SETUP_REPEATS or spans[-1][1] - spans[0][0] < SETUP_MIN_S:
        started = time.perf_counter()
        sums = bootstrap(cfg)
        spans.append((started, time.perf_counter()))
    record["setup"] = {"import_s": probe.reference_seconds(*import_span),
                       "bootstrap_s": [probe.reference_seconds(*span) for span in spans]}
    return record["setup"]["import_s"] + statistics.median(record["setup"]["bootstrap_s"]), sums


def op_timings(precision: int, probe, seed: int) -> dict:
    """Reference-speed nanoseconds per interval and rectangle product."""
    from renormcert.rounding import Interval, Rectangle, RoundingContext
    ctx = RoundingContext(precision)
    gen = random.Random(0)

    def endpoint():
        digits = "".join(gen.choice("0123456789") for _ in range(precision))
        return decimal.Decimal(f"{gen.choice('-+')}0.{digits}")

    def ival():
        a, b = sorted((endpoint(), endpoint()))
        return Interval(a, b)

    real = Interval(decimal.Decimal(0), decimal.Decimal(0))
    ivals = [(ival(), ival()) for _ in range(400)]
    # half the products have a real left factor, as most pipeline products do
    rects = [(Rectangle(ival(), ival() if k % 2 else real), Rectangle(ival(), ival()))
             for k in range(400)]
    random.Random(seed).shuffle(ivals)
    random.Random(seed).shuffle(rects)
    out = {}
    for name, op, pairs in (("imul", ctx.imul, ivals), ("rmul", ctx.rmul, rects)):
        samples = []
        for _ in range(15):
            started = time.perf_counter()
            for x, y in pairs:
                op(x, y)
            samples.append(probe.reference_seconds(started, time.perf_counter()) * 1e9 / len(pairs))
        out[name] = statistics.median(samples)
    return out


def end_to_end(jobs, probe, setup_s: float) -> dict:
    ok = [j for j in jobs if not j.failures] or jobs
    times = [(probe.reference_seconds(j.start, j.end),
              probe.reference_seconds(j.start, j.end, j.cpu_s)) for j in jobs]
    return {
        "wall_s": statistics.median(wall for wall, _ in times),
        "setup_s": setup_s,
        "cpu_s": statistics.median(cpu for _, cpu in times),
        "digits_per_s": statistics.median(
            j.digits_min / wall for j, (wall, _) in zip(jobs, times)),
        "digits_min": min(j.digits_min for j in ok),
        "margin_log10": min(j.margin_log10 for j in ok),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, job, workload, probe, seed: int) -> dict:
    """Per-layer metrics of a traced job; times scaled by the job's host speed."""
    from perfbench.tracing import self_times
    speed = probe.speed(job.start, job.end)
    selfs = self_times(tracer.finished_spans())
    values = {}
    for name in per_layer_units():
        label, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = selfs.get(label, 0.0) * speed
        elif stat == "calls":
            values[name] = tracer.calls.get(label, 0)
    for family in ("interval_ops", "rect_ops", "scalar_ops"):
        values[f"rounding.{family}"] = tracer.ops.get(family, 0)
    for op, ns in op_timings(workload.config["precision"], probe, seed).items():
        values[f"rounding.{op}_ns"] = ns
    values["contraction.pool_bytes"] = tracer.pool_bytes
    for stage in STAGES:
        values[f"pipeline.stage.{stage}_s"] = job.timings.get(stage, 0.0) * speed
    return values


# -- main ------------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package_dir = ROOT / "src" / "renormcert"
    if not (package_dir / "__init__.py").is_file():
        print(f"perfbench: no renormcert sources under {package_dir.parent}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.probe import SpeedProbe
    load_before = os.getloadavg()
    with SpeedProbe() as probe:
        started = time.perf_counter()
        import renormcert  # noqa: F401  (timed: part of set-up)
        import renormcert.pipeline  # noqa: F401
        import_span = (started, time.perf_counter())
        if Path(renormcert.__file__).resolve().parent != package_dir.resolve():
            print(f"perfbench: renormcert imported from {renormcert.__file__}", file=sys.stderr)
            return 2
        from perfbench.workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; "
                  f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        OUT.mkdir(exist_ok=True)
        sibling_key = f"{code_hash(package_dir, ROOT / 'perfbench')}:{args.workload}"
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        workload = WORKLOADS[args.workload]
        if args.trace:
            jobs, metrics, counts = measure_traced(args, workload, probe, started)
            problems = compare_with_siblings(sibling_key, "counts", counts)
            record["tracing_overhead_s"] = None if len(jobs) < 2 else (
                probe.reference_seconds(jobs[0].start, jobs[0].end)
                - probe.reference_seconds(jobs[1].start, jobs[1].end))
        else:
            jobs, metrics, problems = measure_end_to_end(args, workload, probe, import_span,
                                                         record)
    units = per_layer_units() if args.trace else END_TO_END_UNITS

    prints = {json.dumps(j.fingerprints, sort_keys=True) for j in jobs if not j.failures}
    if len(prints) > 1:
        problems.append("certificate fingerprints differ between jobs of one run")
    elif prints:
        flat = {f"{kind}.{k}": v for kind, fp in json.loads(prints.pop()).items()
                for k, v in fp.items()}
        problems += compare_with_siblings(sibling_key, "fingerprints", flat)

    attempted = sum(j.attempted for j in jobs)
    failures = [f for j in jobs for f in j.failures]
    load_after = os.getloadavg()
    record.update({
        "env": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                "python": platform.python_version(),
                "libmpdec": decimal.__libmpdec_version__,
                "loadavg_before": load_before, "loadavg_after": load_after},
        "jobs": [{"raw_wall_s": j.wall_s, "raw_cpu_s": j.cpu_s,
                  "host_speed": probe.speed(j.start, j.end), "digits": j.digits,
                  "margin_log10": j.margin_log10, "rows": j.rows, "timings": j.timings,
                  "failures": j.failures} for j in jobs],
        "fingerprints": jobs[0].fingerprints, "problems": problems, "metrics": metrics,
    })
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    env = record["env"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} job(s), {attempted} certificates and coverings attempted")
    for name, value in metrics.items():
        print(f"  {name:46s} {value:>14.6g} {units[name]}")
    print(f"  {'fail_ratio':46s} {len(failures) / attempted:>14.6g} ratio")
    for job in record["jobs"]:
        print(f"  job: raw wall {job['raw_wall_s']:.3f} s, raw cpu {job['raw_cpu_s']:.3f} s, "
              f"host speed {job['host_speed']:.3f} of reference")
    if args.trace:
        overhead = record["tracing_overhead_s"]
        print("  tracing overhead " + ("not measured: no time left for the untraced job"
                                       if overhead is None else f"{overhead:.3f} s")
              + " (traced minus untraced job, reference seconds); "
              "spans inside pool workers are not recorded")
    print(f"env nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"libmpdec={env['libmpdec']} load {load_before[0]:.2f} -> {load_after[0]:.2f}")
    for kind, fp in jobs[0].fingerprints.items():
        print(f"certificate {kind}: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    for line in failures + problems:
        print(f"FAIL {line}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def measure_end_to_end(args, workload, probe, import_span, record):
    """Set up several times, then repeat the job for the measured seconds."""
    from perfbench.workloads import run_job
    setup_s, sums = measure_setup(workload, probe, import_span, record)
    jobs = []
    measure_start = time.perf_counter()
    while not jobs or time.perf_counter() - measure_start < args.seconds:
        jobs.append(run_job(workload, args.seed + len(jobs), cpu_clock))
    problems = []
    if jobs[0].checksums and jobs[0].checksums != sums:
        problems.append("set-up bootstrap differs from the pipeline's approx stage")
    return jobs, end_to_end(jobs, probe, setup_s), problems


def measure_traced(args, workload, probe, run_start: float):
    """A traced job, then an untraced one if time allows; per-layer metrics
    of the traced job and the counts that must repeat in a sibling run."""
    from perfbench.tracing import Tracer
    from perfbench.workloads import run_job
    with Tracer() as tracer:
        traced = run_job(workload, args.seed, cpu_clock)
    jobs = [traced]
    if traced.end + traced.wall_s - run_start < TRACE_RUN_LIMIT_S:
        jobs.append(run_job(workload, args.seed, cpu_clock))
    metrics = per_layer(tracer, traced, workload, probe, args.seed)
    counts = {k: v for k, v in metrics.items()
              if k.endswith((".calls", "_ops", "pool_bytes"))}
    (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans,
         "unseen": "spans inside process-pool workers are not recorded"}))
    return jobs, metrics, counts


if __name__ == "__main__":
    sys.exit(main())
