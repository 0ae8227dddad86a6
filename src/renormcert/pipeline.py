"""End-to-end orchestration: bootstrap, certify, extract digits, export coverings.

The pipeline order is fixed by the mathematics: the eigen problems take the
underlying map from a ball proven to contain the fixed point, so the
fixed-point certificate always runs first and its Newton step
Phi(g0) + B(0, kappa r) (contraction.Certificate.solution_ball, r the
proven radius) is the parameter ball of both eigen certificates.  No
certificate stage runs approx numerics: certify forms its own frozen map.

Every certificate runs on the ball B(x0, RHO), one radius for all three
problems at every scale.  Every certified constant, and every ball handed
to the plot coverings, is read through its certificate's Newton step from
the tighter of RHO and its a-posteriori radius, so RHO only has to be
admissible.
"""

from __future__ import annotations

import json
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import repeat
from math import isqrt
from pathlib import Path

from . import approx as ax
from . import balls as fb
from . import operators as op
from .contraction import Problem, certify as _certify
from .balls import STANDARD_DISC
from .errors import (
    ConfigError,
    MissingCertificate,
    PipelineOrderError,
    RenormcertError,
    StageFailure,
)
from .rounding import (Interval, RoundingContext, box_sqr, exact_decimal,
                       finite_decimal, interval)

__all__ = [
    "RHO",
    "RunConfig",
    "precision_for",
    "PipelineResult",
    "run_pipeline",
    "bootstrap",
    "certified_digits",
    "format_digit_block",
    "emit_plot_covering",
    "check_subdivisions",
    "check_figure_targets",
    "certified_balls",
    "write_covering_csv",
    "FIGURES",
]

#: target, in the order of its problem's power p -> (name of its approximate
#: zero in checksums and checkpoint files, key of that zero in
#: PipelineResult.balls, whose first letter keys its certified ball)
_CENTRES = {"fixed_point": ("g0", "G0"), "delta": ("delta0", "V0"),
            "gamma": ("gamma0", "W0")}
_TARGETS = tuple(_CENTRES)
REPORT_SCHEMA = "renormcert-report/1"
#: smallest degree at which the eigen bootstraps run in a pool: below it the
#: pool's start-up costs more than running them side by side saves (README)
POOL_MIN_DEGREE = 140
#: the radius of every certificate's ball.  Digits come from the
#: a-posteriori radius epsilon/(1-kappa), so RHO need only pass: 1e-7 was the
#: smallest decade the desk delta certificate passed over the parameter ball
#: g0 + B(0, r) (its epsilon was 1.53e-8; over the Newton step's ball it is
#: 4.7e-10, and gamma's 3.7e-9 would allow 1e-8), and at desk, N=40, 80, 160,
#: 320 and 640 it certified the digit strings of the per-scale radii it
#: replaced.  It adds about 5e-8 to the fixed point's kappa (ROADMAP items 3
#: and 16).
RHO = Decimal("1e-7")


# P(N) is fit to the smallest P whose four digit strings equal those of
# every higher P measured, and leaves 2 to 11 digits above it:
#     N             20  30  40  80  160  320
#     smallest P    17  24  29  55  107  209
#     P(N)          20  26  33  60  113  220
def precision_for(degree: int) -> int:
    """The working precision of a degree-N run: ceil(2N/3) + 6 digits, at least 15."""
    return max(15, -(-2 * degree // 3) + 6)


@dataclass(frozen=True)
class RunConfig:
    degree: int = 20
    #: None is precision_for(degree); only the benchmark and the tests pin one
    precision: int | None = None
    # no run reads these three (every ball has radius RHO); kept until the
    # benchmark's workloads stop passing them (ROADMAP item 1)
    rho: str = "1e-7"
    boundary_rects: int = 64
    workers: int = 1
    targets: tuple[str, ...] = _TARGETS
    output_dir: str | None = None
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.precision is None and isinstance(self.degree, int):
            object.__setattr__(self, "precision", precision_for(self.degree))
        for name in ("degree", "precision", "boundary_rects", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name}: {value!r} must be an int")
        if isinstance(self.targets, str):
            raise ConfigError(f"targets: {self.targets!r} must be a sequence of names, not a string")
        if self.degree < 4:
            raise ConfigError("degree must be >= 4")
        if self.precision < 15:
            raise ConfigError("precision must be >= 15 digits")
        if self.boundary_rects < 4 or self.boundary_rects % 4 != 0:
            raise ConfigError("boundary_rects must be >= 4 and divisible by 4")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not isinstance(self.rho, str):
            raise ConfigError(f"rho: radius {self.rho!r} must be given as a string")
        rho = finite_decimal(self.rho, "rho")
        if rho <= 0:
            raise ConfigError(f"rho: radius {self.rho!r} must be a positive number")
        if rho >= 1:
            # a = G(1) is about -0.3995, so a ball of radius 0.4 or more
            # holds a function with a = 0 and no rho >= 1 can certify
            raise ConfigError(f"rho: radius {self.rho!r} must be below 1")
        unknown = set(self.targets) - set(_TARGETS)
        if unknown:
            raise ConfigError(f"unknown targets: {sorted(unknown)}")
        if not self.targets:
            raise ConfigError("at least one target required")
        if len(set(self.targets)) != len(self.targets):
            raise ConfigError(f"targets: {list(self.targets)} names a target twice")
        for path in (self.output_dir, self.checkpoint_dir):
            if path and Path(path).exists() and not Path(path).is_dir():
                raise ConfigError(f"{path} exists and is not a directory")
        if ("delta" in self.targets or "gamma" in self.targets) \
                and "fixed_point" not in self.targets:
            raise PipelineOrderError(
                "delta/gamma certification needs the fixed-point certificate")

    def describe(self) -> dict:
        return {"degree": self.degree, "precision": self.precision,
                "targets": list(self.targets)}


@dataclass
class PipelineResult:
    config: RunConfig
    report: dict
    certificates: dict = field(default_factory=dict)
    balls: dict = field(default_factory=dict)


# -- checkpoints --------------------------------------------------------------

def _check_ball(cfg: RunConfig, ball: fb.FunctionBall):
    """A centre fits the run: a polynomial of the run's degree with no tail
    mass (epsilon needs an exact centre)."""
    if ball.truncation != cfg.degree:
        raise ConfigError(f"ball of degree {ball.truncation}, the run needs {cfg.degree}")
    if ball.v_high or ball.v_err:
        raise ConfigError("ball has tail mass, the run needs an exact centre")


def _read_checkpoint(cfg: RunConfig, target: str) -> fb.FunctionBall | None:
    """The target's checkpointed centre, or None without a checkpoint
    directory or file.  A checkpoint is outside input: one that cannot be
    read, does not parse, or does not fit the run, raises ConfigError naming
    the file."""
    path = _checkpoint_path(cfg, target)
    if path is None or not path.exists():
        return None
    with _reading(path):
        text = path.read_text()
    try:
        ball = fb.deserialize_ball(text)
        _check_ball(cfg, ball)
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from exc
    return ball


def _write_checkpoint(cfg: RunConfig, target: str, ball: fb.FunctionBall) -> fb.FunctionBall:
    """Write the target's centre to the checkpoint directory, if there is one."""
    path = _checkpoint_path(cfg, target)
    if path is not None:
        with _writing(path):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(fb.serialize_ball(ball))
    return ball


@contextmanager
def _writing(path: Path):
    """An OSError while writing ``path`` as a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextmanager
def _reading(path: Path):
    """An OSError or undecodable text while reading ``path`` as a
    ConfigError naming it."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _checkpoint_path(cfg: RunConfig, target: str) -> Path | None:
    if not cfg.checkpoint_dir:
        return None
    return Path(cfg.checkpoint_dir) / f"{_CENTRES[target][0]}_n{cfg.degree}_p{cfg.precision}.txt"


# -- digit extraction ----------------------------------------------------------

def certified_digits(enclosure: Interval) -> tuple[str, int]:
    """Longest decimal digit string valid for every member of the enclosure.

    Both endpoints must share the digit prefix when written out exactly;
    the count is the number of significant digits in that prefix.  Returns
    ("", 0) when no digit is certain.
    """
    lo, hi = enclosure.lo, enclosure.hi
    if lo == hi == 0:
        return "0", 1
    if lo < 0 < hi or lo == 0 or hi == 0:
        return "", 0
    sign = ""
    if hi < 0:
        sign = "-"
        lo, hi = hi.copy_abs(), lo.copy_abs()
    dlo, dhi = lo.as_tuple(), hi.as_tuple()
    adj_lo = dlo.exponent + len(dlo.digits) - 1
    adj_hi = dhi.exponent + len(dhi.digits) - 1
    if adj_lo != adj_hi:
        return "", 0
    adj = adj_lo
    width = max(len(dlo.digits), len(dhi.digits))
    a = list(dlo.digits) + [0] * (width - len(dlo.digits))
    b = list(dhi.digits) + [0] * (width - len(dhi.digits))
    prefix = []
    for da, db in zip(a, b):
        if da != db:
            break
        prefix.append(str(da))
    count = len(prefix)
    if count == 0:
        return "", 0
    digits = "".join(prefix)
    if adj < 0:
        text = sign + "0." + "0" * (-adj - 1) + digits
    elif count > adj:
        text = sign + digits[: adj + 1]
        if count > adj + 1:
            text += "." + digits[adj + 1:]
    else:
        mantissa = digits[0] + ("." + digits[1:] if count > 1 else "")
        text = f"{sign}{mantissa}e+{adj}"
    return text, count


#: digits per group and groups per row of :func:`format_digit_block`
_PER_GROUP, _GROUPS_PER_LINE = 10, 5


def format_digit_block(digit_string: str) -> str:
    """Grouped layout: sign and integer part, then rows of digit groups,
    then the exponent, if any, on a line of its own."""
    body = digit_string
    sign = ""
    if body.startswith(("-", "+")):
        sign, body = body[0], body[1:]
    body, e, exponent = body.partition("e")
    head, _, frac = body.partition(".")
    lines = [f"{sign or '+'}{head}."]
    groups = [frac[i:i + _PER_GROUP] for i in range(0, len(frac), _PER_GROUP)]
    for i in range(0, len(groups), _GROUPS_PER_LINE):
        lines.append(" ".join(groups[i:i + _GROUPS_PER_LINE]))
    if e:
        lines.append(e + exponent)
    return "\n".join(lines) + "\n"


# -- pipeline -----------------------------------------------------------------

@contextmanager
def _stage(report, timings, name):
    """Time the stage into ``timings``; on any exception name it in the report."""
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        report["failed_stage"] = name
        report["failure"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        timings[name] = round(time.perf_counter() - start, 6)


def bootstrap(cfg: RunConfig) -> tuple[dict, int]:
    """The approx stage: target -> approximate zero as a ball, and the
    number of processes that computed them.

    A zero is read from the checkpoint directory when present there, and
    otherwise computed and, with a checkpoint directory, written there.
    The eigen zeros read one midpoint build of g0, the fixed point's last or
    one of a checkpointed g0; from degree POOL_MIN_DEGREE on the pending ones
    run in a pool, one process per target up to the usable cores.
    """
    n, p = cfg.degree, cfg.precision
    out = {target: _read_checkpoint(cfg, target) for target in _TARGETS
           if target in cfg.targets}
    build = None
    if out["fixed_point"] is None:
        g0, build = ax.fixed_point_with_build(n, p)
        out["fixed_point"] = _write_checkpoint(cfg, "fixed_point", fb.ball_from_decimals(
            STANDARD_DISC, g0, n))
    pending = [target for target, ball in out.items() if ball is None]
    if pending and build is None:
        build = ax.midpoint_build(_centre(out["fixed_point"]), p)
    processes = min(len(pending), _usable_cores()) if pending and n >= POOL_MIN_DEGREE else 1
    for target, x0 in zip(pending, _eigen_centres(processes, pending, build, p)):
        ball = fb.ball_from_decimals(STANDARD_DISC, x0, n)
        out[target] = _write_checkpoint(cfg, target, ball)
    return out, processes


def _usable_cores() -> int:
    """The cores this process may run on: its affinity where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _eigen_centres(processes: int, targets: list[str], build, precision: int):
    """Approximate eigenfunctions of ``targets``, in target order, each read
    from the one midpoint ``build`` of g0, by a pool of ``processes`` when
    that is two or more: a pool receives the build and returns exact Decimal
    lists, so no result depends on the process count."""
    work = (_eigen_centre, targets, repeat(build), repeat(precision))
    if processes < 2:
        yield from map(*work)
        return
    # looked up at call time, as the benchmark's tracer and the tests patch
    # it; default start method (fork on Linux): a spawned worker imports the
    # package afresh, 0.4 s on a 2-core Xeon VM, one eigen bootstrap at N=160
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=processes) as pool:
        yield from pool.map(*work)


def _eigen_centre(target: str, build, precision: int) -> list[Decimal]:
    """One eigen centre; at module level, so that a pool pickles it by name."""
    return ax.eigenpair_from_build(target, build, precision)[0]


def _centre(ball: fb.FunctionBall) -> list[Decimal]:
    return [c.re.lo for c in ball.coeffs]


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Bootstrap, then certify every requested target.

    The certificates also prove that the operators are well defined on
    their balls: each builds its power tables over an inflated ball, which
    requires theta < 1 of both composition arguments
    (:func:`contraction.certify`).  A radius too wide for that fails its
    certificate stage.  On any stage failure a partial report (with the
    failed stage named) is written to the output directory before the
    error propagates wrapped in StageFailure.
    """
    ctx = RoundingContext(cfg.precision)
    report: dict = {"schema": REPORT_SCHEMA, "config": cfg.describe(),
                    "checksums": {}, "certificates": {}, "digits": {}}
    timings: dict = {}
    result = PipelineResult(config=cfg, report=report)
    try:
        with _stage(report, timings, "approx"):
            centres, processes = bootstrap(cfg)
            report["execution"] = {"workers": processes}
            for target, ball in centres.items():
                report["checksums"][_CENTRES[target][0]] = fb.ball_checksum(ball)

        tables = None
        for power, target in enumerate(_TARGETS):
            if target not in centres:
                continue
            if power and tables is None:
                with _stage(report, timings, "parameter_ball"):
                    param = result.certificates["fixed_point"].solution_ball(ctx)
                    tables = op.OperatorTables.build(ctx, param)
                    result.balls["parameter"] = param
            with _stage(report, timings, target):
                x0_ball = centres[target]
                result.balls[_CENTRES[target][1]] = x0_ball
                cert = _certify(ctx, Problem(power, tables), x0_ball, RHO,
                                config=_cert_config(cfg, target, report["checksums"]))
                result.certificates[target] = cert
                report["certificates"][target] = cert.to_payload()
                for name, enclosure in cert.enclosures.items():
                    _record_digits(report, name, enclosure)
    except RenormcertError as exc:
        report["timings"] = timings
        _write_outputs(cfg, result, partial=True)
        raise StageFailure(report.get("failed_stage", "unknown"), exc) from exc

    report["timings"] = timings
    _write_outputs(cfg, result, partial=False)
    return result


def _cert_config(cfg: RunConfig, target: str, checksums: dict) -> dict:
    """The run settings of a certificate, with the checksums of its own
    inputs: g0, and an eigen target's own centre."""
    inputs = {name: checksums[name] for name in ("g0", _CENTRES[target][0])}
    return {"degree": cfg.degree, "precision": cfg.precision, "input_checksums": inputs}


def _record_digits(report: dict, name: str, enclosure: Interval):
    text, count = certified_digits(enclosure)
    report["digits"][name] = {"digits": text, "count": count}


def _write_outputs(cfg: RunConfig, result: PipelineResult, partial: bool):
    if not cfg.output_dir:
        return
    out = Path(cfg.output_dir)
    report = dict(result.report)
    report["partial"] = partial
    # peak resident set of this process plus its largest reaped child, in MB
    peak_kb = sum(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    report["execution"] = {**report.get("execution", {}), "peak_rss_mb": round(peak_kb / 1024, 1)}
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2, default=str))
        for name, payload in report["certificates"].items():
            (out / f"certificate_{name}.json").write_text(json.dumps(
                {"certificate": payload, "execution": {"wall_time_s": report["timings"][name]}},
                indent=2))
        for name, info in report.get("digits", {}).items():
            if info["count"]:
                (out / f"digits_{name}.txt").write_text(format_digit_block(info["digits"]))


# -- plot coverings ---------------------------------------------------------------

#: figure id -> (target, x-range, extension depth); None range means the
#: real section of the domain disc (or its preimage under the squaring map)
FIGURES = {
    "fig1": ("domain_extension", None, 0),
    "fig2a": ("G", None, 0),
    "fig2b": ("g", None, 0),
    "fig2c": ("G", ("-6", "10"), 4),
    "fig2d": ("g", ("-3.1", "3.1"), 4),
    "fig3a": ("V", None, 0),
    "fig3b": ("v", None, 0),
    "fig3c": ("V", ("-3", "8"), 4),
    "fig3d": ("v", ("-2.8", "2.8"), 4),
    "fig4a": ("W", ("-3", "8"), 4),
    "fig4b": ("w", ("-2.8", "2.8"), 4),
}


def _default_range(target: str, g: fb.PointEvaluator) -> tuple[int, int]:
    """[c - r, c + r], or +-floor(sqrt(c + r)) for a lowercase target, at g's point scale."""
    c, r = g.center, g.radius
    if target.isupper():
        return c - r, c + r
    edge = isqrt((c + r) * 10 ** g.point_scale)
    return -edge, edge


def certified_balls(ctx: RoundingContext, result: PipelineResult) -> dict:
    """The balls "G", "V", "W" proven to contain the fixed point and the two
    eigenfunctions: each certificate's Newton step Phi(x0) + B(0, kappa r)
    (for G, the eigen stages' parameter ball)."""
    return {_CENTRES[target][1][0]: cert.solution_ball(ctx)
            for target, cert in result.certificates.items()}


def check_subdivisions(figure: str | None, subdivisions: int) -> None:
    """Raise ConfigError unless ``subdivisions`` suits the figure (any figure
    when None): at least 1 graph subinterval, and for fig1 a boundary
    rectangle count that is a multiple of 4 and at least 4."""
    if subdivisions < 1:
        raise ConfigError(f"subdivisions must be at least 1, got {subdivisions}")
    if figure == "fig1" and subdivisions % 4:
        raise ConfigError("fig1 subdivisions count boundary rectangles and must be "
                          f"a multiple of 4, got {subdivisions}")


def check_figure_targets(figure: str, targets) -> None:
    """Raise MissingCertificate if the figure draws an eigen ball (V or W)
    that none of ``targets`` certifies."""
    key = FIGURES[figure][0].upper()
    if key in ("V", "W") and key not in {_CENTRES[t][1][0] for t in targets}:
        raise MissingCertificate(f"figure {figure} needs the certified {key} ball")


def emit_plot_covering(ctx: RoundingContext, figure: str, subdivisions: int,
                       balls: dict) -> list[tuple[str, str, str, str, str]]:
    """Rows (label, x_lo, x_hi, y_lo, y_hi) covering the named figure's graphs.

    ``balls`` maps "G"/"V"/"W" to certified balls; fig1 uses the boundary
    coverings of the domain-extension check instead of a graph.  Each ball
    and the constants of the functional equations are prepared once for
    the whole covering (see :class:`operators.RecursiveExtension`).  A
    graph row writes its cell of the exact grid (:func:`operators.grid_points`)
    exactly and the value's box outward
    (:meth:`RoundingContext.box_strings`).  A lowercase target is evaluated
    once per distinct squared cell: on a symmetric range, cells j and
    n-1-j share one.
    """
    if figure not in FIGURES:
        raise ConfigError(f"unknown figure {figure!r}; known: {sorted(FIGURES)}")
    check_subdivisions(figure, subdivisions)
    target, x_range, depth = FIGURES[figure]
    G = balls.get("G")
    if G is None:
        raise MissingCertificate("plot coverings need the certified fixed-point ball")
    if figure == "fig1":
        res = op.check_domain_extension(ctx, G, subdivisions)
        return [(label, *ctx.box_strings(box, res.point_scale))
                for label, boxes in (("boundary", res.boundary), ("gamma1", res.gamma1),
                                     ("gamma2", res.gamma2))
                for box in boxes]
    key = target.upper()
    if balls.get(key) is None:
        raise MissingCertificate(f"figure {figure} needs the certified {key} ball")
    extension = op.RecursiveExtension.build(ctx, G, balls.get("V"), balls.get("W"))
    s = extension.G.point_scale
    if x_range is None:
        lo, hi = _default_range(target, extension.G)
    else:
        lo, hi = ctx.to_int_ends(interval(*x_range), s)
    pts = op.grid_points(lo, hi, subdivisions)
    xs = [str(exact_decimal(x, s)) for x in pts]
    ys = {}         # argument box -> the value's row ends
    rows = []
    for j in range(subdivisions):
        z = (pts[j], pts[j + 1], 0, 0)
        if target.islower():
            z = box_sqr(z, extension.unit)
        if z not in ys:
            ys[z] = ctx.box_strings(extension.evaluate_box(key, z, depth), s)[:2]
        rows.append((target, xs[j], xs[j + 1], *ys[z]))
    return rows


def write_covering_csv(path, rows) -> None:
    """Write the rows as CSV, making the parent directory if needed; an
    OSError becomes a ConfigError naming the path."""
    lines = ["label,x_lo,x_hi,y_lo,y_hi"]
    lines += [",".join(row) for row in rows]
    path = Path(path)
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
