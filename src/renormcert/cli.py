"""Batch command-line interface.

Verbs:
    approx   bootstrap approximations and write checkpoints
    certify  run the certification pipeline; with an output directory it
             writes certificates, digit files and the report (alias: report)
    digits   print certified digit strings from a certificate file
    plot     export rectangle-covering CSV data for one figure

Each flag sets one RunConfig field; nothing is read from the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import pipeline as pl
from .balls import endpoint_decimal
from .errors import ConfigError, RenormcertError, StageFailure
from .rounding import Interval, RoundingContext

__all__ = ["main", "build_parser"]


def _add_config_flags(p: argparse.ArgumentParser):
    defaults = pl.RunConfig()
    p.add_argument("--degree", "-N", type=int, default=defaults.degree,
                   help=f"polynomial truncation degree (default {defaults.degree})")
    p.add_argument("--precision", "-P", type=int, default=defaults.precision,
                   help=f"decimal digits in the significand (default {defaults.precision})")
    p.add_argument("--targets", default=",".join(defaults.targets),
                   help="comma-separated subset of " + ",".join(defaults.targets))
    p.add_argument("--output", "-o", default=defaults.output_dir, help="output directory")
    p.add_argument("--checkpoint-dir", default=defaults.checkpoint_dir,
                   help="directory for bootstrap checkpoints")


def _config_from_args(args) -> pl.RunConfig:
    return pl.RunConfig(
        degree=args.degree,
        precision=args.precision,
        targets=tuple(t.strip() for t in args.targets.split(",") if t.strip()),
        output_dir=args.output,
        checkpoint_dir=args.checkpoint_dir,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renormcert",
        description="Certified enclosures of the period-doubling universal constants")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("approx", help="bootstrap approximations and checkpoints")
    _add_config_flags(p)

    p = sub.add_parser("certify", aliases=["report"],
                       help="run the certification pipeline: certificates, digits, report")
    _add_config_flags(p)
    p.set_defaults(verb="certify")

    p = sub.add_parser("digits", help="print certified digits from a certificate")
    p.add_argument("certificate", help="path to a certificate_*.json file")
    p.add_argument("--plain", action="store_true",
                   help="print the plain digit string instead of the block layout")

    p = sub.add_parser("plot", help="export covering CSV for one figure")
    _add_config_flags(p)
    p.add_argument("--figure", required=True, choices=sorted(pl.FIGURES),
                   help="figure identifier")
    p.add_argument("--subdivisions", type=int, default=100,
                   help="graph subinterval count (fig1: boundary rectangles)")

    return parser


def _cmd_approx(args) -> int:
    import dataclasses

    cfg = _config_from_args(args)
    if cfg.checkpoint_dir is None:
        cfg = dataclasses.replace(cfg, checkpoint_dir=cfg.output_dir or ".")
    centres, _ = pl.bootstrap(cfg)
    for target, ball in centres.items():
        if target == "fixed_point":
            print(f"g0: degree {cfg.degree}, precision {cfg.precision}, "
                  f"G0(1) = {ball.coeffs[0].re.lo}")
        else:
            print(f"{target}0 = {ball.coeffs[0].re.lo}")
    print(f"checkpoints in {cfg.checkpoint_dir}")
    return 0


def _cmd_certify(args) -> int:
    cfg = _config_from_args(args)
    try:
        result = pl.run_pipeline(cfg)
    except StageFailure as exc:
        print(f"FAILED at stage {exc.stage}: {exc.__cause__}", file=sys.stderr)
        return 2
    for name, cert in result.certificates.items():
        print(f"{name}: PASS  rho={cert.rho}  epsilon={cert.epsilon}  kappa={cert.kappa}")
    for name, info in result.report["digits"].items():
        print(f"{name}: {info['count']} certified digits  {info['digits']}")
    if cfg.output_dir:
        print(f"outputs in {cfg.output_dir}")
    return 0


def _read_enclosures(path: str) -> dict:
    """The enclosures of a certificate file, name -> Interval.  A file that
    cannot be read or is not a certificate, an enclosure that is not a list
    of two strings (as ``to_payload`` writes them), or an endpoint too long
    to write out (balls.endpoint_decimal), raises ConfigError naming it."""
    try:
        data = json.loads(Path(path).read_text())
        enclosures = data.get("certificate", data).get("enclosures", {})
        for name, ends in enclosures.items():
            if not (type(ends) is list and len(ends) == 2 and all(type(e) is str for e in ends)):
                raise ValueError(f"enclosure {name} is not a list of two strings")
        return {name: Interval(endpoint_decimal(lo, name), endpoint_decimal(hi, name))
                for name, (lo, hi) in enclosures.items()}
    except OSError as exc:
        raise ConfigError(f"certificate {path}: {exc.strerror}") from None
    except (ValueError, AttributeError, TypeError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"certificate {path}: not a certificate file ({exc})") from None


def _cmd_digits(args) -> int:
    enclosures = _read_enclosures(args.certificate)
    if not enclosures:
        print("certificate has no enclosures (failed run?)", file=sys.stderr)
        return 2
    for name in sorted(enclosures):
        text, count = pl.certified_digits(enclosures[name])
        print(f"{name}: {count} certified digits")
        if count:
            print(text if args.plain else pl.format_digit_block(text), end="")
            print()
    return 0


def _cmd_plot(args) -> int:
    cfg = _config_from_args(args)
    out = Path(cfg.output_dir or ".") / f"{args.figure}.csv"
    if out.exists() and not out.is_file():
        raise ConfigError(f"{out} exists and is not a file")
    try:
        result = pl.run_pipeline(cfg)
    except StageFailure as exc:
        print(f"FAILED at stage {exc.stage}: {exc.__cause__}", file=sys.stderr)
        return 2
    ctx = RoundingContext(cfg.precision)
    rows = pl.emit_plot_covering(ctx, args.figure, args.subdivisions,
                                 pl.certified_balls(ctx, result))
    pl.write_covering_csv(out, rows)
    print(f"{len(rows)} rectangles -> {out}")
    return 0


_COMMANDS = {
    "approx": _cmd_approx,
    "certify": _cmd_certify,
    "digits": _cmd_digits,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "plot":
        try:
            pl.check_subdivisions(args.figure, args.subdivisions)
        except ConfigError as exc:
            parser.error(f"argument --subdivisions: {exc}")
    try:
        code = _COMMANDS[args.verb](args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
        return code
    except RenormcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # interpreter exit writes nothing and raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
