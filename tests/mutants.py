"""Rigor mutants: hand-made faults in the lines every enclosure rests on.

Each mutant replaces one piece of source text by a wrong one: a bound, a
radius or a tail that comes out too small, or a rounding that goes the
wrong way.  The script first runs a tier-1 subset on an unmutated copy of
``src/`` and ``tests/`` in a temporary directory, which must pass; then it
applies each mutant to a fresh copy and runs the subset there.  A mutant is
killed only when a test fails (pytest exit status 1): a copy that does not
import, collect or run kills nothing.  A mutant whose text no longer occurs
in the source once is reported as stale, so the list follows the code.

    python tests/mutants.py

Exit status 0 when the unmutated subset passes and every mutant is killed,
1 otherwise.  To rerun one mutant, cut MUTANTS down to it.  One mutant
costs one subset run: under a second when the first test kills it, about
30 s on a 2-core VM when it survives to the end.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: the tier-1 files a mutant runs against: all but the midpoint engine's
#: and the end-to-end acceptance tests, whose faults these do not reach
SUBSET = ("tests/test_contraction.py", "tests/test_operators.py", "tests/test_balls.py",
          "tests/test_kernels.py", "tests/test_rounding.py", "tests/test_pipeline.py")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    breaks: str


MUTANTS = (
    Mutant("tail_theta_power", "src/renormcert/contraction.py",
           "ctx.pow_up(theta, k + 1)", "ctx.pow_up(theta, k + 2)",
           "the kappa tail bound with theta**(K+2): kappa too small"),
    Mutant("tail_lambda_norm", "src/renormcert/contraction.py",
           "ctx.add_up(head, ctx.mul_up(lambda_norm_upper(ctx, lam), total))",
           "ctx.add_up(head, total)",
           "the kappa tail bound without ||Lam||: kappa too small"),
    Mutant("guard_rows", "src/renormcert/balls.py",
           "ctx.add_up(self.v_spill[k], ctx.scaled_up(guard, s))", "self.v_spill[k]",
           "a baby power drops its guard rows' mass from v_high"),
    Mutant("column_diagonal", "src/renormcert/contraction.py",
           "image.mid[k] -= 10 ** image.scale", "image.mid[k] -= 10 ** image.scale + image.rad",
           "a kappa column's diagonal midpoint moved by its radius"),
    Mutant("kappa_phi_tail", "src/renormcert/contraction.py",
           "ctx.mul_up(_row0_upper(ctx, lam), total))", "_D0)",
           "kappa_phi without its part above the head"),
    Mutant("kappa_phi_columns", "src/renormcert/contraction.py",
           "kappa_phi=max(columns_phi, tail_phi)", "kappa_phi=tail_phi",
           "kappa_phi without the columns' part"),
    Mutant("kappa_phi_error_part", "src/renormcert/contraction.py",
           "row0 = max(row0, ctx.add_up(top, ctx.mul_up(lam_row0, column.v_err)))",
           "row0 = max(row0, top)",
           "coefficient 0 of a kappa column without its error part"),
    Mutant("row0_down", "src/renormcert/contraction.py",
           "return ctx.scaled_up(_row0(lam), lam.scale)",
           "return ctx.scaled_dn(_row0(lam), lam.scale)",
           "max_j |Lam_0j| rounded down"),
    Mutant("newton_phi_error", "src/renormcert/contraction.py",
           "ctx.mul_up(_row0_upper(ctx, lam), residual.v_err))", "_D0)",
           "phi(Phi(x0)) without the row-0 readout of F(x0)'s error part"),
    Mutant("inverse_error", "src/renormcert/operators.py",
           "a_inv_err = _inverse_err(ctx, a, e)", "a_inv_err = _D0",
           "a**-1 of the tables without its error part"),
    Mutant("square_error", "src/renormcert/operators.py",
           "a2 = _scalar(n, ctx.isqr(a), _square_err(ctx, a, e))",
           "a2 = _scalar(n, ctx.isqr(a), _D0)",
           "a**2 of the affine argument without its error part"),
    Mutant("twice_a_error", "src/renormcert/operators.py",
           "ctx.mul_up(_D2, s.a_err)", "_D0",
           "2a of factor17 without its error part"),
    Mutant("coefficient_error_part", "src/renormcert/balls.py",
           "Interval(ctx.scaled_dn((m - r) * lift - e, s),\n"
           "                              ctx.scaled_up((m + r) * lift + e, s))",
           "Interval(ctx.scaled_dn((m - r) * lift, s),\n"
           "                              ctx.scaled_up((m + r) * lift, s))",
           "a coefficient's interval without the error part"),
    Mutant("newton_radius", "src/renormcert/contraction.py",
           "ctx.mul_up(cert.kappa_phi, r))", "_D0)",
           "an enclosure read at Phi(x0) without kappa_phi r"),
    Mutant("solution_ball_radius", "src/renormcert/contraction.py",
           "parts = (newton.v_err, step)", "parts = (newton.v_err,)",
           "the solution ball's error part without kappa r"),
    Mutant("solution_ball_shift", "src/renormcert/contraction.py",
           "total = shift + newton.rad * un", "total = newton.rad * un",
           "the solution ball's error part without the distance of Phi(x0) from x0"),
    Mutant("lambda_radius_norm", "src/renormcert/contraction.py",
           "fb.IntBall(mid, lam.norm * b.rad,", "fb.IntBall(mid, b.rad,",
           "Lam applied to a radius without ||Lam||"),
    Mutant("kappa_phi_column_radius", "src/renormcert/contraction.py",
           "abs(image.mid[0]) + _row0(lam) * column.rad", "abs(image.mid[0])",
           "coefficient 0 of a kappa column without the row-0 readout of its radius"),
    Mutant("lambda_error_norm", "src/renormcert/contraction.py",
           "ctx.mul_up(b.v_err, lambda_norm_upper(ctx, lam))", "b.v_err",
           "Lam applied to an error part without ||Lam||"),
    Mutant("mul_spill", "src/renormcert/balls.py",
           "v_high = ctx.scaled_up(spill, f.scale + g.scale)", "v_high = _D0",
           "a product drops its mass above N"),
    Mutant("outward_radius", "src/renormcert/balls.py",
           "-(-(b.rad + sum(rem for _, rem in qr)) // unit)", "b.rad // unit",
           "int_outward floors the radius and drops the midpoints' remainders"),
    Mutant("block_nearest", "src/renormcert/balls.py",
           "block = int_outward(ctx, self._block(ctx, fm[i:i + m], sf), d)",
           "block = self._block(ctx, fm[i:i + m], sf); "
           "c = max(_cut(ctx, block, d), 0); "
           "block = IntBall([(x + (10 ** c >> 1)) // 10 ** c for x in block.mid], "
           "-(-block.rad // 10 ** c), block.scale - c, block.v_high, block.v_err)",
           "a composition block rounded to nearest, its remainder not in its radius"),
    Mutant("mul_radius_norm", "src/renormcert/balls.py",
           "rad = nf * g.rad + f.rad * (ng + g.rad)", "rad = nf * g.rad + f.rad * g.rad",
           "int_mul's radius without rad_f ||g_P||"),
    Mutant("sqr_cross_pairs", "src/renormcert/balls.py",
           "s = 2 * sum(map(_imul, a[lo:hi]", "s = sum(map(_imul, a[lo:hi]",
           "the exact square counts each cross pair a_i a_j once, not twice"),
    Mutant("sqr_diagonal", "src/renormcert/balls.py",
           "out.append(s if k & 1 else s + a[k >> 1] * a[k >> 1])", "out.append(s)",
           "the exact square without its diagonal terms a_(k/2)**2"),
    Mutant("conv_constant_last", "src/renormcert/balls.py",
           "out = [b0 * x for x in a[:min(size, la)]]",
           "out = [b0 * x for x in a[:min(size, la) - 1]]",
           "a constant times a sequence drops its last coefficient"),
    Mutant("sqr_radius_square", "src/renormcert/balls.py",
           "f.rad * (ng + g.rad)", "f.rad * ng",
           "a product's radius without rad_f rad_g, so a ball square's without rad_f**2"),
    Mutant("compose_radius", "src/renormcert/balls.py",
           "int_add(ctx, out, IntBall([], p.rad, p.scale, _D0, _D0))",
           "int_add(ctx, out, IntBall([], 0, p.scale, _D0, _D0))",
           "a composition drops the composed ball's own radius"),
    Mutant("point_pad_radius", "src/renormcert/balls.py",
           "\n                          + -(-f.rad * 10 ** point_scale // 10 ** f.scale))", ")",
           "the PointEvaluator's tail pad without the ball's radius"),
    Mutant("compose_high_tail", "src/renormcert/balls.py",
           "ctx.mul_up(f.v_high, ctx.pow_up(th, f.truncation + 1))",
           "ctx.mul_up(f.v_high, ctx.pow_up(th, f.truncation + 2))",
           "a composition's high tail with theta**(N+2)"),
    Mutant("horner_upper_shift", "src/renormcert/balls.py",
           "-(-rh * (uh if rh >= 0 else ul) >> bits) + ch)",
           "(rh * (uh if rh >= 0 else ul) >> bits) + ch)",
           "pointwise Horner floors an upper end"),
    Mutant("scaled_dn_ceil", "src/renormcert/rounding.py",
           "value //= 10 ** cut", "value = -(-value // 10 ** cut)",
           "scaled_dn (and so scaled_up) rounds the wrong way"),
    Mutant("imul_straddle", "src/renormcert/rounding.py",
           "        return b * c, b * d\n    if b <= 0:", "        return a * c, b * d\n    if b <= 0:",
           "an interval product [a, b] [c, d] with a >= 0 > c, d > 0 takes the wrong lower end"),
    Mutant("isqr_straddle", "src/renormcert/rounding.py",
           "return 0, max(a * a, b * b)", "return min(a * a, b * b), max(a * a, b * b)",
           "the square of an interval about 0 loses 0"),
    Mutant("lambda_norm_down", "src/renormcert/contraction.py",
           "return ctx.scaled_up(lam.norm, lam.scale)", "return ctx.scaled_dn(lam.norm, lam.scale)",
           "lambda_norm_upper rounds ||Lam|| down"),
    Mutant("ceil_at_floors", "src/renormcert/rounding.py",
           "return -floor_at(x.copy_negate(), scale)", "return floor_at(x, scale)",
           "ceil_at rounds down"),
    Mutant("box_inv_upper", "src/renormcert/rounding.py",
           "return one // hi, -(-one // lo), 0, 0", "return one // hi, one // lo, 0, 0",
           "box_inv floors its upper end"),
    Mutant("companion_upper", "src/renormcert/operators.py",
           "root + (root * root < top)", "root",
           "_companion floors the upper end of the boundary cover's sqrt(1 - t**2)"),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _subset(dest: Path) -> int:
    """pytest's exit status for the subset run in the copy at ``dest``."""
    env = {**os.environ, "PYTHONPATH": str(dest / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *SUBSET], cwd=dest, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=1800).returncode


def run(mutant: Mutant | None, work: Path) -> str:
    """'killed' (a test failed), 'survived' (the subset passed), 'broken'
    (pytest stopped for another reason) or 'stale' (the text to replace
    occurs other than once).  ``None`` runs the unmutated copy."""
    dest = work / (mutant.name if mutant else "unmutated")
    _copy(dest)
    if mutant:
        path = dest / mutant.path
        text = path.read_text()
        if text.count(mutant.old) != 1:
            shutil.rmtree(dest)
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new))
    status = _subset(dest)
    shutil.rmtree(dest)
    return {0: "survived", 1: "killed"}.get(status, "broken")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="renormcert-mutants-") as tmp:
        work = Path(tmp)
        baseline = run(None, work)
        if baseline != "survived":
            print(f"the unmutated subset does not pass ({baseline}): no mutant can be judged")
            return 1
        verdicts = {}
        for m in MUTANTS:
            verdicts[m.name] = run(m, work)
            print(f"{verdicts[m.name]:8s} {m.name}: {m.breaks}", flush=True)
    bad = [name for name, verdict in verdicts.items() if verdict != "killed"]
    print(f"{len(verdicts) - len(bad)} of {len(verdicts)} mutants killed"
          + (f"; not killed: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
