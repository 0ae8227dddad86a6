"""Balls of analytic functions with guaranteed-enclosure arithmetic.

Functions analytic on the disc D(1, 2.5) are stored as a polynomial part
with interval coefficients in the scaled basis ((z-1)/2.5)**k, plus an l1
bound on everything above the truncation degree, plus an l1 bound on a
general error part.  The coefficients are held as exact integers, midpoint
plus or minus radius times 10**-scale, and read as decimals through the
``coeffs`` view.  Arithmetic on balls encloses the pointwise arithmetic of
every member function: this is what lets a finite computation control an
infinite-dimensional operator.
"""

import random
from decimal import Decimal

from renormcert import RoundingContext, STANDARD_DISC, interval, rectangle
from renormcert import balls as fb

ctx = RoundingContext(30)
N = 8

print("== a ball and its norm ==")
f = fb.ball_from_decimals(STANDARD_DISC, ["1", "-2"], N)
f = fb.inflate(ctx, f, "0.5")
print(f"  coefficients (1, -2), error budget 0.5")
print(f"  held as mid {f.mid}, rad {f.rad} (empty: all 0) at scale 10^-{f.scale}")
print(f"  norm upper bound: {fb.norm_upper(ctx, f)}")


print("\n== a kernel rounds its exact integer result outward once ==")
third = fb.scale(ctx, ctx.idiv(interval(1), interval(3)), f)   # f / 3
print(f"  f/3 holds mid {third.mid[:2]}, rad {third.rad[:2]} at scale 10^-{third.scale}")
print(f"  coefficient 0 read as decimals: {third.coeffs[0].re}")

print("\n== multiplication spills high-degree mass into the tail bound ==")
g = fb.ball_from_decimals(STANDARD_DISC, ["0.3", "0.1", "0", "0", "0", "0.2"], N)
p = fb.mul(ctx, g, g)   # degree 10 > N = 8
print(f"  (degree-5)^2 at truncation {N}: v_high = {p.v_high}")

print("\n== composition is controlled by the contraction factor theta ==")
a2 = Decimal("0.1596284404")
h = fb.affine_arg(ctx, STANDARD_DISC, N, a2)
print(f"  X -> {a2} X has theta = {fb.theta(ctx, h)}")
comp = fb.compose(ctx, f, h)
print(f"  f(a^2 X): error bound {comp.v_err}")

print("\n== every member stays inside the computed ball ==")
rng = random.Random(1)
member = {k: ck.re.lo for k, ck in enumerate(f.coeffs)}
member[11] = Decimal("0.25")    # legal: within the 0.5 error budget
z = Decimal("2.125")
import decimal
with decimal.localcontext(decimal.Context(prec=100)):
    u = (z - 1) / Decimal("2.5")
    exact = sum(c * u ** k for k, c in member.items())
out = fb.evaluate(ctx, f, rectangle(str(z)))
print(f"  member value at z={z}: {exact}")
print(f"  ball evaluation:       {out.re}")
assert out.re.contains(exact)

print("\n== serialization round-trips bit-exactly ==")
text = fb.serialize_ball(f)
assert fb.serialize_ball(fb.deserialize_ball(text)) == text
print(f"  {len(text.splitlines())} lines, sha256 {fb.ball_checksum(f)[:16]}...")
