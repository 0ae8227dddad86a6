"""Certifying the doubling-operator fixed point end to end.

The renormalisation operator for even unimodal maps, written through
X = x**2, is T(G)(X) = a**-1 G(Q(G(Q(a) X))) with a = G(1).  The script
  1. finds a polynomial approximation G0 by Newton iteration from the
     tabulated degree-20 fixed point (at N=20, P=30 that seed already
     passes the residual test; larger N climb doubling degrees from it),
  2. maps fig1's boundary cover through both composition arguments and
     checks every image inside the disc (the certificate proves the
     domain extension by theta < 1 alone; this check draws fig1),
  3. proves the Newton-like operator Phi = id - Lam(T - id) is a
     contraction on that ball, so a true fixed point lives inside; the
     certificate forms Lam itself, inverting the midpoints of the
     Jacobian columns it bounds over the ball,
  4. extracts certified digits of the universal scaling constant.
"""

import time

from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import operators as op
from renormcert.contraction import Problem, certify
from renormcert.pipeline import certified_digits
from renormcert.rounding import RoundingContext

N, DIGITS, RHO = 20, 30, "1e-8"
ctx = RoundingContext(DIGITS)

print(f"== bootstrap: Newton at degree {N} from the tabulated seed, {DIGITS} digits ==")
t0 = time.perf_counter()
g0 = ax.approx_fixed_point(N, DIGITS)
print(f"  G0(1) = {g0[0]}  ({time.perf_counter()-t0:.2f}s)")

G0 = fb.ball_from_decimals(fb.STANDARD_DISC, g0, N)

print(f"\n== domain extension on the ball of radius {RHO} ==")
ball = fb.inflate(ctx, G0, RHO)
res = op.check_domain_extension(ctx, ball, 64)
print(f"  64 boundary rectangles verified: both composed images stay inside")

print("\n== contraction certificate ==")
cert = certify(ctx, Problem(0), G0, RHO)
print(f"  epsilon = {cert.epsilon}")
print(f"  kappa   = {cert.kappa}")
print(f"  epsilon < rho (1 - kappa): {cert.passed}")
print(f"  fixed point within {cert.posterior_radius} of G0")

print("\n== certified universal constants ==")
for name in ("a", "alpha"):
    text, count = certified_digits(cert.enclosures[name])
    print(f"  {name:5s} = {text}   ({count} digits proven)")
