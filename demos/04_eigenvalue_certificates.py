"""Certifying the parameter-scaling and noise-scaling eigenvalues.

Each eigenproblem is rewritten as a zero-finding problem by encoding the
eigenvalue inside the eigenfunction through the coordinate functional
phi(f) = f(1) (the constant basis coefficient):

    derivative problem:  DT(G) V - phi(V) V = 0      eigenvalue phi(V)
    noise problem:       L(G) W - phi(W)**2 W = 0    eigenvalue phi(W)**2

with G ranging over a ball proven to contain the fixed point.  A ball
radius rho around the approximate eigenfunction then bounds the eigenvalue
directly: it lies within rho of the constant coefficient.
"""

from renormcert import approx as ax
from renormcert import balls as fb
from renormcert import operators as op
from renormcert.contraction import DeltaProblem, FixedPointProblem, GammaProblem, certify
from renormcert.pipeline import certified_digits
from renormcert.rounding import RoundingContext

N, DIGITS = 20, 30
ctx = RoundingContext(DIGITS)

g0 = ax.approx_fixed_point(N, DIGITS)
G0 = fb.ball_from_decimals(fb.STANDARD_DISC, g0, N)
lam_g = ax.build_lambda("fixed_point",
                        ax.approx_jacobian("fixed_point", g0, digits=DIGITS), DIGITS)
fixed = certify(ctx, FixedPointProblem(), G0, lam_g, "1e-8")
print(f"fixed point certified; parameter ball radius {fixed.posterior_radius}")

param = fb.inflate(ctx, G0, fixed.posterior_radius)
tables = op.OperatorTables.build(ctx, op.precompute_shared(ctx, param))

print("\n== parameter-scaling eigenvalue ==")
v0, lam0 = ax.approx_eigenpair("delta", g0, DIGITS)
V0 = fb.ball_from_decimals(fb.STANDARD_DISC, v0, N)
lam_d = ax.build_lambda("delta_eigen",
                        ax.approx_jacobian("delta_eigen", g0, v0, digits=DIGITS),
                        DIGITS, lambda0=lam0)
cert_d = certify(ctx, DeltaProblem(tables), V0, lam_d, "1e-7")
text, count = certified_digits(cert_d.enclosures["delta"])
print(f"  delta = {text}   ({count} digits proven; "
      f"epsilon {cert_d.epsilon:.2E}, kappa {cert_d.kappa:.2E})")
print(f"  proven radius min(rho, epsilon/(1-kappa)) = {cert_d.proven_radius:.3E}")

print("\n== noise-scaling eigenvalue ==")
w0, gam0 = ax.approx_eigenpair("gamma", g0, DIGITS)
W0 = fb.ball_from_decimals(fb.STANDARD_DISC, w0, N)
lam_w = ax.build_lambda("gamma_eigen",
                        ax.approx_jacobian("gamma_eigen", g0, w0, digits=DIGITS),
                        DIGITS, lambda0=gam0)
cert_w = certify(ctx, GammaProblem(tables), W0, lam_w, "1e-7")
text, count = certified_digits(cert_w.enclosures["gamma"])
print(f"  gamma = {text}   ({count} digits proven; "
      f"epsilon {cert_w.epsilon:.2E}, kappa {cert_w.kappa:.2E})")

print("\nhigher degree and precision tighten everything: try degree 80 at 60")
print("digits with rho 1e-40 for 45+ certified digits (about 12 s).")
