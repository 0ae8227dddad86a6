"""Non-rigorous multi-precision numerics that bootstrap the certifier.

Produces the approximate fixed point G0, the approximate eigenpairs for the
parameter-scaling and noise-scaling problems, and the frozen linear maps
used by the Newton-like certification operators: each the inverse of its
Jacobian's head on degrees 0..K, K = min(N, HEAD_DEGREE), with a tail
scalar above K.  Everything here runs in round-to-nearest decimal
arithmetic inside a local context; no rounding state is shared with the
directed-rounding side.

Each eigenpair is the one whose eigenvalue lies nearest a literature hint
s (4.669 for delta, 6.619**2 for gamma**2), found by shifted inverse
iteration; the error shrinks by |lambda - s|/|lambda' - s| per step, where
lambda' is the next nearest eigenvalue.

Polynomials are plain lists of Decimal coefficients in the scaled-monomial
basis e_k(z) = ((z - c)/r)**k of the standard disc (c, r) = (1, 2.5); the
truncation degree is the length of the list minus one.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

from .balls import STANDARD_DISC
from .errors import (
    ConfigError,
    EigenSelectionAmbiguous,
    NewtonDivergence,
    SingularJacobian,
)

__all__ = [
    "HEAD_DEGREE",
    "default_seed",
    "approx_fixed_point",
    "approx_jacobian",
    "approx_eigenpair",
    "build_lambda",
    "mat_inv",
    "poly_eval",
]

_D0 = Decimal(0)
_D1 = Decimal(1)
_D2 = Decimal(2)
_C, _R = STANDARD_DISC.center, STANDARD_DISC.radius

#: classical starting guess g(x) ~ 1 - 1.5276 x**2, written for G(X).
_SEED_QUADRATIC = Decimal("-1.5276")

#: literature values of delta and gamma: the bootstrap takes the eigenvalue
#: nearest hint**p (p = 1 for delta, 2 for gamma); rigor comes from the
#: certificate.
_EIGEN_HINT = {"delta": Decimal("4.669"), "gamma": Decimal("6.619")}

#: degree K of the frozen map's dense head: the map is a matrix on degrees
#: 0..min(N, K) and the tail scalar above; kappa < 1 needs no more.
HEAD_DEGREE = 20

#: problem kind -> power p of the eigenvalue lambda = phi(x) = x[0] in the
#: residual M_p x - lambda**p x (0 for the fixed point, whose Jacobian is
#: M_1 - I); M_1 is DT and M_2 is L.
_PHI_POWER = {"fixed_point": 0, "delta_eigen": 1, "gamma_eigen": 2}


def _context(digits: int) -> decimal.Context:
    return decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN)


def default_seed() -> list[Decimal]:
    """Affine seed for the fixed-point Newton iteration: G(X) = 1 + q(X - ...)."""
    return [_D1 + _SEED_QUADRATIC * _C, _SEED_QUADRATIC * _R]


# -- dense polynomial helpers (assume a decimal context is active) -----------

def _pad(f: list[Decimal], length: int) -> list[Decimal]:
    """f truncated or zero-padded to ``length`` coefficients."""
    if len(f) > length:
        return f[:length]
    return f + [_D0] * (length - len(f))


def p_add(f, g):
    return [a + b for a, b in zip(f, g)]

def p_sub(f, g):
    return [a - b for a, b in zip(f, g)]

def p_scale(s, f):
    return [s * a for a in f]


def p_mul(f, g):
    """Product truncated to the degree of f."""
    n = len(f) - 1
    out = [_D0] * (n + 1)
    for i, fi in enumerate(f):
        if not fi:
            continue
        for j, gj in enumerate(g):
            k = i + j
            if k > n:
                break
            if gj:
                out[k] += fi * gj
    return out


def p_deriv(f):
    out = [Decimal(k + 1) * f[k + 1] / _R for k in range(len(f) - 1)]
    return out + [_D0]


def poly_eval(f, x):
    """Evaluate at a point by Horner in the scaled basis."""
    u = (x - _C) / _R
    acc = f[-1]
    for k in range(len(f) - 2, -1, -1):
        acc = acc * u + f[k]
    return acc


def _normalize_arg(h):
    u = list(h)
    u[0] = (u[0] - _C) / _R
    inv = _D1 / _R
    for k in range(1, len(u)):
        u[k] = u[k] * inv
    return u


def _power_list(u, count):
    """u**0..u**(count-1) for count >= 2, each truncated to the length of u."""
    powers = [_pad([_D1], len(u)), list(u)]
    for _ in range(2, count):
        powers.append(p_mul(powers[-1], u))
    return powers


def _table_compose(f, powers):
    out = [_D0] * len(powers[0])
    for k, fk in enumerate(f):
        if not fk:
            continue
        pk = powers[k]
        for i in range(len(pk)):
            if pk[i]:
                out[i] += fk * pk[i]
    return out


def _rows(cols):
    return [list(row) for row in zip(*cols)]


class _MidShared:
    """Midpoint analogue of the shared operator evaluations at g, from which
    T(g) is read and M_q(g) is applied (DT = M_1, L = M_2), with the terms
    and field names of ``operators.SharedEvaluations`` and
    ``operators.OperatorTables``; ``matrix`` stacks an apply's columns.

    With ``width`` = K + 1 below N + 1, every polynomial is cut to its
    coefficients 0..K (the power lists still hold all N + 1 powers), and
    the matrices are the K+1 x K+1 heads of the full ones, at O(N K**2)
    cost.  Truncated products are causal, so the head entries are those of
    the full matrices digit for digit.
    """

    def __init__(self, g, width: int | None = None):
        n = len(g) - 1
        self.width = width = n + 1 if width is None else width
        self.a = poly_eval(g, _D1)
        if not self.a:
            raise NewtonDivergence("normalisation a = G(1) vanished")
        self.a2 = self.a * self.a
        self.a_inv = _D1 / self.a
        self.a_inv2 = self.a_inv * self.a_inv
        affine = _pad([self.a2 * _C, self.a2 * _R], width)
        self.up1 = _power_list(_normalize_arg(affine), n + 1)
        self.inner = _table_compose(g, self.up1)
        self.squared = p_mul(self.inner, self.inner)
        self.up2 = _power_list(_normalize_arg(self.squared), n + 1)
        self.outer_comp = _table_compose(g, self.up2)
        gd = p_deriv(g)
        self.deriv_outer = _table_compose(gd, self.up2)
        self.deriv_inner = _table_compose(gd, self.up1)
        two_inner = p_scale(_D2 * self.a_inv, self.inner)
        self.factor16 = p_mul(self.deriv_outer, two_inner)
        self.factor16_sq = p_mul(self.factor16, self.factor16)
        x_poly = _pad([_C, _R], width)
        self.factor17 = p_mul(p_mul(self.factor16, self.deriv_inner),
                              p_scale(_D2 * self.a, x_poly))

    def t(self):
        """T(g)."""
        return p_scale(self.a_inv, self.outer_comp)

    def apply(self, q: int, v):
        """M_q(g) v: a**-q v(Q(g(a**2 X))) + factor16**q v(a**2 X), and for
        q = 1 (DT) the variations of the normalisation a, which act when
        v(1) = v[0] on the standard disc is nonzero; q = 2 is L."""
        scalar, factor = ((self.a_inv, self.factor16) if q == 1
                          else (self.a_inv2, self.factor16_sq))
        out = p_add(p_scale(scalar, _table_compose(v, self.up2)),
                    p_mul(factor, _table_compose(v, self.up1)))
        if q == 1 and v[0]:
            out = p_add(out, p_scale(-self.a_inv2 * v[0], self.outer_comp))
            out = p_add(out, p_scale(v[0], self.factor17))
        return out

    def jacobian_apply(self, kind: str, x=None):
        """v -> DF v for the residual F of the problem kind: T(g) - g, or
        M_p x - phi(x)**p x with lambda = phi(x) = x[0], whose derivative is
        M_p - lambda**p I - p lambda**(p-1) x e_0^T."""
        if kind == "fixed_point":
            return lambda v: p_sub(self.apply(1, v), v)
        power = _PHI_POWER[kind]
        lam_p = x[0] ** power
        dlam = Decimal(power) * x[0] ** (power - 1)

        def apply(v):
            out = p_sub(self.apply(power, v), p_scale(lam_p, v))
            if v[0]:
                out = p_sub(out, p_scale(dlam * v[0], x))
            return out
        return apply

    def matrix(self, apply):
        """Rows of the width x width matrix whose column k is apply(e_k)."""
        cols = []
        for k in range(self.width):
            e = [_D0] * self.width
            e[k] = _D1
            cols.append(apply(e))
        return _rows(cols)


# -- dense linear algebra ------------------------------------------------------

def lu_factor(a):
    """In-place LU with partial pivoting; returns (lu, perm)."""
    n = len(a)
    lu = [row[:] for row in a]
    perm = list(range(n))
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(lu[i][col]))
        if not lu[pivot][col]:
            raise SingularJacobian(f"zero pivot in column {col}")
        if pivot != col:
            lu[pivot], lu[col] = lu[col], lu[pivot]
            perm[pivot], perm[col] = perm[col], perm[pivot]
        inv = _D1 / lu[col][col]
        for i in range(col + 1, n):
            factor = lu[i][col] * inv
            lu[i][col] = factor
            if factor:
                row_i, row_c = lu[i], lu[col]
                for j in range(col + 1, n):
                    if row_c[j]:
                        row_i[j] -= factor * row_c[j]
    return lu, perm


def _lu_solve_factored(lu, perm, b):
    n = len(lu)
    x = [b[perm[i]] for i in range(n)]
    for i in range(n):
        row = lu[i]
        s = x[i]
        for j in range(i):
            if row[j] and x[j]:
                s -= row[j] * x[j]
        x[i] = s
    for i in range(n - 1, -1, -1):
        row = lu[i]
        s = x[i]
        for j in range(i + 1, n):
            if row[j] and x[j]:
                s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def mat_inv(a, digits: int = 30):
    with decimal.localcontext(_context(digits)):
        n = len(a)
        lu, perm = lu_factor(a)
        cols = []
        for k in range(n):
            e = [_D0] * n
            e[k] = _D1
            cols.append(_lu_solve_factored(lu, perm, e))
        return _rows(cols)


def _mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), _D0) for row in a]


def _sup_norm(v):
    return max((abs(x) for x in v), default=_D0)


# -- fixed point ----------------------------------------------------------------

def _stage_ladder(n: int) -> list[int]:
    if n <= 20:
        return [n]
    stages, m = [], 20
    while m < n:
        stages.append(m)
        m = min(2 * m, n)
    stages.append(n)
    return stages


def approx_fixed_point(n: int, digits: int, seed=None) -> list[Decimal]:
    """Polynomial approximation to the fixed point, residual below 10**-(digits-6).

    Bootstraps deterministically: Newton from the classical quadratic-map
    seed at degree min(n, 20), then continuation through doubling degrees.
    """
    if n < 2:
        raise ConfigError("need truncation degree >= 2")
    if digits < 10:
        raise ConfigError("need at least 10 digits")
    with decimal.localcontext(_context(digits)):
        g = list(seed) if seed is not None else default_seed()
        tol = Decimal(10) ** -(digits - 6)
        max_iter = 50
        for stage_n in _stage_ladder(n):
            g = _pad(g, stage_n + 1)
            if abs(poly_eval(g, _D1)) < Decimal("0.05"):
                raise NewtonDivergence("seed normalisation G(1) too close to zero")
            for _ in range(max_iter):
                shared = _MidShared(g)
                residual = p_sub(shared.t(), g)
                if _sup_norm(residual) < tol:
                    break
                lu, perm = lu_factor(shared.matrix(shared.jacobian_apply("fixed_point")))
                g = p_add(g, _lu_solve_factored(lu, perm, [-r for r in residual]))
            else:
                raise NewtonDivergence(
                    f"no convergence below {tol} in {max_iter} iterations")
        return g


# -- eigenpairs -------------------------------------------------------------------

def _inverse_iteration(matrix, shift, phi_power: int, digits: int):
    """Eigenvector x of ``matrix`` for its eigenvalue lambda nearest ``shift``,
    scaled so that x[0]**phi_power = lambda (phi_power 1 or 2).

    From x = e_0, with M - shift I factored once: y = (M - shift I)**-1 x,
    lambda = shift + x[0]/y[0], x = y lambda**(1/phi_power) / y[0], until
    |M x - x[0]**phi_power x| < 10**-(digits-6) max(1, |x|), for at most
    ``digits`` steps.  Runs in the active decimal context.
    """
    lu, perm = lu_factor([[m - shift if i == j else m for j, m in enumerate(row)]
                          for i, row in enumerate(matrix)])
    tol = Decimal(10) ** -(digits - 6)
    x = _pad([_D1], len(matrix))
    for _ in range(digits):
        y = _lu_solve_factored(lu, perm, x)
        if not y[0]:
            raise EigenSelectionAmbiguous("eigenvector has vanishing constant coefficient")
        lam = shift + x[0] / y[0]
        if phi_power == 2 and lam <= 0:
            raise EigenSelectionAmbiguous(f"eigenvalue nearest the shift {shift} not positive")
        x = p_scale((lam if phi_power == 1 else lam.sqrt()) / y[0], y)
        residual = p_sub(_mat_vec(matrix, x), p_scale(x[0] ** phi_power, x))
        if _sup_norm(residual) < tol * max(_D1, _sup_norm(x)):
            return x
    raise EigenSelectionAmbiguous(
        f"inverse iteration at the shift {shift} did not converge in {digits} steps")


def approx_eigenpair(kind: str, g0, digits: int) -> tuple[list[Decimal], Decimal]:
    """Approximate eigenfunction and eigenvalue, normalised so coeff0 = eigenvalue.

    kind 'delta': the eigenvalue of the derivative of T nearest the
    literature value 4.669 of the parameter-scaling constant.
    kind 'gamma': the eigenvalue of the noise operator nearest 6.619**2;
    the returned scalar is its square root.
    Both come from shifted inverse iteration in decimal arithmetic with that
    shift s, which converges at the rate |lambda - s|/|lambda' - s| per step,
    lambda' being the eigenvalue next nearest s; EigenSelectionAmbiguous is
    raised when it does not converge in ``digits`` steps.
    """
    if kind not in _EIGEN_HINT:
        raise ConfigError(f"unknown eigenpair kind {kind!r}")
    phi_power = _PHI_POWER[kind + "_eigen"]
    with decimal.localcontext(_context(digits)):
        shared = _MidShared(g0)
        matrix = shared.matrix(lambda v: shared.apply(phi_power, v))
        vec = _inverse_iteration(matrix, _EIGEN_HINT[kind] ** phi_power, phi_power, digits)
        return vec, vec[0]


# -- jacobians and the frozen linear map -------------------------------------------

def approx_jacobian(kind: str, g0, x0=None, digits: int = 30):
    """Head block of the truncated Jacobian of the residual map for the
    given problem kind: rows and columns 0..K, K = min(N, HEAD_DEGREE).

    fixed_point: derivative of T minus identity, at g0.
    delta_eigen/gamma_eigen: operator matrix minus the eigenvalue terms,
    including the rank-one normalisation coupling, at x0.
    The block is read off shared evaluations cut to degree K, at O(N K**2)
    cost; its entries are those of the full (N+1) x (N+1) matrix.
    """
    if kind not in _PHI_POWER:
        raise ConfigError(f"unknown problem kind {kind!r}")
    if kind != "fixed_point" and x0 is None:
        raise ConfigError("eigen jacobians need the approximate eigenfunction")
    width = min(len(g0), HEAD_DEGREE + 1)
    with decimal.localcontext(_context(digits)):
        shared = _MidShared(g0, width)
        x = None if x0 is None else _pad(list(x0), width)
        return shared.matrix(shared.jacobian_apply(kind, x))


def build_lambda(kind: str, jac, digits: int = 30, lambda0: Decimal | None = None):
    """Frozen linear map approximating the inverse Jacobian.

    Matrix block: rounded midpoint inverse of ``jac``, the Jacobian's head
    on degrees 0..K (any K up to N; :func:`approx_jacobian` gives
    K = min(N, HEAD_DEGREE)).  Tail scalar, acting on every degree above
    K: -1/lambda0**p with the kind's eigenvalue power p, so -1 for the
    fixed point (the derivative of T decays on high degrees, so the
    Jacobian is near minus identity there), -1/lambda0 for the
    parameter-scaling problem and -1/lambda0**2 for the noise problem.
    """
    from .contraction import LinearMap

    if kind not in _PHI_POWER:
        raise ConfigError(f"unknown problem kind {kind!r}")
    phi_power = _PHI_POWER[kind]
    if phi_power and lambda0 is None:
        raise ConfigError("eigen kinds need lambda0 for the tail scalar")
    with decimal.localcontext(_context(digits)):
        inv = mat_inv(jac, digits)
        tail = -_D1 / lambda0 ** phi_power if phi_power else -_D1
        matrix = tuple(tuple(+x for x in row) for row in inv)
        return LinearMap(matrix=matrix, tail_scalar=tail)
