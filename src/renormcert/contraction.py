"""Newton-like contraction certificates for the renormalisation problems.

For a residual map F with approximate zero x0, a frozen linear map Lam
approximating the inverse Jacobian turns F into the Newton-like operator

    Phi(x) = x - Lam F(x).

A certificate over the ball B(x0, rho) consists of

    epsilon >= ||Phi(x0) - x0||     (movement of the approximate zero)
    kappa   >= ||DPhi(x)||          (for every x in the ball)

with the contraction inequality epsilon < rho (1 - kappa) checked in
directed rounding; on success the ball contains a unique fixed point of Phi.

The same kappa < 1 proves that the fixed points of Phi are the zeros of F.
At x = x0 it reads ||I - Lam DF(x0)|| < 1, so Lam DF(x0) is invertible by
the Neumann series and Lam is onto.  Lam is a square matrix on degrees
0..K (its head, K <= N) and a scalar on every degree above K; onto
means the matrix is invertible and the scalar is nonzero, so Lam is a
bijection and Lam F(x) = 0 only where F(x) = 0 (the "Z < 1 implies A
injective" step of van den Berg and Lessard, "Rigorous numerics in
dynamics", Notices AMS 62, 2015).  No separate invertibility proof is
needed.  The certified constants follow from the coordinate functional
phi(x) = x(c), the constant basis coefficient.

The three problems follow one rule F_p, p = 0, 1, 2 (:class:`Problem`):
F_0(G) = T(G) - G for the fixed point, and F_p(x) = M_p(G) x - phi(x)**p x
for delta (p = 1, M_1 = DT) and gamma (p = 2, M_2 = L), with G over a
ball proven to contain the fixed point.  Their derivative is

    DF_p = M_q - phi**p I - p phi**(p-1) x e_0^T,   q = max(p, 1),

so (q, p) = (1, 0), (1, 1), (2, 2): the eigenproblems in the modified
nonlinear form of the paper.

The operator-norm bound for DPhi uses the maximum column-sum norm: columns
0..K are bounded one basis vector at a time, in index order, and all
basis directions above K at once through a single ball of functions of
degree > K, whose compositions are controlled by powers theta**(K+1) of the
contraction factors theta of the inner arguments.  K is independent of N
(approx.HEAD_DEGREE): only K+1 columns are bounded one by one, and
applying the map costs O(K**2 + N) instead of O(N**2).  The head's
columns are the baby powers of the power tables (balls.PowerTable.power),
so operator problems need K < balls.BABY_STEPS.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from decimal import Decimal
from operator import mul as _imul

from . import balls as fb
from .balls import FunctionBall
from .errors import (
    CertificationFailed,
    ConfigError,
    DimensionMismatch,
    InversionUncertified,
    SingularJacobian,
    TailContractFailure,
)
from .operators import OperatorTables, precompute_shared
from .rounding import IONE, Interval, RoundingContext, as_decimal, interval

__all__ = [
    "LinearMap",
    "identity_map",
    "lambda_norm_upper",
    "apply_lambda",
    "verify_lambda_invertible",
    "KINDS",
    "Problem",
    "Certificate",
    "bound_epsilon",
    "bound_kappa_columns",
    "bound_kappa_tail",
    "certify",
]

_D0 = Decimal(0)
_D1 = Decimal(1)


class LinearMap:
    """Frozen linear operator in block form: a square matrix (the head) on
    coefficients 0..K, K = dim - 1, and a scalar acting on every degree
    above K: the polynomial coefficients K+1..N of a degree-N ball and its
    high-order content alike.  K may be anything up to N; K = N is the
    dense map.

    Entries are exactly representable numbers, not intervals; rigour comes
    from applying them exactly to integer midpoint-radius coefficients.  At
    construction the map is converted once to integers at one scale
    10**-scale: the head ``rows``, the ``tail`` and ``norm``, its exact l1
    operator norm max(largest column sum of |rows|, |tail|).
    """

    __slots__ = ("matrix", "tail_scalar", "rows", "tail", "scale", "norm")

    def __init__(self, matrix, tail_scalar):
        self.matrix = tuple(tuple(as_decimal(x) for x in row) for row in matrix)
        n = len(self.matrix)
        if not n or any(len(row) != n for row in self.matrix):
            raise ConfigError("linear map matrix must be square with at least one row")
        self.tail_scalar = as_decimal(tail_scalar)
        if not self.tail_scalar.is_finite() or not all(
                x.is_finite() for row in self.matrix for x in row):
            raise ConfigError("linear map entries must be finite")
        rows, self.scale = _int_matrix(self.matrix + ((self.tail_scalar,),))
        self.rows, self.tail = rows[:-1], rows[-1][0]
        self.norm = max(abs(self.tail), *(sum(map(abs, col)) for col in zip(*self.rows)))

    @property
    def dim(self) -> int:
        return len(self.matrix)


def _int_matrix(matrix) -> tuple[list[list[int]], int]:
    """Rows of exact decimals as integers at one scale 10**-e: (rows, e)."""
    e = max([0] + [-x.as_tuple().exponent for row in matrix for x in row if x])
    ten = 10 ** e

    def exact(x):
        num, den = x.as_integer_ratio()
        return num * ten // den
    return [[exact(x) if x else 0 for x in row] for row in matrix], e


def identity_map(n: int, diagonal=_D1, tail_scalar=Decimal(-1)) -> LinearMap:
    d = as_decimal(diagonal)
    matrix = tuple(tuple(d if i == j else _D0 for j in range(n + 1)) for i in range(n + 1))
    return LinearMap(matrix, tail_scalar)


def lambda_norm_upper(ctx: RoundingContext, lam: LinearMap) -> Decimal:
    """Upper bound of the l1 operator norm: its exact value rounded up once."""
    return ctx.scaled_up(lam.norm, lam.scale)


def _head_degree(lam: LinearMap, n: int) -> int:
    """K of the map, which must fit a degree-n ball."""
    if lam.dim > n + 1:
        raise DimensionMismatch(f"map dimension {lam.dim} exceeds ball degree {n} + 1")
    return lam.dim - 1


def _apply_block(rows, tail: int, mids: list[int],
                 rads: list[int]) -> tuple[list[int], list[int]]:
    """Exact image of integer midpoints and radii under a block map given by
    its integer head rows and tail scalar: the rows act on entries 0..K
    (radii by their absolute values) and the tail on every entry above K."""
    k1 = len(rows)
    return ([sum(map(_imul, row, mids)) for row in rows] + [tail * m for m in mids[k1:]],
            [sum(map(_imul, map(abs, row), rads)) for row in rows]
            + [abs(tail) * r for r in rads[k1:]])


def apply_lambda(ctx: RoundingContext, lam: LinearMap, f: FunctionBall) -> FunctionBall:
    """Apply the frozen map to a ball: head matrix on coefficients 0..K,
    tail scalar on coefficients K+1..N, |tail| on the high-order bound,
    full operator norm on the error bound (error content may sit at any
    degree).

    The map acts exactly on the integer midpoint-radius form of the
    coefficients; the image is rounded outward once."""
    n = f.truncation
    _head_degree(lam, n)
    moved = fb.IntBall(*_apply_block(lam.rows, lam.tail, f.mid, f.rad), f.scale + lam.scale,
                       ctx.mul_up(f.v_high, lam.tail_scalar.copy_abs()),
                       ctx.mul_up(f.v_err, lambda_norm_upper(ctx, lam)))
    return FunctionBall.wrap(n, fb.int_outward(ctx, moved, n))


def verify_lambda_invertible(ctx: RoundingContext, lam: LinearMap) -> Decimal:
    """Certify invertibility: residual bound ||I - B M|| < 1 for a midpoint
    approximate inverse B, plus a nonzero tail scalar.  Returns the bound.

    B and M are exact decimals, so I - B M is formed exactly in integers;
    only the final column-sum bound is rounded (upward).

    :func:`certify` does not call this: its kappa < 1 already proves the
    map invertible (see the module docstring).  It re-inverts the head M,
    an O(K**3) Decimal LU, and is kept as a standalone check."""
    from .approx import mat_inv

    if lam.tail_scalar == 0:
        raise InversionUncertified("tail scalar is zero")
    n = lam.dim
    try:
        approx_inv = mat_inv([list(row) for row in lam.matrix], ctx.precision)
    except SingularJacobian as exc:
        raise InversionUncertified(f"approximate inversion failed: {exc}") from exc
    b_rows, b_scale = _int_matrix(approx_inv)
    m_cols = list(zip(*lam.rows))
    one = 10 ** (b_scale + lam.scale)
    col_sums = [0] * n
    for i, b_row in enumerate(b_rows):
        for j, m_col in enumerate(m_cols):
            r = sum(map(_imul, b_row, m_col))
            col_sums[j] += abs(one - r if i == j else r)
    bound = ctx.scaled_up(max(col_sums), b_scale + lam.scale)
    if bound >= 1:
        raise InversionUncertified(f"residual column bound {bound} >= 1")
    return bound


# -- problems ---------------------------------------------------------------------

#: problem kind of each power p: the payload's certificate kind
KINDS = ("fixed_point", "delta_eigen", "gamma_eigen")


def _phi(ctx: RoundingContext, x: FunctionBall) -> Interval:
    """Coordinate functional: the constant basis coefficient."""
    return fb.coefficient(ctx, x, 0).re


def _widened(ctx: RoundingContext, center: Interval, radius: Decimal) -> Interval:
    return Interval(ctx.sub_dn(center.lo, radius), ctx.add_up(center.hi, radius))


class Problem:
    """The residual map F_p of the module docstring with the derivative
    bounds a certificate needs: the columns DF_p(x) e_k over a ball
    (``column_kernel``, whose ``image(ctx, k)`` is a :class:`balls.IntBall`)
    and the tail DF_p(x) f_H = A f_H - phi**p f_H, A's compositions
    controlled by theta factors.  ``tables`` hold M_p over the parameter
    ball for p >= 1; for p = 0 they are built over the ball the bounds
    receive."""

    def __init__(self, power: int, tables: OperatorTables | None = None):
        if power not in range(len(KINDS)):
            raise ConfigError(f"problem power must be 0, 1 or 2, got {power!r}")
        if power and tables is None:
            raise ConfigError(f"Problem({power}) needs the tables of M_{power} "
                              "over the parameter ball")
        if not power and tables is not None:
            raise ConfigError("Problem(0) builds its tables over the ball it is bounded on")
        self.power, self.kind, self.tables = power, KINDS[power], tables
        self._ball = None   # for p = 0, the ball the tables were built over

    def _tables(self, ctx: RoundingContext, ball: FunctionBall) -> OperatorTables:
        if not self.power and self._ball is not ball:
            self.tables = OperatorTables.build(ctx, precompute_shared(ctx, ball))
            self._ball = ball
        return self.tables

    def _phi_power(self, ctx: RoundingContext, phi_x: Interval) -> Interval:
        return phi_x if self.power == 1 else ctx.isqr(phi_x)

    def residual(self, ctx: RoundingContext, x: FunctionBall) -> FunctionBall:
        if not self.power:
            return fb.sub(ctx, precompute_shared(ctx, x).t(ctx), x)
        # M_p through its named entry points, which perfbench traces by name
        operator = self.tables.dt_apply if self.power == 1 else self.tables.l_apply
        mult = self._phi_power(ctx, _phi(ctx, x))
        return fb.sub(ctx, operator(ctx, x), fb.scale(ctx, mult, x))

    def column_kernel(self, ctx: RoundingContext, x_ball: FunctionBall):
        """Columns of DF_p = M_q - phi**p I - p phi**(p-1) x e_0^T over the ball."""
        p, column0, diagonal = self.power, None, IONE
        if p:
            phi_x = _phi(ctx, x_ball)
            scaled = x_ball if p == 1 else fb.scale(ctx, ctx.iscale(phi_x, Decimal(p)), x_ball)
            column0, diagonal = fb.negate(ctx, scaled), self._phi_power(ctx, phi_x)
        return self._tables(ctx, x_ball).columns(ctx, max(p, 1), column0, diagonal=diagonal)

    def tail_phi_factor(self, ctx: RoundingContext, x_ball: FunctionBall) -> Interval:
        if not self.power:
            return interval(-1)
        return ctx.ineg(self._phi_power(ctx, _phi(ctx, x_ball)))

    def tail_channels(self, ctx: RoundingContext, x_ball: FunctionBall):
        """The two composition channels of M_q: a**-q through Q(G(a**2 X))
        and factor16**q through a**2 X, with their theta factors."""
        return self._tables(ctx, x_ball).channels[max(self.power, 1) - 1]

    def enclosures(self, ctx: RoundingContext, x0: FunctionBall, radius: Decimal) -> dict:
        """Certified constants for a solution within ``radius`` of x0."""
        enclosure = _widened(ctx, _phi(ctx, x0), radius)
        if self.power:
            return {("delta", "gamma")[self.power - 1]: enclosure}
        return {"a": enclosure, "alpha": ctx.idiv(IONE, enclosure)}


# -- bounds -----------------------------------------------------------------------

def bound_epsilon(ctx: RoundingContext, problem: Problem, x0: FunctionBall,
                  lam: LinearMap) -> Decimal:
    """Upper bound of ||Lam F(x0)|| = ||Phi(x0) - x0||."""
    if x0.v_err != 0 or x0.v_high != 0:
        raise ConfigError("epsilon bound needs an exact center (no tail mass)")
    return fb.norm_upper(ctx, apply_lambda(ctx, lam, problem.residual(ctx, x0)))


def bound_kappa_columns(ctx: RoundingContext, problem: Problem, x_ball: FunctionBall,
                        lam: LinearMap) -> list[Decimal]:
    """Bounds of ||DPhi(x) e_k|| = ||e_k - Lam image_k|| for k = 0..K, the
    head of the frozen map, valid over the whole ball, in index order;
    :func:`bound_kappa_tail` covers every degree above K.  The frozen map
    acts exactly on each integer image and its norm is rounded up once.
    """
    kernel = problem.column_kernel(ctx, x_ball)
    tail_abs, lam_norm = lam.tail_scalar.copy_abs(), lambda_norm_upper(ctx, lam)
    bounds = []
    for k in range(_head_degree(lam, x_ball.truncation) + 1):
        image = kernel.image(ctx, k)
        scale = image.scale + lam.scale
        mid, rad = _apply_block(lam.rows, lam.tail, image.mid, image.rad)
        mid[k] -= 10 ** scale
        bound = ctx.add_up(ctx.scaled_up(sum(map(abs, mid)) + sum(rad), scale),
                           ctx.mul_up(image.v_high, tail_abs))
        bounds.append(ctx.add_up(bound, ctx.mul_up(image.v_err, lam_norm)))
    return bounds


def bound_kappa_tail(ctx: RoundingContext, problem: Problem, x_ball: FunctionBall,
                     lam: LinearMap) -> Decimal:
    """Bound of ||DPhi(x) f_H|| over all f_H of degree above K (the head
    degree of the frozen map) with ||f_H|| <= 1.

    The disc is centred at 1, so with K >= 0, f_H(1) = 0 and phi(f_H) = 0,
    so the derivative acts as DF f_H = A f_H + q f_H where the compositions
    inside A are bounded by theta**(K+1) without expanding f_H.  The frozen
    map sends content of degree above K to tail_scalar times itself, leaving

        ||DPhi f_H|| <= |1 - q t| + ||Lam|| ||A f_H||.
    """
    k = _head_degree(lam, x_ball.truncation)
    q = problem.tail_phi_factor(ctx, x_ball)
    head = ctx.isub(IONE, ctx.iscale(q, lam.tail_scalar)).mag
    total = _D0
    for coeff_norm, theta in problem.tail_channels(ctx, x_ball):
        if theta >= 1:
            raise TailContractFailure(f"tail channel has theta = {theta} >= 1")
        total = ctx.add_up(total, ctx.mul_up(coeff_norm, ctx.pow_up(theta, k + 1)))
    return ctx.add_up(head, ctx.mul_up(lambda_norm_upper(ctx, lam), total))


# -- certificates ------------------------------------------------------------------

@dataclass
class Certificate:
    kind: str
    rho: Decimal
    epsilon: Decimal
    kappa: Decimal
    kappa_columns_max: Decimal
    kappa_tail: Decimal
    head_degree: int
    passed: bool
    posterior_radius: Decimal | None
    enclosures: dict
    config: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def proven_radius(self) -> Decimal:
        """Tightest radius proven to hold the solution: min(rho, posterior)."""
        if self.posterior_radius is None:
            return self.rho
        return min(self.rho, self.posterior_radius)

    def to_payload(self) -> dict:
        """Deterministic certificate content (no timing)."""
        def enc(d):
            return {k: [str(v.lo), str(v.hi)] for k, v in d.items()}
        return {
            "kind": self.kind,
            "rho": str(self.rho),
            "epsilon": str(self.epsilon),
            "kappa": str(self.kappa),
            "kappa_columns_max": str(self.kappa_columns_max),
            "kappa_tail": str(self.kappa_tail),
            "head_degree": self.head_degree,
            "passed": self.passed,
            "posterior_radius": None if self.posterior_radius is None else str(self.posterior_radius),
            "enclosures": enc(self.enclosures),
            "config": self.config,
        }

    def to_json_dict(self) -> dict:
        return {
            "certificate": self.to_payload(),
            "execution": {"wall_time_s": self.wall_time},
        }

    @staticmethod
    def enclosure_from_payload(payload: dict, name: str) -> Interval:
        lo, hi = payload["enclosures"][name]
        return Interval(Decimal(lo), Decimal(hi))


def certify(ctx: RoundingContext, problem: Problem, x0: FunctionBall, lam: LinearMap,
            rho, config: dict | None = None) -> Certificate:
    """Run the full contraction certificate for one problem: epsilon, the
    kappa columns 0..K of the frozen map's head and the tail bound above K.

    No separate invertibility proof of the frozen map runs: a passing
    kappa < 1 bounds ||I - Lam DF(x0)|| below 1, which makes Lam a
    bijection (module docstring), so the fixed points of the Newton-like
    operator are the zeros of the residual map.  A singular matrix or a
    zero tail scalar leaves kappa >= 1 and fails here.  The operator is
    well-defined and differentiable on the ball because its compositions
    are built over an inflated ball (this one for the fixed point, the
    parameter ball of the eigen problems' tables), which has v_err > 0, so
    both composition arguments must have theta < 1
    (operators.precompute_shared); theta < 1 maps the closed disc into the
    disc of radius theta r, the claim the pipeline's boundary check proves
    a second time.  On success returns the
    certificate with the certified enclosures; on a failed contraction
    inequality raises CertificationFailed carrying the diagnostic
    certificate.  No retuning or retry happens here: rho and the precision
    are caller-chosen and failures are reported as data.
    """
    rho = as_decimal(rho)
    if rho <= 0:
        raise ConfigError("rho must be positive")
    started = time.perf_counter()
    ball = fb.inflate(ctx, x0, rho)
    epsilon = bound_epsilon(ctx, problem, x0, lam)
    columns = bound_kappa_columns(ctx, problem, ball, lam)
    col_max = max(columns)
    tail = bound_kappa_tail(ctx, problem, ball, lam)
    kappa = max(col_max, tail)
    one_minus = ctx.sub_dn(_D1, kappa)
    passed = bool(kappa < 1 and epsilon < ctx.mul_dn(rho, one_minus))
    posterior = ctx.div_up(epsilon, one_minus) if (passed and one_minus > 0) else None
    cert = Certificate(
        kind=problem.kind,
        rho=rho,
        epsilon=epsilon,
        kappa=kappa,
        kappa_columns_max=col_max,
        kappa_tail=tail,
        head_degree=lam.dim - 1,
        passed=passed,
        posterior_radius=posterior,
        enclosures={},
        config=dict(config or {}),
        wall_time=time.perf_counter() - started,
    )
    if not passed:
        raise CertificationFailed(
            f"{problem.kind}: epsilon={epsilon} not below rho(1-kappa) "
            f"with rho={rho}, kappa={kappa}", certificate=cert)
    cert.enclosures = problem.enclosures(ctx, x0, cert.proven_radius)
    return cert
