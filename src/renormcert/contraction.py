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

The operator-norm bound for DPhi uses the maximum column-sum norm: columns
0..K are bounded one basis vector at a time (embarrassingly parallel, each
worker owning its private rounding context, merged in index order), and all
basis directions above K at once through a single ball of functions of
degree > K, whose compositions are controlled by powers theta**(K+1) of the
contraction factors theta of the inner arguments.  K is independent of N
(approx.HEAD_DEGREE): only K+1 columns are bounded one by one, and
applying the map costs O(K**2 + N) instead of O(N**2); K = N is the
dense map.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from decimal import Decimal
from operator import mul as _imul

from . import balls as fb
from .balls import FunctionBall, ball_checksum
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
    "Problem",
    "FixedPointProblem",
    "DeltaProblem",
    "GammaProblem",
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
    from applying them exactly to integer midpoint-radius coefficients.
    """

    __slots__ = ("matrix", "tail_scalar", "_col_sums", "_int_rows")

    def __init__(self, matrix, tail_scalar):
        self.matrix = tuple(tuple(as_decimal(x) for x in row) for row in matrix)
        n = len(self.matrix)
        if not n or any(len(row) != n for row in self.matrix):
            raise ConfigError("linear map matrix must be square with at least one row")
        self.tail_scalar = as_decimal(tail_scalar)
        if not self.tail_scalar.is_finite() or not all(
                x.is_finite() for row in self.matrix for x in row):
            raise ConfigError("linear map entries must be finite")
        self._col_sums = {}
        self._int_rows = None

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def col_sums(self, ctx: RoundingContext) -> tuple[Decimal, ...]:
        cached = self._col_sums.get(ctx.precision)
        if cached is None:
            cached = tuple(
                _sum_up(ctx, (self.matrix[i][k].copy_abs() for i in range(self.dim)))
                for k in range(self.dim))
            self._col_sums[ctx.precision] = cached
        return cached

    def int_rows(self) -> tuple[list[list[int]], int, int]:
        """The matrix and the tail scalar exactly as integers at one scale
        10**-e: (rows, tail, e)."""
        if self._int_rows is None:
            rows, e = _int_matrix(self.matrix + ((self.tail_scalar,),))
            self._int_rows = rows[:-1], rows[-1][0], e
        return self._int_rows


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


def _sum_up(ctx: RoundingContext, items) -> Decimal:
    total = _D0
    for x in items:
        total = ctx.add_up(total, x)
    return total


def lambda_norm_upper(ctx: RoundingContext, lam: LinearMap) -> Decimal:
    """Upper bound of the l1 operator norm: max column sum vs |tail|."""
    return max(max(lam.col_sums(ctx)), lam.tail_scalar.copy_abs())


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
    rows, tail, e = lam.int_rows()
    b = fb.to_int_ball(ctx, f)
    moved = fb.IntBall(*_apply_block(rows, tail, b.mid, b.rad), b.scale + e,
                       ctx.mul_up(f.v_high, lam.tail_scalar.copy_abs()),
                       ctx.mul_up(f.v_err, lambda_norm_upper(ctx, lam)))
    return fb.from_int_ball(ctx, f.domain, n, moved)


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
    m_rows, _, m_scale = lam.int_rows()
    m_cols = list(zip(*m_rows))
    one = 10 ** (b_scale + m_scale)
    col_sums = [0] * n
    for i, b_row in enumerate(b_rows):
        for j, m_col in enumerate(m_cols):
            r = sum(map(_imul, b_row, m_col))
            col_sums[j] += abs(one - r if i == j else r)
    bound = ctx.scaled_up(max(col_sums), b_scale + m_scale)
    if bound >= 1:
        raise InversionUncertified(f"residual column bound {bound} >= 1")
    return bound


# -- problems ---------------------------------------------------------------------

class Problem:
    """A residual map F with the derivative bounds a certificate needs.

    Subclasses provide the residual, the per-basis-column derivative images
    DF(x) e_k valid over a whole ball (``column_kernel``: an object whose
    ``image(ctx, k)`` is that image as a :class:`balls.IntBall`, picklable
    for worker processes), and the ingredients of the
    high-order tail bound: DF(x) f_H = A f_H + q f_H with the compositions
    inside A controlled by theta factors.
    """

    kind: str = "abstract"
    parameter_ball: FunctionBall | None = None

    def residual(self, ctx: RoundingContext, x: FunctionBall) -> FunctionBall:
        raise NotImplementedError

    def column_kernel(self, ctx: RoundingContext, x_ball: FunctionBall):
        raise NotImplementedError

    def tail_phi_factor(self, ctx: RoundingContext, x_ball: FunctionBall) -> Interval:
        raise NotImplementedError

    def tail_channels(self, ctx: RoundingContext, x_ball: FunctionBall):
        raise NotImplementedError

    def enclosures(self, ctx: RoundingContext, x0: FunctionBall, radius: Decimal) -> dict:
        """Certified constants for a solution within ``radius`` of x0."""
        return {}


def _phi(ctx: RoundingContext, x: FunctionBall) -> Interval:
    """Coordinate functional: the constant basis coefficient."""
    return fb.coefficient(ctx, x, 0).re


def _widened(ctx: RoundingContext, center: Interval, radius: Decimal) -> Interval:
    return Interval(ctx.sub_dn(center.lo, radius), ctx.add_up(center.hi, radius))


def _tail_channels(ctx: RoundingContext, tables: OperatorTables, q: int):
    """The two composition channels of M_q: a**-q through Q(G(a**2 X)) and
    factor16**q through a**2 X, with their theta factors."""
    s = tables.shared
    scalar, factor = s.coefficients(q)
    return ((scalar.mag, s.theta_squared),
            (fb.norm_upper(ctx, factor), s.theta_affine))


class FixedPointProblem(Problem):
    """F(G) = T(G) - G."""

    kind = "fixed_point"

    def __init__(self):
        self._cache = None   # (ball, tables)

    def _tables(self, ctx: RoundingContext, ball: FunctionBall) -> OperatorTables:
        if self._cache is not None and self._cache[0] is ball:
            return self._cache[1]
        tables = OperatorTables.build(ctx, precompute_shared(ctx, ball))
        self._cache = (ball, tables)
        return tables

    def residual(self, ctx, x):
        shared = precompute_shared(ctx, x, with_derivatives=False)
        t_of_x = fb.scale(ctx, shared.a_inv, shared.outer_comp)
        return fb.sub(ctx, t_of_x, x)

    def column_kernel(self, ctx, x_ball):
        return self._tables(ctx, x_ball).columns(ctx, 1, diagonal=IONE)

    def tail_phi_factor(self, ctx, x_ball):
        return interval(-1)

    def tail_channels(self, ctx, x_ball):
        return _tail_channels(ctx, self._tables(ctx, x_ball), 1)

    def enclosures(self, ctx, x0, radius):
        a_enc = _widened(ctx, _phi(ctx, x0), radius)
        return {"a": a_enc, "alpha": ctx.idiv(IONE, a_enc)}


class _EigenProblem(Problem):
    """The two nonlinear eigenproblems F(x) = M_p(G) x - phi(x)**p x with
    p = ``phi_power``, in which the eigenvalue phi(x)**p is encoded through
    the coordinate functional of the eigenfunction and G ranges over a ball
    proven to contain the fixed point; ``tables`` hold M_p over that ball."""

    phi_power = 1

    def __init__(self, ctx: RoundingContext, parameter_ball: FunctionBall,
                 tables: OperatorTables):
        self.parameter_ball = parameter_ball
        self.tables = tables

    def _phi_pow(self, ctx, phi_x) -> Interval:
        return phi_x if self.phi_power == 1 else ctx.isqr(phi_x)

    def residual(self, ctx, x):
        # M_p through its named entry points, which perfbench traces by name
        operator = self.tables.dt_apply if self.phi_power == 1 else self.tables.l_apply
        mult = self._phi_pow(ctx, _phi(ctx, x))
        return fb.sub(ctx, operator(ctx, x), fb.scale(ctx, mult, x))

    def column_kernel(self, ctx, x_ball):
        """Columns of M_p - phi**p I - p phi**(p-1) x e_0^T over the ball."""
        p, phi_x = self.phi_power, _phi(ctx, x_ball)
        scaled = x_ball if p == 1 else fb.scale(ctx, ctx.iscale(phi_x, Decimal(p)), x_ball)
        return self.tables.columns(ctx, p, column0=fb.negate(ctx, scaled),
                                   diagonal=self._phi_pow(ctx, phi_x))

    def tail_phi_factor(self, ctx, x_ball):
        return ctx.ineg(self._phi_pow(ctx, _phi(ctx, x_ball)))

    def tail_channels(self, ctx, x_ball):
        return _tail_channels(ctx, self.tables, self.phi_power)

    def enclosures(self, ctx, x0, radius):
        name = "delta" if self.phi_power == 1 else "gamma"
        return {name: _widened(ctx, _phi(ctx, x0), radius)}


class DeltaProblem(_EigenProblem):
    """F(V) = DT(G) V - phi(V) V with G over the parameter ball."""

    kind = "delta_eigen"
    phi_power = 1


class GammaProblem(_EigenProblem):
    """F(W) = L(G) W - phi(W)**2 W with G over the parameter ball."""

    kind = "gamma_eigen"
    phi_power = 2


# -- bounds -----------------------------------------------------------------------

def bound_epsilon(ctx: RoundingContext, problem: Problem, x0: FunctionBall,
                  lam: LinearMap) -> Decimal:
    """Upper bound of ||Lam F(x0)|| = ||Phi(x0) - x0||."""
    if x0.v_err != 0 or x0.v_high != 0:
        raise ConfigError("epsilon bound needs an exact center (no tail mass)")
    return fb.norm_upper(ctx, apply_lambda(ctx, lam, problem.residual(ctx, x0)))


def _int_map(ctx: RoundingContext, lam: LinearMap) -> tuple:
    """What a column bound needs of the frozen map, in integers where it acts
    on coefficients: (rows, tail, e, |tail scalar|, operator-norm bound)."""
    return *lam.int_rows(), lam.tail_scalar.copy_abs(), lambda_norm_upper(ctx, lam)


def _column_bound(ctx: RoundingContext, kernel, lam_int: tuple, k: int) -> Decimal:
    """Upper bound of ||e_k - Lam image_k|| for k <= K.  The frozen map acts
    exactly on the integer image and the coefficient norm is rounded up once."""
    image = kernel.image(ctx, k)
    rows, tail, e, tail_abs, lam_norm = lam_int
    mid, rad = _apply_block(rows, tail, image.mid, image.rad)
    mid[k] -= 10 ** (image.scale + e)
    total = sum(map(abs, mid)) + sum(rad)
    bound = ctx.add_up(ctx.scaled_up(total, image.scale + e), ctx.mul_up(image.v_high, tail_abs))
    return ctx.add_up(bound, ctx.mul_up(image.v_err, lam_norm))


_POOL_STATE: tuple | None = None


def _pool_init(kernel, lam_int, precision):
    global _POOL_STATE
    _POOL_STATE = (kernel, lam_int, RoundingContext(precision))


def _pool_column(k: int) -> Decimal:
    kernel, lam_int, ctx = _POOL_STATE
    return _column_bound(ctx, kernel, lam_int, k)


def bound_kappa_columns(ctx: RoundingContext, problem: Problem, x_ball: FunctionBall,
                        lam: LinearMap, workers: int = 1) -> list[Decimal]:
    """Bounds of ||DPhi(x) e_k|| for k = 0..K, the head of the frozen map,
    valid over the whole ball; :func:`bound_kappa_tail` covers every
    degree above K.

    Columns are independent; with workers > 1 they are distributed over a
    pool of at most K+1 processes, each holding a private rounding context
    and the integer column state, and the results are merged in index
    order so the output does not depend on the worker count.
    """
    columns = range(_head_degree(lam, x_ball.truncation) + 1)
    kernel = problem.column_kernel(ctx, x_ball)
    lam_int = _int_map(ctx, lam)
    processes = min(workers, len(columns))
    if processes <= 1:
        return [_column_bound(ctx, kernel, lam_int, k) for k in columns]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(columns) // (4 * processes))
    with ProcessPoolExecutor(max_workers=processes, initializer=_pool_init,
                             initargs=(kernel, lam_int, ctx.precision)) as pool:
        return list(pool.map(_pool_column, columns, chunksize=chunk))


def bound_kappa_tail(ctx: RoundingContext, problem: Problem, x_ball: FunctionBall,
                     lam: LinearMap) -> Decimal:
    """Bound of ||DPhi(x) f_H|| over all f_H of degree above K (the head
    degree of the frozen map) with ||f_H|| <= 1.

    With the domain centered at 1 and K >= 0, f_H(1) = 0 and phi(f_H) = 0,
    so the derivative acts as DF f_H = A f_H + q f_H where the compositions
    inside A are bounded by theta**(K+1) without expanding f_H.  The frozen
    map sends content of degree above K to tail_scalar times itself, leaving

        ||DPhi f_H|| <= |1 - q t| + ||Lam|| ||A f_H||.
    """
    if x_ball.domain.center != 1:
        raise ConfigError("tail bound assumes domain center 1")
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
    workers: int = 1
    wall_time: float = 0.0

    @property
    def proven_radius(self) -> Decimal:
        """Tightest radius proven to hold the solution: min(rho, posterior)."""
        if self.posterior_radius is None:
            return self.rho
        return min(self.rho, self.posterior_radius)

    def to_payload(self) -> dict:
        """Deterministic certificate content (no timing, no worker count)."""
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
            "execution": {"workers": self.workers, "wall_time_s": self.wall_time},
        }

    @staticmethod
    def enclosure_from_payload(payload: dict, name: str) -> Interval:
        lo, hi = payload["enclosures"][name]
        return Interval(Decimal(lo), Decimal(hi))


def certify(ctx: RoundingContext, problem: Problem, x0: FunctionBall, lam: LinearMap,
            rho, workers: int = 1, config: dict | None = None) -> Certificate:
    """Run the full contraction certificate for one problem: epsilon, the
    kappa columns 0..K of the frozen map's head and the tail bound above K.

    No separate invertibility proof of the frozen map runs: a passing
    kappa < 1 bounds ||I - Lam DF(x0)|| below 1, which makes Lam a
    bijection (module docstring), so the fixed points of the Newton-like
    operator are the zeros of the residual map.  A singular matrix or a
    zero tail scalar leaves kappa >= 1 and fails here.  The caller is
    responsible for the domain-extension verification on the ball, which
    is what makes the operator well-defined and differentiable there; the
    pipeline runs it before any certificate.  On success returns the
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
    columns = bound_kappa_columns(ctx, problem, ball, lam, workers)
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
        workers=workers,
        wall_time=time.perf_counter() - started,
    )
    if not passed:
        raise CertificationFailed(
            f"{problem.kind}: epsilon={epsilon} not below rho(1-kappa) "
            f"with rho={rho}, kappa={kappa}", certificate=cert)
    cert.enclosures = problem.enclosures(ctx, x0, cert.proven_radius)
    return cert
