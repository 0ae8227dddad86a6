"""Newton-like contraction certificates for the renormalisation problems.

For a residual map F with approximate zero x0, a frozen linear map Lam
approximating the inverse Jacobian turns F into the Newton-like operator

    Phi(x) = x - Lam F(x).

A certificate over the ball B(x0, rho) consists of

    epsilon >= ||Phi(x0) - x0||     (movement of the approximate zero)
    kappa   >= ||DPhi(x)||          (for every x in the ball)

with the contraction inequality epsilon < rho (1 - kappa) checked in
directed rounding; on success the ball contains a unique fixed point of Phi.

Lam need only approximate the inverse, so :func:`certify` forms it
(:func:`frozen_map`) in binary64 from the midpoints of the column images
DF_p(x) e_k, k = 0..K, that its kappa bound reads, and writes it as
integers on a decimal grid: a certificate depends on x0, rho and the
precision.  The
arithmetic Lam is formed in is no part of the proof, since kappa bounds
||I - Lam DF|| for the Lam written, whatever it is.

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

The certificate also takes one Newton-Kantorovich step for free (van den
Berg and Lessard, section 4).  The solution x* and x0 lie in the convex
ball B(x0, rho), where kappa bounds DPhi, and x* = Phi(x*), so with the
proven radius r >= ||x* - x0||

    ||x* - Phi(x0)|| <= kappa r,   |phi(x*) - phi(Phi(x0))| <= kappa_phi r,

where kappa_phi bounds row 0 of DPhi over the ball.  Phi(x0) is the ball
epsilon is read from, and kappa_phi is read from the column images and the
tail sum kappa is bounded from, so the step costs no further product.
Content above the head degree K never reaches row 0, so an error part
of norm at most v adds at most max_j |Lam_0j| v to coefficient 0 of its
image under Lam, not ||Lam|| v: kappa_phi's column part and phi(Phi(x0))
read F's error parts that way.

The three problems follow one rule F_p, p = 0, 1, 2 (:class:`Problem`):
F_0(G) = T(G) - G for the fixed point, and F_p(x) = M_p(G) x - phi(x)**p x
for delta (p = 1, M_1 = DT) and gamma (p = 2, M_2 = L), with G over a
ball proven to contain the fixed point.  Each reads its residual and its
columns from one build of the operator tables: the eigen problems from
the parameter ball's, the fixed point from those over B(x0, rho), whose
midpoints and radii are those over x0 (operators module docstring).  The
parameter ball is the fixed point's solution ball, centred on its x0
(:meth:`Certificate.solution_ball`), so its tables hold those integers too.
Their derivative is

    DF_p = M_q - phi**p I - p phi**(p-1) x e_0^T,   q = max(p, 1),

so (q, p) = (1, 0), (1, 1), (2, 2): the eigenproblems in the modified
nonlinear form of the paper.

The operator-norm bound for DPhi uses the maximum column-sum norm: columns
0..K are bounded one basis vector at a time, in index order, and all
basis directions above K at once through a single ball of functions of
degree > K, whose compositions are controlled by powers theta**(K+1) of the
contraction factors theta of the inner arguments.  K is independent of N
(HEAD_DEGREE): only K+1 columns are bounded one by one, and
applying the map costs O(K**2 + N) instead of O(N**2).  The head's
columns are the baby powers of the power tables (balls.PowerTable.power),
so operator problems need K < balls.BABY_STEPS.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field, replace
from decimal import Decimal
from itertools import zip_longest
from operator import mul as _imul

from . import balls as fb
from .balls import BABY_STEPS, FunctionBall
from .errors import (
    CertificationFailed,
    ConfigError,
    DimensionMismatch,
    DomainMismatch,
    InversionUncertified,
    SingularJacobian,
    TailContractFailure,
)
from .operators import OperatorTables, precompute_shared
from .rounding import (EXACT, IONE, Interval, RoundingContext, as_decimal, exact_decimal,
                       finite_decimal, floor_at)

__all__ = [
    "HEAD_DEGREE",
    "LinearMap",
    "lambda_norm_upper",
    "apply_lambda",
    "verify_lambda_invertible",
    "mat_inv",
    "build_lambda",
    "frozen_map",
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
    from applying them exactly to integer midpoint-radius coefficients.  The
    map is held as integers at one scale 10**-scale: the head ``rows``, the
    ``tail`` and ``norm``, its exact l1 operator norm max(largest column
    sum of |rows|, |tail|), with ``tail_scalar`` the tail as an exact
    decimal.  The head as exact decimals, ``matrix``, is formed on first
    use; :meth:`from_decimals` reads a map written in decimals.
    """

    __slots__ = ("rows", "tail", "scale", "tail_scalar", "norm", "_matrix")

    def __init__(self, rows, scale: int, tail_scalar):
        """The head as integer ``rows`` at 10**-scale, and an exactly
        representable tail scalar: both lifted to the finer of their scales."""
        n = len(rows)
        if not n or any(len(row) != n for row in rows):
            raise ConfigError("linear map matrix must be square with at least one row")
        self.tail_scalar = as_decimal(tail_scalar)
        if not self.tail_scalar.is_finite():
            raise ConfigError("linear map entries must be finite")
        exponent = self.tail_scalar.as_tuple().exponent if self.tail_scalar else 0
        self.scale = max(scale, -exponent)
        lift = 10 ** (self.scale - scale)
        self.rows = [[x * lift for x in row] for row in rows]
        self.tail = floor_at(self.tail_scalar, self.scale)
        self.norm = max(abs(self.tail), *(sum(map(abs, col)) for col in zip(*self.rows)))
        self._matrix = None

    @classmethod
    def from_decimals(cls, matrix, tail_scalar) -> "LinearMap":
        """The map with the exactly representable head ``matrix`` (rows of
        Decimals, ints or strings) and tail scalar, on the finest scale its
        entries need."""
        matrix = [[as_decimal(x) for x in row] for row in matrix]
        if not all(x.is_finite() for row in matrix for x in row):
            raise ConfigError("linear map entries must be finite")
        scale = max([0] + [-x.as_tuple().exponent for row in matrix for x in row if x])
        return cls([[floor_at(x, scale) for x in row] for row in matrix], scale, tail_scalar)

    @property
    def matrix(self) -> tuple:
        """The head as exact decimals at the map's scale."""
        if self._matrix is None:
            s = self.scale
            self._matrix = tuple(tuple(Decimal(x).scaleb(-s, EXACT) for x in row)
                                 for row in self.rows)
        return self._matrix

    @property
    def dim(self) -> int:
        return len(self.rows)


def lambda_norm_upper(ctx: RoundingContext, lam: LinearMap) -> Decimal:
    """Upper bound of the l1 operator norm: its exact value rounded up once."""
    return ctx.scaled_up(lam.norm, lam.scale)


def _head_degree(lam: LinearMap, n: int) -> int:
    """K of the map, which must fit a degree-n ball."""
    if lam.dim > n + 1:
        raise DimensionMismatch(f"map dimension {lam.dim} exceeds ball degree {n} + 1")
    return lam.dim - 1


def _lambda_image(ctx: RoundingContext, lam: LinearMap, b: fb.IntBall) -> fb.IntBall:
    """Exact image of an integer ball under the frozen map, at scale
    b.scale + lam.scale: the head rows act on midpoints 0..K and the tail
    scalar on every midpoint above K; |tail| bounds the image of the
    high-order content and the full operator norm that of the rounding
    and error parts, which may sit at any degree.  The head entries 0..K
    are always present."""
    rows, tail = lam.rows, lam.tail
    k1 = len(rows)
    mid = [sum(map(_imul, row, b.mid)) for row in rows] + [tail * m for m in b.mid[k1:]]
    return fb.IntBall(mid, lam.norm * b.rad, b.scale + lam.scale,
                      ctx.mul_up(b.v_high, lam.tail_scalar.copy_abs()),
                      ctx.mul_up(b.v_err, lambda_norm_upper(ctx, lam)))


def apply_lambda(ctx: RoundingContext, lam: LinearMap, f: FunctionBall) -> FunctionBall:
    """Apply the frozen map to a ball (:func:`_lambda_image`): head matrix
    on coefficients 0..K, tail scalar on coefficients K+1..N, |tail| on the
    high-order bound, full operator norm on the error bound.  The image is
    rounded outward once."""
    n = f.truncation
    _head_degree(lam, n)
    return FunctionBall.wrap(n, fb.int_outward(ctx, _lambda_image(ctx, lam, f), n))


def verify_lambda_invertible(ctx: RoundingContext, lam: LinearMap) -> Decimal:
    """Certify invertibility: residual bound ||I - B M|| < 1 for a midpoint
    approximate inverse B of the head M, plus a nonzero tail scalar.
    Returns the bound: :func:`bound_kappa_columns` of B against the columns
    of M, exact integer balls, so only each column sum is rounded (upward).

    :func:`certify` does not call this: its kappa < 1 already proves the
    map invertible (see the module docstring).  It re-inverts the head M,
    an O(K**3) Decimal LU, and is kept as a standalone check."""
    if lam.tail_scalar == 0:
        raise InversionUncertified("tail scalar is zero")
    try:
        approx_inv = LinearMap.from_decimals(mat_inv([list(row) for row in lam.matrix],
                                                 ctx.precision), 1)
    except SingularJacobian as exc:
        raise InversionUncertified(f"approximate inversion failed: {exc}") from exc
    columns = [fb.IntBall(list(col), 0, lam.scale, _D0, _D0) for col in zip(*lam.rows)]
    bound = max(bound_kappa_columns(ctx, columns, approx_inv)[0])
    if bound >= 1:
        raise InversionUncertified(f"residual column bound {bound} >= 1")
    return bound


# -- the frozen map -----------------------------------------------------------------

#: degree K of the frozen map's dense head (read at call time): a matrix on
#: degrees 0..min(N, K), the tail scalar above; kappa < 1 needs no more.  One
#: below the baby steps, so the head's column images read baby powers.
HEAD_DEGREE = BABY_STEPS - 1


def _context(digits: int) -> decimal.Context:
    return decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN)


def _rows(cols):
    return [list(row) for row in zip(*cols)]


def _finite(values) -> bool:
    """Whether every value is finite.  Binary64 rounds an overflow to inf,
    and inf - inf to nan, where Decimal signals; x - x is 0 exactly for
    every finite x of either arithmetic."""
    return all(x - x == 0 for x in values)


def lu_factor(a):
    """LU with partial pivoting, in the arithmetic of the entries (Decimal
    in the active context, or binary64); returns (lu, perm).  A zero pivot,
    or a factor that is not finite, is a SingularJacobian."""
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
        inv = 1 / lu[col][col]
        for i in range(col + 1, n):
            factor = lu[i][col] * inv
            lu[i][col] = factor
            if factor:
                row_i, row_c = lu[i], lu[col]
                for j in range(col + 1, n):
                    if row_c[j]:
                        row_i[j] -= factor * row_c[j]
    if not all(map(_finite, lu)):
        raise SingularJacobian("LU factor not finite")
    return lu, perm


def _lu_solve_factored(lu, perm, b):
    """x with (L U) x = b permuted, in the arithmetic of the factors; a
    solution that is not finite is a SingularJacobian."""
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
    if not _finite(x):
        raise SingularJacobian("solution not finite")
    return x


def mat_inv(a, digits: int = 30):
    """Inverse of the square matrix a from its LU, in the arithmetic of its
    entries: Decimals rounded to ``digits``, binary64 as it rounds."""
    n = len(a)
    with decimal.localcontext(_context(digits)):
        lu, perm = lu_factor(a)
        return _rows([_lu_solve_factored(lu, perm, [int(i == k) for i in range(n)])
                      for k in range(n)])


#: significant digits the largest entry of a binary64 head keeps when the
#: head is written in decimal: one more than binary64 carries
_BINARY64_DIGITS = 17


def _binary64(m: int, scale: int) -> float:
    """m 10**-scale rounded to the nearest binary64 (int / int rounds once);
    inf beyond its range, which the LU refuses."""
    try:
        return m / 10 ** scale if scale >= 0 else float(m * 10 ** -scale)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def _grid_head(rows) -> tuple[list[list[int]], int]:
    """Binary64 rows as integers on one grid 10**-s on which the largest
    entry carries _BINARY64_DIGITS digits, and s: each entry's exact binary
    fraction num/den rounded to the grid (ties up) by integer arithmetic,
    so no decimal context is read."""
    top = max(abs(x) for row in rows for x in row)
    num, den = top.as_integer_ratio()
    decade = len(str(num // den)) if num >= den else 1 - len(str(den // num))
    scale = max(0, _BINARY64_DIGITS - decade)
    unit = 10 ** scale

    def on_grid(x: float) -> int:
        num, den = x.as_integer_ratio()
        return (2 * num * unit + den) // (2 * den)
    return [[on_grid(x) for x in row] for row in rows], scale


def build_lambda(kind: str, jac, digits: int = 30, lambda0: Decimal | None = None):
    """Frozen linear map approximating the inverse Jacobian.

    Matrix block: the inverse of ``jac``, the Jacobian's head on degrees
    0..K (any K up to N; :func:`frozen_map` gives K = min(N, HEAD_DEGREE)),
    by :func:`mat_inv` in the arithmetic of its entries: a Decimal head is
    inverted at ``digits`` digits, a binary64 head in binary64 and written
    as integers on a decimal grid (:func:`_grid_head`).  Tail scalar,
    acting on every degree above K: -1/lambda0**p with the kind's
    eigenvalue power p,
    so -1 for the fixed point (the derivative of T decays on high degrees,
    so the Jacobian is near minus identity there), -1/lambda0 for the
    parameter-scaling problem and -1/lambda0**2 for the noise problem.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    phi_power = KINDS.index(kind)
    if phi_power and not lambda0:
        raise ConfigError("eigen kinds need a nonzero lambda0 for the tail scalar")
    with decimal.localcontext(_context(digits)):
        tail = -_D1 / lambda0 ** phi_power if phi_power else -_D1
    head = mat_inv(jac, digits)
    if isinstance(head[0][0], float):
        return LinearMap(*_grid_head(head), tail)
    return LinearMap.from_decimals(head, tail)


def frozen_map(ctx: RoundingContext, problem: Problem, x0: FunctionBall,
               images: list[FunctionBall]) -> LinearMap:
    """Lam of :func:`certify`: the inverse of the midpoint rows 0..K of the
    column images k = 0..K, in binary64, tail -1/phi(x0)**p at the
    context's precision.  Lam need only approximate the inverse: kappa < 1
    proves the bounds and the bijection whatever Lam is (module docstring)."""
    k1 = len(images)
    cols = [[_binary64(m, b.scale) for m in (b.mid + [0] * k1)[:k1]] for b in images]
    lambda0 = exact_decimal(x0.mid[0] if x0.mid else 0, x0.scale)
    return build_lambda(problem.kind, _rows(cols), ctx.precision, lambda0=lambda0)


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
    (:meth:`column_images`) and the tail DF_p(x) f_H = A f_H - phi**p f_H,
    A's compositions controlled by theta factors.  ``tables`` hold M_p over
    the parameter ball for p >= 1; for p = 0 they are built over the ball
    the bounds receive, and the residual at its exact centre x0 reads T(x0)
    from them (:meth:`residual`), so one certificate builds them once."""

    def __init__(self, power: int, tables: OperatorTables | None = None):
        if power not in range(len(KINDS)):
            raise ConfigError(f"problem power must be 0, 1 or 2, got {power!r}")
        if power and tables is None:
            raise ConfigError(f"Problem({power}) needs the tables of M_{power} "
                              "over the parameter ball")
        if not power and tables is not None:
            raise ConfigError("Problem(0) builds its tables over the ball it is bounded on")
        self.power, self.kind, self.tables = power, KINDS[power], tables

    def _tables(self, ctx: RoundingContext, ball: FunctionBall) -> OperatorTables:
        if not self.power and (self.tables is None or self.tables.shared.source is not ball):
            self.tables = OperatorTables.build(ctx, ball)
        return self.tables

    def _phi_power(self, ctx: RoundingContext, phi_x: Interval) -> Interval:
        """phi**p, with phi**0 = 1."""
        if not self.power:
            return IONE
        return phi_x if self.power == 1 else ctx.isqr(phi_x)

    def _t(self, ctx: RoundingContext, x: FunctionBall) -> FunctionBall:
        """T(x).  For an exact x (no tails) at the centre of the ball the
        tables were built over, equal in mid, rad, scale and v_high, it is
        that ball's T without its error part: no error part reaches a
        midpoint or radius of the tables (operators.precompute_shared), and
        over x itself every error part is 0.  Otherwise from the shared
        evaluations over x."""
        s = self.tables.shared if self.tables is not None else None
        if s is None or x.v_err or x.v_high or replace(s.source, v_err=_D0) != x:
            return precompute_shared(ctx, x).t(ctx)
        return replace(s.t(ctx), v_err=_D0)

    def residual(self, ctx: RoundingContext, x: FunctionBall) -> FunctionBall:
        if not self.power:
            return fb.sub(ctx, self._t(ctx, x), x)
        # M_p through its named entry points, which perfbench traces by name
        operator = self.tables.dt_apply if self.power == 1 else self.tables.l_apply
        mult = self._phi_power(ctx, _phi(ctx, x))
        return fb.sub(ctx, operator(ctx, x), fb.scale(ctx, mult, x))

    def column_images(self, ctx: RoundingContext, x_ball: FunctionBall,
                      head_degree: int) -> list[FunctionBall]:
        """Columns DF_p(x) e_k over the ball, k = 0..head_degree (the ball
        twin of approx.jacobian_head): M_q e_k, plus -p phi**(p-1) x at
        k = 0, minus phi**p e_k, formed exactly and rounded outward once."""
        p, n = self.power, x_ball.truncation
        tables = self._tables(ctx, x_ball)
        if tables.shared.source.truncation != n:
            raise DomainMismatch("the tables and the ball differ in degree")
        column0, diagonal = fb.zero_ball(n), IONE
        if p:
            phi_x = _phi(ctx, x_ball)
            scaled = x_ball if p == 1 else fb.scale(ctx, ctx.iscale(phi_x, Decimal(p)), x_ball)
            column0, diagonal = fb.negate(ctx, scaled), self._phi_power(ctx, phi_x)
        d = fb.const_ball(n, ctx.ineg(diagonal))
        images = []
        for k in range(head_degree + 1):
            out = tables.basis_image(ctx, max(p, 1), k)
            if k == 0:
                out = fb.int_add(ctx, out, column0)
            shifted = fb.IntBall([0] * k + d.mid if d.mid else [], d.rad, d.scale,
                                 d.v_high, d.v_err)
            image = fb.int_outward(ctx, fb.int_add(ctx, out, shifted), n)
            images.append(FunctionBall.wrap(n, image))
        return images

    def tail_phi_factor(self, ctx: RoundingContext, x_ball: FunctionBall) -> Interval:
        """-phi**p over the ball."""
        return ctx.ineg(self._phi_power(ctx, _phi(ctx, x_ball)))

    def tail_channels(self, ctx: RoundingContext, x_ball: FunctionBall):
        """The two composition channels of M_q: a**-q through Q(G(a**2 X))
        and factor16**q through a**2 X, with their theta factors."""
        return self._tables(ctx, x_ball).channels[max(self.power, 1) - 1]

    def enclosures(self, ctx: RoundingContext, x0: FunctionBall, radius: Decimal,
                   newton_phi: Interval, newton_radius: Decimal) -> dict:
        """Certified constants for a solution within ``radius`` of x0 whose
        phi lies within ``newton_radius`` of the enclosure ``newton_phi`` of
        phi(Phi(x0)) (:func:`bound_epsilon`): the intersection of the two
        enclosures of phi."""
        old = _widened(ctx, _phi(ctx, x0), radius)
        new = _widened(ctx, newton_phi, newton_radius)
        enclosure = Interval(max(old.lo, new.lo), min(old.hi, new.hi))
        if self.power:
            return {("delta", "gamma")[self.power - 1]: enclosure}
        return {"a": enclosure, "alpha": ctx.idiv(IONE, enclosure)}


# -- bounds -----------------------------------------------------------------------

def _row0(lam: LinearMap) -> int:
    """max_j |Lam_0j| at the map's scale: coefficient 0 of Lam h for
    ||h|| <= v is at most this times v, as content above the head never
    reaches row 0."""
    return max(map(abs, lam.rows[0]))


def _row0_upper(ctx: RoundingContext, lam: LinearMap) -> Decimal:
    """max_j |Lam_0j| (:func:`_row0`), rounded up."""
    return ctx.scaled_up(_row0(lam), lam.scale)


def bound_epsilon(ctx: RoundingContext, problem: Problem, x0: FunctionBall,
                  lam: LinearMap) -> tuple[Decimal, FunctionBall, Interval]:
    """Upper bound of ||Lam F(x0)|| = ||Phi(x0) - x0||, the ball
    Phi(x0) = x0 - Lam F(x0), the Newton step, rounded outward once, and
    the enclosure of phi(Phi(x0)): x0's coefficient 0 minus row 0 of the
    head on F(x0)'s midpoints, exactly, widened by the row-0 readout
    (:func:`_row0`) of F(x0)'s rounding and error parts, not by the ||Lam||
    that Phi(x0)'s own radius and error part carry."""
    if x0.v_err != 0 or x0.v_high != 0:
        raise ConfigError("epsilon bound needs an exact center (no tail mass)")
    residual = problem.residual(ctx, x0)
    step = apply_lambda(ctx, lam, residual)
    n = x0.truncation
    newton = FunctionBall.wrap(
        n, fb.int_outward(ctx, fb.int_add(ctx, x0, fb.negate(ctx, step)), n))
    row0 = fb.IntBall([-sum(map(_imul, lam.rows[0], residual.mid))], _row0(lam) * residual.rad,
                      residual.scale + lam.scale, _D0,
                      ctx.mul_up(_row0_upper(ctx, lam), residual.v_err))
    phi = _phi(ctx, FunctionBall.wrap(n, fb.int_add(ctx, x0, row0)))
    return fb.norm_upper(ctx, step), newton, phi


def bound_kappa_columns(ctx: RoundingContext, images: list[FunctionBall],
                        lam: LinearMap) -> tuple[list[Decimal], Decimal]:
    """Bounds of ||DPhi(x) e_k|| = ||e_k - Lam image_k|| for k = 0..K, the
    head of the frozen map, from the column images DF_p(x) e_k over a ball
    (:meth:`Problem.column_images`), valid over it, in index order;
    :func:`bound_kappa_tail` covers every degree above K.  The frozen map
    acts exactly on each integer image and its norm is rounded up once.
    Also returns the bound of |coefficient 0| of every e_k - Lam image_k,
    the columns' part of kappa_phi (module docstring): its midpoint plus
    max_j |Lam_0j| times image_k's rounding and error parts
    (:func:`_row0`); the high part lies above N.
    """
    if len(images) != lam.dim:
        raise DimensionMismatch(f"{len(images)} column images for a head of {lam.dim}")
    bounds, row0, lam_row0 = [], _D0, _row0_upper(ctx, lam)
    for k, column in enumerate(images):
        image = _lambda_image(ctx, lam, column)
        image.mid[k] -= 10 ** image.scale
        bounds.append(fb.norm_upper(ctx, image))
        top = ctx.scaled_up(abs(image.mid[0]) + _row0(lam) * column.rad, image.scale)
        row0 = max(row0, ctx.add_up(top, ctx.mul_up(lam_row0, column.v_err)))
    return bounds, row0


def bound_kappa_tail(ctx: RoundingContext, problem: Problem, x_ball: FunctionBall,
                     lam: LinearMap) -> tuple[Decimal, Decimal]:
    """Bound of ||DPhi(x) f_H|| over all f_H of degree above K (the head
    degree of the frozen map) with ||f_H|| <= 1, and of |coefficient 0|
    of DPhi(x) f_H, the tail's part of kappa_phi.

    The disc is centred at 1, so with K >= 0, f_H(1) = 0 and phi(f_H) = 0,
    so the derivative acts as DF f_H = A f_H + q f_H where the compositions
    inside A are bounded by theta**(K+1) without expanding f_H.  The frozen
    map sends content of degree above K to tail_scalar times itself, leaving

        ||DPhi f_H|| <= |1 - q t| + ||Lam|| ||A f_H||.

    Coefficient 0 of f_H and of Lam (q f_H) is 0, and that of Lam A f_H is
    row 0 of the head matrix applied to A f_H, so its bound is
    max_j |Lam_0j| ||A f_H||.
    """
    k = _head_degree(lam, x_ball.truncation)
    q = problem.tail_phi_factor(ctx, x_ball)
    head = ctx.isub(IONE, ctx.iscale(q, lam.tail_scalar)).mag
    total = _D0
    for coeff_norm, theta in problem.tail_channels(ctx, x_ball):
        if theta >= 1:
            raise TailContractFailure(f"tail channel has theta = {theta} >= 1")
        total = ctx.add_up(total, ctx.mul_up(coeff_norm, ctx.pow_up(theta, k + 1)))
    return (ctx.add_up(head, ctx.mul_up(lambda_norm_upper(ctx, lam), total)),
            ctx.mul_up(_row0_upper(ctx, lam), total))


# -- certificates ------------------------------------------------------------------

@dataclass
class Certificate:
    """A certificate's bounds and verdict.  ``x0`` is the approximate zero
    and ``newton`` the ball Phi(x0); on success the enclosures read phi
    within kappa_phi r of phi(Phi(x0)) for the proven radius r (module
    docstring).  kappa_phi is the larger of
    its column part (:func:`bound_kappa_columns`) and its tail part
    (:func:`bound_kappa_tail`), as kappa is of kappa_columns_max and
    kappa_tail."""

    kind: str
    rho: Decimal
    epsilon: Decimal
    kappa: Decimal
    kappa_columns_max: Decimal
    kappa_tail: Decimal
    kappa_phi: Decimal
    kappa_phi_columns: Decimal
    kappa_phi_tail: Decimal
    head_degree: int
    passed: bool
    posterior_radius: Decimal | None
    enclosures: dict
    x0: FunctionBall
    newton: FunctionBall
    config: dict = field(default_factory=dict)

    @property
    def proven_radius(self) -> Decimal:
        """Tightest radius proven to hold the solution: min(rho, posterior)."""
        if self.posterior_radius is None:
            return self.rho
        return min(self.rho, self.posterior_radius)

    @property
    def step_radius(self) -> Decimal | None:
        """kappa r, exact, which bounds ||x* - Phi(x0)|| for the proven
        radius r; None for a failed certificate."""
        if not self.passed:
            return None
        return EXACT.multiply(self.kappa, self.proven_radius)

    def solution_ball(self, ctx: RoundingContext) -> FunctionBall:
        """A ball centred on x0 that holds Phi(x0) + B(0, kappa r), and so
        the solution: x0's midpoints, rad and scale, Phi(x0)'s high part,
        and as error part the sum of Phi(x0)'s, kappa r, and the exact l1
        distance of Phi(x0)'s midpoints plus its rad from x0's, formed at
        one scale and rounded up once.  A member Phi(x0)_P + d + h + e + b
        of the Newton ball (rounding part d, high part h, error part e and
        ||b|| <= kappa r) is x0_P + h plus (Phi(x0)_P - x0_P) + d + e + b.
        The operator tables keep an input's error parts out of every
        midpoint and radius (operators module docstring), so the tables over
        this ball hold the integers of those over B(x0, rho)."""
        if self.step_radius is None:
            raise ConfigError(f"{self.kind} certificate did not pass: no solution ball")
        x0, newton, step = self.x0, self.newton, self.step_radius
        parts = (newton.v_err, step)
        s = max(x0.scale, newton.scale, *(-p.as_tuple().exponent for p in parts if p))
        ux, un = 10 ** (s - x0.scale), 10 ** (s - newton.scale)
        shift = sum(abs(m * un - c * ux) for m, c in zip_longest(newton.mid, x0.mid, fillvalue=0))
        total = shift + newton.rad * un + sum(floor_at(p, s) for p in parts)
        return replace(x0, v_high=newton.v_high, v_err=ctx.scaled_up(total, s))

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
            "kappa_phi": str(self.kappa_phi),
            "kappa_phi_columns": str(self.kappa_phi_columns),
            "kappa_phi_tail": str(self.kappa_phi_tail),
            "head_degree": self.head_degree,
            "passed": self.passed,
            "posterior_radius": None if self.posterior_radius is None else str(self.posterior_radius),
            "step_radius": None if self.step_radius is None else str(self.step_radius),
            "enclosures": enc(self.enclosures),
            "config": self.config,
        }


def certify(ctx: RoundingContext, problem: Problem, x0: FunctionBall, rho,
            config: dict | None = None) -> Certificate:
    """Run the full contraction certificate for one problem: the column
    images k = 0..K, K = min(N, HEAD_DEGREE), the frozen map formed from
    them, epsilon, the kappa columns 0..K and the tail bound above K, and
    from the same images and tail sum kappa_phi for the Newton step.  The
    residual and the columns read one build of the operator tables.

    No separate invertibility proof of the frozen map runs: a passing
    kappa < 1 bounds ||I - Lam DF(x0)|| below 1, which makes Lam a
    bijection (module docstring), so the fixed points of the Newton-like
    operator are the zeros of the residual map.  The operator is
    well-defined and differentiable on the ball because its compositions
    are built over an inflated ball (this one for the fixed point, the
    parameter ball of the eigen problems' tables), which has v_err > 0, so
    both composition arguments must have theta < 1
    (operators.precompute_shared); theta < 1 maps the closed disc into the
    disc of radius theta r.  This is the one proof of the domain extension;
    a ball too wide for it raises CompositionContractFailure or
    NormalizationSingular.  On success returns the certificate with the
    certified enclosures, each the old phi(x0) +- r cut by the Newton
    step's phi(Phi(x0)) +- kappa_phi r; on a failed contraction inequality raises
    CertificationFailed carrying the diagnostic certificate.  No retuning or
    retry: rho and the precision are caller-chosen, failures are data.
    """
    rho = finite_decimal(rho, "rho")
    if rho <= 0:
        raise ConfigError("rho must be positive")
    ball = fb.inflate(ctx, x0, rho)
    images = problem.column_images(ctx, ball, min(x0.truncation, HEAD_DEGREE))
    lam = frozen_map(ctx, problem, x0, images)
    epsilon, newton, newton_phi = bound_epsilon(ctx, problem, x0, lam)
    columns, columns_phi = bound_kappa_columns(ctx, images, lam)
    col_max = max(columns)
    tail, tail_phi = bound_kappa_tail(ctx, problem, ball, lam)
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
        kappa_phi=max(columns_phi, tail_phi),
        kappa_phi_columns=columns_phi,
        kappa_phi_tail=tail_phi,
        head_degree=lam.dim - 1,
        passed=passed,
        posterior_radius=posterior,
        enclosures={},
        x0=x0,
        newton=newton,
        config=dict(config or {}),
    )
    if not passed:
        raise CertificationFailed(
            f"{problem.kind}: epsilon={epsilon} not below rho(1-kappa) "
            f"with rho={rho}, kappa={kappa}", certificate=cert)
    r = cert.proven_radius
    cert.enclosures = problem.enclosures(ctx, x0, r, newton_phi, ctx.mul_up(cert.kappa_phi, r))
    return cert
