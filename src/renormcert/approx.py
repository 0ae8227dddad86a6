"""Non-rigorous multi-precision numerics that bootstrap the certifier.

Produces the approximate fixed point G0 and the approximate eigenpairs for
the parameter-scaling and noise-scaling problems: the centres the
certificates start from (each certificate forms its own frozen map).
Everything here runs in round-to-nearest arithmetic, decimal inside a
local context or binary64 (below); no rounding state is shared with the
directed-rounding side.

Above degree K no matrix larger than the head is built or factored.  The
same block map B (the LU of a Jacobian's head, a tail scalar above K)
preconditions both iterations, with the operators applied matrix-free:

* fixed point: Newton's correction delta solves (DT - I) delta = -F by
  delta <- delta - B((DT - I) delta + F) (inexact Newton; Dembo,
  Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982), on a ladder of
  doubling degrees 20, 40, ..., N from a tabulated degree-20 fixed point;
  each rung m below N stops at its truncation level, a residual below
  |g_m|/100, and only the top rung goes on to 10**-(P-6);
* eigenpairs: shifted inverse iteration on the head of M_p finds the
  eigenvalue nearest a literature hint s (4.669 for delta, 6.619**2 for
  gamma**2), at the rate |lambda - s|/|lambda' - s| per step, lambda'
  the next nearest eigenvalue; the zero-padded head eigenvector is then
  refined by x <- x - B(M_p x - x[0]**p x), the certificate's own
  Newton-like map.

The operators are evaluated by an integer midpoint engine
(:class:`_MidShared`): every polynomial it holds is a list of integers at
the scale 10**-(P+6), P the working precision, products are exact
(``balls._conv``) and rounded to nearest at that scale, and each
composition argument has a power table of the shape of
``balls.PowerTable``, midpoints only: baby powers u**0..u**20 and the
giant step u**21, composing by exact block dot products and Horner in the
giant step (Paterson-Stockmeyer).  A build forms what T(g) reads; the
derivative terms of M_q are formed on first use, so a residual check that
passes makes no derivative product.  T(g) and M_q(g) v come back to
Decimal exactly, and the iterations form their residuals in Decimal.
The fixed-point bootstrap hands back the build its last residual check
made, at g0: the one build both eigen bootstraps read, in any process
(:func:`fixed_point_with_build`, :func:`eigenpair_from_build`).

The block map B is factored and applied in binary64 (IEEE double), and
so is the head inverse iteration when the refinement follows it (K < N):
both only precondition or seed iterations whose stopping tests read
Decimal residuals, so binary64 sets how fast they converge, not the
tolerance they meet.  At N <= K the head eigenvector is the result, and its
inverse iteration runs in Decimal.  Nothing here is part of a proof: the
certificates bound whatever centre they are given.

Polynomials are plain lists of Decimal coefficients in the scaled-monomial
basis e_k(z) = ((z - c)/r)**k of the standard disc (c, r) = (1, 2.5); the
truncation degree is the length of the list minus one.
"""

from __future__ import annotations

import decimal
import math
import sys
from decimal import Decimal
from functools import cached_property

from . import contraction
from .balls import BABY_STEPS, STANDARD_DISC, _add_lists, _conv, _dots
from .contraction import (KINDS, _context, _lu_solve_factored, _rows, build_lambda, lu_factor,
                          mat_inv)
from .errors import (
    ConfigError,
    EigenSelectionAmbiguous,
    NewtonDivergence,
)
from .rounding import EXACT

__all__ = [
    "approx_fixed_point",
    "fixed_point_with_build",
    "midpoint_build",
    "approx_jacobian",
    "approx_eigenpair",
    "eigenpair_from_build",
    "build_lambda",
    "mat_inv",
]

_D0 = Decimal(0)
_D1 = Decimal(1)
_D2 = Decimal(2)
_C, _R = STANDARD_DISC.center, STANDARD_DISC.radius

#: the degree-20 fixed point to 30 digits, G(X) on the standard disc: the
#: seed of the fixed-point bootstrap, read in the working context (so
#: rounded to P digits) and truncated below degree 20.  Newton from the
#: classical g(x) ~ 1 - 1.5276 x**2 regenerates it (tests/helpers.py,
#: ``oracle_fixed_point(20, 30)``).
_SEED_G20 = (
    "-0.399535280523134489832089852826",
    "-3.12863484386986602760214179445",
    "1.03067273093287408586726393407",
    "0.216018100984437012849690527830",
    "-0.110662021504520631336476467893",
    "0.0173426230041387442505194276065",
    "0.00168067057675178815370075999288",
    "-0.00148004157887373636682158077123",
    "0.000165323960077417140976374436366",
    "0.0000562501188316091488779947959304",
    "-0.0000176592866143379962628048061376",
    "-8.65575219647902204323921939114E-8",
    "0.00000105406087850415777248218632928",
    "-2.32355499259027574505989076461E-7",
    "-7.56754362196329097532190579216E-9",
    "1.50923352416011022288183679578E-8",
    "-3.09419580965327002118238386049E-9",
    "-1.04213418934726870506268351400E-10",
    "1.86348976887171423267223577328E-10",
    "-3.53501949054178709122485646352E-11",
    "-2.10776870377192232038980413586E-12",
)

#: literature values of delta and gamma: the bootstrap takes the eigenvalue
#: nearest hint**p (p = 1 for delta, 2 for gamma); rigor comes from the
#: certificate.
_EIGEN_HINT = {"delta": Decimal("4.669"), "gamma": Decimal("6.619")}

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


# -- integer midpoint engine ------------------------------------------------------

def _rounded(xs: list[int], unit: int) -> list[int]:
    """xs / unit, each rounded to nearest (ties up), for unit a power of 10."""
    half = unit >> 1
    return [(x + half) // unit for x in xs]


def _quotient(num: int, den: int) -> int:
    """num/den rounded to nearest, ties up."""
    if den < 0:
        num, den = -num, -den
    return (2 * num + den) // (2 * den)


class _MidTable:
    """Midpoint power table of a composition argument u, the shape of
    ``balls.PowerTable`` without radii: the baby powers u**0..u**(b-1),
    b = min(count, BABY_STEPS), and the giant step U = u**BABY_STEPS when
    count > BABY_STEPS, each cut to ``width`` coefficients, for composing
    polynomials of up to ``count`` coefficients.

    Every entry is an integer at the scale 1/``unit``; row i of ``rows``
    holds coefficient i of every baby power.  Each power from u**2 on is
    the exact product (``balls._conv``) of the previous one and u, rounded
    to nearest; ``_conv`` drops the trailing zeros of u, so an affine u
    costs O(width) per power.
    """

    def __init__(self, u: list[int], count: int, width: int, unit: int):
        self.unit = unit
        last = min(count - 1, BABY_STEPS)
        powers = [[unit], u[:width]][:last + 1]
        for _ in range(2, last + 1):
            powers.append(_rounded(_conv(powers[-1], u, width - 1), unit))
        self.rows = tuple(zip(*(p + [0] * (width - len(p)) for p in powers[:BABY_STEPS])))
        self.giant = powers[BABY_STEPS] if last == BABY_STEPS else None

    def power(self, k: int, width: int) -> list[int]:
        """Baby power u**k cut to ``width`` coefficients."""
        return [row[k] for row in self.rows[:width]]

    def compose(self, f: list[int]) -> list[int]:
        """f o u, f at the table's scale: Paterson-Stockmeyer evaluation.
        f splits into blocks B_i = sum_{j<b} f_{ib+j} u**j, each an exact
        dot product with the baby powers, rounded; Horner in U,
        acc <- round(acc U) + B_i, runs from the top block."""
        b, unit = len(self.rows[0]), self.unit
        while f and not f[-1]:
            f = f[:-1]
        acc = None
        for i in reversed(range(0, len(f), b)):
            block = _rounded(_dots(f[i:i + b], self.rows), unit)
            if acc is not None:
                block = _add_lists(_rounded(_conv(acc, self.giant, len(self.rows) - 1), unit),
                                   block)
            acc = block
        return acc or []


class _MidShared:
    """Midpoint analogue of the shared operator evaluations at g, from which
    T(g) is read and M_q(g) is applied (DT = M_1, L = M_2), with the terms
    and field names of ``operators.SharedEvaluations`` and
    ``operators.OperatorTables``.

    Integer-resident: g is read once at the scale 10**-(P+6), P the context
    precision, and every scalar, polynomial and power table is held as
    integers at that scale; products and compositions are exact integer
    arithmetic rounded to nearest once per product, per block and per
    giant step.  :meth:`t` and :meth:`apply` convert to Decimal, exactly,
    only at their boundary.  The terms only M_q reads (factor16,
    factor16_sq, factor17 and the compositions of G' in them) are formed
    on first use and kept; being integer arithmetic at the build's scale,
    they do not depend on when that is.

    With ``width`` = K + 1 below N + 1 (:func:`approx_jacobian`), every
    polynomial is cut to its coefficients 0..K, and :meth:`head` gives the
    head of the full matrix of M_q digit for digit: truncated products,
    blocks and giant steps are causal and rounded coefficient by coefficient.
    """

    def __init__(self, g, width: int | None = None):
        n = len(g) - 1
        self.width = width = n + 1 if width is None else width
        self.scale = decimal.getcontext().prec + 6
        self.unit = unit = 10 ** self.scale
        a = self._int(g[0])   # G(1): e_k(1) = 0 for k >= 1
        if not a:
            raise NewtonDivergence("normalisation a = G(1) vanished")
        a2 = self._scaled(a, [a])[0]
        self.a_inv = _quotient(unit * unit, a)
        self.a_inv2 = self._scaled(self.a_inv, [self.a_inv])[0]
        c, r = self._int(_C), self._int(_R)
        inv_r = _quotient(unit * unit, r)
        g_int = [self._int(x) for x in g]
        gd = _rounded([(k + 1) * x * inv_r for k, x in enumerate(g_int[1:])], unit)

        def table(h):
            """Power table of the normalized argument (h - c)/r."""
            u = self._scaled(inv_r, [h[0] - c] + h[1:])
            return _MidTable(u, n + 1, width, unit)

        self.table_affine = table(self._scaled(a2, [c, r]))
        inner = self.table_affine.compose(g_int)
        self.table_squared = table(self._mul(inner, inner))
        self.outer_comp = self.table_squared.compose(g_int)
        self._gd, self._inner, self._x_line = gd, inner, self._scaled(2 * a, [c, r])

    @cached_property
    def factor16(self) -> list[int]:
        """2 a**-1 G'(Q(G(a**2 X))) G(a**2 X)."""
        return self._mul(self.table_squared.compose(self._gd),
                         self._scaled(2 * self.a_inv, self._inner))

    @cached_property
    def factor16_sq(self) -> list[int]:
        return self._mul(self.factor16, self.factor16)

    @cached_property
    def factor17(self) -> list[int]:
        """factor16 G'(a**2 X) 2 a X."""
        return self._mul(self._mul(self.factor16, self.table_affine.compose(self._gd)),
                         self._x_line)

    def _int(self, x: Decimal) -> int:
        return round(x.scaleb(self.scale, EXACT))

    def _mul(self, f: list[int], h: list[int], width: int | None = None) -> list[int]:
        """f h to degree width - 1, rounded."""
        return _rounded(_conv(f, h, (width or self.width) - 1), self.unit)

    def _scaled(self, s: int, f: list[int]) -> list[int]:
        """s f, rounded."""
        return _rounded([s * x for x in f], self.unit)

    def _decimals(self, f: list[int], width: int) -> list[Decimal]:
        """f cut or padded to ``width`` coefficients, exactly in Decimal."""
        out = [Decimal(x).scaleb(-self.scale, EXACT) for x in f[:width]]
        return out + [_D0] * (width - len(out))

    def _image(self, q: int, c2: list[int], c1: list[int], v0: int, width: int):
        """M_q v to ``width`` coefficients from c2 = v(Q(g(a**2 X))),
        c1 = v(a**2 X) and v0 = v(1)."""
        scalar, factor = ((self.a_inv, self.factor16) if q == 1
                          else (self.a_inv2, self.factor16_sq))
        out = _add_lists(self._scaled(scalar, c2[:width]), self._mul(factor, c1, width))
        if q == 1 and v0:
            da = -self._scaled(self.a_inv2, [v0])[0]   # -a**-2 v(1)
            out = _add_lists(out, self._scaled(da, self.outer_comp[:width]))
            out = _add_lists(out, self._scaled(v0, self.factor17[:width]))
        return self._decimals(out, width)

    def t(self):
        """T(g)."""
        return self._decimals(self._scaled(self.a_inv, self.outer_comp), self.width)

    def apply(self, q: int, v):
        """M_q(g) v: a**-q v(Q(g(a**2 X))) + factor16**q v(a**2 X), and for
        q = 1 (DT) the variations of the normalisation a, which act when
        v(1) = v[0] on the standard disc is nonzero; q = 2 is L."""
        v_int = [self._int(x) for x in v]
        return self._image(q, self.table_squared.compose(v_int),
                           self.table_affine.compose(v_int), v_int[0], self.width)

    def head(self, q: int, width: int):
        """Rows of the width x width head of M_q(g), width <= BABY_STEPS:
        column k is the image of e_k, read off the baby powers u2**k and
        u1**k, the compositions of e_k."""
        return _rows([self._image(q, self.table_squared.power(k, width),
                                  self.table_affine.power(k, width),
                                  self.unit if k == 0 else 0, width)
                      for k in range(width)])


def jacobian_head(m_head, power: int, x=None):
    """Rows of the head of DF = M_q - lambda**p I - p lambda**(p-1) x e_0^T,
    p = ``power`` and lambda = x[0], from the rows ``m_head`` of the head of
    M_q, q = max(p, 1); the fixed point is p = 0, DF = DT - I.

    Each entry repeats the operations of DF applied to a unit vector e_k:
    lambda**p e_k is subtracted from every entry of column k, off the
    diagonal as lambda**p times 0, so the entries carry the decimal
    exponents of the probed ones."""
    lam_p = x[0] ** power if power else _D1
    rows = []
    for i, row in enumerate(m_head):
        out = [m - lam_p * (_D1 if k == i else _D0) for k, m in enumerate(row)]
        if power:
            out[0] -= Decimal(power) * x[0] ** (power - 1) * x[i]
        rows.append(out)
    return rows


# -- dense linear algebra ------------------------------------------------------

def _block_map(head, tail):
    """v -> B v for the block map B: the inverse of the square matrix
    ``head`` on coefficients 0..len(head)-1, ``tail`` times the identity
    above.  The head is factored and solved in binary64: B only
    preconditions iterations whose residuals are formed in Decimal, so its
    accuracy sets their rate, not their result.  A head solve reads v
    scaled by a power of ten, exactly, so that binary64's exponent range
    never meets the size of a residual."""
    lu, perm = lu_factor([[float(m) for m in row] for row in head])
    width = len(head)

    def apply(v):
        head_part = v[:width]
        shift = max((x.adjusted() for x in head_part if x), default=0)
        y = _lu_solve_factored(lu, perm, [float(x.scaleb(-shift, EXACT)) for x in head_part])
        return [Decimal(x).scaleb(shift, EXACT) for x in y] + [tail * x for x in v[width:]]
    return apply


def _mat_vec(a, v):
    """a v, each sum formed left to right in the arithmetic of the entries
    (``sum`` of floats rounds differently across Python versions)."""
    out = []
    for row in a:
        s = 0
        for m, x in zip(row, v):
            if x:
                s += m * x
        out.append(s)
    return out


def _sup_norm(v):
    return max((abs(x) for x in v), default=_D0)


# -- fixed point ----------------------------------------------------------------

def _stage_ladder(n: int) -> list[int]:
    stages, m = [], 20
    while m < n:
        stages.append(m)
        m = min(2 * m, n)
    stages.append(n)
    return stages


def _newton_correction(shared, width: int, residual, tol, max_steps: int):
    """delta with (DT - I) delta = -residual, DT = M_1 of the ``shared``
    evaluations.  delta <- delta - B((DT - I) delta + residual) from
    delta = 0, B the block map on the width x width head of DT - I with
    tail -1, until a step is below tol/100, for at most ``max_steps``
    steps.  B's head is solved in binary64, so even a head that is the
    whole Jacobian (degree 20 and below) takes more than one step."""
    block = _block_map(jacobian_head(shared.head(1, width), 0), -_D1)
    delta = block([-r for r in residual])
    for _ in range(max_steps):
        step = block(p_add(p_sub(shared.apply(1, delta), delta), residual))
        delta = p_sub(delta, step)
        if _sup_norm(step) < tol / 100:
            return delta
    raise NewtonDivergence(
        f"inexact Newton step at degree {len(residual) - 1}: no step below "
        f"{tol / 100} in {max_steps} steps")


def _rung_tolerance(tg, tol, top: bool):
    """Residual below which a rung of degree m = len(tg) - 1 stops, from
    tg = T(g): ``tol`` on the top rung; below it max(tol, |g_m|/100),
    since truncation at degree m leaves an error of about the size of the
    last coefficient.  g_m is read off T(g): on a rung's first iterate g
    is zero-padded, g_m = 0, while T(g) already carries the coefficient,
    so that the first correction's inner steps also stop at the
    truncation level."""
    return tol if top else max(tol, abs(tg[-1]) / 100)


def approx_fixed_point(n: int, digits: int) -> list[Decimal]:
    """Polynomial approximation to the fixed point, residual below 10**-(digits-6).

    Bootstraps deterministically: Newton from the tabulated degree-20 fixed
    point (``_SEED_G20``, rounded to ``digits`` and truncated to degree n
    when n < 20), then continuation through doubling degrees.  Each rung
    below n stops at its truncation level (:func:`_rung_tolerance`); the
    top rung reaches 10**-(digits-6).  Each Newton correction is solved
    through the block map on the head of the Jacobian
    (:func:`_newton_correction`).
    """
    return fixed_point_with_build(n, digits)[0]


def fixed_point_with_build(n: int, digits: int):
    """:func:`approx_fixed_point` g0 and the midpoint build of g0 that
    its last residual check made, which :func:`eigenpair_from_build`
    reads as :func:`midpoint_build` would make it."""
    if n < 2:
        raise ConfigError("need truncation degree >= 2")
    if digits < 10:
        raise ConfigError("need at least 10 digits")
    with decimal.localcontext(_context(digits)):
        g = [+Decimal(x) for x in _SEED_G20[:n + 1]]
        tol = Decimal(10) ** -(digits - 6)
        max_iter = 50
        for stage_n in _stage_ladder(n):
            g = _pad(g, stage_n + 1)
            width = min(stage_n, contraction.HEAD_DEGREE) + 1
            for _ in range(max_iter):
                shared = _MidShared(g)
                tg = shared.t()
                residual = p_sub(tg, g)
                rung_tol = _rung_tolerance(tg, tol, stage_n == n)
                if _sup_norm(residual) < rung_tol:
                    break
                g = p_add(g, _newton_correction(shared, width, residual, rung_tol, digits))
            else:
                raise NewtonDivergence(
                    f"no convergence below {rung_tol} in {max_iter} iterations")
        return g, shared


def midpoint_build(g0, digits: int):
    """The midpoint evaluations at g0 (:class:`_MidShared`) at ``digits``
    digits, which :func:`eigenpair_from_build` reads."""
    with decimal.localcontext(_context(digits)):
        return _MidShared(g0)


# -- eigenpairs -------------------------------------------------------------------

#: the binary64 head iteration stops at a residual below this many units
#: of binary64's precision times ||M|| max(1, |x|): the rounding of M x
#: sits near one such unit (about 1.3 for the gamma head, whose ||M|| is 56)
_BINARY64_ULPS = 64


def _power(x, p: int):
    """x**p, p = 1 or 2; binary64 by a product, as ``**`` of floats is the
    platform's pow."""
    if isinstance(x, float):
        return x if p == 1 else x * x
    return x ** p


def _inverse_iteration(a, shift, phi_power: int, digits: int):
    """Eigenvector x of the matrix ``a`` for its eigenvalue lambda nearest ``shift``,
    scaled so that x[0]**phi_power = lambda (phi_power 1 or 2), in the
    arithmetic of the entries: Decimal in the active context, or binary64.

    From x = e_0, with M - shift I factored once: y = (M - shift I)**-1 x,
    lambda = shift + x[0]/y[0], x = y lambda**(1/phi_power) / y[0], until
    |M x - x[0]**phi_power x| < tol max(1, |x|), for at most ``digits``
    steps: tol is 10**-(digits-6) in Decimal, and in binary64
    _BINARY64_ULPS units of its precision times ||M||, the sup-norm.
    """
    lu, perm = lu_factor([[m - shift if i == j else m for j, m in enumerate(row)]
                          for i, row in enumerate(a)])
    if isinstance(shift, float):
        norm = max(math.fsum(map(abs, row)) for row in a)
        tol = _BINARY64_ULPS * sys.float_info.epsilon * norm
    else:
        tol = Decimal(10) ** -(digits - 6)
    x = [1] + [0] * (len(a) - 1)
    for _ in range(digits):
        y = _lu_solve_factored(lu, perm, x)
        if not y[0]:
            raise EigenSelectionAmbiguous("eigenvector has vanishing constant coefficient")
        lam = shift + x[0] / y[0]
        if phi_power == 2 and lam <= 0:
            raise EigenSelectionAmbiguous(f"eigenvalue nearest the shift {shift} not positive")
        if phi_power == 2:
            lam = math.sqrt(lam) if isinstance(lam, float) else lam.sqrt()
        x = p_scale(lam / y[0], y)
        residual = p_sub(_mat_vec(a, x), p_scale(_power(x[0], phi_power), x))
        if _sup_norm(residual) < tol * max(1, _sup_norm(x)):
            return x
    raise EigenSelectionAmbiguous(
        f"inverse iteration at the shift {shift} did not converge in {digits} steps")


def _refine_eigenpair(shared, m_head, kind: str, x, digits: int):
    """x <- x - B(M_p x - x[0]**p x) from the padded head eigenvector x,
    B the block map on the head Jacobian at x, formed from the head
    ``m_head`` of M_p, with tail -1/x[0]**p, until the residual passes the
    Decimal test of :func:`_inverse_iteration`, for at most ``digits``
    steps."""
    power = KINDS.index(kind)
    block = _block_map(jacobian_head(m_head, power, x), -_D1 / x[0] ** power)
    tol = Decimal(10) ** -(digits - 6)
    for _ in range(digits):
        residual = p_sub(shared.apply(power, x), p_scale(x[0] ** power, x))
        if _sup_norm(residual) < tol * max(_D1, _sup_norm(x)):
            return x
        x = p_sub(x, block(residual))
    raise EigenSelectionAmbiguous(
        f"{kind} refinement above degree {len(m_head) - 1} did not converge "
        f"in {digits} steps")


def approx_eigenpair(kind: str, g0, digits: int) -> tuple[list[Decimal], Decimal]:
    """Approximate eigenfunction and eigenvalue, normalised so coeff0 = eigenvalue.

    kind 'delta': the eigenvalue of the derivative of T nearest the
    literature value 4.669 of the parameter-scaling constant.
    kind 'gamma': the eigenvalue of the noise operator nearest 6.619**2;
    the returned scalar is its square root.
    Both come from shifted inverse iteration with that shift s on the head
    of the operator, degrees 0..K, K = min(N, HEAD_DEGREE), which converges
    at the rate |lambda - s|/|lambda' - s| per step, lambda' being the
    eigenvalue next nearest s.  Below N the zero-padded head eigenvector is
    refined matrix-free (:func:`_refine_eigenpair`), and the head
    iteration, which need only seed it, runs in binary64; at N <= K it is
    the result and runs in Decimal.  EigenSelectionAmbiguous is raised
    when either iteration does not converge in ``digits`` steps.  It makes
    its own build, so the pipeline never calls it: it serves the benchmark's
    set-up, the tests and demo 04.
    """
    return eigenpair_from_build(kind, midpoint_build(g0, digits), digits)


def eigenpair_from_build(kind: str, shared, digits: int) -> tuple[list[Decimal], Decimal]:
    """:func:`approx_eigenpair` at the g0 of a midpoint build (from
    :func:`midpoint_build` or :func:`fixed_point_with_build` at the same
    ``digits``): the pipeline's one build serves both kinds, in any process."""
    if kind not in _EIGEN_HINT:
        raise ConfigError(f"unknown eigenpair kind {kind!r}")
    phi_power = KINDS.index(kind + "_eigen")
    n1 = shared.width
    width = min(n1, contraction.HEAD_DEGREE + 1)
    with decimal.localcontext(_context(digits)):
        m_head = shared.head(phi_power, width)
        shift = _EIGEN_HINT[kind] ** phi_power
        if width == n1:
            vec = _inverse_iteration(m_head, shift, phi_power, digits)
        else:
            head = [[float(m) for m in row] for row in m_head]
            vec = _inverse_iteration(head, float(shift), phi_power, digits)
            vec = _refine_eigenpair(shared, m_head, kind + "_eigen",
                                    _pad([Decimal(x) for x in vec], n1), digits)
        return vec, vec[0]


# -- jacobian heads ----------------------------------------------------------------

def approx_jacobian(kind: str, g0, x0=None, digits: int = 30):
    """Head block of the truncated Jacobian of the residual map of ``kind``
    at g0 (and x0 for the eigen kinds), rows and columns 0..K, K = min(N,
    contraction.HEAD_DEGREE): :func:`jacobian_head` of the head of M_q, read
    off the baby powers of shared evaluations cut to degree K.  Only the
    benchmark's set-up and tests call it.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    power = KINDS.index(kind)
    if power and x0 is None:
        raise ConfigError("eigen jacobians need the approximate eigenfunction")
    width = min(len(g0), contraction.HEAD_DEGREE + 1)
    with decimal.localcontext(_context(digits)):
        shared = _MidShared(g0, width)
        x = None if x0 is None else _pad(list(x0), width)
        return jacobian_head(shared.head(max(power, 1), width), power, x)
