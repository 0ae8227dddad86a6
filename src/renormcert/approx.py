"""Non-rigorous multi-precision numerics that bootstrap the certifier.

Produces the approximate fixed point G0 and the approximate eigenpairs for
the parameter-scaling and noise-scaling problems: the centres the
certificates start from (each certificate forms its own frozen map).
Everything here runs in round-to-nearest arithmetic, on integers at the
engine's scale 10**-(P+6), P the working precision, or in binary64 (below);
no rounding state is shared with the directed-rounding side.

Above degree K no matrix larger than the head is built or factored.  The
same block map B (the LU of a Jacobian's head, a tail scalar above K)
preconditions both iterations, with the operators applied matrix-free:

* fixed point: Newton's correction delta solves (DT - I) delta = -F by
  delta <- delta - B((DT - I) delta + F) (inexact Newton; Dembo,
  Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982), on a ladder of
  doubling degrees 20, 40, ..., N from a tabulated degree-20 fixed point;
  each rung m below N stops at its truncation level, a residual below
  |g_m|/100, and only the top rung goes on to 10**-(P-6); a rung below N
  checks its residual on a build at the next rung's width, which is the
  next rung's first build when the check passes;
* eigenpairs: shifted inverse iteration on the head of M_p finds the
  eigenvalue nearest a literature hint s (4.669 for delta, 6.619**2 for
  gamma**2), at the rate |lambda - s|/|lambda' - s| per step, lambda'
  the next nearest eigenvalue; at every degree the zero-padded head
  eigenvector is then refined by x <- x - B(M_p x - x[0]**p x), the
  certificate's own Newton-like map.

Every iterate (g, its Newton corrections and residuals, the eigenvectors
and their refinement steps) is a list of integers at the engine's scale,
and so is every polynomial of the midpoint engine (:class:`_MidShared`)
that evaluates the operators: products are exact (``balls._conv``, and
``balls._sqr`` for a square) and
rounded to nearest at that scale, and each composition argument has a
power table of the shape of ``balls.PowerTable``, midpoints only: baby
powers u**0..u**20 and the giant step u**21, composing by exact block
dot products and Horner in the giant step (Paterson-Stockmeyer).  A
build forms what T(g) reads; the derivative terms of M_q are formed on
first use, so a residual check that passes makes no derivative product.
The fixed-point bootstrap hands back the build its last residual check
made, at g0: the one build both eigen bootstraps read, in any process
(:func:`fixed_point_with_build`, :func:`eigenpair_from_build`).  Decimal
appears only at the edges: the seed is read in, the centres and
:func:`approx_jacobian`'s head go out exactly, and a centre read back
gives the same integers.

The block map B is factored and applied in binary64 (IEEE double), and so
is the head inverse iteration: both only precondition or seed iterations
whose stopping tests read integer residuals, so binary64 sets how fast
they converge, not the tolerance they meet.  Nothing here is part of a
proof: the certificates bound whatever centre they are given.  Polynomials
are coefficient lists in the scaled-monomial basis e_k(z) = ((z - c)/r)**k
of the standard disc (c, r) = (1, 2.5).
"""

from __future__ import annotations

import math
import operator
import sys
from decimal import Decimal
from functools import cached_property

from . import contraction
from .balls import BABY_STEPS, STANDARD_DISC, _add_lists, _conv, _dots, _padded, _sqr
from .contraction import KINDS, _lu_solve_factored, _rows, build_lambda, lu_factor, mat_inv
from .errors import ConfigError, EigenSelectionAmbiguous, NewtonDivergence, SingularJacobian
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

#: digits the engine carries below the working precision P: every integer
#: is at the scale 10**-(P + _GUARD), and an iteration stops below
#: 10**-(P - _GUARD), _TOL units of that scale
_GUARD = 6
_TOL = 10 ** (2 * _GUARD)

#: the degree-20 fixed point to 30 digits, G(X) on the standard disc: the
#: seed of the fixed-point bootstrap, read at the engine's scale (so
#: rounded to 10**-(P+6)) and truncated below degree 20.  Newton from the
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
_EIGEN_HINT = {"delta": 4.669, "gamma": 6.619}

# -- the edges: Decimal in and out ------------------------------------------

def _read(xs, scale: int) -> list[int]:
    """Decimals (or their strings) as integers at 10**-scale, rounded."""
    return [round(Decimal(x).scaleb(scale, EXACT)) for x in xs]


def _written(xs: list[int], scale: int) -> list[Decimal]:
    """Integers at 10**-scale as Decimals, exactly."""
    return [Decimal(x).scaleb(-scale, EXACT) for x in xs]


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
    holds coefficient i of every baby power.  From u**2 on, an even power
    u**(2j) is the exact square of u**j (``balls._sqr``) and an odd one the
    exact product of the previous one and u (``balls._conv``), each rounded
    to nearest; both drop trailing zeros, so an affine u costs little per
    power.
    """

    def __init__(self, u: list[int], count: int, width: int, unit: int):
        self.unit = unit
        last = min(count - 1, BABY_STEPS)
        powers = [[unit], u[:width]][:last + 1]
        for k in range(2, last + 1):
            p = (_sqr(powers[k // 2], width - 1) if k % 2 == 0
                 else _conv(powers[-1], u, width - 1))
            powers.append(_rounded(p, unit))
        self.rows = tuple(zip(*(_padded(p, width - 1) for p in powers[:BABY_STEPS])))
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

    Integer-resident: g, every argument and every result is a list of
    integers at the scale 10**-(P+6), P = ``digits``, and so is every
    scalar, polynomial and power table; products and compositions are
    exact integer arithmetic rounded to nearest once per product, per block
    and per giant step.  The terms only M_q reads (factor16, factor16_sq,
    factor17 and the compositions of G' in them) are formed on first use
    and kept; being integer arithmetic at the build's scale, they do not
    depend on when that is.

    With ``width`` = K + 1 below N + 1 (:func:`approx_jacobian`), every
    polynomial is cut to its coefficients 0..K, and :meth:`head` gives the
    head of the full matrix of M_q digit for digit: truncated products,
    blocks and giant steps are causal and rounded coefficient by coefficient.
    """

    def __init__(self, g: list[int], digits: int, width: int | None = None):
        n = len(g) - 1
        self.width = width = n + 1 if width is None else width
        self.scale = digits + _GUARD
        self.unit = unit = 10 ** self.scale
        a = g[0]   # G(1): e_k(1) = 0 for k >= 1
        if not a:
            raise NewtonDivergence("normalisation a = G(1) vanished")
        a2 = self._scaled(a, [a])[0]
        self.a_inv = _quotient(unit * unit, a)
        self.a_inv2 = self._scaled(self.a_inv, [self.a_inv])[0]
        c, r = STANDARD_DISC.at(self.scale)
        inv_r = _quotient(unit * unit, r)
        gd = _rounded([(k + 1) * x * inv_r for k, x in enumerate(g[1:])], unit)

        def table(h):
            """Power table of the normalized argument (h - c)/r."""
            u = self._scaled(inv_r, [h[0] - c] + h[1:])
            return _MidTable(u, n + 1, width, unit)

        self.table_affine = table(self._scaled(a2, [c, r]))
        inner = self.table_affine.compose(g)
        self.table_squared = table(self._sqr(inner))
        self.outer_comp = self.table_squared.compose(g)
        self._gd, self._inner, self._x_line = gd, inner, self._scaled(2 * a, [c, r])

    @cached_property
    def factor16(self) -> list[int]:
        """2 a**-1 G'(Q(G(a**2 X))) G(a**2 X)."""
        return self._mul(self.table_squared.compose(self._gd),
                         self._scaled(2 * self.a_inv, self._inner))

    @cached_property
    def factor16_sq(self) -> list[int]:
        return self._sqr(self.factor16)

    @cached_property
    def factor17(self) -> list[int]:
        """factor16 G'(a**2 X) 2 a X."""
        return self._mul(self._mul(self.factor16, self.table_affine.compose(self._gd)),
                         self._x_line)

    def _mul(self, f: list[int], h: list[int], width: int | None = None) -> list[int]:
        """f h to degree width - 1, rounded."""
        return _rounded(_conv(f, h, (width or self.width) - 1), self.unit)

    def _sqr(self, f: list[int]) -> list[int]:
        """f**2 to degree width - 1, rounded."""
        return _rounded(_sqr(f, self.width - 1), self.unit)

    def _scaled(self, s: int, f: list[int]) -> list[int]:
        """s f, rounded."""
        return _rounded([s * x for x in f], self.unit)

    def _image(self, q: int, c2: list[int], c1: list[int], v0: int, width: int) -> list[int]:
        """M_q v to ``width`` coefficients from c2 = v(Q(g(a**2 X))),
        c1 = v(a**2 X) and v0 = v(1)."""
        scalar, factor = ((self.a_inv, self.factor16) if q == 1
                          else (self.a_inv2, self.factor16_sq))
        out = _add_lists(self._scaled(scalar, c2[:width]), self._mul(factor, c1, width))
        if q == 1 and v0:
            da = -self._scaled(self.a_inv2, [v0])[0]   # -a**-2 v(1)
            out = _add_lists(out, self._scaled(da, self.outer_comp[:width]))
            out = _add_lists(out, self._scaled(v0, self.factor17[:width]))
        return _padded(out, width - 1)

    def t(self) -> list[int]:
        """T(g)."""
        return _padded(self._scaled(self.a_inv, self.outer_comp), self.width - 1)

    def apply(self, q: int, v: list[int]) -> list[int]:
        """M_q(g) v: a**-q v(Q(g(a**2 X))) + factor16**q v(a**2 X), and for
        q = 1 (DT) the variations of the normalisation a, which act when
        v(1) = v[0] on the standard disc is nonzero; q = 2 is L."""
        return self._image(q, self.table_squared.compose(v), self.table_affine.compose(v),
                           v[0], self.width)

    def head(self, q: int, width: int) -> list[list[int]]:
        """Rows of the width x width head of M_q(g), width <= BABY_STEPS:
        column k is the image of e_k, read off the baby powers u2**k and
        u1**k, the compositions of e_k."""
        return _rows([self._image(q, self.table_squared.power(k, width),
                                  self.table_affine.power(k, width),
                                  self.unit if k == 0 else 0, width)
                      for k in range(width)])


def _power(lam: int, p: int, unit: int) -> int:
    """lambda**p, p = 0, 1 or 2, at the scale 1/``unit``, rounded."""
    return unit if not p else lam if p == 1 else _quotient(lam * lam, unit)


def jacobian_head(m_head, power: int, unit: int, x=None) -> list[list[int]]:
    """Rows of the head of DF = M_q - lambda**p I - p lambda**(p-1) x e_0^T,
    p = ``power`` and lambda = x[0], from the rows ``m_head`` of the head of
    M_q, q = max(p, 1), all at the scale 1/``unit``; the fixed point is
    p = 0, DF = DT - I.  lambda**p and p lambda**(p-1) x are rounded to
    nearest at that scale."""
    lam_p = _power(x[0] if power else 0, power, unit)
    rows = []
    for i, row in enumerate(m_head):
        out = list(row)
        out[i] -= lam_p
        if power:
            out[0] -= x[i] if power == 1 else _quotient(2 * x[0] * x[i], unit)
        rows.append(out)
    return rows


# -- dense linear algebra ------------------------------------------------------

def _binary64(rows, unit: int) -> list[list[float]]:
    """Integer rows at the scale 1/``unit`` in binary64, rounded to nearest;
    an entry beyond its range is a SingularJacobian, as an inf factor is."""
    try:
        return [[m / unit for m in row] for row in rows]
    except OverflowError:
        raise SingularJacobian("factor not finite: a head entry exceeds binary64") from None


def _times(z: float, factor: int) -> int:
    """z factor rounded to nearest, exactly."""
    num, den = z.as_integer_ratio()
    return _quotient(num * factor, den)


def _block_map(head, tail: int, unit: int):
    """v -> B v for the block map B: the inverse of the square matrix
    ``head`` on coefficients 0..len(head)-1, ``tail`` times the identity
    above, all integers at the scale 1/``unit``.  The head is factored and
    solved in binary64: B only preconditions iterations whose residuals are
    formed in integers, so its accuracy sets their rate, not their result.
    A head solve reads v scaled by a power of two, exactly, so that
    binary64's exponent range never meets the size of a residual."""
    lu, perm = lu_factor(_binary64(head, unit))
    width = len(head)

    def apply(v):
        head_part = v[:width]
        shift = 1 << max((abs(x).bit_length() for x in head_part), default=0)
        y = _lu_solve_factored(lu, perm, [x / shift for x in head_part])
        return [_times(z, shift) for z in y] + _rounded([tail * x for x in v[width:]], unit)
    return apply


def _sup_norm(v):
    return max((abs(x) for x in v), default=0)


# -- fixed point ----------------------------------------------------------------

def _stage_ladder(n: int) -> list[int]:
    stages, m = [], 20
    while m < n:
        stages.append(m)
        m = min(2 * m, n)
    stages.append(n)
    return stages


def _newton_correction(shared, width: int, residual, tol: int, max_steps: int):
    """delta with (DT - I) delta = -residual, DT = M_1 of the ``shared``
    evaluations, in integers at their scale.  delta <- delta -
    B((DT - I) delta + residual) from delta = 0, B the block map on the
    width x width head of DT - I with tail -1, until a step is below
    tol/100, for at most ``max_steps`` steps.  B's head is solved in
    binary64, so even a head that is the whole Jacobian (degree 20 and
    below) takes more than one step.  The evaluations may be a build
    wider than the residual, whose images are read to its length: exact,
    as every product, block and giant step is causal."""
    unit = shared.unit
    block = _block_map(jacobian_head(shared.head(1, width), 0, unit), -unit, unit)
    delta = block([-r for r in residual])
    for _ in range(max_steps):
        step = block([m - d + r for m, d, r in zip(shared.apply(1, delta), delta, residual)])
        delta = [d - s for d, s in zip(delta, step)]
        if 100 * _sup_norm(step) < tol:
            return delta
    raise NewtonDivergence(
        f"inexact Newton step at degree {len(residual) - 1}: no step below "
        f"{Decimal(tol).scaleb(-shared.scale - 2):.2E} in {max_steps} steps")


def _rung_tolerance(tg, tol: int, top: bool) -> int:
    """Residual below which a rung of degree m = len(tg) - 1 stops, from
    tg = T(g): ``tol`` on the top rung; below it max(tol, |g_m|/100),
    since truncation at degree m leaves an error of about the size of the
    last coefficient.  g_m is read off T(g): on a rung's first iterate g
    is zero-padded, g_m = 0, while T(g) already carries the coefficient,
    so that the first correction's inner steps also stop at the
    truncation level."""
    return tol if top else max(tol, abs(tg[-1]) // 100)


def approx_fixed_point(n: int, digits: int) -> list[Decimal]:
    """Polynomial approximation to the fixed point, residual below 10**-(digits-6).

    Bootstraps deterministically: Newton from the tabulated degree-20 fixed
    point (``_SEED_G20``, read at the engine's scale 10**-(digits+6) and
    truncated to degree n when n < 20), then continuation through doubling
    degrees.  Each rung below n stops at its truncation level
    (:func:`_rung_tolerance`); the top rung reaches 10**-(digits-6).  Each
    Newton correction is solved through the block map on the head of the
    Jacobian (:func:`_newton_correction`).
    """
    return fixed_point_with_build(n, digits)[0]


def fixed_point_with_build(n: int, digits: int):
    """:func:`approx_fixed_point` g0 and the midpoint build of g0 that
    its last residual check made, which :func:`eigenpair_from_build`
    reads as :func:`midpoint_build` would make it.

    A rung m below n checks its residual on a build at the next rung's
    width, over g zero-padded to that degree: its coefficients 0..m are
    those of a build at rung m's width, integer for integer, as truncated
    products, blocks and giant steps are causal and rounded coefficient by
    coefficient.  When the check passes, that build is the next rung's
    first build; when it fails, the correction reads it to rung m's width
    (:func:`_newton_correction`).  So the seed's check at rung 20 and each
    check after a rung's correction cost no build of their own: at
    N = 40, 80 and 160, 2, 3 and 4 builds in all."""
    if n < 2:
        raise ConfigError("need truncation degree >= 2")
    if digits < 10:
        raise ConfigError("need at least 10 digits")
    scale = digits + _GUARD
    g = _read(_SEED_G20[:n + 1], scale)
    max_iter = 50
    stages = _stage_ladder(n)
    shared = None
    for stage_n, build_n in zip(stages, stages[1:] + [n]):
        g = _padded(g, stage_n)
        width = min(stage_n, contraction.HEAD_DEGREE) + 1
        for _ in range(max_iter):
            if shared is None:
                shared = _MidShared(_padded(g, build_n), digits)
            tg = shared.t()[:stage_n + 1]
            residual = [t - x for t, x in zip(tg, g)]
            rung_tol = _rung_tolerance(tg, _TOL, stage_n == n)
            if _sup_norm(residual) < rung_tol:
                break
            g = _add_lists(g, _newton_correction(shared, width, residual, rung_tol, digits))
            shared = None
        else:
            raise NewtonDivergence(f"no convergence below {Decimal(rung_tol).scaleb(-scale):.2E} "
                                   f"in {max_iter} iterations")
    return _written(g, scale), shared


def midpoint_build(g0, digits: int):
    """The midpoint evaluations at g0 (:class:`_MidShared`) at ``digits``
    digits, which :func:`eigenpair_from_build` reads."""
    return _MidShared(_read(g0, digits + _GUARD), digits)


# -- eigenpairs -------------------------------------------------------------------

#: the binary64 head iteration stops at a residual below this many units
#: of binary64's precision times ||M|| max(1, |x|): the rounding of M x
#: sits near one such unit (about 1.3 for the gamma head, whose ||M|| is 56)
_BINARY64_ULPS = 64


def _inverse_iteration(a, shift: float, phi_power: int, digits: int) -> list[float]:
    """Eigenvector x of the binary64 matrix ``a`` for its eigenvalue lambda
    nearest ``shift``, scaled so that x[0]**phi_power = lambda (phi_power
    1 or 2), in binary64.

    From x = e_0, with M - shift I factored once: y = (M - shift I)**-1 x,
    lambda = shift + x[0]/y[0], x = y lambda**(1/phi_power) / y[0], until
    |M x - x[0]**phi_power x| < tol max(1, |x|), for at most ``digits``
    steps, tol being _BINARY64_ULPS units of binary64's precision times
    ||M||, the sup-norm.
    """
    lu, perm = lu_factor([[m - shift if i == j else m for j, m in enumerate(row)]
                          for i, row in enumerate(a)])
    norm = max(math.fsum(map(abs, row)) for row in a)
    tol = _BINARY64_ULPS * sys.float_info.epsilon * norm
    x = [1] + [0] * (len(a) - 1)
    for _ in range(digits):
        y = _lu_solve_factored(lu, perm, x)
        if not y[0]:
            raise EigenSelectionAmbiguous("eigenvector has vanishing constant coefficient")
        lam = shift + x[0] / y[0]
        if phi_power == 2:
            if lam <= 0:
                raise EigenSelectionAmbiguous(
                    f"eigenvalue nearest the shift {shift} not positive")
            lam = math.sqrt(lam)
        s = lam / y[0]
        x = [s * v for v in y]
        # x[0]**2 by a product, as ``**`` of floats is the platform's pow
        lam_p = x[0] if phi_power == 1 else x[0] * x[0]
        # fsum, as ``sum`` of floats rounds differently across Python versions
        residual = [math.fsum(map(operator.mul, row, x)) - lam_p * v for row, v in zip(a, x)]
        if _sup_norm(residual) < tol * max(1, _sup_norm(x)):
            return x
    raise EigenSelectionAmbiguous(
        f"inverse iteration at the shift {shift} did not converge in {digits} steps")


def _refine_eigenpair(shared, m_head, kind: str, x: list[int], digits: int) -> list[int]:
    """x <- x - B(M_p x - x[0]**p x) from the padded head eigenvector x, in
    integers at the scale of the ``shared`` evaluations, B the block map on
    the head Jacobian at x, formed from the head ``m_head`` of M_p, with
    tail -1/x[0]**p, until |M_p x - x[0]**p x| < 10**-(digits-6)
    max(1, |x|), for at most ``digits`` steps."""
    power, unit = KINDS.index(kind), shared.unit
    block = _block_map(jacobian_head(m_head, power, unit, x),
                       _quotient(-unit * unit, _power(x[0], power, unit)), unit)
    for _ in range(digits):
        scaled = _rounded([_power(x[0], power, unit) * v for v in x], unit)
        residual = [m - v for m, v in zip(shared.apply(power, x), scaled)]
        if unit * _sup_norm(residual) < _TOL * max(unit, _sup_norm(x)):
            return x
        x = [v - s for v, s in zip(x, block(residual))]
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
    of the operator, degrees 0..K, K = min(N, HEAD_DEGREE), in binary64,
    which converges at the rate |lambda - s|/|lambda' - s| per step,
    lambda' being the eigenvalue next nearest s.  The zero-padded head
    eigenvector is then refined matrix-free (:func:`_refine_eigenpair`) to
    the working precision, at every degree.  EigenSelectionAmbiguous is
    raised when either iteration does not converge in ``digits`` steps.
    It makes its own build, so the pipeline never calls it: it serves the
    benchmark's set-up, the tests and demo 04.
    """
    return eigenpair_from_build(kind, midpoint_build(g0, digits), digits)


def eigenpair_from_build(kind: str, shared, digits: int) -> tuple[list[Decimal], Decimal]:
    """:func:`approx_eigenpair` at the g0 of a midpoint build (from
    :func:`midpoint_build` or :func:`fixed_point_with_build` at the same
    ``digits``): the pipeline's one build serves both kinds, in any process."""
    if kind not in _EIGEN_HINT:
        raise ConfigError(f"unknown eigenpair kind {kind!r}")
    phi_power = KINDS.index(kind + "_eigen")
    m_head = shared.head(phi_power, min(shared.width, contraction.HEAD_DEGREE + 1))
    hint = _EIGEN_HINT[kind]
    vec = _inverse_iteration(_binary64(m_head, shared.unit),
                             hint if phi_power == 1 else hint * hint, phi_power, digits)
    x = _refine_eigenpair(shared, m_head, kind + "_eigen",
                          _padded([_times(v, shared.unit) for v in vec], shared.width - 1),
                          digits)
    out = _written(x, shared.scale)
    return out, out[0]


# -- jacobian heads ----------------------------------------------------------------

def approx_jacobian(kind: str, g0, x0=None, digits: int = 30):
    """Head block of the truncated Jacobian of the residual map of ``kind``
    at g0 (and x0 for the eigen kinds), rows and columns 0..K, K = min(N,
    contraction.HEAD_DEGREE), as exact Decimals: :func:`jacobian_head` of
    the head of M_q, read off the baby powers of shared evaluations cut to
    degree K.  Only the benchmark's set-up and tests call it.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    power = KINDS.index(kind)
    if power and x0 is None:
        raise ConfigError("eigen jacobians need the approximate eigenfunction")
    scale = digits + _GUARD
    width = min(len(g0), contraction.HEAD_DEGREE + 1)
    shared = _MidShared(_read(g0, scale), digits, width)
    x = None if x0 is None else _padded(_read(x0, scale), width - 1)
    return [_written(row, scale)
            for row in jacobian_head(shared.head(max(power, 1), width), power, shared.unit, x)]
