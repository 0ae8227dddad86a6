"""Rigorous renormalisation operators on function balls.

The doubling operator for even maps written through X = x**2,

    T(G)(X) = a**-1 G(Q(G(Q(a) X))),   a = G(1),  Q(w) = w**2,

is read from :class:`SharedEvaluations`.  Its Frechet derivative DT and the
noise-scaling operator L are one operator M_q, q = 1 and 2, stated once in
:meth:`OperatorTables.image`:

    M_q(G) V(X) = a**-q V(Q(G(a**2 X))) + factor16**q V(a**2 X)
                  + [q = 1] V(1) (factor17 - a**-2 G(Q(G(a**2 X)))),
    factor16 = a**-1 G'(Q(G(a**2 X))) 2 G(a**2 X),
    factor17 = factor16 G'(a**2 X) 2 a X,

the last term being the variation of the normalisation a.  Also here: the
boundary-covering check that the inner compositions map the closed disc
strictly inside itself (for fig1; the certificates prove it by theta < 1),
and recursive evaluation of the certified functions outside the disc for
plotting.  Both run on the integer boxes of :class:`balls.PointEvaluator`
(box arithmetic from ``rounding``), from the boundary cover's or plot
grid's exact integer boxes to their results;
only Rectangles that public functions take or return are Decimal.

Every composition reads the power tables (balls.PowerTable) of the affine
argument a**2 X and of the squared argument Q(G(a**2 X)), built once per
input ball.  M_q's kernel takes a ball V composed through them and the
basis vectors alike: M_q e_k (:meth:`OperatorTables.basis_image`) reads the
baby powers, for contraction.Problem.column_images (the DF_p column rule).

The tables keep an input ball's error part out of every midpoint and
radius (van der Hoeven, "Ball arithmetic", 2010): a is read as the centre
interval A of G's coefficient 0, and a, a**-1, a**2, 2a and a**-2 enter as
constant balls over A whose error parts bound how far the scalars of the
members move, for |a - A| <= G.v_err.  So the tables over x0 + B(0, rho)
hold those over x0 in mid, rad, scale and v_high, and differ only in v_err
and theta: contraction.Problem(0) reads T(x0) from the tables it bounds
the ball with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal
from math import isqrt

from . import balls as fb
from .balls import STANDARD_DISC, FunctionBall, PointEvaluator, PowerTable
from .errors import (
    CompositionContractFailure,
    ConfigError,
    ContainmentFailure,
    DepthExceeded,
    DivisionByZeroInterval,
    NormalizationSingular,
)
from .rounding import (
    IONE,
    Interval,
    Rectangle,
    RoundingContext,
    box_add,
    box_conj,
    box_inv,
    box_mul,
    box_sqr,
    box_sub,
    box_text,
    interval,
    rectangle,
)

__all__ = [
    "SharedEvaluations",
    "precompute_shared",
    "OperatorTables",
    "boundary_cover",
    "check_domain_extension",
    "DomainExtensionResult",
    "RecursiveExtension",
    "extend_recursive",
    "grid_points",
]

_D0 = Decimal(0)
_D2 = Decimal(2)


@dataclass(frozen=True)
class SharedEvaluations:
    """The subexpressions of T valid for every G in the input ball, with the
    power tables of the two composition arguments they were derived from.

    ``a`` is the centre interval A = mid_0 +- rad_0 of G's coefficient 0
    and ``a_inv`` = 1/A: a = G(1) of every member lies within ``a_err`` =
    G.v_err of A, and 1/a within ``a_inv_err`` of 1/A (:func:`_inverse_err`).
    """

    source: FunctionBall
    a: Interval
    a_err: Decimal
    a_inv: Interval
    a_inv_err: Decimal
    inner: FunctionBall           # G(a**2 X)
    outer_comp: FunctionBall      # G(Q(G(a**2 X)))
    table_affine: PowerTable
    table_squared: PowerTable

    def t(self, ctx: RoundingContext) -> FunctionBall:
        """T(G) = a**-1 G(Q(G(a**2 X)))."""
        n = self.source.truncation
        return fb.mul(ctx, _scalar(n, self.a_inv, self.a_inv_err), self.outer_comp)


def _composed(subexpression: str, compose, ctx: RoundingContext, G: FunctionBall):
    """compose(ctx, G), with a contract failure named after the subexpression."""
    try:
        return compose(ctx, G)
    except CompositionContractFailure as exc:
        raise CompositionContractFailure(
            f"{subexpression}: {exc}", subexpression=subexpression) from exc


def _centre(ctx: RoundingContext, G: FunctionBall) -> Interval:
    """A = mid_0 +- rad_0: G's coefficient 0 without its error part."""
    return fb.coefficient(ctx, replace(G, v_err=_D0), 0).re


def _scalar(n: int, x: Interval, err: Decimal) -> FunctionBall:
    """The constant ball over x with the error part err: every value within
    err of a point of x."""
    return replace(fb.const_ball(n, x), v_err=err)


def _affine(ctx: RoundingContext, n: int, s: FunctionBall) -> FunctionBall:
    """The map X -> s X for a constant ball s."""
    return fb.mul(ctx, s, fb.affine_arg(ctx, n, 1))


def _inverse_err(ctx: RoundingContext, x: Interval, e: Decimal) -> Decimal:
    """Bound of |1/y - 1/x'| for x' in x, x clear of 0, and |y - x'| <= e:
    e / (m (m - e)) with m = min |x| > e, rounded up."""
    m = min(x.lo.copy_abs(), x.hi.copy_abs())
    gap = ctx.sub_dn(m, e)
    if gap <= 0:
        raise NormalizationSingular(f"a = G(1) within {e} of {x} may be zero")
    return ctx.div_up(e, ctx.mul_dn(m, gap))


def _square_err(ctx: RoundingContext, x: Interval, e: Decimal) -> Decimal:
    """Bound of |y**2 - x'**2| for x' in x and |y - x'| <= e:
    e (2 max |x| + e), rounded up."""
    return ctx.mul_up(e, ctx.add_up(ctx.mul_up(_D2, x.mag), e))


def precompute_shared(ctx: RoundingContext, G: FunctionBall) -> SharedEvaluations:
    """Evaluate every subexpression of T once for the whole ball, each
    composition read off the power tables of a**2 X and Q(G(a**2 X)).  The
    disc is centred at 1, so a = G(1) is the constant coefficient:
    e_k(1) = 0 for k >= 1 and the high tail vanishes at 1.  It is read as
    the centre interval A (:func:`_centre`) and G's error part e = G.v_err
    as the error part of the constant balls a**2 and a**-1, whose centres
    are A**2 and 1/A (:func:`_square_err`, :func:`_inverse_err`); so e
    reaches no midpoint or radius of the tables, and T over x0 + B(0, rho)
    is T over x0 in everything but v_err."""
    n = G.truncation
    a, e = _centre(ctx, G), G.v_err
    try:
        a_inv = ctx.idiv(IONE, a)
    except DivisionByZeroInterval as exc:
        raise NormalizationSingular(f"a = G(1) = {a} may contain zero") from exc
    a_inv_err = _inverse_err(ctx, a, e)
    a2 = _scalar(n, ctx.isqr(a), _square_err(ctx, a, e))
    table_affine = fb.power_table(ctx, _affine(ctx, n, a2))
    inner = _composed("G(a2 X)", table_affine.compose, ctx, G)
    table_squared = fb.power_table(ctx, fb.sqr(ctx, inner))
    outer_comp = _composed("G(Q(G(a2 X)))", table_squared.compose, ctx, G)
    return SharedEvaluations(
        source=G, a=a, a_err=e, a_inv=a_inv, a_inv_err=a_inv_err, inner=inner,
        outer_comp=outer_comp, table_affine=table_affine, table_squared=table_squared)


def _index(q: int) -> int:
    """Position of M_q, DT = M_1 and L = M_2, in the tables' per-q fields."""
    if q not in (1, 2):
        raise ConfigError(f"M_q is defined for q = 1 (DT) and q = 2 (L), got {q!r}")
    return q - 1


@dataclass(frozen=True)
class OperatorTables:
    """M_q over a ball, so the derivative DT = M_1 and the noise operator
    L = M_2, applied through the power tables of its shared evaluations,
    which :meth:`build` forms from the ball (:func:`precompute_shared`).

    As balls, ``terms[q - 1]`` holds (a**-q, factor16**q) and
    ``variation`` factor17 - a**-2 G(Q(G(a**2 X))); ``channels[q - 1]``
    holds the tail bound's (||a**-q||, theta of Q(G(a**2 X))) and
    (||factor16**q||, theta of a**2 X).  a**-1, a**-2 and the 2a of
    factor17 are constant balls over 1/A, 1/A**2 and 2A, A the centre
    interval of G's coefficient 0, with error parts bounding their
    variation for |a - A| <= G.v_err (:func:`precompute_shared`); a**-2's
    is e (2 max |1/A| + e) for the error part e of a**-1.  As e_k(1) = 0
    for k >= 1 on the disc centred at 1, the variation acts on column 0
    only.
    """

    shared: SharedEvaluations
    terms: tuple
    variation: FunctionBall
    channels: tuple

    @classmethod
    def build(cls, ctx: RoundingContext, G: FunctionBall) -> "OperatorTables":
        s = precompute_shared(ctx, G)
        n = G.truncation
        deriv_outer = _composed("G'(Q(G(a2 X)))", s.table_squared.compose_derivative, ctx, G)
        deriv_inner = _composed("G'(a2 X)", s.table_affine.compose_derivative, ctx, G)
        a_inv = _scalar(n, s.a_inv, s.a_inv_err)
        factor16 = fb.mul(ctx, a_inv, fb.mul(ctx, deriv_outer, fb.scale(ctx, _D2, s.inner)))
        two_a_x = _affine(ctx, n, _scalar(n, ctx.iscale(s.a, _D2), ctx.mul_up(_D2, s.a_err)))
        factor17 = fb.mul(ctx, fb.mul(ctx, factor16, deriv_inner), two_a_x)
        scalars = (a_inv, _scalar(n, ctx.isqr(s.a_inv), _square_err(ctx, s.a_inv, s.a_inv_err)))
        factors = (factor16, fb.sqr(ctx, factor16))
        variation = fb.add(ctx, fb.mul(ctx, fb.negate(ctx, scalars[1]), s.outer_comp), factor17)
        pairs = tuple(zip(scalars, factors))
        return cls(s, pairs, variation,
                   tuple(((fb.norm_upper(ctx, x), s.table_squared.theta_bound),
                          (fb.norm_upper(ctx, f), s.table_affine.theta_bound))
                         for x, f in pairs))

    def image(self, ctx: RoundingContext, q: int, c2: fb.IntBall, c1: fb.IntBall,
              v0: fb.IntBall | None) -> fb.IntBall:
        """M_q v, exactly, from c2 = v(Q(G(a**2 X))), c1 = v(a**2 X) and
        v0 = v(1) (None for 0) in integer form."""
        scalar, factor = self.terms[_index(q)]
        n = self.shared.source.truncation
        out = fb.int_add(ctx, fb.int_mul(ctx, scalar, c2, n), fb.int_mul(ctx, factor, c1, n))
        if q == 1 and v0 is not None:
            out = fb.int_add(ctx, out, fb.int_mul(ctx, v0, self.variation, n))
        return out

    def basis_image(self, ctx: RoundingContext, q: int, k: int) -> fb.IntBall:
        """M_q e_k, exactly, from the baby powers u2**k and u1**k of the
        tables; e_k(1) is 1 for k = 0 and 0 above."""
        s = self.shared
        v0 = fb.IntBall([1], 0, 0, _D0, _D0) if k == 0 else None   # e_k(1)
        return self.image(ctx, q, s.table_squared.power(ctx, k), s.table_affine.power(ctx, k), v0)

    def _ball(self, ctx: RoundingContext, b: fb.IntBall) -> FunctionBall:
        """b rounded outward once, as a ball of the tables' degree."""
        n = self.shared.source.truncation
        return FunctionBall.wrap(n, fb.int_outward(ctx, b, n))

    def apply(self, ctx: RoundingContext, q: int, v: FunctionBall) -> FunctionBall:
        """M_q(G) v, enclosing the action for every G in the ball, rounded
        outward once.  v(1) is v_0 plus the rounding and error parts'
        values there, at most rad and v_err in size: a constant with v's
        rad and error tail."""
        _index(q)
        s = self.shared
        c2, c1 = (table.compose(ctx, v) for table in (s.table_squared, s.table_affine))
        v0 = fb.IntBall(v.mid[:1], v.rad, v.scale, _D0, v.v_err)
        return self._ball(ctx, self.image(ctx, q, c2, c1, v0))

    def dt_apply(self, ctx: RoundingContext, dG: FunctionBall) -> FunctionBall:
        return self.apply(ctx, 1, dG)

    def l_apply(self, ctx: RoundingContext, W: FunctionBall) -> FunctionBall:
        return self.apply(ctx, 2, W)

    def dt_basis_image(self, ctx: RoundingContext, k: int) -> FunctionBall:
        return self._ball(ctx, self.basis_image(ctx, 1, k))

    def l_basis_image(self, ctx: RoundingContext, k: int) -> FunctionBall:
        return self._ball(ctx, self.basis_image(ctx, 2, k))


# -- domain extension -----------------------------------------------------------

def grid_points(lo: int, hi: int, n: int) -> list[int]:
    """n+1 integer grid points from lo to hi: exact, so adjacent cells share
    their endpoints and cover the whole range.  Point j is lo + (hi - lo) j / n
    rounded toward the nearer end, so the grid is its own mirror image,
    point n - j = lo + hi - point j; on a symmetric range cells j and
    n-1-j are exact negatives of each other."""
    d = hi - lo
    return [lo + (d * j // n if 2 * j <= n else -(-d * j // n)) for j in range(n + 1)]


def _companion(lo: int, hi: int, unit: int) -> tuple[int, int]:
    """sqrt(1 - t**2) over t in [lo, hi] / unit, |t| <= 1, at scale 1/unit:
    the lower end floored, the upper end ceiled."""
    big, small = max(lo * lo, hi * hi), 0 if lo <= 0 <= hi else min(lo * lo, hi * hi)
    top = unit * unit - small
    root = isqrt(top)
    return isqrt(unit * unit - big), root + (root * root < top)


def boundary_cover(m: int, scale: int) -> list[tuple[int, int, int, int]]:
    """Cover of the boundary circle of the disc by m integer boxes at scale
    10**-``scale``, scale >= 1.

    Quarter-arcs are parametrised by the shallow coordinate t on an exact
    grid of [-3/4, 3/4]: the top and bottom arcs by x = c + r t, the right
    and left ones by y = r t, with sqrt(1 - t**2) bounded by integer square
    roots (:func:`_companion`); lower ends are floored and upper ends
    ceiled.  No trigonometric primitive is needed and the union provably
    contains the circle, as every point has |cos| or |sin| <= sqrt(1/2);
    the split 3/4 keeps every box's aspect ratio below ~1.14.
    """
    if m < 4 or m % 4 != 0:
        raise ConfigError("boundary covering needs m >= 4 divisible by 4")
    unit = 10 ** scale
    c, r = STANDARD_DISC.at(scale)
    split = -(-3 * unit // 4)     # 3/4 rounded up, in [sqrt(1/2), 1) at every scale
    pts = grid_points(-split, split, m // 4)
    boxes = []
    for lo, hi in zip(pts, pts[1:]):
        # r t and r sqrt(1 - t**2) over the step, outward
        tl, th = r * lo // unit, -(-r * hi // unit)
        slo, shi = _companion(lo, hi, unit)
        sl, sh = r * slo // unit, -(-r * shi // unit)
        boxes += [(c + tl, c + th, sl, sh), (c + tl, c + th, -sh, -sl),
                  (c + sl, c + sh, tl, th), (c - sh, c - sl, tl, th)]
    return boxes


@dataclass(frozen=True)
class DomainExtensionResult:
    """The boundary cover and its two images as integer boxes at scale
    10**-point_scale (:meth:`RoundingContext.box_rectangle` writes one as a
    Rectangle): gamma1 holds those of a**2 z and gamma2 those of
    Q(G(a**2 z))."""

    boundary: tuple
    gamma1: tuple
    gamma2: tuple
    point_scale: int


def check_domain_extension(ctx: RoundingContext, G: FunctionBall,
                           m: int) -> DomainExtensionResult:
    """Verify that both inner composition images stay strictly inside the disc.

    For every box z of the boundary cover and every G in the ball, checks
    |a**2 z - c| < r and |Q(G(a**2 z)) - c| < r by the exact disc test of
    :meth:`balls.PointEvaluator.in_disc`; a maximum-modulus argument then
    extends the boundary containment to the whole closed disc.  Everything
    from the cover to the disc tests is integer box arithmetic at G's
    point scale.  Each argument is read once
    (:meth:`balls.PointEvaluator.read`): the point 1 for a, then per box
    w1 = a**2 z, whose read serves its disc test and G(w1), and
    w2 = Q(G(w1)).  A box whose conjugate came earlier in the cover takes
    the conjugates of that twin's images: G is real and the disc symmetric
    about the real axis.  Returns the coverings as boxes, or raises
    ContainmentFailure naming the first offending argument's box, exactly,
    and which of the two checks failed.
    The certificates prove the claim without it: on a ball with v_err > 0,
    :func:`precompute_shared` requires theta < 1 of both arguments, so
    |h(z) - c| <= theta r on the closed disc.  This check gives the fig1
    coverings.
    """
    g = fb.point_evaluator(ctx, G)
    s = g.point_scale
    unit = 10 ** s
    # only a**2 is needed here, so a wide ball can still reach the checks
    a2 = box_sqr(g.value(g.read((g.center, g.center, 0, 0))), unit)
    boundary = boundary_cover(m, s)
    gamma1, gamma2 = [], []
    seen = {}       # box -> its index, for the conjugates still to come
    for idx, z in enumerate(boundary):
        twin = seen.get((z[0], z[1], -z[3], -z[2]))
        if twin is not None:
            gamma1.append(box_conj(gamma1[twin]))
            gamma2.append(box_conj(gamma2[twin]))
            continue
        seen[z] = idx
        w1 = g.read(box_mul(a2, z, unit))
        if not g.in_disc(w1, strict=True):
            raise ContainmentFailure(
                f"boundary box {idx}: a**2 z = {box_text(w1.box, s)} not strictly "
                "inside the disc", index=idx, equation=1)
        gamma1.append(w1.box)
        w2 = g.read(box_sqr(g.value(w1), unit))
        if not g.in_disc(w2, strict=True):
            raise ContainmentFailure(
                f"boundary box {idx}: Q(G(a**2 z)) = {box_text(w2.box, s)} not strictly "
                "inside the disc", index=idx, equation=2)
        gamma2.append(w2.box)
    return DomainExtensionResult(tuple(boundary), tuple(gamma1), tuple(gamma2), s)


# -- recursive extension beyond the disc ------------------------------------------

def _as_rectangle(x) -> Rectangle:
    if isinstance(x, Rectangle):
        return x
    if isinstance(x, Interval):
        return Rectangle(x, interval(0))
    return rectangle(x)


@dataclass(frozen=True)
class RecursiveExtension:
    """The certified balls held for pointwise evaluation, inside the disc and
    beyond it through the functional equations, with the constants of those
    equations as real boxes at G's point scale 10**-point_scale (``unit`` =
    10**point_scale): a = G(1), a**-1, a**2, a**-2, lambda = V(1) with V,
    and ``phi_inv`` mapping "V" and "W" to phi**-q for the eigenvalue
    phi**q of M_q (q = 1 for V, so lambda**-1; q = 2 for W, so gamma**-2
    with gamma = W(1)).  Build it once for many points (a plot covering)
    and call :meth:`evaluate_box` per box.

    The functional equations run in integer box arithmetic, each product
    and square rounded outward once per part; only :func:`extend_recursive`
    reads a Rectangle into a box and writes the result back.  Each argument is
    read once (:meth:`balls.PointEvaluator.read`) by G's evaluator, and
    that read serves G's disc test and every value and derivative taken
    there, of G, V or W alike; so V and W must share G's point scale.  A
    graph point at depth 0 is one read, and on the real axis every box
    stays real."""

    G: PointEvaluator
    V: PointEvaluator | None
    W: PointEvaluator | None
    unit: int
    a: tuple
    a_inv: tuple
    a2: tuple
    a_inv2: tuple
    lam: tuple | None
    phi_inv: dict

    @classmethod
    def build(cls, ctx: RoundingContext, G: FunctionBall, V: FunctionBall | None = None,
              W: FunctionBall | None = None) -> "RecursiveExtension":
        g = fb.point_evaluator(ctx, G)
        unit = 10 ** g.point_scale
        one = g.read((g.center, g.center, 0, 0))
        a = g.value(one)
        a_inv = box_inv(a, unit)
        evaluators, phi, phi_inv = {}, {}, {}
        for kind, q, ball in (("V", 1, V), ("W", 2, W)):
            if ball is not None:
                ev = evaluators[kind] = fb.point_evaluator(ctx, ball)
                if ev.point_scale != g.point_scale:
                    raise ConfigError(f"{kind} must share G's point scale "
                                      "(the digit count of N + 1)")
                phi[kind] = ev.value(one)
                phi_q = phi[kind] if q == 1 else box_sqr(phi[kind], unit)
                phi_inv[kind] = box_inv(phi_q, unit)
        return cls(g, evaluators.get("V"), evaluators.get("W"), unit, a, a_inv,
                   box_sqr(a, unit), box_sqr(a_inv, unit), phi.get("V"), phi_inv)

    def evaluate_box(self, target: str, z, depth: int) -> tuple:
        """The box of the named function over the box z at G's point scale,
        unwinding up to ``depth`` levels of the functional equations (see
        :func:`extend_recursive`)."""
        if target in ("g", "v", "w"):
            target, z = target.upper(), box_sqr(z, self.unit)
        if target not in ("G", "V", "W"):
            raise ConfigError(f"unknown extension target {target!r}")
        if getattr(self, target) is None:
            raise ConfigError(f"target {target} needs its ball")
        return self._go(target, self.G.read(z), depth)

    def _go(self, kind: str, p: fb.PointRead, d: int) -> tuple:
        """The box of the named function at the point read as p, which every
        branch below shares; each pulled-back argument is read once here."""
        g, unit = self.G, self.unit
        if g.in_disc(p):
            return getattr(self, kind).value(p)
        z = p.box
        if d <= 0:
            raise DepthExceeded(f"{kind} at {box_text(z, g.point_scale)}: "
                                "recursion depth exhausted")
        arg1 = g.read(box_mul(self.a2, z, unit))
        y = self._go("G", arg1, d - 1)
        u2 = g.read(box_sqr(y, unit))
        if kind == "G":
            return box_mul(self.a_inv, self._go("G", u2, d - 1), unit)
        # derivative values are needed at the pulled-back arguments
        if not g.in_disc(u2):
            raise DepthExceeded(f"{kind} at {box_text(z, g.point_scale)}: "
                                "composed argument left the disc")
        factor16 = box_mul(box_mul(self.a_inv, g.derivative(u2), unit),
                           box_add(y, y), unit)
        # kind = phi**-q M_q kind: q = 1 (DT) for V, q = 2 (L) for W
        scalar, factor = ((self.a_inv, factor16) if kind == "V"
                          else (self.a_inv2, box_sqr(factor16, unit)))
        total = box_add(box_mul(scalar, self._go(kind, u2, d - 1), unit),
                        box_mul(factor, self._go(kind, arg1, d - 1), unit))
        if kind == "V":
            # the variation of a, with da = V(1) = lambda
            lam = self.lam
            t14 = box_mul(box_mul(self.a_inv2, lam, unit), self._go("G", u2, d - 1), unit)
            t17 = box_mul(box_mul(factor16, g.derivative(arg1), unit),
                          box_mul(box_add(z, z), box_mul(self.a, lam, unit), unit), unit)
            total = box_sub(box_add(total, t17), t14)
        return box_mul(self.phi_inv[kind], total, unit)


def extend_recursive(ctx: RoundingContext, target: str, x, depth: int, *,
                     G: FunctionBall, V: FunctionBall | None = None,
                     W: FunctionBall | None = None) -> Rectangle:
    """Evaluate a certified function at x, outside the disc if necessary.

    Inside the closed disc this is direct ball evaluation.  Outside, the
    fixed-point relation G(X) = a**-1 G(Q(G(a**2 X))) and the eigenproblem
    relations (the derivative applied to V equals phi(V) V, the noise
    operator applied to W equals phi(W)**2 W) are unwound recursively, up
    to ``depth`` levels, pulling arguments back toward the disc.  Lowercase
    targets are the even originals: g(x) = G(x**2), and likewise for v, w.

    This is a plotting aid; enclosures can be wide and derivative values
    are only available where the composed arguments land inside the disc.
    For many points, build a :class:`RecursiveExtension` once instead.
    """
    extension = RecursiveExtension.build(ctx, G, V, W)
    s = extension.G.point_scale
    box = extension.evaluate_box(target, ctx.to_box(_as_rectangle(x), s), depth)
    return ctx.box_rectangle(box, s)
