"""Rigorous renormalisation operators on function balls.

Implements the doubling operator for even maps written through X = x**2,

    T(G)(X) = a**-1 G(Q(G(Q(a) X))),   a = G(1),  Q(w) = w**2,

its Frechet derivative DT and the noise-scaling operator L, which are one
operator M_q for q = 1 and q = 2:

    M_q(G) V(X) = a**-q V(Q(G(a**2 X))) + factor16**q V(a**2 X),
    factor16 = a**-1 G'(Q(G(a**2 X))) 2 G(a**2 X),

where M_1 also carries the two terms of the variation of the
normalisation a through V(1), so DT(G) = M_1(G) and L(G) = M_2(G); the
boundary-covering verification that the inner compositions map the
closed domain disc strictly inside itself (which makes the operator
well-defined, differentiable, and its derivative compact on the ball), and
recursive evaluation of the certified functions outside the disc for
plotting.

Every composition goes through a power table (see balls.PowerTable): the
powers of the normalized affine argument a**2 X and of the squared argument
Q(G(a**2 X)), held in exact integer midpoint-radius form.  The tables and
the shared subexpressions read off them (a, G(a**2 X), its square, the
composed derivative factors) are computed once per input ball and reused
by T, by M_q applied to a ball, and by the per-basis-column images of
the contraction bounds, which stay in integers from the tabulated powers on.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from . import balls as fb
from .balls import Disc, FunctionBall, PointEvaluator, PowerTable
from .errors import (
    CompositionContractFailure,
    ConfigError,
    ContainmentFailure,
    DepthExceeded,
    DivisionByZeroInterval,
    NormalizationSingular,
)
from .rounding import IONE, IZERO, Interval, Rectangle, RoundingContext, interval, rectangle

__all__ = [
    "SharedEvaluations",
    "precompute_shared",
    "ColumnImages",
    "OperatorTables",
    "boundary_cover",
    "check_domain_extension",
    "DomainExtensionResult",
    "RecursiveExtension",
    "extend_recursive",
]

_D0 = Decimal(0)
_D1 = Decimal(1)
_D2 = Decimal(2)
_ONE_POINT = rectangle(1)
_TWO_POINT = rectangle(2)


@dataclass(frozen=True)
class SharedEvaluations:
    """Subexpression enclosures valid for every G in the input ball, with the
    power tables of the two composition arguments they were derived from."""

    source: FunctionBall
    a: Interval
    a2: Interval
    a_inv: Interval
    a_inv2: Interval
    affine: FunctionBall          # X -> a**2 X
    inner: FunctionBall           # G(a**2 X)
    squared: FunctionBall         # Q(G(a**2 X))
    outer_comp: FunctionBall      # G(Q(G(a**2 X)))
    table_affine: PowerTable
    table_squared: PowerTable
    deriv_outer: FunctionBall | None = None   # G'(Q(G(a**2 X)))
    deriv_inner: FunctionBall | None = None   # G'(a**2 X)
    factor16: FunctionBall | None = None      # a**-1 G'(Q(G(a**2 X))) 2 G(a**2 X)
    factor16_sq: FunctionBall | None = None
    factor17: FunctionBall | None = None      # factor16 * G'(a**2 X) * 2 a X

    @property
    def domain(self) -> Disc:
        return self.source.domain

    def coefficients(self, q: int) -> tuple[Interval, FunctionBall]:
        """(a**-q, factor16**q) for q = 1 or 2: the coefficients of M_q on
        V(Q(G(a**2 X))) and on V(a**2 X)."""
        return (self.a_inv, self.factor16) if q == 1 else (self.a_inv2, self.factor16_sq)

    @property
    def theta_affine(self) -> Decimal:
        return self.table_affine.theta_bound

    @property
    def theta_squared(self) -> Decimal:
        return self.table_squared.theta_bound


def _composed(subexpression: str, compose, ctx: RoundingContext, G: FunctionBall):
    """compose(ctx, G), with a contract failure named after the subexpression."""
    try:
        return compose(ctx, G)
    except CompositionContractFailure as exc:
        raise CompositionContractFailure(
            f"{subexpression}: {exc}", subexpression=subexpression) from exc


def precompute_shared(ctx: RoundingContext, G: FunctionBall,
                      with_derivatives: bool = True) -> SharedEvaluations:
    """Evaluate every shared subexpression once for the whole ball.

    The power tables of the affine argument a**2 X and of the squared
    argument Q(G(a**2 X)) are built first; every composition is read off
    them.
    """
    n = G.truncation
    domain = G.domain
    # every member is real on the real axis, so a = G(1) is real
    a = fb.evaluate(ctx, G, _ONE_POINT).re
    try:
        a_inv = ctx.idiv(IONE, a)
    except DivisionByZeroInterval as exc:
        raise NormalizationSingular(f"a = G(1) = {a} may contain zero") from exc
    a2 = ctx.isqr(a)
    a_inv2 = ctx.isqr(a_inv)
    affine = fb.affine_arg(ctx, domain, n, a2)
    table_affine = fb.power_table(ctx, affine)
    inner = _composed("G(a2 X)", table_affine.compose, ctx, G)
    squared = fb.mul(ctx, inner, inner)
    table_squared = fb.power_table(ctx, squared)
    outer_comp = _composed("G(Q(G(a2 X)))", table_squared.compose, ctx, G)
    kwargs = {}
    if with_derivatives:
        deriv_outer = _composed("G'(Q(G(a2 X)))", table_squared.compose_derivative, ctx, G)
        deriv_inner = _composed("G'(a2 X)", table_affine.compose_derivative, ctx, G)
        factor16 = fb.scale(ctx, a_inv,
                            fb.mul(ctx, deriv_outer, fb.scale(ctx, _D2, inner)))
        two_a_x = fb.affine_arg(ctx, domain, n, ctx.iscale(a, _D2))
        kwargs = dict(
            deriv_outer=deriv_outer,
            deriv_inner=deriv_inner,
            factor16=factor16,
            factor16_sq=fb.mul(ctx, factor16, factor16),
            factor17=fb.mul(ctx, fb.mul(ctx, factor16, deriv_inner), two_a_x),
        )
    return SharedEvaluations(
        source=G, a=a, a2=a2, a_inv=a_inv, a_inv2=a_inv2,
        affine=affine, inner=inner, squared=squared, outer_comp=outer_comp,
        table_affine=table_affine, table_squared=table_squared, **kwargs)


def _delta_a_terms(ctx: RoundingContext, shared: SharedEvaluations,
                   da: Interval) -> FunctionBall:
    s = ctx.ineg(ctx.imul(shared.a_inv2, da))
    out = fb.scale(ctx, s, shared.outer_comp)
    return fb.add(ctx, out, fb.scale(ctx, da, shared.factor17))


@dataclass(frozen=True)
class ColumnImages:
    """Basis-column images of one operator over a ball, in exact integer form:

        image_k = scalar u2**k + factor u1**k + [k = 0] column0 - diagonal e_k

    with u1, u2 the normalized affine and squared arguments, whose powers
    are read from the power tables.  Each image is formed exactly and then
    rounded outward once, in integers (balls.int_outward).  Only integers
    and tail bounds are held, so the state is small to ship to worker
    processes.
    """

    table_squared: PowerTable
    table_affine: PowerTable
    scalar: fb.IntBall
    factor: fb.IntBall
    column0: fb.IntBall
    diagonal: fb.IntBall      # -diagonal as a constant ball

    def image(self, ctx: RoundingContext, k: int) -> fb.IntBall:
        n = self.table_squared.truncation
        out = fb.int_add(ctx, fb.int_mul(ctx, self.scalar, self.table_squared.power(k), n),
                         fb.int_mul(ctx, self.factor, self.table_affine.power(k), n))
        if k == 0:
            out = fb.int_add(ctx, out, self.column0)
        d = self.diagonal
        shifted = fb.IntBall(*([0] * k + part if part else [] for part in (d.mid, d.rad)),
                             d.scale, d.v_high, d.v_err)
        return fb.int_outward(ctx, fb.int_add(ctx, out, shifted), n)

    def image_ball(self, ctx: RoundingContext, k: int) -> FunctionBall:
        """image_k as a working-precision ball."""
        table = self.table_squared
        return fb.from_int_ball(ctx, table.domain, table.truncation, self.image(ctx, k))


@dataclass(frozen=True)
class OperatorTables:
    """M_q over a ball, so the derivative DT = M_1 and the noise operator
    L = M_2, applied through the power tables of its shared evaluations.

    e_k composed with an argument is the k-th tabulated power, so each
    basis-column image is one integer product with a tabulated power.
    Requires the domain center at 1, where e_k(1) = 0 for k >= 1 and the
    normalisation variation acts on column 0 only.
    """

    shared: SharedEvaluations

    @classmethod
    def build(cls, ctx: RoundingContext, shared: SharedEvaluations) -> "OperatorTables":
        if shared.domain.center != 1:
            raise ConfigError("column tables assume domain center 1")
        if shared.factor16 is None:
            raise ConfigError("shared evaluations lack derivative factors")
        return cls(shared=shared)

    def columns(self, ctx: RoundingContext, q: int, column0: FunctionBall | None = None,
                diagonal: Interval = IZERO) -> ColumnImages:
        """Column images of M_q(G) e_k + [k = 0] column0 - diagonal e_k."""
        s = self.shared
        n = s.source.truncation
        scalar, factor = s.coefficients(q)
        if q == 1:
            extra = _delta_a_terms(ctx, s, IONE)
            column0 = extra if column0 is None else fb.add(ctx, extra, column0)
        elif column0 is None:
            column0 = fb.zero_ball(s.domain, n)
        return ColumnImages(
            s.table_squared, s.table_affine,
            fb.to_int_ball(ctx, fb.const_ball(s.domain, n, scalar)),
            fb.to_int_ball(ctx, factor),
            fb.to_int_ball(ctx, column0),
            fb.to_int_ball(ctx, fb.const_ball(s.domain, n, ctx.ineg(diagonal))))

    def apply(self, ctx: RoundingContext, q: int, v: FunctionBall) -> FunctionBall:
        """M_q(G) v, enclosing the action for every G in the ball."""
        s = self.shared
        scalar, factor = s.coefficients(q)
        out = fb.add(ctx, fb.scale(ctx, scalar, s.table_squared.compose(ctx, v)),
                     fb.mul(ctx, factor, s.table_affine.compose(ctx, v)))
        if q == 1:
            da = fb.evaluate(ctx, v, _ONE_POINT).re
            if da.mag != 0:
                out = fb.add(ctx, out, _delta_a_terms(ctx, s, da))
        return out

    def dt_apply(self, ctx: RoundingContext, dG: FunctionBall) -> FunctionBall:
        return self.apply(ctx, 1, dG)

    def l_apply(self, ctx: RoundingContext, W: FunctionBall) -> FunctionBall:
        return self.apply(ctx, 2, W)

    def dt_basis_image(self, ctx: RoundingContext, k: int) -> FunctionBall:
        return self.columns(ctx, 1).image_ball(ctx, k)

    def l_basis_image(self, ctx: RoundingContext, k: int) -> FunctionBall:
        return self.columns(ctx, 2).image_ball(ctx, k)


# -- domain extension -----------------------------------------------------------

#: parametrisation switch between shallow and steep quarter-arcs; any value
#: in [sqrt(1/2), 1) keeps every slice's aspect ratio below ~1.14
_ARC_SPLIT = Decimal("0.75")


def _circle_slices(ctx: RoundingContext, q: int):
    """q+1 grid points from -_ARC_SPLIT to _ARC_SPLIT (exact endpoints).

    Only self-consistency matters: adjacent slices share the same computed
    point, so the union covers the full range whatever the rounding."""
    t = _ARC_SPLIT
    neg_t = t.copy_negate()
    step = ctx.round_nearest(ctx.div_up(ctx.mul_up(_D2, t), Decimal(q)))
    pts = [neg_t]
    for j in range(1, q):
        pts.append(ctx.round_nearest(
            ctx.add_up(neg_t, ctx.mul_up(step, Decimal(j)))))
    pts.append(t)
    return pts


def boundary_cover(ctx: RoundingContext, domain: Disc, m: int) -> list[Rectangle]:
    """Cover of the boundary circle by m axis-aligned rectangles.

    Quarter-arcs are parametrised by the shallow coordinate: the top and
    bottom arcs by x, the left and right arcs by y, with the companion
    coordinate bounded through rigorous square roots.  No trigonometric
    primitive is needed and the union provably contains the circle.
    """
    if m < 4 or m % 4 != 0:
        raise ConfigError("boundary covering needs m >= 4 divisible by 4")
    q = m // 4
    c, r = domain.center, domain.radius
    pts = _circle_slices(ctx, q)
    rects = []

    def companion_bounds(lo: Decimal, hi: Decimal) -> tuple[Decimal, Decimal]:
        seg = Interval(lo, hi)
        big = ctx.mul_up(seg.mag, seg.mag)
        small = ctx.mul_dn(seg.mig, seg.mig)
        low2 = ctx.sub_dn(_D1, big)
        if low2 < 0:
            low2 = _D0
        return ctx.sqrt_dn(low2), ctx.sqrt_up(ctx.sub_up(_D1, small))

    for j in range(q):
        xlo, xhi = pts[j], pts[j + 1]
        ylo, yhi = companion_bounds(xlo, xhi)
        re = Interval(ctx.add_dn(c, ctx.mul_dn(r, xlo)), ctx.add_up(c, ctx.mul_up(r, xhi)))
        im_top = Interval(ctx.mul_dn(r, ylo), ctx.mul_up(r, yhi))
        rects.append(Rectangle(re, im_top))
        rects.append(Rectangle(re, Interval(im_top.hi.copy_negate(),
                                            im_top.lo.copy_negate())))
    for j in range(q):
        ylo, yhi = pts[j], pts[j + 1]
        xlo, xhi = companion_bounds(ylo, yhi)
        im = Interval(ctx.mul_dn(r, ylo), ctx.mul_up(r, yhi))
        re_right = Interval(ctx.add_dn(c, ctx.mul_dn(r, xlo)), ctx.add_up(c, ctx.mul_up(r, xhi)))
        rects.append(Rectangle(re_right, im))
        re_left = Interval(ctx.sub_dn(c, ctx.mul_up(r, xhi)), ctx.sub_up(c, ctx.mul_dn(r, xlo)))
        rects.append(Rectangle(re_left, im))
    return rects


@dataclass(frozen=True)
class DomainExtensionResult:
    passed: bool
    boundary: tuple[Rectangle, ...]
    gamma1: tuple[Rectangle, ...]
    gamma2: tuple[Rectangle, ...]


def check_domain_extension(ctx: RoundingContext, G: FunctionBall,
                           m: int) -> DomainExtensionResult:
    """Verify that both inner composition images stay strictly inside the disc.

    For every rectangle z of the boundary cover and every G in the ball,
    checks |a**2 z - c| < r and |Q(G(a**2 z)) - c| < r by the exact disc
    test of :meth:`balls.PointEvaluator.in_disc`; a maximum-modulus
    argument then extends the boundary containment to the whole closed
    disc.  Returns the coverings for plotting, or raises ContainmentFailure
    naming the first offending rectangle and which of the two checks failed.
    """
    g = fb.point_evaluator(ctx, G)
    # only a**2 is needed here, so a wide ball can still reach the checks
    a2 = ctx.rsqr(g.value(ctx, _ONE_POINT))
    boundary = boundary_cover(ctx, G.domain, m)
    gamma1, gamma2 = [], []
    for idx, z in enumerate(boundary):
        w1 = ctx.rmul(a2, z)
        if not g.in_disc(ctx, w1, strict=True):
            raise ContainmentFailure(
                f"boundary rectangle {idx}: a**2 z not strictly inside the disc",
                index=idx, equation=1, rectangle=w1)
        gamma1.append(w1)
        w2 = ctx.rsqr(g.value(ctx, w1))
        if not g.in_disc(ctx, w2, strict=True):
            raise ContainmentFailure(
                f"boundary rectangle {idx}: Q(G(a**2 z)) not strictly inside the disc",
                index=idx, equation=2, rectangle=w2)
        gamma2.append(w2)
    return DomainExtensionResult(True, tuple(boundary), tuple(gamma1), tuple(gamma2))


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
    equations: a = G(1), a**-1, a**2, a**-2, lambda = V(1) with V, and
    ``phi_inv`` mapping "V" and "W" to phi**-q for the eigenvalue phi**q of
    M_q (q = 1 for V, so lambda**-1; q = 2 for W, so gamma**-2 with
    gamma = W(1)).  Build it once for many points (a plot covering) and call
    :meth:`evaluate` per point."""

    G: PointEvaluator
    V: PointEvaluator | None
    W: PointEvaluator | None
    a: Rectangle
    a_inv: Rectangle
    a2: Rectangle
    a_inv2: Rectangle
    lam: Rectangle | None
    phi_inv: dict

    @classmethod
    def build(cls, ctx: RoundingContext, G: FunctionBall, V: FunctionBall | None = None,
              W: FunctionBall | None = None) -> "RecursiveExtension":
        g = fb.point_evaluator(ctx, G)
        a = g.value(ctx, _ONE_POINT)
        a_inv = ctx.rdiv(rectangle(1), a)
        evaluators, phi, phi_inv = {}, {}, {}
        for kind, q, ball in (("V", 1, V), ("W", 2, W)):
            if ball is not None:
                evaluators[kind] = fb.point_evaluator(ctx, ball)
                phi[kind] = evaluators[kind].value(ctx, _ONE_POINT)
                phi_q = phi[kind] if q == 1 else ctx.rsqr(phi[kind])
                phi_inv[kind] = ctx.rdiv(rectangle(1), phi_q)
        return cls(g, evaluators.get("V"), evaluators.get("W"), a, a_inv,
                   ctx.rsqr(a), ctx.rsqr(a_inv), phi.get("V"), phi_inv)

    def evaluate(self, ctx: RoundingContext, target: str, x, depth: int) -> Rectangle:
        """The named function at x, unwinding up to ``depth`` levels of the
        functional equations (see :func:`extend_recursive`)."""
        z = _as_rectangle(x)
        if target in ("g", "v", "w"):
            target, z = target.upper(), ctx.rsqr(z)
        if target not in ("G", "V", "W"):
            raise ConfigError(f"unknown extension target {target!r}")
        if getattr(self, target) is None:
            raise ConfigError(f"target {target} needs its ball")
        return self._go(ctx, target, z, depth)

    def _go(self, ctx: RoundingContext, kind: str, zz: Rectangle, d: int) -> Rectangle:
        g = self.G
        if g.in_disc(ctx, zz):
            return getattr(self, kind).value(ctx, zz)
        if d <= 0:
            raise DepthExceeded(f"{kind} at {zz}: recursion depth exhausted")
        arg1 = ctx.rmul(self.a2, zz)
        y = self._go(ctx, "G", arg1, d - 1)
        u2 = ctx.rsqr(y)
        if kind == "G":
            return ctx.rmul(self.a_inv, self._go(ctx, "G", u2, d - 1))
        # derivative values are needed at the pulled-back arguments
        if not g.in_disc(ctx, u2):
            raise DepthExceeded(f"{kind} at {zz}: composed argument left the disc")
        gp_u2 = g.derivative(ctx, u2)
        factor16 = ctx.rmul(ctx.rmul(self.a_inv, gp_u2), ctx.rmul(_TWO_POINT, y))
        # kind = phi**-q M_q kind: q = 1 (DT) for V, q = 2 (L) for W
        scalar, factor = ((self.a_inv, factor16) if kind == "V"
                          else (self.a_inv2, ctx.rsqr(factor16)))
        t15 = ctx.rmul(scalar, self._go(ctx, kind, u2, d - 1))
        t16 = ctx.rmul(factor, self._go(ctx, kind, arg1, d - 1))
        if kind == "V":
            # the variation of a, with da = V(1) = lambda
            lam = self.lam
            t14 = ctx.rneg(ctx.rmul(ctx.rmul(self.a_inv2, lam),
                                    self._go(ctx, "G", u2, d - 1)))
            gp_a1 = g.derivative(ctx, arg1)
            t17 = ctx.rmul(ctx.rmul(factor16, gp_a1),
                           ctx.rmul(ctx.rmul(_TWO_POINT, zz), ctx.rmul(self.a, lam)))
            total = ctx.radd(ctx.radd(t14, t15), ctx.radd(t16, t17))
        else:
            total = ctx.radd(t15, t16)
        return ctx.rmul(self.phi_inv[kind], total)


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
    return RecursiveExtension.build(ctx, G, V, W).evaluate(ctx, target, x, depth)
