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
strictly inside itself, and recursive evaluation of the certified
functions outside the disc for plotting.

Every composition reads the power tables (balls.PowerTable) of the affine
argument a**2 X and of the squared argument Q(G(a**2 X)), built once per
input ball.  M_q's kernel takes a ball V composed through them and the
basis columns of the contraction bounds alike: the head's columns 0..K,
K = approx.HEAD_DEGREE, are the tables' baby powers.
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
    DomainMismatch,
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
    "grid_points",
]

_D0 = Decimal(0)
_D1 = Decimal(1)
_D2 = Decimal(2)
_ONE_POINT = rectangle(1)
_TWO_POINT = rectangle(2)


@dataclass(frozen=True)
class SharedEvaluations:
    """The subexpressions of T valid for every G in the input ball, with the
    power tables of the two composition arguments they were derived from."""

    source: FunctionBall
    a: Interval
    a2: Interval
    a_inv: Interval
    inner: FunctionBall           # G(a**2 X)
    squared: FunctionBall         # Q(G(a**2 X))
    outer_comp: FunctionBall      # G(Q(G(a**2 X)))
    table_affine: PowerTable
    table_squared: PowerTable

    @property
    def domain(self) -> Disc:
        return self.source.domain

    @property
    def theta_affine(self) -> Decimal:
        return self.table_affine.theta_bound

    @property
    def theta_squared(self) -> Decimal:
        return self.table_squared.theta_bound

    def t(self, ctx: RoundingContext) -> FunctionBall:
        """T(G) = a**-1 G(Q(G(a**2 X)))."""
        return fb.scale(ctx, self.a_inv, self.outer_comp)


def _composed(subexpression: str, compose, ctx: RoundingContext, G: FunctionBall):
    """compose(ctx, G), with a contract failure named after the subexpression."""
    try:
        return compose(ctx, G)
    except CompositionContractFailure as exc:
        raise CompositionContractFailure(
            f"{subexpression}: {exc}", subexpression=subexpression) from exc


def precompute_shared(ctx: RoundingContext, G: FunctionBall) -> SharedEvaluations:
    """Evaluate every subexpression of T once for the whole ball, each
    composition read off the power tables of a**2 X and Q(G(a**2 X)).  The
    domain must be centred at 1, where a = G(1) is the constant coefficient:
    e_k(1) = 0 for k >= 1 and the high tail vanishes at 1."""
    n, domain = G.truncation, G.domain
    if domain.center != 1:
        raise ConfigError("shared evaluations assume domain center 1")
    a = fb.coefficient(ctx, G, 0).re
    try:
        a_inv = ctx.idiv(IONE, a)
    except DivisionByZeroInterval as exc:
        raise NormalizationSingular(f"a = G(1) = {a} may contain zero") from exc
    a2 = ctx.isqr(a)
    table_affine = fb.power_table(ctx, fb.affine_arg(ctx, domain, n, a2))
    inner = _composed("G(a2 X)", table_affine.compose, ctx, G)
    squared = fb.mul(ctx, inner, inner)
    table_squared = fb.power_table(ctx, squared)
    outer_comp = _composed("G(Q(G(a2 X)))", table_squared.compose, ctx, G)
    return SharedEvaluations(
        source=G, a=a, a2=a2, a_inv=a_inv, inner=inner, squared=squared,
        outer_comp=outer_comp, table_affine=table_affine, table_squared=table_squared)


def _index(q: int) -> int:
    """Position of M_q, DT = M_1 and L = M_2, in the tables' per-q fields."""
    if q not in (1, 2):
        raise ConfigError(f"M_q is defined for q = 1 (DT) and q = 2 (L), got {q!r}")
    return q - 1


@dataclass(frozen=True)
class ColumnImages:
    """image_k = M_q e_k + [k = 0] column0 - diagonal e_k over a ball, M_q e_k
    from the tabulated powers u2**k and u1**k: formed exactly in integers,
    then rounded outward once (balls.int_outward)."""

    tables: OperatorTables
    q: int
    column0: FunctionBall
    diagonal: FunctionBall    # -diagonal as a constant ball

    def image(self, ctx: RoundingContext, k: int) -> fb.IntBall:
        s = self.tables.shared
        v0 = fb.IntBall([1], [], 0, _D0, _D0) if k == 0 else None   # e_k(1)
        out = self.tables.image(ctx, self.q, s.table_squared.power(ctx, k),
                                s.table_affine.power(ctx, k), v0)
        if k == 0:
            out = fb.int_add(ctx, out, self.column0)
        d = self.diagonal
        shifted = fb.IntBall(*([0] * k + part if part else [] for part in (d.mid, d.rad)),
                             d.scale, d.v_high, d.v_err)
        return fb.int_outward(ctx, fb.int_add(ctx, out, shifted), s.source.truncation)

    def image_ball(self, ctx: RoundingContext, k: int) -> FunctionBall:
        """image_k as a ball of the tables' space."""
        s = self.tables.shared
        return FunctionBall.wrap(s.domain, s.source.truncation, self.image(ctx, k))


@dataclass(frozen=True)
class OperatorTables:
    """M_q over a ball, so the derivative DT = M_1 and the noise operator
    L = M_2, applied through the power tables of its shared evaluations.

    As balls, ``terms[q - 1]`` holds (a**-q, factor16**q) and
    ``variation`` factor17 - a**-2 G(Q(G(a**2 X))); ``channels[q - 1]``
    holds the tail bound's (|a**-q|, theta of Q(G(a**2 X))) and
    (||factor16**q||, theta of a**2 X).  As e_k(1) = 0 for k >= 1 on the
    disc centred at 1, the variation acts on column 0 only.
    """

    shared: SharedEvaluations
    terms: tuple
    variation: FunctionBall
    channels: tuple

    @classmethod
    def build(cls, ctx: RoundingContext, shared: SharedEvaluations) -> "OperatorTables":
        s, G = shared, shared.source
        n = G.truncation
        deriv_outer = _composed("G'(Q(G(a2 X)))", s.table_squared.compose_derivative, ctx, G)
        deriv_inner = _composed("G'(a2 X)", s.table_affine.compose_derivative, ctx, G)
        factor16 = fb.scale(ctx, s.a_inv, fb.mul(ctx, deriv_outer, fb.scale(ctx, _D2, s.inner)))
        two_a_x = fb.affine_arg(ctx, s.domain, n, ctx.iscale(s.a, _D2))
        factor17 = fb.mul(ctx, fb.mul(ctx, factor16, deriv_inner), two_a_x)
        scalars = (s.a_inv, ctx.isqr(s.a_inv))
        factors = (factor16, fb.mul(ctx, factor16, factor16))
        variation = fb.add(ctx, fb.scale(ctx, ctx.ineg(scalars[1]), s.outer_comp), factor17)
        pairs = list(zip(scalars, factors))
        return cls(shared, tuple((fb.const_ball(s.domain, n, x), f) for x, f in pairs),
                   variation,
                   tuple(((x.mag, s.theta_squared), (fb.norm_upper(ctx, f), s.theta_affine))
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

    def columns(self, ctx: RoundingContext, q: int, column0: FunctionBall | None = None,
                diagonal: Interval = IZERO) -> ColumnImages:
        """Column images of M_q(G) e_k + [k = 0] column0 - diagonal e_k."""
        _index(q)
        s = self.shared
        n = s.source.truncation
        if column0 is None:
            column0 = fb.zero_ball(s.domain, n)
        if (column0.domain, column0.truncation) != (s.domain, n):
            raise DomainMismatch("column 0 and the tables differ in disc or degree")
        return ColumnImages(self, q, column0, fb.const_ball(s.domain, n, ctx.ineg(diagonal)))

    def apply(self, ctx: RoundingContext, q: int, v: FunctionBall) -> FunctionBall:
        """M_q(G) v, enclosing the action for every G in the ball, rounded
        outward once.  v(1) is v_0 plus the error part's value there, at
        most v_err in size: a constant with v's error tail."""
        _index(q)
        s, n = self.shared, self.shared.source.truncation
        c2, c1 = (table.compose(ctx, v) for table in (s.table_squared, s.table_affine))
        v0 = fb.IntBall(v.mid[:1], v.rad[:1], v.scale, _D0, v.v_err)
        return FunctionBall.wrap(s.domain, n, fb.int_outward(ctx, self.image(ctx, q, c2, c1, v0), n))

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


def grid_points(ctx: RoundingContext, lo: Decimal, hi: Decimal, n: int) -> list[Decimal]:
    """n+1 grid points from lo to hi (exact endpoints).

    Only self-consistency matters: adjacent slices share the same computed
    point, so the union covers the full range whatever the rounding."""
    step = ctx.round_nearest(ctx.div_up(ctx.sub_up(hi, lo), Decimal(n)))
    pts = [lo]
    for j in range(1, n):
        pts.append(ctx.round_nearest(ctx.add_up(lo, ctx.mul_up(step, Decimal(j)))))
    pts.append(hi)
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
    pts = grid_points(ctx, _ARC_SPLIT.copy_negate(), _ARC_SPLIT, q)
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
    disc.  Each argument is read once (:meth:`balls.PointEvaluator.read`):
    the point 1 for a, then per rectangle w1 = a**2 z, whose read serves
    its disc test and G(w1), and w2 = Q(G(w1)).  Returns the coverings for
    plotting, or raises ContainmentFailure naming the first offending
    rectangle and which of the two checks failed.
    On a ball with v_err > 0, :func:`precompute_shared` already implies the
    claim: both arguments have theta < 1, so |h(z) - c| <= theta r on the
    closed disc.
    """
    g = fb.point_evaluator(ctx, G)
    # only a**2 is needed here, so a wide ball can still reach the checks
    a2 = ctx.rsqr(g.value(ctx, g.read(ctx, _ONE_POINT)))
    boundary = boundary_cover(ctx, G.domain, m)
    gamma1, gamma2 = [], []
    for idx, z in enumerate(boundary):
        w1 = g.read(ctx, ctx.rmul(a2, z))
        if not g.in_disc(w1, strict=True):
            raise ContainmentFailure(
                f"boundary rectangle {idx}: a**2 z not strictly inside the disc",
                index=idx, equation=1, rectangle=w1.z)
        gamma1.append(w1.z)
        w2 = g.read(ctx, ctx.rsqr(g.value(ctx, w1)))
        if not g.in_disc(w2, strict=True):
            raise ContainmentFailure(
                f"boundary rectangle {idx}: Q(G(a**2 z)) not strictly inside the disc",
                index=idx, equation=2, rectangle=w2.z)
        gamma2.append(w2.z)
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
    :meth:`evaluate` per point.

    Each argument is read once (:meth:`balls.PointEvaluator.read`) by G's
    evaluator, and that read serves G's disc test and every value and
    derivative taken there, of G, V or W alike; so V and W must share G's
    disc and point scale.  A graph point at depth 0 is one read, and on
    the real axis Horner runs on real boxes only."""

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
        one = g.read(ctx, _ONE_POINT)
        a = g.value(ctx, one)
        a_inv = ctx.rdiv(rectangle(1), a)
        evaluators, phi, phi_inv = {}, {}, {}
        for kind, q, ball in (("V", 1, V), ("W", 2, W)):
            if ball is not None:
                ev = evaluators[kind] = fb.point_evaluator(ctx, ball)
                if (ev.domain, ev.point_scale) != (g.domain, g.point_scale):
                    raise ConfigError(f"{kind} must share G's disc and point scale "
                                      "(the digit count of N + 1)")
                phi[kind] = ev.value(ctx, one)
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
        return self._go(ctx, target, self.G.read(ctx, z), depth)

    def _go(self, ctx: RoundingContext, kind: str, p: fb.PointRead, d: int) -> Rectangle:
        """The named function at the point read as p, which every branch
        below shares; each pulled-back argument is read once here."""
        g = self.G
        if g.in_disc(p):
            return getattr(self, kind).value(ctx, p)
        zz = p.z
        if d <= 0:
            raise DepthExceeded(f"{kind} at {zz}: recursion depth exhausted")
        arg1 = g.read(ctx, ctx.rmul(self.a2, zz))
        y = self._go(ctx, "G", arg1, d - 1)
        u2 = g.read(ctx, ctx.rsqr(y))
        if kind == "G":
            return ctx.rmul(self.a_inv, self._go(ctx, "G", u2, d - 1))
        # derivative values are needed at the pulled-back arguments
        if not g.in_disc(u2):
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
