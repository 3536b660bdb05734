"""The named invariants: kernel invariants, Dickson invariants, lifts.

Three families, all products or sums of products of linear(ized) forms:

* kernel invariants of the translation group N:
      f_x = prod_{a in Lambda_1} (x + a z),   f_y likewise,   f_z = z.
  These are q^d-linearized in x (resp. y): only exponents q^m occur,
  q = 2^n, 0 <= m <= d.  f_x is z^(q^d) P(x/z) for the subspace
  polynomial P = sum c_m x^(q^m) of Lambda_1, so its d+1 terms are read
  off P's coefficients and Lambda_1 is never listed.

* Dickson invariants of SL2(GF(q)) on the plane, built from the q+1
  canonical line forms L (first nonzero coefficient 1).  The nonzero
  forms vanishing on one line are t L for t in GF(q)*, and the product
  of GF(q)* is 1, so the products over all nonzero forms collapse to
  line products (Wilkerson, "A primer on the Dickson invariants", 1983):
      u  = prod_L L                        (degree q+1),
      c0 = u^(q-1)                         (all q^2-1 nonzero forms),
      c1 = sum_L (prod_{L' != L} L')^(q-1) (per line, the q^2-q forms
                                            not vanishing on it).

* lifted invariants: every plane form a x + b y is replaced by
  a x + b y + g(a,b) z, with g the homogeneous cocycle companion, so
  g(ta, tb) = t g(a,b) and the same line-product formulas yield u~, c1~,
  c0~ = u~^(q-1), restricting to u, c1, c0 at z = 0.  An optional scale
  multiplies g: scale 1 gives outputs invariant under the cocycle
  subgroup H_1, while the pipeline uses scale (1 + e^-1)^-1 to match the
  lifted generators actually closed over.

For a nontrivial kernel the whole lifted family is composed with
(f_x, f_y, alpha z^(q^d)) in place of (x, y, z), where alpha is the
affine offset of the diagonal lift read off by exact coefficient
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from refl2.ffield import FieldCtx, subfield_elements, subfield_generator
from refl2.grouplift import LambdaSpace, Mat3, cocycle_g
from refl2.mvpoly import MultiPoly


# -- kernel invariants -----------------------------------------------------


def kernel_invariants(ls: LambdaSpace) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """f_x = prod (x + a z) over Lambda_1, f_y likewise, f_z = z, written
    from the subspace polynomial P = sum c_m x^(q^m) of Lambda_1 as
    f_x = z^(q^d) P(x/z) = sum c_m x^(q^m) z^(q^d - q^m)."""
    ctx = ls.ambient
    top = 1 << (ls.n * ls.d)
    terms = [(1 << (ls.n * m), c) for m, c in enumerate(ls.coeffs)]
    fx = MultiPoly.from_terms(ctx, [((e, 0, top - e), c) for e, c in terms])
    fy = MultiPoly.from_terms(ctx, [((0, e, top - e), c) for e, c in terms])
    return fx, fy, MultiPoly.variable(ctx, 2)


def dickson_support_check(f: MultiPoly, n: int, d: int) -> bool:
    """True iff the x- (or y-) exponents all lie in {2^(mn) : 0 <= m <= d}.

    The variable checked is x when it occurs in f, else y.
    """
    idx = 0 if any(e > 0 for e in f.var_degrees(0)) else 1
    allowed = {1 << (m * n) for m in range(d + 1)}
    return all(e in allowed for e in f.var_degrees(idx))


# -- the Dickson family ----------------------------------------------------


def projective_reps(n: int, ambient: FieldCtx) -> list[tuple[int, int]]:
    """Canonical representatives of the q+1 form (or direction) classes:
    first nonzero coordinate equal to 1, sorted by value."""
    return [(0, 1)] + [(1, s) for s in subfield_elements(ambient, n)]


def _lifted_family(
    ctx: FieldCtx,
    n: int,
    X: MultiPoly,
    Y: MultiPoly,
    Z: MultiPoly,
    gscale: int = 1,
) -> tuple[MultiPoly, MultiPoly]:
    """(u-like, c1-like) from the q+1 line forms a X + b Y + s g(a,b) Z.

    Z = 0 gives the plain Dickson family in X, Y.
    """
    q = 1 << n

    def form(a: int, b: int) -> MultiPoly:
        p = X.scale(a) + Y.scale(b)
        if Z:
            p = p + Z.scale(ctx.mul(gscale, cocycle_g(ctx, a, b, n)))
        return p

    forms = [form(a, b) for a, b in projective_reps(n, ambient=ctx)]
    # prefix[i] is the product of forms[:i]; suffix that of forms[i+1:]
    prefix = [MultiPoly.one(ctx)]
    for L in forms:
        prefix.append(prefix[-1] * L)
    c1 = MultiPoly.zero(ctx)
    suffix = MultiPoly.one(ctx)
    for i in reversed(range(len(forms))):
        c1 = c1 + (prefix[i] * suffix) ** (q - 1)
        suffix = suffix * forms[i]
    return prefix[-1], c1


def dickson_pair(n: int, ambient: FieldCtx) -> tuple[MultiPoly, MultiPoly]:
    """(c0, c1) for SL2(GF(2^n)) acting on the x,y-plane."""
    x = MultiPoly.variable(ambient, 0)
    y = MultiPoly.variable(ambient, 1)
    u, c1 = _lifted_family(ambient, n, x, y, MultiPoly.zero(ambient))
    return u ** ((1 << n) - 1), c1


def dickson_u(n: int, ambient: FieldCtx) -> MultiPoly:
    """The degree-(q+1) root u with u^(q-1) = c0."""
    x = MultiPoly.variable(ambient, 0)
    y = MultiPoly.variable(ambient, 1)
    u, _ = _lifted_family(ambient, n, x, y, MultiPoly.zero(ambient))
    return u


def lifted_invariants(
    n: int, ambient: FieldCtx, scale: int = 1
) -> tuple[MultiPoly, MultiPoly]:
    """(u~, c1~) with every plane form lifted by + scale*g(a,b)*z."""
    x = MultiPoly.variable(ambient, 0)
    y = MultiPoly.variable(ambient, 1)
    z = MultiPoly.variable(ambient, 2)
    return _lifted_family(ambient, n, x, y, z, scale)


# -- action of the lifts on the kernel invariants ---------------------------


class ActionShapeError(ValueError):
    """The image of a kernel invariant is not an affine combination of
    (f_x, f_y, z^(q^d)) -- signals a construction bug upstream."""


@dataclass(frozen=True)
class LiftAction:
    lift: Mat3
    lin: tuple[tuple[int, int], tuple[int, int]]
    offsets: tuple[int, int]


@dataclass(frozen=True)
class ActionDescriptor:
    """Exact affine action of each lift on (f_x, f_y): linear part over the
    subfield plus an offset multiple of z^(q^d)."""

    ctx: FieldCtx
    n: int
    d: int
    zpow: int
    actions: tuple[LiftAction, ...]
    alpha: int
    e: int

    @property
    def all_offsets_zero(self) -> bool:
        return all(a.offsets == (0, 0) for a in self.actions)


def _affine_decompose(img, fx, fy, zpow, what):
    """img = a fx + b fy + t z^zpow, by exact coefficient comparison."""
    a = img.coeff((zpow, 0, 0))
    b = img.coeff((0, zpow, 0))
    resid = img + fx.scale(a) + fy.scale(b)
    t = resid.coeff((0, 0, zpow))
    resid = resid + MultiPoly.from_terms(img.ctx, [((0, 0, zpow), t)])
    if not resid.is_zero():
        raise ActionShapeError(
            f"image of {what} is not an affine combination of the kernel invariants"
        )
    return a, b, t


def kernel_action(
    lifts: list[Mat3],
    fx: MultiPoly,
    fy: MultiPoly,
    fz: MultiPoly,
    n: int,
) -> ActionDescriptor:
    """Decompose each lift's action on (f_x, f_y) exactly, the linear
    parts over the GF(2^n) subfield.

    Reports alpha, the z^(q^d)-offset of f_x under the diagonal lift
    (zero when every offset vanishes).
    """
    ctx = fx.ctx
    zpow = fx.deg()
    if fz != MultiPoly.variable(ctx, 2):
        raise ValueError("f_z must be the coordinate z")
    d = 0
    while (1 << (n * d)) < zpow:
        d += 1
    if (1 << (n * d)) != zpow:
        raise ValueError("degree of f_x is not a power of the subfield size")
    actions = []
    alpha = 0
    for g in lifts:
        ax, bx, tx = _affine_decompose(fx.act(g), fx, fy, zpow, "f_x")
        ay, by, ty = _affine_decompose(fy.act(g), fx, fy, zpow, "f_y")
        for v in (ax, bx, ay, by):
            if not ctx.in_subfield(v, n):
                raise ActionShapeError("linear part has entries outside GF(2^n)")
        act = LiftAction(g, ((ax, bx), (ay, by)), (tx, ty))
        actions.append(act)
        if (tx or ty) and bx == 0 and ay == 0 and (ax, by) != (1, 1):
            alpha = tx
    e = subfield_generator(ctx, n)
    return ActionDescriptor(ctx, n, d, zpow, tuple(actions), alpha, e)


def composed_invariants(
    n: int, ls: LambdaSpace, descriptor: ActionDescriptor
) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(u-bar, c1-bar, z): the lifted family composed with the kernel
    invariants.

    With every offset zero the plain Dickson pair is composed with
    (f_x, f_y); otherwise the lifted family is composed with
    (f_x, f_y, alpha z^(q^d)), the cocycle scaled by (1 + e^-1)^-1 so
    the outputs are fixed by the lifted generators as displayed.
    """
    ctx = ls.ambient
    if descriptor.ctx != ctx or descriptor.n != n or descriptor.d != ls.d:
        raise ValueError("descriptor does not match the Lambda space")
    fx, fy, fz = kernel_invariants(ls)
    if descriptor.all_offsets_zero:
        u, c1 = _lifted_family(ctx, n, fx, fy, MultiPoly.zero(ctx))
        return u, c1, fz
    alpha = descriptor.alpha
    if alpha == 0:
        raise ActionShapeError("nonzero offsets but no diagonal-lift offset found")
    zq = MultiPoly.from_terms(ctx, [((0, 0, descriptor.zpow), alpha)])
    delta = 1 ^ ctx.inv(descriptor.e)
    if delta == 0:
        raise ValueError("lift normalization needs a subfield with e != 1")
    u, c1 = _lifted_family(ctx, n, fx, fy, zq, ctx.inv(delta))
    return u, c1, fz
