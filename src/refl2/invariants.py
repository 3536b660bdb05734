"""The named invariants: kernel invariants, Dickson invariants, lifts.

* kernel invariants of the translation group N:
      f_x = prod_{a in Lambda_1} (x + a z),   f_y likewise,   f_z = z.
  These are q^d-linearized in x (resp. y): only exponents q^m occur,
  q = 2^n, 0 <= m <= d.  f_x is z^(q^d) P(x/z) for the subspace
  polynomial P = sum c_m x^(q^m) of Lambda_1, so its d+1 terms are read
  off P's coefficients and Lambda_1 is never listed.

* Dickson invariants of SL2(GF(q)) on the plane in closed form (L. E.
  Dickson, Trans. AMS 12, 1911; Wilkerson, "A primer on the Dickson
  invariants", 1983): u = x^q y + x y^q, the product of the q+1 canonical
  line forms L, c0 = u^(q-1), and c1 = (x^(q^2) y + x y^(q^2)) / u
  = sum_{i=0..q} x^((q-1)i) y^((q-1)(q-i)).

* lifted invariants: every plane form a x + b y is replaced by
  a x + b y + g(a,b) z, with g the homogeneous cocycle companion, so
  g(ta, tb) = t g(a,b) and the line products u~ = prod_L L~,
  c1~ = sum_L (u~/L~)^(q-1) restrict to u, c1 at z = 0.  Since
  u~ (u~/L~)^(q-1) = L~ (u~/L~)^q, c1~ is built as
      u~ c1~ = sum_L L~ (u~/L~)^q,
  where u~/L~ is an exact quotient (`MultiPoly.div_exact`), its q-th
  power one termwise Frobenius pass, and the division by u~ is exact.
  An optional scale multiplies g: scale 1 gives outputs invariant under
  the cocycle subgroup H_1, while the pipeline uses scale (1 + e^-1)^-1
  to match the lifted generators actually closed over.

S^N = k[F] with F = (f_x, f_y, z^(q^d)), and each generator g maps F
affinely by a matrix M_g (`kernel_action`), so g (p o F) = (M_g p) o F.
The candidates u-bar, c1-bar are the small family (u~, c1~) -- the
closed-form pair when every offset of M_g vanishes, else the lifted
family with z scaled by alpha -- composed with F.
"""

from __future__ import annotations

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


def _dickson(q: int, X: MultiPoly, Y: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """(u, c1) in closed form at (X, Y)."""
    A, B = X ** (q - 1), Y ** (q - 1)
    c1 = MultiPoly.zero(X.ctx)
    for i in range(q + 1):
        c1 = c1 + A**i * B ** (q - i)
    return X**q * Y + X * Y**q, c1


def _forms(ctx: FieldCtx, n: int, gscale: int) -> list[tuple[int, int, int]]:
    """The q+1 canonical line forms a x + b y + c z, first nonzero of
    (a, b) equal to 1, lifted by c = gscale g(a, b); c = 0 when gscale is."""
    pairs = [(0, 1)] + [(1, s) for s in subfield_elements(ctx, n)]
    return [(a, b, ctx.mul(gscale, cocycle_g(ctx, a, b, n))) for a, b in pairs]


def _line_products(forms, X: MultiPoly, Y: MultiPoly, Z: MultiPoly):
    """(u, sum_L L (u/L)^q) for u = prod_L L over the forms L = a X + b Y
    + c Z, q + 1 of them.  u is one running product, and each u/L is its
    exact quotient by L (`MultiPoly.div_exact`)."""
    q = len(forms) - 1
    polys = [X.scale(a) + Y.scale(b) + Z.scale(c) for a, b, c in forms]
    u = MultiPoly.one(X.ctx)
    for L in polys:
        u = u * L
    num = MultiPoly.zero(X.ctx)
    for L in polys:
        num = num + L * u.div_exact(L) ** q
    return u, num


def _lifted_family(forms, X: MultiPoly, Y: MultiPoly, Z: MultiPoly):
    """(u-like, c1-like) from the q+1 line forms L = a X + b Y + c Z.

    u = prod_L L, and c1 = sum_L (u/L)^(q-1) is the exact quotient of
    sum_L L (u/L)^q by u: each summand is u (u/L)^(q-1), so u divides
    the sum and no (q-1)-th power is taken.
    """
    u, num = _line_products(forms, X, Y, Z)
    return u, num.div_exact(u)


def dickson_pair(n: int, ambient: FieldCtx) -> tuple[MultiPoly, MultiPoly]:
    """(c0, c1) for SL2(GF(2^n)) acting on the x,y-plane."""
    x, y = (MultiPoly.variable(ambient, i) for i in (0, 1))
    u, c1 = _dickson(1 << n, x, y)
    return u ** ((1 << n) - 1), c1


def dickson_u(n: int, ambient: FieldCtx) -> MultiPoly:
    """The degree-(q+1) root u = x^q y + x y^q with u^(q-1) = c0."""
    x, y = (MultiPoly.variable(ambient, i) for i in (0, 1))
    return _dickson(1 << n, x, y)[0]


def lifted_invariants(
    n: int, ambient: FieldCtx, scale: int = 1
) -> tuple[MultiPoly, MultiPoly]:
    """(u~, c1~) with every plane form lifted by + scale*g(a,b)*z."""
    x, y, z = (MultiPoly.variable(ambient, i) for i in range(3))
    return _lifted_family(_forms(ambient, n, scale), x, y, z)


# -- action of the generators on the kernel invariants ----------------------


class ActionShapeError(ValueError):
    """The image of a kernel invariant is not an affine combination of
    (f_x, f_y, z^(q^d)), or the small family's restrictions to z = 0 have
    dependent leads (`refl2.verify.restricted_leads`) -- signals a
    construction bug upstream."""


class ActionDescriptor:
    """Exact affine action of each generator g on F = (f_x, f_y, z^(q^d)),
    in generator order: maps[i] is M_g = [[a_x, b_x, t_x], [a_y, b_y, t_y],
    [0, 0, 1]] with g f_x = a_x f_x + b_x f_y + t_x z^(q^d) and likewise for
    f_y, the linear part over the subfield, so g (p o F) = (M_g p) o F."""

    __slots__ = ("ctx", "n", "d", "zpow", "maps", "alpha", "e")

    def __init__(self, ctx: FieldCtx, n: int, d: int, zpow: int, maps, alpha: int, e: int):
        self.ctx = ctx
        self.n = n
        self.d = d
        self.zpow = zpow
        self.maps = maps
        self.alpha = alpha
        self.e = e

    @property
    def all_offsets_zero(self) -> bool:
        return all(m.third_col() == (0, 0) for m in self.maps)


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
    gens: list[Mat3], fx: MultiPoly, fy: MultiPoly, fz: MultiPoly, n: int
) -> ActionDescriptor:
    """Decompose each generator's action on (f_x, f_y) exactly into its map
    M_g, the linear part over the GF(2^n) subfield; the maps of N's
    translations are the identity, as P vanishes on Lambda_1.  Reports
    alpha, the z^(q^d)-offset of f_x under the diagonal lift (zero when
    every offset vanishes)."""
    ctx = fx.ctx
    zpow = fx.deg()
    if fz != MultiPoly.variable(ctx, 2):
        raise ValueError("f_z must be the coordinate z")
    d = 0
    while (1 << (n * d)) < zpow:
        d += 1
    if (1 << (n * d)) != zpow:
        raise ValueError("degree of f_x is not a power of the subfield size")
    maps = []
    alpha = 0
    for g in gens:
        ax, bx, tx = _affine_decompose(fx.act(g), fx, fy, zpow, "f_x")
        ay, by, ty = _affine_decompose(fy.act(g), fx, fy, zpow, "f_y")
        for v in (ax, bx, ay, by):
            if not ctx.in_subfield(v, n):
                raise ActionShapeError("linear part has entries outside GF(2^n)")
        maps.append(Mat3.block(ctx, ax, bx, ay, by, col=(tx, ty)))
        if (tx or ty) and bx == 0 and ay == 0 and (ax, by) != (1, 1):
            alpha = tx
    e = subfield_generator(ctx, n)
    return ActionDescriptor(ctx, n, d, zpow, tuple(maps), alpha, e)


def line_forms(desc: ActionDescriptor) -> list[tuple[int, int, int]]:
    """The q+1 forms (a, b, c) = a x + b y + c z that the small family is
    built from: the plane forms (c = 0) when every offset is zero, else
    the forms lifted by c = alpha (1 + e^-1)^-1 g(a, b), to be fixed by
    the lifted generators as displayed."""
    ctx = desc.ctx
    if desc.all_offsets_zero:
        return _forms(ctx, desc.n, 0)
    if desc.alpha == 0:
        raise ActionShapeError("nonzero offsets but no diagonal-lift offset found")
    delta = 1 ^ ctx.inv(desc.e)
    if delta == 0:
        raise ValueError("lift normalization needs a subfield with e != 1")
    return _forms(ctx, desc.n, ctx.mul(desc.alpha, ctx.inv(delta)))


def _family(desc: ActionDescriptor, X: MultiPoly, Y: MultiPoly, W: MultiPoly):
    """(u~, c1~) at (X, Y, W): the closed-form pair when every offset is
    zero, else the products of the lifted `line_forms`."""
    if desc.all_offsets_zero:
        return _dickson(1 << desc.n, X, Y)
    return _lifted_family(line_forms(desc), X, Y, W)


def restricted_pair(desc: ActionDescriptor):
    """(u~, c1~) at z = 0 without building them: the closed-form pair
    (u, c1), checked against the products of the q+1 plane forms,
    u = prod_L L and u c1 = sum_L L (u/L)^q with u/L an exact quotient,
    which are the restrictions of the small family whatever the lift
    (`line_forms`); None when the check fails or a division raises.  No
    polynomial of degree above q^2 + 1 is built."""
    x, y, z = (MultiPoly.variable(desc.ctx, i) for i in range(3))
    u, c1 = _dickson(1 << desc.n, x, y)
    try:
        plane_u, num = _line_products(_forms(desc.ctx, desc.n, 0), x, y, z)
    except ValueError:
        return None
    return (u, c1) if plane_u == u and num == u * c1 else None


def small_family(descriptor: ActionDescriptor) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(u~, c1~, z): the small family at (x, y, z), on which the maps
    M_g act as the generators act on its composition with F."""
    x, y, z = (MultiPoly.variable(descriptor.ctx, i) for i in range(3))
    return (*_family(descriptor, x, y, z), z)


def composed_invariants(
    n: int, ls: LambdaSpace, descriptor: ActionDescriptor
) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(u-bar, c1-bar, z): the small family composed with
    F = (f_x, f_y, z^(q^d))."""
    ctx = ls.ambient
    if descriptor.ctx != ctx or descriptor.n != n or descriptor.d != ls.d:
        raise ValueError("descriptor does not match the Lambda space")
    fx, fy, fz = kernel_invariants(ls)
    zq = MultiPoly.from_terms(ctx, [((0, 0, descriptor.zpow), 1)])
    return (*_family(descriptor, fx, fy, zq), fz)
