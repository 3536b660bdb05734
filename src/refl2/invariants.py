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
  c1~ = sum_L (u~/L~)^(q-1) restrict to u, c1 at z = 0.  c1~ is built
  as the exact quotient of sum_L L~ (u~/L~)^q by u~ (`_lifted_family`).
  An optional scale multiplies g: scale 1 gives outputs invariant under
  the cocycle subgroup H_1, while the pipeline uses scale (1 + e^-1)^-1
  to match the lifted generators actually closed over.

S^N = k[F] with F = (f_x, f_y, z^(q^d)), and each generator g maps F
affinely by a matrix M_g read off its entries (`kernel_action`), so
g (p o F) = (M_g p) o F.  The candidates u-bar, c1-bar are the small
family (u~, c1~) -- the closed-form pair when every offset of M_g
vanishes, else the lifted family with z scaled by alpha -- composed with
F.  The criterion reads it off the maps M_g and never expands it.
"""

from __future__ import annotations

from typing import NamedTuple

from refl2.ffield import FieldCtx, subfield_elements
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
    """(u, c1) in closed form at (X, Y), with A, B = X^(q-1), Y^(q-1) and
    c1 = sum_{i=0..q} A^i B^(q-i) = A^q + B (A + B)^(q-1): every binomial
    C(q-1, i) is odd (Lucas: every bit of q - 1 = 2^n - 1 is set)."""
    A, B = X ** (q - 1), Y ** (q - 1)
    return X**q * Y + X * Y**q, A**q + B * (A + B) ** (q - 1)


def _forms(ctx: FieldCtx, n: int, gscale: int) -> list[tuple[int, int, int]]:
    """The q+1 canonical line forms a x + b y + c z, first nonzero of
    (a, b) equal to 1, lifted by c = gscale g(a, b); c = 0, and g is not
    evaluated, when gscale is."""
    pairs = [(0, 1)] + [(1, s) for s in subfield_elements(ctx, n)]
    return [(a, b, gscale and ctx.mul(gscale, cocycle_g(ctx, a, b, n))) for a, b in pairs]


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
    """(u-like, c1-like) from the q+1 line forms L = a X + b Y + c Z:
    u = prod_L L, and c1 = sum_L (u/L)^(q-1) = (sum_L L (u/L)^q) / u, an
    exact quotient, so no (q-1)-th power is taken."""
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
    """The kernel invariants are not monic linearized forms, a generator or
    a map M_g has a block entry outside GF(q) or a map a singular block
    (`kernel_action`, `refl2.verify.kemper_lines`), or the offsets have no
    diagonal lift to scale the cocycle by (`lift_scale`) -- signals a
    construction bug upstream."""


class ActionDescriptor(NamedTuple):
    """Exact affine action of each generator g on F = (f_x, f_y, z^(q^d)),
    in generator order: maps[i] is M_g = [[a_x, b_x, t_x], [a_y, b_y, t_y],
    [0, 0, 1]] with g f_x = a_x f_x + b_x f_y + t_x z^(q^d) and likewise for
    f_y, the linear part over the subfield, so g (p o F) = (M_g p) o F."""

    ctx: FieldCtx
    n: int
    d: int
    zpow: int
    maps: tuple[Mat3, ...]
    alpha: int
    e: int

    @property
    def all_offsets_zero(self) -> bool:
        return all(m.third_col() == (0, 0) for m in self.maps)


def kernel_action(
    gens: list[Mat3], fx: MultiPoly, fy: MultiPoly, fz: MultiPoly, n: int
) -> ActionDescriptor:
    """Each generator's map M_g on F, read off g = [[a, b, w0], [c, d, w1],
    [0, 0, 1]].  f_x = sum_m c_m x^(q^m) z^(q^d - q^m) is additive, and
    c x^(q^m) = (c x)^(q^m) for c in GF(q), so with P(w) = f_x(w, 0, 1),
    the subspace polynomial of Lambda_1,
      g f_x = a f_x + b f_y + P(w0) z^(q^d),   g f_y = c f_x + d f_y + P(w1) z^(q^d)
    when a..d lie in GF(q), f_x has that monic shape and f_y is f_x with
    x and y swapped; else `ActionShapeError`.  N's translations map to the
    identity, as P vanishes on Lambda_1.  alpha is the z^(q^d)-offset of
    f_x under the diagonal lift and e that lift's (2, 2) entry, the e of
    diag(e^-1, e) (both zero when no diagonal lift other than I has an
    offset)."""
    ctx = fx.ctx
    zpow = fx.deg()
    if fz != MultiPoly.variable(ctx, 2):
        raise ValueError("f_z must be the coordinate z")
    d = max(zpow.bit_length() - 1, 0) // n
    if (1 << (n * d)) != zpow:
        raise ValueError("degree of f_x is not a power of the subfield size")
    swapped = MultiPoly.from_terms(ctx, [((b, a, c), v) for (a, b, c), v in fx.terms()])
    linearized = fx.var_degrees(1) == {0} and dickson_support_check(fx, n, d)
    if not (linearized and fx.is_homogeneous()) or fx.coeff((zpow, 0, 0)) != 1 or fy != swapped:
        raise ActionShapeError("the kernel invariants are not monic linearized forms")
    maps = []
    alpha = e = 0
    for g in gens:
        if g.ctx != ctx:
            raise ValueError("matrix entries from a mismatched context")
        (a, b, w0), (c, d_, w1), _ = g.rows
        if not all(ctx.in_subfield(v, n) for v in (a, b, c, d_)):
            raise ActionShapeError("linear part has entries outside GF(2^n)")
        tx, ty = fx.eval(w0, 0, 1), fx.eval(w1, 0, 1)
        maps.append(Mat3.block(ctx, a, b, c, d_, col=(tx, ty)))
        if (tx or ty) and b == 0 and c == 0 and (a, d_) != (1, 1):
            alpha, e = tx, d_
    return ActionDescriptor(ctx, n, d, zpow, tuple(maps), alpha, e)


def lift_scale(desc: ActionDescriptor) -> int:
    """gamma, the scale of the cocycle companion g in the lifted forms: 0
    when every offset is zero, else alpha (1 + e^-1)^-1 with alpha and e
    read off the same diagonal lift, so that the lifted generators as
    displayed lie in H_gamma."""
    if desc.all_offsets_zero:
        return 0
    if desc.alpha == 0 or desc.e == 0:
        raise ActionShapeError("nonzero offsets but no invertible diagonal-lift offset found")
    delta = 1 ^ desc.ctx.inv(desc.e)
    if delta == 0:
        raise ValueError("lift normalization needs a subfield with e != 1")
    return desc.ctx.mul(desc.alpha, desc.ctx.inv(delta))


def line_forms(desc: ActionDescriptor) -> list[tuple[int, int, int]]:
    """The q+1 forms (a, b, c) = a x + b y + c z that the small family is
    built from: the plane forms lifted by c = gamma g(a, b), gamma the
    `lift_scale` (so the plane forms themselves when every offset is
    zero)."""
    return _forms(desc.ctx, desc.n, lift_scale(desc))


def composed_invariants(
    n: int, ls: LambdaSpace, descriptor: ActionDescriptor
) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(u-bar, c1-bar, z): the small family composed with
    F = (f_x, f_y, z^(q^d)), the closed-form pair when every offset is
    zero, else the products of the lifted `line_forms`."""
    ctx = ls.ambient
    if descriptor.ctx != ctx or descriptor.n != n or descriptor.d != ls.d:
        raise ValueError("descriptor does not match the Lambda space")
    fx, fy, fz = kernel_invariants(ls)
    if descriptor.all_offsets_zero:
        return (*_dickson(1 << n, fx, fy), fz)
    zq = MultiPoly.from_terms(ctx, [((0, 0, descriptor.zpow), 1)])
    return (*_lifted_family(line_forms(descriptor), fx, fy, zq), fz)
