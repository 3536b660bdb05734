"""Polynomiality verification: the degree/Jacobian criterion, a graded
fixed-space oracle, and expression of invariants in candidate generators.

The criterion: three homogeneous invariants freely generate the
invariant ring iff their degrees multiply to the group order and their
Jacobian determinant is nonzero.  `kemper_check` verifies the three
clauses exactly on expanded invariants and names every failing one; it
is the tests' reference.  The pipeline decides the criterion for the
small family (u~, c1~, z) under the maps M_g, building neither u-bar nor
c1-bar nor, closed-form or lifted, the family: `kemper_lines` reads the
verdict off the entries of each M_g, and the degrees and Jacobian off
closed forms in q, on every run.

The oracle compares, degree by degree, the dimension of the fixed
homogeneous polynomials in x, y, z, the kernel of Phi_d(p) = (g p - p)
stacked over the generators (no averaging exists in the modular case),
with the dimension of the span of the degree-d products of the candidate
generators.  Three variables suffice: for block-diagonal generators
S^G = k[x, y]^G [z], so dim S^G_d is the sum over k <= d of
dim k[x, y]^G_k, and likewise for Gen(c0, c1, z) and Gen(c0, c1); by
first differences, agreement up to degree D in one form is agreement up
to D in the other.  `fixed_dimensions` sweeps all degrees at once.
Every generator has last row (0, 0, 1), so g z = z, and
  Phi_d(z p) = z Phi_{d-1}(p),
  S_d = k[x, y]_d + z S_{d-1} (direct sum),
  hence image Phi_d = Phi_d(k[x, y]_d) + z image Phi_{d-1}:
one GF(2) echelon basis of the image carries over from degree to degree,
and degree d adds only the images of the d+1 monomials free of z.  Rows
are m-bit lanes: for a sweep to degree D, x^a y^b z^c sits at lane
(a + (D+1) b) k + i, whatever c, where k rows are interleaved and i
picks one.  So z times a row is the row itself, x shifts it by k lanes
and y by (D+1) k lanes, and each image
g(x^a y^(d-a)) = g(x^(a-1) y^(d-a)) g x (g y when a = 0) is built from
one of degree d-1 by shifts and scalar multiples alone.  Ranks over
GF(2^m) are GF(2) ranks of the rows v, t v, ..., t^(m-1) v, divided by
m, and c v is the XOR of the t^j v over the set bits j of c.
The generated side is a count.  Let the restrictions of homogeneous u
and c1 to z = 0 have independent leads lu and lc1 (`restricted_leads`).
Then the restricted products u^i c1^j have the distinct leads
i lu + j lc1, so they are linearly independent; a least relation
G(u, c1, z) = 0 has G(U, C, 0) = 0, so Z divides G and G/Z is a smaller
relation.  So the products u^i c1^j z^k are linearly independent, and
the generated dimension in degree D is the number of them, the
coefficient of t^D in 1/((1 - t^deg u)(1 - t^deg c1)(1 - t))
(`free_dimensions`).
`generated_dimension` ranks the products of one degree by elimination,
packed as expression packs them (`_pack_levels`), with no premise; it
is the reference the count is tested against.

`express_in_generators` realizes the inductive division argument in one
pass over the z-levels of p, lowest first, by subalgebra reduction
(Robbiano and Sweedler, "Subalgebra bases", 1990), on p packed once as
one row of m-bit lanes.  p is homogeneous of degree D, so x^a y^b z^c is
named by (c, b), and its coefficient sits at lane c T + b, with T the
least power of two above D (`_pack_levels`; the packing pass checks
homogeneity).  The lowest set lane is then the lead: the lowest z-level
first, then the largest power of x.  The restricted products
u(x, y, 0)^a c1(x, y, 0)^b have pairwise distinct leading monomials
a lu + b lc1, so the lead x^e1 y^e2 z^k names one (a, b); over a field
the lead of a product is the product of the leads, so u^a c1^b has the
term x^e1 y^e2 z^0, at lane e2 of its own row, and adding c z^k u^a c1^b
for the matching c cancels the lead and lifts the product into the
higher levels at once.  That step is v ^= c * row << k T lanes: c times
the packed product is the XOR of its `_field_rows` over the set bits of
c (`_scale`), so a step costs O(m) big-int operations whatever the size
of the product.  The products exist only as packed rows, built on the
lanes (Kronecker substitution): u^a c1^b is u^(a-1) c1^b times u, or
c1^b is c1^(b-1) times c1, one scaled, shifted copy of the smaller row
per term of the factor (`_Pair._step`), and no lane carries since every
product has degree below T.  Each is built once per stride T for the life of u, in one memo kept on u by c1
(`_Pair`) with the homogeneity of u and c1, their restricted leads and
the determinant that solves for (a, b).  The lanes hold the products
only if u and c1 are homogeneous, so any other pair is refused before
any work.  The reconstruction check XORs the canonical terms' scaled,
shifted products again and compares with packed p exactly on every call;
`GeneratorExpr.substitute` rebuilds the same XOR and unpacks it.
Invariance comes last, from the generators: g acts on k[x, y, z] as a
ring automorphism, so once p = F(u, c1, z) holds exactly, every g fixing
u, c1 and z fixes p.  Each polynomial remembers which g fix it
(`MultiPoly.is_fixed_by`), so at n=2 d=0 the generators are acted on 9
times (8, 42 and 1 terms) for the life of those objects, not one `act`
per g of a p of up to hundreds of terms on every call.  p is acted on
only when some g moves u, c1 or z, or when expression fails, to tell a
non-invariant p from a failed claim: a rejected input pays for one
expression attempt, then one `act` of p per generator.
"""

from __future__ import annotations

from typing import NamedTuple

from refl2.ffield import FieldCtx, gf2_insert
from refl2.grouplift import Mat3, cocycle_f
from refl2.invariants import ActionDescriptor, ActionShapeError, lift_scale
from refl2.mvpoly import MultiPoly, _term_key, format_terms, jacobian_det


class NotInvariantError(ValueError):
    pass


class NotExpressibleError(ValueError):
    """A restriction is not expressible in the candidate generators --
    a failed generation claim, surfaced rather than absorbed."""


def is_invariant(p: MultiPoly, gens: list[Mat3]) -> bool:
    """True iff p is fixed by every generator (hence by the group).  p
    remembers the answer per generator (`MultiPoly.is_fixed_by`), so it is
    acted on once per distinct g for its life."""
    return all(p.is_fixed_by(g) for g in gens)


# -- Kemper's criterion ------------------------------------------------------


class KemperVerdict(NamedTuple):
    polynomial: bool
    failed_clauses: tuple[str, ...]
    group_order: int
    degrees: tuple[int, ...]
    degree_product: int
    fixed_by: tuple[tuple[bool, ...], ...]  # per generator, per invariant
    jacobian_nonzero: bool

    def __str__(self):
        if self.polynomial:
            return "POLYNOMIAL"
        return "FAIL(" + ",".join(self.failed_clauses) + ")"


def kemper_check(
    group_order: int,
    invs: list[MultiPoly],
    gens: list[Mat3],
    weights: tuple[int, int, int] = (1, 1, 1),
) -> KemperVerdict:
    """POLYNOMIAL iff the invariants are fixed by all generators, their
    degrees multiply to the group order, and their Jacobian is nonzero.

    The definition on expanded invariants, and the tests' reference for
    `kemper_lines`.  Every (generator, invariant) pair is evaluated once,
    by the memoized `MultiPoly.is_fixed_by` that `is_invariant` reads, and
    recorded in `fixed_by`, one row per generator in the order given.
    Degree i counts as weights[i] * deg(invs[i]): given the small family
    (u~, c1~, z), the maps M_g and weights (q^d, q^d, 1), it decides the
    criterion for (u-bar, c1-bar, z) = (u~ o F, c1~ o F, z) with
    F = (f_x, f_y, z^(q^d)).  This is exact.  F is algebraically independent (f_x is monic in x
    over k[z]), so composing with F is injective and g (p o F) =
    (M_g p) o F equals p o F iff M_g p = p.  By the chain rule,
    J(u-bar, c1-bar, z) = c_0^2 z^(2(q^d-1)) (J(u~, c1~, z) o F), with
    c_0 != 0 the x-coefficient of the separable P."""
    if len(invs) != 3:
        raise ValueError("the criterion needs exactly 3 invariants")
    for p in invs:
        if p.is_zero() or not p.is_homogeneous():
            raise ValueError("invariants must be nonzero and homogeneous")
    failed = []
    fixed_by = tuple(tuple(p.is_fixed_by(g) for p in invs) for g in gens)
    if not all(all(row) for row in fixed_by):
        failed.append("invariance")
    degrees = tuple(w * p.deg() for w, p in zip(weights, invs))
    product = degrees[0] * degrees[1] * degrees[2]
    if product != group_order:
        failed.append("degree-product")
    jac_nonzero = not jacobian_det(*invs).is_zero()
    if not jac_nonzero:
        failed.append("jacobian")
    return KemperVerdict(
        polynomial=not failed,
        failed_clauses=tuple(failed),
        group_order=group_order,
        degrees=degrees,
        degree_product=product,
        fixed_by=fixed_by,
        jacobian_nonzero=jac_nonzero,
    )


def kemper_lines(group_order: int, desc: ActionDescriptor) -> KemperVerdict:
    """`kemper_check` of the small family (u~, c1~, z) under the maps M_g
    with weights (q^d, q^d, 1), read off the entries of each M_g.

    The family is built from the forms p x + r y + gamma g(p, r) z over
    the points (p, r) of P^1(GF(q)) (`line_forms`), which restrict at
    z = 0 to the closed-form pair (u, c1) (`refl2.invariants` module doc),
    gamma the `lift_scale`, g(p, r) = p + r + sqrt(p r) and f = g + 1,
    where sqrt x = x^(q/2) is additive and multiplicative on GF(q).  Let
    M = [[a, b, t0], [c, d, t1]] with block A and delta = ad + bc; a
    singular A or one with an entry outside GF(q) raises
    `ActionShapeError`.  M sends the form of (p, r) to that of (p, r) A,
    its z-coefficient plus p t0 + r t1, and
      g((p, r) A) = g(p, r) + p f(a, b) + r f(c, d) + (1 + sqrt delta) sqrt(p r),
    so the image is a lifted form iff
      Delta(p, r) = p (t0 + gamma f(a, b)) + r (t1 + gamma f(c, d))
                    + gamma (1 + sqrt delta) sqrt(p r)
    vanishes.  Delta(s p, s r) = s Delta(p, r), so it vanishes on the q+1
    points iff on GF(q)^2, iff at (1, 0), (0, 1) and (1, 1): M permutes
    the forms iff (t0, t1) = gamma (f(a, b), f(c, d)) and (gamma = 0 or
    delta = 1), i.e. M lies in the cocycle subgroup H_gamma, or gamma = 0
    and M has no offset.  Each form goes to lambda_L in GF(q)* times a
    normalized one, and prod_L lambda_L = delta, as the plane forms
    multiply to u = det [[x, y], [x^q, y^q]] and u o A = delta u.  The
    forms are distinct primes, so M fixes u~ = prod_L L iff it permutes
    them with prod_L lambda_L = 1: the u flag, permutes and delta = 1, is
    exact.  c1~ = sum_L (u~/L)^(q-1) and lambda_L^(q-1) = 1, so the c1
    flag is permutes (False: not shown fixed).  A False flag fails
    `invariance`.  The degrees are q + 1 and q^2 - q.  The Jacobian is
    nonzero, whatever the lift.  In characteristic 2 with q even,
    u = x^q y + x y^q has u_x = y^q and u_y = x^q, and the x- and
    y-partials of c1 = sum_{i=0..q} x^((q-1)i) y^((q-1)(q-i)) keep only
    its odd i, so
      J(u, c1, z) = y^q c1_y + x^q c1_x
                  = sum_{k=1..q} x^((q-1)k) y^((q-1)(q+1-k))
                  = (x^q y + x y^q)^(q-1) = u^(q-1) = c0,
    the odd i give the odd k and i + 1 the even ones, and the last sum is
    (xy)^(q-1) (x^(q-1) + y^(q-1))^(q-1), as every C(q-1, k) is odd
    (Lucas: every bit of q - 1 is set).  z = 0 commutes with the x and y
    partials, so J(u~, c1~, z) restricts to that c0 and is nonzero."""
    ctx, n = desc.ctx, desc.n
    mul = ctx.mul
    gamma = lift_scale(desc)
    fixed_by = []
    for M in desc.maps:
        (a, b, t0), (c, d, t1), _ = M.rows
        delta = mul(a, d) ^ mul(b, c)
        if delta == 0 or not all(ctx.in_subfield(v, n) for v in (a, b, c, d)):
            raise ActionShapeError("a map M_g has a singular block or one outside GF(2^n)")
        cocycle = mul(gamma, cocycle_f(ctx, a, b, n)), mul(gamma, cocycle_f(ctx, c, d, n))
        permutes = (t0, t1) == cocycle and (gamma == 0 or delta == 1)
        fixed_by.append((permutes and delta == 1, permutes, True))
    q = 1 << n
    degrees = (desc.zpow * (q + 1), desc.zpow * (q * q - q), 1)
    product = degrees[0] * degrees[1]
    failed = [] if all(all(row) for row in fixed_by) else ["invariance"]
    if product != group_order:
        failed.append("degree-product")
    return KemperVerdict(
        polynomial=not failed,
        failed_clauses=tuple(failed),
        group_order=group_order,
        degrees=degrees,
        degree_product=product,
        fixed_by=tuple(fixed_by),
        jacobian_nonzero=True,
    )


# -- graded fixed-space oracle ----------------------------------------------

# Cap on the bits of one oracle row, (D+1)^2 * k * m for top degree D, k
# interleaved generators and m-bit lanes (`oracle_row_bits`).  The echelon
# basis holds up to m (D+1)(D+2)/2 rows of up to that width, so the cap
# bounds the sweep's memory and time: the largest sweep it admits at n=2
# d=0, D = 146, peaks at about 210 MB.
ROW_BITS_CAP = 1 << 17


def oracle_row_bits(max_deg: int, k: int, m: int) -> int:
    """Bits in one packed row of a sweep to degree max_deg that interleaves
    k rows of m-bit lanes (`fixed_dimensions`)."""
    return (max_deg + 1) ** 2 * k * m


def _repeat(width: int, count: int) -> int:
    """Bit 0 of each of `count` consecutive blocks of `width` bits."""
    return ((1 << width * count) - 1) // ((1 << width) - 1)


def _field_rows(ctx: FieldCtx, v: int, tops: int) -> list[int]:
    """The GF(2) rows v, t v, ..., t^(m-1) v of a field vector packed m
    bits a coordinate (coordinate i in bits i*m .. i*m+m-1).  Together they
    span the field multiples of v, so GF(2) ranks are m times field ranks.

    Multiplying by t shifts every m-bit lane left by one and adds the
    reduction polynomial into the lanes whose top bit fell out; `tops`
    holds the top bit of every lane of v, `_repeat(m, lanes) << (m - 1)`,
    built once per sweep."""
    m = ctx.m
    low = ctx.modulus ^ (1 << m)
    rows = [v]
    for _ in range(m - 1):
        hi = v & tops
        v = ((v ^ hi) << 1) ^ (hi >> (m - 1)) * low
        rows.append(v)
    return rows


def _scale(rows: list[int], c: int) -> int:
    """c times the field vector whose `_field_rows` are `rows`: the XOR of
    t^j v over the set bits j of c."""
    out = 0
    for row in rows:
        if c & 1:
            out ^= row
        c >>= 1
    return out


def _check_degree(max_deg: int) -> None:
    if max_deg < 0:
        raise ValueError("the top degree must be at least 0")


def fixed_dimensions(gens: list[Mat3], max_deg: int) -> list[int]:
    """Dimensions over the coefficient field of the fixed homogeneous
    polynomials in x, y, z of degrees 0..max_deg, in one sweep: entry d
    is the number of degree-d monomials minus the rank of Phi_d (module
    doc).  For block-diagonal generators the counts in x, y alone are the
    first differences of this list, since S^G = k[x, y]^G [z].

    The value at (x^a y^b z^c, generator) sits at lane
    (a + (max_deg+1) b) |gens| + generator, whatever c.  So one echelon
    basis serves the whole sweep: the rows of image Phi_{d-1} are rows of
    image Phi_d as they stand, and degree d inserts only
    Phi_d(x^a y^(d-a)).  Every generator's image of x^a y^(d-a) is built
    at once from the packed images of degree d-1: times g x (or g y when
    a = 0), which is a shift per variable and, per lane, the scalar of
    that lane's generator, picked out by lane masks.  Each image is kept
    as its `_field_rows`, built once: multiplying by t acts lane by lane
    and is GF(2)-linear, so the rows of Phi_d(x^a y^(d-a)) are those of
    the image XOR those of the constant 1 shifted to x^a y^(d-a)."""
    if not gens:
        raise ValueError("need at least one generator")
    _check_degree(max_deg)
    ctx = gens[0].ctx
    if any(g.ctx != ctx for g in gens):
        raise ValueError("generators from mixed contexts")
    m, k, side = ctx.m, len(gens), max_deg + 1
    tops = _repeat(m, side * side * k) << (m - 1)
    blocks = _repeat(k * m, side * side)
    ones = _repeat(m, k)  # the constant 1 under every generator

    def linear(r):
        """Row r of every generator, g x or g y, as (shift, lane masks)
        pairs, one per variable: masks[j] covers the lanes of the
        generators whose coefficient has bit j set."""
        factor = []
        for col, shift in enumerate((k * m, side * k * m, 0)):
            masks = [
                blocks * sum(
                    ((1 << m) - 1) << i * m
                    for i, g in enumerate(gens)
                    if g.rows[r][col] >> j & 1
                )
                for j in range(m)
            ]
            if any(masks):
                factor.append((shift, masks))
        return factor

    gx, gy = linear(0), linear(1)

    def times(rows, factor):
        """The `_field_rows` of the image with rows `rows` times factor."""
        out = 0
        for shift, masks in factor:
            for row, mask in zip(rows, masks):
                if mask:
                    out ^= (row & mask) << shift
        return _field_rows(ctx, out, tops)

    ones_rows = _field_rows(ctx, ones, tops)
    images = [ones_rows]  # g x^a y^(d-a) for a = d..0, here d = 0
    basis: dict = {}
    dims = []
    for d in range(max_deg + 1):
        if d:
            images = [times(rows, gx) for rows in images] + [times(images[-1], gy)]
        for b, rows in enumerate(images):
            off = (d - b + side * b) * k * m
            for row, one in zip(rows, ones_rows):
                gf2_insert(basis, row ^ one << off)
        rank, rest = divmod(len(basis), m)
        assert not rest
        dims.append((d + 1) * (d + 2) // 2 - rank)
    return dims


def graded_fixed_dimension(gens: list[Mat3], deg: int) -> int:
    """Dimension over the coefficient field of the fixed homogeneous
    polynomials of the given degree (see `fixed_dimensions`)."""
    return fixed_dimensions(gens, deg)[deg]


def _weighted_compositions(weights: list[int], total: int):
    """All exponent tuples e with sum e_i * w_i = total."""
    out = []

    def rec(i, rem, acc):
        if i == len(weights):
            if rem == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        for e in range(rem // w + 1):
            rec(i + 1, rem - e * w, acc + [e])

    rec(0, total, [])
    return out


def _check_generators(invs: list[MultiPoly]) -> None:
    for p in invs:
        if p.is_zero() or not p.is_homogeneous():
            raise ValueError("generators must be nonzero and homogeneous")
        if p.deg() == 0:
            raise ValueError("generators must have positive degree")


def generated_dimension(invs: list[MultiPoly], deg: int) -> int:
    """Rank of the set of monomials in the candidate generators of the
    given total degree, by exact elimination.  The products are built as
    `MultiPoly`s and packed by `_pack_levels` at stride `_stride(deg)`."""
    if not invs:
        raise ValueError("need at least one generator")
    _check_generators(invs)
    ctx, T = invs[0].ctx, _stride(deg)
    tops = _repeat(ctx.m, T * T) << (ctx.m - 1)
    basis: dict = {}
    for e in _weighted_compositions([p.deg() for p in invs], deg):
        prod = MultiPoly.one(ctx)
        for p, k in zip(invs, e):
            if k:
                prod = prod * p**k
        for row in _field_rows(ctx, _pack_levels(prod, deg, T), tops):
            gf2_insert(basis, row)
    rank, rest = divmod(len(basis), ctx.m)
    assert not rest
    return rank


def free_dimensions(degrees, max_deg: int) -> list[int]:
    """Dimensions in degrees 0..max_deg of a polynomial ring on
    generators of the given degrees: the coefficients of
    1/prod(1 - t^w) over w in degrees, one pass per degree.  These are
    the generated dimensions of algebraically independent generators
    (`restricted_leads`)."""
    _check_degree(max_deg)
    if any(w < 1 for w in degrees):
        raise ValueError("degrees must be at least 1")
    counts = [1] + [0] * max_deg
    for w in degrees:
        for deg in range(w, max_deg + 1):
            counts[deg] += counts[deg - w]
    return counts


def restricted_leads(u: MultiPoly, c1: MultiPoly):
    """(lu, lc1, det): the leads of u(x, y, 0) and c1(x, y, 0), their
    largest exponent pairs (a, b) in lex order, the graded-lex leads for
    homogeneous u and c1, and det = lu x lc1; or a ValueError when a
    restriction is zero or det = 0.  With det != 0 the products
    u^i c1^j z^k of homogeneous u and c1 are linearly independent
    (module doc), and expression solves for (i, j) from a lead."""
    lu, lc1 = (max(((a, b) for a, b, c in f._terms if not c), default=None) for f in (u, c1))
    if lu is None or lc1 is None:
        raise ValueError("a generator vanishes at z = 0: no leading term to solve with")
    det = lu[0] * lc1[1] - lu[1] * lc1[0]
    if det == 0:
        raise ValueError("restricted generators have dependent leading terms")
    return lu, lc1, det


# -- expression in the generators ---------------------------------------------


def _stride(deg: int) -> int:
    """The lane stride T for a homogeneous degree deg (`_pack_levels`):
    the least power of two above it, so that inputs of nearby degrees
    share the packed products."""
    return 1 << deg.bit_length()


def _pack_levels(f: MultiPoly, deg: int, T: int) -> int:
    """f, homogeneous of degree deg < T, as a row of m-bit lanes: the
    coefficient of x^a y^b z^c goes to lane c T + b, which names the term
    since a = deg - b - c.  So the lowest set lane is the lowest z-level's
    graded-lex lead, and z^k times a row is a shift by k T lanes.  Each
    z-level is packed on its own, as a short int, and the levels are
    joined at the end.  ValueError on a term of another degree."""
    m = f.ctx.m
    levels = [0] * (deg + 1)
    for (a, b, c), coeff in f._terms.items():
        if a + b + c != deg:
            raise ValueError("input must be homogeneous")
        levels[c] ^= coeff << b * m
    shift, v = T * m, 0
    for level in reversed(levels):
        v = v << shift ^ level
    return v


def _unpack_levels(v: int, deg: int, T: int, m: int) -> dict:
    """The term dict of a row packed as `_pack_levels` does, one z-level
    at a time."""
    mask, shift = (1 << m) - 1, T * m
    level_mask = (1 << shift) - 1
    terms = {}
    k = 0
    while v:
        level = v & level_mask
        v >>= shift
        b = 0
        while level:
            skip = ((level & -level).bit_length() - 1) // m
            level >>= skip * m
            b += skip
            terms[deg - b - k, b, k] = level & mask
            level >>= m
            b += 1
        k += 1
    return terms


class _Pair:
    """What expression asks of u and c1 together, kept on u by c1
    (`MultiPoly._products`) so every call with the pair shares it, and
    freed with u; it refers to the term dicts of u and c1, not to them.
    Built once: whether both are homogeneous, and their restricted leads
    (`restricted_leads`), or why no lead solves (`error`).  Then only
    packed rows: by (a, b, T), the `_field_rows` of every product
    u^a c1^b built so far at stride T."""

    __slots__ = ("homogeneous", "error", "lu", "lc1", "det", "terms", "rows")

    def __init__(self, u: MultiPoly, c1: MultiPoly):
        self.terms = (u._terms, c1._terms)
        self.rows: dict = {}
        self.error = self.lu = self.lc1 = self.det = None
        self.homogeneous = u.is_homogeneous() and c1.is_homogeneous()
        if self.homogeneous:
            try:
                self.lu, self.lc1, self.det = restricted_leads(u, c1)
            except ValueError as exc:
                self.error = str(exc)

    @staticmethod
    def of(u: MultiPoly, c1: MultiPoly) -> "_Pair":
        """The pair kept on u by c1, built on first use.  ValueError unless
        u and c1 are homogeneous, which the packed rows need."""
        if u._products is None:
            u._products = {}
        pair = u._products.get(c1) or u._products.setdefault(c1, _Pair(u, c1))
        if not pair.homogeneous:
            raise ValueError("generators must be homogeneous")
        return pair

    def field_rows(self, ctx: FieldCtx, a: int, b: int, T: int) -> list[int]:
        """The `_field_rows` of u^a c1^b, of degree below T, packed at
        stride T; built with every missing product on the path 1, c1, ...,
        c1^b, u c1^b, ..., u^a c1^b, each from the one before it."""
        rows = self.rows.get((a, b, T))
        if rows is None:
            for i, j in [(0, j) for j in range(b + 1)] + [(i, b) for i in range(1, a + 1)]:
                if (i, j, T) not in self.rows:
                    self._step(ctx, i, j, T)
            rows = self.rows[a, b, T]
        return rows

    def _step(self, ctx: FieldCtx, a: int, b: int, T: int) -> None:
        """Keep the rows of u^a c1^b at stride T: 1, or u^(a-1) c1^b times
        u, or c1^(b-1) times c1, from the kept rows of the smaller product.
        A term y^e z^k of u or c1 moves lane c T + b to (c + k) T + b + e,
        and b + e is at most the product's degree, below T, so no lane
        carries into the next: the product is the XOR of one scaled,
        shifted copy of the smaller row per term of the factor."""
        m, v = ctx.m, 1
        if a or b:
            (i, j), terms = ((a - 1, b), self.terms[0]) if a else ((0, b - 1), self.terms[1])
            rows, v = self.rows[i, j, T], 0
            for (_, e, k), c in terms.items():
                v ^= _scale(rows, c) << (k * T + e) * m
        # the top bit of every lane c T + b with b, c < T
        self.rows[a, b, T] = _field_rows(ctx, v, _repeat(m, T * T) << (m - 1))

    def packed(self, ctx: FieldCtx, terms, T: int) -> int:
        """sum c z^k u^i c1^j over ((i, j, k), c) in terms, all of one
        degree below T, packed at stride T."""
        shift = T * ctx.m
        v = 0
        for (i, j, k), c in terms:
            if c:
                v ^= _scale(self.field_rows(ctx, i, j, T), c) << k * shift
        return v


def _check_triple(ctx: FieldCtx, invs) -> None:
    """ValueError unless the candidate generators (u, c1, z) are over ctx
    and z is the coordinate itself."""
    if any(f.ctx != ctx for f in invs):
        raise ValueError("polynomials from mismatched contexts")
    if invs[2] != MultiPoly.variable(ctx, 2):
        raise ValueError("the third generator must be the coordinate z")


class GeneratorExpr:
    """A polynomial in the abstract symbols U, C, Z, tied to the concrete
    generators (u, c1, z) it refers to, z the coordinate itself;
    substitution reproduces the source exactly."""

    __slots__ = ("ctx", "terms", "generators")

    def __init__(self, ctx: FieldCtx, terms: tuple, generators: tuple):
        _check_triple(ctx, generators)
        self.ctx = ctx
        self.terms = terms  # ((i, j, k), coeff) pairs, canonical order
        self.generators = generators

    def substitute(self) -> MultiPoly:
        """The polynomial this stands for, one degree at a time: the XOR
        of the packed products that u keeps (`_Pair.packed`), unpacked.
        ValueError unless u and c1 are homogeneous."""
        u, c1, _ = self.generators
        pair = _Pair.of(u, c1)
        by_degree: dict = {}
        for (i, j, k), c in self.terms:
            by_degree.setdefault(i * u.deg() + j * c1.deg() + k, []).append(((i, j, k), c))
        terms: dict = {}
        for deg, group in by_degree.items():
            T = _stride(deg)
            terms.update(_unpack_levels(pair.packed(self.ctx, group, T), deg, T, self.ctx.m))
        return MultiPoly(self.ctx, terms)

    def __str__(self):
        return format_terms(self.terms, ("U", "C", "Z"))


def express_in_generators(
    p: MultiPoly, invs: tuple[MultiPoly, MultiPoly, MultiPoly], gens: list[Mat3]
) -> GeneratorExpr:
    """The inductive division argument over the z-levels of p (module
    doc).  Exact round trip or an explicit error.  Invariance is proved
    on (u, c1, z), and on p only when that proof is not available."""
    u, c1, z = invs
    _check_triple(p.ctx, invs)
    pair = _Pair.of(u, c1)
    # the degree of any term; packing checks that every term has it
    deg = sum(next(iter(p._terms), (0, 0, 0)))
    packed = _pack_levels(p, deg, _stride(deg))
    try:
        expr = _express(p, packed, deg, pair, (u, c1, z))
    except ValueError as exc:
        if not is_invariant(p, gens):
            raise NotInvariantError("input is not invariant under the generators") from exc
        raise
    if not all(is_invariant(f, gens) for f in invs) and not is_invariant(p, gens):
        raise NotInvariantError("input is not invariant under the generators")
    return expr


def _express(p, packed: int, deg: int, pair: _Pair, invs) -> GeneratorExpr:
    """p, homogeneous of degree deg and packed at stride T = _stride(deg),
    as a polynomial in (u, c1, z), checked by exact reconstruction, or a
    `ValueError`; invariance is the caller's.  Each step eliminates the
    lowest set lane by one XOR of a scaled, shifted product (module doc)."""
    if pair.error:
        raise ValueError(pair.error)
    lu, lc1, det = pair.lu, pair.lc1, pair.det
    ctx = p.ctx
    m, mask, T = ctx.m, ctx.order - 1, _stride(deg)
    v = packed
    terms: dict = {}
    while v:
        lane = ((v & -v).bit_length() - 1) // m
        k, e2 = divmod(lane, T)
        e1 = deg - k - e2
        # solve a*lu + b*lc1 = (e1, e2) over the integers
        na = e1 * lc1[1] - e2 * lc1[0]
        nb = lu[0] * e2 - lu[1] * e1
        a, b = na // det, nb // det
        if na % det or nb % det or a < 0 or b < 0:
            raise NotExpressibleError("restriction escapes the generators")
        rows = pair.field_rows(ctx, a, b, T)
        # the lead of u^a c1^b is x^e1 y^e2 z^0, at lane e2 of its row
        c = ctx.mul(v >> lane * m & mask, ctx.inv(rows[0] >> e2 * m & mask))
        terms[a, b, k] = c
        v ^= _scale(rows, c) << k * T * m
    canon = tuple((e, terms[e]) for e in sorted(terms, key=_term_key, reverse=True))
    expr = GeneratorExpr(ctx, canon, invs)
    if pair.packed(ctx, canon, T) != packed:
        raise NotExpressibleError("reconstruction mismatch")
    return expr
