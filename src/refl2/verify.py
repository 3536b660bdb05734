"""Polynomiality verification: the degree/Jacobian criterion, a graded
fixed-space oracle, and expression of invariants in candidate generators.

The criterion: three homogeneous invariants freely generate the
invariant ring iff their degrees multiply to the group order and their
Jacobian determinant is nonzero.  `kemper_check` verifies the three
clauses exactly and names every failing one.

The oracle is independent of the construction path: degree by degree it
compares the dimension of the fixed homogeneous polynomials, the kernel
of Phi_d(p) = (g p - p) stacked over the generators (no averaging exists
in the modular case), with the number of independent monomials in the
candidate generators.  `fixed_dimensions` sweeps all degrees at once.
Every generator has last row (0, 0, 1), so g z = z, and
  Phi_d(z p) = z Phi_{d-1}(p),
  S_d = k[x, y]_d + z S_{d-1} (direct sum),
  hence image Phi_d = Phi_d(k[x, y]_d) + z image Phi_{d-1}:
one GF(2) echelon basis of the image carries over from degree to degree,
and degree d adds only the images of the d+1 monomials free of z.
Ranks over GF(2^m) are GF(2) ranks of the rows v, t v, ..., t^(m-1) v,
divided by m.

`express_in_generators` realizes the inductive division argument:
restrict to z = 0, express the restriction in the restricted
generators, subtract, divide by z, recurse.  The restricted generator
products have pairwise distinct leading monomials, so the matching-
degree linear system is triangular and is solved exactly by leading-
term elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from refl2.ffield import FieldCtx
from refl2.grouplift import Mat3
from refl2.mvpoly import MultiPoly, jacobian_det


class NotInvariantError(ValueError):
    pass


class NotExpressibleError(ValueError):
    """A restriction is not expressible in the candidate generators --
    a failed generation claim, surfaced rather than absorbed."""


def is_invariant(p: MultiPoly, gens: list[Mat3]) -> bool:
    """True iff p is fixed by every generator (hence by the group)."""
    return all(p.act(g) == p for g in gens)


# -- Kemper's criterion ------------------------------------------------------


@dataclass(frozen=True)
class KemperVerdict:
    polynomial: bool
    failed_clauses: tuple[str, ...]
    group_order: int
    degrees: tuple[int, ...]
    degree_product: int
    fixed_by: tuple[tuple[bool, ...], ...]  # per generator, per invariant
    jacobian_nonzero: bool

    @property
    def invariance(self) -> tuple[bool, ...]:
        """Per invariant: fixed by every generator."""
        return tuple(
            all(row[i] for row in self.fixed_by) for i in range(len(self.degrees))
        )

    def __str__(self):
        if self.polynomial:
            return "POLYNOMIAL"
        return "FAIL(" + ",".join(self.failed_clauses) + ")"


def kemper_check(
    group_order: int, invs: list[MultiPoly], gens: list[Mat3]
) -> KemperVerdict:
    """POLYNOMIAL iff the invariants are fixed by all generators, their
    degrees multiply to the group order, and their Jacobian is nonzero.

    Every (generator, invariant) pair is evaluated once and recorded in
    `fixed_by`, one row per generator in the order given."""
    if len(invs) != 3:
        raise ValueError("the criterion needs exactly 3 invariants")
    for p in invs:
        if p.is_zero() or not p.is_homogeneous():
            raise ValueError("invariants must be nonzero and homogeneous")
    failed = []
    fixed_by = tuple(tuple(p.act(g) == p for p in invs) for g in gens)
    if not all(all(row) for row in fixed_by):
        failed.append("invariance")
    degrees = tuple(p.deg() for p in invs)
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


# -- graded fixed-space oracle ----------------------------------------------


def _insert(basis: dict, v: int) -> None:
    """Reduce the GF(2) row v (bit i of the int is column i) by the rows
    of `basis`, each keyed by the length of its highest set bit, and add
    the remainder if it is nonzero."""
    while v:
        top = v.bit_length()
        row = basis.get(top)
        if row is None:
            basis[top] = v
            return
        v ^= row


def _field_rows(ctx: FieldCtx, v: int) -> list[int]:
    """The GF(2) rows v, t v, ..., t^(m-1) v of a field vector packed m
    bits a coordinate (coordinate i in bits i*m .. i*m+m-1).  Together they
    span the field multiples of v, so GF(2) ranks are m times field ranks.

    Multiplying by t shifts every m-bit lane left by one and adds the
    reduction polynomial into the lanes whose top bit fell out."""
    m = ctx.m
    lanes = -(-v.bit_length() // m)
    top = ((1 << m * lanes) - 1) // ((1 << m) - 1) << (m - 1)
    low = ctx.modulus ^ (1 << m)
    rows = [v]
    for _ in range(m - 1):
        hi = v & top
        v = ((v ^ hi) << 1) ^ (hi >> (m - 1)) * low
        rows.append(v)
    return rows


def fixed_dimensions(gens: list[Mat3], max_deg: int, nvars: int = 3) -> list[int]:
    """Dimensions over the coefficient field of the fixed homogeneous
    polynomials of degrees 0..max_deg, in one sweep: entry d is the
    number of degree-d monomials minus the rank of Phi_d (module doc).

    Degree-d monomials are indexed z-exponent descending, then x-exponent
    descending, so x^a y^b z^c has index size-1 - a - c(d+1) + c(c-1)/2:
    the d+1 monomials free of z come last, and z times a monomial of
    degree d-1 keeps its index.  The value at (monomial, generator) is the
    m-bit lane monomial*|gens| + generator of a row.  With three variables
    the echelon rows of image Phi_{d-1} are thus rows of image Phi_d as
    they stand, and degree d inserts only Phi_d(x^a y^(d-a)).  Pivots are
    highest bits, so a new row whose z-free part is nonzero has its pivot
    past every row kept from lower degrees."""
    if not gens:
        raise ValueError("need at least one generator")
    if nvars not in (2, 3):
        raise ValueError("nvars must be 2 or 3")
    if nvars == 2 and not all(g.is_block_diagonal() for g in gens):
        raise ValueError("2-variable oracle needs block-diagonal generators")
    ctx = gens[0].ctx
    m, k = ctx.m, len(gens)
    images = [g.substitution().images[:2] for g in gens]
    basis: dict = {}
    dims = []
    for d in range(max_deg + 1):
        if nvars == 3:
            size = (d + 1) * (d + 2) // 2
        else:
            basis = {}  # no z: each degree starts afresh
            size = d + 1
        for a in range(d, -1, -1):
            v = 0
            for i, (px, py) in enumerate(images):
                v ^= 1 << ((size - 1 - a) * k + i) * m
                for (ea, _, ec), coeff in (px**a * py ** (d - a))._terms.items():
                    index = size - 1 - ea - ec * (d + 1) + ec * (ec - 1) // 2
                    v ^= coeff << (index * k + i) * m
            for row in _field_rows(ctx, v):
                _insert(basis, row)
        rank, rest = divmod(len(basis), m)
        assert not rest
        dims.append(size - rank)
    return dims


def graded_fixed_dimension(
    gens: list[Mat3], deg: int, nvars: int = 3, cap: int = 60
) -> int:
    """Dimension over the coefficient field of the fixed homogeneous
    polynomials of the given degree (see `fixed_dimensions`)."""
    if deg > cap:
        raise ValueError(f"degree {deg} exceeds the configured cap {cap}")
    return fixed_dimensions(gens, deg, nvars)[deg]


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


def generated_dimension(invs: list[MultiPoly], deg: int) -> int:
    """Rank of the set of monomials in the candidate generators of the
    given total degree, by exact elimination."""
    for p in invs:
        if p.is_zero() or not p.is_homogeneous():
            raise ValueError("generators must be nonzero and homogeneous")
    ctx = invs[0].ctx
    m = ctx.m
    column: dict = {}
    basis: dict = {}
    for e in _weighted_compositions([p.deg() for p in invs], deg):
        prod = MultiPoly.one(ctx)
        for p, k in zip(invs, e):
            if k:
                prod = prod * p**k
        v = 0
        for t, c in prod._terms.items():
            v ^= c << column.setdefault(t, len(column)) * m
        for row in _field_rows(ctx, v):
            _insert(basis, row)
    rank, rest = divmod(len(basis), m)
    assert not rest
    return rank


# -- expression in the generators ---------------------------------------------


@dataclass(frozen=True)
class GeneratorExpr:
    """A polynomial in the abstract symbols U, C, Z, tied to the concrete
    generators it refers to; substitution reproduces the source exactly."""

    ctx: FieldCtx
    terms: tuple  # ((i, j, k), coeff) pairs, canonical order
    generators: tuple[MultiPoly, MultiPoly, MultiPoly]

    def substitute(self) -> MultiPoly:
        u, c1, z = self.generators
        out = MultiPoly.zero(self.ctx)
        for (i, j, k), coeff in self.terms:
            prod = MultiPoly.constant(self.ctx, coeff)
            if i:
                prod = prod * u**i
            if j:
                prod = prod * c1**j
            if k:
                prod = prod * z**k
            out = out + prod
        return out

    def __str__(self):
        if not self.terms:
            return "0x0"
        parts = []
        for (i, j, k), coeff in self.terms:
            factors = []
            if coeff != 1 or (i, j, k) == (0, 0, 0):
                factors.append(f"{coeff:#x}")
            for name, e in zip(("U", "C", "Z"), (i, j, k)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _leading(p: MultiPoly) -> tuple[tuple[int, int, int], int]:
    exps = max(p._terms, key=lambda e: (e[0] + e[1] + e[2], e[0], e[1], e[2]))
    return exps, p._terms[exps]


def _express_restriction(ctx, p0, u0, c10, lu, lc1):
    """Write the plane polynomial p0 as sum h_ab u0^a c10^b.

    The products' leading monomials a*lu + b*lc1 are pairwise distinct,
    so greedy leading-term elimination is an exact triangular solve.
    """
    det = lu[0] * lc1[1] - lu[1] * lc1[0]
    coeffs = {}
    rem = p0
    while not rem.is_zero():
        (e1, e2, _), lcoef = _leading(rem)
        # solve a*lu + b*lc1 = (e1, e2) over the integers
        na = e1 * lc1[1] - e2 * lc1[0]
        nb = lu[0] * e2 - lu[1] * e1
        if na % det or nb % det:
            raise NotExpressibleError("restriction escapes the generators")
        a, b = na // det, nb // det
        if a < 0 or b < 0:
            raise NotExpressibleError("restriction escapes the generators")
        prod = u0**a * c10**b
        lead_exps, lead_c = _leading(prod)
        if lead_exps != (e1, e2, 0):
            raise NotExpressibleError("restriction escapes the generators")
        c = ctx.mul(lcoef, ctx.inv(lead_c))
        coeffs[(a, b)] = coeffs.get((a, b), 0) ^ c
        rem = rem + prod.scale(c)
    return coeffs


def express_in_generators(
    p: MultiPoly, invs: tuple[MultiPoly, MultiPoly, MultiPoly], gens: list[Mat3]
) -> GeneratorExpr:
    """The inductive division argument: restrict to z = 0, solve in the
    restricted generators, subtract, divide by z, recurse.  Exact round
    trip or an explicit error."""
    u, c1, z = invs
    ctx = p.ctx
    if z != MultiPoly.variable(ctx, 2):
        raise ValueError("the third generator must be the coordinate z")
    if not p.is_homogeneous():
        raise ValueError("input must be homogeneous")
    if not is_invariant(p, gens):
        raise NotInvariantError("input is not invariant under the generators")
    u0, c10 = u.restrict_z0(), c1.restrict_z0()
    lu, lc1 = _leading(u0)[0][:2], _leading(c10)[0][:2]
    if lu[0] * lc1[1] - lu[1] * lc1[0] == 0:
        raise ValueError("restricted generators have dependent leading terms")
    terms: dict = {}
    work = p
    zexp = 0
    while not work.is_zero():
        p0 = work.restrict_z0()
        if not p0.is_zero():
            solved = _express_restriction(ctx, p0, u0, c10, lu, lc1)
            # subtract the full lift of the solved restriction; the
            # difference vanishes at z = 0, hence divides by z
            lift = MultiPoly.zero(ctx)
            for (a, b), c in solved.items():
                terms[(a, b, zexp)] = c
                lift = lift + (u**a * c1**b).scale(c)
            work = work + lift
        if work.is_zero():
            break
        try:
            work = work.div_exact_z()
        except ValueError as exc:
            raise NotExpressibleError(str(exc)) from exc
        zexp += 1
    canon = tuple(
        (e, terms[e])
        for e in sorted(terms, key=lambda t: (sum(t), t[0], t[1], t[2]), reverse=True)
    )
    expr = GeneratorExpr(ctx, canon, (u, c1, z))
    if expr.substitute() != p:
        raise NotExpressibleError("reconstruction mismatch")
    return expr
