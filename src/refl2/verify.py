"""Polynomiality verification: the degree/Jacobian criterion, a graded
fixed-space oracle, and expression of invariants in candidate generators.

The criterion: three homogeneous invariants freely generate the
invariant ring iff their degrees multiply to the group order and their
Jacobian determinant is nonzero.  `kemper_check` verifies the three
clauses exactly and names every failing one.

The oracle is independent of the construction path: for a given degree
it computes the dimension of the space of fixed homogeneous polynomials
as the kernel of the stacked linear maps p -> act(p, g) - p over the
monomial basis (no averaging exists in the modular case), and compares
with the number of independent monomials in the candidate generators.

`express_in_generators` realizes the inductive division argument:
restrict to z = 0, express the restriction in the restricted
generators, subtract, divide by z, recurse.  The restricted generator
products have pairwise distinct leading monomials, so the matching-
degree linear system is triangular and is solved exactly by leading-
term elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from refl2.ffield import FieldCtx
from refl2.grouplift import Mat3
from refl2.linalg import field_kernel_dimension, field_matrix_rank
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


def monomials(deg: int, nvars: int) -> list[tuple[int, int, int]]:
    """Exponent triples of total degree deg, canonical (descending) order;
    nvars = 2 keeps the z-exponent zero."""
    out = []
    if nvars == 3:
        for a in range(deg, -1, -1):
            for b in range(deg - a, -1, -1):
                out.append((a, b, deg - a - b))
    elif nvars == 2:
        for a in range(deg, -1, -1):
            out.append((a, deg - a, 0))
    else:
        raise ValueError("nvars must be 2 or 3")
    return out


def graded_fixed_dimension(
    gens: list[Mat3], deg: int, nvars: int = 3, cap: int = 60
) -> int:
    """Dimension over the coefficient field of the fixed homogeneous
    polynomials of the given degree: the kernel of the stacked maps
    p -> act(p, g) - p on the monomial basis."""
    if deg > cap:
        raise ValueError(f"degree {deg} exceeds the configured cap {cap}")
    if not gens:
        raise ValueError("need at least one generator")
    ctx = gens[0].ctx
    if nvars == 2 and not all(g.is_block_diagonal() for g in gens):
        raise ValueError("2-variable oracle needs block-diagonal generators")
    monos = monomials(deg, nvars)
    index = {e: i for i, e in enumerate(monos)}
    D = len(monos)
    blocks = []
    for g in gens:
        sub = g.substitution()
        A = np.zeros((D, D), dtype=np.int64)
        for j, e in enumerate(monos):
            img = sub(MultiPoly(ctx, {e: 1}))
            for exps, c in img._terms.items():
                A[index[exps], j] = c
            A[j, j] ^= 1
        blocks.append(A)
    stacked = np.concatenate(blocks, axis=0)
    return field_kernel_dimension(ctx, stacked)


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
    weights = [p.deg() for p in invs]
    exps = _weighted_compositions(weights, deg)
    if not exps:
        return 0
    products = []
    for e in exps:
        prod = MultiPoly.one(ctx)
        for p, k in zip(invs, e):
            if k:
                prod = prod * p**k
        products.append(prod)
    support = sorted({t for p in products for t in p._terms})
    col = {t: i for i, t in enumerate(support)}
    A = np.zeros((len(products), max(len(support), 1)), dtype=np.int64)
    for i, p in enumerate(products):
        for t, c in p._terms.items():
            A[i, col[t]] = c
    return field_matrix_rank(ctx, A)


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
