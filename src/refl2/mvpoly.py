"""Sparse exact trivariate polynomials over GF(2^m).

A `MultiPoly` maps exponent triples (a, b, c) for x^a y^b z^c to nonzero
coefficients (field elements as ints, see refl2.ffield).  Zero
coefficients are never stored.  The canonical term order everywhere --
iteration, printing, hashing -- is graded lexicographic descending:
total degree first, then the x, y, z exponents.

The group acts by substitution: for a matrix g with last row (0,0,1),
act(p, g) replaces each coordinate function by its composite with g
(x picks up row 0 of g, y row 1, z stays z).  Substitution, products
and powers exploit characteristic 2 throughout: squaring a polynomial
is termwise, so powers collapse via the Frobenius.

Text format: terms in canonical order joined by " + ", each term
"{coeff-hex}*x^a*y^b*z^c" with zero exponents omitted, "^1" omitted,
and unit coefficients omitted (a bare constant prints as its hex).
The zero polynomial prints "0x0".
"""

from __future__ import annotations

from typing import Iterable, Iterator

from refl2.ffield import Fel, FieldCtx

DEGREE_CAP = 1 << 16

_VARS = ("x", "y", "z")


def _term_key(exps):
    a, b, c = exps
    return (a + b + c, a, b, c)


class MultiPoly:
    """Immutable sparse polynomial in x, y, z over a FieldCtx."""

    __slots__ = ("ctx", "_terms", "_key", "_pows")

    def __init__(self, ctx: FieldCtx, terms: dict | None = None):
        self.ctx = ctx
        self._terms = terms or {}
        self._key = None
        self._pows = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "MultiPoly":
        return cls(ctx)

    @classmethod
    def one(cls, ctx: FieldCtx) -> "MultiPoly":
        return cls(ctx, {(0, 0, 0): 1})

    @classmethod
    def constant(cls, ctx: FieldCtx, c) -> "MultiPoly":
        c = c.bits if isinstance(c, Fel) else c
        return cls(ctx, {(0, 0, 0): c} if c else {})

    @classmethod
    def variable(cls, ctx: FieldCtx, idx: int) -> "MultiPoly":
        e = [0, 0, 0]
        e[idx] = 1
        return cls(ctx, {tuple(e): 1})

    @classmethod
    def linear_form(cls, ctx: FieldCtx, a, b, c) -> "MultiPoly":
        """a*x + b*y + c*z with int or Fel coefficients."""
        coeffs = [v.bits if isinstance(v, Fel) else v for v in (a, b, c)]
        terms = {}
        for i, v in enumerate(coeffs):
            if v:
                e = [0, 0, 0]
                e[i] = 1
                terms[tuple(e)] = v
        return cls(ctx, terms)

    @classmethod
    def from_terms(cls, ctx: FieldCtx, items: Iterable) -> "MultiPoly":
        """Build from (exps, coeff) pairs; repeated exponents xor together."""
        terms = {}
        for exps, coeff in items:
            c = coeff.bits if isinstance(coeff, Fel) else coeff
            exps = tuple(exps)
            c ^= terms.get(exps, 0)
            if c:
                terms[exps] = c
            else:
                terms.pop(exps, None)
        return cls(ctx, terms)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def deg(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(a + b + c for a, b, c in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {a + b + c for a, b, c in self._terms}
        return len(degs) <= 1

    def coeff(self, exps) -> Fel:
        return Fel(self._terms.get(tuple(exps), 0), self.ctx)

    def terms(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        """Terms in canonical graded-lex descending order (coeffs as ints)."""
        for exps in sorted(self._terms, key=_term_key, reverse=True):
            yield exps, self._terms[exps]

    def var_degrees(self, idx: int) -> set[int]:
        return {e[idx] for e in self._terms}

    # -- ring operations -----------------------------------------------------

    def _check_ctx(self, other):
        if self.ctx != other.ctx:
            raise ValueError("polynomials from mismatched contexts")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_ctx(other)
        if len(self._terms) < len(other._terms):
            self, other = other, self
        terms = dict(self._terms)
        for exps, c in other._terms.items():
            c ^= terms.pop(exps, 0)
            if c:
                terms[exps] = c
        return MultiPoly(self.ctx, terms)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_ctx(other)
        if not self._terms or not other._terms:
            return MultiPoly(self.ctx)
        if self.deg() + other.deg() > DEGREE_CAP:
            raise OverflowError(f"product degree exceeds cap {DEGREE_CAP}")
        mul = self.ctx.mul
        terms: dict = {}
        a_items = list(self._terms.items())
        for (eb, cb) in other._terms.items():
            b0, b1, b2 = eb
            for (ea, ca) in a_items:
                exps = (ea[0] + b0, ea[1] + b1, ea[2] + b2)
                c = mul(ca, cb) ^ terms.pop(exps, 0)
                if c:
                    terms[exps] = c
        return MultiPoly(self.ctx, terms)

    def scale(self, c) -> "MultiPoly":
        """Multiply by a scalar."""
        c = c.bits if isinstance(c, Fel) else c
        if c == 0:
            return MultiPoly(self.ctx)
        if c == 1:
            return self
        mul = self.ctx.mul
        return MultiPoly(self.ctx, {e: mul(v, c) for e, v in self._terms.items()})

    def frobenius(self) -> "MultiPoly":
        """The square, computed termwise (valid in characteristic 2)."""
        sqr = self.ctx.sqr
        if self.deg() * 2 > DEGREE_CAP:
            raise OverflowError(f"square degree exceeds cap {DEGREE_CAP}")
        return MultiPoly(
            self.ctx,
            {(2 * a, 2 * b, 2 * c): sqr(v) for (a, b, c), v in self._terms.items()},
        )

    def __pow__(self, k: int) -> "MultiPoly":
        """The k-th power, memoized on this polynomial by k."""
        if k < 0:
            raise ValueError("negative polynomial power")
        if self._pows is None:
            self._pows = {}
        result = self._pows.get(k)
        if result is not None:
            return result
        result = MultiPoly.one(self.ctx)
        base, e = self, k
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base.frobenius()
        self._pows[k] = result
        return result

    # -- calculus and substitution -------------------------------------------

    def partial(self, idx: int) -> "MultiPoly":
        """Formal partial derivative with mod-2 exponent coefficients."""
        terms = {}
        for exps, c in self._terms.items():
            e = exps[idx]
            if e & 1:  # even exponents vanish in characteristic 2
                ne = list(exps)
                ne[idx] = e - 1
                ne = tuple(ne)
                c ^= terms.pop(ne, 0)
                if c:
                    terms[ne] = c
        return MultiPoly(self.ctx, terms)

    def act(self, g) -> "MultiPoly":
        """Substitute each variable by its composite with the matrix g,
        through the substitution g builds once and keeps."""
        if g.ctx != self.ctx:
            raise ValueError("matrix entries from a mismatched context")
        return g.substitution()(self)

    def restrict_z0(self) -> "MultiPoly":
        """Set z = 0."""
        return MultiPoly(
            self.ctx, {e: c for e, c in self._terms.items() if e[2] == 0}
        )

    def div_exact_z(self) -> "MultiPoly":
        """Exact quotient by z; every term must have z-exponent >= 1."""
        terms = {}
        for (a, b, c), v in self._terms.items():
            if c == 0:
                raise ValueError("not divisible by z: term with z-exponent 0")
            terms[(a, b, c - 1)] = v
        return MultiPoly(self.ctx, terms)

    def eval(self, vx: int, vy: int, vz: int) -> int:
        """Evaluate at a point of the field (ints as bit-vectors)."""
        ctx = self.ctx
        total = 0
        for (a, b, c), v in self._terms.items():
            t = ctx.mul(ctx.mul(ctx.pow_(vx, a), ctx.pow_(vy, b)), ctx.pow_(vz, c))
            total ^= ctx.mul(v, t)
        return total

    # -- hashing / printing ----------------------------------------------------

    def canonical(self) -> tuple:
        if self._key is None:
            self._key = tuple(
                (e, self._terms[e])
                for e in sorted(self._terms, key=_term_key, reverse=True)
            )
        return self._key

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    def __hash__(self):
        return hash((self.ctx.modulus, self.canonical()))

    def __str__(self):
        if not self._terms:
            return "0x0"
        parts = []
        for exps, c in self.terms():
            factors = []
            if c != 1 or exps == (0, 0, 0):
                factors.append(f"{c:#x}")
            for name, e in zip(_VARS, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


class Substitution:
    """A substitution x -> px, y -> py, z -> pz.

    Repeated application is cheap because the variable images memoize
    their own powers; characteristic-2 powers of linear forms stay small
    because squaring is termwise.
    """

    __slots__ = ("ctx", "images")

    def __init__(self, ctx: FieldCtx, images: tuple[MultiPoly, MultiPoly, MultiPoly]):
        self.ctx = ctx
        self.images = images

    @classmethod
    def for_matrix(cls, g, ctx: FieldCtx) -> "Substitution":
        if g.ctx != ctx:
            raise ValueError("matrix entries from a mismatched context")
        rows = g.rows
        return cls(
            ctx,
            tuple(MultiPoly.linear_form(ctx, *rows[i]) for i in range(3)),
        )

    def __call__(self, p: MultiPoly) -> MultiPoly:
        if p.ctx != self.ctx:
            raise ValueError("polynomial from a mismatched context")
        px, py, pz = self.images
        out = MultiPoly.zero(self.ctx)
        for (a, b, c), v in p._terms.items():
            t = MultiPoly.constant(self.ctx, v)
            if a:
                t = t * px**a
            if b:
                t = t * py**b
            if c:
                t = t * pz**c
            out = out + t
        return out


# -- module-level operations -----------------------------------------------


def jacobian_det(p1: MultiPoly, p2: MultiPoly, p3: MultiPoly) -> MultiPoly:
    """Determinant of the matrix of partials, by 6-term expansion."""
    if p1.ctx != p2.ctx or p1.ctx != p3.ctx:
        raise ValueError("polynomials from mismatched contexts")
    rows = [[p.partial(j) for j in range(3)] for p in (p1, p2, p3)]
    # characteristic 2: all permutation signs collapse to +
    out = MultiPoly.zero(p1.ctx)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        out = out + rows[0][perm[0]] * rows[1][perm[1]] * rows[2][perm[2]]
    return out


def div_exact_z(p: MultiPoly) -> MultiPoly:
    return p.div_exact_z()
