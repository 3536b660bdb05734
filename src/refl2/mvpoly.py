"""Sparse exact trivariate polynomials over GF(2^m).

A `MultiPoly` maps exponent triples (a, b, c) for x^a y^b z^c to nonzero
coefficients (field elements as ints, see refl2.ffield).  Zero
coefficients are never stored.  The constructors that take coefficients
and `scale` raise ValueError on an int outside the field.  The canonical term order everywhere --
iteration, printing, hashing -- is graded lexicographic descending:
total degree first, then the x, y, z exponents.

The group acts by substitution: for a matrix g with last row (0,0,1),
p.act(g) = p o g (x picks up row 0 of g, y row 1, z stays z), applied
as g's elementary one-variable substitutions, each one pass over the
terms (`Substitution`); the action keeps no state.  Products and powers
exploit characteristic 2: squaring is termwise, so powers collapse via
the Frobenius, and each polynomial memoizes its own powers.  Exact
division (`div_exact`) eliminates leading terms with a heap.

Text format: terms in canonical order joined by " + ", each term
"{coeff-hex}*x^a*y^b*z^c" with zero exponents omitted, "^1" omitted,
and unit coefficients omitted (a bare constant prints as its hex).
The zero polynomial prints "0x0".
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Iterator

from refl2.ffield import FieldCtx

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
    def constant(cls, ctx: FieldCtx, c: int) -> "MultiPoly":
        return cls(ctx, {(0, 0, 0): c} if ctx.check(c) else {})

    @classmethod
    def variable(cls, ctx: FieldCtx, idx: int) -> "MultiPoly":
        e = [0, 0, 0]
        e[idx] = 1
        return cls(ctx, {tuple(e): 1})

    @classmethod
    def linear_form(cls, ctx: FieldCtx, a: int, b: int, c: int) -> "MultiPoly":
        """a*x + b*y + c*z."""
        terms = {}
        for i, v in enumerate((a, b, c)):
            if ctx.check(v):
                e = [0, 0, 0]
                e[i] = 1
                terms[tuple(e)] = v
        return cls(ctx, terms)

    @classmethod
    def from_terms(cls, ctx: FieldCtx, items: Iterable) -> "MultiPoly":
        """Build from (exps, coeff) pairs; repeated exponents xor together."""
        terms = {}
        for exps, c in items:
            exps = tuple(exps)
            c = ctx.check(c) ^ terms.get(exps, 0)
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

    def coeff(self, exps) -> int:
        return self._terms.get(tuple(exps), 0)

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

    def scale(self, c: int) -> "MultiPoly":
        """Multiply by a scalar."""
        if self.ctx.check(c) == 0:
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
        """p o g, as the elementary steps of g (`Substitution`), built
        from g.rows on every call."""
        if g.ctx != self.ctx:
            raise ValueError("matrix entries from a mismatched context")
        return Substitution(self.ctx, g.rows)(self)

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

    def div_exact(self, den: "MultiPoly") -> "MultiPoly":
        """The exact quotient self / den; ValueError if den does not divide.

        Leading-term elimination in the canonical order, with the pending
        products of quotient terms and den's lower terms on a heap of at
        most len(den) - 1 entries, one chain per lower term of den (Monagan
        and Pearce, "Sparse polynomial division using a heap", J. Symbolic
        Comput. 2011).  A term that den's lead does not divide goes to the
        remainder, and a nonzero remainder raises.  Monomials are packed
        into ints that compare as the canonical order: total degree, then
        the x, y, z exponents, in fields of B bits each, so a product of
        monomials is a sum.
        """
        self._check_ctx(den)
        if not den._terms:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._terms:
            return MultiPoly(self.ctx)
        # every monomial met has total degree <= deg self, and den's lead
        # <= deg den, so each field fits in B bits
        B = max(self.deg(), den.deg()).bit_length()
        mask = (1 << B) - 1

        def pack(terms):
            return sorted(
                (((a + b + c) << 3 * B | a << 2 * B | b << B | c), v)
                for (a, b, c), v in terms.items()
            )[::-1]

        f = pack(self._terms)
        gk, gc = zip(*pack(den._terms))
        lead = gk[0]
        la, lb, lc = lead >> 2 * B & mask, lead >> B & mask, lead & mask
        inv_lead = self.ctx.inv(gc[0])
        mul = self.ctx.mul
        # heap entries are -(monomial << J | j): the chain of den's term j,
        # j >= 1, at its next quotient term nxt[j]; `waiting` chains have
        # run past the last quotient term so far
        J = len(gk).bit_length()
        jmask = (1 << J) - 1
        nxt = [0] * len(gk)
        waiting = list(range(1, len(gk)))
        heap: list[int] = []
        qk: list[int] = []
        qc: list[int] = []
        i, nf = 0, len(f)
        remainder = False
        while heap or i < nf:
            m = -heap[0] >> J if heap else -1
            c = 0
            if i < nf and f[i][0] >= m:
                m, c = f[i]
                i += 1
            while heap and -heap[0] >> J == m:
                j = -heappop(heap) & jmask
                k = nxt[j]
                c ^= mul(qc[k], gc[j])
                k += 1
                nxt[j] = k
                if k < len(qk):
                    heappush(heap, -((qk[k] + gk[j]) << J | j))
                else:
                    waiting.append(j)
            if not c:
                continue
            if m >> 2 * B & mask < la or m >> B & mask < lb or m & mask < lc:
                remainder = True  # a term the lead cannot eliminate
                continue
            t = m - lead
            qk.append(t)
            qc.append(mul(c, inv_lead))
            for j in waiting:
                heappush(heap, -((t + gk[j]) << J | j))
            waiting = []
        if remainder:
            raise ValueError("not an exact multiple: nonzero remainder")
        return MultiPoly(
            self.ctx,
            {(e >> 2 * B & mask, e >> B & mask, e & mask): v for e, v in zip(qk, qc)},
        )

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
    """The action of an invertible matrix g with last row (0, 0, 1), as
    the one-variable steps x_i -> s x_i + t x_w that g factors into.

    g = [[I, (alpha, beta)], [0, 1]] [[A, 0], [0, 1]], so p o g is the
    translation x -> x + alpha z, y -> y + beta z followed by p o A.  For
    A = [[a, b], [c, d]] with a != 0 (else swap x and y first, which swaps
    the rows of A), p o A is y -> (det/a) y + (c/a) x, then x -> a x + b y.
    Each step is one pass over the terms: binom(k, j) is odd iff j is a
    submask of k (Lucas), so x_i^k -> sum over submasks j of k of
    s^j t^(k-j) x_i^j x_w^(k-j).
    """

    __slots__ = ("ctx", "steps")

    def __init__(self, ctx: FieldCtx, rows):
        (a, b, alpha), (c, d, beta), _ = rows
        det = ctx.mul(a, d) ^ ctx.mul(b, c)
        if not det:
            raise ValueError("the action needs an invertible matrix")
        self.ctx = ctx
        self.steps = [(0, 2, 1, alpha), (1, 2, 1, beta)]
        if a == 0:
            self.steps.append(None)  # x <-> y
            a, b, c, d = c, d, a, b
        ia = ctx.inv(a)
        self.steps += [(1, 0, ctx.mul(det, ia), ctx.mul(c, ia)), (0, 1, a, b)]

    def __call__(self, p: MultiPoly) -> MultiPoly:
        mul, pow_ = self.ctx.mul, self.ctx.pow_
        terms = p._terms
        for step in self.steps:
            if step is None:
                terms = {(b, a, c): v for (a, b, c), v in terms.items()}
                continue
            i, w, s, t = step
            if s == 1 and t == 0:
                continue
            out: dict = {}
            for e, v in terms.items():
                f = list(e)
                k, top = e[i], e[i] + e[w]
                j = k
                while True:
                    f[i], f[w] = j, top - j
                    key = tuple(f)
                    c = mul(v, mul(pow_(s, j), pow_(t, k - j))) ^ out.pop(key, 0)
                    if c:
                        out[key] = c
                    if not (j and t):  # t = 0 keeps only j = k
                        break
                    j = (j - 1) & k
            terms = out
        return MultiPoly(self.ctx, terms)


# -- module-level operations -----------------------------------------------


def jacobian_det(p1: MultiPoly, p2: MultiPoly, p3: MultiPoly) -> MultiPoly:
    """Determinant of the matrix of partials, by 6-term expansion."""
    if p1.ctx != p2.ctx or p1.ctx != p3.ctx:
        raise ValueError("polynomials from mismatched contexts")
    rows = [[p.partial(j) for j in range(3)] for p in (p1, p2, p3)]
    # characteristic 2: all permutation signs collapse to +
    out = MultiPoly.zero(p1.ctx)
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        a, b, c = rows[0][i], rows[1][j], rows[2][k]
        if a and b and c:  # a zero partial zeroes the term: skip its products
            out = out + a * b * c
    return out
