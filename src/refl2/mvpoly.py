"""Sparse exact trivariate polynomials over GF(2^m).

A `MultiPoly` maps exponent triples (a, b, c) for x^a y^b z^c to nonzero
coefficients (field elements as ints, see refl2.ffield).  Zero
coefficients are never stored.  The constructors that take coefficients
and `scale` raise ValueError on an int outside the field, `from_terms`
also on exponents that are not three non-negative ints.  Degrees are
unbounded.  The canonical term order everywhere -- iteration, printing,
hashing -- is graded lexicographic descending: total degree first, then
the x, y, z exponents.

The group acts by substitution: for a matrix g with last row (0,0,1),
p.act(g) = p o g (x picks up row 0 of g, y row 1, z stays z), applied
as g's elementary one-variable substitutions, each one pass over the
terms (`Substitution`); the action keeps no state.  Products and powers
exploit characteristic 2: squaring is termwise, so powers collapse via
the Frobenius.  Exact division (`div_exact`) eliminates leading terms
with a heap.  Every kernel works on the exponent triples as stored, with
one `ctx.mul` or `ctx.pow_` per coefficient, so every field size takes
one path.  Each polynomial memoizes what is asked of it: its degree, its
hash, whether each matrix fixes it (`is_fixed_by`), and what
`refl2.verify`'s expression asks of it as u together with each c1
(`_products`): the products u^a c1^b as packed rows only.  The memos are
freed with the polynomial.

Text format: terms in canonical order joined by " + ", each term
"{coeff-hex}*x^a*y^b*z^c" with zero exponents omitted, "^1" omitted,
and unit coefficients omitted (a bare constant prints as its hex).
The zero polynomial prints "0x0".  `format_terms` writes it, for
`refl2.verify.GeneratorExpr` too, with U, C, Z for x, y, z.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import accumulate, repeat
from operator import add, sub
from typing import Iterable, Iterator

from refl2.ffield import FieldCtx

_VARS = ("x", "y", "z")
_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # the exponents of x, y, z


def _term_key(exps):
    a, b, c = exps
    return (a + b + c, a, b, c)


def format_terms(terms: Iterable, names: tuple[str, str, str]) -> str:
    """The text format (module doc) of (exps, coeff) pairs, in the order
    given, with the three exponents naming the variables `names`."""
    parts = []
    for exps, c in terms:
        factors = []
        if c != 1 or not any(exps):
            factors.append(f"{c:#x}")
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts) or "0x0"


class MultiPoly:
    """Immutable sparse polynomial in x, y, z over a FieldCtx."""

    # _fixed: {g: self.act(g) == self}; _products: {c1: refl2.verify._Pair},
    # what expression keeps of the pair (u = self, c1): the packed products
    __slots__ = ("ctx", "_terms", "_key", "_hash", "_deg", "_fixed", "_products")

    def __init__(self, ctx: FieldCtx, terms: dict | None = None):
        self.ctx = ctx
        self._terms = terms or {}
        self._key = None
        self._hash = None
        self._deg = None
        self._fixed = None
        self._products = None

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
        return cls(ctx, {_UNITS[idx]: 1})

    @classmethod
    def linear_form(cls, ctx: FieldCtx, a: int, b: int, c: int) -> "MultiPoly":
        """a*x + b*y + c*z."""
        return cls(ctx, {e: v for e, v in zip(_UNITS, (a, b, c)) if ctx.check(v)})

    @classmethod
    def from_terms(cls, ctx: FieldCtx, items: Iterable) -> "MultiPoly":
        """Build from (exps, coeff) pairs; repeated exponents xor together."""
        terms = {}
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != 3 or not all(type(e) is int and e >= 0 for e in exps):
                raise ValueError(f"exponents {exps!r} are not 3 non-negative ints")
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
        """Total degree; -1 for the zero polynomial.  Memoized."""
        if self._deg is None:
            self._deg = max((a + b + c for a, b, c in self._terms), default=-1)
        return self._deg

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
        if len(self._terms) < len(other._terms):
            self, other = other, self  # the longer operand in the inner loop
        mul = self.ctx.mul
        coeffs = set(self._terms.values())
        out: dict = {}
        get = out.get
        for (d, e, f), v in other._terms.items():
            uv = {u: mul(u, v) for u in coeffs}  # one mul per distinct u
            for (a, b, c), u in self._terms.items():
                k = (a + d, b + e, c + f)
                out[k] = get(k, 0) ^ uv[u]
        return MultiPoly(self.ctx, {k: v for k, v in out.items() if v})

    def scale(self, c: int) -> "MultiPoly":
        """Multiply by a scalar."""
        if self.ctx.check(c) == 0:
            return MultiPoly(self.ctx)
        if c == 1:
            return self
        mul = self.ctx.mul
        return MultiPoly(self.ctx, {e: mul(v, c) for e, v in self._terms.items()})

    def frobenius(self, k: int = 1) -> "MultiPoly":
        """The 2^k-th power, computed termwise in one pass (valid in
        characteristic 2): exponents times 2^k, coefficients to the 2^k."""
        t, pow_ = 1 << k, self.ctx.pow_
        return MultiPoly(
            self.ctx,
            {(t * a, t * b, t * c): pow_(v, t) for (a, b, c), v in self._terms.items()},
        )

    def __pow__(self, k: int) -> "MultiPoly":
        """The k-th power: the 2^s-th power for the largest 2^s dividing k
        in one `frobenius` pass, then by squaring and multiplying."""
        if k < 0:
            raise ValueError("negative polynomial power")
        s = (k & -k).bit_length() - 1 if k else 0
        result = MultiPoly.one(self.ctx)
        base, e = self.frobenius(s) if s else self, k >> s
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base.frobenius()
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

    def is_fixed_by(self, g) -> bool:
        """self.act(g) == self, memoized on this polynomial by g."""
        if self._fixed is None:
            self._fixed = {}
        fixed = self._fixed.get(g)
        if fixed is None:
            fixed = self._fixed[g] = self.act(g) == self
        return fixed

    def restrict_z0(self) -> "MultiPoly":
        """Set z = 0."""
        return MultiPoly(
            self.ctx, {e: c for e, c in self._terms.items() if e[2] == 0}
        )

    def div_exact(self, den: "MultiPoly") -> "MultiPoly":
        """The exact quotient self / den; ValueError if den does not divide.

        Leading-term elimination in the canonical order, with the pending
        products of quotient terms and den's lower terms on a heap of at
        most len(den) - 1 entries, one chain per lower term of den (Monagan
        and Pearce, "Sparse polynomial division using a heap", J. Symbolic
        Comput. 2011).  A term that den's lead does not divide goes to the
        remainder, and a nonzero remainder raises.  A monomial is keyed
        by its negated graded-lex key (-(a+b+c), -a, -b, -c), so the least
        key leads, heapq's min-heap pops the next term, and a product of
        monomials is a sum of keys.
        """
        self._check_ctx(den)
        if not den._terms:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._terms:
            return MultiPoly(self.ctx)

        def keyed(terms):
            return sorted(((-a - b - c, -a, -b, -c), v) for (a, b, c), v in terms.items())

        f = keyed(self._terms)
        gk, gc = zip(*keyed(den._terms))
        _, la, lb, lc = lead = gk[0]
        mul = self.ctx.mul
        inv_lead = self.ctx.inv(gc[0])
        # heap entries are (monomial key, j): the chain of den's term j,
        # j >= 1, at its next quotient term nxt[j]; `waiting` chains have
        # run past the last quotient term so far
        nxt = [0] * len(gk)
        waiting = list(range(1, len(gk)))
        heap, qk, qc = [], [], []  # qk, qc: the quotient's keys and coefficients

        def push(j):
            heappush(heap, (tuple(map(add, qk[nxt[j]], gk[j])), j))

        i, nf = 0, len(f)
        remainder = False
        while heap or i < nf:
            c = 0
            if i < nf and (not heap or f[i][0] <= heap[0][0]):
                m, c = f[i]
                i += 1
            else:
                m = heap[0][0]
            while heap and heap[0][0] == m:
                j = heappop(heap)[1]
                c ^= mul(qc[nxt[j]], gc[j])
                nxt[j] += 1
                if nxt[j] < len(qk):
                    push(j)
                else:
                    waiting.append(j)
            if not c:
                continue
            if m[1] > la or m[2] > lb or m[3] > lc:
                remainder = True  # a term the lead cannot eliminate
                continue
            qk.append(tuple(map(sub, m, lead)))
            qc.append(mul(c, inv_lead))
            for j in waiting:
                push(j)
            waiting = []
        if remainder:
            raise ValueError("not an exact multiple: nonzero remainder")
        return MultiPoly(self.ctx, {(-a, -b, -c): v for (_, a, b, c), v in zip(qk, qc)})

    def eval(self, vx: int, vy: int, vz: int) -> int:
        """Evaluate at a point of the field (ints as bit-vectors); ValueError
        on a coordinate outside the field."""
        ctx = self.ctx
        vx, vy, vz = ctx.check(vx), ctx.check(vy), ctx.check(vz)
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
        if self._hash is None:
            self._hash = hash((self.ctx.modulus, self.canonical()))
        return self._hash

    def __str__(self):
        return format_terms(self.terms(), _VARS)

    def __repr__(self):
        return f"MultiPoly({self})"


class Substitution:
    """The action of an invertible matrix g with last row (0, 0, 1), as
    the one-variable steps x_i -> s x_i + t x_w that g factors into.

    g = [[I, (alpha, beta)], [0, 1]] [[A, 0], [0, 1]], so p o g is the
    translation x -> x + alpha z, y -> y + beta z followed by p o A.  For
    A = [[a, b], [c, d]] with a != 0 (else swap x and y first, which swaps
    the rows of A), p o A is y -> (det/a) y + (c/a) x, then x -> a x + b y.
    A step with t != 0 is x_i -> t x_i, then x_i -> x_i + x_w, then
    x_i -> (s/t) x_i, as s x_i + t x_w = t ((s/t) x_i + x_w).  The middle
    pass multiplies nothing: binom(k, j) is odd iff j is a submask of k
    (Lucas), so x_i^k -> sum over submasks j of k of x_i^j x_w^(k-j), and
    like terms add before any product.  Each scaling costs one `ctx.mul`
    per term, with the powers of its factor listed once, each one
    `ctx.mul` on the one before.
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
        ctx = self.ctx
        mul = ctx.mul
        K = p.deg()
        terms = p._terms

        def scaled(terms, i, s):  # x_i -> s x_i: each term times s^k
            if s == 1:
                return terms
            sk = list(accumulate(repeat(s, K), mul, initial=1))
            return {e: mul(v, sk[e[i]]) for e, v in terms.items() if v}

        # steps may cancel terms to zero: they are dropped at the end
        for step in self.steps:
            if step is None:  # x <-> y
                terms = {(b, a, c): v for (a, b, c), v in terms.items()}
                continue
            i, w, s, t = step
            if t:
                out: dict = {}
                get = out.get
                for e, v in scaled(terms, i, t).items():  # x_i -> x_i + x_w
                    e = list(e)
                    k = e[i]
                    top = k + e[w]
                    j = k
                    while True:
                        e[i], e[w] = j, top - j
                        key = tuple(e)
                        out[key] = get(key, 0) ^ v
                        if not j:
                            break
                        j = (j - 1) & k
                terms = out
                s = mul(s, ctx.inv(t))
            terms = scaled(terms, i, s)
        return MultiPoly(ctx, {e: v for e, v in terms.items() if v})


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
