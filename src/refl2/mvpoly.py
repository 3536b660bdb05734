"""Sparse exact trivariate polynomials over GF(2^m).

A `MultiPoly` maps exponent triples (a, b, c) for x^a y^b z^c to nonzero
coefficients (field elements as ints, see refl2.ffield).  Zero
coefficients are never stored.  The constructors that take coefficients
and `scale` raise ValueError on an int outside the field, `from_terms`
also on exponents that are not three non-negative ints.  Degrees are
unbounded.  The canonical term order everywhere --
iteration, printing, hashing -- is graded lexicographic descending:
total degree first, then the x, y, z exponents.

The group acts by substitution: for a matrix g with last row (0,0,1),
p.act(g) = p o g (x picks up row 0 of g, y row 1, z stays z), applied
as g's elementary one-variable substitutions, each one pass over the
terms (`Substitution`); the action keeps no state.  Products and powers
exploit characteristic 2: squaring is termwise, so powers collapse via
the Frobenius.  Each polynomial memoizes what is asked of it: its
degree, its hash, whether each matrix fixes it
(`is_fixed_by`), and what `refl2.verify`'s expression asks of it as u
together with each c1 (`_products`): the products u^a c1^b as packed
rows only.  The memos are freed with the polynomial.
Exact division (`div_exact`) eliminates leading terms with a heap.

The per-term kernels (`*`, `act`, `frobenius`, `scale`, `div_exact`)
make no field-method call per term.  A monomial
x^a y^b z^c is packed into one int a << 2B | b << B | c, with B bits
enough for every exponent the kernel meets, so a product of monomials
is a sum of keys.
A coefficient product is one lookup in FieldCtx's log/exp tables,
prod[left[a] + right[b]] (`_coeff_tables`); fields past the table limit
keep one ctx.mul per product behind the same lookup.

Text format: terms in canonical order joined by " + ", each term
"{coeff-hex}*x^a*y^b*z^c" with zero exponents omitted, "^1" omitted,
and unit coefficients omitted (a bare constant prints as its hex).
The zero polynomial prints "0x0".  `format_terms` writes it, for
`refl2.verify.GeneratorExpr` too, with U, C, Z for x, y, z.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Iterator

from refl2.ffield import FieldCtx

_VARS = ("x", "y", "z")


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


class _PairProduct:
    """prod for a field without tables: i = a << m | b -> ctx.mul(a, b)."""

    __slots__ = ("mul", "m", "mask")

    def __init__(self, ctx: FieldCtx):
        self.mul, self.m, self.mask = ctx.mul, ctx.m, ctx.order - 1

    def __getitem__(self, i: int) -> int:
        return self.mul(i >> self.m, i & self.mask)


def _coeff_tables(ctx: FieldCtx):
    """(left, right, prod) with prod[left[a] + right[b]] = a*b for nonzero
    elements a, b of ctx.  The entries at zero mean nothing, so the kernels
    look up nonzero coefficients only.

    This is the one read of FieldCtx's private tables.  For m <= 16
    (ffield._TABLE_LIMIT) left = right = ctx._log, discrete logs in
    [0, 2^m - 1), and prod = ctx._exp, which holds 2 (2^m - 1) entries, so
    a sum of two logs needs no reduction.  Larger fields have no tables:
    there left[a] = a << m and right[b] = b pair the operands into one
    int, and prod multiplies the pair with ctx.mul, one call per product.
    """
    if ctx._exp is not None:
        return ctx._log, ctx._log, ctx._exp
    m = ctx.m
    return range(0, 1 << 2 * m, 1 << m), range(ctx.order), _PairProduct(ctx)


def _pack(terms: dict, B: int, rep) -> list:
    """[(a << 2B | b << B | c, rep[v])] over the terms; every exponent must
    fit in B bits.  rep is left or right of `_coeff_tables`, or None to
    keep the coefficients."""
    s2 = 2 * B
    if rep is None:
        return [(a << s2 | b << B | c, v) for (a, b, c), v in terms.items()]
    return [(a << s2 | b << B | c, rep[v]) for (a, b, c), v in terms.items()]


def _unpack(packed: dict, B: int) -> dict:
    """{packed key: v} back to exponent triples, dropping zero coefficients."""
    mask = (1 << B) - 1
    return {
        (k >> 2 * B, k >> B & mask, k & mask): v for k, v in packed.items() if v
    }


def _powers(x: int, K: int, left, right, prod) -> list:
    """right[x^j] for j = 0..K, for a nonzero x."""
    rx = right[x]
    out, v = [], 1
    for _ in range(K + 1):
        out.append(right[v])
        v = prod[left[v] + rx]
    return out


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
        deg = self.deg() + other.deg()
        if len(self._terms) < len(other._terms):
            self, other = other, self  # the longer operand in the inner loop
        left, right, prod = _coeff_tables(self.ctx)
        if len(other._terms) == 1:  # a shift and scale: no two terms meet
            [((d, e, f), v)] = other._terms.items()
            rv = right[v]
            return MultiPoly(
                self.ctx,
                {
                    (a + d, b + e, c + f): prod[left[u] + rv]
                    for (a, b, c), u in self._terms.items()
                },
            )
        # no exponent of the product exceeds deg, so B bits hold each one
        B = deg.bit_length()
        inner = _pack(self._terms, B, left)
        out: dict = {}
        get = out.get
        for kb, rb in _pack(other._terms, B, right):
            for ka, la in inner:
                k = ka + kb
                out[k] = get(k, 0) ^ prod[la + rb]
        return MultiPoly(self.ctx, _unpack(out, B))

    def scale(self, c: int) -> "MultiPoly":
        """Multiply by a scalar."""
        if self.ctx.check(c) == 0:
            return MultiPoly(self.ctx)
        if c == 1:
            return self
        left, right, prod = _coeff_tables(self.ctx)
        rc = right[c]
        return MultiPoly(
            self.ctx, {e: prod[left[v] + rc] for e, v in self._terms.items()}
        )

    def frobenius(self) -> "MultiPoly":
        """The square, computed termwise (valid in characteristic 2)."""
        left, right, prod = _coeff_tables(self.ctx)
        return MultiPoly(
            self.ctx,
            {
                (2 * a, 2 * b, 2 * c): prod[left[v] + right[v]]
                for (a, b, c), v in self._terms.items()
            },
        )

    def __pow__(self, k: int) -> "MultiPoly":
        """The k-th power, by squaring (`frobenius`) and multiplying."""
        if k < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.one(self.ctx)
        base, e = self, k
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
        remainder, and a nonzero remainder raises.  Monomials are packed
        into ints that compare as the canonical order: total degree, then
        the x, y, z exponents, in fields of B bits each, so a product of
        monomials is a sum.  Quotient terms are kept as left[c] and den's
        lower terms as right[c] (`_coeff_tables`), so a heap step costs one
        table lookup.
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
        left, right, prod = _coeff_tables(self.ctx)
        gr = [right[v] for v in gc]
        inv_lead = right[self.ctx.inv(gc[0])]
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
        ql: list[int] = []  # left[c] of each quotient coefficient c
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
                c ^= prod[ql[k] + gr[j]]
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
            c = prod[left[c] + inv_lead]
            qk.append(t)
            qc.append(c)
            ql.append(left[c])
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
    Each step is one pass over the terms: binom(k, j) is odd iff j is a
    submask of k (Lucas), so x_i^k -> sum over submasks j of k of
    s^j t^(k-j) x_i^j x_w^(k-j).

    Terms are packed as in `_pack` with B = deg(p).bit_length(), since
    the steps keep the total degree.  With x_i and x_w at bit offsets si
    and sw of the key, x_i^j x_w^(top-j) is the key of x_i^k x_w^(top-k)
    minus (k - j) (2^si - 2^sw).
    The coefficient v s^j t^(k-j) = (v t^k) (s/t)^j is one lookup per
    output term, prod[left[v t^k] + right[(s/t)^j]] (`_coeff_tables`): in
    a field with tables that is exp[(log v + k log t + j (log s - log t))
    mod (2^m - 1)], with both powers read from lists built once per step.
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
        K = p.deg()
        if K < 0:
            return MultiPoly(ctx)
        left, right, prod = _coeff_tables(ctx)
        B = K.bit_length()
        mask = (1 << B) - 1
        shift = (2 * B, B, 0)
        # steps may cancel terms to zero: they are skipped, then dropped
        terms = dict(_pack(p._terms, B, None))
        for step in self.steps:
            if step is None:  # x <-> y
                terms = {
                    (e >> B & mask) << 2 * B | (e >> 2 * B) << B | e & mask: v
                    for e, v in terms.items()
                }
                continue
            i, w, s, t = step
            si = shift[i]
            if t == 0:  # x_i -> s x_i: each term times s^k
                if s != 1:
                    sk = _powers(s, K, left, right, prod)
                    terms = {
                        e: prod[left[v] + sk[e >> si & mask]]
                        for e, v in terms.items()
                        if v
                    }
                continue
            tk = _powers(t, K, left, right, prod)
            rj = _powers(ctx.mul(s, ctx.inv(t)), K, left, right, prod)
            D = (1 << si) - (1 << shift[w])
            out: dict = {}
            get = out.get
            for e, v in terms.items():
                if not v:
                    continue
                k = e >> si & mask
                lv = left[prod[left[v] + tk[k]]]  # v t^k
                base = e - k * D
                j = k
                while True:
                    key = base + j * D
                    out[key] = get(key, 0) ^ prod[lv + rj[j]]
                    if not j:
                        break
                    j = (j - 1) & k
            terms = out
        return MultiPoly(ctx, _unpack(terms, B))


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
