"""Groups of 3x3 matrices with last row (0,0,1) over GF(2^m).

Builds the transvection groups acting on a 3-space with an invariant
plane: the SL2(GF(2^n)) generators R, S, T and their lifts, the cocycle
f(x,y) = 1 + x + y + x^(2^(n-1)) y^(2^(n-1)) and its homogeneous
companion g = f + 1, the cocycle subgroups H_gamma, the translation
kernel N = Lambda_1^2 for a GF(2^n)-subspace Lambda_1 of the ambient
field, breadth-first group closure, and the semidirect-split check, which
finds |<lifts>| from n + 5 relators of SL2(GF(2^n)) that the lifts
satisfy up to translations, instead of closure: of the pairs (x_i x_j)^2
only the (x_0 x_k)^2 are kept, as (x_i x_j)^2 is r^i-conjugate to
(x_0 x_(j-i))^2.  N is normal with no conjugation: the lift blocks lie
over GF(2^n), and Lambda_1 is a GF(2^n)-space.  Lambda_1 is held as its
subspace polynomial and N as its 2d translations, neither listed.

Matrices are immutable; the canonical encoding used for dedup, sorting
and golden files is the row-major 9-tuple of element bit-vectors.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import NamedTuple

from refl2.ffield import (
    FieldCtx, gf2_insert, mult_generator, subfield_elements, subfield_generator,
)


class ClosureCapError(RuntimeError):
    """Raised when a group to enumerate exceeds its element cap."""

    def __init__(self, cap: int):
        super().__init__(f"group exceeds the cap of {cap} elements")
        self.cap = cap


class Mat3:
    """3x3 matrix over a FieldCtx with last row fixed to (0, 0, 1)."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: FieldCtx, rows):
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("need a 3x3 matrix")
        if rows[2] != (0, 0, 1):
            raise ValueError("last row must be (0, 0, 1)")
        for row in rows:
            for v in row:
                ctx.check(v)
        self.ctx = ctx
        self.rows = rows

    @classmethod
    def _unchecked(cls, ctx: FieldCtx, rows: tuple) -> "Mat3":
        """A matrix from rows already reduced and shaped, as products and
        inverses of checked matrices are."""
        m = cls.__new__(cls)
        m.ctx = ctx
        m.rows = rows
        return m

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "Mat3":
        return cls(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @classmethod
    def block(cls, ctx: FieldCtx, a, b, c, d, col=(0, 0)) -> "Mat3":
        """[[a, b, col0], [c, d, col1], [0, 0, 1]]."""
        return cls(ctx, ((a, b, col[0]), (c, d, col[1]), (0, 0, 1)))

    @classmethod
    def translation(cls, ctx: FieldCtx, alpha, beta) -> "Mat3":
        return cls(ctx, ((1, 0, alpha), (0, 1, beta), (0, 0, 1)))

    def __mul__(self, other: "Mat3") -> "Mat3":
        if self.ctx != other.ctx:
            raise ValueError("matrices from mismatched contexts")
        mul = self.ctx.mul
        a, b = self.rows, other.rows
        out = []
        for i in range(2):
            ai0, ai1, ai2 = a[i]
            out.append(
                (
                    mul(ai0, b[0][0]) ^ mul(ai1, b[1][0]),
                    mul(ai0, b[0][1]) ^ mul(ai1, b[1][1]),
                    mul(ai0, b[0][2]) ^ mul(ai1, b[1][2]) ^ ai2,
                )
            )
        out.append((0, 0, 1))
        return Mat3._unchecked(self.ctx, tuple(out))

    def det_block(self) -> int:
        """Determinant of the upper 2x2 block (ad + bc in characteristic 2)."""
        mul = self.ctx.mul
        (a, b, _), (c, d, _), _ = self.rows
        return mul(a, d) ^ mul(b, c)

    def inverse(self) -> "Mat3":
        ctx = self.ctx
        mul = ctx.mul
        (a, b, al), (c, d, be), _ = self.rows
        di = ctx.inv(mul(a, d) ^ mul(b, c))
        ia, ib, ic, id_ = mul(di, d), mul(di, b), mul(di, c), mul(di, a)
        # translation part: block_inverse * (al, be)
        ta = mul(ia, al) ^ mul(ib, be)
        tb = mul(ic, al) ^ mul(id_, be)
        return Mat3._unchecked(ctx, ((ia, ib, ta), (ic, id_, tb), (0, 0, 1)))

    def key(self) -> tuple:
        """Canonical encoding: row-major concatenation of entries."""
        return self.rows[0] + self.rows[1] + self.rows[2]

    def block2(self) -> tuple:
        (a, b, _), (c, d, _), _ = self.rows
        return (a, b, c, d)

    def third_col(self) -> tuple:
        return (self.rows[0][2], self.rows[1][2])

    def __eq__(self, other):
        if not isinstance(other, Mat3):
            return NotImplemented
        return self.ctx == other.ctx and self.rows == other.rows

    def __hash__(self):
        return hash((self.ctx.modulus, self.rows))

    def __str__(self):
        return "\n".join(" ".join(f"{v:#x}" for v in row) for row in self.rows)

    def __repr__(self):
        return f"Mat3({self.rows})"


class GroupSet:
    """A finite set of Mat3 with a canonical element order, held as one
    insertion-ordered key -> element dict."""

    def __init__(self, by_key: dict, generators: list[Mat3]):
        self._by_key = by_key
        self.generators = generators

    def __len__(self):
        return len(self._by_key)

    def __contains__(self, m: Mat3) -> bool:
        return m.key() in self._by_key

    def __iter__(self):
        return iter(self._by_key.values())

    def sorted_elements(self) -> list[Mat3]:
        return [self._by_key[k] for k in sorted(self._by_key)]

    def export(self) -> list[str]:
        """Sorted one-line matrix dumps for golden-file comparisons."""
        return [" ".join(f"{v:#x}" for v in m.key()) for m in self.sorted_elements()]


def closure(gens: list[Mat3], cap: int = 10**7) -> GroupSet:
    """Breadth-first closure of the generators under multiplication.

    Deterministic: elements are discovered in BFS order starting from
    the identity, multiplying on the right by the generators in the
    order given.  Inverses come for free in a finite closed set.
    """
    if not gens:
        raise ValueError("need at least one generator")
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ValueError("generators from mismatched contexts")
        if g.det_block() == 0:
            raise ValueError("generator is singular")
    ident = Mat3.identity(ctx)
    by_key = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        next_frontier = []
        for m in frontier:
            for g in gens:
                p = m * g
                k = p.key()
                if k not in by_key:
                    if len(by_key) >= cap:
                        raise ClosureCapError(cap)
                    by_key[k] = p
                    next_frontier.append(p)
        frontier = next_frontier
    return GroupSet(by_key, list(gens))


# -- cocycles ----------------------------------------------------------------


def _subfield_check(ctx: FieldCtx, n: int, *vals: int):
    if ctx.m % n != 0:
        raise ValueError(f"subfield degree {n} does not divide {ctx.m}")
    for v in vals:
        if not ctx.in_subfield(ctx.check(v), n):
            raise ValueError(f"element {v:#x} lies outside GF(2^{n})")


def cocycle_f(ctx: FieldCtx, a: int, b: int, n: int) -> int:
    """f(a,b) = 1 + a + b + a^(2^(n-1)) b^(2^(n-1)) on GF(2^n) inputs."""
    _subfield_check(ctx, n, a, b)
    h = 1 << (n - 1)
    return 1 ^ a ^ b ^ ctx.mul(ctx.pow_(a, h), ctx.pow_(b, h))


def cocycle_g(ctx: FieldCtx, a: int, b: int, n: int) -> int:
    """g(a,b) = f(a,b) + 1; homogeneous of degree 1 on GF(2^n)^2."""
    return cocycle_f(ctx, a, b, n) ^ 1


# -- generators and lifts -------------------------------------------------------


def sl2_generators(n: int, ambient: FieldCtx) -> tuple[Mat3, Mat3, Mat3]:
    """R = diag(e^-1, e), S and T the two transvections, embedded with
    trivial third row and column.  e is the canonical generator of the
    GF(2^n) subfield's multiplicative group."""
    e = subfield_generator(ambient, n)
    ei = ambient.inv(e)
    R = Mat3.block(ambient, ei, 0, 0, e)
    S = Mat3.block(ambient, 1, 1, 0, 1)
    T = Mat3.block(ambient, 1, 0, 1, 1)
    return R, S, T


def lift_generators(variant: str, n: int, ambient: FieldCtx) -> tuple[Mat3, Mat3, Mat3]:
    """Lifted generators (R-lift, S-lift, T-lift).

    The `sl2_generators`, with R's third column set to (1, e) for
    variant "h1"; variant "h0" keeps them block-diagonal.
    """
    if variant not in ("h1", "h0"):
        raise ValueError(f"unknown variant {variant!r}; expected 'h1' or 'h0'")
    R, S, T = sl2_generators(n, ambient)
    if variant == "h1":
        ei, _, _, e = R.block2()
        R = Mat3.block(ambient, ei, 0, 0, e, col=(1, e))
    return R, S, T


def sl2_elements(n: int, ambient: FieldCtx) -> list[tuple[int, int, int, int]]:
    """All (a, b, c, d) over the GF(2^n) subfield with ad + bc = 1,
    sorted by (a, b, c, d) bit-vector value."""
    sub = subfield_elements(ambient, n)
    mul = ambient.mul
    out = []
    for a, b, c, d in iproduct(sub, repeat=4):
        if mul(a, d) ^ mul(b, c) == 1:
            out.append((a, b, c, d))
    return out


def h_gamma(gamma: int, n: int, ambient: FieldCtx) -> GroupSet:
    """The cocycle subgroup H_gamma: SL2 blocks with third column
    (gamma*f(a,b), gamma*f(c,d), 1).  Verified closed under
    multiplication; its cardinality is |SL2(GF(2^n))|."""
    ambient.check(gamma)
    mul = ambient.mul

    def lift(a, b, c, d):
        fa = cocycle_f(ambient, a, b, n)
        fc = cocycle_f(ambient, c, d, n)
        return Mat3.block(ambient, a, b, c, d, col=(mul(gamma, fa), mul(gamma, fc)))

    els = sorted((lift(*blk) for blk in sl2_elements(n, ambient)), key=Mat3.key)
    gens = [lift(*m.block2()) for m in sl2_generators(n, ambient)]
    H = GroupSet({m.key(): m for m in els}, gens)
    # a finite set equal to the closure of its generators is closed
    try:
        generated = closure(gens, cap=len(H))
    except ClosureCapError:
        generated = ()
    if len(generated) != len(H) or any(m not in H for m in generated):
        raise AssertionError("H_gamma is not closed under multiplication")
    q = 1 << n
    assert len(H) == q * (q * q - 1)
    return H


# -- the kernel and its Lambda space ------------------------------------------


class LambdaSpace:
    """A GF(q)-subspace Lambda_1 of the ambient field, q = 2^n, given by a
    basis and held as its subspace polynomial, whose roots are exactly
    Lambda_1 (Ore 1933; Lidl-Niederreiter, Finite Fields, 3.4):
        P(x) = prod_{a in Lambda_1} (x + a) = sum_{m=0..d} c_m x^(q^m).
    `coeffs` lists c_0, ..., c_d.  P is GF(q)-linear, so adding a basis
    vector b to the span multiplies out to prod_{t in GF(q)} (P + t P(b))
    = P^q + P(b)^(q-1) P, and P(b) = 0 means b is already in the span.

    The translation kernel N = Lambda_1^2 holds the matrices with
    identity block and third column (alpha, beta, 1), alpha and beta in
    Lambda_1 (`kernel_contains`).
    """

    def __init__(self, ambient: FieldCtx, n: int, basis):
        if n < 1 or ambient.m % n != 0:
            raise ValueError(f"subfield degree {n} does not divide {ambient.m}")
        basis = tuple(ambient.check(v) for v in basis)
        self.ambient = ambient
        self.n = n
        self.basis = basis
        self.coeffs = [1]
        q = 1 << n
        mul, pow_ = ambient.mul, ambient.pow_
        for b in basis:
            pb = self.value(b)
            if pb == 0:
                raise ValueError("basis is dependent over the subfield")
            s = pow_(pb, q - 1)
            self.coeffs = [
                mul(s, c) ^ pow_(p, q)
                for c, p in zip(self.coeffs + [0], [0] + self.coeffs)
            ]

    @property
    def d(self) -> int:
        return len(self.basis)

    @property
    def kernel_order(self) -> int:
        """|N| = |Lambda_1|^2 = q^(2d)."""
        return 1 << (2 * self.n * self.d)

    def value(self, a: int) -> int:
        """P(a), zero exactly when a lies in Lambda_1; ValueError when a is
        not an element of the ambient field."""
        a = self.ambient.check(a)
        mul, pow_, q = self.ambient.mul, self.ambient.pow_, 1 << self.n
        total = 0
        for c in self.coeffs:
            total ^= mul(c, a)
            a = pow_(a, q)
        return total

    def __contains__(self, a: int) -> bool:
        return self.value(a) == 0

    def kernel_contains(self, m: Mat3) -> bool:
        """m in N: identity block, both third-column entries in Lambda_1."""
        alpha, beta = m.third_col()
        return m.block2() == (1, 0, 0, 1) and alpha in self and beta in self

    def __repr__(self):
        basis = ", ".join(f"{b:#x}" for b in self.basis)
        return f"LambdaSpace(n={self.n}, basis=[{basis}])"


def default_lambda_basis(d: int, n: int, ambient: FieldCtx) -> tuple[int, ...]:
    """(1, theta, ..., theta^(d-1)) with theta = `mult_generator` of the
    ambient field, GF(2^(nd)) by default.  theta generates that field
    over GF(2), so its degree over GF(2^n) is d and the powers are
    independent; on a smaller ambient field `LambdaSpace` refuses them.
    theta is found, and 2^m - 1 factored, only from d = 2 on."""
    theta = mult_generator(ambient) if d > 1 else 1
    return tuple(ambient.pow_(theta, k) for k in range(d))


def kernel_group(ls: LambdaSpace) -> list[Mat3]:
    """The translations T_(b,0), T_(0,b) for each basis vector b of
    Lambda_1, in that order: together with the lifts they generate N.
    Only these 2d matrices are built, not the q^(2d) elements of N."""
    pairs = [p for b in ls.basis for p in ((b, 0), (0, b))]
    return [Mat3.translation(ls.ambient, a, b) for a, b in pairs]


# -- splitting -----------------------------------------------------------------


class SplitReport(NamedTuple):
    """|G| = |N| |H| / |N meet H| and its three factors."""

    group_order: int
    kernel_order: int
    complement_order: int
    intersection_order: int

    @property
    def is_split(self) -> bool:
        return self.intersection_order == 1


def minimal_polynomial(ctx: FieldCtx, a: int, n: int) -> list[int]:
    """The bits c_0, ..., c_n of prod_(k < n) (X + a^(2^k)), a in GF(2^n):
    the minimal polynomial of a over GF(2) when a generates GF(2^n)."""
    coeffs = [1]
    for _ in range(n):
        coeffs = [ctx.mul(a, c) ^ p for c, p in zip(coeffs + [0], [0] + coeffs)]
        a = ctx.mul(a, a)
    return coeffs


def sl2_relators(r, s, t, minpoly: list[int]) -> list:
    """The relators of `verify_splitting`'s presentation of SL2(q) at r, s
    and t, elements of any group with `*` and `inverse()`, such as lifts
    or free-group words; `minpoly` holds the bits c_0, ..., c_n, q = 2^n.
    In order: s^2, t^2, r^q r^-1 = r^(q-1), (s t s r)^2, (t s)^3, (x_0 x_k)^2
    for 0 < k < n, and x_n prod_(c_i = 1) x_i, where x_i = r^-i s r^i."""
    n = len(minpoly) - 1
    ri, rq, xs = r.inverse(), r, [s]
    for _ in range(n):
        xs.append(ri * xs[-1] * r)
        rq = rq * rq
    ts, wr = t * s, s * t * s * r
    pairs = (s * x for x in xs[1:n])
    last = xs[n]
    for x, c in zip(xs, minpoly[:n]):
        if c:
            last = last * x
    return [s * s, t * t, rq * ri, wr * wr, ts * ts * ts] + [p * p for p in pairs] + [last]


def verify_splitting(ls: LambdaSpace, lifts: list[Mat3]) -> SplitReport:
    """Check that G = <N, lifts> is the semidirect product of
    N = Lambda_1^2 and H = <lifts>, and find |G| without enumerating G,
    N or H.  The lifts must be R-, S- and T-lifts, with the blocks
    diag(e^-1, e), S and T of `sl2_generators` for some e of order q - 1,
    followed by any number of translations; ValueError otherwise.

    N is normal in G, with no conjugation: every block the shape check
    admits has its entries in {0, 1, e, e^-1}, inside GF(q), and
    Lambda_1 is a GF(q)-space, so A Lambda_1^2 = Lambda_1^2 and
    g T_v g^-1 = T_(Av) lies in N for g = [[A, w], [0, 1]].  With N
    normal, G = NH, and the product formula gives
    |G| = |N| |H| / |N meet H| with |N| = q^(2d).

    |H| comes from the Bruhat form of Steinberg's presentation of SL2(q)
    (Steinberg, Lectures on Chevalley Groups, 1967), q = 2^n:

        Gamma = < r, s, t | s^2, t^2, r^(q-1), (s t s r)^2, (t s)^3,
                  (x_0 x_k)^2 for 0 < k < n, x_n prod_(c_i = 1) x_i >

    with x_i = r^-i s r^i and X^n + sum c_i X^i the minimal polynomial of
    e^2 over GF(2) (`sl2_relators`).  Gamma is SL2(q):
    - The relators hold on the blocks: R^-i S R^i = [[1, e^2i], [0, 1]]
      and (S T S R)^2 = (T S)^3 = I.  e^2 has order q - 1, so its first
      n powers span GF(q), and these x_i and their transposes, the
      conjugates of T, generate SL2(q).  So Gamma maps onto SL2(q).
    - (x_i x_j)^2 = r^-i (x_0 x_(j-i))^2 r^i = 1, so U~ = <x_0, ...,
      x_(n-1)> is generated by n commuting involutions: it is elementary
      abelian of order <= q.  r^-1 x_i r = x_(i+1), and the last relator
      puts x_n in U~, so r normalizes U~ and |<r, s>| = |U~ <r>| <= q(q - 1).
    - w = s t s is an involution; (w r)^2 = 1 gives w r w = r^-1, and
      (t s)^3 = 1 gives w = t s t, so w s w = t = s w s.
    - Conjugation by r makes U~ a cyclic module over GF(2)[X]/(minimal
      polynomial) = GF(q), so U~ is 1 or a copy of GF(q) on which r acts
      as multiplication by e^(-+2), transitive on U~ minus 1.  For
      x = r^-k s r^k, w x w = r^k s w s r^-k lies in U~ w <r, s>.  So
      <r, s> u U~ w <r, s> is closed under right multiplication by r, s
      and w; it is Gamma, and |Gamma| <= (q + 1) q (q - 1) = |SL2(q)|.
    So the kernel of the free group on r, s, t and a letter per further
    lift onto SL2(q) is the normal closure of the relators and those
    letters.  Its image in H, {T_w in H}, is the normal closure of the
    relator values on the lifts and the further lifts, all translations,
    and g T_w g^-1 = T_(A w).  So W = {w : T_w in H} is the GF(2) span of
    their translations closed under the lift blocks, an echelon basis of
    rows w0 + w1 2^m, and |H| = |SL2(q)| 2^dim W: O(n) products and
    nothing stored per point.

    N meet H = W meet Lambda_1^2.  w -> (P(w0), P(w1)), P the subspace
    polynomial, is GF(2)-linear with kernel Lambda_1^2, so
    dim (W meet Lambda_1^2) is dim W less the rank of the images of W's
    basis.  G splits when H meets N trivially.
    """
    ctx, n = ls.ambient, ls.n
    q, m, mul = 1 << n, ctx.m, ctx.mul
    blocks = [g.block2() for g in lifts]
    e = blocks[0][3] if blocks else 0
    if not e or blocks[:3] != [(ctx.inv(e), 0, 0, e), (1, 1, 0, 1), (1, 0, 1, 1)]:
        raise ValueError("the lifts do not begin with the blocks diag(e^-1, e), S and T")
    if not ctx.in_subfield(e, n) or ctx.order_of(e, q - 1) != q - 1:
        raise ValueError(f"e = {e:#x} does not have order {q - 1}")
    if any(b != (1, 0, 0, 1) for b in blocks[3:]):
        raise ValueError("a lift past the third is not a translation")
    values = sl2_relators(*lifts[:3], minimal_polynomial(ctx, mul(e, e), n))
    if any(v.block2() != (1, 0, 0, 1) for v in values):
        raise ValueError("a relator of SL2(q) is not I on the lift blocks")
    W: dict = {}
    todo = [w0 | w1 << m for w0, w1 in (g.third_col() for g in values + lifts[3:])]
    while todo:
        v = gf2_insert(W, todo.pop())
        if v:
            w0, w1 = v & (1 << m) - 1, v >> m
            for a, b, c, d in blocks[:3]:
                todo.append(mul(a, w0) ^ mul(b, w1) | (mul(c, w0) ^ mul(d, w1)) << m)
    order = q * (q * q - 1) << len(W)
    images: dict = {}
    for v in W.values():
        gf2_insert(images, ls.value(v & (1 << m) - 1) | ls.value(v >> m) << m)
    inter = 1 << (len(W) - len(images))
    N = ls.kernel_order
    return SplitReport(N * order // inter, N, order, inter)
