"""Groups of 3x3 matrices with last row (0,0,1) over GF(2^m).

Builds the transvection groups acting on a 3-space with an invariant
plane: the SL2(GF(2^n)) generators R, S, T and their lifts, the cocycle
f(x,y) = 1 + x + y + x^(2^(n-1)) y^(2^(n-1)) and its homogeneous
companion g = f + 1, the cocycle subgroups H_gamma, the translation
kernel N = Lambda_1^2 for a GF(2^n)-subspace Lambda_1 of the ambient
field, breadth-first group closure, and the semidirect-split check, which
finds |<lifts>| by orbit and stabilizer instead of closure.  Lambda_1 is
held as its subspace polynomial and N as its 2d generating translations;
neither is listed element by element.

Matrices are immutable; the canonical encoding used for dedup, sorting
and golden files is the row-major 9-tuple of element bit-vectors.
"""

from __future__ import annotations

from itertools import product as iproduct

from refl2.ffield import FieldCtx, mult_generator, subfield_elements, subfield_generator


class ClosureCapError(RuntimeError):
    """Raised when a group to enumerate exceeds its element cap."""

    def __init__(self, cap: int):
        super().__init__(f"group exceeds the cap of {cap} elements")
        self.cap = cap


def _bmul(mul, x: tuple, y: tuple) -> tuple:
    """The product of 2x2 blocks (a, b, c, d) = [[a, b], [c, d]]."""
    a, b, c, d = x
    e, f, g, h = y
    return (
        mul(a, e) ^ mul(b, g), mul(a, f) ^ mul(b, h),
        mul(c, e) ^ mul(d, g), mul(c, f) ^ mul(d, h),
    )


def _binv(ctx: FieldCtx, x: tuple) -> tuple:
    mul = ctx.mul
    a, b, c, d = x
    di = ctx.inv(mul(a, d) ^ mul(b, c))
    return (mul(di, d), mul(di, b), mul(di, c), mul(di, a))


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
        ia, ib, ic, id_ = _binv(ctx, self.block2())
        al, be = self.third_col()
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
    """Smallest faithful basis per dimension: (), (1,), or (1, theta)
    with theta a multiplicative generator of the ambient field."""
    if d == 0:
        return ()
    if d == 1:
        return (1,)
    if d == 2:
        return (1, mult_generator(ambient))
    raise ValueError(f"no default basis for d={d}")


def kernel_group(ls: LambdaSpace, cap: int = 10**7) -> list[Mat3]:
    """The translations T_(b,0), T_(0,b) for each basis vector b of
    Lambda_1, in that order: together with the lifts they generate N.
    Only these 2d matrices are built, but |N| = q^(2d) is held to cap
    (ClosureCapError past it), so the cap bounds N as it bounds H."""
    if ls.kernel_order > cap:
        raise ClosureCapError(cap)
    pairs = [p for b in ls.basis for p in ((b, 0), (0, b))]
    return [Mat3.translation(ls.ambient, a, b) for a, b in pairs]


# -- splitting -----------------------------------------------------------------


class SplitReport:
    """|G| = |N| |H| / |N meet H| and its three factors."""

    __slots__ = ("group_order", "kernel_order", "complement_order", "intersection_order")

    def __init__(
        self, group_order: int, kernel_order: int, complement_order: int, intersection_order: int
    ):
        self.group_order = group_order
        self.kernel_order = kernel_order
        self.complement_order = complement_order
        self.intersection_order = intersection_order

    def _key(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        return isinstance(other, SplitReport) and self._key() == other._key()

    def __repr__(self):
        return f"SplitReport{self._key()}"

    @property
    def is_split(self) -> bool:
        return self.intersection_order == 1


class _BlockChain:
    """A group of invertible 2x2 blocks as a two-level Schreier-Sims chain
    on the base (1, 0), (0, 1) (Sims 1970; Seress, Permutation Group
    Algorithms, 2003).  `orbit` maps each point p of the orbit of (1, 0)
    to u_p^-1, for a group element u_p with u_p (1, 0) = p; `fixer` lists
    the subgroup fixing (1, 0) by where each element sends (0, 1), which
    names it.  So |group| = |orbit| |fixer|, and x is in the group iff
    u_p^-1 x, p = x (1, 0), is in `fixer` (a sift).  Past `limit`
    elements it raises ClosureCapError(cap)."""

    def __init__(self, ctx: FieldCtx, limit: int, cap: int):
        self.ctx, self.limit, self.cap = ctx, limit, cap
        self.gens: list = []  # (g, g^-1) pairs
        self.orbit = {(1, 0): (1, 0, 0, 1)}
        self.fixer = {(0, 1): (1, 0, 0, 1)}
        self.fixer_gens: list = []

    def order(self) -> int:
        return len(self.orbit) * len(self.fixer)

    def _grew(self):
        if self.order() > self.limit:
            raise ClosureCapError(self.cap)

    def __contains__(self, x: tuple) -> bool:
        ui = self.orbit.get((x[0], x[2]))
        if ui is None:
            return False
        r = _bmul(self.ctx.mul, ui, x)
        return (r[1], r[3]) in self.fixer

    def add(self, x: tuple) -> None:
        """Extend the group by x, unless it holds x already: extend the
        orbit, then put into `fixer` the Schreier generators
        u_(gp)^-1 g u_p of the pairs (p, g) that are new (Schreier's lemma)."""
        if x in self:
            return
        ctx, mul, orbit = self.ctx, self.ctx.mul, self.orbit
        old = len(orbit)
        pairs = self.gens
        pairs.append((x, _binv(ctx, x)))
        points = list(orbit)
        for i, p in enumerate(points):  # grows as the orbit does
            ui = orbit[p]
            u = _binv(ctx, ui)
            for g, gi in pairs if i >= old else pairs[-1:]:
                q = (mul(g[0], p[0]) ^ mul(g[1], p[1]), mul(g[2], p[0]) ^ mul(g[3], p[1]))
                qi = orbit.get(q)
                if qi is None:  # a tree edge: u_q = g u_p
                    orbit[q] = _bmul(mul, ui, gi)
                    self._grew()
                    points.append(q)
                else:
                    self._fix(_bmul(mul, qi, _bmul(mul, g, u)))

    def _fix(self, h: tuple) -> None:
        """Close `fixer` under h as well."""
        mul, fixer = self.ctx.mul, self.fixer
        if (h[1], h[3]) in fixer:
            return
        self.fixer_gens.append(h)
        elements = list(fixer.values())
        for y in elements:  # grows as the subgroup does
            for g in self.fixer_gens:
                z = _bmul(mul, y, g)
                if (z[1], z[3]) not in fixer:
                    fixer[z[1], z[3]] = z
                    self._grew()
                    elements.append(z)


def verify_splitting(
    ls: LambdaSpace, translations: list[Mat3], lifts: list[Mat3], cap: int = 10**7
) -> SplitReport:
    """Check that G = <N, lifts> is the semidirect product of
    N = Lambda_1^2 and H = <lifts>, and find |G| without enumerating G,
    N or H.  `translations` are the generators `kernel_group(ls)` returns.

    N is normal in G when each lift g conjugates N into N.  For
    g = [[A, w], [0, 1]], g T_v g^-1 = T_(Av), and A is linear over the
    ambient field, so A Lambda_1^2 is the GF(q)-span of the images of
    the 2d translations T_(b,0), T_(0,b); it lies in N when those images
    do.  Inverse lifts need no check: N is finite, so gNg^-1 inside N
    means gNg^-1 = N.  With N normal, G = NH, and the product formula
    gives |G| = |N| |H| / |N meet H| with |N| = q^(2d).

    |H| = |orbit of 0| |Stab(0)| for H acting on the plane by
    v -> A v + w.  The orbit comes with the blocks of a transversal t_p
    (t_p 0 = p), Stab(0) is the group of the Schreier generators
    t_(gp)^-1 g t_p, and as it fixes 0 it is the group of their blocks,
    held as a `_BlockChain`.  H holds the translation T_w iff w is in
    the orbit and the block of t_w is in Stab(0), since then
    t_w s^-1 = T_w for the s in Stab(0) with that block; so the W that
    passes that sift is {w : T_w in H}, |W| = |H| / |pi(H)|, and
    |N meet H| counts W in Lambda_1^2.  ClosureCapError exactly when
    |H| > cap.  G splits when H meets N trivially.
    """
    for g in lifts:
        gi = g.inverse()
        for t in translations:
            if not ls.kernel_contains(g * t * gi):
                raise ValueError("kernel is not normal in the group")
    ctx = ls.ambient
    mul = ctx.mul
    gens = [(g.block2(), g.third_col()) for g in lifts]
    blocks = {(0, 0): (1, 0, 0, 1)}  # point p -> block of t_p
    points = [(0, 0)]
    edges = []  # (g p, block of g t_p) off the tree
    for p in points:  # grows as the orbit does
        u = blocks[p]
        for A, (w0, w1) in gens:
            q = (mul(A[0], p[0]) ^ mul(A[1], p[1]) ^ w0, mul(A[2], p[0]) ^ mul(A[3], p[1]) ^ w1)
            if q in blocks:
                edges.append((q, _bmul(mul, A, u)))
            elif len(points) >= cap:
                raise ClosureCapError(cap)
            else:
                blocks[q] = _bmul(mul, A, u)
                points.append(q)
    stab = _BlockChain(ctx, cap // len(points), cap)
    for q, gu in edges:
        stab.add(_bmul(mul, _binv(ctx, blocks[q]), gu))
    order = len(points) * stab.order()
    inter = sum(1 for (a, b), u in blocks.items() if u in stab and a in ls and b in ls)
    N = ls.kernel_order
    return SplitReport(N * order // inter, N, order, inter)
