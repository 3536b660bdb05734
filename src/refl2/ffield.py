"""Exact arithmetic in GF(2^m).

Field elements are bit-vectors stored as Python ints: bit k is the
coefficient of t^k in the polynomial basis of GF(2)[t]/(modulus).  The
zero and one elements are always the ints 0 and 1, and addition is xor.
A `FieldCtx` carries the extension degree and the irreducible modulus
and exposes int-level arithmetic (`mul`, `inv`, `pow_`), the primitives
of the matrix and polynomial layers alike.

Moduli are bit-vectors too, with bit m (the leading bit) set; they print
as hex with the low bit the constant term, e.g. the GF(4) modulus
t^2+t+1 is 0x7.  Construction checks irreducibility by Rabin's test
(`modulus_is_irreducible`), m squarings modulo the modulus, so a modulus
of degree 64 is checked at once; with none given, `field_new` takes the
first irreducible of degree m <= 64 in (weight, value) order.  The least
generator of a subfield GF(2^n) (`subfield_generator`, and
`mult_generator` for n = m) comes from counting through an echelon
basis of the subfield, with no listing, and factors only 2^n - 1:
Pollard's rho splits it and Miller-Rabin proves the factors
(`_factorize`), so 2^62 - 1 takes milliseconds.  `gf2_insert` is the
GF(2) echelon step on bit rows that the oracle, the split's translations
and the subfield generator share.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import xor

# Log/exp tables are built only for fields that fit comfortably in memory.
_TABLE_LIMIT = 16


def _pmod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b over GF(2)."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _pmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _pgcd(a: int, b: int) -> int:
    """Greatest common divisor of two GF(2) polynomials."""
    while b:
        a, b = b, _pmod(a, b)
    return a


def modulus_is_irreducible(modulus: int, m: int) -> bool:
    """Rabin's test for f = modulus of degree m: f is irreducible over
    GF(2) iff x^(2^m) = x mod f and gcd(x^(2^(m/p)) - x, f) = 1 for every
    prime p | m (Rabin, "Probabilistic algorithms in finite fields",
    1980).  x is taken mod f, which matters for m = 1."""
    x = _pmod(2, modulus)
    powers = [x]  # x^(2^k) mod f for k = 0..m
    for _ in range(m):
        powers.append(_pmod(_pmul(powers[-1], powers[-1]), modulus))
    if powers[m] != x:
        return False
    return all(_pgcd(powers[m // p] ^ x, modulus) == 1 for p in _factorize(m))


# Miller-Rabin on these bases decides primality below _PRIME_PROVEN
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_PROVEN = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n > 1 with no factor among `_PRIME_BASES`.
    ValueError when n passes every base but is too large for that to
    prove it prime."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PRIME_PROVEN:
        raise ValueError(f"cannot prove {n} prime: past the deterministic Miller-Rabin range")
    return True


def _split(n: int) -> int:
    """A proper factor of the odd composite n, by Pollard's rho with
    Brent's cycle finding and batched gcds (Brent, "An improved Monte
    Carlo factorization algorithm", BIT 20, 1980)."""
    for c in range(1, n):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = gcd(acc, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if g != n:
            return g
    raise AssertionError("no composite resists every rho polynomial")


def _factorize(n: int) -> list[int]:
    """Prime factors of n >= 1, without multiplicity, ascending: the
    primes of `_PRIME_BASES` by division, the rest split by `_split`
    and each factor proved prime by `_is_prime`.  n = 2^(2k) - 1 is first
    split into 2^k - 1 and 2^k + 1: rho needs about sqrt(p) steps to split
    off a prime p, so two large primes, one in each half, would stall it."""
    k = n.bit_length()
    if n > 3 and n & (n + 1) == 0 and k % 2 == 0:  # 3 = 2^1 + 1 is its own half
        return sorted(set(_factorize((1 << k // 2) - 1) + _factorize((1 << k // 2) + 1)))
    out = set()
    for p in _PRIME_BASES:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    rest = [n] if n > 1 else []
    while rest:
        f = rest.pop()
        if _is_prime(f):
            out.add(f)
        else:
            g = _split(f)
            rest += [g, f // g]
    return sorted(out)


class FieldCtx:
    """A finite field GF(2^m) given by degree and irreducible modulus.

    Immutable; two contexts compare equal iff they have the same degree
    and modulus.  All int-level methods expect operands already reduced
    (bit length at most m).

    For m <= _TABLE_LIMIT (16) the context holds discrete-log tables for
    a multiplicative generator: `_log[a]` in [0, 2^m - 1) for nonzero a,
    and `_exp[i]` for 0 <= i < 2 (2^m - 1), so a sum of two logs indexes
    `_exp` unreduced.  Past the limit both are None and every method
    computes directly.  Only the methods here read the tables.
    """

    __slots__ = ("m", "modulus", "order", "_exp", "_log")

    def __init__(self, m: int, modulus: int):
        if m < 1:
            raise ValueError("extension degree must be positive")
        if modulus.bit_length() != m + 1:
            raise ValueError(
                "modulus must be a bit-vector of length m+1 with the top bit set"
            )
        if not modulus_is_irreducible(modulus, m):
            raise ValueError(f"modulus {modulus:#x} is reducible over GF(2)")
        self.m = m
        self.modulus = modulus
        self.order = 1 << m
        self._exp = self._log = None
        if m <= _TABLE_LIMIT:
            self._build_tables()

    def _build_tables(self):
        # The modulus need not be primitive, so drive the tables with a
        # multiplicative generator found by direct order computation.
        n = self.order - 1
        g = self._subgroup_generator(self.m)
        exp = [1] * n
        for i in range(1, n):
            exp[i] = self._mul_raw(exp[i - 1], g)
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp + exp, log

    def _mul_raw(self, a: int, b: int) -> int:
        return _pmod(_pmul(a, b), self.modulus)

    def _pow_raw(self, a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            k >>= 1
        return r

    # -- public int-level arithmetic ------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(n - self._log[a]) % n]
        return self._pow_raw(a, self.order - 2)

    def pow_(self, a: int, k: int) -> int:
        """a**k with k >= 0 (k may exceed the group order)."""
        if k < 0:
            return self.pow_(self.inv(a), -k)
        if a == 0:
            return 0 if k else 1
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(self._log[a] * k) % n]
        return self._pow_raw(a, k)

    def order_of(self, a: int, multiple: int = 0) -> int:
        """Multiplicative order of a nonzero element, given a multiple of
        it (by default 2^m - 1, always one); only the multiple is factored."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        ord_ = multiple or self.order - 1
        for p in _factorize(ord_):
            while ord_ % p == 0 and self.pow_(a, ord_ // p) == 1:
                ord_ //= p
        return ord_

    def check(self, a: int) -> int:
        """a itself, if it is an element of this field (0 <= a < 2^m)."""
        if not 0 <= a < self.order:
            raise ValueError(f"element {a:#x} out of range for {self!r}")
        return a

    def _first_of_order(self, k: int, candidates) -> int:
        """The first of the `candidates`, each nonzero with a^k = 1, whose
        order is exactly k; only k is factored.  Before the tables exist,
        `pow_` computes directly."""
        primes = _factorize(k)
        for a in candidates:
            if all(self.pow_(a, k // p) != 1 for p in primes):
                return a
        raise AssertionError(f"no candidate has order {k}")

    def _subgroup_generator(self, n: int) -> int:
        """An element of order 2^n - 1, for n | m: the first
        h = a^((2^m-1)/(2^n-1)), a = 1, 2, ..., of that order.  Every such h
        lies in the GF(2^n) subfield, and for n = m it is a itself."""
        k = (1 << n) - 1
        e = (self.order - 1) // k
        return self._first_of_order(k, (self.pow_(a, e) for a in range(1, self.order)))

    def in_subfield(self, a: int, n: int) -> bool:
        """True iff a is fixed by the n-fold Frobenius, a^(2^n) = a."""
        return self.pow_(a, 1 << n) == a

    # -- hashing / printing ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.m, self.modulus))

    def __repr__(self):
        return f"FieldCtx(GF(2^{self.m}), modulus={self.modulus:#x})"


# -- module-level operations -----------------------------------------------


def field_new(m: int, modulus: int | None = None) -> FieldCtx:
    """Build GF(2^m).  With no modulus, 1 <= m <= 64 takes the first
    irreducible in (weight, value) order: t for m = 1.  Past m = 1 the
    constant term is set, or t divides the polynomial, and the weight is
    odd, or t + 1 does; so k = 1, 3, ... middle bits are tried in turn,
    each k in value order."""
    if modulus is not None:
        return FieldCtx(m, modulus)
    if not 1 <= m <= 64:
        raise ValueError(f"no default modulus for m={m}; pass one explicitly")
    for k in range(1, m, 2):
        mid = (1 << k) - 1  # the middle bits t^1..t^(m-1), shifted down by one
        while mid < 1 << (m - 1):
            modulus = 1 << m | mid << 1 | 1
            if modulus_is_irreducible(modulus, m):
                return FieldCtx(m, modulus)
            # the next larger int with k bits set (Gosper, HAKMEM item 175)
            low = mid & -mid
            ripple = mid + low
            mid = ripple | ((ripple ^ mid) >> 2) // low
    return FieldCtx(m, 0x2)  # m = 1: no middle bits, and t comes first


def mult_generator(ctx: FieldCtx) -> int:
    """Smallest element (by bit-vector value) of multiplicative order 2^m-1."""
    return subfield_generator(ctx, ctx.m)


def subfield_elements(ctx: FieldCtx, n: int) -> list[int]:
    """The GF(2^n) subfield sorted by value: 0 and the powers of an h of
    order 2^n - 1 (`FieldCtx._subgroup_generator`), each one `mul` on the
    one before it.  The listing is the tests' reference; no run calls it."""
    if n < 1 or ctx.m % n != 0:
        raise ValueError(f"subfield degree {n} does not divide {ctx.m}")
    q = 1 << n
    h = ctx._subgroup_generator(n)
    out = [0, 1]
    for _ in range(q - 2):
        out.append(ctx.mul(out[-1], h))
    assert len(set(out)) == q
    return sorted(out)


def gf2_insert(basis: dict, v: int) -> int:
    """Reduce the GF(2) row v (bit i of the int is column i) by the rows
    of `basis`, each keyed by the length of its highest set bit, and add
    the remainder if it is nonzero; return the remainder."""
    while v:
        top = v.bit_length()
        row = basis.get(top)
        if row is None:
            basis[top] = v
            break
        v ^= row
    return v


def subfield_generator(ctx: FieldCtx, n: int) -> int:
    """Smallest element of the GF(2^n) subfield with multiplicative order
    2^n-1; orders in the subfield divide 2^n-1, so only it is factored.

    For h of order 2^n - 1, 1, h, ..., h^(n-1) is a GF(2) basis of the
    subfield.  Reduced, each row's top bit is a pivot that no other row
    has; with the rows in ascending pivot order the XOR of the rows picked
    by the bits of c increases with c, as where two counts first differ,
    from the top, only the larger has that row's pivot and the sums agree
    above it.  So counting c = 1, 2, ... visits the subfield in value
    order, with no listing; for n = m it is the scan that found h."""
    if n < 1 or ctx.m % n != 0:
        raise ValueError(f"subfield degree {n} does not divide {ctx.m}")
    h = ctx._subgroup_generator(n)
    if n == ctx.m:
        return h
    echelon, v = {}, 1
    for _ in range(n):
        gf2_insert(echelon, v)
        v = ctx.mul(v, h)
    rows: list[int] = []
    for top in sorted(echelon):  # clear the lower pivots from each row
        v = echelon[top]
        for row in rows:
            v ^= row if v >> (row.bit_length() - 1) & 1 else 0
        rows.append(v)
    counted = (
        reduce(xor, (row for i, row in enumerate(rows) if c >> i & 1)) for c in range(1, 1 << n)
    )
    return ctx._first_of_order((1 << n) - 1, counted)
