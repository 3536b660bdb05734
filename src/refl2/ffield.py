"""Exact arithmetic in GF(2^m).

Field elements are bit-vectors stored as Python ints: bit k is the
coefficient of t^k in the polynomial basis of GF(2)[t]/(modulus).  The
zero and one elements are always the ints 0 and 1, and addition is xor.
A `FieldCtx` carries the extension degree and the irreducible modulus
and exposes int-level arithmetic (`mul`, `inv`, `sqrt`, `pow_`), the
primitives of the matrix and polynomial layers alike.

Moduli are bit-vectors too, with bit m (the leading bit) set; they print
as hex with the low bit the constant term, e.g. the GF(4) modulus
t^2+t+1 is 0x7.  Construction checks irreducibility by Rabin's test
(`modulus_is_irreducible`), m squarings modulo the modulus, so a modulus
of degree 64 is checked at once.  Subfields are found without factoring
2^m - 1 (`subfield_elements`); only a multiplicative generator of the
whole field (`mult_generator`) needs that factorization, which Pollard's
rho finds and Miller-Rabin proves (`_factorize`), so 2^62 - 1 takes
milliseconds.  `gf2_insert` is the GF(2) echelon step on bit rows that
the oracle and the split's translations share.
"""

from __future__ import annotations

from math import gcd

# Default irreducible modulus per degree, lowest weight first, then
# lowest bit-vector value.  Regenerated by tests/test_ffield.py.
DEFAULT_MODULI = {
    1: 0x2,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
}

# Log/exp tables are built only for fields that fit comfortably in memory.
_TABLE_LIMIT = 16


def _pdeg(x: int) -> int:
    return x.bit_length() - 1


def _pmod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b over GF(2)."""
    db = _pdeg(b)
    while a and _pdeg(a) >= db:
        a ^= b << (_pdeg(a) - db)
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
        if m <= _TABLE_LIMIT:
            self._build_tables()
        else:
            self._exp = self._log = None

    def _build_tables(self):
        # The modulus need not be primitive, so drive the tables with a
        # multiplicative generator found by direct order computation.
        n = self.order - 1
        exp = [1] * (2 * n if n else 1)
        log = [0] * self.order
        if n == 0:
            self._exp, self._log = exp, log
            return
        g = self._find_generator_raw()
        v = 1
        for i in range(n):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, g)
        for i in range(n, 2 * n):
            exp[i] = exp[i - n]
        self._exp, self._log = exp, log

    def _mul_raw(self, a: int, b: int) -> int:
        return _pmod(_pmul(a, b), self.modulus)

    def _order_raw(self, a: int, n: int = 0) -> int:
        """The multiplicative order of a nonzero a, given a multiple n of
        it (by default 2^m - 1); only n is factored."""
        n = n or self.order - 1
        ord_ = n
        for p in _factorize(n):
            while ord_ % p == 0 and self._pow_raw(a, ord_ // p) == 1:
                ord_ //= p
        return ord_

    def _pow_raw(self, a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            k >>= 1
        return r

    def _find_generator_raw(self) -> int:
        n = self.order - 1
        for a in range(1, self.order):
            if self._order_raw(a) == n:
                return a
        raise AssertionError("multiplicative group of a field is cyclic")

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

    def sqrt(self, a: int) -> int:
        """The unique square root, a**(2^(m-1))."""
        return self.pow_(a, 1 << (self.m - 1))

    def order_of(self, a: int, multiple: int = 0) -> int:
        """Multiplicative order of a nonzero element, given a multiple of
        it (by default 2^m - 1, always one); only the multiple is factored."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        return self._order_raw(a, multiple)

    def check(self, a: int) -> int:
        """a itself, if it is an element of this field (0 <= a < 2^m)."""
        if not 0 <= a < self.order:
            raise ValueError(f"element {a:#x} out of range for {self!r}")
        return a

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
    """Build GF(2^m); modulus defaults to the built-in table for m <= 20."""
    if modulus is None:
        try:
            modulus = DEFAULT_MODULI[m]
        except KeyError:
            raise ValueError(f"no default modulus for m={m}; pass one explicitly")
    return FieldCtx(m, modulus)


def mult_generator(ctx: FieldCtx) -> int:
    """Smallest element (by bit-vector value) of multiplicative order 2^m-1."""
    return ctx._find_generator_raw()


def subfield_elements(ctx: FieldCtx, n: int) -> list[int]:
    """The GF(2^n) subfield sorted by value: 0 and the powers of an h of
    order 2^n - 1.  h = a^((2^m-1)/(2^n-1)) lies in the subfield for every
    nonzero a, so a = 1, 2, ... is tried until h has that order, which
    factors only 2^n - 1; the powers of a generator g would need 2^m - 1
    factored to find g.  Each power is one `mul` on the one before it."""
    if n < 1 or ctx.m % n != 0:
        raise ValueError(f"subfield degree {n} does not divide {ctx.m}")
    q = 1 << n
    powers = (ctx.pow_(a, (ctx.order - 1) // (q - 1)) for a in range(1, ctx.order))
    h = next(h for h in powers if ctx._order_raw(h, q - 1) == q - 1)
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
    For the whole field that is `mult_generator`, a scan by value; a
    proper subfield is listed, as a scan would try 2^(m-n) values each."""
    if n == ctx.m:
        return mult_generator(ctx)
    target = (1 << n) - 1
    for a in subfield_elements(ctx, n):
        if a and ctx._order_raw(a, target) == target:
            return a
    raise AssertionError("subfield generator always exists")
