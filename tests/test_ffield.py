import random
import time
from itertools import combinations

import pytest

from refl2.ffield import (
    FieldCtx,
    _factorize,
    _pmod,
    _pmul,
    field_new,
    modulus_is_irreducible,
    mult_generator,
    subfield_elements,
    subfield_generator,
)


def brute_force_reducible(p: int, m: int) -> bool:
    # independent oracle: enumerate all factor pairs of positive degree
    for d1 in range(1, m):
        d2 = m - d1
        if d1 > d2:
            break
        for f in range(1 << d1, 1 << (d1 + 1)):
            for g in range(1 << d2, 1 << (d2 + 1)):
                if _pmul(f, g) == p:
                    return True
    return False


def trial_division_irreducible(p: int, m: int) -> bool:
    # reference: no factor among the polynomials of degree 1..m//2
    return all(
        _pmod(p, q) for d in range(1, m // 2 + 1) for q in range(1 << d, 1 << (d + 1))
    )


def trial_division_factors(n: int) -> list[int]:
    # reference: the distinct prime factors of n, ascending
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def lucas_lehmer(k: int) -> bool:
    # 2^k - 1, k an odd prime, is prime iff s_(k-2) = 0 (mod 2^k - 1)
    n, s = (1 << k) - 1, 4
    for _ in range(k - 2):
        s = (s * s - 2) % n
    return s == 0


def test_factorize_matches_trial_division():
    for n in range(1, 10**5 + 1):
        assert _factorize(n) == trial_division_factors(n), n


def test_factorize_mersenne_numbers():
    # 2^k - 1 for k <= 64: the factors divide it out completely, and each
    # is prime by trial division; 2^61 - 1, whose trial division would take
    # about 10^9 steps, by Lucas-Lehmer
    for k in range(1, 65):
        n = rest = (1 << k) - 1
        primes = _factorize(n)
        assert primes == sorted(set(primes))
        for p in primes:
            assert rest % p == 0
            while rest % p == 0:
                rest //= p
            if p.bit_length() > 60:
                assert p == n and lucas_lehmer(k)
            else:
                assert trial_division_factors(p) == [p]
        assert rest == 1, k
    assert _factorize((1 << 62) - 1) == [3, 715827883, 2147483647]


def test_factorize_refuses_unproven_primes():
    # 2^89 - 1 is prime, past the range where 13 Miller-Rabin bases prove
    # it; a composite that large still splits
    with pytest.raises(ValueError, match="cannot prove"):
        _factorize((1 << 89) - 1)
    big = 641 * 6700417 * ((1 << 61) - 1)
    assert _factorize(3 * big) == [3, 641, 6700417, (1 << 61) - 1]


def test_factorize_splits_even_mersenne_numbers_in_halves():
    # 2^178 - 1 = (2^89 - 1)(2^89 + 1) holds the unprovable prime 2^89 - 1
    # and 18584774046020617 | 2^89 + 1: split in halves first, it is
    # refused at once rather than left to rho
    start = time.process_time()
    with pytest.raises(ValueError, match="cannot prove 618970019642690137449562111 prime"):
        _factorize((1 << 178) - 1)
    assert time.process_time() - start < 5
    # 2^128 - 1 is the product of the Fermat numbers F_0, ..., F_6
    fermat = [3, 5, 17, 257, 641, 65537, 274177, 6700417, 67280421310721]
    assert _factorize((1 << 128) - 1) == fermat


def test_rabin_matches_trial_division():
    # every polynomial of degree 1..12, m = 1 included, where x mod f is
    # not x itself
    for m in range(1, 13):
        for p in range(1 << m, 1 << (m + 1)):
            assert modulus_is_irreducible(p, m) == trial_division_irreducible(p, m)
    assert modulus_is_irreducible(0x2, 1) and modulus_is_irreducible(0x3, 1)


def test_rabin_at_degree_64():
    # trial division would take about 2^32 steps here
    assert modulus_is_irreducible(0x1000000000000001B, 64)  # x^64+x^4+x^3+x+1
    for p in (_pmul(0x1002B, 1 << 48 | 1), _pmul(1 << 32 | 0x8D, 1 << 32 | 0x8D)):
        assert p.bit_length() == 65 and not modulus_is_irreducible(p, 64)


# the default moduli of every report so far (m <= 20) and three past them
DEFAULT_MODULI = {
    1: 0x2, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 24: 0x100001B, 32: 0x10000008D, 64: 0x1000000000000001B,
}


def test_default_moduli_follow_convention():
    # candidates by weight, then by value: each weight's low-bit sets are
    # listed and sorted only once the lighter ones are exhausted
    def candidates(m):
        for w in range(m + 1):
            yield from sorted(
                (1 << m) | sum(1 << b for b in low) for low in combinations(range(m), w)
            )

    for m, expected in DEFAULT_MODULI.items():
        assert field_new(m).modulus == expected
        if m <= 24:  # past that the reference makes thousands of Rabin tests
            first = next(c for c in candidates(m) if modulus_is_irreducible(c, m))
            assert first == expected
    # the rule reaches every m <= 64, and no further
    assert all(field_new(m).m == m for m in range(1, 65))
    for m in (0, 65):
        with pytest.raises(ValueError, match=f"no default modulus for m={m}"):
            field_new(m)


def test_field_new_gf4():
    ctx = field_new(2, 0x7)
    assert ctx.m == 2 and ctx.order == 4
    assert ctx.check(0x3) == 0x3
    for bad in (0x4, -1):
        with pytest.raises(ValueError, match="out of range"):
            ctx.check(bad)


def test_field_new_rejects_reducible():
    with pytest.raises(ValueError):
        field_new(2, 0x5)  # t^2+1 = (t+1)^2


def test_field_new_rejects_bad_length():
    with pytest.raises(ValueError):
        field_new(2, 0x3)
    with pytest.raises(ValueError):
        field_new(2, 0x0)


def test_field_new_gf16_matches_brute_force():
    ctx = field_new(4, 0x13)
    assert not brute_force_reducible(0x13, 4)
    assert ctx.order == 16
    # and the brute-force oracle agrees with both tests on everything
    for p in range(1 << 4, 1 << 5):
        assert modulus_is_irreducible(p, 4) == (not brute_force_reducible(p, 4))
        assert trial_division_irreducible(p, 4) == (not brute_force_reducible(p, 4))


def test_gf4_mul_table():
    ctx = field_new(2)
    t = 0x2
    assert ctx.mul(t, t) == 0x3  # t^2 = t+1
    for a in range(4):
        assert ctx.mul(a, 1) == a
        assert ctx.mul(a, 0) == 0


def test_inv():
    ctx = field_new(2)
    assert ctx.inv(0x2) == 0x3  # t*(t+1) = t^2+t = 1
    assert ctx.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    for m in (3, 5, 8):
        c = field_new(m)
        for a in range(1, c.order):
            assert c.mul(a, c.inv(a)) == 1


def test_squaring_is_additive():
    rng = random.Random(11)
    ctx = field_new(9)
    for _ in range(200):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert ctx.mul(a ^ b, a ^ b) == ctx.mul(a, a) ^ ctx.mul(b, b)


def test_mult_generator():
    assert mult_generator(field_new(1)) == 1
    ctx4 = field_new(2)
    g = mult_generator(ctx4)
    assert type(g) is int and g == 0x2
    assert ctx4.mul(g, g) == 0x3 and ctx4.mul(ctx4.mul(g, g), g) == 1
    ctx8 = field_new(3)
    g8 = mult_generator(ctx8)
    seen = set()
    p = 1
    for _ in range(7):
        p = ctx8.mul(p, g8)
        seen.add(p)
    assert len(seen) == 7 and p == 1  # exact order 7
    # smallest-by-value: nothing below it has full order
    for a in range(1, g8):
        assert ctx8.order_of(a) != 7


def test_mult_generator_order_exact():
    for m in (2, 3, 4, 6, 8):
        ctx = field_new(m)
        g = mult_generator(ctx)
        assert ctx.order_of(g) == ctx.order - 1


def test_subfield_elements():
    ctx4 = field_new(2)
    assert subfield_elements(ctx4, 1) == [0, 1]
    assert subfield_elements(ctx4, 2) == [0, 1, 2, 3]
    ctx16 = field_new(4)
    assert all(type(s) is int for s in subfield_elements(ctx16, 2))
    with pytest.raises(ValueError):
        subfield_elements(ctx16, 3)
    # reference: a scan for the fixed points of the n-fold Frobenius
    for m in range(1, 13):
        ctx = field_new(m)
        for n in range(1, m + 1):
            if m % n == 0:
                expected = [a for a in range(ctx.order) if ctx.pow_(a, 1 << n) == a]
                assert subfield_elements(ctx, n) == expected
    # past the table limit the scan would take seconds; check the points
    ctx = field_new(18, 0x40009)
    for n in (2, 3, 6):
        sub = subfield_elements(ctx, n)
        assert len(sub) == 1 << n and sub == sorted(set(sub))
        assert all(ctx.in_subfield(a, n) for a in sub)


def test_subfield_closed_under_ops():
    ctx = field_new(6)
    for n in (1, 2, 3):
        sub = set(subfield_elements(ctx, n))
        assert len(sub) == 1 << n
        for a in sub:
            for b in sub:
                assert a ^ b in sub
                assert ctx.mul(a, b) in sub
            if a:
                assert ctx.inv(a) in sub


def test_subfield_generator():
    ctx = field_new(4)
    e = subfield_generator(ctx, 2)
    assert type(e) is int
    assert ctx.order_of(e) == 3
    assert ctx.in_subfield(e, 2)
    # in the whole field the subfield generator is the field generator
    assert subfield_generator(ctx, 4) == mult_generator(ctx)
    for n in (0, 3):
        with pytest.raises(ValueError, match="does not divide"):
            subfield_generator(ctx, n)


def test_subfields_match_the_field_generator_route():
    # reference: the subfield from the powers of g^((2^m-1)/(2^n-1)) for a
    # generator g of the whole field, and its least element of full order
    # by the order in the whole field, on every modulus of degree <= 8
    for m in range(1, 9):
        for modulus in range(1 << m, 1 << (m + 1)):
            if not modulus_is_irreducible(modulus, m):
                continue
            ctx = FieldCtx(m, modulus)
            for n in (n for n in range(1, m + 1) if m % n == 0):
                q = 1 << n
                h = ctx.pow_(mult_generator(ctx), (ctx.order - 1) // (q - 1))
                expected = sorted({0} | {ctx.pow_(h, i) for i in range(q - 1)})
                assert subfield_elements(ctx, n) == expected
                e = subfield_generator(ctx, n)
                assert e == min(a for a in expected if a and ctx.order_of(a) == q - 1)


def least_of_full_order(ctx, n):
    # reference: the first element of the sorted listing with order q - 1
    q = 1 << n
    return next(a for a in subfield_elements(ctx, n) if a and ctx.order_of(a, q - 1) == q - 1)


def test_subfield_generator_is_the_least_element_of_full_order():
    # every subfield of the default fields of degree <= 16 and of the
    # table-less GF(2^17) and GF(2^18), and two of GF(2^24), whose
    # subfield generator is found by counting through an echelon basis
    cases = [(m, n) for m in list(range(1, 17)) + [17, 18] for n in range(1, m + 1) if m % n == 0]
    for m, n in cases + [(24, 8), (24, 12)]:
        ctx = field_new(m)
        assert subfield_generator(ctx, n) == least_of_full_order(ctx, n)


@pytest.mark.slow
def test_subfield_generator_of_gf2_16_in_gf2_32():
    # the listing takes 65 535 products with no log tables
    ctx = field_new(32)
    assert subfield_generator(ctx, 16) == least_of_full_order(ctx, 16)


def test_subfields_of_a_degree_62_field():
    # no log tables and 2^62 - 1 = 3 * 715827883 * 2147483647, which the
    # subfields never factor
    ctx = FieldCtx(62, 0x4000000000000069)
    for n in (1, 2):
        sub = subfield_elements(ctx, n)
        assert len(sub) == 1 << n and all(ctx.in_subfield(a, n) for a in sub)
    e = subfield_generator(ctx, 2)
    assert ctx.mul(e, ctx.mul(e, e)) == 1 and e != 1


def test_field_axioms_exhaustive_small():
    for m in (1, 2, 3, 4):
        ctx = field_new(m)
        els = list(range(ctx.order))
        for a in els:
            for b in els:
                assert ctx.mul(a, b) == ctx.mul(b, a)
                for c in els:
                    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                    assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


def test_field_axioms_random_large():
    rng = random.Random(3)
    for m in (8, 12, 16):
        ctx = field_new(m)
        for _ in range(10_000 if m == 16 else 2_000):
            a, b, c = (rng.randrange(ctx.order) for _ in range(3))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


def test_pow_handles_large_exponents():
    ctx = field_new(4)
    g = mult_generator(ctx)
    assert ctx.pow_(g, ctx.order - 1) == 1
    assert ctx.pow_(g, 16) == ctx.pow_(g, 16 % 15)
    assert ctx.pow_(0, 0) == 1 and ctx.pow_(0, 5) == 0
