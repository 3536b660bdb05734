import functools
import random
from itertools import product as iproduct
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refl2.ffield import (
    field_new, gf2_insert, modulus_is_irreducible, mult_generator, subfield_elements,
    subfield_generator,
)
from refl2 import grouplift
from refl2.grouplift import (
    ClosureCapError,
    LambdaSpace,
    Mat3,
    SplitReport,
    closure,
    cocycle_f,
    cocycle_g,
    default_lambda_basis,
    h_gamma,
    kernel_group,
    lift_generators,
    minimal_polynomial,
    sl2_elements,
    sl2_generators,
    sl2_relators,
    verify_splitting,
)
from refl2.invariants import kernel_invariants
from refl2.mvpoly import MultiPoly

GF2 = field_new(1)
GF4 = field_new(2)
GF8 = field_new(3)


def lambda_span_reference(ctx, n, basis):
    """Lambda_1 by enumeration, the reference for `LambdaSpace`: every
    GF(2^n)-combination of the basis, sorted by value.  It has 2^(nd)
    elements iff the d basis vectors are independent over GF(2^n)."""
    sub = subfield_elements(ctx, n)
    span = set()
    for coeffs in iproduct(sub, repeat=len(basis)):
        v = 0
        for s, b in zip(coeffs, basis):
            v ^= ctx.mul(s, b)
        span.add(v)
    return sorted(span)


def kernel_reference(ls):
    """All translations of N = Lambda_1^2, sorted by key."""
    lam = lambda_span_reference(ls.ambient, ls.n, ls.basis)
    return [Mat3.translation(ls.ambient, a, b) for a in lam for b in lam]


def kernel_invariants_reference(ls):
    """f_x = prod (x + a z), f_y = prod (y + a z) over the enumerated span."""
    ctx = ls.ambient
    fx = fy = MultiPoly.one(ctx)
    for a in lambda_span_reference(ctx, ls.n, ls.basis):
        fx = fx * MultiPoly.linear_form(ctx, 1, 0, a)
        fy = fy * MultiPoly.linear_form(ctx, 0, 1, a)
    return fx, fy


def test_mat3_last_row_enforced():
    with pytest.raises(ValueError):
        Mat3(GF4, ((1, 0, 0), (0, 1, 0), (0, 0, 0x2)))


def test_mat3_inverse():
    rng = random.Random(1)
    for _ in range(50):
        while True:
            a, b, c, d = (rng.randrange(4) for _ in range(4))
            if GF4.mul(a, d) ^ GF4.mul(b, c):
                break
        m = Mat3(GF4, ((a, b, rng.randrange(4)), (c, d, rng.randrange(4)), (0, 0, 1)))
        assert m * m.inverse() == Mat3.identity(GF4)
        assert m.inverse() * m == Mat3.identity(GF4)


def test_cocycle_f_values():
    assert cocycle_f(GF4, 0, 0, 2) == 1
    assert cocycle_f(GF4, 1, 1, 2) == 0
    e = subfield_generator(GF4, 2)
    ei = GF4.inv(e)
    assert type(cocycle_f(GF4, ei, 0, 2)) is int
    assert cocycle_f(GF4, ei, 0, 2) == 1 ^ ei


def test_cocycle_g_values():
    assert cocycle_g(GF4, 0, 0, 2) == 0
    assert cocycle_g(GF4, 1, 1, 2) == 1
    t = 0x2
    assert cocycle_g(GF4, t, t, 2) == GF4.mul(t, cocycle_g(GF4, 1, 1, 2))


def test_cocycle_rejects_outside_subfield():
    ctx = field_new(4)
    theta = 0x2  # generator of GF(16), not in GF(4)
    with pytest.raises(ValueError):
        cocycle_f(ctx, theta, 1, 2)
    # 0x10 is no element of GF(16) at all
    for bad in (0x10, -1):
        with pytest.raises(ValueError, match="out of range"):
            cocycle_f(ctx, bad, 1, 2)
        with pytest.raises(ValueError, match="out of range"):
            cocycle_g(ctx, 1, bad, 2)
        with pytest.raises(ValueError, match="out of range"):
            h_gamma(bad, 2, GF4)


def cocycle_identity_counts(n, ctx, sample=None):
    """Check of the twisted-additivity law over GL2(q), q = 2^n: for a
    block A = [[a, b], [c, d]] with delta = ad + bc and p, q' in GF(q),
      f((p, q') A) = f(p, q') + p f(a, b) + q' f(c, d) + (1 + sqrt delta) sqrt(p q'),
    and the same for g = f + 1, with sqrt x = x^(q/2); on SL2(q) the last
    term vanishes.  Exhaustive, or on `sample` seeded random instances;
    returns the number checked."""
    sub = subfield_elements(ctx, n)
    mul, half = ctx.mul, 1 << (n - 1)
    blocks = [A for A in iproduct(sub, repeat=4) if mul(A[0], A[3]) ^ mul(A[1], A[2])]
    cases = iproduct(blocks, sub, sub)
    if sample is not None:
        rng = random.Random(n)
        cases = [(rng.choice(blocks), rng.choice(sub), rng.choice(sub)) for _ in range(sample)]
    count = 0
    for (a, b, c, d), p, q in cases:
        delta = mul(a, d) ^ mul(b, c)
        twist = mul(1 ^ ctx.pow_(delta, half), ctx.pow_(mul(p, q), half))
        lhs = mul(p, cocycle_f(ctx, a, b, n)) ^ mul(q, cocycle_f(ctx, c, d, n)) ^ twist
        u, v = mul(p, a) ^ mul(q, c), mul(p, b) ^ mul(q, d)
        assert lhs ^ cocycle_f(ctx, p, q, n) == cocycle_f(ctx, u, v, n)
        assert lhs ^ cocycle_g(ctx, p, q, n) == cocycle_g(ctx, u, v, n)
        count += 1
    return count


def test_cocycle_identity_exhaustive():
    # all |GL2(q)| q^2 instances for n <= 2 (6 * 4 and 180 * 16); all
    # 3 528 * 64 at n=3 take about 2 s, so a seeded sample of them
    assert cocycle_identity_counts(1, GF2) == 24
    assert cocycle_identity_counts(2, GF4) == 2880
    assert cocycle_identity_counts(3, GF8, sample=20000) == 20000


def test_g_homogeneity_exhaustive():
    for n, ctx in ((1, GF2), (2, GF4), (3, GF8)):
        sub = subfield_elements(ctx, n)
        for t in sub:
            for a in sub:
                for b in sub:
                    lhs = cocycle_g(ctx, ctx.mul(t, a), ctx.mul(t, b), n)
                    rhs = ctx.mul(t, cocycle_g(ctx, a, b, n))
                    assert lhs == rhs


def test_sl2_generator_closure_orders():
    for n, ctx in ((1, GF2), (2, GF4), (3, GF8)):
        R, S, T = sl2_generators(n, ctx)
        q = 1 << n
        assert len(closure([R, S, T])) == q * (q * q - 1)


def test_sl2_n1_r_is_identity():
    R, S, T = sl2_generators(1, GF2)
    assert R == Mat3.identity(GF2)
    assert len(closure([S, T])) == 6


def test_sl2_closure_matches_determinant_scan():
    # independent enumeration: solutions of ad + bc = 1 over the subfield
    for n, ctx in ((1, GF2), (2, GF4)):
        G = closure(list(sl2_generators(n, ctx)))
        scan = {m for m in sl2_elements(n, ctx)}
        assert {m.block2() for m in G} == scan


def test_lift_generators_displays():
    e = subfield_generator(GF4, 2)
    ei = GF4.inv(e)
    R0, S_l, T_l = lift_generators("h0", 2, GF4)
    assert R0.rows == ((ei, 0, 0), (0, e, 0), (0, 0, 1))
    R1, _, _ = lift_generators("h1", 2, GF4)
    assert R1.rows == ((ei, 0, 1), (0, e, e), (0, 0, 1))
    assert S_l.rows == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    assert T_l.rows == ((1, 0, 0), (1, 1, 0), (0, 0, 1))
    sts = S_l * T_l * S_l
    assert sts.rows == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        lift_generators("h2", 2, GF4)
    # h0 lifts are the SL2 generators; h1 differs only in R's third column
    GF16 = field_new(4)
    for n, ctx in ((1, GF2), (2, GF4), (2, GF16), (4, GF16)):
        R, S, T = sl2_generators(n, ctx)
        assert lift_generators("h0", n, ctx) == (R, S, T)
        R1, S1, T1 = lift_generators("h1", n, ctx)
        assert (S1, T1) == (S, T) and R1.block2() == R.block2()
        assert R1.third_col() == (1, R.rows[1][1])


def test_h_gamma_block_diagonal_when_zero():
    H0 = h_gamma(0, 2, GF4)
    assert len(H0) == 60
    assert all(m.third_col() == (0, 0) for m in H0)


def test_h_gamma_one_contains_transvection_lifts():
    H1 = h_gamma(1, 2, GF4)
    assert len(H1) == 60
    _, S_l, T_l = lift_generators("h1", 2, GF4)
    assert S_l in H1 and T_l in H1


def test_h_gamma_random_gamma_product_columns():
    rng = random.Random(5)
    gamma = 0x3
    H = h_gamma(gamma, 2, GF4)
    els = H.sorted_elements()
    for _ in range(50):
        m1, m2 = rng.choice(els), rng.choice(els)
        p = m1 * m2
        a, b, c, d = p.block2()
        fa = cocycle_f(GF4, a, b, 2)
        fc = cocycle_f(GF4, c, d, 2)
        assert p.third_col() == (GF4.mul(gamma, fa), GF4.mul(gamma, fc))


def test_lambda_space():
    ls0 = LambdaSpace(GF4, 2, ())
    assert [m.third_col() for m in kernel_reference(ls0)] == [(0, 0)]
    assert ls0.coeffs == [1] and ls0.kernel_order == 1
    ls1 = LambdaSpace(GF4, 2, (1,))
    assert len(kernel_reference(ls1)) == ls1.kernel_order == 16
    assert [a for a in range(4) if a in ls1] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="dependent"):
        LambdaSpace(GF4, 2, (1, 1))


def test_lambda_space_rejects_elements_outside_the_field():
    ls = LambdaSpace(GF4, 2, (1,))
    for a in (-1, 4, 5):
        with pytest.raises(ValueError, match="out of range"):
            ls.value(a)
        with pytest.raises(ValueError, match="out of range"):
            a in ls


def test_lambda_span_closed():
    ctx = field_new(4)
    theta = 0x2
    ls = LambdaSpace(ctx, 2, (theta,))
    lam = set(lambda_span_reference(ctx, 2, ls.basis))
    assert {a for a in range(ctx.order) if a in ls} == lam
    sub = subfield_elements(ctx, 2)
    for a in lam:
        for b in lam:
            assert a ^ b in lam
        for s in sub:
            assert ctx.mul(s, a) in lam


# fields GF(2^m) for the differential property, and their subfields GF(2^n)
LAMBDA_FIELDS = {m: field_new(m) for m in (6, 8, 12)}
LAMBDA_REFERENCE_LIMIT = 256  # q^(basis size) combinations enumerated at most


@st.composite
def lambda_bases(draw):
    """(ctx, n, basis): random basis vectors mixed with 0, repeats and
    GF(2^n)-combinations of earlier vectors, so dependent bases occur."""
    m = draw(st.sampled_from(sorted(LAMBDA_FIELDS)))
    ctx = LAMBDA_FIELDS[m]
    n = draw(st.sampled_from([n for n in range(1, 9) if m % n == 0]))
    q = 1 << n
    size = 0
    while q ** (size + 1) <= LAMBDA_REFERENCE_LIMIT:
        size += 1
    basis = []
    for _ in range(draw(st.integers(0, size))):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat", "combination"]))
        if kind == "zero":
            v = 0
        elif kind == "repeat" and basis:
            v = draw(st.sampled_from(basis))
        elif kind == "combination" and basis:
            s = draw(st.sampled_from(subfield_elements(ctx, n)))
            v = ctx.mul(s, draw(st.sampled_from(basis))) ^ draw(st.sampled_from(basis))
        else:
            v = draw(st.integers(0, ctx.order - 1))
        basis.append(v)
    return ctx, n, tuple(basis)


@settings(max_examples=150, deadline=None, database=None)
@given(lambda_bases())
def test_lambda_space_matches_enumerated_span(case):
    ctx, n, basis = case
    span = lambda_span_reference(ctx, n, basis)
    independent = len(span) == (1 << n) ** len(basis)
    try:
        ls = LambdaSpace(ctx, n, basis)
    except ValueError as exc:
        assert "dependent" in str(exc)
        assert not independent
        return
    assert independent
    assert len(ls.coeffs) == len(basis) + 1 and ls.coeffs[-1] == 1
    fx, fy, _ = kernel_invariants(ls)
    assert (fx, fy) == kernel_invariants_reference(ls)
    if ctx.m <= 8:
        assert [a for a in range(ctx.order) if a in ls] == span


def test_default_lambda_bases():
    assert default_lambda_basis(0, 2, GF4) == ()
    assert default_lambda_basis(1, 2, GF4) == (1,)
    # (1, theta, ..., theta^(d-1)) over GF(2^(nd)), theta the least
    # generator of that field; the powers are independent over GF(2^n)
    for n in (2, 3):
        for d in range(9):
            ctx = field_new(n * max(d, 1))
            theta, powers = mult_generator(ctx), [1]
            while len(powers) < d:
                powers.append(ctx.mul(powers[-1], theta))
            basis = default_lambda_basis(d, n, ctx)
            assert basis == tuple(powers[:d])
            assert LambdaSpace(ctx, n, basis).kernel_order == 1 << (2 * n * d)
    # on an ambient field of degree below n*d the powers are dependent
    with pytest.raises(ValueError, match="dependent"):
        LambdaSpace(field_new(4), 2, default_lambda_basis(3, 2, field_new(4)))


def test_kernel_group():
    ls = LambdaSpace(GF4, 2, (1,))
    els = kernel_reference(ls)
    assert len(els) == ls.kernel_order == 16
    ident = Mat3.identity(GF4)
    for m in els:
        assert m * m == ident
        assert ls.kernel_contains(m)
    for m1 in els:
        for m2 in els:
            assert m1 * m2 == m2 * m1
    assert [m.third_col() for m in kernel_group(ls)] == [(1, 0), (0, 1)]
    # the membership test rejects every other block and column
    for a, b, c, d in sl2_elements(2, GF4):
        for col in iproduct(range(4), repeat=2):
            m = Mat3.block(GF4, a, b, c, d, col=col)
            assert ls.kernel_contains(m) == ((a, b, c, d) == (1, 0, 0, 1))
    ls0 = LambdaSpace(GF4, 2, ())
    assert kernel_reference(ls0) == [ident]
    assert kernel_group(ls0) == []
    assert not ls0.kernel_contains(Mat3.translation(GF4, 1, 0))


def test_closure_cap():
    with pytest.raises(ClosureCapError):
        closure(list(sl2_generators(2, GF4)), cap=10)


def test_closure_deterministic_and_sorted_export():
    g1 = closure(list(sl2_generators(2, GF4)))
    g2 = closure(list(sl2_generators(2, GF4)))
    assert [m.key() for m in g1] == [m.key() for m in g2]
    exp = g1.export()
    assert exp == sorted(exp) and len(exp) == 60


def test_full_group_order_960():
    lifts = list(lift_generators("h1", 2, GF4))
    G = closure(lifts + kernel_group(LambdaSpace(GF4, 2, (1,))))
    assert len(G) == 960


def test_verify_splitting_d1():
    ls = LambdaSpace(GF4, 2, (1,))
    N = kernel_group(ls)
    lifts = list(lift_generators("h1", 2, GF4))
    G = closure(lifts + N)
    rep = verify_splitting(ls, lifts)
    assert rep.group_order == len(G) == 960
    assert rep.complement_order == 60
    assert rep.intersection_order == 1
    assert rep.complement_order * rep.kernel_order == rep.group_order
    assert rep.is_split


def test_verify_splitting_d0():
    ls = LambdaSpace(GF4, 2, ())
    lifts = list(lift_generators("h1", 2, GF4))
    G = closure(lifts)
    rep = verify_splitting(ls, lifts)
    assert rep.group_order == rep.complement_order == len(G) == 60
    assert rep.is_split


def test_verify_splitting_corrupted_lift():
    # perturb the R-lift's third column off the cocycle
    ls = LambdaSpace(GF4, 2, (1,))
    N = kernel_group(ls)
    R_l, S_l, T_l = lift_generators("h1", 2, GF4)
    bad = Mat3(GF4, (
        (R_l.rows[0][0], 0, 0),
        (0, R_l.rows[1][1], R_l.rows[1][2]),
        (0, 0, 1),
    ))
    G = closure([R_l, S_l, T_l] + N)
    rep = verify_splitting(ls, [bad, S_l, T_l])
    assert not rep.is_split
    assert rep.intersection_order > 1
    assert rep.group_order == len(G)


def test_verify_splitting_rejects_non_normal_kernel():
    # a block outside SL2(GF(4)) moves the translation (1, 0) off
    # Lambda_1 = GF(4); its entries lie outside GF(4), so the block-shape
    # check refuses it, with no conjugation
    GF16 = field_new(4)
    ls = LambdaSpace(GF16, 2, (1,))
    theta = 0x2
    bad = Mat3.block(GF16, theta, 0, 0, GF16.inv(theta))
    assert not ls.kernel_contains(bad * Mat3.translation(GF16, 1, 0) * bad.inverse())
    lifts = [bad] + list(lift_generators("h1", 2, GF16))[1:]
    with pytest.raises(ValueError, match="does not have order 3"):
        verify_splitting(ls, lifts)


def accepted_lift_sets():
    """(Lambda space, lifts) for the lift sets the split tests accept: the
    default lifts and bases for n = 2..6 at d = 0, 1 and n = 2..4 at d = 2,
    the other bases, the control lifts, and R-lifts diag(e^-k, e^k)."""
    for n in range(2, 7):
        cases = [(field_new(n), (0, 1))] + ([(field_new(2 * n), (2,))] if n <= 4 else [])
        for ctx, ds in cases:
            for d in ds:
                ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
                for variant in ("h1", "h0"):
                    yield ls, list(lift_generators(variant, n, ctx))
                    if d < 2 and n <= 4:
                        for kind in ("R", "P", "S", "T"):
                            yield ls, control_lifts(kind, variant, n, ctx)
    for n, modulus, basis in OTHER_BASES + [(2, 0x43, (0x1B, 0x2))]:
        ls = LambdaSpace(field_new(modulus.bit_length() - 1, modulus), n, basis)
        for variant in ("h1", "h0"):
            yield ls, list(lift_generators(variant, n, ls.ambient))
    for n in (3, 4):
        ctx = field_new(n)
        e, ls = subfield_generator(ctx, n), LambdaSpace(ctx, n, (1,))
        _, S, T = sl2_generators(n, ctx)
        for k in (k for k in range(2, (1 << n) - 1) if gcd(k, (1 << n) - 1) == 1):
            ek = ctx.pow_(e, k)
            yield ls, [Mat3.block(ctx, ctx.inv(ek), 0, 0, ek, col=(1, ek)), S, T]


def test_accepted_lifts_normalize_the_kernel():
    # the conjugation check the split no longer runs, as the reference:
    # every lift it accepts conjugates each generating translation of N
    # into N, so it normalizes N
    for ls, lifts in accepted_lift_sets():
        verify_splitting(ls, lifts)
        N = kernel_group(ls)
        for g in lifts:
            gi = g.inverse()
            assert all(ls.kernel_contains(g * t * gi) for t in N)
    # and every diag(s^-1, s) R-lift that fails to normalize N is refused:
    # over GF(64) with Lambda_1 = GF(4) + GF(4) 0x2, only s in GF(4)*
    # normalizes N, and the split accepts only its two elements of order 3
    ctx = field_new(6)
    ls = LambdaSpace(ctx, 2, (1, 0x2))
    span = lambda_span_reference(ctx, 2, ls.basis)
    _, S, T = sl2_generators(2, ctx)
    accepted = []
    for s in range(1, ctx.order):
        try:
            verify_splitting(ls, [Mat3.block(ctx, ctx.inv(s), 0, 0, s), S, T])
        except ValueError:
            continue
        accepted.append(s)
    normalizing = [s for s in range(1, ctx.order) if all(ctx.mul(s, a) in span for a in span)]
    assert len(normalizing) == 3  # GF(4)*, since 0x2 generates GF(64) over GF(4)
    assert accepted == [s for s in normalizing if s != 1]


def dropped_pairs(lifts, n):
    """(x_i x_j)^2 for 0 < i < j < n on the lifts, x_i = r^-i s r^i: the
    pair relators that `sl2_relators` leaves out."""
    r, s = lifts[:2]
    ri, xs = r.inverse(), [s]
    for _ in range(n - 1):
        xs.append(ri * xs[-1] * r)
    pairs = (xs[i] * xs[j] for j in range(n) for i in range(1, j))
    return [p * p for p in pairs]


@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize("n", range(2, 11))
def test_split_holds_the_dropped_pairs(n, variant):
    # each dropped (x_i x_j)^2 is a translation already in W: appended as
    # further lifts, it leaves the report as it is.  The values move only
    # with the second entry of the S-lift's column, so an S-lift with
    # column (0, 1) gives them something to hold
    ctx = field_new(n)
    R, S, T = lift_generators(variant, n, ctx)
    lift_sets = [[R, S, T], control_lifts("R", variant, n, ctx)]
    lift_sets += [[R, Mat3.block(ctx, *S.block2(), col=(0, 1)), T]]
    moved = 0
    for d in (0, 1):
        ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
        for lifts in lift_sets:
            values = dropped_pairs(lifts, n)
            assert len(values) == (n - 1) * (n - 2) // 2
            assert all(v.block2() == (1, 0, 0, 1) for v in values)
            moved += sum(v.third_col() != (0, 0) for v in values)
            rep = verify_splitting(ls, lifts)
            assert verify_splitting(ls, lifts + values) == rep
    assert moved or n == 2


@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize("n, d", [(2, 0), (2, 1), (3, 0), (3, 1), (2, 2)])
def test_verify_splitting_matches_bfs_closure(n, d, variant):
    # the product formula |N| |H| / |N meet H| against the enumerated group
    ctx = field_new(n * (2 if d == 2 else 1))
    ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
    lifts = list(lift_generators(variant, n, ctx))
    G = closure(lifts + kernel_group(ls))
    rep = verify_splitting(ls, lifts)
    assert rep.group_order == len(G)
    assert rep.kernel_order == len(kernel_reference(ls))
    assert sum(1 for m in G if ls.kernel_contains(m)) == rep.kernel_order
    q = 1 << n
    assert rep.complement_order == q * (q * q - 1)
    assert rep.intersection_order == 1
    assert rep.is_split


def test_complement_conjugate_to_cocycle_subgroup():
    # diag(1, 1, 1 + e^-1) carries <R-lift, S-lift, T-lift> onto H_1
    for n, ctx in ((2, GF4), (3, GF8)):
        e = subfield_generator(ctx, n)
        delta = 1 ^ ctx.inv(e)
        lifts = list(lift_generators("h1", n, ctx))
        comp = closure(lifts)
        H1 = h_gamma(1, n, ctx)
        di = ctx.inv(delta)
        conj = set()
        for m in comp:
            rows = m.rows
            conj_m = Mat3(ctx, (
                (rows[0][0], rows[0][1], ctx.mul(rows[0][2], delta)),
                (rows[1][0], rows[1][1], ctx.mul(rows[1][2], delta)),
                (0, 0, 1),
            ))
            # D^-1 M D scales the third column by delta
            conj.add(conj_m.key())
        assert conj == {m.key() for m in H1}
        assert di  # delta invertible for n >= 2


def test_h_gamma_n3_closure_cardinality():
    for gamma in (0, 1):
        H = h_gamma(gamma, 3, GF8)
        assert len(H) == 504


@functools.lru_cache(maxsize=None)
def closure_of(lifts: tuple) -> list:
    return list(closure(list(lifts)))


def split_reference(ls, lifts):
    """`verify_splitting`'s report by BFS: H = <lifts> enumerated by
    `closure`, and |N meet H| counted over its elements."""
    H = closure_of(tuple(lifts))
    inter = sum(1 for m in H if ls.kernel_contains(m))
    N = ls.kernel_order
    return SplitReport(N * len(H) // inter, N, len(H), inter)


def _bmul(mul, x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (
        mul(a, e) ^ mul(b, g), mul(a, f) ^ mul(b, h),
        mul(c, e) ^ mul(d, g), mul(c, f) ^ mul(d, h),
    )


def _binv(ctx, x):
    a, b, c, d = x
    di = ctx.inv(ctx.mul(a, d) ^ ctx.mul(b, c))
    return tuple(ctx.mul(di, v) for v in (d, b, c, a))


class _BlockChain:
    """A group of 2x2 blocks as a two-level Schreier-Sims chain on the
    base (1, 0), (0, 1): `orbit` maps each point p of the orbit of
    (1, 0) to u_p^-1, and `fixer` names the stabilizer of (1, 0) by
    where each element sends (0, 1)."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.gens = []  # (g, g^-1) pairs
        self.orbit = {(1, 0): (1, 0, 0, 1)}
        self.fixer = {(0, 1): (1, 0, 0, 1)}
        self.fixer_gens = []

    def order(self):
        return len(self.orbit) * len(self.fixer)

    def __contains__(self, x):
        ui = self.orbit.get((x[0], x[2]))
        if ui is None:
            return False
        r = _bmul(self.ctx.mul, ui, x)
        return (r[1], r[3]) in self.fixer

    def add(self, x):
        if x in self:
            return
        ctx, mul, orbit = self.ctx, self.ctx.mul, self.orbit
        old = len(orbit)
        pairs = self.gens
        pairs.append((x, _binv(ctx, x)))
        points = list(orbit)
        for i, p in enumerate(points):
            ui = orbit[p]
            u = _binv(ctx, ui)
            for g, gi in pairs if i >= old else pairs[-1:]:
                q = (mul(g[0], p[0]) ^ mul(g[1], p[1]), mul(g[2], p[0]) ^ mul(g[3], p[1]))
                qi = orbit.get(q)
                if qi is None:
                    orbit[q] = _bmul(mul, ui, gi)
                    points.append(q)
                else:
                    self._fix(_bmul(mul, qi, _bmul(mul, g, u)))

    def _fix(self, h):
        mul, fixer = self.ctx.mul, self.fixer
        if (h[1], h[3]) in fixer:
            return
        self.fixer_gens.append(h)
        elements = list(fixer.values())
        for y in elements:
            for g in self.fixer_gens:
                z = _bmul(mul, y, g)
                if (z[1], z[3]) not in fixer:
                    fixer[z[1], z[3]] = z
                    elements.append(z)


def orbit_stabilizer_split(ls, lifts):
    """`verify_splitting`'s report by orbit and stabilizer, the reference
    for the chain up to n = 8: |H| = |orbit of 0 under v -> A v + w|
    |Stab(0)|, Stab(0) generated by the blocks of the Schreier generators
    t_(gp)^-1 g t_p, and W = {w : T_w in H} the orbit points whose
    transversal block lies in Stab(0).  O(q^2) points and blocks."""
    ctx = ls.ambient
    mul = ctx.mul
    gens = [(g.block2(), g.third_col()) for g in lifts]
    blocks = {(0, 0): (1, 0, 0, 1)}  # point p -> block of t_p
    points = [(0, 0)]
    edges = []  # (g p, block of g t_p) off the tree
    for p in points:
        u = blocks[p]
        for A, (w0, w1) in gens:
            q = (mul(A[0], p[0]) ^ mul(A[1], p[1]) ^ w0, mul(A[2], p[0]) ^ mul(A[3], p[1]) ^ w1)
            if q in blocks:
                edges.append((q, _bmul(mul, A, u)))
            else:
                blocks[q] = _bmul(mul, A, u)
                points.append(q)
    stab = _BlockChain(ctx)
    for q, gu in edges:
        stab.add(_bmul(mul, _binv(ctx, blocks[q]), gu))
    order = len(points) * stab.order()
    inter = sum(1 for (a, b), u in blocks.items() if u in stab and a in ls and b in ls)
    N = ls.kernel_order
    return SplitReport(N * order // inter, N, order, inter)


def _base_image(ctx, level, m):
    """Where m's block sends the chain's base point at `level`: the lines
    through (1, 0), (0, 1) and (1, 1), each named by x/y (None for the
    line y = 0), then the vector (1, 0)."""
    (a, b, _), (c, d, _), _ = m.rows
    if level == 3:
        return a, c
    if level == 1:
        a, c = b, d
    elif level == 2:
        a, c = a ^ b, c ^ d
    return ctx.mul(a, ctx.inv(c)) if c else None


class _Chain:
    """H = <lifts>, whose elements [[A, w], [0, 1]] act on the plane by
    v -> A v + w, as a Schreier-Sims chain (Sims 1970; Seress, Permutation
    Group Algorithms, 2003) on the base points of `_base_image`: the
    reference for `verify_splitting`'s presentation on any lifts.  Level i
    keeps the strong generators `gens[i]`, which fix the base points
    above it, and `orbits[i]`, which maps each point p of its base
    point's orbit under them to (u, u^-1) for an element u sending the
    base point to p.  An element fixing the three lines and (1, 0) has
    block I, so below the last level lie the translations
    {T_w in H}, held as `W`: a GF(2) echelon basis of the rows
    w0 + w1 2^m.  So |H| is the product of the orbit lengths times
    2^dim W.  On SL2(q) blocks the orbits have q + 1, q, q - 1 and 1
    points."""

    def __init__(self, ctx, lifts):
        ident = Mat3.identity(ctx)
        self.ctx, self.lifts = ctx, lifts
        self.gens = [[], [], [], []]
        self.orbits = [{_base_image(ctx, i, ident): (ident, ident)} for i in range(4)]
        self.W = {}
        for g in lifts:
            self.include(g, 0)

    def include(self, x, top):
        """Make the chain hold x, an element of H fixing the base points
        above level `top`: sift x down the levels, and where it leaves
        an orbit, add what is left of it as a strong generator to every
        level from `top` to that one."""
        for level in range(top, 4):
            pair = self.orbits[level].get(_base_image(self.ctx, level, x))
            if pair is None:
                break
            x = pair[1] * x
        else:
            self._translate(x.third_col())
            return
        for i in reversed(range(top, level + 1)):
            self.gens[i].append(x)
            self._extend(i, x)

    def _extend(self, level, y):
        """Close the orbit at `level` under its generators, y the new one,
        and include the Schreier generators u_(sp)^-1 s u_p of every new
        pair (p, s) in the level below (Schreier's lemma)."""
        orbit, gens = self.orbits[level], self.gens[level]
        pairs = list(orbit.values())
        old = len(pairs)
        for i, (u, _) in enumerate(pairs):  # grows as the orbit does
            for s in gens if i >= old else (y,):
                x = s * u
                p = _base_image(self.ctx, level, x)
                pair = orbit.get(p)
                if pair is None:
                    orbit[p] = pair = (x, x.inverse())
                    pairs.append(pair)
                else:
                    self.include(pair[1] * x, level + 1)

    def _translate(self, w):
        """Put w into W, and close W under w -> A w for each lift block A.
        g T_w g^-1 = T_(A w) for g = [[A, v], [0, 1]], so that closure
        holds in H, and it stands in for the Schreier generators
        u^-1 T_w u of the translations at every level."""
        ctx, m = self.ctx, self.ctx.m
        mul, mask = ctx.mul, (1 << m) - 1
        todo = [w[0] | w[1] << m]
        while todo:
            v = gf2_insert(self.W, todo.pop())
            if v:
                w0, w1 = v & mask, v >> m
                for g in self.lifts:
                    a, b, c, d = g.block2()
                    todo.append(mul(a, w0) ^ mul(b, w1) | (mul(c, w0) ^ mul(d, w1)) << m)


def chain_split(ls, chain):
    """`verify_splitting`'s report from `chain`, the `_Chain` of the lifts:
    |H| the product of its orbit lengths times 2^dim W, and
    N meet H = W meet Lambda_1^2.  The chain does not depend on
    Lambda_1, so one chain serves every basis over the same field."""
    order = prod(map(len, chain.orbits)) << len(chain.W)
    m = ls.ambient.m
    images = {}
    for v in chain.W.values():
        gf2_insert(images, ls.value(v & (1 << m) - 1) | ls.value(v >> m) << m)
    inter = 1 << (len(chain.W) - len(images))
    N = ls.kernel_order
    return SplitReport(N * order // inter, N, order, inter)


@pytest.mark.parametrize(
    "n, d, variant, kind",
    [(n, d, v, None) for n in (6, 7) for d in (0, 1) for v in ("h1", "h0")]
    + [(4, 1, v, k) for v in ("h1", "h0") for k in ("R", "T", "S")],
)
def test_chain_split_matches_orbit_stabilizer_split(n, d, variant, kind):
    # |H| = 1 044 480 for the n=4 controls, too many to list by BFS
    ctx = field_new(n)
    ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
    lifts = control_lifts(kind, variant, n, ctx) if kind else list(lift_generators(variant, n, ctx))
    assert verify_splitting(ls, lifts) == orbit_stabilizer_split(ls, lifts)


@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize("n, d", [(9, 0), (10, 0), (12, 0), (10, 1)])
def test_chain_split_at_scale(n, d, variant):
    # the presentation's relators, O(n) products, give |SL2(q)| and W = 0
    ctx = field_new(n)
    ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
    lifts = list(lift_generators(variant, n, ctx))
    rep = verify_splitting(ls, lifts)
    q = 1 << n
    assert rep.complement_order == q * (q * q - 1)
    assert rep.intersection_order == 1
    assert rep.group_order == q ** (2 * d) * q * (q * q - 1)


@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_stabilizer_split_matches_bfs_default_bases(n, variant):
    for d in (0, 1, 2) if n < 5 else (0, 1):
        ctx = field_new(n * (2 if d == 2 else 1))
        ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
        lifts = list(lift_generators(variant, n, ctx))
        rep = verify_splitting(ls, lifts)
        assert rep == split_reference(ls, lifts)
        assert rep.is_split


# the other Lambda bases the tests use, as (n, ambient modulus, basis)
OTHER_BASES = [(2, 0x13, (0x2,)), (3, 0x43, (0x2,)), (2, 0x43, (1, 0x2))]


@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize("n, modulus, basis", OTHER_BASES)
def test_orbit_stabilizer_split_matches_bfs_other_bases(n, modulus, basis, variant):
    ls = LambdaSpace(field_new(modulus.bit_length() - 1, modulus), n, basis)
    lifts = list(lift_generators(variant, n, ls.ambient))
    assert verify_splitting(ls, lifts) == split_reference(ls, lifts)


def control_lifts(kind, variant, n, ctx):
    """The lifts with one change that makes H meet the translations: R's
    third column set to (0, 1) ("R") or moved by (0x2, 0) ("P"), the
    translation T_(1,0) added ("T"), or S's third column set to (1, 0)
    ("S")."""
    R, S, T = lift_generators(variant, n, ctx)
    if kind in ("R", "P"):
        w0, w1 = R.third_col()
        col = (0, 1) if kind == "R" else (w0 ^ 0x2, w1)
        return [Mat3.block(ctx, *R.block2(), col=col), S, T]
    if kind == "T":
        return [R, S, T, Mat3.translation(ctx, 1, 0)]
    return [R, Mat3.block(ctx, *S.block2(), col=(1, 0)), T]


@pytest.mark.parametrize(
    "n, variant, d, kind",
    [
        pytest.param(2, "h1", 1, "R", id="h1-1"),
        pytest.param(2, "h1", 0, "R", id="h1-0"),
        pytest.param(2, "h0", 1, "R", id="h0-1"),
    ]
    + [(n, v, 1, k) for n in (2, 3) for v in ("h1", "h0") for k in ("T", "S")],
)
def test_orbit_stabilizer_split_matches_bfs_corrupted_lift(n, variant, d, kind):
    # H meets the translations, found through the translations W of the
    # relator values and the further lifts, closed under the blocks
    ctx = GF4 if n == 2 else GF8
    ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
    lifts = control_lifts(kind, variant, n, ctx)
    rep = verify_splitting(ls, lifts)
    assert rep == split_reference(ls, lifts)
    q = 1 << n
    assert rep.complement_order > q * (q * q - 1)
    assert rep.is_split == (d == 0)


@pytest.mark.parametrize("n, variant", [(2, "h1"), (2, "h0"), (3, "h1"), (3, "h0")])
def test_orbit_stabilizer_split_cap_is_exact(n, variant):
    # the CLI's one cap comparison reads |H| as q(q^2 - 1): the split's
    # |H| = |SL2(q)| 2^dim W is the closure order, and that is |SL2(q)|
    ls = LambdaSpace(GF4 if n == 2 else GF8, n, ())
    lifts = list(lift_generators(variant, n, ls.ambient))
    order = len(closure_of(tuple(lifts)))
    assert verify_splitting(ls, lifts).complement_order == order
    q = 1 << n
    assert order == q * (q * q - 1)


# -- the presentation of SL2(q) against the chain ------------------------------


@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize("n", range(2, 13))
def test_split_matches_chain_default_bases(n, variant):
    # d = 0, 1 over GF(2^n), and d = 2 over GF(2^2n) while n <= 4
    cases = [(field_new(n), (0, 1))] + ([(field_new(2 * n), (2,))] if n <= 4 else [])
    for ctx, ds in cases:
        lifts = list(lift_generators(variant, n, ctx))
        chain = _Chain(ctx, lifts)
        for d in ds:
            ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
            rep = verify_splitting(ls, lifts)
            assert rep == chain_split(ls, chain)


@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize("n, modulus, basis", OTHER_BASES + [(2, 0x43, (0x1B, 0x2))])
def test_split_matches_chain_other_bases(n, modulus, basis, variant):
    ls = LambdaSpace(field_new(modulus.bit_length() - 1, modulus), n, basis)
    lifts = list(lift_generators(variant, n, ls.ambient))
    rep = verify_splitting(ls, lifts)
    assert rep == chain_split(ls, _Chain(ls.ambient, lifts))


@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize("kind", ["R", "P", "S", "T"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_split_matches_chain_control_lifts(n, kind, variant):
    # a wrong presentation would understate W and claim a split that does
    # not hold; these lifts make H meet the translations
    ctx = field_new(n)
    lifts = control_lifts(kind, variant, n, ctx)
    chain = _Chain(ctx, lifts)
    assert chain.W
    for d in (0, 1):
        ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
        assert verify_splitting(ls, lifts) == chain_split(ls, chain)


def test_split_matches_chain_on_every_column_over_gf4():
    # all 4 096 choices of the third columns of R, S and T over GF(4)
    ls0, ls1 = LambdaSpace(GF4, 2, ()), LambdaSpace(GF4, 2, (1,))
    blocks = [g.block2() for g in sl2_generators(2, GF4)]
    pairs = list(iproduct(range(4), repeat=2))
    for cols in iproduct(pairs, repeat=3):
        lifts = [Mat3.block(GF4, *b, col=c) for b, c in zip(blocks, cols)]
        chain = _Chain(GF4, lifts)
        for ls in (ls0, ls1):
            assert verify_splitting(ls, lifts) == chain_split(ls, chain)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_split_takes_any_generator_for_e(n):
    # the proof uses only the order of e: R = diag(e^-k, e^k) for k prime
    # to q - 1 gives the chain's report too, with or without a translation
    ctx = field_new(n)
    q = 1 << n
    e = subfield_generator(ctx, n)
    ls = LambdaSpace(ctx, n, (1,))
    _, S, T = sl2_generators(n, ctx)
    for k in range(2, q - 1):
        if gcd(k, q - 1) == 1:
            ek = ctx.pow_(e, k)
            for col in ((0, 0), (1, ek), (0, 1)):
                lifts = [Mat3.block(ctx, ctx.inv(ek), 0, 0, ek, col=col), S, T]
                rep = verify_splitting(ls, lifts)
                assert rep == chain_split(ls, _Chain(ctx, lifts))


def refused_lifts(ctx, n):
    R, S, T = lift_generators("h1", n, ctx)
    e = R.rows[1][1]
    e3 = ctx.pow_(e, 3)
    return {
        "S-block": ([R, Mat3.block(ctx, 1, e, 0, 1), T], "do not begin"),
        "T-block": ([R, S, Mat3.block(ctx, 1, 0, e, 1)], "do not begin"),
        "det-e": ([Mat3.block(ctx, 1, 0, 0, e), S, T], "do not begin"),
        "order-5": ([Mat3.block(ctx, ctx.inv(e3), 0, 0, e3), S, T], "order 15"),
        "off-GF(4)": ([Mat3.block(ctx, ctx.inv(0x2), 0, 0, 0x2), S, T], "order 3"),
        "two-lifts": ([R, S], "do not begin"),
        "no-lifts": ([], "do not begin"),
        "out-of-order": ([S, R, T], "do not begin"),
        "fourth-not-translation": ([R, S, T, R], "not a translation"),
    }


@pytest.mark.parametrize("case", list(refused_lifts(field_new(4), 4)))
def test_verify_splitting_refuses_lifts_off_the_presentation(case):
    # "off-GF(4)" reads e = 0x2 of GF(16) as a lift for n = 2
    ctx = field_new(4)
    lifts, message = refused_lifts(ctx, 4)[case]
    n = 2 if case == "off-GF(4)" else 4
    with pytest.raises(ValueError, match=message):
        verify_splitting(LambdaSpace(ctx, n, ()), lifts)


def test_verify_splitting_refuses_a_relator_off_the_blocks(monkeypatch):
    # a wrong polynomial, X^n, leaves the last relator x_n = [[1, e^2n], [0, 1]]
    ctx = field_new(4)
    monkeypatch.setattr(grouplift, "minimal_polynomial", lambda ctx, a, n: [0] * n + [1])
    with pytest.raises(ValueError, match="not I"):
        verify_splitting(LambdaSpace(ctx, 4, ()), list(lift_generators("h1", 4, ctx)))


def sl2_minimal_polynomial(n):
    ctx = field_new(n)
    e = subfield_generator(ctx, n)
    return ctx, minimal_polynomial(ctx, ctx.mul(e, e), n)


@pytest.mark.parametrize("n", range(2, 17))
def test_sl2_relators_hold_on_the_blocks(n):
    ctx, minpoly = sl2_minimal_polynomial(n)
    assert minpoly[n] == 1 and set(minpoly) <= {0, 1}
    assert modulus_is_irreducible(sum(c << i for i, c in enumerate(minpoly)), n)
    values = sl2_relators(*sl2_generators(n, ctx), minpoly)
    assert len(values) == 5 + n
    assert all(v == Mat3.identity(ctx) for v in values)
    # negative control: a wrong polynomial breaks the last relator alone
    wrong = [minpoly[0] ^ 1] + minpoly[1:]
    assert sl2_relators(*sl2_generators(n, ctx), wrong)[-1] != Mat3.identity(ctx)


@pytest.mark.parametrize(
    "n, over_r",
    [(2, True), (3, True), (4, True), pytest.param(5, True, marks=pytest.mark.slow), (2, False)],
)
def test_sl2_presentation_by_coset_enumeration(n, over_r):
    # Todd-Coxeter (Holt, Eick and O'Brien, Handbook of Computational Group
    # Theory, 2005, ch. 5): <r> has index q(q + 1) in the presented group,
    # and r^(q-1) = 1, so it has at most q(q + 1)(q - 1) elements; the
    # relators hold on the blocks, so it maps onto SL2(q) and is SL2(q).
    # At n=2 the cosets of 1 count the group itself, r^(q-1) included
    pytest.importorskip("sympy")
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    _, minpoly = sl2_minimal_polynomial(n)
    F, r, s, t = free_group("r s t")
    table = FpGroup(F, sl2_relators(r, s, t, minpoly)).coset_enumeration([r] if over_r else [])
    table.compress()
    q = 1 << n
    assert len(table.table) == q * (q + 1) * (1 if over_r else q - 1)


@pytest.mark.parametrize("n", [2, pytest.param(3, marks=pytest.mark.slow)])
def test_sl2_presentation_needs_each_relator(n):
    # Todd-Coxeter over the trivial subgroup, bounded at 8 |SL2(q)| cosets:
    # the full presentation counts SL2(q) itself, and leaving out any one
    # of these five relators overflows the bound or, for r^(q-1), doubles
    # the count, a loss that the enumeration over <r> cannot see.  s^2
    # alone, and the n - 1 pairs (x_0 x_k)^2 taken together, are redundant
    # at n = 2 and 3; nothing shows that for every n, so they are not pinned
    pytest.importorskip("sympy")
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    _, minpoly = sl2_minimal_polynomial(n)
    F, r, s, t = free_group("r s t")
    rels = sl2_relators(r, s, t, minpoly)
    q = 1 << n
    order = q * (q * q - 1)

    def count(kept):
        try:
            table = FpGroup(F, kept).coset_enumeration([], max_cosets=8 * order)
        except ValueError as exc:
            assert "defined more than" in str(exc)
            return "overflow"
        return len(table.table)

    assert count(rels) == order
    # by index in `sl2_relators`; the minimal-polynomial relator is last
    index = {"t^2": 1, "r^(q-1)": 2, "(s t s r)^2": 3, "(t s)^3": 4}
    index["minimal polynomial"] = len(rels) - 1
    counts = {name: count(rels[:i] + rels[i + 1 :]) for name, i in index.items()}
    assert counts == {
        "t^2": "overflow",
        "r^(q-1)": 2 * order,
        "(s t s r)^2": "overflow",
        "(t s)^3": "overflow",
        "minimal polynomial": "overflow",
    }
