import random

import pytest

from refl2.ffield import Fel, field_new, subfield_elements, subfield_generator
from refl2.grouplift import (
    ClosureCapError,
    LambdaSpace,
    Mat3,
    closure,
    cocycle_f,
    cocycle_g,
    default_lambda_basis,
    h_gamma,
    kernel_group,
    lambda_enumerate,
    lift_generators,
    sl2_elements,
    sl2_generators,
    verify_splitting,
)

GF2 = field_new(1)
GF4 = field_new(2)
GF8 = field_new(3)


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
    z, o = GF4.zero, GF4.one
    assert cocycle_f(z, z, 2) == o
    assert cocycle_f(o, o, 2) == z
    e = subfield_generator(GF4, 2)
    ei = e.inv()
    assert cocycle_f(ei, z, 2) == o + ei


def test_cocycle_g_values():
    z, o = GF4.zero, GF4.one
    assert cocycle_g(z, z, 2) == z
    assert cocycle_g(o, o, 2) == o
    t = GF4.fel(0x2)
    assert cocycle_g(t * o, t * o, 2) == t * cocycle_g(o, o, 2)


def test_cocycle_rejects_outside_subfield():
    ctx = field_new(4)
    theta = ctx.fel(0x2)  # generator of GF(16), not in GF(4)
    with pytest.raises(ValueError):
        cocycle_f(theta, ctx.one, 2)


def cocycle_identity_counts(n, ctx):
    """Exhaustive check of the twisted-additivity law; returns instances."""
    sub = [s.bits for s in subfield_elements(ctx, n)]
    mul = ctx.mul
    count = 0
    for a, b, c, d in sl2_elements(n, ctx):
        fab = cocycle_f(Fel(a, ctx), Fel(b, ctx), n).bits
        fcd = cocycle_f(Fel(c, ctx), Fel(d, ctx), n).bits
        for p in sub:
            for q in sub:
                lhs = mul(p, fab) ^ mul(q, fcd)
                u, v = mul(p, a) ^ mul(q, c), mul(p, b) ^ mul(q, d)
                fuv = cocycle_f(Fel(u, ctx), Fel(v, ctx), n).bits
                guv = fuv ^ 1
                fpq = cocycle_f(Fel(p, ctx), Fel(q, ctx), n).bits
                assert lhs ^ fpq == fuv
                assert lhs ^ (fpq ^ 1) == guv
                count += 1
    return count


def test_cocycle_identity_exhaustive():
    assert cocycle_identity_counts(1, GF2) == 24
    assert cocycle_identity_counts(2, GF4) == 960


def test_g_homogeneity_exhaustive():
    for n, ctx in ((1, GF2), (2, GF4), (3, GF8)):
        sub = [s.bits for s in subfield_elements(ctx, n)]
        for t in sub:
            for a in sub:
                for b in sub:
                    lhs = cocycle_g(Fel(ctx.mul(t, a), ctx), Fel(ctx.mul(t, b), ctx), n)
                    rhs = ctx.mul(t, cocycle_g(Fel(a, ctx), Fel(b, ctx), n).bits)
                    assert lhs.bits == rhs


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
    e = subfield_generator(GF4, 2).bits
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


def test_h_gamma_block_diagonal_when_zero():
    H0 = h_gamma(GF4.zero, 2, GF4)
    assert len(H0) == 60
    assert all(m.is_block_diagonal() for m in H0)


def test_h_gamma_one_contains_transvection_lifts():
    H1 = h_gamma(GF4.one, 2, GF4)
    assert len(H1) == 60
    _, S_l, T_l = lift_generators("h1", 2, GF4)
    assert S_l in H1 and T_l in H1


def test_h_gamma_random_gamma_product_columns():
    rng = random.Random(5)
    gamma = GF4.fel(0x3)
    H = h_gamma(gamma, 2, GF4)
    els = H.sorted_elements()
    for _ in range(50):
        m1, m2 = rng.choice(els), rng.choice(els)
        p = m1 * m2
        a, b, c, d = p.block2()
        fa = cocycle_f(Fel(a, GF4), Fel(b, GF4), 2).bits
        fc = cocycle_f(Fel(c, GF4), Fel(d, GF4), 2).bits
        assert p.third_col() == (GF4.mul(gamma.bits, fa), GF4.mul(gamma.bits, fc))


def test_lambda_space():
    ls0 = LambdaSpace(GF4, 2, ())
    assert lambda_enumerate(ls0) == [(GF4.zero, GF4.zero)]
    ls1 = LambdaSpace(GF4, 2, (1,))
    assert len(lambda_enumerate(ls1)) == 16
    with pytest.raises(ValueError):
        LambdaSpace(GF4, 2, (1, 1))


def test_lambda_span_closed():
    ctx = field_new(4)
    theta = 0x2
    ls = LambdaSpace(ctx, 2, (theta,))
    lam = set(ls.lambda1())
    sub = [s.bits for s in subfield_elements(ctx, 2)]
    for a in lam:
        for b in lam:
            assert a ^ b in lam
        for s in sub:
            assert ctx.mul(s, a) in lam


def test_default_lambda_bases():
    assert default_lambda_basis(0, 2, GF4) == ()
    assert default_lambda_basis(1, 2, GF4) == (1,)
    ctx = field_new(4)
    b = default_lambda_basis(2, 2, ctx)
    assert b[0] == 1
    LambdaSpace(ctx, 2, b)  # independent over GF(4)


def test_kernel_group():
    ls = LambdaSpace(GF4, 2, (1,))
    N = kernel_group(ls)
    assert len(N) == 16
    ident = Mat3.identity(GF4)
    els = N.sorted_elements()
    for m in els:
        assert m * m == ident
    for m1 in els:
        for m2 in els:
            assert m1 * m2 == m2 * m1
    ls0 = LambdaSpace(GF4, 2, ())
    assert len(kernel_group(ls0)) == 1
    assert kernel_group(ls0).generators == []


def test_kernel_group_cap_checked_before_enumeration(monkeypatch):
    ls = LambdaSpace(GF4, 2, (1,))
    assert len(kernel_group(ls, cap=16)) == 16

    def unbuilt(*args):
        raise AssertionError("an element of N was built")

    monkeypatch.setattr(Mat3, "translation", unbuilt)
    with pytest.raises(ClosureCapError):
        kernel_group(ls, cap=15)


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
    N = kernel_group(LambdaSpace(GF4, 2, (1,)))
    G = closure(lifts + N.generators)
    assert len(G) == 960


def test_verify_splitting_d1():
    ls = LambdaSpace(GF4, 2, (1,))
    N = kernel_group(ls)
    lifts = list(lift_generators("h1", 2, GF4))
    G = closure(lifts + N.generators)
    rep = verify_splitting(N, lifts)
    assert rep.group_order == len(G) == 960
    assert rep.complement_order == 60
    assert rep.intersection_order == 1
    assert rep.complement_order * rep.kernel_order == rep.group_order
    assert rep.is_split


def test_verify_splitting_d0():
    ls = LambdaSpace(GF4, 2, ())
    N = kernel_group(ls)
    lifts = list(lift_generators("h1", 2, GF4))
    G = closure(lifts)
    rep = verify_splitting(N, lifts)
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
    G = closure([R_l, S_l, T_l] + N.generators)
    rep = verify_splitting(N, [bad, S_l, T_l])
    assert not rep.is_split
    assert rep.intersection_order > 1
    assert rep.group_order == len(G)


def test_verify_splitting_rejects_non_normal_kernel():
    # a block outside SL2(GF(4)) moves the translation (1, 0) off Lambda_1 = GF(4)
    GF16 = field_new(4)
    N = kernel_group(LambdaSpace(GF16, 2, (1,)))
    theta = 0x2
    bad = Mat3.block(GF16, theta, 0, 0, GF16.inv(theta))
    with pytest.raises(ValueError, match="not normal"):
        verify_splitting(N, [bad] + list(lift_generators("h1", 2, GF16))[1:])


@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize("n, d", [(2, 0), (2, 1), (3, 0), (3, 1), (2, 2)])
def test_verify_splitting_matches_bfs_closure(n, d, variant):
    # the product formula |N| |H| / |N meet H| against the enumerated group
    ctx = field_new(n * (2 if d == 2 else 1))
    N = kernel_group(LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx)))
    lifts = list(lift_generators(variant, n, ctx))
    G = closure(lifts + N.generators)
    rep = verify_splitting(N, lifts)
    assert rep.group_order == len(G)
    assert rep.kernel_order == len(N)
    q = 1 << n
    assert rep.complement_order == q * (q * q - 1)
    assert rep.intersection_order == 1
    assert rep.is_split


def test_complement_conjugate_to_cocycle_subgroup():
    # diag(1, 1, 1 + e^-1) carries <R-lift, S-lift, T-lift> onto H_1
    for n, ctx in ((2, GF4), (3, GF8)):
        e = subfield_generator(ctx, n).bits
        delta = 1 ^ ctx.inv(e)
        lifts = list(lift_generators("h1", n, ctx))
        comp = closure(lifts)
        H1 = h_gamma(ctx.one, n, ctx)
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
    for gamma in (GF8.zero, GF8.one):
        H = h_gamma(gamma, 3, GF8)
        assert len(H) == 504
