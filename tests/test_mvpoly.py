import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refl2.ffield import field_new
from refl2.grouplift import (
    LambdaSpace,
    Mat3,
    closure,
    default_lambda_basis,
    kernel_group,
    lift_generators,
    sl2_generators,
)
from refl2.mvpoly import MultiPoly, jacobian_det

GF2 = field_new(1)
GF4 = field_new(2)
GF16 = field_new(4)
# GF(2^18): a product of two elements folds its high part back in twice
GF2_18 = field_new(18, 0x40009)


def mul_reference(p, q):
    """Reference for `MultiPoly.__mul__`: every pair of terms, with
    exponent triples as tuples and coefficients through ctx.mul."""
    ctx = p.ctx
    items = []
    for (a, b, c), u in p._terms.items():
        for (d, e, f), v in q._terms.items():
            items.append(((a + d, b + e, c + f), ctx.mul(u, v)))
    return MultiPoly.from_terms(ctx, items)


def power_reference(p, k):
    """p^k by square and multiply over `mul_reference`."""
    out, base = MultiPoly.one(p.ctx), p
    while k:
        if k & 1:
            out = mul_reference(out, base)
        k >>= 1
        if k:
            base = mul_reference(base, base)
    return out


def substitute_reference(p, g):
    """Reference for `MultiPoly.act`: expand every monomial as a product
    of powers of the linear forms given by the rows of g."""
    ctx = p.ctx
    forms = [MultiPoly.linear_form(ctx, *row) for row in g.rows]
    out = MultiPoly.zero(ctx)
    for exps, v in p._terms.items():
        t = MultiPoly.constant(ctx, v)
        for form, e in zip(forms, exps):
            if e:
                t = mul_reference(t, power_reference(form, e))
        out = out + t
    return out


def X(ctx=GF4):
    return MultiPoly.variable(ctx, 0)


def Y(ctx=GF4):
    return MultiPoly.variable(ctx, 1)


def Z(ctx=GF4):
    return MultiPoly.variable(ctx, 2)


def rand_poly(ctx, rng, nterms=6, maxdeg=5):
    items = []
    for _ in range(nterms):
        e = tuple(rng.randrange(maxdeg) for _ in range(3))
        items.append((e, rng.randrange(ctx.order)))
    return MultiPoly.from_terms(ctx, items)


def rand_mat(ctx, rng):
    while True:
        a, b, c, d = (rng.randrange(ctx.order) for _ in range(4))
        if ctx.mul(a, d) ^ ctx.mul(b, c):
            al, be = rng.randrange(ctx.order), rng.randrange(ctx.order)
            return Mat3(ctx, ((a, b, al), (c, d, be), (0, 0, 1)))


def test_constructors_and_zero_pruning():
    p = MultiPoly.from_terms(GF4, [((1, 0, 0), 1), ((1, 0, 0), 1)])
    assert p.is_zero() and len(p) == 0
    q = MultiPoly.from_terms(GF4, [((2, 0, 0), 0x2), ((0, 1, 0), 0)])
    assert len(q) == 1 and q.coeff((2, 0, 0)) == 0x2
    assert type(q.coeff((2, 0, 0))) is int and q.coeff((1, 0, 0)) == 0


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: MultiPoly.constant(GF4, 5), "out of range"),
        (lambda: MultiPoly.linear_form(GF4, 0x9, 0, 0), "out of range"),
        (lambda: MultiPoly.from_terms(GF4, [((1, 0, 0), -1)]), "out of range"),
        (lambda: X(GF4).scale(7), "out of range"),
        (
            lambda: MultiPoly.from_terms(GF4, [((-1, 0, 0), 1), ((0, 1, 0), 1)]),
            "non-negative",
        ),
        (lambda: MultiPoly.from_terms(GF4, [((2.5, 0, 0), 1)]), "non-negative"),
        (lambda: MultiPoly.from_terms(GF4, [((1, 0), 1)]), "non-negative"),
        (lambda: MultiPoly.from_terms(GF4, [((1, 0, 0, 0), 1)]), "non-negative"),
    ],
    ids=[
        "constant",
        "linear_form",
        "from_terms",
        "scale",
        "negative-exponent",
        "float-exponent",
        "pair-exponent",
        "quadruple-exponent",
    ],
)
def test_coefficients_outside_the_field_rejected(build, match):
    # GF(4) holds 0..3; 5, 0x9, -1 and 7 are not elements of it.  An
    # exponent must be a triple of non-negative ints: a negative one, a
    # float or a pair would print as garbage or fail only when printed
    with pytest.raises(ValueError, match=match):
        build()


def test_mul_frobenius_square():
    p = X() + Y()
    assert p * p == MultiPoly.from_terms(GF4, [((2, 0, 0), 1), ((0, 2, 0), 1)])


def test_mul_expansion():
    lhs = (X() + Z()) * (Y() + Z())
    rhs = MultiPoly.from_terms(
        GF4, [((1, 1, 0), 1), ((1, 0, 1), 1), ((0, 1, 1), 1), ((0, 0, 2), 1)]
    )
    assert lhs == rhs


def test_mul_by_zero():
    p = rand_poly(GF4, random.Random(0))
    assert (p * MultiPoly.zero(GF4)).is_zero()


def test_mul_evaluation_oracle():
    # eval is a ring homomorphism: check products against pointwise products
    rng = random.Random(5)
    ctx = GF16
    for _ in range(50):
        p, q = rand_poly(ctx, rng), rand_poly(ctx, rng)
        pq = p * q
        for _ in range(4):
            v = tuple(rng.randrange(ctx.order) for _ in range(3))
            assert pq.eval(*v) == ctx.mul(p.eval(*v), q.eval(*v))


def test_deg_additive():
    rng = random.Random(9)
    for _ in range(30):
        p, q = rand_poly(GF4, rng), rand_poly(GF4, rng)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).deg() == p.deg() + q.deg()


def test_pow_matches_repeated_mul():
    rng = random.Random(13)
    for _ in range(10):
        p = rand_poly(GF4, rng, nterms=4, maxdeg=3)
        acc = MultiPoly.one(GF4)
        for k in range(5):
            assert p**k == acc
            acc = acc * p


def test_partials():
    assert (X() ** 2).partial(0).is_zero()
    assert (X() * Y()).partial(0) == Y()
    assert (X() ** 3).partial(0) == X() ** 2


def test_act_examples():
    S_l = Mat3.block(GF4, 1, 1, 0, 1)
    assert X().act(S_l) == X() + Y()
    assert (X() ** 2).act(S_l) == X() ** 2 + Y() ** 2
    rng = random.Random(3)
    for _ in range(20):
        g = rand_mat(GF4, rng)
        assert Z().act(g) == Z()


def test_act_point_evaluation_oracle():
    # act(p, g)(v) = p(g v): the definitive check of the substitution convention
    rng = random.Random(21)
    ctx = GF16
    mulv = ctx.mul
    for _ in range(30):
        p = rand_poly(ctx, rng)
        g = rand_mat(ctx, rng)
        pv = p.act(g)
        for _ in range(4):
            vx, vy, vz = (rng.randrange(ctx.order) for _ in range(3))
            r = g.rows
            gx = mulv(r[0][0], vx) ^ mulv(r[0][1], vy) ^ mulv(r[0][2], vz)
            gy = mulv(r[1][0], vx) ^ mulv(r[1][1], vy) ^ mulv(r[1][2], vz)
            assert pv.eval(vx, vy, vz) == p.eval(gx, gy, vz)


def test_act_identity_and_composition():
    rng = random.Random(17)
    ctx = GF4
    ident = Mat3.identity(ctx)
    for _ in range(100):
        p = rand_poly(ctx, rng)
        g, h = rand_mat(ctx, rng), rand_mat(ctx, rng)
        assert p.act(ident) == p
        assert p.act(g * h) == p.act(g).act(h)


def test_act_is_ring_homomorphism():
    rng = random.Random(29)
    gens = sl2_generators(2, GF4)
    group = closure(list(gens))
    for g in group.generators:
        for _ in range(10):
            p, q = rand_poly(GF4, rng), rand_poly(GF4, rng)
            assert (p * q).act(g) == p.act(g) * q.act(g)
            assert (p + q).act(g) == p.act(g) + q.act(g)


def test_jacobian_identity_map():
    assert jacobian_det(X(), Y(), Z()) == MultiPoly.one(GF4)


def test_jacobian_two_variable_example():
    c0 = X() ** 2 * Y() + X() * Y() ** 2
    c1 = X() ** 2 + X() * Y() + Y() ** 2
    assert jacobian_det(c0, c1, Z()) == c0


def test_jacobian_alternating():
    rng = random.Random(31)
    for _ in range(20):
        p1, p2, p3 = (rand_poly(GF4, rng, nterms=4, maxdeg=4) for _ in range(3))
        j = jacobian_det(p1, p2, p3)
        assert jacobian_det(p2, p1, p3) == j  # swap == negate == identity in char 2
        assert jacobian_det(p1, p1, p3).is_zero()


def test_div_exact_examples():
    x, y, z = X(), Y(), Z()
    one = MultiPoly.one(GF4)
    u = x**4 * y + x * y**4
    assert (u * (x + z)).div_exact(u) == x + z
    assert (u * u).div_exact(u) == u
    assert u.div_exact(u) == one
    assert u.div_exact(one) == u
    assert u.scale(2).div_exact(MultiPoly.constant(GF4, 3)) == u.scale(GF4.mul(2, GF4.inv(3)))
    assert MultiPoly.zero(GF4).div_exact(u).is_zero()
    # the quotient's terms arrive in descending order over many chains
    p = (x + y + z) ** 5 + x * z**3 + y**2 * z
    assert (p * u).div_exact(p) == u


def test_div_exact_rejects_a_non_multiple():
    x, y, z = X(), Y(), Z()
    # two quotient terms x and y eliminate x^2 and xy before z^2 stays over
    p = (x + y) * (x + z) + z**2
    one = MultiPoly.one(GF4)
    for num, den in ((p, x + z), (x, y), (x, x * y), (x * y + one, x), (p * (x + y) + z**3, p)):
        with pytest.raises(ValueError, match="remainder"):
            num.div_exact(den)


def test_div_exact_by_zero():
    with pytest.raises(ZeroDivisionError):
        X().div_exact(MultiPoly.zero(GF4))
    with pytest.raises(ZeroDivisionError):
        MultiPoly.zero(GF4).div_exact(MultiPoly.zero(GF4))


def test_div_exact_rejects_mixed_contexts():
    with pytest.raises(ValueError, match="mismatched"):
        X(GF4).div_exact(X(GF16))


def test_jacobian_skips_terms_with_a_zero_partial(monkeypatch):
    # z's partials are (0, 0, 1): 4 of the 6 terms vanish, and the other
    # two cost two products each
    u = X() ** 4 * Y() + X() * Y() ** 4 + Z() ** 5
    c1 = X() ** 3 * Z() + Y() ** 12 + X() * Y() * Z() ** 2
    rows = [[p.partial(j) for j in range(3)] for p in (u, c1, Z())]
    full = MultiPoly.zero(GF4)
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        full = full + rows[0][i] * rows[1][j] * rows[2][k]
    calls = []
    mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert jacobian_det(u, c1, Z()) == full
    assert len(calls) == 4


def test_kernels_without_field_tables():
    ctx = GF2_18
    rng = random.Random(43)
    for _ in range(10):
        p, q = rand_poly(ctx, rng), rand_poly(ctx, rng)
        c = rng.randrange(2, ctx.order)
        # the second matrix swaps x and y and scales: steps with t = 0
        swap = Mat3(ctx, ((0, c, 0), (1, 0, 0), (0, 0, 1)))
        assert p * q == mul_reference(p, q)
        for g in (rand_mat(ctx, rng), swap):
            assert p.act(g) == substitute_reference(p, g)
        assert p.frobenius() == mul_reference(p, p)
        assert p.scale(c) == mul_reference(p, MultiPoly.constant(ctx, c))
        if q:
            assert mul_reference(p, q).div_exact(q) == p
    x, y = X(ctx), Y(ctx)
    with pytest.raises(ValueError, match="remainder"):
        (x * x + y).div_exact(x)


def test_deg_is_memoized():
    p = X() ** 3 * Y() + Z()
    assert p.deg() == 4 and p._deg == 4
    assert MultiPoly.zero(GF4).deg() == -1


def test_restrict_z0():
    p = X() * Z() + Y() ** 2 + Z() ** 3
    assert p.restrict_z0() == Y() ** 2


def test_eval_rejects_points_outside_the_field():
    # a coordinate that is no element of GF(4) is named, not reduced or
    # looked up out of range
    assert X().eval(3, 0, 0) == 3
    for point in ((-1, 0, 0), (5, 0, 0), (0, 4, 0), (0, 0, 1 << 9)):
        with pytest.raises(ValueError, match="out of range"):
            X().eval(*point)


def test_text_format():
    assert str(MultiPoly.zero(GF4)) == "0x0"
    assert str(MultiPoly.one(GF4)) == "0x1"
    c0 = X() ** 2 * Y() + X() * Y() ** 2
    assert str(c0) == "x^2*y + x*y^2"
    p = MultiPoly.from_terms(GF4, [((2, 1, 0), 0x2), ((0, 0, 1), 1)])
    assert str(p) == "0x2*x^2*y + z"


def test_canonical_order_graded_lex_desc():
    p = MultiPoly.from_terms(
        GF4, [((0, 0, 3), 1), ((2, 1, 0), 1), ((1, 2, 0), 1), ((1, 0, 0), 1)]
    )
    assert [e for e, _ in p.terms()] == [(2, 1, 0), (1, 2, 0), (0, 0, 3), (1, 0, 0)]


def test_act_matches_per_monomial_reference():
    rng = random.Random(41)
    for ctx in (GF4, GF16):
        for _ in range(20):
            g = rand_mat(ctx, rng)
            for _ in range(5):
                p = rand_poly(ctx, rng, maxdeg=40)
                assert p.act(g) == substitute_reference(p, g)


def test_act_rejects_singular_matrix():
    with pytest.raises(ValueError):
        X().act(Mat3.block(GF4, 1, 1, 1, 1))


def test_mismatched_ctx_rejected():
    with pytest.raises(ValueError):
        X(GF4) * X(GF16)
    with pytest.raises(ValueError):
        X(GF4).act(Mat3.identity(GF16))


# -- properties ----------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, database=None)

# lifted generators of both variants and the kernel generators, d = 2
PIPELINE_GENS = (
    list(lift_generators("h1", 2, GF16))
    + list(lift_generators("h0", 2, GF16))
    + kernel_group(
        LambdaSpace(GF16, 2, default_lambda_basis(2, 2, GF16))
    )
)


def sparse_polys(ctx=GF16, maxdeg=4, maxterms=6):
    exps = st.tuples(*[st.integers(0, maxdeg)] * 3)
    terms = st.lists(st.tuples(exps, st.integers(0, ctx.order - 1)), max_size=maxterms)
    return terms.map(lambda items: MultiPoly.from_terms(ctx, items))


@PROPERTY
@given(sparse_polys(), st.sampled_from(PIPELINE_GENS), st.sampled_from(PIPELINE_GENS))
def test_act_composition_property(p, g, h):
    assert p.act(g).act(h) == p.act(g * h)


def mul_operands(ctx):
    # maxdeg 0 gives constants: one-term operands, of degree 0
    polys = st.one_of(sparse_polys(ctx, maxdeg=0, maxterms=2), sparse_polys(ctx))
    return st.tuples(polys, polys)


@PROPERTY
@given(st.sampled_from([GF2, GF4, GF16, GF2_18]).flatmap(mul_operands))
def test_mul_matches_reference_property(case):
    p, q = case
    assert p * q == mul_reference(p, q)


@PROPERTY
@given(sparse_polys(), sparse_polys())
def test_frobenius_additive_property(p, q):
    assert (p + q).frobenius() == p.frobenius() + q.frobenius()
    assert p.frobenius() == p * p


@settings(max_examples=30, deadline=None, database=None)
@given(
    sparse_polys(GF4, maxdeg=3, maxterms=4),
    st.permutations(range(41)),
    st.lists(st.integers(0, 40), max_size=10),
)
def test_memoized_power_property(p, order, repeats):
    plain = [MultiPoly.one(GF4)]
    for _ in range(40):
        plain.append(plain[-1] * p)
    for k in order + repeats:
        assert p**k == plain[k]


def invertible_mats(ctx):
    """Invertible matrices with last row (0, 0, 1); entries are zero half
    the time, so blocks with a = 0 and zero translation columns occur."""
    entry = st.one_of(st.just(0), st.integers(1, ctx.order - 1))
    rows = st.tuples(*[entry] * 6)
    return rows.filter(
        lambda r: ctx.mul(r[0], r[4]) ^ ctx.mul(r[1], r[3])
    ).map(lambda r: Mat3(ctx, ((r[0], r[1], r[2]), (r[3], r[4], r[5]), (0, 0, 1))))


def act_cases(ctx):
    return st.tuples(sparse_polys(ctx, maxdeg=40), invertible_mats(ctx))


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from([GF2, GF4, GF16]).flatmap(act_cases))
def test_act_matches_reference_property(case):
    # exponents up to 40 have several set bits, so the Lucas expansion
    # runs over multi-bit submasks
    p, g = case
    assert p.act(g) == substitute_reference(p, g)


def divisible_pairs(ctx):
    return st.tuples(sparse_polys(ctx, maxdeg=6, maxterms=8), sparse_polys(ctx).filter(bool))


@PROPERTY
@given(st.sampled_from([GF4, GF16]).flatmap(divisible_pairs))
def test_div_exact_inverts_mul_property(case):
    a, b = case
    assert (a * b).div_exact(b) == a
