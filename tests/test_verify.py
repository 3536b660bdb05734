import functools
import random
import sys
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refl2.cli import EXIT_OK, VerifyConfig, run_verify
from refl2.ffield import field_new, subfield_generator
from refl2.grouplift import (
    LambdaSpace,
    Mat3,
    closure,
    default_lambda_basis,
    kernel_group,
    lift_generators,
    sl2_generators,
)
from refl2.invariants import (
    composed_invariants,
    dickson_pair,
    kernel_action,
    kernel_invariants,
)
from refl2.linalg import field_kernel_dimension, field_matrix_rank, gf2_rank
from refl2.mvpoly import MultiPoly
from refl2.verify import (
    GeneratorExpr,
    NotExpressibleError,
    NotInvariantError,
    express_in_generators,
    fixed_dimensions,
    generated_dimension,
    graded_fixed_dimension,
    is_invariant,
    kemper_check,
)

GF2 = field_new(1)
GF4 = field_new(2)


def composed_setup(n=2, d=0, variant="h1", ctx=None):
    ctx = ctx or field_new(2)
    ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
    lifts = list(lift_generators(variant, n, ctx))
    fx, fy, fz = kernel_invariants(ls)
    desc = kernel_action(lifts, fx, fy, fz, n=n)
    ub, c1b, zp = composed_invariants(n, ls, desc)
    gens = lifts + ([] if d == 0 else kernel_group(ls).generators)
    return (ub, c1b, zp), gens


# -- linalg ------------------------------------------------------------------


def rank_field_small(ctx, rows):
    """Reference rank by dense elimination directly over the field."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    mul, inv = ctx.mul, ctx.inv
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = inv(m[r][c])
        m[r] = [mul(piv, v) for v in m[r]]
        for i in range(r + 1, nrows):
            if m[i][c]:
                f = m[i][c]
                mi, mr = m[i], m[r]
                for j in range(c, ncols):
                    mi[j] ^= mul(f, mr[j])
        r += 1
        if r == nrows:
            break
    return r


def test_gf2_rank_small():
    rows = np.array([[0b011], [0b110], [0b101]], dtype=np.uint64)
    assert gf2_rank(rows.copy(), 3) == 2
    assert gf2_rank(np.zeros((3, 1), dtype=np.uint64), 3) == 0


def test_field_rank_matches_small_elimination():
    rng = random.Random(7)
    for ctx in (GF2, GF4, field_new(3)):
        for _ in range(30):
            nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
            A = [[rng.randrange(ctx.order) for _ in range(nc)] for _ in range(nr)]
            expected = rank_field_small(ctx, A)
            got = field_matrix_rank(ctx, np.array(A, dtype=np.int64))
            assert got == expected
            assert field_kernel_dimension(ctx, np.array(A, dtype=np.int64)) == nc - expected


# -- is_invariant ------------------------------------------------------------


def test_is_invariant_examples():
    z = MultiPoly.variable(GF4, 2)
    x = MultiPoly.variable(GF4, 0)
    _, S_l, T_l = lift_generators("h1", 2, GF4)
    assert is_invariant(z, [S_l, T_l])
    assert not is_invariant(x, [S_l])
    c0, c1 = dickson_pair(1, GF2)
    _, S, T = sl2_generators(1, GF2)
    assert is_invariant(c1, [S, T])
    assert is_invariant(c0, [S, T])


# -- kemper ------------------------------------------------------------------


def test_kemper_two_variable_analogue():
    c0, c1 = dickson_pair(1, GF2)
    z = MultiPoly.variable(GF2, 2)
    _, S, T = sl2_generators(1, GF2)
    v = kemper_check(6, [c0, c1, z], [S, T])
    assert v.polynomial and str(v) == "POLYNOMIAL"
    assert v.degrees == (3, 2, 1) and v.degree_product == 6
    assert v.jacobian_nonzero


def test_kemper_degree_mismatch_named():
    (ub, c1b, zp), gens = composed_setup()
    v = kemper_check(61, [ub, c1b, zp], gens)
    assert not v.polynomial
    assert v.failed_clauses == ("degree-product",)
    assert str(v) == "FAIL(degree-product)"


def test_kemper_invariance_clause_named():
    x = MultiPoly.variable(GF4, 0)
    y = MultiPoly.variable(GF4, 1)
    z = MultiPoly.variable(GF4, 2)
    _, S_l, T_l = lift_generators("h1", 2, GF4)
    v = kemper_check(1, [x, y, z], [S_l, T_l])
    assert "invariance" in v.failed_clauses


def test_kemper_jacobian_clause():
    x = MultiPoly.variable(GF4, 0)
    z = MultiPoly.variable(GF4, 2)
    ident = Mat3.identity(GF4)
    v = kemper_check(4, [x, x**2 + x * z + z**2, z], [ident])
    # degrees 1*2*1 != 4 and the Jacobian of dependent-ish rows may vanish
    assert not v.polynomial


def test_kemper_rejects_nonhomogeneous():
    x = MultiPoly.variable(GF4, 0)
    z = MultiPoly.variable(GF4, 2)
    with pytest.raises(ValueError):
        kemper_check(1, [x + x**2, x, z], [Mat3.identity(GF4)])


def test_kemper_full_pipeline_n2_d1():
    (ub, c1b, zp), gens = composed_setup(n=2, d=1)
    v = kemper_check(960, [ub, c1b, zp], gens)
    assert v.polynomial
    assert v.degrees == (20, 48, 1)


# -- graded fixed dimension ----------------------------------------------------


def monomials(deg: int, nvars: int) -> list[tuple[int, int, int]]:
    """Exponent triples of total degree deg, canonical (descending) order;
    nvars = 2 keeps the z-exponent zero."""
    out = []
    if nvars == 3:
        for a in range(deg, -1, -1):
            for b in range(deg - a, -1, -1):
                out.append((a, b, deg - a - b))
    elif nvars == 2:
        for a in range(deg, -1, -1):
            out.append((a, deg - a, 0))
    else:
        raise ValueError("nvars must be 2 or 3")
    return out


def dense_fixed_dimension(gens, deg, nvars=3):
    """Reference: substitute every monomial of the degree, stack the
    matrices of g - 1 over the generators and take the kernel dimension."""
    ctx = gens[0].ctx
    monos = monomials(deg, nvars)
    index = {e: i for i, e in enumerate(monos)}
    D = len(monos)
    blocks = []
    for g in gens:
        sub = g.substitution()
        A = np.zeros((D, D), dtype=np.int64)
        for j, e in enumerate(monos):
            img = sub(MultiPoly(ctx, {e: 1}))
            for exps, c in img._terms.items():
                A[index[exps], j] = c
            A[j, j] ^= 1
        blocks.append(A)
    return field_kernel_dimension(ctx, np.concatenate(blocks, axis=0))


def dense_generated_dimension(invs, deg):
    """Reference: the field rank of the coefficient matrix of the products
    of the generators of the given total degree."""
    ctx = invs[0].ctx
    weights = [p.deg() for p in invs]
    products = []
    for e in iproduct(*(range(deg // w + 1) for w in weights)):
        if sum(k * w for k, w in zip(e, weights)) != deg:
            continue
        prod = MultiPoly.one(ctx)
        for p, k in zip(invs, e):
            prod = prod * p**k
        products.append(prod)
    if not products:
        return 0
    support = sorted({t for p in products for t in p._terms})
    col = {t: i for i, t in enumerate(support)}
    A = np.zeros((len(products), len(support)), dtype=np.int64)
    for i, p in enumerate(products):
        for t, c in p._terms.items():
            A[i, col[t]] = c
    return field_matrix_rank(ctx, A)


def test_monomial_count():
    assert len(monomials(2, 3)) == 6
    assert len(monomials(5, 2)) == 6
    assert monomials(0, 3) == [(0, 0, 0)]


def test_fixed_dim_trivial_group():
    assert graded_fixed_dimension([Mat3.identity(GF4)], 2, 3) == 6


def test_fixed_dim_sl2_gf2_two_vars():
    _, S, T = sl2_generators(1, GF2)
    assert graded_fixed_dimension([S, T], 1, 2) == 0
    assert graded_fixed_dimension([S, T], 2, 2) == 1  # the span of c1


def test_fixed_dim_matches_brute_force_gf2():
    # independent oracle: enumerate every polynomial of the degree and
    # count the fixed ones; the count must be 2^dim
    _, S, T = sl2_generators(1, GF2)
    gens = [S, T]
    for deg in range(0, 7):
        monos = monomials(deg, 2)
        fixed = 0
        for coeffs in iproduct((0, 1), repeat=len(monos)):
            p = MultiPoly.from_terms(GF2, list(zip(monos, coeffs)))
            if all(p.act(g) == p for g in gens):
                fixed += 1
        dim = graded_fixed_dimension(gens, deg, 2)
        assert fixed == 1 << dim


def test_fixed_dim_cap():
    with pytest.raises(ValueError):
        graded_fixed_dimension([Mat3.identity(GF4)], 61, 3, cap=60)


def test_fixed_dim_2var_requires_block_diagonal():
    R_l, _, _ = lift_generators("h1", 2, GF4)
    with pytest.raises(ValueError):
        graded_fixed_dimension([R_l], 2, 2)


def pipeline_gens(n, d, variant):
    ctx = field_new(n * (2 if d == 2 else 1))
    ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
    return list(lift_generators(variant, n, ctx)) + kernel_group(ls).generators


@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize(
    "n,d,max_deg", [(2, 0, 30), (2, 1, 20), (3, 0, 20), (3, 1, 20), (2, 2, 20)]
)
def test_fixed_dimensions_match_dense_reference(n, d, max_deg, variant):
    gens = pipeline_gens(n, d, variant)
    assert fixed_dimensions(gens, max_deg) == [
        dense_fixed_dimension(gens, deg) for deg in range(max_deg + 1)
    ]


@pytest.mark.parametrize("n", [1, 2])
def test_fixed_dimensions_two_vars_match_dense_reference(n):
    gens = list(sl2_generators(n, field_new(n)))
    assert fixed_dimensions(gens, 30, 2) == [
        dense_fixed_dimension(gens, deg, 2) for deg in range(31)
    ]


def test_fixed_dimensions_rejects_bad_input():
    with pytest.raises(ValueError):
        fixed_dimensions([], 3)
    with pytest.raises(ValueError):
        fixed_dimensions([Mat3.identity(GF4)], 3, 4)
    R_l, _, _ = lift_generators("h1", 2, GF4)
    with pytest.raises(ValueError):
        fixed_dimensions([R_l], 3, 2)


@st.composite
def affine_generators(draw):
    """1-3 invertible matrices with last row (0, 0, 1) over GF(2), GF(4)
    or GF(8); block-diagonal (zero last column) when `plane` is drawn."""
    ctx = field_new(draw(st.integers(1, 3)))
    entry = st.integers(0, ctx.order - 1)
    plane = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        a, b, c, d = (draw(entry) for _ in range(4))
        if ctx.mul(a, d) == ctx.mul(b, c):
            a, c, d = 1, 0, 1  # a singular block becomes the transvection (1, b; 0, 1)
        col = (0, 0) if plane else (draw(entry), draw(entry))
        gens.append(Mat3.block(ctx, a, b, c, d, col))
    return gens, plane


@settings(max_examples=60, deadline=None, database=None)
@given(affine_generators(), st.integers(0, 8))
def test_fixed_dimensions_property(drawn, max_deg):
    gens, plane = drawn
    for nvars in (2, 3) if plane else (3,):
        assert fixed_dimensions(gens, max_deg, nvars) == [
            dense_fixed_dimension(gens, deg, nvars) for deg in range(max_deg + 1)
        ]


# -- generated dimension ---------------------------------------------------------


def test_generated_dimension_examples():
    c0, c1 = dickson_pair(1, GF2)
    assert generated_dimension([c0, c1], 0) == 1
    assert generated_dimension([c0, c1], 6) == 2  # c0^2 and c1^3
    assert generated_dimension([c0, c1], 1) == 0
    (ub, c1b, zp), _ = composed_setup()
    assert generated_dimension([ub, c1b, zp], 12) == 4  # 5a+12b+c=12 has 4 solutions


def test_generated_dimension_detects_dependence():
    c0, _ = dickson_pair(1, GF2)
    # c0 and c0^2 are dependent in degree 6: c0^2 appears once only
    assert generated_dimension([c0, c0], 3) == 1


def test_generated_dimension_matches_dense_reference():
    invs, _ = composed_setup()
    c0, c1 = dickson_pair(2, GF4)
    for deg in range(31):
        assert generated_dimension(list(invs), deg) == dense_generated_dimension(
            list(invs), deg
        )
        assert generated_dimension([c0, c1, c0], deg) == dense_generated_dimension(
            [c0, c1, c0], deg
        )


@st.composite
def homogeneous_polys(draw):
    """1-3 nonzero homogeneous polynomials of degree 1 or 2 in x, y, z over
    GF(2), GF(4) or GF(8), so that products of them are often dependent."""
    ctx = field_new(draw(st.integers(1, 3)))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        monos = monomials(draw(st.integers(1, 2)), 3)
        coeffs = draw(
            st.lists(st.integers(0, ctx.order - 1), min_size=len(monos), max_size=len(monos))
        )
        coeffs[0] = coeffs[0] or 1
        polys.append(MultiPoly.from_terms(ctx, zip(monos, coeffs)))
    return polys


@settings(max_examples=60, deadline=None, database=None)
@given(homogeneous_polys(), st.integers(0, 6))
def test_generated_dimension_property(invs, deg):
    assert generated_dimension(invs, deg) == dense_generated_dimension(invs, deg)


# -- oracle agreement (small slice; the full sweep is acceptance) -----------------


def test_oracle_agreement_first_degrees():
    (ub, c1b, zp), gens = composed_setup()
    for deg, fd in enumerate(fixed_dimensions(gens, 18)):
        assert fd == generated_dimension([ub, c1b, zp], deg)


def test_oracle_agreement_d1_both_routes():
    # kernel generators included; exercises the zero- and nonzero-alpha routes
    for ctx, basis in ((GF4, (1,)), (field_new(4), (0x2,))):
        ls = LambdaSpace(ctx, 2, basis)
        lifts = list(lift_generators("h1", 2, ctx))
        gens = lifts + kernel_group(ls).generators
        fx, fy, fz = kernel_invariants(ls)
        desc = kernel_action(lifts, fx, fy, fz, n=2)
        ub, c1b, zp = composed_invariants(2, ls, desc)
        for deg, fd in enumerate(fixed_dimensions(gens, 17)):
            assert fd == generated_dimension([ub, c1b, zp], deg)


def test_kemper_verdict_monotone_in_evidence():
    (ub, c1b, zp), gens = composed_setup()
    v = kemper_check(60, [ub, c1b, zp], gens)
    assert v.polynomial
    # POLYNOMIAL implies each clause individually re-verifiable from the record
    assert all(v.invariance)
    assert v.degree_product == v.group_order
    assert v.jacobian_nonzero


def test_oracle_agreement_q2_two_vars():
    _, S, T = sl2_generators(1, GF2)
    c0, c1 = dickson_pair(1, GF2)
    for deg, fd in enumerate(fixed_dimensions([S, T], 9, 2)):
        assert fd == generated_dimension([c0, c1], deg)


# -- expression in generators ------------------------------------------------------


def test_express_round_trip_simple():
    (ub, c1b, zp), gens = composed_setup()
    p = ub * c1b
    expr = express_in_generators(p, (ub, c1b, zp), gens)
    assert dict(expr.terms) == {(1, 1, 0): 1}
    assert str(expr) == "U*C"
    assert expr.substitute() == p
    p2 = zp**5
    expr2 = express_in_generators(p2, (ub, c1b, zp), gens)
    assert dict(expr2.terms) == {(0, 0, 5): 1}
    assert str(expr2) == "Z^5"


def test_express_rejects_noninvariant():
    (ub, c1b, zp), gens = composed_setup()
    x = MultiPoly.variable(GF4, 0)
    with pytest.raises(NotInvariantError):
        express_in_generators(x, (ub, c1b, zp), gens)


def test_express_surfaces_generation_failure():
    (ub, c1b, zp), gens = composed_setup()
    # u-bar is invariant but not a polynomial in (u-bar^2, c1-bar, z)
    with pytest.raises(NotExpressibleError):
        express_in_generators(ub, (ub * ub, c1b, zp), gens)


def test_express_random_round_trips():
    rng = random.Random(23)
    (ub, c1b, zp), gens = composed_setup()
    du, dc = ub.deg(), c1b.deg()
    for _ in range(25):
        deg = rng.randrange(0, 30)
        combos = [
            (a, b, deg - du * a - dc * b)
            for a in range(deg // du + 1)
            for b in range(deg // dc + 1)
            if deg - du * a - dc * b >= 0
        ]
        picked = {
            e: rng.randrange(1, 4) for e in combos if rng.random() < 0.6
        }
        p = MultiPoly.zero(GF4)
        for (a, b, c), coeff in picked.items():
            p = p + ((ub**a) * (c1b**b) * (zp**c)).scale(coeff)
        expr = express_in_generators(p, (ub, c1b, zp), gens)
        assert expr.substitute() == p
        # generators are algebraically independent: representation unique
        assert dict(expr.terms) == {e: c for e, c in picked.items() if c}


def test_generator_expr_str_constant():
    expr = GeneratorExpr(GF4, (((0, 0, 0), 0x3),), composed_setup()[0])
    assert str(expr) == "0x3"


@functools.cache
def n2_d0_setup():
    return composed_setup()


@st.composite
def generator_combinations(draw):
    """{(a, b, c): coeff} for U^a C^b Z^c of one total degree at n=2 d=0."""
    (ub, c1b, _), _ = n2_d0_setup()
    du, dc = ub.deg(), c1b.deg()
    deg = draw(st.integers(0, 30))
    combos = [
        (a, b, deg - du * a - dc * b)
        for a in range(deg // du + 1)
        for b in range(deg // dc + 1)
        if deg - du * a - dc * b >= 0
    ]
    return draw(st.dictionaries(st.sampled_from(combos), st.integers(1, 3)))


@settings(max_examples=40, deadline=None, database=None)
@given(generator_combinations())
def test_express_round_trip_property(picked):
    invs, gens = n2_d0_setup()
    ub, c1b, zp = invs
    p = MultiPoly.zero(GF4)
    for (a, b, c), coeff in picked.items():
        p = p + (ub**a * c1b**b * zp**c).scale(coeff)
    expr = express_in_generators(p, invs, gens)
    assert dict(expr.terms) == picked
    assert expr.substitute() == p


def module_container_sizes() -> dict:
    """Size of every module-level dict, list and set of the loaded refl2 modules."""
    return {
        (name, attr): len(val)
        for name, mod in sorted(sys.modules.items())
        if name.split(".")[0] == "refl2"
        for attr, val in vars(mod).items()
        if isinstance(val, (dict, list, set)) and not attr.startswith("__")
    }


def test_module_level_containers_stay_bounded():
    # caches live on the polynomials and matrices they describe, so
    # repeated expression and verification leave module state unchanged
    invs, gens = n2_d0_setup()
    ub, c1b, zp = invs
    p = ub * c1b + zp ** (ub.deg() + c1b.deg())
    before = module_container_sizes()
    for _ in range(20):
        assert express_in_generators(p, invs, gens).substitute() == p
    code, _ = run_verify(VerifyConfig(n=2, oracle_max_degree=8))
    assert code == EXIT_OK
    assert module_container_sizes() == before
