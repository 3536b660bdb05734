import functools
import math
import random
import sys
from itertools import accumulate
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refl2.cli import EXIT_OK, VerifyConfig, run_verify
from refl2.ffield import field_new, subfield_elements, subfield_generator
from refl2.grouplift import (
    LambdaSpace,
    Mat3,
    closure,
    cocycle_f,
    default_lambda_basis,
    kernel_group,
    lift_generators,
    sl2_generators,
    verify_splitting,
)
from refl2.invariants import (
    ActionDescriptor,
    ActionShapeError,
    _dickson,
    _lifted_family,
    composed_invariants,
    dickson_pair,
    kernel_action,
    kernel_invariants,
    lift_scale,
    line_forms,
)
from refl2.linalg import field_kernel_dimension, field_matrix_rank, gf2_rank
from refl2.mvpoly import MultiPoly, jacobian_det
from refl2.verify import (
    GeneratorExpr,
    KemperVerdict,
    _field_rows,
    _pack_levels,
    _Pair,
    _repeat,
    NotExpressibleError,
    NotInvariantError,
    express_in_generators,
    fixed_dimensions,
    free_dimensions,
    generated_dimension,
    graded_fixed_dimension,
    is_invariant,
    kemper_check,
    kemper_lines,
    restricted_leads,
)
from test_grouplift import control_lifts
from test_mvpoly import substitute_reference

GF2 = field_new(1)
GF4 = field_new(2)


def composed_setup(n=2, d=0, variant="h1", ctx=None, basis=None):
    ctx = ctx or field_new(2)
    basis = default_lambda_basis(d, n, ctx) if basis is None else basis
    ls = LambdaSpace(ctx, n, basis)
    lifts = list(lift_generators(variant, n, ctx))
    fx, fy, fz = kernel_invariants(ls)
    desc = kernel_action(lifts, fx, fy, fz, n=n)
    ub, c1b, zp = composed_invariants(n, ls, desc)
    gens = lifts + ([] if d == 0 else kernel_group(ls))
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


# -- the criterion on the small family against the expanded reference ---------

# the tier-1 instances (n, d, variant), then the two Lambda bases with
# nonzero offsets as (n, variant, ambient modulus, basis) at d = 1
DEFAULT_CASES = list(iproduct((2, 3), (0, 1, 2), ("h1", "h0")))
OFFSET_CASES = [(2, "h1", 0x13, (0x2,)), (2, "h0", 0x13, (0x2,)), (3, "h1", 0x43, (0x2,))]


def small_setup(ls, variant, column=None):
    """(|G|, the descriptor, the generators) for the lifts of the variant.
    `column` replaces the third column of the lift (index, column)."""
    n, ctx = ls.n, ls.ambient
    lifts = list(lift_generators(variant, n, ctx))
    if column is not None:
        i, col = column
        lifts[i] = Mat3.block(ctx, *lifts[i].block2(), col=col)
    translations = kernel_group(ls)
    gens = lifts + translations
    order = verify_splitting(ls, lifts).group_order
    return order, kernel_action(gens, *kernel_invariants(ls), n=n), gens


def small_family(desc):
    """Reference: the small family (u~, c1~, z) expanded at (x, y, z), on
    which the maps M_g act as the generators act on its composition with F:
    the closed-form pair when every offset is zero, else the products of
    the lifted `line_forms`."""
    x, y, z = (MultiPoly.variable(desc.ctx, i) for i in range(3))
    if desc.all_offsets_zero:
        return (*_dickson(1 << desc.n, x, y), z)
    return (*_lifted_family(line_forms(desc), x, y, z), z)


def expanded_small(order, desc):
    """kemper_check on the expanded small family under the maps M_g, with
    degrees scaled by q^d."""
    return kemper_check(order, small_family(desc), desc.maps, (desc.zpow, desc.zpow, 1))


def both_criteria(ls, variant, column=None):
    """The pipeline's verdict, kemper_check on the small family under the
    maps M_g with degrees scaled by q^d, and the reference, kemper_check on
    the expanded (u-bar, c1-bar, z) under the generators themselves."""
    order, desc, gens = small_setup(ls, variant, column)
    reference = kemper_check(order, composed_invariants(ls.n, ls, desc), gens)
    return expanded_small(order, desc), reference, desc


@pytest.mark.parametrize("n, d, variant", DEFAULT_CASES)
def test_small_family_criterion_matches_expanded_default_bases(n, d, variant):
    ctx = field_new(n * (2 if d == 2 else 1))
    ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
    small, reference, _ = both_criteria(ls, variant)
    assert small == reference
    assert small.polynomial


@pytest.mark.parametrize("n, variant, modulus, basis", OFFSET_CASES)
def test_small_family_criterion_matches_expanded_offset_bases(n, variant, modulus, basis):
    ls = LambdaSpace(field_new(modulus.bit_length() - 1, modulus), n, basis)
    small, reference, desc = both_criteria(ls, variant)
    assert small == reference
    assert small.polynomial
    assert desc.all_offsets_zero == (variant == "h0")


def test_small_family_criterion_matches_expanded_perturbed_lift():
    # 1 lies outside Lambda_1 = GF(4) 0x2, so third column (1, 0) gives the
    # lift the offset P(1) != 0: it still acts affinely, but u-bar and c1-bar
    # are no longer fixed by it
    ls = LambdaSpace(field_new(4, 0x13), 2, (0x2,))
    for variant, i in (("h1", 1), ("h0", 0)):
        small, reference, desc = both_criteria(ls, variant, column=(i, (1, 0)))
        assert desc.maps[i].third_col() == (ls.value(1), 0)
        assert small == reference
        assert "invariance" in small.failed_clauses
        assert not small.fixed_by[i][0] and not small.fixed_by[i][1]


# -- the criterion from the line forms against the expanded small family -------

LINE_CASES = DEFAULT_CASES + [
    (4, 0, "h1"), (4, 0, "h0"), (4, 1, "h1"), (4, 1, "h0"), (5, 0, "h1"), (5, 0, "h0"),
]


def both_small_criteria(ls, variant, column=None):
    """`kemper_lines` and the expanded `kemper_check` on the small family."""
    order, desc, _ = small_setup(ls, variant, column)
    return kemper_lines(order, desc), expanded_small(order, desc)


@pytest.mark.parametrize("n, d, variant", LINE_CASES)
def test_line_form_criterion_matches_expanded_default_bases(n, d, variant):
    ctx = field_new(n * (2 if d == 2 else 1))
    ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
    lines, expanded = both_small_criteria(ls, variant)
    assert lines == expanded
    assert lines.polynomial


@pytest.mark.parametrize("n, variant, modulus, basis", OFFSET_CASES)
def test_line_form_criterion_matches_expanded_offset_bases(n, variant, modulus, basis):
    ls = LambdaSpace(field_new(modulus.bit_length() - 1, modulus), n, basis)
    lines, expanded = both_small_criteria(ls, variant)
    assert lines == expanded
    assert lines.polynomial


def test_line_form_criterion_perturbed_lift_fails_invariance():
    # negative control: the offset P(1) moves the lifted forms off one
    # another, so the perturbed map fixes neither u~ nor, as far as the
    # forms show, c1~; the verdict is the expanded check's, flags included
    ls = LambdaSpace(field_new(4, 0x13), 2, (0x2,))
    for variant, i in (("h1", 1), ("h0", 0)):
        lines, expanded = both_small_criteria(ls, variant, column=(i, (1, 0)))
        assert lines == expanded
        assert "invariance" in lines.failed_clauses
        assert not lines.fixed_by[i][0] and not lines.fixed_by[i][1]


def test_line_form_criterion_scalar_and_singular_maps():
    # a scalar block s I, s in GF(q)* other than 1, with no offset: on the
    # plane forms every lambda_L is s, so u~ goes to s^(q+1) u~ = s^2 u~
    # and c1~ is fixed; it moves the lifted forms (c goes to c / s).  A
    # singular block is refused
    ls = LambdaSpace(field_new(4, 0x13), 2, (0x2,))
    for variant in ("h1", "h0"):
        order, desc, _ = small_setup(ls, variant)
        ctx = desc.ctx
        s = subfield_generator(ctx, 2)

        def with_maps(*maps):
            return ActionDescriptor(ctx, desc.n, desc.d, desc.zpow, maps, desc.alpha, desc.e)

        scalar = with_maps(*desc.maps, Mat3.block(ctx, s, 0, 0, s))
        lines = kemper_lines(order, scalar)
        assert lines == expanded_small(order, scalar)
        assert lines.failed_clauses == ("invariance",)
        assert lines.fixed_by[-1] == (False, desc.all_offsets_zero, True)
        singular = with_maps(*desc.maps, Mat3.block(ctx, 1, 1, 1, 1))
        with pytest.raises(ActionShapeError):
            kemper_lines(order, singular)


# (n, m): n = 2 in GF(2^4), GF(2^6) and GF(2^8), n = 3 in GF(2^6), n = 4
# in GF(2^8); every d = 1..m/n, three seeded random Lambda bases each
CENSUS = [(2, 4), (2, 6), (2, 8), (3, 6), (4, 8)]


def random_lambda_basis(rng, ctx, n, d):
    """d random elements of the ambient field, independent over GF(2^n)."""
    basis = ()
    while len(basis) < d:
        v = rng.randrange(1, ctx.order)
        if LambdaSpace(ctx, n, basis).value(v):
            basis += (v,)
    return basis


@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize("n, m", CENSUS)
def test_line_form_criterion_matches_expanded_census(n, m, variant):
    ctx = field_new(m)
    lifted = 0
    for d in range(1, m // n + 1):
        rng = random.Random(100 * m + 10 * n + d)
        for _ in range(3):
            ls = LambdaSpace(ctx, n, random_lambda_basis(rng, ctx, n, d))
            order, desc, _ = small_setup(ls, variant)
            lines = kemper_lines(order, desc)
            assert lines == expanded_small(order, desc), ls.basis
            assert lines.polynomial and lines.degree_product == order
            lifted += not desc.all_offsets_zero
    # h0 keeps every lift block-diagonal; under h1 a basis of Lambda_1
    # missing 1 makes the family lifted, and the whole field never does
    assert (lifted == 0) if variant == "h0" else (0 < lifted < 3 * (m // n))


# -- the criterion from the maps against the per-form loop ---------------------


def lines_reference(group_order, desc):
    """Reference for `kemper_lines`: each M_g applied to every one of the
    q+1 lifted `line_forms`, with lambda_L, the normalized image and the
    product of the lambda_L taken form by form.  The flags are (permutes
    with prod lambda_L = 1, permutes with every lambda_L in GF(q), True)."""
    ctx, n = desc.ctx, desc.n
    mul, inv = ctx.mul, ctx.inv
    forms = line_forms(desc)
    lifted = {(a, b): c for a, b, c in forms}
    fixed_by = []
    for M in desc.maps:
        (m00, m01, m02), (m10, m11, m12), _ = M.rows
        if mul(m00, m11) == mul(m01, m10):
            raise ActionShapeError("a map M_g has a singular block")
        permutes, in_subfield, scale = True, True, 1
        for a, b, c in forms:
            a2, b2 = mul(a, m00) ^ mul(b, m10), mul(a, m01) ^ mul(b, m11)
            lam = a2 or b2
            li = inv(lam)
            c2 = mul(mul(a, m02) ^ mul(b, m12) ^ c, li)
            permutes = permutes and lifted.get((mul(a2, li), mul(b2, li))) == c2
            in_subfield = in_subfield and ctx.in_subfield(lam, n)
            scale = mul(scale, lam)
        fixed_by.append((permutes and scale == 1, permutes and in_subfield, True))
    q = 1 << n
    degrees = (desc.zpow * (q + 1), desc.zpow * (q * q - q), 1)
    product = degrees[0] * degrees[1]
    failed = [] if all(all(row) for row in fixed_by) else ["invariance"]
    if product != group_order:
        failed.append("degree-product")
    return KemperVerdict(
        not failed, tuple(failed), group_order, degrees, product, tuple(fixed_by), True
    )


def criterion_setups():
    """(Lambda space, lifts) for the differential tests of `kemper_lines`
    and `kernel_action`: the LINE_CASES default bases, one seeded random
    basis per d in each CENSUS field and the OFFSET_CASES bases under both
    variants, and the split tests' control lifts at n = 2, 3, d = 0, 1."""
    setups = []
    for n, d, variant in LINE_CASES:
        ctx = field_new(n * (2 if d == 2 else 1))
        setups.append((LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx)), variant))
    for n, m in CENSUS:
        ctx = field_new(m)
        for d in range(1, m // n + 1):
            rng = random.Random(100 * m + 10 * n + d)
            ls = LambdaSpace(ctx, n, random_lambda_basis(rng, ctx, n, d))
            setups += [(ls, "h1"), (ls, "h0")]
    for n, modulus, basis in sorted({(n, m, b) for n, _, m, b in OFFSET_CASES}):
        ls = LambdaSpace(field_new(modulus.bit_length() - 1, modulus), n, basis)
        setups += [(ls, "h1"), (ls, "h0")]
    out = [(ls, list(lift_generators(variant, ls.n, ls.ambient))) for ls, variant in setups]
    for n, d, variant, kind in iproduct((2, 3), (0, 1), ("h1", "h0"), "RPTS"):
        ctx = field_new(n)
        ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
        out.append((ls, control_lifts(kind, variant, n, ctx)))
    return out


def setup_descriptor(ls, lifts):
    """(an order, the descriptor) for the lifts and N's
    translations; the order is |N| q (q^2 - 1), the degree clause's only
    input, read the same by both criteria."""
    q = 1 << ls.n
    gens = list(lifts) + kernel_group(ls)
    desc = kernel_action(gens, *kernel_invariants(ls), n=ls.n)
    return ls.kernel_order * q * (q * q - 1), desc


def with_maps(desc, maps):
    return ActionDescriptor(desc.ctx, desc.n, desc.d, desc.zpow, tuple(maps), desc.alpha, desc.e)


def random_maps(rng, ctx, n, gamma, kinds, count):
    """`count` maps with seeded random GL2(q) blocks, one in two scaled
    into SL2(q), and offsets of a random kind: on the cocycle,
    gamma (f(a, b), f(c, d)); moved off it by a random nonzero element;
    random in the ambient field; or zero."""
    sub = subfield_elements(ctx, n)
    maps = []
    while len(maps) < count:
        a, b, c, d = (rng.choice(sub) for _ in range(4))
        delta = ctx.mul(a, d) ^ ctx.mul(b, c)
        if not delta:
            continue
        if rng.random() < 0.5:
            a, b = ctx.mul(a, ctx.inv(delta)), ctx.mul(b, ctx.inv(delta))
        kind = rng.choice(kinds)
        col = (ctx.mul(gamma, cocycle_f(ctx, a, b, n)), ctx.mul(gamma, cocycle_f(ctx, c, d, n)))
        if kind == "perturbed":
            i = rng.randrange(2)
            col = tuple(v ^ rng.randrange(1, ctx.order) if j == i else v for j, v in enumerate(col))
        elif kind == "random":
            col = (rng.randrange(ctx.order), rng.randrange(ctx.order))
        elif kind == "zero":
            col = (0, 0)
        maps.append(Mat3.block(ctx, a, b, c, d, col=col))
    return maps


def outcome(f, *args):
    """f's value, or the type of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


def test_kemper_lines_matches_per_form_reference():
    setups = criterion_setups()
    assert len(setups) == 80
    for ls, lifts in setups:
        order, desc = setup_descriptor(ls, lifts)
        # control lifts with an offset but no diagonal-lift one are refused
        lines = outcome(kemper_lines, order, desc)
        assert lines == outcome(lines_reference, order, desc), ls


def test_kemper_lines_matches_per_form_reference_random_maps():
    # seeded GL2(q) blocks with offsets in H_gamma, moved off it, random or
    # zero, after the pipeline's own maps; every flag pattern the criterion
    # can give occurs, and a closed-form descriptor with a nonzero offset
    # is refused by both
    seen = set()
    for i, (ls, lifts) in enumerate(criterion_setups()):
        order, desc = setup_descriptor(ls, lifts)
        gamma = outcome(lift_scale, desc)
        if gamma is ActionShapeError:
            continue
        kinds = ("cocycle", "perturbed", "random", "zero") if gamma else ("zero",)
        extra = random_maps(random.Random(i), desc.ctx, ls.n, gamma, kinds, 24)
        wide = with_maps(desc, desc.maps + tuple(extra))
        lines = kemper_lines(order, wide)
        assert lines == lines_reference(order, wide), ls
        seen.update(lines.fixed_by)
        if not gamma:
            moved = with_maps(desc, desc.maps + (Mat3.translation(desc.ctx, 1, 0),))
            assert outcome(kemper_lines, order, moved) is ActionShapeError
            assert outcome(lines_reference, order, moved) is ActionShapeError
    assert seen == {(True, True, True), (False, True, True), (False, False, True)}


def test_kemper_lines_refuses_block_entries_outside_gf_q():
    # negative control: the proof needs GF(q) blocks.  diag(theta,
    # theta^-1) with theta generating GF(16) has determinant 1, and the
    # per-form loop reads it as moving the forms; `kemper_lines` refuses it
    ls = LambdaSpace(field_new(4, 0x13), 2, (0x2,))
    for variant in ("h1", "h0"):
        order, desc, _ = small_setup(ls, variant)
        ctx = desc.ctx
        bad = with_maps(desc, desc.maps + (Mat3.block(ctx, 0x2, 0, 0, ctx.inv(0x2)),))
        with pytest.raises(ActionShapeError, match="outside GF"):
            kemper_lines(order, bad)
        assert lines_reference(order, bad).fixed_by[-1] == (False, False, True)


def test_kernel_action_and_criterion_list_no_forms_and_substitute_nothing(monkeypatch):
    # the maps are read off the generators and the criterion off the maps:
    # with `act` and the forms, lifted or plane, patched to raise, a lifted
    # run and a closed-form one still reach their verdicts
    from refl2 import invariants

    def refuse(*args):
        raise AssertionError("brute-force pass on the run path")

    monkeypatch.setattr(MultiPoly, "act", refuse)
    monkeypatch.setattr(invariants, "_forms", refuse)
    for variant in ("h1", "h0"):
        ls = LambdaSpace(field_new(6, 0x43), 3, (0x2,))
        order, desc = setup_descriptor(ls, lift_generators(variant, 3, ls.ambient))
        assert bool(lift_scale(desc)) == (variant == "h1")
        assert kemper_lines(order, desc).polynomial


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_action_reads_e_off_the_diagonal_lift(n):
    # R = diag(e^-k, e^k) with third column (1, e^k) is an R-lift for every
    # k prime to q - 1, which the split accepts; gamma scales the cocycle by
    # that lift's own e^k, so the criterion from the maps and the expanded
    # one on (u-bar, c1-bar, z) agree, and both give POLYNOMIAL
    ctx = field_new(n)
    ls = LambdaSpace(ctx, n, ())
    e, q = subfield_generator(ctx, n), 1 << n
    _, S, T = lift_generators("h1", n, ctx)
    translations = kernel_group(ls)
    for k in (k for k in range(1, q - 1) if math.gcd(k, q - 1) == 1):
        ek = ctx.pow_(e, k)
        lifts = [Mat3.block(ctx, ctx.inv(ek), 0, 0, ek, col=(1, ek)), S, T]
        order = verify_splitting(ls, lifts).group_order
        gens = lifts + translations
        desc = kernel_action(gens, *kernel_invariants(ls), n=n)
        assert desc.e == ek and desc.alpha == 1
        lines = kemper_lines(order, desc)
        assert lines == kemper_check(order, composed_invariants(n, ls, desc), gens)
        assert lines.polynomial, k
    # a singular diagonal lift with an offset has e = 0: refused, not divided by
    singular = Mat3.block(ctx, 1, 0, 0, 0, col=(1, 0))
    desc = kernel_action([singular, S, T], *kernel_invariants(ls), n=n)
    assert (desc.alpha, desc.e) == (1, 0)
    with pytest.raises(ActionShapeError):
        kemper_lines(order, desc)


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
        A = np.zeros((D, D), dtype=np.int64)
        for j, e in enumerate(monos):
            img = substitute_reference(MultiPoly(ctx, {e: 1}), g)
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
    assert graded_fixed_dimension([Mat3.identity(GF4)], 2) == 6


def running_sums(values) -> list[int]:
    """For block-diagonal generators S^G = k[x, y]^G [z], so the
    three-variable counts are the running sums of the plane counts."""
    return list(accumulate(values))


def test_fixed_dim_sl2_gf2_two_vars():
    _, S, T = sl2_generators(1, GF2)
    # plane counts 1, 0, 1: degree 2 is the span of c1
    assert fixed_dimensions([S, T], 2) == running_sums([1, 0, 1])


def test_fixed_dim_matches_brute_force_gf2():
    # independent oracle: enumerate every plane polynomial of the degree
    # and count the fixed ones; the count must be 2^dim
    _, S, T = sl2_generators(1, GF2)
    gens = [S, T]
    plane = []
    for deg in range(0, 7):
        monos = monomials(deg, 2)
        fixed = 0
        for coeffs in iproduct((0, 1), repeat=len(monos)):
            p = MultiPoly.from_terms(GF2, list(zip(monos, coeffs)))
            if all(p.act(g) == p for g in gens):
                fixed += 1
        assert fixed & (fixed - 1) == 0
        plane.append(fixed.bit_length() - 1)
    assert fixed_dimensions(gens, 6) == running_sums(plane)


def lambda_gens(ls, variant):
    """The pipeline's generators: the lifts, then the translations."""
    return list(lift_generators(variant, ls.n, ls.ambient)) + kernel_group(ls)


def pipeline_gens(n, d, variant):
    ctx = field_new(n * (2 if d == 2 else 1))
    return lambda_gens(LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx)), variant)


def offset_gens(n, variant, modulus, basis):
    ls = LambdaSpace(field_new(modulus.bit_length() - 1, modulus), n, basis)
    return lambda_gens(ls, variant)


# the default bases (id n-d-max_deg-variant), then the offset bases
FIXED_REFERENCE_CASES = [
    pytest.param(
        functools.partial(pipeline_gens, n, d, variant),
        max_deg,
        id=f"{n}-{d}-{max_deg}-{variant}",
    )
    for n, d, max_deg in [(2, 0, 30), (2, 1, 20), (3, 0, 20), (3, 1, 20), (2, 2, 20)]
    for variant in ("h1", "h0")
] + [
    pytest.param(
        functools.partial(offset_gens, *case),
        16,
        id=f"{case[0]}-{case[1]}-{case[2]:#x}-{case[3][0]:#x}-16",
    )
    for case in OFFSET_CASES
]


@pytest.mark.parametrize("make_gens, max_deg", FIXED_REFERENCE_CASES)
def test_fixed_dimensions_match_dense_reference(make_gens, max_deg):
    gens = make_gens()
    assert fixed_dimensions(gens, max_deg) == [
        dense_fixed_dimension(gens, deg) for deg in range(max_deg + 1)
    ]


@pytest.mark.parametrize("n", [1, 2])
def test_fixed_dimensions_two_vars_match_dense_reference(n):
    gens = list(sl2_generators(n, field_new(n)))
    assert fixed_dimensions(gens, 30) == running_sums(
        dense_fixed_dimension(gens, deg, 2) for deg in range(31)
    )


def test_fixed_dimensions_rejects_bad_input():
    with pytest.raises(ValueError):
        fixed_dimensions([], 3)
    mixed = [Mat3.block(GF4, 1, 1, 0, 1), Mat3.block(field_new(4), 1, 0, 1, 1)]
    with pytest.raises(ValueError, match="mixed contexts"):
        fixed_dimensions(mixed, 4)
    with pytest.raises(ValueError, match="at least 0"):
        fixed_dimensions([Mat3.identity(GF4)], -1)


def test_fixed_dimensions_build_no_polynomials(monkeypatch):
    # the images of the monomials are built as packed rows, by shifts and
    # lane masks, never as MultiPoly products or powers
    gens = pipeline_gens(2, 0, "h1")
    calls = []
    for name in ("__mul__", "__pow__"):
        original = getattr(MultiPoly, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(MultiPoly, name, counted)
    fixed_dimensions(gens, 20)
    assert calls == []


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
    dims = fixed_dimensions(gens, max_deg)
    assert dims == [dense_fixed_dimension(gens, deg) for deg in range(max_deg + 1)]
    if plane:  # S^G = k[x, y]^G [z]
        assert dims == running_sums(
            dense_fixed_dimension(gens, deg, 2) for deg in range(max_deg + 1)
        )


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
    # past degree 31 the packing stride grows from 32 to 64 lanes
    for deg in range(34):
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


def sweep_setup(n, d, basis=None):
    """(u-bar, c1-bar, z) of the pipeline; `basis` overrides the default
    Lambda basis in GF(2^(2n)) (GF(16) at n = 2)."""
    ctx = field_new(n * (2 if d == 2 or basis else 1))
    basis = basis or default_lambda_basis(d, n, ctx)
    return composed_setup(n, d, ctx=ctx, basis=basis)[0]


@pytest.mark.parametrize(
    "n,d,basis,max_deg",
    [(2, 0, None, 60), (3, 0, None, 30), (2, 1, None, 30), (3, 1, None, 30),
     (2, 2, None, 30), (2, 1, (0x2,), 30)],
)
def test_generated_dimensions_match_per_degree(n, d, basis, max_deg):
    # the pipeline's generators have independent restricted leads, so the
    # count of their products is the rank of their span in every degree
    invs = list(sweep_setup(n, d, basis))
    restricted_leads(invs[0], invs[1])
    assert free_dimensions([f.deg() for f in invs], max_deg) == [
        generated_dimension(invs, deg) for deg in range(max_deg + 1)
    ]


@pytest.mark.parametrize("ctx", [GF2, GF4], ids=["GF2", "GF4"])
def test_generated_dimensions_two_vars_match_per_degree(ctx):
    # Gen(c0, c1, z)_d is the sum over k <= d of Gen(c0, c1)_k
    c0, c1 = dickson_pair(ctx.m, ctx)
    restricted_leads(c0, c1)
    assert free_dimensions([c0.deg(), c1.deg(), 1], 30) == running_sums(
        generated_dimension([c0, c1], deg) for deg in range(31)
    )


def test_generated_dimensions_count_over_the_field():
    # x and t x span one line over GF(4) but two over GF(2); their leads
    # are dependent, so they are refused a count
    x = MultiPoly.variable(GF4, 0)
    plane = [generated_dimension([x, x.scale(2)], deg) for deg in range(4)]
    assert plane == [1, 1, 1, 1]
    with pytest.raises(ValueError, match="dependent leading terms"):
        restricted_leads(x, x.scale(2))


def test_generated_dimensions_rejects_bad_input():
    x, y, z = (MultiPoly.variable(GF4, i) for i in range(3))
    for invs in ([MultiPoly.zero(GF4), y], [x + y**2, y]):  # zero, not homogeneous
        with pytest.raises(ValueError, match="nonzero and homogeneous"):
            generated_dimension(invs, 2)
    with pytest.raises(ValueError, match="positive degree"):
        generated_dimension([MultiPoly.one(GF4), x], 2)
    with pytest.raises(ValueError, match="at least one generator"):
        generated_dimension([], 2)
    with pytest.raises(ValueError, match="at least 1"):
        free_dimensions([0, 1, 1], 3)
    with pytest.raises(ValueError, match="at least 0"):
        free_dimensions([1, 1, 1], -1)
    with pytest.raises(ValueError, match="vanishes at z = 0"):
        restricted_leads(x, y * z)


@st.composite
def sweep_inputs(draw):
    """Homogeneous p, q over GF(2), GF(4) or GF(8), with q often a power or
    multiple of p, and the degree to sweep to."""
    ctx = field_new(draw(st.integers(1, 3)))

    def poly(deg):
        monos = monomials(deg, 3)
        coeffs = draw(
            st.lists(st.integers(0, ctx.order - 1), min_size=len(monos), max_size=len(monos))
        )
        coeffs[0] = coeffs[0] or 1
        return MultiPoly.from_terms(ctx, zip(monos, coeffs))

    p = poly(draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["free", "square", "scaled", "times z"]))
    if kind == "free":
        q = poly(draw(st.integers(1, 3)))
    elif kind == "square":
        q = p**2
    elif kind == "scaled":
        q = p.scale(draw(st.integers(1, ctx.order - 1)))
    else:
        q = p * MultiPoly.variable(ctx, 2)
    return p, q, draw(st.integers(0, 8))


def swap_xy(f: MultiPoly) -> MultiPoly:
    return MultiPoly(f.ctx, {(b, a, c): v for (a, b, c), v in f._terms.items()})


@settings(max_examples=60, deadline=None, database=None)
@given(sweep_inputs())
def test_generated_dimensions_property(drawn):
    # at z = 0 every drawn p and q is 0 or leads with a power of x, so
    # (p, q) is refused a count; (p, q with x and y swapped) often is not
    p, q, max_deg = drawn
    z = MultiPoly.variable(p.ctx, 2)
    degrees = range(max_deg + 1)
    for f in (q, swap_xy(q)):
        count = free_dimensions([p.deg(), f.deg(), 1], max_deg)
        dense = [dense_generated_dimension([p, f, z], deg) for deg in degrees]
        assert all(c >= r for c, r in zip(count, dense))
        try:
            restricted_leads(p, f)
        except ValueError:
            continue
        assert count == dense
        # the plane parts: Gen(p0, f0, z) = Gen(p0, f0)[z]
        p0, f0 = p.restrict_z0(), f.restrict_z0()
        assert count == running_sums(
            dense_generated_dimension([p0, f0], deg) for deg in degrees
        )


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
        gens = lifts + kernel_group(ls)
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
    assert all(all(row) for row in v.fixed_by)
    assert v.degree_product == v.group_order
    assert v.jacobian_nonzero


def test_oracle_agreement_q2_two_vars():
    _, S, T = sl2_generators(1, GF2)
    c0, c1 = dickson_pair(1, GF2)
    assert fixed_dimensions([S, T], 9) == running_sums(
        generated_dimension([c0, c1], deg) for deg in range(10)
    )


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


def _leading_reference(p):
    exps = max(p._terms, key=lambda e: (sum(e), *e))
    return exps, p._terms[exps]


def _restriction_reference(ctx, p0, u0, c10, lu, lc1):
    det = lu[0] * lc1[1] - lu[1] * lc1[0]
    coeffs = {}
    rem = p0
    while not rem.is_zero():
        (e1, e2, _), lcoef = _leading_reference(rem)
        na = e1 * lc1[1] - e2 * lc1[0]
        nb = lu[0] * e2 - lu[1] * e1
        if na % det or nb % det:
            raise NotExpressibleError("restriction escapes the generators")
        a, b = na // det, nb // det
        if a < 0 or b < 0:
            raise NotExpressibleError("restriction escapes the generators")
        prod = u0**a * c10**b
        lead_exps, lead_c = _leading_reference(prod)
        if lead_exps != (e1, e2, 0):
            raise NotExpressibleError("restriction escapes the generators")
        c = ctx.mul(lcoef, ctx.inv(lead_c))
        coeffs[(a, b)] = coeffs.get((a, b), 0) ^ c
        rem = rem + prod.scale(c)
    return coeffs


def express_reference(p, invs, gens):
    """Reference for `express_in_generators`, the terms of the expression:
    restrict to z = 0, solve, subtract the lift, divide by z one power at
    a time, and check by multiplying out u^i c1^j z^k term by term.  p is
    acted on by every generator on every call, with no memo."""
    u, c1, z = invs
    ctx = p.ctx
    if z != MultiPoly.variable(ctx, 2):
        raise ValueError("the third generator must be the coordinate z")
    if not p.is_homogeneous():
        raise ValueError("input must be homogeneous")
    if not all(p.act(g) == p for g in gens):
        raise NotInvariantError("input is not invariant under the generators")
    u0, c10 = u.restrict_z0(), c1.restrict_z0()
    if u0.is_zero() or c10.is_zero():
        raise ValueError("a generator vanishes at z = 0: no leading term to solve with")
    lu, lc1 = _leading_reference(u0)[0][:2], _leading_reference(c10)[0][:2]
    if lu[0] * lc1[1] - lu[1] * lc1[0] == 0:
        raise ValueError("restricted generators have dependent leading terms")
    terms = {}
    work, zexp = p, 0
    while not work.is_zero():
        p0 = work.restrict_z0()
        if not p0.is_zero():
            solved = _restriction_reference(ctx, p0, u0, c10, lu, lc1)
            for (a, b), c in solved.items():
                terms[(a, b, zexp)] = c
                work = work + (u**a * c1**b).scale(c)
        if work.is_zero():
            break
        if 0 in work.var_degrees(2):
            raise NotExpressibleError("not divisible by z")
        work = MultiPoly(ctx, {(a, b, c - 1): v for (a, b, c), v in work._terms.items()})
        zexp += 1
    canon = tuple(
        (e, terms[e]) for e in sorted(terms, key=lambda t: (sum(t), *t), reverse=True)
    )
    back = MultiPoly.zero(ctx)
    for (i, j, k), coeff in canon:
        back = back + MultiPoly.constant(ctx, coeff) * u**i * c1**j * z**k
    if back != p:
        raise NotExpressibleError("reconstruction mismatch")
    return canon


def express_outcome(express, p, invs, gens):
    """The terms of the expression, or the type and message of the error
    raised."""
    try:
        out = express(p, invs, gens)
    except ValueError as exc:
        return type(exc), str(exc)
    return out if isinstance(out, tuple) else out.terms


def degree_input(invs, rng, deg):
    """Acceptance criterion 9's recipe at one degree: random U^a C^b Z^c
    of degree deg, each picked with probability 1/2, nonzero coefficients."""
    ub, c1b, zp = invs
    ctx = ub.ctx
    du, dc = ub.deg(), c1b.deg()
    p = MultiPoly.zero(ctx)
    for a in range(deg // du + 1):
        for b in range((deg - du * a) // dc + 1):
            if rng.random() < 0.5:
                c = deg - du * a - dc * b
                p = p + (ub**a * c1b**b * zp**c).scale(rng.randrange(1, ctx.order))
    return p


def criterion_9_inputs(invs, seed, count, max_deg):
    """Acceptance criterion 9's recipe: `degree_input` at random degrees."""
    rng = random.Random(seed)
    for _ in range(count):
        yield degree_input(invs, rng, rng.randrange(0, max_deg + 1))


@pytest.mark.parametrize(
    "n, d, max_deg, variant, ctx, basis",
    [
        pytest.param(2, 0, 60, "h1", field_new(2), None, id="2-0-60"),
        pytest.param(2, 1, 120, "h1", field_new(2), None, id="2-1-120"),
        pytest.param(3, 0, 130, "h1", field_new(3), None, id="3-0-130"),
        pytest.param(2, 0, 60, "h0", field_new(2), None, id="2-0-60-h0"),
        # a Lambda_1 basis off the subfield: GF(16), x^4 + x + 1, basis (t,)
        pytest.param(2, 1, 120, "h1", field_new(4, 0x13), (0x2,), id="2-1-120-offset"),
    ],
)
def test_express_matches_reference(n, d, max_deg, variant, ctx, basis):
    invs, gens = composed_setup(n, d, variant, ctx, basis)
    ub, c1b, zp = invs
    ctx = ub.ctx
    x, y = MultiPoly.variable(ctx, 0), MultiPoly.variable(ctx, 1)
    inputs = [
        *criterion_9_inputs(invs, 9 + n + d, 12, max_deg),
        MultiPoly.zero(ctx),
        MultiPoly.one(ctx),
        MultiPoly.constant(ctx, ctx.order - 1),
        x,
        x + y,
        x * x + y,
    ]
    for p in inputs:
        for group in (gens, []):
            expected = express_outcome(express_reference, p, invs, group)
            assert express_outcome(express_in_generators, p, invs, group) == expected
    # u-bar is invariant but not a polynomial in (u-bar^2, c1-bar, z)
    squared = (ub * ub, c1b, zp)
    expected = express_outcome(express_reference, ub, squared, gens)
    assert expected[0] is NotExpressibleError
    assert express_outcome(express_in_generators, ub, squared, gens) == expected
    # u' = u-bar + y^deg is not invariant, so the generators prove nothing
    # and p itself decides: u' c1-bar is expressible but not invariant,
    # c1-bar z and u-bar c1-bar are invariant
    moved = (ub + y ** ub.deg(), c1b, zp)
    assert express_outcome(express_in_generators, moved[0] * c1b, moved, []) == (
        ((1, 1, 0), 1),
    )
    cases = [
        (moved[0] * c1b, moved, NotInvariantError),
        (c1b * zp, moved, None),
        (ub * c1b, moved, None),
        # expression fails on a generator vanishing at z = 0, then p is acted on
        (x ** ub.deg(), (zp * ub, c1b, zp), NotInvariantError),
    ]
    for p, cand, error in cases:
        expected = express_outcome(express_reference, p, cand, gens)
        assert express_outcome(express_in_generators, p, cand, gens) == expected
        assert error is None or expected[0] is error
    # with no generators every p is invariant, so the vanishing generator
    # itself is the error
    vanishing = (zp * ub, c1b, zp)
    expected = express_outcome(express_reference, ub * c1b, vanishing, [])
    assert expected[0] is ValueError and "vanishes at z = 0" in expected[1]
    assert express_outcome(express_in_generators, ub * c1b, vanishing, []) == expected


def test_express_matches_reference_at_stride_boundaries():
    # expression packs a degree-D input at lane stride T, the least power
    # of two above D, so T doubles from D = 31 to 32 and from 63 to 64
    invs, gens = composed_setup()
    ub, c1b, zp = invs
    x, y = MultiPoly.variable(GF4, 0), MultiPoly.variable(GF4, 1)
    rng = random.Random(64)
    for deg in (31, 32, 63, 64):
        for p in (degree_input(invs, rng, deg), degree_input(invs, rng, deg), x**deg + y**deg):
            for group in (gens, []):
                expected = express_outcome(express_reference, p, invs, group)
                assert express_outcome(express_in_generators, p, invs, group) == expected
    # u-bar c1-bar^2 z^3, of degree 32, is invariant but not a polynomial
    # in (u-bar^2, c1-bar, z)
    squared = (ub * ub, c1b, zp)
    p = ub * c1b**2 * zp**3
    assert p.deg() == 32
    expected = express_outcome(express_reference, p, squared, gens)
    assert expected[0] is NotExpressibleError
    assert express_outcome(express_in_generators, p, squared, gens) == expected


def test_express_matches_reference_on_warm_generators():
    # one set of generator objects across calls, so every call after the
    # first reads the products and invariance answers they keep; each
    # group list is built afresh per call, as a caller would
    invs, gens = composed_setup()
    ub, c1b, zp = invs
    x, y = MultiPoly.variable(GF4, 0), MultiPoly.variable(GF4, 1)
    inputs = [*criterion_9_inputs(invs, 9, 12, 60), ub * c1b, zp**7, x + y]

    def check(p, cand, group):
        expected = express_outcome(express_reference, p, cand, group)
        assert express_outcome(express_in_generators, p, cand, list(group)) == expected
        return expected

    for _ in range(2):
        for p in inputs:
            check(p, invs, gens)
    # u' = u-bar + y^deg is not invariant: u' c1-bar is rejected every time
    moved = (ub + y ** ub.deg(), c1b, zp)
    not_invariant = (NotInvariantError, "input is not invariant under the generators")
    for _ in range(2):
        assert check(moved[0] * c1b, moved, gens) == not_invariant
    # no generators, then the real ones, then a list that moves u-bar
    mover = Mat3.translation(GF4, 1, 0)
    assert ub.act(mover) != ub
    for group in ([], gens, [mover], [], gens + [mover], gens):
        for p in inputs:
            check(p, invs, group)
    assert check(ub * c1b, invs, [mover]) == not_invariant
    assert check(zp**7, invs, [mover]) == (((0, 0, 7), 1),)


def test_express_rejects_mismatched_contexts():
    # a polynomial over GF(16) against generators over GF(4) is named as
    # such, whichever of p, u, c1 or z it is, and so is an expression
    # over GF(4) tied to it
    invs, gens = composed_setup()
    gf16 = field_new(4)
    mismatched = "^polynomials from mismatched contexts$"
    for i in range(4):
        args = [invs[0] * invs[1], *invs]
        args[i] = MultiPoly.variable(gf16, 2 if i == 3 else 0)
        with pytest.raises(ValueError, match=mismatched):
            express_in_generators(args[0], tuple(args[1:]), gens)
        if i:
            with pytest.raises(ValueError, match=mismatched):
                GeneratorExpr(GF4, (((1, 0, 0), 1),), tuple(args[1:]))


def degree_60_input(invs):
    """A criterion-9 input of degree 60 at n=2 d=0."""
    return degree_input(invs, random.Random(60), 60)


def test_express_acts_on_the_generators_not_the_input(monkeypatch):
    # a degree-60 input is proved invariant by acting on u-bar, c1-bar
    # and z only, each once per generator; fresh generators, since they
    # remember what acted on them
    invs, gens = composed_setup()
    ub, c1b, zp = invs
    p = degree_60_input(invs)
    bound = max(len(ub._terms), len(c1b._terms))
    assert len(p._terms) > bound
    sizes = []
    act = MultiPoly.act
    monkeypatch.setattr(MultiPoly, "act", lambda f, g: sizes.append(len(f._terms)) or act(f, g))
    assert express_in_generators(p, invs, gens).substitute() == p
    assert len(sizes) == 3 * len(gens) and max(sizes) <= bound


@pytest.mark.parametrize("which", [0, 1])
def test_express_rejects_non_homogeneous_generators(which):
    # elimination of x under (x + x z, y, z) would lift x z^(k+1) into
    # the next z-level at every step, forever: such generators are
    # refused before any work, and so is a substitution into them
    x, y, z = (MultiPoly.variable(GF4, i) for i in range(3))
    invs = [x, y, z]
    p = invs[which]
    invs[which] = p + p * z
    not_homogeneous = "^generators must be homogeneous$"
    for _ in range(2):  # the answer is kept on the pair
        with pytest.raises(ValueError, match=not_homogeneous):
            express_in_generators(p, tuple(invs), [])
    with pytest.raises(ValueError, match=not_homogeneous):
        GeneratorExpr(GF4, (((1, 0, 0), 1),), tuple(invs)).substitute()


@pytest.mark.parametrize("which", [0, 1])
def test_express_rejects_generator_vanishing_at_z0(which):
    (ub, c1b, zp), gens = composed_setup()
    invs = [ub, c1b, zp]
    invs[which] = zp * invs[which]
    with pytest.raises(ValueError, match="vanishes at z = 0"):
        express_in_generators(ub * c1b, tuple(invs), gens)


def count_products(monkeypatch) -> list:
    """Record every `MultiPoly` product and power from now on."""
    calls = []
    mul, pow_ = MultiPoly.__mul__, MultiPoly.__pow__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda f, g: calls.append("mul") or mul(f, g))
    monkeypatch.setattr(MultiPoly, "__pow__", lambda f, k: calls.append("pow") or pow_(f, k))
    return calls


def test_express_builds_each_product_once(monkeypatch):
    # every product u^a c1^b is built on the lanes once per stride T, by
    # one `_Pair._step`, for the life of u: across calls at two strides no
    # (a, b, T) is built twice, a warm call builds none, and no call on
    # the fresh generators multiplies or raises a `MultiPoly`
    invs, gens = composed_setup()
    ub, c1b, zp = invs
    deg = 2 * ub.deg() + 2 * c1b.deg() + 3
    picked = {(2, 2, 3): 1, (3, 0, deg - 3 * ub.deg()): 2, (0, 1, deg - c1b.deg()): 3}
    p = MultiPoly.zero(GF4)
    for (a, b, c), coeff in picked.items():
        p = p + (ub**a * c1b**b * zp**c).scale(coeff)
    inputs = [p, degree_60_input(invs), degree_input(invs, random.Random(20), 20)]
    built = []
    step = _Pair._step
    monkeypatch.setattr(
        _Pair, "_step", lambda pair, ctx, a, b, T: built.append((a, b, T)) or step(pair, ctx, a, b, T)
    )
    calls = count_products(monkeypatch)
    assert dict(express_in_generators(p, invs, gens).terms) == picked
    for q in inputs[1:]:
        assert express_in_generators(q, invs, gens).substitute() == q
    assert calls == []
    assert {T for _, _, T in built} == {32, 64}
    assert sorted(built) == sorted(set(built)) == sorted(ub._products[c1b].rows)
    count = len(built)
    for q in inputs:
        assert express_in_generators(q, invs, gens).substitute() == q
    assert len(built) == count


@pytest.mark.parametrize("T", [32, 64])
@pytest.mark.parametrize("case", ["gf4-h1", "gf4-h0", "gf8-h1", "gf2^18-plain"])
def test_products_on_the_lanes_match_the_packed_products(case, T):
    # u^a c1^b built on the lanes from a product one factor smaller equals
    # the `MultiPoly` product packed at stride T, for every (a, b) of
    # degree below T, asked for in a seeded order so that builds start
    # from whichever product is kept: at h1 u and c1 have z-terms, at h0
    # they are the closed-form pair, over GF(8) a scaled copy overflows
    # its lane and is reduced, GF(2^18) has no log tables
    if case == "gf2^18-plain":
        ctx = field_new(18, 0x40009)
        x, y, z = (MultiPoly.variable(ctx, i) for i in range(3))
        invs = (x**3 + y * z * (x + y), y**4 + (x * z).scale(0x3FFFF) ** 2, z)
    else:
        n = 3 if case == "gf8-h1" else 2
        invs = composed_setup(n, 0, case[-2:], field_new(n))[0]
    u, c1, _ = invs
    ctx, du, dc = u.ctx, u.deg(), c1.deg()
    tops = _repeat(ctx.m, T * T) << (ctx.m - 1)
    pair = _Pair.of(u, c1)
    keys = [(a, b) for a in range(T) for b in range(T) if a * du + b * dc < T]
    random.Random(T).shuffle(keys)
    for a, b in keys:
        packed = _pack_levels(u**a * c1**b, a * du + b * dc, T)
        assert pair.field_rows(ctx, a, b, T) == _field_rows(ctx, packed, tops)
    assert len(pair.rows) == len(keys)


class WatchedTerms(dict):
    """A term dict that records every pass over it in `passes`."""

    def __init__(self, terms, passes):
        super().__init__(terms)
        self.passes = passes

    def __iter__(self):
        self.passes.append("iter")
        return super().__iter__()

    def keys(self):
        self.passes.append("keys")
        return super().keys()

    def values(self):
        self.passes.append("values")
        return super().values()

    def items(self):
        self.passes.append("items")
        return super().items()


def test_express_warm_call_builds_and_acts_on_nothing(monkeypatch):
    # the generators keep their packed products, invariance answers,
    # homogeneity, leads and hash, so a second call multiplies no
    # polynomials, acts on none and makes no pass over the terms of u-bar
    # or c1-bar; the reconstruction check still runs, from the kept
    # products.  A first call at a new stride builds its products on the
    # lanes: still no `MultiPoly` product, power or action
    invs, gens = composed_setup()
    p = degree_60_input(invs)
    q = p + invs[2] ** 60
    r = degree_input(invs, random.Random(100), 100)
    assert dict(express_in_generators(p, invs, gens).terms)
    acted, passes = [], []
    calls = count_products(monkeypatch)
    act = MultiPoly.act
    monkeypatch.setattr(MultiPoly, "act", lambda f, g: acted.append(f) or act(f, g))
    for f in invs[:2]:
        f._terms = WatchedTerms(f._terms, passes)
        f._key = None  # so that hashing f again would walk its terms
    for s in (p, q):
        assert express_in_generators(s, invs, gens).substitute() == s
    assert calls == [] and acted == [] and passes == []
    assert express_in_generators(r, invs, gens).substitute() == r
    assert calls == [] and acted == []


def test_generator_expr_needs_the_coordinate_z():
    ub, c1b, zp = composed_setup()[0]
    with pytest.raises(ValueError, match="coordinate z"):
        GeneratorExpr(GF4, (), (ub, c1b, ub))


@pytest.mark.parametrize("case", ["gf8-composed", "gf2^18-plain"])
def test_generator_expr_substitute_matches_the_explicit_sum(case):
    # substitute() XORs scalar multiples of packed products, one degree at
    # a time; over GF(8) and GF(2^18) a multiple overflows its lane, so
    # `_field_rows` reduces it by the modulus
    rng = random.Random(8)
    if case == "gf8-composed":
        invs = composed_setup(3, 0, ctx=field_new(3))[0]
    else:
        ctx = field_new(18, 0x40009)
        x, y, z = (MultiPoly.variable(ctx, i) for i in range(3))
        invs = (x**3 + y * z * (x + y), y**4 + (x * z).scale(0x3FFFF) ** 2, z)
    ub, c1b, zp = invs
    ctx = ub.ctx
    exps = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 31), (1, 1, 3), (3, 0, 0), (0, 0, 40), (2, 1, 7)]
    terms = tuple((e, rng.randrange(1, ctx.order)) for e in exps)
    explicit = MultiPoly.zero(ctx)
    for (i, j, k), c in terms:
        explicit = explicit + MultiPoly.constant(ctx, c) * ub**i * c1b**j * zp**k
    assert GeneratorExpr(ctx, terms, invs).substitute() == explicit
    assert GeneratorExpr(ctx, (), invs).substitute() == MultiPoly.zero(ctx)
    # a zero u contributes nothing, whatever its power
    vanishing = (MultiPoly.zero(ctx), c1b, zp)
    terms = (((2, 1, 0), 1), ((1, 0, 4), 1), ((0, 1, 2), 1))
    assert GeneratorExpr(ctx, terms, vanishing).substitute() == c1b * zp**2


def test_generator_expr_str_constant():
    expr = GeneratorExpr(GF4, (((0, 0, 0), 0x3),), composed_setup()[0])
    assert str(expr) == "0x3"


def test_generator_expr_str_matches_the_polynomial_format():
    invs = composed_setup()[0]
    # canonical order, as both keep their terms
    terms = (((0, 1, 3), 1), ((2, 1, 0), 0x2), ((1, 0, 0), 1), ((0, 0, 0), 1))
    assert str(GeneratorExpr(GF4, terms, invs)) == "C*Z^3 + 0x2*U^2*C + U + 0x1"
    assert str(MultiPoly.from_terms(GF4, terms)) == "y*z^3 + 0x2*x^2*y + x + 0x1"
    assert str(GeneratorExpr(GF4, (), invs)) == "0x0"


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
