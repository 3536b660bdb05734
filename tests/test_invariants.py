import pytest

from refl2.ffield import field_new, subfield_elements, subfield_generator
from refl2.grouplift import (
    LambdaSpace,
    Mat3,
    cocycle_g,
    default_lambda_basis,
    h_gamma,
    kernel_group,
    lift_generators,
    sl2_generators,
)
from refl2.invariants import (
    ActionDescriptor,
    _forms,
    _line_products,
    ActionShapeError,
    composed_invariants,
    dickson_pair,
    dickson_support_check,
    dickson_u,
    kernel_action,
    kernel_invariants,
    lifted_invariants,
    line_forms,
    small_family,
)
from refl2.mvpoly import MultiPoly, jacobian_det
from test_grouplift import kernel_reference, lambda_span_reference
from test_verify import OFFSET_CASES

GF2 = field_new(1)
GF4 = field_new(2)
GF8 = field_new(3)
GF16 = field_new(4)
GF64 = field_new(6)

INSTANCES = [
    (1, 1, GF2),
    (2, 1, GF4),
    (3, 1, GF8),
    (2, 2, GF16),
    (3, 2, GF64),
]


def space(n, d, ctx):
    return LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))


def all_forms_family(n, ctx, scale=None):
    """Reference (c0, c1) by the definition over all nonzero forms.

    c0 is the product of the q^2-1 nonzero forms a x + b y, c1 the sum
    over the q+1 lines of the product of the q^2-q forms not vanishing
    on the line.  With a scale every form is lifted by
    + scale*g(a,b)*z; scale None gives the plain forms.
    """
    sub = subfield_elements(ctx, n)
    pairs = [(a, b) for a in sub for b in sub if a or b]
    lines = [(0, 1)] + [(1, s) for s in sub]

    def form(a, b):
        c = 0
        if scale is not None:
            c = ctx.mul(scale, cocycle_g(ctx, a, b, n))
        return MultiPoly.linear_form(ctx, a, b, c)

    c0 = MultiPoly.one(ctx)
    for a, b in pairs:
        c0 = c0 * form(a, b)
    c1 = MultiPoly.zero(ctx)
    for v0, v1 in lines:
        prod = MultiPoly.one(ctx)
        for a, b in pairs:
            if ctx.mul(a, v0) ^ ctx.mul(b, v1):
                prod = prod * form(a, b)
        c1 = c1 + prod
    return c0, c1


def lifted_family_reference(ctx, n, X, Y, Z, gscale=1):
    """Reference (u~, c1~) for `_lifted_family`: c1~ as the sum over the
    q+1 lines of (u~/L)^(q-1), u~/L the product of the other q forms."""
    q = 1 << n

    def form(a, b):
        return X.scale(a) + Y.scale(b) + Z.scale(ctx.mul(gscale, cocycle_g(ctx, a, b, n)))

    forms = [form(0, 1)] + [form(1, s) for s in subfield_elements(ctx, n)]
    prefix = [MultiPoly.one(ctx)]
    for L in forms:
        prefix.append(prefix[-1] * L)
    c1 = MultiPoly.zero(ctx)
    suffix = MultiPoly.one(ctx)
    for i in reversed(range(len(forms))):
        c1 = c1 + (prefix[i] * suffix) ** (q - 1)
        suffix = suffix * forms[i]
    return prefix[-1], c1


def prefix_suffix_line_products(forms, X, Y, Z):
    """Reference for `_line_products`: (u, sum_L L (u/L)^q) with u/L the
    product of the other q forms, kept as prefix and suffix products, and
    its q-th power n Frobenius squarings."""
    n = (len(forms) - 1).bit_length() - 1
    polys = [X.scale(a) + Y.scale(b) + Z.scale(c) for a, b, c in forms]
    # prefix[i] is the product of polys[:i]; suffix that of polys[i+1:]
    prefix = [MultiPoly.one(X.ctx)]
    for L in polys:
        prefix.append(prefix[-1] * L)
    num = MultiPoly.zero(X.ctx)
    suffix = MultiPoly.one(X.ctx)
    for i in reversed(range(len(polys))):
        r = prefix[i] * suffix
        for _ in range(n):
            r = r.frobenius()
        num = num + polys[i] * r
        suffix = suffix * polys[i]
    return prefix[-1], num


def xyz(ctx):
    return tuple(MultiPoly.variable(ctx, i) for i in range(3))


def displayed_scale(n, ctx):
    """(1 + e^-1)^-1, the cocycle scale the pipeline uses."""
    e = subfield_generator(ctx, n)
    return ctx.inv(1 ^ ctx.inv(e))


# (n, ambient field): GF(2^n) itself and, for n = 2, GF(2^2n)
FAMILY_CASES = [(1, GF2), (2, GF4), (3, GF8), (2, GF16)]


def test_line_products_match_all_forms_reference():
    for n, ctx in FAMILY_CASES:
        assert dickson_pair(n, ctx) == all_forms_family(n, ctx)
        scales = [1] + ([displayed_scale(n, ctx)] if n > 1 else [])
        for scale in scales:
            c0t, c1t = all_forms_family(n, ctx, scale)
            ut, c1 = lifted_invariants(n, ctx, scale)
            assert c1 == c1t
            assert ut ** ((1 << n) - 1) == c0t


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lifted_family_matches_power_reference_at_every_scale(n):
    ctx = field_new(n)
    for scale in subfield_elements(ctx, n):
        assert lifted_invariants(n, ctx, scale) == lifted_family_reference(
            ctx, n, *xyz(ctx), scale
        )


def test_lifted_family_matches_power_reference_n4_pipeline_scale():
    ctx = field_new(4)
    scale = displayed_scale(4, ctx)
    assert lifted_invariants(4, ctx, scale) == lifted_family_reference(
        ctx, 4, *xyz(ctx), scale
    )


@pytest.mark.parametrize("n, modulus", [(2, 0x13), (3, 0x43)])
def test_small_family_matches_power_reference_offset_bases(n, modulus):
    # Lambda_1 = GF(q) 0x2 misses 1, so the h1 maps have nonzero offsets and
    # the small family is the lifted one, with z scaled by alpha
    ctx = field_new(modulus.bit_length() - 1, modulus)
    ls = LambdaSpace(ctx, n, (0x2,))
    gens = list(lift_generators("h1", n, ctx)) + kernel_group(ls)
    desc = kernel_action(gens, *kernel_invariants(ls), n=n)
    assert not desc.all_offsets_zero
    x, y, z = xyz(ctx)
    reference = lifted_family_reference(
        ctx, n, x, y, z.scale(desc.alpha), displayed_scale(n, ctx)
    )
    assert small_family(desc) == (*reference, z)


LINE_PRODUCT_CASES = [
    pytest.param(n, variant, None, None, d, id=f"{n}-{d}-{variant}")
    for n in range(2, 7)
    for d in (0, 1, 2)
    for variant in ("h1", "h0")
] + [
    pytest.param(n, variant, modulus, basis, 1, id=f"{n}-{variant}-{modulus:#x}-{basis[0]:#x}")
    for n, variant, modulus, basis in OFFSET_CASES
]


@pytest.mark.parametrize("n, variant, modulus, basis, d", LINE_PRODUCT_CASES)
def test_line_products_match_prefix_suffix_reference(n, variant, modulus, basis, d):
    # the running product and its exact quotients against the prefix and
    # suffix products, on the pipeline's forms (lifted at h1 d=0 and on the
    # offset bases) and on the plane forms
    m = modulus.bit_length() - 1 if modulus else n * (2 if d == 2 else 1)
    ctx = field_new(m, modulus)
    ls = LambdaSpace(ctx, n, basis or default_lambda_basis(d, n, ctx))
    gens = list(lift_generators(variant, n, ctx)) + kernel_group(ls, cap=1 << 30)
    desc = kernel_action(gens, *kernel_invariants(ls), n=n)
    plane = _forms(ctx, n, 0)
    for forms in [plane] + ([] if desc.all_offsets_zero else [line_forms(desc)]):
        assert _line_products(forms, *xyz(ctx)) == prefix_suffix_line_products(forms, *xyz(ctx))


def test_closed_form_pair_matches_line_products():
    # the line products at Z = 0: lifting every form by 0 * g(a,b) * z is
    # the lifted family restricted to z = 0, which is costly past n = 3
    for n in (2, 3, 4, 5):
        ctx = field_new(n)
        u, c1 = lifted_invariants(n, ctx, scale=0)
        assert dickson_u(n, ctx) == u
        assert dickson_pair(n, ctx) == (u ** ((1 << n) - 1), c1)
        if n <= 3:
            ut, c1t = lifted_invariants(n, ctx)
            assert (ut.restrict_z0(), c1t.restrict_z0()) == (u, c1)


def test_kernel_invariants_d0():
    ls = space(2, 0, GF4)
    fx, fy, fz = kernel_invariants(ls)
    assert fx == MultiPoly.variable(GF4, 0)
    assert fy == MultiPoly.variable(GF4, 1)
    assert fz == MultiPoly.variable(GF4, 2)


def test_kernel_invariants_n1_frozen():
    fx, fy, fz = kernel_invariants(space(1, 1, GF2))
    x = MultiPoly.variable(GF2, 0)
    y = MultiPoly.variable(GF2, 1)
    z = MultiPoly.variable(GF2, 2)
    assert fx == x**2 + x * z  # x(x+z)
    assert fy == y**2 + y * z
    assert fz == z


def test_kernel_invariants_n2_support():
    fx, fy, _ = kernel_invariants(space(2, 1, GF4))
    assert fx.deg() == 4
    assert {e for e in fx.var_degrees(0) if e} == {1, 4}
    assert fy.var_degrees(1) >= {1, 4}


def test_kernel_invariants_fixed_by_N():
    for n, d, ctx in INSTANCES:
        ls = space(n, d, ctx)
        fx, fy, fz = kernel_invariants(ls)
        for m in kernel_reference(ls):
            assert fx.act(m) == fx
            assert fy.act(m) == fy
            assert fz.act(m) == fz


def test_kernel_jacobian_closed_form():
    for n, d, ctx in INSTANCES:
        ls = space(n, d, ctx)
        fx, fy, fz = kernel_invariants(ls)
        j = jacobian_det(fx, fy, fz)
        # expected value built independently: (prod of nonzero elements)^2 z^(2(q^d-1))
        c = 1
        for a in lambda_span_reference(ctx, n, ls.basis):
            if a:
                c = ctx.mul(c, a)
        size = (1 << n) ** d
        expected = MultiPoly.from_terms(ctx, [((0, 0, 2 * (size - 1)), ctx.mul(c, c))])
        assert j == expected
        assert not j.is_zero()


def test_dickson_support_check():
    for n, d, ctx in INSTANCES:
        fx, fy, _ = kernel_invariants(space(n, d, ctx))
        assert dickson_support_check(fx, n, d)
        assert dickson_support_check(fy, n, d)
    fx0, _, _ = kernel_invariants(space(2, 0, GF4))
    assert dickson_support_check(fx0, 2, 0)
    x = MultiPoly.variable(GF4, 0)
    z = MultiPoly.variable(GF4, 2)
    assert not dickson_support_check(x**3 + z**3, 2, 1)


def test_dickson_pair_n1_frozen():
    c0, c1 = dickson_pair(1, GF2)
    x = MultiPoly.variable(GF2, 0)
    y = MultiPoly.variable(GF2, 1)
    assert c0 == x**2 * y + x * y**2
    assert c1 == x**2 + x * y + y**2


def test_dickson_degrees_n2():
    c0, c1 = dickson_pair(2, GF4)
    assert c0.deg() == 15 and c1.deg() == 12


def test_dickson_invariance():
    for n, ctx in ((1, GF2), (2, GF4), (3, GF8)):
        c0, c1 = dickson_pair(n, ctx)
        u = dickson_u(n, ctx)
        for g in sl2_generators(n, ctx):
            assert c0.act(g) == c0
            assert c1.act(g) == c1
            assert u.act(g) == u


def test_dickson_u_root_identity():
    u1 = dickson_u(1, GF2)
    c0_1, _ = all_forms_family(1, GF2)
    assert u1 == c0_1  # q - 1 = 1
    for n, ctx in ((2, GF4), (3, GF8)):
        q = 1 << n
        u = dickson_u(n, ctx)
        c0, _ = all_forms_family(n, ctx)
        assert u.deg() == q + 1
        assert u ** (q - 1) == c0


def test_lifted_restrictions_and_root():
    for n, ctx in ((1, GF2), (2, GF4), (3, GF8)):
        q = 1 << n
        ut, c1t = lifted_invariants(n, ctx)
        c0t, _ = all_forms_family(n, ctx, scale=1)
        u = dickson_u(n, ctx)
        c0, c1 = dickson_pair(n, ctx)
        assert ut.restrict_z0() == u
        assert c1t.restrict_z0() == c1
        assert c0t.restrict_z0() == c0
        assert ut.deg() == q + 1 and c1t.deg() == q * q - q
        assert ut ** (q - 1) == c0t


def test_lifted_invariance_under_cocycle_subgroup():
    # scale 1 outputs are fixed by the generators of H_1
    for n, ctx in ((2, GF4), (3, GF8)):
        ut, c1t = lifted_invariants(n, ctx)
        H1 = h_gamma(1, n, ctx)
        for g in H1.generators:
            assert ut.act(g) == ut
            assert c1t.act(g) == c1t


def test_lifted_scale_matches_displayed_lifts():
    # scale (1+e^-1)^-1 outputs are fixed by the lifted generators as displayed
    for n, ctx in ((2, GF4), (3, GF8)):
        e = subfield_generator(ctx, n)
        scale = ctx.inv(1 ^ ctx.inv(e))
        ut, c1t = lifted_invariants(n, ctx, scale=scale)
        for g in lift_generators("h1", n, ctx):
            assert ut.act(g) == ut
            assert c1t.act(g) == c1t
        # while the unscaled root is not fixed by the displayed R lift
        ut1, _ = lifted_invariants(n, ctx)
        R_l, _, _ = lift_generators("h1", n, ctx)
        assert ut1.act(R_l) != ut1


def test_lifted_scaled_root_identity():
    for n, ctx in ((2, GF4), (3, GF8)):
        q = 1 << n
        scale = displayed_scale(n, ctx)
        ut, _ = lifted_invariants(n, ctx, scale=scale)
        c0t, _ = all_forms_family(n, ctx, scale=scale)
        assert ut ** (q - 1) == c0t


def test_kernel_action_transvections_linear():
    ls = space(2, 1, GF4)
    fx, fy, fz = kernel_invariants(ls)
    R_l, S_l, T_l = lift_generators("h1", 2, GF4)
    desc = kernel_action([S_l, T_l], fx, fy, fz, n=2)
    assert desc.maps[0].block2() == (1, 1, 0, 1)
    assert desc.maps[0].third_col() == (0, 0)
    assert desc.maps[1].block2() == (1, 0, 1, 1)
    assert desc.maps[1].third_col() == (0, 0)


def test_kernel_action_h0_matches_block():
    for d in (0, 1):
        ls = space(2, d, GF4)
        fx, fy, fz = kernel_invariants(ls)
        lifts = list(lift_generators("h0", 2, GF4))
        desc = kernel_action(lifts, fx, fy, fz, n=2)
        assert desc.all_offsets_zero
        for g, m in zip(lifts, desc.maps):
            assert m.block2() == g.block2()


def test_kernel_action_default_basis_offsets_vanish():
    # 1 lies in the default Lambda_1, so the diagonal-lift offset is zero
    ls = space(2, 1, GF4)
    fx, fy, fz = kernel_invariants(ls)
    lifts = list(lift_generators("h1", 2, GF4))
    desc = kernel_action(lifts, fx, fy, fz, n=2)
    assert desc.all_offsets_zero and desc.alpha == 0


def test_kernel_action_d0_h1_offsets():
    ls = space(2, 0, GF4)
    fx, fy, fz = kernel_invariants(ls)
    lifts = list(lift_generators("h1", 2, GF4))
    desc = kernel_action(lifts, fx, fy, fz, n=2)
    e = subfield_generator(GF4, 2)
    assert desc.maps[0].block2() == (GF4.inv(e), 0, 0, e)
    assert desc.maps[0].third_col() == (1, e)
    assert desc.alpha == 1


def theta_space():
    # Lambda_1 = GF(4)*theta inside GF(16): 1 is outside, so alpha != 0
    theta = 0x2
    return LambdaSpace(GF16, 2, (theta,))


def test_kernel_action_nonzero_alpha_relations():
    ls = theta_space()
    fx, fy, fz = kernel_invariants(ls)
    lifts = list(lift_generators("h1", 2, GF16))
    desc = kernel_action(lifts, fx, fy, fz, n=2)
    e = desc.e
    r = desc.maps[0]
    assert r.block2() == (GF16.inv(e), 0, 0, e)
    ax, ay = r.third_col()
    assert ax != 0
    # offset ratio: f_y picks up e * alpha
    assert ay == GF16.mul(e, ax)
    # closed forms from the coefficients c_m of f_x = sum c_m x^(q^m) z^(q^d - q^m)
    q, d = 4, 1
    cs = [fx.coeff((q**m, 0, q**d - q**m)) for m in range(d + 1)]
    acc_x = 0
    acc_y = 0
    for m, c in enumerate(cs):
        acc_x ^= c
        acc_y ^= GF16.mul(c, GF16.pow_(e, q**m))
    assert ax == acc_x and ay == acc_y
    # alpha equals the product of (1 + lambda) over Lambda_1
    prod = 1
    for lam in lambda_span_reference(GF16, 2, ls.basis):
        prod = GF16.mul(prod, 1 ^ lam)
    assert ax == prod


def test_kernel_action_shape_error_on_bogus_input():
    x = MultiPoly.variable(GF4, 0)
    y = MultiPoly.variable(GF4, 1)
    z = MultiPoly.variable(GF4, 2)
    lifts = list(lift_generators("h1", 2, GF4))
    with pytest.raises(ActionShapeError):
        kernel_action(lifts, x**3 * z, y**3 * z, z, n=2)


def test_kernel_action_rejects_entries_outside_subfield():
    ls = space(2, 1, GF16)
    fx, fy, fz = kernel_invariants(ls)
    theta = 0x2  # generates GF(16), not in GF(4)
    bad = Mat3.block(GF16, theta, 0, 0, GF16.inv(theta))
    with pytest.raises(ActionShapeError):
        kernel_action([bad], fx, fy, fz, n=2)


def all_group_generators(variant, n, ctx, ls):
    lifts = list(lift_generators(variant, n, ctx))
    return lifts + kernel_group(ls)


def test_composed_d0_reduces_to_lifted():
    ls = space(2, 0, GF4)
    fx, fy, fz = kernel_invariants(ls)
    lifts = list(lift_generators("h1", 2, GF4))
    desc = kernel_action(lifts, fx, fy, fz, n=2)
    ub, c1b, zp = composed_invariants(2, ls, desc)
    e = subfield_generator(GF4, 2)
    scale = GF4.inv(1 ^ GF4.inv(e))
    ut, c1t = lifted_invariants(2, GF4, scale=scale)
    assert ub == ut and c1b == c1t and zp == fz


def test_composed_degrees_and_invariance_default_d1():
    ls = space(2, 1, GF4)
    fx, fy, fz = kernel_invariants(ls)
    lifts = list(lift_generators("h1", 2, GF4))
    desc = kernel_action(lifts, fx, fy, fz, n=2)
    ub, c1b, zp = composed_invariants(2, ls, desc)
    assert (ub.deg(), c1b.deg(), zp.deg()) == (20, 48, 1)
    for g in all_group_generators("h1", 2, GF4, ls):
        assert ub.act(g) == ub
        assert c1b.act(g) == c1b
        assert zp.act(g) == zp


def test_composed_nonzero_alpha_route():
    ls = theta_space()
    fx, fy, fz = kernel_invariants(ls)
    lifts = list(lift_generators("h1", 2, GF16))
    desc = kernel_action(lifts, fx, fy, fz, n=2)
    assert desc.alpha != 0
    ub, c1b, zp = composed_invariants(2, ls, desc)
    assert (ub.deg(), c1b.deg(), zp.deg()) == (20, 48, 1)
    for g in all_group_generators("h1", 2, GF16, ls):
        assert ub.act(g) == ub
        assert c1b.act(g) == c1b


def test_composed_h0_uses_plain_pair():
    ls = space(2, 1, GF4)
    fx, fy, fz = kernel_invariants(ls)
    lifts = list(lift_generators("h0", 2, GF4))
    desc = kernel_action(lifts, fx, fy, fz, n=2)
    ub, c1b, _ = composed_invariants(2, ls, desc)
    for g in all_group_generators("h0", 2, GF4, ls):
        assert ub.act(g) == ub
        assert c1b.act(g) == c1b


def test_composed_offset_zeroed_recovers_plain_pair():
    # zeroing the offsets in the descriptor reproduces the unlifted pair
    ls = theta_space()
    fx, fy, fz = kernel_invariants(ls)
    lifts = list(lift_generators("h1", 2, GF16))
    desc = kernel_action(lifts, fx, fy, fz, n=2)
    zeroed = ActionDescriptor(
        desc.ctx,
        desc.n,
        desc.d,
        desc.zpow,
        maps=tuple(Mat3.block(GF16, *m.block2()) for m in desc.maps),
        alpha=0,
        e=desc.e,
    )
    ub0, c1b0, _ = composed_invariants(2, ls, zeroed)
    ub1, c1b1, _ = composed_invariants(2, ls, desc)
    assert ub0 != ub1
    # the lifted pair restricts to the plain pair on z = 0
    assert ub1.restrict_z0() == ub0.restrict_z0()
    assert c1b1.restrict_z0() == c1b0.restrict_z0()


def test_composed_determinism():
    ls = space(2, 1, GF4)
    fx, fy, fz = kernel_invariants(ls)
    lifts = list(lift_generators("h1", 2, GF4))
    a = composed_invariants(2, ls, kernel_action(lifts, fx, fy, fz, n=2))
    b = composed_invariants(2, ls, kernel_action(lifts, fx, fy, fz, n=2))
    assert a[0].canonical() == b[0].canonical()
    assert a[1].canonical() == b[1].canonical()
