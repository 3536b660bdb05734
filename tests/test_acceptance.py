"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one pass/fail line with its wall time (run with -s to
see them) and asserts the stated runtime envelope.  All arithmetic is
exact; every comparison is exact equality.
"""

import random
import time
from contextlib import contextmanager

from refl2.cli import EXIT_CHECK_FAILED, EXIT_OK, VerifyConfig, main, run_verify
from refl2.ffield import field_new, subfield_elements
from refl2.grouplift import (
    LambdaSpace,
    Mat3,
    closure,
    cocycle_f,
    cocycle_g,
    default_lambda_basis,
    h_gamma,
    kernel_group,
    lift_generators,
    sl2_elements,
    sl2_generators,
    verify_splitting,
)
from refl2.invariants import (
    composed_invariants,
    dickson_pair,
    dickson_support_check,
    dickson_u,
    kernel_action,
    kernel_invariants,
    lifted_invariants,
)
from refl2.mvpoly import MultiPoly, jacobian_det
from refl2.verify import (
    express_in_generators,
    fixed_dimensions,
    free_dimensions,
    generated_dimension,
    kemper_check,
)
from test_grouplift import kernel_reference, lambda_span_reference
from test_invariants import all_forms_family


@contextmanager
def criterion(num, desc, limit_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        dt = time.monotonic() - start
        print(f"criterion {num:2d} {desc}: FAIL ({dt:.2f} s)")
        raise
    dt = time.monotonic() - start
    print(f"criterion {num:2d} {desc}: PASS ({dt:.2f} s)")
    assert dt < limit_s, f"criterion {num} exceeded {limit_s}s ({dt:.2f}s)"


def test_criterion_1_group_orders():
    with criterion(1, "group orders by closure", 3.0):
        for n, expected in ((1, 6), (2, 60), (3, 504)):
            ctx = field_new(n)
            t0 = time.monotonic()
            G = closure(list(sl2_generators(n, ctx)))
            assert time.monotonic() - t0 < 1.0
            assert len(G) == expected
            q = 1 << n
            assert expected == q * (q * q - 1)


def test_criterion_2_cocycle_identities():
    with criterion(2, "cocycle identities exhaustive", 5.0):
        expected_counts = {1: 24, 2: 960, 3: 32256}
        for n in (1, 2, 3):
            ctx = field_new(n)
            sub = subfield_elements(ctx, n)
            mul = ctx.mul
            count = 0
            for a, b, c, d in sl2_elements(n, ctx):
                fab = cocycle_f(ctx, a, b, n)
                fcd = cocycle_f(ctx, c, d, n)
                for p in sub:
                    for q in sub:
                        lhs = mul(p, fab) ^ mul(q, fcd)
                        u, v = mul(p, a) ^ mul(q, c), mul(p, b) ^ mul(q, d)
                        fuv = cocycle_f(ctx, u, v, n)
                        assert lhs ^ cocycle_f(ctx, p, q, n) == fuv  # f-identity
                        assert lhs ^ cocycle_g(ctx, p, q, n) == fuv ^ 1  # g-variant
                        count += 1
            assert count == expected_counts[n]
            # homogeneity of g
            for t in sub:
                for a in sub:
                    for b in sub:
                        lhs = cocycle_g(ctx, mul(t, a), mul(t, b), n)
                        assert lhs == mul(t, cocycle_g(ctx, a, b, n))


def test_criterion_3_h_gamma_closure():
    with criterion(3, "H_gamma closure and cardinality", 5.0):
        for n in (2, 3):
            ctx = field_new(n)
            q = 1 << n
            for gamma in (0, 1):
                H = h_gamma(gamma, n, ctx)  # closure verified inside
                assert len(H) == q * (q * q - 1)


def test_criterion_4_splitting():
    with criterion(4, "semidirect splitting", 30.0):
        ctx = field_new(2)
        for d, order in ((0, 60), (1, 960)):
            ls = LambdaSpace(ctx, 2, default_lambda_basis(d, 2, ctx))
            N = kernel_group(ls)
            lifts = list(lift_generators("h1", 2, ctx))
            G = closure(lifts + N)
            assert len(G) == order
            rep = verify_splitting(ls, lifts)
            assert rep.group_order == len(G)
            assert rep.complement_order == 60
            assert rep.intersection_order == 1
            assert rep.complement_order * rep.kernel_order == len(G)
            assert rep.is_split


def test_criterion_5_kernel_invariants():
    with criterion(5, "kernel invariants, Jacobian, support", 10.0):
        for n in (1, 2, 3):
            for d in (0, 1, 2):
                ctx = field_new(n * (2 if d == 2 else 1))
                ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
                fx, fy, fz = kernel_invariants(ls)
                # support property
                assert dickson_support_check(fx, n, d)
                assert dickson_support_check(fy, n, d)
                # Jacobian closed form, built independently
                c = 1
                for a in lambda_span_reference(ctx, n, ls.basis):
                    if a:
                        c = ctx.mul(c, a)
                size = (1 << n) ** d
                expected = MultiPoly.from_terms(
                    ctx, [((0, 0, 2 * (size - 1)), ctx.mul(c, c))]
                )
                assert jacobian_det(fx, fy, fz) == expected
                # fixed by every element of N (|N| <= 4096 throughout)
                N = kernel_reference(ls)
                assert len(N) <= 4096
                for m in N:
                    assert fx.act(m) == fx and fy.act(m) == fy and fz.act(m) == fz


def test_criterion_6_dickson_identities():
    with criterion(6, "Dickson root and lift identities", 30.0):
        for n in (1, 2, 3):
            ctx = field_new(n)
            q = 1 << n
            c0, c1 = dickson_pair(n, ctx)
            u = dickson_u(n, ctx)
            assert u ** (q - 1) == c0 == all_forms_family(n, ctx)[0]
            x, y = MultiPoly.variable(ctx, 0), MultiPoly.variable(ctx, 1)
            assert u * c1 == x * y ** (q * q) + x ** (q * q) * y
            assert (c0.deg(), c1.deg(), u.deg()) == (q * q - 1, q * q - q, q + 1)
            ut, c1t = lifted_invariants(n, ctx)
            assert ut ** (q - 1) == all_forms_family(n, ctx, scale=1)[0]
            assert ut.restrict_z0() == u
            assert c1t.restrict_z0() == c1


def test_criterion_7_main_theorem_instances():
    with criterion(7, "main theorem instances", 300.0):
        cases = [
            (VerifyConfig(n=2, d=0, variant="h1"), 60, [5, 12, 1]),
            (VerifyConfig(n=2, d=0, variant="h0"), 60, [5, 12, 1]),
            (VerifyConfig(n=2, d=1, variant="h1"), 960, [20, 48, 1]),
            (VerifyConfig(n=3, d=0, variant="h1"), 504, [9, 56, 1]),
        ]
        for cfg, order, degrees in cases:
            code, report = run_verify(cfg)
            d = report.to_dict()
            assert code == EXIT_OK, d["verdict"]
            assert d["verdict"] == "POLYNOMIAL"
            assert d["group_order"] == order
            assert d["degrees"] == degrees
            assert d["degree_product"] == order
            assert d["jacobian_nonzero"] is True
            q = 1 << cfg.n
            qd = q**cfg.d
            assert degrees == [(q + 1) * qd, (q * q - q) * qd, 1]
            # the premise of the CLI's one cap comparison: |H| = |SL2(q)|
            assert d["split"]["complement_order"] == q * (q * q - 1)
        # h0 case: linear kernel action with zero offsets confirmed
        _, rep_h0 = run_verify(VerifyConfig(n=2, d=0, variant="h0"))
        assert rep_h0.to_dict()["alpha"] == "0x0"
        assert "linear" in rep_h0.to_dict()["action_note"]


def test_criterion_8_oracle_agreement():
    with criterion(8, "graded fixed-space oracle agreement", 600.0):
        # three variables: n=2, d=0, degrees 0..60
        ctx = field_new(2)
        ls = LambdaSpace(ctx, 2, ())
        lifts = list(lift_generators("h1", 2, ctx))
        fx, fy, fz = kernel_invariants(ls)
        desc = kernel_action(lifts, fx, fy, fz, n=2)
        ub, c1b, zp = composed_invariants(2, ls, desc)
        for deg, fd in enumerate(fixed_dimensions(lifts, 60)):
            gd = generated_dimension([ub, c1b, zp], deg)
            assert fd == gd, (deg, fd, gd)
        # the count that `refl2 verify` compares with
        assert fixed_dimensions(lifts, 60) == free_dimensions([ub.deg(), c1b.deg(), 1], 60)
        # q = 2 against the plain Dickson pair and z, degrees 0..15
        ctx2 = field_new(1)
        _, S, T = sl2_generators(1, ctx2)
        c0, c1 = dickson_pair(1, ctx2)
        z = MultiPoly.variable(ctx2, 2)
        count = free_dimensions([c0.deg(), c1.deg(), 1], 15)
        assert fixed_dimensions([S, T], 15) == count
        assert count == [generated_dimension([c0, c1, z], deg) for deg in range(16)]


def test_criterion_9_expression_round_trip():
    with criterion(9, "expression round trip", 120.0):
        rng = random.Random(2026)
        ctx = field_new(2)
        ls = LambdaSpace(ctx, 2, ())
        lifts = list(lift_generators("h1", 2, ctx))
        fx, fy, fz = kernel_invariants(ls)
        desc = kernel_action(lifts, fx, fy, fz, n=2)
        ub, c1b, zp = composed_invariants(2, ls, desc)
        du, dc = ub.deg(), c1b.deg()
        done = 0
        while done < 100:
            deg = rng.randrange(0, 61)
            combos = [
                (a, b, deg - du * a - dc * b)
                for a in range(deg // du + 1)
                for b in range(deg // dc + 1)
                if deg - du * a - dc * b >= 0
            ]
            picked = {e: rng.randrange(1, 4) for e in combos if rng.random() < 0.5}
            if not picked:
                continue
            p = MultiPoly.zero(ctx)
            for (a, b, c), coeff in picked.items():
                p = p + ((ub**a) * (c1b**b) * (zp**c)).scale(coeff)
            expr = express_in_generators(p, (ub, c1b, zp), lifts)
            assert expr.substitute() == p
            assert dict(expr.terms) == picked
            done += 1


def test_criterion_10_negative_controls():
    with criterion(10, "negative controls", 60.0):
        ctx = field_new(2)
        ls = LambdaSpace(ctx, 2, (1,))
        N = kernel_group(ls)
        lifts = list(lift_generators("h1", 2, ctx))
        G = closure(lifts + N)

        # corrupting one lift's third column flips the splitting criterion
        R_l, S_l, T_l = lifts
        bad = Mat3(ctx, (
            (R_l.rows[0][0], 0, R_l.rows[0][2] ^ 0x2),
            (0, R_l.rows[1][1], R_l.rows[1][2]),
            (0, 0, 1),
        ))
        rep = verify_splitting(ls, [bad, S_l, T_l])
        assert not rep.is_split
        assert rep.intersection_order > 1
        assert rep.group_order == len(G)

        # at d=0 a perturbed column leaves the group: invariance flips
        ls0 = LambdaSpace(ctx, 2, ())
        fx0, fy0, fz0 = kernel_invariants(ls0)
        desc0 = kernel_action(lifts, fx0, fy0, fz0, n=2)
        ub0, c1b0, zp0 = composed_invariants(2, ls0, desc0)
        v_bad = kemper_check(60, [ub0, c1b0, zp0], [bad, S_l, T_l])
        assert not v_bad.polynomial
        assert "invariance" in v_bad.failed_clauses
        assert str(v_bad) == "FAIL(invariance)"

        # a deliberate degree mismatch fails with the clause named
        fx, fy, fz = kernel_invariants(ls)
        desc = kernel_action(lifts, fx, fy, fz, n=2)
        ub, c1b, zp = composed_invariants(2, ls, desc)
        v_deg = kemper_check(61, [ub, c1b, zp], lifts + N)
        assert not v_deg.polynomial
        assert v_deg.failed_clauses == ("degree-product",)
        assert str(v_deg) == "FAIL(degree-product)"

        # the CLI exit code separates check failures from config errors
        assert main(["verify", "--n", "1", "--quiet"]) == 2
        code, report = run_verify(VerifyConfig(n=2, d=1, max_group=59))
        assert code == EXIT_CHECK_FAILED
        assert report.verdict.startswith("FAIL(")
        code, report = run_verify(VerifyConfig(n=2, d=1, max_group=60))
        assert code == EXIT_OK and report.verdict == "POLYNOMIAL"
