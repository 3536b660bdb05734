"""`refl2 selftest`: exhaustive property suites at small sizes.

    refl2 selftest [cocycle|dickson|oracle|all] [--quiet]

Each suite prints its counts and the run exits 0 when every check
passed, 1 otherwise.  `refl2.cli.main` imports this module for the
selftest command only, so a verify run never compiles it.
"""

from __future__ import annotations

from refl2.cli import EXIT_CHECK_FAILED, EXIT_OK, ConfigError, VerifyConfig, run_verify
from refl2.ffield import field_new, subfield_elements
from refl2.grouplift import (
    LambdaSpace,
    cocycle_f,
    cocycle_g,
    default_lambda_basis,
    sl2_elements,
    sl2_generators,
)
from refl2.invariants import (
    dickson_pair,
    dickson_support_check,
    dickson_u,
    kernel_invariants,
    lifted_invariants,
)
from refl2.mvpoly import MultiPoly, jacobian_det
from refl2.verify import fixed_dimensions, generated_dimension


def _selftest_cocycle(log) -> tuple[int, int]:
    passed = failed = 0
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
                    ok = lhs ^ cocycle_f(ctx, p, q, n) == fuv
                    ok &= lhs ^ cocycle_g(ctx, p, q, n) == fuv ^ 1
                    passed += ok
                    failed += not ok
                    count += 1
        homog = 0
        for t in sub:
            for a in sub:
                for b in sub:
                    lhs = cocycle_g(ctx, mul(t, a), mul(t, b), n)
                    ok = lhs == mul(t, cocycle_g(ctx, a, b, n))
                    passed += ok
                    failed += not ok
                    homog += 1
        log(f"cocycle n={n}: {count} identity instances, {homog} homogeneity instances")
    return passed, failed


def _selftest_dickson(log) -> tuple[int, int]:
    passed = failed = 0
    for n in (1, 2, 3):
        ctx = field_new(n)
        q = 1 << n
        x = MultiPoly.variable(ctx, 0)
        y = MultiPoly.variable(ctx, 1)
        c0, c1 = dickson_pair(n, ctx)
        u = dickson_u(n, ctx)
        ut, c1t = lifted_invariants(n, ctx)
        checks = [
            u * c1 == x * y ** (q * q) + x ** (q * q) * y,
            ut.restrict_z0() == u,
            c1t.restrict_z0() == c1,
            c0.deg() == q * q - 1,
            c1.deg() == q * q - q,
            u.deg() == q + 1,
        ]
        for g in sl2_generators(n, ctx):
            checks.append(c0.act(g) == c0)
            checks.append(c1.act(g) == c1)
            checks.append(u.act(g) == u)
        passed += sum(checks)
        failed += len(checks) - sum(checks)
        log(f"dickson n={n}: {len(checks)} identities checked")
    for n in (1, 2, 3):
        for d in (0, 1, 2):
            ctx = field_new(n * (2 if d == 2 else 1))
            ls = LambdaSpace(ctx, n, default_lambda_basis(d, n, ctx))
            fx, fy, fz = kernel_invariants(ls)
            checks = [
                dickson_support_check(fx, n, d),
                dickson_support_check(fy, n, d),
                not jacobian_det(fx, fy, fz).is_zero(),
            ]
            passed += sum(checks)
            failed += len(checks) - sum(checks)
    log("dickson support: n <= 3, d <= 2 swept")
    return passed, failed


def _selftest_oracle(log) -> tuple[int, int]:
    passed = failed = 0
    ctx = field_new(1)
    _, S, T = sl2_generators(1, ctx)
    c0, c1 = dickson_pair(1, ctx)
    z = MultiPoly.variable(ctx, 2)
    for deg, fd in enumerate(fixed_dimensions([S, T], 15)):
        ok = fd == generated_dimension([c0, c1, z], deg)
        passed += ok
        failed += not ok
    log("oracle q=2: degrees 0..15 against (c0, c1, z)")
    code, report = run_verify(VerifyConfig(n=2, d=0, oracle_max_degree=12))
    ok = code == EXIT_OK and all(
        e["fixed_dim"] == e["generated_dim"] for e in report.oracle
    )
    passed += ok
    failed += not ok
    log("oracle n=2 d=0: degrees 0..12 against (u-bar, c1-bar, z)")
    return passed, failed


def run_selftest(scope: str, quiet: bool = False) -> int:
    suites = {
        "cocycle": _selftest_cocycle,
        "dickson": _selftest_dickson,
        "oracle": _selftest_oracle,
    }
    if scope != "all" and scope not in suites:
        raise ConfigError(f"unknown selftest scope {scope!r}")
    selected = suites if scope == "all" else {scope: suites[scope]}
    log = (lambda msg: None) if quiet else (lambda msg: print(msg))
    total_pass = total_fail = 0
    for name, fn in selected.items():
        p, f = fn(log)
        total_pass += p
        total_fail += f
        log(f"{name}: {p} passed, {f} failed")
    log(f"selftest total: {total_pass} passed, {total_fail} failed")
    return EXIT_OK if total_fail == 0 else EXIT_CHECK_FAILED
