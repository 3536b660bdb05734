"""Command-line pipeline: construct the group, build the invariants,
verify polynomiality, and emit a deterministic report.

Exit codes: 0 = POLYNOMIAL verdict, 1 = a check failed (the verdict
names the failing clause), 2 = invalid configuration.  The JSON report
uses stable keys and is byte-identical across runs for identical
inputs, except for the wall-clock field elapsed_ms.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field

from refl2.ffield import FieldCtx, field_new, subfield_elements
from refl2.grouplift import (
    ClosureCapError,
    LambdaSpace,
    cocycle_f,
    cocycle_g,
    default_lambda_basis,
    kernel_group,
    lift_generators,
    sl2_elements,
    sl2_generators,
    verify_splitting,
)
from refl2.invariants import (
    ActionShapeError,
    composed_invariants,
    dickson_pair,
    dickson_support_check,
    dickson_u,
    kernel_action,
    kernel_invariants,
    lifted_invariants,
)
from refl2.mvpoly import MultiPoly, jacobian_det
from refl2.verify import fixed_dimensions, generated_dimension, kemper_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(ValueError):
    pass


@dataclass
class VerifyConfig:
    n: int
    d: int = 0
    variant: str = "h1"
    modulus_q: int | None = None
    modulus_ambient: int | None = None
    lambda_basis: tuple[int, ...] | None = None
    oracle_max_degree: int = 0
    max_group: int = 10**7


@dataclass
class VerificationReport:
    n: int
    d: int
    variant: str
    moduli: dict
    group_order: int | None = None
    split: dict = field(default_factory=dict)
    alpha: str = "0x0"
    action_note: str = ""
    degrees: list = field(default_factory=list)
    degree_product: int | None = None
    jacobian_nonzero: bool | None = None
    invariance: list = field(default_factory=list)
    oracle: list = field(default_factory=list)
    verdict: str = "FAIL(incomplete)"
    elapsed_ms: int = 0

    def to_dict(self) -> dict:
        """The report's fields, in field order."""
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _resolve_fields(cfg: VerifyConfig) -> LambdaSpace:
    """The Lambda space, over its ambient field, from the configuration."""
    if cfg.n < 2:
        raise ConfigError(
            "the verified statement assumes n > 1: the plane restriction is "
            "SL2(GF(2^n)) with n at least 2"
        )
    if cfg.variant not in ("h1", "h0"):
        raise ConfigError(f"unknown variant {cfg.variant!r}")
    if cfg.oracle_max_degree < 0:
        raise ConfigError("--oracle-max-degree must be at least 0")
    if cfg.max_group < 1:
        raise ConfigError("--max-group must be at least 1")
    if cfg.lambda_basis is not None and cfg.d != len(cfg.lambda_basis):
        raise ConfigError(
            f"--d {cfg.d} conflicts with a Lambda basis of size {len(cfg.lambda_basis)}"
        )
    if cfg.d < 0 or (cfg.lambda_basis is None and cfg.d > 2):
        raise ConfigError("default Lambda bases exist only for d in {0, 1, 2}")
    ambient_degree = cfg.n * (2 if cfg.d == 2 else 1)
    modulus = cfg.modulus_ambient
    if modulus is not None:
        ambient_degree = modulus.bit_length() - 1
        if ambient_degree % cfg.n:
            raise ConfigError(
                f"ambient degree {ambient_degree} is not a multiple of n={cfg.n}"
            )
    if cfg.modulus_q is not None:
        if cfg.modulus_q.bit_length() - 1 != cfg.n:
            raise ConfigError("--modulus-q must have degree n")
        if modulus is not None:
            raise ConfigError("pass only one of --modulus-q / --modulus-ambient")
        if ambient_degree != cfg.n:
            raise ConfigError(
                "with d = 2 the subfield sits inside the ambient field; "
                "pass --modulus-ambient instead of --modulus-q"
            )
        modulus = cfg.modulus_q
    try:
        ctx = (
            FieldCtx(ambient_degree, modulus)
            if modulus is not None
            else field_new(ambient_degree)
        )
        basis = cfg.lambda_basis or default_lambda_basis(cfg.d, cfg.n, ctx)
        return LambdaSpace(ctx, cfg.n, basis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _gen_labels(lifts, kernel_gens):
    labels = []
    for name, g in zip(("R", "S", "T"), lifts):
        labels.append((name, g))
    for g in kernel_gens:
        a, b = g.third_col()
        labels.append((f"N({a:#x},{b:#x})", g))
    return labels


def _action_note(desc) -> str:
    if desc.all_offsets_zero:
        return (
            "action on (f_x, f_y) is linear and equals the SL2 blocks; "
            "the kernel drops out of the composition"
        )
    parts = []
    for act in desc.actions:
        if act.offsets != (0, 0):
            (a, b), (c, d) = act.lin
            parts.append(
                f"lift with block ({a:#x},{b:#x};{c:#x},{d:#x}) acts affinely: "
                f"offsets ({act.offsets[0]:#x},{act.offsets[1]:#x})*z^{desc.zpow}"
            )
    parts.append("computed offset ratio between the rows equals e")
    return "; ".join(parts)


def run_verify(cfg: VerifyConfig) -> tuple[int, VerificationReport]:
    start = time.monotonic()
    ls = _resolve_fields(cfg)
    ctx, basis = ls.ambient, ls.basis
    report = VerificationReport(
        n=cfg.n,
        d=len(basis),
        variant=cfg.variant,
        moduli={
            "ambient": f"{ctx.modulus:#x}",
            "ambient_degree": ctx.m,
            "subfield_degree": cfg.n,
            "lambda_basis": [f"{b:#x}" for b in basis],
        },
    )
    failures: list[str] = []

    N = kernel_group(ls)
    lifts = list(lift_generators(cfg.variant, cfg.n, ctx))
    try:
        split = verify_splitting(N, lifts, cap=cfg.max_group)
    except ClosureCapError:
        report.verdict = "FAIL(group-cap)"
        report.elapsed_ms = int((time.monotonic() - start) * 1000)
        return EXIT_CHECK_FAILED, report
    report.group_order = split.group_order
    report.split = {
        "complement_order": split.complement_order,
        "intersection_order": split.intersection_order,
    }
    if not split.is_split:
        failures.append("splitting")

    fx, fy, fz = kernel_invariants(ls)
    try:
        desc = kernel_action(lifts, fx, fy, fz, n=cfg.n)
    except ActionShapeError:
        failures.append("action-shape")
        report.verdict = "FAIL(" + ",".join(failures) + ")"
        report.elapsed_ms = int((time.monotonic() - start) * 1000)
        return EXIT_CHECK_FAILED, report
    report.alpha = f"{desc.alpha:#x}"
    report.action_note = _action_note(desc)

    ub, c1b, zp = composed_invariants(cfg.n, ls, desc)
    invs = [ub, c1b, zp]
    report.degrees = [p.deg() for p in invs]

    labels = _gen_labels(lifts, N.generators)
    gens = [g for _, g in labels]
    verdict = kemper_check(split.group_order, invs, gens)
    report.invariance = [
        {"generator": name, "u": u, "c1": c1, "z": z}
        for (name, _), (u, c1, z) in zip(labels, verdict.fixed_by)
    ]
    report.degree_product = verdict.degree_product
    report.jacobian_nonzero = verdict.jacobian_nonzero
    failures.extend(verdict.failed_clauses)

    if cfg.oracle_max_degree > 0:
        for deg, fd in enumerate(fixed_dimensions(gens, cfg.oracle_max_degree)):
            gd = generated_dimension(invs, deg)
            report.oracle.append(
                {"degree": deg, "fixed_dim": fd, "generated_dim": gd}
            )
            if fd != gd and "oracle" not in failures:
                failures.append("oracle")

    report.verdict = "POLYNOMIAL" if not failures else "FAIL(" + ",".join(failures) + ")"
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    return (EXIT_OK if not failures else EXIT_CHECK_FAILED), report


def _print_report(report: VerificationReport, out=None):
    out = out if out is not None else sys.stdout
    d = report.to_dict()
    print(f"instance    n={d['n']} d={d['d']} variant={d['variant']}", file=out)
    print(
        f"fields      ambient={d['moduli']['ambient']} "
        f"lambda_basis=[{', '.join(d['moduli']['lambda_basis'])}]",
        file=out,
    )
    print(f"group       order {d['group_order']}", file=out)
    if d["split"]:
        print(
            f"split       complement {d['split']['complement_order']}, "
            f"intersection {d['split']['intersection_order']}",
            file=out,
        )
    print(f"action      alpha={d['alpha']}; {d['action_note']}", file=out)
    if d["degrees"]:
        degs = "*".join(str(v) for v in d["degrees"])
        print(
            f"invariants  degrees {tuple(d['degrees'])} (product {degs} = "
            f"{d['degree_product']}), jacobian_nonzero={d['jacobian_nonzero']}",
            file=out,
        )
    for entry in d["invariance"]:
        flags = ", ".join(f"{k}={entry[k]}" for k in ("u", "c1", "z"))
        print(f"fixed_by    {entry['generator']}: {flags}", file=out)
    for entry in d["oracle"]:
        print(
            f"oracle      degree {entry['degree']}: fixed {entry['fixed_dim']}, "
            f"generated {entry['generated_dim']}",
            file=out,
        )
    print(f"verdict     {d['verdict']} ({d['elapsed_ms']} ms)", file=out)


# -- selftest suites -------------------------------------------------------------


def _selftest_cocycle(log) -> tuple[int, int]:
    passed = failed = 0
    for n in (1, 2, 3):
        ctx = field_new(n)
        sub = [s.bits for s in subfield_elements(ctx, n)]
        mul = ctx.mul
        count = 0
        for a, b, c, d in sl2_elements(n, ctx):
            fab = cocycle_f(ctx.fel(a), ctx.fel(b), n).bits
            fcd = cocycle_f(ctx.fel(c), ctx.fel(d), n).bits
            for p in sub:
                for q in sub:
                    lhs = mul(p, fab) ^ mul(q, fcd)
                    u, v = mul(p, a) ^ mul(q, c), mul(p, b) ^ mul(q, d)
                    fuv = cocycle_f(ctx.fel(u), ctx.fel(v), n).bits
                    ok = lhs ^ cocycle_f(ctx.fel(p), ctx.fel(q), n).bits == fuv
                    ok &= lhs ^ cocycle_g(ctx.fel(p), ctx.fel(q), n).bits == fuv ^ 1
                    passed += ok
                    failed += not ok
                    count += 1
        homog = 0
        for t in sub:
            for a in sub:
                for b in sub:
                    lhs = cocycle_g(ctx.fel(mul(t, a)), ctx.fel(mul(t, b)), n).bits
                    ok = lhs == mul(t, cocycle_g(ctx.fel(a), ctx.fel(b), n).bits)
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
            u == x * y**q + x**q * y,
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
    for deg, fd in enumerate(fixed_dimensions([S, T], 15, 2)):
        ok = fd == generated_dimension([c0, c1], deg)
        passed += ok
        failed += not ok
    log("oracle q=2 on 2 vars: degrees 0..15 against (c0, c1)")
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


# -- argument parsing -------------------------------------------------------------


def _hex_int(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a hex bit-string: {text!r}") from exc


def _hex_list(text: str) -> tuple[int, ...]:
    return tuple(_hex_int(part) for part in text.split(",") if part)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refl2",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the full construction + verification")
    pv.add_argument("--n", type=int, required=True, help="subfield degree (n >= 2)")
    pv.add_argument("--d", type=int, default=0, help="dim of Lambda_1 over GF(2^n)")
    pv.add_argument("--variant", choices=("h1", "h0"), default="h1")
    pv.add_argument("--modulus-q", type=_hex_int, default=None, metavar="HEX")
    pv.add_argument("--modulus-ambient", type=_hex_int, default=None, metavar="HEX")
    pv.add_argument(
        "--lambda-basis", type=_hex_list, default=None, metavar="HEX[,HEX...]"
    )
    pv.add_argument("--oracle-max-degree", type=int, default=0, metavar="K")
    pv.add_argument("--max-group", type=int, default=10**7, metavar="SIZE")
    pv.add_argument("--json", default=None, metavar="PATH")
    pv.add_argument("--quiet", action="store_true")

    ps = sub.add_parser("selftest", help="run the exhaustive property suites")
    ps.add_argument(
        "scope", nargs="?", default="all", choices=("cocycle", "dickson", "oracle", "all")
    )
    ps.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return EXIT_BAD_CONFIG if exc.code not in (0,) else 0
    try:
        if args.command == "verify":
            cfg = VerifyConfig(
                n=args.n,
                d=args.d or len(args.lambda_basis or ()),
                variant=args.variant,
                modulus_q=args.modulus_q,
                modulus_ambient=args.modulus_ambient,
                lambda_basis=args.lambda_basis,
                oracle_max_degree=args.oracle_max_degree,
                max_group=args.max_group,
            )
            code, report = run_verify(cfg)
            if args.json:
                try:
                    with open(args.json, "w") as fh:
                        fh.write(report.to_json())
                except OSError as exc:
                    raise ConfigError(f"cannot write --json {args.json}: {exc}") from exc
            if not args.quiet:
                _print_report(report)
            return code
        return run_selftest(args.scope, quiet=args.quiet)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
