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
from typing import NamedTuple

from refl2.ffield import field_new
from refl2.grouplift import (
    LambdaSpace,
    default_lambda_basis,
    kernel_group,
    lift_generators,
    verify_splitting,
)
from refl2.invariants import ActionShapeError, kernel_action, kernel_invariants
from refl2.verify import (
    ROW_BITS_CAP,
    fixed_dimensions,
    free_dimensions,
    kemper_lines,
    oracle_row_bits,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(ValueError):
    pass


class VerifyConfig(NamedTuple):
    n: int
    d: int = 0
    variant: str = "h1"
    modulus_ambient: int | None = None
    lambda_basis: tuple[int, ...] | None = None
    oracle_max_degree: int = 0
    max_group: int = 10**7


class VerificationReport:
    # the JSON keys, in report order
    __slots__ = (
        "n", "d", "variant", "moduli", "group_order", "split", "alpha", "action_note",
        "degrees", "degree_product", "jacobian_nonzero", "invariance", "oracle",
        "verdict", "elapsed_ms",
    )

    def __init__(self, n: int, d: int, variant: str, moduli: dict):
        self.n = n
        self.d = d
        self.variant = variant
        self.moduli = moduli
        self.group_order: int | None = None
        self.split: dict = {}
        self.alpha = "0x0"
        self.action_note = ""
        self.degrees: list = []
        self.degree_product: int | None = None
        self.jacobian_nonzero: bool | None = None
        self.invariance: list = []
        self.oracle: list = []
        self.verdict = "FAIL(incomplete)"
        self.elapsed_ms = 0

    def to_dict(self) -> dict:
        """The report's fields, in report order."""
        return {k: getattr(self, k) for k in self.__slots__}

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
    if cfg.d < 0:
        raise ConfigError("--d must be at least 0")
    ambient_degree = cfg.n * max(cfg.d, 1)
    modulus = cfg.modulus_ambient
    if modulus is not None:
        if modulus < 2:
            raise ConfigError(f"--modulus-ambient {modulus:#x} must have degree at least 1")
        ambient_degree = modulus.bit_length() - 1
        if ambient_degree % cfg.n:
            raise ConfigError(
                f"ambient degree {ambient_degree} is not a multiple of n={cfg.n}"
            )
    try:
        ctx = field_new(ambient_degree, modulus)
        basis = cfg.lambda_basis or default_lambda_basis(cfg.d, cfg.n, ctx)
        ls = LambdaSpace(ctx, cfg.n, basis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the oracle interleaves the three lifts and the 2d translations
    bits = oracle_row_bits(cfg.oracle_max_degree, 3 + 2 * len(basis), ctx.m)
    if bits > ROW_BITS_CAP:
        raise ConfigError(
            f"--oracle-max-degree {cfg.oracle_max_degree} needs oracle rows of "
            f"{bits} bits here, past the cap of {ROW_BITS_CAP}"
        )
    return ls


def _gen_labels(lifts, translations):
    labels = list(zip(("R", "S", "T"), lifts))
    for g in translations:
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
    for m in desc.maps:
        tx, ty = m.third_col()
        if tx or ty:
            a, b, c, d = m.block2()
            parts.append(
                f"lift with block ({a:#x},{b:#x};{c:#x},{d:#x}) acts affinely: "
                f"offsets ({tx:#x},{ty:#x})*z^{desc.zpow}"
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

    # the lifts generate H_gamma (gamma = e/(e + 1) under h1, 0 under h0),
    # of order |SL2(q)|, so |H| = q(q^2 - 1) and |N| = q^(2d) are known
    # before any group is built
    q = 1 << cfg.n
    if max(q * (q * q - 1), ls.kernel_order) > cfg.max_group:
        return _finish(report, ["group-cap"], start)
    try:
        lifts = list(lift_generators(cfg.variant, cfg.n, ctx))
    except ValueError as exc:  # 2^n - 1 has a factor past the proof bound
        raise ConfigError(str(exc)) from exc
    translations = kernel_group(ls)
    split = verify_splitting(ls, lifts)
    report.group_order = split.group_order
    report.split = {
        "complement_order": split.complement_order,
        "intersection_order": split.intersection_order,
    }
    if not split.is_split:
        failures.append("splitting")

    labels = _gen_labels(lifts, translations)
    gens = [g for _, g in labels]
    try:
        fx, fy, fz = kernel_invariants(ls)
        desc = kernel_action(gens, fx, fy, fz, n=cfg.n)
        report.alpha = f"{desc.alpha:#x}"
        report.action_note = _action_note(desc)

        # (u-bar, c1-bar, z) as the small family under the maps M_g, read off
        # their entries and closed forms in q; nothing is expanded
        verdict = kemper_lines(split.group_order, desc)
        report.degrees = list(verdict.degrees)
        report.invariance = [
            {"generator": name, "u": u, "c1": c1, "z": z}
            for (name, _), (u, c1, z) in zip(labels, verdict.fixed_by)
        ]
        report.degree_product = verdict.degree_product
        report.jacobian_nonzero = verdict.jacobian_nonzero
        failures.extend(verdict.failed_clauses)

        if cfg.oracle_max_degree > 0:
            # u-bar(x, y, 0) = u~(x^Q, y^Q, 0) with Q = q^d, and likewise
            # c1-bar, so independent leads of the small family at z = 0
            # make the generated side a count (refl2.verify module doc).
            # That restriction is the closed-form pair, whatever the lift,
            # with the leads lu = (q, 1) of x^q y + x y^q and
            # lc1 = (q^2 - q, 0) of c1's i = q term, and
            # det = -q (q - 1) != 0
            fixed = fixed_dimensions(gens, cfg.oracle_max_degree)
            generated = free_dimensions(report.degrees, cfg.oracle_max_degree)
            for deg, (fd, gd) in enumerate(zip(fixed, generated)):
                report.oracle.append(
                    {"degree": deg, "fixed_dim": fd, "generated_dim": gd}
                )
                if fd != gd and "oracle" not in failures:
                    failures.append("oracle")
    except ActionShapeError:
        failures.append("action-shape")
    return _finish(report, failures, start)


def _finish(report: VerificationReport, failures: list[str], start: float):
    """Set the verdict and elapsed time; the exit code and the report."""
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
    if d["group_order"] is not None:
        print(f"group       order {d['group_order']}", file=out)
    if d["split"]:
        print(
            f"split       complement {d['split']['complement_order']}, "
            f"intersection {d['split']['intersection_order']}",
            file=out,
        )
    if d["action_note"]:
        print(f"action      alpha={d['alpha']}; {d['action_note']}", file=out)
    if d["degrees"]:
        degs = "*".join(str(v) for v in d["degrees"])
        print(
            f"invariants  degrees {tuple(d['degrees'])} "
            f"(product {degs} = {d['degree_product']}), "
            f"jacobian_nonzero={d['jacobian_nonzero']}",
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


# -- argument parsing -------------------------------------------------------------


def _hex_int(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a hex bit-string: {text!r}") from exc


def _hex_list(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if "" in parts:
        raise argparse.ArgumentTypeError(f"empty item in the hex list {text!r}")
    return tuple(_hex_int(part) for part in parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refl2",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the full construction + verification")
    pv.add_argument("--n", type=int, required=True, help="subfield degree (n >= 2)")
    pv.add_argument("--d", type=int, default=None, help="dim of Lambda_1 over GF(2^n)")
    pv.add_argument("--variant", choices=("h1", "h0"), default="h1")
    pv.add_argument("--modulus-ambient", type=_hex_int, default=None, metavar="HEX")
    pv.add_argument(
        "--lambda-basis", type=_hex_list, default=None, metavar="HEX[,HEX...]"
    )
    pv.add_argument("--oracle-max-degree", type=int, default=0, metavar="K")
    pv.add_argument(
        "--max-group", type=int, default=10**7, metavar="SIZE", help="caps |N| and |H|"
    )
    pv.add_argument("--json", default=None, metavar="PATH")
    pv.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return EXIT_BAD_CONFIG if exc.code not in (0,) else 0
    try:
        cfg = VerifyConfig(
            n=args.n,
            d=len(args.lambda_basis or ()) if args.d is None else args.d,
            variant=args.variant,
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
