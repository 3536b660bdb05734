import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import refl2.cli
import refl2.verify
from refl2 import ffield, grouplift, invariants
from refl2.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    ConfigError,
    VerifyConfig,
    _resolve_fields,
    main,
    run_verify,
)
from refl2.grouplift import Mat3
from refl2.mvpoly import MultiPoly
from refl2.verify import ROW_BITS_CAP
from test_invariants import checked_plane_pair

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"

# GF(2^17), no log tables, and a cap that admits |H| and |N| at d <= 1
BIG_PRIME_FLAGS = ["--modulus-ambient", "0x20009", "--max-group", str(10**20)]

SCHEMA_KEYS = [
    "n",
    "d",
    "variant",
    "moduli",
    "group_order",
    "split",
    "alpha",
    "action_note",
    "degrees",
    "degree_product",
    "jacobian_nonzero",
    "invariance",
    "oracle",
    "verdict",
    "elapsed_ms",
]


def test_verify_n2_d0_h1():
    code, report = run_verify(VerifyConfig(n=2, d=0, variant="h1"))
    assert code == EXIT_OK
    d = report.to_dict()
    assert d["verdict"] == "POLYNOMIAL"
    assert d["group_order"] == 60
    assert d["degrees"] == [5, 12, 1]
    assert d["degree_product"] == 60
    assert d["jacobian_nonzero"] is True
    assert d["split"] == {"complement_order": 60, "intersection_order": 1}
    assert all(e["u"] and e["c1"] and e["z"] for e in d["invariance"])
    assert list(d.keys()) == SCHEMA_KEYS


def test_verify_n2_d0_h0_linear_action():
    code, report = run_verify(VerifyConfig(n=2, d=0, variant="h0"))
    assert code == EXIT_OK
    d = report.to_dict()
    assert d["degrees"] == [5, 12, 1]
    assert d["alpha"] == "0x0"
    assert "linear" in d["action_note"]


def test_verify_rejects_n1():
    with pytest.raises(ConfigError, match="n > 1"):
        run_verify(VerifyConfig(n=1))


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["verify", "--n", "1"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "n > 1" in err
    out = tmp_path / "r.json"
    assert main(["verify", "--n", "2", "--quiet", "--json", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["verdict"] == "POLYNOMIAL"
    assert list(data.keys()) == SCHEMA_KEYS


def test_cli_bad_flags(capsys):
    assert main(["verify"]) == EXIT_BAD_CONFIG  # --n required
    assert main(["verify", "--n", "2", "--variant", "h2"]) == EXIT_BAD_CONFIG
    assert main(["verify", "--n", "2", "--modulus-ambient", "zz"]) == EXIT_BAD_CONFIG
    capsys.readouterr()
    assert main(["verify", "--n", "2", "--threads", "1"]) == EXIT_BAD_CONFIG
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert main(["verify", "--n", "2", "--modulus-q", "0x7"]) == EXIT_BAD_CONFIG
    assert "unrecognized arguments: --modulus-q" in capsys.readouterr().err
    # the property suites live in the tests, not behind a subcommand
    assert main(["selftest"]) == EXIT_BAD_CONFIG
    assert main(["selftest", "cocycle", "--quiet"]) == EXIT_BAD_CONFIG
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--lambda-basis", "0x0"],
        ["--lambda-basis", "0x1,0x1"],
        ["--d", "2", "--modulus-ambient", "0x7"],
        ["--oracle-max-degree", "-3"],
        ["--max-group", "0"],
        ["--max-group", "-5"],
        ["--d", "3", "--lambda-basis", "0x2"],
        ["--d", "0", "--lambda-basis", "0x1"],
        ["--oracle-max-degree", "1000000000000"],
        ["--modulus-ambient", "0x0"],
        ["--modulus-ambient", "0x1"],
        ["--d", "-1"],
        # n*d = 6 exceeds the ambient degree 4, so 1, theta, theta^2 are
        # dependent over GF(4)
        ["--d", "3", "--modulus-ambient", "0x13"],
        ["--d", "33"],  # m = 66: the default moduli stop at m = 64
    ],
    ids=[
        "zero-basis",
        "dependent-basis",
        "basis-in-subfield",
        "negative-oracle",
        "zero-group-cap",
        "negative-group-cap",
        "d-conflicts-with-basis",
        "d0-conflicts-with-basis",
        "oracle-past-row-cap",
        "zero-modulus",
        "constant-modulus",
        "negative-d",
        "default-basis-past-ambient-degree",
        "no-default-modulus-past-m-64",
    ],
)
def test_cli_bad_configuration_exits_2(flags, capsys):
    assert main(["verify", "--n", "2", "--quiet"] + flags) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--d", "2", "--modulus-ambient", "0x43", "--lambda-basis", "0x1,,0x13"],
        ["--lambda-basis", ","],
        ["--lambda-basis", ""],
    ],
    ids=["empty-middle-item", "two-empty-items", "empty-list"],
)
def test_cli_lambda_basis_empty_item_exits_2(flags, capsys):
    # an empty item is refused, not dropped: dropped, the first list would
    # run as the basis 0x1,0x13 and the last two as d=0, and exit 0
    assert main(["verify", "--n", "2", "--quiet"] + flags) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert "argument --lambda-basis: empty item" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_modulus_of_degree_0_named(capsys):
    assert main(["verify", "--n", "2", "--modulus-ambient", "0x0"]) == EXIT_BAD_CONFIG
    assert "degree at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("d_flag", [[], ["--d", "1"]], ids=["basis-sets-d", "d-agrees"])
def test_cli_lambda_basis_with_or_without_d(d_flag):
    flags = ["--modulus-ambient", "0x13", "--lambda-basis", "0x2"] + d_flag
    assert main(["verify", "--n", "2", "--quiet"] + flags) == EXIT_OK


@pytest.mark.parametrize("where", ["missing-dir", "is-a-dir"])
def test_cli_unwritable_json_exits_2(where, tmp_path, capsys):
    path = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    assert main(["verify", "--n", "2", "--quiet", "--json", str(path)]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_cli_modulus_overrides():
    # GF(8) given by the other irreducible cubic t^3+t^2+1 = 0xd
    code, report = run_verify(VerifyConfig(n=3, d=0, modulus_ambient=0xD))
    assert code == EXIT_OK
    assert report.to_dict()["moduli"]["ambient"] == "0xd"
    with pytest.raises(ConfigError):
        run_verify(VerifyConfig(n=2, d=0, modulus_ambient=0x5))  # reducible


def test_cli_ambient_past_the_table_limit(capsys):
    # GF(2^18) has no log tables: the GF(4) subfield comes from one element
    # of order 3, not from a scan of the 2^18 elements
    argv = ["verify", "--n", "2", "--modulus-ambient", "0x40009"]
    assert main(argv) == EXIT_OK
    assert "verdict     POLYNOMIAL" in capsys.readouterr().out


def test_verify_whole_field_lists_no_subfield(monkeypatch):
    # at d = 1 the subfield is the whole ambient field, and at d = 2 a
    # proper subfield of GF(2^32): both generators come from counting
    # through an echelon basis, so a run lists none of the 2^16 elements
    def refuse(*args):
        raise AssertionError("a subfield was listed")

    for module in (ffield, grouplift, invariants):
        monkeypatch.setattr(module, "subfield_elements", refuse)
    for d in (1, 2):
        code, report = run_verify(VerifyConfig(n=16, d=d, max_group=10**20))
        assert code == EXIT_OK
        assert report.to_dict()["verdict"] == "POLYNOMIAL"


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "8", "--d", "3", "--max-group", str(10**20)],
        # |H| = q(q^2 - 1) = 4.7e21 at q = 2^24
        ["--n", "24", "--d", "0", "--max-group", str(10**22)],
        ["--n", "2", "--lambda-basis", "0x1,0x2,0x4"],
    ],
    ids=["default-basis-d3", "default-modulus-m24", "basis-d3-default-modulus"],
)
def test_cli_defaults_past_d2_and_m20_exit_0(flags, capsys):
    # past d = 2 and m = 20 on the default moduli and bases: the ambient
    # degree is n * max(d, 1), and an explicit basis of size d sets d
    assert main(["verify", "--quiet"] + flags) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "modulus",
    [
        pytest.param("0x1000000000000001B", id="x^64+x^4+x^3+x+1"),
        # 2^62 - 1 = 3 * 715827883 * 2147483647
        pytest.param("0x4000000000000069", id="degree-62"),
    ],
)
def test_cli_large_ambient_moduli(modulus, capsys):
    # Rabin's test checks the modulus in m squarings, where trial division
    # took about 2^(m/2) steps, and the GF(4) subfield comes without
    # factoring 2^m - 1 by trial division
    start = time.process_time()
    assert main(["verify", "--n", "2", "--modulus-ambient", modulus]) == EXIT_OK
    assert time.process_time() - start < 5
    assert "verdict     POLYNOMIAL" in capsys.readouterr().out


def test_cli_lambda_basis_override():
    # theta-basis inside GF(16): the nonzero-offset route
    code, report = run_verify(
        VerifyConfig(n=2, d=1, modulus_ambient=0x13, lambda_basis=(0x2,))
    )
    assert code == EXIT_OK
    d = report.to_dict()
    assert d["group_order"] == 960
    assert d["degrees"] == [20, 48, 1]
    assert d["alpha"] != "0x0"
    assert "affinely" in d["action_note"]


def test_cli_report_byte_stable():
    _, r1 = run_verify(VerifyConfig(n=2, d=0))
    _, r2 = run_verify(VerifyConfig(n=2, d=0))
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1["elapsed_ms"] = d2["elapsed_ms"] = 0
    assert json.dumps(d1) == json.dumps(d2)


def test_cli_report_mentions_offsets_h1_d0():
    _, report = run_verify(VerifyConfig(n=2, d=0, variant="h1"))
    d = report.to_dict()
    assert d["alpha"] == "0x1"
    assert "offset ratio" in d["action_note"]


def test_cli_oracle_sweep_flag():
    code, report = run_verify(VerifyConfig(n=2, d=0, oracle_max_degree=8))
    assert code == EXIT_OK
    d = report.to_dict()
    assert [e["degree"] for e in d["oracle"]] == list(range(9))
    assert all(e["fixed_dim"] == e["generated_dim"] for e in d["oracle"])
    assert list(d["oracle"][0].keys()) == ["degree", "fixed_dim", "generated_dim"]


def test_cli_oracle_sweep_past_degree_60():
    # one sweep keeps the echelon rows of every degree; the per-degree
    # dense matrices this replaced needed over 1 GB at degree 70
    code, report = run_verify(VerifyConfig(n=2, d=0, oracle_max_degree=70))
    assert code == EXIT_OK and report.verdict == "POLYNOMIAL"
    assert [e["degree"] for e in report.oracle] == list(range(71))
    assert all(e["fixed_dim"] == e["generated_dim"] for e in report.oracle)


def test_cli_oracle_row_cap_boundary():
    # n=2 d=0: three generators and 2-bit lanes, so a row of the sweep to
    # degree D has (D+1)^2 * 6 bits; the top degree under the cap passes
    top = math.isqrt(ROW_BITS_CAP // 6) - 1
    _resolve_fields(VerifyConfig(n=2, oracle_max_degree=top))
    with pytest.raises(ConfigError, match="past the cap"):
        _resolve_fields(VerifyConfig(n=2, oracle_max_degree=top + 1))
    # n=2 d=1 interleaves five generators, so its top degree is lower
    with pytest.raises(ConfigError, match="past the cap"):
        _resolve_fields(VerifyConfig(n=2, d=1, oracle_max_degree=top))


# the instances perfbench/run.py times, by workload name
BENCH_INSTANCES = {
    "verify-closure": VerifyConfig(n=3, d=1),
    "verify-invariants": VerifyConfig(n=3, d=0),
    "verify-oracle": VerifyConfig(n=2, d=0, oracle_max_degree=60),
}


@pytest.mark.parametrize("workload", sorted(BENCH_INSTANCES))
def test_verify_matches_benchmark_reports(workload):
    # the checked-in reports every benchmark sample is compared with
    with open(EXPECTED / f"{workload}.json") as fh:
        expected = json.load(fh)
    code, report = run_verify(BENCH_INSTANCES[workload])
    d = report.to_dict()
    del d["elapsed_ms"]
    assert code == EXIT_OK
    assert d == expected


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, refl2.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_loads_no_dataclasses_inspect_or_numpy():
    # a subprocess, since pytest itself imports dataclasses
    unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize", "numpy"}
    code = f"import sys, refl2.cli; print(sorted({unwanted!r} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


def test_cli_human_output(capsys):
    assert main(["verify", "--n", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict     POLYNOMIAL" in out
    assert "order 60" in out


def test_cli_capped_output_prints_only_what_was_computed(capsys):
    # the group cap stops the run before the group order and the action
    assert main(["verify", "--n", "2", "--max-group", "10"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["instance", "fields", "verdict"]
    assert lines[-1].startswith("verdict     FAIL(group-cap) (")
    # the JSON keeps every key
    _, report = run_verify(VerifyConfig(n=2, max_group=10))
    r = json.loads(report.to_json())
    assert (r["group_order"], r["alpha"], r["action_note"]) == (None, "0x0", "")


def test_cli_degree_62_default_basis_factors_fast(capsys):
    # the default d = 2 basis needs a generator of GF(2^62), so
    # 2^62 - 1 = 3 * 715827883 * 2147483647 is factored; trial division
    # took about 7 * 10^8 steps, Pollard's rho a few thousand
    start = time.process_time()
    argv = ["verify", "--n", "31", "--d", "2", "--modulus-ambient", "0x4000000000000069"]
    assert main(argv) == EXIT_CHECK_FAILED
    assert time.process_time() - start < 5
    assert "verdict     FAIL(group-cap)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, proven, prime",
    [
        pytest.param(["--n", "7", "--d", "2"], 100, 127, id="n7-d2"),
        pytest.param(["--n", "17", "--d", "0", *BIG_PRIME_FLAGS], 100_000, 131071, id="n17-d0"),
        pytest.param(["--n", "17", "--d", "1", *BIG_PRIME_FLAGS], 100_000, 131071, id="n17-d1"),
    ],
)
def test_cli_unproven_prime_exits_2(monkeypatch, capsys, flags, proven, prime):
    # a prime factor that Miller-Rabin cannot prove is refused, not
    # trusted: with the proof bound lowered below 127, GF(2^14) and its
    # 2^14 - 1 = 3 * 43 * 127 make a configuration error.  GF(2^17) has no
    # tables, so 2^17 - 1 is first factored for the lifts, after the cap
    # comparison, and is refused there too
    monkeypatch.setattr(ffield, "_PRIME_PROVEN", proven)
    assert main(["verify", *flags, "--quiet"]) == EXIT_BAD_CONFIG
    assert f"cannot prove {prime} prime" in capsys.readouterr().err


def test_cli_two_large_prime_factors_exit_2():
    # x^178 + x^87 + 1: 2^178 - 1 has the large primes of 2^89 - 1 and
    # 2^89 + 1, which rho alone would take about 10^8 steps to split
    # apart; split into those halves first, the unprovable 2^89 - 1 is
    # refused at once.  A subprocess, so that a hang fails the test
    argv = ["verify", "--n", "89", "--d", "2", "--quiet"]
    argv += ["--modulus-ambient", "0x400000000000000000000008000000000000000000001"]
    code = f"import sys, refl2.cli; sys.exit(refl2.cli.main({argv!r}))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == EXIT_BAD_CONFIG
    assert "cannot prove 618970019642690137449562111 prime" in run.stderr


def test_verify_max_group_cap():
    # the cap is compared with |H| = |SL2(GF(4))| = 60
    code, report = run_verify(VerifyConfig(n=2, d=1, max_group=59))
    assert code == EXIT_CHECK_FAILED
    assert report.to_dict()["verdict"] == "FAIL(group-cap)"
    code, report = run_verify(VerifyConfig(n=2, d=1, max_group=60))
    assert code == EXIT_OK
    assert report.to_dict()["verdict"] == "POLYNOMIAL"


def test_verify_h_cap_fails_before_any_product(monkeypatch):
    # n=4: the lifts' blocks generate SL2(GF(16)), so |H| >= 16 * 255 = 4080
    products = []
    mul = Mat3.__mul__

    def counted(*args):
        products.append(args)
        return mul(*args)

    monkeypatch.setattr(Mat3, "__mul__", counted)
    code, report = run_verify(VerifyConfig(n=4, d=0, max_group=4079))
    assert code == EXIT_CHECK_FAILED
    assert report.to_dict()["verdict"] == "FAIL(group-cap)"
    assert products == []


def test_verify_conjugates_no_translation(monkeypatch):
    # N's normality follows from the shape of the lift blocks, so no run
    # tests a conjugate for membership in N
    def refuse(self, m):
        raise AssertionError("kernel_contains called")

    monkeypatch.setattr(grouplift.LambdaSpace, "kernel_contains", refuse)
    code, report = run_verify(VerifyConfig(n=2, d=2, oracle_max_degree=8))
    assert code == EXIT_OK
    assert report.to_dict()["verdict"] == "POLYNOMIAL"


def test_verify_max_group_caps_kernel():
    # n=2 d=2: |N| = 16^2 = 256 is checked before N is built, |H| = 60
    code, report = run_verify(VerifyConfig(n=2, d=2, max_group=255))
    assert code == EXIT_CHECK_FAILED
    assert report.to_dict()["verdict"] == "FAIL(group-cap)"
    argv = ["verify", "--n", "2", "--d", "2", "--max-group", "255", "--quiet"]
    assert main(argv) == EXIT_CHECK_FAILED
    code, report = run_verify(VerifyConfig(n=2, d=2, max_group=256))
    assert code == EXIT_OK
    assert report.to_dict()["verdict"] == "POLYNOMIAL"


def test_verify_action_shape_failure_keeps_the_split(monkeypatch):
    # a kernel action of the wrong shape is a failed check, after the split
    def misshapen(*args, **kwargs):
        raise invariants.ActionShapeError("a block entry outside GF(q)")

    monkeypatch.setattr(refl2.cli, "kernel_action", misshapen)
    code, report = run_verify(VerifyConfig(n=2, d=1))
    r = report.to_dict()
    assert (code, r["verdict"]) == (EXIT_CHECK_FAILED, "FAIL(action-shape)")
    assert r["group_order"] == 960
    assert r["split"] == {"complement_order": 60, "intersection_order": 1}
    assert (r["degrees"], r["alpha"], r["action_note"]) == ([], "0x0", "")
    assert list(r) == SCHEMA_KEYS


def test_verify_n2_d1_criterion_small_and_oracle_expanded(degree_spy, capsys):
    # n=2 d=1: the criterion runs on the small family, of degrees 5 and 12,
    # and the oracle counts from the degrees; neither expands c1-bar, of
    # degree 48
    assert run_verify(VerifyConfig(n=2, d=1))[0] == EXIT_OK
    assert degree_spy.top <= 15  # q^2 - 1
    code, report = run_verify(VerifyConfig(n=2, d=1, oracle_max_degree=20))
    assert code == EXIT_OK
    assert report.to_dict()["verdict"] == "POLYNOMIAL"
    assert report.to_dict()["group_order"] == 960
    argv = ["verify", "--n", "2", "--d", "1", "--oracle-max-degree", "20"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert (
        "invariants  degrees (20, 48, 1) (product 20*48*1 = 960), "
        "jacobian_nonzero=True\n" in out
    )
    assert "None" not in out


def test_verify_n5_d2_oracle_expands_c1bar():
    # c1-bar has degree 992 * 1024; the oracle counts from the degrees
    # and never builds it, and its sweep to degree 2 sees z alone
    code, report = run_verify(VerifyConfig(n=5, d=2, oracle_max_degree=2))
    r = report.to_dict()
    assert (code, r["verdict"]) == (EXIT_OK, "POLYNOMIAL")
    assert r["oracle"] == [
        {"degree": k, "fixed_dim": 1, "generated_dim": 1} for k in range(3)
    ]


@pytest.mark.parametrize("n, d, top", [(2, 1, 20), (3, 1, 30), (4, 1, 10), (5, 2, 2)])
def test_verify_oracle_builds_no_composed_invariant(degree_spy, n, d, top):
    # the generated side is counted from the degrees: no product or square
    # passes q^2 - 1, where u-bar and c1-bar reach (q^2 - q) q^d
    code, report = run_verify(VerifyConfig(n=n, d=d, oracle_max_degree=top))
    r = report.to_dict()
    assert (code, r["verdict"]) == (EXIT_OK, "POLYNOMIAL")
    assert len(r["oracle"]) == top + 1
    assert degree_spy.top <= (1 << 2 * n) - 1


def test_verify_oracle_refuses_dependent_leads(monkeypatch, capsys):
    # negative control: (u, u^2) has dependent leads, so the count is not
    # its generated dimension, and a zero Jacobian.  The oracle's count and
    # the criterion read the closed-form leads and Jacobian of the plane
    # pair, which the test-side check refuses for (u, u^2); the run reads
    # no pair and calls no `restricted_leads`
    ctx = ffield.field_new(2)
    x, y = (MultiPoly.variable(ctx, i) for i in (0, 1))
    u, _ = invariants._dickson(4, x, y)
    with pytest.raises(invariants.ActionShapeError, match="jacobian, leads"):
        checked_plane_pair(ctx, 2, (u, u * u))
    refuse_expansion(monkeypatch)
    monkeypatch.setattr(refl2.verify, "restricted_leads", refuse)
    assert main(["verify", "--n", "2", "--oracle-max-degree", "5"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].startswith("verdict     POLYNOMIAL")


def plane_form_edit(edit):
    """(name, replacement) for `_forms` with its last plane form (gscale 0)
    replaced by edit(ctx, n, forms)."""
    forms = invariants._forms

    def edited(ctx, n, gscale):
        out = forms(ctx, n, gscale)
        if gscale == 0:
            out[-1] = edit(ctx, n, out)
        return out

    return "_forms", edited


def off_the_line(ctx, n, out):
    return (1, next(v for v in range(ctx.order) if not ctx.in_subfield(v, n)), 0)


def repeated(ctx, n, out):
    return out[-2]


def unnormalized(ctx, n, out):
    e = ffield.subfield_generator(ctx, n)
    return (e, ctx.mul(e, out[-1][1]), 0)


def u_plus_x_q1():
    """(name, replacement) for `_dickson` with u + x^(q+1) for u."""
    dickson = invariants._dickson

    def stray(q, X, Y):
        u, c1 = dickson(q, X, Y)
        return u + X ** (q + 1), c1

    return "_dickson", stray


@pytest.mark.parametrize(
    "corrupt, check",
    [
        pytest.param(lambda: plane_form_edit(off_the_line), "points", id="slope-off-gf-q"),
        pytest.param(lambda: plane_form_edit(repeated), "points", id="repeated-point"),
        pytest.param(lambda: plane_form_edit(unnormalized), "points", id="unnormalized-form"),
        pytest.param(u_plus_x_q1, "u", id="u-plus-x-q1"),
    ],
)
def test_verify_plane_form_off_the_line_fails_action_shape(monkeypatch, corrupt, check):
    # negative controls: a plane form x + s y with s outside GF(q), a
    # repeated point, an unnormalized form (e, e s) or a closed-form u with a
    # stray x^(q+1): the plane forms are then not the points of P^1(GF(q))
    # or u is not x^q y + x y^q, and the test-side check of the facts a run
    # reads in closed form refuses the pair.  The run reads neither the
    # forms nor the pair, so it passes, with the oracle or without
    monkeypatch.setattr(invariants, *corrupt())
    with pytest.raises(invariants.ActionShapeError, match=check):
        checked_plane_pair(ffield.field_new(4, 0x13), 2)
    for oracle in (5, 0):
        code, report = run_verify(VerifyConfig(n=2, modulus_ambient=0x13, oracle_max_degree=oracle))
        assert (code, report.to_dict()["verdict"]) == (EXIT_OK, "POLYNOMIAL")


def refuse(*args):
    raise AssertionError("the expanded criterion, family, a product or a division ran")


def refuse_expansion(monkeypatch):
    """Make the expanded criterion, the line forms, the closed-form and the
    lifted family, exact division, every `MultiPoly` product and Frobenius
    power and the Jacobian raise: `run_verify` names neither
    `kemper_check` nor an expanded small family, lists no forms and
    multiplies no polynomial."""
    assert not hasattr(refl2.cli, "kemper_check") and not hasattr(refl2.cli, "small_family")
    monkeypatch.setattr(refl2.verify, "kemper_check", refuse)
    monkeypatch.setattr(refl2.verify, "jacobian_det", refuse)
    for name in ("_forms", "_dickson", "_lifted_family"):
        monkeypatch.setattr(invariants, name, refuse)
    for name in ("div_exact", "__mul__", "frobenius"):
        monkeypatch.setattr(MultiPoly, name, refuse)


def test_verify_oracle_premise_expands_no_small_family(monkeypatch, capsys):
    # the lifted family's restriction to z = 0 is the closed-form pair, so
    # the oracle's lead premise is read off q and multiplies no polynomial
    refuse_expansion(monkeypatch)
    assert main(["verify", "--n", "4", "--d", "0", "--oracle-max-degree", "10"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].startswith("verdict     POLYNOMIAL")


@pytest.mark.parametrize(
    "n, d, degrees, order",
    [
        (4, 1, (272, 3840, 1), 1044480),
        (4, 2, (4352, 61440, 1), 267386880),
        (5, 1, (1056, 31744, 1), 33521664),
        (5, 2, (33792, 1015808, 1), 34326183936),
    ],
)
def test_verify_scale_ladder_under_a_low_degree_cap(degree_spy, n, d, degrees, order):
    # no product or power passes degree q^2 - 1: the criterion expands only
    # the small family, never u-bar or c1-bar
    code, report = run_verify(VerifyConfig(n=n, d=d))
    r = report.to_dict()
    assert (code, r["verdict"]) == (EXIT_OK, "POLYNOMIAL")
    assert tuple(r["degrees"]) == degrees
    assert r["degree_product"] == r["group_order"] == order
    assert degree_spy.top <= (1 << 2 * n) - 1


@pytest.mark.parametrize("variant", ["h1", "h0"])
def test_verify_n4_d0_under_the_numerator_degree_cap(degree_spy, variant):
    # the criterion reads the line forms and checks the plane pair by the
    # product rule, so neither the lifted c1~ (h1) nor its numerator
    # sum_L L (u~/L)^q, of degree q^2 + 1, is built: nothing passes q^2 - 1
    for n, degrees, order in ((4, (17, 240, 1), 4080), (5, (33, 992, 1), 32736)):
        degree_spy.top = -1
        code, report = run_verify(VerifyConfig(n=n, d=0, variant=variant))
        r = report.to_dict()
        assert (code, r["verdict"]) == (EXIT_OK, "POLYNOMIAL")
        assert tuple(r["degrees"]) == degrees
        assert r["degree_product"] == r["group_order"] == order
        assert degree_spy.top <= (1 << 2 * n) - 1


def test_verify_builds_only_the_kernel_generators(monkeypatch):
    # n=2 d=2: N = Lambda_1^2 has 4^4 = 256 elements; only the 2d = 4
    # translations that generate it with the lifts are built
    built = []
    translation = Mat3.translation

    def counted(*args):
        built.append(args[1:])
        return translation(*args)

    monkeypatch.setattr(Mat3, "translation", counted)
    code, report = run_verify(VerifyConfig(n=2, d=2))
    assert code == EXIT_OK
    assert report.to_dict()["group_order"] == 256 * 60
    assert len(built) <= 4


def test_verify_n3_d2_without_enumerating_group():
    code, report = run_verify(VerifyConfig(n=3, d=2))
    assert code == EXIT_OK
    d = report.to_dict()
    assert d["group_order"] == 2_064_384
    assert d["split"] == {"complement_order": 504, "intersection_order": 1}
    assert d["degrees"] == [576, 3584, 1]


@pytest.mark.parametrize(
    "cfg, degrees",
    [
        pytest.param(VerifyConfig(n=6), [65, 4032, 1], id="6-0-h1"),
        pytest.param(VerifyConfig(n=6, variant="h0"), [65, 4032, 1], id="6-0-h0"),
        pytest.param(VerifyConfig(n=5, d=1), [1056, 31744, 1], id="5-1-h1"),
        pytest.param(VerifyConfig(n=3, d=2), [576, 3584, 1], id="3-2-h1"),
        pytest.param(
            VerifyConfig(n=2, variant="h0", modulus_ambient=0x13, lambda_basis=(0x2,), d=1),
            [20, 48, 1],
            id="2-h0-0x13-0x2",
        ),
    ],
)
def test_verify_reads_the_line_forms(monkeypatch, cfg, degrees):
    # a passing run, with a lifted (6-0-h1) or a closed-form small family
    # (the others), d = 2 included, decides the criterion from the maps M_g
    # and closed forms in q: no form is listed, and no polynomial is
    # multiplied, expanded or divided
    refuse_expansion(monkeypatch)
    code, report = run_verify(cfg)
    r = report.to_dict()
    assert (code, r["verdict"], r["degrees"]) == (EXIT_OK, "POLYNOMIAL", degrees)
    assert r["degree_product"] == r["group_order"]


def test_verify_stray_term_in_c1_fails_action_shape(monkeypatch):
    # negative control for the product-rule check: c1 with one stray term
    # x^(q^2 - q) fails c1 (x^(q-1) + y^(q-1)) = x^(q^2-1) + y^(q^2-1), so
    # the test-side check of the closed-form pair refuses it; the stray
    # term cancels c1's lead x^(q^2 - q), so the leads fail too, while the
    # Jacobian, blind to an even power of x, holds
    dickson = invariants._dickson

    def stray(q, X, Y):
        u, c1 = dickson(q, X, Y)
        return u, c1 + X ** (q * q - q)

    monkeypatch.setattr(invariants, "_dickson", stray)
    with pytest.raises(invariants.ActionShapeError, match="fails: c1, leads$"):
        checked_plane_pair(ffield.field_new(3), 3)


def test_verify_n7_d1_splits_without_listing_h(monkeypatch):
    # |H| = 2 097 024 = 129 * 128 * 127: the presentation of SL2(q) gives
    # it with no closure
    def refuse(*args, **kwargs):
        raise AssertionError("H was listed")

    monkeypatch.setattr(grouplift, "closure", refuse)
    code, report = run_verify(VerifyConfig(n=7, d=1))
    r = report.to_dict()
    assert (code, r["verdict"]) == (EXIT_OK, "POLYNOMIAL")
    assert r["split"] == {"complement_order": 2097024, "intersection_order": 1}
    assert r["group_order"] == 16384 * 2097024
