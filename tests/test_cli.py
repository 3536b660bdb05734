import json
import os
import subprocess
import sys

import pytest

from refl2.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    ConfigError,
    VerifyConfig,
    main,
    run_selftest,
    run_verify,
)

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
    assert main(["verify", "--n", "2", "--modulus-q", "zz"]) == EXIT_BAD_CONFIG
    capsys.readouterr()
    assert main(["verify", "--n", "2", "--threads", "1"]) == EXIT_BAD_CONFIG
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


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
    ],
    ids=[
        "zero-basis",
        "dependent-basis",
        "basis-in-subfield",
        "negative-oracle",
        "zero-group-cap",
        "negative-group-cap",
        "d-conflicts-with-basis",
    ],
)
def test_cli_bad_configuration_exits_2(flags, capsys):
    assert main(["verify", "--n", "2", "--quiet"] + flags) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


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
    code, report = run_verify(VerifyConfig(n=3, d=0, modulus_q=0xD))
    assert code == EXIT_OK
    assert report.to_dict()["moduli"]["ambient"] == "0xd"
    with pytest.raises(ConfigError):
        run_verify(VerifyConfig(n=2, d=0, modulus_q=0x5))  # reducible
    with pytest.raises(ConfigError):
        run_verify(VerifyConfig(n=2, d=2, modulus_q=0x7))  # needs ambient modulus
    with pytest.raises(ConfigError):
        run_verify(VerifyConfig(n=2, d=0, modulus_q=0x7, modulus_ambient=0x13))


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


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, refl2.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_human_output(capsys):
    assert main(["verify", "--n", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict     POLYNOMIAL" in out
    assert "order 60" in out


def test_selftest_scopes(capsys):
    assert run_selftest("cocycle") == EXIT_OK
    out = capsys.readouterr().out
    assert "cocycle n=2: 960 identity instances" in out
    assert run_selftest("dickson", quiet=True) == EXIT_OK
    with pytest.raises(ConfigError):
        run_selftest("bogus")


def test_selftest_cli_entry(capsys):
    assert main(["selftest", "cocycle", "--quiet"]) == EXIT_OK
    assert main(["selftest", "nope"]) == EXIT_BAD_CONFIG


def test_verify_max_group_cap():
    # the cap bounds the enumerated complement, |H| = |SL2(GF(4))| = 60
    code, report = run_verify(VerifyConfig(n=2, d=1, max_group=59))
    assert code == EXIT_CHECK_FAILED
    assert report.to_dict()["verdict"] == "FAIL(group-cap)"
    code, report = run_verify(VerifyConfig(n=2, d=1, max_group=60))
    assert code == EXIT_OK
    assert report.to_dict()["verdict"] == "POLYNOMIAL"


def test_verify_n3_d2_without_enumerating_group():
    code, report = run_verify(VerifyConfig(n=3, d=2))
    assert code == EXIT_OK
    d = report.to_dict()
    assert d["group_order"] == 2_064_384
    assert d["split"] == {"complement_order": 504, "intersection_order": 1}
    assert d["degrees"] == [576, 3584, 1]
