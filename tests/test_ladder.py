"""The n = 8..16 ladder at d = 0, 1, n = 17 and 18 at d = 0 on explicit
moduli, n = 20 at d = 0, n = 8 and 10 at d = 2 (q^d = 2^16 and 2^20),
and seven rows past d = 2 or m = 20 on the default moduli and bases:
n=32 d=2, n=16 d=4, n=8 d=8, n=21 d=3, n=64 d=0, and the two largest
kernels over a small subfield, n=2 d=32 and n=4 d=16.  Each instance is a
child process that reports its own CPU time and peak RSS.  Then the
sweep: every (n, d) with n >= 2 and n*d <= 64, in process.  Marked slow,
so deselected by default: run it with `pytest -m slow`."""

import json
import os
import subprocess
import sys

import pytest

from refl2.cli import VerifyConfig, run_verify

# the child runs the command line and prints its CPU seconds (user + sys)
# and its own peak RSS in MB after the report.  Linux carries the spawning
# process's peak into ru_maxrss across exec, so a child of a pytest that
# has grown reads that peak; VmHWM, in KB, is the child's alone.  Where
# /proc is missing, ru_maxrss (KB on Linux) stands in
CHILD = """
import resource, sys
from refl2.cli import main
code = main(sys.argv[1:])
r = resource.getrusage(resource.RUSAGE_SELF)
try:
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    peak = r.ru_maxrss
print(r.ru_utime + r.ru_stime, peak / 1024)
sys.exit(code)
"""

LADDER = [(n, d, variant) for n in range(8, 17) for d in (0, 1) for variant in ("h1", "h0")]
LADDER += [(n, 2, variant) for n in (8, 10) for variant in ("h1", "h0")]
# explicit irreducible moduli for GF(2^17) and GF(2^18); 0x40081 is not
# the default
MODULI = {17: 0x20009, 18: 0x40081}
LADDER += [(n, 0, variant) for n in (*MODULI, 20) for variant in ("h1", "h0")]
WIDE = [(32, 2), (16, 4), (8, 8), (21, 3), (64, 0), (2, 32), (4, 16)]
LADDER += [(n, d, variant) for n, d in WIDE for variant in ("h1", "h0")]


def group_cap(n, d):
    """The least of 10^11, 10^20 and 2^200 that admits |H| = q(q^2 - 1) and
    |N| = q^(2d): 6.9e10 at n=12, 1.2e18 at n=20, 7.9e28 at n=32, and
    4.3e9 at n=8 d=2, 1.1e12 at n=10 d=2, 3.4e38 at n=8 d=8, n=2 d=32
    and n=4 d=16."""
    q = 1 << n
    return next(c for c in (10**11, 10**20, 2**200) if q * (q * q - 1) <= c and q ** (2 * d) <= c)


@pytest.mark.slow
@pytest.mark.parametrize("n, d, variant", LADDER)
def test_ladder_under_10s_cpu_and_100mb(tmp_path, n, d, variant):
    report = tmp_path / "report.json"
    argv = ["verify", "--n", str(n), "--d", str(d), "--variant", variant]
    if n in MODULI:
        argv += ["--modulus-ambient", hex(MODULI[n])]
    argv += ["--max-group", str(group_cap(n, d)), "--json", str(report), "--quiet"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    r = json.loads(report.read_text())
    assert r["verdict"] == "POLYNOMIAL"
    assert r["degree_product"] == r["group_order"]
    cpu, rss = map(float, run.stdout.split())
    assert cpu < 10, f"{cpu:.2f} s CPU"
    assert rss < 100, f"{rss:.0f} MB peak RSS"


# every (n, d) with n >= 2 and n*d <= 64 on the default moduli and bases:
# 279 pairs, d = 0 up to n = 64
SWEEP = [(n, d) for n in range(2, 65) for d in range(64 // n + 1)]


@pytest.mark.slow
@pytest.mark.parametrize("variant", ["h1", "h0"])
@pytest.mark.parametrize("n, d", SWEEP)
def test_sweep_every_default_field_to_m_64(n, d, variant):
    code, report = run_verify(VerifyConfig(n=n, d=d, variant=variant, max_group=2**200))
    r = report.to_dict()
    assert (code, r["verdict"]) == (0, "POLYNOMIAL")
    assert r["degree_product"] == r["group_order"]
    # the premise of the CLI's one cap comparison: |H| = |SL2(q)|
    q = 1 << n
    assert r["split"]["complement_order"] == q * (q * q - 1)
