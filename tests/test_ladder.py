"""The n = 8..16 ladder at d = 0, 1, n = 17 and 18 at d = 0 on explicit
moduli, n = 20 at d = 0 (the largest default modulus), and n = 8 and 10
at d = 2 (q^d = 2^16 and 2^20), each instance a child process that
reports its own CPU time and peak RSS.  Marked slow, so deselected by
default: run it with `pytest -m slow`."""

import json
import os
import subprocess
import sys

import pytest

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


@pytest.mark.slow
@pytest.mark.parametrize("n, d, variant", LADDER)
def test_ladder_under_10s_cpu_and_100mb(tmp_path, n, d, variant):
    report = tmp_path / "report.json"
    argv = ["verify", "--n", str(n), "--d", str(d), "--variant", variant]
    if n in MODULI:
        argv += ["--modulus-ambient", hex(MODULI[n])]
    # the cap admits |H| = q(q^2 - 1): 6.9e10 at n=12, 2.8e14 at n=16,
    # 1.2e18 at n=20; and |N| = q^(2d), 4.3e9 at n=8 d=2, 1.1e12 at n=10
    cap = 10**11 if n <= 12 and (n, d) != (10, 2) else 10**20
    argv += ["--max-group", str(cap), "--json", str(report), "--quiet"]
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
