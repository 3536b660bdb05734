"""The n = 8..10 ladder, each instance a child process that reports its own
CPU time and peak RSS.  Marked slow, so deselected by default: run it with
`pytest -m slow`."""

import json
import os
import subprocess
import sys

import pytest

# the child runs the command line and prints its CPU seconds (user + sys)
# and peak RSS in MB (ru_maxrss is in KB on Linux) after the report
CHILD = """
import resource, sys
from refl2.cli import main
code = main(sys.argv[1:])
r = resource.getrusage(resource.RUSAGE_SELF)
print(r.ru_utime + r.ru_stime, r.ru_maxrss / 1024)
sys.exit(code)
"""

LADDER = [(n, d, variant) for n in (8, 9, 10) for d in (0, 1) for variant in ("h1", "h0")]


@pytest.mark.slow
@pytest.mark.parametrize("n, d, variant", LADDER)
def test_ladder_under_10s_cpu_and_100mb(tmp_path, n, d, variant):
    report = tmp_path / "report.json"
    argv = ["verify", "--n", str(n), "--d", str(d), "--variant", variant]
    argv += ["--max-group", "100000000000", "--json", str(report), "--quiet"]
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
