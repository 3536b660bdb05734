#!/usr/bin/env python3
"""Outside-in benchmark for refl2: `refl2 verify` and expression.

Run from the repository root:

    python3 perfbench/run.py --workload verify-closure --seed 1 --seconds 25 --trace 0

Workloads (see README.md in this directory for why each exists):

    verify-closure     refl2 verify --n 3 --d 1, a fresh process per sample
    verify-invariants  refl2 verify --n 3 --d 0, a fresh process per sample
    verify-oracle      refl2 verify --n 2 --d 0 --oracle-max-degree 60, likewise
    express            express_in_generators on seeded n=2 d=0 invariants,
                       many calls in one long process

Samples run one at a time from this single process (a closed loop with
one client) for about --seconds: another sample starts only while it
would likely end less than half a sample past that time, so a run of
long samples keeps a steady count of them.  Times are CPU seconds (user
plus system) of the sample process, which leave out the time the shared
host takes the CPU away; the sample process takes the CPUs in turn, a
quarter second each, and the rates are taken over the median sample,
so that one CPU's slow or fast stretch moves them little.  Wall times
are printed beside them.  Every sample is checked: a verify sample must exit 0
and print the checked-in report (expected/<workload>.json) apart from
`elapsed_ms`; an expression must substitute back to its input and have
exactly the picked terms.  The verify instances are fixed; --seed picks
the expression inputs.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1
plain and traced samples alternate on the same inputs, and the run
reports per-layer metrics from spans recorded around refl2's public
functions (spans.py), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
sample was correct, 1 when one was not, and 2 when the source tree
(src/refl2) is missing, in which case no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import express_worker
from spans import load, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

VERIFY = {
    "verify-closure": ["--n", "3", "--d", "1"],
    "verify-invariants": ["--n", "3", "--d", "0"],
    "verify-oracle": ["--n", "2", "--d", "0", "--oracle-max-degree", "60"],
}
WORKLOADS = [*VERIFY, "express"]
SETUP_REPEATS = 9
# A sample process is moved to the next CPU every SWITCH_S seconds: each
# CPU of this shared host speeds up and slows down on its own, so a
# sample that takes its turns on all of them meets their average.
SWITCH_S = 0.25
POLL_S = 0.01
_turns = 0

END_TO_END = {
    "samples_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
MODULES = ["cli", "grouplift", "invariants", "mvpoly", "verify", "linalg"]
PER_LAYER = {
    "grouplift.closure_s": "s",
    "grouplift.closure_elements": "count",
    "grouplift.split_s": "s",
    "grouplift.mat3_mul.calls": "count",
    "invariants.composed_s": "s",
    "invariants.kernel_s": "s",
    "invariants.ubar_terms": "count",
    "invariants.c1bar_terms": "count",
    "mvpoly.mul.calls": "count",
    "mvpoly.mul.s": "s",
    "mvpoly.mul.term_pairs": "count",
    "mvpoly.mul.ns_per_pair": "ns",
    "mvpoly.act.calls": "count",
    "mvpoly.act.s": "s",
    "mvpoly.pow.calls": "count",
    "mvpoly.pow.s": "s",
    "cli.act_s": "s",
    "verify.kemper_s": "s",
    "verify.fixed_dim_s": "s",
    "verify.generated_dim_s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank_s": "s",
    "linalg.expand_s": "s",
    "linalg.gf2_rank_s": "s",
    "linalg.gf2_bits": "count",
    "verify.express.calls": "count",
    "verify.express_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.wall_s": "s",
    "trace_overhead": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    # refl2 makes no BLAS calls; an idle BLAS thread pool only adds CPU
    # seconds of start-up spinning, which vary from process to process
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str]) -> tuple[int, float, float, float]:
    """Run cmd to its end, taking the CPUs in turn: exit code, seconds
    from spawn to exit, CPU seconds (user + system) of the process, max
    RSS in MB."""
    global _turns
    cpus = sorted(os.sched_getaffinity(0))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        switched = t0 - SWITCH_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            now = time.perf_counter()
            if now - switched >= SWITCH_S:
                switched = now
                _turns += 1
                try:
                    os.sched_setaffinity(proc.pid, {cpus[_turns % len(cpus)]})
                except OSError:
                    pass  # it has just exited
            time.sleep(POLL_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def setup_seconds(cmd: list[str]) -> float:
    """Median CPU seconds from interpreter spawn until the first timed
    call could start, over SETUP_REPEATS fresh processes.  One untimed
    spawn first writes the bytecode caches, which users do not pay per
    run."""
    spawn(cmd)
    times = []
    for _ in range(SETUP_REPEATS):
        code, _, cpu, _ = spawn(cmd)
        if code != 0:
            raise RuntimeError(f"set-up probe {cmd} exited {code}")
        times.append(cpu)
    return statistics.median(times)


def report_matches(path: Path, expected: dict) -> bool:
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return False
    report.pop("elapsed_ms", None)
    return report == expected


def past_deadline(start: float, steps: list[float], seconds: float) -> bool:
    """True when one more step would likely end over half a step late."""
    return time.perf_counter() - start + statistics.median(steps) / 2 >= seconds


def measure_verify(args: list[str], expected: dict, seconds: float, trace: bool, work: Path) -> dict:
    """Fresh `refl2 verify` processes, one at a time, for `seconds`."""
    report = work / "report.json"
    cli = ["verify", *args, "--quiet", "--json", str(report)]
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: dict[bool, list[float]] = {False: [], True: []}
    rss, traces, steps, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            report.unlink(missing_ok=True)
            if traced:
                traces.append(str(work / f"trace{len(traces)}.json"))
                cmd = [sys.executable, str(HERE / "tracecli.py"), traces[-1], str(len(traces) - 1), *cli]
            else:
                cmd = [sys.executable, "-m", "refl2.cli", *cli]
            code, wall, cpu, peak = spawn(cmd)
            walls[traced].append(wall)
            cpus[traced].append(cpu)
            rss.append(peak)
            failed += not (code == 0 and report_matches(report, expected))
        steps.append(time.perf_counter() - step)
        if past_deadline(start, steps, seconds):
            break
    return {"plain": cpus[False], "traced": cpus[True], "plain_wall": walls[False], "group": 1,
            "rss": rss, "failed": failed, "traces": traces}


def measure_express(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One long worker process calling express_in_generators."""
    out = work / "express.json"
    cmd = [sys.executable, str(HERE / "express_worker.py"), "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace)), "--out", str(out)]
    code, _, _, peak = spawn(cmd)
    if code != 0:
        raise RuntimeError(f"expression worker exited {code}")
    with open(out) as fh:
        res = json.load(fh)
    return {"plain": res["untraced"], "traced": res["traced"], "plain_wall": res["untraced_wall"],
            "group": express_worker.MAX_DEG + 1, "rss": [peak],
            "failed": res["failed"], "traces": [str(out) + ".trace"] if trace else []}


def end_to_end(m: dict, setup: float) -> dict:
    """The rate is taken over the median group of plain samples (one
    verdict, or one pass of expression calls), so a slow or fast stretch
    of the host that covers less than half the run does not move it."""
    size, plain = m["group"], m["plain"]
    groups = [sum(plain[i:i + size]) for i in range(0, len(plain), size)]
    return {
        "samples_per_cpu_s": size / statistics.median(groups),
        "peak_rss_mb": max(m["rss"]),
        "setup_s": setup,
    }


def per_layer(m: dict) -> dict:
    """Per-layer metrics as means per traced sample."""
    tot = dict.fromkeys(PER_LAYER, 0.0)
    for path in m["traces"]:
        names, counts, spans = load(path)
        s = summarize(names, spans)
        incl = dict(zip(names, s["incl"].tolist()))
        calls = dict(zip(names, s["calls"].tolist()))
        own = dict(zip(names, s["self"].tolist()))
        one = {
            "grouplift.closure_s": incl["grouplift.closure"],
            "grouplift.closure_elements": counts["grouplift.closure_elements"],
            "grouplift.split_s": incl["grouplift.verify_splitting"],
            "grouplift.mat3_mul.calls": counts["grouplift.mat3_mul.calls"],
            "invariants.composed_s": incl["invariants.composed_invariants"],
            "invariants.kernel_s": incl["invariants.kernel_invariants"] + incl["invariants.kernel_action"],
            "invariants.ubar_terms": counts["invariants.ubar_terms"],
            "invariants.c1bar_terms": counts["invariants.c1bar_terms"],
            "mvpoly.mul.calls": calls["mvpoly.mul"],
            "mvpoly.mul.s": incl["mvpoly.mul"],
            "mvpoly.mul.term_pairs": counts["mvpoly.mul.term_pairs"],
            "mvpoly.act.calls": calls["mvpoly.act"],
            "mvpoly.act.s": incl["mvpoly.act"],
            "mvpoly.pow.calls": calls["mvpoly.pow"],
            "mvpoly.pow.s": incl["mvpoly.pow"],
            "cli.act_s": s["cli_act"],
            "verify.kemper_s": incl["verify.kemper_check"],
            "verify.fixed_dim_s": incl["verify.graded_fixed_dimension"],
            "verify.generated_dim_s": incl["verify.generated_dimension"],
            "linalg.rank.calls": calls["linalg.field_matrix_rank"],
            "linalg.rank_s": incl["linalg.field_matrix_rank"],
            "linalg.expand_s": incl["linalg.regular_rep_bits"],
            "linalg.gf2_rank_s": incl["linalg.gf2_rank"],
            "linalg.gf2_bits": counts["linalg.gf2_bits"],
            "verify.express.calls": calls["verify.express_in_generators"],
            "verify.express_s": incl["verify.express_in_generators"],
            "trace.wall_s": s["wall"],
        }
        for mod in MODULES:
            one[f"{mod}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == mod)
        for key, val in one.items():
            tot[key] += val
    samples = len(m["traced"])
    out = {k: v / samples for k, v in tot.items()}
    pairs = tot["mvpoly.mul.term_pairs"]
    out["mvpoly.mul.ns_per_pair"] = tot["mvpoly.mul.s"] / pairs * 1e9 if pairs else 0.0
    # plain and traced samples alternate on the same inputs; CPU seconds
    out["trace_overhead"] = sum(m["traced"]) / sum(m["plain"]) - 1
    return out


def p90_with_tail(values: list[float]):
    """The 90th percentile, when at least ten samples lie beyond it."""
    if len(values) < 10:
        return None
    p90 = statistics.quantiles(values, n=10)[-1]
    return p90 if sum(v > p90 for v in values) >= 10 else None


def describe(workload: str, m: dict, metrics: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric with its unit, the names the
    metrics go by for this workload, sample counts and the check."""
    plain, attempted = m["plain"], len(m["plain"]) + len(m["traced"])
    lines = [
        f"workload      {workload}  trace={int(trace)}",
        f"host          nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__}",
    ]
    if trace:
        lines += [f"{k:28s}  {v:.6g} {PER_LAYER[k]}" for k, v in metrics.items()]
        lines.append(f"samples       {len(plain)} plain, {len(m['traced'])} traced, alternating")
    else:
        what = "calls" if workload == "express" else "fresh processes"
        alias = {
            "samples_per_cpu_s": ("express_per_s, calls" if workload == "express" else "verdicts")
            + " per CPU second, over the median " + ("pass" if workload == "express" else "sample"),
            "peak_rss_mb": "largest max-RSS of a sample process",
            "setup_s": f"median CPU seconds of {SETUP_REPEATS} fresh processes",
        }
        lines += [f"{k:17s} {v:.6g} {END_TO_END[k]}  ({alias[k]})" for k, v in metrics.items()]
        walls = m["plain_wall"]
        lines.append(f"samples_per_s     {len(walls) / sum(walls):.6g} 1/s  (per second of timed wall; informational)")
        name = "express_s" if workload == "express" else "verdict_s"
        for kind, values in (("cpu", plain), ("wall", walls)):
            lines.append(f"{name}.p50 {statistics.median(values):.6g} s {kind}  "
                         f"(over {len(values)} {what}; informational)")
            p90 = p90_with_tail(values)
            lines.append(f"{name}.p90 n/a  (fewer than 10 samples beyond p90)" if p90 is None else
                         f"{name}.p90 {p90:.6g} s {kind}  ({sum(v > p90 for v in values)} {what} beyond it)")
    lines.append(f"fail_ratio    {m['failed'] / attempted:.6g}  ({m['failed']} of {attempted} samples)")
    lines.append(f"correct       {m['failed'] == 0}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Measure one workload: the raw samples and the metrics to print."""
    if workload == "express":
        setup_cmd = [sys.executable, str(HERE / "express_worker.py"), "--setup-only"]
    else:
        setup_cmd = [sys.executable, "-c", "import refl2.cli"]
    # set-up first: its untimed spawn also warms the caches for the samples
    setup = setup_seconds(setup_cmd)
    if workload == "express":
        m = measure_express(seed, seconds, trace, work)
    else:
        with open(HERE / "expected" / f"{workload}.json") as fh:
            expected = json.load(fh)
        m = measure_verify(VERIFY[workload], expected, seconds, trace, work)
    return m, per_layer(m) if trace else end_to_end(m, setup)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "refl2" / "cli.py").is_file():
        print(f"error: no refl2 source tree at {SRC}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        m, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    for line in describe(args.workload, m, metrics, bool(args.trace)):
        print(line)
    result = {
        "correct": m["failed"] == 0,
        "attempted": len(m["plain"]) + len(m["traced"]),
        "failed": m["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
