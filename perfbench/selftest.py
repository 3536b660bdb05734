"""Self-tests of the benchmark at tiny size.

    python3 perfbench/selftest.py

Checks, on refl2 verify --n 2 --d 0 --oracle-max-degree 8 and on one
pass of expression inputs up to degree 8:

- plain and traced samples pass against the checked-in report;
- every span's self time is >= 0 and the self times sum to the traced wall;
- a tampered expected report is caught (negative control), and so is a
  tampered expression pick;
- the metrics of both modes have exactly the names and units of
  BENCHMARK.json.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run
from spans import Tracer, load, summarize

TINY = ["--n", "2", "--d", "0", "--oracle-max-degree", "8"]
TINY_DEG = 8

failures = 0


def check(ok: bool, what: str):
    global failures
    failures += not ok
    print(("ok    " if ok else "FAIL  ") + what)


def check_spans(path: str):
    names, _, spans = load(path)
    s = summarize(names, spans)
    own = s["span_self"]
    check(len(own) > 0 and own.min() >= -1e-12, f"{len(own)} spans, every self time >= 0")
    check(abs(own.sum() - s["wall"]) <= 1e-9, "self times sum to the traced wall")


def check_names(kind: str, metrics: dict, listed: list[dict], units: dict):
    want = {e["name"]: e["unit"] for e in listed}
    got = {k: units[k] for k in metrics}
    check(got == want, f"{kind} metric names and units match BENCHMARK.json")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(run.HERE / "expected" / "tiny.json") as fh:
        expected = json.load(fh)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        m = run.measure_verify(TINY, expected, 0, True, work)
        check(m["failed"] == 0 and len(m["plain"]) == len(m["traced"]) == 1,
              "tiny verify: plain and traced samples match the report")
        check_spans(m["traces"][0])
        check_names("end-to-end", run.end_to_end(m, 0.1), bench["end_to_end"], run.END_TO_END)
        check_names("per-layer", run.per_layer(m), bench["per_layer"], run.PER_LAYER)

        tampered = dict(expected, group_order=expected["group_order"] + 1)
        bad = run.measure_verify(TINY, tampered, 0, False, work)
        check(bad["failed"] == 1, "a tampered expected report is caught")

        sys.path.insert(0, str(run.SRC))
        import express_worker as ew

        tracer = Tracer()
        res = ew.run(seed=7, seconds=0, trace=True, max_deg=TINY_DEG, tracer=tracer)
        check(res["failed"] == 0 and len(res["untraced"]) == len(res["traced"]) == TINY_DEG + 1,
              f"{TINY_DEG + 1} expression calls round-trip, plain and traced")
        tracer.dump(str(work / "express.trace"))
        check_spans(str(work / "express.trace"))
        em = {"plain": res["untraced"], "traced": res["traced"], "rss": [1.0],
              "failed": 0, "traces": [str(work / "express.trace")]}
        check_names("express per-layer", run.per_layer(em), bench["per_layer"], run.PER_LAYER)

        from refl2.verify import express_in_generators

        _, lifts, invs = ew.build()
        p, picked = ew.make_pass(random.Random(7), invs, TINY_DEG)[-1]
        expr = express_in_generators(p, invs, lifts)
        wrong = {e: c % 3 + 1 for e, c in picked.items()}
        check(ew.expression_ok(expr, p, picked) and not ew.expression_ok(expr, p, wrong),
              "a tampered expression pick is caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
