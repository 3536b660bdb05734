"""Span recorder wrapped around refl2's public functions from outside src/.

A span records its name, start, end, parent span and sample id.  Spans
are kept in memory (one flat float array, five slots a span) and written
out when the traced process ends.  The wrappers are installed under every
name a caller looks up: `refl2.cli` and `refl2.verify` bind functions at
import, so each `refl2.*` module attribute that is the original function
is replaced, not only the defining module's.

Self time of a span is its duration minus the time its child spans
cover.  The program is single-threaded, so children of one span never
overlap and the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

FIELDS = 5  # parent, name id, sample, start, end

# (span name, defining module, attribute)
FUNCTIONS = [
    ("cli.main", "refl2.cli", "main"),
    ("cli.run_verify", "refl2.cli", "run_verify"),
    ("grouplift.closure", "refl2.grouplift", "closure"),
    ("grouplift.verify_splitting", "refl2.grouplift", "verify_splitting"),
    ("grouplift.kernel_group", "refl2.grouplift", "kernel_group"),
    ("grouplift.lift_generators", "refl2.grouplift", "lift_generators"),
    ("invariants.kernel_invariants", "refl2.invariants", "kernel_invariants"),
    ("invariants.kernel_action", "refl2.invariants", "kernel_action"),
    ("invariants.composed_invariants", "refl2.invariants", "composed_invariants"),
    ("mvpoly.jacobian_det", "refl2.mvpoly", "jacobian_det"),
    ("verify.kemper_check", "refl2.verify", "kemper_check"),
    ("verify.is_invariant", "refl2.verify", "is_invariant"),
    ("verify.graded_fixed_dimension", "refl2.verify", "graded_fixed_dimension"),
    ("verify.generated_dimension", "refl2.verify", "generated_dimension"),
    ("verify.express_in_generators", "refl2.verify", "express_in_generators"),
    ("linalg.field_kernel_dimension", "refl2.linalg", "field_kernel_dimension"),
    ("linalg.field_matrix_rank", "refl2.linalg", "field_matrix_rank"),
    ("linalg.regular_rep_bits", "refl2.linalg", "regular_rep_bits"),
    ("linalg.gf2_rank", "refl2.linalg", "gf2_rank"),
]

# (span name, defining module, class, method)
METHODS = [
    ("mvpoly.mul", "refl2.mvpoly", "MultiPoly", "__mul__"),
    ("mvpoly.pow", "refl2.mvpoly", "MultiPoly", "__pow__"),
    ("mvpoly.act", "refl2.mvpoly", "MultiPoly", "act"),
    ("mvpoly.substitute", "refl2.mvpoly", "Substitution", "__call__"),
]


def _count_mul(counts, args, result):
    counts["mvpoly.mul.term_pairs"] += len(args[0]) * len(args[1])


def _count_closure(counts, args, result):
    counts["grouplift.closure_elements"] += len(result)


def _count_composed(counts, args, result):
    counts["invariants.ubar_terms"] += len(result[0])
    counts["invariants.c1bar_terms"] += len(result[1])


def _count_gf2(counts, args, result):
    counts["linalg.gf2_bits"] += args[0].shape[0] * args[1]


COUNTERS = {
    "mvpoly.mul": _count_mul,
    "grouplift.closure": _count_closure,
    "invariants.composed_invariants": _count_composed,
    "linalg.gf2_rank": _count_gf2,
}
COUNT_NAMES = [
    "mvpoly.mul.term_pairs",
    "grouplift.closure_elements",
    "invariants.ubar_terms",
    "invariants.c1bar_terms",
    "linalg.gf2_bits",
    "grouplift.mat3_mul.calls",
]


class Tracer:
    """Records spans around the installed wrappers while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.sample = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] | None = None

    def _span(self, name, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) // FIELDS
            spans.extend((stack[-1], nid, self.sample, clock(), 0.0))
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid * FIELDS + 4] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrappers(self):
        """(owner, attribute, original, wrapper) for every traced name."""
        import refl2.cli  # noqa: F401  (loads every refl2 module)

        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "refl2"]
        out = []
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            traced = self._span(name, orig, COUNTERS.get(name))
            for mod in modules:
                out += [(mod, key, orig, traced) for key, val in vars(mod).items() if val is orig]
        for name, modname, cls, meth in METHODS:
            owner = getattr(sys.modules[modname], cls)
            orig = getattr(owner, meth)
            out.append((owner, meth, orig, self._span(name, orig, COUNTERS.get(name))))
        mat3 = sys.modules["refl2.grouplift"].Mat3
        out.append((mat3, "__mul__", mat3.__mul__, self._counted("grouplift.mat3_mul.calls", mat3.__mul__)))
        return out

    def install(self):
        """Put the wrappers in place under each refl2 name bound to a traced function."""
        if self._patches is None:
            self._patches = self._wrappers()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def dump(self, path: str):
        """Write the name table and counts as JSON, the spans as raw floats."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "counts": self.counts}, fh)
        with open(path + ".bin", "wb") as fh:
            self.spans.tofile(fh)


def load(path: str) -> tuple[list[str], dict, np.ndarray]:
    with open(path) as fh:
        head = json.load(fh)
    spans = np.fromfile(path + ".bin", dtype=np.float64).reshape(-1, FIELDS)
    return head["names"], head["counts"], spans


def summarize(names: list[str], spans: np.ndarray) -> dict:
    """Per-name totals from one span table.

    Returns calls, inclusive seconds (spans nested directly in a span of
    the same name are not counted twice), self seconds, the traced wall
    (sum of root spans), the per-span self times and the time in
    `mvpoly.act` spans whose parent is `cli.run_verify`.
    """
    k = len(names)
    parent = spans[:, 0].astype(np.int64)
    nid = spans[:, 1].astype(np.int64)
    dur = spans[:, 4] - spans[:, 3]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    self_s = dur - covered
    pname = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
    outer = pname != nid
    act = names.index("mvpoly.act")
    run_verify = names.index("cli.run_verify")
    return {
        "calls": np.bincount(nid, minlength=k),
        "incl": np.bincount(nid[outer], weights=dur[outer], minlength=k),
        "self": np.bincount(nid, weights=self_s, minlength=k),
        "wall": float(dur[~has_parent].sum()),
        "span_self": self_s,
        "cli_act": float(dur[(nid == act) & (pname == run_verify)].sum()),
    }
