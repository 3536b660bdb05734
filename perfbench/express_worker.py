"""Library use of refl2's expression in one long process.

Builds the h1 lifts and (u-bar, c1-bar, z) for n=2 d=0, then times
`express_in_generators` on polynomials made from the seed, for about
the given number of seconds of wall, each call in CPU seconds of this
process.  The polynomials follow acceptance criterion 9's recipe: random subsets of
the monomials U^a C^b Z^c of one degree, coefficients 1..3; each subset
holds half the monomials of its degree, not each one with probability
1/2, so that a pass costs about the same whatever the seed.  The inputs
come in passes; each pass holds
one polynomial of every degree 0..max-deg in a seeded order, and a run
times whole passes only, so it times the same mix of degrees whatever
the seed.  Another pass starts only while it would likely end less than
half a pass after the given seconds.  `_SUBS` and `_POW_CACHE` in
refl2.verify stay warm across calls, as for any caller in one process.

Every call is checked: the expression must substitute back to the input
and its terms must equal the picked terms.  The checks are not timed.

    python3 perfbench/express_worker.py --seed 1 --seconds 25 --trace 0 --out r.json
    python3 perfbench/express_worker.py --setup-only

With --trace 1 every input is expressed twice, once plain and once with
spans recorded, and the spans go to OUT.trace.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time

N = 2
MAX_DEG = 60


def build():
    """The program's set-up: field, lifts and (u-bar, c1-bar, z)."""
    from refl2.ffield import field_new
    from refl2.grouplift import LambdaSpace, lift_generators
    from refl2.invariants import composed_invariants, kernel_action, kernel_invariants

    ctx = field_new(N)
    ls = LambdaSpace(ctx, N, ())
    lifts = list(lift_generators("h1", N, ctx))
    fx, fy, fz = kernel_invariants(ls)
    desc = kernel_action(lifts, fx, fy, fz, n=N)
    return ctx, lifts, composed_invariants(N, ls, desc)


def make_pass(rng: random.Random, invs, max_deg: int = MAX_DEG):
    """One polynomial of each degree 0..max_deg, in a seeded order, with
    the terms picked for it."""
    from refl2.mvpoly import MultiPoly

    du, dc = invs[0].deg(), invs[1].deg()
    degrees = list(range(max_deg + 1))
    rng.shuffle(degrees)
    powers: dict = {}

    def power(i, k):
        if (i, k) not in powers:
            powers[i, k] = invs[i] ** k
        return powers[i, k]

    out = []
    for deg in degrees:
        combos = [
            (a, b, deg - du * a - dc * b)
            for a in range(deg // du + 1)
            for b in range(deg // dc + 1)
            if deg - du * a - dc * b >= 0
        ]
        # half the monomials, so a pass costs about the same whatever the seed
        picked = {e: rng.randrange(1, 4) for e in rng.sample(combos, (len(combos) + 1) // 2)}
        p = MultiPoly.zero(invs[0].ctx)
        for (a, b, c), coeff in picked.items():
            p = p + (power(0, a) * power(1, b) * power(2, c)).scale(coeff)
        out.append((p, picked))
    return out


def expression_ok(expr, p, picked) -> bool:
    return expr is not None and expr.substitute() == p and dict(expr.terms) == picked


def run(seed: int, seconds: float, trace: bool, max_deg: int = MAX_DEG, tracer=None) -> dict:
    """Time expression calls in whole passes for about `seconds` of wall:
    CPU seconds of each call, and wall seconds of each plain call."""
    import refl2.verify as rverify

    _, lifts, invs = build()
    rng = random.Random(seed)
    times: dict[bool, list[float]] = {False: [], True: []}
    walls: list[float] = []
    failed = 0
    modes = (False, True) if trace else (False,)
    passes = []
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        for p, picked in make_pass(rng, invs, max_deg):
            for traced in modes:
                if traced:
                    tracer.sample = len(times[True])
                    tracer.install()
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    expr = rverify.express_in_generators(p, invs, lifts)
                except ValueError:
                    expr = None
                times[traced].append(time.process_time() - c0)
                if not traced:
                    walls.append(time.perf_counter() - t0)
                if traced:
                    tracer.uninstall()
                failed += not expression_ok(expr, p, picked)
        passes.append(time.perf_counter() - step)
        if time.perf_counter() - start + statistics.median(passes) / 2 >= seconds:
            break
    return {"untraced": times[False], "traced": times[True], "untraced_wall": walls, "failed": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if args.setup_only:
        build()
        return 0
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    result = run(args.seed, args.seconds, bool(args.trace), tracer=tracer)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(args.out + ".trace")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
