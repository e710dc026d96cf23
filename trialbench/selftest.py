#!/usr/bin/env python3
"""Self-test of the trial benchmark.

    python3 trialbench/selftest.py

Runs every workload at minimal size, untraced and traced, and asserts:
  * every end-to-end metric of BENCHMARK.json is measured, with its unit,
    and every per-layer metric is measured by at least one workload;
  * the consistency guards hold (mirror identity, repetitions identical);
  * a run checked against its own statistics passes and is bit-identical;
  * a corrupted reference, or a run that lost one of its points, makes
    the correctness check fail, both at a seed with a stored reference and
    at an unseen seed.
Exits 0 when all hold.
"""

import sys

import run as bench

SEED = 7
SECONDS = 0.5


def corrupt(refs):
    """Move every reference point to the far end of [0, 1], on a large n."""
    bad = {}
    for seed, points in refs.items():
        bad[seed] = {}
        for label, (op, k, n, exact) in points.items():
            big = 1000 * max(n, 1)
            bad[seed][label] = [op, 0 if k > n / 2 else big, big, exact]
    return bad


def main():
    definitions = bench.load_definitions()
    bench.build()
    problems = []
    measured_layers = set()

    def expect(cond, what):
        if not cond:
            problems.append(what)
        print("  %s %s" % ("ok  " if cond else "FAIL", what))

    for workload in bench.WORKLOADS:
        for trace in (False, True):
            tag = "%s trace=%d" % (workload, trace)
            print(tag)
            raw = bench.run_binary(workload, SEED, SECONDS, trace, "min")
            own = {str(SEED): {label: [op, k, n, exact]
                               for op, label, k, n, exact in raw["points"]}}
            res = bench.evaluate(raw, own, SEED, definitions, trace)
            wanted = definitions["per_layer" if trace else "end_to_end"]
            expect(all(res["metrics"][m["name"]]["unit"] == m["unit"]
                       for m in wanted),
                   "%s: every metric present with its unit" % tag)
            if trace:
                measured_layers |= set(raw["metrics"])
            expect(all(ok for _, ok, _ in raw["guards"]),
                   "%s: guards hold" % tag)
            expect(res["correct"] and res["failed"] == 0
                   and res["bit_identical"] is True,
                   "%s: own statistics pass, bit-identical" % tag)

            bad = bench.evaluate(raw, corrupt(own), SEED, definitions, trace)
            expect(not bad["correct"] and bad["failed"] > 0,
                   "%s: corrupted reference fails (stored seed)" % tag)
            unseen = bench.evaluate(raw, corrupt(own), SEED + 1, definitions,
                                    trace)
            expect(not unseen["correct"] and unseen["failed"] > 0,
                   "%s: corrupted reference fails (unseen seed)" % tag)

            short = dict(raw, points=raw["points"][1:])
            for seed, where in ((SEED, "stored seed"), (SEED + 1, "unseen seed")):
                lost = bench.evaluate(short, own, seed, definitions, trace)
                expect(not lost["correct"] and lost["failed"] > 0,
                       "%s: a run missing a point fails (%s)" % (tag, where))

    layers = {m["name"] for m in definitions["per_layer"]} - {"failed_frac"}
    expect(layers <= measured_layers,
           "every per-layer metric is measured by some workload (missing: %s)"
           % ", ".join(sorted(layers - measured_layers)))

    print("self-test %s" % ("FAILED: " + "; ".join(problems)
                            if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
