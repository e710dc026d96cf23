#!/usr/bin/env python3
"""End-to-end trial benchmark of the reactive-jamming framework.

    python3 trialbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds trialbench/ (which compiles ../src unchanged) into .bench_build/,
runs one workload, checks the simulated statistics against the references
stored in trialbench/references.json, prints every metric by name with its
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. --record-reference stores this run's statistics as the
seed's reference. See trialbench/README.md for the workloads and the layer
map.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "trialbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "trialbench")
REFERENCES = os.path.join(HERE, "references.json")
LAST_FINGERPRINT = os.path.join(ROOT, ".bench_build", "last_fingerprint.json")

WORKLOADS = ("ofdm_sweep", "dsss_campaign", "iperf_reactive")
DEFAULT_SEED = 1234
RUN_TIMEOUT_S = 170

# A point at a seed with a stored reference fails outside the reference's
# 99% Wilson interval. At any other seed the run is an independent sample
# of the same detection probabilities, so it is compared with the pooled
# references by Newcombe's score interval for a difference of proportions,
# two-sided 1e-5, which keeps a correct program from failing by chance
# across many seeds while still catching a shifted curve.
Z_REFERENCE = 2.5758293035489004   # 99%
Z_UNSEEN_SEED = 4.4171734134667    # two-sided 1e-5


class BenchError(Exception):
    pass


def wilson(k, n, z):
    if n == 0:
        return 0.0, 1.0
    p = k / n
    z2 = z * z
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = z / (1 + z2 / n) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    # The score interval reaches 0 and 1 exactly at k = 0 and k = n;
    # rounding must not push those bounds inside.
    lo = 0.0 if k == 0 else max(0.0, centre - half)
    hi = 1.0 if k == n else min(1.0, centre + half)
    return lo, hi


def newcombe_contains_zero(k1, n1, k2, n2, z):
    p1, p2 = k1 / n1, k2 / n2
    l1, u1 = wilson(k1, n1, z)
    l2, u2 = wilson(k2, n2, z)
    d = p1 - p2
    lower = d - math.sqrt((p1 - l1) ** 2 + (u2 - p2) ** 2)
    upper = d + math.sqrt((u1 - p1) ** 2 + (p2 - l2) ** 2)
    return lower <= 0.0 <= upper


def check_points(points, refs, seed):
    """Check a run's points against the references of one workload.

    points is a list of (op, label, k, n, exact); refs maps str(seed) ->
    {label: [op, k, n, exact]}. A point the references expect but the run
    lacks fails too: at a stored seed every label of that seed's reference,
    at any other seed every label the stored seeds share. Returns
    (verdicts as (op, label, ok, detail), bit_identical or None when the
    seed has no reference)."""
    stored = refs.get(str(seed))
    verdicts = []
    for op, label, k, n, exact in points:
        if stored is not None:
            if label not in stored:
                verdicts.append((op, label, False, "no reference point"))
                continue
            _, rk, rn, _ = stored[label]
            lo, hi = wilson(rk, rn, Z_REFERENCE)
            ok = n > 0 and lo <= k / n <= hi
            verdicts.append((op, label, ok,
                             "%d/%d vs ref %d/%d, 99%% Wilson [%.4f, %.4f]"
                             % (k, n, rk, rn, lo, hi)))
            continue
        pooled = [r[label] for r in refs.values() if label in r]
        if not pooled:
            verdicts.append((op, label, False, "no reference point"))
            continue
        rk = sum(p[1] for p in pooled)
        rn = sum(p[2] for p in pooled)
        ok = n > 0 and newcombe_contains_zero(k, n, rk, rn, Z_UNSEEN_SEED)
        verdicts.append((op, label, ok,
                         "%d/%d vs pooled ref %d/%d, Newcombe z=%.2f"
                         % (k, n, rk, rn, Z_UNSEEN_SEED)))

    if stored is not None:
        expected = stored
    elif refs:
        shared = set.intersection(*(set(r) for r in refs.values()))
        first = refs[sorted(refs)[0]]
        expected = {label: first[label] for label in shared}
    else:
        expected = {}
    produced = {label for _, label, _, _, _ in points}
    for label in sorted(set(expected) - produced):
        verdicts.append((expected[label][0], label, False,
                         "missing from the run"))

    bit_identical = None
    if stored is not None:
        bit_identical = sorted(stored.items()) == sorted(
            (label, [op, k, n, exact]) for op, label, k, n, exact in points)
    return verdicts, bit_identical


def load_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_references(workload):
    with open(REFERENCES) as f:
        return json.load(f).get(workload, {})


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "trialbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler scratch files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", BUILD_DIR, "--target", "trialbench",
                     "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, size):
    """Run the binary once; size is "full" or the self-test's "min" grid."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--size", size, "--workdir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("trialbench timed out")
    if proc.returncode != 0:
        raise BenchError("trialbench exited with %d" % proc.returncode)
    return parse(proc.stdout)


def parse(text):
    out = {"fingerprint": {}, "metrics": {}, "points": [],
           "guards": [], "walls": [], "probes": [], "raw": {}, "ops": None}
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "fp":
            key, _, value = rest.partition(" ")
            out["fingerprint"][key] = value
        elif kind == "metric":
            name, unit, value = rest.split(" ")
            out["metrics"][name] = {"value": float(value), "unit": unit}
        elif kind == "point":
            op, label, k, n, exact = rest.split(" ")
            out["points"].append((int(op), label, int(k), int(n), int(exact)))
        elif kind == "ops":
            attempted, bad, good_reps = (int(x) for x in rest.split(" "))
            out["ops"] = {"attempted": attempted, "bad": bad,
                          "good_reps": good_reps}
        elif kind in ("walls", "probes"):
            out[kind] = [float(x) for x in rest.split(" ")]
        elif kind == "raw":
            name, unit, value = rest.split(" ")
            out["raw"][name] = {"value": float(value), "unit": unit}
        elif kind == "guard":
            name, ok, detail = (rest.split(" ", 2) + [""])[:3]
            out["guards"].append((name, ok == "1", detail))
    if out["ops"] is None:
        raise BenchError("trialbench printed no operation counts")
    return out


def evaluate(raw, refs, seed, definitions, trace):
    """Correctness, failure counts and the metric set of one run."""
    verdicts, bit_identical = check_points(raw["points"], refs, seed)
    # Every good repetition produced these same statistics, so an
    # operation with a failing or missing point fails in each of them.
    failing_ops = {op for op, _, ok, _ in verdicts if not ok}
    ops = raw["ops"]
    failed = ops["bad"] + ops["good_reps"] * len(failing_ops)
    attempted = max(ops["attempted"], 1)
    guards_ok = all(ok for _, ok, _ in raw["guards"])
    correct = guards_ok and failed == 0 and bool(verdicts)

    wanted = definitions["per_layer" if trace else "end_to_end"]
    metrics = {}
    not_measured = []
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name == "failed_frac":
            metrics[name] = {"value": failed / attempted, "unit": unit}
            continue
        got = raw["metrics"].get(name)
        if got is None:
            if not trace:
                raise BenchError("end-to-end metric %s was not measured" % name)
            # A layer this workload does not exercise.
            metrics[name] = {"value": 0.0, "unit": unit}
            not_measured.append(name)
            continue
        if got["unit"] != unit:
            raise BenchError("metric %s has unit %s, BENCHMARK.json says %s"
                             % (name, got["unit"], unit))
        metrics[name] = got
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "verdicts": verdicts,
            "bit_identical": bit_identical, "not_measured": not_measured}


def flag_fingerprint(fingerprint):
    """Warn when the previous run in this checkout had another fingerprint:
    figures from different hosts or builds do not compare."""
    previous = None
    if os.path.exists(LAST_FINGERPRINT):
        with open(LAST_FINGERPRINT) as f:
            previous = json.load(f)
    with open(LAST_FINGERPRINT, "w") as f:
        json.dump(fingerprint, f)
    if previous is not None and previous != fingerprint:
        diff = sorted(k for k in set(previous) | set(fingerprint)
                      if previous.get(k) != fingerprint.get(k))
        print("WARNING: fingerprint differs from the previous run in this "
              "checkout (%s); do not compare their figures" % ", ".join(diff))


def record_reference(workload, seed, points):
    with open(REFERENCES) as f:
        data = json.load(f)
    data.setdefault(workload, {})[str(seed)] = {
        label: [op, k, n, exact] for op, label, k, n, exact in points}
    with open(REFERENCES, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv):
    definitions = load_definitions()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=float(definitions["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    try:
        build()
        raw = run_binary(args.workload, args.seed, args.seconds,
                         bool(args.trace), "full")
        if args.record_reference:
            record_reference(args.workload, args.seed, raw["points"])
        result = evaluate(raw, load_references(args.workload),
                          args.seed, definitions, bool(args.trace))
    except (BenchError, OSError, ValueError) as e:
        print("trialbench: %s" % e, file=sys.stderr)
        return 1

    print("trialbench %s seed=%d trace=%d"
          % (args.workload, args.seed, args.trace))
    print("fingerprint: " + ", ".join(
        "%s=%s" % kv for kv in sorted(raw["fingerprint"].items())))
    flag_fingerprint(raw["fingerprint"])
    for _, label, ok, detail in result["verdicts"]:
        print("  point %-16s %s  %s" % (label, "ok  " if ok else "FAIL", detail))
    for name, ok, detail in raw["guards"]:
        print("  guard %-24s %s  %s" % (name, "ok  " if ok else "FAIL", detail))
    for kind, what in (("walls", "wall per repetition"),
                       ("probes", "host-speed probe after it")):
        values = raw[kind]
        if len(values) >= 2:
            q = statistics.quantiles(values, n=4)
            print("  %d timed repetitions; %s median %.4f s, quartiles "
                  "%.4f..%.4f s" % (len(values), what,
                                    statistics.median(values), q[0], q[2]))
    for name, m in raw["raw"].items():
        print("  before host-speed scaling: %s = %.6g %s" % (name, m["value"],
                                                          m["unit"]))
    bi = result["bit_identical"]
    print("  bit_identical: %s" % ("n/a (no stored reference for this seed)"
                                   if bi is None else ("yes" if bi else "no")))
    for name, m in result["metrics"].items():
        note = "  (not exercised by this workload)" \
            if name in result["not_measured"] else ""
        print("  %-36s %16.6g %s%s" % (name, m["value"], m["unit"], note))

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
