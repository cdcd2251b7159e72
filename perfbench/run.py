#!/usr/bin/env python3
"""Run one workload of the rlfd benchmark and print its result.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload claims|explore|qos|campaign \
        --seed N --seconds T --trace 0|1 [--inject-slowdown-us U]

Builds the OCaml benchmark program (perfbench/perfbench.ml) with dune and
runs it once.  Human
readable lines go to stdout first (every metric with its unit, fail_frac,
the workload's own rate and the host calibration); the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics:
the end_to_end metrics of BENCHMARK.json with --trace 0, the per_layer
ones with --trace 1.  Per-layer metrics of layers a workload never calls
read 0.  A full record of the run, calibration included, is written to
.perfbench/result-<workload>-seed<N>-trace<k>.json, and the spans of a
traced run to .perfbench/spans-<workload>-seed<N>.jsonl.

Exits non-zero, printing no result, if the build fails, an output check
fails to run, or the program's metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
OUT = ".perfbench"


def bench_timeout_s(seconds):
    """How long the program may run: its budget, plus the passes it must
    make past it (at least two, each up to ~30 s for claims on a slow
    host) and the output checks, with room to spare."""
    return 2 * seconds + 150


# The metric prefix each workload's traced run owns; "trace." is everyone's.
OWNED = {
    "claims": "theorems.",
    "explore": "explore.",
    "qos": "qos.",
    "campaign": "campaign.",
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no rlfd source tree in the current directory (dune-project, lib/)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "./" + HERE + "/perfbench.exe"
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", target],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed")
    return os.path.join("_build", "default", HERE, "perfbench.exe")


def run_bench(exe, args, timeout_s):
    """Run the program; return its last stdout line."""
    try:
        r = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                           timeout=timeout_s)
    except subprocess.TimeoutExpired:
        die("benchmark program ran past %d s" % timeout_s)
    if r.returncode != 0:
        die("benchmark program failed (status %d)" % r.returncode)
    lines = r.stdout.decode().strip().splitlines()
    if not lines:
        die("benchmark program printed nothing")
    return lines[-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(OWNED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject-slowdown-us", type=int, default=0)
    a = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    exe = build()
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d" % (a.workload, a.seed)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--inject-slowdown-us", str(a.inject_slowdown_us)]
    if a.trace:
        args += ["--spans", os.path.join(OUT, "spans-%s.jsonl" % tag)]
    last = run_bench(exe, args, bench_timeout_s(a.seconds))
    try:
        res = json.loads(last)
    except ValueError:
        die("the program's last line is not JSON: %r" % last)

    got = dict(res["metrics"])
    if a.trace:
        wanted = spec["per_layer"]
        mine = (OWNED[a.workload], "trace.")
        for m in wanted:
            if m["name"] not in got:
                if m["name"].startswith(mine):
                    die("the program did not report %s" % m["name"])
                got[m["name"]] = 0.0
    else:
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    extra = set(got) - set(names)
    if extra:
        die("the program reported metrics BENCHMARK.json does not list: %s"
            % ", ".join(sorted(extra)))

    metrics = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = res["attempted"], res["failed"]
    print("perfbench %s seed=%d seconds=%d trace=%d"
          % (a.workload, a.seed, a.seconds, a.trace))
    for m in wanted:
        if not a.trace or m["name"].startswith((OWNED[a.workload], "trace.")):
            print("  %-40s %16.6g %s" % (m["name"], got[m["name"]], m["unit"]))
    print("  %-40s %16.6g ratio (%d of %d checks failed)"
          % ("fail_frac", failed / max(1, attempted), failed, attempted))
    for k, v in res.get("rates", {}).items():
        print("  %-40s %16.6g 1/s" % (k, v))
    print("  calibration: " + ", ".join(
        "%s=%.4g" % kv for kv in res["calibration"].items()))
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "inject_slowdown_us": a.inject_slowdown_us,
              "correct": res["correct"], "attempted": attempted,
              "failed": failed, "metrics": metrics,
              "rates": res.get("rates", {}),
              "calibration": res["calibration"]}
    with open(os.path.join(OUT, "result-%s-trace%d.json" % (tag, a.trace)),
              "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": res["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
