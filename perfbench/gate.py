#!/usr/bin/env python3
"""Steadiness and regression-gate checks for the rlfd benchmark.

Run from the root of a source checkout.

  python3 perfbench/gate.py spread --workload W --seeds 1 2 3 4 5
      Runs the workload once per seed and prints, for each end-to-end
      metric, the median and the inter-quartile spread as a share of the
      median (statistics.quantiles, n=4) next to the metric's bound.
      Fails if a spread exceeds its bound, except setup_s's: the
      acceptance rule gates setup_s only on the shift of its median
      between two sets of runs, so its spread is printed as not gated.

  python3 perfbench/gate.py report --seed N
      Runs every workload once (untraced) and prints one table: each
      end-to-end metric with its unit, fail_frac, the workload's own rate,
      and the host calibration.

  python3 perfbench/gate.py selftest --seeds 1 2 3
      Proves the gate fails on a real regression: runs every workload on
      every seed twice in a row, once as is and once with a busy-wait of
      SLOWDOWN_US injected into each campaign job body (alternating which goes
      first), and flags each (workload, metric) whose injected run is
      worse than its plain partner by more than the metric's bound, as the
      median over the pairs.  Pairing back-to-back runs cancels the host's
      drift from one minute to the next.  Passes only if exactly
      campaign's wall_s is flagged.

All use BENCHMARK.json for the command, run length and bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Microseconds of busy-waiting the self-test adds to every campaign job:
# about a tenth of a job's own cost, a regression the bounds must catch.
SLOWDOWN_US = 200


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, slowdown_us=0):
    """Run one untraced workload; return its metric values by name."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    if slowdown_us:
        cmd += ["--inject-slowdown-us", str(slowdown_us)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         check=True).stdout.decode()
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit("gate: %s seed %d failed its output checks" % (workload, seed))
    return {k: v["value"] for k, v in res["metrics"].items()}


def cmd_report(a, spec):
    seconds = a.seconds or spec["run_seconds"]
    for w in [w["name"] for w in spec["workloads"]]:
        run_once(spec, w, a.seed, seconds)
        with open(".perfbench/result-%s-seed%d-trace0.json" % (w, a.seed)) as f:
            rec = json.load(f)
        print("%s (seed %d, %d s)" % (w, a.seed, seconds))
        for m in spec["end_to_end"]:
            v = rec["metrics"][m["name"]]
            print("  %-22s %14.6g %s" % (m["name"], v["value"], v["unit"]))
        print("  %-22s %14.6g ratio (%d of %d checks failed)"
              % ("fail_frac", rec["failed"] / rec["attempted"], rec["failed"],
                 rec["attempted"]))
        for k, v in rec["rates"].items():
            print("  %-22s %14.6g 1/s" % (k, v))
        print("  calibration: " + ", ".join(
            "%s=%.4g" % kv for kv in rec["calibration"].items()), flush=True)
    return 0


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def worse(metric, new, old):
    """Relative worsening of new against old for this metric's direction."""
    if metric["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def cmd_spread(a, spec):
    seconds = a.seconds or spec["run_seconds"]
    runs = []
    for seed in a.seeds:
        runs.append(run_once(spec, a.workload, seed, seconds))
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % kv for kv in runs[-1].items())), flush=True)
    ok = True
    for m in spec["end_to_end"]:
        med, s = spread([r[m["name"]] for r in runs])
        gated = m["name"] != "setup_s"
        if gated:
            ok = ok and s <= m["bound"]
        verdict = "steady" if s < m["bound"] / 3 else "NOT below bound/3"
        if not gated:
            verdict += " (spread not gated; its median shift is)"
        elif s > m["bound"]:
            verdict += ", OVER BOUND"
        print("%-12s median %-12.6g spread %6.2f%%  bound %5.1f%%  %s"
              % (m["name"], med, 100 * s, 100 * m["bound"], verdict))
    return 0 if ok else 1


def cmd_selftest(a, spec):
    seconds = a.seconds or spec["run_seconds"]
    flagged = []
    for w in [w["name"] for w in spec["workloads"]]:
        pairs = []
        for k, seed in enumerate(a.seeds):
            runs = {}
            for us in ((0, SLOWDOWN_US) if k % 2 == 0 else (SLOWDOWN_US, 0)):
                runs[us] = run_once(spec, w, seed, seconds, us)
            pairs.append((runs[0], runs[SLOWDOWN_US]))
        for m in spec["end_to_end"]:
            d = statistics.median(worse(m, slowed[m["name"]], plain[m["name"]])
                                  for plain, slowed in pairs)
            hit = d > m["bound"]
            if hit:
                flagged.append((w, m["name"]))
            print("%-9s %-12s injected worse than plain by %7.2f%% (median of"
                  " %d pairs; bound %4.1f%%)%s"
                  % (w, m["name"], 100 * d, len(pairs), 100 * m["bound"],
                     "  FLAGGED" if hit else ""), flush=True)
    ok = flagged == [("campaign", "wall_s")]
    print("selftest %s: flagged %s" % ("passed" if ok else "FAILED", flagged))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", type=int, nargs="+", required=True)
    s.add_argument("--seconds", type=int)
    r = sub.add_parser("report")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--seconds", type=int)
    t = sub.add_parser("selftest")
    t.add_argument("--seeds", type=int, nargs="+", required=True)
    t.add_argument("--seconds", type=int)
    a = ap.parse_args()
    spec = load_spec()
    modes = {"spread": cmd_spread, "report": cmd_report,
             "selftest": cmd_selftest}
    sys.exit(modes[a.mode](a, spec))


if __name__ == "__main__":
    main()
