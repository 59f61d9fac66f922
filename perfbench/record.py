"""Run two sets of benchmark runs of the same code and write a BENCH record.

    python3 perfbench/record.py --out perfbench/BENCH_1.json

For every workload of BENCHMARK.json, set A uses seeds 1..5 and set B
seeds 6..10, all with tracing off and ``run_seconds`` long; the runs of
the two sets alternate.  One traced run (seed 1) per workload follows.
For each end-to-end metric and workload the record holds each set's
median, the quartile spread as a share of the median (over both sets and
per set), and whether the two sets agree within the metric's bound in
BENCHMARK.json: every spread within the bound, the two medians apart by
no more than the bound in either direction, and the same share of failed
operations in both sets.  Exits 1 if any pairing disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 5  # runs per set and workload


def one_run(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(spec: dict, runs_a: list[dict], runs_b: list[dict]) -> dict:
    metrics = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r["metrics"][name]["value"] for r in runs_a]
        b = [r["metrics"][name]["value"] for r in runs_b]
        med_a, med_b = statistics.median(a), statistics.median(b)
        # shift > 0: set B is worse than set A
        worse = (med_b - med_a) if metric["better"] == "lower" else (med_a - med_b)
        spreads = {"spread": spread(a + b), "spread_A": spread(a), "spread_B": spread(b)}
        metrics[name] = {"unit": metric["unit"], "bound": bound,
                         "median_A": med_a, "median_B": med_b,
                         "median": statistics.median(a + b), **spreads,
                         "shift": worse / med_a,
                         "agree": (all(v <= bound for v in spreads.values())
                                   and abs(worse) <= bound * med_a)}
    shares = {s: [r["failed"] / r["attempted"] for r in runs]
              for s, runs in (("A", runs_a), ("B", runs_b))}
    same_share = len(set(shares["A"] + shares["B"])) == 1
    return {"metrics": metrics, "failed_share": shares,
            "correct": all(r["correct"] for r in runs_a + runs_b),
            "agree": same_share and all(m["agree"] for m in metrics.values())}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None, help="JSON record path")
    args = parser.parse_args(argv)

    runs = {w: {"A": [], "B": []} for w in names}
    for i in range(RUNS):
        for w in names:
            for label, seed in (("A", 1 + i), ("B", 1 + RUNS + i)):
                result = one_run(spec["command"], w, seed, seconds, 0)
                runs[w][label].append(result)
                print(f"{w} set {label} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    file=sys.stderr)

    record = {"benchmark": spec, "runs_per_set": RUNS, "seconds": seconds,
              "host": {"cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                       "python": platform.python_version(), "system": platform.system()},
              "workloads": {}}
    for w in names:
        summary = summarize(spec, runs[w]["A"], runs[w]["B"])
        summary["runs"] = runs[w]
        summary["traced"] = one_run(spec["command"], w, 1, seconds, 1)
        record["workloads"][w] = summary
        for name, m in summary["metrics"].items():
            print(f"{w:17s} {name:12s} A {m['median_A']:10.4g} B {m['median_B']:10.4g} "
                  f"{m['unit']:7s} spread {m['spread']:6.3f} (A {m['spread_A']:.3f}, "
                  f"B {m['spread_B']:.3f}) bound {m['bound']:.2f} "
                  f"{'agree' if m['agree'] else 'DISAGREE'}")
        print(f"{w:17s} failed share A {summary['failed_share']['A']} "
              f"B {summary['failed_share']['B']}")
    record["agree"] = all(s["agree"] for s in record["workloads"].values())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print("sets agree within bounds" if record["agree"] else "sets DISAGREE")
    return 0 if record["agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
