"""Steadiness check: run the benchmark on several seeds and report, per
workload and metric, the median, the quartiles and the spread (quartile
distance over the median) against the metric's bound.

    python3 perfbench/steady.py [--runs 10] [--trace 0|1] [--out FILE] [workload ...]

Run from the repository root; the command and the run length come from
BENCHMARK.json.  Seeds are 1..runs.  A
metric is steady when its spread is at most a third of its bound; the
exit code is 1 if any gated metric is not.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    units = {m["name"]: m["unit"] for m in metrics}

    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "runs": args.runs, "trace": args.trace,
              "facts": {}, "metrics": {}, "wall_s": {}}
    ok = True
    for workload in workloads:
        values, wall = {}, []
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            started = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            wall.append(time.monotonic() - started)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            facts = [json.loads(l[len("facts "):]) for l in lines if l.startswith("facts ")]
            report["facts"].setdefault(workload, facts[0])
            assert result["correct"] and result["failed"] == 0, result
            assert {n: m["unit"] for n, m in result["metrics"].items()} == units, result
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report["metrics"][workload] = {}
        for name, xs in values.items():
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            steady = bound is None or spread <= bound / 3
            ok &= steady
            report["metrics"][workload][name] = {
                "median": q2, "q1": q1, "q3": q3, "spread": spread, "values": xs,
            }
            print(f"{workload:<7} {name:<40} median {q2:>14.6g}  q1 {q1:>14.6g}  "
                  f"q3 {q3:>14.6g}  spread {spread:8.4f}  bound {bound}"
                  f"{'' if steady else '  <-- above a third of its bound'}")
        report["wall_s"][workload] = wall
        print(f"{workload:<7} wall per run: median {statistics.median(wall):.1f} s, max {max(wall):.1f} s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
