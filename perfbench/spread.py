"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sim-small,algebra --seeds 1-10
        [--seconds 15] [--trace 0] [--out perfbench/out/spread.json]

Runs one benchmark process at a time, from the repository root.  For
each workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the quartile distance as a share
of the median, which is the spread the metric's bound must cover.
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _sep, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s"
                           % (workload, seed, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    rows = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = median(vals)
        q1, _q2, q3 = quantiles(vals, n=4)
        rows[name] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med if med else None,
                      "values": vals}
    return rows


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for wl in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            res = run_once(wl, seed, seconds, args.trace)
            if not res["correct"]:
                print("%s seed %d: outputs incorrect" % (wl, seed))
            results.append(res)
        rows = summarize(results)
        report[wl] = {"runs": [{k: r[k] for k in ("correct", "attempted",
                                                  "failed")}
                               for r in results], "metrics": rows}
        for name, row in rows.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and row["spread"] is not None:
                flag = " ok" if row["spread"] < bound / 3 else " WIDE"
            print("%-15s %-40s median %-12.6g spread %s%s"
                  % (wl, name, row["median"],
                     "-" if row["spread"] is None else "%.4f" % row["spread"],
                     flag), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
