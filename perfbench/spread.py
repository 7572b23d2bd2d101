"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --out runs.json [--trace 1]

For every workload in BENCHMARK.json and every seed it runs ``run.py`` once,
in sequence, for ``run_seconds``, and records the result.  Seeds are the
outer loop and workloads the inner one, so that each workload's runs are
spread over the whole session and a slow spell of a shared host (one can
last minutes) does not fall on one workload's runs alone.  The spread of
a metric is the distance between the
first and third quartiles of its values (``statistics.quantiles``, n=4)
as a share of their median; it is printed next to the metric's bound from
BENCHMARK.json.  A run that fails or reports ``correct: false`` stops the
tool with a nonzero exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(argv), done.stderr))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect output: %s\n%s" % (" ".join(argv), done.stderr))
    return {"seed": seed, "result": result,
            "info": [json.loads(line) for line in lines[:-1]]}


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    out = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    workloads = [w["name"] for w in bench["workloads"]]
    runs_of = {workload: [] for workload in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            runs_of[workload].append(
                run_once(workload, seed, seconds, args.trace))
    for workload, runs in runs_of.items():
        names = runs[0]["result"]["metrics"]
        stats = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats[name] = spread(values) if len(values) > 1 else {
                "median": values[0]}
            stats[name]["values"] = values
            stats[name]["unit"] = names[name]["unit"]
            if not args.trace and len(values) > 1:
                print("%-13s %-14s median %10.4f %-5s spread %.3f bound %s"
                      % (workload, name, stats[name]["median"],
                         names[name]["unit"], stats[name]["spread"],
                         bounds.get(name)))
        out["workloads"][workload] = {"metrics": stats, "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
