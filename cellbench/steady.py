#!/usr/bin/env python3
"""Steadiness check for the cellbench benchmark.

Usage, from the repository root:

    python3 cellbench/steady.py [--workloads paper3,committee256,lossy64]
                                [--runs 10] [--first-seed 1] [--no-trace]
                                [--log <dir>]

For each workload it makes `--runs` untraced runs, each with another
`--seed`, and prints every end-to-end metric's median and quartile spread
(q3 - q1, as a share of the median) against the bound in BENCHMARK.json.
It then makes two traced runs and requires every deterministic per-layer
count to repeat exactly, and the layer split the workloads were chosen for
to hold. Exits 1 if any run is incorrect, a spread (setup_s aside) exceeds
its bound, or a traced check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace, log_dir=None):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True,
    )
    if log_dir:
        with open(os.path.join(log_dir, f"{workload}-seed{seed}-trace{int(trace)}.txt"), "w") as f:
            f.write(out.stdout)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed\n{out.stderr}")
    return json.loads(lines[-1])


def deterministic(name, unit):
    return unit in ("count", "bytes") or name.endswith("hit_ratio")


def layer_split(workload, m):
    """The per-layer separation each workload was chosen for."""
    v = {k: x["value"] for k, x in m.items()}
    if workload == "paper3":
        times = {k: x for k, x in v.items() if k.endswith("_s") and k != "core.loop_s"}
        top = max(times, key=times.get)
        return top == "nn.train_s", f"largest per-layer time is {top}"
    if workload == "committee256":
        sim = v["chain.pow_gap_s"] + v["net.flood_gap_s"]
        return sim >= 3 * v["nn.train_s"], f"pow+flood {sim:.3f} s vs train {v['nn.train_s']:.3f} s"
    return True, "no split claimed"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--log", help="directory to keep every run's full output in")
    args = ap.parse_args()
    if args.log:
        os.makedirs(args.log, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in names:
        results = [run(workload, args.first_seed + i, bench["run_seconds"], False, args.log)
                   for i in range(args.runs)]
        bad = sum(not r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, {bad} incorrect, "
              f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)} cells failed")
        ok &= bad == 0
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "FAIL")
            if verdict == "FAIL" and name != "setup_s":
                ok = False
            print(f"  {name:15s} median {med:<12.6g} spread {spread:7.2%} "
                  f"bound {bound:.0%}  {verdict}")
        if args.no_trace:
            continue
        traced = [run(workload, args.first_seed + i, bench["run_seconds"], True, args.log)
                  for i in range(2)]
        ok &= all(t["correct"] for t in traced)
        a, b = (t["metrics"] for t in traced)
        differ = [k for k, x in a.items()
                  if deterministic(k, x["unit"]) and x["value"] != b[k]["value"]]
        split_ok, why = layer_split(workload, a)
        print(f"  traced: counts {'repeat' if not differ else 'DIFFER: ' + ', '.join(differ)}; "
              f"{why} ({'ok' if split_ok else 'FAIL'})")
        ok &= not differ and split_ok
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
