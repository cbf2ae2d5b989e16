#!/usr/bin/env python3
"""Runs a workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                                [--out runs.jsonl]

Run from the repository root. For every workload and end-to-end metric it
prints the median over the seeds and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median — the spread BENCHMARK.json's bounds are set against. Each run's
JSON result, with its host probe figure, is appended to --out when given.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        probes = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(here, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            probe = re.search(r"host_probe_ms ([0-9.]+)", out.stdout)
            probes.append(float(probe.group(1)) if probe else float("nan"))
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {lines[-1]}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "host_probe_ms": probes[-1],
                                        **result}) + "\n")
        print(f"{workload}: host_probe_ms median "
              f"{statistics.median(probes):.2f}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {name:22s} median {med:12.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  "
                  f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}")


if __name__ == "__main__":
    main()
