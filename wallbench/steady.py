#!/usr/bin/env python3
"""Steadiness of the benchmark on one commit, run from the repository root.

    python3 wallbench/steady.py --seeds 1-10 --save wallbench/out/set1.json
    python3 wallbench/steady.py --compare wallbench/out/set1.json wallbench/out/set2.json

The first form runs every workload of BENCHMARK.json once per seed, for
run_seconds each and each in its own process, and prints for each end-to-end
metric the median, the quartiles and the spread (q3 - q1) / median against
the metric's bound. The spread of setup_s is printed but not checked (marked
"-"): set-up time is held to its bound only by comparing the medians of two
sets, as the acceptance rule for this benchmark does. The second form compares the medians of two saved sets: a difference
in either direction larger than the bound fails. Either form exits 1 on a
failure.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = "BENCHMARK.json"


def _seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_set(spec: dict, seeds: list[int]) -> dict:
    results: dict[str, list[dict]] = {w["name"]: [] for w in spec["workloads"]}
    for w in results:
        for seed in seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-2000:])
                raise SystemExit(f"{w} seed {seed}: exit {proc.returncode}")
            res = json.loads(lines[-1])
            res["seed"] = seed
            results[w].append(res)
            print(f"  {w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    return results


def summarize(spec: dict, results: dict) -> bool:
    ok = True
    for w, runs in results.items():
        bad = [r["seed"] for r in runs if not r["correct"]]
        attempted = sorted(r["attempted"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, attempted {attempted[0]}-{attempted[-1]}, "
              f"failed {sum(r['failed'] for r in runs)}, incorrect seeds {bad or 'none'}")
        ok &= not bad
        print(f"  {'metric':16} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6} {'/bound':>7}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            checked = m["name"] != "setup_s"
            print(f"  {m['name']:16} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
                  f"{m['bound']:6.2f} {spread / m['bound']:7.2f}{'' if checked else ' -'}")
            if checked:
                ok &= spread <= m["bound"]
    return ok


def compare(spec: dict, first: dict, second: dict) -> bool:
    ok = True
    print(f"  {'workload':14} {'metric':16} {'first':>11} {'second':>11} {'differ':>8} {'bound':>6}")
    for w in first:
        for m in spec["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[w])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[w])
            differ = abs(b - a) / a
            flag = "" if differ < m["bound"] else "  FAIL"
            ok &= not flag
            print(f"  {w:14} {m['name']:16} {a:11.5g} {b:11.5g} {differ:8.3f} {m['bound']:6.2f}{flag}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="a-b, both included")
    ap.add_argument("--save", help="write the raw results here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)
    with open(BENCH, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        return 0 if compare(spec, *sets) else 1
    results = run_set(spec, _seeds(args.seeds))
    if args.save:
        os.makedirs(os.path.dirname(args.save) or ".", exist_ok=True)
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 0 if summarize(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
