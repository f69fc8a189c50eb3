#!/usr/bin/env python3
"""compare.py A.json B.json: is run B worse than run A?

A and B are result files written by run.sh (benchmark/out/result.json or a
ledger entry). One row per workload x end-to-end metric: both values, the
change, the bound from BENCHMARK.json and a verdict. The change is B - A as a
share of A, except for `imbalance` (bound 0.01) and `failed_frac` (no slack:
any increase is worse), whose bounds are absolute, so there it is B - A.

  worse       B is on the wrong side of A by more than the bound
  better      B is on the right side of A by more than the bound
  unresolved  within the bound, but the rounds of A or of B spread wider than
              the bound, so the runs cannot tell `same` from `worse`
  same        otherwise

Exits 1 if any row is `worse`.
"""
import json
import os
import sys

ABSOLUTE = {"imbalance", "failed_frac"}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        a = json.load(f)
    with open(sys.argv[2]) as f:
        b = json.load(f)
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(spec_path) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    spec["failed_frac"] = {"better": "lower", "bound": 0.0}

    for key in ("seed", "deps", "quick", "rounds", "run_seconds"):
        if a.get(key) != b.get(key):
            print(f"warning: {key} differs ({a.get(key)} vs {b.get(key)}): the runs are not comparable")
    if a.get("host") != b.get("host"):
        print(f"warning: hosts differ ({a.get('host')} vs {b.get('host')})")

    print(f"{'workload':12s} {'metric':20s} {'A':>16s} {'B':>16s} {'change':>10s} {'bound':>8s}  verdict")
    any_worse = False
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None or "end_to_end" not in wa or "end_to_end" not in wb:
            print(f"{name:12s} missing from one of the runs: worse")
            any_worse = True
            continue
        for metric, cell_a in wa["end_to_end"].items():
            cell_b = wb["end_to_end"][metric]
            va, vb = cell_a["value"], cell_b["value"]
            better, bound = spec[metric]["better"], spec[metric]["bound"]
            if metric in ABSOLUTE:
                change, shown, limit = vb - va, f"{vb - va:+10.4f}", f"{bound:8.4f}"
            else:
                change = (vb - va) / va
                shown, limit = f"{change * 100:+9.2f}%", f"{bound * 100:7.1f}%"
            toward_worse = change if better == "lower" else -change
            if toward_worse > bound:
                verdict = "worse"
                any_worse = True
            elif toward_worse < -bound:
                verdict = "better"
            elif max(cell_a["round_spread"], cell_b["round_spread"]) > bound:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{name:12s} {metric:20s} {va:16.9g} {vb:16.9g} {shown} {limit}  {verdict}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
