#!/usr/bin/env python3
"""The full benchmark protocol, started by run.sh once the program is built.

Rounds of the pass that BENCHMARK.json gates (`--workload W --seed S
--seconds T --trace 0`), each in a fresh child process, workloads interleaved
inside each round (W1 W2 W3 W4, W1 ...), never two at once. The rounds of a
workload share its `run_seconds`, so a full run times each workload as long
as one gated pass does, in slices spread over the whole run. The same seed is
used in every round. The timed sorts and set-ups of all rounds are pooled and
the metrics are computed from the pool exactly as a pass computes them from
its own sorts. One layer pass per workload follows. Everything is printed by
name with its unit and written to benchmark/out/result.json, which compare.py
diffs against another run.

    full_run.py --bin PATH [--seed S] [--quick]

--quick is one round of a tenth of the time: a smoke test whose numbers are
not comparable with a full run's.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROUNDS = 5
CHILD_TIMEOUT_S = 120
DEFAULT_SEED = 20170529
OUT_DIR = "benchmark/out"


def text_of(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_child(cmd):
    """One pass in a fresh process: (result line, raw samples), or None when it
    was killed or died without a result."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  killed after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}", file=sys.stderr)
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"  exit {done.returncode}: {' '.join(cmd)}", file=sys.stderr)
        return None
    samples = {}
    for line in lines:
        if line.startswith("#samples "):
            samples = json.loads(line.split(" ", 1)[1])
    return json.loads(lines[-1]), samples


def percentile(values, pct):
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)  # nearest rank, rounded up
    return ordered[int(min(max(rank, 1), len(ordered))) - 1]


def spread(values):
    """Distance between the quartiles as a share of the median; 0 for too few."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bin", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = spec["workloads"]
    rounds = 1 if args.quick else ROUNDS
    run_seconds = spec["run_seconds"] / 10 if args.quick else spec["run_seconds"]
    pooled = {
        w["name"]: {"sort_s": [], "setup_s": [], "attempted": 0, "failed": 0, "rounds": [], "units": {}}
        for w in workloads
    }

    def pass_cmd(name, seconds, trace):
        return [args.bin, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(trace)]

    for r in range(rounds):
        for w in workloads:
            print(f"round {r + 1}/{rounds} {w['name']}: {run_seconds / rounds:g} s of timed sorts", flush=True)
            got = run_child(pass_cmd(w["name"], run_seconds / rounds, 0))
            pool = pooled[w["name"]]
            if got is None:
                # The pass owed a result and gave none.
                pool["attempted"] += 1
                pool["failed"] += 1
                continue
            result, samples = got
            pool["attempted"] += result["attempted"]
            pool["failed"] += result["failed"]
            pool["sort_s"] += samples["sort_s"]
            pool["setup_s"] += samples["setup_s"]
            pool["keys_per_sort"] = samples["keys_per_sort"]
            pool["rounds"].append({k: v["value"] for k, v in result["metrics"].items()})
            pool["units"] = {k: v["unit"] for k, v in result["metrics"].items()}

    report = {
        "schema": "pgxd-benchmark/1",
        "deps": "std-shims",
        "seed": args.seed,
        "quick": args.quick,
        "rounds": rounds,
        "run_seconds": run_seconds,
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "rustc": text_of(["rustc", "-V"]),
        "git_commit": text_of(["git", "rev-parse", "HEAD"]),
        "workloads": {},
    }
    ok = True
    for w in workloads:
        name, pool = w["name"], pooled[w["name"]]
        sorts = pool["sort_s"]
        entry = {"attempted": pool["attempted"], "failed": pool["failed"], "why": w["why"]}
        if sorts:
            per_round = {k: [r[k] for r in pool["rounds"]] for k in pool["units"]}
            # (value, samples it rests on); the two timings and setup_s as a
            # pass computes them, over the pool of all rounds.
            e2e = {
                "setup_s": (statistics.median(pool["setup_s"]), len(pool["setup_s"])),
                "keys_per_s": (pool["keys_per_sort"] * len(sorts) / sum(sorts), len(sorts)),
                "sort_s_p50": (statistics.median(sorts), len(sorts)),
                "imbalance": (max(per_round["imbalance"]), pool["attempted"]),
                "wire_bytes_per_key": (max(per_round["wire_bytes_per_key"]), len(sorts)),
            }
            entry["end_to_end"] = {
                k: {"value": v, "unit": pool["units"][k], "samples": n, "round_spread": spread(per_round[k])}
                for k, (v, n) in e2e.items()
            }
            entry["end_to_end"]["failed_frac"] = {
                "value": pool["failed"] / pool["attempted"], "unit": "fraction",
                "samples": pool["attempted"], "round_spread": 0.0,
            }
        if pool["failed"] or not sorts:
            ok = False

        print(f"layer pass {name}", flush=True)
        got = run_child(pass_cmd(name, run_seconds, 1))
        if got is None:
            ok = False
        else:
            layer = got[0]["metrics"]
            if sorts:
                # The pooled end-to-end sorts are the larger sample of the same clock.
                layer["bench.sort_s_p90"]["value"] = percentile(sorts, 90)
                layer["bench.iterations"]["value"] = len(sorts)
            entry["per_layer"] = layer
            ok = ok and got[0]["failed"] == 0
        report["workloads"][name] = entry

    print()
    print(f"end to end (seed {args.seed}, deps std-shims, {rounds} round(s), "
          f"nproc {report['host']['nproc']}, {report['rustc']})")
    print(f"{'workload':12s} {'metric':20s} {'value':>18s} {'unit':8s} {'samples':>8s} round spread")
    for name, entry in report["workloads"].items():
        for metric, cell in entry.get("end_to_end", {}).items():
            print(f"{name:12s} {metric:20s} {cell['value']:18.9g} {cell['unit']:8s} {cell['samples']:8d} "
                  f"{cell['round_spread'] * 100:6.2f}%")
    print()
    names = list(report["workloads"])
    print(f"{'per layer':36s} {'unit':9s}" + "".join(f"{n:>16s}" for n in names))
    layers = [e.get("per_layer", {}) for e in report["workloads"].values()]
    for metric in (layers[0] if layers else {}):
        cells = "".join(f"{l[metric]['value']:16.6g}" if metric in l else f"{'-':>16s}" for l in layers)
        print(f"{metric:36s} {layers[0][metric]['unit']:9s}{cells}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"\nwrote {path}" + ("" if ok else "  (with failures)"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
