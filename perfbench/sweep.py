"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py [--workloads train,select] [--seeds 1-10]
        [--trace 0] [--out summary.json] [--against earlier-summary.json]

For every workload and metric it prints the median of the per-seed values,
their quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median
and the metric's bound from BENCHMARK.json. A spread above a third of the
bound is flagged `wide`; with `--against`, a median worse than the earlier
summary's by more than the bound is flagged `worse`. Runs go one at a time,
from the checkout root, with the benchmark's own `run_seconds`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    earlier = json.loads(args.against.read_text()) if args.against else {}
    summary: dict = {}
    for workload in args.workloads.split(","):
        runs = [run_once(bench, workload, seed, args.trace) for seed in parse_seeds(args.seeds)]
        summary[workload] = {}
        for m in metrics:
            s = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            summary[workload][m["name"]] = s
            flags = []
            bound = m.get("bound")
            if bound is not None and m["name"] != "setup_s" and s["spread"] > bound / 3:
                flags.append("wide")
            prev = earlier.get(workload, {}).get(m["name"])
            if bound is not None and prev:
                sign = 1 if m["better"] == "lower" else -1
                if sign * (s["median"] - prev["median"]) > bound * prev["median"]:
                    flags.append("worse")
            print(f"{workload:10s} {m['name']:48s} median {s['median']:12.6g} {m['unit']:8s} "
                  f"spread {s['spread']:7.4f} bound {bound if bound is not None else '-'} "
                  f"{' '.join(flags)}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
