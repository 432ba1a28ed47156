"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --runs 10 [--workloads ensemble_n12 ...] [--out FILE]

Runs ``run.py --trace 0`` once per seed (seeds 1..runs) and workload, one
after the other, and prints for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median next to
the metric's bound from BENCHMARK.json.  ``--out`` also writes every run's
result and the machine record as JSON; a before/after comparison runs it on
both commits with the same arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, check=False, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout}\n{done.stderr}")
    machine = next(json.loads(x.split(" ", 1)[1]) for x in lines if x.startswith("machine "))
    return json.loads(lines[-1]), machine


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    doc = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for name in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, doc["machine"] = run(name, seed, SPEC["run_seconds"])
            if not result["correct"]:
                raise RuntimeError(f"{name} seed {seed}: outputs failed the check")
            results.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        stats = {k: summarize([r["metrics"][k]["value"] for r in results]) for k in bounds}
        doc["workloads"][name] = {"metrics": stats, "runs": results}
        for k, s in stats.items():
            flag = "" if s["spread"] < bounds[k] / 3 else "  <-- above bound/3"
            print(f"  {name} {k:14s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}  bound {bounds[k]}{flag}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
