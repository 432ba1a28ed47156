"""Benchmark of the qubitchaos exact-diagonalization pipeline.

    python3 benchmarks/run.py --workload ensemble_n12 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py [--trace 1]      # every workload, one process each

One run of one workload:

1. ``--trace 0`` only: ``setup_s`` is the median over fresh processes of
   importing the library, the first BLAS calls and enumerating the sector.
2. Warm-up, untimed: one BLAS call, then one call of the workload at the
   reference seed, checked against ``references.json``.
3. For ``--seconds``, repeated calls at ``--seed``, each timed from the call
   into the library to its return and checked: every output satisfies the
   workload's invariants and equals the first call's output.  A new call
   starts only if a typical call still fits in the time left.
4. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
   metrics (untraced and traced calls alternate; see spans.py).

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  ``attempted`` counts the timed calls' dense solves, ``failed``
those skipped by the library, or all of them if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import checkout

SPEC_PATH = checkout.ROOT / "BENCHMARK.json"
BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def probe(args, env=None) -> dict:
    done = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), *map(str, args)],
                          capture_output=True, text=True, check=True, timeout=120,
                          env=None if env is None else {**os.environ, **env})
    return json.loads(done.stdout.splitlines()[-1])


def warm_blas(dim: int) -> None:
    import numpy as np
    import scipy.linalg

    a = np.full((dim, dim), 1.0 / dim) + np.eye(dim)
    scipy.linalg.eigh(a[:256, :256], driver="evd")
    a @ a


def layer_metrics(tracer, output_bytes: int) -> dict:
    """Per-layer values of one traced workload call."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    solve_s = s["eigensolve.diagonalize"]
    return {
        "model.self_s": s["model"],
        "model.calls": calls["model"],
        "basis.enumerate_sector.self_s": s["basis.enumerate_sector"],
        "basis.build_hamiltonian.self_s": s["basis.build_hamiltonian"],
        "basis.build_hamiltonian.calls": calls["basis.build_hamiltonian"],
        "basis.matrix_bytes": counts["matrix_bytes"],
        "eigensolve.diagonalize.self_s": solve_s,
        "eigensolve.diagonalize.calls": calls["eigensolve.diagonalize"],
        "eigensolve.diagonalize.gflop_computed": counts["gflop"],
        "eigensolve.diagonalize.gflops": counts["gflop"] / solve_s if solve_s else 0.0,
        "eigensolve.vectors_used_ratio": counts["columns"] / counts["vectors_computed"]
        if counts["vectors_computed"] else 0.0,
        "spectral.self_s": s["spectral"],
        "spectral.spacings": counts["spacings"],
        "eigenstates.self_s": s["eigenstates"],
        "eigenstates.columns": counts["columns"],
        "experiments.self_s": s["experiments"],
        "cli.parse_config.self_s": s["cli.parse_config"],
        "cli.self_s": s["cli"],
        "cli.output_bytes": output_bytes,
    }


def measure(wl, seed: int, seconds: float, trace: bool, references: dict,
            workdir: Path) -> tuple[dict, dict]:
    """One run of one workload: (metric values, details for the report)."""
    from spans import Tracer
    from workloads import compare

    from qubitchaos.eigensolve import validate

    problems = []
    details: dict = {}
    if not trace:
        details["setup_s"] = [probe(["setup", wl.lx, wl.ly])["setup_s"]
                              for _ in range(SETUP_PROBES)]

    warm_blas(wl.dim)
    ref = references[wl.name]
    out = wl.read(wl.prepare(ref["seed"], workdir)(), workdir)
    problems += [f"seed {ref['seed']}: {m}" for m in
                 wl.invariants(out) + compare(ref["values"], wl.fingerprint(out))]

    call = wl.prepare(seed, workdir)
    walls, traced_walls, layer_rows = [], [], []
    first = residual = None
    skipped = 0
    start = perf_counter()
    while True:
        traced = trace and len(walls) > len(traced_walls)
        tracer = Tracer() if traced else None
        with tracer.installed() if traced else nullcontext():
            t0 = perf_counter()
            raw = call()
            wall = perf_counter() - t0
        out = wl.read(raw, workdir)
        fp = wl.fingerprint(out)
        first = first if first is not None else fp
        problems += [f"seed {seed}: {m}" for m in wl.invariants(out) + compare(first, fp)]
        skipped += wl.skipped(out)
        if traced:
            traced_walls.append(wall)
            layer_rows.append(layer_metrics(tracer, wl.output_bytes(out)))
            if residual is None and tracer.first_solve is not None:
                residual = validate(tracer.first_solve[1], tracer.first_solve[0]).eigen_residual
        else:
            walls.append(wall)
        typical = statistics.median(walls + traced_walls)
        if perf_counter() - start + typical > seconds and (traced_walls or not trace):
            break

    calls = len(walls) + len(traced_walls)
    details.update(walls=walls, traced_walls=traced_walls, problems=problems,
                   attempted=wl.attempted * calls,
                   failed=wl.attempted * calls if problems else skipped)
    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "solves_per_s": statistics.median(wl.attempted / w for w in walls),
            "setup_s": statistics.median(details["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        one_thread = probe(["solve", wl.lx, wl.ly, wl.probe_j, seed], env=ONE_THREAD_ENV)
        details["one_thread_probe"] = one_thread
        metrics = {k: statistics.median(r[k] for r in layer_rows) for k in layer_rows[0]}
        metrics.update({
            "eigensolve.diagonalize.self_s_1thread": one_thread["diagonalize_s"],
            "eigensolve.validate.eigen_residual_max": residual if residual is not None else 0.0,
            "trace.overhead_s": statistics.median(traced_walls) - statistics.median(walls),
        })
    return metrics, details


def result_line(metrics: dict, details: dict, spec: dict, trace: bool) -> dict:
    """The contract's result object; units come from BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match the spec {sorted(units)}")
    return {"correct": not details["problems"], "attempted": details["attempted"],
            "failed": details["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def report(name: str, seed: int, result: dict, details: dict, machine: dict) -> None:
    print(f"machine {json.dumps(machine)}")
    walls, traced = details["walls"], details["traced_walls"]
    print(f"{name} seed={seed} calls={len(walls)} untraced, {len(traced)} traced; "
          f"untraced wall_s samples {[round(w, 4) for w in walls]}")
    if "setup_s" in details:
        print(f"setup_s samples (fresh processes) {[round(s, 4) for s in details['setup_s']]}")
    for k, m in result["metrics"].items():
        print(f"  {k:42s} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'failed_fraction':42s} {result['failed']}/{result['attempted']}")
    for p in details["problems"][:20]:
        print(f"CHECK FAILED {p}")


def run_one(args, spec: dict, references: dict) -> int:
    import machine
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    os.environ.pop("QUBITCHAOS_OUTPUT_DIR", None)   # outputs stay in the work directory
    work = checkout.ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        metrics, details = measure(wl, args.seed, args.seconds, bool(args.trace),
                                   references, Path(tmp))
    result = result_line(metrics, details, spec, bool(args.trace))
    report(wl.name, args.seed, result, details, machine.describe(checkout.ROOT))
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own process; exits 1 if any fails its checks."""
    results = {}
    for w in spec["workloads"]:
        done = subprocess.run([sys.executable, __file__, "--workload", w["name"],
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            results[w["name"]] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[w["name"]] = None
    print(json.dumps(results, allow_nan=False))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkout.import_library()
    if args.workload == "all":
        return run_all(args, spec)
    from workloads import strict_json
    return run_one(args, spec, strict_json((BENCH_DIR / "references.json").read_text()))


if __name__ == "__main__":
    sys.exit(main())
