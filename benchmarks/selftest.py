"""Self-test of the benchmark harness at toy size.

    python3 benchmarks/selftest.py

It lives outside tests/ so the library's pytest run never collects it.  It
checks that:

- BENCHMARK.json and workloads.py name the same workloads;
- every workload, shrunk to a 2x3 lattice, runs through measure() untraced and
  traced, passes its checks and reports every metric that BENCHMARK.json names,
  with that metric's unit;
- a perturbed reference value trips the correctness gate, and the run then
  counts every attempted solve as failed;
- strict_json rejects NaN;
- in a directory that holds only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import checkout

checkout.import_library()

import run  # noqa: E402
import workloads  # noqa: E402

TOY = {
    "ensemble_n12": replace(workloads.WORKLOADS["ensemble_n12"], lx=2, ly=3, n_d=4),
    "melt_n12": replace(workloads.WORKLOADS["melt_n12"], lx=2, ly=3),
}


def perturbed(refs: dict, name: str) -> dict:
    """refs with the first float of the workload's reference moved by 1e-6 relative."""
    refs = copy.deepcopy(refs)

    def bump(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, float):
                node[key] = value * (1 + 1e-6)
                return True
            if isinstance(value, (dict, list)) and bump(value):
                return True
        return False

    if not bump(refs[name]["values"]):
        raise RuntimeError(f"{name}: reference holds no float to perturb")
    return refs


def check_workloads(spec: dict, workdir: Path) -> list[str]:
    failures = []
    refs = {name: {"seed": workloads.REFERENCE_SEED, "values": wl.fingerprint(
        wl.read(wl.prepare(workloads.REFERENCE_SEED, workdir)(), workdir))}
        for name, wl in TOY.items()}
    for name, wl in TOY.items():
        for trace in (False, True):
            metrics, details = run.measure(wl, 1, 0.5, trace, refs, workdir)
            result = run.result_line(metrics, details, spec, trace)
            expected = {m["name"]: m["unit"] for m in
                        spec["per_layer" if trace else "end_to_end"]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected:
                failures.append(f"{name} trace={trace}: metrics/units {got} != {expected}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{name} trace={trace}: {details['problems'][:3]} "
                                f"failed={result['failed']}")
            json.dumps(result, allow_nan=False)
        metrics, details = run.measure(wl, 1, 0.5, False, perturbed(refs, name), workdir)
        result = run.result_line(metrics, details, spec, False)
        if result["correct"] or result["failed"] != result["attempted"]:
            failures.append(f"{name}: perturbed reference did not trip the gate")
    return failures


def check_bare_directory(workdir: Path) -> list[str]:
    bare = workdir / "bare"
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC_PATH, bare / run.SPEC_PATH.name)
    done = subprocess.run([sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
                           "ensemble_n12", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads(run.SPEC_PATH.read_text())
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    try:
        workloads.strict_json('{"x": NaN}')
        failures.append("strict_json accepted NaN")
    except ValueError:
        pass
    work = checkout.ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        failures += check_workloads(spec, Path(tmp))
        failures += check_bare_directory(Path(tmp))
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
