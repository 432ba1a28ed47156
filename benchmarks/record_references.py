"""Re-record references.json: every workload's outputs at the reference seed.

    python3 benchmarks/record_references.py

Run it only at a commit whose outputs are known to be right, and say in the
change that records them why they moved.
"""

import tempfile
from pathlib import Path

import checkout

checkout.import_library()

import workloads  # noqa: E402

if __name__ == "__main__":
    work = checkout.ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        workloads.record_references(checkout.ROOT / "benchmarks" / "references.json",
                                    Path(tmp))
