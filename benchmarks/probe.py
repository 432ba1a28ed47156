"""Fresh-process measurements, run as a child of run.py.

    python3 benchmarks/probe.py setup LX LY
        Time to import qubitchaos, make the first BLAS calls and enumerate the
        parity sector and bonds of an LX x LY lattice.  Prints {"setup_s": ...}.

    python3 benchmarks/probe.py solve LX LY J SEED
        After one untimed solve, the median time of diagonalize() on one
        realization at coupling J.  run.py starts it with every BLAS thread
        variable set to 1, so this is the single-threaded baseline.  Prints
        {"diagonalize_s": ..., "repeats": ..., "blas_threads": ...}.

Both print one JSON line on stdout.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import checkout  # noqa: E402


def setup(lx: int, ly: int) -> dict:
    import numpy as np
    import scipy.linalg.blas

    from qubitchaos.basis import enumerate_sector
    from qubitchaos.model import build_bonds

    a = np.full((256, 256), 0.5)
    a @ a                                   # numpy's BLAS
    scipy.linalg.blas.dgemm(1.0, a, a)      # scipy's BLAS, which eigh uses
    enumerate_sector(lx * ly, 0)
    build_bonds(lx, ly)
    return {"setup_s": time.perf_counter() - START}


def solve(lx: int, ly: int, j: float, seed: int, min_seconds: float = 0.2) -> dict:
    from machine import blas_threads
    from qubitchaos.basis import build_hamiltonian, enumerate_sector
    from qubitchaos.eigensolve import diagonalize
    from qubitchaos.model import ModelParams, build_bonds, sample_disorder

    params = ModelParams(lx=lx, ly=ly, j_bound=j)
    bonds = build_bonds(lx, ly)
    h = build_hamiltonian(enumerate_sector(params.n, 0),
                          sample_disorder(params, seed, bonds), bonds)
    diagonalize(h)
    times = []
    while sum(times) < min_seconds or not times:
        t0 = time.perf_counter()
        diagonalize(h)
        times.append(time.perf_counter() - t0)
    return {"diagonalize_s": statistics.median(times), "repeats": len(times),
            "blas_threads": blas_threads()}


if __name__ == "__main__":
    checkout.import_library()
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        result = setup(int(args[0]), int(args[1]))
    elif mode == "solve":
        result = solve(int(args[0]), int(args[1]), float(args[2]), int(args[3]))
    else:
        sys.exit(f"unknown probe {mode!r}")
    print(json.dumps(result))
