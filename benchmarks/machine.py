"""What a benchmark result ran on: cores, memory, versions, BLAS and its threads, code.

threadpoolctl is not a dependency, so the BLAS thread count is read by
loading the OpenBLAS builds that numpy and scipy ship (in ``numpy.libs`` and
``scipy.libs``) with ctypes and calling their ``*get_num_threads*`` entry
point.  Loading an already loaded file returns the same library instance, so
the count is that of the live BLAS.  Other BLAS builds report None.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy
import scipy
import scipy.linalg  # noqa: F401  loads scipy's BLAS before it is queried

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _openblas_threads(package) -> dict | None:
    libs = Path(package.__file__).resolve().parents[1] / f"{package.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"threads": fn(), "library": lib.name, "symbol": symbol}
    return None


def blas_threads() -> dict:
    """Thread count of the BLAS that numpy and scipy each load."""
    return {"numpy": _openblas_threads(numpy), "scipy": _openblas_threads(scipy),
            "method": "ctypes call into the vendored OpenBLAS library"}


def _blas_config(package) -> dict:
    blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _source_digest(root: Path) -> str:
    """sha256 over the library's source files, which identifies code outside git too."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def describe(root: Path) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_config(numpy), "scipy": _blas_config(scipy)},
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
    }
