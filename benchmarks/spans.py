"""Layer spans for the traced benchmark run.

The tracer wraps the names that ``qubitchaos.experiments`` and
``qubitchaos.cli`` import from the other modules, so a span opens and closes
around every call into a layer without touching the library's source.  A
layer's self time is its spans' duration minus the part covered by spans
nested inside them.  Self times and counts are accumulated as spans close
rather than kept span by span, so memory stays flat however many
realizations a call runs.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from qubitchaos import cli, experiments

# Layer -> the imported names that enter it.  Layers are named after modules.
LAYERS = {
    "model": ("derive_seed", "sample_disorder"),
    "basis.enumerate_sector": ("enumerate_sector",),
    "basis.build_hamiltonian": ("build_hamiltonian",),
    "eigensolve.diagonalize": ("diagonalize",),
    "spectral": ("select_central_levels", "normalized_spacings", "eta"),
    "eigenstates": ("entropies", "mean_entropy"),
    "experiments": ("run_ensemble", "sweep_j", "find_critical", "melting_map"),
    "cli.parse_config": ("parse_config",),
    "cli": ("run_command",),
}
PATCHED_MODULES = (experiments, cli)


def dsyevd_gflop(dim: int) -> float:
    """Computed (not counted) flops of a dense symmetric eigensolve with vectors.

    4/3 n^3 for the tridiagonal reduction, 4/3 n^3 for divide and conquer on
    the tridiagonal without deflation, and 2 n^3 to back-transform the
    vectors: 14/3 n^3 in all, in units of 1e9.
    """
    return 14.0 / 3.0 * dim ** 3 / 1e9


class Tracer:
    """Self time and call count per layer, plus work counts, for one workload call."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.first_solve = None          # (hamiltonian, decomposition) of the first solve
        self._open: list[list[float]] = []  # child time covered, per open span

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [0.0]
            self._open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._open.pop()
                self.self_s[layer] += duration - frame[0]
                if self._open:
                    self._open[-1][0] += duration
                self.calls[layer] += 1
            self._count(fn.__name__, args, result)
            return result
        return spanned

    def _count(self, name: str, args, result) -> None:
        if name == "build_hamiltonian":
            self.counts["matrix_bytes"] = max(self.counts["matrix_bytes"], result.dim ** 2 * 8)
        elif name == "diagonalize":
            dim = result.dim
            self.counts["vectors_computed"] += dim
            self.counts["gflop"] += dsyevd_gflop(dim)
            if self.first_solve is None:
                self.first_solve = (args[0], result)
        elif name == "normalized_spacings":
            self.counts["spacings"] += len(result)
        elif name == "mean_entropy":
            decomp, window = args
            self.counts["columns"] += len(range(*window.indices(decomp.dim)))
        elif name == "entropies":
            self.counts["columns"] += args[0].shape[1]

    @contextmanager
    def installed(self):
        """Replace the layer entry names in experiments and cli for the duration."""
        saved = []
        try:
            for module in PATCHED_MODULES:
                for layer, names in LAYERS.items():
                    for name in names:
                        if hasattr(module, name):
                            original = getattr(module, name)
                            saved.append((module, name, original))
                            setattr(module, name, self.wrap(layer, original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)
