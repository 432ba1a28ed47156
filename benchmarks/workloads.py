"""The benchmark's workloads: what each one calls, its size, and how its outputs are checked.

Every workload exposes the same small interface:

- ``prepare(seed, workdir)`` returns a no-argument callable that makes exactly
  one call into the library, the part that is timed;
- ``read(raw, workdir)`` turns what that call returned (or wrote) into an output;
- ``fingerprint(out)`` reduces an output to the values pinned in
  ``references.json`` and compared between repeated calls;
- ``invariants(out)`` lists violations of properties that hold for any seed;
- ``attempted`` counts the dense solves of one call (one per realization, or
  one per J point of the melting map) and ``skipped(out)`` the realizations
  the library dropped;
- ``output_bytes(out)`` is what the call wrote to disk.

The library is reached through module attributes (``experiments.run_ensemble``,
``cli.run_command``) at call time, so the traced run can wrap them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qubitchaos import cli, experiments
from qubitchaos.model import ModelParams

# Seed whose outputs are pinned in references.json; the timed calls use --seed.
REFERENCE_SEED = 29
# Relative tolerance for pinned and repeated float outputs.  Different BLAS
# kernels move eigenvalues by ~1e-15 relative, far inside this.
RTOL = 1e-8
WINDOW_FRACTION = 0.0625    # library default; sets the central-window size
S0 = 0.4729                 # Poisson/Wigner-Dyson crossing point of P(s)


def window_levels(dim: int) -> int:
    """Levels in the central window: 2*fraction of dim, at least 4."""
    return min(dim, max(4, int(round(2.0 * WINDOW_FRACTION * dim))))


def eta_of(spacings: np.ndarray) -> float:
    """Crossover parameter from the empirical CDF at S0 (Poisson 1, Wigner 0)."""
    f_p = 1.0 - math.exp(-S0)
    f_w = 1.0 - math.exp(-math.pi * S0 * S0 / 4.0)
    return (float(np.mean(spacings < S0)) - f_w) / (f_p - f_w)


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity literals."""
    def reject(token):
        raise ValueError(f"non-finite JSON literal {token}")
    return json.loads(text, parse_constant=reject)


def compare(expected, actual, path: str = "") -> list[str]:
    """Mismatches between two fingerprints: ints and strings exactly, floats to RTOL."""
    if isinstance(expected, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in compare(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(actual, expected, rel_tol=RTOL, abs_tol=1e-12):
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


class _Sector:
    @property
    def dim(self) -> int:
        """Dimension of one popcount-parity sector of the workload's lattice."""
        return 1 << (self.lx * self.ly - 1)

    def read(self, raw, workdir: Path):
        return raw

    def skipped(self, out) -> int:
        return 0

    def output_bytes(self, out) -> int:
        return 0


@dataclass(frozen=True)
class Ensemble(_Sector):
    """run_ensemble at one coupling: n_d dense sector solves, window stats only."""

    name: str = "ensemble_n12"
    lx: int = 3
    ly: int = 4
    delta: float = 1.0
    j: float = 0.27
    n_d: int = 8

    @property
    def attempted(self) -> int:
        return self.n_d

    @property
    def probe_j(self) -> float:
        return self.j

    def prepare(self, seed: int, workdir: Path):
        params = ModelParams(lx=self.lx, ly=self.ly, delta=self.delta)
        return lambda: experiments.run_ensemble(params, self.j, self.n_d, seed)

    def fingerprint(self, out) -> dict:
        return {"eta_pooled": float(out.eta_pooled), "sq_mean": float(out.sq_mean),
                "n_s": int(out.sample.n_s)}

    def skipped(self, out) -> int:
        return int(out.n_skipped)

    def invariants(self, out) -> list[str]:
        bad = []
        kept = self.n_d - out.n_skipped
        sp = out.sample.spacings
        if out.sample.n_s != kept * (window_levels(self.dim) - 1) or len(sp) != out.sample.n_s:
            bad.append(f"n_s={out.sample.n_s} for {kept} realizations")
        if not (np.all(np.isfinite(sp)) and np.all(sp >= 0.0)):
            bad.append("spacings not finite and non-negative")
        elif not math.isclose(float(sp.mean()), 1.0, abs_tol=1e-9):
            bad.append(f"mean normalized spacing {sp.mean()} != 1")
        elif not math.isclose(eta_of(sp), out.eta_pooled, abs_tol=1e-12):
            bad.append(f"eta_pooled {out.eta_pooled} != eta of pooled spacings")
        if not 0.0 < out.sq_mean <= math.log2(self.dim):
            bad.append(f"sq_mean={out.sq_mean} outside (0, log2 dim]")
        return bad


@dataclass(frozen=True)
class MeltCli(_Sector):
    """qubitchaos melt through run_command: one realization over a J grid, every
    eigenvector's entropy, then the melt.csv table and manifest."""

    name: str = "melt_n12"
    lx: int = 3
    ly: int = 4
    delta: float = 1.0
    j_values: tuple = (0.02, 0.05, 0.12, 0.27, 0.48)
    n_bins: int = 20

    @property
    def attempted(self) -> int:
        return len(self.j_values)

    @property
    def probe_j(self) -> float:
        return self.j_values[-1]

    def prepare(self, seed: int, workdir: Path):
        config = workdir / f"melt_{seed}.json"
        config.write_text(json.dumps({
            "lx": self.lx, "ly": self.ly, "delta": self.delta,
            "j_grid": list(self.j_values), "n_energy_bins": self.n_bins,
            "master_seed": seed, "output_dir": str(workdir / "melt_out")}))
        return lambda: cli.run_command(["melt", "--config", str(config)])

    def read(self, status, workdir: Path) -> dict:
        out_dir = workdir / "melt_out"
        manifest = strict_json((out_dir / "melt_manifest.json").read_text())
        with open(out_dir / "melt.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        return {"status": status, "manifest": manifest, "header": rows[0],
                "rows": [[float(x) if x else None for x in r] for r in rows[1:]],
                "output_bytes": sum(p.stat().st_size for p in out_dir.iterdir())}

    def fingerprint(self, out) -> dict:
        cells = [r[3] for r in out["rows"]]
        counts = [int(r[4]) for r in out["rows"]]
        return {"cells": [cells[i:i + self.n_bins] for i in range(0, len(cells), self.n_bins)],
                "counts": [counts[i:i + self.n_bins] for i in range(0, len(counts), self.n_bins)]}

    def output_bytes(self, out) -> int:
        return out["output_bytes"]

    def invariants(self, out) -> list[str]:
        bad = []
        if out["status"] != 0:
            bad.append(f"exit status {out['status']}")
        if out["header"] != ["j", "bin_left", "bin_right", "sq_mean", "count"]:
            return bad + [f"csv header {out['header']}"]
        rows = out["rows"]
        if len(rows) != len(self.j_values) * self.n_bins:
            return bad + [f"{len(rows)} csv rows"]
        grid = np.repeat(self.j_values, self.n_bins)
        if not np.array_equal([r[0] for r in rows], grid):
            bad.append("csv j column differs from the config grid")
        edges = np.linspace(0.0, 1.0, self.n_bins + 1)
        if not np.allclose([r[1:3] for r in rows], np.tile(np.c_[edges[:-1], edges[1:]],
                                                            (len(self.j_values), 1))):
            bad.append("csv bin edges are not an even split of [0, 1]")
        counts = np.array([r[4] for r in rows]).reshape(len(self.j_values), self.n_bins)
        if np.any(counts.sum(axis=1) != self.dim):
            bad.append(f"bin counts do not sum to dim={self.dim} per J")
        for r in rows:
            if (r[3] is None) != (r[4] == 0):
                bad.append("empty sq_mean cells do not coincide with empty bins")
                break
            if r[3] is not None and not 0.0 <= r[3] <= math.log2(self.dim) + 1e-9:
                bad.append("cell entropy outside [0, log2 dim]")
                break
        if out["manifest"]["config"]["n_energy_bins"] != self.n_bins:
            bad.append("manifest config does not record n_energy_bins")
        return bad


WORKLOADS = {w.name: w for w in (Ensemble(), MeltCli())}


def record_references(path: Path, workdir: Path) -> dict:
    """Run every workload at REFERENCE_SEED and write its fingerprint to path."""
    refs = {}
    for name, wl in WORKLOADS.items():
        out = wl.read(wl.prepare(REFERENCE_SEED, workdir)(), workdir)
        problems = wl.invariants(out)
        if problems:
            raise RuntimeError(f"{name}: {problems}")
        refs[name] = {"seed": REFERENCE_SEED, "values": wl.fingerprint(out)}
    path.write_text(json.dumps(refs, indent=1, allow_nan=False) + "\n")
    return refs
