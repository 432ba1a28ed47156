"""Command-line surface: JSON config parsing, subcommands, CSV/JSON outputs.

Every command writes its result files into the output directory together with
one manifest recording the resolved config, seed, code version, wall time and
per-realization skip counts, so any run can be reproduced bit-exactly from its
manifest.  All energies in outputs are dimensionless multiples of delta0.
"""

import argparse
import csv
import datetime
import json
import math
import os
import sys
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .basis import build_hamiltonian, enumerate_sector
from .eigensolve import diagonalize, validate
from .errors import ConfigError
from .experiments import (DEFAULT_J_GRID, find_critical, fit_scaling, grid_for_delta,
                          grid_for_n, melting_map, run_ensemble, scaling_study,
                          sweep_j)
from .model import (C, DELTA0, ModelParams, build_bonds, compact_shape, derive_seed,
                    multiqubit_spacing_log10, sample_disorder, theoretical_jc)
from .spectral import poisson_pdf, spacing_histogram, wigner_pdf

OUTPUT_DIR_ENV = "QUBITCHAOS_OUTPUT_DIR"


@dataclass
class RunConfig:
    """The config schema: `parse_config` takes the allowed keys, the required
    keys (no default), the defaults and the value types from these fields."""

    lx: int
    ly: int
    delta: float = ModelParams.delta
    j: float | None = None
    j_grid: list[float] = field(default_factory=lambda: list(DEFAULT_J_GRID))
    n_d: int = 100
    master_seed: int = 0
    output_dir: str = "."
    window_fraction: float = ModelParams.window_fraction
    parity: str = ModelParams.parity
    n_energy_bins: int = 20
    eta_target: float = 0.3
    sq_target: float = 1.0
    bin_width: float = 0.1
    s_max: float = 5.0
    scaling_mode: str = "n"
    n_values: list[int] = field(default_factory=lambda: [6, 9, 12])
    delta_values: list[float] = field(default_factory=lambda: [0.25, 0.5, 1.0])

    def model_params(self, j: float = 0.0) -> ModelParams:
        return ModelParams(lx=self.lx, ly=self.ly, delta=self.delta, j_bound=j,
                           window_fraction=self.window_fraction, parity=self.parity)


def _conforms(value, kind) -> bool:
    """Whether a parsed JSON value fits a RunConfig field type.

    Booleans are not numbers, an int is a valid float, and floats must be finite.
    """
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(
            _conforms(v, typing.get_args(kind)[0]) for v in value)
    if typing.get_args(kind):  # `X | None`
        return any(_conforms(value, k) for k in typing.get_args(kind))
    if kind in (int, float) and isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, kind)


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document; unknown keys are rejected, defaults filled."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    schema = {f.name: f for f in fields(RunConfig)}
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k, f in schema.items() if k not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    for key, value in raw.items():
        kind = schema[key].type
        if not _conforms(value, kind):
            name = kind.__name__ if isinstance(kind, type) else str(kind)
            name = name.replace("float", "finite float")
            raise ConfigError(f"config key {key!r} must be {name}, got {value!r}")
    cfg = RunConfig(**raw)
    try:
        cfg.model_params()  # field-level invariant checks
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
    grid = cfg.j_grid
    if any(j < 0 for j in grid):
        raise ConfigError("j_grid values must be non-negative")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ConfigError("j_grid must be ascending")
    if cfg.n_d < 1:
        raise ConfigError("n_d must be >= 1")
    if not 0 < cfg.bin_width <= cfg.s_max:
        raise ConfigError(f"need 0 < bin_width <= s_max (one histogram bin at least), "
                          f"got bin_width {cfg.bin_width!r} and s_max {cfg.s_max!r}")
    # The scaling lists are checked for every command, so a bad list fails before
    # any sweep and not after the first ones.
    for key in ("n_values", "delta_values"):
        if len(set(values := getattr(cfg, key))) < 2:
            raise ConfigError(f"{key} needs >= 2 distinct entries for a fit, "
                              f"got {values!r}")
    if any(n < 3 for n in cfg.n_values):
        raise ConfigError(f"n_values entries must be >= 3 qubits (a sector needs >= 4 "
                          f"levels), got {cfg.n_values!r}")
    if any(not 0 < d <= DELTA0 for d in cfg.delta_values):
        raise ConfigError(f"delta_values entries must be in (0, delta0={DELTA0}], "
                          f"got {cfg.delta_values!r}")
    return cfg


def _write_json(path: Path, doc):
    """The one JSON writer: strict JSON, so a NaN or infinity is an error, not output."""
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# Command bodies: (config, parsed arguments, output dir) -> skipped realizations.

def _estimate(cfg, args, out: Path) -> int:
    n, delta0, delta, c = args.n, args.delta0, args.delta, args.c
    log10_spacing = multiqubit_spacing_log10(n, delta0)
    jc, jcs = theoretical_jc(n, delta0=delta0, delta=delta, c=c)
    print(f"n = {n}")
    print(f"multi-qubit spacing: log10(Delta_n/Delta_0) = {log10_spacing:.2f}")
    print(f"chaos border estimate J_c  = {jc:.4g} Delta_0  (C = {c})")
    print(f"mixing border estimate J_cs = {jcs:.4g} Delta_0")
    _write_json(out / "estimate.json", {
        "n": n, "delta0": delta0, "delta": delta, "c": c,
        "log10_multiqubit_spacing": log10_spacing, "j_c": jc, "j_cs": jcs})
    return 0


def _spectrum(cfg: RunConfig, args, out: Path) -> int:
    if cfg.j is None:
        raise ConfigError("spectrum requires a 'j' value in the config")
    params = cfg.model_params(cfg.j)
    sector = enumerate_sector(params.n, params.parity_bit)
    bonds = build_bonds(cfg.lx, cfg.ly)
    seed = derive_seed(cfg.master_seed, 0)
    h = build_hamiltonian(sector, sample_disorder(params, seed, bonds), bonds)
    decomp = diagonalize(h)
    report = validate(decomp, h)
    _write_csv(out / "spectrum.csv", ["index", "eigenvalue"],
               enumerate(decomp.eigenvalues.tolist()))
    _write_json(out / "spectrum.json", {
        "dim": h.dim, "seed": seed,
        "ortho_residual": report.ortho_residual,
        "eigen_residual": report.eigen_residual,
        "passed": report.passed})
    if args.dump_matrix:
        with open(out / "matrix.txt", "w") as fh:
            rows, cols = np.nonzero(h.matrix)
            values = h.matrix[rows, cols]
            for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
                fh.write(f"{r} {c} {v!r}\n")
    return 0


def _pss(cfg: RunConfig, args, out: Path) -> int:
    if cfg.j is None:
        raise ConfigError("pss requires a 'j' value in the config")
    result = run_ensemble(cfg.model_params(), cfg.j, cfg.n_d, cfg.master_seed)
    hist = spacing_histogram(result.sample.spacings, cfg.bin_width, cfg.s_max)
    centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    rows = zip(hist.edges[:-1], hist.edges[1:], hist.density,
               poisson_pdf(centers), wigner_pdf(centers))
    _write_csv(out / "pss.csv",
               ["s_bin_left", "s_bin_right", "density", "pp_density", "pw_density"],
               rows)
    _write_json(out / "pss.json", {
        "j": cfg.j, "eta": result.eta_pooled, "eta_sem": result.eta_sem,
        "sq_mean": result.sq_mean, "sq_sem": result.sq_sem,
        "n_s": result.sample.n_s, "n_d": result.sample.n_d})
    return result.n_skipped


def _sweep_to_csv(cfg: RunConfig, path: Path):
    """Run the config's J sweep and write it as CSV; returns (points, skipped)."""
    points = sweep_j(cfg.model_params(), cfg.j_grid, cfg.n_d, cfg.master_seed)
    _write_csv(path, ["j", "eta_mean", "eta_sem", "sq_mean", "sq_sem", "n_s", "n_d"],
               [[p.j, p.eta_pooled, p.eta_sem, p.sq_mean, p.sq_sem, p.sample.n_s,
                 p.sample.n_d] for p in points])
    return points, sum(p.n_skipped for p in points)


def _sweep(cfg: RunConfig, args, out: Path) -> int:
    return _sweep_to_csv(cfg, out / "sweep.csv")[1]


def _critical(cfg: RunConfig, args, out: Path) -> int:
    if cfg.delta == 0.0:
        raise ConfigError(
            "J_c extraction at delta=0 is blocked: quasidegenerate bands break "
            "spacing statistics (the border scales to zero with delta)")
    points, skipped = _sweep_to_csv(cfg, out / "critical_sweep.csv")
    records = []
    for kind, target in (("eta", cfg.eta_target), ("sq", cfg.sq_target)):
        res = find_critical(points, kind, target)
        records.append({"target": res.target, "j_crit": res.j_crit,
                        "bracket_lo": res.bracket[0], "bracket_hi": res.bracket[1],
                        "n": cfg.lx * cfg.ly, "delta": cfg.delta,
                        "seed": cfg.master_seed, "ambiguous": res.ambiguous})
    _write_json(out / "critical.json", records)
    return skipped


def _scaling(cfg: RunConfig, args, out: Path) -> int:
    # One (params, J grid) run per x value; (border, slope) pairs to fit against
    # the first column, where slope None fits it too.
    params = cfg.model_params()
    if cfg.scaling_mode == "n":
        xs, runs = cfg.n_values, []
        for n in xs:
            lx, ly = compact_shape(n)
            runs.append((replace(params, lx=lx, ly=ly), grid_for_n(n, cfg.delta)))
        targets = [("eta", cfg.eta_target), ("sq", cfg.sq_target)]
        columns, fits = ["n", "j_c", "j_cs"], [("j_c", None), ("j_c", -1.0), ("j_cs", -1.0)]
    elif cfg.scaling_mode == "delta":
        xs = cfg.delta_values
        runs = [(replace(params, delta=d), grid_for_delta(params.n, d)) for d in xs]
        targets = [("sq", cfg.sq_target)]
        columns, fits = ["delta", "j_cs"], [("j_cs", None), ("j_cs", 1.0)]
    else:
        raise ConfigError(f"scaling_mode must be 'n' or 'delta', got {cfg.scaling_mode!r}")
    rows = [[x, *crossings] for x, crossings
            in zip(xs, scaling_study(runs, cfg.n_d, cfg.master_seed, targets))]
    _write_csv(out / "scaling.csv", columns, rows)
    doc = {"mode": cfg.scaling_mode}
    for y, slope in fits:
        fit = fit_scaling([(r[0], r[columns.index(y)]) for r in rows], slope)
        doc[f"{y}_{'free' if slope is None else 'fixed'}"] = {
            "coefficient": fit.coefficient, "slope": fit.slope}
    _write_json(out / "scaling.json", doc)
    return 0


def _melt(cfg: RunConfig, args, out: Path) -> int:
    mmap = melting_map(cfg.model_params(), cfg.j_grid, cfg.n_energy_bins,
                       derive_seed(cfg.master_seed, 0))
    rows = []
    for row, j in enumerate(mmap.j_values):
        for b in range(cfg.n_energy_bins):
            val = mmap.cells[row, b]
            rows.append([j, mmap.bin_edges[b], mmap.bin_edges[b + 1],
                         "" if np.isnan(val) else val, mmap.counts[row, b]])
    _write_csv(out / "melt.csv", ["j", "bin_left", "bin_right", "sq_mean", "count"],
               rows)
    return 0


# Command name -> (body, help text); the order is the order of the help listing.
_COMMANDS = {
    "spectrum": (_spectrum, "one realization: eigenvalues + residuals"),
    "pss": (_pss, "spacing histogram and eta at one J"),
    "sweep": (_sweep, "eta and S_q versus J"),
    "critical": (_critical, "extract J_c and J_cs from a sweep"),
    "scaling": (_scaling, "critical-coupling scaling fits"),
    "melt": (_melt, "S_q melting map for one realization"),
    "estimate": (_estimate, "closed-form estimates for arbitrary n"),
}


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a ConfigError, so it ends like any other bad input."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qubitchaos",
        description="Chaos-border diagnostics for a disordered coupled-qubit model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "estimate":
            p.add_argument("--config", help="JSON config file")
    sub.choices["spectrum"].add_argument(
        "--dump-matrix", action="store_true",
        help="also write the sector matrix as (row, col, value) triplets")
    est = sub.choices["estimate"]
    est.add_argument("--n", type=int, required=True)
    est.add_argument("--delta0", type=float, default=DELTA0)
    est.add_argument("--delta", type=float, default=ModelParams.delta)
    est.add_argument("--c", type=float, default=C)
    est.add_argument("--output-dir", default=".")
    return parser


def run_command(argv) -> int:
    """Run one CLI invocation; returns the process exit status.

    Every command runs the same way: load and validate its config, resolve the
    output directory, run the command body, then write `<command>_manifest.json`.
    `estimate` takes its config from flags and records it with seed 0.
    """
    try:
        args = _build_parser().parse_args(argv)
        body = _COMMANDS[args.command][0]
        if args.command == "estimate":
            cfg = None
            record = {"n": args.n, "delta0": args.delta0, "delta": args.delta, "c": args.c}
            for flag in ("delta0", "delta", "c"):
                if not math.isfinite(value := record[flag]):
                    raise ConfigError(f"--{flag} must be a finite number, got {value!r}")
            seed, out = 0, args.output_dir
        else:
            if args.config is None:
                raise ConfigError("this command requires --config FILE")
            cfg = parse_config(Path(args.config).read_text())
            record, seed, out = asdict(cfg), cfg.master_seed, cfg.output_dir
        out = Path(os.environ.get(OUTPUT_DIR_ENV, out))
        out.mkdir(parents=True, exist_ok=True)
        started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
        t0 = time.monotonic()
        skipped = body(cfg, args, out)
        _write_json(out / f"{args.command}_manifest.json", {
            "config": record, "master_seed": seed, "version": __version__,
            "started_at": started_at, "elapsed_s": round(time.monotonic() - t0, 3),
            "skipped_realizations": skipped})
        return 0
    # OSError for unreadable configs and unwritable outputs; every type in .errors
    # is a RuntimeError or a ValueError.
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
