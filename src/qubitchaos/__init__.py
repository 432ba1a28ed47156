"""Chaos-border diagnostics for a disordered coupled-qubit lattice model.

Builds the two-body qubit Hamiltonian on a periodic 2D lattice, exactly
diagonalizes one popcount-parity sector, and extracts level-spacing statistics
(Poisson vs Wigner-Dyson crossover), eigenstate entropies and the critical
couplings where chaos sets in.
"""

__version__ = "0.1.0"

from .model import (Bond, DisorderRealization, ModelParams, build_bonds,
                    compact_shape, derive_seed, multiqubit_spacing,
                    multiqubit_spacing_log10, sample_disorder, theoretical_jc)
from .basis import ParitySector, SectorHamiltonian, build_hamiltonian, enumerate_sector
from .eigensolve import EigenDecomposition, ResidualReport, diagonalize, validate
from .spectral import (S0, SpacingSample, eta, normalized_spacings, poisson_pdf,
                       reference_cdf, spacing_histogram, wigner_pdf)
from .eigenstates import (eigenstate_profile, entropies, entropy_sq, mean_entropy,
                          weights)
from .experiments import (DEFAULT_J_GRID, CriticalResult, EnsembleResult,
                          MeltingMap, SweepPoint, find_critical, fit_scaling,
                          melting_map, run_ensemble, sweep_j)
