"""Chaos-border diagnostics for a disordered coupled-qubit lattice model.

Builds the two-body qubit Hamiltonian on a periodic 2D lattice, exactly
diagonalizes one popcount-parity sector, and extracts level-spacing statistics
(Poisson vs Wigner-Dyson crossover), eigenstate entropies and the critical
couplings where chaos sets in.  Callers import the submodules
(`qubitchaos.experiments`, `qubitchaos.cli`, ...); this package root
re-exports nothing.
"""

__version__ = "0.1.0"
