"""Desk-scale laboratory for back-action-evading subsystems.

Subpackages, each imported by its own path (the package root exports
only ``__version__``):

- ``phase_space``: symplectic linear models, transfer matrices, exact
  two-time commutators, the algebraic QMFS verdict.
- ``models``: the concrete model zoo (single oscillator, positive/
  negative-mass pair, sideband picture, large-spin pair) and the
  model-file format, each read as a ``ModelBundle``.
- ``conditional``: continuous Gaussian measurement, Riccati covariance
  flow, stochastic conditional means, waveform estimation.
- ``fock``: truncated-Fock brute-force oracle on Kronecker factors.
- ``koopman``: classical flows and their tangent maps for the
  commuting subsystem.
- ``spins``: exact finite-J0 two-ensemble simulation.
- ``circuits``: stroboscopic (reversible-circuit) Pauli-Z propagation.
- ``cli``: batch experiment runner.
"""

__version__ = "0.1.0"
