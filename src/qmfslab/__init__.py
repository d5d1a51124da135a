"""Desk-scale laboratory for back-action-evading subsystems.

Subpackages:

- ``phase_space``: symplectic linear models, transfer matrices, exact
  two-time commutators, the algebraic QMFS verdict.
- ``models``: the concrete model zoo (single oscillator, positive/
  negative-mass pair, sideband picture, large-spin pair) and the
  model-file format, each read as a ``ModelBundle``.
- ``conditional``: continuous Gaussian measurement, Riccati covariance
  flow, stochastic conditional means, waveform estimation.
- ``fock``: truncated-Fock brute-force oracle on Kronecker factors.
- ``koopman``: classical flows and Liouville transport for the
  commuting subsystem.
- ``spins``: exact finite-J0 two-ensemble simulation.
- ``circuits``: stroboscopic (reversible-circuit) Pauli-Z propagation.
- ``cli``: batch experiment runner.
"""

from .phase_space import (
    LinearModel,
    ObservableSet,
    QmfsVerdict,
    build_drift,
    is_qmfs,
    symplectic_form,
    transfer_matrix,
    two_time_commutator,
)
from .models import (
    ModelBundle,
    oscillator_pair,
    sideband_model,
    single_oscillator,
    spin_pair_hp,
)
from .conditional import (
    ForceDrive,
    GaussianState,
    MeasurementChannel,
    Trajectory,
    backaction_diffusion,
    evolve_conditional,
)
from .circuits import BoolFunc, ReversibleCircuit

__version__ = "0.1.0"
