"""Dense Heisenberg and Schroedinger evolution from numpy alone: the
reference the Fock and spin oracles are compared against.

It shares no code with ``qmfslab``: one ``np.linalg.eigh`` of a dense
Hermitian H, then conjugation by the eigenvectors.
"""

import numpy as np


class DenseEvolution:
    """H = V diag(E) V+ of a dense Hermitian H, applied as a whole."""

    def __init__(self, H: np.ndarray, hbar: float = 1.0):
        self.energies, self.vectors = np.linalg.eigh(H)
        self.hbar = hbar

    def evolve(self, O: np.ndarray, t: float) -> np.ndarray:
        """O(t) = exp(iHt/hbar) O exp(-iHt/hbar)."""
        V = self.vectors
        phase = np.exp(1j * self.energies * t / self.hbar)
        Otil = V.conj().T @ O @ V
        return V @ (Otil * np.outer(phase, phase.conj())) @ V.conj().T

    def evolve_state(self, psi: np.ndarray, t: float) -> np.ndarray:
        """psi(t) = exp(-iHt/hbar) psi."""
        V = self.vectors
        phase = np.exp(-1j * self.energies * t / self.hbar)
        return V @ (phase * (V.conj().T @ psi))
