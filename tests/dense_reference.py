"""Dense Heisenberg and Schroedinger evolution from numpy alone: the
reference the Fock and spin oracles are compared against.

It shares no code with ``qmfslab``: single-mode quadratures from a
numpy ladder, one ``np.linalg.eigh`` of a dense Hermitian H, then
conjugation by the eigenvectors.
"""

import numpy as np


def quadratures(N: int, hbar: float = 1.0, ref_scale: float = 1.0):
    """Single-mode (q, p), N x N, at reference scale w~ = ``ref_scale``:
    q = sqrt(hbar / 2 w~) (a + a+), p = i sqrt(hbar w~ / 2) (a+ - a), with
    the lowering operator a = sum_n sqrt(n) |n - 1><n|."""
    a = np.diag(np.sqrt(np.arange(1.0, N)), 1)
    q = np.sqrt(hbar / (2 * ref_scale)) * (a + a.T)
    p = 1j * np.sqrt(hbar * ref_scale / 2) * (a.T - a)
    return q, p


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
