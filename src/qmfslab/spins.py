"""Exact two-ensemble spin simulation at finite J0, on single-spin factors.

Two collective spins of total angular momentum J0, polarized oppositely
along z and precessing under H = -gamma B0 (Jz + J'z).  The collective
variable Q = (Jx + J'x)/sqrt(J0) obeys the exact operator identity

    [Q(t), Q(t')] = i hbar sin(gamma B0 (t' - t)) (Jz + J'z) / J0,

so on states near the oppositely stretched configuration (where
Jz + J'z ~ 0) the commutator is suppressed by 1/J0: the large-spin
limit of the Gaussian (Holstein-Primakoff) pair model.  The sign of the
sine was pinned against the dense propagator at J0 = 1/2 before the
closed form was frozen here.

No (2 J0 + 1)^2-dimensional matrix is formed.  H = h x 1 + 1 x h with
h = -gamma B0 Jz diagonal, and Q = (Jx x 1 + 1 x Jx)/sqrt(J0), are
Kronecker sums whose parts all commute with each other.  So
Q(t) = (Jx(t) x 1 + 1 x Jx(t))/sqrt(J0), where Jx(t) evolves under h
alone, and [Q(t), Q(t')] = c x 1 + 1 x c with c = [Jx(t), Jx(t')]/J0:
every oracle works on d x d single-spin matrices, d = 2 J0 + 1.  A
product state |m> x |m'> is a point (i, i') of a d x d grid with
m = J0 - i and m' = J0 - i' (flat kron index i d + i').
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ROW_Q, spin_pair_hp
from .phase_space import expm, transfer_matrix

__all__ = [
    "SpinPair",
    "build_spin_pair",
    "angular_momentum_ops",
    "qmfs_commutator_identity",
    "hp_agreement",
    "stretched_state",
    "evolve_state",
]

# Largest product-space dimension (2 J0 + 1)^2, i.e. J0 <= 128: there, on
# one core, one identity residual (on 257 x 257 factors) takes about
# 0.03 s and hp_agreement (on 257 x 257 states) about 0.2 s.
DIM_CAP = 257**2


def _single_dim(J0: float) -> int:
    """Single-spin dimension 2 J0 + 1; J0 must be a positive (half-)integer."""
    if not (J0 > 0 and math.isfinite(J0) and round(2 * J0) == 2 * J0):
        raise ValueError("J0 must be a positive integer or half-integer")
    return int(round(2 * J0)) + 1


def _check_j0(J0: float) -> None:
    """Reject a J0 that is not a positive (half-)integer or whose product
    dimension (2 J0 + 1)^2 is above ``DIM_CAP``."""
    d = _single_dim(J0)
    if d * d > DIM_CAP:
        raise ValueError(
            f"J0 = {J0} needs product dimension {d * d}, above the cap "
            f"{DIM_CAP} (J0 <= {(math.isqrt(DIM_CAP) - 1) / 2:g})"
        )


def angular_momentum_ops(J0: float, hbar: float = 1.0):
    """Dense (Jx, Jy, Jz) for a single spin of total angular momentum J0."""
    d = _single_dim(J0)
    m = np.arange(J0, -J0 - 1, -1)
    Jz = hbar * np.diag(m)
    Jp = np.zeros((d, d))
    for i in range(1, d):
        mm = m[i]
        Jp[i - 1, i] = np.sqrt(J0 * (J0 + 1) - mm * (mm + 1))
    Jp = hbar * Jp
    Jm = Jp.T
    Jx = (Jp + Jm) / 2
    Jy = (Jp - Jm) / 2j
    return Jx, Jy, Jz


@dataclass(frozen=True)
class SpinPair:
    """Two spin ensembles of total angular momentum J0 each.

    Holds the single-spin operators ``jx``, ``jy``, ``jz`` (d x d,
    d = 2 J0 + 1, hbar included) and nothing of size ``dim`` = d^2.
    Product-space quantities are d x d grids over (i, i') with
    m = J0 - i, m' = J0 - i'; a state of length ``dim`` in kron order
    is such a grid after ``reshape(d, d)``.
    """

    J0: float
    gamma_B0: float
    hbar: float
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    @property
    def d(self) -> int:
        return self.jz.shape[0]

    @property
    def dim(self) -> int:
        return self.d**2

    @property
    def jz_total(self) -> np.ndarray:
        """Jz + J'z (diagonal) on the product grid."""
        z = np.diag(self.jz)
        return z[:, None] + z[None, :]

    @property
    def spin_energies(self) -> np.ndarray:
        """Diagonal of the single-spin h = -gamma B0 Jz."""
        return -self.gamma_B0 * np.diag(self.jz)

    @property
    def energies(self) -> np.ndarray:
        """Diagonal of H = -gamma B0 (Jz + J'z) on the product grid."""
        return -self.gamma_B0 * self.jz_total


def build_spin_pair(J0: float, gamma_B0: float, hbar: float = 1.0) -> SpinPair:
    """Pair of spins under H = -gamma B0 (Jz + J'z), validated exactly.

    The dimension cap is checked before anything is allocated.  The
    angular-momentum algebra [Jx, Jy] = i hbar Jz is checked on the
    single-spin operators, and Jz must be diagonal: then H is diagonal
    on the product basis and conserves Jz + J'z.
    """
    _check_j0(J0)
    Jx, Jy, Jz = angular_momentum_ops(J0, hbar)
    comm = Jx @ Jy - Jy @ Jx - 1j * hbar * Jz
    if np.linalg.norm(comm) > 1e-13 * max(1.0, np.linalg.norm(Jz)) * hbar:
        raise AssertionError("angular momentum algebra violated")
    if np.count_nonzero(Jz - np.diag(np.diag(Jz))):
        raise AssertionError("Jz is not diagonal, so H does not conserve Jz + J'z")
    return SpinPair(J0, gamma_B0, hbar, Jx, Jy, Jz)


def stretched_state(pair: SpinPair, theta: float = 0.0) -> np.ndarray:
    """Oppositely polarized product state |J0, +J0> x |J0, -J0>.

    ``theta`` rotates the first spin about the y axis, displacing the
    collective position <Q> away from zero (small coherent excitation).
    """
    up = np.zeros(pair.d, dtype=complex)
    up[0] = 1.0  # m = +J0 in the descending-m basis
    down = np.zeros(pair.d, dtype=complex)
    down[-1] = 1.0
    if theta != 0.0:
        up = expm(-1j * theta * pair.jy / pair.hbar) @ up
    return np.kron(up, down)


def evolve_state(pair: SpinPair, psi: np.ndarray, t: float) -> np.ndarray:
    """psi(t) = exp(-iHt/hbar) psi: H is diagonal, so one phase per entry."""
    phase = np.exp(-1j * pair.energies * t / pair.hbar)
    return np.asarray(psi) * phase.reshape(np.shape(psi))


def _evolved_jx(pair: SpinPair, t: float) -> np.ndarray:
    """Jx(t) = exp(i h t/hbar) Jx exp(-i h t/hbar) for the single-spin h:
    entry (a, b) of Jx times exp(i (e_a - e_b) t / hbar)."""
    e = pair.spin_energies
    return pair.jx * np.exp(1j * (e[:, None] - e[None, :]) * t / pair.hbar)


def _single_commutator(pair: SpinPair, t: float, t_prime: float) -> np.ndarray:
    """c = [Jx(t), Jx(t')] / J0: [Q(t), Q(t')] = c x 1 + 1 x c."""
    A, B = _evolved_jx(pair, t), _evolved_jx(pair, t_prime)
    return (A @ B - B @ A) / pair.J0


def qmfs_commutator_identity(pair: SpinPair, t: float, t_prime: float) -> float:
    """Spectral norm of the residual of the two-time identity.

    R = [Q(t), Q(t')] - i hbar sin(gamma B0 (t' - t)) (Jz + J'z)/J0
    = R1 x 1 + 1 x R1 with R1 = c - i hbar sin(gamma B0 (t' - t)) Jz/J0.
    R1 is anti-Hermitian, with eigenvalues i mu_k, so R is normal with
    eigenvalues i (mu_k + mu_l) and ||R||_2 = 2 ||R1||_2; for any R1,
    2 ||R1||_2 bounds ||R||_2 from above.  In exact arithmetic R = 0; in
    floating point it measured 2e-16 to 2e-15 for J0 = 2 to 8 and 3e-14
    at J0 = 128, about eps ||Q||_2^2 (||Q||_2^2 ~ 4 J0).
    """
    R1 = _single_commutator(pair, t, t_prime) - (
        1j * pair.hbar * np.sin(pair.gamma_B0 * (t_prime - t))
        * pair.jz / pair.J0)
    return 2 * float(np.linalg.norm(R1, 2))


def hp_agreement(pair: SpinPair, displacement: float, t_grid):
    """Exact spin moments of Q(t) vs the Gaussian pair-model prediction.

    The reference state is the oppositely stretched state with the first
    spin coherently rotated so that <q> = displacement; it evolves by
    phases (``evolve_state``) and Q acts through its Kronecker factors.
    Returns the max deviations (mean, variance) over the grid, scaled by
    sqrt(J0) (mean) and hbar (variance).  The model's propagators on the
    grid come from one ``transfer_matrix`` call.
    """
    model = spin_pair_hp(pair.gamma_B0, pair.hbar).model
    theta = displacement / (np.sqrt(pair.J0) * pair.hbar)
    psi = stretched_state(pair, theta).reshape(pair.d, pair.d)

    # Gaussian prediction: mean starts at (q, p, q', p') = (displacement,
    # 0, 0, 0) to leading order in theta, covariance is the vacuum.
    mean0 = np.array([pair.J0 * pair.hbar * np.sin(theta) / np.sqrt(pair.J0),
                      0.0, 0.0, 0.0])
    V0 = (pair.hbar / 2) * np.eye(4)

    dev_mean = 0.0
    dev_var = 0.0
    Phis = transfer_matrix(model, t_grid)
    for t, Phi in zip(t_grid, Phis):
        psit = evolve_state(pair, psi, t)
        # (Jx x 1 + 1 x Jx) psi on the grid: Jx psi + psi Jx^T
        q_psit = (pair.jx @ psit + psit @ pair.jx.T) / np.sqrt(pair.J0)
        exact_mean = float(np.real(np.vdot(psit, q_psit)))
        exact_var = float(np.real(np.vdot(q_psit, q_psit))) - exact_mean**2
        model_mean = float(ROW_Q @ Phi @ mean0)
        model_var = float(ROW_Q @ Phi @ V0 @ Phi.T @ ROW_Q)
        dev_mean = max(dev_mean, abs(exact_mean - model_mean))
        dev_var = max(dev_var, abs(exact_var - model_var))
    scale_mean = max(abs(displacement), np.sqrt(pair.hbar))
    return dev_mean / scale_mean, dev_var / pair.hbar
