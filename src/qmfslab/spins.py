"""Exact two-ensemble spin simulation at finite J0.

Two collective spins of total angular momentum J0, polarized oppositely
along z and precessing under H = -gamma B0 (Jz + J'z).  The collective
variable Q = (Jx + J'x)/sqrt(J0) obeys the exact operator identity

    [Q(t), Q(t')] = i hbar sin(gamma B0 (t' - t)) (Jz + J'z) / J0,

so on states near the oppositely stretched configuration (where
Jz + J'z ~ 0) the commutator is suppressed by 1/J0: the large-spin
limit of the Gaussian (Holstein-Primakoff) pair model.  The sign of the
sine was pinned against the dense propagator at J0 = 1/2 before the
closed form was frozen here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import HeisenbergPropagator
from .models import ModelBundle, spin_pair_hp
from .phase_space import transfer_matrix

__all__ = [
    "SpinPair",
    "build_spin_pair",
    "angular_momentum_ops",
    "qmfs_commutator_identity",
    "excitation_restricted_norm",
    "hp_agreement",
    "stretched_state",
]

DIM_CAP = 4096


def angular_momentum_ops(J0: float, hbar: float = 1.0):
    """Dense (Jx, Jy, Jz) for a single spin of total angular momentum J0."""
    if round(2 * J0) != 2 * J0 or J0 <= 0:
        raise ValueError("J0 must be a positive integer or half-integer")
    d = int(round(2 * J0)) + 1
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
    """Two spin ensembles with dense operators on dimension (2 J0 + 1)^2.

    ``propagator`` evolves operators (``evolve``) and states
    (``evolve_state``) under H.
    """

    J0: float
    gamma_B0: float
    hbar: float
    ops: dict  # Jx, Jy, Jz, Jx2, Jy2, Jz2 on the product space
    H: np.ndarray
    propagator: HeisenbergPropagator

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def Q(self) -> np.ndarray:
        return (self.ops["Jx"] + self.ops["Jx2"]) / np.sqrt(self.J0)


def build_spin_pair(J0: float, gamma_B0: float, hbar: float = 1.0) -> SpinPair:
    """Pair of spins under H = -gamma B0 (Jz + J'z), validated exactly."""
    Jx, Jy, Jz = angular_momentum_ops(J0, hbar)
    d = Jx.shape[0]
    if d * d > DIM_CAP:
        raise ValueError(f"dimension {d * d} exceeds cap {DIM_CAP}")
    eye = np.eye(d)
    ops = {
        "Jx": np.kron(Jx, eye),
        "Jy": np.kron(Jy, eye),
        "Jz": np.kron(Jz, eye),
        "Jx2": np.kron(eye, Jx),
        "Jy2": np.kron(eye, Jy),
        "Jz2": np.kron(eye, Jz),
    }
    H = -gamma_B0 * (ops["Jz"] + ops["Jz2"])

    comm = ops["Jx"] @ ops["Jy"] - ops["Jy"] @ ops["Jx"] - 1j * hbar * ops["Jz"]
    if np.linalg.norm(comm) > 1e-13 * max(1.0, np.linalg.norm(ops["Jz"])) * hbar:
        raise AssertionError("angular momentum algebra violated")
    cons = H @ (ops["Jz"] + ops["Jz2"]) - (ops["Jz"] + ops["Jz2"]) @ H
    if np.linalg.norm(cons) > 1e-13 * max(1.0, np.linalg.norm(H)):
        raise AssertionError("H does not conserve Jz + J'z")

    return SpinPair(J0, gamma_B0, hbar, ops, H, HeisenbergPropagator(H, hbar))


def stretched_state(pair: SpinPair, theta: float = 0.0) -> np.ndarray:
    """Oppositely polarized product state |J0, +J0> x |J0, -J0>.

    ``theta`` rotates the first spin about the y axis, displacing the
    collective position <Q> away from zero (small coherent excitation).
    """
    d = int(round(2 * pair.J0)) + 1
    up = np.zeros(d, dtype=complex)
    up[0] = 1.0  # m = +J0 in the descending-m basis
    down = np.zeros(d, dtype=complex)
    down[-1] = 1.0
    if theta != 0.0:
        _, Jy, _ = angular_momentum_ops(pair.J0, pair.hbar)
        w, U = np.linalg.eigh(Jy)
        rot = U @ np.diag(np.exp(-1j * theta * w / pair.hbar)) @ U.conj().T
        up = rot @ up
    return np.kron(up, down)


def _two_time_commutator(pair: SpinPair, t: float, t_prime: float):
    """[Q(t), Q(t')], with Q moved into the eigenbasis of H once."""
    prop = pair.propagator
    Qtil = prop.to_eigenbasis(pair.Q)
    Qt = prop.evolve_eigen(Qtil, t)
    Qtp = prop.evolve_eigen(Qtil, t_prime)
    return Qt @ Qtp - Qtp @ Qt


def qmfs_commutator_identity(pair: SpinPair, t: float, t_prime: float) -> float:
    """Residual norm of the exact two-time commutator identity for Q."""
    comm = _two_time_commutator(pair, t, t_prime)
    closed = (
        1j
        * pair.hbar
        * np.sin(pair.gamma_B0 * (t_prime - t))
        * (pair.ops["Jz"] + pair.ops["Jz2"])
        / pair.J0
    )
    return float(np.linalg.norm(comm - closed, 2))


def excitation_restricted_norm(
    pair: SpinPair, t: float, t_prime: float, n_max: int
) -> float:
    """Norm of [Q(t), Q(t')] restricted to <= n_max collective excitations.

    Excitation number counts deviation from the oppositely stretched
    state: (J0 - Jz)/hbar for the aligned spin plus (J0 + J'z)/hbar for
    the anti-aligned one.
    """
    hbar = pair.hbar
    n_op = (
        (pair.J0 * hbar - np.diag(pair.ops["Jz"]))
        + (pair.J0 * hbar + np.diag(pair.ops["Jz2"]))
    ) / hbar
    keep = np.real(n_op) <= n_max + 1e-9
    comm = _two_time_commutator(pair, t, t_prime)
    return float(np.linalg.norm(comm[np.ix_(keep, keep)], 2))


def hp_agreement(
    pair: SpinPair,
    displacement: float,
    t_grid,
    bundle: ModelBundle = None,
):
    """Exact spin moments of Q(t) vs the Gaussian pair-model prediction.

    The reference state is the oppositely stretched state with the first
    spin coherently rotated so that <q> = displacement.  Returns the max
    deviations (mean, variance) over the grid, scaled by sqrt(J0)
    (mean) and hbar (variance).
    """
    if bundle is None:
        bundle = spin_pair_hp(pair.J0, pair.gamma_B0, pair.hbar)
    model = bundle.model
    theta = displacement / (np.sqrt(pair.J0) * pair.hbar)
    psi = stretched_state(pair, theta)

    # Gaussian prediction: mean starts at (q, p, q', p') = (displacement,
    # 0, 0, 0) to leading order in theta, covariance is the vacuum.
    mean0 = np.array([pair.J0 * pair.hbar * np.sin(theta) / np.sqrt(pair.J0),
                      0.0, 0.0, 0.0])
    V0 = (pair.hbar / 2) * np.eye(4)
    row_Q = np.array([1.0, 0.0, 1.0, 0.0])

    Q = pair.Q
    Q2 = Q @ Q
    dev_mean = 0.0
    dev_var = 0.0
    for t in t_grid:
        psit = pair.propagator.evolve_state(psi, t)
        exact_mean = float(np.real(psit.conj() @ Q @ psit))
        exact_var = float(np.real(psit.conj() @ Q2 @ psit)) - exact_mean**2
        Phi = transfer_matrix(model, t)
        model_mean = float(row_Q @ Phi @ mean0)
        model_var = float(row_Q @ Phi @ V0 @ Phi.T @ row_Q)
        dev_mean = max(dev_mean, abs(exact_mean - model_mean))
        dev_var = max(dev_var, abs(exact_var - model_var))
    scale_mean = max(abs(displacement), np.sqrt(pair.hbar))
    return dev_mean / scale_mean, dev_var / pair.hbar
