"""Exact two-ensemble spin simulation at finite J0, in the conserved-M blocks.

Two collective spins of total angular momentum J0, polarized oppositely
along z and precessing under H = -gamma B0 (Jz + J'z).  The collective
variable Q = (Jx + J'x)/sqrt(J0) obeys the exact operator identity

    [Q(t), Q(t')] = i hbar sin(gamma B0 (t' - t)) (Jz + J'z) / J0,

so on states near the oppositely stretched configuration (where
Jz + J'z ~ 0) the commutator is suppressed by 1/J0: the large-spin
limit of the Gaussian (Holstein-Primakoff) pair model.  The sign of the
sine was pinned against the dense propagator at J0 = 1/2 before the
closed form was frozen here.

No (2 J0 + 1)^2-dimensional matrix is formed.  A product state
|m> x |m'> is a point (i, i') of a d x d grid, d = 2 J0 + 1, with
m = J0 - i and m' = J0 - i' (flat kron index i d + i').  H is diagonal
and depends only on M = m + m', and Q changes M by +-1.  So an operator
O is kept in *shift form*: for each shift s = (a, b) the grid

    C_s[i, i'] = O[(i, i'), (i + a, i' + b)],

zero where (i + a, i' + b) is off the grid.  Shift s changes M by a + b.
Heisenberg evolution multiplies each entry by
exp(i (E_row - E_col) t / hbar), states evolve by the phases
exp(-i E t / hbar), and products, adjoints and commutators are
elementwise operations on d x d grids.  The residual of the identity
then splits into its Delta M = 0 part D and its Delta M = +-2 parts U;
both map one M sector into one other, with blocks of at most d rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ROW_Q, ModelBundle, spin_pair_hp
from .phase_space import expm, transfer_matrix

__all__ = [
    "SpinPair",
    "build_spin_pair",
    "angular_momentum_ops",
    "qmfs_commutator_identity",
    "excitation_restricted_norm",
    "hp_agreement",
    "stretched_state",
    "evolve_state",
]

# Largest product-space dimension (2 J0 + 1)^2, i.e. J0 <= 128: there one
# identity residual takes about 1 s and 40 MB on one core.
DIM_CAP = 257**2
# excitation_restricted_norm forms its kept block densely: at most the
# dimension the dense oracle used to take
KEPT_CAP = 4096


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
            f"{DIM_CAP} of the block path (J0 <= {(math.isqrt(DIM_CAP) - 1) / 2:g})"
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


def _shift(C: np.ndarray, a: int, b: int) -> np.ndarray:
    """out[i, i'] = C[i + a, i' + b], zero where that is off the grid."""
    out = np.zeros_like(C)
    n0, n1 = C.shape
    if abs(a) < n0 and abs(b) < n1:
        out[max(-a, 0):n0 - max(a, 0), max(-b, 0):n1 - max(b, 0)] = (
            C[max(a, 0):n0 + min(a, 0), max(b, 0):n1 + min(b, 0)])
    return out


def _product(A: dict, B: dict) -> dict:
    """Shift form of A @ B: (A B)[x, x + s + u] = A_s[x] B_u[x + s]."""
    out = {}
    for (a, b), CA in A.items():
        for (c, e), CB in B.items():
            term = CA * _shift(CB, a, b)
            key = (a + c, b + e)
            out[key] = out[key] + term if key in out else term
    return out


def _adjoint(A: dict) -> dict:
    """Shift form of A^H: A^H[y, y - s] = conj(A_s[y - s])."""
    return {(-a, -b): np.conj(_shift(C, -a, -b)) for (a, b), C in A.items()}


def _evolved_q(pair: SpinPair, t: float) -> dict:
    """Shift form of Q(t) = exp(iHt/hbar) Q exp(-iHt/hbar).

    Q's entries come from the nonzero diagonals of the single-spin Jx
    (Q[(i, i'), (i + k, i')] = Jx[i, i + k] / sqrt(J0), likewise for the
    second spin); each is multiplied by exp(i (E_row - E_col) t / hbar).
    """
    d, E = pair.d, pair.energies
    rows, cols = np.nonzero(pair.jx)
    parts = {}
    for k in map(int, np.unique(cols - rows)):
        line = np.zeros(d)
        line[max(-k, 0):d - max(k, 0)] = np.diagonal(pair.jx, k)
        line = line / np.sqrt(pair.J0)
        parts[(k, 0)] = np.repeat(line[:, None], d, axis=1)
        parts[(0, k)] = np.repeat(line[None, :], d, axis=0)
    return {s: C * np.exp(1j * (E - _shift(E, *s)) * t / pair.hbar)
            for s, C in parts.items()}


def _two_time_commutator(pair: SpinPair, t: float, t_prime: float) -> dict:
    """[Q(t), Q(t')] in shift form, from the matrix elements of Q."""
    A, B = _evolved_q(pair, t), _evolved_q(pair, t_prime)
    AB, BA = _product(A, B), _product(B, A)
    return {s: AB.get(s, 0) - BA.get(s, 0) for s in {**AB, **BA}}


def _max_block_norm(X: dict) -> float:
    """max_M ||X_M||_2 of an operator X that changes M by a fixed amount.

    X maps each M sector into one other, so G = X^H X is block diagonal
    in M, and each block G_M = X_M^H X_M is a Hermitian band matrix in i
    of at most d rows.  ||X_M||_2^2 is its largest eigenvalue.
    """
    # imported here, not at the top: scipy.linalg takes ~0.25 s to load,
    # and no other command needs it
    from scipy.linalg import eigvals_banded

    if not X:
        return 0.0
    G = _product(_adjoint(X), X)
    d = next(iter(G.values())).shape[0]
    # states sorted by sector i + i', then by i: sector n is the slice
    # start[n]:start[n + 1], and shift (a, -a) moves a places within it
    i, ip = np.indices((d, d))
    pos = np.empty(d * d, dtype=np.intp)
    pos[np.argsort(((i + ip) * d + i).ravel())] = np.arange(d * d)
    pos = pos.reshape(d, d)
    sizes = d - np.abs(np.arange(2 * d - 1) - (d - 1))
    start = np.concatenate([[0], np.cumsum(sizes)])
    w = max(a for a, _ in G)
    band = np.zeros((w + 1, d * d + w), dtype=complex)
    for (a, b), C in G.items():
        if a >= 0:  # upper band storage: entry (p, p + a) at [w - a, p + a]
            band[w - a, pos + a] = C
    lam = 0.0
    for lo, hi in zip(start[:-1], start[1:]):
        top = hi - lo - 1
        lam = max(lam, eigvals_banded(band[:, lo:hi], select="i",
                                      select_range=(top, top))[-1])
    return float(np.sqrt(lam))


def _identity_residual_blocks(pair: SpinPair, t: float, t_prime: float):
    """(max_M ||D_M||_2, max_M ||U_M||_2) of R = [Q(t), Q(t')] - closed form.

    D is the Delta M = 0 part of R, U its Delta M = +2 and -2 parts.  A
    nonzero part of any other Delta M means Q does not change M by +-1
    only, and raises.
    """
    R = _two_time_commutator(pair, t, t_prime)
    closed = (1j * pair.hbar * np.sin(pair.gamma_B0 * (t_prime - t))
              * pair.jz_total / pair.J0)
    R[(0, 0)] = R.get((0, 0), 0) - closed
    by_dm = {}
    for (a, b), C in R.items():
        by_dm.setdefault(a + b, {})[(a, b)] = C
    stray = sorted(dm for dm, parts in by_dm.items() if abs(dm) not in (0, 2)
                   and any(np.any(C) for C in parts.values()))
    if stray:
        raise AssertionError(f"[Q(t), Q(t')] changes M by {stray}")
    D = _max_block_norm(by_dm.get(0, {}))
    U = max(_max_block_norm(by_dm.get(2, {})),
            _max_block_norm(by_dm.get(-2, {})))
    return D, U


def qmfs_commutator_identity(pair: SpinPair, t: float, t_prime: float) -> float:
    """Rigorous upper bound on the residual of the two-time identity.

    With R = [Q(t), Q(t')] - i hbar sin(gamma B0 (t' - t)) (Jz + J'z)/J0
    = D + U+ + U- (its Delta M = 0, +2, -2 parts, see
    ``_identity_residual_blocks``),

        max(max_M ||D_M||, max_M ||U_M||) <= ||R||_2
                                          <= max_M ||D_M|| + 2 max_M ||U_M||,

    the left side because every block of R bounds its norm from below,
    the right by the triangle inequality (a block-diagonal or
    block-shifted operator has the norm of its largest block).  Returns
    the right side.  In exact arithmetic R = 0; in floating point the
    bound measured 2e-15 to 5e-15 at J0 = 8 and 7e-14 to 1e-13 at
    J0 = 128, about eps ||Q||_2^2 (||Q||_2^2 ~ 4 J0).
    """
    D, U = _identity_residual_blocks(pair, t, t_prime)
    return D + 2 * U


def _dense_block(parts: dict, keep: np.ndarray) -> np.ndarray:
    """Dense matrix of a shift-form operator on the grid states where
    ``keep`` holds, rows and columns in kron order."""
    d = keep.shape[0]
    pos = np.full(keep.shape, -1)
    pos[keep] = np.arange(np.count_nonzero(keep))
    i, ip = np.nonzero(keep)
    out = np.zeros((i.size, i.size), dtype=complex)
    for (a, b), C in parts.items():
        ci, cip = i + a, ip + b
        on = (ci >= 0) & (ci < d) & (cip >= 0) & (cip < d)
        col = np.full(i.size, -1)
        col[on] = pos[ci[on], cip[on]]
        hit = col >= 0
        out[np.flatnonzero(hit), col[hit]] = C[i[hit], ip[hit]]
    return out


def excitation_restricted_norm(
    pair: SpinPair, t: float, t_prime: float, n_max: int
) -> float:
    """Norm of [Q(t), Q(t')] restricted to <= n_max collective excitations.

    Excitation number counts deviation from the oppositely stretched
    state: (J0 - Jz)/hbar for the aligned spin plus (J0 + J'z)/hbar for
    the anti-aligned one.  The kept block is formed densely and its norm
    taken exactly, so it may hold at most ``KEPT_CAP`` states.
    """
    hbar = pair.hbar
    z = np.diag(pair.jz)
    n_op = ((pair.J0 * hbar - z)[:, None] + (pair.J0 * hbar + z)[None, :]) / hbar
    keep = np.real(n_op) <= n_max + 1e-9
    if np.count_nonzero(keep) > KEPT_CAP:
        raise ValueError(
            f"n_max = {n_max} keeps {np.count_nonzero(keep)} states; the "
            f"dense kept block takes at most {KEPT_CAP}")
    comm = _dense_block(_two_time_commutator(pair, t, t_prime), keep)
    return float(np.linalg.norm(comm, 2))


def hp_agreement(
    pair: SpinPair,
    displacement: float,
    t_grid,
    bundle: ModelBundle = None,
):
    """Exact spin moments of Q(t) vs the Gaussian pair-model prediction.

    The reference state is the oppositely stretched state with the first
    spin coherently rotated so that <q> = displacement; it evolves by
    phases (``evolve_state``) and Q acts through its Kronecker factors.
    Returns the max deviations (mean, variance) over the grid, scaled by
    sqrt(J0) (mean) and hbar (variance).
    """
    if bundle is None:
        bundle = spin_pair_hp(pair.J0, pair.gamma_B0, pair.hbar)
    model = bundle.model
    theta = displacement / (np.sqrt(pair.J0) * pair.hbar)
    psi = stretched_state(pair, theta).reshape(pair.d, pair.d)

    # Gaussian prediction: mean starts at (q, p, q', p') = (displacement,
    # 0, 0, 0) to leading order in theta, covariance is the vacuum.
    mean0 = np.array([pair.J0 * pair.hbar * np.sin(theta) / np.sqrt(pair.J0),
                      0.0, 0.0, 0.0])
    V0 = (pair.hbar / 2) * np.eye(4)

    dev_mean = 0.0
    dev_var = 0.0
    for t in t_grid:
        psit = evolve_state(pair, psi, t)
        # (Jx x 1 + 1 x Jx) psi on the grid: Jx psi + psi Jx^T
        q_psit = (pair.jx @ psit + psit @ pair.jx.T) / np.sqrt(pair.J0)
        exact_mean = float(np.real(np.vdot(psit, q_psit)))
        exact_var = float(np.real(np.vdot(q_psit, q_psit))) - exact_mean**2
        Phi = transfer_matrix(model, t)
        model_mean = float(ROW_Q @ Phi @ mean0)
        model_var = float(ROW_Q @ Phi @ V0 @ Phi.T @ ROW_Q)
        dev_mean = max(dev_mean, abs(exact_mean - model_mean))
        dev_var = max(dev_var, abs(exact_var - model_var))
    scale_mean = max(abs(displacement), np.sqrt(pair.hbar))
    return dev_mean / scale_mean, dev_var / pair.hbar
