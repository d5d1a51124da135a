"""Exact finite-J0 two-ensemble spin dynamics."""

import dataclasses

import numpy as np
import pytest
from dense_reference import DenseEvolution

from qmfslab import spins
from qmfslab.models import spin_pair_hp
from qmfslab.phase_space import transfer_matrix
from qmfslab.spins import (
    angular_momentum_ops,
    build_spin_pair,
    evolve_state,
    hp_agreement,
    qmfs_commutator_identity,
    stretched_state,
)


class DensePair:
    """The dense product-space construction, kept as an oracle for small
    J0: six kron operators on the product space, a dense H and its
    eigendecomposition (``DenseEvolution``), commutators as dense matrix
    products.

    ``H`` defaults to -gamma B0 (Jz + J'z); pass another diagonal H to
    check the single-spin path on energies that are not linear in M.
    """

    def __init__(self, pair, H=None):
        Jx, Jy, Jz = angular_momentum_ops(pair.J0, pair.hbar)
        eye = np.eye(Jx.shape[0])
        self.pair = pair
        self.ops = {
            "Jx": np.kron(Jx, eye), "Jy": np.kron(Jy, eye),
            "Jz": np.kron(Jz, eye), "Jx2": np.kron(eye, Jx),
            "Jy2": np.kron(eye, Jy), "Jz2": np.kron(eye, Jz),
        }
        if H is None:
            H = -pair.gamma_B0 * (self.ops["Jz"] + self.ops["Jz2"])
        self.H = H
        self.Q = (self.ops["Jx"] + self.ops["Jx2"]) / np.sqrt(pair.J0)
        self.propagator = DenseEvolution(H, pair.hbar)

    def commutator(self, t, t_prime):
        Qt = self.propagator.evolve(self.Q, t)
        Qtp = self.propagator.evolve(self.Q, t_prime)
        return Qt @ Qtp - Qtp @ Qt

    def identity_residual(self, t, t_prime):
        p = self.pair
        closed = (1j * p.hbar * np.sin(p.gamma_B0 * (t_prime - t))
                  * (self.ops["Jz"] + self.ops["Jz2"]) / p.J0)
        return float(np.linalg.norm(self.commutator(t, t_prime) - closed, 2))

    def excitation_restricted_norm(self, t, t_prime, n_max):
        p = self.pair
        n_op = ((p.J0 * p.hbar - np.diag(self.ops["Jz"]))
                + (p.J0 * p.hbar + np.diag(self.ops["Jz2"]))) / p.hbar
        keep = np.real(n_op) <= n_max + 1e-9
        comm = self.commutator(t, t_prime)
        return float(np.linalg.norm(comm[np.ix_(keep, keep)], 2))

    def hp_agreement(self, displacement, t_grid):
        p = self.pair
        model = spin_pair_hp(p.gamma_B0, p.hbar).model
        theta = displacement / (np.sqrt(p.J0) * p.hbar)
        _, Jy, _ = angular_momentum_ops(p.J0, p.hbar)
        w, U = np.linalg.eigh(Jy)
        up = np.zeros(p.d, dtype=complex)
        up[0] = 1.0
        up = U @ np.diag(np.exp(-1j * theta * w / p.hbar)) @ U.conj().T @ up
        down = np.zeros(p.d, dtype=complex)
        down[-1] = 1.0
        psi = np.kron(up, down)
        mean0 = np.array([p.J0 * p.hbar * np.sin(theta) / np.sqrt(p.J0),
                          0.0, 0.0, 0.0])
        V0 = (p.hbar / 2) * np.eye(4)
        row_Q = np.array([1.0, 0.0, 1.0, 0.0])
        Q2 = self.Q @ self.Q
        dev_mean = dev_var = 0.0
        for t in t_grid:
            psit = self.propagator.evolve_state(psi, t)
            mean = float(np.real(psit.conj() @ self.Q @ psit))
            var = float(np.real(psit.conj() @ Q2 @ psit)) - mean**2
            Phi = transfer_matrix(model, t)
            dev_mean = max(dev_mean, abs(mean - float(row_Q @ Phi @ mean0)))
            dev_var = max(dev_var, abs(
                var - float(row_Q @ Phi @ V0 @ Phi.T @ row_Q)))
        scale_mean = max(abs(displacement), np.sqrt(p.hbar))
        return dev_mean / scale_mean, dev_var / p.hbar


def low_excitation_norm(pair, t, t_prime, n_max):
    """Closed form of ||[Q(t), Q(t')]||_2 on <= n_max excitations.

    By the identity the kept block is diagonal, i hbar sin(gamma B0
    (t' - t)) (Jz + J'z)/J0, so its norm is its largest entry on the kept
    (m, m') grid, whose excitations are i + (d - 1 - i') for m = J0 - i,
    m' = J0 - i': hbar^2 |sin(gamma B0 (t' - t))| min(n_max, 2 J0)/J0.
    """
    i = np.arange(pair.d)
    kept = pair.jz_total[i[:, None] + (pair.d - 1 - i)[None, :] <= n_max]
    return (pair.hbar * abs(np.sin(pair.gamma_B0 * (t_prime - t)))
            * np.max(np.abs(kept)) / pair.J0)


def kron_sum(c):
    """c x 1 + 1 x c on the product space."""
    eye = np.eye(c.shape[0])
    return np.kron(c, eye) + np.kron(eye, c)


SMALL_J0 = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
TIME_PAIRS = [(0.0, 0.7), (1.1, 0.4), (2.0, 2.0), (2.5, -1.3)]


class TestAngularMomentumOps:
    def test_su2_algebra(self):
        for J0 in (0.5, 1.0, 2.5):
            Jx, Jy, Jz = angular_momentum_ops(J0)
            assert np.allclose(Jx @ Jy - Jy @ Jx, 1j * Jz, atol=1e-13)
            assert np.allclose(Jy @ Jz - Jz @ Jy, 1j * Jx, atol=1e-13)

    def test_casimir(self):
        J0 = 1.5
        Jx, Jy, Jz = angular_momentum_ops(J0)
        J2 = Jx @ Jx + Jy @ Jy + Jz @ Jz
        assert np.allclose(J2, J0 * (J0 + 1) * np.eye(Jx.shape[0]), atol=1e-13)

    def test_hbar_scaling(self):
        Jx1, _, _ = angular_momentum_ops(1.0, hbar=1.0)
        Jx2, _, _ = angular_momentum_ops(1.0, hbar=2.0)
        assert np.allclose(Jx2, 2.0 * Jx1)

    def test_invalid_j0(self):
        with pytest.raises(ValueError):
            angular_momentum_ops(0.7)
        with pytest.raises(ValueError):
            angular_momentum_ops(-1.0)
        for J0 in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="J0"):
                angular_momentum_ops(J0)


class TestBuildSpinPair:
    def test_dimensions(self):
        pair = build_spin_pair(2.0, 1.0)
        assert pair.dim == 25

    def test_dim_cap(self):
        # J0 = 128 (dim 257^2) is the largest the spin oracles take
        assert build_spin_pair(128.0, 1.0).dim == spins.DIM_CAP
        with pytest.raises(ValueError, match="cap"):
            build_spin_pair(128.5, 1.0)

    def test_dim_cap_checked_before_allocation(self):
        # single-spin operators alone would need 2e6 x 2e6 entries
        with pytest.raises(ValueError, match="cap"):
            build_spin_pair(1e6, 1.0)

    def test_energy_conservation_structure(self):
        # H = -gamma B0 (Jz + J'z) is diagonal in the product basis, and
        # the pair's energies are its diagonal
        pair = build_spin_pair(1.0, 2.0)
        H = DensePair(pair).H
        assert np.allclose(H, np.diag(np.diag(H)), atol=1e-13)
        assert np.array_equal(np.diag(H), pair.energies.ravel())

    def test_collective_q_hermitian(self):
        # Q(0) = (Jx x 1 + 1 x Jx)/sqrt(J0) is Hermitian because its
        # single-spin factor Jx(0) is
        pair = build_spin_pair(2.0, 1.0)
        jx0 = spins._evolved_jx(pair, 0.0)
        assert np.array_equal(jx0, pair.jx)
        assert np.linalg.norm(jx0 - jx0.conj().T) < 1e-13


class TestStretchedState:
    def test_normalized(self):
        pair = build_spin_pair(4.0, 1.0)
        psi = stretched_state(pair)
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_opposite_polarization(self):
        pair = build_spin_pair(4.0, 1.0)
        psi = stretched_state(pair)
        ops = DensePair(pair).ops
        jz = np.real(psi.conj() @ ops["Jz"] @ psi)
        jz2 = np.real(psi.conj() @ ops["Jz2"] @ psi)
        assert jz == pytest.approx(4.0)
        assert jz2 == pytest.approx(-4.0)

    def test_rotation_displaces_q(self):
        pair = build_spin_pair(8.0, 1.0)
        theta = 0.05
        psi = stretched_state(pair, theta)
        q = np.real(psi.conj() @ DensePair(pair).Q @ psi)
        # <Jx> = J0 sin(theta) for the rotated spin
        assert q == pytest.approx(8.0 * np.sin(theta) / np.sqrt(8.0), abs=1e-12)


class TestCommutatorIdentity:
    def test_exact_identity(self):
        # [Q(t), Q(t')] = i hbar sin(gamma B0 (t' - t)) (Jz + J'z)/J0,
        # sign pinned against the dense propagator
        for J0 in (0.5, 2.0, 4.0):
            pair = build_spin_pair(J0, 1.3)
            for t, tp in [(0.0, 0.7), (1.1, 0.4), (2.0, 2.0)]:
                assert qmfs_commutator_identity(pair, t, tp) < 1e-12

    def test_wrong_sign_is_caught(self):
        # swapping t and t' flips the closed form; the residual against
        # the un-swapped form must be macroscopic
        pair = build_spin_pair(2.0, 1.0)
        t, tp = 0.0, 0.7
        correct = qmfs_commutator_identity(pair, t, tp)
        swapped = qmfs_commutator_identity(pair, tp, t)
        assert correct < 1e-12 and swapped < 1e-12
        # the identity is genuinely antisymmetric: commutator at (t, t')
        # differs from the one at (t', t)
        comm = DensePair(pair).commutator(t, tp)
        assert np.linalg.norm(comm) > 0.1

    def test_suppressed_on_stretched_state(self):
        # on the oppositely stretched state Jz + J'z ~ 0: the commutator
        # matrix element vanishes even though the operator identity has
        # a nonzero right-hand side
        pair = build_spin_pair(4.0, 1.0)
        psi = stretched_state(pair)
        comm = DensePair(pair).commutator(0.0, 0.9)
        assert abs(psi.conj() @ comm @ psi) < 1e-12


class TestExcitationRestriction:
    def test_norm_decays_with_j0(self):
        # within a fixed low-excitation subspace the commutator norm
        # scales like 1/J0: the dense oracle's norms halve as J0 doubles
        norms = []
        for J0 in (2.0, 4.0, 8.0):
            dense = DensePair(build_spin_pair(J0, 1.0))
            norms.append(dense.excitation_restricted_norm(0.0, 0.7, n_max=2))
        assert norms[0] > norms[1] > norms[2]
        assert norms[0] / norms[1] == pytest.approx(2.0, rel=1e-12)
        assert norms[1] / norms[2] == pytest.approx(2.0, rel=1e-12)

    def test_full_space_norm_larger(self):
        dense = DensePair(build_spin_pair(4.0, 1.0))
        low = dense.excitation_restricted_norm(0.0, 0.7, n_max=1)
        high = dense.excitation_restricted_norm(0.0, 0.7, n_max=16)
        assert high > low
        # n_max = 16 keeps every state; the full norm is at m = m' = +-J0
        assert high == pytest.approx(2 * abs(np.sin(0.7)), rel=1e-12)


class TestHolsteinPrimakoff:
    def test_agreement_improves_with_j0(self):
        # fixed physical displacement: the rotation angle shrinks as
        # 1/sqrt(J0), so the Gaussian-model error falls off like 1/J0
        devs = []
        for J0 in (4.0, 8.0, 16.0):
            pair = build_spin_pair(J0, 1.0)
            dev_mean, dev_var = hp_agreement(
                pair, 0.5, np.linspace(0.0, 2 * np.pi, 9)
            )
            devs.append((dev_mean, dev_var))
        assert devs[0][1] > devs[1][1] > devs[2][1]

    def test_small_deviation_at_moderate_j0(self):
        pair = build_spin_pair(16.0, 1.0)
        dev_mean, dev_var = hp_agreement(
            pair, 0.4, np.linspace(0.0, 2 * np.pi, 9)
        )
        assert dev_mean < 1e-2
        assert dev_var < 1e-2


class TestHeisenbergEvolution:
    def test_larmor_precession_of_jx(self):
        # under H = -gamma B0 Jz: Jx(t) = Jx cos(g t) + Jy sin(g t)
        # (sign checked against the dense propagator)
        g = 1.7
        pair = build_spin_pair(2.0, g)
        dense = DensePair(pair)
        t = 0.6
        Jxt = dense.propagator.evolve(dense.ops["Jx"], t)
        expected = dense.ops["Jx"] * np.cos(g * t) + dense.ops["Jy"] * np.sin(
            g * t
        )
        assert np.linalg.norm(Jxt - expected) < 1e-12

    def test_state_evolution_unitary(self):
        pair = build_spin_pair(2.0, 1.0)
        psi = stretched_state(pair, 0.3)
        psit = evolve_state(pair, psi, 1.7)
        assert np.linalg.norm(psit) == pytest.approx(1.0)


def nonlinear_spin_energies(pair):
    """Single-spin energies quadratic in m: H is still a Kronecker sum,
    but the identity's closed form no longer holds, so the residual is
    macroscopic."""
    z = np.diag(pair.jz)
    return -pair.gamma_B0 * z + 0.37 * z**2 / pair.hbar


class TestBlockPathAgainstDense:
    """The single-spin path reproduces the dense construction at J0 <= 4."""

    @pytest.mark.parametrize("J0", SMALL_J0)
    def test_commutator_matches_entrywise(self, J0):
        pair = build_spin_pair(J0, 1.3)
        dense = DensePair(pair)
        scale = np.linalg.norm(dense.Q, 2) ** 2
        for t, tp in TIME_PAIRS:
            c = spins._single_commutator(pair, t, tp)
            diff = kron_sum(c) - dense.commutator(t, tp)
            assert np.max(np.abs(diff)) <= 1e-13 * scale

    @pytest.mark.parametrize("J0", SMALL_J0)
    def test_dense_residual_between_the_bounds(self, J0):
        # 2 ||R1||_2 is both bound and value of ||R1 x 1 + 1 x R1||_2 for
        # an anti-Hermitian R1; here both sides are rounding noise, so
        # they agree up to the rounding scale eps ||Q||^2
        pair = build_spin_pair(J0, 1.3)
        dense = DensePair(pair)
        rounding = 1e-13 * np.linalg.norm(dense.Q, 2) ** 2
        for t, tp in TIME_PAIRS:
            assert qmfs_commutator_identity(pair, t, tp) == pytest.approx(
                dense.identity_residual(t, tp), abs=rounding)

    @pytest.mark.parametrize("J0", (1.0, 2.0, 3.0))
    def test_bounds_hold_for_a_macroscopic_residual(self, J0, monkeypatch):
        pair = build_spin_pair(J0, 1.3)
        e = nonlinear_spin_energies(pair)
        dense = DensePair(pair, H=np.diag((e[:, None] + e[None, :]).ravel()))
        monkeypatch.setattr(spins.SpinPair, "spin_energies",
                            property(nonlinear_spin_energies))
        for t, tp in [(0.0, 0.7), (1.1, 0.4), (2.5, -1.3)]:
            residual = qmfs_commutator_identity(pair, t, tp)
            assert residual > 0.1
            assert residual == pytest.approx(
                dense.identity_residual(t, tp), rel=1e-12)

    @pytest.mark.parametrize("J0", SMALL_J0)
    def test_excitation_norm_matches(self, J0):
        # the dense oracle's restricted norm is the identity's closed
        # form, for n_max below, at and above 2 J0 (all states kept)
        pair = build_spin_pair(J0, 1.3)
        dense = DensePair(pair)
        scale = np.linalg.norm(dense.Q, 2) ** 2
        for n_max in sorted({0, 1, 2, 5, int(2 * J0), int(4 * J0)}):
            for t, tp in TIME_PAIRS:
                assert low_excitation_norm(pair, t, tp, n_max) == (
                    pytest.approx(dense.excitation_restricted_norm(
                        t, tp, n_max), abs=1e-13 * scale))

    @pytest.mark.parametrize("J0", (1.0, 2.0, 3.0, 4.0))
    def test_hp_agreement_matches(self, J0):
        pair = build_spin_pair(J0, 1.3)
        grid = np.linspace(0.0, 2 * np.pi, 9)
        dev_mean, dev_var = hp_agreement(pair, 0.5, grid)
        ref_mean, ref_var = DensePair(pair).hp_agreement(0.5, grid)
        assert dev_var == pytest.approx(ref_var, rel=1e-12)
        # the Gaussian mean is exact, so the mean deviation is rounding
        # noise (~1e-14); it agrees on the scale of the moments (1)
        assert dev_mean == pytest.approx(ref_mean, abs=1e-12)

    @pytest.mark.parametrize("J0", (0.5, 2.0, 4.0))
    def test_state_evolution_by_phases(self, J0):
        pair = build_spin_pair(J0, 1.3)
        psi = stretched_state(pair, 0.4)
        ref = DensePair(pair).propagator.evolve_state(psi, 1.9)
        assert np.max(np.abs(evolve_state(pair, psi, 1.9) - ref)) < 1e-13

    def test_stray_delta_m_is_caught(self):
        # a Jx with (non-constant) diagonal entries gives Q a Delta M = 0
        # part, so the commutator gets Delta M = +-1 parts: a macroscopic
        # residual, the same as the dense one
        pair = build_spin_pair(2.0, 1.0)
        stray = np.diag(np.linspace(0.0, 0.3, pair.d))
        bad = dataclasses.replace(pair, jx=pair.jx + stray)
        dense = DensePair(pair)
        dense.Q = kron_sum(bad.jx) / np.sqrt(pair.J0)
        for t, tp in [(0.0, 0.7), (1.1, 0.4), (2.5, -1.3)]:
            residual = qmfs_commutator_identity(bad, t, tp)
            assert residual > 0.1
            assert residual == pytest.approx(
                dense.identity_residual(t, tp), rel=1e-12)
