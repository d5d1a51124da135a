"""Exact finite-J0 two-ensemble spin dynamics."""

import numpy as np
import pytest

from qmfslab.models import spin_pair_hp
from qmfslab.spins import (
    angular_momentum_ops,
    build_spin_pair,
    excitation_restricted_norm,
    hp_agreement,
    qmfs_commutator_identity,
    stretched_state,
)


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


class TestBuildSpinPair:
    def test_dimensions(self):
        pair = build_spin_pair(2.0, 1.0)
        assert pair.dim == 25

    def test_dim_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_spin_pair(40.0, 1.0)

    def test_energy_conservation_structure(self):
        # H = -gamma B0 (Jz + J'z) is diagonal in the product basis
        pair = build_spin_pair(1.0, 2.0)
        assert np.allclose(pair.H, np.diag(np.diag(pair.H)), atol=1e-13)

    def test_collective_q_hermitian(self):
        pair = build_spin_pair(2.0, 1.0)
        assert np.linalg.norm(pair.Q - pair.Q.conj().T) < 1e-13


class TestStretchedState:
    def test_normalized(self):
        pair = build_spin_pair(4.0, 1.0)
        psi = stretched_state(pair)
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_opposite_polarization(self):
        pair = build_spin_pair(4.0, 1.0)
        psi = stretched_state(pair)
        jz = np.real(psi.conj() @ pair.ops["Jz"] @ psi)
        jz2 = np.real(psi.conj() @ pair.ops["Jz2"] @ psi)
        assert jz == pytest.approx(4.0)
        assert jz2 == pytest.approx(-4.0)

    def test_rotation_displaces_q(self):
        pair = build_spin_pair(8.0, 1.0)
        theta = 0.05
        psi = stretched_state(pair, theta)
        q = np.real(psi.conj() @ pair.Q @ psi)
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
        Qt = pair.propagator.evolve(pair.Q, t)
        Qtp = pair.propagator.evolve(pair.Q, tp)
        comm = Qt @ Qtp - Qtp @ Qt
        assert np.linalg.norm(comm) > 0.1

    def test_suppressed_on_stretched_state(self):
        # on the oppositely stretched state Jz + J'z ~ 0: the commutator
        # matrix element vanishes even though the operator identity has
        # a nonzero right-hand side
        pair = build_spin_pair(4.0, 1.0)
        psi = stretched_state(pair)
        Qt = pair.propagator.evolve(pair.Q, 0.0)
        Qtp = pair.propagator.evolve(pair.Q, 0.9)
        comm = Qt @ Qtp - Qtp @ Qt
        assert abs(psi.conj() @ comm @ psi) < 1e-12


class TestExcitationRestriction:
    def test_norm_decays_with_j0(self):
        # within a fixed low-excitation subspace the commutator norm
        # scales like 1/J0
        norms = []
        for J0 in (2.0, 4.0, 8.0):
            pair = build_spin_pair(J0, 1.0)
            norms.append(excitation_restricted_norm(pair, 0.0, 0.7, n_max=2))
        assert norms[0] > norms[1] > norms[2]
        # rough 1/J0 scaling
        assert norms[0] / norms[1] == pytest.approx(2.0, rel=0.3)

    def test_full_space_norm_larger(self):
        pair = build_spin_pair(4.0, 1.0)
        low = excitation_restricted_norm(pair, 0.0, 0.7, n_max=1)
        high = excitation_restricted_norm(pair, 0.0, 0.7, n_max=16)
        assert high > low


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

    def test_explicit_bundle_accepted(self):
        pair = build_spin_pair(8.0, 1.5)
        bundle = spin_pair_hp(8.0, 1.5)
        dev_mean, dev_var = hp_agreement(
            pair, 0.2, np.linspace(0.0, 2.0, 5), bundle=bundle
        )
        assert dev_mean < 5e-2


class TestHeisenbergEvolution:
    def test_larmor_precession_of_jx(self):
        # under H = -gamma B0 Jz: Jx(t) = Jx cos(g t) + Jy sin(g t)
        # (sign checked against the dense propagator)
        g = 1.7
        pair = build_spin_pair(2.0, g)
        t = 0.6
        Jxt = pair.propagator.evolve(pair.ops["Jx"], t)
        expected = pair.ops["Jx"] * np.cos(g * t) + pair.ops["Jy"] * np.sin(
            g * t
        )
        assert np.linalg.norm(Jxt - expected) < 1e-12

    def test_state_evolution_unitary(self):
        pair = build_spin_pair(2.0, 1.0)
        psi = stretched_state(pair, 0.3)
        psit = pair.propagator.evolve_state(psi, 1.7)
        assert np.linalg.norm(psit) == pytest.approx(1.0)
