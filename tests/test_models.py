"""Model zoo: pair transform, bundle validation, and the builders."""

import numpy as np
import pytest

from qmfslab import models
from qmfslab.models import (
    PAIR_TRANSFORM,
    ROW_P,
    ROW_PHI,
    ROW_PI,
    ROW_Q,
    ModelBundle,
    oscillator_pair,
    sideband_model,
    single_oscillator,
    spin_pair_hp,
)
from qmfslab.phase_space import (
    LinearModel,
    ObservableSet,
    is_qmfs,
    symplectic_form,
    transfer_matrix,
)


def rebased_model(model: LinearModel, T: np.ndarray) -> LinearModel:
    """Model in new canonical coordinates x' = T x (T symplectic).

    The Hamiltonian is invariant, so G' = T^{-T} G T^{-1}.
    """
    T = np.asarray(T, dtype=float)
    Omega = model.Omega
    if np.max(np.abs(T @ Omega @ T.T - Omega)) > 1e-12:
        raise ValueError("T is not symplectic")
    Tinv = np.linalg.inv(T)
    Gp = Tinv.T @ model.G @ Tinv
    Gp = (Gp + Gp.T) / 2
    couplings = tuple(T @ b for b in model.force_couplings)
    return LinearModel(model.n_modes, model.hbar, Gp, couplings)


class TestPairTransform:
    def test_rows(self):
        assert np.array_equal(ROW_Q, [1.0, 0.0, 1.0, 0.0])
        assert np.array_equal(ROW_P, [0.0, 0.5, 0.0, 0.5])
        assert np.array_equal(ROW_PHI, [0.5, 0.0, -0.5, 0.0])
        assert np.array_equal(ROW_PI, [0.0, 1.0, 0.0, -1.0])

    def test_symplectic(self):
        Om = symplectic_form(2)
        assert np.allclose(PAIR_TRANSFORM @ Om @ PAIR_TRANSFORM.T, Om)

    def test_new_canonical_pairs(self):
        # [Q, P] = [Phi, Pi] = i hbar, all cross pairs vanish
        Om = symplectic_form(2)
        K = PAIR_TRANSFORM @ Om @ PAIR_TRANSFORM.T
        assert abs(K[0, 1] - 1.0) < 1e-15  # [Q, P]
        assert abs(K[2, 3] - 1.0) < 1e-15  # [Phi, Pi]
        assert abs(K[0, 3]) < 1e-15  # [Q, Pi]
        assert abs(K[2, 1]) < 1e-15  # [Phi, P]


class TestSingleOscillator:
    def test_drift(self):
        b = single_oscillator(2.0, 3.0)
        assert np.allclose(b.model.A, [[0.0, 0.5], [-18.0, 0.0]])

    def test_negative_mass_allowed(self):
        b = single_oscillator(-1.0, 1.0)
        assert np.allclose(b.model.G, np.diag([-1.0, -1.0]))
        assert "negative" in b.description

    def test_force_port_on_momentum(self):
        b = single_oscillator(1.0, 1.0)
        assert np.array_equal(b.model.force_couplings[0], [0.0, 1.0])

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            single_oscillator(0.0, 1.0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            single_oscillator(1.0, -1.0)


class TestOscillatorPair:
    def test_hamiltonian_blocks(self):
        b = oscillator_pair(2.0, 3.0)
        assert np.allclose(b.model.G, np.diag([18.0, 0.5, -18.0, -0.5]))

    def test_declared_sets_are_qmfs(self):
        b = oscillator_pair(1.0, 1.0)
        labels = [obs.labels for obs in b.qmfs_sets]
        assert ("Q", "Pi") in labels
        assert ("Phi", "P") in labels

    def test_mixed_pairs_are_not_qmfs(self):
        b = oscillator_pair(1.0, 1.0)
        for rows, labels in [
            (np.array([ROW_Q, ROW_P]), ("Q", "P")),
            (np.array([ROW_PHI, ROW_PI]), ("Phi", "Pi")),
        ]:
            verdict = is_qmfs(b.model, ObservableSet(rows, labels))
            assert not verdict.is_qmfs

    def test_collective_variables_oscillate(self):
        # d<Q>/dt = Pi/m, d<Pi>/dt = -m w^2 Q: {Q, Pi} is itself an
        # oscillator at the common frequency
        m, w = 1.5, 0.7
        b = oscillator_pair(m, w)
        t = 0.9
        Phi_t = transfer_matrix(b.model, t)
        x0 = np.array([0.3, -0.2, 0.1, 0.4])
        Q0, Pi0 = ROW_Q @ x0, ROW_PI @ x0
        Qt = ROW_Q @ Phi_t @ x0
        Pit = ROW_PI @ Phi_t @ x0
        assert abs(Qt - (Q0 * np.cos(w * t) + Pi0 * np.sin(w * t) / (m * w))) < 1e-12
        assert abs(Pit - (Pi0 * np.cos(w * t) - m * w * Q0 * np.sin(w * t))) < 1e-12

    def test_negative_pair_mass_rejected(self):
        with pytest.raises(ValueError):
            oscillator_pair(-1.0, 1.0)

    def test_force_drives_positive_mass_momentum(self):
        b = oscillator_pair(1.0, 1.0)
        assert np.array_equal(b.model.force_couplings[0], [0.0, 1.0, 0.0, 0.0])


class TestRebasedModel:
    def test_pair_in_qmfs_basis_decouples(self):
        b = oscillator_pair(1.0, 2.0)
        mq = rebased_model(b.model, PAIR_TRANSFORM)
        # H = P Pi / m + m w^2 Phi Q: G' couples (Q <-> Phi) and (P <-> Pi)
        # but never within a new canonical pair, so the drift block-splits
        # over {Q, Pi} and {Phi, P}.
        A = mq.A  # ordering (Q, P, Phi, Pi)
        # dQ/dt depends only on Pi, dPi/dt only on Q
        assert abs(A[0, 1]) < 1e-13 and abs(A[0, 2]) < 1e-13
        assert abs(A[3, 1]) < 1e-13 and abs(A[3, 2]) < 1e-13
        assert abs(A[0, 3] - 1.0) < 1e-13  # dQ/dt = Pi / m
        assert abs(A[3, 0] + 4.0) < 1e-13  # dPi/dt = -m w^2 Q

    def test_hamiltonian_invariant(self):
        b = oscillator_pair(1.3, 0.8)
        mq = rebased_model(b.model, PAIR_TRANSFORM)
        x = np.array([0.2, -0.4, 0.5, 0.1])
        e_phys = 0.5 * x @ b.model.G @ x
        xq = PAIR_TRANSFORM @ x
        e_qmfs = 0.5 * xq @ mq.G @ xq
        assert abs(e_phys - e_qmfs) < 1e-13

    def test_non_symplectic_rejected(self):
        b = oscillator_pair(1.0, 1.0)
        with pytest.raises(ValueError):
            rebased_model(b.model, 2.0 * np.eye(4))


class TestSidebandModel:
    def test_quadrature_sets_are_qmfs(self):
        b = sideband_model(2.0)
        labels = [obs.labels for obs in b.qmfs_sets]
        assert ("alpha1_re", "alpha1_im") in labels
        assert ("alpha2_re", "alpha2_im") in labels

    def test_alpha_rows_match_observable_sets(self):
        # alpha1 = (1/2) sqrt(w/hbar) (Q + i Pi / w), as a complex row
        b = sideband_model(1.5)
        alpha1 = 0.5 * np.sqrt(1.5) * (ROW_Q + 1j * ROW_PI / 1.5)
        re_set = next(o for o in b.qmfs_sets if o.labels[0] == "alpha1_re")
        assert np.allclose(np.real(alpha1), re_set.S[0])
        assert np.allclose(np.imag(alpha1), re_set.S[1])

    def test_same_drift_as_unit_mass_pair(self):
        b = sideband_model(2.0)
        ref = oscillator_pair(1.0, 2.0)
        assert np.allclose(b.model.A, ref.model.A)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            sideband_model(0.0)


class TestSpinPairHp:
    def test_isotropic_hamiltonian(self):
        b = spin_pair_hp(2.0)
        assert np.allclose(b.model.G, 2.0 * np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_effective_mass_metadata(self):
        # the pair it maps to has mass 1/gamma_B0 at frequency gamma_B0
        b = spin_pair_hp(2.0)
        assert (b.m, b.omega) == (pytest.approx(0.5), 2.0)

    def test_metadata_names_the_equivalent_pair(self):
        # m and omega as oscillator_pair records them, for the same G
        b = spin_pair_hp(2.0)
        pair = oscillator_pair(b.m, b.omega)
        assert (pair.m, pair.omega) == (b.m, b.omega)
        assert np.array_equal(pair.model.G, b.model.G)

    def test_qmfs_sets_present(self):
        b = spin_pair_hp(1.0)
        assert len(b.qmfs_sets) == 2

    def test_larmor_rotation(self):
        # each mode precesses at the Larmor frequency
        w = 1.7
        b = spin_pair_hp(w)
        t = 0.6
        Phi_t = transfer_matrix(b.model, t)
        c, s = np.cos(w * t), np.sin(w * t)
        assert np.allclose(Phi_t[:2, :2], [[c, s], [-s, c]], atol=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            spin_pair_hp(-1.0)
        with pytest.raises(ValueError):
            spin_pair_hp(0.0)


NAN, INF = float("nan"), float("inf")


class TestNonFiniteParameters:
    """Each builder names the non-finite parameter it was given."""

    @pytest.mark.parametrize("build, name", [
        (lambda: spin_pair_hp(INF), "gamma_B0"),
        (lambda: spin_pair_hp(1.0, hbar=NAN), "hbar"),
        (lambda: single_oscillator(NAN, 1.0), "m"),
        (lambda: single_oscillator(1.0, -INF), "omega"),
        (lambda: oscillator_pair(1.0, NAN), "omega"),
        (lambda: oscillator_pair(NAN, 1.0), "m"),
        (lambda: oscillator_pair(1.0, 1.0, hbar=INF), "hbar"),
        (lambda: sideband_model(NAN), "omega_mod"),
        (lambda: sideband_model(1.0, hbar=NAN), "hbar"),
    ])
    def test_named(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build()


class TestModelBundle:
    def test_false_qmfs_claim_rejected(self):
        b = oscillator_pair(1.0, 1.0)
        not_qmfs = ObservableSet(np.array([ROW_Q, ROW_P]), ("Q", "P"))
        with pytest.raises(ValueError, match="commutation"):
            ModelBundle(
                model=b.model,
                qmfs_sets=(not_qmfs,),
                description="broken",
            )

    @pytest.mark.parametrize("build, omega, m", [
        (lambda: single_oscillator(-2.0, 3.0), 3.0, None),
        (lambda: oscillator_pair(2.0, 3.0), 3.0, 2.0),
        (lambda: sideband_model(3.0), 3.0, 1.0),
        (lambda: spin_pair_hp(4.0), 4.0, 0.25),
    ], ids=["single", "pair", "sideband", "spin-hp"])
    def test_template_frequency_and_pair_mass(self, build, omega, m):
        # the single oscillator maps to no pair, so it has no pair mass
        b = build()
        assert (b.omega, b.m) == (omega, m)

    def test_builder_registry(self):
        assert set(models.BUILDERS) == {"single", "pair", "sideband", "spin-hp"}

    @pytest.mark.parametrize("build, monitor, observables", [
        (lambda: single_oscillator(-2.0, 3.0), [1.0, 0.0], ("q", "p")),
        (lambda: oscillator_pair(2.0, 3.0), ROW_Q, None),
        (lambda: sideband_model(3.0), ROW_Q, None),
        (lambda: spin_pair_hp(4.0), ROW_Q, None),
    ], ids=["single", "pair", "sideband", "spin-hp"])
    def test_monitor_row_and_checked_sets(self, build, monitor, observables):
        # the rows the CLI once picked by mode count: q for one mode,
        # Q = q + q' for the pairs; check adds (q, p) for one mode only
        b = build()
        assert np.array_equal(b.monitor, monitor)
        assert not b.monitor.flags.writeable
        if observables is None:
            assert b.observables == ()
        else:
            (obs,) = b.observables
            assert obs.labels == observables
            assert np.array_equal(obs.S, np.eye(2))

    @pytest.mark.parametrize("monitor, message", [
        ([1.0, 0.0], "monitor must be a list of 4 numbers"),
        (np.zeros(4), "monitor must be nonzero"),
        ([1.0, 0.0, NAN, 0.0], "monitor must be finite, got nan at entry"),
    ])
    def test_bad_monitor_rejected(self, monitor, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            ModelBundle(oscillator_pair(1.0, 1.0).model, (), "pair",
                        monitor=monitor)

    def test_no_monitor_by_default(self):
        b = ModelBundle(oscillator_pair(1.0, 1.0).model, (), "pair")
        assert b.monitor is None and b.observables == ()


class TestModelFile:
    def test_monitor_round_trip(self):
        model = oscillator_pair(1.0, 2.0).model
        back = models.model_from_json(
            models.model_to_json(model, monitor=ROW_PI), "pair file")
        assert np.array_equal(back.monitor, ROW_PI)
        assert back.description == "pair file"
        assert back.observables == back.qmfs_sets == ()
        assert back.m is None

    def test_no_monitor_key_written_without_a_row(self):
        assert "monitor" not in models.model_to_json(single_oscillator(
            1.0, 1.0).model)

    def test_defaults_of_a_one_mode_file(self):
        # q is measured and (q, p) checked, as for the single oscillator
        text = models.model_to_json(single_oscillator(1.0, 3.0).model)
        back = models.model_from_json(text)
        single = single_oscillator(1.0, 3.0)
        assert np.array_equal(back.monitor, single.monitor)
        ((obs,), (expected,)) = back.observables, single.observables
        assert obs.labels == expected.labels
        assert np.array_equal(obs.S, expected.S)

    def test_no_defaults_past_one_mode(self):
        back = models.model_from_json(
            models.model_to_json(oscillator_pair(1.0, 1.0).model))
        assert back.monitor is None and back.observables == ()

    @pytest.mark.parametrize("G, omega", [
        (np.diag([9.0, 1.0]), 3.0),
        (np.diag([1.0, 0.0]), 1.0),  # no oscillating mode: omega = 1
        (np.kron(np.eye(2), np.diag([4.0, 1.0])), 2.0),
    ])
    def test_omega_is_the_largest_frequency(self, G, omega):
        model = LinearModel(len(G) // 2, 1.0, G)
        back = models.model_from_json(models.model_to_json(model))
        assert back.omega == pytest.approx(omega, rel=1e-15)
        assert back.omega == models.frequency(model)
