"""Symplectic core: drift construction, transfer matrices, exact
two-time commutators, and the algebraic commuting-set verdict."""

import json
import math

import numpy as np
import pytest

from qmfslab.phase_space import (
    MAX_EXPM_NORM,
    LinearModel,
    ObservableSet,
    build_drift,
    expm,
    is_qmfs,
    symplectic_form,
    transfer_matrix,
    trusted_horizon,
    two_time_commutator,
)
from qmfslab.models import model_from_json, model_to_json


def single_osc(m=1.0, omega=1.0, hbar=1.0):
    G = np.diag([m * omega**2, 1.0 / m])
    return LinearModel(n_modes=1, G=G, hbar=hbar)


class TestSymplecticForm:
    def test_two_by_two_block(self):
        Om = symplectic_form(1)
        assert np.array_equal(Om, [[0.0, 1.0], [-1.0, 0.0]])

    def test_block_diagonal(self):
        Om = symplectic_form(3)
        assert Om.shape == (6, 6)
        assert np.array_equal(Om[2:4, 2:4], [[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(Om[:2, 2:4], np.zeros((2, 2)))

    def test_antisymmetric_and_squares_to_minus_one(self):
        Om = symplectic_form(4)
        assert np.array_equal(Om.T, -Om)
        assert np.array_equal(Om @ Om, -np.eye(8))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestLinearModel:
    def test_drift_is_omega_g(self):
        model = single_osc(m=2.0, omega=3.0)
        assert np.allclose(model.A, model.Omega @ model.G)

    def test_drift_single_oscillator_closed_form(self):
        model = single_osc(m=2.0, omega=3.0)
        # A = [[0, 1/m], [-m w^2, 0]]
        assert np.allclose(model.A, [[0.0, 0.5], [-18.0, 0.0]])

    def test_build_drift_helper(self):
        G = np.diag([4.0, 0.25])
        Om = symplectic_form(1)
        assert np.allclose(build_drift(G, Om), Om @ G)

    def test_build_drift_rejects_asymmetric(self):
        G = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            build_drift(G, symplectic_form(1))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            LinearModel(n_modes=2, G=np.eye(2))

    def test_rejects_bad_hbar(self):
        for hbar in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError,
                               match="^hbar must be finite and positive"):
                LinearModel(n_modes=1, G=np.eye(2), hbar=hbar)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_g(self, value):
        # a NaN would otherwise fail as an asymmetric G
        G = np.eye(2)
        G[0, 1] = G[1, 0] = value
        with pytest.raises(ValueError, match=r"^G must be finite, got .* "
                           r"at entry \[0, 1\]"):
            LinearModel(n_modes=1, G=G)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_coupling(self, value):
        with pytest.raises(ValueError, match=r"^force_couplings must be "
                           r"finite, got .* at entry \[1, 1\]"):
            LinearModel(n_modes=1, G=np.eye(2),
                        force_couplings=([0.0, 1.0], [0.0, value]))

    def test_force_coupling_length_checked(self):
        with pytest.raises(ValueError):
            LinearModel(n_modes=1, G=np.eye(2), force_couplings=([1.0],))

    def test_arrays_read_only(self):
        model = single_osc()
        with pytest.raises(ValueError):
            model.G[0, 0] = 5.0
        with pytest.raises(ValueError):
            model.A[0, 0] = 5.0

    def test_zero_hamiltonian_default(self):
        model = LinearModel(n_modes=1)
        assert np.array_equal(model.A, np.zeros((2, 2)))


class TestTransferMatrix:
    def test_identity_at_zero(self):
        assert np.allclose(transfer_matrix(single_osc(), 0.0), np.eye(2))

    def test_oscillator_rotation(self):
        # q(t) = q cos wt + (p/mw) sin wt; p(t) = p cos wt - mw q sin wt
        m, w, t = 2.0, 3.0, 0.7
        Phi = transfer_matrix(single_osc(m, w), t)
        expected = np.array(
            [
                [np.cos(w * t), np.sin(w * t) / (m * w)],
                [-m * w * np.sin(w * t), np.cos(w * t)],
            ]
        )
        assert np.allclose(Phi, expected, atol=1e-12)

    def test_group_property(self):
        model = single_osc(1.5, 0.8)
        P1 = transfer_matrix(model, 0.4)
        P2 = transfer_matrix(model, 1.1)
        assert np.allclose(P1 @ P2, transfer_matrix(model, 1.5), atol=1e-12)

    def test_symplectic(self):
        model = single_osc(2.0, 0.5)
        Phi = transfer_matrix(model, 2.3)
        Om = model.Omega
        assert np.allclose(Phi @ Om @ Phi.T, Om, atol=1e-12)

    def test_free_mass(self):
        model = LinearModel(n_modes=1, G=np.diag([0.0, 1.0 / 3.0]))
        Phi = transfer_matrix(model, 2.0)
        assert np.allclose(Phi, [[1.0, 2.0 / 3.0], [0.0, 1.0]], atol=1e-14)

    def test_norm_guard(self):
        # unstable drift: expm norm grows without bound
        model = LinearModel(n_modes=1, G=np.diag([-1.0, 1.0]))
        with pytest.raises(ValueError, match="norm|bound"):
            transfer_matrix(model, 1e4)

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValueError):
            transfer_matrix(single_osc(), np.inf)
        with pytest.raises(ValueError, match="at entry"):
            transfer_matrix(single_osc(), [0.0, 1.0, np.nan])


def grid_models():
    """A rotation, a free mass, an unstable drift, the zero drift, and a
    random coupled 3-mode model."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((6, 6))
    return [single_osc(2.0, 3.0),
            LinearModel(n_modes=1, G=np.diag([0.0, 1.0 / 3.0])),
            LinearModel(n_modes=1, G=np.diag([-1.0, 1.0])),
            LinearModel(n_modes=2),
            LinearModel(n_modes=3, G=X + X.T)]


class TestTransferMatrixGrid:
    """``transfer_matrix`` on an array of times: one expm call."""

    @pytest.mark.parametrize("model", grid_models(),
                             ids=["osc", "free", "unstable", "zero", "random"])
    def test_equals_the_per_time_stack(self, model):
        horizon = min(trusted_horizon(model), 10.0)
        ts = np.concatenate([np.linspace(0.0, horizon, 20),
                             -np.linspace(0.0, horizon, 7)[1:], [1e-9]])
        stack = transfer_matrix(model, ts)
        assert stack.shape == ts.shape + (model.dim, model.dim)
        expected = [np.eye(model.dim) if t == 0.0 else expm(model.A * t)
                    for t in ts]
        assert np.array_equal(stack, expected)
        assert np.array_equal(stack, [transfer_matrix(model, t) for t in ts])
        grid = ts[:24].reshape(2, 3, 4)
        assert np.array_equal(transfer_matrix(model, grid),
                              stack[:24].reshape(2, 3, 4, *stack.shape[1:]))

    def test_exact_identity_at_zero(self):
        model = grid_models()[-1]
        stack = transfer_matrix(model, [0.3, 0.0, -0.0, 1.2])
        for k in (1, 2):
            assert np.array_equal(stack[k], np.eye(model.dim))
        assert np.array_equal(transfer_matrix(model, 0.0), np.eye(model.dim))
        assert transfer_matrix(model, []).shape == (0, model.dim, model.dim)

    def test_guard_on_the_largest_abs_time(self):
        model = LinearModel(n_modes=1, G=np.diag([-1.0, 1.0]))  # ||A|| = 1
        horizon = trusted_horizon(model)
        assert horizon == MAX_EXPM_NORM
        transfer_matrix(model, [0.0, -horizon, horizon / 2])
        beyond = horizon * (1 + 1e-12)
        for ts in ([0.0, 1.0, -beyond], [beyond, 0.0], [[0.0], [beyond]]):
            with pytest.raises(ValueError, match="trusted expm bound"):
                transfer_matrix(model, ts)


class TestTrustedHorizon:
    def test_zero_drift_has_no_horizon(self):
        assert trusted_horizon(LinearModel(n_modes=2)) == math.inf

    def test_guard_accepts_the_horizon(self):
        # the quotient MAX_EXPM_NORM / ||A|| times ||A|| rounds above the
        # bound for a few percent of norms; the horizon must not, and a
        # time really above it is still rejected
        rng = np.random.default_rng(3)
        rounded_above = 0
        for omega in rng.uniform(5.0, 40.0, 300):
            model = single_osc(1.0, omega)
            norm = np.linalg.norm(model.A, 2)
            quotient = MAX_EXPM_NORM / norm
            horizon = trusted_horizon(model)
            if norm * quotient > MAX_EXPM_NORM:
                rounded_above += 1
                assert 0 < quotient - horizon <= 4 * math.ulp(horizon)
            else:
                assert horizon == quotient
            transfer_matrix(model, np.linspace(0.0, horizon, 20))
            with pytest.raises(ValueError, match="trusted expm bound"):
                transfer_matrix(model, [0.0, horizon * (1 + 1e-12)])
        assert rounded_above > 0


def random_matrix(rng, n, norm, complex_):
    """A random n x n matrix scaled to the given 2-norm."""
    X = rng.standard_normal((n, n))
    if complex_:
        X = X + 1j * rng.standard_normal((n, n))
    return X * (norm / np.linalg.norm(X, 2))


def mp_expm(X):
    """expm at 60 digits, rounded to float64 (complex128 for complex X)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        E = mpmath.expm(mpmath.matrix(X.tolist()))
        E = np.array(E.tolist(), dtype=complex)
    return E if np.iscomplexobj(X) else E.real


def rel_err(E, ref):
    return np.linalg.norm(E - ref) / np.linalg.norm(ref)


# 2-norms from near zero to the trusted bound, touching every Pade degree
# and several squarings
NORMS = (1e-8, 1e-3, 0.1, 0.6, 1.5, 4.0, 20.0, MAX_EXPM_NORM)


class TestExpm:
    """The numpy scaling-and-squaring expm against two independent
    references: mpmath at 60 digits and scipy.linalg.expm."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_mpmath(self, n, complex_):
        # measured: at most 1.8e-14 (the scalar exp(20)); scipy 7.7e-13
        rng = np.random.default_rng(100 * n + complex_)
        for norm in NORMS:
            X = random_matrix(rng, n, norm, complex_)
            E = expm(X)
            assert E.dtype == (np.complex128 if complex_ else np.float64)
            assert rel_err(E, mp_expm(X)) <= 1e-13, (n, norm)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_scipy(self, n, complex_):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(7 + 100 * n + complex_)
        for norm in np.geomspace(1e-8, MAX_EXPM_NORM, 40):
            X = random_matrix(rng, n, norm, complex_)
            assert rel_err(expm(X), scipy_linalg.expm(X)) <= 1e-12, (n, norm)

    def test_rotation(self):
        # scipy 1.17 is off by 1.8e-14 here
        W = np.array([[0.0, 1.0], [-1.0, 0.0]])
        c, s = np.cos(20.0), np.sin(20.0)
        assert np.max(np.abs(expm(W * 20.0) - [[c, s], [-s, c]])) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_is_exact_identity(self, n, dtype):
        E = expm(np.zeros((3, n, n), dtype=dtype))
        assert E.dtype == np.dtype(dtype)
        assert np.array_equal(E, np.broadcast_to(np.eye(n), (3, n, n)))

    def test_diagonal(self):
        d = np.linspace(-MAX_EXPM_NORM, MAX_EXPM_NORM, 11)
        E = expm(np.diag(d))
        assert np.array_equal(E, np.diag(np.diag(E)))  # no fill-in
        assert np.max(np.abs(np.diag(E) / np.exp(d) - 1)) <= 3e-14
        z = 1j * d  # exp of a diagonal of phases
        assert np.max(np.abs(np.diag(expm(np.diag(z))) - np.exp(z))) <= 1e-14

    def test_stack_is_scaled_per_slice(self):
        # one scaling for the whole stack, taken from its largest norm,
        # would square the 1e-3 slice 4 times: 9.5e-15 instead of 2e-16
        rng = np.random.default_rng(5)
        norms = (1e-3, MAX_EXPM_NORM, 0.3, 7.0, 1e-8)
        X = np.stack([random_matrix(rng, 4, nm, False) for nm in norms])
        E = expm(X)
        for Xk, Ek, nm in zip(X, E, norms):
            tol = 1e-15 if nm < 1 else 1e-13
            assert rel_err(Ek, mp_expm(Xk)) <= tol, nm

    def test_leading_axes(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((2, 3, 4, 4))
        E = expm(X)
        assert E.shape == X.shape
        for i in range(2):
            for j in range(3):
                assert rel_err(E[i, j], expm(X[i, j])) <= 1e-15

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            expm(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            expm(np.array([[0.0, bad], [0.0, 0.0]]))


class TestTwoTimeCommutator:
    def test_equal_time_canonical(self):
        model = single_osc(1.3, 0.9, hbar=2.0)
        obs = ObservableSet(np.eye(2), ("q", "p"))
        K = two_time_commutator(model, obs, 1.7, 1.7)
        assert np.allclose(K, 1j * model.hbar * model.Omega, atol=1e-12)

    def test_position_self_commutator_sine(self):
        # [q(t), q(t')] = (i hbar / m w) sin(w (t' - t)); sign pinned
        # against the dense ladder-operator oracle.
        m, w, hbar = 1.0, 1.0, 1.0
        model = single_osc(m, w, hbar)
        obs = ObservableSet(np.array([[1.0, 0.0]]), ("q",))
        for t, tp in [(0.0, 0.3), (1.2, 0.5), (2.0, 2.0), (0.0, np.pi / 2)]:
            K = two_time_commutator(model, obs, t, tp)
            expected = 1j * hbar * np.sin(w * (tp - t)) / (m * w)
            assert abs(K[0, 0] - expected) < 1e-12

    def test_antisymmetry_under_time_swap(self):
        model = single_osc(2.0, 1.5)
        obs = ObservableSet(np.eye(2), ("q", "p"))
        K = two_time_commutator(model, obs, 0.4, 1.9)
        Kswap = two_time_commutator(model, obs, 1.9, 0.4)
        assert np.allclose(K, -Kswap.T, atol=1e-12)

    def test_free_mass_position(self):
        # [q(t), q(t')] = i hbar (t' - t) / m
        model = LinearModel(n_modes=1, G=np.diag([0.0, 0.5]))  # m = 2
        obs = ObservableSet(np.array([[1.0, 0.0]]), ("q",))
        K = two_time_commutator(model, obs, 1.0, 4.0)
        assert abs(K[0, 0] - 1.5j) < 1e-12


class TestObservableSet:
    def test_labels_default(self):
        obs = ObservableSet(np.eye(2))
        assert len(obs.labels) == 2

    def test_single_row_promoted(self):
        obs = ObservableSet(np.array([1.0, 0.0]))
        assert obs.S.shape == (1, 2)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            ObservableSet(np.zeros((1, 4)))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_row_rejected(self, value):
        with pytest.raises(ValueError, match="^observables must be finite"):
            ObservableSet(np.array([[1.0, 0.0], [value, 1.0]]))

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            ObservableSet(np.eye(2), ("only_one",))


class TestIsQmfs:
    def test_single_oscillator_position_fails(self):
        model = single_osc()
        obs = ObservableSet(np.array([[1.0, 0.0]]), ("q",))
        verdict = is_qmfs(model, obs)
        assert not verdict.is_qmfs
        assert verdict.max_residual > 1e-6
        assert verdict.witness is not None

    def test_free_mass_momentum_passes(self):
        # p is conserved for a free mass: a trivial commuting set
        model = LinearModel(n_modes=1, G=np.diag([0.0, 1.0]))
        obs = ObservableSet(np.array([[0.0, 1.0]]), ("p",))
        verdict = is_qmfs(model, obs)
        assert verdict.is_qmfs
        assert bool(verdict)

    def test_free_mass_position_fails(self):
        model = LinearModel(n_modes=1, G=np.diag([0.0, 1.0]))
        obs = ObservableSet(np.array([[1.0, 0.0]]), ("q",))
        assert not is_qmfs(model, obs).is_qmfs

    def test_full_quadrature_set_fails(self):
        model = single_osc()
        verdict = is_qmfs(model, ObservableSet(np.eye(2), ("q", "p")))
        assert not verdict.is_qmfs
        assert verdict.witness is not None

    def test_verdict_consistent_with_explicit_grid(self):
        # the algebraic test must agree with brute-force time sampling
        rng = np.random.default_rng(7)
        G = rng.normal(size=(4, 4))
        model = LinearModel(n_modes=2, G=G + G.T)
        obs = ObservableSet(rng.normal(size=(2, 4)))
        verdict = is_qmfs(model, obs)
        grid = np.linspace(0.0, 2.0, 9)
        worst = max(
            np.abs(two_time_commutator(model, obs, t, tp)).max()
            for t in grid
            for tp in grid
        )
        assert verdict.is_qmfs == (worst < 1e-8)


class TestJsonRoundTrip:
    def test_round_trip(self):
        model = single_osc(2.0, 0.7, hbar=0.5)
        back = model_from_json(model_to_json(model))
        assert np.allclose(back.model.G, model.G)
        assert back.model.hbar == model.hbar
        # a 1-mode file without observables checks (q, p)
        assert [obs.labels for obs in back.observables] == [("q", "p")]

    def test_observables_round_trip(self):
        model = single_osc()
        obs = ObservableSet(np.array([[1.0, 0.0]]), ("q",))
        (back_obs,) = model_from_json(model_to_json(model, obs)).observables
        assert back_obs.labels == ("q",)
        assert np.array_equal(back_obs.S, obs.S)

    def test_force_couplings_preserved(self):
        model = LinearModel(
            n_modes=1,
            G=np.diag([1.0, 1.0]),
            force_couplings=(np.array([0.0, 1.0]),),
        )
        back = model_from_json(model_to_json(model)).model
        assert len(back.force_couplings) == 1
        assert np.array_equal(back.force_couplings[0], [0.0, 1.0])

    def test_json_is_valid_document(self):
        doc = json.loads(model_to_json(single_osc()))
        assert "G" in doc and "hbar" in doc

    def test_bad_document_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            model_from_json('{"hbar": 1.0}')
