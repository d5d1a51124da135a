"""Continuous measurement: back-action geometry, Riccati flow,
conditional trajectories, and waveform estimation."""

import math

import numpy as np
import pytest

from qmfslab import models
from qmfslab.conditional import (
    MAX_BLOCK_STEPS,
    _covariance_grid,
    _exact_step,
    _flow_terms,
    _noise_increments,
    EstimationError,
    ForceDrive,
    GaussianState,
    MeasurementChannel,
    backaction_diffusion,
    estimate_force_batch,
    evolve_conditional,
    force_posterior_std,
    is_physical_cov,
    partial_transpose_cov,
    riccati_evolve,
    simulate_batch,
    symplectic_eigenvalues,
    vacuum_state,
)
from qmfslab.phase_space import MAX_EXPM_NORM, LinearModel, transfer_matrix


def free_mass(m=1.0, hbar=1.0):
    return LinearModel(1, hbar, np.diag([0.0, 1.0 / m]))


def pos_channel(k=1.0, eta=1.0):
    return MeasurementChannel(np.array([1.0, 0.0]), k, eta)


class TestStatesAndPhysicality:
    def test_vacuum_is_pure(self):
        model = models.oscillator_pair(1.0, 1.0).model
        st = vacuum_state(model)
        nus = symplectic_eigenvalues(st.cov, model.Omega)
        assert np.allclose(nus, model.hbar / 2, atol=1e-12)

    def test_vacuum_physical(self):
        model = free_mass()
        st = vacuum_state(model)
        assert is_physical_cov(st.cov, model.Omega, model.hbar)

    def test_squeezed_below_heisenberg_unphysical(self):
        model = free_mass()
        V = np.diag([0.1, 0.1])  # det < (hbar/2)^2
        assert not is_physical_cov(V, model.Omega, model.hbar)

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_partial_transpose_flips_one_momentum(self):
        V = np.diag([1.0, 2.0, 3.0, 4.0])
        V[1, 3] = V[3, 1] = 0.7
        Vt = partial_transpose_cov(V, 1)
        assert Vt[1, 3] == -0.7
        assert Vt[3, 3] == 4.0


class TestChannels:
    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            MeasurementChannel(np.zeros(2), 1.0)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            MeasurementChannel(np.array([1.0, 0.0]), -1.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_non_finite_strength_rejected(self, k):
        with pytest.raises(ValueError, match="finite"):
            MeasurementChannel(np.array([1.0, 0.0]), k)

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            MeasurementChannel(np.array([1.0, 0.0]), 1.0, eta=0.0)
        with pytest.raises(ValueError):
            MeasurementChannel(np.array([1.0, 0.0]), 1.0, eta=1.5)


class TestBackaction:
    def test_lands_on_conjugate(self):
        # measuring q diffuses p only
        model = free_mass(hbar=2.0)
        D = backaction_diffusion(model, pos_channel(k=3.0))
        assert D[0, 0] == 0.0 and D[0, 1] == 0.0
        assert D[1, 1] == pytest.approx(model.hbar**2 * 3.0)

    def test_scales_linearly_in_k(self):
        model = free_mass()
        D1 = backaction_diffusion(model, pos_channel(k=1.0))
        D5 = backaction_diffusion(model, pos_channel(k=5.0))
        assert np.allclose(D5, 5.0 * D1)

    def test_collective_measurement_projects_to_zero(self):
        # measuring Q back-acts along Omega s, which has no component on
        # the (Q, Pi) subsystem: the projected diffusion vanishes exactly
        model = models.oscillator_pair(1.0, 1.0).model
        ch = MeasurementChannel(models.ROW_Q, 5.0, 1.0)
        D = backaction_diffusion(model, ch)
        S = np.vstack([models.ROW_Q, models.ROW_PI])
        assert np.max(np.abs(S @ D @ S.T)) == 0.0

    def test_equal_backaction_on_both_momenta(self):
        model = models.oscillator_pair(1.0, 1.0).model
        ch = MeasurementChannel(models.ROW_Q, 2.0, 1.0)
        D = backaction_diffusion(model, ch)
        assert D[1, 1] == pytest.approx(D[3, 3])
        assert D[1, 1] > 0


def long_horizon(model, channels, T=100.0):
    """V(T) from the vacuum: the steady state of a flow that reaches one."""
    return riccati_evolve(model, channels, vacuum_state(model).cov, T=T)


class TestRiccati:
    def test_free_mass_steady_state_closed_form(self):
        # eta = 1 fixed point: Vqq = sqrt(hbar/4km), Vpp = sqrt(km hbar^3),
        # Vqp = hbar/2 (pure state, det = hbar^2/4)
        for hbar, k, m in [(1.0, 1.0, 1.0), (2.0, 3.0, 0.5), (1.0, 0.2, 4.0)]:
            model = free_mass(m, hbar)
            V = long_horizon(model, (pos_channel(k),))
            expected = np.array(
                [
                    [np.sqrt(hbar / (4 * k * m)), hbar / 2],
                    [hbar / 2, np.sqrt(k * m * hbar**3)],
                ]
            )
            assert np.allclose(V, expected, rtol=0.0, atol=1e-12)

    def test_steady_state_is_pure_at_unit_efficiency(self):
        model = models.single_oscillator(1.0, 1.0).model
        V = long_horizon(model, (pos_channel(k=2.0),))
        assert np.linalg.det(V) == pytest.approx(model.hbar**2 / 4, abs=1e-12)

    def test_inefficiency_breaks_purity(self):
        model = models.single_oscillator(1.0, 1.0).model
        V = long_horizon(model, (pos_channel(k=2.0, eta=0.5),))
        assert np.linalg.det(V) > model.hbar**2 / 4 * 1.01

    def test_stationarity(self):
        # dV/dt from the test's own right-hand side, not the engine's
        model = free_mass()
        channels = (pos_channel(2.0),)
        V = long_horizon(model, channels)
        rhs = rk4_riccati_rhs(model, channels)
        assert np.linalg.norm(rhs(V)) < 1e-12

    def test_pair_full_covariance_diverges(self):
        # monitoring Q pumps the conjugate (Phi, P) sector without
        # damping it, so the full covariance has no stationary point.
        # From the vacuum, (Phi, P) stays uncorrelated with (Q, Pi), and
        # its drift [[0, 1/m], [-m w^2, 0]] (m = w = 1) is a rotation,
        # which keeps the trace; the back-action adds D_PP = hbar^2 k.
        # So tr V_(Phi, P)(T) = hbar/2 + hbar^2 k T, exactly.
        model = models.oscillator_pair(1.0, 1.0).model
        k = 5.0
        ch = (MeasurementChannel(models.ROW_Q, k, 1.0),)
        S = np.vstack([models.ROW_PHI, models.ROW_P])
        D_PP = (S @ backaction_diffusion(model, ch[0]) @ S.T)[1, 1]
        assert D_PP == model.hbar**2 * k
        for T in (25.0, 50.0, 100.0, 200.0):
            V = long_horizon(model, ch, T)
            # measured: 8e-12 relative at T = 200, rounding of expm(T H)
            assert np.trace(S @ V @ S.T) == pytest.approx(
                model.hbar / 2 + D_PP * T, rel=1e-10, abs=0.0)

    def test_pair_collective_block_squeezes(self):
        model = models.oscillator_pair(1.0, 1.0).model
        ch = (MeasurementChannel(models.ROW_Q, 5.0, 1.0),)
        V = riccati_evolve(model, ch, vacuum_state(model).cov, T=10.0)
        S = np.vstack([models.ROW_Q, models.ROW_PI])
        block = S @ V @ S.T
        assert np.linalg.det(block) < (model.hbar / 2) ** 2


class TestEvolveConditional:
    def test_deterministic_given_seed(self):
        model = models.single_oscillator(1.0, 1.0).model
        st = vacuum_state(model)
        ch = (pos_channel(1.0),)
        t1 = evolve_conditional(model, st, ch, dt=1e-3, T=0.5, seed=11)
        t2 = evolve_conditional(model, st, ch, dt=1e-3, T=0.5, seed=11)
        assert np.array_equal(t1.means, t2.means)
        assert np.array_equal(t1.records, t2.records)

    def test_different_seeds_differ(self):
        model = models.single_oscillator(1.0, 1.0).model
        st = vacuum_state(model)
        ch = (pos_channel(1.0),)
        t1 = evolve_conditional(model, st, ch, dt=1e-3, T=0.5, seed=11)
        t2 = evolve_conditional(model, st, ch, dt=1e-3, T=0.5, seed=12)
        assert not np.array_equal(t1.records, t2.records)

    def test_no_channels_reduces_to_deterministic_flow(self):
        model = models.oscillator_pair(1.0, 1.0).model
        st = GaussianState(
            np.array([1.0, 0.5, -0.3, 0.2]), vacuum_state(model).cov
        )
        traj = evolve_conditional(model, st, (), dt=1e-4, T=1.0, seed=0)
        expected = transfer_matrix(model, 1.0) @ st.mean
        # Euler error only
        assert np.max(np.abs(traj.means[0, -1] - expected)) < 2e-4

    def test_zero_strength_channel_rejected(self):
        model = free_mass()
        with pytest.raises(ValueError, match="k = 0"):
            evolve_conditional(
                model, vacuum_state(model), (pos_channel(0.0),), T=0.1
            )

    def test_coarse_step_rejected(self):
        model = models.single_oscillator(1.0, 100.0).model
        with pytest.raises(ValueError, match="dt"):
            evolve_conditional(
                model, vacuum_state(model), (pos_channel(1.0),), dt=0.1, T=1.0
            )

    @pytest.mark.parametrize("dt, T", [(math.nan, 1.0), (1e-3, math.inf),
                                       (1e-3, math.nan)])
    def test_non_finite_step_rejected(self, dt, T):
        model = free_mass()
        with pytest.raises(ValueError, match="finite"):
            evolve_conditional(model, vacuum_state(model),
                               (pos_channel(1.0),), dt=dt, T=T)
        drive = ForceDrive.constant(np.array([0.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match="finite"):
            force_posterior_std(model, (pos_channel(1.0),), drive, dt, T)

    def test_unphysical_initial_cov_rejected(self):
        model = free_mass()
        st = GaussianState(np.zeros(2), 0.01 * np.eye(2))
        with pytest.raises(ValueError, match="uncertainty"):
            evolve_conditional(model, st, (pos_channel(1.0),), T=0.1)

    def test_cov_thinning(self):
        model = free_mass()
        traj = evolve_conditional(
            model, vacuum_state(model), (pos_channel(1.0),),
            dt=1e-3, T=0.1, cov_stride=25,
        )
        assert traj.covs.shape[0] == traj.cov_times.size
        assert traj.cov_times[0] == 0.0
        assert traj.cov_times[-1] == pytest.approx(0.1)

    def test_record_contains_signal(self):
        # strong measurement of a displaced state: the record mean
        # tracks s.mu dt
        model = free_mass()
        st = GaussianState(np.array([2.0, 0.0]), vacuum_state(model).cov)
        ch = (pos_channel(k=50.0),)
        traj = evolve_conditional(model, st, ch, dt=1e-3, T=0.2, seed=5)
        avg = traj.records[0, :50, 0].mean() / 1e-3
        assert abs(avg - 2.0) < 0.5


class TestSimulateBatch:
    def test_matches_single_trajectory_runs(self):
        model = models.oscillator_pair(1.0, 1.0).model
        st = vacuum_state(model)
        ch = (MeasurementChannel(models.ROW_Q, 2.0, 1.0),)
        drive = ForceDrive.sinusoid(model.force_couplings[0], 1.0, 1.0)
        batch = simulate_batch(
            model, st, ch, drive, dt=1e-3, T=0.3, master_seed=9, n_traj=3
        )
        assert batch.seeds == [(9, 0), (9, 1), (9, 2)]
        for i in range(3):
            traj = evolve_conditional(
                model, st, ch, force=drive, dt=1e-3, T=0.3, seed=(9, i)
            )
            assert traj.seeds == [(9, i)]
            assert traj.means.shape == (1, 301, 4)
            assert np.array_equal(batch.records[i], traj.records[0])
            assert np.array_equal(batch.means[i], traj.means[0])

    def test_covariance_is_seed_independent(self):
        model = free_mass()
        st = vacuum_state(model)
        ch = (pos_channel(1.0),)
        b1 = simulate_batch(model, st, ch, None, 1e-3, 0.2, 1, 2)
        b2 = simulate_batch(model, st, ch, None, 1e-3, 0.2, 999, 2)
        assert np.array_equal(b1.covs[-1], b2.covs[-1])


    def test_batch_size_below_one_rejected(self):
        model = free_mass()
        with pytest.raises(ValueError, match="n_traj"):
            simulate_batch(model, vacuum_state(model), (pos_channel(1.0),),
                           None, 1e-3, 0.1, 0, 0)

    def test_cov_stride_below_one_rejected(self):
        model = free_mass()
        with pytest.raises(ValueError, match="cov_stride"):
            evolve_conditional(model, vacuum_state(model),
                               (pos_channel(1.0),), T=0.1, cov_stride=0)


def reference_trajectory(model, state0, channels, force, dt, T, seed,
                         cov_stride):
    """One trajectory at a time, as a plain loop over steps.

    The step-by-step Euler-Maruyama loop the sweep once ran, held to the
    same distance from the exact recursion as the sweep.  V_n and the
    force blocks come from the engine's covariance grid.  Returns
    (means, records, cov_times, covs).
    """
    n_steps = int(round(T / dt))
    K, blocks = _covariance_grid(model.A, *_flow_terms(model, channels), dt,
                                 n_steps)
    grid = [state0.cov] + [V for _, Vs in blocks(state0.cov) for V in Vs]
    dW = _noise_increments(seed, len(channels), n_steps, dt)

    d = model.dim
    mu = state0.mean.copy()
    V = grid[0]
    times = np.arange(n_steps + 1) * dt
    means = np.empty((n_steps + 1, d))
    means[0] = mu
    records = np.empty((n_steps, len(channels)))
    cov_idx = list(range(0, n_steps + 1, max(1, cov_stride)))
    if cov_idx[-1] != n_steps:
        cov_idx.append(n_steps)
    covs = np.empty((len(cov_idx), d, d))
    cov_pos = 0
    if cov_idx[0] == 0:
        covs[0] = V
        cov_pos = 1

    b = force.b if force is not None else None
    F = force.samples(dt, n_steps, K) if force is not None else None
    for n in range(n_steps):
        dmu = model.A @ mu * dt
        if force is not None:
            dmu = dmu + b * (F[n] * dt)
        for c, ch in enumerate(channels):
            gain = math.sqrt(4 * ch.k * ch.eta) * (V @ ch.s)
            records[n, c] = float(ch.s @ mu) * dt + dW[n, c] / math.sqrt(
                4 * ch.k * ch.eta
            )
            dmu = dmu + gain * dW[n, c]
        mu = mu + dmu
        V = grid[n + 1]
        means[n + 1] = mu
        if cov_pos < len(cov_idx) and cov_idx[cov_pos] == n + 1:
            covs[cov_pos] = V
            cov_pos += 1
    return means, records, times[np.array(cov_idx)], covs


def exact_trajectory(model, state0, channels, force, dt, T, seed):
    """The Euler-Maruyama recursion of one trajectory in 50-digit arithmetic.

    Its inputs are the engine's floats: V_n from the covariance grid,
    dW from the noise streams, F from the force samples.  From there on
    every sum and product carries 50 digits, so this is the recursion
    itself, not one rounding of it.  Returns (means, records) as floats.
    """
    mpmath = pytest.importorskip("mpmath")
    n_steps = int(round(T / dt))
    K, blocks = _covariance_grid(model.A, *_flow_terms(model, channels), dt,
                                 n_steps)
    grid = [state0.cov] + [V for _, Vs in blocks(state0.cov) for V in Vs]
    dW = _noise_increments(seed, len(channels), n_steps, dt)
    F = force.samples(dt, n_steps, K) if force is not None else None
    with mpmath.workdps(50):
        mp = np.vectorize(mpmath.mpf, otypes=[object])
        h = mpmath.mpf(dt)
        A = mp(model.A) * h
        S = [mp(ch.s) for ch in channels]
        scales = [mpmath.sqrt(4 * mpmath.mpf(ch.k) * mpmath.mpf(ch.eta))
                  for ch in channels]
        mu = mp(state0.mean)
        means, records = [mu], []
        for n in range(n_steps):
            V = mp(grid[n])
            w = mp(dW[n])
            mu_next = mu + A.dot(mu)
            if force is not None:
                mu_next += mp(force.b) * (mpmath.mpf(F[n]) * h)
            for s, scale, w_c in zip(S, scales, w):
                mu_next += V.dot(s) * (scale * w_c)
            records.append([s.dot(mu) * h + w_c / scale
                            for s, scale, w_c in zip(S, scales, w)])
            mu = mu_next
            means.append(mu)
        to_float = np.vectorize(float, otypes=[float])
        return to_float(np.array(means)), to_float(np.array(records))


def driven_pair():
    model = models.oscillator_pair(1.0, 1.0).model
    ch = (MeasurementChannel(models.ROW_Q, 2.0, 1.0),)
    drive = ForceDrive.sinusoid(model.force_couplings[0], 1.0, 1.0)
    return model, ch, drive


def undriven_free_mass():
    return free_mass(), (pos_channel(3.0, 0.7),), None


def pair_at(k):
    model, _, drive = driven_pair()
    return lambda: (model, (MeasurementChannel(models.ROW_Q, k, 1.0),), drive)


def driven_single_oscillator():
    model = models.single_oscillator(1.0, 1.0).model
    drive = ForceDrive.constant(model.force_couplings[0], 0.5)
    return model, (pos_channel(3.0, 0.7),), drive


class TestSweepMatchesReferenceLoop:
    # (case, T, block size K).  The scan runs ceil(log2(k + 1)) rounds
    # over a block of k steps; a block whose k is a power of two (every
    # block at K = 1 and K = 2, the last block of 2 steps at K = 999)
    # needs the round of shift k itself.  Every T but the K = 1 case's
    # ends on a partial block.
    CASES = [
        pytest.param(driven_pair, 0.3, 62, id="pair-sinusoid"),
        pytest.param(undriven_free_mass, 0.3, 119, id="free-mass-no-force"),
        pytest.param(pair_at(1e4), 0.3, 1, id="pair-K1"),
        pytest.param(pair_at(45.0), 0.301, 2, id="pair-K2"),
        pytest.param(driven_single_oscillator, 0.3, 117, id="single-K117"),
        pytest.param(pair_at(1e-4), 2.0, 999, id="pair-K999"),
    ]
    # Distance to the exact recursion, relative to the largest |mu| (or
    # |dy|) of the trajectory, set from float64 rounding over a few
    # thousand steps.  Measured over these cases: the means 2.4e-16 to
    # 2.0e-15 for the scan and 3.5e-16 to 2.3e-15 for the plain loop,
    # the records at most 1.3e-15 and 1.7e-15.  A scan that skips the
    # round of shift s = k misses whole steps on a block of k = 1 or 2.
    BOUND = 1e-14

    def assert_near_exact(self, means, records, exact):
        exact_means, exact_records = exact
        for got, ref in ((means, exact_means), (records, exact_records)):
            assert np.max(np.abs(got - ref)) <= self.BOUND * np.max(np.abs(ref))

    @pytest.mark.parametrize("case, T, K", CASES)
    def test_block_size(self, case, T, K):
        model, ch, _ = case()
        n_steps = int(round(T / 1e-3))
        assert _covariance_grid(model.A, *_flow_terms(model, ch), 1e-3,
                                n_steps)[0] == K
        assert K == 1 or n_steps % K

    @pytest.mark.parametrize("case, T, K", CASES)
    @pytest.mark.parametrize("cov_stride", [1, 7])
    def test_evolve_conditional(self, case, T, K, cov_stride):
        model, ch, drive = case()
        st = vacuum_state(model)
        traj = evolve_conditional(model, st, ch, force=drive, dt=1e-3,
                                  T=T, seed=(5, 1), cov_stride=cov_stride)
        means, records, cov_times, covs = reference_trajectory(
            model, st, ch, drive, 1e-3, T, (5, 1), cov_stride
        )
        exact = exact_trajectory(model, st, ch, drive, 1e-3, T, (5, 1))
        self.assert_near_exact(traj.means[0], traj.records[0], exact)
        self.assert_near_exact(means, records, exact)
        assert np.array_equal(traj.times, np.arange(traj.times.size) * 1e-3)
        assert np.array_equal(traj.cov_times, cov_times)
        assert np.array_equal(traj.covs, covs)

    @pytest.mark.parametrize("case, T, K", CASES)
    @pytest.mark.parametrize("cov_stride", [1, 7])
    def test_every_batch_row(self, case, T, K, cov_stride):
        model, ch, drive = case()
        st = vacuum_state(model)
        batch = simulate_batch(model, st, ch, drive, dt=1e-3, T=T,
                               master_seed=9, n_traj=5, cov_stride=cov_stride)
        assert np.array_equal(batch.times, np.arange(batch.times.size) * 1e-3)
        for i in range(5):
            means, records, cov_times, covs = reference_trajectory(
                model, st, ch, drive, 1e-3, T, (9, i), cov_stride
            )
            exact = exact_trajectory(model, st, ch, drive, 1e-3, T, (9, i))
            self.assert_near_exact(batch.means[i], batch.records[i], exact)
            self.assert_near_exact(means, records, exact)
            assert np.array_equal(batch.cov_times, cov_times)
            assert np.array_equal(batch.covs, covs)
            # a batch of one is row i, bit for bit
            traj = evolve_conditional(model, st, ch, force=drive, dt=1e-3,
                                      T=T, seed=(9, i), cov_stride=cov_stride)
            assert np.array_equal(batch.means[i], traj.means[0])
            assert np.array_equal(batch.records[i], traj.records[0])


def rk4_riccati_rhs(model, channels):
    """dV/dt channel by channel, written apart from the engine's (D, M)."""
    A = model.A
    D = np.zeros((model.dim, model.dim))
    for ch in channels:
        D = D + backaction_diffusion(model, ch)

    def rhs(V):
        dV = A @ V + V @ A.T + D
        for ch in channels:
            Vs = V @ ch.s
            dV = dV - 4 * ch.k * ch.eta * np.outer(Vs, Vs)
        return dV

    return rhs


def rk4_step(rhs, V, h):
    k1 = rhs(V)
    k2 = rhs(V + h / 2 * k1)
    k3 = rhs(V + h / 2 * k2)
    k4 = rhs(V + h * k3)
    Vn = V + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return (Vn + Vn.T) / 2


def rk4_force_filter(model, channels, b, waveform, records, dt,
                     prior_var=1e4):
    """Amplitude-augmented Kalman filter with a time-varying RK4 Riccati.

    The state is [x; a] with the amplitude a constant and the force
    b a waveform(t); returns (ML amplitudes, posterior std) from the
    vacuum prior, the oracle for the exosystem filter.
    """
    n_traj, n_steps, _ = records.shape
    d = model.dim
    da = d + 1
    D = np.zeros((da, da))
    for ch in channels:
        D[:d, :d] += backaction_diffusion(model, ch)
    s_aug = [np.concatenate([ch.s, [0.0]]) for ch in channels]
    Va = np.zeros((da, da))
    Va[:d, :d] = vacuum_state(model).cov
    Va[d, d] = prior_var

    def drift(t):
        Aa = np.zeros((da, da))
        Aa[:d, :d] = model.A
        Aa[:d, d] = b * waveform(t)
        return Aa

    def rhs(V, t):
        Aa = drift(t)
        dV = Aa @ V + V @ Aa.T + D
        for ch, sa in zip(channels, s_aug):
            Vs = V @ sa
            dV = dV - 4 * ch.k * ch.eta * np.outer(Vs, Vs)
        return dV

    mu = np.zeros((da, n_traj))
    for n in range(n_steps):
        t = n * dt
        mu_new = (np.eye(da) + drift(t) * dt) @ mu
        for c, (ch, sa) in enumerate(zip(channels, s_aug)):
            gain = 4 * ch.k * ch.eta * (Va @ sa)
            mu_new += np.outer(gain, records[:, n, c] - (sa @ mu) * dt)
        mu = mu_new
        k1 = rhs(Va, t)
        k2 = rhs(Va + dt / 2 * k1, t + dt / 2)
        k3 = rhs(Va + dt / 2 * k2, t + dt / 2)
        k4 = rhs(Va + dt * k3, t + dt)
        Va = Va + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        Va = (Va + Va.T) / 2
    information = 1.0 / Va[d, d] - 1.0 / prior_var
    return mu[d] / Va[d, d] / information, 1.0 / math.sqrt(information)


class TestExactCovarianceStep:
    CASES = [
        pytest.param(lambda: (models.oscillator_pair(1.0, 1.0).model,
                              (MeasurementChannel(models.ROW_Q, 2.0, 1.0),)),
                     id="pair-k2"),
        pytest.param(lambda: (free_mass(), (pos_channel(3.0, 0.7),)),
                     id="free-mass-k3-eta0.7"),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_rk4(self, case):
        # per time step, on the sweep's block grid, and in one long step
        # as riccati_evolve
        model, ch = case()
        dt, n = 1e-3, 2000
        step = _exact_step(model.A, *_flow_terms(model, ch), dt)
        rhs = rk4_riccati_rhs(model, ch)
        V0 = vacuum_state(model).cov
        V = W = V0
        for _ in range(n):
            V = step(V)
            W = rk4_step(rhs, W, dt)
        scale = np.max(np.abs(W))
        assert np.max(np.abs(V - W)) <= 1e-12 * scale
        V_grid = grid_covs(model, ch, dt, n, V0)[-1]
        assert np.max(np.abs(V_grid - W)) <= 1e-12 * scale
        V_long = riccati_evolve(model, ch, V0, T=n * dt)
        assert np.max(np.abs(V_long - W)) <= 1e-12 * scale


def grid_covs(model, channels, dt, n_steps, V0):
    """V(0) and every V of the engine's covariance grid, (n_steps + 1, d, d)."""
    _, blocks = _covariance_grid(model.A, *_flow_terms(model, channels), dt,
                                 n_steps)
    return np.array([V0] + [V for _, Vs in blocks(V0) for V in Vs])


def hp_covariance(model, channels, V0, n, dt):
    """V(t) = Y X^-1 with [X; Y] = expm(t H) [I; V0] in 60-digit arithmetic.

    t = n dt exactly; H = [[-A^T, M], [D, A]] is assembled here channel
    by channel, apart from the engine's (D, M).
    """
    mpmath = pytest.importorskip("mpmath")
    d = model.dim
    D = sum(backaction_diffusion(model, ch) for ch in channels)
    M = sum(4 * ch.k * ch.eta * np.outer(ch.s, ch.s) for ch in channels)
    H = np.block([[-model.A.T, M], [D, model.A]])
    with mpmath.workdps(60):
        t = n * mpmath.mpf(dt)
        XY = (mpmath.expm(mpmath.matrix(H.tolist()) * t)
              * mpmath.matrix(np.vstack([np.eye(d), V0]).tolist()))
        V = XY[d:, :] * mpmath.inverse(XY[:d, :])
        return np.array(V.tolist(), dtype=float)


def slow_pair():
    # ||H|| ~ 0.01: K h ||H|| <= 1 would allow 96079 steps per block
    return (models.oscillator_pair(100.0, 0.01).model,
            (MeasurementChannel(models.ROW_Q, 1e-4, 1.0),))


def pair_k(k):
    return lambda: (models.oscillator_pair(1.0, 1.0).model,
                    (MeasurementChannel(models.ROW_Q, k, 1.0),))


class TestCovarianceGrid:
    @pytest.mark.parametrize("case", [
        pytest.param(pair_k(2.0), id="pair-k2"),
        pytest.param(lambda: (models.single_oscillator(1.0, 1.0).model,
                              (pos_channel(2.0),)), id="single-k2"),
    ])
    def test_matches_high_precision_reference(self, case):
        # measured 0.8e-16 to 2.5e-15; composing 10^4 single steps left
        # 2.0e-14 to 8.1e-14, which this bound rejects
        model, ch = case()
        dt = 1e-3
        V0 = vacuum_state(model).cov
        grid = grid_covs(model, ch, dt, 10000, V0)
        for t in (1, 5, 10):
            n = int(round(t / dt))
            ref = hp_covariance(model, ch, V0, n, dt)
            assert np.max(np.abs(grid[n] - ref)) <= 1e-14 * np.max(np.abs(ref))

    # (model and channels, dt, n_steps, block size K, relative bound).
    # Blocks of one step restart at every step, as the per-step loop
    # did, and their rounding builds up like its: measured 1.2e-15 and
    # 8.0e-14 (the stiff split case) against <= 4.1e-16 for K > 1.
    BOUNDARY = [
        pytest.param(pair_k(2.0), 1e-3, 30, 30, 1e-14, id="n-below-K"),
        pytest.param(pair_k(2.0), 1e-3, 300, 62, 1e-14, id="n-not-multiple"),
        pytest.param(pair_k(200.0), 1e-3, 300, 1, 1e-12, id="K1-hH-1.6"),
        pytest.param(pair_k(200.0), 0.05, 20, 1, 1e-12, id="K1-split-hH-80"),
        pytest.param(slow_pair, 1e-3, 2500, MAX_BLOCK_STEPS, 1e-14,
                     id="K-capped"),
    ]

    @pytest.mark.parametrize("case, dt, n, K, tol", BOUNDARY)
    def test_block_boundaries(self, case, dt, n, K, tol):
        model, ch = case()
        A, (D, M) = model.A, _flow_terms(model, ch)
        norm = dt * np.linalg.norm(np.block([[-A.T, M], [D, A]]), 2)
        block, blocks = _covariance_grid(A, D, M, dt, n)
        assert block == K
        assert K * norm <= 1 or K == 1
        assert K in (n, MAX_BLOCK_STEPS) or (K + 1) * norm > 1
        V0 = vacuum_state(model).cov
        starts, sizes = zip(*[(n0, len(Vs)) for n0, Vs in blocks(V0)])
        assert list(starts) == list(range(0, n, K))
        assert sum(sizes) == n and set(sizes[:-1]) <= {K}
        grid = grid_covs(model, ch, dt, n, V0)
        for step in sorted({1, K - 1, K, K + 1, 2 * K, n - 1, n} - {0}):
            if step <= n:
                ref = hp_covariance(model, ch, V0, step, dt)
                err = np.max(np.abs(grid[step] - ref))
                assert err <= tol * np.max(np.abs(ref)), step
        assert np.array_equal(grid, grid.transpose(0, 2, 1))
        assert all(is_physical_cov(V, model.Omega, model.hbar) for V in grid)

    def test_split_restarts_are_bounded(self):
        # pair at k = 200, h = 0.05: h ||H||_2 = 80 splits each step in 2,
        # so 25000 steps make the MAX_EXPM_NORM * MAX_BLOCK_STEPS = 50000
        # restarts allowed and one more step is refused before any work
        model, ch = pair_k(200.0)()
        A, (D, M) = model.A, _flow_terms(model, ch)
        assert MAX_EXPM_NORM * MAX_BLOCK_STEPS == 50000
        assert _covariance_grid(A, D, M, 0.05, 25000)[0] == 1
        with pytest.raises(ValueError, match=r"h \|\|H\|\|_2 = 80 .* 2 restarts"):
            _covariance_grid(A, D, M, 0.05, 25001)
        # a step within the expm bound is never split, at any step count
        assert _covariance_grid(A, D, M, 0.01, 10**6)[0] == 1

    @pytest.mark.parametrize("cov_stride", [1, 7, 1000])
    @pytest.mark.parametrize("case, dt, n, K, tol", BOUNDARY)
    def test_sweep_keeps_grid_rows(self, case, dt, n, K, tol, cov_stride):
        model, ch = case()
        st = vacuum_state(model)
        traj = evolve_conditional(model, st, ch, dt=dt, T=n * dt, seed=3,
                                  cov_stride=cov_stride)
        idx = sorted(set(range(0, n + 1, cov_stride)) | {n})
        assert np.array_equal(traj.cov_times, np.arange(n + 1)[idx] * dt)
        assert np.array_equal(traj.covs, grid_covs(model, ch, dt, n, st.cov)[idx])


def pair_force_case():
    return (models.oscillator_pair(1.0, 1.0).model,
            (MeasurementChannel(models.ROW_Q, 2.0, 1.0),))


def single_force_case():
    return models.single_oscillator(1.0, 1.0).model, (pos_channel(2.0),)


def pair_two_channel_case():
    return (models.oscillator_pair(1.0, 1.0).model,
            (MeasurementChannel(models.ROW_Q, 2.0, 1.0),
             MeasurementChannel(models.ROW_PI, 2.0, 1.0)))


class TestForceFilterMatchesRK4:
    SHAPES = {
        "sinusoid": (lambda b, F0: ForceDrive.sinusoid(b, F0, 1.0),
                     lambda t: math.sin(t)),
        "constant": (lambda b, F0: ForceDrive.constant(b, F0),
                     lambda t: 1.0),
    }
    # (amplitudes, posterior_std, information) of estimate() with the
    # sinusoid template, frozen from the filter that stepped every record's
    # means one step at a time, which the record weights replaced
    FROZEN = {
        "pair": ([0.8650568580586302, 1.2595898671757393, 2.08868526350805],
                 0.3311147670394558, 9.121009337838709),
        "pair2": ([1.464132835918042, 1.2497867229828008, 1.3686608098247965],
                  0.26031207507579174, 14.757451740629497),
    }
    DT, T = 2e-3, 4.0

    def estimate(self, case, shape):
        """Three records of seed 4 at amplitude 1.3, and their estimate."""
        model, ch = case()
        make, _ = self.SHAPES[shape]
        b = model.force_couplings[0]
        batch = simulate_batch(model, vacuum_state(model), ch, make(b, 1.3),
                               self.DT, self.T, master_seed=4, n_traj=3)
        template = make(b, 1.0)
        est = estimate_force_batch(batch.records, model, ch, template, self.DT)
        return model, ch, template, batch, est

    @pytest.mark.parametrize("case, shape", [
        pytest.param(pair_force_case, "constant", id="pair-constant"),
        pytest.param(pair_force_case, "sinusoid", id="pair-sinusoid"),
        pytest.param(single_force_case, "constant", id="single-constant"),
        pytest.param(single_force_case, "sinusoid", id="single-sinusoid"),
        # not with the constant template: there the reference's own dt
        # error, 1.7e-7, exceeds the bound
        pytest.param(pair_two_channel_case, "sinusoid", id="pair2-sinusoid"),
    ])
    def test_posterior_std_and_estimates(self, case, shape):
        model, ch, template, batch, est = self.estimate(case, shape)
        amps, std_ref = rk4_force_filter(model, ch, template.b,
                                         self.SHAPES[shape][1],
                                         batch.records, self.DT)
        std = force_posterior_std(model, ch, template, self.DT, self.T)
        assert abs(std / std_ref - 1) <= 1e-7
        # one spread for the whole batch
        assert abs(est.posterior_std / std_ref - 1) <= 1e-7
        assert est.amplitude.shape == (3,)
        for got, amp in zip(est.amplitude, amps):
            # relative to the estimate, or to its spread when it is near 0
            scale = max(abs(amp), std_ref)
            assert abs(got - amp) <= 1e-7 * scale

    @pytest.mark.parametrize("case, name", [
        pytest.param(pair_force_case, "pair", id="pair"),
        pytest.param(pair_two_channel_case, "pair2", id="pair2"),
    ])
    def test_weights_match_frozen_step_by_step_filter(self, case, name):
        *_, est = self.estimate(case, "sinusoid")
        amps, std, information = self.FROZEN[name]
        assert est.posterior_std == pytest.approx(std, rel=1e-13)
        assert est.information == pytest.approx(information, rel=1e-13)
        for got, amp in zip(est.amplitude, amps):
            assert abs(got - amp) <= 1e-13 * max(abs(amp), std)


class TestForceDrive:
    def test_samples_match_closed_form(self):
        dt, n = 1e-3, 20000
        t = np.arange(n) * dt
        b = np.array([0.0, 1.0])
        const = ForceDrive.constant(b, 2.5).samples(dt, n)
        assert np.max(np.abs(const - 2.5)) <= 1e-12 * 2.5
        sin = ForceDrive.sinusoid(b, 1.7, 1.3, 0.4).samples(dt, n)
        assert np.max(np.abs(sin - 1.7 * np.sin(1.3 * t + 0.4))) <= 1e-12 * 1.7

    @pytest.mark.parametrize("block", [1, 62, 1000])
    def test_block_samples_match_closed_form(self, block):
        # blocks of one step are the recursion; 62 does not divide n
        dt, n = 1e-3, 20000
        t = np.arange(n) * dt
        drive = ForceDrive.sinusoid(np.array([0.0, 1.0]), 1.7, 1.3, 0.4)
        sin = drive.samples(dt, n, block)
        assert np.max(np.abs(sin - 1.7 * np.sin(1.3 * t + 0.4))) <= 1e-12 * 1.7
        if block == 1:
            assert np.array_equal(sin, drive.samples(dt, n))

    @pytest.mark.parametrize("make, name", [
        (lambda: ForceDrive.constant(np.ones(2), math.nan), "F0"),
        (lambda: ForceDrive.sinusoid(np.ones(2), math.inf, 1.0), "F0"),
        (lambda: ForceDrive.sinusoid(np.ones(2), 1.0, math.nan), "omega_F"),
        (lambda: ForceDrive.sinusoid(np.ones(2), 1.0, math.inf), "omega_F"),
        (lambda: ForceDrive.sinusoid(np.ones(2), 1.0, 1.0, math.inf), "phase"),
    ])
    def test_non_finite_parameter_rejected(self, make, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make()

    def test_generator_sizes_must_match(self):
        with pytest.raises(ValueError, match="sizes"):
            ForceDrive(np.ones(2), np.zeros((2, 2)), np.ones(1), np.ones(2))


class TestForceEstimation:
    def test_noiseless_record_recovers_amplitude(self):
        # build a record with dW = 0 by hand; the ML estimate must hit
        # the injected amplitude up to discretization error
        model = models.oscillator_pair(1.0, 1.0).model
        ch = (MeasurementChannel(models.ROW_Q, 5.0, 1.0),)
        drive = ForceDrive.sinusoid(model.force_couplings[0], 1.0, 1.0)
        dt, T = 1e-3, 10.0
        n = int(T / dt)
        mu = np.zeros(4)
        recs = np.empty((n, 1))
        for i in range(n):
            t = i * dt
            recs[i, 0] = float(ch[0].s @ mu) * dt
            mu = mu + model.A @ mu * dt + model.force_couplings[0] * np.sin(t) * dt
        est = estimate_force_batch(recs[None], model, ch, drive, dt)
        # first-order filter discretization leaves an O(dt) bias
        assert est.amplitude.shape == (1,)
        assert est.amplitude[0] == pytest.approx(1.0, abs=1e-4)
        assert est.posterior_std > 0
        assert est.information > 0

    def test_posterior_std_decreases_with_horizon(self):
        model = models.oscillator_pair(1.0, 1.0).model
        ch = (MeasurementChannel(models.ROW_Q, 2.0, 1.0),)
        drive = ForceDrive.sinusoid(model.force_couplings[0], 1.0, 1.0)
        s_short = force_posterior_std(model, ch, drive, dt=2e-3, T=4.0)
        s_long = force_posterior_std(model, ch, drive, dt=2e-3, T=12.0)
        assert s_long < s_short

    def test_estimate_from_trajectory(self):
        model = models.oscillator_pair(1.0, 1.0).model
        st = vacuum_state(model)
        ch = (MeasurementChannel(models.ROW_Q, 5.0, 1.0),)
        drive = ForceDrive.sinusoid(model.force_couplings[0], 1.3, 1.0)
        traj = evolve_conditional(
            model, st, ch, force=drive, dt=1e-3, T=10.0, seed=21
        )
        template = ForceDrive.sinusoid(model.force_couplings[0], 1.0, 1.0)
        est = estimate_force_batch(traj.records, model, ch, template, traj.dt)
        assert abs(est.amplitude[0] - 1.3) < 4 * est.posterior_std

    def test_zero_coupling_rejected(self):
        model = models.oscillator_pair(1.0, 1.0).model
        ch = (MeasurementChannel(models.ROW_Q, 5.0, 1.0),)
        drive = ForceDrive.sinusoid(np.zeros(4), 1.0, 1.0)
        with pytest.raises(EstimationError):
            force_posterior_std(model, ch, drive, dt=2e-3, T=2.0)

    def test_unobserved_force_rejected(self):
        # H = p^2/2: the force pushes q, and the monitored p never sees q,
        # so the record adds nothing to the prior (information 0)
        model = LinearModel(1, 1.0, np.diag([0.0, 1.0]),
                            force_couplings=(np.array([1.0, 0.0]),))
        ch = (MeasurementChannel(np.array([0.0, 1.0]), 2.0),)
        drive = ForceDrive.constant(model.force_couplings[0], 1.0)
        with pytest.raises(EstimationError, match="no likelihood"):
            force_posterior_std(model, ch, drive, dt=1e-3, T=2.0)
        batch = simulate_batch(model, vacuum_state(model), ch, drive, 1e-3,
                               2.0, 1, 2)
        with pytest.raises(EstimationError, match="no likelihood"):
            estimate_force_batch(batch.records, model, ch, drive, 1e-3)
