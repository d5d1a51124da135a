"""Continuous Gaussian measurement with explicit back-action.

Measurement model, pinned by the purity requirement (an ideal eta = 1
monitor conditions a stable model onto a pure Gaussian state):

    record      dy = s.x dt + dW / sqrt(4 k eta)
    back-action D  = hbar^2 k (Omega s)(Omega s)^T
    covariance  dV/dt = A V + V A^T + sum D + D_extra
                        - sum 4 k eta (V s)(V s)^T
    mean        dmu = A mu dt + b F(t) dt + sum sqrt(4 k eta) (V s) dW

The back-action lands along Omega s, i.e. on the conjugate of the
measured observable; when s belongs to a commuting closed subsystem,
the conjugate never feeds back and the projected back-action vanishes
identically.

Waveform (force) estimation augments the state with the unknown
amplitude as a zero-dynamics parameter and runs the Kalman filter over
the augmented model, which yields the maximum-likelihood amplitude and
its analytic posterior standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import LinearModel, transfer_matrix

__all__ = [
    "GaussianState",
    "MeasurementChannel",
    "ForceDrive",
    "Trajectory",
    "BatchResult",
    "ForceEstimate",
    "RiccatiDivergenceError",
    "EstimationError",
    "backaction_diffusion",
    "riccati_rhs",
    "riccati_evolve",
    "steady_covariance",
    "evolve_conditional",
    "simulate_batch",
    "estimate_force",
    "estimate_force_batch",
    "force_posterior_std",
    "vacuum_state",
    "is_physical_cov",
    "partial_transpose_cov",
    "symplectic_eigenvalues",
]

MAX_STEP_NORM = 0.1  # reject Euler steps with ||A|| dt above this


class RiccatiDivergenceError(RuntimeError):
    """Covariance flow failed to reach stationarity; carries .last_V."""

    def __init__(self, message, last_V):
        super().__init__(message)
        self.last_V = last_V


class EstimationError(RuntimeError):
    """Waveform estimation has (numerically) zero information."""


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and symmetric covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov must be square and match mean length")
        asym = np.max(np.abs(cov - cov.T))
        if asym > 1e-13 * max(1.0, np.max(np.abs(cov))):
            raise ValueError(f"cov not symmetric (defect {asym:.3g})")
        cov = (cov + cov.T) / 2
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def vacuum_state(model: LinearModel) -> GaussianState:
    """Zero mean, isotropic hbar/2 covariance (vacuum of every mode)."""
    d = model.dim
    return GaussianState(np.zeros(d), (model.hbar / 2) * np.eye(d))


def is_physical_cov(
    cov: np.ndarray, Omega: np.ndarray, hbar: float, tol: float = 1e-10
) -> bool:
    """Uncertainty-principle check: cov + i(hbar/2) Omega >= 0."""
    M = cov + 0.5j * hbar * Omega
    eigs = np.linalg.eigvalsh((M + M.conj().T) / 2)
    return bool(eigs.min() >= -tol * hbar)


def partial_transpose_cov(cov: np.ndarray, mode: int) -> np.ndarray:
    """Covariance under time reversal of one mode (p_mode -> -p_mode)."""
    d = cov.shape[0]
    F = np.eye(d)
    F[2 * mode + 1, 2 * mode + 1] = -1.0
    return F @ cov @ F


def symplectic_eigenvalues(cov: np.ndarray, Omega: np.ndarray) -> np.ndarray:
    """Positive spectrum of |i Omega V|; pure Gaussian states sit at hbar/2."""
    eigs = np.linalg.eigvals(1j * Omega @ cov)
    nus = np.sort(np.abs(np.real(eigs)))
    # eigenvalues come in +/- pairs; keep one of each
    return nus[cov.shape[0] // 2 :]


@dataclass(frozen=True)
class MeasurementChannel:
    """Continuous monitor of s.x with strength k and efficiency eta."""

    s: np.ndarray
    k: float
    eta: float = 1.0

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if np.linalg.norm(s) == 0:
            raise ValueError("measured observable must be nonzero")
        if self.k < 0:
            raise ValueError("strength k must be >= 0")
        if not 0 < self.eta <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        s.setflags(write=False)
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class ForceDrive:
    """External signal F(t) entering through coupling vector b."""

    b: np.ndarray
    waveform: object  # callable t -> float

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "b", b)

    @staticmethod
    def constant(b, F0: float) -> "ForceDrive":
        return ForceDrive(b, lambda t: F0)

    @staticmethod
    def sinusoid(b, F0: float, omega_F: float, phase: float = 0.0) -> "ForceDrive":
        return ForceDrive(b, lambda t: F0 * math.sin(omega_F * t + phase))


@dataclass(frozen=True)
class Trajectory:
    """Conditional trajectory: means per step, thinned covariances, records."""

    times: np.ndarray
    means: np.ndarray  # (n_steps + 1, dim)
    cov_times: np.ndarray
    covs: np.ndarray  # (len(cov_times), dim, dim)
    records: np.ndarray  # (n_steps, n_channels) of dy increments
    seed: object
    dt: float

    def __post_init__(self):
        if self.means.shape[0] != self.times.size:
            raise ValueError("means and times length mismatch")
        if self.covs.shape[0] != self.cov_times.size:
            raise ValueError("covs and cov_times length mismatch")
        if self.records.shape[0] != self.times.size - 1:
            raise ValueError("records must have one row per step")


def backaction_diffusion(model: LinearModel, channel: MeasurementChannel):
    """D = hbar^2 k (Omega s)(Omega s)^T: diffusion on the conjugate."""
    v = model.Omega @ channel.s
    return model.hbar**2 * channel.k * np.outer(v, v)


def riccati_rhs(model: LinearModel, channels, D_extra: np.ndarray = None):
    """Right-hand side V -> dV/dt of the conditional covariance flow."""
    A = model.A
    D = np.zeros((model.dim, model.dim))
    if D_extra is not None:
        D = D + np.asarray(D_extra, dtype=float)
    for ch in channels:
        D = D + backaction_diffusion(model, ch)

    def rhs(V):
        dV = A @ V + V @ A.T + D
        for ch in channels:
            if ch.k > 0:
                Vs = V @ ch.s
                dV = dV - 4 * ch.k * ch.eta * (Vs[:, None] * Vs)
        return dV

    return rhs


def _rk4_matrix_step(rhs, V, h):
    k1 = rhs(V)
    k2 = rhs(V + h / 2 * k1)
    k3 = rhs(V + h / 2 * k2)
    k4 = rhs(V + h * k3)
    Vn = V + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return (Vn + Vn.T) / 2


def riccati_evolve(
    model: LinearModel,
    channels,
    V0: np.ndarray,
    T: float,
    D_extra: np.ndarray = None,
    dt: float = None,
) -> np.ndarray:
    """Integrate the covariance flow for a fixed horizon (fixed-step RK4)."""
    rhs = riccati_rhs(model, channels, D_extra)
    if dt is None:
        rate = np.linalg.norm(model.A, 2) + sum(
            4 * ch.k * ch.eta * np.linalg.norm(ch.s) ** 2 for ch in channels
        )
        dt = 0.01 / max(rate, 1.0)
    n_steps = max(1, int(math.ceil(T / dt)))
    h = T / n_steps
    V = np.asarray(V0, dtype=float).copy()
    for _ in range(n_steps):
        V = _rk4_matrix_step(rhs, V, h)
    return V


def steady_covariance(
    model: LinearModel,
    channels,
    D_extra: np.ndarray = None,
    V0: np.ndarray = None,
    horizon: float = 1000.0,
    rtol: float = 1e-12,
    chunk: float = 1.0,
) -> np.ndarray:
    """Stationary conditional covariance.

    Integrates until ||dV/dt|| / ||V|| < rtol per unit time; raises
    :class:`RiccatiDivergenceError` (with the last V attached) when the
    flow keeps growing or the horizon runs out.
    """
    if not any(ch.k > 0 for ch in channels):
        if not np.all(np.real(np.linalg.eigvals(model.A)) < 0):
            raise ValueError("need a measurement channel or a stable drift")
    rhs = riccati_rhs(model, channels, D_extra)
    V = vacuum_state(model).cov if V0 is None else np.asarray(V0, dtype=float)
    V = V.copy()
    t = 0.0
    init_scale = max(np.linalg.norm(V), 1.0)
    while t < horizon:
        V = riccati_evolve(model, channels, V, chunk, D_extra)
        t += chunk
        norm_V = np.linalg.norm(V)
        if not np.isfinite(norm_V) or norm_V > 1e12 * init_scale:
            raise RiccatiDivergenceError(
                f"covariance flow diverging at t = {t:.3g}", V
            )
        if np.linalg.norm(rhs(V)) < rtol * max(norm_V, 1e-300):
            return V
    raise RiccatiDivergenceError(
        f"no stationary covariance within horizon {horizon:g} "
        f"(residual {np.linalg.norm(rhs(V)) / np.linalg.norm(V):.3g})",
        V,
    )


def _validate_step(model, dt, T):
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < dt:
        raise ValueError("T must be at least dt")
    step_norm = np.linalg.norm(model.A, 2) * dt
    if step_norm > MAX_STEP_NORM:
        raise ValueError(
            f"||A|| dt = {step_norm:.3g} exceeds {MAX_STEP_NORM}; reduce dt"
        )


def _noise_increments(seed, n_channels: int, n_steps: int, dt: float):
    """Per-channel Wiener increments from counter-based Philox streams.

    Stream c is keyed by (seed, c), so the draw for (seed, channel,
    step) is reproducible independently of batching or thread order.
    """
    cols = []
    for c in range(n_channels):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(c,))
        gen = np.random.Generator(np.random.Philox(ss))
        cols.append(gen.standard_normal(n_steps) * math.sqrt(dt))
    if not cols:
        return np.zeros((n_steps, 0))
    return np.column_stack(cols)


def _conditional_sweep(model, state0, channels, force, dt, T, seeds, cov_stride):
    """The one conditional stepping loop, vectorized over trajectories.

    Means are a (dim, n_traj) matrix stepped by Euler-Maruyama; the
    covariance flow is seed-independent, so one RK4 step per time step
    serves every trajectory.  Trajectory i draws its noise from the
    streams keyed by seeds[i].  Returns (times, means, records,
    cov_times, covs) with means (n_traj, n_steps + 1, dim), records
    (n_traj, n_steps, n_channels) and covs (n_cov, dim, dim) at the
    steps 0, cov_stride, 2 cov_stride, ... and always the last one.
    """
    _validate_step(model, dt, T)
    if not is_physical_cov(state0.cov, model.Omega, model.hbar):
        raise ValueError("initial covariance violates the uncertainty bound")
    for ch in channels:
        if ch.k == 0:
            raise ValueError("channel with k = 0 produces no record; omit it")
    if cov_stride < 1:
        raise ValueError("cov_stride must be at least 1")
    n_steps = int(round(T / dt))
    n_traj = len(seeds)
    n_ch = len(channels)
    d = model.dim
    rhs = riccati_rhs(model, channels)

    # (n_steps, n_ch, n_traj): one contiguous row of increments per step
    dW = np.stack(
        [_noise_increments(seed, n_ch, n_steps, dt) for seed in seeds], axis=-1
    )
    scales = [math.sqrt(4 * ch.k * ch.eta) for ch in channels]

    times = np.arange(n_steps + 1) * dt
    cov_idx = list(range(0, n_steps + 1, cov_stride))
    if cov_idx[-1] != n_steps:
        cov_idx.append(n_steps)
    cov_steps = set(cov_idx)

    mu = np.tile(state0.mean[:, None], (1, n_traj))
    V = state0.cov.copy()
    means = np.empty((n_steps + 1, d, n_traj))
    means[0] = mu
    records = np.empty((n_steps, n_ch, n_traj))
    covs = [V]

    b = force.b[:, None] if force is not None else None
    wave = force.waveform if force is not None else None
    for n in range(n_steps):
        dmu = (model.A @ mu) * dt
        if force is not None:
            dmu = dmu + b * (wave(n * dt) * dt)
        for c, ch in enumerate(channels):
            gain = scales[c] * (V @ ch.s)
            records[n, c] = (ch.s @ mu) * dt + dW[n, c] / scales[c]
            dmu = dmu + gain[:, None] * dW[n, c]
        mu = mu + dmu
        V = _rk4_matrix_step(rhs, V, dt)
        means[n + 1] = mu
        if n + 1 in cov_steps:
            covs.append(V)

    return (
        times,
        np.ascontiguousarray(means.transpose(2, 0, 1)),
        np.ascontiguousarray(records.transpose(2, 0, 1)),
        times[np.array(cov_idx)],
        np.array(covs),
    )


def evolve_conditional(
    model: LinearModel,
    state0: GaussianState,
    channels,
    force: ForceDrive = None,
    dt: float = 1e-3,
    T: float = 1.0,
    seed=0,
    cov_stride: int = 1,
) -> Trajectory:
    """Euler-Maruyama conditional mean with RK4 covariance alongside.

    Deterministic given (model, channels, force, dt, T, seed); a batch
    of one of :func:`simulate_batch`'s sweep.
    """
    times, means, records, cov_times, covs = _conditional_sweep(
        model, state0, channels, force, dt, T, [seed], cov_stride
    )
    return Trajectory(
        times=times,
        means=means[0],
        cov_times=cov_times,
        covs=covs,
        records=records[0],
        seed=seed,
        dt=dt,
    )


@dataclass(frozen=True)
class BatchResult:
    """Vectorized ensemble run sharing one covariance sweep."""

    times: np.ndarray
    means_final: np.ndarray  # (n_traj, dim)
    records: np.ndarray  # (n_traj, n_steps, n_channels)
    V_final: np.ndarray
    master_seed: int
    means: np.ndarray  # (n_traj, n_steps + 1, dim)
    cov_times: np.ndarray
    covs: np.ndarray  # (len(cov_times), dim, dim), shared by all seeds


def simulate_batch(
    model: LinearModel,
    state0: GaussianState,
    channels,
    force: ForceDrive,
    dt: float,
    T: float,
    master_seed: int,
    n_traj: int,
    cov_stride: int = 1,
) -> BatchResult:
    """Monte Carlo ensemble of conditional trajectories.

    Trajectory i uses noise streams keyed by (master_seed, i, channel),
    identical to evolve_conditional with seed = (master_seed, i).  Means
    are propagated as one matrix per step and one covariance sweep
    serves every seed, which is what makes hundred-seed ensembles
    cheap.  Per-step means take n_traj x (n_steps + 1) x dim x 8 bytes.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    seeds = [(master_seed, i) for i in range(n_traj)]
    times, means, records, cov_times, covs = _conditional_sweep(
        model, state0, channels, force, dt, T, seeds, cov_stride
    )
    return BatchResult(
        times=times,
        means_final=means[:, -1].copy(),
        records=records,
        V_final=covs[-1].copy(),
        master_seed=master_seed,
        means=means,
        cov_times=cov_times,
        covs=covs,
    )


@dataclass(frozen=True)
class ForceEstimate:
    """Maximum-likelihood amplitude with its analytic posterior spread."""

    amplitude: float
    posterior_std: float
    information: float


def _augmented_filter_sweep(
    model: LinearModel,
    channels,
    template: ForceDrive,
    dt: float,
    n_steps: int,
    V0: np.ndarray,
    prior_var: float,
):
    """Shared covariance/gain sweep of the amplitude-augmented model.

    Returns per-step gains (n_steps, n_ch, d+1), per-step propagators,
    and the final augmented covariance.
    """
    d = model.dim
    da = d + 1
    A = model.A
    b = template.b
    if np.linalg.norm(b) == 0:
        raise EstimationError("zero force coupling: no information")
    D = np.zeros((da, da))
    for ch in channels:
        D[:d, :d] += backaction_diffusion(model, ch)
    s_aug = [np.concatenate([ch.s, [0.0]]) for ch in channels]

    Va = np.zeros((da, da))
    Va[:d, :d] = V0
    Va[d, d] = prior_var

    gains = np.empty((n_steps, len(channels), da))
    Aa = np.zeros((da, da))
    Aa[:d, :d] = A

    def rhs(V, t):
        Aa[:d, d] = b * template.waveform(t)
        dV = Aa @ V + V @ Aa.T + D
        for ch, sa in zip(channels, s_aug):
            Vs = V @ sa
            dV = dV - 4 * ch.k * ch.eta * np.outer(Vs, Vs)
        return dV

    props = np.empty((n_steps, da, da))
    for n in range(n_steps):
        t = n * dt
        for c, (ch, sa) in enumerate(zip(channels, s_aug)):
            gains[n, c] = 4 * ch.k * ch.eta * (Va @ sa)
        Aa[:d, d] = b * template.waveform(t)
        props[n] = np.eye(da) + Aa * dt
        # RK4 on the time-varying Riccati
        k1 = rhs(Va, t)
        k2 = rhs(Va + dt / 2 * k1, t + dt / 2)
        k3 = rhs(Va + dt / 2 * k2, t + dt / 2)
        k4 = rhs(Va + dt * k3, t + dt)
        Va = Va + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        Va = (Va + Va.T) / 2
    return gains, props, s_aug, Va


def _ml_from_posterior(mu_F: float, V_FF: float, prior_var: float):
    information = 1.0 / V_FF - 1.0 / prior_var
    if information <= 0 or not np.isfinite(information):
        raise EstimationError("no likelihood information about the amplitude")
    amplitude = mu_F * (1.0 / V_FF) / information
    return ForceEstimate(amplitude, 1.0 / math.sqrt(information), information)


def force_posterior_std(
    model: LinearModel,
    channels,
    template: ForceDrive,
    dt: float,
    T: float,
    V0: np.ndarray = None,
    prior_var: float = 1e4,
) -> float:
    """Analytic posterior std of the amplitude (no record needed)."""
    _validate_step(model, dt, T)
    n_steps = int(round(T / dt))
    if V0 is None:
        V0 = vacuum_state(model).cov
    *_, Va = _augmented_filter_sweep(
        model, channels, template, dt, n_steps, V0, prior_var
    )
    est = _ml_from_posterior(1.0, Va[-1, -1], prior_var)
    return est.posterior_std


def estimate_force(
    trajectory: Trajectory,
    model: LinearModel,
    channels,
    template: ForceDrive,
    state0: GaussianState = None,
    prior_var: float = 1e4,
) -> ForceEstimate:
    """ML amplitude of a known-shape force from one measurement record."""
    records = trajectory.records[None, :, :]
    batch = estimate_force_batch(
        records, model, channels, template, trajectory.dt, state0, prior_var
    )
    return batch[0]


def estimate_force_batch(
    records: np.ndarray,
    model: LinearModel,
    channels,
    template: ForceDrive,
    dt: float,
    state0: GaussianState = None,
    prior_var: float = 1e4,
):
    """Vectorized amplitude estimation over an ensemble of records."""
    records = np.asarray(records, dtype=float)
    n_traj, n_steps, n_ch = records.shape
    if n_ch != len(channels):
        raise ValueError("record/channel count mismatch")
    if state0 is None:
        state0 = vacuum_state(model)
    d = model.dim
    gains, props, s_aug, Va = _augmented_filter_sweep(
        model, channels, template, dt, n_steps, state0.cov, prior_var
    )
    mu = np.zeros((d + 1, n_traj))
    mu[:d] = state0.mean[:, None]
    for n in range(n_steps):
        pred = props[n] @ mu
        mu_new = pred.copy()
        for c, sa in enumerate(s_aug):
            innovation = records[:, n, c] - (sa @ mu) * dt
            mu_new += np.outer(gains[n, c], innovation)
        mu = mu_new
    V_FF = Va[-1, -1]
    return [_ml_from_posterior(float(mu[d, i]), V_FF, prior_var)
            for i in range(n_traj)]


def unconditional_mean(model: LinearModel, mean0, force: ForceDrive, t: float,
                       n_quad: int = 2000) -> np.ndarray:
    """Deterministic mean response mu(t) = Phi(t) mu0 + int Phi(t-u) b F(u) du."""
    mu = transfer_matrix(model, t) @ np.asarray(mean0, dtype=float)
    if force is not None:
        us = np.linspace(0.0, t, n_quad + 1)
        vals = np.array([
            transfer_matrix(model, t - u) @ (force.b * force.waveform(u))
            for u in us
        ])
        h = us[1] - us[0]
        mu = mu + h * (vals[0] / 2 + vals[1:-1].sum(axis=0) + vals[-1] / 2)
    return mu
