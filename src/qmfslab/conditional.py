"""Continuous Gaussian measurement with explicit back-action.

Measurement model, pinned by the purity requirement (an ideal eta = 1
monitor conditions a stable model onto a pure Gaussian state):

    record      dy = s.x dt + dW / sqrt(4 k eta)
    back-action D  = sum hbar^2 k (Omega s)(Omega s)^T
    covariance  dV/dt = A V + V A^T + D - V M V,  M = sum 4 k eta s s^T
    mean        dmu = A mu dt + b F(t) dt + sum sqrt(4 k eta) (V s) dW

The back-action lands along Omega s, i.e. on the conjugate of the
measured observable; when s belongs to a commuting closed subsystem,
the conjugate never feeds back and the projected back-action vanishes
identically.

Every covariance flow (trajectories, fixed horizons, the force filter)
advances through one engine that is exact at any step size, the
restarted linear-fractional (Davison-Maki) propagator.  On a grid of
steps h it works in blocks of K steps, K the largest with
K h ||H||_2 <= 1 for the Hamiltonian matrix H of the flow (and at most
MAX_BLOCK_STEPS): one stacked expm gives expm(k h H) for k = 1..K, each
block applies them all to its start in one batched solve, and the next
block restarts from the last V (Davison & Maki, IEEE TAC 18, 71, 1973;
Kenney & Leipnik, IEEE TAC 30, 962, 1985).  Each V thus comes from an
exact propagator over at most K steps, so rounding does not build up
step by step.

The conditional means take Euler-Maruyama steps
mu_{n+1} = (I + A dt) mu_n + c_n, c_n the force push and the channels'
kicks.  Within one block of the covariance grid that recursion is affine
with one constant matrix, so the sweep runs it as a prefix scan: a block
of k steps takes ceil(log2(k + 1)) rounds of one product each, for all
trajectories at once (Hillis & Steele, CACM 29, 1170, 1986; Blelloch,
"Prefix sums and their applications", 1990).  The scan's matrices are
the powers of I + A dt less I, each of 2-norm at most e - 1 since
K dt ||A||_2 <= 1, and its means lie as close to the exact recursion as
a step-by-step loop's.

A force F(t) = c.z(t) is the output of a linear generator z' = W z, so
waveform estimation appends z, scaled by the unknown amplitude, to the
state and runs the Kalman filter over that time-invariant model; this
yields the maximum-likelihood amplitude and its posterior spread.
Since the filter's gains do not depend on the record, the estimator is
one linear map of the records, its weights from one backward pass over
the gains.

The batch is the one unit: a sweep returns one BatchResult (a single
trajectory is a batch of one), and the filter one ForceEstimate per
batch of records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import (
    MAX_EXPM_NORM,
    LinearModel,
    _check_finite,
    _check_square,
    expm,
)

__all__ = [
    "GaussianState",
    "MeasurementChannel",
    "ForceDrive",
    "BatchResult",
    "ForceEstimate",
    "EstimationError",
    "backaction_diffusion",
    "riccati_evolve",
    "evolve_conditional",
    "simulate_batch",
    "estimate_force_batch",
    "force_posterior_std",
    "vacuum_state",
    "is_physical_cov",
    "partial_transpose_cov",
    "symplectic_eigenvalues",
]

MAX_STEP_NORM = 0.1  # reject Euler steps with ||A|| dt above this
MAX_BLOCK_STEPS = 1000  # bounds the stacked propagators and block temporaries
PRIOR_VAR = 1e4  # amplitude prior variance of both force estimators


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


def is_physical_cov(cov: np.ndarray, Omega: np.ndarray, hbar: float) -> bool:
    """Uncertainty-principle check: cov + i(hbar/2) Omega >= -1e-10 hbar."""
    M = cov + 0.5j * hbar * Omega
    eigs = np.linalg.eigvalsh((M + M.conj().T) / 2)
    return bool(eigs.min() >= -1e-10 * hbar)


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
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError(f"strength k must be finite and >= 0, got {self.k!r}")
        if not 0 < self.eta <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        s.setflags(write=False)
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class ForceDrive:
    """External force F(t) = c.z(t) entering through coupling vector b.

    The waveform is the output of the linear generator z' = W z with
    z(0) = z0, so a driven model stays linear and time-invariant once z
    is appended to its state.
    """

    b: np.ndarray
    W: np.ndarray
    c: np.ndarray
    z0: np.ndarray

    def __post_init__(self):
        for name in ("b", "W", "c", "z0"):
            value = np.array(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"force drive {name} must be finite")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        nz = self.z0.size
        if self.W.shape != (nz, nz) or self.c.shape != (nz,):
            raise ValueError("generator W, c and z0 sizes do not match")

    @staticmethod
    def constant(b, F0: float) -> "ForceDrive":
        """F(t) = F0: a 1-dim generator with W = 0."""
        _check_finite(F0=F0)
        return ForceDrive(b, np.zeros((1, 1)), np.ones(1), np.array([F0]))

    @staticmethod
    def sinusoid(b, F0: float, omega_F: float, phase: float = 0.0) -> "ForceDrive":
        """F(t) = F0 sin(omega_F t + phase): z = F0 (sin, cos) rotates."""
        _check_finite(F0=F0, omega_F=omega_F, phase=phase)
        W = np.array([[0.0, omega_F], [-omega_F, 0.0]])
        z0 = F0 * np.array([math.sin(phase), math.cos(phase)])
        return ForceDrive(b, W, np.array([1.0, 0.0]), z0)

    def samples(self, dt: float, n_steps: int, block: int = 1) -> np.ndarray:
        """F at t = n dt for n < n_steps: c.z_n, in blocks of `block` steps.

        Within a block starting at step n0, z_{n0 + j} = expm(W j dt) z_{n0},
        all from one stacked expm; the next block starts at
        z_{n0 + block}.  block = 1 is the recursion z_{n+1} = expm(W dt) z_n.
        """
        R = expm(self.W * (dt * np.arange(block + 1))[:, None, None])
        cR = self.c @ R[:block]  # row j: c^T expm(W j dt)
        z = self.z0
        out = np.empty(n_steps)
        for n0 in range(0, n_steps, block):
            out[n0:n0 + block] = cR[:n_steps - n0] @ z
            z = R[block] @ z
        return out


@dataclass(frozen=True)
class BatchResult:
    """Conditional trajectories of one sweep: row i of means and records
    draws its noise from seeds[i]; the covariances serve every row."""

    times: np.ndarray  # (n_steps + 1,)
    means: np.ndarray  # (n_traj, n_steps + 1, dim)
    records: np.ndarray  # (n_traj, n_steps, n_channels) of dy increments
    cov_times: np.ndarray
    covs: np.ndarray  # (len(cov_times), dim, dim)
    seeds: list
    dt: float


def backaction_diffusion(model: LinearModel, channel: MeasurementChannel):
    """D = hbar^2 k (Omega s)(Omega s)^T: diffusion on the conjugate."""
    _check_square(hbar=model.hbar)
    v = model.Omega @ channel.s
    return model.hbar**2 * channel.k * np.outer(v, v)


def _flow_terms(model: LinearModel, channels):
    """(D, M) of the covariance flow dV/dt = A V + V A^T + D - V M V."""
    D = np.zeros((model.dim, model.dim))
    M = np.zeros((model.dim, model.dim))
    for ch in channels:
        D += backaction_diffusion(model, ch)
        M += 4 * ch.k * ch.eta * np.outer(ch.s, ch.s)
    return D, M


def _covariance_grid(A, D, M, h, n_steps):
    """The Davison-Maki engine: V at every step of n_steps steps of size h.

    Solves dV/dt = A V + V A^T + D - V M V through the Hamiltonian
    H = [[-A^T, M], [D, A]]: V(t) = Y X^-1 with [X; Y] = expm(t H) [I; V(0)],
    exact at any t.  Steps come in blocks of K, the largest K with
    K h ||H||_2 <= 1, capped at n_steps and at MAX_BLOCK_STEPS (a flow
    with a tiny ||H|| would otherwise stack ~n_steps propagators and
    per-step temporaries in one block).  One stacked expm gives
    Phi_k = expm(k h H) for k = 1..K; a block applies Phi_1..Phi_k to
    [I; V] at its start and makes one batched solve for all its steps,
    and the next block restarts from X = I at its last V (the modified
    Davison-Maki method of Kenney & Leipnik), which keeps X well
    conditioned and keeps rounding from building up step by step.  When
    h ||H||_2 > 1 the blocks hold one step each, and a step is split into
    n equal parts with ||h H / n||_2 <= MAX_EXPM_NORM, each part again a
    restart from X = I.  Every V is symmetrised.

    The split restarts of a grid, n * n_steps when n > 1, are at most
    MAX_EXPM_NORM * MAX_BLOCK_STEPS = 50000, about 1 s at the ~20 us a
    restart takes on one core of a 2-vCPU host.  A grid that needs more,
    e.g. the pair at k = 1e6 and h = 1e-3 over 1e4 steps (h ||H||_2 =
    8e3, 161 restarts per step), raises ValueError before any work.

    Returns (K, blocks): blocks(V0) yields (n0, Vs), Vs[j] being V at
    step n0 + j + 1.
    """
    d = A.shape[0]
    H = np.block([[-A.T, M], [D, A]])
    hH = abs(h) * np.linalg.norm(H, 2)
    n = max(1, math.ceil(hH / MAX_EXPM_NORM))
    max_restarts = round(MAX_EXPM_NORM * MAX_BLOCK_STEPS)
    if n > 1 and n * n_steps > max_restarts:
        raise ValueError(
            f"h ||H||_2 = {hH:.3g} splits each of {n_steps} covariance "
            f"step(s) into {n:.3g} restarts, more than {max_restarts} in all; "
            "lower the measurement strength (--k) or the horizon (--T), or "
            f"take a step (--dt) with h ||H||_2 <= {MAX_EXPM_NORM:g}"
        )
    K = min(n_steps, MAX_BLOCK_STEPS)
    K = max(1, math.floor(min(K, 1 / hH) if hH > 0 else K))
    Phi = expm(h / n * np.arange(1, K + 1)[:, None, None] * H)
    Phi_I, Phi_V = Phi[:, :, :d].copy(), Phi[:, :, d:].copy()

    def restart(V, k):
        XY = Phi_I[:k] + Phi_V[:k] @ V
        Vs = np.linalg.solve(XY[:, :d].transpose(0, 2, 1),
                             XY[:, d:].transpose(0, 2, 1)).transpose(0, 2, 1)
        return (Vs + Vs.transpose(0, 2, 1)) / 2

    def blocks(V):
        for n0 in range(0, n_steps, K):
            for _ in range(n):  # n > 1 only with one step per block
                Vs = restart(V, min(K, n_steps - n0))
                V = Vs[-1]
            yield n0, Vs

    return K, blocks


def _exact_step(A, D, M, h):
    """The covariance step V -> V(h): the Davison-Maki grid of one step.

    V(h) = Y X^-1 with [X; Y] = expm(h H) [I; V], exact at any h.  A
    grid of one step has K = 1: h is split into n equal parts so that
    ||h H / n||_2 stays within MAX_EXPM_NORM, and each part restarts
    from X = I.  Runs of many steps take _covariance_grid itself, whose
    blocks of K steps (K h ||H||_2 <= 1) share one stacked expm and
    make one batched solve each.
    """
    _, blocks = _covariance_grid(A, D, M, h, 1)
    return lambda V: next(blocks(V))[1][0]


def riccati_evolve(model: LinearModel, channels, V0, T: float) -> np.ndarray:
    """Covariance after a fixed horizon T, exact up to rounding; a T long
    past the flow's relaxation gives its steady state."""
    step = _exact_step(model.A, *_flow_terms(model, channels), T)
    return step(np.asarray(V0, dtype=float))


def _validate_step(model, dt, T):
    if not (math.isfinite(dt) and math.isfinite(T)):
        raise ValueError(f"dt and T must be finite, got dt = {dt!r}, T = {T!r}")
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
    dW = np.empty((n_steps, n_channels))
    for c in range(n_channels):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(c,))
        gen = np.random.Generator(np.random.Philox(ss))
        dW[:, c] = gen.standard_normal(n_steps) * math.sqrt(dt)
    return dW


def _conditional_sweep(model, state0, channels, force, dt, T, seeds, cov_stride):
    """The one conditional stepping loop, vectorized over trajectories.

    The covariance flow and the force samples are seed-independent, so
    one covariance grid (_covariance_grid) serves every trajectory.  It
    comes in blocks of K steps.  Within a block the Euler-Maruyama step
    of the means is affine with one matrix P = I + A dt,

        mu_{j+1} = P mu_j + c_j,
        c_j = b F_j dt + sum_c sqrt(4 k eta) (V_j s) dW_j,

    so the block is a Hillis-Steele prefix scan.  Its buffer holds
    x[0] = mu at the block's start and x[j + 1] = c_j, the force push
    and then each channel's kick summed in that order, for every
    trajectory at once.  The round of shift s adds P^s x[j - s] to every
    x[j], j >= s, in one product, x[s:] += x[:-s] + N_s x[:-s] with
    N_s = P^s - I; the rounds s = 1, 2, 4, ... while s <= k (s = k
    included: k = 1 and k = 2 need it) leave x[j] = mu_j,
    ceil(log2(k + 1)) rounds for k steps.

    The powers are kept as increments, N_1 = A dt and
    N_2s = 2 N_s + N_s N_s, never as I + N_s: rounding 1 + delta on the
    diagonal drops delta's low bits, an error every block would repeat.
    They are bounded: K dt ||H||_2 <= 1 for the flow's Hamiltonian
    matrix H, and A is a block of H, so s dt ||A||_2 <= 1 for s <= K
    (when dt ||H||_2 > 1, K = 1 and dt ||A||_2 <= MAX_STEP_NORM), and
    ||N_s||_2 <= (1 + dt ||A||_2)^s - 1 <= e - 1.  The means lie within
    a few 1e-15 of max |mu| of the exact recursion, as close as the
    step-by-step loop.  The block's records come from its means in one
    product.

    Trajectory i draws its noise from the streams keyed by seeds[i].
    Returns the one result type, a BatchResult: means
    (n_traj, n_steps + 1, dim), records (n_traj, n_steps, n_channels),
    and covs (n_cov, dim, dim) at the steps 0, cov_stride,
    2 cov_stride, ... and always the last one.
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
    A = model.A
    K, blocks = _covariance_grid(A, *_flow_terms(model, channels), dt, n_steps)
    # N_T[r] = N_s^T for the round of shift s = 2^r, every s <= K
    N = A * dt
    N_T = [N.T]
    while 2 ** len(N_T) <= K:
        N = 2 * N + N @ N
        N_T.append(N.T)

    # (n_steps, n_ch, n_traj): one contiguous row of increments per step
    dW = np.stack(
        [_noise_increments(seed, n_ch, n_steps, dt) for seed in seeds], axis=-1
    )
    S = np.array([ch.s for ch in channels]).reshape(n_ch, d)
    scales = np.array([math.sqrt(4 * ch.k * ch.eta) for ch in channels])

    times = np.arange(n_steps + 1) * dt
    is_cov = np.zeros(n_steps + 1, dtype=bool)
    is_cov[::cov_stride] = is_cov[-1] = True
    means = np.empty((n_traj, n_steps + 1, d))
    means[:, 0] = state0.mean
    records = np.empty((n_traj, n_steps, n_ch))
    covs = [state0.cov[None]]
    if force is not None:
        F = force.samples(dt, n_steps, K)
    x = np.empty((K + 1, n_traj, d))  # the scan buffer of one block
    x[0] = state0.mean
    V = state0.cov
    for n0, Vs in blocks(V):
        k = len(Vs)
        steps = slice(n0, n0 + k)
        # step n's gain uses V_n: the block's start, then all rows but its last
        V_n = np.concatenate([V[None], Vs[:-1]])
        c = x[1:k + 1]
        c[...] = 0.0
        if force is not None:
            c += (F[steps] * dt)[:, None, None] * force.b
        for i, ch in enumerate(channels):
            c += (scales[i] * (V_n @ ch.s))[:, None, :] * dW[steps, i, :, None]
        s = 1
        for NT in N_T[:k.bit_length()]:  # the shifts s <= k
            head = x[:k + 1 - s]
            x[s:k + 1] += head + (head.reshape(-1, d) @ NT).reshape(head.shape)
            s *= 2
        means[:, n0 + 1:n0 + k + 1] = c.transpose(1, 0, 2)
        records[:, steps] = (means[:, steps] @ S.T) * dt
        records[:, steps] += dW[steps].transpose(2, 0, 1) / scales
        x[0] = x[k]
        covs.append(Vs[is_cov[n0 + 1:n0 + k + 1]])
        V = Vs[-1]

    return BatchResult(times, means, records, times[is_cov],
                       np.concatenate(covs), seeds, dt)


def evolve_conditional(
    model: LinearModel,
    state0: GaussianState,
    channels,
    force: ForceDrive = None,
    dt: float = 1e-3,
    T: float = 1.0,
    seed=0,
    cov_stride: int = 1,
) -> BatchResult:
    """One conditional trajectory, deterministic given (model, channels,
    force, dt, T, seed): the sweep's batch of one, means of shape
    (1, n_steps + 1, dim)."""
    return _conditional_sweep(model, state0, channels, force, dt, T, [seed],
                              cov_stride)


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

    Trajectory i uses noise streams keyed by (master_seed, i, channel):
    row i is evolve_conditional's batch of one at seed = (master_seed, i),
    bit for bit, and seeds[i] of the result is that seed.  The means of
    all seeds advance together, a block of steps per scan, and one
    covariance sweep serves every seed, which is what makes hundred-seed
    ensembles cheap.  Per-step means take n_traj x (n_steps + 1) x dim x
    8 bytes.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    seeds = [(master_seed, i) for i in range(n_traj)]
    return _conditional_sweep(model, state0, channels, force, dt, T, seeds,
                              cov_stride)


@dataclass(frozen=True)
class ForceEstimate:
    """Maximum-likelihood amplitude of each record of a batch, and the
    analytic posterior spread and information they all share."""

    amplitude: np.ndarray  # (n_traj,)
    posterior_std: float
    information: float


def _augmented_filter(model: LinearModel, channels, template: ForceDrive):
    """(A, D, M) of the [x; z] covariance flow and its prior covariance.

    x starts in the vacuum; the prior on z is PRIOR_VAR z0 z0^T: an
    unknown amplitude times the template's z0.
    """
    if np.linalg.norm(template.b) == 0:
        raise EstimationError("zero force coupling: no information")
    pad = (0, template.z0.size)
    D, M = _flow_terms(model, channels)
    Va = np.pad(vacuum_state(model).cov, pad)
    Va[model.dim:, model.dim:] = PRIOR_VAR * np.outer(template.z0, template.z0)
    A = np.block([[model.A, np.outer(template.b, template.c)],
                  [np.zeros((template.z0.size, model.dim)), template.W]])
    return A, np.pad(D, pad), np.pad(M, pad), Va


def _amplitude_readout(template: ForceDrive, T: float) -> np.ndarray:
    """u with amplitude = u.z(T): z(T) = amplitude v, v = expm(W T) z0."""
    v = expm(template.W * T) @ template.z0
    if not v @ v > 0:
        raise EstimationError("template waveform is zero: no information")
    return v / (v @ v)


def _information(V_FF: float) -> float:
    """The record's information 1/V_FF - 1/PRIOR_VAR about the amplitude."""
    information = 1.0 / V_FF - 1.0 / PRIOR_VAR
    if information <= 0 or not np.isfinite(information):
        raise EstimationError("no likelihood information about the amplitude")
    return information


def force_posterior_std(
    model: LinearModel,
    channels,
    template: ForceDrive,
    dt: float,
    T: float,
) -> float:
    """Analytic posterior std of the amplitude from the vacuum (no record
    needed)."""
    _validate_step(model, dt, T)
    T = int(round(T / dt)) * dt
    A, D, M, Va = _augmented_filter(model, channels, template)
    Va = _exact_step(A, D, M, T)(Va)
    u = _amplitude_readout(template, T)
    d = model.dim
    return 1.0 / math.sqrt(_information(u @ Va[d:, d:] @ u))


def estimate_force_batch(
    records: np.ndarray,
    model: LinearModel,
    channels,
    template: ForceDrive,
    dt: float,
) -> ForceEstimate:
    """Amplitudes (n_traj,) of a batch of records (n_traj, n_steps,
    n_channels) from runs that start in the vacuum.  The means
    mu_{n+1} = P mu_n + G_n (y_n - S mu_n dt) start at 0, so each is
    r.mu_N = w.y, w from r by w_n = r G_n, then r <- r P - dt w_n S."""
    records = np.asarray(records, dtype=float)
    n_traj, n_steps, n_ch = records.shape
    if n_ch != len(channels):
        raise ValueError("record/channel count mismatch")
    d = model.dim
    A, D, M, Va = _augmented_filter(model, channels, template)
    _, blocks = _covariance_grid(A, D, M, dt, n_steps)
    # means step in the frame where the amplitude is constant: Euler for
    # x, as in the simulator, the exact rotation R for z, and each gain
    # applied before that rotation (E = diag(I, R))
    R = expm(template.W * dt)
    E = np.eye(A.shape[0])
    E[d:, d:] = R
    P = E + A * dt
    P[d:, d:] = R
    S = np.array([ch.s for ch in channels]).reshape(n_ch, d)
    S = np.pad(S, ((0, 0), (0, len(R))))
    SK = S.T * [4 * ch.k * ch.eta for ch in channels]
    G = np.empty((n_steps, len(A), n_ch))  # G[n] = E Va_n S^T diag(4 k eta)
    for n0, Vs in blocks(Va):
        # step n's gain uses Va_n: the block's start, then all rows but its last
        G[n0:n0 + len(Vs)] = E @ np.concatenate([Va[None], Vs[:-1]]) @ SK
        Va = Vs[-1]
    u = _amplitude_readout(template, n_steps * dt)
    V_FF = u @ Va[d:, d:] @ u
    information = _information(V_FF)
    r = np.concatenate([np.zeros(d), u * (1.0 / V_FF) / information])
    w = np.empty((n_steps, n_ch))
    for n in range(n_steps - 1, -1, -1):
        w[n] = r @ G[n]
        r = r @ P - dt * (w[n] @ S)
    amplitude = records.reshape(n_traj, n_steps * n_ch) @ w.ravel()
    return ForceEstimate(amplitude, 1.0 / math.sqrt(information), information)
