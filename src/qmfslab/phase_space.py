"""Symplectic linear-system core.

Phase-space ordering is x = (q1, p1, q2, p2, ...).  Canonical commutators
are encoded by the symplectic form Omega, [x_i, x_j] = i*hbar*Omega_ij,
with Omega block-diagonal [[0, 1], [-1, 0]] per mode.  A quadratic
Hamiltonian H = x^T G x / 2 generates the drift A = Omega @ G, the
Heisenberg flow x(t) = Phi(t) x(0) with Phi(t) = expm(A t).

For linear observables O_j = s_j . x the two-time commutator is the
c-number matrix

    K(t, t') = i*hbar * S Phi(t) Omega Phi(t')^T S^T,

and a set of observables is a dynamically closed, back-action-free
("quantum-mechanics-free") subsystem exactly when K vanishes for all
times.  By Cayley-Hamilton this reduces to the finite algebraic test
S A^i Omega (A^T)^j S^T = 0 for 0 <= i, j <= 2n-1, which is what
``is_qmfs`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearModel",
    "ObservableSet",
    "QmfsVerdict",
    "expm",
    "symplectic_form",
    "build_drift",
    "transfer_matrix",
    "trusted_horizon",
    "two_time_commutator",
    "commutator_from_propagators",
    "is_qmfs",
]

# expm(A t) is trusted (rel err <= 1e-12) only up to this norm; larger
# arguments are rejected rather than silently degraded.
MAX_EXPM_NORM = 50.0

# Diagonal Pade approximants r_m of exp for m = 3, 5, 7, 9, 13: the
# coefficients b_0..b_m, and theta_m, the largest 1-norm at which r_m
# has backward error <= 2^-53 (Higham, SIAM J. Matrix Anal. Appl. 26,
# 1179, 2005).
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
        56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
        30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}
_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                   9.504178996162932e-1, 2.097847961257068e0,
                   5.371920351148152e0])
_DEGREES = tuple(_PADE)  # 3, 5, 7, 9, 13, in the order of _THETA


def _pade(A: np.ndarray, m: int) -> np.ndarray:
    """r_m(A) = (V - U)^-1 (V + U) for a stack A, U odd and V even in A."""
    b = _PADE[m]
    ident = np.eye(A.shape[-1], dtype=A.dtype)
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    else:
        powers = [A2]  # A^2, A^4, ..., A^(m-1)
        while len(powers) < m // 2:
            powers.append(powers[-1] @ A2)
        U = A @ (b[1] * ident + sum(b[2 * j + 1] * P
                                    for j, P in enumerate(powers, 1)))
        V = b[0] * ident + sum(b[2 * j] * P for j, P in enumerate(powers, 1))
    return np.linalg.solve(V - U, V + U)


def expm(A) -> np.ndarray:
    """Matrix exponential of A (n, n), or of each matrix of a stack (..., n, n).

    Scaling and squaring (Higham 2005): each matrix X takes the lowest
    Pade degree m in (3, 5, 7, 9, 13) with ||X||_1 <= theta_m, or m = 13
    on X / 2^s with s = ceil(log2(||X||_1 / theta_13)) squared s times.
    Degree and s are chosen per matrix, so a small matrix stacked with a
    large one is not over-squared.  Real input gives a real result,
    complex input a complex one; the zero matrix gives the identity
    exactly.
    """
    A = np.asarray(A)
    A = A.astype(np.result_type(A.dtype, float), copy=False)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expm needs square matrices, got shape {A.shape}")
    shape = A.shape
    A = A.reshape((-1,) + shape[-2:])
    norms = np.abs(A).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.all(np.isfinite(norms)):
        raise ValueError("expm of a matrix with non-finite entries")
    degree = np.minimum(np.searchsorted(_THETA, norms), len(_THETA) - 1)
    squarings = np.zeros(len(A), dtype=int)
    big = norms > _THETA[-1]
    squarings[big] = np.ceil(np.log2(norms[big] / _THETA[-1]))
    out = np.empty_like(A)
    for i in set(degree.tolist()):
        sel = degree == i
        scale = np.ldexp(1.0, -squarings[sel])[:, None, None]
        out[sel] = _pade(A[sel] * scale, _DEGREES[i])
    for k in range(squarings.max(initial=0)):
        sel = squarings > k
        out[sel] = out[sel] @ out[sel]
    return out.reshape(shape)


def _check_finite(**params):
    """Reject a non-finite parameter, naming it and, in an array, the
    index of its first non-finite entry."""
    for name, value in params.items():
        value = np.asarray(value, dtype=float)
        if not np.isfinite(value).all():
            bad = np.argwhere(~np.isfinite(value))[0]
            at = f" at entry {bad.tolist()}" if value.ndim else ""
            raise ValueError(f"{name} must be finite, got "
                             f"{float(value[tuple(bad)])!r}{at}")


def _check_square(**params):
    """Reject a parameter whose square overflows a float (x**2 would
    raise OverflowError), naming it."""
    for name, value in params.items():
        if not math.isfinite(float(value) * float(value)):
            raise ValueError(f"{name} is too large: {name}**2 overflows a "
                             f"float, got {float(value)!r}")


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for ordering (q1, p1, q2, p2, ...)."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        Omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return Omega


def build_drift(G: np.ndarray, Omega: np.ndarray) -> np.ndarray:
    """Drift matrix A = Omega @ G of the quadratic Hamiltonian x^T G x / 2."""
    G = np.asarray(G, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"G must be square, got shape {G.shape}")
    if Omega.shape != G.shape:
        raise ValueError(f"shape mismatch: G {G.shape} vs Omega {Omega.shape}")
    if not np.array_equal(G, G.T):
        # G is constructed, never measured, so exact symmetry is demanded.
        raise ValueError("G must be exactly symmetric")
    return Omega @ G


@dataclass(frozen=True)
class LinearModel:
    """Linear phase-space model with quadratic Hamiltonian and force ports."""

    n_modes: int
    hbar: float = 1.0
    G: np.ndarray = None
    force_couplings: tuple = ()

    Omega: np.ndarray = field(init=False, repr=False)
    A: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(
                f"hbar must be finite and positive, got {float(self.hbar)!r}")
        d = 2 * self.n_modes
        G = np.zeros((d, d)) if self.G is None else np.asarray(self.G, dtype=float)
        if G.shape != (d, d):
            raise ValueError(f"G must be {d}x{d}, got {G.shape}")
        couplings = tuple(np.asarray(b, dtype=float) for b in self.force_couplings)
        for b in couplings:
            if b.shape != (d,):
                raise ValueError(f"force coupling must have length {d}")
        _check_finite(G=G, force_couplings=np.reshape(couplings, (-1, d)))
        Omega = symplectic_form(self.n_modes)
        A = build_drift(G, Omega)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "Omega", Omega)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "force_couplings", couplings)
        for arr in (self.G, self.Omega, self.A) + couplings:
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return 2 * self.n_modes


@dataclass(frozen=True)
class ObservableSet:
    """Rows of S define linear observables s . x, one label per row."""

    S: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.S, dtype=float))
        if S.shape[0] < 1:
            raise ValueError("at least one observable row required")
        _check_finite(observables=S)
        norms = np.linalg.norm(S, axis=1)
        if np.any(norms == 0):
            raise ValueError("observable rows must be nonzero")
        labels = tuple(self.labels) if self.labels else tuple(
            f"O{i}" for i in range(S.shape[0])
        )
        if len(labels) != S.shape[0]:
            raise ValueError("one label per row required")
        S.setflags(write=False)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "labels", labels)


def trusted_horizon(model: LinearModel) -> float:
    """The time MAX_EXPM_NORM / ||A||_2, where ``transfer_matrix``'s
    guard ||A||_2 |t| <= MAX_EXPM_NORM stops (inf when A = 0), as a
    number that the guard accepts.

    The quotient alone is not enough: times ||A||_2 again it rounds above
    the bound for about 6 % of norms.  Then it is stepped down by one ulp
    at a time until the guard's own product accepts it.
    """
    norm_A = float(np.linalg.norm(model.A, 2))
    if norm_A == 0.0:
        return math.inf
    t = MAX_EXPM_NORM / norm_A
    while norm_A * t > MAX_EXPM_NORM:
        t = math.nextafter(t, 0.0)
    return t


def transfer_matrix(model: LinearModel, t) -> np.ndarray:
    """Propagator Phi(t) = expm(A t); exact identity at t = 0.

    ``t`` may be an array of times: the result is then the stack of
    shape t.shape + (d, d) from one ``expm`` call, each matrix equal bit
    for bit to the call at that time alone.  The guard ||A||_2 |t| <=
    MAX_EXPM_NORM is checked once, on the largest |t|, with ||A||_2 taken
    once; ``trusted_horizon`` gives the time where it stops.
    """
    _check_finite(t=t)
    t = np.asarray(t, dtype=float)
    norm_At = (float(np.linalg.norm(model.A, 2))
               * float(np.max(np.abs(t), initial=0.0)))
    if norm_At > MAX_EXPM_NORM:
        raise ValueError(
            f"||A t|| = {norm_At:.3g} exceeds the trusted expm bound "
            f"{MAX_EXPM_NORM}"
        )
    Phi = expm(model.A * t[..., None, None])
    Phi[t == 0.0] = np.eye(model.dim)
    return Phi


def two_time_commutator(
    model: LinearModel, obs: ObservableSet, t: float, t_prime: float
) -> np.ndarray:
    """Exact c-number commutator matrix K_jk = [O_j(t), O_k(t')]."""
    return commutator_from_propagators(
        model, obs, transfer_matrix(model, t), transfer_matrix(model, t_prime)
    )


def commutator_from_propagators(
    model: LinearModel, obs: ObservableSet, Phi_t: np.ndarray, Phi_tp: np.ndarray
) -> np.ndarray:
    """K(t, t') from precomputed Phi(t) and Phi(t').

    A time grid then needs one ``transfer_matrix`` per grid time, shared
    by every pair of times and every observable set of the model.  Stacks
    of propagators broadcast over their leading axes: Phi_t of shape
    (n, 1, d, d) and Phi_tp of shape (1, n, d, d) give K on the whole
    n x n grid.  The product is formed left to right either way, so a
    grid entry takes the same products in the same order as one pair.
    """
    S = obs.S
    Phi_tp_T = np.swapaxes(Phi_tp, -1, -2)
    return 1j * model.hbar * (S @ Phi_t @ model.Omega @ Phi_tp_T @ S.T)


@dataclass(frozen=True)
class QmfsVerdict:
    """Outcome of the algebraic commutation test, with failure witness."""

    is_qmfs: bool
    max_residual: float
    witness: tuple = None  # (i, j, row, col) of the largest scaled residual

    def __bool__(self) -> bool:
        return self.is_qmfs


def is_qmfs(model: LinearModel, obs: ObservableSet, tol: float = 1e-12) -> QmfsVerdict:
    """Exact algebraic QMFS test.

    The observables commute at all pairs of times iff
    S A^i Omega (A^T)^j S^T = 0 for all 0 <= i, j <= 2n-1: expanding
    Phi(t) = expm(A t) in powers of A, Cayley-Hamilton closes the series
    on the first 2n powers.  Residuals are scaled by
    ||S||^2 ||A||^(i+j) so the tolerance is dimensionless.
    """
    S = obs.S
    A = model.A
    d = model.dim
    norm_S = np.linalg.norm(S, 2)
    norm_A = np.linalg.norm(A, 2)

    # left[i] = S A^i, built once; the (i, j) residual is
    # left[i] Omega left[j]^T.
    left = [S]
    for _ in range(d - 1):
        left.append(left[-1] @ A)

    worst = 0.0
    witness = None
    for i in range(d):
        for j in range(d):
            R = left[i] @ model.Omega @ left[j].T
            scale = norm_S**2 * max(norm_A, 1.0) ** (i + j)
            scaled = np.abs(R) / scale
            k = np.unravel_index(np.argmax(scaled), scaled.shape)
            if scaled[k] > worst:
                worst = float(scaled[k])
                witness = (i, j, int(k[0]), int(k[1]))
    if worst < tol:
        return QmfsVerdict(True, worst, None)
    return QmfsVerdict(False, worst, witness)
