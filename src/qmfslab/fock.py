"""Dense truncated-Fock brute-force oracle.

Everything here is deliberately unsophisticated: dense matrices, exact
eigendecomposition, explicit commutators.  The point is to provide an
independent ground truth for the linear phase-space engine and the
classical-flow correspondence, with truncation as the only error
source.

Every product-space operator is a Kronecker product of single-mode
(n_levels x n_levels) factors, mode 0 first, formed by one helper: an
operator on one mode is its factor there and the identity elsewhere.
Products of operators on one mode are taken on the factors, so no
dim x dim product is needed to build them.

The Koopman-style Hamiltonian

    H = (1/2) sum_j (P_j f_j + f_j P_j + Phi_j g_j + g_j Phi_j) + h

with f, g, h polynomials in the mutually commuting set (Q, Pi) drives
dQ_j/dt = f_j(Q, Pi), dPi_j/dt = -g_j(Q, Pi): the (Q, Pi) observables
evolve under any chosen classical dynamics while commuting with each
other at all times.  Mode layout for M pairs on 2 M modes: mode j
carries (Q_j, P_j) and mode M + j carries (Phi_j, Pi_j), so
``build_quadrature_ops(spec)[j]`` is (Q_j, P_j) and ``[M + j]`` is
(Phi_j, Pi_j).  Q and Pi live on different modes, which is what makes
them commute.  The polynomials are plain term tuples (``poly1``,
``PolyKoopman``), the same ones ``koopman.ClassicalFlow`` integrates;
they are built in code and have no file format.

H is complex in general, but a reversible flow makes it real in a
diagonal gauge, and ``commutator_residual`` then diagonalizes a real
symmetric matrix, about 5x faster than a complex Hermitian one at
dim 1024.  In the Fock basis q is real and p imaginary, so complex
conjugation K maps (q, p) -> (q, -p) on every mode; conjugated by
u = i^n (n quanta, a quarter turn of each mode), it becomes
T = u* K u, which maps (q, p) -> (-q, p).  u H u* is real exactly when T
is a symmetry of H.  For the Koopman Hamiltonian T sends
(Q, Phi) -> (-Q, -Phi) with P, Pi and the real coefficients fixed, so it
is a symmetry when the flow is reversible under Q -> -Q: f and h even
in Q, g odd in Q.  The ``koopman`` command's flow dQ/dt = Pi/m + eps Q^2,
dPi/dt = -m w^2 Q is one.  K itself is a symmetry when the flow is
reversible under Pi -> -Pi (f odd and g, h even in Pi), as the linear
flow is; then H is real as built.  ``real_gauge`` tries the two gauges;
a flow with neither symmetry, such as one with a damping Q term in f,
keeps the complex H.

Truncation is trusted only on the low-excitation core: the product
states with fewer than ``core_levels`` quanta in every mode.
``core_mask`` is that set as a boolean mask over the product basis
(flat kron index), and guarded quantities are read on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncationSpec",
    "PolyKoopman",
    "build_quadrature_ops",
    "build_koopman_hamiltonian",
    "oscillator_hamiltonian",
    "HeisenbergPropagator",
    "commutator_residual",
    "real_gauge",
    "core_mask",
    "top_level_population",
    "poly1",
]

# largest product-space dimension n_levels ** n_modes
DIM_CAP = 4096
MAX_DEGREE = 4


@dataclass(frozen=True)
class TruncationSpec:
    """Per-mode truncation N with a trusted low-excitation core.

    Guarded quantities are evaluated on the subspace with fewer than
    ``core_levels`` quanta per mode (default N // 2; see ``core_mask``).
    The dimension N ** n_modes may not exceed ``DIM_CAP``.  A thin band at
    the top of the ladder is not enough: for the coupled Hamiltonians
    built here the truncation defect sits inside a (near-)degenerate
    spectrum and contaminates a depth that grows with N, so the trusted
    region has to be pinned at the bottom of the ladder.  Convergence is
    then demonstrated by growing N at fixed core.
    """

    n_levels: int
    n_modes: int = 2
    core_levels: int = None

    def __post_init__(self):
        if self.n_levels < 2:
            raise ValueError("need at least 2 levels per mode")
        if self.n_modes < 1:
            raise ValueError("need at least 1 mode")
        if self.dim > DIM_CAP:
            raise ValueError(f"total dimension {self.dim} exceeds cap {DIM_CAP}")
        if self.core_levels is None:
            object.__setattr__(self, "core_levels", max(1, self.n_levels // 2))
        if not 1 <= self.core_levels <= self.n_levels:
            raise ValueError("core_levels must be in [1, n_levels]")

    @property
    def dim(self) -> int:
        return self.n_levels**self.n_modes


def _ladder(N: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, N)), 1)


def _kron(factors) -> np.ndarray:
    """Kronecker product of one factor per mode, mode 0 first."""
    return functools.reduce(np.kron, factors)


def _embed(op: np.ndarray, mode: int, spec: TruncationSpec) -> np.ndarray:
    """Single-mode operator on ``mode``, the identity on every other mode."""
    eye = np.eye(spec.n_levels)
    return _kron([op if k == mode else eye for k in range(spec.n_modes)])


def _quadratures(N: int, hbar: float, ref_scale: float):
    """Single-mode (q, p), N x N, at reference scale ``ref_scale``."""
    if ref_scale <= 0:
        raise ValueError("ref_scale must be positive")
    a = _ladder(N)
    q = np.sqrt(hbar / (2 * ref_scale)) * (a + a.T)
    p = 1j * np.sqrt(hbar * ref_scale / 2) * (a.T - a)
    return q, p


def build_quadrature_ops(
    spec: TruncationSpec, hbar: float = 1.0, ref_scale: float = 1.0
):
    """Quadrature pairs (q_i, p_i) on the full product space.

    q = sqrt(hbar / 2 w~) (a + a+), p = i sqrt(hbar w~ / 2) (a+ - a) with
    reference scale w~ = ``ref_scale``.  The truncation defect of
    [q, p] = i hbar is confined to the top level of each ladder.
    """
    q1, p1 = _quadratures(spec.n_levels, hbar, ref_scale)
    return [
        (_embed(q1, k, spec), _embed(p1, k, spec)) for k in range(spec.n_modes)
    ]


@dataclass(frozen=True)
class PolyKoopman:
    """Polynomial classical dynamics for M (Q, Pi) pairs.

    Each polynomial is a tuple of terms ((a, b), coef) with exponent
    tuples a, b of length M: the monomial prod_j Q_j^a_j Pi_j^b_j.
    ``f`` and ``g`` hold one polynomial per pair; ``h`` is a single
    polynomial.  Total degree is capped at ``MAX_DEGREE``.
    """

    M: int
    f: tuple
    g: tuple
    h: tuple = ()

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if len(self.f) != self.M or len(self.g) != self.M:
            raise ValueError("need one f and one g polynomial per pair")
        for poly in tuple(self.f) + tuple(self.g) + (self.h,):
            for (a, b), coef in poly:
                if len(a) != self.M or len(b) != self.M:
                    raise ValueError("exponent tuples must have length M")
                if sum(a) + sum(b) > MAX_DEGREE:
                    raise ValueError("polynomial degree exceeds cap")
                if not np.isfinite(coef):
                    raise ValueError("coefficients must be finite")


def poly1(*terms) -> tuple:
    """Convenience constructor for an M = 1 polynomial: poly1((a, b, coef), ...)."""
    return tuple((((int(a),), (int(b),)), float(c)) for a, b, c in terms)


def build_koopman_hamiltonian(
    pk: PolyKoopman,
    spec: TruncationSpec,
    hbar: float = 1.0,
    ref_scale: float = 1.0,
):
    """Dense Hamiltonian H and the commuting observables it is checked on.

    Returns ``(H, {"Q": [Q_j], "Pi": [Pi_j]})`` for j < M; ``spec`` must
    have 2 M modes (layout in the module docstring).  P_j and Phi_j
    enter H only through single-mode factors and are not returned; take
    them from ``build_quadrature_ops`` by mode.

    Every operator in H acts on one mode, so each term is a Kronecker
    product of single-mode (n_levels x n_levels) factors: a monomial
    prod_j Q_j^a_j Pi_j^b_j has factor q^a_j on mode j and p^b_j on mode
    M + j, and P_j (Phi_j) multiplies the factor of mode j (M + j) from
    the left or from the right.  H is still summed term by term, once
    for each of P f, f P, Phi g and g Phi, so the Hermiticity check below
    still catches an ordering defect.
    """
    if spec.n_modes != 2 * pk.M:
        raise ValueError(
            f"need {2 * pk.M} modes for M={pk.M} pairs, spec has {spec.n_modes}"
        )
    q, p = _quadratures(spec.n_levels, hbar, ref_scale)
    power = np.linalg.matrix_power

    def monomials(poly):
        """(coef, one factor per mode) for each monomial of ``poly``."""
        for (ea, eb), coef in poly:
            yield coef, [power(q, k) for k in ea] + [power(p, k) for k in eb]

    def scaled(coef, factors):
        """coef times the Kronecker product, scaled on the first factor."""
        return _kron([coef * factors[0]] + factors[1:])

    dim = spec.dim
    H = np.zeros((dim, dim), dtype=complex)
    for j in range(pk.M):
        # P_j f_j + f_j P_j on mode j, Phi_j g_j + g_j Phi_j on mode M + j
        for poly, mode, op in ((pk.f[j], j, p), (pk.g[j], pk.M + j, q)):
            for coef, factors in monomials(poly):
                inner = factors[mode]
                for side in (op @ inner, inner @ op):
                    factors[mode] = side
                    H += scaled(0.5 * coef, factors)
    for coef, factors in monomials(pk.h):
        H += scaled(coef, factors)
    defect = np.linalg.norm(H - H.conj().T)
    scale = max(np.linalg.norm(H), 1.0)
    if defect > 1e-12 * scale:
        raise ValueError(
            f"Hamiltonian not Hermitian (defect {defect:.3g}); ordering bug"
        )
    H = (H + H.conj().T) / 2
    observables = {
        "Q": [_embed(q, j, spec) for j in range(pk.M)],
        "Pi": [_embed(p, pk.M + j, spec) for j in range(pk.M)],
    }
    return H, observables


def oscillator_hamiltonian(
    spec: TruncationSpec,
    m: float,
    omega: float,
    hbar: float = 1.0,
    mode: int = 0,
) -> np.ndarray:
    """H = p^2/2m + m w^2 q^2/2 on one mode (m < 0 inverts the ladder).

    Formed on the single-mode factors, then embedded.
    """
    if m == 0 or omega <= 0:
        raise ValueError("need m != 0 and omega > 0")
    q, p = _quadratures(spec.n_levels, hbar, ref_scale=abs(m) * omega)
    return _embed(p @ p / (2 * m) + 0.5 * m * omega**2 * (q @ q), mode, spec)


class HeisenbergPropagator:
    """Caches the eigendecomposition H = V diag(E) V+ for repeated
    evaluations at many times: operators O(t), their kept rows, and
    states psi(t).

    With ``phases`` u (a unit-modulus diagonal, see ``real_gauge``) the
    matrix passed in is the gauged u H u*, whose eigenvectors V~ give
    V = diag(u*) V~; the phases are applied once, here.
    """

    def __init__(self, H: np.ndarray, hbar: float = 1.0, phases=None):
        self.hbar = hbar
        self.energies, self.vectors = np.linalg.eigh(H)
        if phases is not None:
            self.vectors = phases.conj()[:, None] * self.vectors

    def _phase(self, t: float) -> np.ndarray:
        return np.exp(1j * self.energies * t / self.hbar)

    def evolve(self, O: np.ndarray, t: float) -> np.ndarray:
        """O(t) = exp(iHt/hbar) O exp(-iHt/hbar)."""
        V = self.vectors
        phase = self._phase(t)
        Otil = V.conj().T @ O @ V
        return V @ (Otil * np.outer(phase, phase.conj())) @ V.conj().T

    def evolve_rows(self, O: np.ndarray, t: float, keep) -> np.ndarray:
        """Rows ``keep`` of O(t), from thin k x dim products only.

        With W = (V[keep] phase) V+ the rows are ((W O) V phase*) V+, so
        the cost is four k x dim by dim x dim products instead of the
        full dim^3 conjugation.
        """
        V = self.vectors
        Vh = V.conj().T
        phase = self._phase(t)
        W = (V[keep, :] * phase) @ Vh
        return ((W @ O) @ V * phase.conj()) @ Vh

    def evolve_state(self, psi: np.ndarray, t: float) -> np.ndarray:
        """psi(t) = exp(-iHt/hbar) psi."""
        V = self.vectors
        phase = np.exp(-1j * self.energies * t / self.hbar)
        return V @ (phase * (V.conj().T @ psi))


def core_mask(spec: TruncationSpec) -> np.ndarray:
    """Boolean mask of the trusted core over the product basis: the
    states with fewer than ``core_levels`` quanta in every mode."""
    single = np.arange(spec.n_levels) < spec.core_levels
    return _kron([single] * spec.n_modes)


def top_level_population(state: np.ndarray, spec: TruncationSpec) -> float:
    """Population of ``state`` outside the trusted core."""
    return float(np.sum(np.abs(state[~core_mask(spec)]) ** 2))


def real_gauge(H: np.ndarray, spec: TruncationSpec):
    """``(Ht, u)`` with Ht = u H u* exactly real, for the first diagonal
    gauge u that makes it so, else ``(H, None)``.

    The gauges tried are u = 1 (returned as ``None``) and u = i^n with n
    the total number of quanta, the one that makes a reversible flow's H
    real (module docstring).  Both are diagonal in the product basis, so
    they commute with ``core_mask``.  Ht is read off ``H.real`` and
    ``H.imag`` entry by entry, so it is exact, no complex copy of H is
    made, and a zero imaginary part means exactly zero.
    """
    if not H.imag.any():
        return H.real, None
    quanta = functools.reduce(
        np.add.outer, [np.arange(spec.n_levels)] * spec.n_modes
    ).ravel()
    turns = (quanta % 4).astype(np.int8)
    u = 1j**turns
    d = (turns[:, None] - turns) % 4  # u_m u_n* = i^d
    # i^d H has real part H.real, -H.imag, -H.real, H.imag for d = 0..3
    # and imaginary part H.imag, H.real, -H.imag, -H.real
    even = d % 2 == 0
    if np.any(H.imag, where=even) or np.any(H.real, where=~even):
        return H, None
    Ht = H.real + H.imag  # one of the two is exactly zero at each entry
    np.negative(Ht, out=Ht, where=(d == 1) | (d == 2))
    return Ht, u


def commutator_residual(
    H: np.ndarray,
    O_set,
    t_grid,
    spec: TruncationSpec,
    hbar: float = 1.0,
) -> float:
    """Max spectral norm of [O_j(t), O_k(t')] on the trusted core, over
    all pairs and grid times.

    For Hermitian evolved operators A, B the core block of AB - BA only
    needs the kept rows R = A[keep, :]: it equals R_A R_B+ - R_B R_A+.  The rows come from
    ``HeisenbergPropagator.evolve_rows``: thin (kept rows) x dim
    products with the one eigendecomposition of H, never a full
    dim x dim conjugation of O.  When ``real_gauge`` makes H real, that
    eigendecomposition is a real symmetric one; otherwise it is complex
    Hermitian.  The two agree to rounding, but the residual of a
    converged oracle is a near-cancellation: it moves by ~1e-7 relative
    with the eigensolver and the BLAS thread count, so the ``koopman``
    command's ``summary.json`` reproduces to 1e-6 relative in
    ``oracle_residual``, not byte for byte.
    """
    # checked before the eigendecomposition exists, so the check's
    # dim x dim temporaries do not add to its memory
    for O in O_set:
        defect = np.linalg.norm(O - O.conj().T)
        if defect > 1e-10 * max(1.0, np.linalg.norm(O)):
            raise ValueError("observables must be Hermitian")
    Ht, phases = real_gauge(H, spec)
    prop = HeisenbergPropagator(Ht, hbar, phases)
    del Ht  # the propagator keeps V only; free the gauged copy of H
    keep = core_mask(spec)
    rows = [prop.evolve_rows(O, t, keep) for O in O_set for t in t_grid]

    worst = 0.0
    for i, RA in enumerate(rows):
        for RB in rows[i:]:
            C = RA @ RB.conj().T - RB @ RA.conj().T
            worst = max(worst, float(np.linalg.norm(C, 2)))
    return worst
