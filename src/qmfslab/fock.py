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

The same reversibility halves the eigenproblem.  The parity
S_j = (-1)^(n_j) of mode j maps (q_j, p_j) -> (-q_j, -p_j) and fixes
every other mode.  For the Koopman Hamiltonian of one pair, S_0 flips
(Q, P), so S_0 H S_0 = -H exactly when f is even in Q and g and h are
odd in Q: the Q -> -Q, t -> -t reversibility above (h = 0 in the
``koopman`` command).  Then H only couples states of opposite n_0
parity, H = [[0, B], [B+, 0]] between the two classes, and S_0 maps an
eigenvector at E to one at -E, so the spectrum is +-E.  Truncation keeps
this exactly, since q and p change n by one.  ``chiral_parity`` finds
the first such mode, mode 0 first, by reading off that H has no entry
inside either class, and ``HeisenbergPropagator`` then takes the
eigenpairs from one SVD of the coupling block B, half the size of H.
The parity of mode M + j flips (Phi_j, Pi_j) instead, and applies to a
flow odd in Pi through f and even through g (the linear flow has both
parities).  A damping Q term in f breaks every parity, and such a flow
keeps the ``eigh``.

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
    "chiral_parity",
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


def _kron_sum(terms, spec: TruncationSpec) -> np.ndarray:
    """Complex sum of coef * kron(factors) over ``terms``, pairs of a
    coefficient and one factor per mode, in one contraction: each mode's
    factors are stacked over the terms, and one ``einsum`` sums the
    terms with no dim x dim temporary each."""
    N, n = spec.n_levels, spec.n_modes
    # subscripts: 0 for the term, 1 + k (row) and 1 + n + k (column) on mode k
    operands = [np.array([coef for coef, _ in terms]), [0]]
    for k in range(n):
        stack = np.array([factors[k] for _, factors in terms], dtype=complex)
        operands += [stack.reshape(len(terms), N, N), [0, 1 + k, 1 + n + k]]
    H = np.einsum(*operands, list(range(1, 2 * n + 1)), optimize=True)
    return H.reshape(spec.dim, spec.dim)


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
    the left or from the right.  The P f, f P, Phi g and g Phi sides stay
    separate terms, so the Hermiticity check below still catches an
    ordering defect; the terms' factors are stacked per mode and summed
    in one contraction (``_kron_sum``).
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

    terms = []
    for j in range(pk.M):
        # P_j f_j + f_j P_j on mode j, Phi_j g_j + g_j Phi_j on mode M + j
        for poly, mode, op in ((pk.f[j], j, p), (pk.g[j], pk.M + j, q)):
            for coef, factors in monomials(poly):
                inner = factors[mode]
                for side in (op @ inner, inner @ op):
                    sided = list(factors)
                    sided[mode] = side
                    terms.append((0.5 * coef, sided))
    terms += monomials(pk.h)
    H = _kron_sum(terms, spec)
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

    With ``parity``, the boolean mask of the odd class of a parity S that
    anticommutes with H (see ``chiral_parity``), H = [[0, B], [B+, 0]]
    between the even and odd classes and one SVD B = U diag(s) W+ of the
    coupling block replaces the ``eigh``: each singular triple gives the
    eigenpairs (u, +w) / sqrt 2 at +s and (u, -w) / sqrt 2 at -s, and
    the left singular vectors past the odd class's size (the even class
    is larger at an odd level count) are the E = 0 eigenvectors (u, 0)
    (Golub & Kahan, SIAM J. Numer. Anal. B 2, 205, 1965).  Without it
    the propagator runs the plain ``eigh``.
    """

    def __init__(self, H: np.ndarray, hbar: float = 1.0, phases=None,
                 parity=None):
        self.hbar = hbar
        if parity is None:
            self.energies, self.vectors = np.linalg.eigh(H)
        else:
            self.energies, self.vectors = _chiral_eigh(H, parity)
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

    def evolve_rows(self, O: np.ndarray, t_grid, keep) -> np.ndarray:
        """Rows ``keep`` of O(t) at every t of ``t_grid``, as an array of
        shape (len(t_grid), k, dim), from thin products only.

        With A_t = V[keep] phase(t) the rows are
        (((A_t V+) O) V phase(t)*) V+.  The A_t of all times are stacked,
        so each of the four stages is one (len(t_grid) k) x dim by
        dim x dim product instead of one per time, and a product X V+ is
        formed as (V X+)+, so no dim x dim copy of V+ is made.
        """
        V = self.vectors
        Vk = V[keep, :]
        k, dim = Vk.shape
        phase = np.exp(1j * np.outer(t_grid, self.energies) / self.hbar)
        A = (Vk * phase[:, None, :]).reshape(-1, dim)
        W = (V @ A.conj().T).conj().T
        X = ((W @ O) @ V).reshape(-1, k, dim) * phase.conj()[:, None, :]
        rows = (V @ X.reshape(-1, dim).conj().T).conj().T
        return rows.reshape(-1, k, dim)

    def evolve_state(self, psi: np.ndarray, t: float) -> np.ndarray:
        """psi(t) = exp(-iHt/hbar) psi."""
        V = self.vectors
        phase = np.exp(-1j * self.energies * t / self.hbar)
        return V @ (phase * (V.conj().T @ psi))


def _chiral_eigh(H: np.ndarray, odd: np.ndarray):
    """Energies and eigenvectors of H = [[0, B], [B+, 0]] between the
    classes ``~odd`` and ``odd`` from one full SVD of B (see
    ``HeisenbergPropagator``)."""
    even = ~odd
    U, s, Wh = np.linalg.svd(H[np.ix_(even, odd)])
    k = s.size  # the odd class's size; U has one column per even state
    half = np.sqrt(0.5)
    V = np.zeros(H.shape, dtype=U.dtype)
    V[even, :k] = V[even, k : 2 * k] = half * U[:, :k]
    V[even, 2 * k :] = U[:, k:]
    W = Wh.conj().T
    V[odd, :k] = half * W
    V[odd, k : 2 * k] = -half * W
    energies = np.concatenate([s, -s, np.zeros(U.shape[1] - k)])
    return energies, V


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


def chiral_parity(H: np.ndarray, spec: TruncationSpec):
    """Mask of the odd class of the first mode parity S_j = (-1)^(n_j),
    mode 0 first, that anticommutes with H, else ``None``.

    S_j anticommutes with H exactly when every entry of H between two
    states of equal n_j parity is zero; that is read off H itself, so a
    zero means exactly zero.  The mask selects the states with n_j odd.
    """
    odd_level = np.arange(spec.n_levels) % 2 == 1
    every_level = np.ones(spec.n_levels, dtype=bool)
    for j in range(spec.n_modes):
        odd = _kron([odd_level if k == j else every_level
                     for k in range(spec.n_modes)])
        if not np.any(H, where=odd[:, None] == odd):
            return odd
    return None


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
    needs the kept rows R = A[keep, :]: it equals
    R_A R_B+ - R_B R_A+.  The rows come from
    ``HeisenbergPropagator.evolve_rows``, once per observable for the
    whole time grid: thin (kept rows x times) x dim products with the
    one eigendecomposition of H, never a full dim x dim conjugation of
    O.  When ``real_gauge`` makes H real, that eigendecomposition is a
    real one; otherwise it is complex Hermitian.  When ``chiral_parity``
    finds a mode parity that anticommutes with H, it is one SVD of the
    coupling block between the parity classes; otherwise an ``eigh``.
    All agree to rounding, but the residual of a converged oracle is a
    near-cancellation: it moves by ~1e-7 relative with the eigensolver
    and the BLAS thread count, so the ``koopman`` command's
    ``summary.json`` reproduces to 1e-6 relative in ``oracle_residual``,
    not byte for byte.
    """
    # checked before the eigendecomposition exists, so the check's
    # dim x dim temporaries do not add to its memory
    for O in O_set:
        defect = np.linalg.norm(O - O.conj().T)
        if defect > 1e-10 * max(1.0, np.linalg.norm(O)):
            raise ValueError("observables must be Hermitian")
    Ht, phases = real_gauge(H, spec)
    prop = HeisenbergPropagator(Ht, hbar, phases, chiral_parity(Ht, spec))
    del Ht  # the propagator keeps V only; free the gauged copy of H
    keep = core_mask(spec)
    rows = [R for O in O_set for R in prop.evolve_rows(O, t_grid, keep)]

    worst = 0.0
    for i, RA in enumerate(rows):
        for RB in rows[i:]:
            C = RA @ RB.conj().T - RB @ RA.conj().T
            worst = max(worst, float(np.linalg.norm(C, 2)))
    return worst
