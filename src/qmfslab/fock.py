"""Dense truncated-Fock brute-force oracle: an independent ground truth
for the linear phase-space engine and the classical-flow correspondence,
from exact eigendecompositions and explicit commutators, with truncation
as the only error source.

Every product-space operator is a ``KronOperator``: a sum of terms, each
a coefficient times a Kronecker product of single-mode
(n_levels x n_levels) factors, mode 0 first, with ``None`` for the
identity.  Products of operators on one mode are taken on the factors,
and an operator becomes a dim x dim matrix only where a dense
eigendecomposition needs one (``KronOperator.dense``).

The Koopman-style Hamiltonian

    H = (1/2) (P f + f P + Phi g + g Phi)

with f, g polynomials in the commuting pair (Q, Pi) drives
dQ/dt = f(Q, Pi), dPi/dt = -g(Q, Pi): the (Q, Pi) observables evolve
under any chosen classical dynamics while commuting with each other at
all times.  One pair lives on 2 modes: mode 0 carries (Q, P) and mode 1
carries (Phi, Pi), each pair the single-mode quadratures (q, p) of that
mode.  Q and Pi live on different modes, which is what makes them
commute.  A polynomial is a tuple of terms (a, b, coef), each the
monomial coef Q^a Pi^b, the same tuples ``koopman.ClassicalFlow``
integrates; they are built in code and have no file format.

The oracle works in natural units, hbar = 1, with one representation on
every mode: q = i (a+ - a) / sqrt 2 and p = -(a + a+) / sqrt 2, the
usual pair turned a quarter by i^n.  A flow of another scale is passed
in them: ``koopman`` builds its flow of mass m and frequency omega for
Q~ = a Q and Pi~ = Pi / a with a = sqrt(|m| omega), so one fixed
tolerance serves every m and omega.

In the Fock basis q = i X with X real, and p is real.  Every factor
the oracle builds is real: each q's i goes into its term's coefficient,
i^a for Q^a in the P f + f P terms and one more for Phi, the q of mode
1, in the Phi g + g Phi terms.  H is then real exactly when all its
coefficients are, that is when f is even in Q and g odd in Q, the
flows reversible under Q -> -Q, t -> -t, and its dense form and
eigenvectors are real with it.  The ``koopman`` command's flow
dQ/dt = Pi/m + eps Q^2, dPi/dt = -m w^2 Q is one, and so are the
linear and the Duffing flows.  A flow with a damping Q term in f keeps
the complex H.

The same reversibility halves the eigenproblem.  The parity
S = (-1)^(n_0) of mode 0 maps (Q, P) -> (-Q, -P) and fixes mode 1, so
S H S = -H exactly when every term's factor on mode 0 holds an odd
number of quadratures: f even in Q and g odd in Q again.  Then H only
couples states of opposite n_0 parity, H = [[0, B], [B+, 0]] between
the two classes, and S maps an eigenvector at E to one at -E, so the
spectrum is +-E.  Truncation keeps this exactly, since q and p change
n by one.  ``HeisenbergPropagator`` then forms only the two coupling
blocks B = H[even, odd] and C = H[odd, even], each from the terms with
the mode-0 factor sliced, and takes the eigenpairs from one SVD of
their Hermitian part, half the size of H.  Without the parity it forms
the dense H and keeps the ``eigh``; its eigenvectors V are held by the
same basis class, as U = V with an empty odd class.

The parity is the one decision read on the factors (``chiral_parity``),
so a zero is exactly zero, but it is term by term: terms that cancel
only in their sum are not seen, and such an H takes the slower path
that does not need the symmetry.  The propagator's one product,
``evolve_rows``, is what ``commutator_residual`` reads: kept rows of the
evolved observables.

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
    "KronOperator",
    "build_koopman_hamiltonian",
    "HeisenbergPropagator",
    "commutator_residual",
    "chiral_parity",
    "core_mask",
    "top_level_population",
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


@dataclass(frozen=True, eq=False)
class KronOperator:
    """sum_t coef_t kron(F_t0, ..., F_t(n-1)) on the product space of
    ``spec``.

    ``terms`` holds pairs (coef, factors), one N x N factor per mode,
    mode 0 first, ``None`` for the identity.
    """

    spec: TruncationSpec
    terms: tuple

    @classmethod
    def on_mode(cls, op: np.ndarray, mode: int,
                spec: TruncationSpec) -> "KronOperator":
        """``op`` on ``mode``, the identity on every other mode."""
        factors = tuple(op if k == mode else None for k in range(spec.n_modes))
        return cls(spec, ((1.0, factors),))

    def dense(self) -> np.ndarray:
        """The dim x dim matrix."""
        return _kron_sum(self.terms, self.spec.n_levels)

    def frobenius_bound(self) -> float:
        """sum_t |coef_t| prod_k ||F_tk||_F >= the Frobenius norm, from
        the factors (sqrt N for the identity), ``inf`` with no warning."""
        identity = np.sqrt(self.spec.n_levels)
        return sum(abs(complex(coef)) * float(np.prod(
            [identity if F is None else np.linalg.norm(F) for F in factors]))
            for coef, factors in self.terms)


def _ladder(N: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, N)), 1)


def _kron(factors) -> np.ndarray:
    """Kronecker product of one factor per mode, mode 0 first."""
    return functools.reduce(np.kron, factors)


def _kron_sum(terms, N: int) -> np.ndarray:
    """sum coef * kron(factors) over ``terms`` (see ``KronOperator``) in
    one contraction: each mode's factors are stacked over the terms, and
    one ``einsum`` sums the terms with no dim x dim temporary each.  A
    factor may be rectangular (a block of rows and columns of that mode);
    the result is real when every coefficient and factor is."""
    n = len(terms[0][1])
    # subscripts: 0 for the term, 1 + k (row) and 1 + n + k (column) on mode k
    operands = [np.array([coef for coef, _ in terms]), [0]]
    rows = cols = 1
    for k in range(n):
        stack = np.array([np.eye(N) if f[k] is None else f[k]
                          for _, f in terms])
        rows, cols = rows * stack.shape[1], cols * stack.shape[2]
        operands += [stack, [0, 1 + k, 1 + n + k]]
    H = np.einsum(*operands, list(range(1, 2 * n + 1)), optimize=True)
    return H.reshape(rows, cols)


def _frobenius(terms, N: int) -> float:
    """Frobenius norm of sum coef * kron(factors) from the factors' inner
    products <X, Y> = tr(X Y+), with no dim x dim matrix."""

    def inner(X, Y):
        if X is None:
            return N if Y is None else np.conj(np.trace(Y))
        return np.trace(X) if Y is None else np.vdot(Y, X)

    total = sum(a * np.conj(b) * np.prod([inner(X, Y) for X, Y in zip(fa, fb)])
                for a, fa in terms for b, fb in terms)
    return float(np.sqrt(max(np.real(total), 0.0)))


def _quadratures(N: int):
    """The real pair (X, p), N x N, of the single-mode quadratures in
    natural units: q = i X with X = (a+ - a) / sqrt 2, and
    p = -(a + a+) / sqrt 2.

    The truncation defect of [q, p] = i is confined to the top level of
    the ladder.
    """
    a = _ladder(N)
    return np.sqrt(0.5) * (a.T - a), -np.sqrt(0.5) * (a + a.T)


# i^k, exactly, and a real float where it is real
_I_POWERS = (1.0, 1j, -1.0, -1j)


def build_koopman_hamiltonian(f, g, spec: TruncationSpec):
    """H of the flow dQ/dt = f, dPi/dt = -g and the commuting pair it is
    checked on: ``(H, Q, Pi)``, all ``KronOperator``s on the 2 modes of
    ``spec`` (layout in the module docstring).

    ``f`` and ``g`` are tuples of terms (a, b, coef); total degree is
    capped at ``MAX_DEGREE``.  P and Phi enter H only through
    single-mode factors, the real pair (X, p) of ``_quadratures``.  A
    monomial coef Q^a Pi^b has factor X^a on mode 0 and p^b on mode 1,
    with i^a in its coefficient, and P (Phi = i X) multiplies the factor
    of mode 0 (1) from the left or from the right.  Every factor is real,
    and Q is the one term i X on mode 0.  The P f, f P, Phi g and g Phi
    sides stay separate terms, so the propagator's Hermiticity check
    still catches an ordering defect.  No dim x dim matrix is formed
    here.
    """
    if spec.n_modes != 2:
        raise ValueError(f"need 2 modes for one (Q, Pi) pair, spec has "
                         f"{spec.n_modes}")
    for a, b, coef in (*f, *g):
        if a + b > MAX_DEGREE:
            raise ValueError("polynomial degree exceeds cap")
        if not np.isfinite(coef):
            raise ValueError("coefficients must be finite")
    X, p = _quadratures(spec.n_levels)
    power = np.linalg.matrix_power
    terms = []
    # P f + f P on mode 0, Phi g + g Phi on mode 1 (Phi = i X, one more i)
    for poly, mode, op, extra in ((f, 0, p, 0), (g, 1, X, 1)):
        for a, b, coef in poly:
            factors = [power(X, a), power(p, b)]
            inner = factors[mode]
            for side in (op @ inner, inner @ op):
                sided = list(factors)
                sided[mode] = side
                terms.append((0.5 * coef * _I_POWERS[(a + extra) % 4],
                              tuple(sided)))
    return (KronOperator(spec, tuple(terms)),
            KronOperator(spec, ((1j, (X, None)),)),
            KronOperator.on_mode(p, 1, spec))


def _check_hermitian(defect: float, scale: float) -> None:
    """Raise unless the Hermiticity defect ||H - H+||_F is at rounding
    level against ||H||_F = ``scale``."""
    if defect > 1e-12 * max(scale, 1.0):
        raise ValueError(
            f"Hamiltonian not Hermitian (defect {defect:.3g}); ordering bug"
        )


class HeisenbergPropagator:
    """H = V diag(E) V+ of a ``KronOperator`` H, kept for ``evolve_rows``,
    with hbar = 1: O(t) = exp(iHt) O exp(-iHt).  A Hamiltonian at another
    hbar is passed as H / hbar.

    The parity is decided on H's factors; a dense H is a one-mode
    operator, ``KronOperator.on_mode(H, 0, TruncationSpec(n, 1))``.  An
    H whose coefficients and factors are all real is diagonalized in
    real arithmetic with no decision made: its blocks or its dense form
    come out real.  With the parity of mode 0 anticommuting with H
    (``chiral_parity``), only the coupling blocks B = H[even, odd] and
    C = H[odd, even] between the even and odd n_0 classes are formed.
    The other two blocks are exactly zero, so ||H - H+||_F is
    sqrt 2 ||C - B+||_F and ||H||_F is (||B||^2 + ||C||^2)^(1/2): the
    same Hermiticity check, at 1e-12 relative, as on the dense H.  One
    SVD (B + C+)/2 = U diag(s) W+ then replaces the ``eigh``: each
    singular triple gives the eigenpairs (u, +w) / sqrt 2 at +s and
    (u, -w) / sqrt 2 at -s, and the left singular vectors past the odd
    class's size (the even class is larger at an odd level count) are
    the E = 0 eigenvectors (u, 0) (Golub & Kahan, SIAM J. Numer. Anal.
    B 2, 205, 1965).  The propagator keeps
    U, s and W, and ``evolve_rows`` applies V and V+ through them
    (``_Basis``): two products of half the width each, about half the
    work of one product with V, and no dim x dim V.

    Without the parity the dense H is checked, symmetrized and
    diagonalized by ``eigh``.  The check and the symmetrization run on
    blocks of columns, in place, so they add no dim x dim temporary to H
    and its eigenvectors.  The same ``_Basis`` holds its V as U = V with
    an empty odd class, so ``evolve_rows`` has one form for both.
    """

    def __init__(self, H: KronOperator):
        if chiral_parity(H):
            self.energies, self._basis = _chiral_eigh(H)
        else:
            self.energies, V = np.linalg.eigh(_symmetrized(H.dense()))
            self._basis = _Basis(V, np.empty((0, 0)),
                                 np.zeros(len(V), dtype=bool))

    def evolve_rows(self, observables, t_grid, keep) -> list:
        """Rows ``keep`` of O(t) = exp(iHt) O exp(-iHt) for each
        O of ``observables`` at every t of ``t_grid``: one array of shape
        (len(t_grid), k, dim) per observable, from thin products only.

        With A_t = V[keep] phase(t) the rows are
        (((A_t V+) O) V phase(t)*) V+.  The first stage A_t V+ does not
        depend on O and is formed once for all observables.  The A_t of
        all times are stacked, so each V stage is one
        (len(t_grid) k) x dim by dim x dim product instead of one per time
        (two of half the width on the chiral path); O is applied term by
        term on its factors, each contracted on its own mode, so no
        dim x dim observable exists.  A real V is multiplied by the real
        and imaginary parts separately, never cast to complex, and a
        complex V's product X V+ is formed as (V X+)+, so no dim x dim
        copy of V is made.
        """
        basis = self._basis
        Vk = basis.rows(keep)
        k, dim = Vk.shape
        phase = np.exp(1j * np.outer(t_grid, self.energies))
        AV = basis.times_adjoint((Vk * phase[:, None, :]).reshape(-1, dim))
        out = []
        for O in observables:
            W = _times_kron(AV, O)
            X = basis.times(W).reshape(-1, k, dim) * phase.conj()[:, None, :]
            out.append(basis.times_adjoint(X.reshape(-1, dim))
                       .reshape(-1, k, dim))
        return out


def _symmetrized(Hd: np.ndarray) -> np.ndarray:
    """(Hd + Hd+)/2 in its lower triangle, the part ``eigh`` reads, after
    the Hermiticity check of ``Hd``; in place, on blocks of an eighth of
    the columns, whose temporaries take about a quarter of Hd."""
    n = len(Hd)
    step = max(1, -(-n // 8))
    defect2 = 0.0
    for c in range(0, n, step):
        D = Hd[:, c:c + step] - Hd[c:c + step].conj().T
        defect2 += float(np.vdot(D, D).real)
    del D
    _check_hermitian(np.sqrt(defect2), np.linalg.norm(Hd))
    for c in range(0, n, step):
        Hd[c:, c:c + step] = (Hd[c:, c:c + step]
                              + Hd[c:c + step, c:].conj().T) / 2
    return Hd


class _Basis:
    """Eigenvectors V of H held as the factors U and W of the SVD
    B = U diag(s) W+ of H = [[0, B], [B+, 0]] between the even and odd
    states (see ``HeisenbergPropagator``).

    Columns of V, in the order of the energies (s, -s, 0): (U_k, W) / sqrt 2,
    (U_k, -W) / sqrt 2 and (U[:, k:], 0) on the (even, odd) states, with U_k
    the first k = len(s) columns of U.  A product with V or V+ is then
    one with U on the even states and one with W on the odd states.  A
    dense V is U = V with no odd state: ``odd`` all False, W of width 0.
    """

    def __init__(self, U: np.ndarray, W: np.ndarray, odd: np.ndarray):
        self.U, self.W, self.odd = U, W, odd
        self.even = ~odd
        self.k = W.shape[1]

    def rows(self, keep) -> np.ndarray:
        """V[keep, :], as the kept rows of the identity times V: exact,
        each entry a sum with one nonzero term."""
        (states,) = np.nonzero(keep)
        X = np.zeros((states.size, self.odd.size))
        X[np.arange(states.size), states] = 1.0
        return self.times(X)

    def times(self, X: np.ndarray) -> np.ndarray:
        """X @ V = [(Xe U_k + Xo W), (Xe U_k - Xo W)] / sqrt 2 and
        Xe U[:, k:], with Xe, Xo the columns of X on the even and odd
        states."""
        k = self.k
        XU = _times(X[:, self.even], self.U)
        XW = _times(X[:, self.odd], self.W)
        XUk = XU[:, :k]
        return np.concatenate(
            [(XUk + XW) * np.sqrt(0.5), (XUk - XW) * np.sqrt(0.5), XU[:, k:]],
            axis=1)

    def times_adjoint(self, X: np.ndarray) -> np.ndarray:
        """X @ V+: [(X+ + X-) / sqrt 2, X0] U+ on the even states and
        (X+ - X-) / sqrt 2 W+ on the odd ones, with X+, X- and X0 the
        columns of X at s, -s and 0."""
        k = self.k
        Xp, Xm = X[:, :k], X[:, k:2 * k]
        out = np.empty(X.shape, dtype=np.result_type(X, self.U))
        out[:, self.even] = _times_adjoint(
            np.concatenate([(Xp + Xm) * np.sqrt(0.5), X[:, 2 * k:]], axis=1),
            self.U)
        out[:, self.odd] = _times_adjoint((Xp - Xm) * np.sqrt(0.5), self.W)
        return out


def _times(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """X @ M for a thin complex X; a real M is never cast to complex."""
    if np.iscomplexobj(M):
        return X @ M
    return X.real @ M + 1j * (X.imag @ M)


def _times_adjoint(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """X @ V+ for a thin X, with no dim x dim copy of V."""
    if np.iscomplexobj(V):
        return (V @ X.conj().T).conj().T
    return _times(X, V.T)


def _times_kron(W: np.ndarray, O: KronOperator) -> np.ndarray:
    """W @ O for a thin W, each factor of each term contracted with W on
    its own mode."""
    N, n = O.spec.n_levels, O.spec.n_modes
    Wt = W.reshape((-1,) + (N,) * n)
    out = 0
    for coef, factors in O.terms:
        Y = Wt
        for k, F in enumerate(factors):
            if F is not None:
                Y = np.moveaxis(np.tensordot(Y, F, axes=(k + 1, 0)), -1, k + 1)
        out = out + coef * Y
    return np.reshape(out, W.shape)


def _chiral_eigh(H: KronOperator):
    """Energies and the ``_Basis`` of H = [[0, B], [C, 0]] between
    the classes of even and odd n_0, from one full SVD of (B + C+)/2
    (see ``HeisenbergPropagator``)."""

    def block(rows, cols):
        return _kron_sum([(c, (f[0][rows::2, cols::2],) + f[1:])
                          for c, f in H.terms], H.spec.n_levels)

    B, C = block(0, 1), block(1, 0)
    Ch = C.conj().T  # a view when C is real
    _check_hermitian(np.sqrt(2.0) * np.linalg.norm(Ch - B),
                     np.hypot(np.linalg.norm(B), np.linalg.norm(C)))
    B += Ch
    B *= 0.5
    del C, Ch
    U, s, Wh = np.linalg.svd(B)
    del B
    energies = np.concatenate([s, -s, np.zeros(U.shape[1] - s.size)])
    return energies, _Basis(U, Wh.conj().T, _parity_mask(H.spec))


def _parity_mask(spec: TruncationSpec) -> np.ndarray:
    """Mask of the product states with n_0 odd."""
    return np.repeat(np.arange(spec.n_levels) % 2 == 1,
                     spec.dim // spec.n_levels)


def core_mask(spec: TruncationSpec) -> np.ndarray:
    """Boolean mask of the trusted core over the product basis: the
    states with fewer than ``core_levels`` quanta in every mode."""
    single = np.arange(spec.n_levels) < spec.core_levels
    return _kron([single] * spec.n_modes)


def top_level_population(state: np.ndarray, spec: TruncationSpec) -> float:
    """Population of ``state`` outside the trusted core."""
    return float(np.sum(np.abs(state[~core_mask(spec)]) ** 2))


def chiral_parity(H: KronOperator) -> bool:
    """Whether the parity S = (-1)^(n_0) of mode 0 anticommutes with H.

    Decided on the factors: S anticommutes with every term whose factor
    on mode 0 couples only levels of opposite parity, i.e. has exactly
    zero entries between two levels of equal parity.  The identity
    (``None``) never does.
    """
    return all(f[0] is not None and not f[0][0::2, 0::2].any()
               and not f[0][1::2, 1::2].any() for _, f in H.terms)


def _observable_defect(O: KronOperator):
    """(||O - O+||_F, ||O||_F) of a sum of single-mode operators.

    The terms on each mode are summed into one factor before it is
    compared with its adjoint, so a Hermitian O gives exactly 0.
    """
    n, N = O.spec.n_modes, O.spec.n_levels
    identity = (None,) * n
    const, by_mode = 0.0, {}
    for coef, factors in O.terms:
        modes = [k for k, F in enumerate(factors) if F is not None]
        if len(modes) > 1:
            raise ValueError("observables must be sums of single-mode "
                             "operators")
        if modes:
            by_mode[modes[0]] = by_mode.get(modes[0], 0) + coef * factors[modes[0]]
        else:
            const += coef
    defect = [(const - np.conj(const), identity)] + [
        (1.0, identity[:k] + (F - F.conj().T,) + identity[k + 1:])
        for k, F in by_mode.items()]
    return _frobenius(defect, N), _frobenius(O.terms, N)


def commutator_residual(H: KronOperator, O_set, t_grid) -> float:
    """Max spectral norm of [O_j(t), O_k(t')] on the trusted core, over
    all pairs and grid times, with hbar = 1 (H at another hbar is passed
    as H / hbar).

    H and the observables are ``KronOperator``s on one product space;
    each observable is a sum of single-mode operators, checked to be
    Hermitian (1e-10 relative, Frobenius) on its factors.  For Hermitian
    evolved operators A, B the core block of AB - BA only needs the kept
    rows R = A[keep, :]: it equals R_A R_B+ - R_B R_A+.  The rows come
    from one ``HeisenbergPropagator.evolve_rows`` call for all
    observables and the whole time grid, which forms the
    observable-independent first stage once: thin (kept rows x times) x
    dim products with the one eigendecomposition of H, never a dim x dim
    observable.  H is real when its coefficients and factors are, and
    the propagator decides on H's factors whether the parity of mode 0
    halves it (eigenvectors from one SVD of a coupling block, applied
    through its factors, so no dim x dim V is formed; see
    ``HeisenbergPropagator``); otherwise it runs an ``eigh`` of the
    dense H; both eigenbases are one ``_Basis``.  The commutators of all
    pairs of rows are small (kept rows x kept rows), and their spectral
    norms come from one batched ``norm``.  All agree to
    rounding, but the residual of a converged oracle is a
    near-cancellation: it moves by ~1e-7 relative with the eigensolver
    and the BLAS thread count, so the ``koopman`` command's
    ``summary.json`` reproduces to 1e-6 relative in ``oracle_residual``,
    not byte for byte.
    """
    # checked before the eigendecomposition, on the factors
    for O in O_set:
        defect, norm = _observable_defect(O)
        if defect > 1e-10 * max(1.0, norm):
            raise ValueError("observables must be Hermitian")
    prop = HeisenbergPropagator(H)
    keep = core_mask(H.spec)
    rows = [R for R_O in prop.evolve_rows(O_set, t_grid, keep) for R in R_O]
    C = [RA @ RB.conj().T - RB @ RA.conj().T
         for i, RA in enumerate(rows) for RB in rows[i:]]
    return float(np.max(np.linalg.norm(np.array(C), 2, axis=(1, 2))))
