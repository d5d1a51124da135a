"""Dense truncated-Fock oracle: quadratures, spectra, the classical-flow
Hamiltonian, and guarded commutator residuals."""

import tracemalloc
import warnings

import numpy as np
import pytest
from dense_reference import DenseEvolution, quadratures
from scipy.linalg import expm

from qmfslab import fock
from qmfslab.fock import (
    HeisenbergPropagator,
    KronOperator,
    TruncationSpec,
    build_koopman_hamiltonian,
    chiral_parity,
    commutator_residual,
    core_mask,
    top_level_population,
)


def poly_op(poly, Q, Pi) -> np.ndarray:
    """Dense operator value of a polynomial, terms (a, b, coef), in the
    commuting pair (Q, Pi), as dense matrix products in a fixed order."""
    out = np.zeros(Q.shape, dtype=complex)
    for a, b, coef in poly:
        factors = [Q] * a + [Pi] * b
        if not factors:
            out += coef * np.eye(len(Q))
            continue
        term = coef * factors[0]
        for factor in factors[1:]:
            term = term @ factor
        out += term
    return out


def dense_embed(op, mode, spec):
    """op on ``mode`` and the identity elsewhere, one kron per mode (mode 0
    first): the embedding loop the one Kronecker helper replaced."""
    out = np.array([[1.0 + 0j]])
    for k in range(spec.n_modes):
        out = np.kron(out, op if k == mode else np.eye(spec.n_levels))
    return out


def turned_quadratures(N, hbar=1.0, ref_scale=1.0):
    """The numpy pair turned a quarter by i^n, the oracle's representation:
    (q, p) -> (p / w~, -w~ q), so q = i sqrt(hbar / 2 w~) (a+ - a) and
    p = -sqrt(hbar w~ / 2) (a + a+)."""
    q, p = quadratures(N, hbar, ref_scale)
    return p / ref_scale, -ref_scale * q


def dense_quadrature_ops(spec, hbar=1.0, ref_scale=1.0, pair=quadratures):
    """(q_k, p_k) per mode, embedded by ``dense_embed``, from the
    single-mode ``pair``: the numpy one or ``turned_quadratures``."""
    q, p = pair(spec.n_levels, hbar, ref_scale)
    return [(dense_embed(q, k, spec), dense_embed(p, k, spec))
            for k in range(spec.n_modes)]


def quadrature_ops(spec, hbar=1.0, ref_scale=1.0):
    """(q_k, p_k) per mode as ``KronOperator``s: the numpy quadratures on
    their own mode's factor."""
    q, p = quadratures(spec.n_levels, hbar, ref_scale)
    return [(KronOperator.on_mode(q, k, spec), KronOperator.on_mode(p, k, spec))
            for k in range(spec.n_modes)]


def oscillator_hamiltonian(spec, m, omega, hbar=1.0, mode=0):
    """p^2/2m + m w^2 q^2/2 on one mode's factor (m < 0 inverts the
    ladder), from the numpy quadratures at reference scale |m| w."""
    q, p = quadratures(spec.n_levels, hbar, ref_scale=abs(m) * omega)
    h = p @ p / (2 * m) + 0.5 * m * omega**2 * (q @ q)
    return KronOperator.on_mode(h, mode, spec)


def oracle_p(spec):
    """The oracle's P: its own p on mode 0."""
    return KronOperator.on_mode(fock._quadratures(spec.n_levels)[1], 0, spec)


def koopman_ops(spec, hbar=1.0, ref_scale=1.0, pair=quadratures):
    """{Q, P, Phi, Pi} from the quadratures by mode: mode 0 carries
    (Q, P), mode 1 carries (Phi, Pi)."""
    (Q, P), (Phi, Pi) = dense_quadrature_ops(spec, hbar, ref_scale, pair)
    return {"Q": Q, "P": P, "Phi": Phi, "Pi": Pi}


def dense_koopman_hamiltonian(pk, spec, hbar=1.0, ref_scale=1.0,
                              pair=quadratures):
    """H of the flow ``pk`` = (f, g) from dense products of the embedded
    operators: the construction the Kronecker-factor build replaced, kept
    as its oracle."""
    f, g = pk
    ops = koopman_ops(spec, hbar, ref_scale, pair)
    F = poly_op(f, ops["Q"], ops["Pi"])
    Gm = poly_op(g, ops["Q"], ops["Pi"])
    P, Phi = ops["P"], ops["Phi"]
    return 0.5 * (P @ F + F @ P + Phi @ Gm + Gm @ Phi)


def dense_oscillator_hamiltonian(spec, m, omega, hbar=1.0, mode=0):
    """p^2/2m + m w^2 q^2/2 from dense products of the embedded
    quadratures: the construction the single-mode build replaced."""
    q, p = dense_quadrature_ops(spec, hbar, ref_scale=abs(m) * omega)[mode]
    return p @ p / (2 * m) + 0.5 * m * omega**2 * (q @ q)


def dense_guard_projector(spec):
    """Diagonal projector onto the core, as the core mask replaced it."""
    keep_single = np.zeros(spec.n_levels)
    keep_single[: spec.core_levels] = 1.0
    keep = np.array([1.0])
    for _ in range(spec.n_modes):
        keep = np.kron(keep, keep_single)
    return np.diag(keep)


def every_row(spec):
    """``keep`` for all rows: ``evolve_rows`` gives the whole O(t)."""
    return np.ones(spec.dim, dtype=bool)


def stored_factors(basis):
    """The matrices a propagator's eigenbasis is held as: the SVD factors
    U and W, or V as U with a W of width 0."""
    return basis.U, basis.W


def scaled(O, s):
    """The ``KronOperator`` s O: every coefficient times s."""
    return KronOperator(O.spec, tuple((s * c, f) for c, f in O.terms))


def natural_flow(pk, hbar, ref_scale):
    """The flow ``pk`` = (f, g) built at hbar and reference scale w~,
    rewritten for the builder's natural units and divided by hbar.  With
    Q = sqrt(hbar / w~) Q~, Pi = sqrt(hbar w~) Pi~, P = sqrt(hbar w~) P~
    and Phi = sqrt(hbar / w~) Phi~, H / hbar has the monomial Q^a Pi^b of
    f times hbar^((a + b - 1) / 2) w~^((1 - a + b) / 2), and that of g
    times hbar^((a + b - 1) / 2) w~^((b - a - 1) / 2)."""
    f, g = pk
    return tuple(
        tuple((a, b, c * hbar ** ((a + b - 1) / 2)
               * ref_scale ** ((side - a + b) / 2)) for a, b, c in poly)
        for poly, side in ((f, 1), (g, -1)))


def chiral_vectors(basis):
    """V assembled from the SVD factors U, W alone, in the column order
    (s, -s, 0): (U_k, W) / sqrt 2, (U_k, -W) / sqrt 2 and (U[:, k:], 0) on
    the (even, odd) states."""
    U, W, odd = basis.U, basis.W, basis.odd
    k = W.shape[1]
    V = np.zeros((odd.size, odd.size), dtype=np.result_type(U, W))
    even_rows, odd_rows = np.nonzero(~odd)[0], np.nonzero(odd)[0]
    V[np.ix_(even_rows, np.arange(k))] = U[:, :k] * np.sqrt(0.5)
    V[np.ix_(odd_rows, np.arange(k))] = W * np.sqrt(0.5)
    V[np.ix_(even_rows, np.arange(k, 2 * k))] = U[:, :k] * np.sqrt(0.5)
    V[np.ix_(odd_rows, np.arange(k, 2 * k))] = -W * np.sqrt(0.5)
    V[np.ix_(even_rows, np.arange(2 * k, odd.size))] = U[:, k:]
    return V


def koopman_flow(eps, m=1.0, omega=1.0):
    """The ``koopman`` command's flow (f, g): dQ/dt = Pi/m + eps Q^2,
    dPi/dt = -m w^2 Q.  Reversible under Q -> -Q."""
    return ((0, 1, 1.0 / m), (2, 0, eps)), ((1, 0, m * omega**2),)


LINEAR_FLOW = (((0, 1, 1.0),), ((1, 0, 1.0),))
# dQ/dt = Pi, dPi/dt = -(Q + 0.1 Q^3): reversible under Q -> -Q
DUFFING_FLOW = (((0, 1, 1.0),), ((1, 0, 1.0), (3, 0, 0.1)))
# odd in Pi through f, even in Pi through g, but g is not odd in Q: a
# complex H, and only the parity of mode 1 (Phi, Pi) anticommutes with it
MODE1_FLOW = (((0, 1, 1.0),), ((1, 0, 1.0), (0, 2, 0.1)))
# a damping Q term in f: reversible under neither Q -> -Q nor Pi -> -Pi
DAMPED_FLOW = (((0, 1, 1.0), (1, 0, -0.5)), ((1, 0, 1.0),))
# Van der Pol, dPi/dt = -Q + 0.3 (1 - Q^2) Pi: not reversible either
VAN_DER_POL_FLOW = (((0, 1, 1.0),), ((1, 0, 1.0), (0, 1, -0.3), (2, 1, 0.3)))


def mode0_parity(spec):
    """Mask of the product states with an odd number of quanta in mode
    0, one kron per mode."""
    out = np.array([True])
    for k in range(spec.n_modes):
        odd = np.arange(spec.n_levels) % 2 == 1
        out = np.kron(out, odd if k == 0 else np.ones_like(odd))
    return out


class TestTruncationSpec:
    def test_dim(self):
        assert TruncationSpec(n_levels=5, n_modes=2).dim == 25

    def test_default_core_is_half(self):
        assert TruncationSpec(n_levels=12).core_levels == 6

    def test_dim_cap(self):
        assert TruncationSpec(n_levels=64, n_modes=2).dim == fock.DIM_CAP
        with pytest.raises(ValueError, match="cap"):
            TruncationSpec(n_levels=65, n_modes=2)

    def test_core_bounds(self):
        with pytest.raises(ValueError):
            TruncationSpec(n_levels=5, core_levels=9)


class TestQuadratures:
    @pytest.mark.parametrize("spec", [
        TruncationSpec(n_levels=4, n_modes=1),
        TruncationSpec(n_levels=5, n_modes=2),
        TruncationSpec(n_levels=3, n_modes=4),
    ])
    def test_each_mode_embedded_on_its_own_factor(self, spec):
        # the real pair (X, p) build_koopman_hamiltonian takes, q = i X,
        # on each mode's factor, against the numpy pair turned a quarter,
        # embedded by one kron per mode
        X, p1 = fock._quadratures(spec.n_levels)
        assert np.isrealobj(X) and np.isrealobj(p1)
        ref = dense_quadrature_ops(spec, pair=turned_quadratures)
        for k, (q_ref, p_ref) in enumerate(ref):
            assert np.array_equal(
                scaled(KronOperator.on_mode(X, k, spec), 1j).dense(), q_ref)
            assert np.array_equal(KronOperator.on_mode(p1, k, spec).dense(),
                                  p_ref)

    def test_canonical_commutator_defect_at_top(self):
        # [q, p] = i everywhere except the top ladder level
        spec = TruncationSpec(n_levels=12, n_modes=1)
        X, p = fock._quadratures(spec.n_levels)
        q = 1j * X
        C = q @ p - p @ q
        diag = np.diag(C)
        assert np.allclose(diag[:-1], 1j, atol=1e-12)
        assert diag[-1] == pytest.approx(-1j * (spec.n_levels - 1))

    def test_different_modes_commute(self):
        spec = TruncationSpec(n_levels=6, n_modes=2)
        q, p = fock._quadratures(spec.n_levels)
        (q1, p1), (q2, p2) = [
            (KronOperator.on_mode(q, k, spec).dense(),
             KronOperator.on_mode(p, k, spec).dense()) for k in range(2)]
        assert np.linalg.norm(q1 @ p2 - p2 @ q1) < 1e-13
        assert np.linalg.norm(q1 @ q2 - q2 @ q1) < 1e-13

    def test_hermitian(self):
        # q = i X is Hermitian exactly when the real X is antisymmetric
        X, p = fock._quadratures(8)
        assert np.isrealobj(X) and np.isrealobj(p)
        assert np.array_equal(X, -X.T) and np.array_equal(p, p.T)

    def test_vacuum_variances_are_one_half(self):
        # natural units: the vacuum of a unit oscillator
        X, p = fock._quadratures(10)
        vac = np.zeros(10)
        vac[0] = 1.0
        # q^2 = -X^2
        assert -vac @ (X @ X) @ vac == pytest.approx(0.5)
        assert vac @ (p @ p) @ vac == pytest.approx(0.5)


class TestOscillatorSpectrum:
    def test_positive_mass_ladder(self):
        spec = TruncationSpec(n_levels=30, n_modes=1)
        H = oscillator_hamiltonian(spec, m=1.0, omega=2.0).dense()
        E = np.sort(np.linalg.eigvalsh(H))
        expected = 2.0 * (np.arange(10) + 0.5)
        assert np.allclose(E[:10], expected, atol=1e-10)

    def test_negative_mass_ladder_descends(self):
        # fully inverted Hamiltonian: E_n = -hbar w (n + 1/2)
        spec = TruncationSpec(n_levels=30, n_modes=1)
        H = oscillator_hamiltonian(spec, m=-1.0, omega=2.0).dense()
        E = np.sort(np.linalg.eigvalsh(H))[::-1]
        expected = -2.0 * (np.arange(10) + 0.5)
        assert np.allclose(E[:10], expected, atol=1e-10)

    @pytest.mark.parametrize("spec, m, omega, hbar, mode", [
        (TruncationSpec(n_levels=30, n_modes=1), 1.0, 2.0, 1.0, 0),
        (TruncationSpec(n_levels=12, n_modes=2), -0.7, 1.3, 0.5, 1),
        (TruncationSpec(n_levels=6, n_modes=3), 2.0, 0.4, 1.0, 1),
        (TruncationSpec(n_levels=5, n_modes=4), -1.0, 1.0, 1.0, 3),
    ])
    def test_single_mode_build_matches_dense_products(self, spec, m, omega,
                                                      hbar, mode):
        H = oscillator_hamiltonian(spec, m, omega, hbar, mode).dense()
        ref = dense_oscillator_hamiltonian(spec, m, omega, hbar, mode)
        assert np.max(np.abs(H - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_mirror_spectra(self):
        spec = TruncationSpec(n_levels=20, n_modes=1)
        Hp = oscillator_hamiltonian(spec, m=1.0, omega=1.0).dense()
        Hm = oscillator_hamiltonian(spec, m=-1.0, omega=1.0).dense()
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(Hp)),
            np.sort(-np.linalg.eigvalsh(Hm)),
            atol=1e-10,
        )


class TestPolyKoopman:
    def test_degree_cap(self):
        spec = TruncationSpec(n_levels=4, n_modes=2)
        with pytest.raises(ValueError, match="degree"):
            build_koopman_hamiltonian(((5, 1, 1.0),), ((1, 0, 1.0),), spec)
        with pytest.raises(ValueError, match="finite"):
            build_koopman_hamiltonian(((0, 1, 1.0),), ((1, 0, np.nan),), spec)

    def test_poly_op_matches_pointwise_on_diagonals(self):
        # diagonal (commuting) operators: operator polynomial equals the
        # scalar polynomial applied entrywise
        Q = np.diag([0.0, 1.0, 2.0]).astype(complex)
        Pi = np.diag([3.0, 4.0, 5.0]).astype(complex)
        Op = poly_op(((2, 1, 0.5), (0, 0, 1.0)), Q, Pi)
        expected = np.diag(
            [0.5 * q**2 * p + 1.0 for q, p in [(0, 3), (1, 4), (2, 5)]]
        )
        assert np.allclose(Op, expected)


class TestKoopmanHamiltonian:
    CASES = [
        # the koopman command's default flow
        (koopman_flow(0.1),
         TruncationSpec(n_levels=20, n_modes=2, core_levels=2), 1.0, 1.0),
        # cubic and mixed terms, constants, other hbar and scale
        ((((0, 1, 0.7), (3, 0, -0.2), (1, 2, 0.3)),
          ((1, 0, 1.3), (0, 0, 0.5))),
         TruncationSpec(n_levels=12, n_modes=2), 0.7, 1.9),
    ]

    @pytest.mark.parametrize("pk, spec, hbar, ref_scale", CASES)
    def test_kronecker_build_matches_dense_products(self, pk, spec, hbar,
                                                    ref_scale):
        # the builder works in natural units: hbar times its H of the
        # rewritten flow is the dense H at hbar and ref_scale
        H = build_koopman_hamiltonian(*natural_flow(pk, hbar, ref_scale),
                                      spec)[0].dense()
        ref = dense_koopman_hamiltonian(pk, spec, hbar, ref_scale,
                                        turned_quadratures)
        assert np.max(np.abs(hbar * H - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_hermitian(self):
        spec = TruncationSpec(n_levels=10, n_modes=2)
        H = build_koopman_hamiltonian(*koopman_flow(0.1), spec)[0].dense()
        assert np.linalg.norm(H - H.conj().T) < 1e-12

    def test_mode_count_checked(self):
        for n_modes in (1, 3):
            with pytest.raises(ValueError, match="modes"):
                build_koopman_hamiltonian(
                    *LINEAR_FLOW, TruncationSpec(n_levels=8, n_modes=n_modes))

    @pytest.mark.parametrize("pk, spec, hbar, ref_scale", CASES)
    def test_returns_q_and_pi_by_mode(self, pk, spec, hbar, ref_scale):
        # only the commuting observables, on the modes of the layout, in
        # natural units: Q~ = Q sqrt(w~ / hbar) and Pi~ = Pi / sqrt(hbar w~)
        _, Q, Pi = build_koopman_hamiltonian(*natural_flow(pk, hbar,
                                                           ref_scale), spec)
        ref = koopman_ops(spec, hbar, ref_scale, turned_quadratures)
        for O, ref_O, unit in ((Q, ref["Q"], np.sqrt(hbar / ref_scale)),
                               (Pi, ref["Pi"], np.sqrt(hbar * ref_scale))):
            assert np.max(np.abs(unit * O.dense() - ref_O)) \
                <= 1e-15 * np.max(np.abs(ref_O))

    def test_frobenius_bound(self):
        # at least ||H||_F, from the factors; a bound past a float is inf
        # with no overflow warning
        spec = TruncationSpec(n_levels=8, n_modes=2)
        H = build_koopman_hamiltonian(*koopman_flow(0.1), spec)[0]
        assert np.linalg.norm(H.dense()) <= H.frobenius_bound()
        H = build_koopman_hamiltonian(*koopman_flow(1e307), spec)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert H.frobenius_bound() == np.inf

    def test_q_and_pi_commute_exactly(self):
        spec = TruncationSpec(n_levels=8, n_modes=2)
        _, Q, Pi = build_koopman_hamiltonian(*LINEAR_FLOW, spec)
        Q, Pi = Q.dense(), Pi.dense()
        assert np.linalg.norm(Q @ Pi - Pi @ Q) == 0.0

    def test_linear_flow_heisenberg_equations(self):
        # f = Pi, g = w^2 Q: dQ/dt = i[H, Q] should equal f at t = 0
        w = 1.0
        spec = TruncationSpec(n_levels=14, n_modes=2, core_levels=5)
        H, Q, Pi = build_koopman_hamiltonian(((0, 1, 1.0),), ((1, 0, w**2),),
                                             spec)
        H, Q, Pi = H.dense(), Q.dense(), Pi.dense()
        dQ = 1j * (H @ Q - Q @ H)
        P = dense_guard_projector(spec)
        assert np.linalg.norm(P @ (dQ - Pi) @ P) < 1e-10
        dPi = 1j * (H @ Pi - Pi @ H)
        assert np.linalg.norm(P @ (dPi + w**2 * Q) @ P) < 1e-10


class TestHeisenbergPropagation:
    def test_identity_at_zero(self):
        spec = TruncationSpec(n_levels=10, n_modes=1)
        H = oscillator_hamiltonian(spec, 1.0, 1.0)
        q = quadrature_ops(spec, ref_scale=1.0)[0][0]
        (qt,) = HeisenbergPropagator(H).evolve_rows([q], [0.0],
                                                    every_row(spec))
        assert np.allclose(qt[0], q.dense(), atol=1e-12)

    def test_oscillator_quadrature_rotation(self):
        # q(t) = q cos wt + p sin wt / (m w), away from the truncation edge
        spec = TruncationSpec(n_levels=30, n_modes=1, core_levels=10)
        m, w = 1.0, 1.0
        H = oscillator_hamiltonian(spec, m, w)
        q, p = quadrature_ops(spec, ref_scale=m * w)[0]
        keep = core_mask(spec)
        t_grid = (0.3, 1.0, 2.5)
        (rows,) = HeisenbergPropagator(H).evolve_rows([q], t_grid, keep)
        for t, qt in zip(t_grid, rows):
            expected = (q.dense() * np.cos(w * t)
                        + p.dense() * np.sin(w * t) / (m * w))
            assert np.linalg.norm((qt - expected[keep])[:, keep]) < 1e-10

    def test_propagator_matches_one_shot(self):
        # one-shot reference: conjugation by U = expm(-iHt/hbar)
        spec = TruncationSpec(n_levels=8, n_modes=1)
        H = oscillator_hamiltonian(spec, 1.0, 1.0)
        q = quadrature_ops(spec)[0][0]
        U = expm(-1j * H.dense() * 0.7)
        (qt,) = HeisenbergPropagator(H).evolve_rows([q], [0.7],
                                                    every_row(spec))
        assert np.allclose(qt[0], U.conj().T @ q.dense() @ U, atol=1e-12)

    def test_kept_rows_match_full_conjugation(self):
        # a dense complex H with no parity, as a one-mode operator
        rng = np.random.default_rng(3)
        X = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        H = (X + X.conj().T) / 2
        Y = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        O = (Y + Y.conj().T) / 2
        keep = np.zeros(24, dtype=bool)
        keep[[0, 5, 17]] = True
        one_mode = TruncationSpec(n_levels=24, n_modes=1)
        prop = HeisenbergPropagator(KronOperator.on_mode(H, 0, one_mode))
        ref = DenseEvolution(H)
        t_grid = (0.0, 0.4, 3.0)
        (rows,) = prop.evolve_rows([KronOperator.on_mode(O, 0, one_mode)],
                                   t_grid, keep)
        assert rows.shape == (3, 3, 24)
        for t, rows_t in zip(t_grid, rows):
            assert np.linalg.norm(rows_t - ref.evolve(O, t)[keep]) \
                < 1e-12 * np.linalg.norm(O)

    def test_state_evolution_matches_operator_evolution(self):
        # <psi(t)| q |psi(t)> = <psi| q(t) |psi>, psi(t) from the dense
        # reference and q(t) from the propagator
        spec = TruncationSpec(n_levels=10, n_modes=1)
        H = oscillator_hamiltonian(spec, 1.0, 1.0)
        q = quadrature_ops(spec)[0][0]
        psi = np.zeros(10, dtype=complex)
        psi[[0, 1]] = [0.6, 0.8]
        psit = DenseEvolution(H.dense()).evolve_state(psi, 1.3)
        (qt,) = HeisenbergPropagator(H).evolve_rows([q], [1.3],
                                                    every_row(spec))
        assert np.linalg.norm(psit) == pytest.approx(1.0)
        assert psit.conj() @ q.dense() @ psit == pytest.approx(
            psi.conj() @ qt[0] @ psi, abs=1e-12
        )


class TestGuard:
    def test_projector_counts(self):
        spec = TruncationSpec(n_levels=4, n_modes=2, core_levels=2)
        mask = core_mask(spec)
        assert mask.dtype == bool and mask.shape == (spec.dim,)
        assert np.count_nonzero(mask) == 4

    @pytest.mark.parametrize("n_levels, n_modes, core_levels", [
        (4, 2, 2), (5, 1, 3), (3, 3, 1), (6, 2, 6), (4, 4, 3),
    ])
    def test_mask_selects_the_projector_states(self, n_levels, n_modes,
                                               core_levels):
        spec = TruncationSpec(n_levels=n_levels, n_modes=n_modes,
                              core_levels=core_levels)
        P = dense_guard_projector(spec)
        assert np.array_equal(core_mask(spec), np.diag(P) != 0)

    def test_top_level_population(self):
        spec = TruncationSpec(n_levels=3, n_modes=1, core_levels=2)
        state = np.array([0.8, 0.0, 0.6])
        assert top_level_population(state, spec) == pytest.approx(0.36)


class TestCommutatorResidual:
    def test_linear_koopman_pair_commutes(self):
        # {Q, Pi} under the linear flow: residual at truncation-noise level
        spec = TruncationSpec(n_levels=16, n_modes=2, core_levels=5)
        H, Q, Pi = build_koopman_hamiltonian(*LINEAR_FLOW, spec)
        t_grid = np.linspace(0.0, 3.0, 4)
        res = commutator_residual(H, [Q, Pi], t_grid)
        assert res < 1e-10

    def test_noncommuting_pair_flagged(self):
        # {Q, P} of the same mode must show an order-hbar residual
        spec = TruncationSpec(n_levels=16, n_modes=2, core_levels=5)
        H, Q, _ = build_koopman_hamiltonian(*LINEAR_FLOW, spec)
        res = commutator_residual(H, [Q, oracle_p(spec)], [0.0, 1.0])
        assert res > 0.5

    def test_non_hermitian_rejected(self):
        spec = TruncationSpec(n_levels=4, n_modes=1)
        H = KronOperator.on_mode(np.eye(4), 0, spec)
        bad = np.triu(np.ones((4, 4), dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            commutator_residual(H, [KronOperator.on_mode(bad, 0, spec)],
                                [0.0])

    @staticmethod
    def check_against_full_dense_reference(pk):
        # reference: the flow's H, Q, P and Pi from dense products of the
        # numpy quadratures (q real, not the oracle's representation), full
        # O(t) per time from the complex eigendecomposition, projected
        # commutators; the pair alone, and with P
        spec = TruncationSpec(n_levels=8, n_modes=2, core_levels=3)
        H, Q, Pi = build_koopman_hamiltonian(*pk, spec)
        ops = koopman_ops(spec)
        t_grid = [0.0, 0.5, 1.5]
        P = dense_guard_projector(spec)
        ref = DenseEvolution(dense_koopman_hamiltonian(pk, spec))
        for O_set, names in (([Q, Pi], "Q Pi"),
                             ([Q, oracle_p(spec), Pi], "Q P Pi")):
            evolved = [ref.evolve(ops[name], t) for name in names.split()
                       for t in t_grid]
            reference = max(
                np.linalg.norm(P @ (A @ B - B @ A) @ P, 2)
                for A in evolved for B in evolved
            )
            res = commutator_residual(H, O_set, t_grid)
            assert res == pytest.approx(reference, rel=1e-12)
        assert reference > 0.5

    def test_matches_full_dense_reference(self):
        # the ``koopman`` command's flow at eps = 0.1
        self.check_against_full_dense_reference(koopman_flow(0.1))

    @pytest.mark.parametrize("pk", [koopman_flow(0.3), DAMPED_FLOW,
                                    MODE1_FLOW],
                             ids=["koopman-eps0.3", "damped", "mode1"])
    def test_matches_full_dense_reference_other_flows(self, pk):
        self.check_against_full_dense_reference(pk)

    @pytest.mark.parametrize("pk", [koopman_flow(0.1), DAMPED_FLOW],
                             ids=["chiral", "dense"])
    def test_first_stage_formed_once_per_call(self, pk, monkeypatch):
        # A_t V+ does not depend on the observable: one product for all
        # of them, then one V+ product per observable (2 per observable
        # when each formed its own first stage)
        spec = TruncationSpec(n_levels=8, n_modes=2, core_levels=2)
        H, Q, Pi = build_koopman_hamiltonian(*pk, spec)
        O_set = [Q, quadrature_ops(spec)[0][1], Pi]
        ref = commutator_residual(H, O_set, [0.0, 1.0])
        calls = {"rows": 0, "times_adjoint": 0}
        for name in calls:
            def counted(self, X, _method=getattr(fock._Basis, name),
                        _name=name):
                calls[_name] += 1
                return _method(self, X)
            monkeypatch.setattr(fock._Basis, name, counted)
        assert commutator_residual(H, O_set, [0.0, 1.0]) == ref
        assert calls == {"rows": 1, "times_adjoint": 1 + len(O_set)}


def dense_is_real(H):
    """Whether the dense H is real, read off its entries."""
    return np.max(np.abs(H.imag)) <= 1e-14 * np.max(np.abs(H))


def dense_parity(H, spec):
    """Whether the parity of mode 0 anticommutes with the dense H
    exactly."""
    S = np.where(mode0_parity(spec), -1.0, 1.0)
    return not np.any(S[:, None] * H * S + H)


def real_factors(op):
    """Every factor of a KronOperator is a real array (or the identity)."""
    return all(F is None or np.isrealobj(F)
               for _, factors in op.terms for F in factors)


def real_coefficients(op):
    """Every coefficient of a KronOperator is real-typed."""
    return all(np.isrealobj(coef) for coef, _ in op.terms)


# the flows of the factor-level tests, and whether each builds a real H
# whose mode-0 parity anticommutes with it (reversible under Q -> -Q) or
# stays complex with no parity
FLOWS = {
    "eps0": (koopman_flow(0.0), True),
    "eps0.1": (koopman_flow(0.1), True),
    "eps0.3": (koopman_flow(0.3), True),
    "eps0.3-m0.7": (koopman_flow(0.3, m=0.7, omega=1.4), True),
    "linear": (LINEAR_FLOW, True),
    "duffing": (DUFFING_FLOW, True),
    "mode1": (MODE1_FLOW, False),
    "damped": (DAMPED_FLOW, False),
    "van-der-pol": (VAN_DER_POL_FLOW, False),
}


class TestFactorDecisions:
    """Realness and the parity of the built H, against the same decisions
    read off the dense Hamiltonian built from products in the oracle's
    representation: the numpy pair turned a quarter, in which a flow
    reversible under Q -> -Q has a real H.  Every factor is real, each
    q's i sits in its term's coefficient, so H is real exactly when its
    coefficients are."""

    @pytest.mark.parametrize("n_levels", [8, 9])
    @pytest.mark.parametrize("name", list(FLOWS))
    def test_gauge_and_parity_match_dense_references(self, name, n_levels):
        pk, real = FLOWS[name]
        spec = TruncationSpec(n_levels=n_levels, n_modes=2, core_levels=2)
        H, Q, Pi = build_koopman_hamiltonian(*pk, spec)
        ref = dense_koopman_hamiltonian(pk, spec, pair=turned_quadratures)
        assert real_factors(H) and real_factors(Q) and real_factors(Pi)
        assert real_coefficients(H) == dense_is_real(ref) == real
        assert chiral_parity(H) == dense_parity(ref, spec) == real
        Hd = H.dense()
        assert np.isrealobj(Hd) == real
        assert np.max(np.abs(Hd - ref)) <= 1e-14 * np.max(np.abs(ref))
        # the eigenbasis is real exactly when H is
        basis = HeisenbergPropagator(H)._basis
        assert all(np.isrealobj(M) for M in stored_factors(basis)) == real

    @pytest.mark.parametrize("level", [0, 1])
    def test_one_equal_parity_entry_breaks_the_parity(self, level):
        # a diagonal entry on an even or on an odd level of mode 0
        spec = TruncationSpec(n_levels=6, n_modes=2, core_levels=2)
        H = build_koopman_hamiltonian(*koopman_flow(0.1), spec)[0]
        assert chiral_parity(H)
        entry = np.zeros((6, 6))
        entry[level, level] = 1e-3
        broken = KronOperator(spec, H.terms + ((1.0, (entry, None)),))
        assert not chiral_parity(broken)
        assert not dense_parity(broken.dense(), spec)


class TestRealGauge:
    """The real eigensolvers of an H that is real as built, in the
    quarter-turned representation of the oracle's quadratures, against
    the complex one."""

    @pytest.mark.parametrize("pk", [koopman_flow(0.1), LINEAR_FLOW,
                                    DUFFING_FLOW])
    def test_propagator_matches_complex_eigh(self, pk, monkeypatch):
        # the real eigh and the chiral SVD against the complex eigh of the
        # dense H, at even and odd N
        for n_levels in (8, 9):
            spec = TruncationSpec(n_levels=n_levels, n_modes=2, core_levels=3)
            H, Q, Pi = build_koopman_hamiltonian(*pk, spec)
            assert real_factors(H) and real_coefficients(H)
            assert np.isrealobj(H.dense()) and chiral_parity(H)
            # evolved at hbar = 0.8 as H / 0.8
            chiral = HeisenbergPropagator(scaled(H, 1 / 0.8))
            with monkeypatch.context() as m:
                m.setattr(fock, "chiral_parity", lambda H: False)
                real = HeisenbergPropagator(scaled(H, 1 / 0.8))
            self.check_propagators(H, (Q, Pi), spec, (real, chiral))

    @staticmethod
    def check_propagators(H, pair, spec, props):
        # every row and the kept rows, against the dense reference's
        # complex eigh
        ref = DenseEvolution(H.dense().astype(complex), 0.8)
        keep = core_mask(spec)
        P0 = quadrature_ops(spec, hbar=0.8)[0][1]
        O_set = (*pair, P0)
        t_grid = (0.0, 0.6, 2.3)
        for prop in props:
            assert all(np.isrealobj(M) for M in stored_factors(prop._basis))
            kept = prop.evolve_rows(O_set, t_grid, keep)
            every = prop.evolve_rows(O_set, t_grid, every_row(spec))
            for O, rows, full_rows in zip(O_set, kept, every, strict=True):
                Od = O.dense()
                scale = np.linalg.norm(Od)
                for t, rows_t, full_t in zip(t_grid, rows, full_rows):
                    full = ref.evolve(Od, t)
                    assert np.linalg.norm(full_t - full) < 1e-12 * scale
                    assert np.linalg.norm(rows_t - full[keep]) < 1e-12 * scale

    def test_real_and_complex_residuals_agree_at_24_levels(self):
        # the converged residual is a near-cancellation: the real and the
        # complex SVD agree to 1e-6 relative, not to the last digit; the
        # same H with complex-typed coefficients takes the complex one
        spec = TruncationSpec(n_levels=24, n_modes=2, core_levels=2)
        H, Q, Pi = build_koopman_hamiltonian(*koopman_flow(0.1), spec)
        O_set = [Q, Pi]
        t_grid = np.linspace(0.0, 2.0, 5)
        res = commutator_residual(H, O_set, t_grid)
        H_complex = scaled(H, 1 + 0j)
        assert chiral_parity(H_complex) and np.iscomplexobj(
            HeisenbergPropagator(H_complex)._basis.U)
        ref = commutator_residual(H_complex, O_set, t_grid)
        assert 0 < res < 1e-5
        assert res == pytest.approx(ref, rel=1e-6)


class TestChiralSplit:
    """The parity of mode 0 anticommutes with H: one SVD of the coupling
    block in place of the eigh."""

    @pytest.mark.parametrize("n_levels", [8, 9])
    @pytest.mark.parametrize("pk, split", [
        (koopman_flow(0.0), True), (koopman_flow(0.1), True),
        (koopman_flow(0.3), True), (LINEAR_FLOW, True), (MODE1_FLOW, False),
        (DAMPED_FLOW, False),
    ], ids=["eps0", "eps0.1", "eps0.3", "linear", "mode1", "damped"])
    def test_split_on_the_first_anticommuting_parity(self, pk, split,
                                                     n_levels):
        # only mode 0's parity is read: the mode-1 flow's H anticommutes
        # with the parity of mode 1 alone, and takes the eigh
        spec = TruncationSpec(n_levels=n_levels, n_modes=2, core_levels=2)
        H = build_koopman_hamiltonian(*pk, spec)[0]
        assert chiral_parity(H) == split
        assert dense_parity(H.dense(), spec) == split
        assert HeisenbergPropagator(H)._basis.odd.any() == split

    # "gauged": real only in the quarter-turned gauge, "real": also with
    # the numpy pair; the mode-1 flow keeps the complex dense basis
    SPLITS = pytest.mark.parametrize("pk, split", [
        (koopman_flow(0.1), True), (koopman_flow(0.0), True),
        (MODE1_FLOW, False)], ids=["gauged", "real", "mode1"])

    @pytest.mark.parametrize("n_levels", [8, 9])
    @SPLITS
    def test_eigenpairs(self, pk, split, n_levels):
        # at 9 levels the even class is larger: its extra left singular
        # vectors are the E = 0 eigenvectors
        spec = TruncationSpec(n_levels=n_levels, n_modes=2, core_levels=2)
        H = build_koopman_hamiltonian(*pk, spec)[0]
        prop = HeisenbergPropagator(H)
        assert prop._basis.odd.any() == split
        assert all(np.isrealobj(M) for M in stored_factors(prop._basis)) \
            == split
        V, E = chiral_vectors(prop._basis), prop.energies
        assert np.array_equal(prop._basis.rows(every_row(spec)), V)
        H = H.dense()
        assert V.shape == H.shape and E.shape == (spec.dim,)
        scale = np.linalg.norm(H)
        assert np.linalg.norm(H @ V - V * E) < 1e-13 * scale
        assert np.linalg.norm(V.conj().T @ V - np.eye(spec.dim)) < 1e-13 \
            * spec.dim
        assert np.allclose(np.sort(E), np.linalg.eigvalsh(H),
                           atol=1e-13 * scale)
        if split:
            assert np.count_nonzero(E == 0) == (spec.dim // n_levels
                                                if n_levels % 2 else 0)

    @pytest.mark.parametrize("n_levels", [8, 9])
    @SPLITS
    def test_factors_match_the_assembled_vectors(self, pk, split, n_levels):
        # V and V+ applied through U and W, as evolve_rows does, against
        # the same products with V assembled from U and W in the test;
        # the rows against the dense reference
        spec = TruncationSpec(n_levels=n_levels, n_modes=2, core_levels=2)
        H, Q, Pi = build_koopman_hamiltonian(*pk, spec)
        prop = HeisenbergPropagator(scaled(H, 1 / 0.8))  # at hbar = 0.8
        basis = prop._basis
        assert basis.odd.any() == split
        V = chiral_vectors(basis)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, spec.dim)) + 1j * rng.normal(size=(6, spec.dim))
        assert np.linalg.norm(basis.times(X) - X @ V) < 1e-12 * spec.dim
        assert np.linalg.norm(basis.times_adjoint(X) - X @ V.conj().T) \
            < 1e-12 * spec.dim
        keep = core_mask(spec)
        assert np.array_equal(basis.rows(keep), V[keep])
        ref = DenseEvolution(H.dense(), 0.8)
        t_grid = (0.0, 0.6, 2.3)
        O_set = (Q, Pi,
                 quadrature_ops(spec, hbar=0.8)[0][1])
        for O, rows in zip(O_set, prop.evolve_rows(O_set, t_grid, keep)):
            Od = O.dense()
            for t, rows_t in zip(t_grid, rows):
                assert np.linalg.norm(rows_t - ref.evolve(Od, t)[keep]) \
                    < 1e-12 * np.linalg.norm(Od)

    def test_split_and_eigh_residuals_agree_at_24_levels(self, monkeypatch):
        spec = TruncationSpec(n_levels=24, n_modes=2, core_levels=2)
        H, Q, Pi = build_koopman_hamiltonian(*koopman_flow(0.1), spec)
        O_set = [Q, Pi]
        t_grid = np.linspace(0.0, 2.0, 5)
        res = commutator_residual(H, O_set, t_grid)
        monkeypatch.setattr(fock, "chiral_parity", lambda H: False)
        ref = commutator_residual(H, O_set, t_grid)
        assert 0 < res < 1e-5
        assert res == pytest.approx(ref, rel=1e-6)


class TestGuardsOnTheFactorPath:
    """What the oracle still checks now that no dense H is built on the
    chiral path."""

    @pytest.mark.parametrize("pk", [koopman_flow(0.1), DAMPED_FLOW],
                             ids=["chiral", "dense"])
    def test_ordering_defect_rejected(self, pk):
        # one side of the P f pair of f's second monomial (eps Q^2 or the
        # damping Q, terms 2 and 3: P Q^k and Q^k P) with a changed
        # coefficient: H is no longer Hermitian, on the block path and on
        # the dense one
        spec = TruncationSpec(n_levels=8, n_modes=2, core_levels=2)
        H, Q, Pi = build_koopman_hamiltonian(*pk, spec)
        O_set = [Q, Pi]
        assert commutator_residual(H, O_set, [0.0, 1.0]) > 0
        terms = list(H.terms)
        coef, factors = terms[2]
        terms[2] = (1.001 * coef, factors)
        bad = KronOperator(spec, tuple(terms))
        with pytest.raises(ValueError, match="Hermitian"):
            commutator_residual(bad, O_set, [0.0, 1.0])

    def test_observable_hermiticity_read_per_mode(self):
        # the same Hermitian operator split into non-Hermitian parts on one
        # mode passes; a non-Hermitian sum on two modes does not
        spec = TruncationSpec(n_levels=6, n_modes=2, core_levels=2)
        H = build_koopman_hamiltonian(*LINEAR_FLOW, spec)[0]
        a = np.diag(np.sqrt(np.arange(1.0, 6)), 1)
        split = KronOperator(spec, ((1.0, (a, None)), (1.0, (a.T, None))))
        assert commutator_residual(H, [split], [0.0, 1.0]) >= 0
        bad = KronOperator(spec, ((1.0, (a, None)), (1.0, (None, a.T))))
        with pytest.raises(ValueError, match="Hermitian"):
            commutator_residual(H, [bad], [0.0])
        pair = KronOperator(spec, ((1.0, (a + a.T, a + a.T)),))
        with pytest.raises(ValueError, match="single-mode"):
            commutator_residual(H, [pair], [0.0])

    @staticmethod
    def traced_peak(pk, n_levels):
        """Traced peak of build and residual, in real dim x dim arrays."""
        spec = TruncationSpec(n_levels=n_levels, n_modes=2, core_levels=2)
        tracemalloc.start()
        try:
            H, Q, Pi = build_koopman_hamiltonian(*pk, spec)
            commutator_residual(H, [Q, Pi], np.linspace(0.0, 2.0, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * spec.dim**2)

    def test_peak_memory_is_a_few_real_blocks(self):
        # the koopman flow at 24 levels: the real coupling blocks and
        # their SVD factors, a quarter of dim x dim each, and no dim x dim
        # V (1.83 arrays when the propagator assembled it)
        assert self.traced_peak(koopman_flow(0.1), 24) <= 1.2

    def test_peak_memory_without_a_parity(self):
        # the damped flow at 16 levels: the dense complex H and its
        # complex eigenvectors, 4 real arrays, and no dim x dim temporary
        # for the Hermiticity check or the symmetrization (6.3 arrays
        # when both were taken on the whole H)
        assert self.traced_peak(DAMPED_FLOW, 16) <= 4.5

    @pytest.mark.parametrize("n", [1, 7, 8, 81])
    def test_blockwise_symmetrization(self, n):
        # the lower triangle, which eigh reads, equals (H + H+)/2 bit for
        # bit; the defect is the Frobenius norm of H - H+
        rng = np.random.default_rng(n)
        Hd = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Hd += Hd.conj().T
        Hd[0, -1] += 1e-14
        full = (Hd + Hd.conj().T) / 2
        sym = fock._symmetrized(Hd.copy())
        assert np.array_equal(np.tril(sym), np.tril(full))
        E, V = np.linalg.eigh(sym)
        E_full, V_full = np.linalg.eigh(full)
        assert np.array_equal(E, E_full) and np.array_equal(V, V_full)
        Hd[-1, 0] += 1j
        with pytest.raises(ValueError, match="not Hermitian"):
            fock._symmetrized(Hd)
