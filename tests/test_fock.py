"""Dense truncated-Fock oracle: quadratures, spectra, the classical-flow
Hamiltonian, and guarded commutator residuals."""

import tracemalloc

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
    real_gauge,
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


def dense_quadrature_ops(spec, hbar=1.0, ref_scale=1.0):
    """(q_k, p_k) per mode, embedded by ``dense_embed``."""
    q, p = quadratures(spec.n_levels, hbar, ref_scale)
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


def koopman_ops(spec, hbar=1.0, ref_scale=1.0):
    """{Q, P, Phi, Pi} from the quadratures by mode: mode 0 carries
    (Q, P), mode 1 carries (Phi, Pi)."""
    (Q, P), (Phi, Pi) = dense_quadrature_ops(spec, hbar, ref_scale)
    return {"Q": Q, "P": P, "Phi": Phi, "Pi": Pi}


def dense_koopman_hamiltonian(pk, spec, hbar=1.0, ref_scale=1.0):
    """H of the flow ``pk`` = (f, g) from dense products of the embedded
    operators: the construction the Kronecker-factor build replaced, kept
    as its oracle."""
    f, g = pk
    ops = koopman_ops(spec, hbar, ref_scale)
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
    """The matrices a propagator's eigenbasis is held as: V, or the SVD
    factors U and W."""
    if isinstance(basis, fock._ChiralBasis):
        return basis.U, basis.W
    return (basis._V,)


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
# odd in Pi through f, even in Pi through g, but g is not odd in Q: only
# the parity of mode 1 (Phi, Pi) anticommutes with H
MODE1_FLOW = (((0, 1, 1.0),), ((1, 0, 1.0), (0, 2, 0.1)))
# a damping Q term in f: reversible under neither Q -> -Q nor Pi -> -Pi
DAMPED_FLOW = (((0, 1, 1.0), (1, 0, -0.5)), ((1, 0, 1.0),))


def mode_parity(spec, mode):
    """Mask of the product states with an odd number of quanta in
    ``mode``, one kron per mode."""
    out = np.array([True])
    for k in range(spec.n_modes):
        odd = np.arange(spec.n_levels) % 2 == 1
        out = np.kron(out, odd if k == mode else np.ones_like(odd))
    return out


def quanta_phases(spec):
    """i^(total quanta) per product state, one kron per mode."""
    out = np.array([1.0 + 0j])
    for _ in range(spec.n_modes):
        out = np.kron(out, 1j ** np.arange(spec.n_levels))
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
        # the quadratures build_koopman_hamiltonian takes, on each mode's
        # factor, against the numpy ladder embedded by one kron per mode
        q1, p1 = fock._quadratures(spec.n_levels, 0.7, 1.3)
        ref = dense_quadrature_ops(spec, hbar=0.7, ref_scale=1.3)
        for k, (q_ref, p_ref) in enumerate(ref):
            assert np.array_equal(KronOperator.on_mode(q1, k, spec).dense(),
                                  q_ref)
            assert np.array_equal(KronOperator.on_mode(p1, k, spec).dense(),
                                  p_ref)

    def test_canonical_commutator_defect_at_top(self):
        # [q, p] = i hbar everywhere except the top ladder level
        spec = TruncationSpec(n_levels=12, n_modes=1)
        q, p = fock._quadratures(spec.n_levels, 1.0, 1.0)
        C = q @ p - p @ q
        diag = np.diag(C)
        assert np.allclose(diag[:-1], 1j, atol=1e-12)
        assert diag[-1] == pytest.approx(-1j * (spec.n_levels - 1))

    def test_different_modes_commute(self):
        spec = TruncationSpec(n_levels=6, n_modes=2)
        q, p = fock._quadratures(spec.n_levels, 1.0, 1.0)
        (q1, p1), (q2, p2) = [
            (KronOperator.on_mode(q, k, spec).dense(),
             KronOperator.on_mode(p, k, spec).dense()) for k in range(2)]
        assert np.linalg.norm(q1 @ p2 - p2 @ q1) < 1e-13
        assert np.linalg.norm(q1 @ q2 - q2 @ q1) < 1e-13

    def test_hermitian(self):
        q, p = fock._quadratures(8, 1.0, 1.0)
        assert np.linalg.norm(q - q.conj().T) < 1e-13
        assert np.linalg.norm(p - p.conj().T) < 1e-13

    def test_ref_scale_sets_vacuum_variances(self):
        w = 2.5
        q, p = fock._quadratures(10, 1.0, w)
        vac = np.zeros(10)
        vac[0] = 1.0
        assert vac @ np.real(q @ q) @ vac == pytest.approx(1 / (2 * w))
        assert vac @ np.real(p @ p) @ vac == pytest.approx(w / 2)

    def test_bad_ref_scale(self):
        with pytest.raises(ValueError):
            fock._quadratures(4, 1.0, 0.0)


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
        H = build_koopman_hamiltonian(*pk, spec, hbar, ref_scale)[0].dense()
        ref = dense_koopman_hamiltonian(pk, spec, hbar, ref_scale)
        assert np.max(np.abs(H - ref)) <= 1e-14 * np.max(np.abs(ref))

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
        # only the commuting observables, on the modes of the layout
        _, Q, Pi = build_koopman_hamiltonian(*pk, spec, hbar, ref_scale)
        ref = koopman_ops(spec, hbar, ref_scale)
        assert np.array_equal(Q.dense(), ref["Q"])
        assert np.array_equal(Pi.dense(), ref["Pi"])

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
        # a dense complex H with no gauge and no parity, as a one-mode
        # operator
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
        P0 = quadrature_ops(spec)[0][1]
        res = commutator_residual(H, [Q, P0], [0.0, 1.0])
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
        # reference: full O(t) per time from the complex eigendecomposition
        # of the dense H, projected commutators
        spec = TruncationSpec(n_levels=8, n_modes=2, core_levels=3)
        H, Q, Pi = build_koopman_hamiltonian(*pk, spec)
        P0 = quadrature_ops(spec)[0][1]
        O_set = [Q, P0, Pi]
        t_grid = [0.0, 0.5, 1.5]
        P = dense_guard_projector(spec)
        ref = DenseEvolution(H.dense())
        evolved = [ref.evolve(O.dense(), t) for O in O_set for t in t_grid]
        reference = max(
            np.linalg.norm(P @ (A @ B - B @ A) @ P, 2)
            for A in evolved for B in evolved
        )
        res = commutator_residual(H, O_set, t_grid)
        assert reference > 0.5
        assert res == pytest.approx(reference, rel=1e-12)

    def test_matches_full_dense_reference(self):
        # the ``koopman`` command's flow at eps = 0.1
        self.check_against_full_dense_reference(koopman_flow(0.1))

    @pytest.mark.parametrize("pk", [koopman_flow(0.3), DAMPED_FLOW],
                             ids=["koopman-eps0.3", "damped"])
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
        for cls in (fock._DenseBasis, fock._ChiralBasis):
            for name in calls:
                def counted(self, X, _method=getattr(cls, name), _name=name):
                    calls[_name] += 1
                    return _method(self, X)
                monkeypatch.setattr(cls, name, counted)
        assert commutator_residual(H, O_set, [0.0, 1.0]) == ref
        assert calls == {"rows": 1, "times_adjoint": 1 + len(O_set)}


def dense_gauge(H, spec):
    """Reference gauge, read off the dense H: ``None`` when H is real as
    built, i^(total quanta) when that makes it real, else "complex"."""
    for u in (None, quanta_phases(spec)):
        G = H if u is None else u[:, None] * H * u.conj()
        if np.max(np.abs(G.imag)) <= 1e-14 * np.max(np.abs(G)):
            return u
    return "complex"


def dense_parity(H, spec):
    """Reference parity, read off the dense H: the first mode whose
    parity anticommutes with H exactly, else ``None``."""
    for mode in range(spec.n_modes):
        S = np.where(mode_parity(spec, mode), -1.0, 1.0)
        if not np.any(S[:, None] * H * S + H):
            return mode
    return None


def is_real_operator(op):
    """Every coefficient and every factor of a KronOperator is real."""
    return all(np.isrealobj(coef) and all(F is None or np.isrealobj(F)
                                          for F in factors)
               for coef, factors in op.terms)


# the six flows of the factor-level tests: expected gauge and parity mode
FLOWS = {
    "eps0": (koopman_flow(0.0), None, 0),
    "eps0.1": (koopman_flow(0.1), "quanta", 0),
    "eps0.3": (koopman_flow(0.3), "quanta", 0),
    "linear": (LINEAR_FLOW, None, 0),
    "mode1": (MODE1_FLOW, None, 1),
    "damped": (DAMPED_FLOW, "complex", None),
}


class TestFactorDecisions:
    """The gauge and the parity decided on the factors against the same
    decisions read off the dense Hamiltonian built from products."""

    @pytest.mark.parametrize("n_levels", [8, 9])
    @pytest.mark.parametrize("name", list(FLOWS))
    def test_gauge_and_parity_match_dense_references(self, name, n_levels):
        pk, gauge, mode = FLOWS[name]
        spec = TruncationSpec(n_levels=n_levels, n_modes=2, core_levels=2)
        H = build_koopman_hamiltonian(*pk, spec)[0]
        ref = dense_koopman_hamiltonian(pk, spec)
        u_ref = dense_gauge(ref, spec)
        Ht, u = real_gauge(H)
        if gauge == "complex":
            assert isinstance(u_ref, str)
            assert Ht is H and u is None
        elif gauge is None:
            assert u_ref is None and u is None
        else:
            assert np.array_equal(u, u_ref)
        if gauge != "complex":
            assert is_real_operator(Ht)
        assert chiral_parity(H) == chiral_parity(Ht) == dense_parity(ref, spec)
        assert chiral_parity(H) == mode


    @pytest.mark.parametrize("level", [0, 1])
    def test_one_equal_parity_entry_breaks_the_parity(self, level):
        # a diagonal entry on an even or on an odd level of mode 0
        spec = TruncationSpec(n_levels=6, n_modes=2, core_levels=2)
        H = build_koopman_hamiltonian(*koopman_flow(0.1), spec)[0]
        assert chiral_parity(H) == 0
        entry = np.zeros((6, 6))
        entry[level, level] = 1e-3
        broken = KronOperator(spec, H.terms + ((1.0, (entry, None)),))
        assert chiral_parity(broken) is None
        assert dense_parity(broken.dense(), spec) is None


class TestRealGauge:
    """The real symmetric eigendecomposition against the complex one."""

    @pytest.mark.parametrize("pk, gauged", [
        (koopman_flow(0.0), False), (koopman_flow(0.1), True),
        (koopman_flow(0.3), True), (koopman_flow(0.3, m=0.7, omega=1.4), True),
        (LINEAR_FLOW, False),
    ])
    def test_reversible_flow_is_real_in_the_gauge(self, pk, gauged):
        spec = TruncationSpec(n_levels=9, n_modes=2, core_levels=2)
        H = build_koopman_hamiltonian(*pk, spec)[0]
        Ht, u = real_gauge(H)
        assert is_real_operator(Ht)
        ref = dense_koopman_hamiltonian(pk, spec)
        u_ref = quanta_phases(spec) if gauged else np.ones(spec.dim)
        ref = u_ref[:, None] * ref * u_ref.conj()
        assert np.max(np.abs(ref.imag)) <= 1e-14 * np.max(np.abs(ref))
        Ht = Ht.dense()
        assert np.isrealobj(Ht)
        assert np.max(np.abs(Ht - ref.real)) <= 1e-14 * np.max(np.abs(ref))
        if gauged:
            assert np.array_equal(u, u_ref)
        else:
            assert u is None

    def test_damped_flow_stays_complex(self):
        spec = TruncationSpec(n_levels=8, n_modes=2, core_levels=3)
        H = build_koopman_hamiltonian(*DAMPED_FLOW, spec)[0]
        Ht, u = real_gauge(H)
        assert Ht is H and u is None

    @pytest.mark.parametrize("pk", [koopman_flow(0.1), LINEAR_FLOW,
                                    MODE1_FLOW])
    def test_propagator_matches_complex_eigh(self, pk, monkeypatch):
        # the real eigh and the chiral SVD, both in the real gauge,
        # against the complex eigh of H as built, at even and odd N
        for n_levels in (8, 9):
            spec = TruncationSpec(n_levels=n_levels, n_modes=2, core_levels=3)
            H, Q, Pi = build_koopman_hamiltonian(*pk, spec)
            Ht, u = real_gauge(H)
            assert is_real_operator(Ht) and np.iscomplexobj(H.dense())
            assert chiral_parity(Ht) is not None
            chiral = HeisenbergPropagator(H, 0.8)
            with monkeypatch.context() as m:
                m.setattr(fock, "chiral_parity", lambda H: None)
                real = HeisenbergPropagator(H, 0.8)
            self.check_propagators(H, (Q, Pi), spec, (real, chiral))

    @staticmethod
    def check_propagators(H, pair, spec, props):
        # every row and the kept rows, against the dense reference
        ref = DenseEvolution(H.dense(), 0.8)
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

    def test_real_and_complex_residuals_agree_at_24_levels(self, monkeypatch):
        # the converged residual is a near-cancellation: the two
        # eigensolvers agree to 1e-6 relative, not to the last digit
        spec = TruncationSpec(n_levels=24, n_modes=2, core_levels=2)
        H, Q, Pi = build_koopman_hamiltonian(*koopman_flow(0.1), spec)
        O_set = [Q, Pi]
        t_grid = np.linspace(0.0, 2.0, 5)
        res = commutator_residual(H, O_set, t_grid)
        monkeypatch.setattr(fock, "real_gauge", lambda H: (H, None))
        ref = commutator_residual(H, O_set, t_grid)
        assert 0 < res < 1e-5
        assert res == pytest.approx(ref, rel=1e-6)


class TestChiralSplit:
    """A mode parity that anticommutes with H: one SVD of the coupling
    block in place of the eigh."""

    @pytest.mark.parametrize("n_levels", [8, 9])
    @pytest.mark.parametrize("pk, mode", [
        (koopman_flow(0.0), 0), (koopman_flow(0.1), 0), (koopman_flow(0.3), 0),
        (LINEAR_FLOW, 0), (MODE1_FLOW, 1), (DAMPED_FLOW, None),
    ], ids=["eps0", "eps0.1", "eps0.3", "linear", "mode1", "damped"])
    def test_split_on_the_first_anticommuting_parity(self, pk, mode,
                                                     n_levels):
        spec = TruncationSpec(n_levels=n_levels, n_modes=2, core_levels=2)
        H = build_koopman_hamiltonian(*pk, spec)[0]
        for op in (H, real_gauge(H)[0]):
            assert chiral_parity(op) == mode
        if mode is not None:
            S = np.where(mode_parity(spec, mode), -1.0, 1.0)
            Hd = H.dense()
            assert not np.any(S[:, None] * Hd * S + Hd)

    @pytest.mark.parametrize("n_levels", [8, 9])
    @pytest.mark.parametrize("pk", [koopman_flow(0.1), koopman_flow(0.0),
                                    MODE1_FLOW],
                             ids=["gauged", "real", "mode1"])
    def test_eigenpairs(self, pk, n_levels):
        # at 9 levels the even class is larger: its extra left singular
        # vectors are the E = 0 eigenvectors
        spec = TruncationSpec(n_levels=n_levels, n_modes=2, core_levels=2)
        H = build_koopman_hamiltonian(*pk, spec)[0]
        prop = HeisenbergPropagator(H)
        assert isinstance(prop._basis, fock._ChiralBasis)
        assert np.isrealobj(prop._basis.U) and np.isrealobj(prop._basis.W)
        V, E = chiral_vectors(prop._basis), prop.energies
        assert np.array_equal(prop._basis.rows(every_row(spec)), V)
        if prop.phases is not None:
            V = prop.phases.conj()[:, None] * V
        H = H.dense()
        assert V.shape == H.shape and E.shape == (spec.dim,)
        scale = np.linalg.norm(H)
        assert np.linalg.norm(H @ V - V * E) < 1e-13 * scale
        assert np.linalg.norm(V.conj().T @ V - np.eye(spec.dim)) < 1e-13 \
            * spec.dim
        assert np.allclose(np.sort(E), np.linalg.eigvalsh(H),
                           atol=1e-13 * scale)
        assert np.count_nonzero(E == 0) == (spec.dim // n_levels
                                            if n_levels % 2 else 0)

    @pytest.mark.parametrize("n_levels", [8, 9])
    @pytest.mark.parametrize("pk", [koopman_flow(0.1), koopman_flow(0.0),
                                    MODE1_FLOW],
                             ids=["gauged", "real", "mode1"])
    def test_factors_match_the_assembled_vectors(self, pk, n_levels):
        # V and V+ applied through U and W, as evolve_rows does, against
        # the same products with V assembled from U and W in the test;
        # the rows against the dense reference
        spec = TruncationSpec(n_levels=n_levels, n_modes=2, core_levels=2)
        H, Q, Pi = build_koopman_hamiltonian(*pk, spec)
        prop = HeisenbergPropagator(H, 0.8)
        basis = prop._basis
        assert isinstance(basis, fock._ChiralBasis)
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
        monkeypatch.setattr(fock, "chiral_parity", lambda H: None)
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
