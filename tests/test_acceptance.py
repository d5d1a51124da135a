"""End-to-end acceptance checks.

One test per headline claim, each asserting the stated tolerance:

1. commuting-set verdicts on the oscillator pair
2. two-time commutators, linear engine vs dense truncated-Fock oracle
3. back-action cancellation geometry
4. conditional purity / sub-Heisenberg squeezing / entanglement
5. force response and estimation (analytic + Monte Carlo)
6. nonlinear classical dynamics vs the dense oracle
7. finite-J0 spin pair vs the Gaussian limit
8. stroboscopic circuit propagation vs dense conjugation
9. bit-identical reproducibility of the batch runner
"""

import numpy as np
import pytest
from circuit_reference import (
    all_circuits_exhaustive,
    build_classical_function,
    random_circuit,
    truth_table_from_function,
)
from dense_reference import DenseEvolution
from test_fock import oscillator_hamiltonian, quadrature_ops
from test_koopman import transport
from test_spins import DensePair, low_excitation_norm

from qmfslab import circuits, fock, koopman, models, spins
from qmfslab.cli import EXIT_OK, main as cli_main
from qmfslab.conditional import (
    ForceDrive,
    MeasurementChannel,
    backaction_diffusion,
    estimate_force_batch,
    force_posterior_std,
    is_physical_cov,
    partial_transpose_cov,
    riccati_evolve,
    simulate_batch,
    vacuum_state,
)
from qmfslab.phase_space import ObservableSet, is_qmfs, two_time_commutator

HBAR = 1.0


def pair_bundle():
    return models.oscillator_pair(1.0, 1.0, HBAR)


def pair_fock_setup(n_levels, core_levels):
    """Pair Hamiltonian and collective observables (m = omega = 1), as
    Kronecker-factor operators."""
    spec = fock.TruncationSpec(
        n_levels=n_levels, n_modes=2, core_levels=core_levels
    )
    def combination(*parts):
        """sum of c * op over the (c, op) parts, term by term."""
        return fock.KronOperator(spec, tuple(
            (c * coef, factors) for c, op in parts for coef, factors in op.terms))

    H = combination((1.0, oscillator_hamiltonian(spec, 1.0, 1.0, mode=0)),
                    (1.0, oscillator_hamiltonian(spec, -1.0, 1.0, mode=1)))
    (q0, p0), (q1, p1) = quadrature_ops(spec, ref_scale=1.0)
    obs = {"Q": combination((1.0, q0), (1.0, q1)),
           "P": combination((0.5, p0), (0.5, p1)),
           "Pi": combination((1.0, p0), (-1.0, p1))}
    return spec, H, obs


class TestCriterion1Verdicts:
    def test_verdicts_with_witnesses(self):
        b = pair_bundle()
        model = b.model
        passing = [
            ObservableSet(np.array([models.ROW_Q, models.ROW_PI]), ("Q", "Pi")),
            ObservableSet(np.array([models.ROW_PHI, models.ROW_P]), ("Phi", "P")),
        ]
        failing = [
            ObservableSet(np.eye(4)[:2], ("q", "p")),
            ObservableSet(np.array([models.ROW_Q, models.ROW_P]), ("Q", "P")),
            ObservableSet(np.array([models.ROW_PHI, models.ROW_PI]), ("Phi", "Pi")),
        ]
        for obs in passing:
            verdict = is_qmfs(model, obs)
            assert verdict.is_qmfs, obs.labels
        for obs in failing:
            verdict = is_qmfs(model, obs)
            assert not verdict.is_qmfs, obs.labels
            assert verdict.witness is not None


class TestCriterion2TwoTimeCommutators:
    def test_linear_engine_grid(self):
        model = pair_bundle().model
        obs = ObservableSet(
            np.array([models.ROW_Q, models.ROW_PI]), ("Q", "Pi")
        )
        grid = np.linspace(0.0, 10.0, 20)
        worst = max(
            float(np.max(np.abs(two_time_commutator(model, obs, t, tp))))
            for t in grid
            for tp in grid
        )
        assert worst < 1e-10 * HBAR

    def test_fock_oracle_collective_pair(self):
        spec, H, obs = pair_fock_setup(n_levels=20, core_levels=6)
        # no mode parity anticommutes with the pair's H: the run takes the
        # propagator's dense eigh branch, which no command's flow reaches
        assert fock.chiral_parity(H) is None
        t_grid = np.linspace(0.0, 10.0, 20)
        res = fock.commutator_residual(H, [obs["Q"], obs["Pi"]], t_grid)
        assert res < 1e-8 * HBAR

    def test_fock_oracle_q_p_cosine(self):
        # [Q(t), P(t')] = i hbar cos(t - t') on the trusted core
        spec, H, obs = pair_fock_setup(n_levels=20, core_levels=6)
        ref = DenseEvolution(H.dense())
        keep = fock.core_mask(spec)
        ts = np.linspace(0.0, 10.0, 8)
        Q, P = obs["Q"].dense(), obs["P"].dense()
        Qt = {t: ref.evolve(Q, t) for t in ts}
        Pt = {t: ref.evolve(P, t) for t in ts}
        eye = np.eye(spec.dim)
        worst = 0.0
        for t in ts:
            for tp in ts:
                C = Qt[t] @ Pt[tp] - Pt[tp] @ Qt[t]
                C = C - 1j * HBAR * np.cos(t - tp) * eye
                worst = max(
                    worst, np.linalg.norm(C[np.ix_(keep, keep)], 2)
                )
        assert worst < 1e-8


class TestCriterion3BackactionCancellation:
    def test_projected_diffusion_vanishes(self):
        model = pair_bundle().model
        ch = MeasurementChannel(models.ROW_Q, 5.0, 1.0)
        D = backaction_diffusion(model, ch)
        S = np.vstack([models.ROW_Q, models.ROW_PI])
        assert np.max(np.abs(S @ D @ S.T)) < 1e-14

    def test_equal_backaction_on_both_momenta(self):
        model = pair_bundle().model
        ch = MeasurementChannel(models.ROW_Q, 5.0, 1.0)
        D = backaction_diffusion(model, ch)
        assert D[1, 1] > 0
        assert D[1, 1] == pytest.approx(D[3, 3], rel=1e-14)
        # and nothing lands on the positions
        assert D[0, 0] == 0.0 and D[2, 2] == 0.0


class TestCriterion4PurityAndSqueezing:
    def test_single_oscillator_pure_steady_state(self):
        model = models.single_oscillator(1.0, 1.0, HBAR).model
        ch = (MeasurementChannel(np.array([1.0, 0.0]), 2.0, 1.0),)
        # T = 100 is long past the flow's relaxation: the steady state
        V = riccati_evolve(model, ch, vacuum_state(model).cov, T=100.0)
        assert abs(np.linalg.det(V) - (HBAR / 2) ** 2) < 1e-12

    def test_pair_collective_block_below_heisenberg(self):
        model = pair_bundle().model
        S = np.vstack([models.ROW_Q, models.ROW_PI])
        dets = []
        for k in (1.0, 3.0, 10.0):
            ch = (MeasurementChannel(models.ROW_Q, k, 1.0),)
            V = riccati_evolve(model, ch, vacuum_state(model).cov, T=10.0)
            dets.append(np.linalg.det(S @ V @ S.T))
        assert all(d < (HBAR / 2) ** 2 for d in dets)
        assert dets[0] > dets[1] > dets[2]  # deeper squeezing at larger k

    def test_partial_transpose_detects_entanglement(self):
        model = pair_bundle().model
        ch = (MeasurementChannel(models.ROW_Q, 5.0, 1.0),)
        V = riccati_evolve(model, ch, vacuum_state(model).cov, T=10.0)
        assert is_physical_cov(V, model.Omega, HBAR)
        assert not is_physical_cov(
            partial_transpose_cov(V, 1), model.Omega, HBAR
        )


class TestCriterion5ForceResponseAndEstimation:
    def test_transfer_function_identical_to_single_oscillator(self):
        pair = pair_bundle().model
        single = models.single_oscillator(1.0, 1.0, HBAR).model
        b_pair = pair.force_couplings[0]
        b_single = single.force_couplings[0]
        worst = 0.0
        # two decades around the mechanical resonance (the pole itself
        # cancels identically on both sides, so the grid avoids it)
        for w in np.logspace(-1.0, 1.0, 40):
            chi_pair = models.ROW_Q @ np.linalg.solve(
                1j * w * np.eye(4) - pair.A, b_pair
            )
            chi_single = np.array([1.0, 0.0]) @ np.linalg.solve(
                1j * w * np.eye(2) - single.A, b_single
            )
            worst = max(worst, abs(chi_pair - chi_single))
        assert worst < 1e-12

    def test_pair_beats_single_posterior_std(self):
        pair = pair_bundle().model
        single = models.single_oscillator(1.0, 1.0, HBAR).model
        for k in (2.0, 10.0):
            ch_p = (MeasurementChannel(models.ROW_Q, k, 1.0),)
            ch_s = (MeasurementChannel(np.array([1.0, 0.0]), k, 1.0),)
            tp = ForceDrive.sinusoid(pair.force_couplings[0], 1.0, 1.0)
            ts = ForceDrive.sinusoid(single.force_couplings[0], 1.0, 1.0)
            sp = force_posterior_std(pair, ch_p, tp, dt=2e-3, T=10.0)
            ss = force_posterior_std(single, ch_s, ts, dt=2e-3, T=10.0)
            assert sp / ss < 1.0

    def test_monte_carlo_consistent_with_analytic(self):
        # 200 seeds; sample mean within 3 sigma/sqrt(n) of the injected
        # amplitude, sample std within 3 sigma/sqrt(2(n-1)) of the
        # augmented-Riccati prediction
        model = pair_bundle().model
        ch = (MeasurementChannel(models.ROW_Q, 2.0, 1.0),)
        drive = ForceDrive.sinusoid(model.force_couplings[0], 1.0, 1.0)
        n = 200
        batch = simulate_batch(
            model, vacuum_state(model), ch, drive,
            dt=2e-3, T=10.0, master_seed=42, n_traj=n,
        )
        est = estimate_force_batch(batch.records, model, ch, drive, 2e-3)
        amps, sigma = est.amplitude, est.posterior_std
        assert abs(amps.mean() - 1.0) < 3 * sigma / np.sqrt(n)
        assert abs(amps.std(ddof=1) - sigma) < 3 * sigma / np.sqrt(2 * (n - 1))


class TestCriterion6NonlinearKoopman:
    F_POLY = ((0, 1, 1.0), (2, 0, 0.1))  # f = Pi/m + 0.1 Q^2
    G_POLY = ((1, 0, 1.0),)  # g = m w^2 Q

    def _residual(self, n_levels):
        spec = fock.TruncationSpec(
            n_levels=n_levels, n_modes=2, core_levels=2
        )
        H, Q, Pi = fock.build_koopman_hamiltonian(self.F_POLY, self.G_POLY,
                                                  spec)
        t_grid = np.linspace(0.0, 2.0, 5)
        return fock.commutator_residual(H, [Q, Pi], t_grid)

    def test_oracle_residual_converges(self):
        residuals = [self._residual(n) for n in (10, 15, 20, 25)]
        assert residuals[0] > residuals[1] > residuals[2] > residuals[3]
        assert residuals[-1] < 1e-5 * HBAR

    def test_classical_mean_matches_oracle(self):
        # exact <Q(t)> for a coherent x vacuum initial state vs Liouville
        # transport of the matching (Q, Pi) Gaussian, deterministic
        # Gauss-Hermite quadrature; tolerance scaled by the Q spread
        spec = fock.TruncationSpec(n_levels=25, n_modes=2, core_levels=4)
        H, Q, Pi = (op.dense() for op in fock.build_koopman_hamiltonian(
            self.F_POLY, self.G_POLY, spec))

        N = spec.n_levels
        alpha = 0.8
        ns = np.arange(N)
        log_fact = np.cumsum(np.concatenate([[0.0], np.log(ns[1:])]))
        coh = np.exp(-alpha**2 / 2 + ns * np.log(alpha) - log_fact / 2)
        coh = coh / np.linalg.norm(coh)
        psi = np.kron(coh, np.eye(N)[0]).astype(complex)

        def expval(op, state):
            return float(np.real(state.conj() @ op @ state))

        q0 = expval(Q, psi)
        var_q = expval(Q @ Q, psi) - q0**2
        pi0 = expval(Pi, psi)
        var_pi = expval(Pi @ Pi, psi) - pi0**2

        ref = DenseEvolution(H)

        nodes, w = np.polynomial.hermite_e.hermegauss(11)
        Qg, Pg = np.meshgrid(
            q0 + np.sqrt(var_q) * nodes,
            pi0 + np.sqrt(var_pi) * nodes,
            indexing="ij",
        )
        weights = np.outer(w, w).ravel()
        samples = np.stack([Qg.ravel(), Pg.ravel()], axis=1)
        flow = koopman.ClassicalFlow(self.F_POLY, self.G_POLY, dt=1e-3)

        for t in (0.5, 1.0, 1.5, 2.0):
            psit = ref.evolve_state(psi, t)
            exact = expval(Q, psit)
            mean = np.average(transport(flow, samples, t), axis=0,
                              weights=weights)
            assert abs(mean[0] - exact) < 1e-3 * np.sqrt(var_q)


class TestCriterion7SpinPair:
    def test_exact_commutator_identity(self):
        for J0 in (2.0, 4.0, 8.0):
            pair = spins.build_spin_pair(J0, 1.0, HBAR)
            for t, tp in [(0.0, 0.7), (1.3, 0.4), (2.5, 1.1)]:
                assert spins.qmfs_commutator_identity(pair, t, tp) < 1e-10

    def test_low_excitation_norm_decays_with_j0(self):
        # the dense oracle's restricted norm is the closed form, 2/J0 here
        norms = []
        for J0 in (2.0, 4.0, 8.0):
            pair = spins.build_spin_pair(J0, 1.0, HBAR)
            dense = DensePair(pair)
            norms.append(dense.excitation_restricted_norm(0.0, 0.7, n_max=2))
            assert norms[-1] == pytest.approx(
                low_excitation_norm(pair, 0.0, 0.7, n_max=2), abs=1e-13)
        assert norms[0] > norms[1] > norms[2]

    def test_hp_deviation_decreases_with_j0(self):
        devs = [
            spins.hp_agreement(
                spins.build_spin_pair(J0, 1.0, HBAR),
                0.5,
                np.linspace(0.0, 2 * np.pi, 9),
            )[1]
            for J0 in (4.0, 8.0, 16.0)
        ]
        assert devs[0] > devs[1] > devs[2]

    # the block path reaches the large-J0 limit (dimension up to 257^2)
    LARGE_J0 = (16.0, 32.0, 64.0, 128.0)

    @pytest.fixture(scope="class")
    def large_pairs(self):
        return [spins.build_spin_pair(J0, 1.0, HBAR) for J0 in self.LARGE_J0]

    @staticmethod
    def loglog_slope(values, J0s):
        return np.polyfit(np.log(J0s), np.log(values), 1)[0]

    def test_identity_residual_at_large_j0(self, large_pairs):
        # the residual bound measured about eps ||Q||^2 ~ 4 J0 eps
        # (8e-14 at J0 = 128), far below the unchanged tolerance
        for pair in large_pairs:
            assert spins.qmfs_commutator_identity(pair, 0.7, 0.2) < 1e-10

    def test_low_excitation_norm_falls_as_one_over_j0(self, large_pairs):
        """The restricted norm is the closed form to within 1e-10.

        With R = [Q(t), Q(t')] - i hbar sin(gamma B0 (t' - t))
        (Jz + J'z)/J0, the commutator's block on the kept states is the
        closed form's block plus R's.  R's block is a principal
        submatrix of R, so ||R_kept||_2 <= ||R||_2 <=
        qmfs_commutator_identity < 1e-10, and the restricted norm differs
        from the closed form's by at most that.  The closed form's kept
        block is diagonal, so its norm is the largest |m + m'| on the
        kept grid times hbar^2 |sin(gamma B0 (t' - t))| / J0: 1/J0.
        """
        norms = []
        for pair in large_pairs:
            assert spins.qmfs_commutator_identity(pair, 0.0, 0.7) < 1e-10
            norms.append(low_excitation_norm(pair, 0.0, 0.7, n_max=2))
        assert all(np.diff(norms) < 0)
        assert self.loglog_slope(norms, self.LARGE_J0) == pytest.approx(
            -1.0, abs=1e-12)

    def test_hp_deviation_keeps_falling(self, large_pairs):
        devs = [spins.hp_agreement(pair, 0.5,
                                   np.linspace(0.0, 2 * np.pi, 9))[1]
                for pair in large_pairs]
        assert all(np.diff(devs) < 0)
        assert self.loglog_slope(devs, self.LARGE_J0) < -0.9


class TestCriterion8Stroboscopic:
    def test_cnot_and_toffoli_maps_exact(self):
        cnot = circuits.ReversibleCircuit(2, (("CX", 0, 1),))
        assert circuits.dense_oracle_check(cnot) == 0
        f = circuits.propagate_z(cnot)[1]
        for x in range(4):
            assert f.table[x] == (x & 1) ^ ((x >> 1) & 1)  # Z'_2 = Z_1 Z_2

        toffoli = circuits.ReversibleCircuit(3, (("CCX", 0, 1, 2),))
        assert circuits.dense_oracle_check(toffoli) == 0
        g = circuits.propagate_z(toffoli)[2]
        for x in range(8):
            b0, b1, b2 = x & 1, (x >> 1) & 1, (x >> 2) & 1
            assert g.table[x] == b2 ^ (b0 & b1)

    def test_exhaustive_small_circuits(self):
        for n_bits in (1, 2, 3):
            for c in all_circuits_exhaustive(n_bits, 2):
                assert circuits.dense_oracle_check(c) == 0

    def test_hundred_random_circuits(self):
        rng = np.random.default_rng(2024)
        # widths weighted toward the cheap end; a few full-width checks
        widths = [2, 3, 4, 5, 6] * 19 + [7, 7, 7, 8, 8]
        assert len(widths) == 100
        for n_bits in widths:
            c = random_circuit(n_bits, 25, rng)
            assert circuits.dense_oracle_check(c) == 0

    def test_full_adder_synthesis_round_trip(self):
        s = truth_table_from_function(3, lambda a, b, c: a ^ b ^ c)
        cy = truth_table_from_function(
            3, lambda a, b, c: (a & b) | (b & c) | (a & c)
        )
        circuit, output_bits = build_classical_function([s, cy], 3)
        assert circuits.dense_oracle_check(circuit) == 0
        for target, out_bit in zip([s, cy], output_bits):
            # the outputs and ancillas start at 0: the first 2^3 inputs
            back = circuits.propagate_z(circuit)[out_bit].table[:1 << 3]
            assert np.array_equal(back, target.table)


class TestCriterion9Determinism:
    def test_serial_parallel_and_rerun_identical(self, tmp_path):
        def run(out, parallel):
            code = cli_main(
                [
                    "--out", str(out), "--seed", "3", "simulate",
                    "--model", "pair", "--k", "2.0", "--dt", "1e-3",
                    "--T", "0.5", "--batch", "4", "--parallel", str(parallel),
                ]
            )
            assert code == EXIT_OK

        run(tmp_path / "serial", 1)
        run(tmp_path / "parallel", 4)
        run(tmp_path / "again", 1)
        for i in range(4):
            for stem in ("trajectory", "covariance"):
                name = f"{stem}_{i:04d}.csv"
                ref = (tmp_path / "serial" / name).read_bytes()
                assert (tmp_path / "parallel" / name).read_bytes() == ref
                assert (tmp_path / "again" / name).read_bytes() == ref
