"""Classical flows for the commuting (Q, Pi) subsystem."""

import numpy as np
import pytest

from qmfslab import koopman
from qmfslab.koopman import (
    ClassicalFlow,
    FlowDivergenceError,
    StepSizeError,
    integrate,
    integrate_with_tangent,
)


def transport(flow, samples, T):
    """Phase-space samples, shape (n, 2) with columns (Q, Pi), pushed
    along the characteristics: the one RK4 sweep on their arrays, in
    steps of the flow's dt."""
    Q, Pi = koopman._rk4_sweep(flow, samples[:, 0], samples[:, 1], T,
                               koopman._n_steps(T, flow.dt), record=False)
    return np.column_stack([Q, Pi])


def harmonic_flow(m=1.0, omega=1.0, dt=1e-3):
    return ClassicalFlow(
        f=((0, 1, 1.0 / m),), g=((1, 0, m * omega**2),), dt=dt
    )


# the flow of the koopman command (m = omega = 1, epsilon = 0.1) and a
# Duffing oscillator
KOOPMAN_FLOW = ClassicalFlow(
    f=((0, 1, 1.0), (2, 0, 0.1)), g=((1, 0, 1.0),)
)
DUFFING_FLOW = ClassicalFlow(
    f=((0, 1, 1.0),), g=((1, 0, 1.0), (3, 0, 0.3))
)


class TestClassicalFlow:
    def test_velocity_sign_convention(self):
        # dQ/dt = f = Pi, dPi/dt = -g = -Q: one step of the harmonic flow
        # from (2, 3) against the rotation Q + i Pi -> (Q + i Pi) e^(-it);
        # a flipped sign is off by ~4 h
        h = 1e-3
        _, Qs, Ps = integrate(harmonic_flow(), 2.0, 3.0, T=h, dt=h)
        assert len(Qs) == 2
        assert Qs[-1] == pytest.approx(2.0 * np.cos(h) + 3.0 * np.sin(h),
                                       abs=1e-14)
        assert Ps[-1] == pytest.approx(3.0 * np.cos(h) - 2.0 * np.sin(h),
                                       abs=1e-14)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            ClassicalFlow(f=((0, 1, 1.0),), g=((1, 0, 1.0),), dt=0.0)

    @pytest.mark.parametrize("coef", [np.inf, -np.inf, np.nan])
    def test_non_finite_coefficient_rejected(self, coef):
        # before any sweep: the koopman command writes no classical.csv
        with pytest.raises(ValueError, match="coefficients must be finite"):
            ClassicalFlow(f=((0, 1, 1e-300),), g=((1, 0, coef),))


class TestIntegrate:
    def test_harmonic_closed_form(self):
        flow = harmonic_flow()
        times, Qs, Ps = integrate(flow, 1.0, 0.0, T=2 * np.pi)
        assert abs(Qs[-1] - 1.0) < 1e-9
        assert abs(Ps[-1]) < 1e-9
        # mid-trajectory check too
        k = len(times) // 4
        assert abs(Qs[k] - np.cos(times[k])) < 1e-9

    def test_energy_conservation(self):
        m, w = 2.0, 1.5
        flow = harmonic_flow(m, w)
        _, Qs, Ps = integrate(flow, 0.8, -0.3, T=5.0)
        E = Ps**2 / (2 * m) + 0.5 * m * w**2 * Qs**2
        assert np.max(np.abs(E - E[0])) < 1e-10

    def test_step_halving_guard(self):
        flow = ClassicalFlow(
            f=((0, 1, 1.0), (2, 0, 0.3)), g=((1, 0, 1.0),), dt=0.25
        )
        with pytest.raises(StepSizeError):
            integrate(flow, 1.5, 0.0, T=5.0, rtol=1e-12)

    def test_step_halving_check_when_dt_exceeds_T(self):
        # one RK4 step of h = 2 against two of h = 1; a check sweep that
        # rounded T / (dt / 2) would repeat the single step
        flow = ClassicalFlow(f=((0, 1, 1.0), (2, 0, 0.1)),
                             g=((1, 0, 1.0),), dt=3.0)
        with pytest.raises(StepSizeError):
            integrate(flow, 0.3, 0.0, T=2.0)

    def test_divergence_guard(self):
        # dQ/dt = Q^2 blows up in finite time
        flow = ClassicalFlow(f=((2, 0, 1.0),), g=((1, 0, 0.0), (0, 0, 0.0)), dt=1e-3)
        with pytest.raises(FlowDivergenceError):
            integrate(flow, 5.0, 0.0, T=10.0, check=False)

    def test_overflow_in_a_stage_is_a_divergence(self):
        # Q^2 of a stage overflows a Python float (OverflowError) before
        # the step's end point is formed
        flow = ClassicalFlow(f=((0, 1, 1.0), (2, 0, 1e300)), g=((1, 0, 1.0),))
        with pytest.raises(FlowDivergenceError,
                           match="exceeded 1e\\+12 at t = 0.001$"):
            integrate(flow, 0.0, 1.0, T=1.0)

    def test_nan_is_a_divergence(self):
        # 2 Q - 2 Q at Q = 1e308 is inf - inf: the end point is NaN, whose
        # size compares false against any bound
        flow = ClassicalFlow(f=((1, 0, 2.0), (1, 0, -2.0)), g=())
        with pytest.raises(FlowDivergenceError, match="at t = 0.001$"):
            integrate(flow, 1e308, 0.0, T=0.01)
        with np.errstate(all="ignore"), pytest.raises(FlowDivergenceError):
            integrate_with_tangent(flow, 1e308, 0.0, T=0.01)

    def test_divergence_guard_on_every_path(self):
        # the scalar sweep of integrate and the complex length-2 array
        # sweep of the tangent map stop at one step
        flow = ClassicalFlow(f=((2, 0, 1.0),), g=((1, 0, 0.0),), dt=1e-3)
        messages = []
        for run in (lambda: integrate(flow, 5.0, 0.0, T=1.0, check=False),
                    lambda: integrate_with_tangent(flow, 5.0, 0.0, T=1.0)):
            with pytest.raises(FlowDivergenceError) as err:
                run()
            messages.append(str(err.value))
        assert messages == ["trajectory norm exceeded 1e+12 at t = 0.201"] * 2

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            integrate(harmonic_flow(), 1.0, 0.0, T=0.0)


class TestTangent:
    def test_hamiltonian_flow_preserves_area(self):
        # Duffing oscillator: f = Pi, g = Q + 0.3 Q^3 has zero divergence
        _, J = integrate_with_tangent(DUFFING_FLOW, 0.5, -0.2, T=3.0)
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-8)

    def test_harmonic_monodromy(self):
        flow = harmonic_flow()
        _, J = integrate_with_tangent(flow, 0.3, 0.4, T=2 * np.pi)
        assert np.allclose(J, np.eye(2), atol=1e-8)

    def test_dissipative_flow_contracts(self):
        # f = Pi - 0.5 Q gives divergence -0.5: area shrinks as exp(-t/2)
        flow = ClassicalFlow(
            f=((0, 1, 1.0), (1, 0, -0.5)), g=((1, 0, 1.0),), dt=1e-3
        )
        _, J = integrate_with_tangent(flow, 1.0, 0.0, T=2.0)
        assert np.linalg.det(J) == pytest.approx(np.exp(-1.0), rel=1e-5)

    @pytest.mark.parametrize("flow", [KOOPMAN_FLOW, DUFFING_FLOW],
                             ids=["koopman", "duffing"])
    def test_matches_central_differences_of_integrate(self, flow):
        # an oracle apart from the complex step: difference quotients of
        # the real-valued sweep's end points
        y0, T, eps = np.array([0.5, -0.2]), 3.0, 1e-5
        _, J = integrate_with_tangent(flow, *y0, T=T)

        def end_point(y):
            _, Qs, Ps = integrate(flow, *y, T=T, check=False)
            return np.array([Qs[-1], Ps[-1]])

        J_fd = np.column_stack([
            (end_point(y0 + eps * e) - end_point(y0 - eps * e)) / (2 * eps)
            for e in np.eye(2)
        ])
        assert np.max(np.abs(J - J_fd)) <= 1e-7 * np.max(np.abs(J_fd))

    @pytest.mark.parametrize("flow", [KOOPMAN_FLOW, DUFFING_FLOW],
                             ids=["koopman", "duffing"])
    def test_end_point_is_integrates_last_row(self, flow):
        y, _ = integrate_with_tangent(flow, 0.5, -0.2, T=3.0)
        _, Qs, Ps = integrate(flow, 0.5, -0.2, T=3.0, check=False)
        assert np.array_equal(y, [Qs[-1], Ps[-1]])


class TestTransport:
    def test_rotation_of_gaussian_cloud(self):
        # harmonic flow rotates the phase plane rigidly, so transported
        # moments are the rotated initial moments
        rng = np.random.default_rng(3)
        mean0 = np.array([1.0, -0.5])
        cov0 = np.array([[0.5, 0.1], [0.1, 0.3]])
        samples = rng.multivariate_normal(mean0, cov0, size=4000)
        flow = harmonic_flow()
        t = 1.3
        out = transport(flow, samples, t)
        c, s = np.cos(t), np.sin(t)
        R = np.array([[c, s], [-s, c]])
        m_in, c_in = np.average(samples, axis=0), np.cov(samples.T, bias=True)
        assert np.allclose(np.average(out, axis=0), R @ m_in, atol=1e-8)
        assert np.allclose(np.cov(out.T, bias=True), R @ c_in @ R.T,
                           atol=1e-8)


def reference_rk4(f, g, Q, Pi, T, n_steps, record):
    """Textbook RK4 for dQ/dt = f, dPi/dt = -g, the polynomials evaluated
    term by term from 0.0; (times, Qs, Ps) or the end point."""

    def poly(terms, Q, Pi):
        total = 0.0
        for a, b, coef in terms:
            total = total + coef * Q ** a * Pi ** b
        return total

    def velocity(Q, Pi):
        return poly(f, Q, Pi), -poly(g, Q, Pi)

    h = T / n_steps
    t = 0.0
    times, Qs, Ps = [t], [Q], [Pi]
    for _ in range(n_steps):
        k1q, k1p = velocity(Q, Pi)
        k2q, k2p = velocity(Q + h / 2 * k1q, Pi + h / 2 * k1p)
        k3q, k3p = velocity(Q + h / 2 * k2q, Pi + h / 2 * k2p)
        k4q, k4p = velocity(Q + h * k3q, Pi + h * k3p)
        Q = Q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        Pi = Pi + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        t += h
        times.append(t)
        Qs.append(Q)
        Ps.append(Pi)
    if record:
        return np.array(times), np.array(Qs), np.array(Ps)
    return Q, Pi


# degree 4 with powers of Pi up to 4 and mixed monomials
QUARTIC_FLOW = ClassicalFlow(
    f=((0, 1, 1.0), (0, 3, -0.05), (1, 2, 0.02), (2, 0, 0.1)),
    g=((1, 0, 1.0), (3, 0, 0.1), (2, 2, -0.01), (0, 4, 0.003), (0, 0, 0.0)),
)


class TestSweepMatchesTextbookRk4:
    """The sweep is the textbook RK4, operation for operation: its
    results equal a plain reference loop bit for bit."""

    @pytest.mark.parametrize("flow", [KOOPMAN_FLOW, QUARTIC_FLOW],
                             ids=["koopman", "quartic"])
    def test_trajectory(self, flow):
        times, Qs, Ps = integrate(flow, 0.3, -0.2, T=2.0, check=False)
        ref = reference_rk4(flow.f, flow.g, 0.3, -0.2, 2.0, 2000, True)
        for got, want in zip((times, Qs, Ps), ref):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("flow", [KOOPMAN_FLOW, QUARTIC_FLOW],
                             ids=["koopman", "quartic"])
    def test_samples_and_complex_step(self, flow):
        samples = np.random.default_rng(2).normal(scale=0.4, size=(16, 2))
        out = transport(flow, samples, 0.7)
        Q, Pi = reference_rk4(flow.f, flow.g, samples[:, 0], samples[:, 1],
                              0.7, 700, False)
        assert np.array_equal(out, np.column_stack([Q, Pi]))
        y, J = integrate_with_tangent(flow, 0.3, -0.2, 0.7)
        step = 1e-30j
        Q, Pi = reference_rk4(flow.f, flow.g, np.array([0.3 + step, 0.3]),
                              np.array([-0.2, -0.2 + step]), 0.7, 700, False)
        assert np.array_equal(y, [Q[0].real, Pi[0].real])
        assert np.array_equal(J, np.array([Q.imag, Pi.imag]) / 1e-30)
