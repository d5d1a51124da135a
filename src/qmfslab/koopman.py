"""Classical flows for the (Q, Pi) subsystem.

The subsystem obeys dQ/dt = f(Q, Pi), dPi/dt = -g(Q, Pi) for whatever
f and g were built into the coupled quantum model, so its
trajectories and Liouville densities are plain classical objects.  A
polynomial is a tuple of terms (a, b, coef), each the monomial
coef Q^a Pi^b; the same tuples build the dense Fock oracle's
Hamiltonian (``fock.build_koopman_hamiltonian``).  This
module integrates them with one RK4 sweep: trajectories (with a
step-halving error estimate) and tangent maps as the complex-step
derivative of that sweep (Martins, Sturdza & Alonso, ACM TOMS 29:245,
2003).  The sweep steps an array of points at once as readily as one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClassicalFlow",
    "FlowDivergenceError",
    "StepSizeError",
    "integrate",
    "integrate_with_tangent",
]

BLOWUP_NORM = 1e12  # arbitrary but documented; nonlinear flows may escape
COMPLEX_STEP = 1e-30  # imaginary displacement of the tangent map


class FlowDivergenceError(RuntimeError):
    """Trajectory norm exceeded the blowup guard."""


class StepSizeError(RuntimeError):
    """Step-halving error estimate exceeded the requested tolerance."""


@dataclass(frozen=True)
class ClassicalFlow:
    """Velocity field (f, -g), integrated in RK4 steps of ``dt``.

    f and g are tuples of terms (a, b, coef), each the monomial
    coef Q^a Pi^b: the polynomials ``fock.build_koopman_hamiltonian``
    builds the dense oracle's H from, read as they are.
    """

    f: tuple
    g: tuple
    dt: float = 1e-3

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if not all(math.isfinite(c) for _, _, c in (*self.f, *self.g)):
            raise ValueError("coefficients must be finite")


def _n_steps(T: float, dt: float) -> int:
    """Number of equal RK4 steps over [0, T] nearest to step size dt."""
    return max(1, int(round(T / dt)))


def _rk4_sweep(flow: ClassicalFlow, Q, Pi, T: float, n_steps: int,
               record: bool):
    h = T / n_steps
    t = 0.0
    scalar = np.ndim(Q) == 0  # one trajectory: guard without a reduction
    times, Qs, Ps = [t], [Q], [Pi]
    f, g = flow.f, flow.g
    half, sixth = h / 2, h / 6
    # velocity (f, -g) at the four stages, written out: each a sum of
    # coef Q^a Pi^b over the terms, in order from 0.0
    for _ in range(n_steps):
        t += h
        try:
            k1q = k1p = 0.0
            for a, b, c in f:
                k1q = k1q + c * Q ** a * Pi ** b
            for a, b, c in g:
                k1p = k1p + c * Q ** a * Pi ** b
            k1p = -k1p
            Q2, P2 = Q + half * k1q, Pi + half * k1p
            k2q = k2p = 0.0
            for a, b, c in f:
                k2q = k2q + c * Q2 ** a * P2 ** b
            for a, b, c in g:
                k2p = k2p + c * Q2 ** a * P2 ** b
            k2p = -k2p
            Q3, P3 = Q + half * k2q, Pi + half * k2p
            k3q = k3p = 0.0
            for a, b, c in f:
                k3q = k3q + c * Q3 ** a * P3 ** b
            for a, b, c in g:
                k3p = k3p + c * Q3 ** a * P3 ** b
            k3p = -k3p
            Q4, P4 = Q + h * k3q, Pi + h * k3p
            k4q = k4p = 0.0
            for a, b, c in f:
                k4q = k4q + c * Q4 ** a * P4 ** b
            for a, b, c in g:
                k4p = k4p + c * Q4 ** a * P4 ** b
            k4p = -k4p
            Q = Q + sixth * (k1q + 2 * k2q + 2 * k3q + k4q)
            Pi = Pi + sixth * (k1p + 2 * k2p + 2 * k3p + k4p)
            size = (math.hypot(Q.real, Pi.real) if scalar
                    else np.max(np.hypot(Q.real, Pi.real)))
        except OverflowError:  # a stage of one trajectory left the floats
            size = math.inf
        # a NaN size compares false: it is a divergence too
        if not size <= BLOWUP_NORM:
            raise FlowDivergenceError(
                f"trajectory norm exceeded {BLOWUP_NORM:g} at t = {t:.6g}"
            )
        if record:
            times.append(t)
            Qs.append(Q)
            Ps.append(Pi)
    if record:
        return np.array(times), np.array(Qs), np.array(Ps)
    return Q, Pi


def integrate(
    flow: ClassicalFlow,
    Q0: float,
    Pi0: float,
    T: float,
    dt: float = None,
    check: bool = True,
    rtol: float = 1e-8,
):
    """RK4 trajectory (times, Q(t), Pi(t)).

    With ``check`` on, the endpoint is re-integrated with exactly twice
    the number of steps, so at half the step actually taken even when dt
    exceeds T, and the relative difference must stay below ``rtol``.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    dt = flow.dt if dt is None else dt
    n_steps = _n_steps(T, dt)
    times, Qs, Ps = _rk4_sweep(flow, float(Q0), float(Pi0), T, n_steps,
                               record=True)
    if check:
        Qh, Ph = _rk4_sweep(flow, float(Q0), float(Pi0), T, 2 * n_steps,
                            record=False)
        scale = max(1.0, abs(Qh), abs(Ph))
        err = max(abs(Qs[-1] - Qh), abs(Ps[-1] - Ph)) / scale
        if err > rtol:
            raise StepSizeError(
                f"step-halving error {err:.3g} exceeds rtol {rtol:g}; "
                f"reduce dt below {dt:g}"
            )
    return times, Qs, Ps


def integrate_with_tangent(flow: ClassicalFlow, Q0: float, Pi0: float,
                           T: float):
    """End point y(T) = (Q, Pi) and the tangent map J(T) = dy(T)/dy(0).

    One RK4 sweep at the flow's dt on two complex copies of the initial
    point, copy j displaced by i * COMPLEX_STEP along direction j: Re
    gives y, and Im / COMPLEX_STEP gives column j of J, the derivative of
    the RK4 map to rounding (no difference quotient, so no cancellation).
    The polynomial f and g are analytic, which the complex step needs.

    det J measures phase-space area change: 1 for Hamiltonian flows,
    exp(-integrated divergence) otherwise.
    """
    step = 1j * COMPLEX_STEP
    Q = np.array([float(Q0) + step, float(Q0)])
    Pi = np.array([float(Pi0), float(Pi0) + step])
    Q, Pi = _rk4_sweep(flow, Q, Pi, T, _n_steps(T, flow.dt), record=False)
    y = np.array([Q[0].real, Pi[0].real])
    J = np.array([Q.imag, Pi.imag]) / COMPLEX_STEP
    return y, J
