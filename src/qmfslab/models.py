"""Constructors for the concrete back-action-evading model zoo.

Every builder returns a :class:`ModelBundle`: the linear model in the
physical basis, the observable sets that are known to form
quantum-mechanics-free subsystems, and the other facts a run reads of a
model.  A model file (``model_to_json``/``model_from_json``) is read as
a bundle too.  The central instance is the
positive/negative-mass oscillator pair, where the collective variables

    Q = q + q',   P = (p + p')/2,   Phi = (q - q')/2,   Pi = p - p'

split the dynamics into two commuting oscillator subsystems {Q, Pi} and
{Phi, P}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .phase_space import (LinearModel, ObservableSet, _check_finite,
                          _check_square, is_qmfs)

__all__ = [
    "ModelBundle",
    "frequency",
    "model_to_json",
    "model_from_json",
    "single_oscillator",
    "oscillator_pair",
    "sideband_model",
    "spin_pair_hp",
    "BUILDERS",
]


@dataclass(frozen=True)
class ModelBundle:
    """A model and every fact a run reads of it.

    - ``qmfs_sets``: observable sets declared to be QMFS, each checked
      here with ``is_qmfs``.
    - ``omega``: the frequency a force template is tuned to.
    - ``m``: the mass of the positive-mass oscillator of the pair the
      model maps to (None: it maps to none).
    - ``monitor``: the row s whose s.x ``simulate --k`` and ``force``
      measure (None: the model names none, and a monitored run is bad
      input).  It has 2 n_modes finite entries, not all zero.
    - ``observables``: sets ``check`` reports on beside ``qmfs_sets``,
      with no QMFS claim.
    """

    model: LinearModel
    qmfs_sets: tuple
    description: str
    omega: float = 1.0
    m: float | None = None
    monitor: np.ndarray | None = None
    observables: tuple = ()

    def __post_init__(self):
        for obs in self.qmfs_sets:
            verdict = is_qmfs(self.model, obs)
            if not verdict:
                raise ValueError(
                    f"declared QMFS set {obs.labels} fails the commutation "
                    f"test (residual {verdict.max_residual:.3g})"
                )
        if self.monitor is not None:
            object.__setattr__(self, "monitor",
                               _monitor_row(self.monitor, self.model.dim))


def _json_numbers(value) -> bool:
    """Every entry of ``value``, a number or nested lists, is a JSON number:
    an int or a float, never a string, a bool or null."""
    if isinstance(value, (list, tuple)):
        return all(map(_json_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` (JSON numbers or an array) as a float array of ``shape``,
    or ValueError naming it."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    s = None
    if _json_numbers(value):
        try:
            s = np.array(value, dtype=float)
        except OverflowError:
            raise ValueError(f"{name} has a number too large for a float"
                             ) from None
        except ValueError:  # ragged
            pass
    if s is None or s.shape != shape:
        kind = (f"a list of {shape[0]} numbers" if len(shape) == 1
                else f"a {shape[0]} x {shape[1]} list of numbers")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return s


def _monitor_row(row, dim: int) -> np.ndarray:
    """``row`` as a read-only float array, or ValueError naming monitor."""
    s = _numbers(row, (dim,), "monitor")
    _check_finite(monitor=s)
    if not s.any():
        raise ValueError("monitor must be nonzero")
    s.setflags(write=False)
    return s


def _q_and_p() -> ObservableSet:
    return ObservableSet(np.eye(2), ("q", "p"))


def frequency(model: LinearModel) -> float:
    """The largest |Im lambda(A)|, or 1 when A has no oscillating mode."""
    return float(np.max(np.abs(np.linalg.eigvals(model.A).imag))) or 1.0


def _check_oscillator_params(m: float, omega: float, hbar: float):
    _check_finite(m=m, omega=omega, hbar=hbar)
    _check_square(omega=omega)
    if m == 0:
        raise ValueError("mass must be nonzero")
    if omega <= 0:
        raise ValueError("frequency must be positive")


def single_oscillator(m: float, omega: float, hbar: float = 1.0) -> ModelBundle:
    """Harmonic oscillator H = p^2/2m + m w^2 q^2 / 2.

    Negative m inverts the entire Hamiltonian: same oscillation frequency,
    opposite phase-space circulation, energy ladder running down.
    """
    _check_oscillator_params(m, omega, hbar)
    G = np.diag([m * omega**2, 1.0 / m])
    model = LinearModel(1, hbar, G, force_couplings=(np.array([0.0, 1.0]),))
    sign = "negative" if m < 0 else "positive"
    return ModelBundle(
        model=model,
        qmfs_sets=(),
        description=f"{sign}-mass oscillator, m={m}, omega={omega}",
        omega=omega,
        monitor=np.array([1.0, 0.0]),
        observables=(_q_and_p(),),
    )


# x_qmfs = PAIR_TRANSFORM @ x_phys with x_phys = (q, p, q', p') and
# x_qmfs = (Q, P, Phi, Pi).
PAIR_TRANSFORM = np.array(
    [
        [1.0, 0.0, 1.0, 0.0],  # Q = q + q'
        [0.0, 0.5, 0.0, 0.5],  # P = (p + p')/2
        [0.5, 0.0, -0.5, 0.0],  # Phi = (q - q')/2
        [0.0, 1.0, 0.0, -1.0],  # Pi = p - p'
    ]
)

ROW_Q = PAIR_TRANSFORM[0]
ROW_P = PAIR_TRANSFORM[1]
ROW_PHI = PAIR_TRANSFORM[2]
ROW_PI = PAIR_TRANSFORM[3]


def oscillator_pair(m: float, omega: float, hbar: float = 1.0) -> ModelBundle:
    """Positive-mass plus negative-mass oscillator pair.

    Physical basis (q, p, q', p'), H = p^2/2m + m w^2 q^2/2
    - p'^2/2m - m w^2 q'^2/2.  The basis (Q, P, Phi, Pi) = PAIR_TRANSFORM x
    turns H into P Pi / m + m w^2 Phi Q, so {Q, Pi} and {Phi, P} are each
    a closed harmonic-oscillator subsystem.  The force port drives p of
    the positive-mass oscillator, and the monitor measures Q.
    """
    _check_oscillator_params(m, omega, hbar)
    if m <= 0:
        raise ValueError("pair mass must be positive (the primed partner "
                         "carries the negative mass)")
    G = np.diag([m * omega**2, 1.0 / m, -m * omega**2, -1.0 / m])
    force_b = np.array([0.0, 1.0, 0.0, 0.0])
    model = LinearModel(2, hbar, G, force_couplings=(force_b,))
    qmfs_sets = (
        ObservableSet(np.array([ROW_Q, ROW_PI]), ("Q", "Pi")),
        ObservableSet(np.array([ROW_PHI, ROW_P]), ("Phi", "P")),
    )
    return ModelBundle(
        model=model,
        qmfs_sets=qmfs_sets,
        description=f"positive/negative-mass oscillator pair, m={m}, omega={omega}",
        omega=omega,
        m=m,
        monitor=ROW_Q,
    )


def sideband_model(omega_mod: float, hbar: float = 1.0) -> ModelBundle:
    """Two-sideband (modulation-picture) realization of the pair.

    Blue and red sidebands of a carrier behave as positive- and
    negative-mass oscillators at the modulation frequency (m = 1).  The
    quadrature amplitudes

        alpha1 = (1/2) sqrt(w/hbar) (Q + i Pi / w)
        alpha2 = sqrt(w/hbar) (-i Phi + P / w)

    are exposed as real (Re, Im) observable rows; each pair spans one of
    the two QMFS subsystems.  The carrier is not modelled: the field
    decomposes as E = E1 cos(Omega t) + E2 sin(Omega t) with E_i built
    from alpha_i, but the carrier oscillation is not part of the
    modulation-picture dynamics.
    """
    _check_finite(omega_mod=omega_mod, hbar=hbar)
    if omega_mod <= 0:
        raise ValueError("modulation frequency must be positive")
    base = oscillator_pair(1.0, omega_mod, hbar)
    w = omega_mod
    c1 = 0.5 * np.sqrt(w / hbar)
    c2 = np.sqrt(w / hbar)
    quad_sets = (
        ObservableSet(
            np.array([c1 * ROW_Q, c1 * ROW_PI / w]),
            ("alpha1_re", "alpha1_im"),
        ),
        ObservableSet(
            np.array([c2 * ROW_P / w, -c2 * ROW_PHI]),
            ("alpha2_re", "alpha2_im"),
        ),
    )
    return replace(
        base,
        qmfs_sets=base.qmfs_sets + quad_sets,
        description=(
            f"two-sideband modulation picture, modulation frequency {omega_mod}"
        ),
    )


def spin_pair_hp(gamma_B0: float, hbar: float = 1.0) -> ModelBundle:
    """Gaussian (large-spin) model of two oppositely polarized ensembles.

    Holstein-Primakoff mapping about the stretched states:
    q = Jx/sqrt(J0), p = Jy/sqrt(J0), q' = J'x/sqrt(J0),
    p' = -J'y/sqrt(J0), giving H ~ (gamma B0 / 2)(q^2 + p^2 - q'^2 - p'^2),
    in which J0 drops out.  This is the oscillator pair at frequency
    gamma*B0 with mass 1/(gamma*B0), and it is built as that
    ``oscillator_pair``.
    """
    _check_finite(gamma_B0=gamma_B0, hbar=hbar)
    _check_square(gamma_B0=gamma_B0)
    if gamma_B0 <= 0:
        raise ValueError("Larmor frequency must be positive")
    return replace(
        oscillator_pair(1.0 / gamma_B0, gamma_B0, hbar),
        description=f"Holstein-Primakoff spin pair, Larmor frequency "
                    f"{gamma_B0}",
    )


def model_to_json(model: LinearModel, observables: ObservableSet = None,
                  monitor=None) -> str:
    """A model file: the model, and the observable set and monitor row
    when given.  ``model_from_json`` reads it back."""
    doc = {
        "n_modes": model.n_modes,
        "hbar": model.hbar,
        "G": model.G.tolist(),
        "force_couplings": [b.tolist() for b in model.force_couplings],
    }
    if observables is not None:
        doc["observables"] = [
            {"label": lab, "s": row.tolist()}
            for lab, row in zip(observables.labels, observables.S)
        ]
    if monitor is not None:
        doc["monitor"] = np.asarray(monitor, dtype=float).tolist()
    return json.dumps(doc, indent=2)


_MODEL_KEYS = ("n_modes", "hbar", "G", "force_couplings", "observables",
               "monitor")


def model_from_json(text: str, description: str = "model file") -> ModelBundle:
    """The bundle of a model file.

    Keys: ``n_modes``, ``G`` (the 2n x 2n Hamiltonian matrix), and
    optionally ``hbar`` (1), ``force_couplings`` (none), ``observables``
    (a list of {"label", "s"} rows, one set) and ``monitor`` (2n
    numbers).  A file declares no QMFS set and maps to no pair; its
    ``omega`` is ``frequency(model)``.  A 1-mode file without
    ``monitor`` measures q, and one without ``observables`` checks
    (q, p); a larger file has neither default.  Every number is a JSON
    int or float, never a string, a bool or null.  An unknown key, a
    missing required key, an ``n_modes`` that is not an integer >= 1, an
    ``hbar`` that is not a number > 0, a ``G`` that is not 2n x 2n
    numbers, a ``force_couplings``, ``observables`` or ``monitor`` row
    that is not 2n numbers, a label that is no string, or a number too
    large for a float raises a ValueError naming ``description`` and the
    key (and the row's index).  So does every check of the model, its
    observables and its monitor (finite, symmetric, nonzero), and text
    that is no JSON.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{description}: {exc}") from None

    def need(entry, key, where=""):
        """``entry[key]``, else a ValueError naming the file and the key."""
        if not isinstance(entry, dict) or key not in entry:
            raise ValueError(f"{description}{where} has no {key!r}")
        return entry[key]

    n_modes = need(doc, "n_modes")
    # type, not isinstance: json reads true as a bool, an int subclass
    if type(n_modes) is not int or n_modes < 1:
        raise ValueError(f"{description}: 'n_modes' must be an integer "
                         f">= 1, got {n_modes!r}")
    unknown = sorted(set(doc) - set(_MODEL_KEYS))
    if unknown:
        raise ValueError(f"{description}: unknown keys {unknown}")
    dim = 2 * n_modes
    hbar = doc.get("hbar", 1.0)
    # nan and inf pass here and are named by LinearModel's finiteness check
    if type(hbar) not in (int, float) or hbar <= 0:
        raise ValueError(f"{description}: 'hbar' must be a number > 0, "
                         f"got {hbar!r}")
    hbar = float(_numbers(hbar, (), f"{description}: 'hbar'"))

    def listed(key):
        """``doc[key]``, [] when absent, else a ValueError if no list."""
        entries = doc.get(key)
        if entries is None:
            return []
        if not isinstance(entries, list):
            raise ValueError(f"{description}: {key} must be a list, "
                             f"got {entries!r}")
        return entries

    def rows(key, entries):
        """Each entry as 2 n_modes floats, else a ValueError naming the
        file, ``key`` and the entry's index."""
        return [_numbers(entry, (dim,), f"{description}: {key} row {i}")
                for i, entry in enumerate(entries)]

    G = _numbers(need(doc, "G"), (dim, dim), f"{description}: G")
    couplings = tuple(rows("force_couplings", listed("force_couplings")))
    monitor = doc.get("monitor")
    if monitor is None and n_modes == 1:
        monitor = [1.0, 0.0]
    elif monitor is not None:
        monitor = _numbers(monitor, (dim,), f"{description}: monitor")
    entries = list(enumerate(listed("observables")))
    S = rows("observables", [need(entry, "s", f": observable {i}")
                             for i, entry in entries])
    labels = tuple(need(entry, "label", f": observable {i}")
                   for i, entry in entries)
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise ValueError(f"{description}: observable {i}'s label must "
                             f"be a string, got {label!r}")
    try:
        model = LinearModel(n_modes, hbar, G, couplings)
        if S:
            observables = (ObservableSet(np.array(S), labels),)
        else:
            observables = (_q_and_p(),) if n_modes == 1 else ()
        return ModelBundle(model, (), description, omega=frequency(model),
                           monitor=monitor, observables=observables)
    except ValueError as exc:
        raise ValueError(f"{description}: {exc}") from None


BUILDERS = {
    "single": single_oscillator,
    "pair": oscillator_pair,
    "sideband": sideband_model,
    "spin-hp": spin_pair_hp,
}
