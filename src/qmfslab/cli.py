"""Batch experiment runner.

Subcommands: check, simulate, force, koopman, spin, circuit.  Each run
writes CSV data plus a JSON summary (tool version, config hash, applied
tolerances, residuals, seeds, pass/fail per invariant).  Exit codes:
0 success, 1 invariant violation (details in the summary), 2 invalid
input.

A --config JSON file is read as the flags it names, before the command
line's own, so a flag given on the command line wins.

Reproducibility: trajectory i of a batch uses noise streams keyed by
(master_seed, i, channel), so outputs are bit-identical across reruns
and across --parallel settings; result files are keyed by seed index.
All trajectories of a simulate run share one batched sweep.  --parallel
sets how many threads write the trajectory and covariance files once
the sweep is done, capped at --batch and at the usable CPUs; a writer
that fails makes the run fail with the error of the lowest trajectory
that could not be written.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np

from . import (__version__, circuits, conditional, csvtext, fock, koopman,
               models, spins)
from .phase_space import (
    _check_square,
    commutator_from_propagators,
    is_qmfs,
    transfer_matrix,
    trusted_horizon,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2


# config keys that do not change results, left out of config_hash
_UNHASHED_KEYS = {"out", "parallel", "config"}

# every file a command writes into --out, besides simulate's numbered
# trajectory_<digits>.csv and covariance_<digits>.csv
_OUTPUT_FILES = {"summary.json", "check.csv", "force.csv", "classical.csv",
                 "spin_sweep.csv", "truth_tables.csv"}

# model-builder parameter -> the option that sets it
_BUILDER_OPTIONS = {"m": "m", "omega": "omega", "omega_mod": "omega",
                    "hbar": "hbar", "gamma_B0": "gamma_b0"}


def _is_output(name: str) -> bool:
    """Whether a command writes a file of this name into --out."""
    prefix, _, number = name.removesuffix(".csv").rpartition("_")
    return name in _OUTPUT_FILES or (
        name.endswith(".csv") and prefix in ("trajectory", "covariance")
        and number.isascii() and number.isdigit())


def _remove_outputs(out_dir: Path) -> None:
    """Unlink every file in ``out_dir`` that a command writes, so that
    each output is then created new; directories and files of other
    names stay.

    Truncating an old file in place, or renaming a temporary file over
    it, makes ext4 flush the old data (``auto_da_alloc``), so a rerun
    into the same --out would wait on the last run's writeback.  A link
    at an output's name is removed whatever it points to, so it is
    replaced, not written through.
    """
    with os.scandir(out_dir) as entries:
        for entry in entries:
            if (_is_output(entry.name)
                    and not entry.is_dir(follow_symlinks=False)):
                Path(entry).unlink(missing_ok=True)


def _write_csv(path: Path, header, rows, lead=None):
    with open(path, "w") as fh:
        fh.writelines(csvtext.csv_blocks(header, rows, lead))


def _writer_count(parallel: int, n_items: int) -> int:
    """Writer threads: --parallel, capped at the items and usable CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(parallel, n_items, cpus))


def _write_in_threads(n_writers, n_items, write_item):
    """Call ``write_item(i)`` for i < n_items on n_writers threads.

    Writer w writes the items i = w (mod n_writers) and stops at the
    first that fails; share 0 is written on this thread.  Every thread
    is joined, then the error of the lowest failing item is raised
    again: the one a serial run would raise.
    """
    errors = {}

    def write_share(w):
        for i in range(w, n_items, n_writers):
            try:
                write_item(i)
            except Exception as exc:
                errors[i] = exc
                return

    threads = [threading.Thread(target=write_share, args=(w,))
               for w in range(1, n_writers)]
    for thread in threads:
        thread.start()
    try:
        write_share(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]


def _model_options(name: str) -> dict:
    """Parameter -> option, for each parameter of model ``name``'s builder."""
    params = inspect.signature(models.BUILDERS[name]).parameters
    return {p: _BUILDER_OPTIONS[p] for p in params}


def _config_hash(config: dict) -> str:
    """Hash of the keys that determine results: one per experiment.

    A model option counts only where the chosen builder takes it; a
    model file counts by its content, in place of the model and them.
    """
    keys = {k: v for k, v in config.items() if k not in _UNHASHED_KEYS}
    if "model" in keys:
        unused = set(_BUILDER_OPTIONS.values())
        if keys["model_file"]:
            unused.add("model")
            keys["model_file"] = hashlib.sha256(
                Path(keys["model_file"]).read_bytes()).hexdigest()
        else:
            unused -= set(_model_options(keys["model"]).values())
        keys = {k: v for k, v in keys.items() if k not in unused}
    blob = json.dumps(keys, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_summary(out_dir: Path, config: dict, payload: dict) -> None:
    summary = {
        "tool": "qmfslab",
        "version": __version__,
        "config": config,
        "config_hash": _config_hash(config),
    }
    summary.update(payload)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=str)
        fh.write("\n")


def _parse_file(path, what, parse):
    """parse(text) of the UTF-8 file at path; a ValueError of either is
    raised again with the prefix "<what> from <path>: "."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{what} from {path}: {exc}") from None


def _build_bundle(args) -> models.ModelBundle:
    """The bundle of --model-file, else of --model with its options."""
    if args.model_file:
        text = _parse_file(args.model_file, "model", str)
        return models.model_from_json(text, f"model from {args.model_file}")
    options = _model_options(args.model)
    return models.BUILDERS[args.model](
        **{p: getattr(args, o) for p, o in options.items()})


def _grid_horizon(model) -> float:
    """Horizon 10/omega of the commutator grid, omega =
    ``models.frequency(model)`` (for a builder this can differ from the
    bundle's omega by rounding).

    The horizon is capped at ``trusted_horizon``, where
    ``transfer_matrix``'s bound on ||A t||_2 stops, as a time that the
    bound accepts.
    """
    return min(10.0 / models.frequency(model), trusted_horizon(model))


def cmd_check(args, out_dir: Path) -> dict:
    bundle = _build_bundle(args)
    model = bundle.model
    sets = bundle.qmfs_sets + bundle.observables
    if not sets:
        # nothing to check: the run would pass without a verdict
        raise ValueError(f"{bundle.description} has {model.n_modes} modes "
                         "and no 'observables' to check")
    tol = 1e-12
    grid_tol = 1e-10
    ts = np.linspace(0.0, _grid_horizon(model), 20)
    Phis = transfer_matrix(model, ts)
    rows = []
    ok = True
    results = []
    for obs in sets:
        verdict = is_qmfs(model, obs, tol=tol)
        K = commutator_from_propagators(model, obs, Phis[:, None], Phis[None])
        grid_max = float(np.max(np.abs(K)))
        scale = model.hbar * np.linalg.norm(obs.S, 2) ** 2
        grid_ok = (grid_max < grid_tol * scale) if verdict.is_qmfs else True
        ok = ok and grid_ok
        results.append(
            {
                "labels": list(obs.labels),
                "verdict": "QMFS" if verdict.is_qmfs else "NOT_QMFS",
                "algebraic_residual": verdict.max_residual,
                "witness": verdict.witness,
                "grid_commutator_max": grid_max,
                "grid_consistent": bool(grid_ok),
            }
        )
        rows.append((float(verdict.is_qmfs), verdict.max_residual, grid_max))
    _write_csv(out_dir / "check.csv",
               ["is_qmfs", "algebraic_residual", "grid_commutator_max"], rows)
    return {
        "tolerances": {"algebraic": tol, "grid": grid_tol},
        "sets": results,
        "passed": bool(ok),
    }


def _channels_from_args(bundle, args):
    """One channel on the bundle's monitor row, at --k and --eta."""
    if bundle.monitor is None:
        raise ValueError(f"{bundle.description} names no row to measure; "
                         "a model file gives it under \"monitor\"")
    return (conditional.MeasurementChannel(bundle.monitor, args.k, args.eta),)


def _force_coupling(model):
    """The port a force drives: the model's first force coupling."""
    if not model.force_couplings:
        raise ValueError("the model has no force coupling; a model file "
                         "names it under \"force_couplings\"")
    return model.force_couplings[0]


def _force_from_args(bundle, args):
    if args.force_amp == 0.0:
        return None
    return conditional.ForceDrive.sinusoid(
        _force_coupling(bundle.model), args.force_amp, args.force_freq,
        args.force_phase
    )


def cmd_simulate(args, out_dir: Path) -> dict:
    bundle = _build_bundle(args)
    model = bundle.model
    channels = _channels_from_args(bundle, args) if args.k > 0 else ()
    batch = conditional.simulate_batch(
        model,
        conditional.vacuum_state(model),
        channels,
        _force_from_args(bundle, args),
        dt=args.dt,
        T=args.T,
        master_seed=args.seed,
        n_traj=args.batch,
        cov_stride=args.cov_stride,
    )

    d = model.dim
    n_ch = len(channels)
    header = (
        ["time"]
        + [f"mean_{j}" for j in range(d)]
        + [f"yrecord_{c}" for c in range(n_ch)]
    )
    iu = np.triu_indices(d)
    cov_text = "".join(csvtext.csv_blocks(
        ["time"] + [f"cov_{a}_{b}" for a, b in zip(*iu)],
        np.column_stack([batch.cov_times, batch.covs[:, iu[0], iu[1]]]),
    ))

    # every trajectory file starts with the same time column: its text
    # is made once, before the writers start, and spliced into each file
    times = csvtext.leading_column(batch.times)

    def write(i):
        # the record row at time 0 is zero: no increment yet
        records = np.vstack([np.zeros((1, n_ch)), batch.records[i]])
        _write_csv(out_dir / f"trajectory_{i:04d}.csv", header,
                   np.column_stack([batch.means[i], records]), times)
        with open(out_dir / f"covariance_{i:04d}.csv", "w") as fh:
            fh.write(cov_text)

    _write_in_threads(_writer_count(args.parallel, args.batch), args.batch,
                      write)

    return {
        "seeds": [[args.seed, i] for i in range(args.batch)],
        "n_trajectories": args.batch,
        "passed": True,
    }


def cmd_force(args, out_dir: Path) -> dict:
    bundle = _build_bundle(args)
    if args.compare_single and bundle.m is None:
        raise ValueError("--compare-single needs a pair model (pair, "
                         "sideband or spin-hp) to compare with its single "
                         "oscillator")

    def posterior_std(bundle):
        model = bundle.model
        channels = _channels_from_args(bundle, args)
        template = conditional.ForceDrive.sinusoid(
            _force_coupling(model), 1.0, bundle.omega
        )
        return conditional.force_posterior_std(
            model, channels, template, args.dt, args.T
        )

    std = posterior_std(bundle)
    result = {"model": bundle.description, "posterior_std": std}
    rows = [[args.k, args.eta, std]]
    header = ["k", "eta", "posterior_std"]
    ok = True
    if args.compare_single:
        # the positive-mass oscillator of the pair the model maps to
        std_single = posterior_std(models.single_oscillator(
            bundle.m, bundle.omega, bundle.model.hbar))
        result["posterior_std_single"] = std_single
        result["ratio_pair_over_single"] = std / std_single
        rows[0].append(std / std_single)
        header.append("ratio_pair_over_single")
        ok = std / std_single < 1.0
    _write_csv(out_dir / "force.csv", header, rows)
    return {"force": result, "passed": bool(ok)}


def cmd_koopman(args, out_dir: Path) -> dict:
    m, omega, eps = args.m, args.omega, args.epsilon
    _check_square(omega=omega)
    # dQ/dt = Pi/m + eps Q^2, dPi/dt = -m w^2 Q, terms (a, b, coef)
    f, g = ((0, 1, 1.0 / m), (2, 0, eps)), ((1, 0, m * omega**2),)
    flow = koopman.ClassicalFlow(f, g, dt=args.dt)
    # the Fock oracle's norms of H square the harmonic coefficients
    _check_square(**{"(1/m)": 1.0 / m, "(m*omega**2)": m * omega**2})
    # and it builds its ladders at the scale |m| omega, which must not
    # underflow to 0
    if not abs(m) * omega > 0:
        raise ValueError(
            "--m and --omega are too small: the oracle's scale |m|*omega "
            f"underflows to 0.0, got --m {m!r} and --omega {omega!r}")
    times, Qs, Ps = koopman.integrate(flow, args.q0, args.pi0, args.T)
    _write_csv(out_dir / "classical.csv", ["time", "Q", "Pi"],
               np.column_stack([times, Qs, Ps]))

    # Small fixed trusted core: the commutator defect of the truncated
    # nonlinear Hamiltonian contaminates higher excitation levels first,
    # so the residual converges only on a core held fixed while the
    # ladder grows.  --n-levels is at least 3, so the core keeps 2.
    spec = fock.TruncationSpec(n_levels=args.n_levels, n_modes=2,
                               core_levels=2)
    # the ladders at the scale |m| omega of the flow's oscillator: the
    # vacuum's <Pi^2> / <Q^2> is (m omega)^2, as in the oscillator's
    H, Q, Pi = fock.build_koopman_hamiltonian(f, g, spec,
                                              ref_scale=abs(m) * omega)
    # Q sqrt(|m| omega / hbar) and Pi / sqrt(|m| omega / hbar), hbar = 1:
    # in natural units the fixed tolerance does not depend on m or omega
    a = math.sqrt(abs(m) * omega)
    Q, Pi = (fock.KronOperator(O.spec, tuple((c * s, fs) for c, fs in O.terms))
             for O, s in ((Q, a), (Pi, 1 / a)))
    t_grid = np.linspace(0.0, min(args.T, 2.0 / omega), 5)
    residual = fock.commutator_residual(H, [Q, Pi], t_grid)
    tol = 1e-5
    ok = residual < tol
    return {
        "tolerances": {"oracle_residual": tol},
        "oracle_residual": residual,
        "passed": bool(ok),
    }


def cmd_spin(args, out_dir: Path) -> dict:
    j0_list = [float(x) for x in args.j0_list.split(",")]
    if not math.isfinite(2 * math.pi / args.gamma_b0):
        raise ValueError("gamma_b0 is too small: the period 2 pi / gamma_b0 "
                         f"overflows a float, got {args.gamma_b0!r}")
    rows = []
    ok = True
    tol = 1e-10
    for J0 in j0_list:
        pair = spins.build_spin_pair(J0, args.gamma_b0)
        residual = spins.qmfs_commutator_identity(pair, 0.7 / args.gamma_b0,
                                                  0.2 / args.gamma_b0)
        # fixed physical displacement: the rotation angle shrinks with
        # J0, so the Gaussian-model error decreases across the sweep
        dev_mean, dev_var = spins.hp_agreement(
            pair, 0.5, np.linspace(0.0, 2 * np.pi / args.gamma_b0, 9))
        ok = ok and residual < tol
        rows.append([J0, residual, dev_mean, dev_var])
    _write_csv(out_dir / "spin_sweep.csv",
               ["J0", "residual_norm", "hp_deviation_mean", "hp_deviation_var"],
               rows)
    return {"tolerances": {"identity_residual": tol}, "passed": bool(ok)}


def cmd_circuit(args, out_dir: Path) -> dict:
    circuit = _parse_file(args.file, "circuit",
                          circuits.ReversibleCircuit.from_text)
    if args.verify:  # before any table is computed or written
        circuits.check_dense_size(circuit.n_bits)
    tables = circuits.propagate_z(circuit)
    _write_csv(
        out_dir / "truth_tables.csv",
        ["input"] + [f"f_{j}" for j in range(circuit.n_bits)],
        np.column_stack([np.arange(1 << circuit.n_bits),
                         *(t.table for t in tables)]),
    )
    payload = {"n_bits": circuit.n_bits, "n_gates": len(circuit.gates)}
    ok = True
    if args.verify:
        deviation = circuits.dense_oracle_check(circuit, tables)
        payload["dense_deviation"] = deviation
        payload["tolerances"] = {"dense_deviation": 0}
        ok = deviation == 0
    return {**payload, "passed": bool(ok)}


def _checked(convert, requirement, test):
    """argparse type: ``convert(text)``, rejected unless ``test`` holds."""

    def check(text):
        try:
            value = convert(text)
            ok = test(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text!r}")
        return value

    return check


_COUNT = _checked(int, "an integer >= 1", lambda v: v >= 1)
_FINITE = _checked(float, "a finite number", math.isfinite)
_NONNEGATIVE = _checked(float, "a finite number >= 0",
                        lambda v: math.isfinite(v) and v >= 0)
_POSITIVE = _checked(float, "a finite number > 0",
                     lambda v: math.isfinite(v) and v > 0)
_NONZERO = _checked(float, "a finite nonzero number",
                    lambda v: math.isfinite(v) and v != 0)
_EFFICIENCY = _checked(float, "a number in (0, 1]", lambda v: 0 < v <= 1)
# koopman levels per mode: at least 3, so that the trusted core keeps 2
# levels a mode (at 2 levels it is the vacuum alone, whose residual is
# 0 whatever the flow), then the check fock.TruncationSpec makes for 2
# modes
_N_LEVELS = _checked(int, f"an integer in [3, {math.isqrt(fock.DIM_CAP)}]",
                     lambda v: v >= 3 and fock.TruncationSpec(n_levels=v,
                                                              n_modes=2))


def _j0_list(text):
    """argparse type of --j0-list, kept as text (cmd_spin splits it):
    every J0 must pass the check that ``spins.build_spin_pair`` makes."""
    try:
        for x in text.split(","):
            spins._check_j0(float(x))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated J0 values, got {text!r}: {exc}")
    return text


def _add_model_args(p):
    p.add_argument("--model", default="pair",
                   choices=list(models.BUILDERS))
    p.add_argument("--model-file", default=None,
                   help="JSON model fixture (overrides --model)")
    # m < 0 is a valid single oscillator; the pair checks m > 0 itself
    p.add_argument("--m", type=_NONZERO, default=1.0)
    p.add_argument("--omega", type=_POSITIVE, default=1.0)
    p.add_argument("--hbar", type=_POSITIVE, default=1.0)
    p.add_argument("--gamma-b0", type=_POSITIVE, default=1.0)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises the errors that argparse reports
    through ``error`` even with ``exit_on_error=False``: unrecognized
    arguments and, before Python 3.13, a missing required option.
    Sub-parsers are made of the same class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one definition of every option and of the values it allows.

    Parsers do not exit on an error: they raise
    ``argparse.ArgumentError``, which ``main`` reports as bad input.
    The parser is built once per process, at the first call, and shared
    by every later one: callers must not change it.
    """
    parser = _Parser(
        prog="qmfslab",
        description="Back-action-evading subsystem experiments",
        exit_on_error=False,
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default="qmfslab_out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        return sub.add_parser(name, help=help, exit_on_error=False)

    p = command("check", "QMFS verdicts and commutator residuals")
    _add_model_args(p)

    p = command("simulate", "conditional trajectories")
    _add_model_args(p)
    p.add_argument("--k", type=_NONNEGATIVE, default=1.0)
    p.add_argument("--eta", type=_EFFICIENCY, default=1.0)
    p.add_argument("--dt", type=_POSITIVE, default=1e-3)
    p.add_argument("--T", type=_POSITIVE, default=10.0)
    p.add_argument("--batch", type=_COUNT, default=1)
    p.add_argument("--parallel", type=_COUNT, default=1)
    p.add_argument("--cov-stride", type=_COUNT, default=100)
    p.add_argument("--force-amp", type=_FINITE, default=0.0)
    p.add_argument("--force-freq", type=_FINITE, default=1.0)
    p.add_argument("--force-phase", type=_FINITE, default=0.0)

    p = command("force", "posterior-std force-sensing table")
    _add_model_args(p)
    p.add_argument("--k", type=_POSITIVE, default=10.0)
    p.add_argument("--eta", type=_EFFICIENCY, default=1.0)
    p.add_argument("--dt", type=_POSITIVE, default=2e-3)
    p.add_argument("--T", type=_POSITIVE, default=20.0)
    p.add_argument("--compare-single", action="store_true")

    p = command("koopman", "classical flow vs dense oracle")
    p.add_argument("--m", type=_NONZERO, default=1.0)
    p.add_argument("--omega", type=_POSITIVE, default=1.0)
    p.add_argument("--epsilon", type=_FINITE, default=0.1)
    p.add_argument("--q0", type=_FINITE, default=0.3)
    p.add_argument("--pi0", type=_FINITE, default=0.0)
    p.add_argument("--dt", type=_POSITIVE, default=1e-3)
    p.add_argument("--T", type=_POSITIVE, default=2.0)
    p.add_argument("--n-levels", type=_N_LEVELS, default=20)

    p = command("spin", "finite-J0 sweep")
    p.add_argument("--j0-list", type=_j0_list, default="2,4,8")
    p.add_argument("--gamma-b0", type=_POSITIVE, default=1.0)

    p = command("circuit", "reversible-circuit propagation")
    p.add_argument("--file", required=True)
    p.add_argument("--verify", action="store_true")

    return parser


def _config_flags(path, parsers):
    """The flags that a JSON config names, one list per parser.

    ``parsers`` are the root parser and the chosen subcommand's, whose
    options are the allowed keys.  A key becomes ``--option=value``: with
    ``=`` a value that starts with ``-`` stays a value.  ``true`` becomes
    the bare switch; ``null``, ``false`` and the key ``command`` give no
    flag.
    """
    options = {a.dest: (n, a) for n, p in enumerate(parsers)
               for a in p._actions
               if a.default is not argparse.SUPPRESS and a.dest != "config"}

    def parse(text):
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(doc) - set(options)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return doc

    doc = _parse_file(path, "config", parse)
    flags = [[] for _ in parsers]
    for key, value in doc.items():
        n, action = options[key]
        if value is None or key == "command":
            continue
        if action.nargs == 0:  # a store_true switch
            if not isinstance(value, bool):
                raise argparse.ArgumentError(
                    action, f"must be true or false, got {value!r}")
            if value:
                flags[n].append(action.option_strings[0])
        elif isinstance(value, (bool, list, dict)):
            raise argparse.ArgumentError(
                action, f"must be a string or a number, got {value!r}")
        else:
            flags[n].append(f"{action.option_strings[0]}={value}")
    return flags


def _root_args(parser, argv):
    """(argv, i, config): argv without a lone ``--`` just before the
    subcommand (argparse would take it as the subcommand's name), the
    subcommand's index i in it, and the last value given as
    ``--config P``, ``--config=P`` or a prefix (None if none).

    Raises ``argparse.ArgumentError`` for the first flag before the
    subcommand that the root parser does not define (exactly or as an
    unambiguous prefix): argparse would take such a flag's value as the
    subcommand and report that value instead of the flag.
    """
    known = parser._option_string_actions
    config = None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--":
            argv = argv[:i] + argv[i + 1:]
            break
        if not arg.startswith("-"):
            break  # the subcommand
        name, eq, value = arg.partition("=")
        actions = {known[name]} if name in known else {
            a for s, a in known.items() if s.startswith(name)}
        if len(actions) != 1:
            raise argparse.ArgumentError(
                None, f"unrecognized arguments: {name}")
        (action,) = actions
        if not eq and action.nargs != 0:
            i += 1  # the flag's value
            value = argv[i] if i < len(argv) else None
        if action.dest == "config":
            config = value
        i += 1
    return argv, i, config


def parse_args(argv) -> argparse.Namespace:
    """Options from argv and the --config file, in one parse.

    The config's flags go before the command line's: those of root
    options before argv, the subcommand's right after its name.  argparse
    then converts and checks them as typed flags, and a flag given on the
    command line (also abbreviated or with ``=``) comes later, so it wins.
    """
    parser = build_parser()
    argv, at, config = _root_args(parser, argv)
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    sub = commands.choices.get(argv[at]) if at < len(argv) else None
    if config and sub is not None:
        root_flags, sub_flags = _config_flags(config, (parser, sub))
        argv = [*root_flags, *argv[:at + 1], *sub_flags, *argv[at + 1:]]
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    handlers = {"check": cmd_check, "simulate": cmd_simulate,
                "force": cmd_force, "koopman": cmd_koopman, "spin": cmd_spin,
                "circuit": cmd_circuit}
    try:
        args = parse_args(argv)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # no output of an earlier run stays, and a run that fails leaves
        # no summary
        _remove_outputs(out_dir)
        payload = handlers[args.command](args, out_dir)
        _write_summary(out_dir, vars(args), payload)
        return EXIT_OK if payload["passed"] else EXIT_VIOLATION
    except argparse.ArgumentError as exc:
        print("error:", *filter(None, (exc.argument_name, exc.message)),
              file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, OSError, KeyError, MemoryError,
            koopman.FlowDivergenceError, koopman.StepSizeError,
            conditional.EstimationError) as exc:
        # MemoryError: a run too long to allocate (numpy refuses at once);
        # the three RuntimeErrors: a flow that escapes, a dt too coarse
        # for the step-halving check, a model with no force information
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
