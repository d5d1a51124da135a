"""The benchmark workloads: seeded inputs, operations and result checks.

Each workload is a closed loop with one client: the next operation (one
experiment) starts only after the previous one has returned.  Every
operation has a result check that runs outside the timed region; the
checks use physics-level tolerances, never bit digests of results from
another commit, so engines that change rounding stay measurable.

cli-monitor   the README's headline CLI path: ``simulate`` at
              ``--parallel`` 1 and 2, then ``force --compare-single``,
              all through ``cli.main`` in-process.
oracle-suite  the brute-force oracles at sizes where dense linear
              algebra dominates: ``check`` on three models, ``koopman``,
              ``spin``, and ``circuit --verify`` on a seeded 8-bit circuit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from qmfslab import cli, conditional, models

HBAR = 1.0
OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Operation sizes.  FULL is what the benchmark measures; SMOKE is the
# same code at sizes small enough for the harness self-test.
FULL = {
    "sim_T": 10.0, "sim_batch": 8, "force_T": 20.0,
    "koopman_levels": 32, "spin_j0": "4,8,12,16",
    "circuit_bits": 8, "circuit_gates": 64,
}
SMOKE = {
    "sim_T": 2.0, "sim_batch": 2, "force_T": 2.0,
    "koopman_levels": 20, "spin_j0": "2,4",
    "circuit_bits": 4, "circuit_gates": 16,
}


@dataclass
class Op:
    """One experiment: ``run`` is timed, ``check`` is not."""

    label: str
    command: str  # the subcommand whose <command>_s it counts into
    run: object  # () -> result
    check: object  # result -> list of failure messages
    traj_steps: int = 0  # trajectories x steps inside the simulate call


@dataclass
class CliResult:
    exit_code: int
    out: Path
    files: int = 0  # output files and bytes, counted by the checks
    bytes: int = 0


def _run_cli(argv, out: Path) -> CliResult:
    """``qmfslab --out <out> argv`` in-process; stderr is captured."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["--out", str(out), *argv])
    return CliResult(code, out)


def _output_size(res: CliResult) -> CliResult:
    files = [p for p in res.out.iterdir() if p.is_file()]
    res.files = len(files)
    res.bytes = sum(p.stat().st_size for p in files)
    return res


def _summary_failures(res: CliResult) -> tuple[list, dict]:
    """Exit code 0 and ``"passed": true``; returns (failures, summary)."""
    if res.exit_code != 0:
        return [f"{res.out.name}: exit code {res.exit_code}"], {}
    summary = json.loads((res.out / "summary.json").read_text())
    if summary.get("passed") is not True:
        return [f"{res.out.name}: summary not passed"], summary
    return [], summary


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def covariance_rows(path: Path) -> np.ndarray:
    """Covariance CSV (time, upper triangle) -> stack of full matrices."""
    rows = _read_csv(path)[:, 1:]
    d = int(round((math.sqrt(8 * rows.shape[1] + 1) - 1) / 2))
    iu = np.triu_indices(d)
    V = np.zeros((rows.shape[0], d, d))
    V[:, iu[0], iu[1]] = rows
    V[:, iu[1], iu[0]] = rows
    return V


def unphysical_rows(V: np.ndarray, tol: float = 1e-10) -> int:
    """Rows violating V + i(hbar/2) Omega >= 0."""
    n_modes = V.shape[-1] // 2
    Om = np.kron(np.eye(n_modes), OMEGA)
    eigs = np.linalg.eigvalsh(V + 0.5j * HBAR * Om)
    return int(np.sum(eigs.min(axis=-1) < -tol * HBAR))


def collective_det(V: np.ndarray) -> float:
    """det of the (Q, Pi) block of a pair covariance in (q, p, q', p')."""
    S = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    return float(np.linalg.det(S @ V @ S.T))


# ---------------------------------------------------------------- inputs


def random_circuit_text(seed: int, n_bits: int, n_gates: int) -> str:
    """Seeded random X/CX/CCX circuit in the ``bits N`` text format."""
    rng = random.Random(f"circuit-{seed}")
    arity = {"X": 1, "CX": 2, "CCX": 3}
    lines = [f"bits {n_bits}"]
    for _ in range(n_gates):
        name = rng.choice(sorted(arity))
        bits = rng.sample(range(n_bits), arity[name])
        lines.append(" ".join([name, *map(str, bits)]))
    return "\n".join(lines) + "\n"


def circuit_truth_tables(text: str) -> np.ndarray:
    """Rows (x, f_0(x), ..., f_{n-1}(x)) of the circuit's Z_j images.

    Computed here from the gate list with plain integers, independently
    of qmfslab: f_j(x) is bit j of the permuted input.
    """
    lines = text.split("\n")
    n_bits = int(lines[0].split()[1])
    gates = [ln.split() for ln in lines[1:] if ln.strip()]
    rows = []
    for x in range(1 << n_bits):
        y = x
        for name, *bits in gates:
            *controls, target = map(int, bits)
            if all((y >> c) & 1 for c in controls):
                y ^= 1 << target
        rows.append([x] + [(y >> j) & 1 for j in range(n_bits)])
    return np.array(rows, dtype=float)


def pair_chain_model(seed: int, n_pairs: int = 4, lo: float = 1.0,
                     hi: float = 3.0) -> dict:
    """Model JSON of positive/negative-mass pairs (m = 1).

    Pair frequencies are seeded over [lo, hi] and include both ends.
    The observable set is every pair's collective (Q_k, Pi_k).
    """
    rng = random.Random(f"model-{seed}")
    omegas = sorted([lo, hi] + [rng.uniform(lo, hi) for _ in range(n_pairs - 2)])
    d = 4 * n_pairs
    G = np.zeros((d, d))
    obs = []
    for k, w in enumerate(omegas):
        i = 4 * k
        G[i:i + 4, i:i + 4] = np.diag([w * w, 1.0, -w * w, -1.0])
        q = np.zeros(d)
        q[[i, i + 2]] = 1.0
        pi = np.zeros(d)
        pi[[i + 1, i + 3]] = [1.0, -1.0]
        obs += [{"label": f"Q{k + 1}", "s": q.tolist()},
                {"label": f"Pi{k + 1}", "s": pi.tolist()}]
    force = np.zeros(d)
    force[1] = 1.0
    return {"n_modes": 2 * n_pairs, "hbar": HBAR, "G": G.tolist(),
            "force_couplings": [force.tolist()], "observables": obs}


def known_defect_probe(workdir: Path, seed: int) -> CliResult:
    """``check --model-file`` on the seeded 4-pair model.

    Known defect: for model files ``cmd_check`` takes omega = 1, so its
    10/omega grid horizon ignores the model's own frequencies and
    ``transfer_matrix`` rejects ||A t|| above its trusted bound (exit 2).
    """
    path = workdir / "four_pairs.json"
    path.write_text(json.dumps(pair_chain_model(seed)))
    return _run_cli(["check", "--model-file", str(path)], workdir / "probe")


# ------------------------------------------------------------- workloads


@dataclass
class Workload:
    workdir: Path
    seed: int
    size: dict  # FULL or SMOKE

    def setup(self) -> None:
        raise NotImplementedError

    def pass_ops(self) -> list:
        raise NotImplementedError


class CliMonitor(Workload):
    """simulate --parallel 1, simulate --parallel 2, force --compare-single."""

    name = "cli-monitor"

    def setup(self):
        s = self.size
        self.sim_argv = [
            "--seed", str(self.seed), "simulate", "--model", "pair",
            "--k", "2", "--dt", "1e-3", "--T", repr(s["sim_T"]),
            "--batch", str(s["sim_batch"]), "--cov-stride", "100",
            "--force-amp", "1",
        ]
        self.force_argv = ["force", "--model", "pair", "--compare-single",
                           "--T", repr(s["force_T"])]
        self.reference = None  # CSV digests of the first simulate output

    def pass_ops(self):
        steps = int(round(self.size["sim_T"] / 1e-3)) * self.size["sim_batch"]
        ops = []
        for p in (1, 2):
            out = self.workdir / f"simulate-p{p}"
            argv = self.sim_argv + ["--parallel", str(p)]
            ops.append(Op(f"simulate-p{p}", "simulate",
                          lambda argv=argv, out=out: _run_cli(argv, out),
                          self.check_simulate, traj_steps=steps))
        out = self.workdir / "force"
        ops.append(Op("force", "force",
                      lambda: _run_cli(self.force_argv, out), self.check_force))
        return ops

    def check_simulate(self, res: CliResult) -> list:
        fails, _ = _summary_failures(_output_size(res))
        if fails:
            return fails
        batch = self.size["sim_batch"]
        names = sorted(f"{stem}_{i:04d}.csv" for i in range(batch)
                       for stem in ("trajectory", "covariance"))
        digests = {}
        for name in names:
            path = res.out / name
            if not path.is_file():
                return [f"{res.out.name}: {name} missing"]
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            fails.append(f"{res.out.name}: CSV bytes differ from the first "
                         "simulate output (parallel setting or rerun)")
        for i in range(batch):
            V = covariance_rows(res.out / f"covariance_{i:04d}.csv")
            bad = unphysical_rows(V)
            if bad:
                fails.append(f"{res.out.name}: {bad} unphysical covariance "
                             f"rows in trajectory {i}")
            det = collective_det(V[-1])
            if not det < (HBAR / 2) ** 2:
                fails.append(f"{res.out.name}: final (Q, Pi) det {det:.6g} "
                             "not below (hbar/2)^2")
        return fails

    def check_force(self, res: CliResult) -> list:
        fails, summary = _summary_failures(_output_size(res))
        if fails:
            return fails
        ratio = summary["force"].get("ratio_pair_over_single")
        if ratio is None or not ratio < 1.0:
            fails.append(f"force: pair/single ratio {ratio} not below 1")
        return fails


class OracleSuite(Workload):
    """check x3, koopman, spin, circuit --verify."""

    name = "oracle-suite"

    def setup(self):
        s = self.size
        self.circuit_text = random_circuit_text(
            self.seed, s["circuit_bits"], s["circuit_gates"]
        )
        self.circuit_file = self.workdir / "circuit.txt"
        self.circuit_file.write_text(self.circuit_text)
        self.expected_tables = circuit_truth_tables(self.circuit_text)
        self.j0_list = [float(x) for x in s["spin_j0"].split(",")]

    def pass_ops(self):
        s = self.size
        ops = []
        for model in ("pair", "sideband", "spin-hp"):
            ops.append(self._cli_op(f"check-{model}", "check",
                                    ["check", "--model", model],
                                    self.check_check))
        ops.append(self._cli_op(
            "koopman", "koopman",
            ["koopman", "--n-levels", str(s["koopman_levels"])],
            self.check_koopman))
        ops.append(self._cli_op("spin", "spin",
                                ["spin", "--j0-list", s["spin_j0"]],
                                self.check_spin))
        ops.append(self._cli_op(
            "circuit", "circuit",
            ["circuit", "--file", str(self.circuit_file), "--verify"],
            self.check_circuit))
        return ops

    def _cli_op(self, label, command, argv, check):
        out = self.workdir / label
        return Op(label, command, lambda: _run_cli(argv, out), check)

    def check_check(self, res: CliResult) -> list:
        fails, summary = _summary_failures(_output_size(res))
        if fails:
            return fails
        tol = summary["tolerances"]["algebraic"]
        for entry in summary["sets"]:
            if entry["verdict"] != "QMFS" or not entry["algebraic_residual"] < tol:
                fails.append(f"{res.out.name}: {entry['labels']} residual "
                             f"{entry['algebraic_residual']:.3g} vs {tol:g}")
            if not entry["grid_consistent"]:
                fails.append(f"{res.out.name}: {entry['labels']} grid "
                             "commutator above tolerance")
        if not summary["sets"]:
            fails.append(f"{res.out.name}: no observable sets checked")
        return fails

    def check_koopman(self, res: CliResult) -> list:
        fails, summary = _summary_failures(_output_size(res))
        if fails:
            return fails
        tol = summary["tolerances"]["oracle_residual"]
        if not summary["oracle_residual"] < tol:
            fails.append(f"koopman: oracle residual "
                         f"{summary['oracle_residual']:.3g} vs {tol:g}")
        return fails

    def check_spin(self, res: CliResult) -> list:
        fails, summary = _summary_failures(_output_size(res))
        if fails:
            return fails
        tol = summary["tolerances"]["identity_residual"]
        rows = _read_csv(res.out / "spin_sweep.csv")
        if rows[:, 0].tolist() != self.j0_list:
            return [f"spin: swept J0 {rows[:, 0].tolist()}"]
        if not np.all(rows[:, 1] < tol):
            fails.append(f"spin: identity residual {rows[:, 1].max():.3g} "
                         f"vs {tol:g}")
        if not np.all(np.diff(rows[:, 3]) < 0):
            fails.append("spin: HP variance deviation does not fall with J0")
        return fails

    def check_circuit(self, res: CliResult) -> list:
        fails, summary = _summary_failures(_output_size(res))
        if fails:
            return fails
        if summary.get("dense_deviation") != 0:
            fails.append(f"circuit: dense deviation "
                         f"{summary.get('dense_deviation')}")
        tables = _read_csv(res.out / "truth_tables.csv")
        if not np.array_equal(tables, self.expected_tables):
            fails.append("circuit: truth tables differ from the gate list")
        return fails


WORKLOADS = {w.name: w for w in (CliMonitor, OracleSuite)}
