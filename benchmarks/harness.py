"""One workload in a fresh process: set up, run timed passes, check, report.

    python3 benchmarks/harness.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only] [--smoke]

Prints one JSON object on the last line of stdout.  ``benchmarks/run.py``
starts this process; it is not meant to be called by hand.

Set-up time runs from the first line of this file (before ``import
qmfslab``) to the end of the workload's input and bundle construction.
Passes run back to back until ``--seconds`` have elapsed (at least one).
With ``--trace 1`` untraced and traced passes alternate: the untraced
ones give the per-command times, the traced ones the spans, and the
difference of their median pass times is the tracing overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("simulate", "force", "check", "koopman", "spin", "circuit")


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import qmfslab

    where = Path(qmfslab.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"qmfslab imported from {where}, not this checkout")
    return qmfslab


def attr_fns():
    """Work counts recorded on spans, from each call's arguments."""

    def sweep(a, n_traj):
        model, channels = a["model"], a["channels"]
        key = (model.G.tobytes(), model.hbar, a["state0"].cov.tobytes(),
               tuple((ch.s.tobytes(), ch.k, ch.eta) for ch in channels),
               a["dt"], a["T"])
        return {"sweep_key": hash(key),
                "traj_steps": n_traj * int(round(a["T"] / a["dt"]))}

    def rk4_steps(a):
        dt = a["flow"].dt if a["dt"] is None else a["dt"]
        n = max(1, int(round(a["T"] / dt)))
        # integrate() re-runs the sweep at half step when check is on
        return {"rk4_steps": n + (max(1, int(round(a["T"] / (dt / 2))))
                                  if a["check"] else 0)}

    def dense_ops(a):
        n = a["circuit"].n_bits
        dim = 1 << n
        # per output bit: two products for U^T Z_j U, two per input bit
        # for the commutator with Z_k; dim^3 multiply-adds each
        return {"dim": dim, "ops": n * (2 + 2 * n) * dim**3}

    return {
        "conditional.evolve_conditional": lambda a: sweep(a, 1),
        "conditional.simulate_batch": lambda a: sweep(a, a["n_traj"]),
        "koopman.integrate": rk4_steps,
        "fock.build_koopman_hamiltonian": lambda a: {"dim": a["spec"].dim},
        "spins.build_spin_pair": lambda a: {
            "dim": (int(round(2 * a["J0"])) + 1) ** 2},
        "circuits.dense_oracle_check": dense_ops,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


LAYER_COUNTERS = (
    "models.build.calls", "models.build.self_s", "conditional.cov_sweeps",
    "conditional.useful_cov_sweep_ratio", "conditional.traj_steps",
    "koopman.rk4_steps", "fock.dim", "spins.dim_max", "circuits.dense_dim",
    "circuits.dense_ops_computed", "trace.unattributed_s",
    "trace.bookkeeping_s",
)


def layer_metrics(spans, ops, tracer, builders) -> dict:
    """Per-layer metrics of one traced pass; 0 for work not done."""
    from spans import LAYERS, ROOT as ROOT_SPAN, layer_of, self_times

    own = self_times(spans)
    m = defaultdict(float)
    for name in tracer.public_functions().values():
        m[f"{name}.calls"] = m[f"{name}.self_s"] = 0.0
    for name in LAYERS:
        m[f"{name}.self_s"] = m[f"{name}.errors"] = 0.0
    for name in LAYER_COUNTERS:
        m[name] = 0.0
    sweeps_by_op = defaultdict(set)
    for s in spans:
        t = own[id(s)]
        if s.name == ROOT_SPAN:
            m["trace.unattributed_s"] += t
            continue
        m["trace.bookkeeping_s"] += s.bookkeeping
        layer = layer_of(s.name)
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.self_s"] += t
        m[f"{layer}.self_s"] += t
        m[f"{layer}.errors"] += s.error
        if s.name in builders:
            m["models.build.calls"] += 1
            m["models.build.self_s"] += t
        a = s.attrs or {}
        if "sweep_key" in a:
            m["conditional.cov_sweeps"] += 1
            m["conditional.traj_steps"] += a["traj_steps"]
            sweeps_by_op[s.op].add(a["sweep_key"])
        if "rk4_steps" in a:
            m["koopman.rk4_steps"] += a["rk4_steps"]
        if s.name == "fock.build_koopman_hamiltonian":
            m["fock.dim"] = max(m["fock.dim"], a["dim"])
        if s.name == "spins.build_spin_pair":
            m["spins.dim_max"] = max(m["spins.dim_max"], a["dim"])
        if s.name == "circuits.dense_oracle_check":
            m["circuits.dense_dim"] = max(m["circuits.dense_dim"], a["dim"])
            m["circuits.dense_ops_computed"] += a["ops"]
    if m["conditional.cov_sweeps"]:
        m["conditional.useful_cov_sweep_ratio"] = (
            sum(len(k) for k in sweeps_by_op.values())
            / m["conditional.cov_sweeps"])
    m["trace.wall_s"] = sum(r["seconds"] for r in ops)
    return m


def run(workload, seconds, tracer, builders, spans_path):
    """Timed passes plus checks; returns (op records, per-pass layer dicts).

    Without a tracer every pass is untraced; with one, passes alternate
    untraced/traced and the run ends after an even number of passes.
    """
    records = []
    layer_passes = []
    pass_of_op = {}
    start = time.perf_counter()
    n_pass = 0
    while True:
        traced = tracer is not None and n_pass % 2 == 1
        pass_ops = []
        first_span = len(tracer.spans) if tracer is not None else 0
        for op in workload.pass_ops():
            op_id = len(records)
            rec = {"pass": n_pass, "traced": traced, "label": op.label,
                   "command": op.command, "traj_steps": op.traj_steps,
                   "failures": []}
            if traced:
                tracer.install()
            scope = tracer.root(op_id) if traced else contextlib.nullcontext()
            t = time.perf_counter()
            try:
                with scope:
                    result = op.run()
                rec["seconds"] = time.perf_counter() - t
            except Exception:
                rec["seconds"] = time.perf_counter() - t
                rec["failures"].append(traceback.format_exc(limit=3))
                result = None
            finally:
                if traced:
                    tracer.uninstall()
            if result is not None:
                try:
                    rec["failures"] += op.check(result)
                except Exception:
                    rec["failures"].append(traceback.format_exc(limit=3))
                rec["files"] = result.files
                rec["bytes"] = result.bytes
            del result
            pass_of_op[op_id] = n_pass
            records.append(rec)
            pass_ops.append(rec)
        if traced:
            layer_passes.append(layer_metrics(
                tracer.spans[first_span:], pass_ops, tracer, builders))
        n_pass += 1
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or n_pass % 2 == 0):
            break
    if tracer is not None:
        tracer.dump(spans_path, pass_of_op)
    return records, layer_passes


def summarize(records, layer_passes, probe_failures) -> dict:
    """Metric values by name, from the op records and traced passes."""
    untraced = [r for r in records if not r["traced"]]
    passes = defaultdict(list)
    for r in untraced:
        passes[r["pass"]].append(r)
    m = {"wall_s": _median([sum(r["seconds"] for r in p)
                            for p in passes.values()])}
    for cmd in COMMANDS:
        m[f"{cmd}_s"] = _median([
            sum(r["seconds"] for r in p if r["command"] == cmd)
            for p in passes.values()
        ]) if any(r["command"] == cmd for r in untraced) else 0.0
    rates = [r["traj_steps"] / r["seconds"]
             for r in untraced if r["traj_steps"]]
    m["traj_steps_per_s"] = _median(rates)
    p1 = [r["seconds"] for r in untraced if r["label"] == "simulate-p1"]
    p2 = [r["seconds"] for r in untraced if r["label"] == "simulate-p2"]
    m["cli.parallel_speedup"] = _median(p1) / _median(p2) if p2 else 0.0
    first = list(passes.values())[0]
    m["cli.files_written"] = sum(r.get("files", 0) for r in first)
    m["cli.bytes_written"] = sum(r.get("bytes", 0) for r in first)
    failed = sum(bool(r["failures"]) for r in records)
    m["error_rate"] = failed / len(records)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m["probe.known_defect_failures"] = probe_failures
    if layer_passes:
        keys = set().union(*layer_passes)
        for k in keys:
            m[k] = _median([lp.get(k, 0.0) for lp in layer_passes])
        m["trace.overhead_s"] = m["trace.wall_s"] - m["wall_s"]
    return m


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true",
                   help="self-test sizes instead of the benchmark's")
    args = p.parse_args(argv)

    qmfslab = _import_program()
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    size = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](workdir, args.seed, dict(size))
    workload.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(qmfslab, attr_fns())
    builders = {f"models.{fn.__name__}"
                for fn in qmfslab.models.BUILDERS.values()}
    records, layer_passes = run(workload, args.seconds, tracer, builders,
                                workdir / "spans.jsonl")
    probe_failures = 0
    if args.trace:
        probe = workloads.known_defect_probe(workdir, args.seed)
        probe_failures = int(probe.exit_code != 0)
    failures = [f"{r['label']} (pass {r['pass']}): {msg}"
                for r in records for msg in r["failures"]]
    metrics = summarize(records, layer_passes, probe_failures)
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": len(records),
        "failed": sum(bool(r["failures"]) for r in records),
        "failures": failures[:20],
        "passes": 1 + max(r["pass"] for r in records),
        "ops": [[r["label"], r["pass"], r["traced"], r["seconds"]]
                for r in records],
        "metrics": metrics,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
