"""Smoke self-test of the benchmark harness at small sizes.

    python3 benchmarks/selftest.py

Checks that every metric named in BENCHMARK.json is emitted (end-to-end
with --trace 0, per-layer with --trace 1), that the layers' self times
add up to the traced pass time, that a corrupted result trips its check,
and that the benchmark refuses to run without the program's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / ".runs" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import qmfslab  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def harness(workload, trace):
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace),
           "--workdir", str(SCRATCH / f"{workload}-{trace}"), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, **run.THREAD_ENV}, timeout=120)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_workload(cls):
    workdir = SCRATCH / f"{cls.name}-corrupt"
    workdir.mkdir(parents=True, exist_ok=True)
    w = cls(workdir, 7, dict(workloads.SMOKE))
    w.setup()
    return w, {op.label: op for op in w.pass_ops()}


class MetricNames(unittest.TestCase):
    def test_every_metric_emitted(self):
        e2e = [m["name"] for m in SPEC["end_to_end"] if m["name"] != "setup_s"]
        layer = [m["name"] for m in SPEC["per_layer"]]
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                plain = harness(name, 0)
                self.assertEqual(plain["failed"], 0, plain["failures"])
                self.assertGreater(plain["setup_s"], 0)
                self.assertEqual(sorted(set(e2e) - set(plain["metrics"])), [])
                traced = harness(name, 1)
                self.assertEqual(traced["failed"], 0, traced["failures"])
                m = traced["metrics"]
                self.assertEqual(sorted(set(layer) - set(m)), [])
                # self times of all layers plus the harness's own share of
                # the operation span add up to the traced pass time
                total = sum(m[f"{lay}.self_s"] for lay in LAYERS)
                self.assertAlmostEqual(total + m["trace.unattributed_s"],
                                       m["trace.wall_s"], delta=5e-3)
                self.assertGreater(m["trace.bookkeeping_s"], 0)
                self.assertEqual(m["probe.known_defect_failures"], 1)

    def test_function_metrics_name_public_functions(self):
        names = set(Tracer(qmfslab).public_functions().values())
        for m in SPEC["per_layer"]:
            base, _, kind = m["name"].rpartition(".")
            if kind in ("calls", "self_s") and base.count(".") == 1:
                if base != "models.build":
                    self.assertIn(base, names, m["name"])


class CorruptedResults(unittest.TestCase):
    def test_cli_monitor(self):
        w, ops = smoke_workload(workloads.CliMonitor)
        res = ops["simulate-p1"].run()
        self.assertEqual(w.check_simulate(res), [])
        cov = res.out / "covariance_0000.csv"
        good = cov.read_bytes()
        cov.write_bytes(good.replace(b"0.", b"1.", 1))
        self.assertTrue(w.check_simulate(res))  # bytes differ from reference
        w.reference = None
        lines = good.decode().splitlines()
        t, *vals = lines[-1].split(",")
        lines[-1] = ",".join([t] + [repr(float(v) * 0.01) for v in vals])
        cov.write_text("\n".join(lines) + "\n")
        fails = w.check_simulate(res)
        self.assertTrue(any("unphysical" in f for f in fails), fails)

        res = ops["force"].run()
        self.assertEqual(w.check_force(res), [])
        summary = json.loads((res.out / "summary.json").read_text())
        summary["force"]["ratio_pair_over_single"] = 1.5
        (res.out / "summary.json").write_text(json.dumps(summary))
        self.assertTrue(w.check_force(res))

    def test_oracle_suite(self):
        w, ops = smoke_workload(workloads.OracleSuite)
        res = ops["circuit"].run()
        self.assertEqual(w.check_circuit(res), [])
        path = res.out / "truth_tables.csv"
        lines = path.read_text().splitlines()
        last = lines[-1].split(",")
        last[-1] = "0.0" if float(last[-1]) else "1.0"
        path.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
        self.assertTrue(w.check_circuit(res))

        res = ops["check-pair"].run()
        self.assertEqual(w.check_check(res), [])
        summary = json.loads((res.out / "summary.json").read_text())
        summary["sets"][0]["grid_consistent"] = False
        (res.out / "summary.json").write_text(json.dumps(summary))
        self.assertTrue(w.check_check(res))

        res = ops["spin"].run()
        self.assertEqual(w.check_spin(res), [])
        path = res.out / "spin_sweep.csv"
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        rows[0, 1] = 1e-3
        np.savetxt(path, rows, delimiter=",", header="J0,r,m,v", comments="")
        self.assertTrue(w.check_spin(res))

    def test_known_defect_probe_still_fails(self):
        res = workloads.known_defect_probe(SCRATCH, 7)
        self.assertEqual(res.exit_code, 2)
        omegas = [math.sqrt(g) for g in np.diag(np.array(
            workloads.pair_chain_model(7)["G"]))[0::4]]
        self.assertEqual((min(omegas), max(omegas)), (1.0, 3.0))


class Refusal(unittest.TestCase):
    def test_no_sources_no_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "benchmarks",
                        ignore=shutil.ignore_patterns(".runs", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "oracle-suite",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
