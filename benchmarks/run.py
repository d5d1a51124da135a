"""qmfslab benchmark: one workload per invocation, result on the last line.

    python3 benchmarks/run.py --workload cli-monitor|oracle-suite
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; qmfslab is imported from ``src/``.  The
workload runs in a fresh child process (``harness.py``) with BLAS and
OpenMP pinned to one thread, so compute threads never exceed
``--parallel 2``.  Set-up time is sampled in five further fresh
processes and reported as the median of all six.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The exit code is 1 when any result check failed, 2 when
the benchmark cannot run at all (nothing is printed on stdout then).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-monitor", "oracle-suite")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child(args, extra, timeout):
    """Run harness.py; return its last stdout line parsed as JSON."""
    cmd = [sys.executable, str(HERE / "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    env = {**os.environ, **THREAD_ENV}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"harness timed out after {timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"harness exited with code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> dict:
    if not (ROOT / "src" / "qmfslab" / "__init__.py").is_file():
        raise BenchError(f"no qmfslab sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = HERE / ".runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    setups = []
    try:
        for i in range(SETUP_SAMPLES):
            out = child(args, ["--workdir", str(run_dir / f"setup{i}"),
                               "--setup-only"], timeout=60)
            setups.append(out["setup_s"])
        work = run_dir / "work"
        res = child(args, ["--workdir", str(work)], timeout=CHILD_TIMEOUT_S)
    finally:
        # keep the span file of a traced run, drop the data files
        for path in sorted(run_dir.glob("*")):
            if path.is_dir():
                spans = path / "spans.jsonl"
                if spans.is_file():
                    spans.replace(run_dir / "spans.jsonl")
                shutil.rmtree(path)
    setups.append(res["setup_s"])

    values = dict(res["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"harness did not report {missing}")
    for msg in res["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    env = dict(res["env"], **THREAD_ENV, nproc=os.cpu_count(),
               passes=res["passes"], setup_samples=len(setups))
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "env": env}))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
