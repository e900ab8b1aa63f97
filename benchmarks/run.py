"""Benchmark for plektonlab.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Workloads: verify-all, winding-table, transport, lattice (see README.md).
Each run imports the package from ``src/`` of the checkout, sets up the
workload's inputs from ``--seed``, then repeats one operation until
``--seconds`` have passed (at least MIN_OPS times), checking every output.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record
goes to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Fixed before numpy is loaded.  OpenBLAS otherwise starts one thread per
# core, and the dense products of the lattice workload then vary by more than
# 10% between identical runs on a 2-core machine.  The sweep scale is the
# package default, set explicitly so the environment cannot change it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PLEKTONLAB_SWEEP"] = "1.0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("verify-all", "winding-table", "transport", "lattice")
MIN_OPS = 2
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def load_package() -> None:
    """Import plektonlab from this checkout's sources, never from elsewhere."""
    pkg = ROOT / "src" / "plektonlab"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"run.py: no plektonlab sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import plektonlab
    import plektonlab.cli  # noqa: F401
    import plektonlab.lattice  # noqa: F401

    if Path(plektonlab.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"run.py: imported plektonlab from {plektonlab.__file__}, not {pkg}")


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import the package and set up the workload's inputs, in
    this fresh process."""
    start = time.perf_counter()
    load_package()
    import workloads

    wl = workloads.WORKLOADS[workload]
    state = wl.setup(ROOT, seed, OUT_DIR)
    elapsed = time.perf_counter() - start
    wl.cleanup(state)
    return elapsed


def probe_setup_times(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def measure(wl, state, seconds: float, tracer) -> dict:
    """Repeat the workload's operation for ``seconds`` (at least MIN_OPS
    times); time each call and check each output outside the timing."""
    times, failures = [], []
    first = None
    attempted = 0
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < seconds:
        attempted += 1
        out = error = None
        if tracer is not None:
            tracer.op = attempted
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = wl.run(state)
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        if error is None:
            try:
                problems = wl.check(state, out, first)
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [error]
        if problems:
            failures.append({"op": attempted, "problems": problems[:5]})
        else:
            times.append(elapsed)
            if first is None:
                first = out
    return {"attempted": attempted, "times": times, "failures": failures}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "sweep": os.environ["PLEKTONLAB_SWEEP"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one import and set-up, print seconds")
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    load_package()
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    setup_times = [] if args.trace else probe_setup_times(args.workload, args.seed)
    state = wl.setup(ROOT, args.seed, OUT_DIR)
    try:
        result = measure(wl, state, args.seconds, tracer)
    finally:
        wl.cleanup(state)

    times = result["times"] or [float("nan")]
    op_p50_ms = statistics.median(times) * 1e3
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        "op_times_ms": [t * 1e3 for t in result["times"]],
        "setup_times_s": setup_times, "failures": result["failures"],
    }
    if tracer is not None:
        values = tracer.metrics(result["attempted"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in tracing.METRICS}
        record["op_p50_ms"] = op_p50_ms
        record.update(tracer.dump())
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["metrics"] = metrics
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "result"
    out_file = OUT_DIR / f"{kind}-{args.workload}-seed{args.seed}.json"
    out_file.write_text(json.dumps(record) + "\n", encoding="utf-8")

    failed = len(result["failures"])
    for f in result["failures"]:
        print(f"FAILED op {f['op']}: {f['problems'][0].strip().splitlines()[-1]}")
    print(f"{args.workload} seed={args.seed}: {result['attempted']} ops, {failed} failed, "
          f"op p50 {op_p50_ms:.1f} ms over {len(result['times'])} samples; record {out_file}")
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
