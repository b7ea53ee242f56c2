"""wallkit benchmark: CLI subcommand throughput per workload, and per-layer
timings from a separate traced run.  See README.md in this directory.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # table of every workload

Each workload is a closed loop: one client in this process calls
``wallkit.cli.run`` and starts the next call when the previous one returns.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's details.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread, pinned before numpy is imported.  A second thread mostly
# spin-waits on the small matrices most calls use, and whenever the other CPU
# is busy it waits for it, so two threads made timings follow the host load.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 7
REFERENCE_EVERY_S = 0.5  # least time between two calls of the reference kernel
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SETUP_CHILD = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wallkit, wallkit.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = wallkit.cli.run(sys.argv[2:])
print(json.dumps({"setup_s": time.perf_counter() - t0, "rc": rc, "file": wallkit.__file__}))
"""


def pin_env():
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("WALLKIT_SEED", None)


def import_wallkit():
    """Import the package from this checkout's src/, or exit without a result."""
    if not (SRC / "wallkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no wallkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wallkit.cli

    if Path(wallkit.__file__).resolve().parent != SRC / "wallkit":
        sys.exit(f"perfbench: imported wallkit from {wallkit.__file__}, not {SRC}")
    return wallkit.cli


def setup_once(warmup) -> float:
    """Fresh-interpreter import of wallkit plus one warm-up call, timed inside the child."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), *warmup],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["rc"] != 0 or Path(out["file"]).resolve().parent != SRC / "wallkit":
        raise RuntimeError(f"set-up warm-up failed: {out}")
    return out["setup_s"]


def call(cli, argv):
    """One operation: (exit code or None, stdout, error, wall ns)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # a crashing operation counts as failed, the run goes on
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall_ns = time.perf_counter_ns() - t0
    return rc, out.getvalue(), error, wall_ns


def run_op(cli, expected, op, argv):
    from workloads import check

    rc, stdout, error, wall_ns = call(cli, argv)
    return {"op": op.label, "argv": argv, "wall_ns": wall_ns, "error": error or check(expected, op, rc, stdout)}


def run_cycles(cli, workload, expected, seed, *, seconds=None, cycles=None, tracer=None, reference_ns=None):
    """Run whole cycles of the workload: ``cycles`` of them, or as many as end
    closest to ``seconds`` of wall time.  Returns the per-operation records
    and the loop's wall time.

    With a ``reference_ns`` list, the reference kernel runs before the first
    operation and then before each operation that starts REFERENCE_EVERY_S
    or more after the kernel last ran; its times are appended to the list.

    With a tracer, every operation runs twice, untraced and traced, in
    alternating order so that neither side always finds the caches warm; the
    traced records are returned and the untraced twins are appended to
    ``tracer.untraced``."""
    import reference

    records = []
    t_start = time.perf_counter()
    last_reference = float("-inf")
    k = 0
    while True:
        for op, argv in workload.cycle(seed, k):
            if reference_ns is not None and time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                t0 = time.perf_counter_ns()
                reference.kernel()
                reference_ns.append(time.perf_counter_ns() - t0)
                last_reference = time.perf_counter()
            if tracer is None:
                records.append(run_op(cli, expected, op, argv))
                continue
            traced_first = len(records) % 2 == 1
            if not traced_first:
                tracer.untraced.append(run_op(cli, expected, op, argv))
            tracer.op_id = len(records)
            with tracer:
                records.append(run_op(cli, expected, op, argv))
            if traced_first:
                tracer.untraced.append(run_op(cli, expected, op, argv))
        k += 1
        elapsed = time.perf_counter() - t_start
        if cycles is not None:
            if k >= cycles:
                break
        elif elapsed + elapsed / k / 2 >= seconds:
            break
    return records, time.perf_counter() - t_start


def tail(times_ms):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above
    it (nearest-rank); the median when the sample is too small for any."""
    n = len(times_ms)
    ordered = sorted(times_ms)
    for p in TAIL_LADDER:
        rank = -(-p * n // 100)  # ceil(p n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return ordered[int(rank) - 1], p, True
    return statistics.median(times_ms), 50.0, False


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == ROOT:
            commit = top[1]
    try:
        import numba  # noqa: F401

        numba_present = True
    except ImportError:
        numba_present = False
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba_present": numba_present,
        "git_commit": commit,
        "machine": platform.machine(),
    }


def _failures(records):
    return [f"{r['op']} (seed {r['argv'][-1]}): {r['error']}" for r in records if r["error"]]


def measure(cli, workload, expected, seed, seconds, setup_samples):
    """Tracing off: the end-to-end metrics."""
    import reference
    from tracer import installed_wrappers

    if installed_wrappers():
        raise RuntimeError(f"untraced run has wrappers installed: {installed_wrappers()}")
    reference_ns = []
    records, wall_s = run_cycles(cli, workload, expected, seed, seconds=seconds, reference_ns=reference_ns)
    if installed_wrappers():
        raise RuntimeError("a wrapper appeared during the untraced run")
    # host speed relative to the machine of the baseline (see reference.py)
    reference_per_s = 1e9 / statistics.median(reference_ns)
    host_speed = reference_per_s / reference.NOMINAL_PER_S
    scale = host_speed if workload.adjust_for_host else 1.0
    times_ms = [r["wall_ns"] / 1e6 for r in records]
    failed = sum(1 for r in records if r["error"])
    tail_ms, tail_p, resolved = tail(times_ms)
    by_op = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r["wall_ns"] / 1e9)
    unadjusted = {
        # one cycle's operations over the time of one cycle, each operation
        # timed by its median over the run's cycles so a burst of host load
        # in one cycle moves it less
        "ops_per_s": len(by_op) / sum(statistics.median(t) for t in by_op.values()),
        "op_p50_ms": statistics.median(times_ms),
        "op_tail_ms": tail_ms,
    }
    values = {
        "ops_per_s": unadjusted["ops_per_s"] / scale,
        "op_p50_ms": unadjusted["op_p50_ms"] * scale,
        "op_tail_ms": unadjusted["op_tail_ms"] * scale,
        "ok_ratio": (len(records) - failed) / len(records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "samples": len(records),
        "cycles": len(records) // len(workload.ops),
        "loop_s": wall_s,
        "host_adjusted": workload.adjust_for_host,
        "host_speed": host_speed,
        "reference_per_s": reference_per_s,
        "reference_calls": len(reference_ns),
        "unadjusted": unadjusted,
        "op_tail_percentile": tail_p,
        "op_tail_resolved": resolved,
        "failed_ratio": failed / len(records),
        "setup_samples_s": setup_samples,
        "failures": _failures(records)[:20],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return records, metrics, detail


def traced_cycles(workload, seconds):
    return max(1, round(seconds / 2 / workload.nominal_cycle_s))


def measure_traced(cli, workload, expected, seed, seconds):
    """Tracing on: fixed cycles, each operation run untraced and traced; per-layer metrics."""
    from tracer import Tracer, installed_wrappers, metric_names

    cycles = traced_cycles(workload, seconds)
    tracer = Tracer()
    traced, _ = run_cycles(cli, workload, expected, seed, cycles=cycles, tracer=tracer)
    if installed_wrappers():
        raise RuntimeError(f"wrappers left installed: {installed_wrappers()}")
    problems = trace_problems(tracer, traced)
    if problems:
        raise RuntimeError("; ".join(problems))
    values = tracer.metrics()
    values["trace.op_s"] = sum(r["wall_ns"] for r in traced) / 1e9
    values["trace.overhead_ratio"] = values["trace.op_s"] / (
        sum(r["wall_ns"] for r in tracer.untraced) / 1e9
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
    detail = {
        "cycles": cycles,
        "spans": len(tracer.spans),
        "failures": _failures(tracer.untraced + traced)[:20],
    }
    return tracer.untraced + traced, metrics, detail


def trace_problems(tracer, records):
    """Self times must be >= 0 and sum to no more than each operation's wall time."""
    problems = []
    negative = sum(1 for span in tracer.spans if span[6] < 0)
    if negative:
        problems.append(f"{negative} spans with negative self time")
    over = [
        op_id for op_id, self_ns in tracer.self_time_by_op().items()
        if op_id is None or self_ns > records[op_id]["wall_ns"]
    ]
    if over:
        problems.append(f"self times exceed the wall time of {len(over)} ops, first {over[0]}")
    return problems


def run_all(seconds, seed):
    """Run every workload in its own process and print the end-to-end table."""
    from workloads import WORKLOADS

    print(f"{'workload':<10} {'metric':<13} {'value':>14}  unit   notes")
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"{name:<10} failed: {proc.stderr.strip()[-300:]}")
            status = 1
            continue
        *_, detail_line, result_line = proc.stdout.strip().splitlines()
        detail, result = json.loads(detail_line)["detail"], json.loads(result_line)
        metrics = dict(result["metrics"])
        metrics["failed_ratio"] = {"value": detail["failed_ratio"], "unit": "ratio"}
        notes = {
            "op_p50_ms": f"n={detail['samples']}",
            "op_tail_ms": f"p{detail['op_tail_percentile']:g}, n={detail['samples']}"
            + ("" if detail["op_tail_resolved"] else " (too few samples: median)"),
            "setup_s": f"median of {len(detail['setup_samples_s'])}",
        }
        if detail["host_adjusted"]:
            notes["ops_per_s"] = f"host-adjusted, host_speed {detail['host_speed']:.3f}"
        for key, m in metrics.items():
            print(f"{name:<10} {key:<13} {m['value']:>14.6g}  {m['unit']:<6} {notes.get(key, '')}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_env()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, load_expected

    if args.workload == "all":
        return run_all(args.seconds, args.seed)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    cli = import_wallkit()
    expected = load_expected()
    setup_samples = [] if args.trace else [setup_once(workload.warmup) for _ in range(SETUP_REPEATS)]
    rc, stdout, error, _ = call(cli, list(workload.warmup))  # untimed warm-up
    if rc != 0:
        raise RuntimeError(f"warm-up call failed: rc={rc} {error or stdout}")
    if args.trace:
        records, metrics, detail = measure_traced(cli, workload, expected, args.seed, args.seconds)
    else:
        records, metrics, detail = measure(
            cli, workload, expected, args.seed, args.seconds, setup_samples
        )
    failed = sum(1 for r in records if r["error"])
    detail.update(workload=workload.name, seed=args.seed, trace=args.trace, env=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
