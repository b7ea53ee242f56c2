"""Self-test of the benchmark's layer tracer.

    python3 perfbench/selftest.py

Checks, on one cycle of the cli-mix workload plus one SFF call:
  1. per-layer ``calls`` counts repeat exactly across two traced runs with
     the same seed;
  2. every span's self time is >= 0 and the self times of each operation sum
     to no more than its wall time;
  3. no wrapper is installed during an untraced run, nor after a traced one,
     and the original functions are back in every module that binds them.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import sys

import run
from tracer import Tracer, installed_wrappers
from workloads import WORKLOADS, Workload, load_expected

# layers the operations below must reach; nullspace and trace_powers are
# only ever called through names copied into other modules, so they test
# that those bindings are wrapped too
MUST_CALL = (
    "linalg.nullspace", "linalg.lapack.svd", "linalg.lapack.qr", "linalg.lapack.eigvals",
    "kernels.trace_powers", "layout.SeededRng.generator", "dynamics.verify_wall", "cli.run",
)


def snapshot():
    """Identity of every binding a tracer may replace."""
    import numpy as np

    bound = {
        (name, attr): id(value)
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "wallkit"
        for attr, value in vars(mod).items()
    }
    bound.update({("numpy.linalg", f): id(getattr(np.linalg, f)) for f in ("svd", "qr", "eigvals", "eigh")})
    bound["SeededRng.generator"] = id(sys.modules["wallkit.layout"].SeededRng.generator)
    return bound


def main() -> int:
    run.pin_env()
    cli = run.import_wallkit()
    expected = load_expected()
    mix = WORKLOADS["cli-mix"]
    sff = WORKLOADS["sff"].ops[0]
    workload = Workload("selftest", (*mix.ops, sff), mix.warmup, 1.0)
    failures = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    before = snapshot()
    expect(not installed_wrappers(), "no wrapper installed before tracing")
    records, _ = run.run_cycles(cli, workload, expected, 7, cycles=1)
    expect(not installed_wrappers(), "no wrapper installed after an untraced run")
    expect(not any(r["error"] for r in records), "untraced operations are correct")

    counts = []
    for attempt in (1, 2):
        tracer = Tracer()
        records, _ = run.run_cycles(cli, workload, expected, 7, cycles=1, tracer=tracer)
        expect(not installed_wrappers(), f"traced run {attempt}: wrappers removed afterwards")
        twins = records + tracer.untraced
        expect(not any(r["error"] for r in twins), f"traced run {attempt}: operations are correct")
        problems = run.trace_problems(tracer, records)
        expect(not problems, f"traced run {attempt}: self times >= 0 and within op wall time {problems}")
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
        missing = [m for m in MUST_CALL if metrics[f"{m}.calls"] == 0]
        expect(not missing, f"traced run {attempt}: wrapped layers reached {missing}")
        expect(metrics["cli.run.calls"] == len(records), f"traced run {attempt}: one cli.run span per op")
    expect(counts[0] == counts[1], "per-layer calls repeat exactly across two traced runs")

    expect(snapshot() == before, "original functions restored in every namespace")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
