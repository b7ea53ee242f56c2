"""Write expected.json: the seed-independent outcome of every benchmark operation.

    python3 perfbench/capture.py        # about 3 minutes on 2 CPUs

Each operation runs with the seeds of the first four cycles of benchmark
seed 0.  The exit code and status must agree on all of them; of the
summary's data fields, those that are not floats and are equal on every seed
are kept.  Run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json

import run
from workloads import EXPECTED_PATH, WORKLOADS

SEEDS = 4


def capture(cli, workload, n_seeds):
    seen = {}
    for k in range(n_seeds):
        for op, argv in workload.cycle(0, k):
            rc, stdout, error, _ = run.call(cli, argv)
            if error:
                raise RuntimeError(f"{argv}: {error}")
            summary = json.loads(stdout.strip().splitlines()[-1])
            seen.setdefault(op.label, []).append((rc, summary["status"], summary["data"]))
    out = {}
    for label, results in seen.items():
        if len({(rc, status) for rc, status, _ in results}) != 1:
            raise RuntimeError(f"{label}: exit code or status depends on the seed: {results}")
        rc, status, first = results[0]
        data = {
            key: value
            for key, value in first.items()
            if not isinstance(value, float) and all(d.get(key) == value for *_, d in results)
        }
        out[label] = {"rc": rc, "status": status, "data": data}
    return out


def main():
    run.pin_env()
    cli = run.import_wallkit()
    expected = {}
    for workload in WORKLOADS.values():
        expected.update(capture(cli, workload, SEEDS))
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
