"""The four benchmark workloads: fixed lists of ``wallkit`` CLI calls, their
seeds, and the correctness oracle for each call.

A workload is one cycle of operations.  Cycle ``k`` of a run with seed ``s``
gives every operation its own ``--seed``, drawn from ``random.Random`` seeded
with ``"<workload>/<s>/<k>"``, so the same seed gives the same calls.  The
expected exit code, status and summary fields of every operation are in
``expected.json``; ``capture.py`` wrote them by running each operation on
several seeds and keeping only the fields that were equal on all of them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The SFF summary's max_sigma_deviation is the largest |K_mc - K_analytic| in
# units of the Monte-Carlo standard error over t = 1..32.  A 6-sigma bound
# misfires with probability about 32 * 2e-9 per call for a correct program,
# so chance excursions stay improbable over thousands of calls; the 4-sigma
# bound of the acceptance test would misfire every few hundred calls.
SFF_SIGMA_BOUND = 6.0

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Op:
    """One CLI call without its ``--seed``; ``label`` is its seed-free name."""

    argv: tuple[str, ...]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    warmup: tuple[str, ...]  # untimed call counted in set-up time
    nominal_cycle_s: float  # sizes the traced run; never read from a clock
    # divide the time metrics by the host speed the reference kernel measures
    # (run.py); only for work that slows with the host the way the kernel does
    adjust_for_host: bool = True

    def cycle(self, seed: int, k: int) -> list[tuple[Op, list[str]]]:
        rng = random.Random(f"{self.name}/{seed}/{k}")
        return [(op, [*op.argv, "--seed", str(rng.randrange(2**31))]) for op in self.ops]


def _ops(*argvs) -> tuple[Op, ...]:
    return tuple(Op(tuple(a.split())) for a in argvs)


STRUCTURE_PRESETS = (
    "abelian-pair", "soliton-x", "reducible-composite", "swap-zz", "fswap", "nonabelian-cnot",
)
# sample counts chosen so every call costs about the same (about 0.4 s): the
# per-sample cost differs threefold between the block layouts
SFF_CASES = (
    "--preset abelian-pair --samples 1000",
    "--preset swap-zz --samples 600",
    "--preset nonabelian-cnot --samples 1600",
    "--haar-dim 16 --samples 1000",
)
SCAN_EMBEDS = ("--embed-at 1", "--embed-at 3", "--embed-at 5", "")

# every preset with the qubit count of its central region (for measure)
MIX_PRESETS = {
    "abelian-pair": 1, "reducible-composite": 2, "soliton-x": 1, "uncoupled-center": 3,
    "swap-zz": 2, "fswap": 2, "nonabelian-cnot": 2,
}
MIX_GENERATORS = ("XI,ZX", "ZZ,XX", "XIZ,ZXI")


def _mix_ops() -> tuple[Op, ...]:
    argvs = []
    for gens in MIX_GENERATORS:
        argvs += [f"{cmd} --generators {gens}" for cmd in ("close", "commutant", "center", "decompose")]
    for preset, n_center in MIX_PRESETS.items():
        argvs += [
            f"{cmd} --preset {preset}"
            for cmd in ("synth", "verify", "lightcone", "invariants", "fragments", "arealaw")
        ]
        argvs.append(f"gauge-seq --preset {preset} --t-max 5")
        argvs.append(f"measure --preset {preset} --observable {'Z' * n_center}")
    argvs.append("verify --algebra haar")  # a Haar unitary is no wall: exit 2
    return _ops(*argvs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "structure",
            _ops(*(f"conserved --preset {p}" for p in STRUCTURE_PRESETS)),
            ("conserved", "--preset", "abelian-pair"),
            33.0,
            # 99% LAPACK SVD, which does not slow with the host the way the
            # interpreter-bound reference kernel does: with the kernel run
            # before each conserved call, dividing by it raised the calls'
            # variation from 9-10% to 17-19%
            adjust_for_host=False,
        ),
        Workload(
            "sff",
            _ops(*(f"sff {c} --t-max 32" for c in SFF_CASES)),
            ("sff", "--preset", "abelian-pair", "--samples", "200", "--t-max", "8"),
            1.6,
        ),
        Workload(
            "scan",
            _ops(*(f"scan --chain-sites 7 {e}".strip() for e in SCAN_EMBEDS)),
            ("scan", "--chain-sites", "4", "--embed-at", "1"),
            1.4,
        ),
        Workload("cli-mix", _mix_ops(), ("verify", "--preset", "fswap"), 2.5),
    )
}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check(expected: dict, op: Op, rc, stdout: str) -> str | None:
    """None if the call's exit code and summary match; else the mismatch."""
    want = expected.get(op.label)
    if want is None:
        return "no expectation recorded"
    if rc != want["rc"]:
        return f"exit code {rc}, expected {want['rc']}"
    try:
        summary = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return "no JSON summary on stdout"
    if summary.get("status") != want["status"]:
        return f"status {summary.get('status')!r}, expected {want['status']!r}"
    data = summary.get("data", {})
    for key, value in want["data"].items():
        if data.get(key) != value:
            return f"{key} = {data.get(key)!r}, expected {value!r}"
    if op.argv[0] == "sff":
        dev = data.get("max_sigma_deviation")
        if not isinstance(dev, float) or not math.isfinite(dev) or dev >= SFF_SIGMA_BOUND:
            return f"max_sigma_deviation {dev!r} not below {SFF_SIGMA_BOUND}"
    return None
