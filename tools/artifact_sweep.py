"""Run a fixed list of ``wallkit`` CLI calls in one process and record what
each produced, so that two trees can be compared byte for byte.

    PYTHONPATH=src python tools/artifact_sweep.py OUT_DIR

writes OUT_DIR/manifest.json (one entry per call: its argv, exit code, and
the sha256 of its stdout, its stderr and its ``--out`` artifact) and the
artifacts themselves under OUT_DIR/artifacts.  Diff the manifests of two
trees to see which outputs changed.  The list covers every subcommand: the
seven preset walls at seeds 0-2, ``--dims`` walls with ``diag`` and ``full``,
Pauli generator strings, the SFF ensembles and chain scans.  Exits 1 when a
call ends with an exit code outside {0, 1, 2} (an uncaught exception counts
as one), else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from pathlib import Path

from wallkit.cli import run

PRESETS = (
    "abelian-pair",
    "reducible-composite",
    "soliton-x",
    "uncoupled-center",
    "swap-zz",
    "fswap",
    "nonabelian-cnot",
)

# wall subcommands, with the extension of their --out artifact (None: no --out)
WALL_COMMANDS = {
    "synth": "json",
    "verify": None,
    "lightcone": "csv",
    "invariants": None,
    "conserved": "json",
    "gauge-seq": None,
    "fragments": None,
    "arealaw": None,
    "measure": "csv",
}
ALGEBRA_COMMANDS = ("close", "commutant", "center", "decompose")
GENERATORS = ("Z", "ZZ", "XI,ZX", "ZI,IZ", "XX,ZZ", "ZII,IXI")
DIMS = ("2,2,2", "2,3,2", "3,4,2")
SFF_SOURCES = (
    ("--haar-dim", "4"),
    ("--preset", "abelian-pair"),
    ("--preset", "nonabelian-cnot"),
    ("--dims", "2,3,2", "--algebra", "full"),
    ("--dims", "3,4,2", "--algebra", "diag"),
)
SCANS = (
    ("--chain-sites", "6"),
    ("--chain-sites", "8", "--embed-at", "3"),
    ("--chain-sites", "7", "--embed-at", "3", "--max-width", "3"),
)


def calls() -> list[tuple[list[str], str | None]]:
    """(argv without --out, artifact extension or None) of every call."""
    out = []
    for cmd in ALGEBRA_COMMANDS:
        out += [([cmd, "--generators", gens, "--seed", "0"], "json") for gens in GENERATORS]
    for cmd, ext in WALL_COMMANDS.items():
        for seed in range(3):
            out += [([cmd, "--preset", name, "--seed", str(seed)], ext) for name in PRESETS]
        for dims in DIMS:
            for algebra in ("diag", "full"):
                out.append(([cmd, "--dims", dims, "--algebra", algebra, "--seed", "0"], ext))
    out += [(["verify", "--dims", dims, "--algebra", "haar", "--seed", "0"], None) for dims in DIMS]
    for algebra in ("diag", "full"):  # a qubit seed site on the qutrit-edged wall
        argv = ["lightcone", "--dims", "3,4,2", "--algebra", algebra, "--seed-site", "2"]
        out.append((argv + ["--seed", "0"], "csv"))
    for source in SFF_SOURCES:
        for fmt in ("csv", "json"):
            argv = ["sff", *source, "--t-max", "16", "--samples", "400", "--seed", "0"]
            out.append((argv + ["--format", fmt], fmt))
    out += [(["scan", *scan, "--seed", "0"], "csv") for scan in SCANS]
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep(out_dir: Path) -> list[dict]:
    artifacts = out_dir / "artifacts"
    artifacts.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (argv, ext) in enumerate(calls()):
        entry = {"argv": argv}
        path = artifacts / f"{i:03d}.{ext}" if ext else None
        if path is not None:
            path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                entry["exit"] = run(argv + (["--out", str(path)] if path else []))
        except Exception as exc:  # a traceback, which the CLI never should give
            traceback.print_exc()
            entry["exit"] = None
            entry["error"] = f"{type(exc).__name__}: {exc}"
        entry["stdout_sha256"] = _sha256(stdout.getvalue().encode())
        entry["stderr_sha256"] = _sha256(stderr.getvalue().encode())
        if path is not None:
            entry["artifact"] = path.name
            entry["artifact_sha256"] = _sha256(path.read_bytes()) if path.exists() else None
        entries.append(entry)
    return entries


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    entries = sweep(out_dir)
    (out_dir / "manifest.json").write_text(json.dumps(entries, indent=1) + "\n")
    codes = {}
    for e in entries:
        codes[str(e["exit"])] = codes.get(str(e["exit"]), 0) + 1
    bad = [e for e in entries if e["exit"] not in (0, 1, 2)]
    print(json.dumps({"calls": len(entries), "exit_codes": codes}, sort_keys=True))
    for e in bad:
        print(f"unexpected exit {e['exit']}: {' '.join(e['argv'])}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
