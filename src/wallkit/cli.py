"""Command-line front end: config parsing, subcommand dispatch, deterministic
seeding, and CSV/JSON artifact emission.

Every run prints a one-line JSON summary to stdout and exits 0 on success,
1 on a validation error, and 2 when the tool ran but a checked property
failed (e.g. a wall verification that comes back false).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .layout import SeededRng, SystemLayout
from .linalg import embed, haar_unitary
from .algebra import center as algebra_center, close_algebra, commutant
from .blocks import decompose, isomorphism_signature
from .walls import (
    PRESET_NAMES,
    conditional_unitary,
    pauli_string,
    preset_algebra,
    preset_wall,
    resolve_central_algebra,
    synth_wall,
)
from . import dynamics, observables


# arealaw checks at most this many random product states, whatever --samples says
AREALAW_MAX_STATES = 20
# scan checks each window on its cone of at most this many qubits (d = 256)
SCAN_MAX_CONE_SITES = 8


class UsageError(Exception):
    """Configuration or argument problem; maps to exit code 1."""


class PropertyViolation(Exception):
    """The tool ran but a checked property failed; maps to exit code 2."""

    def __init__(self, message, data):
        super().__init__(message)
        self.data = data


class RunConfig(SimpleNamespace):
    """One run's ``command`` and the merged value of every key in ``FLAGS``."""


@dataclass(frozen=True)
class Flag:
    """Type, default and range of one config key: ``kind`` is int, str or
    "ints" (comma-separated integers); ``low``/``high`` bound an integer or
    each integer of a list."""

    kind: object
    default: object = None
    low: int | None = None
    high: int | None = None
    choices: tuple[str, ...] | None = None


FLAGS = {
    "preset": Flag(str, choices=PRESET_NAMES),
    "generators": Flag(str),
    "dims": Flag("ints", low=1),
    "algebra": Flag(str),
    "permutation": Flag("ints"),
    "seed": Flag(int, 0, low=0),
    "t_max": Flag(int, 20, low=0),
    "samples": Flag(int, 4000, low=1),
    "rounds": Flag(int, 10, low=1),
    "observable": Flag(str),
    "seed_site": Flag(int, 0),
    "seed_pauli": Flag(str, "Z"),
    "out": Flag(str),
    "format": Flag(str, "csv", choices=("csv", "json")),
    "chain_sites": Flag(int, 8, low=4, high=100),
    "embed_at": Flag(int),
    "haar_dim": Flag(int, low=1),
    "dim_l": Flag(int, low=1),
    "dim_r": Flag(int, low=1),
    "max_width": Flag(int, 2, low=1),
}

_KIND_NAMES = {int: "an integer", str: "a string", "ints": "integers"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser(argv=()) -> _Parser:
    """The top-level parser.  When ``argv`` starts with a subcommand name it
    holds only that subcommand's parser; otherwise (no argv, a leading
    option, an unknown name) it holds all of them, for the usage text and
    the missing- or invalid-command errors."""
    return _parser(argv[0] if argv and argv[0] in COMMANDS else None)


@functools.cache
def _parser(command: str | None) -> _Parser:
    """``_build_parser`` for one subcommand (None: all of them), built once
    per process: parsing leaves a parser as it was."""
    p = _Parser(prog="wallkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS if command is None else (command,):
        sp = sub.add_parser(name)
        keys = COMMANDS[name][1]
        sp.add_argument("--config")
        for key in ("seed",) + keys:
            flag = FLAGS[key]
            sp.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=str if flag.kind == "ints" else flag.kind,
                choices=flag.choices,
            )
    return p


def _has_kind(value, kind) -> bool:
    if kind == "ints":
        return isinstance(value, list) and all(_has_kind(v, int) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _read(key: str, value):
    """``value`` with the comma string of an "ints" key read as a list;
    any other value as it is."""
    if FLAGS[key].kind == "ints" and isinstance(value, str):
        try:
            return [int(x) for x in value.split(",")]
        except ValueError:
            pass
    return value


def _checked(key: str, value):
    """``value`` for config key ``key`` if it has the key's type and range."""
    flag, name = FLAGS[key], "--" + key.replace("_", "-")
    if value is None and flag.default is None:
        return None
    value = _read(key, value)
    if not _has_kind(value, flag.kind):
        raise UsageError(f"{name} must be {_KIND_NAMES[flag.kind]}, got {value!r}")
    if flag.choices is not None and value not in flag.choices:
        raise UsageError(f"{name} must be one of {list(flag.choices)}, got {value!r}")
    if flag.low is not None:
        high = float("inf") if flag.high is None else flag.high
        for v in value if flag.kind == "ints" else [value]:
            if not flag.low <= v <= high:
                bound = f">= {flag.low}" if flag.high is None else f"between {flag.low} and {high}"
                raise UsageError(f"{name} must be {bound}, got {value!r}")
    return value


def parse_config(argv) -> RunConfig:
    """Merge precedence: flags > config file > WALLKIT_SEED env > defaults.

    A subcommand accepts only the keys its handler reads, as flags or in
    the config file, and every merged value must have its flag's type and
    range."""
    ns = _build_parser(argv).parse_args(argv)
    keys = ("seed",) + COMMANDS[ns.command][1]
    cfg = RunConfig(command=ns.command, **{k: f.default for k, f in FLAGS.items()})
    env_seed = os.environ.get("WALLKIT_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise UsageError(f"WALLKIT_SEED must be an integer, got {env_seed!r}")
    file_values = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {ns.config}: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_values) - set(keys)
        if unknown:
            raise UsageError(f"unknown config keys for {ns.command}: {sorted(unknown)}")
    for key, value in file_values.items():
        setattr(cfg, key, value)
    for key in keys:
        flag_val = getattr(ns, key)
        if flag_val is not None:
            if key in file_values and _read(key, file_values[key]) != _read(key, flag_val):
                print(
                    f"warning: flag --{key.replace('_', '-')} overrides config value",
                    file=sys.stderr,
                )
            setattr(cfg, key, flag_val)
    for key in keys:
        setattr(cfg, key, _checked(key, getattr(cfg, key)))
    return cfg


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [
        ",".join(str(v) if isinstance(v, (int, np.integer, str)) else _fmt(v) for v in row)
        for row in rows
    ]
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path, payload):
    # encode first: a payload json cannot encode leaves no file behind
    _write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_atomic(path, text: str):
    """Write ``text`` to a new file beside ``path``, then rename it into
    place: a failed write leaves the old file, if any, as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")  # mode 0o666 less the umask, as open(path, "w") gives
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _algebra_from_config(cfg: RunConfig):
    if not cfg.generators:
        raise UsageError("this command needs --generators (comma-separated Pauli strings)")
    names = [s.strip() for s in cfg.generators.split(",") if s.strip()]
    if not names:
        raise UsageError("no generators given")
    try:
        gens = [pauli_string(s) for s in names]
    except ValueError as exc:
        raise UsageError(str(exc))
    n = len(names[0])
    if any(len(s) != n for s in names):
        raise UsageError("all generator strings must have equal length")
    layout = SystemLayout((2,) * n)
    try:
        return close_algebra(gens, layout)
    except ValueError as exc:
        raise UsageError(str(exc))


def _reject(cfg: RunConfig, keys, reason: str):
    """UsageError naming each of ``keys`` that the call sets: a flag that
    the chosen route would ignore."""
    given = ["--" + k.replace("_", "-") for k in keys if getattr(cfg, k) is not None]
    if given:
        raise UsageError(f"{', '.join(given)} {reason}")


def _dims_layout(cfg: RunConfig) -> SystemLayout:
    _reject(cfg, ("dim_l", "dim_r"), "cannot be used without --preset")
    dims = cfg.dims or [2, 2, 2]
    if len(dims) < 3:
        raise UsageError("--dims needs at least L, one central site, and R")
    return SystemLayout.tripartite(dims[0], dims[1:-1], dims[-1])


def _edge_dims(cfg: RunConfig) -> tuple[int, int]:
    """(d_L, d_R) of a --preset wall, default (2, 2)."""
    _reject(cfg, ("dims", "algebra", "permutation"), "cannot be used with --preset")
    return (2 if cfg.dim_l is None else cfg.dim_l, 2 if cfg.dim_r is None else cfg.dim_r)


def _dims_algebra(cfg: RunConfig):
    """Layout and A_C of a ``--dims`` wall: ``--algebra`` (default "diag")
    on the ``--dims`` layout."""
    layout = _dims_layout(cfg)
    algebra = "diag" if cfg.algebra is None else cfg.algebra
    return layout, resolve_central_algebra(algebra, layout)


def _wall_from_config(cfg: RunConfig):
    try:
        if cfg.preset:
            return preset_wall(cfg.preset, dims=_edge_dims(cfg), seed=cfg.seed)
        return synth_wall(*_dims_algebra(cfg), cfg.permutation, cfg.seed)
    except ValueError as exc:
        raise UsageError(str(exc))


def _central_frame_from_config(cfg: RunConfig):
    """Layout and block frame of the A_C of the wall that
    ``_wall_from_config`` builds, without building it: a preset's kept
    frame, or ``decompose`` of the ``--dims`` wall's A_C."""
    try:
        if cfg.preset:
            layout, _, bs = preset_algebra(cfg.preset, dims=_edge_dims(cfg))
            return layout, bs
        layout, A_C = _dims_algebra(cfg)
    except ValueError as exc:
        raise UsageError(str(exc))
    return layout, decompose(A_C)


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (data dict, artifact or None); an
# artifact is (kind, build), and build() makes the payload only for --out
# ---------------------------------------------------------------------------


def _cmd_close(cfg):
    alg = _algebra_from_config(cfg)
    data = {"dim": alg.dim, "layout": alg.layout.to_json()}
    return data, ("json", alg.to_json)


def _cmd_commutant(cfg):
    alg = commutant(_algebra_from_config(cfg))
    return {"dim": alg.dim}, ("json", alg.to_json)


def _cmd_center(cfg):
    alg = algebra_center(_algebra_from_config(cfg))
    return {"dim": alg.dim}, ("json", alg.to_json)


def _cmd_decompose(cfg):
    alg = _algebra_from_config(cfg)
    bs = decompose(alg)
    data = {
        "blocks": [list(b) for b in bs.blocks],
        "signature": [list(b) for b in isomorphism_signature(bs)],
    }
    return data, ("json", bs.to_json)


def _cmd_synth(cfg):
    wall = _wall_from_config(cfg)
    data = {
        "dim": wall.layout.dim,
        "dimA": wall.A_C.dim,
        "blocks": [list(b) for b in wall.block_structure.blocks],
        "trivial": bool(wall.invariants.improper),
    }

    def artifact():
        return {
            "U": np.stack([wall.U.real, wall.U.imag], axis=-1).tolist(),
            "layout": wall.layout.to_json(),
        }

    return data, ("json", artifact)


def _cmd_verify(cfg):
    if cfg.algebra == "haar":
        # verify a Haar-random unitary on the given layout (generically fails)
        _reject(cfg, ("preset", "permutation"), "cannot be used with --algebra haar")
        layout = _dims_layout(cfg)
        report = dynamics.verify_wall(haar_unitary(layout.dim, SeededRng(cfg.seed, 77)), layout)
    else:
        # a preset or --dims wall passed this check when it was built
        report = _wall_from_config(cfg).invariants
    data = report.summary()
    if not report.is_wall:
        raise PropertyViolation("wall verification failed", data)
    return data, None


def _cmd_lightcone(cfg):
    wall = _wall_from_config(cfg)
    layout = wall.layout
    if not 0 <= cfg.seed_site < layout.n_sites:
        raise UsageError(f"--seed-site out of range for {layout.n_sites} sites")
    if layout.site_dims[cfg.seed_site] != 2:
        raise UsageError("--seed-pauli needs a qubit seed site")
    try:
        seed_op = embed(pauli_string(cfg.seed_pauli), (cfg.seed_site,), layout)
    except ValueError as exc:
        raise UsageError(str(exc))
    prof = dynamics.lightcone(wall.U, seed_op, layout, cfg.t_max)
    sizes = [len(s) for s in prof.support_sets]
    data = {
        "t_max": cfg.t_max,
        "max_support_size": max(sizes),
        "final_support": sorted(prof.support_sets[-1]),
    }
    header = ("t", "site", "residual", "in_support")
    return data, ("csv", lambda: (header, prof.to_csv_rows()))


def _cmd_invariants(cfg):
    inv = _wall_from_config(cfg).invariants
    data = {
        "dimA": inv.A_C.dim,
        "dimB": inv.B_C.dim,
        "dim_Lbar": inv.dim_Lbar,
        "dim_Rbar": inv.dim_Rbar,
        "stabilization_time": inv.stabilization_time,
    }
    return data, None


def _cmd_conserved(cfg):
    cons = dynamics.conserved_algebra(_wall_from_config(cfg))
    return {"dim_conserved": cons.dim}, ("json", cons.to_json)


def _cmd_gauge_seq(cfg):
    wall = _wall_from_config(cfg)
    g = SeededRng(cfg.seed, 11).generator()
    d = wall.layout.dim
    gauges = [np.eye(d)] + [haar_unitary(d, g) for _ in range(cfg.t_max)]
    rep = dynamics.gauged_sequence(wall, gauges)
    data = {
        "steps": cfg.t_max,
        "signature": [list(b) for b in rep.signature],
        "all_equal": bool(rep.all_equal),
    }
    if not rep.all_equal:
        raise PropertyViolation("a gauged span left the block form of its frame", data)
    return data, None


def _cmd_fragments(cfg):
    inv = _wall_from_config(cfg).invariants
    frag = dynamics.fragment_decomposition(inv)
    return frag.summary(), None


def _cmd_scan(cfg):
    n = cfg.chain_sites
    cone = min(cfg.max_width, n - 2) + 2  # sites of the widest window's cone
    if cone > SCAN_MAX_CONE_SITES:
        raise UsageError(f"--max-width gives cones of {cone} sites, over {SCAN_MAX_CONE_SITES}")
    g = SeededRng(cfg.seed, 21).generator()
    even = [haar_unitary(4, g) for _ in range((n) // 2)]
    odd = [haar_unitary(4, g) for _ in range((n - 1) // 2)]
    if cfg.embed_at is not None:
        s = cfg.embed_at
        if not (1 <= s <= n - 2) or s % 2 == 0:
            raise UsageError(
                "--embed-at must be an odd site index with brickwork neighbours"
            )
        xi = [haar_unitary(2, g) for _ in range(2)]
        zeta = [haar_unitary(2, g) for _ in range(2)]
        # even-layer gate (s-1, s): branches on the left leg, control on s
        even[(s - 1) // 2] = conditional_unitary(np.eye(2), xi)
        # odd-layer gate (s, s+1): control on s, branches on the right leg
        odd[(s - 1) // 2] = conditional_unitary(np.eye(2), zeta, control_first=True)
    rep = dynamics.scan_chain((2,) * n, even, odd, max_width=cfg.max_width)
    data = {
        "detections": [list(w) for w in rep.detections],
        "minimal_windows": [list(w) for w in rep.minimal_windows],
    }

    def artifact():
        rows = [(r.start, r.width, int(r.left), int(r.right)) for r in rep.records]
        return ("start", "width", "left", "right"), rows

    return data, ("csv", artifact)


def _cmd_arealaw(cfg):
    wall = _wall_from_config(cfg)
    g = SeededRng(cfg.seed, 31).generator()
    n_states = min(cfg.samples, AREALAW_MAX_STATES)
    states = [observables.random_product_state(wall.layout, g) for _ in range(n_states)]
    reports = observables.verify_area_law(wall, states, cfg.t_max)
    bound = wall.A_C.dim
    for rep in reports:
        if not rep.passed:
            blocks = [{k: b[k] for k in ("block", "bound", "violations")}
                      for b in rep.block_results if b["violations"]]
            raise PropertyViolation(
                "area-law bound violated",
                {"bound": bound, "violations": rep.violations, "block_violations": blocks},
            )
    max_rank = max(rep.max_rank for rep in reports)
    data = {"bound": bound, "max_rank": max_rank, "states": n_states, "t_max": cfg.t_max}
    return data, None


def _cmd_measure(cfg):
    wall = _wall_from_config(cfg)
    d_C = wall.layout.d_center
    observable = cfg.observable
    if observable is None:  # Z on every central qubit
        if set(wall.layout.center_dims) != {2}:
            raise UsageError("the central region is not all qubits: give --observable")
        observable = "Z" * len(wall.layout.center_dims)
    try:
        obs = pauli_string(observable)
    except ValueError as exc:
        raise UsageError(str(exc))
    if obs.shape != (d_C, d_C):
        raise UsageError("--observable length must match the central region")
    psi0 = observables.random_product_state(wall.layout, SeededRng(cfg.seed, 41))
    rec = observables.measurement_protocol(
        wall, psi0, obs, cfg.rounds, SeededRng(cfg.seed, 42)
    )
    ranks = [r["rank"] for r in rec.rounds]
    data = {
        "classification": rec.classification,
        "rounds": cfg.rounds,
        "max_rank": max(ranks),
        "final_entropy_bits": rec.rounds[-1]["entropy_bits"],
    }
    header = ("round", "outcome", "probability", "schmidt_rank", "entropy_bits")
    return data, ("csv", lambda: (header, rec.to_csv_rows()))


def _cmd_sff(cfg):
    if cfg.t_max < 1 or cfg.samples < 2:
        raise UsageError("sff needs --t-max >= 1 and --samples >= 2")
    if cfg.haar_dim is not None:
        _reject(cfg, _LAYOUT, "cannot be used with --haar-dim")
        blocks, d_L, d_R = [(1, 1)], cfg.haar_dim, 1
    else:
        # block-Haar ensemble over the wall's central algebra; no wall is built
        layout, bs = _central_frame_from_config(cfg)
        blocks = bs.blocks
        d_L, d_R = layout.d_left, layout.d_right
    res = observables.sff_mc(blocks, d_L, d_R, cfg.t_max, cfg.samples, SeededRng(cfg.seed, 51))
    floor = np.finfo(float).eps * res.K_analytic[1:] * np.sqrt(cfg.samples)  # rounding of K_mc
    dev = np.abs(res.K_mc[1:] - res.K_analytic[1:]) / np.maximum(res.stderr[1:], floor)
    data = {
        "t_max": cfg.t_max,
        "samples": cfg.samples,
        "max_sigma_deviation": float(dev.max()),
    }
    header = ("t", "K_mc", "stderr", "K_analytic")
    return data, ("csv", lambda: (header, res.to_csv_rows()))


# the subcommands: handler and the config keys it reads besides seed; --format
# only where the artifact is a CSV table, since JSON artifacts ignore it
_LAYOUT = ("preset", "dim_l", "dim_r", "dims", "algebra")  # fix the layout and A_C
_WALL = _LAYOUT + ("permutation",)
_ALGEBRA = ("generators",)
COMMANDS = {
    "close": (_cmd_close, _ALGEBRA + ("out",)),
    "commutant": (_cmd_commutant, _ALGEBRA + ("out",)),
    "center": (_cmd_center, _ALGEBRA + ("out",)),
    "decompose": (_cmd_decompose, _ALGEBRA + ("out",)),
    "synth": (_cmd_synth, _WALL + ("out",)),
    "verify": (_cmd_verify, _WALL),
    "lightcone": (_cmd_lightcone, _WALL + ("seed_site", "seed_pauli", "t_max", "out", "format")),
    "invariants": (_cmd_invariants, _WALL),
    "conserved": (_cmd_conserved, _WALL + ("out",)),
    "gauge-seq": (_cmd_gauge_seq, _WALL + ("t_max",)),
    "fragments": (_cmd_fragments, _WALL),
    "scan": (_cmd_scan, ("chain_sites", "embed_at", "max_width", "out", "format")),
    "arealaw": (_cmd_arealaw, _WALL + ("t_max", "samples")),
    "measure": (_cmd_measure, _WALL + ("observable", "rounds", "out", "format")),
    "sff": (_cmd_sff, _LAYOUT + ("haar_dim", "t_max", "samples", "out", "format")),
}


def _emit(cfg: RunConfig, command: str, status: str, data: dict):
    print(
        json.dumps(
            {"command": command, "status": status, "seed": cfg.seed, "data": data},
            sort_keys=True,
        )
    )


def _write_artifact(cfg: RunConfig, artifact):
    """Build the payload and write it, only when --out is given."""
    if artifact is None or cfg.out is None:
        return
    kind, build = artifact
    payload = build()
    if kind == "json" or cfg.format == "json":
        if kind == "csv":
            header, rows = payload
            payload = {"header": list(header), "rows": [list(r) for r in rows]}
        _write_json(cfg.out, payload)
    else:
        header, rows = payload
        _write_csv(cfg.out, header, rows)


def run(argv) -> int:
    try:
        cfg = parse_config(argv)
        data, artifact = COMMANDS[cfg.command][0](cfg)
        _write_artifact(cfg, artifact)
    except (UsageError, OSError) as exc:  # OSError: an --out that cannot be written
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except PropertyViolation as exc:
        _emit(cfg, cfg.command, "property-violation", exc.data)
        return 2
    _emit(cfg, cfg.command, "ok", data)
    return 0


def main():  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
