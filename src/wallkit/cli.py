"""Command-line front end: config parsing, subcommand dispatch, deterministic
seeding, and CSV/JSON artifact emission.

Every run prints a one-line JSON summary to stdout and exits 0 on success,
1 on a validation error, and 2 when the tool ran but a checked property
failed (e.g. a wall verification that comes back false).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .layout import SeededRng, SystemLayout
from .linalg import RANK_TOL, ZERO_TOL, embed, haar_unitary
from .algebra import MatrixAlgebra, center as algebra_center, close_algebra, commutant
from .blocks import decompose, isomorphism_signature
from .walls import (
    PRESET_NAMES,
    WallSpec,
    pauli_string,
    preset_wall,
    synth_wall,
)
from . import dynamics, observables


class UsageError(Exception):
    """Configuration or argument problem; maps to exit code 1."""


class PropertyViolation(Exception):
    """The tool ran but a checked property failed; maps to exit code 2."""

    def __init__(self, message, data):
        super().__init__(message)
        self.data = data


COMMANDS = (
    "close", "commutant", "center", "decompose", "synth", "verify",
    "lightcone", "invariants", "conserved", "gauge-seq", "fragments",
    "scan", "arealaw", "measure", "sff",
)

# keys accepted in a JSON config file; anything else is rejected
CONFIG_KEYS = {
    "preset", "generators", "dims", "algebra", "permutation", "seed",
    "t_max", "samples", "rounds", "observable", "seed_site", "seed_pauli",
    "tol_rank", "tol_support", "out", "format", "chain_sites",
    "embed_at", "haar_dim", "dim_l", "dim_r", "max_width",
}


@dataclass
class RunConfig:
    command: str
    preset: str | None = None
    generators: str | None = None
    dims: list[int] | None = None
    algebra: str = "diag"
    permutation: list[int] | None = None
    seed: int = 0
    t_max: int = 20
    samples: int = 4000
    rounds: int = 10
    observable: str = "Z"
    seed_site: int = 0
    seed_pauli: str = "Z"
    tol_rank: float = RANK_TOL
    tol_support: float = ZERO_TOL
    out: str | None = None
    format: str = "csv"
    chain_sites: int = 8
    embed_at: int | None = None
    haar_dim: int | None = None
    dim_l: int = 2
    dim_r: int = 2
    max_width: int = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="wallkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--preset", choices=PRESET_NAMES)
        sp.add_argument("--config")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--t-max", dest="t_max", type=int)
        sp.add_argument("--samples", type=int)
        sp.add_argument("--rounds", type=int)
        sp.add_argument("--tol-rank", dest="tol_rank", type=float)
        sp.add_argument("--tol-support", dest="tol_support", type=float)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--generators")
        sp.add_argument("--dims")
        sp.add_argument("--algebra")
        sp.add_argument("--permutation")
        sp.add_argument("--observable")
        sp.add_argument("--seed-site", dest="seed_site", type=int)
        sp.add_argument("--seed-pauli", dest="seed_pauli")
        sp.add_argument("--chain-sites", dest="chain_sites", type=int)
        sp.add_argument("--embed-at", dest="embed_at", type=int)
        sp.add_argument("--haar-dim", dest="haar_dim", type=int)
        sp.add_argument("--dim-l", dest="dim_l", type=int)
        sp.add_argument("--dim-r", dest="dim_r", type=int)
        sp.add_argument("--max-width", dest="max_width", type=int)
    return p


def parse_config(argv) -> RunConfig:
    """Merge precedence: flags > config file > WALLKIT_SEED env > defaults."""
    ns = _build_parser().parse_args(argv)
    cfg = RunConfig(command=ns.command)
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
        unknown = set(file_values) - CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in file_values.items():
        setattr(cfg, key, value)
    for key in vars(cfg):
        flag_val = getattr(ns, key, None)
        if flag_val is not None and key != "command":
            if key in file_values and file_values[key] != flag_val:
                print(
                    f"warning: flag --{key.replace('_', '-')} overrides config value",
                    file=sys.stderr,
                )
            setattr(cfg, key, flag_val)
    if isinstance(cfg.dims, str):
        try:
            cfg.dims = [int(x) for x in cfg.dims.split(",")]
        except ValueError:
            raise UsageError(f"bad --dims value {cfg.dims!r}; expected e.g. 2,2,2")
    if isinstance(cfg.permutation, str):
        try:
            cfg.permutation = [int(x) for x in cfg.permutation.split(",")]
        except ValueError:
            raise UsageError(f"bad --permutation value {cfg.permutation!r}")
    if cfg.format not in ("csv", "json"):
        raise UsageError(f"unknown format {cfg.format!r}")
    return cfg


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    str(v) if isinstance(v, (int, np.integer, str)) else _fmt(v)
                    for v in row
                )
                + "\n"
            )


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
        return close_algebra(gens, layout, cfg.tol_rank)
    except ValueError as exc:
        raise UsageError(str(exc))


def _wall_from_config(cfg: RunConfig):
    if cfg.preset:
        return preset_wall(cfg.preset, dims=(cfg.dim_l, cfg.dim_r), seed=cfg.seed)
    # fall back to generic synthesis from dims + algebra
    dims = cfg.dims or [2, 2, 2]
    if len(dims) < 3:
        raise UsageError("--dims needs at least L, one central site, and R")
    layout = SystemLayout.tripartite(dims[0], dims[1:-1], dims[-1])
    spec = WallSpec(
        layout,
        central_algebra=cfg.algebra,
        permutation=cfg.permutation,
        seed=cfg.seed,
    )
    try:
        return synth_wall(spec)
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (data dict, artifact writer or None)
# ---------------------------------------------------------------------------


def _cmd_close(cfg):
    alg = _algebra_from_config(cfg)
    data = {"dim": alg.dim, "layout": alg.layout.to_json()}
    artifact = alg.to_json()
    return data, ("json", artifact)


def _cmd_commutant(cfg):
    alg = commutant(_algebra_from_config(cfg), cfg.tol_rank)
    return {"dim": alg.dim}, ("json", alg.to_json())


def _cmd_center(cfg):
    alg = algebra_center(_algebra_from_config(cfg), cfg.tol_rank)
    return {"dim": alg.dim}, ("json", alg.to_json())


def _cmd_decompose(cfg):
    alg = _algebra_from_config(cfg)
    bs = decompose(alg, SeededRng(cfg.seed, 3))
    data = {
        "blocks": [list(b) for b in bs.blocks],
        "signature": [list(b) for b in isomorphism_signature(bs)],
    }
    return data, ("json", bs.to_json())


def _cmd_synth(cfg):
    wall = _wall_from_config(cfg)
    data = {
        "dim": wall.layout.dim,
        "dimA": wall.A_C.dim,
        "blocks": [list(b) for b in wall.block_structure.blocks],
        "trivial": bool(wall.trivial),
    }
    artifact = {
        "U": np.stack([wall.U.real, wall.U.imag], axis=-1).tolist(),
        "layout": wall.layout.to_json(),
    }
    return data, ("json", artifact)


def _cmd_verify(cfg):
    if cfg.algebra == "haar":
        # verify a Haar-random unitary on the given layout (generically fails)
        dims = cfg.dims or [2, 2, 2]
        layout = SystemLayout.tripartite(dims[0], dims[1:-1], dims[-1])
        U = haar_unitary(layout.dim, SeededRng(cfg.seed, 77))
        report = dynamics.verify_wall(U, layout, cfg.tol_support * 10)
        data = report.summary()
        if not report.is_wall:
            raise PropertyViolation("wall verification failed", data)
        return data, None
    wall = _wall_from_config(cfg)
    report = dynamics.verify_wall(wall.U, wall.layout, cfg.tol_support * 10)
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
    prof = dynamics.lightcone(wall.U, seed_op, layout, cfg.t_max, cfg.tol_support)
    sizes = [len(s) for s in prof.support_sets]
    data = {
        "t_max": cfg.t_max,
        "max_support_size": max(sizes),
        "final_support": sorted(prof.support_sets[-1]),
    }
    rows = prof.to_csv_rows()
    return data, ("csv", (("t", "site", "residual", "in_support"), rows))


def _cmd_invariants(cfg):
    wall = _wall_from_config(cfg)
    inv = dynamics.invariant_algebras(wall.U, wall.layout)
    data = {
        "dimA": inv.A_C.dim,
        "dimB": inv.B_C.dim,
        "dim_Lbar": inv.Lbar.dim,
        "dim_Rbar": inv.Rbar.dim,
        "stabilization_time": inv.stabilization_time,
    }
    return data, None


def _cmd_conserved(cfg):
    wall = _wall_from_config(cfg)
    inv = dynamics.invariant_algebras(wall.U, wall.layout)
    cons = dynamics.conserved_algebra(inv, cfg.tol_rank)
    return {"dim_conserved": cons.dim}, ("json", cons.to_json())


def _cmd_gauge_seq(cfg):
    wall = _wall_from_config(cfg)
    g = SeededRng(cfg.seed, 11).generator()
    d = wall.layout.dim
    gauges = [np.eye(d)] + [haar_unitary(d, g) for _ in range(cfg.t_max)]
    rep = dynamics.gauged_sequence(wall, gauges, SeededRng(cfg.seed, 12))
    data = {
        "steps": cfg.t_max,
        "signature": [list(b) for b in rep.signatures[0]],
        "all_equal": bool(rep.all_equal),
    }
    if not rep.all_equal:
        raise PropertyViolation("isomorphism signature drifted along the sequence", data)
    return data, None


def _cmd_fragments(cfg):
    wall = _wall_from_config(cfg)
    inv = dynamics.invariant_algebras(wall.U, wall.layout)
    frag = dynamics.fragment_decomposition(inv)
    return frag.summary(), None


def _cmd_scan(cfg):
    n = cfg.chain_sites
    if not 4 <= n <= 10:
        raise UsageError("--chain-sites must be between 4 and 10")
    g = SeededRng(cfg.seed, 21).generator()
    even = [haar_unitary(4, g) for _ in range((n) // 2)]
    odd = [haar_unitary(4, g) for _ in range((n - 1) // 2)]
    if cfg.embed_at is not None:
        s = cfg.embed_at
        if not (1 <= s <= n - 2) or s % 2 == 0:
            raise UsageError(
                "--embed-at must be an odd site index with brickwork neighbours"
            )
        from .walls import conditional_unitary

        xi = [haar_unitary(2, g) for _ in range(2)]
        zeta = [haar_unitary(2, g) for _ in range(2)]
        # even-layer gate (s-1, s): branches on the left leg, control on s
        even[(s - 1) // 2] = conditional_unitary(np.eye(2), xi)
        # odd-layer gate (s, s+1): control on s, branches on the right leg
        odd[(s - 1) // 2] = conditional_unitary(np.eye(2), zeta, control_first=True)
    rep = dynamics.scan_chain(
        (2,) * n, even, odd, max_width=cfg.max_width, tol=cfg.tol_support * 10
    )
    data = {
        "detections": [list(w) for w in rep.detections],
        "minimal_windows": [list(w) for w in rep.minimal_windows],
    }
    rows = [(r.start, r.width, int(r.left), int(r.right)) for r in rep.records]
    return data, ("csv", (("start", "width", "left", "right"), rows))


def _cmd_arealaw(cfg):
    wall = _wall_from_config(cfg)
    g = SeededRng(cfg.seed, 31)
    worst_rank, bound = 0, wall.A_C.dim
    n_states = min(cfg.samples, 20)
    for k in range(n_states):
        psi0 = observables.random_product_state(wall.layout, g.stream(31000 + k))
        rep = observables.verify_area_law(wall, psi0, cfg.t_max)
        worst_rank = max(worst_rank, rep.max_rank)
        if not rep.passed:
            raise PropertyViolation(
                "area-law bound violated",
                {"bound": bound, "violations": rep.violations},
            )
    data = {"bound": bound, "max_rank": worst_rank, "states": n_states, "t_max": cfg.t_max}
    return data, None


def _cmd_measure(cfg):
    wall = _wall_from_config(cfg)
    d_C = wall.layout.d_center
    try:
        obs = pauli_string(cfg.observable)
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
    return data, ("csv", (header, rec.to_csv_rows()))


def _cmd_sff(cfg):
    rng = SeededRng(cfg.seed, 51)
    if cfg.haar_dim is not None:
        res = observables.sff_mc("haar", cfg.t_max, cfg.samples, rng, haar_dim=cfg.haar_dim)
    else:
        wall = _wall_from_config(cfg)
        # block-Haar ensemble over the wall's own central algebra
        spec = WallSpec(wall.layout, central_algebra=list(wall.A_C.basis), seed=cfg.seed)
        res = observables.sff_mc(spec, cfg.t_max, cfg.samples, rng)
    dev = np.abs(res.K_mc[1:] - res.K_analytic[1:]) / np.maximum(res.stderr[1:], 1e-30)
    data = {
        "t_max": cfg.t_max,
        "samples": cfg.samples,
        "max_sigma_deviation": float(dev.max()),
    }
    header = ("t", "K_mc", "stderr", "K_analytic")
    return data, ("csv", (header, res.to_csv_rows()))


_HANDLERS = {
    "close": _cmd_close,
    "commutant": _cmd_commutant,
    "center": _cmd_center,
    "decompose": _cmd_decompose,
    "synth": _cmd_synth,
    "verify": _cmd_verify,
    "lightcone": _cmd_lightcone,
    "invariants": _cmd_invariants,
    "conserved": _cmd_conserved,
    "gauge-seq": _cmd_gauge_seq,
    "fragments": _cmd_fragments,
    "scan": _cmd_scan,
    "arealaw": _cmd_arealaw,
    "measure": _cmd_measure,
    "sff": _cmd_sff,
}


def _emit(cfg: RunConfig, command: str, status: str, data: dict):
    print(
        json.dumps(
            {"command": command, "status": status, "seed": cfg.seed, "data": data},
            sort_keys=True,
        )
    )


def _write_artifact(cfg: RunConfig, artifact):
    if artifact is None or cfg.out is None:
        return
    kind, payload = artifact
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
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    try:
        data, artifact = _HANDLERS[cfg.command](cfg)
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except PropertyViolation as exc:
        _emit(cfg, cfg.command, "property-violation", exc.data)
        return 2
    _write_artifact(cfg, artifact)
    _emit(cfg, cfg.command, "ok", data)
    return 0


def main():  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
