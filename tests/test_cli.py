"""CLI tests: summary schema, exit codes, config precedence, determinism,
and artifact emission."""

import argparse
import importlib.util
import json
import math
import re
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from wallkit import blocks, cli, observables, walls
from wallkit.algebra import MatrixAlgebra
from wallkit.cli import COMMANDS, FLAGS, UsageError, parse_config, run
from wallkit.layout import SeededRng
from wallkit.linalg import haar_unitary
from wallkit.observables import sff_mc

SCHEMA = json.loads(
    resources.files("wallkit.schemas").joinpath("summary.schema.json").read_text()
)


def _run(capsys, argv):
    code = run(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _summary(capsys, argv, expect_code=0):
    code, out, err = _run(capsys, argv)
    assert code == expect_code, (out, err)
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert len(lines) == 1  # exactly one summary line
    payload = json.loads(lines[0])
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestSummaries:
    def test_close(self, capsys):
        p = _summary(capsys, ["close", "--generators", "XI,ZX"])
        assert p["command"] == "close" and p["status"] == "ok"
        assert p["data"]["dim"] == 4

    def test_commutant_and_center(self, capsys):
        p = _summary(capsys, ["commutant", "--generators", "XI,ZX"])
        assert p["data"]["dim"] == 4
        p = _summary(capsys, ["center", "--generators", "XI,ZX"])
        assert p["data"]["dim"] == 1

    def test_decompose(self, capsys):
        p = _summary(capsys, ["decompose", "--generators", "XI,ZX"])
        assert p["data"]["signature"] == [[2, 2]]

    def test_measured_entropy_is_never_negative(self, capsys):
        # the soliton's final state is a product state; rounding gave -6.4e-16
        argv = ["measure", "--preset", "soliton-x", "--observable", "Z", "--seed", "3"]
        entropy = _summary(capsys, argv)["data"]["final_entropy_bits"]
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    def test_verify_preset(self, capsys):
        p = _summary(capsys, ["verify", "--preset", "fswap"])
        assert p["data"]["left"] is True and p["data"]["right"] is True

    def test_verify_haar_violation(self, capsys):
        p = _summary(capsys, ["verify", "--algebra", "haar"], expect_code=2)
        assert p["status"] == "property-violation"
        assert p["data"]["left"] is False

    def test_invariants_and_fragments(self, capsys):
        p = _summary(capsys, ["invariants", "--preset", "abelian-pair"])
        assert p["data"]["dimA"] == 2 and p["data"]["dim_Lbar"] == 8
        p = _summary(capsys, ["fragments", "--preset", "abelian-pair"])
        assert p["data"]["dim_I"] == 2 and p["data"]["dim_Fperp"] == 14

    def test_conserved(self, capsys):
        p = _summary(capsys, ["conserved", "--preset", "abelian-pair"])
        assert p["data"]["dim_conserved"] == 2

    def test_lightcone(self, capsys):
        p = _summary(
            capsys,
            ["lightcone", "--preset", "abelian-pair", "--t-max", "30",
             "--seed-site", "0", "--seed-pauli", "X"],
        )
        assert set(p["data"]["final_support"]) <= {0, 1}

    def test_synth(self, capsys):
        p = _summary(capsys, ["synth", "--dims", "2,2,2", "--algebra", "diag"])
        assert p["data"]["dimA"] == 2 and p["data"]["trivial"] is False

    def test_measure(self, capsys):
        p = _summary(
            capsys,
            ["measure", "--preset", "abelian-pair", "--observable", "Z",
             "--rounds", "5"],
        )
        assert p["data"]["classification"] == "central"
        assert p["data"]["max_rank"] <= 2

    def test_arealaw(self, capsys):
        p = _summary(
            capsys,
            ["arealaw", "--preset", "abelian-pair", "--t-max", "10",
             "--samples", "3"],
        )
        assert p["data"]["max_rank"] <= p["data"]["bound"] == 2


class TestArtifacts:
    def test_sff_csv(self, capsys, tmp_path):
        out = tmp_path / "sff.csv"
        p = _summary(
            capsys,
            ["sff", "--preset", "abelian-pair", "--t-max", "4",
             "--samples", "500", "--out", str(out)],
        )
        assert p["data"]["max_sigma_deviation"] < 5.0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,K_mc,stderr,K_analytic"
        assert len(lines) == 6
        row0 = lines[1].split(",")
        assert float(row0[1]) == 64.0  # K(0) = d^2 exactly

    def test_sff_json_holds_the_csv_rows(self, capsys, tmp_path):
        argv = ["sff", "--preset", "abelian-pair", "--t-max", "3", "--samples", "50"]
        _summary(capsys, argv + ["--out", str(tmp_path / "sff.csv")])
        _summary(capsys, argv + ["--format", "json", "--out", str(tmp_path / "sff.json")])
        lines = (tmp_path / "sff.csv").read_text().strip().splitlines()
        payload = json.loads((tmp_path / "sff.json").read_text())
        assert payload["header"] == lines[0].split(",")
        assert [[str(v) for v in row] for row in payload["rows"]] == [
            ln.split(",") for ln in lines[1:]
        ]

    def test_scan_csv_and_detection(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        p = _summary(
            capsys,
            ["scan", "--chain-sites", "6", "--embed-at", "3", "--out", str(out)],
        )
        assert [3, 1] in p["data"]["minimal_windows"]
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "start,width,left,right"

    def test_unencodable_artifact_writes_nothing(self, tmp_path, monkeypatch):
        def bad_close(cfg):
            return {"dim": 1}, ("json", lambda: {"a": [1, 2], "b": object()})

        monkeypatch.setitem(COMMANDS, "close", (bad_close, COMMANDS["close"][1]))
        out = tmp_path / "alg.json"
        argv = ["close", "--generators", "Z", "--out", str(out)]
        with pytest.raises(TypeError):
            run(argv)
        assert not out.exists()
        out.write_bytes(b"old bytes\n")
        with pytest.raises(TypeError):
            run(argv)
        assert out.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize(
        "argv, owner",
        [
            (["close", "--generators", "XI,ZX"], "algebra"),
            (["commutant", "--generators", "XI,ZX"], "algebra"),
            (["center", "--generators", "XI,ZX"], "algebra"),
            (["conserved", "--preset", "abelian-pair"], "algebra"),
            (["decompose", "--generators", "XI,ZX"], "blocks"),
        ],
    )
    def test_json_artifact_is_built_only_for_out(self, argv, owner, capsys, tmp_path, monkeypatch):
        cls = blocks.BlockStructure if owner == "blocks" else MatrixAlgebra
        built = []
        to_json = cls.to_json

        def counting(self):
            built.append(self)
            return to_json(self)

        monkeypatch.setattr(cls, "to_json", counting)
        without = _summary(capsys, argv)
        assert built == []
        out = tmp_path / "artifact.json"
        assert _summary(capsys, argv + ["--out", str(out)]) == without
        assert len(built) == 1
        assert json.loads(out.read_text()) == to_json(built[0])

    @pytest.mark.parametrize("fail_in", ["format", "write"])
    def test_failed_write_keeps_the_old_file(self, fail_in, capsys, tmp_path, monkeypatch):
        out = tmp_path / "m.csv"
        out.write_bytes(b"old bytes\n")
        if fail_in == "format":
            calls = []

            def fmt(x):  # the fifth number cannot be formatted
                calls.append(x)
                if len(calls) == 5:
                    raise RuntimeError("cannot format")
                return repr(float(x))

            monkeypatch.setattr(cli, "_fmt", fmt)
        else:
            class HalfWritten:  # a file that fills up half way through
                def __init__(self, fh):
                    self.fh = fh

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.fh.close()

                def write(self, text):
                    self.fh.write(text[: len(text) // 2])
                    self.fh.flush()
                    raise OSError(28, "No space left on device")

            monkeypatch.setattr(cli, "open", lambda *a: HalfWritten(open(*a)), raising=False)
        argv = ["measure", "--preset", "abelian-pair", "--observable", "Z", "--out", str(out)]
        if fail_in == "format":
            with pytest.raises(RuntimeError, match="cannot format"):
                run(argv)
        else:
            assert _run(capsys, argv)[0] == 1
        assert out.read_bytes() == b"old bytes\n"
        assert [f.name for f in tmp_path.iterdir()] == ["m.csv"]

    def test_measured_probabilities_are_at_most_one(self, capsys, tmp_path):
        # rounding put |P psi|^2 of row 5 at 1.0000000000000004
        out = tmp_path / "m.csv"
        argv = ["measure", "--preset", "abelian-pair", "--observable", "Z", "--seed", "0"]
        _summary(capsys, argv + ["--out", str(out)])
        probs = [float(ln.split(",")[2]) for ln in out.read_text().splitlines()[1:]]
        assert len(probs) == 10 and max(probs) <= 1.0

    def test_json_artifact(self, capsys, tmp_path):
        out = tmp_path / "alg.json"
        _summary(capsys, ["close", "--generators", "Z", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert len(payload["basis"]) == 2

    def test_center_artifact_is_unital(self, capsys, tmp_path):
        # the center is read off the basis in algebra coordinates; the
        # artifact still marks it as a unital algebra
        out = tmp_path / "center.json"
        _summary(capsys, ["center", "--generators", "ZZ,XX", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["unital"] is True and len(payload["basis"]) == 4


class TestErrors:
    def test_bad_pauli_letter(self, capsys):
        code, out, err = _run(capsys, ["close", "--generators", "XQ"])
        assert code == 1
        assert "Q" in json.loads(err.strip())["error"]

    def test_missing_generators(self, capsys):
        code, _, err = _run(capsys, ["close"])
        assert code == 1 and "generators" in err

    def test_unknown_command(self, capsys):
        code, _, err = _run(capsys, ["frobnicate"])
        assert code == 1

    def test_bad_preset(self, capsys):
        code, _, err = _run(capsys, ["verify", "--preset", "nope"])
        assert code == 1

    def test_unknown_config_key(self, capsys, tmp_path):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({"presets": "fswap"}))
        code, _, err = _run(capsys, ["verify", "--config", str(cfgf)])
        assert code == 1 and "unknown config keys" in err

    def test_malformed_config(self, capsys, tmp_path):
        cfgf = tmp_path / "c.json"
        cfgf.write_text("not json")
        code, _, err = _run(capsys, ["verify", "--config", str(cfgf)])
        assert code == 1

    def test_bad_embed_site(self, capsys):
        code, _, err = _run(capsys, ["scan", "--chain-sites", "6", "--embed-at", "2"])
        assert code == 1


class TestPrecedence:
    def test_config_file_supplies_values(self, capsys, tmp_path):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({"preset": "fswap", "seed": 9}))
        p = _summary(capsys, ["verify", "--config", str(cfgf)])
        assert p["seed"] == 9

    def test_flag_overrides_config_with_warning(self, capsys, tmp_path):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({"preset": "fswap", "seed": 9}))
        code, out, err = _run(capsys, ["verify", "--config", str(cfgf), "--seed", "3"])
        assert code == 0
        assert json.loads(out.strip())["seed"] == 3
        assert "overrides config" in err

    @pytest.mark.parametrize(
        "key, value, flag",
        [("dims", [2, 2, 2], "2,2,2"), ("permutation", [1, 0], "1,0")],
    )
    def test_equal_list_flag_does_not_warn(self, key, value, flag, capsys, tmp_path):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({key: value, "algebra": "diag"}))
        code, _, err = _run(capsys, ["verify", "--config", str(cfgf), "--" + key, flag])
        assert code == 0 and err == ""

    # a file value that a flag overrides is not type-checked
    @pytest.mark.parametrize("value, flag", [([2, 2, 2], "2,4,2"), ("two", "2,2,2")])
    def test_different_list_flag_warns(self, value, flag, capsys, tmp_path):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({"dims": value}))
        code, _, err = _run(capsys, ["verify", "--config", str(cfgf), "--dims", flag])
        assert code == 0 and "flag --dims overrides config" in err

    def test_env_seed_lowest_precedence(self, capsys, monkeypatch):
        monkeypatch.setenv("WALLKIT_SEED", "17")
        p = _summary(capsys, ["verify", "--preset", "fswap"])
        assert p["seed"] == 17
        p = _summary(capsys, ["verify", "--preset", "fswap", "--seed", "2"])
        assert p["seed"] == 2

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("WALLKIT_SEED", "zebra")
        code, _, err = _run(capsys, ["verify", "--preset", "fswap"])
        assert code == 1


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, capsys, tmp_path):
        argv = [
            "sff", "--preset", "abelian-pair", "--t-max", "4",
            "--samples", "300", "--seed", "5",
        ]
        outs, files = [], []
        for k in range(2):
            path = tmp_path / f"run{k}.csv"
            code, out, _ = _run(capsys, argv + ["--out", str(path)])
            assert code == 0
            outs.append(out)
            files.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert files[0] == files[1]

    def test_decompose_artifact_does_not_depend_on_the_seed(self, capsys, tmp_path):
        files = []
        for seed in ("0", "7"):
            path = tmp_path / f"decompose{seed}.json"
            argv = ["decompose", "--generators", "ZI,IZ", "--seed", seed, "--out", str(path)]
            _summary(capsys, argv)
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_synth_blocks_do_not_depend_on_the_seed(self):
        # --permutation names blocks by their place in the frame
        argv = ["synth", "--dims", "2,2,2", "--algebra", "diag", "--seed"]
        projs = [
            cli._wall_from_config(parse_config(argv + [str(seed)])).block_structure.central_projectors
            for seed in range(3)
        ]
        for other in projs[1:]:
            assert len(other) == len(projs[0])
            assert all(np.max(np.abs(p - q)) < 1e-9 for p, q in zip(projs[0], other))

    def test_different_seeds_differ(self, capsys):
        a = _summary(capsys, ["measure", "--preset", "abelian-pair", "--seed", "1"])
        b = _summary(capsys, ["measure", "--preset", "abelian-pair", "--seed", "2"])
        assert a["data"] != b["data"] or a["seed"] != b["seed"]


# a valid value for every config key, as a flag string and as a JSON value
FLAG_VALUES = {
    "preset": "fswap", "generators": "XI,ZX", "dims": "2,2,2", "algebra": "diag",
    "permutation": "0,1", "seed": "1", "t_max": "3", "samples": "3", "rounds": "2",
    "observable": "ZZ", "seed_site": "0", "seed_pauli": "X", "out": "x.json",
    "format": "json", "chain_sites": "4", "embed_at": "1", "haar_dim": "4", "dim_l": "2",
    "dim_r": "2", "max_width": "2",
}
JSON_VALUES = {
    "dims": [2, 2, 2], "permutation": [0, 1], "seed": 1, "t_max": 3, "samples": 3,
    "rounds": 2, "seed_site": 0, "chain_sites": 4, "embed_at": 1, "haar_dim": 4,
    "dim_l": 2, "dim_r": 2, "max_width": 2,
}


def _flag(key):
    return "--" + key.replace("_", "-")


def _unread_keys(command):
    return sorted(set(FLAGS) - {"seed"} - set(COMMANDS[command][1]))


def _load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class TestCommandTable:
    def test_flag_values_cover_every_key(self):
        assert set(FLAG_VALUES) == set(FLAGS)
        assert set(COMMANDS) == set(SCHEMA["properties"]["command"]["enum"])

    def test_benchmark_calls_parse(self):
        workloads = _load_perfbench("workloads")
        calls = [op.argv for w in workloads.WORKLOADS.values() for op in w.ops]
        assert len(calls) > 60
        for argv in calls:
            cfg = parse_config([*argv, "--seed", "1"])
            assert cfg.command == argv[0] and cfg.seed == 1

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_read_key_parses(self, command, tmp_path):
        keys = ("seed",) + COMMANDS[command][1]
        argv = [command]
        for key in keys:
            argv += [_flag(key), FLAG_VALUES[key]]
        cfg = parse_config(argv)
        assert cfg.seed == 1
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({k: JSON_VALUES.get(k, FLAG_VALUES[k]) for k in keys}))
        cfg = parse_config([command, "--config", str(cfgf)])
        assert cfg.seed == 1

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unread_flag_rejected(self, command, capsys):
        for key in _unread_keys(command):
            code, out, err = _run(capsys, [command, _flag(key), FLAG_VALUES[key]])
            assert code == 1 and out == "", key
            assert "unrecognized arguments" in json.loads(err.strip())["error"]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unread_config_key_rejected(self, command, capsys, tmp_path):
        unread = _unread_keys(command)
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({k: JSON_VALUES.get(k, FLAG_VALUES[k]) for k in unread}))
        code, out, err = _run(capsys, [command, "--config", str(cfgf)])
        assert code == 1 and out == ""
        assert json.loads(err.strip())["error"] == f"unknown config keys for {command}: {unread}"

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_tolerance_keys_are_gone(self, command, capsys, tmp_path):
        # every rank and escape tolerance is fixed in code
        for key, value in (("tol_rank", 1e-9), ("tol_support", 1e-10)):
            code, out, err = _run(capsys, [command, _flag(key), str(value)])
            assert code == 1 and out == "", key
            assert "unrecognized arguments" in json.loads(err.strip())["error"]
            cfgf = tmp_path / "c.json"
            cfgf.write_text(json.dumps({key: value}))
            code, out, err = _run(capsys, [command, "--config", str(cfgf)])
            assert code == 1 and out == ""
            assert json.loads(err)["error"] == f"unknown config keys for {command}: ['{key}']"

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_only_read_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        listed = set(re.findall(r"--[a-z][a-z-]*", text)) - {"--help", "--config"}
        assert listed == {_flag(k) for k in ("seed",) + COMMANDS[command][1]}


INVALID_CALLS = [
    "verify --preset fswap --dim-l 3",
    "verify --preset abelian-pair --dim-l 0",
    "measure --preset abelian-pair --rounds 0",
    "lightcone --preset abelian-pair --t-max -1",
    "sff --preset abelian-pair --samples 1",
    "sff --preset abelian-pair --t-max -1 --samples 10",
    "sff --preset abelian-pair --t-max 0 --samples 10",
    "sff --haar-dim 0 --samples 10",
    "sff --preset fswap --dim-l 3 --samples 10",
    "gauge-seq --preset abelian-pair --t-max -1",
    "arealaw --preset abelian-pair --t-max -1",
    "arealaw --preset abelian-pair --samples 0",
    "close --generators XI,ZX --samples 7 --chain-sites 99",
    "conserved --preset abelian-pair --dim-r 0",
    "verify --preset fswap --seed -1",
    "verify --dims 2,0,2",
    "verify --algebra haar --dims 2,2",
    "scan --chain-sites 4 --max-width 0",
    "scan --chain-sites 101",
    "scan --chain-sites 40 --max-width 7",  # cones of 9 sites
    "scan --chain-sites 9 --max-width 7",
    "scan --chain-sites 10 --max-width 8",
    "close --generators XI --out /nonexistent/x.json",  # an --out that cannot be opened
    # a one-dimensional L leaves only the scalar A_C invariant
    "verify --dims 1,2,1",
    "fragments --dims 1,2,2",
    "verify --preset abelian-pair --dim-l 1",
    "synth --preset nonabelian-cnot --dim-l 1",
]

# one-dimensional edges that stay valid: a one-dimensional R, an SFF that
# builds no wall, and a Haar unitary that declares no A_C
ONE_DIM_EDGE_CALLS = [
    "verify --dims 2,2,1",
    "conserved --preset uncoupled-center --dim-r 1",
    "sff --preset abelian-pair --dim-l 1 --t-max 2 --samples 20",
    "verify --algebra haar --dims 1,2,2",
]

INVALID_CONFIGS = [
    ("lightcone", {"t_max": "5", "preset": "fswap"}),
    ("lightcone", {"t_max": True, "preset": "fswap"}),
    ("lightcone", {"t_max": None, "preset": "fswap"}),
    ("verify", {"preset": "nope"}),
    ("verify", {"dims": [2, "2", 2]}),
    ("sff", {"samples": 1, "preset": "fswap"}),
    ("scan", {"max_width": "wide"}),
    ("measure", {"preset": "fswap", "rounds": 0}),
]

# a flag that the chosen wall route would ignore, and the flag the error names
CONFLICTING_CALLS = [
    ("verify --algebra haar --preset abelian-pair", "--preset"),
    ("verify --algebra haar --permutation 1,0", "--permutation"),
    ("synth --preset abelian-pair --permutation 1,0", "--permutation"),
    ("synth --preset abelian-pair --dims 2,2,2", "--dims"),
    ("synth --preset abelian-pair --algebra full", "--algebra"),
    ("synth --dims 2,2,2 --dim-l 3", "--dim-l"),
    ("invariants --dim-r 3", "--dim-r"),
    ("sff --haar-dim 4 --preset abelian-pair", "--preset"),
    ("sff --haar-dim 4 --dims 2,2,2 --algebra full", "--dims, --algebra"),
    ("sff --dims 2,2,2 --dim-l 3", "--dim-l"),
]


class TestInvalidInputs:
    @pytest.mark.parametrize("argv, flag", CONFLICTING_CALLS)
    def test_conflicting_wall_flags(self, argv, flag, capsys):
        code, out, err = _run(capsys, argv.split())
        assert code == 1 and out == ""
        assert json.loads(err)["error"].startswith(flag + " cannot be used")

    @pytest.mark.parametrize("argv", INVALID_CALLS)
    def test_usage_error(self, argv, capsys):
        code, out, err = _run(capsys, argv.split())
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert json.loads(err.strip().splitlines()[-1])["error"]

    @pytest.mark.parametrize("command, values", INVALID_CONFIGS)
    def test_config_values_checked_like_flags(self, command, values, capsys, tmp_path):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps(values))
        code, out, err = _run(capsys, [command, "--config", str(cfgf)])
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"]

    @pytest.mark.parametrize("argv", ONE_DIM_EDGE_CALLS)
    def test_one_dimensional_edge_accepted(self, argv, capsys):
        assert _summary(capsys, argv.split())["status"] == "ok"

    def test_config_list_dims_accepted(self, capsys, tmp_path):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({"dims": [2, 2, 2], "algebra": "diag", "t_max": 3}))
        p = _summary(capsys, ["gauge-seq", "--config", str(cfgf)])
        assert p["data"]["steps"] == 3


class TestSffWithoutWall:
    def test_sff_reads_the_algebra_without_building_a_wall(self, capsys, monkeypatch):
        def no_wall(*args, **kwargs):
            raise AssertionError("sff built a wall")

        monkeypatch.setattr(cli, "preset_wall", no_wall)
        monkeypatch.setattr(cli, "synth_wall", no_wall)
        monkeypatch.setattr(cli.dynamics, "verify_wall", no_wall)
        for argv in (
            ["sff", "--preset", "swap-zz", "--samples", "50", "--t-max", "3"],
            ["sff", "--dims", "2,2,2,2", "--algebra", "pauli:XI,ZX", "--samples", "50"],
        ):
            p = _summary(capsys, argv)
            assert p["data"]["samples"] == 50


class TestSffOneClosure:
    def test_one_closure_and_one_decomposition(self, capsys, monkeypatch):
        calls = {"close_algebra": 0, "decompose": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # every name the sff path can reach either function through
        for module in (walls, cli):
            counted(module, "close_algebra")
        for module in (blocks, walls, cli):
            counted(module, "decompose")
        walls.Preset.frame.cache_clear()
        for name in walls.PRESET_NAMES:
            argv = ["sff", "--preset", name, "--samples", "20", "--t-max", "3"]
            calls.update(close_algebra=0, decompose=0)
            cold = _summary(capsys, argv)
            assert calls == {"close_algebra": 1, "decompose": 1}  # the preset's frame, kept
            calls.update(close_algebra=0, decompose=0)
            assert _summary(capsys, argv) == cold
            assert calls == {"close_algebra": 0, "decompose": 0}

    def test_haar_dim_is_the_one_block_ensemble(self, capsys, tmp_path):
        out = tmp_path / "sff.csv"
        p = _summary(
            capsys,
            ["sff", "--haar-dim", "4", "--seed", "3", "--samples", "300", "--t-max", "6",
             "--out", str(out)],
        )
        res = sff_mc([(1, 1)], 4, 1, 6, 300, SeededRng(3, 51))
        floor = np.finfo(float).eps * res.K_analytic[1:] * np.sqrt(300)
        dev = np.abs(res.K_mc[1:] - res.K_analytic[1:]) / np.maximum(res.stderr[1:], floor)
        assert p["data"] == {"t_max": 6, "samples": 300, "max_sigma_deviation": float(dev.max())}
        expected = tmp_path / "expected.csv"
        cli._write_csv(expected, ("t", "K_mc", "stderr", "K_analytic"), res.to_csv_rows())
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_ensemble_without_variance_reads_no_deviation(self, seed, capsys):
        # every 1 x 1 phase has |tr U^t|^2 = 1, so K_mc differs from K by
        # rounding alone, which the standard-error floor keeps below one sigma
        argv = ["sff", "--haar-dim", "1", "--t-max", "100", "--samples", "4000", "--seed", str(seed)]
        assert _summary(capsys, argv)["data"]["max_sigma_deviation"] < 1


class TestGaugeSeqDrift:
    def test_off_span_step_is_a_property_violation(self, capsys, monkeypatch):
        draws = []

        def second_draw_off_unitary(d, g):
            draws.append(haar_unitary(d, g))
            return draws[-1] + (1e-6 * np.eye(d) if len(draws) == 2 else 0)

        monkeypatch.setattr(cli, "haar_unitary", second_draw_off_unitary)
        p = _summary(capsys, ["gauge-seq", "--preset", "abelian-pair", "--t-max", "3"], 2)
        assert p["status"] == "property-violation"
        assert p["data"] == {"steps": 3, "signature": [[2, 2], [2, 2]], "all_equal": False}


class TestArealawStateCap:
    @pytest.mark.parametrize("samples,states", [(100, 20), (3, 3)])
    def test_states_reported(self, samples, states, capsys):
        p = _summary(
            capsys,
            ["arealaw", "--preset", "abelian-pair", "--t-max", "2", "--samples", str(samples)],
        )
        assert p["data"]["states"] == states


class TestNoFullSpaceLift:
    def test_wall_commands_stay_on_the_center(self, capsys, monkeypatch):
        def no_lift(*args, **kwargs):
            raise AssertionError("built a full-space invariant algebra")

        monkeypatch.setattr(cli.dynamics, "_lift_factors", no_lift)
        for command in ("synth", "verify", "invariants", "conserved", "fragments"):
            _summary(capsys, [command, "--preset", "abelian-pair"])
        p = _summary(
            capsys, ["invariants", "--preset", "abelian-pair", "--dim-l", "8", "--dim-r", "8"]
        )
        assert p["data"]["dimA"] == 2
        assert p["data"]["dim_Lbar"] == 128 and p["data"]["dim_Rbar"] == 128


def _full_parser(argv=()):
    """Oracle: the top-level parser with every subcommand's parser, whatever
    ``argv`` is."""
    p = cli._Parser(prog="wallkit", description=cli.__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        for key in ("seed",) + keys:
            flag = FLAGS[key]
            sp.add_argument(
                _flag(key),
                dest=key,
                type=str if flag.kind == "ints" else flag.kind,
                choices=flag.choices,
            )
    return p


def _run_both(capsys, monkeypatch, argv):
    """(exit, stdout, stderr) of ``run(argv)``, then the same with the
    full-parser oracle; a ``SystemExit`` (from --help) is the exit."""
    results = []
    for build in (cli._build_parser, _full_parser):
        monkeypatch.setattr(cli, "_build_parser", build)
        try:
            code = run(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        cap = capsys.readouterr()
        results.append((code, cap.out, cap.err))
    return results


class TestParser:
    def test_known_command_adds_one_subparser(self, monkeypatch):
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            added.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        cli._parser.cache_clear()
        for command in COMMANDS:
            added.clear()
            assert parse_config([command, "--seed", "4"]).seed == 4
            assert added == [command]
            assert parse_config([command, "--seed", "5"]).seed == 5
            assert added == [command]  # the second parse builds nothing
        added.clear()
        for _ in range(2):
            with pytest.raises(UsageError):
                parse_config(["nope"])
            assert added == list(COMMANDS)

    @pytest.mark.parametrize("argv", [[], ["nope"], ["--seed", "3"]])
    def test_missing_or_unknown_command_unchanged(self, argv, capsys, monkeypatch):
        (code, out, err), oracle = _run_both(capsys, monkeypatch, argv)
        assert (code, out, err) == oracle
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        if argv:
            assert "invalid choice" in error and all(c in error for c in COMMANDS)
        else:
            assert error == "the following arguments are required: command"

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["conserved", "--help"]])
    def test_help_unchanged(self, argv, capsys, monkeypatch):
        (code, out, err), oracle = _run_both(capsys, monkeypatch, argv)
        assert (code, out, err) == oracle
        assert code == ("SystemExit", 0)
        if argv[0] != "conserved":
            assert "{" + ",".join(COMMANDS) + "}" in out

    def test_workload_calls_parse_as_with_every_subparser(self, monkeypatch):
        workloads = _load_perfbench("workloads")
        calls = {op.argv for w in workloads.WORKLOADS.values() for op in w.ops}
        for argv in sorted(calls):
            argv = [*argv, "--seed", "1"]
            cfg = parse_config(argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "_build_parser", _full_parser)
                assert cfg == parse_config(argv), argv

    @pytest.mark.parametrize("argv", INVALID_CALLS)
    def test_invalid_call_errors_as_with_every_subparser(self, argv, capsys, monkeypatch):
        mine, oracle = _run_both(capsys, monkeypatch, argv.split())
        assert mine == oracle

    @pytest.mark.parametrize("command, values", INVALID_CONFIGS)
    def test_invalid_config_errors_as_with_every_subparser(
        self, command, values, capsys, monkeypatch, tmp_path
    ):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps(values))
        mine, oracle = _run_both(capsys, monkeypatch, [command, "--config", str(cfgf)])
        assert mine == oracle


WALL_CALLS = [["invariants"], ["conserved"], ["fragments"], ["gauge-seq", "--t-max", "2"]]
WALL_SOURCES = [
    ["--preset", "abelian-pair"],
    ["--preset", "nonabelian-cnot"],  # built by synth_wall
    ["--dims", "2,2,2", "--algebra", "diag"],
]


@pytest.mark.parametrize("source", WALL_SOURCES, ids=lambda a: "_".join(a))
@pytest.mark.parametrize("call", WALL_CALLS, ids=lambda a: a[0])
class TestOneVerification:
    def test_one_verify_wall_per_call(self, call, source, capsys, monkeypatch):
        closures = []
        closure = cli.dynamics._directional_closure

        def counted(*args, **kwargs):
            closures.append(args)
            return closure(*args, **kwargs)

        monkeypatch.setattr(cli.dynamics, "_directional_closure", counted)
        _summary(capsys, call + source)
        assert len(closures) == 2  # the left and the right closure of one verify_wall

    def test_no_verification_once_the_wall_is_built(self, call, source, capsys, monkeypatch):
        def no_verify(*args, **kwargs):
            raise AssertionError("verified the wall a second time")

        build = cli._wall_from_config

        def build_then_forbid(cfg):
            wall = build(cfg)
            monkeypatch.setattr(cli.dynamics, "verify_wall", no_verify)
            return wall

        monkeypatch.setattr(cli, "_wall_from_config", build_then_forbid)
        _summary(capsys, call + source)


@pytest.mark.parametrize("source", WALL_SOURCES, ids=lambda a: "_".join(a))
def test_conserved_decomposes_only_to_build_the_wall(source, capsys, monkeypatch):
    # A_C' is read off the wall's block frame, not from a second decomposition
    calls = []
    decompose = blocks.decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    build = cli._wall_from_config

    def build_then_count(cfg):
        wall = build(cfg)
        for module in (blocks, walls, cli):
            monkeypatch.setattr(module, "decompose", counted)
        return wall

    monkeypatch.setattr(cli, "_wall_from_config", build_then_count)
    _summary(capsys, ["conserved", *source])
    assert calls == []


VERIFY_SOURCES = [["--preset", name] for name in walls.PRESET_NAMES] + [["--dims", "2,2,2"]]


class TestVerifyReusesTheConstructionCheck:
    @pytest.mark.parametrize("source", VERIFY_SOURCES, ids=lambda a: "_".join(a))
    def test_one_check_per_wall(self, source, capsys, monkeypatch):
        closures = []
        closure = cli.dynamics._directional_closure

        def counted(*args, **kwargs):
            closures.append(args)
            return closure(*args, **kwargs)

        monkeypatch.setattr(cli.dynamics, "_directional_closure", counted)
        p = _summary(capsys, ["verify", *source])
        assert len(closures) == 2  # the left and the right closure of the construction check
        monkeypatch.undo()
        wall = cli._wall_from_config(parse_config(["verify", *source]))
        assert p["data"] == cli.dynamics.verify_wall(wall.U, wall.layout).summary()


class TestBenchmarkOracle:
    def test_every_workload_operation_passes(self, capsys):
        workloads = _load_perfbench("workloads")
        expected = workloads.load_expected()
        failures = []
        for w in workloads.WORKLOADS.values():
            for op, argv in w.cycle(1, 0):
                rc = run(argv)
                problem = workloads.check(expected, op, rc, capsys.readouterr().out)
                if problem is not None:
                    failures.append((w.name, argv, problem))
        assert failures == []

    def test_every_traced_layer_resolves(self):
        # a deletion that breaks the traced benchmark run fails here first
        tracer = _load_perfbench("tracer")
        for prefix, module, path, _ in tracer.LAYERS:
            importlib.import_module(module)
            owner, attr = tracer._resolve(module, path)
            assert callable(getattr(owner, attr, None)), prefix


class TestScanWidthCap:
    def test_huge_max_width_runs_only_real_windows(self, capsys, tmp_path):
        rows = {}
        for width in ("2", "1000000000000"):
            out = tmp_path / f"scan{width}.csv"
            t0 = time.monotonic()
            _summary(capsys, ["scan", "--chain-sites", "4", "--max-width", width, "--out", str(out)])
            rows[width] = (out.read_bytes(), time.monotonic() - t0)
        assert rows["1000000000000"][0] == rows["2"][0]
        assert rows["1000000000000"][1] < 1.0

    def test_forty_site_chain_finds_the_embedded_wall(self, capsys):
        p = _summary(capsys, ["scan", "--chain-sites", "40", "--embed-at", "21"])
        assert p["data"]["minimal_windows"] == [[21, 1]]

    def test_width_four_window_around_the_wall_is_found(self, capsys):
        # every window around site 3 is a wall; a closure that counted
        # rounding in small words as growth rejected (3, 4) on this chain
        argv = "scan --chain-sites 8 --max-width 4 --embed-at 3 --seed 3".split()
        detections = _summary(capsys, argv)["data"]["detections"]
        assert detections == [[s, w] for w in range(1, 5) for s in range(max(1, 4 - w), 4)]


class TestArealawOneCall:
    def test_all_states_in_one_call_first_failure_reported(self, capsys, monkeypatch):
        calls = []

        def reports(wall, states, t_max):
            calls.append(len(states))
            good = observables.AreaLawReport(t_max, 2, 2, [], [])
            bad = [observables.AreaLawReport(t_max, 2, 3, [(t, 3)], []) for t in (1, 2)]
            return [good, bad[0], good, bad[1]] + [good] * (len(states) - 4)

        monkeypatch.setattr(cli.observables, "verify_area_law", reports)
        p = _summary(capsys, ["arealaw", "--preset", "abelian-pair", "--t-max", "3"], expect_code=2)
        assert calls == [20]
        assert p["data"] == {"bound": 2, "violations": [[1, 3]], "block_violations": []}


class TestMeasureDefaultObservable:
    @pytest.mark.parametrize("preset", walls.PRESET_NAMES)
    def test_z_on_every_central_qubit(self, preset, capsys):
        n = len(walls.PRESETS[preset].center)
        p = _summary(capsys, ["measure", "--preset", preset, "--rounds", "3"])
        explicit = _summary(capsys, ["measure", "--preset", preset, "--rounds", "3",
                                     "--observable", "Z" * n])
        assert p == explicit

    def test_non_qubit_center_needs_an_observable(self, capsys):
        code, out, err = _run(capsys, ["measure", "--dims", "2,3,2"])
        assert code == 1 and out == ""
        assert "--observable" in json.loads(err)["error"]


class TestArealawBlockViolations:
    def test_block_only_failure_is_listed(self, capsys, monkeypatch):
        report = observables.AreaLawReport(
            t_max=3, bound=2, max_rank=2, violations=[],
            block_results=[
                {"block": 0, "bound": 1, "max_rank": 1, "violations": [], "weight": 0.6},
                {"block": 1, "bound": 1, "max_rank": 2, "violations": [(2, 2), (3, 2)],
                 "weight": 0.8},
            ],
        )
        monkeypatch.setattr(
            cli.observables, "verify_area_law", lambda wall, states, *a, **k: [report] * len(states)
        )
        p = _summary(capsys, ["arealaw", "--preset", "abelian-pair", "--t-max", "3"], expect_code=2)
        assert p["status"] == "property-violation"
        assert p["data"]["violations"] == []
        assert p["data"]["block_violations"] == [
            {"block": 1, "bound": 1, "violations": [[2, 2], [3, 2]]}
        ]
