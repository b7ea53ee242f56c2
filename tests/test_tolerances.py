"""Every numerical threshold lives in the one table of ``wallkit.linalg``, and
no function takes a tolerance it does not need."""

import ast
import importlib
import inspect
from pathlib import Path

import wallkit

SRC = Path(wallkit.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
# the two functions whose tolerance has more than one value in use
TAKES_A_TOLERANCE = {("algebra", "contains"), ("algebra", "cluster_eigenvalues")}


def _table_lines() -> set[int]:
    """Line numbers of the module-level ``*_TOL = value`` assignments of
    ``linalg``: the table."""
    tree = ast.parse((SRC / "linalg.py").read_text())
    return {
        node.lineno
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.endswith("_TOL")
    }


def test_no_small_literal_outside_the_table():
    table = _table_lines()
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Constant) or isinstance(node.value, bool):
                continue
            if not isinstance(node.value, (int, float, complex)):
                continue
            if 0 < abs(node.value) < 1e-5:
                if not (path.name == "linalg.py" and node.lineno in table):
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, found


def test_only_contains_and_cluster_eigenvalues_take_a_tolerance():
    found = []
    for stem in MODULES:
        module = importlib.import_module(f"wallkit.{stem}")
        for name, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            params = inspect.signature(obj).parameters
            if any("tol" in p for p in params) and (stem, name) not in TAKES_A_TOLERANCE:
                found.append(f"{stem}.{name}{inspect.signature(obj)}")
    assert not found, found


def test_traced_layers_exist():
    # the benchmark's tracer wraps these names; a missing one fails every run
    tree = ast.parse(TRACER.read_text())
    layers = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS"
    )
    names = [tuple(e.value for e in entry.elts[1:3]) for entry in layers.elts]
    assert names
    for module, path in names:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr)
