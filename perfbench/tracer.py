"""Layer tracer: wraps the public functions of each ``wallkit`` module, and the
``numpy.linalg`` entry points the package calls, from outside the package.

A wrapper records one span per call (layer, operation id, parent span,
start, end, self time) in memory, plus the layer's work counters.  Self time
is the span's duration minus the time of the wrapped calls made inside it,
so self times nest without double counting.  Nothing is written until the
run ends and ``Tracer.metrics`` aggregates the spans.

``from .linalg import nullspace`` copies the reference into other modules,
so every ``wallkit`` module attribute bound to a wrapped function is
replaced, and restored by ``Tracer.uninstall``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MARK = "__perfbench_layer__"


def _shape(a):
    shape = getattr(a, "shape", None)
    if shape is None:
        import numpy as np

        shape = np.asarray(a).shape
    return tuple(shape)


def _is_complex(a) -> bool:
    return getattr(getattr(a, "dtype", None), "kind", "c") == "c"


def _scale(a, *, lead=2):
    """(batch count, real-arithmetic factor) for a stacked matrix argument."""
    batch = 1
    for n in _shape(a)[:-lead]:
        batch *= n
    return batch * (4 if _is_complex(a) else 1)


# Computed work, not measured: textbook flop counts from the argument shapes
# (Golub & Van Loan, Matrix Computations, table 8.6.1 and 5.2; LAPACK Working
# Note 41), times 4 for complex data, in units of 1e9.


def _svd_gflop(args, kwargs, _res):
    a = args[0]
    m, n = _shape(a)[-2:]
    m, n = max(m, n), min(m, n)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if not uv:
        f = 4 * m * n * n - 4 * n**3 / 3
    elif full:
        f = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        f = 14 * m * n * n + 8 * n**3
    return {"gflop": f * _scale(a) / 1e9}


def _qr_gflop(args, kwargs, _res):
    a = args[0]
    m, n = _shape(a)[-2:]
    k = min(m, n)
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "reduced")
    f = 4 * m * n * k - 2 * (m + n) * k * k + 4 * k**3 / 3  # Householder R
    if mode in ("reduced", "complete"):
        q_cols = m if mode == "complete" else k
        f += 4 * m * q_cols * k - 2 * (m + q_cols) * k * k + 4 * k**3 / 3  # form Q
    return {"gflop": f * _scale(a) / 1e9}


def _eigvals_gflop(args, _kwargs, _res):
    n = _shape(args[0])[-1]
    return {"gflop": 10 * n**3 * _scale(args[0]) / 1e9}


def _eigh_gflop(args, _kwargs, _res):
    n = _shape(args[0])[-1]
    return {"gflop": 9 * n**3 * _scale(args[0]) / 1e9}


def _nullspace_elems(args, _kwargs, _res):
    s = _shape(args[0])
    return {"input_elems": s[0] * s[1] if len(s) == 2 else 0}


def _verify_counts(_args, _kwargs, report):
    return {
        "checks": 1,
        "walls": int(report.left and report.right),
        "rounds": report.steps_left + report.steps_right,
    }


def _trace_powers_elems(args, kwargs, _res):
    samples, n = _shape(args[0])
    t_max = kwargs.get("t_max", args[2] if len(args) > 2 else 0)
    return {"elems": samples * n * int(t_max)}


# (metric prefix, module, attribute path, counter) for every wrapped layer.
# "numpy.linalg" targets are the LAPACK entry points the package calls.
LAYERS = [
    ("linalg.nullspace", "wallkit.linalg", "nullspace", _nullspace_elems),
    ("linalg.orthonormal_basis", "wallkit.linalg", "orthonormal_basis", None),
    ("linalg.haar_unitary", "wallkit.linalg", "haar_unitary", None),
    ("linalg.embed", "wallkit.linalg", "embed", None),
    ("linalg.partial_trace", "wallkit.linalg", "partial_trace", None),
    ("linalg.lapack.svd", "numpy.linalg", "svd", _svd_gflop),
    ("linalg.lapack.qr", "numpy.linalg", "qr", _qr_gflop),
    ("linalg.lapack.eigvals", "numpy.linalg", "eigvals", _eigvals_gflop),
    ("linalg.lapack.eigh", "numpy.linalg", "eigh", _eigh_gflop),
    ("algebra.close_algebra", "wallkit.algebra", "close_algebra", None),
    ("algebra.commutant", "wallkit.algebra", "commutant", None),
    ("algebra.intersect", "wallkit.algebra", "intersect", None),
    ("algebra.center", "wallkit.algebra", "center", None),
    ("algebra.extract_central_factor", "wallkit.algebra", "extract_central_factor", None),
    ("blocks.decompose", "wallkit.blocks", "decompose", None),
    ("walls.preset_wall", "wallkit.walls", "preset_wall", None),
    ("walls.synth_wall", "wallkit.walls", "synth_wall", None),
    ("dynamics.verify_wall", "wallkit.dynamics", "verify_wall", _verify_counts),
    ("dynamics.invariant_algebras", "wallkit.dynamics", "invariant_algebras", None),
    ("dynamics.conserved_algebra", "wallkit.dynamics", "conserved_algebra", None),
    ("dynamics.fragment_decomposition", "wallkit.dynamics", "fragment_decomposition", None),
    ("dynamics.gauged_sequence", "wallkit.dynamics", "gauged_sequence", None),
    ("dynamics.lightcone", "wallkit.dynamics", "lightcone", None),
    ("dynamics.support", "wallkit.dynamics", "support", None),
    ("dynamics.scan_chain", "wallkit.dynamics", "scan_chain", None),
    ("observables.sff_mc", "wallkit.observables", "sff_mc", None),
    ("observables.verify_area_law", "wallkit.observables", "verify_area_law", None),
    ("observables.measurement_protocol", "wallkit.observables", "measurement_protocol", None),
    ("observables.schmidt", "wallkit.observables", "schmidt", None),
    ("observables.evolve_state", "wallkit.observables", "evolve_state", None),
    ("kernels.trace_powers", "wallkit._kernels", "trace_powers", _trace_powers_elems),
    ("layout.SeededRng.generator", "wallkit.layout", "SeededRng.generator", None),
    ("cli.parse_config", "wallkit.cli", "parse_config", None),
    ("cli.run", "wallkit.cli", "run", None),
]

# extra per-layer stats beyond calls and self_s, with their units
EXTRA_STATS = {
    "linalg.nullspace": {"input_elems": "count"},
    "linalg.lapack.svd": {"gflop": "gflop_computed"},
    "linalg.lapack.qr": {"gflop": "gflop_computed"},
    "linalg.lapack.eigvals": {"gflop": "gflop_computed"},
    "linalg.lapack.eigh": {"gflop": "gflop_computed"},
    "dynamics.verify_wall": {"accept_ratio": "ratio", "rounds": "count"},
    "kernels.trace_powers": {"elems": "count"},
}


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for prefix, *_ in LAYERS:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
        out += [(f"{prefix}.{k}", u) for k, u in EXTRA_STATS.get(prefix, {}).items()]
    return out + [("trace.op_s", "s"), ("trace.overhead_ratio", "ratio")]


def _resolve(module, path):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def installed_wrappers():
    """Names of every layer wrapper currently bound anywhere it is looked up."""
    found = []
    for prefix, module, path, _ in LAYERS:
        if module not in sys.modules:
            continue
        owner, attr = _resolve(module, path)
        if getattr(getattr(owner, attr), MARK, None):
            found.append(prefix)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "wallkit":
            for attr, value in vars(mod).items():
                if getattr(value, MARK, None):
                    found.append(f"{name}.{attr}")
    return found


class Tracer:
    """Installs the layer wrappers and keeps their spans until the run ends."""

    def __init__(self):
        self.spans = []  # (span id, parent id, layer, op id, start, end, self), in ns
        self.counts = []  # (layer, op id, {stat: increment})
        self.op_id = None
        self.untraced = []  # records of the same operations run without wrappers
        self._stack = []  # [span id, child ns] of the open spans
        self._next_id = 0
        self._patched = []  # (owner, attr, original)

    def _wrap(self, prefix, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0]
            tracer._stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
                dur = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans.append(
                    (sid, parent, prefix, tracer.op_id, t0, t1, dur - frame[1])
                )
            if counter is not None:
                tracer.counts.append((prefix, tracer.op_id, counter(args, kwargs, result)))
            return result

        setattr(wrapper, MARK, prefix)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "wallkit"]
        for prefix, module, path, counter in LAYERS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(prefix, original, counter)
            self._patch(owner, attr, wrapper)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_time_by_op(self):
        """Sum of span self times per operation id, in ns."""
        out = defaultdict(int)
        for span in self.spans:
            out[span[3]] += span[6]
        return dict(out)

    def metrics(self):
        """Aggregate the spans and counters into per-layer metric values."""
        calls, self_ns = defaultdict(int), defaultdict(int)
        for _sid, _parent, prefix, _op, _t0, _t1, self_t in self.spans:
            calls[prefix] += 1
            self_ns[prefix] += self_t
        stats = defaultdict(float)
        for prefix, _op, incs in self.counts:
            for k, v in incs.items():
                stats[f"{prefix}.{k}"] += v
        checks = stats.pop("dynamics.verify_wall.checks", 0.0)
        walls = stats.pop("dynamics.verify_wall.walls", 0.0)
        stats["dynamics.verify_wall.accept_ratio"] = walls / checks if checks else 0.0
        out = {}
        for prefix, *_ in LAYERS:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.self_s"] = self_ns[prefix] / 1e9
            for k, unit in EXTRA_STATS.get(prefix, {}).items():
                value = stats[f"{prefix}.{k}"]
                out[f"{prefix}.{k}"] = int(value) if unit == "count" else value
        return out
