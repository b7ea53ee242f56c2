"""Backend tests: numba fast path vs. pure-numpy fallback for the trace-power
kernel, plus the WALLKIT_BACKEND selection flag."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

try:
    import numba  # noqa: F401

    NUMBA_IMPORTABLE = True
except ImportError:
    NUMBA_IMPORTABLE = False

from wallkit import _kernels
from wallkit._kernels import _trace_powers_numpy, trace_powers


def _sample_eigs(seed, samples=50, sizes=(2, 2, 2, 2)):
    g = np.random.default_rng(seed)
    n = sum(sizes)
    phases = g.uniform(0, 2 * np.pi, size=(samples, n))
    eigs = np.exp(1j * phases)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return eigs, offsets


class TestKernelAgreement:
    def test_numpy_reference_values(self):
        # one sample, one (1, 1) block of a single phase: |tr|^2 = 1 always
        eigs = np.exp(1j * np.array([[0.3, 1.1]]))
        offsets = np.array([0, 1, 2], dtype=np.int64)
        out = _trace_powers_numpy(eigs, offsets, 3)
        assert np.allclose(out, 1.0)

    def test_identity_blocks(self):
        # identity eigenvalues: tr(T^t) tr(R^t) = dT * dR for all t
        eigs = np.ones((2, 6), dtype=np.complex128)
        offsets = np.array([0, 2, 4, 5, 6], dtype=np.int64)
        out = _trace_powers_numpy(eigs, offsets, 4)
        assert np.allclose(out, (2 * 2 + 1 * 1) ** 2)

    def test_backends_agree(self):
        # the numba kernel against the vectorized numpy one, called by name:
        # compiled when the numba backend is active, its loop source run as
        # plain Python otherwise
        kernel = (
            _kernels._trace_powers_numba
            if _kernels.NUMBA_ENABLED
            else _kernels._trace_powers_loop
        )
        eigs, offsets = _sample_eigs(0)
        a = kernel(eigs, offsets, 16)
        b = _trace_powers_numpy(eigs, offsets, 16)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_matches_dense_matrix_oracle(self):
        eigs, offsets = _sample_eigs(1, samples=3, sizes=(2, 3, 2, 2))
        out = trace_powers(eigs, offsets, 5)
        for s in range(3):
            for t in range(1, 6):
                tr = 0.0 + 0.0j
                for b in range(2):
                    tT = np.sum(eigs[s, offsets[2 * b] : offsets[2 * b + 1]] ** t)
                    tR = np.sum(eigs[s, offsets[2 * b + 1] : offsets[2 * b + 2]] ** t)
                    tr += tT * tR
                assert out[s, t - 1] == pytest.approx(abs(tr) ** 2, rel=1e-10)


class TestBackendFlag:
    def test_numba_active_by_default(self):
        # unset flag: numba exactly when it imports in that interpreter
        res = self._subprocess_flag(None)
        assert res["numba"] is res["numba_importable"]

    def _subprocess_flag(self, value):
        """Run the kernel in a fresh interpreter with WALLKIT_BACKEND=value
        (removed from the environment when value is None)."""
        env = dict(os.environ)
        env.pop("WALLKIT_BACKEND", None)
        if value is not None:
            env["WALLKIT_BACKEND"] = value
        code = (
            "import json, numpy as np\n"
            "from wallkit._kernels import trace_powers, NUMBA_ENABLED\n"
            "g = np.random.default_rng(7)\n"
            "eigs = np.exp(1j * g.uniform(0, 6.28, size=(20, 8)))\n"
            "offsets = np.array([0, 2, 4, 6, 8], dtype=np.int64)\n"
            "out = trace_powers(eigs, offsets, 12)\n"
            "try:\n"
            "    import numba\n"
            "    importable = True\n"
            "except ImportError:\n"
            "    importable = False\n"
            "print(json.dumps({'numba': NUMBA_ENABLED, 'sum': float(out.sum()),\n"
            "                  'numba_importable': importable}))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout.strip().splitlines()[-1])

    def test_numpy_flag_disables_numba(self):
        assert self._subprocess_flag("numpy")["numba"] is False

    @pytest.mark.skipif(not NUMBA_IMPORTABLE, reason="numba is not installed")
    def test_cross_process_agreement(self):
        a = self._subprocess_flag("numpy")
        b = self._subprocess_flag("numba")
        assert b["numba"] is True
        assert a["sum"] == pytest.approx(b["sum"], rel=1e-12)

    def test_invalid_flag_rejected(self):
        env = dict(os.environ, WALLKIT_BACKEND="cuda")
        res = subprocess.run(
            [sys.executable, "-c", "import wallkit._kernels"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert res.returncode != 0
        assert "WALLKIT_BACKEND" in res.stderr

    @pytest.mark.skipif(NUMBA_IMPORTABLE, reason="numba is installed")
    def test_numba_flag_without_numba_rejected(self):
        env = dict(os.environ, WALLKIT_BACKEND="numba")
        res = subprocess.run(
            [sys.executable, "-c", "import wallkit._kernels"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert res.returncode != 0
        assert "WALLKIT_BACKEND" in res.stderr
        assert "numba" in res.stderr
