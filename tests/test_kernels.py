"""Trace-power kernel tests: the vectorized numpy accumulation of
|tr U^t|^2 against closed forms and a dense oracle."""

import numpy as np
import pytest

from wallkit._kernels import trace_powers


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
        out = trace_powers(eigs, offsets, 3)
        assert np.allclose(out, 1.0)

    def test_identity_blocks(self):
        # identity eigenvalues: tr(T^t) tr(R^t) = dT * dR for all t
        eigs = np.ones((2, 6), dtype=np.complex128)
        offsets = np.array([0, 2, 4, 5, 6], dtype=np.int64)
        out = trace_powers(eigs, offsets, 4)
        assert np.allclose(out, (2 * 2 + 1 * 1) ** 2)

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
