"""Monte-Carlo accumulation kernel of the spectral form factor: one
vectorized numpy pass over all samples."""

from __future__ import annotations

import numpy as np


def trace_powers(eigs: np.ndarray, offsets: np.ndarray, t_max: int) -> np.ndarray:
    """|tr U^t|^2 per sample for t = 1..t_max.

    ``eigs``: (samples, n) eigenvalues of the block unitaries, concatenated as
    T_0, R_0, T_1, R_1, ...; ``offsets`` (2 * n_blocks + 1) marks the segment
    boundaries.  The trace of the block-sum unitary is
    sum_i tr(T_i^t) tr(R_i^t).
    """
    eigs = np.ascontiguousarray(eigs, dtype=np.complex128)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    samples, n = eigs.shape
    n_blocks = (len(offsets) - 1) // 2
    out = np.empty((samples, t_max), dtype=np.float64)
    powers = np.ones_like(eigs)
    for t in range(1, t_max + 1):
        powers = powers * eigs
        tr = np.zeros(samples, dtype=np.complex128)
        for b in range(n_blocks):
            tT = powers[:, offsets[2 * b] : offsets[2 * b + 1]].sum(axis=1)
            tR = powers[:, offsets[2 * b + 1] : offsets[2 * b + 2]].sum(axis=1)
            tr += tT * tR
        out[:, t - 1] = tr.real**2 + tr.imag**2
    return out
