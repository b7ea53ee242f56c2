"""Hot Monte-Carlo accumulation kernels with a numba fast path.

The backend is chosen once at import time from WALLKIT_BACKEND:

* unset: numba when it is importable, the pure-numpy path otherwise;
* ``numba``: numba is required, and importing this module raises RuntimeError
  when it cannot be imported;
* ``numpy``: the pure-numpy path is forced.

NUMBA_ENABLED records which backend is active.  numba is an optional
dependency; the two paths agree to floating-point accumulation noise
(relative 1e-12), which the test suite pins down.
"""

from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("WALLKIT_BACKEND")
_requested = "numba" if _flag is None else _flag.strip().lower()
if _requested not in ("numba", "numpy"):
    raise RuntimeError(
        f"WALLKIT_BACKEND must be 'numba' or 'numpy', got {_requested!r}"
    )

NUMBA_ENABLED = False
if _requested == "numba":
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError as exc:
        # only the unset default may fall back; an explicit request must hold
        if _flag is not None:
            raise RuntimeError(
                f"WALLKIT_BACKEND={_flag!r} requires numba, which cannot be "
                f"imported ({exc}); install numba or unset WALLKIT_BACKEND"
            ) from exc


def _trace_powers_numpy(eigs: np.ndarray, offsets: np.ndarray, t_max: int) -> np.ndarray:
    """|tr U^t|^2 per sample for t = 1..t_max.

    ``eigs``: (samples, n) eigenvalues of the block unitaries, concatenated as
    T_0, R_0, T_1, R_1, ...; ``offsets`` (2 * n_blocks + 1) marks the segment
    boundaries.  The trace of the block-sum unitary is
    sum_i tr(T_i^t) tr(R_i^t).
    """
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


def _trace_powers_loop(eigs, offsets, t_max):
    """Per-sample loop form of _trace_powers_numpy: the numba kernel's source,
    compiled when numba is active and runnable as plain Python otherwise."""
    samples, n = eigs.shape
    n_blocks = (len(offsets) - 1) // 2
    out = np.empty((samples, t_max), dtype=np.float64)
    for s in range(samples):
        powers = np.ones(n, dtype=np.complex128)
        for t in range(t_max):
            for k in range(n):
                powers[k] = powers[k] * eigs[s, k]
            tr = 0.0 + 0.0j
            for b in range(n_blocks):
                tT = 0.0 + 0.0j
                for k in range(offsets[2 * b], offsets[2 * b + 1]):
                    tT += powers[k]
                tR = 0.0 + 0.0j
                for k in range(offsets[2 * b + 1], offsets[2 * b + 2]):
                    tR += powers[k]
                tr += tT * tR
            out[s, t] = tr.real * tr.real + tr.imag * tr.imag
    return out


if NUMBA_ENABLED:
    _trace_powers_numba = njit(cache=True)(_trace_powers_loop)


def trace_powers(eigs: np.ndarray, offsets: np.ndarray, t_max: int) -> np.ndarray:
    """Dispatch to the active backend; see _trace_powers_numpy for semantics."""
    eigs = np.ascontiguousarray(eigs, dtype=np.complex128)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if NUMBA_ENABLED:
        return _trace_powers_numba(eigs, offsets, t_max)
    return _trace_powers_numpy(eigs, offsets, t_max)
