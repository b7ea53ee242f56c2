"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of the CPU the benchmark gets drifts by tens of
percent over minutes, with the load of other tenants.  The untraced run calls
``kernel`` between operations and divides its time metrics by the kernel's
speed, relative to ``NOMINAL_PER_S``, so that two runs made while the host ran
at different speeds still compare.  The kernel mixes the kinds of work the
workloads do (small dense linear algebra, einsum, interpreter-bound loops over
dicts and lists) so that it slows with the host the way they do.  It uses no
``wallkit`` code: no change to the package can change the kernel's work.
"""

from __future__ import annotations

import numpy as np

# Reference-kernel calls per second on the machine that made the baseline in
# README.md; it only scales the reported values into familiar units.
NOMINAL_PER_S = 26.0

_rng = np.random.default_rng(20260218)
_SMALL = [
    _rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
    for n in (2, 4, 8, 16)
    for _ in range(10)
]
_MID = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))


def kernel() -> float:
    """About 40 ms of fixed work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for a in _SMALL:
        q, _ = np.linalg.qr(a)
        acc += float(np.abs(np.linalg.eigvals(q)).sum())
    for _ in range(20):
        acc += float(np.abs(np.einsum("ij,jk->ik", _MID, _MID)).sum())
    counts: dict[int, int] = {}
    words = []
    for i in range(20000):
        counts[i % 997] = counts.get(i % 997, 0) + i
        words.append(str(i))
    words.sort()
    return acc + len(counts) + len(words)
