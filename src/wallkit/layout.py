"""Tri-partite system layouts and reproducible random streams."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np


@dataclass(frozen=True)
class SystemLayout:
    """Ordered qudit sites partitioned into contiguous L, C, R regions.

    Site 0 is the most significant index in the row-major tensor
    convention used throughout the package.  Any of the regions may be
    empty for generic operator work; wall checks require non-empty L and R.
    """

    site_dims: tuple[int, ...]
    left: tuple[int, ...] = ()
    center: tuple[int, ...] = ()
    right: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.site_dims or any(d < 1 for d in self.site_dims):
            raise ValueError("site dimensions must be positive integers")
        n = len(self.site_dims)
        covered = self.left + self.center + self.right
        if covered and covered != tuple(range(n)):
            raise ValueError(
                "L, C, R must be disjoint contiguous ranges covering sites "
                f"0..{n - 1}, got {covered}"
            )
        if not covered:
            # generic layout: treat every site as central
            object.__setattr__(self, "center", tuple(range(n)))

    @classmethod
    def tripartite(cls, d_left, center_dims, d_right) -> "SystemLayout":
        """Single merged L and R sites around a multi-site center."""
        center_dims = tuple(int(d) for d in np.atleast_1d(center_dims))
        dims = (int(d_left),) + center_dims + (int(d_right),)
        n = len(dims)
        return cls(dims, (0,), tuple(range(1, n - 1)), (n - 1,))

    @property
    def n_sites(self) -> int:
        return len(self.site_dims)

    @property
    def dim(self) -> int:
        return prod(self.site_dims)

    @property
    def d_left(self) -> int:
        return prod(self.site_dims[s] for s in self.left) if self.left else 1

    @property
    def d_center(self) -> int:
        return prod(self.site_dims[s] for s in self.center) if self.center else 1

    @property
    def d_right(self) -> int:
        return prod(self.site_dims[s] for s in self.right) if self.right else 1

    @property
    def center_dims(self) -> tuple[int, ...]:
        return tuple(self.site_dims[s] for s in self.center)

    def to_json(self) -> list[int]:
        return list(self.site_dims)


@dataclass(frozen=True)
class SeededRng:
    """Reproducible (seed, stream) pair; identical pairs give identical draws."""

    seed: int
    stream_id: int = 0
    _cache: list = field(default_factory=list, compare=False, repr=False)

    def generator(self) -> np.random.Generator:
        # cached so that successive draws through one SeededRng advance a
        # single stream, while a fresh SeededRng with the same pair replays it
        if not self._cache:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
            self._cache.append(np.random.default_rng(ss))
        return self._cache[0]

    def stream(self, stream_id: int) -> "SeededRng":
        return SeededRng(self.seed, stream_id)


def as_generator(rng) -> np.random.Generator:
    """Accept a SeededRng, Generator, or integer seed."""
    if isinstance(rng, SeededRng):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return SeededRng(int(rng)).generator()
    raise TypeError(f"cannot interpret {type(rng).__name__} as a random source")
