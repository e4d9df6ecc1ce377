"""Flat parameter vector shared by a chain of circuits.

All trainable angles live in one float64 vector so the optimizer can treat
the whole model as a single point in parameter space. Each circuit in the
chain owns a contiguous slice; the flat index of parameter ``p`` of circuit
``v`` is ``offset(v) + p``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class ParamStore:
    def __init__(self, counts: list[int] | tuple[int, ...], values: np.ndarray | None = None):
        if len(counts) == 0 or any(c < 0 for c in counts):
            raise ConfigError(f"invalid parameter counts {counts!r}")
        self.counts = tuple(int(c) for c in counts)
        self.offsets = tuple(int(x) for x in np.concatenate([[0], np.cumsum(self.counts)[:-1]]))
        self.total = int(sum(self.counts))
        if values is None:
            values = np.zeros(self.total, dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (self.total,):
                raise ConfigError(
                    f"expected {self.total} parameter values, got shape {values.shape}"
                )
        self.values = values

    @classmethod
    def random_init(cls, counts: list[int] | tuple[int, ...], rng: np.random.Generator) -> "ParamStore":
        """Uniform angles in [0, 2*pi)."""
        store = cls(counts)
        store.values = rng.uniform(0.0, 2.0 * np.pi, size=store.total)
        return store

    def slice_for(self, vqc_index: int) -> np.ndarray:
        """View of the parameters owned by one circuit."""
        if not 0 <= vqc_index < len(self.counts):
            raise ConfigError(f"vqc_index {vqc_index} out of range")
        start = self.offsets[vqc_index]
        return self.values[start:start + self.counts[vqc_index]]
