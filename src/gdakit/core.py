"""Dense float64 vectors and reproducible counter-based random streams.

Everything downstream assumes 64-bit floats and finite entries; the helpers
here are where those assumptions are enforced.
"""
from __future__ import annotations

import numpy as np


class GdakitError(Exception):
    """Base class for all library errors."""


class DimensionError(GdakitError):
    """Operand shapes or lengths do not line up."""


class ParameterError(GdakitError):
    """A scalar argument is outside its documented domain."""


class ConstructionError(GdakitError):
    """Problem ingredients violate a structural precondition."""


class CapabilityError(GdakitError):
    """The requested operation needs a feature this problem does not have."""


class OracleViolation(GdakitError):
    """A stochastic-oracle consistency check failed; message names the check."""


class ConstraintError(GdakitError):
    """A step-size/probability constraint is violated; message lists the bound."""


class InsufficientDataError(GdakitError):
    """Not enough logged data to compute the requested summary."""


class DivergenceError(GdakitError):
    """A probe or run blew past the divergence guard.

    A run's error also names the diverged seed and step (seed, k) and
    carries the trace records that seed logged before k, so the caller can
    write the partial trace.
    """

    def __init__(self, message: str, *, seed=None, k=None, records=()):
        super().__init__(message)
        self.seed = seed
        self.k = k
        self.records = list(records)


def as_vec(values, *, what: str = "vector") -> np.ndarray:
    """Coerce to a 1-d float64 array and verify every entry is finite."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"{what}: expected 1-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"{what}: non-finite entries")
    return a


def row_dot(a: np.ndarray, b: np.ndarray):
    """a @ b for two vectors, or the dot of each row pair of two stacks (S, k).

    Stacked matmul runs one dot product per row, so each row is
    bit-identical to a @ b on that row alone whatever S is (einsum's row
    sums are not).
    """
    if a.ndim == 1:
        return a @ b
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


class RngStream:
    """Reproducible random stream keyed by (base_seed, stream_id).

    Backed by the Philox counter-based generator: two streams built from the
    same key produce identical draw sequences, streams with different ids are
    statistically independent, and results do not depend on thread scheduling
    or platform.
    """

    __slots__ = ("base_seed", "stream_id", "_gen")

    def __init__(self, base_seed: int, stream_id: int = 0):
        self.base_seed = int(base_seed)
        self.stream_id = int(stream_id)
        key = np.array(
            [self.base_seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def gauss(self, dim: int, std: float = 1.0) -> np.ndarray:
        """i.i.d. N(0, std^2) vector; std = 0 returns zeros without consuming state."""
        if dim < 0:
            raise ParameterError(f"gauss: dim must be >= 0, got {dim}")
        if std < 0 or not np.isfinite(std):
            raise ParameterError(f"gauss: std must be finite and >= 0, got {std}")
        if std == 0.0:
            return np.zeros(dim)
        return std * self._gen.standard_normal(dim)

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self) -> float:
        return float(self._gen.random())

    def bernoulli(self, p: float) -> bool:
        if not (0.0 <= p <= 1.0):
            raise ParameterError(f"bernoulli: p must lie in [0, 1], got {p}")
        return self._gen.random() < p

    def integers(self, low: int, high: int | None = None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

