"""Relay-type distributions, uniform quantization, and type sampling.

A relay's *type* is its relay-destination channel gain on one subcarrier.
The source only ever consumes per-subcarrier marginal distributions; this
module represents those marginals, quantizes their common support onto an
equidistant grid, and draws type vectors for simulation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DistributionKind",
    "TypeDistribution",
    "TypeGrid",
    "quantize_types",
    "type_probabilities",
    "sample_type_vector",
]

_PROB_TOL = 1e-12
_MAX_ARRAY_BYTES = 2**28  # cap on the arrays sized by a caller's counts, prices or offers file


def _check_integer(name: str, value) -> None:
    """The one integer check for counts: Python and NumPy integers pass; bools and floats fail."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class _derived:
    """The one rule for an object's lazily derived state: the first read
    stores `build(obj)` in the object's own dict under this attribute's
    name, where later reads find it without this descriptor.  It takes no
    lock, and a frozen dataclass still refuses assignment."""

    def __init__(self, build) -> None:
        self.build = build

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner: type | None = None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.build(obj)
        return value


def _check_array_bytes(count: int, what: str) -> None:
    """Refuse, before allocating, a float array of `count` values over the byte cap."""
    if count > _MAX_ARRAY_BYTES // 8:  # not 8 * count, which wraps for a large NumPy count
        raise ValueError(f"{what} exceeds 2**28 bytes")


class DistributionKind(str, Enum):
    UNIFORM = "uniform"
    TRUNCATED_EXPONENTIAL = "truncated_exponential"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class TypeDistribution:
    """A bounded marginal distribution of relay types on [low, high].

    Unbounded supports are refused: callers must truncate at a confidence
    level of their choosing before constructing the distribution.  Where a
    truncated exponential's normaliser 1 - exp(-rate * span) overflows, at a
    negative rate, `cdf` and `ppf` read X as low + high - Y, Y of the
    opposite rate, whose normaliser is 1.
    """

    kind: DistributionKind
    low: float
    high: float
    rate: float | None = None
    cdf_points: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", DistributionKind(self.kind))
        if not np.isfinite(self.low) or not np.isfinite(self.high):
            raise ValueError("support must be bounded and finite")
        if self.low < 0.0:
            raise ValueError("support_low must be non-negative")
        if not self.high > self.low:
            raise ValueError(
                f"degenerate support [{self.low}, {self.high}]: need low < high"
            )
        if self.kind is DistributionKind.TRUNCATED_EXPONENTIAL:
            if self.rate is None or self.rate == 0.0 or not np.isfinite(self.rate):
                raise ValueError("truncated exponential needs a nonzero finite rate")
        if self.kind is DistributionKind.EMPIRICAL:
            self._check_cdf_points()

    def _check_cdf_points(self) -> None:
        pts = self.cdf_points
        if pts is None or len(pts) < 2:
            raise ValueError("empirical distribution needs at least two cdf points")
        gains = np.array([g for g, _ in pts], dtype=float)
        probs = np.array([p for _, p in pts], dtype=float)
        # Each check is written so that a NaN fails it.
        if gains[0] != self.low or gains[-1] != self.high:
            raise ValueError("cdf points must span exactly [low, high]")
        if not np.all(np.diff(gains) > 0.0):
            raise ValueError("cdf point gains must be strictly increasing")
        if not (abs(probs[0]) <= _PROB_TOL and abs(probs[-1] - 1.0) <= _PROB_TOL):
            raise ValueError("cdf must run from 0 at low to 1 at high")
        if not np.all(np.diff(probs) >= -_PROB_TOL):
            raise ValueError("cdf must be non-decreasing")

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, low: float, high: float) -> "TypeDistribution":
        return cls(DistributionKind.UNIFORM, float(low), float(high))

    @classmethod
    def truncated_exponential(
        cls, low: float, high: float, rate: float
    ) -> "TypeDistribution":
        return cls(
            DistributionKind.TRUNCATED_EXPONENTIAL, float(low), float(high), float(rate)
        )

    @classmethod
    def empirical(
        cls, cdf_points: Sequence[tuple[float, float]]
    ) -> "TypeDistribution":
        pts = tuple((float(g), float(p)) for g, p in cdf_points)
        if len(pts) < 2:
            raise ValueError("empirical distribution needs at least two cdf points")
        return cls(
            DistributionKind.EMPIRICAL, pts[0][0], pts[-1][0], cdf_points=pts
        )

    # -- distribution functions -------------------------------------------

    def cdf(self, theta):
        """Cumulative distribution, clamped to [0, 1] outside the support."""
        x = np.asarray(theta, dtype=float)
        span = self.high - self.low
        if self.kind is DistributionKind.UNIFORM:
            out = (x - self.low) / span
        elif self.kind is DistributionKind.TRUNCATED_EXPONENTIAL:
            a = self.rate
            with np.errstate(over="ignore"):  # a product may reach -inf: expm1 is -1 there
                scale = -np.expm1(-a * span)
                if scale > -np.inf:
                    out = -np.expm1(-a * np.clip(x - self.low, 0.0, span)) / scale
                else:  # mirrored: P(high - X >= high - x), high - X of rate -a
                    above = np.exp(a * np.clip(self.high - x, 0.0, span))
                    out = (above - np.exp(a * span)) / -np.expm1(a * span)
        else:
            gains = np.array([g for g, _ in self.cdf_points])
            probs = np.array([p for _, p in self.cdf_points])
            out = np.interp(x, gains, probs)
        out = np.clip(out, 0.0, 1.0)
        return float(out) if np.isscalar(theta) else out

    def ppf(self, u):
        """Inverse CDF on [0, 1]."""
        q = np.asarray(u, dtype=float)
        if np.any(q < 0.0) or np.any(q > 1.0):
            raise ValueError("quantile argument must lie in [0, 1]")
        out = self._quantile(q)
        return float(out) if np.isscalar(u) else out

    def _quantile(self, q: np.ndarray) -> np.ndarray:
        """Inverse CDF of a float array already in [0, 1], clipped to the support."""
        if self.kind is DistributionKind.UNIFORM:
            out = self.low + q * (self.high - self.low)
        elif self.kind is DistributionKind.TRUNCATED_EXPONENTIAL:
            a, span = self.rate, self.high - self.low
            # The far end of the support is log(0) = -inf here, clipped below.
            with np.errstate(over="ignore", divide="ignore"):
                scale = -np.expm1(-a * span)
                if scale > -np.inf:
                    out = self.low - np.log1p(-q * scale) / a
                else:  # mirrored: high - t, P(high - X >= t) = q, high - X of rate -a
                    out = self.high - np.log(q * -np.expm1(a * span) + np.exp(a * span)) / a
        else:
            gains = np.array([g for g, _ in self.cdf_points])
            probs = np.array([p for _, p in self.cdf_points])
            out = np.interp(q, probs, gains)
        return np.clip(out, self.low, self.high)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """`size` draws by inverse transform; `rng.random` lies in [0, 1), so
        the draws skip `ppf`'s range check."""
        return self._quantile(rng.random(size))


def quantize_types(dist: TypeDistribution, k: int) -> np.ndarray:
    """Equidistant type grid delta_i = low + (i-1)/k * (high - low), i = 1..k."""
    _check_integer("quantization factor", k)
    if k < 1:
        raise ValueError(f"quantization factor must be >= 1, got {k}")
    _check_array_bytes(k, f"type grid of {k} types")
    step = (dist.high - dist.low) / k
    return dist.low + step * np.arange(k)


def type_probabilities(
    dist: TypeDistribution | Sequence[TypeDistribution],
    deltas: np.ndarray,
    n_subcarriers: int,
) -> np.ndarray:
    """K x N matrix of forward-difference masses pi_kn = F_n(d_{k+1}) - F_n(d_k).

    The bracket above the top type closes at the support's upper edge.
    Columns sum to 1 exactly when deltas[0] is the lower support edge, as
    `quantize_types` always produces; pass one distribution per subcarrier
    for heterogeneous marginals (all must share the same support).  One
    distribution's CDF is evaluated once and its column repeated; a list
    evaluates each subcarrier's marginal.
    """
    _check_integer("subcarrier count", n_subcarriers)
    if n_subcarriers < 1:
        raise ValueError("need at least one subcarrier")
    d = np.asarray(deltas, dtype=float)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("deltas must be a non-empty 1-D grid")
    k = d.size
    _check_array_bytes(k * int(n_subcarriers), f"type grid of {k} types x {n_subcarriers} subcarriers")
    single = isinstance(dist, TypeDistribution)
    dists = [dist] if single else list(dist)
    if not single and len(dists) != n_subcarriers:
        raise ValueError(f"got {len(dists)} marginals for {n_subcarriers} subcarriers")
    if not np.all(np.diff(d) > 0.0):  # NaN fails this check and the support check
        raise ValueError("deltas must be strictly increasing")
    low, high = dists[0].low, dists[0].high
    if any((f.low, f.high) != (low, high) for f in dists):
        raise ValueError("heterogeneous marginals must share one support")
    if not (d[0] >= low and d[-1] <= high):
        raise ValueError("deltas must lie inside the distribution support")
    edges = np.append(d, high)
    if single:
        return np.repeat(np.diff(dist.cdf(edges))[:, None], n_subcarriers, axis=1)
    return np.column_stack([np.diff(f.cdf(edges)) for f in dists])


def sample_type_vector(
    dist: TypeDistribution, n: int, rng: np.random.Generator
) -> np.ndarray:
    """One relay's private type vector: n independent draws from dist."""
    _check_integer("subcarrier count", n)
    if n < 0:
        raise ValueError("subcarrier count must be non-negative")
    _check_array_bytes(n, f"type vector of {n} draws")
    return dist.sample(n, rng)


@dataclass(frozen=True)
class TypeGrid:
    """Quantized type grid with per-subcarrier probability masses.

    deltas: strictly increasing positive gains, shape (K,).
    probs:  masses pi_kn, shape (K, N); every column sums to 1.
    """

    deltas: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        deltas = np.ascontiguousarray(self.deltas, dtype=float)
        probs = np.ascontiguousarray(self.probs, dtype=float)
        if deltas.ndim != 1 or deltas.size < 1:
            raise ValueError("deltas must be a non-empty 1-D array")
        if probs.ndim != 2 or probs.shape[0] != deltas.size:
            raise ValueError("probs must have shape (K, N)")
        if not np.all(np.isfinite(deltas)):
            raise ValueError("type grid values must be finite")
        if deltas[0] <= 0.0:
            raise ValueError("type grid values must be strictly positive")
        if np.any(np.diff(deltas) <= 0.0):
            raise ValueError("type grid must be strictly increasing")
        if not np.all((probs >= 0.0) & (probs < np.inf)):
            raise ValueError("probabilities must be finite and non-negative")
        colsums = probs.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > _PROB_TOL):
            raise ValueError("each probability column must sum to 1")
        deltas.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "probs", probs)

    @property
    def k(self) -> int:
        return self.deltas.size

    @property
    def n(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def from_distribution(
        cls,
        dist: TypeDistribution | Sequence[TypeDistribution],
        k: int,
        n_subcarriers: int,
    ) -> "TypeGrid":
        _check_array_bytes(k * n_subcarriers, f"type grid of {k} types x {n_subcarriers} subcarriers")
        base = dist if isinstance(dist, TypeDistribution) else dist[0]
        deltas = quantize_types(base, k)
        probs = type_probabilities(dist, deltas, n_subcarriers)
        return cls(deltas, probs)
