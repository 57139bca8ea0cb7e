"""Estimators for magnetization, the spin structure factor, distance-resolved
correlations, and the single-site mean-field closed form.

Within the product-state manifold the equal-time pair expectation factorizes,
<sigma_j^x sigma_l^x> = s_j^x * s_l^x for j != l, so every estimator here is a
function of the per-site Bloch vectors of a sample. Classical inter-site
correlations enter through averaging over samples (time average along a
trajectory, or an ensemble of trajectories).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError
from .lattice import DisplacementClass, LatticeGeometry, offset_class_index


@dataclass
class Sample:
    """Per-site Bloch vectors recorded at one sample time.

    ``sxx_inst`` is filled by the exact engines (which know the true pair
    expectations); when None the factorized estimate from ``bloch`` is used.
    """

    time: float
    bloch: np.ndarray  # (n_sites, 3)
    burn_in: bool = False
    jumps_in_interval: int = 0
    sxx_inst: float | None = None


def magnetization(bloch: np.ndarray) -> np.ndarray:
    """Site-averaged Bloch vector (Mx, My, Mz) of one sample."""
    b = np.asarray(bloch)
    return b.mean(axis=-2)


def instantaneous_structure_factor(sx: np.ndarray, k=(0.0, 0.0), coords=None) -> float:
    """Single-sample structure factor over distinct site pairs.

    Computes [ |sum_j e^{-i k.r_j} s_j|^2 - sum_j s_j^2 ] / (N (N-1)), which
    equals the pair sum sum_{j != l} e^{-i k.(r_j - r_l)} s_j s_l / (N(N-1)).
    For k != 0 the site coordinate array (N, 2) is required.
    """
    sx = np.asarray(sx, dtype=float)
    n = sx.shape[-1]
    if n < 2:
        raise InsufficientDataError("structure factor needs at least 2 sites")
    kx, ky = float(k[0]), float(k[1])
    if kx == 0.0 and ky == 0.0:
        total = sx.sum(axis=-1)
        return float((total * total - (sx * sx).sum(axis=-1)) / (n * (n - 1)))
    if coords is None:
        raise ValueError("site coordinates required for k != 0")
    phase = np.exp(-1j * (coords[:, 0] * kx + coords[:, 1] * ky))
    amp = (phase * sx).sum(axis=-1)
    return float(((amp * np.conj(amp)).real - (sx * sx).sum(axis=-1)) / (n * (n - 1)))


N_BATCHES = 20


def batch_means(values: np.ndarray) -> tuple[float, float]:
    """Mean and batch-means standard error of an autocorrelated series.

    The series is split into N_BATCHES contiguous batches (fewer only if
    the series is shorter); the standard error is the standard deviation of
    the batch means over sqrt(n_batches). At the default sampling cadence a
    production-length run gives batch lengths well above the autocorrelation
    time (>= 50 samples per batch beyond ~1000 samples).
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    if m < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {m}")
    n_batches = min(N_BATCHES, m)
    batch_len = m // n_batches
    used = values[: n_batches * batch_len].reshape(n_batches, batch_len)
    means = used.mean(axis=1)
    se = float(means.std(ddof=1) / np.sqrt(n_batches))
    return float(values.mean()), se


@dataclass(frozen=True)
class StructureFactorEstimate:
    value: float
    standard_error: float
    n_samples: int = 0


def structure_factor(samples) -> StructureFactorEstimate:
    """Steady-state k = 0 structure factor averaged over post-burn-in samples.

    Uses each sample's exact instantaneous value when the engine provided one,
    otherwise the factorized per-sample estimate. Error bar by batch means.
    """
    inst = [
        instantaneous_structure_factor(s.bloch[:, 0]) if s.sxx_inst is None else s.sxx_inst
        for s in samples
        if not s.burn_in
    ]
    if len(inst) < 2:
        raise InsufficientDataError(f"only {len(inst)} post-burn-in samples")
    value, se = batch_means(np.asarray(inst))
    return StructureFactorEstimate(value, se, len(inst))


@dataclass
class CorrelationProfile:
    """Distance-class means of <sigma_i^x sigma_j^x> with batch-means errors."""

    classes: list[DisplacementClass]
    mean: np.ndarray  # (n_classes,)
    stderr: np.ndarray  # (n_classes,)
    n_samples: int

    def axis_indices(self) -> list[int]:
        """Class indices lying along a lattice direction (the inset subset)."""
        return [i for i, c in enumerate(self.classes) if c.is_axis]


def correlation_series(samples, geometry: LatticeGeometry) -> tuple[list[DisplacementClass], np.ndarray]:
    """Per-sample per-class mean pair products, shape (n_samples, n_classes).

    The pair sum over one offset d is the circular autocorrelation
    sum_r s(r) s(r + d), taken for all offsets at once by FFT in O(n log n).
    """
    classes, offset_id = offset_class_index(geometry)
    shape = (geometry.height, geometry.width)
    sx = np.array([s.bloch[:, 0] for s in samples if not s.burn_in]).reshape(-1, *shape)
    spectrum = np.fft.rfft2(sx)
    autocorr = np.fft.irfft2(spectrum * spectrum.conj(), s=shape)
    # bin (sample, class + 1): column 0 collects the zero offset and is dropped
    m, k = len(sx), len(classes)
    bins = offset_id.ravel() + 1 + (k + 1) * np.arange(m)[:, None]
    sums = np.bincount(bins.ravel(), autocorr.ravel(), minlength=m * (k + 1)).reshape(m, k + 1)
    return classes, sums[:, 1:] / np.array([c.pair_count for c in classes], dtype=float)


def correlation_profile(samples, geometry: LatticeGeometry) -> CorrelationProfile:
    classes, rows = correlation_series(samples, geometry)
    if rows.shape[0] < 2:
        raise InsufficientDataError(f"only {rows.shape[0]} post-burn-in samples")
    stats = [batch_means(rows[:, c]) for c in range(len(classes))]
    return CorrelationProfile(
        classes,
        np.array([m for m, _ in stats]),
        np.array([e for _, e in stats]),
        rows.shape[0],
    )


class Accumulator:
    """Streaming mean/second-moment statistics with an order-insensitive merge.

    Scalars use the Welford update; ``combine`` uses the pooled (parallel)
    update, so splitting a stream at any point and merging the parts
    reproduces the unsplit result up to floating rounding, and the merged
    mean is exactly the pooled mean. Per-distance-class correlation sums
    merge by addition.
    """

    def __init__(self, n_classes: int = 0):
        self._scalars: dict[str, list[float]] = {}
        self.class_sums = np.zeros(n_classes)
        self.class_count = 0

    def add(self, name: str, value: float) -> None:
        n, mean, m2 = self._scalars.setdefault(name, [0, 0.0, 0.0])
        n += 1
        delta = value - mean
        mean += delta / n
        m2 += delta * (value - mean)
        self._scalars[name][:] = [n, mean, m2]

    def add_class_row(self, values: np.ndarray) -> None:
        if self.class_sums.size == 0:
            self.class_sums = np.zeros(len(values))
        self.class_sums += values
        self.class_count += 1

    def count(self, name: str) -> int:
        return self._scalars.get(name, [0, 0.0, 0.0])[0]

    def mean(self, name: str) -> float:
        n, mean, _ = self._scalars[name]
        if n == 0:
            raise InsufficientDataError(f"no samples for {name!r}")
        return mean

    def variance(self, name: str) -> float:
        n, _, m2 = self._scalars[name]
        if n < 2:
            raise InsufficientDataError(f"need 2 samples for a variance of {name!r}")
        return m2 / (n - 1)

    def class_mean(self) -> np.ndarray:
        if self.class_count == 0:
            raise InsufficientDataError("no correlation rows accumulated")
        return self.class_sums / self.class_count

    def combine(self, other: "Accumulator") -> "Accumulator":
        out = Accumulator()
        names = set(self._scalars) | set(other._scalars)
        for name in names:
            na, ma, m2a = self._scalars.get(name, [0, 0.0, 0.0])
            nb, mb, m2b = other._scalars.get(name, [0, 0.0, 0.0])
            n = na + nb
            if n == 0:
                continue
            mean = (na * ma + nb * mb) / n
            delta = mb - ma
            m2 = m2a + m2b + delta * delta * na * nb / n
            out._scalars[name] = [n, mean, m2]
        if self.class_sums.size or other.class_sums.size:
            a = self.class_sums if self.class_sums.size else np.zeros_like(other.class_sums)
            b = other.class_sums if other.class_sums.size else np.zeros_like(self.class_sums)
            out.class_sums = a + b
            out.class_count = self.class_count + other.class_count
        return out


def mf_structure_factor(p) -> float:
    """Single-site mean-field k=0 structure factor (squared magnetization).

    Evaluates (gamma/8) [ (gamma/16) q - 1 ] q (Jy - Jz)/(Jx - Jy) with
    q = sqrt(1 / ((Jz - Jx)(Jy - Jz))). Outside the ferromagnetic branch the
    raw expression is complex or negative; those cases clamp to 0.
    """
    denom = (p.jz - p.jx) * (p.jy - p.jz)
    if denom <= 0.0 or p.jx == p.jy:
        return 0.0
    q = np.sqrt(1.0 / denom)
    value = (p.gamma / 8.0) * ((p.gamma / 16.0) * q - 1.0) * q * (p.jy - p.jz) / (p.jx - p.jy)
    return float(max(value, 0.0))


def mf_transition_point(jx: float, jz: float, gamma: float = 1.0) -> float | None:
    """Smallest Jy > Jz with a nonzero mean-field structure factor.

    Closed form Jy = Jz + gamma^2 / (256 (Jz - Jx)); None when Jz <= Jx
    (no transition on this branch).
    """
    if jz <= jx:
        return None
    return jz + gamma**2 / (256.0 * (jz - jx))
