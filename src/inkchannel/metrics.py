"""Distortion and information measures.

All entropies and divergences are in bits (logarithm base 2).  Relative
entropy may legitimately be +inf when the second histogram has an empty bin
where the first does not; the sentinel propagates rather than erroring, and
serializes as "inf".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NoisePower, _check_int, derive_seed, gen_noise
from .imagery import BinaryImage, GrayImage, Histogram, binary_histogram, block_lightness_histogram

__all__ = [
    "HISTOGRAM_MODES",
    "HistogramSpec",
    "build_histogram",
    "euclidean_distance",
    "relative_entropy",
    "image_relative_entropy",
    "binary_entropy",
    "noise_entropy_curve",
]

HISTOGRAM_MODES = ("binary", "block")


@dataclass(frozen=True)
class HistogramSpec:
    """How image histograms are built for divergence measurements.

    ``smoothing`` is None for no smoothing or a finite positive additive constant
    applied to every bin before renormalization.
    """

    mode: str = "binary"
    block: int | None = None
    bins: int | None = None
    smoothing: float | None = None

    def __post_init__(self):
        if self.mode not in HISTOGRAM_MODES:
            raise ValueError(f"unknown histogram mode {self.mode!r} (expected one of {HISTOGRAM_MODES})")
        if self.mode == "block":
            if self.block is None or self.bins is None:
                raise ValueError("block mode requires block size and bin count")
            if _check_int(self.block, "block size") < 1:
                raise ValueError(f"block size must be >= 1, got {self.block}")
            if _check_int(self.bins, "bin count") < 2:
                raise ValueError(f"bin count must be >= 2, got {self.bins}")
        if self.smoothing is not None and not 0 < self.smoothing < math.inf:
            raise ValueError(f"additive constant must be > 0 and finite, got {self.smoothing}")


def build_histogram(img: BinaryImage, spec: HistogramSpec) -> Histogram:
    if spec.mode == "binary":
        return binary_histogram(img)
    return block_lightness_histogram(img, spec.block, spec.bins)


def euclidean_distance(a, b) -> float:
    """Root mean square difference sqrt((1/n) * sum (a - b)^2).

    For binary images this is sqrt(fraction of differing pixels).  Both
    arguments must be the same kind and the same size.
    """
    for kind in (BinaryImage, GrayImage):
        if isinstance(a, kind) and isinstance(b, kind):
            break
    else:
        raise ValueError(f"images must be the same kind, got {type(a).__name__} and {type(b).__name__}")
    pa = a.bits if isinstance(a, BinaryImage) else a.pixels
    pb = b.bits if isinstance(b, BinaryImage) else b.pixels
    if pa.shape != pb.shape:
        raise ValueError(f"dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}")
    diff = pa.astype(np.float64) - pb.astype(np.float64)
    return math.sqrt(float(np.mean(diff * diff)))


def _smooth(bins: np.ndarray, lam: float) -> np.ndarray:
    return (bins + lam) / (1.0 + lam * bins.size)


def relative_entropy(p: Histogram, q: Histogram, smoothing: float | None = None) -> float:
    """Kullback-Leibler divergence sum_i p[i] * (log2 p[i] - log2 q[i]).

    Conventions: 0 * log(0/x) = 0; p[i] > 0 against q[i] = 0 yields +inf
    unless additive smoothing is given, in which case both histograms get
    ``smoothing`` added to every bin and are renormalized first.
    """
    if p.bin_count != q.bin_count:
        raise ValueError(f"bin-count mismatch: {p.bin_count} vs {q.bin_count}")
    if smoothing is not None:
        HistogramSpec(smoothing=smoothing)
        pa, qb = _smooth(p.bins, smoothing), _smooth(q.bins, smoothing)
    else:
        pa, qb = p.bins, q.bins
    support = pa > 0
    if (qb[support] == 0).any():
        return math.inf
    terms = pa[support] * (np.log2(pa[support]) - np.log2(qb[support]))
    total = float(terms.sum())
    # Gibbs guarantees >= 0; clip float-rounding dust just below zero
    return 0.0 if -1e-15 < total < 0.0 else total


def image_relative_entropy(a: BinaryImage, b: BinaryImage, spec: HistogramSpec) -> float:
    """Relative entropy between the images' histograms, built per ``spec``.

    Asymmetric in general: Q(a||b) need not equal Q(b||a).
    """
    return relative_entropy(build_histogram(a, spec), build_histogram(b, spec), spec.smoothing)


def binary_entropy(img: BinaryImage) -> float:
    """Empirical entropy of the image's ones/zeros fractions, in bits."""
    f1 = img.ink_fraction()
    if f1 in (0.0, 1.0):
        return 0.0
    f0 = 1.0 - f1
    return -f0 * math.log2(f0) - f1 * math.log2(f1)


def noise_entropy_curve(
    width: int,
    height: int,
    t_grid,
    reps: int,
    seed: int,
) -> list[tuple[float, float, float]]:
    """Mean and sample std of noise-field entropy per power value.

    For each t, ``reps`` independent fields are generated from seeds derived
    off (seed, cell index), so the result is reproducible and independent of
    any execution order.
    """
    if _check_int(reps, "reps") < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    rows = []
    for ti, t in enumerate(t_grid):
        power = t if isinstance(t, NoisePower) else NoisePower(float(t))
        values = np.empty(reps, dtype=np.float64)
        for rep in range(reps):
            field = gen_noise(width, height, power, derive_seed(seed, ti * reps + rep))
            values[rep] = binary_entropy(field)
        std = float(values.std(ddof=1)) if reps > 1 else 0.0
        rows.append((power.t, float(values.mean()), std))
    return rows
