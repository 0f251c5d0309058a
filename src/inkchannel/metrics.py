"""Distortion and information measures.

All entropies and divergences are in bits (logarithm base 2).  Relative
entropy may legitimately be +inf when the second histogram has an empty bin
where the first does not; the sentinel propagates rather than erroring, and
serializes as "inf".
"""

from __future__ import annotations

import math

import numpy as np

from .channel import NoisePower, derive_seed, gen_noise
from .imagery import HISTOGRAM_MODES, BinaryImage, GrayImage, Histogram, HistogramSpec, _check_int, _histogram_bins

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


def build_histogram(img: BinaryImage, spec: HistogramSpec) -> Histogram:
    return Histogram(_histogram_bins(img.bits, spec))


def euclidean_distance(a, b) -> float:
    """Root mean square difference sqrt((1/n) * sum (a - b)^2).

    For binary images this is sqrt(fraction of differing pixels).  Both
    arguments must be the same kind and the same size.
    """
    if type(a) is not type(b) or type(a) not in (BinaryImage, GrayImage):
        raise ValueError(f"images must be the same kind, got {type(a).__name__} and {type(b).__name__}")
    pa, pb = (x.bits if isinstance(x, BinaryImage) else x.pixels for x in (a, b))
    if pa.shape != pb.shape:
        raise ValueError(f"dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}")
    diff = pa.astype(np.float64) - pb.astype(np.float64)
    return math.sqrt(float(np.mean(diff * diff)))


def relative_entropy(p: Histogram, q: Histogram, smoothing: float | None = None) -> float:
    """Kullback-Leibler divergence sum_i p[i] * (log2 p[i] - log2 q[i]).

    Conventions: 0 * log(0/x) = 0; p[i] > 0 against q[i] = 0 yields +inf
    unless additive smoothing is given, in which case both histograms get
    ``smoothing`` added to every bin and are renormalized first.
    """
    if p.bin_count != q.bin_count:
        raise ValueError(f"bin-count mismatch: {p.bin_count} vs {q.bin_count}")
    HistogramSpec(smoothing=smoothing)
    return _kl(p.bins, q.bins, smoothing)


def _kl(p: np.ndarray, q: np.ndarray, smoothing: float | None) -> float:
    """relative_entropy on plain probability vectors of one length."""
    return _kl_from(_kl_reference(p, smoothing), q)


def _kl_reference(p: np.ndarray, smoothing: float | None) -> tuple:
    """The p-only part of _kl, built once per sweep task: p on its support, its log2, the support, smoothing."""
    if smoothing is not None:
        p = (p + smoothing) / (1.0 + smoothing * p.size)
    support = p > 0
    p = p[support]
    return p, np.log2(p), support, smoothing


def _kl_from(ref: tuple, q: np.ndarray) -> float:
    """_kl of the reference's p against q."""
    p, log2_p, support, smoothing = ref
    if smoothing is not None:
        q = (q + smoothing) / (1.0 + smoothing * q.size)
    q = q[support]
    if (q == 0).any():
        return math.inf
    terms = p * (log2_p - np.log2(q))
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
        power = t if isinstance(t, NoisePower) else NoisePower(t)
        seeds = (derive_seed(seed, ti * reps + rep) for rep in range(reps))
        values = np.array([binary_entropy(gen_noise(width, height, power, s)) for s in seeds])
        std = float(values.std(ddof=1)) if reps > 1 else 0.0
        rows.append((power.t, float(values.mean()), std))
    return rows
