"""Exact mean and variance of a sweep cell's Q under the binary histogram.

Under ``hist = binary`` a cell's Q depends only on the halftone's ink count
n1 of n pixels and the ink count m after the channel.  Each noise bit is 1
with probability rho = ceil(256 t) / 256, since the 8-bit draw r is uniform
on 0..255 and the bit is r < 256 t.  So m has an exact law:

    bitflip:      m = n1 - Bin(n1, rho) + Bin(n0, rho)
    erase:        m = n1 + Bin(n0, rho)
    block erase:  m = n1 + Bin(z, rho)

where n0 = n - n1 and z counts the zeros in the tiles whose centre bit is
ink.  E[Q] and Var[Q] are then finite sums over m = 0..n.  numpy and math
only; nothing here calls the package's channel or metric code.
"""

import math

import numpy as np


def noise_probability(t: float) -> float:
    """P(noise bit = 1) for power t: the share of r in 0..255 with r < 256 t."""
    return min(256, math.ceil(256 * t)) / 256


def binomial_pmf(trials: int, rho: float) -> np.ndarray:
    """P(Bin(trials, rho) = k) for k = 0..trials."""
    if rho in (0.0, 1.0):
        pmf = np.zeros(trials + 1)
        pmf[0 if rho == 0.0 else trials] = 1.0
        return pmf
    log_rho, log_rest, log_n = math.log(rho), math.log1p(-rho), math.lgamma(trials + 1)
    return np.exp([log_n - math.lgamma(k + 1) - math.lgamma(trials - k + 1) + k * log_rho + (trials - k) * log_rest
                   for k in range(trials + 1)])


def erasable_zeros(bits: np.ndarray, block: int) -> int:
    """Zeros in the block x block tiles whose centre pixel lies in the image and is ink."""
    c = (block - 1) // 2
    height, width = bits.shape
    z = 0
    for y0 in range(0, height, block):
        for x0 in range(0, width, block):
            if y0 + c < height and x0 + c < width and bits[y0 + c, x0 + c]:
                z += int(np.sum(bits[y0 : y0 + block, x0 : x0 + block] == 0))
    return z


def ink_count_pmf(bits: np.ndarray, kind: str, t: float, block: int | None = None) -> np.ndarray:
    """P(m = k) for k = 0..n, m the ink count after the channel."""
    n, n1 = bits.size, int(np.count_nonzero(bits))
    rho = noise_probability(t)
    if kind == "bitflip":
        kept = binomial_pmf(n1, rho)[::-1]  # n1 - Bin(n1, rho) on 0..n1
        return np.convolve(kept, binomial_pmf(n - n1, rho))
    added = binomial_pmf(n - n1 if kind == "erase" else erasable_zeros(bits, block), rho)
    pmf = np.zeros(n + 1)
    pmf[n1 : n1 + added.size] = added
    return pmf


def binary_q(n1: int, m: np.ndarray, n: int, smoothing: float | None) -> np.ndarray:
    """Q = KL([1 - n1/n, n1/n] || [1 - m/n, m/n]) in bits, for each m; 0 log 0 = 0,
    and a zero q bin under a positive p bin gives inf."""
    p1 = n1 / n
    p = np.array([1.0 - p1, p1])
    q1 = np.asarray(m, dtype=np.float64) / n
    q = np.stack([1.0 - q1, q1], axis=-1)
    if smoothing is not None:
        p, q = (p + smoothing) / (1.0 + 2 * smoothing), (q + smoothing) / (1.0 + 2 * smoothing)
    with np.errstate(divide="ignore"):
        terms = np.where(p > 0, p * (np.log2(np.where(p > 0, p, 1.0)) - np.log2(q)), 0.0)
    return terms.sum(axis=-1)


def binary_q_moments(bits: np.ndarray, kind: str, t: float, smoothing: float | None,
                     block: int | None = None) -> tuple[float, float]:
    """Exact (E[Q], Var[Q]) of one cell under the binary histogram."""
    pmf = ink_count_pmf(bits, kind, t, block)
    live = pmf > 0
    q = binary_q(int(np.count_nonzero(bits)), np.flatnonzero(live), bits.size, smoothing)
    weights = pmf[live] / pmf[live].sum()
    mean = float(np.dot(weights, q))
    return mean, float(np.dot(weights, (q - mean) ** 2))
