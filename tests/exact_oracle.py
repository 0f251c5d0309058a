"""Exact laws of a sweep cell: Q under the binary histogram, and the bins of
the block histogram.

Under ``hist = binary`` a cell's Q depends only on the halftone's ink count
n1 of n pixels and the ink count m after the channel.  Each noise bit is 1
with probability rho = ceil(256 t) / 256, since the 8-bit draw r is uniform
on 0..255 and the bit is r < 256 t.  So m has an exact law:

    bitflip:      m = n1 - Bin(n1, rho) + Bin(n0, rho)
    erase:        m = n1 + Bin(n0, rho)
    block erase:  m = n1 + Bin(z, rho)

where n0 = n - n1 and z counts the zeros in the tiles whose centre bit is
ink.  E[Q] and Var[Q] are then finite sums over m = 0..n.

The same law holds tile by tile for the block histogram: a histogram tile
of area a with k ink bits ends with k - Bin(k, rho) + Bin(a - k, rho),
k + Bin(a - k, rho) or k + Bin(z, rho) ink, z now its own zeros under an
inked erase-tile centre.  Tiles draw disjoint noise, so a bin's fraction is
a mean of independent indicators.  numpy and math only; nothing here calls
the package's channel, histogram or metric code.
"""

import math
from functools import lru_cache

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


def erase_mask(bits: np.ndarray, block: int) -> np.ndarray:
    """True over every block x block tile whose centre pixel lies in the image and is ink."""
    c = (block - 1) // 2
    height, width = bits.shape
    mask = np.zeros(bits.shape, dtype=bool)
    for y0 in range(0, height, block):
        for x0 in range(0, width, block):
            if y0 + c < height and x0 + c < width and bits[y0 + c, x0 + c]:
                mask[y0 : y0 + block, x0 : x0 + block] = True
    return mask


def erasable_zeros(bits: np.ndarray, block: int) -> int:
    """Zeros in the block x block tiles whose centre pixel lies in the image and is ink."""
    return int(np.count_nonzero(erase_mask(bits, block) & (bits == 0)))


def count_pmf(n: int, n1: int, erasable: int, kind: str, rho: float) -> np.ndarray:
    """P(m = k) for k = 0..n, m the ink count after the channel of n bits holding n1 ink, ``erasable``
    of their zeros open to an erase (ignored under bitflip)."""
    if kind == "bitflip":
        kept = binomial_pmf(n1, rho)[::-1]  # n1 - Bin(n1, rho) on 0..n1
        return np.convolve(kept, binomial_pmf(n - n1, rho))
    pmf = np.zeros(n + 1)
    pmf[n1 : n1 + erasable + 1] = binomial_pmf(erasable, rho)
    return pmf


def ink_count_pmf(bits: np.ndarray, kind: str, t: float, block: int | None = None) -> np.ndarray:
    """P(m = k) for k = 0..n, m the ink count after the channel."""
    n, n1 = bits.size, int(np.count_nonzero(bits))
    erasable = erasable_zeros(bits, block) if kind == "block-erase" else n - n1
    return count_pmf(n, n1, erasable, kind, noise_probability(t))


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


@lru_cache(maxsize=None)
def tile_bin_pmf(area: int, ink: int, erasable: int, kind: str, rho: float, bins: int) -> tuple:
    """P(the tile falls in bin j) for j = 0..bins-1, the tile's ink count after the channel binned by
    the histogram's rule min(floor(ink / area * bins), bins - 1)."""
    p = [0.0] * bins
    for c, pc in enumerate(count_pmf(area, ink, erasable, kind, rho).tolist()):
        p[min(int(c / area * bins), bins - 1)] += pc
    return tuple(p)


def block_bin_moments(bits: np.ndarray, kind: str, t: float, block: int, bins: int,
                      erase_block: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact (E, Var) of each bin's fraction of the block x block, ``bins``-bin histogram after the
    channel.  Edge tiles keep their true size, and a block past one side is one tile of that side."""
    rho = noise_probability(t)
    erasable = (bits == 0) & erase_mask(bits, erase_block) if kind == "block-erase" else bits == 0
    height, width = bits.shape
    mean, var, tiles = np.zeros(bins), np.zeros(bins), 0
    for y0 in range(0, height, block):
        for x0 in range(0, width, block):
            tile = np.s_[y0 : y0 + block, x0 : x0 + block]
            z = int(np.count_nonzero(erasable[tile]))
            p = np.array(tile_bin_pmf(bits[tile].size, int(np.count_nonzero(bits[tile])), z, kind, rho, bins))
            mean += p
            var += p * (1 - p)
            tiles += 1
    return mean / tiles, var / tiles**2
