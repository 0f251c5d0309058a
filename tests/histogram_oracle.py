"""Reference block histogram for `inkchannel.imagery._block_bins`.

This is the body `_block_bins` had before it stopped padding images whose
tiles divide them and built the tile areas from the tile size: it always
pads the bits to whole tiles and takes each area from the tile starts.  The
differential test holds the two to the same bytes.
"""

import numpy as np


def block_bins(bits: np.ndarray, block: int, bins: int) -> np.ndarray:
    """Per-tile mean ink density binned uniformly over [0, 1], as a probability vector."""
    height, width = bits.shape
    ys, xs = np.arange(0, height, block), np.arange(0, width, block)
    by, bx = min(block, height), min(block, width)
    tiles = np.zeros((len(ys) * by, len(xs) * bx), dtype=np.uint8)
    tiles[:height, :width] = bits
    dtype = np.int32 if by * bx < 1 << 31 else np.int64
    ink = tiles.reshape(len(ys), by, len(xs), bx).sum(axis=1, dtype=dtype).sum(axis=-1, dtype=dtype)
    area = np.outer(np.diff(ys, append=height), np.diff(xs, append=width))
    idx = np.minimum((ink / area * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx.ravel(), minlength=bins).astype(np.float64)
    return counts / counts.sum()
