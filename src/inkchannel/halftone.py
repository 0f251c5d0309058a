"""Halftoning algorithms behind a uniform name registry.

Every algorithm maps a GrayImage to a same-sized BinaryImage where local ink
density tracks local darkness (darkness = (255 - lightness)/255, so a black
source region halftones to all ones).  Quantizer ties at exactly 0.5 darkness
round to ink everywhere, for bit-exact reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _check_int, _check_seed
from .imagery import BinaryImage, GrayImage

__all__ = [
    "ALGORITHMS",
    "HalftoneSpec",
    "halftone",
    "halftone_threshold",
    "halftone_random",
    "halftone_floyd_steinberg",
    "halftone_bayer",
    "halftone_clustered_dot",
    "halftone_dot_diffusion",
    "halftone_block_d",
    "bayer_matrix",
    "clustered_dot_matrix",
    "dot_diffusion_classes",
    "screen_catalog",
]

_BAYER_BASE = np.array([[0, 2], [3, 1]], dtype=np.int64)

# Clustered-dot screens: cells ranked by distance from the tile center, ties
# broken by angle, so dots grow outward from the center as darkness rises.
_CDOT_4 = np.array(
    [
        [12, 5, 6, 13],
        [4, 0, 1, 7],
        [11, 3, 2, 8],
        [15, 10, 9, 14],
    ],
    dtype=np.int64,
)

_CDOT_8 = np.array(
    [
        [60, 53, 45, 34, 35, 46, 54, 61],
        [52, 33, 25, 17, 18, 26, 36, 55],
        [44, 24, 12, 5, 6, 13, 27, 47],
        [32, 16, 4, 0, 1, 7, 19, 37],
        [43, 23, 11, 3, 2, 8, 20, 38],
        [51, 31, 15, 10, 9, 14, 28, 48],
        [59, 42, 30, 22, 21, 29, 39, 56],
        [63, 58, 50, 41, 40, 49, 57, 62],
    ],
    dtype=np.int64,
)

# Knuth's 8x8 class matrix for dot diffusion (0-indexed processing order).
_CLASS_8 = np.array(
    [
        [34, 48, 40, 32, 29, 15, 23, 31],
        [42, 58, 56, 53, 21, 5, 7, 10],
        [50, 62, 61, 45, 13, 1, 2, 18],
        [38, 46, 54, 37, 25, 17, 9, 26],
        [28, 14, 22, 30, 35, 49, 41, 33],
        [20, 4, 6, 11, 43, 59, 57, 52],
        [12, 0, 3, 19, 51, 63, 60, 44],
        [24, 16, 8, 27, 39, 47, 55, 36],
    ],
    dtype=np.int64,
)

# (dy, dx, weight): orthogonal neighbors weigh 2, diagonal 1
_DD_NEIGHBORS = (
    (-1, -1, 1), (-1, 0, 2), (-1, 1, 1),
    (0, -1, 2), (0, 1, 2),
    (1, -1, 1), (1, 0, 2), (1, 1, 1),
)


def bayer_matrix(order: int) -> np.ndarray:
    """Classical recursive Bayer index matrix; base case [[0, 2], [3, 1]]."""
    HalftoneSpec("bayer", matrix_order=order)
    m = _BAYER_BASE
    while m.shape[0] < order:
        m = np.block([[4 * m, 4 * m + 2], [4 * m + 3, 4 * m + 1]])
    return m.copy()


def clustered_dot_matrix(order: int) -> np.ndarray:
    HalftoneSpec("cdot", matrix_order=order)
    return {4: _CDOT_4, 8: _CDOT_8}[order].copy()


def dot_diffusion_classes() -> np.ndarray:
    return _CLASS_8.copy()


def screen_catalog() -> dict[str, np.ndarray]:
    """All compiled-in screen/class matrices, for audit."""
    return {
        "bayer-2": bayer_matrix(2),
        "bayer-4": bayer_matrix(4),
        "bayer-8": bayer_matrix(8),
        "cdot-4": clustered_dot_matrix(4),
        "cdot-8": clustered_dot_matrix(8),
        "dotdif-classes": dot_diffusion_classes(),
    }


@dataclass(frozen=True)
class HalftoneSpec:
    """Algorithm name plus its parameters; irrelevant parameters are ignored
    but still validated when present.  The kernels check a raw parameter by
    building the spec they would be dispatched from, so each rule lives here."""

    algorithm: str
    h: int | None = None            # blockd tile size
    level: float | None = None      # threshold level
    seed: int | None = None         # random
    matrix_order: int | None = None  # bayer / cdot

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r} (expected one of {ALGORITHMS})")
        if self.h is not None and _check_int(self.h, "block size h") < 1:
            raise ValueError(f"block size h must be >= 1, got {self.h}")
        if self.level is not None and not 0.0 <= self.level <= 1.0:
            raise ValueError(f"threshold level must lie in [0, 1], got {self.level}")
        if self.seed is not None:
            _check_seed(self.seed)
        if self.matrix_order is not None and _check_int(self.matrix_order, "matrix order") not in (2, 4, 8):
            raise ValueError(f"matrix order must be 2, 4, or 8, got {self.matrix_order}")
        _, field, _, default = _REGISTRY[self.algorithm]
        if isinstance(default, _Required) and getattr(self, field) is None:
            raise ValueError(f"{self.algorithm} requires {default}")
        if self.algorithm == "cdot" and self.matrix_order == 2:
            raise ValueError("cdot supports matrix orders 4 and 8 only")

    def label(self) -> str:
        """Stable identifier used in reports and CSV output (h is reported
        in its own column, so blockd specs share the bare label)."""
        tag = _REGISTRY[self.algorithm][2]
        return f"{self.algorithm}-{tag}{self._param()!s}" if tag else self.algorithm

    def _param(self):
        """The value of the one field this algorithm takes, or its default."""
        _, field, _, default = _REGISTRY[self.algorithm]
        value = None if field is None else getattr(self, field)
        return default if value is None else value


def _darkness(img: GrayImage) -> np.ndarray:
    return (255.0 - img.pixels) / 255.0


def halftone(img: GrayImage, spec: HalftoneSpec) -> BinaryImage:
    """Dispatch to the named algorithm; deterministic given (img, spec)."""
    kernel, field = _REGISTRY[spec.algorithm][:2]
    return kernel(img) if field is None else kernel(img, spec._param())


def halftone_threshold(img: GrayImage, level: float) -> BinaryImage:
    """Ink wherever lightness < level*256; level 1 is all ink, level 0 none."""
    HalftoneSpec("threshold", level=level)
    return BinaryImage(img.pixels < level * 256)


def halftone_random(img: GrayImage, seed: int) -> BinaryImage:
    """Per-pixel coin: ink where a uniform [0,1) draw falls below darkness."""
    rng = np.random.Generator(np.random.PCG64(_check_seed(seed)))
    u = rng.random(img.pixels.shape)
    return BinaryImage(u < _darkness(img))


def halftone_floyd_steinberg(img: GrayImage) -> BinaryImage:
    """Error diffusion, raster scan, kernel 7/16 E, 3/16 SW, 5/16 S, 1/16 SE.

    Works in darkness space; the quantizer emits ink when error-adjusted
    darkness >= 0.5; error diffused past the border is dropped.
    """
    h, w = img.height, img.width
    buf = _darkness(img).tolist()
    out = []
    for y in range(h):
        row = buf[y]
        nxt = buf[y + 1] if y + 1 < h else None
        out_row = [0] * w
        last = w - 1
        for x in range(w):
            d = row[x]
            if d >= 0.5:
                out_row[x] = 1
                err = d - 1.0
            else:
                err = d
            if err:
                if x < last:
                    row[x + 1] += err * 0.4375
                if nxt is not None:
                    if x > 0:
                        nxt[x - 1] += err * 0.1875
                    nxt[x] += err * 0.3125
                    if x < last:
                        nxt[x + 1] += err * 0.0625
        out.append(out_row)
    return BinaryImage(np.array(out, dtype=np.uint8))


def _screen_halftone(img: GrayImage, screen: np.ndarray) -> BinaryImage:
    order = screen.shape[0]
    thresholds = (screen + 0.5) / (order * order)
    reps = (-(-img.height // order), -(-img.width // order))
    tiled = np.tile(thresholds, reps)[: img.height, : img.width]
    return BinaryImage(_darkness(img) > tiled)


def halftone_bayer(img: GrayImage, order: int) -> BinaryImage:
    """Dispersed-dot ordered dither against the tiled Bayer matrix."""
    return _screen_halftone(img, bayer_matrix(order))


def halftone_clustered_dot(img: GrayImage, order: int) -> BinaryImage:
    """Ordered dither against a clustered-dot screen; dots grow from tile centers."""
    return _screen_halftone(img, clustered_dot_matrix(order))


def halftone_dot_diffusion(img: GrayImage) -> BinaryImage:
    """Dot diffusion over the 8x8 class matrix.

    Pixels are processed in ascending class order; quantization error goes to
    the not-yet-processed 8-neighbors (class strictly greater), weight 2
    orthogonal and 1 diagonal, normalized over the eligible set.  With no
    eligible neighbor the error is dropped.
    """
    h, w = img.height, img.width
    buf = _darkness(img).tolist()
    out = [[0] * w for _ in range(h)]
    cls = _CLASS_8.tolist()

    buckets = [[] for _ in range(64)]
    for y in range(h):
        crow = cls[y % 8]
        for x in range(w):
            buckets[crow[x % 8]].append((y, x))

    for c, cells in enumerate(buckets):
        for y, x in cells:
            d = buf[y][x]
            if d >= 0.5:
                out[y][x] = 1
                err = d - 1.0
            else:
                err = d
            if not err:
                continue
            total = 0
            targets = []
            for dy, dx, wgt in _DD_NEIGHBORS:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and cls[ny % 8][nx % 8] > c:
                    targets.append((ny, nx, wgt))
                    total += wgt
            if total:
                scale = err / total
                for ny, nx, wgt in targets:
                    buf[ny][nx] += wgt * scale
    return BinaryImage(np.array(out, dtype=np.uint8))


def halftone_block_d(img: GrayImage, h: int) -> BinaryImage:
    """Block halftoning: per h x h tile, place round(mean darkness * area) ink
    dots at the darkest positions, ties broken in row-major order.

    Edge tiles keep their true size.  h = 1 reduces to per-pixel rounding.
    """
    HalftoneSpec("blockd", h=h)
    dark = _darkness(img)
    out = np.zeros(dark.shape, dtype=np.uint8)
    for y0 in range(0, img.height, h):
        for x0 in range(0, img.width, h):
            tile = dark[y0 : y0 + h, x0 : x0 + h]
            flat = tile.ravel()
            k = int(flat.sum() + 0.5)  # round half up: 0.5 darkness -> ink
            if k <= 0:
                continue
            sub = np.zeros(flat.shape, dtype=np.uint8)
            sub[np.argsort(-flat, kind="stable")[:k]] = 1
            out[y0 : y0 + h, x0 : x0 + h] = sub.reshape(tile.shape)
    return BinaryImage(out)


class _Required(str):
    """Registry marker for a field without a default; the text names it in errors."""


# name -> (kernel, the one HalftoneSpec field it takes or None, label tag or
# "" for the bare name, default value or _Required)
_REGISTRY = {
    "threshold": (halftone_threshold, "level", "l", 0.5),
    "random": (halftone_random, "seed", "s", _Required("an explicit seed")),
    "fs": (halftone_floyd_steinberg, None, "", None),
    "bayer": (halftone_bayer, "matrix_order", "o", 8),
    "cdot": (halftone_clustered_dot, "matrix_order", "o", 8),
    "dotdif": (halftone_dot_diffusion, None, "", None),
    "blockd": (halftone_block_d, "h", "", _Required("a block size h")),
}

ALGORITHMS = tuple(_REGISTRY)
