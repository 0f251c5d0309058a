"""Halftoning algorithms behind a uniform name registry: a halftoner is named only as
halftone(img, HalftoneSpec(name, ...)), and its screens are read from screen_catalog().

Every algorithm maps a GrayImage to a same-sized BinaryImage where local ink
density tracks local darkness (darkness = (255 - lightness)/255, so a black
source region halftones to all ones).  Quantizer ties at exactly 0.5 darkness
round to ink everywhere, for bit-exact reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .imagery import BinaryImage, GrayImage, _check_int, _check_seed

__all__ = [
    "ALGORITHMS",
    "HalftoneSpec",
    "halftone",
    "screen_catalog",
]

# Knuth's 8x8 class matrix for dot diffusion (0-indexed processing order); no rule gives it.
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

# in class order: each class's cell (r, s) in the 8x8 tile, and the polyphase slot of each later neighbour
# (dy, dx, weight): its class ((r + dy) mod 8, (s + dx) mod 8), the tiles it lies down ((r + dy) // 8) and
# across ((s + dx) // 8), and its weight
_DD_ORDER = tuple(
    (r, s, tuple((*divmod(r + dy, 8)[::-1], *divmod(s + dx, 8)[::-1], wgt)
                 for dy, dx, wgt in _DD_NEIGHBORS if _CLASS_8[(r + dy) % 8, (s + dx) % 8] > c))
    for c, (r, s) in enumerate(divmod(i, 8) for i in np.argsort(_CLASS_8, axis=None).tolist())
)

_DD_CHUNK = 4  # slices of a stack dot diffusion diffuses at once; its float64 work buffer grows with them


def _bayer(order: int) -> np.ndarray:
    """Classical recursive Bayer index matrix; base case [[0, 2], [3, 1]]."""
    m = np.array([[0, 2], [3, 1]], dtype=np.int64)
    while m.shape[0] < order:
        m = np.block([[4 * m, 4 * m + 2], [4 * m + 3, 4 * m + 1]])
    return m


def _clustered_dot(order: int) -> np.ndarray:
    """Cells ranked by squared distance from the tile centre, ties broken by
    angle, so dots grow outward from the centre as darkness rises.  Exact: the
    half-integer offsets square exactly, and no two cells at one distance share an angle."""
    dy, dx = np.mgrid[:order, :order] + 0.5 - order / 2
    cells_by_rank = np.lexsort((np.arctan2(dy, dx).ravel(), (dy * dy + dx * dx).ravel()))
    return np.argsort(cells_by_rank).reshape(order, order)


# screen algorithm -> matrix order -> index matrix, built once at import
_SCREENS = {
    "bayer": {order: _bayer(order) for order in (2, 4, 8)},
    "cdot": {order: _clustered_dot(order) for order in (4, 8)},
}


def screen_catalog() -> dict[str, np.ndarray]:
    """Copies of all compiled-in screen/class matrices, for audit: bayer-2, bayer-4, bayer-8, cdot-4,
    cdot-8 and dotdif-classes."""
    screens = {f"{name}-{order}": m.copy() for name, by_order in _SCREENS.items() for order, m in by_order.items()}
    return screens | {"dotdif-classes": _CLASS_8.copy()}


def _check_h(h) -> int:
    """blockd's tile-size rule, for a spec and for a record that carries h."""
    return _check_int(h, "block size h", 1)


@dataclass(frozen=True)
class HalftoneSpec:
    """Algorithm name plus its parameters, the one way to name a halftoner; an algorithm takes at
    most the one parameter its registry entry names, and refuses the others.  Every parameter rule
    lives here, so a kernel trusts the value the spec hands it."""

    algorithm: str
    h: int | None = None            # blockd tile size
    level: float | None = None      # threshold level
    seed: int | None = None         # random
    matrix_order: int | None = None  # bayer / cdot

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r} (expected one of {ALGORITHMS})")
        _, field, _, default = _REGISTRY[self.algorithm]
        foreign = [k for k, v in vars(self).items() if v is not None and k not in ("algorithm", field)]
        if foreign:
            takes = f"{field} only" if field else "no parameter"
            raise ValueError(f"{self.algorithm} does not take {foreign[0]} (it takes {takes})")
        if self.h is not None:
            _check_h(self.h)
        if self.level is not None and not 0.0 <= self.level <= 1.0:
            raise ValueError(f"threshold level must lie in [0, 1], got {self.level}")
        if self.seed is not None:
            _check_seed(self.seed)
        orders = _SCREENS.get(self.algorithm, {})  # {} for the rest, which refused matrix_order above
        if self.matrix_order is not None and _check_int(self.matrix_order, "matrix order") not in orders:
            *rest, last = orders
            listed = f"{', '.join(map(str, rest))} and {last}"
            raise ValueError(f"{self.algorithm} supports matrix orders {listed} only, got {self.matrix_order}")
        if isinstance(default, _Required) and getattr(self, field) is None:
            raise ValueError(f"{self.algorithm} requires {default}")

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


def _darkness(pixels: np.ndarray) -> np.ndarray:
    return (255.0 - pixels) / 255.0


def halftone(img: GrayImage, spec: HalftoneSpec) -> BinaryImage:
    """Dispatch to the named algorithm; deterministic given (img, spec)."""
    return BinaryImage(_halftone_bits(img.pixels, spec))


def _halftone_bits(pixels: np.ndarray, spec: HalftoneSpec) -> np.ndarray:
    """The named kernel's bits of uint8 pixels (h, w), or of each slice of a same-shape stack (h, w, K): each
    slice's are its image's own.  Only FS's wave ring and dot diffusion's work buffer hold float64 across slices."""
    kernel, field = _REGISTRY[spec.algorithm][:2]
    return kernel(pixels) if field is None else kernel(pixels, spec._param())


def _per_slice(kernel, pixels: np.ndarray, *param) -> np.ndarray:
    """The bits of a one-image kernel over pixels (h, w), or over each slice of a stack (h, w, K) in turn."""
    out = np.empty(pixels.shape, dtype=bool)
    for j in np.ndindex(pixels.shape[2:]):  # () alone for pixels (h, w)
        out[(..., *j)] = kernel(pixels[(..., *j)], *param)
    return out


def _random_bits(pixels: np.ndarray, seed: int) -> np.ndarray:
    """Per-pixel coin: ink where a uniform [0, 1) draw falls below darkness.  The seed is the spec's, so every
    image of one shape draws the same u: a stack takes one draw, and each image is compared with it in turn."""
    u = np.random.Generator(np.random.PCG64(seed)).random(pixels.shape[:2])
    return _per_slice(lambda image: u < _darkness(image), pixels)


_FS_WAVES = 32  # M, the waves the FS buffer holds
_FS_WEIGHTS = np.array([0.1875, 0.3125, 0.0625, 0.4375])  # SW, S, SE, E


def _fs_bits(pixels: np.ndarray) -> np.ndarray:
    """Floyd–Steinberg bits (bool) of uint8 pixels (h, w), or of each slice of a same-shape stack (h, w, K).

    Error diffusion in raster order, in darkness space: a pixel inks when its error-adjusted darkness is
    >= 0.5 and sends 7/16 of its error E, 3/16 SW, 5/16 S and 1/16 SE; error sent past the border is dropped.

    One numpy step per wave k = x + 2y.  Pixel (y, x) takes its SE, S, SW and E shares in that order, from
    waves k-3, k-2, k-1 and k-1, so each step adds SW before E.  A buffer of M waves x (h+1) rows (x K) holds
    pixel (y, x) at wave k, row y, so a wave is a run of rows.  Its SW, S and SE shares go in one (3, n) add
    to row y+1 of the next three waves (row h soaks up what passes the bottom), then E to row y of wave k+1;
    what passes a side lands on a slot off the image, which no wave reads.  Every M - 3 waves the last 3
    move to the front and the rest take their darkness (255 - p) / 255 on the band of rows they hold on the
    image.  It is read through one view of a uint8 copy of 255 - p (exact) as (h*w, K) rows, stack
    innermost as in the input, whose [k, y] is row k + y(w-2); the bits go out through the same view of a
    like buffer, so a pixel's darkness fill and its bit write each touch K contiguous bytes.  h rows of
    padding on each side keep every row of the view in bounds, strides <= 0 at w <= 2 included.
    """
    h, w, *stack = pixels.shape
    per = pixels.size // (h * w)  # K, or 1
    waves = w + 2 * h - 2
    flat, out = np.zeros((h * w + 2 * h, per), dtype=np.uint8), np.zeros((h * w + 2 * h, per), dtype=bool)
    np.subtract(255, pixels.reshape(h * w, per), out=flat[h:-h])  # 255 - p, exact in uint8
    dark, bits = (
        np.lib.stride_tricks.as_strided(a[h:], (waves, h, *stack), (per, (w - 2) * per, *[1] * len(stack)))
        for a in (flat, out)
    )
    m = min(_FS_WAVES, waves + 3)
    buf = np.zeros((m, h + 1, *stack))
    rows, next3 = list(buf), [buf[j + 1 : j + 4] for j in range(m - 3)]
    err, share = np.empty((min(h, w), *stack)), np.empty((4, min(h, w), *stack))  # no wave holds more pixels
    weights = _FS_WEIGHTS.reshape(4, 1, *[1] * len(stack))
    ks = np.arange(waves)  # wave k holds rows y_los[k] <= y < y_his[k], both nondecreasing in k
    y_los, y_his = np.maximum(0, (ks - w + 2) // 2).tolist(), np.minimum(h, ks // 2 + 1).tolist()
    for k, (wave_bits, y_lo, y_hi) in enumerate(zip(bits, y_los, y_his)):
        j = k % (m - 3)
        if j == 0:  # carry the 3 waves that still take shares, then fill the rest with darkness
            if k:
                buf[:3] = buf[m - 3 :]
            lo, hi = 3 if k else 0, min(m, waves - k)
            band = slice(y_los[k], y_his[k + hi - 1])  # every row these waves hold on the image
            fill = buf[lo:hi, band]
            np.divide(dark[k + lo : k + hi, band], 255.0, out=fill)
        n = y_hi - y_lo
        d = rows[j][y_lo:y_hi]
        e = np.subtract(d, np.greater_equal(d, 0.5, out=wave_bits[y_lo:y_hi]), out=err[:n])
        shares = np.multiply(weights, e, out=share[:, :n])
        below, east = next3[j][:, y_lo + 1 : y_hi + 1], rows[j + 1][y_lo:y_hi]
        np.add(below, shares[:3], out=below)
        np.add(east, shares[3], out=east)
    return out[h:-h].reshape(pixels.shape)


def _screen_bits(name: str, pixels: np.ndarray, order: int) -> np.ndarray:
    """Ordered dither, ink where darkness exceeds the cell's (rank + 0.5) / order²: bayer's screen is dispersed-dot,
    cdot's clustered.  Darkness falls strictly as lightness p rises, so that is p < the count of lightness
    values darker than the threshold: one uint8 cutoff map, tiled once per shape, serves the whole stack."""
    thresholds = (_SCREENS[name][order] + 0.5) / (order * order)
    cutoffs = np.searchsorted(-_darkness(np.arange(256)), -thresholds).astype(np.uint8)  # 1 to 255
    h, w = pixels.shape[:2]
    tiled = np.tile(cutoffs, (-(-h // order), -(-w // order)))[:h, :w]
    return pixels < tiled.reshape(h, w, *[1] * (pixels.ndim - 2))


def _dotdif_bits(pixels: np.ndarray) -> np.ndarray:
    """Dot diffusion over the 8x8 class matrix, pixels in ascending class order.

    A pixel sends its quantization error to its not-yet-processed 8-neighbours (class strictly greater),
    weight 2 orthogonal and 1 diagonal, normalized over that set; with no such neighbour it is dropped.
    One pass per class quantizes that class's pixels (a stride-8 lattice) at once.  A pixel's 8 neighbours
    lie in one 3x3 window of the tiled map and so carry distinct classes: each pixel takes at most one
    addition per pass, in class order, as a pixel-at-a-time loop would.

    The float64 work buffer is polyphase, (8, 8, tiles down + 2, tiles across + 2, slices): pixel (y, x)
    of class (r, s) sits at [r, s, y // 8 + 1, x // 8 + 1], so a class's lattice is one contiguous block
    and its neighbour (dy, dx) is the same tiles of class ((r + dy) mod 8, (s + dx) mod 8), shifted
    (r + dy) // 8 and (s + dx) // 8 tiles.  The ring of tiles round the image soaks up the error sent off
    it, and no pass reads it.  A class pass serves _DD_CHUNK slices, innermost.  Each chunk takes its
    darkness (255 - p) / 255 from a padded uint8 copy of 255 - p (exact), and writes its bits to a
    contiguous polyphase buffer in the same bytes, which goes into the image-major output once.  The
    weight totals are the shape's, built once."""
    h, w = pixels.shape[:2]
    stack = pixels.reshape(h, w, -1)
    ty, tx = -(-h // 8), -(-w // 8)  # whole 8x8 tiles down and across
    total = _dd_totals(h, w, ty, tx)
    ny, nx = [len(range(r, h, 8)) for r in range(8)], [len(range(s, w, 8)) for s in range(8)]  # lattice extents
    out = np.empty((stack.shape[2], 8 * ty, 8 * tx), dtype=bool)  # image-major: each image's bits are contiguous
    c = min(stack.shape[2], _DD_CHUNK)
    work = np.zeros((8, 8, ty + 2, tx + 2, c))
    scratch = np.zeros(64 * ty * tx * c, dtype=np.uint8)  # a chunk's 255 - p, then its bits
    for lo in range(0, stack.shape[2], _DD_CHUNK):
        chunk = stack[..., lo : lo + _DD_CHUNK]
        k = chunk.shape[2]
        buf, pad = work[..., :k], scratch[: 64 * ty * tx * k].reshape(8 * ty, 8 * tx, k)
        np.subtract(255, chunk, out=pad[:h, :w])  # the bytes off the image fill slots that no pass reads
        np.divide(_polyphase(pad), 255.0, out=buf[:, :, 1:-1, 1:-1])
        bits = pad.view(bool).reshape(8, 8, ty, tx, k)  # 255 - p is spent: its bytes take the bits
        for r, s, later in _DD_ORDER:
            d = buf[r, s, 1 : 1 + ny[r], 1 : 1 + nx[s]]
            ink = np.greater_equal(d, 0.5, out=bits[r, s, : ny[r], : nx[s]])
            scale = (d - ink) / total[r, s, : ny[r], : nx[s]]  # d - 0 is d itself, -0.0 included
            share = (scale, scale + scale)  # by weight - 1; 2 * scale is exactly scale + scale
            for ry, oy, rx, ox, wgt in later:
                buf[ry, rx, 1 + oy : 1 + oy + ny[r], 1 + ox : 1 + ox + nx[s]] += share[wgt - 1]
        _polyphase(np.moveaxis(out[lo : lo + k], 0, -1))[...] = bits
    return np.moveaxis(out, 0, -1)[:h, :w].reshape(pixels.shape)


def _dd_totals(h: int, w: int, ty: int, tx: int) -> np.ndarray:
    """Each pixel's total weight of later neighbours on the image, at least 1, as a polyphase uint8 map
    (8, 8, ty, tx, 1); pixel (y, x) sits at [y % 8, x % 8, y // 8, x // 8]."""
    classes = np.tile(_CLASS_8.astype(np.int8), (ty, tx))[:h, :w]
    padded = np.pad(classes, 1, constant_values=-1)
    total = sum(np.uint8(wgt) * (padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w] > classes)
                for dy, dx, wgt in _DD_NEIGHBORS)  # uint8, at most 12
    total = np.maximum(total, 1)  # 0 only where every later neighbor is off the image
    return np.ascontiguousarray(_polyphase(np.pad(total, ((0, 8 * ty - h), (0, 8 * tx - w)))))[..., None]


def _polyphase(a: np.ndarray) -> np.ndarray:
    """The (8, 8, rows / 8, cols / 8, ...) view of an array whose first two axes are whole 8x8 tiles:
    [r, s, i, j] is a[8i + r, 8j + s]."""
    return a.reshape(a.shape[0] // 8, 8, a.shape[1] // 8, 8, *a.shape[2:]).transpose(1, 3, 0, 2, *range(4, a.ndim + 2))


def _block_dots(light: np.ndarray, th: int, tw: int) -> np.ndarray:
    """blockd's dots for a region cut into whole th x tw tiles, all tiles at once, each tile a row.

    A tile's k is its darkness sum S / 255 rounded half up, (2S + 255) // 510 in integers, S being the
    sum of 255 - p; 2S + 255 is odd, so S / 255 is never within 1/510 of a half and the float sum of
    darkness rounds the same.  Darkness falls as lightness rises, so the key lightness * area + position
    orders a row darkest first, ties in row-major order; the k smallest keys are the dots."""
    ny, nx, m = light.shape[0] // th, light.shape[1] // tw, th * tw
    tiles = light.reshape(ny, th, nx, tw).swapaxes(1, 2).reshape(ny * nx, m)
    k = (2 * (255 * m - tiles.sum(axis=1, dtype=np.int64)) + 255) // 510  # round half up: 0.5 darkness -> ink
    dtype = np.int32 if m < 1 << 23 else np.int64  # keys stay below 256 * m
    keys = tiles.astype(dtype) * m + np.arange(m, dtype=dtype)
    kth = np.sort(keys, axis=1)[np.arange(ny * nx), np.maximum(k - 1, 0)]
    dots = (keys <= kth[:, None]) & (k > 0)[:, None]
    return dots.reshape(ny, nx, th, tw).swapaxes(1, 2).reshape(light.shape)


def _blockd_image(pixels: np.ndarray, h: int) -> np.ndarray:
    """Block halftoning of one image: each h x h tile gets round(mean darkness x area) ink dots at its
    darkest positions, ties broken in row-major order; edge tiles keep their true size, and h = 1 is
    per-pixel rounding.  The body, right column, bottom row and corner are each a grid of equal-size
    tiles.  A stack goes through it a slice at a time, as the sort's temporaries grow with the tiles."""
    out = np.empty(pixels.shape, dtype=bool)
    body_y, body_x = pixels.shape[0] - pixels.shape[0] % h, pixels.shape[1] - pixels.shape[1] % h
    for ys in (slice(0, body_y), slice(body_y, None)):
        for xs in (slice(0, body_x), slice(body_x, None)):
            region = pixels[ys, xs]
            if region.size:
                out[ys, xs] = _block_dots(region, min(h, region.shape[0]), min(h, region.shape[1]))
    return out


class _Required(str):
    """Registry marker for a field without a default; the text names it in errors."""


# name -> (bits kernel, the one HalftoneSpec field it takes or None, label tag or
# "" for the bare name, default value or _Required); threshold inks where lightness < level * 256,
# so level 1 is all ink and level 0 none
_REGISTRY = {
    "threshold": (lambda pixels, level: pixels < level * 256, "level", "l", 0.5),
    "random": (_random_bits, "seed", "s", _Required("an explicit seed")),
    "fs": (_fs_bits, None, "", None),
    "bayer": (partial(_screen_bits, "bayer"), "matrix_order", "o", 8),
    "cdot": (partial(_screen_bits, "cdot"), "matrix_order", "o", 8),
    "dotdif": (_dotdif_bits, None, "", None),
    "blockd": (partial(_per_slice, _blockd_image), "h", "", _Required("a block size h")),
}

ALGORITHMS = tuple(_REGISTRY)
