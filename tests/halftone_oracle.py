"""Scalar reference kernels for the vectorised halftoners: Floyd-Steinberg, dot
diffusion, block halftoning, the ordered-dither screens and the random coin.

These are pixel- and tile-at-a-time loops, written from each algorithm's rule
rather than from the numpy kernels in `inkchannel.halftone`; the differential
tests hold the two to the same output bits.  Each returns the uint8 bit array.
"""

import numpy as np

from inkchannel.halftone import _DD_NEIGHBORS, screen_catalog


def darkness(pixels):
    """(255 - lightness) / 255, so black is 1 and white 0."""
    return (255.0 - np.asarray(pixels, dtype=np.float64)) / 255.0


def ordered_dither(img, screen: str) -> np.ndarray:
    """Ink where a pixel's darkness exceeds its screen cell's threshold (rank + 0.5) / n², the
    n x n matrix ``screen`` of screen_catalog() tiled from the top-left corner."""
    ranks = screen_catalog()[screen].tolist()
    n = len(ranks)
    dark = darkness(img.pixels).tolist()
    return np.array([[int(d > (ranks[y % n][x % n] + 0.5) / (n * n)) for x, d in enumerate(row)]
                     for y, row in enumerate(dark)], dtype=np.uint8)


def random_coin(img, seed: int) -> np.ndarray:
    """Ink where the pixel's uniform [0, 1) draw falls below its darkness; the draws are PCG64(seed)'s
    random() over the image shape, in raster order."""
    u = np.random.Generator(np.random.PCG64(seed)).random(img.pixels.shape).tolist()
    dark = darkness(img.pixels).tolist()
    return np.array([[int(uu < d) for uu, d in zip(u_row, d_row)] for u_row, d_row in zip(u, dark)], dtype=np.uint8)


def floyd_steinberg(img) -> np.ndarray:
    """Raster scan; each pixel sends 7/16 E, 3/16 SW, 5/16 S and 1/16 SE of its
    quantization error, and error sent past the border is dropped."""
    h, w = img.height, img.width
    buf = darkness(img.pixels).tolist()
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
    return np.array(out, dtype=np.uint8)


def dot_diffusion(img) -> np.ndarray:
    """Pixels in ascending class order; each pushes its quantization error to
    the not-yet-processed 8-neighbors, weights normalized over that set."""
    h, w = img.height, img.width
    buf = darkness(img.pixels).tolist()
    out = [[0] * w for _ in range(h)]
    cls = screen_catalog()["dotdif-classes"].tolist()

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
    return np.array(out, dtype=np.uint8)


def block_d(img, h: int) -> np.ndarray:
    """Per h x h tile (edge tiles at their true size), round(sum of darkness)
    dots at the darkest positions, ties broken in row-major order."""
    dark = darkness(img.pixels)
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
    return out
