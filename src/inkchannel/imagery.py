"""Core raster types, histograms, and bit-exact netpbm (PGM/PBM) file I/O.

Conventions used throughout the package:
  * grayscale lightness 0 = black, 255 = white
  * binary bit 1 = printed ink dot, rendered black (the PBM convention)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GrayImage",
    "BinaryImage",
    "Histogram",
    "NetpbmError",
    "read_gray",
    "write_gray",
    "read_binary",
    "read_image",
    "write_binary",
    "binary_histogram",
    "block_lightness_histogram",
]


class NetpbmError(ValueError):
    """Raised for malformed, unsupported, or truncated PGM/PBM files."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GrayImage:
    """8-bit single-channel raster; ``pixels`` is a (height, width) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"gray image must be 2-d and non-empty, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"gray pixels must be integers, got dtype {arr.dtype}")
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("gray pixel values must lie in 0..255")
            arr = arr.astype(np.uint8)
        object.__setattr__(self, "pixels", _freeze(arr.copy()))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class BinaryImage:
    """{0,1} raster; ``bits`` is a (height, width) uint8 array, 1 = ink dot."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"binary image must be 2-d and non-empty, got shape {arr.shape}")
        if arr.dtype == np.bool_:
            arr = arr.astype(np.uint8)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"binary bits must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() > 1:
            raise ValueError("binary bits must be 0 or 1")
        object.__setattr__(self, "bits", _freeze(arr.astype(np.uint8)))

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def ink_fraction(self) -> float:
        """Fraction of 1-bits (printed dots)."""
        return float(self.bits.mean())


@dataclass(frozen=True)
class Histogram:
    """Normalized probability vector over lightness bins."""

    bins: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("histogram must be a non-empty 1-d probability vector")
        if (arr < 0).any():
            raise ValueError("histogram bins must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"histogram must sum to 1 (got {total!r})")
        object.__setattr__(self, "bins", _freeze(arr.copy()))

    @property
    def bin_count(self) -> int:
        return self.bins.size


# ---------------------------------------------------------------------------
# netpbm I/O
# ---------------------------------------------------------------------------

_WHITESPACE = b" \t\r\n\x0b\x0c"
_KINDS = {b"P1": "PBM", b"P4": "PBM", b"P2": "PGM", b"P5": "PGM"}
_COMMENT = re.compile(rb"#[^\n]*")


class _Cursor:
    """Byte cursor over a netpbm header; skips whitespace and '#' comments."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 2  # past the magic number

    def _skip_separators(self):
        data, n = self.data, len(self.data)
        while self.pos < n:
            b = data[self.pos]
            if b == 0x23:  # '#'
                eol = data.find(b"\n", self.pos)
                self.pos = n if eol < 0 else eol + 1
            elif b in _WHITESPACE:
                self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self._skip_separators()
        start = self.pos
        data, n = self.data, len(self.data)
        while self.pos < n and data[self.pos] not in _WHITESPACE and data[self.pos] != 0x23:
            self.pos += 1
        if self.pos == start:
            raise NetpbmError("malformed header: unexpected end of file")
        return data[start : self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise NetpbmError(f"malformed {what} {tok!r}") from None

    def raster(self, need: int) -> bytes:
        # binary raster begins after exactly one whitespace byte
        if self.pos >= len(self.data) or self.data[self.pos] not in _WHITESPACE:
            raise NetpbmError("malformed header: missing separator before raster")
        raw = self.data[self.pos + 1 : self.pos + 1 + need]
        if len(raw) < need:
            raise NetpbmError(f"truncated payload: expected {need} bytes, got {len(raw)}")
        return raw


def _sample(tok: bytes) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise NetpbmError(f"malformed payload sample {tok!r}") from None
    if not 0 <= v <= 255:
        raise NetpbmError(f"malformed payload sample {v} (out of 0..255)")
    return v


def _ascii_payload(text: bytes, gray: bool, count: int) -> np.ndarray:
    """First ``count`` P2 samples or P1 bits of ``text``; later bytes are ignored.

    Comments may sit anywhere; P1 digits need no separators.  Every list and
    array here is sized by the file's bytes, never by the header's claim.
    """
    text = _COMMENT.sub(b" ", text)
    if gray:
        vals = list(map(_sample, text.split()[:count]))
        if len(vals) < count:
            raise NetpbmError(f"truncated payload: expected {count} samples, got {len(vals)}")
        return np.array(vals, dtype=np.uint8)
    digits = text.translate(None, _WHITESPACE)[:count]
    bad = digits.translate(None, b"01")
    if bad:
        raise NetpbmError(f"malformed payload: unexpected byte {bad[:1]!r} in P1 raster")
    if len(digits) < count:
        raise NetpbmError(f"truncated payload: expected {count} bits, got {len(digits)}")
    return np.frombuffer(digits, dtype=np.uint8) - ord("0")


def _read_netpbm(path, accept: str):
    """Parse any netpbm file whose kind ("PGM" or "PBM") appears in ``accept``."""
    data = Path(path).read_bytes()
    if not data:
        raise NetpbmError("malformed header: empty file")
    magic = data[:2]
    kind = _KINDS.get(magic)
    if kind is None or kind not in accept:
        raise NetpbmError(f"malformed header: not a {accept} file (magic {magic!r})")
    gray = kind == "PGM"
    cur = _Cursor(data)
    width = cur.int_token("header width")
    height = cur.int_token("header height")
    maxval = cur.int_token("header maxval") if gray else 255
    if width < 1 or height < 1:
        raise NetpbmError(f"malformed header: bad dimensions {width}x{height}")
    if maxval != 255:
        raise NetpbmError(f"unsupported maxval {maxval} (only 255)")
    if magic == b"P5":
        arr = np.frombuffer(cur.raster(width * height), dtype=np.uint8).reshape(height, width)
    elif magic == b"P4":
        row_bytes = (width + 7) // 8
        packed = np.frombuffer(cur.raster(row_bytes * height), dtype=np.uint8).reshape(height, row_bytes)
        arr = np.unpackbits(packed, axis=1)[:, :width]
    else:
        arr = _ascii_payload(data[cur.pos :], gray, width * height).reshape(height, width)
    return GrayImage(arr) if gray else BinaryImage(arr)


def read_gray(path) -> GrayImage:
    """Read a PGM file (P2 ASCII or P5 binary, maxval 255)."""
    return _read_netpbm(path, "PGM")


def read_binary(path) -> BinaryImage:
    """Read a PBM file (P1 ASCII or P4 packed binary); 1 = black = ink."""
    return _read_netpbm(path, "PBM")


def read_image(path) -> GrayImage | BinaryImage:
    """Read a PGM as a GrayImage or a PBM as a BinaryImage, by its magic number."""
    return _read_netpbm(path, "PGM/PBM")


def _write_netpbm(path, header: str, arr: np.ndarray, raw: bytes | None) -> None:
    """Write ``header`` then ``raw``, or ``arr`` as ASCII rows when ``raw`` is None."""
    if raw is None:
        raw = "".join(" ".join(map(str, row)) + "\n" for row in arr.tolist()).encode("ascii")
    Path(path).write_bytes(header.encode("ascii") + raw)


def write_gray(img: GrayImage, path, *, ascii_format: bool = False) -> None:
    """Write a PGM file; P5 by default, P2 with ``ascii_format=True``."""
    magic, raw = ("P2", None) if ascii_format else ("P5", img.pixels.tobytes())
    _write_netpbm(path, f"{magic}\n{img.width} {img.height}\n255\n", img.pixels, raw)


def write_binary(img: BinaryImage, path, *, ascii_format: bool = False) -> None:
    """Write a PBM file; P4 by default, P1 with ``ascii_format=True``."""
    # P4 packs MSB first and zero-pads each row to a whole byte
    magic, raw = ("P1", None) if ascii_format else ("P4", np.packbits(img.bits, axis=1).tobytes())
    _write_netpbm(path, f"{magic}\n{img.width} {img.height}\n", img.bits, raw)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def binary_histogram(img: BinaryImage) -> Histogram:
    """Two-bin histogram [p(bit=0), p(bit=1)]; complement construction sums to 1 exactly."""
    p1 = img.ink_fraction()
    return Histogram(np.array([1.0 - p1, p1]))


def block_lightness_histogram(img: BinaryImage, block: int, bins: int) -> Histogram:
    """Histogram of per-tile mean ink density, binned uniformly over [0, 1].

    The image is partitioned into ``block`` x ``block`` tiles; edge tiles keep
    their true (smaller) size rather than being dropped.
    """
    if block < 1:
        raise ValueError("block size must be >= 1")
    if bins < 2:
        raise ValueError("bin count must be >= 2")
    if block > img.width and block > img.height:
        raise ValueError(f"block {block} larger than both image dimensions {img.width}x{img.height}")
    ys, xs = np.arange(0, img.height, block), np.arange(0, img.width, block)
    ink = np.add.reduceat(np.add.reduceat(img.bits, ys, axis=0, dtype=np.int64), xs, axis=1, dtype=np.int64)
    area = np.outer(np.diff(ys, append=img.height), np.diff(xs, append=img.width))
    idx = np.minimum((ink / area * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx.ravel(), minlength=bins).astype(np.float64)
    return Histogram(counts / counts.sum())
