"""Core raster types, histograms and their spec, the shared integer and seed
checks, and bit-exact netpbm (PGM/PBM) file I/O.

Conventions used throughout the package:
  * grayscale lightness 0 = black, 255 = white
  * binary bit 1 = printed ink dot, rendered black (the PBM convention)
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GrayImage",
    "BinaryImage",
    "Histogram",
    "HISTOGRAM_MODES",
    "HistogramSpec",
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


def _check_int(value, what: str, least: int | None = None) -> int:
    """Return ``value`` as an int, refusing one below ``least`` if given; floats, even 7.0, are rejected."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and index < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return index


def _check_seed(seed: int) -> int:
    """Return ``seed`` as an int in 0 .. 2**64 - 1."""
    seed = _check_int(seed, "seed")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _read_text(path) -> str:
    """A file's UTF-8 text; a byte that is not UTF-8 is a ValueError naming its line, counted as splitlines counts."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _raster(values, kind: str, what: str, top: int) -> np.ndarray:
    """A frozen uint8 copy of a 2-d, non-empty array of integers in 0..top.

    A uint8 array needs no scan when top is 255; a bool array is a bit raster when top is 1.
    """
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{kind} image must be 2-d and non-empty, got shape {arr.shape}")
    if arr.dtype == np.bool_ and top == 1:
        arr = arr.view(np.uint8)
    if arr.dtype != np.uint8 or top != 255:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{kind} {what} must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() > top:
            raise ValueError(f"{kind} {what} must lie in 0..{top}")
    return _freeze(arr.astype(np.uint8))


@dataclass(frozen=True)
class GrayImage:
    """8-bit single-channel raster; ``pixels`` is a (height, width) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _raster(self.pixels, "gray", "pixels", 255))

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
        object.__setattr__(self, "bits", _raster(self.bits, "binary", "bits", 1))

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def ink_fraction(self) -> float:
        """Fraction of 1-bits (printed dots)."""
        return int(np.count_nonzero(self.bits)) / self.bits.size


@dataclass(frozen=True)
class Histogram:
    """Normalized probability vector over lightness bins."""

    bins: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("histogram must be a non-empty 1-d probability vector")
        if not (arr >= 0).all():  # written so that NaN fails too
            raise ValueError("histogram bins must be non-negative")
        total = float(arr.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"histogram must sum to 1 (got {total!r})")
        object.__setattr__(self, "bins", _freeze(arr.copy()))

    @property
    def bin_count(self) -> int:
        return self.bins.size


# ---------------------------------------------------------------------------
# netpbm I/O
# ---------------------------------------------------------------------------

_WHITESPACE = b" \t\r\n\x0b\x0c"
_IS_SPACE = np.isin(np.arange(256), list(_WHITESPACE))
_DIGIT = np.array([b - 48 if 48 <= b <= 57 else 256 for b in range(256)], np.int16)  # no digit: past any sample
_KINDS = {b"P1": "PBM", b"P4": "PBM", b"P2": "PGM", b"P5": "PGM"}
_COMMENT = re.compile(rb"#[^\n]*")
# one header token after its separators: whitespace, or '#' to the end of the line
_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n?)*([^\s#]*)")


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

    Comments may sit anywhere; P1 digits need no separators.  Every list and array here is sized by the file's
    bytes, never by the header's claim.  P2 tokens are found by a 256-entry whitespace table and read by a digit
    table; one it cannot read (over 3 bytes, a non-digit, above 255) goes to ``int()`` in file order, before the
    count check, so an odd token costs one call.  Oracle: ``tests/netpbm_oracle.py``'s token loop."""
    text = _COMMENT.sub(b" ", text)
    if gray:
        raw = np.frombuffer(text, dtype=np.uint8)
        edges = np.flatnonzero(np.diff(_IS_SPACE.take(raw), prepend=True, append=True))  # token starts, ends
        starts, ends = edges[: 2 * count : 2], edges[1 : 2 * count : 2]
        size, digit = ends - starts, _DIGIT.take(raw)
        vals = sum((size > j) * digit.take(ends - 1 - j, mode="clip") * 10**j for j in range(3))
        for i in np.flatnonzero((size > 3) | (vals > 255)):
            vals[i] = _sample(text[starts[i] : ends[i]])
        if len(vals) < count:
            raise NetpbmError(f"truncated payload: expected {count} samples, got {len(vals)}")
        return vals.astype(np.uint8)
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
    pos, values = 2, []
    for what in ("width", "height", "maxval")[: 3 if gray else 2]:
        match = _TOKEN.match(data, pos)
        tok, pos = match[1], match.end()
        if not tok:
            raise NetpbmError("malformed header: unexpected end of file")
        try:
            values.append(int(tok))
        except ValueError:
            raise NetpbmError(f"malformed header {what} {tok!r}") from None
    width, height, maxval = values if gray else (*values, 255)
    if width < 1 or height < 1:
        raise NetpbmError(f"malformed header: bad dimensions {width}x{height}")
    if maxval != 255:
        raise NetpbmError(f"unsupported maxval {maxval} (only 255)")
    if magic in (b"P4", b"P5"):
        # a binary raster begins after exactly one whitespace byte
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise NetpbmError("malformed header: missing separator before raster")
        row_bytes = width if gray else (width + 7) // 8
        need = row_bytes * height
        raw = data[pos + 1 : pos + 1 + need]
        if len(raw) < need:
            raise NetpbmError(f"truncated payload: expected {need} bytes, got {len(raw)}")
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, row_bytes)
        if not gray:
            arr = np.unpackbits(arr, axis=1)[:, :width]
    else:
        arr = _ascii_payload(data[pos:], gray, width * height).reshape(height, width)
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

def _ink_bins(ink, n: int) -> np.ndarray:
    """[p(bit=0), p(bit=1)] of ink count(s) ``ink`` over n bits, one row per count; complement construction
    sums to 1 exactly."""
    p1 = np.asarray(ink) / n
    bins = np.empty(p1.shape + (2,))
    bins[..., 0], bins[..., 1] = 1.0 - p1, p1
    return bins


def _block_bins(bits: np.ndarray, block: int, bins: int) -> np.ndarray:
    """Per-tile mean ink density binned uniformly over [0, 1], as a probability vector.

    A (tiles down, tile height, tiles across, tile width) reshape of the bits, a view when the tiles divide
    the image and a zero-padded copy when the edge tiles are ragged, is summed over the tile rows and then
    the tile columns, in the narrowest dtype that holds the tile area: uint8 or uint16, else int64.  The
    density divides each count by its tile's true area, so ragged edge tiles keep their own."""
    height, width = bits.shape
    if block > width and block > height:
        raise ValueError(f"block {block} larger than both image dimensions {width}x{height}")
    ny, nx = -(-height // block), -(-width // block)
    by, bx = min(block, height), min(block, width)  # a block past one side is one tile of that side
    if (ny * by, nx * bx) != bits.shape:  # ragged edge tiles: pad them whole with no ink
        bits, ragged = np.zeros((ny * by, nx * bx), dtype=np.uint8), bits
        bits[:height, :width] = ragged
    dtype = np.uint8 if by * bx < 1 << 8 else np.uint16 if by * bx < 1 << 16 else np.int64  # holds a tile's count
    ink = bits.reshape(ny, by, nx, bx).sum(axis=1, dtype=dtype).sum(axis=-1, dtype=dtype)
    rows, cols = np.full(ny, by), np.full(nx, bx)
    rows[-1], cols[-1] = height - (ny - 1) * by, width - (nx - 1) * bx  # the edge tiles' true size
    area = np.outer(rows, cols)
    idx = np.minimum((ink / area * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx.ravel(), minlength=bins).astype(np.float64)
    return counts / counts.sum()


# a histogram mode's row: the HistogramSpec fields it takes, each with the name and least value its messages use;
# its bins of a bit array, given those fields; whether the ink count alone gives those bins; its token
_Mode = namedtuple("_Mode", "fields bins ink_only token")
_HISTOGRAMS = {  # histogram mode -> its row; a new mode is one row
    "binary": _Mode({}, lambda bits: _ink_bins(np.count_nonzero(bits), bits.size), True, "binary"),
    "block": _Mode({"block": ("block size", 1), "bins": ("bin count", 2)}, _block_bins, False, "block:<size>x<bins>"),
}
HISTOGRAM_MODES = tuple(_HISTOGRAMS)


@dataclass(frozen=True)
class HistogramSpec:
    """How image histograms are built for divergence measurements: a mode requires the fields its ``_HISTOGRAMS``
    row names (block mode's tile size ``block`` and ``bins``) and refuses the rest by name.  ``smoothing`` is None
    or a finite positive additive constant applied to every bin before renormalization."""

    mode: str = "binary"
    block: int | None = None
    bins: int | None = None
    smoothing: float | None = None

    def __post_init__(self):
        if self.mode not in HISTOGRAM_MODES:
            raise ValueError(f"unknown histogram mode {self.mode!r} (expected one of {HISTOGRAM_MODES})")
        takes = _HISTOGRAMS[self.mode].fields
        foreign = [k for k, v in vars(self).items() if v is not None and k not in ("mode", "smoothing", *takes)]
        if foreign:
            only = " and ".join(mode for mode, row in _HISTOGRAMS.items() if foreign[0] in row.fields)
            raise ValueError(f"{self.mode} mode does not take {foreign[0]} (only {only} mode does)")
        if any(getattr(self, field) is None for field in takes):
            raise ValueError(f"{self.mode} mode requires {' and '.join(what for what, _ in takes.values())}")
        for field, (what, least) in takes.items():
            _check_int(getattr(self, field), what, least)
        if self.smoothing is not None and not 0 < self.smoothing < math.inf:
            raise ValueError(f"additive constant must be > 0 and finite, got {self.smoothing}")


def _histogram_bins(bits: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    """The probability vector of a bit array's histogram, built per ``spec``."""
    row = _HISTOGRAMS[spec.mode]
    return row.bins(bits, *(getattr(spec, field) for field in row.fields))


def binary_histogram(img: BinaryImage) -> Histogram:
    """Two-bin histogram [p(bit=0), p(bit=1)]."""
    return Histogram(_histogram_bins(img.bits, HistogramSpec()))


def block_lightness_histogram(img: BinaryImage, block: int, bins: int) -> Histogram:
    """Histogram of per-tile mean ink density, binned uniformly over [0, 1].

    The image is partitioned into ``block`` x ``block`` tiles; edge tiles keep
    their true (smaller) size rather than being dropped.
    """
    return Histogram(_histogram_bins(img.bits, HistogramSpec("block", block, bins)))
