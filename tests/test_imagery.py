import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inkchannel import (
    BinaryImage,
    GrayImage,
    Histogram,
    NetpbmError,
    binary_histogram,
    block_lightness_histogram,
    read_binary,
    read_gray,
    read_image,
    write_binary,
    write_gray,
)
from inkchannel.imagery import _ascii_payload, _block_bins

import histogram_oracle
import netpbm_oracle


def gray(rows):
    return GrayImage(np.array(rows, dtype=np.uint8))


def binimg(rows):
    return BinaryImage(np.array(rows, dtype=np.uint8))


@st.composite
def gray_images(draw, max_side=12):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    vals = draw(st.lists(st.integers(0, 255), min_size=w * h, max_size=w * h))
    return GrayImage(np.array(vals, dtype=np.uint8).reshape(h, w))


@st.composite
def binary_images(draw, max_side=16):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    vals = draw(st.lists(st.integers(0, 1), min_size=w * h, max_size=w * h))
    return BinaryImage(np.array(vals, dtype=np.uint8).reshape(h, w))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_gray_image_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        GrayImage(np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError):
        GrayImage(np.array([[300, 0]]))
    for bad in (
        np.zeros((3, 0), dtype=np.uint8),
        np.zeros((2, 2, 1), dtype=np.uint8),
        np.zeros((2, 2)),
        np.array([[0, -1]]),
        np.array([[True, False]]),  # a mask is not a gray image
    ):
        with pytest.raises(ValueError):
            GrayImage(bad)


def test_binary_image_rejects_non_bits():
    with pytest.raises(ValueError):
        BinaryImage(np.array([[0, 2]]))
    with pytest.raises(ValueError):
        BinaryImage(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        BinaryImage(np.array([[0, -1]]))
    for bad in (
        np.zeros((0, 3), dtype=np.uint8),
        np.zeros((3, 0), dtype=np.uint8),
        np.zeros(5, dtype=np.uint8),
        np.zeros((2, 2, 1), dtype=np.uint8),
    ):
        with pytest.raises(ValueError):
            BinaryImage(bad)


def test_binary_image_accepts_bool_masks():
    bits = BinaryImage(np.array([[True, False], [False, True]])).bits
    assert bits.dtype == np.uint8 and bits.tolist() == [[1, 0], [0, 1]]


def test_images_are_immutable_after_construction():
    g = gray([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        g.pixels[0, 0] = 9
    b = binimg([[0, 1]])
    with pytest.raises(ValueError):
        b.bits[0, 0] = 1


def test_histogram_must_be_normalized_and_non_negative():
    Histogram(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        Histogram(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Histogram(np.array([-0.1, 1.1]))
    for bad in ([np.nan, 1.0], [np.nan, np.nan]):  # NaN fails both bin checks
        with pytest.raises(ValueError):
            Histogram(np.array(bad))


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def test_read_gray_p5_direct_decode(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = read_gray(path)
    assert (img.width, img.height) == (2, 2)
    assert img.pixels.ravel().tolist() == [0, 128, 255, 64]


def test_read_gray_p2_direct_decode(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2 1 1 255 200")
    img = read_gray(path)
    assert (img.width, img.height) == (1, 1)
    assert img.pixels[0, 0] == 200


def test_read_gray_rejects_large_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(NetpbmError, match="maxval"):
        read_gray(path)


def test_read_gray_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_gray(tmp_path / "nope.pgm")


def test_read_gray_malformed_header(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(NetpbmError, match="magic"):
        read_gray(path)
    path.write_bytes(b"P5\nx 1\n255\n\x00")
    with pytest.raises(NetpbmError, match="header"):
        read_gray(path)


def test_read_gray_truncated_payload(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(NetpbmError, match="truncated"):
        read_gray(path)


def test_read_gray_tolerates_header_comments(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n2 1 # dims\n255\n\x07\x08")
    img = read_gray(path)
    assert img.pixels.ravel().tolist() == [7, 8]


def test_write_gray_never_emits_comments_and_declares_width_first(tmp_path):
    img = gray([[1, 2, 3], [4, 5, 6]])  # 3 wide, 2 tall
    path = tmp_path / "a.pgm"
    write_gray(img, path)
    data = path.read_bytes()
    assert b"#" not in data
    assert data.startswith(b"P5\n3 2\n255\n")


def test_write_gray_single_pixel(tmp_path):
    path = tmp_path / "a.pgm"
    write_gray(gray([[0]]), path)
    assert read_gray(path).pixels.tolist() == [[0]]


@settings(max_examples=40, deadline=None)
@given(gray_images())
def test_gray_round_trip_both_forms(tmp_path_factory, img):
    root = tmp_path_factory.mktemp("rt")
    for ascii_format in (False, True):
        path = root / f"img{ascii_format}.pgm"
        write_gray(img, path, ascii_format=ascii_format)
        back = read_gray(path)
        assert np.array_equal(back.pixels, img.pixels)


# ---------------------------------------------------------------------------
# PBM
# ---------------------------------------------------------------------------

def test_read_binary_p1_direct_decode(tmp_path):
    path = tmp_path / "a.pbm"
    path.write_bytes(b"P1 2 1 1 0")
    img = read_binary(path)
    assert img.bits.ravel().tolist() == [1, 0]


def test_read_binary_p1_packed_digits(tmp_path):
    path = tmp_path / "a.pbm"
    path.write_bytes(b"P1\n2 2\n0110")
    assert read_binary(path).bits.ravel().tolist() == [0, 1, 1, 0]


def test_p4_round_trip_non_byte_aligned():
    img = BinaryImage((np.arange(27).reshape(3, 9) % 2).astype(np.uint8))
    assert img.width == 9  # rows pad to 2 bytes
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "a.pbm")
        write_binary(img, path)
        back = read_binary(path)
    assert np.array_equal(back.bits, img.bits)


def test_read_binary_empty_file(tmp_path):
    path = tmp_path / "a.pbm"
    path.write_bytes(b"")
    with pytest.raises(NetpbmError):
        read_binary(path)


def test_read_binary_payload_mismatch(tmp_path):
    path = tmp_path / "a.pbm"
    path.write_bytes(b"P4\n9 3\n\x00\x00")
    with pytest.raises(NetpbmError, match="truncated"):
        read_binary(path)
    path.write_bytes(b"P1\n2 2\n011")
    with pytest.raises(NetpbmError, match="truncated"):
        read_binary(path)


def test_write_binary_no_comments(tmp_path):
    path = tmp_path / "a.pbm"
    write_binary(binimg([[1, 0], [0, 1]]), path)
    assert b"#" not in path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(binary_images())
def test_binary_round_trip_both_forms(tmp_path_factory, img):
    root = tmp_path_factory.mktemp("rt")
    for ascii_format in (False, True):
        path = root / f"img{ascii_format}.pbm"
        write_binary(img, path, ascii_format=ascii_format)
        back = read_binary(path)
        assert np.array_equal(back.bits, img.bits)


# ---------------------------------------------------------------------------
# netpbm edge cases
# ---------------------------------------------------------------------------

NETPBM_CASES = [
    # comments anywhere, including inside and right after payload samples
    (b"P1\n3 2\n1 0#c\n1\n# line\n0 1 1\n", [[1, 0, 1], [0, 1, 1]]),
    (b"P2\n2 2\n255\n10 # x\n20#y\n30\n#\n40", [[10, 20], [30, 40]]),
    (b"P2 2 1 255 1#c", "truncated payload: expected 2 samples, got 1"),
    # P1 digits need no separators
    (b"P1\n3 2\n101\n011", [[1, 0, 1], [0, 1, 1]]),
    (b"P1 2 2 0110", [[0, 1], [1, 0]]),
    # int() accepts a sign and digit underscores
    (b"P2 2 1 255 +5 5_0", [[5, 50]]),
    # whatever follows the last sample is ignored
    (b"P2 1 1 255 7 junk 999", [[7]]),
    (b"P1 2 1 10xyz", [[1, 0]]),
    (b"P5 1 1 255\n\x07trailing", [[7]]),
    # truncated payloads
    (b"P2 2 2 255 1 2 3", "truncated payload: expected 4 samples, got 3"),
    (b"P1 2 2 011", "truncated payload: expected 4 bits, got 3"),
    (b"P1 2 2 ", "truncated payload: expected 4 bits, got 0"),
    (b"P5 2 2 255\n\x00", "truncated payload: expected 4 bytes, got 1"),
    (b"P4 9 2\n\x00\x00", "truncated payload: expected 4 bytes, got 2"),
    # bad samples; the first bad one in file order is reported
    (b"P2 1 1 255 256", "malformed payload sample 256 (out of 0..255)"),
    (b"P2 1 1 255 -1", "malformed payload sample -1 (out of 0..255)"),
    (b"P2 2 1 255 x 300", "malformed payload sample b'x'"),
    (b"P2 2 1 255 300 x", "malformed payload sample 300 (out of 0..255)"),
    (b"P2 1 1 255 99999999999999999999999", "malformed payload sample 99999999999999999999999"),
    (b"P1 3 1 1 2 x", "unexpected byte b'2' in P1 raster"),
    (b"P1 2 1 1", "truncated payload: expected 2 bits, got 1"),
    # headers claiming 10**6 x 10**6 pixels over a few bytes of payload
    (b"P1\n1000000 1000000\n0 1 1 0\n", "truncated payload: expected 1000000000000 bits, got 4"),
    (b"P2\n1000000 1000000\n255\n7 8\n", "truncated payload: expected 1000000000000 samples, got 2"),
    (b"P5 1000000 1000000 255\n\x00", "truncated payload: expected 1000000000000 bytes, got 1"),
    (b"P4 1000000 1000000\n\x00", "truncated payload: expected 125000000000 bytes, got 1"),
    # headers
    (b"P3 1 1 255 0", "not a PGM/PBM file"),
    (b"P2 0 1 255", "bad dimensions 0x1"),
    (b"P2 1 1", "malformed header: unexpected end of file"),
    (b"P5 1 1 255", "missing separator before raster"),
    (b"P2#a\n#b\n1#c\n1 255\n7", [[7]]),
    (b"P2 1 1#c", "malformed header: unexpected end of file"),
    (b"P5 1 1 255#c\n\x07", "missing separator before raster"),
    (b"P2 x 1 255 0", "malformed header width b'x'"),
    (b"P2 1 1 25x 0", "malformed header maxval b'25x'"),
    # P2 samples near the numpy decode's limits (kept last: a list result's id is its index)
    (b"P2 2 1 255 007 0255", [[7, 255]]),
    (b"P2 3 2 255 1\t2\n3\x0b4\x0c5\r6", [[1, 2, 3], [4, 5, 6]]),
    (b"P2 1 1 255 1\x00", "malformed payload sample b'1\\x00'"),
    (b"P2 1 1 255 1255", "malformed payload sample 1255 (out of 0..255)"),
    (b"P2 2 1 255 255 256", "malformed payload sample 256 (out of 0..255)"),
    (b"P2 1 1 255 \xff", "malformed payload sample b'\\xff'"),
]


@pytest.mark.parametrize("data, expected", NETPBM_CASES)
def test_netpbm_edge_cases(tmp_path, data, expected):
    path = tmp_path / "edge"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(NetpbmError, match=re.escape(expected)):
            read_image(path)
    else:
        img = read_image(path)
        values = img.pixels if isinstance(img, GrayImage) else img.bits
        assert values.tolist() == expected


_P2_TOKEN_BYTES = b"0123456789+-_x\x00\xff"
_P2_SPACES = b" \t\n\x0b\x0c\r"
_P2_PLAIN = sorted({str(v).zfill(w).encode() for v in range(256) for w in (1, 2, 3)})


def _p2_odd_token(rng) -> bytes:
    """A token past 255, zero-padded past 3 bytes, or of random bytes."""
    if rng.random() < 0.5:
        return str(rng.randint(0, 999)).zfill(rng.randint(1, 5)).encode()
    return bytes(rng.choices(_P2_TOKEN_BYTES, k=rng.randint(1, 4)))


def _p2_payload(rng) -> bytes:
    """Random P2 payload bytes: samples, and at a per-payload rate odd tokens
    (past 255, zero-padded past 3 bytes, or random bytes) and joined tokens;
    whitespace runs and '#' comments between them."""

    def pick(alphabet, lo, hi):
        return bytes(rng.choices(alphabet, k=rng.randint(lo, hi)))

    odd = rng.choice([0.0, 0.1, 0.4])
    parts = [pick(_P2_SPACES, 0, 1)]
    for _ in range(rng.randint(0, 11)):
        if rng.random() >= odd:
            parts.append(str(rng.randint(0, 255)).zfill(rng.randint(1, 3)).encode())
        else:
            parts.append(_p2_odd_token(rng))
        roll = rng.random()
        if roll < 0.1:
            parts.append(b"#" + pick(_P2_TOKEN_BYTES + _P2_SPACES, 0, 3) + pick(b"\n", 0, 1))
        elif roll >= odd / 2:
            parts.append(pick(_P2_SPACES, 1, 2))
    return b"".join(parts)


def _decoded(decode, text, count):
    try:
        arr = decode(text, count)
    except NetpbmError as exc:
        return str(exc)
    return arr.dtype.str, arr.tolist()


def test_p2_decode_matches_token_loop():
    """The numpy P2 decode gives the token loop's samples or its error message
    on 5,000 random payloads and sample counts, and on 200 long payloads of plain
    tokens with up to 3 odd ones; tokens the digit table reads and tokens it passes
    to int() must both occur."""
    rng = random.Random(13)
    plain = 0
    for _ in range(5000):
        text = _p2_payload(rng)
        count = rng.randint(1, 13)
        expected = _decoded(netpbm_oracle.gray_payload, text, count)
        assert _decoded(lambda t, c: _ascii_payload(t, True, c), text, count) == expected, (text, count)
        tokens = re.sub(rb"#[^\n]*", b" ", text).split()[:count]
        plain += len(tokens) == count and all(re.fullmatch(rb"[0-9]{1,3}", t) and int(t) <= 255 for t in tokens)
    assert 1000 < plain < 4000, plain
    outcomes, plain_tokens = {"samples": 0, "int() samples": 0, "message": 0}, set(_P2_PLAIN)
    for _ in range(200):
        n = rng.randint(1000, 5000)
        tokens = rng.choices(_P2_PLAIN, k=n)
        for _ in range(rng.randint(0, 3)):
            tokens[rng.randrange(n)] = _p2_odd_token(rng)
        text = b"".join(tok + bytes((sep,)) for tok, sep in zip(tokens, rng.choices(_P2_SPACES, k=n)))
        count = rng.randint(n - 2, n + 1)
        expected = _decoded(netpbm_oracle.gray_payload, text, count)
        assert _decoded(lambda t, c: _ascii_payload(t, True, c), text, count) == expected, (text, count)
        odd_read = any(tok not in plain_tokens for tok in tokens[:count])
        outcomes["message" if isinstance(expected, str) else "int() samples" if odd_read else "samples"] += 1
    assert outcomes["message"] >= 100 and outcomes["samples"] >= 20 and outcomes["int() samples"] >= 2, outcomes


def test_read_image_types_and_format_restrictions(tmp_path):
    pgm, pbm = tmp_path / "a.pgm", tmp_path / "a.pbm"
    write_gray(gray([[1, 2]]), pgm)
    write_binary(binimg([[1, 0]]), pbm)
    assert isinstance(read_image(pgm), GrayImage)
    assert isinstance(read_image(pbm), BinaryImage)
    with pytest.raises(NetpbmError, match="not a PGM file"):
        read_gray(pbm)
    with pytest.raises(NetpbmError, match="not a PBM file"):
        read_binary(pgm)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def test_binary_histogram_all_zeros():
    hist = binary_histogram(binimg([[0, 0], [0, 0]]))
    assert hist.bins.tolist() == [1.0, 0.0]


def test_binary_histogram_counts_ones():
    hist = binary_histogram(binimg([[1, 0, 1, 1]]))
    assert hist.bins.tolist() == [0.25, 0.75]


@settings(max_examples=60, deadline=None)
@given(binary_images())
def test_binary_histogram_sums_to_one_exactly(img):
    hist = binary_histogram(img)
    assert hist.bins.sum() == 1.0
    assert hist.bins[1] == img.ink_fraction()


@settings(max_examples=40, deadline=None)
@given(binary_images())
def test_block_histogram_reduces_to_binary(img):
    a = block_lightness_histogram(img, block=1, bins=2)
    b = binary_histogram(img)
    assert np.allclose(a.bins, b.bins, atol=0)


def test_block_histogram_all_ones_lands_in_top_bin():
    hist = block_lightness_histogram(binimg(np.ones((8, 8), dtype=int)), block=3, bins=5)
    assert hist.bins.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_block_histogram_checkerboard_mass_at_half():
    # oracle: every 2x2 tile of a checkerboard holds exactly 2 ones -> density 0.5
    board = np.indices((4, 4)).sum(axis=0) % 2
    tiles = [board[y : y + 2, x : x + 2].mean() for y in (0, 2) for x in (0, 2)]
    assert tiles == [0.5, 0.5, 0.5, 0.5]
    hist = block_lightness_histogram(BinaryImage(board.astype(np.uint8)), block=2, bins=4)
    # density 0.5 falls in bin 2 of [0,.25,.5,.75,1]
    assert hist.bins.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_block_histogram_rejects_oversized_block():
    img = binimg(np.zeros((4, 6), dtype=int))
    with pytest.raises(ValueError, match="larger"):
        block_lightness_histogram(img, block=7, bins=4)
    # larger than one dimension only is fine (edge tiles shrink)
    block_lightness_histogram(img, block=5, bins=4)


def test_block_histogram_parameter_validation():
    img = binimg([[0, 1]])
    with pytest.raises(ValueError):
        block_lightness_histogram(img, block=0, bins=4)
    with pytest.raises(ValueError):
        block_lightness_histogram(img, block=1, bins=1)


def reduceat_block_bins(bits, block, bins):
    """Per-tile ink counts from two int64 reduceat sums over the tile starts."""
    height, width = bits.shape
    ys, xs = np.arange(0, height, block), np.arange(0, width, block)
    ink = np.add.reduceat(np.add.reduceat(bits, ys, axis=0, dtype=np.int64), xs, axis=1, dtype=np.int64)
    area = np.outer(np.diff(ys, append=height), np.diff(xs, append=width))
    idx = np.minimum((ink / area * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx.ravel(), minlength=bins).astype(np.float64)
    return counts / counts.sum()


def test_block_bins_match_reduceat_sums():
    """The reshaped tile sums against the reduceat form on 300 seeded
    (shape, block, bins) cases: whole and ragged tiles, and blocks wider than
    one side of the image."""
    rng = np.random.Generator(np.random.PCG64(8))
    cases = [((5, 120), 100, 16), ((120, 5), 100, 16), ((1, 9), 9, 3), ((9, 1), 4, 2), ((16, 16), 8, 16)]
    for _ in range(295):
        height, width = (int(n) for n in rng.integers(1, 70, size=2))
        block = int(rng.integers(1, max(height, width) + 1))
        cases.append(((height, width), block, int(rng.integers(2, 33))))
    wider = 0
    for shape, block, bins in cases:
        wider += block > min(shape)
        bits = (rng.random(shape) < rng.random()).astype(np.uint8)
        assert np.array_equal(_block_bins(bits, block, bins), reduceat_block_bins(bits, block, bins)), (shape, block, bins)
    assert wider >= 50


def test_block_bins_match_padded_oracle_byte_for_byte():
    """_block_bins gives the bytes of the padding body it replaced on 400 seeded (shape, block, bins,
    density) cases: tiles that divide the image (no padding), ragged edge tiles, and blocks past one side."""
    rng = np.random.Generator(np.random.PCG64(21))
    cases = [((256, 256), 8, 16), ((97, 131), 8, 16), ((5, 120), 100, 16), ((16, 24), 8, 2), ((1, 1), 1, 2)]
    for _ in range(395):
        block = int(rng.integers(1, 12))
        # each side is a whole multiple of the block half the time
        height, width = (int(n) * (block if rng.random() < 0.5 else 1) for n in rng.integers(1, 40, size=2))
        cases.append(((height, width), min(block, max(height, width)), int(rng.integers(2, 33))))
    whole = 0
    for shape, block, bins in cases:
        whole += shape[0] % block == 0 and shape[1] % block == 0
        bits = (rng.random(shape) < rng.random()).astype(np.uint8)
        got, want = _block_bins(bits, block, bins), histogram_oracle.block_bins(bits, block, bins)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (shape, block, bins)
    assert whole >= 100
