import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from inkchannel import ALGORITHMS, GrayImage, HalftoneSpec, halftone, screen_catalog
from inkchannel.halftone import _DD_CHUNK, _dotdif_bits, _fs_bits, _halftone_bits

import halftone_oracle
from conftest import constant_gray


def gray(rows):
    return GrayImage(np.array(rows, dtype=np.uint8))


def one_image(img, spec):
    return halftone(img, spec).bits


ALL_SPECS = [
    HalftoneSpec("threshold", level=0.5),
    HalftoneSpec("threshold", level=0.01),
    HalftoneSpec("threshold", level=0.99),
    HalftoneSpec("random", seed=0),
    HalftoneSpec("random", seed=123),
    HalftoneSpec("fs"),
    HalftoneSpec("bayer", matrix_order=2),
    HalftoneSpec("bayer", matrix_order=4),
    HalftoneSpec("bayer", matrix_order=8),
    HalftoneSpec("cdot", matrix_order=4),
    HalftoneSpec("cdot", matrix_order=8),
    HalftoneSpec("dotdif"),
    HalftoneSpec("blockd", h=1),
    HalftoneSpec("blockd", h=3),
    HalftoneSpec("blockd", h=7),
]


# ---------------------------------------------------------------------------
# spec validation and registry
# ---------------------------------------------------------------------------

def test_spec_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        HalftoneSpec("dither")


def test_spec_requires_algorithm_parameters():
    with pytest.raises(ValueError, match="block size"):
        HalftoneSpec("blockd")
    with pytest.raises(ValueError, match="seed"):
        HalftoneSpec("random")
    with pytest.raises(ValueError, match="4 and 8"):
        HalftoneSpec("cdot", matrix_order=2)
    with pytest.raises(ValueError, match="seed"):
        HalftoneSpec("random", seed=7.5)
    with pytest.raises(ValueError, match="seed"):
        HalftoneSpec("random", seed=-1)
    with pytest.raises(ValueError, match="integer"):
        HalftoneSpec("blockd", h=2.5)
    with pytest.raises(ValueError, match="integer"):
        HalftoneSpec("bayer", matrix_order=4.0)
    assert HalftoneSpec("random", seed=np.uint64(7)).label() == "random-s7"


def test_spec_refuses_parameters_its_algorithm_does_not_take():
    with pytest.raises(ValueError, match=r"^fs does not take level \(it takes no parameter\)$"):
        HalftoneSpec("fs", level=1.5)
    with pytest.raises(ValueError, match=r"^fs does not take h \(it takes no parameter\)$"):
        HalftoneSpec("fs", h=0)
    valid = {"h": 3, "level": 0.5, "seed": 7, "matrix_order": 4}  # each a good value where it is taken
    accepted = set()
    for algorithm in ALGORITHMS:
        for field, value in valid.items():
            try:
                HalftoneSpec(algorithm, **{field: value})
            except ValueError as exc:
                assert str(exc).startswith(f"{algorithm} does not take {field} (it takes ")
            else:
                accepted.add((algorithm, field))
    assert accepted == {("threshold", "level"), ("random", "seed"), ("bayer", "matrix_order"),
                        ("cdot", "matrix_order"), ("blockd", "h")}


def test_spec_labels():
    assert HalftoneSpec("fs").label() == "fs"
    assert HalftoneSpec("threshold", level=0.7).label() == "threshold-l0.7"
    assert HalftoneSpec("threshold").label() == "threshold-l0.5"
    assert HalftoneSpec("random", seed=9).label() == "random-s9"
    assert HalftoneSpec("bayer").label() == "bayer-o8"
    assert HalftoneSpec("cdot", matrix_order=4).label() == "cdot-o4"
    assert HalftoneSpec("blockd", h=19).label() == "blockd"


# ---------------------------------------------------------------------------
# screens
# ---------------------------------------------------------------------------

def test_bayer_base_case():
    assert screen_catalog()["bayer-2"].tolist() == [[0, 2], [3, 1]]


def test_bayer_order_4_matches_classic_table():
    assert screen_catalog()["bayer-4"].tolist() == [
        [0, 8, 2, 10],
        [12, 4, 14, 6],
        [3, 11, 1, 9],
        [15, 7, 13, 5],
    ]


def test_bayer_recursive_block_structure():
    m4, m8 = screen_catalog()["bayer-4"], screen_catalog()["bayer-8"]
    assert np.array_equal(m8[:4, :4], 4 * m4)
    assert np.array_equal(m8[:4, 4:], 4 * m4 + 2)
    assert np.array_equal(m8[4:, :4], 4 * m4 + 3)
    assert np.array_equal(m8[4:, 4:], 4 * m4 + 1)


def test_all_screens_are_permutations():
    for name, m in screen_catalog().items():
        assert sorted(m.ravel().tolist()) == list(range(m.size)), name


def test_clustered_dot_grows_from_center():
    # the first dots of each screen sit strictly inside the tile
    for order in (4, 8):
        m = screen_catalog()[f"cdot-{order}"]
        interior = m[1:-1, 1:-1]
        assert interior.min() == 0
        edge_min = min(m[0].min(), m[-1].min(), m[:, 0].min(), m[:, -1].min())
        assert interior.ravel().tolist().count(0) == 1
        assert edge_min > interior.min()


def test_dot_diffusion_classes_structure():
    m = screen_catalog()["dotdif-classes"]
    assert m.shape == (8, 8)
    assert sorted(m.ravel().tolist()) == list(range(64))


# ---------------------------------------------------------------------------
# per-algorithm behavior
# ---------------------------------------------------------------------------

def test_threshold_comparison_rule():
    img = gray([[127, 128]])
    out = halftone(img, HalftoneSpec("threshold", level=0.5))
    assert out.bits.tolist() == [[1, 0]]  # 127 < 128 <= 128


def test_threshold_level_extremes():
    img = gray([[0, 100, 255]])
    assert halftone(img, HalftoneSpec("threshold", level=0.0)).bits.sum() == 0
    assert halftone(img, HalftoneSpec("threshold", level=1.0)).bits.sum() == 3  # every pixel <= 255 < 256


@given(st.integers(0, 255), st.floats(0, 1))
def test_threshold_matches_rule_pointwise(value, level):
    out = halftone(constant_gray(value, 4, 4), HalftoneSpec("threshold", level=level))
    expect = 1 if value < level * 256 else 0
    assert (out.bits == expect).all()


def test_fs_single_pixel():
    assert halftone(gray([[100]]), HalftoneSpec("fs")).bits.tolist() == [[1]]  # darkness 155/255 >= 0.5


def test_fs_mid_gray_preserves_density():
    out = halftone(constant_gray(128, 256, 256), HalftoneSpec("fs"))
    assert abs(out.ink_fraction() - 127 / 255) <= 0.01


def test_fs_error_diffusion_against_tiny_oracle():
    # direct hand evaluation on a 1x3 row [64, 64, 64]: darkness 0.74902
    # x0: 0.749 -> 1, err -0.251; x1: 0.749 - 0.251*7/16 = 0.639 -> 1, err -0.361
    # x2: 0.749 - 0.361*7/16 = 0.591 -> 1
    out = halftone(gray([[64, 64, 64]]), HalftoneSpec("fs"))
    assert out.bits.tolist() == [[1, 1, 1]]
    # and a row where the error flips the neighbor: [128, 128]
    # x0: 0.498 -> 0, err 0.498; x1: 0.498 + 0.498*7/16 = 0.716 -> 1
    out = halftone(gray([[128, 128]]), HalftoneSpec("fs"))
    assert out.bits.tolist() == [[0, 1]]


def test_bayer_constant_gray_matches_count_oracle():
    for order in (2, 4, 8):
        n2 = order * order
        for value in (0, 32, 101, 128, 200, 255):
            darkness = (255 - value) / 255
            count = sum(1 for k in range(n2) if darkness > (k + 0.5) / n2)
            out = halftone(constant_gray(value, order * 8, order * 8), HalftoneSpec("bayer", matrix_order=order))
            assert out.ink_fraction() == pytest.approx(count / n2, abs=0)


def test_cdot_mid_gray_inks_the_eight_most_central_positions():
    out = halftone(constant_gray(128, 16, 16), HalftoneSpec("cdot", matrix_order=4))
    screen = screen_catalog()["cdot-4"]
    expect = (screen < 8).astype(np.uint8)
    for y in range(0, 16, 4):
        for x in range(0, 16, 4):
            tile = out.bits[y : y + 4, x : x + 4]
            assert tile.sum() == 8
            assert np.array_equal(tile, expect)


def test_dotdif_mid_gray_density():
    out = halftone(constant_gray(128, 256, 256), HalftoneSpec("dotdif"))
    assert abs(out.ink_fraction() - 127 / 255) <= 0.03


def test_random_density_binomial():
    out = halftone(constant_gray(128, 512, 512), HalftoneSpec("random", seed=5))
    p = 127 / 255
    sigma = math.sqrt(p * (1 - p) / (512 * 512))
    assert abs(out.ink_fraction() - p) <= 3 * sigma


def test_random_extremes_for_any_seed():
    for seed in (0, 1, 999999):
        assert halftone(constant_gray(255, 8, 8), HalftoneSpec("random", seed=seed)).bits.sum() == 0
        assert halftone(constant_gray(0, 8, 8), HalftoneSpec("random", seed=seed)).bits.sum() == 64


def test_blockd_places_dot_at_darkest_position():
    out = halftone(gray([[0, 255], [255, 255]]), HalftoneSpec("blockd", h=2))
    assert out.bits.tolist() == [[1, 0], [0, 0]]  # mean darkness 0.25 -> one dot


def test_blockd_h1_is_pixel_rounding():
    img = gray([list(range(0, 256, 16))])
    out = halftone(img, HalftoneSpec("blockd", h=1))
    expect = [1 if (255 - v) / 255 >= 0.5 else 0 for v in range(0, 256, 16)]
    assert out.bits.tolist() == [expect]


def test_blockd_tie_break_is_row_major():
    # four equally dark pixels, k = 2: the first two in row-major order win
    out = halftone(constant_gray(127, 2, 2), HalftoneSpec("blockd", h=2))
    # darkness 128/255 each, sum 2.0078 -> k = 2
    assert out.bits.tolist() == [[1, 1], [0, 0]]


def test_blockd_edge_tiles_keep_true_size():
    img = constant_gray(0, 5, 5)
    out = halftone(img, HalftoneSpec("blockd", h=3))
    assert out.bits.all()


# shapes the tiling treats specially: one row or column, under one 8x8 class
# tile, whole tiles, and ragged tiles on both axes
EDGE_SHAPES = [(1, 1), (1, 2), (2, 1), (1, 40), (40, 1), (1, 9), (9, 1), (3, 5), (7, 7), (8, 8), (16, 24), (9, 17)]

# shapes where dot diffusion's polyphase layout has a class lattice that is empty (fewer than 8 rows or
# columns) or one tile shorter than another class's (a side of 8n + 1 to 8n + 7)
LATTICE_SHAPES = [(8, 9), (9, 8), (7, 15), (15, 16), (17, 23)]

# stack depths from one image to past two of dot diffusion's chunks
STACK_DEPTHS = range(1, 2 * _DD_CHUNK + 2)


# pixel values to draw from, None for all of 0-255: 127 and 128 sit beside the
# 0.5 quantizer tie and give blockd tiles of equal pixels; darkness in steps of
# 0.2 lets diffused error land on exactly 0.5 (about one image in six)
PALETTES = {"uniform": None, "ties": [0, 127, 128, 255], "fifths": [0, 51, 102, 153, 204, 255]}


@pytest.mark.parametrize("palette", sorted(PALETTES))
def test_vector_kernels_match_scalar_oracle(palette):
    """fs, dotdif and blockd bit for bit against the scalar loops on 100 shapes
    of 1-40 px a side, blockd h from 1 to past the image size."""
    rng = np.random.Generator(np.random.PCG64(sorted(PALETTES).index(palette)))
    shapes = EDGE_SHAPES + [tuple(rng.integers(1, 41, size=2)) for _ in range(100 - len(EDGE_SHAPES))]
    for height, width in shapes:
        values = PALETTES[palette]
        pixels = rng.integers(0, 256, size=(height, width)) if values is None else rng.choice(values, size=(height, width))
        img = GrayImage(pixels.astype(np.uint8))
        assert np.array_equal(one_image(img, HalftoneSpec("fs")), halftone_oracle.floyd_steinberg(img)), (height, width)
        assert np.array_equal(one_image(img, HalftoneSpec("dotdif")), halftone_oracle.dot_diffusion(img)), (height, width)
        for h in (int(rng.integers(1, 9)), int(rng.integers(1, max(height, width) + 5))):
            assert np.array_equal(one_image(img, HalftoneSpec("blockd", h=h)), halftone_oracle.block_d(img, h)), (height, width, h)


def test_fs_stack_matches_scalar_oracle_slice_by_slice():
    """_fs_bits over a stack of K same-shape images, each slice of its own palette, gives every slice the
    scalar loop's bits: K = 1 to 2 _DD_CHUNK + 1 on each edge and lattice shape, random K = 1-5 on 60
    shapes of 1-40 px a side."""
    rng = np.random.Generator(np.random.PCG64(17))
    stacks = [(shape, k) for shape in EDGE_SHAPES + LATTICE_SHAPES for k in STACK_DEPTHS]
    stacks += [(tuple(rng.integers(1, 41, size=2)), int(rng.integers(1, 6))) for _ in range(60)]
    for (height, width), k in stacks:
        slices = []
        for values in (PALETTES[name] for name in rng.choice(sorted(PALETTES), size=k)):
            drawn = rng.integers(0, 256, size=(height, width)) if values is None else rng.choice(values, size=(height, width))
            slices.append(drawn.astype(np.uint8))
        bits = _fs_bits(np.stack(slices, axis=-1))
        assert bits.shape == (height, width, k)
        for j, pixels in enumerate(slices):
            assert np.array_equal(bits[..., j], halftone_oracle.floyd_steinberg(GrayImage(pixels))), (height, width, k, j)


def screen_oracle(img, spec):
    return halftone_oracle.ordered_dither(img, f"{spec.algorithm}-{spec.matrix_order}")


# algorithm -> (its spec for one stack, drawn from rng and the image shape; the bits of one image, from
# the pixel loop in halftone_oracle, or from halftone() on that image alone for threshold); fs is above
STACK_ORACLES = {
    "threshold": (lambda rng, shape: HalftoneSpec("threshold", level=float(rng.random())), one_image),
    "random": (lambda rng, shape: HalftoneSpec("random", seed=int(rng.integers(1 << 63))),
               lambda img, spec: halftone_oracle.random_coin(img, spec.seed)),
    "bayer": (lambda rng, shape: HalftoneSpec("bayer", matrix_order=int(rng.choice([2, 4, 8]))), screen_oracle),
    "cdot": (lambda rng, shape: HalftoneSpec("cdot", matrix_order=int(rng.choice([4, 8]))), screen_oracle),
    "dotdif": (lambda rng, shape: HalftoneSpec("dotdif"), lambda img, spec: halftone_oracle.dot_diffusion(img)),
    "blockd": (lambda rng, shape: HalftoneSpec("blockd", h=int(rng.integers(1, max(shape) + 5))),
               lambda img, spec: halftone_oracle.block_d(img, spec.h)),
}


@pytest.mark.parametrize("algorithm", sorted(STACK_ORACLES))
def test_every_kernel_stack_matches_its_oracle_slice_by_slice(algorithm):
    """_halftone_bits over a stack of K same-shape images, each slice of its own palette, gives every
    slice its own image's bits: K = 1 to 2 _DD_CHUNK + 1 on each edge and lattice shape and random
    K = 1-5 on 60 shapes of 1-40 px a side, each stack with its own drawn parameter.  Dot diffusion's
    stacks of 5 and more cross its slice chunks, and those of 9 end in a chunk of one."""
    draw_spec, oracle = STACK_ORACLES[algorithm]
    rng = np.random.Generator(np.random.PCG64(sorted(STACK_ORACLES).index(algorithm)))
    stacks = [(shape, k) for shape in EDGE_SHAPES + LATTICE_SHAPES for k in STACK_DEPTHS]
    stacks += [(tuple(int(n) for n in rng.integers(1, 41, size=2)), int(rng.integers(1, 6))) for _ in range(60)]
    for (height, width), k in stacks:
        slices = []
        for values in (PALETTES[name] for name in rng.choice(sorted(PALETTES), size=k)):
            drawn = rng.integers(0, 256, size=(height, width)) if values is None else rng.choice(values, size=(height, width))
            slices.append(drawn.astype(np.uint8))
        spec = draw_spec(rng, (height, width))
        bits = _halftone_bits(np.stack(slices, axis=-1), spec)
        assert bits.shape == (height, width, k)
        for j, pixels in enumerate(slices):
            assert np.array_equal(bits[..., j], oracle(GrayImage(pixels), spec)), (height, width, k, j, spec)


@pytest.mark.parametrize("screen", [name for name in screen_catalog() if name != "dotdif-classes"])
def test_every_lightness_at_every_screen_cell_matches_the_oracle(screen):
    """Each screen over an image whose n x n tiles hold lightness 0, 1, ..., 255 in turn, so every
    lightness meets every cell, gives the pixel loop's bits."""
    algorithm, order = screen.split("-")
    n = int(order)
    pixels = np.repeat(np.arange(256, dtype=np.uint8), n * n).reshape(256 * n, n)
    img = GrayImage(pixels)
    assert np.array_equal(one_image(img, HalftoneSpec(algorithm, matrix_order=n)),
                          halftone_oracle.ordered_dither(img, screen))


# kernel -> the tracemalloc peak it may reach on a (256, 256, 8) stack, output included, in MiB: dot
# diffusion holds its float64 work buffer for 4 slices, a uint8 buffer for 4 slices' pixels and then
# their bits, and the output; FS its 32-wave ring, a padded copy of the pixels and the padded bits
STACK_PEAKS_MIB = {_dotdif_bits: 3.5, _fs_bits: 1.9}


@pytest.mark.parametrize("kernel", list(STACK_PEAKS_MIB), ids=lambda kernel: kernel.__name__)
def test_stack_kernel_memory_is_pinned(kernel):
    """The kernel's tracemalloc peak over a 256x256 stack of 8 images stays inside its pin."""
    stack = np.random.default_rng(5).integers(0, 256, (256, 256, 8), dtype=np.uint8)
    tracemalloc.start()
    try:
        kernel(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= STACK_PEAKS_MIB[kernel] * 2**20, peak / 2**20


@pytest.mark.parametrize("rows, bits", [
    ([[64, 68, 110], [228, 108, 192]], [[1, 1, 0], [0, 0, 1]]),
    ([[112, 7, 51], [184, 100, 32], [154, 222, 4]], [[1, 1, 1], [0, 1, 1], [0, 0, 1]]),
])
def test_fs_adds_sw_share_before_e_share(rows, bits):
    """Pixel (1, 1) gets its SW share from (0, 2) before its E share from
    (1, 0); adding the two in the other order rounds differently and flips
    a bit of each of these images (found by search; random images rarely
    show it)."""
    img = gray(rows)
    assert halftone_oracle.floyd_steinberg(img).tolist() == bits
    assert halftone(img, HalftoneSpec("fs")).bits.tolist() == bits


# ---------------------------------------------------------------------------
# cross-algorithm invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.label()}-h{s.h}")
def test_extreme_fidelity(spec):
    black = constant_gray(0, 24, 24)
    white = constant_gray(255, 24, 24)
    assert halftone(black, spec).bits.all(), "black must halftone to all ink"
    assert not halftone(white, spec).bits.any(), "white must halftone to no ink"


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.label()}-h{s.h}")
def test_dimension_preservation(spec):
    img = constant_gray(77, 13, 9)
    out = halftone(img, spec)
    assert (out.width, out.height) == (13, 9)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.label()}-h{s.h}")
def test_determinism(spec):
    rng = np.random.Generator(np.random.PCG64(11))
    img = GrayImage(rng.integers(0, 256, size=(21, 17), dtype=np.uint8))
    a, b = halftone(img, spec), halftone(img, spec)
    assert np.array_equal(a.bits, b.bits)


@pytest.mark.parametrize(
    "spec",
    [
        HalftoneSpec("fs"),
        HalftoneSpec("random", seed=17),
        HalftoneSpec("dotdif"),
        HalftoneSpec("blockd", h=4),
        HalftoneSpec("blockd", h=19),
    ],
    ids=lambda s: f"{s.label()}-h{s.h}",
)
def test_density_preservation_on_constant_gray(spec):
    for value in (32, 96, 128, 201):
        img = constant_gray(value, 128, 128)
        out = halftone(img, spec)
        assert abs(out.ink_fraction() - (255 - value) / 255) <= 0.03


@pytest.mark.parametrize(
    "spec",
    [HalftoneSpec("threshold", level=0.5), HalftoneSpec("bayer", matrix_order=8), HalftoneSpec("cdot", matrix_order=8)],
    ids=lambda s: s.label(),
)
def test_monotone_in_darkness(spec):
    counts = []
    for value in range(0, 256, 15):
        counts.append(int(halftone(constant_gray(value, 16, 16), spec).bits.sum()))
    assert counts == sorted(counts, reverse=True)
