import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inkchannel import (
    BinaryImage,
    BlockSpec,
    ChannelConfig,
    NoisePower,
    apply_gate,
    bsc_capacity,
    derive_seed,
    gen_noise,
    noise_density,
    transmit,
    transmit_bitflip,
    transmit_block_erase,
    transmit_erase,
)
from inkchannel.channel import _noise_bits


def binimg(rows):
    return BinaryImage(np.array(rows, dtype=np.uint8))


def all_3x3_images():
    for code in range(512):
        bits = np.array([(code >> i) & 1 for i in range(9)], dtype=np.uint8).reshape(3, 3)
        yield BinaryImage(bits)


@st.composite
def binary_images(draw, max_side=12):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    vals = draw(st.lists(st.integers(0, 1), min_size=w * h, max_size=w * h))
    return BinaryImage(np.array(vals, dtype=np.uint8).reshape(h, w))


# ---------------------------------------------------------------------------
# noise generator
# ---------------------------------------------------------------------------

def test_gen_noise_extremes():
    zeros = gen_noise(16, 8, NoisePower(0.0), 1)
    ones = gen_noise(16, 8, NoisePower(1.0), 1)
    assert zeros.bits.sum() == 0
    assert ones.bits.sum() == 16 * 8
    assert (zeros.width, zeros.height) == (16, 8)


def test_gen_noise_half_power_density():
    field = gen_noise(512, 512, NoisePower(0.5), 7)
    sigma = math.sqrt(0.25 / (512 * 512))
    assert abs(field.ink_fraction() - 0.5) <= 3 * sigma


def test_gen_noise_density_tracks_quantized_threshold():
    # invariant: |ones fraction - ceil(t*256)/256| <= 4*sqrt(t(1-t)/N)
    n = 512 * 512
    for i, t in enumerate((0.1, 0.27, 0.3, 0.5, 0.73, 0.9)):
        power = NoisePower(t)
        field = gen_noise(512, 512, power, 1000 + i)
        bound = 4 * math.sqrt(t * (1 - t) / n)
        assert abs(field.ink_fraction() - noise_density(power)) <= bound


@pytest.mark.parametrize("t", [0, 0.0, -0.0, np.float64(-0.0)], ids=["int", "zero", "negative-zero", "numpy-negative-zero"])
def test_noise_power_zero_is_a_positive_float(t):
    power = NoisePower(t)
    assert type(power.t) is float and power.t == 0.0 and math.copysign(1.0, power.t) == 1.0


def test_noise_density_quantization():
    assert noise_density(NoisePower(0.0)) == 0.0
    assert noise_density(NoisePower(1.0)) == 1.0
    assert noise_density(NoisePower(0.3)) == 77 / 256
    assert noise_density(NoisePower(0.25)) == 0.25


def test_gen_noise_deterministic():
    a = gen_noise(32, 32, NoisePower(0.4), 99)
    b = gen_noise(32, 32, NoisePower(0.4), 99)
    c = gen_noise(32, 32, NoisePower(0.4), 100)
    assert np.array_equal(a.bits, b.bits)
    assert not np.array_equal(a.bits, c.bits)


def test_gen_noise_rejects_bad_dims():
    with pytest.raises(ValueError):
        gen_noise(0, 4, NoisePower(0.5), 1)
    for width, height in ((8.0, 8), (8, 8.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            gen_noise(width, height, NoisePower(0.5), 1)


def generator_noise_bits(shape, t, seed):
    """The noise field as numpy's uint8 integer draw makes it, thresholded in floats."""
    r = np.random.Generator(np.random.PCG64(seed)).integers(0, 256, size=shape, dtype=np.uint8)
    return (r < t * 256).view(np.uint8)


def test_noise_bits_match_generator_integers():
    """The raw-word draw against the Generator.integers byte stream on 240
    shapes, most of them with a pixel count that is not a multiple of 8."""
    rng = np.random.Generator(np.random.PCG64(2011))
    shapes = [(1, 1), (1, 7), (7, 1), (3, 3), (1, 8), (8, 1), (2, 4), (9, 9), (17, 3), (131, 97)]
    shapes += [tuple(int(n) for n in rng.integers(1, 70, size=2)) for _ in range(230)]
    ragged = 0
    for shape in shapes:
        ragged += shape[0] * shape[1] % 8 != 0
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        # 0.999 and 255/256 + 1e-12 have ceil(t*256) = 256 (all ink, no draw); 1e-300 and 5e-324 have 1
        for t in (0.0, 1 / 256, 0.5, 255 / 256, 1.0, float(rng.random()), 0.999, 255 / 256 + 1e-12, 1e-300, 5e-324):
            got = _noise_bits(shape, t, seed)
            assert got.dtype == np.uint8 and got.shape == shape
            assert np.array_equal(got, generator_noise_bits(shape, t, seed)), (shape, t, seed)
    assert ragged >= 150


def test_noise_power_range():
    with pytest.raises(ValueError):
        NoisePower(-0.1)
    with pytest.raises(ValueError):
        NoisePower(1.1)


# ---------------------------------------------------------------------------
# controlled gates
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(binary_images(), st.sampled_from(["not", "set1"]))
def test_gate_identity_on_zero_control(target, op):
    control = BinaryImage(np.zeros_like(target.bits))
    out = apply_gate(control, target, op)
    assert np.array_equal(out.bits, target.bits)


def test_gate_not_with_full_control_complements():
    target = binimg([[0, 1, 1], [1, 0, 0]])
    control = BinaryImage(np.ones_like(target.bits))
    out = apply_gate(control, target, "not")
    assert np.array_equal(out.bits, 1 - target.bits)


def test_gate_set1_erases_to_ink():
    out = apply_gate(binimg([[1, 0]]), binimg([[0, 0]]), "set1")
    assert out.bits.tolist() == [[1, 0]]


def test_gate_control_never_modified():
    control = binimg([[1, 1], [0, 1]])
    before = control.bits.copy()
    apply_gate(control, binimg([[0, 1], [1, 0]]), "not")
    assert np.array_equal(control.bits, before)


def test_gate_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        apply_gate(binimg([[1, 0]]), binimg([[1], [0]]), "not")


def test_gate_unknown_op():
    with pytest.raises(ValueError, match="gate op"):
        apply_gate(binimg([[1]]), binimg([[1]]), "xor")


def test_gate_matches_per_pixel_definition_on_2x2():
    # brute force over all 2x2 controls x targets
    def reference(c, t, op):
        out = []
        for cc, tt in zip(c.ravel(), t.ravel()):
            if cc == 1:
                out.append(1 - tt if op == "not" else 1)
            else:
                out.append(tt)
        return np.array(out).reshape(c.shape)

    for ci in range(16):
        c = np.array([(ci >> i) & 1 for i in range(4)], dtype=np.uint8).reshape(2, 2)
        for ti in range(16):
            t = np.array([(ti >> i) & 1 for i in range(4)], dtype=np.uint8).reshape(2, 2)
            for op in ("not", "set1"):
                got = apply_gate(BinaryImage(c), BinaryImage(t), op)
                assert np.array_equal(got.bits, reference(c, t, op))


# ---------------------------------------------------------------------------
# transmissions
# ---------------------------------------------------------------------------

def test_bitflip_power_extremes():
    g = binimg([[0, 1, 0], [1, 1, 0]])
    assert np.array_equal(transmit_bitflip(g, NoisePower(0.0), 5).bits, g.bits)
    assert np.array_equal(transmit_bitflip(g, NoisePower(1.0), 5).bits, 1 - g.bits)


def test_bitflip_density_on_blank_page():
    # flip count is binomial with the achieved (quantized) flip probability
    power = NoisePower(0.2)
    g = BinaryImage(np.zeros((512, 512), dtype=np.uint8))
    out = transmit_bitflip(g, power, 31)
    d = noise_density(power)
    sigma = math.sqrt(d * (1 - d) / (512 * 512))
    assert abs(out.ink_fraction() - d) <= 3 * sigma
    assert abs(out.ink_fraction() - 0.2) <= 0.01  # close to the nominal power too


def test_bitflip_involution_with_same_field():
    g = binimg(np.arange(64).reshape(8, 8) % 2)
    once = transmit_bitflip(g, NoisePower(0.6), seed=77)
    twice = transmit_bitflip(once, NoisePower(0.6), seed=77)
    assert np.array_equal(twice.bits, g.bits)


def test_erase_extremes_and_absorption():
    g = binimg([[0, 1], [1, 0]])
    assert np.array_equal(transmit_erase(g, NoisePower(0.0), 3).bits, g.bits)
    ones = BinaryImage(np.ones((4, 4), dtype=np.uint8))
    for t in (0.0, 0.3, 1.0):
        assert transmit_erase(ones, NoisePower(t), 3).bits.all()


def test_erase_density_on_blank_page():
    g = BinaryImage(np.zeros((512, 512), dtype=np.uint8))
    out = transmit_erase(g, NoisePower(0.3), 11)
    d = 77 / 256
    sigma = math.sqrt(d * (1 - d) / (512 * 512))
    assert abs(out.ink_fraction() - d) <= 3 * sigma


@settings(max_examples=40, deadline=None)
@given(binary_images(), st.floats(0, 1), st.integers(0, 2**32))
def test_erase_preserves_ink(g, t, seed):
    out = transmit_erase(g, NoisePower(t), seed)
    assert (out.bits >= g.bits).all()


def test_block_erase_blank_page_untouched():
    g = BinaryImage(np.zeros((9, 9), dtype=np.uint8))
    for t in (0.0, 0.5, 1.0):
        out = transmit_block_erase(g, NoisePower(t), BlockSpec(3), 21)
        assert out.bits.sum() == 0


def test_block_erase_full_power_floods_center_tiles():
    bits = np.zeros((9, 9), dtype=np.uint8)
    bits[4, 4] = 1  # center of the middle 3x3 tile
    out = transmit_block_erase(BinaryImage(bits), NoisePower(1.0), BlockSpec(3), 8)
    expect = np.zeros((9, 9), dtype=np.uint8)
    expect[3:6, 3:6] = 1
    assert np.array_equal(out.bits, expect)


def test_block_erase_power_zero_identity():
    g = binimg((np.arange(81).reshape(9, 9) * 7) % 2)
    out = transmit_block_erase(g, NoisePower(0.0), BlockSpec(3), 5)
    assert np.array_equal(out.bits, g.bits)


def test_block_erase_locality():
    # tiles whose center is 0 come through bit-identical
    rng = np.random.Generator(np.random.PCG64(3))
    bits = (rng.random((15, 13)) < 0.4).astype(np.uint8)
    g = BinaryImage(bits)
    size = 5
    out = transmit_block_erase(g, NoisePower(1.0), BlockSpec(size), 9)
    c = (size - 1) // 2
    for y0 in range(0, 15, size):
        for x0 in range(0, 13, size):
            tile = (slice(y0, y0 + size), slice(x0, x0 + size))
            yc, xc = y0 + c, x0 + c
            center_in = yc < 15 and xc < 13
            if not center_in or bits[yc, xc] == 0:
                assert np.array_equal(out.bits[tile], bits[tile])


def test_block_erase_is_monotone():
    g = binimg((np.arange(49).reshape(7, 7) * 3) % 2)
    out = transmit_block_erase(g, NoisePower(0.7), BlockSpec(3), 2)
    assert (out.bits >= g.bits).all()


def test_block_spec_must_be_odd():
    with pytest.raises(ValueError):
        BlockSpec(4)
    with pytest.raises(ValueError):
        BlockSpec(1)
    with pytest.raises(ValueError, match="integer"):
        BlockSpec(3.0)
    BlockSpec(3)


# ---------------------------------------------------------------------------
# dispatch and config
# ---------------------------------------------------------------------------

def test_transmit_dispatch_identity_at_zero_power():
    g = binimg([[1, 0], [0, 1]])
    cfg = ChannelConfig(kind="bitflip", power=NoisePower(0.0), seed=4)
    assert np.array_equal(transmit(g, cfg).bits, g.bits)


def test_transmit_deterministic():
    g = binimg((np.arange(64).reshape(8, 8) % 3 == 0).astype(int))
    cfg = ChannelConfig(kind="erase", power=NoisePower(0.4), seed=12)
    a, b = transmit(g, cfg), transmit(g, cfg)
    assert np.array_equal(a.bits, b.bits)


def test_transmit_erase_monotone_exhaustive_3x3():
    cfg = ChannelConfig(kind="erase", power=NoisePower(0.5), seed=40)
    for g in all_3x3_images():
        out = transmit(g, cfg)
        assert (out.bits >= g.bits).all()


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(kind="static", power=NoisePower(0.1), seed=1)
    with pytest.raises(ValueError):
        ChannelConfig(kind="bitflip", power=NoisePower(0.1), seed=1, block=BlockSpec(3))
    with pytest.raises(ValueError):
        ChannelConfig(kind="block-erase", power=NoisePower(0.1), seed=1)
    with pytest.raises(ValueError):
        ChannelConfig(kind="bitflip", power=NoisePower(0.1), seed=-1)
    with pytest.raises(ValueError, match="seed"):
        ChannelConfig(kind="bitflip", power=NoisePower(0.1), seed=1.5)
    with pytest.raises(ValueError, match="seed"):
        gen_noise(2, 2, NoisePower(0.1), 1.0)
    with pytest.raises(ValueError, match="seed"):
        derive_seed(2**64, 0)
    with pytest.raises(ValueError, match="seed"):
        derive_seed(3.0, 0)
    ChannelConfig(kind="block-erase", power=NoisePower(0.1), seed=1, block=BlockSpec(5))


# ---------------------------------------------------------------------------
# capacity and seed mixing
# ---------------------------------------------------------------------------

def test_bsc_capacity_anchors():
    assert bsc_capacity(0.5) == 0.0
    assert bsc_capacity(0.0) == 1.0
    assert bsc_capacity(1.0) == 1.0


def test_bsc_capacity_at_textbook_point():
    # frozen from direct evaluation of 1 - H2(0.11)
    assert bsc_capacity(0.11) == pytest.approx(0.500084041835472, abs=1e-14)


def test_bsc_capacity_symmetry():
    for p in (0.05, 0.2, 0.37):
        assert bsc_capacity(p) == pytest.approx(bsc_capacity(1 - p), abs=1e-14)


def test_bsc_capacity_rejects_out_of_range():
    with pytest.raises(ValueError):
        bsc_capacity(-0.01)
    with pytest.raises(ValueError):
        bsc_capacity(1.01)


def test_derive_seed_mixing():
    seen = {derive_seed(0, i) for i in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)
    assert all(0 <= s < 2**64 for s in list(seen)[:10])
