import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inkchannel import (
    BinaryImage,
    GrayImage,
    HalftoneSpec,
    Histogram,
    HistogramSpec,
    NoisePower,
    binary_entropy,
    build_histogram,
    euclidean_distance,
    gen_noise,
    halftone,
    image_relative_entropy,
    noise_entropy_curve,
    relative_entropy,
)
from inkchannel.channel import noise_density
from inkchannel.metrics import _kl_from, _kl_reference

import sweep_oracle
from conftest import constant_gray


def binimg(rows):
    return BinaryImage(np.array(rows, dtype=np.uint8))


def hist(*bins):
    return Histogram(np.array(bins, dtype=np.float64))


def kl_oracle(p, q):
    """Independent per-bin summation of sum p log2(p/q)."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            if qi == 0:
                return math.inf
            total += pi * math.log(pi / qi, 2)
    return total


@st.composite
def histogram_pairs(draw, bins=4):
    raw_p = draw(st.lists(st.floats(0.01, 1.0), min_size=bins, max_size=bins))
    raw_q = draw(st.lists(st.floats(0.01, 1.0), min_size=bins, max_size=bins))
    p = np.array(raw_p) / sum(raw_p)
    q = np.array(raw_q) / sum(raw_q)
    return Histogram(p / p.sum()), Histogram(q / q.sum())


# ---------------------------------------------------------------------------
# euclidean distance
# ---------------------------------------------------------------------------

def test_euclid_zero_on_equal():
    img = binimg([[1, 0], [0, 1]])
    assert euclidean_distance(img, img) == 0.0


def test_euclid_opposite_binary_images():
    zeros = BinaryImage(np.zeros((4, 4), dtype=np.uint8))
    ones = BinaryImage(np.ones((4, 4), dtype=np.uint8))
    assert euclidean_distance(zeros, ones) == 1.0


def test_euclid_counts_differing_fraction():
    a = binimg([[0, 0], [0, 0]])
    b = binimg([[1, 0], [0, 0]])
    assert euclidean_distance(a, b) == pytest.approx(0.5, abs=0)  # sqrt(1/4)


def test_euclid_on_gray_images():
    a = GrayImage(np.array([[0, 0]], dtype=np.uint8))
    b = GrayImage(np.array([[3, 4]], dtype=np.uint8))
    assert euclidean_distance(a, b) == pytest.approx(math.sqrt((9 + 16) / 2), rel=1e-12)


def test_euclid_rejects_mismatches():
    with pytest.raises(ValueError, match="dimension"):
        euclidean_distance(binimg([[1, 0]]), binimg([[1], [0]]))
    with pytest.raises(ValueError, match="kind"):
        euclidean_distance(binimg([[1]]), GrayImage(np.array([[1]], dtype=np.uint8)))


def test_euclid_is_a_metric_on_2x2_binary_images():
    images = [
        BinaryImage(np.array([(i >> k) & 1 for k in range(4)], dtype=np.uint8).reshape(2, 2))
        for i in range(16)
    ]
    d = [[euclidean_distance(a, b) for b in images] for a in images]
    for i in range(16):
        assert d[i][i] == 0.0
        for j in range(16):
            assert d[i][j] == d[j][i]
            for k in range(16):
                assert d[i][k] <= d[i][j] + d[j][k] + 1e-12


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------

def test_kl_zero_on_equal():
    p = hist(0.5, 0.5)
    assert relative_entropy(p, p) == 0.0


def test_kl_frozen_value():
    # independent summation oracle gives 0.2075187496394219 bits
    p, q = hist(0.5, 0.5), hist(0.25, 0.75)
    expected = kl_oracle([0.5, 0.5], [0.25, 0.75])
    assert expected == pytest.approx(0.2075187496394219, abs=1e-15)
    assert relative_entropy(p, q) == pytest.approx(expected, abs=1e-14)


def test_kl_support_mismatch_is_infinite():
    assert relative_entropy(hist(1.0, 0.0), hist(0.0, 1.0)) == math.inf
    assert relative_entropy(hist(0.5, 0.5), hist(1.0, 0.0)) == math.inf


def test_kl_zero_bins_in_p_contribute_nothing():
    assert relative_entropy(hist(0.0, 1.0), hist(0.5, 0.5)) == pytest.approx(1.0, abs=1e-14)


def test_kl_bin_count_mismatch():
    with pytest.raises(ValueError, match="bin-count"):
        relative_entropy(hist(0.5, 0.5), hist(0.25, 0.25, 0.5))


def test_kl_smoothing_keeps_everything_finite():
    p, q = hist(1.0, 0.0), hist(0.0, 1.0)
    v = relative_entropy(p, q, smoothing=1e-9)
    assert math.isfinite(v) and v > 0


def test_kl_smoothing_converges_to_unsmoothed():
    p, q = hist(0.4, 0.6), hist(0.7, 0.3)
    exact = relative_entropy(p, q)
    errs = [abs(relative_entropy(p, q, smoothing=lam) - exact) for lam in (1e-3, 1e-6, 1e-9)]
    assert errs[0] < 0.02
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[2] < 1e-7


def test_kl_rejects_bad_smoothing():
    with pytest.raises(ValueError):
        relative_entropy(hist(0.5, 0.5), hist(0.5, 0.5), smoothing=0.0)
    with pytest.raises(ValueError, match="finite"):
        relative_entropy(hist(0.5, 0.5), hist(0.5, 0.5), smoothing=math.inf)


@settings(max_examples=300, deadline=None)
@given(histogram_pairs())
def test_kl_non_negative_and_identity(pair):
    p, q = pair
    v = relative_entropy(p, q)
    assert v >= 0.0
    assert relative_entropy(p, p) == 0.0
    if np.abs(p.bins - q.bins).max() > 1e-6:
        assert v > 1e-12


@settings(max_examples=200, deadline=None)
@given(histogram_pairs())
def test_kl_matches_independent_oracle(pair):
    p, q = pair
    assert relative_entropy(p, q) == pytest.approx(kl_oracle(p.bins, q.bins), rel=1e-12, abs=1e-14)


def test_kl_matches_one_piece_oracle_bit_for_bit():
    """KL split into a per-task reference and a per-cell score returns the one-piece
    body's float exactly, inf included, on 2,400 seeded pairs with zero bins on either side."""
    rng = np.random.default_rng(14)
    seen = {"inf": 0, "finite": 0, "zero": 0}
    for i in range(2400):
        size = int(rng.integers(2, 65))
        p, q = (rng.integers(0, 50, size) * (rng.random(size) >= rng.random()) for _ in range(2))
        p[rng.integers(size)] += 1  # a histogram has some mass
        q = p.copy() if i % 10 == 0 else q + (q.sum() == 0)
        p, q = p / p.sum(), q / q.sum()
        for smoothing in (None, 1e-9, 0.5):
            got, want = _kl_from(_kl_reference(p, smoothing), q[np.newaxis])[0], sweep_oracle.kl(p, q, smoothing)
            assert got == want, (p, q, smoothing, got, want)
            seen["inf" if math.isinf(got) else "zero" if got == 0.0 else "finite"] += 1
    assert min(seen.values()) >= 200, seen


def test_row_wise_kl_is_relative_entropy_of_each_row():
    """_kl_from scores a block row by row: each row's float is relative_entropy's on that row alone, bit for
    bit, over blocks that mix finite rows, rows within float dust of p (whose sum can land in the -1e-15
    clip band) and, unsmoothed, rows that empty a bin p fills (inf)."""
    rng = np.random.default_rng(27)
    seen = {"inf": 0, "finite": 0, "clip band": 0}
    for _ in range(300):
        size = int(rng.integers(2, 17))
        p = rng.random(size) * (rng.random(size) > 0.25)
        p[rng.integers(size)] += 0.5
        p /= p.sum()
        rows = []
        for kind in rng.integers(0, 3, size=int(rng.integers(1, 9))):
            q = p * (1 + rng.normal(0, 1e-9, size)) if kind == 1 else rng.random(size) + 1e-3
            if kind == 2:
                q[np.argmax(p)] = 0.0
            rows.append(q / q.sum())
        block = np.array(rows)
        for smoothing in (1e-9, None):  # unsmoothed last, whose scores the checks below read
            got = _kl_from(_kl_reference(p, smoothing), block)
            want = [relative_entropy(Histogram(p), Histogram(q), smoothing) for q in block]
            assert [x.hex() for x in got] == [x.hex() for x in want], (p, block, smoothing)
        s = p > 0
        with np.errstate(divide="ignore"):
            raw = [float((p[s] * (np.log2(p[s]) - np.log2(q[s]))).sum()) for q in block]  # each row unclipped
        for value, q in zip(raw, got):
            key = "inf" if math.isinf(q) else "clip band" if -1e-15 < value < 0.0 else "finite"
            seen[key] += 1
            assert q == 0.0 if key == "clip band" else q == value
    assert min(seen.values()) >= 50, seen


# ---------------------------------------------------------------------------
# image relative entropy
# ---------------------------------------------------------------------------

def test_image_kl_zero_on_equal():
    img = binimg([[1, 0], [1, 1]])
    assert image_relative_entropy(img, img, HistogramSpec()) == 0.0


def test_image_kl_on_known_densities():
    a = binimg([[1, 0], [0, 1]])  # density 0.5
    b = binimg([[1, 0], [0, 0]])  # density 0.25
    v = image_relative_entropy(a, b, HistogramSpec())
    assert v == pytest.approx(0.2075187496394219, abs=1e-14)


def test_image_kl_is_asymmetric():
    a = binimg([[1, 0], [0, 1]])
    b = binimg([[1, 0], [0, 0]])
    spec = HistogramSpec()
    assert image_relative_entropy(a, b, spec) != image_relative_entropy(b, a, spec)


def test_image_kl_size_independent():
    a = BinaryImage(np.tile([[1, 0]], (2, 2)))      # 2x4, density 0.5
    b = BinaryImage(np.tile([[1, 0]], (4, 8)))      # 4x16, density 0.5
    assert image_relative_entropy(a, b, HistogramSpec()) == 0.0


def test_histogram_spec_validation():
    with pytest.raises(ValueError):
        HistogramSpec(mode="lab")
    with pytest.raises(ValueError):
        HistogramSpec(mode="block")
    with pytest.raises(ValueError):
        HistogramSpec(mode="block", block=0, bins=4)
    with pytest.raises(ValueError):
        HistogramSpec(smoothing=-1.0)
    with pytest.raises(ValueError, match="finite"):
        HistogramSpec(smoothing=math.inf)
    with pytest.raises(ValueError, match="integer"):
        HistogramSpec(mode="block", block=4.0, bins=8)
    with pytest.raises(ValueError, match="integer"):
        HistogramSpec(mode="block", block=4, bins=8.5)
    HistogramSpec(mode="block", block=4, bins=8, smoothing=1e-9)


def test_build_histogram_dispatches():
    img = binimg([[1, 0], [0, 0]])
    assert build_histogram(img, HistogramSpec()).bins.tolist() == [0.75, 0.25]
    blocked = build_histogram(img, HistogramSpec(mode="block", block=2, bins=4))
    assert blocked.bins.tolist() == [0.0, 1.0, 0.0, 0.0]  # one tile of density 0.25


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_binary_entropy_extremes():
    assert binary_entropy(BinaryImage(np.zeros((3, 3), dtype=np.uint8))) == 0.0
    assert binary_entropy(BinaryImage(np.ones((3, 3), dtype=np.uint8))) == 0.0
    half = binimg([[1, 0], [0, 1]])
    assert binary_entropy(half) == 1.0


def test_binary_entropy_frozen_value():
    bits = np.zeros(100, dtype=np.uint8)
    bits[:11] = 1  # ones fraction 0.11
    v = binary_entropy(BinaryImage(bits.reshape(10, 10)))
    assert v == pytest.approx(0.499915958164528, abs=1e-14)


def test_noise_entropy_curve_extremes():
    rows = noise_entropy_curve(32, 32, [0.0, 1.0], reps=4, seed=9)
    assert rows[0] == (0.0, 0.0, 0.0)
    assert rows[1] == (1.0, 0.0, 0.0)


def test_noise_entropy_curve_reads_negative_zero_as_zero():
    (t, mean, std), = noise_entropy_curve(8, 8, [-0.0], reps=2, seed=9)
    assert (t, mean, std) == (0.0, 0.0, 0.0) and math.copysign(1.0, t) == 1.0


def test_noise_entropy_curve_peaks_at_half():
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    rows = noise_entropy_curve(64, 64, grid, reps=16, seed=3)
    means = [m for _, m, _ in rows]
    assert grid[means.index(max(means))] == 0.5


def test_noise_entropy_curve_deterministic():
    a = noise_entropy_curve(16, 16, [0.3, 0.6], reps=8, seed=5)
    b = noise_entropy_curve(16, 16, [0.3, 0.6], reps=8, seed=5)
    assert a == b


def test_noise_entropy_curve_rejects_bad_reps():
    with pytest.raises(ValueError):
        noise_entropy_curve(8, 8, [0.5], reps=0, seed=1)
    with pytest.raises(ValueError, match="reps must be an integer"):
        noise_entropy_curve(8, 8, [0.5], 2.0, 1)
    with pytest.raises(ValueError, match="width must be an integer"):
        noise_entropy_curve(8.0, 8, [0.5], 2, 1)


# ---------------------------------------------------------------------------
# closed-form cross-checks
# ---------------------------------------------------------------------------

def test_expected_distance_oracle():
    # E[e(v,g)^2] = f1*(1-d) + (1-f1)*d for threshold noise of achieved density d
    g = halftone(constant_gray(179, 256, 256), HalftoneSpec("fs"))
    f1 = g.ink_fraction()
    power = NoisePower(0.4)
    d = noise_density(power)
    expect = f1 * (1 - d) + (1 - f1) * d
    sq = []
    for rep in range(64):
        v = gen_noise(256, 256, power, 7000 + rep)
        sq.append(euclidean_distance(v, g) ** 2)
    sq = np.array(sq)
    stderr = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - expect) <= 3 * stderr


def test_divergence_minimizer_sits_at_halftone_density():
    # KL(Bern(f1) || Bern(d)) over a t grid bottoms out at the point nearest f1
    spec = HistogramSpec()
    g = halftone(constant_gray(77, 128, 128), HalftoneSpec("fs"))  # f1 ~ 0.698
    f1 = g.ink_fraction()
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    qs = []
    for i, t in enumerate(grid):
        v = gen_noise(128, 128, NoisePower(t), 8800 + i)
        qs.append(image_relative_entropy(g, v, spec))
    t_star = grid[qs.index(min(qs))]
    assert abs(t_star - f1) <= 0.05 + 1e-9
