"""The sweep's binary-histogram Q and its block-histogram bins against their
exact laws (tests/exact_oracle.py).

The exact mean and variance depend only on the halftone and the noise
probability ceil(256 t)/256, not on any pinned byte, so they check the
statistics of the noise draw, the channel and the histogram tiling without
a digest.
"""

import itertools
import math

import numpy as np
import pytest

from inkchannel import BlockSpec, HalftoneSpec, HistogramSpec, SweepSpec, halftone, read_gray, run_sweep, write_gray
from inkchannel.channel import _block_mask, _channel_bits, _noise_bits, _pcg64_states
from inkchannel.imagery import _histogram_bins

import exact_oracle
from conftest import gradient_gray, natural_gray

REPS = 64
SMOOTHING = 1e-9
ALGORITHMS = (HalftoneSpec("fs"), HalftoneSpec("blockd", h=5))
KINDS = {"bitflip": None, "erase": None, "block-erase": 3}  # kind -> erase block size


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("exact")
    write_gray(natural_gray(64, 64), root / "scene.pgm")
    write_gray(gradient_gray(64, 64), root / "ramp.pgm")
    return sorted(root.glob("*.pgm"))


def sweep_cells(corpus, kind, t_grid):
    """(algorithm label, image name, t) -> (halftone bits, list of q) from one sweep."""
    block = KINDS[kind]
    spec = SweepSpec(
        algorithms=ALGORITHMS,
        channel_kind=kind,
        t_grid=t_grid,
        reps=REPS,
        histogram=HistogramSpec(mode="binary", smoothing=SMOOTHING),
        master_seed=2011,
        corpus=corpus,
        block=None if block is None else BlockSpec(block),
    )
    bits = {(a.label(), p.name): halftone(read_gray(p), a).bits for a in ALGORITHMS for p in corpus}
    cells = {}
    for r in run_sweep(spec):
        cells.setdefault((r.algo, r.image, r.t), (bits[r.algo, r.image], []))[1].append(r.q_bits)
    assert len(cells) == len(ALGORITHMS) * len(corpus) * len(t_grid)
    return cells


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_sweep_mean_q_within_four_standard_errors_of_exact(corpus, kind):
    for (algo, image, t), (bits, qs) in sweep_cells(corpus, kind, (0.1, 0.3, 0.5)).items():
        assert len(qs) == REPS
        mean, var = exact_oracle.binary_q_moments(bits, kind, t, SMOOTHING, KINDS[kind])
        assert var > 0, (algo, image, t)  # a point mass would make the bound vacuous
        assert abs(np.mean(qs) - mean) <= 4 * math.sqrt(var / REPS), (algo, image, t, np.mean(qs), mean)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_sweep_q_at_zero_and_full_power_is_the_closed_form(corpus, kind):
    """At t = 0 and t = 1 the ink count after the channel is a point mass."""
    for (algo, image, t), (bits, qs) in sweep_cells(corpus, kind, (0.0, 1.0)).items():
        n, n1 = bits.size, int(np.count_nonzero(bits))
        if t == 0.0:
            m = n1
        elif kind == "bitflip":
            m = n - n1
        elif kind == "erase":
            m = n
        else:
            m = n1 + exact_oracle.erasable_zeros(bits, KINDS[kind])
        expected = float(exact_oracle.binary_q(n1, np.array([m]), n, SMOOTHING)[0])
        mean, var = exact_oracle.binary_q_moments(bits, kind, t, SMOOTHING, KINDS[kind])
        assert (mean, var) == (expected, 0.0)
        for q in qs:
            assert math.isclose(q, expected, rel_tol=1e-12, abs_tol=0.0), (algo, image, t, q, expected)


def test_exact_law_of_the_ink_count():
    """The pmf sums to 1 and has the closed-form mean of each kind."""
    bits = (np.random.Generator(np.random.PCG64(3)).random((9, 11)) < 0.4).astype(np.uint8)
    n, n1 = bits.size, int(bits.sum())
    for t in (0.0, 0.1, 0.5, 1.0):
        rho = exact_oracle.noise_probability(t)
        z = exact_oracle.erasable_zeros(bits, 3)
        means = {"bitflip": n1 + rho * (n - 2 * n1), "erase": n1 + rho * (n - n1), "block-erase": n1 + rho * z}
        for kind, expected in means.items():
            pmf = exact_oracle.ink_count_pmf(bits, kind, t, 3)
            assert pmf.size == n + 1
            assert math.isclose(pmf.sum(), 1.0, rel_tol=1e-12)
            assert math.isclose(float(np.dot(np.arange(n + 1), pmf)), expected, rel_tol=1e-12, abs_tol=1e-12)


BLOCK_HIST = HistogramSpec("block", block=8, bins=16)  # sweep-halftone-tiled's block:8x16
# a 256^2 scene as the benchmark sweeps, ragged tiles on both axes, and blocks past one side
BLOCK_SHAPES = ((256, 256), (97, 131), (5, 40), (13, 3))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_block_histogram_bins_within_four_standard_errors_of_exact(kind):
    """Over REPS noise fields, each bin's mean fraction of the block histogram after _channel_bits lies
    within 4 standard errors of its exact mean, on fs and blockd halftones of each shape."""
    live = set()
    for (height, width), algorithm, t in itertools.product(BLOCK_SHAPES, ALGORITHMS, (0.05, 0.2, 0.5)):
        g = halftone(natural_gray(width, height), algorithm).bits
        mask = _block_mask(g, KINDS[kind]) if KINDS[kind] else None
        fields = _noise_bits(g.shape, t, _pcg64_states(range(REPS)))  # seeds 0 .. REPS - 1
        fractions = np.array([_histogram_bins(_channel_bits(g, v, kind, mask), BLOCK_HIST) for v in fields])
        mean, var = exact_oracle.block_bin_moments(g, kind, t, BLOCK_HIST.block, BLOCK_HIST.bins, KINDS[kind])
        case = (height, width, algorithm.label(), t)
        assert math.isclose(mean.sum(), 1.0, rel_tol=1e-12), case
        assert (np.abs(fractions.mean(axis=0) - mean) <= 4 * np.sqrt(var / REPS) + 1e-12).all(), case
        if var.max() > 0:
            live.add((height, width))
    assert live == set(BLOCK_SHAPES)  # a point mass in every bin of every case would make the bound vacuous
