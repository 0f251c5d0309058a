import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from inkchannel import (
    BlockSpec,
    GrayImage,
    HalftoneSpec,
    HistogramSpec,
    RobustnessRecord,
    SweepError,
    SweepSpec,
    compare,
    corpus_average,
    difference_surface,
    is_epsilon_robust,
    read_records_csv,
    run_sweep,
    write_gray,
    write_records_csv,
)
from inkchannel import robustness
from inkchannel.robustness import write_aggregates_csv

import sweep_oracle
from conftest import natural_gray


def rec(algo="fs", image="a.pgm", t=0.1, h=None, rep=0, q=0.0, **kw):
    return RobustnessRecord(
        algo=algo,
        image=image,
        noise_kind=kw.get("noise_kind", "bitflip"),
        t=t,
        h=h,
        rep=rep,
        seed=kw.get("seed", 1),
        q_bits=q,
        e_dist=kw.get("e_dist", 0.0),
        f_in=kw.get("f_in", 0.5),
        f_out=kw.get("f_out", 0.5),
    )


def small_spec(corpus_dir, **overrides):
    base = dict(
        algorithms=(HalftoneSpec("fs"), HalftoneSpec("blockd", h=3)),
        channel_kind="bitflip",
        t_grid=(0.0, 0.2),
        reps=2,
        histogram=HistogramSpec(smoothing=1e-9),
        master_seed=42,
        corpus=tuple(sorted(str(p) for p in corpus_dir.glob("*.pgm"))),
    )
    base.update(overrides)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_cardinality(corpus_dir):
    spec = small_spec(corpus_dir, t_grid=(0.0, 0.1, 0.2, 0.3), reps=5)
    records = run_sweep(spec)
    assert len(records) == 2 * 3 * 4 * 5


def test_sweep_zero_noise_anchor(corpus_dir):
    records = run_sweep(small_spec(corpus_dir))
    at_zero = [r for r in records if r.t == 0.0]
    assert at_zero and all(r.q_bits == 0.0 and r.e_dist == 0.0 for r in at_zero)
    assert all(r.f_out == r.f_in for r in at_zero)


def test_sweep_deterministic(corpus_dir):
    spec = small_spec(corpus_dir)
    assert run_sweep(spec) == run_sweep(spec)


def test_sweep_jobs_invariant(corpus_dir, tmp_path):
    spec = small_spec(corpus_dir)
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    assert serial == parallel
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_records_csv(serial, a)
    write_records_csv(parallel, b)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_starts_no_idle_workers(corpus_dir, monkeypatch):
    started = []

    class RecordingPool:  # records max_workers and runs the tasks in-process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(robustness, "ProcessPoolExecutor", RecordingPool)
    image = str(sorted(corpus_dir.glob("*.pgm"))[0])
    one_task = small_spec(corpus_dir, algorithms=(HalftoneSpec("fs"),), corpus=(image,))
    two_tasks = small_spec(corpus_dir, corpus=(image,))
    assert run_sweep(one_task, jobs=4) == run_sweep(one_task)
    assert started == []
    assert run_sweep(two_tasks, jobs=4) == run_sweep(two_tasks)
    assert started == [2]
    for jobs in (0, -1, 2.0):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(one_task, jobs=jobs)


def test_sweep_records_carry_densities(corpus_dir):
    records = run_sweep(small_spec(corpus_dir, channel_kind="erase"))
    for r in records:
        assert 0.0 <= r.f_in <= 1.0
        assert r.f_out >= r.f_in  # erase only adds ink


def test_sweep_duplicate_corpus_counts_twice(corpus_dir):
    paths = sorted(str(p) for p in corpus_dir.glob("*.pgm"))
    spec = small_spec(corpus_dir, corpus=(paths[0], paths[0]))
    records = run_sweep(spec)
    assert len(records) == 2 * 2 * 2 * 2
    rows = corpus_average(records)
    assert all(row.n == 4 for row in rows)  # 2 copies x 2 reps


def test_sweep_unreadable_image_names_cell(corpus_dir, tmp_path):
    ghost = tmp_path / "ghost.pgm"
    spec = small_spec(corpus_dir, corpus=(str(ghost),))
    with pytest.raises(SweepError, match="ghost.pgm"):
        run_sweep(spec)


def test_sweep_failing_cell_names_itself(corpus_dir, tmp_path):
    tiny = tmp_path / "tiny.pgm"
    write_gray(GrayImage(np.full((4, 4), 90, dtype=np.uint8)), tiny)
    spec = small_spec(corpus_dir, corpus=(str(tiny),), histogram=HistogramSpec(mode="block", block=8, bins=16))
    with pytest.raises(SweepError, match=r"image '.*tiny\.pgm', t=0\.0, rep=0, seed=\d+: block 8 larger"):
        run_sweep(spec)


def test_sweep_block_erase_needs_block(corpus_dir):
    with pytest.raises(ValueError):
        small_spec(corpus_dir, channel_kind="block-erase")
    spec = small_spec(corpus_dir, channel_kind="block-erase", block=BlockSpec(3))
    records = run_sweep(spec)
    assert records


def test_sweep_spec_validation(corpus_dir):
    with pytest.raises(ValueError):
        small_spec(corpus_dir, algorithms=())
    with pytest.raises(ValueError):
        small_spec(corpus_dir, t_grid=())
    with pytest.raises(ValueError):
        small_spec(corpus_dir, corpus=())
    with pytest.raises(ValueError):
        small_spec(corpus_dir, reps=0)
    with pytest.raises(ValueError):
        small_spec(corpus_dir, t_grid=(0.5, 1.5))
    with pytest.raises(ValueError, match="seed"):
        small_spec(corpus_dir, master_seed=-1)
    with pytest.raises(ValueError, match="seed"):
        small_spec(corpus_dir, master_seed=1.5)
    with pytest.raises(ValueError, match="integer"):
        small_spec(corpus_dir, reps=2.0)


def test_sweep_spec_rejects_axes_that_would_merge(corpus_dir, tmp_path):
    with pytest.raises(ValueError, match="algorithm"):
        small_spec(corpus_dir, algorithms=(HalftoneSpec("fs"), HalftoneSpec("fs")))
    with pytest.raises(ValueError, match="threshold-l0.5"):
        small_spec(corpus_dir, algorithms=(HalftoneSpec("threshold"), HalftoneSpec("threshold", level=0.5)))
    with pytest.raises(ValueError, match="repeats t 0.1"):
        small_spec(corpus_dir, t_grid=(0.1, 0.1))
    path = sorted(corpus_dir.glob("*.pgm"))[0]
    twin = tmp_path / path.name
    twin.write_bytes(path.read_bytes())
    with pytest.raises(ValueError, match=path.name):
        small_spec(corpus_dir, corpus=(str(path), str(twin)))
    small_spec(corpus_dir, algorithms=(HalftoneSpec("blockd", h=3), HalftoneSpec("blockd", h=5)))
    small_spec(corpus_dir, corpus=(str(path), f"{path.parent}/./{path.name}"))  # one image listed twice


# ---------------------------------------------------------------------------
# the array sweep core against the object-level cells it replaced
# ---------------------------------------------------------------------------

# corpus -> (width, height) of its images; 131 x 97 and 5 x 120 leave ragged
# edge tiles, and a block of 99 or a histogram tile of 100 passes one side
ORACLE_SHAPES = {"tiny": ((1, 1), (9, 1), (1, 9)), "ragged": ((131, 97), (5, 120))}
ORACLE_HISTOGRAMS = {  # corpus -> histogram (mode, block, bins) that fit every image
    "tiny": (("binary", None, None), ("block", 1, 2)),
    "ragged": (("binary", None, None), ("block", 8, 16), ("block", 100, 5)),
}
ORACLE_CHANNELS = (("bitflip", None), ("erase", None), ("block-erase", 3), ("block-erase", 99))


@pytest.fixture(scope="module")
def oracle_corpora(tmp_path_factory):
    """Uniform noise at the tiny shapes, natural_gray scenes at the ragged ones."""
    root = tmp_path_factory.mktemp("oracle")
    rng = np.random.default_rng(3)
    corpora = {}
    for name, shapes in ORACLE_SHAPES.items():
        corpora[name] = tuple(str(root / f"{name}-{w}x{h}.pgm") for w, h in shapes)
        for path, (w, h) in zip(corpora[name], shapes):
            noise = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
            write_gray(noise if name == "tiny" else natural_gray(w, h), path)
    return corpora


def oracle_spec(corpus, kind, block, histogram, smoothing, t_grid=(0.0, 0.1, 0.3, 0.5, 1.0)):
    mode, hist_block, bins = histogram
    return SweepSpec(
        algorithms=(HalftoneSpec("fs"), HalftoneSpec("blockd", h=3)),
        channel_kind=kind,
        t_grid=t_grid,
        reps=2,
        histogram=HistogramSpec(mode=mode, block=hist_block, bins=bins, smoothing=smoothing),
        master_seed=5,
        corpus=corpus,
        block=None if block is None else BlockSpec(block),
    )


@pytest.mark.parametrize("smoothing", (None, 1e-9))
@pytest.mark.parametrize("corpus, histogram", [(c, h) for c, hists in ORACLE_HISTOGRAMS.items() for h in hists])
@pytest.mark.parametrize("kind, block", ORACLE_CHANNELS)
def test_sweep_core_matches_object_oracle(oracle_corpora, kind, block, corpus, histogram, smoothing):
    """Every record field of every cell is == the object-level path's, inf q included."""
    spec = oracle_spec(oracle_corpora[corpus], kind, block, histogram, smoothing)
    assert run_sweep(spec) == sweep_oracle.run_sweep(spec)


def test_sweep_core_fails_where_the_oracle_fails(oracle_corpora):
    """A histogram tile larger than a 1x1 image aborts in the same cell with the same message."""
    spec = oracle_spec(oracle_corpora["tiny"], "erase", None, ("block", 8, 16), None, t_grid=(0.5,))
    with pytest.raises(SweepError) as core:
        run_sweep(spec)
    with pytest.raises(SweepError) as oracle:
        sweep_oracle.run_sweep(spec)
    assert str(core.value) == str(oracle.value)
    assert "t=0.5, rep=0" in str(core.value)


@pytest.mark.parametrize("kind, block", ORACLE_CHANNELS)
def test_interleaved_shapes_match_object_oracle(oracle_corpora, tmp_path, kind, block):
    """A corpus whose shapes interleave (131x97, 5x120, a second 131x97, 1x1) gives the object path's
    records at jobs 1 and 2: every algorithm stacks each run of one shape's images."""
    second = tmp_path / "second-131x97.pgm"
    write_gray(GrayImage(np.random.default_rng(8).integers(0, 256, (97, 131), dtype=np.uint8)), second)
    corpus = (*oracle_corpora["ragged"], str(second), oracle_corpora["tiny"][0])
    spec = oracle_spec(corpus, kind, block, ("binary", None, None), 1e-9, t_grid=(0.0, 0.3, 1.0))
    spec = dataclasses.replace(spec, algorithms=(HalftoneSpec("fs"), HalftoneSpec("dotdif"), HalftoneSpec("blockd", h=3)))
    records = run_sweep(spec)
    assert records == sweep_oracle.run_sweep(spec)
    assert records == run_sweep(spec, jobs=2)


@pytest.mark.parametrize("fs_stack", (1, 2, 16))
def test_fs_runs_and_task_splits_match_object_oracle(oracle_corpora, tmp_path, monkeypatch, fs_stack):
    """Runs of consecutive same-shape images (three 131x97, 5x120, two 1x1, 131x97) give the object path's
    records for fs, dotdif and blockd whatever the task size: stacks of 1, 2 and up to 16 images at jobs 1,
    and jobs 2 and 3, where each algorithm splits the corpus into a task per worker."""
    monkeypatch.setattr(robustness, "_STACK", fs_stack)
    ragged, tiny = oracle_corpora["ragged"], oracle_corpora["tiny"][0]
    extra = []
    for i, shape in enumerate(((97, 131), (97, 131), (1, 1), (97, 131))):
        extra.append(str(tmp_path / f"extra{i}-{shape[1]}x{shape[0]}.pgm"))
        write_gray(GrayImage(np.random.default_rng(20 + i).integers(0, 256, shape, dtype=np.uint8)), extra[-1])
    corpus = (ragged[0], extra[0], extra[1], ragged[1], tiny, extra[2], extra[3])
    spec = oracle_spec(corpus, "erase", None, ("binary", None, None), 1e-9, t_grid=(0.3,))
    spec = dataclasses.replace(spec, algorithms=(HalftoneSpec("fs"), HalftoneSpec("dotdif"), HalftoneSpec("blockd", h=3)))
    expected = sweep_oracle.run_sweep(spec)
    for jobs in (1, 2, 3):
        assert run_sweep(spec, jobs=jobs) == expected, jobs


def test_fs_sweep_memory_does_not_grow_with_the_corpus(tmp_path, monkeypatch):
    """An fs sweep holds one stack of pixels and bits at a time: its tracemalloc peak over 24 same-shape
    images stays near its peak over 4."""
    monkeypatch.setattr(robustness, "_STACK", 2)
    corpus = []
    for i in range(24):
        corpus.append(str(tmp_path / f"scene{i:02d}.pgm"))
        write_gray(GrayImage(np.random.default_rng(i).integers(0, 256, (96, 96), dtype=np.uint8)), corpus[-1])
    peaks = []
    for n in (4, 24):
        spec = dataclasses.replace(
            oracle_spec(tuple(corpus[:n]), "bitflip", None, ("binary", None, None), None, t_grid=(0.5,)),
            algorithms=(HalftoneSpec("fs"),), reps=1,
        )
        tracemalloc.start()
        run_sweep(spec)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0], peaks


@pytest.mark.parametrize("algorithm", [
    HalftoneSpec("threshold"), HalftoneSpec("random", seed=7), HalftoneSpec("bayer"), HalftoneSpec("cdot"),
    HalftoneSpec("dotdif"), HalftoneSpec("blockd", h=3),
], ids=lambda alg: alg.algorithm)
def test_sweep_memory_does_not_grow_with_the_corpus(tmp_path, monkeypatch, algorithm):
    """Every other algorithm's sweep holds one stack at a time too, as the fs test above checks for fs:
    its tracemalloc peak over 24 same-shape images stays near its peak over 4."""
    monkeypatch.setattr(robustness, "_STACK", 2)
    corpus = []
    for i in range(24):
        corpus.append(str(tmp_path / f"scene{i:02d}.pgm"))
        write_gray(GrayImage(np.random.default_rng(i).integers(0, 256, (96, 96), dtype=np.uint8)), corpus[-1])
    peaks = []
    for n in (4, 24):
        spec = dataclasses.replace(
            oracle_spec(tuple(corpus[:n]), "bitflip", None, ("binary", None, None), None, t_grid=(0.5,)),
            algorithms=(algorithm,), reps=1,
        )
        tracemalloc.start()
        run_sweep(spec)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0], peaks


def test_tiled_sweep_memory_is_pinned(tmp_path):
    """A jobs-1 sweep of the benchmark's sweep-halftone-tiled shape (all seven halftoners over eight
    256x256 images, block erase, block:8x16 histograms) peaks at no more than 4 MiB under tracemalloc:
    dot diffusion's stack of eight, with its pixels, bounds it."""
    corpus = []
    for i in range(8):
        corpus.append(str(tmp_path / f"scene{i:02d}.pgm"))
        write_gray(GrayImage(np.random.default_rng(i).integers(0, 256, (256, 256), dtype=np.uint8)), corpus[-1])
    spec = dataclasses.replace(
        oracle_spec(tuple(corpus), "block-erase", 3, ("block", 8, 16), 1e-9, t_grid=(0.1, 0.3)),
        algorithms=(HalftoneSpec("threshold"), HalftoneSpec("random", seed=7), HalftoneSpec("fs"), HalftoneSpec("bayer"),
                    HalftoneSpec("cdot"), HalftoneSpec("dotdif"), HalftoneSpec("blockd", h=3)),
        reps=1,
    )
    tracemalloc.start()
    try:
        records = run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 7 * 8 * 2
    assert peak <= 4 * 2**20, peak / 2**20


def test_first_failure_in_canonical_order_is_reported(oracle_corpora, tmp_path):
    """Image 0 fails in its first cell (a histogram tile larger than 1x1) and image 1 cannot be read: each
    algorithm reads its whole run first, yet the error names image 0's cell, as the object path's does,
    with fs, dotdif or blockd as the first algorithm."""
    corpus = (oracle_corpora["tiny"][0], str(tmp_path / "ghost.pgm"))
    spec = oracle_spec(corpus, "bitflip", None, ("block", 8, 16), None, t_grid=(0.5,))
    algorithms = (HalftoneSpec("fs"), HalftoneSpec("dotdif"), HalftoneSpec("blockd", h=3))
    for first in range(len(algorithms)):
        spec = dataclasses.replace(spec, algorithms=algorithms[first:] + algorithms[:first])
        with pytest.raises(SweepError) as oracle:
            sweep_oracle.run_sweep(spec)
        for jobs in (1, 2):
            with pytest.raises(SweepError) as core:
                run_sweep(spec, jobs=jobs)
            assert str(core.value) == str(oracle.value)
        assert "tiny-1x1.pgm', t=0.5, rep=0" in str(oracle.value)
        assert f"algorithm {algorithms[first].label()!r}" in str(oracle.value)


@pytest.mark.parametrize("histogram", (("binary", None, None), ("block", 8, 16)))
@pytest.mark.parametrize("kind, block", (("bitflip", None), ("erase", None), ("block-erase", 3)))
def test_draw_free_cells_match_oracle_and_jobs(oracle_corpora, kind, block, histogram):
    """At t = 0, 0.999 and 1 every seed gives the same noise field, so rep 0 draws and the core's later reps
    reuse its cell, while 255/256 is the last t whose reps each draw; the records equal the object path's,
    at jobs 1 and 2, one seed per rep."""
    spec = oracle_spec(oracle_corpora["ragged"], kind, block, histogram, None, t_grid=(0.0, 255 / 256, 0.999, 1.0))
    spec = dataclasses.replace(spec, reps=3)
    records = run_sweep(spec)
    assert records == sweep_oracle.run_sweep(spec)
    assert records == run_sweep(spec, jobs=2)
    assert len({r.seed for r in records}) == len(records) == 2 * 2 * 4 * 3


# ---------------------------------------------------------------------------
# epsilon robustness
# ---------------------------------------------------------------------------

def test_perfect_algorithm_is_zero_robust():
    records = [rec(q=0.0, t=t) for t in (0.0, 0.1)]
    robust, worst, cell = is_epsilon_robust(records, epsilon=0.0)
    assert robust and worst == 0.0
    assert cell in records


def test_infinite_divergence_is_never_robust():
    records = [rec(q=0.0), rec(q=math.inf, t=0.9)]
    robust, worst, cell = is_epsilon_robust(records, epsilon=1e9)
    assert not robust and worst == math.inf and cell.t == 0.9


def test_threshold_check_reports_max():
    records = [rec(q=0.1, t=0.1), rec(q=0.3, t=0.2)]
    robust, worst, cell = is_epsilon_robust(records, epsilon=0.2)
    assert not robust and worst == 0.3 and cell.t == 0.2
    robust, _, _ = is_epsilon_robust(records, epsilon=0.3)
    assert robust


def test_epsilon_robust_validation():
    with pytest.raises(ValueError):
        is_epsilon_robust([], 0.1)
    with pytest.raises(ValueError):
        is_epsilon_robust([rec()], -0.1)
    with pytest.raises(ValueError, match="epsilon must be >= 0, got nan"):
        is_epsilon_robust([rec()], math.nan)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_self_is_tie():
    records = [rec(t=t, rep=r, q=0.1 * t) for t in (0.0, 0.1, 0.2) for r in (0, 1)]
    verdicts = compare(records, records)
    assert [v.verdict for v in verdicts] == ["TIE", "TIE", "TIE"]


def test_compare_zero_side_wins():
    k = [rec(algo="fs", t=t, q=0.0) for t in (0.1, 0.2)]
    t_side = [rec(algo="dotdif", t=t, q=0.5) for t in (0.1, 0.2)]
    verdicts = compare(k, t_side)
    assert all(v.verdict == "K_MORE_ROBUST" for v in verdicts)


def test_compare_antisymmetry():
    k = [rec(algo="fs", t=t, q=q) for t, q in ((0.1, 0.2), (0.2, 0.6))]
    t_side = [rec(algo="dotdif", t=t, q=q) for t, q in ((0.1, 0.5), (0.2, 0.1))]
    ab = compare(k, t_side)
    ba = compare(t_side, k)
    for x, y in zip(ab, ba):
        assert x.diff == -y.diff
        mirror = {"K_MORE_ROBUST": "T_MORE_ROBUST", "T_MORE_ROBUST": "K_MORE_ROBUST", "TIE": "TIE"}
        assert y.verdict == mirror[x.verdict]


def test_compare_respects_tie_tolerance():
    k = [rec(algo="fs", q=0.5)]
    t_side = [rec(algo="dotdif", q=0.5 + 1e-13)]
    assert compare(k, t_side)[0].verdict == "TIE"
    t_side = [rec(algo="dotdif", q=0.6)]
    assert compare(k, t_side)[0].verdict == "K_MORE_ROBUST"


def test_compare_grid_mismatch():
    k = [rec(t=0.1)]
    other = [rec(algo="dotdif", t=0.2)]
    with pytest.raises(ValueError, match="grid"):
        compare(k, other)


def test_compare_means_match_corpus_average():
    k = [rec(algo="fs", t=0.1, image=img, rep=r, q=q) for (img, r), q in
         zip([("a", 0), ("a", 1), ("b", 0), ("b", 1)], (0.1, 0.2, 0.3, 0.4))]
    t_side = [rec(algo="dotdif", t=0.1, image=img, rep=r, q=0.5) for img in "ab" for r in (0, 1)]
    verdicts = compare(k, t_side)
    agg = {(row.algo, row.t): row.mean_q for row in corpus_average(k + t_side)}
    assert verdicts[0].mean_k == agg[("fs", 0.1)]
    assert verdicts[0].mean_t == agg[("dotdif", 0.1)]


def test_compare_rejects_mixed_noise_kinds():
    # fs under bitflip (q 0.1) and erase (q 5.0) against dotdif at 0.2 under both
    k = [rec(algo="fs", q=0.1), rec(algo="fs", q=5.0, noise_kind="erase")]
    t_side = [rec(algo="dotdif", q=0.2, noise_kind=kind) for kind in ("bitflip", "erase")]
    with pytest.raises(ValueError, match=re.escape("first records mix noise kinds ['bitflip', 'erase']")):
        compare(k, t_side)
    with pytest.raises(ValueError, match="second records mix noise kinds"):
        compare(k[:1], t_side)
    assert compare(k[1:], t_side[1:])[0].verdict == "T_MORE_ROBUST"


def test_compare_rejects_sides_of_different_noise_kinds():
    # fs under bitflip against dotdif under erase ranks two channels, not two algorithms
    k, t_side = [rec(algo="fs", q=0.1)], [rec(algo="dotdif", q=0.2, noise_kind="erase")]
    with pytest.raises(ValueError, match="the two sides were recorded under different noise kinds: 'bitflip' vs 'erase'"):
        compare(k, t_side)
    with pytest.raises(ValueError, match="different noise kinds: 'erase' vs 'bitflip'"):
        compare(t_side, k)


def test_compare_names_a_side_with_empty_and_integer_h():
    side = [rec(algo="blockd", h=None), rec(algo="blockd", h=3)]
    message = "first records must cover exactly one algorithm, got [('blockd', 3), ('blockd', None)]"
    with pytest.raises(ValueError, match=re.escape(message)):
        compare(side, [rec(algo="fs")])


# ---------------------------------------------------------------------------
# difference surface
# ---------------------------------------------------------------------------

def _blockd_records(q_by_t_h):
    return [
        rec(algo="blockd", t=t, h=h, q=q)
        for (t, h), q in q_by_t_h.items()
    ]


def test_surface_zero_for_identical_sides():
    records = _blockd_records({(0.1, 5): 0.2, (0.2, 5): 0.4})
    t_vals, h_vals, surface = difference_surface(records, records)
    assert t_vals == [0.1, 0.2] and h_vals == [5]
    assert np.array_equal(surface, np.zeros((2, 1)))


def test_surface_zero_noise_row_and_signs():
    first = [rec(algo="fs", t=t, q=q) for t, q in ((0.0, 0.0), (0.1, 0.5))]
    second = _blockd_records({(0.0, 5): 0.0, (0.0, 11): 0.0, (0.1, 5): 0.2, (0.1, 11): 0.8})
    t_vals, h_vals, surface = difference_surface(first, second)
    assert surface[0].tolist() == [0.0, 0.0]  # t = 0 anchor row
    assert surface[1, 0] > 0  # blockd h=5 more robust here
    assert surface[1, 1] < 0
    # sign agrees with the compare verdict per cell
    for j, h in enumerate(h_vals):
        fam = [r for r in second if r.h == h and r.t == 0.1]
        verdict = compare([r for r in first if r.t == 0.1], fam)[0].verdict
        expect = "T_MORE_ROBUST" if surface[1, j] > 0 else "K_MORE_ROBUST"
        assert verdict == expect


def test_surface_requires_blockd_second():
    first = [rec(algo="fs", t=0.1)]
    with pytest.raises(ValueError, match="blockd"):
        difference_surface(first, first)


def test_surface_rejects_mixed_noise_kinds():
    first = [rec(algo="fs", q=0.1)]
    second = [rec(algo="blockd", h=5, q=q, noise_kind=kind) for q, kind in ((0.2, "bitflip"), (5.0, "erase"))]
    with pytest.raises(ValueError, match="second records mix noise kinds"):
        difference_surface(first, second)
    with pytest.raises(ValueError, match="first records mix noise kinds"):
        difference_surface(first + [rec(algo="fs", noise_kind="erase")], second[:1])


def test_surface_rejects_sides_of_different_noise_kinds():
    first = [rec(algo="fs", t=t) for t in (0.1, 0.2)]
    second = [rec(algo="blockd", t=t, h=5, noise_kind="erase") for t in (0.1, 0.2)]
    with pytest.raises(ValueError, match="different noise kinds: 'bitflip' vs 'erase'"):
        difference_surface(first, second)


def test_surface_names_a_blockd_side_with_empty_and_integer_h():
    first = [rec(algo="fs", t=0.1)]
    second = [rec(algo="blockd", t=0.1, h=None), rec(algo="blockd", t=0.1, h=3)]
    with pytest.raises(ValueError, match=re.escape("second records mix an empty h with h = [3]")):
        difference_surface(first, second)


def test_surface_rejects_incomplete_grid():
    first = [rec(algo="fs", t=t) for t in (0.1, 0.2)]
    second = _blockd_records({(0.1, 5): 0.1, (0.2, 5): 0.1, (0.1, 11): 0.1})  # missing (0.2, 11)
    with pytest.raises(ValueError, match="missing"):
        difference_surface(first, second)


def test_surface_cell_of_inf_against_inf_is_compares_tie():
    first = [rec(algo="fs", t=t, q=q) for t, q in ((0.5, 0.2), (1.0, math.inf))]
    second = _blockd_records({(0.5, 3): 0.1, (1.0, 3): math.inf, (0.5, 5): 0.3, (1.0, 5): 0.4})
    t_vals, h_vals, surface = difference_surface(first, second)
    assert (t_vals, h_vals) == ([0.5, 1.0], [3, 5])
    assert surface[1, 0] == 0.0 == compare(first, [r for r in second if r.h == 3])[1].diff
    assert surface[1, 1] == math.inf
    assert not np.isnan(surface).any()


def test_surface_refuses_a_blockd_side_over_other_images():
    first = [rec(algo="fs", image=image) for image in ("a.pgm", "b.pgm")]
    second = [rec(algo="blockd", h=3, image=image) for image in ("a.pgm", "b.pgm")]
    second.append(rec(algo="blockd", h=5, image="c.pgm"))
    message = "blockd h=5: record lists cover different (image, t) grids: ('a.pgm', 0.1) missing from the second records"
    with pytest.raises(ValueError, match=re.escape(message)):
        difference_surface(first, second)


def test_compare_names_the_t_a_side_lacks():
    first = [rec(algo="fs", t=t) for t in (0.1, 0.2)]
    second = [rec(algo="dotdif", t=0.1)]
    with pytest.raises(ValueError, match=re.escape("[0.1, 0.2] vs [0.1] (t=0.2 missing from the second records)")):
        compare(first, second)
    with pytest.raises(ValueError, match=re.escape("[0.1] vs [0.1, 0.2] (t=0.2 missing from the first records)")):
        compare(second, first)


def test_surface_cells_are_compares_diffs_on_a_sweep(corpus_dir):
    """An unsmoothed erase sweep, whose q is inf on both sides at t = 1: every cell is compare's diff at
    its h, bit for bit."""
    algorithms = (HalftoneSpec("fs"), HalftoneSpec("blockd", h=3), HalftoneSpec("blockd", h=5))
    spec = small_spec(corpus_dir, algorithms=algorithms, channel_kind="erase", t_grid=(0.0, 0.5, 1.0), reps=1,
                      histogram=HistogramSpec())
    records = run_sweep(spec)
    first = [r for r in records if r.algo == "fs"]
    t_vals, h_vals, surface = difference_surface(first, [r for r in records if r.algo == "blockd"])
    assert h_vals == [3, 5] and any(r.q_bits == math.inf for r in first)
    for j, h in enumerate(h_vals):
        verdicts = compare(first, [r for r in records if r.h == h])
        assert [v.t for v in verdicts] == t_vals
        assert surface[:, j].tobytes() == np.array([v.diff for v in verdicts]).tobytes()
    assert not np.isnan(surface).any()


# ---------------------------------------------------------------------------
# aggregation and CSV
# ---------------------------------------------------------------------------

def test_corpus_average_single_record():
    rows = corpus_average([rec(q=0.25)])
    assert len(rows) == 1
    assert rows[0].mean_q == 0.25 and rows[0].stderr_q == 0.0 and rows[0].n == 1


def test_corpus_average_zero_noise_column():
    records = [rec(algo=a, t=0.0, q=0.0) for a in ("fs", "dotdif")] + [rec(algo="fs", t=0.1, q=0.2)]
    rows = corpus_average(records)
    for row in rows:
        if row.t == 0.0:
            assert row.mean_q == 0.0


def test_corpus_average_sorted_and_grouped():
    records = [
        rec(algo="fs", t=0.2, q=0.4),
        rec(algo="fs", t=0.1, q=0.1),
        rec(algo="blockd", h=5, t=0.1, q=0.3),
        rec(algo="blockd", h=3, t=0.1, q=0.2),
    ]
    rows = corpus_average(records)
    assert [(r.algo, r.t, r.h) for r in rows] == [
        ("blockd", 0.1, 3),
        ("blockd", 0.1, 5),
        ("fs", 0.1, None),
        ("fs", 0.2, None),
    ]


def test_corpus_average_stderr():
    records = [rec(rep=i, q=q) for i, q in enumerate((0.1, 0.2, 0.3, 0.4))]
    row = corpus_average(records)[0]
    qs = np.array([0.1, 0.2, 0.3, 0.4])
    assert row.mean_q == pytest.approx(qs.mean())
    assert row.stderr_q == pytest.approx(qs.std(ddof=1) / 2)
    assert row.n == 4


def test_integer_and_float_t_give_the_same_outputs(tmp_path):
    """Records built with t=0, t=0.0 and t=-0.0 are one group whatever their
    order: the same rows, aggregates CSV bytes and difference_surface message."""
    zeros = [rec(t=0, image="a.pgm", q=0.1), rec(t=0.0, image="b.pgm", q=0.3), rec(t=-0.0, image="c.pgm", q=0.1)]
    blockd = [rec(algo="blockd", t=t, h=5) for t in (0.2, 0.3)]
    outputs = []
    for i, records in enumerate((zeros, zeros[::-1])):
        write_aggregates_csv(corpus_average(records), tmp_path / f"agg{i}.csv")
        with pytest.raises(ValueError, match="t grids differ") as err:
            difference_surface(records, blockd)
        outputs.append((corpus_average(records), (tmp_path / f"agg{i}.csv").read_bytes(), str(err.value)))
    assert outputs[0] == outputs[1]
    assert repr(outputs[0][0][0].t) == "0.0"


def test_records_csv_round_trip(tmp_path):
    records = [
        rec(algo="fs", image="x.pgm", t=0.1, rep=1, q=0.25, seed=12345),
        rec(algo="blockd", h=19, t=0.3, q=math.inf),
    ]
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    text = path.read_text()
    assert text.splitlines()[0] == "algo,image,noise_kind,t,h,rep,seed,q_bits,e_dist,f_in,f_out"
    assert "inf" in text
    assert read_records_csv(path) == records


@pytest.mark.parametrize("kind", ["bitflip", "erase"])
def test_sweep_records_read_back_with_the_same_types(corpus_dir, tmp_path, kind):
    """Every float field of a sweep record is a Python float, as in the record read back from its CSV,
    so repr(record) prints plain numbers, not np.float64(...)."""
    records = run_sweep(small_spec(corpus_dir, channel_kind=kind))
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    back = read_records_csv(path)
    assert back == records
    for built, read in zip(records, back):
        assert [type(v) for v in vars(built).values()] == [type(v) for v in vars(read).values()]
    assert {type(getattr(r, f)) for r in records for f in ("t", "q_bits", "e_dist", "f_in", "f_out")} == {float}
    assert "np." not in repr(records)


def test_record_invariants_enforced():
    with pytest.raises(ValueError):
        rec(q=-0.1)
    with pytest.raises(ValueError):
        rec(f_in=1.5)
    for bad in (dict(q=math.nan), dict(e_dist=math.nan), dict(e_dist=1.5), dict(f_out=math.inf), dict(f_in=math.nan)):
        with pytest.raises(ValueError):
            rec(**bad)
    for bad, message in ((dict(t=7.5), "noise power"), (dict(t=math.nan), "noise power"), (dict(seed=-1), "seed")):
        with pytest.raises(ValueError, match=message):
            rec(**bad)
    assert rec(q=math.inf).q_bits == math.inf
    for bad, message in (
        (dict(noise_kind="bogus"), "unknown channel kind 'bogus'"),
        (dict(algo="blockd", h=0), "block size h must be >= 1, got 0"),
        (dict(algo="blockd", h=-5), "block size h must be >= 1, got -5"),
        (dict(algo="blockd", h=2.5), "block size h must be an integer, got 2.5"),
        (dict(algo="fs", h=3), "h is recorded for blockd only, got h=3 for 'fs'"),
        (dict(rep=-1), "rep must be >= 0, got -1"),
        (dict(rep=1.5), "rep must be an integer"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            rec(**bad)
    assert rec(algo="blockd", h=None).h is None and rec(algo="blockd", h=3).h == 3


def test_read_records_csv_rejects_nan(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv([rec(q=0.25)], path)
    path.write_text(path.read_text() + "fs,a.pgm,bitflip,0.1,,1,1,nan,0.0,0.5,0.5\n")
    with pytest.raises(ValueError, match=r"records\.csv:3: divergence"):
        read_records_csv(path)


@pytest.mark.parametrize(
    "row, got",
    [
        pytest.param("fs,a.pgm,bitflip,0.1,,1,1,0.7,0.5,0.0,0.5,0.5", 12, id="column-inserted"),
        pytest.param("fs,a.pgm,bitflip,0.1,,1,1,0.5,0.0,0.5", 10, id="column-dropped"),
    ],
)
def test_read_records_csv_refuses_ragged_rows(tmp_path, row, got):
    path = tmp_path / "records.csv"
    write_records_csv([rec(q=0.25)], path)
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(ValueError, match=rf"records\.csv:3: expected 11 fields, got {got}$"):
        read_records_csv(path)


@pytest.mark.parametrize("where", ("mid-line", "line-start"))
def test_read_records_csv_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, where):
    path = tmp_path / "records.csv"
    write_records_csv([rec(q=0.25), rec(q=0.5)], path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"a.pgm", b"caf\xff.pgm") if where == "mid-line" else b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=r"records\.csv:3: 'utf-8' codec can't decode byte 0xff"):
        read_records_csv(path)


def test_read_records_csv_skips_blank_lines(tmp_path):
    records = [rec(q=0.25), rec(algo="blockd", h=3, q=0.5)]
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "", lines[1], "", "", lines[2], ""]) + "\n")
    assert read_records_csv(path) == records
    path.write_text(path.read_text() + "fs,a.pgm,bitflip,0.1\n")
    with pytest.raises(ValueError, match=r"records\.csv:8: expected 11 fields, got 4$"):
        read_records_csv(path)


def test_bitflip_q_matches_bernoulli_kl_oracle():
    # E q ~ KL(Bern(f_in) || Bern(f_in(1-t) + (1-f_in)t)) under ideal flips;
    # t = 0.25 makes the quantized flip probability equal to t exactly
    from inkchannel import NoisePower, halftone, image_relative_entropy, transmit_bitflip
    from conftest import constant_gray

    g = halftone(constant_gray(179, 256, 256), HalftoneSpec("fs"))
    f_in, t = g.ink_fraction(), 0.25
    ef = f_in * (1 - t) + (1 - f_in) * t
    oracle = f_in * math.log2(f_in / ef) + (1 - f_in) * math.log2((1 - f_in) / (1 - ef))
    spec = HistogramSpec()
    qs = np.array([
        image_relative_entropy(g, transmit_bitflip(g, NoisePower(t), 61000 + r), spec)
        for r in range(32)
    ])
    stderr = qs.std(ddof=1) / math.sqrt(32)
    assert abs(qs.mean() - oracle) <= 3 * stderr


def test_aggregates_csv_schema(tmp_path):
    rows = corpus_average([rec(q=0.5), rec(algo="blockd", h=7, q=math.inf)])
    path = tmp_path / "agg.csv"
    write_aggregates_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "algo,noise_kind,t,h,mean_q,stderr_q,n"
    assert any("inf" in line for line in lines[1:])
    assert any(",," in line for line in lines[1:])  # empty h for non-blockd
