"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure); tolerances and runtime budgets are pinned in the assertions.
"""

import math
import time

import numpy as np

from inkchannel import (
    BinaryImage,
    HalftoneSpec,
    Histogram,
    HistogramSpec,
    NoisePower,
    SweepSpec,
    bsc_capacity,
    euclidean_distance,
    gen_noise,
    halftone,
    image_relative_entropy,
    noise_entropy_curve,
    read_binary,
    read_gray,
    relative_entropy,
    run_sweep,
    transmit_bitflip,
    transmit_block_erase,
    transmit_erase,
    write_binary,
    write_gray,
)
from inkchannel.channel import BlockSpec, noise_density
from inkchannel.robustness import difference_surface
from inkchannel.cli import main as cli_main

from conftest import constant_gray, natural_gray


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_noise_entropy_peaks_at_half():
    start = time.perf_counter()
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    rows = noise_entropy_curve(256, 256, grid, reps=64, seed=20260809)
    elapsed = time.perf_counter() - start
    means = [m for _, m, _ in rows]
    argmax_t = grid[means.index(max(means))]
    report(
        1,
        "noise entropy argmax at t=0.5 (256x256, 64 reps, <10s)",
        argmax_t == 0.5 and elapsed < 10.0,
        f"argmax={argmax_t}, {elapsed:.2f}s",
    )


def test_criterion_02_bsc_capacity_anchors():
    ok = bsc_capacity(0.5) == 0.0 and bsc_capacity(0.0) == 1.0
    report(2, "BSC capacity exact at p=0.5 and p=0", ok,
           f"C(0.5)={bsc_capacity(0.5)!r}, C(0)={bsc_capacity(0.0)!r}")


def test_criterion_03_divergence_minimizer_tracks_density():
    start = time.perf_counter()
    spec = HistogramSpec()
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    details = []
    ok = True
    for i, gray_level in enumerate((179, 128, 77)):  # f1 near 0.3, 0.5, 0.7
        g = halftone(constant_gray(gray_level, 256, 256), HalftoneSpec("fs"))
        f1 = g.ink_fraction()
        qs = []
        for j, t in enumerate(grid):
            v = gen_noise(256, 256, NoisePower(t), 3000 + 100 * i + j)
            qs.append(image_relative_entropy(g, v, spec))
        t_star = grid[qs.index(min(qs))]
        details.append(f"f1={f1:.3f}->t*={t_star}")
        ok = ok and abs(t_star - f1) <= 0.05 + 1e-12
    elapsed = time.perf_counter() - start
    report(3, "argmin of Q(g||v) within one grid step of f1 (<10s)",
           ok and elapsed < 10.0, ", ".join(details) + f", {elapsed:.2f}s")


def test_criterion_04_monotone_degradation_under_bitflip():
    start = time.perf_counter()
    spec = HistogramSpec(smoothing=1e-9)
    g = halftone(natural_gray(256, 256), HalftoneSpec("fs"))
    f_in = g.ink_fraction()
    assert not 0.45 <= f_in <= 0.55, f"test image halftone density {f_in} too close to 0.5"
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    means, stderrs = [], []
    for i, t in enumerate(grid):
        qs = np.array([
            image_relative_entropy(g, transmit_bitflip(g, NoisePower(t), 40000 + 50 * i + r), spec)
            for r in range(32)
        ])
        means.append(qs.mean())
        stderrs.append(qs.std(ddof=1) / math.sqrt(32) if len(qs) > 1 else 0.0)
    ok = True
    for i in range(len(grid) - 1):
        step_err = math.hypot(stderrs[i], stderrs[i + 1])
        ok = ok and means[i + 1] >= means[i] - step_err
    elapsed = time.perf_counter() - start
    report(4, "mean q non-decreasing in t up to one stderr per step (<30s)",
           ok and elapsed < 30.0,
           f"f_in={f_in:.3f}, means={['%.4f' % m for m in means]}, {elapsed:.2f}s")


def test_criterion_05_closed_form_oracles():
    g = halftone(constant_gray(179, 256, 256), HalftoneSpec("fs"))
    f1 = g.ink_fraction()
    reps = 32

    # expected squared distance between noise and halftone
    power = NoisePower(0.4)
    d = noise_density(power)
    expect_sq = f1 * (1 - d) + (1 - f1) * d
    sq = np.array([
        euclidean_distance(gen_noise(256, 256, power, 52000 + r), g) ** 2 for r in range(reps)
    ])
    se_sq = sq.std(ddof=1) / math.sqrt(reps)
    ok_dist = abs(sq.mean() - expect_sq) <= 3 * se_sq

    # expected output density under bit-flip (t = 64/256 so achieved d == t)
    t = 0.25
    expect_f = f1 * (1 - t) + (1 - f1) * t
    fout = np.array([
        transmit_bitflip(g, NoisePower(t), 53000 + r).ink_fraction() for r in range(reps)
    ])
    se_f = fout.std(ddof=1) / math.sqrt(reps)
    ok_flip = abs(fout.mean() - expect_f) <= 3 * se_f

    report(5, "distance and bit-flip density oracles within 3 standard errors",
           ok_dist and ok_flip,
           f"e2 {sq.mean():.5f} vs {expect_sq:.5f} (se {se_sq:.2e}); "
           f"f_out {fout.mean():.5f} vs {expect_f:.5f} (se {se_f:.2e})")


def _all_3x3():
    images = []
    for code in range(512):
        bits = np.array([(code >> i) & 1 for i in range(9)], dtype=np.uint8).reshape(3, 3)
        images.append((BinaryImage(bits), tuple(bits.ravel().tolist())))
    return images


def test_criterion_06_exhaustive_gate_equivalence():
    from inkchannel import apply_gate

    start = time.perf_counter()
    images = _all_3x3()

    ok = True
    # controlled gates: brute-force per-pixel evaluation of the C-U rule
    for control, cflat in images:
        for target, tflat in images:
            want_not = tuple(1 - t if c else t for c, t in zip(cflat, tflat))
            got = apply_gate(control, target, "not")
            if tuple(got.bits.ravel().tolist()) != want_not:
                ok = False
            want_set1 = tuple(1 if c else t for c, t in zip(cflat, tflat))
            got = apply_gate(control, target, "set1")
            if tuple(got.bits.ravel().tolist()) != want_set1:
                ok = False

    # transmissions: per-pixel formulas, 16 seeds each, varying power
    block = BlockSpec(3)
    for target, tflat in images:
        for k, seed in enumerate(range(16)):
            power = NoisePower((k % 5) / 4)
            vflat = tuple(gen_noise(3, 3, power, seed).bits.ravel().tolist())
            want = tuple(t ^ v for t, v in zip(tflat, vflat))
            if tuple(transmit_bitflip(target, power, seed).bits.ravel().tolist()) != want:
                ok = False
            want = tuple(t | v for t, v in zip(tflat, vflat))
            if tuple(transmit_erase(target, power, seed).bits.ravel().tolist()) != want:
                ok = False
            center = tflat[4]  # single tile, center pixel (1, 1)
            want = tuple((v & center) | t for t, v in zip(tflat, vflat))
            if tuple(transmit_block_erase(target, power, block, seed).bits.ravel().tolist()) != want:
                ok = False

    elapsed = time.perf_counter() - start
    report(6, "gates and transmits match brute-force formulas on all 3x3 images (<60s)",
           ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_07_kl_property_suite():
    rng = np.random.Generator(np.random.PCG64(606))
    raw_p = rng.uniform(0.001, 1.0, size=(10_000, 5))
    raw_q = rng.uniform(0.001, 1.0, size=(10_000, 5))
    ok = True
    for i in range(10_000):
        p = Histogram(raw_p[i] / raw_p[i].sum())
        q = Histogram(raw_q[i] / raw_q[i].sum())
        v = relative_entropy(p, q)
        if not v >= 0.0:
            ok = False
        if relative_entropy(p, p) > 1e-12:
            ok = False
        if np.abs(p.bins - q.bins).max() > 1e-6 and v <= 1e-12:
            ok = False
    # a constructed asymmetric pair
    p = Histogram(np.array([0.5, 0.5]))
    q = Histogram(np.array([0.25, 0.75]))
    asym = relative_entropy(p, q) != relative_entropy(q, p)
    report(7, "KL non-negativity, identity (1e-12), and asymmetry", ok and asym)


def test_criterion_08_halftone_density_preservation():
    specs = [
        HalftoneSpec("fs"),
        HalftoneSpec("random", seed=88),
        HalftoneSpec("blockd", h=4),
        HalftoneSpec("blockd", h=19),
        HalftoneSpec("dotdif"),
    ]

    worst = 0.0
    ok = True
    for value in (32, 64, 128, 192, 224):
        darkness = (255 - value) / 255
        img = constant_gray(value, 256, 256)
        for spec in specs:
            err = abs(halftone(img, spec).ink_fraction() - darkness)
            worst = max(worst, err)
            if err > 0.03:
                ok = False
    report(8, "constant-gray ink fraction within 0.03 of darkness", ok, f"worst |err|={worst:.4f}")


def test_criterion_09_determinism_and_io(tmp_path, corpus_dir, capsys):
    # byte-identical sweep CSVs across runs and across --jobs
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "algorithms = fs, blockd:h=3\nkind = bitflip\nt_grid = 0, 0.2\n"
        f"reps = 2\nseed = 11\ncorpus = {corpus_dir}\n"
    )
    outs = []
    for name, jobs in (("r1.csv", "1"), ("r2.csv", "1"), ("r3.csv", "2")):
        out = tmp_path / name
        code = cli_main(["sweep", "--spec", str(cfg), "--out", str(out), "--jobs", jobs])
        assert code == 0
        outs.append((out.read_bytes(), out.with_suffix(".agg.csv").read_bytes()))
    capsys.readouterr()
    ok = outs[0] == outs[1] == outs[2]

    # bit-exact netpbm round-trips, including non-byte-aligned P4 rows
    rng = np.random.Generator(np.random.PCG64(4))
    bin_img = BinaryImage(rng.integers(0, 2, size=(3, 9), dtype=np.uint8))
    gray_img = natural_gray(37, 23)
    for ascii_format in (False, True):
        p = tmp_path / f"rt{ascii_format}.pbm"
        write_binary(bin_img, p, ascii_format=ascii_format)
        ok = ok and np.array_equal(read_binary(p).bits, bin_img.bits)
        q = tmp_path / f"rt{ascii_format}.pgm"
        write_gray(gray_img, q, ascii_format=ascii_format)
        ok = ok and np.array_equal(read_gray(q).pixels, gray_img.pixels)
    report(9, "sweeps byte-identical across runs/jobs; netpbm round-trips bit-exact", ok)


def test_criterion_10_difference_surface_workflow(corpus_dir):
    start = time.perf_counter()
    h_grid = (5, 11, 19, 25, 31)
    spec = SweepSpec(
        algorithms=(HalftoneSpec("fs"),) + tuple(HalftoneSpec("blockd", h=h) for h in h_grid),
        channel_kind="bitflip",
        t_grid=(0.0, 0.1, 0.2, 0.3),
        reps=2,
        histogram=HistogramSpec(smoothing=1e-9),
        master_seed=99,
        corpus=tuple(sorted(str(p) for p in corpus_dir.glob("*.pgm"))),
    )
    records = run_sweep(spec)
    fs_records = [r for r in records if r.algo == "fs"]
    blockd_records = [r for r in records if r.algo == "blockd"]
    t_vals, h_vals, surface = difference_surface(fs_records, blockd_records)
    elapsed = time.perf_counter() - start
    ok = (
        t_vals == [0.0, 0.1, 0.2, 0.3]
        and h_vals == list(h_grid)
        and surface.shape == (4, 5)
        and np.isfinite(surface).all()
        and (surface[0] == 0.0).all()  # t = 0 anchor row exactly zero
        and elapsed < 120.0
    )
    report(10, "FS vs BLOCKD surface complete with exact zero t=0 row (<2min)",
           ok, f"shape={surface.shape}, {elapsed:.1f}s")
