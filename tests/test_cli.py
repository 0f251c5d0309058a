import csv
import hashlib
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from inkchannel import ALGORITHMS, BinaryImage, HistogramSpec, channel, read_binary, read_gray, write_binary, write_gray
from inkchannel import cli
from inkchannel.cli import _parse_algorithm_token, build_parser, format_scalar, main, parse_sweep_config
from inkchannel.robustness import RECORD_FIELDS

from conftest import constant_gray, natural_gray


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def gray128(tmp_path):
    path = tmp_path / "flat128.pgm"
    write_gray(constant_gray(128, 64, 64), path)
    return path


# ---------------------------------------------------------------------------
# halftone
# ---------------------------------------------------------------------------

def test_halftone_fs_prints_density(capsys, tmp_path, gray128):
    out = tmp_path / "g.pbm"
    code, stdout, _ = run(capsys, "halftone", "--algo", "fs", "--input", str(gray128), "--output", str(out))
    assert code == 0
    assert abs(float(stdout.strip()) - 127 / 255) <= 0.01
    img = read_binary(out)
    assert (img.width, img.height) == (64, 64)


def test_halftone_blockd_requires_h(capsys, tmp_path, gray128):
    code, _, stderr = run(
        capsys, "halftone", "--algo", "blockd", "--input", str(gray128), "--output", str(tmp_path / "g.pbm")
    )
    assert code == 2
    assert "requires a block size h" in stderr


def test_halftone_random_requires_seed(capsys, tmp_path, gray128):
    code, _, stderr = run(
        capsys, "halftone", "--algo", "random", "--input", str(gray128), "--output", str(tmp_path / "g.pbm")
    )
    assert code == 2
    assert "requires an explicit seed" in stderr


def test_halftone_threshold_level_one_is_all_black(capsys, tmp_path, gray128):
    out = tmp_path / "g.pbm"
    code, stdout, _ = run(
        capsys, "halftone", "--algo", "threshold:level=1", "--input", str(gray128), "--output", str(out)
    )
    assert code == 0
    assert stdout.strip() == "1"
    assert read_binary(out).bits.all()


# halftone of natural_gray(48, 40) per algorithm token: PBM sha256 and stdout, taken when halftone spelled
# the parameters as flags (--level 0.75, --seed 7, --order 4, --h 5)
HALFTONE_DIGESTS = {
    "threshold:level=0.75": ("5a7cf683fedcbc0651c9eda3cd8c0fcf47855680da87214110c3fa7809cf8716", "0.779166666667\n"),
    "random:seed=7": ("05076bd9e39ad62e536e486098145a212d7ae032a5647b54178c1341c009a433", "0.332812500000\n"),
    "fs": ("c0c0992372743f8ad7c9ba75e15bbcff159b69f2db27bf10c0918ae194bf2dbd", "0.326041666667\n"),
    "bayer:order=4": ("cd7b491ad4b1d2b1ab85ee1c3392ecfb0918fbd985fbdb5284f902e89c402360", "0.330729166667\n"),
    "cdot:order=4": ("929e450eb5a922d8b60e0e96e64511f29e4ed424ab6ca2d42e407caeb1b14bbe", "0.331250000000\n"),
    "dotdif": ("78dfc5e5b237ac1ea044cc2c347672d2c54f7be36b2220c657464ecf833d79a2", "0.328645833333\n"),
    "blockd:h=5": ("a1f86614b16e2bfda56929adca4cc8d9fa2833be37545302b2518b7017bc739e", "0.330208333333\n"),
}


def test_halftone_digests_cover_every_algorithm():
    assert [token.split(":")[0] for token in HALFTONE_DIGESTS] == list(ALGORITHMS)


@pytest.mark.parametrize("token", HALFTONE_DIGESTS)
def test_halftone_token_writes_the_flag_spelling_bytes(capsys, tmp_path, token):
    src, out = tmp_path / "scene.pgm", tmp_path / "g.pbm"
    write_gray(natural_gray(48, 40), src)
    code, stdout, stderr = run(capsys, "halftone", "--algo", token, "--input", str(src), "--output", str(out))
    assert (code, stderr) == (0, "")
    assert (hashlib.sha256(out.read_bytes()).hexdigest(), stdout) == HALFTONE_DIGESTS[token]


@pytest.mark.parametrize("flag", ["--h", "--level", "--order", "--seed"])
def test_halftone_takes_no_parameter_flags(capsys, tmp_path, gray128, flag):
    out = tmp_path / "g.pbm"
    code, stdout, stderr = run(
        capsys, "halftone", "--algo", "blockd:h=5", "--input", str(gray128), "--output", str(out), flag, "3"
    )
    assert code == 2 and stdout == "" and f"unrecognized arguments: {flag} 3" in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "token, message",
    [
        ("fs:h=3", "fs does not take h (it takes no parameter)"),
        ("fs:order=3", "fs does not take matrix_order (it takes no parameter)"),
        ("fs:h=3:order=4:level=0.9", "fs does not take h (it takes no parameter)"),
        ("threshold:seed=7", "threshold does not take seed (it takes level only)"),
        ("blockd:h=3:order=4", "blockd does not take matrix_order (it takes h only)"),
    ],
)
def test_halftone_refuses_a_parameter_the_algorithm_does_not_take(capsys, tmp_path, gray128, token, message):
    out = tmp_path / "g.pbm"
    code, stdout, stderr = run(capsys, "halftone", "--algo", token, "--input", str(gray128), "--output", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: --algo: algorithm {token!r}: {message}\n"
    assert not out.exists()


def test_halftone_missing_input_is_io_error(capsys, tmp_path):
    code, _, stderr = run(
        capsys, "halftone", "--algo", "fs", "--input", str(tmp_path / "none.pgm"), "--output", str(tmp_path / "g.pbm")
    )
    assert code == 3
    assert "none.pgm" in stderr


def test_oversized_headers_exit_3_before_allocating(capsys, tmp_path):
    p2, p1 = tmp_path / "big.pgm", tmp_path / "big.pbm"
    p2.write_bytes(b"P2\n1000000 1000000\n255\n7 8\n")
    p1.write_bytes(b"P1\n1000000 1000000\n0 1 1 0\n")
    assert len(p2.read_bytes()) < 30 and len(p1.read_bytes()) < 30
    out = str(tmp_path / "out.pbm")
    for argv in (
        ("halftone", "--algo", "fs", "--input", str(p2), "--output", out),
        ("transmit", "--kind", "bitflip", "--power", "0.1", "--seed", "1", "--input", str(p1), "--output", out),
    ):
        code, _, stderr = run(capsys, *argv)
        assert code == 3
        assert "truncated payload" in stderr and "Traceback" not in stderr


def test_format_mismatch_exit_codes(capsys, tmp_path, gray128):
    out = str(tmp_path / "out.pbm")
    code, _, stderr = run(
        capsys, "transmit", "--kind", "bitflip", "--power", "0.1", "--seed", "1", "--input", str(gray128), "--output", out
    )
    assert code == 2 and "not a PBM binary image" in stderr
    junk = tmp_path / "junk.txt"
    junk.write_bytes(b"hello")
    code, _, stderr = run(capsys, "metric", "--name", "euclid", "--a", str(junk), "--b", str(gray128))
    assert code == 3 and "not a PGM/PBM file" in stderr


def test_halftone_does_not_modify_input(capsys, tmp_path, gray128):
    before = gray128.read_bytes()
    run(capsys, "halftone", "--algo", "fs", "--input", str(gray128), "--output", str(tmp_path / "g.pbm"))
    assert gray128.read_bytes() == before


def test_p2_and_p5_copies_halftone_alike(capsys, tmp_path, monkeypatch):
    """Each make_corpus image read from P2 equals its P5 original, and every
    algorithm writes the same PBM bytes and stdout from either copy."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_corpus.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(tmp_path), "--count", "2", "--size", "48"])
    runpy.run_path(str(script), run_name="__main__")
    capsys.readouterr()
    tokens = {"random": "random:seed=3", "blockd": "blockd:h=5"}
    for p5 in sorted(tmp_path.glob("scene*.pgm")):
        p2 = p5.with_suffix(".p2.pgm")
        write_gray(read_gray(p5), p2, ascii_format=True)
        assert p2.read_bytes().startswith(b"P2") and np.array_equal(read_gray(p2).pixels, read_gray(p5).pixels)
        for algo in ALGORITHMS:
            outputs = []
            for src in (p5, p2):
                out = tmp_path / f"{src.stem}.{algo}.pbm"
                argv = ["halftone", "--algo", tokens.get(algo, algo), "--input", str(src), "--output", str(out)]
                code, stdout, stderr = run(capsys, *argv)
                assert code == 0, stderr
                outputs.append((out.read_bytes(), stdout))
            assert outputs[0] == outputs[1], (p5.name, algo)


# ---------------------------------------------------------------------------
# noise / transmit
# ---------------------------------------------------------------------------

def test_noise_writes_field(capsys, tmp_path):
    out = tmp_path / "v.pbm"
    code, stdout, _ = run(
        capsys, "noise", "--width", "32", "--height", "16", "--power", "0", "--seed", "1", "--output", str(out)
    )
    assert code == 0
    assert "target_density=0" in stdout
    field = read_binary(out)
    assert (field.width, field.height) == (32, 16)
    assert field.bits.sum() == 0


def test_out_of_memory_exits_3(capsys, tmp_path, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 838. MiB for an array")

    monkeypatch.setattr(channel, "gen_noise", no_memory)
    code, _, stderr = run(
        capsys, "noise", "--width", "30000", "--height", "30000", "--power", "0.1", "--seed", "1",
        "--output", str(tmp_path / "v.pbm"),
    )
    assert code == 3
    assert "error: Unable to allocate" in stderr and "Traceback" not in stderr


def test_transmit_zero_power_is_identity(capsys, tmp_path):
    src = tmp_path / "g.pbm"
    write_binary(BinaryImage((np.arange(64).reshape(8, 8) % 2).astype(np.uint8)), src)
    out = tmp_path / "gp.pbm"
    code, stdout, _ = run(
        capsys, "transmit", "--kind", "bitflip", "--power", "0", "--seed", "4",
        "--input", str(src), "--output", str(out),
    )
    assert code == 0
    assert out.read_bytes() == src.read_bytes()
    assert "f_in=0.500000000000" in stdout
    assert "f_out=0.500000000000" in stdout


def test_transmit_full_erase_blackens(capsys, tmp_path):
    src = tmp_path / "g.pbm"
    write_binary(BinaryImage(np.zeros((6, 6), dtype=np.uint8)), src)
    out = tmp_path / "gp.pbm"
    code, stdout, _ = run(
        capsys, "transmit", "--kind", "erase", "--power", "1", "--seed", "4",
        "--input", str(src), "--output", str(out),
    )
    assert code == 0
    assert read_binary(out).bits.all()
    assert "f_out=1" in stdout


def test_transmit_same_seed_same_output(capsys, tmp_path):
    src = tmp_path / "g.pbm"
    write_binary(BinaryImage((np.arange(100).reshape(10, 10) % 3 == 0).astype(np.uint8)), src)
    out1, out2 = tmp_path / "a.pbm", tmp_path / "b.pbm"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "transmit", "--kind", "bitflip", "--power", "0.3", "--seed", "9",
            "--input", str(src), "--output", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_transmit_block_flag_contract(capsys, tmp_path):
    src = tmp_path / "g.pbm"
    write_binary(BinaryImage(np.ones((6, 6), dtype=np.uint8)), src)
    code, _, stderr = run(
        capsys, "transmit", "--kind", "block-erase", "--power", "0.2", "--seed", "1",
        "--input", str(src), "--output", str(tmp_path / "o.pbm"),
    )
    assert code == 2 and "--block" in stderr
    code, _, stderr = run(
        capsys, "transmit", "--kind", "bitflip", "--power", "0.2", "--seed", "1", "--block", "3",
        "--input", str(src), "--output", str(tmp_path / "o.pbm"),
    )
    assert code == 2 and "--block" in stderr
    code, _, _ = run(
        capsys, "transmit", "--kind", "block-erase", "--power", "0.2", "--seed", "1", "--block", "3",
        "--input", str(src), "--output", str(tmp_path / "o.pbm"),
    )
    assert code == 0


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_metric_kl_identical_images(capsys, tmp_path):
    path = tmp_path / "a.pbm"
    write_binary(BinaryImage(np.eye(4, dtype=np.uint8)), path)
    code, stdout, _ = run(capsys, "metric", "--name", "kl", "--a", str(path), "--b", str(path))
    assert code == 0
    assert stdout.strip() == "0"


def test_metric_euclid_opposite(capsys, tmp_path):
    a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
    write_binary(BinaryImage(np.zeros((4, 4), dtype=np.uint8)), a)
    write_binary(BinaryImage(np.ones((4, 4), dtype=np.uint8)), b)
    code, stdout, _ = run(capsys, "metric", "--name", "euclid", "--a", str(a), "--b", str(b))
    assert code == 0
    assert stdout.strip() == "1"


@pytest.mark.parametrize(
    "value, text",
    [
        (0.0, "0"),
        (-0.0, "0"),
        (-7.0, "-7"),
        (0.5, "0.500000000000"),
        (1 / 3, "0.333333333333"),
        (1e-9, "0.00000000100000000000"),
        (-2.5e-7, "-0.000000250000000000"),
        (123456789012.5, "123456789012"),
        (1e15, "1000000000000000"),
        (1.2345e20, "123450000000000000000"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
    ],
)
def test_format_scalar(value, text):
    assert format_scalar(value) == text


def test_metric_kl_twelve_significant_digits(capsys, tmp_path):
    a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
    write_binary(BinaryImage(np.array([[1, 0], [0, 1]], dtype=np.uint8)), a)   # density 0.5
    write_binary(BinaryImage(np.array([[1, 0], [0, 0]], dtype=np.uint8)), b)   # density 0.25
    code, stdout, _ = run(capsys, "metric", "--name", "kl", "--a", str(a), "--b", str(b))
    assert code == 0
    assert stdout.strip() == "0.207518749639"


def test_metric_kl_inf(capsys, tmp_path):
    a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
    write_binary(BinaryImage(np.ones((2, 2), dtype=np.uint8)), a)
    write_binary(BinaryImage(np.zeros((2, 2), dtype=np.uint8)), b)
    code, stdout, _ = run(capsys, "metric", "--name", "kl", "--a", str(a), "--b", str(b))
    assert code == 0
    assert stdout.strip() == "inf"
    code, stdout, _ = run(
        capsys, "metric", "--name", "kl", "--a", str(a), "--b", str(b), "--smoothing", "additive:1e-9"
    )
    assert code == 0
    assert stdout.strip() != "inf"


def test_metric_kl_rejects_infinite_smoothing(capsys, tmp_path):
    path = tmp_path / "a.pbm"
    write_binary(BinaryImage(np.eye(4, dtype=np.uint8)), path)
    code, stdout, stderr = run(
        capsys, "metric", "--name", "kl", "--a", str(path), "--b", str(path), "--smoothing", "additive:inf"
    )
    assert code == 2 and stdout == ""
    assert "additive constant must be > 0 and finite, got inf" in stderr


def test_metric_euclid_dimension_mismatch_exit_2(capsys, tmp_path):
    a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
    write_binary(BinaryImage(np.zeros((2, 2), dtype=np.uint8)), a)
    write_binary(BinaryImage(np.zeros((3, 3), dtype=np.uint8)), b)
    code, _, stderr = run(capsys, "metric", "--name", "euclid", "--a", str(a), "--b", str(b))
    assert code == 2
    assert "mismatch" in stderr


def test_metric_entropy(capsys, tmp_path):
    path = tmp_path / "a.pbm"
    write_binary(BinaryImage(np.array([[1, 0], [0, 1]], dtype=np.uint8)), path)
    code, stdout, _ = run(capsys, "metric", "--name", "entropy", "--a", str(path))
    assert code == 0
    assert stdout.strip() == "1"


@pytest.mark.parametrize("name", ["euclid", "entropy"])
@pytest.mark.parametrize("flag, value", [("--hist", "block:8x16"), ("--smoothing", "additive:1e-9")])
def test_metric_refuses_histogram_flags_without_kl(capsys, tmp_path, name, flag, value):
    path = tmp_path / "a.pbm"
    write_binary(BinaryImage(np.eye(4, dtype=np.uint8)), path)
    b = ["--b", str(path)] if name == "euclid" else []
    code, stdout, stderr = run(capsys, "metric", "--name", name, "--a", str(path), *b, flag, value)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {flag} is not used with --name {name}\n"


def test_metric_kl_omitted_flags_mean_binary_and_no_smoothing(capsys, tmp_path):
    a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
    write_binary(BinaryImage(natural_gray(24, 20).pixels < 100), a)
    write_binary(BinaryImage(natural_gray(24, 20).pixels < 140), b)
    outputs = [
        run(capsys, "metric", "--name", "kl", "--a", str(a), "--b", str(b), *flags)
        for flags in ([], ["--hist", "binary"], ["--smoothing", "none"], ["--hist", "binary", "--smoothing", "none"])
    ]
    assert outputs[0][0] == 0 and outputs[0][1] != "" and outputs[0][2] == ""
    assert all(out == outputs[0] for out in outputs)


# ---------------------------------------------------------------------------
# entropy-curve
# ---------------------------------------------------------------------------

def test_entropy_curve_csv(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run(
        capsys, "entropy-curve", "--width", "32", "--height", "32",
        "--t-grid", "0,0.5,1", "--reps", "4", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mean,std,reps"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0 and float(first[2]) == 0.0
    assert "t=0.500000000000" in stdout


def test_entropy_curve_negative_zero_writes_zero(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    argv = ["--width", "8", "--height", "8", "--reps", "2", "--seed", "5", "--out", str(out)]
    code, stdout, _ = run(capsys, "entropy-curve", "--t-grid=-0,0.5", *argv)
    assert code == 0
    assert out.read_text().splitlines()[1].startswith("0.0,")
    assert "-0" not in out.read_text() and stdout.startswith("t=0 ")


# ---------------------------------------------------------------------------
# sweep and compare
# ---------------------------------------------------------------------------

def write_config(path, corpus, algorithms="fs, blockd:h=3", extra=""):
    path.write_text(
        "# test sweep\n"
        f"algorithms = {algorithms}\n"
        "kind = bitflip\n"
        "t_grid = 0, 0.2\n"
        "reps = 2\n"
        "seed = 7\n"
        f"corpus = {corpus}\n" + extra
    )


def test_sweep_end_to_end(capsys, tmp_path, corpus_dir):
    cfg = tmp_path / "sweep.cfg"
    write_config(cfg, corpus_dir)
    out = tmp_path / "records.csv"
    code, stdout, _ = run(capsys, "sweep", "--spec", str(cfg), "--out", str(out))
    assert code == 0
    assert out.exists()
    assert (tmp_path / "records.agg.csv").exists()
    assert (tmp_path / "records.meta.json").exists()
    lines = out.read_text().splitlines()
    assert lines[0] == "algo,image,noise_kind,t,h,rep,seed,q_bits,e_dist,f_in,f_out"
    assert len(lines) == 1 + 2 * 3 * 2 * 2
    assert "compare fs vs blockd" in stdout  # exactly two algorithms -> verdicts


def test_sweep_reruns_are_byte_identical(capsys, tmp_path, corpus_dir):
    cfg = tmp_path / "sweep.cfg"
    write_config(cfg, corpus_dir)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run(capsys, "sweep", "--spec", str(cfg), "--out", str(out1))[0] == 0
    assert run(capsys, "sweep", "--spec", str(cfg), "--out", str(out2), "--jobs", "2")[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "r1.agg.csv").read_bytes() == (tmp_path / "r2.agg.csv").read_bytes()


@pytest.mark.parametrize("kind, block, hist", (("bitflip", None, "binary"), ("erase", None, "block:8x4"),
                                               ("block-erase", 3, "block:8x4")))
def test_transmit_seed_replays_every_sweep_record(capsys, tmp_path, monkeypatch, kind, block, hist):
    """Each record of a sweep is replayed by the CLI verbs: halftone, transmit with the record's seed, metric kl
    with the sweep's histogram and smoothing, and metric euclid print its f_in, f_out, q and e."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_corpus.py"
    corpus = tmp_path / "corpus"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(corpus), "--count", "2", "--size", "32"])
    runpy.run_path(str(script), run_name="__main__")
    cfg, records = tmp_path / "replay.cfg", tmp_path / "records.csv"
    cfg.write_text(f"algorithms = fs, blockd:h=3\nkind = {kind}\nt_grid = 0.1, 0.3\nreps = 2\nseed = 9\n"
                   f"corpus = {corpus}\nhist = {hist}\n" + ("" if block is None else f"block = {block}\n"))
    assert run(capsys, "sweep", "--spec", str(cfg), "--out", str(records))[0] == 0
    rows = list(csv.DictReader(records.read_text().splitlines()))
    assert len(rows) == 2 * 2 * 2 * 2
    block_flag = [] if block is None else ["--block", str(block)]
    g, gp = str(tmp_path / "g.pbm"), str(tmp_path / "gp.pbm")
    for row in rows:
        want = {name: format_scalar(float(row[name])) for name in ("f_in", "f_out", "q_bits", "e_dist")}
        token = f"blockd:h={row['h']}" if row["h"] else row["algo"]
        steps = (
            (["halftone", "--algo", token, "--input", str(corpus / row["image"]), "--output", g], [want["f_in"]]),
            (["transmit", "--kind", kind, *block_flag, "--power", row["t"], "--seed", row["seed"], "--input", g,
              "--output", gp], [f"f_in={want['f_in']}", f"f_out={want['f_out']}"]),
            (["metric", "--name", "kl", "--a", g, "--b", gp, "--hist", hist, "--smoothing", "additive:1e-09"],
             [want["q_bits"]]),
            (["metric", "--name", "euclid", "--a", g, "--b", gp], [want["e_dist"]]),
        )
        for argv, lines in steps:
            code, stdout, stderr = run(capsys, *argv)
            assert (code, stdout.splitlines()) == (0, lines), (row, argv, stderr)


def test_sweep_negative_zero_t_writes_zero(capsys, tmp_path, monkeypatch, corpus_dir):
    """t_grid = -0 is the experiment of t_grid = 0: the same records, aggregates,
    meta.json and stdout bytes, with no -0.0 anywhere."""
    outputs = []
    for name, grid in (("zero", "0, 0.2"), ("negative-zero", "-0, 0.2")):
        run_dir = tmp_path / name
        run_dir.mkdir()
        write_config(run_dir / "sweep.cfg", corpus_dir)
        cfg = (run_dir / "sweep.cfg").read_text().replace("t_grid = 0, 0.2", f"t_grid = {grid}")
        (run_dir / "sweep.cfg").write_text(cfg)
        monkeypatch.chdir(run_dir)
        code, stdout, _ = run(capsys, "sweep", "--spec", "sweep.cfg", "--out", "records.csv")
        assert code == 0
        files = [(run_dir / f).read_bytes() for f in ("records.csv", "records.agg.csv", "records.meta.json")]
        outputs.append((stdout.encode(), *files))
    assert outputs[0] == outputs[1]
    assert not any(b"-0.0" in out for out in outputs[1])


def test_sweep_invalid_config_line_number(capsys, tmp_path, corpus_dir):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("algorithms = fs\nkind = bitflip\nwhat is this\n")
    code, _, stderr = run(capsys, "sweep", "--spec", str(cfg), "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert ":3:" in stderr


def test_sweep_unknown_algorithm_config(capsys, tmp_path, corpus_dir):
    cfg = tmp_path / "sweep.cfg"
    write_config(cfg, corpus_dir, algorithms="fs, dither")
    code, _, stderr = run(capsys, "sweep", "--spec", str(cfg), "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "dither" in stderr


@pytest.mark.parametrize(
    "algorithms, extra",
    [
        ("fs, fs", ""),
        ("threshold, threshold:level=0.5", ""),
        ("fs", "block = 3\n"),  # block with kind bitflip
    ],
)
def test_sweep_config_rejected_by_spec(capsys, tmp_path, corpus_dir, algorithms, extra):
    cfg = tmp_path / "sweep.cfg"
    write_config(cfg, corpus_dir, algorithms=algorithms, extra=extra)
    code, _, stderr = run(capsys, "sweep", "--spec", str(cfg), "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert str(cfg) in stderr and "Traceback" not in stderr


def test_sweep_failing_cell_exits_3(capsys, tmp_path, corpus_dir):
    tiny = tmp_path / "tiny.pgm"
    write_gray(constant_gray(90, 4, 4), tiny)
    cfg = tmp_path / "sweep.cfg"
    write_config(cfg, tiny, algorithms="fs", extra="hist = block:8x16\n")
    code, _, stderr = run(capsys, "sweep", "--spec", str(cfg), "--out", str(tmp_path / "r.csv"))
    assert code == 3
    assert "tiny.pgm" in stderr and "rep=0" in stderr and "Traceback" not in stderr


def test_sweep_jobs_below_one_exit_2(capsys, tmp_path, corpus_dir):
    cfg = tmp_path / "sweep.cfg"
    write_config(cfg, corpus_dir, algorithms="fs")
    code, _, stderr = run(capsys, "sweep", "--spec", str(cfg), "--out", str(tmp_path / "r.csv"), "--jobs", "0")
    assert code == 2
    assert "jobs must be >= 1" in stderr and "Traceback" not in stderr


def test_sweep_config_not_utf8_names_file_and_line(capsys, tmp_path, corpus_dir):
    cfg = tmp_path / "sweep.cfg"
    write_config(cfg, corpus_dir)
    lines = cfg.read_bytes().split(b"\n")
    lines[1] += b"  # caf\xff"
    cfg.write_bytes(b"\n".join(lines))
    code, stdout, stderr = run(capsys, "sweep", "--spec", str(cfg), "--out", str(tmp_path / "r.csv"))
    assert code == 2 and stdout == ""
    assert f"{cfg}:2: 'utf-8' codec can't decode byte 0xff" in stderr and "Traceback" not in stderr


def test_sweep_missing_config_exit_3(capsys, tmp_path):
    cfg = tmp_path / "absent.cfg"
    code, stdout, stderr = run(capsys, "sweep", "--spec", str(cfg), "--out", str(tmp_path / "r.csv"))
    assert code == 3 and stdout == ""
    assert str(cfg) in stderr and "Traceback" not in stderr


@pytest.mark.parametrize(
    "out, agg_out, named",
    [
        ("r.csv", "r.csv", "--out and --agg-out"),
        ("r.csv", "./sub/../r.csv", "--out and --agg-out"),
        ("r.csv", "r.meta.json", "--agg-out and the metadata path of --out"),
    ],
)
def test_sweep_refuses_outputs_that_overwrite_each_other(capsys, tmp_path, monkeypatch, corpus_dir, out, agg_out, named):
    """The records, aggregates and meta.json paths must name three files; a clash is refused before any cell runs."""
    write_config(tmp_path / "sweep.cfg", corpus_dir, algorithms="fs")
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.robustness, "run_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    code, stdout, stderr = run(capsys, "sweep", "--spec", "sweep.cfg", "--out", out, "--agg-out", agg_out)
    assert code == 2 and stdout == ""
    assert f"error: {named} name the same file" in stderr and "Traceback" not in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "sweep.cfg"]


def test_sweep_refuses_out_without_file_name(capsys, tmp_path, monkeypatch, corpus_dir):
    write_config(tmp_path / "sweep.cfg", corpus_dir, algorithms="fs")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.robustness, "run_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    code, stdout, stderr = run(capsys, "sweep", "--spec", "sweep.cfg", "--out", ".")
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: --out: ") and "Traceback" not in stderr


def test_sweep_zero_noise_rows_present(capsys, tmp_path, corpus_dir):
    cfg = tmp_path / "sweep.cfg"
    write_config(cfg, corpus_dir, algorithms="fs")
    out = tmp_path / "records.csv"
    assert run(capsys, "sweep", "--spec", str(cfg), "--out", str(out))[0] == 0
    zero_rows = [l for l in out.read_text().splitlines()[1:] if l.split(",")[3] == "0.0"]
    assert zero_rows and all(l.split(",")[7] == "0.0" for l in zero_rows)


def test_compare_command(capsys, tmp_path, corpus_dir):
    cfg = tmp_path / "sweep.cfg"
    write_config(cfg, corpus_dir)
    out = tmp_path / "records.csv"
    run(capsys, "sweep", "--spec", str(cfg), "--out", str(out))
    code, stdout, _ = run(capsys, "compare", "--records", str(out), "--a", "fs", "--b", "blockd:h=3")
    assert code == 0
    assert "t=0" in stdout and "->" in stdout
    code, _, stderr = run(capsys, "compare", "--records", str(out), "--a", "nope", "--b", "blockd:h=3")
    assert code == 2 and "nope" in stderr
    lines = out.read_text().splitlines()
    fields = lines[1].split(",")
    fields[7] = "nan"  # q_bits
    out.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    code, _, stderr = run(capsys, "compare", "--records", str(out), "--a", "fs", "--b", "blockd:h=3")
    assert code == 2 and f"{out}:2:" in stderr and "Traceback" not in stderr


# `compare --a blockd --h-a 3 --b blockd --h-b 5` stdout on the sweep below, before the tokens replaced --h-a/--h-b
BLOCKD_3_VS_5_SHA256 = "254b7a95db34cb2ba019a400a9695acf1bf528f32912489696f218e6b6309d8f"


def test_compare_two_blockd_sizes(capsys, tmp_path, corpus_dir):
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "records.csv"
    write_config(cfg, corpus_dir, algorithms="fs, blockd:h=3, blockd:h=5")
    assert run(capsys, "sweep", "--spec", str(cfg), "--out", str(out))[0] == 0
    code, stdout, stderr = run(capsys, "compare", "--records", str(out), "--a", "blockd:h=3", "--b", "blockd:h=5")
    assert (code, stderr) == (0, "")
    assert hashlib.sha256(stdout.encode()).hexdigest() == BLOCKD_3_VS_5_SHA256
    code, stdout, stderr = run(capsys, "compare", "--records", str(out), "--a", "fs", "--b", "blockd:h=7")
    assert code == 2 and stdout == ""
    assert stderr == "error: --b: no records for algorithm 'blockd:h=7'\n"


@pytest.mark.parametrize(
    "a, b, fragment",
    [
        pytest.param("fs", "blockd", "--b: algorithm 'blockd': blockd requires a block size h", id="blockd-without-h"),
        pytest.param("nope", "blockd:h=3", "--a: algorithm 'nope': unknown algorithm 'nope'", id="unknown"),
        pytest.param("fs", "blockd:size=3", "--b: algorithm 'blockd:size=3': unknown parameter 'size'", id="bad-key"),
        pytest.param("fs:h=3", "blockd:h=3", "--a: algorithm 'fs:h=3': fs does not take h", id="foreign-parameter"),
    ],
)
def test_compare_refuses_bad_algorithm_tokens(capsys, tmp_path, corpus_dir, a, b, fragment):
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "records.csv"
    write_config(cfg, corpus_dir)
    assert run(capsys, "sweep", "--spec", str(cfg), "--out", str(out))[0] == 0
    code, stdout, stderr = run(capsys, "compare", "--records", str(out), "--a", a, "--b", b)
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"error: {fragment}") and stderr.count("\n") == 1


def test_compare_refuses_field_the_csv_module_cannot_read(capsys, tmp_path):
    out = tmp_path / "records.csv"
    out.write_text(",".join(RECORD_FIELDS) + "\n" + "x" * 200_000 + "\n")
    code, stdout, stderr = run(capsys, "compare", "--records", str(out), "--a", "fs", "--b", "blockd:h=3")
    assert code == 2 and stdout == ""
    assert stderr == f"error: {out}:2: field larger than field limit (131072)\n"


def test_compare_refuses_records_that_are_not_utf8(capsys, tmp_path):
    out = tmp_path / "records.csv"
    out.write_bytes(",".join(RECORD_FIELDS).encode() + b"\nfs,caf\xff.pgm,bitflip,0.1,,0,1,0.5,0.0,0.5,0.5\n")
    code, stdout, stderr = run(capsys, "compare", "--records", str(out), "--a", "fs", "--b", "blockd:h=3")
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"error: {out}:2: 'utf-8' codec can't decode byte 0xff") and stderr.count("\n") == 1


def test_compare_rejects_records_of_two_noise_kinds(capsys, tmp_path, corpus_dir):
    csvs = []
    for kind in ("bitflip", "erase"):
        cfg, out = tmp_path / f"{kind}.cfg", tmp_path / f"{kind}.csv"
        write_config(cfg, corpus_dir)
        cfg.write_text(cfg.read_text().replace("kind = bitflip", f"kind = {kind}"))
        assert run(capsys, "sweep", "--spec", str(cfg), "--out", str(out))[0] == 0
        csvs.append(out.read_text().splitlines())
    both = tmp_path / "both.csv"
    both.write_text("\n".join(csvs[0] + csvs[1][1:]) + "\n")  # one header row
    code, stdout, stderr = run(capsys, "compare", "--records", str(both), "--a", "fs", "--b", "blockd:h=3")
    assert code == 2 and stdout == ""
    assert "first records mix noise kinds ['bitflip', 'erase']" in stderr and "Traceback" not in stderr


def test_compare_rejects_sides_of_different_noise_kinds(capsys, tmp_path, corpus_dir):
    csvs = []
    for kind, algorithms in (("bitflip", "fs"), ("erase", "blockd:h=3")):
        cfg, out = tmp_path / f"{kind}.cfg", tmp_path / f"{kind}.csv"
        write_config(cfg, corpus_dir, algorithms=algorithms)
        cfg.write_text(cfg.read_text().replace("kind = bitflip", f"kind = {kind}"))
        assert run(capsys, "sweep", "--spec", str(cfg), "--out", str(out))[0] == 0
        csvs.append(out.read_text().splitlines())
    both = tmp_path / "both.csv"
    both.write_text("\n".join(csvs[0] + csvs[1][1:]) + "\n")
    code, stdout, stderr = run(capsys, "compare", "--records", str(both), "--a", "fs", "--b", "blockd:h=3")
    assert code == 2 and stdout == ""
    assert "different noise kinds: 'bitflip' vs 'erase'" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize(
    "column, value, fragment",
    [
        pytest.param(3, "7.5", "noise power must lie in [0, 1]", id="t-7.5"),
        pytest.param(3, "nan", "noise power", id="t-nan"),
        pytest.param(6, "-1", "seed must be", id="seed-negative"),
    ],
)
def test_compare_rejects_record_t_and_seed_out_of_rule(capsys, tmp_path, corpus_dir, column, value, fragment):
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "records.csv"
    write_config(cfg, corpus_dir)
    assert run(capsys, "sweep", "--spec", str(cfg), "--out", str(out))[0] == 0
    lines = out.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = value
    out.write_text("\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n")
    code, stdout, stderr = run(capsys, "compare", "--records", str(out), "--a", "fs", "--b", "blockd")
    assert code == 2 and stdout == ""
    assert f"{out}:3: {fragment}" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize(
    "h_fields, got", [pytest.param(["", ""], 12, id="column-inserted"), pytest.param([], 10, id="column-dropped")]
)
def test_compare_rejects_ragged_record_rows(capsys, tmp_path, corpus_dir, h_fields, got):
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "records.csv"
    write_config(cfg, corpus_dir)
    assert run(capsys, "sweep", "--spec", str(cfg), "--out", str(out))[0] == 0
    lines = out.read_text().splitlines()
    fields = lines[2].split(",")
    fields[4:5] = h_fields
    out.write_text("\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n")
    code, stdout, stderr = run(capsys, "compare", "--records", str(out), "--a", "fs", "--b", "blockd")
    assert code == 2 and stdout == ""
    assert f"{out}:3: expected 11 fields, got {got}" in stderr and "Traceback" not in stderr


def test_compare_rejects_record_of_unknown_kind(capsys, tmp_path, corpus_dir):
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "records.csv"
    write_config(cfg, corpus_dir)
    assert run(capsys, "sweep", "--spec", str(cfg), "--out", str(out))[0] == 0
    lines = out.read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = "bogus"
    out.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    code, stdout, stderr = run(capsys, "compare", "--records", str(out), "--a", "fs", "--b", "blockd")
    assert code == 2 and stdout == ""
    assert f"{out}:2: unknown channel kind 'bogus'" in stderr and "Traceback" not in stderr


# ---------------------------------------------------------------------------
# screens and exit codes
# ---------------------------------------------------------------------------

def test_screens_prints_base_bayer(capsys):
    code, stdout, _ = run(capsys, "screens")
    assert code == 0
    assert "bayer-2" in stdout
    assert "0 2\n3 1" in stdout
    assert "dotdif-classes" in stdout


def test_screens_stable_output(capsys):
    _, first, _ = run(capsys, "screens")
    _, second, _ = run(capsys, "screens")
    assert first == second


def test_unknown_flag_exit_2(capsys, tmp_path):
    code, _, _ = run(capsys, "halftone", "--algo", "psychedelic", "--input", "x", "--output", "y")
    assert code == 2


def test_unknown_verb_exit_2(capsys):
    assert run(capsys, "telepathy")[0] == 2


# ---------------------------------------------------------------------------
# one parser per call: a command line that starts with a verb builds only that verb
# ---------------------------------------------------------------------------

# a complete command line per verb, and a value its parser refuses (a bad choice or type)
COMPLETE_ARGS = {
    "halftone": ["--algo", "fs", "--input", "a.pgm", "--output", "b.pbm"],
    "noise": ["--width", "4", "--height", "4", "--power", "0.1", "--seed", "1", "--output", "n.pbm"],
    "transmit": ["--kind", "bitflip", "--power", "0.1", "--seed", "1", "--input", "a.pbm", "--output", "b.pbm"],
    "metric": ["--name", "kl", "--a", "a.pbm", "--b", "b.pbm"],
    "entropy-curve": ["--width", "4", "--height", "4", "--t-grid", "0.1", "--reps", "1", "--seed", "1", "--out", "e.csv"],
    "sweep": ["--spec", "s.cfg", "--out", "r.csv"],
    "compare": ["--records", "r.csv", "--a", "fs", "--b", "blockd"],
    "screens": [],
}
BAD_VALUE = {
    "halftone": ["--algo", "psychedelic"],
    "noise": ["--width", "wide"],
    "transmit": ["--kind", "smudge"],
    "metric": ["--name", "psnr"],
    "entropy-curve": ["--reps", "many"],
    "sweep": ["--jobs", "all"],
    "compare": ["--h-a", "tall"],
    "screens": ["--rows", "4"],
}
ALL_VERBS = tuple(COMPLETE_ARGS)
PARSE_EXITS = [[], ["--help"], ["telepathy"], ["-x"], ["--help", "halftone"]] + [
    argv
    for verb in ALL_VERBS
    for argv in (
        [verb, "--help"],
        [verb, "--bogus"],
        [verb, *BAD_VALUE[verb]],
        [verb, *COMPLETE_ARGS[verb], "extra"],
        *([[verb]] if COMPLETE_ARGS[verb] else []),  # a bare screens is a complete command
    )
]


def test_verb_table_lists_every_verb_in_order():
    assert tuple(cli.VERBS) == ALL_VERBS


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=" ".join)
def test_main_parses_like_the_full_parser(capsys, monkeypatch, argv):
    """Whatever parser main builds, its exit code, stdout and stderr are those of the full parser."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    full = (int(exc.value.code or 0), *capsys.readouterr())
    assert run(capsys, *argv) == full


def test_stray_argument_usage_lists_every_verb(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, stdout, stderr = run(capsys, "screens", "extra")
    assert code == 2 and stdout == ""
    assert "{" + ",".join(ALL_VERBS) + "}" in stderr
    assert "unrecognized arguments: extra" in stderr


def test_one_verb_command_line_builds_one_verb(monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda verbs=ALL_VERBS: built.append(tuple(verbs)) or build_parser(verbs))
    assert main(["screens"]) == 0
    assert main(["--help"]) == 0 and main(["telepathy"]) == 2
    assert built == [("screens",), ALL_VERBS, ALL_VERBS]


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    """main() with no argv parses sys.argv[1:], as the installed inkchannel script calls it."""
    expected = run(capsys, "screens")
    monkeypatch.setattr(sys, "argv", ["inkchannel", "screens"])
    assert main() == 0
    assert (0, *capsys.readouterr()) == expected
    monkeypatch.setattr(sys, "argv", ["inkchannel"])
    assert main() == 2
    assert "the following arguments are required: verb" in capsys.readouterr().err


def test_cold_start_loads_no_process_pool(tmp_path):
    """A fresh interpreter that imports the CLI, parses a sweep config and builds the parser loads neither
    multiprocessing nor concurrent.futures: only a sweep that starts a pool imports them."""
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from inkchannel.cli import build_parser, parse_sweep_config\n"
        f"parse_sweep_config({str(root / 'sweep.example.cfg')!r})\n"
        "build_parser()\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# sweep config errors
# ---------------------------------------------------------------------------

# One line per key, in this order: algorithms is line 1, corpus is line 6.
SWEEP_LINES = {
    "algorithms": "fs, blockd:h=3",
    "kind": "bitflip",
    "t_grid": "0, 0.2",
    "reps": "2",
    "seed": "7",
    "corpus": None,
}

REQUIRED = ("algorithms", "kind", "t_grid", "reps", "seed", "corpus")


@pytest.mark.parametrize(
    "values, drop, extra, fragment, line",
    [
        pytest.param({}, None, "what is this\n", "expected 'key = value'", 7, id="no-equals"),
        pytest.param({}, None, "colour = red\n", "unknown key 'colour'", 7, id="unknown-key"),
        pytest.param({}, None, "reps = 3\n", "duplicate key 'reps'", 7, id="duplicate-key"),
        pytest.param({}, None, "hist =\n", "empty value for 'hist'", 7, id="empty-value"),
        *(
            pytest.param({}, key, "", f"missing required key {key!r}", None, id=f"missing-{key}")
            for key in REQUIRED
        ),
        pytest.param({"reps": "two"}, None, "", "bad integer 'two'", 4, id="bad-reps"),
        pytest.param({"seed": "x7"}, None, "", "bad integer 'x7'", 5, id="bad-seed"),
        pytest.param({"kind": "block-erase"}, None, "block = x\n", "'x'", 7, id="bad-block"),
        pytest.param({"t_grid": "0, abc"}, None, "", "expected comma-separated numbers", 3, id="t-grid-bad-number"),
        pytest.param({"t_grid": ","}, None, "", "empty list", 3, id="t-grid-empty"),
        pytest.param({"t_grid": "0, 1.5"}, None, "", "noise power must lie in [0, 1]", None, id="t-grid-range"),
        pytest.param({}, None, "hist = block:8\n", "bad block spec", 7, id="bad-hist"),
        pytest.param({}, None, "smoothing = additive:-1\n", "must be > 0", 7, id="bad-smoothing"),
        pytest.param({}, None, "smoothing = additive:inf\n", "must be > 0 and finite, got inf", 7, id="inf-smoothing"),
        pytest.param({"corpus": "{empty}"}, None, "", "contains no .pgm files", 6, id="corpus-no-pgm"),
        pytest.param({"algorithms": "fs, dither"}, None, "", "dither", 1, id="unknown-algorithm"),
        pytest.param(
            {"algorithms": "blockd:h=11:h=19, fs"}, None, "", "algorithm 'blockd:h=11:h=19': repeated parameter 'h'", 1,
            id="repeated-parameter",
        ),
        pytest.param(
            {"algorithms": "fs, blockd:h=11:h=19"}, None, "", "algorithm 'blockd:h=11:h=19': repeated parameter 'h'", 1,
            id="repeated-parameter-after-first",
        ),
        pytest.param(
            {"algorithms": "cdot:order=3, fs"}, None, "",
            "algorithm 'cdot:order=3': cdot supports matrix orders 4 and 8 only, got 3", 1, id="cdot-order-3",
        ),
        pytest.param(
            {"algorithms": "fs, cdot:order=3"}, None, "",
            "algorithm 'cdot:order=3': cdot supports matrix orders 4 and 8 only, got 3", 1, id="cdot-order-3-after-first",
        ),
        pytest.param(
            {"algorithms": "fs, dotdif:level=0.5"}, None, "",
            "algorithm 'dotdif:level=0.5': dotdif does not take level (it takes no parameter)", 1, id="foreign-parameter",
        ),
    ],
)
def test_sweep_config_errors(capsys, tmp_path, corpus_dir, values, drop, extra, fragment, line):
    empty = tmp_path / "empty"
    empty.mkdir()
    lines = {**SWEEP_LINES, "corpus": str(corpus_dir), **values}
    cfg = tmp_path / "sweep.cfg"
    text = "".join(f"{k} = {v}\n" for k, v in lines.items() if k != drop) + extra
    cfg.write_text(text.replace("{empty}", str(empty)))
    code, _, stderr = run(capsys, "sweep", "--spec", str(cfg), "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "Traceback" not in stderr
    assert fragment in stderr
    assert (f"{cfg}:{line}: " if line else f"{cfg}: ") in stderr


def test_algorithm_token_rejects_repeated_parameter():
    message = "algorithm 'threshold:level=0.2:level=0.9': repeated parameter 'level'"
    with pytest.raises(ValueError, match=re.escape(message)):
        _parse_algorithm_token("threshold:level=0.2:level=0.9")


def test_sweep_example_config_parses(tmp_path, monkeypatch):
    example = Path(__file__).resolve().parent.parent / "sweep.example.cfg"
    (tmp_path / "corpus").mkdir()
    write_gray(constant_gray(128, 8, 8), tmp_path / "corpus" / "a.pgm")
    monkeypatch.chdir(tmp_path)
    spec = parse_sweep_config(example)
    assert [(a.algorithm, a.h) for a in spec.algorithms] == [("fs", None), ("blockd", 11), ("blockd", 19)]
    assert spec.channel_kind == "bitflip" and spec.block is None
    assert spec.t_grid == (0.0, 0.1, 0.2, 0.3)
    assert spec.reps == 8
    assert spec.histogram == HistogramSpec(mode="binary", smoothing=1e-9)
    assert spec.master_seed == 42
    assert spec.corpus == (str(Path("corpus") / "a.pgm"),)
