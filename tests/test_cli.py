import re
from pathlib import Path

import numpy as np
import pytest

from inkchannel import BinaryImage, HistogramSpec, channel, read_binary, write_binary, write_gray
from inkchannel.cli import _parse_algorithm_token, format_scalar, main, parse_sweep_config

from conftest import constant_gray


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
    assert "--h" in stderr


def test_halftone_random_requires_seed(capsys, tmp_path, gray128):
    code, _, stderr = run(
        capsys, "halftone", "--algo", "random", "--input", str(gray128), "--output", str(tmp_path / "g.pbm")
    )
    assert code == 2
    assert "--seed" in stderr


def test_halftone_threshold_level_one_is_all_black(capsys, tmp_path, gray128):
    out = tmp_path / "g.pbm"
    code, stdout, _ = run(
        capsys, "halftone", "--algo", "threshold", "--level", "1", "--input", str(gray128), "--output", str(out)
    )
    assert code == 0
    assert stdout.strip() == "1"
    assert read_binary(out).bits.all()


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
    code, stdout, _ = run(capsys, "compare", "--records", str(out), "--a", "fs", "--b", "blockd")
    assert code == 0
    assert "t=0" in stdout and "->" in stdout
    code, _, stderr = run(capsys, "compare", "--records", str(out), "--a", "nope", "--b", "blockd")
    assert code == 2 and "nope" in stderr
    lines = out.read_text().splitlines()
    fields = lines[1].split(",")
    fields[7] = "nan"  # q_bits
    out.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    code, _, stderr = run(capsys, "compare", "--records", str(out), "--a", "fs", "--b", "blockd")
    assert code == 2 and f"{out}:2:" in stderr and "Traceback" not in stderr


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
    code, stdout, stderr = run(capsys, "compare", "--records", str(both), "--a", "fs", "--b", "blockd")
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
    code, stdout, stderr = run(capsys, "compare", "--records", str(both), "--a", "fs", "--b", "blockd")
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
