"""The experiment scripts in scripts/: pinned outputs and the command lines they refuse.

The digests were taken from the scripts' earlier forms (the surface script then ran its own sweep
from --corpus/--t-grid/--h-grid flags; the noise-distance script drew each field twice), so they
show the current forms write the same bytes.
"""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

from inkchannel.cli import main
from inkchannel.robustness import RECORD_FIELDS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# make_corpus --count 2 --size 32; sweep fs, blockd:h=3, blockd:h=5 under bitflip, t 0, 0.1, reps 1, seed 5
SMOKE_SURFACE_SHA256 = "de3237a67d5e4dc8ed4e81c7b5994293ad22f07e298a75d816ddc8bd17d6a4c0"
# noise_distance_experiment on that corpus's scene00.pgm, --steps 3 --reps 2 (seed 3)
NOISE_DISTANCE_SHA256 = "38ba6169c9290354060cd14fa1c30ce6eee03fabfbc89bcad108191cc8ca270a"


def run_script(monkeypatch, capsys, name, *args):
    """Run scripts/<name> as __main__ with ``args``; return (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name), *map(str, args)])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture()
def corpus(monkeypatch, capsys, tmp_path):
    code, _, stderr = run_script(monkeypatch, capsys, "make_corpus.py", "--out", tmp_path / "corpus", "--count", 2,
                                 "--size", 32)
    assert code == 0, stderr
    return tmp_path / "corpus"


def sweep(capsys, tmp_path, corpus, algorithms) -> Path:
    """Records CSV of `inkchannel sweep` over ``corpus`` at the smoke grid."""
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text(f"algorithms = {algorithms}\nkind = bitflip\nt_grid = 0, 0.1\nreps = 1\nseed = 5\ncorpus = {corpus}\n")
    records = tmp_path / "records.csv"
    assert main(["sweep", "--spec", str(cfg), "--out", str(records)]) == 0
    capsys.readouterr()
    return records


def test_surface_from_sweep_records_is_pinned(monkeypatch, capsys, tmp_path, corpus):
    records = sweep(capsys, tmp_path, corpus, "fs, blockd:h=3, blockd:h=5")
    out = tmp_path / "surface.csv"
    code, stdout, stderr = run_script(monkeypatch, capsys, "fs_vs_blockd_surface.py", "--records", records,
                                      "--out", out)
    assert (code, stderr) == (0, "")
    assert sha256(out) == SMOKE_SURFACE_SHA256
    assert stdout == f"wrote {out} (2x2 surface over 2 images)\nblockd more robust in 1/4 cells\n"


def test_surface_count_is_compares_verdicts(monkeypatch, capsys, tmp_path):
    """blockd's mean q 1e-13 below fs's is within compare's tie tolerance: a TIE there, and no cell here."""
    records, out = tmp_path / "records.csv", tmp_path / "surface.csv"
    rows = ("fs,a.pgm,bitflip,0.1,,0,1,0.5,0.1,0.5,0.5", f"blockd,a.pgm,bitflip,0.1,3,0,2,{0.5 - 1e-13!r},0.1,0.5,0.5")
    records.write_text(",".join(RECORD_FIELDS) + "\n" + "\n".join(rows) + "\n")
    assert main(["compare", "--records", str(records), "--a", "fs", "--b", "blockd:h=3"]) == 0
    assert "TIE" in capsys.readouterr().out
    code, stdout, stderr = run_script(monkeypatch, capsys, "fs_vs_blockd_surface.py", "--records", records,
                                      "--out", out)
    assert (code, stderr) == (0, "")
    assert stdout.endswith("\nblockd more robust in 0/1 cells\n")


@pytest.mark.parametrize("case", ["aggregates", "two-families"])
def test_surface_refuses_other_records(monkeypatch, capsys, tmp_path, corpus, case):
    """The sweep's .agg.csv has the wrong header; a second non-blockd family leaves no one first side."""
    algorithms = "fs, blockd:h=3" if case == "aggregates" else "fs, threshold:level=0.5, blockd:h=3"
    records = sweep(capsys, tmp_path, corpus, algorithms)
    path = records.with_suffix(".agg.csv") if case == "aggregates" else records
    out = tmp_path / "surface.csv"
    code, stdout, stderr = run_script(monkeypatch, capsys, "fs_vs_blockd_surface.py", "--records", path,
                                      "--out", out)
    assert code == 2 and stderr.startswith("error: ") and stdout == ""
    assert ("header" if case == "aggregates" else "exactly one algorithm") in stderr
    assert not out.exists()


def test_surface_missing_records_is_io_error(monkeypatch, capsys, tmp_path):
    code, stdout, stderr = run_script(monkeypatch, capsys, "fs_vs_blockd_surface.py", "--records",
                                      tmp_path / "missing.csv", "--out", tmp_path / "surface.csv")
    assert code == 3 and stderr.startswith("error: ") and stdout == ""


def test_noise_distance_is_pinned(monkeypatch, capsys, tmp_path, corpus):
    out = tmp_path / "noise_distance.csv"
    code, stdout, stderr = run_script(monkeypatch, capsys, "noise_distance_experiment.py", "--image",
                                      corpus / "scene00.pgm", "--steps", 3, "--reps", 2, "--out", out)
    assert (code, stderr) == (0, "")
    assert sha256(out) == NOISE_DISTANCE_SHA256
    assert stdout == f"halftone ink fraction f1 = 0.4033\nwrote {out}\n"


@pytest.mark.parametrize("script, flag", [
    ("noise_distance_experiment.py", "--reps"),
    ("noise_distance_experiment.py", "--steps"),
    ("make_corpus.py", "--size"),
    ("make_corpus.py", "--count"),
])
def test_counts_below_one_are_usage_errors(monkeypatch, capsys, tmp_path, corpus, script, flag):
    args = ["--image", corpus / "scene00.pgm"] if script.startswith("noise") else []
    out = tmp_path / "out"
    code, stdout, stderr = run_script(monkeypatch, capsys, script, *args, flag, 0, "--out", out)
    assert code == 2 and stdout == ""
    assert f"error: argument {flag}: must be >= 1, got 0" in stderr
    assert not out.exists()


def test_surface_refuses_field_the_csv_module_cannot_read(monkeypatch, capsys, tmp_path):
    records, out = tmp_path / "records.csv", tmp_path / "surface.csv"
    records.write_text(",".join(RECORD_FIELDS) + "\n" + "x" * 200_000 + "\n")
    code, stdout, stderr = run_script(monkeypatch, capsys, "fs_vs_blockd_surface.py", "--records", records,
                                      "--out", out)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {records}:2: field larger than field limit (131072)\n"
    assert not out.exists()


@pytest.mark.parametrize("image, seed, code, fragment", [
    pytest.param("missing.pgm", 3, 3, "No such file or directory", id="missing-image"),
    pytest.param("junk.txt", 3, 3, "not a PGM file", id="not-pgm"),
    pytest.param(None, -1, 2, "seed must be a 64-bit unsigned integer, got -1", id="seed-negative"),
])
def test_noise_distance_refusals_are_one_error_line(monkeypatch, capsys, tmp_path, corpus, image, seed, code, fragment):
    (tmp_path / "junk.txt").write_bytes(b"hello")
    out = tmp_path / "noise_distance.csv"
    got = run_script(monkeypatch, capsys, "noise_distance_experiment.py", "--image",
                     tmp_path / image if image else corpus / "scene00.pgm", "--steps", 2, "--reps", 1,
                     "--seed", seed, "--out", out)
    assert got[:2] == (code, "")
    assert got[2].startswith("error: ") and fragment in got[2] and got[2].count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("case, code, fragment", [
    ("out-is-a-file", 3, "File exists"),
    ("seed-negative", 2, "got -1"),
    ("seed-2**64", 2, f"got {2**64}"),
])
def test_make_corpus_refusals_are_one_error_line(monkeypatch, capsys, tmp_path, case, code, fragment):
    out = tmp_path / "corpus"
    if case == "out-is-a-file":
        out.write_text("not a directory\n")
    seed = {"seed-negative": -1, "seed-2**64": 2**64}.get(case, 1)
    got = run_script(monkeypatch, capsys, "make_corpus.py", "--out", out, "--count", 1, "--size", 8, "--seed", seed)
    assert got[:2] == (code, "")
    assert got[2].startswith("error: ") and fragment in got[2] and got[2].count("\n") == 1
    assert out.is_file() if case == "out-is-a-file" else not out.exists()
