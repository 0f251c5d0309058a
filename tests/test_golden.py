"""Pinned sha256 digests of netpbm bytes, sweep outputs and the screens listing.

The determinism tests elsewhere compare a run with itself; these compare it
with bytes produced before any refactor.  A digest here may change only in a
change that says why the bytes are meant to change.
"""

import hashlib
from pathlib import Path

import pytest

from inkchannel import (
    BlockSpec,
    HalftoneSpec,
    HistogramSpec,
    NoisePower,
    SweepSpec,
    block_lightness_histogram,
    corpus_average,
    difference_surface,
    gen_noise,
    halftone,
    run_sweep,
    transmit_block_erase,
    write_aggregates_csv,
    write_binary,
    write_gray,
    write_records_csv,
)
from inkchannel.cli import main

from conftest import natural_gray

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "sweep.example.cfg"

ALGORITHMS = (
    HalftoneSpec("threshold"),
    HalftoneSpec("random", seed=7),
    HalftoneSpec("fs"),
    HalftoneSpec("bayer"),
    HalftoneSpec("cdot", matrix_order=4),
    HalftoneSpec("dotdif"),
    HalftoneSpec("blockd", h=5),
)

GRAY_DIGESTS = {
    "P5": "d3c10f4ac6db7d902c96264602fb3a5f94c2156370c1d0505ce967a49cd02b51",
    "P2": "863ed2571d998e9fcdddba91968432453019c93c1f9026e877a5a813c1a89fc4",
}

HALFTONE_DIGESTS = {
    ("threshold", "P4"): "9b127ebcdc8f851949a863d662f75dd32c652b10aa4c46d36de3812eeedacdc1",
    ("threshold", "P1"): "e4fa128b07382873189d96d5a7bb8c4c9732c39c486fd5f3ba503c6d787cda9f",
    ("random", "P4"): "dc6a826173b850bd01b60ac34790a3db55db2af33b240128567368a25b1746d6",
    ("random", "P1"): "59e382781d412760471eab8930afc61d794e8545f4f1bcfcca042760e91a159c",
    ("fs", "P4"): "d58aab81e54a00105fdb8e108ce955ce17c51e862eb222a5e200b0484e546712",
    ("fs", "P1"): "a095ef11a74a005bb5158d01a10d6a299ab9b97bb2e338e48797e3115491b3fe",
    ("bayer", "P4"): "3ef2d1212b73f0f89f563b2ae14626f6e50e917b3fdacda5a535aa85df371a14",
    ("bayer", "P1"): "3729ca892441ca014ae33571a2553e8a4c2a9b305e0032751573c3651979a900",
    ("cdot", "P4"): "57527b27578588eac31d81abc0cc0cb7ef519aace8a741e2ff58b05c8c43fe28",
    ("cdot", "P1"): "123cd17366dce81f6fd3c3986852e638799ff54da363d09b66b1a6863ce338d4",
    ("dotdif", "P4"): "6ec553b7282af59ab4c81d0303b706b8fc37c0710b9c7637ac214debd92d03e3",
    ("dotdif", "P1"): "2dbd1d6c56d22530f59e36957e5ccf87bb7244c743ee51bbacd0dce3d73ade8d",
    ("blockd", "P4"): "3149376e64123063eeb4057e8be8eae97c37c2bf1501678ae5dea6466168473b",
    ("blockd", "P1"): "4a35c0105ea3831ac5ff42d4f4932e9bf55cf8595a5ed99b8ee429306dd43699",
}

# (channel kind, histogram) -> (records CSV digest, aggregates CSV digest)
SWEEP_DIGESTS = {
    ("bitflip", "binary"): (
        "64d26e76c29743204d8b65363f67af5f02475c2dd36ce2301a65804cd6261590",
        "c59e0d9eb6ed0219ef36fcfa14166b8f499ed4618c7d046cfd5616dba51b4159",
    ),
    ("bitflip", "block:8x16"): (
        "6e451e85b8c98239f501c3e70529ac949601129751f4fe13d00dc9314123a3ca",
        "2da9c42df438915b7e5c3721480ba6d9dfc2525307b20d34771b01ea5fd1970c",
    ),
    ("erase", "binary"): (
        "8fee18c2e5bc0c2ae381ddfdf9e67ff0260a188b2415f091dffe8bc978268308",
        "a7329699dda3e4a80200d53868ac1108569f301e208462d7989cf1569bca9eb3",
    ),
    ("erase", "block:8x16"): (
        "3b392b5a83b4eeb3a63898162a4d41e2cd72b6796af2c97874d84ab0d478b40d",
        "c47465de77cba1b2fb19c1d486c8ed6e52b713ed4cb0f054c763c536d5652518",
    ),
    ("block-erase", "binary"): (
        "c37026736cacfb5a51b377faa32ce5b05deb93cbd5f9b122db4cea6b0c2ef5e8",
        "4645a1128b61c37e4b2c7d34859b2ff0ff5350a1ba34be58c587bf8939e971d3",
    ),
    ("block-erase", "block:8x16"): (
        "4dc308603b01e7754922e5358fc534bbbfa47aa05f257f25c1c5b26db0b9942d",
        "dc6cd9fea0960de58e8b1b4dd285b83d89859522257614311f798f8c817220c7",
    ),
}

# Unsmoothed sweeps at t = 0.5 and 1 (t*256 an integer), where q meets +inf:
# (channel kind, histogram) -> (records CSV digest, aggregates CSV digest)
BOUNDARY_SWEEP_DIGESTS = {
    ("bitflip", "binary"): (
        "557cca3904b99b076e30fc27d7966956602da05c77140990843de0210ab03678",
        "5b0a88bbce70aa5be90d1df51598c0c6020a75afcb8dcbb1d570423cd92c1108",
    ),
    ("bitflip", "block:8x16"): (
        "edeac801ebc4b57fb2e5cb0b9e34ba950e61d087448b409cde5d517dff9fa45b",
        "8a9b51b813e2450024168c050173196775851bc76f332d9a31aed45c239da285",
    ),
    ("erase", "binary"): (
        "bde97ce7b9e6588da03420cb3f3fa27879524b1e078ee12444eb5cad68af9cb7",
        "d1939129fb246d60617737204b9ece86ff723ded446863f72e7a9f61f20a29d2",
    ),
    ("erase", "block:8x16"): (
        "43eb76158d183baa49105e665c6ee4160cb073755397911122ef2c35a11a79bf",
        "ff182bd0b23c5465177e5f225f40d374cb688539f0175ab7a9c9f0dd7ad74115",
    ),
    ("block-erase", "binary"): (
        "c7a86d85c77349fe0dd2db4af5d3c564c366a8411168188f5cb64f5b2c54aa02",
        "50c848494d7cd9fb0523715ca711c54f8bb0e3cd85248ce498b4b29164f9845a",
    ),
    ("block-erase", "block:8x16"): (
        "9ad10a570699577639926ec912fc14fa1d283022f4b27b8c08a3f27b34b2b905",
        "eb02c5a24494b1403b9691e8c518b657ecfb27084da1f67631593a284bf140da",
    ),
}

# The FS halftone of natural_gray(131, 97) leaves ragged edge tiles for every
# block size below: some edge tiles hold their centre pixel, some do not.
RAGGED_ERASE_DIGESTS = {  # block size -> sha256 of the block-erased bits, t = 0.3, seed 5
    3: "6aafe235519a3502dceaeb7a5613b9fefa17aaf86699f9b99ec82eedb1006c39",
    5: "95e347f83d7774ab0d2e1dec2681345e182ef968dca6ba30297e910951a56790",
    9: "a66be7a6bca855c7968a3baf1cffee424a4c64b26ac551f07ff8dfa281512551",
}

# natural_gray(131, 97) itself, halftoned: neither side is a multiple of the
# dotdif class tile (8) or of either block size, so every kernel meets partial tiles
RAGGED_HALFTONE_DIGESTS = {  # (algorithm, h) -> sha256 of the P4 bytes
    ("fs", None): "2ba2033de5a521cf6c01fb85e29e924ebaa1ebb9d84e98c9dfc11bc10573a941",
    ("dotdif", None): "3c89bf9161cc5e0a2bcf5c32cce30beba70931cc12048e9c4ce432734ec7ccdc",
    ("blockd", 3): "e685578f4495e9d73b7ffa9f1ac2c087dfb5317713e6e104aecb504ac4f6cae5",
    ("blockd", 19): "ff212cc6f7392d00149a28190091664a0a8d33f825be9f97ac4a183ea80f2267",
}

# noise fields whose pixel count is not a multiple of 8, so the last 64-bit
# PCG64 word is only partly used; seed 11
NOISE_DIGESTS = {  # (width, height, t) -> sha256 of the P4 bytes
    (1, 1, 0.1): "a8ed35a163cba662b15fe455af22d5f91668d6eb59ef9a2aa9e19e1658745819",
    (1, 1, 0.5): "a293aabff7eae7f96579e5e6bec8665d16b608f2a66a4d7053f7d6b432224291",
    (1, 1, 1.0): "a293aabff7eae7f96579e5e6bec8665d16b608f2a66a4d7053f7d6b432224291",
    (7, 3, 0.1): "ba0af72fc28fd155ea61ab512819ed7aad303b241e13eac022e24c0a13e893f9",
    (7, 3, 0.5): "9997d062d59bf11156442383d002d21b2642623ab0a1f6e233060f0708d4f2b5",
    (7, 3, 1.0): "ffe3c8cb49e2c71cef4f10533f052b4f5edb9d996db101a24bfbc1f160683423",
    (131, 97, 0.1): "03fb6d39b03e14d031b37a8e1dcff8122a2762538b3e766fb622f3ec9af65200",
    (131, 97, 0.5): "0dd0add399e42533d44db4e7bd15ec02663d45c2ee1133199b13bf75bce6392e",
    (131, 97, 1.0): "cfaa2c7a5949989585bebce07e4f91470a6d1c784b51ce513944a11d21a5e7bb",
}

# `inkchannel noise --seed 11` stdout for the NOISE_DIGESTS fields: t, the achieved
# density and the realised ink fraction
NOISE_STDOUT_DIGESTS = {  # (width, height, t) -> sha256 of stdout
    (1, 1, 0.1): "59e8e08175b708ebf1a1dcc2b1f2c84060e9831f4fd59f5feb52c77132de6924",
    (1, 1, 0.5): "092ba3c4864124b624ed9bf47ff492f4e45b5ed4ab24ef53688a51994b71f27e",
    (1, 1, 1.0): "b2d32e04182206a55976df2085147deacbf70c90f096d5ce80b903f282cadc98",
    (7, 3, 0.1): "09c0c6f3154a8f12903d73229c9b5574551e4340b356217cb2a10aeff1520bab",
    (7, 3, 0.5): "bc9c15cfe7b705a93ec81e2f2e8b2772763b7b1e3bc8689d76a3a475f3e98e03",
    (7, 3, 1.0): "b2d32e04182206a55976df2085147deacbf70c90f096d5ce80b903f282cadc98",
    (131, 97, 0.1): "56809f3b3959e37e676a4f3839c286c78f700119b3a908c19511cc67bbb06bd7",
    (131, 97, 0.5): "57c6368d0ed4121d56be6a1168d075adc9cb2e91628f570c1c467ea8faf98374",
    (131, 97, 1.0): "b2d32e04182206a55976df2085147deacbf70c90f096d5ce80b903f282cadc98",
}

# `inkchannel entropy-curve` on 32x32 fields, t in 0,0.25,0.5,1, reps 4, seed 5:
# (CSV digest, stdout digest); the CSV holds the repr of every mean and std
ENTROPY_CURVE_DIGESTS = (
    "1faf9c1bf59077734fae5728b1cfa3e7b0bb53852eb326dee2176c50d79265bc",
    "5728de9a4f3267dba75d5b72b17e2cdea2c36ae60591b54d0f522c423320100e",
)

RAGGED_HISTOGRAM_DIGESTS = {  # block size -> sha256 of the 16-bin block histogram
    7: "62ec6fa2d2baed94ab619edc014c975248c978161fa0695bf2d98c3bb0df7991",
    8: "a40c57498967976b352b6acc9d6e792d2782e20a9a867d7b1785e22b0c7733d8",
    16: "eb4e4bb3acbdb74cfae8d51132e3f37062b2f2556051ec6af1e88e86f3f04e57",
}

# `inkchannel screens` stdout: every compiled-in screen and class matrix
SCREENS_DIGEST = "ee456c4ba09918345732b200f47b6a6a76b15dc654349fbb94fc7cd907f51f17"

# `inkchannel compare --a fs --b blockd` stdout on the bitflip/binary sweep records above
COMPARE_DIGEST = "562605ed60ce7c1b8e69c680a15181dda4c9cf511c98b3a48d27b281494782fe"

# difference_surface of fs against blockd h=5 and h=11: t, h and repr of every value
SURFACE_DIGEST = "e07397dce1d8e2c76183aa9117edd7d16eed8f0eb604213ab486cddd06aca616"

# meta.json of `inkchannel sweep --spec sweep.example.cfg`, run where ./corpus holds one image
META_DIGEST = "a067423609152f488a68cdf4cf138103e790b4bccb73dfdac53e79827e4434fc"

HISTOGRAMS = {
    "binary": HistogramSpec(mode="binary", smoothing=1e-9),
    "block:8x16": HistogramSpec(mode="block", block=8, bins=16, smoothing=1e-9),
    "binary, unsmoothed": HistogramSpec(mode="binary"),
    "block:8x16, unsmoothed": HistogramSpec(mode="block", block=8, bins=16),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def scene():
    return natural_gray(256, 256)


@pytest.mark.parametrize("magic", sorted(GRAY_DIGESTS))
def test_gray_bytes(tmp_path, scene, magic):
    path = tmp_path / "scene.pgm"
    write_gray(scene, path, ascii_format=magic == "P2")
    assert sha256(path) == GRAY_DIGESTS[magic]


@pytest.mark.parametrize("algo, magic", sorted(HALFTONE_DIGESTS))
def test_halftone_bytes(tmp_path, scene, algo, magic):
    spec = next(a for a in ALGORITHMS if a.algorithm == algo)
    path = tmp_path / "g.pbm"
    write_binary(halftone(scene, spec), path, ascii_format=magic == "P1")
    assert sha256(path) == HALFTONE_DIGESTS[algo, magic]


@pytest.fixture(scope="module")
def ragged():
    return halftone(natural_gray(131, 97), HalftoneSpec("fs"))


@pytest.mark.parametrize("algo, h", RAGGED_HALFTONE_DIGESTS)
def test_halftone_ragged_edges(tmp_path, algo, h):
    path = tmp_path / "g.pbm"
    write_binary(halftone(natural_gray(131, 97), HalftoneSpec(algo, h=h)), path)
    assert sha256(path) == RAGGED_HALFTONE_DIGESTS[algo, h]


@pytest.mark.parametrize("width, height, t", NOISE_DIGESTS)
def test_noise_bytes(tmp_path, width, height, t):
    path = tmp_path / "v.pbm"
    write_binary(gen_noise(width, height, NoisePower(t), 11), path)
    assert sha256(path) == NOISE_DIGESTS[width, height, t]


@pytest.mark.parametrize("width, height, t", NOISE_STDOUT_DIGESTS)
def test_noise_stdout_bytes(tmp_path, capsys, width, height, t):
    argv = ["noise", "--width", str(width), "--height", str(height), "--power", str(t), "--seed", "11"]
    assert main([*argv, "--output", str(tmp_path / "v.pbm")]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == NOISE_STDOUT_DIGESTS[width, height, t]


def test_entropy_curve_bytes(tmp_path, capsys):
    argv = ["entropy-curve", "--width", "32", "--height", "32", "--t-grid", "0,0.25,0.5,1", "--reps", "4", "--seed", "5"]
    assert main([*argv, "--out", str(tmp_path / "curve.csv")]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (sha256(tmp_path / "curve.csv"), stdout) == ENTROPY_CURVE_DIGESTS


@pytest.mark.parametrize("size", sorted(RAGGED_ERASE_DIGESTS))
def test_block_erase_ragged_edges(ragged, size):
    out = transmit_block_erase(ragged, NoisePower(0.3), BlockSpec(size), 5)
    assert hashlib.sha256(out.bits.tobytes()).hexdigest() == RAGGED_ERASE_DIGESTS[size]


@pytest.mark.parametrize("block", sorted(RAGGED_HISTOGRAM_DIGESTS))
def test_block_histogram_ragged_edges(ragged, block):
    bins = block_lightness_histogram(ragged, block, 16).bins
    assert hashlib.sha256(bins.tobytes()).hexdigest() == RAGGED_HISTOGRAM_DIGESTS[block]


def golden_sweep(corpus_dir, kind="bitflip", hist="binary", algorithms=ALGORITHMS, t_grid=(0.0, 0.3)):
    return run_sweep(SweepSpec(
        algorithms=algorithms,
        channel_kind=kind,
        t_grid=t_grid,
        reps=2,
        histogram=HISTOGRAMS[hist],
        master_seed=11,
        corpus=tuple(sorted(str(p) for p in corpus_dir.glob("*.pgm"))),
        block=BlockSpec(3) if kind == "block-erase" else None,
    ))


@pytest.mark.parametrize("kind, hist", sorted(SWEEP_DIGESTS))
def test_sweep_csv_bytes(tmp_path, corpus_dir, kind, hist):
    records = golden_sweep(corpus_dir, kind, hist)
    write_records_csv(records, tmp_path / "records.csv")
    write_aggregates_csv(corpus_average(records), tmp_path / "agg.csv")
    assert (sha256(tmp_path / "records.csv"), sha256(tmp_path / "agg.csv")) == SWEEP_DIGESTS[kind, hist]


@pytest.mark.parametrize("kind, hist", sorted(BOUNDARY_SWEEP_DIGESTS))
def test_boundary_sweep_csv_bytes(tmp_path, corpus_dir, kind, hist):
    records = golden_sweep(corpus_dir, kind, f"{hist}, unsmoothed", t_grid=(0.5, 1.0))
    write_records_csv(records, tmp_path / "records.csv")
    write_aggregates_csv(corpus_average(records), tmp_path / "agg.csv")
    assert (sha256(tmp_path / "records.csv"), sha256(tmp_path / "agg.csv")) == BOUNDARY_SWEEP_DIGESTS[kind, hist]


def test_screens_bytes(capsys):
    assert main(["screens"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SCREENS_DIGEST


def test_compare_stdout_bytes(tmp_path, corpus_dir, capsys):
    write_records_csv(golden_sweep(corpus_dir), tmp_path / "records.csv")
    assert main(["compare", "--records", str(tmp_path / "records.csv"), "--a", "fs", "--b", "blockd"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == COMPARE_DIGEST


def test_difference_surface_values(corpus_dir):
    algorithms = (HalftoneSpec("fs"), HalftoneSpec("blockd", h=5), HalftoneSpec("blockd", h=11))
    records = golden_sweep(corpus_dir, algorithms=algorithms)
    t_vals, h_vals, surface = difference_surface(
        [r for r in records if r.algo == "fs"], [r for r in records if r.algo == "blockd"]
    )
    text = f"{t_vals!r}\n{h_vals!r}\n" + "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in surface)
    assert hashlib.sha256(text.encode()).hexdigest() == SURFACE_DIGEST


def test_sweep_meta_bytes(tmp_path, monkeypatch, capsys):
    (tmp_path / "corpus").mkdir()
    write_gray(natural_gray(32, 32), tmp_path / "corpus" / "scene.pgm")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--spec", str(EXAMPLE_CONFIG), "--out", "records.csv"]) == 0
    assert sha256(tmp_path / "records.meta.json") == META_DIGEST
