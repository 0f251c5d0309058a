"""The benchmark's workloads: two sweeps and a per-file CLI pipeline.

Every input is built from the workload seed: corpus image i comes from
``make_corpus.synth_scene`` with seed ``derive_seed(seed, i)`` (what
``scripts/make_corpus.py --seed <seed>`` writes), and the sweep master seed
and the CLI transmit seeds come from their own streams of the same seed.

One iteration is one operation batch timed from outside: a whole sweep
(config parse, ``run_sweep``, both CSV writers) or one cycle of 8 CLI
pipelines.  ``iterate`` returns the outputs as bytes so the caller can check
them against the reference iteration and the pinned digests.
"""

from __future__ import annotations

import io
import math
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from time import perf_counter

import inkchannel
from inkchannel import cli
from make_corpus import synth_scene

IMAGES = 8
SWEEP_STREAM = 1 << 32  # derive_seed index of the sweep master seed; corpus uses 0..7
CLI_STREAM = SWEEP_STREAM + 1

SWEEPS = {
    # The ROADMAP's pinned sweep: sweep.example.cfg's shape, 16 reps, 1536 cells.
    "sweep-bitflip": (
        "algorithms = fs, blockd:h=11, blockd:h=19\n"
        "kind = bitflip\n"
        "t_grid = 0, 0.1, 0.2, 0.3\n"
        "reps = 16\n"
        "hist = binary\n"
    ),
    # Every halftoner with the tiled channel and histogram: 112 cells.
    "sweep-halftone-tiled": (
        "algorithms = threshold, random:seed=7, fs, bayer, cdot, dotdif, blockd:h=3\n"
        "kind = block-erase\n"
        "block = 3\n"
        "t_grid = 0.1, 0.3\n"
        "reps = 1\n"
        "hist = block:8x16\n"
    ),
}
SWEEP_SIZE = 256
CLI_SIZE = 128
CLI_POWER = "0.1"


@dataclass
class Iteration:
    wall_s: float
    ops: int
    outputs: dict = field(default_factory=dict)
    latencies_s: list = field(default_factory=list)
    values: list = field(default_factory=list)  # records, or per-pipeline results, for the range checks
    error: str | None = None


def _write_corpus(directory: Path, seed: int, size: int, ascii_format: bool) -> list[str]:
    directory.mkdir()
    paths = []
    for i in range(IMAGES):
        path = directory / f"scene{i:02d}.pgm"
        inkchannel.write_gray(synth_scene(size, size, inkchannel.derive_seed(seed, i)), path, ascii_format=ascii_format)
        paths.append(str(path))
    return paths


def _failed(ops: int) -> Iteration:
    return Iteration(wall_s=math.nan, ops=ops, error=traceback.format_exc())


class SweepWorkload:
    """One sweep config, run through the library API as ``inkchannel sweep`` does."""

    def __init__(self, name: str, seed: int, work: Path):
        _write_corpus(work / "corpus", seed, SWEEP_SIZE, ascii_format=False)
        master = inkchannel.derive_seed(seed, SWEEP_STREAM)
        self.cfg = work / "sweep.cfg"
        self.cfg.write_text(f"{SWEEPS[name]}smoothing = additive:1e-9\nseed = {master}\ncorpus = {work / 'corpus'}\n")
        self.records_csv = work / "records.csv"
        self.aggregates_csv = work / "records.agg.csv"
        spec = cli.parse_sweep_config(self.cfg)
        self.ops_per_iteration = len(spec.algorithms) * len(spec.corpus) * len(spec.t_grid) * spec.reps
        self.setup_argv = ["-c", "import sys, inkchannel.cli as c; c.parse_sweep_config(sys.argv[1])", str(self.cfg)]

    def iterate(self, jobs: int) -> Iteration:
        try:
            t0 = perf_counter()
            spec = inkchannel.cli.parse_sweep_config(self.cfg)
            records = inkchannel.run_sweep(spec, jobs=jobs)
            inkchannel.write_records_csv(records, self.records_csv)
            inkchannel.write_aggregates_csv(inkchannel.corpus_average(records), self.aggregates_csv)
            wall = perf_counter() - t0
        except Exception:
            return _failed(self.ops_per_iteration)
        outputs = {"records": self.records_csv.read_bytes(), "aggregates": self.aggregates_csv.read_bytes()}
        return Iteration(wall_s=wall, ops=len(records), outputs=outputs, latencies_s=[wall], values=records)

    def check(self, it: Iteration) -> list[str]:
        """Range checks on the records of one iteration."""
        problems = []
        if it.ops != self.ops_per_iteration:
            problems.append(f"expected {self.ops_per_iteration} records, got {it.ops}")
        for r in it.values:
            bad = [n for n in ("f_in", "f_out", "e_dist") if not 0.0 <= getattr(r, n) <= 1.0]
            if not math.isfinite(r.q_bits) or r.q_bits < 0:
                bad.append("q_bits")
            if bad:
                problems.append(f"record {r.algo} {r.image} t={r.t} rep={r.rep}: {', '.join(bad)} out of range")
        return problems

    def close(self):
        pass


def pipeline(job) -> tuple[float, list[int], str, bytes]:
    """halftone -> transmit -> metric kl -> metric euclid on one P2 image, in-process."""
    index, pgm, seed, out_dir = job
    stem = Path(out_dir) / f"{os.getpid()}-{index}"
    g, gp = f"{stem}-g.pbm", f"{stem}-gp.pbm"
    commands = (
        ["halftone", "--algo", "fs", "--input", pgm, "--output", g],
        ["transmit", "--kind", "bitflip", "--power", CLI_POWER, "--seed", str(seed), "--input", g, "--output", gp],
        ["metric", "--name", "kl", "--hist", "block:8x16", "--a", g, "--b", gp],
        ["metric", "--name", "euclid", "--a", g, "--b", gp],
    )
    out = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        codes = [cli.main(argv) for argv in commands]
    latency = perf_counter() - t0
    return latency, codes, out.getvalue(), Path(g).read_bytes() + Path(gp).read_bytes()


class CliWorkload:
    """8 pipelines per cycle, one per corpus image, each with its own transmit seed.

    jobs=1 runs them in this process, one after another; jobs=n hands them to
    a pool of n worker processes, like ``xargs -P n`` over the same commands.
    The pool forks, as ``run_sweep``'s does: a spawn pool would also start
    multiprocessing's resource tracker, which outlives ``shutdown`` and is
    never waited for.
    """

    def __init__(self, name: str, seed: int, work: Path):
        paths = _write_corpus(work / "corpus", seed, CLI_SIZE, ascii_format=True)
        out_dir = work / "out"
        out_dir.mkdir()
        master = inkchannel.derive_seed(seed, CLI_STREAM)
        self.jobs_list = [(i, p, inkchannel.derive_seed(master, i), str(out_dir)) for i, p in enumerate(paths)]
        self.setup_argv = ["-c", "import inkchannel.cli as c; c.build_parser()"]
        self.ops_per_iteration = IMAGES
        self._pool = None

    def iterate(self, jobs: int) -> Iteration:
        try:
            t0 = perf_counter()
            if jobs == 1:
                results = [pipeline(job) for job in self.jobs_list]
            else:
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("fork"))
                    list(self._pool.map(pipeline, self.jobs_list))  # start the workers untimed
                    t0 = perf_counter()
                results = list(self._pool.map(pipeline, self.jobs_list))
            wall = perf_counter() - t0
        except Exception:
            return _failed(self.ops_per_iteration)
        blob = b"".join(f"{codes}\n{text}".encode() + pbm for _, codes, text, pbm in results)
        return Iteration(wall_s=wall, ops=len(results), outputs={"pipelines": blob}, latencies_s=[r[0] for r in results], values=results)

    def check(self, it: Iteration) -> list[str]:
        """Exit codes and printed values of one iteration."""
        problems = []
        for (index, *_), (_, codes, text, _) in zip(self.jobs_list, it.values):
            try:
                ink, f_in, f_out, q, e = (float(line.rpartition("=")[2]) for line in text.split())
            except ValueError:
                problems.append(f"pipeline {index}: unexpected output {text!r}")
                continue
            if codes != [0, 0, 0, 0]:
                problems.append(f"pipeline {index}: exit codes {codes}")
            if not (0 <= ink <= 1 and ink == f_in and 0 <= f_out <= 1 and q >= 0 and 0 <= e <= 1):
                problems.append(f"pipeline {index}: value out of range in {text!r}")
        return problems

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


WORKLOADS = {name: SweepWorkload for name in SWEEPS} | {"cli-ascii": CliWorkload}
