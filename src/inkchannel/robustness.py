"""Robustness harness: sweeps of (algorithm x image x noise power x rep).

Each sweep cell derives its own seed from (master_seed, cell index), so
record lists are bit-identical across runs and across any degree of
parallelism.  Divergences are aggregated as means of per-rep values (not
divergences of pooled histograms), which also yields standard errors.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .channel import (_KIND_GATES, BlockSpec, NoisePower, _block_mask, _channel_bits, _check_kind, _known_kind,
                      _noise_bits, derive_seed, noise_density)
from .halftone import HalftoneSpec, _halftone_bits
from .imagery import HistogramSpec, _check_int, _check_seed, _histogram_bins, _read_text, read_gray
from .metrics import _kl_from, _kl_reference

__all__ = [
    "SweepSpec",
    "RobustnessRecord",
    "ComparisonVerdict",
    "AggregateRow",
    "SweepError",
    "run_sweep",
    "is_epsilon_robust",
    "compare",
    "difference_surface",
    "corpus_average",
    "write_records_csv",
    "read_records_csv",
    "write_aggregates_csv",
    "RECORD_FIELDS",
    "AGGREGATE_FIELDS",
]

DEFAULT_TIE_TOLERANCE = 1e-12


class SweepError(RuntimeError):
    """A sweep aborted; the message identifies the offending cell."""


@dataclass(frozen=True)
class SweepSpec:
    algorithms: tuple
    channel_kind: str
    t_grid: tuple
    reps: int
    histogram: HistogramSpec
    master_seed: int
    corpus: tuple
    block: BlockSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "t_grid", tuple(NoisePower(t).t for t in self.t_grid))
        object.__setattr__(self, "corpus", tuple(str(p) for p in self.corpus))
        if not self.algorithms:
            raise ValueError("sweep needs at least one algorithm")
        if not all(isinstance(a, HalftoneSpec) for a in self.algorithms):
            raise ValueError("algorithms must be HalftoneSpec instances")
        _check_kind(self.channel_kind, self.block)
        if not self.t_grid:
            raise ValueError("sweep needs a non-empty t grid")
        _check_int(self.reps, "reps", 1)
        _check_seed(self.master_seed)
        if not self.corpus:
            raise ValueError("sweep needs a non-empty corpus")
        # Records key on (label, h), t and the image's file name, so a repeat would merge
        # groups silently; the same image path listed twice is a deliberate double weight.
        for what, values in (
            ("(algorithm, h)", map(_family, self.algorithms)),
            ("t", self.t_grid),
            ("image name", (p.name for p in sorted(set(map(Path, self.corpus))))),
        ):
            repeated = [v for v, n in Counter(values).items() if n > 1]
            if repeated:
                raise ValueError(f"sweep repeats {what} {repeated[0]!r}; its records would merge")


def _family(alg: HalftoneSpec) -> tuple[str, int | None]:
    """(algo, h) as records carry them; only blockd takes h."""
    return alg.label(), alg.h


@dataclass(frozen=True)
class RobustnessRecord:
    algo: str
    image: str
    noise_kind: str
    t: float
    h: int | None
    rep: int
    seed: int
    q_bits: float
    e_dist: float
    f_in: float
    f_out: float

    def __post_init__(self):
        _known_kind(self.noise_kind)
        object.__setattr__(self, "t", NoisePower(self.t).t)  # t=0, 0.0 and -0.0 group and print alike
        if self.h is not None:  # a blockd record may leave h empty
            if self.algo != "blockd":
                raise ValueError(f"h is recorded for blockd only, got h={self.h!r} for {self.algo!r}")
            HalftoneSpec("blockd", h=self.h)
        _check_int(self.rep, "rep", 0)
        _check_seed(self.seed)
        if not 0.0 <= self.q_bits <= math.inf:
            raise ValueError(f"divergence must lie in [0, inf], got {self.q_bits}")
        for name in ("e_dist", "f_in", "f_out"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class ComparisonVerdict:
    algo_k: str
    algo_t: str
    t: float
    mean_k: float
    mean_t: float
    diff: float
    verdict: str  # K_MORE_ROBUST | T_MORE_ROBUST | TIE


@dataclass(frozen=True)
class AggregateRow:
    algo: str
    noise_kind: str
    t: float
    h: int | None
    mean_q: float
    stderr_q: float
    n: int


RECORD_FIELDS = tuple(f.name for f in fields(RobustnessRecord))
AGGREGATE_FIELDS = tuple(f.name for f in fields(AggregateRow))
# a records-CSV field's parser, by its annotation on RobustnessRecord; an empty h reads as None
_PARSERS = {"str": str, "float": float, "int": int, "int | None": lambda text: int(text) if text else None}
_RECORD_PARSERS = tuple(_PARSERS[f.type] for f in fields(RobustnessRecord))


_STACK = 16  # images per task at most; a task reads its run ahead, and FS's wave buffer grows with its stacks


def _stack_bits(alg: HalftoneSpec, run: list):
    """The bits of each of a run of same-shape pixel arrays, halftoned as one stack.  The run is emptied,
    so that the stack holds the only copy of its pixels while the kernel runs."""
    if run:
        stack = np.stack(run, -1)
        run.clear()
        bits = _halftone_bits(stack, alg)
        del stack
        for j in range(bits.shape[-1]):
            yield np.ascontiguousarray(bits[..., j]).view(np.uint8)


def _halftones(alg: HalftoneSpec, paths):
    """Each image's halftone bits, in order, as the caller takes them; an image that cannot be read or
    halftoned raises at its turn.  Each run of consecutive same-shape images is halftoned as one stack,
    so a run is read ahead of its cells."""
    run = []
    for path in paths:
        try:
            pixels = read_gray(path).pixels
        except Exception:
            yield from _stack_bits(alg, run)  # the images before this one take their turns first
            raise
        if run and pixels.shape != run[0].shape:
            yield from _stack_bits(alg, run)
        run.append(pixels)
    yield from _stack_bits(alg, run)


def _run_task(spec: SweepSpec, task: tuple) -> list[RobustnessRecord]:
    """All (image, t, rep) cells for one algorithm over the corpus images start:stop; each image's
    halftone, gate mask and KL reference are built once.

    The spec was checked when built, so cells run on plain uint8 arrays.  f_in and f_out are
    count / n, as ink_fraction computes them; e's count / n equals the mean euclidean_distance takes,
    since a 0/1 sum is an exact integer, and the count is the field's ones for a flip and the ink added
    for a set1 gate.  Where the noise field is the same for every seed, every rep's q, e and f_out are
    rep 0's; each rep keeps its seed."""
    algo_idx, start, stop = task
    alg = spec.algorithms[algo_idx]
    label, h = _family(alg)
    kind, hist, n_img, n_t, reps = spec.channel_kind, spec.histogram, len(spec.corpus), len(spec.t_grid), spec.reps
    flips = _KIND_GATES[kind] == "not"  # a flip changes exactly the field's ones; set1 only adds ink
    paths = spec.corpus[start:stop]
    bits = _halftones(alg, paths)
    records = []
    for img_idx, path in enumerate(paths, start):
        cell = f"algorithm {label!r}, image {path!r}"
        try:
            g = next(bits)
        except Exception as exc:
            raise SweepError(f"sweep aborted at {cell}: {exc}") from exc
        n, ink_in, ref = g.size, int(np.count_nonzero(g)), None
        f_in, mask, image_id = ink_in / n, spec.block and _block_mask(g, spec.block.size), Path(path).name
        for ti, t in enumerate(spec.t_grid):
            # the achieved density is 0 or 1 (no byte or every byte is below the threshold): one field for every seed
            fixed = noise_density(NoisePower(t)) in (0.0, 1.0)
            for rep in range(reps):
                index = ((algo_idx * n_img + img_idx) * n_t + ti) * reps + rep
                seed = derive_seed(spec.master_seed, index)
                try:
                    if rep == 0 or not fixed:
                        v = _noise_bits(g.shape, t, seed)
                        gp = _channel_bits(g, v, kind, mask)
                        if ref is None:  # a misfit histogram fails in the first cell
                            ref = _kl_reference(_histogram_bins(g, hist), hist.smoothing)
                        q, ink = _kl_from(ref, _histogram_bins(gp, hist)), int(np.count_nonzero(gp))
                        e = math.sqrt((np.count_nonzero(v) if flips else ink - ink_in) / n)
                        f_out = ink / n
                    records.append(RobustnessRecord(label, image_id, kind, t, h, rep, seed, q, e, f_in, f_out))
                except Exception as exc:
                    raise SweepError(f"sweep aborted at {cell}, t={t!r}, rep={rep}, seed={seed}: {exc}") from exc
    return records


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[RobustnessRecord]:
    """One record per (algorithm, image, t, rep), in canonical order.

    A task is one algorithm over a run of consecutive images, which it halftones as same-shape stacks;
    ``jobs`` > 1 distributes the tasks across at most that many processes.  A cell's seed index is its
    canonical place, so the output is identical for every jobs value.
    """
    _check_int(jobs, "jobs", 1)
    n_img = len(spec.corpus)
    step = min(_STACK, -(-n_img // jobs))  # as large a run as leaves each algorithm a task per worker
    tasks = [(ai, start, start + step) for ai in range(len(spec.algorithms)) for start in range(0, n_img, step)]
    task = partial(_run_task, spec)
    workers = min(jobs, len(tasks))  # a pool starts all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(task, tasks))
    else:
        chunks = list(map(task, tasks))
    return [rec for chunk in chunks for rec in chunk]


def is_epsilon_robust(records, epsilon: float):
    """Whether every record satisfies q <= epsilon.

    Returns (robust, max_q, record_with_max_q); epsilon 0 with all-zero q is
    the perfect-algorithm case.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to judge")
    if not epsilon >= 0:  # false for NaN too
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    worst = max(records, key=lambda r: r.q_bits)
    return worst.q_bits <= epsilon, worst.q_bits, worst


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if np.isinf(arr).any():
        return math.inf, math.inf
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, stderr


def corpus_average(records) -> list[AggregateRow]:
    """Mean q with standard error per (algorithm, t), over images x reps; the one
    grouping of records, whose rows compare reads."""
    groups: dict = {}
    for r in records:
        groups.setdefault((r.algo, r.noise_kind, r.t, r.h), []).append(r.q_bits)
    if not groups:
        raise ValueError("no records to aggregate")
    rows = [
        AggregateRow(algo, kind, t, h, *_mean_stderr(qs), len(qs)) for (algo, kind, t, h), qs in groups.items()
    ]
    rows.sort(key=lambda r: (r.algo, r.t, -1 if r.h is None else r.h))
    return rows


def _families(records) -> dict:
    """Records grouped by (algo, h), the family a record belongs to, in first-seen order."""
    families: dict = {}
    for r in records:
        families.setdefault((r.algo, r.h), []).append(r)
    return families


def compare(records_k, records_t) -> list[ComparisonVerdict]:
    """Per-t verdicts: the algorithm with smaller mean q (corpus_average's) is more robust there; |diff|
    within DEFAULT_TIE_TOLERANCE is a TIE, and inf against inf a diff of 0.0.  Each side is one noise kind
    and one (algo, h) family, over one (image, t) grid: a refusal names the first t, else (image, t), a side lacks."""
    records_k, records_t = list(records_k), list(records_t)
    sides = (("first", records_k), ("second", records_t))
    if not records_k or not records_t:
        raise ValueError("both record lists must be non-empty")
    kinds = []
    for side, records in sides:
        side_kinds = {r.noise_kind for r in records}
        if len(side_kinds) != 1:
            raise ValueError(f"{side} records mix noise kinds {sorted(side_kinds)}")
        kinds.extend(side_kinds)
    if kinds[0] != kinds[1]:
        raise ValueError(f"the two sides were recorded under different noise kinds: {kinds[0]!r} vs {kinds[1]!r}")
    for side, records in sides:
        families = sorted(_families(records), key=str)
        if len(families) != 1:
            raise ValueError(f"{side} records must cover exactly one algorithm, got {families}")
    t_k, t_t = (sorted({r.t for r in records}) for _, records in sides)
    if t_k != t_t:
        t = min(set(t_k) ^ set(t_t))
        side = "second" if t in t_k else "first"
        raise ValueError(f"t grids differ: {t_k} vs {t_t} (t={t} missing from the {side} records)")
    cells_k, cells_t = ({(r.image, r.t) for r in records} for _, records in sides)
    if cells_k != cells_t:
        image, t = min(cells_k ^ cells_t)
        side = "second" if (image, t) in cells_k else "first"
        raise ValueError(f"record lists cover different (image, t) grids: {(image, t)} missing from the {side} records")
    verdicts = []
    for row_k, row_t in zip(corpus_average(records_k), corpus_average(records_t)):  # one row per t, by t
        mean_k, mean_t = row_k.mean_q, row_t.mean_q
        diff = 0.0 if math.isinf(mean_k) and math.isinf(mean_t) else mean_k - mean_t  # inf against inf ties
        verdict = "TIE" if abs(diff) <= DEFAULT_TIE_TOLERANCE else "K_MORE_ROBUST" if diff < 0 else "T_MORE_ROBUST"
        verdicts.append(ComparisonVerdict(row_k.algo, row_t.algo, row_k.t, mean_k, mean_t, diff, verdict))
    return verdicts


def difference_surface(records_first, records_blockd):
    """(t_values, h_values, surface), the mean-q difference over (t, h) of the first algorithm minus blockd:
    surface[i, j] is compare(records_first, the blockd records at h_j)[i].diff, so inf against inf is 0.0,
    and compare's refusal names its h.  Positive entries mark where the block algorithm is more robust."""
    records_first, records_blockd = list(records_first), list(records_blockd)
    if {r.algo for r in records_blockd} != {"blockd"}:
        raise ValueError("second record list must be blockd with h swept")
    by_h = {h: records for (_, h), records in _families(records_blockd).items()}
    if None in by_h and len(by_h) > 1:
        raise ValueError(f"second records mix an empty h with h = {sorted(by_h.keys() - {None})}")
    h_values = sorted(by_h)
    columns = []
    for h in h_values:
        try:
            columns.append(compare(records_first, by_h[h]))
        except ValueError as exc:
            raise ValueError(f"blockd h={h}: {exc}") from None
    surface = np.column_stack([[v.diff for v in column] for column in columns])
    return [v.t for v in columns[0]], h_values, surface


# ---------------------------------------------------------------------------
# CSV serialization ('.' decimal separator, "inf" for +infinity)
# ---------------------------------------------------------------------------

def _write_csv(rows, fields, path) -> None:
    # UTF-8, as read_records_csv reads it; csv writes None as an empty field and a float by its str
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(map(operator.attrgetter(*fields), rows))


def write_records_csv(records, path) -> None:
    _write_csv(records, RECORD_FIELDS, path)


def read_records_csv(path) -> list[RobustnessRecord]:
    """Records from a CSV written by write_records_csv; a bad row or byte is a ValueError naming its line."""
    records = []
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header != list(RECORD_FIELDS):
            raise ValueError(f"unexpected record CSV header {header}")
        for row in filter(None, reader):  # blank lines are skipped
            try:
                if len(row) != len(RECORD_FIELDS):
                    raise ValueError(f"expected {len(RECORD_FIELDS)} fields, got {len(row)}")
                records.append(RobustnessRecord(*(parse(text) for parse, text in zip(_RECORD_PARSERS, row))))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    except csv.Error as exc:  # a line the csv module cannot split, such as an over-long field
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return records


def write_aggregates_csv(rows, path) -> None:
    _write_csv(rows, AGGREGATE_FIELDS, path)
