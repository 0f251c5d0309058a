"""Robustness harness: sweeps of (algorithm x image x noise power x rep).

Each sweep cell derives its own seed from (master_seed, cell index), so
record lists are bit-identical across runs and across any degree of
parallelism.  Divergences are aggregated as means of per-rep values (not
divergences of pooled histograms), which also yields standard errors.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import BlockSpec, ChannelConfig, NoisePower, _check_int, _check_kind, _check_seed, derive_seed, transmit
from .halftone import HalftoneSpec, halftone
from .imagery import read_gray
from .metrics import HistogramSpec, euclidean_distance, image_relative_entropy

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

RECORD_FIELDS = ("algo", "image", "noise_kind", "t", "h", "rep", "seed", "q_bits", "e_dist", "f_in", "f_out")
AGGREGATE_FIELDS = ("algo", "noise_kind", "t", "h", "mean_q", "stderr_q", "n")
_TEXT_FIELDS = ("algo", "image", "noise_kind")
_FLOAT_FIELDS = ("t", "q_bits", "e_dist", "f_in", "f_out")  # the rest are integers; h may be empty

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
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
        object.__setattr__(self, "corpus", tuple(str(p) for p in self.corpus))
        if not self.algorithms:
            raise ValueError("sweep needs at least one algorithm")
        if not all(isinstance(a, HalftoneSpec) for a in self.algorithms):
            raise ValueError("algorithms must be HalftoneSpec instances")
        _check_kind(self.channel_kind, self.block)
        if not self.t_grid:
            raise ValueError("sweep needs a non-empty t grid")
        for t in self.t_grid:
            NoisePower(t)  # range check
        if _check_int(self.reps, "reps") < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
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
    """(algo, h) as records carry them; h is filled for blockd only."""
    return alg.label(), alg.h if alg.algorithm == "blockd" else None


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
        NoisePower(self.t)
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


def _run_task(spec: SweepSpec, algo_idx: int, img_idx: int) -> list[RobustnessRecord]:
    """All (t, rep) cells for one (algorithm, image); the halftone is computed once."""
    alg = spec.algorithms[algo_idx]
    path = spec.corpus[img_idx]
    label, h = _family(alg)
    cell = f"algorithm {label!r}, image {path!r}"
    try:
        g = halftone(read_gray(path), alg)
    except Exception as exc:
        raise SweepError(f"sweep aborted at {cell}: {exc}") from exc
    f_in = g.ink_fraction()
    image_id = Path(path).name
    n_t, reps = len(spec.t_grid), spec.reps
    n_img = len(spec.corpus)
    records = []
    for ti, t in enumerate(spec.t_grid):
        for rep in range(reps):
            index = ((algo_idx * n_img + img_idx) * n_t + ti) * reps + rep
            seed = derive_seed(spec.master_seed, index)
            try:
                cfg = ChannelConfig(kind=spec.channel_kind, power=NoisePower(t), seed=seed, block=spec.block)
                gp = transmit(g, cfg)
                records.append(
                    RobustnessRecord(
                        algo=label,
                        image=image_id,
                        noise_kind=spec.channel_kind,
                        t=t,
                        h=h,
                        rep=rep,
                        seed=seed,
                        q_bits=image_relative_entropy(g, gp, spec.histogram),
                        e_dist=euclidean_distance(g, gp),
                        f_in=f_in,
                        f_out=gp.ink_fraction(),
                    )
                )
            except Exception as exc:
                raise SweepError(f"sweep aborted at {cell}, t={t!r}, rep={rep}, seed={seed}: {exc}") from exc
    return records


def _run_task_star(args) -> list[RobustnessRecord]:
    return _run_task(*args)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[RobustnessRecord]:
    """One record per (algorithm, image, t, rep), in canonical order.

    ``jobs`` > 1 distributes (algorithm, image) tasks across at most that many
    processes; the output is identical for every jobs value.
    """
    if _check_int(jobs, "jobs") < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(spec, ai, ii) for ai in range(len(spec.algorithms)) for ii in range(len(spec.corpus))]
    workers = min(jobs, len(tasks))  # a pool starts all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_task_star, tasks))
    else:
        chunks = [_run_task_star(t) for t in tasks]
    return [rec for chunk in chunks for rec in chunk]


def is_epsilon_robust(records, epsilon: float):
    """Whether every record satisfies q <= epsilon.

    Returns (robust, max_q, record_with_max_q); epsilon 0 with all-zero q is
    the perfect-algorithm case.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to judge")
    if epsilon < 0:
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


def _group_stats(records) -> dict:
    """(algo, noise_kind, t, h) -> (mean_q, stderr_q, n); the single source of
    truth behind both corpus_average and compare."""
    groups: dict = {}
    for r in records:
        groups.setdefault((r.algo, r.noise_kind, r.t, r.h), []).append(r.q_bits)
    return {k: (*_mean_stderr(v), len(v)) for k, v in groups.items()}


def corpus_average(records) -> list[AggregateRow]:
    """Mean q with standard error per (algorithm, t), over images x reps."""
    records = list(records)
    if not records:
        raise ValueError("no records to aggregate")
    stats = _group_stats(records)
    rows = [
        AggregateRow(algo=k[0], noise_kind=k[1], t=k[2], h=k[3], mean_q=v[0], stderr_q=v[1], n=v[2])
        for k, v in stats.items()
    ]
    rows.sort(key=lambda r: (r.algo, r.t, -1 if r.h is None else r.h))
    return rows


def _single_kind(records, side: str) -> str:
    kinds = {r.noise_kind for r in records}
    if len(kinds) != 1:
        raise ValueError(f"{side} records mix noise kinds {sorted(kinds)}")
    return kinds.pop()


def _two_sides(records_a, records_b) -> tuple[list, list, str]:
    """Both sides as lists, each non-empty and of one noise kind, the same on both sides."""
    records_a, records_b = list(records_a), list(records_b)
    if not records_a or not records_b:
        raise ValueError("both record lists must be non-empty")
    kind_a, kind_b = _single_kind(records_a, "first"), _single_kind(records_b, "second")
    if kind_a != kind_b:
        raise ValueError(f"the two sides were recorded under different noise kinds: {kind_a!r} vs {kind_b!r}")
    return records_a, records_b, kind_a


def _single_family(records, side: str) -> tuple[str, int | None]:
    """(algo, h) shared by every record of one side."""
    labels = {(r.algo, r.h) for r in records}
    if len(labels) != 1:
        raise ValueError(f"{side} records must cover exactly one algorithm, got {sorted(labels, key=str)}")
    [(algo, h)] = labels
    return algo, h


def compare(records_k, records_t, tie_tolerance: float = DEFAULT_TIE_TOLERANCE) -> list[ComparisonVerdict]:
    """Per-t verdicts: the algorithm with smaller mean q is more robust there.

    Means come from the same grouping as corpus_average.  |difference| within
    ``tie_tolerance`` is a TIE.
    """
    records_k, records_t, kind = _two_sides(records_k, records_t)
    algo_k, h_k = _single_family(records_k, "first")
    algo_t, h_t = _single_family(records_t, "second")
    grid_k = {(r.image, r.t) for r in records_k}
    grid_t = {(r.image, r.t) for r in records_t}
    if grid_k != grid_t:
        raise ValueError("record lists cover different (image, t) grids")
    stats_k, stats_t = _group_stats(records_k), _group_stats(records_t)
    verdicts = []
    for t in sorted({r.t for r in records_k}):
        mean_k = stats_k[(algo_k, kind, t, h_k)][0]
        mean_t = stats_t[(algo_t, kind, t, h_t)][0]
        if math.isinf(mean_k) and math.isinf(mean_t):
            diff, verdict = 0.0, "TIE"
        else:
            diff = mean_k - mean_t
            if abs(diff) <= tie_tolerance:
                verdict = "TIE"
            elif diff < 0:
                verdict = "K_MORE_ROBUST"
            else:
                verdict = "T_MORE_ROBUST"
        verdicts.append(
            ComparisonVerdict(algo_k=algo_k, algo_t=algo_t, t=t, mean_k=mean_k, mean_t=mean_t, diff=diff, verdict=verdict)
        )
    return verdicts


def difference_surface(records_first, records_blockd):
    """Mean-q difference surface over (t, h): first algorithm minus blockd.

    Returns (t_values, h_values, surface) with surface[i, j] =
    mean q_first(t_i) - mean q_blockd(t_i, h_j).  Positive entries mark where
    the block algorithm is more robust.
    """
    records_first, records_blockd, kind = _two_sides(records_first, records_blockd)
    algo1, h1 = _single_family(records_first, "first")
    if {r.algo for r in records_blockd} != {"blockd"}:
        raise ValueError("second record list must be blockd with h swept")
    t_first = sorted({r.t for r in records_first})
    t_blockd = sorted({r.t for r in records_blockd})
    if t_first != t_blockd:
        raise ValueError(f"t grids differ: {t_first} vs {t_blockd}")
    h_values = sorted({r.h for r in records_blockd})
    stats_first = _group_stats(records_first)
    stats_blockd = _group_stats(records_blockd)
    surface = np.empty((len(t_first), len(h_values)), dtype=np.float64)
    for i, t in enumerate(t_first):
        m1 = stats_first[(algo1, kind, t, h1)][0]
        for j, h in enumerate(h_values):
            key = ("blockd", kind, t, h)
            if key not in stats_blockd:
                raise ValueError(f"missing blockd cell t={t}, h={h}")
            surface[i, j] = m1 - stats_blockd[key][0]
    return t_first, h_values, surface


# ---------------------------------------------------------------------------
# CSV serialization ('.' decimal separator, "inf" for +infinity)
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return "" if x is None else str(x)


def _write_csv(rows, fields, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([_fmt(getattr(r, f)) for f in fields] for r in rows)


def write_records_csv(records, path) -> None:
    _write_csv(records, RECORD_FIELDS, path)


def _parse_field(name: str, text: str):
    if name in _TEXT_FIELDS:
        return text
    if name in _FLOAT_FIELDS:
        return float(text)
    return None if name == "h" and not text else int(text)


def read_records_csv(path) -> list[RobustnessRecord]:
    """Records from a CSV written by write_records_csv; a bad row is a ValueError naming its line."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(RECORD_FIELDS):
            raise ValueError(f"unexpected record CSV header {reader.fieldnames}")
        for row in reader:
            try:
                records.append(RobustnessRecord(**{f: _parse_field(f, row[f]) for f in RECORD_FIELDS}))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return records


def write_aggregates_csv(rows, path) -> None:
    _write_csv(rows, AGGREGATE_FIELDS, path)
