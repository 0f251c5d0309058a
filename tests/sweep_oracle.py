"""Reference sweep cells for the array core of `inkchannel.robustness`.

This is the object-level cell path the array core replaced: each cell builds
a ChannelConfig, sends the halftone through `transmit`, and measures the
result with `image_relative_entropy`, `euclidean_distance` and
`ink_fraction`.  The differential tests hold `run_sweep` to the same records.
`kl` is the one-piece relative entropy that `metrics._kl` split into a
per-task reference and a per-cell score; a differential holds `_kl` to it.
"""

import math
from pathlib import Path

import numpy as np

from inkchannel import (
    ChannelConfig,
    NoisePower,
    RobustnessRecord,
    SweepError,
    derive_seed,
    euclidean_distance,
    halftone,
    image_relative_entropy,
    read_gray,
    transmit,
)
from inkchannel.robustness import _family


def run_task(spec, algo_idx: int, img_idx: int) -> list:
    """All (t, rep) cells for one (algorithm, image), one object pipeline per cell."""
    alg = spec.algorithms[algo_idx]
    path = spec.corpus[img_idx]
    label, h = _family(alg)
    cell = f"algorithm {label!r}, image {path!r}"
    try:
        g = halftone(read_gray(path), alg)
    except Exception as exc:
        raise SweepError(f"sweep aborted at {cell}: {exc}") from exc
    n_t, n_img, reps = len(spec.t_grid), len(spec.corpus), spec.reps
    records = []
    for ti, t in enumerate(spec.t_grid):
        for rep in range(reps):
            seed = derive_seed(spec.master_seed, ((algo_idx * n_img + img_idx) * n_t + ti) * reps + rep)
            try:
                cfg = ChannelConfig(kind=spec.channel_kind, power=NoisePower(t), seed=seed, block=spec.block)
                gp = transmit(g, cfg)
                records.append(
                    RobustnessRecord(
                        algo=label,
                        image=Path(path).name,
                        noise_kind=spec.channel_kind,
                        t=t,
                        h=h,
                        rep=rep,
                        seed=seed,
                        q_bits=image_relative_entropy(g, gp, spec.histogram),
                        e_dist=euclidean_distance(g, gp),
                        f_in=g.ink_fraction(),
                        f_out=gp.ink_fraction(),
                    )
                )
            except Exception as exc:
                raise SweepError(f"sweep aborted at {cell}, t={t!r}, rep={rep}, seed={seed}: {exc}") from exc
    return records


def run_sweep(spec) -> list:
    """Every task in run_sweep's canonical order, run serially."""
    return [
        rec for ai in range(len(spec.algorithms)) for ii in range(len(spec.corpus)) for rec in run_task(spec, ai, ii)
    ]


def kl(p: np.ndarray, q: np.ndarray, smoothing) -> float:
    """relative_entropy on plain probability vectors of one length, in one piece."""
    if smoothing is not None:
        p, q = ((v + smoothing) / (1.0 + smoothing * v.size) for v in (p, q))
    support = p > 0
    p, q = p[support], q[support]
    if (q == 0).any():
        return math.inf
    terms = p * (np.log2(p) - np.log2(q))
    total = float(terms.sum())
    # Gibbs guarantees >= 0; clip float-rounding dust just below zero
    return 0.0 if -1e-15 < total < 0.0 else total
