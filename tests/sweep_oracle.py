"""Reference sweep cells for the array core of `inkchannel.robustness`.

This is the object-level cell path the array core replaced: each cell builds
a ChannelConfig, sends the halftone through `transmit`, and measures the
result with `image_relative_entropy`, `euclidean_distance` and
`ink_fraction`.  The differential tests hold `run_sweep` to the same records.
"""

from pathlib import Path

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
