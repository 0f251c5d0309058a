"""Command-line surface.

Verbs: halftone, noise, transmit, metric, entropy-curve, sweep, compare,
screens.  Exit codes are a stable scripting contract: 0 success, 2 usage or
config error, 3 I/O error.  Every randomized command requires an explicit
--seed; nothing is drawn from system entropy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path

from . import channel, imagery, metrics, robustness
from .halftone import ALGORITHMS, HalftoneSpec, halftone, screen_catalog

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_SWEEP_SMOOTHING = 1e-9  # harness default keeps sweep curves finite


def format_scalar(v: float) -> str:
    """Scalar print format: 'inf', bare integers, else 12 significant digits."""
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{Decimal(f'{v:.11e}'):f}"


# ---------------------------------------------------------------------------
# shared flag parsing
# ---------------------------------------------------------------------------

@contextmanager
def _named(where: str):
    """Prefix a ValueError raised in the block with ``where``, the flag, file or token at fault."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"{what}: empty list")
    return values


def _parse_hist(hist: str, lam: float | None) -> metrics.HistogramSpec:
    if hist == "binary":
        return metrics.HistogramSpec(mode="binary", smoothing=lam)
    if hist.startswith("block:"):
        try:
            block, bins = (int(part) for part in hist[len("block:"):].split("x"))
        except ValueError:
            raise ValueError(f"--hist: bad block spec {hist!r} (want block:<size>x<bins>)") from None
        with _named("--hist"):
            return metrics.HistogramSpec(mode="block", block=block, bins=bins, smoothing=lam)
    raise ValueError(f"--hist: unknown mode {hist!r} (want 'binary' or 'block:<size>x<bins>')")


def _parse_smoothing(text: str) -> float | None:
    if text == "none":
        return None
    if text.startswith("additive:"):
        try:
            lam = float(text[len("additive:"):])
        except ValueError:
            raise ValueError(f"--smoothing: bad constant in {text!r}") from None
        with _named("--smoothing"):
            return metrics.HistogramSpec(smoothing=lam).smoothing
    raise ValueError(f"--smoothing: expected 'none' or 'additive:<lambda>', got {text!r}")


# algorithm token parameter -> (HalftoneSpec field, value parser)
_ALGORITHM_PARAMS = {"h": ("h", int), "level": ("level", float), "seed": ("seed", int), "order": ("matrix_order", int)}


def _parse_algorithm_token(token: str) -> HalftoneSpec:
    name, *params = token.split(":")
    kwargs: dict = {}
    with _named(f"algorithm {token!r}"):
        for part in params:
            key, eq, value = (s.strip() for s in part.partition("="))
            if not eq:
                raise ValueError(f"parameter {part!r} is not key=value")
            if key not in _ALGORITHM_PARAMS:
                raise ValueError(f"unknown parameter {key!r}")
            field, convert = _ALGORITHM_PARAMS[key]
            if field in kwargs:
                raise ValueError(f"repeated parameter {key!r}")
            try:
                kwargs[field] = convert(value)
            except ValueError:
                raise ValueError(f"bad value for {key!r}") from None
        return HalftoneSpec(algorithm=name.strip(), **kwargs)


def _load_binary(path: str, flag: str) -> imagery.BinaryImage:
    img = imagery.read_image(path)
    if not isinstance(img, imagery.BinaryImage):
        raise ValueError(f"{flag}: {path} is not a PBM binary image")
    return img


# ---------------------------------------------------------------------------
# sweep config file
# ---------------------------------------------------------------------------

def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r}") from None


def _expand_corpus(text: str) -> list[str]:
    """Comma-separated .pgm files and directories; a directory gives its .pgm files, sorted."""
    corpus: list[str] = []
    for tok in filter(None, (tok.strip() for tok in text.split(","))):
        found = sorted(str(f) for f in Path(tok).glob("*.pgm")) if Path(tok).is_dir() else [tok]
        if not found:
            raise ValueError(f"directory {tok!r} contains no .pgm files")
        corpus.extend(found)
    return corpus


# config key -> (SweepSpec field, value parser); "smoothing" meets "histogram" after the parse
_SWEEP_KEYS = {
    "algorithms": ("algorithms", lambda v: [_parse_algorithm_token(tok) for tok in map(str.strip, v.split(",")) if tok]),
    "kind": ("channel_kind", str),
    "block": ("block", lambda v: channel.BlockSpec(_parse_int(v))),
    "t_grid": ("t_grid", lambda v: _parse_float_list(v, "t_grid")),
    "reps": ("reps", _parse_int),
    "hist": ("histogram", lambda v: _parse_hist(v, None)),
    "smoothing": ("smoothing", _parse_smoothing),
    "seed": ("master_seed", _parse_int),
    "corpus": ("corpus", _expand_corpus),
}
_REQUIRED_KEYS = ("algorithms", "kind", "t_grid", "reps", "seed", "corpus")


def parse_sweep_config(path) -> robustness.SweepSpec:
    """Parse the flat key = value sweep config; see sweep.example.cfg."""
    data = Path(path).read_bytes()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:  # name the line holding the bad byte, counted as splitlines counts
        lineno = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    fields: dict = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, eq, value = (part.strip() for part in stripped.partition("="))
        with _named(f"{path}:{lineno}"):
            if not eq:
                raise ValueError(f"expected 'key = value', got {line.strip()!r}")
            if key not in _SWEEP_KEYS:
                raise ValueError(f"unknown key {key!r} (expected one of {tuple(_SWEEP_KEYS)})")
            field, parse = _SWEEP_KEYS[key]
            if field in fields:
                raise ValueError(f"duplicate key {key!r}")
            if not value:
                raise ValueError(f"empty value for {key!r}")
            fields[field] = parse(value)
    missing = [key for key in _REQUIRED_KEYS if _SWEEP_KEYS[key][0] not in fields]
    if missing:
        raise ValueError(f"{path}: missing required key {missing[0]!r}")
    smoothing = fields.pop("smoothing", DEFAULT_SWEEP_SMOOTHING)
    fields["histogram"] = dataclasses.replace(fields.get("histogram", metrics.HistogramSpec()), smoothing=smoothing)
    with _named(str(path)):
        return robustness.SweepSpec(**fields)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_halftone(args) -> int:
    if args.algo == "blockd" and args.h is None:
        raise ValueError("--h is required for --algo blockd")
    if args.algo == "random" and args.seed is None:
        raise ValueError("--seed is required for --algo random")
    spec = HalftoneSpec(algorithm=args.algo, h=args.h, level=args.level, seed=args.seed, matrix_order=args.order)
    img = imagery.read_gray(args.input)
    out = halftone(img, spec)
    imagery.write_binary(out, args.output)
    print(format_scalar(out.ink_fraction()))
    return EXIT_OK


def cmd_noise(args) -> int:
    power = _noise_power(args.power)
    field = channel.gen_noise(args.width, args.height, power, args.seed)
    imagery.write_binary(field, args.output)
    print(
        f"t={format_scalar(power.t)} "
        f"target_density={format_scalar(channel.noise_density(power))} "
        f"realized={format_scalar(field.ink_fraction())}"
    )
    return EXIT_OK


def _noise_power(value: float) -> channel.NoisePower:
    with _named("--power"):
        return channel.NoisePower(value)


def cmd_transmit(args) -> int:
    with _named("--block"):
        block = None if args.block is None else channel.BlockSpec(args.block)
        channel._check_kind(args.kind, block)
    power = _noise_power(args.power)
    cfg = channel.ChannelConfig(kind=args.kind, power=power, seed=args.seed, block=block)
    g = _load_binary(args.input, "--input")
    gp = channel.transmit(g, cfg)
    imagery.write_binary(gp, args.output)
    print(f"f_in={format_scalar(g.ink_fraction())}")
    print(f"f_out={format_scalar(gp.ink_fraction())}")
    return EXIT_OK


def cmd_metric(args) -> int:
    if args.name == "entropy":
        if args.b is not None:
            raise ValueError("--b is not used with --name entropy")
        img = _load_binary(args.a, "--a")
        print(format_scalar(metrics.binary_entropy(img)))
        return EXIT_OK
    if args.b is None:
        raise ValueError(f"--b is required for --name {args.name}")
    if args.name == "euclid":
        a, b = imagery.read_image(args.a), imagery.read_image(args.b)
        print(format_scalar(metrics.euclidean_distance(a, b)))
        return EXIT_OK
    # kl
    spec = _parse_hist(args.hist, _parse_smoothing(args.smoothing))
    a = _load_binary(args.a, "--a")
    b = _load_binary(args.b, "--b")
    print(format_scalar(metrics.image_relative_entropy(a, b, spec)))
    return EXIT_OK


def cmd_entropy_curve(args) -> int:
    t_grid = _parse_float_list(args.t_grid, "--t-grid")
    rows = metrics.noise_entropy_curve(args.width, args.height, t_grid, args.reps, args.seed)
    with open(args.out, "w", newline="") as fh:
        fh.write("t,mean,std,reps\n")
        for t, mean, std in rows:
            fh.write(f"{t!r},{mean!r},{std!r},{args.reps}\n")
    for t, mean, std in rows:
        print(f"t={format_scalar(t)} mean={format_scalar(mean)} std={format_scalar(std)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = parse_sweep_config(args.spec)
    records = robustness.run_sweep(spec, jobs=args.jobs)
    robustness.write_records_csv(records, args.out)
    agg_path = args.agg_out if args.agg_out else str(Path(args.out).with_suffix(".agg.csv"))
    aggregates = robustness.corpus_average(records)
    robustness.write_aggregates_csv(aggregates, agg_path)
    meta_path = str(Path(args.out).with_suffix(".meta.json"))
    _write_sweep_meta(spec, meta_path)

    print(f"records: {args.out} ({len(records)} rows)")
    print(f"aggregates: {agg_path}")
    print(f"metadata: {meta_path}")
    print(f"{'algo':<16} {'kind':<12} {'t':>6} {'h':>4} {'mean_q':>14} {'stderr_q':>14} {'n':>4}")
    for row in aggregates:
        h = "" if row.h is None else row.h
        print(
            f"{row.algo:<16} {row.noise_kind:<12} {row.t:>6} {h!s:>4} "
            f"{format_scalar(row.mean_q):>14} {format_scalar(row.stderr_q):>14} {row.n:>4}"
        )

    families = list(dict.fromkeys((r.algo, r.h) for r in records))  # config order
    if len(families) == 2:
        by_family = {fam: [r for r in records if (r.algo, r.h) == fam] for fam in families}
        verdicts = robustness.compare(by_family[families[0]], by_family[families[1]])
        for v in verdicts:
            print(
                f"compare {v.algo_k} vs {v.algo_t} at t={format_scalar(v.t)}: {v.verdict} "
                f"(diff={format_scalar(v.diff)})"
            )
    return EXIT_OK


def _write_sweep_meta(spec: robustness.SweepSpec, path: str) -> None:
    meta = dataclasses.asdict(spec) | {
        "algorithms": [a.label() for a in spec.algorithms],
        "blockd_h": sorted({a.h for a in spec.algorithms if a.algorithm == "blockd"}),
        "block": None if spec.block is None else spec.block.size,
        "achieved_noise_density": [channel.noise_density(channel.NoisePower(t)) for t in spec.t_grid],
    }
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_compare(args) -> int:
    records = robustness.read_records_csv(args.records)
    side_a = _select_family(records, args.a, args.h_a, "--a")
    side_b = _select_family(records, args.b, args.h_b, "--b")
    for v in robustness.compare(side_a, side_b):
        print(
            f"t={format_scalar(v.t)}: {v.algo_k} mean_q={format_scalar(v.mean_k)}  "
            f"{v.algo_t} mean_q={format_scalar(v.mean_t)}  -> {v.verdict}"
        )
    return EXIT_OK


def _select_family(records, label: str, h: int | None, flag: str):
    selected = [r for r in records if r.algo == label and (h is None or r.h == h)]
    if not selected:
        raise ValueError(f"{flag}: no records for algorithm {label!r}" + (f" with h={h}" if h is not None else ""))
    if h is None and len({r.h for r in selected}) > 1:
        raise ValueError(f"{flag}: algorithm {label!r} has several h values; pick one with {flag.replace('--', '--h-')}")
    return selected


def cmd_screens(args) -> int:
    for name, matrix in screen_catalog().items():
        print(name)
        width = len(str(matrix.max()))
        for row in matrix:
            print(" ".join(f"{v:>{width}}" for v in row))
        print()
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="inkchannel", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("halftone", help="halftone a PGM into a PBM")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--h", type=int, default=None, help="blockd tile size")
    p.add_argument("--level", type=float, default=None, help="threshold level in [0,1]")
    p.add_argument("--order", type=int, default=None, help="bayer/cdot matrix order")
    p.add_argument("--seed", type=int, default=None, help="seed (required for random)")
    p.set_defaults(func=cmd_halftone)

    p = sub.add_parser("noise", help="generate a raw noise field as PBM")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("transmit", help="send a PBM through the noisy channel")
    p.add_argument("--kind", required=True, choices=channel.CHANNEL_KINDS)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--block", type=int, default=None, help="block size (block-erase only)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_transmit)

    p = sub.add_parser("metric", help="print a distortion/information measure")
    p.add_argument("--name", required=True, choices=("euclid", "kl", "entropy"))
    p.add_argument("--a", required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--hist", default="binary", help="binary | block:<size>x<bins>")
    p.add_argument("--smoothing", default="none", help="none | additive:<lambda>")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("entropy-curve", help="mean noise entropy over a power grid")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--t-grid", required=True, help="comma-separated powers")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_entropy_curve)

    p = sub.add_parser("sweep", help="run a robustness sweep from a config file")
    p.add_argument("--spec", required=True, help="sweep config file")
    p.add_argument("--out", required=True, help="record CSV output path")
    p.add_argument("--agg-out", default=None, help="aggregate CSV path (default: <out>.agg.csv)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (result is jobs-invariant)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="pairwise robustness verdicts from a record CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--a", required=True, help="first algorithm label")
    p.add_argument("--b", required=True, help="second algorithm label")
    p.add_argument("--h-a", type=int, default=None, help="h for the first side (blockd)")
    p.add_argument("--h-b", type=int, default=None, help="h for the second side (blockd)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("screens", help="print all compiled-in screen/class matrices")
    p.set_defaults(func=cmd_screens)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, MemoryError, imagery.NetpbmError, robustness.SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
