"""Command-line surface.

Verbs: halftone, noise, transmit, metric, entropy-curve, sweep, compare,
screens.  Exit codes are a stable scripting contract: 0 success, 2 usage or
config error, 3 I/O error.  Every randomized command requires an explicit
seed; nothing is drawn from system entropy.
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
from .halftone import HalftoneSpec, halftone, screen_catalog

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
    fields: dict = {}
    for lineno, line in enumerate(imagery._read_text(path).splitlines(), start=1):
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
    with _named("--algo"):
        spec = _parse_algorithm_token(args.algo)
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


# metric name -> the optional flags it refuses; only kl builds histograms
_METRIC_UNUSED = {"euclid": ("hist", "smoothing"), "kl": (), "entropy": ("b", "hist", "smoothing")}


def cmd_metric(args) -> int:
    for dest in _METRIC_UNUSED[args.name]:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest} is not used with --name {args.name}")
    if args.name == "entropy":
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
    lam = None if args.smoothing is None else _parse_smoothing(args.smoothing)
    spec = _parse_hist("binary" if args.hist is None else args.hist, lam)
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
    with _named("--out"):  # a path with no file name, such as '.', has no .agg.csv or .meta.json sibling
        agg_path = args.agg_out if args.agg_out else str(Path(args.out).with_suffix(".agg.csv"))
        meta_path = str(Path(args.out).with_suffix(".meta.json"))
    # checked before the sweep runs: outputs on one path would overwrite each other
    outputs = {"--out": args.out, "--agg-out": agg_path, "the metadata path of --out": meta_path}
    resolved = [Path(path).resolve() for path in outputs.values()]
    clashing = [flag for flag, path in zip(outputs, resolved) if resolved.count(path) > 1]
    if clashing:
        raise ValueError(f"{' and '.join(clashing)} name the same file {outputs[clashing[0]]}")
    spec = parse_sweep_config(args.spec)
    records = robustness.run_sweep(spec, jobs=args.jobs)
    robustness.write_records_csv(records, args.out)
    aggregates = robustness.corpus_average(records)
    robustness.write_aggregates_csv(aggregates, agg_path)
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

    families = robustness._families(records)  # config order
    if len(families) == 2:
        for v in robustness.compare(*families.values()):
            print(
                f"compare {v.algo_k} vs {v.algo_t} at t={format_scalar(v.t)}: {v.verdict} "
                f"(diff={format_scalar(v.diff)})"
            )
    return EXIT_OK


def _write_sweep_meta(spec: robustness.SweepSpec, path: str) -> None:
    meta = dataclasses.asdict(spec) | {
        "algorithms": [a.label() for a in spec.algorithms],
        "blockd_h": sorted({a.h for a in spec.algorithms} - {None}),
        "block": None if spec.block is None else spec.block.size,
        "achieved_noise_density": [channel.noise_density(channel.NoisePower(t)) for t in spec.t_grid],
    }
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_compare(args) -> int:
    families = robustness._families(robustness.read_records_csv(args.records))
    side_a = _select_family(families, args.a, "--a")
    side_b = _select_family(families, args.b, "--b")
    for v in robustness.compare(side_a, side_b):
        print(
            f"t={format_scalar(v.t)}: {v.algo_k} mean_q={format_scalar(v.mean_k)}  "
            f"{v.algo_t} mean_q={format_scalar(v.mean_t)}  -> {v.verdict}"
        )
    return EXIT_OK


def _select_family(families: dict, token: str, flag: str):
    """The records of the (algo, h) family that ``token`` names, from robustness._families."""
    with _named(flag):
        family = robustness._family(_parse_algorithm_token(token))
        if family not in families:
            raise ValueError(f"no records for algorithm {token!r}")
    return families[family]


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

def _halftone_args(p) -> None:
    p.add_argument("--algo", required=True, help="a sweep config algorithm token: fs, blockd:h=19, ...")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)


def _noise_args(p) -> None:
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)


def _transmit_args(p) -> None:
    p.add_argument("--kind", required=True, choices=channel.CHANNEL_KINDS)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--block", type=int, default=None, help="block size (block-erase only)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, required=True)


def _metric_args(p) -> None:
    p.add_argument("--name", required=True, choices=tuple(_METRIC_UNUSED))
    p.add_argument("--a", required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--hist", default=None, help="kl only: binary (default) | block:<size>x<bins>")
    p.add_argument("--smoothing", default=None, help="kl only: none (default) | additive:<lambda>")


def _entropy_curve_args(p) -> None:
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--t-grid", required=True, help="comma-separated powers")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV output path")


def _sweep_args(p) -> None:
    p.add_argument("--spec", required=True, help="sweep config file")
    p.add_argument("--out", required=True, help="record CSV output path")
    p.add_argument("--agg-out", default=None, help="aggregate CSV path (default: <out>.agg.csv)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (result is jobs-invariant)")


def _compare_args(p) -> None:
    p.add_argument("--records", required=True)
    p.add_argument("--a", required=True, help="first algorithm, a token as in halftone --algo")
    p.add_argument("--b", required=True, help="second algorithm, a token as in halftone --algo")


# verb -> (help, function that adds its arguments, command); usage and --help list the verbs in this order
VERBS = {
    "halftone": ("halftone a PGM into a PBM", _halftone_args, cmd_halftone),
    "noise": ("generate a raw noise field as PBM", _noise_args, cmd_noise),
    "transmit": ("send a PBM through the noisy channel", _transmit_args, cmd_transmit),
    "metric": ("print a distortion/information measure", _metric_args, cmd_metric),
    "entropy-curve": ("mean noise entropy over a power grid", _entropy_curve_args, cmd_entropy_curve),
    "sweep": ("run a robustness sweep from a config file", _sweep_args, cmd_sweep),
    "compare": ("pairwise robustness verdicts from a record CSV", _compare_args, cmd_compare),
    "screens": ("print all compiled-in screen/class matrices", lambda p: None, cmd_screens),
}


def build_parser(verbs=tuple(VERBS)) -> argparse.ArgumentParser:
    """The top-level parser with a subparser for each of ``verbs`` (default: every verb)."""
    parser = argparse.ArgumentParser(prog="inkchannel", description=__doc__)
    # however few verbs are built, the usage line argparse prints for a stray argument lists them all
    metavar = None if len(verbs) == len(VERBS) else "{" + ",".join(VERBS) + "}"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for verb in verbs:
        help_text, add_arguments, command = VERBS[verb]
        p = sub.add_parser(verb, help=help_text, allow_abbrev=False)  # the retired --h is refused, not read as --help
        add_arguments(p)
        p.set_defaults(func=command)
    return parser


def main(argv=None) -> int:
    """Run one command line; a line that starts with a verb builds only that verb's parser."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[:1]) if argv and argv[0] in VERBS else build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run_command(args.func, args)


def run_command(command, *args) -> int:
    """``command(*args)``, or one ``error:`` line and EXIT_IO for an I/O error, EXIT_USAGE for a ValueError."""
    try:
        return command(*args)
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
