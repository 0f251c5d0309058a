"""Each parameter rule has one home: the spec that owns it.

A function that takes the parameter raw must reject a bad value with the
very message its spec gives, because it checks by building that spec; an
algorithm token gives that message named by the token, as the CLI and the
sweep config report it.  A parameter that its kind does not take is a bad
value too, whatever the value.
"""

import math
import re

import numpy as np
import pytest

from inkchannel import BinaryImage, HalftoneSpec, Histogram, HistogramSpec, block_lightness_histogram, imagery
from inkchannel.cli import DEFAULT_SWEEP_SMOOTHING, _parse_algorithm_token, _parse_hist, _parse_smoothing, build_parser
from inkchannel.cli import parse_sweep_config
from inkchannel.metrics import relative_entropy

HALF = Histogram(np.array([0.5, 0.5]))
BITS = BinaryImage(np.zeros((4, 4), dtype=np.uint8))

# HalftoneSpec field -> (algorithm token key, a value good where the field is taken)
FIELDS = {"h": ("h", 3), "level": ("level", 0.5), "seed": ("seed", 7), "matrix_order": ("order", 4)}
TAKES = {"threshold": "level", "random": "seed", "fs": None, "bayer": "matrix_order", "cdot": "matrix_order",
         "dotdif": None, "blockd": "h"}
FOREIGN = [(algorithm, field) for algorithm, own in TAKES.items() for field in FIELDS if field != own]


@pytest.mark.parametrize(
    "spec, raws",
    [
        pytest.param(lambda: HalftoneSpec("threshold", level=1.5), ("threshold:level=1.5",), id="level-1.5"),
        pytest.param(lambda: HalftoneSpec("blockd", h=0), ("blockd:h=0",), id="h-0"),
        pytest.param(lambda: HalftoneSpec("bayer", matrix_order=3), ("bayer:order=3",), id="order-3"),
        pytest.param(lambda: HalftoneSpec("bayer", matrix_order=16), ("bayer:order=16",), id="bayer-order-16"),
        pytest.param(lambda: HalftoneSpec("cdot", matrix_order=3), ("cdot:order=3",), id="cdot-order-3"),
        pytest.param(lambda: HalftoneSpec("cdot", matrix_order=2), ("cdot:order=2",), id="cdot-order-2"),
        pytest.param(
            lambda: HistogramSpec(smoothing=math.inf),
            (lambda: relative_entropy(HALF, HALF, smoothing=math.inf),),
            id="smoothing-inf",
        ),
        *(
            pytest.param(
                lambda block=block, bins=bins: HistogramSpec("block", block=block, bins=bins),
                (lambda block=block, bins=bins: block_lightness_histogram(BITS, block, bins),),
                id=f"block-{block}-bins-{bins}",
            )
            for block, bins in ((0, 4), (2.5, 4), (2, 1), (2, 2.5))
        ),
        *(
            pytest.param(
                lambda algorithm=algorithm, field=field: HalftoneSpec(algorithm, **{field: FIELDS[field][1]}),
                (f"{algorithm}:{FIELDS[field][0]}={FIELDS[field][1]}",),
                id=f"{algorithm}-takes-no-{field}",
            )
            for algorithm, field in FOREIGN
        ),
        pytest.param(lambda: HistogramSpec("binary", block=8), (), id="binary-takes-no-block"),
        pytest.param(lambda: HistogramSpec("binary", bins=16), (), id="binary-takes-no-bins"),
        pytest.param(lambda: HistogramSpec("binary", block=-3, bins=0), (), id="binary-takes-no-bad-block"),
    ],
)
def test_bad_value_gives_the_spec_message_everywhere(spec, raws):
    """A raw is a call or an algorithm token."""
    with pytest.raises(ValueError) as from_spec:
        spec()
    for raw in raws:
        token = isinstance(raw, str)
        with pytest.raises(ValueError) as from_raw:
            _parse_algorithm_token(raw) if token else raw()
        assert str(from_raw.value) == (f"algorithm {raw!r}: {from_spec.value}" if token else str(from_spec.value))


def test_cli_smoothing_names_its_flag_before_the_spec_message():
    with pytest.raises(ValueError) as from_spec:
        HistogramSpec(smoothing=math.inf)
    with pytest.raises(ValueError) as from_cli:
        _parse_smoothing("additive:inf")
    assert str(from_cli.value) == f"--smoothing: {from_spec.value}"


@pytest.mark.parametrize("order", [2, 3, 16])
def test_cdot_order_message_names_only_the_cdot_orders(order):
    with pytest.raises(ValueError) as from_spec:
        HalftoneSpec("cdot", matrix_order=order)
    allowed = str(from_spec.value).partition("got")[0]
    assert "4 and 8" in allowed and "2" not in allowed


def test_histogram_rule_lives_with_histogram_and_metrics_re_exports_it():
    from inkchannel import imagery, metrics

    assert metrics.HistogramSpec is imagery.HistogramSpec is HistogramSpec
    assert metrics.HISTOGRAM_MODES is imagery.HISTOGRAM_MODES


# the histogram cases below come from the mode table, so a new mode brings its own
MODES = imagery._HISTOGRAMS
TAKEN = {field: rule for row in MODES.values() for field, rule in row.fields.items()}  # field -> (name, least)


def mode_values(mode):
    """A good value for each field the mode takes, each a different one, so that a token read in the wrong
    order shows."""
    return {field: least + 7 + i for i, (field, (_, least)) in enumerate(MODES[mode].fields.items())}


def mode_token(mode, values):
    """The mode's token with ``values``, a value per field in field order, in its <placeholders>."""
    values = iter(values.values())
    return re.sub(r"<[^>]*>", lambda _: str(next(values)), MODES[mode].token)


@pytest.mark.parametrize("mode, field", [(mode, field) for mode, row in MODES.items() for field in TAKEN
                                         if field not in row.fields])
def test_histogram_mode_refuses_by_name_each_field_it_does_not_take(mode, field):
    only = " and ".join(m for m, row in MODES.items() if field in row.fields)
    message = f"{mode} mode does not take {field} (only {only} mode does)"
    for value in (TAKEN[field][1], TAKEN[field][1] - 1):  # a value its taker refuses is refused by name too
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HistogramSpec(mode, **mode_values(mode), **{field: value})


@pytest.mark.parametrize("mode, field", [(mode, field) for mode, row in MODES.items() for field in row.fields])
def test_histogram_mode_requires_each_field_it_takes(mode, field):
    what, least = MODES[mode].fields[field]
    names = " and ".join(name for name, _ in MODES[mode].fields.values())
    with pytest.raises(ValueError, match=f"^{re.escape(f'{mode} mode requires {names}')}$"):
        HistogramSpec(mode, **{**mode_values(mode), field: None})
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be >= {least}, got {least - 1}')}$"):
        HistogramSpec(mode, **{**mode_values(mode), field: least - 1})
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be an integer, got 2.5')}$"):
        HistogramSpec(mode, **{**mode_values(mode), field: 2.5})
    low = mode_token(mode, {**mode_values(mode), field: least - 1})
    with pytest.raises(ValueError, match=f"^{re.escape(f'--hist: {what} must be >= {least}, got {least - 1}')}$"):
        _parse_hist(low, None)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("lam", [None, 1e-9])
def test_histogram_token_round_trips(mode, lam):
    assert _parse_hist(mode_token(mode, mode_values(mode)), lam) == HistogramSpec(mode, **mode_values(mode), smoothing=lam)


@pytest.mark.parametrize("mode", MODES)
def test_sweep_config_hist_line_reads_each_mode(tmp_path, mode):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"algorithms = fs\nkind = bitflip\nt_grid = 0.1\nreps = 1\nseed = 1\ncorpus = a.pgm\n"
                   f"hist = {mode_token(mode, mode_values(mode))}\n")
    histogram = HistogramSpec(mode, **mode_values(mode), smoothing=DEFAULT_SWEEP_SMOOTHING)
    assert parse_sweep_config(cfg).histogram == histogram


UNKNOWN_HIST = "--hist: unknown mode {!r} (want 'binary' or 'block:<size>x<bins>')"
BAD_BLOCK_HIST = "--hist: bad block spec {!r} (want block:<size>x<bins>)"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: HistogramSpec("binary", block=8), "binary mode does not take block (only block mode does)",
                 id="binary-block"),
    pytest.param(lambda: HistogramSpec("binary", bins=16), "binary mode does not take bins (only block mode does)",
                 id="binary-bins"),
    pytest.param(lambda: HistogramSpec("binary", block=-3, bins=0),
                 "binary mode does not take block (only block mode does)", id="binary-bad-block-and-bins"),
    *(pytest.param(lambda kw=kw: HistogramSpec("block", **kw), "block mode requires block size and bin count",
                   id=f"block-{'-'.join(kw) or 'bare'}") for kw in ({}, {"block": 8}, {"bins": 16})),
    pytest.param(lambda: HistogramSpec("lab"), "unknown histogram mode 'lab' (expected one of ('binary', 'block'))",
                 id="unknown-mode"),
    *(pytest.param(lambda token=token: _parse_hist(token, None), UNKNOWN_HIST.format(token), id=f"token-{token!r}")
      for token in ("binary:", "block", "lab", "")),
    *(pytest.param(lambda token=token: _parse_hist(token, None), BAD_BLOCK_HIST.format(token), id=f"token-{token!r}")
      for token in ("block:", "block:8", "block:8x16x1", "block:8xa")),
    pytest.param(lambda: _parse_hist("block:0x16", None), "--hist: block size must be >= 1, got 0", id="token-block-0"),
    pytest.param(lambda: _parse_hist("block:8x1", None), "--hist: bin count must be >= 2, got 1", id="token-bins-1"),
])
def test_histogram_messages_keep_their_text(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_hist_help_lists_every_mode_token():
    metric = build_parser(("metric",))._subparsers._group_actions[0].choices["metric"]
    (hist,) = [action for action in metric._actions if action.dest == "hist"]
    assert hist.help == "kl only: binary (default) | block:<size>x<bins>"
