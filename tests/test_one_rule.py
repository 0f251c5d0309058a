"""Each parameter rule has one home: the spec that owns it.

A function that takes the parameter raw must reject a bad value with the
very message its spec gives, because it checks by building that spec; an
algorithm token gives that message named by the token, as the CLI and the
sweep config report it.  A parameter that its kind does not take is a bad
value too, whatever the value.
"""

import math

import numpy as np
import pytest

from inkchannel import BinaryImage, HalftoneSpec, Histogram, HistogramSpec, block_lightness_histogram
from inkchannel.cli import _parse_algorithm_token, _parse_smoothing
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
