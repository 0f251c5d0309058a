"""Each parameter rule has one home: the spec that owns it.

A kernel or function that takes the parameter raw must reject a bad value
with the very message its spec gives, because it checks by building that
spec.
"""

import math

import numpy as np
import pytest

from inkchannel import GrayImage, HalftoneSpec, Histogram, HistogramSpec
from inkchannel.cli import _parse_smoothing
from inkchannel.halftone import (
    bayer_matrix,
    clustered_dot_matrix,
    halftone_bayer,
    halftone_block_d,
    halftone_clustered_dot,
    halftone_threshold,
)
from inkchannel.metrics import relative_entropy

GRAY = GrayImage(np.full((4, 4), 128, dtype=np.uint8))
HALF = Histogram(np.array([0.5, 0.5]))


@pytest.mark.parametrize(
    "spec, raws",
    [
        pytest.param(
            lambda: HalftoneSpec("threshold", level=1.5), (lambda: halftone_threshold(GRAY, 1.5),), id="level-1.5"
        ),
        pytest.param(lambda: HalftoneSpec("blockd", h=0), (lambda: halftone_block_d(GRAY, 0),), id="h-0"),
        pytest.param(lambda: HalftoneSpec("blockd", h=2.5), (lambda: halftone_block_d(GRAY, 2.5),), id="h-2.5"),
        pytest.param(
            lambda: HalftoneSpec("bayer", matrix_order=3),
            (lambda: bayer_matrix(3), lambda: halftone_bayer(GRAY, 3)),
            id="order-3",
        ),
        pytest.param(
            lambda: HalftoneSpec("bayer", matrix_order=4.0),
            (lambda: bayer_matrix(4.0), lambda: halftone_bayer(GRAY, 4.0)),
            id="order-4.0",
        ),
        pytest.param(
            lambda: HalftoneSpec("cdot", matrix_order=2),
            (lambda: clustered_dot_matrix(2), lambda: halftone_clustered_dot(GRAY, 2)),
            id="cdot-order-2",
        ),
        pytest.param(
            lambda: HistogramSpec(smoothing=math.inf),
            (lambda: relative_entropy(HALF, HALF, smoothing=math.inf),),
            id="smoothing-inf",
        ),
    ],
)
def test_bad_value_gives_the_spec_message_everywhere(spec, raws):
    with pytest.raises(ValueError) as from_spec:
        spec()
    for raw in raws:
        with pytest.raises(ValueError) as from_raw:
            raw()
        assert str(from_raw.value) == str(from_spec.value)


def test_cli_smoothing_names_its_flag_before_the_spec_message():
    with pytest.raises(ValueError) as from_spec:
        HistogramSpec(smoothing=math.inf)
    with pytest.raises(ValueError) as from_cli:
        _parse_smoothing("additive:inf")
    assert str(from_cli.value) == f"--smoothing: {from_spec.value}"
