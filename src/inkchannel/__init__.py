"""Halftoning through a binary noisy printing channel.

Grayscale images are halftoned, sent through configurable controlled-gate
noise (bit-flip, erase, block erase), and judged by entropy, Euclidean
distance, and relative entropy; the robustness harness sweeps algorithms,
images, and noise powers reproducibly.
"""

from .imagery import (
    BinaryImage,
    GrayImage,
    Histogram,
    HistogramSpec,
    NetpbmError,
    binary_histogram,
    block_lightness_histogram,
    read_binary,
    read_gray,
    read_image,
    write_binary,
    write_gray,
)
from .halftone import ALGORITHMS, HalftoneSpec, halftone, screen_catalog
from .channel import (
    BlockSpec,
    CHANNEL_KINDS,
    ChannelConfig,
    NoisePower,
    apply_gate,
    bsc_capacity,
    derive_seed,
    gen_noise,
    noise_density,
    transmit,
    transmit_bitflip,
    transmit_block_erase,
    transmit_erase,
)
from .metrics import (
    binary_entropy,
    build_histogram,
    euclidean_distance,
    image_relative_entropy,
    noise_entropy_curve,
    relative_entropy,
)
from .robustness import (
    AggregateRow,
    ComparisonVerdict,
    RobustnessRecord,
    SweepError,
    SweepSpec,
    compare,
    corpus_average,
    difference_surface,
    is_epsilon_robust,
    read_records_csv,
    run_sweep,
    write_aggregates_csv,
    write_records_csv,
)

__version__ = "0.1.0"
