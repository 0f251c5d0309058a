"""The binary printing channel.

A binary noise field is produced by thresholding an 8-bit uniform random
matrix, then applied to the halftone through a controlled gate: where the
control bit is 1 the gate operation hits the target bit, elsewhere the target
passes through.  Three channel kinds are provided: bit-flip, erase, and
block erase (erase gated on the tile's center pixel).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .imagery import BinaryImage

__all__ = [
    "NoisePower",
    "BlockSpec",
    "ChannelConfig",
    "CHANNEL_KINDS",
    "GATE_OPS",
    "gen_noise",
    "noise_density",
    "apply_gate",
    "transmit_bitflip",
    "transmit_erase",
    "transmit_block_erase",
    "transmit",
    "bsc_capacity",
    "derive_seed",
]

CHANNEL_KINDS = ("bitflip", "erase", "block-erase")
_GATES = {"not": np.bitwise_xor, "set1": np.bitwise_or}  # gate op -> its ufunc on (target, control)
GATE_OPS = tuple(_GATES)

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _check_int(value, what: str) -> int:
    """Return ``value`` as an int; floats, even 7.0, are rejected."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _check_seed(seed: int) -> int:
    """Return ``seed`` as an int in 0 .. 2**64 - 1."""
    seed = _check_int(seed, "seed")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def derive_seed(master_seed: int, index: int) -> int:
    """Mix a master seed with a task index into an independent 64-bit seed.

    splitmix64 finalizer over master_seed advanced index+1 steps; one call per
    sweep cell keeps parallel workers off each other's random streams.
    """
    x = (_check_seed(master_seed) + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class NoisePower:
    """Threshold of the binary-noise generator; the expected ones-density."""

    t: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"noise power must lie in [0, 1], got {self.t}")


@dataclass(frozen=True)
class BlockSpec:
    """Odd-sized square block for block erase; odd so a center pixel exists."""

    size: int

    def __post_init__(self):
        if _check_int(self.size, "block size") < 3 or self.size % 2 == 0:
            raise ValueError(f"block size must be odd and >= 3, got {self.size}")


def _check_kind(kind: str, block: BlockSpec | None) -> None:
    """The channel-kind rule: a known kind, with a block exactly for block erase."""
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r} (expected one of {CHANNEL_KINDS})")
    if (block is not None) != (kind == "block-erase"):
        raise ValueError("block spec must be present exactly when kind is 'block-erase'")


@dataclass(frozen=True)
class ChannelConfig:
    """One channel instance: noise kind, power, optional block, seed."""

    kind: str
    power: NoisePower
    seed: int
    block: BlockSpec | None = None

    def __post_init__(self):
        _check_kind(self.kind, self.block)
        _check_seed(self.seed)


def noise_density(power: NoisePower) -> float:
    """Achieved ones-density of the discretized generator: ceil(t*256)/256."""
    return min(1.0, math.ceil(power.t * 256) / 256.0)


def gen_noise(width: int, height: int, power: NoisePower, seed: int) -> BinaryImage:
    """Threshold an 8-bit uniform random matrix: v = 1 where r < t*256.

    Draws come from PCG64(seed) in row-major order; the field is fully
    determined by (width, height, power, seed).
    """
    if _check_int(width, "width") < 1 or _check_int(height, "height") < 1:
        raise ValueError(f"noise field dimensions must be >= 1, got {width}x{height}")
    rng = np.random.Generator(np.random.PCG64(_check_seed(seed)))
    r = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    return BinaryImage(r < power.t * 256)


def apply_gate(control: BinaryImage, target: BinaryImage, op: str) -> BinaryImage:
    """Controlled gate: where control = 1 apply ``op`` to the target bit.

    op 'not' flips the bit; op 'set1' forces it to 1 (erase).  The control
    image is never modified.
    """
    if op not in _GATES:
        raise ValueError(f"unknown gate op {op!r} (expected one of {GATE_OPS})")
    if control.bits.shape != target.bits.shape:
        raise ValueError(
            f"control {control.width}x{control.height} and target "
            f"{target.width}x{target.height} dimensions differ"
        )
    return BinaryImage(_GATES[op](target.bits, control.bits))


def transmit_bitflip(g: BinaryImage, power: NoisePower, seed: int) -> BinaryImage:
    """Flip each bit where the noise field is 1 (0->1, 1->0)."""
    v = gen_noise(g.width, g.height, power, seed)
    return apply_gate(v, g, "not")


def transmit_erase(g: BinaryImage, power: NoisePower, seed: int) -> BinaryImage:
    """Erase toward ink: g' = v OR g; existing dots are always preserved."""
    v = gen_noise(g.width, g.height, power, seed)
    return apply_gate(v, g, "set1")


def transmit_block_erase(g: BinaryImage, power: NoisePower, block: BlockSpec, seed: int) -> BinaryImage:
    """Erase within blocks whose center pixel carries ink.

    The image is tiled into non-overlapping size x size blocks with the center
    at offset ((size-1)/2, (size-1)/2).  A tile whose center bit is 1 becomes
    v OR g; tiles with center 0, and edge tiles too small to contain a center,
    pass through unchanged.  This is the erase gate with control v AND a mask
    that spreads each tile's center bit over its tile.
    """
    v = gen_noise(g.width, g.height, power, seed)
    size, c = block.size, (block.size - 1) // 2
    centres = g.bits[c::size, c::size]  # only the tiles that contain their center
    padded = np.zeros((-(-g.height // size), -(-g.width // size)), dtype=np.uint8)
    padded[: centres.shape[0], : centres.shape[1]] = centres
    mask = padded.repeat(size, axis=0).repeat(size, axis=1)[: g.height, : g.width]
    return apply_gate(BinaryImage(v.bits & mask), g, "set1")


def transmit(g: BinaryImage, cfg: ChannelConfig) -> BinaryImage:
    """Send a halftone through the configured channel."""
    if cfg.kind == "bitflip":
        return transmit_bitflip(g, cfg.power, cfg.seed)
    if cfg.kind == "erase":
        return transmit_erase(g, cfg.power, cfg.seed)
    return transmit_block_erase(g, cfg.power, cfg.block, cfg.seed)


def bsc_capacity(p: float) -> float:
    """Capacity 1 - H2(p) of the binary symmetric channel, in bits per symbol."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 1.0
    return 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)
