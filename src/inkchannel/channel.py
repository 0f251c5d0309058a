"""The binary printing channel.

A binary noise field is produced by thresholding an 8-bit uniform random
matrix, then applied to the halftone through a controlled gate: where the
control bit is 1 the gate operation hits the target bit, elsewhere the target
passes through.  Three channel kinds are provided: bit-flip, erase, and
block erase (erase gated on the tile's center pixel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imagery import BinaryImage, _check_int, _check_seed

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

_GATES = {"not": np.bitwise_xor, "set1": np.bitwise_or}  # gate op -> its ufunc on (target, control)
GATE_OPS = tuple(_GATES)
_KIND_GATES = {"bitflip": "not", "erase": "set1", "block-erase": "set1"}  # channel kind -> its gate op
CHANNEL_KINDS = tuple(_KIND_GATES)

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


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
        object.__setattr__(self, "t", float(self.t) + 0.0)  # a float, with 0 and -0.0 read as 0.0


@dataclass(frozen=True)
class BlockSpec:
    """Odd-sized square block for block erase; odd so a center pixel exists."""

    size: int

    def __post_init__(self):
        if _check_int(self.size, "block size") < 3 or self.size % 2 == 0:
            raise ValueError(f"block size must be odd and >= 3, got {self.size}")


def _known_kind(kind: str) -> str:
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r} (expected one of {CHANNEL_KINDS})")
    return kind


def _check_kind(kind: str, block: BlockSpec | None) -> None:
    """The channel-kind rule: a known kind, with a block exactly for block erase."""
    if (block is not None) != (_known_kind(kind) == "block-erase"):
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


def _noise_bits(shape: tuple[int, int], t: float, seed: int) -> np.ndarray:
    """The noise field as a uint8 array: 1 where byte r of PCG64(seed)'s raw words, little-endian
    and row-major, is below ceil(t*256); for an integer r that is r < t*256, and t = 1 inks all."""
    c = math.ceil(t * 256)
    if c in (0, 256):  # no byte is below 0 and every byte is below 256: the field needs no draw
        return np.full(shape, c >> 8, np.uint8)
    n = shape[0] * shape[1]
    r = np.random.PCG64(seed).random_raw(-(-n // 8)).astype("<u8", copy=False).view(np.uint8)[:n]
    return (r.reshape(shape) < c).view(np.uint8)


def gen_noise(width: int, height: int, power: NoisePower, seed: int) -> BinaryImage:
    """Threshold an 8-bit uniform random matrix: v = 1 where r < t*256.

    r is ``Generator(PCG64(seed)).integers(0, 256, (height, width), dtype=uint8)``, whose bytes are
    the little-endian bytes of the raw words; (width, height, power, seed) fix the field.
    """
    if _check_int(width, "width") < 1 or _check_int(height, "height") < 1:
        raise ValueError(f"noise field dimensions must be >= 1, got {width}x{height}")
    return BinaryImage(_noise_bits((height, width), power.t, _check_seed(seed)))


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


def _block_mask(g: np.ndarray, block: int) -> np.ndarray:
    """Block erase's gate mask: each tile's center bit of ``g`` over its tile, 0 where no center fits."""
    c = (block - 1) // 2
    centres = g[c::block, c::block]  # only the tiles that contain their center
    padded = np.zeros((-(-g.shape[0] // block), -(-g.shape[1] // block)), dtype=np.uint8)
    padded[: centres.shape[0], : centres.shape[1]] = centres
    return padded.repeat(block, axis=0).repeat(block, axis=1)[: g.shape[0], : g.shape[1]]


def _channel_bits(g: np.ndarray, v: np.ndarray, kind: str, mask: np.ndarray | None = None) -> np.ndarray:
    """Bits ``g`` after channel ``kind`` with noise field ``v``, block erase's under ``mask``; transmit's core."""
    return _GATES[_KIND_GATES[kind]](g, v if mask is None else v & mask)


def transmit_bitflip(g: BinaryImage, power: NoisePower, seed: int) -> BinaryImage:
    """Flip each bit where the noise field is 1 (0->1, 1->0)."""
    return BinaryImage(_channel_bits(g.bits, gen_noise(g.width, g.height, power, seed).bits, "bitflip"))


def transmit_erase(g: BinaryImage, power: NoisePower, seed: int) -> BinaryImage:
    """Erase toward ink: g' = v OR g; existing dots are always preserved."""
    return BinaryImage(_channel_bits(g.bits, gen_noise(g.width, g.height, power, seed).bits, "erase"))


def transmit_block_erase(g: BinaryImage, power: NoisePower, block: BlockSpec, seed: int) -> BinaryImage:
    """Erase within blocks whose center pixel carries ink.

    The image is tiled into non-overlapping size x size blocks with the center
    at offset ((size-1)/2, (size-1)/2).  A tile whose center bit is 1 becomes
    v OR g; tiles with center 0, and edge tiles too small to contain a center,
    pass through unchanged.
    """
    v = gen_noise(g.width, g.height, power, seed).bits
    return BinaryImage(_channel_bits(g.bits, v, "block-erase", _block_mask(g.bits, block.size)))


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
