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
    "transmit_block_erase",
    "transmit",
    "bsc_capacity",
    "derive_seed",
]

_GATES = {"not": np.bitwise_xor, "set1": np.bitwise_or}  # gate op -> its ufunc on (target, control)
GATE_OPS = tuple(_GATES)
# channel kind -> (its gate op, whether each block's centre bit gates the field)
_KINDS = {"bitflip": ("not", False), "erase": ("set1", False), "block-erase": ("set1", True)}
CHANNEL_KINDS = tuple(_KINDS)

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
    """The channel-kind rule: a known kind, with a block exactly for the kind whose block centres gate."""
    if (block is not None) != _KINDS[_known_kind(kind)][1]:
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
    return math.ceil(power.t * 256) / 256


_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_consts(start: int, mult: int, hashes: int) -> np.ndarray:
    """A hash constant's start and its value after each of ``hashes`` hashes, as a uint32 column."""
    consts = [start]
    for _ in range(hashes):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)[:, np.newaxis]


# numpy's SeedSequence (numpy/random/bit_generator.pyx): the pool's hash constants, for 4 hashes that fill it
# and 3 hashes of each of the 4 words as it mixes into the others, then the output's, for 8 hashes
_POOL_CONSTS, _OUT_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 4 + 4 * 3), _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_OTHERS = [[d for d in range(4) if d != src] for src in range(4)]  # the words each source word mixes into
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one row per hash: xor with the hash constant, multiply by the constant after
    it (each hash advances the constant), xor in the high half.  ``consts`` holds one more row than the
    hashes."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _SHIFT)


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """The (state, inc) that ``PCG64(seed)`` starts from, for each of a run of 64-bit seeds at once.

    ``PCG64(seed)`` seeds through ``SeedSequence(seed)``.  It hashes the seed's 32-bit words, low first,
    into a pool of 4 words; a seed below 2**32 has one word, and the pool pads with hashes of 0, so every
    seed reads as [low, high, 0, 0].  Each source word in turn then mixes a hash of itself into the other
    three, and ``generate_state(4, uint64)`` hashes the pool out twice into eight 32-bit words, which pair
    up, low first, into four 64-bit words.  Every seed takes the same run of hash constants, so each step
    is one uint32 array operation over all the seeds, wrapping as the C code does.  PCG64 then takes words
    0-1 (high first) as its initial state s and words 2-3 as its stream i: inc = 2i + 1 and
    state = (inc + s) * M + inc, mod 2**128.  Setting a PCG64's ``.state`` to one costs about 2 us, against
    about 10 us for ``PCG64(seed)``.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    words = np.zeros((4, seeds.size), np.uint32)
    words[0], words[1] = seeds & np.uint64(_MASK32), seeds >> np.uint64(32)
    pool = _hashmix(words, _POOL_CONSTS[:5])
    for src, others in enumerate(_OTHERS):
        k = 4 + 3 * src  # the source's 3 hashes, one per other word in turn
        mixed = _MIX_L * pool[others] - _MIX_R * _hashmix(pool[src], _POOL_CONSTS[k:k + 4])
        pool[others] = mixed ^ (mixed >> _SHIFT)
    out = _hashmix(np.concatenate((pool, pool)), _OUT_CONSTS).astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    states = []
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        s, inc = a << 64 | b, ((c << 64 | d) << 1 | 1) & _MASK128
        states.append((((inc + s) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _noise_bits(shape: tuple[int, int], t: float, states, out: np.ndarray | None = None, bitgen=None):
    """Yield the noise field of each PCG64 (state, inc) in ``states`` (``_pcg64_states``'s), each written into
    ``out``, a uint8 array of ``shape`` (a new one when None) that every yield reuses.

    A field is 1 where byte r of the generator's raw words is below ceil(t*256): the words of
    ``random_raw(ceil(n / 8))``, their bytes little-endian and laid out row-major.  These are the bytes
    ``Generator(PCG64(seed)).integers(0, 256, dtype=uint8)`` gives, since numpy fills uint8 draws from
    buffered 32-bit draws, low byte first, the low half of each 64-bit word first; for an integer r,
    r < ceil(t*256) is r < t*256, and t = 1 inks every pixel.  One PCG64, ``bitgen`` (a new one when None),
    is set to each state in turn.  Where ceil(t*256) is 0 or 256 the field is all 0 or all 1 whatever the
    seed: it takes no draw and is yielded once, for the whole run of states.
    """
    out = np.empty(shape, np.uint8) if out is None else out
    c = math.ceil(t * 256)
    if c % 256 == 0:
        out.fill(c // 256)
        yield out
        return
    n, bitgen = out.size, bitgen or np.random.PCG64(0)
    for state, inc in states:
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        r = bitgen.random_raw(-(-n // 8)).astype("<u8", copy=False).view(np.uint8)[:n]
        np.less(r.reshape(shape), c, out=out.view(bool))
        yield out


def gen_noise(width: int, height: int, power: NoisePower, seed: int) -> BinaryImage:
    """Threshold an 8-bit uniform random matrix: v = 1 where r < t*256.

    r is ``Generator(PCG64(seed)).integers(0, 256, (height, width), dtype=uint8)``, whose bytes are
    the little-endian bytes of the raw words; (width, height, power, seed) fix the field.  The sweep
    draws each cell's field through the same ``_noise_bits``.  One field starts from ``PCG64(seed)``'s
    own state (about 10 us); ``_pcg64_states`` pays only for a run of seeds (about 55 us for one).
    """
    if _check_int(width, "width") < 1 or _check_int(height, "height") < 1:
        raise ValueError(f"noise field dimensions must be >= 1, got {width}x{height}")
    bitgen = np.random.PCG64(_check_seed(seed))
    start = bitgen.state["state"]
    return BinaryImage(next(_noise_bits((height, width), power.t, [(start["state"], start["inc"])], bitgen=bitgen)))


def apply_gate(control: BinaryImage, target: BinaryImage, op: str) -> BinaryImage:
    """Controlled gate: where control = 1 apply ``op`` to the target bit.

    op 'not' flips the bit; op 'set1' forces it to 1 (erase).  The control
    image is never modified.
    """
    if op not in _GATES:
        raise ValueError(f"unknown gate op {op!r} (expected one of {GATE_OPS})")
    if control.bits.shape != target.bits.shape:
        raise ValueError(f"control {control.width}x{control.height} and target "
                         f"{target.width}x{target.height} dimensions differ")
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
    return _GATES[_KINDS[kind][0]](g, v if mask is None else v & mask)


def transmit(g: BinaryImage, cfg: ChannelConfig) -> BinaryImage:
    """Send a halftone through channel ``cfg``: ``gen_noise``'s field v for g's size drives the kind's gate.

    bitflip flips each bit where the field is 1 (0->1, 1->0).  erase erases toward ink, g' = v OR g, so
    existing dots are always preserved.  block-erase erases within blocks whose center pixel carries ink:
    the image is tiled into non-overlapping size x size blocks with the center at offset ((size-1)/2,
    (size-1)/2); a tile whose center bit is 1 becomes v OR g, and tiles with center 0, and edge tiles too
    small to contain a center, pass through unchanged."""
    v = gen_noise(g.width, g.height, cfg.power, cfg.seed).bits
    return BinaryImage(_channel_bits(g.bits, v, cfg.kind, cfg.block and _block_mask(g.bits, cfg.block.size)))


# perfbench traces these two names; they go once its spans are retargeted (ROADMAP item 1)
def transmit_bitflip(g: BinaryImage, power: NoisePower, seed: int) -> BinaryImage:
    """``transmit`` with kind bitflip."""
    return transmit(g, ChannelConfig("bitflip", power, seed))


def transmit_block_erase(g: BinaryImage, power: NoisePower, block: BlockSpec, seed: int) -> BinaryImage:
    """``transmit`` with kind block-erase."""
    return transmit(g, ChannelConfig("block-erase", power, seed, block))


def bsc_capacity(p: float) -> float:
    """Capacity 1 - H2(p) of the binary symmetric channel, in bits per symbol."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 1.0
    return 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)
