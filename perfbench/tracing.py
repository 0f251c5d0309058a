"""Span tracing of inkchannel's public functions, installed from outside.

A ``Tracer`` wraps each function in ``TARGETS`` on its defining module and
on every other ``inkchannel`` module that imported it by name (for example
``robustness.transmit`` or ``cli.halftone``), records one span per call and
restores the original functions on exit.  Nothing under ``src/`` changes, and
iterations run outside a ``with Tracer()`` block execute the unmodified code.

Spans are ``[name, start_ns, end_ns, parent]`` with ``parent`` the index of
the enclosing span (-1 for none).  A span's self time is its duration minus
the durations of its direct children; the program is single-threaded inside
a traced iteration, so children never overlap.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

HALFTONE_ALGORITHMS = ("threshold", "random", "fs", "bayer", "cdot", "dotdif", "blockd")
CLI_VERBS = ("halftone", "transmit", "metric")


def _read_bytes(counts, args, kwargs):
    counts["imagery.read.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _halftone_pixels(counts, args, kwargs):
    counts["halftone.pixels"] += (args[0] if args else kwargs["img"]).pixels.size


def _noise_pixels(counts, args, kwargs):
    width = args[0] if args else kwargs["width"]
    height = args[1] if len(args) > 1 else kwargs["height"]
    counts["channel.noise.pixels"] += width * height


def _by_algorithm(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return "halftone." + spec.algorithm


def _by_verb(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli.main." + (argv[0] if argv else "?")


# (module, attribute, span names, namer or None, count hook or None).
# A namer splits one function's calls into several span names; the names
# listed are the ones reported as per-layer metrics.
TARGETS = (
    ("imagery", "BinaryImage.__post_init__", ("imagery.BinaryImage.new",), None, None),
    ("imagery", "read_gray", ("imagery.read_gray",), None, _read_bytes),
    ("imagery", "read_binary", ("imagery.read_binary",), None, _read_bytes),
    ("imagery", "write_binary", ("imagery.write_binary",), None, None),
    ("imagery", "binary_histogram", ("imagery.binary_histogram",), None, None),
    ("imagery", "block_lightness_histogram", ("imagery.block_lightness_histogram",), None, None),
    ("halftone", "halftone", tuple("halftone." + a for a in HALFTONE_ALGORITHMS), _by_algorithm, _halftone_pixels),
    ("channel", "gen_noise", ("channel.gen_noise",), None, _noise_pixels),
    ("channel", "apply_gate", ("channel.apply_gate",), None, None),
    ("channel", "transmit_bitflip", ("channel.transmit_bitflip",), None, None),
    ("channel", "transmit_block_erase", ("channel.transmit_block_erase",), None, None),
    ("metrics", "euclidean_distance", ("metrics.euclidean_distance",), None, None),
    ("metrics", "relative_entropy", ("metrics.relative_entropy",), None, None),
    ("metrics", "image_relative_entropy", ("metrics.image_relative_entropy",), None, None),
    ("metrics", "build_histogram", ("metrics.build_histogram",), None, None),
    ("robustness", "run_sweep", ("robustness.run_sweep",), None, None),
    ("robustness", "write_records_csv", ("robustness.write_records_csv",), None, None),
    ("robustness", "corpus_average", ("robustness.corpus_average",), None, None),
    ("robustness", "write_aggregates_csv", ("robustness.write_aggregates_csv",), None, None),
    ("cli", "main", tuple("cli.main." + v for v in CLI_VERBS), _by_verb, None),
    ("cli", "build_parser", ("cli.build_parser",), None, None),
    ("cli", "parse_sweep_config", ("cli.parse_sweep_config",), None, None),
)

SPAN_NAMES = tuple(name for target in TARGETS for name in target[2])
COUNT_NAMES = ("halftone.pixels", "channel.noise.pixels", "imagery.read.bytes")


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "inkchannel" or n.startswith("inkchannel."))]


def _resolve(module: str, attribute: str):
    """(owner, leaf, original) for a dotted attribute, or None if it is gone."""
    owner = sys.modules.get("inkchannel." + module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = getattr(owner, leaf, None) if owner is not None else None
    return None if original is None else (owner, leaf, original)


def absent_spans() -> list[str]:
    """Span names whose function no longer exists in the imported package."""
    return [n for module, attr, names, _, _ in TARGETS if _resolve(module, attr) is None for n in names]


class Tracer:
    """Context manager that traces every call into ``TARGETS``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name, namer, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            if count is not None:
                count(counts, args, kwargs)
            idx = len(spans)
            spans.append([namer(args, kwargs) if namer else name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def __enter__(self):
        modules = _package_modules()
        for module, attribute, names, namer, count in TARGETS:
            found = _resolve(module, attribute)
            if found is None:
                continue
            owner, leaf, original = found
            wrapper = self._wrap(original, names[0], namer, count)
            sites = [(owner, leaf)]
            if owner is sys.modules["inkchannel." + module]:
                sites += [(m, k) for m in modules if m is not owner for k, v in vars(m).items() if v is original]
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapper)
        return self

    def __exit__(self, *exc):
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()
        return False

    def summary(self) -> dict:
        """Per span name: calls, busy_s (summed duration) and self_s."""
        out: dict = {}
        for (name, start, end, _), own in zip(self.spans, self_ns(self.spans)):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += (end - start) / 1e9
            row["self_s"] += own / 1e9
        return out


def self_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
