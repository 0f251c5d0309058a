#!/usr/bin/env python3
"""Synthesize a deterministic grayscale PGM corpus for sweep experiments.

Each image is a band-limited random field (a sum of cosine waves) with its
own derived seed, so the corpus is reproducible from (--seed, --count).
A bad --seed exits 2; an --out that cannot be made a directory exits 3.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from inkchannel import GrayImage, derive_seed, write_gray
from inkchannel.cli import run_command


def synth_scene(width, height, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    y, x = np.mgrid[0:height, 0:width]
    img = np.full((height, width), rng.uniform(110.0, 170.0))
    for _ in range(6):
        fx, fy = rng.uniform(0.3, 3.0, size=2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
        amp = rng.uniform(15.0, 55.0)
        img = img + amp * np.cos(2 * np.pi * fx * x / width + px) * np.cos(2 * np.pi * fy * y / height + py)
    return GrayImage(np.clip(np.rint(img), 0, 255).astype(np.uint8))


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="corpus", help="output directory (default: corpus)")
    parser.add_argument("--count", type=positive_int, default=8)
    parser.add_argument("--size", type=positive_int, default=256, help="image side length")
    parser.add_argument("--seed", type=int, default=1)
    return run_command(write_corpus, parser.parse_args())


def write_corpus(args):
    seeds = [derive_seed(args.seed, i) for i in range(args.count)]  # a bad seed fails before --out is made
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, seed in enumerate(seeds):
        img = synth_scene(args.size, args.size, seed)
        path = out / f"scene{i:02d}.pgm"
        write_gray(img, path)
        print(f"{path}  mean lightness {img.pixels.mean():.1f}")
    return 0


if __name__ == "__main__":
    if code := main():  # success falls off the end, so runpy callers need not catch SystemExit
        sys.exit(code)
