#!/usr/bin/env python3
"""Distance and divergence between a halftone and raw noise versus power.

For a halftone g of the input image, measures the Euclidean distance e(v, g)
and the relative entropy Q(g||v) against noise fields v over a power grid.
Q(g||v) bottoms out where the noise density matches the halftone's ink
fraction, which is a histogram coincidence rather than visual similarity;
Q(g||g') against the transmitted image (also reported) rises with power.
A bad --seed exits 2; an --image that cannot be read as a PGM exits 3.
"""

import argparse
import sys

from inkchannel import (
    HalftoneSpec,
    HistogramSpec,
    NoisePower,
    apply_gate,
    derive_seed,
    euclidean_distance,
    gen_noise,
    halftone,
    image_relative_entropy,
    read_gray,
)
from inkchannel.cli import run_command


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--image", required=True, help="grayscale PGM input")
    parser.add_argument("--steps", type=positive_int, default=19, help="grid points over (0, 1)")
    parser.add_argument("--reps", type=positive_int, default=16)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", default="noise_distance.csv")
    return run_command(write_noise_distance, parser.parse_args())


def write_noise_distance(args):
    g = halftone(read_gray(args.image), HalftoneSpec("fs"))
    spec = HistogramSpec(smoothing=1e-9)
    rows = []  # every row is computed before --out is opened, so a bad --seed leaves no file behind
    for k in range(1, args.steps + 1):
        t = k / (args.steps + 1)
        power = NoisePower(t)
        e = q_v = q_g = 0.0
        for rep in range(args.reps):
            seed = derive_seed(args.seed, k * args.reps + rep)
            v = gen_noise(g.width, g.height, power, seed)
            gp = apply_gate(v, g, "not")  # the bit-flip channel on the field v
            e += euclidean_distance(v, g)
            q_v += image_relative_entropy(g, v, spec)
            q_g += image_relative_entropy(g, gp, spec)
        n = args.reps
        rows.append(f"{t!r},{e / n!r},{q_v / n!r},{q_g / n!r}\n")
    with open(args.out, "w") as fh:
        fh.write("t,e_dist,q_noise,q_transmitted\n" + "".join(rows))
    print(f"halftone ink fraction f1 = {g.ink_fraction():.4f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
