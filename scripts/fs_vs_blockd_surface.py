#!/usr/bin/env python3
"""Robustness difference surface: error diffusion versus block halftoning.

Reads the records CSV that `inkchannel sweep` writes for a config whose algorithms are one
non-blockd family (such as fs) and blockd over a grid of h, and writes the mean-q difference
surface over (t, h): that family's mean q minus blockd's, the diff `inkchannel compare` gives at
each h, so inf against inf is 0.0.  Positive entries mark where the block algorithm is more robust; the
count it prints is of compare's verdicts, so a difference within its tie tolerance is no such cell.
The sweep config sets the corpus, noise kind, t grid, reps, seed, histogram and smoothing.  A file
that is not such a records CSV, or whose blockd rows at some h do not cover the family's (image, t)
grid, exits 2; an I/O error exits 3.
"""

import argparse
import sys

from inkchannel.cli import run_command
from inkchannel.robustness import DEFAULT_TIE_TOLERANCE, difference_surface, read_records_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", required=True, help="records CSV written by inkchannel sweep")
    parser.add_argument("--out", default="surface.csv")
    return run_command(write_surface, parser.parse_args())


def write_surface(args):
    records = read_records_csv(args.records)
    blockd = [r for r in records if r.algo == "blockd"]
    t_vals, h_vals, surface = difference_surface([r for r in records if r.algo != "blockd"], blockd)
    with open(args.out, "w") as fh:
        fh.write("t," + ",".join(f"h{h}" for h in h_vals) + "\n")
        for t, row in zip(t_vals, surface):
            fh.write(f"{t!r}," + ",".join(repr(float(v)) for v in row) + "\n")
    n_images = len({r.image for r in records})
    print(f"wrote {args.out} ({len(t_vals)}x{len(h_vals)} surface over {n_images} images)")
    print(f"blockd more robust in {int((surface > DEFAULT_TIE_TOLERANCE).sum())}/{surface.size} cells")  # compare's verdicts
    return 0


if __name__ == "__main__":
    sys.exit(main())
