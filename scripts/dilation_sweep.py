#!/usr/bin/env python3
"""Order-16 square whose base has no transversal but which is fully covered.

The base square has no diagonal reaching the transversal deviation sum, yet
its 2-dilation has a transversal through every one of its 256 cells.  The
sweep finds one through each cell (or a seeded sample with --sample)."""

import argparse
import random
import time

from transversal_lab.constructions import l8_square
from transversal_lab.dilation import dilate
from transversal_lab.search import DEFAULT_SEED, count_diagonals, transversal_through


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sample", type=int, default=0, help="check only this many cells")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    base = l8_square()
    bare = count_diagonals(base, base.group, (4,))
    assert bare.exact
    print(f"base square: {bare.count} diagonals reach the transversal deviation sum")

    big = dilate(base, 2)
    cells = sorted(big.cells())
    if args.sample:
        cells = sorted(random.Random(args.seed).sample(cells, args.sample))
    t0 = time.perf_counter()
    for cell in cells:
        if transversal_through(big, cell) is None:
            print(f"NO transversal through {cell}")
            return
    print(
        f"2-dilation: transversal found through each of {len(cells)} cells "
        f"({time.perf_counter() - t0:.1f}s)"
    )


if __name__ == "__main__":
    main()
