#!/usr/bin/env python3
"""Census of order-4 dimension-4 cubes with cells that no transversal hits.

Scans the three known cubes of this kind: the cyclic cube (no transversals at
all), the corner-block construction (16 untouchable cells) and the symbol-swap
species (32 untouchable cells)."""

import time

from transversal_lab.constructions import confirmed_bachelor, third_species_44
from transversal_lab.groups import cyclic_group
from transversal_lab.hypercube import cyclic
from transversal_lab.search import bachelor_cells, count_transversals


def main() -> None:
    cases = [
        ("cyclic Z4^4", cyclic(cyclic_group(4), 4)),
        ("corner-block (4,4)", confirmed_bachelor(4, 4)),
        ("symbol-swap species (4,4)", third_species_44()),
    ]
    print(f"{'cube':<28} {'transversals':>12} {'blocked cells':>14} {'time':>8}")
    for name, H in cases:
        t0 = time.perf_counter()
        census = count_transversals(H)
        scan = bachelor_cells(H)
        assert census.exact and scan.exhaustive
        dt = time.perf_counter() - t0
        print(f"{name:<28} {census.count:>12} {len(scan.bachelor_cells):>14} {dt:>7.2f}s")


if __name__ == "__main__":
    main()
