#!/usr/bin/env python3
"""Record the sig-random golden values for the default seed.

    python3 bench/make_golden.py

Writes golden/sig-random-<seed>.json: for every (ambient rank, generator
count) cell, the generated presentations with their check_normal verdict
(bound 6) and, for normal ones, the exact F-signature.  Each value is also
recomputed on the coordinate-permuted, generator-reversed twin and must
agree.  Recorded once, from the seed commit; rerun only when the generator
in workloads.py changes, and never to make a failing run pass.
"""

import json
import sys

import workloads
from run import SRC, import_fsig


def main() -> int:
    sys.path.insert(0, str(SRC))
    fs = import_fsig()
    per_cell = workloads.RANDOM_PER_CELL["full"]
    cells = {}
    for cell, _, gens, perm in workloads.random_presentation_specs(workloads.DEFAULT_SEED, per_cell):
        rank = len(gens[0])
        p = fs.semigroup.SemigroupPresentation(rank, gens)
        twin = fs.semigroup.SemigroupPresentation(
            rank, tuple(tuple(g[j] for j in perm) for g in reversed(gens))
        )
        normal, value = workloads.normal_then_signature(fs, p)
        if workloads.normal_then_signature(fs, twin) != (normal, value):
            print(f"error: {gens} is not invariant under its twin", file=sys.stderr)
            return 1
        sig = None if value is None else f"{value.numerator}/{value.denominator}"
        cells.setdefault(cell, []).append([list(map(list, gens)), normal, sig])
    doc = {"seed": workloads.DEFAULT_SEED, "normal_bound": workloads.NORMAL_BOUND, "cells": cells}
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {sum(map(len, cells.values()))} cases to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
