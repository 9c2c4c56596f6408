"""Check the full K_{p,q} grid (p = 0..d, q = 0..2) of the degree-d
rational normal curve against Eagon-Northcott and time it.

    python scripts/koszul_grid.py 7 8

Prints one line per degree with the seconds taken and the mismatches,
and exits 1 if any dimension differs from the oracle.  The command line
runs the monomial basis over QQ; `grid_mismatches` also takes a scene,
such as `seeded_series(d, seed)`, and a field.
"""

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))

from oracles import eagon_northcott_dim, unimodular  # noqa: E402
from steinertorelli.exactfield import QQ  # noqa: E402
from steinertorelli.koszul import koszul_dim, scene_window  # noqa: E402
from steinertorelli.scenes import P1Series  # noqa: E402


def seeded_series(d, seed):
    """P1Series(d) on a seeded unimodular basis with its rows divided by
    1, 5 or 7: over QQ its action tables have denominators, so the signed
    pairs the ranks read are the tables times a constant other than 1."""
    rng = random.Random(seed)
    return P1Series(d, basis=[
        tuple(Fraction(x, den) for x in row)
        for row, den in zip(unimodular(rng, d + 1),
                            rng.choices((1, 5, 7), k=d + 1))])


def grid_mismatches(d, scene=None, field=QQ):
    # one scene per degree, so the three windows share its action tables
    # and the signed pairs kept with them
    scene = scene or P1Series(d)
    wrong = []
    for q in range(3):
        window = scene_window(scene, 0, q - 1, q + 1, field)
        for p in range(d + 1):
            got = koszul_dim(window, p, q).dim
            if got != eagon_northcott_dim(d, p, q):
                wrong.append((p, q, got))
    return wrong


def main(degrees):
    failed = False
    for d in degrees:
        start = time.perf_counter()
        wrong = grid_mismatches(d)
        seconds = time.perf_counter() - start
        print(f"d={d}: {seconds:.3f} s, K_{{p,q}} mismatches: {wrong}")
        failed |= bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main([int(arg) for arg in sys.argv[1:]] or [7]))
