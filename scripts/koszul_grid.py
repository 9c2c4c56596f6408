"""Check the full QQ K_{p,q} grid (p = 0..d, q = 0..2) of the degree-d
rational normal curve against Eagon-Northcott and time it.

    python scripts/koszul_grid.py 7 8

Prints one line per degree with the seconds taken and the mismatches,
and exits 1 if any dimension differs from the oracle.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))

from oracles import eagon_northcott_dim  # noqa: E402
from steinertorelli.exactfield import QQ  # noqa: E402
from steinertorelli.koszul import koszul_dim, scene_window  # noqa: E402
from steinertorelli.scenes import P1Series  # noqa: E402


def grid_mismatches(d):
    # one scene per degree, so the three windows share its action tables
    scene = P1Series(d)
    wrong = []
    for q in range(3):
        window = scene_window(scene, 0, q - 1, q + 1, QQ)
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
