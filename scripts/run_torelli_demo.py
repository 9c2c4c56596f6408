"""Run the headline checks on the shipped catalogue and print a verdict
table: recovery instances, the hypersurface counterexample, the scroll
exception, and the point-set detector side by side.
"""

import argparse
import sys
import time
from pathlib import Path

from steinertorelli.scenes import load_scene
from steinertorelli.torelli import (dk_check, random_point_set,
                                    scroll_invariance, torelli_check,
                                    vanishing_check)

SCENEDIR = Path(__file__).resolve().parent.parent / "scenefiles"


def scene(stem):
    return load_scene(str(SCENEDIR / f"{stem}.json"))


def show(name, report, note=""):
    per_prime = "  ".join(
        f"p={r.prime}:{r.verdict}({r.unstable_count}/{r.scanned})"
        for r in report.results)
    print(f"{name:34} {report.consensus:12} {per_prime}")
    if note:
        print(f"{'':34} {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", default="5,7,11")
    args = ap.parse_args(argv)
    primes = tuple(int(tok) for tok in args.primes.split(","))
    start = time.perf_counter()

    tc = scene("twisted_cubic")
    rep = torelli_check(tc, 5, primes=primes)
    ok = all(r.recovery_ok for r in rep.results)
    show("twisted cubic, B=O(5)", rep,
         f"vanishing={vanishing_check(tc, 5)}  recovery_all_match={ok}")

    rep = torelli_check(tc, 4, primes=primes)
    ok = all(r.recovery_ok for r in rep.results)
    show("twisted cubic, B=K+2A", rep,
         f"vanishing={vanishing_check(tc, 4)}  recovery_all_match={ok}")

    quartic = scene("fermat_quartic")
    rep = torelli_check(quartic, 3, primes=primes)
    show("plane quartic, B=O_X(3)", rep,
         "every hyperplane is unstable: mu forgets the quartic")

    ci = scene("diagonal_ci")
    rep = torelli_check(ci, 2, primes=(5,))
    show("quadric intersection, B=K+A", rep,
         f"recovery_all_match={rep.results[0].recovery_ok}")

    sa, sb = scene("scroll_member_a"), scene("scroll_member_b")
    rep = torelli_check(sa, (1, 1), primes=(5,))
    show("scroll member, B=K+A", rep,
         f"presentation_shared_with_other_member="
         f"{scroll_invariance(sa, sb, n=1)}")

    free, used = random_point_set(7, 11, seed=0)
    rep = dk_check(free, primes=(11,))
    show(f"7 random points (seed {used})", rep,
         f"rnc_flag={rep.results[0].rnc_flag}")

    rep = dk_check(scene("seven_on_twisted_cubic"), primes=(7, 11))
    show("7 points on the cubic", rep,
         f"rnc_flag={rep.results[0].rnc_flag}  "
         f"extra={len(rep.results[0].extra)} unstable planes beyond X")

    print(f"\ntotal {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
