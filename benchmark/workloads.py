"""The three workloads: seeded inputs, the operations of one pass, and the
check each operation's output must pass.

An operation is one call into the package.  `run` does the call and is
what gets timed; `render` turns its result into the bytes compared across
passes; `check` compares the result with the oracles and raises
CheckFailed on a wrong answer.  A result with `ok` false is a failed
operation: it is counted, and its error bytes must still repeat exactly.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable

import oracles as O

WORKLOADS = ("curve-torelli", "catalogue-cli", "koszul-syzygy")


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Result:
    ok: bool
    payload: bytes                 # what must repeat byte for byte
    value: object = None           # parsed report or returned object


@dataclass
class Op:
    name: str
    run: Callable[[], Result]
    check: Callable[[Result], None]


# ---- calling the package ----------------------------------------------------


def library_op(name, call, render, check):
    """A library call; an exception from the package is a failed op."""
    def run():
        try:
            value = call()
        except Exception as exc:        # noqa: BLE001 - reported as failed,
            # so one broken operation does not hide the others' results
            return Result(False, f"{type(exc).__name__}: {exc}".encode())
        return Result(True, render(value), value)
    return Op(name, run, check)


def report_bytes(report):
    return json.dumps(report.to_json_dict(), indent=1).encode()


def cli_op(mods, argv, check, text=False):
    """steinertorelli.cli.main(argv) in-process, stdout and stderr captured.
    A nonzero exit code is a failed op."""
    def run():
        out, err = io.BytesIO(), io.BytesIO()
        saved = sys.stdout, sys.stderr
        sys.stdout = wout = io.TextIOWrapper(out, encoding="utf-8")
        sys.stderr = werr = io.TextIOWrapper(err, encoding="utf-8")
        try:
            rc = mods.cli.main(argv)
        finally:
            wout.flush()
            werr.flush()
            sys.stdout, sys.stderr = saved
        data = out.getvalue()
        if rc != 0:
            return Result(False, b"exit %d\n" % rc + data + err.getvalue(),
                          (rc, data))
        return Result(True, data, data.decode() if text else
                      json.loads(data))
    name = " ".join(os.path.basename(a) for a in argv)
    return Op(name, run, check)


# ---- shared checks ----------------------------------------------------------


def check_curve_prime(res, p, basis_rows, b_degree):
    """One prime of a torelli report on a rational normal curve given by
    `basis_rows`: EQUAL, the full scan, and every recovered functional
    equal to the oracle's evaluation of O(b_degree)."""
    points = O.series_points(basis_rows, p)
    m = len(basis_rows)
    expect(res["verdict"] == "EQUAL", f"p={p}: verdict {res['verdict']}")
    expect(res["scanned"] == O.projective_count(p, m),
           f"p={p}: scanned {res['scanned']}")
    expect(res["unstable_count"] == res["image_count"] == len(points),
           f"p={p}: {res['unstable_count']} unstable, "
           f"{res['image_count']} image, oracle {len(points)}")
    expect(not res["extra"] and not res["missing"], f"p={p}: extra/missing")
    expect(res["recovery_ok"], f"p={p}: recovery failed")
    rows = {tuple(r["params"]): r for r in res["recovery"]}
    expect(set(rows) == set(points), f"p={p}: recovered at other points")
    for st, row in rows.items():
        want = list(O.binary_point_functional(st, b_degree, p))
        expect(row["expected"] == want and row["recovered"] == want,
               f"p={p}: functional at {st} differs from the oracle")


def check_all_hyperplanes_unstable(res, p, nvars, forms):
    """a > m: every hyperplane is unstable; the image is the oracle's
    brute-force zero locus."""
    total = O.projective_count(p, nvars)
    count = len(O.zero_locus(forms, nvars, p))
    expect(res["scanned"] == res["unstable_count"] == total,
           f"p={p}: {res['unstable_count']} of {res['scanned']} unstable, "
           f"expected all {total}")
    expect(res["image_count"] == count,
           f"p={p}: image {res['image_count']}, oracle {count}")
    expect(not res["missing"], f"p={p}: image points escaped")
    expect(res["verdict"] == ("SUPERSET" if count < total else "EQUAL"),
           f"p={p}: verdict {res['verdict']}")


def check_koszul_group(rep, want):
    expect(rep["dim"] == rep["middle"] - rep["rank_in"] - rep["rank_out"],
           "dim is not middle minus the two ranks")
    expect(rep["dim"] == want,
           f"K_{rep['p']},{rep['q']} = {rep['dim']}, oracle {want}")


def check_point_draw(points, p, count):
    pts = [tuple(int(c) for c in row) for row in points]
    expect(len(pts) == count, f"{len(pts)} points, asked for {count}")
    expect(all(O.normalize(pt, p) == pt for pt in pts),
           "points are not normalized representatives")
    expect(len(set(pts)) == count, "repeated points")
    expect(O.in_general_position(pts, p),
           "a 4-subset has zero determinant mod p")


# ---- curve-torelli ----------------------------------------------------------


# (label, its degree on the line, primes); K = O(-2) and A = O(3) on the
# line, so K+2A = O(4)
CURVE_BATCHES = (("O(5)", 5, (5, 7, 11)), ("O(5)", 5, (13,)),
                 ("O(5)", 5, (17,)), ("K+2A", 4, (5, 7, 11)),
                 ("K+2A", 4, (13, 17)))


def curve_torelli(mods, root, seed):
    """torelli_check with recovery on the twisted cubic, embedded by a
    seeded unimodular basis of H0(O(3)), for B = O(5) and B = K+2A = O(4),
    at the catalogue primes and the tier 13, 17."""
    rng = random.Random(f"curve-torelli:{seed}")
    with open(os.path.join(root, "scenefiles", "twisted_cubic.json")) as fh:
        data = json.load(fh)
    basis = O.unimodular(rng, 4)
    data["basis"] = basis
    scene = mods.scenes.scene_from_dict(data)
    # the adjoint label comes from the scene's own label algebra, as the
    # CLI computes it
    adjoint = scene.label_add(scene.canonical_label(),
                              scene.label_scale(scene.label_A(), 2))

    ops = []
    for label, b, primes in CURVE_BATCHES:
        def call(b=(adjoint if label == "K+2A" else b), primes=primes):
            return mods.torelli.torelli_check(scene, b, primes)

        def check(res, b=b, primes=primes):
            rep = res.value.to_json_dict()
            expect(rep["B"] == f"O({b})", f"B is {rep['B']}, not O({b})")
            expect(rep["consensus"] == "EQUAL" and not rep["bad_primes"],
                   f"consensus {rep['consensus']}")
            expect([r["prime"] for r in rep["results"]] == list(primes),
                   "primes out of order")
            for r in rep["results"]:
                check_curve_prime(r, r["prime"], basis, b)
            # the program's own image agrees with the oracle's points
            for p in primes:
                enum = scene.enumerate_points(p)
                expect(enum.phi_set() == set(O.series_points(basis,
                                                             p).values()),
                       f"p={p}: enumerated image differs from the oracle")
        ops.append(library_op(f"torelli_check B={label} primes={primes}",
                              call, report_bytes, check))
    return ops


# ---- catalogue-cli ----------------------------------------------------------


def _scene_json(root, stem):
    with open(os.path.join(root, "scenefiles", f"{stem}.json")) as fh:
        return json.load(fh)


def _forms(data):
    return [(g["degree"], [int(c) for c in g["coefficients"]])
            for g in data["generators"]]


def catalogue_cli(mods, root, seed):
    """Every CLI verb on every shipped scene file, in-process."""
    rng = random.Random(f"catalogue-cli:{seed}")
    dk_seed = rng.randrange(10 ** 6)

    def path(stem):
        return os.path.join(root, "scenefiles", f"{stem}.json")

    out_path = os.path.join(root, "benchmark", "results",
                            "cli-recover-out.json")
    cubic = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    ci = _scene_json(root, "diagonal_ci")
    ci_forms, ci_vars = _forms(ci), ci["N"] + 1
    fermat = _scene_json(root, "fermat_quartic")
    diag4 = _scene_json(root, "diagonal_quartic_123")
    seven_rnc = _scene_json(root, "seven_on_twisted_cubic")
    ops = []

    def add(argv, check, text=False):
        ops.append(cli_op(mods, argv, check, text))

    def ci_points(p):
        return O.zero_locus(ci_forms, ci_vars, p)

    # build: validation over P(V)(F_p)
    def check_build(dims, p):
        def check(res):
            rep = res.value
            expect(rep["dims"] == dict(zip("amb", dims)),
                   f"dims {rep['dims']}")
            v = rep["validation"]
            expect(v["valid"] and v["fibers_scanned"] ==
                   O.projective_count(p, dims[1]), f"validation {v}")
        return check
    add(["build", path("twisted_cubic"), "--B", "O(5)", "--prime", "7"],
        check_build((3, 4, 6), 7))
    add(["build", path("diagonal_ci"), "--B", "K+A", "--prime", "5"],
        check_build((5, 5, 12), 5))

    # valles: the unstable locus itself
    def check_valles_cubic(res):
        rep = res.value
        want = set(O.series_points(cubic, 11).values())
        got = {tuple(u["lambda"]) for u in rep["unstable"]}
        expect(rep["scanned"] == O.projective_count(11, 4), "scanned")
        expect(got == want, "unstable locus is not the cubic's points")
        expect(all(u["coker"] == 1 for u in rep["unstable"]), "coker")
    add(["valles", path("twisted_cubic"), "--B", "O(5)", "--prime", "11"],
        check_valles_cubic)

    def check_valles_fermat_text(res):
        lines = res.value.splitlines()
        head = lines.index("unstable:")
        expect("scanned  57" in lines, "scanned line")
        expect(len(lines) - head - 2 == O.projective_count(7, 3),
               "not every hyperplane is listed unstable")
    add(["valles", path("fermat_quartic"), "--B", "O(3)", "--prime", "7",
         "--format", "text"], check_valles_fermat_text, text=True)

    def check_valles_ci(res):
        rep = res.value
        got = {tuple(u["lambda"]) for u in rep["unstable"]}
        expect(rep["scanned"] == O.projective_count(7, 5), "scanned")
        expect(got == set(ci_points(7)),
               "unstable locus is not the curve's points")
    add(["valles", path("diagonal_ci"), "--B", "K+A", "--prime", "7"],
        check_valles_ci)

    # koszul: single groups against known resolutions
    def koszul_check(want):
        return lambda res: check_koszul_group(res.value, want)
    add(["koszul", path("diagonal_ci"), "--p", "2", "--q", "1"],
        koszul_check(O.complete_intersection_dim(3, 2, 1)))
    add(["koszul", path("diagonal_ci"), "--p", "1", "--q", "1",
         "--prime", "11"], koszul_check(O.complete_intersection_dim(3, 1, 1)))
    add(["koszul", path("twisted_cubic"), "--p", "1", "--q", "1"],
        koszul_check(O.eagon_northcott_dim(3, 1, 1)))
    # the conic is the degree-2 rational normal curve
    add(["koszul", path("conic_monomials"), "--p", "1", "--q", "1"],
        koszul_check(O.eagon_northcott_dim(2, 1, 1)))
    # a quintic curve in P^3 lies on one quadric only: K_{1,1} = dim I_2 = 1
    for stem in ("scroll_member_a", "scroll_member_b"):
        add(["koszul", path(stem), "--p", "1", "--q", "1"], koszul_check(1))
    # six general points lie on exactly one twisted cubic: K_{1,2} = 2
    add(["koszul", path("six_general_points"), "--p", "1", "--q", "2"],
        koszul_check(2))

    # duality: both sides agree wherever the hypotheses hold
    def duality_check(want):
        def check(res):
            rep = res.value
            expect(rep["hypotheses_ok"], "hypotheses fail")
            expect(rep["lhs_dim"] == rep["rhs_dim"] == want,
                   f"lhs {rep['lhs_dim']} rhs {rep['rhs_dim']} oracle {want}")
        return check
    add(["duality", path("twisted_cubic"), "--p", "1", "--q", "1"],
        duality_check(O.eagon_northcott_dim(3, 1, 1)))
    add(["duality", path("diagonal_ci"), "--p", "1", "--q", "1"],
        duality_check(O.complete_intersection_dim(3, 1, 1)))

    # green: minimal degree, rational normal curves through points
    def green_curve(want):
        def check(res):
            rep = res.value
            expect(rep["dim"] == want, f"dim {rep['dim']} oracle {want}")
            expect(rep["verdict"] == ("minimal-degree variety detected"
                                      if want else
                                      "no minimal-degree variety detected"),
                   rep["verdict"])
        return check
    add(["green", path("twisted_cubic")],
        green_curve(O.eagon_northcott_dim(3, 1, 1)))
    add(["green", path("diagonal_ci")],
        green_curve(O.complete_intersection_dim(3, 2, 1)))

    def green_points(count, on_rnc, points=None):
        def check(res):
            rep = res.value
            if points is not None:
                expect(all(O.on_twisted_cubic([int(c) for c in pt])
                           for pt in points), "points off the twisted cubic")
            expect(rep["on_rnc"] is on_rnc, f"on_rnc {rep['on_rnc']}")
            expect(tuple(rep["ideal_dims"]) ==
                   O.general_points_ideal_dims(count, 3, (1, 2, 3)),
                   f"ideal dims {rep['ideal_dims']}")
        return check
    add(["green", path("six_general_points")], green_points(6, True))
    # on_rnc is confirmed by the minors of the cubic at every point
    add(["green", path("seven_on_twisted_cubic")],
        green_points(7, True, seven_rnc["points"]))
    add(["green", path("seven_general_f11"), "--prime", "11"],
        green_points(7, False))

    # torelli: the recovery theorem and its counterexamples
    def torelli_cubic(b):
        def check(res):
            rep = res.value
            expect(rep["consensus"] == "EQUAL", rep["consensus"])
            for r in rep["results"]:
                check_curve_prime(r, r["prime"], cubic, b)
        return check
    add(["torelli", path("twisted_cubic"), "--B", "O(5)", "--primes",
         "5,7,11"], torelli_cubic(5))
    add(["torelli", path("twisted_cubic"), "--primes", "5,7,11"],
        torelli_cubic(4))

    def torelli_plane_quartic(data, primes):
        def check(res):
            rep = res.value
            expect([r["prime"] for r in rep["results"]] == list(primes),
                   "primes")
            for r in rep["results"]:
                check_all_hyperplanes_unstable(r, r["prime"], 3,
                                               _forms(data))
        return check
    add(["torelli", path("fermat_quartic"), "--B", "O(3)", "--primes",
         "13,17,19"], torelli_plane_quartic(fermat, (13, 17, 19)))
    add(["torelli", path("diagonal_quartic_123"), "--B", "O(3)",
         "--primes", "5,7,11"],
        torelli_plane_quartic(diag4, (5, 7, 11)))

    def torelli_ci(res):
        r = res.value["results"][0]
        pts = ci_points(5)
        expect(r["verdict"] == "EQUAL" and r["recovery_ok"], r["verdict"])
        expect(r["scanned"] == O.projective_count(5, 5), "scanned")
        expect(r["unstable_count"] == r["image_count"] == len(pts),
               f"{r['image_count']} points, oracle {len(pts)}")
        expect({tuple(x["params"]) for x in r["recovery"]} == set(pts),
               "recovery rows are not at the oracle's points")
    add(["torelli", path("diagonal_ci"), "--B", "K+A", "--primes", "5"],
        torelli_ci)

    scroll_unstable = {}

    def torelli_scroll(tag):
        def check(res):
            r = res.value["results"][0]
            expect(r["verdict"] == "SUPERSET" and not r["missing"],
                   r["verdict"])
            expect(r["recovery_ok"], "recovery")
            scroll_unstable[tag] = r["unstable_count"]
            if len(scroll_unstable) == 2:
                expect(scroll_unstable["a"] == scroll_unstable["b"],
                       "scroll members have different unstable loci")
        return check
    add(["torelli", path("scroll_member_a"), "--B", "K+A", "--primes", "5"],
        torelli_scroll("a"))
    add(["torelli", path("scroll_member_b"), "--B", "K+A", "--primes", "5"],
        torelli_scroll("b"))

    # recover: the table alone, as text and through --out
    def check_recover_text(res):
        rows = [ln for ln in res.value.splitlines()
                if ln.startswith("  [")]
        expect(len(rows) == 14, f"{len(rows)} rows at p=13")
        expect(all(ln.rstrip().endswith("true") for ln in rows), "mismatch")
        expect("all_match  true" in res.value, "all_match")
    add(["recover", path("twisted_cubic"), "--B", "O(5)", "--prime", "13",
         "--format", "text"], check_recover_text, text=True)

    def check_recover_out(res):
        with open(out_path, "rb") as fh:
            rep = json.load(fh)
        pts = ci_points(7)
        expect(rep["all_match"], "all_match")
        expect({tuple(r["params"]) for r in rep["rows"]} == set(pts),
               "rows are not at the oracle's points")
    add(["recover", path("diagonal_ci"), "--B", "K+A", "--prime", "7",
         "--out", out_path], check_recover_out, text=True)

    # dk: point-set bundles from files and from a seeded draw
    def dk_file(primes, verdict, rnc, unstable):
        def check(res):
            rep = res.value
            expect([r["prime"] for r in rep["results"]] == list(primes),
                   "primes")
            for r in rep["results"]:
                p = r["prime"]
                expect(r["verdict"] == verdict, f"p={p}: {r['verdict']}")
                expect(r["rnc_flag"] is rnc and r["implication_ok"],
                       f"p={p}: rnc_flag {r['rnc_flag']}")
                expect(r["scanned"] == O.projective_count(p, 4), "scanned")
                expect(r["unstable_count"] == unstable(p),
                       f"p={p}: {r['unstable_count']} unstable")
        return check
    # points on the twisted cubic: the locus is the whole curve, p+1 planes
    add(["dk", path("seven_on_twisted_cubic"), "--primes", "7,11"],
        dk_file((7, 11), "SUPERSET", True, lambda p: p + 1))
    add(["dk", path("six_general_points"), "--primes", "7,11"],
        dk_file((7, 11), "SUPERSET", True, lambda p: p + 1))
    add(["dk", path("seven_general_f11"), "--primes", "11,13"],
        dk_file((11, 13), "EQUAL", False, lambda p: 7))

    # Six points, not seven: at p = 11 only about 1.5% of 7-point draws are
    # in general position, and for about 2% of seeds all 256 draws
    # random_point_set allows fail.  Six general points lie on exactly one
    # twisted cubic, whose p + 1 points are the unstable locus.
    def check_dk_draw(res):
        rep = res.value
        expect(rep["seed"] == dk_seed and rep["used_seed"] >= dk_seed,
               "seeds")
        check_point_draw(rep["coordinates"], 11, 6)
        r = rep["results"][0]
        expect(r["verdict"] == "SUPERSET" and r["rnc_flag"],
               f"{r['verdict']} rnc {r['rnc_flag']}")
        expect(r["unstable_count"] == 12 and
               r["scanned"] == O.projective_count(11, 4), "counts")
    add(["dk", "--N", "6", "--seed", str(dk_seed), "--prime", "11"],
        check_dk_draw)

    def check_scroll_invariance(res):
        expect(res.value["invariant"] is True, "presentations differ")
    add(["scroll-invariance", path("scroll_member_a"),
         path("scroll_member_b")], check_scroll_invariance)

    # Two operations fail today because of program faults; each is
    # counted as failed and checked for its intended outcome once fixed.
    def check_dk_bad_prime(res):
        rep = res.value
        expect(19 in rep["bad_primes"], "19 not listed as a bad prime")
        good = {r["prime"]: r for r in rep["results"]
                if r["prime"] in (11, 13)}
        expect(sorted(good) == [11, 13], "verdicts for 11 and 13 missing")
        expect(all(r["verdict"] == "EQUAL" for r in good.values()),
               "verdicts at 11 and 13")
    add(["dk", path("seven_general_f11"), "--primes", "11,13,19"],
        check_dk_bad_prime)

    def check_conic(res):
        rep = res.value
        expect(rep["consensus"] == "EQUAL", rep["consensus"])
        for r in rep["results"]:
            p = r["prime"]
            expect(r["recovery_ok"] and r["image_count"] == p + 1 and
                   r["scanned"] == O.projective_count(p, 3),
                   f"p={p}: conic result")
    add(["torelli", path("conic_monomials"), "--B", "O(4)", "--primes",
         "5,7,11"], check_conic)
    return ops


# ---- koszul-syzygy ----------------------------------------------------------


QQ_DEGREES = (3, 4, 5)
GF_DEGREES = (4, 5)
GF_PRIME = 101
DRAW_PRIME = 101
DUALITY_GROUPS = ((1, 0), (1, 1), (2, 1), (2, 2))


def koszul_syzygy(mods, root, seed):
    """Koszul ranks over QQ on rational normal curves, the duality grid on
    diagonal_ci, point-set tests, and certified draws at p = 101."""
    rng = random.Random(f"koszul-syzygy:{seed}")
    K, T, S = mods.koszul, mods.torelli, mods.scenes
    QQ, GF = mods.exactfield.QQ, mods.exactfield.GF
    ops = []

    # full K_{p,q} grids on the rational normal curves.  A seeded change of
    # basis would be a fair input too, but over QQ it makes the cost
    # depend on the seed through the growth of the fractions.
    for fld_name, degrees in (("QQ", QQ_DEGREES), (f"GF({GF_PRIME})",
                                                   GF_DEGREES)):
        fld = QQ if fld_name == "QQ" else GF(GF_PRIME)
        for d in degrees:
            scene = S.P1Series(d)
            for p in range(d + 1):
                for q in range(3):
                    def call(scene=scene, p=p, q=q, fld=fld):
                        win = K.scene_window(scene, 0, q - 1, q + 1, fld)
                        return K.koszul_dim(win, p, q)

                    def check(res, d=d, p=p, q=q):
                        check_koszul_group(res.value.to_json_dict(),
                                           O.eagon_northcott_dim(d, p, q))
                    ops.append(library_op(f"koszul_dim d={d} K_{p},{q} "
                                          f"{fld_name}", call, report_bytes,
                                          check))

    for d, fld_name in [(d, "QQ") for d in QQ_DEGREES] + [
            (GF_DEGREES[-1], f"GF({GF_PRIME})")]:
        scene = S.P1Series(d)
        fld = QQ if fld_name == "QQ" else GF(GF_PRIME)

        def check_green(res, d=d):
            rep = res.value
            want = O.eagon_northcott_dim(d, d - 2, 1)
            expect(rep.dim == want, f"green d={d}: {rep.dim}, oracle {want}")
        ops.append(library_op(f"green_kp1 d={d} {fld_name}",
                              lambda scene=scene, fld=fld:
                                  K.green_kp1(scene, fld),
                              report_bytes, check_green))

    ci = S.load_scene(os.path.join(root, "scenefiles", "diagonal_ci.json"))
    for p, q in DUALITY_GROUPS:
        def check_dual(res, p=p, q=q):
            rep = res.value
            want = O.complete_intersection_dim(3, p, q)
            expect(rep.hypotheses_ok, "hypotheses")
            expect(rep.lhs_dim == rep.rhs_dim == want,
                   f"duality {p},{q}: {rep.lhs_dim} vs {rep.rhs_dim}, "
                   f"oracle {want}")
        ops.append(library_op(
            f"duality_check diagonal_ci {p},{q} QQ",
            lambda p=p, q=q: K.duality_check(ci, 0, p, q, QQ),
            report_bytes, check_dual))

    for stem, count, on_rnc in (("six_general_points", 6, True),
                                ("seven_on_twisted_cubic", 7, True),
                                ("seven_general_f11", 7, False)):
        pts = S.load_scene(os.path.join(root, "scenefiles", f"{stem}.json"))

        def check_points(res, count=count, on_rnc=on_rnc):
            rep = res.value
            expect(rep.on_rnc is on_rnc, f"on_rnc {rep.on_rnc}")
            expect(rep.ideal_dims ==
                   O.general_points_ideal_dims(count, 3, (1, 2, 3)),
                   f"ideal dims {rep.ideal_dims}")
        ops.append(library_op(f"green_points_test {stem} QQ",
                              lambda pts=pts: K.green_points_test(pts, QQ),
                              report_bytes, check_points))

    for count in (7, 8):
        draw_seed = rng.randrange(10 ** 6)

        def render_draw(value):
            points, used = value
            return json.dumps({"used": used, "points": [
                [str(c) for c in row] for row in points.points]}).encode()

        def check_draw(res, count=count, draw_seed=draw_seed):
            points, used = res.value
            expect(used >= draw_seed, "used seed precedes the seed")
            check_point_draw(points.points, DRAW_PRIME, count)
            expect(not K.green_points_test(points, GF(DRAW_PRIME)).on_rnc,
                   "certified draw lies on a rational normal curve")
        ops.append(library_op(
            f"random_point_set N={count} p={DRAW_PRIME}",
            lambda count=count, s=draw_seed:
                T.random_point_set(count, DRAW_PRIME, s),
            render_draw, check_draw))
    return ops


OPERATIONS = {"curve-torelli": curve_torelli,
            "catalogue-cli": catalogue_cli,
            "koszul-syzygy": koszul_syzygy}
