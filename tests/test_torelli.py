"""Pipeline tests: tautological presentations, Torelli comparisons over
several primes, scroll invariance, and the point-set bundle."""

import json
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinertorelli import scenes
from steinertorelli.cli import emit, main
from steinertorelli.errors import (ClassMismatch, NotGeneralPosition,
                                   UnsupportedLabel, UnsupportedScene,
                                   ZeroEvaluation)
from steinertorelli.exactfield import (GF, QQ, Matrix, normalize_projective,
                                       projective_count, projective_reps,
                                       projective_unrank, rank,
                                       span_reduction)
from steinertorelli.koszul import green_points_test
from steinertorelli.scenes import (MonomialVariety, P1Series, PointSet,
                                   ScrollCurve, load_scene)
from steinertorelli.steiner import (recover_section_point, unstable_test,
                                    valles_locus)
from steinertorelli.torelli import (_consensus, dk_check, dk_presentation,
                                    hypothesis_defect, random_point_set,
                                    recover_embedding_check,
                                    scroll_invariance,
                                    tautological_presentation,
                                    torelli_check, vanishing_check)
from test_koszul import CUBIC_POINTS, GENERAL_SEVEN
from test_scenes import SCROLL_F1, SCROLL_F2, diagonal_ci, fermat_quartic

TC = P1Series(3)
SCENEDIR = Path(__file__).resolve().parent.parent / "scenefiles"


def monomial_conic():
    return MonomialVariety(2, 2, [(2, 0), (1, 1), (0, 2)])

SIX_GENERAL = PointSet(3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                           (0, 0, 0, 1), (1, 1, 1, 1), (1, 2, 3, 4)])


# ---- tautological presentations -----------------------------------------------


def test_twisted_cubic_presentation_dims():
    pres = tautological_presentation(TC, 5, GF(5))
    assert (pres.dim_u1, pres.dim_v, pres.dim_u0) == (3, 4, 6)
    assert pres.bundle_rank == 3
    assert pres.name == "p1_series(a=3) | B=O(5)"


def test_presentation_hypothesis_defects():
    assert hypothesis_defect(TC, 5) == 0
    assert hypothesis_defect(fermat_quartic(), 3) == 0
    # adjoint-plus-polarization choices leave one obstruction, and the
    # presentation is still built
    assert hypothesis_defect(diagonal_ci(), 2, GF(5)) == 1
    pres = tautological_presentation(diagonal_ci(), 2, GF(5))
    assert (pres.dim_u1, pres.dim_v, pres.dim_u0) == (5, 5, 12)
    sc = ScrollCurve(1, 1, 2, 1, SCROLL_F1)
    assert hypothesis_defect(sc, (1, 1), GF(5)) == 1
    assert hypothesis_defect(monomial_conic(), 2) is None


def test_presentation_rejects_unsupported_labels():
    sc = ScrollCurve(1, 1, 2, 1, SCROLL_F1)
    with pytest.raises(UnsupportedLabel):
        tautological_presentation(sc, (0, 3), GF(5))


def test_vanishing_check_catalogue():
    assert vanishing_check(TC, 5) is True
    assert vanishing_check(TC, 4) is False
    assert vanishing_check(fermat_quartic(), 3) is False
    assert vanishing_check(diagonal_ci(), 2, GF(5)) is False
    with pytest.raises(UnsupportedScene):
        vanishing_check(monomial_conic(), 2)


# ---- Torelli comparisons -------------------------------------------------------


def test_torelli_twisted_cubic_positive():
    rep = torelli_check(TC, 5)
    assert rep.consensus == "EQUAL"
    assert rep.bad_primes == ()
    for res, p in zip(rep.results, (5, 7, 11)):
        assert res.prime == p
        assert res.verdict == "EQUAL"
        assert res.scanned == p ** 3 + p ** 2 + p + 1
        assert res.unstable_count == res.image_count == p + 1
        assert res.extra == () and res.missing == ()
        assert res.recovery_ok


def test_torelli_twisted_cubic_at_large_primes():
    # p^3 + p^2 + p + 1 hyperplanes, about 10^6 at p = 101, decided from
    # p^2 + p + 1 contractions over P(U1*)
    rep = torelli_check(TC, 5, (53, 101))
    assert rep.consensus == "EQUAL"
    for res, p in zip(rep.results, (53, 101)):
        assert res.scanned == projective_count(p, 4)
        assert res.unstable_count == res.image_count == p + 1
        assert len(res.recovery) == p + 1 and res.recovery_ok
        scan = valles_locus(tautological_presentation(TC, 5, GF(p)))
        assert [coker for _, coker in scan.unstable] == [1] * (p + 1)


def test_torelli_adjoint_twist_still_equal():
    # vanishing fails for O(4) = K+2A, the verdict does not
    rep = torelli_check(TC, 4)
    assert rep.consensus == "EQUAL"
    assert all(r.recovery_ok for r in rep.results)


def test_torelli_quartic_counterexample():
    rep = torelli_check(fermat_quartic(), 3, primes=(5, 7))
    assert rep.consensus == "SUPERSET"
    five, seven = rep.results
    assert five.unstable_count == five.scanned == 31
    assert five.image_count == 0
    assert seven.unstable_count == seven.scanned == 57
    assert seven.image_count == 8


def test_torelli_complete_intersection_positive():
    rep = torelli_check(diagonal_ci(), 2, primes=(5,))
    res = rep.results[0]
    assert rep.consensus == "EQUAL"
    assert res.scanned == 781
    assert res.unstable_count == res.image_count == 16
    assert res.recovery_ok


def test_torelli_scroll_member_superset():
    rep = torelli_check(ScrollCurve(1, 1, 2, 1, SCROLL_F1), (1, 1),
                        primes=(5,))
    res = rep.results[0]
    assert res.verdict == "SUPERSET"
    assert res.scanned == 156
    assert (res.unstable_count, res.image_count) == (36, 8)


def test_unstable_scroll_locus_is_the_segre_quadric():
    pres = tautological_presentation(ScrollCurve(1, 1, 2, 1, SCROLL_F2),
                                     (1, 1), GF(5))
    from steinertorelli.steiner import valles_locus
    scan = valles_locus(pres)
    assert len(scan.unstable_set()) == 36
    for lam in scan.unstable_set():
        assert (lam[0] * lam[3] - lam[1] * lam[2]) % 5 == 0


def test_consensus_reports_dissenting_primes():
    assert _consensus([(5, "EQUAL"), (7, "EQUAL")]) == ("EQUAL", ())
    assert _consensus([(5, "EQUAL"), (7, "SUPERSET"), (11, "EQUAL")]) == \
        ("DISAGREEMENT", (7,))
    assert _consensus([]) == ("EMPTY", ())


def test_recover_embedding_twisted_cubic():
    for b_label in (5, 4):
        rep = recover_embedding_check(TC, b_label, 7)
        assert len(rep.rows) == 8
        assert rep.all_match


def test_recover_embedding_marks_non_unique_quotients():
    # with B = K the cokernel is 2 at each of the 8 image points, so no
    # row recovers a functional; torelli_check gives the same rows
    rep = recover_embedding_check(ScrollCurve(1, 1, 2, 1, SCROLL_F1),
                                  (0, 1), 5)
    assert len(rep.rows) == 8
    assert all(r.recovered is None and not r.match for r in rep.rows)
    assert not rep.all_match
    assert torelli_check(ScrollCurve(1, 1, 2, 1, SCROLL_F1), (0, 1),
                         (5,)).results[0].recovery == rep.rows


def test_recover_embedding_complete_intersection():
    rep = recover_embedding_check(diagonal_ci(), 2, 5)
    assert len(rep.rows) == 16
    assert rep.all_match


# (scene file, two B labels, primes)
KEPT_IMAGE_RUNS = [("twisted_cubic", (5, 4), (5, 7, 11)),
                   ("conic_monomials", (4, 3), (5, 7)),
                   ("diagonal_ci", (3, 2), (5, 7)),
                   ("scroll_member_a", ((2, 1), (1, 1)), (5, 7)),
                   ("scroll_member_b", ((2, 1), (1, 1)), (5, 7))]


@pytest.mark.parametrize("stem,labels,primes", KEPT_IMAGE_RUNS,
                         ids=[run[0] for run in KEPT_IMAGE_RUNS])
def test_one_enumeration_per_scene_and_prime(monkeypatch, stem, labels,
                                             primes):
    """The image X(F_p) is enumerated once per scene and prime, however
    many bundles and callers compare against it."""
    scene = load_scene(SCENEDIR / f"{stem}.json")
    walk = scenes._walk
    calls = []

    def counting(p, *rest):
        calls.append(p)
        return walk(p, *rest)

    monkeypatch.setattr(scenes, "_walk", counting)
    first, second = labels
    torelli_check(scene, first, primes)
    torelli_check(scene, second, primes)
    recover_embedding_check(scene, first, primes[-1])
    assert calls == list(primes)
    assert scene.enumerate_points(primes[0]) is \
        scene.enumerate_points(primes[0])
    assert calls == list(primes)


@pytest.mark.parametrize("stem,labels,primes", KEPT_IMAGE_RUNS,
                         ids=[run[0] for run in KEPT_IMAGE_RUNS])
def test_warm_scene_reports_what_a_cold_one_does(stem, labels, primes):
    """Every report on a scene that has already enumerated its image,
    for other bundles and other callers, is the bytes of the same report
    on a freshly loaded scene."""
    def fresh():
        return load_scene(SCENEDIR / f"{stem}.json")

    def torelli(scene, b_label):
        return emit(torelli_check(scene, b_label, primes).to_json_dict(),
                    "json")

    def recover(scene, b_label):
        return emit(recover_embedding_check(
            scene, b_label, primes[-1]).to_json_dict(), "json")

    warm = fresh()
    for b_label in labels + labels[::-1]:
        assert torelli(warm, b_label) == torelli(fresh(), b_label)
        assert recover(warm, b_label) == recover(fresh(), b_label)


# ---- scroll members ------------------------------------------------------------


def test_scroll_invariance_adjoint_polarization():
    sa = ScrollCurve(1, 1, 2, 1, SCROLL_F1)
    sb = ScrollCurve(1, 1, 2, 1, SCROLL_F2)
    assert scroll_invariance(sa, sb, 1) is True
    # no invariance claim at K + 2A; the comparison just reports
    assert scroll_invariance(sa, sb, 2) is False


def test_scroll_invariance_rejects_mismatches():
    sa = ScrollCurve(1, 1, 2, 1, SCROLL_F1)
    other = ScrollCurve(1, 1, 2, 2, (1,) + (0,) * 9 + (1,) + (0,) * 4)
    with pytest.raises(ClassMismatch):
        scroll_invariance(sa, other, 1)
    with pytest.raises(ClassMismatch):
        scroll_invariance(sa, TC, 1)


# ---- point-set bundles ---------------------------------------------------------


def test_dk_presentation_dims():
    p7 = dk_presentation(GENERAL_SEVEN, GF(11))
    assert (p7.dim_u1, p7.dim_v, p7.dim_u0) == (3, 4, 6)
    assert p7.bundle_rank == 3
    p6 = dk_presentation(SIX_GENERAL, GF(7))
    assert (p6.dim_u1, p6.dim_v, p6.dim_u0) == (2, 4, 5)
    assert p6.bundle_rank == 3


def span_reduction_tensor(points, field):
    """The dk tensor built as before the normal form was kept: U1 from a
    span_reduction of the coordinate rows of the representatives."""
    d, m = points.count, points.r + 1
    reps = [[field.normalize(c) for c in row] for row in points.points]
    quot1 = span_reduction(tuple(zip(*reps)), d, field)
    return Matrix(field, d - 1, quot1.nullity * m, tuple(
        tuple(reps[c][j] * vec[c] for vec in quot1.kernel for j in range(m))
        for c in range(1, d)))


@given(r=st.integers(1, 3), extra=st.integers(0, 4),
       p=st.sampled_from([0, 5, 7, 13]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_dk_tensor_matches_the_span_reduction(r, extra, p, data):
    """U1 read off the kept normal form gives the tensor that its own
    span_reduction gave, over GF(p) and over QQ with Fraction
    coordinates, and the normal form is not made again."""
    field = GF(p) if p else QQ
    coords = st.integers(0, p - 1) if p else st.fractions(
        -4, 4, max_denominator=5)
    points = data.draw(st.lists(
        st.tuples(*[coords] * (r + 1)).filter(any), min_size=r + 1 + extra,
        max_size=r + 1 + extra,
        unique_by=lambda pt: normalize_projective(field, pt)))
    ps = PointSet(r, points)
    assume(ps.in_general_position(field))
    form = ps.normal_form(field)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pres = dk_presentation(ps, field)
    assert ps.normal_form(field) is form
    assert pres.tensor == span_reduction_tensor(ps, field)
    assert (pres.dim_u1, pres.dim_v, pres.dim_u0) == (extra, r + 1,
                                                      r + extra)


def test_dk_presentation_degenerate_minimum():
    frame = PointSet(3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                         (0, 0, 0, 1)])
    with pytest.warns(RuntimeWarning):
        pres = dk_presentation(frame, GF(5))
    assert pres.dim_u1 == 0
    assert pres.dim_u0 == 3


def test_dk_presentation_demands_general_position():
    coplanar = PointSet(3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                            (1, 1, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(NotGeneralPosition):
        dk_presentation(coplanar, GF(7))


def test_dk_check_seven_free_points_equal():
    rep = dk_check(GENERAL_SEVEN, primes=(11,))
    res = rep.results[0]
    assert rep.consensus == "EQUAL"
    assert res.scanned == 1464
    assert not res.rnc_flag
    assert res.implication_ok


def test_dk_check_six_points_disagree_across_primes():
    # the unique cubic through the six points has no F_5 point beyond
    # them, so p=5 sees EQUAL while larger primes see the curve grow
    rep = dk_check(SIX_GENERAL, primes=(5, 7, 11))
    assert [r.verdict for r in rep.results] == \
        ["EQUAL", "SUPERSET", "SUPERSET"]
    assert rep.consensus == "DISAGREEMENT"
    assert rep.bad_primes == (5,)
    assert all(r.rnc_flag and r.implication_ok for r in rep.results)
    assert len(rep.results[1].extra) == 2
    assert len(rep.results[2].extra) == 6


def test_dk_check_points_on_cubic_superset():
    rep = dk_check(CUBIC_POINTS, primes=(7, 11))
    seven, eleven = rep.results
    assert rep.consensus == "SUPERSET"
    # the extra unstable points complete the cubic itself
    assert seven.extra == ((1, 6, 1, 6),)
    cubic11 = {(1, t, t * t % 11, pow(t, 3, 11)) for t in range(11)}
    assert set(eleven.extra) <= cubic11
    assert len(eleven.extra) == 5
    for res in rep.results:
        assert res.rnc_flag and res.implication_ok and res.missing == ()


def test_dk_check_lists_bad_reductions_and_carries_on():
    # two of the points collide mod 5; p = 7 still gets its verdict
    rep = dk_check(CUBIC_POINTS, primes=(5, 7))
    five, seven = rep.results
    assert (five.verdict, five.error) == ("BAD_PRIME", "BadPrime")
    assert five.to_json_dict()["error"] == "BadPrime"
    assert seven.verdict == "SUPERSET" and seven.error is None
    assert rep.consensus == "SUPERSET"
    assert rep.bad_primes == (5,)
    # no prime reduces well
    rep = dk_check(CUBIC_POINTS, primes=(5,))
    assert (rep.consensus, rep.bad_primes) == ("EMPTY", (5,))


# a catalogue scene with every form coefficient times 5, the B label of
# its run and the verdict at 7, where the scaled scene reduces as well
SCALED_BY_FIVE = [("fermat_quartic", "generators", 3, "SUPERSET"),
                  ("scroll_member_a", "section", (2, 1), "EQUAL")]


def _scaled_by_five(tmp_path, stem, key):
    data = json.loads((SCENEDIR / f"{stem}.json").read_text())
    if key == "section":
        data["section"] = [5 * c for c in data["section"]]
    else:
        for gen in data["generators"]:
            gen["coefficients"] = [5 * c for c in gen["coefficients"]]
    path = tmp_path / f"{stem}_times_5.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("stem,key,b_label,seven", SCALED_BY_FIVE,
                         ids=[row[0] for row in SCALED_BY_FIVE])
def test_form_vanishing_mod_p_is_a_bad_prime(tmp_path, stem, key, b_label,
                                             seven):
    """A form that is zero mod 5 gives a BAD_PRIME row at 5; the row at 7
    is that of the unscaled scene."""
    scene = load_scene(_scaled_by_five(tmp_path, stem, key))
    rep = torelli_check(scene, b_label, primes=(5, 7))
    five, at_seven = rep.results
    assert (five.verdict, five.error) == ("BAD_PRIME", "BadPrime")
    assert rep.bad_primes == (5,) and rep.consensus == seven
    plain = torelli_check(load_scene(SCENEDIR / f"{stem}.json"), b_label,
                          primes=(7,)).results[0]
    assert at_seven.verdict == seven
    assert at_seven.to_json_dict() == plain.to_json_dict()


@pytest.mark.parametrize("stem,key,b_label,seven", SCALED_BY_FIVE,
                         ids=[row[0] for row in SCALED_BY_FIVE])
def test_torelli_verb_lists_a_form_vanishing_mod_p(tmp_path, capsys, stem,
                                                   key, b_label, seven):
    path = _scaled_by_five(tmp_path, stem, key)
    argv = ["torelli", str(path), "--primes", "5,7"]
    if stem == "fermat_quartic":
        argv += ["--B", "O(3)"]
    assert main(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [(r["prime"], r["verdict"]) for r in rep["results"]] == \
        [(5, "BAD_PRIME"), (7, seven)]
    assert rep["results"][0]["error"] == "BadPrime"
    assert rep["bad_primes"] == [5]


def test_dk_check_refuses_points_degenerate_over_qq():
    coplanar = PointSet(3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                            (1, 1, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(NotGeneralPosition):
        dk_check(coplanar, primes=(7, 11))


def test_consensus_skips_bad_primes():
    assert _consensus([(5, "BAD_PRIME"), (7, "EQUAL"), (11, "EQUAL")]) == \
        ("EQUAL", (5,))
    assert _consensus([(5, "BAD_PRIME"), (7, "EQUAL"),
                       (11, "SUPERSET")]) == ("DISAGREEMENT", (5, 11))


def test_dk_check_six_points_see_their_cubic():
    rep = dk_check(SIX_GENERAL, primes=(7,))
    res = rep.results[0]
    assert res.verdict == "SUPERSET"
    assert len(res.extra) == 2
    assert res.rnc_flag and res.implication_ok


def test_rescaling_leaves_the_locus_alone():
    # the verdicts never depend on the chosen representatives
    scaled = PointSet(SIX_GENERAL.r,
                      [tuple(s * c for c in row) for s, row in
                       zip((1, 1, 2, 1, 3, 1), SIX_GENERAL.points)])
    for base, other in zip(dk_check(SIX_GENERAL, primes=(7,)).results,
                           dk_check(scaled, primes=(7,)).results):
        assert (base.verdict, base.extra, base.missing) == \
            (other.verdict, other.extra, other.missing)


# ---- image of the restricted multiplication ------------------------------------


def _image_at(scene, b_label, params, prime):
    """At an image point x the presentation restricted to the sections of
    A vanishing at x lands on the sections of B vanishing at x: returns
    (ev_B annihilates the image, image rank, b - 1, recovered quotient,
    ev_B)."""
    field = GF(prime)
    pres = tautological_presentation(scene, b_label, field)
    ev_a = scene.evaluation_functional(params, scene.label_A(), field)
    ev_b = scene.evaluation_functional(params, b_label, field)
    restricted = pres.restricted_matrix(ev_a)
    contained = Matrix(field, 1, len(ev_b), (ev_b,)).mul(
        restricted).is_zero()
    return (contained, rank(restricted), pres.dim_u0 - 1,
            recover_section_point(pres, ev_a), ev_b)


def test_bpf_image_at_a_curve_point():
    contained, image_rank, expected, psi, ev_b = _image_at(TC, 5, (1, 0), 5)
    assert contained
    assert image_rank == expected == 5
    assert psi == ev_b


def test_bpf_image_on_the_quartic():
    # (1, 2, 3) lies on the Fermat quartic mod 7
    contained, image_rank, expected, psi, ev_b = _image_at(
        fermat_quartic(), 3, (1, 2, 3), 7)
    assert contained
    assert image_rank == expected == 9
    assert psi == ev_b


def test_bpf_rejects_zero_evaluation():
    with pytest.raises(ZeroEvaluation):
        _image_at(TC, 5, (0, 0), 5)


def test_generic_hyperplane_is_surjective():
    pres = tautological_presentation(TC, 5, GF(5))
    assert unstable_test(pres, (1, 0, 0, 1)) == (False, 0)


# ---- serialization -------------------------------------------------------------


def test_report_json_key_orders():
    rep = torelli_check(TC, 5, primes=(5,))
    d = rep.to_json_dict()
    assert list(d) == ["scene", "B", "primes", "results", "consensus",
                       "bad_primes"]
    assert list(d["results"][0]) == [
        "prime", "verdict", "scanned", "unstable_count", "image_count",
        "extra", "missing", "recovery", "recovery_ok"]
    assert list(d["results"][0]["recovery"][0]) == [
        "params", "expected", "recovered", "match"]

    rec = recover_embedding_check(TC, 5, 5).to_json_dict()
    assert list(rec) == ["scene", "B", "prime", "rows", "all_match"]

    dk = dk_check(SIX_GENERAL, primes=(7,)).to_json_dict()
    assert list(dk) == ["points", "primes", "results", "consensus",
                       "bad_primes"]
    assert list(dk["results"][0]) == [
        "prime", "verdict", "scanned", "unstable_count", "point_count",
        "extra", "missing", "rnc_flag", "implication_ok"]


# ---- seeded generation ----------------------------------------------------------


def test_random_point_set_reproduces_frozen_seven():
    pts, used = random_point_set(7, 11, seed=0)
    assert used == 1
    assert pts.points == GENERAL_SEVEN.points
    assert "seed=1" in pts.name


def test_random_point_set_small_count_skips_rnc_certificate():
    # six points always lie on some rational normal cubic, so only the
    # general-position certificate applies
    pts, used = random_point_set(6, 11, seed=0)
    assert pts.count == 6
    assert pts.in_general_position(GF(11))


def test_random_point_set_exhaustion():
    # every 7-point general-position subset of P^3(F_7) meets a rational
    # normal cubic, so the off-curve certificate can never be met
    with pytest.raises(NotGeneralPosition):
        random_point_set(7, 7, seed=0, max_tries=30)
    with pytest.raises(NotGeneralPosition):
        random_point_set(8, 2, seed=0, r=1)


def _list_based_point_set(count, prime, seed, r=3, max_tries=256):
    """random_point_set drawing from the list of all of P^r(F_p): the
    reference for its index-based draws."""
    field = GF(prime)
    reps = list(projective_reps(prime, r + 1))
    for attempt in range(max_tries):
        used = seed + attempt
        rows = random.Random(used).sample(reps, count)
        points = PointSet(r, rows)
        if not points.in_general_position(field):
            continue
        if count >= r + 4 and green_points_test(points, field).on_rnc:
            continue
        return points, used
    return None


@pytest.mark.parametrize("p,m", [(5, 3), (5, 4), (11, 4), (101, 3)])
def test_sampling_by_index_matches_sampling_the_list(p, m):
    # both branches of rng.sample (pool and set) pick the same indices
    # from a range as from the list of representatives
    reps = list(projective_reps(p, m))
    for seed in range(40):
        for count in (5, 6, 7, 20):
            want = random.Random(seed).sample(reps, count)
            idx = random.Random(seed).sample(range(len(reps)), count)
            assert [projective_unrank(p, m, i) for i in idx] == want


@pytest.mark.parametrize("count,prime", [(5, 5), (6, 11), (7, 11)])
def test_random_point_set_matches_list_based_draws(count, prime):
    for seed in range(4):
        pts, used = random_point_set(count, prime, seed)
        ref, ref_used = _list_based_point_set(count, prime, seed)
        assert used == ref_used
        assert pts.points == ref.points
