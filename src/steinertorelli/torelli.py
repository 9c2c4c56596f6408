"""Theorem-level pipelines over the scene catalogue.

Each check assembles a tautological Steiner presentation, scans its
unstable hyperplanes over one or more primes, and compares the outcome
with the scene's own rational points.  The headline verdicts are

    EQUAL     the unstable set is exactly the image of the scene,
    SUPERSET  it strictly contains the image,
    INVALID   the presentation failed validation, or an enumerated
              image point escaped the unstable set,
    BAD_PRIME the scene data does not reduce well mod p (BadPrime or
              NotGeneralPosition); the row carries the error name.

Multi-prime runs never average: primes that disagree with the rest, and
primes of bad reduction, are listed so a bad reduction is visible
instead of silently absorbed, and it does not end the run.  The
consensus is taken over the primes that reduced well.
"""

from __future__ import annotations

import random
import warnings

from .errors import (BadPrime, ClassMismatch, NonUniqueQuotient,
                     NotGeneralPosition, UnsupportedScene)
from .exactfield import (GF, QQ, Matrix, Record, _set, projective_count,
                         projective_unrank)
from .koszul import green_points_test
from .scenes import PointSet, _scalar_json
from .steiner import (SteinerPresentation, recover_section_point,
                      validate_presentation, valles_locus)

PRIMES_DEFAULT = (5, 7, 11)
BAD_PRIME = "BAD_PRIME"


def _vec_json(vec):
    return [_scalar_json(c) for c in vec]


# ---- tautological presentations ---------------------------------------------


def hypothesis_defect(scene, b_label, field=QQ):
    """h1 of B(-A), the obstruction to the presentation being a genuine
    two-term resolution; None when the scene cannot say."""
    if not scene.supports_cohomology:
        return None
    sub = scene.label_add(b_label, scene.label_scale(scene.label_A(), -1))
    return scene.cohomology_dim(sub, 1, field)


def tautological_presentation(scene, b_label, field):
    """mu: H0(B-A) (x) V -> H0(B) from the scene's multiplication.

    The construction succeeds whenever both section spaces exist; the
    cohomological hypothesis h1(B-A) = 0 that makes the cokernel a
    vector bundle resolution is not enforced here, see hypothesis_defect.
    """
    a_label = scene.label_A()
    sub_label = scene.label_add(b_label, scene.label_scale(a_label, -1))
    u1 = scene.section_space(sub_label, field)
    u0 = scene.section_space(b_label, field)
    m = scene.series_dim(field)
    tensor = scene.multiplication_map(sub_label, a_label, field)
    name = f"{scene.name} | B={scene.label_str(b_label)}"
    return SteinerPresentation(tensor, u1.dim, m, u0.dim, name)


def vanishing_check(scene, b_label, field=QQ):
    """True iff h^i(B (x) A^-(i+1)) = 0 for i = 1..dim X."""
    if not scene.supports_cohomology:
        raise UnsupportedScene(
            f"vanishing test needs cohomology, not modelled for "
            f"{scene.kind}")
    a_label = scene.label_A()
    for i in range(1, scene.dimension + 1):
        lab = scene.label_add(b_label,
                              scene.label_scale(a_label, -(i + 1)))
        if scene.cohomology_dim(lab, i, field) != 0:
            return False
    return True


# ---- the Torelli comparison --------------------------------------------------


class RecoveryRow(Record):
    __slots__ = _fields = ("params", "expected", "recovered", "match")

    def __init__(self, params, expected, recovered: tuple | None, match):
        _set(self, "params", params)
        _set(self, "expected", expected)
        _set(self, "recovered", recovered)
        _set(self, "match", match)

    def to_json_dict(self):
        return {"params": _vec_json(self.params),
                "expected": _vec_json(self.expected),
                "recovered": None if self.recovered is None
                else _vec_json(self.recovered),
                "match": self.match}


class PrimeComparison(Record):
    """The unstable set against the image at one prime, the part that
    torelli_check and dk_check share.  `error` names the exception of a
    BAD_PRIME row."""

    __slots__ = _fields = ("prime", "verdict", "scanned", "unstable_count",
                           "image_count", "extra", "missing", "error")

    def __init__(self, prime, verdict, scanned=0, unstable_count=0,
                 image_count=0, extra=(), missing=(),
                 error: str | None = None):
        _set(self, "prime", prime)
        _set(self, "verdict", verdict)
        _set(self, "scanned", scanned)
        _set(self, "unstable_count", unstable_count)
        _set(self, "image_count", image_count)
        _set(self, "extra", extra)
        _set(self, "missing", missing)
        _set(self, "error", error)

    def _json(self, image_key, **tail):
        out = {"prime": self.prime, "verdict": self.verdict,
               "scanned": self.scanned,
               "unstable_count": self.unstable_count,
               image_key: self.image_count,
               "extra": [_vec_json(lam) for lam in self.extra],
               "missing": [_vec_json(lam) for lam in self.missing],
               **tail}
        if self.error is not None:
            out["error"] = self.error
        return out


class PrimeResult(PrimeComparison):
    __slots__ = ("recovery",)
    _fields = PrimeComparison._fields + __slots__

    def __init__(self, prime, verdict, scanned=0, unstable_count=0,
                 image_count=0, extra=(), missing=(), error=None,
                 recovery=()):
        super().__init__(prime, verdict, scanned, unstable_count,
                         image_count, extra, missing, error)
        _set(self, "recovery", recovery)

    @property
    def recovery_ok(self):
        return bool(self.recovery) and all(r.match for r in self.recovery)

    def to_json_dict(self):
        return self._json("image_count",
                          recovery=[r.to_json_dict() for r in self.recovery],
                          recovery_ok=self.recovery_ok)


class TorelliReport(Record):
    __slots__ = _fields = ("scene", "b_label", "primes", "results",
                           "consensus", "bad_primes")

    def __init__(self, scene, b_label, primes, results, consensus,
                 bad_primes):
        _set(self, "scene", scene)
        _set(self, "b_label", b_label)
        _set(self, "primes", primes)
        _set(self, "results", results)
        _set(self, "consensus", consensus)
        _set(self, "bad_primes", bad_primes)

    def to_json_dict(self):
        return {"scene": self.scene, "B": self.b_label,
                "primes": list(self.primes),
                "results": [r.to_json_dict() for r in self.results],
                "consensus": self.consensus,
                "bad_primes": list(self.bad_primes)}


def _consensus(verdicts):
    """Majority verdict over the primes that reduced well, plus the primes
    to flag: bad reductions and dissenters.  DISAGREEMENT when the good
    primes split, EMPTY when there are none."""
    good = [v for _, v in verdicts if v != BAD_PRIME]
    lead = max(good, key=good.count, default="EMPTY")
    bad = tuple(p for p, v in verdicts if v != lead)
    return ("DISAGREEMENT" if len(set(good)) > 1 else lead), bad


def _compare_prime(scene, field, build):
    """Validate, scan, and compare the unstable set with the image.

    build(field) gives the presentation over GF(p); the image is the set
    of the scene's enumerated points, which the scene keeps per prime, so
    every B compared on one scene object reads one enumeration.  A
    BadPrime or NotGeneralPosition while reducing at p gives a BAD_PRIME
    comparison instead of ending the run.  Returns the comparison, the
    presentation and the enumeration, the last two None unless the scan
    ran.
    """
    p = field.characteristic
    try:
        pres = build(field)
        report = validate_presentation(pres)
        if not report.valid:
            return PrimeComparison(p, "INVALID",
                                   report.fibers_scanned), None, None
        enum = scene.enumerate_points(p)
    except (BadPrime, NotGeneralPosition) as exc:
        return PrimeComparison(p, BAD_PRIME,
                               error=type(exc).__name__), None, None
    scan = valles_locus(pres)
    unstable = scan.unstable_set()
    image = enum.phi_set()
    extra = tuple(sorted(unstable - image))
    missing = tuple(sorted(image - unstable))
    if missing:
        verdict = "INVALID"
    elif extra:
        verdict = "SUPERSET"
    else:
        verdict = "EQUAL"
    return PrimeComparison(p, verdict, scan.scanned, len(unstable),
                           len(image), extra, missing), pres, enum


def _recovery_rows(scene, b_label, pres, records):
    """Recover, from the presentation alone, the trivial quotient at each
    enumerated image point and compare it with B's evaluation functional
    there.  A cokernel of dimension other than 1 leaves no unique quotient
    and gives an unmatched row with `recovered` None."""
    rows = []
    for rec in records:
        expected = scene.evaluation_functional(rec.params, b_label,
                                               pres.field)
        try:
            psi = recover_section_point(pres, rec.phi)
        except NonUniqueQuotient:
            psi = None
        rows.append(RecoveryRow(rec.params, expected, psi, psi == expected))
    return tuple(rows)


def torelli_check(scene, b_label, primes=PRIMES_DEFAULT) -> TorelliReport:
    """Compare the unstable-hyperplane locus of the tautological
    presentation for B with the scene's image points, prime by prime.
    Where the presentation is valid and no image point is missing from
    the unstable set, every image point also gets a recovery row.  A
    modulus that is not prime is refused before any prime is scanned."""
    results = []
    for field in [GF(p) for p in primes]:
        comparison, pres, enum = _compare_prime(
            scene, field, lambda field: tautological_presentation(
                scene, b_label, field))
        rows = () if pres is None or comparison.missing else \
            _recovery_rows(scene, b_label, pres, enum.records)
        c = comparison
        results.append(PrimeResult(
            c.prime, c.verdict, c.scanned, c.unstable_count, c.image_count,
            c.extra, c.missing, c.error, recovery=rows))
    consensus, bad = _consensus([(r.prime, r.verdict) for r in results])
    return TorelliReport(scene.name, scene.label_str(b_label),
                         tuple(primes), tuple(results), consensus, bad)


class RecoveryReport(Record):
    __slots__ = _fields = ("scene", "b_label", "prime", "rows")

    def __init__(self, scene, b_label, prime, rows):
        _set(self, "scene", scene)
        _set(self, "b_label", b_label)
        _set(self, "prime", prime)
        _set(self, "rows", rows)

    @property
    def all_match(self):
        return all(r.match for r in self.rows)

    def to_json_dict(self):
        return {"scene": self.scene, "B": self.b_label,
                "prime": self.prime,
                "rows": [r.to_json_dict() for r in self.rows],
                "all_match": self.all_match}


def recover_embedding_check(scene, b_label, prime) -> RecoveryReport:
    """The recovery rows of `torelli_check` at one prime, at every
    enumerated image point, without validating or scanning first: a
    point whose cokernel is not one-dimensional is an unmatched row, as
    in `torelli_check`."""
    pres = tautological_presentation(scene, b_label, GF(prime))
    rows = _recovery_rows(scene, b_label, pres,
                          scene.enumerate_points(prime).records)
    return RecoveryReport(scene.name, scene.label_str(b_label), prime, rows)


# ---- scroll members ----------------------------------------------------------


def scroll_invariance(scene_x, scene_y, n=1, field=QQ) -> bool:
    """Whether two members of one linear system on one scroll yield
    byte-identical presentations for B = K + nA."""
    if scene_x.kind != "scroll_curve" or scene_y.kind != "scroll_curve":
        raise ClassMismatch("both scenes must be scroll members")
    sig_x = (scene_x.a, scene_x.b, scene_x.d, scene_x.e)
    sig_y = (scene_y.a, scene_y.b, scene_y.d, scene_y.e)
    if sig_x != sig_y:
        raise ClassMismatch(
            f"scroll classes differ: {sig_x} vs {sig_y}")
    b_label = scene_x.label_add(
        scene_x.canonical_label(),
        scene_x.label_scale(scene_x.label_A(), n))
    px = tautological_presentation(scene_x, b_label, field)
    py = tautological_presentation(scene_y, b_label, field)
    return px.tensor == py.tensor


# ---- point sets: the Dolgachev-Kapranov style bundle --------------------------


def dk_presentation(points, field) -> SteinerPresentation:
    """Presentation whose unstable locus should recover a general point
    set.

    With d points in general position in P^r, U1 and U0 are the duals of
    the cokernels of evaluating linear forms, resp. constants, at the
    fixed representatives; V acts by the transposed diagonal action.
    U1 is the space of linear relations among the representatives, read
    off the point set's normal form [I | A] as its canonical basis
    (-A_j, e_j), which the general position check has already made.
    d = r + 1 is allowed but the bundle degenerates to a trivial one
    (U1 = 0), which is reported as a warning, not an error.
    """
    points.require_general_position(field)
    r = points.r
    d = points.count
    if d == r + 1:
        warnings.warn(
            "d = r+1 points give U1 = 0: the presentation is degenerate "
            "and every hyperplane is unstable", RuntimeWarning,
            stacklevel=2)
    reps = tuple(tuple(field.normalize(c) for c in row)
                 for row in points.points)
    # the quotients of F^d by the values at the points of linear forms,
    # and of constants: the all-ones row, of pivot 0 and complement 1..d-1
    quot1 = points.normal_form(field)
    a, m, b = quot1.nullity, r + 1, d - 1
    # mult by x_j maps the quotient by constants to the quotient by
    # linears; column i*m + j of mu is row i of that map, transposed
    tensor = Matrix(field, b, a * m, tuple(
        tuple(reps[c][j] * vec[c] for vec in quot1.kernel for j in range(m))
        for c in range(1, d)))
    return SteinerPresentation(tensor, a, m, b, f"dk({points.name})")


class DKPrimeResult(PrimeComparison):
    __slots__ = ("rnc_flag", "implication_ok")
    _fields = PrimeComparison._fields + __slots__

    def __init__(self, prime, verdict, scanned=0, unstable_count=0,
                 image_count=0, extra=(), missing=(), error=None,
                 rnc_flag=False, implication_ok=True):
        super().__init__(prime, verdict, scanned, unstable_count,
                         image_count, extra, missing, error)
        _set(self, "rnc_flag", rnc_flag)
        _set(self, "implication_ok", implication_ok)

    def to_json_dict(self):
        return self._json("point_count", rnc_flag=self.rnc_flag,
                          implication_ok=self.implication_ok)


class DKReport(Record):
    __slots__ = _fields = ("points", "primes", "results", "consensus",
                           "bad_primes")

    def __init__(self, points, primes, results, consensus, bad_primes):
        _set(self, "points", points)
        _set(self, "primes", primes)
        _set(self, "results", results)
        _set(self, "consensus", consensus)
        _set(self, "bad_primes", bad_primes)

    def to_json_dict(self):
        return {"points": self.points, "primes": list(self.primes),
                "results": [r.to_json_dict() for r in self.results],
                "consensus": self.consensus,
                "bad_primes": list(self.bad_primes)}


def dk_check(points, primes=PRIMES_DEFAULT) -> DKReport:
    """Scan the point-set presentation prime by prime.  The point set
    itself always sits inside the unstable locus; a SUPERSET verdict is
    expected to coincide with the points lying on a rational normal
    curve, and that implication is re-checked per prime.  Points not in
    general position over QQ, and a modulus that is not prime, are
    refused before any prime is tried."""
    points.require_general_position(QQ)
    results = []
    for field in [GF(p) for p in primes]:
        comparison, pres, _ = _compare_prime(
            points, field, lambda field: dk_presentation(points, field))
        rnc = pres is not None and green_points_test(points, field).on_rnc
        c = comparison
        results.append(DKPrimeResult(
            c.prime, c.verdict, c.scanned, c.unstable_count, c.image_count,
            c.extra, c.missing, c.error, rnc_flag=rnc,
            implication_ok=c.verdict != "SUPERSET" or rnc))
    consensus, bad = _consensus([(r.prime, r.verdict) for r in results])
    return DKReport(points.name, tuple(primes), tuple(results),
                    consensus, bad)


# ---- seeded generic configurations ---------------------------------------------


def random_point_set(count, prime, seed, r=3, max_tries=1024):
    """Seeded point sets with a recorded genericity certificate.

    Draws ``count`` distinct canonical representatives of P^r(F_p) and
    retries with consecutive seeds until the draw certifies as generic:
    linear general position always, and additionally lying on no
    rational normal curve (K_{r-2,2} = 0) once count >= r+4.  Small
    fields make accidental incidences common, so the seed that finally
    certified is returned alongside the points and should be quoted in
    any report built from them.
    """
    field = GF(prime)
    if count < r + 1:
        raise NotGeneralPosition(
            f"need at least r+1 = {r + 1} points, got {count}")
    total = projective_count(prime, r + 1)
    if count > total:
        raise NotGeneralPosition(
            f"P^{r}(F_{prime}) has only {total} points, "
            f"cannot draw {count}")
    for attempt in range(max_tries):
        used = seed + attempt
        rng = random.Random(used)
        rows = [projective_unrank(prime, r + 1, i)
                for i in rng.sample(range(total), count)]
        points = PointSet(
            r, rows, name=f"random(d={count}, p={prime}, seed={used})")
        if not points.in_general_position(field):
            continue
        if count >= r + 4 and green_points_test(points, field).on_rnc:
            continue
        return points, used
    raise NotGeneralPosition(
        f"no certified configuration within {max_tries} seeds from {seed}")
