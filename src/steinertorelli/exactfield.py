"""Exact dense linear algebra over prime fields and the rationals.

No floating point anywhere: prime field elements are canonical ints in
[0, p), rational scalars are Fractions in lowest terms.  Every question the
rest of the package asks eventually becomes a rank / kernel computation
here, so kernels come out in a fixed reduced-echelon canonical form (each
basis vector carries a leading 1 in a distinct non-pivot coordinate) and
identical inputs always produce identical output.

Arithmetic convention: the field classes do no arithmetic.  Inside the
package, linear data travels as lists of canonical row lists: callers
combine canonical entries with Python's own operators and canonicalize
the result once, with one `field.normalize` per scalar they produce, and
`span_reduction` takes such rows to their pivots and kernel.  `Matrix` is
the public boundary: it is built only where a public function returns
one, and its constructor normalizes every entry and checks the shape, as
outside input needs.  Accumulators start from the shared `field.zero`,
so over QQ an untouched entry is that one Fraction rather than an int.

Elimination over QQ does no Fraction arithmetic: `eliminate` scales each
row to coprime integers and eliminates fraction-free.  Only the finished
pivot rows of a full reduction become Fractions again, as the unique
reduced echelon rows; a rank-only reduction (full=False) leaves integer
rows.  Whatever this module returns over QQ is still Fractions in lowest
terms.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import attrgetter, mul

from .errors import BadPrime, FieldMismatch, NonPrimeModulus, ShapeMismatch

_MAX_MODULUS = 1 << 31


def _is_prime(n: int) -> bool:
    # trial division; PrimeField bounds n by _MAX_MODULUS, so at most
    # isqrt(2**31) ~ 46,341 divisions, once per prime through the GF cache
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


class PrimeField:
    """F_p with canonical representatives 0 <= x < p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise NonPrimeModulus(f"modulus must be an int, got {p!r}")
        if not 2 <= p < _MAX_MODULUS or not _is_prime(p):
            raise NonPrimeModulus(f"modulus {p} is not a prime below 2**31")
        self.p = p

    characteristic = property(lambda self: self.p)
    zero = 0
    one = 1

    def normalize(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, int) and not isinstance(x, bool):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise BadPrime(
                    f"denominator of {x} is divisible by {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        raise FieldMismatch(f"cannot coerce {x!r} into GF({self.p})")

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """Exact rationals via Fraction; canonical form is built in."""

    __slots__ = ()

    characteristic = property(lambda self: 0)
    zero = Fraction(0)
    one = Fraction(1)

    def normalize(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise FieldMismatch(f"cannot coerce {x!r} into QQ")

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in QQ")
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@functools.cache
def GF(p: int) -> PrimeField:
    return PrimeField(p)


_MISSING = object()


def kept(method):
    """Keep the value of `method` per instance, keyed by its arguments
    taken as positional ones with the defaults filled in, so `f(x)`,
    `f(x, d)` and `f(x, name=d)`, d the default, share one value.  A body
    that raises keeps nothing, so a refused input, such as a bad prime,
    is refused on every call.  Values live on the instance as long as it
    does; `method.seed(obj, *args, value=v)` keeps v at `args` without
    running the body.  This is the package's one per-instance cache."""
    slot = sys.intern(f"_kept_{method.__qualname__}")
    nargs = method.__code__.co_argcount - 1
    defaults = method.__defaults__ or ()

    def key(obj, args, kwargs):
        missing = nargs - len(args)
        if not kwargs and 0 <= missing <= len(defaults):
            return args + defaults[len(defaults) - missing:]
        bound = inspect.signature(method).bind(obj, *args, **kwargs)
        bound.apply_defaults()
        return bound.args[1:]

    def values(obj):
        # an attribute, set as frozen dataclasses allow: going through the
        # instance's __dict__ would slow every other attribute read on it
        got = getattr(obj, slot, None)
        if got is None:
            got = {}
            object.__setattr__(obj, slot, got)
        return got

    @functools.wraps(method)
    def wrapper(obj, *args, **kwargs):
        if kwargs or len(args) != nargs:
            args = key(obj, args, kwargs)
        table = getattr(obj, slot, None) or values(obj)
        got = table.get(args, _MISSING)
        if got is _MISSING:
            got = table[args] = method(obj, *args)
        return got

    def seed(obj, *args, value):
        values(obj)[key(obj, args, {})] = value

    wrapper.seed = seed
    return wrapper


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; entries is a tuple of row tuples."""

    field: object
    nrows: int
    ncols: int
    entries: tuple

    def __post_init__(self):
        normalize = self.field.normalize
        if len(self.entries) != self.nrows:
            raise ShapeMismatch(
                f"expected {self.nrows} rows, got {len(self.entries)}")
        norm = []
        for row in self.entries:
            if len(row) != self.ncols:
                raise ShapeMismatch(
                    f"expected {self.ncols} cols, got {len(row)}")
            norm.append(tuple(map(normalize, row)))
        object.__setattr__(self, "entries", tuple(norm))

    # -- basic operations ---------------------------------------------

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def transpose(self):
        return Matrix(self.field, self.ncols, self.nrows, self.columns())

    def mul(self, other):
        self._check_field(other)
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} "
                f"by {other.nrows}x{other.ncols}")
        zero = self.field.zero
        return Matrix(self.field, self.nrows, other.ncols, tuple(
            tuple(sum(map(mul, row, col), zero) for col in other.columns())
            for row in self.entries))

    def columns(self):
        return tuple(zip(*self.entries)) if self.nrows else \
            ((),) * self.ncols

    def is_zero(self):
        return not any(map(any, self.entries))


# -- reduction -----------------------------------------------------------


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _primitive(vals):
    """The integers `vals` divided by their content (their gcd)."""
    g = gcd(*vals)
    return [x // g for x in vals] if g > 1 else vals


def eliminate(work, ncols, p, full=True):
    """Gauss-Jordan elimination of the row lists `work`, in place.

    Entries are canonical residues mod p, or Fractions when p is 0.  The
    pivot rows end up first; the pivot columns are returned, so their
    count is the rank.  With full=False only the entries below each pivot
    are cleared, which is all a rank needs.

    Mod p each pivot row is scaled to a leading 1 when it is chosen.  Over
    QQ the rows are first scaled to coprime integers and eliminated
    fraction-free: a target row with entry f under the pivot `lead`
    becomes (lead/g)*target - (f/g)*pivot_row, g = gcd(lead, f), divided
    by its content.  Only the finished pivot rows become Fractions again,
    with full=True: divided by their leads they are the unique reduced
    echelon rows, and the rows after them become zero Fractions.  With
    full=False the rows are left as integer rows.
    """
    nrows = len(work)
    if not p:
        for row in work:
            den = lcm(*map(_denominator, row))
            ints = ([x.numerator * (den // x.denominator) for x in row]
                    if den > 1 else list(map(_numerator, row)))
            row[:] = _primitive(ints)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = None
        for i in range(r, nrows):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        row = work[r]
        if p:
            inv = pow(row[c], p - 2, p)
            for j in range(c, ncols):
                row[j] = row[j] * inv % p
        else:
            # a full reduction rescales the rows above the pivot, so it
            # updates whole rows; the rows below are zero before column c
            lead, s = row[c], 0 if full else c
        for i in range(0 if full else r + 1, nrows):
            f = work[i][c]
            if f and i != r:
                tgt = work[i]
                if p:
                    for j in range(c, ncols):
                        tgt[j] = (tgt[j] - f * row[j]) % p
                else:
                    g = gcd(lead, f)
                    a, b = lead // g, f // g
                    tgt[s:] = _primitive([a * x - b * y for x, y in
                                          zip(tgt[s:], row[s:])])
        pivots.append(c)
        r += 1
    if full and not p:
        zero = QQ.zero
        for row, c in zip(work, pivots):
            lead = row[c]
            row[:] = [Fraction(x, lead) if x else zero for x in row]
        for row in work[r:]:
            row[:] = [zero] * ncols
    return pivots


# test oracle kept while benchmark/layertrace.py wraps it (ROADMAP item 1)
@dataclass(frozen=True)
class Echelon:
    """Reduced row echelon data: `rows` are the rank many nonzero rows."""

    rows: tuple
    pivots: tuple

    @property
    def rank(self):
        return len(self.pivots)


def rref(m: Matrix) -> Echelon:
    work = [list(row) for row in m.entries]
    pivots = eliminate(work, m.ncols, m.field.characteristic)
    return Echelon(tuple(tuple(row) for row in work[:len(pivots)]),
                   tuple(pivots))


def rank(m: Matrix) -> int:
    work = [list(row) for row in m.entries]
    return len(eliminate(work, m.ncols, m.field.characteristic, full=False))


@dataclass(frozen=True)
class KernelData:
    """Pivots and canonical kernel basis of one row reduction.  Each
    kernel vector has entry 1 at its own free coordinate and 0 at every
    other free coordinate, so coordinates of any kernel element in this
    basis can be read off at the free positions; read as rows, the basis
    maps ambient coordinates to coordinates of the quotient by the row
    span, and a vector lies in the span iff it maps to zero."""

    kernel: tuple       # tuple of canonical kernel vectors (length ncols)
    pivots: tuple

    @property
    def rank(self):
        return len(self.pivots)

    @property
    def nullity(self):
        return len(self.kernel)

    @property
    def complement(self):
        """The free (non-pivot) coordinates, one per kernel vector; a
        basis of the quotient by the row span."""
        pivots = set(self.pivots)
        return tuple(j for j in range(self.rank + self.nullity)
                     if j not in pivots)


def span_reduction(rows, ncols, field) -> KernelData:
    """Pivots and canonical kernel basis of the canonical row lists `rows`,
    each of length `ncols`, acting on column vectors."""
    work = [list(row) for row in rows]
    pivots = eliminate(work, ncols, field.characteristic)
    return KernelData(kernel_basis(work, pivots, ncols, field),
                      tuple(pivots))


def rank_kernel(m: Matrix) -> KernelData:
    """The span_reduction of the rows of M."""
    return span_reduction(m.entries, m.ncols, m.field)


def kernel_basis(rows, pivots, ncols, field):
    """The canonical kernel basis of span_reduction, read off the reduced
    echelon `rows` and their `pivots`.  Mod p the rows are residues, as
    `eliminate` leaves them, so an entry is one `%`."""
    p = field.characteristic
    pivotset = set(pivots)
    basis = []
    for f in range(ncols):
        if f not in pivotset:
            v = [field.zero] * ncols
            v[f] = field.one
            for row, pc in zip(rows, pivots):
                v[pc] = -row[f] % p if p else field.normalize(-row[f])
            basis.append(tuple(v))
    return tuple(basis)


def left_kernel(m: Matrix) -> KernelData:
    return rank_kernel(m.transpose())


# -- projective enumeration ----------------------------------------------


def projective_count(p: int, m: int) -> int:
    return (p ** m - 1) // (p - 1)


def projective_reps(p: int, m: int):
    """Canonical representatives of P(F_p^m): first nonzero coordinate 1,
    listed in ascending lexicographic order."""
    for lead in range(m - 1, -1, -1):
        for tail in itertools.product(range(p), repeat=m - 1 - lead):
            yield (0,) * lead + (1,) + tail


def projective_unrank(p: int, m: int, index: int):
    """The representative at position `index` of projective_reps(p, m)."""
    tail = 0
    while index >= p ** tail:
        index -= p ** tail
        tail += 1
    digits = []
    for _ in range(tail):
        index, d = divmod(index, p)
        digits.append(d)
    return (0,) * (m - 1 - tail) + (1,) + tuple(reversed(digits))


def projective_rank(p: int, vec):
    """The position of the canonical representative `vec` in
    projective_reps(p, len(vec)); the inverse of projective_unrank."""
    tail = vec[vec.index(1) + 1:]
    index = 0
    for d in tail:
        index = index * p + d
    return projective_count(p, len(tail)) + index


def normalize_projective(field, vec):
    """Scale so the first nonzero coordinate is 1.  None for the zero
    vector.  Mod p the entries are canonical after the first pass, so
    the scaled ones need only `% p`."""
    normalize = field.normalize
    vec = [normalize(x) for x in vec]
    for x in vec:
        if x:
            inv = field.inv(x)
            p = field.characteristic
            if p:
                return tuple([inv * y % p for y in vec])
            return tuple([normalize(inv * y) for y in vec])
    return None
