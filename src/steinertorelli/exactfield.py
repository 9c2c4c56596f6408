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
import itertools
import sys
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
    names = method.__code__.co_varnames[1:nargs + 1]
    defaults = method.__defaults__ or ()
    optional = dict(zip(names[nargs - len(defaults):], defaults))

    def key(obj, args, kwargs):
        missing = nargs - len(args)
        if not kwargs and 0 <= missing <= len(defaults):
            return args + defaults[len(defaults) - missing:]
        # bound as Python binds the call: a surplus argument, an unknown
        # or repeated keyword and a missing argument are TypeErrors
        if missing < 0:
            raise TypeError(f"{method.__qualname__}() takes {nargs} "
                            f"arguments but {len(args)} were given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{method.__qualname__}() got an unexpected "
                                f"keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{method.__qualname__}() got multiple "
                                f"values for argument {name!r}")
            given[name] = value
        given = {**optional, **given}
        if len(given) < nargs:
            raise TypeError(f"{method.__qualname__}() is missing "
                            f"{nargs - len(given)} argument(s)")
        return tuple([given[name] for name in names])

    def values(obj):
        # an attribute, set past the record's refusing __setattr__: going
        # through the instance's __dict__ would slow every other attribute
        # read on it
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


# a record's __init__ sets each field through object's own __setattr__,
# since the record's refuses every assignment
_set = object.__setattr__


class Record:
    """An immutable value record.  A subclass names its fields in
    `_fields`, in the order of its __init__ (inherited fields first), and
    sets each one there with `_set`.  Two records are equal when they are
    of one class and their fields are equal, the hash is that of the field
    tuple, the repr reads `Name(field=value, ...)`, and assigning or
    deleting an attribute raises AttributeError, as for a frozen
    dataclass."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Matrix(Record):
    """Immutable dense matrix; entries is a tuple of row tuples."""

    __slots__ = _fields = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, nrows, ncols, entries):
        _set(self, "field", field)
        _set(self, "nrows", nrows)
        _set(self, "ncols", ncols)
        _set(self, "entries", entries)
        self.__post_init__()

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
        _set(self, "entries", tuple(norm))

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


def roots(coeffs, p):
    """The distinct roots in F_p, ascending, of the polynomial whose
    coefficients mod p `coeffs` lists from the leading one down; every
    point of F_p when it is zero.

    Cost rule: degree 1 is one inverse, and degree 2 with p odd is one
    Euler criterion on the discriminant and, when it is a nonzero square,
    one square root: a single power when p = 3 mod 4, else Tonelli-Shanks
    from the least non-residue.  Every other polynomial, of degree 3 or
    more or over F_2, is evaluated at every point of F_p by Horner, p
    steps per coefficient.
    """
    coeffs = [c % p for c in coeffs]
    while coeffs and not coeffs[0]:
        del coeffs[0]
    if len(coeffs) < 2:
        return [] if coeffs else list(range(p))
    if len(coeffs) == 2:
        return [-coeffs[1] * pow(coeffs[0], p - 2, p) % p]
    if len(coeffs) == 3 and p > 2:
        a, b, c = coeffs
        disc = (b * b - 4 * a * c) % p
        if disc and pow(disc, (p - 1) // 2, p) != 1:
            return []
        half = pow(2 * a, p - 2, p)
        s = _sqrt(disc, p)
        return sorted({(-b - s) * half % p, (s - b) * half % p})
    points = range(p)
    values = [0] * p
    for c in coeffs:
        values = [(v * t + c) % p for v, t in zip(values, points)]
    return [t for t, v in enumerate(values) if not v]


def _sqrt(a, p):
    """A square root of the square a mod an odd prime p."""
    if p % 4 == 3 or not a:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks: p - 1 = q 2^s with q odd, z the least non-residue
    q, s = p - 1, 0
    while not q % 2:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, x, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        # x^2 = a t throughout; t has order 2^i, and multiplying x by b
        # and t by b^2 leaves it an order below 2^i
        i, u = 1, t * t % p
        while u != 1:
            i, u = i + 1, u * u % p
        b = pow(c, 1 << (s - i - 1), p)
        c = b * b % p
        x, t, s = x * b % p, t * c % p, i
    return x


# test oracle kept while benchmark/layertrace.py wraps it (ROADMAP item 1)
class Echelon(Record):
    """Reduced row echelon data: `rows` are the rank many nonzero rows."""

    __slots__ = _fields = ("rows", "pivots")

    def __init__(self, rows, pivots):
        _set(self, "rows", rows)
        _set(self, "pivots", pivots)

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


class KernelData(Record):
    """Pivots and canonical kernel basis of one row reduction.  Each
    kernel vector has entry 1 at its own free coordinate and 0 at every
    other free coordinate, so coordinates of any kernel element in this
    basis can be read off at the free positions; read as rows, the basis
    maps ambient coordinates to coordinates of the quotient by the row
    span, and a vector lies in the span iff it maps to zero."""

    __slots__ = _fields = ("kernel", "pivots")

    def __init__(self, kernel, pivots):
        _set(self, "kernel", kernel)    # canonical kernel vectors, ncols long
        _set(self, "pivots", pivots)

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
