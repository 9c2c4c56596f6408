"""The package's records keep the semantics of the frozen dataclasses they
replace.  Each record is compared with a `@dataclass(frozen=True)` twin
built here from the fields that dataclass declared: the constructor's
parameters and defaults, equality and hash, the repr text, and refused
assignment and deletion."""

import dataclasses
import inspect

import pytest

from steinertorelli import (exactfield, koszul, polyalg, scenes, steiner,
                            torelli)
from steinertorelli.exactfield import GF, Record

MODULES = (exactfield, koszul, polyalg, scenes, steiner, torelli)

_COMPARISON = ["prime", "verdict", ("scanned", 0), ("unstable_count", 0),
               ("image_count", 0), ("extra", ()), ("missing", ()),
               ("error", None)]

# each record's fields as its dataclass declared them: a name, or
# (name, default), or (name, default, compare) for a field left out of
# equality, hash and repr
DECLARED = {
    exactfield.Matrix: ["field", "nrows", "ncols", "entries"],
    exactfield.Echelon: ["rows", "pivots"],
    exactfield.KernelData: ["kernel", "pivots"],
    polyalg.QuotientPiece: ["degree", "monomials", "reduction"],
    scenes.PointRecord: ["prime", "params", "phi", ("smooth_ok", None)],
    scenes.PointEnumeration: ["prime", "records", "smooth_checked"],
    steiner.ValidationReport: ["prime", "valid", "fibers_scanned",
                               "witness"],
    steiner.VallesReport: ["prime", "scanned", "unstable"],
    koszul.GradedModuleWindow: ["field", "dim_u", "lo", "hi", "dims",
                                "mults", ("pairs", None, False)],
    koszul.KoszulGroupDim: ["p", "q", "dim", "rank_in", "rank_out",
                            "middle"],
    koszul.DualityReport: ["p", "q", "lhs_dim", "rhs_dim", "rhs_p", "rhs_q",
                           "hypotheses_ok"],
    koszul.GreenReport: ["p", "dim", "degree", "degree_bound_ok",
                         "verdict"],
    koszul.GreenPointsReport: ["count", "r", "dim", "on_rnc", "ideal_dims"],
    torelli.RecoveryRow: ["params", "expected", "recovered", "match"],
    torelli.PrimeComparison: _COMPARISON,
    torelli.PrimeResult: _COMPARISON + [("recovery", ())],
    torelli.TorelliReport: ["scene", "b_label", "primes", "results",
                            "consensus", "bad_primes"],
    torelli.RecoveryReport: ["scene", "b_label", "prime", "rows"],
    torelli.DKPrimeResult: _COMPARISON + [("rnc_flag", False),
                                          ("implication_ok", True)],
    torelli.DKReport: ["points", "primes", "results", "consensus",
                       "bad_primes"],
}

# two Matrix argument lists that differ in field and entries: a shape
# changed alone no longer fits the rows
MATRIX_VALUES = ((GF(5), 1, 2, ((1, 2),)), (GF(7), 1, 2, ((3, 4),)))


def _spec(entry):
    name, *rest = (entry,) if isinstance(entry, str) else entry
    return name, rest


def twin(cls):
    """The frozen dataclass `cls` was declared as, named as it is."""
    fields = []
    for entry in DECLARED[cls]:
        name, rest = _spec(entry)
        if not rest:
            fields.append((name, object))
            continue
        compare = rest[1] if len(rest) > 1 else True
        fields.append((name, object, dataclasses.field(
            default=rest[0], compare=compare, repr=compare)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def values(cls, which):
    """Arguments for every field of `cls`; which = 0 and 1 differ in each
    field but a Matrix shape."""
    if cls is exactfield.Matrix:
        return MATRIX_VALUES[which]
    return tuple((name, which) for name, _ in map(_spec, DECLARED[cls]))


def _shape(signature):
    return [(p.name, p.kind, p.default)
            for p in signature.parameters.values()]


def test_every_record_has_a_twin():
    found = {obj for mod in MODULES for obj in vars(mod).values()
             if isinstance(obj, type) and issubclass(obj, Record)
             and obj is not Record}
    assert found == set(DECLARED)


@pytest.mark.parametrize("cls", DECLARED, ids=lambda cls: cls.__name__)
def test_constructor_takes_the_dataclass_arguments(cls):
    assert _shape(inspect.signature(cls)) == \
        _shape(inspect.signature(twin(cls)))


@pytest.mark.parametrize("cls", DECLARED, ids=lambda cls: cls.__name__)
def test_fields_repr_and_keywords_match_the_twin(cls):
    twin_cls, args = twin(cls), values(cls, 0)
    names = [_spec(entry)[0] for entry in DECLARED[cls]]
    rec, tw = cls(*args), twin_cls(*args)
    assert repr(rec) == repr(tw)
    assert [getattr(rec, n) for n in names] == \
        [getattr(tw, n) for n in names]
    by_name = cls(**dict(zip(names, args)))
    assert by_name == rec and hash(by_name) == hash(rec) == hash(tw)


@pytest.mark.parametrize("cls", DECLARED, ids=lambda cls: cls.__name__)
def test_equality_and_hash_follow_the_twin(cls):
    twin_cls, base, other = twin(cls), values(cls, 0), values(cls, 1)
    rec, tw = cls(*base), twin_cls(*base)
    assert rec != tw and tw != rec
    for i in range(len(base)):
        mixed = base[:i] + (other[i],) + base[i + 1:]
        changed, twin_changed = cls(*mixed), twin_cls(*mixed)
        assert (rec == changed) is (tw == twin_changed)
        assert (rec != changed) is (tw != twin_changed)
        assert hash(changed) == hash(twin_changed)
        assert repr(changed) == repr(twin_changed)


@pytest.mark.parametrize("cls", [torelli.PrimeComparison,
                                 torelli.PrimeResult, torelli.DKPrimeResult,
                                 scenes.PointRecord,
                                 koszul.GradedModuleWindow])
def test_defaults_match_the_twin(cls):
    required = [name for name, rest in map(_spec, DECLARED[cls])
                if not rest]
    args = values(cls, 0)[:len(required)]
    rec, tw = cls(*args), twin(cls)(*args)
    for name, _ in map(_spec, DECLARED[cls]):
        assert getattr(rec, name) == getattr(tw, name)
    assert repr(rec) == repr(tw)
    assert hash(rec) == hash(tw)


@pytest.mark.parametrize("cls", DECLARED, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    args = values(cls, 0)
    rec = cls(*args)
    for obj in (rec, twin(cls)(*args)):
        for name in [_spec(entry)[0] for entry in DECLARED[cls]] + ["new"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert repr(rec) == repr(cls(*args)) and not hasattr(rec, "new")


def test_window_pairs_are_not_compared():
    args = values(koszul.GradedModuleWindow, 0)[:6]
    left = koszul.GradedModuleWindow(*args, pairs=((1,),))
    right = koszul.GradedModuleWindow(*args, pairs=((2,),))
    assert left == right and hash(left) == hash(right)
    assert left.pairs != right.pairs
    assert "pairs" not in repr(left)


def test_records_of_different_classes_are_unequal():
    comparison = torelli.PrimeComparison(5, "EQUAL")
    result = torelli.PrimeResult(5, "EQUAL")
    assert comparison != result and result != comparison
    assert torelli.PrimeResult(5, "EQUAL") == result
    # equal field tuples do not make records of two classes equal, nor
    # their twins
    args = (((1, 0),), (0,))
    for make in (lambda cls: cls, twin):
        echelon = make(exactfield.Echelon)(*args)
        kernel = make(exactfield.KernelData)(*args)
        assert echelon != kernel and kernel != echelon
