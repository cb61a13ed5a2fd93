"""The value-class contract of `errors.Record`, checked on every record
class of the library against a frozen dataclass with the same fields."""

import dataclasses
import importlib
import pkgutil

import pytest
from conftest import replace

import diagflag
from diagflag.diagembed import (
    DiagonalEmbedding,
    EquivarianceReport,
    oracle_sweep,
    picard_pullback,
)
from diagflag.egraph import EGraph, SurjectionAlpha, build_from_alpha
from diagflag.errors import DomainError, Record, ValidationReport
from diagflag.flagcore import Classification, FlagType
from diagflag.indlimit import (
    ConstantTail,
    GeneralizedFlagType,
    GeometricTail,
    Unknown,
    admissible,
    build_realization_sn_graph,
    canonical_exhaustion,
    factor_linear_egraph,
)
from diagflag.ratlin import Flag, RatSubspace, stabilizer_oracle
from diagflag.supernat import INF, ExhaustionSpec, SupernaturalNumber

SN2 = SupernaturalNumber.from_factors({2: INF})
MIXED = EGraph(3, 4, 2, frozenset({(1, 1, 1), (2, 3, 1), (3, 4, 1), (2, 2, 2), (3, 3, 2)}))
LEVEL = EGraph(3, 3, 2, frozenset({(1, 1, 1), (3, 2, 1), (2, 2, 2), (3, 3, 2)}))


def samples() -> list:
    """Two values of every record class, each pair differing in a field."""
    flag = Flag(3, (RatSubspace.span(3, [[1, 1, 0]]),))
    line_gft = GeneralizedFlagType((1,), None, True, ordered_presentation=(1, INF))
    realizations = [
        build_realization_sn_graph(line_gft, SN2, ExhaustionSpec(2, (2,)), levels=levels)
        for levels in (2, 3)
    ]
    admitted = [
        admissible(GeneralizedFlagType((5, 7), None, True), SN2),
        admissible(GeneralizedFlagType((), GeometricTail(1, 2), False), SN2),
    ]
    refuted = [
        admissible(GeneralizedFlagType((), ConstantTail(v), True), SN2) for v in (1, 3)
    ]
    steps = canonical_exhaustion([1, 2, 1, 2, 2], 2, 4)
    return [
        ValidationReport(),
        ValidationReport(("a clause",)),
        RatSubspace.zero(2),
        RatSubspace.span(2, [[1, 2]]),
        flag,
        flag.dual(),
        stabilizer_oracle(Flag(4, (RatSubspace.span(4, [[1, 1, 0, 0]]),)), 2),
        stabilizer_oracle(Flag(4, ()), 2),
        FlagType(3, (1, 2)),
        FlagType(3, (1,)),
        picard_pullback(DiagonalEmbedding(MIXED, FlagType(3, (1, 2)))),
        picard_pullback(DiagonalEmbedding(LEVEL, FlagType(3, (1, 2)))),
        steps[1][1],
        replace(steps[1][1], dualized=True),
        Classification(None),
        Classification(steps[0][1]),
        MIXED,
        LEVEL,
        SurjectionAlpha.of([1, 2, 2, 3]),
        SurjectionAlpha.of([1, 2]),
        build_from_alpha(SurjectionAlpha.of([1, 2, 2, 3]), 2),
        build_from_alpha(SurjectionAlpha.of([1, 1, 2, 2]), 2),
        build_from_alpha(SurjectionAlpha.of([1, 2, 2, 1]), 2),
        build_from_alpha(SurjectionAlpha.of([1, 3, 2, 2, 3, 1]), 2),
        DiagonalEmbedding(MIXED, FlagType(3, (1, 2))),
        DiagonalEmbedding(LEVEL, FlagType(4, (1, 3))),
        EquivarianceReport(3, ()),
        EquivarianceReport(3, (1,)),
        oracle_sweep(3, {2}),
        oracle_sweep(4, {2}),
        GeometricTail(1, 2),
        GeometricTail(3, 2),
        ConstantTail(1),
        ConstantTail(2),
        line_gft,
        GeneralizedFlagType((1,), GeometricTail(1, 2), False),
        *(r.sn_graph for r in realizations),
        *realizations,
        *(a.certificate for a in admitted),
        *admitted,
        *(r.proof for r in refuted),
        *refuted,
        Unknown(3),
        Unknown(4),
        *factor_linear_egraph(LEVEL),
        SN2,
        SupernaturalNumber.from_factors({3: INF}),
        ExhaustionSpec(2, (2,)),
        ExhaustionSpec(1, (2, 3)),
    ]


SAMPLES = samples()


def record_classes() -> set:
    for info in pkgutil.iter_modules(diagflag.__path__):
        importlib.import_module(f"diagflag.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("diagflag."):
                found.add(sub)
            todo.append(sub)
    return found


def fields(obj) -> tuple:
    return tuple(type(obj).__annotations__)


def values(obj) -> tuple:
    return tuple(getattr(obj, f) for f in fields(obj))


def reference(obj):
    """A frozen dataclass instance with the same class name and fields."""
    cls = dataclasses.make_dataclass(type(obj).__qualname__, fields(obj), frozen=True)
    return cls(*values(obj))


def ids(objs):
    return [f"{type(o).__name__}-{i}" for i, o in enumerate(objs)]


def test_every_record_class_has_two_samples():
    classes = [type(o) for o in SAMPLES]
    assert set(classes) == record_classes()
    assert len(record_classes()) == 28
    assert all(classes.count(c) == 2 for c in classes)


@pytest.mark.parametrize("obj", SAMPLES, ids=ids(SAMPLES))
def test_records_are_frozen(obj):
    for name in fields(obj):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert not hasattr(obj, "not_a_field")


@pytest.mark.parametrize("obj", SAMPLES, ids=ids(SAMPLES))
def test_repr_eq_and_hash_are_the_dataclass_ones(obj):
    ref = reference(obj)
    assert repr(obj) == repr(ref)
    assert hash(obj) == hash(ref) == hash(values(obj))
    twin = replace(obj) if not isinstance(obj, RatSubspace) else RatSubspace.span(obj.ambient, obj.rows)
    assert twin is not obj and twin == obj and not twin != obj and hash(twin) == hash(obj)
    # Another class never compares equal, even with the same fields and values.
    twin_class = type(type(obj).__name__, (Record,), {"__annotations__": type(obj).__annotations__})
    stranger = twin_class(*values(obj))
    assert repr(stranger) == repr(obj) and hash(stranger) == hash(obj)
    for other in (ref, values(obj), stranger):
        assert obj != other and not obj == other
    assert obj.__eq__(ref) is NotImplemented


def test_equality_is_field_tuple_equality_across_all_samples():
    for a in SAMPLES:
        for b in SAMPLES:
            same = type(a) is type(b) and values(a) == values(b)
            assert (a == b) == same and (a != b) == (not same)
            assert a is b or not same


RECORDS = [o for o in SAMPLES if not isinstance(o, RatSubspace)]


@pytest.mark.parametrize("obj", RECORDS, ids=ids(RECORDS))
def test_positional_keyword_and_default_construction(obj):
    cls, names, vals = type(obj), fields(obj), values(obj)
    assert cls(*vals) == obj
    assert cls(**dict(zip(names, vals))) == obj
    assert cls(*vals[:1], **dict(zip(names[1:], vals[1:]))) == obj
    defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
    required = [n for n in names if n not in defaults]
    given = {n: v for n, v in zip(names, vals) if n in required}
    built = cls(**given)
    assert all(getattr(built, n) == v for n, v in defaults.items())
    assert {n: getattr(built, n) for n in required} == given


@pytest.mark.parametrize("obj", RECORDS, ids=ids(RECORDS))
def test_bad_calls_raise_type_error(obj):
    cls, names, vals = type(obj), fields(obj), values(obj)
    kwargs = dict(zip(names, vals))
    required = [n for n in names if not hasattr(cls, n)]
    for name in required:
        with pytest.raises(TypeError, match=f"missing .*'{name}'"):
            cls(**{n: v for n, v in kwargs.items() if n != name})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*vals, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*vals, **{names[0]: vals[0]})
    with pytest.raises(TypeError, match="arguments"):
        cls(*vals, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        replace(obj, bogus=1)


def test_replace_reruns_post_init():
    ft = FlagType(3, (1, 2))
    assert replace(ft, dims=(1,)) == FlagType(3, (1,))
    with pytest.raises(DomainError, match="member dimensions"):
        replace(ft, dims=(2, 1))
    with pytest.raises(DomainError, match="ambient dimension must be positive"):
        replace(ft, ambient=0, dims=())
    se = next(data for _, data in canonical_exhaustion([1, 2, 1, 2, 2], 2, 4) if data.int_epsilon)
    scaled = replace(
        se,
        int_epsilon=tuple(tuple(6 * x for x in row) for row in se.int_epsilon),
        denominator=6 * se.denominator,
    )
    assert scaled == se
    assert (scaled.int_epsilon, scaled.denominator) == (se.int_epsilon, se.denominator)
    flipped = replace(se, dualized=not se.dualized)
    assert flipped != se and replace(flipped, dualized=se.dualized) == se
    with pytest.raises(DomainError, match="geometric tail needs"):
        replace(GeometricTail(1, 2), ratio=1)
    with pytest.raises(DomainError, match="source type must have 2 members"):
        replace(DiagonalEmbedding(MIXED, FlagType(3, (1, 2))), source_type=FlagType(3, (1,)))


def test_post_init_is_looked_up_at_each_construction(monkeypatch):
    calls = []
    monkeypatch.setattr(DiagonalEmbedding, "__post_init__", lambda self: calls.append(self))
    emb = DiagonalEmbedding(MIXED, FlagType(3, (1,)))  # invalid, but the check is replaced
    assert calls == [emb]


def test_cached_properties_are_computed_once_and_kept_out_of_equality():
    emb = DiagonalEmbedding(MIXED, FlagType(3, (1, 2)))
    first = emb.target_type
    assert emb.target_type is first and emb.__dict__["target_type"] is first
    assert emb == DiagonalEmbedding(MIXED, FlagType(3, (1, 2)))
    assert hash(emb) == hash((MIXED, FlagType(3, (1, 2))))
