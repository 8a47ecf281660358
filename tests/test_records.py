"""The record base against frozen dataclasses, its oracle.

For every ``Record`` subclass in the package a frozen dataclass with the
same name, fields, defaults and comparison flags is built with
``dataclasses.make_dataclass``.  On drawn field values the two agree on the
fields a call sets, ``==``, ``hash``, ``repr``, the exception on assigning
or deleting an attribute, and the ``TypeError`` for a missing or an unknown
argument.  The checks that some constructors make are pinned on their own.
"""

import copy
import dataclasses
import inspect
import pathlib
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvroots import cli, closures, ideals, pmv, roots, worked_examples  # noqa: F401  (load every record)
from pmvroots import ogroups as og
from pmvroots.errors import ParameterError
from pmvroots.records import Record
from pmvroots.scalars import QuadValue

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pmvroots"


def record_classes() -> list[type]:
    out, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("pmvroots."):
                out.append(sub)
            todo.append(sub)
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))


RECORDS = record_classes()
UNCOMPARED = {("SqrtMap", "mapping")}


def fields_of(cls) -> list[tuple[str, bool, object]]:
    """(name, has default, default) of each field.

    The names are the annotations of the class and its bases in definition
    order, as dataclasses reads them.  The defaults are the class-level
    values, or, for a class that writes its own ``__init__``, the defaults
    of its signature, whose parameters must be the fields in order."""
    out = {}
    for klass in reversed(cls.__mro__):
        slots = klass.__dict__.get("__slots__", ())
        for name in klass.__dict__.get("__annotations__", {}):
            has = name in klass.__dict__ and name not in slots
            out.setdefault(name, (has, klass.__dict__.get(name) if has else None))
    if cls.__init__ is not Record.__init__:
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        assert [p.name for p in params] == list(out), cls
        assert not any(has for has, _ in out.values()), cls  # one place for a default
        empty = inspect.Parameter.empty
        out = {p.name: (p.default is not empty, None if p.default is empty else p.default) for p in params}
    return [(name, has, default) for name, (has, default) in out.items()]


def oracle_of(cls) -> type:
    fields = []
    for name, has, default in fields_of(cls):
        compare = (cls.__name__, name) not in UNCOMPARED
        spec = dataclasses.field(default=default, compare=compare) if has else dataclasses.field(compare=compare)
        fields.append((name, object, spec))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


ORACLES = {cls: oracle_of(cls) for cls in RECORDS}


def test_every_frozen_value_of_the_package_is_a_record():
    names = {f"{c.__module__.removeprefix('pmvroots.')}.{c.__qualname__}" for c in RECORDS}
    assert names >= {
        "ogroups.ScaledInt", "ogroups.ScaledDyadic", "ogroups.Rationals", "ogroups.QuadLattice",
        "ogroups._Twisted", "ogroups.Twist3", "ogroups.Twist4", "ogroups.Lex", "ogroups.ProductGroup",
        "scalars.QuadValue", "pmv.GammaAlgebra", "pmv.Element",
        "closures.FactorClosure", "closures.ClosureDescriptor", "closures.OpenProblem",
        "closures.CritResult", "closures.RdpDecomposition",
        "roots.SqrtResult", "roots.SqrtMap", "roots.GreatestSqrtResult",
        "ideals.IdealInfo", "ideals.PrimePartition", "ideals.WSplit", "ideals.RootMapIdeals",
        "cli.Report", "worked_examples.CheckResult",
    }


def test_the_package_generates_no_code():
    for path in SRC.glob("*.py"):
        text = path.read_text()
        assert "@dataclass" not in text and "exec(" not in text and "eval(" not in text, path.name
        assert text.count("dataclasses") == (2 if path.name == "records.py" else 0), path.name


# ---------------------------------------------------------------------------
# drawn field values

ALPHAS = [QuadValue.make(-1, 1, 2), QuadValue.make(0, Fraction(1, 2), 3), QuadValue.make(Fraction(1, 2))]
DESCS = [og.ScaledInt(1), og.ScaledInt(6), og.ScaledDyadic(3), og.Rationals(), og.Twist3("Z"), og.Twist4("D"),
         og.QuadLattice(ALPHAS[0]), og.Lex(og.ScaledInt(1), og.Rationals())]
M2 = pmv.finite_mv_chain(2)
PLAIN = st.sampled_from([
    0, 1, -2, True, False, None, "a", "exists", Fraction(1, 3), Fraction(-5, 2), (), (1, 2), ("a",),
    frozenset(), frozenset({1, 2}), pmv.Element(M2, 1), pmv.GammaAlgebra(og.Rationals()), og.ScaledInt(2),
])
BY_NAME = {
    "n": st.integers(-1, 6),
    "q": st.integers(-1, 7),
    "tag": st.sampled_from("ZDQX"),
    "alpha": st.sampled_from(ALPHAS),
    "head": st.sampled_from(DESCS),
    "tail": st.sampled_from(DESCS),
    "desc": st.sampled_from(DESCS),
    "factors": st.lists(st.sampled_from(DESCS), max_size=3).map(tuple),
    "mapping": st.dictionaries(st.integers(0, 2), st.integers(0, 2), max_size=2),
    "payload": st.one_of(PLAIN, st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=2)),
}


def outcome(f, *args, **kwargs):
    """f's value, or the type and message of what it raised."""
    try:
        return "ok", f(*args, **kwargs)
    except Exception as exc:  # the two sides must raise alike
        return "raised", (type(exc), str(exc))


def same_outcome(a, b):
    assert (a[0], a[1] if a[0] == "raised" else None) == (b[0], b[1] if b[0] == "raised" else None)


@st.composite
def calls(draw, cls):
    """Positional and keyword arguments for cls; defaulted fields may be left out."""
    fields = fields_of(cls)
    values = [draw(BY_NAME.get(name, PLAIN)) for name, _, _ in fields]
    cut = draw(st.integers(0, len(fields)))
    kwargs = {}
    for (name, has, _), v in zip(fields[cut:], values[cut:]):
        if not (has and draw(st.booleans())):
            kwargs[name] = v
    return tuple(values[:cut]), kwargs


def build_pair(cls, call):
    """The record and its dataclass twin from one call, or None when the
    record's constructor rejects the values (the twin checks nothing)."""
    args, kwargs = call
    got = outcome(cls, *args, **kwargs)
    if got[0] == "raised":
        assert cls.__init__ is not Record.__init__ and got[1][0] in (ParameterError, TypeError, AttributeError)
        return None
    r, d = got[1], ORACLES[cls](*args, **kwargs)
    names = [n for n, _, _ in fields_of(cls)]
    assert [getattr(r, n) for n in names] == [getattr(d, n) for n in names]
    return r, d


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_records_behave_as_frozen_dataclasses(cls, data):
    first = build_pair(cls, data.draw(calls(cls)))
    if first is None:
        return
    names = [n for n, _, _ in fields_of(cls)]
    r, d = first
    # half the time the second value is built from the first one's fields,
    # so that == is often true
    if data.draw(st.booleans()):
        second = build_pair(cls, (tuple(getattr(r, n) for n in names), {}))
    else:
        second = build_pair(cls, data.draw(calls(cls)))
    assert repr(r) == repr(d)
    same_outcome(outcome(hash, r), outcome(hash, d))
    if outcome(hash, r)[0] == "ok":
        assert hash(r) == hash(d)
    if second is not None:
        r2, d2 = second
        assert (r == r2, r != r2) == (d == d2, d != d2)
    assert (r == object(), r != object()) == (d == object(), d != object())
    for name in names + ["other"]:
        for verb in (setattr, delattr):
            args = (name, 0) if verb is setattr else (name,)
            got, want = outcome(verb, r, *args), outcome(verb, d, *args)
            same_outcome(got, want)
            assert got[1][0] is dataclasses.FrozenInstanceError
    values = [getattr(r, n) for n in names]
    repeated = [(values, {names[0]: 0})] if names else []
    for args, kwargs in [(values, {"bogus": 1}), (values + [0], {})] + repeated:
        got, want = outcome(cls, *args, **kwargs), outcome(ORACLES[cls], *args, **kwargs)
        assert got[0] == want[0] == "raised" and got[1][0] is want[1][0] is TypeError


@pytest.mark.parametrize("cls", [c for c in RECORDS if any(not has for _, has, _ in fields_of(c))],
                         ids=lambda c: c.__qualname__)
def test_a_missing_or_unknown_argument_is_a_type_error(cls):
    for kwargs in ({}, {"bogus": 1}):
        with pytest.raises(TypeError):
            cls(**kwargs)
        with pytest.raises(TypeError):
            ORACLES[cls](**kwargs)


def test_records_of_two_classes_are_never_equal():
    assert og.Twist3("Z") != og.Twist4("Z") and not og.Twist3("Z") == og.Twist4("Z")
    assert hash(og.Rationals()) == hash(())
    m = {pmv.Element(M2, 0): pmv.Element(M2, 0)}
    a, b = roots.SqrtMap(M2, m, False, 1, 2), roots.SqrtMap(M2, {}, False, 1, 2)
    assert a == b and hash(a) == hash(b) == hash((M2, False, 1, 2))


def test_the_constructor_checks_still_run():
    for build in (lambda: og.ScaledInt(0), lambda: og.ScaledDyadic(2), lambda: og.Twist3("X"),
                  lambda: og.Lex(og.ProductGroup((og.Rationals(), og.Rationals())), og.Rationals()), lambda: og.ProductGroup(())):
        with pytest.raises(ParameterError):
            build()
    assert og.ProductGroup([og.Rationals()]).factors == (og.Rationals(),)


@pytest.mark.parametrize("record", [
    pmv.Element(M2, 1), pmv.GammaAlgebra(og.Twist3("D")), og.ProductGroup((og.Rationals(), DESCS[6], DESCS[7])),
    ALPHAS[1], roots.SqrtMap(M2, {pmv.Element(M2, 0): pmv.Element(M2, 1)}, False, 1, 2), cli.Report("ok", {"a": 1}),
    closures.CritResult(True, "x", samples_checked=3),
], ids=lambda r: type(r).__name__)
def test_records_copy_and_pickle(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


def test_asdict_matches_dataclasses_asdict():
    w = ideals.WSplit(1, 2, True, False, True)
    twin = ORACLES[ideals.WSplit](1, 2, True, False, True)
    assert w.asdict() == dataclasses.asdict(twin)
    assert list(w.asdict()) == [f.name for f in dataclasses.fields(twin)]
