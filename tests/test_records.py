"""The record contract: every record class of the package is immutable,
equal by class and fields, hashable, printable as Name(field=value, ...),
copyable and picklable through its constructor, keeps its constructor
signature, and writes its JSON.  Reprs and signatures are pinned from the
@dataclass versions; the JSON of the records that wrote their own is pinned
from those methods."""

import copy
import inspect
import json
import pickle

import pytest

from barblocks.abacus import BarAbacus, FencedRunner
from barblocks.blocks import LabelMap, NonSpinBlockId, SpinBlockId
from barblocks.characters import CharLabel
from barblocks.galois import GaloisElement, SurdValue
from barblocks.humphreys import GBlockId, GCharLabel
from barblocks.littlewood import _BAR, _Layout, bar_decompose, ordinary_decompose
from barblocks.partitions import BarPartition, FrobeniusSymbol, Partition, _Record
from barblocks.suites import VerificationReport


def _block():
    return SpinBlockId([1], 1, "stilde", 3)


_SPIN_BLOCK = "SpinBlockId(kappa=BarPartition([1]), w=1, group='stilde', p=3)"
_SPIN_BLOCK_JSON = '{"kappa": [1], "w": 1, "group": "stilde", "p": 3}'
_DECOMPOSITION = (
    "(core: 'Partition', quotient: 'tuple[Partition, ...]', charvec: 'tuple[int, ...]', "
    "weight: 'int', cocore: 'Partition', d: 'int')"
)

# class name -> (a factory of one instance, its repr, the class's signature,
# json.dumps of its to_json)
RECORDS = {
    "FrobeniusSymbol": (
        lambda: FrobeniusSymbol((1, 0), (2, 0)),
        "FrobeniusSymbol(legs=(1, 0), arms=(2, 0))",
        "(legs: 'tuple[int, ...]', arms: 'tuple[int, ...]')",
        '{"legs": [1, 0], "arms": [2, 0]}',
    ),
    "FencedRunner": (
        lambda: FencedRunner({2, 0}, {1}),
        "FencedRunner(black_above=frozenset({0, 2}), white_below=frozenset({1}))",
        "(black_above: 'frozenset' = frozenset(), white_below: 'frozenset' = frozenset())",
        '{"above": [0, 2], "below": [1]}',
    ),
    "BarAbacus": (
        lambda: BarAbacus.from_partition([5, 3, 1], 3),
        "BarAbacus(t=3, runners=(frozenset({1}), frozenset({0}), frozenset({1})))",
        "(t: 'int', runners: 'tuple[frozenset, ...]')",
        '{"t": 3, "runners": [[1], [0], [1]]}',
    ),
    "TwistedBarAbacus": (
        lambda: BarAbacus.from_partition([5, 3, 1], 3).twist(),
        "TwistedBarAbacus(t=3, runner0=frozenset({1}), "
        "shifted=(FencedRunner(black_above=frozenset({0}), white_below=frozenset({1})),))",
        "(t: 'int', runner0: 'frozenset', shifted: 'tuple[FencedRunner, ...]')",
        '{"t": 3, "runner0": [1], "shifted": [{"above": [0], "below": [1]}]}',
    ),
    "BarLittlewood": (
        lambda: bar_decompose([5, 3, 1], 3),
        "BarLittlewood(core=BarPartition([]), quotient=(BarPartition([1]), Partition([1, 1])), "
        "charvec=(0,), weight=3, cocore=BarPartition([5, 3, 1]), d=0)",
        _DECOMPOSITION,
        '{"core": [], "quotient": [[1], [1, 1]], "charvec": [0], "weight": 3, "cocore": [5, 3, 1], '
        '"d": 0}',
    ),
    "OrdinaryLittlewood": (
        lambda: ordinary_decompose([3, 1], 3),
        "OrdinaryLittlewood(core=Partition([3, 1]), quotient=(Partition([]), Partition([]), "
        "Partition([])), charvec=(0, -1, 1), weight=0, cocore=Partition([]), d=0)",
        _DECOMPOSITION,
        '{"core": [3, 1], "quotient": [[], [], []], "charvec": [0, -1, 1], "weight": 0, '
        '"cocore": [], "d": 0}',
    ),
    "CharLabel": (
        lambda: CharLabel([2, 1], "stilde", "spin", "plus"),
        "CharLabel(partition=BarPartition([2, 1]), group='stilde', flavor='spin', variant='plus')",
        "(partition: 'Partition', group: 'str', flavor: 'str', variant: 'str')",
        '{"partition": [2, 1], "group": "stilde", "flavor": "spin", "variant": "plus"}',
    ),
    "GaloisElement": (
        lambda: GaloisElement(5, 2, 3),
        "GaloisElement(p=5, e=2, s=3)",
        "(p: 'int', e: 'int' = 1, s: 'int' = 1)",
        '{"p": 5, "e": 2, "s": 3}',
    ),
    "SurdValue": (
        lambda: SurdValue(1, 5, 12),
        "SurdValue(two_exp=1, i_exp=1, radicand=3)",
        "(two_exp: 'int', i_exp: 'int', radicand: 'int')",
        '{"two_exp": 1, "i_exp": 1, "radicand": 3}',
    ),
    "GCharLabel": (
        lambda: GCharLabel([1], [3], "g", "whole"),
        "GCharLabel(mu=BarPartition([1]), nu=BarPartition([3]), group='g', variant='whole')",
        "(mu: 'BarPartition', nu: 'BarPartition', group: 'str', variant: 'str')",
        '{"mu": [1], "nu": [3], "group": "g", "variant": "whole"}',
    ),
    "GBlockId": (
        lambda: GBlockId([1], 1, "g", 3),
        "GBlockId(kappa=BarPartition([1]), w=1, group='g', p=3)",
        "(kappa: 'BarPartition', w: 'int', group: 'str', p: 'int')",
        '{"kappa": [1], "w": 1, "group": "g", "p": 3}',
    ),
    "SpinBlockId": (
        _block, _SPIN_BLOCK, "(kappa: 'BarPartition', w: 'int', group: 'str', p: 'int')",
        _SPIN_BLOCK_JSON,
    ),
    "NonSpinBlockId": (
        lambda: NonSpinBlockId([], 1, 3),
        "NonSpinBlockId(kappa=Partition([]), w=1, p=3)",
        "(kappa: 'Partition', w: 'int', p: 'int')",
        '{"kappa": [], "w": 1, "p": 3}',
    ),
    "LabelMap": (
        lambda: LabelMap(_block(), _block(), ()),
        f"LabelMap(source={_SPIN_BLOCK}, target={_SPIN_BLOCK}, pairs=())",
        "(source: 'object', target: 'object', pairs: 'tuple[tuple[object, object], ...]')",
        f'{{"source": {_SPIN_BLOCK_JSON}, "target": {_SPIN_BLOCK_JSON}, "pairs": []}}',
    ),
    "VerificationReport": (
        lambda: VerificationReport("roundtrips", 3, 4, 7, ({"lambda": [1]},), ("note",)),
        "VerificationReport(suite='roundtrips', p=3, bound=4, cases=7, "
        "violations=({'lambda': [1]},), notes=('note',))",
        "(suite: 'str', p: 'int', bound: 'int', cases: 'int', violations: 'tuple[dict, ...]', "
        "notes: 'tuple[str, ...]' = ())",
        '{"suite": "roundtrips", "p": 3, "bound": 4, "cases": 7, "violations": [{"lambda": [1]}], '
        '"notes": ["note"]}',
    ),
}
# the engine's layouts are named tuples, read by field name
LAYOUT = (
    lambda: _Layout(*_BAR),
    "_Layout(record=<class 'barblocks.littlewood.BarLittlewood'>, "
    "label=<class 'barblocks.partitions.BarPartition'>, modulus='t must be an odd integer >= 3', "
    "head=1, width=<function ",
    "(record, label, modulus, head, width, counted, numbers, folded, parts, pair)",
)


def test_every_record_class_is_listed():
    classes, todo = set(), [_Record]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("barblocks."):
            classes.add(cls.__name__)
    assert classes - {"_Record", "_Decomposition"} == set(RECORDS)


def _refused(record, verb, field):
    """The message of a refused change: the dataclass one for a record,
    any for a named tuple."""
    return f"cannot {verb} field '{field}'" if isinstance(record, _Record) else None


@pytest.mark.parametrize("name", [*RECORDS, "_Layout"])
def test_record_contract(name):
    make, text, signature = RECORDS.get(name, LAYOUT)[:3]
    record = make()
    cls = type(record)
    assert cls.__name__ == name
    if name == "_Layout":  # the layout's functions print with their addresses
        assert repr(record).startswith(text)
    else:
        assert repr(record) == text
    assert str(inspect.signature(cls)) == signature
    twin = cls(*(getattr(record, field) for field in cls._fields))
    assert twin is not record and twin == record and not twin != record
    if name == "VerificationReport":  # its violations are dicts
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    field = cls._fields[0]
    with pytest.raises(AttributeError, match=_refused(record, "assign to", field)):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError, match=_refused(record, "assign to", "extra")):
        record.extra = 1
    with pytest.raises(AttributeError, match=_refused(record, "delete", field)):
        delattr(record, field)
    assert record == twin and not hasattr(record, "extra")


@pytest.mark.parametrize("name", RECORDS)
def test_records_of_different_classes_never_compare_equal(name):
    """Not even a subclass with the same fields and values equals a record,
    nor the tuple of its values."""
    record = RECORDS[name][0]()
    values = record._key(record)
    twin = type("Twin", (type(record),), {"__slots__": ()})(*values)
    assert twin != record and record != twin and not record == twin
    assert record.__eq__(twin) is NotImplemented
    assert record != values


@pytest.mark.parametrize("name", RECORDS)
def test_an_unchecked_record_equals_the_constructors(name):
    """_unchecked(*fields), the cheap path that skips validation, builds the
    record the constructor builds from the same fields, with the same hash."""
    record = RECORDS[name][0]()
    cls, fields = type(record), record._key(record)
    built, unchecked = cls(*fields), cls._unchecked(*fields)
    assert type(unchecked) is cls and unchecked == built and unchecked._key(unchecked) == fields
    if name != "VerificationReport":  # its violations are dicts
        assert hash(unchecked) == hash(built)


@pytest.mark.parametrize("name", RECORDS)
def test_a_records_json_is_its_fields_in_order(name):
    make, _, _, expected = RECORDS[name]
    assert json.dumps(make().to_json()) == expected


_DEC = bar_decompose([5, 3, 1], 3)


@pytest.mark.parametrize(
    "record, changes, expected",
    [
        (GaloisElement(5), {"e": 2}, GaloisElement(5, 2, 1)),
        (GaloisElement(5), {"s": 7}, GaloisElement(5, 1, 2)),
        (FencedRunner(), {"black_above": [1]}, FencedRunner(frozenset({1}))),
        (CharLabel([2, 1], "stilde", "spin", "plus"), {"flavor": "nonspin"},
         CharLabel(Partition([2, 1]), "stilde", "nonspin", "plus")),
        (_DEC, {"d": 1}, type(_DEC)(_DEC.core, _DEC.quotient, _DEC.charvec, _DEC.weight, _DEC.cocore, 1)),
    ],
)
def test_replace_keeps_the_type_and_builds_through_the_constructor(record, changes, expected):
    changed = record._replace(**changes)
    assert type(changed) is type(record) and changed == expected


@pytest.mark.parametrize(
    "record, changes, message",
    [
        (GaloisElement(5), {"s": 5}, "s must be coprime to p"),
        (GaloisElement(5), {"p": 9}, "p must be an odd prime, got 9"),
        (CharLabel([2, 1], "stilde", "spin", "plus"), {"partition": [1, 1]}, "strictly decreasing"),
        (SpinBlockId([1], 1, "stilde", 3), {"kappa": [3]}, r"BarPartition\(\[3\]\) is not a 3-bar core"),
        (FrobeniusSymbol((1,), (2,)), {"arms": (2, 0)}, "need as many legs as arms"),
        (BarAbacus.from_partition([4], 3), {"t": 4}, "t must be an odd integer >= 3, got 4"),
    ],
)
def test_replace_validates_again(record, changes, message):
    with pytest.raises(ValueError, match=message):
        record._replace(**changes)


def test_replace_refuses_an_unknown_field():
    with pytest.raises(TypeError):
        GaloisElement(5)._replace(q=1)


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}
_VALUES = {
    "Partition": lambda: Partition([2, 1]),
    "BarPartition": lambda: BarPartition([2, 1]),
    **{name: make for name, (make, *_) in RECORDS.items()},
}


@pytest.mark.parametrize("how", _COPIES)
@pytest.mark.parametrize("name", _VALUES)
def test_copy_deepcopy_and_pickle_round_trip(name, how):
    value = _VALUES[name]()
    copied = _COPIES[how](value)
    assert type(copied) is type(value) and copied == value
    assert repr(copied) == repr(value)


def test_copies_and_pickles_are_built_by_the_constructor():
    """So loading a pickle checks its values again."""
    assert BarPartition([2, 1]).__reduce__() == (BarPartition, ((2, 1),))
    assert GaloisElement(5, 2, 3).__reduce__() == (GaloisElement, (5, 2, 3))
