"""Records keep a frozen dataclass's value semantics; the CLI starts cold without ``dataclasses``."""

import subprocess
import sys
from pathlib import Path

import pytest

from distcolor._record import Record
from distcolor.bounds import Bound, BoundsReport
from distcolor.colorings import Circle, CircleBipartition, CircleGraph, Coloring, Method, Violation
from distcolor.distgraph import GraphSpec
from distcolor.exact import AdjacencyMatrix, Exhausted, SolveLimits
from distcolor.gf import BhSet, FieldSpec
from distcolor.numtheory import ConditionReport
from reference import RECORD_FIELDS, dataclass_twin

SRC = Path(__file__).resolve().parents[1] / "src"

_CIRCLES = (Circle(1, (0, 3, 2, 5, 6, 4)), Circle(2, (0, 1, 5, 3, 6, 4)))
_GRAPH = CircleGraph(7, _CIRCLES, ((0, 1),))

# valid field values for each record, in field order
SAMPLES = {
    ConditionReport: (7, 3, True),
    GraphSpec: (9, 3, 2),
    Coloring: (GraphSpec(4, 2, 1), (0, 1, 2, 2, 3, 0), Method.SUM_MOD_N, 4),
    Violation: ((0, 1), (0, 2), 1),
    Circle: (1, (0, 3, 2, 5, 6, 4)),
    CircleGraph: (7, _CIRCLES, ((0, 1),)),
    CircleBipartition: (7, _GRAPH, (0, 1), (0, 1, 0)),
    FieldSpec: (3, 2, (2, 2, 1)),
    BhSet: (3, 2, 8, (0, 1, 3)),
    BoundsReport: (GraphSpec(9, 3, 2), (Bound(7, "thm2A"),), (Bound(7, "thm1"),), 7, 7, 7),
    AdjacencyMatrix: (3, (0b110, 0b101, 0b011)),
    SolveLimits: (1000, 2.5),
    Exhausted: (3, 5),
}

RECORDS = list(RECORD_FIELDS)


def names(cls: type) -> list[str]:
    return [f if isinstance(f, str) else f[0] for f in RECORD_FIELDS[cls]]


def test_every_record_has_a_sample():
    assert set(SAMPLES) == set(RECORD_FIELDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_values_match_the_dataclass_twin(cls):
    twin, args = dataclass_twin(cls), SAMPLES[cls]
    record, copy = cls(*args), twin(*args)
    assert repr(record) == repr(copy)
    assert record == cls(*args) and copy == twin(*args)
    assert hash(record) == hash(cls(*args)) == hash(copy)
    assert cls(**dict(zip(names(cls), args))) == record
    assert cls(args[0], **dict(zip(names(cls)[1:], args[1:]))) == record
    # a record equals neither its twin nor its field tuple
    assert record != copy and copy != record and record != args


def test_records_differ_across_classes():
    # Exhausted and Circle have two fields each; equal field tuples do not make equal records
    points = SAMPLES[Circle][1]
    assert Exhausted(1, points) != Circle(1, points)
    assert dataclass_twin(Exhausted)(1, points) != dataclass_twin(Circle)(1, points)
    samples = [cls(*args) for cls, args in SAMPLES.items()]
    assert all((a == b) == (i == j) for i, a in enumerate(samples) for j, b in enumerate(samples))
    assert GraphSpec(9, 3, 2) != GraphSpec(9, 3, 1) and Exhausted(3) != Exhausted(3, 4)
    # nor do equal field names: two classes with the same fields stay apart
    first, second = (type(name, (Record,), {"__annotations__": {"x": "int"}}) for name in "AB")
    assert first(1) == first(1) and first(1) != second(1)


def test_record_defaults():
    for cls, args in [(SolveLimits, ()), (Exhausted, (3,)), (ConditionReport, (7, 3, True))]:
        assert repr(cls(*args)) == repr(dataclass_twin(cls)(*args))
    assert SolveLimits() == SolveLimits(5_000_000, 60.0)
    assert Exhausted(3) == Exhausted(3, None) == Exhausted(lower=3)
    assert ConditionReport(7, 3, True).witness_r is None
    assert SolveLimits(time_budget=2.5) == SolveLimits(5_000_000, 2.5)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_call_errors_match_the_twin(cls):
    twin, args, fields = dataclass_twin(cls), SAMPLES[cls], names(cls)
    calls = [(args[:k], {}) for k in range(len(args))]
    calls += [(args + (0,), {}), (args, {"bogus": 0}), (args, {fields[0]: args[0]})]
    for pos, kw in calls:
        try:
            twin(*pos, **kw)
        except TypeError:
            with pytest.raises(TypeError):
                cls(*pos, **kw)
        else:
            assert repr(cls(*pos, **kw)) == repr(twin(*pos, **kw))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    args = SAMPLES[cls]
    for obj in (cls(*args), dataclass_twin(cls)(*args)):
        first = names(cls)[0]
        for name in (first, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert getattr(obj, first) == args[0]


def test_cli_cold_start_imports_no_dataclasses():
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import distcolor, distcolor.cli\n"
        "distcolor.cli._build_parser()\n"
        "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout == "[]\n"
