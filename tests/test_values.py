"""The contract of the package's immutable value types.

Every value class behaves as the frozen dataclass it replaced: constructor
order and defaults, the ``Name(field=value, ...)`` repr, refusal of
assignment, pickling and copying, and equality only within its own class.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import strata_kit
from strata_kit import (
    BlockSpec,
    CuspidalLabel,
    CuspidalLine,
    InertialClass,
    InvariantRingPresentation,
    Multisegment,
    Orbit,
    Partition,
    Segment,
    ShapeError,
    StratumReport,
    Verdict,
    downset,
    relate,
)
from strata_kit.kgroup import OpaqueDerivative

R = CuspidalLabel("r")
S3 = CuspidalLabel("s", 2, 3, 7)
CLASS = InertialClass(Multisegment.of(Segment(R, 0, 1)), (1,))
RING = InvariantRingPresentation(("X1",), (("X1",),), ("X1",), ("X1",))

# (value, one of its fields, its repr as the frozen dataclass printed it)
VALUES = [
    (S3.line, "period", "CuspidalLine(line_id='s', dim=2, period=3)"),
    (S3, "twist", "CuspidalLabel(line=CuspidalLine(line_id='s', dim=2, period=3), twist=1)"),
    (
        Segment(S3, 1, 2),
        "a",
        "Segment(cuspidal=CuspidalLine(line_id='s', dim=2, period=3), a=2, b=3)",
    ),
    (
        relate(Segment(R, 0, 1), Segment(R, 1, 2)),
        "linked",
        "Relation(same_line=True, precedes=True, preceded_by=False, linked=True, "
        "juxtaposed=False, contains=False, contained_in=False, disjoint=False)",
    ),
    (
        Multisegment.of(Segment(R, 0, 1), Segment(S3, 1, 1)),
        "segments",
        "Multisegment(segments=(Segment(cuspidal=CuspidalLine(line_id='r', dim=1, "
        "period=None), a=0, b=1), Segment(cuspidal=CuspidalLine(line_id='s', "
        "dim=2, period=3), a=2, b=2)))",
    ),
    (
        downset(Multisegment.of(Segment(R, 0, 0))),
        "edges",
        "Poset(nodes=(Multisegment(segments=(Segment(cuspidal=CuspidalLine(line_id='r', "
        "dim=1, period=None), a=0, b=0),)),), edges=())",
    ),
    (
        CLASS,
        "orbit_sizes",
        "InertialClass(representative=Multisegment(segments=(Segment(cuspidal="
        "CuspidalLine(line_id='r', dim=1, period=None), a=0, b=1),)), "
        "orbit_sizes=(1,))",
    ),
    (
        Orbit(CLASS, [3]),
        "canonical",
        "Orbit(cls=InertialClass(representative=Multisegment(segments=(Segment(cuspidal="
        "CuspidalLine(line_id='r', dim=1, period=None), a=0, b=1),)), "
        "orbit_sizes=(1,)), canonical=(3,))",
    ),
    (Partition.of(2, 1), "parts", "Partition(parts=(2, 1))"),
    (
        BlockSpec((R,), 3),
        "n",
        "BlockSpec(lines=(CuspidalLine(line_id='r', dim=1, period=None),), n=3)",
    ),
    (
        RING,
        "units",
        "InvariantRingPresentation(variables=('X1',), orbits=(('X1',),), "
        "generators=('X1',), units=('X1',))",
    ),
    (
        StratumReport(Partition.of(1), ((CLASS, RING),)),
        "lam",
        "StratumReport(lam=Partition(parts=(1,)), components=((InertialClass("
        "representative=Multisegment(segments=(Segment(cuspidal=CuspidalLine("
        "line_id='r', dim=1, period=None), a=0, b=1),)), orbit_sizes=(1,)), "
        "InvariantRingPresentation(variables=('X1',), orbits=(('X1',),), "
        "generators=('X1',), units=('X1',))),))",
    ),
    (
        OpaqueDerivative("Z{[0,1]_r,[1,2]_r}", 1),
        "degree",
        "OpaqueDerivative(source='Z{[0,1]_r,[1,2]_r}', degree=1)",
    ),
    (
        Verdict("refuted", witness_degree=2),
        "status",
        "Verdict(status='refuted', reason='', witness_degree=2)",
    ),
]

values_param = pytest.mark.parametrize(
    "value,field,text", VALUES, ids=[type(v).__name__ for v, _, _ in VALUES]
)


@values_param
def test_pickle_and_copy_round_trip(value, field, text):
    for twin in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


@values_param
def test_assignment_raises(value, field, text):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown_field = 0


@values_param
def test_repr_unchanged(value, field, text):
    assert repr(value) == text


def test_values_never_equal_tuples():
    """No value equals its field tuple, its key, or the frozenset of what it
    iterates over, from either side."""
    for value, _, _ in VALUES:
        builtins = [value._values(), getattr(value, "_key", ())]
        if hasattr(value, "__iter__"):
            builtins.append(frozenset(value))
        for builtin in builtins:
            assert value != builtin and builtin != value
    assert Partition((1,)) != (1,)
    assert (1,) != Partition((1,))
    s = Segment(R, 0, 1)
    assert s != s.sort_key() and s != (R, 0, 1)
    assert Multisegment.of(s) != (s,)
    assert R != ("r", 1, None, 0)
    assert Partition(()) != Multisegment()


def test_constructor_keywords_and_defaults():
    assert CuspidalLabel(line_id="r") == CuspidalLabel("r", 1, None, 0)
    assert CuspidalLine(line_id="r") == CuspidalLine("r", 1, None) == R.line
    assert Segment(cuspidal=R, a=0, b=1) == Segment(R, 0, 1)
    assert Multisegment() == Multisegment(segments=())
    assert Partition() == Partition(parts=[])
    assert InertialClass(Multisegment()).orbit_sizes == ()
    assert Verdict("verified") == Verdict(status="verified", reason="", witness_degree=None)
    assert BlockSpec(lines=(R,), n=1) == BlockSpec((R,), 1)
    assert Orbit(cls=CLASS, canonical=(3,)) == Orbit(CLASS, [3])


def test_inertial_class_checks_given_orbit_sizes():
    rep = Multisegment.of(Segment(R, 0, 0), Segment(R, 0, 0), Segment(R, 0, 1))
    cls = InertialClass(rep, [1, 2])
    assert cls.orbit_sizes == (1, 2) and cls.to_json()["orbit_sizes"] == [1, 2]
    for wrong in [(), (2, 1), (3,), (1, 2, 0)]:
        with pytest.raises(ShapeError, match=r"disagree with the representative's \(1, 2\)"):
            InertialClass(rep, wrong)
    for twin in (pickle.loads(pickle.dumps(cls)), copy.copy(cls), copy.deepcopy(cls)):
        assert type(twin) is InertialClass
        assert twin == cls and hash(twin) == hash(cls) and repr(twin) == repr(cls)


# --------------------------------------------------------------------------
# Equality, hash and sort key against the field tuples of the dataclasses
# --------------------------------------------------------------------------

labels_st = st.builds(
    CuspidalLabel,
    st.sampled_from("rs"),
    st.integers(1, 2),
    st.none() | st.integers(1, 4),
    st.integers(-5, 5),
)
segments_st = st.builds(
    lambda c, a, n: Segment(c, a, a + n), labels_st, st.integers(-4, 4), st.integers(0, 3)
)


def line_fields(line):
    return (line.line_id, line.dim, line.period)


def label_fields(c):
    return line_fields(c.line) + (c.twist,)


def segment_fields(s):
    return (line_fields(s.cuspidal), s.a, s.b)


def dataclass_sort_key(s):
    c = s.cuspidal
    return (c.line_id, c.dim, c.period is not None, c.period or 0, -s.b, s.a)


def equivalent_segments(c1, a1, n1, c2, a2, n2):
    """Same line and length, and starts equal after the twist (mod the period)."""
    if line_fields(c1.line) + (n1,) != line_fields(c2.line) + (n2,):
        return False
    start1, start2 = a1 + c1.twist, a2 + c2.twist
    period = c1.line.period
    return start1 == start2 if period is None else (start1 - start2) % period == 0


@given(labels_st, labels_st)
def test_label_equality_is_field_equality(x, y):
    assert (x == y) == (label_fields(x) == label_fields(y))
    assert x != y or hash(x) == hash(y)
    assert x.line == CuspidalLine(*line_fields(x.line)) == CuspidalLabel(*line_fields(x.line)).line
    assert x == x.line.point(x.twist) == CuspidalLabel(*label_fields(x))


@given(labels_st, st.integers(-4, 4), st.integers(0, 3), st.integers(1, 6))
def test_a_point_stands_for_its_line_and_twist(p, a, n, degree):
    """A segment on a point is the segment on its line moved by the twist,
    and a block given a point is the block of its line."""
    assert Segment(p, a, a + n) == Segment(p.line, a + p.twist, a + n + p.twist)
    assert BlockSpec((p,), degree) == BlockSpec((p.line,), degree)


@given(segments_st, segments_st)
def test_segment_equality_hash_and_sort_key(s1, s2):
    assert (s1 == s2) == (segment_fields(s1) == segment_fields(s2))
    assert s1 != s2 or hash(s1) == hash(s2)
    assert s1.sort_key() == dataclass_sort_key(s1)
    assert (s1.sort_key() == s2.sort_key()) == (s1 == s2)


@given(
    labels_st, st.integers(-4, 4), st.integers(0, 2),
    labels_st, st.integers(-4, 4), st.integers(0, 2),
)
def test_segment_equality_is_equivalence(c1, a1, n1, c2, a2, n2):
    s1, s2 = Segment(c1, a1, a1 + n1), Segment(c2, a2, a2 + n2)
    assert (s1 == s2) == equivalent_segments(c1, a1, n1, c2, a2, n2)


@given(st.lists(segments_st, max_size=4), st.lists(segments_st, max_size=4))
def test_multisegment_equality_hash_and_order(segs1, segs2):
    m1, m2 = Multisegment(tuple(segs1)), Multisegment(tuple(segs2))
    fields1 = [segment_fields(s) for s in m1.segments]
    fields2 = [segment_fields(s) for s in m2.segments]
    assert (m1 == m2) == (fields1 == fields2)
    assert m1 != m2 or hash(m1) == hash(m2)
    assert [dataclass_sort_key(s) for s in m1.segments] == sorted(map(dataclass_sort_key, segs1))


partitions_st = st.lists(st.integers(1, 4), max_size=5).map(lambda p: sorted(p, reverse=True))


@given(partitions_st, partitions_st)
def test_partition_equality_is_parts_equality(p, q):
    assert (Partition(p) == Partition(q)) == (p == q)
    assert Partition(p) != Partition(q) or hash(Partition(p)) == hash(Partition(q))


def test_cli_import_skips_dataclasses_and_inspect():
    """The CLI loads neither module, and the package alone loads neither the
    CLI nor the expression parser, whose token pattern costs start-up time."""
    src = str(Path(strata_kit.__file__).resolve().parent.parent)
    for module, unwanted in (
        ("strata_kit.cli", ("dataclasses", "inspect")),
        ("strata_kit", ("strata_kit.cli", "strata_kit.expression")),
    ):
        code = f"import sys, {module}; print(sorted({set(unwanted)!r} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src),
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", ""), module
