import copy
import inspect
import math
import pickle
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from flatlimit import (
    CubatureRule,
    FunctionalSpec,
    MultiIndex,
    MultiIndexSet,
    OptimalRecord,
    OptimalStudyConfig,
    OptimalStudyResult,
    OptimizationTrace,
    OptimizerSettings,
    PointSet,
    PrecisionConfig,
    RateFit,
    SweepConfig,
    SweepRecord,
    SweepResult,
    enumerate_multi_indices,
    gauss_rule_from_moments,
    monomial_eval,
    optimal_weights,
    solve_spd,
    unisolvency_check,
    worst_case_error,
)
from flatlimit.core import sq_dist, sq_norm


def brute_force_indices(d, m):
    """Reference enumeration: filter the full integer grid by total degree."""
    out = []
    for entries in product(range(m + 1), repeat=d):
        if sum(entries) <= m:
            out.append(entries)
    return out


def test_multi_index_basic():
    a = MultiIndex((2, 0, 1))
    assert a.dimension == 3
    assert a.degree() == 3
    assert math.prod(map(math.factorial, a)) == 2


def test_multi_index_rejects_bad_entries():
    with pytest.raises(ValueError):
        MultiIndex((-1, 0))
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((1.5, 0))


def test_enumeration_order_d2_m2():
    idx = enumerate_multi_indices(2, 2)
    assert [a.entries for a in idx] == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]


def test_enumeration_order_d1():
    idx = enumerate_multi_indices(1, 4)
    assert [a.entries for a in idx] == [(0,), (1,), (2,), (3,), (4,)]


@given(d=st.integers(1, 4), m=st.integers(0, 6))
@settings(deadline=None)
def test_enumeration_matches_brute_force(d, m):
    idx = enumerate_multi_indices(d, m)
    assert sorted(a.entries for a in idx) == sorted(brute_force_indices(d, m))
    assert len(idx) == math.comb(d + m, d)


@given(d=st.integers(1, 4), m=st.integers(0, 6))
@settings(deadline=None)
def test_enumeration_is_degree_ascending(d, m):
    degs = [a.degree() for a in enumerate_multi_indices(d, m)]
    assert degs == sorted(degs)


def test_multi_index_set_validates_completeness():
    idx = enumerate_multi_indices(2, 2)
    with pytest.raises(ValueError):
        MultiIndexSet(dimension=2, max_degree=2, indices=idx.indices[:-1])


def test_monomial_eval():
    a = MultiIndex((2, 1))
    assert monomial_eval((3.0, 2.0), a) == 18.0
    # 0^0 is 1 by the empty-product convention
    assert monomial_eval((0.0,), MultiIndex((0,))) == 1.0
    assert monomial_eval((0.0, 2.0), MultiIndex((0, 3))) == 8.0


def test_point_set_1d_must_be_sorted():
    with pytest.raises(ValueError):
        PointSet(((1.0,), (0.0,)))
    ps = PointSet.from_points([3.0, -1.0, 0.5])
    assert ps.coords_1d() == (-1.0, 0.5, 3.0)


def test_point_set_rejects_string_coordinates():
    """A string is not read one character at a time, and no string or
    bool scalar is read as a number."""
    with pytest.raises(TypeError):
        PointSet.from_points([-1.0, "0", 1.0])
    with pytest.raises(TypeError):
        PointSet.from_points("123")
    with pytest.raises(TypeError):
        PointSet.from_points(["0.5", True])
    with pytest.raises(TypeError):
        PointSet.from_points([0.5, True])


def test_point_set_rejects_an_integer_past_the_float_range():
    with pytest.raises(ValueError):
        PointSet.from_points([0.5, 10**400])


def test_point_set_rejects_duplicates():
    with pytest.raises(ValueError):
        PointSet.from_points([0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        PointSet.from_points([(0.0, 1.0), (0.0, 1.0)])


def test_point_set_mpf_points_are_its_coordinates_outside_its_fields():
    """The extended lane's coordinates, built once on first read, whatever
    mpmath's precision is then, are mp.mpf(c) of each coordinate, bit for
    bit, at every extended precision; equality, hashing, the repr, copies
    and pickles see the points alone."""
    make = lambda: PointSet.from_points([(0.1, -2.5), (1e-300, 3), (-0.7, 1e300), (5e-324, -0.0)])
    ps, twin = make(), make()
    before = (repr(ps), hash(ps))
    with mp.workprec(30):
        pts = ps.mpf_points()
    assert ps.mpf_points() is pts
    for bits in (64, 200, 1100):
        with mp.workprec(bits):
            assert [[v._mpf_ for v in p] for p in pts] == [[mp.mpf(c)._mpf_ for c in p] for p in ps.points]
    assert (repr(ps), hash(ps)) == before == (repr(twin), hash(twin))
    assert ps == twin and twin == ps and ps != PointSet.from_points([(0.1, -2.5)])
    for other in (copy.copy(ps), copy.deepcopy(ps), pickle.loads(pickle.dumps(ps))):
        assert other == ps and repr(other) == repr(ps) and other.mpf_points() == pts


def test_cubature_rule_apply_1d_passes_scalars():
    seen = []

    def f(x):
        seen.append(x)
        return x * x

    rule = CubatureRule(PointSet.from_points([-1.0, 2.0]), (0.5, 0.25))
    val = rule.apply(f)
    assert seen == [-1.0, 2.0]
    assert val == 0.5 * 1.0 + 0.25 * 4.0


def test_cubature_rule_apply_2d_passes_tuples():
    rule = CubatureRule(PointSet.from_points([(1.0, 2.0)]), (3.0,))
    assert rule.apply(lambda p: p[0] + p[1]) == 9.0


def test_cubature_rule_length_mismatch():
    with pytest.raises(ValueError):
        CubatureRule(PointSet.from_points([0.0, 1.0]), (1.0,))


def test_precision_machine():
    prec = PrecisionConfig.machine()
    assert prec.bits == 53
    assert not prec.is_extended
    assert prec.unit_roundoff == 2.0 ** -53


def test_precision_extended_floor():
    with pytest.raises(ValueError):
        PrecisionConfig.extended(32)
    prec = PrecisionConfig.extended(128)
    assert prec.is_extended
    with prec.workprec():
        assert mp.prec == 128


@pytest.mark.parametrize("mode,bits", [("extended", 64.5), ("extended", 100.0), ("machine", 53.0)])
def test_precision_bits_must_be_an_int(mode, bits):
    """A bit count is an int, not a float that reads as one: 64.5 used to
    build and run, and then fail untyped when a value was written."""
    with pytest.raises(TypeError, match="bits must be an int"):
        PrecisionConfig(mode, bits)


def test_precision_unit_roundoff_never_underflows():
    prec = PrecisionConfig.extended(4096)
    assert prec.unit_roundoff > 0.0
    assert prec.warn_threshold > 0.0
    assert math.isfinite(prec.warn_threshold)


def test_workprec_restores_outer_precision():
    before = mp.prec
    with PrecisionConfig.extended(333).workprec():
        assert mp.prec == 333
    assert mp.prec == before


def test_float_sums_run_left_to_right():
    """Squared norms, squared distances and rule applications do not
    depend on the interpreter: Python 3.12's compensated sum() would give
    1 + 2^-52 here."""
    assert sq_norm((1.0, 1e-8, 1e-8)) == 1.0
    assert sq_dist((1.0, 1e-8, 1e-8), (0.0, 0.0, 0.0)) == 1.0
    rule = CubatureRule(PointSet.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), (1.0, 1e-16, 1e-16))
    assert rule.apply(lambda p: 1.0) == 1.0


BOX = FunctionalSpec.lebesgue_box(-1.0, 1.0)
NODES = PointSet.from_points([-1.0, 0.0, 1.0])


def _sweep_config():
    return SweepConfig(BOX, NODES, 2, 1.0, 10.0, 3)


def _study_config():
    return OptimalStudyConfig(BOX, 2, 1.0, 10.0, 3)


# name: (make, variant, frozen).  Two calls of make build equal records;
# variant, where given, builds one that differs from them in one field.
RECORDS = {
    "MultiIndex": (lambda: MultiIndex((1, 2)), lambda: MultiIndex((2, 1)), True),
    "PrecisionConfig": (lambda: PrecisionConfig.extended(100), lambda: PrecisionConfig.extended(101), True),
    "FunctionalSpec": (lambda: FunctionalSpec.lebesgue_box(-1.0, 1.0), lambda: FunctionalSpec.lebesgue_box(-1.0, 2.0), True),
    "PointSet": (lambda: PointSet.from_points([0.0, 1.0]), lambda: PointSet.from_points([0.0, 2.0]), True),
    "CubatureRule": (
        lambda: CubatureRule(PointSet.from_points([0.0, 1.0]), (0.5, 0.5)),
        lambda: CubatureRule(PointSet.from_points([0.0, 1.0]), (0.5, 0.25)),
        True,
    ),
    "OptimizerSettings": (lambda: OptimizerSettings(), lambda: OptimizerSettings(seed=1), True),
    "MultiIndexSet": (lambda: enumerate_multi_indices(2, 1), None, True),
    "SolveResult": (lambda: solve_spd([[2.0, 1.0], [1.0, 2.0]], [1.0, 1.0]), None, True),
    "WeightSolution": (lambda: optimal_weights(3.0, BOX, NODES), None, True),
    "WorstCaseReport": (lambda: worst_case_error(3.0, BOX, optimal_weights(3.0, BOX, NODES)), None, True),
    "UnisolvencyReport": (lambda: unisolvency_check(NODES, 2), None, True),
    "GaussRule": (lambda: gauss_rule_from_moments(BOX, 2), None, True),
    "SweepConfig": (_sweep_config, None, True),
    "SweepRecord": (lambda: SweepRecord(1.0, (1.0,), 0.5, 0.1, 0.1, 2.0, 53), None, True),
    "RateFit": (lambda: RateFit(-4.0, 0.0, (1.0, 10.0), 3), None, True),
    "OptimalStudyConfig": (_study_config, None, True),
    "OptimalRecord": (lambda: OptimalRecord(1.0, (0.0,), (2.0,), 0.1, 0.0, 0.0, True, 64, (), "float64"), None, True),
    "OptimizationTrace": (lambda: OptimizationTrace(0.1, True, "float64", []), None, False),
    "SweepResult": (lambda: SweepResult(_sweep_config(), [], None, [], (1.0,)), None, False),
    "OptimalStudyResult": (
        lambda: OptimalStudyResult(_study_config(), [], None, [], gauss_rule_from_moments(BOX, 2)), None, False,
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_by_value_and_the_frozen_ones_refuse_assignment(name):
    """Records built alike are equal; the value records hash alike and
    differ from one with another field, and survive pickling.  Every
    record copies to an equal one.  Assigning a field of a read-only
    record, or a new attribute, raises AttributeError; the three result
    records stay mutable and unhashable."""
    make, variant, frozen = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b and a == b and not a != b
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    if variant is not None:
        assert hash(a) == hash(b)
        assert a != variant() and not a == variant()
        assert pickle.loads(pickle.dumps(a)) == a
    field = next(iter(inspect.signature(type(a)).parameters))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == b
    else:
        setattr(a, field, None)
        assert getattr(a, field) is None and a != b
        with pytest.raises(TypeError):
            hash(a)
