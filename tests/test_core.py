import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from flatlimit import (
    CubatureRule,
    MultiIndex,
    MultiIndexSet,
    PointSet,
    PrecisionConfig,
    enumerate_multi_indices,
    monomial_eval,
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
