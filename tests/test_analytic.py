"""Closed-form circle-packing values, exact ties, crossover structure."""

import math

import numpy as np
import pytest

from pmdnet.analytic import (
    ALL_TYPES,
    SolutionType,
    describe_crossovers,
    integer_scan,
    optimal_type,
    phase_diagram,
    radius_gyration,
    solution_value,
    stationary_scale,
    value_table,
)


def test_radius_gyration_values():
    assert radius_gyration(1.0) <= 1e-30
    assert radius_gyration(4.0) == pytest.approx((2.0 / math.pi) ** 2, rel=0, abs=1e-15)
    assert radius_gyration(math.inf) == 1.0
    assert radius_gyration(1e9) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        radius_gyration(0.5)


def test_radius_gyration_monotone_and_bounded():
    ms = np.linspace(2.0, 100.0, 197)
    vals = [radius_gyration(m) for m in ms]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0 < v <= 1 for v in vals)


def test_solution_values():
    assert solution_value(SolutionType.SINGLE, 4.0, 1.0) == pytest.approx(
        -2.0 * (2.0 / math.pi) ** 2, abs=1e-15)
    assert solution_value(SolutionType.JOINT, 16.0, 1.0) == pytest.approx(
        -4.0 * radius_gyration(4.0), abs=1e-15)
    assert solution_value(SolutionType.SPLIT, 8.0, 3.0) == pytest.approx(
        -3.0 * radius_gyration(4.0), abs=1e-15)
    assert solution_value(SolutionType.SPLIT, 8.0, math.inf) == pytest.approx(
        -4.0 * radius_gyration(4.0), abs=1e-15)
    with pytest.raises(ValueError):
        solution_value(SolutionType.SPLIT, 1.5, 2.0)
    with pytest.raises(ValueError):
        solution_value(SolutionType.SINGLE, 4.0, 0.5)


def test_exact_tie_infinite_n_at_m8():
    # 2 R(8) == 4 R(4) == 16/pi^2 exactly
    v1 = solution_value(SolutionType.SINGLE, 8.0, math.inf)
    v3 = solution_value(SolutionType.SPLIT, 8.0, math.inf)
    assert abs(v1 - v3) <= 1e-15
    assert v1 == pytest.approx(-16.0 / math.pi**2, abs=1e-15)


def test_exact_tie_n2_at_m12():
    # 2 R(12) == (8/3) R(6) == 18/pi^2 exactly
    v1 = solution_value(SolutionType.SINGLE, 12.0, 2.0)
    v3 = solution_value(SolutionType.SPLIT, 12.0, 2.0)
    assert abs(v1 - v3) <= 1e-9
    assert v1 == pytest.approx(-18.0 / math.pi**2, abs=1e-12)
    ties = optimal_type(12.0, 2.0).ties
    assert SolutionType.SINGLE in ties and SolutionType.SPLIT in ties


def test_split_never_beats_single_without_repetition():
    # n = 1 makes the split factor 2, identical to the single form but on
    # half as many points, which is always worse
    for m in np.linspace(2.0, 120.0, 60):
        v1 = solution_value(SolutionType.SINGLE, m, 1.0)
        v3 = solution_value(SolutionType.SPLIT, m, 1.0)
        assert v3 >= v1 - 1e-15


def test_optimal_type_crossovers():
    assert optimal_type(19.0, 1.0).best is SolutionType.SINGLE
    assert optimal_type(20.0, 1.0).best is SolutionType.JOINT
    assert optimal_type(11.0, 2.0).best is SolutionType.SINGLE
    assert optimal_type(20.0, 2.0).best is SolutionType.SPLIT
    assert optimal_type(29.0, 2.0).best is SolutionType.SPLIT
    assert optimal_type(30.0, 2.0).best is SolutionType.JOINT
    assert optimal_type(7.0, math.inf).best is SolutionType.SINGLE
    assert optimal_type(9.0, math.inf).best is SolutionType.SPLIT
    with pytest.raises(ValueError):
        optimal_type(1.0, 2.0)


def test_integer_scans():
    scan = dict(integer_scan(1.0))
    assert all(scan[m] == (SolutionType.SINGLE,) for m in range(4, 20))
    assert all(scan[m] == (SolutionType.JOINT,) for m in range(20, 101))

    scan = dict(integer_scan(2.0))
    assert all(scan[m] == (SolutionType.SINGLE,) for m in range(4, 12))
    assert scan[12] == (SolutionType.SINGLE, SolutionType.SPLIT)  # exact tie
    assert all(scan[m] == (SolutionType.SPLIT,) for m in range(13, 30))
    assert all(scan[m] == (SolutionType.JOINT,) for m in range(30, 101))

    scan = dict(integer_scan(math.inf))
    assert all(SolutionType.JOINT not in scan[m] for m in range(4, 101))
    assert all(scan[m] == (SolutionType.SINGLE,) for m in range(4, 8))
    assert scan[8] == (SolutionType.SINGLE, SolutionType.SPLIT)  # exact tie
    assert all(scan[m] == (SolutionType.SPLIT,) for m in range(9, 101))


def test_m2_anomaly_documented():
    # at M = 2 the joint form degenerates (sqrt(2) points per ring) and
    # spuriously wins; integer scans therefore start at M = 4
    got = optimal_type(2.0, 2.0).best
    assert got is SolutionType.JOINT
    assert min(m for m, _ in integer_scan(2.0)) >= 4


def test_stationary_scale():
    assert stationary_scale(SolutionType.SINGLE, 5.0) == (1.0, 0.0)
    assert stationary_scale(SolutionType.SINGLE, 5.0, attached_subspace=2) == (0.0, 1.0)
    assert stationary_scale(SolutionType.JOINT, 5.0) == (1.0, 1.0)
    assert stationary_scale(SolutionType.SPLIT, 1.0) == (1.0, 0.0)
    s, z = stationary_scale(SolutionType.SPLIT, 3.0)
    assert s == pytest.approx(1.5, abs=0) and z == 0.0
    assert stationary_scale(SolutionType.SPLIT, math.inf) == (2.0, 0.0)
    with pytest.raises(ValueError):
        stationary_scale(SolutionType.SPLIT, 2.0, attached_subspace=3)


def test_split_forms_at_a_huge_n_are_the_limits():
    # 4n overflows above n ~ 4.5e307, but n/(n+1) rounds to 1 there
    assert stationary_scale(SolutionType.SPLIT, 1e308) == (2.0, 0.0)
    for m in (4.0, 20.0, 100.0):
        assert solution_value(SolutionType.SPLIT, m, 1e308) == solution_value(SolutionType.SPLIT, m, math.inf)
    assert describe_crossovers(1e308) == "n=1e+308: type1 M=4..8; type2 never; type3 M=8..100"


def test_phase_diagram_boundaries():
    ms = np.arange(2.0, 60.0, 0.25)
    by_n = {}
    for b in phase_diagram([(n, value_table(ms, n)) for n in (1.0, 2.0, math.inf)]):
        by_n.setdefault(b.n, []).append(b)

    n1 = [b for b in by_n[1.0] if b.m > 3]
    assert len(n1) == 1
    assert 19.0 < n1[0].m < 20.0
    assert n1[0].lower is SolutionType.SINGLE and n1[0].upper is SolutionType.JOINT

    n2 = [b for b in by_n[2.0] if b.m > 3]
    assert len(n2) == 2
    assert abs(n2[0].m - 12.0) < 0.3
    assert 29.0 < n2[1].m < 30.0
    assert n2[1].lower is SolutionType.SPLIT and n2[1].upper is SolutionType.JOINT

    ninf = [b for b in by_n[math.inf] if b.m > 3]
    assert len(ninf) == 1
    assert abs(ninf[0].m - 8.0) < 1e-4
    assert ninf[0].lower is SolutionType.SINGLE and ninf[0].upper is SolutionType.SPLIT


def test_describe_crossovers_strings():
    assert describe_crossovers(1.0) == "n=1: type1 M=4..19; type2 M=20..100; type3 never"
    assert describe_crossovers(2.0) == "n=2: type1 M=4..12; type2 M=30..100; type3 M=12..29"
    assert describe_crossovers(math.inf) == "n=inf: type1 M=4..8; type2 never; type3 M=8..100"


def test_value_table_reports_ties():
    rows = value_table([8.0, 12.0], 2.0)
    assert len(rows) == 2
    m, v1, v2, v3, winner = rows[1]
    assert m == 12.0
    assert v1 == pytest.approx(-18.0 / math.pi**2, abs=1e-12)
    assert winner == "type1|type3"
    assert rows[0][4] == "type1"
    # the split configuration's own check refuses M < 2
    with pytest.raises(ValueError, match="split configuration needs M >= 2"):
        value_table([1.5], 2.0)


def test_enum_labels():
    assert [t.label for t in ALL_TYPES] == ["type1", "type2", "type3"]
