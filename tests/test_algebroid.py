"""Algebroid structure data, sections, brackets and validation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.algebroid import (
    Algebroid,
    Section,
    bracket,
    jacobiator,
    tangent,
    validate_structure,
)
from algebroids.eforms import EForm, d_E
from algebroids.scalars import Chart

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
CONSTANTS = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def nilpotent_algebroids(draw, min_rank=1):
    """Zero anchor, rank <= 4, C^c_ab nonzero only for c > max(a, b).

    Every cyclic term C^e_ab C^d_ec of the Jacobi identity then needs
    d > e > max(a, b) and d > c, which no triple of distinct indices
    below 4 allows, so these algebroids are valid.
    """
    rank = draw(st.integers(min_rank, 4))
    table = {}
    for a in range(rank):
        for b in range(a + 1, rank):
            for c in range(b + 1, rank):
                value = draw(CONSTANTS)
                if value:
                    table[(a, b, c)] = value
    return Algebroid(Chart("nil", ["x1"]), rank, [[0]] * rank, table)


def _random_form(draw, A, degree):
    w = EForm(A, degree)
    for idx in w.keys():
        w[idx] = draw(CONSTANTS)
    return w


@pytest.fixture
def tangent_r2():
    return tangent(Chart("r2", ["x1", "x2"]))


def test_bracket_table_antisymmetrized():
    chart = Chart("pt", ["t"])
    A = Algebroid(chart, 3, [[0], [0], [0]], {(0, 1, 2): "t"})
    assert (A.C[2][0][1] - chart.scalar("t")).is_structurally_zero()
    assert (A.C[2][1][0] + chart.scalar("t")).is_structurally_zero()


def test_vf_bracket_coordinate_fields():
    T = tangent(Chart("r2", ["x1", "x2"]))
    v1 = T.section(["x1", "0"])
    v2 = T.section(["0", "1"])
    br = bracket(v1, v2)
    assert all(c.is_structurally_zero() for c in br.components)
    v3 = T.section(["x2", "0"])
    br = bracket(v2, v3)  # [d/dx2, x2 d/dx1] = d/dx1
    assert (br.components[0] - 1).is_structurally_zero()
    assert br.components[1].is_structurally_zero()


def test_bracket_leibniz_rule(tangent_r2):
    A = tangent_r2
    chart = A.chart
    s1 = A.section(["1", "x2"])
    s2 = A.section(["x1", "1"])
    f = chart.scalar("x1 * x2")
    lhs = bracket(s1, s2.scale(f))
    rhs = bracket(s1, s2).scale(f) + s2.scale(s1.derive(f))
    assert (lhs - rhs).is_structurally_zero()


def test_bracket_antisymmetry(tangent_r2):
    s1 = tangent_r2.section(["x2^2", "1"])
    s2 = tangent_r2.section(["1", "x1"])
    res = bracket(s1, s2) + bracket(s2, s1)
    assert res.is_structurally_zero()


def test_validate_tangent_algebroid(tangent_r2):
    rep = validate_structure(tangent_r2)
    assert rep.ok()
    assert rep.failures() == []


def test_tangent_of_a_chart_without_coordinates_has_rank_zero():
    T = tangent(Chart("pt", []))
    assert T.rank == 0 and T.frame == () and T.zero_section().terms == ()
    assert validate_structure(T).ok()


def test_validate_broken_jacobi():
    chart = Chart("broken", ["x1"])
    A = Algebroid(chart, 4, [[0]] * 4, {(0, 1, 2): 1, (0, 2, 0): 1})
    rep = validate_structure(A)
    assert not rep.ok()
    assert rep.ok("anchor_morphism", "antisymmetry")
    assert not rep.ok("jacobi")
    res = [r for idx, r in rep.entries("jacobi") if idx[:3] == (0, 1, 2)]
    assert [str(r) for r in res] == ["0", "0", "-1", "0"]
    # jacobiator agrees with the tabulated residual
    jac = jacobiator(A.frame_section(0), A.frame_section(1),
                     A.frame_section(2))
    assert (jac.components[2] + 1).is_structurally_zero()


def test_anchor_morphism_failure_detected():
    chart = Chart("bad", ["x1"])
    # [e1, e2] = 0 but the anchors do not commute
    A = Algebroid(chart, 2, [["1"], ["x1"]], {})
    rep = validate_structure(A)
    assert not rep.ok("anchor_morphism")


def test_section_arithmetic_and_chart_guard(tangent_r2):
    other = Algebroid(Chart("o", ["y"]), 1, [[1]], {})
    s = tangent_r2.section(["1", "0"])
    with pytest.raises(Exception):
        s + Section(other, ["1"])
    assert (s - s).is_structurally_zero()
    assert (s.scale(3).components[0] - 3).is_structurally_zero()


@PROPERTY
@given(nilpotent_algebroids(), st.data())
def test_nilpotent_algebroids_are_valid(A, data):
    assert validate_structure(A).ok()
    for degree in (1, 2):
        w = _random_form(data.draw, A, degree)
        assert d_E(d_E(w)).is_structurally_zero()


@PROPERTY
@given(nilpotent_algebroids(min_rank=3), st.data())
def test_jacobi_failures_match_jacobiator(A, data):
    # one structure constant C^c_ab with c < max(a, b) = b may break Jacobi
    b = data.draw(st.integers(1, A.rank - 1))
    a = data.draw(st.integers(0, b - 1))
    c = data.draw(st.integers(0, b - 1))
    value = data.draw(CONSTANTS.filter(bool))
    table = {(p, q, r): A.C[r][p][q] for p in range(A.rank)
             for q in range(p + 1, A.rank) for r in range(A.rank)}
    table[(a, b, c)] = Fraction(value)
    broken = Algebroid(A.chart, A.rank, A.anchor, table)
    failures = {w.index: w.residual
                for w in validate_structure(broken).failures("jacobi")}
    expected = {}
    for p in range(A.rank):
        for q in range(p + 1, A.rank):
            for r in range(q + 1, A.rank):
                jac = jacobiator(broken.frame_section(p),
                                 broken.frame_section(q),
                                 broken.frame_section(r))
                for d, comp in enumerate(jac.components):
                    if not comp.is_structurally_zero():
                        expected[(p, q, r, d)] = comp
    assert failures.keys() == expected.keys()
    for index, residual in failures.items():
        assert (residual - expected[index]).is_structurally_zero()
