"""Forms: storage, wedge, evaluation and the differential."""

import pytest

from algebroids.algebroid import Algebroid
from algebroids.eforms import EForm, d_E, evaluate, wedge
from algebroids.scalars import Chart


@pytest.fixture
def A():
    chart = Chart("r3", ["x1", "x2", "x3"])
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    return Algebroid(chart, 3, eye, {})


def test_index_storage_antisymmetric(A):
    w = EForm(A, 2, {(1, 0): "x1"})
    assert (w[(0, 1)] + A.chart.scalar("x1")) \
        .is_structurally_zero()
    assert w[(1, 1)].is_structurally_zero()
    with pytest.raises(ValueError):
        EForm(A, 2, {(1, 1): 1})


def test_wedge_shuffle_normalization(A):
    e1 = EForm(A, 1, {(0,): 1})
    e2 = EForm(A, 1, {(1,): 1})
    w = wedge(e1, e2)
    # shuffle convention: e^1 ^ e^2 evaluated on (e_1, e_2) is 1
    val = evaluate(w, [A.frame_section(0), A.frame_section(1)])
    assert (val - 1).is_structurally_zero()
    anti = wedge(e2, e1) + w
    assert anti.is_structurally_zero()


def test_wedge_associative(A):
    e = [EForm(A, 1, {(k,): f"x{k + 1}"}) for k in range(3)]
    lhs = wedge(wedge(e[0], e[1]), e[2])
    rhs = wedge(e[0], wedge(e[1], e[2]))
    assert (lhs - rhs).is_structurally_zero()


def test_d_of_function_is_anchor_derivative(A):
    f = EForm(A, 0, {(): "x1^2 * x2"})
    df = d_E(f)
    want = {(0,): "2*x1*x2", (1,): "x1^2"}
    for idx in [(0,), (1,), (2,)]:
        expect = A.chart.scalar(want.get(idx, 0))
        assert (df[idx] - expect).is_structurally_zero()


def test_d_squared_zero_tangent(A):
    w = EForm(A, 1, {(0,): "x2 * x3", (1,): "x1^2", (2,): "x1 + x2"})
    assert d_E(d_E(w)).is_structurally_zero()


def test_d_uses_structure_functions():
    chart = Chart("lie", ["t"])
    # so(3)-like structure constants, zero anchor
    A = Algebroid(chart, 3, [[0], [0], [0]],
                  {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})
    e1 = EForm(A, 1, {(0,): 1})
    de1 = d_E(e1)
    # d e^1 = -C^1_23 e^2 ^ e^3 on the dual side: (d e^1)(e_2, e_3) = -C^1_23
    assert (de1[(1, 2)] + 1).is_structurally_zero()
    assert d_E(d_E(e1)).is_structurally_zero()


def test_degree_above_frame_size_is_zero(A):
    top = EForm(A, 3, {(0, 1, 2): "x1"})
    d_top = d_E(top)
    assert d_top.degree == 4
    assert d_top.is_structurally_zero()


def test_leibniz_for_wedge(A):
    w = EForm(A, 1, {(0,): "x2"})
    e = EForm(A, 1, {(1,): "x3"})
    lhs = d_E(wedge(w, e))
    rhs = wedge(d_E(w), e) - wedge(w, d_E(e))
    assert (lhs - rhs).is_structurally_zero()
