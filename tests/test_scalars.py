"""Scalar layer: grammar, normal form, zero testing, evaluation."""

import random
from fractions import Fraction

import pytest
import sympy as sp

from algebroids.scalars import (
    Chart,
    ChartError,
    ComplexRational,
    ParseError,
    PoleError,
    is_zero,
    parse_scalar,
    print_scalar,
    random_point,
)


@pytest.fixture
def chart():
    return Chart("plane", ["x1", "x2"])


def test_parse_precedence_and_power(chart):
    s = parse_scalar("2 + 3 * x1 ^ 2", chart)
    x1 = chart.coords[0]
    assert (s - chart.scalar(2 + 3 * x1 ** 2)).is_structurally_zero()
    # ^ binds tighter than unary minus and is right associative
    s = parse_scalar("-x1^2", chart)
    assert (s + chart.scalar(x1 ** 2)).is_structurally_zero()
    s = parse_scalar("x1^-2", chart)
    assert (s - chart.scalar(x1 ** -2)).normalize().is_structurally_zero()


def test_imaginary_unit_and_functions(chart):
    s = parse_scalar("i * x1 + sin(x2)", chart)
    x1, x2 = chart.coords
    assert (s - chart.scalar(sp.I * x1 + sp.sin(x2))).is_structurally_zero()
    with pytest.raises(ParseError):
        parse_scalar("foo(x1)", chart)
    with pytest.raises(ParseError):
        parse_scalar("x3 + 1", chart)
    with pytest.raises(ParseError):
        parse_scalar("1 / (x1 - x1)", chart)


def test_reserved_coordinate_names():
    with pytest.raises(ChartError):
        Chart("bad", ["i"])
    with pytest.raises(ChartError):
        Chart("bad", ["sin"])
    with pytest.raises(ChartError):
        Chart("bad", ["x", "x"])


def test_print_round_trip(chart):
    for text in ("x1^2 + 2*x2", "(x1 + x2)/(1 + x1^2)", "i*x1 - 3/4",
                 "sqrt(1 + x2^2)"):
        s = parse_scalar(text, chart)
        again = parse_scalar(print_scalar(s), chart)
        assert (s - again).normalize().is_structurally_zero()


def test_normalize_idempotent_and_canonical(chart):
    x1, x2 = chart.coords
    a = chart.scalar((x1 ** 2 - x2 ** 2) / (x1 - x2))
    b = chart.scalar(x1 + x2)
    assert (a - b).normalize().is_structurally_zero()
    n = a.normalize()
    assert n.norm_expr == n.normalize().norm_expr


def test_cross_chart_rejection(chart):
    other = Chart("other", ["x1"])
    with pytest.raises(ChartError):
        chart.scalar(other.scalar("x1"))


def test_zero_status_structural_and_probabilistic(chart):
    assert is_zero(chart.scalar("x1 - x1")).structurally_zero
    st = is_zero(chart.scalar("sin(x1)^2 + cos(x1)^2 - 1"))
    assert not st.structurally_zero
    assert st.all_samples_zero
    st = is_zero(chart.scalar("sin(x1)^2 - 1"))
    assert not st.structurally_zero
    assert st.witness is not None
    assert abs(st.witness_value) > 1e-9


def test_eval_exact_and_poles(chart):
    s = chart.scalar("(1 + x1) / x2")
    val = s.eval({"x1": Fraction(1, 2), "x2": Fraction(3)})
    assert val == ComplexRational.of(Fraction(1, 2))
    with pytest.raises(PoleError):
        s.eval({"x1": 0, "x2": 0})


def test_random_point_determinism(chart):
    p1 = random_point(chart, random.Random(42))
    p2 = random_point(chart, random.Random(42))
    assert p1 == p2


def test_complex_rational_arithmetic():
    a = ComplexRational.of(Fraction(1, 2), Fraction(1, 3))
    b = ComplexRational.of(2, -1)
    assert (a * b) / b == a
    assert a.conjugate().im == -a.im
    with pytest.raises(ZeroDivisionError):
        a / ComplexRational.of(0)


def test_conjugate_and_parts(chart):
    s = chart.scalar("x1 + i*x2")
    assert (s.real_part() - chart.scalar("x1")).normalize() \
        .is_structurally_zero()
    assert (s.imag_part() - chart.scalar("x2")).normalize() \
        .is_structurally_zero()


@pytest.mark.parametrize("func, derivative", [
    ("tan", "tan(x1)^2 + 1"),
    ("sinh", "cosh(x1)"),
    ("cosh", "sinh(x1)"),
    ("tanh", "1 - tanh(x1)^2"),
    ("atan", "1 / (1 + x1^2)"),
    ("asin", "1 / sqrt(1 - x1^2)"),
    ("acos", "-1 / sqrt(1 - x1^2)"),
])
def test_documented_functions(chart, func, derivative):
    s = parse_scalar(f"{func}(x1)", chart)
    text = print_scalar(s)
    assert func in text
    again = parse_scalar(text, chart)
    assert print_scalar(again) == text
    assert (s - again).normalize().is_structurally_zero()
    d = s.diff(chart.coords[0]) - parse_scalar(derivative, chart)
    assert d.normalize().is_structurally_zero()
