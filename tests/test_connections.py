"""Connections, Levi-Civita, curvature and Kahler reports."""

import pytest
import sympy as sp

from algebroids.algebroid import Algebroid
from algebroids.connections import (
    Metric,
    almost_complex_check,
    curvature_components,
    fundamental_form,
    hermitian_check,
    holomorphic_sectional,
    kahler_complex_curvature,
    kahler_report,
    levi_civita,
    metric_compat_check,
    riemann4,
    torsion,
)
from algebroids.constructions import fixture
from algebroids.eforms import evaluate
from algebroids.scalars import Chart, Scalar


def test_metric_symmetry_and_degeneracy():
    chart = Chart("m", ["x1"])
    A = Algebroid(chart, 2, [[1], [0]], {})
    with pytest.raises(ValueError):
        Metric(A, [[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        Metric(A, [[1, 1], [1, 1]])


def test_metric_singular_outside_rational_fragment():
    # the determinant sin^2 + cos^2 - 1 has a nonzero normal form (the
    # atoms are independent generators), so only sampling finds it zero
    chart = Chart("m", ["x1"])
    A = Algebroid(chart, 2, [[1], [0]], {})
    with pytest.raises(ValueError, match="structurally singular"):
        Metric(A, [[1, 0], [0, "sin(x1)^2 + cos(x1)^2 - 1"]])


def test_rational_metric_determinant_is_not_sampled(monkeypatch):
    # a nonzero rational normal form already proves the metric nonsingular
    calls = []
    eval_ = Scalar.eval

    def counting_eval(self, point):
        calls.append(self)
        return eval_(self, point)

    monkeypatch.setattr(Scalar, "eval", counting_eval)
    for name in ("warped_r4", "conformal_sphere_chart"):
        fixture(name)
    assert calls == []


def test_levi_civita_flat_is_trivial(catalog):
    conn = catalog("flat_r4").levi_civita
    assert all(conn.gamma[c][a][b].is_structurally_zero()
               for c in range(4) for a in range(4) for b in range(4))


def test_levi_civita_heis_coefficient(catalog):
    # constant structure [e1,e2] = 2 e3 with the identity metric
    conn = catalog("heis_j").levi_civita
    assert (conn.gamma[2][0][1] - 1).normalize().is_structurally_zero()
    assert (conn.gamma[2][1][0] + 1).normalize().is_structurally_zero()
    assert torsion(conn)[2][0][1].is_structurally_zero()


def test_levi_civita_warped_coefficient(catalog):
    fx = catalog("warped_r4")
    conn = fx.levi_civita
    chart = fx.algebroid.chart
    want = chart.scalar("x3 / (1 + x3^2)")
    assert (conn.gamma[0][2][0] - want).normalize().is_structurally_zero()


def test_metric_compatibility_report(catalog):
    fx = catalog("conformal_sphere_chart")
    assert metric_compat_check(fx.levi_civita, fx.g).ok()


def test_hermitian_and_fundamental_form(catalog):
    fx = catalog("warped_r4")
    assert hermitian_check(fx.g, fx.J).ok()
    phi = fundamental_form(fx.g, fx.J)
    chart = fx.algebroid.chart
    want = chart.scalar("1 + x3^2")
    assert (phi[(0, 1)] - want).normalize().is_structurally_zero()
    assert (phi[(2, 3)] - 1).normalize().is_structurally_zero()
    val = evaluate(phi, [fx.algebroid.frame_section(0),
                         fx.algebroid.frame_section(1)])
    assert (val - want).normalize().is_structurally_zero()


def test_kahler_report_statuses(catalog):
    assert kahler_report(catalog("flat_r2")).status == "kahler"
    rep = kahler_report(catalog("warped_r4"))
    assert rep.status == "hermitian-non-kahler"
    assert rep.equivalence_holds and rep.checks.ok("fundamental_form_identity")
    assert kahler_report(catalog("heis_j")).status == "non-integrable"


def test_curvature_antisymmetry_and_flatness(catalog):
    R = curvature_components(catalog("flat_r4").levi_civita)
    assert all(R[d][a][b][c].is_structurally_zero()
               for d in range(4) for a in range(4)
               for b in range(4) for c in range(4))
    R = curvature_components(catalog("conformal_sphere_chart").levi_civita)
    for d in range(2):
        for c in range(2):
            res = (R[d][0][1][c] + R[d][1][0][c]).normalize()
            assert res.is_structurally_zero()


def test_riemann4_symmetries(catalog):
    fx = catalog("conformal_sphere_chart")
    conn = fx.levi_civita
    A = fx.algebroid
    e1, e2 = A.frame_section(0), A.frame_section(1)
    r = riemann4(fx.g, conn, e1, e2, e1, e2)
    assert not r.is_structurally_zero()
    swap = riemann4(fx.g, conn, e1, e2, e2, e1)
    assert (r + swap).normalize().is_structurally_zero()


def test_holomorphic_sectional_degenerate_plane(catalog):
    fx = catalog("flat_r2")
    conn = fx.levi_civita
    with pytest.raises(ZeroDivisionError):
        holomorphic_sectional(fx.g, conn, fx.J, fx.algebroid.zero_section())


def test_complex_frame_levi_civita_cross_check(catalog):
    for name in ("flat_r2", "heis_j"):
        connF = catalog(name).complex_levi_civita
        assert connF.checks.failures("formula_vs_transform") == []


def test_kahler_complex_curvature_families(catalog):
    fx = catalog("conformal_sphere_chart")
    rep = kahler_complex_curvature(fx.complex_levi_civita, fx.frame)
    assert rep.checks.ok()


def test_levi_civita_almost_complex_only_when_kahler(catalog):
    flat = catalog("flat_r2")
    assert almost_complex_check(flat.levi_civita, flat.J).ok()
    warped = catalog("warped_r4")
    assert not almost_complex_check(warped.levi_civita, warped.J).ok()
