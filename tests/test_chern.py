"""Block curvature and Chern forms."""

import pytest

from algebroids.chern import block_curvature, chern_form, iphi
from algebroids.eforms import d_E
from algebroids.jstruct import IntegrabilityError


def test_block_curvature_requires_almost_complex_connection(catalog):
    with pytest.raises(IntegrabilityError):
        block_curvature(catalog("warped_r4"))


def test_flat_chern_forms_vanish(catalog):
    bc = block_curvature(catalog("flat_r4"))
    for k in (1, 2):
        rep = chern_form(bc, k)
        assert rep.form.is_structurally_zero()
        assert rep.checks.ok("closed")


def test_sphere_first_chern_form(catalog):
    fx = catalog("conformal_sphere_chart")
    bc = block_curvature(fx)
    rep = chern_form(bc, 1)
    assert not rep.form.is_structurally_zero()
    assert rep.checks.ok("closed")
    assert rep.checks.ok("trace_real")
    assert rep.checks.ok("half_trace_equality")
    # the empirical factor between the two traces is exactly 1/2
    half = fx.algebroid.chart.scalar("1/2")
    assert (rep.factor - half).is_structurally_zero()
    # degree 2k above the rank: the zero form by degree
    rep2 = chern_form(bc, 2)
    assert rep2.form.is_structurally_zero()


def test_iphi_cross_check(catalog):
    fx = catalog("conformal_sphere_chart")
    bc = block_curvature(fx)
    phi = iphi(bc, fx.levi_civita)  # raises on any inconsistency
    assert len(phi) == bc.m


def test_chern_routes_agree(catalog):
    # every Chern form is built by both routes: half_trace_equality
    # compares Re trace((iPhi)^k) with (1/2) trace(block^k) on each form
    # component, here the one component of the sphere's first Chern form
    bc = block_curvature(catalog("conformal_sphere_chart"))
    rep = chern_form(bc, 1)
    compared = rep.checks.entries("half_trace_equality")
    assert [key for key, _ in compared] == [(0, 1)]
    assert rep.checks.ok("half_trace_equality")
    with pytest.raises(ValueError):
        chern_form(bc, 0)


def test_chern_form_closed_under_d(catalog):
    bc = block_curvature(catalog("conformal_sphere_chart"))
    form = chern_form(bc, 1).form
    assert d_E(form).is_structurally_zero()
