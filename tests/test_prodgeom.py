"""Product connection, second fundamental form, mean curvature, identities."""

import pytest

from algebroids.constructions import CATALOG_NAMES, Fixture, fixture
from algebroids.jstruct import NijenhuisTensor
from algebroids.prodgeom import identity_suite, mean_curvature


def test_product_connection_properties(catalog):
    for name in ("flat_r2", "heis_j"):
        prod = catalog(name).product_connection
        assert prod.checks.ok("two_forms")
        assert prod.checks.ok("parallel_p10", "parallel_p01", "parallel_h")
        assert prod.checks.ok("torsion_m4_vs_m5", "torsion_vs_table",
                              "local_displays")
        assert prod.checks.ok()


def test_second_fundamental_flat_vanishes(catalog):
    sf = catalog("flat_r2").second_fundamental
    assert sf.b_zero
    assert sf.ok
    assert sf.checks.ok("verbatim_duality")


def test_second_fundamental_heis_nonzero(catalog):
    sf = catalog("heis_j").second_fundamental
    assert not sf.b_zero
    assert sf.ok
    assert sf.checks.ok("metric_duality")
    # the textbook-shaped duality display fails for non-integrable J:
    # the Weingarten operators vanish identically here while B does not
    assert all(w.is_structurally_zero() for row in sf.W for w in row)
    assert not sf.checks.ok("verbatim_duality")


def test_b_zero_iff_integrable(catalog):
    assert catalog("warped_r4").second_fundamental.b_zero
    assert not catalog("heis_j").second_fundamental.b_zero
    assert catalog("warped_r4").nijenhuis.is_structurally_zero()
    assert not catalog("heis_j").nijenhuis.is_structurally_zero()


def test_mean_curvature_zero(catalog):
    # H vanishes on every fixture, including heis_j where B does not
    for name in CATALOG_NAMES:
        rep = mean_curvature(catalog(name))
        assert rep.H.is_structurally_zero()
        assert rep.verbatim_zero
        assert rep.k_form_zero
        assert rep.zero


def test_identity_suite_heis_constants(catalog):
    fx = catalog("heis_j")
    rep = identity_suite(fx)
    assert rep.ok
    assert rep.checks.ok("im_re_relation", "j_anti_invariance",
                         "eigenbundle_isotropy")
    chart = fx.algebroid.chart
    assert (rep.m16_constant - chart.scalar("-1/16")).normalize() \
        .is_structurally_zero()
    assert (rep.m17_constant - chart.scalar("1/8")).normalize() \
        .is_structurally_zero()
    assert (rep.m19_constant - chart.scalar("-8")).normalize() \
        .is_structurally_zero()
    assert not rep.b_zero and not rep.n_zero
    assert rep.geodesic_iff_hermitian


def test_identity_suite_detects_a_scaled_nijenhuis_tensor():
    # a fresh heis_j whose Nijenhuis tensor is 2N: the stated constants
    # must reject it, where a constant fitted to the data would absorb it
    fx = fixture("heis_j")
    N = fx.nijenhuis
    doubled = tuple(tuple(tuple((2 * e).normalize() for e in row)
                          for row in layer) for layer in N.components)
    fx.__dict__["nijenhuis"] = NijenhuisTensor(N.algebroid, doubled,
                                               N.checks)
    rep = identity_suite(fx)
    assert not rep.checks.ok("nijenhuis_pairing_proportional")
    assert not rep.checks.ok("n_reconstruction_proportional")
    assert rep.checks.ok("dphi_pairing_proportional")
    assert not rep.ok


def test_identity_suite_flat_degenerate_constants(catalog):
    rep = identity_suite(catalog("flat_r2"))
    assert rep.ok
    # everything vanishes, so no proportionality constant is reportable
    assert rep.m19_constant is None
    assert rep.b_zero and rep.n_zero


def test_identity_suite_rejects_non_hermitian(catalog):
    heis = catalog("heis_j")
    with pytest.raises(ValueError):
        identity_suite(Fixture("heis_j", heis.algebroid, heis.J,
                               _non_hermitian_metric(heis)))


def _non_hermitian_metric(fx):
    from algebroids.connections import Metric

    rows = [[0] * 4 for _ in range(4)]
    for a in range(4):
        rows[a][a] = a + 1  # not J-invariant
    return Metric(fx.algebroid, rows)
