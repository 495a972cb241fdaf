"""Fixture catalog, prolongation lift calculus, products and restrictions."""

import dataclasses
import time

import pytest

from algebroids import _poly, constructions, scalars
from algebroids.algebroid import bracket, validate_structure
from algebroids.cli import emit_document
from algebroids.connections import cov_deriv, hermitian_check
from algebroids.constructions import (
    CATALOG_NAMES,
    Fixture,
    direct_product,
    fixture,
    fixture_names,
    projector_restriction,
    prolong,
)
from algebroids.jstruct import EndoField
from algebroids.scalars import Chart, Table


def test_fixture_catalog():
    assert fixture_names() == CATALOG_NAMES + ["heis_broken"]
    # a failed lookup is not kept: it raises again on every call
    for _ in range(2):
        with pytest.raises(KeyError):
            fixture("no_such_fixture")
        with pytest.raises(KeyError):
            fixture("product(heis_j)")


def test_fixture_is_built_once_per_name_and_shared():
    fx = fixture("heis_j")
    assert fixture(" heis_j ") is fx
    assert fixture("heis_j").nijenhuis is fx.nijenhuis
    with pytest.raises(dataclasses.FrozenInstanceError):
        fx.J = None
    copy = dataclasses.replace(fx)
    assert copy is not fx and copy.algebroid is fx.algebroid
    assert "nijenhuis" not in vars(copy)


def test_composites_reuse_their_memoised_bases(monkeypatch):
    builder = constructions._BUILDERS["heis_j"]
    calls = []

    def counted():
        calls.append(1)
        return builder()

    monkeypatch.setitem(constructions._BUILDERS, "heis_j", counted)
    lifted = fixture("prolong(heis_j)")
    prod = fixture("product(heis_j, flat_r2)")
    assert len(calls) == 1
    base = fixture("heis_j").algebroid
    assert lifted.prolongation.base is base and prod.product.A1 is base
    assert fixture("product(heis_j, flat_r2)") is prod
    assert len(calls) == 1


def test_composite_fixture_syntax():
    fx = fixture("product(flat_r2, heis_j)")
    assert fx.product is not None
    assert fx.algebroid.rank == 6
    assert fx.J is not None and fx.g is not None
    assert validate_structure(fx.algebroid).ok()
    fx = fixture("prolong(heis_j)")
    assert fx.prolongation is not None
    assert fx.algebroid.rank == 8
    sq = fx.J.compose(fx.J) + EndoField.identity(fx.algebroid)
    assert sq.is_structurally_zero()


def test_product_of_a_fixture_with_itself_builds_it_once(monkeypatch):
    builder = constructions._BUILDERS["heis_j"]
    calls = []

    def counted():
        calls.append(1)
        return builder()

    monkeypatch.setitem(constructions._BUILDERS, "heis_j", counted)
    fx = fixture("product(heis_j, heis_j)")
    assert len(calls) == 1
    assert validate_structure(fx.algebroid).ok()
    # the same document as a product of two independently built copies
    f1, f2 = builder(), builder()
    prod = direct_product(f1.algebroid, f2.algebroid, f1.J, f2.J, f1.g, f2.g)
    twin = Fixture(fx.name, prod.algebroid, J=prod.J, g=prod.g)
    assert emit_document(fx) == emit_document(twin)


def test_function_lifts(catalog):
    p = prolong(catalog("flat_r2").algebroid)
    fv = p.function_vertical_lift("x1 * x2")
    assert (fv - p.chart.scalar("x1 * x2")).is_structurally_zero()
    # with the identity anchor, x1^c is the first fibre coordinate
    fc = p.function_complete_lift("x1")
    assert (fc - p.chart.scalar(p.y[0])).is_structurally_zero()


def test_lift_bracket_laws(catalog):
    p = prolong(catalog("heis_j").algebroid)
    assert p.checks.ok("lift_bracket_laws")


def test_lift_laws_lift_each_section_once(catalog, monkeypatch):
    # r frame sections and r^2 base brackets, each lifted once
    A = catalog("heis_j").algebroid
    calls = []
    complete_lift = constructions.Prolongation.complete_lift

    def counted(self, s):
        calls.append(s)
        return complete_lift(self, s)

    monkeypatch.setattr(constructions.Prolongation, "complete_lift", counted)
    prolong(A)
    assert len(calls) <= A.rank + A.rank ** 2


def test_complete_lift_endo_laws(catalog):
    fx = catalog("heis_j")
    p = prolong(fx.algebroid)
    Jc = p.complete_lift_endo(fx.J)
    sq = Jc.compose(Jc) + EndoField.identity(p.algebroid)
    assert sq.is_structurally_zero()
    # J^c of a vertical lift is the vertical lift of the image
    for a in range(fx.algebroid.rank):
        ea = fx.algebroid.frame_section(a)
        res = Jc.apply(p.vertical_lift(ea)) - p.vertical_lift(fx.J.apply(ea))
        assert res.is_structurally_zero()


def test_complete_lift_metric_flat(catalog):
    fx = catalog("flat_r2")
    p = prolong(fx.algebroid)
    G = p.complete_lift_metric(fx.g)
    r = p.r
    for a in range(r):
        for b in range(r):
            assert G[a][b].is_structurally_zero()
            assert G[r + a][r + b].is_structurally_zero()
            want = 1 if a == b else 0
            assert (G[a][r + b] - want).is_structurally_zero()


def test_sasaki_metric_and_adapted_structure(catalog):
    fx = catalog("flat_r2")
    p = prolong(fx.algebroid)
    conn = fx.levi_civita
    gL = p.sasaki_metric(fx.g, conn)
    # flat base: the horizontal correction vanishes and g_L is the identity
    for a in range(2 * p.r):
        for b in range(2 * p.r):
            want = 1 if a == b else 0
            assert (gL.entry(a, b) - want).is_structurally_zero()
    JL = p.adapted_complex_structure(conn)
    sq = JL.compose(JL) + EndoField.identity(p.algebroid)
    assert sq.is_structurally_zero()
    assert hermitian_check(gL, JL).ok()


def test_sasaki_metric_and_adapted_structure_hermitian(catalog):
    # heis_j: both the structure functions and the Levi-Civita
    # coefficients are nonzero, so both frame shifts are exercised
    fx = catalog("heis_j")
    p = prolong(fx.algebroid)
    conn = fx.levi_civita
    gL = p.sasaki_metric(fx.g, conn)
    JL = p.adapted_complex_structure(conn)
    sq = JL.compose(JL) + EndoField.identity(p.algebroid)
    assert sq.is_structurally_zero()
    assert hermitian_check(gL, JL).ok()


def test_s3_projector_is_built_promptly(monkeypatch):
    # the one catalog fixture with real rational-function work: a fresh
    # build, with no fraction field, normal form or field operation kept
    # from other tests
    monkeypatch.setattr(scalars, "_FIELDS", {})
    start = time.perf_counter()
    fixture("s3_projector")
    assert time.perf_counter() - start < 10


# terms of the polynomials whose gcd (`_poly.cofactors`) a cold s3_projector
# build takes, summed: 5 with factored denominators, the one gcd being the
# squarefree test of 1 + u1^2 + u2^2 + u3^2; 13,474 with gcds of the
# operands' parts and the field operations' memos, 26,609 with a gcd of
# each cross-multiplied result
S3_PROJECTOR_GCD_TERMS = 5


def test_s3_projector_takes_gcds_of_operand_size(monkeypatch):
    monkeypatch.setattr(scalars, "_FIELDS", {})
    cofactors = _poly.cofactors
    terms = []

    def counted(f, g, n, dom=_poly.INTEGERS):
        terms.append(len(f) + len(g))
        return cofactors(f, g, n, dom)

    monkeypatch.setattr(_poly, "cofactors", counted)
    fixture("s3_projector")
    assert sum(terms) <= S3_PROJECTOR_GCD_TERMS


@pytest.mark.parametrize("name", ["warped_r4", "conformal_sphere_chart"])
def test_sasaki_metric_of_a_curved_base_is_built_promptly(catalog, name):
    # Metric() takes the determinant and inverse of the 2r x 2r Sasaki
    # matrix, whose entries carry the Levi-Civita coefficients
    fx = catalog(name)
    conn = fx.levi_civita
    start = time.perf_counter()
    gL = prolong(fx.algebroid).sasaki_metric(fx.g, conn)
    assert time.perf_counter() - start < 5
    G = Table(gL.algebroid.chart, gL.matrix)
    identity = Table(gL.algebroid.chart, gL.inverse) @ G
    for a, row in enumerate(identity):
        for b, entry in enumerate(row):
            assert entry == int(a == b)


def test_complete_lift_connection_laws(catalog):
    fx = catalog("heis_j")
    base = fx.algebroid
    p = prolong(base)
    conn = fx.levi_civita
    Dc = p.complete_lift_connection(conn)
    for a in range(base.rank):
        for b in range(base.rank):
            ea, eb = base.frame_section(a), base.frame_section(b)
            nab = cov_deriv(conn, ea, eb)
            # D^c over a complete lift sends vertical lifts to vertical lifts
            res = cov_deriv(Dc, p.complete_lift(ea), p.vertical_lift(eb)) \
                - p.vertical_lift(nab)
            assert res.is_structurally_zero()
            # vertical directions are flat among themselves
            res = cov_deriv(Dc, p.vertical_lift(ea), p.vertical_lift(eb))
            assert res.is_structurally_zero()


def test_direct_product_blocks(catalog):
    f1 = catalog("flat_r2")
    f2 = catalog("heis_j")
    prod = direct_product(f1.algebroid, f2.algebroid,
                          f1.J, f2.J, f1.g, f2.g)
    assert validate_structure(prod.algebroid).ok()
    # the second factor's bracket survives injection: [e1, e2] = 2 e3
    e1 = f2.algebroid.frame_section(0)
    e2 = f2.algebroid.frame_section(1)
    br = bracket(prod.inject2(e1), prod.inject2(e2))
    want = prod.inject2(f2.algebroid.frame_section(2).scale(2))
    assert (br - want).is_structurally_zero()
    # J acts blockwise
    s = f1.algebroid.frame_section(0)
    res = prod.J.apply(prod.inject1(s)) - prod.inject1(f1.J.apply(s))
    assert res.is_structurally_zero()


def test_projector_restriction_requires_idempotent():
    chart = Chart("p", ["x1"])
    with pytest.raises(ValueError):
        projector_restriction(chart, [[1], [0]], [[1, 1], [0, 1]],
                              [[1], [0]])


def test_projector_restriction_identity():
    chart = Chart("triv", ["x1", "x2"])
    eye = [[1, 0], [0, 1]]
    res = projector_restriction(chart, eye, eye, eye,
                                ambient_J=[[0, -1], [1, 0]])
    assert validate_structure(res.algebroid).ok()
    assert res.checks.ok("flatness")
    assert res.checks.ok("J_commutes")
    assert res.checks.ok("derived_anchor_morphism")
    # identity projector on the trivial bundle reproduces the tangent data
    assert all((res.algebroid.anchor[a][i] - eye[a][i])
               .is_structurally_zero() for a in range(2) for i in range(2))


def test_sphere_restriction_fixture(catalog):
    fx = catalog("s3_projector")
    res = fx.restriction
    assert validate_structure(res.algebroid).ok()
    assert res.checks.ok("flatness")
    assert not res.checks.ok("J_commutes")
    assert fx.nijenhuis.is_structurally_zero()
