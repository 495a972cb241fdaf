"""Almost complex structures, complex frames, integrability machinery."""

import pytest
import sympy as sp

from algebroids.algebroid import bracket
from algebroids.jstruct import (
    EndoField,
    IntegrabilityError,
    adapted_complex_frame,
    almost_complex_structure,
    bigrade,
    d_E_split,
    infinitesimal_automorphism_check,
    matched_pair_check,
    newlander_nirenberg_report,
    nijenhuis,
    projectors,
)


def test_almost_complex_structure_verified(catalog):
    fx = catalog("flat_r2")
    with pytest.raises(ValueError):
        almost_complex_structure(fx.algebroid, [[1, 0], [0, 1]])


def test_endofield_compose_apply(catalog):
    fx = catalog("flat_r2")
    J = fx.J
    s = fx.algebroid.section(["x1", "x2"])
    twice = J.apply(J.apply(s))
    assert (twice + s).is_structurally_zero()
    sq = J.compose(J) + EndoField.identity(fx.algebroid)
    assert sq.is_structurally_zero()


def test_nijenhuis_heis_oracle(catalog):
    fx = catalog("heis_j")
    N = fx.nijenhuis
    A = fx.algebroid
    val = N.value(A.frame_section(0), A.frame_section(1))
    want = A.frame_section(2).scale(-2)
    assert (val - want).is_structurally_zero()
    assert not N.is_structurally_zero()


def test_nijenhuis_antisymmetry(catalog):
    N = catalog("heis_j").nijenhuis
    m = 4
    for c in range(m):
        for a in range(m):
            for b in range(m):
                res = (N.components[c][a][b] + N.components[c][b][a])
                assert res.is_structurally_zero()


def test_complex_frame_eigen_and_conjugation(catalog):
    fx = catalog("heis_j")
    F = fx.frame
    for mu, f in enumerate(F.sections):
        eig = sp.I if mu < F.m else -sp.I
        res = fx.J.apply(f) - f.scale(fx.algebroid.chart.scalar(eig))
        assert res.is_structurally_zero()
    assert F.conjugation_symmetry_ok()
    assert F.conj_index(0) == F.m
    assert F.conj_index(F.m) == 0


def test_complex_frame_expand_rebuild(catalog):
    fx = catalog("warped_r4")
    F = fx.frame
    A = fx.algebroid
    s = A.section(["x3", "1", "0", "x1"])
    coeffs = F.expand(s)
    back = F.rebuild(coeffs)
    assert (back - s).is_structurally_zero()


def test_projectors_split_identity(catalog):
    fx = catalog("flat_r4")
    p10, p01 = projectors(fx.J)
    s = fx.algebroid.section(["x1", "0", "x2", "1"])
    total = p10.apply(s) + p01.apply(s)
    assert (total - s).is_structurally_zero()
    # p10 lands in the +i eigenspace
    t = p10.apply(s)
    res = fx.J.apply(t) - t.scale(fx.algebroid.chart.scalar(sp.I))
    assert res.is_structurally_zero()


def test_bigrade_and_split(catalog):
    F = catalog("flat_r2").frame
    w = F.form(1, {(0,): "x1", (1,): "x2"})
    pieces = bigrade(w, F)
    assert set(pieces) == {(1, 0), (0, 1)}
    out = d_E_split(w, F)
    assert out["d_prime"].is_structurally_zero()
    assert out["d_second"].is_structurally_zero()


def test_newlander_nirenberg_statuses(catalog):
    rep = newlander_nirenberg_report(catalog("heis_j"))
    assert rep.statuses == [False] * 5
    assert rep.all_agree and not rep.integrable
    rep = newlander_nirenberg_report(catalog("flat_r2"))
    assert rep.statuses == [True] * 5


def test_automorphism_check(catalog):
    fx = catalog("flat_r2")
    # constant sections are automorphisms of the constant J
    rep = infinitesimal_automorphism_check(
        fx.algebroid.section(["1", "2"]), fx.algebroid, fx.J)
    assert rep.ok()
    # rotationally non-symmetric flows are not
    rep = infinitesimal_automorphism_check(
        fx.algebroid.section(["x1", "0"]), fx.algebroid, fx.J)
    assert not rep.ok()


def test_matched_pair_requires_integrability(catalog):
    with pytest.raises(IntegrabilityError):
        matched_pair_check(catalog("heis_j"))
    rep = matched_pair_check(catalog("flat_r2"))
    assert rep.ok()


def test_eigenbundle_bracket_closure_iff_integrable(catalog):
    # the +i eigenbundle of the integrable flat structure is closed
    F = catalog("flat_r2").frame
    CA = F.as_algebroid
    br = bracket(F.sections[0], F.sections[0])
    assert br.is_structurally_zero()
    # on heis the (1,0) x (1,0) bracket leaks into the barred part
    F = catalog("heis_j").frame
    CA = F.as_algebroid
    leak = [CA.C[lam][0][1] for lam in range(F.m, 2 * F.m)]
    assert any(not c.is_structurally_zero() for c in leak)
