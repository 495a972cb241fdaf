"""Acceptance gate: twelve criteria, one printed PASS/FAIL line each.

Tolerances used throughout: structural zero where the statement is exact;
numeric checks use 10 random rational sample points at tolerance 1e-9
with fixed seeds (base seed 42).
"""

import functools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
import sympy as sp

from algebroids.algebroid import Section, bracket, validate_structure
from algebroids.chern import block_curvature, chern_form
from algebroids.cli import (
    document_to_fixture,
    emit_document,
    main,
    parse_document,
)
from algebroids.connections import (
    hermitian_check,
    holomorphic_sectional,
    kahler_report,
)
from algebroids.constructions import CATALOG_NAMES, Fixture, prolong
from algebroids.eforms import EForm, d_E
from algebroids.jstruct import IntegrabilityError, matched_pair_check, nijenhuis
from algebroids.prodgeom import identity_suite, mean_curvature

from conftest import (
    HERMITIAN_NAMES,
    INTEGRABLE_NAMES,
    NUM_POINTS,
    SEED,
    TOLERANCE,
    random_point,
)


def criterion(n):
    """Print the verdict line even when an assertion or error interrupts."""

    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL", flush=True)
                raise
            print(f"criterion {n}: PASS", flush=True)

        return run

    return deco


# ---------------------------------------------------------------------------


@criterion(1)
def test_criterion_01_structure_equations(catalog):
    for name in CATALOG_NAMES:
        rep = validate_structure(catalog(name).algebroid)
        assert rep.ok(), f"{name} fails structure equations"
    broken = validate_structure(catalog("heis_broken").algebroid)
    assert not broken.ok()
    # Jacobi residual of the triple (e1, e2, e3) must be exactly -e3
    res = [r for idx, r in broken.entries("jacobi") if idx[:3] == (0, 1, 2)]
    for d, comp in enumerate(res):
        want = -1 if d == 2 else 0
        assert (comp - want).is_structurally_zero()


def _structure_is_constant(A):
    entries = [e for row in A.anchor for e in row]
    entries += [e for layer in A.C for row in layer for e in row]
    return all(e.is_constant() for e in entries)


def _random_form(algebroid, degree, rng, linear):
    chart = algebroid.chart
    w = EForm(algebroid, degree)
    for idx in w.keys():
        expr = sp.Rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if chart.dim and linear:
            coord = sp.Symbol(chart.coords[rng.randrange(chart.dim)].name,
                              real=True)
            expr = expr + sp.Rational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))) * coord
        w[idx] = chart.scalar(expr)
    return w


@criterion(2)
def test_criterion_02_differential_squares_to_zero(catalog):
    for name in CATALOG_NAMES:
        A = catalog(name).algebroid
        # coordinate-dependent coefficients exercise the Leibniz terms;
        # where the anchor/structure functions already carry the
        # coordinate dependence (the sphere restriction), constant random
        # coefficients keep the rational-function sizes affordable while
        # the differential stays fully nontrivial
        linear = _structure_is_constant(A)
        rng = random.Random(SEED)
        for degree in range(A.rank + 1):
            for _ in range(20):
                w = _random_form(A, degree, rng, linear)
                assert d_E(d_E(w)).is_structurally_zero(), \
                    f"d^2 != 0 on {name} at degree {degree}"
    # the broken bracket must produce a d^2 witness on some basis 1-form
    broken = catalog("heis_broken").algebroid
    witnesses = []
    for a in range(broken.rank):
        w = EForm(broken, 1, {(a,): 1})
        dd = d_E(d_E(w))
        if not dd.is_structurally_zero():
            witnesses.append((a, dd))
    assert witnesses, "no nonzero d^2 witness on the broken fixture"


@criterion(3)
def test_criterion_03_nijenhuis_double_computation(catalog):
    # nijenhuis() computes the tensor by frame evaluation and by the
    # coefficient formula and raises on any disagreement
    for name in CATALOG_NAMES:
        catalog(name).nijenhuis
    fx = catalog("heis_j")
    A, J = fx.algebroid, fx.J
    N = fx.nijenhuis
    e1, e2, e3 = A.frame_section(0), A.frame_section(1), A.frame_section(2)
    val = N.value(e1, e2)
    # brute-force oracle straight from the defining formula
    oracle = (bracket(J.apply(e1), J.apply(e2))
              - J.apply(bracket(e1, J.apply(e2)))
              - J.apply(bracket(J.apply(e1), e2))
              - bracket(e1, e2))
    assert (val - oracle).is_structurally_zero()
    want = e3.scale(-2)
    assert (val - want).is_structurally_zero()


@criterion(4)
def test_criterion_04_newlander_nirenberg_equivalence(catalog):
    from algebroids.jstruct import newlander_nirenberg_report

    for name in HERMITIAN_NAMES:
        rep = newlander_nirenberg_report(catalog(name))
        assert rep.all_agree, f"five statuses disagree on {name}"
        expect = name != "heis_j"
        assert rep.integrable is expect, f"unexpected verdict on {name}"
        assert all(s is expect for s in rep.statuses)


@criterion(5)
def test_criterion_05_levi_civita_certification(catalog):
    # levi_civita re-verifies T = 0 and nabla g = 0 and raises on failure
    for name in HERMITIAN_NAMES:
        catalog(name).levi_civita
    warped = catalog("warped_r4")
    conn = warped.levi_civita
    chart = warped.algebroid.chart
    x3 = chart.scalar("x3")
    want = x3 / (1 + x3 ** 2)
    assert (conn.gamma[0][2][0] - want).is_structurally_zero()
    # complex-frame coefficients agree with the transformed real ones
    for name in HERMITIAN_NAMES:
        connF = catalog(name).complex_levi_civita
        assert connF.checks.failures("formula_vs_transform") == [], \
            f"complex-frame mismatch on {name}"


@criterion(6)
def test_criterion_06_kahler_trichotomy(catalog):
    reports = {}
    for name in HERMITIAN_NAMES:
        rep = kahler_report(catalog(name))
        reports[name] = rep
        assert rep.equivalence_holds, f"biconditional fails on {name}"
        assert rep.checks.ok("fundamental_form_identity")
    assert reports["flat_r2"].status == "kahler"
    assert reports["heis_j"].status == "non-integrable"
    warped = reports["warped_r4"]
    assert warped.status == "hermitian-non-kahler"
    # hand oracle: d_E Phi = f'(x3) e3^e1^e2 = 2 x3 e1^e2^e3
    chart = catalog("warped_r4").algebroid.chart
    dphi = warped.dphi
    assert set(dphi.components) == {(0, 1, 2)}
    want = chart.scalar("2 * x3")
    assert (dphi[(0, 1, 2)] - want).is_structurally_zero()


@criterion(7)
def test_criterion_07_constant_curvature_sphere(catalog):
    fx = catalog("conformal_sphere_chart")
    conn = fx.levi_civita
    rng = random.Random(SEED)
    for direction in (fx.algebroid.frame_section(0),
                      fx.algebroid.frame_section(1)):
        K = holomorphic_sectional(fx.g, conn, fx.J, direction)
        for _ in range(NUM_POINTS):
            point = random_point(fx.algebroid.chart, rng)
            value = complex(K.eval(point))
            # sign convention: K = +1 for the round metric
            assert abs(value - 1) < TOLERANCE


@criterion(8)
def test_criterion_08_chern_forms(catalog):
    kahler_names = ["flat_r2", "flat_r4", "conformal_sphere_chart"]
    for name in kahler_names:
        bc = block_curvature(catalog(name))
        for k in (1, 2):
            rep = chern_form(bc, k)
            assert rep.checks.ok("closed"), \
                f"chern form not closed: {name}, k={k}"
            assert rep.checks.ok("trace_real"), f"trace not real: {name}, k={k}"
            assert rep.checks.ok("half_trace_equality"), \
                f"half-trace equality fails: {name}, k={k}"
            if name.startswith("flat"):
                assert rep.form.is_structurally_zero()
    # nontrivial curvature actually exercises the equality somewhere
    bc = block_curvature(catalog("conformal_sphere_chart"))
    assert not chern_form(bc, 1).form.is_structurally_zero()
    # a non-almost-complex Levi-Civita is rejected, not silently accepted
    with pytest.raises(IntegrabilityError):
        block_curvature(catalog("warped_r4"))


@criterion(9)
def test_criterion_09_product_geometry_suite(catalog):
    for name in HERMITIAN_NAMES:
        fx = catalog(name)
        assert fx.product_connection.checks.ok(), \
            f"product connection checks fail on {name}"
        sf = fx.second_fundamental
        assert sf.ok, f"second fundamental checks fail on {name}"
        assert sf.checks.ok("metric_duality"), \
            f"metric duality fails on {name}"
        mc = mean_curvature(fx)
        assert mc.zero, f"mean curvature nonzero on {name}"
        n_zero = fx.nijenhuis.is_structurally_zero()
        assert sf.b_zero == n_zero, f"B=0 iff N=0 fails on {name}"
    assert not catalog("heis_j").second_fundamental.b_zero
    assert catalog("warped_r4").second_fundamental.b_zero
    # reconstruction of N from the alternation of B, with the reported
    # proportionality constant
    suite = identity_suite(catalog("heis_j"))
    assert suite.checks.ok("n_reconstruction_proportional")
    assert suite.m19_constant is not None
    assert (suite.m19_constant - (-8)).is_structurally_zero()
    assert not suite.n_zero


@criterion(10)
def test_criterion_10_matched_pair(catalog):
    for name in INTEGRABLE_NAMES:
        rep = matched_pair_check(catalog(name))
        assert rep.ok(), f"matched-pair identities fail on {name}"
    with pytest.raises(IntegrabilityError):
        matched_pair_check(catalog("heis_j"))


@criterion(11)
def test_criterion_11_constructions(catalog):
    prolongations = {name: prolong(catalog(name).algebroid)
                     for name in CATALOG_NAMES}
    for name, p in prolongations.items():
        assert validate_structure(p.algebroid).ok(), \
            f"prolongation of {name} is invalid"
        assert p.checks.ok("lift_bracket_laws")
    # Hermitian / Kahler transfer on the flat plane
    flat = catalog("flat_r2")
    p = prolongations["flat_r2"]
    D = flat.levi_civita
    JL = p.adapted_complex_structure(D)
    gL = p.sasaki_metric(flat.g, D)
    assert hermitian_check(gL, JL).ok()
    lifted = Fixture("prolong(flat_r2)", p.algebroid, JL, gL)
    assert kahler_report(lifted).status == "kahler"
    Jc = p.complete_lift_endo(flat.J)
    sq = Jc.compose(Jc)
    for a in range(p.algebroid.rank):
        for b in range(p.algebroid.rank):
            want = -1 if a == b else 0
            assert (sq.entry(b, a) - want) \
                .is_structurally_zero()
    assert nijenhuis(p.algebroid, Jc).is_structurally_zero()
    # sphere restriction: flatness residual zero (structurally, and at
    # sampled points), restricted J integrable
    s3 = catalog("s3_projector")
    res = s3.restriction
    assert res.checks.ok("flatness")
    rng = random.Random(SEED)
    points = [random_point(s3.algebroid.chart, rng)
              for _ in range(NUM_POINTS)]
    for _, comp in res.checks.entries("flatness"):
        for point in points:
            assert abs(complex(comp.eval(point))) < TOLERANCE
    assert s3.nijenhuis.is_structurally_zero()


# ---------------------------------------------------------------------------
# criterion 12: the CLI end to end


def run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def check_json(stdout):
    report = json.loads(stdout)
    assert report["schema_version"] == 1
    return report


@criterion(12)
def test_criterion_12_cli_end_to_end(tmp_path):
    json_commands = [
        ["validate", "flat_r2"],
        ["nijenhuis", "heis_j"],
        ["nn-report", "flat_r2"],
        ["matched-pair", "flat_r2"],
        ["levi-civita", "warped_r4"],
        ["levi-civita", "flat_r2", "--complex-frame"],
        ["curvature", "conformal_sphere_chart"],
        ["sectional", "conformal_sphere_chart", "--direction", "1, 0"],
        ["kahler-report", "flat_r2"],
        ["chern", "conformal_sphere_chart", "--order", "1"],
        ["second-fundamental", "heis_j"],
        ["identity-suite", "heis_j"],
        ["prolong", "flat_r2"],
        ["product", "flat_r2", "flat_r2"],
    ]
    for argv in json_commands:
        code, stdout = run_cli(argv)
        assert code == 0, f"{argv} exited {code}"
        check_json(stdout)

    code, stdout = run_cli(["fixtures", "--list"])
    assert code == 0
    assert "heis_j" in check_json(stdout)["fixtures"]

    # restrict: flat document through the identity projector
    code, doc_text = run_cli(["emit", "flat_r2"])
    assert code == 0
    doc_path = tmp_path / "flat_r2.alg"
    doc_path.write_text(doc_text)
    proj_path = tmp_path / "identity.proj"
    proj_path.write_text(
        "[Pi]\nrow = 1, 0\nrow = 0, 1\n"
        "[lift]\nrow = 1, 0\nrow = 0, 1\n")
    code, stdout = run_cli(["restrict", str(doc_path),
                            "--projector", str(proj_path)])
    assert code == 0
    check_json(stdout)

    # round trip: emit -> parse -> emit is the identity on the text
    for name in ("heis_j", "warped_r4"):
        code, text = run_cli(["emit", name])
        assert code == 0
        fx = document_to_fixture(parse_document(text, source=name))
        assert emit_document(fx) == text
        path = tmp_path / f"{name}.alg"
        path.write_text(text)
        code, stdout = run_cli(["validate", str(path)])
        assert code == 0, f"round-tripped {name} fails validate"

    # fixed-seed determinism: identical invocations, identical reports
    argv = ["identity-suite", "heis_j", "--seed", "42", "--samples", "8"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
