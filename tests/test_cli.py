"""Document parser, exit codes and JSON reports of the command line tool."""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import connections, jstruct
from algebroids.cli import (
    DocumentError,
    build_parser,
    document_to_fixture,
    emit_document,
    main,
    parse_document,
)
from algebroids.constructions import fixture_names
from test_scalars import GRAMMAR


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


MINIMAL_DOC = "[chart]\nname = t\ncoords = x1\n[anchor]\nrow = 1\n"


def test_parse_document_errors():
    cases = [
        ("[nope]\n", "unknown section"),
        ("name = t\n", "before any"),
        ("[chart]\nname = t\n[anchor]\nrow = 1\n", "missing [chart] coords"),
        ("[chart]\ncoords = x1\n", "missing [anchor]"),
        ("[chart]\ncoords = x1\n[anchor]\nrow = 1\n[bracket]\n1 2 = 1\n",
         "a b c"),
        ("[chart]\ncoords = x1\n[anchor]\nrow = 1\n[bracket]\n1 q 2 = 1\n",
         "integers"),
        ("[chart]\ncoords = x1\n[anchor]\nrow = 1\n[bracket]\n0 1 2 = 1\n",
         "1-based"),
        ("[chart]\ncoords = x1\n[anchor]\nnotrow\n", "key = value"),
    ]
    for text, needle in cases:
        with pytest.raises(DocumentError) as exc:
            parse_document(text, source="case.alg")
        assert needle in str(exc.value)


def test_parse_error_reports_line_number():
    with pytest.raises(DocumentError) as exc:
        parse_document("[chart]\ncoords = x1\n[oops]\n", source="f.alg")
    assert "f.alg:3" in str(exc.value)


def test_document_entry_errors_name_their_line():
    body = ("[chart]\ncoords = x1\n[anchor]\nrow = 1\nrow = 0\n"
            "[bracket]\n1 2 1 = x1\n1 2 3 = 1\n")
    for text, line in (
            (body.replace("row = 0", "row = 0, 1"), 5),
            (body.replace("row = 0", "row = x9"), 5),
            (body, 8),
            (body.replace("1 = x1", "1 = 1/(x1 - x1)"), 7),
            (MINIMAL_DOC + "[metric]\nrow = y\n", 7),
            (MINIMAL_DOC + "[J]\nrow = y\n", 7)):
        with pytest.raises(DocumentError) as exc:
            document_to_fixture(parse_document(text, source="doc.alg"))
        assert exc.value.line == line, text


def test_document_to_fixture_shape_errors():
    doc = parse_document(MINIMAL_DOC + "[J]\nrow = 1\nrow = 1\n")
    with pytest.raises(DocumentError):
        document_to_fixture(doc)
    doc = parse_document("[chart]\ncoords = x1\n[anchor]\nrow = 1, 0\n")
    with pytest.raises(DocumentError):
        document_to_fixture(doc)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_exit_code_check_failure():
    code, out, err = run_cli(["validate", "heis_broken"])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["witnesses"]
    assert "FAILED" in err


def test_exit_code_precondition_failures(tmp_path):
    # non-integrable structure rejected by the matched-pair machinery
    code, _, err = run_cli(["matched-pair", "heis_j"])
    assert code == 3 and "precondition" in err
    # Chern forms need an almost complex (Kahler) Levi-Civita connection
    code, _, _ = run_cli(["chern", "warped_r4"])
    assert code == 3
    # a document without [J] cannot answer J-dependent questions
    doc = tmp_path / "bare.alg"
    doc.write_text(MINIMAL_DOC)
    code, _, err = run_cli(["kahler-report", str(doc)])
    assert code == 3 and "[J]" in err
    # restrict needs a trivial ambient bracket
    proj = tmp_path / "id.proj"
    proj.write_text("[Pi]\nrow = 1, 0, 0, 0\nrow = 0, 1, 0, 0\n"
                    "row = 0, 0, 1, 0\nrow = 0, 0, 0, 1\n"
                    "[lift]\nrow = 1\nrow = 0\nrow = 0\nrow = 0\n")
    code, _, _ = run_cli(["restrict", "heis_j", "--projector", str(proj)])
    assert code == 3
    # a metric that is not J-invariant fails the one Hermitian guard
    _, text, _ = run_cli(["emit", "heis_j"])
    doc = tmp_path / "non_hermitian.alg"
    doc.write_text(text.split("[metric]")[0]
                   + "[metric]\nrow = 1, 0, 0, 0\nrow = 0, 2, 0, 0\n"
                   "row = 0, 0, 3, 0\nrow = 0, 0, 0, 4\n")
    for argv in (["kahler-report", str(doc)],
                 ["levi-civita", str(doc), "--complex-frame"],
                 ["identity-suite", str(doc)],
                 ["second-fundamental", str(doc)]):
        code, out, err = run_cli(argv)
        assert code == 3 and "not Hermitian" in err, argv
        assert out == ""
    # a base that fails its structure equations has no prolongation
    for argv in (["prolong", "heis_broken"],
                 ["validate", "prolong(heis_broken)"]):
        code, out, err = run_cli(argv)
        assert code == 3 and out == "", argv
        assert err.startswith("precondition unmet:"), argv


def test_exit_code_internal_inconsistency(monkeypatch):
    # a torsion table with one nonzero entry fails the Levi-Civita
    # re-verification, which is an internal cross-check
    torsion = connections.torsion

    def broken(conn):
        T = [[list(row) for row in layer] for layer in torsion(conn)]
        T[0][0][1] = conn.algebroid.chart.one
        return T

    monkeypatch.setattr(connections, "torsion", broken)
    code, out, err = run_cli(["levi-civita", "flat_r2"])
    assert code == 4 and out == ""
    assert err == "internal inconsistency: torsion_free at (0, 0, 1)\n"


def test_exit_code_document_errors(tmp_path):
    code, _, err = run_cli(["validate", "no_such_fixture"])
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.alg"
    bad.write_text("[chart]\ncoords = x1\n[anchor]\ngarbage\n")
    code, _, _ = run_cli(["validate", str(bad)])
    assert code == 2
    code, _, err = run_cli(["sectional", "flat_r2", "--direction", "1"])
    assert code == 2 and "2 components" in err
    code, out, err = run_cli(["chern", "flat_r2", "--order", "0"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    # a structurally zero base to a negative power, as anchor and as metric
    hidden_zero = "((x1+1)^2 - x1^2 - 2*x1 - 1)^(-1)"
    for name, text in (
            ("anchor.alg", f"[chart]\ncoords = x1\n[anchor]\nrow = {hidden_zero}\n"),
            ("metric.alg", "[chart]\ncoords = x1\n[anchor]\nrow = 1\n"
                           f"[metric]\nrow = {hidden_zero}\n")):
        doc = tmp_path / name
        doc.write_text(text)
        for command in ("validate", "kahler-report"):
            code, out, err = run_cli([command, str(doc)])
            assert code == 2 and out == "", (name, command)
            assert err.startswith("error:") and err.count("\n") == 1
            assert "structurally zero" in err, (name, command)
    # an entry error names the line of its row
    row_error = tmp_path / "row_error.alg"
    row_error.write_text("[chart]\ncoords = x1, x2\n[anchor]\nrow = 1, 0\n"
                         "row = 0, 1/((x1+1)^2 - x1^2 - 2*x1 - 1)\n")
    code, out, err = run_cli(["validate", str(row_error)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {row_error}:5: anchor row 2: ")
    assert err.count("\n") == 1
    # projector matrices whose shapes do not fit the ambient fixture
    proj = tmp_path / "rank2.proj"
    proj.write_text("[Pi]\nrow = 1, 0\nrow = 0, 1\n"
                    "[lift]\nrow = 1, 0\nrow = 0, 1\n")
    short_lift = tmp_path / "short_lift.proj"
    short_lift.write_text("[Pi]\nrow = 1, 0\nrow = 0, 1\n"
                          "[lift]\nrow = 1\nrow = 0\n")
    for argv, section in (
            (["restrict", "flat_r4", "--projector", str(proj)], "[Pi]"),
            (["restrict", "flat_r2", "--projector", str(short_lift)],
             "[lift]")):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
        assert section in err, argv


def test_fixtures_list():
    code, out, _ = run_cli(["fixtures", "--list"])
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["fixtures"] == fixture_names()


def test_report_schema_fields():
    code, out, err = run_cli(["validate", "flat_r2", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    for key in ("schema_version", "command", "source", "seed", "samples",
                "ok", "checks"):
        assert key in report
    assert report["seed"] == 7
    assert report["ok"] is True
    assert err.strip().endswith("ok")


def test_emit_round_trip(tmp_path):
    code, text, _ = run_cli(["emit", "heis_j"])
    assert code == 0
    fx = document_to_fixture(parse_document(text, source="emitted"))
    assert emit_document(fx) == text
    # the emitted document is accepted end to end
    doc = tmp_path / "heis.alg"
    doc.write_text(text)
    code, out, _ = run_cli(["validate", str(doc)])
    assert code == 0 and json.loads(out)["ok"] is True


def test_sectional_constant_curvature():
    code, out, _ = run_cli(["sectional", "conformal_sphere_chart",
                            "--direction", "1, 0"])
    assert code == 0
    assert json.loads(out)["K"] == "1"


def test_deterministic_reports():
    argv = ["second-fundamental", "flat_r2", "--samples", "4", "--seed", "11"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    assert first[0] == 0


HALF_PLANE_DOC = """\
# Poincare half-plane: standard J, metric (dx1^2 + dx2^2) / x1^2
[chart]
name = halfplane
coords = x1, x2
[anchor]
row = 1, 0
row = 0, 1
[J]
row = 0, -1
row = 1, 0
[metric]
row = 1 / x1^2, 0
row = 0, 1 / x1^2
"""


@pytest.mark.parametrize("seed", ["41", "42"])
def test_half_plane_mean_curvature_is_exact(tmp_path, seed):
    # the metric has a pole on x1 = 0, which a sampled verdict can hit
    doc = tmp_path / "halfplane.alg"
    doc.write_text(HALF_PLANE_DOC)
    code, out, err = run_cli(["second-fundamental", str(doc), "--seed", seed])
    assert code == 0
    assert "Traceback" not in err
    checks = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert checks["mean_curvature_zero"] == "StructurallyZero"


def test_each_derived_builder_runs_once_per_command(monkeypatch):
    # count calls through every module namespace that bound a builder, so
    # a rebuild anywhere in the library is seen
    builders = {"levi_civita": connections.levi_civita,
                "adapted_complex_frame": jstruct.adapted_complex_frame,
                "nijenhuis": jstruct.nijenhuis}
    calls = dict.fromkeys(builders, 0)

    def counted(name, builder):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return builder(*args, **kwargs)
        return wrapper

    for name, builder in builders.items():
        wrapper = counted(name, builder)
        for modname, module in list(sys.modules.items()):
            if (modname.startswith("algebroids")
                    and getattr(module, name, None) is builder):
                monkeypatch.setattr(module, name, wrapper)

    expected = {
        ("second-fundamental", "heis_j"):
            {"levi_civita": 1, "adapted_complex_frame": 1, "nijenhuis": 0},
        ("identity-suite", "heis_j"):
            {"levi_civita": 1, "adapted_complex_frame": 0, "nijenhuis": 1},
        ("kahler-report", "warped_r4"):
            {"levi_civita": 1, "adapted_complex_frame": 0, "nijenhuis": 1},
    }
    for argv, want in expected.items():
        calls.update(dict.fromkeys(calls, 0))
        code, _, _ = run_cli(list(argv))
        assert code == 0, argv
        assert calls == want, argv


# an entry of the expression grammar with one character replaced by a
# token that is out of place there (a comment or a separator included)
MALFORMED = st.tuples(
    GRAMMAR, st.integers(0, 40),
    st.sampled_from(list("()+*/^,=#[] ") + ["x3", "foo", ""]),
).map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:])
# complex structures on a rank-2 frame (J^2 = -1)
SQUARE_ROOTS_OF_MINUS_ONE = [[["0", "-1"], ["1", "0"]],
                             [["x1", "-1 - x1^2"], ["1", "-x1"]]]


def _rows(n, m, entry, clean):
    # an n x m matrix, or with rows of any length up to 3
    sizes = (st.just([m] * n) if clean
             else st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return sizes.flatmap(lambda ls: st.tuples(
        *[st.lists(entry, min_size=k, max_size=k) for k in ls]))


@st.composite
def documents(draw):
    # a clean document reaches the checks behind the parser; the others
    # also have malformed entries, wrong shapes or indices, or a reserved
    # coordinate name
    clean = draw(st.booleans())
    entry = GRAMMAR if clean else st.one_of(GRAMMAR, MALFORMED)
    coords = (["x1", "x2"] if clean else
              draw(st.sampled_from([["x1"], ["x1", "x2"], ["x1", "i"]])))
    rank = draw(st.integers(1, 2))
    lines = ["[chart]", "coords = " + ", ".join(coords), "[anchor]"]
    lines += ["row = " + ", ".join(r)
              for r in draw(_rows(rank, len(coords), entry, clean))]
    index = st.integers(1, rank) if clean else st.integers(0, 3)
    brackets = draw(st.lists(st.tuples(index, index, index, entry),
                             max_size=2))
    if brackets:
        lines.append("[bracket]")
        lines += ["%d %d %d = %s" % b for b in brackets]
    simple = st.one_of(st.sampled_from(["0", "-1", "1", "x1"]), entry)
    J = st.one_of(st.sampled_from(SQUARE_ROOTS_OF_MINUS_ONE),
                  _rows(rank, rank, simple, clean))
    metric = st.one_of(st.just([["1", "0"], ["0", "1"]][:rank]),
                       _rows(rank, rank, simple, clean))
    for section, rows in (("J", J), ("metric", metric)):
        if draw(st.booleans()):
            lines.append(f"[{section}]")
            lines += ["row = " + ", ".join(r) for r in draw(rows)]
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(documents(), st.sampled_from(["validate", "nijenhuis"]))
def test_random_documents_get_a_documented_exit_code(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        doc = os.path.join(tmp, "fuzz.alg")
        with open(doc, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, _, err = run_cli([command, doc])
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
