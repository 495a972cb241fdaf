"""Document parser, exit codes and JSON reports of the command line tool."""

import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import algebroid, connections, constructions, jstruct
from algebroids.cli import (
    DocumentError,
    build_parser,
    document_to_fixture,
    emit_document,
    main,
    parse_document,
)
from algebroids.constructions import fixture_names
from algebroids.scalars import Chart, parse_scalar
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
            (MINIMAL_DOC + "[J]\nrow = y\n", 7),
            # whole-matrix errors name the first row of their section
            (MINIMAL_DOC + "[J]\nrow = 1\nrow = 1\n", 7),
            (body.replace("1 2 3 = 1\n", "")
             + "[J]\n# J^2 = I\nrow = 1, 0\nrow = 0, 1\n", 10),
            (MINIMAL_DOC + "[metric]\nrow = 1, 0\n", 7),
            (MINIMAL_DOC + "[metric]\n\nrow = 0\n", 8)):
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
    # a base that fails its structure equations has no prolongation, and
    # the failed build is not kept, so a repeat fails the same way
    for argv in 2 * (["prolong", "heis_broken"],
                     ["validate", "prolong(heis_broken)"]):
        code, out, err = run_cli(argv)
        assert code == 3 and out == "", argv
        assert err.startswith("precondition unmet:"), argv
    # sympy keeps conjugate(sqrt(x1 + 1)) for a real x1, so the complex-frame
    # components of this metric fail their Hermitian symmetry
    doc = tmp_path / "sqrt_metric.alg"
    doc.write_text(SQRT_METRIC_DOC)
    for argv in (["levi-civita", str(doc), "--complex-frame"],
                 ["second-fundamental", str(doc)]):
        code, out, err = run_cli(argv)
        assert code == 3 and out == "", argv
        assert err == ("precondition unmet: Hermitian symmetry"
                       " g_ab_bar = conj(g_ba_bar) fails\n"), argv


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
    # projector matrices whose shapes do not fit the ambient fixture: the
    # error names the line of the section's first row
    proj = tmp_path / "rank2.proj"
    proj.write_text("[Pi]\nrow = 1, 0\nrow = 0, 1\n"
                    "[lift]\nrow = 1, 0\nrow = 0, 1\n")
    short_lift = tmp_path / "short_lift.proj"
    short_lift.write_text("# a comment\n[Pi]\nrow = 1, 0\nrow = 0, 1\n"
                          "[lift]\n\nrow = 1\nrow = 0\n")
    for argv, section, line in (
            (["restrict", "flat_r4", "--projector", str(proj)], "[Pi]", 2),
            (["restrict", "flat_r2", "--projector", str(short_lift)],
             "[lift]", 7)):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {argv[-1]}:{line}: "), argv
        assert err.count("\n") == 1, argv
        assert section in err, argv


def test_unknown_composite_base_is_named_without_quotes():
    # the KeyError's message, not its repr, follows the source
    for source, message in (
            ("prolong(nope)", "unknown fixture 'nope'"),
            ("product(flat_r2)",
             "product takes two fixture names: 'product(flat_r2)'")):
        code, out, err = run_cli(["validate", source])
        assert (code, out) == (2, ""), source
        assert err == f"error: {source}:0: {message}\n"


def test_repeated_projector_section_keeps_its_rows(tmp_path):
    whole = ("[Pi]\nrow = 1, 0\nrow = 0, 1\n"
             "[lift]\nrow = 1, 0\nrow = 0, 1\n")
    split = ("[Pi]\nrow = 1, 0\n"
             "[lift]\nrow = 1, 0\nrow = 0, 1\n"
             "[Pi]\nrow = 0, 1\n")
    results = []
    for name, text in (("whole.proj", whole), ("split.proj", split)):
        proj = tmp_path / name
        proj.write_text(text)
        code, out, _ = run_cli(["restrict", "flat_r2", "--projector",
                                str(proj)])
        assert code == 0, name
        report = json.loads(out)
        results.append((report["rank"], report["checks"]))
    assert results[0] == results[1]


def test_projector_rows_read_the_document_grammar(tmp_path):
    # a projector line whose key is not `row` is refused as in a document,
    # where it was once read as a row
    proj = tmp_path / "rowdy.proj"
    proj.write_text("[Pi]\nrow = 1, 0\nrowdy = 0, 1\n"
                    "[lift]\nrow = 1, 0\nrow = 0, 1\n")
    code, out, err = run_cli(["restrict", "flat_r2", "--projector",
                              str(proj)])
    assert (code, out) == (2, "")
    assert err == f"error: {proj}:3: [Pi] lines must be 'row = ...'\n"


def test_restrict_on_a_chart_without_coordinates(tmp_path):
    # an abelian Lie algebra: its anchor rows are empty, and the identity
    # projector restricts it to itself
    doc = tmp_path / "abelian.alg"
    doc.write_text("[chart]\nname = ab\ncoords =\n[anchor]\nrow =\nrow =\n")
    proj = tmp_path / "identity.proj"
    proj.write_text("[Pi]\nrow = 1, 0\nrow = 0, 1\n[lift]\nrow =\nrow =\n")
    code, out, _ = run_cli(["restrict", str(doc), "--projector", str(proj)])
    assert code == 0
    report = json.loads(out)
    assert (report["rank"], report["ok"]) == (2, True)


# three rank-1 anchors; the bracket entries go on from line 8
BRACKET_DOC = ("[chart]\ncoords = x1\n[anchor]\nrow = 0\nrow = 0\nrow = 0\n"
               "[bracket]\n")


def _run_on_brackets(tmp_path, entries, command="validate"):
    doc = tmp_path / "brackets.alg"
    doc.write_text(BRACKET_DOC + entries)
    return doc, run_cli([command, str(doc)])


def test_a_bracket_entry_with_equal_indices_is_refused(tmp_path):
    # [e_a, e_a] = 0: an entry for it once vanished without a word
    doc, (code, out, err) = _run_on_brackets(tmp_path, "1 1 1 = 1\n")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {doc}:8: bracket 1 1 1: ")


def test_a_bracket_stated_twice_is_refused(tmp_path):
    # 2 1 3 = -1 states 1 2 3 = 1 again; the two entries once added up
    doc, (code, out, err) = _run_on_brackets(tmp_path,
                                             "1 2 3 = 1\n2 1 3 = -1\n")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {doc}:9: bracket 2 1 3: ")
    # stated once, with a > b, it is stored at a < b with its sign flipped
    _, (code, out, _) = _run_on_brackets(tmp_path, "2 1 3 = -1\n", "emit")
    assert code == 0 and out.endswith("[bracket]\n1 2 3 = 1\n")


def test_contradicting_bracket_entries_are_refused(tmp_path):
    # 2 1 3 = 1 contradicts 1 2 3 = 1; the two entries once cancelled
    doc, (code, out, err) = _run_on_brackets(tmp_path,
                                             "1 2 3 = 1\n2 1 3 = 1\n")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {doc}:9: bracket 2 1 3: ")


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


# the Lie algebra aff(1): a chart with no coordinates, so every anchor row
# is empty
LIE_ALGEBRA_DOC = """\
[chart]
name = aff
coords =
[anchor]
row =
row =
[bracket]
1 2 2 = 1
[J]
row = 0, 1
row = -1, 0
[metric]
row = 1, 0
row = 0, 1
"""


def test_emit_round_trip(tmp_path):
    lie_algebra = tmp_path / "aff.alg"
    lie_algebra.write_text(LIE_ALGEBRA_DOC)
    for source in ("heis_j", str(lie_algebra)):
        code, text, _ = run_cli(["emit", source])
        assert code == 0
        fx = document_to_fixture(parse_document(text, source="emitted"))
        assert emit_document(fx) == text
        # the emitted document is accepted end to end
        doc = tmp_path / "emitted.alg"
        doc.write_text(text)
        code, out, _ = run_cli(["validate", str(doc)])
        assert code == 0 and json.loads(out)["ok"] is True


def test_sectional_constant_curvature():
    code, out, _ = run_cli(["sectional", "conformal_sphere_chart",
                            "--direction", "1, 0"])
    assert code == 0
    assert json.loads(out)["K"] == "1"


SQRT_METRIC_DOC = """\
# anchor (x1 - 1) d/dx1, d/dx2; standard J; conformal metric sqrt(x1 + 1)
[chart]
name = sqrt_metric
coords = x1, x2
[anchor]
row = x1 - 1, 0
row = 0, 1
[J]
row = 0, -1
row = 1, 0
[metric]
row = sqrt(x1 + 1), 0
row = 0, sqrt(x1 + 1)
"""


ALGEBRAIC_K_TREE_BUILT = ("(-x1 + 1)/(2*x1^2*sqrt(x1 + 1)"
                          " + 4*x1*sqrt(x1 + 1) + 2*sqrt(x1 + 1))")


def test_sectional_with_an_algebraic_atom_prints_its_pinned_tree(tmp_path):
    # rational-core values meet the sqrt(x1 + 1) trees as their expanded
    # normal forms, and beside an algebraic atom the normal form is not
    # canonical.  So K prints as below; when sympy's arithmetic built every
    # intermediate tree, the same value printed as ALGEBRAIC_K_TREE_BUILT
    doc = tmp_path / "sqrt_metric.alg"
    doc.write_text(SQRT_METRIC_DOC)
    code, out, _ = run_cli(["sectional", str(doc), "--direction", "x1 + 1, x2"])
    assert code == 0
    K = json.loads(out)["K"]
    assert K == ("(-x1*sqrt(x1 + 1) + sqrt(x1 + 1))"
                 "/(2*x1^3 + 6*x1^2 + 6*x1 + 2)")
    chart = Chart("sqrt_metric", ["x1", "x2"])
    for x1 in (3, 8, 15):  # sqrt(x1 + 1) is rational there
        point = {"x1": x1, "x2": 0}
        assert (parse_scalar(K, chart).eval(point)
                == parse_scalar(ALGEBRAIC_K_TREE_BUILT, chart).eval(point))


# one command of each shape on atom-free inputs, with its exit code; the
# levi-civita one prints Gaussian values
RATIONAL_COMMANDS = [
    (["validate", "flat_r2"], 0),
    (["kahler-report", "warped_r4"], 0),
    (["levi-civita", "conformal_sphere_chart", "--complex-frame"], 0),
    (["chern", "heis_j", "--order", "1"], 3),
    (["emit", "warped_r4"], 0),
    (["restrict", "flat_r2", "--projector", "bench/inputs/identity.proj"], 0),
]

FRESH_PROCESS = """\
import contextlib, io, json, sys
from algebroids import cli
commands, document = json.loads(sys.argv[1])
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
if document is not None:
    cli.document_to_fixture(cli.parse_document(document))
print(json.dumps([codes, "sympy" in sys.modules]))
"""


def _fresh_process(commands, document=None):
    """(exit codes, whether sympy was imported) of a fresh process that
    imports algebroids.cli and runs the commands through cli.main."""
    root = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, json.dumps([commands, document])],
        cwd=root, env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, check=True)
    return json.loads(done.stdout)


def test_the_rational_path_runs_without_sympy():
    codes, loaded = _fresh_process([argv for argv, _ in RATIONAL_COMMANDS])
    assert codes == [code for _, code in RATIONAL_COMMANDS]
    assert not loaded


def test_an_atom_imports_sympy():
    codes, loaded = _fresh_process([], SQRT_METRIC_DOC)
    assert codes == [] and loaded


# the top-level modules that `import algebroids.cli` adds to a fresh
# `python -I -S` process (CPython 3.11): every one is paid for by every
# `algebroid` command before it does any work
CLI_IMPORTS = [
    "__future__", "_ast", "_bisect", "_decimal", "_opcode", "_random",
    "_sha512", "_stat", "_typing", "_weakrefset", "algebroids", "argparse",
    "ast", "bisect", "collections", "contextlib", "copy", "dataclasses",
    "decimal", "dis", "fractions", "genericpath", "gettext", "importlib",
    "inspect", "linecache", "math", "numbers", "opcode", "os", "posixpath",
    "random", "stat", "token", "tokenize", "typing", "warnings", "weakref",
]

IMPORT_ONLY = """\
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import algebroids.cli
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_the_cli_import_adds_only_the_pinned_modules():
    # a new import-time dependency shows here, before it shows as set-up
    # time in every fresh process
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", IMPORT_ONLY,
                           str(src)], capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout) == CLI_IMPORTS


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


def _counted(monkeypatch, module, name):
    """Replace ``module.<name>`` in every algebroids module namespace that
    bound it, so a call anywhere in the library is seen; return the list
    of the argument tuples of its calls."""
    builder = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return builder(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if (modname.startswith("algebroids")
                and getattr(mod, name, None) is builder):
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_each_derived_builder_runs_once_per_fixture(monkeypatch):
    # from a cold fixture memo, the three commands build each derived
    # object at most once per fixture
    calls = {name: _counted(monkeypatch, module, name)
             for module, name in ((connections, "levi_civita"),
                                  (jstruct, "adapted_complex_frame"),
                                  (jstruct, "nijenhuis"))}
    for argv in (["second-fundamental", "heis_j"],
                 ["identity-suite", "heis_j"],
                 ["kahler-report", "warped_r4"]):
        code, _, _ = run_cli(argv)
        assert code == 0, argv
    assert Counter((name, args[0].chart.name)
                   for name, records in calls.items()
                   for args in records) == {
        ("levi_civita", "heis_j"): 1,
        ("adapted_complex_frame", "heis_j"): 1,
        ("nijenhuis", "heis_j"): 1,
        ("levi_civita", "warped_r4"): 1,
        ("nijenhuis", "warped_r4"): 1,
    }


def test_each_check_and_h_is_built_once_per_fixture(monkeypatch):
    # one pass of the Hermitian commands on one fixture runs the real-frame
    # Hermitian check, the almost-complex check of Levi-Civita and the
    # projectors of J once, and pairs each h(F_mu, F_nu) once
    calls = {name: _counted(monkeypatch, module, name)
             for module, name in ((connections, "hermitian_check"),
                                  (connections, "almost_complex_check"),
                                  (jstruct, "projectors"))}
    pairs = []
    value = connections.Metric.value

    def recorded(g, s1, s2):
        pairs.append((s1, s2))
        return value(g, s1, s2)

    monkeypatch.setattr(connections.Metric, "value", recorded)
    source = "conformal_sphere_chart"
    for argv in (["kahler-report", source],
                 ["levi-civita", source, "--complex-frame"],
                 ["chern", source, "--order", "1"],
                 ["second-fundamental", source],
                 ["identity-suite", source]):
        code, _, _ = run_cli(argv)
        assert code == 0, argv
    assert {name: len(records) for name, records in calls.items()} == {
        "hermitian_check": 1, "almost_complex_check": 1, "projectors": 1}
    F = constructions.fixture(source).frame
    slot = {id(s): mu for mu, s in enumerate(F.sections)}
    h_pairs = Counter((slot[id(s1)], slot[id(s2)]) for s1, s2 in pairs
                      if id(s1) in slot and id(s2) in slot)
    two_m = 2 * F.m
    assert h_pairs == {(mu, nu): 1 for mu in range(two_m)
                       for nu in range(two_m)}


def test_s3_projector_is_validated_once(monkeypatch):
    calls = _counted(monkeypatch, algebroid, "validate_structure")
    code, _, _ = run_cli(["validate", "s3_projector"])
    assert code == 0
    assert len(calls) == 1


SESSION_COMMANDS = [
    ["validate"], ["nijenhuis"], ["nn-report"], ["matched-pair"],
    ["levi-civita"], ["levi-civita", "--complex-frame"], ["curvature"],
    ["kahler-report"], ["chern", "--order", "1"],
    ["second-fundamental", "--seed", "3"], ["identity-suite"], ["prolong"],
]


def test_reports_on_a_shared_fixture_are_byte_identical():
    # every subcommand prints the same report whether it builds the
    # fixture and its derived objects itself or finds them already built
    # by the commands before it
    argvs = [[cmd[0], name] + cmd[1:]
             for name in ("warped_r4", "heis_j", "conformal_sphere_chart")
             for cmd in SESSION_COMMANDS]
    cold = []
    for argv in argvs:
        constructions._fixture.cache_clear()
        cold.append(run_cli(argv))
    warm = [run_cli(argv) for argv in argvs]
    for argv, first, again in zip(argvs, cold, warm):
        assert first == again, argv


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


def _assert_documented_exit_code(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        doc = os.path.join(tmp, "fuzz.alg")
        with open(doc, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, _, err = run_cli([command[0], doc] + command[1:])
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err


@settings(derandomize=True, deadline=None, max_examples=150)
@given(documents(), st.sampled_from(["validate", "nijenhuis"]))
def test_random_documents_get_a_documented_exit_code(text, command):
    _assert_documented_exit_code(text, [command])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(documents(), st.sampled_from([
    ["kahler-report"], ["levi-civita", "--complex-frame"],
    ["second-fundamental"], ["identity-suite"]]))
def test_random_documents_get_a_documented_exit_code_from_the_geometry(
        text, command):
    _assert_documented_exit_code(text, command)
