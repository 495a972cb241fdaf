"""Command line interface: document format, subcommands, JSON reports.

Document format (line oriented, ``#`` comments)::

    [chart]
    name = my_algebroid        # optional
    coords = x1, x2
    [anchor]                   # one `row =` line per frame section
    row = 1, 0
    row = 0, 1
    [bracket]                  # 1-based:  a b c = C^c_ab
    1 2 3 = 2
    [J]                        # optional, row b of J^b_a
    row = 0, -1
    row = 1, 0
    [metric]                   # optional
    row = 1, 0
    row = 0, 1

Reports are JSON (``schema_version`` 1) on stdout; a one-line human
status goes to stderr (colored when ``ALG_COLOR=1``).  Exit codes:
0 success, 1 check failed, 2 invalid input, 3 precondition unmet,
4 internal inconsistency (an internal cross-check found a nonzero
residual; one ``internal inconsistency: <check> at <index>`` line goes to
stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from algebroids.algebroid import (
    Algebroid,
    InconsistencyError,
    PreconditionError,
    Section,
    validate_structure,
)
from algebroids.chern import block_curvature, chern_form
from algebroids.connections import (
    Metric,
    curvature_components,
    holomorphic_sectional,
    kahler_report,
    levi_civita,  # unused; bench/test_harness.py checks tracing patches it
)
from algebroids.constructions import (
    Fixture,
    direct_product,
    fixture,
    fixture_names,
    projector_restriction,
    prolong,
)
from algebroids.jstruct import (
    NN_CHECKS,
    almost_complex_structure,
    matched_pair_check,
    newlander_nirenberg_report,
)
from algebroids.prodgeom import identity_suite, mean_curvature
from algebroids.scalars import Chart, ChartError, Scalar, print_scalar

SCHEMA_VERSION = 1

__all__ = ["main", "DocumentError", "AlgebroidDocument", "load",
           "parse_document", "emit_document"]


class DocumentError(Exception):
    """Malformed document; carries source name and line number."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line
        self.message = message


@dataclass
class AlgebroidDocument:
    name: str
    coords: List[str]
    anchor_rows: List[List[str]]
    bracket_entries: List[Tuple[int, int, int, str]]  # 0-based (a, b, c)
    j_rows: Optional[List[List[str]]] = None
    metric_rows: Optional[List[List[str]]] = None
    source: str = "<doc>"
    # (section, index) -> line number of that row or bracket entry, with
    # section "anchor", "bracket", "J" or "metric"
    lines: Dict[Tuple[str, int], int] = field(default_factory=dict)


def _split_entries(text: str) -> List[str]:
    # an empty row is the anchor row of a chart with no coordinates
    return [part.strip() for part in text.split(",")] if text.strip() else []


def _section_lines(text: str, source: str, known: Tuple[str, ...],
                   rows: Tuple[str, ...]):
    """(line number, section, key, value) for each `key = value` line of
    ``text``, `#` comments stripped, and (line number, section, None, None)
    for each `[section]` header.  A section outside ``known`` is refused,
    and so is a line of a section in ``rows`` whose key is not `row`."""
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in known:
                raise DocumentError(source, lineno,
                                    f"unknown section [{current}]")
            yield lineno, current, None, None
            continue
        if current is None:
            raise DocumentError(source, lineno,
                                "content before any [section] header")
        if "=" not in line:
            raise DocumentError(source, lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if current in rows and key != "row":
            raise DocumentError(source, lineno,
                                f"[{current}] lines must be 'row = ...'")
        yield lineno, current, key, value.strip()


def parse_document(text: str, source: str = "<doc>") -> AlgebroidDocument:
    name = None
    coords: Optional[List[str]] = None
    sections = {"anchor": [], "J": [], "metric": []}
    brackets: List[Tuple[int, int, int, str]] = []
    lines: Dict[Tuple[str, int], int] = {}
    known = ("chart", "anchor", "bracket", "J", "metric")
    for lineno, current, key, value in _section_lines(text, source, known,
                                                      tuple(sections)):
        if key is None:
            continue
        if current == "chart":
            if key == "name":
                name = value
            elif key == "coords":
                coords = [c for c in value.replace(",", " ").split() if c]
            else:
                raise DocumentError(source, lineno,
                                    f"unknown chart key {key!r}")
        elif current in sections:
            lines[(current, len(sections[current]))] = lineno
            sections[current].append(_split_entries(value))
        else:  # bracket
            parts = key.split()
            if len(parts) != 3:
                raise DocumentError(
                    source, lineno,
                    "bracket entries have the form 'a b c = expression'")
            try:
                a, b, c = (int(p) for p in parts)
            except ValueError:
                raise DocumentError(source, lineno,
                                    "bracket indices must be integers")
            if min(a, b, c) < 1:
                raise DocumentError(source, lineno,
                                    "bracket indices are 1-based")
            lines[("bracket", len(brackets))] = lineno
            brackets.append((a - 1, b - 1, c - 1, value))
    if coords is None:
        raise DocumentError(source, 0, "missing [chart] coords")
    if not sections["anchor"]:
        raise DocumentError(source, 0, "missing [anchor] rows")
    return AlgebroidDocument(
        name=name or "document",
        coords=coords,
        anchor_rows=sections["anchor"],
        bracket_entries=brackets,
        j_rows=sections["J"] or None,
        metric_rows=sections["metric"] or None,
        source=source,
        lines=lines,
    )


def load(path: str) -> AlgebroidDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(path, 0, f"cannot read document: {exc}")
    return parse_document(text, source=path)


def document_to_fixture(doc: AlgebroidDocument) -> Fixture:
    try:
        chart = Chart(doc.name, doc.coords)
    except ChartError as exc:
        raise DocumentError(doc.source, 0, str(exc))
    rank = len(doc.anchor_rows)
    dim = chart.dim

    def scal(text: str, what: str, entry: Tuple[str, int]) -> Scalar:
        try:
            return chart.scalar(text)
        except Exception as exc:
            raise DocumentError(doc.source, doc.lines.get(entry, 0),
                                f"{what}: {exc}")

    anchor = []
    for a, row in enumerate(doc.anchor_rows):
        if len(row) != dim:
            raise DocumentError(doc.source, doc.lines.get(("anchor", a), 0),
                                f"anchor row {a + 1} has {len(row)} entries, "
                                f"chart has {dim} coordinates")
        anchor.append([scal(v, f"anchor row {a + 1}", ("anchor", a))
                       for v in row])
    cdict = {}
    for k, (a, b, c, expr) in enumerate(doc.bracket_entries):
        line = doc.lines.get(("bracket", k), 0)
        what = f"bracket {a + 1} {b + 1} {c + 1}"
        if max(a, b, c) >= rank:
            raise DocumentError(doc.source, line,
                                f"bracket index out of range for rank {rank}")
        if a == b:
            raise DocumentError(doc.source, line,
                                f"{what}: [e_a, e_a] = 0 takes no entry")
        # each entry is stored once, at a < b: [e_b, e_a] = -[e_a, e_b]
        key = (min(a, b), max(a, b), c)
        if key in cdict:
            raise DocumentError(doc.source, line,
                                f"{what}: a second entry for this bracket")
        value = scal(expr, what, ("bracket", k))
        cdict[key] = value if a < b else -value
    A = Algebroid(chart, rank, anchor, cdict)

    def square(section: str, rows: Optional[List[List[str]]], build):
        """``build(A, entries)`` of a rank x rank section; whole-matrix
        errors point at the first row of the section."""
        if rows is None:
            return None
        line = doc.lines.get((section, 0), 0)
        if len(rows) != rank or any(len(r) != rank for r in rows):
            raise DocumentError(doc.source, line,
                                f"[{section}] must be a rank x rank matrix")
        entries = [[scal(v, section, (section, a)) for v in row]
                   for a, row in enumerate(rows)]
        try:
            return build(A, entries)
        except ValueError as exc:
            raise DocumentError(doc.source, line, f"{section}: {exc}")

    return Fixture(doc.name, A,
                   square("J", doc.j_rows, almost_complex_structure),
                   square("metric", doc.metric_rows, Metric))


def emit_document(fx: Fixture) -> str:
    A = fx.algebroid
    lines = ["[chart]", f"name = {fx.name}",
             "coords = " + ", ".join(c.name for c in A.chart.coords),
             "[anchor]"]
    for a in range(A.rank):
        lines.append("row = " + ", ".join(print_scalar(A.anchor[a][i])
                                          for i in range(A.chart.dim)))
    entries = []
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            for c in range(A.rank):
                val = A.C[c][a][b]
                if not val.is_structurally_zero():
                    entries.append(f"{a + 1} {b + 1} {c + 1} = "
                                   + print_scalar(val))
    if entries:
        lines.append("[bracket]")
        lines.extend(entries)
    if fx.J is not None:
        lines.append("[J]")
        for b in range(A.rank):
            lines.append("row = " + ", ".join(print_scalar(fx.J.entry(b, a))
                                              for a in range(A.rank)))
    if fx.g is not None:
        lines.append("[metric]")
        for a in range(A.rank):
            lines.append("row = " + ", ".join(print_scalar(fx.g.entry(a, b))
                                              for b in range(A.rank)))
    return "\n".join(lines) + "\n"


def resolve_source(source: str) -> Fixture:
    """A fixture name from the catalog, or a path to a document."""
    base = source.split("(", 1)[0]
    if base in fixture_names() or base in ("prolong", "product"):
        try:
            return fixture(source)
        except KeyError as exc:
            raise DocumentError(source, 0, exc.args[0])
    if os.path.exists(source):
        return document_to_fixture(load(source))
    raise DocumentError(source, 0,
                        "not a known fixture name and not a readable file")


# ---------------------------------------------------------------------------
# report plumbing


def _status(ok: bool) -> str:
    return "StructurallyZero" if ok else "Fail"


def _check(name: str, ok: bool, witness=None) -> dict:
    entry = {"name": name, "status": _status(ok)}
    if witness is not None and not ok:
        entry["witness"] = witness
    return entry


def _section_str(s: Section) -> List[str]:
    return [print_scalar(c) for c in s.components]


def _form_str(w) -> dict:
    return {"^".join(str(i + 1) for i in key): print_scalar(val)
            for key, val in w.components.items()
            if not val.is_structurally_zero()}


def _emit_report(report: dict, ok: bool) -> None:
    report["schema_version"] = SCHEMA_VERSION
    report["ok"] = ok
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    color = os.environ.get("ALG_COLOR", "0") == "1"
    word = "ok" if ok else "FAILED"
    if color:
        word = f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
    print(f"{report.get('command', '?')} {report.get('source', '?')}: {word}",
          file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report_dict, ok_flag, exit_code)


def _need(fx: Fixture, j: bool = False, g: bool = False) -> None:
    if j and fx.J is None:
        raise PreconditionError("this command needs a [J] section")
    if g and fx.g is None:
        raise PreconditionError("this command needs a [metric] section")


def cmd_validate(fx: Fixture, args) -> Tuple[dict, bool]:
    rep = validate_structure(fx.algebroid)
    checks = [_check(name, rep.ok(name))
              for name in ("anchor_morphism", "antisymmetry", "jacobi")]
    witnesses = [{"indices": list(w.index),
                  "residual": print_scalar(w.residual)}
                 for w in rep.failures()[:5]]
    return ({"checks": checks, "witnesses": witnesses}, rep.ok())


def cmd_nijenhuis(fx: Fixture, args) -> Tuple[dict, bool]:
    _need(fx, j=True)
    N = fx.nijenhuis
    return ({"components": _components(N.components),
             "zero": N.is_structurally_zero(),
             "checks": [_check("dual_route_agreement",
                               N.checks.ok("dual_route_agreement"))]}, True)


def cmd_nn_report(fx: Fixture, args) -> Tuple[dict, bool]:
    _need(fx, j=True)
    rep = newlander_nirenberg_report(fx)
    return ({"statuses": dict(zip(NN_CHECKS, rep.statuses)),
             "all_agree": rep.all_agree,
             "integrable": rep.integrable,
             "checks": [_check("five_statuses_agree", rep.all_agree)]},
            rep.all_agree)


def cmd_matched_pair(fx: Fixture, args) -> Tuple[dict, bool]:
    _need(fx, j=True)
    rep = matched_pair_check(fx)
    checks = [_check(name, rep.ok(name)) for name in ("mp1", "mp2", "mp3")]
    return ({"checks": checks}, rep.ok())


def cmd_levi_civita(fx: Fixture, args) -> Tuple[dict, bool]:
    _need(fx, g=True)
    if args.complex_frame:
        _need(fx, j=True)
        conn = fx.complex_levi_civita
        mismatches = conn.checks.failures("formula_vs_transform")
        ok = not mismatches
        return ({"frame": "complex", "gamma": _components(conn.gamma),
                 "checks": [_check("formula_vs_transform", ok,
                                   witness=[str((w.index, w.residual))
                                            for w in mismatches[:5]])]},
                ok)
    conn = fx.levi_civita
    return ({"frame": "real", "gamma": _components(conn.gamma),
             "checks": [_check(name, conn.checks.ok(name))
                        for name in ("torsion_free", "metric_compatible")]},
            True)


def _components(table, key: str = "") -> dict:
    """The nonzero entries of a nested table T[c][a][b].. under 1-based
    keys "c_ab.."."""
    if isinstance(table, Scalar):
        if table.is_structurally_zero():
            return {}
        return {key: print_scalar(table)}
    out = {}
    for k, entry in enumerate(table, start=1):
        out.update(_components(entry, f"{key}{k}" if key else f"{k}_"))
    return out


def cmd_curvature(fx: Fixture, args) -> Tuple[dict, bool]:
    _need(fx, g=True)
    out = _components(curvature_components(fx.levi_civita))
    return ({"components": out, "zero": not out}, True)


def cmd_sectional(fx: Fixture, args) -> Tuple[dict, bool]:
    _need(fx, j=True, g=True)
    chart = fx.algebroid.chart
    try:
        comps = [chart.scalar(v) for v in _split_entries(args.direction)]
    except Exception as exc:
        raise DocumentError("--direction", 0, str(exc))
    if len(comps) != fx.algebroid.rank:
        raise DocumentError("--direction", 0,
                            f"need {fx.algebroid.rank} components")
    s = Section(fx.algebroid, comps)
    try:
        K = holomorphic_sectional(fx.g, fx.levi_civita, fx.J, s)
    except ZeroDivisionError as exc:
        raise PreconditionError(str(exc))
    return ({"direction": args.direction, "K": print_scalar(K)}, True)


def cmd_kahler_report(fx: Fixture, args) -> Tuple[dict, bool]:
    _need(fx, j=True, g=True)
    rep = kahler_report(fx)
    identity_ok = rep.checks.ok("fundamental_form_identity")
    ok = rep.equivalence_holds and identity_ok
    return ({"status": rep.status,
             "nijenhuis_zero": rep.nijenhuis_zero,
             "dphi_zero": rep.dphi_zero,
             "lc_almost_complex": rep.lc_almost_complex,
             "dphi": _form_str(rep.dphi),
             "checks": [_check("equivalence", rep.equivalence_holds),
                        _check("fundamental_form_identity", identity_ok)]},
            ok)


def cmd_chern(fx: Fixture, args) -> Tuple[dict, bool]:
    _need(fx, j=True, g=True)
    rep = chern_form(block_curvature(fx), args.order)
    checks = [_check(name, rep.checks.ok(name))
              for name in ("closed", "half_trace_equality", "trace_real")]
    ok = all(c["status"] == "StructurallyZero" for c in checks)
    out = {"order": rep.order, "form": _form_str(rep.form), "checks": checks}
    if rep.factor is not None:
        out["factor"] = print_scalar(rep.factor)
    return (out, ok)


def cmd_second_fundamental(fx: Fixture, args) -> Tuple[dict, bool]:
    _need(fx, j=True, g=True)
    sf = fx.second_fundamental
    mc = mean_curvature(fx)
    b = {}
    m = sf.F.m
    for mu in range(2 * m):
        for nu in range(2 * m):
            s = sf.B[mu][nu]
            if not s.is_structurally_zero():
                b[f"{mu + 1},{nu + 1}"] = _section_str(s)
    checks = [
        _check("product_connection", fx.product_connection.checks.ok()),
        _check("gauss_weingarten", sf.checks.ok("gauss", "weingarten")),
        _check("local_displays",
               sf.checks.ok("vanishing", "local_B", "local_W")),
        _check("metric_duality", sf.checks.ok("metric_duality")),
        _check("mean_curvature_zero", mc.zero),
    ]
    ok = all(c["status"] == "StructurallyZero" for c in checks)
    return ({"B": b, "b_zero": sf.b_zero,
             "verbatim_duality": sf.checks.ok("verbatim_duality"),
             "checks": checks}, ok)


def cmd_identity_suite(fx: Fixture, args) -> Tuple[dict, bool]:
    _need(fx, j=True, g=True)
    rep = identity_suite(fx)
    out = {
        "constants": {
            "nijenhuis_pairing": (print_scalar(rep.m16_constant)
                                  if rep.m16_constant is not None else None),
            "dphi_pairing": (print_scalar(rep.m17_constant)
                             if rep.m17_constant is not None else None),
            "n_from_b": (print_scalar(rep.m19_constant)
                         if rep.m19_constant is not None else None),
        },
        "b_zero": rep.b_zero,
        "n_zero": rep.n_zero,
        "checks": [_check(name, rep.checks.ok(name)) for name in (
            "im_re_relation", "nijenhuis_pairing_proportional",
            "dphi_pairing_proportional", "j_anti_invariance",
            "n_reconstruction_proportional", "eigenbundle_isotropy")]
        + [_check("geodesic_iff_hermitian", rep.geodesic_iff_hermitian)],
    }
    return (out, rep.ok)


def cmd_prolong(fx: Fixture, args) -> Tuple[dict, bool]:
    p = prolong(fx.algebroid)
    checks = [
        _check("validate", validate_structure(p.algebroid).ok()),
        _check("lift_bracket_laws", p.checks.ok("lift_bracket_laws")),
    ]
    out = {"rank": p.algebroid.rank,
           "coords": [c.name for c in p.chart.coords]}
    if fx.J is not None:
        Jc = p.complete_lift_endo(fx.J)
        sq = Jc.compose(Jc)
        ok_sq = all((sq.entry(b, a) + (1 if a == b else 0))
                    .is_structurally_zero()
                    for a in range(p.algebroid.rank)
                    for b in range(p.algebroid.rank))
        checks.append(_check("complete_lift_J_squares_to_minus_id", ok_sq))
    out["checks"] = checks
    ok = all(c["status"] == "StructurallyZero" for c in checks)
    return (out, ok)


def cmd_product(fx: Fixture, args) -> Tuple[dict, bool]:
    other = resolve_source(args.other)
    prod = direct_product(fx.algebroid, other.algebroid,
                          fx.J, other.J, fx.g, other.g)
    valid = validate_structure(prod.algebroid).ok()
    out = {"rank": prod.algebroid.rank,
           "coords": [c.name for c in prod.algebroid.chart.coords],
           "has_J": prod.J is not None, "has_metric": prod.g is not None,
           "checks": [_check("validate", valid)]}
    return (out, valid)


def cmd_restrict(fx: Fixture, args) -> Tuple[dict, bool]:
    A = fx.algebroid
    if not all(c.is_structurally_zero() for layer in A.C for row in layer
               for c in row):
        raise PreconditionError("restrict needs a trivial ambient bracket")
    pdoc, lines = _load_matrix_file(args.projector, A.chart)
    for name in ("Pi", "lift"):
        if name not in pdoc:
            raise DocumentError(args.projector, 0, f"missing [{name}] section")
    shapes = {"Pi": (A.rank, A.rank), "lift": (A.rank, A.chart.dim),
              "J": (A.rank, A.rank)}
    for name, (rows, cols) in shapes.items():
        M = pdoc.get(name)
        if M is not None and (len(M) != rows
                              or any(len(row) != cols for row in M)):
            raise DocumentError(args.projector, lines[name],
                                f"[{name}] must be a {rows} x {cols} matrix")
    try:
        res = projector_restriction(A.chart, A.anchor, pdoc["Pi"],
                                    pdoc["lift"], ambient_J=pdoc.get("J"))
    except ValueError as exc:
        raise PreconditionError(str(exc))
    checks = [
        _check("validate", validate_structure(res.algebroid).ok()),
        _check("anchor_morphism", res.checks.ok("derived_anchor_morphism")),
        _check("flatness", res.checks.ok("flatness")),
    ]
    j_commutes = res.checks.ok("J_commutes") if res.J is not None else None
    out = {"rank": res.algebroid.rank, "J_commutes": j_commutes,
           "checks": checks}
    ok = all(c["status"] == "StructurallyZero" for c in checks)
    return (out, ok)


def _load_matrix_file(path: str, chart: Chart) -> Tuple[dict, dict]:
    """Sections [Pi], [lift], [J] of `row = ...` lines, and the line of
    each section's first row (of its header while it has none)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(path, 0, f"cannot read projector file: {exc}")
    out: dict = {}
    lines: dict = {}
    known = ("Pi", "lift", "J")
    for lineno, section, key, value in _section_lines(text, path, known,
                                                      known):
        rows = out.setdefault(section, [])
        if key is None:
            lines.setdefault(section, lineno)
            continue
        if not rows:
            lines[section] = lineno
        try:
            rows.append([chart.scalar(v) for v in _split_entries(value)])
        except Exception as exc:
            raise DocumentError(path, lineno, str(exc))
    return out, lines


def cmd_emit(fx: Fixture, args) -> Tuple[dict, bool]:
    sys.stdout.write(emit_document(fx))
    return (None, True)


# ---------------------------------------------------------------------------


@functools.cache  # parsing leaves the parser unchanged, so build it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroid",
        description="Symbolic calculus on almost complex Lie algebroids "
                    "over coordinate charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("source",
                        help="fixture name (see `fixtures --list`) or "
                             "document path")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--samples", type=int, default=8)

    sub.add_parser("validate", parents=[common])
    sub.add_parser("nijenhuis", parents=[common])
    sub.add_parser("nn-report", parents=[common])
    sub.add_parser("matched-pair", parents=[common])
    p = sub.add_parser("levi-civita", parents=[common])
    p.add_argument("--complex-frame", action="store_true")
    sub.add_parser("curvature", parents=[common])
    p = sub.add_parser("sectional", parents=[common])
    p.add_argument("--direction", required=True,
                   help="comma-separated section components")
    sub.add_parser("kahler-report", parents=[common])
    p = sub.add_parser("chern", parents=[common])
    p.add_argument("--order", type=int, default=1)
    sub.add_parser("second-fundamental", parents=[common])
    sub.add_parser("identity-suite", parents=[common])
    sub.add_parser("prolong", parents=[common])
    p = sub.add_parser("product", parents=[common])
    p.add_argument("other", help="second factor: fixture name or document")
    p = sub.add_parser("restrict", parents=[common])
    p.add_argument("--projector", required=True,
                   help="file with [Pi], [lift] and optional [J] sections")
    p = sub.add_parser("fixtures")
    p.add_argument("--list", action="store_true")
    sub.add_parser("emit", parents=[common])
    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "nijenhuis": cmd_nijenhuis,
    "nn-report": cmd_nn_report,
    "matched-pair": cmd_matched_pair,
    "levi-civita": cmd_levi_civita,
    "curvature": cmd_curvature,
    "sectional": cmd_sectional,
    "kahler-report": cmd_kahler_report,
    "chern": cmd_chern,
    "second-fundamental": cmd_second_fundamental,
    "identity-suite": cmd_identity_suite,
    "prolong": cmd_prolong,
    "product": cmd_product,
    "restrict": cmd_restrict,
    "emit": cmd_emit,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fixtures":
        report = {"schema_version": SCHEMA_VERSION, "command": "fixtures",
                  "fixtures": fixture_names(), "ok": True}
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    try:
        if args.command == "chern" and args.order < 1:
            raise DocumentError("--order", 0, "must be at least 1")
        fx = resolve_source(args.source)
        report, ok = _HANDLERS[args.command](fx, args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition unmet: {exc}", file=sys.stderr)
        return 3
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    if report is None:   # emit writes raw text
        return 0
    report["command"] = args.command
    report["source"] = args.source
    report["seed"] = args.seed
    report["samples"] = args.samples
    _emit_report(report, ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
