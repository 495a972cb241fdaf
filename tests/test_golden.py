"""Golden outputs of the scalar layer's consumers, pinned as exact text.

`golden.json` holds the printed form of every emitted catalog document
and of every entry produced by the exact matrix algebra (metric inverses,
complex-frame expansions, the J R blocks, the complete-lift connection
and the lifted structures of the prolongation), and the `nijenhuis`,
`levi-civita` (real and complex frame), `curvature` and `second-fundamental`
reports of every catalog fixture.  A change to how scalars are represented
or normalised must leave all of it byte-identical.  To re-record after an intended change:

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import functools
import json
import os

import pytest

from algebroids.chern import block_curvature
from algebroids.cli import (
    cmd_curvature,
    cmd_levi_civita,
    cmd_nijenhuis,
    cmd_second_fundamental,
    emit_document,
)
from algebroids.constructions import CATALOG_NAMES, fixture, fixture_names, prolong
from algebroids.jstruct import IntegrabilityError
from algebroids.scalars import print_scalar
from conftest import SAMPLES, SEED

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
EMIT_NAMES = fixture_names() + ["prolong(heis_j)", "product(flat_r2, heis_j)"]


def _rows(rows):
    return [[print_scalar(e) for e in row] for row in rows]


def _form(w):
    return {",".join(map(str, key)): print_scalar(val)
            for key, val in sorted(w.components.items())}


def emitted(catalog):
    return {name: emit_document(catalog(name)) for name in EMIT_NAMES}


def metric_inverses(catalog):
    return {name: _rows(catalog(name).g.inverse) for name in CATALOG_NAMES}


def frame_expansions(catalog):
    out = {}
    for name in CATALOG_NAMES:
        fx = catalog(name)
        A = fx.algebroid
        out[name] = _rows(fx.frame.expand(A.frame_section(a))
                          for a in range(A.rank))
    return out


def block_curvatures(catalog):
    out = {}
    for name in CATALOG_NAMES:
        try:
            bc = block_curvature(catalog(name))
        except IntegrabilityError:
            out[name] = "IntegrabilityError"
            continue
        out[name] = {"R": [[_form(w) for w in row] for row in bc.R],
                     "Rstar": [[_form(w) for w in row] for row in bc.Rstar]}
    return out


def complete_lift_connection(catalog):
    fx = catalog("heis_j")
    Dc = prolong(fx.algebroid).complete_lift_connection(fx.levi_civita)
    return [_rows(layer) for layer in Dc.gamma]


def prolongation_lifts(catalog):
    """The lifted structures of prolong(heis_j), where both the structure
    functions and the Levi-Civita coefficients are nonzero."""
    fx = catalog("heis_j")
    A = fx.algebroid
    p = prolong(A)
    conn = fx.levi_civita
    return {
        "complete_lift_endo": _rows(p.complete_lift_endo(fx.J).matrix),
        "complete_lift_metric": _rows(p.complete_lift_metric(fx.g)),
        "sasaki_metric": _rows(p.sasaki_metric(fx.g, conn).matrix),
        "adapted_complex_structure":
            _rows(p.adapted_complex_structure(conn).matrix),
        "horizontal_lift": _rows(p.horizontal_lift(A.frame_section(a),
                                                   conn).components
                                 for a in range(A.rank)),
    }


def second_fundamental_reports(catalog):
    """The `second-fundamental` report and verdict of every catalog
    fixture."""
    args = argparse.Namespace(seed=SEED, samples=SAMPLES)
    out = {}
    for name in CATALOG_NAMES:
        report, ok = cmd_second_fundamental(catalog(name), args)
        out[name] = {"report": report, "ok": ok}
    return out


def component_reports(catalog):
    """The `nijenhuis`, `levi-civita` (both frames) and `curvature` reports
    and verdicts of every catalog fixture."""
    commands = {
        "nijenhuis": (cmd_nijenhuis, False),
        "levi-civita": (cmd_levi_civita, False),
        "levi-civita --complex-frame": (cmd_levi_civita, True),
        "curvature": (cmd_curvature, False),
    }
    out = {}
    for name in CATALOG_NAMES:
        out[name] = {}
        for command, (handler, complex_frame) in commands.items():
            args = argparse.Namespace(seed=SEED, samples=SAMPLES,
                                      complex_frame=complex_frame)
            report, ok = handler(catalog(name), args)
            out[name][command] = {"report": report, "ok": ok}
    return out


SECTIONS = {
    "emit_document": emitted,
    "metric_inverse": metric_inverses,
    "frame_expand": frame_expansions,
    "block_curvature": block_curvatures,
    "complete_lift_connection": complete_lift_connection,
    "prolongation_lifts": prolongation_lifts,
    "second_fundamental_reports": second_fundamental_reports,
    "component_reports": component_reports,
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_golden(catalog, golden, section):
    assert SECTIONS[section](catalog) == golden[section]


if __name__ == "__main__":
    catalog = functools.cache(fixture)
    data = {section: compute(catalog) for section, compute in SECTIONS.items()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
