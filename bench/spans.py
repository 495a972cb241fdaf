"""Call tracing for the benchmark's traced runs, installed from outside
the program.

`Tracer.install` replaces the public functions listed in FUNCTIONS, plus
`Scalar.__init__` and `Scalar.norm_expr`, by timing wrappers.  A function
is replaced in every `algebroids` module namespace that bound it, because
modules import each other's functions by name (`cli` and `prodgeom` call
their own binding of `levi_civita`).  `Tracer.uninstall` puts every
original back.

Self time is computed online on a frame stack: a call's self time is its
duration minus the durations of the traced calls it made.  Spans (name,
start, end, parent span) are kept in memory for the coarse functions and
written once, by `Tracer.dump`.  The leaf functions of HOT_NAMES run up to
millions of times per session, so only their counts and self times are
kept.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (defining module, attribute, metric prefix)
FUNCTIONS = [
    ("algebroids.scalars", "parse_scalar", "scalars.parse_scalar"),
    ("algebroids.constructions", "fixture", "constructions.fixture"),
    ("algebroids.constructions", "projector_restriction",
     "constructions.projector_restriction"),
    ("algebroids.constructions", "prolong", "constructions.prolong"),
    ("algebroids.constructions", "direct_product",
     "constructions.direct_product"),
    ("algebroids.algebroid", "validate_structure",
     "algebroid.validate_structure"),
    ("algebroids.algebroid", "bracket", "algebroid.bracket"),
    ("algebroids.eforms", "d_E", "eforms.d_E"),
    ("algebroids.eforms", "wedge", "eforms.wedge"),
    ("algebroids.jstruct", "nijenhuis", "jstruct.nijenhuis"),
    ("algebroids.jstruct", "adapted_complex_frame",
     "jstruct.adapted_complex_frame"),
    ("algebroids.jstruct", "newlander_nirenberg_report",
     "jstruct.newlander_nirenberg_report"),
    ("algebroids.jstruct", "matched_pair_check", "jstruct.matched_pair_check"),
    ("algebroids.connections", "levi_civita", "connections.levi_civita"),
    ("algebroids.connections", "levi_civita_complex_frame",
     "connections.levi_civita_complex_frame"),
    ("algebroids.connections", "curvature_components",
     "connections.curvature_components"),
    ("algebroids.connections", "kahler_report", "connections.kahler_report"),
    ("algebroids.connections", "hermitian_check",
     "connections.hermitian_check"),
    ("algebroids.chern", "block_curvature", "chern.block_curvature"),
    ("algebroids.chern", "chern_form", "chern.chern_form"),
    ("algebroids.prodgeom", "product_connection", "prodgeom.product_connection"),
    ("algebroids.prodgeom", "second_fundamental", "prodgeom.second_fundamental"),
    ("algebroids.prodgeom", "mean_curvature", "prodgeom.mean_curvature"),
    ("algebroids.prodgeom", "identity_suite", "prodgeom.identity_suite"),
    ("algebroids.cli", "main", "cli.main"),
    ("algebroids.cli", "parse_document", "cli.parse_document"),
    ("algebroids.cli", "emit_document", "cli.emit_document"),
]
SCALAR_NEW = "scalars.Scalar.new"
NORMAL_FORM = "scalars.normal_form"
NAMES = [SCALAR_NEW, NORMAL_FORM] + [name for _, _, name in FUNCTIONS]
HOT_NAMES = {SCALAR_NEW, NORMAL_FORM}
# functions that build derived objects; the first argument is the
# algebroid they are derived from
DERIVED = {"jstruct.nijenhuis", "jstruct.adapted_complex_frame",
           "connections.levi_civita", "connections.levi_civita_complex_frame",
           "prodgeom.product_connection"}


def expr_size(expr) -> tuple:
    """(terms, total degree) of the larger of numerator and denominator.

    Coordinates and transcendental atoms count as generators of degree 1
    per power, as in the canonical normal form.
    """
    import sympy as sp

    terms = degree = 0
    for part in sp.fraction(expr):
        addends = sp.Add.make_args(part)
        terms = max(terms, len(addends))
        for term in addends:
            d = 0
            for factor in sp.Mul.make_args(term):
                if factor.is_number:
                    continue
                _, exp = factor.as_base_exp()
                d += int(exp) if exp.is_Integer and exp > 0 else 1
            degree = max(degree, d)
    return terms, degree


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.spans = []          # (name, start, end, parent span index)
        self.max_terms = 0
        self.max_degree = 0
        self.derived_calls = 0
        self._derived_keys = set()
        self._derived_refs = []  # keeps ids of the keys unique
        # frames [name, start, child_s, span]; span is the frame's own span
        # index, or for a hot frame the nearest enclosing one
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- frames -------------------------------------------------------------

    def _push(self, name):
        stack = self._stack
        span = stack[-1][3] if stack else -1
        if name not in HOT_NAMES:
            span = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, 0.0, span]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _pop(self, frame):
        end = perf_counter()
        name, start, child, span = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][2] += duration
        if name not in HOT_NAMES:
            parent = stack[-1][3] if stack else -1
            self.spans[span] = (name, start, end, parent)

    def _untimed(self, fn, *args):
        """Run fn outside every span: its time is no call's self time."""
        start = perf_counter()
        result = fn(*args)
        if self._stack:
            self._stack[-1][2] += perf_counter() - start
        return result

    def wrap(self, name, fn):
        tracer = self
        derived = name in DERIVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if derived:
                tracer._note_derived(name, args[0])
            frame = tracer._push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop(frame)

        return traced

    def _note_derived(self, name, algebroid):
        self.derived_calls += 1
        self._derived_keys.add((name, id(algebroid)))
        self._derived_refs.append(algebroid)

    def _note_size(self, expr):
        terms, degree = expr_size(expr)
        self.max_terms = max(self.max_terms, terms)
        self.max_degree = max(self.max_degree, degree)

    # -- install / uninstall ------------------------------------------------

    def install(self):
        import algebroids.cli  # noqa: F401  (imports every module)
        from algebroids.scalars import Scalar

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "algebroids" or key.startswith("algebroids.")]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

        self._patch(Scalar, "__init__",
                    self.wrap(SCALAR_NEW, Scalar.__dict__["__init__"]))
        fget = Scalar.__dict__["norm_expr"].fget
        tracer = self

        def norm_expr(scalar):
            if object.__getattribute__(scalar, "_norm") is not None:
                return fget(scalar)
            frame = tracer._push(NORMAL_FORM)
            try:
                expr = fget(scalar)
            finally:
                tracer._pop(frame)
            tracer._untimed(tracer._note_size, expr)
            return expr

        self._patch(Scalar, "norm_expr", property(norm_expr))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def dump(self, path, **extra):
        data = {
            "calls": self.calls,
            "self_s": self.self_s,
            "max_terms": self.max_terms,
            "max_degree": self.max_degree,
            "derived_calls": self.derived_calls,
            "derived_unique": len(self._derived_keys),
            "spans": self.spans,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
