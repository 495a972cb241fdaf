"""The tensor kernels build exactly the trees of plain dense loops.

The reference loops below run over every index and make every product,
zero factors included; the Scalar layer's zero shortcuts decide what each
term contributes.  The library kernels must give component trees that are
`srepr`-identical to them, on sections and tables that hold literal zeros,
nonzero scalars and zeros that are not literal (a hidden zero has to be
kept as a term, not skipped).
"""

import pytest
import sympy as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from algebroids.algebroid import (
    Algebroid,
    Section,
    VectorField,
    anchor_push,
    bracket,
)
from algebroids import connections
from algebroids.connections import Connection, Metric, cov_deriv
from algebroids.jstruct import EndoField
from algebroids.scalars import Chart, ChartError, Scalar

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
NAMES = ["warped_r4", "heis_j", "conformal_sphere_chart"]


def _pool(chart):
    """Candidate entries: literal zeros, a hidden zero, nonzero scalars."""
    x = [chart.scalar(c) for c in chart.coords]
    u, v = x[0], x[-1]
    return [
        chart.zero,
        chart.zero,
        chart.zero,
        (u + 1) ** 2 - u ** 2 - 2 * u - 1,   # zero, but not the literal 0
        chart.one,
        chart.scalar(-2),
        u,
        v * v + 1,
        1 / (1 + u ** 2),
        chart.scalar("i") * v - u,
    ]


ENTRY = st.integers(0, 9)


def _entries(draw, chart, count):
    pool = _pool(chart)
    return [pool[draw(ENTRY)] for _ in range(count)]


def _table(draw, chart, *shape):
    if len(shape) == 1:
        return _entries(draw, chart, shape[0])
    return [_table(draw, chart, *shape[1:]) for _ in range(shape[0])]


def _setup(catalog, draw):
    """A catalog fixture and a random algebroid, connection and
    endomorphism on its chart."""
    fx = catalog(draw(st.sampled_from(NAMES)))
    chart = fx.algebroid.chart
    rank = draw(st.integers(1, 4))
    A = Algebroid(chart, rank, _table(draw, chart, rank, chart.dim),
                  _table(draw, chart, rank, rank, rank))
    conn = Connection(A, _table(draw, chart, rank, rank, rank))
    T = EndoField(A, _table(draw, chart, rank, rank))
    return fx, A, conn, T


def _section(draw, A):
    return Section(A, _entries(draw, A.chart, A.rank))


def _trees(values):
    return [sp.srepr(v.expr) for v in values]


# -- dense reference loops --------------------------------------------------

def dense_apply(X, f):
    out = X.chart.zero
    for comp, coord in zip(X.components, X.chart.coords):
        out = out + comp * f.diff(coord)
    return out


def dense_anchor_push(s):
    A = s.algebroid
    comps = []
    for i in range(A.chart.dim):
        acc = A.chart.zero
        for a in range(A.rank):
            acc = acc + s.components[a] * A.anchor[a][i]
        comps.append(acc)
    return comps


def dense_bracket(s1, s2):
    A = s1.algebroid
    v1 = VectorField(A.chart, dense_anchor_push(s1))
    v2 = VectorField(A.chart, dense_anchor_push(s2))
    comps = []
    for c in range(A.rank):
        acc = dense_apply(v1, s2.components[c]) - dense_apply(v2, s1.components[c])
        for a in range(A.rank):
            for b in range(A.rank):
                acc = acc + s1.components[a] * s2.components[b] * A.C[c][a][b]
        comps.append(acc)
    return comps


def dense_cov_deriv(conn, s1, s2):
    A = conn.algebroid
    v1 = VectorField(A.chart, dense_anchor_push(s1))
    comps = []
    for c in range(A.rank):
        acc = dense_apply(v1, s2.components[c])
        for a in range(A.rank):
            for b in range(A.rank):
                acc = acc + conn.gamma[c][a][b] * s1.components[a] * s2.components[b]
        comps.append(acc)
    return comps


def dense_endo_apply(T, s):
    comps = []
    for b in range(T.rank):
        acc = T.algebroid.chart.zero
        for a in range(T.rank):
            acc = acc + T.matrix[b][a] * s.components[a]
        comps.append(acc)
    return comps


def dense_metric_value(g, s1, s2):
    acc = g.algebroid.chart.zero
    for a in range(g.algebroid.rank):
        for b in range(g.algebroid.rank):
            acc = acc + g.matrix[a][b] * s1.components[a] * s2.components[b]
    return acc


# -- properties ---------------------------------------------------------------

@PROPERTY
@given(st.data())
def test_section_kernels_match_dense_loops(catalog, data):
    draw = data.draw
    fx, A, conn, T = _setup(catalog, draw)
    s1, s2 = _section(draw, A), _section(draw, A)
    assert _trees(bracket(s1, s2).components) == _trees(dense_bracket(s1, s2))
    assert (_trees(cov_deriv(conn, s1, s2).components)
            == _trees(dense_cov_deriv(conn, s1, s2)))
    assert _trees(anchor_push(s1).components) == _trees(dense_anchor_push(s1))
    assert _trees(T.apply(s1).components) == _trees(dense_endo_apply(T, s1))


@PROPERTY
@given(st.data())
def test_vector_field_apply_matches_dense_loop(catalog, data):
    draw = data.draw
    fx, A, _, _ = _setup(catalog, draw)
    chart = A.chart
    X = VectorField(chart, _entries(draw, chart, chart.dim))
    for f in _entries(draw, chart, 3):
        assert _trees([X.apply(f)]) == _trees([dense_apply(X, f)])


@PROPERTY
@given(st.data())
def test_catalog_kernels_match_dense_loops(catalog, data):
    draw = data.draw
    fx, _, _, _ = _setup(catalog, draw)
    A = fx.algebroid
    s1, s2 = _section(draw, A), _section(draw, A)
    g, J, D = fx.g, fx.J, fx.levi_civita
    assert _trees([g.value(s1, s2)]) == _trees([dense_metric_value(g, s1, s2)])
    assert _trees(J.apply(s1).components) == _trees(dense_endo_apply(J, s1))
    assert (_trees(cov_deriv(D, s1, s2).components)
            == _trees(dense_cov_deriv(D, s1, s2)))
    assert _trees(bracket(s1, s2).components) == _trees(dense_bracket(s1, s2))


@PROPERTY
@given(st.data())
def test_metric_value_matches_dense_loop(catalog, data):
    draw = data.draw
    fx, A, _, _ = _setup(catalog, draw)
    # nonzero diagonal entries and off-diagonal zeros, literal or hidden,
    # or constants: the metric is built fast and is seldom singular
    pool = _pool(A.chart)
    diagonal = st.sampled_from(pool[4:])
    off = st.sampled_from(pool[:6])
    rows = [[None] * A.rank for _ in range(A.rank)]
    for a in range(A.rank):
        rows[a][a] = draw(diagonal)
        for b in range(a + 1, A.rank):
            rows[a][b] = rows[b][a] = draw(off)
    try:
        g = Metric(A, rows)
    except ValueError:  # singular
        reject()
    s1, s2 = _section(draw, A), _section(draw, A)
    assert _trees([g.value(s1, s2)]) == _trees([dense_metric_value(g, s1, s2)])


# -- work counts ----------------------------------------------------------------

def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cov_deriv_of_frame_sections_skips_zero_terms(catalog, monkeypatch):
    # the dense loops made 160 products and 16 derivatives here: one per
    # index, whatever the zeros
    fx = catalog("warped_r4")
    D, frame = fx.levi_civita, fx.algebroid.frame
    products = _count_calls(monkeypatch, Scalar, "__mul__")
    derivatives = _count_calls(monkeypatch, Scalar, "diff")
    cov_deriv(D, frame[0], frame[1])
    assert len(products) <= 16
    assert len(derivatives) == 4  # one per component of e_1


def test_vector_field_differentiates_along_nonzero_components(catalog,
                                                              monkeypatch):
    chart = catalog("warped_r4").algebroid.chart
    x1, x2 = chart.scalar("x1"), chart.scalar("x2")
    X = VectorField(chart, [0, x1, 0, 0])
    derivatives = _count_calls(monkeypatch, Scalar, "diff")
    assert _trees([X.apply(x1 * x2)]) == _trees([x1 * x1])
    assert len(derivatives) == 1


def test_chart_zero_and_one_are_shared(catalog):
    chart = catalog("heis_j").algebroid.chart
    assert chart.zero is chart.zero and chart.one is chart.one
    assert -chart.zero is chart.zero
    assert chart.zero + chart.zero is chart.zero
    assert chart.scalar("3/4").diff("x1") is chart.zero
    # a foreign coordinate or scalar is refused, numeric or not
    other = Chart("other", ["x1", "y1"])
    with pytest.raises(ChartError):
        chart.one.diff(other.coord("y1"))
    with pytest.raises(ChartError):
        chart.zero + other.one
    with pytest.raises(ChartError):
        chart.one * other.zero


def test_metric_compat_check_derives_each_frame_pair_once(catalog,
                                                          monkeypatch):
    fx = catalog("warped_r4")
    D, g, A = fx.levi_civita, fx.g, fx.algebroid
    frame, m = A.frame, A.rank
    expected = []
    for a in range(m):
        for b in range(m):
            for c in range(b, m):
                nb = cov_deriv(D, frame[a], frame[b])
                nc = cov_deriv(D, frame[a], frame[c])
                res = (A.anchor_vf(a).apply(g.matrix[b][c])
                       - g.value(nb, frame[c]) - g.value(frame[b], nc))
                expected.append(((a, b, c), sp.srepr(res.expr)))
    calls = _count_calls(monkeypatch, connections, "cov_deriv")
    entries = connections.metric_compat_check(D, g).entries("metric_compatible")
    assert len(calls) == m * m
    assert [(index, sp.srepr(r.expr)) for index, r in entries] == expected
