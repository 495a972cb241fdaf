"""The tensor kernels build exactly the trees of plain dense loops.

The reference loops below run over every index and make every product,
zero factors included; the Scalar layer's zero shortcuts decide what each
term contributes.  The library kernels must give component trees that are
`srepr`-identical to them, on sections and tables that hold literal zeros,
nonzero scalars, zeros that are not literal (a hidden zero has to be
kept as a term, not skipped) and a one reached by arithmetic, which holds
the shared one and so multiplies for free.
"""

import dataclasses
from itertools import combinations, permutations

import pytest
import sympy as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from algebroids.algebroid import (
    Algebroid,
    Residuals,
    Section,
    anchor_push,
    bracket,
    tangent,
    validate_structure,
)
from algebroids import connections, jstruct, prodgeom, scalars
from algebroids.connections import (
    Connection,
    Metric,
    cov_deriv,
    curvature_components,
    kahler_report,
)
from algebroids.eforms import EForm, evaluate
from algebroids.jstruct import EndoField
from algebroids.scalars import Chart, ChartError, Scalar, Table, nonzero_terms

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
# the coefficient builders run their cross-checks on tables of up to rank^4
# entries, whose trees are then printed: fewer examples fit the suite's time
COEFFICIENTS = settings(derandomize=True, deadline=None, max_examples=12)
NAMES = ["warped_r4", "heis_j", "conformal_sphere_chart"]


def _pool(chart):
    """Candidate entries: literal zeros, a hidden zero, nonzero scalars and
    a one that is not ``chart.one``."""
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
        (u + 1) - u,
    ]


ENTRY = st.integers(0, 10)


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


def _terms_pool(chart):
    """_pool's entries and two trees with an atom: sin(u)^2 + cos(u)^2 - 1,
    a zero that only its normal form shows, and sqrt(u^2 + 1)."""
    u = chart.coords[0].name
    return _pool(chart) + [chart.scalar(f"sin({u})^2 + cos({u})^2 - 1"),
                           chart.scalar(f"sqrt({u}^2 + 1)")]


def _assert_terms(s):
    """s.terms holds, in index order, the components of s that are not an
    exact zero, and those components themselves."""
    indices = [k for k, _ in s.terms]
    assert indices == sorted(set(indices))
    held = dict(s.terms)
    assert len(s.components) == s.algebroid.rank
    for k, c in enumerate(s.components):
        if k in held:
            assert c is held[k] and c.pair is not scalars._ZERO
        else:
            assert c.pair is scalars._ZERO


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
    v1 = Section(tangent(A.chart), dense_anchor_push(s1))
    v2 = Section(tangent(A.chart), dense_anchor_push(s2))
    comps = []
    for c in range(A.rank):
        acc = dense_apply(v1, s2.components[c]) - dense_apply(v2, s1.components[c])
        for a in range(A.rank):
            for b in range(A.rank):
                acc = acc + s1.components[a] * s2.components[b] * A.C[c][a][b]
        comps.append(acc)
    return comps


def dense_lie_bracket(X, Y):
    """[X, Y]^c = sum_j (X^j d_j Y^c - Y^j d_j X^c), term by term."""
    chart = X.chart
    comps = []
    for c in range(chart.dim):
        acc = chart.zero
        for j, x in enumerate(chart.coords):
            acc = acc + X.components[j] * Y.components[c].diff(x)
            acc = acc - Y.components[j] * X.components[c].diff(x)
        comps.append(acc)
    return comps


def dense_cov_deriv(conn, s1, s2):
    A = conn.algebroid
    v1 = Section(tangent(A.chart), dense_anchor_push(s1))
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


def dense_evaluate(w, sections):
    acc = w.chart.zero
    for key, value in w.components.items():
        for perm in permutations(range(w.degree)):
            term = value
            for slot, k in enumerate(perm):
                term = term * sections[slot].components[key[k]]
            inversions = sum(p > q for i, p in enumerate(perm)
                             for q in perm[i + 1:])
            acc = acc + term if inversions % 2 == 0 else acc - term
    return acc


def dense_metric_value(g, s1, s2):
    acc = g.algebroid.chart.zero
    for a in range(g.algebroid.rank):
        for b in range(g.algebroid.rank):
            acc = acc + g.matrix[a][b] * s1.components[a] * s2.components[b]
    return acc


def dense_nijenhuis_coefficients(A, J):
    m, chart = A.rank, A.chart
    dJ = [[[J.matrix[d][a].diff(x) for a in range(m)] for d in range(m)]
          for x in chart.coords]
    out = [[[None] * m for _ in range(m)] for _ in range(m)]
    for c in range(m):
        for a in range(m):
            for b in range(m):
                acc = chart.zero
                for i in range(chart.dim):
                    for d in range(m):
                        acc = acc + A.anchor[b][i] * dJ[i][d][a] * J.matrix[c][d]
                        acc = acc - A.anchor[a][i] * dJ[i][d][b] * J.matrix[c][d]
                        acc = acc + A.anchor[d][i] * dJ[i][c][b] * J.matrix[d][a]
                        acc = acc - A.anchor[d][i] * dJ[i][c][a] * J.matrix[d][b]
                for d in range(m):
                    for e in range(m):
                        acc = acc + J.matrix[d][a] * J.matrix[c][e] * A.C[e][b][d]
                        acc = acc - J.matrix[d][b] * J.matrix[c][e] * A.C[e][a][d]
                        acc = acc + J.matrix[e][b] * J.matrix[d][a] * A.C[c][d][e]
                out[c][a][b] = acc - A.C[c][a][b]
    return out


def dense_curvature_components(conn):
    A, G = conn.algebroid, conn.gamma
    m = A.rank
    out = [[[[A.chart.zero] * m for _ in range(m)] for _ in range(m)]
           for _ in range(m)]
    for a in range(m):
        rho_a = Section(tangent(A.chart), A.anchor[a])
        for b in range(a + 1, m):
            rho_b = Section(tangent(A.chart), A.anchor[b])
            for c in range(m):
                for d in range(m):
                    acc = dense_apply(rho_a, G[d][b][c])
                    acc = acc - dense_apply(rho_b, G[d][a][c])
                    for e in range(m):
                        acc = acc + G[e][b][c] * G[d][a][e]
                        acc = acc - G[e][a][c] * G[d][b][e]
                        acc = acc - A.C[e][a][b] * G[d][e][c]
                    out[d][a][b][c] = acc
                    out[d][b][a][c] = -acc
    return out


def dense_koszul_gamma(A, g):
    m = A.rank
    rho = [Section(tangent(A.chart), A.anchor[x]) for x in range(m)]
    koszul = [[[None] * m for _ in range(m)] for _ in range(m)]
    for b in range(m):
        for c in range(m):
            for d in range(m):
                inner = (dense_apply(rho[b], g.matrix[c][d])
                         + dense_apply(rho[c], g.matrix[b][d])
                         - dense_apply(rho[d], g.matrix[b][c]))
                for e in range(m):
                    inner = inner + A.C[e][d][c] * g.matrix[e][b]
                    inner = inner + A.C[e][d][b] * g.matrix[e][c]
                    inner = inner + A.C[e][b][c] * g.matrix[e][d]
                koszul[b][c][d] = inner
    gamma = [[[None] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(m):
            for c in range(m):
                acc = A.chart.zero
                for d in range(m):
                    acc = acc + g.inverse[a][d] * koszul[b][c][d]
                gamma[a][b][c] = acc / 2
    return gamma


def dense_validate_structure(A):
    """(check, index, residual) in the order validate_structure adds them."""
    n, m = A.chart.dim, A.rank
    coords = A.chart.coords
    grad = [[[A.anchor[a][i].diff(x) for x in coords] for i in range(n)]
            for a in range(m)]
    out = []
    for a in range(m):
        for b in range(a + 1, m):
            for i in range(n):
                lhs = A.chart.zero
                for j in range(n):
                    lhs = lhs + A.anchor[a][j] * grad[b][i][j]
                    lhs = lhs - A.anchor[b][j] * grad[a][i][j]
                rhs = A.chart.zero
                for c in range(m):
                    rhs = rhs + A.anchor[c][i] * A.C[c][a][b]
                out.append(("anchor_morphism", (a, b, i), lhs - rhs))
    for c in range(m):
        for a in range(m):
            for b in range(a, m):
                out.append(("antisymmetry", (a, b, c),
                            A.C[c][a][b] + A.C[c][b][a]))
    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                for d in range(m):
                    acc = A.chart.zero
                    for (p, q, r) in ((a, b, c), (b, c, a), (c, a, b)):
                        for i in range(n):
                            acc = acc + A.anchor[p][i] * A.C[d][q][r].diff(coords[i])
                        for e in range(m):
                            acc = acc + A.C[e][p][q] * A.C[d][e][r]
                    out.append(("jacobi", (a, b, c, d), acc))
    return out


def dense_combine(M, xs):
    """sum_k xs[k] * row k of M, with the entries that are not an exact
    zero as (index, Scalar) terms."""
    width = len(M[0]) if M else 0
    out = []
    for j in range(width):
        acc = M.chart.zero
        for k in range(len(M)):
            acc = acc + M[k][j] * xs[k]
        out.append(acc)
    return [(j, v) for j, v in enumerate(out) if v.pair is not scalars._ZERO]


def dense_matrix_apply(M, vector):
    out = []
    for row in M:
        acc = M.chart.zero
        for a, b in zip(row, vector):
            acc = acc + a * b
        out.append(acc)
    return out


def dense_matmul(M, N):
    width = len(N[0]) if N else 0
    out = []
    for row in M:
        out.append([])
        for j in range(width):
            acc = M.chart.zero
            for k in range(len(N)):
                acc = acc + row[k] * N[k][j]
            out[-1].append(acc)
    return out


def _flat(table):
    if isinstance(table, Scalar):
        return [table]
    return [x for row in table for x in _flat(row)]


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
def test_section_terms_and_operators_match_dense_components(catalog, data):
    draw = data.draw
    fx, A, conn, T = _setup(catalog, draw)
    entry = st.sampled_from(_terms_pool(A.chart))
    s1, s2 = (Section(A, [draw(entry) for _ in range(A.rank)])
              for _ in range(2))
    f = draw(entry)
    c1, c2 = s1.components, s2.components
    cases = [
        (s1 + s2, [a + b for a, b in zip(c1, c2)]),
        (s1 - s2, [a - b for a, b in zip(c1, c2)]),
        (-s1, [-a for a in c1]),
        (s1.scale(f), [f * a for a in c1]),
        (-2 * s2, [A.chart.scalar(-2) * b for b in c2]),
        (s1.conjugate(), [a.conjugate() for a in c1]),
        (T.apply(s1), dense_endo_apply(T, s1)),
        (cov_deriv(conn, s1, s2), dense_cov_deriv(conn, s1, s2)),
    ]
    if A.rank >= 2:
        # the two terms of each output component cancel
        ones = EndoField(A, [[1] * A.rank] * A.rank)
        s3 = Section(A, [c1[0], -c1[0]] + [0] * (A.rank - 2))
        cases.append((ones.apply(s3), dense_endo_apply(ones, s3)))
    _assert_terms(s1)
    _assert_terms(s2)
    for s, dense in cases:
        _assert_terms(s)
        assert _trees(s.components) == _trees(dense)
    # a form of degree up to 3 on sections with zero and hidden-zero terms
    p = min(3, A.rank)
    w = EForm(A, p, {key: draw(entry)
                     for key in combinations(range(A.rank), p)})
    on = [s1, s2, s1 - s2][:p]
    assert _trees([evaluate(w, on)]) == _trees([dense_evaluate(w, on)])


def test_section_constructor_coerces_and_checks_rank(catalog):
    A = catalog("heis_j").algebroid
    x1 = A.chart.scalar("x1")
    s = Section(A, ["x1", 0, x1 - x1, "1/2"])
    assert [(k, str(c)) for k, c in s.terms] == [(0, "x1"), (3, "1/2")]
    assert s.components[0] == x1 and s.components[2].pair is scalars._ZERO
    assert Section(A, [0] * A.rank).terms == ()
    with pytest.raises(ChartError):
        Section(A, [0] * (A.rank - 1))
    with pytest.raises(ChartError):
        Section(A, [Chart("other", ["x1"]).one] + [0] * (A.rank - 1))


@PROPERTY
@given(st.data())
def test_vector_field_apply_matches_dense_loop(catalog, data):
    draw = data.draw
    fx, A, _, _ = _setup(catalog, draw)
    chart = A.chart
    X = Section(tangent(chart), _entries(draw, chart, chart.dim))
    for f in _entries(draw, chart, 3):
        assert _trees([X.derive(f)]) == _trees([dense_apply(X, f)])


@PROPERTY
@given(st.data())
def test_tangent_bracket_matches_the_dense_lie_bracket(catalog, data):
    draw = data.draw
    fx, A, _, _ = _setup(catalog, draw)
    s = _section(draw, A)
    # rho(s) is the tangent section whose terms combine the anchor rows
    assert anchor_push(s).algebroid is A.tangent
    assert list(anchor_push(s).terms) == A.anchor.combine(s.terms)
    entry = st.sampled_from(_terms_pool(A.chart))
    X, Y = (Section(A.tangent, [draw(entry) for _ in range(A.chart.dim)])
            for _ in range(2))
    got, want = bracket(X, Y).components, dense_lie_bracket(X, Y)
    if all(c.pair is not None for c in X.components + Y.components):
        assert _trees(got) == _trees(want)
    else:
        # beside an atom the tree shows how the sum was associated
        assert list(got) == want


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


def _metric(draw, A):
    """A random metric on A: nonzero diagonal entries and off-diagonal
    zeros, literal or hidden, or constants, so it is built fast and is
    seldom singular."""
    pool = _pool(A.chart)
    diagonal = st.sampled_from(pool[4:])
    off = st.sampled_from(pool[:6])
    rows = [[None] * A.rank for _ in range(A.rank)]
    for a in range(A.rank):
        rows[a][a] = draw(diagonal)
        for b in range(a + 1, A.rank):
            rows[a][b] = rows[b][a] = draw(off)
    try:
        return Metric(A, rows)
    except ValueError:  # singular
        reject()


@PROPERTY
@given(st.data())
def test_metric_value_matches_dense_loop(catalog, data):
    draw = data.draw
    fx, A, _, _ = _setup(catalog, draw)
    g = _metric(draw, A)
    s1, s2 = _section(draw, A), _section(draw, A)
    assert _trees([g.value(s1, s2)]) == _trees([dense_metric_value(g, s1, s2)])


@PROPERTY
@given(st.data())
def test_table_kernel_matches_dense_loops(catalog, data):
    # rectangular tables, and tables whose rows are empty (the anchor of a
    # Lie algebra), over entries with hidden zeros and atoms
    draw = data.draw
    chart = catalog("heis_j").algebroid.chart
    entry = st.sampled_from(_terms_pool(chart))
    n = draw(st.integers(1, 3))
    k, p = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    M = Table(chart, [[draw(entry) for _ in range(k)] for _ in range(n)])
    N = Table(chart, [[draw(entry) for _ in range(p)] for _ in range(k)])
    xs = [draw(entry) for _ in range(n)]
    vector = [draw(entry) for _ in range(k)]

    def trees(terms):
        return [(j, sp.srepr(v.expr)) for j, v in terms]

    assert trees(M.combine(nonzero_terms(xs))) == trees(dense_combine(M, xs))
    # the two products of each entry cancel: an exact zero is not a term
    twice, signed = Table(chart, [M[0], M[0]]), [xs[0], -xs[0]]
    assert (trees(twice.combine(nonzero_terms(signed)))
            == trees(dense_combine(twice, signed)))
    # an atom's tree, then two pairs: the order of the sum shows in the tree
    pool = _terms_pool(chart)
    route = Table(chart, [[pool[-1]], [pool[8]], [pool[6]]])
    ones = [chart.one] * 3
    assert (trees(route.combine(nonzero_terms(ones)))
            == trees(dense_combine(route, ones)))
    assert (trees(M.apply(nonzero_terms(vector)))
            == trees(nonzero_terms(dense_matrix_apply(M, vector))))
    assert M.T == tuple(zip(*M)) and M.T.chart is M.chart
    assert [_trees(row) for row in M @ N] == [
        _trees(row) for row in dense_matmul(M, N)]
    for table in (M, M.T, M @ N):
        assert table.terms == tuple(map(nonzero_terms, table))


@COEFFICIENTS
@given(st.data())
def test_coefficient_sums_match_dense_loops(catalog, data):
    draw = data.draw
    fx, A, conn, T = _setup(catalog, draw)
    with pytest.MonkeyPatch.context() as mp:
        # a random algebroid fails the cross-check; its residuals
        # N - (coefficient route) are what is compared
        mp.setattr(Residuals, "require", lambda self: None)
        N = jstruct.nijenhuis(A, T)
    dense = dense_nijenhuis_coefficients(A, T)
    m = A.rank
    want = [N.components[c][a][b] - dense[c][a][b]
            for c in range(m) for a in range(m) for b in range(m)]
    got = [r for _, r in N.checks.entries("dual_route_agreement")]
    assert _trees(got) == _trees(want)
    assert (_trees(_flat(curvature_components(conn)))
            == _trees(_flat(dense_curvature_components(conn))))
    report = validate_structure(A)
    got = [(check, index, sp.srepr(r.expr))
           for check in ("anchor_morphism", "antisymmetry", "jacobi")
           for index, r in report.entries(check)]
    assert got == [(check, index, sp.srepr(r.expr))
                   for check, index, r in dense_validate_structure(A)]


@COEFFICIENTS
@given(st.data())
def test_koszul_sum_matches_dense_loop(catalog, data):
    draw = data.draw
    fx, A, _, _ = _setup(catalog, draw)
    g = _metric(draw, A)
    with pytest.MonkeyPatch.context() as mp:
        # the torsion and metric re-verification fail on a random bracket
        mp.setattr(Residuals, "require", lambda self: None)
        D = connections.levi_civita(A, g)
    assert _trees(_flat(D.gamma)) == _trees(_flat(dense_koszul_gamma(A, g)))


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
    assert len(derivatives) == 0  # the components of e_1 are constants


def _count_zero_operands(monkeypatch):
    """The Scalar.__add__ and Scalar.__mul__ calls with an exact-zero
    operand."""
    calls = []

    def zero(x):
        return x.__class__ is Scalar and x.pair is scalars._ZERO

    for name in ("__add__", "__mul__"):
        def counted(self, other, name=name, original=getattr(Scalar, name)):
            if zero(self) or zero(other):
                calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Scalar, name, counted)
    return calls


def test_nijenhuis_and_kahler_report_skip_zero_operands(catalog, monkeypatch):
    # with cold derived objects; kernels that rescanned dense tuples and
    # looped over every index made 9,324 and 12,791 such calls here
    fx = dataclasses.replace(catalog("heis_j"))
    calls = _count_zero_operands(monkeypatch)
    jstruct.nijenhuis(fx.algebroid, fx.J)
    assert len(calls) <= 312
    calls.clear()
    kahler_report(fx)
    assert len(calls) <= 1755


def test_vector_field_differentiates_along_nonzero_components(catalog,
                                                              monkeypatch):
    chart = catalog("warped_r4").algebroid.chart
    x1, x2 = chart.scalar("x1"), chart.scalar("x2")
    X = Section(tangent(chart), [0, x1, 0, 0])
    derivatives = _count_calls(monkeypatch, Scalar, "diff")
    assert _trees([X.derive(x1 * x2)]) == _trees([x1 * x1])
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
                res = (A.frame[a].derive(g.matrix[b][c])
                       - g.value(nb, frame[c]) - g.value(frame[b], nc))
                expected.append(((a, b, c), sp.srepr(res.expr)))
    calls = _count_calls(monkeypatch, connections, "cov_deriv")
    entries = connections.metric_compat_check(D, g).entries("metric_compatible")
    assert len(calls) == m * m
    assert [(index, sp.srepr(r.expr)) for index, r in entries] == expected


def test_kahler_report_takes_nabla_j_once_per_frame_pair(catalog,
                                                        monkeypatch):
    # taking (nabla_{e_a} J) e_b once per triple (a, b, c) made 64 calls
    fx = catalog("heis_j")
    calls = _count_calls(monkeypatch, connections, "nabla_J")
    kahler_report(fx)
    assert len(calls) == fx.algebroid.rank ** 2 == 16


def test_hermitian_builders_take_nabla_j_once_per_frame_pair(catalog,
                                                            monkeypatch):
    # kahler_report, product_connection and second_fundamental on the three
    # fixtures of the benchmark's session: rank^2 calls each, where taking
    # the operands once per residual made 342
    calls = [_count_calls(monkeypatch, module, "nabla_J")
             for module in (connections, prodgeom)]
    ranks = []
    for name in ("warped_r4", "heis_j", "conformal_sphere_chart"):
        fx = dataclasses.replace(catalog(name))
        kahler_report(fx)
        assert fx.second_fundamental.ok
        ranks.append(fx.algebroid.rank)
    assert sum(map(len, calls)) == 4 * sum(r * r for r in ranks) == 144


def test_each_projection_and_j_image_is_taken_once(catalog, monkeypatch):
    # on the three fixtures of the benchmark's session: identity_suite
    # projected both operands of B on each call and of each isotropy pair
    # (396 calls of p01 and p10), fundamental_form took J e_a and J J e_b
    # per frame pair (229 calls of J) and hermitian_check J e_a per pair (46)
    calls = _count_calls(monkeypatch, EndoField, "apply")
    taken = {"fundamental_form": 0, "hermitian_check": 0, "identity_suite": 0}
    for name in NAMES:
        fx = dataclasses.replace(catalog(name))
        g, J, p10_p01 = fx.g, fx.J, fx.projectors
        for check in ("fundamental_form", "hermitian_check"):
            del calls[:]
            getattr(connections, check)(g, J)
            taken[check] += len(calls)
        del calls[:]
        prodgeom.identity_suite(fx)
        taken["identity_suite"] += sum(args[0] in p10_p01 for args in calls)
    # 2 rank J images in fundamental_form, rank in hermitian_check, and in
    # identity_suite 2 rank projections and one p10 per call of B
    assert taken == {"fundamental_form": 20, "hermitian_check": 10,
                     "identity_suite": 128}
