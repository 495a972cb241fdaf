"""Constructed algebroids and the built-in fixture catalog.

Three factories produce new algebroids from old:

* ``prolong``: the prolongation of an algebroid of rank r over a chart
  (x) lives over the chart (x, y^1..y^r) with frame (X_a, V_a), anchor
  rho'(X_a) = rho_a, rho'(V_a) = d/dy^a and structure functions
  [X_a, X_b] = C^c_ab X_c.  The vertical/complete lifts of functions and
  sections, the complete lifts of endomorphisms and metrics, the Sasaki
  metric and the complete-lift connection are all provided; the three
  lift bracket laws are re-verified at construction time and any
  inconsistency raises InconsistencyError instead of being patched.
* ``direct_product``: block anchor and structure functions over the
  concatenated chart, with block complex structure and metric.
* ``projector_restriction``: given anchor data rho0 on a chart, an
  idempotent ambient projector Pi and a lift L with rho0 L generically
  the identity on chart vector fields, the restriction has anchor
  rho0 Pi and bracket coefficients C^c_ab = L(vf_bracket(rho_a, rho_b)).

The fixture catalog exposes the named examples used throughout the test
suite, plus the syntax ``prolong(<name>)`` and ``product(<a>,<b>)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, List, Optional, Tuple

from algebroids.algebroid import (
    Algebroid,
    PreconditionError,
    Residuals,
    Section,
    VectorField,
    bracket,
    validate_structure,
    vf_bracket,
)
from algebroids.connections import (
    Connection,
    Metric,
    almost_complex_check,
    fundamental_form,
    hermitian_check,
    hermitian_table,
    levi_civita,
    levi_civita_complex_frame,
)
from algebroids.eforms import EForm
from algebroids.jstruct import (
    ComplexFrame,
    EndoField,
    NijenhuisTensor,
    adapted_complex_frame,
    almost_complex_structure,
    nijenhuis,
    projectors,
)
from algebroids.prodgeom import (
    ProductConnection,
    SecondFundamentalForm,
    product_connection,
    real_frame_B,
    second_fundamental,
)
from algebroids.scalars import _ZERO, Chart, Scalar, ScalarMatrix, add_product

__all__ = [
    "Prolongation",
    "ProductAlgebroid",
    "ProjectorRestriction",
    "Fixture",
    "prolong",
    "direct_product",
    "projector_restriction",
    "fixture",
    "fixture_names",
    "CATALOG_NAMES",
]


class Prolongation:
    """Prolongation of a Lie algebroid with its lift calculus.

    ``checks`` holds the lift bracket laws (check ``lift_bracket_laws``,
    indexed ("vv" | "cv" | "cc", a, b, c)), required at construction.
    When they fail because the base fails its own structure equations,
    PreconditionError is raised instead.
    """

    def __init__(self, base: Algebroid):
        self.base = base
        n = base.chart.dim
        r = base.rank
        self.n = n
        self.r = r
        existing = {c.name for c in base.chart.coords}
        prefix = "y"
        while any(f"{prefix}{a + 1}" in existing for a in range(r)):
            prefix += "y"
        names = [c.name for c in base.chart.coords] \
            + [f"{prefix}{a + 1}" for a in range(r)]
        chart = Chart(f"{base.chart.name}_prolong", names)
        self.chart = chart
        # the fibre coordinates y^a, as Scalars
        self.y = [chart.scalar(chart.coord(f"{prefix}{a + 1}"))
                  for a in range(r)]

        anchor = []
        for a in range(r):
            anchor.append([base.anchor[a][i].on_chart(chart) for i in range(n)]
                          + [chart.zero] * r)
        for a in range(r):
            row = [chart.zero] * (n + r)
            row[n + a] = chart.one
            anchor.append(row)

        cdict = {}
        for a in range(r):
            for b in range(a + 1, r):
                for c in range(r):
                    val = base.C[c][a][b]
                    if not val.is_structurally_zero():
                        cdict[(a, b, c)] = val.on_chart(chart)
        labels = [f"X{a + 1}" for a in range(r)] + [f"V{a + 1}" for a in range(r)]
        self.algebroid = Algebroid(chart, 2 * r, anchor, cdict,
                                   frame_labels=labels)

        self.checks = Residuals()
        self._check_lift_laws()
        if not self.checks.ok() and not validate_structure(base).ok():
            raise PreconditionError(
                "base algebroid fails its structure equations")
        self.checks.require()

    # ---- lifts -----------------------------------------------------------

    def function_vertical_lift(self, f) -> Scalar:
        return self.base.chart.scalar(f).on_chart(self.chart)

    def function_complete_lift(self, f) -> Scalar:
        """f^c = sum_a y^a rho(e_a) f."""
        f = self.base.chart.scalar(f)
        acc = self.chart.zero
        for a in range(self.r):
            df = self.base.anchor_vf(a).apply(f)
            acc = acc + self.y[a] * df.on_chart(self.chart)
        return acc

    def _lifted(self, s: Section) -> list:
        return [(k, c.on_chart(self.chart)) for k, c in s.terms]

    def vertical_lift(self, s: Section) -> Section:
        return Section.of_terms(self.algebroid,
                                [(self.r + k, c) for k, c in self._lifted(s)])

    def complete_lift(self, s: Section) -> Section:
        """s^c = s^a X_a + (rho(e_f)(s^a) - C^a_{bf} s^b) y^f V_a."""
        base = self.base
        terms = self._lifted(s)
        for a, sa in enumerate(s.components):
            acc = self.chart.zero
            for f in range(self.r):
                term = base.anchor_vf(f).apply(sa)
                for b, x in s.terms:
                    term = add_product(term, -1, base.C[a][b][f], x)
                if term.pair is not _ZERO:
                    acc = acc + self.y[f] * term.on_chart(self.chart)
            if acc.pair is not _ZERO:
                terms.append((self.r + a, acc))
        return Section.of_terms(self.algebroid, terms)

    def horizontal_lift(self, s: Section, conn: Connection) -> Section:
        """s^h = s^a H_a with H_a = X_a - Gamma^b_{af} y^f V_b."""
        comps = [c.on_chart(self.chart) for c in s.components]
        vert = []
        for b in range(self.r):
            acc = self.chart.zero
            for a in range(self.r):
                for f in range(self.r):
                    acc = acc - comps[a] * self.y[f] \
                        * conn.gamma[b][a][f].on_chart(self.chart)
            vert.append(acc)
        return Section(self.algebroid, comps + vert)

    def _check_lift_laws(self):
        base = self.base
        comp = [self.complete_lift(e) for e in base.frame]
        vert = [self.vertical_lift(e) for e in base.frame]
        for a in range(self.r):
            for b in range(self.r):
                base_br = Section(base, [base.C[c][a][b]
                                         for c in range(self.r)])
                r1 = bracket(vert[a], vert[b])
                r2 = bracket(comp[a], vert[b]) - self.vertical_lift(base_br)
                r3 = (bracket(comp[a], comp[b])
                      - self.complete_lift(base_br))
                for law, r in (("vv", r1), ("cv", r2), ("cc", r3)):
                    for c, res in enumerate(r.components):
                        self.checks.add("lift_bracket_laws", (law, a, b, c),
                                        res)

    # ---- lifted structures ----------------------------------------------
    # Each structure is defined by its values on the lift frame
    # (e_a^c, e_a^v) or the horizontal frame (e_a^h, e_a^v).

    def complete_lift_endo(self, J: EndoField) -> EndoField:
        """J^c with J^c(s^v) = (Js)^v and J^c(s^c) = (Js)^c."""
        images = [J.apply(e) for e in self.base.frame]
        return self._lift_frame().endo(
            [self.complete_lift(s) for s in images]
            + [self.vertical_lift(s) for s in images])

    def complete_lift_metric(self, g: Metric):
        """g^c as a (possibly degenerate) symmetric matrix of Scalars:
        g^c(s^c, t^c) = g(s, t)^c, g^c(s^c, t^v) = g(s, t)^v and
        g^c(s^v, t^v) = 0."""
        r = self.r
        values = [[self.chart.zero] * (2 * r) for _ in range(2 * r)]
        for a in range(r):
            for b in range(r):
                values[a][b] = self.function_complete_lift(g.entry(a, b))
                values[a][r + b] = values[r + a][b] = \
                    self.function_vertical_lift(g.entry(a, b))
        return self._lift_frame().form(values)

    def sasaki_metric(self, g: Metric, conn: Connection) -> Metric:
        """g_L(H,H) = g_L(V,V) = g, g_L(H,V) = 0 over the (X, V) frame."""
        r = self.r
        values = [[self.chart.zero] * (2 * r) for _ in range(2 * r)]
        for a in range(r):
            for b in range(r):
                values[a][b] = values[r + a][r + b] = \
                    self.function_vertical_lift(g.entry(a, b))
        G = self._horizontal_frame(conn).form(values)
        return Metric(self.algebroid, G)

    def adapted_complex_structure(self, conn: Connection) -> EndoField:
        """J_L with J_L(V_a) = H_a and J_L(H_a) = -V_a."""
        frame = self._horizontal_frame(conn)
        r = self.r
        return frame.endo([-v for v in frame.sections[r:]]
                          + frame.sections[:r])

    def complete_lift_connection(self, conn: Connection) -> Connection:
        """D^c with D^c_{s^c} t^c = (D_s t)^c, D^c_{s^c} t^v =
        D^c_{s^v} t^c = (D_s t)^v and D^c_{s^v} t^v = 0."""
        base = self.base
        r = self.r
        zero = self.algebroid.zero_section()
        derivs = [[zero] * (2 * r) for _ in range(2 * r)]
        for a in range(r):
            for b in range(r):
                nab = Section(base, [conn.gamma[d][a][b] for d in range(r)])
                derivs[a][b] = self.complete_lift(nab)
                derivs[a][r + b] = derivs[r + a][b] = self.vertical_lift(nab)
        return self._lift_frame().connection(derivs)

    def _lift_frame(self) -> "_ShiftedFrame":
        return _ShiftedFrame(self, [self.complete_lift(e)
                                    for e in self.base.frame])

    def _horizontal_frame(self, conn: Connection) -> "_ShiftedFrame":
        return _ShiftedFrame(self, [self.horizontal_lift(e, conn)
                                    for e in self.base.frame])


class _ShiftedFrame:
    """A frame (U_a, V_a) of a prolongation with U_a = X_a - L^b_a V_b.

    The lift frame has U_a = e_a^c and L^b_a = C^b_af y^f, the horizontal
    frame U_a = e_a^h and L^b_a = Gamma^b_af y^f.  L is read off the
    V-components of U_a, and X_a = U_a + L^b_a V_b expands each (X, V)
    frame element N_mu = Q^kappa_mu U_kappa in closed form, so data given
    on this frame moves to the (X, V) frame without a matrix inverse.
    """

    def __init__(self, p: Prolongation, heads: List[Section]):
        r = p.r
        self.algebroid = p.algebroid
        self.sections = heads + [p.vertical_lift(e) for e in p.base.frame]
        # expansion[mu]: the nonzero pairs (kappa, Q^kappa_mu)
        self.expansion = [[(mu, p.chart.one)] for mu in range(2 * r)]
        for a, u in enumerate(heads):
            for b in range(r):
                L = -u.components[r + b]
                if not L.is_structurally_zero():
                    self.expansion[a].append((r + b, L))

    def _combine(self, terms) -> List[Scalar]:
        """Components of sum(coeff * section) over (coeff, section) pairs."""
        acc = self.algebroid.zero_section()
        for coeff, s in terms:
            acc = acc + s.scale(coeff)
        return acc.components

    def endo(self, images: List[Section]) -> EndoField:
        """T with T(U_kappa) = images[kappa]."""
        cols = [self._combine((q, images[k]) for k, q in self.expansion[mu])
                for mu in range(self.algebroid.rank)]
        return EndoField(self.algebroid, list(zip(*cols)))

    def form(self, values) -> List[List[Scalar]]:
        """B with B(U_kappa, U_sigma) = values[kappa][sigma]."""
        n = self.algebroid.rank
        return [[sum((p * q * values[k][s]
                      for k, p in self.expansion[mu]
                      for s, q in self.expansion[nu]),
                     self.algebroid.chart.zero)
                 for nu in range(n)] for mu in range(n)]

    def connection(self, derivs) -> Connection:
        """D with D_{U_kappa} U_sigma = derivs[kappa][sigma]:
        D_{N_mu} N_nu = rho(N_mu)(Q^sigma_nu) U_sigma
                        + Q^kappa_mu Q^sigma_nu D_{U_kappa} U_sigma."""
        A = self.algebroid
        n = A.rank
        gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
        for mu in range(n):
            rho = A.anchor_vf(mu)
            for nu in range(n):
                terms = []
                for s, q in self.expansion[nu]:
                    terms.append((rho.apply(q), self.sections[s]))
                    terms += [(p * q, derivs[k][s])
                              for k, p in self.expansion[mu]]
                for tau, val in enumerate(self._combine(terms)):
                    gamma[tau][mu][nu] = val
        return Connection(A, gamma)


def prolong(base: Algebroid) -> Prolongation:
    return Prolongation(base)


# ---------------------------------------------------------------------------


@dataclass
class ProductAlgebroid:
    """Direct product with block anchor, bracket, J and metric."""

    A1: Algebroid
    A2: Algebroid
    algebroid: Algebroid
    J: Optional[EndoField]
    g: Optional[Metric]
    rename: dict

    def inject1(self, s: Section) -> Section:
        chart = self.algebroid.chart
        comps = [c.on_chart(chart) for c in s.components] \
            + [chart.zero] * self.A2.rank
        return Section(self.algebroid, comps)

    def inject2(self, s: Section) -> Section:
        chart = self.algebroid.chart
        comps = [chart.zero] * self.A1.rank \
            + [c.on_chart(chart, self.rename) for c in s.components]
        return Section(self.algebroid, comps)


def direct_product(A1: Algebroid, A2: Algebroid,
                   J1: Optional[EndoField] = None,
                   J2: Optional[EndoField] = None,
                   g1: Optional[Metric] = None,
                   g2: Optional[Metric] = None) -> ProductAlgebroid:
    """Block algebroid over the concatenated chart; the second factor's
    coordinates are renamed to stay distinct."""
    d1, d2 = A1.chart.dim, A2.chart.dim
    r1, r2 = A1.rank, A2.rank
    names = [c.name for c in A1.chart.coords]
    new2 = []
    for j in range(d2):
        cand = f"x{d1 + j + 1}"
        while cand in names or cand in new2:
            cand = cand + "_"
        new2.append(cand)
    chart = Chart(f"{A1.chart.name}_x_{A2.chart.name}", names + new2)
    rename = {A2.chart.coords[j]: chart.coord(new2[j]) for j in range(d2)}

    def lift1(s: Scalar) -> Scalar:
        return s.on_chart(chart)

    def lift2(s: Scalar) -> Scalar:
        return s.on_chart(chart, rename)

    anchor = []
    for a in range(r1):
        anchor.append([lift1(A1.anchor[a][i]) for i in range(d1)]
                      + [chart.zero] * d2)
    for a in range(r2):
        anchor.append([chart.zero] * d1
                      + [lift2(A2.anchor[a][i]) for i in range(d2)])
    cdict = {}
    for a in range(r1):
        for b in range(a + 1, r1):
            for c in range(r1):
                if not A1.C[c][a][b].is_structurally_zero():
                    cdict[(a, b, c)] = lift1(A1.C[c][a][b])
    for a in range(r2):
        for b in range(a + 1, r2):
            for c in range(r2):
                if not A2.C[c][a][b].is_structurally_zero():
                    cdict[(r1 + a, r1 + b, r1 + c)] = lift2(A2.C[c][a][b])
    A = Algebroid(chart, r1 + r2, anchor, cdict)

    def block(M1, M2) -> List[List[Scalar]]:
        """The block-diagonal matrix diag(M1, M2) over the product frame."""
        rows = [[chart.zero] * (r1 + r2) for _ in range(r1 + r2)]
        for p in range(r1):
            for q in range(r1):
                rows[p][q] = lift1(M1.entry(p, q))
        for p in range(r2):
            for q in range(r2):
                rows[r1 + p][r1 + q] = lift2(M2.entry(p, q))
        return rows

    J = None
    if J1 is not None and J2 is not None:
        J = almost_complex_structure(A, block(J1, J2))
    g = None
    if g1 is not None and g2 is not None:
        g = Metric(A, block(g1, g2))
    return ProductAlgebroid(A1, A2, A, J, g, rename)


# ---------------------------------------------------------------------------


@dataclass
class ProjectorRestriction:
    """Restriction of ambient anchored data through an idempotent Pi.

    ``checks`` holds ``derived_anchor_morphism`` indexed (a, b, i),
    ``flatness`` indexed (a, b, c) and, when an ambient J is given,
    ``J_commutes`` (Pi J - J Pi) indexed (i, j).  The structure equations
    of ``algebroid`` are not among them: ``validate_structure`` checks
    them when a caller asks.
    """

    chart: Chart
    ambient_rank: int
    Pi: list
    algebroid: Algebroid
    checks: Residuals
    J: Optional[EndoField]


def projector_restriction(chart: Chart, rho0, Pi, lift,
                          ambient_J=None) -> ProjectorRestriction:
    """Restrict the trivial ambient bundle through the projector Pi.

    ``rho0`` is chart.dim x rank (the ambient anchor), ``Pi`` is
    rank x rank and must be idempotent, ``lift`` is rank x chart.dim and
    maps chart vector fields back to sections.  The restriction has
    anchor rho0 Pi and bracket coefficients C^c_ab =
    lift(vf_bracket(rho_a, rho_b))^c; the flatness residual
    (I - Pi)[Pi e_a, Pi e_b] is recorded for every frame pair.
    """
    rank = len(Pi)
    rho0 = [[chart.scalar(v) for v in row] for row in rho0]
    Pi = [[chart.scalar(v) for v in row] for row in Pi]
    lift = [[chart.scalar(v) for v in row] for row in lift]
    # idempotency
    PiM = ScalarMatrix(chart, Pi)
    Pi2 = (PiM @ PiM).rows()
    for i in range(rank):
        for j in range(rank):
            if not (Pi2[i][j] - Pi[i][j]).is_structurally_zero():
                raise ValueError("projector is not idempotent")

    # row a of the anchor is column a of rho0 Pi, so row a of Pi^T rho0^T
    anchor = (ScalarMatrix(chart, zip(*Pi))
              @ ScalarMatrix(chart, zip(*rho0))).rows()
    rho_vfs = [VectorField(chart, anchor[a]) for a in range(rank)]

    liftM = ScalarMatrix(chart, lift)
    cdict = {}
    brs = {}
    for a in range(rank):
        for b in range(a + 1, rank):
            br = vf_bracket(rho_vfs[a], rho_vfs[b])
            brs[(a, b)] = br
            for c, acc in enumerate(liftM.apply(br.components)):
                if not acc.is_structurally_zero():
                    cdict[(a, b, c)] = acc
    A = Algebroid(chart, rank, anchor, cdict)
    checks = Residuals()

    # anchor morphism of the derived bracket against the chart bracket
    for (a, b), br in brs.items():
        for i in range(chart.dim):
            acc = -br.components[i]
            for c in range(rank):
                acc = acc + A.C[c][a][b] * A.anchor[c][i]
            checks.add("derived_anchor_morphism", (a, b, i), acc)

    # flatness: (I - Pi) [Pi e_a, Pi e_b] with constant ambient extensions;
    # rho[c][b][a] = rho_a(Pi^c_b), from the gradient of Pi^c_b taken once
    anchorM = ScalarMatrix(chart, anchor)
    rho = [[anchorM.apply([v.diff(x) for x in chart.coords]) for v in row]
           for row in Pi]
    for a in range(rank):
        for b in range(a + 1, rank):
            amb = [rho[c][b][a] - rho[c][a][b] for c in range(rank)]
            for c in range(rank):
                acc = amb[c]
                for d in range(rank):
                    acc = acc - Pi[c][d] * amb[d]
                checks.add("flatness", (a, b, c), acc)

    J = None
    if ambient_J is not None:
        J = almost_complex_structure(A, ambient_J)
        JM = ScalarMatrix(chart, [[J.entry(i, j) for j in range(rank)]
                                  for i in range(rank)])
        PiJ, JPi = (PiM @ JM).rows(), (JM @ PiM).rows()
        for i in range(rank):
            for j in range(rank):
                checks.add("J_commutes", (i, j), PiJ[i][j] - JPi[i][j])
    return ProjectorRestriction(chart, rank, Pi, A, checks, J)


# ---------------------------------------------------------------------------
# fixture catalog


@dataclass(frozen=True)
class Fixture:
    """An algebroid with its optional J and metric, and everything derived
    from them.

    The derived objects are cached properties: each is built on first use
    and then shared by every caller holding this Fixture.  Each property
    calls its builder through this module's global name (inside a method,
    ``nijenhuis`` is the module-level function, not the property), so
    replacing a builder in this module's namespace, as call tracing does,
    sees every build.  ``fixture(name)`` shares one Fixture per name for
    the whole process, so such tracing sees cold builds only: a derived
    object already cached on a shared Fixture is not built again.  The
    fields are frozen; ``dataclasses.replace(fx)`` gives a private copy
    over the same chart, with every cache empty.
    """

    name: str
    algebroid: Algebroid
    J: Optional[EndoField] = None
    g: Optional[Metric] = None
    restriction: Optional[ProjectorRestriction] = None
    prolongation: Optional[Prolongation] = None
    product: Optional[ProductAlgebroid] = None

    @cached_property
    def frame(self) -> ComplexFrame:
        """The adapted complex frame of J."""
        return adapted_complex_frame(self.algebroid, self.J)

    @cached_property
    def nijenhuis(self) -> NijenhuisTensor:
        return nijenhuis(self.algebroid, self.J)

    @cached_property
    def projectors(self) -> Tuple[EndoField, EndoField]:
        """p10 and p01 of J over the real frame."""
        return projectors(self.J)

    @cached_property
    def hermitian(self) -> Residuals:
        """Check ``hermitian`` of g and J over the real frame."""
        return hermitian_check(self.g, self.J)

    @cached_property
    def fundamental_form(self) -> EForm:
        """Phi(s1, s2) = g(s1, J s2)."""
        return fundamental_form(self.g, self.J)

    @cached_property
    def h(self) -> tuple:
        """h(F_mu, F_nu) = g(F_mu, conj F_nu) over the complex frame."""
        return hermitian_table(self.g, self.frame)

    @cached_property
    def levi_civita(self) -> Connection:
        """The Levi-Civita connection of g over the real frame."""
        return levi_civita(self.algebroid, self.g)

    @cached_property
    def almost_complex(self) -> Residuals:
        """Check ``almost_complex`` of the Levi-Civita connection."""
        return almost_complex_check(self.levi_civita, self.J)

    @cached_property
    def complex_levi_civita(self) -> Connection:
        """The Levi-Civita connection of g over the complex frame."""
        return levi_civita_complex_frame(self)

    @cached_property
    def product_connection(self) -> ProductConnection:
        return product_connection(self)

    @cached_property
    def second_fundamental(self) -> SecondFundamentalForm:
        return second_fundamental(self)

    @cached_property
    def real_B(self) -> Callable[[Section, Section], Section]:
        """B over the real algebroid; ``real_B.at(a, b)`` = B(e_a, e_b),
        each entry computed once."""
        return real_frame_B(self)


def _flat_r2() -> Fixture:
    chart = Chart("flat_r2", ["x1", "x2"])
    A = Algebroid(chart, 2, [[1, 0], [0, 1]], {})
    J = almost_complex_structure(A, [[0, -1], [1, 0]])
    g = Metric(A, [[1, 0], [0, 1]])
    return Fixture("flat_r2", A, J, g)


def _flat_r4() -> Fixture:
    chart = Chart("flat_r4", ["x1", "x2", "x3", "x4"])
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    A = Algebroid(chart, 4, eye, {})
    J = almost_complex_structure(A, [[0, -1, 0, 0], [1, 0, 0, 0],
                                     [0, 0, 0, -1], [0, 0, 1, 0]])
    g = Metric(A, eye)
    return Fixture("flat_r4", A, J, g)


def _heis_j() -> Fixture:
    chart = Chart("heis_j", ["x1"])
    A = Algebroid(chart, 4, [[0], [0], [0], [0]], {(0, 1, 2): 2})
    J = almost_complex_structure(A, [[0, 0, -1, 0], [0, 0, 0, -1],
                                     [1, 0, 0, 0], [0, 1, 0, 0]])
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    g = Metric(A, eye)
    return Fixture("heis_j", A, J, g)


def _heis_broken() -> Fixture:
    chart = Chart("heis_broken", ["x1"])
    A = Algebroid(chart, 4, [[0], [0], [0], [0]],
                  {(0, 1, 2): 1, (0, 2, 0): 1})
    return Fixture("heis_broken", A)


def _warped_r4() -> Fixture:
    chart = Chart("warped_r4", ["x1", "x2", "x3", "x4"])
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    A = Algebroid(chart, 4, eye, {})
    J = almost_complex_structure(A, [[0, 1, 0, 0], [-1, 0, 0, 0],
                                     [0, 0, 0, 1], [0, 0, -1, 0]])
    w = "1 + x3^2"
    g = Metric(A, [[w, 0, 0, 0], [0, w, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return Fixture("warped_r4", A, J, g)


def _conformal_sphere_chart() -> Fixture:
    chart = Chart("conformal_sphere_chart", ["x1", "x2"])
    A = Algebroid(chart, 2, [[1, 0], [0, 1]], {})
    J = almost_complex_structure(A, [[0, -1], [1, 0]])
    lam = "4 / (1 + x1^2 + x2^2)^2"
    g = Metric(A, [[lam, 0], [0, lam]])
    return Fixture("conformal_sphere_chart", A, J, g)


def _s3_projector() -> Fixture:
    chart = Chart("s3_projector", ["u1", "u2", "u3"])
    u = [chart.scalar(c) for c in chart.coords]
    q = 1 + u[0] ** 2 + u[1] ** 2 + u[2] ** 2
    n = [2 * u[0] / q, 2 * u[1] / q, 2 * u[2] / q, (q - 2) / q]
    Pi = [[int(a == b) - n[a] * n[b] for b in range(4)] for a in range(4)]
    P = [[n[a].diff(c) for c in chart.coords] for a in range(4)]  # 4 x 3 lift
    # Jacobian of the stereographic chart map at n(u)
    rho0 = [[chart.zero] * 4 for _ in range(3)]
    for a in range(3):
        rho0[a][a] = q / 2
        rho0[a][3] = u[a] * q / 2
    Jmat = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    restriction = projector_restriction(chart, rho0, Pi, P, ambient_J=Jmat)
    A = restriction.algebroid
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    g = Metric(A, eye)
    return Fixture("s3_projector", A, restriction.J, g,
                   restriction=restriction)


CATALOG_NAMES = ["flat_r2", "flat_r4", "heis_j", "warped_r4",
                 "conformal_sphere_chart", "s3_projector"]

_BUILDERS = {
    "flat_r2": _flat_r2,
    "flat_r4": _flat_r4,
    "heis_j": _heis_j,
    "heis_broken": _heis_broken,
    "warped_r4": _warped_r4,
    "conformal_sphere_chart": _conformal_sphere_chart,
    "s3_projector": _s3_projector,
}


def fixture_names() -> List[str]:
    return CATALOG_NAMES + ["heis_broken"]


def fixture(name: str) -> Fixture:
    """Catalog lookup; supports prolong(<name>) and product(<a>,<b>).

    The result is built once per process and shared: every lookup of the
    same name, up to surrounding whitespace, returns the same Fixture with
    the derived objects it has already built.  A failed build is not kept.
    """
    return _fixture(name.strip())


@cache
def _fixture(name: str) -> Fixture:
    if name.startswith("prolong(") and name.endswith(")"):
        base = fixture(name[len("prolong("):-1])
        p = prolong(base.algebroid)
        J = p.complete_lift_endo(base.J) if base.J is not None else None
        return Fixture(name, p.algebroid, J=J, prolongation=p)
    if name.startswith("product(") and name.endswith(")"):
        inner = name[len("product("):-1]
        parts = _split_product_args(inner)
        if len(parts) != 2:
            raise KeyError(f"product takes two fixture names: {name!r}")
        f1, f2 = fixture(parts[0]), fixture(parts[1])
        prod = direct_product(f1.algebroid, f2.algebroid,
                              f1.J, f2.J, f1.g, f2.g)
        return Fixture(name, prod.algebroid, J=prod.J, g=prod.g,
                       product=prod)
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}") from None


def _split_product_args(inner: str) -> List[str]:
    parts, depth, cur = [], 0, []
    for ch in inner:
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur).strip())
    return parts
