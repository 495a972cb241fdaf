"""Linear connections, metrics, Levi-Civita, curvature and Kahler tools.

Conventions (all frame indices 0-based):

    nabla_{e_a} e_b = Gamma^c_ab e_c
    T^c_ab = Gamma^c_ab - Gamma^c_ba - C^c_ab
    R(s1,s2)s3 = nabla_{s1}nabla_{s2}s3 - nabla_{s2}nabla_{s1}s3
                 - nabla_{[s1,s2]}s3
    R4(s1,s2,s3,s4) = g(R(s3,s4)s2, s1)

The Levi-Civita coefficients in the real frame are

    Gamma^a_bc = (1/2) g^{ad} (rho_b(g_cd) + rho_c(g_bd) - rho_d(g_bc)
                 + C^e_dc g_eb + C^e_db g_ec - C^e_bc g_ed)

and the complex-frame families follow the Hermitian pairing g_{a bbar}
with inverse g^{bbar a} (sum_b g_{a bbar} g^{bbar c} = delta_a^c).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Sequence

from algebroids.algebroid import (
    Algebroid,
    PreconditionError,
    Residuals,
    Section,
    bilinear,
    bilinear_section,
    bracket,
    derivatives,
)
from algebroids.eforms import EForm, d_E, evaluate
from algebroids.jstruct import ComplexFrame, EndoField, IntegrabilityError
from algebroids.scalars import (
    ChartError,
    Scalar,
    ScalarMatrix,
    Table,
    _vanishes_at_samples,
    add_product,
)

if TYPE_CHECKING:
    from algebroids.constructions import Fixture

__all__ = [
    "Metric",
    "Connection",
    "cov_deriv",
    "torsion",
    "curvature_operator",
    "curvature_components",
    "levi_civita",
    "metric_compat_check",
    "almost_complex_check",
    "hermitian_check",
    "HermitianError",
    "require_hermitian",
    "fundamental_form",
    "kahler_report",
    "hermitian_table",
    "levi_civita_complex_frame",
    "kahler_complex_curvature",
    "riemann4",
    "holomorphic_sectional",
]


class Metric:
    """Symmetric nondegenerate fiber metric with Scalar components."""

    def __init__(self, algebroid: Algebroid, matrix: Sequence[Sequence]):
        self.algebroid = algebroid
        m = algebroid.rank
        chart = algebroid.chart
        self.matrix = Table(
            [chart.scalar(matrix[a][b]) for b in range(m)] for a in range(m)
        )
        for a in range(m):
            for b in range(a + 1, m):
                if not (self.matrix[a][b] - self.matrix[b][a]).is_structurally_zero():
                    raise ValueError("metric is not symmetric")
        M = ScalarMatrix(chart, self.matrix)
        det = M.det()
        # sampling can only add to the structural answer when an atom
        # (sin^2 + cos^2 - 1) hides a zero from the normal form
        if det.is_structurally_zero() or (not det.is_rational_function()
                                          and _vanishes_at_samples(det)):
            raise ValueError("metric is structurally singular")
        self.inverse = Table(M.inverse().rows())

    def value(self, s1: Section, s2: Section) -> Scalar:
        return bilinear(self.algebroid.chart.zero, self.matrix, s1, s2)

    def entry(self, a: int, b: int) -> Scalar:
        return self.matrix[a][b]


class Connection:
    """Connection coefficients over the real frame or a complex frame.

    ``algebroid`` carries the anchors and structure functions of whichever
    frame the coefficients refer to (a ComplexFrame passes its induced
    algebroid), so covariant derivatives, torsion and curvature read the
    same in both cases.  ``checks`` holds the residuals of the cross-checks
    its builder ran on it (empty for a connection given by coefficients).
    """

    def __init__(self, algebroid: Algebroid, gamma):
        self.algebroid = algebroid
        self.checks = Residuals()
        m = algebroid.rank
        chart = algebroid.chart
        self.gamma = tuple(
            Table([chart.scalar(gamma[c][a][b]) for b in range(m)]
                  for a in range(m))
            for c in range(m)
        )


def cov_deriv(conn: Connection, s1: Section, s2: Section) -> Section:
    """nabla_{s1} s2 componentwise."""
    A = conn.algebroid
    if s1.algebroid is not A or s2.algebroid is not A:
        raise ChartError("sections do not live over the connection's frame")
    return bilinear_section(derivatives(s1, s2), conn.gamma, s1, s2)


def torsion(conn: Connection):
    """T^c_ab = Gamma^c_ab - Gamma^c_ba - C^c_ab."""
    A = conn.algebroid
    m = A.rank
    return tuple(
        tuple(
            tuple(
                conn.gamma[c][a][b] - conn.gamma[c][b][a] - A.C[c][a][b]
                for b in range(m))
            for a in range(m))
        for c in range(m)
    )


def curvature_operator(conn: Connection, s1: Section, s2: Section,
                       s3: Section) -> Section:
    """R(s1,s2)s3 from the defining formula."""
    return (
        cov_deriv(conn, s1, cov_deriv(conn, s2, s3))
        - cov_deriv(conn, s2, cov_deriv(conn, s1, s3))
        - cov_deriv(conn, bracket(s1, s2), s3)
    )


def curvature_components(conn: Connection):
    """R^d_{ab,c} with R(e_a,e_b)e_c = R^d_{ab,c} e_d.

    Expanded coefficient formula:
    R^d_{ab,c} = rho_a(G^d_bc) - rho_b(G^d_ac) + G^e_bc G^d_ae
                 - G^e_ac G^d_be - C^e_ab G^d_ec.
    """
    A = conn.algebroid
    m = A.rank
    chart = A.chart
    G = conn.gamma
    out = [[[[chart.zero] * m for _ in range(m)] for _ in range(m)]
           for _ in range(m)]
    for a in range(m):
        rho_a = A.anchor_vf(a)
        for b in range(a + 1, m):
            rho_b = A.anchor_vf(b)
            for c in range(m):
                for d in range(m):
                    acc = rho_a.apply(G[d][b][c])
                    acc = acc - rho_b.apply(G[d][a][c])
                    for e in range(m):
                        acc = add_product(acc, 1, G[e][b][c], G[d][a][e])
                        acc = add_product(acc, -1, G[e][a][c], G[d][b][e])
                        acc = add_product(acc, -1, A.C[e][a][b], G[d][e][c])
                    out[d][a][b][c] = acc
                    out[d][b][a][c] = -acc
    return tuple(tuple(tuple(tuple(r) for r in s) for s in t) for t in out)


def levi_civita(A: Algebroid, g: Metric) -> Connection:
    """Torsion-free metric connection from the Koszul coefficient formula.

    Torsion-freeness and metric compatibility are re-verified on the
    result (checks ``torsion_free`` and ``metric_compatible``); failure
    means inconsistent inputs and raises InconsistencyError.
    """
    m = A.rank
    chart = A.chart
    C, G = A.C, g.matrix
    gamma = [[[chart.zero] * m for _ in range(m)] for _ in range(m)]
    rho = [A.anchor_vf(x) for x in range(m)]
    # koszul[b][c][d] = 2 g(nabla_{e_b} e_c, e_d)
    koszul = [[[None] * m for _ in range(m)] for _ in range(m)]
    for b in range(m):
        for c in range(m):
            for d in range(m):
                inner = (rho[b].apply(G[c][d]) + rho[c].apply(G[b][d])
                         - rho[d].apply(G[b][c]))
                # bracket terms of the Koszul identity:
                # g([e_d,e_b],e_c) + g([e_d,e_c],e_b) + g([e_b,e_c],e_d)
                for e in range(m):
                    inner = add_product(inner, 1, C[e][d][c], G[e][b])
                    inner = add_product(inner, 1, C[e][d][b], G[e][c])
                    inner = add_product(inner, 1, C[e][b][c], G[e][d])
                koszul[b][c][d] = inner
    for a, b, c in product(range(m), repeat=3):
        acc = chart.zero
        for d, x in g.inverse.terms[a]:
            acc = add_product(acc, 1, x, koszul[b][c][d])
        gamma[a][b][c] = acc / 2
    conn = Connection(A, gamma)

    T = torsion(conn)
    for c, a, b in product(range(m), repeat=3):
        conn.checks.add("torsion_free", (c, a, b), T[c][a][b])
    conn.checks.update(metric_compat_check(conn, g))
    conn.checks.require()
    return conn


def metric_compat_check(conn: Connection, g: Metric) -> Residuals:
    """Check ``metric_compatible``: residuals rho_a(g_bc) - g(nabla_a e_b,
    e_c) - g(e_b, nabla_a e_c) indexed (a, b, c)."""
    A = conn.algebroid
    m = A.rank
    residuals = Residuals()
    frame = A.frame
    for a in range(m):
        rho_a = A.anchor_vf(a)
        nabla_a = [cov_deriv(conn, frame[a], e) for e in frame]
        for b in range(m):
            for c in range(b, m):
                res = (rho_a.apply(g.matrix[b][c])
                       - g.value(nabla_a[b], frame[c])
                       - g.value(frame[b], nabla_a[c]))
                residuals.add("metric_compatible", (a, b, c), res)
    return residuals


def almost_complex_check(conn: Connection, J: EndoField) -> Residuals:
    """Check ``almost_complex``: components of (nabla_a J) e_b indexed
    (a, b, c)."""
    A = conn.algebroid
    m = A.rank
    residuals = Residuals()
    frame = A.frame
    for a in range(m):
        for b in range(m):
            res = (cov_deriv(conn, frame[a], J.apply(frame[b]))
                   - J.apply(cov_deriv(conn, frame[a], frame[b])))
            for c in range(m):
                residuals.add("almost_complex", (a, b, c),
                              res.components[c])
    return residuals


def nabla_J(conn: Connection, J: EndoField, s1: Section, s2: Section) -> Section:
    """(nabla_{s1} J) s2."""
    return (cov_deriv(conn, s1, J.apply(s2))
            - J.apply(cov_deriv(conn, s1, s2)))


def hermitian_check(g: Metric, J: EndoField) -> Residuals:
    """Check ``hermitian``: residuals g(J e_a, J e_b) - g_ab indexed (a, b)."""
    A = g.algebroid
    residuals = Residuals()
    frame = A.frame
    for a in range(A.rank):
        for b in range(a, A.rank):
            res = g.value(J.apply(frame[a]), J.apply(frame[b])) - g.matrix[a][b]
            residuals.add("hermitian", (a, b), res)
    return residuals


class HermitianError(PreconditionError):
    """An operation needing a Hermitian metric received a non-Hermitian one."""


def require_hermitian(fx: Fixture) -> None:
    if not fx.hermitian.ok():
        raise HermitianError("metric is not Hermitian for this J")


def fundamental_form(g: Metric, J: EndoField) -> EForm:
    """Phi(s1,s2) = g(s1, J s2), re-verified antisymmetric and J-invariant."""
    A = g.algebroid
    frame = A.frame
    phi = EForm(A, 2)
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            phi[(a, b)] = g.value(frame[a], J.apply(frame[b]))
    # re-verify the defining antisymmetry and J-invariance on frame pairs
    checks = Residuals()
    for a in range(A.rank):
        for b in range(A.rank):
            checks.add("fundamental_form_antisymmetric", (a, b),
                       g.value(frame[a], J.apply(frame[b]))
                       + g.value(frame[b], J.apply(frame[a])))
            checks.add("fundamental_form_j_invariant", (a, b),
                       g.value(J.apply(frame[a]), J.apply(J.apply(frame[b])))
                       - g.value(frame[a], J.apply(frame[b])))
    checks.require()
    return phi


@dataclass
class KahlerReport:
    """The Kahler trichotomy; ``checks`` holds the covariant-derivative
    identity ``fundamental_form_identity`` indexed by frame triples."""

    nijenhuis_zero: bool
    dphi_zero: bool
    lc_almost_complex: bool
    equivalence_holds: bool
    checks: Residuals
    dphi: EForm = None

    @property
    def kahler(self) -> bool:
        return self.nijenhuis_zero and self.dphi_zero

    @property
    def status(self) -> str:
        if not self.nijenhuis_zero:
            return "non-integrable"
        if not self.dphi_zero:
            return "hermitian-non-kahler"
        return "kahler"


def kahler_report(fx: Fixture) -> KahlerReport:
    """Kahler trichotomy plus the covariant-derivative identity

    2 g((D_{s1}J)s2, s3) = dPhi(s1, Js2, Js3) - dPhi(s1, s2, s3)
                           + g(N(s2,s3), J s1)

    checked on all frame triples (it is an identity, so a nonzero residual
    means an implementation bug).
    """
    A, J, g = fx.algebroid, fx.J, fx.g
    require_hermitian(fx)
    N = fx.nijenhuis
    dphi = d_E(fx.fundamental_form)
    D = fx.levi_civita

    frame, m = A.frame, A.rank
    Jframe = [J.apply(s) for s in frame]
    # N(e_b, e_c), once per (b, c)
    Ntab = [[N.value(s2, s3) for s3 in frame] for s2 in frame]
    checks = Residuals()
    for a in range(m):
        for b in range(m):
            dj = nabla_J(D, J, frame[a], frame[b])
            for c in range(m):
                lhs = 2 * g.value(dj, frame[c])
                rhs = (evaluate(dphi, [frame[a], Jframe[b], Jframe[c]])
                       - evaluate(dphi, [frame[a], frame[b], frame[c]])
                       + g.value(Ntab[b][c], Jframe[a]))
                checks.add("fundamental_form_identity", (a, b, c), lhs - rhs)
    n_zero = N.is_structurally_zero()
    dphi_zero = dphi.is_structurally_zero()
    lc_ac = fx.almost_complex.ok()
    equivalence = lc_ac == (n_zero and dphi_zero)
    return KahlerReport(n_zero, dphi_zero, lc_ac, equivalence, checks,
                        dphi=dphi)


# ---------------------------------------------------------------------------
# Hermitian components over a complex frame


def hermitian_table(g: Metric, F: ComplexFrame) -> Table:
    """h(F_mu, F_nu) = g(F_mu, conj F_nu) over complex-frame indices.

    The block h[a][b] (a, b < m) is g_{a bbar}; the block h[a][m + b] is
    g(f_a, f_b), which must vanish, and g_{a bbar} = conj(g_{b abar}) must
    hold, or HermitianError is raised.
    """
    m, two_m = F.m, 2 * F.m
    h = Table([g.value(F.sections[mu], F.sections[F.conj_index(nu)])
               for nu in range(two_m)] for mu in range(two_m))
    for a, b in product(range(m), repeat=2):
        if not h[a][m + b].is_structurally_zero():
            raise HermitianError(
                "g(f_a, f_b) must vanish for a Hermitian metric")
    for a, b in product(range(m), repeat=2):
        if not (h[a][b] - h[b][a].conjugate()).is_structurally_zero():
            raise HermitianError(
                "Hermitian symmetry g_ab_bar = conj(g_ba_bar) fails")
    return h


def levi_civita_complex_frame(fx: Fixture) -> Connection:
    """Levi-Civita coefficients over the complex frame.

    The four displayed coefficient families (and their conjugates) are
    computed from the Hermitian components g_{a bbar} = h[a][b] of
    ``fx.h`` and their inverse g^{bbar a}; the result is cross-checked
    against the frame transformation of the real-frame Levi-Civita.  The
    residuals are recorded in the returned connection's ``checks`` under
    ``formula_vs_transform`` rather than silently patched.
    """
    F = fx.frame
    require_hermitian(fx)
    CA = F.as_algebroid
    chart = CA.chart
    m = F.m
    two_m = 2 * m

    def bar(x: int) -> int:
        return x + m

    h = fx.h
    # sum_b h[a][b] hinv[b][c] = delta_a^c, so hinv[b][c] = g^{bbar c}
    hinv = ScalarMatrix(chart, [row[:m] for row in h[:m]]).inverse().rows()
    rho = [CA.anchor_vf(mu) for mu in range(two_m)]
    C = CA.C
    half = Fraction(1, 2)

    gamma = [[[chart.zero] * two_m for _ in range(two_m)] for _ in range(two_m)]

    def family(d, init, terms, inverse=lambda c, d: hinv[c][d]):
        """(1/2) sum_c inverse(c, d) (init(c) + the sign * x * y of
        terms(c, e) for each e), every term added in index order."""
        acc = chart.zero
        for c in range(m):
            inner = init(c)
            for e in range(m):
                for sign, x, y in terms(c, e):
                    inner = add_product(inner, sign, x, y)
            acc = add_product(acc, 1, inverse(c, d), inner)
        return half * acc

    for d, a, b in product(range(m), repeat=3):
        # Gamma^d_ab, all indices unbarred
        gamma[d][a][b] = family(
            d, lambda c: rho[a].apply(h[b][c]) + rho[b].apply(h[a][c]),
            lambda c, e: ((1, C[e][a][b], h[e][c]),
                          (-1, C[bar(e)][b][bar(c)], h[a][e]),
                          (1, C[bar(e)][bar(c)][a], h[b][e])))
        # Gamma^d_{a bbar}
        gamma[d][a][bar(b)] = family(
            d, lambda c: (rho[bar(b)].apply(h[a][c])
                          - rho[bar(c)].apply(h[a][b])),
            lambda c, e: ((1, C[e][a][bar(b)], h[e][c]),
                          (-1, C[bar(e)][bar(b)][bar(c)], h[a][e]),
                          (1, C[e][bar(c)][a], h[e][b])))
        # Gamma^d_{abar b}
        gamma[d][bar(a)][b] = family(
            d, lambda c: (rho[bar(a)].apply(h[b][c])
                          - rho[bar(c)].apply(h[b][a])),
            lambda c, e: ((1, C[e][bar(a)][b], h[e][c]),
                          (-1, C[e][b][bar(c)], h[e][a]),
                          (1, C[bar(e)][bar(c)][bar(a)], h[b][e])))
        # Gamma^{dbar}_{ab}, with g^{dbar c} = conj(g^{cbar d})
        gamma[bar(d)][a][b] = family(
            d, lambda c: chart.zero,
            lambda c, e: ((1, C[bar(e)][a][b], h[c][e]),
                          (-1, C[bar(e)][b][c], h[a][e]),
                          (1, C[bar(e)][c][a], h[b][e])),
            lambda c, d: hinv[c][d].conjugate())

    # conjugate families
    for d, a, b in product(range(m), repeat=3):
        gamma[bar(d)][bar(a)][bar(b)] = gamma[d][a][b].conjugate()
        gamma[bar(d)][bar(a)][b] = gamma[d][a][bar(b)].conjugate()
        gamma[bar(d)][a][bar(b)] = gamma[d][bar(a)][b].conjugate()
        gamma[d][bar(a)][bar(b)] = gamma[bar(d)][a][b].conjugate()

    conn = Connection(CA, gamma)

    # cross-check against the transformed real-frame Levi-Civita
    D = fx.levi_civita
    for mu in range(two_m):
        for nu in range(two_m):
            derived = cov_deriv(D, F.sections[mu], F.sections[nu])
            coeffs = F.expand(derived)
            for lam in range(two_m):
                conn.checks.add("formula_vs_transform", (lam, mu, nu),
                                coeffs[lam] - gamma[lam][mu][nu])
    return conn


@dataclass
class KahlerCurvatureReport:
    """Curvature components with the checks ``barred_formula``,
    ``conjugation`` and ``outside_families``.

    R^d_{ab,c} uses the same general coefficient formula it was computed
    with, so that family is consistent by construction and not checked.
    """

    components: tuple
    checks: Residuals


def kahler_complex_curvature(connF: Connection,
                             F: ComplexFrame) -> KahlerCurvatureReport:
    """Curvature of the complex-frame Levi-Civita in the Kahler case.

    Verifies the displayed reduced formula for R^{dbar}_{a bbar, cbar},
    the conjugation relations, and that everything outside the two
    families (and their conjugates) vanishes.
    """
    CA = connF.algebroid
    m = F.m
    two_m = 2 * m

    def bar(x: int) -> int:
        return (x + m) % two_m

    def barred(x: int) -> bool:
        return x >= m

    # require the Kahler coefficient pattern: only Gamma^d_ab, Gamma^d_{abar b}
    # and their conjugates may be nonzero
    allowed_gamma = {(False, False, False), (False, True, False),
                     (True, True, True), (True, False, True)}
    for d in range(two_m):
        for mu in range(two_m):
            for nu in range(two_m):
                if (barred(d), barred(mu), barred(nu)) in allowed_gamma:
                    continue
                if not connF.gamma[d][mu][nu].is_structurally_zero():
                    raise IntegrabilityError(
                        "connection does not have the Kahler pattern")

    R = curvature_components(connF)

    # general coefficient formula already used; verify the displayed
    # reduced formula for R^{dbar}_{a bbar, cbar}
    checks = Residuals()
    for d in range(m):
        for a in range(m):
            rho_a = CA.anchor_vf(a)
            for b in range(m):
                for c in range(m):
                    disp = rho_a.apply(connF.gamma[bar(d)][bar(b)][bar(c)])
                    for e in range(m):
                        disp = disp - CA.C[bar(e)][a][bar(b)] * connF.gamma[bar(d)][bar(e)][bar(c)]
                    checks.add("barred_formula", (d, a, b, c),
                               R[bar(d)][a][bar(b)][bar(c)] - disp)

    for d, a, b, c in product(range(two_m), repeat=4):
        lhs = R[d][a][b][c].conjugate()
        rhs = R[bar(d)][bar(a)][bar(b)][bar(c)]
        checks.add("conjugation", (d, a, b, c), lhs - rhs)

    # allowed nonzero families: R^d_{ab,c}, R^dbar_{a bbar, cbar} and all
    # images under conjugation and first-pair antisymmetry
    def allowed(d, a, b, c) -> bool:
        pats = {(False, False, False, False),   # R^d_{ab,c}
                (True, True, True, True),       # conjugate
                (True, False, True, True),      # R^dbar_{a bbar, cbar}
                (True, True, False, True),      # antisymmetry image
                (False, True, False, False),    # conjugate of the above
                (False, False, True, False)}
        return (barred(d), barred(a), barred(b), barred(c)) in pats

    for d, a, b, c in product(range(two_m), repeat=4):
        if not allowed(d, a, b, c):
            checks.add("outside_families", (d, a, b, c), R[d][a][b][c])
    return KahlerCurvatureReport(R, checks)


# ---------------------------------------------------------------------------
# curvature scalars


def riemann4(g: Metric, conn: Connection, s1: Section, s2: Section,
             s3: Section, s4: Section) -> Scalar:
    """R4(s1,s2,s3,s4) = g(R(s3,s4)s2, s1)."""
    return g.value(curvature_operator(conn, s3, s4, s2), s1)


def holomorphic_sectional(g: Metric, conn: Connection, J: EndoField,
                          s: Section) -> Scalar:
    """K of the J-invariant plane spanned by (s, Js), quotient formula."""
    Js = J.apply(s)
    denom = g.value(s, s) * g.value(Js, Js) - g.value(s, Js) ** 2
    if denom.is_structurally_zero():
        raise ZeroDivisionError("structurally degenerate plane")
    num = riemann4(g, conn, s, Js, s, Js)
    return num / denom
