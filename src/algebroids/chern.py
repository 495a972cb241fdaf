"""Chern forms of the +i eigenbundle from an almost complex connection.

Over an adapted real frame (u_1..u_m, Ju_1..Ju_m) the operator J R of an
almost complex connection (so J R = R J) has the block matrix

    [[ R, -R* ],
     [ R*,  R ]]

with R^b_a and R^{b*}_a degree-2 forms, extracted by expanding
(J R)(., .) u_a in the adapted frame.  The curvature matrix of the
restricted connection on the +i eigenbundle is

    Phi^b_a = R^{b*}_a - i R^b_a,      i Phi = R + i R*

and the Chern form of order k is the real part of trace((i Phi)^k), equal
to (1/2) trace(block^k) when the connection is metric compatible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, List

from algebroids.algebroid import Algebroid, Residuals, Section
from algebroids.connections import Connection, curvature_operator
from algebroids.eforms import EForm, d_E, wedge
from algebroids.jstruct import ComplexFrame, IntegrabilityError
from algebroids.scalars import Scalar, Table, dense, i

if TYPE_CHECKING:
    from algebroids.constructions import Fixture

__all__ = [
    "BlockCurvature",
    "ChernReport",
    "block_curvature",
    "iphi",
    "chern_form",
]


@dataclass
class BlockCurvature:
    """R^b_a and R^{b*}_a as degree-2 forms over the real frame.

    ``R[a][b]`` holds R^b_a (lower index first); likewise ``Rstar``.
    ``block()`` assembles the 2m x 2m matrix [[R, -R*],[R*, R]].
    """

    algebroid: Algebroid
    m: int
    R: tuple
    Rstar: tuple
    frame: List[Section]
    F: ComplexFrame

    def block(self):
        m = self.m
        rows = []
        for a in range(m):
            rows.append([self.R[a][b] for b in range(m)]
                        + [-self.Rstar[a][b] for b in range(m)])
        for a in range(m):
            rows.append([self.Rstar[a][b] for b in range(m)]
                        + [self.R[a][b] for b in range(m)])
        return rows

    def iphi_matrix(self):
        """i Phi = R + i R* entrywise."""
        return [[self.R[a][b] + self.Rstar[a][b].scale(i)
                 for b in range(self.m)] for a in range(self.m)]

    def phi_matrix(self):
        """Phi^b_a = R^{b*}_a - i R^b_a entrywise."""
        return [[self.Rstar[a][b] - self.R[a][b].scale(i)
                 for b in range(self.m)] for a in range(self.m)]


def block_curvature(fx: Fixture) -> BlockCurvature:
    """Extract R^b_a, R^{b*}_a of the Levi-Civita connection by expanding
    (J R)(e_p, e_q) u_a.

    Requires the Levi-Civita connection to be almost complex; the
    commutation J R = R J (check ``jr_commutes``) and the displayed block
    pattern on (J R) u_{a*} (check ``block_pattern``) are re-verified and
    raise InconsistencyError on failure.
    """
    A, J = fx.algebroid, fx.J
    conn = fx.levi_civita
    if not fx.almost_complex.ok():
        raise IntegrabilityError("connection is not almost complex (nabla J != 0)")
    F = fx.frame
    m = F.m
    frame = F.generators + [J.apply(u) for u in F.generators]

    # inverse of the adapted-frame change matrix (columns = adapted sections)
    Pinv = Table(A.chart, [s.components for s in frame]).T.inverse()

    Rmat = [[EForm(A, 2) for _ in range(m)] for _ in range(m)]
    Rstar = [[EForm(A, 2) for _ in range(m)] for _ in range(m)]
    real_frame = A.frame
    checks = Residuals()
    for p in range(A.rank):
        for q in range(p + 1, A.rank):
            rop = [curvature_operator(conn, real_frame[p], real_frame[q],
                                      frame[mu]) for mu in range(2 * m)]
            jrop = [J.apply(r) for r in rop]
            # J R = R J on the adapted frame
            for a in range(m):
                checks.add("jr_commutes", (p, q, a), jrop[a] - rop[m + a])
            for a in range(m):
                terms = Pinv.apply(jrop[a].terms)
                # the forms hold no exact zero component
                for b, c in terms:
                    (Rmat if b < m else Rstar)[a][b % m][(p, q)] = c
                coeffs = dense(A.chart, terms, 2 * m)
                # displayed pattern on the starred basis vector
                star = dense(A.chart, Pinv.apply(jrop[m + a].terms), 2 * m)
                for b in range(m):
                    checks.add("block_pattern", (p, q, a, b),
                               star[b] + coeffs[m + b])
                    checks.add("block_pattern", (p, q, a, m + b),
                               star[m + b] - coeffs[b])
    checks.require()
    return BlockCurvature(A, m, tuple(map(tuple, Rmat)),
                          tuple(map(tuple, Rstar)), frame, F)


def iphi(bc: BlockCurvature, conn: Connection):
    """Phi^b_a = R^{b*}_a - i R^b_a, cross-checked against the curvature of
    the restricted connection on the +i eigenbundle in the complex frame.

    A structural disagreement (check ``restricted_curvature``) or a part
    outside the +i eigenbundle (check ``eigenbundle_leak``) means an
    internal inconsistency and raises InconsistencyError.
    """
    A = bc.algebroid
    F = bc.F
    m = bc.m
    phi = bc.phi_matrix()
    real_frame = A.frame
    checks = Residuals()
    for p in range(A.rank):
        for q in range(p + 1, A.rank):
            for a in range(m):
                rf = curvature_operator(conn, real_frame[p], real_frame[q],
                                        F.sections[a])
                coeffs = F.expand(rf)
                for b in range(m):
                    checks.add("restricted_curvature", (a, b, p, q),
                               coeffs[b] - phi[a][b][(p, q)])
                for b in range(m, 2 * m):
                    checks.add("eigenbundle_leak", (a, b, p, q), coeffs[b])
    checks.require()
    return phi


def _mat_wedge(M1, M2):
    n = len(M1)
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            acc = None
            for c in range(n):
                term = wedge(M1[a][c], M2[c][b])
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def _mat_power(M, k):
    out = M
    for _ in range(k - 1):
        out = _mat_wedge(out, M)
    return out


def _trace(M) -> EForm:
    acc = M[0][0]
    for a in range(1, len(M)):
        acc = acc + M[a][a]
    return acc


def _real_imag(w: EForm):
    re = EForm(w.algebroid, w.degree)
    im = EForm(w.algebroid, w.degree)
    for key, val in w.components.items():
        re.components[key] = val.real_part()
        im.components[key] = val.imag_part()
    return re, im


@dataclass
class ChernReport:
    """Chern form of order k with both construction routes compared.

    ``form`` is the Chern form itself (real part of trace((iPhi)^k)).
    ``factor`` is the stated constant 1/2 of Re trace((iPhi)^k) =
    (1/2) trace(block^k), which ``half_trace_equality`` (indexed by form
    component) checks; None when every component of trace(block^k)
    vanishes.  ``checks`` holds ``closed``, ``half_trace_equality`` and
    ``trace_real``.
    """

    order: int
    form: EForm
    checks: Residuals
    factor: Scalar = None


def chern_form(bc: BlockCurvature, k: int) -> ChernReport:
    """Chern form of order k from the iPhi trace, cross-checked against the
    half block trace.

    Matrix powers use the wedge product entrywise; the entries have even
    degree, so they commute and the power is unambiguous.  2k above the
    rank gives the zero form by degree.
    """
    if k < 1:
        raise ValueError("order must be at least 1")
    half = Fraction(1, 2)
    form, im = _real_imag(_trace(_mat_power(bc.iphi_matrix(), k)))
    t_block = _trace(_mat_power(bc.block(), k))

    checks = Residuals()
    report = ChernReport(order=k, form=form, checks=checks)
    checks.add("closed", (), d_E(form))
    checks.add("trace_real", (), im)
    for key in t_block.keys():
        checks.add("half_trace_equality", key,
                   form[key] - t_block[key] * half)
    if not t_block.is_structurally_zero():
        report.factor = form.chart.scalar(half)
    return report
