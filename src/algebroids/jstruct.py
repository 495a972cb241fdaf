"""Almost complex structures on a Lie algebroid.

Provides bundle endomorphisms J with J^2 = -id, the Nijenhuis tensor
(computed two independent ways), the Newlander-Nirenberg integrability
suite, adapted complex frames for the +-i eigensplitting, the bigrading of
forms, infinitesimal automorphisms and matched-pair verification.

The complex frame (f_1..f_m, fbar_1..fbar_m) with f_a = u_a - i J u_a is
itself a frame of the complexified bundle, so it induces an algebroid over
the same chart whose anchors and structure functions are the complex ones;
all form and connection machinery is reused over that induced algebroid.
Index convention: 0..m-1 are unbarred, m..2m-1 are barred, and the
conjugate of index mu is (mu + m) mod 2m.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from algebroids.algebroid import (
    Algebroid,
    PreconditionError,
    Residuals,
    Section,
    anchor_push,
    bilinear_section,
    bracket,
    vf_bracket,
)
from algebroids.eforms import EForm, d_E
from algebroids.scalars import (
    _ZERO,
    ChartError,
    Scalar,
    ScalarMatrix,
    Table,
    add_product,
    i,
    nonzero_terms,
)

if TYPE_CHECKING:
    from algebroids.constructions import Fixture

__all__ = [
    "EndoField",
    "NijenhuisTensor",
    "ComplexFrame",
    "IntegrabilityError",
    "almost_complex_structure",
    "nijenhuis",
    "adapted_complex_frame",
    "newlander_nirenberg_report",
    "bigrade",
    "d_E_split",
    "infinitesimal_automorphism_check",
    "matched_pair_check",
]


class IntegrabilityError(PreconditionError):
    """An operation requiring integrable J received a non-integrable one."""


class EndoField:
    """Bundle endomorphism acting by T(e_a) = T^b_a e_b.

    The matrix is stored as rows indexed by the output slot b and columns
    by the input slot a, so ``matrix[b][a]`` is T^b_a.
    """

    def __init__(self, algebroid: Algebroid, matrix: Sequence[Sequence]):
        self.algebroid = algebroid
        m = algebroid.rank
        self.matrix = Table(
            [algebroid.chart.scalar(matrix[b][a]) for a in range(m)]
            for b in range(m)
        )
        # the nonzero (b, T^b_a) of each column a
        self.columns = Table(zip(*self.matrix)).terms

    @property
    def rank(self) -> int:
        return self.algebroid.rank

    def entry(self, b: int, a: int) -> Scalar:
        return self.matrix[b][a]

    def apply(self, s: Section) -> Section:
        # each output term sums T^b_a s^a in the order of a
        out = {}
        for a, x in s.terms:
            for b, t in self.columns[a]:
                out[b] = out[b] + t * x if b in out else t * x
        return Section.of_terms(self.algebroid, sorted(
            bt for bt in out.items() if bt[1].pair is not _ZERO))

    def compose(self, other: "EndoField") -> "EndoField":
        chart = self.algebroid.chart
        product = (ScalarMatrix(chart, self.matrix)
                   @ ScalarMatrix(chart, other.matrix))
        return EndoField(self.algebroid, product.rows())

    def _entrywise(self, op, other: "EndoField") -> "EndoField":
        return EndoField(self.algebroid, [
            list(map(op, row, orow))
            for row, orow in zip(self.matrix, other.matrix)])

    def __add__(self, other: "EndoField") -> "EndoField":
        return self._entrywise(operator.add, other)

    def __sub__(self, other: "EndoField") -> "EndoField":
        return self._entrywise(operator.sub, other)

    def scale(self, f) -> "EndoField":
        f = self.algebroid.chart.scalar(f)
        return EndoField(self.algebroid,
                         [[f * e for e in row] for row in self.matrix])

    def is_structurally_zero(self) -> bool:
        return all(
            e.is_structurally_zero() for row in self.matrix for e in row
        )

    @staticmethod
    def identity(algebroid: Algebroid) -> "EndoField":
        m = algebroid.rank
        one, zero = algebroid.chart.one, algebroid.chart.zero
        return EndoField(algebroid, [
            [one if a == b else zero for a in range(m)] for b in range(m)
        ])

    def __repr__(self):
        return f"EndoField({[[str(e) for e in row] for row in self.matrix]})"


def almost_complex_structure(algebroid: Algebroid, matrix) -> EndoField:
    """Build J and verify J^2 = -id structurally; rank must be even."""
    if algebroid.rank % 2 != 0:
        raise ValueError("almost complex structure requires even rank")
    J = EndoField(algebroid, matrix)
    square = J.compose(J) + EndoField.identity(algebroid)
    if not square.is_structurally_zero():
        raise ValueError("J^2 is not -identity")
    return J


def projectors(J: EndoField) -> Tuple[EndoField, EndoField]:
    """p10 = (I - iJ)/2 and p01 = (I + iJ)/2 over the real frame."""
    I = EndoField.identity(J.algebroid)
    half = Fraction(1, 2)
    p10 = (I - J.scale(i)).scale(half)
    p01 = (I + J.scale(i)).scale(half)
    return p10, p01


@dataclass
class NijenhuisTensor:
    """Components N^c_ab, antisymmetric in (a, b), with the agreement of
    the two routes that computed them (check ``dual_route_agreement``)."""

    algebroid: Algebroid
    components: tuple  # components[c][a][b]
    checks: Residuals

    def __post_init__(self):
        self.components = tuple(Table(layer) for layer in self.components)

    def value(self, s1: Section, s2: Section) -> Section:
        A = self.algebroid
        zeros = [A.chart.zero] * A.rank
        return bilinear_section(zeros, self.components, s1, s2)

    def is_structurally_zero(self) -> bool:
        return all(
            e.is_structurally_zero()
            for layer in self.components for row in layer for e in row
        )


def _nijenhuis_frame(A: Algebroid, J: EndoField, s1: Section, s2: Section) -> Section:
    """Coordinate-free formula applied to two sections."""
    Js1, Js2 = J.apply(s1), J.apply(s2)
    return (
        bracket(Js1, Js2)
        - J.apply(bracket(s1, Js2))
        - J.apply(bracket(Js1, s2))
        - bracket(s1, s2)
    )


def nijenhuis(A: Algebroid, J: EndoField) -> NijenhuisTensor:
    """Nijenhuis tensor computed twice: frame evaluation of the defining
    formula and the local coefficient formula.  The two routes must agree
    structurally (check ``dual_route_agreement``); a mismatch raises
    InconsistencyError, since it would mean an internal bug.
    """
    m = A.rank
    chart = A.chart
    frame = A.frame
    rho, T, C = A.anchor, J.matrix, A.C

    by_eval = [[[chart.zero] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            val = _nijenhuis_frame(A, J, frame[a], frame[b])
            for c in range(m):
                by_eval[c][a][b] = val.components[c]
                by_eval[c][b][a] = -val.components[c]

    # dJ[i][d][a] = d J^d_a / dx^i
    dJ = [Table([T[d][a].diff(x) for a in range(m)] for d in range(m))
          for x in chart.coords]
    # each term of the first sum has a factor from dJ[i]: a coordinate that
    # no entry of J depends on contributes nothing
    active = [i for i, grad in enumerate(dJ) if any(grad.terms)]
    cols = [nonzero_terms(T[d][a] for d in range(m)) for a in range(m)]
    by_coeff = [[[chart.zero] * m for _ in range(m)] for _ in range(m)]
    for c in range(m):
        for a in range(m):
            for b in range(m):
                acc = chart.zero
                for i in active:
                    for d in range(m):
                        acc = add_product(acc, 1, rho[b][i], dJ[i][d][a], T[c][d])
                        acc = add_product(acc, -1, rho[a][i], dJ[i][d][b], T[c][d])
                        acc = add_product(acc, 1, rho[d][i], dJ[i][c][b], T[d][a])
                        acc = add_product(acc, -1, rho[d][i], dJ[i][c][a], T[d][b])
                # each term has a factor J^d_a or J^d_b
                for d in sorted({d for d, _ in cols[a] + cols[b]}):
                    for e in range(m):
                        acc = add_product(acc, 1, T[d][a], T[c][e], C[e][b][d])
                        acc = add_product(acc, -1, T[d][b], T[c][e], C[e][a][d])
                        acc = add_product(acc, 1, T[e][b], T[d][a], C[c][d][e])
                acc = acc - C[c][a][b]
                by_coeff[c][a][b] = acc

    checks = Residuals()
    for c, a, b in product(range(m), repeat=3):
        checks.add("dual_route_agreement", (c, a, b),
                   by_eval[c][a][b] - by_coeff[c][a][b])
    checks.require()

    return NijenhuisTensor(A, by_eval, checks)


# ---------------------------------------------------------------------------
# complex frames


class ComplexFrame:
    """The +-i eigenframe (f_1..f_m, fbar_1..fbar_m) of J, with
    f_a = u_a - i J u_a for the real ``generators`` u_a.

    Each frame section is stored by its complex components over the real
    frame.  The induced algebroid over the same chart carries the complex
    anchors and structure functions; its bracket table is the full set of
    C^c_ab, C^cbar_ab, C^c_abbar, ... families.
    """

    def __init__(self, algebroid: Algebroid, J: EndoField,
                 generators: Sequence[Section]):
        self.algebroid = algebroid
        self.J = J
        self.m = algebroid.rank // 2
        if len(generators) != self.m:
            raise ValueError("need rank/2 generating sections")
        self.generators = list(generators)
        chart = algebroid.chart
        self.sections: List[Section] = []
        for u in generators:
            self.sections.append(u - J.apply(u).scale(i))
        for f in list(self.sections):
            self.sections.append(f.conjugate())

        # change-of-frame matrix: column mu holds F_mu in the real frame
        P = ScalarMatrix(chart, [
            [self.sections[mu].components[b] for mu in range(2 * self.m)]
            for b in range(algebroid.rank)
        ])
        if P.det().is_structurally_zero():
            raise ValueError("complex frame is degenerate")
        self._Pinv = P.inverse()

        # J f_a = i f_a and J fbar_a = -i fbar_a must hold structurally
        checks = Residuals()
        for mu, f in enumerate(self.sections):
            eig = i if mu < self.m else -i
            checks.add("eigenframe", mu, J.apply(f) - f.scale(chart.scalar(eig)))
        checks.require()

    def conj_index(self, mu: int) -> int:
        return (mu + self.m) % (2 * self.m)

    def expand(self, s: Section) -> List[Scalar]:
        """Coefficients of a (complexified) real-frame section over the
        complex frame."""
        return self._Pinv.apply(s.components)

    def rebuild(self, coeffs: Sequence[Scalar]) -> Section:
        """Real-frame section from complex-frame coefficients."""
        out = self.algebroid.zero_section()
        for coeff, f in zip(coeffs, self.sections):
            out = out + f.scale(coeff)
        return out

    @cached_property
    def as_algebroid(self) -> Algebroid:
        """Algebroid over the same chart whose frame is this complex frame."""
        A = self.algebroid
        two_m = 2 * self.m
        anchor = [list(anchor_push(self.sections[mu]).components)
                  for mu in range(two_m)]
        table = {}
        for mu in range(two_m):
            for nu in range(mu + 1, two_m):
                br = bracket(self.sections[mu], self.sections[nu])
                coeffs = self.expand(br)
                for lam in range(two_m):
                    if not coeffs[lam].is_structurally_zero():
                        table[(mu, nu, lam)] = coeffs[lam]
        return Algebroid(A.chart, two_m, anchor, table,
                         frame_labels=[f"f{a + 1}" for a in range(self.m)]
                         + [f"fbar{a + 1}" for a in range(self.m)])

    def conjugation_symmetry_ok(self) -> bool:
        """conj(C^lam_munu) = C^lambar_mubar nubar structurally."""
        CA = self.as_algebroid
        two_m = 2 * self.m
        for lam in range(two_m):
            for mu in range(two_m):
                for nu in range(two_m):
                    lhs = CA.C[lam][mu][nu].conjugate()
                    rhs = CA.C[self.conj_index(lam)][self.conj_index(mu)][self.conj_index(nu)]
                    if not (lhs - rhs).is_structurally_zero():
                        return False
        return True

    # forms over this frame ------------------------------------------------

    def form(self, degree: int, components=None) -> EForm:
        return EForm(self.as_algebroid, degree, components)


def adapted_complex_frame(A: Algebroid, J: EndoField) -> ComplexFrame:
    """Greedy selection of u_1..u_m with (u_1, Ju_1, ..., u_m, Ju_m) a frame.

    Iterates the real frame in order and keeps a candidate when the chosen
    columns stay structurally independent.
    """
    if A.rank % 2 != 0:
        raise ValueError("rank must be even")
    m = A.rank // 2
    chosen: List[Section] = []
    columns: List[List[Scalar]] = []

    def independent(cols) -> bool:
        return ScalarMatrix(A.chart, zip(*cols)).rank() == len(cols)

    for a in range(A.rank):
        if len(chosen) == m:
            break
        u = A.frame_section(a)
        Ju = J.apply(u)
        cand = columns + [list(u.components), list(Ju.components)]
        if independent(cand):
            chosen.append(u)
            columns = cand
    # the residual is the number of generators the selection is short of
    checks = Residuals()
    checks.add("frame_selection", len(chosen), A.chart.scalar(m - len(chosen)))
    checks.require()
    return ComplexFrame(A, J, chosen)


# ---------------------------------------------------------------------------
# bigrading


def bigrade(w: EForm, F: ComplexFrame) -> Dict[Tuple[int, int], EForm]:
    """Split a complex-frame form by (unbarred, barred) slot counts."""
    if w.algebroid is not F.as_algebroid:
        raise ChartError("form does not live over this complex frame")
    pieces: Dict[Tuple[int, int], EForm] = {}
    for key, val in w.components.items():
        p = sum(1 for k in key if k < F.m)
        q = len(key) - p
        piece = pieces.setdefault((p, q), F.form(w.degree))
        piece.components[key] = val
    return pieces


def d_E_split(w: EForm, F: ComplexFrame) -> Dict[str, EForm]:
    """The four bigraded pieces of d_E on a pure or mixed (p,q) form.

    On a (p,q) piece the differential lands in (p+2,q-1) + (p+1,q) +
    (p,q+1) + (p-1,q+2); those parts are returned under the keys
    "d_prime", "del", "delbar", "d_second".  A part in any other bidegree
    raises InconsistencyError (check ``bidegree``).
    """
    out = {name: F.form(w.degree + 1)
           for name in ("d_prime", "del", "delbar", "d_second")}
    leaks = Residuals()
    for (p, q), piece in bigrade(w, F).items():
        dw = d_E(piece)
        for (pp, qq), part in bigrade(dw, F).items():
            if (pp, qq) == (p + 2, q - 1):
                name = "d_prime"
            elif (pp, qq) == (p + 1, q):
                name = "del"
            elif (pp, qq) == (p, q + 1):
                name = "delbar"
            elif (pp, qq) == (p - 1, q + 2):
                name = "d_second"
            else:
                leaks.add("bidegree", ((p, q), (pp, qq)), part)
                continue
            out[name] = out[name] + part
    leaks.require()
    return out


# ---------------------------------------------------------------------------
# Newlander-Nirenberg suite


NN_CHECKS = ("bracket_closed_10", "bracket_closed_01", "no_leak_degree1",
             "no_leak_degree2", "nijenhuis_zero")


@dataclass
class NNReport:
    """The five equivalent integrability tests, one check each (NN_CHECKS)."""

    checks: Residuals

    @property
    def statuses(self) -> List[bool]:
        return [self.checks.ok(name) for name in NN_CHECKS]

    @property
    def all_agree(self) -> bool:
        return len(set(self.statuses)) == 1

    @property
    def integrable(self) -> bool:
        return self.checks.ok("nijenhuis_zero")


def newlander_nirenberg_report(fx: Fixture) -> NNReport:
    A = fx.algebroid
    F = fx.frame
    CA = F.as_algebroid
    m = F.m
    checks = Residuals()

    for a in range(m):
        for b in range(a + 1, m):
            for lam in range(m, 2 * m):
                checks.add("bracket_closed_10", (lam, a, b), CA.C[lam][a][b])

    for a in range(m, 2 * m):
        for b in range(a + 1, 2 * m):
            for lam in range(m):
                checks.add("bracket_closed_01", (lam, a, b), CA.C[lam][a][b])

    # degree-1 leakage: d of f^a must have no (0,2) part, d of fbar^a no (2,0)
    for mu in range(2 * m):
        w = F.form(1, {(mu,): 1})
        pieces = bigrade(d_E(w), F)
        bad = (0, 2) if mu < m else (2, 0)
        if bad in pieces:
            checks.add("no_leak_degree1", (mu, bad), pieces[bad])

    # degree-2 generators: d of each basis 2-form must stay in (p+1,q)+(p,q+1)
    for mu, nu in combinations(range(2 * m), 2):
        w = F.form(2, {(mu, nu): 1})
        p = sum(1 for k in (mu, nu) if k < m)
        q = 2 - p
        for (pp, qq), piece in bigrade(d_E(w), F).items():
            if (pp, qq) not in ((p + 1, q), (p, q + 1)):
                checks.add("no_leak_degree2", ((mu, nu), (pp, qq)), piece)

    N = fx.nijenhuis
    for c, a, b in product(range(A.rank), repeat=3):
        checks.add("nijenhuis_zero", (c, a, b), N.components[c][a][b])

    return NNReport(checks)


# ---------------------------------------------------------------------------
# infinitesimal automorphisms


def infinitesimal_automorphism_check(s: Section, A: Algebroid,
                                     J: EndoField) -> Residuals:
    """Check ``automorphism``: residuals [s, J e_b] - J [s, e_b] indexed b."""
    residuals = Residuals()
    for b in range(A.rank):
        eb = A.frame_section(b)
        res = bracket(s, J.apply(eb)) - J.apply(bracket(s, eb))
        residuals.add("automorphism", b, res)
    return residuals


# ---------------------------------------------------------------------------
# matched pairs


def matched_pair_check(fx: Fixture) -> Residuals:
    """Verify the two mutual actions satisfy the matched-pair identities,
    checks ``mp1`` indexed (a, b) and ``mp2``, ``mp3`` indexed (a, b, c).

    E1 is the +i eigenbundle with basis f_a, E2 the -i eigenbundle with
    basis fbar_a.  The actions are nabla_t s = p10 [t, s] and
    nabla_s t = p01 [s, t]; eigenbundle brackets are the projected ones,
    which agree with the plain bracket on eigen-sections once J is
    integrable.
    """
    A = fx.algebroid
    F = fx.frame
    if not fx.nijenhuis.is_structurally_zero():
        raise IntegrabilityError("matched pair requires integrable J")
    p10, p01 = fx.projectors
    m = F.m
    f = F.sections[:m]
    fbar = F.sections[m:]

    # The projected eigenbundle brackets have the same bodies as the actions:
    # [s1, s2]_E1 = nab_ts(s1, s2) and [t1, t2]_E2 = nab_st(t1, t2).
    def nab_ts(t: Section, s: Section) -> Section:
        # E2-connection acting on E1 sections
        return p10.apply(bracket(t, s))

    def nab_st(s: Section, t: Section) -> Section:
        return p01.apply(bracket(s, t))

    report = Residuals()
    for a in range(m):
        for b in range(m):
            s, t = f[a], fbar[b]
            lhs = vf_bracket(anchor_push(s), anchor_push(t))
            # residual of [rho(s), rho(t)] = -rho(nabla_t s) + rho(nabla_s t)
            res = (lhs + anchor_push(nab_ts(t, s))
                   - anchor_push(nab_st(s, t)))
            report.add("mp1", (a, b), res)

    # mp2 on (f_a, fbar_b, fbar_c) and, with the roles of the two actions
    # and of the bundles swapped, mp3 on (fbar_a, f_b, f_c)
    for check, X, Y, u, v in (("mp2", nab_st, nab_ts, f, fbar),
                              ("mp3", nab_ts, nab_st, fbar, f)):
        for a, b, c in product(range(m), repeat=3):
            s, t1, t2 = u[a], v[b], v[c]
            lhs = X(s, X(t1, t2))
            rhs = (X(X(s, t1), t2) + X(t1, X(s, t2))
                   + X(Y(t2, s), t1) - X(Y(t1, s), t2))
            report.add(check, (a, b, c), lhs - rhs)

    return report
