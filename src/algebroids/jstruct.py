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

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from algebroids.algebroid import (
    Algebroid,
    PreconditionError,
    Residuals,
    Section,
    VectorField,
    anchor_push,
    bilinear,
    bracket,
    vf_bracket,
)
from algebroids.eforms import EForm, d_E
from algebroids.scalars import (
    ChartError,
    Scalar,
    ScalarMatrix,
    i,
    nonzero_entries,
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
        self.matrix = tuple(
            tuple(algebroid.chart.scalar(matrix[b][a]) for a in range(m))
            for b in range(m)
        )

    @property
    def rank(self) -> int:
        return self.algebroid.rank

    def entry(self, b: int, a: int) -> Scalar:
        return self.matrix[b][a]

    def apply(self, s: Section) -> Section:
        col = dict(nonzero_entries(s.components))
        comps = []
        for row in self.matrix:
            acc = self.algebroid.chart.zero
            for a, t in nonzero_entries(row):
                if a in col:
                    acc = acc + t * col[a]
            comps.append(acc)
        return Section(self.algebroid, comps)

    def compose(self, other: "EndoField") -> "EndoField":
        m = self.rank
        rows = []
        for b in range(m):
            row = []
            for a in range(m):
                acc = self.algebroid.chart.zero
                for c in range(m):
                    acc = acc + self.matrix[b][c] * other.matrix[c][a]
                row.append(acc.normalize())
            rows.append(row)
        return EndoField(self.algebroid, rows)

    def __add__(self, other: "EndoField") -> "EndoField":
        m = self.rank
        return EndoField(self.algebroid, [
            [self.matrix[b][a] + other.matrix[b][a] for a in range(m)]
            for b in range(m)
        ])

    def __sub__(self, other: "EndoField") -> "EndoField":
        m = self.rank
        return EndoField(self.algebroid, [
            [self.matrix[b][a] - other.matrix[b][a] for a in range(m)]
            for b in range(m)
        ])

    def scale(self, f) -> "EndoField":
        f = self.algebroid.chart.scalar(f)
        m = self.rank
        return EndoField(self.algebroid, [
            [f * self.matrix[b][a] for a in range(m)] for b in range(m)
        ])

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

    def value(self, s1: Section, s2: Section) -> Section:
        A = self.algebroid
        return Section(A, [bilinear(A.chart.zero, layer, s1, s2).normalize()
                           for layer in self.components])

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

    by_eval = [[[chart.zero] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            val = _nijenhuis_frame(A, J, frame[a], frame[b])
            for c in range(m):
                comp = val.components[c].normalize()
                by_eval[c][a][b] = comp
                by_eval[c][b][a] = -comp

    # dJ[i][d][a] = d J^d_a / dx^i
    dJ = [[[J.matrix[d][a].diff(x) for a in range(m)] for d in range(m)]
          for x in chart.coords]
    # each term of the first sum has a factor from dJ[i]: a coordinate that
    # no entry of J depends on contributes nothing
    active = [i for i, grad in enumerate(dJ)
              if any(nonzero_entries(e for row in grad for e in row))]
    by_coeff = [[[chart.zero] * m for _ in range(m)] for _ in range(m)]
    for c in range(m):
        for a in range(m):
            for b in range(m):
                acc = chart.zero
                for i in active:
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
                acc = acc - A.C[c][a][b]
                by_coeff[c][a][b] = acc.normalize()

    checks = Residuals()
    for c in range(m):
        for a in range(m):
            for b in range(m):
                checks.add("dual_route_agreement", (c, a, b),
                           (by_eval[c][a][b] - by_coeff[c][a][b]).normalize())
    checks.require()

    comps = tuple(tuple(tuple(row) for row in layer) for layer in by_eval)
    return NijenhuisTensor(A, comps, checks)


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
            Ju = J.apply(u)
            f = Section(algebroid, [
                (u.components[b] - i * Ju.components[b]).normalize()
                for b in range(algebroid.rank)
            ])
            self.sections.append(f)
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
        self._complex_algebroid: Optional[Algebroid] = None

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
        chart = self.algebroid.chart
        comps = [chart.zero] * self.algebroid.rank
        for mu, coeff in enumerate(coeffs):
            coeff = chart.scalar(coeff)
            for b in range(self.algebroid.rank):
                comps[b] = comps[b] + coeff * self.sections[mu].components[b]
        return Section(self.algebroid, comps)

    def as_algebroid(self) -> Algebroid:
        """Algebroid over the same chart whose frame is this complex frame."""
        if self._complex_algebroid is not None:
            return self._complex_algebroid
        A = self.algebroid
        two_m = 2 * self.m
        anchor = []
        for mu in range(two_m):
            vf = anchor_push(self.sections[mu])
            anchor.append([c.normalize() for c in vf.components])
        table = {}
        for mu in range(two_m):
            for nu in range(mu + 1, two_m):
                br = bracket(self.sections[mu], self.sections[nu])
                coeffs = self.expand(br)
                for lam in range(two_m):
                    if not coeffs[lam].is_structurally_zero():
                        table[(mu, nu, lam)] = coeffs[lam]
        out = Algebroid(A.chart, two_m, anchor, table,
                        frame_labels=[f"f{a + 1}" for a in range(self.m)]
                        + [f"fbar{a + 1}" for a in range(self.m)])
        self._complex_algebroid = out
        return out

    def conjugation_symmetry_ok(self) -> bool:
        """conj(C^lam_munu) = C^lambar_mubar nubar structurally."""
        CA = self.as_algebroid()
        two_m = 2 * self.m
        for lam in range(two_m):
            for mu in range(two_m):
                for nu in range(two_m):
                    lhs = CA.C[lam][mu][nu].conjugate()
                    rhs = CA.C[self.conj_index(lam)][self.conj_index(mu)][self.conj_index(nu)]
                    if not (lhs - rhs).normalize().is_structurally_zero():
                        return False
        return True

    # forms over this frame ------------------------------------------------

    def form(self, degree: int, components=None) -> EForm:
        return EForm(self.as_algebroid(), degree, components)


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
    if w.algebroid is not F.as_algebroid():
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
    CA = F.as_algebroid()
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
    for c in range(A.rank):
        for a in range(A.rank):
            for b in range(A.rank):
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
        residuals.add("automorphism", b, res.normalized())
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
    A, J = fx.algebroid, fx.J
    F = fx.frame
    if not fx.nijenhuis.is_structurally_zero():
        raise IntegrabilityError("matched pair requires integrable J")
    p10, p01 = projectors(J)
    m = F.m
    f = F.sections[:m]
    fbar = F.sections[m:]

    # intermediate results are normalized: nested brackets of unreduced
    # rational functions blow up badly on the rational-chart fixtures
    def nab_ts(t: Section, s: Section) -> Section:
        # E2-connection acting on E1 sections
        return p10.apply(bracket(t, s)).normalized()

    def nab_st(s: Section, t: Section) -> Section:
        return p01.apply(bracket(s, t)).normalized()

    def br10(x: Section, y: Section) -> Section:
        return p10.apply(bracket(x, y)).normalized()

    def br01(x: Section, y: Section) -> Section:
        return p01.apply(bracket(x, y)).normalized()

    report = Residuals()
    for a in range(m):
        for b in range(m):
            s, t = f[a], fbar[b]
            lhs = vf_bracket(anchor_push(s), anchor_push(t))
            # residual of [rho(s), rho(t)] = -rho(nabla_t s) + rho(nabla_s t)
            res = VectorField(A.chart, [
                (lhs.components[i]
                 + anchor_push(nab_ts(t, s)).components[i]
                 - anchor_push(nab_st(s, t)).components[i]).normalize()
                for i in range(A.chart.dim)
            ])
            report.add("mp1", (a, b), res)

    for a in range(m):
        for b in range(m):
            for c in range(m):
                s, t1, t2 = f[a], fbar[b], fbar[c]
                lhs = nab_st(s, br01(t1, t2))
                rhs = (br01(nab_st(s, t1), t2) + br01(t1, nab_st(s, t2))
                       + nab_st(nab_ts(t2, s), t1) - nab_st(nab_ts(t1, s), t2))
                report.add("mp2", (a, b, c), (lhs - rhs).normalized())

    for a in range(m):
        for b in range(m):
            for c in range(m):
                t, s1, s2 = fbar[a], f[b], f[c]
                lhs = nab_ts(t, br10(s1, s2))
                rhs = (br10(nab_ts(t, s1), s2) + br10(s1, nab_ts(t, s2))
                       + nab_ts(nab_st(s2, t), s1) - nab_ts(nab_st(s1, t), s2))
                report.add("mp3", (a, b, c), (lhs - rhs).normalized())

    return report
