"""Metric product connection, second fundamental form and identity suite.

All operators live over the complex frame (f_1..f_m, fbar_1..fbar_m) of a
Hermitian pair (J, g); the Levi-Civita coefficients in that frame come
from the connections module.  Conventions:

    D~_{s1} s2 = p01 D_{s1} p01 s2 + p10 D_{s1} p10 s2
               = D_{s1} s2 + (1/2)(D_{s1} J) J s2
    B(s1,s2)   = p10(D_{p01 s1} p01 s2) = -(1/2)(D_{p01 s1} J) J(p01 s2)
    W_{s2} s1  = -p01 D_{p01 s1} p10 s2 = (1/2)(D_{p01 s1} J) J(p10 s2)
    h(s1,s2)   = g(s1, conj(s2))

The duality between B and the Weingarten operators is checked in the form
that metric compatibility of D actually implies (the adjointness of B and
the skew-adjointness of W under g, see second_fundamental); the textbook
display h(W_{s3}s1,s2) = h(s3,B(s1,s2)) is evaluated separately and holds
exactly when J is integrable.

The identity suite works over the real frame and checks the Nijenhuis
and covariant-derivative formulas for Re B, and the reconstruction of N
from B, each with the constant stated below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Optional

from algebroids.algebroid import (
    Algebroid,
    Residuals,
    Section,
    anchor_push,
    bilinear,
)
from algebroids.connections import (
    Connection,
    cov_deriv,
    levi_civita,  # unused; bench/test_harness.py checks tracing patches it
    nabla_J,
    require_hermitian,
    torsion,
)
from algebroids.eforms import EForm
from algebroids.jstruct import ComplexFrame, EndoField
from algebroids.scalars import Scalar, Table, add_product, i

if TYPE_CHECKING:
    from algebroids.constructions import Fixture

__all__ = [
    "ProductConnection",
    "SecondFundamentalForm",
    "MeanCurvatureReport",
    "IdentitySuiteReport",
    "product_connection",
    "second_fundamental",
    "real_frame_B",
    "mean_curvature",
    "identity_suite",
    "NIJENHUIS_PAIRING",
    "DPHI_PAIRING",
    "N_FROM_B",
]

# identity_suite's constants, on real frame sections a, b, c:
#   g(Re B(a,b), c) = NIJENHUIS_PAIRING (g(N(a,b),c) + g(N(b,Jc),Ja) - g(N(Jc,a),Jb))
#                   = DPHI_PAIRING ((D_{Ja} Phi)(b,c) + (D_a Phi)(Jb,c))
#   N(a,b) = N_FROM_B Re(B(a,b) - B(b,a))
# for f_a = u_a - i J u_a, p10 = (I - iJ)/2 and N as in jstruct (no 1/4).
NIJENHUIS_PAIRING = Fraction(-1, 16)
DPHI_PAIRING = Fraction(1, 8)
N_FROM_B = Fraction(-8)


def _complex_J(CA: Algebroid, m: int) -> EndoField:
    """J over the complex frame: +i on unbarred, -i on barred slots."""
    chart = CA.chart
    rows = []
    for b in range(2 * m):
        row = [chart.zero] * (2 * m)
        row[b] = chart.scalar(i if b < m else -i)
        rows.append(row)
    return EndoField(CA, rows)


def _project(s: Section, m: int, barred: bool) -> Section:
    """p10 (barred=False) or p01 (barred=True) over the complex frame."""
    return Section.of_terms(s.algebroid,
                            [t for t in s.terms if (t[0] >= m) == barred])


def _h_value(h, s1: Section, s2: Section) -> Scalar:
    """h extended from the frame values; conjugate-linear in slot 2."""
    return bilinear(s1.algebroid.chart.zero, h, s1, s2.conjugate())


@dataclass
class ProductConnection:
    """D~ coefficients over the complex frame with its verification trail.

    ``checks``: ``two_forms`` (projection form vs D + (1/2)(DJ)J form),
    ``parallel_p10``, ``parallel_p01``, ``parallel_h`` (parallelism),
    ``torsion_m4_vs_m5``, ``torsion_vs_table`` and ``local_displays``
    (torsion).
    """

    F: ComplexFrame
    connF: Connection          # Levi-Civita in the complex frame
    tilde: Connection          # metric product connection
    checks: Residuals
    JC: EndoField              # J over the complex frame


def product_connection(fx: Fixture) -> ProductConnection:
    """Build D~ and verify its defining properties structurally."""
    F = fx.frame
    connF = fx.complex_levi_civita
    CA = connF.algebroid
    m = F.m
    two_m = 2 * m
    chart = fx.algebroid.chart
    JC = _complex_J(CA, m)
    frame = CA.frame
    h = fx.h

    D = partial(cov_deriv, connF)
    p10 = partial(_project, m=m, barred=False)
    p01 = partial(_project, m=m, barred=True)

    # projection form of D~: keep the part of D matching the slot of the
    # second argument
    gamma = [[[chart.zero] * two_m for _ in range(two_m)] for _ in range(two_m)]
    for mu in range(two_m):
        for nu in range(two_m):
            for d in range(two_m):
                if (d >= m) == (nu >= m):
                    gamma[d][mu][nu] = connF.gamma[d][mu][nu]
    tilde = Connection(CA, gamma)
    checks = Residuals()

    # the correction form D + (1/2)(DJ)J must agree
    half = chart.scalar(Fraction(1, 2))
    # dj_j[mu][nu] = (D_{F_mu} J) J F_nu, read again by the torsion
    dj_j = [[nabla_J(connF, JC, s, JC.apply(t)) for t in frame] for s in frame]
    for mu in range(two_m):
        for nu in range(two_m):
            rhs = D(frame[mu], frame[nu]) + dj_j[mu][nu].scale(half)
            lhs = cov_deriv(tilde, frame[mu], frame[nu])
            checks.add("two_forms", (mu, nu), lhs - rhs)

    # parallelism of the projectors and of h
    for lam in range(two_m):
        for mu in range(two_m):
            dt = cov_deriv(tilde, frame[lam], frame[mu])
            r10 = (cov_deriv(tilde, frame[lam], p10(frame[mu])) - p10(dt))
            r01 = (cov_deriv(tilde, frame[lam], p01(frame[mu])) - p01(dt))
            checks.add("parallel_p10", (lam, mu), r10)
            checks.add("parallel_p01", (lam, mu), r01)
    # (D~ h)(s; s1, s2) with the conjugate-equivariant extension in slot 2:
    # rho(s) h(s1,s2) - h(D~_s s1, s2) - h(s1, D~_{conj s} s2)
    for lam in range(two_m):
        rho = CA.anchor_vf(lam)
        for mu in range(two_m):
            for nu in range(two_m):
                acc = rho.apply(h[mu][nu])
                for k in range(two_m):
                    acc = add_product(acc, -1, tilde.gamma[k][lam][mu], h[k][nu])
                    acc = add_product(acc, -1, tilde.gamma[k][F.conj_index(lam)]
                                      [nu].conjugate(), h[mu][k])
                checks.add("parallel_h", (lam, mu, nu), acc)

    # torsion three ways
    Ttab = torsion(tilde)
    for mu in range(two_m):
        for nu in range(mu + 1, two_m):
            s1, s2 = frame[mu], frame[nu]
            t4 = (p01(D(s2, p10(s1)) - D(s1, p10(s2)))
                  + p10(D(s2, p01(s1)) - D(s1, p01(s2))))
            t5 = (dj_j[mu][nu] - dj_j[nu][mu]).scale(half)
            checks.add("torsion_m4_vs_m5", (mu, nu), t4 - t5)
            ttab = Section(CA, [Ttab[d][mu][nu] for d in range(two_m)])
            checks.add("torsion_vs_table", (mu, nu), t4 - ttab)

    # local displays: T(f_a,f_b) = C^dbar_{ba} fbar_d and the mixed display
    for a in range(m):
        for b in range(m):
            want = [chart.zero] * m + [CA.C[m + d][b][a] for d in range(m)]
            t = Section(CA, [Ttab[d][a][b] for d in range(two_m)])
            checks.add("local_displays", ("unbarred", a, b),
                       t - Section(CA, want))
            want2 = ([CA.C[d][m + b][a] - connF.gamma[d][m + b][a]
                      for d in range(m)]
                     + [connF.gamma[m + d][a][m + b] - CA.C[m + d][a][m + b]
                        for d in range(m)])
            t2 = Section(CA, [Ttab[d][a][m + b] for d in range(two_m)])
            checks.add("local_displays", ("mixed", a, b),
                       t2 - Section(CA, want2))

    return ProductConnection(F, connF, tilde, checks, JC)


@dataclass
class SecondFundamentalForm:
    """B over the complex frame with Weingarten operators and duality.

    ``checks``: ``both_forms`` (the two formulas for B and W),
    ``vanishing``, ``local_B`` and ``local_W`` (local coefficient
    displays), ``gauss`` (p01 slots), ``weingarten`` (p10 slots),
    ``metric_duality`` (B- and W-adjointness) and ``verbatim_duality``
    (the display h(W_{s3}s1,s2) = h(s3,B(s1,s2)), which holds exactly
    when J is integrable and so is not part of ``ok``).
    """

    F: ComplexFrame
    connF: Connection
    B: tuple                   # B[mu][nu] Section over the complex frame
    W: tuple                   # W[nu][mu] = W_{F_nu} F_mu
    checks: Residuals

    @property
    def b_zero(self) -> bool:
        return all(s.is_structurally_zero() for row in self.B for s in row)

    @property
    def ok(self) -> bool:
        return self.checks.ok("both_forms", "vanishing", "local_B", "local_W",
                              "gauss", "weingarten", "metric_duality")


def second_fundamental(fx: Fixture) -> SecondFundamentalForm:
    """B, the Gauss-Weingarten decompositions and the h-duality."""
    prod = fx.product_connection
    F = prod.F
    connF = prod.connF
    CA = connF.algebroid
    m = F.m
    two_m = 2 * m
    chart = fx.algebroid.chart
    JC, h = prod.JC, fx.h
    frame = CA.frame
    half = chart.scalar(Fraction(1, 2))

    D = partial(cov_deriv, connF)
    p10 = partial(_project, m=m, barred=False)
    p01 = partial(_project, m=m, barred=True)

    B = [[None] * two_m for _ in range(two_m)]
    W = [[None] * two_m for _ in range(two_m)]
    # for s1 = p01 F_mu and s2 = p01 F_nu, then p10 F_nu: D_{s1} s2 and
    # (D_{s1} J) J s2, read by both_forms and again by gauss and weingarten
    bar_frame = [p01(s) for s in frame]
    slots = (bar_frame, [p10(s) for s in frame])
    Ds = [[[D(s1b, s2[nu]) for s2 in slots] for nu in range(two_m)]
          for s1b in bar_frame]
    djs = [[[nabla_J(connF, JC, s1b, JC.apply(s2[nu])) for s2 in slots]
            for nu in range(two_m)] for s1b in bar_frame]
    checks = Residuals()
    for mu in range(two_m):
        for nu in range(two_m):
            (d01, d10), (dj01, dj10) = Ds[mu][nu], djs[mu][nu]
            b1 = p10(d01)
            b2 = dj01.scale(-half)
            checks.add("both_forms", ("B", mu, nu), b1 - b2)
            B[mu][nu] = b1
            w1 = p01(d10).scale(-1)
            w2 = dj10.scale(half)
            checks.add("both_forms", ("W", mu, nu), w1 - w2)
            # W[nu][mu] = W_{F_nu} F_mu
            W[nu][mu] = w1

    for mu in range(two_m):
        for nu in range(two_m):
            if mu >= m and nu >= m:
                want = [connF.gamma[d][mu][nu] for d in range(m)]
                checks.add("local_B", (mu, nu),
                           B[mu][nu] - Section(CA, want + [chart.zero] * m))
            else:
                checks.add("vanishing", (mu, nu), B[mu][nu])

    # W_{f_b} fbar_a = -Gamma^dbar_{abar b} fbar_d; other slots vanish
    for nu in range(two_m):
        for mu in range(two_m):
            if mu >= m and nu < m:
                want = [-connF.gamma[m + d][mu][nu] for d in range(m)]
                checks.add("local_W", (nu, mu),
                           W[nu][mu] - Section(CA, [chart.zero] * m + want))
            else:
                checks.add("local_W", (nu, mu), W[nu][mu])

    for mu in range(two_m):
        for nu in range(two_m):
            for check, s2, d, dj in zip(("gauss", "weingarten"), slots,
                                        Ds[mu][nu], djs[mu][nu]):
                res = (d - cov_deriv(prod.tilde, bar_frame[mu], s2[nu])
                       + dj.scale(half))
                checks.add(check, (mu, nu), res)

    # Metric duality.  The displayed identity h(W_{s3}s1,s2) = h(s3,B(s1,s2))
    # is not what metric compatibility of D gives when J is non-integrable
    # (W can vanish identically while B does not; both local coefficient
    # displays above confirm this).  Differentiating the vanishing pairings
    # g(E10,E10) and g(E01,E01) with the metric connection D yields the two
    # adjointness identities actually implied:
    #
    #     g(B(s1,s2), s3) + g(s2, B(s1,s3)) = 0
    #     g(W_{s3}s1, s2) + g(s3, W_{s2}s1) = 0
    #
    # Both are checked on all frame triples; the displayed identity is
    # evaluated separately and reported as verbatim_duality.
    gmat = Table([h[p][F.conj_index(q)] for q in range(two_m)]
                 for p in range(two_m))

    def g_value(sa: Section, sb: Section) -> Scalar:
        return bilinear(chart.zero, gmat, sa, sb)

    for lam in range(two_m):
        for mu in range(two_m):
            for nu in range(two_m):
                res_b = (g_value(B[lam][mu], frame[nu])
                         + g_value(frame[mu], B[lam][nu]))
                checks.add("metric_duality", ("B", lam, mu, nu), res_b)
                res_w = (g_value(W[nu][mu], frame[lam])
                         + g_value(frame[nu], W[lam][mu]))
                checks.add("metric_duality", ("W", lam, mu, nu), res_w)
                lhs = _h_value(h, W[lam][mu], frame[nu])
                rhs = _h_value(h, frame[lam], B[mu][nu])
                checks.add("verbatim_duality", (lam, mu, nu), lhs - rhs)

    return SecondFundamentalForm(
        F, connF,
        tuple(tuple(row) for row in B),
        tuple(tuple(row) for row in W),
        checks,
    )


def real_frame_B(fx: Fixture) -> Callable[[Section, Section], Section]:
    """B(s1, s2) = p10 D_{p01 s1} p01 s2 over the real algebroid, for
    complex-component sections.

    ``Fixture.real_B`` holds it; ``B.at(a, b)`` = B(e_a, e_b) is computed
    on first use, so mean_curvature and identity_suite share one B and the
    entries they both read.
    """
    (p10, p01), D, frame = fx.projectors, fx.levi_civita, fx.algebroid.frame

    def B(s1: Section, s2: Section) -> Section:
        return p10.apply(cov_deriv(D, p01.apply(s1), p01.apply(s2)))

    B.at = cache(lambda a, b: B(frame[a], frame[b]))
    return B


def _re_section(s: Section) -> Section:
    return s.map(Scalar.real_part)


def _im_section(s: Section) -> Section:
    return s.map(Scalar.imag_part)


@dataclass
class MeanCurvatureReport:
    """The mean curvature H as the g-trace of B, with two companions.

    ``H`` = sum_{a,b} g^{ab} B(e_a, e_b) over the real frame.  B is
    C^inf-bilinear, so this equals sum_k B(u_k, u_k) over every
    g-orthonormal frame u_k = P^a_k e_a (P P^T = g^{-1}); no such frame is
    built.  The verbatim sum over B(f_a, fbar_b) (``verbatim_zero``)
    vanishes termwise because B annihilates (1,0) first slots;
    ``k_form_zero`` is the h-dual 1-form k(s) = sum_a h(W_s f_a, fbar_a).
    """

    H: Section
    verbatim_zero: bool
    k_form_zero: bool

    @property
    def zero(self) -> bool:
        return (self.H.is_structurally_zero() and self.verbatim_zero
                and self.k_form_zero)


def mean_curvature(fx: Fixture) -> MeanCurvatureReport:
    A, g = fx.algebroid, fx.g
    sf = fx.second_fundamental
    F = sf.F
    m = F.m
    CA = sf.connF.algebroid
    two_m = 2 * m
    h = fx.h

    # verbatim trace: sum_{a,b} B(f_a, fbar_b); the first slot is (1,0)
    acc = CA.zero_section()
    for a in range(m):
        for b in range(m):
            acc = acc + sf.B[a][m + b]
    verbatim_zero = acc.is_structurally_zero()

    # h-dual 1-form k(s) = sum_a h(W_s f_a, fbar_a)
    k = EForm(CA, 1)
    for lam in range(two_m):
        val = CA.chart.zero
        for a in range(m):
            val = val + _h_value(h, sf.W[lam][a], CA.frame_section(m + a))
        k[(lam,)] = val
    k_zero = k.is_structurally_zero()

    # H = sum_{a,b} g^{ab} B(e_a, e_b) over the real frame
    H = A.zero_section()
    for a in range(A.rank):
        for b in range(A.rank):
            gab = g.inverse[a][b]
            if not gab.is_structurally_zero():
                H = H + fx.real_B.at(a, b).scale(gab)

    return MeanCurvatureReport(H, verbatim_zero, k_zero)


@dataclass
class IdentitySuiteReport:
    """Identity residuals over real frame tuples.

    ``checks``: ``im_re_relation``, ``j_anti_invariance`` (indexed (a, b)),
    ``nijenhuis_pairing_proportional``, ``dphi_pairing_proportional``,
    ``n_reconstruction_proportional`` (indexed (a, b, c), each residual
    lhs - c * rhs with the stated constant c) and ``eigenbundle_isotropy``
    (indexed (a, b)).  ``m16_constant``, ``m17_constant`` and
    ``m19_constant`` are NIJENHUIS_PAIRING, DPHI_PAIRING and N_FROM_B,
    or None when every rhs of that check vanishes.
    """

    checks: Residuals
    m16_constant: Optional[Scalar]
    m17_constant: Optional[Scalar]
    m19_constant: Optional[Scalar]
    b_zero: bool
    n_zero: bool

    @property
    def geodesic_iff_hermitian(self) -> bool:
        return self.b_zero == self.n_zero

    @property
    def ok(self) -> bool:
        return self.checks.ok() and self.geodesic_iff_hermitian


def identity_suite(fx: Fixture) -> IdentitySuiteReport:
    """Residuals of the Re/Im relation, the Nijenhuis and fundamental-form
    formulas for Re B, J-anti-invariance, and the N-from-B reconstruction,
    over real frame tuples, with the module's stated constants.
    """
    A, J, g = fx.algebroid, fx.J, fx.g
    require_hermitian(fx)
    D = fx.levi_civita
    B = fx.real_B
    N = fx.nijenhuis
    frame = A.frame
    mr = A.rank

    phi = Table([fx.fundamental_form[(a, b)] for b in range(mr)]
                for a in range(mr))

    def phi_value(s1: Section, s2: Section) -> Scalar:
        return bilinear(A.chart.zero, phi, s1, s2)

    def dphi(rho, t1: Section, ds_t1: Section, ds: list):
        """c -> (D_s Phi)(t1, e_c) for frame sections (constant
        components), with rho = rho(s), D_s t1 = ds_t1 and D_s e_c = ds[c]."""
        return lambda c: (rho.apply(phi_value(t1, frame[c]))
                          - phi_value(ds_t1, frame[c])
                          - phi_value(t1, ds[c]))

    checks = Residuals()
    nonzero_rhs = set()

    def proportional(check: str, index, lhs: Scalar, c: Fraction,
                     rhs: Scalar) -> None:
        checks.add(check, index, lhs - c * rhs)
        if not rhs.is_structurally_zero():
            nonzero_rhs.add(check)

    def stated(check: str, c: Fraction) -> Optional[Scalar]:
        return A.chart.scalar(c) if check in nonzero_rhs else None

    Btab = [[B.at(a, b) for b in range(mr)] for a in range(mr)]
    Jframe = [J.apply(s) for s in frame]
    # D_s e_c and rho(s) for s = e_a and s = J e_a, once per (a, c) and a
    d_frame = [[cov_deriv(D, s, t) for t in frame] for s in frame]
    d_jframe = [[cov_deriv(D, s, t) for t in frame] for s in Jframe]
    rho_frame = [anchor_push(s) for s in frame]
    rho_jframe = [anchor_push(s) for s in Jframe]
    # N(e_b, J e_c) and N(J e_c, e_a), once per pair
    n_ej = [[N.value(s, t) for t in Jframe] for s in frame]
    n_je = [[N.value(t, s) for s in frame] for t in Jframe]
    for a in range(mr):
        for b in range(mr):
            checks.add("im_re_relation", (a, b),
                       _im_section(Btab[a][b])
                       - _re_section(B(frame[a], Jframe[b])))
            checks.add("j_anti_invariance", (a, b),
                       B(Jframe[a], Jframe[b]) + Btab[a][b])
            alt_re = _re_section(Btab[a][b] - Btab[b][a])
            nval = N.value(frame[a], frame[b])
            for c in range(mr):
                proportional("n_reconstruction_proportional", (a, b, c),
                             nval.components[c], N_FROM_B,
                             alt_re.components[c])
            reb = _re_section(Btab[a][b])
            dphi_a = dphi(rho_jframe[a], frame[b], d_jframe[a][b], d_jframe[a])
            dphi_b = dphi(rho_frame[a], Jframe[b],
                          cov_deriv(D, frame[a], Jframe[b]), d_frame[a])
            for c in range(mr):
                s3 = frame[c]
                lhs = g.value(reb, s3)
                raw16 = (g.value(nval, s3)
                         + g.value(n_ej[b][c], Jframe[a])
                         - g.value(n_je[c][a], Jframe[b]))
                proportional("nijenhuis_pairing_proportional", (a, b, c),
                             lhs, NIJENHUIS_PAIRING, raw16)
                raw17 = dphi_a(c) + dphi_b(c)
                proportional("dphi_pairing_proportional", (a, b, c),
                             lhs, DPHI_PAIRING, raw17)

    p01 = fx.projectors[1]
    for a in range(mr):
        for b in range(mr):
            checks.add("eigenbundle_isotropy", (a, b),
                       g.value(p01.apply(frame[a]), p01.apply(frame[b])))

    b_zero = all(Btab[a][b].is_structurally_zero()
                 for a in range(mr) for b in range(mr))
    n_zero = N.is_structurally_zero()

    return IdentitySuiteReport(
        checks,
        stated("nijenhuis_pairing_proportional", NIJENHUIS_PAIRING),
        stated("dphi_pairing_proportional", DPHI_PAIRING),
        stated("n_reconstruction_proportional", N_FROM_B),
        b_zero, n_zero)
