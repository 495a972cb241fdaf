"""Lie algebroid structure data over a single chart.

An algebroid is declared by its chart, rank, anchor components rho^i_a and
bracket structure functions C^c_ab.  The structure equations checked by
``validate_structure`` are

    rho^j_a d_j rho^i_b - rho^j_b d_j rho^i_a = rho^i_c C^c_ab     (anchor)
    C^c_ab = -C^c_ba                                               (antisymmetry)
    sum_cyclic(a,b,c) (rho^i_a d_i C^d_bc + C^e_ab C^d_ce) = 0     (Jacobi)

Sections are frame-component tuples of Scalars; the bracket is the unique
Leibniz extension of the frame brackets.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from algebroids.scalars import (
    _ZERO, Chart, ChartError, Scalar, Table, add_product, nonzero_terms)

__all__ = [
    "Algebroid",
    "Section",
    "VectorField",
    "Residuals",
    "Witness",
    "InconsistencyError",
    "PreconditionError",
    "validate_structure",
    "anchor_push",
    "bilinear",
    "bilinear_section",
    "derivatives",
    "vf_bracket",
]


class VectorField:
    """Vector field on the chart, the image side of the anchor."""

    def __init__(self, chart: Chart, components: Sequence):
        self.chart = chart
        self.components = tuple(c if c.__class__ is Scalar and c.chart is chart
                                else chart.scalar(c) for c in components)
        if len(self.components) != chart.dim:
            raise ChartError("component count does not match chart dimension")
        self.terms = nonzero_terms(self.components)

    def apply(self, f: Scalar) -> Scalar:
        """Derivation action on a scalar: sum_i X^i df/dx^i."""
        if f.__class__ is not Scalar or f.chart is not self.chart:
            f = self.chart.scalar(f)
        out = self.chart.zero
        if f.pair is not None and f.is_constant():  # a tree is not normalised
            return out
        for i, comp in self.terms:
            out = out + comp * f.diff(self.chart.coords[i])
        return out

    @cached_property
    def jacobian(self) -> tuple:
        """d X^i / dx^j at [i][j], taken once per field."""
        return tuple(tuple(c.diff(x) for x in self.chart.coords)
                     for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.chart, list(map(
            operator.add, self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.chart, list(map(
            operator.sub, self.components, other.components)))

    def is_structurally_zero(self) -> bool:
        return all(c.is_structurally_zero() for c in self.components)

    def __repr__(self):
        return f"VectorField({[str(c) for c in self.components]})"


def vf_bracket(v1: VectorField, v2: VectorField) -> VectorField:
    """Ordinary Lie bracket of vector fields on the chart."""
    chart = v1.chart
    comps = []
    for d1, d2 in zip(v1.jacobian, v2.jacobian):
        acc = chart.zero
        for v1j, v2j, d1j, d2j in zip(v1.components, v2.components, d1, d2):
            acc = acc + v1j * d2j
            acc = acc - v2j * d1j
        comps.append(acc)
    return VectorField(chart, comps)


class Algebroid:
    """Chart + rank + anchor rho^i_a + structure functions C^c_ab.

    The bracket table may be given sparsely as {(a, b, c): scalar} with
    a < b entries only; it is antisymmetrized at construction.  Index
    convention throughout is 0-based.
    """

    def __init__(
        self,
        chart: Chart,
        rank: int,
        anchor: Sequence[Sequence],
        bracket: dict | Sequence,
        frame_labels: Optional[Sequence[str]] = None,
    ):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.chart = chart
        self.rank = rank
        self.anchor = Table(
            [chart.scalar(anchor[a][i]) for i in range(chart.dim)]
            for a in range(rank)
        )
        self.C = self._build_bracket(bracket)
        if frame_labels is None:
            frame_labels = [f"e{a + 1}" for a in range(rank)]
        if len(frame_labels) != rank:
            raise ValueError("frame label count does not match rank")
        self.frame_labels = tuple(frame_labels)

    def _build_bracket(self, bracket):
        zero = self.chart.zero
        table = [[[zero for _ in range(self.rank)] for _ in range(self.rank)]
                 for _ in range(self.rank)]
        if isinstance(bracket, dict):
            for (a, b, c), value in bracket.items():
                value = self.chart.scalar(value)
                # antisymmetrize: the (a,b) entry wins, (b,a) gets the sign
                table[c][a][b] = table[c][a][b] + value
                table[c][b][a] = table[c][b][a] - value
        else:
            for c in range(self.rank):
                for a in range(self.rank):
                    for b in range(self.rank):
                        table[c][a][b] = self.chart.scalar(bracket[c][a][b])
        return tuple(Table(layer) for layer in table)

    # C[c][a][b] is C^c_ab

    def frame_section(self, a: int) -> "Section":
        return Section.of_terms(self, [(a, self.chart.one)])

    @cached_property
    def frame(self) -> Tuple["Section", ...]:
        return tuple(map(self.frame_section, range(self.rank)))

    def section(self, components: Sequence) -> "Section":
        return Section(self, components)

    def zero_section(self) -> "Section":
        return Section.of_terms(self, ())

    def anchor_vf(self, a: int) -> VectorField:
        return self._anchor_vfs[a]

    @cached_property
    def _anchor_vfs(self) -> Tuple[VectorField, ...]:
        return tuple(VectorField(self.chart, row) for row in self.anchor)

    def __repr__(self):
        return (f"Algebroid(rank={self.rank}, chart={self.chart.name!r}, "
                f"n={self.chart.dim})")


class Section:
    """Section of the algebroid, held as ``terms``: its nonzero (index,
    Scalar) terms over the frame, in index order, none an exact zero.
    ``components``, the dense tuple, is built on first read."""

    def __init__(self, algebroid: Algebroid, components: Sequence):
        chart = algebroid.chart
        comps = tuple(c if c.__class__ is Scalar and c.chart is chart
                      else chart.scalar(c) for c in components)
        if len(comps) != algebroid.rank:
            raise ChartError("component count does not match rank")
        self.algebroid = algebroid
        self.components = comps
        self.terms = nonzero_terms(comps)

    @classmethod
    def of_terms(cls, algebroid: Algebroid, terms) -> "Section":
        """The section with these terms, taken as they are: (index, Scalar)
        pairs in index order, none an exact zero."""
        s = cls.__new__(cls)
        s.algebroid = algebroid
        s.terms = tuple(terms)
        return s

    @property
    def chart(self) -> Chart:
        return self.algebroid.chart

    @cached_property
    def components(self) -> tuple:
        comps = [self.algebroid.chart.zero] * self.algebroid.rank
        for k, c in self.terms:
            comps[k] = c
        return tuple(comps)

    def _merged(self, other: "Section", op, lone) -> "Section":
        """op(x, y) at an index where both sections have a term, and x or
        lone(y) where only one has."""
        self._check(other)
        out = dict(self.terms)
        for k, y in other.terms:
            out[k] = op(out[k], y) if k in out else lone(y)
        return Section.of_terms(self.algebroid, sorted(
            t for t in out.items() if t[1].pair is not _ZERO))

    def __add__(self, other: "Section") -> "Section":
        return self._merged(other, operator.add, lambda y: y)

    def __sub__(self, other: "Section") -> "Section":
        return self._merged(other, operator.sub, operator.neg)

    def map(self, op) -> "Section":
        """The section with components op(c), for an op with op(0) = 0."""
        return Section.of_terms(self.algebroid, [
            t for t in ((k, op(c)) for k, c in self.terms)
            if t[1].pair is not _ZERO])

    def __neg__(self) -> "Section":
        return self.map(operator.neg)

    def scale(self, f) -> "Section":
        return self.map(self.chart.scalar(f).__mul__)

    def __rmul__(self, f) -> "Section":
        return self.scale(f)

    def conjugate(self) -> "Section":
        return self.map(Scalar.conjugate)

    def is_structurally_zero(self) -> bool:
        return all(c.is_structurally_zero() for _, c in self.terms)

    def _check(self, other: "Section"):
        if other.algebroid is not self.algebroid:
            raise ChartError("sections belong to different algebroids")

    def __repr__(self):
        return f"Section({[str(c) for c in self.components]})"


def _bilinear(acc: Scalar, table: Table, left, right: dict) -> Scalar:
    for a, x in left:
        for b, t in table.terms[a]:
            if b in right:
                acc = acc + t * x * right[b]
    return acc


def bilinear(acc: Scalar, table: Table, s1: Section, s2: Section) -> Scalar:
    """acc + sum_ab table[a][b] s1^a s2^b, adding the terms in (a, b) order.

    A term with a literal-zero factor would add nothing and is skipped.
    """
    return _bilinear(acc, table, s1.terms, dict(s2.terms))


def bilinear_section(accs: Sequence[Scalar], layers: Sequence[Table],
                     s1: Section, s2: Section) -> Section:
    """The section with components bilinear(accs[c], layers[c], s1, s2)."""
    left, right = s1.terms, dict(s2.terms)
    terms = []
    for c, (acc, layer) in enumerate(zip(accs, layers)):
        acc = _bilinear(acc, layer, left, right)
        if acc.pair is not _ZERO:
            terms.append((c, acc))
    return Section.of_terms(s1.algebroid, terms)


def anchor_push(s: Section) -> VectorField:
    """Pushforward rho(s) = s^a rho^i_a d/dx^i."""
    A = s.algebroid
    comps = [A.chart.zero] * A.chart.dim
    for a, sa in s.terms:
        for i, rho in A.anchor.terms[a]:
            comps[i] = comps[i] + sa * rho
    return VectorField(A.chart, comps)


def derivatives(s1: Section, s2: Section) -> List[Scalar]:
    """rho(s1)(s2^c) for each c, with no push when s2 is constant."""
    out = [s2.chart.zero] * s2.algebroid.rank
    if not all(c.pair is not None and c.is_constant() for _, c in s2.terms):
        X = anchor_push(s1)
        for k, c in s2.terms:
            out[k] = X.apply(c)
    return out


def bracket(s1: Section, s2: Section) -> Section:
    """Section bracket: the Leibniz extension of the frame brackets.

    [s1, s2]^c = s1^a s2^b C^c_ab + rho(s1)(s2^c) - rho(s2)(s1^c)
    """
    A = s1.algebroid
    s1._check(s2)
    d12, d21 = derivatives(s1, s2), derivatives(s2, s1)
    left, right = s1.terms, dict(s2.terms)
    terms = []
    for c in range(A.rank):
        acc = d12[c] - d21[c]
        for a, x in left:
            for b, cab in A.C[c].terms[a]:
                if b in right:
                    acc = acc + x * right[b] * cab
        if acc.pair is not _ZERO:
            terms.append((c, acc))
    return Section.of_terms(A, terms)


def jacobiator(s1: Section, s2: Section, s3: Section) -> Section:
    """[[s1,s2],s3] + [[s2,s3],s1] + [[s3,s1],s2]."""
    return (bracket(bracket(s1, s2), s3) + bracket(bracket(s2, s3), s1)
            + bracket(bracket(s3, s1), s2))


class Witness(NamedTuple):
    """A residual that is not structurally zero, with where it arose."""

    check: str
    index: Any
    residual: Any


class InconsistencyError(RuntimeError):
    """An internal cross-check found a nonzero residual: the inputs or the
    implementation are inconsistent."""

    def __init__(self, witness: Witness):
        super().__init__(f"{witness.check} at {witness.index}")
        self.witness = witness


class PreconditionError(ValueError):
    """The input is well-formed but lacks what the computation needs."""


class Residuals:
    """Indexed residuals grouped by check name, in insertion order.

    A residual is anything with ``is_structurally_zero()`` (Scalar,
    Section, VectorField, EForm).  A check passes when every residual
    recorded under its name reduces to zero in normal form; a check with
    no residuals passes vacuously.
    """

    def __init__(self):
        self._checks: Dict[str, List[Tuple[Any, Any]]] = {}

    def add(self, check: str, index, residual) -> None:
        self._checks.setdefault(check, []).append((index, residual))

    def update(self, other: "Residuals") -> None:
        """Append every residual of ``other`` under its own check name."""
        for check, entries in other._checks.items():
            self._checks.setdefault(check, []).extend(entries)

    def entries(self, check: str) -> List[Tuple[Any, Any]]:
        """All (index, residual) pairs of one check, zero or not."""
        return list(self._checks.get(check, ()))

    def _failing(self, checks: Sequence[str]) -> Iterator[Witness]:
        for check in checks or self._checks:
            for index, residual in self._checks.get(check, ()):
                if not residual.is_structurally_zero():
                    yield Witness(check, index, residual)

    def ok(self, *checks: str) -> bool:
        """True when the named checks (all checks if none named) pass."""
        return next(self._failing(checks), None) is None

    def failures(self, *checks: str) -> List[Witness]:
        """The nonzero residuals of the named checks (all if none named)."""
        return list(self._failing(checks))

    def require(self) -> None:
        """Raise InconsistencyError naming the first nonzero residual."""
        witness = next(self._failing(()), None)
        if witness is not None:
            raise InconsistencyError(witness)


def validate_structure(A: Algebroid) -> Residuals:
    """Check the structure equations; residuals are recorded, not thrown.

    The checks are ``anchor_morphism`` indexed (a, b, i), ``antisymmetry``
    indexed (a, b, c) and ``jacobi`` indexed (a, b, c, d).
    """
    report = Residuals()
    n, m = A.chart.dim, A.rank
    coords, rho, C = A.chart.coords, A.anchor, A.C
    # grad[a][i][j] = d rho^i_a / dx^j
    grad = [Table([rho[a][i].diff(x) for x in coords] for i in range(n))
            for a in range(m)]
    # upper[a][b] = the nonzero (c, C^c_ab)
    upper = [[nonzero_terms(C[c][a][b] for c in range(m)) for b in range(m)]
             for a in range(m)]

    for a in range(m):
        for b in range(a + 1, m):
            for i in range(n):
                lhs = A.chart.zero
                # each term has a factor d rho^i / dx^j
                for j in sorted({j for j, _ in grad[a].terms[i] + grad[b].terms[i]}):
                    lhs = add_product(lhs, 1, rho[a][j], grad[b][i][j])
                    lhs = add_product(lhs, -1, rho[b][j], grad[a][i][j])
                rhs = A.chart.zero
                for c, cab in upper[a][b]:
                    rhs = add_product(rhs, 1, rho[c][i], cab)
                report.add("anchor_morphism", (a, b, i), lhs - rhs)

    for c in range(m):
        for a in range(m):
            for b in range(a, m):
                report.add("antisymmetry", (a, b, c),
                           C[c][a][b] + C[c][b][a])

    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                for d in range(m):
                    acc = A.chart.zero
                    for (p, q, r) in ((a, b, c), (b, c, a), (c, a, b)):
                        cqr = C[d][q][r]
                        # rho(e_p) C^d_qr is zero when C^d_qr is a constant
                        if cqr.pair is None or not cqr.is_constant():
                            for i, x in rho.terms[p]:
                                acc = add_product(acc, 1, x, cqr.diff(coords[i]))
                        for e, cpq in upper[p][q]:
                            acc = add_product(acc, 1, cpq, C[d][e][r])
                    report.add("jacobi", (a, b, c, d), acc)

    return report
