"""Lie algebroid structure data over a single chart.

An algebroid is declared by its chart, rank, anchor components rho^i_a and
bracket structure functions C^c_ab.  The structure equations checked by
``validate_structure`` are

    rho^j_a d_j rho^i_b - rho^j_b d_j rho^i_a = rho^i_c C^c_ab     (anchor)
    C^c_ab = -C^c_ba                                               (antisymmetry)
    sum_cyclic(a,b,c) (rho^i_a d_i C^d_bc + C^e_ab C^d_ce) = 0     (Jacobi)

Sections are frame-component tuples of Scalars; the bracket is the unique
Leibniz extension of the frame brackets.  A vector field is a section of
the chart's tangent algebroid ``tangent(chart)``, whose bracket is the Lie
bracket.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from algebroids.scalars import (
    _ZERO, Chart, ChartError, Scalar, Table, add_product, dense, nonzero_terms)

__all__ = [
    "Algebroid",
    "Section",
    "Residuals",
    "Witness",
    "InconsistencyError",
    "PreconditionError",
    "validate_structure",
    "anchor_push",
    "bilinear",
    "bilinear_section",
    "derivatives",
    "tangent",
]


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
        self.chart = chart
        self.rank = rank
        self.anchor = Table(chart, anchor)
        self.C = self._build_bracket(bracket)
        if frame_labels is None:
            frame_labels = [f"e{a + 1}" for a in range(rank)]
        if len(frame_labels) != rank:
            raise ValueError("frame label count does not match rank")
        self.frame_labels = tuple(frame_labels)

    def _build_bracket(self, bracket):
        if isinstance(bracket, dict):
            zero = self.chart.zero
            table = [[[zero] * self.rank for _ in range(self.rank)]
                     for _ in range(self.rank)]
            for (a, b, c), value in bracket.items():
                value = self.chart.scalar(value)
                # antisymmetrize: entries add at (a,b) and subtract at (b,a)
                table[c][a][b] = table[c][a][b] + value
                table[c][b][a] = table[c][b][a] - value
            bracket = table
        return tuple(Table(self.chart, layer) for layer in bracket)

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

    @cached_property
    def tangent(self) -> "Algebroid":
        """The tangent algebroid of the chart, where rho(s) lives."""
        return tangent(self.chart)

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
        return tuple(dense(self.chart, self.terms, self.algebroid.rank))

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

    @cached_property
    def anchored(self) -> list:
        """The nonzero terms of rho(s) over the chart's coordinate fields."""
        return self.algebroid.anchor.combine(self.terms)

    def derive(self, f) -> Scalar:
        """Derivation action on a scalar: rho(s)f = sum_i rho(s)^i df/dx^i."""
        chart = self.chart
        if f.__class__ is not Scalar or f.chart is not chart:
            f = chart.scalar(f)
        out = chart.zero
        if f.pair is not None and f.is_constant():  # a tree is not normalised
            return out
        for i, x in self.anchored:
            out = out + x * f.diff(chart.coords[i])
        return out

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


def tangent(chart: Chart) -> Algebroid:
    """The tangent algebroid (TM, id, Lie bracket) of the chart: its
    sections are the vector fields, its frame the coordinate fields."""
    identity = [[chart.one if i == j else chart.zero for j in range(chart.dim)]
                for i in range(chart.dim)]
    return Algebroid(chart, chart.dim, identity, {})


def anchor_push(s: Section) -> Section:
    """Pushforward rho(s) = s^a rho^i_a d/dx^i, a section of the tangent
    algebroid."""
    return Section.of_terms(s.algebroid.tangent, s.anchored)


def derivatives(s1: Section, s2: Section) -> List[Scalar]:
    """rho(s1)(s2^c) for each c."""
    out = [s2.chart.zero] * s2.algebroid.rank
    for k, c in s2.terms:
        out[k] = s1.derive(c)
    return out


def bracket(s1: Section, s2: Section) -> Section:
    """Section bracket: the Leibniz extension of the frame brackets.

    [s1, s2]^c = s1^a s2^b C^c_ab + rho(s1)(s2^c) - rho(s2)(s1^c)
    """
    s1._check(s2)
    accs = list(map(operator.sub, derivatives(s1, s2), derivatives(s2, s1)))
    return bilinear_section(accs, s1.algebroid.C, s1, s2)


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
    Section, EForm).  A check passes when every residual
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
    grad = [Table(A.chart, [[rho[a][i].diff(x) for x in coords]
                            for i in range(n)])
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
