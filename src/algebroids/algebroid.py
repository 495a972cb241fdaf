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

from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from algebroids.scalars import Chart, ChartError, Scalar, nonzero_entries

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
    "vf_bracket",
]


class VectorField:
    """Vector field on the chart, the image side of the anchor."""

    def __init__(self, chart: Chart, components: Sequence):
        self.chart = chart
        self.components = tuple(chart.scalar(c) for c in components)
        if len(self.components) != chart.dim:
            raise ChartError("component count does not match chart dimension")

    def apply(self, f: Scalar) -> Scalar:
        """Derivation action on a scalar: sum_i X^i df/dx^i."""
        f = self.chart.scalar(f)
        out = self.chart.zero
        for i, comp in nonzero_entries(self.components):
            out = out + comp * f.diff(self.chart.coords[i])
        return out

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.chart, [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.chart, [a - b for a, b in zip(self.components, other.components)]
        )

    def is_structurally_zero(self) -> bool:
        return all(c.is_structurally_zero() for c in self.components)

    def __repr__(self):
        return f"VectorField({[str(c) for c in self.components]})"


def vf_bracket(v1: VectorField, v2: VectorField) -> VectorField:
    """Ordinary Lie bracket of vector fields on the chart."""
    chart = v1.chart
    comps = []
    for i, coord_i in enumerate(chart.coords):
        acc = chart.zero
        for v1j, v2j, coord_j in zip(v1.components, v2.components, chart.coords):
            acc = acc + v1j * v2.components[i].diff(coord_j)
            acc = acc - v2j * v1.components[i].diff(coord_j)
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
        self.anchor = tuple(
            tuple(chart.scalar(anchor[a][i]) for i in range(chart.dim))
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
        return tuple(tuple(tuple(row) for row in layer) for layer in table)

    # C[c][a][b] is C^c_ab

    def frame_section(self, a: int) -> "Section":
        comps = [self.chart.zero] * self.rank
        comps[a] = self.chart.one
        return Section(self, comps)

    @property
    def frame(self) -> List["Section"]:
        return [self.frame_section(a) for a in range(self.rank)]

    def section(self, components: Sequence) -> "Section":
        return Section(self, components)

    def zero_section(self) -> "Section":
        return Section(self, [self.chart.zero] * self.rank)

    def anchor_vf(self, a: int) -> VectorField:
        return VectorField(self.chart, list(self.anchor[a]))

    def __repr__(self):
        return (f"Algebroid(rank={self.rank}, chart={self.chart.name!r}, "
                f"n={self.chart.dim})")


class Section:
    """Section of the algebroid: component Scalars over the frame."""

    def __init__(self, algebroid: Algebroid, components: Sequence):
        self.algebroid = algebroid
        self.components = tuple(
            algebroid.chart.scalar(c) for c in components
        )
        if len(self.components) != algebroid.rank:
            raise ChartError("component count does not match rank")

    @property
    def chart(self) -> Chart:
        return self.algebroid.chart

    def __add__(self, other: "Section") -> "Section":
        self._check(other)
        return Section(
            self.algebroid,
            [a + b for a, b in zip(self.components, other.components)],
        )

    def __sub__(self, other: "Section") -> "Section":
        self._check(other)
        return Section(
            self.algebroid,
            [a - b for a, b in zip(self.components, other.components)],
        )

    def __neg__(self) -> "Section":
        return Section(self.algebroid, [-c for c in self.components])

    def scale(self, f) -> "Section":
        f = self.chart.scalar(f)
        return Section(self.algebroid, [f * c for c in self.components])

    def __rmul__(self, f) -> "Section":
        return self.scale(f)

    def conjugate(self) -> "Section":
        return Section(self.algebroid, [c.conjugate() for c in self.components])

    def is_structurally_zero(self) -> bool:
        return all(c.is_structurally_zero() for c in self.components)

    def normalized(self) -> "Section":
        return Section(self.algebroid, [c.normalize() for c in self.components])

    def _check(self, other: "Section"):
        if other.algebroid is not self.algebroid:
            raise ChartError("sections belong to different algebroids")

    def __repr__(self):
        return f"Section({[str(c) for c in self.components]})"


def bilinear(acc: Scalar, table, s1: Section, s2: Section) -> Scalar:
    """acc + sum_ab table[a][b] s1^a s2^b, adding the terms in (a, b) order.

    A term with a literal-zero factor would add nothing and is skipped.
    """
    right = dict(nonzero_entries(s2.components))
    for a, x in nonzero_entries(s1.components):
        for b, t in nonzero_entries(table[a]):
            if b in right:
                acc = acc + t * x * right[b]
    return acc


def anchor_push(s: Section) -> VectorField:
    """Pushforward rho(s) = s^a rho^i_a d/dx^i."""
    A = s.algebroid
    comps = [A.chart.zero] * A.chart.dim
    for a, sa in nonzero_entries(s.components):
        for i, rho in nonzero_entries(A.anchor[a]):
            comps[i] = comps[i] + sa * rho
    return VectorField(A.chart, comps)


def bracket(s1: Section, s2: Section) -> Section:
    """Section bracket: the Leibniz extension of the frame brackets.

    [s1, s2]^c = s1^a s2^b C^c_ab + rho(s1)(s2^c) - rho(s2)(s1^c)
    """
    A = s1.algebroid
    s1._check(s2)
    v1 = anchor_push(s1)
    v2 = anchor_push(s2)
    left = list(nonzero_entries(s1.components))
    right = dict(nonzero_entries(s2.components))
    comps = []
    for c in range(A.rank):
        acc = v1.apply(s2.components[c]) - v2.apply(s1.components[c])
        for a, x in left:
            for b, cab in nonzero_entries(A.C[c][a]):
                if b in right:
                    acc = acc + x * right[b] * cab
        comps.append(acc)
    return Section(A, comps)


def jacobiator(s1: Section, s2: Section, s3: Section) -> Section:
    """[[s1,s2],s3] + [[s2,s3],s1] + [[s3,s1],s2]."""
    return (
        bracket(bracket(s1, s2), s3)
        + bracket(bracket(s2, s3), s1)
        + bracket(bracket(s3, s1), s2)
    ).normalized()


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
    coords = A.chart.coords
    # grad[a][i][j] = d rho^i_a / dx^j
    grad = [[[A.anchor[a][i].diff(x) for x in coords] for i in range(n)]
            for a in range(m)]

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
                report.add("anchor_morphism", (a, b, i),
                           (lhs - rhs).normalize())

    for c in range(m):
        for a in range(m):
            for b in range(a, m):
                res = (A.C[c][a][b] + A.C[c][b][a]).normalize()
                report.add("antisymmetry", (a, b, c), res)

    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                for d in range(m):
                    acc = A.chart.zero
                    for (p, q, r) in ((a, b, c), (b, c, a), (c, a, b)):
                        for i, rho in nonzero_entries(A.anchor[p]):
                            acc = acc + rho * A.C[d][q][r].diff(coords[i])
                        for e, cpq in nonzero_entries(
                                A.C[e][p][q] for e in range(m)):
                            acc = acc + cpq * A.C[d][e][r]
                    report.add("jacobi", (a, b, c, d), acc.normalize())

    return report
