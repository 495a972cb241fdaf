"""Skew-symmetric forms on a Lie algebroid and the differential d_E.

Components are stored on strictly increasing multi-indices over the active
frame.  The wedge product is the shuffle sum without factorial prefactors,
so e^1 ^ e^2 evaluated on (e_1, e_2) gives 1.  The differential is

    (d_E w)(s_0..s_p) = sum_i (-1)^i rho(s_i) w(..no i..)
                      + sum_{i<j} (-1)^{i+j} w([s_i,s_j], ..no i,j..)

with no normalization factor, so d_E of a function f is the 1-form
s -> rho(s)f.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Dict, Sequence, Tuple

from algebroids.algebroid import Algebroid, Section
from algebroids.scalars import Chart, ChartError, Scalar, add_product

__all__ = ["EForm", "wedge", "d_E", "evaluate"]


def _sort_index(idx: Tuple[int, ...]):
    """Sort a multi-index; return (sorted tuple, permutation sign) or None
    when an index repeats."""
    if len(set(idx)) != len(idx):
        return None
    # the sign of the sorting permutation: -1 to the number of inversions
    # of idx, which are those of the permutation
    inversions = sum(p > q for k, p in enumerate(idx) for q in idx[k + 1:])
    return tuple(sorted(idx)), (-1) ** inversions


class EForm:
    """Degree-p antisymmetric form with Scalar components over the frame of
    ``algebroid`` (a complex frame passes its induced algebroid).
    """

    def __init__(
        self,
        algebroid: Algebroid,
        degree: int,
        components: Dict[Tuple[int, ...], object] | None = None,
    ):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.algebroid = algebroid
        self.degree = degree
        # degree above the rank is allowed and denotes the zero form
        # (no strictly increasing multi-index exists), so d_E of a
        # top-degree form has a representation
        self.components: Dict[Tuple[int, ...], Scalar] = {}
        if components:
            for idx, value in components.items():
                self[tuple(idx)] = value

    @property
    def chart(self) -> Chart:
        return self.algebroid.chart

    def __setitem__(self, idx: Tuple[int, ...], value):
        if len(idx) != self.degree:
            raise ValueError("index length does not match degree")
        value = self.chart.scalar(value)
        if self.degree == 0:
            self.components[()] = value
            return
        sorted_sign = _sort_index(idx)
        if sorted_sign is None:
            if not value.is_structurally_zero():
                raise ValueError("repeated index with nonzero component")
            return
        key, sign = sorted_sign
        self.components[key] = value if sign > 0 else -value

    def __getitem__(self, idx: Tuple[int, ...]) -> Scalar:
        if len(idx) != self.degree:
            raise ValueError("index length does not match degree")
        if self.degree == 0:
            return self.components.get((), self.chart.zero)
        sorted_sign = _sort_index(tuple(idx))
        if sorted_sign is None:
            return self.chart.zero
        key, sign = sorted_sign
        comp = self.components.get(key, self.chart.zero)
        return comp if sign > 0 else -comp

    def keys(self):
        return combinations(range(self.algebroid.rank), self.degree)

    def _compatible(self, other: "EForm"):
        if other.algebroid is not self.algebroid:
            raise ChartError("forms live over different frames")

    def __add__(self, other: "EForm") -> "EForm":
        self._compatible(other)
        if other.degree != self.degree:
            raise ValueError("cannot add forms of different degree")
        out = EForm(self.algebroid, self.degree)
        for key in set(self.components) | set(other.components):
            out.components[key] = (self.components.get(key, self.chart.zero)
                                   + other.components.get(key, self.chart.zero))
        return out

    def __sub__(self, other: "EForm") -> "EForm":
        return self + (-other)

    def __neg__(self) -> "EForm":
        out = EForm(self.algebroid, self.degree)
        for key, val in self.components.items():
            out.components[key] = -val
        return out

    def scale(self, f) -> "EForm":
        f = self.chart.scalar(f)
        out = EForm(self.algebroid, self.degree)
        for key, val in self.components.items():
            out.components[key] = f * val
        return out

    def __rmul__(self, f) -> "EForm":
        return self.scale(f)

    def is_structurally_zero(self) -> bool:
        return all(v.is_structurally_zero() for v in self.components.values())

    def conjugate(self) -> "EForm":
        out = EForm(self.algebroid, self.degree)
        for key, val in self.components.items():
            out.components[key] = val.conjugate()
        return out

    def __repr__(self):
        parts = {k: str(v) for k, v in self.components.items()
                 if not v.is_structurally_zero()}
        return f"EForm(degree={self.degree}, {parts})"


def wedge(w: EForm, e: EForm) -> EForm:
    """Shuffle-sum wedge product without factorial prefactors."""
    w._compatible(e)
    p, q = w.degree, e.degree
    out = EForm(w.algebroid, p + q)
    zero = w.chart.zero
    for idx in combinations(range(w.algebroid.rank), p + q):
        acc = zero
        positions = list(range(p + q))
        for wpos in combinations(positions, p):
            epos = [k for k in positions if k not in wpos]
            # sign of the shuffle moving wpos to the front
            sign = 1
            for rank_in_w, k in enumerate(wpos):
                sign *= (-1) ** (k - rank_in_w)
            widx = tuple(idx[k] for k in wpos)
            eidx = tuple(idx[k] for k in epos)
            term = w[widx] * e[eidx]
            acc = acc + (term if sign > 0 else -term)
        if not acc.is_structurally_zero():
            out.components[idx] = acc
    return out


def evaluate(w: EForm, sections: Sequence[Section]) -> Scalar:
    """Full antisymmetric multilinear evaluation on component tuples."""
    if len(sections) != w.degree:
        raise ValueError("section count does not match degree")
    if w.degree == 0:
        return w[()]
    acc = w.chart.zero
    rows = [dict(s.terms) for s in sections]
    for key, value in w.components.items():
        # sum over the orders of the increasing index onto the slots; an
        # order that meets an exact-zero component adds nothing
        for perm in permutations(key):
            if all(k in row for k, row in zip(perm, rows)):
                acc = add_product(acc, _sort_index(perm)[1], value,
                                  *(row[k] for k, row in zip(perm, rows)))
    return acc


def d_E(w: EForm) -> EForm:
    """Chevalley-Eilenberg differential over the active frame."""
    A = w.algebroid
    m = A.rank
    p = w.degree
    out = EForm(A, p + 1)
    chart = A.chart

    for idx in combinations(range(m), p + 1):
        acc = chart.zero
        for i in range(p + 1):
            rest = idx[:i] + idx[i + 1:]
            term = A.anchor_vf(idx[i]).apply(w[rest])
            acc = acc + (term if i % 2 == 0 else -term)
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                rest = tuple(idx[k] for k in range(p + 1) if k not in (i, j))
                for c in range(m):
                    coeff = A.C[c][idx[i]][idx[j]]
                    if coeff.is_structurally_zero():
                        continue
                    term = coeff * w[(c,) + rest]
                    acc = acc + (term if (i + j) % 2 == 0 else -term)
        if not acc.is_structurally_zero():
            out.components[idx] = acc
    return out
