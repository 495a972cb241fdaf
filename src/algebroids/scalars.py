"""Symbolic scalars over a coordinate chart.

Every tensor component in this package is a ``Scalar``: an immutable value
over the coordinates of a single chart, with exact complex-rational
constants.  The decidable fragment is the field of rational functions in
the coordinates and in opaque transcendental atoms (sin, cos, exp, log,
sqrt applied to subexpressions); within that fragment the normal form is a
canonical reduced quotient of polynomials, so structural zero testing is
exact.  Outside the fragment (e.g. the identity sin^2 + cos^2 = 1) a zero
can only be seen at random rational points.

A Scalar built from coordinates, rationals, ``i``, ``+``, ``*`` and integer
powers (the rational core) holds its value as a pair (re, im) over the
field of the chart's coordinates, ZZ(coordinates), with constants in QQ,
reduced when it is built, so equal values are equal pairs.  The pairs live
on the stdlib polynomials of ``_poly``: arithmetic, ``diff``, ``eval``,
``on_chart``, ``==``, hashing and printing act on the pair, and its text is
the text sympy prints for ``cancel(together(e))``.

sympy is imported lazily, by ``_sympy``, only for an atom: when a text
calls a function (``sin``, ``sqrt``, ...) or a sympy expression is passed
in.  An expression with an atom, or with a vanishing denominator, stays the
sympy tree it was built as; its normal form, sympy's own
``cancel(together(e))``, is taken when it is read (zero test, ``==``, hash,
print).  No caller normalises: the tree route takes its operands' normal
forms only where a printed tree depends on it (a tree divided by a tree).
``norm_expr`` and ``expr`` are the sympy views of any Scalar.

``Table`` is the package's one matrix type: rows of Scalars on a chart,
with one sparse kernel, ``combine``, behind every product, and one
Gauss-Jordan elimination in Scalar arithmetic behind ``det``, ``inverse``
and ``rank``.

The grammar, printer and normal form are pinned here, so the text format is
independent of sympy's own parser.  The rest of the package works through
``Scalar``, ``Table`` and the constant ``i``.
"""

from __future__ import annotations

import functools
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from algebroids import _poly
from algebroids._poly import fadd, fdiff, fgen, finv, fmul, fpow

__all__ = [
    "ChartError",
    "ParseError",
    "PoleError",
    "ComplexRational",
    "Chart",
    "Coordinate",
    "Scalar",
    "i",
    "parse_scalar",
    "nonzero_terms",
    "dense",
    "Table",
    "add_product",
]

# the functions of the grammar, by their sympy names
KNOWN_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tan", "sinh", "cosh",
                   "tanh", "atan", "asin", "acos")

DEFAULT_SAMPLES = 8
DEFAULT_SEED = 42
FLOAT_TOLERANCE = 1e-9
# numerators/denominators of sampled rational points
SAMPLE_BOUND = 97


@functools.cache
def _sympy():
    """sympy, imported on first use: only an atom, or a sympy expression
    passed in, needs it."""
    import sympy

    return sympy


def _is_sympy(value) -> bool:
    return type(value).__module__.partition(".")[0] == "sympy"


class ChartError(ValueError):
    """A coordinate or scalar was used with the wrong chart."""


class ParseError(ValueError):
    """Syntax or identifier error in the expression grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PoleError(ArithmeticError):
    """Evaluation hit a pole."""


def _coercing(op):
    """Binary ComplexRational operator on a coerced operand; any other
    operand type gets NotImplemented, so Python tries its reflected
    operator (``i * scalar`` runs ``Scalar.__rmul__``)."""

    @functools.wraps(op)
    def wrapper(self, other):
        if isinstance(other, (int, Fraction)):
            other = ComplexRational(Fraction(other))
        elif not isinstance(other, ComplexRational):
            return NotImplemented
        return op(self, other)

    return wrapper


@dataclass(frozen=True)
class ComplexRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "ComplexRational":
        return ComplexRational(Fraction(re), Fraction(im))

    @staticmethod
    def from_sympy(value) -> "ComplexRational":
        value = _sympy().nsimplify(value, rational=True)
        re, im = value.as_real_imag()
        if not (re.is_Rational and im.is_Rational):
            raise ValueError(f"not a complex rational: {value}")
        return ComplexRational(Fraction(re.p, re.q), Fraction(im.p, im.q))

    def to_sympy(self):
        sp = _sympy()
        return sp.Rational(self.re) + sp.Rational(self.im) * sp.I

    @_coercing
    def __add__(self, other):
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    @_coercing
    def __sub__(self, other):
        return self + (-other)

    @_coercing
    def __rsub__(self, other):
        return other + (-self)

    @_coercing
    def __mul__(self, other):
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    @_coercing
    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return self * ComplexRational(other.re / d, -other.im / d)

    @_coercing
    def __rtruediv__(self, other):
        return other / self

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"


# the imaginary unit
i = ComplexRational.of(0, 1)


class Coordinate:
    """A coordinate of a chart, known by its name: coordinates of two
    charts with one name are equal."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return other.__class__ is Coordinate and other.name == self.name

    def __hash__(self):
        return hash((Coordinate, self.name))

    def __repr__(self):
        return self.name


# sympy's generator order (``sympy.polys.polyutils._sort_gens``): by the
# rank of a name's letters, then the letters, then its trailing number; the
# name itself breaks a tie, which sympy leaves in input order
_GENS_ORDER = {letter: rank for start, letters in
               ((124, "xyz"), (216, "pqrstuvw"), (301, "abcdefghijklmno"))
               for rank, letter in enumerate(letters, start)}
_GEN_NAME = re.compile(r"^(.*?)(\d*)$", re.MULTILINE)


def _gen_key(name: str) -> tuple:
    letters, number = _GEN_NAME.match(name).groups()
    return (_GENS_ORDER.get(letters, 1000), letters, int(number or 0), name)


class Chart:
    """Named chart with an ordered tuple of real coordinates.

    A chart with zero coordinates is allowed; it models the pure Lie
    algebra case where all structure data is constant.
    """

    def __init__(self, name: str, coords: Iterable[str]):
        names = list(coords)
        if len(set(names)) != len(names):
            raise ChartError(f"duplicate coordinates in chart {name!r}")
        for cname in names:
            if cname == "i" or cname in KNOWN_FUNCTIONS:
                raise ChartError(f"coordinate name {cname!r} is reserved")
        self.name = name
        self.coords = tuple(Coordinate(c) for c in names)
        self._by_name = {c.name: c for c in self.coords}
        # the generators of the chart's field, ZZ(coordinates), in lex
        # order over sympy's generator order, as in the ring sympy's
        # `cancel` works in (so the sign of a denominator is fixed the same
        # way); a constant is never an element of it but a Fraction
        self._gens = tuple(sorted(names, key=_gen_key))
        self._index = {g: k for k, g in enumerate(self._gens)}
        n = len(self._gens)
        self._generators = [fgen(k, n) for k in range(n)]
        # shared by every caller; a Scalar is immutable
        self.zero = Scalar(self, _ZERO)
        self.one = Scalar(self, _ONE)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def coord(self, name: str) -> Coordinate:
        try:
            return self._by_name[name]
        except KeyError:
            raise ChartError(f"chart {self.name!r} has no coordinate {name!r}")

    def _generator(self, name: str) -> tuple:
        """The pair of a coordinate, by name."""
        try:
            return (self._generators[self._index[name]], _Q0)
        except KeyError:
            raise ChartError(
                f"symbols {[name]} not in chart {self.name!r}") from None

    def scalar(self, value) -> "Scalar":
        """Coerce a string, number, coordinate or sympy expression to a
        Scalar on this chart."""
        if isinstance(value, Scalar):
            if value.chart is not self:
                raise ChartError("scalar belongs to a different chart")
            return value
        if isinstance(value, str):
            return parse_scalar(value, self)
        if isinstance(value, ComplexRational):
            return Scalar(self, (value.re, value.im))
        if isinstance(value, (int, Fraction)):
            return Scalar(self, (Fraction(value), _Q0))
        if isinstance(value, Coordinate):
            return Scalar(self, self._generator(value.name))
        if _is_sympy(value) and isinstance(value, _sympy().Expr):
            return Scalar(self, _on_chart(self, value))
        raise TypeError(f"cannot coerce {value!r} to Scalar")

    @functools.cached_property
    def _tree_field(self) -> tuple:
        """The chart's field as the walk of a sympy tree sees it: (the
        coordinates as real sympy symbols in generator order, {symbol: its
        field element}, memo)."""
        sp = _sympy()
        symbols = tuple(sp.Symbol(g, real=True) for g in self._gens)
        return symbols, dict(zip(symbols, self._generators)), {}

    def __repr__(self):
        return f"Chart({self.name!r}, {[c.name for c in self.coords]})"


def _on_chart(chart: Chart, expr):
    """``expr`` itself, once every symbol in it is a coordinate of ``chart``."""
    bad = expr.free_symbols - set(chart._tree_field[0])
    if bad:
        raise ChartError(
            f"symbols {sorted(s.name for s in bad)} not in chart {chart.name!r}"
        )
    return expr


# ---------------------------------------------------------------------------
# pairs
#
# Elements of a pair are Fractions, or non-constant elements of the field
# (``_poly.Frac``), each reduced with a denominator of positive leading
# coefficient.  So equal values are equal pairs.

_Q0 = Fraction(0)
# the pair of every exact zero: a zero Scalar is found by identity
_ZERO = (_Q0, _Q0)
_ONE = (Fraction(1), _Q0)
_I = (_Q0, Fraction(1))


def _plus(u: tuple, v: tuple) -> tuple:
    return (fadd(u[0], v[0]), fadd(u[1], v[1]))


def _negate(u: tuple) -> tuple:
    return (-u[0], -u[1])


def _times(u: tuple, v: tuple) -> tuple:
    (a, b), (c, d) = u, v
    if not b:
        return (fmul(a, c), fmul(a, d) if d else d)
    if not d:
        return (fmul(a, c), fmul(b, c))
    return (fadd(fmul(a, c), -fmul(b, d)), fadd(fmul(a, d), fmul(b, c)))


def _power(u: tuple, n: int) -> tuple:
    """u^n for n != 0; ZeroDivisionError for zero to a negative power."""
    a, b = u
    if n < 0:
        if not b:
            return (fpow(finv(a), -n), b)
        norm = finv(fadd(fmul(a, a), fmul(b, b)))  # a sum of squares
        a, b, n = fmul(a, norm), fmul(-b, norm), -n
    if not b:
        return (fpow(a, n), b)
    return functools.reduce(_times, [(a, b)] * n)


def _is_constant(u: tuple) -> bool:
    return u[0].__class__ is Fraction and u[1].__class__ is Fraction


def _used(u: tuple) -> set:
    """The indices of the generators the pair ``u`` depends on."""
    return {k for c in u if c.__class__ is not Fraction for p in (c.num, c.den)
            for m in p for k, e in enumerate(m) if e}


def _pair_on_chart(u: tuple, source: Chart, chart: Chart, rename) -> tuple:
    """The pair ``u`` of ``source`` on ``chart``, its generators renamed by
    ``rename`` (name -> name) and placed at their indices there."""
    n = len(chart._gens)
    names = {k: rename.get(source._gens[k], source._gens[k]) for k in _used(u)}
    missing = {name for name in names.values() if name not in chart._index}
    if missing:
        raise ChartError(
            f"symbols {sorted(missing)} not in chart {chart.name!r}")
    target = {k: chart._index[name] for k, name in names.items()}
    injective = len(set(target.values())) == len(target)

    def move(p):
        out = {}
        for m, c in p.items():
            new = [0] * n
            for k, e in enumerate(m):
                if e:
                    new[target[k]] += e
            out[tuple(new)] = out.get(tuple(new), 0) + c
        return {m: c for m, c in out.items() if c}

    def element(c):
        if c.__class__ is Fraction:
            return c
        num, den = move(c.num), move(c.den)
        if not injective:
            if not den:
                raise ZeroDivisionError(
                    f"a denominator vanishes on chart {chart.name!r}")
            return _poly.quotient(num, den, n)
        if _poly.leading(den) < 0:
            num, den = _poly.pneg(num), _poly.pneg(den)
        return _poly.Frac(num, den)

    return (element(u[0]), element(u[1]))


def _pair_value(u: tuple, values: tuple, point) -> ComplexRational:
    """The exact value of ``u`` with each generator set to its entry of
    ``values`` (ComplexRationals); PoleError where a denominator
    vanishes."""
    parts = []
    for c in u:
        if c.__class__ is Fraction:
            parts.append(ComplexRational(c))
            continue
        den = _ZERO_VALUE + _poly.evaluate(c.den, values)
        if den.is_zero():
            raise PoleError(f"pole at {point}")
        parts.append((_ZERO_VALUE + _poly.evaluate(c.num, values)) / den)
    return parts[0] + parts[1] * i


_ZERO_VALUE = ComplexRational(_Q0)


# ---------------------------------------------------------------------------
# sympy trees: the atom route, and the sympy views of a pair


def _canonical(expr, entry: Optional[tuple] = None):
    """Canonical form: reduced quotient of expanded polynomials.

    Coordinates and each distinct transcendental atom are independent
    generators, so two expressions equal as rational functions in those
    generators canonicalize to identical trees.

    An expression of the rational core (coordinates, rationals, ``I``,
    ``+``, ``*`` and integer powers) is walked into its pair (re, im) over
    the field of ``entry`` (by default the field of its own symbols) and
    emitted by ``_emit``.  An expression with an atom (sin, sqrt, exp, ...)
    or with a vanishing denominator takes sympy's own
    ``cancel(together(expr))``, emitted as a pair's when no atom is left,
    unless its walk over a field with its atoms as generators finds zero.
    """
    sp = _sympy()
    if entry is None:
        entry = _field(frozenset(expr.free_symbols))
    pair = _to_pair(expr, entry)
    if pair is None:
        # zero as a rational function of its coordinates and atoms: then
        # cancel's quotient is 0 too, and the walk is the cheaper test
        gens = _generators(expr)
        zero = gens and _to_pair(expr, _field(gens))
        if zero and not (zero[0] or zero[1]):
            return sp.S.Zero
        # an atom may cancel: then the quotient is emitted as a pair's
        expr = sp.cancel(sp.together(expr))
        pair = _to_pair(expr, entry)
        if pair is None:
            return expr
    return _emit(pair, entry[0])


# per set of sympy generators (coordinates and atoms, for the zero test and
# the reference normal form of a bare expression): the field's generators in
# sympy's order, the field element of each, and the memo of the pairs of the
# tree nodes walked in it.  A memo that reaches _MEMO_NODES nodes is
# emptied, which bounds its memory.
_FIELDS: dict = {}
_MEMO_NODES = 1 << 12


def _field(symbols: frozenset) -> tuple:
    entry = _FIELDS.get(symbols)
    if entry is None:
        gens = _sympy().polys.polyutils._sort_gens(symbols)
        n = len(gens)
        entry = _FIELDS[symbols] = (
            gens, {g: fgen(k, n) for k, g in enumerate(gens)}, {})
    return entry


class _NotRational(Exception):
    """The walk met an atom."""


_UNWALKED = object()


def _to_pair(expr, entry: tuple) -> Optional[tuple]:
    """The pair of the sympy tree ``expr``, or None when it has an atom
    that is not a generator of the field, or a vanishing denominator.  The
    coordinates are real, so ``I`` never enters the field."""
    sp = _sympy()
    decompose_power = sp.core.exprtools.decompose_power
    _, gens, memo = entry
    if len(memo) >= _MEMO_NODES:
        memo.clear()

    def walk(node):
        pair = memo.get(node, _UNWALKED)
        if pair is None:
            raise _NotRational
        if pair is _UNWALKED:
            # a node left None by an exception has an atom, or a
            # vanishing denominator, below it
            memo[node] = None
            if node.is_Symbol:
                pair = (gens[node], _Q0)
            elif node.is_Rational:
                pair = (Fraction(node.p, node.q), _Q0)
            elif node is sp.I:
                pair = _I
            elif node.is_Add:
                pair = functools.reduce(_plus, map(walk, node.args))
            elif node.is_Mul:
                pair = functools.reduce(_times, map(walk, node.args))
            elif node.is_Pow and node.exp.is_Integer:
                pair = _power(walk(node.base), int(node.exp))
            else:
                # an atom is a power of a generator, as in sympy's polys
                base, exp = decompose_power(node)
                if base not in gens:
                    raise _NotRational
                pair = _power((gens[base], _Q0), exp)
            memo[node] = pair
        return pair

    try:
        return walk(expr)
    except (_NotRational, ZeroDivisionError):
        return None


def _generators(expr) -> Optional[frozenset]:
    """The coordinates of ``expr`` outside its atoms and the generator of
    each atom, as sympy's polys take them (exp(2*x) is exp(x)^2); None
    when an atom is a number such as sin(1), which sympy's ``cancel``
    takes as a coefficient instead."""
    sp = _sympy()
    out = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if node.is_Add or node.is_Mul:
            stack.extend(node.args)
        elif node.is_Pow and node.exp.is_Integer:
            stack.append(node.base)
        elif node.is_Symbol:
            out.add(node)
        elif not (node.is_Rational or node is sp.I):
            if node.is_number:
                return None
            out.add(sp.core.exprtools.decompose_power(node)[0])
    return frozenset(out)


def _emit(pair: tuple, gens: tuple):
    """The tree ``cancel(together(e))`` gives for the value of ``pair``
    over the generators ``gens``, with a constant as
    ``Rational(a) + Rational(b)*I``."""
    sp = _sympy()
    re, im = pair
    if _is_constant(pair):
        return (sp.Rational(re.numerator, re.denominator)
                + sp.Rational(im.numerator, im.denominator) * sp.I)
    if not im:
        p, q = re.num, re.den
    else:
        p, q = _poly.gaussian_quotient(re, im, len(gens))
    return _as_expr(p, gens) / _as_expr(q, gens)


def _as_expr(f: dict, gens: tuple):
    """sympy's ``PolyElement.as_expr`` of a polynomial over ZZ or ZZ[i]."""
    sp = _sympy()
    terms = []
    for m, c in f.items():
        if c.__class__ is int:
            coeff = sp.Integer(c)
        else:
            coeff = sp.Integer(c.re) + sp.I * sp.Integer(c.im)
        terms.append(sp.Mul(coeff, *[sp.Pow(g, e) for g, e in zip(gens, m) if e]))
    return sp.Add(*terms)


class Scalar:
    """Immutable symbolic scalar over a chart's coordinates.

    A scalar of the rational core holds its value as ``pair``, (re, im)
    over the chart's field, where arithmetic and ``diff`` are exact and
    every result is reduced; its sympy tree is built only on demand
    (``norm_expr``).  An expression with an atom, or one whose walk meets
    a vanishing denominator, is held as a sympy tree (``pair`` is None),
    built by sympy's arithmetic and reduced by ``cancel(together(e))``
    only when ``norm_expr`` is read; no caller normalises.  A pair enters
    such a tree as its normal form's tree, and so does each side of a
    quotient of two trees.  Beside an algebraic atom (``sqrt(x1 + 1)``)
    the normal form is not canonical, so there the result's tree, and
    ``==``, can depend on the route taken.

    ``Scalar(chart, value)`` takes a pair, or a sympy expression whose
    symbols are coordinates of ``chart``, walked into a pair when it has
    no atom.  The expression is trusted: an expression from outside enters
    through ``Chart.scalar`` or ``on_chart``, which check it.
    """

    __slots__ = ("chart", "pair", "_tree", "_norm")

    def __init__(self, chart: Chart, value):
        tree = None
        if value.__class__ is tuple:
            pair = value
        else:
            pair = _to_pair(value, chart._tree_field)
            if pair is None:
                tree = value
        if pair is not None and not pair[1]:
            if not pair[0]:
                pair = _ZERO
            elif pair[0].__class__ is Fraction and pair[0] == 1:
                pair = _ONE
        _set_chart(self, chart)
        _set_pair(self, pair)
        _set_tree(self, tree)
        _set_norm(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def expr(self):
        """The sympy tree: the one held when there is no pair, else the
        normal form's."""
        tree = self._tree
        return self.norm_expr if tree is None else tree

    # -- canonical form -------------------------------------------------

    @property
    def norm_expr(self):
        """The normal form as a sympy tree."""
        cached = self._norm
        if cached is None:
            field = self.chart._tree_field
            if self.pair is None:
                cached = _canonical(self._tree, field)
            else:
                cached = _emit(self.pair, field[0])
            _set_norm(self, cached)
        return cached

    def _normal_key(self):
        """The pair of the normal form, or its tree when it has an atom."""
        if self.pair is not None:
            return self.pair
        norm = self.norm_expr
        pair = _to_pair(norm, self.chart._tree_field)
        return norm if pair is None else pair

    def is_structurally_zero(self) -> bool:
        if self.pair is None:
            return self.norm_expr == 0
        return self.pair is _ZERO

    def is_constant(self) -> bool:
        if self.pair is None:
            return not self.norm_expr.free_symbols
        return _is_constant(self.pair)

    def is_rational_function(self) -> bool:
        """True when the normal form has no transcendental or algebraic atom."""
        return (self.pair is not None
                or _to_pair(self.norm_expr, self.chart._tree_field) is not None)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        return self.chart.scalar(other)

    # a zero operand returns the other operand (sum) or itself (product),
    # and a one returns the other operand of a product.
    # An operand that is a Scalar of this chart needs no coercion.  A
    # scalar without a pair makes the result a tree.

    def __add__(self, other):
        if other.__class__ is not Scalar or other.chart is not self.chart:
            other = self._coerce(other)
        u, v = self.pair, other.pair
        if v is _ZERO:
            return self
        if u is _ZERO:
            return other
        if u is None or v is None:
            return Scalar(self.chart, self.expr + other.expr)
        return Scalar(self.chart, _plus(u, v))

    __radd__ = __add__

    def __neg__(self):
        u = self.pair
        if u is _ZERO:
            return self
        if u is None:
            return Scalar(self.chart, -self._tree)
        return Scalar(self.chart, _negate(u))

    def __sub__(self, other):
        if other.__class__ is not Scalar or other.chart is not self.chart:
            other = self._coerce(other)
        u, v = self.pair, other.pair
        if v is _ZERO:
            return self
        if u is None or v is None or u is _ZERO:
            return self + (-other)
        return Scalar(self.chart, _plus(u, _negate(v)))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not Scalar or other.chart is not self.chart:
            other = self._coerce(other)
        u, v = self.pair, other.pair
        if u is _ZERO or v is _ONE:
            return self
        if v is _ZERO or u is _ONE:
            return other
        if u is None or v is None:
            return Scalar(self.chart, self.expr * other.expr)
        return Scalar(self.chart, _times(u, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_structurally_zero():
            raise ZeroDivisionError("division by structurally zero scalar")
        u, v = self.pair, other.pair
        if u is _ZERO:
            return self
        if u is None and v is None:
            # beside an algebraic atom a quotient of raw trees prints otherwise
            return Scalar(self.chart, self.norm_expr / other.norm_expr)
        if u is None or v is None:
            return Scalar(self.chart, self.expr / other.expr)
        return Scalar(self.chart, _times(u, _power(v, -1)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("only integer exponents are supported")
        if exponent < 0 and self.is_structurally_zero():
            raise ZeroDivisionError("division by structurally zero scalar")
        if self.pair is None:
            return Scalar(self.chart, self._tree ** exponent)
        if exponent == 0:
            return self.chart.one
        return Scalar(self.chart, _power(self.pair, exponent))

    # -- calculus --------------------------------------------------------

    def diff(self, coord: Union[str, Coordinate]) -> "Scalar":
        name = coord if isinstance(coord, str) else coord.name
        k = self.chart._index.get(name)
        if k is None:
            raise ChartError(
                f"{name} is not a coordinate of chart {self.chart.name!r}")
        if self.pair is None:
            sym = self.chart._tree_field[0][k]
            if sym not in self._tree.free_symbols:
                return self.chart.zero
            return Scalar(self.chart, _sympy().diff(self._tree, sym))
        if _is_constant(self.pair):
            return self.chart.zero
        re, im = self.pair
        return Scalar(self.chart, (fdiff(re, k), fdiff(im, k)))

    def on_chart(self, chart: Chart, rename: Optional[Mapping] = None) -> "Scalar":
        """The same expression on another chart, which must contain its
        coordinates once ``rename`` (coordinate -> coordinate of ``chart``)
        is applied; ZeroDivisionError where the rename makes a denominator
        vanish."""
        if self.pair is not None and _is_constant(self.pair):
            return Scalar(chart, self.pair)
        names = {a.name: b.name for a, b in (rename or {}).items()}
        if self.pair is not None:
            return Scalar(chart, _pair_on_chart(self.pair, self.chart, chart,
                                                names))
        sp = _sympy()
        expr = self._tree
        if names:
            expr = expr.subs({sp.Symbol(a, real=True): sp.Symbol(b, real=True)
                              for a, b in names.items()}, simultaneous=True)
            if expr.has(sp.zoo, sp.nan):
                raise ZeroDivisionError(
                    f"a denominator vanishes on chart {chart.name!r}")
        return Scalar(chart, _on_chart(chart, expr))

    def conjugate(self) -> "Scalar":
        # coordinates are real symbols, so only the constants flip
        u = self.pair
        if u is None:
            return Scalar(self.chart, _sympy().conjugate(self._tree))
        if not u[1]:
            return self
        return Scalar(self.chart, (u[0], -u[1]))

    def real_part(self) -> "Scalar":
        u = self.pair
        if u is None:
            return (self + self.conjugate()) / 2
        return self if not u[1] else Scalar(self.chart, (u[0], _Q0))

    def imag_part(self) -> "Scalar":
        u = self.pair
        if u is None:
            return (self - self.conjugate()) / (2 * i)
        return Scalar(self.chart, (u[1], _Q0))

    # -- evaluation -------------------------------------------------------

    def eval(self, point: Mapping) -> Union[ComplexRational, complex]:
        """Evaluate at a point (coordinate, or its name -> value).

        Rational expressions evaluate exactly to a ComplexRational;
        transcendental atoms force a floating complex result.
        """
        values = {}
        for key, val in point.items():
            name = key if isinstance(key, str) else key.name
            if isinstance(key, str):
                self.chart.coord(key)
            values[name] = val
        if self.pair is not None:
            return self._pair_eval(values, point)
        sp = _sympy()
        expr = self.expr
        subs = {sp.Symbol(name, real=True):
                (val.to_sympy() if isinstance(val, ComplexRational)
                 else sp.sympify(val))
                for name, val in values.items()}
        missing = expr.free_symbols - set(subs)
        if missing:
            raise ChartError(
                f"point does not cover coordinates {sorted(s.name for s in missing)}"
            )
        value = expr.subs(subs, simultaneous=True)
        if value.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
            raise PoleError(f"pole at {point}")
        try:
            return ComplexRational.from_sympy(value)
        except ValueError:
            approx = complex(value.evalf(chop=False))
            if approx != approx or abs(approx) == float("inf"):  # nan / inf
                raise PoleError(f"pole at {point}")
            return approx

    def _pair_eval(self, values: dict, point: Mapping) -> ComplexRational:
        gens = self.chart._gens
        missing = {gens[k] for k in _used(self.pair)} - set(values)
        if missing:
            raise ChartError(
                f"point does not cover coordinates {sorted(missing)}")
        at = tuple(v if isinstance(v, ComplexRational)
                   else ComplexRational(Fraction(v))
                   for v in (values.get(g, 0) for g in gens))
        return _pair_value(self.pair, at, point)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            try:
                other = self._coerce(other)
            except (TypeError, ChartError, ParseError):
                return NotImplemented
        if self.chart is not other.chart:
            return False
        if self.pair is None or other.pair is None:
            a, b = self._normal_key(), other._normal_key()
            if (a.__class__ is tuple) != (b.__class__ is tuple):
                return False
            return a == b
        return self.pair == other.pair

    def __hash__(self):
        return hash((id(self.chart), self._normal_key()))

    def __str__(self):
        return print_scalar(self)

    def __repr__(self):
        return f"Scalar({print_scalar(self)!r})"


# the slots' own setters, which pass by the immutability guard
_set_chart, _set_pair, _set_tree, _set_norm = (
    Scalar.__dict__[name].__set__ for name in Scalar.__slots__)


def nonzero_terms(scalars: Iterable[Scalar]) -> tuple:
    """The (index, scalar) pairs of ``scalars`` that are not an exact zero.

    Every zero of the rational core, such as ``(x1+1)^2 - x1^2 - 2*x1 - 1``,
    holds the shared zero pair, so one identity test finds it, and a
    skipped term adds nothing.  A tree with an atom that only its normal
    form shows to be zero is kept.
    """
    return tuple((k, s) for k, s in enumerate(scalars) if s.pair is not _ZERO)


def dense(chart: Chart, terms, width: int) -> list:
    """The ``width`` Scalars whose nonzero (index, Scalar) terms are
    ``terms``, with ``chart.zero`` at every other index."""
    out = [chart.zero] * width
    for k, s in terms:
        out[k] = s
    return out


class Table(tuple):
    """Matrix of Scalars on one chart: a tuple of rows with exact linear
    algebra.  ``terms[k]`` holds the nonzero_terms of row k.

    The chart is carried, not read from an entry: a Lie algebra chart has
    no coordinates, so its anchor's rows are empty.  Every product is the
    one sparse kernel ``combine``, a combination of rows; ``apply`` runs
    it on the rows of ``T``.  ``det``, ``inverse`` and ``rank`` read one
    Gauss-Jordan elimination of [M | I] in Scalar arithmetic, cached per
    table; it pivots structurally, on the first entry of a column whose
    normal form is not zero.
    """

    def __new__(cls, chart: Chart, rows: Iterable[Iterable]):
        table = super().__new__(cls, (
            tuple(e if e.__class__ is Scalar and e.chart is chart
                  else chart.scalar(e) for e in row) for row in rows))
        table.chart = chart
        table.terms = tuple(map(nonzero_terms, table))
        return table

    def combine(self, terms) -> list:
        """The nonzero terms, in index order, of sum_k x_k row_k over the
        (k, x_k) ``terms`` in index order; each entry adds its products
        row_k[j] * x_k in the order of k, skipping the exact zeros."""
        out = {}
        rows = self.terms
        for k, x in terms:
            for j, t in rows[k]:
                out[j] = out[j] + t * x if j in out else t * x
        return sorted(jt for jt in out.items() if jt[1].pair is not _ZERO)

    @functools.cached_property
    def T(self) -> "Table":
        """The transpose.  It has no rows when this table's rows are empty,
        and a table with no rows has no width, so a product's operand that
        may have no rows is built by rows, not transposed."""
        return Table(self.chart, zip(*self))

    def apply(self, terms) -> list:
        """The nonzero terms of the matrix times the column whose nonzero
        (index, Scalar) terms are ``terms``: the columns combined, each
        entry summing row[k] * x_k in the order of k."""
        return self.T.combine(terms)

    def __matmul__(self, other: "Table") -> "Table":
        width = len(other[0]) if other else 0
        return Table(self.chart, [dense(self.chart, other.combine(t), width)
                                  for t in self.terms])

    @functools.cached_property
    def _eliminated(self) -> tuple:
        """(det, rank, rows of the reduced [M | I]); det is read only for
        a square M, and is zero when M is singular."""
        zero, one = self.chart.zero, self.chart.one
        n = len(self)
        width = len(self[0]) if n else 0
        rows = [list(row) + [one if c == r else zero for c in range(n)]
                for r, row in enumerate(self)]
        det, rank = one, 0
        for col in range(width):
            pivot = next((r for r in range(rank, n)
                          if not rows[r][col].is_structurally_zero()), None)
            if pivot is None:
                det = zero
                continue
            p = rows[pivot][col]
            det = det * p if pivot == rank else -(det * p)
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            top = rows[rank] = [e / p for e in rows[rank]]
            for r in range(n):
                f = rows[r][col]
                if r != rank and not f.is_structurally_zero():
                    rows[r] = [e - f * t for e, t in zip(rows[r], top)]
            rank += 1
        return det, rank, rows

    def _square(self) -> int:
        n = len(self)
        if any(len(row) != n for row in self):
            raise ValueError("matrix is not square")
        return n

    def det(self) -> Scalar:
        self._square()
        return self._eliminated[0]

    def inverse(self) -> "Table":
        n = self._square()
        _, rank, rows = self._eliminated
        if rank < n:
            raise ZeroDivisionError(
                "inverse of a structurally singular matrix")
        return Table(self.chart, [row[n:] for row in rows])

    def rank(self) -> int:
        return self._eliminated[1]


def add_product(acc: Scalar, sign: int, *factors: Scalar) -> Scalar:
    """acc + sign * (the factors multiplied left to right); acc itself, with
    no arithmetic, when a factor is an exact zero."""
    for f in factors:
        if f.pair is _ZERO:
            return acc
    product = functools.reduce(operator.mul, factors)
    return acc + product if sign > 0 else acc - product


# ---------------------------------------------------------------------------
# zero testing


def _random_point(chart: Chart, rng: random.Random) -> dict:
    """Random rational point with coordinates p/q, |p|,|q| <= SAMPLE_BOUND."""
    point = {}
    for c in chart.coords:
        num = rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)
        den = rng.randint(1, SAMPLE_BOUND)
        point[c] = ComplexRational.of(Fraction(num, den))
    return point


def _vanishes_at_samples(s: Scalar) -> bool:
    """Whether ``s`` is numerically zero at DEFAULT_SAMPLES random rational
    points off its poles, drawn with DEFAULT_SEED: a likely identity outside
    the decidable fragment (sin^2 + cos^2 - 1) when ``s`` is not
    structurally zero."""
    rng = random.Random(DEFAULT_SEED)
    tested = 0
    for _ in range(DEFAULT_SAMPLES * 4):
        try:
            value = s.eval(_random_point(s.chart, rng))
        except PoleError:
            continue
        if abs(complex(value)) > FLOAT_TOLERANCE:
            return False
        tested += 1
        if tested == DEFAULT_SAMPLES:
            break
    if tested == 0:
        raise PoleError("every sampled point hit a pole; cannot test for zero")
    return True


# ---------------------------------------------------------------------------
# parser

_OPERATORS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(("int", text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens




class _Pairs:
    """The parser's values as pairs: a text with no function call."""

    def __init__(self, chart: Chart):
        self.chart = chart

    @staticmethod
    def number(n: int) -> tuple:
        return (Fraction(n), _Q0)

    @staticmethod
    def imag() -> tuple:
        return _I

    def coord(self, name: str) -> tuple:
        return self.chart._generator(name)

    add = staticmethod(_plus)
    mul = staticmethod(_times)
    neg = staticmethod(_negate)

    @staticmethod
    def sub(u, v):
        return _plus(u, _negate(v))

    @staticmethod
    def div(u, v):
        return _times(u, _power(v, -1))

    @staticmethod
    def power(u, n: int):
        return _ONE if n == 0 else _power(u, n)

    @staticmethod
    def is_zero(u) -> bool:
        return u[0] == 0 and u[1] == 0

    @staticmethod
    def integer(u) -> Optional[int]:
        a, b = u
        if b == 0 and a.__class__ is Fraction and a.denominator == 1:
            return int(a)
        return None


class _Trees:
    """The parser's values as sympy trees: a text that calls a function."""

    def __init__(self, chart: Chart):
        self.chart = chart
        self.sp = _sympy()

    def number(self, n: int):
        return self.sp.Integer(n)

    def imag(self):
        return self.sp.I

    def coord(self, name: str):
        return self.chart._tree_field[0][self.chart._index[name]]

    def call(self, name: str, arg):
        return getattr(self.sp, name)(arg)

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    div = staticmethod(operator.truediv)
    neg = staticmethod(operator.neg)
    power = staticmethod(operator.pow)

    def is_zero(self, expr) -> bool:
        return _canonical(expr, self.chart._tree_field) == 0

    def integer(self, expr) -> Optional[int]:
        value = _canonical(expr, self.chart._tree_field)
        return int(value) if value.is_Integer else None


class _Parser:
    """Recursive descent parser for the expression grammar.

    Precedence (low to high): + - ; * / ; unary - ; ^ (right associative).
    The values are built by ``values``: sympy trees unless given.
    """

    def __init__(self, text: str, chart: Chart, values=_Trees):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.index = 0
        self.values = values(chart)

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        expr = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return expr

    def sum(self):
        expr = self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.product()
            expr = (self.values.add if op == "+" else self.values.sub)(expr, rhs)
        return expr

    def product(self):
        expr = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs = self.unary()
            if op == "*":
                expr = self.values.mul(expr, rhs)
            else:
                if self.values.is_zero(rhs):
                    raise ParseError("division by structurally zero expression", pos)
                expr = self.values.div(expr, rhs)
        return expr

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return self.values.neg(self.unary())
        if self.peek()[0] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.advance()
            exponent = self.values.integer(self.unary_power())
            if exponent is None:
                raise ParseError("exponent must be an integer constant", pos)
            if exponent < 0 and self.values.is_zero(base):
                raise ParseError("division by structurally zero expression", pos)
            return self.values.power(base, exponent)
        return base

    def unary_power(self):
        # exponent position: allow a leading sign, then a power (right assoc)
        if self.peek()[0] == "-":
            self.advance()
            return self.values.neg(self.unary_power())
        return self.power()

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return self.values.number(int(value))
        if kind == "(":
            expr = self.sum()
            self.expect(")")
            return expr
        if kind == "name":
            if self.peek()[0] == "(":
                if value not in KNOWN_FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", pos)
                self.advance()
                arg = self.sum()
                self.expect(")")
                return self.values.call(value, arg)
            if value == "i":
                return self.values.imag()
            if value not in self.chart._index:
                raise ParseError(f"unknown identifier {value!r}", pos)
            return self.values.coord(value)
        raise ParseError(f"unexpected token {value!r}", pos)


def _calls_a_function(tokens: list) -> bool:
    return any(name[0] == "name" and name[1] in KNOWN_FUNCTIONS
               and paren[0] == "(" for name, paren in zip(tokens, tokens[1:]))


def parse_scalar(text: str, chart: Chart) -> Scalar:
    """Parse the expression grammar into a Scalar: a reduced pair, or, for
    a text that calls a function, the sympy tree as parsed, whose normal
    form is taken when it is read."""
    if not _calls_a_function(_tokenize(text)):
        return Scalar(chart, _Parser(text, chart, _Pairs).parse())
    expr = _Parser(text, chart).parse()
    sp = _sympy()
    if expr.has(sp.zoo, sp.nan):
        raise ParseError("expression contains division by zero", 0)
    return Scalar(chart, expr)


# ---------------------------------------------------------------------------
# printer


@functools.cache
def _tree_printer():
    """The printer of sympy trees: the package grammar, ^ for powers."""
    sp = _sympy()
    PRECEDENCE = sp.printing.precedence.PRECEDENCE

    class _ScalarPrinter(sp.StrPrinter):
        def __init__(self):
            super().__init__(settings={"order": "grlex"})

        def _print_ImaginaryUnit(self, expr):
            return "i"

        def _print_Exp1(self, expr):
            return "exp(1)"

        def _print_Abs(self, expr):
            # sqrt(u^2) parses back to Abs(u) for real u
            base = self.parenthesize(expr.args[0], PRECEDENCE["Pow"], strict=True)
            return f"sqrt({base}^2)"

        def _print_Pow(self, expr, rational=False):
            # the grammar has only integer exponents: b^(k/2^j) prints as
            # sqrt applied j times, then ^|k|, under 1/ when k < 0
            exp = expr.exp
            if exp.is_Rational and not exp.is_Integer and exp.q & (exp.q - 1) == 0:
                text = self._print(expr.base)
                for _ in range(exp.q.bit_length() - 1):
                    text = f"sqrt({text})"
                if abs(exp.p) != 1:
                    text = f"{text}^{abs(exp.p)}"
                return text if exp.p > 0 else f"1/{text}"
            text = super()._print_Pow(expr, rational=rational)
            return text.replace("**", "^")

    return _ScalarPrinter()


def print_scalar(s: Scalar) -> str:
    """The text of a Scalar: a pair's by ``_poly.print_pair``, which prints
    what the tree printer prints for the pair's normal form tree."""
    if s.pair is not None:
        return _poly.print_pair(s.pair[0], s.pair[1], s.chart._gens)
    return _tree_printer().doprint(s.norm_expr)
