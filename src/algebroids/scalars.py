"""Symbolic scalars over a coordinate chart.

Every tensor component in this package is a ``Scalar``: an immutable value
over the coordinates of a single chart, with exact complex-rational
constants.  The decidable fragment is the field of rational functions in
the coordinates and in opaque transcendental atoms (sin, cos, exp, log,
sqrt applied to subexpressions); within that fragment the normal form
(``norm_expr``) is a canonical reduced quotient of polynomials, so
structural zero testing is exact.  Outside the fragment (e.g. the identity
sin^2 + cos^2 = 1) a zero can only be seen at random rational points.

A Scalar built from coordinates, rationals, ``I``, ``+``, ``*`` and
integer powers alone holds its value as a pair (re, im) over the field of
the chart's coordinates, ZZ(coordinates), with constants in QQ, reduced
when it is built, so equal values are equal pairs.  A tree is built only
to print, for ``eval`` and ``on_chart``, and to hash, as the tree sympy's
``cancel(together(e))`` returns.  An expression with an atom, or with a
vanishing denominator, stays the sympy tree it was built as; its normal
form, sympy's own ``cancel(together(e))``, is taken when it is read (zero
test, ``==``, hash, print).  No caller normalises: the tree route takes
its operands' normal forms only where a printed tree depends on it (a
tree divided by a tree).

``ScalarMatrix`` is the package's exact linear algebra: one Gauss-Jordan
elimination in Scalar arithmetic gives ``det``, ``inverse`` and ``rank``.

Expressions are backed by sympy; the grammar, printer and normal form are
pinned here so the text format is independent of sympy's own parser.  This
is the only module that imports sympy: the rest of the package works through
``Scalar``, ``ScalarMatrix`` and the constant ``i``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Mapping, Optional, Union

import sympy as sp
from sympy.core.exprtools import decompose_power
from sympy.polys.domains import QQ, ZZ, ZZ_I
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens
from sympy.printing.precedence import PRECEDENCE
from sympy.printing.str import StrPrinter

__all__ = [
    "ChartError",
    "ParseError",
    "PoleError",
    "ComplexRational",
    "Chart",
    "Scalar",
    "ScalarMatrix",
    "i",
    "parse_scalar",
    "random_point",
    "nonzero_entries",
]

KNOWN_FUNCTIONS = {
    "sin": sp.sin,
    "cos": sp.cos,
    "exp": sp.exp,
    "log": sp.log,
    "sqrt": sp.sqrt,
    "tan": sp.tan,
    "sinh": sp.sinh,
    "cosh": sp.cosh,
    "tanh": sp.tanh,
    "atan": sp.atan,
    "asin": sp.asin,
    "acos": sp.acos,
}

DEFAULT_SAMPLES = 8
DEFAULT_SEED = 42
FLOAT_TOLERANCE = 1e-9
# numerators/denominators of sampled rational points
SAMPLE_BOUND = 97


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
    def from_sympy(value: sp.Expr) -> "ComplexRational":
        value = sp.nsimplify(value, rational=True)
        re, im = value.as_real_imag()
        if not (re.is_Rational and im.is_Rational):
            raise ValueError(f"not a complex rational: {value}")
        return ComplexRational(Fraction(re.p, re.q), Fraction(im.p, im.q))

    def to_sympy(self) -> sp.Expr:
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


class Chart:
    """Named chart with an ordered tuple of real coordinate symbols.

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
        self.coords = tuple(sp.Symbol(c, real=True) for c in names)
        self._by_name = {c.name: c for c in self.coords}
        self._coord_set = frozenset(self.coords)
        self._field = _field(self._coord_set)
        # shared by every caller; a Scalar is immutable
        self.zero = Scalar(self, _ZERO)
        self.one = Scalar(self, _ONE)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def coord(self, name: str) -> sp.Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise ChartError(f"chart {self.name!r} has no coordinate {name!r}")

    def scalar(self, value) -> "Scalar":
        """Coerce a string, number or sympy expression to a Scalar on this chart."""
        if isinstance(value, Scalar):
            if value.chart is not self:
                raise ChartError("scalar belongs to a different chart")
            return value
        if isinstance(value, str):
            return parse_scalar(value, self)
        if isinstance(value, ComplexRational):
            return Scalar(self, (QQ(value.re.numerator, value.re.denominator),
                                 QQ(value.im.numerator, value.im.denominator)))
        if isinstance(value, (int, Fraction)):
            return Scalar(self, (QQ(value.numerator, value.denominator), _Q0))
        if isinstance(value, sp.Expr):
            return Scalar(self, _on_chart(self, value))
        raise TypeError(f"cannot coerce {value!r} to Scalar")

    def __repr__(self):
        return f"Chart({self.name!r}, {[c.name for c in self.coords]})"


def _on_chart(chart: Chart, expr: sp.Expr) -> sp.Expr:
    """``expr`` itself, once every symbol in it is a coordinate of ``chart``."""
    bad = expr.free_symbols - set(chart.coords)
    if bad:
        raise ChartError(
            f"symbols {sorted(s.name for s in bad)} not in chart {chart.name!r}"
        )
    return expr


def _canonical(expr: sp.Expr, entry: Optional[tuple] = None) -> sp.Expr:
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


# per set of coordinates (and atoms, for the zero test): the field the pairs
# live in, its generator of each, and the memo of the pairs of the tree
# nodes walked in it.
# With coordinates the field is ZZ(coordinates), in lex order over sympy's
# generator order as in the ring `cancel` works in (so the sign of a
# denominator is fixed the same way); a constant is never an element of
# it but of QQ, so a chart with no coordinate has no field.  A memo that
# reaches _MEMO_NODES nodes is emptied, which bounds its memory.
_FIELDS: dict = {}
_MEMO_NODES = 1 << 12


def _field(symbols: frozenset) -> tuple:
    entry = _FIELDS.get(symbols)
    if entry is None:
        field = FracField(_sort_gens(symbols), ZZ, lex) if symbols else None
        gens = dict(zip(field.symbols, field.gens)) if symbols else {}
        entry = _FIELDS[symbols] = (field, gens, {})
    return entry


# Elements of a pair are constants, sympy's QQ elements, or non-constant
# elements of the field, each reduced with a denominator of positive
# leading coefficient.  So equal values are equal pairs.
_MPQ = type(QQ.one)
_Q0 = QQ.zero
# the pair of every exact zero: a zero Scalar is found by identity
_ZERO = (_Q0, _Q0)
_ONE = (QQ.one, _Q0)
_I = (_Q0, QQ.one)


class _NotRational(Exception):
    """The walk met an atom."""


_UNWALKED = object()


def _to_pair(expr: sp.Expr, entry: tuple) -> Optional[tuple]:
    """The pair of ``expr``, or None when it has an atom that is not a
    generator of the field, or a vanishing denominator.  The coordinates
    are real, so ``I`` never enters the field."""
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
                pair = (QQ(node.p, node.q), _Q0)
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


def _generators(expr: sp.Expr) -> Optional[frozenset]:
    """The coordinates of ``expr`` outside its atoms and the generator of
    each atom, as sympy's polys take them (exp(2*x) is exp(x)^2); None
    when an atom is a number such as sin(1), which sympy's ``cancel``
    takes as a coefficient instead."""
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
            out.add(decompose_power(node)[0])
    return frozenset(out)


def _emit(pair: tuple, field) -> sp.Expr:
    """The tree ``cancel(together(e))`` gives for the value of ``pair``,
    with a constant as ``Rational(a) + Rational(b)*I``."""
    re, im = pair
    if re.__class__ is _MPQ and im.__class__ is _MPQ:
        return QQ.to_sympy(re) + QQ.to_sympy(im) * sp.I
    re, im = _lift(re, field), _lift(im, field)
    if not im:
        p, q = re.numer, re.denom
    else:
        # re + i*im over the lcm of the denominators, then one cancel in
        # ZZ_I[coordinates], the final step of sympy's own cancel
        _, re_only, im_only = re.denom.cofactors(im.denom)
        gaussian = field.ring.clone(domain=ZZ_I)
        p, q = ((re.numer * im_only).set_ring(gaussian)
                + (im.numer * re_only).set_ring(gaussian)
                .mul_ground(ZZ_I(0, 1))
                ).cancel((re.denom * im_only).set_ring(gaussian))
    return p.as_expr() / q.as_expr()


def _lift(c, field):
    """An element as an element of ``field``."""
    if c.__class__ is not _MPQ:
        return c
    ring = field.ring
    return field.raw_new(ring(c.numerator), ring(c.denominator))


def _ground(f):
    """A field element, as a constant when it is one."""
    p, q = f.numer, f.denom
    if p.is_ground and q.is_ground:
        return QQ(p.LC, q.LC)
    return f


# A constant operand goes to the right of a field element, whose own +
# handles a zero and reduces the sum by its cancel.  A constant c = n/d and
# a reduced p/q share no polynomial factor, so c*p/q is reduced by integer
# contents alone, without the cancel.

def _add(a, b):
    if a.__class__ is _MPQ:
        if b.__class__ is _MPQ:
            return a + b
        a, b = b, a
    return _ground(a + b)


def _scale(f, c):
    """f*c for a non-constant f and a nonzero constant c."""
    n, d = c.numerator, c.denominator
    p, q = f.numer, f.denom
    if n != 1:
        g = math.gcd(n, q.content())
        if g != 1:
            n, q = n // g, q.quo_ground(g)
        p = p.mul_ground(n)
    if d != 1:
        g = math.gcd(d, p.content())
        if g != 1:
            d, p = d // g, p.quo_ground(g)
        q = q.mul_ground(d)
    return f.raw_new(p, q)


def _mul(a, b):
    if a.__class__ is _MPQ:
        if b.__class__ is _MPQ:
            return a * b
        return _scale(b, a) if a else a
    if b.__class__ is _MPQ:
        return _scale(a, b) if b else b
    return _ground(a * b)


def _inv(a):
    """1/a; ZeroDivisionError for zero."""
    if a.__class__ is _MPQ:
        return QQ.one / a
    p, q = a.numer, a.denom
    return a.raw_new(q, p) if p.LC > 0 else a.raw_new(-q, -p)


def _deriv(a, x):
    """da/dx for the field generator x: the field's quotient rule."""
    if a.__class__ is _MPQ:
        return _Q0
    return _ground(a.diff(x))


def _plus(u: tuple, v: tuple) -> tuple:
    return (_add(u[0], v[0]), _add(u[1], v[1]))


def _times(u: tuple, v: tuple) -> tuple:
    (a, b), (c, d) = u, v
    if not b:
        return (_mul(a, c), _mul(a, d) if d else d)
    if not d:
        return (_mul(a, c), _mul(b, c))
    return (_add(_mul(a, c), -_mul(b, d)), _add(_mul(a, d), _mul(b, c)))


def _power(u: tuple, n: int) -> tuple:
    """u^n for n != 0; ZeroDivisionError for zero to a negative power."""
    a, b = u
    if n < 0:
        if not b:
            return (_inv(a) ** -n, b)
        norm = _inv(_add(_mul(a, a), _mul(b, b)))  # a sum of squares
        a, b, n = _mul(a, norm), _mul(-b, norm), -n
    if not b:
        return (a ** n, b)
    return functools.reduce(_times, [(a, b)] * n)


class Scalar:
    """Immutable symbolic scalar over a chart's coordinates.

    A scalar of the rational core holds its value as ``pair``, (re, im)
    over the chart's field, where arithmetic and ``diff`` are exact and
    every result is reduced; its tree is built only on demand
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
            pair = _to_pair(value, chart._field)
            if pair is None:
                tree = value
        if pair is not None and not (pair[0] or pair[1]):
            pair = _ZERO
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "_tree", tree)
        object.__setattr__(self, "_norm", None)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def expr(self) -> sp.Expr:
        """The tree: the one held when there is no pair, else the normal
        form's."""
        tree = self._tree
        return self.norm_expr if tree is None else tree

    # -- canonical form -------------------------------------------------

    @property
    def norm_expr(self) -> sp.Expr:
        cached = object.__getattribute__(self, "_norm")
        if cached is None:
            if self.pair is None:
                cached = _canonical(self._tree, self.chart._field)
            else:
                cached = _emit(self.pair, self.chart._field[0])
            object.__setattr__(self, "_norm", cached)
        return cached

    def is_structurally_zero(self) -> bool:
        if self.pair is None:
            return self.norm_expr == 0
        return self.pair is _ZERO

    def is_constant(self) -> bool:
        return not self.norm_expr.free_symbols

    def is_rational_function(self) -> bool:
        """True when the normal form has no transcendental or algebraic atom."""
        return (self.pair is not None
                or _to_pair(self.norm_expr, self.chart._field) is not None)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        return self.chart.scalar(other)

    # a zero operand returns the other operand (sum) or itself (product).
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
        return Scalar(self.chart, (-u[0], -u[1]))

    def __sub__(self, other):
        if other.__class__ is not Scalar or other.chart is not self.chart:
            other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not Scalar or other.chart is not self.chart:
            other = self._coerce(other)
        u, v = self.pair, other.pair
        if u is _ZERO:
            return self
        if v is _ZERO:
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

    def diff(self, coord: Union[str, sp.Symbol]) -> "Scalar":
        sym = self.chart.coord(coord) if isinstance(coord, str) else coord
        if sym not in self.chart._coord_set:
            raise ChartError(f"{sym} is not a coordinate of chart {self.chart.name!r}")
        if self.pair is None:
            if sym not in self._tree.free_symbols:
                return self.chart.zero
            return Scalar(self.chart, sp.diff(self._tree, sym))
        re, im = self.pair
        if re.__class__ is _MPQ and im.__class__ is _MPQ:
            return self.chart.zero
        x = self.chart._field[1][sym]
        return Scalar(self.chart, (_deriv(re, x), _deriv(im, x)))

    def on_chart(self, chart: Chart, rename: Optional[Mapping] = None) -> "Scalar":
        """The same expression on another chart, which must contain its
        coordinates once ``rename`` (coordinate -> coordinate of ``chart``)
        is applied."""
        expr = self.expr
        if rename is not None:
            expr = expr.subs(rename, simultaneous=True)
        return Scalar(chart, _on_chart(chart, expr))

    def conjugate(self) -> "Scalar":
        # coordinates are real symbols, so only the constants flip
        u = self.pair
        if u is None:
            return Scalar(self.chart, sp.conjugate(self._tree))
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
        """Evaluate at a point (coordinate name or symbol -> value).

        Rational expressions evaluate exactly to a ComplexRational;
        transcendental atoms force a floating complex result.
        """
        expr = self.expr
        subs = {}
        for key, val in point.items():
            sym = self.chart.coord(key) if isinstance(key, str) else key
            subs[sym] = (val.to_sympy() if isinstance(val, ComplexRational)
                         else sp.sympify(val))
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
            return self.norm_expr == other.norm_expr
        return self.pair == other.pair

    def __hash__(self):
        return hash((id(self.chart), self.norm_expr))

    def __str__(self):
        return print_scalar(self)

    def __repr__(self):
        return f"Scalar({print_scalar(self)!r})"


class ScalarMatrix:
    """Matrix of Scalars on one chart with exact linear algebra.

    Products are Scalar arithmetic, and so is the one Gauss-Jordan
    elimination of [M | I], cached per matrix, that ``det``, ``inverse``
    and ``rank`` read.  It pivots structurally: on the first entry of a
    column whose normal form is not zero.
    """

    def __init__(self, chart: Chart, rows: Iterable[Iterable]):
        self.chart = chart
        self._rows = tuple(tuple(chart.scalar(e) for e in row) for row in rows)

    def rows(self) -> tuple:
        """The entries, as a tuple of rows of Scalars."""
        return self._rows

    @functools.cached_property
    def _eliminated(self) -> tuple:
        """(det, rank, rows of the reduced [M | I]); det is read only for
        a square M, and is zero when M is singular."""
        zero, one = self.chart.zero, self.chart.one
        n = len(self._rows)
        width = len(self._rows[0]) if n else 0
        rows = [list(row) + [one if c == r else zero for c in range(n)]
                for r, row in enumerate(self._rows)]
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
        n = len(self._rows)
        if any(len(row) != n for row in self._rows):
            raise ValueError("matrix is not square")
        return n

    def det(self) -> Scalar:
        self._square()
        return self._eliminated[0]

    def inverse(self) -> "ScalarMatrix":
        n = self._square()
        _, rank, rows = self._eliminated
        if rank < n:
            raise ZeroDivisionError(
                "inverse of a structurally singular matrix")
        return ScalarMatrix(self.chart, [row[n:] for row in rows])

    def rank(self) -> int:
        return self._eliminated[1]

    def _dot(self, row, col) -> Scalar:
        return sum((a * b for a, b in zip(row, col)), self.chart.zero)

    def __matmul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        cols = list(zip(*other._rows))
        return ScalarMatrix(self.chart, [[self._dot(row, col) for col in cols]
                                         for row in self._rows])

    def apply(self, vector: Iterable) -> List[Scalar]:
        """The matrix times a column of Scalars."""
        col = [self.chart.scalar(c) for c in vector]
        return [self._dot(row, col) for row in self._rows]


def nonzero_entries(scalars: Iterable[Scalar]):
    """The (index, scalar) pairs of ``scalars`` that are not an exact zero.

    Tensor kernels sum over these only.  Every zero of the rational core,
    such as ``(x1+1)^2 - x1^2 - 2*x1 - 1``, holds the shared zero pair, so
    one identity test finds it, and a skipped term adds nothing.  A tree
    with an atom that only its normal form shows to be zero is kept.
    """
    for index, s in enumerate(scalars):
        if s.pair is not _ZERO:
            yield index, s


# ---------------------------------------------------------------------------
# zero testing


def random_point(chart: Chart, rng: random.Random) -> dict:
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
            value = s.eval(random_point(s.chart, rng))
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


class _Parser:
    """Recursive descent parser for the expression grammar.

    Precedence (low to high): + - ; * / ; unary - ; ^ (right associative).
    """

    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.index = 0

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

    def parse(self) -> sp.Expr:
        expr = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return expr

    def sum(self) -> sp.Expr:
        expr = self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.product()
            expr = expr + rhs if op == "+" else expr - rhs
        return expr

    def product(self) -> sp.Expr:
        expr = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs = self.unary()
            if op == "*":
                expr = expr * rhs
            else:
                if _canonical(rhs, self.chart._field) == 0:
                    raise ParseError("division by structurally zero expression", pos)
                expr = expr / rhs
        return expr

    def unary(self) -> sp.Expr:
        if self.peek()[0] == "-":
            self.advance()
            return -self.unary()
        if self.peek()[0] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> sp.Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.advance()
            exponent = self.unary_power()
            exponent = _canonical(exponent, self.chart._field)
            if not exponent.is_Integer:
                raise ParseError("exponent must be an integer constant", pos)
            if exponent < 0 and _canonical(base, self.chart._field) == 0:
                raise ParseError("division by structurally zero expression", pos)
            return base ** exponent
        return base

    def unary_power(self) -> sp.Expr:
        # exponent position: allow a leading sign, then a power (right assoc)
        if self.peek()[0] == "-":
            self.advance()
            return -self.unary_power()
        return self.power()

    def atom(self) -> sp.Expr:
        kind, value, pos = self.advance()
        if kind == "int":
            return sp.Integer(int(value))
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
                return KNOWN_FUNCTIONS[value](arg)
            if value == "i":
                return sp.I
            try:
                return self.chart.coord(value)
            except ChartError:
                raise ParseError(f"unknown identifier {value!r}", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_scalar(text: str, chart: Chart) -> Scalar:
    """Parse the expression grammar into a Scalar: a reduced pair, or the
    tree as parsed, whose normal form is taken when it is read."""
    expr = _Parser(text, chart).parse()
    if expr.has(sp.zoo, sp.nan):
        raise ParseError("expression contains division by zero", 0)
    return Scalar(chart, expr)


# ---------------------------------------------------------------------------
# printer


class _ScalarPrinter(StrPrinter):
    """Deterministic printer emitting the package grammar (^ for powers)."""

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


_PRINTER = _ScalarPrinter()


def print_scalar(s: Scalar) -> str:
    return _PRINTER.doprint(s.norm_expr)
