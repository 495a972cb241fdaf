"""Symbolic scalars over a coordinate chart.

Every tensor component in this package is a ``Scalar``: an immutable
expression tree over the coordinates of a single chart, with exact
complex-rational constants.  The decidable fragment is the field of
rational functions in the coordinates and in opaque transcendental atoms
(sin, cos, exp, log, sqrt applied to subexpressions); within that fragment
``normalize`` produces a canonical reduced quotient of polynomials, so
structural zero testing is exact.  Outside the fragment (e.g. the identity
sin^2 + cos^2 = 1) zero testing falls back to randomized rational-point
evaluation and reports a probabilistic status.

An expression built from coordinates, rationals, ``I``, ``+``, ``*`` and
integer powers alone takes one route: one walk into a pair (re, im) over
the field of its coordinates, ZZ(coordinates), or QQ when it has none.  A
value with no coordinate is emitted as a + b*I; any other value is brought
back, by one cancel in ZZ_I[coordinates], to the tree sympy's
``cancel(together(e))`` returns.  An expression with a transcendental or
algebraic atom, or with a vanishing denominator, falls back to sympy's own
``cancel(together(e))``.

Expressions are backed by sympy; the grammar, printer and normal form are
pinned here so the text format is independent of sympy's own parser.  This
is the only module that imports sympy: the rest of the package works through
``Scalar``, ``ScalarMatrix`` (exact linear algebra) and the constant ``i``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Mapping, Optional, Union

import sympy as sp
from sympy.polys.domains import QQ, ZZ, ZZ_I
from sympy.polys.fields import FracField
from sympy.polys.matrices import DomainMatrix
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
    "ZeroStatus",
    "i",
    "parse_scalar",
    "is_zero",
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
        # shared by every caller; a Scalar is immutable, and the shared
        # zero computes its normal form once
        self.zero = Scalar(self, sp.S.Zero)
        self.one = Scalar(self, sp.S.One)

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
            return Scalar(self, value.to_sympy())
        if isinstance(value, (int, Fraction)):
            return Scalar(self, sp.Rational(value))
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


def _canonical(expr: sp.Expr) -> sp.Expr:
    """Canonical form: reduced quotient of expanded polynomials.

    Coordinates and each distinct transcendental atom are independent
    generators, so two expressions equal as rational functions in those
    generators canonicalize to identical trees.

    An expression of the rational core (coordinates, rationals, ``I``,
    ``+``, ``*`` and integer powers) takes one route: it is walked into a
    pair (re, im) over the field of its coordinates, ZZ(coordinates) or QQ
    when it has none, where each operation is reduced by one GCD.  A value
    with no coordinate is emitted as ``Rational(a) + Rational(b)*I``, any
    other value as the tree ``sp.cancel(sp.together(expr))`` returns.  A
    Gaussian literal is that emitted tree already, so it is not walked.
    An expression with an atom (sin, sqrt, exp, ...) or with a vanishing
    denominator takes sympy's own ``cancel(together(expr))``.
    """
    symbols = _field_symbols(expr)
    if symbols is not None:
        if not symbols and _is_gaussian_literal(expr):
            return expr
        try:
            return _field_normal_form(expr, symbols)
        except ZeroDivisionError:  # sympy's route gives zoo
            pass
    return sp.cancel(sp.together(expr))


def _field_symbols(expr: sp.Expr) -> Optional[frozenset]:
    """The coordinates of ``expr``, or None when ``expr`` has an atom."""
    symbols, seen, stack = set(), set(), [expr]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.is_Symbol:
            symbols.add(node)
        elif node.is_Add or node.is_Mul:
            stack.extend(node.args)
        elif node.is_Pow and node.exp.is_Integer:
            stack.append(node.base)
        elif not (node.is_Rational or node is sp.I):
            return None
    return frozenset(symbols)


def _is_imaginary(expr: sp.Expr) -> bool:
    return expr is sp.I or (expr.is_Mul and expr.args[-1] is sp.I
                            and all(a.is_Rational for a in expr.args[:-1]))


def _is_gaussian_literal(expr: sp.Expr) -> bool:
    """q, I, q*I or p + q*I: the shapes sympy's arithmetic leaves."""
    if expr.is_Add:
        return (len(expr.args) == 2 and expr.args[0].is_Rational
                and _is_imaginary(expr.args[1]))
    return expr.is_Rational or _is_imaginary(expr)


# per set of coordinates: the field the walk works in, and the memo of the
# (re, im) pairs of the nodes walked in it.  With coordinates the field is
# ZZ(coordinates), in lex order over sympy's generator order as in the
# ring `cancel` works in (so the sign of a denominator is fixed the same
# way); with none it is QQ.  Scalar trees are built from the trees of
# earlier Scalars, so most of a tree's nodes were walked before.  A memo
# that reaches _MEMO_NODES nodes is emptied, which bounds its memory.
_FIELDS: dict = {}
_MEMO_NODES = 1 << 12


def _field(symbols: frozenset) -> tuple:
    entry = _FIELDS.get(symbols)
    if entry is None:
        field = FracField(_sort_gens(symbols), ZZ, lex) if symbols else QQ
        entry = _FIELDS[symbols] = (field, {})
    elif len(entry[1]) >= _MEMO_NODES:
        entry[1].clear()
    return entry


def _field_normal_form(expr: sp.Expr, symbols: frozenset) -> sp.Expr:
    """``expr`` as re + i*im over the field of ``symbols``, back to a tree.

    The coordinates are real, so ``I`` never enters the field.  Raises
    ZeroDivisionError when a denominator vanishes.
    """
    field, memo = _field(symbols)
    zero = field.zero
    gen, rational = {}, QQ
    if symbols:
        gen, ring = dict(zip(field.symbols, field.gens)), field.ring

        def rational(p, q):
            return field.raw_new(ring(p), ring(q))

    def walk(node):
        pair = memo.get(node)
        if pair is None:
            if node.is_Symbol:
                pair = (gen[node], zero)
            elif node.is_Rational:
                pair = (rational(node.p, node.q), zero)
            elif node is sp.I:
                pair = (zero, field.one)
            elif node.is_Add:
                pair = functools.reduce(_plus, map(walk, node.args))
            elif node.is_Mul:
                pair = functools.reduce(_times, map(walk, node.args))
            else:
                pair = _power(walk(node.base), int(node.exp))
            memo[node] = pair
        return pair

    re, im = walk(expr)
    if symbols:
        if not all(c.is_ground for c in (re.numer, re.denom,
                                         im.numer, im.denom)):
            return _quotient(re, im)
        re, im = (QQ(c.numer.LC, c.denom.LC) for c in (re, im))
    return QQ.to_sympy(re) + QQ.to_sympy(im) * sp.I


def _quotient(re, im) -> sp.Expr:
    """The tree ``cancel`` gives for re + i*im over ZZ(coordinates)."""
    if not im:
        p, q = re.numer, re.denom
        if q.LC < 0:  # left by a reciprocal, which does not cancel
            p, q = -p, -q
    else:
        # re + i*im over the lcm of the denominators, then one cancel in
        # ZZ_I[coordinates], the final step of sympy's own cancel
        _, re_only, im_only = re.denom.cofactors(im.denom)
        gaussian = re.field.ring.clone(domain=ZZ_I)
        p, q = ((re.numer * im_only).set_ring(gaussian)
                + (im.numer * re_only).set_ring(gaussian)
                .mul_ground(ZZ_I(0, 1))
                ).cancel((re.denom * im_only).set_ring(gaussian))
    return p.as_expr() / q.as_expr()


def _plus(u: tuple, v: tuple) -> tuple:
    return (u[0] + v[0], u[1] + v[1])


def _times(u: tuple, v: tuple) -> tuple:
    (a, b), (c, d) = u, v
    if not b:
        return (a * c, a * d if d else d)
    if not d:
        return (a * c, b * c)
    return (a * c - b * d, a * d + b * c)


def _power(u: tuple, n: int) -> tuple:
    a, b = u
    if not b:
        return (a ** n, b)  # ZeroDivisionError for zero to a negative power
    if n < 0:
        norm = a * a + b * b  # nonzero: a sum of squares in the field
        a, b, n = a / norm, -b / norm, -n
    return functools.reduce(_times, [(a, b)] * n)


class Scalar:
    """Immutable symbolic expression over a chart's coordinates.

    ``Scalar(chart, expr)`` trusts ``expr``: it must be a sympy expression
    whose symbols are coordinates of ``chart``, and it is stored unchecked.
    Arithmetic, ``diff``, ``conjugate``, ``normalize`` and ``ScalarMatrix``
    results satisfy this by construction.  An expression from outside
    enters through ``Chart.scalar`` or ``on_chart``, which check it.
    """

    __slots__ = ("chart", "expr", "_norm")

    def __init__(self, chart: Chart, expr: sp.Expr):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "_norm", None)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- canonical form -------------------------------------------------

    def normalize(self) -> "Scalar":
        norm = self.norm_expr
        if self.expr is norm:
            return self
        out = Scalar(self.chart, norm)
        # the canonical form is idempotent (the rational core has one
        # route, and its output walks back to itself), so the result is
        # its own normal form
        object.__setattr__(out, "_norm", norm)
        return out

    @property
    def norm_expr(self) -> sp.Expr:
        cached = object.__getattribute__(self, "_norm")
        if cached is None:
            cached = _canonical(self.expr)
            object.__setattr__(self, "_norm", cached)
        return cached

    def is_structurally_zero(self) -> bool:
        return self.norm_expr == 0

    def is_constant(self) -> bool:
        return not self.norm_expr.free_symbols

    def is_rational_function(self) -> bool:
        """True when the normal form has no transcendental or algebraic atom."""
        return _field_symbols(self.norm_expr) is not None

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        return self.chart.scalar(other)

    # a zero operand returns the other operand (sum) or itself (product):
    # exactly the tree sympy would build, for the finite expressions a
    # Scalar holds, without a pass over the other operand's tree.  An
    # operand that is a Scalar of this chart needs no coercion.

    def __add__(self, other):
        if other.__class__ is not Scalar or other.chart is not self.chart:
            other = self._coerce(other)
        if other.expr is sp.S.Zero:
            return self
        if self.expr is sp.S.Zero:
            return other
        return Scalar(self.chart, self.expr + other.expr)

    __radd__ = __add__

    def __neg__(self):
        if self.expr is sp.S.Zero:
            return self
        return Scalar(self.chart, -self.expr)

    def __sub__(self, other):
        if other.__class__ is not Scalar or other.chart is not self.chart:
            other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not Scalar or other.chart is not self.chart:
            other = self._coerce(other)
        if self.expr is sp.S.Zero:
            return self
        if other.expr is sp.S.Zero:
            return other
        return Scalar(self.chart, self.expr * other.expr)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_structurally_zero():
            raise ZeroDivisionError("division by structurally zero scalar")
        return Scalar(self.chart, self.expr / other.expr)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("only integer exponents are supported")
        if exponent < 0 and self.is_structurally_zero():
            raise ZeroDivisionError("division by structurally zero scalar")
        return Scalar(self.chart, self.expr ** exponent)

    # -- calculus --------------------------------------------------------

    def diff(self, coord: Union[str, sp.Symbol]) -> "Scalar":
        sym = self.chart.coord(coord) if isinstance(coord, str) else coord
        if sym not in self.chart._coord_set:
            raise ChartError(f"{sym} is not a coordinate of chart {self.chart.name!r}")
        if self.expr.is_Number or sym not in self.expr.free_symbols:
            return self.chart.zero
        return Scalar(self.chart, sp.diff(self.expr, sym))

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
        if self.expr is sp.S.Zero:
            return self
        return Scalar(self.chart, sp.conjugate(self.expr))

    def real_part(self) -> "Scalar":
        return (self + self.conjugate()) / 2

    def imag_part(self) -> "Scalar":
        return (self - self.conjugate()) / (2 * sp.I)

    # -- evaluation -------------------------------------------------------

    def eval(self, point: Mapping) -> Union[ComplexRational, complex]:
        """Evaluate at a point (coordinate name or symbol -> value).

        Rational expressions evaluate exactly to a ComplexRational;
        transcendental atoms force a floating complex result.
        """
        subs = {}
        for key, val in point.items():
            sym = self.chart.coord(key) if isinstance(key, str) else key
            subs[sym] = (val.to_sympy() if isinstance(val, ComplexRational)
                         else sp.sympify(val))
        missing = self.expr.free_symbols - set(subs)
        if missing:
            raise ChartError(
                f"point does not cover coordinates {sorted(s.name for s in missing)}"
            )
        value = self.expr.subs(subs, simultaneous=True)
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
        return self.chart is other.chart and self.norm_expr == other.norm_expr

    def __hash__(self):
        return hash((id(self.chart), self.norm_expr))

    def __str__(self):
        return print_scalar(self)

    def __repr__(self):
        return f"Scalar({print_scalar(self)!r})"


class ScalarMatrix:
    """Matrix of Scalars on one chart with exact linear algebra.

    Entries enter in normal form and every result entry is brought back to
    normal form.  ``rank`` pivots structurally: an entry is zero exactly
    when its normal form is.
    """

    def __init__(self, chart: Chart, rows: Iterable[Iterable]):
        self.chart = chart
        self._m = sp.Matrix([[chart.scalar(e).norm_expr for e in row]
                             for row in rows])

    def _normalized(self, matrix) -> "ScalarMatrix":
        out = ScalarMatrix(self.chart, [])
        out._m = matrix.applyfunc(_canonical)
        return out

    def rows(self) -> tuple:
        """The entries, as a tuple of rows of Scalars."""
        return tuple(tuple(Scalar(self.chart, e) for e in self._m.row(r))
                     for r in range(self._m.rows))

    @functools.cached_property
    def _over_field(self) -> Optional[DomainMatrix]:
        # the entries over the fraction field of the polynomial ring that
        # sympy picks for them (e.g. QQ(x1, x2)), where elimination is exact
        # arithmetic on reduced quotients instead of on trees; converted
        # once for both det and inverse.  None when no such field holds
        # them (an atom like sqrt(x1) is not independent of x1): there the
        # normal form is not canonical, so sympy's own det/inv keep the
        # trees they have always given (the field route prints a
        # different, equal inverse of [[x1, x1], [x1, sqrt(x1)]]).
        m = DomainMatrix.from_Matrix(self._m, field=True)
        return None if m.domain.is_EX else m

    def det(self) -> Scalar:
        m = self._over_field
        det = self._m.det() if m is None else m.domain.to_sympy(m.det())
        return Scalar(self.chart, _canonical(det))

    def inverse(self) -> "ScalarMatrix":
        m = self._over_field
        return self._normalized(self._m.inv() if m is None
                                else m.inv().to_Matrix())

    def rank(self) -> int:
        return self._m.rank(iszerofunc=lambda e: _canonical(e) == 0)

    def __matmul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        return self._normalized(self._m * other._m)

    def apply(self, vector: Iterable) -> List[Scalar]:
        """The matrix times a column of Scalars."""
        col = ScalarMatrix(self.chart, [[c] for c in vector])
        return [row[0] for row in (self @ col).rows()]


def nonzero_entries(scalars: Iterable[Scalar]):
    """The (index, scalar) pairs of ``scalars`` whose tree is not the
    literal 0.

    Tensor kernels sum over these only.  A skipped term has a literal-zero
    factor, so the Scalar arithmetic would have made it the literal 0 and
    added nothing; a zero that is not literal, such as
    ``(x1+1)^2 - x1^2 - 2*x1 - 1``, is kept, and so is every tree built
    from it.
    """
    for index, s in enumerate(scalars):
        if s.expr is not sp.S.Zero:
            yield index, s


# ---------------------------------------------------------------------------
# zero testing


@dataclass(frozen=True)
class ZeroStatus:
    """Outcome of a zero test.

    ``structurally_zero`` is definitive.  Otherwise the scalar was sampled
    at random rational points: a ``witness`` point with a value above
    tolerance proves it nonzero, while ``all_samples_zero`` flags a likely
    identity outside the decidable fragment.
    """

    structurally_zero: bool
    witness: Union[dict, None] = None
    witness_value: Union[complex, None] = None
    all_samples_zero: bool = False

    def __bool__(self):
        return self.structurally_zero


def random_point(chart: Chart, rng: random.Random) -> dict:
    """Random rational point with coordinates p/q, |p|,|q| <= SAMPLE_BOUND."""
    point = {}
    for c in chart.coords:
        num = rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)
        den = rng.randint(1, SAMPLE_BOUND)
        point[c] = ComplexRational.of(Fraction(num, den))
    return point


def is_zero(s: Scalar) -> ZeroStatus:
    """Structural zero test with a randomized numeric fallback: up to
    DEFAULT_SAMPLES points off the poles, drawn with DEFAULT_SEED."""
    if s.is_structurally_zero():
        return ZeroStatus(structurally_zero=True)
    rng = random.Random(DEFAULT_SEED)
    max_attempts = DEFAULT_SAMPLES * 4
    tested = 0
    attempt = 0
    while tested < DEFAULT_SAMPLES and attempt < max_attempts:
        attempt += 1
        point = random_point(s.chart, rng)
        try:
            value = s.eval(point)
        except PoleError:
            continue
        tested += 1
        magnitude = abs(complex(value))
        if magnitude > FLOAT_TOLERANCE:
            return ZeroStatus(
                structurally_zero=False,
                witness={k.name: v for k, v in point.items()},
                witness_value=complex(value),
            )
        # keep sampling; value is (numerically) zero here
    if tested == 0:
        raise PoleError("every sampled point hit a pole; cannot test for zero")
    return ZeroStatus(structurally_zero=False, all_samples_zero=True)


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
                if _canonical(rhs) == 0:
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
            exponent = _canonical(exponent)
            if not exponent.is_Integer:
                raise ParseError("exponent must be an integer constant", pos)
            if exponent < 0 and _canonical(base) == 0:
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
    """Parse the expression grammar into a normalized Scalar."""
    expr = _Parser(text, chart).parse()
    if expr.has(sp.zoo, sp.nan):
        raise ParseError("expression contains division by zero", 0)
    return Scalar(chart, _canonical(expr))


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
