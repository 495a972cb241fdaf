"""Sparse polynomials over ZZ and ZZ[i], reduced quotients of them, and the
printer of the rational core; stdlib only.

A polynomial is a dict from exponent tuples, one entry per generator in the
field's generator order, to nonzero coefficients: ``int``, or ``Gaussian``
for the one cancel that prints a non-real value.  Monomials compare in lex
order as tuples, so the leading monomial is the dict's largest key.

The gcd is a port of sympy's sparse heuristic gcd (Char, Geddes & Gonnet,
J. Symb. Comput. 7, 1989) with its evaluation points, so a quotient reduces
as in sympy's ``FracField``.  When the heuristic finds no gcd, a primitive
pseudo-remainder sequence, which is always exact, takes over.

``Frac`` is a reduced quotient with a denominator of positive lex-leading
coefficient, so equal values are equal ``Frac``s.  A ``Frac`` also keeps
its denominator factored over a coprime base, den = c * prod b_i^e_i, so
that ``+``, ``*`` and ``d/dx`` reduce by exponent arithmetic and trial
division by the b_i, not by gcds of full operands.  Where a gcd finds a
proper factor of a base element, the element is split by it in place
(the gcd-splitting step of Bernstein's coprime base, J. Algorithms 54,
2005), so every operand takes this one route.  The three operations keep
their last ``MEMO_SIZE`` results on two ``Frac``s in bounded memos.
``print_pair`` prints a value (re, im) as sympy's ``StrPrinter`` (grlex
order, ``^``, ``i``) prints the tree ``cancel(together(e))`` gives for it.
"""

from __future__ import annotations

import functools
import math
from bisect import insort
from fractions import Fraction
from operator import add as _add, sub as _sub

# attempts of the heuristic gcd before the exact fallback, as in sympy
HEU_GCD_MAX = 6
# entries of each memo of the field operations on two Fracs
MEMO_SIZE = 1024


class Gaussian:
    """A Gaussian integer re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        self.re, self.im = re, im

    def __add__(self, other):
        if other.__class__ is int:
            return Gaussian(self.re + other, self.im)
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is int:
            return Gaussian(self.re * other, self.im * other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return Gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if other.__class__ is int:
            return self.re == other and not self.im
        return (other.__class__ is Gaussian
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Gaussian({self.re}, {self.im})"


class _Integers:
    """Ground operations of ZZ."""

    gcd = staticmethod(math.gcd)

    @staticmethod
    def exquo(a, b):
        """a/b when b divides a, else None."""
        return None if a % b else a // b

    @staticmethod
    def size(a):
        return abs(a)

    @staticmethod
    def trunc(a, p):
        """The residue of a mod p in (-p/2, p/2]."""
        a %= p
        return a - p if a > p // 2 else a

    @staticmethod
    def unit(a):
        """The unit u with a*u canonical: positive."""
        return -1 if a < 0 else 1


class _GaussianIntegers:
    """Ground operations of ZZ[i]; a unit is a power of i."""

    @staticmethod
    def _int(a):
        return Gaussian(a) if a.__class__ is int else a

    def gcd(self, a, b):
        a, b = self._int(a), self._int(b)
        while b:
            a, b = b, a - b * self._round_quo(a, b)
        return a

    @staticmethod
    def _round_quo(a, b):
        """The Gaussian integer nearest to a/b."""
        n = b.re * b.re + b.im * b.im
        x = a.re * b.re + a.im * b.im
        y = a.im * b.re - a.re * b.im
        return Gaussian((2 * x + n) // (2 * n), (2 * y + n) // (2 * n))

    def exquo(self, a, b):
        a, b = self._int(a), self._int(b)
        n = b.re * b.re + b.im * b.im
        x = a.re * b.re + a.im * b.im
        y = a.im * b.re - a.re * b.im
        if x % n or y % n:
            return None
        return Gaussian(x // n, y // n)

    @staticmethod
    def size(a):
        return abs(a) if a.__class__ is int else abs(a.re) + abs(a.im)

    @staticmethod
    def trunc(a, p):
        a = _GaussianIntegers._int(a)
        return Gaussian(_Integers.trunc(a.re, p), _Integers.trunc(a.im, p))

    @staticmethod
    def unit(a):
        """sympy's ``ZZ_I.canonical_unit``: the unit that moves a into the
        quadrant re > 0, im >= 0."""
        a = _GaussianIntegers._int(a)
        if a.im > 0:
            return Gaussian(1) if a.re > 0 else Gaussian(0, -1)
        if a.im < 0:
            return Gaussian(-1) if a.re < 0 else Gaussian(0, 1)
        return Gaussian(1) if a.re >= 0 else Gaussian(-1)


INTEGERS = _Integers()
GAUSSIAN_INTEGERS = _GaussianIntegers()


# ---------------------------------------------------------------------------
# arithmetic


def padd(f: dict, g: dict) -> dict:
    if len(f) < len(g):
        f, g = g, f
    h = dict(f)
    for m, c in g.items():
        c += h.get(m, 0)
        if c:
            h[m] = c
        else:
            del h[m]
    return h


def pneg(f: dict) -> dict:
    return {m: -c for m, c in f.items()}


def psub(f: dict, g: dict) -> dict:
    return padd(f, pneg(g))


def pmul(f: dict, g: dict) -> dict:
    if len(f) < len(g):
        f, g = g, f
    h = {}
    get = h.get
    fitems = f.items()
    for mg, cg in g.items():
        for mf, cf in fitems:
            m = tuple(map(_add, mf, mg))
            h[m] = get(m, 0) + cf * cg
    return {m: c for m, c in h.items() if c}


def pmul_ground(f: dict, c) -> dict:
    return {m: v * c for m, v in f.items()}


def pquo_ground(f: dict, c) -> dict:
    """f/c for an integer c that divides every coefficient."""
    return {m: v // c for m, v in f.items()}


def ppow(f: dict, n: int) -> dict:
    if len(f) == 1:
        (m, c), = f.items()
        return {tuple(e * n for e in m): c ** n}
    result = None
    while True:
        if n & 1:
            result = f if result is None else pmul(result, f)
        n >>= 1
        if not n:
            return result
        f = pmul(f, f)


def pdiff(f: dict, k: int) -> dict:
    """df/dx_k for the generator of index k."""
    out = {}
    for m, c in f.items():
        e = m[k]
        if e:
            out[m[:k] + (e - 1,) + m[k + 1:]] = c * e
    return out


def content(f: dict) -> int:
    return math.gcd(*f.values())


def leading(f: dict):
    return f[max(f)]


def is_ground(f: dict) -> bool:
    return len(f) == 1 and not any(next(iter(f)))


def constant(c, n: int) -> dict:
    """The constant polynomial c in n generators."""
    return {(0,) * n: c} if c else {}


def pquo(f: dict, g: dict, dom=INTEGERS):
    """f/g when g divides f exactly, else None."""
    exquo = dom.exquo
    lm = max(g)
    lc = g[lm]
    if len(g) == 1:
        q = {}
        for m, c in f.items():
            e = tuple(map(_sub, m, lm))
            t = exquo(c, lc)
            if min(e, default=0) < 0 or t is None:
                return None
            q[e] = t
        return q
    rest = [(m, c) for m, c in g.items() if m != lm]
    r = dict(f)
    # the monomials of r in ascending order; one cancelled in r is skipped
    order = sorted(r)
    q = {}
    while order:
        m = order.pop()
        c = r.pop(m, None)
        if c is None:
            continue
        e = tuple(map(_sub, m, lm))
        if min(e, default=0) < 0:
            return None
        t = exquo(c, lc)
        if t is None:
            return None
        q[e] = t
        for mg, cg in rest:
            mm = tuple(map(_add, e, mg))
            v = r.get(mm)
            if v is None:
                r[mm] = -t * cg
                insort(order, mm)
            elif v == t * cg:
                del r[mm]
            else:
                r[mm] = v - t * cg
    return q


# ---------------------------------------------------------------------------
# gcd


class _HeuristicFailed(Exception):
    """The heuristic gcd found no gcd at any of its evaluation points."""


def cofactors(f: dict, g: dict, n: int, dom=INTEGERS) -> tuple:
    """(h, f/h, g/h) for h a gcd of the nonzero polynomials f and g in n
    generators, as sympy's ``PolyElement.cofactors`` computes it."""
    if len(f) == 1:
        return _gcd_monom(f, g, dom)
    if len(g) == 1:
        h, cfg, cff = _gcd_monom(g, f, dom)
        return h, cff, cfg
    J, (f, g) = _deflate(n, f, g)
    try:
        h, cff, cfg = _heugcd(f, g, n, dom)
    except _HeuristicFailed:
        h = _gcd_prs(f, g, n, dom)
        cff, cfg = pquo(f, h, dom), pquo(g, h, dom)
    if J is None:
        return h, cff, cfg
    return _inflate(h, J), _inflate(cff, J), _inflate(cfg, J)


def _gcd_monom(f: dict, g: dict, dom) -> tuple:
    """cofactors for a single-term f."""
    (mf, cf), = f.items()
    mgcd, cgcd = mf, cf
    for mg, cg in g.items():
        mgcd = tuple(map(min, mgcd, mg))
        cgcd = dom.gcd(cgcd, cg)
    exquo = dom.exquo
    h = {mgcd: cgcd}
    cff = {tuple(map(_sub, mf, mgcd)): exquo(cf, cgcd)}
    cfg = {tuple(map(_sub, mg, mgcd)): exquo(cg, cgcd) for mg, cg in g.items()}
    return h, cff, cfg


def _deflate(n: int, *polys):
    J = [0] * n
    for p in polys:
        for m in p:
            J = list(map(math.gcd, J, m))
    J = tuple(b or 1 for b in J)
    if all(b == 1 for b in J):
        return None, polys
    return J, [{tuple(map(int.__floordiv__, m, J)): c for m, c in p.items()}
               for p in polys]


def _inflate(f: dict, J: tuple) -> dict:
    return {tuple(map(int.__mul__, m, J)): c for m, c in f.items()}


def _primitive(f: dict, dom) -> dict:
    cont = 0
    for c in f.values():
        cont = dom.gcd(cont, c)
    if dom is INTEGERS:
        return pquo_ground(f, cont) if cont != 1 else f
    return {m: dom.exquo(c, cont) for m, c in f.items()}


def _evaluate(f: dict, a: int, n: int):
    """f at x_0 = a: a ground element for n == 1, else a polynomial in the
    other n - 1 generators."""
    powers = {}
    if n == 1:
        total = 0
        for (e,), c in f.items():
            p = powers.get(e)
            if p is None:
                p = powers[e] = a ** e
            total = c * p + total
        return total
    out = {}
    for m, c in f.items():
        e = m[0]
        p = powers.get(e)
        if p is None:
            p = powers[e] = a ** e
        k = m[1:]
        v = c * p + out.get(k, 0)
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _interpolate(h, x: int, n: int, dom) -> dict:
    """The polynomial whose symmetric x-adic digits are h, with a canonical
    leading coefficient (sympy's ``_gcd_interpolate``)."""
    f, i = {}, 0
    trunc = dom.trunc
    if n == 1:
        while h:
            g = trunc(h, x)
            h = _ground_quo(h - g, x)
            if g:
                f[(i,)] = g
            i += 1
    else:
        while h:
            g = {m: t for m, c in h.items() if (t := trunc(c, x))}
            h = {m: q for m, c in h.items()
                 if (q := _ground_quo(c - g.get(m, 0), x))}
            for m, c in g.items():
                f[(i,) + m] = c
            i += 1
    u = dom.unit(leading(f))
    return f if u == 1 else pmul_ground(f, u)


def _ground_quo(a, x: int):
    """a/x for an integer x dividing a (both parts of a Gaussian a)."""
    if a.__class__ is int:
        return a // x
    return Gaussian(a.re // x, a.im // x)


def _extract_ground(f: dict, g: dict, dom):
    cont = 0
    for c in f.values():
        cont = dom.gcd(cont, c)
    for c in g.values():
        cont = dom.gcd(cont, c)
    if cont == 1:
        return cont, f, g
    exquo = dom.exquo
    return (cont, {m: exquo(c, cont) for m, c in f.items()},
            {m: exquo(c, cont) for m, c in g.items()})


def _heugcd(f: dict, g: dict, n: int, dom) -> tuple:
    """sympy's ``heugcd``, over ZZ or ZZ[i]."""
    gcd, f, g = _extract_ground(f, g, dom)
    size = dom.size
    f_norm = max(map(size, f.values()))
    g_norm = max(map(size, g.values()))
    B = 2 * min(f_norm, g_norm) + 29
    x = max(min(B, 99 * math.isqrt(B)),
            2 * min(f_norm // size(leading(f)), g_norm // size(leading(g))) + 4)
    if dom is GAUSSIAN_INTEGERS:
        # a candidate that divides f and g is their gcd once x exceeds
        # 1 + |f| (Cauchy's bound on the roots) by more than a content can
        # be, which is x/sqrt(2) for a Gaussian
        x = max(x, 4 * min(f_norm, g_norm) + 29)
    for _ in range(HEU_GCD_MAX):
        ff = _evaluate(f, x, n)
        gg = _evaluate(g, x, n)
        if ff and gg:
            if n == 1:
                h = dom.gcd(ff, gg)
                cff, cfg = dom.exquo(ff, h), dom.exquo(gg, h)
            else:
                h, cff, cfg = _heugcd(ff, gg, n - 1, dom)
            h = _primitive(_interpolate(h, x, n, dom), dom)
            cff_ = pquo(f, h, dom)
            if cff_ is not None:
                cfg_ = pquo(g, h, dom)
                if cfg_ is not None:
                    return _scaled(h, gcd), cff_, cfg_
            cff = _interpolate(cff, x, n, dom)
            h = pquo(f, cff, dom)
            if h is not None:
                cfg_ = pquo(g, h, dom)
                if cfg_ is not None:
                    return _scaled(h, gcd), cff, cfg_
            cfg = _interpolate(cfg, x, n, dom)
            h = pquo(g, cfg, dom)
            if h is not None:
                cff_ = pquo(f, h, dom)
                if cff_ is not None:
                    return _scaled(h, gcd), cff_, cfg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    raise _HeuristicFailed


def _scaled(f: dict, c) -> dict:
    return f if c == 1 else pmul_ground(f, c)


# the exact fallback: f and g as polynomials in x_0 over the ring of the
# other generators, {degree: coefficient}, by primitive pseudo-remainders


def _gcd_prs(f: dict, g: dict, n: int, dom) -> dict:
    """A gcd of the nonzero f and g in n generators."""
    if n == 0:
        return {(): dom.gcd(f[()], g[()])}
    a, b = _split(f), _split(g)
    c = _gcd_prs(_content_prs(a, n, dom), _content_prs(b, n, dom), n - 1, dom)
    a, b = _primitive_prs(a, n, dom), _primitive_prs(b, n, dom)
    if max(a) < max(b):
        a, b = b, a
    while max(b):
        r = _prem(a, b)
        if not r:
            break
        a, b = b, _primitive_prs(r, n, dom)
    else:
        b = {0: constant(1, n - 1)}  # coprime in x_0
    return _join({d: pmul(c, p) for d, p in b.items()})


def _primitive_prs(u: dict, n: int, dom) -> dict:
    c = _content_prs(u, n, dom)
    return {d: pquo(p, c, dom) for d, p in u.items()}


def _split(f: dict) -> dict:
    out = {}
    for m, c in f.items():
        out.setdefault(m[0], {})[m[1:]] = c
    return out


def _join(u: dict) -> dict:
    return {(d,) + m: c for d, p in u.items() for m, c in p.items()}


def _content_prs(u: dict, n: int, dom) -> dict:
    coefficients = iter(u.values())
    c = next(coefficients)
    for p in coefficients:
        c = _gcd_prs(c, p, n - 1, dom)
    return c


def _prem(a: dict, b: dict) -> dict:
    """The pseudo-remainder of a by b, polynomials in x_0."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        r = {d: pmul(lb, p) for d, p in r.items()}
        for d, p in b.items():
            k = d + dr - db
            v = psub(r.get(k, {}), pmul(lr, p))
            if v:
                r[k] = v
            else:
                r.pop(k, None)
    return r


# ---------------------------------------------------------------------------
# the field


class Frac:
    """A non-constant element num/den of the field of fractions, reduced,
    with a positive lex-leading coefficient of den.  Immutable.  ``fac``
    (found on first use if not given) is den = c * prod b^e, c > 0, as
    triples (b, e, certified irreducible) over squarefree, pairwise coprime
    b of positive leading coefficient, each primitive in its generators."""

    __slots__ = ("num", "den", "_hash", "fac")

    def __init__(self, num: dict, den: dict, fac=None):
        self.num, self.den, self._hash, self.fac = num, den, None, fac

    def __eq__(self, other):
        return (other.__class__ is Frac and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((frozenset(self.num.items()),
                                   frozenset(self.den.items())))
        return h

    def __neg__(self):
        return Frac(pneg(self.num), self.den, self.fac)

    def __repr__(self):
        return f"Frac({self.num!r}, {self.den!r})"

    def nvars(self) -> int:
        return len(next(iter(self.den)))


def quotient(p: dict, q: dict, n: int):
    """p/q in the field: a Fraction when constant, else a reduced Frac."""
    if not p:
        return Fraction(0)
    _, p, q = cofactors(p, q, n)
    return _reduced(p, q)


def _reduced(p: dict, q: dict, fac=None):
    """p/q in the field for a nonzero p and a q sharing no non-constant
    factor with it: reduced by the integer gcd of their contents, with q's
    leading coefficient made positive; ``fac`` is q's, if known."""
    g = math.gcd(content(p), content(q))
    if leading(q) < 0:
        g = -g
    if g != 1:
        p, q = pquo_ground(p, g), pquo_ground(q, g)
    if is_ground(q) and is_ground(p):
        return Fraction(leading(p), leading(q))
    return Frac(p, q, None if fac is None else tuple(fac))


# ---------------------------------------------------------------------------
# factored denominators


def _fac(a: Frac, n: int) -> tuple:
    if a.fac is None:
        a.fac = _factored(frozenset(a.den.items()), n)
    return a.fac


@functools.lru_cache(maxsize=MEMO_SIZE)
def _factored(den: frozenset, n: int) -> tuple:
    """The ``fac`` of a denominator given by its items: each generator
    dividing it, then the squarefree decomposition of what is left in its
    first generator x_k (Yun, SYMSAC 1976), whose parts are primitive in
    x_k and coprime to the content in x_k, which is decomposed next.  A
    part with a content in another generator is split by it, so that each
    b is primitive in every generator it has."""
    q = dict(den)
    low = [min(e) for e in zip(*q)]
    out = [(fgen(k, n).num, e, True) for k, e in enumerate(low) if e]
    q = {tuple(map(_sub, m, low)): c for m, c in q.items()}
    while not is_ground(q):
        k = next(k for k in range(n) if any(m[k] for m in q))
        _, w, y = cofactors(q, pdiff(q, k), n)
        i = 1
        while not is_ground(w):
            z = psub(y, pdiff(w, k))
            b, w, y = cofactors(w, z, n) if z else (w, constant(1, n), z)
            parts = [] if is_ground(b) else [b]
            while parts:
                b = parts.pop()
                for j in range(n):
                    g = _content_in(b, j, n)
                    if not is_ground(g) and g != b:
                        parts += [g, pquo(b, g)]
                        break
                else:
                    out.append(_element(b, i, n))
                    q = pquo(q, ppow(out[-1][0], i))
            i += 1
    return tuple(out)


def _element(b: dict, e: int, n: int) -> tuple:
    """The base entry (b/u, e, certified irreducible) of a non-constant
    divisor b of a denominator, u = ±content(b) of the sign of its leading
    coefficient."""
    b = pquo_ground(b, content(b) if leading(b) > 0 else -content(b))
    return b, e, _irreducible(b, n)


def _content_in(b: dict, k: int, n: int) -> dict:
    """A gcd of b's coefficients as a polynomial in x_k."""
    parts = {}
    for m, c in b.items():
        parts.setdefault(m[k], {})[m[:k] + (0,) + m[k + 1:]] = c
    g = None
    for f in sorted(parts.values(), key=len):
        g = f if g is None else cofactors(g, f, n)[0]
        if is_ground(g):
            break
    return g


def _irreducible(b: dict, n: int) -> bool:
    """A certificate that b is irreducible over ZZ.

    Theorem: let b have content 1 and degree d in x_k, and be primitive in
    x_k.  If d = 1, b is irreducible.  If d = 2 and b, at an integer point
    of the other generators where its leading coefficient in x_k does not
    vanish, has a discriminant that is not a square, b is irreducible: a
    factorisation would have two factors linear in x_k, and at that point
    two linear factors over ZZ, whose product has a square discriminant."""
    if content(b) != 1:
        return False
    for k in range(n):
        d = max(m[k] for m in b)
        if not 0 < d <= 2 or not is_ground(_content_in(b, k, n)):
            continue
        if d == 1:
            return True
        for s in range(4):
            point = (s,) * k + (1,) + (s,) * (n - k - 1)
            a = [0, 0, 0]
            for m, c in b.items():
                a[m[k]] += c * math.prod(map(pow, point, m))
            disc = a[1] * a[1] - 4 * a[2] * a[0]
            if a[2] and (disc < 0 or math.isqrt(disc) ** 2 != disc):
                return True
    return False


def _value(f: dict, point: tuple) -> int:
    return sum(c * math.prod(map(pow, point, m)) for m, c in f.items())


def _strip(t: dict, den: dict, b: dict, e: int, irreducible: bool, n: int):
    """(t/d, den/d, base) for d = gcd(t, b^e), base the entries (b_i, e_i,
    certified), e_i > 0, with b^e/d = prod b_i^e_i.  Trial division
    decides for a certified b, after the witness b(x) not dividing t(x) at
    an integer point x; a gcd g with b decides otherwise, and a proper
    factor g splits b into g, stripped next, and b/g.

    Theorem: if b is squarefree and gcd(t, b) = g, then b/g is coprime to
    t: a common factor of t and b/g divides g, so its square divides b."""
    point = tuple(range(3, n + 3))
    v = _value(b, point)
    for j in range(e):
        if irreducible:
            q = None if v and _value(t, point) % v else pquo(t, b)
        else:
            g, _, r = cofactors(t, b, n)
            if not (is_ground(g) or is_ground(r)):
                piece = _element(g, e - j, n)
                t, den, base = _strip(t, den, *piece, n)
                return t, den, [_element(r, e - j, n)] + base
            q = None if is_ground(g) else pquo(t, b)
        if q is None:
            return t, den, [(b, e - j, irreducible)]
        t, den = q, pquo(den, b)
    return t, den, []


def _merged(A: tuple, B: tuple, n: int) -> list:
    """Rows [b, e, f, irreducible] over a coprime base of the bases A and
    B, e and f b's exponents in each (0 where absent).  An element b of B
    equal to no element a of A is tested coprime to each by a gcd g,
    unless both are certified (distinct canonical irreducibles); where g
    is not constant, g and a/g take a's place in A, g and b/g b's in B,
    and the merge starts again.

    Theorem: for squarefree a and b with g = gcd(a, b), the pieces g, a/g
    and b/g are pairwise coprime: a factor of g and a/g, or of a/g and
    b/g (so of g), would divide a twice.  So A and B stay coprime bases
    of their denominators, and the merge ends, as each restart splits an
    element."""
    rows = [[b, e, 0, irr] for b, e, irr in A]
    own = rows[:]
    for j, (b, f, irr) in enumerate(B):
        for row in own:
            if row[0] == b:
                row[2] = f
                break
        else:
            for i, (a, _, irr_a) in enumerate(A):
                if not (irr and irr_a):
                    g, b_g, a_g = cofactors(b, a, n)
                    if not is_ground(g):
                        return _merged(_refined(A, i, g, a_g, n),
                                       _refined(B, j, g, b_g, n), n)
            rows.append([b, 0, f, irr])
    return rows


def _refined(base: tuple, i: int, g: dict, r: dict, n: int) -> tuple:
    """``base`` with its element i, g r, replaced by the non-constant ones
    of g and r, with its exponent."""
    pieces = [_element(p, base[i][1], n) for p in (g, r) if not is_ground(p)]
    return (*base[:i], *pieces, *base[i + 1:])


# ---------------------------------------------------------------------------
# the field operations


def fadd(a, b):
    """a + b for elements that are Fractions or Fracs."""
    if a.__class__ is Fraction:
        if b.__class__ is Fraction:
            return a + b
        a, b = b, a
    if b.__class__ is Fraction:
        if not b:
            return a
        n, d = b.numerator, b.denominator
        q = a.den
        return _reduced(padd(pmul_ground(a.num, d), pmul_ground(q, n)),
                        pmul_ground(q, d) if d != 1 else q, a.fac)
    # the operands in an order of their own, so that b + a finds a + b
    return _fadd(a, b) if hash(a) <= hash(b) else _fadd(b, a)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _fadd(a: Frac, b: Frac):
    """a + b for Fracs over a coprime base of both denominators.

    Theorem: let p/q and r/s be reduced, q = c_q prod b^e and
    s = c_s prod b^f over the base, u = prod b^(max(e, f) - e),
    v = prod b^(max(e, f) - f) and t = p u c_s/g + r v c_q/g for
    g = gcd(c_q, c_s).  Then p/q + r/s = t/(q u c_s/g), and no factor of
    a b with e != f divides t: it divides the term of the operand with the
    smaller exponent of b, and not the other term, as p is coprime to q
    and r to s.  So t is tested against the b with e = f alone."""
    n = a.nvars()
    rows = _merged(_fac(a, n), _fac(b, n), n)
    p, q, r, s = a.num, a.den, b.num, b.den
    cq, cs = content(q), content(s)
    g = math.gcd(cq, cs)
    for c, e, f, _ in rows:
        if e < f:
            u = ppow(c, f - e)
            p, q = pmul(p, u), pmul(q, u)
        elif f < e:
            r = pmul(r, ppow(c, e - f))
    t = padd(_scaled(p, cs // g), _scaled(r, cq // g))
    if not t:
        return Fraction(0)
    den, fac = _scaled(q, cs // g), []
    for c, e, f, irr in rows:
        if e == f:
            t, den, base = _strip(t, den, c, e, irr, n)
            fac += base
        else:
            fac.append((c, max(e, f), irr))
    return _reduced(t, den, fac)


def _scale(f: Frac, c: Fraction) -> Frac:
    """f*c for a nonzero constant c."""
    n, d = c.numerator, c.denominator
    p, q = f.num, f.den
    if n != 1:
        g = math.gcd(n, content(q))
        if g != 1:
            n, q = n // g, pquo_ground(q, g)
        p = pmul_ground(p, n)
    if d != 1:
        g = math.gcd(d, content(p))
        if g != 1:
            d, p = d // g, pquo_ground(p, g)
        q = pmul_ground(q, d)
    return Frac(p, q, f.fac)


def fmul(a, b):
    if a.__class__ is Fraction:
        if b.__class__ is Fraction:
            return a * b
        return _scale(b, a) if a else a
    if b.__class__ is Fraction:
        return _scale(a, b) if b else b
    return _fmul(a, b) if hash(a) <= hash(b) else _fmul(b, a)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _fmul(a: Frac, b: Frac):
    """a * b for Fracs over a coprime base of both denominators.

    Theorem: for p/q and r/s reduced, p is coprime to every b of q's base
    and r to every b of s's.  So p r/(q s) is reduced once p is stripped
    of the b of s's base that are not in q's, and r of those of q's that
    are not in s's; a base shared by q and s needs no test at all."""
    n = a.nvars()
    rows = _merged(_fac(a, n), _fac(b, n), n)
    p, r, fac, den = a.num, b.num, [], pmul(a.den, b.den)
    for c, e, f, irr in rows:
        if e and f:
            fac.append((c, e + f, irr))
        elif f:
            p, den, base = _strip(p, den, c, f, irr, n)
            fac += base
        else:
            r, den, base = _strip(r, den, c, e, irr, n)
            fac += base
    return _reduced(pmul(p, r), den, fac)


def finv(a):
    """1/a; ZeroDivisionError for zero."""
    if a.__class__ is Fraction:
        return 1 / a
    p, q = a.num, a.den
    return Frac(q, p) if leading(p) > 0 else Frac(pneg(q), pneg(p))


def fpow(a, n: int):
    """a^n for n >= 1."""
    if a.__class__ is Fraction:
        return a ** n
    fac = tuple((b, e * n, irr) for b, e, irr in _fac(a, a.nvars()))
    return Frac(ppow(a.num, n), ppow(a.den, n), fac)


def fdiff(a, k: int):
    """da/dx_k: the quotient rule."""
    if a.__class__ is Fraction:
        return Fraction(0)
    return _fdiff(a, k)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _fdiff(a: Frac, k: int):
    """d(p/q)/dx_k over q's base, q = c prod b_i^e_i.

    With R the product of the b_i that have x_k, and S the sum over them of
    e_i b_i' R/b_i, it is (p' R - p S)/(q R).  Theorem: a b_i of R,
    squarefree and primitive in x_k as every base element is in each
    generator it has, shares no factor with the numerator, which is
    -p e_i b_i' R/b_i modulo b_i: p and R/b_i are coprime to b_i, and so is
    b_i', as every factor of b_i has x_k and divides b_i once.  The
    numerator is tested against the b_i free of x_k."""
    n, p, q = a.nvars(), a.num, a.den
    t, den, rows, fac = pdiff(p, k), q, [], []
    R = S = None
    for c, e, irr in _fac(a, n):
        dc = pdiff(c, k)
        if dc:
            dc = pmul_ground(dc, e)
            S = dc if R is None else padd(pmul(S, c), pmul(dc, R))
            R = c if R is None else pmul(R, c)
        rows.append((c, e + bool(dc), irr, not dc))
    if R is not None:
        t, den = psub(pmul(t, R), pmul(p, S)), pmul(q, R)
    if not t:
        return Fraction(0)
    for c, e, irr, tested in rows:
        if tested:
            t, den, base = _strip(t, den, c, e, irr, n)
            fac += base
        else:
            fac.append((c, e, irr))
    return _reduced(t, den, fac)


def fgen(k: int, n: int) -> Frac:
    """The generator x_k of the field in n generators."""
    return Frac({tuple(int(j == k) for j in range(n)): 1}, constant(1, n), ())


def _parts(a, n: int) -> tuple:
    """(num, den) of an element, a constant as constant polynomials."""
    if a.__class__ is Fraction:
        return constant(a.numerator, n), constant(a.denominator, n)
    return a.num, a.den


def gaussian_quotient(re, im, n: int) -> tuple:
    """(p, q) over ZZ[i] with p/q = re + i*im reduced and q's leading
    coefficient canonical: re + i*im over the lcm of the denominators, then
    one cancel in ZZ[i][x], as sympy's ``cancel`` ends."""
    a, b = _parts(re, n)
    c, d = _parts(im, n)
    _, b_only, d_only = cofactors(b, d, n)
    p = padd(pmul(a, d_only),
             {m: Gaussian(0, v) for m, v in pmul(c, b_only).items()})
    _, p, q = cofactors(p, pmul(b, d_only), n, GAUSSIAN_INTEGERS)
    u = GAUSSIAN_INTEGERS.unit(leading(q))
    if u != 1:
        p, q = pmul_ground(p, u), pmul_ground(q, u)
    return p, q


def evaluate(f: dict, point: tuple):
    """f at a point given per generator, by products alone, so that any
    number type with + and * serves."""
    total = 0
    for m, c in f.items():
        term = c
        for v, e in zip(point, m):
            for _ in range(e):
                term = term * v
        total = term + total
    return total


# ---------------------------------------------------------------------------
# printer
#
# The tree sympy builds for p/q is Mul(p.as_expr(), Pow(q.as_expr(), -1)),
# after its automatic evaluation: a rational factor of a single sum is
# distributed over it, Pow(a + b*I, -1) becomes (a - b*I)/(a^2 + b^2), and
# a product holds a rational coefficient, I, powers of coordinates and
# sums as factors.  The printer builds that shape and prints it as
# StrPrinter's _print_Add and _print_Mul do, with the factors of a product
# and the terms of a sum in sympy's sort-key order.

_NUMBER_KEY = (1, 0, "Number")
_SYMBOL_KEY = (2, 0, "Symbol")
_I_KEY = (2, 0, "ImaginaryUnit")
_MUL_KEY = (3, 0, "Mul")
_ADD_KEY = (3, 1, "Add")


def _number_key(v) -> tuple:
    return (_NUMBER_KEY, (0, ()), (), v)


_ONE = _number_key(1)
_MINUS_ONE = _number_key(-1)


class _Product:
    """An evaluated sympy Mul: coefficient * I^imag * coordinate powers *
    sums^±1.  ``powers`` holds (name, exponent) by name; ``sums`` holds
    (_Sum, exponent) with exponent 1 or -1."""

    __slots__ = ("coeff", "imag", "powers", "sums")

    def __init__(self, coeff, imag=False, powers=(), sums=()):
        self.coeff, self.imag = Fraction(coeff), imag
        self.powers, self.sums = list(powers), list(sums)

    def times(self, other: "_Product") -> "_Product":
        coeff = self.coeff * other.coeff
        imag = self.imag
        if other.imag:
            if imag:
                coeff, imag = -coeff, False
            else:
                imag = True
        exps = dict(self.powers)
        for name, e in other.powers:
            exps[name] = exps.get(name, 0) + e
        return _Product(coeff, imag, sorted((k, e) for k, e in exps.items() if e),
                        self.sums + other.sums)

    def rest_key(self) -> tuple:
        """sort_key of the product without its coefficient, before the
        coefficient (Expr.sort_key)."""
        factors = ([(_I_KEY, (1, ("I",)), _ONE, 1)] if self.imag else []) \
            + [(_SYMBOL_KEY, (1, (name,)), _number_key(e), 1)
               for name, e in self.powers] \
            + sorted(s.key(e) for s, e in self.sums)
        if len(factors) == 1:
            return factors[0][:3]
        return (_MUL_KEY, (len(factors), tuple(factors)), _ONE)

    def key(self) -> tuple:
        if self.is_number():
            return _number_key(self.coeff)
        return self.rest_key() + (self.coeff,)

    def monomial(self) -> dict:
        return dict(self.powers)

    def is_number(self) -> bool:
        return not (self.imag or self.powers or self.sums)

    def nfactors(self) -> int:
        """The number of factors besides the coefficient."""
        return int(self.imag) + len(self.powers) + len(self.sums)

    def text(self) -> str:
        """StrPrinter._print_Mul (or _print_Pow, _print_Symbol)."""
        c = self.coeff
        if self.is_number():
            return str(c)
        if (c == 1 and not (self.imag or self.sums) and len(self.powers) == 1
                and self.powers[0][1] < 0):
            # a lone power: StrPrinter._print_Pow
            name, e = self.powers[0]
            return f"1/{name}" if e == -1 else f"{name}^({e})"
        sign = "-" if c < 0 else ""
        c = abs(c)
        num, den = [], []
        if c.numerator != 1:
            num.append(str(c.numerator))
        if c.denominator != 1:
            den.append(str(c.denominator))
        if self.imag:
            num.append("i")
        for name, e in self.powers:
            text = name if abs(e) == 1 else f"{name}^{abs(e)}"
            (num if e > 0 else den).append(text)
        for s, e in sorted(self.sums, key=lambda se: se[0].key(se[1])):
            (num if e > 0 else den).append(f"({s.text()})")
        text = sign + "*".join(num or ["1"])
        if len(den) == 1:
            return f"{text}/{den[0]}"
        if den:
            return f"{text}/({'*'.join(den)})"
        return text


class _Sum:
    """An evaluated sympy Add of _Products."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def _ordered(self, graded: bool) -> list:
        """as_ordered_terms: by descending grlex (the printer's order) or
        lex (sort keys) over the coordinates sorted by name; a constant
        term's real part before its imaginary part."""
        names = sorted({name for t in self.terms for name, _ in t.powers})

        def key(t):
            m = t.monomial()
            exps = [m.get(name, 0) for name in names]
            vector = ([sum(exps)] if graded else []) + exps
            return [-e for e in vector], t.imag

        return sorted(self.terms, key=key)

    def key(self, exp: int = 1) -> tuple:
        number = [t for t in self.terms if t.is_number()]
        other = [t for t in self.terms if not t.is_number()]
        if (len(number) == 1 and len(other) == 1 and number[0].coeff > 0
                and other[0].coeff < 0 and other[0].nfactors() == 1):
            # sympy's as_ordered_terms keeps c - d*x in this order
            ordered = number + other
        else:
            ordered = self._ordered(False)
        keys = tuple(t.key() for t in ordered)
        return (_ADD_KEY, (len(keys), keys), _ONE if exp == 1 else _MINUS_ONE, 1)

    def text(self) -> str:
        """StrPrinter._print_Add in grlex order."""
        out = []
        for t in self._ordered(True):
            text = t.text()
            if text.startswith("-"):
                out += ["-", text[1:]]
            else:
                out += ["+", text]
        sign = out.pop(0)
        return ("-" if sign == "-" else "") + " ".join(out)


def _term(c, powers: list) -> _Product:
    """A term of a polynomial over ZZ[i], its coefficient in sympy's form:
    a, b*I, or the sum a + b*I as a factor."""
    if c.__class__ is int:
        return _Product(c, False, powers)
    if not c.im:
        return _Product(c.re, False, powers)
    if not c.re:
        return _Product(c.im, True, powers)
    return _Product(1, False, powers, [(_complex_sum(c.re, c.im), 1)])


def _complex_sum(re, im) -> _Sum:
    return _Sum([_Product(re), _Product(im, True)])


def _terms(f: dict, names: tuple) -> list:
    """The terms of f.as_expr(): a constant a + b*I is two terms."""
    out = []
    for m, c in f.items():
        powers = sorted((name, e) for name, e in zip(names, m) if e)
        if not powers and c.__class__ is Gaussian and c.re and c.im:
            out += [_Product(c.re), _Product(c.im, True)]
        else:
            out.append(_term(c, powers))
    return out


def _inverse(q: dict, names: tuple) -> _Product:
    """Pow(q.as_expr(), -1) for q with a canonical leading coefficient."""
    if len(q) > 1:
        return _Product(1, sums=[(_Sum(_terms(q, names)), -1)])
    (m, c), = q.items()
    powers = sorted((name, -e) for name, e in zip(names, m) if e)
    if c.__class__ is Gaussian and c.im:
        # (a + b*I)^-1 = (a - b*I)/(a^2 + b^2), a > 0 and b > 0
        return _Product(Fraction(1, c.re * c.re + c.im * c.im), False, powers,
                        [(_complex_sum(c.re, -c.im), 1)])
    return _Product(Fraction(1, c if c.__class__ is int else c.re), False,
                    powers)


def _quotient_text(p: dict, q: dict, names: tuple) -> str:
    terms = _terms(p, names)
    d = leading(q) if is_ground(q) else None
    if d.__class__ is Gaussian and not d.im:
        d = d.re
    if d.__class__ is int:
        inverse = _Product(Fraction(1, d))
        if len(terms) > 1:
            # a rational factor of a single sum is distributed over it
            return _Sum([t.times(inverse) for t in terms]).text()
        return terms[0].times(inverse).text()
    if len(terms) > 1:
        numerator = _Product(1, sums=[(_Sum(terms), 1)])
    else:
        numerator = terms[0]
    return numerator.times(_inverse(q, names)).text()


def print_pair(re, im, names: tuple) -> str:
    """The text of the value re + i*im (each a Fraction or a Frac over
    generators named ``names``)."""
    if re.__class__ is Fraction and im.__class__ is Fraction:
        if not im:
            return str(re)
        imag = _Product(im, True)
        if not re:
            return imag.text()
        return _Sum([_Product(re), imag]).text()
    if not im:
        return _quotient_text(re.num, re.den, names)
    return _quotient_text(*gaussian_quotient(re, im, len(names)), names)
