"""Exact sparse multivariate polynomials over the rationals.

Representation
--------------
A polynomial is stored as ``(vars, den, coeffs)`` where ``vars`` is the
ordered tuple of variable names, ``den`` is a positive integer, and
``coeffs`` maps a packed exponent key to an integer numerator; the
polynomial is (1/den) * sum(c * X^e).  Canonical form: no zero
coefficients, den > 0, and gcd(den, content(coeffs)) == 1.  The zero
polynomial is ``({}, den=1)``.

Exponent keys pack 16 bits per variable (variable 0 lowest), so the
product of monomials is integer addition of keys; the hot double loop
lives in :mod:`blowcube.kernel`.  Individual exponents must stay below
2**16: powers, the parser and ``maps.homogenize`` check them with
``check_exponent``, and ``maps._composite`` checks the degree bound.

Term order is graded lexicographic (total degree first, then the exponent
of vars[0], vars[1], ...).  ``str()`` prints terms in descending order and
``parse_poly(str(p), p.vars) == p`` exactly.

Division is native: one graded-lex reduction, ``_divmod``, gives the
quotient and the normal form that ``poly_mod``, ``poly_exact_div`` and
``strip_factor`` read.  So are the common rational roots of polynomials in
one variable, the slopes of towers (``_common_rational_roots``: a heuristic
gcd and p-adic roots on integer coefficient lists).  Factorization,
multivariate gcd and linear relations (a nullspace) are delegated to sympy;
a tower reaches sympy only to name the factor of a conjugate cluster it
refuses.  Everything else is native.  This module is the only one that
imports sympy.  Polynomials cross to sympy as integer
polynomials on ZZ: the bridge hands over ``den * p`` built straight from the
integer numerators and reads the integer result back, while ``den`` and the
rational scale of each answer stay on this side.  Homogeneous polynomials
go to sympy's gcd and factorization in the chart where the last variable is
1 (``_chart``, the one passage to an affine chart, through ``dehomogenize``)
and their answers come back through ``homogenize``.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import sympy
from sympy.polys.matrices import DomainMatrix
from sympy.polys.polyclasses import DMP

from blowcube.errors import ParseError
from blowcube.kernel import add_scaled_packed, mul_packed

WIDTH = 16
MASK = (1 << WIDTH) - 1
EXP_LIMIT = 1 << WIDTH

Exponents = tuple[int, ...]


def pack(exps: Sequence[int]) -> int:
    key = 0
    for i, e in enumerate(exps):
        if not 0 <= e < EXP_LIMIT:
            raise ValueError(f"exponent {e} out of range")
        key |= e << (WIDTH * i)
    return key


def unpack(key: int, nvars: int) -> Exponents:
    return tuple((key >> (WIDTH * i)) & MASK for i in range(nvars))


def top_exponent(factors: Sequence["Poly"], power: int = 1) -> int:
    """The top exponent of any one variable in (prod factors)**power; exact
    for nonzero factors, whose leading coefficients in each variable multiply."""
    shifts = [WIDTH * i for i in range(len(factors[0].vars))]
    return power * max((sum(max(((k >> s) & MASK for k in p.coeffs), default=0)
                           for p in factors) for s in shifts), default=0)


def check_exponent(what: str, e: int, error=ValueError) -> None:
    """Refuse an exponent that would carry into the next packed variable."""
    if e >= EXP_LIMIT:
        raise error(f"{what} needs exponent {e}, above the limit {EXP_LIMIT - 1}")


def _key_total(key: int) -> int:
    total = 0
    while key:
        total += key & MASK
        key >>= WIDTH
    return total


def _normalize(den: int, coeffs: dict) -> tuple[int, dict]:
    coeffs = {k: c for k, c in coeffs.items() if c}
    if not coeffs:
        return 1, {}
    if den < 0:
        den = -den
        coeffs = {k: -c for k, c in coeffs.items()}
    g = den
    for c in coeffs.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    if g > 1:
        den //= g
        coeffs = {k: c // g for k, c in coeffs.items()}
    return den, coeffs


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "den", "coeffs", "_hash")

    def __init__(self, vars: tuple[str, ...], den: int, coeffs: dict):
        den, coeffs = _normalize(den, coeffs)
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- construction ------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls(tuple(vars), 1, {})

    @classmethod
    def const(cls, vars: Sequence[str], q) -> "Poly":
        q = Fraction(q)
        if q == 0:
            return cls.zero(vars)
        return cls(tuple(vars), q.denominator, {0: q.numerator})

    @classmethod
    def var(cls, vars: Sequence[str], name: str) -> "Poly":
        vars = tuple(vars)
        i = vars.index(name)
        return cls(vars, 1, {pack([0] * i + [1]): 1})

    @classmethod
    def from_terms(cls, vars: Sequence[str], terms: Iterable[tuple[Sequence[int], object]]) -> "Poly":
        """Build from (exponents, coefficient) pairs; coefficients may repeat."""
        vars = tuple(vars)
        acc: dict[int, Fraction] = {}
        for exps, q in terms:
            if len(exps) != len(vars):
                raise ValueError("exponent tuple length does not match variables")
            key = pack(exps)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(q)
        den = math.lcm(*(q.denominator for q in acc.values())) if acc else 1
        return cls(vars, den, {k: int(q * den) for k, q in acc.items()})

    # -- basic queries -----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return not self.coeffs or (len(self.coeffs) == 1 and 0 in self.coeffs)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return Fraction(self.coeffs.get(0, 0), self.den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(_key_total(k) for k in self.coeffs)

    def is_homogeneous(self) -> bool:
        if not self.coeffs:
            return True
        degs = {_key_total(k) for k in self.coeffs}
        return len(degs) == 1

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Terms in descending graded lexicographic order."""
        n = len(self.vars)
        keyed = [(_key_total(k), unpack(k, n), k) for k in self.coeffs]
        keyed.sort(reverse=True)
        for _, exps, k in keyed:
            yield exps, Fraction(self.coeffs[k], self.den)

    def leading(self) -> tuple[Exponents, Fraction]:
        """The first term of ``terms()``, found by one ``max``."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        n = len(self.vars)
        k = max(self.coeffs, key=lambda k: (_key_total(k), unpack(k, n)))
        return unpack(k, n), Fraction(self.coeffs[k], self.den)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.coeffs.get(pack(exps), 0), self.den)

    # -- arithmetic --------------------------------------------------

    def _check_same_vars(self, other: "Poly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return self + Poly.const(self.vars, other)
        self._check_same_vars(other)
        L = math.lcm(self.den, other.den)
        a = self.coeffs if L == self.den else {k: c * (L // self.den) for k, c in self.coeffs.items()}
        return Poly(self.vars, L, add_scaled_packed(a, other.coeffs, L // other.den))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, self.den, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            q = Fraction(other)
            return Poly(self.vars, self.den * q.denominator,
                        {k: c * q.numerator for k, c in self.coeffs.items()})
        self._check_same_vars(other)
        return Poly(self.vars, self.den * other.den, mul_packed(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.const(self.vars, 1)
        check_exponent("power", top_exponent((self,), n))
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __truediv__(self, other):
        q = Fraction(other)
        return self * Fraction(q.denominator, q.numerator)

    # -- comparisons -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self == Poly.const(self.vars, other)
            return NotImplemented
        return (self.vars == other.vars and self.den == other.den
                and self.coeffs == other.coeffs)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.vars, self.den, frozenset(self.coeffs.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus / evaluation ---------------------------------------

    def derivative(self, name: str) -> "Poly":
        i = self.vars.index(name)
        shift = WIDTH * i
        step = 1 << shift
        out = {}
        for k, c in self.coeffs.items():
            e = (k >> shift) & MASK
            if e:
                out[k - step] = out.get(k - step, 0) + c * e
        return Poly(self.vars, self.den, out)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != len(self.vars):
            raise ValueError("point arity does not match variables")
        # with a_i/b_i the coordinates and E_i the top exponent of vars[i],
        # each term c * prod (a_i/b_i)^e_i is the integer
        # c * prod a_i^e_i * b_i^(E_i - e_i) over the common scale
        # den * prod b_i^E_i, so one Fraction is built at the end
        shifts = [WIDTH * i for i in range(len(self.vars))]
        scale = self.den
        tables = []
        for v, s in zip(point, shifts):
            q = Fraction(v)
            a, b = q.numerator, q.denominator
            top = max(((k >> s) & MASK for k in self.coeffs), default=0)
            apow, bpow = [1], [1]
            for _ in range(top):
                apow.append(apow[-1] * a)
                bpow.append(bpow[-1] * b)
            tables.append([apow[e] * bpow[top - e] for e in range(top + 1)])
            scale *= bpow[top]
        total = 0
        for k, c in self.coeffs.items():
            for s, table in zip(shifts, tables):
                c *= table[(k >> s) & MASK]
            total += c
        return Fraction(total, scale)

    # -- substitutions -----------------------------------------------

    def compose(self, entries: Sequence["Poly"]) -> "Poly":
        """Substitute entries[i] for vars[i]; entries share one variable set.

        Each term c * prod entries[i]^e_i is an integer dict over the scale
        den * prod den(entries[i]^e_i).  The terms are summed into one
        integer dict over the lcm of those scales, and one Poly is built at
        the end.
        """
        if len(entries) != len(self.vars):
            raise ValueError("need one entry per variable")
        if not entries:
            raise ValueError("cannot compose a polynomial in no variables")
        out_vars = entries[0].vars
        for e in entries:
            if e.vars != out_vars:
                raise ValueError("substitution entries must share variables")
        powers: list[dict[int, Poly]] = [dict() for _ in entries]

        def power(i: int, e: int) -> Poly:
            cache = powers[i]
            got = cache.get(e)
            if got is None:
                got = entries[i] ** e
                cache[e] = got
            return got

        shifts = [WIDTH * i for i in range(len(entries))]
        terms = []  # (numerator, factor dicts, scale) per term
        for k, c in self.coeffs.items():
            factors, scale = [], self.den
            for i, s in enumerate(shifts):
                e = (k >> s) & MASK
                if e:
                    p = power(i, e)
                    factors.append(p.coeffs)
                    scale *= p.den
            terms.append((c, factors, scale))
        L = math.lcm(*(scale for _c, _f, scale in terms))
        acc: dict[int, int] = {}
        get = acc.get
        for c, factors, scale in terms:
            t = {0: c * (L // scale)}
            for f in factors:
                t = mul_packed(t, f)
            for k, v in t.items():
                acc[k] = get(k, 0) + v
        return Poly(out_vars, L, acc)

    def translate(self, shifts: Sequence) -> "Poly":
        """p(x0 + s0, x1 + s1, ...) for rational shifts (zero entries skipped)."""
        result = self
        for i, s in enumerate(shifts):
            s = Fraction(s)
            if s != 0:
                result = result._translate_one(i, s)
        return result

    def _translate_one(self, i: int, s: Fraction) -> "Poly":
        # Binomial expansion per term, in integer arithmetic over the
        # common denominator den * sd^E:
        #   c*x^e -> sum_j c * C(e,j) * sn^(e-j) * sd^(E-e+j) * x^j,
        # with the row of multipliers built once per exponent e.
        if not self.coeffs:
            return self
        shift = WIDTH * i
        sn, sd = s.numerator, s.denominator
        E = max((k >> shift) & MASK for k in self.coeffs)
        if E == 0:
            return self
        sn_pow = [1] * (E + 1)
        sd_pow = [1] * (E + 1)
        for j in range(1, E + 1):
            sn_pow[j] = sn_pow[j - 1] * sn
            sd_pow[j] = sd_pow[j - 1] * sd
        steps = [j << shift for j in range(E + 1)]
        rows: dict[int, list[tuple[int, int]]] = {}
        out: dict[int, int] = {}
        get = out.get
        for k, c in self.coeffs.items():
            e = (k >> shift) & MASK
            row = rows.get(e)
            if row is None:
                row = rows[e] = [(steps[j],
                                  math.comb(e, j) * sn_pow[e - j] * sd_pow[E - e + j])
                                 for j in range(e + 1)]
            base = k - steps[e]
            for step, m in row:
                key = base + step
                out[key] = get(key, 0) + c * m
        return Poly(self.vars, self.den * sd_pow[E], out)

    def blow_up(self, name: str, m: int) -> "Poly":
        """The strict transform of a polynomial of order at least ``m`` under
        the blow-up of the origin, in the chart whose exceptional line is
        ``name = 0``: each other variable v becomes name * v and name^m is
        divided out.  So a term's exponent of ``name`` becomes its total
        degree minus ``m``, and distinct terms stay distinct."""
        shift = WIDTH * self.vars.index(name)
        out = {}
        for k, c in self.coeffs.items():
            e = _key_total(k) - m
            if e < 0:
                raise ValueError(f"a term of degree {e + m} is below the order {m}")
            out[k + ((e - ((k >> shift) & MASK)) << shift)] = c
        return Poly(self.vars, self.den, out)

    def order(self) -> int:
        """Smallest total degree of a term (the vanishing order at the
        origin); -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return min(_key_total(k) for k in self.coeffs)

    def truncate_total(self, bound: int) -> "Poly":
        """Drop every term of total degree above ``bound``."""
        kept = {k: c for k, c in self.coeffs.items() if _key_total(k) <= bound}
        if len(kept) == len(self.coeffs):
            return self
        return Poly(self.vars, self.den, kept)

    def truncate_in(self, name: str, bound: int) -> "Poly":
        """Drop every term whose degree in ``name`` is above ``bound``."""
        shift = WIDTH * self.vars.index(name)
        kept = {k: c for k, c in self.coeffs.items() if (k >> shift) & MASK <= bound}
        if len(kept) == len(self.coeffs):
            return self
        return Poly(self.vars, self.den, kept)

    def homogenize(self, name: str, degree: int | None = None) -> "Poly":
        """Insert ``name`` (appended to the variables) to reach equal term degree."""
        if name in self.vars:
            raise ValueError(f"variable {name} already present")
        vars = self.vars + (name,)
        d = self.degree() if degree is None else degree
        if d < self.degree():
            raise ValueError("target degree below actual degree")
        j = len(self.vars)
        out = {}
        for k, c in self.coeffs.items():
            out[k | ((d - _key_total(k)) << (WIDTH * j))] = c
        return Poly(vars, self.den, out)

    def dehomogenize(self) -> "Poly":
        """Set the last variable to 1 and remove it: the inverse of
        ``homogenize``.  Terms that differ only in that variable add up."""
        mask = (1 << (WIDTH * (len(self.vars) - 1))) - 1
        out: dict[int, int] = {}
        for k, c in self.coeffs.items():
            k &= mask
            out[k] = out.get(k, 0) + c
        return Poly(self.vars[:-1], self.den, out)

    # -- printing ----------------------------------------------------

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r}, vars={self.vars})"


# ---------------------------------------------------------------------------
# printing / parsing
# ---------------------------------------------------------------------------

def _monomial_str(vars: tuple[str, ...], exps: Exponents) -> str:
    parts = []
    for name, e in zip(vars, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_str(p: Poly) -> str:
    """Canonical text form; ``parse_poly(poly_str(p), p.vars) == p``."""
    if p.is_zero:
        return "0"
    pieces = []
    for exps, q in p.terms():
        mon = _monomial_str(p.vars, exps)
        aq = abs(q)
        if not mon:
            body = str(aq)
        elif aq == 1:
            body = mon
        else:
            body = f"{aq}*{mon}"
        pieces.append((q < 0, body))
    first_neg, first = pieces[0]
    out = ("-" if first_neg else "") + first
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([()+\-*/^]))")

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_VAR_NAME = re.compile(r"^(?:[xyzw]|x\d+)$")

# open parentheses and unary minus signs an expression may nest: each level
# is a few Python frames of the descent, so deeper input is refused before
# it can reach the interpreter's recursion limit
NEST_LIMIT = 150


class _RatParser:
    """Recursive-descent parser producing (numerator, denominator) pairs.

    Division is an ordinary operator on rational functions, so "3/4" and
    "x/(y-1)" both parse; callers that need a polynomial reject nonconstant
    denominators afterwards.  Parentheses and unary minus signs nest at
    most ``NEST_LIMIT`` deep.
    """

    def __init__(self, text: str, vars: tuple[str, ...], start: int, end: int):
        self.text = text
        self.end = end
        self.vars = vars
        self.tokens: list[tuple[str, str, int]] = []
        pos = start
        while pos < end:
            m = _TOKEN.match(text, pos, end)
            if not m:
                if text[pos:end].strip():
                    raise ParseError("unexpected character", text, pos)
                break
            if m.group(1):
                self.tokens.append(("num", m.group(1), m.start(1)))
            elif m.group(2):
                self.tokens.append(("name", m.group(2), m.start(2)))
            else:
                self.tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, self.end)
        self.i += 1
        return tok

    def nest(self, tok) -> None:
        """Open one level at ``tok``, a parenthesis or a unary minus."""
        self.depth += 1
        if self.depth > NEST_LIMIT:
            raise ParseError(f"expression nested more than {NEST_LIMIT} deep",
                             self.text, tok[2])

    # rational function arithmetic on (num, den) pairs ---------------

    def parse(self) -> tuple[Poly, Poly]:
        result = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", self.text, tok[2])
        return result

    def expr(self):
        acc = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.take()
                (an, ad), (bn, bd) = acc, self.term()
                bn = -bn if tok[1] == "-" else bn
                self.fits(tok, "product", (an, bd), (bn, ad), (ad, bd))
                acc = (an * bd + bn * ad, ad * bd)
            else:
                return acc

    def term(self):
        acc = self.unary()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.take()
                (an, ad), (bn, bd) = acc, self.unary()
                if tok[1] == "/":
                    if bn.is_zero:
                        raise ParseError("division by zero", self.text, tok[2])
                    bn, bd = bd, bn
                self.fits(tok, "product", (an, bn), (ad, bd))
                acc = (an * bn, ad * bd)
            else:
                return acc

    def unary(self):
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.nest(self.take())
            n, d = self.unary()
            self.depth -= 1
            return (-n, d)
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            etok = self.take()
            if etok[0] != "num":
                raise ParseError("exponent must be a nonnegative integer", self.text, etok[2])
            e = int(etok[1])
            if e >= EXP_LIMIT:
                raise ParseError(f"exponent {e} too large", self.text, etok[2])
            n, d = base
            self.fits(tok, "power", (n,), (d,), power=e)
            return (n ** e, d ** e)
        return base

    def fits(self, tok, what: str, *products: tuple[Poly, ...], power: int = 1):
        """Refuse, at the operator ``tok``, an exponent that overflows."""
        for factors in products:
            check_exponent(what, top_exponent(factors, power),
                           lambda msg: ParseError(msg, self.text, tok[2]))

    def atom(self):
        tok = self.take()
        kind, val, pos = tok
        one = Poly.const(self.vars, 1)
        if kind == "num":
            return (Poly.const(self.vars, int(val)), one)
        if kind == "name":
            if val not in self.vars:
                raise ParseError(f"unknown variable {val!r}", self.text, pos)
            return (Poly.var(self.vars, val), one)
        if kind == "op" and val == "(":
            self.nest(tok)
            inner = self.expr()
            closing = self.take()
            if closing[:2] != ("op", ")"):
                raise ParseError("expected ')'", self.text, closing[2])
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {val!r}", self.text, pos)


def _infer_vars(text: str, start: int, end: int) -> tuple[str, ...]:
    names = set()
    for m in _NAME.finditer(text, start, end):
        if not _VAR_NAME.match(m.group()):
            raise ParseError(f"unknown variable {m.group()!r}", text, m.start())
        names.add(m.group())

    def order(name: str):
        if len(name) == 1:
            return (0, "xyzw".index(name))
        return (1, int(name[1:]))

    return tuple(sorted(names, key=order))


def parse_ratfunc(text: str, vars: Sequence[str], start: int = 0,
                  end: int | None = None) -> tuple[Poly, Poly]:
    """Parse the rational-function expression text[start:end]; returns
    (numerator, denominator).  Error positions are positions in text."""
    end = len(text) if end is None else end
    return _RatParser(text, tuple(vars), start, end).parse()


def parse_poly(text: str, vars: Sequence[str] | None = None, start: int = 0,
               end: int | None = None) -> Poly:
    """Parse the polynomial text[start:end] (all of text by default).

    Variables may be supplied explicitly; otherwise they are inferred from
    the names occurring in the text (recognized names: x, y, z, w, x0, x1,
    ...), ordered canonically.  Error positions are positions in text.
    """
    end = len(text) if end is None else end
    if vars is None:
        vars = _infer_vars(text, start, end)
    num, den = parse_ratfunc(text, vars, start, end)
    if not den.is_constant:
        raise ParseError("expression is not a polynomial (nonconstant denominator)",
                         text, start)
    return num / den.constant_value()


# ---------------------------------------------------------------------------
# tuple-level operations
# ---------------------------------------------------------------------------

def compose_tuple(outer: Sequence[Poly], inner: Sequence[Poly]) -> tuple[Poly, ...]:
    """Substitute the inner tuple into each entry of the outer tuple."""
    inner = tuple(inner)
    return tuple(p.compose(inner) for p in outer)


def compose_monomial_linear(outer: Sequence[Poly], scales: Sequence,
                            rows: Sequence[Sequence[int]],
                            linear: Sequence[Poly]) -> tuple[Poly, ...]:
    """The outer tuple after g, where g_i = scales[i] * prod_j linear[j]^rows[i][j]
    for independent linear forms, less a common factor that is a product of
    the linear forms.

    A term c * X^e becomes c * prod_i scales[i]^e_i times the monomial
    e * rows in the linear forms: exponent arithmetic on the packed keys,
    with no product of polynomials.  The common monomial of the results
    then comes off the keys, and the linear forms are substituted: by a
    ``translate`` in the chart of the last variable when each form is a
    multiple of one variable plus a multiple of the last (the variables
    all different), else by ``compose``.  ``primitive_tuple`` of the
    answer is that of ``compose_tuple(outer, g)``.
    """
    vars = linear[0].vars
    n = len(vars) - 1
    last = WIDTH * n
    units = [1 << (WIDTH * k) for k in range(n + 1)]
    coefs = [[Fraction(p.coeffs.get(u, 0), p.den) for u in units] for p in linear]
    heads = [[k for k in range(n) if c[k]] for c in coefs]
    shifts = [Fraction(0)] * n
    targets = sorted(h[0] if h else n for h in heads if len(h) <= 1)
    if targets == list(range(n + 1)):
        # x_k + s_k * x_n after folding each lead coefficient into the scales
        scales = list(scales)
        moved = []
        for j, (c, h) in enumerate(zip(coefs, heads)):
            k = h[0] if h else n
            for i, row in enumerate(rows):
                scales[i] *= c[k] ** row[j]
            if h:
                shifts[k] = c[n] / c[k]
            moved.append(k)
        rows = [[row[moved.index(k)] for k in range(n + 1)] for row in rows]
    else:
        moved = None
    packed = [sum(e << (WIDTH * k) for k, e in enumerate(row)) for row in rows]
    steps = list(zip(range(0, last + 1, WIDTH), packed))
    fracs = [Fraction(s) for s in scales]
    mapped = []
    for p in outer:
        # c * prod (a_i/b_i)^e_i over the scale den * prod b_i^T_i, with T_i
        # the top exponent of variable i in p, as in ``evaluate``
        den, tables = p.den, []
        for q, (s, _step) in zip(fracs, steps):
            top = max(((k >> s) & MASK for k in p.coeffs), default=0)
            apow, bpow = [1], [1]
            for _ in range(top):
                apow.append(apow[-1] * q.numerator)
                bpow.append(bpow[-1] * q.denominator)
            tables.append([apow[e] * bpow[top - e] for e in range(top + 1)])
            den *= bpow[top]
        out: dict[int, int] = {}
        for k, c in p.coeffs.items():
            key = 0
            for (s, step), table in zip(steps, tables):
                e = (k >> s) & MASK
                key += e * step
                c *= table[e]
            out[key] = out.get(key, 0) + c  # a singular rows matrix merges terms
        mapped.append(Poly(vars, den, out))
    _mono, mapped = _common_monomial(mapped)
    if moved is None:
        return tuple(p.compose(linear) for p in mapped)
    if not any(shifts):
        return tuple(mapped)
    return tuple(p.dehomogenize().translate(shifts).homogenize(vars[n], p.degree())
                 for p in mapped)


def primitive_tuple(polys: Sequence[Poly]) -> tuple[Poly, ...]:
    """Divide out the common polynomial factor and normalize signs.

    The result is integer-primitive with the first nonzero entry having a
    positive leading coefficient; applying it twice is the identity.
    """
    quotients = _cofactors(polys)[1]
    s = _primitive_scale(quotients)
    return tuple(p * s for p in quotients)


def _primitive_scale(polys: Sequence[Poly]) -> Fraction:
    """The rational s for which s * polys is jointly integer-primitive and
    the first nonzero entry has a positive leading coefficient; 1 when every
    entry is zero.  Every scale and sign of a normal form in this module
    comes from here."""
    L = math.lcm(*(p.den for p in polys))
    g = math.gcd(*(c * (L // p.den) for p in polys for c in p.coeffs.values()))
    if not g:
        return Fraction(1)
    first = next(p for p in polys if p.coeffs)
    return Fraction(L if first.leading()[1] > 0 else -L, g)


def jacobian_det(polys: Sequence[Poly]) -> Poly:
    """Determinant of the matrix of partial derivatives."""
    polys = tuple(polys)
    if not polys:
        raise ValueError("empty tuple")
    vars = polys[0].vars
    if len(polys) != len(vars):
        raise ValueError("need as many entries as variables")
    rows = [[p.derivative(v) for v in vars] for p in polys]
    return _det(rows, vars)


def _det(rows: list[list[Poly]], vars: tuple[str, ...]) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = Poly.zero(vars)
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * _det(minor, vars)
        total = total + term if j % 2 == 0 else total - term
    return total


# ---------------------------------------------------------------------------
# division: one native reduction
# ---------------------------------------------------------------------------

def poly_exact_div(a: Poly, b: Poly) -> Poly:
    """Quotient a/b when b divides a exactly."""
    q, r = _divmod(a, b)
    if r.coeffs:
        raise ValueError("not an exact division")
    return q


def strip_factor(a: Poly, b: Poly) -> tuple[Poly, int]:
    """(a / b^k, k) for the largest k such that b^k divides a exactly: the
    quotients of ``_divmod`` until a remainder is left."""
    if a.is_zero or b.is_constant:
        raise ValueError("every power divides: a is zero or b is constant")
    k = 0
    while True:
        q, r = _divmod(a, b)
        if r.coeffs:
            return a, k
        a, k = q, k + 1


def poly_mod(a: Poly, b: Poly) -> Poly:
    """Normal form of a modulo b: the remainder of ``_divmod``."""
    if b.is_zero:
        raise ValueError("mod by the zero polynomial")
    return _divmod(a, b)[1]


def _divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(q, r) with a == q * b + r, where no term of r is divisible by the
    graded-lex leading term of b; (a / c, 0) for a constant b = c.  So r is
    zero exactly when b divides a, and then q is the quotient.

    The remainder does not depend on the reduction order (one divisor is
    its own Groebner basis), so reducible terms are cancelled from a
    worklist, largest first.  The work is on integers: ``cur / scale`` is
    the running remainder and ``quo * b.den / scale`` the running quotient,
    and ``scale`` grows, rescaling both, only when the leading coefficient
    of b does not divide the coefficient being cancelled.

    The worklist runs on graded keys, one integer per monomial whose order
    is the graded-lex order: the total degree in the top field, then
    e_0, ..., e_(n-1) in fields of WIDTH + 1 bits, each with a guard bit
    above the exponent.  A graded key is additive over monomial products,
    and t is divisible by the leading monomial bk exactly when every guard
    bit survives ``(t | G) - bk``.  The keys are packed again at the end.
    """
    if a.vars != b.vars:
        raise ValueError("variable mismatch")
    if b.is_constant:
        return a / b.constant_value(), Poly.zero(a.vars)
    n = len(a.vars)
    fields = [((WIDTH + 1) * (n - 1 - i), WIDTH * i) for i in range(n)]
    top = (WIDTH + 1) * n
    guards = sum(1 << (f + WIDTH) for f, _s in fields)

    def graded(k: int) -> int:
        return sum(((k >> s) & MASK) << f for f, s in fields) | (_key_total(k) << top)

    def packed(g: int) -> int:
        return sum(((g >> f) & MASK) << s for f, s in fields)

    terms = [(graded(k), c) for k, c in b.coeffs.items()]
    bk, lead = max(terms)
    tail = [(k, c) for k, c in terms if k != bk]
    scale = a.den
    cur = {graded(k): c for k, c in a.coeffs.items()}
    quo: dict[int, int] = {}
    heap = [-k for k in cur]
    heapq.heapify(heap)
    while heap:
        t = -heapq.heappop(heap)
        c = cur.get(t)
        if c is None or ((t | guards) - bk) & guards != guards:
            continue
        if c % lead:
            m = abs(lead) // math.gcd(c, lead)
            scale *= m
            cur = {k: v * m for k, v in cur.items()}
            quo = {k: v * m for k, v in quo.items()}
            c *= m
        q = c // lead
        del cur[t]
        base = t - bk
        quo[base] = q  # each t is popped once, so each base is new
        # every new key is below t, so none of them has been popped yet
        for tk, tc in tail:
            nk = base + tk
            nv = cur.get(nk)
            if nv is None:
                cur[nk] = -q * tc
                heapq.heappush(heap, -nk)
            elif nv == q * tc:
                del cur[nk]
            else:
                cur[nk] = nv - q * tc
    return (Poly(a.vars, scale, {packed(k): v for k, v in quo.items()}) * b.den,
            Poly(a.vars, scale, {packed(k): v for k, v in cur.items()}))


# ---------------------------------------------------------------------------
# univariate: common rational roots, on integer coefficient lists
# ---------------------------------------------------------------------------

def _common_rational_roots(polys: Sequence[Poly], name: str
                           ) -> tuple[list[Fraction], Poly | None]:
    """The distinct rational common roots of polynomials in the variable
    ``name`` alone, sorted, and None when their gcd splits into those roots
    over the rationals, else that gcd (so that a caller can name a factor).

    Each polynomial becomes a dense list of integer coefficients, constant
    term first.  The gcd g is the heuristic gcd (``_ugcd``), its squarefree
    part is g / gcd(g, g'), and the roots of that part are found p-adically
    (``_uroots``) and checked exactly.  g splits when the part has as many
    rational roots as its degree.
    """
    shift = WIDTH * polys[0].vars.index(name)
    g = None
    for p in polys:
        if not p.coeffs:
            continue
        if any(k & ~(MASK << shift) for k in p.coeffs):
            raise ValueError(f"{p} is not a polynomial in {name} alone")
        a = [0] * ((max(p.coeffs) >> shift) + 1)
        for k, c in p.coeffs.items():
            a[k >> shift] = c
        g = _uprimitive(a) if g is None else _ugcd(g, _uprimitive(a))
        if len(g) == 1:
            break
    if g is None:
        raise ValueError("common roots of all-zero sequence")
    if len(g) == 1:
        return [], None
    part = _uquo(g, _ugcd(g, _uprimitive([i * c for i, c in enumerate(g)][1:])))
    degree = len(part) - 1
    roots = []
    if not part[0]:
        # a squarefree part has the factor t at most once
        roots.append(Fraction(0))
        part = part[1:]
    if len(part) > 1:
        roots += _uroots(part)
    roots.sort()
    if len(roots) == degree:
        return roots, None
    return roots, Poly(polys[0].vars, 1, {i << shift: c for i, c in enumerate(g)})


def _uprimitive(a: list[int]) -> list[int]:
    """A nonzero coefficient list divided by its content, with the sign that
    makes the leading coefficient positive."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _ueval(a: list[int], x: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _uquo(a: list[int], b: list[int]) -> list[int] | None:
    """a / b when b divides a in Z[t], else None."""
    m = len(b) - 1
    if len(a) <= m:
        return None
    r = list(a)
    lead = b[-1]
    q = [0] * (len(a) - m)
    for i in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[i + m], lead)
        if rest:
            return None
        if c:
            q[i] = c
            for j in range(m):
                r[i + j] -= c * b[j]
    return None if any(r[:m]) else q


def _ugcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd of two primitive coefficient lists with positive leading
    coefficients, by GCDHEU (Char, Geddes and Gonnet, J. Symb. Comput.
    1989): the integer gcd of a(xi) and b(xi), read back in base xi with
    symmetric digits, is a candidate h; pp(h) is the gcd when it divides a
    and b exactly.  Else xi grows and the step repeats.

    With B the smaller max-norm of a and b and xi > 2B + 2, a candidate that
    divides both is the gcd: were gcd = pp(h) * k with k not constant, k
    would divide a, so its roots have modulus below B + 1 and
    |k(xi)| > xi/2; but k(xi) divides the content of h, whose digits are at
    most xi/2.  A candidate is also found: past twice the norm of the gcd
    times the resultant of the cofactors, h is a multiple of the gcd.
    """
    if len(a) == 1 or len(b) == 1:
        return [1]
    # a margin above 2B + 2 makes a failed first try rare on small norms,
    # and xi grows by about 1 + sqrt(3) per try, as in GCDHEU
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    while True:
        gamma = math.gcd(_ueval(a, xi), _ueval(b, xi))
        h = []
        while gamma:
            d = gamma % xi
            if 2 * d > xi:
                d -= xi
            h.append(d)
            gamma = (gamma - d) // xi
        h = _uprimitive(h)
        if len(h) == 1 or (_uquo(a, h) is not None and _uquo(b, h) is not None):
            return h
        xi = xi * 73794 // 27011


def _uroots(s: list[int]) -> list[Fraction]:
    """The rational roots of a squarefree primitive s with s(0) != 0, by
    p-adic lifting (Loos, SIAM J. Comput. 1983).

    A root a/b in lowest terms has b | lc and a | tc.  For a prime p that
    does not divide lc and at which every root of s mod p is simple, each
    rational root reduces to one of those roots, which Newton's iteration
    lifts to the unique root mod p^k.  Once p^k > 2 |lc * tc|, the symmetric
    residue of lc * r is a * (lc / b) itself.  A candidate is kept only
    when s vanishes there exactly.
    """
    lead, ds = s[-1], [i * c for i, c in enumerate(s)][1:]
    bound = 2 * abs(lead * s[0])
    p = 1
    while True:
        p += 1
        if lead % p == 0 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        low = [r for r in range(p) if _ueval(s, r) % p == 0]
        if all(_ueval(ds, r) % p for r in low):
            break
    roots = []
    for r in low:
        m = p
        while m <= bound:
            m *= m
            r = (r - _ueval(s, r) * pow(_ueval(ds, r), -1, m)) % m
        c = lead * r % m
        if 2 * c > m:
            c -= m
        root = Fraction(c, lead)
        a, b = root.numerator, root.denominator
        v, bp = s[-1], 1
        for coef in reversed(s[:-1]):
            bp *= b
            v = v * a + coef * bp
        if not v:
            roots.append(root)
    return roots


# ---------------------------------------------------------------------------
# sympy bridge: gcd, factorization, nullspaces
# ---------------------------------------------------------------------------

@functools.cache
def _symbols(vars: tuple[str, ...]):
    return tuple(sympy.symbols(vars)) if len(vars) > 1 else (sympy.Symbol(vars[0]),)


def _to_zz(p: Poly) -> "sympy.Poly":
    """``den * p`` as a sympy polynomial on ZZ, from the integer numerators."""
    n = len(p.vars)
    conv = sympy.ZZ.dtype  # int, or gmpy2's mpz when sympy uses it
    rep = {unpack(k, n): conv(c) for k, c in p.coeffs.items()}
    return sympy.Poly.new(DMP.from_dict(rep, n - 1, sympy.ZZ), *_symbols(p.vars))


def _from_zz(sp, vars: tuple[str, ...], den: int = 1) -> Poly:
    """``sp / den`` for a ZZ sympy polynomial over the generators ``vars``."""
    return Poly(vars, den, {pack(e): int(c) for e, c in sp.rep.to_dict().items()})


def linear_relations(vectors: Sequence[Sequence[Poly]]) -> list[tuple[int, ...]]:
    """A basis of the integer vectors c with sum_j c[j] * vectors[j] == 0.

    Each vector is a tuple of polynomials on common variables, compared
    entry by entry; the basis is the nullspace, over the rationals, of the
    matrix whose column j holds the coefficients of vectors[j].
    """
    # one row per (entry, monomial), as a sparse {column: value} dict
    rows: dict[tuple[int, int], dict[int, int]] = {}
    scales = []
    for j, vec in enumerate(vectors):
        scale = math.lcm(*(p.den for p in vec))
        scales.append(scale)
        for i, p in enumerate(vec):
            for k, c in p.coeffs.items():
                rows.setdefault((i, k), {})[j] = sympy.ZZ(c * (scale // p.den))
    # column j holds scales[j] * vectors[j], so a relation c' among the
    # columns is the relation c'[j] * scales[j] among the vectors
    matrix = DomainMatrix(dict(enumerate(rows.values())),
                          (len(rows), len(scales)), sympy.ZZ)
    basis = matrix.nullspace()
    return [tuple(int(c) * s for c, s in zip(vec, scales))
            for vec in basis.to_list()]


def canonical_factor(p: Poly) -> Poly:
    """Scale to integer-primitive form with positive leading coefficient."""
    return p * _primitive_scale((p,))


def poly_gcd(*polys: Poly) -> Poly:
    """The canonical gcd of polynomials on common variables; 0 if all are 0."""
    if not any(p.coeffs for p in polys):
        return polys[0]
    return canonical_factor(_cofactors(polys)[0])


def _chart(polys: Sequence[Poly]):
    """The one passage to an affine chart: ``(work, back)``.  Homogeneous
    polynomials in two or more variables go to the chart where the last
    variable is 1, saving a nesting level of sympy's dense recursion, and
    ``back(q, d)`` brings an answer q home as the form of degree d (by
    default its own degree).  Any other input stays as it is, and so do the
    answers."""
    vars = polys[0].vars
    if len(vars) < 2 or not all(p.is_homogeneous() for p in polys):
        return polys, lambda q, d=None: q
    return ([p.dehomogenize() for p in polys],
            lambda q, d=None: q.homogenize(vars[-1], d))


def _common_monomial(polys: Sequence[Poly]) -> tuple[int, list[Poly]]:
    """The packed key of the largest monomial dividing every term of the
    given polynomials (0 when they are all zero), and the polynomials
    divided by it, on the packed keys."""
    vars = polys[0].vars
    mono = sum(min((((k >> s) & MASK) for p in polys for k in p.coeffs), default=0) << s
               for s in range(0, WIDTH * len(vars), WIDTH))
    if mono:
        polys = [Poly(vars, p.den, {k - mono: c for k, c in p.coeffs.items()})
                 for p in polys]
    return mono, list(polys)


def _cofactors(polys: Sequence[Poly]) -> tuple[Poly, tuple[Poly, ...]]:
    """A gcd g of polynomials on common variables, not all zero, and each
    entry divided by g; zero entries stay zero.  The common monomial comes
    off the packed keys, and when an entry is then one term the rest of g
    is 1.  Else sympy's cofactors give the rest with the quotients, entry by
    entry until it is constant, in the ``_chart`` of the entries: once the
    monomial is off, homogeneous entries share no power of the last
    variable, so the chart loses none of g."""
    nz = [p for p in polys if p.coeffs]
    if not nz:
        raise ValueError("gcd of all-zero sequence")
    vars = nz[0].vars
    if any(p.vars != vars for p in polys):
        raise ValueError("variable mismatch")
    mono, nz = _common_monomial(nz)
    g = Poly(vars, 1, {mono: 1})
    quotients = iter(nz)
    if all(len(p.coeffs) > 1 for p in nz):
        work, back = _chart(nz)
        h = _to_zz(work[0])
        cofs = [h.one]
        for p in work[1:]:
            # the earlier quotients gain what the running gcd h loses
            h, cff, cfg = h.cofactors(_to_zz(p))
            if h.is_ground:  # g stays the common monomial
                break
            cofs = [c * cff for c in cofs] + [cfg]
        else:
            h = back(_from_zz(h, work[0].vars))
            qs = [back(_from_zz(c, w.vars, w.den), p.degree() - h.degree())
                  for c, w, p in zip(cofs, work, nz)]
            g = Poly(vars, h.den, {k + mono: c for k, c in h.coeffs.items()})
            quotients = iter(qs)
    return g, tuple(next(quotients) if p.coeffs else p for p in polys)


def factor_q(p: Poly) -> tuple[Fraction, tuple[tuple[Poly, int], ...]]:
    """Factor over the rationals.

    Returns (unit, ((factor, multiplicity), ...)) with each factor
    irreducible, integer-primitive, positive leading coefficient, sorted
    by (degree, text) for determinism.  unit * prod(factor^mult) == p.
    sympy factors p in its ``_chart``; a homogeneous p gets back, beside the
    homogenized factors of the chart, the power of the last variable that
    the chart drops.  A monomial is factored into its variables without
    sympy.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if p.is_constant:
        return p.constant_value(), ()
    if len(p.coeffs) == 1:
        (key, c), = p.coeffs.items()
        out = [(Poly.var(p.vars, v), e)
               for v, e in zip(p.vars, unpack(key, len(p.vars))) if e]
        out.sort(key=lambda t: poly_str(t[0]))
        return Fraction(c, p.den), tuple(out)
    (chart,), back = _chart((p,))
    coeff, factors = _to_zz(chart).factor_list()
    unit = Fraction(int(coeff), p.den)
    out = []
    for f, mult in factors:
        fp = back(_from_zz(f, chart.vars))
        s = _primitive_scale((fp,))
        out.append((fp * s, int(mult)))
        unit /= s ** int(mult)
    k = p.degree() - chart.degree()  # the power of the last variable the chart drops
    if k:
        out.append((Poly.var(p.vars, p.vars[-1]), k))
    out.sort(key=lambda t: (t[0].degree(), poly_str(t[0])))
    return unit, tuple(out)
