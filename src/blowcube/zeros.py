"""Common rational zeros of plane polynomial systems, decided exactly.

The resolver needs the rational members of a finite zero set, plus a
trustworthy signal when the set also contains points that are not defined
over the rationals.  Everything here is exact: linear branches are solved by
parametrisation, univariate branches by factoring, and genuinely bivariate
irreducible branches by a resultant whose non-rational factors are settled
with a gcd computed over the number field Q[s]/(m).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import EliminationCapExceeded, ResolutionError
from .maps import ProjPoint, normalize_point
from .poly import (Poly, content_gcd, factor_q, poly_divides, poly_gcd,
                   resultant)

# Branches whose resultant would exceed this degree raise instead of
# grinding through a huge univariate factorisation.
RES_CAP = 64


def _linear_root(fac: Poly, name: str) -> Fraction:
    i = fac.vars.index(name)
    unit = tuple(int(j == i) for j in range(len(fac.vars)))
    a = fac.coefficient(unit)
    c = fac.coefficient((0,) * len(fac.vars))
    return -c / a


def _rational_roots(g: Poly, name: str) -> tuple[set[Fraction], bool]:
    """Rational roots of a univariate polynomial, plus an
    irreducible-of-higher-degree flag."""
    roots: set[Fraction] = set()
    flag = False
    _, facs = factor_q(g)
    for fac, _m in facs:
        if fac.degree() == 1:
            roots.add(_linear_root(fac, name))
        else:
            flag = True
    return roots, flag


# ---------------------------------------------------------------------------
# univariate arithmetic over Q and over Q[s]/(m)
#
# Polynomials are lists of Fractions, ascending degree, no trailing zeros.
# Field elements of K = Q[s]/(m) are tuples of Fractions of length deg(m).
# ---------------------------------------------------------------------------

def _trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _list_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _list_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(r) >= len(b) and _trim(r):
        if not r:
            break
        shift = len(r) - len(b)
        c = r[-1] / lead
        q[shift] = c
        for i, y in enumerate(b):
            r[shift + i] -= c * y
        _trim(r)
    return _trim(q), r


def _xgcd_lists(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = _trim(list(a)), _trim(list(b))
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]

    def sub_scaled(u, q, v):
        prod = _list_mul(q, v)
        out = [Fraction(0)] * max(len(u), len(prod))
        for i, x in enumerate(u):
            out[i] += x
        for i, x in enumerate(prod):
            out[i] -= x
        return _trim(out)

    while r1:
        q, r = _list_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub_scaled(s0, q, s1)
        t0, t1 = t1, sub_scaled(t0, q, t1)
    if not r0:
        raise ValueError("xgcd of zero polynomials")
    lead = r0[-1]
    inv = 1 / lead
    return ([c * inv for c in r0], [c * inv for c in s0], [c * inv for c in t0])


def _univar_coeffs(p: Poly, name: str) -> list[Fraction]:
    i = p.vars.index(name)
    out = [Fraction(0)] * (max(p.degree_in(name), 0) + 1)
    for exps, c in p.terms():
        if any(e for j, e in enumerate(exps) if j != i):
            raise ValueError(f"{p} is not univariate in {name}")
        out[exps[i]] += c
    return _trim(out)


class _Field:
    """Arithmetic in K = Q[s]/(m) for an irreducible monic modulus m."""

    def __init__(self, m: list[Fraction]):
        lead = m[-1]
        self.m = [c / lead for c in m]
        self.deg = len(m) - 1

    def elt(self, coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        _, r = _list_divmod(_trim(list(coeffs)), self.m)
        return tuple(r) + (Fraction(0),) * (self.deg - len(r))

    @property
    def zero(self):
        return (Fraction(0),) * self.deg

    def is_zero(self, a) -> bool:
        return all(c == 0 for c in a)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        return self.elt(_list_mul(list(a), list(b)))

    def inv(self, a):
        g, s, _t = _xgcd_lists(list(a), self.m)
        if len(g) != 1:
            raise ValueError("modulus is not irreducible")
        return self.elt([c / g[0] for c in s])


def _kx_from_poly(q: Poly, mainvar: str, modvar: str, K: _Field):
    """q as a polynomial in mainvar with coefficients in K (ascending)."""
    mi = q.vars.index(mainvar)
    vi = q.vars.index(modvar)
    raw: dict[int, list[Fraction]] = {}
    for exps, c in q.terms():
        if any(e for j, e in enumerate(exps) if j not in (mi, vi)):
            raise ValueError("unexpected extra variable")
        cs = raw.setdefault(exps[mi], [])
        while len(cs) <= exps[vi]:
            cs.append(Fraction(0))
        cs[exps[vi]] += c
    if not raw:
        return []
    out = [K.zero] * (max(raw) + 1)
    for e, cs in raw.items():
        out[e] = K.elt(cs)
    while out and K.is_zero(out[-1]):
        out.pop()
    return out


def _kx_divmod(a, b, K: _Field):
    r = list(a)
    lead_inv = K.inv(b[-1])
    while len(r) >= len(b):
        c = K.mul(r[-1], lead_inv)
        shift = len(r) - len(b)
        for i, y in enumerate(b):
            r[shift + i] = K.add(r[shift + i], tuple(-v for v in K.mul(c, y)))
        while r and K.is_zero(r[-1]):
            r.pop()
        if len(r) < len(b):
            break
    return r


def _kx_gcd_degree(polys, K: _Field) -> int:
    """Degree of the gcd in K[mainvar] of the given coefficient lists."""
    acc = None
    for p in polys:
        a, b = (acc, p) if acc is not None else (p, None)
        if b is not None:
            while b:
                a, b = b, _kx_divmod(a, b, K)
        acc = a
        if len(acc) == 1:
            break
    return len(acc) - 1


def _field_gcd_nonconstant(m_poly: Poly, modvar: str, mainvar: str,
                           polys: Sequence[Poly]) -> bool:
    """True when the system has a common zero above an irrational root of
    m_poly: the gcd over K = Q[modvar]/(m) in mainvar is nonconstant."""
    K = _Field(_univar_coeffs(m_poly, modvar))
    reduced = []
    for q in polys:
        kq = _kx_from_poly(q, mainvar, modvar, K)
        if not kq:
            continue  # q vanishes identically on the m-locus
        if len(kq) == 1:
            return False  # a unit: no common zero above m at all
        reduced.append(kq)
    if not reduced:
        raise ValueError("system vanishes on a positive-dimensional locus")
    return _kx_gcd_degree(reduced, K) >= 1


# ---------------------------------------------------------------------------
# zero search proper
# ---------------------------------------------------------------------------

def _leading_coeff_in(p: Poly, name: str) -> Poly:
    i = p.vars.index(name)
    d = p.degree_in(name)
    terms = [(tuple(0 if j == i else e for j, e in enumerate(exps)), c)
             for exps, c in p.terms() if exps[i] == d]
    return Poly.from_terms(p.vars, terms)


def _zeros_on_factor(F: Poly, others: Sequence[Poly]):
    """Rational zeros of the system restricted to the irreducible curve F=0."""
    survivors = [q for q in others if not poly_divides(F, q)]
    if not survivors:
        raise ValueError("common zero locus contains the curve "
                         f"{F} (not zero-dimensional)")
    pts: set[tuple[Fraction, Fraction]] = set()
    flag = False
    xd, yd = F.degree_in("x"), F.degree_in("y")
    x_poly = Poly.var(F.vars, "x")

    if F.degree() == 1:
        a = F.coefficient((1, 0))
        b = F.coefficient((0, 1))
        c = F.coefficient((0, 0))
        if b != 0:
            # parametrise by x: y = -(a x + c)/b
            line = x_poly * (-a / b) + (-c / b)
            restricted = [q.compose((x_poly, line)) for q in survivors]
            g = content_gcd(restricted)
            roots, irr = _rational_roots(g, "x")
            flag |= irr
            for t in roots:
                pts.add((t, (-a * t - c) / b))
        else:
            x0 = -c / a
            restricted = [q.set_var("x", x0) for q in survivors]
            g = content_gcd(restricted)
            roots, irr = _rational_roots(g, "y")
            flag |= irr
            for y0 in roots:
                pts.add((x0, y0))
        return pts, flag

    if xd == 0:
        # univariate irreducible in y of degree >= 2: only irrational y
        flag |= _field_gcd_nonconstant(F, "y", "x", survivors)
        return pts, flag
    if yd == 0:
        flag |= _field_gcd_nonconstant(F, "x", "y", survivors)
        return pts, flag

    # genuinely bivariate irreducible branch: eliminate x
    partner = min(survivors, key=lambda q: (q.degree(), len(q.coeffs)))
    if F.degree() * partner.degree() > RES_CAP:
        raise EliminationCapExceeded(
            f"resultant degree {F.degree() * partner.degree()} exceeds "
            f"the cap {RES_CAP} on the branch {F} = 0")
    candidates = [resultant(F, partner, "x")]
    lc = poly_gcd(_leading_coeff_in(F, "x"), _leading_coeff_in(partner, "x"))
    if not lc.is_constant:
        candidates.append(lc)
    y_values: set[Fraction] = set()
    moduli: dict[tuple, Poly] = {}
    for cand in candidates:
        if cand.is_zero:
            raise ValueError("unexpected zero resultant on a coprime branch")
        if cand.is_constant:
            continue
        _, facs = factor_q(cand)
        for fac, _m in facs:
            if fac.degree() == 1:
                y_values.add(_linear_root(fac, "y"))
            else:
                moduli[fac.key()] = fac
    system = [F, *survivors]
    for y0 in sorted(y_values):
        specialized = [q.set_var("y", y0) for q in system]
        nz = [q for q in specialized if not q.is_zero]
        if any(q.is_constant for q in nz):
            continue
        g = content_gcd(nz)
        roots, irr = _rational_roots(g, "x")
        flag |= irr
        for x0 in roots:
            pts.add((x0, y0))
    for m_poly in moduli.values():
        if _field_gcd_nonconstant(m_poly, "y", "x", system):
            flag = True
    return pts, flag


def affine_common_zeros(qs: Sequence[Poly]):
    """Rational common zeros of polynomials in (x, y) with a finite zero set.

    Returns (points, flag); the flag reports that common zeros outside the
    rationals were certified to exist.  Raises ValueError when the common
    zero locus is not finite.
    """
    seen: dict[tuple, Poly] = {}
    for q in qs:
        if not q.is_zero:
            seen[q.key()] = q
    system = list(seen.values())
    if not system:
        raise ValueError("identically zero system")
    if any(q.is_constant for q in system):
        return set(), False
    if len(system) < 2 or not content_gcd(system).is_constant:
        raise ValueError("common zero locus is positive-dimensional")

    best = None
    for q in sorted(system, key=lambda p: (p.degree(), len(p.coeffs))):
        _, facs = factor_q(q)
        hard = 0
        for fac, _m in facs:
            if fac.degree() == 1:
                continue
            if fac.degree_in("x") == 0 or fac.degree_in("y") == 0:
                continue
            hard = max(hard, fac.degree())
        if best is None or hard < best[0]:
            best = (hard, q, facs)
        if hard == 0:
            break
    _, pivot, facs = best
    others = [q for q in system if q.key() != pivot.key()]
    pts: set[tuple[Fraction, Fraction]] = set()
    flag = False
    for fac, _m in facs:
        p2, f2 = _zeros_on_factor(fac, others)
        pts |= p2
        flag |= f2
    for (x0, y0) in pts:
        if not all(q.evaluate((x0, y0)) == 0 for q in system):
            raise ResolutionError(
                f"({x0}, {y0}) is not a common zero of the system")
    return pts, flag


def projective_rational_zeros(entries: Sequence[Poly]):
    """Rational common zeros in P^2 of a primitive homogeneous triple.

    Returns (points, flag) with points sorted and normalized; the flag is
    True when the zero set provably contains non-rational points.
    """
    pts: set[ProjPoint] = set()
    flag = False

    at_infinity = [p.set_var("z", 0) for p in entries]
    nz = [q for q in at_infinity if not q.is_zero]
    if not nz:
        raise ValueError("z divides every entry of a primitive tuple")
    g = content_gcd(nz)
    if not g.is_constant:
        _, facs = factor_q(g)
        for fac, _m in facs:
            if fac.degree() == 1:
                a = fac.coefficient((1, 0, 0))
                b = fac.coefficient((0, 1, 0))
                pts.add(normalize_point((-b, a, Fraction(0))))
            else:
                flag = True

    chart = [p.set_var("z", 1).drop_var("z") for p in entries]
    if not any(q.is_constant and not q.is_zero for q in chart):
        apts, f2 = affine_common_zeros(chart)
        flag |= f2
        for (x0, y0) in apts:
            pts.add(normalize_point((x0, y0, Fraction(1))))
    return sorted(pts), flag
