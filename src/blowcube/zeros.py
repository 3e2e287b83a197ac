"""Common rational zeros of plane polynomial systems, decided exactly.

The resolver needs the rational members of a finite zero set, plus a
trustworthy signal when the set also contains points that are not defined
over the rationals.  Everything here is exact: linear branches are solved by
parametrisation, univariate branches by factoring, and genuinely bivariate
irreducible branches by a resultant.  Whether the system has common zeros
above the irrational roots of an irreducible univariate factor m is one
ideal-membership test, ``poly.common_zero_over``; no number-field
arithmetic is done here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import EliminationCapExceeded, ResolutionError
from .maps import ProjPoint, normalize_point
from .poly import (Poly, common_zero_over, content_gcd, factor_q,
                   poly_divides, poly_gcd, resultant)

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

    if xd == 0 or yd == 0:
        # univariate irreducible of degree >= 2: only irrational zeros
        flag |= common_zero_over(F, survivors)
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
        if common_zero_over(m_poly, system):
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
