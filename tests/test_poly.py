"""Exact polynomial arithmetic, checked against naive oracles and sympy."""

import ast
import functools
import heapq
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import blowcube
from blowcube import (
    Poly,
    factor_q,
    jacobian_det,
    parse_poly,
    poly_exact_div,
    poly_gcd,
    poly_mod,
    poly_str,
)
from blowcube.errors import ParseError
from blowcube.poly import (
    MASK,
    WIDTH,
    _divmod,
    _key_total,
    canonical_factor,
    compose_tuple,
    linear_relations,
    pack,
    parse_ratfunc,
    primitive_tuple,
    strip_factor,
    top_exponent,
    unpack,
)
from blowcube.resolve import CHART_VARS

XY = ("x", "y")
XYZ = ("x", "y", "z")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def to_sympy(p: Poly) -> sympy.Poly:
    """The QQ reference conversion the bridge is compared against."""
    syms = sympy.symbols(p.vars) if len(p.vars) > 1 else (sympy.Symbol(p.vars[0]),)
    n = len(p.vars)
    data = {unpack(k, n): sympy.Rational(c, p.den) for k, c in p.coeffs.items()}
    return sympy.Poly.from_dict(data, *syms, domain=sympy.QQ)


def from_sympy(sp, vars: tuple[str, ...]) -> Poly:
    terms = []
    for exps, coeff in sp.terms():
        q = sympy.Rational(coeff)
        terms.append((tuple(int(e) for e in exps), Fraction(int(q.p), int(q.q))))
    return Poly.from_terms(vars, terms)


def as_dict(p: Poly) -> dict:
    return dict(p.terms())


def naive_mul(a: dict, b: dict) -> dict:
    """Schoolbook product on {exponent tuple: Fraction} dicts."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def rand_poly(rng: random.Random, vars=XYZ, steps=4, terms=5) -> Poly:
    entries = []
    for _ in range(rng.randint(1, terms)):
        e = [0] * len(vars)
        for _ in range(rng.randint(0, steps)):
            e[rng.randrange(len(vars))] += 1
        entries.append((tuple(e), Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
    return Poly.from_terms(vars, entries)


def rand_homogeneous(rng: random.Random, deg: int, terms=4) -> Poly:
    entries = []
    for _ in range(terms):
        a = rng.randint(0, deg)
        b = rng.randint(0, deg - a)
        entries.append(((a, b, deg - a - b), rng.randint(-6, 6)))
    p = Poly.from_terms(XYZ, entries)
    return p if not p.is_zero else Poly.from_terms(XYZ, [((deg, 0, 0), 1)])


# small hypothesis strategy: explicit term lists keep shrinking readable
coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6)
exps3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys3 = st.lists(st.tuples(exps3, coeffs), min_size=0, max_size=5).map(
    lambda ts: Poly.from_terms(XYZ, ts))


# ---------------------------------------------------------------------------
# representation basics
# ---------------------------------------------------------------------------

def test_pack_unpack_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        exps = tuple(rng.randint(0, 300) for _ in range(rng.randint(1, 4)))
        assert unpack(pack(exps), len(exps)) == exps


def test_normalization_makes_equality_semantic():
    a = parse_poly("2*x + 2*y", XY) / 2
    b = parse_poly("x + y", XY)
    assert a == b
    assert hash(a) == hash(b)
    assert a.den == 1 and a.coeffs == {pack((1, 0)): 1, pack((0, 1)): 1}


def test_constructors():
    z = Poly.zero(XY)
    assert z.is_zero and z.degree() == -1
    c = Poly.const(XY, Fraction(3, 4))
    assert c.is_constant and c.constant_value() == Fraction(3, 4)
    x = Poly.var(XYZ, "x")
    assert str(x) == "x"
    with pytest.raises(ValueError):
        Poly.var(XYZ, "w")


def test_leading_is_graded_lex():
    p = parse_poly("x*y + y^3 + x^2", XYZ)
    exps, coeff = p.leading()
    assert exps == (0, 3, 0) and coeff == 1
    assert p.coefficient((2, 0, 0)) == 1
    assert p.coefficient((5, 0, 0)) == 0


def test_degree_order_truncate():
    p = parse_poly("x^3*y + x*y + 2", XY)
    assert p.degree() == 4
    assert p.order() == 0
    assert (p - 2).order() == 2
    assert p.truncate_total(3) == parse_poly("x*y + 2", XY)
    assert p.truncate_total(0) == Poly.const(XY, 2)
    assert p.truncate_total(-1).is_zero


def test_homogenize_dehomogenize_roundtrip():
    rng = random.Random(11)
    for _ in range(30):
        p = rand_poly(rng, XY)
        h = p.homogenize("z")
        assert h.is_homogeneous()
        assert h.dehomogenize() == p
    p = parse_poly("x + 1", XY)
    assert p.homogenize("z", degree=3) == parse_poly("x*z^2 + z^3", XYZ)
    with pytest.raises(ValueError):
        p.homogenize("z", degree=0)


def test_blow_up_is_the_chart_substitution_over_the_exceptional_power():
    UT = ("u", "t")
    u, t = Poly.var(UT, "u"), Poly.var(UT, "t")
    rng = random.Random(13)
    for _ in range(60):
        m = rng.randint(0, 4)
        p = rand_poly(rng, UT, steps=7, terms=6)
        p = p - p.truncate_total(m - 1)  # order at least m
        if p.is_zero:
            continue
        assert p.blow_up("u", m) * u ** m == p.compose((u, u * t))
        assert p.blow_up("t", m) * t ** m == p.compose((u * t, t))
        for name in UT:
            with pytest.raises(ValueError, match="below the order"):
                p.blow_up(name, p.order() + 1)


# ---------------------------------------------------------------------------
# ring operations against oracles
# ---------------------------------------------------------------------------

def test_mul_matches_naive_oracle():
    rng = random.Random(3)
    for _ in range(60):
        a, b = rand_poly(rng), rand_poly(rng)
        assert as_dict(a * b) == naive_mul(as_dict(a), as_dict(b))


@settings(max_examples=60, deadline=None)
@given(polys3, polys3, polys3)
def test_ring_identities(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a
    assert a * Poly.const(XYZ, 1) == a


def test_pow_and_scalar_division():
    p = parse_poly("x + y", XY)
    assert p ** 3 == parse_poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3", XY)
    assert p ** 0 == Poly.const(XY, 1)
    assert (p * 6) / Fraction(3, 2) == p * 4
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_evaluate_and_compose_match_sympy():
    rng = random.Random(19)
    sx, sy, sz = sympy.symbols("x y z")
    for _ in range(15):
        p = rand_poly(rng)
        pt = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        sp = to_sympy(p).as_expr()
        expected = sp.subs({sx: pt[0], sy: pt[1], sz: pt[2]}, simultaneous=True)
        assert p.evaluate(pt) == Fraction(str(expected))
        entries = [rand_poly(rng, steps=2, terms=2) for _ in range(3)]
        comp = p.compose(entries)
        scomp = sympy.expand(sp.subs(
            {sx: to_sympy(entries[0]).as_expr(),
             sy: to_sympy(entries[1]).as_expr(),
             sz: to_sympy(entries[2]).as_expr()}, simultaneous=True))
        assert to_sympy(comp).as_expr() - scomp == 0


def termwise_compose(p: Poly, entries) -> Poly:
    """The term-by-term loop that compose's one integer accumulator
    replaces: a Poly for every term, partial product and partial sum."""
    out_vars = entries[0].vars
    one = Poly.const(out_vars, 1)
    result = Poly.zero(out_vars)
    for exps, q in p.terms():
        t = one * q
        for entry, e in zip(entries, exps):
            if e:
                t = t * entry ** e
        result = result + t
    return result


@pytest.mark.parametrize("vars", [XY, XYZ], ids=["into 2 vars", "into 3 vars"])
def test_compose_matches_the_termwise_loop(vars):
    rng = random.Random(f"compose into {len(vars)}")
    distinct_dens = 0
    for _ in range(40):
        p = rand_poly(rng, steps=5, terms=6)
        entries = [rand_poly(rng, vars, steps=3, terms=3) for _ in XYZ]
        distinct_dens += len({e.den for e in entries if e.den > 1}) > 1
        assert p.compose(entries) == termwise_compose(p, entries), (p, entries)
    assert distinct_dens >= 10
    # a zero and a constant outer polynomial land in the entries' variables
    entries = [rand_poly(rng, vars, steps=3, terms=3) for _ in XYZ]
    for p in (Poly.zero(XYZ), Poly.const(XYZ, Fraction(-7, 3))):
        got = p.compose(entries)
        assert got.vars == vars
        assert got == termwise_compose(p, entries)
    # x^2 - y*z at (a*b, a^2, b^2): every term cancels, or all but the 5/2
    a = parse_poly("x/2 - 3*y/5 + 1", XY)
    b = parse_poly("2*x*y/3 - 7", XY)
    for tail, want in ((0, Poly.zero(XY)), (Fraction(5, 2), Poly.const(XY, Fraction(5, 2)))):
        p = parse_poly("x^2 - y*z", XYZ) + tail
        assert p.compose([a * b, a ** 2, b ** 2]) == want
        assert termwise_compose(p, [a * b, a ** 2, b ** 2]) == want


def test_translate_matches_the_termwise_substitution():
    # translate expands each term once per exponent row; the reference
    # substitutes v + s for each variable v term by term
    rng = random.Random(71)
    for _ in range(40):
        p = rand_poly(rng, steps=6, terms=8)
        shifts = [rng.choice([0, Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
                  for _ in XYZ]
        entries = [Poly.var(XYZ, v) + s for v, s in zip(XYZ, shifts)]
        assert p.translate(shifts) == termwise_compose(p, entries), (p, shifts)


def fraction_evaluate(p: Poly, point) -> Fraction:
    """The term-by-term Fraction loop that evaluate's integer sum replaces."""
    point = [Fraction(v) for v in point]
    total = Fraction(0)
    for exps, c in p.terms():
        term = c
        for v, e in zip(point, exps):
            if e:
                term *= v ** e
        total += term
    return total


@pytest.mark.parametrize("vars", [XY, XYZ], ids=["2 vars", "3 vars"])
def test_evaluate_matches_the_fraction_loop(vars):
    rng = random.Random(len(vars))
    coords = [0, 1, -1, 5, -7, Fraction(1, 2), Fraction(-3, 4), Fraction(9, 5)]
    checked = 0
    while checked < 60:
        p = rand_poly(rng, vars, steps=6, terms=6)
        if p.den == 1:
            continue
        for _ in range(4):
            pt = tuple(rng.choice(coords) for _ in vars)
            got = p.evaluate(pt)
            assert type(got) is Fraction
            assert got == fraction_evaluate(p, pt), (p, pt)
        checked += 1
    zero = Poly.zero(vars)
    assert zero.evaluate((Fraction(-1, 3),) * len(vars)) == 0
    with pytest.raises(ValueError, match="arity"):
        zero.evaluate((1,) * (len(vars) + 1))


def test_derivative_matches_sympy():
    rng = random.Random(23)
    for _ in range(20):
        p = rand_poly(rng)
        for name in XYZ:
            got = p.derivative(name)
            want = sympy.diff(to_sympy(p).as_expr(), sympy.Symbol(name))
            assert to_sympy(got).as_expr() - want == 0


def test_jacobian_det_oracle():
    entries = [parse_poly(s, XYZ) for s in ("y*z", "x*z", "x*y")]
    assert jacobian_det(entries) == parse_poly("2*x*y*z", XYZ)
    # generic cross-check against sympy's determinant
    rng = random.Random(5)
    polys = [rand_poly(rng, steps=3, terms=3) for _ in range(3)]
    mat = sympy.Matrix([[sympy.diff(to_sympy(p).as_expr(), sympy.Symbol(v))
                         for v in XYZ] for p in polys])
    want = sympy.expand(mat.det())
    assert to_sympy(jacobian_det(polys)).as_expr() - want == 0


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def test_parse_fixed_forms():
    assert parse_poly("x^2 - 2*x*y + y^2", XY) == parse_poly("(x - y)^2", XY)
    assert parse_poly("-x", XY) == -Poly.var(XY, "x")
    assert parse_poly("778", XY).constant_value() == 778
    assert parse_poly("x/2 + 1/3", XY) * 6 == parse_poly("3*x + 2", XY)
    inferred = parse_poly("w*x - y")
    assert inferred.vars == ("x", "y", "w")


def test_parse_rejects_garbage():
    for bad in ("x +", "(x", "x ** 2", "x^", "2 @ 3", ""):
        with pytest.raises(ParseError):
            parse_poly(bad, XY)
    with pytest.raises(ParseError):
        parse_poly("w + 1", XY)  # unknown variable for an explicit tuple


def test_exponent_limit_is_per_variable():
    # (x*y)^40000 has total degree 80000 but no exponent above 40000
    assert parse_poly("(x*y)^40000", XY) == parse_poly("x^40000*y^40000", XY)
    assert (parse_poly("x*y", XY) ** 40000).coeffs == {pack((40000, 40000)): 1}
    with pytest.raises(ValueError, match="^power needs exponent 80000, above the limit 65535$"):
        parse_poly("x^2*y", XY) ** 40000
    with pytest.raises(ParseError, match="^product needs exponent 70000"):
        parse_poly("x^35000*(x^35000 + y)", XY)
    with pytest.raises(ParseError, match="^product needs exponent 70000"):
        parse_poly("y/x^35000 - x^35000", XY)
    assert top_exponent((parse_poly("x^3 + x*y^5", XY),), 4) == 20


def test_parse_ratfunc_splits_denominator():
    num, den = parse_ratfunc("x / (y - 1)", XY)
    assert num == Poly.var(XY, "x")
    assert den == parse_poly("y - 1", XY)
    with pytest.raises(ParseError):
        parse_poly("x / (y - 1)", XY)  # a plain polynomial must not divide


def test_print_parse_roundtrip_fixed():
    for text in ("x^2*y - 3*z + 1/2", "-x*y*z", "0", "x^11 - x"):
        p = parse_poly(text, XYZ)
        assert parse_poly(poly_str(p), XYZ) == p


@settings(max_examples=80, deadline=None)
@given(polys3)
def test_print_parse_roundtrip(p):
    assert parse_poly(poly_str(p), XYZ) == p


# ---------------------------------------------------------------------------
# gcd, division, normal form, factorization
# ---------------------------------------------------------------------------

def test_canonical_factor_sign_and_content():
    p = parse_poly("-2*x - 2*y", XY) / 3
    assert canonical_factor(p) == parse_poly("x + y", XY)


def test_poly_gcd_recovers_planted_factor():
    rng = random.Random(31)
    for _ in range(12):
        g = rand_poly(rng, steps=2, terms=2)
        if g.is_zero or g.is_constant:
            continue
        a, b = rand_poly(rng, steps=2, terms=3), rand_poly(rng, steps=2, terms=3)
        got = poly_gcd(g * a, g * b)
        poly_exact_div(got * 1, canonical_factor(g))  # raises unless g | gcd


def test_poly_gcd_homogeneous_fast_path():
    # homogeneous inputs take the dehomogenization route; the answer must
    # agree with sympy on the original triple
    rng = random.Random(37)
    for _ in range(12):
        g = rand_homogeneous(rng, rng.randint(1, 3))
        a = rand_homogeneous(rng, rng.randint(1, 3))
        b = rand_homogeneous(rng, rng.randint(1, 3))
        got = poly_gcd(g * a, g * b)
        want = canonical_factor(from_sympy(
            sympy.gcd(to_sympy(g * a), to_sympy(g * b)), XYZ))
        assert got == want


def rand_off_z(rng: random.Random, deg: int, rational: bool) -> Poly:
    """A homogeneous polynomial in XYZ that z does not divide, with integer
    coefficients or with rational ones over a common denominator above 1."""
    while True:
        p = rand_homogeneous(rng, deg)
        if rational:
            p = p / rng.randint(2, 7)
        if p.dehomogenize().degree() == p.degree() and (p.den > 1) == rational:
            return p


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_dehomogenizing_branch_with_powers_of_the_last_variable(rational):
    # the homogeneous branch of poly_gcd works in the chart z = 1, so the
    # power of z in its answer is read off the inputs; poly_exact_div keeps
    # every power of z in its one reduction
    rng = random.Random(43 + rational)
    z = Poly.var(XYZ, "z")
    for _ in range(10):
        g, a, b = (rand_off_z(rng, rng.randint(1, 3), rational) for _ in range(3))
        A, B = z ** 2 * g * a, z * g * b
        got = poly_gcd(A, B)
        want = canonical_factor(from_sympy(
            sympy.gcd(to_sympy(A), to_sympy(B)), XYZ))
        assert got == want and strip_factor(got, z)[1] == 1
        A, B = z ** 3 * a * b, z * b
        q, r = sympy.div(to_sympy(A), to_sympy(B))
        assert r.is_zero
        assert poly_exact_div(A, B) == z ** 2 * a == from_sympy(q, XYZ)
        for num in (z * a, z * a * b):  # the second has an exact affine part
            with pytest.raises(ValueError, match="^not an exact division$"):
                poly_exact_div(num, z ** 2 * b)
        h = a * g
        assert (h * z ** rng.randint(1, 4)).dehomogenize() == h.dehomogenize()
        assert h.dehomogenize() == from_sympy(
            sympy.Poly(to_sympy(h).as_expr().subs(sympy.Symbol("z"), 1),
                       *sympy.symbols(XY)), XY)


def test_dehomogenize_adds_terms_that_differ_only_in_the_last_variable():
    p = parse_poly("x*z^2 - 3*x + y*z + 1/2", XYZ)
    assert p.dehomogenize() == parse_poly("-2*x + y + 1/2", XY)
    assert parse_poly("x*z - x", XYZ).dehomogenize().is_zero
    assert Poly.zero(XYZ).dehomogenize() == Poly.zero(XY)


def test_poly_gcd_zero_and_mismatch():
    x = Poly.var(XY, "x")
    assert poly_gcd(Poly.zero(XY), x * 2) == x
    with pytest.raises(ValueError):
        poly_gcd(x, Poly.var(XYZ, "x"))


def test_poly_exact_div_roundtrip():
    rng = random.Random(41)
    for _ in range(20):
        a = rand_poly(rng, steps=3, terms=3)
        b = rand_poly(rng, steps=3, terms=3)
        if b.is_zero:
            continue
        assert poly_exact_div(a * b, b) == a
    for _ in range(10):  # homogeneous pairs
        a = rand_homogeneous(rng, 2)
        b = rand_homogeneous(rng, 3)
        assert poly_exact_div(a * b, b) == a


def test_poly_exact_div_rejects_inexact():
    with pytest.raises(ValueError):
        poly_exact_div(parse_poly("x^2 + y", XY), Poly.var(XY, "y"))
    with pytest.raises(ValueError):
        poly_exact_div(parse_poly("x*z^2", XYZ), parse_poly("x^2*z", XYZ))
    with pytest.raises(ZeroDivisionError):
        poly_exact_div(parse_poly("x + y", XY), Poly.zero(XY))


def divides_leading(term, lead):
    return all(t >= l for t, l in zip(term, lead))


def test_poly_mod_is_a_normal_form():
    rng = random.Random(43)
    checked = 0
    for _ in range(40):
        a = rand_poly(rng, steps=4, terms=5)
        b = rand_poly(rng, steps=3, terms=3)
        if b.is_zero or b.is_constant:
            continue
        r = poly_mod(a, b)
        lead = b.leading()[0]
        assert all(not divides_leading(e, lead) for e, _c in r.terms())
        if not (a - r).is_zero:
            poly_exact_div(a - r, b)  # raises unless b | a - r
        assert poly_mod(r, b) == r
        checked += 1
    assert checked >= 25


def fraction_poly_mod(a: Poly, b: Poly) -> Poly:
    """Reference normal form: the same graded-lex worklist reduction with
    every coefficient held as a Fraction."""
    n = len(a.vars)
    bt = sorted(b.coeffs.items(),
                key=lambda kv: (_key_total(kv[0]), unpack(kv[0], n)),
                reverse=True)
    bk = bt[0][0]
    bc = Fraction(bt[0][1], b.den)
    tail = [(k, Fraction(c, b.den)) for k, c in bt[1:]]
    shifts = [WIDTH * i for i in range(n)]
    bexp = [(bk >> s) & MASK for s in shifts]

    def hkey(k: int):
        return (-_key_total(k), tuple(-e for e in unpack(k, n)))

    cur = {k: Fraction(c, a.den) for k, c in a.coeffs.items()}
    heap = [(hkey(k), k) for k in cur]
    heapq.heapify(heap)
    while heap:
        _, t = heapq.heappop(heap)
        c = cur.get(t)
        if c is None:
            continue
        if not all(((t >> s) & MASK) >= e for s, e in zip(shifts, bexp)):
            continue
        ratio = c / bc
        del cur[t]
        base = t - bk
        for tk, tc in tail:
            nk = base + tk
            nv = cur.get(nk, Fraction(0)) - ratio * tc
            if nv:
                cur[nk] = nv
                heapq.heappush(heap, (hkey(nk), nk))
            else:
                cur.pop(nk, None)
    return Poly.from_terms(a.vars, [(unpack(k, n), c) for k, c in cur.items()])


@pytest.mark.parametrize("vars", [XY, XYZ])
def test_poly_mod_matches_the_fraction_reducer(vars):
    rng = random.Random(4100 + len(vars))
    checked = 0
    for _ in range(120):
        a = rand_poly(rng, vars, steps=7, terms=8)
        b = rand_poly(rng, vars, steps=3, terms=4)
        if b.is_constant or b.den == 1:
            continue
        lead_key = pack(b.leading()[0])
        if abs(b.coeffs[lead_key]) == 1:
            continue
        r = poly_mod(a, b)
        want = fraction_poly_mod(a, b)
        assert (r.vars, r.den, r.coeffs) == (want.vars, want.den, want.coeffs)
        checked += 1
    assert checked >= 30


def test_poly_mod_reduces_past_the_main_variable():
    # the full graded-lex normal form, not a univariate-style remainder
    r = poly_mod(parse_poly("y*z + z^2", XYZ), Poly.var(XYZ, "y"))
    assert r == parse_poly("z^2", XYZ)
    assert poly_mod(parse_poly("x^2 + x", XY), Poly.const(XY, 5)).is_zero
    with pytest.raises(ValueError):
        poly_mod(Poly.var(XY, "x"), Poly.zero(XY))


def test_factor_q_known_factorizations():
    unit, facs = factor_q(parse_poly("2*x^2 - 2*y^2", XY))
    assert unit == 2
    assert sorted(str(f) for f, _m in facs) == ["x + y", "x - y"]
    assert all(m == 1 for _f, m in facs)

    unit, facs = factor_q(parse_poly("(x + y)^2", XY))
    assert facs == ((parse_poly("x + y", XY), 2),)

    _unit, facs = factor_q(parse_poly("x^2 + z^2", XYZ))
    assert facs == ((canonical_factor(parse_poly("x^2 + z^2", XYZ)), 1),)


def test_primitive_tuple_strips_common_factor():
    x, y = Poly.var(XY, "x"), Poly.var(XY, "y")
    g = x + y
    stripped = primitive_tuple((g * x * 2, g * y * 2, g * (x - y)))
    assert stripped == (x * 2, y * 2, x - y)


# ---------------------------------------------------------------------------
# projective normal forms: one representative per class up to a scalar
# ---------------------------------------------------------------------------

def rand_scalar(rng: random.Random) -> Fraction:
    """A nonzero rational of either sign."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 40))


def assert_normal_form(polys):
    """Jointly integer-primitive, and the first term in ``terms()`` order of
    the first nonzero entry is positive."""
    assert all(p.den == 1 for p in polys)
    assert math.gcd(*(c for p in polys for c in p.coeffs.values())) == 1
    first = next(p for p in polys if not p.is_zero)
    assert next(first.terms())[1] > 0


def test_primitive_tuple_is_a_normal_form_of_the_projective_class():
    rng = random.Random(23)
    for _ in range(40):
        deg = rng.randint(1, 3)
        t = [rand_homogeneous(rng, deg) * rand_scalar(rng) for _ in range(3)]
        if rng.random() < 0.3:
            t[rng.randrange(3)] = Poly.zero(XYZ)
        common = rand_homogeneous(rng, rng.randint(0, 2))
        t = tuple(p * common for p in t)
        q = rand_scalar(rng)
        want = primitive_tuple(t)
        assert primitive_tuple(tuple(p * q for p in t)) == want
        assert primitive_tuple(want) == want
        assert_normal_form(want)


def rand_gcd_triple(rng: random.Random, homogeneous: bool) -> tuple[Poly, ...]:
    """Three entries m*g*e*a, m*g*e*b, m*g*c with a random monomial m, a
    random g and a nonconstant e, so the gcd of the first pair is larger
    than that of the triple; rational scales, and at times a zero entry."""
    rand = ((lambda: rand_homogeneous(rng, rng.randint(1, 2))) if homogeneous
            else (lambda: rand_poly(rng, steps=2, terms=3)))
    while True:
        m = Poly.from_terms(XYZ, [(tuple(rng.randint(0, 3) for _ in XYZ), 1)])
        g, e = m * rand(), rand()
        if not (g.is_zero or e.is_constant):
            break
    t = [g * e * rand(), g * e * rand(), g * rand()]
    if rng.random() < 0.25:
        t[rng.randrange(3)] = Poly.zero(XYZ)
    return tuple(p * rand_scalar(rng) for p in t)


@pytest.mark.parametrize("homogeneous", [False, True],
                         ids=["general", "homogeneous"])
def test_gcd_and_quotients_of_triples_match_the_expression_reference(homogeneous):
    rng = random.Random(67 + homogeneous)
    for _ in range(15):
        t = rand_gcd_triple(rng, homogeneous)
        if all(p.is_zero for p in t):
            continue
        ref = functools.reduce(sympy.gcd, (to_sympy(p) for p in t))
        assert poly_gcd(*t) == canonical_factor(from_sympy(ref, XYZ))
        quotients = []
        for p in t:
            q, r = sympy.div(to_sympy(p), ref)
            assert r.is_zero
            quotients.append(from_sympy(q, XYZ))
        got = primitive_tuple(t)
        assert_normal_form(got)
        first = next(i for i, p in enumerate(t) if not p.is_zero)
        s = got[first].leading()[1] / quotients[first].leading()[1]
        assert got == tuple(q * s for q in quotients)


def test_primitive_tuple_divides_nothing(monkeypatch):
    f = blowcube.builtin("lox1")
    raw = [compose_tuple(blowcube.iterate(f, k).entries, f.entries)
           for k in range(1, 4)]
    want = [blowcube.iterate(f, k + 1).entries for k in range(1, 4)]
    assert any(r[0].degree() > w[0].degree() for r, w in zip(raw, want))
    monomials = tuple(parse_poly(e, XYZ) for e in (
        "x^40000*y^40000", "x^40000*z^40000", "y^40000*z^40000"))

    def refuse(*args, **kwargs):
        raise AssertionError("primitive_tuple divided")

    monkeypatch.setattr(blowcube.poly, "poly_exact_div", refuse)
    monkeypatch.setattr(sympy.Poly, "div", refuse)
    assert [primitive_tuple(t) for t in raw] == want

    class NoSympy:
        def __getattr__(self, name):
            raise AssertionError(f"monomial entries reached sympy.{name}")

    monkeypatch.setattr(blowcube.poly, "sympy", NoSympy())
    assert primitive_tuple(monomials) == monomials
    shifted = tuple(p * parse_poly("2*x*z^3", XYZ) for p in monomials)
    assert primitive_tuple(shifted) == monomials


def test_division_reaches_no_sympy(monkeypatch):
    c, line = parse_poly("x^2 - y*z", XYZ), parse_poly("2*x + 3*z", XYZ)
    a, b = c * line ** 2 / 5, line * 3
    y, z = Poly.var(XYZ, "y"), Poly.var(XYZ, "z")
    u = parse_poly("x^3 - 2*y + 1/3", XY)
    v = parse_poly("4*x*y - 7", XY)

    class NoSympy:
        def __getattr__(self, name):
            raise AssertionError(f"division reached sympy.{name}")

    monkeypatch.setattr(blowcube.poly, "sympy", NoSympy())
    assert poly_exact_div(a, b) == c * line / 15
    assert strip_factor(a, b) == (c / 45, 2)
    assert poly_mod(a, b).is_zero and poly_mod(a + y ** 3, b) == y ** 3
    assert strip_factor(z ** 3 * c, z) == (c, 3)
    assert poly_exact_div(u * v * v, v) == u * v
    assert strip_factor(u * v * v, v) == (u, 2)
    with pytest.raises(ValueError, match="^not an exact division$"):
        poly_exact_div(u * v + 1, v)


@pytest.mark.parametrize("vars", [XY, XYZ, ("x", "y", "z", "w")],
                         ids=["2 vars", "3 vars", "4 vars"])
def test_canonical_factor_and_factor_q_are_blind_to_scale(vars):
    rng = random.Random(len(vars))
    assert canonical_factor(Poly.zero(vars)).is_zero
    for _ in range(40):
        p = rand_poly(rng, vars)
        if p.is_zero:
            continue
        q = rand_scalar(rng)
        want = canonical_factor(p)
        assert canonical_factor(p * q) == want
        assert canonical_factor(want) == want
        assert_normal_form((want,))
        unit, factors = factor_q(p)
        assert factor_q(p * q) == (unit * q, factors)
        for f, _m in factors:
            assert_normal_form((f,))


@pytest.mark.parametrize("vars", [XY, XYZ, ("x", "y", "z", "w")],
                         ids=["2 vars", "3 vars", "4 vars"])
def test_leading_is_the_first_term(vars):
    rng = random.Random(7 * len(vars))
    for _ in range(100):
        p = rand_poly(rng, vars, steps=6, terms=8)
        if not p.is_zero:
            assert p.leading() == next(p.terms())


def test_linear_relations_span_the_planted_relations():
    rng = random.Random(17)
    base = [(rand_poly(rng), rand_poly(rng)) for _ in range(3)]
    a, b, c = base
    vectors = base + [tuple(p * Fraction(2, 3) - q for p, q in zip(a, b)),
                      tuple(p * 5 for p in c)]
    assert linear_relations(base) == []
    relations = linear_relations(vectors)
    assert len(relations) == 2
    assert sympy.Matrix(relations).rank() == 2
    for rel in relations:
        assert all(type(k) is int for k in rel)
        for i in range(2):
            total = Poly.zero(XYZ)
            for k, vec in zip(rel, vectors):
                total = total + vec[i] * k
            assert total.is_zero


def test_only_poly_imports_sympy():
    # import statements, and importlib.import_module("sympy") or
    # __import__("sympy") calls, anywhere in the package
    src = Path(blowcube.__file__).parent
    importers = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif (isinstance(node, ast.Call) and node.args
                  and isinstance(node.args[0], ast.Constant)):
                names = [str(node.args[0].value)]
            else:
                continue
            if any(n.split(".")[0] == "sympy" for n in names):
                importers.add(path.name)
    assert importers == {"poly.py"}


def test_only_poly_and_kernel_name_the_packed_keys():
    # the key layout belongs to poly: other modules go through Poly's
    # methods, and EXP_LIMIT is the one public bound on an exponent
    packed = {"WIDTH", "MASK", "pack", "unpack"}
    namers = set()
    for path in sorted(Path(blowcube.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in packed:
                namers.add(path.name)
    assert namers <= {"poly.py", "kernel.py"}


def test_poly_gcd_of_one_entry_is_canonical():
    p = parse_poly("2*x*y - 4*y", XY)
    assert poly_gcd(p) == parse_poly("x*y - 2*y", XY)
    assert poly_gcd(Poly.zero(XY), p * Fraction(-1, 3)) == poly_gcd(p, p)
    assert poly_gcd(Poly.zero(XY), Poly.zero(XY)) == Poly.zero(XY)


# ---------------------------------------------------------------------------
# the ZZ bridge against the QQ expression reference
# ---------------------------------------------------------------------------

def rand_rational(rng: random.Random, vars=XYZ, steps=3, terms=4) -> Poly:
    """Nonconstant, non-homogeneous (so gcd skips the dehomogenized
    route), with a denominator above 1."""
    while True:
        p = rand_poly(rng, vars, steps, terms)
        if not p.is_homogeneous() and p.den > 1:
            return p


def rand_divisor(rng: random.Random, vars=XYZ) -> Poly:
    """Neither integer-primitive nor monic: den * b has content above 1."""
    b = canonical_factor(rand_rational(rng, vars, steps=2, terms=3))
    return b * Fraction(rng.choice([-4, 2, 6, 10]), rng.choice([3, 7, 9]))


def reference_factor(p: Poly):
    syms = sympy.symbols(p.vars)
    coeff, facs = sympy.factor_list(to_sympy(p).as_expr(), *syms)
    unit = Fraction(int(sympy.numer(coeff)), int(sympy.denom(coeff)))
    out = []
    for f, m in facs:
        fp = from_sympy(sympy.Poly(f, *syms, domain=sympy.QQ), p.vars)
        canon = canonical_factor(fp)
        unit *= (fp.leading()[1] / canon.leading()[1]) ** m
        out.append((canon, m))
    return unit, Counter(out)


def factor_inputs(rng: random.Random):
    """Affine rational products, then the homogeneous inputs that sympy
    factors in the chart where the last variable is 1: products in XYZ of
    factors that z does not divide, with repeats, a monomial part x^a*y^b*z^k
    (k = 0 to 3) and a rational scale that is not +-1; z alone; binary forms
    in XY with a power of y; and c*t^k in CHART_VARS, whose chart is a
    constant."""
    for _ in range(12):
        yield rand_rational(rng) * rand_divisor(rng) ** rng.randint(1, 2)
    x, y, z = (Poly.var(XYZ, v) for v in XYZ)
    for i in range(12):
        p = Poly.const(XYZ, Fraction(rng.choice([-4, 2, 6, 10]), rng.choice([1, 3, 7])))
        for j in range(rng.randint(1, 2)):
            f = rand_off_z(rng, rng.randint(1, 2), rng.random() < 0.5)
            p = p * f ** (2 if j == i % 2 else 1)
        yield p * x ** (i % 3) * y ** (i // 3 % 2) * z ** (i % 4)
    yield z
    for i in range(3):
        p = Poly.const(XY, Fraction(rng.choice([-3, 5]), 4))
        for deg in (1, 2, 2):
            p = p * Poly.from_terms(XY, [((a, deg - a), rng.randint(-5, 5))
                                         for a in range(deg + 1)] + [((deg, 0), 1)])
        yield p * Poly.var(XY, "y") ** i
    for k in (1, 3):
        yield Poly.var(CHART_VARS, "t") ** k * Fraction(-9, 4)


def test_factor_q_matches_the_expression_reference():
    rng = random.Random(53)
    for p in factor_inputs(rng):
        unit, facs = factor_q(p)
        assert (unit, Counter(facs)) == reference_factor(p)
        prod = Poly.const(p.vars, unit)
        for f, m in facs:
            prod = prod * f ** m
        assert prod == p


def test_factor_q_takes_monomials_apart_without_sympy(monkeypatch):
    # the Jacobians of monomial-like maps (lox1, jonq2, hen2) are monomials
    monomials = [parse_poly(s, XYZ) for s in ("3*z^3*x^2*y", "-2*z^3", "y*z^2/5")]
    monomials.append(Poly.var(CHART_VARS, "u") ** 2 * Poly.var(CHART_VARS, "t"))
    want = [reference_factor(p) for p in monomials]
    monkeypatch.setattr(blowcube.poly, "_to_zz", None)
    for p, (unit, facs) in zip(monomials, want):
        got = factor_q(p)
        assert (got[0], Counter(got[1])) == (unit, facs)
        assert [poly_str(f) for f, _m in got[1]] == sorted(str(f) for f, _m in facs)


def test_poly_gcd_matches_the_expression_reference():
    rng = random.Random(59)
    for _ in range(12):
        g = rand_divisor(rng)
        a, b = g * rand_rational(rng), g * rand_rational(rng)
        want = canonical_factor(from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)), XYZ))
        got = poly_gcd(a, b)
        assert got == want
        poly_exact_div(got, canonical_factor(g))  # raises unless g | gcd


def rand_division_pair(rng: random.Random, kind: str) -> tuple[Poly, Poly]:
    """A cofactor a and a divisor b whose graded-lex leading coefficient is
    not +-1: in XYZ or XY with rational coefficients, or homogeneous in XYZ
    with powers of z on either side."""
    if kind == "homogeneous":
        z = Poly.var(XYZ, "z")
        a = rand_off_z(rng, rng.randint(0, 2), rng.random() < 0.5)
        b = rand_off_z(rng, rng.randint(1, 2), True) * rand_scalar(rng)
        a, b = a * z ** rng.randint(0, 3), b * z ** rng.randint(0, 2)
    else:
        vars = XY if kind == "XY" else XYZ
        a, b = rand_rational(rng, vars), rand_divisor(rng, vars)
    while abs(b.coeffs[pack(b.leading()[0])]) == 1:
        b = b * 2
    return a, b


def sympy_strip(a: Poly, b: Poly) -> tuple[Poly, int]:
    """(a / b^k, k) by exact ``sympy.div`` steps until a remainder is left."""
    cur, ref, k = to_sympy(a), to_sympy(b), 0
    while True:
        q, r = sympy.div(cur, ref)
        if not r.is_zero:
            return from_sympy(cur, a.vars), k
        cur, k = q, k + 1


def test_poly_exact_div_matches_the_expression_reference():
    rng = random.Random(61)
    for kind in ("XYZ", "XY", "homogeneous"):
        for _ in range(12):
            a, b = rand_division_pair(rng, kind)
            x = Poly.var(a.vars, "x")
            exact = a * b ** rng.randint(1, 2)
            off = exact + x ** exact.degree() * Fraction(1, 2)
            for num in (exact, off, a):
                q, r = _divmod(num, b)
                assert q * b + r == num and r == poly_mod(num, b)
                sq, sr = sympy.div(to_sympy(num), to_sympy(b))
                assert sr.is_zero == r.is_zero
                if r.is_zero:
                    assert poly_exact_div(num, b) == q == from_sympy(sq, a.vars)
                else:
                    with pytest.raises(ValueError, match="^not an exact division$"):
                        poly_exact_div(num, b)
                assert strip_factor(num, b) == sympy_strip(num, b)
            assert poly_mod(exact, b).is_zero and not poly_mod(off, b).is_zero


def test_bridge_makes_no_expression_round_trip(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bridge went through a sympy expression")

    for name in ("factor_list", "resultant", "gcd", "div", "groebner"):
        monkeypatch.setattr(sympy, name, refuse)
    monkeypatch.setattr(sympy.Poly, "as_expr", refuse)

    unit, facs = factor_q(parse_poly("(x^2 - y) * (2*x + y + 1)^2 / 3", XY))
    assert unit == Fraction(1, 3)
    assert facs == ((parse_poly("2*x + y + 1", XY), 2), (parse_poly("x^2 - y", XY), 1))
    a = parse_poly("(x^2 - y) * (x + 1) / 2", XY)
    assert poly_gcd(a, parse_poly("(x^2 - y) * (y - 3) * 4/5", XY)) == parse_poly("x^2 - y", XY)
    assert poly_exact_div(a, parse_poly("6/5*x + 6/5", XY)) == parse_poly("5/12*x^2 - 5/12*y", XY)
    with pytest.raises(ValueError, match="not an exact division"):
        poly_exact_div(a, parse_poly("6/5*x + 6/5*y", XY))
