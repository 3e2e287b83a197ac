"""Map layer: parsing, composition, iteration, inverse strategies."""

import ast
import functools
import math
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction as Fr
from pathlib import Path

import pytest
import sympy

from blowcube import (
    ProjMap,
    builtin,
    builtin_names,
    compose,
    conjugate,
    degree_sequence,
    homogenize,
    identity,
    inverse,
    iterate,
    monomial_degree_sequence,
    monomial_map,
    parse_map,
    parse_poly,
    verify_inverse,
)
import blowcube
from blowcube import maps, memo
from blowcube.config import RunConfig
from blowcube.errors import (
    DegreeCapExceeded,
    InverseUnavailable,
    MapError,
    ParseError,
)
from blowcube.maps import linear_map, mat_pow, monomial_matrix_of, normalize_point
from blowcube.poly import (Poly, compose_monomial_linear, compose_tuple,
                           jacobian_det, primitive_tuple)
from blowcube.resolve import exc_components

P2 = ("x", "y", "z")


@contextmanager
def plane_solves():
    """The maps handed to the plane nullspace solve inside the block."""
    calls = []
    real = maps._plane_inverse
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "_plane_inverse", lambda f: calls.append(f) or real(f))
        yield calls


def attached_inverse(f):
    """inverse(f), which f must carry already: no plane solve may run."""
    with plane_solves() as solved:
        g = inverse(f)
    assert solved == [], f"{f} carries no inverse"
    return g


def solved_inverse(f):
    """inverse(f), which f must not carry: one plane solve, of f, runs."""
    with plane_solves() as solved:
        g = inverse(f)
    assert len(solved) == 1 and solved[0] is f
    return g


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_projective_form():
    f = parse_map("P2:[y*z : x*z : x*y]")
    assert f.dim == 2 and f.degree() == 2
    assert [str(p) for p in f.entries] == ["y*z", "x*z", "x*y"]


def test_parse_affine_form_homogenizes():
    f = parse_map("A2:(y, x + y^2)")
    assert [str(p) for p in f.entries] == ["y*z", "x*z + y^2", "z^2"]
    # denominators pick up the common line at infinity
    g = parse_map("A2:(x/y, y)")
    assert g.degree() == 2
    assert g.apply((2, 3, 1)) == normalize_point((Fr(2, 3), 3, 1))


def test_parse_monomial_form():
    f = parse_map("MON:2:[[0,1],[1,0]]")
    assert f.dim == 2 and f.is_monomial()
    assert monomial_matrix_of(f) == ((0, 1), (1, 0))
    attached_inverse(f)  # determinant -1 inverts over the integers
    g = parse_map("MON:2:[[2,0],[0,1]]")  # determinant 2: not birational
    with plane_solves() as solved, pytest.raises(InverseUnavailable):
        inverse(g)
    assert len(solved) == 1 and solved[0] is g  # nothing was attached


def test_parse_map_rejections():
    with pytest.raises(ParseError):
        parse_map("P2:[x : y]")
    with pytest.raises(ParseError):
        parse_map("A2:(x, y, x)")
    with pytest.raises(ParseError):
        parse_map("Q2:[x : y : z]")
    with pytest.raises(ParseError):
        parse_map("MON:2:[[1,2],[3]]")
    with pytest.raises(MapError):
        parse_map("MON:2:[[1,1],[1,1]]")  # singular exponent matrix
    with pytest.raises(MapError):
        parse_map("P2:[x : y : x*y]")  # mixed coordinate degrees


def test_entries_are_reduced_to_primitive_form():
    f = parse_map("P2:[2*x*z : 2*y*z : 2*z^2]")
    assert f.degree() == 1
    assert f.is_identity()


def test_map_constructor_rejections():
    x, y, z = (parse_poly(v, P2) for v in P2)
    with pytest.raises(MapError):
        ProjMap([x, y])  # three variables, two coordinates
    with pytest.raises(MapError):
        ProjMap([x, y, parse_poly("0", P2)])
    with pytest.raises(MapError):
        ProjMap([x, y, parse_poly("x + 1", P2)])


# ---------------------------------------------------------------------------
# projective/affine round trips
# ---------------------------------------------------------------------------

def test_homogenize_dehomogenize_roundtrip():
    for name in ("sigma", "henon", "jonq1", "jonq2", "lox1"):
        f = builtin(name)
        e0, e1, e2 = (p.dehomogenize() for p in f.entries)
        assert homogenize((e0, e2), (e1, e2)).key() == f.key()


@pytest.mark.parametrize("spec, same_as", [
    ("A2:(x*(y - 1)/(y*(y - 1)), y^2/y)", "A2:(x/y, y)"),
    ("A2:(x/(x + y), y/(x + y))", "P2:[x : y : x + y]"),
])
def test_affine_entries_are_reduced_by_the_map(spec, same_as):
    # a factor shared inside one fraction, and a denominator shared by both
    assert parse_map(spec).key() == parse_map(same_as).key()


def test_affine_zero_denominator_is_refused():
    x, one, zero = (parse_poly(p, ("x", "y")) for p in ("x", "1", "0"))
    with pytest.raises(MapError, match="zero denominator"):
        homogenize((x, one), (x, zero))
    with pytest.raises(MapError, match="zero denominator"):
        homogenize((x, zero), (x, one))


def test_affine_and_projective_routes_agree():
    # the bundled quadratic map is listed under both presentations
    assert builtin("hen2") == builtin("henon")
    assert builtin("hen2").key() == builtin("henon").key()


# ---------------------------------------------------------------------------
# composition and iteration
# ---------------------------------------------------------------------------

def test_sigma_is_an_involution():
    sigma = builtin("sigma")
    assert compose(sigma, sigma).is_identity()
    assert inverse(sigma).key() == sigma.key()


def test_compose_reduces_common_factors():
    jonq1 = builtin("jonq1")
    sq = compose(jonq1, jonq1)
    assert sq.degree() == 3  # raw product degree 4 drops by the common factor
    assert sq.key() == parse_map("A2:(x*y^2, y)").key()


def test_iterate_is_cached_and_consistent():
    henon = builtin("henon")
    f3 = iterate(henon, 3)
    assert iterate(henon, 3) is f3
    assert iterate(henon, 1) is henon
    assert f3.key() == compose(henon, compose(henon, henon)).key()
    with pytest.raises(MapError):
        iterate(henon, 0)


def test_degree_sequences_match_frozen_values():
    assert degree_sequence(builtin("henon"), 5) == [2, 4, 8, 16, 32]
    assert degree_sequence(builtin("jonq1"), 5) == [2, 3, 4, 5, 6]
    assert degree_sequence(builtin("jonq2"), 5) == [2, 3, 4, 5, 6]
    assert degree_sequence(builtin("lox1"), 5) == [3, 8, 21, 55, 144]


def test_degree_cap_reports_partial_progress():
    f = conjugate(builtin("lox1"), linear_map([[1, 0, 1], [0, 1, 0], [0, 0, 1]]))
    cfg = RunConfig(degree_cap=50)
    with pytest.raises(DegreeCapExceeded) as info:
        degree_sequence(f, 5, cfg)
    assert info.value.partial == (3, 8, 21)


@pytest.mark.parametrize("uncapped_first", [False, True])
def test_degree_cap_verdict_ignores_earlier_iterates(uncapped_first):
    memo.clear()
    henon = builtin("henon")
    if uncapped_first:
        assert degree_sequence(henon, 6) == [2, 4, 8, 16, 32, 64]
    with pytest.raises(DegreeCapExceeded, match="bound 32 exceeds cap 16$") as info:
        degree_sequence(henon, 6, RunConfig(degree_cap=16))
    assert info.value.partial == (2, 4, 8, 16)


@pytest.mark.parametrize("name", ["lox1", "henon"])
def test_iterate_carries_the_iterate_of_the_inverse(name):
    f = builtin(name)
    for n in (2, 3, 4):
        assert attached_inverse(iterate(f, n)) is iterate(inverse(f), n)


def test_iterates_stay_paired_after_composing_with_an_iterate():
    henon = builtin("henon")
    memo.clear()
    # pairs henon after henon^2 with the stored (henon^-1)^3
    compose(henon, iterate(henon, 2))
    assert attached_inverse(iterate(inverse(henon), 3)) is iterate(henon, 3)


def test_a_map_and_its_inverse_share_one_iterate_chain(built_composites):
    memo.clear()
    lox1 = builtin("lox1")
    calls = built_composites
    for _ in range(2):
        assert degree_sequence(lox1, 4) == [3, 8, 21, 55]
        assert degree_sequence(inverse(lox1), 4) == [3, 8, 21, 55]
        iterate(lox1, 4)
    # lox1^k and lox1^-k for k = 2, 3, 4, each built once
    assert len(calls) == 6


def test_degree_sequence_builds_only_the_forward_chain():
    lox1 = builtin("lox1")  # its inverse checks enter the store here
    memo.clear()
    assert degree_sequence(lox1, 4) == [3, 8, 21, 55]
    # lox1^k = lox1^(k-1) after lox1 for k = 2, 3, 4, and no power of lox1^-1
    assert {g for _f, g in memo.composites} == {lox1.key()}
    assert [h.degree() for h in memo.composites.values()] == [8, 21, 55]


def test_an_inverse_check_builds_each_composite_once(built_composites):
    # sigma is its own inverse: both checks and the later sigma^-1 after
    # sigma are the one composite sigma after sigma
    memo.clear()
    calls = built_composites
    sigma = parse_map("P2:[y*z : x*z : x*y]")
    assert inverse(sigma) == sigma
    assert compose(inverse(sigma), sigma).is_identity()
    assert len(calls) == 1


def test_a_stored_composite_is_refused_by_its_bound_alone():
    henon = builtin("henon")
    capped = RunConfig(degree_cap=3)
    memo.clear()
    with pytest.raises(DegreeCapExceeded) as fresh:
        compose(henon, henon, capped)
    square = compose(henon, henon)
    with pytest.raises(DegreeCapExceeded) as stored:
        compose(henon, henon, capped)
    assert str(stored.value) == str(fresh.value) \
        == "composition degree bound 4 exceeds cap 3"
    with pytest.raises(DegreeCapExceeded, match="^composition degree bound 4 exceeds cap 3$"):
        iterate(henon, 2, capped)
    assert compose(henon, henon, RunConfig(degree_cap=4)) is square


def _mutable_store(value) -> bool:
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return (isinstance(value, ast.Call) and ast.unparse(value.func).split(".")[-1]
            in {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
                "deque", "WeakKeyDictionary", "WeakValueDictionary"})


def test_memo_is_the_one_process_wide_store():
    # a store outside memo would survive memo.clear(); the two interning
    # caches keep object identity (builtin(n) is builtin(n)), not map facts
    stores = set()
    for path in sorted(Path(blowcube.__file__).parent.glob("*.py")):
        if path.name == "memo.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                stores |= {(path.name, a.name) for a in node.names
                           if a.name in ("cache", "lru_cache")}
            elif isinstance(node, ast.Global):
                stores |= {(path.name, name) for name in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    if ast.unparse(dec) in ("functools.cache", "functools.lru_cache"):
                        stores.add((path.name, node.name))
        for node in tree.body:
            if (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and _mutable_store(node.value)):
                target = node.target if isinstance(node, ast.AnnAssign) \
                    else node.targets[0]
                stores.add((path.name, ast.unparse(target)))
    assert stores == {("maps.py", "_builtin"), ("poly.py", "_symbols")}


def test_memo_has_seven_tables():
    assert sorted(memo.sizes()) == ["components", "composites", "forms",
                                    "images", "jacobians", "pullbacks",
                                    "towers"]


def test_composition_of_inverses_attaches_inverse():
    henon = builtin("henon")
    sq = compose(henon, henon)
    assert verify_inverse(sq, attached_inverse(sq))


# ---------------------------------------------------------------------------
# inverse strategies
# ---------------------------------------------------------------------------

def test_linear_inverse():
    a = linear_map([[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    assert compose(a, attached_inverse(a)).is_identity()
    with pytest.raises(MapError):
        linear_map([[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_monomial_inverse_is_matrix_inverse():
    f = builtin("mon3")
    M = monomial_matrix_of(f)
    Minv = monomial_matrix_of(inverse(f))  # P^3: nothing to solve, so attached
    n = len(M)
    assert mat_pow([list(r) for r in M], 1) == [list(r) for r in M]
    prod = [[sum(M[i][k] * Minv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_plane_inverse_for_fibered_maps():
    jonq2 = builtin("jonq2")
    assert verify_inverse(jonq2, inverse(jonq2))
    assert inverse(jonq2).key() == parse_map("A2:(x/(y - 1), y - 1)").key()


def test_candidate_inverse_accepted_and_rejected():
    f = parse_map("A2:(x^2*y, x*y + 1)")
    good = parse_map("A2:(x/(y - 1), (y - 1)^2/x)")
    g = inverse(f, candidate=good)
    assert attached_inverse(f) is g and verify_inverse(f, g)
    f2 = parse_map("A2:(x^2*y, x*y + 1)")
    with pytest.raises(MapError):
        inverse(f2, candidate=parse_map("A2:(x, y)"))


def test_inverse_unavailable_for_non_birational_maps():
    with pytest.raises(InverseUnavailable, match="inverse"):
        inverse(parse_map("P2:[x^2 : y^2 : z^2]"))
    # dominant of topological degree 2, and not dominant (image a conic)
    for spec in ("P2:[x^2 + y^2 : y*z : z^2]", "P2:[x^2 : x*y : y^2]"):
        with pytest.raises(InverseUnavailable, match="inverse"):
            inverse(parse_map(spec))


def sympy_entries(f):
    syms = sympy.symbols(f.vars)
    return [sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                  for e, c in p.terms()}, *syms, domain=sympy.QQ)
            for p in f.entries]


def sympy_compose(F, G):
    """F after G on sympy entries: G substituted into each term of F in
    sympy's arithmetic, then the gcd of the entries divided out."""
    zero = sympy.Poly(0, *F[0].gens, domain=sympy.QQ)
    entries = []
    for p in F:
        total = zero
        for exps, c in p.terms():
            term = zero + c
            for g, e in zip(G, exps):
                term *= g ** e
            total += term
        entries.append(total)
    common = functools.reduce(sympy.gcd, entries)
    return [p.exquo(common) for p in entries]


def assert_proportional(f, want):
    # ProjMap.entries are the primitive, sign-normalized multiple of want
    got = sympy_entries(f)
    scale = got[0].LC() / want[0].LC()
    assert all(g == w * scale for g, w in zip(got, want)), str(f)


def test_compose_and_iterate_match_a_sympy_reference(dense_automorphism):
    # f^n is built here as f after f^(n-1), the reverse of the iterate chain
    rng = random.Random("sympy reference")
    fs = [builtin(name) for name in
          ("sigma", "henon", "jonq1", "jonq2", "hen2", "lox1")]
    fs += [conjugate(builtin(name), dense_automorphism(rng))
           for name in ("henon", "jonq2")]
    for f, g in zip(fs, fs[1:] + fs[:1]):
        assert_proportional(compose(f, g), sympy_compose(sympy_entries(f),
                                                         sympy_entries(g)))
    for f in fs:
        want = sympy_entries(f)
        for n in (1, 2, 3):
            if n > 1:
                want = sympy_compose(sympy_entries(f), want)
            assert_proportional(iterate(f, n), want)


@pytest.mark.parametrize("name", ["henon", "jonq2", "lox1", "sigma"])
def test_plane_inverse_of_dense_conjugate_specs(name, dense_automorphism):
    rng = random.Random(name)
    for _ in range(3):
        g = conjugate(builtin(name), dense_automorphism(rng))
        spec = parse_map(f"P2:{g}")
        assert solved_inverse(spec).key() == attached_inverse(g).key()


@pytest.mark.parametrize("spec", [
    "P2:[y*z : x*z : x*y]", "MON:2:[[0,1],[1,0]]", "MON:2:[[1,1],[0,1]]"])
def test_plane_solve_agrees_with_the_inverse_of_a_monomial_map(spec):
    g = monomial_map(monomial_matrix_of(parse_map(spec)))
    assert g.key() == parse_map(spec).key()
    fresh = ProjMap(g.entries)
    assert solved_inverse(fresh).key() == attached_inverse(g).key()


def test_plane_solve_agrees_with_the_inverse_of_a_linear_map(dense_automorphism):
    rng = random.Random("linear")
    for _ in range(3):
        a = dense_automorphism(rng)
        fresh = ProjMap(a.entries)
        assert solved_inverse(fresh).key() == attached_inverse(a).key()


def test_plane_inverse_of_a_shear_conjugate_spec():
    f = parse_map("P2:[x*z + y^2 : -x*z - y^2 - y*z : -z^2]")
    g = inverse(f)
    assert verify_inverse(f, g)
    assert g.key() == parse_map("P2:[x^2 + 2*x*y + x*z + y^2 : -x*z - y*z : -z^2]").key()


def test_non_plane_maps_beyond_linear_and_monomial_need_a_candidate():
    # a linear conjugate of the standard cubic involution of P^3
    a = linear_map([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [1, 0, 0, 1]])
    g = conjugate(parse_map("MON:3:[[-1,0,0],[0,-1,0],[0,0,-1]]"), a)
    fresh = ProjMap(g.entries)
    with pytest.raises(InverseUnavailable, match="tried: none"):
        inverse(fresh)
    ginv = inverse(g)  # P^3: nothing to solve, so attached
    assert inverse(fresh, candidate=ginv) is ginv


# ---------------------------------------------------------------------------
# applying maps to points
# ---------------------------------------------------------------------------

def test_normalize_point_is_blind_to_scale():
    rng = random.Random(5)
    for _ in range(200):
        coords = [Fr(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.7
                  else Fr(0) for _ in range(rng.randint(2, 4))]
        if not any(coords):
            continue
        q = Fr(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
        want = normalize_point(coords)
        assert normalize_point([c * q for c in coords]) == want
        assert all(type(v) is int for v in want)
        assert next(v for v in want if v) > 0
        assert math.gcd(*want) == 1
        # the same projective point
        i = next(i for i, c in enumerate(coords) if c)
        assert all(c * want[i] == v * coords[i] for c, v in zip(coords, want))


def test_apply_normalizes_and_detects_base_points():
    sigma = builtin("sigma")
    assert sigma.apply((2, 2, 2)) == normalize_point((1, 1, 1))
    assert sigma.apply((1, 0, 0)) is None  # indeterminate
    assert sigma.apply((1, 1, 0)) == normalize_point((0, 0, 1))
    with pytest.raises(MapError):
        sigma.apply((1, 0))


def test_conjugation_by_linear_maps():
    henon = builtin("henon")
    a = linear_map([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    g = conjugate(henon, a)
    assert g.degree() == henon.degree()
    assert conjugate(g, inverse(a)).key() == henon.key()
    assert conjugate(henon, identity(2)).key() == henon.key()


def test_conjugate_does_not_depend_on_an_earlier_inverse_call():
    # the conjugator is parsed fresh, so it carries no inverse until
    # conjugate asks for one; a fresh interpreter holds no earlier result
    script = ("from blowcube import builtin, conjugate, parse_map\n"
              "print(conjugate(builtin('henon'), parse_map('P2:[x+y : y : z]')))")
    fresh = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    a = parse_map("P2:[x+y : y : z]")
    inverse(a)
    want = str(conjugate(builtin("henon"), a))
    assert fresh.stdout == want + "\n"
    assert want == "[x*z + y^2 : -x*z - y^2 - y*z : -z^2]"


# ---------------------------------------------------------------------------
# monomial degree bookkeeping
# ---------------------------------------------------------------------------

def test_monomial_degree_sequence_matches_symbolic_iteration():
    M = [[1, 1], [1, 0]]
    f = monomial_map(M)
    assert monomial_degree_sequence(M, 6) == degree_sequence(f, 6)


def test_monomial_exponents_beyond_the_packing_are_refused():
    # the 12th power is [[F25, F24], [F24, F23]]: a row sum F26 = 121393
    with pytest.raises(MapError, match="exponent 121393, above the limit 65535"):
        monomial_degree_sequence([[2, 1], [1, 1]], 14)


def test_builtin_registry():
    assert builtin_names() == ("sigma", "henon", "jonq1", "jonq2",
                               "hen2", "lox1", "mon3")
    for name in builtin_names():
        f = builtin(name)
        assert f.name == name
        attached_inverse(f)  # for mon3 in P^3, that inverse() succeeds
        assert builtin(name) is f
    with pytest.raises(MapError):
        builtin("nope")


# ---------------------------------------------------------------------------
# composites through an inner map c * M after l
# ---------------------------------------------------------------------------

def _unimodular(rng) -> list[list[int]]:
    """A random 2x2 integer matrix of determinant +-1 whose monomial map
    has degree 2 to 4."""
    while True:
        m = [[1, 0], [0, 1]]
        for _ in range(rng.randint(2, 4)):
            i = rng.randrange(2)
            k = rng.choice((-2, -1, 1, 2))
            m[i] = [a + k * b for a, b in zip(m[i], m[1 - i])]
        if rng.random() < 0.5:
            m[0], m[1] = m[1], m[0]
        if 2 <= monomial_map(m).degree() <= 4:
            return m


def _shear(rng) -> list[list]:
    """Coordinates permuted and scaled, plus multiples of z."""
    rows = [[1, 0, rng.choice((-2, -1, 1, 3))], [0, 1, rng.choice((-1, 2))],
            [0, 0, 1]]
    rng.shuffle(rows)
    return [[rng.choice((1, -1, 2)) * c for c in row] for row in rows]


def _dense(rng, values) -> list[list]:
    while True:
        m = [[rng.choice(values) for _ in range(3)] for _ in range(3)]
        if maps._mat_inverse_frac(m) is not None:
            return m


def _power_products(scales, rows, lines) -> list[Poly]:
    """c * M after l, multiplied out: entry i is scales[i] times the product
    of the powers lines[j]^rows[i][j]."""
    return [functools.reduce(lambda a, b: a * b,
                             (line ** k for line, k in zip(lines, row))) * c
            for c, row in zip(scales, rows)]


@pytest.mark.parametrize("kind", ["shear", "integer", "rational"])
@pytest.mark.parametrize("seed", range(4))
def test_composites_through_a_monomial_linear_map_equal_the_product(kind, seed):
    rng = random.Random(100 * seed + len(kind))
    mon = monomial_map(_unimodular(rng))
    matrix = {"shear": lambda: _shear(rng),
              "integer": lambda: _dense(rng, (-3, -2, -1, 1, 2, 3)),
              "rational": lambda: _dense(rng, (Fr(-1, 2), Fr(2, 3), 1, -3, Fr(5, 4)))
              }[kind]()
    g = ProjMap(_power_products(
        [rng.choice((1, -2, 3)) for _ in range(3)],
        [p.leading()[0] for p in mon.entries],
        [parse_poly(" + ".join(f"({c})*{v}" for c, v in zip(row, P2)), P2)
         for row in matrix]))
    memo.clear()
    form = maps.monomial_linear_form(g)
    assert form is not None
    scales, rows, lines = form
    assert abs(maps._det3(rows)) == g.degree() == mon.degree()
    assert ProjMap(_power_products(scales, rows, lines)) == g
    for f in (builtin("henon"), builtin("lox1"), mon, g):
        want = primitive_tuple(compose_tuple(f.entries, g.entries))
        assert primitive_tuple(compose_monomial_linear(f.entries, *form)) == want
        assert maps._composite(f, g).entries == want
    assert memo.forms[g.key()] is form
    # the same map with rational scales and rational lines, not multiplied out
    scales = [c * Fr(2, 7) ** k for k, c in enumerate(scales)]
    lines = [line * Fr(3, 2) for line in lines]
    f = builtin("henon")
    assert primitive_tuple(compose_monomial_linear(f.entries, scales, rows, lines)) \
        == primitive_tuple(compose_tuple(f.entries, _power_products(scales, rows, lines)))


def test_a_shear_of_the_last_variable_is_substituted_by_translation(monkeypatch):
    # lox1^-1 = [x^2*z : (y - z)^3 : x*z*(y - z)], with l = (x, y - z, z)
    g = inverse(builtin("lox1"))
    form = maps.monomial_linear_form(g)
    assert [str(line) for line in form[2]] == ["x", "y - z", "z"]
    f, want = iterate(g, 3), iterate(g, 4)
    monkeypatch.setattr(Poly, "compose", None)  # the translate path needs none
    assert primitive_tuple(compose_monomial_linear(f.entries, *form)) == want.entries


@pytest.mark.parametrize("name", ["henon", "lox1", "jonq2", "hen2"])
def test_maps_that_are_not_monomial_after_linear_have_no_form(name):
    memo.clear()
    assert maps.monomial_linear_form(builtin(name)) is None


def test_dense_conjugates_have_no_form(monkeypatch, dense_automorphism):
    # J of a conjugate of sigma is three lines, but its entries are sums
    # of products of them: no entry vanishes on any of the lines, so each
    # map is refused by evaluations before anything is divided
    rng = random.Random(5)
    memo.clear()
    monkeypatch.setattr(maps, "strip_factor", None)
    for name in ("sigma", "henon", "jonq2", "lox1"):
        g = conjugate(builtin(name), dense_automorphism(rng))
        assert maps.monomial_linear_form(g) is None, name
        if name == "sigma":
            assert [p.degree() for p, _m in maps.jacobian_factors(g)] == [1, 1, 1]


def test_a_jacobian_line_on_which_no_entry_vanishes_refuses_before_division(
        monkeypatch):
    # b after lox1^-1, b linear: J has the lines x, y - z and z of lox1^-1,
    # and y - z divides the middle entry, but no entry vanishes on x = 0
    g = parse_map("P2:[(y - z)^3 : x^2*z + (y - z)^3 : (y - z)^3 + x*z*(y - z)]")
    memo.clear()
    assert [str(p) for p, _m in maps.jacobian_factors(g)] == ["x", "y - z", "z"]
    monkeypatch.setattr(maps, "strip_factor", None)
    assert maps.monomial_linear_form(g) is None


def test_a_monomial_map_of_lines_that_is_not_birational_has_no_form():
    # [l0^2 : l1^2 : l2^2] strips to three lines, but |det A| = 8, not 2
    lines = [parse_poly(s, P2) for s in ("x + y", "y - 2*z", "x + z")]
    g = ProjMap(tuple(line ** 2 for line in lines))
    memo.clear()
    assert maps.monomial_linear_form(g) is None
    assert [p.degree() for p, _m in maps.jacobian_factors(g)] == [1, 1, 1]


def test_monomial_maps_are_their_own_form():
    for f in (builtin("sigma"), builtin("jonq1"), builtin("mon3"), identity(3)):
        scales, rows, lines = maps.monomial_linear_form(f)
        assert lines == tuple(Poly.var(f.vars, v) for v in f.vars)
        assert rows == tuple(p.leading()[0] for p in f.entries)


def test_each_jacobian_is_factored_once(monkeypatch):
    # the inverse walk of lox1 reads the form of lox1^-1 from the Jacobian
    # factors that exc_components reads too
    memo.clear()
    g = inverse(builtin("lox1"))
    factored = []
    real = maps.factor_q
    monkeypatch.setattr(maps, "factor_q", lambda p: factored.append(p) or real(p))
    iterate(g, 3)
    exc_components(g)
    exc_components(builtin("lox1"))
    iterate(builtin("lox1"), 2)
    assert factored == [jacobian_det(g.entries), jacobian_det(builtin("lox1").entries)]
    assert set(memo.jacobians) == {g.key(), builtin("lox1").key()}


def test_conjugations_and_inverse_checks_factor_no_jacobian(monkeypatch,
                                                             dense_automorphism):
    # an inner form is asked for only when deg f > deg g: the composites of
    # a^-1 after f after a, and the checks f after f^-1 and f^-1 after f of
    # a new inverse, never ask for one
    rng = random.Random(7)
    a = dense_automorphism(rng)
    fs = [builtin(name) for name in ("jonq2", "lox1", "henon")]
    memo.clear()
    monkeypatch.setattr(maps, "factor_q", None)
    for f in fs:
        g = conjugate(f, a)
        assert g.degree() == f.degree()
        assert attached_inverse(g) == conjugate(inverse(f), a)
        assert inverse(ProjMap(g.entries)) == attached_inverse(g)
    assert not memo.jacobians
