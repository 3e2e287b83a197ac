"""Base-point towers, contracted curves, transport, stability."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from blowcube import (
    base_points,
    bubble_transport,
    builtin,
    classify,
    compose,
    conjugate,
    curve_image,
    exc_components,
    exc_curves,
    factor_q,
    indeterminacy_points,
    inverse,
    is_algebraically_stable,
    iterate,
    jacobian_det,
    parent_closed,
    parse_map,
    parse_poly,
)
from blowcube import memo, poly, resolve
from blowcube.config import DEFAULTS, RunConfig
from blowcube.errors import (
    BlowcubeError,
    HeightCapExceeded,
    IrrationalBaseLocus,
    MapError,
    ResolutionError,
    TransportUnsupported,
)
from blowcube.maps import ProjMap, linear_map
from blowcube.poly import canonical_factor
from blowcube.resolve import BubblePoint, ExcComponent

P2 = ("x", "y", "z")


def tower_shape(tree):
    """(count, max height, sorted multiplicities, sorted point labels)."""
    return (tree.count, tree.max_height,
            sorted(tree.multiplicities().values()),
            sorted(str(p) for p in tree.all_points()))


# ---------------------------------------------------------------------------
# towers of the bundled maps
# ---------------------------------------------------------------------------

def test_standard_involution_tower():
    tree = base_points(builtin("sigma"))
    assert tower_shape(tree) == (3, 0, [1, 1, 1],
                                 ["[0 : 0 : 1]", "[0 : 1 : 0]", "[1 : 0 : 0]"])


def test_quadratic_henon_tower_is_a_single_chain():
    tree = base_points(builtin("henon"))
    assert tree.count == 3
    assert len(tree.roots) == 1
    assert tree.max_height == 2
    labels = sorted(str(p) for p in tree.all_points())
    assert labels == ["[1 : 0 : 0]", "[1 : 0 : 0]; s=0", "[1 : 0 : 0]; s=0; s=-1"]
    # every non-root hangs off the previous point of the chain
    chain = sorted(tree.all_points(), key=lambda p: p.height)
    assert chain[1].parent() == chain[0]
    assert chain[2].parent() == chain[1]


def test_fibration_towers():
    assert tower_shape(base_points(builtin("jonq1")))[0:2] == (3, 1)
    tree = base_points(builtin("jonq2"))
    assert tower_shape(tree) == (3, 1, [1, 1, 1],
                                 ["[0 : 1 : 0]", "[1 : 0 : 0]", "[1 : 0 : 0]; v"])


def test_cubic_tower_has_a_double_point():
    tree = base_points(builtin("lox1"))
    assert tower_shape(tree) == (5, 2, [1, 1, 1, 1, 2],
                                 ["[0 : 1 : 0]", "[0 : 1 : 0]; v",
                                  "[1 : 0 : 0]", "[1 : 0 : 0]; v",
                                  "[1 : 0 : 0]; v; v"])


def test_noether_accounting_for_all_plane_builtins():
    for name in ("sigma", "henon", "jonq1", "jonq2", "hen2", "lox1"):
        f = builtin(name)
        tree = base_points(f)
        d = f.degree()
        mults = list(tree.multiplicities().values())
        assert sum(mults) == 3 * (d - 1), name
        assert sum(m * m for m in mults) == d * d - 1, name
        acct = tree.to_dict()["accounting"]
        assert acct["multiplicity_sum"] == acct["multiplicity_sum_expected"]
        assert acct["square_sum"] == acct["square_sum_expected"]


def test_base_point_count_matches_inverse():
    for name in ("sigma", "henon", "jonq2", "lox1"):
        f = builtin(name)
        assert base_points(f).count == base_points(inverse(f)).count, name


def test_towers_are_parent_closed():
    pts = base_points(builtin("henon")).all_points()
    assert parent_closed(pts)
    highest = max(pts, key=lambda p: p.height)
    assert not parent_closed(pts - {highest.parent()})


def test_conjugation_preserves_tower_shape():
    a = linear_map([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    g = conjugate(builtin("henon"), a)
    tree = base_points(g)
    assert tree.count == 3
    assert sorted(tree.multiplicities().values()) == [1, 1, 1]


def test_linear_maps_have_empty_towers():
    tree = base_points(linear_map([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    assert tree.count == 0 and tree.roots == ()


# ---------------------------------------------------------------------------
# caps and hard failures
# ---------------------------------------------------------------------------

def test_height_cap():
    cfg = RunConfig(height_cap=1)
    with pytest.raises(HeightCapExceeded):
        base_points(builtin("henon"), cfg)


def test_irrational_base_locus_is_reported_not_approximated():
    f = parse_map("P2:[x*z^2 : y*(y^2 - 2*z^2) : z*(y^2 - 2*z^2)]")
    with pytest.raises(IrrationalBaseLocus):
        base_points(f)


@pytest.mark.parametrize("spec", [
    "P2:[x*z^2 : y*(y^2 - 2*z^2) : z*(y^2 - 2*z^2)]",
    # the slopes over [1 : 0 : 0] are the roots of (t - 1)*(2*t^2 - 1): one
    # rational slope beside the conjugate pair
    "P2:[x*z^3 : y*(y - z)*(y^2 - 2*z^2) : z*(y - z)*(y^2 - 2*z^2)]",
], ids=["quadratic", "rational-and-quadratic"])
def test_conjugate_cluster_refusal_names_its_factor(spec):
    message = ("infinitely near points over [1 : 0 : 0] come in a conjugate "
               "cluster of degree 2 (2*t^2 - 1 = 0)")
    with pytest.raises(IrrationalBaseLocus, match=f"^{re.escape(message)}$"):
        base_points(inverse(parse_map(spec)))


@pytest.mark.parametrize("spec", [
    "P2:[x*z : y*z : y^2 - 2*x^2]",  # [1 : ±√2 : 0] and [0 : 0 : 1]
    "P2:[x*y : y*z : x^2 - 2*z^2]",  # [±√2 : 0 : 1] and [0 : 1 : 0]
    "P2:[y^2 - x*z : z^2 - 2*x*y : y*z - 2*x^2]",  # conjugate over Q(∛2)
], ids=["pair-at-infinity", "pair-in-the-chart", "cube-root-triple"])
def test_conjugate_base_points_are_reported_both_ways(spec):
    f = parse_map(spec)
    for g in (f, inverse(f)):
        with pytest.raises(IrrationalBaseLocus):
            base_points(g)


# ---------------------------------------------------------------------------
# contracted curves
# ---------------------------------------------------------------------------

def exc_table(f):
    return sorted((str(c.curve), str_pt(c.image)) for c in exc_components(f))


def str_pt(pt):
    return "(" + ", ".join(str(c) for c in pt) + ")"


def test_exceptional_sets_of_the_bundled_maps():
    assert exc_table(builtin("sigma")) == [
        ("x", "(1, 0, 0)"), ("y", "(0, 1, 0)"), ("z", "(0, 0, 1)")]
    assert exc_table(builtin("henon")) == [("z", "(0, 1, 0)")]
    assert exc_table(builtin("jonq1")) == [
        ("y", "(0, 0, 1)"), ("z", "(1, 0, 0)")]
    assert exc_table(builtin("jonq2")) == [
        ("y", "(0, 1, 1)"), ("z", "(1, 0, 0)")]
    assert exc_table(builtin("lox1")) == [
        ("x", "(0, 1, 1)"), ("y", "(0, 1, 1)"), ("z", "(1, 0, 0)")]


def test_exceptional_sets_of_the_inverses():
    assert exc_table(inverse(builtin("jonq2"))) == [
        ("y - z", "(1, 0, 0)"), ("z", "(0, 1, 0)")]
    assert exc_table(inverse(builtin("lox1"))) == [
        ("x", "(0, 1, 0)"), ("y - z", "(1, 0, 0)"), ("z", "(0, 1, 0)")]


def test_square_of_the_cubic_contracts_a_conic():
    f2 = iterate(builtin("lox1"), 2)
    got = exc_table(f2)
    assert got == [("x", "(0, 1, 1)"), ("x*y + z^2", "(0, 1, 1)"),
                   ("y", "(0, 1, 1)"), ("z", "(1, 0, 0)")]


def test_curve_image_direct_queries():
    sigma = builtin("sigma")
    x, conic = parse_poly("x", P2), parse_poly("x*y + z^2", P2)
    assert curve_image(sigma, x) == (1, 0, 0)
    assert curve_image(sigma, parse_poly("x + y + z", P2)) is None
    assert curve_image(sigma, conic) is None
    # a conic without rational points is decided like any other curve
    assert curve_image(sigma, parse_poly("x^2 + z^2", P2)) is None
    assert curve_image(iterate(builtin("lox1"), 2), conic) == (0, 1, 1)


def test_curve_image_needs_no_factoring_division_or_evaluation(monkeypatch):
    # the queries above, with every other exact route refused: the
    # remainder test alone decides them
    sigma, lox1_2 = builtin("sigma"), iterate(builtin("lox1"), 2)
    queries = [(sigma, "x", (1, 0, 0)), (sigma, "x + y + z", None),
               (sigma, "x*y + z^2", None), (sigma, "x^2 + z^2", None),
               (lox1_2, "x*y + z^2", (0, 1, 1))]

    def refuse(*_args):
        raise AssertionError("curve_image must decide by remainders alone")

    for module in (poly, resolve):
        for name in ("factor_q", "poly_divides", "poly_exact_div"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(ProjMap, "apply", refuse)
    memo.clear()
    for f, curve, image in queries:
        assert curve_image(f, parse_poly(curve, P2)) == image


def test_jacobians_of_dense_conjugates_reach_sympy_in_two_variables(monkeypatch,
                                                                     dense_automorphism):
    # factor_q factors a homogeneous Jacobian in the chart z = 1: sympy sees
    # two generators, one nesting level less than the plane's three, and the
    # components are still those of the factorization in x, y, z.  A parsed
    # copy of a conjugate has no parts, so its Jacobian is factored; the
    # conjugate's own factors are derived from its parts, and both agree
    # with sympy.
    rng = random.Random(5)
    maps = []
    for name in ("jonq2", "henon"):
        g = conjugate(builtin(name), dense_automorphism(rng))
        maps += [g, inverse(g)]
    want = []
    for f in maps:
        jac = jacobian_det(f.entries)
        _, facs = sympy.factor_list(poly._to_zz(jac).as_expr(), *sympy.symbols(P2))
        want.append(sorted((str(canonical_factor(parse_poly(
            str(fac).replace("**", "^"), P2))), m) for fac, m in facs))
    gens = []
    real = sympy.Poly.factor_list

    def spy(self, *args, **kwargs):
        gens.append((len(self.gens), self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(sympy.Poly, "factor_list", spy)
    for f, components in zip(maps, want):
        copy = parse_map(f"P2:{f}")
        memo.clear()
        del gens[:]
        got = sorted((str(c.curve), c.order) for c in exc_components(copy))
        assert got == components
        assert gens and all(n == 2 for n, _sp in gens)
        chart = poly._to_zz(jacobian_det(f.entries).dehomogenize())
        assert any(sp == chart for _n, sp in gens)
        memo.clear()
        assert sorted((str(c.curve), c.order) for c in exc_components(f)) == components


@pytest.mark.parametrize("name", ["sigma", "henon", "hen2", "jonq1", "jonq2",
                                  "lox1"])
def test_curve_image_commutes_with_linear_conjugation(name, dense_automorphism):
    # g = a^-1 f a contracts C(a) exactly when f contracts C, and to a^-1
    # of f's image point
    f = builtin(name)
    _, facs = factor_q(jacobian_det(f.entries))
    rng = random.Random(sum(map(ord, name)))
    for _ in range(3):
        a = dense_automorphism(rng)
        g = conjugate(f, a)
        for C, _mult in facs:
            image = curve_image(f, C)
            want = None if image is None else inverse(a).apply(image)
            assert curve_image(g, C.compose(a.entries)) == want


PLANE_BUILTINS = ["sigma", "henon", "hen2", "jonq1", "jonq2", "lox1"]


def _maps_and_horizons(name, dense_automorphism):
    """The built-in and its inverse to n = 3; except for lox1, two seeded
    dense conjugates and their inverses to n = 2."""
    f = builtin(name)
    cases = [(f, 3), (inverse(f), 3)]
    if name != "lox1":
        rng = random.Random(f"chains {name}")
        for _ in range(2):
            g = conjugate(f, dense_automorphism(rng))
            cases += [(g, 2), (inverse(g), 2)]
    return cases


@pytest.mark.parametrize("name", PLANE_BUILTINS)
def test_chains_give_the_contracted_curves_of_the_iterates(name, dense_automorphism):
    # the oracle factors J(f^n) itself: exc_components(f^n) would derive its
    # curves through the same strict transforms as the chains
    for f, horizon in _maps_and_horizons(name, dense_automorphism):
        for n in range(1, horizon + 1):
            pairs = exc_curves(f, n)
            fn = iterate(f, n)
            _, facs = factor_q(jacobian_det(fn.entries))
            direct = {(C, curve_image(fn, C)) for C, _m in facs}
            assert len(set(pairs)) == len(pairs)
            assert set(pairs) == direct, (name, str(f), n)


def test_classify_makes_each_remainder_test_once(monkeypatch):
    # mu and nu1 walk the same backward chains and the certificates query
    # the chain members again: one classify of each plane built-in asks
    # curve_image 137 times for 74 (map, curve) pairs.  A remainder test
    # reduces the coordinates of one map in order, so each run of three
    # poly_mod calls is one test, on the key (f.key(), C) of memo.images.
    calls = []
    real = resolve.poly_mod

    def spy(p, C):
        calls.append((p, C))
        return real(p, C)

    monkeypatch.setattr(resolve, "poly_mod", spy)
    memo.clear()
    for name in PLANE_BUILTINS:
        classify(builtin(name), 4)
    assert len(calls) % 3 == 0
    tests = Counter((tuple(p for p, _C in calls[i:i + 3]), calls[i][1])
                    for i in range(0, len(calls), 3))
    assert tests and max(tests.values()) == 1
    assert set(tests) == set(memo.images)


def test_stored_images_match_a_fresh_remainder_test():
    memo.clear()
    for name in PLANE_BUILTINS:
        classify(builtin(name), 4)
    stored = dict(memo.images)
    assert None in stored.values() and len(set(stored.values())) > 1
    memo.images.clear()
    for (entries, C), image in stored.items():
        assert curve_image(ProjMap(entries), C) == image, str(C)


def test_a_curve_through_every_coordinate_is_refused_and_not_stored():
    # ProjMap divides out common factors, so only a map built around it
    # reaches the refusal
    f = linear_map([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    x = parse_poly("x", P2)
    f.entries = tuple(x * e for e in f.entries)
    for _ in range(2):
        with pytest.raises(ResolutionError, match="divides every coordinate"):
            curve_image(f, x)
        assert (f.key(), x) not in memo.images


def factored_pullback(f, C):
    """The strict transform of C under f by factoring C(f): the factors that
    f does not contract, of which there must be exactly one."""
    if any(c.curve == C for c in exc_components(inverse(f))):
        return None
    seeds = {c.curve for c in exc_components(f)}
    candidates = [fac for fac, _m in factor_q(C.compose(f.entries))[1]
                  if fac not in seeds]
    assert len(candidates) == 1, (str(f), str(C))
    return candidates[0]


@pytest.mark.parametrize("name", PLANE_BUILTINS)
def test_strict_transforms_by_division_match_factoring(name, dense_automorphism):
    # every step of every chain that exc_curves walks to the horizon
    for f, horizon in _maps_and_horizons(name, dense_automorphism):
        walked = set()
        for comp in exc_components(f):
            C = comp.curve
            walked.add(C)
            for _j in range(1, horizon):
                C_next = resolve._pullback(f, C)
                assert C_next == factored_pullback(f, C), (name, str(f), str(C))
                if C_next is None:
                    break
                C = C_next
                walked.add(C)
        assert {C for C, _image in exc_curves(f, horizon)} <= walked


def test_a_pullback_with_nothing_left_raises(monkeypatch):
    # list the true strict transform as contracted onto a rational point of
    # C: the division then strips every factor of C(f), and _pullback must
    # refuse rather than return a constant or a contracted curve
    f = builtin("jonq1")  # C(f) = y*(x - z), and f contracts y = 0 into C
    C = parse_poly("x - y", P2)
    strict = resolve._pullback(f, C)
    assert strict == parse_poly("x - z", P2)
    assert C.evaluate((1, 1, 0)) == 0
    real = resolve.exc_components

    def with_fake(g):
        comps = real(g)
        if g == f:
            comps += (ExcComponent(strict, 1, (1, 1, 0)),)
        return comps

    memo.clear()
    monkeypatch.setattr(resolve, "exc_components", with_fake)
    try:
        with pytest.raises(ResolutionError, match="contracted curves"):
            resolve._pullback(f, C)
    finally:
        memo.clear()


@pytest.mark.parametrize("name", PLANE_BUILTINS)
def test_towers_of_iterates_match_the_towers_of_the_composites(name, dense_automorphism):
    # base_points(f, n=n) reads the chains of f^-1; base_points(f^n) factors
    # the Jacobian of the composite (f^-1)^n
    for f, horizon in _maps_and_horizons(name, dense_automorphism):
        for n in range(2, horizon + 1):
            want = base_points(iterate(f, n)).to_dict()
            assert base_points(f, n=n).to_dict() == want, (name, str(f), n)


@pytest.mark.parametrize("name", PLANE_BUILTINS)
def test_conjugation_moves_the_base_points(name, dense_automorphism):
    # g = a^-1 f a is undefined exactly at a^-1 of the base points of f
    f = builtin(name)
    tree = base_points(f)
    roots = [r.point.root for r in tree.roots]
    mults = sorted(tree.multiplicities().values())
    rng = random.Random(f"towers {name}")
    for _ in range(3):
        a = dense_automorphism(rng)
        moved = base_points(conjugate(f, a))
        assert ([r.point.root for r in moved.roots]
                == sorted(inverse(a).apply(p) for p in roots))
        assert sorted(moved.multiplicities().values()) == mults


def sympy_slopes(nz, bubble):
    """The rational common roots of the lowest forms nz, sorted, through
    sympy's gcd and factorization: a reference independent of the native
    slopes of ``_resolve_node``, with the same refusal."""
    g = poly.poly_gcd(*nz)
    roots = []
    for fac, _m in ([] if g.is_constant else factor_q(g)[1]):
        if fac.degree() > 1:
            raise IrrationalBaseLocus(
                f"infinitely near points over {bubble} come in a conjugate "
                f"cluster of degree {fac.degree()} ({fac} = 0)")
        roots.append(-fac.coefficient((0, 0)) / fac.coefficient((0, 1)))
    return sorted(roots)


def untruncated_node(system, bubble, chart, coords, height_cap, budget):
    """_resolve_node with the child budget budget - mult and no u-filter:
    the reference that the chain bound's truncation must agree with.  Its
    slopes come from sympy (``sympy_slopes``)."""
    system = [p.truncate_total(budget) for p in system]
    mult = resolve._order_at_origin(system)
    assert 1 <= mult <= budget
    alpha = [p.blow_up("u", mult) for p in system]
    nz = [q for q in (p.truncate_in("u", 0) for p in alpha) if not q.is_zero]
    slopes = sympy_slopes(nz, bubble)
    # read off the blown-up chart, not the lowest forms as _resolve_node does
    beta = [p.blow_up("t", mult) for p in system]
    vertical = all(p.coefficient((0, 0)) == 0 for p in beta)
    if (slopes or vertical) and bubble.height + 1 > height_cap:
        raise HeightCapExceeded(f"over {bubble}")
    blown = f"{chart}; bl({coords[0]},{coords[1]})"
    children = []
    for t0 in slopes:
        step = resolve.BubbleStep("s", t0)
        children.append(untruncated_node(
            [p.translate((Fraction(0), t0)) for p in alpha],
            BubblePoint(bubble.root, bubble.steps + (step,)), blown + "#0",
            (Fraction(0), t0), height_cap, budget - mult))
    if vertical:
        step = resolve.BubbleStep("v")
        children.append(untruncated_node(
            beta, BubblePoint(bubble.root, bubble.steps + (step,)),
            blown + "#1", (Fraction(0), Fraction(0)), height_cap,
            budget - mult))
    return resolve.BaseNode(bubble, chart, coords, mult, tuple(children))


def untruncated_tower(f, cfg, n, monkeypatch):
    """base_points(f, cfg, n) built by untruncated_node, with the memo tables
    emptied before and after, so that neither tower is read from the other."""
    memo.clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(resolve, "_resolve_node", untruncated_node)
            return base_points(f, cfg, n)
    finally:
        memo.clear()


@pytest.mark.parametrize("name", PLANE_BUILTINS)
def test_chain_bound_keeps_the_untruncated_tower(name, monkeypatch, dense_automorphism):
    f = builtin(name)
    rng = random.Random(f"chain bound {name}")
    horizon = 1 if name == "lox1" else 2
    for g in [f] + [conjugate(f, dense_automorphism(rng)) for _ in range(2)]:
        for n in range(1, horizon + 1):
            want = untruncated_tower(g, DEFAULTS, n, monkeypatch).to_dict()
            assert base_points(g, n=n).to_dict() == want, (name, str(g), n)


def test_towers_reach_no_sympy(monkeypatch, dense_automorphism):
    # slopes are found natively: with sympy's gcd and factorization refused
    # where resolve and poly bind them, the towers are those of the sympy
    # reference (the Jacobians of the built-ins are still factored, by maps)
    rng = random.Random("towers without sympy")
    maps = [builtin(name) for name in ("henon", "hen2", "jonq2")]
    maps += [conjugate(builtin(name), dense_automorphism(rng))
             for name in PLANE_BUILTINS]
    want = [untruncated_tower(f, DEFAULTS, 1, monkeypatch).to_dict() for f in maps]

    def refuse(*_args):
        raise AssertionError("a tower reached sympy")

    for module in (poly, resolve):
        for name in ("poly_gcd", "factor_q"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    memo.clear()
    try:
        assert [base_points(f).to_dict() for f in maps] == want
    finally:
        memo.clear()


@pytest.mark.parametrize("n,top", [(5, 14), (6, 17)])
def test_height_cap_is_met_exactly(n, top, monkeypatch):
    # the tower of henon^n is one chain of height 3n - 1: at cap 3n - 1 the
    # chain bound leaves its top node the whole lowest form, one below it
    # both towers stop
    f = builtin("henon")
    cfg = RunConfig(height_cap=top)
    tree = base_points(f, cfg, n)
    assert (tree.max_height, tree.count) == (top, top + 1)
    assert tree.to_dict() == untruncated_tower(f, cfg, n, monkeypatch).to_dict()
    below = RunConfig(height_cap=top - 1)
    with pytest.raises(HeightCapExceeded, match=f"exceeds height cap {top - 1}"):
        base_points(f, below, n)
    with pytest.raises(HeightCapExceeded):
        untruncated_tower(f, below, n, monkeypatch)


@pytest.mark.parametrize("name,n,capped,call", [
    # lox1's walk queries lox1^4, refused by the degree cap
    ("lox1", 4, RunConfig(degree_cap=20), lambda f, cfg, n: exc_curves(f, n, cfg)),
    # henon^5 has one chain of height 14 above [1 : 0 : 0]
    ("henon", 5, RunConfig(height_cap=9), base_points),
])
def test_a_stored_walk_or_tower_refuses_a_cap_as_a_fresh_one_does(name, n, capped,
                                                                  call):
    f = builtin(name)
    refusals = []
    for warm in (False, True):
        memo.clear()
        if warm:
            call(f, DEFAULTS, n)
        with pytest.raises(BlowcubeError) as info:
            call(f, capped, n)
        refusals.append((type(info.value), str(info.value)))
    assert refusals[0] == refusals[1]


def test_jacobian_order_of_contracted_lines():
    comps = exc_components(builtin("sigma"))
    assert {str(c.curve): c.order for c in comps} == {"x": 1, "y": 1, "z": 1}


# ---------------------------------------------------------------------------
# stability and transport
# ---------------------------------------------------------------------------

def test_degree_multiplicativity_verdicts():
    rep = is_algebraically_stable(builtin("henon"), 5)
    assert rep.stable and rep.witness is None
    assert rep.degrees == (2, 4, 8, 16, 32)
    rep = is_algebraically_stable(builtin("sigma"), 4)
    assert not rep.stable and rep.witness == 2
    assert rep.degrees == (2, 1, 2, 1)


def test_indeterminacy_points():
    assert indeterminacy_points(builtin("sigma")) == (
        (0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert indeterminacy_points(builtin("henon")) == ((1, 0, 0),)


def test_bubble_transport_moves_generic_proper_points():
    sigma = builtin("sigma")
    p, q = BubblePoint((1, 1, 1)), BubblePoint((1, 2, 3))
    moved = bubble_transport(sigma, [p, q])
    assert moved[p].root == (1, 1, 1)
    assert moved[q].root == (6, 3, 2)


def test_bubble_transport_refuses_hard_cases():
    sigma = builtin("sigma")
    with pytest.raises(TransportUnsupported):
        bubble_transport(sigma, [BubblePoint((0, 1, 2))])  # on a contracted line
    with pytest.raises(TransportUnsupported):
        bubble_transport(sigma, [BubblePoint((1, 0, 0))])  # a base point
    infinitely_near = max(base_points(builtin("henon")).all_points(),
                          key=lambda p: p.height)
    with pytest.raises(TransportUnsupported):
        bubble_transport(sigma, [infinitely_near])


# ---------------------------------------------------------------------------
# the composition law: an oracle for towers
# ---------------------------------------------------------------------------

def _degree_law_holds(f, g) -> bool:
    """deg(f g) = deg f deg g - sum m_p(f) m_p(g^-1) over the points p
    common to the towers of f and g^-1 (Alberich-Carramiñana, Geometry of
    the Plane Cremona Maps, LNM 1769): the base points of f that g^-1
    blows up cancel degree.  A point has one name in every tree, fixed by
    the chart of its root's first nonzero coordinate."""
    mf = base_points(f).multiplicities()
    mg = base_points(inverse(g)).multiplicities()
    cancelled = sum(mf[p] * mg[p] for p in mf.keys() & mg.keys())
    return compose(f, g).degree() == f.degree() * g.degree() - cancelled


def test_degree_law_on_every_pair_of_plane_builtins_and_inverses():
    maps = [h for name in PLANE_BUILTINS
            for h in (builtin(name), inverse(builtin(name)))]
    failed = [(str(f), str(g)) for f in maps for g in maps
              if not _degree_law_holds(f, g)]
    assert len(maps) ** 2 == 144 and failed == []


def test_degree_law_with_linear_composites_and_conjugates(dense_automorphism):
    # a built-in after a linear composite or conjugate of another one, so
    # base points of f and g^-1 sit in general position or move together
    rng = random.Random("degree law")
    for _ in range(12):
        f, g = (builtin(rng.choice(PLANE_BUILTINS)) for _ in range(2))
        a = dense_automorphism(rng)
        g = rng.choice([compose(a, g), compose(g, a), conjugate(g, a)])
        if rng.random() < 0.5:
            f, g = g, f
        assert _degree_law_holds(f, g), (str(f), str(g))


@pytest.mark.parametrize("name, depth", [("jonq2", 18), ("lox1", 4)])
def test_degree_law_at_depth(name, depth):
    # f^k = f^(k-1) f, an independent check on the deep towers; at the
    # default caps jonq2's tower over [0 : 1 : 0] outgrows the height cap at
    # k = 19, and lox1 at k = 5 costs seconds
    f = builtin(name)
    failed = [k for k in range(2, depth + 1)
              if not _degree_law_holds(iterate(f, k - 1), f)]
    assert failed == []
