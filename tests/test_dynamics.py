"""Dynamical invariants on the blow-up complex: balls, mu, nu, classification."""

import random
import signal

import pytest

from blowcube import (
    action_on_ball,
    ball,
    base_points,
    builtin,
    builtin_names,
    check_degree_bound,
    check_gromov,
    classify,
    classify_isometry,
    conjugate,
    degree_growth_class,
    degree_sequence,
    distance,
    exc_components,
    exc_count_sequence,
    exc_curves,
    geodesics,
    hyperplanes,
    identity,
    inverse,
    is_algebraically_stable,
    iterate,
    jacobian_det,
    marked_vertex,
    monomial_degree_sequence,
    mu,
    nu1,
    parse_map,
    parse_poly,
    poly_exact_div,
    transition,
    vertex_distance,
    vertex_equiv,
)
from blowcube import dynamics, maps, memo, resolve
from blowcube.config import DEFAULTS, RunConfig
from blowcube.errors import (ComplexError, IrrationalBaseLocus, MapError,
                             ResolutionError)
from blowcube.maps import linear_map


def sigma_ball():
    sigma = builtin("sigma")
    universe = (base_points(sigma).all_points()
                | base_points(inverse(sigma)).all_points())
    return ball(marked_vertex(identity(2)), 3, universe, markings=[sigma])


@pytest.fixture(scope="module")
def figure_ball():
    return sigma_ball()


# ---------------------------------------------------------------------------
# marked vertices
# ---------------------------------------------------------------------------

def test_marked_vertex_validation():
    v = marked_vertex(identity(2))
    assert v.picard_rank == 1
    with pytest.raises(MapError):
        marked_vertex(builtin("mon3"))  # wrong dimension
    pts = base_points(builtin("henon")).all_points()
    top = max(pts, key=lambda p: p.height)
    with pytest.raises(ComplexError):
        marked_vertex(identity(2), blown=[top])  # not parent-closed
    assert marked_vertex(identity(2), blown=pts).picard_rank == 4


def test_transition_recovers_the_relative_marking():
    sigma = builtin("sigma")
    v_id, v_sigma = marked_vertex(identity(2)), marked_vertex(sigma)
    assert transition(v_sigma, v_id).key() == sigma.key()
    assert vertex_distance(v_id, v_sigma) == 6
    assert vertex_distance(v_sigma, v_id) == 6
    assert not vertex_equiv(v_id, v_sigma)


def test_blowing_up_all_three_base_points_fixes_the_vertex():
    sigma = builtin("sigma")
    pts = base_points(sigma).all_points()
    assert vertex_equiv(marked_vertex(identity(2), pts),
                        marked_vertex(sigma, pts))


# ---------------------------------------------------------------------------
# the radius-3 ball around the plane
# ---------------------------------------------------------------------------

def test_ball_shape(figure_ball):
    C = figure_ball.complex
    assert len(C.vertices) == 15
    assert len(C.edges) == 24
    assert len(C.cubes.get(2, ())) == 12
    assert len(C.cubes.get(3, ())) == 2
    assert len(hyperplanes(C)) == 6
    assert check_gromov(C).flag


def test_ball_distance_and_geodesics(figure_ball):
    B = figure_ball
    assert B.center == "id[]"
    sid = B.find(marked_vertex(builtin("sigma")))
    assert sid == "sigma[]"
    assert distance(B.complex, B.center, sid) == 6
    res = geodesics(B.complex, B.center, sid)
    assert res.complete and len(res) == 36


def test_ball_membership(figure_ball):
    assert figure_ball.find(marked_vertex(builtin("henon"))) is None


def test_action_is_elliptic_with_the_del_pezzo_vertex(figure_ball):
    B = figure_ball
    act = action_on_ball(builtin("sigma"), B)
    rep = classify_isometry(B.complex, act, B.center, N=4)
    assert rep.kind == "elliptic"
    assert rep.distances == (0, 6, 0, 6, 0)
    assert rep.fixed_vertex == "id[[0 : 0 : 1], [0 : 1 : 0], [1 : 0 : 0]]"


def test_action_outside_the_ball_is_refused(figure_ball):
    with pytest.raises(ComplexError):
        action_on_ball(builtin("henon"), figure_ball)


def test_a_ball_builds_each_composite_once(built_composites):
    memo.clear()
    sigma_ball()
    assert built_composites
    assert len(set(built_composites)) == len(built_composites)


def test_a_center_beyond_the_universe_joins_the_ball():
    # the center's face over [0 : 1 : 0] is no presentation of the ball
    sigma = builtin("sigma")
    points = sorted(base_points(sigma).all_points(), key=lambda p: p.sort_key())
    center = marked_vertex(identity(2), points[:2])
    B = ball(center, 2, points[:1], markings=[sigma])
    assert B.vertices[B.center] is center
    assert sorted(B.complex.edges) == [
        ("id[[0 : 0 : 1], [0 : 1 : 0]]", "id[[0 : 0 : 1]]"),
        ("id[[0 : 0 : 1]]", "id[]"), ("sigma[[0 : 0 : 1]]", "sigma[]")]
    assert not B.complex.cubes


def test_negative_ball_radius_is_refused():
    center = marked_vertex(identity(2))
    with pytest.raises(ValueError, match="radius must be at least 0"):
        ball(center, -1, universe=[], markings=[builtin("sigma")])


# ---------------------------------------------------------------------------
# growth invariants
# ---------------------------------------------------------------------------

def test_mu_of_the_standard_involution_is_zero():
    res = mu(builtin("sigma"))
    assert res.value == 0
    assert res.sequence == (3, 0, 3, 0, 3)
    assert res.fixed_vertex == "id[[0 : 0 : 1], [0 : 1 : 0], [1 : 0 : 0]]"


def test_mu_counts_accumulating_base_points():
    res = mu(builtin("henon"))
    assert res.value == 3
    assert res.sequence == (3, 6, 9, 12, 15)
    res = mu(builtin("jonq1"))
    assert res.value == 2
    assert res.sequence == (3, 5, 7, 9, 11)


def test_mu_of_the_cubic_map():
    res = mu(builtin("lox1"), N=3)
    assert res.value == 4
    assert res.sequence == (5, 9, 13)


def test_exc_count_sequences():
    assert exc_count_sequence(builtin("henon"), 5) == [1, 1, 1, 1, 1]
    assert exc_count_sequence(builtin("jonq1"), 5) == [2, 2, 2, 2, 2]
    assert exc_count_sequence(builtin("jonq2"), 5) == [2, 3, 4, 5, 6]


def test_exc_count_sequence_returns_a_fresh_list():
    jonq2 = builtin("jonq2")
    counts = exc_count_sequence(jonq2, 4)
    counts[0] = 99
    assert exc_count_sequence(jonq2, 4) == [2, 3, 4, 5]


def test_failed_exc_certificate_raises(monkeypatch):
    # a wrong chain count fails the division certificate, which is never
    # patched over; the failure is forced here at n = 2, where jonq2 counts 3
    monkeypatch.setattr(dynamics, "_exc_certificate", lambda fn, counted: False)
    with pytest.raises(ResolutionError,
                       match=r"\|Exc\^1\(f\^2\)\| .*: the 3 curves counted .* fail"):
        exc_count_sequence(builtin("jonq2"), 3)


def _contracted_by_square(name):
    f2 = iterate(builtin(name), 2)
    return f2, [(comp.curve, comp.image) for comp in exc_components(f2)]


@pytest.mark.parametrize("name", ["jonq2", "henon"])
def test_exc_certificate_accepts_the_contracted_curves(name):
    f2, counted = _contracted_by_square(name)
    assert counted
    assert dynamics._exc_certificate(f2, counted)
    assert dynamics._exc_certificate(f2, exc_curves(builtin(name), 2))


@pytest.mark.parametrize("name", ["jonq2", "henon"])
def test_exc_certificate_rejects_a_wrong_curve_list(name):
    f2, counted = _contracted_by_square(name)
    assert not dynamics._exc_certificate(f2, counted[1:])  # one missing
    assert not dynamics._exc_certificate(f2, counted + counted[:1])  # twice
    line = parse_poly("x + 2*y + 3*z", f2.vars)
    with pytest.raises(ValueError, match="not an exact division"):
        poly_exact_div(jacobian_det(f2.entries), line)
    assert not dynamics._exc_certificate(f2, counted + [(line, (1, 0, 0))])
    # the right curves, one of them sent to the wrong point
    (C, _image), *rest = counted
    assert not dynamics._exc_certificate(f2, [(C, (1, 2, 3)), *rest])


def test_exc_certificate_rejects_a_vanishing_jacobian():
    # exact division of 0 by a curve gives 0 again, so without its guard
    # the stripping loop would never end; the alarm turns that into a failure
    f = parse_map("P2:[x^2 : x*y : y^2]")
    assert jacobian_det(f.entries).is_zero

    def hang(signum, frame):
        raise AssertionError("the certificate does not return on J = 0")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        assert not dynamics._exc_certificate(
            f, [(parse_poly("x", f.vars), (1, 0, 0))])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_nu1_counts_are_certified_without_factoring(monkeypatch, dense_automorphism):
    # a failed certificate raises ResolutionError; the spy shows that the
    # certificates ran and held
    real = dynamics._exc_certificate
    verdicts = []

    def spy(fn, counted):
        verdicts.append(real(fn, counted))
        return verdicts[-1]

    memo.clear()
    monkeypatch.setattr(dynamics, "_exc_certificate", spy)
    rng = random.Random(1)
    for name in ("sigma", "henon", "jonq1", "jonq2", "hen2"):
        f = builtin(name)
        nu1(f, N=4)
        for _ in range(3):
            nu1(conjugate(f, dense_automorphism(rng)), N=2)
    assert verdicts and all(verdicts)


def test_mu_and_nu1_factor_only_jacobians_and_slope_polynomials(monkeypatch,
                                                                dense_automorphism):
    # the backward chains divide instead of factoring: the only polynomials
    # factored are J(f), J(f^-1) (by maps.jacobian_factors) and, when a
    # tower refuses a conjugate cluster, the (u, t) gcd of its lowest forms
    # (slopes are found natively).  The Jacobian factors of a dense
    # conjugate a^-1 after f after a and of its inverse are derived from
    # those of f and f^-1, factored for the built-ins before, so at most
    # such gcds are factored for a conjugate.
    real = resolve.factor_q
    inputs = []

    def spy(p):
        inputs.append(p)
        return real(p)

    memo.clear()
    monkeypatch.setattr(resolve, "factor_q", spy)
    monkeypatch.setattr(maps, "factor_q", spy)
    rng = random.Random(2)
    cases = [(builtin(name), 4, True) for name in
             ("sigma", "henon", "hen2", "jonq1", "jonq2", "lox1")]
    cases += [(conjugate(builtin(name), dense_automorphism(rng)), 2, False)
              for name in ("henon", "jonq2")]
    factored = 0
    for f, N, own in cases:
        del inputs[:]
        mu(f, N=N)
        nu1(f, N=N)
        jacobians = ({jacobian_det(f.entries), jacobian_det(inverse(f).entries)}
                     if own else set())
        for p in inputs:
            assert p in jacobians or p.vars == resolve.CHART_VARS, (str(f), str(p))
        factored += len(inputs)
    assert factored


# Each map contracts a Galois orbit of lines to conjugate points; counting
# only the curves with a rational image would give (0, 0, 0) and (1, 0, 1, 0).
@pytest.mark.parametrize("spec, N", [
    ("P2:[y^2 - x*z : z^2 - 2*x*y : y*z - 2*x^2]", 3),  # three conjugate lines
    ("P2:[x*z : y*z : y^2 - 2*x^2]", 4),  # z = 0 and the pair y = ±√2·x
])
def test_nu1_refuses_curves_contracted_to_irrational_points(spec, N):
    with pytest.raises(IrrationalBaseLocus):
        nu1(parse_map(spec), N=N)


def test_nu_verdicts():
    res = nu1(builtin("henon"))
    assert (res.nu_f, res.nu_finv) == (0, 0)
    res = nu1(builtin("jonq2"))
    assert (res.nu_f, res.nu_finv) == (1, 1)
    assert res.seq_f == (2, 3, 4, 5, 6)
    assert res.seq_finv == (2, 3, 4, 5, 6)


def test_degree_growth_classes():
    assert degree_growth_class(builtin("sigma")).kind == "bounded"
    assert degree_growth_class(builtin("jonq1")).kind == "linear"
    assert degree_growth_class(builtin("jonq2")).kind == "linear"
    assert degree_growth_class(builtin("henon")).kind == "exponential"
    assert degree_growth_class(builtin("lox1"), N=3).kind == "exponential"


@pytest.mark.parametrize("degrees, kind, row, col1", [
    ((2, 5, 10, 17, 26), "quadratic", 4, "parabolic"),  # n^2 + 1
    ((2, 3, 3, 4, 4), "undecided", None, "undecided"),
], ids=["quadratic", "undecided"])
def test_degree_classes_no_builtin_reaches(degrees, kind, row, col1, monkeypatch):
    # sigma keeps its mu and nu1, 0 each; only the degree sequence is planted
    monkeypatch.setattr(dynamics, "degree_sequence",
                        lambda f, N, cfg: list(degrees))
    assert degree_growth_class(builtin("sigma"), 5).kind == kind
    data = classify(builtin("sigma"), 5).to_dict()
    assert data["degree_class"] == kind and data["degrees"] == list(degrees)
    assert (data["mu"], data["nu_forward"], data["nu_backward"]) == (0, 0, 0)
    assert data["isometries"] == {"hyperbolic_space": col1,
                                  "blowup_complex": "elliptic",
                                  "restricted_complex": "elliptic"}
    assert data["table_row"] == row


def test_degree_growth_lambda_estimate():
    growth = degree_growth_class(builtin("henon"))
    assert growth.lambda_pair == (32, 5)
    assert abs(growth.lambda_estimate - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# the classification table
# ---------------------------------------------------------------------------

def test_classification_rows():
    assert classify(builtin("sigma")).table_row == 1
    assert classify(builtin("jonq1")).table_row == 2
    assert classify(builtin("jonq2")).table_row == 3
    assert classify(builtin("henon")).table_row == 6
    assert classify(builtin("hen2")).table_row == 6
    assert classify(builtin("lox1"), N=3).table_row == 7


def test_classification_isometry_triples():
    rep = classify(builtin("sigma"))
    assert rep.isometries == ("elliptic", "elliptic", "elliptic")
    assert rep.caps_hit == ()
    rep = classify(builtin("jonq2"))
    assert rep.isometries == ("parabolic", "loxodromic", "loxodromic")
    rep = classify(builtin("lox1"), N=3)
    assert rep.isometries == ("loxodromic", "loxodromic", "loxodromic")


def test_classification_report_dict_shape():
    data = classify(builtin("sigma")).to_dict()
    assert data["table_row"] == 1
    assert data["mu"] == 0
    assert data["nu_forward"] == 0 and data["nu_backward"] == 0
    assert data["degree_class"] == "bounded"
    assert data["isometries"] == {"hyperbolic_space": "elliptic",
                                  "blowup_complex": "elliptic",
                                  "restricted_complex": "elliptic"}


@pytest.mark.parametrize("capped", [RunConfig(degree_cap=20),
                                    RunConfig(height_cap=9)],
                         ids=["degree_cap", "height_cap"])
def test_classify_does_not_depend_on_the_caps_of_earlier_runs(capped):
    # the memo tables hold no cap, so a run after a run under another cap
    # must report what a run after memo.clear() reports, and store the
    # composites and curve images of a fresh default run; lox1 stops at
    # N = 4 to keep this fast
    def classify_all(cfg):
        return [classify(builtin(name), 4 if name == "lox1" else 5, cfg).to_dict()
                for name in ("sigma", "henon", "jonq1", "jonq2", "hen2", "lox1")]

    # a built-in's inverse checks enter the store when it is first built
    for name in builtin_names():
        builtin(name)
    runs, stored = [], []
    for first, second in ((DEFAULTS, capped), (capped, DEFAULTS)):
        memo.clear()
        for cfg in (first, second):
            runs.append(classify_all(cfg))
            stored.append((set(memo.composites), set(memo.images)))
    fresh_default, capped_after, fresh_capped, default_after = runs
    assert any(report["caps_hit"] for report in fresh_capped)
    assert capped_after == fresh_capped
    assert default_after == fresh_default
    assert stored[1] == stored[3] == stored[0]


def test_caps_leave_invariants_undecided_but_reported():
    f = builtin("lox1")
    rep = classify(f, N=5, cfg=RunConfig(degree_cap=50))
    assert rep.growth.kind == "undecided"
    assert any("degree cap" in c for c in rep.caps_hit)
    assert rep.table_row is None


# ---------------------------------------------------------------------------
# the contracted-curve degree bound
# ---------------------------------------------------------------------------

def test_degree_bound_for_the_linear_fibration():
    rep = check_degree_bound(builtin("jonq2"), N=8)
    assert not rep.vacuous
    assert rep.holds
    assert [(n, d, e) for n, d, e, _ok in rep.rows] == [
        (n, n + 1, n + 1) for n in range(1, 9)]


def test_degree_bound_walks_no_power_of_the_inverse():
    # deg henon^n is read off one walk of henon^k; (henon^-1)^k is built
    # only as far as the backward chains of nu1 need it
    henon = builtin("henon")
    memo.clear()
    check_degree_bound(henon, 8)
    right = inverse(henon).key()
    assert max(h.degree() for (_f, g), h in memo.composites.items()
               if g == right) <= 16


def test_degree_bound_horizon_defaults_to_the_config():
    rep = check_degree_bound(builtin("jonq2"), cfg=RunConfig(iters=3))
    assert [n for n, _d, _e, _ok in rep.rows] == [1, 2, 3]


@pytest.mark.parametrize("invariant", [
    lambda f, N: classify(f, N).to_dict(), mu, nu1, degree_growth_class,
    exc_count_sequence, check_degree_bound, degree_sequence,
    lambda f, N: monomial_degree_sequence([[1, 1], [1, 0]], N),
    is_algebraically_stable,
], ids=["classify", "mu", "nu1", "degree_growth_class", "exc_count_sequence",
        "check_degree_bound", "degree_sequence", "monomial_degree_sequence",
        "is_algebraically_stable"])
@pytest.mark.parametrize("N", [0, -1])
def test_horizon_below_one_is_refused(invariant, N):
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        invariant(builtin("henon"), N)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        invariant(linear_map([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), N)


def test_degree_bound_is_vacuous_without_contraction_growth():
    rep = check_degree_bound(builtin("henon"), N=4)
    assert rep.vacuous and rep.holds
    rep = check_degree_bound(linear_map([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), N=3)
    assert rep.vacuous
    assert rep.rows == ((1, 1, 0, True), (2, 1, 0, True), (3, 1, 0, True))
