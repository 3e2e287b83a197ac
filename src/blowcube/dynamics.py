"""Dynamics on the complex of marked blow-ups of the plane.

A vertex is a surface T with a birational marking to the reference plane,
presented as a pair (g, B): T is the blow-up of the plane in the finite,
parent-closed set B of bubble points and the marking is g composed with the
blow-down.  Two presentations name the same vertex when the transition map
between them lifts to an isomorphism, and the combinatorial distance is the
total number of base points of the lifted transition in both directions.

On top of the vertices sit the dynamical invariants of a plane map f: the
growth class of deg(f^n), the base-point growth rate mu(f), the contracted
curve growth rate nu1(f) (tracked through backward orbits of the contracted
curves), the induced isometry types, and the degree lower bound coming from
contracted-curve counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .config import (DEFAULTS, RATIO_MARGIN, RunConfig, below_bound,
                     check_horizon)
from .cubes import CubeComplex, VertexIsometry, build_complex
from .errors import (ComplexError, DegreeCapExceeded, HeightCapExceeded,
                     IrrationalBaseLocus, MapError, ResolutionError,
                     TransportUnsupported)
from .maps import (ProjMap, ProjPoint, compose, degree_sequence, identity,
                   inverse, iterate, normalize_point)
from .poly import Poly, jacobian_det, strip_factor
from .resolve import (BubblePoint, base_points, bubble_transport,
                      curve_image, exc_curves, parent_closed)

_PROBE_UNIVERSE_CAP = 8  # fixed-vertex probes enumerate subsets of this many points


def _as_bubble(p) -> BubblePoint:
    if isinstance(p, BubblePoint):
        return p
    return BubblePoint(normalize_point(p))


# ---------------------------------------------------------------------------
# marked vertices and the distance formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkedVertex:
    """A marked surface (g, B): the blow-up of the plane in B, marked by g."""

    marking: ProjMap
    blown: frozenset[BubblePoint] = frozenset()

    @property
    def picard_rank(self) -> int:
        return 1 + len(self.blown)

    def __str__(self):
        m = self.marking.name or str(self.marking)
        pts = ", ".join(str(p) for p in sorted(self.blown, key=BubblePoint.sort_key))
        return f"{m}[{pts}]"


def marked_vertex(marking: ProjMap, blown: Iterable = ()) -> MarkedVertex:
    """Validated vertex presentation; attaches the marking's inverse."""
    if marking.dim != 2:
        raise MapError("marked vertices live over the plane")
    inverse(marking)
    pts = frozenset(_as_bubble(p) for p in blown)
    if not parent_closed(pts):
        raise ComplexError(
            "the blown set is not parent-closed: an infinitely near point "
            "appears without the point below it")
    return MarkedVertex(marking, pts)


def transition(v1: MarkedVertex, v2: MarkedVertex,
               cfg: RunConfig = DEFAULTS) -> ProjMap:
    """The plane map under the transition from v1 to v2 (g2^-1 after g1)."""
    return compose(inverse(v2.marking), v1.marking, cfg)


def _lift_base_count(h: ProjMap, B1: frozenset, B2: frozenset,
                     cfg: RunConfig) -> int:
    """Base points of the lift of h from the blow-up in B1 to the blow-up in B2.

    The lift must blow up the base points of h that B1 does not already
    provide, plus the preimages of the points of B2 that neither appear as
    base points of h^-1 nor are reached by transporting B1 through h.
    """
    bs_h = base_points(h, cfg).all_points()
    bs_hinv = base_points(inverse(h), cfg).all_points()
    count = len(bs_h - B1)
    rest = B2 - bs_hinv
    if not rest:
        return count
    movers = B1 - bs_h
    images = set()
    if movers:
        if not all(q.is_proper for q in rest):
            # matching infinitely near targets would need transports that
            # evaluation cannot provide
            raise TransportUnsupported(
                "cannot match infinitely near marked points through "
                f"{h}; present the vertices over a common model")
        for p in movers:
            if not p.is_proper:
                continue  # its image stays infinitely near, off the proper rest
            try:
                images.add(bubble_transport(h, [p])[p])
            except TransportUnsupported:
                # p sits on a contracted curve: its image is infinitely near
                continue
    return count + len(rest - images)


def vertex_distance(v1: MarkedVertex, v2: MarkedVertex,
                    cfg: RunConfig = DEFAULTS) -> int:
    """Combinatorial distance: base points of the lifted transition both ways."""
    h = transition(v1, v2, cfg)
    hinv = inverse(h)
    return (_lift_base_count(h, v1.blown, v2.blown, cfg)
            + _lift_base_count(hinv, v2.blown, v1.blown, cfg))


def vertex_equiv(v1: MarkedVertex, v2: MarkedVertex,
                 cfg: RunConfig = DEFAULTS) -> bool:
    """Same vertex: the transition lifts to an isomorphism of the surfaces."""
    if v1.picard_rank != v2.picard_rank:
        return False
    return vertex_distance(v1, v2, cfg) == 0


# ---------------------------------------------------------------------------
# finite balls of the complex
# ---------------------------------------------------------------------------

@dataclass
class BallResult:
    complex: CubeComplex
    vertices: dict  # vertex id -> canonical MarkedVertex presentation
    center: str
    cfg: RunConfig = DEFAULTS

    def find(self, v: MarkedVertex) -> Optional[str]:
        """The ball vertex equivalent to the given presentation, if any."""
        for vid in sorted(self.vertices):
            w = self.vertices[vid]
            if vertex_equiv(w, v, self.cfg):
                return vid
        return None


def _closed_subsets(universe: Iterable[BubblePoint], radius: int) -> list[frozenset]:
    """The parent-closed subsets of at most ``radius`` points, sorted by
    size and then by their sorted point keys."""
    pts = sorted(universe, key=BubblePoint.sort_key)
    return [frozenset(combo) for size in range(min(radius, len(pts)) + 1)
            for combo in combinations(pts, size) if parent_closed(combo)]


def ball(center: MarkedVertex, radius: int, universe: Iterable,
         markings: Sequence[ProjMap] = (), cfg: RunConfig = DEFAULTS) -> BallResult:
    """The full subcomplex on the presentations (m, B) with B drawn from
    ``universe`` (at most ``radius`` points, parent-closed) and m among the
    center's marking plus ``markings``.

    Vertices are deduplicated through the equivalence of presentations,
    and the center comes last, so it names a vertex of its own only when no
    presentation is equivalent to it; edges are the distance-1 pairs, oriented from the higher Picard rank to
    the lower; cubes are the intervals [B0, B1] whose difference blows up
    independently (each extra point proper or rooted inside B0).
    """
    if why := below_bound("radius", radius):
        raise ValueError(f"the ball radius {why}")
    subsets = _closed_subsets({_as_bubble(p) for p in universe}, radius)
    marks: list[ProjMap] = [center.marking]
    for m in markings:
        if all(m.key() != g.key() for g in marks):
            inverse(m)
            marks.append(m)

    presentations = [MarkedVertex(m, B) for m in marks for B in subsets]
    presentations.append(center)

    canonical: list[MarkedVertex] = []
    ids: list[str] = []
    index: dict = {}  # (marking key, blown) -> vertex id
    for pres in presentations:
        hit = None
        for i, rep in enumerate(canonical):
            if vertex_equiv(rep, pres, cfg):
                hit = i
                break
        if hit is None:
            canonical.append(pres)
            ids.append(str(pres))
            hit = len(canonical) - 1
        index[(pres.marking.key(), pres.blown)] = ids[hit]

    edges = []
    n = len(canonical)
    for i in range(n):
        for j in range(i + 1, n):
            hi, lo = canonical[i], canonical[j]
            ihi, ilo = ids[i], ids[j]
            if hi.picard_rank < lo.picard_rank:
                hi, lo, ihi, ilo = lo, hi, ilo, ihi
            if hi.picard_rank - lo.picard_rank != 1:
                continue
            if vertex_distance(hi, lo, cfg) == 1:
                edges.append((ihi, ilo))

    cubes = set()
    for mk, B1 in index:
        for r in range(2, len(B1) + 1):
            for diff in combinations(sorted(B1, key=BubblePoint.sort_key), r):
                B0 = B1 - frozenset(diff)
                if not all(q.is_proper or q.parent() in B0 for q in diff):
                    continue
                # a center outside the subsets may have faces outside the ball
                corners = {index.get((mk, B0 | frozenset(sub)))
                           for size in range(r + 1)
                           for sub in combinations(diff, size)}
                if None not in corners and len(corners) == 1 << r:
                    cubes.add(frozenset(corners))

    complex_ = build_complex(ids, edges, sorted(cubes, key=sorted))
    center_id = index[(center.marking.key(), center.blown)]
    return BallResult(complex_, dict(zip(ids, canonical)), center_id, cfg)


def action_on_ball(f: ProjMap, result: BallResult,
                   cfg: RunConfig = DEFAULTS) -> VertexIsometry:
    """The vertex map (T, g) -> (T, f a) of f on a materialized ball.

    Every image must land back in the ball (up to equivalence), otherwise
    the ball is too small and a ComplexError says so.
    """
    inverse(f)
    mapping = {}
    for vid in sorted(result.vertices):
        v = result.vertices[vid]
        moved = MarkedVertex(compose(f, v.marking, cfg), v.blown)
        target = result.find(moved)
        if target is None:
            raise ComplexError(
                f"the action of {f.name or f} pushes {vid} outside the ball")
        mapping[vid] = target
    return VertexIsometry(mapping)


# ---------------------------------------------------------------------------
# slope extraction shared by the growth invariants
# ---------------------------------------------------------------------------

def _horizon(N: Optional[int], cfg: RunConfig) -> int:
    """The iterate horizon: N, or ``cfg.iters`` when N is None; at least 1."""
    return cfg.iters if N is None else check_horizon(N)


def _tail_window(n: int) -> int:
    return -(-n // 2)


def _tail_slope(seq: Sequence[int]) -> Optional[int]:
    """The constant difference over the final half window, if there is one."""
    n = len(seq)
    window = _tail_window(n)
    if n < window + 1:
        return None
    diffs = [seq[i] - seq[i - 1] for i in range(n - window, n)]
    if all(d == diffs[0] for d in diffs):
        return diffs[0]
    return None


def _tail_bounded(seq: Sequence[int]) -> bool:
    n = len(seq)
    window = _tail_window(n)
    if n < window + 1:
        return False
    return max(seq[n - window:]) <= max(seq[:n - window])


# ---------------------------------------------------------------------------
# mu: growth rate of the base-point count
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MuResult:
    value: Optional[int]
    sequence: tuple[int, ...]
    probe_depth: int
    fixed_vertex: Optional[str] = None

    @property
    def decided(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        return {"mu": self.value, "base_point_counts": list(self.sequence),
                "N": self.probe_depth, "fixed_vertex": self.fixed_vertex}


def _probe_fixed_vertex(f: ProjMap, cfg: RunConfig) -> Optional[MarkedVertex]:
    """A vertex (id, S) fixed by the action of f, searched over parent-closed
    subsets of the base points of f and f^-1."""
    universe = (base_points(f, cfg).all_points()
                | base_points(inverse(f), cfg).all_points())
    if len(universe) > _PROBE_UNIVERSE_CAP:
        return None
    one = identity(2)
    for S in _closed_subsets(universe, len(universe)):
        v = MarkedVertex(one, S)
        moved = MarkedVertex(f, S)
        try:
            if vertex_equiv(v, moved, cfg):
                return v
        except TransportUnsupported:
            continue
    return None


def mu(f: ProjMap, N: Optional[int] = None, cfg: RunConfig = DEFAULTS) -> MuResult:
    """Growth rate of the number of base points of f^n.

    Returns the exact slope of the final half window when it is constant
    and positive; returns 0 only with a fixed vertex of the action as a
    certificate; anything else is undecided.

    On hitting a soft cap the counts found so far are attached to the
    raised error as ``.partial``.
    """
    N = _horizon(N, cfg)
    counts: list[int] = []
    try:
        for n in range(1, N + 1):
            counts.append(base_points(f, cfg, n).count)
        seq = tuple(counts)
        slope = _tail_slope(seq)
        if slope is not None and slope > 0:
            return MuResult(slope, seq, N)
        if slope == 0 or _tail_bounded(seq):
            witness = _probe_fixed_vertex(f, cfg)
            if witness is not None:
                return MuResult(0, seq, N, fixed_vertex=str(witness))
    except _SOFT_CAPS as exc:
        exc.partial = tuple(counts)
        raise
    return MuResult(None, seq, N)


# ---------------------------------------------------------------------------
# nu1: growth rate of the contracted-curve count
# ---------------------------------------------------------------------------

CERTIFIED_DEG_CAP = 12  # certify |Exc^1(f^n)| against J(f^n) up to here


def _exc_certificate(fn: ProjMap,
                     counted: Sequence[tuple[Poly, ProjPoint]]) -> bool:
    """Whether the counted (curve, image) pairs are exactly the contracted
    curves of fn, with their images.

    Every curve must divide the Jacobian, all its powers are stripped, and
    a nonzero constant must remain; a curve listed twice finds nothing left
    to divide the second time.  So the curves are the irreducible factors of
    J(fn), each once, and each must map to its listed image.
    """
    jac = jacobian_det(fn.entries)
    if jac.is_zero:
        return False  # exact division of 0 never stops
    for C, _image in counted:
        jac, k = strip_factor(jac, C)
        if not k:
            return False
    if not jac.is_constant:
        return False
    return all(curve_image(fn, C) == image for C, image in counted)


def exc_count_sequence(f: ProjMap, N: int, cfg: RunConfig = DEFAULTS) -> list[int]:
    """|Exc^1(f^n)| for n = 1..N.

    The contracted curves of f^n are read off the backward chains of
    ``resolve.exc_curves``, which the base points of f^-n share.

    For 2 <= n while deg f^n <= CERTIFIED_DEG_CAP the count is certified by
    exact division: the curves counted for f^n, each stripped from the
    Jacobian J(f^n) with all its powers, must leave a nonzero constant, and
    each must be contracted by f^n to its listed image.  The curves are
    Q-irreducible, so the contracted curves of f^n are then exactly the
    counted ones; a failed certificate raises ResolutionError.  n = 1 needs
    no check: every seed is counted there, so the count is |Exc^1(f)| by
    construction.
    """
    N = _horizon(N, cfg)
    inverse(f)
    counted = [exc_curves(f, n, cfg) for n in range(1, N + 1)]
    for n in range(2, N + 1):
        try:
            fn = iterate(f, n, cfg)
        except DegreeCapExceeded:
            break
        if fn.degree() > CERTIFIED_DEG_CAP:
            break
        if not _exc_certificate(fn, counted[n - 1]):
            raise ResolutionError(
                f"|Exc^1(f^{n})| of {f}: the {len(counted[n - 1])} curves "
                "counted by the backward chains fail the division certificate")
    return [len(pairs) for pairs in counted]


@dataclass(frozen=True)
class NuResult:
    nu_f: Optional[int]
    nu_finv: Optional[int]
    seq_f: tuple[int, ...]
    seq_finv: tuple[int, ...]
    probe_depth: int

    @property
    def decided(self) -> bool:
        return self.nu_f is not None and self.nu_finv is not None

    def to_dict(self) -> dict:
        return {"nu_forward": self.nu_f, "nu_backward": self.nu_finv,
                "exc_counts_forward": list(self.seq_f),
                "exc_counts_backward": list(self.seq_finv),
                "N": self.probe_depth}


def _nu_from_counts(seq: Sequence[int]) -> Optional[int]:
    slope = _tail_slope(seq)
    if slope is not None and slope >= 0:
        return slope
    if _tail_bounded(seq):
        return 0
    return None


def nu1(f: ProjMap, N: Optional[int] = None, cfg: RunConfig = DEFAULTS) -> NuResult:
    """Growth rates of |Exc^1(f^n)| and |Exc^1(f^-n)|."""
    N = _horizon(N, cfg)
    finv = inverse(f)
    seq_f = tuple(exc_count_sequence(f, N, cfg))
    seq_finv = tuple(exc_count_sequence(finv, N, cfg))
    return NuResult(_nu_from_counts(seq_f), _nu_from_counts(seq_finv),
                    seq_f, seq_finv, N)


# ---------------------------------------------------------------------------
# degree growth and the classification table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeGrowth:
    kind: str  # bounded | linear | quadratic | exponential | undecided
    degrees: tuple[int, ...]
    probe_depth: int

    @property
    def lambda_pair(self) -> tuple[int, int]:
        return (self.degrees[-1], len(self.degrees))

    @property
    def lambda_estimate(self) -> float:
        d, n = self.lambda_pair
        return d ** (1.0 / n)

    def to_dict(self) -> dict:
        return {"degree_class": self.kind, "degrees": list(self.degrees),
                "N": self.probe_depth,
                "lambda": {"degree_at_N": self.lambda_pair[0],
                           "N": self.lambda_pair[1],
                           "estimate": self.lambda_estimate}}


def degree_growth_class(f: ProjMap, N: Optional[int] = None,
                        cfg: RunConfig = DEFAULTS) -> DegreeGrowth:
    """Growth class of deg(f^n) from the exact sequence up to N.

    Bounded, then exact linear and quadratic window fits, then an
    exponential ratio test with margin; otherwise undecided.
    """
    N = _horizon(N, cfg)
    degs = degree_sequence(f, N, cfg)
    n = len(degs)
    window = _tail_window(n)

    if _tail_bounded(degs):
        return DegreeGrowth("bounded", tuple(degs), N)

    slope = _tail_slope(degs)
    if slope is not None and slope > 0:
        return DegreeGrowth("linear", tuple(degs), N)

    if n >= window + 2:
        first = [degs[i] - degs[i - 1] for i in range(1, n)]
        second = [first[i] - first[i - 1]
                  for i in range(len(first) - window, len(first))]
        if second and all(s == second[0] for s in second) and second[0] > 0:
            return DegreeGrowth("quadratic", tuple(degs), N)

    if n >= window + 1:
        ratios = [Fraction(degs[i], degs[i - 1]) for i in range(n - window, n)]
        if all(r >= 1 + RATIO_MARGIN for r in ratios):
            return DegreeGrowth("exponential", tuple(degs), N)
    return DegreeGrowth("undecided", tuple(degs), N)


_SOFT_CAPS = (DegreeCapExceeded, HeightCapExceeded, IrrationalBaseLocus,
              TransportUnsupported)


@dataclass(frozen=True)
class InvariantsReport:
    map_label: str
    probe_depth: int
    growth: DegreeGrowth
    mu: MuResult
    nu: NuResult
    isometries: tuple[str, str, str]  # on H^infty, the full complex, the restricted one
    table_row: Optional[int]
    caps_hit: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"map": self.map_label, "N": self.probe_depth,
                **self.growth.to_dict(), **self.mu.to_dict(),
                **self.nu.to_dict(),
                "isometries": {"hyperbolic_space": self.isometries[0],
                               "blowup_complex": self.isometries[1],
                               "restricted_complex": self.isometries[2]},
                "table_row": self.table_row,
                "caps_hit": list(self.caps_hit)}


_ROWS = {("bounded", "elliptic", "elliptic"): 1,
         ("linear", "loxodromic", "elliptic"): 2,
         ("linear", "loxodromic", "loxodromic"): 3,
         ("quadratic", "elliptic", "elliptic"): 4,
         ("exponential", "elliptic", "elliptic"): 5,
         ("exponential", "loxodromic", "elliptic"): 6,
         ("exponential", "loxodromic", "loxodromic"): 7}


def classify(f: ProjMap, N: Optional[int] = None,
             cfg: RunConfig = DEFAULTS) -> InvariantsReport:
    """The full invariant triple of a plane birational map.

    Hyperbolic-space type follows the degree growth class (bounded maps act
    elliptically, linear and quadratic growth parabolically, exponential
    growth loxodromically); the blow-up complex type is elliptic exactly for
    mu = 0; the restricted complex type is elliptic exactly when both nu1
    values vanish.  Caps hit along the way leave the affected invariant
    undecided and are reported.
    """
    N = _horizon(N, cfg)
    caps: list[str] = []

    try:
        growth = degree_growth_class(f, N, cfg)
    except DegreeCapExceeded as exc:
        caps.append(f"degree cap at iterate {len(exc.partial) + 1}")
        growth = DegreeGrowth("undecided", exc.partial, len(exc.partial))

    try:
        mu_res = mu(f, N, cfg)
    except _SOFT_CAPS as exc:
        caps.append(f"mu: {exc.__class__.__name__}")
        mu_res = MuResult(None, exc.partial, N)

    try:
        nu_res = nu1(f, N, cfg)
    except _SOFT_CAPS as exc:
        caps.append(f"nu1: {exc.__class__.__name__}")
        nu_res = NuResult(None, None, (), (), N)

    if mu_res.value == 0 and (nu_res.nu_f or nu_res.nu_finv):
        raise ResolutionError(
            "internal inconsistency: mu = 0 together with nu1 > 0")

    col1 = {"bounded": "elliptic", "linear": "parabolic",
            "quadratic": "parabolic", "exponential": "loxodromic"}.get(
                growth.kind, "undecided")
    if mu_res.value is None:
        col2 = "undecided"
    else:
        col2 = "elliptic" if mu_res.value == 0 else "loxodromic"
    if nu_res.decided:
        col3 = "elliptic" if (nu_res.nu_f == 0 and nu_res.nu_finv == 0) \
            else "loxodromic"
    elif mu_res.value == 0:
        col3 = "elliptic"  # nu1 is squeezed below mu
    else:
        col3 = "undecided"

    row = _ROWS.get((growth.kind, col2, col3))
    return InvariantsReport(f.name or str(f), N, growth, mu_res, nu_res,
                            (col1, col2, col3), row, tuple(caps))


# ---------------------------------------------------------------------------
# the degree lower bound from contracted curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeBoundReport:
    vacuous: bool
    rows: tuple[tuple[int, int, int, bool], ...]  # (n, deg f^n, |Exc^1(f^n)|, bound holds)
    denominator: int

    @property
    def holds(self) -> bool:
        return all(ok for _n, _d, _e, ok in self.rows)

    def to_dict(self) -> dict:
        return {"vacuous": self.vacuous, "denominator": self.denominator,
                "holds": self.holds,
                "rows": [{"n": n, "degree": d, "exc_count": e, "ok": ok}
                         for n, d, e, ok in self.rows]}


def check_degree_bound(f: ProjMap, N: Optional[int] = None,
                       cfg: RunConfig = DEFAULTS) -> DegreeBoundReport:
    """Verify deg(f^n) >= |Exc^1(f^n)| / (dim + 1) for n <= N
    (``cfg.iters`` when N is None).

    The bound has content only for maps with nu1 > 0 in some direction;
    otherwise the report is marked vacuous (it still lists both sides when
    they are computable).
    """
    N = _horizon(N, cfg)
    denom = f.dim + 1
    if f.degree() == 1:
        inverse(f)  # refuses a linear map with no inverse, as nu1 would
        rows = tuple((n, 1, 0, True) for n in range(1, N + 1))
        return DegreeBoundReport(True, rows, denom)
    if f.dim != 2:
        raise ResolutionError(
            "contracted-curve counting is only implemented for plane maps")
    nu_res = nu1(f, N, cfg)
    counts = nu_res.seq_f
    vacuous = not (nu_res.nu_f or nu_res.nu_finv)
    degs = degree_sequence(f, N, cfg)
    rows = [(n, d, e, Fraction(e, denom) <= d)
            for n, d, e in zip(range(1, N + 1), degs, counts)]
    return DegreeBoundReport(vacuous, tuple(rows), denom)
