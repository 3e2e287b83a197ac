"""Base-point towers of plane birational maps via chart-by-chart blow-ups.

A base point is either a point of P^2 or an infinitely-near point reached by
a finite chain of blow-ups.  Towers are computed in explicit affine charts:
blowing up the origin produces two charts, (u, t) -> (u, u*t) and
(u, t) -> (u*t, t); new base points sit on the exceptional line u = 0 of the
first chart (one per rational slope) plus possibly the origin of the second
chart (the vertical direction).

The proper base points of a birational map f are exactly the points that
f^-1 contracts curves to, so they are read off the contracted curves of the
inverse.  Completeness is certified by exact multiplicity accounting:
writing m_p for the vanishing order of the (properly transformed) system at
each tower point, a degree-d birational plane map satisfies
sum(m_p) = 3(d-1) and sum(m_p^2) = d^2-1 over the full tower.  A deficit
proves the base locus has members outside the rationals.

Contracted curves are the Q-irreducible factors of the Jacobian that f maps
to a point.  That is decided by one exact test, normal forms modulo the
curve (``poly_mod``), for every curve: no rational point of the curve is
needed and nothing is factored or divided.  The curves contracted by f^n
come from backward chains of strict transforms under f, one chain per curve
that f contracts, so no iterate's Jacobian is factored.  Each strict
transform is the pullback with the contracted curves over it divided out
exactly, and nothing is factored there either.  A chain member C_j is
mapped onto its seed C_0 by f^j, so where its image under f^n is not read
off the seed's point orbit it is the image of C_0 under f^(n-j).

Contracted curves, their images, strict transforms and towers are stored
in ``memo``; the chains are walked afresh, so ``iterate`` checks the degree
cap on every call and ``base_points`` checks the height cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import memo
from .config import DEFAULTS, RunConfig
from .errors import (HeightCapExceeded, IrrationalBaseLocus, MapError,
                     ResolutionError, TransportUnsupported)
from .maps import (ProjMap, ProjPoint, degree_sequence, inverse, iterate,
                   jacobian_factors, normalize_point, point_str,
                   strict_transform)
from .poly import Poly, _common_rational_roots, factor_q, poly_mod

CHART_VARS = ("u", "t")


# ---------------------------------------------------------------------------
# bubble points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BubbleStep:
    """One blow-up hop: land at slope ``value`` on the new exceptional line,
    or at its point at infinity (the vertical direction)."""

    kind: str  # "s" or "v"
    value: Fraction | None = None

    def sort_key(self):
        return (0, self.value) if self.kind == "s" else (1, Fraction(0))

    def to_json(self):
        return ["s", str(self.value)] if self.kind == "s" else ["v"]

    def __str__(self):
        return f"s={self.value}" if self.kind == "s" else "v"


@dataclass(frozen=True)
class BubblePoint:
    """A point of some iterated blow-up of P^2: a proper point of the plane
    together with the chain of exceptional-line positions above it."""

    root: ProjPoint
    steps: tuple[BubbleStep, ...] = ()

    @property
    def height(self) -> int:
        return len(self.steps)

    @property
    def is_proper(self) -> bool:
        return not self.steps

    def parent(self) -> "BubblePoint | None":
        if not self.steps:
            return None
        return BubblePoint(self.root, self.steps[:-1])

    def sort_key(self):
        return (self.root, tuple(s.sort_key() for s in self.steps))

    def __str__(self):
        parts = [point_str(self.root)] + [str(s) for s in self.steps]
        return "; ".join(parts)


def parent_closed(points: Iterable[BubblePoint]) -> bool:
    """Whether every infinitely-near member has its parent in the set."""
    s = set(points)
    return all(p.parent() in s for p in s if not p.is_proper)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def standard_chart(i: int) -> tuple[tuple[Poly, Poly, Poly], str]:
    """The substitution (u, t) -> [sub0 : sub1 : sub2] of the affine chart
    where coordinate i is 1, and its label."""
    u = Poly.var(CHART_VARS, "u")
    t = Poly.var(CHART_VARS, "t")
    one = Poly.const(CHART_VARS, 1)
    sub = {0: (one, u, t), 1: (u, one, t), 2: (u, t, one)}[i]
    return sub, ("x=1", "y=1", "z=1")[i]


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseNode:
    point: BubblePoint
    chart: str  # the label of the affine chart holding ``coords``
    coords: tuple[Fraction, Fraction]
    multiplicity: int
    children: tuple["BaseNode", ...]

    def walk(self) -> Iterator["BaseNode"]:
        yield self
        for c in self.children:
            yield from c.walk()

    def to_dict(self) -> dict:
        return {
            "point": point_str(self.point.root),
            "steps": [s.to_json() for s in self.point.steps],
            "chart": self.chart,
            "coords": [str(c) for c in self.coords],
            "height": self.point.height,
            "multiplicity": self.multiplicity,
            "children": [c.to_dict() for c in self.children],
        }


@dataclass(frozen=True)
class BasePointTree:
    degree: int
    roots: tuple[BaseNode, ...]

    def nodes(self) -> Iterator[BaseNode]:
        for r in self.roots:
            yield from r.walk()

    @property
    def count(self) -> int:
        return sum(1 for _ in self.nodes())

    def all_points(self) -> frozenset[BubblePoint]:
        return frozenset(n.point for n in self.nodes())

    def multiplicities(self) -> dict[BubblePoint, int]:
        return {n.point: n.multiplicity for n in self.nodes()}

    @property
    def max_height(self) -> int:
        return max((n.point.height for n in self.nodes()), default=-1)

    def to_dict(self) -> dict:
        mults = [n.multiplicity for n in self.nodes()]
        return {
            "degree": self.degree,
            "count": self.count,
            "accounting": {
                "multiplicity_sum": sum(mults),
                "multiplicity_sum_expected": 3 * (self.degree - 1),
                "square_sum": sum(m * m for m in mults),
                "square_sum_expected": self.degree * self.degree - 1,
            },
            "roots": [r.to_dict() for r in self.roots],
        }


def _order_at_origin(polys: Sequence[Poly]) -> int:
    orders = [p.order() for p in polys if not p.is_zero]
    if not orders:
        raise ResolutionError("identically zero local system")
    return min(orders)


def _resolve_node(system: Sequence[Poly], bubble: BubblePoint, chart: str,
                  coords: tuple[Fraction, Fraction], height_cap: int,
                  budget: int) -> BaseNode:
    """Tower above one base point.

    ``system`` is the local form of the map in ``chart`` recentered so the
    point sits at the origin (all entries vanish there).  ``budget`` bounds
    the multiplicities still to be consumed on any chain through this node;
    terms of higher total degree cannot reach the lowest form of any
    descendant (each blow-up lowers a term's order by exactly the local
    multiplicity), so they are dropped.  This keeps the carried systems
    small on long chains where the raw transforms grow without bound.

    A child's budget is also at most ``mult * (height_cap - height)``:
    multiplicities never increase along a chain of infinitely near points
    (the proximity inequalities; Alberich-Carramiñana, Geometry of the
    Plane Cremona Maps, LNM 1769, ch. 1), and a chain below this node has
    at most ``height_cap - height`` members before the cap stops it.  The
    child's own multiplicity, at most ``mult``, stays within that budget,
    and a node at the cap keeps its whole lowest form, so HeightCapExceeded
    is raised where the untruncated tower would raise it.  The slope
    children only translate t, so the terms of the strict transform whose
    u-degree is above the child's budget are dropped before the
    translation.

    Each chart's strict transform is one exponent remap (``Poly.blow_up``).
    The slopes are the rational common roots of the lowest forms on the
    exceptional line u = 0, found natively (``_common_rational_roots``);
    when their gcd does not split into them, ``factor_q`` is asked only to
    name the first nonlinear factor of the refusal.  The chart u -> u*t adds
    one point of the exceptional line, its origin, a base point exactly when
    no lowest form has the term t^mult.
    """
    system = [p.truncate_total(budget) for p in system]
    mult = _order_at_origin(system)
    if not 1 <= mult <= budget:
        raise ResolutionError(
            f"local multiplicity {mult} over {bubble} is outside 1..{budget}")

    alpha = [p.blow_up("u", mult) for p in system]  # u->u, t->u*t
    nz = [q for q in (p.truncate_in("u", 0) for p in alpha) if not q.is_zero]
    if not nz:
        raise ResolutionError(
            f"the exceptional line over {bubble} lies in the base locus")
    slopes, unsplit = _common_rational_roots(nz, "t")
    if unsplit is not None:
        fac = next(f for f, _m in factor_q(unsplit)[1] if f.degree() > 1)
        raise IrrationalBaseLocus(
            f"infinitely near points over {bubble} come in a conjugate "
            f"cluster of degree {fac.degree()} ({fac} = 0)")
    vertical = all(p.coefficient((0, mult)) == 0 for p in system)

    blown = f"{chart}; bl({coords[0]},{coords[1]})"
    children = []
    if slopes or vertical:
        if bubble.height + 1 > height_cap:
            raise HeightCapExceeded(
                f"tower over {point_str(bubble.root)} exceeds height cap "
                f"{height_cap}")
    child_budget = min(budget - mult, mult * (height_cap - bubble.height))
    if slopes:
        alpha = [p.truncate_in("u", child_budget) for p in alpha]
    for t0 in slopes:
        child_system = [p.translate((Fraction(0), t0)) for p in alpha]
        child = _resolve_node(child_system,
                              BubblePoint(bubble.root, bubble.steps + (BubbleStep("s", t0),)),
                              blown + "#0", (Fraction(0), t0), height_cap,
                              child_budget)
        children.append(child)
    if vertical:
        beta = [p.blow_up("t", mult) for p in system]  # u->u*t, t->t
        child = _resolve_node(beta,
                              BubblePoint(bubble.root, bubble.steps + (BubbleStep("v"),)),
                              blown + "#1", (Fraction(0), Fraction(0)), height_cap,
                              child_budget)
        children.append(child)
    return BaseNode(bubble, chart, coords, mult, tuple(children))


def base_points(f: ProjMap, cfg: RunConfig = DEFAULTS, n: int = 1) -> BasePointTree:
    """The tree of base points of f^n, with multiplicities.

    Requires a verified inverse (the map must be birational for the
    accounting identities that certify completeness).  The proper base
    points are the images of the curves that f^-n contracts.  Raises
    IrrationalBaseLocus when the base locus has non-rational members and
    HeightCapExceeded when a tower climbs past ``cfg.height_cap``.
    The chain bound leaves a tower unchanged under any cap it fits, so a
    stored tree is checked against ``cfg.height_cap`` here, with the
    refusal of ``_resolve_node``.
    """
    if f.dim != 2:
        raise ResolutionError("base-point towers are only computed for plane maps")
    finv = inverse(f)
    fn = iterate(f, n, cfg)
    d = fn.degree()
    if d == 1:
        return BasePointTree(1, ())
    points = tuple(sorted({image for _C, image in exc_curves(finv, n, cfg)}))
    key = (fn.key(), points)
    if key in memo.towers:
        tree = memo.towers[key]
        for root in tree.roots:
            if any(node.point.height > cfg.height_cap for node in root.walk()):
                raise HeightCapExceeded(
                    f"tower over {point_str(root.point.root)} exceeds height "
                    f"cap {cfg.height_cap}")
        return tree
    roots = []
    for P in points:
        i = next(j for j, c in enumerate(P) if c != 0)
        sub, chart = standard_chart(i)
        rest = [j for j in range(3) if j != i]
        center = (Fraction(P[rest[0]], P[i]), Fraction(P[rest[1]], P[i]))
        local = [e.compose(sub).translate(center) for e in fn.entries]
        roots.append(_resolve_node(local, BubblePoint(P), chart, center,
                                   cfg.height_cap, 3 * (d - 1)))

    tree = BasePointTree(d, tuple(roots))
    mults = [node.multiplicity for node in tree.nodes()]
    got1, got2 = sum(mults), sum(m * m for m in mults)
    want1, want2 = 3 * (d - 1), d * d - 1
    if got1 < want1 or got2 < want2:
        raise IrrationalBaseLocus(
            f"rational towers of {fn} account for multiplicity sum {got1} of "
            f"{want1} and square sum {got2} of {want2}: the remaining base "
            "points are not defined over the rationals")
    if got1 > want1 or got2 > want2:
        raise ResolutionError(
            f"multiplicity accounting for {fn} exceeds the birational bounds "
            f"({got1} vs {want1}, {got2} vs {want2}); this indicates an "
            "internal inconsistency")
    memo.towers[key] = tree
    return tree


def indeterminacy_points(f: ProjMap, cfg: RunConfig = DEFAULTS) -> tuple[ProjPoint, ...]:
    """The proper plane points where f is undefined."""
    return tuple(r.point.root for r in base_points(f, cfg).roots)


# ---------------------------------------------------------------------------
# contracted curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExcComponent:
    curve: Poly
    order: int  # multiplicity of the curve in the Jacobian
    image: ProjPoint

    def to_dict(self) -> dict:
        return {"curve": str(self.curve), "order": self.order,
                "image": point_str(self.image)}


def curve_image(f: ProjMap, C: Poly) -> ProjPoint | None:
    """The point the irreducible curve C is contracted to by f, or None when
    C is not contracted.

    One exact remainder test decides every curve: C is contracted exactly
    when the normal forms r_i of the coordinates of f modulo C are rational
    multiples lambda_i of one nonzero pivot r_p, and then the image is
    [lambda_0 : lambda_1 : lambda_2].  The normal form modulo one polynomial
    is unique and linear, so r_i = lambda_i * r_p says that C divides
    f_i - lambda_i * f_p.  The answer is stored in ``memo.images``; a
    refusal is not.
    """
    key = (f.key(), C)
    if key in memo.images:
        return memo.images[key]
    rem = [poly_mod(e, C) for e in f.entries]
    base = next((r for r in rem if not r.is_zero), None)
    if base is None:
        raise ResolutionError(
            f"{C} divides every coordinate of {f}; the map is not reduced")
    mono, lead = base.leading()
    coords: list[Fraction] = []
    image = None
    for r in rem:
        ratio = r.coefficient(mono) / lead
        if r != base * ratio:
            break
        coords.append(ratio)
    else:
        image = normalize_point(coords)
    memo.images[key] = image
    return image


def exc_components(f: ProjMap) -> tuple[ExcComponent, ...]:
    """The irreducible curves contracted by f, with Jacobian multiplicities
    and image points; the Jacobian's factors come from
    ``maps.jacobian_factors``, which factors each Jacobian once, or derives
    a composite's from its parts."""
    if f.dim != 2:
        raise ResolutionError("contracted curves are only computed for plane maps")
    if f.key() in memo.components:
        return memo.components[f.key()]
    facs = jacobian_factors(f)
    if facs is None:
        raise MapError(f"{f} is not dominant: its Jacobian vanishes identically")
    comps: list[ExcComponent] = []
    for fac, mult in facs:
        img = curve_image(f, fac)
        if img is None:
            # every Jacobian factor of a birational map is contracted:
            # this one is a Galois orbit of curves sent to conjugate points
            raise IrrationalBaseLocus(
                f"{f} contracts the components of {fac} = 0 to points "
                "outside the rationals")
        comps.append(ExcComponent(fac, mult, img))
    memo.components[f.key()] = tuple(comps)
    return memo.components[f.key()]


def _pullback(f: ProjMap, C: Poly) -> Poly | None:
    """The strict transform of C under f: the one component of C(f) that f
    does not contract.  None when f^-1 contracts C, so no curve maps onto it.

    A contracted curve E divides C(f) exactly when f(E) lies on C, so only
    those curves are handed to ``maps.strict_transform``, which divides
    them out with all their powers; nothing is factored.
    """
    key = (f.key(), C)
    if key in memo.pullbacks:
        return memo.pullbacks[key]
    strict = None
    if not any(c.curve == C for c in exc_components(inverse(f))):
        strict = strict_transform(C, f, [comp.curve for comp in exc_components(f)
                                         if C.evaluate(comp.image) == 0])
        if strict is None:
            raise ResolutionError(
                f"pullback of {C} under {f} is all contracted curves; "
                "this indicates an internal inconsistency")
    memo.pullbacks[key] = strict
    return strict


def exc_curves(f: ProjMap, n: int, cfg: RunConfig = DEFAULTS
               ) -> tuple[tuple[Poly, ProjPoint], ...]:
    """The (curve, image) pairs of the curves contracted by f^n.

    Each curve C_0 contracted by f seeds a backward chain of strict
    transforms C_0, C_1, ... (f maps C_{j+1} onto C_j); the chain ends when
    f^-1 contracts a member.  Each C_{j+1} is C_j(f) with the curves that f
    contracts into C_j divided out exactly; nothing is factored.  f^n
    contracts C_j (j < n) onto f^(n-j-1) of the seed's image while that
    point's forward orbit is defined.  Past that, f^j maps C_j onto C_0, so
    f^n(C_j) = f^(n-j)(C_0): the seed is queried under the reduced iterate
    f^(n-j), not the deep curve under f^n.  The walk is not stored, only
    its members and their images are, so every call still asks for its
    iterates under its own cap and a refusal reads as in a fresh process.
    """
    pairs = []
    for comp in exc_components(f):
        orbit = [comp.image]  # orbit[k] = f^k(image), while defined
        while len(orbit) < n:
            nxt = f.apply(orbit[-1])
            if nxt is None:
                break
            orbit.append(nxt)
        C: Poly | None = comp.curve
        for j in range(n):
            if j:
                C = _pullback(f, C)
                if C is None:
                    break
            if n - j - 1 < len(orbit):
                pairs.append((C, orbit[n - j - 1]))
            else:
                # f^j maps C onto the seed, so f^n(C) = f^(n-j)(seed)
                image = curve_image(iterate(f, n - j, cfg), comp.curve)
                if image is not None:
                    pairs.append((C, image))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# stability and transport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    witness: int | None
    degrees: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"stable": self.stable, "witness": self.witness,
                "degrees": list(self.degrees)}


def is_algebraically_stable(f: ProjMap, n: int, cfg: RunConfig = DEFAULTS) -> StabilityReport:
    """Degree multiplicativity test: deg(f^k) = deg(f)^k for k <= n.

    The first k where multiplicativity fails (a curve was contracted into
    the indeterminacy locus) is reported as the witness.
    """
    degs = degree_sequence(f, n, cfg)
    for k in range(2, n + 1):
        if degs[k - 1] != degs[0] * degs[k - 2]:
            return StabilityReport(False, k, tuple(degs))
    return StabilityReport(True, None, tuple(degs))


def bubble_transport(h: ProjMap, points: Iterable[BubblePoint]
                     ) -> dict[BubblePoint, BubblePoint]:
    """Move bubble points along h by evaluation.

    Only proper points off the contracted curves of h move this way; other
    inputs raise TransportUnsupported (they would require resolving h).
    """
    comps = exc_components(h)
    out: dict[BubblePoint, BubblePoint] = {}
    for p in points:
        if not p.is_proper:
            raise TransportUnsupported(
                f"{p} is infinitely near; evaluation only moves proper points")
        for comp in comps:
            if comp.curve.evaluate(p.root) == 0:
                raise TransportUnsupported(
                    f"{p} lies on {comp.curve} = 0, which {h} contracts")
        q = h.apply(p.root)
        if q is None:
            raise TransportUnsupported(f"{p} is a base point of the transport map")
        out[p] = BubblePoint(q)
    return out
