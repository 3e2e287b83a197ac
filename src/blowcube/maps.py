"""Rational self-maps of projective space, their composition and inverses.

A :class:`ProjMap` is a tuple of homogeneous polynomials of one common
degree with no common polynomial factor (the tuple is kept primitive and
sign-normalized, so equal maps compare equal structurally).  Affine maps of
the plane enter as pairs of rational functions and are homogenized; monomial
maps enter as integer exponent matrices.

Inverses are never guessed silently, and ``inverse(f)`` is the only way to
one.  The inverse is a fact about the map alone, so it takes no settings.
Linear and monomial maps carry the inverse read off their matrix from
construction; any other plane map is inverted by one linear solve for the
inverse in the degree of the map, and that solution, like a supplied
candidate, is verified by composing both ways before it is attached to the
map, so each map object is solved for at most once.
Every composite f after g, inverse checks included, is built once per
process and kept in ``memo.composites`` under the keys of f and g;
``iterate(f, n)`` walks f^k = f^(k-1) after f through the same store.  The
degree cap bounds only these composites, by deg f * deg g, checked before
the store is read.  When deg f > deg g and the inner map g is c * M after
l, a monomial map after independent linear forms
(``monomial_linear_form``), f after g is built as (f after M) after l by
``poly.compose_monomial_linear``, with no product of polynomials; else by
``compose_tuple``.
Composites and iterates of maps with verified inverses inherit inverses
without re-verification: ``compose(f, g)`` carries g^-1 after f^-1, and
``iterate(f, n)`` carries (f^-1)^n.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Sequence

from blowcube import memo
from blowcube.config import DEFAULTS, RunConfig, check_horizon
from blowcube.errors import DegreeCapExceeded, InverseUnavailable, MapError, ParseError
from blowcube.poly import (
    EXP_LIMIT,
    Poly,
    canonical_factor,
    check_exponent,
    compose_monomial_linear,
    compose_tuple,
    factor_q,
    jacobian_det,
    parse_poly,
    parse_ratfunc,
    linear_relations,
    poly_str,
    primitive_tuple,
    strip_factor,
    top_exponent,
)

P2_VARS = ("x", "y", "z")

ProjPoint = tuple[int, ...]


def normalize_point(coords: Sequence) -> ProjPoint:
    """Canonical integer representative: primitive, first nonzero positive."""
    fracs = [Fraction(c) for c in coords]
    if all(f == 0 for f in fracs):
        raise ValueError("all coordinates zero")
    L = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * L) for f in fracs]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def point_str(pt: ProjPoint) -> str:
    return "[" + " : ".join(str(c) for c in pt) + "]"


def pn_vars(dim: int) -> tuple[str, ...]:
    if dim == 2:
        return P2_VARS
    return tuple(f"x{i}" for i in range(dim + 1))


class ProjMap:
    """Dominant rational self-map of projective space, canonical form."""

    def __init__(self, entries: Sequence[Poly], name: str | None = None):
        entries = tuple(entries)
        if len(entries) < 2:
            raise MapError("a projective map needs at least two coordinates")
        vars = entries[0].vars
        if len(entries) != len(vars):
            raise MapError(
                f"{len(entries)} coordinates but {len(vars)} variables; "
                "expected a self-map")
        degs = set()
        for p in entries:
            if p.vars != vars:
                raise MapError("coordinate entries must share variables")
            if p.is_zero:
                raise MapError("zero coordinate entry")
            if not p.is_homogeneous():
                raise MapError(f"coordinate {poly_str(p)!r} is not homogeneous")
            degs.add(p.degree())
        if len(degs) != 1:
            raise MapError(f"coordinate degrees differ: {sorted(degs)}")
        self.entries: tuple[Poly, ...] = primitive_tuple(entries)
        self.vars = vars
        self.name = name
        self._inverse: "ProjMap | None" = None

    # -- basics -------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.entries) - 1

    def degree(self) -> int:
        return self.entries[0].degree()

    def is_identity(self) -> bool:
        return self.entries == tuple(Poly.var(self.vars, v) for v in self.vars)

    def is_monomial(self) -> bool:
        return all(len(p.coeffs) == 1 for p in self.entries)

    def key(self) -> tuple:
        return self.entries

    def __eq__(self, other):
        if not isinstance(other, ProjMap):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def apply(self, pt: Sequence) -> ProjPoint | None:
        """Image of a point; None when the point is in the base locus."""
        pt = list(pt)
        if len(pt) != len(self.vars):
            raise MapError("point arity mismatch")
        vals = [p.evaluate(pt) for p in self.entries]
        if all(v == 0 for v in vals):
            return None
        return normalize_point(vals)

    def __str__(self):
        inner = " : ".join(poly_str(p) for p in self.entries)
        return f"[{inner}]"

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"ProjMap{label} {self}"


def _attach(f: ProjMap, g: ProjMap) -> ProjMap:
    """Record f and g as mutual inverses."""
    f._inverse = g
    g._inverse = f
    return f


def identity(dim: int = 2) -> ProjMap:
    vars = pn_vars(dim)
    f = ProjMap([Poly.var(vars, v) for v in vars], name="id")
    f._inverse = f
    return f


def linear_map(matrix: Sequence[Sequence]) -> ProjMap:
    """Projective linear map from an invertible rational matrix."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise MapError("linear map needs a square matrix")
    vars = pn_vars(n - 1)
    # a projective map is defined up to scale, so A^-1 serves for adj(A)
    inv = _mat_inverse_frac(rows)
    if inv is None:
        raise MapError("singular matrix does not define a projective map")
    units = [[int(i == j) for i in range(n)] for j in range(n)]

    def entries(m):
        return [Poly.from_terms(vars, zip(units, row)) for row in m]

    return _attach(ProjMap(entries(rows)), ProjMap(entries(inv)))


def _mat_inverse_frac(m: Sequence[Sequence]) -> list[list[Fraction]] | None:
    """Inverse of a rational matrix by Gauss-Jordan elimination, or None
    for a singular matrix."""
    n = len(m)
    aug = [[Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = 1 / aug[col][col]
        aug[col] = [v * scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# composition and iteration
# ---------------------------------------------------------------------------

def _compose_raw(f: ProjMap, g: ProjMap, cfg: RunConfig) -> ProjMap:
    """f after g, refused by the bound deg f * deg g on its degree before the
    store is read, so a stored composite is refused as in a fresh process."""
    if f.vars != g.vars:
        raise MapError("cannot compose maps of different spaces")
    bound = f.degree() * g.degree()
    if bound > cfg.degree_cap:
        raise DegreeCapExceeded(
            f"composition degree bound {bound} exceeds cap {cfg.degree_cap}")
    return _composite(f, g)


def _composite(f: ProjMap, g: ProjMap) -> ProjMap:
    """f after g from ``memo.composites``, built and stored on a miss, through
    the form of g when it has one and deg f > deg g; the one builder of
    composites, which refuses only a degree bound that packed exponents
    cannot hold."""
    bound = f.degree() * g.degree()
    if bound >= EXP_LIMIT:
        raise DegreeCapExceeded(f"composition degree bound {bound} exceeds "
                                f"the exponent limit {EXP_LIMIT - 1}")
    key = (f.key(), g.key())
    h = memo.composites.get(key)
    if h is None:
        # with deg f <= deg g the products are few and small, and a form
        # would factor a Jacobian for nothing: conjugations a^-1 after f
        # after a, and the checks f after f^-1 of every new inverse
        form = monomial_linear_form(g) if f.degree() > g.degree() else None
        entries = (compose_tuple(f.entries, g.entries) if form is None
                   else compose_monomial_linear(f.entries, *form))
        h = memo.composites[key] = ProjMap(entries)
    return h


def jacobian_factors(f: ProjMap) -> tuple[tuple[Poly, int], ...] | None:
    """The irreducible factors of the Jacobian determinant of f with their
    multiplicities, or None when it vanishes identically; factored once per
    process and kept in ``memo.jacobians``."""
    key = f.key()
    if key not in memo.jacobians:
        jac = jacobian_det(f.entries)
        memo.jacobians[key] = (None if jac.is_zero else () if jac.is_constant
                               else factor_q(jac)[1])
    return memo.jacobians[key]


def monomial_linear_form(g: ProjMap) -> tuple | None:
    """(scales, rows, lines) with g_i = scales[i] * prod_j lines[j]^rows[i][j],
    that is g = c * M after l for a monomial map M and independent linear
    forms l, or None; kept in ``memo.forms``.

    A monomial map is its own M, with l the coordinates.  Any other plane map
    of degree at least 2 is read off the lines of its Jacobian: with s_j the
    column sums of the exponent matrix A of M, J(M after l) is a constant
    times prod_j l_j^(s_j - 1), so J has only linear factors, and each
    line of l is one of them except at most one with s_j = 1, which is left
    over in one entry.  A line of J that divides no entry (no entry vanishes
    at one of its points) refuses g before anything is divided.  Then each
    line is stripped from the entries that vanish on it, and g is accepted
    when each entry leaves a constant or, in one entry only, a line, three
    independent lines in all, with |det A| = deg g, so that M is birational.
    """
    key = g.key()
    if key not in memo.forms:
        memo.forms[key] = _monomial_linear_form(g)
    return memo.forms[key]


def _monomial_linear_form(g: ProjMap) -> tuple | None:
    if g.is_monomial():
        return (tuple(p.leading()[1] for p in g.entries),
                tuple(p.leading()[0] for p in g.entries),
                tuple(Poly.var(g.vars, v) for v in g.vars))
    if g.dim != 2 or g.degree() < 2:
        return None
    facs = jacobian_factors(g)
    if facs is None or len(facs) < 2 or any(p.degree() != 1 for p, _m in facs):
        return None
    lines = [p for p, _m in facs]
    coefs = [_coefficients(line) for line in lines]
    hits = []
    for j, line in enumerate(coefs):
        pt = _point_on(line, coefs[:j] + coefs[j + 1:])
        hits.append([i for i, p in enumerate(g.entries) if p.evaluate(pt) == 0])
        if not hits[-1]:
            return None
    rest = list(g.entries)
    rows = [[0] * len(lines) for _ in rest]
    for j, line in enumerate(lines):
        for i in hits[j]:
            rest[i], rows[i][j] = strip_factor(rest[i], line)
    left = [i for i, p in enumerate(rest) if not p.is_constant]
    if len(lines) + len(left) != 3 or any(rest[i].degree() != 1 for i in left):
        return None
    scales = [p.constant_value() if p.is_constant else None for p in rest]
    for i in left:
        line = canonical_factor(rest[i])
        scales[i] = rest[i].leading()[1] / line.leading()[1]
        lines.append(line)
        coefs.append(_coefficients(line))
        for r, row in enumerate(rows):
            row.append(int(r == i))
    if _mat_inverse_frac(coefs) is None or abs(_det3(rows)) != g.degree():
        return None
    return tuple(scales), tuple(map(tuple, rows)), tuple(lines)


def _coefficients(line: Poly) -> list[Fraction]:
    return [line.coefficient(u) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def _point_on(line: Sequence, others: Sequence[Sequence]) -> list:
    """A point of the plane line with coefficients ``line`` off the lines
    with coefficients ``others``."""
    a, b, c = line
    p, q = (((-b, a, 0), (-c, 0, a)) if a else ((1, 0, 0), (0, -c, b)) if b
            else ((1, 0, 0), (0, 1, 0)))
    t = 0
    while True:  # each other line holds at most one of these points
        pt = [u + t * v for u, v in zip(p, q)]
        if all(sum(m * x for m, x in zip(other, pt)) for other in others):
            return pt
        t += 1


def _det3(m: Sequence[Sequence[int]]) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def compose(f: ProjMap, g: ProjMap, cfg: RunConfig = DEFAULTS) -> ProjMap:
    """f after g, reduced to canonical form, from ``memo.composites``.

    If both factors carry verified inverses the composite gets one too
    (g^-1 after f^-1), without re-verification.  Iterates do not come
    through here: ``iterate`` pairs f^n with (f^-1)^n instead.
    """
    h = _compose_raw(f, g, cfg)
    if f._inverse is not None and g._inverse is not None and h._inverse is None:
        try:
            _attach(h, _compose_raw(g._inverse, f._inverse, cfg))
        except DegreeCapExceeded:
            pass
    return h


def _powers(f: ProjMap, n: int, cfg: RunConfig):
    """f, f^2, ..., f^n, each f^k = f^(k-1) after f through the store."""
    h = f
    yield h
    for _ in range(n - 1):
        h = _compose_raw(h, f, cfg)
        yield h


def iterate(f: ProjMap, n: int, cfg: RunConfig = DEFAULTS) -> ProjMap:
    """f^n (n >= 1), walked as f^k = f^(k-1) after f through the stored
    composites, so each f^k is built once per process.

    When f carries a verified inverse, f^n carries (f^-1)^n as its inverse,
    walked the same way and not re-verified.  The pair is attached on every
    call, also over one that ``compose`` attached to the same stored maps,
    so that ``inverse(iterate(f, n)) is iterate(inverse(f), n)``.  When
    (f^-1)^n exceeds the degree cap, f^n keeps the inverse it had, if any.
    """
    if n < 1:
        raise MapError("iterate exponent must be >= 1")
    *_, h = _powers(f, n, cfg)
    if f._inverse is not None:
        try:
            *_, h_inv = _powers(f._inverse, n, cfg)
            _attach(h, h_inv)
        except DegreeCapExceeded:
            pass
    return h


def degree_sequence(f: ProjMap, n: int, cfg: RunConfig = DEFAULTS) -> list[int]:
    """[deg f, deg f^2, ..., deg f^n] of the reduced iterates.

    Only f^k is walked; (f^-1)^k is left to ``iterate``.

    On hitting the degree cap the degrees found so far are attached to the
    raised DegreeCapExceeded as ``.partial``.
    """
    check_horizon(n)
    degs = []
    try:
        for h in _powers(f, n, cfg):
            degs.append(h.degree())
    except DegreeCapExceeded as exc:
        exc.partial = tuple(degs)
        raise
    return degs


def conjugate(f: ProjMap, a: ProjMap, cfg: RunConfig = DEFAULTS) -> ProjMap:
    """a^-1 after f after a."""
    return compose(compose(inverse(a), f, cfg), a, cfg)


# ---------------------------------------------------------------------------
# monomial maps
# ---------------------------------------------------------------------------

def _monomial_entries(rows: Sequence[Sequence[int]]) -> list[Poly]:
    n = len(rows)
    # smallest monomial multiplier making every affine image polynomial
    a = [max(0, max(sum(r) for r in rows))]
    a += [max(0, max(-r[j] for r in rows)) for j in range(n)]
    exps = [a] + [[a[0] - sum(r)] + [a[j + 1] + r[j] for j in range(n)] for r in rows]
    check_exponent("monomial map", max(map(max, exps)), MapError)
    return [Poly.from_terms(pn_vars(n), [(e, 1)]) for e in exps]


def monomial_map(matrix: Sequence[Sequence[int]]) -> ProjMap:
    """The monomial self-map of P^n whose action on affine coordinates
    t_i = x_i/x_0 is t_i -> prod_j t_j^{M[i][j]}."""
    rows = [tuple(int(c) for c in r) for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise MapError("monomial map needs a square integer matrix")
    inv = _mat_inverse_frac(rows)
    if inv is None:
        raise MapError("monomial matrix is singular")
    f = ProjMap(_monomial_entries(rows))
    # an integer matrix has an integer inverse exactly when det = +-1
    if all(c.denominator == 1 for r in inv for c in r):
        _attach(f, ProjMap(_monomial_entries([[int(c) for c in r] for r in inv])))
    return f


def monomial_matrix_of(f: ProjMap) -> tuple[tuple[int, ...], ...]:
    """Recover the affine exponent matrix of a monomial projective map."""
    if not f.is_monomial():
        raise MapError("not a monomial map")
    exps = [next(iter(p.terms()))[0] for p in f.entries]
    return tuple(tuple(e[j] - exps[0][j] for j in range(1, f.dim + 1))
                 for e in exps[1:])


def mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def mat_pow(M, n: int):
    size = len(M)
    R = [[int(i == j) for j in range(size)] for i in range(size)]
    B = [list(r) for r in M]
    while n:
        if n & 1:
            R = mat_mul(R, B)
        B = mat_mul(B, B)
        n >>= 1
    return R


def monomial_degree_sequence(matrix: Sequence[Sequence[int]], n: int) -> list[int]:
    """Degrees of the reduced iterates computed through integer matrix powers."""
    check_horizon(n)
    return [monomial_map(mat_pow(matrix, k)).degree() for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# affine plane maps
# ---------------------------------------------------------------------------

A2_VARS = ("x", "y")

RatFunc = tuple[Poly, Poly]


def homogenize(fx: RatFunc, fy: RatFunc) -> ProjMap:
    """Projective closure on [x : y : z], affine chart z = 1, of the map
    whose coordinates are the (numerator, denominator) pairs fx and fy.

    The entries are built over the denominator d1*d2; ``ProjMap`` divides
    out whatever factor they share."""
    (n1, d1), (n2, d2) = fx, fy
    if d1.is_zero or d2.is_zero:
        raise MapError("zero denominator")
    pairs = ((n1, d2), (n2, d1), (d1, d2))
    check_exponent("homogenizing", max(map(top_exponent, pairs)), MapError)
    chart = [a * b for a, b in pairs]
    deg = max(p.degree() for p in chart)
    # z pads a term of degree t with z^(deg - t)
    check_exponent("homogenizing", deg - min(p.order() for p in chart), MapError)
    return ProjMap([p.homogenize("z", deg) for p in chart])


# ---------------------------------------------------------------------------
# inverse strategies
# ---------------------------------------------------------------------------

def verify_inverse(f: ProjMap, g: ProjMap) -> bool:
    """Whether f after g and g after f both reduce to the identity."""
    if f.vars != g.vars:
        return False
    return _composite(f, g).is_identity() and _composite(g, f).is_identity()


def inverse(f: ProjMap, candidate: ProjMap | None = None) -> ProjMap:
    """Verified inverse of f, or raise InverseUnavailable.

    A supplied candidate is verified and attached, or rejected with a
    MapError.  Without one, the inverse attached at construction is
    returned (linear and monomial maps carry theirs, and composites and
    iterates inherit them); otherwise a plane map is inverted by the linear
    solve of ``_plane_inverse``, verified by composing both ways.  The
    answer depends on f alone: no degree cap applies.
    """
    if candidate is not None:
        if verify_inverse(f, candidate):
            _attach(f, candidate)
            return candidate
        raise MapError(f"candidate inverse rejected: {candidate} does not invert {f}")
    if f._inverse is not None:
        return f._inverse
    g = _plane_inverse(f) if f.dim == 2 else None
    if g is None or not verify_inverse(f, g):
        tried = "plane nullspace" if f.dim == 2 else "none"
        raise InverseUnavailable(
            f"no inverse strategy applies to {f} (tried: {tried})")
    _attach(f, g)
    return g


def _plane_inverse(f: ProjMap) -> ProjMap | None:
    """The plane map g of degree d = deg f with g(f) proportional to the
    identity, when those g span one line; else None.

    g(f) is proportional to the identity exactly when
    g_0(f)*x_i - g_i(f)*x_0 = 0 for i = 1, 2, a linear system in the
    coefficients of g.  A plane Cremona map and its inverse have the same
    degree, so a birational f leaves exactly the line through f^-1; a
    dominant f that is not birational leaves no solution, and one that is
    not dominant leaves a space whose dimension is a multiple of 3.
    """
    d = f.degree()
    vars = f.vars
    x0, x1, x2 = (Poly.var(vars, v) for v in vars)
    zero = Poly.zero(vars)
    exps = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    powers = []
    for p in f.entries:
        row = [Poly.const(vars, 1)]
        for _ in range(d):
            row.append(row[-1] * p)
        powers.append(row)
    images = [powers[0][a] * powers[1][b] * powers[2][c] for a, b, c in exps]
    neg = [-(m * x0) for m in images]
    # unknowns: the coefficients of g_0, then of g_1, then of g_2
    relations = linear_relations([(m * x1, m * x2) for m in images]
                                 + [(q, zero) for q in neg]
                                 + [(zero, q) for q in neg])
    if len(relations) != 1:
        return None
    rel, n = relations[0], len(exps)
    return ProjMap([Poly.from_terms(vars, zip(exps, rel[i * n:(i + 1) * n]))
                    for i in range(3)])


# ---------------------------------------------------------------------------
# map-spec grammar and named built-ins
# ---------------------------------------------------------------------------

def _bracketed_parts(text: str, start: int, end: int, pair: str,
                     sep: str) -> list[tuple[int, int]] | None:
    """The parts inside text[start:end] when, less surrounding space, it is
    enclosed in the pair of brackets; else None.  Parts are split on the
    separator outside nested parentheses and brackets, and each is the span
    (start, end) in text of its stripped content, so that errors quote the
    spot in the whole text."""
    body = text[start:end].lstrip()
    lo = end - len(body)
    body = body.rstrip()
    if not (body.startswith(pair[0]) and body.endswith(pair[1])):
        return None
    cuts, depth = [lo], 0
    for i in range(lo + 1, lo + len(body) - 1):
        if text[i] in "([":
            depth += 1
        elif text[i] in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", text, i)
        elif text[i] == sep and depth == 0:
            cuts.append(i)
    cuts.append(lo + len(body) - 1)
    parts = [text[a + 1:b] for a, b in zip(cuts, cuts[1:])]
    starts = [b - len(part.lstrip()) for b, part in zip(cuts[1:], parts)]
    return [(a, a + len(part.strip())) for a, part in zip(starts, parts)]


def _matrix_entry(text: str, start: int, end: int) -> int:
    try:
        return int(text[start:end])
    except ValueError:
        raise ParseError(f"matrix entry {text[start:end]!r} is not an integer",
                         text, start) from None


def parse_map(text: str) -> ProjMap:
    """Parse a map specification.

    Forms:
      ``P2:[p0 : p1 : p2]``       homogeneous coordinates on [x : y : z]
      ``A2:(e1, e2)``             affine plane, rational-function entries
      ``MON:d:[[r11,...],...]``   monomial map of P^d from a d x d matrix
    """
    text = text.strip()
    if text.startswith("P2:"):
        parts = _bracketed_parts(text, 3, len(text), "[]", ":")
        if parts is None:
            raise ParseError("P2 map must be bracketed: P2:[p0 : p1 : p2]", text, 3)
        if len(parts) != 3:
            raise ParseError(f"P2 map needs 3 coordinates, got {len(parts)}", text, 3)
        return ProjMap([parse_poly(text, P2_VARS, a, b) for a, b in parts])
    if text.startswith("A2:"):
        parts = _bracketed_parts(text, 3, len(text), "()", ",")
        if parts is None:
            raise ParseError("A2 map must be parenthesized: A2:(e1, e2)", text, 3)
        if len(parts) != 2:
            raise ParseError(f"A2 map needs 2 entries, got {len(parts)}", text, 3)
        rfs = [parse_ratfunc(text, A2_VARS, a, b) for a, b in parts]
        return homogenize(*rfs)
    if text.startswith("MON:"):
        m = re.match(r"MON:(\d+):", text)
        if not m:
            raise ParseError("monomial map must look like MON:d:[[...],...]", text, 0)
        d = int(m.group(1))
        rows = _bracketed_parts(text, m.end(), len(text), "[]", ",")
        if rows is None:
            raise ParseError("monomial matrix must be bracketed", text, m.end())
        matrix = []
        for a, b in rows:
            entries = _bracketed_parts(text, a, b, "[]", ",")
            if entries is None:
                raise ParseError(f"matrix row {text[a:b]!r} must be bracketed",
                                 text, a)
            matrix.append([_matrix_entry(text, *span) for span in entries])
        if len(matrix) != d or any(len(r) != d for r in matrix):
            raise ParseError(f"monomial matrix must be {d}x{d}", text, m.end())
        return monomial_map(matrix)
    raise ParseError("map spec must start with P2:, A2: or MON:", text, 0)


_BUILTIN_SPECS: dict[str, str] = {
    "sigma": "P2:[y*z : x*z : x*y]",
    "henon": "P2:[y*z : y^2 + x*z : z^2]",
    "jonq1": "A2:(x*y, y)",
    "jonq2": "A2:(x*y, y + 1)",
    "hen2": "A2:(y, x + y^2)",
    "lox1": "A2:(x^2*y, x*y + 1)",
    "mon3": "MON:3:[[-1,1,0],[-1,0,1],[1,0,0]]",
}

def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTIN_SPECS)


def builtin(name: str) -> ProjMap:
    """Named bundled map, with its verified inverse attached."""
    if name not in _BUILTIN_SPECS:
        raise MapError(f"unknown built-in map {name!r} "
                       f"(available: {', '.join(_BUILTIN_SPECS)})")
    return _builtin(name)


@functools.cache
def _builtin(name: str) -> ProjMap:
    f = parse_map(_BUILTIN_SPECS[name])
    f.name = name
    inverse(f)
    return f


def resolve_map_argument(text: str) -> ProjMap:
    """CLI map argument: a built-in name or a grammar string."""
    text = text.strip()
    if text in _BUILTIN_SPECS:
        return builtin(text)
    return parse_map(text)
