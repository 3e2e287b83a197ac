"""Cube-complex combinatorics: validation, hyperplanes, distances, geodesics,
the flag (Gromov) link condition and classification of vertex isometries.

A complex is given by finite lists of vertices, oriented edges and cubes.
Vertex ids are opaque hashables; all outputs are deterministically ordered.

Edges are oriented tail -> head and the two opposite edges of every square
must point the same way; hyperplane half-spaces inherit that orientation
(the ``plus`` side is the tail side).

A cube record is kept as its corner tuple: its vertices indexed by bit
labels, so the corner across bit i from corner k is at index k ^ (1 << i).
The tuple is built by doubling from the record's least vertex, each new
corner the common neighbour of two built ones (``_corner_tuple``), so the
doubling itself proves 2^(n+1) - n - 2 of the n 2^(n-1) cube edges.  The
record is a cube when its corners are distinct, it has exactly
n 2^(n-1) internal edges and the cube edges the doubling did not build
(``_unbuilt``: none for a square, one for a 3-cube, six for a 4-cube) are
present; only a refused record is searched.  Cubes are validated in
increasing dimension, so face closure is checked facet by facet; only
refused records are ranked, to name the least.  The orientation test, the
opposite-edge relation and the link condition read the corner tuples, and
every edge question reads the one edge table, ``C.edges``.

Hyperplanes are found once per complex, for every connected component, with
the sign vector of each vertex: an int whose bit i is the parity of class i
along a path from the component's least vertex.  The sides of hyperplane i
are the vertices with bit i set and clear, a distance is the number of bits
in which two sign vectors differ, and a geodesic steps only across those.

The validator certifies the local (flag) part of the CAT(0) condition only;
simple connectivity of user-supplied complexes is not checked.  The bundled
constructions are balls in a simply connected complex, where the local check
is the only one with content.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Optional, Union

from .errors import ComplexError, OutputError


def _vkey(v):
    """Deterministic sort key for opaque vertex ids."""
    return (v.__class__.__name__, repr(v))


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------

class CubeComplex:
    """A finite cube complex, validated on construction.

    ``cubes`` is a flat iterable of vertex collections; the dimension of each
    is inferred from its size.  Invalid records raise ComplexError.
    """

    def __init__(self, vertices=(), edges=(), cubes=()):
        by_dim: dict[int, set] = {}
        for record in cubes:
            S = frozenset(record)
            if len(S) != len(record):
                raise ComplexError(f"cube record {list(record)!r} repeats a vertex")
            cs = by_dim.setdefault((len(S) - 1).bit_length(), set())
            if S in cs:
                raise ComplexError(f"duplicate cube {_desc(S)}")
            cs.add(S)
        vertices, edges = list(vertices), [tuple(e) for e in edges]
        self.vertices, self.edges = frozenset(vertices), frozenset(edges)
        self.cubes = {n: frozenset(cs) for n, cs in by_dim.items()}
        self._adj: dict[object, tuple] = {}
        self._rank: dict = {}
        self._corners: dict[frozenset, tuple] = {}
        self._hyperplanes: Optional[tuple] = None
        _validate(self, vertices, edges)

    @property
    def dimension(self) -> int:
        if self.cubes:
            return max(self.cubes)
        return 1 if self.edges else 0

    def has_edge(self, a, b) -> bool:
        """True when the oriented edge (a, b) is present."""
        return (a, b) in self.edges


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _desc(S) -> str:
    return "{" + ", ".join(repr(v) for v in sorted(S, key=_vkey)) + "}"


def _reach(adj: Mapping, start) -> dict:
    """Breadth-first depths of the vertices reachable from ``start``, in
    breadth-first order."""
    depth = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        d = depth[x] + 1
        for w in adj[x]:
            if w not in depth:
                depth[w] = d
                queue.append(w)
    return depth


def _opposite_edges(C: CubeComplex, S: frozenset) -> tuple:
    """The two pairs of opposite edges of the square S, flipping bit 1 and
    then bit 2; each edge is (its end without the bit, its end with it)."""
    c = C._corners[S]
    return (((c[0], c[1]), (c[2], c[3])), ((c[0], c[2]), (c[1], c[3])))


def _links(n: int) -> list:
    """Per corner index k of an n-cube, the getter of the corners across
    each bit from it: indices k ^ 1, k ^ 2, ..., k ^ 2^(n-1)."""
    return [itemgetter(*(k ^ (1 << i) for i in range(n))) for k in range(1 << n)]


def _unbuilt(n: int) -> tuple:
    """The edges of the n-cube, as index pairs (k, k | 2^i), that the
    doubling in ``_corner_tuple`` does not build: it builds the n edges at
    corner 0 and, for each corner k | 2^i with 0 < k < 2^i, the two to
    corners k and j | 2^i, where j = k & (k - 1).  None for a square, one
    for a 3-cube, six for a 4-cube."""
    built = {(0, 1 << i) for i in range(n)}
    for i in range(n):
        step = 1 << i
        for k in range(1, step):
            built |= {(k, k | step), (k & (k - 1) | step, k | step)}
    return tuple((k, k | 1 << i) for k in range(1 << n) for i in range(n)
                 if not k >> i & 1 and (k, k | 1 << i) not in built)


def _refusal(S: frozenset, inner: Mapping) -> ComplexError:
    """Why S, with the edge count of a cube, is not one: a breadth-first
    search inside S (``inner`` maps each vertex of S to its neighbors in
    S) tells a disconnected record from any other."""
    depth = _reach(inner, next(iter(S)))
    what = "is not connected" if len(depth) != len(S) else "is not a hypercube"
    return ComplexError(f"cube record {_desc(S)} {what}")


def _corner_tuple(S: frozenset, adj: Mapping, key: Callable, unbuilt: tuple) -> tuple:
    """The vertices of one cube record indexed by their bit labels.

    ``adj`` maps every vertex to its set of neighbors (in S or not), ``key``
    orders the vertices and ``unbuilt`` is ``_unbuilt(n)`` for the
    dimension n that the size of S gives.  Raises ComplexError unless the
    graph induced on S is the n-dimensional hypercube.  Corner 0 is the
    least vertex and corner 2^i its i-th least neighbor in S; corner
    k | 2^i, for 0 < k < 2^i, is the one common neighbor in S of corners k
    and j | 2^i, other than corner j, where j = k & (k - 1).  So each
    corner is adjacent, by construction, to the corners it was built from.
    With n 2^(n-1) edges inside S, S is the n-cube exactly when these 2^n
    corners are distinct and the cube edges the doubling did not build
    are present too.
    """
    size = len(S)
    n = (size - 1).bit_length()
    if size < 4 or size != 1 << n:
        raise ComplexError(f"cube record {_desc(S)} does not have 2^n vertices")
    inner = {v: adj[v] & S for v in S}
    edge_count = sum(map(len, inner.values())) // 2
    if edge_count < n * (1 << (n - 1)):
        raise ComplexError(f"face-closure violation: cube {_desc(S)} is missing edges")
    if edge_count > n * (1 << (n - 1)):
        raise ComplexError(f"cube record {_desc(S)} has too many internal edges")

    base = min(S, key=key)
    first = sorted(inner[base], key=key)
    if len(first) != n:
        raise _refusal(S, inner)
    corners = [base]
    for w in first:
        step = len(corners)  # 2^i
        corners.append(w)
        for k in range(1, step):
            j = k & (k - 1)
            common = inner[corners[k]] & inner[corners[j | step]]
            common.discard(corners[j])
            if len(common) != 1:
                raise _refusal(S, inner)
            corners.extend(common)
    corners = tuple(corners)
    if len(set(corners)) != size or not all(
            corners[b] in inner[corners[a]] for a, b in unbuilt):
        raise _refusal(S, inner)
    return corners


def _raise_least(refused: list, rank: Mapping) -> None:
    """Raise the error of the least (record, error) pair, by sorted ranks."""
    if refused:
        raise min(refused, key=lambda r: sorted(map(rank.get, r[0])))[1]


def _validate(C: CubeComplex, vertices: list, edges: list) -> None:
    """Check the records and label every cube, in increasing dimension: so
    an n-cube (n >= 3) only needs its 2n facets recorded.  The vertex and
    edge records are walked in the order given, so an error names the first
    bad one; the cube records and the squares' orientations are checked in
    set order, and an error names the least refused record (``_raise_least``).

    Every deterministic order on the vertices reads ``C._rank``, the
    position of each vertex in the ``_vkey`` order, computed here once."""
    if not C.vertices:
        raise ComplexError("a complex needs at least one vertex")
    adj: dict[object, set] = {}
    for v in vertices:
        if v in adj:  # ids that compare equal, as 1 and True, are one vertex
            raise ComplexError(f"vertex {v!r} recorded twice (or under an equal id)")
        adj[v] = set()
    for a, b in edges:
        if a == b:
            raise ComplexError(f"self-loop at {a!r}")
        if a not in C.vertices or b not in C.vertices:
            raise ComplexError(f"edge ({a!r}, {b!r}) leaves the vertex set")
        if b in adj[a]:
            raise ComplexError(
                f"edge {{{a!r}, {b!r}}} recorded twice (or with both orientations)")
        adj[a].add(b)
        adj[b].add(a)
    stray = {v for cs in C.cubes.values() for S in cs for v in S} - C.vertices
    if stray:
        raise ComplexError(
            f"cube uses unknown vertex {min(stray, key=_vkey)!r}")
    rank = C._rank = {v: i for i, v in enumerate(sorted(C.vertices, key=_vkey))}
    C._adj = {v: tuple(sorted(ws, key=rank.get)) for v, ws in adj.items()}

    for n, cs in sorted(C.cubes.items()):
        if n < 2:
            raise ComplexError("cube records start at dimension 2")
        # the corner indices of each facet: bit i clear, then bit i set
        facets = [itemgetter(*(k for k in range(1 << n) if k & (1 << i) == side))
                  for i in range(n if n > 2 else 0) for side in (0, 1 << i)]
        unbuilt = _unbuilt(n)
        faces = C.cubes.get(n - 1, ())
        refused = []
        for S in cs:
            try:
                corners = C._corners[S] = _corner_tuple(S, adj, rank.get, unbuilt)
                for facet in facets:
                    if frozenset(facet(corners)) not in faces:
                        raise ComplexError(
                            f"face-closure violation: a {n - 1}-face of a "
                            f"{n}-cube is not recorded")
            except ComplexError as exc:
                refused.append((S, exc))
        _raise_least(refused, rank)

    # each edge is recorded once, so it points back along the square's bit
    # exactly when its reverse is a record
    refused = []
    for S in C.cubes.get(2, ()):
        for (a, b), (p, q) in _opposite_edges(C, S):
            if ((b, a) in C.edges) != ((q, p) in C.edges):
                t0, h0 = (a, b) if (a, b) in C.edges else (b, a)
                t1, h1 = (p, q) if (p, q) in C.edges else (q, p)
                refused.append((S, ComplexError(
                    "orientation violation: opposite edges of a square "
                    f"({t0!r}->{h0!r} vs {t1!r}->{h1!r}) disagree")))
                break
    _raise_least(refused, rank)


def build_complex(vertices: Iterable = (), edges: Iterable = (),
                  cubes: Iterable = ()) -> CubeComplex:
    """Assemble and validate a cube complex (see :class:`CubeComplex`)."""
    return CubeComplex(vertices, edges, cubes)


# ---------------------------------------------------------------------------
# hyperplanes and the combinatorial metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    """An equivalence class of parallel edges with its two half-spaces.

    ``plus`` is the side containing the tails of the member edges.
    """
    index: int
    members: frozenset
    plus: frozenset
    minus: frozenset

    def side(self, v) -> int:
        if v in self.plus:
            return 1
        if v in self.minus:
            return -1
        raise ComplexError(f"vertex {v!r} is on neither side")

    def separates(self, u, v) -> bool:
        return self.side(u) != self.side(v)


def _plane(depth: dict, sign: dict, edges, index) -> Hyperplane:
    """The hyperplane of one class of parallel recorded edges in the
    component whose vertices are the keys of ``depth``."""
    bit = 1 << index
    members = frozenset(edges)
    if any(sign[t] ^ sign[h] != bit for t, h in members):
        raise ComplexError(
            "hyperplane class does not cut the complex into two sides")
    tails = {sign[t] & bit for t, _h in members}
    if len(tails) != 1:
        raise ComplexError(
            "orientation violation: a hyperplane class has tails on both sides")
    plus = frozenset(v for v in depth if (sign[v] & bit) in tails)
    return Hyperplane(index, members, plus, frozenset(depth.keys() - plus))


def _hyperplanes(C: CubeComplex) -> tuple[dict, list, dict]:
    """The component number of every vertex, the hyperplanes of each
    component (or the ComplexError refusing them) and the sign vector of
    every vertex, cached on C.

    Components are numbered by their least vertex.  The opposite-edge
    relation on the recorded edges is closed by union-find over the squares;
    classes are indexed per component, each component's by their least edge,
    and class i owns bit i.  A vertex at depth d > 0 of its component's
    breadth-first search flips the bit of its edge to its first neighbor at
    depth d - 1.  In index order, each class must have every edge flip just
    its bit (then only its edges join its two sides, each side connected
    through the squares that chain them) and its tails agree on that bit.
    """
    if C._hyperplanes is not None:
        return C._hyperplanes
    comp_of: dict = {}
    comps: list[dict] = []  # breadth-first depths from the least vertex
    rank = C._rank
    for v in sorted(C.vertices, key=rank.get):
        if v not in comp_of:
            depth = _reach(C._adj, v)
            comp_of.update(dict.fromkeys(depth, len(comps)))
            comps.append(depth)

    parent = {e: e for e in C.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # opposite edges of a square point the same way, as validated
    for S in C.cubes.get(2, ()):
        for base, top in _opposite_edges(C, S):
            if base not in C.edges:
                base, top = base[::-1], top[::-1]
            parent[find(base)] = find(top)

    classes: list[dict] = [{} for _ in comps]  # per component: root -> edges
    for e in C.edges:
        classes[comp_of[e[0]]].setdefault(find(e), []).append(e)

    planes: list = []
    sign: dict = {}
    index = 0
    for depth, roots in zip(comps, classes):
        group = sorted(roots.values(),
                       key=lambda es: min(sorted(map(rank.get, e)) for e in es))
        bit = {e: 1 << i for i, es in enumerate(group, index)  # both ways
               for a, b in es for e in ((a, b), (b, a))}
        for x, d in depth.items():  # breadth-first order: lower depths first
            w = next((w for w in C._adj[x] if depth[w] == d - 1), None)
            sign[x] = 0 if w is None else sign[w] ^ bit[x, w]
        try:
            planes.append(tuple(_plane(depth, sign, es, i)
                                for i, es in enumerate(group, index)))
        except ComplexError as exc:
            planes.append(exc)
        index += len(group)
    C._hyperplanes = (comp_of, planes, sign)
    return C._hyperplanes


def _checked(planes):
    if isinstance(planes, ComplexError):
        raise planes
    return planes


def hyperplanes(C: CubeComplex) -> tuple[Hyperplane, ...]:
    """All hyperplane classes of a connected complex, indexed by least edge.

    Each class must cut the complex into two sides with all member tails on
    one of them.
    """
    planes = _hyperplanes(C)[1]
    if len(planes) != 1:
        raise ComplexError("hyperplanes of a disconnected complex are ambiguous")
    return _checked(planes[0])


def _signs(C: CubeComplex, u, v) -> dict:
    """The sign vectors, once u and v are vertices of one component whose
    hyperplanes are accepted."""
    comp_of, planes, sign = _hyperplanes(C)
    for x in (u, v):
        if x not in comp_of:
            raise ComplexError(f"unknown vertex {x!r}")
    if comp_of[v] != comp_of[u]:
        raise ComplexError(f"vertex {v!r} is unreachable from {u!r}")
    _checked(planes[comp_of[u]])
    return sign


def distance(C: CubeComplex, u, v) -> int:
    """Combinatorial distance: the number of separating hyperplanes."""
    sign = _signs(C, u, v)
    return (sign[u] ^ sign[v]).bit_count()


@dataclass(frozen=True)
class GeodesicResult:
    paths: tuple
    complete: bool

    def __len__(self):
        return len(self.paths)


_DONE = object()


def geodesics(C: CubeComplex, u, v, limit: int = 10000) -> GeodesicResult:
    """All geodesic vertex paths from u to v, up to ``limit`` of them.

    Every geodesic crosses each separating hyperplane exactly once and no
    other hyperplane, so the search only ever steps across a hyperplane
    toward v: that one separates x from v and is not crossed yet.  The
    depth-first search keeps its own stack, one iterator over the onward
    steps per vertex of the trail, and yields the paths in adjacency order.
    """
    sign = _signs(C, u, v)
    want = (sign[u] ^ sign[v]).bit_count()

    paths = []
    trail: list = []
    onward = [iter((u,))]  # one more than the trail: the steps from its end
    while onward:
        x = next(onward[-1], _DONE)
        if x is _DONE:
            onward.pop()
            if trail:  # empty only when the search is over
                trail.pop()
            continue
        trail.append(x)
        if len(trail) - 1 < want:
            toward = sign[x] ^ sign[v]
            onward.append(iter([w for w in C._adj[x]
                                if (sign[x] ^ sign[w]) & toward]))
            continue
        if x == v:
            if len(paths) >= limit:
                return GeodesicResult(tuple(paths), False)
            paths.append(tuple(trail))
        trail.pop()
    return GeodesicResult(tuple(paths), True)


# ---------------------------------------------------------------------------
# the link (flag) condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GromovReport:
    flag: bool
    witness_vertex: object = None
    witness_clique: tuple = ()

    def __bool__(self):
        return self.flag

    def to_dict(self) -> dict:
        return {"flag": self.flag,
                "witness_vertex": None if self.flag else str(self.witness_vertex),
                "witness_clique": [str(w) for w in self.witness_clique]}


def _unfilled_clique(clique: int, cands: int, above: list,
                     cells: set) -> Optional[int]:
    """The first clique of three or more link vertices, grown from the
    bitmask ``clique`` by the bits of ``cands`` from the lowest up, that is
    not the neighbor set of a cube at the vertex (a mask in ``cells``);
    None if there is none.  ``above[i]`` is the mask of the link neighbors
    of bit i above it."""
    while cands:
        low = cands & -cands
        cands ^= low
        bigger = clique | low
        if clique & (clique - 1) and bigger not in cells:  # two bits or more
            return bigger
        rest = cands & above[low.bit_length() - 1]
        if rest:
            bad = _unfilled_clique(bigger, rest, above, cells)
            if bad is not None:
                return bad
    return None


def check_gromov(C: CubeComplex) -> GromovReport:
    """Is the link of every vertex flag?

    A clique of pairwise square-adjacent link vertices must be the neighbor
    set of the base vertex in some recorded cube.  The first violating
    vertex (in deterministic order) is returned with the offending clique.
    Simple connectivity is not checked.

    The link of v is held on bits: its i-th neighbor in ``C._adj[v]``, in
    rank order, is bit i; the link table of v lists, per bit, the mask of
    its link neighbors above it; and a cube of dimension 3 or more at v is
    the mask of its corners beside v.  Growing cliques from the lowest bit
    up visits them in the order of their rank tuples, so the witness is the
    least unfilled clique of the first violating vertex.
    """
    bit = {v: {w: 1 << i for i, w in enumerate(ws)} for v, ws in C._adj.items()}
    above = {v: [0] * len(ws) for v, ws in C._adj.items()}
    # the link edge at each corner of a square joins the two corners beside
    # it, lower bit first: c0 is the least corner and c1 ranks below c2
    for S in C.cubes.get(2, ()):
        c0, c1, c2, c3 = C._corners[S]
        for x, a, b in ((c0, c1, c2), (c1, c0, c3), (c2, c0, c3), (c3, c1, c2)):
            at = bit[x]
            above[x][at[a].bit_length() - 1] |= at[b]
    # only cliques of three or more are looked up among the cells
    cells: dict = {v: set() for v in C.vertices}
    for n in C.cubes:
        if n >= 3:
            links = _links(n)
            for S in C.cubes[n]:
                c = C._corners[S]
                for x, neighbors in zip(c, links):
                    cells[x].add(sum(map(bit[x].__getitem__, neighbors(c))))

    for v in C._rank:  # in rank order
        ws = C._adj[v]
        offender = _unfilled_clique(0, (1 << len(ws)) - 1, above[v], cells[v])
        if offender is not None:
            return GromovReport(False, v, tuple(
                w for i, w in enumerate(ws) if offender >> i & 1))
    return GromovReport(True)


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------

class VertexIsometry:
    """A vertex bijection claimed to preserve the cubical structure.

    The classifier verifies every edge (with its orientation) and every
    cube, and rejects inversions.
    """

    def __init__(self, mapping: Union[Mapping, Callable]):
        self._mapping = mapping

    def __call__(self, v):
        if callable(self._mapping):
            return self._mapping(v)
        try:
            return self._mapping[v]
        except KeyError:
            raise ComplexError(f"isometry is undefined on vertex {v!r}") from None


@dataclass(frozen=True)
class IsometryReport:
    kind: str  # "elliptic" | "undecided"
    probe_depth: int
    distances: tuple
    fixed_vertex: object = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "probe_depth": self.probe_depth,
                "distances": list(self.distances),
                "fixed_vertex": None if self.fixed_vertex is None
                else str(self.fixed_vertex)}


def _check_structure_preserved(C: CubeComplex, f: VertexIsometry) -> None:
    for a, b in sorted(C.edges, key=lambda e: (C._rank[e[0]], C._rank[e[1]])):
        fa, fb = f(a), f(b)
        if (fa, fb) not in C.edges:
            if (fb, fa) in C.edges:
                raise ComplexError(
                    f"inversion: edge ({a!r}, {b!r}) maps onto its reverse "
                    f"({fa!r}, {fb!r})")
            raise ComplexError(
                f"not an isometry: edge ({a!r}, {b!r}) does not map to an edge")
    images = {f(v) for v in C.vertices}
    if images != C.vertices:
        raise ComplexError("not an isometry: vertex images are not a bijection")
    for cs in C.cubes.values():
        for S in cs:
            if frozenset(map(f, S)) not in cs:
                raise ComplexError("not an isometry: a cube does not map to a cube")


def classify_isometry(C: CubeComplex, f: VertexIsometry, v0, N: int = 8) -> IsometryReport:
    """Type of f, with the displacement sequence d(v0, f^n(v0)) for n <= N.

    f is first checked on every edge, with its orientation, and every cube;
    an inversion or a non-isometry raises ComplexError.
    The complex is finite, so f has finite order and bounded orbits: the
    verdict is elliptic with the first fixed vertex in deterministic order,
    or undecided when f fixes no vertex.
    """
    if N < 1:
        raise ComplexError("the probe needs N >= 1")
    _check_structure_preserved(C, f)

    orbit = [v0]
    for _ in range(N):
        orbit.append(f(orbit[-1]))
    dists = tuple(distance(C, v0, w) for w in orbit)
    for w in sorted(C.vertices, key=C._rank.get):
        if f(w) == w:
            return IsometryReport("elliptic", N, dists, fixed_vertex=w)
    return IsometryReport("undecided", N, dists)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _scalar_id(v):
    if isinstance(v, (str, int)):
        return v
    raise OutputError(
        f"vertex id {v!r} is not a string or integer; relabel before export")


def _rank_rows(C: CubeComplex) -> tuple[list, list, dict]:
    """The vertex ids in rank order, then the edges and, per dimension, the
    cubes as sorted rows of ranks into that list."""
    rank = C._rank
    ids = sorted(C.vertices, key=rank.get)
    for v in ids:
        _scalar_id(v)
    edges = sorted((rank[a], rank[b]) for a, b in C.edges)
    cubes = {n: sorted(sorted(map(rank.__getitem__, S)) for S in C.cubes[n])
             for n in C.cubes}
    return ids, edges, cubes


def complex_to_dict(C: CubeComplex) -> dict:
    ids, edges, cubes = _rank_rows(C)

    def listed(rows):
        return [[ids[i] for i in row] for row in rows]

    return {"vertices": ids, "edges": listed(edges),
            "cubes": {str(n): listed(cubes[n]) for n in sorted(cubes)}}


def _json_block(items: list, depth: int, brackets: str = "[]") -> str:
    """Encoded items in a JSON list (or object) at nesting ``depth``, laid
    out as ``json.dumps(..., indent=2)`` lays it out."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return (brackets[0] + pad + ("," + pad).join(items)
            + "\n" + "  " * depth + brackets[1])


def complex_to_json(C: CubeComplex) -> str:
    """``json.dumps(complex_to_dict(C), indent=2, sort_keys=True)``, written
    directly: each id is encoded once."""
    ids, edges, cubes = _rank_rows(C)
    code = [json.dumps(v) for v in ids]

    def rows(table, depth):
        return _json_block([_json_block([code[i] for i in row], depth + 1)
                            for row in table], depth)

    buckets = [f'"{n}": {rows(cubes[n], 2)}' for n in sorted(cubes, key=str)]
    return _json_block([
        '"cubes": ' + _json_block(buckets, 1, "{}"),
        '"edges": ' + rows(edges, 1),
        '"vertices": ' + _json_block(code, 1)], 0, "{}")


def _misplaced(value, what: str, want: str) -> ComplexError:
    name = type(value).__name__
    return ComplexError(f"malformed complex description: {what} is "
                        f"{'an' if name[0] in 'aeiou' else 'a'} {name}, not {want}")


def _listed(value, what: str):
    """``value`` if it is a list or a tuple, where a list of ids (or of id
    lists) belongs."""
    if not isinstance(value, (list, tuple)):
        raise _misplaced(value, what, "a list")
    return value


def _mapped(value, what: str) -> Mapping:
    """``value`` if it is a mapping, where an object belongs."""
    if not isinstance(value, Mapping):
        raise _misplaced(value, what, "an object")
    return value


def complex_from_dict(data: Mapping) -> CubeComplex:
    """The complex of a ``complex_to_dict`` description; one that is not an
    object of lists of hashable ids, with two ids per edge and each cube
    under the key of its dimension, raises ComplexError."""
    _mapped(data, "the description")
    for key in ("vertices", "edges"):
        if key not in data:
            raise ComplexError(f"malformed complex description: the key {key!r} "
                               "is missing")
    try:
        vertices = _listed(data["vertices"], "the vertex list")
        edges = [tuple(_listed(e, "an edge"))
                 for e in _listed(data["edges"], "the edge list")]
        for ids in (vertices, *edges):
            frozenset(ids)  # raises TypeError on an unhashable id
        cubes = []
        for n, bucket in sorted(_mapped(data.get("cubes", {}), "the cube table").items()):
            for S in _listed(bucket, f"cube bucket {n!r}"):
                # the dimension is read from the size as CubeComplex reads it
                dim = (len(frozenset(_listed(S, "a cube"))) - 1).bit_length()
                if str(dim) != str(n):
                    raise ComplexError(f"malformed complex description: cube bucket "
                                       f"{n!r} holds the {dim}-cube record {list(S)!r}")
                cubes.append(S)
    except TypeError as exc:
        raise ComplexError(f"malformed complex description: {exc}") from None
    for e in edges:
        if len(e) != 2:
            raise ComplexError(f"malformed complex description: edge {list(e)!r} "
                               "does not join two vertex ids")
    return build_complex(vertices, edges, cubes)


_DOT_PALETTE = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e",
                "#e6ab02", "#a6761d", "#666666", "#1f78b4", "#b2df8a")


def complex_to_dot(C: CubeComplex) -> str:
    """1-skeleton in DOT, edges colored by hyperplane class, ids escaped;
    distinct ids that print alike are refused."""
    _comp_of, planes, sign = _hyperplanes(C)
    for hps in planes:
        _checked(hps)
    ids = {v: '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'
           for v in C.vertices}
    if len(set(ids.values())) < len(ids):
        seen: dict = {}
        for v in sorted(C.vertices, key=C._rank.get):
            if ids[v] in seen:
                raise OutputError(
                    f"vertex ids {seen[ids[v]]!r} and {v!r} are both the DOT "
                    f"node {ids[v]}; relabel before export")
            seen[ids[v]] = v
    lines = ["digraph cubes {"]
    lines += [f"  {ids[v]};" for v in sorted(C.vertices, key=C._rank.get)]
    for a, b in sorted(C.edges, key=lambda e: (C._rank[e[0]], C._rank[e[1]])):
        index = (sign[a] ^ sign[b]).bit_length() - 1
        color = _DOT_PALETTE[index % len(_DOT_PALETTE)]
        lines.append(f'  {ids[a]} -> {ids[b]} [color="{color}"];')
    return "\n".join(lines) + "\n}\n"
