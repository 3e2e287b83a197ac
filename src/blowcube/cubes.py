"""Cube-complex combinatorics: validation, hyperplanes, distances, geodesics,
the flag (Gromov) link condition and classification of vertex isometries.

A complex is given by finite lists of vertices, oriented edges and cubes.
Vertex ids are opaque hashables; all outputs are deterministically ordered.

Edges are oriented tail -> head and the two opposite edges of every square
must point the same way; hyperplane half-spaces inherit that orientation
(the ``plus`` side is the tail side).

The validator certifies the local (flag) part of the CAT(0) condition only;
simple connectivity of user-supplied complexes is not checked.  The bundled
constructions are balls in a simply connected complex, where the local check
is the only one with content.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, Optional, Union

from .errors import ComplexError, OutputError


def _vkey(v):
    """Deterministic sort key for opaque vertex ids."""
    return (v.__class__.__name__, repr(v))


def _pair(a, b) -> frozenset:
    return frozenset((a, b))


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------

class CubeComplex:
    """A finite cube complex.

    Use :func:`build_complex`; the constructor performs no validation.
    """

    def __init__(self, vertices=(), edges=(), cubes=()):
        self.vertices = frozenset(vertices)
        self.edges = frozenset(tuple(e) for e in edges)
        self.cubes: dict[int, frozenset] = {}
        for cube in cubes:
            S = frozenset(cube)
            n = (len(S) - 1).bit_length()
            self.cubes.setdefault(n, set()).add(S)
        self.cubes = {n: frozenset(cs) for n, cs in self.cubes.items()}
        self._adj: dict[object, tuple] = {}
        self._orient: dict[frozenset, tuple] = {}
        self._cube_labels: dict[frozenset, dict] = {}
        self._hyperplanes: Optional[tuple] = None

    @property
    def dimension(self) -> int:
        if self.cubes:
            return max(self.cubes)
        return 1 if self.edges else 0

    def has_edge(self, a, b) -> bool:
        """True when the oriented edge (a, b) is present."""
        return self._orient.get(_pair(a, b)) == (a, b)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _hypercube_labels(S: frozenset, adj_in: dict) -> dict:
    """Coordinate labels (bit masks) for the vertex set of one cube.

    ``adj_in`` maps each vertex of S to its neighbors inside S.  Raises
    ComplexError unless the induced graph is the n-dimensional hypercube.
    """
    size = len(S)
    n = (size - 1).bit_length()
    desc = "{" + ", ".join(repr(v) for v in sorted(S, key=_vkey)) + "}"
    if size < 4 or size != 1 << n:
        raise ComplexError(f"cube record {desc} does not have 2^n vertices")
    edge_count = sum(len(ws) for ws in adj_in.values()) // 2
    if edge_count < n * (1 << (n - 1)):
        raise ComplexError(f"face-closure violation: cube {desc} is missing edges")
    if edge_count > n * (1 << (n - 1)):
        raise ComplexError(f"cube record {desc} has too many internal edges")

    base = min(S, key=_vkey)
    depth = {base: 0}
    queue = deque([base])
    while queue:
        x = queue.popleft()
        for w in adj_in[x]:
            if w not in depth:
                depth[w] = depth[x] + 1
                queue.append(w)
    if len(depth) != size:
        raise ComplexError(f"cube record {desc} is not connected")

    first = sorted(adj_in[base], key=_vkey)
    if len(first) != n:
        raise ComplexError(f"cube record {desc} is not a hypercube")
    labels = {base: 0}
    for i, w in enumerate(first):
        labels[w] = 1 << i
    for v in sorted(S, key=lambda x: (depth[x], _vkey(x))):
        if depth[v] < 2:
            continue
        below = [w for w in adj_in[v] if depth[w] == depth[v] - 1]
        lab = 0
        for w in below:
            lab |= labels[w]
        if len(below) != depth[v] or lab.bit_count() != depth[v]:
            raise ComplexError(f"cube record {desc} is not a hypercube")
        labels[v] = lab
    if len(set(labels.values())) != size:
        raise ComplexError(f"cube record {desc} is not a hypercube")
    for v, ws in adj_in.items():
        for w in ws:
            if (labels[v] ^ labels[w]).bit_count() != 1:
                raise ComplexError(f"cube record {desc} is not a hypercube")
    return labels


def _validate(C: CubeComplex) -> None:
    if not C.vertices:
        raise ComplexError("a complex needs at least one vertex")
    adj = {v: set() for v in C.vertices}
    for a, b in C.edges:
        if a == b:
            raise ComplexError(f"self-loop at {a!r}")
        if a not in C.vertices or b not in C.vertices:
            raise ComplexError(f"edge ({a!r}, {b!r}) leaves the vertex set")
        pair = _pair(a, b)
        if pair in C._orient:
            raise ComplexError(
                f"edge {{{a!r}, {b!r}}} recorded twice (or with both orientations)")
        C._orient[pair] = (a, b)
        adj[a].add(b)
        adj[b].add(a)
    C._adj = {v: tuple(sorted(ws, key=_vkey)) for v, ws in adj.items()}

    for n in sorted(C.cubes):
        if n < 2:
            raise ComplexError("cube records start at dimension 2")
        for S in sorted(C.cubes[n], key=lambda s: sorted(map(_vkey, s))):
            stray = [v for v in S if v not in C.vertices]
            if stray:
                raise ComplexError(f"cube uses unknown vertex {stray[0]!r}")
            adj_in = {v: [w for w in adj[v] if w in S] for v in S}
            labels = _hypercube_labels(S, adj_in)
            C._cube_labels[S] = labels
            by_label = {lab: v for v, lab in labels.items()}
            for m in range(2, n):
                for free in combinations(range(n), m):
                    free_mask = sum(1 << i for i in free)
                    rest = [i for i in range(n) if i not in free]
                    for pick in range(1 << len(rest)):
                        fixed = sum(1 << rest[i]
                                    for i in range(len(rest)) if pick >> i & 1)
                        face = frozenset(by_label[fixed | spread]
                                         for spread in _submasks(free_mask))
                        if face not in C.cubes.get(m, ()):
                            raise ComplexError(
                                f"face-closure violation: a {m}-face of a "
                                f"{n}-cube is not recorded")

    for S in C.cubes.get(2, ()):
        labels = C._cube_labels[S]
        by_label = {lab: v for v, lab in labels.items()}
        for bit, other in ((1, 2), (2, 1)):
            t0, h0 = C._orient[_pair(by_label[0], by_label[bit])]
            t1, h1 = C._orient[_pair(by_label[other], by_label[3])]
            if (labels[t0] & bit) != (labels[t1] & bit):
                raise ComplexError(
                    "orientation violation: opposite edges of a square "
                    f"({t0!r}->{h0!r} vs {t1!r}->{h1!r}) disagree")


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def build_complex(vertices: Iterable = (), edges: Iterable = (),
                  cubes: Iterable = ()) -> CubeComplex:
    """Assemble and validate a cube complex.

    ``cubes`` is a flat iterable of vertex collections; the dimension of each
    is inferred from its size.
    """
    seen = set()
    cube_list = []
    for cube in cubes:
        S = frozenset(cube)
        if S in seen:
            raise ComplexError(
                "duplicate cube {" + ", ".join(repr(v) for v in sorted(S, key=_vkey)) + "}")
        seen.add(S)
        cube_list.append(S)
    C = CubeComplex(vertices, edges, cube_list)
    _validate(C)
    return C


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


def _components(C: CubeComplex) -> list[frozenset]:
    left = set(C.vertices)
    out = []
    while left:
        start = min(left, key=_vkey)
        comp = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for w in C._adj.get(x, ()):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        left -= comp
        out.append(frozenset(comp))
    return sorted(out, key=lambda c: min(map(_vkey, c)))


def hyperplanes(C: CubeComplex) -> tuple[Hyperplane, ...]:
    """All hyperplane classes, deterministically indexed.

    Requires a connected complex.  The opposite-edge relation is
    closed by union-find over the recorded squares; each class must cut the
    complex into exactly two sides with all member tails on one of them.
    """
    if C._hyperplanes is not None:
        return C._hyperplanes
    if len(_components(C)) != 1:
        raise ComplexError("hyperplanes of a disconnected complex are ambiguous")

    parent = {pair: pair for pair in C._orient}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for S in C.cubes.get(2, ()):
        labels = C._cube_labels[S]
        by_label = {lab: v for v, lab in labels.items()}
        for bit, other in ((1, 2), (2, 1)):
            a = _pair(by_label[0], by_label[bit])
            b = _pair(by_label[other], by_label[3])
            parent[find(a)] = find(b)

    classes: dict = {}
    for pair in C._orient:
        classes.setdefault(find(pair), []).append(pair)

    def class_key(pairs):
        return min(sorted(map(_vkey, p)) for p in pairs)

    out = []
    for idx, pairs in enumerate(sorted(classes.values(), key=class_key)):
        cut = set(map(frozenset, pairs))
        start = min(C.vertices, key=_vkey)
        comp = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for w in C._adj[x]:
                if w not in comp and _pair(x, w) not in cut:
                    comp.add(w)
                    queue.append(w)
        rest = C.vertices - comp
        rest_start = min(rest, key=_vkey) if rest else None
        if rest:
            other = {rest_start}
            queue = deque([rest_start])
            while queue:
                x = queue.popleft()
                for w in C._adj[x]:
                    if w not in other and _pair(x, w) not in cut:
                        other.add(w)
                        queue.append(w)
            if other != rest:
                raise ComplexError(
                    "hyperplane class does not cut the complex into two sides")
        else:
            raise ComplexError(
                "hyperplane class does not cut the complex into two sides")
        tails = {C._orient[p][0] for p in pairs}
        heads = {C._orient[p][1] for p in pairs}
        if tails <= comp and heads <= rest:
            plus, minus = comp, rest
        elif tails <= rest and heads <= comp:
            plus, minus = rest, comp
        else:
            raise ComplexError(
                "orientation violation: a hyperplane class has tails on both sides")
        out.append(Hyperplane(idx, frozenset(C._orient[p] for p in pairs),
                              frozenset(plus), frozenset(minus)))
    C._hyperplanes = tuple(out)
    return C._hyperplanes


def _component_subcomplex(C: CubeComplex, v) -> CubeComplex:
    comps = _components(C)
    for comp in comps:
        if v in comp:
            break
    else:
        raise ComplexError(f"unknown vertex {v!r}")
    if len(comps) == 1:
        return C
    sub = CubeComplex(comp,
                      [e for e in C.edges if e[0] in comp],
                      [S for cs in C.cubes.values() for S in cs if S <= comp])
    sub._orient = {p: e for p, e in C._orient.items() if next(iter(p)) in comp}
    sub._adj = {x: C._adj[x] for x in comp}
    sub._cube_labels = {S: L for S, L in C._cube_labels.items() if S <= comp}
    return sub


def distance(C: CubeComplex, u, v) -> int:
    """Combinatorial distance: the number of separating hyperplanes."""
    for x in (u, v):
        if x not in C.vertices:
            raise ComplexError(f"unknown vertex {x!r}")
    if u == v:
        return 0
    sub = _component_subcomplex(C, u)
    if v not in sub.vertices:
        raise ComplexError(f"vertex {v!r} is unreachable from {u!r}")
    return sum(1 for h in hyperplanes(sub) if h.separates(u, v))


@dataclass(frozen=True)
class GeodesicResult:
    paths: tuple
    complete: bool

    def __len__(self):
        return len(self.paths)


def geodesics(C: CubeComplex, u, v, limit: int = 10000) -> GeodesicResult:
    """All geodesic vertex paths from u to v, up to ``limit`` of them.

    Every geodesic crosses each separating hyperplane exactly once and no
    other hyperplane, so the search only ever steps across an uncrossed
    separating hyperplane toward v.
    """
    sub = _component_subcomplex(C, u)
    if v not in sub.vertices:
        raise ComplexError(f"vertex {v!r} is unreachable from {u!r}")
    hps = hyperplanes(sub)
    hp_of = {}
    for h in hps:
        for t, head in h.members:
            hp_of[_pair(t, head)] = h
    sep = frozenset(h.index for h in hps if h.separates(u, v))
    want = len(sep)

    paths = []
    complete = True

    def walk(x, crossed, trail):
        nonlocal complete
        if len(trail) - 1 == want:
            if x == v:
                if len(paths) >= limit:
                    complete = False
                    return False
                paths.append(tuple(trail))
            return True
        for w in sub._adj[x]:
            h = hp_of[_pair(x, w)]
            if h.index not in sep or h.index in crossed:
                continue
            if h.side(w) != h.side(v):
                continue
            if not walk(w, crossed | {h.index}, trail + [w]):
                return False
        return True

    walk(u, frozenset(), [u])
    return GeodesicResult(tuple(paths), complete)


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


def check_gromov(C: CubeComplex) -> GromovReport:
    """Is the link of every vertex flag?

    A clique of pairwise square-adjacent link vertices must be the neighbor
    set of the base vertex in some recorded cube.  The first violating
    vertex (in deterministic order) is returned with the offending clique.
    Simple connectivity is not checked.
    """
    corners: dict = {v: set() for v in C.vertices}
    for cs in C.cubes.values():
        for S in cs:
            labels = C._cube_labels[S]
            by_label = {lab: v for v, lab in labels.items()}
            dim = len(S).bit_length() - 1
            for x in S:
                nbset = frozenset(by_label[labels[x] ^ (1 << i)] for i in range(dim))
                corners[x].add(nbset)

    for v in sorted(C.vertices, key=_vkey):
        nbrs = C._adj.get(v, ())
        ladj = {w: set() for w in nbrs}
        for nbset in corners[v]:
            if len(nbset) == 2:
                a, b = nbset
                ladj[a].add(b)
                ladj[b].add(a)
        order = sorted(nbrs, key=_vkey)
        pos = {w: i for i, w in enumerate(order)}

        def grow(clique, cands):
            for w in cands:
                bigger = clique + (w,)
                if len(bigger) >= 3 and frozenset(bigger) not in corners[v]:
                    return bigger
                bad = grow(bigger, [x for x in cands
                                    if pos[x] > pos[w] and x in ladj[w]])
                if bad is not None:
                    return bad
            return None

        offender = grow((), order)
        if offender is not None:
            return GromovReport(False, v, tuple(sorted(offender, key=_vkey)))
    return GromovReport(True)


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------

class VertexIsometry:
    """A vertex bijection claimed to preserve the cubical structure.

    ``preserves_orientation`` is the caller's certificate; the classifier
    still verifies every edge (with orientation) and cube, and rejects
    inversions.
    """

    def __init__(self, mapping: Union[Mapping, Callable], *,
                 preserves_orientation: bool = True, label: str = ""):
        self._mapping = mapping
        self.preserves_orientation = preserves_orientation
        self.label = label

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
    for a, b in sorted(C.edges, key=lambda e: (_vkey(e[0]), _vkey(e[1]))):
        fa, fb = f(a), f(b)
        if C._orient.get(_pair(fa, fb)) != (fa, fb):
            if C._orient.get(_pair(fa, fb)) == (fb, fa):
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

    The complex is finite, so f has finite order and bounded orbits: the
    verdict is elliptic with the first fixed vertex in deterministic order,
    or undecided when f fixes no vertex.
    """
    if not f.preserves_orientation:
        raise ComplexError(
            "isometry classification requires the orientation certificate")
    if N < 1:
        raise ComplexError("the probe needs N >= 1")
    _check_structure_preserved(C, f)

    orbit = [v0]
    for _ in range(N):
        orbit.append(f(orbit[-1]))
    dists = tuple(distance(C, v0, w) for w in orbit)
    for w in sorted(C.vertices, key=_vkey):
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


def complex_to_dict(C: CubeComplex) -> dict:
    cubes = {}
    for n in sorted(C.cubes):
        cubes[str(n)] = sorted(
            (sorted((_scalar_id(v) for v in S), key=_vkey) for S in C.cubes[n]),
            key=lambda S: list(map(_vkey, S)))
    return {"vertices": sorted((_scalar_id(v) for v in C.vertices), key=_vkey),
            "edges": sorted(([_scalar_id(a), _scalar_id(b)] for a, b in C.edges),
                            key=lambda e: list(map(_vkey, e))),
            "cubes": cubes}


def complex_to_json(C: CubeComplex) -> str:
    return json.dumps(complex_to_dict(C), indent=2, sort_keys=True)


def complex_from_dict(data: Mapping) -> CubeComplex:
    try:
        vertices = data["vertices"]
        edges = [tuple(e) for e in data["edges"]]
        cubes = [S for _n, bucket in sorted(data.get("cubes", {}).items())
                 for S in bucket]
    except (KeyError, TypeError) as exc:
        raise ComplexError(f"malformed complex description: {exc}") from None
    return build_complex(vertices, edges, cubes)


_DOT_PALETTE = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e",
                "#e6ab02", "#a6761d", "#666666", "#1f78b4", "#b2df8a")


def complex_to_dot(C: CubeComplex) -> str:
    """1-skeleton in DOT, edges colored by hyperplane class."""
    color = {}
    offset = 0
    for comp in _components(C):
        sub = _component_subcomplex(C, min(comp, key=_vkey))
        for h in hyperplanes(sub):
            for e in h.members:
                color[e] = _DOT_PALETTE[(offset + h.index) % len(_DOT_PALETTE)]
        offset += len(hyperplanes(sub))
    lines = ["digraph cubes {"]
    for v in sorted(C.vertices, key=_vkey):
        lines.append(f'  "{v}";')
    for a, b in sorted(C.edges, key=lambda e: (_vkey(e[0]), _vkey(e[1]))):
        lines.append(f'  "{a}" -> "{b}" [color="{color[(a, b)]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
