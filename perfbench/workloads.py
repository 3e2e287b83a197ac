"""Seeded inputs, timed operations and reference answers of the workloads.

``prepare(workload, seed)`` is the set-up phase: it builds the bundled maps
with their verified inverses and generates the seeded inputs, and returns
the operations of one pass.  Each ``Op.run`` is one timed operation; it looks
up the library function through its module at call time, so a traced pass
calls the traced wrapper.  ``Op.judge`` compares a result with its reference
answer after the timed phase and returns ``(failed, undecided)``, where
``undecided`` counts the requested invariants that came back without a value.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from collections import deque

import blowcube.cli as cli
import blowcube.cubes as cubes
import blowcube.dynamics as dynamics
import blowcube.maps as maps

HERE = os.path.dirname(os.path.abspath(__file__))

# conjugates: (mu, nu_f, nu_finv) of each unconjugated plane built-in at
# depth 2, which conjugation by a linear automorphism must preserve.  Depth
# 2 decides all of them; at depth 3 one henon conjugate takes 1 to 5 s
# depending on the draw.  lox1 is left out: one of its conjugates takes 1 to
# 3 s depending on the draw, and with three of them per pass the pass time
# followed the seed by a third.  lox1 is still measured by classify.  Three
# conjugates per map keep a pass near 3 s, so that a 40 s run holds about
# nine passes and each operation's median is taken over that many; with six,
# a run held three or four.  One conjugate's cost varies by 15-30% with the
# draw, so the seed alone moves the pass time: over seeds 1 to 5, from 2.8
# to 3.4 s at the reference speed.
CONJUGATE_DEPTH = 2
CONJUGATES_PER_MAP = 3
CONJUGATE_INVARIANTS = {"sigma": (0, 0, 0), "henon": (3, 0, 0),
                        "jonq1": (2, 0, 0), "jonq2": (2, 1, 1),
                        "hen2": (3, 0, 0)}

# complexes: factor shapes of each complex, cycled; "T<m>" is a random tree
# on m vertices, "P<w>" a random column-convex polyomino of w columns.  Every
# product has dimension 3 or 4, so removing a top cube breaks the flag
# condition.  Sizes are fixed, and chosen so that each shape costs about the
# same, so that the work per complex hardly depends on the seed and the
# median latency does not sit between two groups of shapes.  The seed picks
# the shapes, the damaged complexes and the queries.
COMPLEX_SHAPES = (("T7", "T7", "T5"), ("T12", "P5"), ("P3", "P2"),
                  ("T5", "T3", "P2"))
COMPLEXES = 24
DAMAGED_SHARE = 3           # one complex in three loses a top cube
QUERIES = 8                 # distance and geodesic queries per complex
QUERY_WALK = 6              # query endpoints are this many steps apart at most


class Op:
    """One timed operation; ``input`` is what the program is given."""
    __slots__ = ("label", "input", "run", "judge", "requested")

    def __init__(self, label, input, run, judge, requested):
        self.label = label
        self.input = input
        self.run = run
        self.judge = judge
        self.requested = requested


def plane_builtins() -> list[str]:
    return [n for n in maps.builtin_names() if maps.builtin(n).dim == 2]


def prepare(workload: str, seed: int) -> list[Op]:
    for name in maps.builtin_names():
        maps.builtin(name)  # parse and attach the verified inverse
    rng = random.Random(f"{workload}/{seed}")
    return _PREPARE[workload](rng)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

# classify: depth 4 decides every row; at the default depth 5, lox1 alone
# takes 17 s, which would leave room for only one pass per run.
CLASSIFY_DEPTH = 4
CLASSIFY_INVARIANTS = ("degree_class", "mu", "nu_forward", "nu_backward",
                       "table_row")


def _classify_run(name: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["classify", name, "-n", str(CLASSIFY_DEPTH)])
    return rc, buf.getvalue()


def _classify_judge(got, want: str):
    rc, text = got
    if rc != 0 or text != want:
        return True, 0
    report = json.loads(text)
    undecided = sum(1 for k in CLASSIFY_INVARIANTS
                    if report[k] is None or report[k] == "undecided")
    return False, undecided


def _classify_ops(rng) -> list[Op]:
    ops = []
    for name in plane_builtins():
        with open(os.path.join(HERE, "expected", "classify", f"{name}.json"),
                  newline="") as fh:
            want = fh.read()
        ops.append(Op(name, name, lambda name=name: _classify_run(name),
                      lambda got, want=want: _classify_judge(got, want),
                      len(CLASSIFY_INVARIANTS)))
    return ops


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------

def _automorphism(rng):
    """A linear map with entries in [-3, 3] \\ {0}, redrawn while singular.

    Zero entries are excluded so that every conjugate is in general position;
    sparse draws give conjugates that cost a tenth as much."""
    values = (-3, -2, -1, 1, 2, 3)
    while True:
        rows = [[rng.choice(values) for _ in range(3)] for _ in range(3)]
        try:
            return maps.linear_map(rows)
        except maps.MapError:
            continue


def _conjugate_run(g):
    m = dynamics.mu(g, CONJUGATE_DEPTH)
    nu = dynamics.nu1(g, CONJUGATE_DEPTH)
    return m.value, nu.nu_f, nu.nu_finv


def _conjugate_judge(got, want):
    undecided = sum(1 for x in got if x is None)
    failed = any(x is not None and x != w for x, w in zip(got, want))
    return failed, undecided


def _conjugates_ops(rng) -> list[Op]:
    ops = []
    for name, want in CONJUGATE_INVARIANTS.items():
        f = maps.builtin(name)
        for i in range(CONJUGATES_PER_MAP):
            g = maps.conjugate(f, _automorphism(rng))
            ops.append(Op(f"{name}#{i}", g, lambda g=g: _conjugate_run(g),
                          lambda got, want=want: _conjugate_judge(got, want),
                          3))
    return ops


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

def _tree(rng, m: int):
    """Random recursive tree: cells by dimension, edges parent -> child."""
    edges = [(rng.randrange(i), i) for i in range(1, m)]
    return [[(v,) for v in range(m)], edges, []]


def _polyomino(rng, columns: int):
    """Random column-convex polyomino: columns of two cells, each shifted one
    row up or down from the previous one.

    Adjacent columns share one row, so the square complex is simply connected
    (CAT(0)), and the numbers of cells, edges and vertices do not depend on
    the draw."""
    lo = 0
    squares = []
    for x in range(columns):
        for y in (lo, lo + 1):
            squares.append(((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))
        lo += rng.choice((-1, 1))
    verts = sorted({p for sq in squares for p in sq})
    edges = set()
    for a, b, c, d in squares:  # oriented +x and +y
        edges.update({(a, b), (c, d), (a, c), (b, d)})
    return [[(v,) for v in verts], sorted(edges), squares]


def _product(factors):
    """Cells of the product complex with dimension >= 2, plus the 1-skeleton."""
    edges = []
    cubes_ = []
    for combo in itertools.product(*[
            [(d, c) for d, cells in enumerate(f) for c in cells]
            for f in factors]):
        dim = sum(d for d, _ in combo)
        if dim == 1:
            i = next(i for i, (d, _) in enumerate(combo) if d == 1)
            rest = [c[0] if d == 0 else None for d, c in combo]
            a, b = combo[i][1]
            tail = tuple(a if j == i else r for j, r in enumerate(rest))
            head = tuple(b if j == i else r for j, r in enumerate(rest))
            edges.append((tail, head))
        elif dim >= 2:
            cubes_.append((dim, list(itertools.product(*[c for _, c in combo]))))
    vertices = list(itertools.product(*[[c[0] for c in f[0]] for f in factors]))
    return vertices, edges, cubes_


def _bfs(adj, u):
    """Distances and shortest-path counts from u on the 1-skeleton."""
    dist = {u: 0}
    count = {u: 1}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for w in adj[x]:
            if w not in dist:
                dist[w] = dist[x] + 1
                count[w] = count[x]
                queue.append(w)
            elif dist[w] == dist[x] + 1:
                count[w] += count[x]
    return dist, count


class _ComplexInput:
    """One generated complex: integer vertex ids, the program's input lists,
    the removed cube (or None) and the distance / geodesic queries."""

    def __init__(self, rng, shape):
        factors = [_tree(rng, int(s[1:])) if s[0] == "T"
                   else _polyomino(rng, int(s[1:])) for s in shape]
        verts, edges, cells = _product(factors)
        ids = {v: i for i, v in enumerate(sorted(verts))}
        self.vertices = list(range(len(ids)))
        self.edges = [(ids[a], ids[b]) for a, b in edges]
        self.top = max(d for d, _ in cells)
        self.cubes = [(d, [ids[v] for v in c]) for d, c in cells]
        self.removed = None
        self.adj = {v: [] for v in self.vertices}
        for a, b in self.edges:
            self.adj[a].append(b)
            self.adj[b].append(a)
        self.pairs = []
        for _ in range(QUERIES):
            u = rng.choice(self.vertices)
            v = u
            for _ in range(QUERY_WALK):
                v = rng.choice(self.adj[v])
            self.pairs.append((u, v))

    def damage(self, rng) -> None:
        tops = [i for i, (d, _) in enumerate(self.cubes) if d == self.top]
        self.removed = frozenset(self.cubes.pop(rng.choice(tops))[1])

    def run(self):
        C = cubes.build_complex(self.vertices, self.edges,
                                [c for _, c in self.cubes])
        C = cubes.complex_from_dict(json.loads(cubes.complex_to_json(C)))
        flag = cubes.check_gromov(C)
        hps = cubes.hyperplanes(C)
        dists = [cubes.distance(C, u, v) for u, v in self.pairs]
        geos = [cubes.geodesics(C, u, v) for u, v in self.pairs]
        return flag, hps, dists, geos

    def judge(self, got):
        flag, hps, dists, geos = got
        failed = False
        if self.removed is None:
            failed |= not flag.flag
        else:
            failed |= (flag.flag or flag.witness_vertex not in self.removed
                       or not set(flag.witness_clique) <= self.removed)
        members = [e for h in hps for e in h.members]
        failed |= (len(members) != len(self.edges)
                   or set(members) != set(self.edges))
        undecided = 0
        edge_set = {frozenset(e) for e in self.edges}
        for (u, v), d, geo in zip(self.pairs, dists, geos):
            want_d, want_n = (x[v] for x in _bfs(self.adj, u))
            failed |= d != want_d
            if not geo.complete:
                undecided += 1
                continue
            failed |= len(geo.paths) != want_n or len(set(geo.paths)) != want_n
            for path in geo.paths:
                failed |= (len(path) != want_d + 1 or path[0] != u
                           or path[-1] != v
                           or any(frozenset(p) not in edge_set
                                  for p in zip(path, path[1:])))
        return failed, undecided


def _complexes_ops(rng) -> list[Op]:
    inputs = [_ComplexInput(rng, COMPLEX_SHAPES[i % len(COMPLEX_SHAPES)])
              for i in range(COMPLEXES)]
    for i in rng.sample(range(COMPLEXES), COMPLEXES // DAMAGED_SHARE):
        inputs[i].damage(rng)
    return [Op(f"complex#{i}", x, x.run, x.judge, 1 + 2 * QUERIES)
            for i, x in enumerate(inputs)]


_PREPARE = {"classify": _classify_ops, "conjugates": _conjugates_ops,
            "complexes": _complexes_ops}
