"""Cube complexes: validation, hyperplanes, distance, geodesics, isometries.

The distance and geodesic tests check the hyperplane-based answers against
plain breadth-first search on the 1-skeleton (networkx), which is the
independent oracle for everything median here.
"""

import itertools
import json
import os
import random
import re
import subprocess
import sys

import networkx as nx
import pytest

from blowcube import (
    ComplexError,
    CubeComplex,
    GeodesicResult,
    Hyperplane,
    OutputError,
    VertexIsometry,
    build_complex,
    check_gromov,
    classify_isometry,
    complex_from_dict,
    complex_to_dict,
    complex_to_dot,
    complex_to_json,
    distance,
    geodesics,
    hyperplanes,
)
from blowcube.cubes import _DOT_PALETTE, _corner_tuple, _unbuilt, _vkey


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def grid_data(dims):
    """Box of unit cubes: dims[i] cells along axis i, edges oriented downward."""
    ranges = [range(d + 1) for d in dims]
    vertices = list(itertools.product(*ranges))
    vset = set(vertices)
    edges = []
    for v in vertices:
        for ax in range(len(dims)):
            w = v[:ax] + (v[ax] + 1,) + v[ax + 1:]
            if w in vset:
                edges.append((w, v))
    cubes = []
    for v in vertices:
        for k in range(2, len(dims) + 1):
            for axes in itertools.combinations(range(len(dims)), k):
                if all(v[a] + 1 <= dims[a] for a in axes):
                    corners = []
                    for bits in itertools.product((0, 1), repeat=k):
                        w = list(v)
                        for a, b in zip(axes, bits):
                            w[a] += b
                        corners.append(tuple(w))
                    cubes.append(frozenset(corners))
    return vertices, edges, cubes


def grid(dims):
    return build_complex(*grid_data(dims))


SQUARE_EDGES = [("01", "00"), ("11", "10"), ("10", "00"), ("11", "01")]
SQUARE = frozenset(["00", "01", "10", "11"])


def unit_square():
    return build_complex(["00", "01", "10", "11"], SQUARE_EDGES, [SQUARE])


def octant_data(filled):
    """Three squares around a corner; ``filled`` adds the spanning 3-cube."""
    vertices = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    if filled:
        vertices.append((1, 1, 1))
    vset = set(vertices)
    edges = []
    for v in vertices:
        for ax in range(3):
            w = v[:ax] + (v[ax] + 1,) + v[ax + 1:]
            if w in vset:
                edges.append((w, v))
    squares = [frozenset([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]),
               frozenset([(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]),
               frozenset([(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)])]
    if filled:
        squares += [frozenset([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]),
                    frozenset([(0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)]),
                    frozenset([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])]
        return vertices, edges, squares + [frozenset(vset)]
    return vertices, edges, squares


def skeleton(C: CubeComplex) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(C.vertices)
    G.add_edges_from(C.edges)
    return G


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_single_square_is_valid():
    C = unit_square()
    assert C.dimension == 2
    assert len(hyperplanes(C)) == 2
    assert C.has_edge("01", "00") and not C.has_edge("00", "01")


def test_the_constructor_validates():
    C = CubeComplex(["00", "01", "10", "11"], SQUARE_EDGES, [SQUARE])
    assert distance(C, "00", "11") == 2
    with pytest.raises(ComplexError, match="^self-loop at 1$"):
        CubeComplex([0, 1], [(0, 1), (1, 1)])


def test_validation_catches_defects():
    verts = ["00", "01", "10", "11"]
    square = re.escape("{'00', '01', '10', '11'}")
    # both orientations of one edge: the later record is named
    with pytest.raises(ComplexError, match=r"^edge \{'00', '01'\} recorded "
                       r"twice \(or with both orientations\)$"):
        build_complex(verts, SQUARE_EDGES + [("00", "01")], [SQUARE])
    with pytest.raises(ComplexError, match=re.escape(  # opposite edges oriented oppositely
            "orientation violation: opposite edges of a square "
            "('01'->'00' vs '10'->'11') disagree")):
        bad = [("01", "00"), ("10", "11"), ("10", "00"), ("11", "01")]
        build_complex(verts, bad, [SQUARE])
    with pytest.raises(ComplexError,  # four vertices on a path, not a square
                       match=f"^face-closure violation: cube {square} is missing edges$"):
        build_complex(verts, [("01", "00"), ("10", "01"), ("11", "10")], [SQUARE])
    with pytest.raises(ComplexError, match=f"^duplicate cube {square}$"):
        build_complex(verts, SQUARE_EDGES, [SQUARE, SQUARE])
    with pytest.raises(ComplexError,  # stray vertex inside a cube
                       match="^cube uses unknown vertex '11'$"):
        build_complex(verts[:3], SQUARE_EDGES[2:3], [SQUARE])
    with pytest.raises(ComplexError, match="^a complex needs at least one vertex$"):
        build_complex([], [], [])
    # a repeated id, in the vertex list or in a cube record, names the record
    with pytest.raises(ComplexError, match=re.escape(
            "vertex '00' recorded twice (or under an equal id)")):
        build_complex(verts + ["00"], SQUARE_EDGES, [SQUARE])
    with pytest.raises(ComplexError, match=re.escape(
            "vertex True recorded twice (or under an equal id)")):
        build_complex([0, 1, True], [], [])
    with pytest.raises(ComplexError, match=re.escape(
            "cube record ['00', '01', '10', '11', '11'] repeats a vertex")):
        build_complex(verts, SQUARE_EDGES, [verts + ["11"]])


@pytest.mark.parametrize("flipped, message", [
    (("11", "10"), "('01'->'00' vs '10'->'11')"),  # the pair across bit 1
    (("11", "01"), "('10'->'00' vs '01'->'11')"),  # the pair across bit 2
])
def test_each_pair_of_opposite_edges_is_checked(flipped, message):
    verts = ["00", "01", "10", "11"]
    edges = [e[::-1] if e == flipped else e for e in SQUARE_EDGES]
    with pytest.raises(ComplexError, match=re.escape(
            f"orientation violation: opposite edges of a square {message} disagree")):
        build_complex(verts, edges, [SQUARE])
    # reversing both edges of the pair keeps the square consistent
    partner = {("11", "10"): ("01", "00"), ("11", "01"): ("10", "00")}[flipped]
    edges = [e[::-1] if e in (flipped, partner) else e for e in SQUARE_EDGES]
    assert len(hyperplanes(build_complex(verts, edges, [SQUARE]))) == 2


HASH_SEED_PROBE = """
import json
import sys

from blowcube import (ComplexError, build_complex, complex_to_dot,
                      geodesics, hyperplanes)

def bad_square(p):
    verts = [p + s for s in ("00", "01", "10", "11")]
    edges = [(p + a, p + b) for a, b in
             [("01", "00"), ("10", "11"), ("10", "00"), ("11", "01")]]
    return verts, edges, [verts]

def good_square(p):
    verts, (e0, e1, e2, e3), cubes = bad_square(p)
    return verts, [e0, e1[::-1], e2, e3], cubes

squares = [bad_square(p) for p in "abcdef"]
cases = [(["a", "b"], [], [["a", "b", "x", "y"]]),
         tuple(sum((sq[i] for sq in squares), []) for i in range(3)),
         (["a", "b"], [("a", "b"), ("b", "a")], []),
         (["a", "b"], [("a", "b"), ("a", "b")], []),
         (["a", "b"], [("b", "b"), ("a", "a")], []),
         (["a", "b"], [("a", "y"), ("x", "b")], [])]
# two refused squares, a paw on m and a path on n, among accepted ones
refused = (["m0", "m1", "m2", "m3", "n0", "n1", "n2", "n3"],
           [("m0", "m1"), ("m1", "m2"), ("m2", "m0"), ("m2", "m3"),
            ("n0", "n1"), ("n1", "n2"), ("n2", "n3")],
           [["n0", "n1", "n2", "n3"], ["m3", "m2", "m1", "m0"]])
good = [good_square(p) for p in "gkz"]
cases.append(tuple(sum((sq[i] for sq in good), refused[i]) for i in range(3)))
for vertices, edges, cubes in cases:
    try:
        build_complex(vertices, edges, cubes)
    except ComplexError as exc:
        print(exc)

# one complex given as JSON in argv[1]: hyperplanes in index order with
# their members and plus sides, the geodesics between its first and last
# vertices both ways, and its DOT export
vertices, edges, cubes = json.loads(sys.argv[1])
C = build_complex(vertices, [tuple(e) for e in edges], cubes)
for h in hyperplanes(C):
    print(h.index, sorted(h.members), sorted(h.plus))
for u, v in ((vertices[0], vertices[-1]), (vertices[-1], vertices[0])):
    print(geodesics(C, u, v).paths)
print(complex_to_dot(C), end="")
"""


def test_validation_errors_do_not_depend_on_the_hash_seed():
    # two stray vertices in one cube, six squares with bad orientations:
    # the error must name the least offender whatever the set order is;
    # a pair of edges recorded twice (reversed, then repeated), two
    # self-loops and two edges leaving the vertex set: the error must name
    # the first bad record; a paw and a path among three squares: the error
    # must name the paw, the least refused square;
    # then the hyperplanes, the geodesic paths and the DOT export of a box
    # on string ids must come out in one order
    vertices, edges, cubes = grid_data((2, 1, 1))
    tag = {v: f"p{i}" for i, v in enumerate(random.Random(7).sample(vertices, 12))}
    box = json.dumps([[tag[v] for v in vertices], [[tag[a], tag[b]] for a, b in edges],
                      [[tag[v] for v in S] for S in cubes]])
    outputs = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONHASHSEED": str(seed)}
        run = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE, box],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    assert len(outputs) == 1
    lines = outputs.pop().splitlines()
    assert lines[:7] == [
        "cube uses unknown vertex 'x'",
        "orientation violation: opposite edges of a square "
        "('a01'->'a00' vs 'a10'->'a11') disagree",
        "edge {'b', 'a'} recorded twice (or with both orientations)",
        "edge {'a', 'b'} recorded twice (or with both orientations)",
        "self-loop at 'b'",
        "edge ('a', 'y') leaves the vertex set",
        "cube record {'m0', 'm1', 'm2', 'm3'} is not a hypercube"]
    assert [line.split()[0] for line in lines[7:11]] == ["0", "1", "2", "3"]
    assert lines[11].count("), (") == 11  # 12 geodesics each way
    assert lines[13] == "digraph cubes {" and len(lines) == 14 + 12 + 20 + 1


def _bad_records_of_one_dimension():
    """Three complexes, each with two bad records of one dimension, and the
    message that names the least of them."""
    vertices, edges, cubes = grid_data((3, 1))
    paths = [frozenset((x, y) for x in range(4)) for y in (1, 0)]  # no squares
    yield (vertices, edges, cubes + paths,
           "face-closure violation: cube {(0, 0), (1, 0), (2, 0), (3, 0)} "
           "is missing edges")
    vertices, edges, cubes = grid_data((2, 1, 1))
    gone = {frozenset([(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]),  # y = 0 of one
            frozenset([(1, 0, 1), (2, 0, 1), (1, 1, 1), (2, 1, 1)])}  # z = 1 of the other
    yield (vertices, edges, [S for S in cubes if S not in gone],
           "face-closure violation: a 2-face of a 3-cube is not recorded")
    # in each square p, the opposite edges (p01, p00) and (p10, p11) disagree
    squares = [[p + s for s in ("00", "01", "10", "11")] for p in "ba"]
    edges = [(S[i], S[j]) for S in squares for i, j in ((1, 0), (2, 3), (2, 0), (3, 1))]
    yield ([v for S in squares for v in S], edges, squares,
           "orientation violation: opposite edges of a square "
           "('a01'->'a00' vs 'a10'->'a11') disagree")


@pytest.mark.parametrize("vertices, edges, cubes, message",
                         list(_bad_records_of_one_dimension()),
                         ids=["squares", "three-cubes", "orientations"])
def test_validation_errors_do_not_depend_on_the_record_order(vertices, edges,
                                                             cubes, message):
    # several refused records of one dimension: the least by rank is named,
    # whatever order the records come in
    rng = random.Random("record order")
    for _ in range(5):
        cubes = rng.sample(cubes, len(cubes))
        with pytest.raises(ComplexError, match=f"^{re.escape(message)}$"):
            build_complex(vertices, edges, cubes)


def test_face_closure_is_required():
    vertices, edges, cubes = grid_data((1, 1, 1))
    missing = [S for S in cubes if len(S) != 4 or (0, 0, 0) not in S]
    with pytest.raises(ComplexError):
        build_complex(vertices, edges, missing + [frozenset(vertices)])


def _relabelled(G, rng):
    """G on shuffled vertex ids, so that no id order follows the structure."""
    ids = [f"v{i}" for i in range(G.number_of_nodes())]
    rng.shuffle(ids)
    return nx.relabel_nodes(G, dict(zip(G.nodes, ids)))


def _recognition_inputs(n, rng):
    cube = nx.convert_node_labels_to_integers(nx.hypercube_graph(n))
    size = 1 << n
    graphs = [_relabelled(cube, rng) for _ in range(30)]
    non_edges = sorted(nx.non_edges(cube))
    for _ in range(40):  # one edge moved to a non-edge
        G = cube.copy()
        G.remove_edge(*rng.choice(sorted(G.edges)))
        G.add_edge(*rng.choice(non_edges))
        graphs.append(_relabelled(G, rng))
    graphs += [_relabelled(nx.random_regular_graph(n, size, seed=rng.randrange(10**6)),
                           rng) for _ in range(36)]
    if n == 3:
        graphs.append(_relabelled(nx.disjoint_union(nx.complete_graph(4),
                                                    nx.complete_graph(4)), rng))
    # each edge of the cube, labelled by corner index, moved onto the
    # diagonal {1, 2} of the base square, on ids that increase with the
    # index: the doubling still labels the corners by index, so when the
    # moved edge is one it does not build, only the check of those refuses
    ids = sorted(f"w{x:06d}" for x in rng.sample(range(10 ** 6), size))
    for a, b in sorted(cube.edges):
        G = cube.copy()
        G.remove_edge(a, b)
        G.add_edge(1, 2)
        graphs.append(nx.relabel_nodes(G, dict(enumerate(ids))))
    return graphs


def _with_outsiders(G, rng):
    """Adjacency sets of G and of three more vertices outside it, each
    adjacent to several vertices of G (and the first to the other two);
    the outsiders come first in the ``_vkey`` order."""
    nodes = sorted(G.nodes, key=_vkey)
    adj = {v: set(G[v]) for v in nodes}
    outsiders = ["a0", "a1", "a2"]
    for x in outsiders:
        adj[x] = set(rng.sample(nodes, rng.randint(2, len(nodes))))
        for v in adj[x]:
            adj[v].add(x)
    adj["a0"] |= {"a1", "a2"}
    adj["a1"].add("a0")
    adj["a2"].add("a0")
    return adj


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hypercube_recognition_matches_networkx(n):
    rng = random.Random(1000 + n)
    cube = nx.hypercube_graph(n)
    unbuilt = _unbuilt(n)
    for G in _recognition_inputs(n, rng):
        want = nx.is_isomorphic(G, cube)
        S = frozenset(G.nodes)
        try:
            corners = _corner_tuple(S, _with_outsiders(G, rng), _vkey, unbuilt)
        except ComplexError:
            assert not want
            continue
        assert want
        # a hypercube labelling: each vertex once, and the edges of G are
        # exactly the pairs of corners whose indices differ in one bit
        assert sorted(corners) == sorted(S)
        label = {v: k for k, v in enumerate(corners)}
        assert all((label[a] ^ label[b]).bit_count() == 1 for a, b in G.edges)
        assert corners[0] == min(S, key=_vkey)


def _square_defect(G):
    """The networkx verdict on four vertices with the edges of G: None for
    a 4-cycle, else how the refusal message must end."""
    m = G.number_of_edges()
    if m != 4:
        return "is missing edges" if m < 4 else "has too many internal edges"
    return None if nx.is_isomorphic(G, nx.cycle_graph(4)) else "is not a hypercube"


def test_square_recognition_on_every_edge_set():
    # all 64 graphs on four labelled vertices, on int ids and on shuffled
    # string ids, among outsiders: the 4-cycles are labelled as the doubling
    # labels them, any other record is refused with the message of its defect
    rng = random.Random(64)
    pairs = list(itertools.combinations(range(4), 2))
    unbuilt = _unbuilt(2)
    accepted = 0
    for mask in range(1 << len(pairs)):
        G = nx.Graph([p for i, p in enumerate(pairs) if mask >> i & 1])
        G.add_nodes_from(range(4))
        defect = _square_defect(G)
        for H in (G, _relabelled(G, rng)):
            S = frozenset(H.nodes)
            try:
                corners = _corner_tuple(S, _with_outsiders(H, rng), _vkey, unbuilt)
            except ComplexError as exc:
                what = ("face-closure violation: cube" if defect == "is missing edges"
                        else "cube record")
                ids = ", ".join(map(repr, sorted(S, key=_vkey)))
                assert str(exc) == f"{what} {{{ids}}} {defect}"
                continue
            assert defect is None
            # corner 0 the least vertex, corners 1 and 2 its neighbors in
            # order, corner 3 the vertex left
            c0 = min(S, key=_vkey)
            c1, c2 = sorted(H[c0], key=_vkey)
            assert corners == (c0, c1, c2, *(S - {c0, c1, c2}))
            accepted += 1
    assert accepted == 2 * 3


def _q3():
    return nx.convert_node_labels_to_integers(nx.hypercube_graph(3))


@pytest.mark.parametrize("G, message", [
    (nx.disjoint_union(nx.complete_graph(4), nx.complete_graph(4)),
     "is not connected"),
    (nx.Graph(list(_q3().edges - {(0, 1), (1, 0)}) + [(0, 3)]),
     "is not a hypercube"),
    (nx.Graph([(0, 1), (1, 3), (3, 2), (2, 0), (0, 3)]),
     "has too many internal edges"),
    (nx.Graph([(0, 1), (1, 2), (2, 3)]), "is missing edges"),
    (nx.Graph([(0, 1), (1, 2), (2, 0)]), "does not have 2\\^n vertices"),
], ids=["two-cliques", "edge-moved", "diagonal", "path", "triangle"])
def test_hypercube_refusals_name_the_defect(G, message):
    rng = random.Random(7)
    G = _relabelled(G, rng)
    S = frozenset(G.nodes)
    n = (len(S) - 1).bit_length()
    with pytest.raises(ComplexError, match=f"^.*cube.* {message}$"):
        _corner_tuple(S, _with_outsiders(G, rng), _vkey, _unbuilt(n))


def test_four_cube_rejects_any_missing_face():
    vertices, edges, cubes = grid_data((1, 1, 1, 1))
    squares = [S for S in cubes if len(S) == 4]
    solids = [S for S in cubes if len(S) == 8]
    assert (len(squares), len(solids)) == (24, 8)
    for missing, message in [(S, "a 2-face of a 3-cube") for S in squares] + \
                            [(S, "a 3-face of a 4-cube") for S in solids]:
        with pytest.raises(ComplexError,
                           match=f"face-closure violation: {message} is not recorded"):
            build_complex(vertices, edges, [S for S in cubes if S != missing])


def test_three_cube_needs_all_six_faces():
    vertices, edges, cubes = grid_data((1, 1, 1))
    assert len(cubes) == 7  # six faces and the solid cube
    C = build_complex(vertices, edges, cubes)
    assert C.dimension == 3
    assert len(hyperplanes(C)) == 3


# ---------------------------------------------------------------------------
# hyperplanes and distance
# ---------------------------------------------------------------------------

def test_two_boxes_with_a_flap():
    # two 3-cubes in a row plus one extra square hanging off the far face
    vertices, edges, cubes = grid_data((2, 1, 1))
    vertices += [(3, 0, 0), (3, 1, 0)]
    edges += [((3, 0, 0), (2, 0, 0)), ((3, 1, 0), (2, 1, 0)),
              ((3, 1, 0), (3, 0, 0))]
    cubes.append(frozenset([(2, 0, 0), (2, 1, 0), (3, 0, 0), (3, 1, 0)]))
    C = build_complex(vertices, edges, cubes)
    hs = hyperplanes(C)
    assert len(hs) == 5  # three walls across the row, one per remaining axis
    assert distance(C, (0, 0, 0), (3, 1, 0)) == 4
    assert distance(C, (0, 0, 0), (2, 1, 1)) == 4
    seps = [h for h in hs if h.separates((0, 0, 0), (2, 1, 1))]
    assert len(seps) == 4


def test_hyperplane_sides_partition_the_square():
    C = unit_square()
    for h in hyperplanes(C):
        plus = {v for v in C.vertices if h.side(v) > 0}
        minus = {v for v in C.vertices if h.side(v) < 0}
        assert len(plus) == 2 and len(minus) == 2
        assert plus | minus == set(C.vertices)
        # tails of the oriented member edges sit on the plus side
        for a, _b in h.members:
            assert h.side(a) > 0


def test_distance_matches_bfs_oracle():
    for dims in ((3, 2), (2, 1, 1), (1, 1, 1)):
        C = grid(dims)
        G = skeleton(C)
        for u in C.vertices:
            lengths = nx.single_source_shortest_path_length(G, u)
            for v in C.vertices:
                assert distance(C, u, v) == lengths[v]


def test_distance_requires_a_path():
    C = build_complex(["a", "b"], [], [])
    with pytest.raises(ComplexError):
        distance(C, "a", "b")


def two_components():
    """A strip of two squares and a solid 3-cube, side by side."""
    parts = []
    for prefix, dims in (("a", (2, 1)), ("b", (1, 1, 1))):
        vertices, edges, cubes = grid_data(dims)
        tag = {v: prefix + "".join(map(str, v)) for v in vertices}
        parts.append(([tag[v] for v in vertices],
                      [(tag[a], tag[b]) for a, b in edges],
                      [frozenset(tag[v] for v in S) for S in cubes]))
    return build_complex(*(sum((part[i] for part in parts), []) for i in range(3)))


TWO_COMPONENTS_DOT = """digraph cubes {
  "a00";
  "a01";
  "a10";
  "a11";
  "a20";
  "a21";
  "b000";
  "b001";
  "b010";
  "b011";
  "b100";
  "b101";
  "b110";
  "b111";
  "a01" -> "a00" [color="#1b9e77"];
  "a10" -> "a00" [color="#d95f02"];
  "a11" -> "a01" [color="#d95f02"];
  "a11" -> "a10" [color="#1b9e77"];
  "a20" -> "a10" [color="#7570b3"];
  "a21" -> "a11" [color="#7570b3"];
  "a21" -> "a20" [color="#1b9e77"];
  "b001" -> "b000" [color="#e7298a"];
  "b010" -> "b000" [color="#66a61e"];
  "b011" -> "b001" [color="#66a61e"];
  "b011" -> "b010" [color="#e7298a"];
  "b100" -> "b000" [color="#e6ab02"];
  "b101" -> "b001" [color="#e6ab02"];
  "b101" -> "b100" [color="#e7298a"];
  "b110" -> "b010" [color="#e6ab02"];
  "b110" -> "b100" [color="#66a61e"];
  "b111" -> "b011" [color="#e6ab02"];
  "b111" -> "b101" [color="#66a61e"];
  "b111" -> "b110" [color="#e7298a"];
}
"""


def test_two_components_measure_each_component():
    C = two_components()
    G = skeleton(C)
    for u in C.vertices:
        lengths = nx.single_source_shortest_path_length(G, u)
        for v in C.vertices:
            if v in lengths:
                assert distance(C, u, v) == lengths[v]
                res = geodesics(C, u, v)
                assert res.complete
                assert len(res) == len(list(nx.all_shortest_paths(G, u, v)))
            else:
                with pytest.raises(ComplexError, match="unreachable"):
                    distance(C, u, v)
                with pytest.raises(ComplexError, match="unreachable"):
                    geodesics(C, u, v)
    for query in (distance, geodesics):
        for u, v in (("a00", "c"), ("c", "a00")):
            with pytest.raises(ComplexError, match="unknown vertex 'c'"):
                query(C, u, v)
    with pytest.raises(ComplexError, match="ambiguous"):
        hyperplanes(C)
    assert complex_to_dot(C) == TWO_COMPONENTS_DOT


# a 4-cycle with no square: neither class of opposite edges cuts it
EMPTY_4_CYCLE = (range(4), [(0, 1), (1, 2), (3, 2), (0, 3)], [])
# three squares around vertex 3 and a path 1 - 6 - 5: the class of the edge
# 0 -> 1 cuts the complex, but with tails on both sides
TAILS_ON_BOTH_SIDES = (
    range(7),
    [(0, 1), (3, 4), (5, 2), (3, 0), (4, 1), (0, 2), (3, 5), (4, 2), (1, 6), (6, 5)],
    [{0, 1, 3, 4}, {0, 2, 3, 5}, {2, 3, 4, 5}])


@pytest.mark.parametrize("data, message", [
    (EMPTY_4_CYCLE, "hyperplane class does not cut the complex into two sides"),
    (TAILS_ON_BOTH_SIDES,
     "orientation violation: a hyperplane class has tails on both sides"),
], ids=["empty-4-cycle", "tails-on-both-sides"])
def test_refused_hyperplane_classes(data, message):
    C = build_complex(*data)
    for query in (hyperplanes, lambda C: distance(C, 0, 2),
                  lambda C: distance(C, 0, 0), lambda C: geodesics(C, 0, 2),
                  complex_to_dot):
        with pytest.raises(ComplexError, match=f"^{message}$"):
            query(C)


def test_a_refused_component_leaves_the_others_measured():
    vertices, edges, _cubes = EMPTY_4_CYCLE
    C = build_complex([*vertices, 4, 5, 6, 7],
                      [*edges, (5, 4), (7, 6), (6, 4), (7, 5)], [{4, 5, 6, 7}])
    assert distance(C, 4, 7) == 2
    assert geodesics(C, 4, 7).paths == ((4, 5, 7), (4, 6, 7))
    with pytest.raises(ComplexError, match="does not cut"):
        distance(C, 0, 2)
    with pytest.raises(ComplexError, match="ambiguous"):
        hyperplanes(C)
    with pytest.raises(ComplexError, match="does not cut"):
        complex_to_dot(C)


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

def test_geodesic_count_in_a_box():
    C = grid((2, 1, 1))
    res = geodesics(C, (0, 0, 0), (2, 1, 1))
    assert res.complete
    assert len(res) == 12  # 4!/2! monotone lattice paths
    for path in res.paths:
        assert path[0] == (0, 0, 0) and path[-1] == (2, 1, 1)
        assert len(path) == 5
    # the search steps to neighbors in vertex order, so the paths come out
    # in lexicographic order
    assert list(res.paths) == sorted(res.paths)


def test_geodesics_match_bfs_enumeration():
    C = grid((2, 2))
    G = skeleton(C)
    for u, v in (((0, 0), (2, 2)), ((0, 1), (2, 0))):
        want = sorted(tuple(p) for p in nx.all_shortest_paths(G, u, v))
        got = sorted(res_path for res_path in geodesics(C, u, v).paths)
        assert got == want


def test_geodesic_limit_marks_incomplete():
    C = grid((2, 1, 1))
    res = geodesics(C, (0, 0, 0), (2, 1, 1), limit=5)
    assert not res.complete
    assert len(res) == 5


def test_geodesics_are_not_bounded_by_the_recursion_limit():
    C = build_complex(range(1500), [(v + 1, v) for v in range(1499)])
    assert distance(C, 0, 1499) == 1499
    res = geodesics(C, 0, 1499)
    assert res.complete
    assert res.paths == (tuple(range(1500)),)


# ---------------------------------------------------------------------------
# differential: seeded products of trees and polyominoes against networkx
# ---------------------------------------------------------------------------

def random_tree(rng, m):
    """Cells of a random recursive tree on m vertices, edges parent -> child."""
    return [(v,) for v in range(m)], [(rng.randrange(i), i) for i in range(1, m)], []


def random_polyomino(rng, columns):
    """Cells of a column-convex polyomino: columns of two cells, each one row
    up or down from the last, so that the square complex is CAT(0)."""
    lo, squares = 0, []
    for x in range(columns):
        squares += [((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1))
                    for y in (lo, lo + 1)]
        lo += rng.choice((-1, 1))
    edges = {e for a, b, c, d in squares for e in ((a, b), (c, d), (a, c), (b, d))}
    return sorted({(p,) for sq in squares for p in sq}), sorted(edges), squares


def product_data(factors):
    """Vertices, oriented edges and cubes of a product of cell lists; a cell
    is a tuple of corners, its dimension the log2 of their number."""
    edges, cubes = [], []
    cells = [[c for cs in f for c in cs] for f in factors]
    for combo in itertools.product(*cells):
        dim = sum(len(c).bit_length() - 1 for c in combo)
        if dim == 1:
            i = next(i for i, c in enumerate(combo) if len(c) == 2)
            ends = [[c[0]] * 2 if j != i else c for j, c in enumerate(combo)]
            edges.append(tuple(zip(*ends)))
        elif dim >= 2:
            cubes.append(list(itertools.product(*combo)))
    vertices = list(itertools.product(*[[c[0] for c in f[0]] for f in factors]))
    return vertices, edges, cubes


@pytest.mark.parametrize("seed", range(6))
def test_products_match_networkx(seed):
    rng = random.Random(seed)
    shape = [("T5", "T4", "T3"), ("T6", "P3"), ("P2", "P2")][seed % 3]
    vertices, edges, cubes = product_data(
        [random_tree(rng, int(s[1:])) if s[0] == "T" else random_polyomino(rng, int(s[1:]))
         for s in shape])
    removed = None
    if seed % 3 == 0:  # one complex in three loses a top cube
        top = max(map(len, cubes))
        removed = cubes.pop(rng.choice([i for i, S in enumerate(cubes) if len(S) == top]))
    ids = [f"v{i}" for i in range(len(vertices))]
    rng.shuffle(ids)
    tag = dict(zip(vertices, ids))
    C = build_complex([tag[v] for v in vertices], [(tag[a], tag[b]) for a, b in edges],
                      [[tag[v] for v in S] for S in cubes])

    members = [e for h in hyperplanes(C) for e in h.members]
    assert len(members) == len(set(members)) == len(C.edges)
    assert set(members) == C.edges

    rep = check_gromov(C)
    if removed is None:
        assert rep.flag
    else:
        assert not rep.flag
        inside = {tag[v] for v in removed}
        assert rep.witness_vertex in inside and set(rep.witness_clique) <= inside

    G = skeleton(C)
    for u in rng.sample(sorted(C.vertices), 6):
        lengths = nx.single_source_shortest_path_length(G, u)
        for v in rng.sample(sorted(C.vertices), 6):
            assert distance(C, u, v) == lengths[v]
            res = geodesics(C, u, v)
            assert res.complete
            assert len(res) == sum(1 for _ in nx.all_shortest_paths(G, u, v))


def _flag_reference(C):
    """Per vertex, its link graph, built with networkx from the squares at
    the vertex, and the neighbor sets there of its cubes of dimension three
    or more."""
    G = skeleton(C)
    links = {v: nx.Graph() for v in C.vertices}
    cells = {v: set() for v in C.vertices}
    for n, cs in C.cubes.items():
        for S in cs:
            for v in S:
                around = frozenset(w for w in S if G.has_edge(v, w))
                if n == 2:
                    links[v].add_edge(*around)
                else:
                    cells[v].add(around)
    return links, cells


def _first_violation(C):
    """The reference answer of ``check_gromov`` on a complex that is not
    flag: the first vertex in rank order whose networkx link has a clique
    of three or more vertices that no cube at the vertex fills, and the
    least such clique as a tuple of ranks."""
    links, cells = _flag_reference(C)
    rank = {v: i for i, v in enumerate(sorted(C.vertices, key=_vkey))}
    for v in sorted(C.vertices, key=rank.get):
        unfilled = [tuple(sorted(K, key=rank.get))
                    for K in nx.enumerate_all_cliques(links[v])
                    if len(K) >= 3 and frozenset(K) not in cells[v]]
        if unfilled:
            return v, min(unfilled, key=lambda K: [rank[w] for w in K])
    return None


@pytest.mark.parametrize("seed", range(8))
def test_flag_witness_is_the_first_violating_vertex(seed):
    # a product that loses one top cube (a 3-cube or a 4-cube), on shuffled
    # ids: every corner of the lost cube violates the flag condition, and
    # the report names the first of them in rank order with its least
    # unfilled clique
    rng = random.Random(500 + seed)
    shape = [("T5", "T4", "T3"), ("T4", "P2"), ("P2", "P2"),
             ("T3", "T3", "T2", "T2")][seed % 4]
    vertices, edges, cubes = product_data(
        [random_tree(rng, int(s[1:])) if s[0] == "T" else random_polyomino(rng, int(s[1:]))
         for s in shape])
    top = max(map(len, cubes))
    assert top in (8, 16)
    cubes.pop(rng.choice([i for i, S in enumerate(cubes) if len(S) == top]))
    ids = [f"v{i}" for i in range(len(vertices))]
    rng.shuffle(ids)
    tag = dict(zip(vertices, ids))
    C = build_complex([tag[v] for v in vertices], [(tag[a], tag[b]) for a, b in edges],
                      [[tag[v] for v in S] for S in cubes])

    want = _first_violation(C)
    rep = check_gromov(C)
    assert want is not None and not rep.flag
    assert (rep.witness_vertex, rep.witness_clique) == want


def test_links_wider_than_a_machine_word():
    # a star with 70 leaves times an edge times an edge: the hub's link has
    # 72 vertices, and the 3-cubes lost at the hub are across its last
    # leaves in rank order, whose bits are above 64
    star = ([(v,) for v in range(71)], [(0, v) for v in range(1, 71)], [])
    segment = ([(0,), (1,)], [(0, 1)], [])
    vertices, edges, cubes = product_data([star, segment, segment])
    hub = (0, 0, 0)
    C = build_complex(vertices, edges, cubes)
    assert len(C._adj[hub]) == 72
    assert check_gromov(C).flag

    leaves = sorted(range(1, 71), key=lambda v: _vkey((v, 0, 0)))[-2:]
    for lost in ([leaves[1]], leaves):  # then the cube across the other too
        gone = [sorted(itertools.product((0, leaf), (0, 1), (0, 1))) for leaf in lost]
        kept = [S for S in cubes if sorted(S) not in gone]
        assert len(kept) == len(cubes) - len(lost)
        C = build_complex(vertices, edges, kept)
        rep = check_gromov(C)
        assert not rep.flag
        assert (rep.witness_vertex, rep.witness_clique) == _first_violation(C)
        assert rep.witness_vertex == hub
        assert rep.witness_clique == ((0, 0, 1), (0, 1, 0), (lost[0], 0, 0))
        assert C._adj[hub].index((lost[0], 0, 0)) >= 64


# ---------------------------------------------------------------------------
# differential: the two-search split as the reference for hyperplanes
# ---------------------------------------------------------------------------

# the 3 x 3 grid, the 3-cube and the 2 x 4 grid
SQUARE_BASES = (list(itertools.product(range(3), repeat=2)),
                list(itertools.product(range(2), repeat=3)),
                list(itertools.product(range(2), range(4))))

REFUSALS = {"hyperplane class does not cut the complex into two sides",
            "orientation violation: a hyperplane class has tails on both sides"}


def random_square_complex(rng):
    """5 to 9 points of a small grid or cube, their unit edges and up to two
    random chords, each edge oriented at random; each induced 4-cycle whose
    opposite edges agree is filled by a square with probability 3/4."""
    base = rng.choice(SQUARE_BASES)
    points = rng.sample(base, min(rng.randint(5, 9), len(base)))
    n = len(points)
    pairs = {frozenset((i, j)) for i, j in itertools.combinations(range(n), 2)
             if sum(abs(x - y) for x, y in zip(points[i], points[j])) == 1}
    pairs.update(frozenset(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2)))
    edges = {p: tuple(rng.sample(sorted(p), 2)) for p in sorted(pairs, key=sorted)}

    def along(a, b):
        return edges[frozenset((a, b))] == (a, b)

    squares = []
    for quad in itertools.combinations(range(n), 4):
        p, q, r, s = quad
        for a, b, c, d in ((p, q, r, s), (p, q, s, r), (p, r, q, s)):
            if (all(frozenset(e) in pairs for e in ((a, b), (b, c), (c, d), (d, a)))
                    and frozenset((a, c)) not in pairs
                    and frozenset((b, d)) not in pairs
                    and along(a, b) == along(d, c) and along(b, c) == along(a, d)
                    and rng.random() < 0.75):
                squares.append(quad)
    return build_complex(range(n), edges.values(), squares)


class SplitReference:
    """Hyperplanes, distances, geodesics and DOT export by the two-search
    split that preceded sign vectors: the sides of each class of parallel
    edges are the breadth-first searches that may not cross its edges, from
    the component's least vertex and from the least vertex that one misses.
    Classes are the opposite-edge relation of the squares, indexed
    component by component, each component's by their least edge."""

    def __init__(self, C):
        self.C = C
        order = sorted(C.vertices, key=_vkey)
        self.rank = rank = {v: i for i, v in enumerate(order)}
        self.oriented = oriented = {frozenset(e): e for e in C.edges}
        self.adj = {v: [] for v in order}
        for a, b in C.edges:
            self.adj[a].append(b)
            self.adj[b].append(a)
        for ws in self.adj.values():
            ws.sort(key=rank.get)
        self.comp_of, comps = {}, []
        for v in order:
            if v not in self.comp_of:
                comp = self.reach(v)
                self.comp_of.update(dict.fromkeys(comp, len(comps)))
                comps.append((v, frozenset(comp)))
        parent = {p: p for p in oriented}

        def find(p):
            while parent[p] != p:
                p = parent[p]
            return p

        for S in C.cubes.get(2, ()):
            inner = [frozenset(e) for e in itertools.combinations(S, 2)
                     if frozenset(e) in oriented]
            for p, q in itertools.combinations(inner, 2):
                if not p & q:  # opposite edges
                    parent[find(p)] = find(q)
        classes = [{} for _ in comps]
        for p in oriented:
            classes[self.comp_of[next(iter(p))]].setdefault(find(p), []).append(p)
        self.planes, index = [], 0
        for (start, comp), roots in zip(comps, classes):
            group = sorted(roots.values(),
                           key=lambda ps: min(sorted(map(rank.get, p)) for p in ps))
            try:
                self.planes.append(tuple(self.split(comp, start, ps, i)
                                         for i, ps in enumerate(group, index)))
            except ComplexError as exc:
                self.planes.append(exc)
            index += len(group)

    def reach(self, start, cut=frozenset()):
        seen, queue = {start}, [start]
        for x in queue:
            for w in self.adj[x]:
                if w not in seen and frozenset((x, w)) not in cut:
                    seen.add(w)
                    queue.append(w)
        return seen

    def split(self, comp, start, pairs, index):
        members = frozenset(self.oriented[p] for p in pairs)
        near = frozenset(self.reach(start, pairs))
        far = comp - near
        if not far or self.reach(min(far, key=self.rank.get), pairs) != far:
            raise ComplexError(
                "hyperplane class does not cut the complex into two sides")
        tails = {t for t, _h in members}
        plus, minus = (near, far) if tails <= near else (far, near)
        if not (tails <= plus and {h for _t, h in members} <= minus):
            raise ComplexError(
                "orientation violation: a hyperplane class has tails on both sides")
        return Hyperplane(index, members, plus, minus)

    def hyperplanes(self):
        if len(self.planes) != 1:
            raise ComplexError("hyperplanes of a disconnected complex are ambiguous")
        return self.checked(self.planes[0])

    @staticmethod
    def checked(planes):
        if isinstance(planes, ComplexError):
            raise planes
        return planes

    def between(self, u, v):
        if self.comp_of[v] != self.comp_of[u]:
            raise ComplexError(f"vertex {v!r} is unreachable from {u!r}")
        return self.checked(self.planes[self.comp_of[u]])

    def distance(self, u, v):
        return sum(1 for h in self.between(u, v) if h.separates(u, v))

    def geodesics(self, u, v):
        hps = self.between(u, v)
        plane_of = {frozenset(e): h for h in hps for e in h.members}
        want = sum(1 for h in hps if h.separates(u, v))
        paths = []

        def walk(trail):
            x = trail[-1]
            if len(trail) - 1 == want:
                if x == v:
                    paths.append(tuple(trail))
                return
            for w in self.adj[x]:
                h = plane_of[frozenset((x, w))]
                if (w in h.plus) == (v in h.plus):
                    walk(trail + [w])

        walk([u])
        return GeodesicResult(tuple(paths), True)

    def dot(self):
        for planes in self.planes:
            self.checked(planes)
        plane_of = {frozenset(e): h for hps in self.planes for h in hps
                    for e in h.members}
        lines = ["digraph cubes {"]
        lines += [f'  "{v}";' for v in sorted(self.C.vertices, key=self.rank.get)]
        for a, b in sorted(self.C.edges, key=lambda e: [self.rank[v] for v in e]):
            color = _DOT_PALETTE[plane_of[frozenset((a, b))].index % len(_DOT_PALETTE)]
            lines.append(f'  "{a}" -> "{b}" [color="{color}"];')
        return "\n".join(lines) + "\n}\n"


def outcome(query, *args):
    """The value of a query, or the ComplexError refusing it."""
    try:
        return query(*args)
    except ComplexError as exc:
        return exc


def same_outcome(got, want):
    """Equal values, or two refusals with the same message; a refused
    component may name either refusal reason."""
    if isinstance(want, ComplexError) or isinstance(got, ComplexError):
        return (isinstance(got, ComplexError) and isinstance(want, ComplexError)
                and (str(got) == str(want) or {str(got), str(want)} <= REFUSALS))
    return got == want


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_sign_vectors_match_the_two_search_split(seed):
    rng = random.Random(seed)
    accepted = refused = 0
    for _ in range(400):
        C = random_square_complex(rng)
        ref = SplitReference(C)
        for planes in ref.planes:
            if isinstance(planes, ComplexError):
                refused += 1
            else:
                accepted += 1
        assert same_outcome(outcome(hyperplanes, C), outcome(ref.hyperplanes))
        assert same_outcome(outcome(complex_to_dot, C), outcome(ref.dot))
        for u in C.vertices:
            for v in C.vertices:
                assert same_outcome(outcome(distance, C, u, v),
                                    outcome(ref.distance, u, v))
                assert same_outcome(outcome(geodesics, C, u, v),
                                    outcome(ref.geodesics, u, v))
    assert accepted >= 50 and refused >= 50


# ---------------------------------------------------------------------------
# the link condition
# ---------------------------------------------------------------------------

def test_empty_octant_corner_is_rejected():
    rep = check_gromov(build_complex(*octant_data(filled=False)))
    assert not rep.flag
    assert rep.witness_vertex == (0, 0, 0)
    assert rep.witness_clique == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


@pytest.mark.parametrize("rank", range(7))
def test_empty_octant_corner_is_found_at_any_rank(rank):
    # relabelled so that the empty corner has the given rank: over the
    # ranks, it takes every position in the corner tuples of its squares,
    # so the link edges read at each position are needed
    vertices, edges, squares = octant_data(filled=False)
    rng = random.Random(rank)
    others = [f"v{i}" for i in range(7) if i != rank]
    rng.shuffle(others)
    tag = dict(zip(vertices, [f"v{rank}"] + others))
    C = build_complex(tag.values(), [(tag[a], tag[b]) for a, b in edges],
                      [[tag[v] for v in S] for S in squares])
    rep = check_gromov(C)
    assert not rep.flag and rep.witness_vertex == f"v{rank}"
    assert rep.witness_clique == tuple(sorted(tag[v] for v in vertices[1:4]))


def test_filling_the_corner_restores_the_link_condition():
    rep = check_gromov(build_complex(*octant_data(filled=True)))
    assert rep.flag
    assert rep.witness_vertex is None
    assert rep.to_dict() == {"flag": True, "witness_vertex": None,
                             "witness_clique": []}


def test_grids_pass_gromov():
    assert check_gromov(grid((1, 1, 1)))
    assert check_gromov(grid((3, 2)))


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------

def test_square_reflection_is_elliptic():
    C = unit_square()
    swap = {"00": "00", "01": "10", "10": "01", "11": "11"}
    rep = classify_isometry(C, VertexIsometry(swap), "01", N=4)
    assert rep.kind == "elliptic"
    assert rep.fixed_vertex == "00"
    assert rep.distances == (0, 2, 0, 2, 0)


def test_cyclic_shift_of_the_four_cube_is_elliptic():
    C = grid((1, 1, 1, 1))
    shift = VertexIsometry(lambda v: v[-1:] + v[:-1])
    rep = classify_isometry(C, shift, (1, 1, 0, 0), N=2)
    assert rep.kind == "elliptic"
    assert rep.fixed_vertex == (0, 0, 0, 0)
    assert rep.distances == (0, 2, 4)


def test_edge_inversion_is_rejected():
    C = build_complex(range(-2, 3), [(v + 1, v) for v in range(-2, 2)])
    with pytest.raises(ComplexError, match="inversion"):
        classify_isometry(C, VertexIsometry(lambda v: -v), 1, N=4)


def test_non_bijections_are_rejected_on_explicit_complexes():
    C = unit_square()
    crush = {"00": "00", "01": "00", "10": "10", "11": "10"}
    with pytest.raises(ComplexError):
        classify_isometry(C, VertexIsometry(crush), "00", N=4)


# ---------------------------------------------------------------------------
# relabeling and serialization
# ---------------------------------------------------------------------------

def test_relabeling_preserves_metric_structure():
    vertices, edges, cubes = grid_data((2, 1, 1))
    tag = {v: f"p{i}" for i, v in enumerate(sorted(vertices))}
    C = grid((2, 1, 1))
    D = build_complex([tag[v] for v in vertices],
                      [(tag[a], tag[b]) for a, b in edges],
                      [frozenset(tag[v] for v in S) for S in cubes])
    assert len(hyperplanes(C)) == len(hyperplanes(D))
    for u in vertices:
        for v in vertices:
            assert distance(C, u, v) == distance(D, tag[u], tag[v])


def test_serialization_roundtrip():
    vertices, edges, cubes = grid_data((1, 1))
    tag = {v: f"{v[0]}{v[1]}" for v in vertices}
    C = build_complex([tag[v] for v in vertices],
                      [(tag[a], tag[b]) for a, b in edges],
                      [frozenset(tag[v] for v in S) for S in cubes])
    data = complex_to_dict(C)
    D = complex_from_dict(data)
    assert complex_to_dict(D) == data
    assert complex_to_json(D) == complex_to_json(C)
    assert json.loads(complex_to_json(C)) == data
    with pytest.raises(ComplexError):
        complex_from_dict({"edges": []})


STRANGE_IDS = ["\u00e9t\u00e9", 'say "hi"', "back\\slash", "tab\there", "\u2203x",
               "line\nbreak", "\U0001d53d", 0, -7, 12345678901234567890, True]


def _writer_cases(seed):
    """Seeded complexes for the JSON writer: a product of random trees and
    polyominoes of dimension 2 to 4 on strange, mixed ids, a tree (no
    cubes) and a single vertex."""
    rng = random.Random(seed)
    shape = [("T3", "T3", "T2", "T2"), ("T4", "P2"), ("T3", "T3", "T3"),
             ("P2", "P2"), ("T2", "T2", "T2", "T2")][seed % 5]
    vertices, edges, cubes = product_data(
        [random_tree(rng, int(s[1:])) if s[0] == "T" else random_polyomino(rng, int(s[1:]))
         for s in shape])
    pool = STRANGE_IDS + [f"v{i}" for i in range(len(vertices))] + list(range(2, 200))
    ids = rng.sample(pool, len(vertices))
    tag = dict(zip(vertices, ids))
    yield build_complex(ids, [(tag[a], tag[b]) for a, b in edges],
                        [[tag[v] for v in S] for S in cubes])
    _, tree_edges, _ = random_tree(rng, 6)
    names = rng.sample(STRANGE_IDS, 6)
    yield build_complex(names, [(names[a], names[b]) for a, b in tree_edges])
    yield build_complex([rng.choice(STRANGE_IDS)])


@pytest.mark.parametrize("seed", range(10))
def test_json_writer_matches_json_dumps(seed):
    dims = set()
    for C in _writer_cases(seed):
        dims.add(C.dimension)
        want = json.dumps(complex_to_dict(C), indent=2, sort_keys=True)
        assert complex_to_json(C) == want
        assert complex_to_dict(complex_from_dict(json.loads(want))) == complex_to_dict(C)
    assert {0, 1} <= dims and max(dims) >= 2


def test_the_writer_sorts_dimensions_as_strings():
    # json.dumps(sort_keys=True) puts "10" before "2"; so must the writer.
    # A 10-cube with its faces has tens of thousands of cells, so the
    # (empty) buckets are set by hand
    C = build_complex(["a"])
    C.cubes = {2: frozenset(), 10: frozenset()}
    assert complex_to_json(C) == json.dumps(complex_to_dict(C), indent=2,
                                            sort_keys=True)
    assert complex_to_json(C).index('"10"') < complex_to_json(C).index('"2"')


@pytest.mark.parametrize("data, message", [
    # str and dict cases arrive as JSON: test_cli.py pins them
    ({"vertices": b"ab", "edges": []}, "the vertex list is a bytes"),
    ({"vertices": ["a", "b"], "edges": [b"ab"]}, "an edge is a bytes"),
    ({"vertices": ["a", "b"], "edges": [], "cubes": {"2": [b"ab"]}},
     "a cube is a bytes"),
])
def test_complex_from_dict_refuses_strings_for_id_lists(data, message):
    with pytest.raises(ComplexError, match=f"^malformed complex description: "
                       f"{message}, not a list$"):
        complex_from_dict(data)


def test_complex_from_dict_takes_lists_and_tuples():
    C = unit_square()
    data = complex_to_dict(C)
    as_tuples = {"vertices": tuple(data["vertices"]),
                 "edges": tuple(map(tuple, data["edges"])),
                 "cubes": {n: tuple(map(tuple, b)) for n, b in data["cubes"].items()}}
    assert complex_to_dict(complex_from_dict(as_tuples)) == data


def test_dot_export_colors_every_edge():
    C = unit_square()
    dot = complex_to_dot(C)
    assert dot.startswith("digraph cubes {")
    assert dot.count("->") == 4
    assert dot.count("color=") == 4
    assert '"01" -> "00"' in dot


def test_dot_export_escapes_quotes_and_backslashes():
    C = build_complex(['a"b', "c", "d\\"], [('a"b', "c"), ("d\\", "c")])
    assert complex_to_dot(C).splitlines() == [
        "digraph cubes {",
        r'  "a\"b";',
        r'  "c";',
        r'  "d\\";',
        r'  "a\"b" -> "c" [color="#1b9e77"];',
        r'  "d\\" -> "c" [color="#d95f02"];',
        "}"]


def test_dot_export_refuses_ids_that_print_alike():
    # JSON keeps 1 and "1" apart; DOT would merge them into one node and
    # draw their edge as a self-loop
    C = build_complex([1, "1"], [(1, "1")])
    assert json.loads(complex_to_json(C))["vertices"] == [1, "1"]
    with pytest.raises(OutputError,
                       match="""^vertex ids 1 and '1' are both the DOT node "1"; """
                             "relabel before export$") as info:
        complex_to_dot(C)
    assert info.value.exit_code == 8
    assert complex_to_dot(build_complex([1, "2"], [(1, "2")])).splitlines()[1:3] \
        == ['  "1";', '  "2";']
