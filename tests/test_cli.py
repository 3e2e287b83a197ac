"""Command line interface: output formats, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from blowcube.cli import main
from blowcube.config import BOUNDS, RunConfig
from blowcube.dynamics import exc_count_sequence, mu, nu1
from blowcube.errors import DegreeCapExceeded, HeightCapExceeded
from blowcube.maps import builtin, inverse

# the reports of ``classify <name> -n 4`` that the benchmark also checks
EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected"
# the output of ``base-points <name>``: towers, charts and coordinates
TOWERS = Path(__file__).resolve().parent / "data" / "base_points"
# {"argv", "exit", "stdout", "stderr"} of ``python -m blowcube <argv>``
RECORDED = Path(__file__).resolve().parent / "data" / "cli"
PLANE_BUILTINS = ["hen2", "henon", "jonq1", "jonq2", "lox1", "sigma"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# report commands
# ---------------------------------------------------------------------------

def test_classify_reports_the_table_row(capsys):
    code, out, err = run(capsys, "classify", "sigma")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["map"] == "sigma"
    assert data["table_row"] == 1
    assert data["mu"] == 0
    assert data["degree_class"] == "bounded"


def test_classify_accepts_raw_map_specs(capsys):
    code, out, _err = run(capsys, "classify", "A2:(x*y, y)", "-n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["table_row"] == 2
    assert data["N"] == 4


def test_classify_all_builtins(capsys):
    code, out, _err = run(capsys, "classify", "--all-builtins", "-n", "3")
    assert code == 0
    data = json.loads(out)
    # every bundled plane map, keyed by name; the higher-dimensional
    # monomial example has no plane resolution and is left out
    assert sorted(data) == ["hen2", "henon", "jonq1", "jonq2", "lox1", "sigma"]
    rows = {name: rep["table_row"] for name, rep in data.items()}
    assert rows == {"sigma": 1, "jonq1": 2, "jonq2": 3,
                    "henon": 6, "hen2": 6, "lox1": 7}


def test_classify_all_builtins_with_a_map_is_a_usage_error(capsys):
    # the map used to be ignored: all six reports printed with exit 0
    with pytest.raises(SystemExit) as info:
        main(["classify", "--all-builtins", "henon"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: blowcube classify ")
    assert captured.err.endswith("blowcube classify: error: --all-builtins "
                                 "takes no map argument (got 'henon')\n")


@pytest.mark.parametrize("name", PLANE_BUILTINS)
def test_classify_bytes_match_the_recorded_reports(name, capsys):
    with open(EXPECTED / "classify" / f"{name}.json", newline="") as fh:
        want = fh.read()
    code, out, err = run(capsys, "classify", name, "-n", "4")
    assert (code, err) == (0, "")
    assert out == want


@pytest.mark.parametrize("name", PLANE_BUILTINS)
def test_base_points_bytes_match_the_recorded_towers(name, capsys):
    with open(TOWERS / f"{name}.json", newline="") as fh:
        want = fh.read()
    code, out, err = run(capsys, "base-points", name)
    assert (code, err) == (0, "")
    assert out == want


@pytest.mark.parametrize("path", sorted(RECORDED.glob("*.json")),
                         ids=lambda path: path.stem)
def test_command_bytes_match_the_recordings(path, capsys):
    with open(path) as fh:
        rec = json.load(fh)
    assert run(capsys, *rec["argv"]) == (rec["exit"], rec["stdout"], rec["stderr"])


def test_classify_reports_an_irrational_base_locus_as_a_cap(capsys):
    # y = 0 meets x^2 = 2*z^2 in a conjugate pair of base points
    code, out, err = run(capsys, "classify", "P2:[x*y : y*z : x^2 - 2*z^2]",
                         "-n", "4")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert "nu1: IrrationalBaseLocus" in data["caps_hit"]
    assert data["nu_forward"] is None and data["nu_backward"] is None


def test_classify_keeps_the_base_point_counts_found_before_a_cap(capsys):
    # henon's tower over [0 : 1 : 0] outgrows the height cap at n = 6; the
    # counts for n <= 5 were computed and are printed with the cap
    code, out, err = run(capsys, "classify", "henon", "-n", "6")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["caps_hit"] == ["mu: HeightCapExceeded"]
    assert data["mu"] is None
    assert data["base_point_counts"] == [3, 6, 9, 12, 15]
    with pytest.raises(HeightCapExceeded) as info:
        mu(builtin("henon"), 6)
    assert info.value.partial == (3, 6, 9, 12, 15)


def test_classify_keeps_the_contracted_curve_counts_found_before_a_cap(capsys):
    # lox1^6 and lox1^-6 outgrow the degree cap; the counts for n <= 5 were
    # computed and certified in both directions and are printed with the cap
    code, out, err = run(capsys, "classify", "lox1", "-n", "6")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert "nu1: DegreeCapExceeded" in data["caps_hit"]
    assert data["nu_forward"] is None and data["nu_backward"] is None
    counts = [3, 4, 5, 6, 7]
    assert data["exc_counts_forward"] == data["exc_counts_backward"] == counts
    lox1 = builtin("lox1")
    for f in (lox1, inverse(lox1)):
        assert exc_count_sequence(f, 5) == counts
        with pytest.raises(DegreeCapExceeded) as info:
            exc_count_sequence(f, 6)
        assert info.value.partial == tuple(counts)
    with pytest.raises(DegreeCapExceeded) as info:
        nu1(lox1, 6)
    assert info.value.partial == (tuple(counts), tuple(counts))


def test_mu_command(capsys):
    code, out, _err = run(capsys, "mu", "jonq1")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == 2
    assert data["base_point_counts"] == [3, 5, 7, 9, 11]


def test_mu_of_a_map_spec_solves_for_its_inverse(capsys):
    # a shear conjugate of henon, written out without its inverse
    code, out, err = run(capsys, "mu", "P2:[x*z + y^2 : -x*z - y^2 - y*z : -z^2]")
    assert code == 0 and err == ""
    _code, want, _err = run(capsys, "mu", "henon")
    assert out == want
    assert json.loads(out)["mu"] == 3


@pytest.mark.parametrize("argv", [["base-points"], ["classify", "-n", "2"]],
                         ids=["base-points", "classify"])
@pytest.mark.parametrize("name", PLANE_BUILTINS)
def test_a_spec_reports_like_its_builtin_under_a_low_degree_cap(name, argv, capsys):
    # the spec's inverse is solved here, the built-in's was solved before:
    # neither may depend on the run's degree cap
    spec = f"P2:{builtin(name)}"
    reports = []
    for arg in (name, spec):
        code, out, err = run(capsys, *argv, arg, "--degree-cap", "3")
        data = json.loads(out) if out else {}
        data.pop("map", None)
        reports.append((code, err, data))
    assert reports[0] == reports[1]
    assert reports[0][:2] == (0, "")


def test_nu_command(capsys):
    code, out, _err = run(capsys, "nu", "jonq2")
    assert code == 0
    data = json.loads(out)
    assert data["nu_forward"] == 1 and data["nu_backward"] == 1


def test_base_points_accounting(capsys):
    code, out, _err = run(capsys, "base-points", "lox1")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert data["accounting"] == {"multiplicity_sum": 6,
                                  "multiplicity_sum_expected": 6,
                                  "square_sum": 8,
                                  "square_sum_expected": 8}


def test_degseq_csv_and_json(capsys):
    code, out, _err = run(capsys, "degseq", "henon")
    assert code == 0
    assert out == "n,deg\n1,2\n2,4\n3,8\n4,16\n5,32\n"
    code, out, _err = run(capsys, "degseq", "henon", "--format", "json", "-n", "3")
    assert code == 0
    assert json.loads(out) == {"map": "henon", "degrees": [2, 4, 8]}


def test_ball_json_and_dot(capsys):
    code, out, _err = run(capsys, "ball", "sigma")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 15
    assert len(data["edges"]) == 24
    assert len(data["cubes"]["2"]) == 12
    assert len(data["cubes"]["3"]) == 2
    assert "id[]" in data["vertices"]
    code, out, _err = run(capsys, "ball", "sigma", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph cubes {")
    assert out.count("->") == 24


# ---------------------------------------------------------------------------
# determinism and files
# ---------------------------------------------------------------------------

def test_output_is_byte_identical_across_runs(capsys):
    outs = set()
    for _ in range(2):
        _code, out, _err = run(capsys, "classify", "jonq2")
        outs.add(out)
    assert len(outs) == 1
    assert outs.pop().endswith("\n")


def test_output_flag_writes_the_same_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _err = run(capsys, "nu", "henon", "-o", str(target))
    assert code == 0 and out == ""
    _code, stdout, _err = run(capsys, "nu", "henon")
    assert target.read_text() == stdout


def test_ball_roundtrips_through_check_cat0(tmp_path, capsys):
    target = tmp_path / "ball.json"
    code, _out, _err = run(capsys, "ball", "sigma", "-o", str(target))
    assert code == 0
    code, out, _err = run(capsys, "check-cat0", str(target))
    assert code == 0
    assert json.loads(out)["flag"] is True


def test_check_cat0_rejects_an_empty_corner(tmp_path, capsys):
    axes = ("100", "010", "001")
    corners = {"100": "110", "010": "011", "001": "101"}  # opposite per square
    vertices = ["000"] + list(axes) + sorted(corners.values())
    edges, squares = [], []
    for i, a in enumerate(axes):
        edges.append([a, "000"])
        for b in axes[i + 1:]:
            far = format(int(a, 2) | int(b, 2), "03b")
            edges += [[far, a], [far, b]]
            squares.append(sorted(["000", a, b, far]))
    payload = {"vertices": vertices, "edges": sorted(edges),
               "cubes": {"2": sorted(squares)}}
    target = tmp_path / "corner.json"
    target.write_text(json.dumps(payload))
    code, out, _err = run(capsys, "check-cat0", str(target))
    assert code == 1
    report = json.loads(out)
    assert report["flag"] is False
    assert report["witness_vertex"] == "000"


def test_check_bound_verdict(capsys):
    code, out, _err = run(capsys, "check-bound", "jonq2", "-n", "6")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True and data["vacuous"] is False


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_environment_overrides_and_flag_precedence(monkeypatch, capsys):
    monkeypatch.setenv("BLOWCUBE_ITERS", "3")
    _code, out, _err = run(capsys, "degseq", "henon", "--format", "json")
    assert json.loads(out)["degrees"] == [2, 4, 8]
    _code, out, _err = run(capsys, "degseq", "henon", "--format", "json", "-n", "2")
    assert json.loads(out)["degrees"] == [2, 4]


def test_check_bound_horizon_comes_from_flag_then_environment(monkeypatch, capsys):
    _code, out, _err = run(capsys, "check-bound", "jonq2")
    assert len(json.loads(out)["rows"]) == 8
    monkeypatch.setenv("BLOWCUBE_ITERS", "3")
    _code, out, _err = run(capsys, "check-bound", "jonq2")
    assert [r["n"] for r in json.loads(out)["rows"]] == [1, 2, 3]
    _code, out, _err = run(capsys, "check-bound", "jonq2", "-n", "2")
    assert [r["n"] for r in json.loads(out)["rows"]] == [1, 2]


def test_degree_cap_flag_is_honored(capsys):
    code, _out, err = run(capsys, "degseq", "lox1", "-n", "6", "--degree-cap", "50")
    assert code == 4
    assert "cap" in err


def test_degree_cap_exits_4_standalone_but_is_undecided_in_classify(capsys):
    # the cap is checked on deg f * deg g before the composite is reduced,
    # so sigma^2 = id is refused at cap 3; classify reports the refusal
    for command in ("mu", "nu"):
        code, out, err = run(capsys, command, "-n", "2", "sigma",
                             "--degree-cap", "3")
        assert (code, out) == (4, "")
        assert "composition degree bound 4 exceeds cap 3" in err
    code, out, _err = run(capsys, "classify", "-n", "2", "sigma",
                          "--degree-cap", "3")
    assert code == 0
    data = json.loads(out)
    assert "degree cap at iterate 2" in data["caps_hit"]
    assert data["mu"] is None and data["degree_class"] == "undecided"


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------

def test_parse_failures_exit_3(capsys):
    code, _out, err = run(capsys, "classify", "P2:[x : y]")
    assert code == 3 and "coordinates" in err
    code, _out, _err = run(capsys, "mu", "A2:(x +, y)")
    assert code == 3


@pytest.mark.parametrize("spec, code, message", [
    ("MON:2:[[1,a],[0,1]]", 3, "matrix entry 'a' is not an integer "
     "(at position 10: 'N:2:[[1,a],[0,1]')"),
    ("MON:2:[[1,0],[0,1.5]]", 3, "matrix entry '1.5' is not an integer "
     "(at position 16: '1,0],[0,1.5]]')"),
    ("MON:2:[[1,0],0,1]]", 3,
     "unbalanced brackets (at position 16: '1,0],0,1]]')"),
    ("MON:2:[[1,0],[0,1]", 3,
     "matrix row '[0,1' must be bracketed (at position 13: ':[[1,0],[0,1]')"),
    ("MON:2:[[70000,1],[0,1]]", 4,
     "monomial map needs exponent 70001, above the limit 65535"),
    ("A2:(x, y +* 1)", 3,
     "unexpected token '*' (at position 10: ':(x, y +* 1)')"),
    ("A2:(x, q)", 3, "unknown variable 'q' (at position 7: 'A2:(x, q)')"),
    ("P2:[y*z : x*z : x*y/(x-1)]", 3,
     "expression is not a polynomial (nonconstant denominator) "
     "(at position 16: ': x*z : x*y/(x-1')"),
], ids=["letter", "fraction", "unbalanced", "open-row", "huge-exponent",
        "a2-token", "a2-variable", "p2-denominator"])
def test_malformed_monomial_specs_exit_3_or_4(capsys, spec, code, message):
    got, out, err = run(capsys, "degseq", spec, "-n", "2")
    assert (got, out) == (code, "")
    assert err.startswith(f"blowcube: error: {message}")


@pytest.mark.parametrize("argv, code, message", [
    (["A2:(x^40000*x^40000, y)", "-n", "1"], 3,
     "product needs exponent 80000, above the limit 65535 "
     "(at position 11: '(x^40000*x^40000')"),
    (["A2:(x^40000 + 1/x^40000, y)", "-n", "1"], 3,
     "product needs exponent 80000, above the limit 65535 "
     "(at position 12: 'x^40000 + 1/x^40')"),
    (["A2:((x^300)^300, y)", "-n", "1"], 3,
     "power needs exponent 90000, above the limit 65535 "
     "(at position 11: '((x^300)^300, y)')"),
    (["A2:(x^40000, 1/x^40000)", "-n", "1"], 4,
     "homogenizing needs exponent 80000, above the limit 65535"),
    (["A2:((x*y)^40000, y)", "-n", "1"], 4,
     "homogenizing needs exponent 80000, above the limit 65535"),
    (["P2:[x^300 : y^300 : z^300]", "-n", "2", "--degree-cap", "100000"], 4,
     "composition degree bound 90000 exceeds the exponent limit 65535"),
], ids=["product", "sum", "power", "a2-chart", "a2-padding", "composite"])
def test_exponents_beyond_the_packing_exit_3_or_4(capsys, argv, code, message):
    got, out, err = run(capsys, "degseq", *argv)
    assert (got, out) == (code, "")
    assert err == f"blowcube: error: {message}\n"


@pytest.mark.parametrize("spec, degree", [
    # a variable's exponent, not the total degree, meets the limit; the
    # expanded spec x^40000*y^40000 : ... gives these bytes too
    ("P2:[(x*y)^40000 : (x*z)^40000 : (y*z)^40000]", 80000),
    ("A2:(x^30000*x^30000, y)", 60000),
], ids=["p2-power", "a2-product"])
def test_exponents_within_the_packing_are_kept(spec, degree, capsys):
    assert run(capsys, "degseq", spec, "-n", "1") == (0, f"n,deg\n1,{degree}\n", "")


def _nested(depth, opening="(", closing=")"):
    return opening * depth + "x" + closing * depth


@pytest.mark.parametrize("spec, message", [
    (f"A2:({_nested(200)}, y)", "expression nested more than 150 deep "
     "(at position 154: '((((((((((((((((')"),
    (f"A2:({'-' * 1000}x, y)", "expression nested more than 150 deep "
     "(at position 154: '----------------')"),
    (f"P2:[{_nested(100, '-(')} : y : z]", "expression nested more than 150 deep "
     "(at position 154: '-(-(-(-(-(-(-(-(')"),
], ids=["parentheses", "minus-signs", "p2-mixed"])
def test_specs_nested_past_the_limit_exit_3(capsys, spec, message):
    # each of these used to end in a RecursionError traceback with exit 1
    assert run(capsys, "degseq", spec, "-n", "1") == (
        3, "", f"blowcube: error: {message}\n")


@pytest.mark.parametrize("spec, degree", [
    (f"A2:({_nested(150)}, y)", 1), (f"A2:({'-' * 150}x, y)", 1),
    (f"P2:[{_nested(75, '-(')} : y : z]", 1),
    (f"A2:(x*{_nested(150, '(x*')}, y)", 152),
], ids=["parentheses", "minus-signs", "p2-mixed", "products"])
def test_specs_nested_to_the_limit_parse(capsys, spec, degree):
    assert run(capsys, "degseq", spec, "-n", "1") == (0, f"n,deg\n1,{degree}\n", "")


def test_map_failures_exit_4(capsys):
    code, _out, err = run(capsys, "classify", "MON:2:[[1,1],[1,1]]")
    assert code == 4 and "singular" in err
    code, _out, err = run(capsys, "mu", "P2:[x^2 : y^2 : z^2]")
    assert code == 4 and "inverse" in err


def test_check_bound_refuses_a_linear_map_with_no_inverse(capsys):
    # the degree-1 shortcut once reported such a map as holding (exit 0)
    assert run(capsys, "check-bound", "A2:(x, x)") == (
        4, "", "blowcube: error: no inverse strategy applies to [x : x : z] "
        "(tried: plane nullspace)\n")


def test_resolution_failures_exit_5(capsys):
    code, _out, err = run(capsys, "mu", "mon3")
    assert code == 5 and "plane" in err
    code, _out, _err = run(capsys,
                           "base-points",
                           "P2:[x*z^2 : y*(y^2 - 2*z^2) : z*(y^2 - 2*z^2)]")
    assert code == 5


def test_ball_over_infinitely_near_base_points_exits_5(capsys):
    # the transitions of a ball of radius 2 or more meet infinitely near
    # marked points, which evaluation cannot transport
    code, out, err = run(capsys, "ball", "henon", "--radius", "2")
    assert (code, out) == (5, "")
    assert err == ("blowcube: error: cannot match infinitely near marked "
                   "points through [x : y : z]; present the vertices over "
                   "a common model\n")


def test_complex_failures_exit_6(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a"], "edges": [["a", "b"]]}))
    code, _out, err = run(capsys, "check-cat0", str(bad))
    assert code == 6 and "edge" in err
    # an edge recorded twice in the same orientation is refused too
    bad.write_text(json.dumps({"vertices": ["a", "b"],
                               "edges": [["a", "b"], ["a", "b"]]}))
    code, out, err = run(capsys, "check-cat0", str(bad))
    assert (code, out) == (6, "")
    assert err == ("blowcube: error: edge {'a', 'b'} recorded twice "
                   "(or with both orientations)\n")


@pytest.mark.parametrize("data, message", [
    ({"vertices": ["a"], "edges": [], "cubes": []},
     "the cube table is a list, not an object"),
    ({"vertices": ["a"], "edges": [], "cubes": None},
     "the cube table is a NoneType, not an object"),
    (None, "the description is a NoneType, not an object"),
    (3, "the description is an int, not an object"),
    ("abc", "the description is a str, not an object"),
    ([1, 2], "the description is a list, not an object"),
    ({"edges": []}, "the key 'vertices' is missing"),
    ({"vertices": ["a"]}, "the key 'edges' is missing"),
    ({"vertices": [[0], 1], "edges": []}, "unhashable type: 'list'"),
    ({"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]},
     "edge ['a', 'b', 'c'] does not join two vertex ids"),
    ({"vertices": "abcd", "edges": ["ab", "cd", "ac", "bd"], "cubes": {"2": ["abcd"]}},
     "the vertex list is a str, not a list"),
    ({"vertices": {"a": 0, "b": 1}, "edges": []},
     "the vertex list is a dict, not a list"),
    ({"vertices": ["a", "b"], "edges": {"a": "b"}},
     "the edge list is a dict, not a list"),
    ({"vertices": list("abcd"), "edges": ["ab", "cd", "ac", "bd"]},
     "an edge is a str, not a list"),
    ({"vertices": list("abcd"), "edges": [list(e) for e in ("ab", "cd", "ac", "bd")],
      "cubes": {"2": "abcd"}}, "cube bucket '2' is a str, not a list"),
    ({"vertices": list("abcd"), "edges": [list(e) for e in ("ab", "cd", "ac", "bd")],
      "cubes": {"2": ["abcd"]}}, "a cube is a str, not a list"),
    ({"vertices": list("abcd"), "edges": [list(e) for e in ("ab", "cd", "ac", "bd")],
      "cubes": {"2": [{"a": 1, "b": 2, "c": 3, "d": 4}]}},
     "a cube is a dict, not a list"),
    ({"vertices": 3, "edges": []}, "the vertex list is an int, not a list"),
    ({"vertices": None, "edges": []}, "the vertex list is a NoneType, not a list"),
    ({"vertices": ["a", "b"], "edges": [["a", "b"], 3]}, "an edge is an int, not a list"),
    ({"vertices": list("abcd"), "edges": [list(e) for e in ("ab", "cd", "ac", "bd")],
      "cubes": {"2": [None]}}, "a cube is a NoneType, not a list"),
], ids=["cubes-list", "cubes-null", "top-null", "top-number", "top-string",
        "top-list", "no-vertices", "no-edges", "unhashable-id", "three-id-edge",
        "string-vertices", "mapping-vertices", "mapping-edges", "string-edge",
        "string-bucket", "string-cube", "mapping-cube", "vertices-number",
        "vertices-null", "edge-number", "cube-null"])
def test_malformed_complex_files_exit_6(tmp_path, capsys, data, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "check-cat0", str(bad))
    assert (code, out) == (6, "")
    assert err == f"blowcube: error: malformed complex description: {message}\n"


SQUARE_FILE = {"vertices": [0, 1, 2, 3], "edges": [[1, 0], [2, 0], [3, 1], [3, 2]],
               "cubes": {"2": [[0, 1, 2, 3]]}}


@pytest.mark.parametrize("change, message", [
    ({"vertices": [0, 1, 2, 3, 0]}, "vertex 0 recorded twice (or under an equal id)"),
    ({"vertices": [0, 1, 2, 3, True]},
     "vertex True recorded twice (or under an equal id)"),
    ({"cubes": {"2": [[0, 1, 2, 3, 3]]}}, "cube record [0, 1, 2, 3, 3] repeats a vertex"),
    ({"cubes": {"7": [[0, 1, 2, 3]]}}, "malformed complex description: "
     "cube bucket '7' holds the 2-cube record [0, 1, 2, 3]"),
    ({"cubes": {"abc": [[0, 1, 2, 3]]}}, "malformed complex description: "
     "cube bucket 'abc' holds the 2-cube record [0, 1, 2, 3]"),
], ids=["repeated-vertex", "true-is-one", "repeated-corner", "bucket-7",
        "bucket-abc"])
def test_repeated_ids_and_misfiled_cubes_exit_6(tmp_path, capsys, change, message):
    # each of these used to be read as the square and pass with exit 0
    good = tmp_path / "good.json"
    good.write_text(json.dumps(SQUARE_FILE))
    assert run(capsys, "check-cat0", str(good))[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SQUARE_FILE, **change}))
    assert run(capsys, "check-cat0", str(bad)) == (6, "", f"blowcube: error: {message}\n")


def test_io_failures_exit_8(tmp_path, capsys):
    code, _out, _err = run(capsys, "check-cat0", str(tmp_path / "missing.json"))
    assert code == 8
    code, _out, _err = run(capsys, "classify", "sigma", "-o",
                           str(tmp_path / "no" / "such" / "dir.json"))
    assert code == 8


def test_not_json_exits_3(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _out, _err = run(capsys, "check-cat0", str(garbled))
    assert code == 3


def test_deeply_nested_json_exits_3(tmp_path, capsys):
    # json.loads raises RecursionError here, which used to escape as a
    # traceback with exit 1
    deep = tmp_path / "deep.json"
    deep.write_text('{"vertices": ' + "[" * 100000 + "]" * 100000 + ', "edges": []}')
    assert run(capsys, "check-cat0", str(deep)) == (
        3, "", f"blowcube: error: {deep} nests its JSON too deeply to read\n")


def test_a_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"vertices": ["\u00e9"]}'.encode("latin-1"))
    assert run(capsys, "check-cat0", str(latin1)) == (
        3, "", f"blowcube: error: {latin1} is not valid JSON: 'utf-8' codec "
        "can't decode byte 0xe9 in position 15: invalid continuation byte\n")


def test_malformed_environment_value_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("BLOWCUBE_ITERS", "abc")
    code, out, err = run(capsys, "check-bound", "henon")
    assert code == 3 and out == ""
    assert "BLOWCUBE_ITERS" in err


HORIZON_COMMANDS = [["classify", "henon"], ["mu", "henon"], ["nu", "henon"],
                    ["base-points", "henon"], ["degseq", "henon"],
                    ["ball", "sigma"], ["check-cat0", "missing.json"],
                    ["check-bound", "henon"]]


@pytest.mark.parametrize("argv", HORIZON_COMMANDS, ids=lambda a: a[0])
def test_horizon_below_one_is_a_usage_error(argv, capsys):
    for n in ("0", "-2"):
        with pytest.raises(SystemExit) as info:
            main([*argv, "-n", n])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1" in captured.err


def test_radius_below_zero_is_a_usage_error(capsys):
    for r in ("-1", "-3"):
        with pytest.raises(SystemExit) as info:
            main(["ball", "sigma", "--radius", r])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 0" in captured.err


def test_environment_radius_below_zero_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("BLOWCUBE_RADIUS", "-1")
    code, out, err = run(capsys, "ball", "sigma")
    assert code == 3 and out == ""
    assert "BLOWCUBE_RADIUS" in err and "at least 0" in err


@pytest.mark.parametrize("flag,value,bound", [("--height-cap", "-1", "at least 0"),
                                              ("--degree-cap", "0", "at least 1")])
def test_cap_below_its_bound_is_a_usage_error(flag, value, bound, capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "henon", "-n", "2", flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{flag}: must be {bound}" in captured.err


@pytest.mark.parametrize("name,value,bound", [("BLOWCUBE_HEIGHT_CAP", "-1", "at least 0"),
                                              ("BLOWCUBE_DEGREE_CAP", "0", "at least 1")])
def test_environment_cap_below_its_bound_exits_3(name, value, bound, monkeypatch,
                                                 capsys):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "base-points", "sigma")
    assert code == 3 and out == ""
    assert name in err and bound in err


def test_height_cap_zero_holds_proper_base_points_only(capsys):
    code, out, _err = run(capsys, "base-points", "sigma", "--height-cap", "0")
    assert code == 0
    assert out == (TOWERS / "sigma.json").read_text()
    code, out, err = run(capsys, "base-points", "henon", "--height-cap", "0")
    assert code == 5 and out == ""
    assert "exceeds height cap 0" in err


def test_radius_zero_holds_the_center_and_the_marking(capsys):
    code, out, _err = run(capsys, "ball", "sigma", "--radius", "0")
    assert code == 0
    assert json.loads(out)["vertices"] == ["id[]", "sigma[]"]


@pytest.mark.parametrize("argv", HORIZON_COMMANDS, ids=lambda a: a[0])
def test_environment_horizon_below_one_exits_3(argv, monkeypatch, capsys):
    monkeypatch.setenv("BLOWCUBE_ITERS", "0")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "BLOWCUBE_ITERS" in err and "at least 1" in err


def test_usage_errors_exit_2(capsys):
    # a usage error of a subcommand is printed under that subcommand's usage
    for argv in (["degseq"],  # missing the map argument
                 ["classify", "henon", "--format", "dot"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: blowcube {argv[0]} ")
        assert f"blowcube {argv[0]}: error: " in err
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


@pytest.mark.parametrize("name,bound", sorted(BOUNDS.items()))
def test_each_setting_is_refused_below_its_bound_everywhere(name, bound,
                                                           monkeypatch, capsys):
    low = bound - 1
    with pytest.raises(ValueError, match=f"{name} must be at least {bound}"):
        RunConfig(**{name: low})
    argv = ["ball", "sigma"] if name == "radius" else ["base-points", "sigma"]
    flag = "--" + name.replace("_", "-")
    with pytest.raises(SystemExit) as info:
        main([*argv, flag, str(low)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: blowcube {argv[0]} ")
    assert f"{flag}: must be at least {bound}, got {low}" in err
    with pytest.raises(SystemExit):
        main([*argv, flag, "abc"])
    assert f"{flag}: invalid int value: 'abc'" in capsys.readouterr().err
    monkeypatch.setenv(f"BLOWCUBE_{name.upper()}", str(low))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert f"BLOWCUBE_{name.upper()} must be at least {bound}, got {low}" in err


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "blowcube", "degseq", "sigma",
                          "-n", "2"], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout == "n,deg\n1,2\n2,1\n"


def test_classify_does_not_depend_on_cache_state_or_optimization():
    # each plane map alone in a fresh interpreter under -O must give the
    # report that one warm process gives after classifying the others; the
    # seven interpreters run side by side
    cmd = ["-m", "blowcube", "classify"]

    def start(*argv):
        return subprocess.Popen([sys.executable, *argv], text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    warm = start(*cmd, "--all-builtins", "-n", "3")
    cold = {name: start("-O", *cmd, name, "-n", "3") for name in PLANE_BUILTINS}
    try:
        out, err = warm.communicate()
        assert warm.returncode == 0, err
        reports = json.loads(out)
        assert sorted(reports) == PLANE_BUILTINS
        for name, proc in cold.items():
            out, err = proc.communicate()
            assert proc.returncode == 0, err
            assert json.loads(out) == reports[name], name
    finally:
        for proc in [warm, *cold.values()]:
            proc.kill()
            proc.communicate()
