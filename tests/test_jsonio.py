import json

import pytest

from coconvex.cones import make_coconvex
from coconvex.errors import CoconvexError
from coconvex.forms import make_coconvex_family, make_convex_family
from coconvex.jsonio import (
    coconvex_family_from_json,
    coconvex_family_to_json,
    coconvex_from_json,
    coconvex_to_json,
    cone_from_json,
    cone_to_json,
    convex_family_from_json,
    convex_family_to_json,
    dump_json,
    form_from_json,
    form_to_json,
    polyhedron_from_json,
    polyhedron_to_json,
    polynomial_to_json,
    rational_to_json,
    read_json_file,
    signature_to_json,
)
from coconvex.polynomial import HomogeneousPolynomial, Signature
from coconvex.polytope import Polyhedron, convex_hull
from coconvex.rational import Rat


def test_rational_strings():
    assert rational_to_json(Rat(3, 2)) == "3/2"
    assert rational_to_json(Rat(-4, 2)) == "-2"


def test_polyhedron_round_trip(unit_square):
    assert polyhedron_from_json(polyhedron_to_json(unit_square)) == unit_square
    fancy = convex_hull([(Rat(1, 3), Rat(-2, 7)), (1, 0), (0, 1)])
    assert polyhedron_from_json(polyhedron_to_json(fancy)) == fancy


def test_polyhedron_round_trip_unbounded():
    P = convex_hull([(1, 0), (0, 1)], rays=[(1, 0), (0, 1)])
    assert polyhedron_from_json(polyhedron_to_json(P)) == P


def test_polyhedron_empty_and_invalid():
    E = Polyhedron.empty(3)
    assert polyhedron_from_json(polyhedron_to_json(E)) == E
    with pytest.raises(CoconvexError):
        polyhedron_from_json({"dim": 2, "vertices": [], "rays": [[1, 0]]})
    with pytest.raises(CoconvexError):
        polyhedron_from_json({"vertices": []})


def test_polyhedron_rejects_unknown_fields(unit_square, quadrant):
    # a convex-family file has a 'dim' too; read as a body, it used to load
    # as the empty polyhedron and report volume 0
    fam = convex_family_to_json(make_convex_family([unit_square]))
    message = r"unknown polyhedron field\(s\): 'generators', 'marked'$"
    with pytest.raises(CoconvexError, match=message):
        polyhedron_from_json(fam)
    # the 'dim' check runs first, so a cone file keeps its message
    with pytest.raises(CoconvexError, match="needs a 'dim' field"):
        polyhedron_from_json(cone_to_json(quadrant))


_SIMPLEX = {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}
_QUADRANT = {"rays": [[1, 0], [0, 1]], "xi": [1, 1]}
_CORNER = {"dim": 2, "vertices": [[1, 0], [0, 1]], "rays": [[0, 1], [1, 0]]}


@pytest.mark.parametrize(
    "load, obj, message",
    [
        (cone_from_json, {**_QUADRANT, "apex": [0, 0]}, r"unknown cone field\(s\): 'apex'$"),
        (coconvex_from_json, {"cone": _QUADRANT, "complement": _CORNER, "t": "2"},
         r"unknown coconvex body field\(s\): 't'$"),
        (convex_family_from_json, {"dim": 3, "generators": [_SIMPLEX], "marekd": [["2"]]},
         r"unknown convex family field\(s\): 'marekd'$"),
        (convex_family_from_json, {"dim": 7, "generators": [_SIMPLEX]},
         r"generator does not have dim = 7$"),
        (coconvex_family_from_json, {"cone": _QUADRANT, "generators": [_CORNER], "dim": 2},
         r"unknown coconvex family field\(s\): 'dim'$"),
        (form_from_json, {"n": 1, "rows": [["1"]], "symmetric": True},
         r"unknown matrix field\(s\): 'symmetric'$"),
    ],
    ids=["cone", "coconvex_body", "convex_family", "convex_family_dim", "coconvex_family",
         "form"],
)
def test_loaders_reject_unknown_fields(load, obj, message):
    # Each object is valid once the offending field is dropped (or, for the
    # family, 'dim' set to 3), so the error is the field check's.
    with pytest.raises(CoconvexError, match=message):
        load(obj)


def test_loaded_polyhedron_is_canonicalized():
    # interior points in the serialized form must not survive the load
    obj = {"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["0", "2"], ["1", "1"]], "rays": []}
    P = polyhedron_from_json(obj)
    assert len(P.vertices) == 3


def test_cone_round_trip(quadrant):
    assert cone_from_json(cone_to_json(quadrant)) == quadrant
    # the stored functional is advisory; a doctored one is recomputed
    doctored = dict(cone_to_json(quadrant), xi=[17, -5])
    assert cone_from_json(doctored) == quadrant
    with pytest.raises(CoconvexError):
        cone_from_json({"xi": [1, 1]})


def test_coconvex_round_trip(corner_triangle):
    assert coconvex_from_json(coconvex_to_json(corner_triangle)) == corner_triangle


def test_convex_family_round_trip(unit_square):
    fam = make_convex_family([unit_square, unit_square.scale(3)])
    assert convex_family_from_json(convex_family_to_json(fam)) == fam


def test_coconvex_family_round_trip(corner_triangle):
    double = make_coconvex(corner_triangle.cone, corner_triangle.complement.scale(2))
    fam = make_coconvex_family([corner_triangle, double])
    assert coconvex_family_from_json(coconvex_family_to_json(fam)) == fam


def test_family_json_carries_marked_vectors():
    cube = convex_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    fam = make_convex_family([cube, cube.scale(2)], [(2, 3)])
    obj = convex_family_to_json(fam)
    assert obj["marked"] == [["2", "3"]]
    assert convex_family_from_json(obj) == fam


def test_polynomial_round_trip():
    P = HomogeneousPolynomial(2, 3, {(3, 0): Rat(1, 6), (1, 2): -2})
    assert polynomial_to_json(P) == {
        "nvars": 2,
        "degree": 3,
        "terms": [{"exp": [3, 0], "coeff": "1/6"}, {"exp": [1, 2], "coeff": "-2"}],
    }


def test_form_round_trip():
    M = ((Rat(1, 2), 1), (1, 2))
    back = form_from_json(form_to_json(M))
    assert back == ((Rat(1, 2), Rat(1)), (Rat(1), Rat(2)))
    with pytest.raises(CoconvexError):
        form_from_json({"n": 2, "rows": [["1"]]})


def test_signature_payload():
    assert signature_to_json(Signature(1, 0, 2)) == {"pos": 1, "neg": 0, "zero": 2}


def test_dump_json_is_deterministic():
    text = dump_json({"b": 1, "a": 2})
    assert text == '{\n  "a": 2,\n  "b": 1\n}\n'
    assert json.loads(text) == {"a": 2, "b": 1}


def test_file_round_trip(tmp_path, quadrant):
    path = tmp_path / "cone.json"
    path.write_text(dump_json(cone_to_json(quadrant)), encoding="utf-8")
    assert cone_from_json(read_json_file(str(path))) == quadrant


def test_missing_fields_raise_coconvex_errors():
    with pytest.raises(CoconvexError):
        convex_family_from_json({"dim": 2})
    with pytest.raises(CoconvexError):
        coconvex_family_from_json({"generators": []})
    with pytest.raises(CoconvexError):
        form_from_json({"rows": []})
