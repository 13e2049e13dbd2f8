"""JSON wire formats for every value the CLI reads or writes.

Scalars travel as strings "p/q" (or "p" for integers) so nothing is ever
rounded.  Geometry is rebuilt through the validating constructors on load,
which keeps canonical-form invariants true for data from any source.
"""

from __future__ import annotations

import json

from .cones import Cone, CoconvexBody, make_cone, make_coconvex
from .errors import CoconvexError, DimensionMismatch
from .forms import (
    CoconvexFamily,
    ConvexFamily,
    make_coconvex_family,
    make_convex_family,
)
from .polynomial import HomogeneousPolynomial, Signature
from .polytope import Polyhedron, convex_hull
from .rational import Rat, rat, rat_str


def _field(obj, key, what):
    if not isinstance(obj, dict):
        raise CoconvexError(f"{what} must be a JSON object")
    if key not in obj:
        raise CoconvexError(f"{what} needs a {key!r} field")
    return obj[key]


def _known_fields(obj, fields, what):
    """Refuse any field of obj outside `fields`.  Loaders call this after
    reading their required fields, so a misspelled optional field is an
    error rather than a silent default."""
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise CoconvexError(f"unknown {what} field(s): {', '.join(map(repr, unknown))}")


def _int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise CoconvexError(f"{what} must be a JSON integer")
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise CoconvexError(f"{what} must be a JSON list")
    return value


def _int_field(obj, key, what):
    return _int(_field(obj, key, what), f"{what} field {key!r}")


def _list_field(obj, key, what, default=None):
    """obj[key] as a JSON list; a field with a default may be left out."""
    if default is not None and isinstance(obj, dict) and key not in obj:
        return default
    return _list(_field(obj, key, what), f"{what} field {key!r}")


def rational_to_json(x) -> str:
    return rat_str(Rat(x))


def vector_to_json(v):
    return [rational_to_json(x) for x in v]


def vector_from_json(v):
    return tuple(rat(x) for x in _list(v, "a vector"))


def polyhedron_to_json(P: Polyhedron) -> dict:
    return {
        "dim": P.dim,
        "vertices": [vector_to_json(v) for v in P.vertices],
        "rays": [list(r) for r in P.rays],
    }


def polyhedron_from_json(obj: dict) -> Polyhedron:
    dim = _int_field(obj, "dim", "polyhedron")
    if dim < 1:
        raise DimensionMismatch("polyhedron field 'dim' must be at least 1")
    _known_fields(obj, ("dim", "vertices", "rays"), "polyhedron")
    vertices = [vector_from_json(v) for v in _list_field(obj, "vertices", "polyhedron", [])]
    rays = [vector_from_json(r) for r in _list_field(obj, "rays", "polyhedron", [])]
    if any(len(v) != dim for v in vertices):
        raise DimensionMismatch(f"a polyhedron vertex does not have dim = {dim} coordinates")
    if not vertices:
        if rays:
            raise CoconvexError("rays without vertices do not describe a polyhedron")
        return Polyhedron.empty(dim)
    return convex_hull(vertices, rays=rays)


def cone_to_json(c: Cone) -> dict:
    return {"rays": [list(r) for r in c.rays], "xi": list(c.xi)}


def cone_from_json(obj: dict) -> Cone:
    rays = _list_field(obj, "rays", "cone")
    # the stored xi is advisory; the constructor recomputes the canonical one
    _known_fields(obj, ("rays", "xi"), "cone")
    return make_cone([vector_from_json(r) for r in rays])


def coconvex_to_json(b: CoconvexBody) -> dict:
    return {"cone": cone_to_json(b.cone), "complement": polyhedron_to_json(b.complement)}


def coconvex_from_json(obj: dict) -> CoconvexBody:
    cone = cone_from_json(_field(obj, "cone", "coconvex body"))
    complement = _field(obj, "complement", "coconvex body")
    _known_fields(obj, ("cone", "complement"), "coconvex body")
    return make_coconvex(cone, polyhedron_from_json(complement))


def _marked_from_json(obj, what):
    """A family's marked vectors, or None when the file leaves them out."""
    if "marked" not in obj:
        return None
    return [vector_from_json(v) for v in _list_field(obj, "marked", what)]


def convex_family_to_json(f: ConvexFamily) -> dict:
    return {
        "dim": f.dim,
        "generators": [polyhedron_to_json(g) for g in f.generators],
        "marked": [vector_to_json(v) for v in f.marked],
    }


def convex_family_from_json(obj: dict) -> ConvexFamily:
    gens = _list_field(obj, "generators", "convex family")
    _known_fields(obj, ("dim", "generators", "marked"), "convex family")
    gens = [polyhedron_from_json(g) for g in gens]
    if "dim" in obj:
        dim = _int_field(obj, "dim", "convex family")
        if any(P.dim != dim for P in gens):
            raise DimensionMismatch(f"a convex family generator does not have dim = {dim}")
    return make_convex_family(gens, _marked_from_json(obj, "convex family"))


def coconvex_family_to_json(f: CoconvexFamily) -> dict:
    return {
        "cone": cone_to_json(f.cone),
        "generators": [polyhedron_to_json(g.complement) for g in f.generators],
        "marked": [vector_to_json(v) for v in f.marked],
    }


def coconvex_family_from_json(obj: dict) -> CoconvexFamily:
    cone = cone_from_json(_field(obj, "cone", "coconvex family"))
    gens = _list_field(obj, "generators", "coconvex family")
    _known_fields(obj, ("cone", "generators", "marked"), "coconvex family")
    gens = [make_coconvex(cone, polyhedron_from_json(g)) for g in gens]
    return make_coconvex_family(gens, _marked_from_json(obj, "coconvex family"))


def polynomial_to_json(P: HomogeneousPolynomial) -> dict:
    return {
        "nvars": P.nvars,
        "degree": P.degree,
        "terms": [
            {"exp": list(exps), "coeff": rational_to_json(c)}
            for exps, c in sorted(P.coeffs.items(), reverse=True)
        ],
    }


def polynomial_from_json(obj: dict) -> HomogeneousPolynomial:
    terms = _list_field(obj, "terms", "polynomial")
    nvars = _int_field(obj, "nvars", "polynomial")
    degree = _int_field(obj, "degree", "polynomial")
    _known_fields(obj, ("nvars", "degree", "terms"), "polynomial")
    coeffs = {}
    for t in terms:
        exps = _list_field(t, "exp", "polynomial term")
        coeff = _field(t, "coeff", "polynomial term")
        _known_fields(t, ("exp", "coeff"), "polynomial term")
        coeffs[tuple(_int(e, "an exponent") for e in exps)] = rat(coeff)
    return HomogeneousPolynomial(nvars, degree, coeffs)


def form_to_json(matrix) -> dict:
    return {"n": len(matrix), "rows": [[rational_to_json(x) for x in row] for row in matrix]}


def form_from_json(obj: dict):
    n = _int_field(obj, "n", "matrix")
    rows = _list_field(obj, "rows", "matrix")
    _known_fields(obj, ("n", "rows"), "matrix")
    rows = tuple(vector_from_json(row) for row in rows)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise CoconvexError("matrix rows do not match the declared size")
    return rows


def signature_to_json(s: Signature) -> dict:
    return {"pos": s.pos, "neg": s.neg, "zero": s.zero}


def dump_json(obj) -> str:
    """Deterministic rendering: sorted keys, fixed indentation."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def read_json_file(path: str) -> dict:
    """A JSON file's top-level object; every format read here is one."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise CoconvexError(f"{path}: expected a JSON object at the top level")
    return obj
