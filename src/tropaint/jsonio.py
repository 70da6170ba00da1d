"""Exact JSON serialization for configurations, subdivisions, and lattices.

Rationals travel as strings like "5/7" (integers as "5"); floats are
rejected on input so values survive a round trip bit for bit.  Every list
in an output document has an explicit sort, so serialization never depends
on hash order.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import InputError
from .geometry import Vec, as_fraction
from .lattice import FaceLattice
from .point_config import PointConfiguration, build_configuration
from .regular_subdivision import is_triangulation


def rational_str(value: Fraction) -> str:
    return str(as_fraction(value))


def vector_json(v: Vec) -> list:
    return [rational_str(x) for x in v]


def parse_vector(raw) -> Vec:
    if not isinstance(raw, list):
        raise InputError(f"expected a list of rationals, got {raw!r}")
    return tuple(as_fraction(x) for x in raw)


def loads(text: str):
    """json.loads with parse errors reported at line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(
            f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None


def dumps(obj) -> str:
    """obj as a JSON document: the bytes of json.dumps(obj, indent=2,
    sort_keys=True) plus a newline.

    With an indent json.dumps runs its pure-Python encoder, so this emits
    the same text directly.  It takes dicts with str keys, lists, tuples
    (written as lists), str, int, bool and None; anything else, floats
    included, raises TypeError.
    """
    out: list[str] = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(obj, newline: str, out: list[str]) -> None:
    """Append obj's JSON text to out; newline starts each of its lines."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _emit(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _emit(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def read_configuration(text: str):
    """Parse {"dimension", "points", "alpha"?, "labels"?} into a
    configuration and an optional distinguished point."""
    raw = loads(text)
    if not isinstance(raw, dict):
        raise InputError("top level must be a JSON object")
    for key in ("dimension", "points"):
        if key not in raw:
            raise InputError(f"missing required key {key!r}")
    dim = raw["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"dimension must be a positive integer, got {dim!r}")
    pts = raw["points"]
    if not isinstance(pts, list) or not pts:
        raise InputError("points must be a non-empty list")
    points = [parse_vector(p) for p in pts]
    if any(len(p) != dim for p in points):
        raise InputError("point length disagrees with dimension")
    labels = raw.get("labels")
    if labels is not None and (
        not isinstance(labels, list)
        or any(not isinstance(x, str) for x in labels)
    ):
        raise InputError("labels must be a list of strings")
    config = build_configuration(points, labels)
    alpha = None
    if raw.get("alpha") is not None:
        alpha = parse_vector(raw["alpha"])
        if len(alpha) != dim:
            raise InputError("alpha length disagrees with dimension")
    return config, alpha


def configuration_json(config: PointConfiguration, alpha=None) -> dict:
    out = {
        "dimension": config.dimension,
        "points": [vector_json(p) for p in config.points],
        "labels": list(config.labels),
    }
    if alpha is not None:
        out["alpha"] = vector_json(alpha)
    return out


def _marks_labels(config, marks) -> list:
    return [config.labels[i] for i in sorted(marks)]


def subdivision_json(subdivision) -> dict:
    config = subdivision.config
    cells = []
    for mc in subdivision.maximal:
        cells.append(
            {
                "marks": _marks_labels(config, mc.marks),
                "vertices": [vector_json(v) for v in subdivision.cells[mc.marks].vertices],
            }
        )
    return {"cells": cells, "is_triangulation": is_triangulation(subdivision)}


def complex_json(p, kappa=None) -> dict:
    """Cells of a tropical complex by dimension; colors when painted."""
    config = p.config
    cells = []
    for marking in sorted(p.cells, key=sorted):
        cell = p.cells[marking]
        entry = {
            "marking": _marks_labels(config, marking),
            "dimension": cell.dimension,
            "vertices": [vector_json(v) for v in cell.vertices],
            "rays": [vector_json(r) for r in cell.rays],
        }
        if kappa is not None:
            entry["color"] = kappa[marking]
        cells.append(entry)
    return {"ambient_dimension": p.dimension, "cells": cells}


def lattice_json(lattice: FaceLattice) -> dict:
    return {
        "ranks": list(lattice.ranks),
        "covers": [list(c) for c in sorted(lattice.covers)],
        "labels": [str(x) for x in lattice.payload],
    }


def lattice_dot(lattice: FaceLattice, name="hasse") -> str:
    """Hasse diagram as a DOT digraph, edges pointing upward in rank."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, label in enumerate(lattice.payload):
        lines.append(f'  n{i} [label="{label} (r{lattice.ranks[i]})"];')
    for a, b in sorted(lattice.covers):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def gkz_json(config, vertices) -> dict:
    """Vertex dump of a secondary polytope: one volume vector per coherent
    triangulation, coordinates in label order."""
    rows = []
    for vec, tri in sorted(vertices, key=lambda p: tuple(p[0].coordinates)):
        rows.append(
            {
                "coordinates": vector_json(vec.coordinates),
                "triangulation": [_marks_labels(config, cell.marks) for cell in tri.maximal],
            }
        )
    return {"labels": list(config.labels), "vertices": rows}
