"""Triangulation cones built from their folding constraints are the cones
the per-cell builder (oracles.py) gives: the same rays, walls and interior
points, so the triangulation walk discovers the same triangulations in the
same order.  Subdivisions with a non-simplex cell keep the per-cell
constraints themselves."""

import pytest

from tropaint import regular_subdivision
from tropaint.multiplihedra import (
    _subdivision_of_shape,
    _tree_shapes,
    admissible_alpha,
    ngon_configuration,
)
from tropaint.painting_polytope import extend
from tropaint.regular_subdivision import (
    enumerate_regular_triangulations,
    is_triangulation,
    secondary_cone,
)

from oracles import secondary_cone_per_cell
from test_flips import CONFIGS


def _same_cone(fast, slow):
    assert fast.rays == slow.rays
    assert fast.walls() == slow.walls()
    assert fast.interior_point == slow.interior_point


def _extended_ngon(m):
    config = ngon_configuration(m)
    return extend(config, admissible_alpha(config)).extended


@pytest.mark.parametrize(
    "config", CONFIGS + [pytest.param(_extended_ngon(5), id="ngon5-extended")]
)
def test_walk_matches_the_per_cell_cones(config, monkeypatch):
    tris = enumerate_regular_triangulations(config)
    monkeypatch.setattr(regular_subdivision, "secondary_cone", secondary_cone_per_cell)
    found = enumerate_regular_triangulations(config)
    assert list(tris) == list(found)
    for key, (_, cone) in tris.items():
        assert cone.equalities == ()
        _same_cone(cone, found[key][1])


@pytest.mark.parametrize("m", [3, 4])
def test_shape_cones_match_the_per_cell_cones(m):
    config = ngon_configuration(m)
    coarse = 0
    for shape in _tree_shapes(m):
        s = _subdivision_of_shape(config, shape)
        fast, slow = secondary_cone(config, s), secondary_cone_per_cell(config, s)
        _same_cone(fast, slow)
        if not is_triangulation(s):
            coarse += 1
            assert fast == slow
    assert coarse > 0
