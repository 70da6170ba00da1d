"""The lifting path runs on the configuration's integer rows, and grades a
simplex's faces without a closure.

induce_subdivision hands the hull core the points times L, the lcm of the
configuration's denominators, and the heights times D, the lcm of the
lifting's, seeded by the configuration's spanning simplex.  Its maximal
marks and supports must be those of the Fraction upper-hull oracle: on a
configuration with rational coordinates (L > 1), on liftings whose
denominators differ from L, on flat liftings (a single facet), and on the
goldens, the polygons and the seeded corpus (corpus.py).

Subdivision.cells gives a maximal cell with d + 1 marks every nonempty
subset of its marks as a face, of dimension one less than its size, and
closes the other cells' marks.  Its dimensions, vertices and keys must be
those of the closure-only grading on every subdivision that the coherent and
the painted enumerators give for the same inputs.
"""

import random
from fractions import Fraction as F

import pytest

from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting import enumerate_painted_complexes
from tropaint.painting_polytope import extend
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    Lifting,
    enumerate_coherent_subdivisions,
    induce_subdivision,
)

from corpus import CASES, CONFIGURATIONS
from oracles import subdivision_cells_by_closure, upper_hull_facets_oracle

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)
QUAD_ALPHA = (F(1, 3), F(1, 3))
BIPYRAMID_ALPHA = (F(1, 2), F(1, 3), F(1, 2))
# L = 12, with an interior point
RATIONAL = build_configuration(
    [(0, 0), (F(3, 2), 0), (0, F(4, 3)), (F(1, 2), F(1, 3)), (F(-3, 4), F(5, 6)),
     (F(5, 4), F(2, 3))]
)


def _configurations():
    out = [
        pytest.param(RATIONAL, id="rational"),
        pytest.param(QUAD, id="quad"),
        pytest.param(BIPYRAMID, id="bipyramid"),
        pytest.param(extend(QUAD, QUAD_ALPHA).extended, id="quad-extended"),
        pytest.param(extend(BIPYRAMID, BIPYRAMID_ALPHA).extended, id="bipyramid-extended"),
    ]
    out += [pytest.param(ngon_configuration(m), id=f"ngon{m}") for m in (3, 4, 5, 6)]
    out += [pytest.param(config, id=f"corpus{k}") for k, config in enumerate(CONFIGURATIONS)]
    return out


def _liftings(config, rng):
    n, d = len(config.points), config.dimension
    slope = [F(rng.randint(-9, 9), rng.choice((1, 2, 5, 7))) for _ in range(d)]
    flat = [sum((s * x for s, x in zip(slope, p)), F(1, 5)) for p in config.points]
    bumped = list(flat)
    bumped[rng.randrange(n)] += F(1, 7)
    return [
        [0] * n,
        flat,
        bumped,
        [rng.randint(-9, 9) for _ in range(n)],
        # denominators off the configuration's
        [F(rng.randint(-30, 30), rng.choice((2, 5, 7, 11))) for _ in range(n)],
        [F(rng.randint(-30, 30), rng.choice((1, 9))) for _ in range(n)],
    ]


@pytest.mark.parametrize("config", _configurations())
def test_induced_subdivision_matches_hull_oracle(config):
    rng = random.Random(len(config.points) * 10 + config.dimension)
    flats = 0
    for values in _liftings(config, rng):
        eta = Lifting.of(config, values)
        s = induce_subdivision(config, eta)
        want = upper_hull_facets_oracle([(p, -h) for p, h in zip(config.points, eta.values)])
        assert [(mc.support.linear, mc.support.constant, mc.marks) for mc in s.maximal] == [
            (fn.linear, fn.constant, marks) for fn, marks in want
        ]
        flats += len(s.maximal) == 1
    assert flats >= 2  # the zero and the affine liftings
    if config is RATIONAL:
        assert config.integer_points[1] == 12


def _painted_inputs():
    out = [
        pytest.param(QUAD, QUAD_ALPHA, id="quad"),
        pytest.param(BIPYRAMID, BIPYRAMID_ALPHA, id="bipyramid"),
    ]
    for m in (3, 4, 5):
        config = ngon_configuration(m)
        out.append(pytest.param(config, admissible_alpha(config), id=f"ngon{m}"))
    out += [
        pytest.param(config, alpha, id=name)
        for name, config, alpha in CASES
        if name.endswith("-generic")
    ]
    return out


def _check_cells(subdivisions) -> tuple[int, int]:
    """Compares every subdivision's cells with the closure-only grading;
    returns how many have both simplex and other maximal cells, and how many
    have a cell with a mark that is not one of its vertices."""
    mixed = nonvertex = 0
    for s in subdivisions:
        got = {marks: (cell.dim(), cell.vertices) for marks, cell in s.cells.items()}
        assert got == subdivision_cells_by_closure(s)
        sizes = {len(mc.marks) == s.config.dimension + 1 for mc in s.maximal}
        mixed += sizes == {True, False}
        nonvertex += any(len(cell.vertices) < len(cell.marks) for cell in s.cells.values())
    return mixed, nonvertex


@pytest.mark.parametrize("config", _configurations())
def test_coherent_subdivision_cells_match_closure(config):
    subdivisions = enumerate_coherent_subdivisions(config).payload
    mixed, nonvertex = _check_cells(subdivisions)
    if config is QUAD:
        assert mixed and nonvertex


@pytest.mark.parametrize("config, alpha", _painted_inputs())
def test_painted_subdivision_cells_match_closure(config, alpha):
    painted = enumerate_painted_complexes(config, alpha).payload
    _check_cells(pc.subdivision for pc in painted)
