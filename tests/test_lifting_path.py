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
the painted enumerators give for the same inputs.  dual_complex and paint
read the same faces off bitmasks and leave Subdivision.cells unbuilt.

From a lifting to its painted complex the path compares integer rows:
evaluate's argmin, sign_vector and paint's g must agree with the Fraction
references in oracles.py on the same configurations, at tied arguments and
at levels that put g = 0 at a vertex.
"""

import random
from fractions import Fraction as F

import pytest

from tropaint.geometry import vdot
from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting import PURPLE, PaintSpec, enumerate_painted_complexes, paint
from tropaint.painting_polytope import extend
from tropaint.point_config import build_configuration, sign_vector
from tropaint.regular_subdivision import (
    Lifting,
    enumerate_coherent_subdivisions,
    induce_subdivision,
)
from tropaint.tropical_dual import TropicalPolynomial, dual_complex, evaluate

from corpus import CASES, CONFIGURATIONS
from oracles import (
    evaluate_oracle,
    paint_per_cell,
    sign_vector_oracle,
    subdivision_cells_by_closure,
    upper_hull_facets_oracle,
)

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


def _centroid(points):
    return tuple(sum(c) / len(points) for c in zip(*points))


@pytest.mark.parametrize("config", _configurations())
def test_dual_complex_and_paint_leave_the_subdivision_cells_unbuilt(config):
    rng = random.Random(f"lazy:{len(config.points)}:{config.dimension}")
    alpha = _centroid(config.points)
    for values in _liftings(config, rng):
        p, s = dual_complex(config, values)
        paint(p, PaintSpec.of(config, values, F(1, 2), alpha))
        assert s._cells is None
        # built on first access, the same cells the dual complex holds
        got = {marks: (cell.dim(), cell.vertices) for marks, cell in s.cells.items()}
        assert got == subdivision_cells_by_closure(s)
        assert {m: config.dimension - dim for m, (dim, _) in got.items()} == {
            m: cell.dimension for m, cell in p.cells.items()
        }


def _rational_point(rng, d):
    return tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(d))


@pytest.mark.parametrize("config", _configurations())
def test_evaluate_matches_the_fraction_oracle(config):
    rng = random.Random(f"evaluate:{len(config.points)}:{config.dimension}")
    ties = 0
    for values in _liftings(config, rng):
        eta = Lifting.of(config, values)
        f = TropicalPolynomial(config, eta)
        # at a support's slope the minimum ties on the cell's marks
        points = [mc.support.linear for mc in induce_subdivision(config, eta).maximal]
        points += [_rational_point(rng, config.dimension) for _ in range(4)]
        for u in points:
            got = evaluate(f, u)
            assert got == evaluate_oracle(f, u)
            ties += len(got[1]) > 1
    assert ties


@pytest.mark.parametrize("config", _configurations())
def test_sign_vector_matches_the_fraction_oracle(config):
    rng = random.Random(f"signs:{len(config.points)}:{config.dimension}")
    centroid = _centroid(config.points)
    alphas = [centroid] + [_rational_point(rng, config.dimension) for _ in range(6)]
    for f in config.facets:
        on = _centroid([config.points[i] for i in sorted(f.members)])
        alphas += [on, tuple(2 * x - c for x, c in zip(on, centroid))]
    seen = set()
    for alpha in alphas:
        got = sign_vector(config, alpha).signs
        assert got == sign_vector_oracle(config, alpha)
        seen.update(got)
    assert seen == {-1, 0, 1}


@pytest.mark.parametrize("name, config, alpha", [pytest.param(*case, id=case[0]) for case in CASES])
def test_paint_matches_the_per_cell_oracle_on_the_corpus(name, config, alpha):
    rng = random.Random(f"paint:{name}")
    purple = 0
    for values in _liftings(config, rng):
        p, _ = dual_complex(config, values)
        f = TropicalPolynomial(config, p.eta)
        # the levels that put g = 0 at a 0-cell, and one more
        levels = {
            evaluate_oracle(f, cell.vertices[0])[0] - vdot(cell.vertices[0], alpha)
            for cell in p.cells_of_dim(0)
        }
        for c in sorted(levels) + [F(rng.randint(-16, 16), 3)]:
            spec = PaintSpec.of(config, values, c, alpha)
            kappa = paint(p, spec).kappa
            assert kappa == paint_per_cell(p, spec)
            purple += PURPLE in kappa.colors.values()
    assert purple
