import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropaint.errors import InputError
from tropaint.geometry import affine_rank
from tropaint.multiplihedra import ngon_configuration
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import Lifting, induce_subdivision
from tropaint.tropical_dual import (
    TropicalPolynomial,
    dual_complex,
    evaluate,
)

from oracles import (
    dual_cell_rank,
    dual_vertex_oracle,
    lp_maximize_oracle,
    polytope_vertex_indices_by_rank,
    primitive_vector,
    relint_sample,
)

F = Fraction

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)
TRIANGLE = build_configuration([(0, 0), (1, 0), (0, 1)])

STAR = Lifting.of(QUAD, [-1, 0, 0, 0, 0])
FOUR = Lifting.of(QUAD, [-1, 1, 0, 2, 0])


def test_evaluate_at_worked_points():
    f = TropicalPolynomial(QUAD, STAR)
    assert evaluate(f, (-1, -1)) == (F(-1), frozenset({0, 1, 2}))
    assert evaluate(f, (1, 0)) == (F(-1), frozenset({0, 3, 4}))


def test_evaluate_zero_point_picks_zero_heights():
    f = TropicalPolynomial(QUAD, Lifting.of(QUAD, [0, 1, 2, 0, 3]))
    assert evaluate(f, (0, 0)) == (F(0), frozenset({0, 3}))


def test_evaluate_rejects_a_point_of_the_wrong_dimension():
    f = TropicalPolynomial(QUAD, STAR)
    for u in [(), (1,), (1, 2, 3)]:
        with pytest.raises(InputError, match="coordinates"):
            evaluate(f, u)
        with pytest.raises(InputError):
            f(u)


def test_star_dual_vertices_match_elimination_oracle():
    p, s = dual_complex(QUAD, STAR)
    verts = {c.marking: c for c in p.cells_of_dim(0)}
    assert set(verts) == {
        frozenset({0, 1, 2}),
        frozenset({0, 2, 3}),
        frozenset({0, 3, 4}),
        frozenset({0, 1, 4}),
    }
    for marks, cell in verts.items():
        assert cell.vertices == (dual_vertex_oracle(QUAD.points, STAR, marks),)
    positions = {cell.vertices[0] for cell in verts.values()}
    assert positions == {(-1, -1), (1, -1), (1, 0), (-1, 2)}


def _corner_locus(p):
    """The cells below top dimension marked by at least two points."""
    return [c for c in p.cells.values() if c.dimension < p.dimension and len(c.marking) >= 2]


def test_star_hypersurface_edge_and_ray_count():
    p, _ = dual_complex(QUAD, STAR)
    hyp = _corner_locus(p)
    edges = [c for c in hyp if c.dimension == 1]
    assert len([c for c in edges if c.is_compact()]) == 4
    assert len([c for c in edges if not c.is_compact()]) == 4
    assert len([c for c in hyp if c.dimension == 0]) == 4


def test_trivial_lift_gives_translated_normal_fan():
    p, s = dual_complex(TRIANGLE, Lifting.of(TRIANGLE, [0, 0, 0]))
    assert len(s.maximal) == 1
    assert [len(p.cells_of_dim(k)) for k in range(3)] == [1, 3, 3]
    origin = p.cells[frozenset({0, 1, 2})]
    assert origin.vertices == ((F(0), F(0)),)
    assert p.cells[frozenset({0, 1})].rays == ((F(0), F(1)),)
    assert p.cells[frozenset({0, 2})].rays == ((F(1), F(0)),)
    assert p.cells[frozenset({1, 2})].rays == ((F(-1), F(-1)),)
    for k in (0, 1, 2):
        assert len(p.cells[frozenset({k})].rays) == 2


def test_bipyramid_single_compact_edge():
    p, _ = dual_complex(BIPYRAMID, Lifting.of(BIPYRAMID, [0, 0, 0, 1, 1]))
    hyp = _corner_locus(p)
    compact_edges = [c for c in hyp if c.dimension == 1 and c.is_compact()]
    assert len(compact_edges) == 1
    assert compact_edges[0].marking == frozenset({0, 1, 2})
    assert not [c for c in hyp if c.dimension == 2 and c.is_compact()]


def _in_vrep(cell, u):
    """Exact membership of u in conv(vertices) + cone(rays) via one LP."""
    verts, rays = cell.vertices, cell.rays
    nv, nr = len(verts), len(rays)
    d = len(u)
    eq_rows = []
    eq_consts = []
    for i in range(d):
        eq_rows.append([v[i] for v in verts] + [r[i] for r in rays])
        eq_consts.append(u[i])
    eq_rows.append([1] * nv + [0] * nr)
    eq_consts.append(1)
    ub_rows = []
    for j in range(nv + nr):
        row = [F(0)] * (nv + nr)
        row[j] = F(-1)
        ub_rows.append(row)
    status, _, _ = lp_maximize_oracle(
        [F(0)] * (nv + nr), ub_rows, [F(0)] * (nv + nr), eq_rows, eq_consts
    )
    return status == "optimal"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=5, max_size=5))
def test_duality_properties_random_lifts(vals):
    eta = Lifting.of(QUAD, vals)
    p, s = dual_complex(QUAD, eta)
    f = TropicalPolynomial(QUAD, eta)
    assert set(p.cells) == set(s.cells)
    boundary = [fs.members for fs in QUAD.facets]
    for marks, cell in p.cells.items():
        assert cell.dimension + s.cells[marks].dim() == QUAD.dimension
        # both dimensions are derived from incidences; check each by a rank
        assert s.cells[marks].dim() == affine_rank([QUAD.points[i] for i in sorted(marks)])
        assert cell.dimension == dual_cell_rank(cell)
        on_boundary = any(marks <= mem for mem in boundary)
        assert cell.is_compact() == (not on_boundary)
        for r in cell.rays:
            assert r == primitive_vector(r)
            assert any(r == fs.normal and marks <= fs.members for fs in QUAD.facets)
        value, argmin = evaluate(f, relint_sample(cell))
        assert argmin == marks
    for mc in s.maximal:
        value, argmin = evaluate(f, mc.support.linear)
        assert value == mc.support.constant
        assert argmin == mc.marks
    assert set(p.face_pairs()) == {(b, a) for a, b in s.face_pairs()}


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=5, max_size=5),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
def test_cells_cover_dual_space(vals, upt):
    eta = Lifting.of(QUAD, vals)
    p, _ = dual_complex(QUAD, eta)
    f = TropicalPolynomial(QUAD, eta)
    u = (F(upt[0], 2), F(upt[1], 3))
    _, argmin = evaluate(f, u)
    assert argmin in p.cells
    assert _in_vrep(p.cells[argmin], u)

@pytest.mark.parametrize(
    "config",
    [QUAD, BIPYRAMID] + [ngon_configuration(m) for m in (4, 5, 6)],
    ids=["quad", "bipyramid", "ngon4", "ngon5", "ngon6"],
)
def test_cells_list_vertices_and_rays_in_lexicographic_order(config):
    rng = random.Random(f"order:{config.points}")
    for _ in range(10):
        eta = [rng.randint(-9, 9) for _ in config.points]
        p, s = dual_complex(config, eta)
        for marks, cell in p.cells.items():
            slopes = {
                dual_vertex_oracle(config.points, eta, mc.marks)
                for mc in s.maximal
                if marks <= mc.marks
            }
            normals = {f.normal for f in config.facets if marks <= f.members}
            assert cell.vertices == tuple(sorted(slopes))
            assert cell.rays == tuple(sorted(normals))
            sub = s.cells[marks]
            points = [config.points[i] for i in sorted(marks)]
            corners = {points[i] for i in polytope_vertex_indices_by_rank(points)}
            assert sub.vertices == tuple(sorted(corners))
