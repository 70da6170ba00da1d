from fractions import Fraction

import pytest

from tropaint.errors import InputError
from tropaint.geometry import vdot
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    Lifting,
    enumerate_coherent_subdivisions,
    induce_subdivision,
    secondary_cone,
)
from tropaint.secondary_polytope import gkz_vector, secondary_polytope_vertices

from oracles import subdivision_rank

SQUARE = build_configuration([(0, 0), (1, 0), (1, 1), (0, 1)])
QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)


def polygon(n):
    return build_configuration([(k, k * k) for k in range(n)])


def test_square_diagonal_gkz_vectors():
    t1 = induce_subdivision(SQUARE, Lifting.of(SQUARE, [0, 1, 0, 1]))
    # diagonal through (0,0)-(1,1)
    assert gkz_vector(SQUARE, t1).coordinates == (2, 1, 2, 1)
    t2 = induce_subdivision(SQUARE, Lifting.of(SQUARE, [1, 0, 1, 0]))
    assert gkz_vector(SQUARE, t2).coordinates == (1, 2, 1, 2)


def test_single_simplex_gkz():
    tri = build_configuration([(0, 0), (2, 0), (0, 2)])
    t = induce_subdivision(tri, Lifting.of(tri, [0, 0, 0]))
    assert gkz_vector(tri, t).coordinates == (4, 4, 4)


def test_gkz_rejects_non_triangulation():
    trivial = induce_subdivision(SQUARE, Lifting.of(SQUARE, [0, 0, 0, 0]))
    with pytest.raises(InputError):
        gkz_vector(SQUARE, trivial)


def test_gkz_sum_invariant():
    for config in (SQUARE, QUAD, BIPYRAMID):
        vol = config.volume
        d = config.dimension
        vertices = secondary_polytope_vertices(config, enumerate_coherent_subdivisions(config))
        for vec, _ in vertices:
            assert sum(vec.coordinates) == (d + 1) * vol


def test_bipyramid_vertices():
    verts = secondary_polytope_vertices(BIPYRAMID, enumerate_coherent_subdivisions(BIPYRAMID))
    assert len(verts) == 2
    got = {v.coordinates for v, _ in verts}
    assert got == {(6, 6, 6, 3, 3), (4, 4, 4, 6, 6)}


def test_normal_fan_min_convention():
    # a lifting in a triangulation's open cone picks out its volume vector as
    # the unique minimizer of the pairing over all volume vectors
    poset = enumerate_coherent_subdivisions(QUAD)
    verts = secondary_polytope_vertices(QUAD, poset)
    for vec, t in verts:
        eta = secondary_cone(QUAD, t).interior_point
        mine = vdot(eta, vec.coordinates)
        for other, t2 in verts:
            if t2 != t:
                assert vdot(eta, other.coordinates) > mine


def test_face_lattice_square_is_a_segment():
    lat = enumerate_coherent_subdivisions(SQUARE)
    assert sorted(lat.ranks) == [0, 0, 1]
    assert len(lat.covers) == 2


def test_face_lattice_pentagon():
    config = polygon(5)
    lat = enumerate_coherent_subdivisions(config)
    counts = lat.rank_counts()
    assert counts == {0: 5, 1: 5, 2: 1}
    # pentagon boundary: every vertex under exactly two edges
    down = lat.down_adjacency()
    for i, r in enumerate(lat.ranks):
        if r == 1:
            assert len(down[i]) == 2


def test_subdivision_ranks_quadrilateral():
    poset = enumerate_coherent_subdivisions(QUAD)
    ranks = sorted(subdivision_rank(QUAD, s) for s in poset.payload)
    assert ranks == [0, 0, 0, 0, 1, 1, 1, 1, 2]
