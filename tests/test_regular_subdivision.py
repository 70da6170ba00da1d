from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropaint import regular_subdivision
from tropaint.errors import InconsistencyError, InputError, NoCertificateError
from tropaint.geometry import vector
from tropaint.multiplihedra import ngon_configuration
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    Lifting,
    MarkedCell,
    Subdivision,
    enumerate_coherent_subdivisions,
    enumerate_regular_triangulations,
    induce_subdivision,
    is_triangulation,
    secondary_cone,
)

from oracles import (
    minimal_and_maximal,
    polygon_subdivisions,
    poset_oracle,
    refinement_pairs,
    validate_subdivision,
)

F = Fraction

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)
SQUARE = build_configuration([(0, 0), (1, 0), (1, 1), (0, 1)])


def polygon(n):
    return build_configuration([(k, k * k) for k in range(n)])


def marks_of(s):
    return {frozenset(c.marks) for c in s.maximal}


def test_derived_four_triangle_subdivision():
    s = induce_subdivision(QUAD, Lifting.of(QUAD, [-1, 1, 0, 2, 0]))
    assert marks_of(s) == {
        frozenset({0, 1, 2}),
        frozenset({0, 2, 4}),
        frozenset({2, 3, 4}),
        frozenset({0, 1, 4}),
    }
    assert is_triangulation(s)


def test_star_subdivision_from_interior_point():
    s = induce_subdivision(QUAD, Lifting.of(QUAD, [-1, 0, 0, 0, 0]))
    assert marks_of(s) == {
        frozenset({0, 1, 2}),
        frozenset({0, 2, 3}),
        frozenset({0, 3, 4}),
        frozenset({0, 1, 4}),
    }


def test_zero_lifting_gives_trivial_subdivision():
    s = induce_subdivision(QUAD, Lifting.of(QUAD, [0] * 5))
    assert marks_of(s) == {frozenset(range(5))}
    assert not is_triangulation(s)


def test_support_functional_touches_exactly_the_marks():
    eta = Lifting.of(QUAD, [-1, 1, 0, 2, 0])
    s = induce_subdivision(QUAD, eta)
    for cell in s.maximal:
        fn = cell.support
        for i, p in enumerate(QUAD.points):
            if i in cell.marks:
                assert fn(p) == -eta[i]
            else:
                assert fn(p) > -eta[i]


def test_face_closure_contains_shared_edge_and_vertices():
    s = induce_subdivision(QUAD, Lifting.of(QUAD, [-1, 0, 0, 0, 0]))
    assert frozenset({0, 2}) in s.cells  # shared interior edge
    assert frozenset({0}) in s.cells
    assert frozenset({1, 2}) in s.cells  # boundary edge
    dims = sorted(c.dim() for c in s.cells.values())
    assert dims.count(0) == 5 and dims.count(1) == 8 and dims.count(2) == 4


def test_validate_accepts_induced_subdivisions():
    for eta in ([-1, 1, 0, 2, 0], [0, 0, 0, 0, 0], [3, -2, 5, 1, 7]):
        validate_subdivision(induce_subdivision(QUAD, Lifting.of(QUAD, eta)))


@pytest.mark.parametrize(
    "cells",
    [
        [{0, 1, 2}, {1, 2, 3}],  # two triangles crossing on both diagonals
        [{0, 1, 2}],  # half the square
        [{0, 1, 2, 3}, {0, 1, 2}],  # a cell beside one inside it
        [{0, 1, 2}, {0, 2, 3}, {0, 1, 3}, {1, 2, 3}],  # both triangulations: faces match
    ],
    ids=["crossing", "lone-triangle", "nested", "double-cover"],
)
def test_validate_rejects_non_subdivisions(cells):
    s = Subdivision(SQUARE, tuple(MarkedCell(c) for c in cells))
    with pytest.raises(InconsistencyError):
        validate_subdivision(s)


def test_refines_basics():
    fine = induce_subdivision(QUAD, Lifting.of(QUAD, [-1, 1, 0, 2, 0]))
    star = induce_subdivision(QUAD, Lifting.of(QUAD, [-1, 0, 0, 0, 0]))
    trivial = induce_subdivision(QUAD, Lifting.of(QUAD, [0] * 5))
    # fine and star both refine trivial, and neither refines the other
    assert refinement_pairs([fine, star, trivial]) == {(0, 2), (1, 2)}
    assert refinement_pairs([fine, fine]) == {(0, 1), (1, 0)}


def test_is_triangulation_on_circuit_halves():
    # lifting the equator of the bipyramid splits it into two 4-mark simplices
    s = induce_subdivision(BIPYRAMID, Lifting.of(BIPYRAMID, [0, 0, 0, 1, 1]))
    cells = marks_of(s)
    assert cells == {frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4})}
    assert is_triangulation(s)


def test_secondary_cone_of_simplex_trivial_subdivision_is_everything():
    tri = build_configuration([(0, 0), (1, 0), (0, 1)])
    s = induce_subdivision(tri, Lifting.of(tri, [0, 0, 0]))
    cone = secondary_cone(tri, s)
    assert cone.equalities == () and cone.stricts == ()
    assert cone.dim() == 3


def test_secondary_cone_membership_roundtrip():
    eta = Lifting.of(QUAD, [-1, 0, 0, 0, 0])
    s = induce_subdivision(QUAD, eta)
    cone = secondary_cone(QUAD, s)
    assert cone.contains_open(eta)
    s2 = induce_subdivision(QUAD, Lifting(cone.interior_point))
    assert s2 == s


@pytest.mark.parametrize("eta", [[-1, 0, 0, 0], [-1, 0, 0, 0, 0, 0]], ids=["short", "long"])
def test_secondary_cone_membership_rejects_a_point_of_another_length(eta):
    s = induce_subdivision(QUAD, Lifting.of(QUAD, [-1, 0, 0, 0, 0]))
    cone = secondary_cone(QUAD, s)
    for contains in (cone.contains_open, cone.contains_closed):
        with pytest.raises(InputError, match=f"{len(eta)} coordinates .* R\\^5"):
            contains(eta)


def test_secondary_cone_rejects_incoherent_marking():
    # the two-triangle split of the square with the diagonal marked on one
    # side only cannot come from a lifting: the unmarked side forces strictness
    cells = (
        MarkedCell(frozenset({0, 1, 2})),
        MarkedCell(frozenset({0, 2, 3})),
    )
    s = Subdivision(SQUARE, cells)
    cone = secondary_cone(SQUARE, s)  # this one is fine
    assert cone.dim() == 4
    bad = Subdivision(
        SQUARE,
        (
            MarkedCell(frozenset({0, 1, 2})),
            MarkedCell(frozenset({1, 2, 3})),
        ),
    )
    with pytest.raises(NoCertificateError):
        secondary_cone(SQUARE, bad)
    # a witness does not bypass the check: no lifting induces this marking
    for w in ((0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 0, 0)):
        with pytest.raises(NoCertificateError):
            secondary_cone(SQUARE, Subdivision(SQUARE, bad.maximal, witness=vector(w)))


def test_secondary_cone_rejects_cells_that_do_not_cover():
    # one quadrilateral cell leaves point 2 uncovered; each per-cell
    # constraint holds on an open cone, but the liftings there induce a
    # second maximal cell, so no lifting induces this one alone
    cell = MarkedCell(frozenset({0, 1, 3, 4}))
    inside = vector((0, 0, 0, 0, 1))
    assert marks_of(induce_subdivision(QUAD, Lifting(inside))) == {
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 3, 4}),
    }
    # a witness does not bypass the certificate
    for witness in (None, inside):
        s = Subdivision(QUAD, (cell,), witness=witness)
        assert not is_triangulation(s)
        with pytest.raises(NoCertificateError, match="volumes do not add up"):
            secondary_cone(QUAD, s)


# Families of triangles that are not triangulations, each caught by one
# part of the certificate alone: a ridge in one cell and on no facet, a
# double cover whose volumes add up to twice the square's, and a fold whose
# cells on two ridges lie on one side of them.
NOT_TRIANGULATIONS = {
    "hanging-vertex": (
        [(0, 0), (2, 0), (1, 2), (1, -2), (1, 0)],
        [{0, 1, 2}, {0, 4, 3}, {4, 1, 3}],
    ),
    "double-cover": (
        [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (2, 1), (1, 2), (0, 1)],
        [{0, 4, 7}, {1, 5, 4}, {2, 6, 5}, {3, 7, 6}, {4, 5, 6}, {4, 6, 7}, {0, 1, 2}, {0, 2, 3}],
    ),
    "fold": (
        [(0, 0), (1, 0), (2, 0), (1, 1), (1, 2)],
        [{0, 1, 3}, {1, 2, 3}, {0, 2, 3}],
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_TRIANGULATIONS))
def test_secondary_cone_certifies_triangulations(name):
    points, cells = NOT_TRIANGULATIONS[name]
    config = build_configuration(points)
    maximal = tuple(MarkedCell(frozenset(c)) for c in cells)
    n = len(points)
    # a witness does not bypass the certificate
    for w in (None, (0,) * n, tuple(2**i for i in range(n))):
        s = Subdivision(config, maximal, witness=None if w is None else vector(w))
        assert is_triangulation(s)
        with pytest.raises(NoCertificateError):
            secondary_cone(config, s)


def test_secondary_cone_rejects_another_configuration():
    s = induce_subdivision(SQUARE, Lifting.of(SQUARE, [0, 1, 0, 1]))
    moved = build_configuration([(0, 0), (2, 0), (2, 2), (0, 2)])
    with pytest.raises(InputError, match="another configuration"):
        secondary_cone(moved, s)


def test_square_cones_share_the_trivial_facet():
    t1 = induce_subdivision(SQUARE, Lifting.of(SQUARE, [0, 1, 0, 1]))
    t2 = induce_subdivision(SQUARE, Lifting.of(SQUARE, [1, 0, 1, 0]))
    assert marks_of(t1) != marks_of(t2)
    c1 = secondary_cone(SQUARE, t1)
    c2 = secondary_cone(SQUARE, t2)
    assert len(c1.stricts) == 1 and len(c2.stricts) == 1
    assert c1.stricts[0] == tuple(-x for x in c2.stricts[0])


def test_enumerate_square():
    poset = enumerate_coherent_subdivisions(SQUARE)
    assert len(poset) == 3
    tri_count = sum(1 for s in poset.payload if is_triangulation(s))
    assert tri_count == 2
    bottom, top = minimal_and_maximal(len(poset), poset.covers)
    assert len(top) == 1  # the trivial subdivision on top
    assert set(bottom) == {
        i for i, s in enumerate(poset.payload) if is_triangulation(s)
    }


def test_enumerate_quadrilateral_with_interior_point():
    poset = enumerate_coherent_subdivisions(QUAD)
    tris = [s for s in poset.payload if is_triangulation(s)]
    assert len(tris) == 4
    assert len(poset) == 9
    _, (top,) = minimal_and_maximal(len(poset), poset.covers)
    assert marks_of(poset.payload[top]) == {frozenset(range(5))}


def test_enumerate_bipyramid_circuit():
    poset = enumerate_coherent_subdivisions(BIPYRAMID)
    tris = [s for s in poset.payload if is_triangulation(s)]
    assert len(tris) == 2
    assert len(poset) == 3
    got = {frozenset(marks_of(t)) for t in tris}
    assert got == {
        frozenset({frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4})}),
        frozenset({frozenset({0, 3, 4, 1}), frozenset({1, 3, 4, 2}), frozenset({0, 3, 4, 2})}),
    }


def _diagonal_set(s):
    hull_edges = {
        frozenset({i, (i + 1) % len(s.config.points)})
        for i in range(len(s.config.points))
    }
    out = set()
    for c in s.cells.values():
        if c.dim() == 1 and frozenset(c.marks) not in hull_edges:
            out.add(frozenset(c.marks))
    return frozenset(out)


def test_enumerate_pentagon_matches_noncrossing_oracle():
    config = polygon(5)
    poset = enumerate_coherent_subdivisions(config)
    expected = polygon_subdivisions(5)
    got = {_diagonal_set(s) for s in poset.payload}
    assert got == {frozenset(d) for d in expected}
    assert len(poset) == 11
    tris = [s for s in poset.payload if is_triangulation(s)]
    assert len(tris) == 5


def test_poset_order_is_refinement():
    poset = enumerate_coherent_subdivisions(SQUARE)
    n = len(poset)
    le, clash, _ = poset_oracle(n, poset.covers)
    order = {(i, j) for i in range(n) for j in range(n) if i != j and le[i][j]}
    assert clash is None and order == refinement_pairs(poset.payload)


@given(st.lists(st.integers(-6, 6), min_size=5, max_size=5))
@settings(deadline=None, max_examples=60)
def test_random_liftings_give_valid_subdivisions(eta_vals):
    eta = Lifting.of(QUAD, eta_vals)
    s = induce_subdivision(QUAD, eta)
    validate_subdivision(s)
    for cell in s.maximal:
        fn = cell.support
        for i, p in enumerate(QUAD.points):
            v = fn(p) + eta[i]
            assert v == 0 if i in cell.marks else v > 0
    cone = secondary_cone(QUAD, s)
    assert cone.contains_open(eta)
    assert induce_subdivision(QUAD, Lifting(cone.interior_point)) == s


@given(st.lists(st.integers(-4, 4), min_size=5, max_size=5))
@settings(deadline=None, max_examples=40)
def test_random_liftings_bipyramid(eta_vals):
    eta = Lifting.of(BIPYRAMID, eta_vals)
    s = induce_subdivision(BIPYRAMID, eta)
    validate_subdivision(s)
    cone = secondary_cone(BIPYRAMID, s)
    assert cone.contains_open(eta)


@pytest.mark.parametrize(
    "config",
    [QUAD, BIPYRAMID, ngon_configuration(4)],
    ids=["quad", "bipyramid", "ngon4"],
)
def test_witness_cone_matches_lp_cone(config, fallback_certifications):
    poset = enumerate_coherent_subdivisions(config)
    # the seed cone was certified by its witness, every flipped triangulation
    # by its rays
    triangulations = [s for s in poset.payload if is_triangulation(s)]
    assert len(fallback_certifications) == len(triangulations) - 1
    fallback_certifications.clear()
    for s in poset.payload:
        assert s.witness is not None
        fast = secondary_cone(config, s)
        assert fallback_certifications == []
        assert fast.interior_point == s.witness
        slow = secondary_cone(config, Subdivision(config, s.maximal))
        assert len(fallback_certifications) == 1
        fallback_certifications.clear()
        assert fast.equalities == slow.equalities
        assert fast.stricts == slow.stricts
        assert fast.ambient_dim == slow.ambient_dim
        # identity is the H-representation, whichever point certified it
        assert fast == slow and hash(fast) == hash(slow)
        for cone in (fast, slow):
            assert cone.contains_open(cone.interior_point)
            assert induce_subdivision(config, Lifting(cone.interior_point)) == s


def test_witness_outside_open_cone_falls_back_to_lp(fallback_certifications):
    t1 = induce_subdivision(SQUARE, Lifting.of(SQUARE, [0, 1, 0, 1]))
    other = Lifting.of(SQUARE, [1, 0, 1, 0])  # induces the other triangulation
    for w in (other.values, vector([0, 0, 0, 0])):  # far side, and the wall
        s = Subdivision(SQUARE, t1.maximal, witness=w)
        cone = secondary_cone(SQUARE, s)
        assert len(fallback_certifications) == 1
        fallback_certifications.clear()
        assert not cone.contains_open(w)
        assert cone.contains_open(cone.interior_point)
        assert induce_subdivision(SQUARE, Lifting(cone.interior_point)) == t1
        assert cone == secondary_cone(SQUARE, t1)
