"""Cell coloring, vertex-color reconstruction, and painting cones."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropaint import painting
from tropaint.errors import (
    InconsistencyError,
    InputError,
    NoCertificateError,
    ResourceCapError,
)
from tropaint.geometry import vdot
from tropaint.painting import (
    BLUE,
    PURPLE,
    RED,
    ColorFunction,
    PaintedComplex,
    PaintSpec,
    colors_from_vertices,
    enumerate_painted_complexes,
    paint,
    painting_cone,
    painting_constraint,
)
from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.point_config import SignVector, build_configuration, sign_vector
from tropaint.regular_subdivision import Lifting
from tropaint.tropical_dual import dual_complex

from oracles import minimal_and_maximal, paint_per_cell

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)
SEGMENT = build_configuration([(0,), (1,)])
ALPHA = (F(1, 3), F(1, 3))
ALPHA3 = (F(1, 2), F(1, 3), F(1, 2))
STAR = [-1, 0, 0, 0, 0]

CRANK = {RED: 2, PURPLE: 1, BLUE: 0}

# the configurations of the liftings benchmark, each with the alpha it is painted at there
LIFTING_CASES = {"quad": (QUAD, ALPHA), "bipyramid": (BIPYRAMID, ALPHA3)}
for _m in (4, 5, 6):
    _config = ngon_configuration(_m)
    LIFTING_CASES[f"ngon{_m}"] = (_config, admissible_alpha(_config))


def star_painted(c):
    p, _ = dual_complex(QUAD, STAR)
    return paint(p, PaintSpec.of(QUAD, STAR, c, ALPHA))


def vertex_pattern(painted):
    out = {}
    for cell in painted.complex.cells_of_dim(0):
        out[tuple(sorted(cell.marking))] = painted.kappa[cell.marking]
    return out


def test_star_vertex_colors_at_minus_one():
    painted = star_painted(F(-1))
    assert vertex_pattern(painted) == {
        (0, 1, 2): RED,
        (0, 2, 3): PURPLE,
        (0, 3, 4): BLUE,
        (0, 1, 4): BLUE,
    }


def test_star_full_coloring_at_minus_one():
    # derived cell by cell from vertex values and ray slopes; the interior
    # point 0 lies in every maximal cell, so its dual is the compact 2-cell
    painted = star_painted(F(-1))
    got = {tuple(sorted(m)): col for m, col in painted.kappa.items()}
    assert got == {
        (0,): PURPLE,
        (1,): PURPLE,
        (2,): PURPLE,
        (3,): BLUE,
        (4,): BLUE,
        (0, 1): PURPLE,
        (0, 2): RED,
        (0, 3): BLUE,
        (0, 4): BLUE,
        (1, 2): PURPLE,
        (1, 4): BLUE,
        (2, 3): BLUE,
        (3, 4): BLUE,
        (0, 1, 2): RED,
        (0, 1, 4): BLUE,
        (0, 2, 3): PURPLE,
        (0, 3, 4): BLUE,
    }


def test_constraint_coefficients_and_thresholds():
    eta = [F(-1), F(0), F(0), F(0), F(0)]
    expected = {
        (0, 1, 2): F(-1, 3),
        (0, 2, 3): F(-1),
        (0, 3, 4): F(-4, 3),
        (0, 1, 4): F(-4, 3),
    }
    for marks, want in expected.items():
        fn = painting_constraint(QUAD, frozenset(marks), ALPHA)
        *coefficients, level = fn

        def value(c):
            return sum(b * x for b, x in zip(fn, tuple(eta) + (c,), strict=True))

        # affine: the marks' coefficients add up to minus the level's
        assert level < 0 and sum(coefficients) == -level
        assert {i for i, b in enumerate(coefficients) if b} <= set(marks)
        # the functional vanishes at the threshold level and has g's sign
        assert value(want) == 0
        assert value(want - 1) > 0 > value(want + 1)


def test_level_sweep_patterns():
    levels = [F(-2), F(-4, 3), F(-7, 6), F(-1), F(-2, 3), F(-1, 3), F(0)]
    expected = [
        (RED, RED, RED, RED),
        (RED, RED, PURPLE, PURPLE),
        (RED, RED, BLUE, BLUE),
        (RED, PURPLE, BLUE, BLUE),
        (RED, BLUE, BLUE, BLUE),
        (PURPLE, BLUE, BLUE, BLUE),
        (BLUE, BLUE, BLUE, BLUE),
    ]
    order = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)]
    seen = set()
    prev = None
    for c, want in zip(levels, expected):
        painted = star_painted(c)
        pat = vertex_pattern(painted)
        assert tuple(pat[m] for m in order) == want
        seen.add(painted.key())
        # raising the level only ever moves a cell toward blue
        cur = {m: col for m, col in painted.kappa.items()}
        if prev is not None:
            for m, col in cur.items():
                assert CRANK[col] <= CRANK[prev[m]]
        prev = cur
    assert len(seen) == 7


def test_painting_one_complex_twice_keeps_both_colorings():
    # paint() reads the complex and writes nothing onto its shared cells
    p, _ = dual_complex(QUAD, STAR)
    low = paint(p, PaintSpec.of(QUAD, STAR, F(-2), ALPHA))
    high = paint(p, PaintSpec.of(QUAD, STAR, F(0), ALPHA))
    assert low.kappa.key() != high.kappa.key()
    assert low.kappa.key() == star_painted(F(-2)).kappa.key()
    assert all(not hasattr(cell, "color") for cell in p.cells.values())


def test_paint_rejects_foreign_lifting():
    p, _ = dual_complex(QUAD, STAR)
    # the second lifting induces STAR's subdivision, but it moves the
    # vertices, so its colors differ from those of its own complex
    for eta, c in (([-1, 1, 0, 2, 0], F(0)), ([-3, 0, 0, 0, 0], F(-1))):
        spec = PaintSpec.of(QUAD, eta, c, ALPHA)
        with pytest.raises(InputError):
            paint(p, spec)


@pytest.mark.parametrize(
    "eta", [Lifting((F(1), F(2))), (F(1), F(2))], ids=["lifting", "tuple"]
)
def test_paint_spec_refuses_a_lifting_of_the_wrong_length(eta):
    # QUAD has five points; a Lifting is checked as a plain tuple is
    with pytest.raises(InputError, match="2 values for 5 points"):
        PaintSpec.of(QUAD, eta, 0, ALPHA)


def test_reconstruction_requires_total_vertex_colors():
    painted = star_painted(F(-1))
    p = painted.complex
    sv = sign_vector(QUAD, ALPHA)
    colors = {c.marking: painted.kappa[c.marking] for c in p.cells_of_dim(0)}
    missing = dict(colors)
    missing.pop(frozenset({0, 1, 2}))
    with pytest.raises(InconsistencyError):
        colors_from_vertices(p, missing, sv)
    bad = dict(colors)
    bad[frozenset({0, 1, 2})] = "green"
    with pytest.raises(InconsistencyError):
        colors_from_vertices(p, bad, sv)


@pytest.mark.parametrize("signs", [(-1,), (-1,) * 7], ids=["short", "long"])
def test_reconstruction_rejects_sign_vector_of_wrong_length(signs):
    painted = star_painted(F(-1))
    p = painted.complex
    colors = {c.marking: painted.kappa[c.marking] for c in p.cells_of_dim(0)}
    assert len(QUAD.facets) == 4
    with pytest.raises(InputError):
        colors_from_vertices(p, colors, SignVector(signs))


def _centroid(points):
    return tuple(sum(xs, F(0)) / len(points) for xs in zip(*points))


def _alphas(config):
    """The centroid, strictly inside, a point on a facet hyperplane and one
    beyond it."""
    inside = _centroid(config.points)
    on = _centroid([config.points[i] for i in config.facets[0].members])
    beyond = tuple(2 * x - y for x, y in zip(on, inside))
    assert set(sign_vector(config, inside).signs) == {-1}
    assert 0 in sign_vector(config, on).signs and 1 in sign_vector(config, beyond).signs
    return inside, on, beyond


def _vertex_levels(p, alpha):
    """The levels that put g = 0 at some 0-cell: f(u) - u . alpha there."""
    levels = set()
    for cell in p.cells_of_dim(0):
        (u,) = cell.vertices
        a = min(cell.marking)
        levels.add(vdot(u, p.config.points[a]) + p.eta[a] - vdot(u, alpha))
    return sorted(levels)


@pytest.mark.parametrize("name", sorted(LIFTING_CASES))
def test_paint_matches_per_cell_oracle(name):
    config, alpha = LIFTING_CASES[name]
    rng = random.Random(f"paint:{name}")
    for alpha in (alpha,) + _alphas(config):
        for _ in range(6):
            eta = [rng.randint(-9, 9) for _ in config.points]
            p, _ = dual_complex(config, eta)
            levels = _vertex_levels(p, alpha) + [F(rng.randint(-16, 16), 2)]
            for c in levels:
                spec = PaintSpec.of(config, eta, c, alpha)
                assert paint(p, spec).kappa == paint_per_cell(p, spec)


def test_ray_sign_with_explicit_bound():
    # along a ray dual to a boundary facet, the sign of g beyond the exact
    # crossing parameter equals the facet's sign vector entry
    for c in (F(-2), F(-1), F(1, 2)):
        painted = star_painted(c)
        spec = painted.spec
        sv = sign_vector(QUAD, ALPHA)
        by_normal = {f.normal: (f, s) for f, s in zip(QUAD.facets, sv.signs)}
        for cell in painted.complex.cells.values():
            if cell.dimension != 1 or not cell.rays:
                continue
            u0 = cell.vertices[0]
            r = cell.rays[0]
            facet, s = by_normal[r]
            a = min(cell.marking)
            pt = QUAD.points[a]

            def g(u):
                return vdot(u, pt) + spec.eta[a] - vdot(u, spec.alpha) - spec.c

            denom = vdot(r, spec.alpha) - facet.threshold
            if denom == 0:
                assert s == 0
                assert g(u0) == g(tuple(x + y for x, y in zip(u0, r)))
                continue
            bound = g(u0) / denom
            assert g(tuple(x + bound * y for x, y in zip(u0, r))) == 0
            t = (bound if bound > 0 else F(0)) + 1
            far = g(tuple(x + t * y for x, y in zip(u0, r)))
            assert (far > 0) == (s > 0) and (far < 0) == (s < 0)


def test_painting_cone_contains_witness():
    painted = star_painted(F(-1))
    cone = painting_cone(painted)
    point = tuple(painted.spec.eta.values) + (painted.spec.c,)
    assert cone.contains_open(point)
    assert cone.ambient_dim == 6
    assert cone.dim() == 5  # one purple vertex pins one equality
    other = star_painted(F(0))
    assert not cone.contains_open(tuple(other.spec.eta.values) + (other.spec.c,))


def test_painting_cone_infeasible_coloring():
    painted = star_painted(F(-1))
    all_purple = ColorFunction({m: PURPLE for m in painted.complex.cells})
    fake = PaintedComplex(painted.complex, all_purple, painted.spec)
    # four purple vertices force an affine lifting, which cannot induce
    # the star triangulation
    with pytest.raises(NoCertificateError):
        painting_cone(fake)


def repaint_key(config, alpha, point):
    p, _ = dual_complex(config, list(point[:-1]))
    return paint(p, PaintSpec.of(config, list(point[:-1]), point[-1], alpha)).key()


@pytest.mark.parametrize(
    "config, alpha", [(QUAD, ALPHA), (BIPYRAMID, ALPHA3)], ids=["quad", "bipyramid"]
)
def test_witness_painting_cone_matches_lp_cone(
    config, alpha, fallback_certifications, calls_to
):
    real = painting.painting_cone
    cone_calls = calls_to(real)
    poset = enumerate_painted_complexes(config, alpha)
    # the enumeration certifies no painting cone: only the chamber sign
    # patterns are certified
    assert cone_calls == []
    assert fallback_certifications
    elements = poset.payload
    for i, pc in enumerate(elements):
        fallback_certifications.clear()
        fast = real(pc)
        assert fallback_certifications == []
        point = pc.spec.eta.values + (pc.spec.c,)
        assert fast.interior_point == point
        # the spec of another painted complex lies in another open cone
        other = elements[(i + 1) % len(elements)].spec
        slow = real(PaintedComplex(pc.complex, pc.kappa, other))
        assert len(fallback_certifications) == 1
        assert not slow.contains_open(other.eta.values + (other.c,))
        assert fast.equalities == slow.equalities and fast.stricts == slow.stricts
        assert fast == slow and hash(fast) == hash(slow)
        for cone in (fast, slow):
            assert cone.contains_open(cone.interior_point)
            assert repaint_key(config, alpha, cone.interior_point) == pc.key()


def test_painting_cone_foreign_coloring_falls_back_to_lp(fallback_certifications):
    painted = star_painted(F(-1))
    other = star_painted(F(0))  # same complex, another realizable coloring
    assert other.subdivision == painted.subdivision
    assert other.kappa != painted.kappa
    mixed = PaintedComplex(painted.complex, painted.kappa, other.spec)
    cone = painting_cone(mixed)
    assert len(fallback_certifications) == 1
    assert not cone.contains_open(other.spec.eta.values + (other.spec.c,))
    assert cone == painting_cone(painted)
    assert repaint_key(QUAD, ALPHA, cone.interior_point) == painted.key()


def test_segment_poset():
    poset = enumerate_painted_complexes(SEGMENT, (F(1, 2),))
    assert len(poset) == 3
    kappas = [
        {tuple(sorted(m)): col for m, col in pc.kappa.items()}
        for pc in poset.payload
    ]
    all_blue = {(0, 1): BLUE, (0,): BLUE, (1,): BLUE}
    wall = {(0, 1): PURPLE, (0,): BLUE, (1,): BLUE}
    red_side = {(0, 1): RED, (0,): PURPLE, (1,): PURPLE}
    assert all_blue in kappas and wall in kappas and red_side in kappas
    bottom, top = minimal_and_maximal(len(poset), poset.covers)
    assert len(top) == 1 and kappas[top[0]] == wall
    assert sorted(kappas[i][(0, 1)] for i in bottom) == [BLUE, RED]
    assert len(poset.covers) == 2


def test_painted_walk_stops_at_the_cap(monkeypatch):
    # the pentagon has 5 triangulations, each under at least one chamber, so
    # a cap of 3 painted complexes stops the triangulation walk before any paint
    def no_paint(*args):
        raise AssertionError("painted before the cap")

    monkeypatch.setattr(painting, "_paint_at", no_paint)
    pentagon = ngon_configuration(4)
    with pytest.raises(ResourceCapError, match="more than 3 triangulations"):
        enumerate_painted_complexes(pentagon, admissible_alpha(pentagon), max_count=3)


def test_quad_poset_counts():
    poset = enumerate_painted_complexes(QUAD, ALPHA)
    assert len(poset) == 45
    dims = {}
    for pc in poset.payload:
        d = painting_cone(pc).dim()
        dims[d] = dims.get(d, 0) + 1
    # pointed dimensions 3,2,1,0 over a 3-dimensional lineality
    assert dims == {6: 14, 5: 21, 4: 9, 3: 1}
    v, e, f = dims[6], dims[5], dims[4]
    assert v - e + f == 2
    bottom, top = minimal_and_maximal(len(poset), poset.covers)
    assert len(bottom) == 14
    assert len(top) == 1
    # the top painting sits over the lineality: affine lifting, level at the
    # value of alpha, so the lone vertex is purple and all else falls away blue
    top_pc = poset.payload[top[0]]
    assert len(top_pc.subdivision.maximal) == 1
    for cell in top_pc.complex.cells.values():
        want = PURPLE if cell.dimension == 0 else BLUE
        assert top_pc.kappa[cell.marking] == want


def test_bipyramid_poset_is_heptagon():
    poset = enumerate_painted_complexes(BIPYRAMID, ALPHA3)
    assert len(poset) == 15
    dims = {}
    for pc in poset.payload:
        d = painting_cone(pc).dim()
        dims[d] = dims.get(d, 0) + 1
    assert dims == {6: 7, 5: 7, 4: 1}
    assert len(poset.covers) == 21
    bottom, top = minimal_and_maximal(len(poset), poset.covers)
    assert len(bottom) == 7 and len(top) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=5, max_size=5), st.integers(-8, 8))
def test_reconstruction_matches_direct_paint(eta, c):
    for config, alpha in ((QUAD, ALPHA), (BIPYRAMID, ALPHA3)):
        p, _ = dual_complex(config, eta)
        painted = paint(p, PaintSpec.of(config, eta, c, alpha))
        sv = sign_vector(config, alpha)
        vc = {cell.marking: painted.kappa[cell.marking] for cell in p.cells_of_dim(0)}
        assert colors_from_vertices(p, vc, sv) == painted.kappa


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=5, max_size=5),
    st.integers(-6, 6),
)
def test_sampled_paintings_are_enumerated(eta, c):
    poset = _quad_poset()
    keys = {pc.key() for pc in poset.payload}
    p, _ = dual_complex(QUAD, eta)
    painted = paint(p, PaintSpec.of(QUAD, eta, c, ALPHA))
    assert painted.key() in keys


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=5, max_size=5), st.integers(-7, 7))
def test_cone_membership_matches_key(eta, c):
    p, _ = dual_complex(QUAD, eta)
    painted = paint(p, PaintSpec.of(QUAD, eta, c, ALPHA))
    cone = painting_cone(painted)
    point = tuple(F(v) for v in eta) + (F(c),)
    assert cone.contains_open(point)
    # repainting at the cone's own certificate reproduces the painting
    assert repaint_key(QUAD, ALPHA, cone.interior_point) == painted.key()


_POSET_CACHE = {}


def _quad_poset():
    if "quad" not in _POSET_CACHE:
        _POSET_CACHE["quad"] = enumerate_painted_complexes(QUAD, ALPHA)
    return _POSET_CACHE["quad"]
