"""Cone rays and cone certification both come from one hull by polarity:
the rays of every secondary cone, painting chamber and seeded random cone
match the subset search and the Fraction route in oracles.py, and a cone is
certified exactly when Fourier-Motzkin elimination finds its open cone
nonempty.  A triangulation cone gets the same rays with no hull, from the
kernels of its flippable stricts, on every walked triangulation of the
goldens, the polygons, their extensions, the seeded corpus, a grid and a
cube with its centre; it has no other route, and a failed kernel
certificate raises.  Constraints, rays and samples are int tuples, and so is
every interior point that is not a passing witness."""

import random
from fractions import Fraction
from itertools import product

import pytest

from tropaint import regular_subdivision
from tropaint.errors import InconsistencyError
from tropaint.geometry import AffineFunctional
from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting import enumerate_painted_complexes, painting_cone, painting_constraint
from tropaint.painting_polytope import extend
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    SecondaryCone,
    Subdivision,
    _certify_cone,
    _cone_rays,
    _flippable,
    _flippable_rays,
    enumerate_coherent_subdivisions,
    enumerate_regular_triangulations,
    secondary_cone,
)

from corpus import CONFIGURATIONS
from oracles import cone_rays_brute_force, cone_rays_fraction, fourier_motzkin_feasible

F = Fraction

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)
QUAD_ALPHA = (F(1, 3), F(1, 3))
BIPYRAMID_ALPHA = (F(1, 2), F(1, 3), F(1, 2))
GRID = build_configuration([(i, j) for i in range(3) for j in range(3)])
CUBE = build_configuration(
    [(i, j, k) for i in (0, 2) for j in (0, 2) for k in (0, 2)] + [(1, 1, 1)]
)


def _functionals(rows):
    return [AffineFunctional(tuple(map(F, row)), F(0)) for row in rows]


def check_cone(equalities, stricts, n) -> bool:
    """Compare one cone with the oracles; True when its open cone is nonempty."""
    equalities, stricts = tuple(equalities), tuple(stricts)
    rays = _cone_rays(equalities, stricts, n)
    assert rays == cone_rays_fraction(equalities, stricts, n)
    cone = _certify_cone(equalities, stricts, n, None)
    feasible = fourier_motzkin_feasible(_functionals(stricts), [], _functionals(equalities), n)
    assert (rays is not None) == (cone is not None) == feasible
    if feasible:
        assert rays == cone.rays == cone_rays_brute_force(cone)
        assert cone.contains_open(cone.interior_point)
    return feasible


def _configurations():
    out = [("quad", QUAD, QUAD_ALPHA), ("bipyramid", BIPYRAMID, BIPYRAMID_ALPHA)]
    for m in (2, 3, 4):
        config = ngon_configuration(m)
        out.append((f"ngon{m}", config, admissible_alpha(config)))
    return out


CONFIGS = [
    pytest.param(config, id=f"{name}{suffix}")
    for name, config, alpha in _configurations()
    for suffix, config in (("", config), ("-extended", extend(config, alpha).extended))
]


@pytest.mark.parametrize("config", CONFIGS)
def test_subdivision_cone_rays_match_subset_search(config):
    for s in enumerate_coherent_subdivisions(config).payload:
        cone = secondary_cone(config, s)
        assert cone.rays == cone_rays_brute_force(cone)
        assert check_cone(cone.equalities, cone.stricts, cone.ambient_dim)


@pytest.mark.parametrize(
    "config, alpha", [(QUAD, QUAD_ALPHA), (BIPYRAMID, BIPYRAMID_ALPHA)], ids=["quad", "bipyramid"]
)
def test_every_chamber_sign_pattern_matches_oracles(config, alpha):
    n = len(config.points)
    outcomes = []
    for t, cone in enumerate_regular_triangulations(config).values():
        constraints = [painting_constraint(config, mc.marks, alpha) for mc in t.maximal]
        for pattern in product((1, -1, 0), repeat=len(constraints)):
            eqs = [f + (0,) for f in cone.equalities]
            sts = [f + (0,) for f in cone.stricts]
            for fn, sign in zip(constraints, pattern):
                if sign:
                    sts.append(tuple(sign * x for x in fn))
                else:
                    eqs.append(fn)
            outcomes.append(check_cone(eqs, sts, n + 1))
    assert True in outcomes and False in outcomes


def _walked():
    """(config, triangulation count or None) per input of the kernel-ray
    test, the counts pinned where the hull used to run."""
    bases = [("quad", QUAD, QUAD_ALPHA), ("bipyramid", BIPYRAMID, BIPYRAMID_ALPHA)]
    for m in (3, 4, 5, 6):
        config = ngon_configuration(m)
        bases.append((f"ngon{m}", config, admissible_alpha(config)))
    pinned = {"ngon6-extended": 322, "grid": 387, "cube": 222}
    out = [("grid", GRID), ("cube", CUBE)]
    for name, config, alpha in bases:
        out += [(name, config), (f"{name}-extended", extend(config, alpha).extended)]
    out += [(f"corpus{k}", config) for k, config in enumerate(CONFIGURATIONS)]
    return [pytest.param(config, pinned.get(name), id=name) for name, config in out]


@pytest.mark.parametrize("config, count", _walked())
def test_simplicial_rays_match_the_hull(config, count):
    n = len(config.points)
    tris = enumerate_regular_triangulations(config)
    for t, cone in tris.values():
        hull = _cone_rays((), cone.stricts, n)
        assert hull == cone_rays_fraction((), cone.stricts, n) == cone.rays
        # a fresh copy: the rays depend on t's cells alone
        rays = _flippable_rays(config, Subdivision(config, t.maximal), cone.stricts)
        assert rays == hull
        # the walk's witness is the ray sum, or the seed's placing lifting
        fast = _certify_cone((), cone.stricts, n, t.witness, rays)
        assert fast == cone and fast.rays == hull
        assert fast.interior_point == cone.interior_point == t.witness
        bare = _certify_cone((), cone.stricts, n, None, rays)
        assert bare.rays == hull
        assert bare.interior_point == tuple(F(sum(col)) for col in zip((0,) * n, *hull))
    if count is not None:
        assert len(tris) == count


def _lying_flip_test(monkeypatch, swapped):
    """Make _flippable answer per strict from swapped, truthfully elsewhere."""
    monkeypatch.setattr(
        regular_subdivision, "_flippable", lambda t, fn: swapped.get(fn, _flippable(t, fn))
    )


def test_simplicial_rays_do_not_trust_the_flip_test(monkeypatch):
    """Every wall of a triangulation cone is a flippable strict, so the
    dropped stricts hold on the kernels' rays by flip theory alone.  The
    dot products check it anyway: when the flip test swaps a flippable
    strict for a dropped one, the route refuses with InconsistencyError, or
    certifies the true rays when the stricts it then takes still cut out the
    cone, as on some of the cube's cones with more flippable stricts than
    the frame's dimension.  Each swap runs on a fresh copy of the walked
    triangulation."""
    counts = []
    for config in (extend(QUAD, QUAD_ALPHA).extended, CUBE):
        swaps = refused = 0
        for t, cone in enumerate_regular_triangulations(config).values():
            kept = [fn for fn in cone.stricts if _flippable(t, fn) is not None]
            dropped = [fn for fn in cone.stricts if _flippable(t, fn) is None]
            for out, into in product(kept, dropped):
                _lying_flip_test(monkeypatch, {out: None, into: _flippable(t, out)})
                fresh = Subdivision(config, t.maximal, t.witness)
                swaps += 1
                try:
                    rays = _flippable_rays(config, fresh, cone.stricts)
                except InconsistencyError:
                    refused += 1
                else:
                    assert rays == cone.rays
        counts.append((refused, swaps))
    assert counts == [(78, 78), (3568, 3904)]


def test_flippable_rays_need_every_strict_on_a_ray(monkeypatch):
    """With too few flippable stricts to span the frame no kernel survives,
    and a cone with no rays is refused rather than certified: a strict must
    be positive on some ray.  A triangulation cone has no other route to its
    rays, so secondary_cone refuses it too."""
    config = extend(QUAD, QUAD_ALPHA).extended
    for t, cone in enumerate_regular_triangulations(config).values():
        kept = [fn for fn in cone.stricts if _flippable(t, fn) is not None]
        for lone in ([], kept[:1]):
            _lying_flip_test(monkeypatch, {fn: None for fn in kept if fn not in lone})
            fresh = Subdivision(config, t.maximal)
            with pytest.raises(InconsistencyError, match="kernels miss"):
                _flippable_rays(config, fresh, cone.stricts)
            with pytest.raises(InconsistencyError, match="kernels miss"):
                secondary_cone(config, fresh)


def _random_cone(rng):
    """Integer stricts and equalities in R^n; a few coordinates may be left
    out of every row (a lineality), and a strict may be a negative
    combination of others (an empty open cone)."""
    n = rng.randint(1, 5)
    free = rng.sample(range(n), rng.randint(0, min(2, n - 1)))

    def row():
        return tuple(0 if j in free else rng.randint(-3, 3) for j in range(n))

    eqs = [row() for _ in range(rng.randint(0, 2))]
    sts = [row() for _ in range(rng.randint(0, 6))]
    if sts and rng.random() < 0.25:
        picked = rng.sample(sts, rng.randint(1, len(sts)))
        sts.append(tuple(-sum(col) for col in zip(*picked)))
    return eqs, sts, n


def test_random_cones_match_oracles():
    rng = random.Random(20261018)
    outcomes = [check_cone(*_random_cone(rng)) for _ in range(600)]
    assert outcomes.count(True) > 100 and outcomes.count(False) > 100


def test_cone_without_frame():
    x, y = (1, 0), (0, 1)
    # the equalities leave only the lineality: no rays, and a strict there is empty
    assert _cone_rays((x, y), (), 2) == ()
    assert _cone_rays((x,), ((0, 0),), 2) is None
    assert _cone_rays((), (), 2) == ()
    # a strict that vanishes on ker(equalities) but not everywhere
    assert _cone_rays((x,), (x,), 2) is None
    cone = SecondaryCone((), (x, (-1, 0)), 2, None)
    with pytest.raises(InconsistencyError):
        cone.rays


def _chambers(config, alpha):
    """Every all-strict sign pattern of the 0-cell constraints over each
    triangulation cone, certified or not: (equalities, stricts, dimension)."""
    n = len(config.points)
    for t, cone in enumerate_regular_triangulations(config).values():
        signed = [painting_constraint(config, mc.marks, alpha) for mc in t.maximal]
        for pattern in product((1, -1), repeat=len(signed)):
            flips = [tuple(sign * x for x in fn) for fn, sign in zip(signed, pattern)]
            yield (), tuple(f + (0,) for f in cone.stricts) + tuple(flips), n + 1


@pytest.fixture(scope="module")
def enumerated_cones():
    """Every triangulation cone of the quad, the bipyramid, the m = 3-5
    polygons and their extensions, every coherent-subdivision cone of the
    quad, the bipyramid and the m = 3 polygon, and every painting cone of
    the quad, as the enumerators and builders give them; and (equalities,
    stricts, dimension) of every painting chamber of the quad, the bipyramid
    and the m = 3 and 4 polygons."""
    golden = [("quad", QUAD, QUAD_ALPHA), ("bipyramid", BIPYRAMID, BIPYRAMID_ALPHA)]
    polygons = [(f"ngon{m}", ngon_configuration(m)) for m in (3, 4, 5)]
    polygons = [(name, config, admissible_alpha(config)) for name, config in polygons]
    cones = []
    for _, config, alpha in golden + polygons:
        for c in (config, extend(config, alpha).extended):
            cones += [cone for _, cone in enumerate_regular_triangulations(c).values()]
    for config in (QUAD, BIPYRAMID, ngon_configuration(3)):
        cones += [secondary_cone(config, s) for s in enumerate_coherent_subdivisions(config).payload]
    cones += [painting_cone(pc) for pc in enumerate_painted_complexes(QUAD, QUAD_ALPHA).payload]
    chambers = [c for _, config, alpha in golden + polygons[:2] for c in _chambers(config, alpha)]
    return cones, chambers


def test_integer_rays_match_the_fraction_route(enumerated_cones):
    cones, chambers = enumerated_cones
    hrep = [(cone.equalities, cone.stricts, cone.ambient_dim) for cone in cones] + chambers
    rays = [_cone_rays(*cone) for cone in hrep]
    assert rays == [cone_rays_fraction(*cone) for cone in hrep]
    # 155 triangulation cones, 15 coherent-subdivision cones, 45 painting
    # cones and 100 chambers, 52 of them empty
    assert len(rays) == 315 and rays.count(None) == 52


def _is_int_tuple(v) -> bool:
    return type(v) is tuple and all(type(x) is int for x in v)


def test_cones_keep_integers_from_constraint_to_sample(enumerated_cones):
    """A cone certified without a witness that passes, as the chambers and
    the flipped triangulations are, has its ray sum as interior point, an
    int tuple; only a passing witness keeps the type it came with."""
    cones, chambers = enumerated_cones
    certified = [_certify_cone(*chamber, None) for chamber in chambers]
    certified = [cone for cone in certified if cone is not None]
    assert all(_is_int_tuple(cone.interior_point) for cone in certified)
    cones = cones + certified
    ray_sums = 0
    for cone in cones:
        assert all(map(_is_int_tuple, cone.equalities + cone.stricts + cone.rays))
        assert all(_is_int_tuple(sample) for _, _, sample in cone.graded_faces())
        assert all(_is_int_tuple(fn) and _is_int_tuple(sample) for fn, sample in cone.walls())
        point = cone.interior_point
        assert _is_int_tuple(point) or all(type(x) is Fraction for x in point)
        total = cone._ray_sum((1 << len(cone.rays)) - 1)
        ray_sums += _is_int_tuple(point) and point == total
        # no witness, or the origin, which every cone here has a strict to refuse
        hrep = (cone.equalities, cone.stricts, cone.ambient_dim)
        for witness in (None, (0,) * cone.ambient_dim):
            again = _certify_cone(*hrep, witness)
            assert _is_int_tuple(again.interior_point) and again.interior_point == total
    # the ray sums: 145 flipped triangulation cones, the 12 coherent-subdivision
    # cones of all but the seeds, whose face samples sum the same canonical
    # rays, and 48 chambers; the 10 seeds and 45 painting cones keep their
    # Fraction witnesses
    assert len(cones) == 263 and ray_sums == 145 + 12 + 48
