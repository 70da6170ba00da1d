"""Cone rays and cone certification both come from one hull by polarity:
the rays of every secondary cone, painting chamber and seeded random cone
match the subset search in oracles.py, and a cone is certified exactly when
Fourier-Motzkin elimination finds its open cone nonempty."""

import random
from fractions import Fraction
from itertools import product

import pytest

from tropaint.errors import InconsistencyError
from tropaint.geometry import AffineFunctional
from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting import painting_constraint
from tropaint.painting_polytope import extend
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    SecondaryCone,
    _certify_cone,
    _cone_rays,
    enumerate_coherent_subdivisions,
    enumerate_regular_triangulations,
    secondary_cone,
)

from oracles import cone_rays_brute_force, fourier_motzkin_feasible

F = Fraction

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)
QUAD_ALPHA = (F(1, 3), F(1, 3))
BIPYRAMID_ALPHA = (F(1, 2), F(1, 3), F(1, 2))


def check_cone(equalities, stricts, n) -> bool:
    """Compare one cone with both oracles; True when its open cone is nonempty."""
    equalities, stricts = tuple(equalities), tuple(stricts)
    rays = _cone_rays(equalities, stricts, n)
    cone = _certify_cone(equalities, stricts, n, None)
    feasible = fourier_motzkin_feasible(stricts, [], equalities, n)
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
    for s in enumerate_coherent_subdivisions(config).elements:
        cone = secondary_cone(config, s)
        assert cone.rays == cone_rays_brute_force(cone)
        assert check_cone(cone.equalities, cone.stricts, cone.ambient_dim)


@pytest.mark.parametrize(
    "config, alpha", [(QUAD, QUAD_ALPHA), (BIPYRAMID, BIPYRAMID_ALPHA)], ids=["quad", "bipyramid"]
)
def test_every_chamber_sign_pattern_matches_oracles(config, alpha):
    n = len(config.points)

    def extended(fn):
        return AffineFunctional(fn.linear + (F(0),), fn.constant)

    outcomes = []
    for t, cone in enumerate_regular_triangulations(config).values():
        constraints = [painting_constraint(config, mc.marks, alpha) for mc in t.maximal]
        for pattern in product((1, -1, 0), repeat=len(constraints)):
            eqs = [extended(f) for f in cone.equalities]
            sts = [extended(f) for f in cone.stricts]
            for fn, sign in zip(constraints, pattern):
                if sign:
                    sts.append(fn.scaled(sign))
                else:
                    eqs.append(fn)
            outcomes.append(check_cone(eqs, sts, n + 1))
    assert True in outcomes and False in outcomes


def _random_cone(rng):
    """Integer stricts and equalities in R^n; a few coordinates may be left
    out of every row (a lineality), and a strict may be a negative
    combination of others (an empty open cone)."""
    n = rng.randint(1, 5)
    free = rng.sample(range(n), rng.randint(0, min(2, n - 1)))

    def row():
        return tuple(F(0) if j in free else F(rng.randint(-3, 3)) for j in range(n))

    eqs = [AffineFunctional(row(), F(0)) for _ in range(rng.randint(0, 2))]
    sts = [AffineFunctional(row(), F(0)) for _ in range(rng.randint(0, 6))]
    if sts and rng.random() < 0.25:
        picked = rng.sample(sts, rng.randint(1, len(sts)))
        total = tuple(-sum(col, F(0)) for col in zip(*(f.linear for f in picked)))
        sts.append(AffineFunctional(total, F(0)))
    return eqs, sts, n


def test_random_cones_match_oracles():
    rng = random.Random(20261018)
    outcomes = [check_cone(*_random_cone(rng)) for _ in range(600)]
    assert outcomes.count(True) > 100 and outcomes.count(False) > 100


def test_cone_without_frame():
    x = AffineFunctional((F(1), F(0)), F(0))
    y = AffineFunctional((F(0), F(1)), F(0))
    # the equalities leave only the lineality: no rays, and a strict there is empty
    assert _cone_rays((x, y), (), 2) == ()
    assert _cone_rays((x,), (y.scaled(0),), 2) is None
    assert _cone_rays((), (), 2) == ()
    # a strict that vanishes on ker(equalities) but not everywhere
    assert _cone_rays((x,), (x,), 2) is None
    cone = SecondaryCone((), (x, x.scaled(-1)), 2, None)
    with pytest.raises(InconsistencyError):
        cone.rays
