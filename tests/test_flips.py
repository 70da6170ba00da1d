"""Triangulations are walked by flips: across every wall of every
triangulation cone, the flip on the wall's circuit gives the neighbour that
bisection finds, and enumerate_regular_triangulations lists the same
triangulations, with the same cones, in the same order as the walk that
bisection drives (oracles.py).  The walk certifies a flipped triangulation by
its cone alone; the hull that its witness induces gives it back."""

import random
from fractions import Fraction
from itertools import product

import pytest

from tropaint.geometry import affine_rank
from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting_polytope import extend
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    Lifting,
    _flip,
    enumerate_regular_triangulations,
    induce_subdivision,
)

from oracles import triangulations_by_bisection

F = Fraction

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)


def _named_configurations():
    out = []
    for name, config, alpha in (
        ("quad", QUAD, (F(1, 3), F(1, 3))),
        ("bipyramid", BIPYRAMID, (F(1, 2), F(1, 3), F(1, 2))),
    ):
        out.append(pytest.param(config, id=name))
        out.append(pytest.param(extend(config, alpha).extended, id=f"{name}-extended"))
    for m in (2, 3, 4):
        config = ngon_configuration(m)
        out.append(pytest.param(extend(config, admissible_alpha(config)).extended, id=f"ngon{m}-extended"))
    return out


def _seeded_configuration(seed: int):
    """Five to seven distinct points of a small integer box, full-dimensional
    in R^2 (even seeds) or R^3 (odd seeds), so that points repeat on lines
    and planes."""
    rng = random.Random(seed)
    d = 2 + seed % 2
    box = list(product(range(4 - seed % 2), repeat=d))
    while True:
        points = rng.sample(box, rng.randint(d + 3, 7))
        if affine_rank(points) == d:
            return build_configuration(points)


CONFIGS = _named_configurations() + [
    pytest.param(_seeded_configuration(seed), id=f"seed{seed}") for seed in range(40)
]


@pytest.mark.parametrize("config", CONFIGS)
def test_flips_match_bisection(config):
    found, crossings = triangulations_by_bisection(config)
    assert crossings
    for t, wall, neighbour in crossings:
        assert _flip(config, t, wall).key == neighbour
    tris = enumerate_regular_triangulations(config)
    assert list(tris) == list(found)
    for key, (t, cone) in tris.items():
        assert cone == found[key][1]
        assert cone.contains_open(t.witness)
        assert induce_subdivision(config, Lifting(t.witness)).key == key


def test_seeded_circuits_include_several_links():
    # a circuit of lower rank than the configuration has one link per cell
    # around it, so a flip that keeps only one of those cells goes wrong
    several = 0
    for seed in range(40):
        config = _seeded_configuration(seed)
        for t, cone in enumerate_regular_triangulations(config).values():
            for wall, _ in cone.walls():
                circuit = {i for i, c in enumerate(wall) if c != 0}
                links = {mc.marks - circuit for mc in t.maximal if len(circuit - mc.marks) == 1}
                several += len(links) > 1
    assert several > 0
