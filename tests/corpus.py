"""A seeded corpus of theorem inputs shared by the differential tests.

Small planar configurations of 4-6 points with coordinates in 0..4 and 3D
configurations of 5-6 points in {0, 1, 2}^3, each spanning its space.  Each
configuration gets the distinguished point alpha at five positions: generic
(on no hyperplane through points of the configuration), the midpoint of two
points, a point of the configuration, the centroid, and outside the hull.
Every draw comes from random.Random(seed), so the corpus is the same on
every run.
"""

import random
from fractions import Fraction
from itertools import combinations, product

from tropaint.geometry import affine_rank
from tropaint.point_config import build_configuration

def _points(rng, dim: int, top: int, count: int):
    grid = list(product(range(top + 1), repeat=dim))
    while True:
        pts = rng.sample(grid, count)
        if affine_rank(pts) == dim:
            return pts


def _generic(rng, pts):
    """A positive combination of the points, redrawn until it lies on no
    hyperplane through points of the configuration."""
    dim = len(pts[0])
    hyperplanes = [s for s in combinations(pts, dim) if affine_rank(s) == dim - 1]
    while True:
        weights = [rng.randint(1, 9) for _ in pts]
        total = sum(weights)
        alpha = tuple(
            sum(Fraction(w, total) * p[k] for w, p in zip(weights, pts)) for k in range(dim)
        )
        if all(affine_rank(s + (alpha,)) == dim for s in hyperplanes):
            return alpha


def _alphas(rng, pts) -> dict:
    """alpha at each of the five positions, by name, for the points pts."""
    n = len(pts)
    centroid = tuple(Fraction(sum(c), n) for c in zip(*pts))
    i, j = rng.sample(range(n), 2)
    # the lexicographically greatest point is a vertex, so pushing it away
    # from the centroid leaves the hull
    top = max(pts)
    return {
        "generic": _generic(rng, pts),
        "midpoint": tuple(Fraction(x + y, 2) for x, y in zip(pts[i], pts[j])),
        "point": tuple(map(Fraction, pts[rng.randrange(n)])),
        "centroid": centroid,
        "outside": tuple(2 * x - c for x, c in zip(top, centroid)),
    }


def _cases(seed: int, name: str, dim: int, top: int, counts):
    """Five cases per configuration, one configuration per point count."""
    rng = random.Random(seed)
    out = []
    for k, count in enumerate(counts):
        pts = _points(rng, dim, top, count)
        config = build_configuration(pts)
        for position, alpha in _alphas(rng, pts).items():
            out.append((f"{name}{k}-{position}", config, alpha))
    return out


# (id, configuration, alpha)
CASES = _cases(2023, "planar", 2, 4, (4, 5, 6)) + _cases(2024, "spatial", 3, 2, (5, 6))
CONFIGURATIONS = list({config: None for _, config, _ in CASES})
