"""The integer plane certificate of edge-length realization.

A lifting induces a subdivision s exactly when each maximal cell's lifted
plane lies weakly above every lifted point and touches exactly that cell's
marks, and the cells' volumes add up to the configuration's.  These tests
hold that certificate to induce_subdivision on every coherent subdivision of
small polygons, fine and coarse, on a square with an unmarked centre and on
a pentagon with a point in the middle of an edge, at liftings inside each
cone, on its walls and just outside them; and they hold the offsets read
off the planes to the Fraction supports of the induced hull.
"""

import random
from fractions import Fraction

import pytest

from tropaint.errors import InconsistencyError, NoCertificateError
from tropaint.geometry import _int_row
from tropaint.multiplihedra import (
    EdgeLengthTarget,
    _cell_planes,
    _edge_offset,
    admissible_alpha,
    ngon_configuration,
    realize_edge_lengths,
)
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    Lifting,
    MarkedCell,
    Subdivision,
    _cell_tops,
    enumerate_coherent_subdivisions,
    induce_subdivision,
    is_triangulation,
    secondary_cone,
)
from tropaint.tropical_dual import TropicalComplex, dual_complex

from oracles import edge_supports_oracle

F = Fraction
SQUARE_CENTRE = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
PENTAGON_MIDEDGE = [(0, 0), (1, 0), (2, 0), (3, 2), (1, 3), (-1, 2)]
BIPYRAMID = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]


def _configs():
    out = [pytest.param(ngon_configuration(m), id=f"ngon{m}") for m in (3, 4, 5, 6)]
    out.append(pytest.param(build_configuration(SQUARE_CENTRE), id="square_centre"))
    out.append(pytest.param(build_configuration(PENTAGON_MIDEDGE), id="pentagon_midedge"))
    return out


def certifies(config, s, eta) -> bool:
    """Whether the plane certificate accepts that eta induces exactly s."""
    try:
        _cell_planes(config, _cell_tops(config, s), _int_row(eta))
    except (InconsistencyError, NoCertificateError):
        return False
    return True


def _probes(config, cone):
    """Liftings inside the cone, on each of its walls and just across it,
    and the interior point with one height nudged either way."""
    x = cone.interior_point
    out = [x]
    for _, wall in cone.walls():
        w = tuple(map(F, wall))
        for t in (F(1, 8), F(0), F(-1, 8)):
            out.append(tuple(a + t * (b - a) for a, b in zip(w, x)))
    for i in range(len(x)):
        for e in (F(1, 97), F(-1, 97)):
            out.append(x[:i] + (x[i] + e,) + x[i + 1 :])
    return out


@pytest.mark.parametrize("config", _configs())
def test_plane_certificate_matches_the_induced_hull(config):
    lattice = enumerate_coherent_subdivisions(config)
    accepted = rejected = 0
    for s in lattice.payload:
        for eta in _probes(config, secondary_cone(config, s)):
            induced = induce_subdivision(config, Lifting.of(config, eta))
            got = certifies(config, s, eta)
            assert got == (induced.key == s.key)
            accepted += got
            rejected += not got
    assert accepted >= len(lattice.payload) and rejected > 0
    # both fine and coarse subdivisions are probed
    assert {is_triangulation(s) for s in lattice.payload} == {True, False}


@pytest.mark.parametrize("config", _configs())
def test_plane_certificate_refuses_a_cell_short_or_repeated(config):
    # a hand-built subdivision without one of its cells, or with another in
    # its place: every plane left is sound, so only the volumes refuse it
    for s in enumerate_coherent_subdivisions(config).payload:
        eta = _int_row(secondary_cone(config, s).interior_point)
        cells = list(s.maximal)
        if len(cells) < 2:
            continue
        damaged = [cells[:k] + cells[k + 1 :] for k in range(len(cells))]
        damaged.append(cells[:1] + cells[:1] + cells[2:])
        for maximal in damaged:
            _cell_planes(config, [sum(1 << i for i in mc.marks) for mc in maximal], eta)
            with pytest.raises(NoCertificateError):
                _cell_tops(config, Subdivision(config, maximal))


def test_realize_edge_lengths_refuses_a_complex_missing_a_cell():
    # the pentagon's fan from a_0 with its last triangle and that
    # triangle's chord left out: the planes of the two cells left and of
    # the one compact edge between them are sound
    config = ngon_configuration(4)
    fan = Subdivision(config, [MarkedCell({0, k, k + 1}) for k in (1, 2, 3)])
    p, s = dual_complex(config, secondary_cone(config, fan).interior_point)
    beta = admissible_alpha(config)
    kept = [mc for mc in s.maximal if mc.marks != frozenset({0, 3, 4})]
    cells = {m: c for m, c in p.cells.items() if m != frozenset({0, 3})}
    short = TropicalComplex(config, p.eta, Subdivision(config, kept), cells)
    assert list(_edge_offset(short, beta)) == [frozenset({0, 2})]
    target = EdgeLengthTarget({frozenset({0, 2}): F(3)})
    with pytest.raises(NoCertificateError, match="volumes do not add up"):
        realize_edge_lengths(short, beta, target)
    # the whole complex realizes the target on both edges
    target = EdgeLengthTarget({frozenset({0, 2}): F(3), frozenset({0, 3}): F(3)})
    p2, _ = dual_complex(config, realize_edge_lengths(p, beta, target))
    assert {m: v for m, (_, _, v) in _edge_offset(p2, beta).items()} == target.lengths


@pytest.mark.parametrize(
    "points",
    [SQUARE_CENTRE, PENTAGON_MIDEDGE, BIPYRAMID, 4, 5],
    ids=["square_centre", "pentagon_midedge", "bipyramid", "ngon4", "ngon5"],
)
def test_edge_offsets_match_the_fraction_supports(points):
    config = ngon_configuration(points) if isinstance(points, int) else build_configuration(points)
    rng = random.Random(len(config.points))
    d = config.dimension
    for _ in range(60):
        eta = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in config.points]
        p, s = dual_complex(config, eta)
        for _ in range(3):
            beta = tuple(F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(d))
            got = _edge_offset(p, beta)
            assert got == {m: edge_supports_oracle(s.maximal, m, beta) for m in got}
            compact = {c.marking for c in p.cells_of_dim(1) if not c.rays}
            assert set(got) == compact
