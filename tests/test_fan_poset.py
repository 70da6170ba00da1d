"""Both enumerators read the covers and the ranks off the face masks of their
fan's maximal cones.  The covers they give are those of the oracle closure
(oracles.py) of the orders that test every pair of elements, their ranks
match the oracles that certify one cone per element, and the shared routine
checks its cap before storing an element and rejects cones that rank one
face differently."""

from fractions import Fraction

import pytest

from tropaint import errors, painting, regular_subdivision
from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting import enumerate_painted_complexes
from tropaint.painting_polytope import extend
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    _fan_lattice,
    enumerate_coherent_subdivisions,
    enumerate_regular_triangulations,
)

from corpus import CASES, CONFIGURATIONS
from oracles import painted_pairs_and_ranks, poset_oracle, refinement_pairs, subdivision_rank
from test_flips import CONFIGS

F = Fraction
QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)


def _assert_oracle_lattice(lattice, pairs, ranks):
    """pairs are an order whose oracle closure has the lattice's covers, and
    ranks are the lattice's ranks."""
    _, clash, covers = poset_oracle(len(lattice), pairs)
    assert clash is None
    assert lattice.covers == frozenset(covers)
    assert lattice.ranks == tuple(ranks)


def _subdivision_inputs():
    out = list(CONFIGS)
    for m in (3, 4, 5):
        config = ngon_configuration(m)
        out.append(pytest.param(config, id=f"ngon{m}"))
    config = ngon_configuration(5)
    out.append(pytest.param(extend(config, admissible_alpha(config)).extended, id="ngon5-extended"))
    out += [pytest.param(config, id=f"corpus{k}") for k, config in enumerate(CONFIGURATIONS)]
    return out


@pytest.mark.parametrize("config", _subdivision_inputs())
def test_subdivision_order_and_ranks_match_oracles(config):
    lattice = enumerate_coherent_subdivisions(config)
    ranks = [subdivision_rank(config, s) for s in lattice.payload]
    _assert_oracle_lattice(lattice, refinement_pairs(lattice.payload), ranks)


def _painted_inputs():
    out = [
        pytest.param(QUAD, (F(1, 3), F(1, 3)), id="quad"),
        pytest.param(BIPYRAMID, (F(1, 2), F(1, 3), F(1, 2)), id="bipyramid"),
    ]
    for m in (3, 4, 5):
        config = ngon_configuration(m)
        out.append(pytest.param(config, admissible_alpha(config), id=f"ngon{m}"))
    out += [pytest.param(config, alpha, id=name) for name, config, alpha in CASES if "generic" in name]
    return out


@pytest.mark.parametrize("config, alpha", _painted_inputs())
def test_painted_order_and_ranks_match_oracles(config, alpha):
    lattice = enumerate_painted_complexes(config, alpha)
    _assert_oracle_lattice(lattice, *painted_pairs_and_ranks(lattice.payload))


def test_subdivision_cap_stops_before_storing_more(calls_to):
    tris = enumerate_regular_triangulations(QUAD)
    induces = calls_to(regular_subdivision.induce_subdivision)
    faces = calls_to(regular_subdivision._face_subdivision)
    with pytest.raises(errors.ResourceCapError, match=f"more than {len(tris)} subdivisions"):
        enumerate_coherent_subdivisions(QUAD, max_count=len(tris))
    # the walk induces only its seed, and the first face sample, read off
    # its cone with no hull, gives a new subdivision
    assert len(induces) == 1 and len(faces) == 1


def test_painted_cap_stops_before_storing_more(calls_to):
    paints = calls_to(painting._paint_at)
    with pytest.raises(errors.ResourceCapError, match="more than 5 painted complexes"):
        enumerate_painted_complexes(QUAD, (F(1, 3), F(1, 3)), max_count=5)
    # on the quad every face sample paints a complex of its own, so the sixth
    # one is over the cap
    assert len(paints) == 6


class _FakeCone:
    def __init__(self, faces):
        self.faces = faces

    def graded_faces(self):
        return self.faces


def test_fan_poset_rejects_cones_that_rank_one_face_differently():
    # the shared face (sample "b") is a facet of the first cone but the
    # lineality face of the second
    first = _FakeCone([(0, 0, "a"), (1, 1, "b"), (3, 2, "c")])
    second = _FakeCone([(0, 0, "b"), (1, 1, "d"), (3, 2, "e")])
    with pytest.raises(errors.InconsistencyError, match="different ranks"):
        pairs = [(None, first), (None, second)]
        _fan_lattice(pairs, {}, {}, lambda x, t, cone, mask: (x, x), None, 10, "faces")
