"""Both enumerators read the order and the ranks off the face masks of their
fan's maximal cones.  The up-sets and ranks they give match the oracles
(oracles.py) that test every pair of elements and certify one cone per
element, and the shared routine checks its cap before storing an element
and rejects cones that rank one face differently."""

from fractions import Fraction

import pytest

from tropaint import errors, painting, regular_subdivision
from tropaint.lattice import Poset
from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting import enumerate_painted_complexes
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    _fan_poset,
    enumerate_coherent_subdivisions,
    enumerate_regular_triangulations,
)
from tropaint.secondary_polytope import face_lattice_from_poset

from oracles import painted_pairs_and_ranks, refinement_pairs, subdivision_rank
from test_flips import CONFIGS

F = Fraction
QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)


def _strict_pairs(poset):
    n = len(poset)
    return {(i, j) for i in range(n) for j in range(n) if i != j and poset.le(i, j)}


@pytest.mark.parametrize("config", CONFIGS)
def test_subdivision_order_and_ranks_match_oracles(config):
    poset = enumerate_coherent_subdivisions(config)
    assert _strict_pairs(poset) == refinement_pairs(poset.elements)
    assert poset.ranks == tuple(subdivision_rank(config, s) for s in poset.elements)


def _painted_inputs():
    out = [
        pytest.param(QUAD, (F(1, 3), F(1, 3)), id="quad"),
        pytest.param(BIPYRAMID, (F(1, 2), F(1, 3), F(1, 2)), id="bipyramid"),
    ]
    for m in (3, 4):
        config = ngon_configuration(m)
        out.append(pytest.param(config, admissible_alpha(config), id=f"ngon{m}"))
    return out


@pytest.mark.parametrize("config, alpha", _painted_inputs())
def test_painted_order_and_ranks_match_oracles(config, alpha):
    poset = enumerate_painted_complexes(config, alpha)
    pairs, ranks = painted_pairs_and_ranks(poset.elements)
    assert _strict_pairs(poset) == pairs
    assert poset.ranks == tuple(ranks)


def test_subdivision_cap_stops_before_storing_more(calls_to):
    tris = enumerate_regular_triangulations(QUAD)
    induces = calls_to(regular_subdivision.induce_subdivision)
    faces = calls_to(regular_subdivision._face_subdivision)
    with pytest.raises(errors.ResourceCapError, match=f"more than {len(tris)} subdivisions"):
        enumerate_coherent_subdivisions(QUAD, max_count=len(tris))
    # the walk induces one subdivision per triangulation, and the first face
    # sample, read off its cone with no hull, gives a new subdivision
    assert len(induces) == len(tris) and len(faces) == 1


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
        _fan_poset([first, second], {}, {}, lambda x, cone, mask: (x, x), None, 10, "faces")


def test_face_lattice_needs_ranks():
    poset = enumerate_coherent_subdivisions(QUAD)
    assert face_lattice_from_poset(poset).ranks == poset.ranks
    with pytest.raises(errors.InputError, match="no ranks"):
        face_lattice_from_poset(Poset(poset.elements, []))
