"""The coherent enumeration reads each non-triangulation off a face of a
triangulation cone, with no hull: for each strict that vanishes on the face,
the cells around its circuit that share a link merge and mark the whole
circuit, the local picture of the flip across it.  On every face sample of
every triangulation cone that gives the subdivision the sample induces, and
the walk, which certifies each flipped triangulation by its cone alone,
gives one that its witness induces, on the goldens, the polygons, their
extensions, a grid whose faces mark unused points, and the seeded corpus
(corpus.py).  On the same inputs and the cube with its centre, every face
gives the subdivision of the rule it replaced, which merged cells across
folded ridges and marked unused points by the sources each strict came from
(oracles.face_key_by_sources).  A cell that no vanishing circuit touches is
its triangulation's own marks set."""

from fractions import Fraction as F

import pytest

from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting_polytope import extend
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    Lifting,
    _face_subdivision,
    _folding_stricts,
    enumerate_coherent_subdivisions,
    enumerate_regular_triangulations,
    induce_subdivision,
)

from corpus import CASES, CONFIGURATIONS
from oracles import face_key_by_sources, folding_sources

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)
GRID = build_configuration([(i, j) for i in range(3) for j in range(3)])
CUBE = build_configuration(
    [(i, j, k) for i in (0, 2) for j in (0, 2) for k in (0, 2)] + [(1, 1, 1)]
)


def _inputs():
    bases = [
        ("quad", QUAD, (F(1, 3), F(1, 3))),
        ("bipyramid", BIPYRAMID, (F(1, 2), F(1, 3), F(1, 2))),
    ]
    for m in (3, 4, 5, 6):
        config = ngon_configuration(m)
        bases.append((f"ngon{m}", config, admissible_alpha(config)))
    out = [pytest.param(GRID, id="grid")]
    for name, config, alpha in bases:
        out.append(pytest.param(config, id=name))
        out.append(pytest.param(extend(config, alpha).extended, id=f"{name}-extended"))
    out += [pytest.param(config, id=f"corpus{k}") for k, config in enumerate(CONFIGURATIONS)]
    out += [
        pytest.param(extend(config, alpha).extended, id=f"{name}-extended")
        for name, config, alpha in CASES
        if name.endswith("-generic")
    ]
    return out


@pytest.mark.parametrize("config", _inputs())
def test_face_subdivisions_match_induced(config):
    induced = {}  # a face shared by two cones has one sample: induce it once
    new_marks = 0
    for k, (t, cone) in enumerate(enumerate_regular_triangulations(config).values()):
        assert induce_subdivision(config, Lifting(t.witness)).key == t.key
        # only the seed comes from a hull, with supports
        assert all((mc.support is None) == (k > 0) for mc in t.maximal)
        assert sorted(_folding_stricts(config, t)) == list(cone.stricts)
        unused = set(range(len(config.points))).difference(*(mc.marks for mc in t.maximal))
        for mask, _, sample in cone.graded_faces():
            s = _face_subdivision(t, cone, mask, sample)
            if sample not in induced:
                induced[sample] = induce_subdivision(config, Lifting.of(config, sample)).key
            assert s.key == induced[sample]
            assert s.witness == Lifting.of(config, sample).values
            assert all(mc.support is None for mc in s.maximal)
            # faces short of the lineality that mark a point t leaves unused
            new_marks += len(s.maximal) > 1 and any(mc.marks & unused for mc in s.maximal)
    if config == GRID:
        assert new_marks


def _golden_and_polygon_extensions():
    out = []
    for name, config, alpha in [
        ("quad", QUAD, (F(1, 3), F(1, 3))),
        ("bipyramid", BIPYRAMID, (F(1, 2), F(1, 3), F(1, 2))),
    ]:
        out.append(pytest.param(config, id=name))
        out.append(pytest.param(extend(config, alpha).extended, id=f"{name}-extended"))
    for m in (3, 4, 5):
        config = ngon_configuration(m)
        extended = extend(config, admissible_alpha(config)).extended
        out.append(pytest.param(extended, id=f"ngon{m}-extended"))
    return out


@pytest.mark.parametrize("config", _golden_and_polygon_extensions())
def test_enumerated_witnesses_are_int_samples(config):
    """Every enumerated subdivision but the seed, the one whose cells carry
    supports, has an int tuple as witness: its cone's ray sum or its face
    sample.  Each witness induces its subdivision."""
    seeds = 0
    for s in enumerate_coherent_subdivisions(config).payload:
        if s.maximal[0].support is not None:
            seeds += 1
            assert all(type(x) is F for x in s.witness)
        else:
            assert type(s.witness) is tuple and all(type(x) is int for x in s.witness)
        assert induce_subdivision(config, Lifting.of(config, s.witness)).key == s.key
    assert seeds == 1


@pytest.mark.parametrize("config", _inputs() + [pytest.param(CUBE, id="cube")])
def test_face_rule_matches_the_sources_rule(config):
    faces = 0
    for t, cone in enumerate_regular_triangulations(config).values():
        sources = folding_sources(t)
        for mask, _, sample in cone.graded_faces():
            want = face_key_by_sources(t, sources, cone, mask)
            assert _face_subdivision(t, cone, mask, sample).key == want
            faces += 1
    assert faces


@pytest.mark.parametrize(
    "config",
    [
        extend(QUAD, (F(1, 3), F(1, 3))).extended,
        extend(BIPYRAMID, (F(1, 2), F(1, 3), F(1, 2))).extended,
    ],
    ids=["quad-extended", "bipyramid-extended"],
)
def test_face_cells_share_their_triangulation_marks(config):
    """A face's cell that no vanishing circuit touches is its
    triangulation's own marks frozenset, not a copy."""
    shared = 0
    for t, cone in enumerate_regular_triangulations(config).values():
        own = {mc.marks: mc.marks for mc in t.maximal}
        for mask, _, sample in cone.graded_faces():
            for mc in _face_subdivision(t, cone, mask, sample).maximal:
                if mc.marks in own:
                    assert mc.marks is own[mc.marks]
                    shared += 1
    assert shared
