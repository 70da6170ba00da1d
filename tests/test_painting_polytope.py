"""Extended configurations, the lifting embedding, and main-theorem checks,
on the goldens, the polygons and the seeded corpus (corpus.py)."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropaint.errors import InputError
from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting import BLUE, PURPLE, RED, PaintSpec, enumerate_painted_complexes, paint
from tropaint.painting_polytope import (
    _expected_extended_vertices,
    _lift,
    embed_lifting,
    extend,
    verify_main_theorem,
)
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import induce_subdivision
from tropaint.tropical_dual import dual_complex

from corpus import CASES

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)
SEGMENT = build_configuration([(0,), (1,)])
ALPHA = (F(1, 3), F(1, 3))
ALPHA3 = (F(1, 2), F(1, 3), F(1, 2))
STAR = [-1, 0, 0, 0, 0]


def test_extend_shapes():
    ext = extend(QUAD, ALPHA)
    assert len(ext.extended.points) == 7
    assert ext.extended.dimension == 3
    assert ext.extended.points[ext.rho] == (F(1, 3), F(1, 3), F(1))
    assert ext.extended.points[ext.beta] == (F(1, 3), F(1, 3), F(2))
    assert ext.extended.labels[5:] == ("rho", "beta")
    assert extend(BIPYRAMID, ALPHA3).extended.dimension == 4
    seg = extend(SEGMENT, (F(1, 2),))
    assert len(seg.extended.points) == 4 and seg.extended.dimension == 2
    with pytest.raises(InputError):
        extend(QUAD, (F(1, 2),))


def test_embed_lifting_values():
    zero = PaintSpec.of(QUAD, [0, 0, 0, 0, 0], 0, ALPHA)
    assert embed_lifting(zero).values == (F(0),) * 7
    star = PaintSpec.of(QUAD, STAR, F(-1), ALPHA)
    xi = embed_lifting(star)
    assert xi.values == (F(-1), F(0), F(0), F(0), F(0), F(-1), F(-1))
    # slicing recovers the pair
    assert xi.values[:5] == star.eta.values and xi.values[5] == xi.values[6] == star.c


def test_lifted_vertex_by_color():
    ext = extend(QUAD, ALPHA)
    spec = PaintSpec.of(QUAD, STAR, F(-1), ALPHA)
    p, _ = dual_complex(QUAD, STAR)
    zero_cells = {c.vertices[0]: c.marking for c in p.cells_of_dim(0)}

    def lifted(u):
        return _lift(ext, spec, u, zero_cells[u])

    pos, marking = lifted((F(-1), F(-1)))
    assert pos == (F(-1), F(-1), F(2, 3))
    assert marking == frozenset({0, 1, 2, ext.rho})
    pos, marking = lifted((F(1), F(-1)))
    assert pos == (F(1), F(-1), F(0))
    assert marking == frozenset({0, 2, 3, ext.rho, ext.beta})
    pos, marking = lifted((F(1), F(0)))
    assert pos == (F(1), F(0), F(-1, 6))
    assert marking == frozenset({0, 3, 4, ext.beta})


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=5, max_size=5), st.integers(-6, 6))
def test_extended_zero_cells_classify_exhaustively(eta, c):
    # every 0-cell upstairs is a lifted base 0-cell or the zero on a purple
    # 1-cell, and all predicted ones occur
    ext = extend(QUAD, ALPHA)
    spec = PaintSpec.of(QUAD, eta, c, ALPHA)
    p, _ = dual_complex(QUAD, eta)
    painted = paint(p, spec)
    pext, _ = dual_complex(ext.extended, embed_lifting(spec))
    actual = {(cell.vertices[0], cell.marking) for cell in pext.cells_of_dim(0)}
    assert actual == _expected_extended_vertices(ext, painted)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=5, max_size=5), st.integers(-5, 5))
def test_lifted_height_sign_matches_color(eta, c):
    ext = extend(QUAD, ALPHA)
    spec = PaintSpec.of(QUAD, eta, c, ALPHA)
    p, _ = dual_complex(QUAD, eta)
    painted = paint(p, spec)
    for cell in p.cells_of_dim(0):
        pos, marking = _lift(ext, spec, cell.vertices[0], cell.marking)
        d = pos[-1]
        col = painted.kappa[cell.marking]
        assert (d > 0) == (col == RED)
        assert (d == 0) == (col == PURPLE)
        assert (d < 0) == (col == BLUE)
        assert (ext.rho in marking) == (col in (RED, PURPLE))
        assert (ext.beta in marking) == (col in (BLUE, PURPLE))


def test_verify_segment():
    rep = verify_main_theorem(SEGMENT, (F(1, 2),))
    assert len(rep.constructive_map) == 3
    assert rep.polytope_dimension == 1
    assert rep.polytope_vertex_count == 2
    assert sorted(rep.painted_poset.ranks) == [0, 0, 1]


def test_verify_quad():
    rep = verify_main_theorem(QUAD, ALPHA)
    assert len(rep.constructive_map) == 45
    assert rep.polytope_dimension == 3
    assert rep.polytope_vertex_count == 14
    counts = rep.painted_poset.rank_counts()
    assert counts == {0: 14, 1: 21, 2: 9, 3: 1}


def test_verify_bipyramid():
    rep = verify_main_theorem(BIPYRAMID, ALPHA3)
    assert len(rep.constructive_map) == 15
    assert rep.polytope_dimension == 2
    assert rep.polytope_vertex_count == 7
    counts = rep.painted_poset.rank_counts()
    # a heptagon: seven vertices, seven edges, one polygon
    assert counts == {0: 7, 1: 7, 2: 1}


@pytest.mark.parametrize(
    "config, alpha", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_verify_corpus(config, alpha):
    # raises VerificationError at the first part of the check that fails
    verify_main_theorem(config, alpha)


def _vertex_inputs():
    out = [
        pytest.param(QUAD, ALPHA, id="quad"),
        pytest.param(BIPYRAMID, ALPHA3, id="bipyramid"),
    ]
    for m in (3, 4, 5):
        config = ngon_configuration(m)
        out.append(pytest.param(config, admissible_alpha(config), id=f"ngon{m}"))
    out += [
        pytest.param(config, alpha, id=name)
        for name, config, alpha in CASES
        if name.endswith("-generic")
    ]
    return out


@pytest.mark.parametrize("config, alpha", _vertex_inputs())
def test_extended_zero_cells_read_off_supports(config, alpha):
    # verify_main_theorem reads the 0-cells upstairs off the maximal cells of
    # one induced subdivision: the extended dual complex has the same ones
    ext = extend(config, alpha).extended
    for pc in enumerate_painted_complexes(config, alpha).payload:
        eta = embed_lifting(pc.spec)
        pext, _ = dual_complex(ext, eta)
        expected = {(cell.vertices[0], cell.marking) for cell in pext.cells_of_dim(0)}
        sbar = induce_subdivision(ext, eta)
        assert {(mc.support.linear, mc.marks) for mc in sbar.maximal} == expected
