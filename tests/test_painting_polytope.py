"""Extended configurations, the lifting embedding, and main-theorem checks,
on the goldens, the polygons and the seeded corpus (corpus.py).  The
certificate of the 0-cells upstairs agrees with one induced hull per painted
complex (oracles.py) and fails when a prediction is wrong, the cover part
alone included."""

import dataclasses
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropaint import painting_polytope
from tropaint.errors import InputError, VerificationError
from tropaint.lattice import graded_lattice
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
from tropaint.regular_subdivision import MarkedCell, Subdivision, induce_subdivision
from tropaint.tropical_dual import dual_complex

from corpus import CASES
from oracles import extended_cells_by_hull

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


def _verify_against_hull(config, alpha):
    """verify_main_theorem, checked against the hull of each embedded
    lifting: the same extended subdivision, and 0-cells upstairs equal to
    the predicted ones the certificate checked."""
    report = verify_main_theorem(config, alpha)
    by_hull = extended_cells_by_hull(report)
    assert [j for j, _ in by_hull] == list(report.constructive_map)
    expected = [_expected_extended_vertices(report.extension, pc) for pc in report.painted_poset.payload]
    assert [cells for _, cells in by_hull] == expected
    assert report.vertex_checks == sum(map(len, expected))


@pytest.mark.parametrize(
    "config, alpha", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_verify_corpus(config, alpha):
    # raises VerificationError at the first part of the check that fails
    _verify_against_hull(config, alpha)


def _named_inputs():
    out = [
        pytest.param(QUAD, ALPHA, id="quad"),
        pytest.param(BIPYRAMID, ALPHA3, id="bipyramid"),
    ]
    for m in (3, 4, 5):
        config = ngon_configuration(m)
        out.append(pytest.param(config, admissible_alpha(config), id=f"ngon{m}"))
    return out


@pytest.mark.parametrize("config, alpha", _named_inputs())
def test_certificate_matches_hull(config, alpha):
    _verify_against_hull(config, alpha)


def _swap_tower(monkeypatch):
    real = painting_polytope._lift

    def swapped(ext, spec, u, marking):
        pos, marks = real(ext, spec, u, marking)
        tower = {ext.rho: ext.beta, ext.beta: ext.rho}
        return pos, frozenset(tower.get(i, i) for i in marks)

    monkeypatch.setattr(painting_polytope, "_lift", swapped)


def _predict(monkeypatch, change):
    real = painting_polytope._expected_extended_vertices
    monkeypatch.setattr(
        painting_polytope, "_expected_extended_vertices", lambda ext, pc: change(real(ext, pc))
    )


def _lose_cell(cells):
    return cells - {max(cells)}


def _drop_cell(monkeypatch):
    _predict(monkeypatch, _lose_cell)


def _shift_height(monkeypatch):
    def shifted(cells):
        u, marks = min(cells)
        return cells - {(u, marks)} | {(u[:-1] + (u[-1] + F(1, 7),), marks)}

    _predict(monkeypatch, shifted)


@pytest.mark.parametrize("mutate", [_swap_tower, _drop_cell, _shift_height])
def test_wrong_predictions_fail_the_certificate(monkeypatch, mutate):
    mutate(monkeypatch)
    with pytest.raises(VerificationError):
        verify_main_theorem(QUAD, ALPHA)


def _add_face(cells):
    # two distinct cells meet in a proper face, which holds no simplex; the
    # argmin at the midpoint of their slopes is exactly that face
    (u1, m1), (u2, m2) = max(combinations(sorted(cells), 2), key=lambda p: len(p[0][1] & p[1][1]))
    return cells | {(tuple((x + y) / 2 for x, y in zip(u1, u2)), m1 & m2)}


@pytest.mark.parametrize(
    "damage, message",
    [(_lose_cell, "lies in no predicted cell"), (_add_face, "hold no simplex")],
    ids=["lost-cell", "added-face"],
)
def test_cover_certificate_alone_catches_a_damaged_subdivision(monkeypatch, damage, message):
    # one coarse extended subdivision and its prediction are damaged alike:
    # the key and the argmins still agree, and only the walked triangulation
    # below the subdivision shows the damage
    report = verify_main_theorem(QUAD, ALPHA)
    painted = report.painted_poset
    predictions = [_expected_extended_vertices(report.extension, pc) for pc in painted.payload]
    i = next(i for i, cells in enumerate(predictions) if painted.ranks[i] and len(cells) > 1)
    j = report.constructive_map[i]
    damaged = damage(predictions[i])
    real_predict = painting_polytope._expected_extended_vertices
    real_enumerate = painting_polytope.enumerate_coherent_subdivisions

    def predict(ext, pc):
        cells = real_predict(ext, pc)
        return damaged if cells == predictions[i] else cells

    def enumerate_damaged(config):
        lattice = real_enumerate(config)
        payload = list(lattice.payload)
        cells = (MarkedCell(m) for _, m in damaged)
        payload[j] = Subdivision(config, tuple(cells))
        return dataclasses.replace(lattice, payload=tuple(payload))

    monkeypatch.setattr(painting_polytope, "_expected_extended_vertices", predict)
    monkeypatch.setattr(painting_polytope, "enumerate_coherent_subdivisions", enumerate_damaged)
    with pytest.raises(VerificationError, match=message):
        verify_main_theorem(QUAD, ALPHA)


def _damage(monkeypatch, name, damage):
    """Make painting_polytope's name give damage(its real result)."""
    real = getattr(painting_polytope, name)
    monkeypatch.setattr(painting_polytope, name, lambda *args: damage(real(*args)))


def _with_payload(lattice, moves):
    """The lattice whose payload entry i is its real entry moves[i]."""
    payload = list(lattice.payload)
    for i, source in moves.items():
        payload[i] = lattice.payload[source]
    return dataclasses.replace(lattice, payload=tuple(payload))


def test_refusals_name_the_failed_check(monkeypatch):
    """Each refusal that the goldens, the polygons and the corpus never
    reach, met by patching in a damaged lattice or map."""
    report = verify_main_theorem(QUAD, ALPHA)
    painted, spos = report.painted_poset, report.subdivision_poset
    j = report.constructive_map[0]
    k = next(i for i, r in enumerate(spos.ranks) if r != spos.ranks[j])
    # two edges of the painting polytope with different endpoints
    down = painted.down_adjacency()
    a = painted.ranks.index(1)
    b = next(i for i, r in enumerate(painted.ranks) if r == 1 and down[i] != down[a])
    cases = [
        ("enumerate_coherent_subdivisions", lambda lat: graded_lattice([0], []),
         "45 painted complexes vs 1 extended subdivisions"),
        ("enumerate_coherent_subdivisions",
         lambda lat: dataclasses.replace(lat, covers=lat.covers - {min(lat.covers)}),
         "posets admit no rank-preserving isomorphism"),
        ("enumerate_coherent_subdivisions", lambda lat: _with_payload(lat, {j: k, k: j}),
         "rank mismatch at painted complex 0"),
        ("enumerate_painted_complexes", lambda lat: _with_payload(lat, {a: b}),
         "embedding map is not injective"),
        ("enumerate_painted_complexes", lambda lat: _with_payload(lat, {a: b, b: a}),
         "covers differ at extended subdivisions"),
        ("secondary_polytope_vertices", lambda verts: verts[1:],
         "13 polytope vertices vs 14 painted chambers"),
    ]
    for name, damage, message in cases:
        with monkeypatch.context() as patch:
            _damage(patch, name, damage)
            with pytest.raises(VerificationError, match=message):
                verify_main_theorem(QUAD, ALPHA)


def _vertex_inputs():
    return _named_inputs() + [
        pytest.param(config, alpha, id=name)
        for name, config, alpha in CASES
        if name.endswith("-generic")
    ]


@pytest.mark.parametrize("config, alpha", _vertex_inputs())
def test_extended_zero_cells_read_off_supports(config, alpha):
    # the 0-cells upstairs are the slopes and marks of the maximal cells of
    # one induced subdivision: the extended dual complex has the same ones
    ext = extend(config, alpha).extended
    for pc in enumerate_painted_complexes(config, alpha).payload:
        eta = embed_lifting(pc.spec)
        pext, _ = dual_complex(ext, eta)
        expected = {(cell.vertices[0], cell.marking) for cell in pext.cells_of_dim(0)}
        sbar = induce_subdivision(ext, eta)
        assert {(mc.support.linear, mc.marks) for mc in sbar.maximal} == expected
