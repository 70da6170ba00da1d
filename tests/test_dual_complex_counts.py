"""Each lifting gets one dual complex: painting reads the complex it is
given, the painted enumeration builds one per lifting it meets, edge-length
realization corrects every edge from its input complex and certifies the
result on integer planes, with no hull, no dual complex and no cone, the
painted-tree realization builds a tree's seed complex only when it corrects
edge lengths and induces no realized lifting, and the main-theorem
check builds no hull and no dual complex beyond its two enumerations.  A dual
complex builds one hull, in integers from the configuration's rows to the
supports, seeded by one rank pass per configuration, and its cells read
their dimensions and vertices off incidences, a simplex's with no closure.
Painting evaluates g once per 0-cell."""

from fractions import Fraction

from tropaint import geometry, painting, painting_polytope, regular_subdivision, tropical_dual
from tropaint.multiplihedra import (
    EdgeLengthTarget,
    PaintedTree,
    _edge_offset,
    _painted_variants,
    _tree_shapes,
    admissible_alpha,
    ngon_configuration,
    realize_edge_lengths,
    realize_painted_tree,
)
from tropaint.painting import PaintSpec, enumerate_painted_complexes, paint
from tropaint.painting_polytope import extend, verify_main_theorem
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import Lifting, induce_subdivision, is_triangulation
from tropaint.tropical_dual import dual_complex

F = Fraction
QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
ALPHA = (F(1, 3), F(1, 3))


def test_paint_builds_no_dual_complex(calls_to):
    p, _ = dual_complex(QUAD, [-1, 1, 0, 2, 0])
    calls = calls_to(tropical_dual.dual_complex)
    for c in (F(-2), F(0), F(1, 2)):
        paint(p, PaintSpec.of(QUAD, [-1, 1, 0, 2, 0], c, ALPHA))
    assert calls == []


def test_realize_edge_lengths_builds_no_dual_complex(calls_to):
    config = ngon_configuration(5)
    beta = admissible_alpha(config)
    # a triangulation of the hexagon: three compact edges
    p, _ = dual_complex(config, [0, 7, -3, 5, -2, 9])
    edges = _edge_offset(p, beta)
    assert len(edges) == 3
    target = EdgeLengthTarget({m: F(5, k + 2) for k, m in enumerate(edges)})
    complexes = calls_to(tropical_dual.dual_complex)
    induced = calls_to(regular_subdivision.induce_subdivision)
    hulls = calls_to(geometry._upper_hull)
    cones = calls_to(regular_subdivision.secondary_cone)
    realize_edge_lengths(p, beta, target)
    # no hull and no cone: the realized lifting's plane over each of p's
    # cells and the cells' volumes certify that it induces p's cells, which
    # is membership in p's open secondary cone
    assert complexes == [] and cones == []
    assert induced == [] and hulls == []


def test_painted_enumeration_builds_one_dual_complex_per_lifting(calls_to):
    calls = calls_to(tropical_dual.dual_complex)
    enumerate_painted_complexes(QUAD, ALPHA)
    liftings = [args[1].values for _, args in calls]
    # 45 face samples, several at one lifting with different levels
    assert len(liftings) == len(set(liftings)) == 27


def test_painted_tree_realization_builds_each_complex_once(calls_to):
    trees = [PaintedTree(e) for s in _tree_shapes(4) for e in _painted_variants(s, True)]
    calls = calls_to(tropical_dual.dual_complex)
    induced = calls_to(regular_subdivision.induce_subdivision)
    for t in trees:
        realize_painted_tree(t, 4)
    # a seed complex per tree whose paint reaches below the root vertex, the
    # 22 others return the seed itself; each realized lifting's root value is
    # read off a circuit, with no complex and no hull
    assert len(trees) == 67 and len(calls) == 45
    # no hull of a realized lifting: realize_edge_lengths certifies on
    # integer planes, so the only hulls are the 45 seed complexes'
    assert [caller for caller, _ in induced] == ["tropaint.tropical_dual"] * 45


def test_verify_main_theorem_builds_no_extended_hull(calls_to, monkeypatch):
    ext = extend(QUAD, ALPHA).extended
    complexes = calls_to(tropical_dual.dual_complex)
    induced = calls_to(regular_subdivision.induce_subdivision)
    hulls = calls_to(geometry._upper_hull)
    enumerated = []
    real = painting_polytope.enumerate_coherent_subdivisions

    def enumerate_and_count(*args):
        lattice = real(*args)
        enumerated.append(len(hulls))
        return lattice

    monkeypatch.setattr(painting_polytope, "enumerate_coherent_subdivisions", enumerate_and_count)
    verify_main_theorem(QUAD, ALPHA)
    # no extended dual complex and no induced hull: the 0-cells upstairs are
    # certified by argmins at their slopes and a walked triangulation that
    # the predicted cells cover
    assert not [args for _, args in complexes if args[0] == ext]
    assert [caller for caller, _ in induced if caller == "tropaint.painting_polytope"] == []
    # the painted enumeration runs first, so after the extended one returns
    # no hull is built on either configuration
    assert len(enumerated) == 1 and hulls[enumerated[0] :] == []


# liftings of the extended quad, some inducing triangulations and some not
EXTENDED_LIFTINGS = [
    [-1, 1, 0, 2, 0, 0, 0],
    [-1, 1, 0, 2, 0, 1, 1],
    [0, 0, 0, 0, 0, -1, 3],
    [3, -2, 5, 1, 7, F(1, 2), F(1, 2)],
]


def test_dual_complex_builds_one_hull_per_lifting(calls_to):
    ext = extend(QUAD, ALPHA).extended
    hulls = calls_to(geometry._simplicial_hull)
    ranks = calls_to(geometry.independent_rows)
    triangulations = 0
    for eta in EXTENDED_LIFTINGS:
        p, s = dual_complex(ext, eta)
        for marks, cell in s.cells.items():
            assert p.cells[marks].dimension == ext.dimension - cell.dim()
            assert cell.vertices
        triangulations += is_triangulation(s)
    assert 0 < triangulations < len(EXTENDED_LIFTINGS)
    # one beneath-beyond hull per lifting, and no rank pass: the hulls'
    # spanning simplex was picked as the configuration was built, and the
    # cells take neither
    assert len(hulls) == len(EXTENDED_LIFTINGS)
    assert ranks == []


def test_triangulation_cells_take_no_closure(calls_to):
    ext = extend(QUAD, ALPHA).extended
    closures = calls_to(geometry.intersection_closure)
    for eta in EXTENDED_LIFTINGS:
        s = induce_subdivision(ext, Lifting.of(ext, eta))
        s.cells
        # a simplex's faces are its submasks: only the other cells close
        others = [mc for mc in s.maximal if len(mc.marks) > ext.dimension + 1]
        assert len(closures) == len(others)
        assert is_triangulation(s) == (not others)
        closures.clear()


def test_dual_complex_stays_in_integers(calls_to):
    ext = extend(QUAD, ALPHA).extended
    echelons = calls_to(geometry._echelon)
    for eta in EXTENDED_LIFTINGS:
        p, s = dual_complex(ext, eta)
        # the cells run on bitmasks inside; their keys stay frozensets
        assert all(type(marks) is frozenset for marks in s.cells)
        assert all(type(cell.marks) is frozenset for cell in s.cells.values())
        assert set(p.cells) == set(s.cells)
    # facet normals are signed minors, supports come straight off the
    # integer hull
    assert echelons == []


def test_upper_hull_takes_one_rank_pass(calls_to):
    # the last lifting is flat
    liftings = [[-1, 1, 0, 2, 0], [3, -2, 5, 1, 7], [0, 0, 0, 0, F(1, 2)], [0, 1, 2, -1, -3]]
    ranks = calls_to(geometry.independent_rows)
    affine = calls_to(geometry.affine_rank)
    quad = build_configuration(QUAD.points)
    for eta in liftings:
        induce_subdivision(quad, Lifting.of(quad, eta))
    # the one pass is the configuration's spanning simplex, which checks its
    # span as it is built and seeds every hull, the flat lifting's included
    assert len(ranks) == 1 and affine == []


def test_paint_evaluates_g_once_per_vertex(calls_to):
    comparisons = calls_to(painting._comparison)
    vertices = 0
    for eta in ([-1, 1, 0, 2, 0], [-1, 0, 0, 0, 0], [3, -2, 5, 1, 7]):
        p, _ = dual_complex(QUAD, eta)
        for c in (F(-2), F(0), F(1, 2)):
            paint(p, PaintSpec.of(QUAD, eta, c, ALPHA))
        vertices += 3 * len(p.cells_of_dim(0))
    assert len(comparisons) == vertices
