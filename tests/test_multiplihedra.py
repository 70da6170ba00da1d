"""Tree duals of polygon subdivisions, painted trees, and multiplihedra."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropaint import geometry, multiplihedra
from tropaint.errors import InconsistencyError, InputError, ResourceCapError, VerificationError
from tropaint.lattice import graded_lattice, lattice_isomorphic
from tropaint.multiplihedra import (
    PAINTED,
    SPLIT,
    UNPAINTED,
    EdgeLengthTarget,
    PaintedTree,
    _edge_offset,
    _on_some_diagonal,
    _painted_variants,
    _planar_tree,
    _single_moves,
    _subdivision_of_shape,
    _tree_label,
    _tree_rank,
    _tree_shapes,
    admissible_alpha,
    multiplihedron_lattice,
    ngon_configuration,
    painted_tree_of,
    realize_edge_lengths,
    realize_painted_tree,
    verify_multiplihedron_theorem,
)
from tropaint.painting import RED, PaintSpec, enumerate_painted_complexes, paint, painting_cone
from tropaint.point_config import build_configuration, sign_vector
from tropaint.regular_subdivision import Lifting, secondary_cone
from tropaint.tropical_dual import TropicalPolynomial, dual_complex, evaluate

from oracles import (
    on_some_diagonal_oracle,
    painted_binary_tree_count,
    painted_tree_level_by_dual_complex,
    planar_tree_by_angles,
    polygon_subdivisions,
    poset_oracle,
    realize_edge_lengths_sequential,
)

ZERO = Fraction(0)


def complex_of_shape(m, shape):
    config = ngon_configuration(m)
    s = _subdivision_of_shape(config, shape)
    seed = secondary_cone(config, s).interior_point
    p, _ = dual_complex(config, seed)
    return config, p


def all_painted_trees(m):
    out = []
    for shape in _tree_shapes(m):
        out.extend(PaintedTree(e) for e in _painted_variants(shape, True))
    return out


def test_ngon_configuration():
    tri = ngon_configuration(2)
    assert [tuple(map(int, p)) for p in tri.points] == [(0, 0), (1, 1), (2, 4)]
    square = ngon_configuration(3)
    # counterclockwise convex position: boundary edges are consecutive pairs
    members = {frozenset(f.members) for f in square.facets}
    assert members == {
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({0, 3}),
    }
    with pytest.raises(InputError):
        ngon_configuration(1)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_admissible_alpha_sign_pattern(m):
    config = ngon_configuration(m)
    alpha = admissible_alpha(config)
    signs = sign_vector(config, alpha)
    root = frozenset({0, m})
    for facet, s in zip(config.facets, signs.signs):
        assert s == (1 if frozenset(facet.members) == root else -1)
    # exact off-diagonal check: the diagonal through a_i, a_j is y=(i+j)x-ij
    for i in range(m + 1):
        for j in range(i + 2, m + 1):
            if (i, j) == (0, m):
                continue
            assert alpha[1] != (i + j) * alpha[0] - i * j


def tree_shape(node):
    return tuple(() if child is None else tree_shape(child) for _, child in node[1])


def tree_leaves(node):
    out = []
    for marking, child in node[1]:
        out += [marking] if child is None else tree_leaves(child)
    return out


def tree_edges(node, depth=0):
    """(parent, child, chord marking, depth of parent) per compact edge."""
    out = []
    for marking, child in node[1]:
        if child is not None:
            out.append((node, child, marking, depth))
            out += tree_edges(child, depth + 1)
    return out


def test_tree_of_snake_square():
    config, p = complex_of_shape(3, ((), ((), ())))
    root = _planar_tree(p.subdivision)
    assert tree_shape(root) == ((), ((), ()))
    assert root[0] == frozenset({0, 1, 3})
    assert tree_leaves(root) == [frozenset({i, i + 1}) for i in range(3)]
    edges = tree_edges(root)
    assert len(edges) == 1
    _, child, marking, depth = edges[0]
    assert child[0] == frozenset({1, 2, 3})
    assert marking == frozenset({1, 3}) and depth == 0


def test_tree_of_trivial_triangle():
    config, p = complex_of_shape(2, ((), ()))
    root = _planar_tree(p.subdivision)
    assert tree_shape(root) == ((), ())
    assert root[0] == frozenset({0, 1, 2})
    assert tree_edges(root) == []


@pytest.mark.parametrize("m", [3, 4])
def test_tree_shape_round_trip(m):
    for shape in _tree_shapes(m):
        config, p = complex_of_shape(m, shape)
        root = _planar_tree(p.subdivision)
        assert tree_shape(root) == shape
        assert tree_leaves(root) == [frozenset({i, i + 1}) for i in range(m)]
        # one node per polygon cell
        assert len(tree_edges(root)) + 1 == len(p.subdivision.maximal)


def polygon_complexes():
    """150 seeded random liftings of each polygon with 3 to 8 vertices, and
    the seed lifting of every tree shape with at most 5 leaves."""
    for m in range(2, 8):
        config = ngon_configuration(m)
        rng = random.Random(m)
        for _ in range(150):
            yield dual_complex(config, [Fraction(rng.randint(-20, 20)) for _ in range(m + 1)])[0]
    for m in range(2, 6):
        for shape in _tree_shapes(m):
            yield complex_of_shape(m, shape)[1]


def test_planar_tree_matches_tree_by_angles():
    count = 0
    for p in polygon_complexes():
        assert _planar_tree(p.subdivision) == planar_tree_by_angles(p)
        count += 1
    assert count == 960


def test_tree_rejects_non_polygon():
    square_with_center = build_configuration(
        [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    )
    eta = Lifting((ZERO, ZERO, ZERO, ZERO, Fraction(-1)))
    p, _ = dual_complex(square_with_center, eta)
    with pytest.raises(InputError):
        _planar_tree(p.subdivision)
    with pytest.raises(InputError):
        planar_tree_by_angles(p)
    clockwise = build_configuration([(k, -k * k) for k in range(5)])
    p, _ = dual_complex(clockwise, [Fraction(k) for k in (3, -1, 0, 2, 1)])
    with pytest.raises(InputError, match="counterclockwise"):
        _planar_tree(p.subdivision)


def test_shape_counts_match_polygon_subdivision_oracle():
    for m in (2, 3, 4, 5):
        assert len(_tree_shapes(m)) == len(polygon_subdivisions(m + 1))


def test_painted_tree_validation():
    leaf_u = (UNPAINTED, None)
    leaf_s = (SPLIT, None)
    PaintedTree((PAINTED, (leaf_s, leaf_s)))
    PaintedTree((SPLIT, (leaf_u, leaf_u)))
    # root half-edge cannot be unpainted
    with pytest.raises(InputError):
        PaintedTree((UNPAINTED, (leaf_u, leaf_u)))
    # leaves cannot be fully painted
    with pytest.raises(InputError):
        PaintedTree((PAINTED, ((PAINTED, None), leaf_s)))
    # below a split edge everything is unpainted
    with pytest.raises(InputError):
        PaintedTree((SPLIT, (leaf_s, leaf_u)))
    # children must agree on whether paint reaches them
    with pytest.raises(InputError):
        PaintedTree((PAINTED, (leaf_s, (UNPAINTED, (leaf_u, leaf_u)))))
    # no unary nodes
    with pytest.raises(InputError):
        PaintedTree((PAINTED, ((SPLIT, (leaf_u, leaf_u)),)))


def test_painted_tree_leaf_count_and_labels():
    t = PaintedTree((PAINTED, ((SPLIT, None), (PAINTED, ((UNPAINTED, None),) * 2))))
    assert t.leaf_count == 3
    assert t.shape() == ((), ((), ()))
    assert _tree_label(t.encoding) == "P(S,P(U,U))"


def test_multiplihedron_lattice_segment():
    lat = multiplihedron_lattice(2)
    assert len(lat) == 3
    assert lat.rank_counts() == {0: 2, 1: 1}
    labels = set(lat.payload)
    assert labels == {"P(S,S)", "S(U,U)", "P(U,U)"}


def test_multiplihedron_lattice_hexagon():
    lat = multiplihedron_lattice(3)
    assert len(lat) == 13
    assert lat.rank_counts() == {0: 6, 1: 6, 2: 1}
    # a hexagon: every vertex under two edges, every edge under the top face
    up = lat.up_adjacency()
    for i in range(13):
        assert len(up[i]) == {0: 2, 1: 1, 2: 0}[lat.ranks[i]]


def test_multiplihedron_lattice_counts():
    for m, expected in ((2, 2), (3, 6), (4, 21), (5, 80)):
        lat = multiplihedron_lattice(m)
        assert lat.rank_counts()[0] == expected == painted_binary_tree_count(m)
    lat4 = multiplihedron_lattice(4)
    assert lat4.rank_counts() == {0: 21, 1: 32, 2: 13, 3: 1}
    # boundary of a 3-polytope
    assert 21 - 32 + 13 == 2
    lat5 = multiplihedron_lattice(5)
    assert lat5.rank_counts() == {0: 80, 1: 165, 2: 110, 3: 25, 4: 1}
    assert 80 - 165 + 110 - 25 == 0
    with pytest.raises(ResourceCapError, match="at most 5 leaves"):
        multiplihedron_lattice(6)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_single_moves_are_the_covers_of_their_closure(m):
    # m = 6 lies past the lattice's leaf cap, so its trees come straight
    # from the shapes; there are 2, 18, 141, 1079 and 8252 moves
    trees = [t for s in _tree_shapes(m) for t in _painted_variants(s, True)]
    index = {t: i for i, t in enumerate(trees)}
    moves = {(index[t], index[u]) for t in trees for u in _single_moves(t)}
    assert len(moves) == {2: 2, 3: 18, 4: 141, 5: 1079, 6: 8252}[m]
    # a move raises the rank by one and a longer chain by more, so no move
    # follows from others; the oracle's closure confirms it up to m = 5
    assert all(_tree_rank(trees[j]) == _tree_rank(trees[i]) + 1 for i, j in moves)
    if m <= 5:
        assert set(poset_oracle(len(trees), moves)[2]) == moves
        assert multiplihedron_lattice(m).covers == moves


def test_a_move_that_skips_a_rank_is_refused(monkeypatch):
    trees = [t for s in _tree_shapes(3) for t in _painted_variants(s, True)]
    bottom = next(t for t in trees if _tree_rank(t) == 0)
    top = max(trees, key=_tree_rank)
    real = multiplihedra._single_moves

    def with_a_jump(entry):
        return real(entry) + ([top] if entry == bottom else [])

    monkeypatch.setattr(multiplihedra, "_single_moves", with_a_jump)
    with pytest.raises(InconsistencyError, match="jumps rank 0->2"):
        multiplihedron_lattice(3)


def test_theorem_cap_refuses_before_any_hull(calls_to):
    hulls = calls_to(geometry._upper_hull)
    with pytest.raises(ResourceCapError, match="at most 5 leaves"):
        verify_multiplihedron_theorem(6)
    assert hulls == []
    with pytest.raises(InputError, match="at least two leaves"):
        verify_multiplihedron_theorem(1)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda lat: graded_lattice([0], []), "1 subdivisions of the extended polygon vs 3"),
        (
            lambda lat: dataclasses.replace(lat, covers=lat.covers - {min(lat.covers)}),
            "face lattices are not isomorphic",
        ),
    ],
    ids=["size", "covers"],
)
def test_theorem_refuses_a_damaged_secondary_lattice(monkeypatch, damage, message):
    real = multiplihedra.enumerate_coherent_subdivisions
    monkeypatch.setattr(
        multiplihedra, "enumerate_coherent_subdivisions", lambda config: damage(real(config))
    )
    with pytest.raises(VerificationError, match=message):
        verify_multiplihedron_theorem(2)


def test_rank_formula_matches_cone_dimension():
    # combinatorial rank of the tree == geometric rank of its painting cone
    m = 3
    n = m + 1
    config = ngon_configuration(m)
    for t in all_painted_trees(m):
        spec = realize_painted_tree(t, m)
        p, _ = dual_complex(config, spec.eta)
        pc = paint(p, spec)
        cone = painting_cone(pc)
        assert (n + 1) - cone.dim() == _tree_rank(t.encoding)


def test_realize_edge_lengths_single_edge():
    config, p = complex_of_shape(3, ((), ((), ())))
    alpha = admissible_alpha(config)
    eta = realize_edge_lengths(
        p, alpha, EdgeLengthTarget({frozenset({1, 3}): Fraction(7)})
    )
    p2, _ = dual_complex(config, eta)
    (_, _, value), = _edge_offset(p2, alpha).values()
    assert value == 7
    assert p2.subdivision.key == p.subdivision.key


def test_realize_edge_lengths_two_edges():
    config, p = complex_of_shape(4, ((), ((), ((), ()))))
    alpha = admissible_alpha(config)
    target = EdgeLengthTarget(
        {frozenset({1, 4}): Fraction(1), frozenset({2, 4}): Fraction(1)}
    )
    eta = realize_edge_lengths(p, alpha, target)
    p2, _ = dual_complex(config, eta)
    got = {m: v for m, (_, _, v) in _edge_offset(p2, alpha).items()}
    assert got == dict(target.lengths)
    assert p2.subdivision.key == p.subdivision.key


def test_edge_offsets_scale_with_lifting():
    config, p = complex_of_shape(4, (((), ()), ((), ())))
    alpha = admissible_alpha(config)
    base = {m: v for m, (_, _, v) in _edge_offset(p, alpha).items()}
    scaled, _ = dual_complex(
        config, Lifting(tuple(Fraction(5, 3) * x for x in p.eta.values))
    )
    got = {m: v for m, (_, _, v) in _edge_offset(scaled, alpha).items()}
    assert got == {m: Fraction(5, 3) * v for m, v in base.items()}


def test_realize_edge_lengths_rejections():
    config, p = complex_of_shape(3, ((), ((), ())))
    alpha = admissible_alpha(config)
    with pytest.raises(InputError):
        # (1, 2) lies on the diagonal through a_0 and a_2
        realize_edge_lengths(
            p, (Fraction(1), Fraction(2)),
            EdgeLengthTarget({frozenset({1, 3}): Fraction(1)}),
        )
    with pytest.raises(InputError):
        EdgeLengthTarget({frozenset({1, 3}): Fraction(-1)})
    with pytest.raises(InputError):
        realize_edge_lengths(p, alpha, EdgeLengthTarget({}))


def test_realize_edge_lengths_rejects_inputs_off_its_domain():
    # an interior vertex: the centre of the square is a vertex of all four
    # cells, so the compact edges form a cycle around its compact 2-cell
    square_with_center = build_configuration([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    p, _ = dual_complex(square_with_center, [0, 1, 3, 0, -2])
    assert len(p.subdivision.maximal) == 4
    beta = (Fraction(1, 3), Fraction(-1, 7))
    target = EdgeLengthTarget({mk: Fraction(1) for mk in _edge_offset(p, beta)})
    with pytest.raises(InputError, match="no interior vertex"):
        realize_edge_lengths(p, beta, target)
    # a 3-dimensional configuration
    bipyramid = build_configuration(
        [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    p, _ = dual_complex(bipyramid, [1, 0, 2, 0, 1])
    beta = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))
    target = EdgeLengthTarget({mk: Fraction(1) for mk in _edge_offset(p, beta)})
    with pytest.raises(InputError, match="no interior vertex"):
        realize_edge_lengths(p, beta, target)


# a square and a pentagon with a point in the middle of a boundary edge, so
# that one facet holds three collinear points
SQUARE_MIDEDGE = [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]
PENTAGON_MIDEDGE = [(0, 0), (1, 0), (2, 0), (3, 2), (1, 3), (-1, 2)]


@pytest.mark.parametrize(
    "points",
    [pytest.param(m, id=str(m)) for m in (2, 3, 4, 5, 6)]
    + [
        pytest.param(SQUARE_MIDEDGE, id="square_midedge"),
        pytest.param(PENTAGON_MIDEDGE, id="pentagon_midedge"),
    ],
)
def test_on_some_diagonal_matches_fraction_oracle(points):
    config = ngon_configuration(points) if isinstance(points, int) else build_configuration(points)
    points = config.points
    facets = [f.members for f in config.facets]
    rng = random.Random(len(points) - 1)
    cases = [(admissible_alpha(config), False)]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            # a rational point on the line through a_i and a_j, inside the
            # segment and beyond it: a diagonal's unless a facet holds both
            for t in (Fraction(1, 3), Fraction(-5, 4)):
                beta = tuple(a + t * (b - a) for a, b in zip(points[i], points[j]))
                on_diagonal = not any({i, j} <= f for f in facets)
                cases.append((beta, on_diagonal or None))
    # seeded points around the polygon, on a grid fine enough to meet
    # diagonals now and then
    xs, ys = [int(p[0]) for p in points], [int(p[1]) for p in points]
    for _ in range(300):
        x = Fraction(rng.randint(2 * min(xs) - 2, 2 * max(xs) + 2), rng.randint(1, 2))
        y = Fraction(rng.randint(2 * min(ys) - 2, max(ys) + 2), rng.randint(1, 2))
        cases.append(((x, y), None))
    hits = 0
    for beta, expected in cases:
        got = _on_some_diagonal(config, beta)
        assert got == on_some_diagonal_oracle(config, beta)
        if expected is not None:
            assert got == expected
        elif got:
            hits += 1
    assert hits > 0 or len(points) == 3  # the triangle has no diagonal


def test_realize_edge_lengths_with_beta_on_a_facet_of_three_points():
    # beta = (3, 0) lies on the bottom facet's line, which holds a_0, a_1 and
    # a_2, but on no diagonal's; a_1 is unmarked and the only compact edge
    # is {2, 4}
    config = build_configuration(SQUARE_MIDEDGE)
    p, _ = dual_complex(config, [0, 3, 1, 5, 2])
    beta = (Fraction(3), Fraction(0))
    assert not _on_some_diagonal(config, beta)
    ((marking, (_, _, offset)),) = _edge_offset(p, beta).items()
    assert marking == frozenset({2, 4}) and offset == 1
    target = EdgeLengthTarget({marking: Fraction(5, 3)})
    eta = realize_edge_lengths(p, beta, target)
    p2, _ = dual_complex(config, eta)
    assert p2.subdivision.key == p.subdivision.key
    assert {m: v for m, (_, _, v) in _edge_offset(p2, beta).items()} == target.lengths
    assert eta.values == realize_edge_lengths_sequential(p, beta, target)


@settings(deadline=None, max_examples=25)
@given(
    data=st.data(),
    shape=st.sampled_from(_tree_shapes(4)),
)
def test_realize_edge_lengths_random_targets(data, shape):
    config, p = complex_of_shape(4, shape)
    alpha = admissible_alpha(config)
    markings = list(_edge_offset(p, alpha))
    lengths = {}
    for m in markings:
        num = data.draw(st.integers(min_value=1, max_value=60))
        den = data.draw(st.integers(min_value=1, max_value=9))
        lengths[m] = Fraction(num, den)
    eta = realize_edge_lengths(p, alpha, EdgeLengthTarget(lengths))
    p2, _ = dual_complex(config, eta)
    got = {m: v for m, (_, _, v) in _edge_offset(p2, alpha).items()}
    assert got == lengths
    assert p2.subdivision.key == p.subdivision.key
    assert secondary_cone(config, p.subdivision).contains_open(eta.values)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_realize_edge_lengths_matches_sequential_oracle(m):
    rng = random.Random(m)
    config = ngon_configuration(m)
    beta = admissible_alpha(config)
    for _ in range(12):
        p, _ = dual_complex(config, [rng.randint(-30, 30) for _ in config.points])
        target = EdgeLengthTarget(
            {
                mk: Fraction(rng.randint(1, 60), rng.randint(1, 12))
                for mk in _edge_offset(p, beta)
            }
        )
        eta = realize_edge_lengths(p, beta, target)
        assert eta.values == realize_edge_lengths_sequential(p, beta, target)
        # the library certifies on the integer planes of p's cells with no
        # hull; the cone is a second check
        assert secondary_cone(config, p.subdivision).contains_open(eta)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_painted_tree_targets_match_sequential_oracle(m, monkeypatch):
    calls = []
    real = multiplihedra.realize_edge_lengths

    def recording(p, beta, target):
        eta = real(p, beta, target)
        calls.append((p, beta, target, eta))
        return eta

    monkeypatch.setattr(multiplihedra, "realize_edge_lengths", recording)
    for t in all_painted_trees(m):
        realize_painted_tree(t, m)
    assert calls
    for p, beta, target, eta in calls:
        # leaf to root, the order the targets were once corrected in
        depth = {mk: d for _, _, mk, d in tree_edges(_planar_tree(p.subdivision))}
        order = sorted(depth, key=lambda mk: (-depth[mk], sorted(mk)))
        assert eta.values == realize_edge_lengths_sequential(p, beta, target, order)
        assert secondary_cone(p.config, p.subdivision).contains_open(eta)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_painted_tree_levels_match_the_dual_complex_route(m):
    # the root value read off the supports is the tropical polynomial at
    # the root vertex of the lifting's dual complex
    alpha = admissible_alpha(ngon_configuration(m))
    trees = all_painted_trees(m)
    for t in trees:
        spec = realize_painted_tree(t, m)
        assert spec == PaintSpec(spec.eta, painted_tree_level_by_dual_complex(t, spec.eta, m), alpha)
    assert len(trees) == {2: 3, 3: 13, 4: 67}[m]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_realize_round_trip_exhaustive(m):
    config = ngon_configuration(m)
    seen = set()
    for t in all_painted_trees(m):
        spec = realize_painted_tree(t, m)
        p, _ = dual_complex(config, spec.eta)
        pc = paint(p, spec)
        assert painted_tree_of(pc) == t
        seen.add(pc.key())
    # distinct trees land on pairwise non-isotopic painted complexes
    assert len(seen) == len(all_painted_trees(m))


def test_realize_rejects_wrong_leaf_count():
    t = PaintedTree((PAINTED, ((SPLIT, None), (SPLIT, None))))
    with pytest.raises(InputError):
        realize_painted_tree(t, 3)


def test_purple_depth_two_telescopes():
    # the path into a split-at-node point two edges down sums to exactly 1:
    # 1/m for the edge into the painted node, then 1 - 1/m
    m = 4
    leaf_u = (UNPAINTED, None)
    t = PaintedTree(
        (PAINTED, ((SPLIT, None),
                   (PAINTED, ((SPLIT, None),
                              (PAINTED, (leaf_u, leaf_u))))))
    )
    spec = realize_painted_tree(t, m)
    config = ngon_configuration(m)
    p, _ = dual_complex(config, spec.eta)
    f = TropicalPolynomial(config, spec.eta)
    root = _planar_tree(p.subdivision)
    nodes = [root] + [child for _, child, _, _ in tree_edges(root)]
    positions = [p.cells[node[0]].vertices[0] for node in nodes]
    values = sorted(
        evaluate(f, pos)[0] - sum(a * b for a, b in zip(pos, spec.alpha))
        for pos in positions
    )
    c = spec.c
    assert values == [c, c + Fraction(3, 4), c + 1]


@settings(deadline=None, max_examples=30)
@given(
    m=st.sampled_from([3, 4]),
    raw=st.lists(st.integers(min_value=-6, max_value=6), min_size=5, max_size=5),
)
def test_monotone_toward_leaves(m, raw):
    # the lifted value minus the alpha pairing strictly decreases root-to-leaf
    config = ngon_configuration(m)
    alpha = admissible_alpha(config)
    eta = Lifting(tuple(Fraction(x) for x in raw[: m + 1]))
    p, _ = dual_complex(config, eta)
    f = TropicalPolynomial(config, eta)

    def value(node):
        pos = p.cells[node[0]].vertices[0]
        return evaluate(f, pos)[0] - sum(a * b for a, b in zip(pos, alpha))

    for parent, child, _, _ in tree_edges(_planar_tree(p.subdivision)):
        assert value(parent) > value(child)


@pytest.mark.parametrize("m", [2, 3])
def test_order_compatible_with_painting_poset(m):
    config = ngon_configuration(m)
    alpha = admissible_alpha(config)
    poset = enumerate_painted_complexes(config, alpha)
    lat = multiplihedron_lattice(m)
    index = {lab: i for i, lab in enumerate(lat.payload)}
    up = lat.up_adjacency()

    def reachable(i, j):
        if i == j:
            return True
        return any(reachable(k, j) for k in up[i])

    trees = [painted_tree_of(pc) for pc in poset.payload]
    assert len({t.encoding for t in trees}) == len(lat)
    for i, j in poset.covers:
        a = index[_tree_label(trees[i].encoding)]
        b = index[_tree_label(trees[j].encoding)]
        assert reachable(a, b)


def test_verify_multiplihedron_theorem_small():
    rep2 = verify_multiplihedron_theorem(2)
    assert rep2.face_count == 3 and rep2.vertex_count == 2
    rep3 = verify_multiplihedron_theorem(3)
    assert rep3.face_count == 13 and rep3.vertex_count == 6
    with pytest.raises(ResourceCapError, match="at most 5 leaves"):
        verify_multiplihedron_theorem(6)
