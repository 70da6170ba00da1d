"""Acceptance suite: the ten contract criteria, one pass line each.

Run with -v for the per-criterion pass/fail lines; each test also prints a
summary with its timing.  Random sampling is seeded so reruns are identical.
"""

import pathlib
import random
import time
from fractions import Fraction as F

from cli_cases import CASES, INPUT_FILES, run_cli
from oracles import dual_cell_rank, painted_binary_tree_count, polygon_subdivisions, relint_sample
from tropaint.lattice import graded_lattice, lattice_isomorphic
from tropaint.multiplihedra import (
    EdgeLengthTarget,
    admissible_alpha,
    multiplihedron_lattice,
    ngon_configuration,
    realize_edge_lengths,
    verify_multiplihedron_theorem,
    _edge_offset,
)
from tropaint.painting import (
    PaintSpec,
    colors_from_vertices,
    paint,
    painting_cone,
)
from tropaint.painting_polytope import verify_main_theorem
from tropaint.point_config import build_configuration, sign_vector
from tropaint.regular_subdivision import (
    Lifting,
    enumerate_coherent_subdivisions,
    induce_subdivision,
    is_triangulation,
    secondary_cone,
)
from tropaint.secondary_polytope import secondary_polytope_vertices
from tropaint.tropical_dual import TropicalPolynomial, dual_complex, evaluate
from tropaint.geometry import affine_rank, vdot

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)
SEGMENT = build_configuration([(0,), (1,)])
ALPHA = (F(1, 3), F(1, 3))
ALPHA3 = (F(1, 2), F(1, 3), F(1, 2))

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _passed(n, started, detail, bound=None):
    """Check the criterion's wall-clock bound, if it has one, then report."""
    elapsed = time.monotonic() - started
    if bound is not None:
        assert elapsed < bound, (
            f"criterion {n}: took {elapsed:.2f}s, bound is {bound}s"
        )
    print(f"criterion {n}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_01_four_triangle_example():
    started = time.monotonic()
    s = induce_subdivision(QUAD, Lifting.of(QUAD, [-1, 1, 0, 2, 0]))
    assert {mc.marks for mc in s.maximal} == {
        frozenset({0, 1, 2}),
        frozenset({0, 1, 4}),
        frozenset({0, 2, 4}),
        frozenset({2, 3, 4}),
    }
    assert is_triangulation(s)
    _passed(1, started, "four derived triangles, exact", bound=1)


def test_criterion_02_duality_suite():
    started = time.monotonic()
    rng = random.Random(20260822)
    checked = 0
    for config in (QUAD, BIPYRAMID):
        for _ in range(100):
            eta = Lifting.of(
                config, [rng.randint(-9, 9) for _ in config.points]
            )
            p, s = dual_complex(config, eta)
            f = TropicalPolynomial(config, eta)
            # anti-isomorphism of the face lattices: identical markings,
            # complementary dimensions, reversed face relation
            assert set(p.cells) == set(s.cells)
            for marks, cell in p.cells.items():
                assert cell.dimension + s.cells[marks].dim() == config.dimension
                # both dimensions are derived from incidences; check each by a rank
                points = [config.points[i] for i in sorted(marks)]
                assert s.cells[marks].dim() == affine_rank(points)
                assert cell.dimension == dual_cell_rank(cell)
            assert set(p.face_pairs()) == {(b, a) for a, b in s.face_pairs()}
            # the lifted support value is attained at the dual vertex, exactly
            for mc in s.maximal:
                value, argmin = evaluate(f, mc.support.linear)
                assert value == mc.support.constant
                assert argmin == mc.marks
            # a cell is unbounded exactly when its marks sit on the boundary
            for marks, cell in p.cells.items():
                on_boundary = any(marks <= fs.members for fs in config.facets)
                assert cell.is_compact() == (not on_boundary)
            checked += 1
    assert checked == 200
    _passed(2, started, "200 random liftings, both examples", bound=30)


def _oracle_polygon_lattice(n):
    subdivisions = sorted(polygon_subdivisions(n), key=lambda s: sorted(map(sorted, s)))
    index = {s: i for i, s in enumerate(subdivisions)}
    top_rank = n - 3
    ranks = [top_rank - len(s) for s in subdivisions]
    covers = []
    for s, i in index.items():
        for d in s:
            covers.append((i, index[s - {d}]))
    return graded_lattice(ranks, covers)


def test_criterion_03_associahedron_counts():
    started = time.monotonic()
    expected = {3: 2, 4: 5, 5: 14}
    for m, count in expected.items():
        config = ngon_configuration(m)
        poset = enumerate_coherent_subdivisions(config)
        vertices = secondary_polytope_vertices(config, poset)
        assert len(vertices) == count
        oracle = _oracle_polygon_lattice(m + 1)
        assert lattice_isomorphic(oracle, poset) is not None
    _passed(3, started, "2/5/14 vertices, oracle lattices match", bound=10)


def test_criterion_04_painting_reconstruction():
    started = time.monotonic()
    rng = random.Random(3417)
    for config, alpha in ((QUAD, ALPHA), (BIPYRAMID, ALPHA3)):
        sv = sign_vector(config, alpha)
        for _ in range(100):
            eta = [rng.randint(-8, 8) for _ in config.points]
            c = F(rng.randint(-16, 16), rng.choice((1, 2)))
            p, _ = dual_complex(config, eta)
            painted = paint(p, PaintSpec.of(config, eta, c, alpha))
            vertex_colors = {
                cell.marking: painted.kappa[cell.marking]
                for cell in p.cells_of_dim(0)
            }
            assert colors_from_vertices(p, vertex_colors, sv) == painted.kappa
    _passed(4, started, "200 random (eta, c), exact", bound=30)


def test_criterion_05_ray_coloring():
    started = time.monotonic()
    rng = random.Random(905)
    rays_checked = 0
    for config, alpha in ((QUAD, ALPHA), (BIPYRAMID, ALPHA3)):
        sv = sign_vector(config, alpha)
        by_normal = {f.normal: (f, s) for f, s in zip(config.facets, sv.signs)}
        for _ in range(50):
            eta = [rng.randint(-7, 7) for _ in config.points]
            c = rng.randint(-9, 9)
            spec = PaintSpec.of(config, eta, c, alpha)
            p, _ = dual_complex(config, spec.eta)
            for cell in p.cells.values():
                for r in cell.rays:
                    facet, s = by_normal[r]
                    a = min(cell.marking)
                    pt = config.points[a]
                    u0 = relint_sample(cell)

                    def g(u):
                        return vdot(u, pt) + spec.eta[a] - vdot(u, spec.alpha) - spec.c

                    # slope of g along the ray; r is the facet normal and all
                    # marks lie on the facet, so the slope is the threshold gap
                    slope = facet.threshold - vdot(r, spec.alpha)
                    assert (slope > 0) == (s > 0) and (slope < 0) == (s < 0)
                    if slope == 0:
                        assert s == 0
                        step = tuple(x + y for x, y in zip(u0, r))
                        assert g(step) == g(u0)
                    else:
                        crossing = -g(u0) / slope
                        bound = crossing if crossing > 0 else F(0)
                        for t in (bound + 1, bound + 5):
                            far = g(tuple(x + t * y for x, y in zip(u0, r)))
                            assert (far > 0) == (s > 0) and (far < 0) == (s < 0)
                    rays_checked += 1
    assert rays_checked > 500
    _passed(5, started, f"{rays_checked} rays, exact beyond explicit bound")


def test_criterion_06_main_theorem_three_examples():
    for config, alpha, name in (
        (SEGMENT, (F(1, 2),), "segment"),
        (QUAD, ALPHA, "quad"),
        (BIPYRAMID, ALPHA3, "bipyramid"),
    ):
        started = time.monotonic()
        rep = verify_main_theorem(config, alpha)
        if name == "bipyramid":
            assert rep.polytope_dimension == 2
            # independent brute force: vertices are the full-dimensional
            # painting cones among the enumerated painted complexes
            full_dim = len(config.points) + 1
            brute = sum(
                1
                for pc in rep.painted_poset.payload
                if painting_cone(pc).dim() == full_dim
            )
            assert rep.polytope_vertex_count == brute == 7
            # heptagon outline: seven vertices, seven edges, one 2-face
            counts = rep.painted_poset.rank_counts()
            assert counts == {0: 7, 1: 7, 2: 1}
        assert time.monotonic() - started < 120
    _passed(6, started, "segment, quad, bipyramid all verified")


def test_criterion_07_edge_length_realization():
    started = time.monotonic()
    rng = random.Random(42007)
    realized = 0
    for m in (4, 5):
        config = ngon_configuration(m)
        beta = admissible_alpha(config)
        for s in enumerate_coherent_subdivisions(config).payload:
            eta0 = secondary_cone(config, s).interior_point
            p, _ = dual_complex(config, eta0)
            offsets = _edge_offset(p, beta)
            if not offsets:
                continue  # the corolla has no compact edges to target
            for _ in range(20):
                target = EdgeLengthTarget(
                    {
                        marking: F(rng.randint(1, 60), rng.randint(1, 12))
                        for marking in offsets
                    }
                )
                eta2 = realize_edge_lengths(p, beta, target)
                p2, s2 = dual_complex(config, eta2)
                assert s2.key == s.key
                achieved = {
                    mk: off for mk, (_, _, off) in _edge_offset(p2, beta).items()
                }
                assert achieved == target.lengths
                assert secondary_cone(config, s).contains_open(eta2.values)
                realized += 1
    _passed(7, started, f"{realized} exact realizations", bound=60)


def test_criterion_08_multiplihedron_theorem():
    started = time.monotonic()
    r2 = verify_multiplihedron_theorem(2)
    assert (r2.vertex_count, r2.face_count) == (2, 3)
    r3 = verify_multiplihedron_theorem(3)
    assert (r3.vertex_count, r3.face_count) == (6, 13)
    hexagon = multiplihedron_lattice(3)
    assert hexagon.rank_counts() == {0: 6, 1: 6, 2: 1}
    r4 = verify_multiplihedron_theorem(4)
    assert r4.vertex_count == 21 == painted_binary_tree_count(4)
    _passed(8, started, "m = 2, 3, 4 isomorphic", bound=300)


def test_criterion_08_multiplihedron_theorem_five_leaves():
    # measured 9.1 s on 2 cores (Python 3.11)
    started = time.monotonic()
    r5 = verify_multiplihedron_theorem(5)
    assert (r5.vertex_count, r5.face_count) == (80, 381)
    assert r5.vertex_count == painted_binary_tree_count(5)
    _passed(8, started, "m = 5 isomorphic", bound=40)


def _det(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            for k in range(col, n):
                rows[r][k] -= factor * rows[col][k]
    return det


def _normalized_volume(points):
    base = points[0]
    return abs(_det([[p[i] - base[i] for i in range(len(base))] for p in points[1:]]))


def test_criterion_09_gkz_volume_identity():
    started = time.monotonic()
    for config in (QUAD, BIPYRAMID, ngon_configuration(3), ngon_configuration(4), ngon_configuration(5)):
        d = config.dimension
        volume = None
        vertices = secondary_polytope_vertices(config, enumerate_coherent_subdivisions(config))
        for gkz, tri in vertices:
            simplex_vols = {
                mc.marks: _normalized_volume([config.points[i] for i in sorted(mc.marks)])
                for mc in tri.maximal
            }
            vol = sum(simplex_vols.values())
            volume = vol if volume is None else volume
            assert vol == volume  # same hull volume for every triangulation
            assert sum(gkz.coordinates) == (d + 1) * vol
            for a, coord in enumerate(gkz.coordinates):
                assert coord == sum(
                    v for marks, v in simplex_vols.items() if a in marks
                )
    _passed(9, started, "sum of GKZ coordinates is (dim+1) * volume, exact")


def test_criterion_10_cli_determinism():
    started = time.monotonic()
    for name, input_key, argv, stdout_golden, artifact_goldens, seeds in CASES:
        args = [
            a if a != "INPUT" else str(GOLDEN / INPUT_FILES[input_key])
            for a in argv
        ]
        proc = run_cli(args)
        assert proc.returncode == 0, f"{name}: {proc.stderr.decode()}"
        assert proc.stdout == (GOLDEN / stdout_golden).read_bytes(), name
    _passed(10, started, f"{len(CASES)} commands byte-identical to goldens")
