"""The triangulation walk induces only its seed, certifies each
triangulation once by its cone and stops at its cap before certifying more,
and the enumerators visit each face sample once, the coherent one with no
hull.  A triangulation cone has no
equalities and one strict per interior ridge and unused point at most, read
off integer minors without solving a system.  The verifications read both
posets' order and ranks off the fans' face masks: they certify no painting
cone, and every secondary cone they build is a triangulation cone of the
walk.  The main-theorem check builds the extended configuration and its
subdivision lattice once for its ranks and the CLI.  The upper hulls of a
configuration take one rank between them, for their spanning simplex.  The
coherent enumeration certifies each triangulation once, in the walk.  A
configuration keeps its circuits and simplex volumes: the walk computes each
circuit once and the volume vectors reuse its determinants, and a second
enumeration on the same configuration gives what a fresh one does.  The
walk runs the flip test once per strict of each cone and once per wall it
crosses, and keeps no flip cells on a triangulation."""

import pathlib
import sys
import traceback
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from tropaint import (
    cli,
    errors,
    geometry,
    painting,
    painting_polytope,
    point_config,
    regular_subdivision,
)
from tropaint.multiplihedra import (
    admissible_alpha,
    ngon_configuration,
    verify_multiplihedron_theorem,
)
from tropaint.painting import enumerate_painted_complexes, painting_cone
from tropaint.painting_polytope import extend, verify_main_theorem
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    enumerate_coherent_subdivisions,
    enumerate_regular_triangulations,
    secondary_cone,
)
from tropaint.secondary_polytope import secondary_polytope_vertices

F = Fraction
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)


VERIFICATIONS = [
    lambda: verify_main_theorem(QUAD, (F(1, 3), F(1, 3))),
    lambda: verify_main_theorem(BIPYRAMID, (F(1, 2), F(1, 3), F(1, 2))),
    lambda: verify_multiplihedron_theorem(4),
    lambda: cli.main(["secondary", str(GOLDEN / "quad.json")]),
]
VERIFICATION_IDS = ["main-theorem-quad", "main-theorem-bipyramid", "multiplihedron-4", "secondary-quad"]


@pytest.mark.parametrize(
    "config, alpha, count",
    [
        (QUAD, (F(1, 3), F(1, 3)), 45),
        (BIPYRAMID, (F(1, 2), F(1, 3), F(1, 2)), 15),
    ],
    ids=["quad", "bipyramid"],
)
def test_painted_enumeration_paints_each_sample_once(calls_to, config, alpha, count):
    calls = calls_to(painting._paint_at)
    poset = enumerate_painted_complexes(config, alpha)
    points = [args[2] for _, args in calls]
    assert len(points) == len(set(points)) == count
    # here every face of the painting fan has its own painted complex
    assert len(poset) == count


def _extended_ngon(m):
    config = ngon_configuration(m)
    return extend(config, admissible_alpha(config)).extended


@pytest.mark.parametrize(
    "config, count",
    [(_extended_ngon(4), 21), (extend(QUAD, (F(1, 3), F(1, 3))).extended, 14)],
    ids=["ngon4-extended", "quad-extended"],
)
def test_triangulation_walk_induces_each_triangulation_once(calls_to, config, count):
    induces = calls_to(regular_subdivision.induce_subdivision)
    cones = calls_to(regular_subdivision.secondary_cone)
    tris = enumerate_regular_triangulations(config)
    # only the seed's placing lifting: a flipped triangulation is certified
    # by its cone alone
    assert [caller for caller, _ in induces] == ["tropaint.regular_subdivision"]
    assert len(tris) == count
    assert len(cones) <= len(tris)


def test_walk_flips_once_per_strict_and_once_per_crossed_wall(calls_to):
    circuits = calls_to(regular_subdivision._circuit_cells)
    tris = enumerate_regular_triangulations(_extended_ngon(4))
    # _flippable_rays tests each strict on its circuit's link groups, and
    # _flip regroups each wall it crosses: no triangulation keeps flip cells
    # for later
    stricts = sum(len(cone.stricts) for _, cone in tris.values())
    walls = sum(len(cone.walls()) for _, cone in tris.values())
    assert (stricts, walls) == (93, 64)
    assert len(circuits) == stricts + walls == 157


@pytest.mark.parametrize(
    "config",
    [_extended_ngon(4), extend(QUAD, (F(1, 3), F(1, 3))).extended],
    ids=["ngon4-extended", "quad-extended"],
)
def test_triangulation_cones_take_one_strict_per_interior_ridge_and_unused_point(config):
    for t, cone in enumerate_regular_triangulations(config).values():
        ridges = Counter(mc.marks - {v} for mc in t.maximal for v in mc.marks)
        interior = sum(1 for count in ridges.values() if count == 2)
        unused = len(config.points) - len(frozenset().union(*t.key))
        assert cone.equalities == () and len(cone.stricts) <= interior + unused


def test_extended_pentagon_cones_have_500_stricts():
    config = ngon_configuration(5)
    ext = extend(config, admissible_alpha(config)).extended
    tris = enumerate_regular_triangulations(ext)
    assert len(tris) == 80
    # one strict per cell and point off it gave 1626
    assert sum(len(cone.stricts) for _, cone in tris.values()) == 500


def test_no_cone_or_painting_constraint_solves_a_system():
    """Every cone and painting constraint is an integer circuit dependence:
    secondary cones of triangulations and of coarser subdivisions and
    painting cones have primitive integer constraints.  No library module
    can solve a square system (tests/test_lp_confined.py)."""
    ext = _extended_ngon(3)
    subdivisions = enumerate_coherent_subdivisions(ext).payload
    painted = enumerate_painted_complexes(QUAD, (F(1, 3), F(1, 3))).payload
    cones = [secondary_cone(ext, s) for s in subdivisions]
    cones += [painting_cone(pc) for pc in painted]
    for cone in cones:
        for fn in cone.equalities + cone.stricts:
            assert all(type(x) is int for x in fn) and gcd(*fn) == 1
    assert any(not regular_subdivision.is_triangulation(s) for s in subdivisions)
    assert len(painted) == 45


def test_triangulation_cap_stops_before_certifying_more(calls_to):
    cones = calls_to(regular_subdivision.secondary_cone)
    with pytest.raises(errors.ResourceCapError, match="more than 5 triangulations"):
        enumerate_regular_triangulations(_extended_ngon(4), max_count=5)
    assert len(cones) <= 5


def test_coherent_enumeration_induces_no_face_sample(calls_to):
    ext = _extended_ngon(4)
    calls = calls_to(regular_subdivision.induce_subdivision)
    faces = calls_to(regular_subdivision._face_subdivision)
    tris = enumerate_regular_triangulations(ext)
    walk = len(calls)
    enumerate_coherent_subdivisions(ext)
    # the second enumeration repeats the same walk and induces nothing more:
    # each face sample's subdivision is read off its cone once, with no hull
    assert len(calls) == 2 * walk
    samples = {s for _, cone in tris.values() for _, _, s in cone.graded_faces()[:-1]}
    assert len(faces) == len(samples) == 46


def test_coherent_enumeration_folds_each_triangulation_once(calls_to):
    ext = _extended_ngon(4)
    folds = calls_to(regular_subdivision._folding_stricts)
    poset = enumerate_coherent_subdivisions(ext)
    # only the walk certifies triangulations: the face rule reads each face's
    # cells off the triangulation and its vanishing circuits, and folds nothing
    tris = [s for s in poset.payload if regular_subdivision.is_triangulation(s)]
    assert len(folds) == len(tris) == 21


def test_painting_polytope_ranks_each_extended_subdivision_once(calls_to):
    cones = calls_to(regular_subdivision.secondary_cone)
    extends = calls_to(painting_polytope.extend)
    report = cli._main_report(str(GOLDEN / "bipyramid.json"))
    built = len(cones)
    # every secondary cone is a triangulation cone of one of the two walks:
    # the ranks are read off their faces, with no cone per subdivision
    walked = len(enumerate_regular_triangulations(BIPYRAMID))
    walked += len(enumerate_regular_triangulations(report.extension.extended))
    assert built == walked and len(report.subdivision_poset) == 15
    assert len(extends) == 1
    assert report.extension.extended == report.subdivision_poset.payload[0].config
    sranks = report.subdivision_poset.ranks
    assert tuple(sranks[j] for j in report.constructive_map) == report.painted_poset.ranks


@pytest.mark.parametrize(
    "config, alpha, count",
    [
        (QUAD, (F(1, 3), F(1, 3)), 45),
        (BIPYRAMID, (F(1, 2), F(1, 3), F(1, 2)), 15),
    ],
    ids=["quad", "bipyramid"],
)
def test_main_theorem_certifies_each_painting_cone_once(calls_to, config, alpha, count):
    calls = calls_to(painting.painting_cone)
    report = verify_main_theorem(config, alpha)
    assert calls == [] and len(report.painted_poset) == count
    # the ranks read off the chambers' faces are the painting cones' own
    n = len(config.points)
    elements = report.painted_poset.payload
    assert tuple((n + 1) - painting_cone(pc).dim() for pc in elements) == report.painted_poset.ranks


@pytest.mark.parametrize("run", VERIFICATIONS, ids=VERIFICATION_IDS)
def test_verifications_read_order_and_ranks_off_the_fans(calls_to, capsys, run):
    painting_cones = calls_to(painting.painting_cone)
    cones = calls_to(regular_subdivision.secondary_cone)
    run()
    capsys.readouterr()
    assert painting_cones == []
    # no secondary cone is built to rank a subdivision: every one of them is
    # a triangulation cone of the walk
    assert cones and {caller for caller, _ in cones} == {"tropaint.regular_subdivision"}


def test_upper_hull_takes_one_rank(calls_to, monkeypatch):
    hulls = calls_to(geometry._upper_hull)
    induced = calls_to(regular_subdivision.induce_subdivision)
    ranks = calls_to(geometry.affine_rank)
    passes = []
    real = geometry.independent_rows

    def counting(rows):
        callers = {f.f_code.co_name for f, _ in traceback.walk_stack(sys._getframe(1))}
        if callers & {"spanning_simplex", "induce_subdivision", "_upper_hull"}:
            passes.append(callers)
        return real(rows)

    for module in (geometry, point_config):
        monkeypatch.setattr(module, "independent_rows", counting)
    # a new configuration, whose spanning simplex no other test has picked
    quad = build_configuration(QUAD.points)
    verify_main_theorem(quad, (F(1, 3), F(1, 3)))
    # every induced subdivision is one hull, seeded by its configuration's
    # spanning simplex: one pass per configuration, as it is built, which
    # also checks its span, so no rank is computed
    configs = {id(args[0]) for _, args in induced}
    assert len(hulls) == len(induced) <= 219
    assert len(passes) == len(configs) == 2
    assert all({"spanning_simplex", "build_configuration"} <= callers for callers in passes)
    assert ranks == []


def test_walk_computes_each_circuit_once(calls_to):
    ext = _extended_ngon(5)
    dependences = calls_to(geometry._circuit_dependence)
    enumerate_coherent_subdivisions(ext)
    enumerate_coherent_subdivisions(ext)
    # the ray kernels of simplicial cones call it from regular_subdivision
    circuits = [
        tuple(map(tuple, args[0])) for caller, args in dependences if caller == "tropaint.point_config"
    ]
    assert len(circuits) == len(set(circuits)) == 50


def test_volume_vectors_compute_no_determinant_after_the_walk(calls_to):
    ext = _extended_ngon(5)
    determinants = calls_to(geometry._int_det)
    lattice = enumerate_coherent_subdivisions(ext)
    walked = len(determinants)
    vertices = secondary_polytope_vertices(ext, lattice)
    # the walk's volume checks read the same simplices' determinants
    assert walked and len(determinants) == walked and len(vertices) == 80


def test_enumerating_again_matches_a_fresh_configuration():
    def summary(lattice):
        elements = lattice.payload
        return [s.key for s in elements], [s.witness for s in elements], lattice.ranks, lattice.covers

    ext = _extended_ngon(5)
    first = summary(enumerate_coherent_subdivisions(ext))
    again = summary(enumerate_coherent_subdivisions(ext))
    assert first == again == summary(enumerate_coherent_subdivisions(_extended_ngon(5)))
