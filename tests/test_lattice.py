import random
import time
from fractions import Fraction

import pytest

from tropaint.errors import InconsistencyError
from tropaint.lattice import (
    FaceLattice,
    _refined_colors,
    graded_lattice,
    lattice_isomorphic,
)
from tropaint.multiplihedra import admissible_alpha, multiplihedron_lattice, ngon_configuration
from tropaint.painting import enumerate_painted_complexes
from tropaint.painting_polytope import extend
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import enumerate_coherent_subdivisions

from corpus import CASES
from oracles import lattice_isomorphic_unpruned, poset_oracle, refined_colors_per_lattice

F = Fraction


def square_lattice(rotate=0):
    """Face lattice of a square: 4 vertices, 4 edges, 1 top."""
    v = [(i + rotate) % 4 for i in range(4)]
    ranks = [0, 0, 0, 0, 1, 1, 1, 1, 2]
    covers = []
    for e in range(4):
        covers.append((v[e], 4 + e))
        covers.append((v[(e + 1) % 4], 4 + e))
        covers.append((4 + e, 8))
    return graded_lattice(ranks, covers)


def test_graded_lattice_validation():
    with pytest.raises(InconsistencyError):
        graded_lattice([0, 2], [(0, 1)])  # cover jumps two ranks
    with pytest.raises(InconsistencyError):
        graded_lattice([0, 1, 1], [(0, 1), (0, 2)])  # two top elements


@pytest.mark.parametrize(
    "ranks, covers",
    [
        ([0, 1, 0], [(0, 1)]),  # element 2 is maximal next to the top
        ([0, 2, 1], [(2, 1)]),  # element 0 is maximal next to the top
    ],
)
def test_graded_lattice_refuses_a_second_maximal_element(ranks, covers):
    with pytest.raises(InconsistencyError, match="lie below none"):
        graded_lattice(ranks, covers)


def test_graded_lattice_refuses_an_element_of_positive_rank_above_none():
    # element 2 has rank 1 but covers nothing; the top is unique
    with pytest.raises(InconsistencyError, match=r"\[2\] of nonzero rank lie above none"):
        graded_lattice([0, 1, 1, 2], [(0, 1), (1, 3), (2, 3)])


@pytest.mark.parametrize(
    "covers",
    [[(0, 1), (0, -1)], [(0, 2)], [(-1, 1)]],
    ids=["negative", "past-the-end", "negative-lower"],
)
def test_graded_lattice_refuses_covers_outside_its_elements(covers):
    # (0, -1) would pass the rank check through ranks[-1] and give
    # up_adjacency() the entry -1; (0, 2) would index past the ranks
    with pytest.raises(InconsistencyError, match="name no element of 2"):
        graded_lattice([0, 1], covers)


@pytest.mark.parametrize("payload", [["a"], ["a", "b", "c"], []])
def test_graded_lattice_refuses_a_payload_of_the_wrong_length(payload):
    with pytest.raises(InconsistencyError, match="elements"):
        graded_lattice([0, 1], [(0, 1)], payload)
    assert graded_lattice([0, 1], [(0, 1)], ["a", "b"]).payload == ("a", "b")


def test_chain_lattice_from_poset():
    _, _, covers = poset_oracle(3, [(0, 1), (1, 2), (0, 2)])
    lat = graded_lattice([0, 1, 2], covers)
    assert lat.covers == frozenset({(0, 1), (1, 2)})


def test_isomorphic_to_itself_and_rotations():
    l1 = square_lattice()
    assert lattice_isomorphic(l1, l1) is not None
    l2 = square_lattice(rotate=1)
    m = lattice_isomorphic(l1, l2)
    assert m is not None
    cov2 = set(l2.covers)
    assert all((m[i], m[j]) in cov2 for i, j in l1.covers)


def test_non_isomorphic_different_sizes():
    l1 = square_lattice()
    tri_ranks = [0, 0, 0, 1, 1, 1, 2]
    tri_covers = [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5), (3, 6), (4, 6), (5, 6)]
    l2 = graded_lattice(tri_ranks, tri_covers)
    assert lattice_isomorphic(l1, l2) is None


def test_non_isomorphic_same_profile():
    # path of 3 vertices vs a triangle-ish gluing cannot arise at equal ranks;
    # use two rank-1 structures over 4 vertices with different degrees
    ranks = [0, 0, 0, 0, 1, 1, 1, 2]
    covers_a = [(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (4, 7), (5, 7), (6, 7)]
    covers_b = [(0, 4), (1, 4), (0, 5), (2, 5), (0, 6), (3, 6), (4, 7), (5, 7), (6, 7)]
    la = graded_lattice(ranks, covers_a)
    lb = graded_lattice(ranks, covers_b)
    assert lattice_isomorphic(la, lb) is None


def boolean_lattice(k, reverse=False):
    """The subsets of a k-set under inclusion, as bitmasks, listed in
    increasing order or, reversed, in decreasing order."""
    n = 1 << k
    index = (lambda s: n - 1 - s) if reverse else (lambda s: s)
    ranks = [0] * n
    for s in range(n):
        ranks[index(s)] = bin(s).count("1")
    covers = [(index(s), index(s | 1 << b)) for s in range(n) for b in range(k) if not s >> b & 1]
    return graded_lattice(ranks, covers)


def test_isomorphism_of_a_lattice_with_more_than_a_thousand_elements():
    b10 = boolean_lattice(10)
    for other in (b10, boolean_lattice(10, reverse=True)):
        m = lattice_isomorphic(b10, other)
        assert m is not None and sorted(m) == list(range(len(b10)))
        assert all(b10.ranks[i] == other.ranks[m[i]] for i in range(len(b10)))
        assert {(m[i], m[j]) for i, j in b10.covers} == set(other.covers)


def _theorem_lattices(config, alpha):
    """The painted and the extended lattice that verify_main_theorem matches."""
    painted = enumerate_painted_complexes(config, alpha)
    return painted, enumerate_coherent_subdivisions(extend(config, alpha).extended)


def _multiplihedron_lattices(m):
    """The extended polygon's and the painted trees' lattice that
    verify_multiplihedron_theorem matches."""
    config = ngon_configuration(m)
    extended = extend(config, admissible_alpha(config)).extended
    return enumerate_coherent_subdivisions(extended), multiplihedron_lattice(m)


def _searched_pairs():
    quad = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
    bipyramid = build_configuration([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)])
    out = [
        pytest.param(_theorem_lattices, (quad, (F(1, 3), F(1, 3))), id="quad"),
        pytest.param(_theorem_lattices, (bipyramid, (F(1, 2), F(1, 3), F(1, 2))), id="bipyramid"),
    ]
    for m in (2, 3, 4, 5):
        config = ngon_configuration(m)
        out.append(pytest.param(_theorem_lattices, (config, admissible_alpha(config)), id=f"ngon{m}"))
        out.append(pytest.param(_multiplihedron_lattices, (m,), id=f"multiplihedron{m}"))
    return out + [pytest.param(_theorem_lattices, case[1:], id=case[0]) for case in CASES]


def _shared_classes(l1, l2):
    """The shared colors of both lattices and each l1 element's candidates,
    read off the l2 colors in one pass as lattice_isomorphic reads them."""
    c1, c2 = _refined_colors(
        [(lat.ranks, lat.up_adjacency(), lat.down_adjacency()) for lat in (l1, l2)]
    )
    classes = {}
    for j, c in enumerate(c2):
        classes.setdefault(c, []).append(j)
    return c1, c2, [classes.get(c, []) for c in c1]


@pytest.mark.parametrize("lattices, args", _searched_pairs())
def test_forward_checked_search_finds_the_first_match(lattices, args):
    l1, l2 = lattices(*args)
    match = lattice_isomorphic(l1, l2)
    assert match is not None
    assert match == lattice_isomorphic_unpruned(l1, l2)
    # the shared table gives each lattice its own stable partition, and the
    # candidates are those of the per-lattice refinement's quadratic scan
    c1, c2, candidates = _shared_classes(l1, l2)
    o1, o2 = refined_colors_per_lattice(l1), refined_colors_per_lattice(l2)
    for new, old in ((c1, o1), (c2, o2)):
        assert len({(a, b) for a, b in zip(new, old)}) == len(set(new)) == len(set(old))
    n = len(l1)
    assert candidates == [[j for j in range(n) if o2[j] == o1[i]] for i in range(n)]


def _relabelled(lat, rng):
    """lat with its elements renumbered by a random permutation."""
    perm = list(range(len(lat)))
    rng.shuffle(perm)
    ranks = [0] * len(lat)
    for i, p in enumerate(perm):
        ranks[p] = lat.ranks[i]
    return graded_lattice(ranks, [(perm[i], perm[j]) for i, j in lat.covers])


def _relabelled_pairs():
    corpus = CASES[0]
    return [
        pytest.param(lambda: (multiplihedron_lattice(3),) * 2, id="multiplihedron3"),
        pytest.param(lambda: (multiplihedron_lattice(4),) * 2, id="multiplihedron4"),
        pytest.param(lambda: (boolean_lattice(6),) * 2, id="boolean6"),
        pytest.param(lambda: _theorem_lattices(*corpus[1:]), id=corpus[0]),
    ]


@pytest.mark.parametrize("pair", _relabelled_pairs())
def test_search_matches_a_randomly_relabelled_lattice(pair):
    l1, base = pair()
    rng = random.Random(20261021)
    for _ in range(4):
        l2 = _relabelled(base, rng)
        match = lattice_isomorphic(l1, l2)
        assert match is not None and sorted(match) == list(range(len(l2)))
        assert {(match[i], match[j]) for i, j in l1.covers} == l2.covers
        assert match == lattice_isomorphic_unpruned(l1, l2)


def test_search_builds_each_adjacency_once_per_lattice(monkeypatch):
    calls = []
    for name in ("up_adjacency", "down_adjacency"):
        built = getattr(FaceLattice, name)

        def counted(lat, built=built, name=name):
            calls.append((name, id(lat)))
            return built(lat)

        monkeypatch.setattr(FaceLattice, name, counted)
    l1, l2 = square_lattice(), square_lattice(rotate=1)
    assert lattice_isomorphic(l1, l2) is not None
    assert sorted(calls) == sorted(
        (name, id(lat)) for name in ("up_adjacency", "down_adjacency") for lat in (l1, l2)
    )


def test_forward_checked_search_on_six_points_takes_under_a_second():
    # without the forward check the search backtracks for minutes
    config = build_configuration([(2, 0, 2), (1, 1, 1), (1, 1, 2), (0, 1, 0), (0, 1, 1), (1, 0, 1)])
    painted, extended = _theorem_lattices(config, (F(7, 9), F(2, 3), F(41, 36)))
    assert len(painted) == len(extended) == 99
    started = time.monotonic()
    match = lattice_isomorphic(painted, extended)
    elapsed = time.monotonic() - started
    assert match is not None and elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"
    covers = {(match[i], match[j]) for i, j in painted.covers}
    assert covers == extended.covers
