import random

import pytest

from tropaint.errors import InconsistencyError, InputError
from tropaint.lattice import (
    FaceLattice,
    Poset,
    graded_lattice,
    lattice_isomorphic,
)

from oracles import poset_oracle


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


def test_poset_closure_and_covers():
    p = Poset(("a", "b", "c", "d"), [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert p.le(0, 3)  # via transitive closure
    assert not p.le(1, 2)
    assert p.covers() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert p.maximal() == [3]
    assert p.minimal() == [0]


def test_poset_antisymmetry_rejected():
    with pytest.raises(InputError):
        Poset(("a", "b"), [(0, 1), (1, 0)])


def test_poset_matches_pairwise_oracle():
    # random relations on up to 12 elements: about half are acyclic, drawn
    # along a shuffled order, and the rest may hold cycles
    rng = random.Random(20)
    clashes = 0
    for trial in range(600):
        n = rng.randint(0, 12)
        rank = list(range(n))
        rng.shuffle(rank)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        if trial % 2:
            pairs = [(i, j) for i, j in pairs if rank[i] <= rank[j]]
        le, clash, covers = poset_oracle(n, pairs)
        if clash is not None:
            clashes += 1
            with pytest.raises(InputError, match=f"between {clash[0]} and {clash[1]}$"):
                Poset(range(n), pairs)
            continue
        p = Poset(range(n), pairs)
        assert [[p.le(i, j) for j in range(n)] for i in range(n)] == le
        assert p.covers() == covers
    assert 50 < clashes < 300


def test_graded_lattice_validation():
    with pytest.raises(InconsistencyError):
        graded_lattice([0, 2], [(0, 1)])  # cover jumps two ranks
    with pytest.raises(InconsistencyError):
        graded_lattice([0, 1, 1], [(0, 1), (0, 2)])  # two top elements


def test_chain_lattice_from_poset():
    p = Poset(("x", "y", "z"), [(0, 1), (1, 2)])
    lat = graded_lattice([0, 1, 2], p.covers())
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
