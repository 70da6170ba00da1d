import pytest

from tropaint.errors import InconsistencyError
from tropaint.lattice import (
    FaceLattice,
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


def test_graded_lattice_validation():
    with pytest.raises(InconsistencyError):
        graded_lattice([0, 2], [(0, 1)])  # cover jumps two ranks
    with pytest.raises(InconsistencyError):
        graded_lattice([0, 1, 1], [(0, 1), (0, 2)])  # two top elements


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
