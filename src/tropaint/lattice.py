"""Graded face lattices and lattice isomorphism search."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InconsistencyError


@dataclass(frozen=True)
class FaceLattice:
    """Graded bounded-above poset given by ranks and Hasse cover pairs.

    payload holds one object per element: the enumerators' subdivisions or
    painted complexes, or a human-readable identifier for reporting; it
    plays no role in comparisons.
    """

    ranks: tuple[int, ...]
    covers: frozenset[tuple[int, int]]
    payload: tuple = field(compare=False, default=())

    def __len__(self):
        return len(self.ranks)

    def rank_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.ranks:
            out[r] = out.get(r, 0) + 1
        return out

    def up_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.ranks]
        for i, j in sorted(self.covers):
            adj[i].append(j)
        return adj

    def down_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.ranks]
        for i, j in sorted(self.covers):
            adj[j].append(i)
        return adj


def graded_lattice(ranks, covers, payload=None) -> FaceLattice:
    """Validate and package a graded lattice: covers must raise rank by one,
    there must be exactly one top element, and rank 0 must be nonempty."""
    ranks = tuple(int(r) for r in ranks)
    covers = frozenset((int(i), int(j)) for i, j in covers)
    n = len(ranks)
    for i, j in covers:
        if ranks[j] != ranks[i] + 1:
            raise InconsistencyError(
                f"cover {i}->{j} jumps rank {ranks[i]}->{ranks[j]}"
            )
    if n and ranks.count(max(ranks)) != 1:
        raise InconsistencyError("expected a unique top element")
    if n and 0 not in ranks:
        raise InconsistencyError("no rank-0 elements")
    if payload is None:
        payload = tuple("" for _ in ranks)
    return FaceLattice(ranks, covers, tuple(payload))


def _refined_colors(lat: FaceLattice) -> list[int]:
    """Stable iterated neighborhood coloring; isomorphism-invariant classes."""
    up = lat.up_adjacency()
    down = lat.down_adjacency()
    colors = list(lat.ranks)
    while True:
        sigs = []
        for i in range(len(lat)):
            sigs.append(
                (
                    colors[i],
                    tuple(sorted(colors[j] for j in up[i])),
                    tuple(sorted(colors[j] for j in down[i])),
                )
            )
        table: dict[tuple, int] = {}
        for s in sorted(set(sigs)):
            table[s] = len(table)
        new = [table[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def lattice_isomorphic(l1: FaceLattice, l2: FaceLattice):
    """A rank-preserving order isomorphism as an index map, or None.

    Backtracking over color-refinement classes; covers must map onto covers
    exactly.  Returns a list mapping l1 indices to l2 indices.  Each match
    is forward-checked: every unmatched cover neighbour of the element just
    matched must keep a candidate that ok accepts.  ok only grows stricter
    as the match grows, so a branch cut there has no completion, and the
    search meets the same first match as without the check.
    """
    if len(l1) != len(l2) or l1.rank_counts() != l2.rank_counts():
        return None
    c1 = _refined_colors(l1)
    c2 = _refined_colors(l2)
    count1: dict[int, int] = {}
    count2: dict[int, int] = {}
    for c in c1:
        count1[c] = count1.get(c, 0) + 1
    for c in c2:
        count2[c] = count2.get(c, 0) + 1
    if count1 != count2:
        return None
    n = len(l1)
    cov2 = l2.covers
    up1 = l1.up_adjacency()
    down1 = l1.down_adjacency()
    up2 = l2.up_adjacency()
    down2 = l2.down_adjacency()
    candidates = [sorted(j for j in range(n) if c2[j] == c1[i]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(candidates[i]), -len(up1[i]) - len(down1[i])))
    match = [-1] * n
    used = [False] * n

    def ok(i: int, j: int) -> bool:
        # forward cover consistency; with exact per-element cover degrees this
        # forces covers to map bijectively onto covers once the match is total
        if used[j] or len(up1[i]) != len(up2[j]) or len(down1[i]) != len(down2[j]):
            return False
        for k in up1[i]:
            if match[k] != -1 and (j, match[k]) not in cov2:
                return False
        for k in down1[i]:
            if match[k] != -1 and (match[k], j) not in cov2:
                return False
        return True

    def viable(i: int, j: int) -> bool:
        # with i matched to j, a cover neighbour of i can only go to the
        # same-colored cover neighbours of j on the same side
        for near1, near2 in ((up1[i], up2[j]), (down1[i], down2[j])):
            for k in near1:
                if match[k] == -1 and not any(c2[c] == c1[k] and ok(k, c) for c in near2):
                    return False
        return True

    # depth-first search with an explicit stack: tried[pos] counts the
    # candidates of order[pos] already tried, so a lattice of any size
    # searches in the same order without deep recursion
    tried = [0] * n
    pos = 0
    while pos < n:
        i = order[pos]
        cands = candidates[i]
        while tried[pos] < len(cands):
            j = cands[tried[pos]]
            tried[pos] += 1
            if ok(i, j):
                match[i] = j
                used[j] = True
                if viable(i, j):
                    pos += 1
                    break
                used[j] = False
                match[i] = -1
        else:
            tried[pos] = 0
            pos -= 1
            if pos < 0:
                return None
            prev = order[pos]
            used[match[prev]] = False
            match[prev] = -1
    return match
