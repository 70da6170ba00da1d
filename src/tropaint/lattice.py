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
    """Validate and package a graded lattice: covers must name elements,
    indices in range(len(ranks)), and raise rank by one, every element but
    one top must lie below another, and every element of nonzero rank above
    another, so rank 0 is the least rank and nonempty.  A payload holds one
    object per element."""
    ranks = tuple(int(r) for r in ranks)
    covers = frozenset((int(i), int(j)) for i, j in covers)
    n = len(ranks)
    outside = sorted(c for c in covers if not (0 <= c[0] < n and 0 <= c[1] < n))
    if outside:
        raise InconsistencyError(f"covers {outside} name no element of {n}")
    for i, j in covers:
        if ranks[j] != ranks[i] + 1:
            raise InconsistencyError(
                f"cover {i}->{j} jumps rank {ranks[i]}->{ranks[j]}"
            )
    maximal = sorted(set(range(n)) - {i for i, _ in covers})
    if len(maximal) > 1:
        raise InconsistencyError(f"expected a unique top element, but {maximal} lie below none")
    floating = sorted({k for k in range(n) if ranks[k]} - {j for _, j in covers})
    if floating:
        raise InconsistencyError(f"elements {floating} of nonzero rank lie above none")
    payload = ("",) * n if payload is None else tuple(payload)
    if len(payload) != n:
        raise InconsistencyError(f"a payload of {len(payload)} objects for {n} elements")
    return FaceLattice(ranks, covers, payload)


def _refined_colors(sides) -> list[list[int]]:
    """Stable iterated neighborhood coloring of several lattices at once.

    sides holds one (ranks, up, down) adjacency triple per lattice.  All
    share one signature table, so equal colors are one isomorphism-invariant
    class in every lattice, and one lattice's colors give the partition its
    own refinement would reach.  Stops when the class count stops growing.
    """
    colors = [list(ranks) for ranks, _, _ in sides]
    count = len({r for c in colors for r in c})
    while True:
        table: dict[tuple, int] = {}
        new = []
        for c, (_, up, down) in zip(colors, sides):
            sigs = [
                (c[i], tuple(sorted(c[j] for j in up[i])), tuple(sorted(c[j] for j in down[i])))
                for i in range(len(c))
            ]
            new.append([table.setdefault(sig, len(table)) for sig in sigs])
        if len(table) == count:
            return new
        colors, count = new, len(table)


def lattice_isomorphic(l1: FaceLattice, l2: FaceLattice):
    """A rank-preserving order isomorphism as an index map, or None.

    Backtracking over color-refinement classes; covers must map onto covers
    exactly.  Returns a list mapping l1 indices to l2 indices.  Both lattices
    are refined together, and an l1 element's candidates are the l2 elements
    of its class in index order.  Each match is forward-checked: every
    unmatched cover neighbour of the element just matched must keep a
    candidate that ok accepts.  ok only grows stricter as the match grows, so
    a branch cut there has no completion, and the search meets the same
    first match as without the check.
    """
    up1, down1 = l1.up_adjacency(), l1.down_adjacency()
    up2, down2 = l2.up_adjacency(), l2.down_adjacency()
    c1, c2 = _refined_colors([(l1.ranks, up1, down1), (l2.ranks, up2, down2)])
    if sorted(c1) != sorted(c2):
        return None
    classes: dict[int, list[int]] = {}
    for j, c in enumerate(c2):
        classes.setdefault(c, []).append(j)
    candidates = [classes[c] for c in c1]
    n = len(l1)
    cov2 = l2.covers
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
