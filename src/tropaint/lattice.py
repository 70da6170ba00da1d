"""Finite posets, graded face lattices, and lattice isomorphism search."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InconsistencyError, InputError


class Poset:
    """Partial order on elements 0..n-1, stored as up-set bitmasks.

    le_pairs may be any relation whose reflexive-transitive closure is the
    intended order; the closure is computed here.  Antisymmetry is checked.
    ranks are face-lattice ranks where an enumerator read them off a fan.
    """

    def __init__(self, elements, le_pairs, ranks=None):
        self.elements = tuple(elements)
        self.ranks = None if ranks is None else tuple(ranks)
        n = len(self.elements)
        up = [1 << i for i in range(n)]
        for i, j in le_pairs:
            up[i] |= 1 << j
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = up[i]
                m = acc
                while m:
                    j = (m & -m).bit_length() - 1
                    m &= m - 1
                    acc |= up[j]
                if acc != up[i]:
                    up[i] = acc
                    changed = True
        for i in range(n):
            for j in _bits(up[i] >> (i + 1) << (i + 1)):
                if up[j] >> i & 1:
                    raise InputError(f"antisymmetry violated between {i} and {j}")
        self._up = up

    def __len__(self):
        return len(self.elements)

    def le(self, i: int, j: int) -> bool:
        return bool(self._up[i] >> j & 1)

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with j covering i: i < j with nothing strictly between,
        that is j in i's strict up-set and in no strict up-set of its members."""
        strict = [u & ~(1 << i) for i, u in enumerate(self._up)]
        out = []
        for i, s in enumerate(strict):
            above = 0
            for k in _bits(s):
                above |= strict[k]
            out += [(i, j) for j in _bits(s & ~above)]
        return out

    def maximal(self) -> list[int]:
        return [i for i in range(len(self.elements)) if self._up[i] == 1 << i]

    def minimal(self) -> list[int]:
        n = len(self.elements)
        below = [False] * n
        for i in range(n):
            for j in _bits(self._up[i] & ~(1 << i)):
                below[j] = True
        return [i for i in range(n) if not below[i]]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


@dataclass(frozen=True)
class FaceLattice:
    """Graded bounded-above poset given by ranks and Hasse cover pairs.

    payload holds one opaque human-readable identifier per element for
    reporting; it plays no role in comparisons.
    """

    ranks: tuple[int, ...]
    covers: frozenset[tuple[int, int]]
    payload: tuple[str, ...] = field(compare=False, default=())

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
    exactly.  Returns a list mapping l1 indices to l2 indices.
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
    cov2 = {(i, j) for i, j in l2.covers}
    up1 = l1.up_adjacency()
    down1 = l1.down_adjacency()
    candidates = [sorted(j for j in range(n) if c2[j] == c1[i]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(candidates[i]), -len(up1[i]) - len(down1[i])))
    match = [-1] * n
    used = [False] * n

    def ok(i: int, j: int) -> bool:
        # forward cover consistency; with exact per-element cover degrees this
        # forces covers to map bijectively onto covers once the match is total
        if used[j] or len(up1[i]) != updeg2[j] or len(down1[i]) != downdeg2[j]:
            return False
        for k in up1[i]:
            if match[k] != -1 and (j, match[k]) not in cov2:
                return False
        for k in down1[i]:
            if match[k] != -1 and (match[k], j) not in cov2:
                return False
        return True

    updeg2 = [0] * n
    downdeg2 = [0] * n
    for a, b in cov2:
        updeg2[a] += 1
        downdeg2[b] += 1

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
                pos += 1
                break
        else:
            tried[pos] = 0
            pos -= 1
            if pos < 0:
                return None
            prev = order[pos]
            used[match[prev]] = False
            match[prev] = -1
    return match
