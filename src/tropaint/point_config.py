"""Marked point configurations.

A configuration is a finite spanning point set together with the facet data of
its convex hull.  Points may lie in the interior or on proper faces; they stay
part of the configuration and can carry marks downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import DegenerateInputError, InconsistencyError, InputError
from .geometry import (
    Vec,
    _circuit_dependence,
    _hull_facets,
    _int_det,
    _int_row,
    _integer_points,
    _simplicial_hull,
    independent_rows,
    vector,
)


@dataclass(frozen=True)
class FacetSupport:
    """One hull facet as an inward inequality: normal(x) >= threshold holds on Q."""

    normal: Vec  # primitive integer vector
    threshold: Fraction
    members: frozenset[int]  # indices of all configuration points on the facet


@dataclass(frozen=True)
class SignVector:
    """Per-facet position of a query point: +1 outside, 0 on, -1 strictly inside."""

    signs: tuple[int, ...]

    def __str__(self):
        return "(" + ",".join({1: "+", 0: "0", -1: "-"}[s] for s in self.signs) + ")"


class PointConfiguration:
    """Ordered distinct points spanning their ambient space, with hull facets.

    Hulls and volumes run on integer_points alone.  circuit and
    scaled_volume keep what they compute on the instance, keyed by point
    bitmask (bit i for point i), so a walk over the triangulations of one
    configuration computes each circuit and each cell volume once.
    """

    def __init__(self, points: tuple[Vec, ...], labels: tuple[str, ...]):
        """Raises DegenerateInputError when the points span less than their
        space.  The facets are the hull of the integer points, seeded with
        spanning_simplex: an outward facet n . P <= o there is the plane
        (L n) . x = o of the points, negated and scaled to coprime integers."""
        self.points = points
        self.labels = labels
        self.dimension = d = len(points[0])
        self._circuits: dict[int, tuple[int, ...]] = {}
        self._volumes: dict[int, int] = {}
        span = len(self.spanning_simplex) - 1
        if span < d:
            raise DegenerateInputError(f"points span only {span} dimensions, need {d}")
        rows, scale = self.integer_points
        facets = []
        for normal, offset, members in _hull_facets([r[:-1] for r in rows], self.spanning_simplex):
            full = [-scale * w for w in normal] + [-offset]
            g = gcd(*full)
            *inward, threshold = (Fraction(x // g) for x in full)
            facets.append(FacetSupport(tuple(inward), threshold, members))
        self.facets = tuple(facets)

    def __eq__(self, other):
        return isinstance(other, PointConfiguration) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"PointConfiguration({len(self.points)} points, dim {self.dimension})"

    def contains(self, x) -> bool:
        return all(s <= 0 for s in sign_vector(self, x).signs)

    def strictly_contains(self, x) -> bool:
        return all(s < 0 for s in sign_vector(self, x).signs)

    @cached_property
    def volume(self) -> Fraction:
        """Normalized volume of the hull (unit simplex = 1)."""
        _, scale = self.integer_points
        return Fraction(self.scaled_volume((1 << len(self.points)) - 1), scale**self.dimension)

    @cached_property
    def integer_points(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, L): each point times the lcm L of all their denominators,
        followed by a 1.  The linear dependences of these rows are the
        points' affine dependences, and the determinant of d + 1 of them is
        L^d times the normalized volume of their simplex, up to sign."""
        pts, scale = _integer_points(self.points)
        return tuple(p + (1,) for p in pts), scale

    @cached_property
    def spanning_simplex(self) -> tuple[int, ...]:
        """The indices of the first d + 1 affinely independent points, the
        ones a greedy pass over the integer rows keeps.  Their number is the
        span the constructor checks, and they seed the hull of facets and
        every upper hull of induce_subdivision."""
        rows, _ = self.integer_points
        return tuple(independent_rows(rows))

    @cached_property
    def facet_masks(self) -> tuple[int, ...]:
        """Each facet's members as an int bitmask, bit i for point i."""
        return tuple(sum(1 << i for i in f.members) for f in self.facets)

    @cached_property
    def lifting_frame(self) -> tuple[int, ...]:
        """The points off spanning_simplex, in order.

        The liftings that are affine functions of the points are the row
        space of the transposed integer rows, whose column i is point i's
        row.  The pivot columns of its echelon form are the first affinely
        independent points, the spanning simplex, so the unit vectors at the
        other points frame lifting space modulo the affine liftings: the
        frame _cone_rays derives for any cone whose lineality they are.
        """
        simplex = set(self.spanning_simplex)
        return tuple(i for i in range(len(self.points)) if i not in simplex)

    def circuit(self, ids) -> tuple[int, ...]:
        """The primitive affine dependence of the d + 2 points ids, one integer
        coefficient per configuration point, positive on the last id.

        It is read off the signed maximal minors of their rows (L p, 1), with
        no system solved, once per point set: the primitive dependence is
        kept by the ids' bitmask and oriented on each call.  When the other
        ids are affinely independent, the dependence is unique up to scale
        and nonzero on the last id; it vanishes on a lifting exactly when the
        lifted last point lands on the affine hull of the others, and is
        positive when it lies strictly below it.  Otherwise the last
        coefficient is zero, which raises InconsistencyError.
        """
        mask = 0
        for i in ids:
            mask |= 1 << i
        coef = self._circuits.get(mask)
        if coef is None:
            rows, _ = self.integer_points
            members = [i for i in range(mask.bit_length()) if mask >> i & 1]
            dep = _circuit_dependence([rows[i] for i in members])
            g = gcd(*dep) or 1
            full = [0] * len(rows)
            for i, c in zip(members, dep):
                full[i] = c // g
            coef = self._circuits[mask] = tuple(full)
        last = coef[ids[-1]]
        if last > 0:
            return coef
        if last < 0:
            return tuple(-c for c in coef)
        raise InconsistencyError(f"points {sorted(ids[:-1])} are affinely dependent")

    def scaled_volume(self, mask: int) -> int:
        """L^d times the normalized volume of the hull of the points in mask,
        0 when they span less than d dimensions.  Computed once per mask and
        kept.

        For d + 1 points it is the absolute determinant of their integer
        rows.  Otherwise their beneath-beyond hull, seeded with their first
        affinely independent points, is coned from R / (d + 1), R the seed's
        vertex sum: the rows of a simplicial facet's points and the row
        (R, d + 1) have d + 1 times the scaled volume of that cone as their
        absolute determinant, so the sum is exactly d + 1 times the result.
        """
        vol = self._volumes.get(mask)
        if vol is None:
            rows, _ = self.integer_points
            d = self.dimension
            cell = [rows[i] for i in range(mask.bit_length()) if mask >> i & 1]
            if len(cell) == d + 1:
                vol = abs(_int_det(cell))
            else:
                seed, vol = independent_rows(cell), 0
                if len(seed) > d:
                    facets, ref = _simplicial_hull([r[:-1] for r in cell], seed)
                    apex = [*ref, d + 1]
                    dets = (abs(_int_det([cell[i] for i in v] + [apex])) for _, _, v in facets)
                    vol = sum(dets) // (d + 1)
            self._volumes[mask] = vol
        return vol


def build_configuration(points, labels=None) -> PointConfiguration:
    """Validate and package a point list, computing hull facet data.

    Requires pairwise distinct points of full affine rank (at least dim+1 of
    them).  Labels default to a0, a1, ... in input order.
    """
    pts = tuple(vector(p) for p in points)
    if not pts:
        raise InputError("empty point list")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise InputError("points of mixed dimension")
    if len(set(pts)) != len(pts):
        dup = next(p for p in pts if pts.count(p) > 1)
        raise InputError(f"duplicate point {tuple(map(str, dup))}")
    if labels is None:
        labels = tuple(f"a{i}" for i in range(len(pts)))
    else:
        labels = tuple(labels)
        if len(labels) != len(pts) or len(set(labels)) != len(labels):
            raise InputError("labels must be distinct and match the point count")
    return PointConfiguration(pts, labels)


def sign_vector(config: PointConfiguration, alpha) -> SignVector:
    """Three-way comparison of a point against every hull facet.

    +1 means the facet inequality is violated (the point lies beyond that
    facet), 0 means it sits on the facet hyperplane, -1 strictly inside.
    The comparison runs on ints: a facet's normal and threshold have
    denominator 1, so with alpha = A / D it compares normal . A with
    threshold times D.
    """
    *a, den = _int_row(alpha)
    if len(a) != config.dimension:
        raise InputError("query point has the wrong dimension")
    signs = []
    for f in config.facets:
        v = sum(w.numerator * x for w, x in zip(f.normal, a))
        t = f.threshold.numerator * den
        signs.append(-1 if v > t else 0 if v == t else 1)
    return SignVector(tuple(signs))
