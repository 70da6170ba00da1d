"""Every cone and painting constraint is an integer circuit dependence, and
it is the functional the Fraction oracles solve for.  On every coherent
subdivision of the golden configurations, their extensions and the extended
m = 2-4 polygons, each per-cell constraint is the oracle's, the cones of
subdivisions with a non-simplex cell have the oracle's equalities and
stricts, and each painting constraint is a positive multiple of the
oracle's, for the golden alpha and for seeded ones.  A cell that does not
span has no cone, and a marking that does not span raises an input error."""

import random
import re
from fractions import Fraction

import pytest

from tropaint.errors import InputError, NoCertificateError
from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting import painting_constraint
from tropaint.painting_polytope import extend
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    MarkedCell,
    Subdivision,
    _spanning_marks,
    enumerate_coherent_subdivisions,
    is_triangulation,
    secondary_cone,
)

from oracles import (
    cone_constraint_oracle,
    painting_constraint_oracle,
    primitive_functional,
    secondary_cone_per_cell,
)

F = Fraction
QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)])


def _cases():
    """(id, configuration, golden alpha or None) for the golden
    configurations, their extensions and the extended m = 2-4 polygons."""
    golden = [("quad", QUAD, (F(1, 3), F(1, 3))), ("bipyramid", BIPYRAMID, (F(1, 2), F(1, 3), F(1, 2)))]
    for m in (2, 3, 4):
        config = ngon_configuration(m)
        golden.append((f"ngon{m}", config, admissible_alpha(config)))
    out = []
    for name, config, alpha in golden:
        if not name.startswith("ngon4"):
            out.append(pytest.param(config, alpha, id=name))
        out.append(pytest.param(extend(config, alpha).extended, None, id=f"{name}-extended"))
    return out


CASES = _cases()


@pytest.mark.parametrize("config, alpha", CASES)
def test_per_cell_cones_match_the_fraction_oracle(config, alpha):
    n = len(config.points)
    coarse = 0
    subdivisions = enumerate_coherent_subdivisions(config).payload
    for s in subdivisions:
        for mc in s.maximal:
            basis = _spanning_marks(config, mc.marks)
            for a in sorted(set(range(n)) - set(basis)):
                want = primitive_functional(cone_constraint_oracle(config, basis, a))
                assert want.constant == 0 and config.circuit(basis + [a]) == want.linear
        if not is_triangulation(s):
            coarse += 1
            fast, slow = secondary_cone(config, s), secondary_cone_per_cell(config, s)
            assert fast.equalities == slow.equalities and fast.stricts == slow.stricts
    # a triangle has its trivial triangulation only
    assert coarse > 0 or len(subdivisions) == 1


@pytest.mark.parametrize("config, alpha", CASES)
def test_painting_constraints_are_positive_multiples_of_the_fraction_oracle(config, alpha):
    rng = random.Random(len(config.points))
    d = config.dimension
    alphas = [] if alpha is None else [alpha]
    for _ in range(2):
        alphas.append(tuple(F(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(d)))
    markings = {mc.marks for s in enumerate_coherent_subdivisions(config).payload for mc in s.maximal}
    for a in alphas:
        for marks in sorted(markings, key=sorted):
            fn = painting_constraint(config, marks, a)
            want = painting_constraint_oracle(config, marks, a)
            scale = -fn[-1]
            assert scale > 0 and want.constant == 0
            assert fn == tuple(scale * x for x in want.linear)


def test_secondary_cone_rejects_a_cell_that_does_not_span():
    edge = MarkedCell(frozenset({0, 1}))
    message = re.escape("cell [0, 1] is not full-dimensional")
    for cells in ((edge,), (MarkedCell(frozenset({0, 1, 2, 3})), edge)):
        with pytest.raises(NoCertificateError, match=message):
            secondary_cone(QUAD, Subdivision(QUAD, cells))
    # a flat cell gets one refusal, with or without a non-simplex cell
    line = build_configuration([(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
    for flat in ({0, 1, 2, 3}, {0, 1, 2}):
        cells = (MarkedCell(flat), MarkedCell({0, 3, 4}))
        message = re.escape(f"cell {sorted(flat)} is not full-dimensional")
        with pytest.raises(NoCertificateError, match=message):
            secondary_cone(line, Subdivision(line, cells))


@pytest.mark.parametrize("marks", [{0, 1}, {0, 1, 3}], ids=["edge", "collinear"])
def test_painting_constraint_rejects_a_marking_that_does_not_span(marks):
    with pytest.raises(InputError, match="marking does not span the distinguished point"):
        painting_constraint(QUAD, frozenset(marks), (F(1, 3), F(1, 3)))
