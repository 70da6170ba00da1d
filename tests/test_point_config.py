from fractions import Fraction

import pytest

from tropaint.errors import DegenerateInputError, InconsistencyError, InputError
from tropaint.point_config import build_configuration, sign_vector

from oracles import vertex_indices

QUAD = [(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)]
BIPYRAMID = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]


def test_quadrilateral_configuration():
    config = build_configuration(QUAD)
    assert config.dimension == 2
    assert config.labels == ("a0", "a1", "a2", "a3", "a4")
    # (0,0) is interior: a quadrilateral with 4 hull vertices
    assert vertex_indices(config) == frozenset({1, 2, 3, 4})
    assert len(config.facets) == 4
    assert config.strictly_contains((0, 0))
    assert config.contains((1, 0)) and not config.strictly_contains((1, 0))
    assert not config.contains((2, 0))


def test_facets_are_inward_inequalities():
    config = build_configuration(QUAD)
    for f in config.facets:
        values = [sum(w * x for w, x in zip(f.normal, p)) for p in config.points]
        assert all(v >= f.threshold for v in values)
        assert {i for i, v in enumerate(values) if v == f.threshold} == f.members


def test_bipyramid_configuration():
    config = build_configuration(BIPYRAMID)
    assert vertex_indices(config) == frozenset(range(5))
    assert len(config.facets) == 6
    assert config.volume == 6


def test_triangle_three_facets():
    config = build_configuration([(0, 0), (1, 0), (0, 1)])
    assert len(config.facets) == 3


def test_build_rejects_duplicates_and_flat_input():
    with pytest.raises(InputError):
        build_configuration([(0, 0), (1, 0), (0, 1), (1, 0)])
    with pytest.raises(DegenerateInputError):
        build_configuration([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(InputError):
        build_configuration([(0, 0), (1, 0), (0, 1)], labels=["x", "x", "y"])


def test_build_reports_the_span_of_flat_input():
    with pytest.raises(DegenerateInputError, match="^points span only 1 dimensions, need 2$"):
        build_configuration([(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(DegenerateInputError, match="^points span only 1 dimensions, need 3$"):
        build_configuration([(0, 0, 0), (1, 2, 3)])
    with pytest.raises(DegenerateInputError, match="^points span only 2 dimensions, need 3$"):
        build_configuration([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


def test_containment_refuses_a_point_of_the_wrong_dimension():
    config = build_configuration([(0, 0), (1, 0), (0, 1)])
    for x in ((0, 0, 0), (0,)):
        for test in (config.contains, config.strictly_contains):
            with pytest.raises(InputError, match="wrong dimension"):
                test(x)


def test_containment_reads_the_sign_vector():
    config = build_configuration(BIPYRAMID)
    third = Fraction(1, 3)
    for x in [(0, 0, 0), (1, 0, 0), (third, third, third), (Fraction(1, 2), third, Fraction(1, 2))]:
        signs = sign_vector(config, x).signs
        assert config.contains(x) == all(s <= 0 for s in signs)
        assert config.strictly_contains(x) == all(s < 0 for s in signs)
    assert config.strictly_contains((0, 0, 0)) and not config.strictly_contains((1, 0, 0))
    assert config.contains((third, third, third)) and not config.contains((1, 1, 0))


def test_sign_vector_interior_point_all_minus():
    config = build_configuration(QUAD)
    sv = sign_vector(config, (Fraction(1, 3), Fraction(1, 3)))
    assert sv.signs == (-1, -1, -1, -1)
    assert str(sv) == "(-,-,-,-)"


def test_sign_vector_on_boundary_has_zero():
    config = build_configuration(QUAD)
    sv = sign_vector(config, (1, 0))
    assert 0 in sv.signs
    assert 1 not in sv.signs


def test_sign_vector_bipyramid_outside_one_facet():
    config = build_configuration(BIPYRAMID)
    sv = sign_vector(config, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)))
    plus = [i for i, s in enumerate(sv.signs) if s == 1]
    assert len(plus) == 1
    assert config.facets[plus[0]].members == frozenset({0, 1, 3})


def test_sign_vector_of_a_vertex():
    config = build_configuration(QUAD)
    for i in vertex_indices(config):
        sv = sign_vector(config, config.points[i])
        assert 1 not in sv.signs
        assert sum(1 for s in sv.signs if s == 0) >= 2



def test_circuit_is_kept_once_and_oriented_per_call():
    config = build_configuration(QUAD)
    # a2 + a4 = a0 + a3, kept once for the point set and oriented per call
    coef = config.circuit([0, 2, 3, 4])
    assert coef[4] > 0 and coef[1] == 0
    assert config.circuit([4, 2, 0, 3]) == tuple(-c for c in coef)
    assert config.circuit([3, 0, 2, 4]) == coef
    assert config.circuit([0, 1, 2, 3])[3] > 0
    assert len(config._circuits) == 2
    # a0, a1 and a3 are collinear, so the dependence misses a2
    with pytest.raises(InconsistencyError):
        config.circuit([0, 1, 3, 2])
