"""Rational-safe JSON reading and writing."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from tropaint import jsonio, svgout
from tropaint.errors import InputError
from tropaint.geometry import as_fraction
from tropaint.painting import PaintSpec, paint
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import Lifting
from tropaint.tropical_dual import dual_complex

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])


# JSON rationals, and the CLI's --level and --bbox, are parsed by as_fraction


def test_parse_rational_accepts_ints_and_strings():
    assert as_fraction(3) == F(3)
    assert as_fraction("-5/7") == F(-5, 7)
    assert as_fraction("4") == F(4)
    assert jsonio.parse_vector([3, "-5/7"]) == (F(3), F(-5, 7))


@pytest.mark.parametrize("bad", [0.5, True, False, None, [1], "a/b", "1/0", ""])
def test_parse_rational_rejections(bad):
    with pytest.raises(InputError):
        as_fraction(bad)
    with pytest.raises(InputError):
        jsonio.parse_vector([bad])


def test_rational_str_round_trip():
    for v in [F(0), F(3), F(-5, 7), F(22, 4)]:
        assert as_fraction(jsonio.rational_str(v)) == v
    assert jsonio.rational_str(3) == "3" and jsonio.rational_str(F(22, 4)) == "11/2"
    with pytest.raises(InputError):
        jsonio.rational_str(0.5)


def test_loads_reports_line_and_column():
    with pytest.raises(InputError) as exc:
        jsonio.loads('{\n  "points": [}')
    assert "line 2 column 14" in str(exc.value)


documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=25,
)


@given(documents)
@settings(deadline=None, max_examples=300)
@example({"": [], "b": {}, "a": ()})
@example(["caf\u00e9", '"quoted" \\ back', "tab\tnew\nline\x00\x1f\x7f", "\u2028", "\U0001f600"])
@example({"\u00e9": {"\"": [[], [True, False, None, -12345678901234567890]]}})
def test_dumps_matches_json_dumps(doc):
    assert jsonio.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [0.5, [1, 2.0], {"a": (F(1, 2),)}, {1: "a"}, {"a": {1, 2}}])
def test_dumps_rejects_other_types(bad):
    with pytest.raises(TypeError):
        jsonio.dumps(bad)


def test_configuration_rejects_bad_shapes():
    with pytest.raises(InputError):
        jsonio.read_configuration('{"dimension": 2, "points": [["1"]]}')
    with pytest.raises(InputError):
        jsonio.read_configuration('{"points": [["1", "2"]]}')
    with pytest.raises(InputError):
        jsonio.read_configuration(
            '{"dimension": 1, "points": [["0"], ["1"]], "labels": ["x"]}'
        )
    with pytest.raises(InputError):
        jsonio.read_configuration(
            '{"dimension": 1, "points": [["0"], ["1"]], "alpha": ["1/2", "1/2"]}'
        )


def test_configuration_round_trip_is_bit_exact():
    config = build_configuration(
        [(F(1, 3), F(-7, 2)), (0, 0), (2, 5)], labels=("p", "q", "r")
    )
    text = jsonio.dumps(jsonio.configuration_json(config, alpha=(F(1, 2), F(0))))
    again, alpha = jsonio.read_configuration(text)
    assert again.points == config.points
    assert again.labels == config.labels
    assert alpha == (F(1, 2), F(0))
    assert jsonio.dumps(jsonio.configuration_json(again, alpha=alpha)) == text


def test_complex_json_colors_and_order():
    spec = PaintSpec.of(QUAD, [-1, 1, 0, 2, 0], F(1, 2), (F(1, 3), F(1, 3)))
    p, _ = dual_complex(QUAD, spec.eta)
    pc = paint(p, spec)
    doc = jsonio.complex_json(p, kappa=pc.kappa)
    markings = [tuple(c["marking"]) for c in doc["cells"]]
    assert markings == sorted(markings)
    assert {c["color"] for c in doc["cells"]} <= {"red", "purple", "blue"}
    plain = jsonio.complex_json(p)
    assert all("color" not in c for c in plain["cells"])


def test_svg_requires_plane():
    bip = build_configuration(
        [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    p, _ = dual_complex(bip, Lifting.of(bip, [1, 0, 2, 0, 1]))
    with pytest.raises(InputError):
        svgout.complex_svg(p)


def test_svg_deterministic_and_flagged():
    p, _ = dual_complex(QUAD, Lifting.of(QUAD, [-1, 1, 0, 2, 0]))
    one = svgout.complex_svg(p, bbox=(F(-3), F(-3), F(3), F(3)))
    two = svgout.complex_svg(p, bbox=(F(-3), F(-3), F(3), F(3)))
    assert one == two
    assert "decimal approximations" in one
    assert one.startswith("<svg ")
    assert one.rstrip().endswith("</svg>")


def test_clip_ray_exact_parameter_range():
    box = (F(-1), F(-1), F(1), F(1))
    # starts inside, leaves through x = 1
    assert svgout._clip_ray((F(0), F(0)), (F(2), F(0)), box) == (F(0), F(1, 2))
    # starts outside, crosses the box
    lo, hi = svgout._clip_ray((F(-3), F(0)), (F(1), F(0)), box)
    assert lo == F(2) and hi == F(4)
    # parallel to the box and outside it
    assert svgout._clip_ray((F(0), F(2)), (F(1), F(0)), box) is None
    # points away from the box
    assert svgout._clip_ray((F(2), F(0)), (F(1), F(0)), box) is None


def test_svg_rays_clipped_or_dropped():
    # quad with eta (-1,1,0,2,0): four compact 1-cells and four rays, of
    # which only the ray from (-2,-1) toward (-1,-1) meets this viewport
    p, _ = dual_complex(QUAD, Lifting.of(QUAD, [-1, 1, 0, 2, 0]))
    svg = svgout.complex_svg(p, bbox=(F(-3), F(-3), F(3), F(3)))
    assert svg.count("<line ") == 5
    # that ray stops exactly at the corner (-3,-2), pixel (0,400)
    assert 'x2="0.0000" y2="400.0000"' in svg
    # the ray from (4,-2) toward (1,0) never enters and is not drawn
    assert 'x2="640.0000"' not in svg
