"""Seeded inputs, operations and output checks of the three workloads.

build() turns (workload, seed, size) into a list of Op.  Op.run is the timed
call into tropaint; Op.check verifies its output outside the timed interval.
Operations call tropaint through module attributes (``tp.dual_complex``,
``jsonio.dumps``) so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, floor
from pathlib import Path
from typing import Any, Callable

import tropaint as tp
import tropaint.cli
from tropaint import jsonio, multiplihedra

# Operations per pass.  Tiny sizes are for the benchmark's own tests;
# theorems has three short operations at either size.
# Operations cycle through an odd number of configurations of distinct cost,
# so the median latency falls inside one configuration's cluster rather than
# in the gap between two, where it would jump with noise.
SIZES = {
    "liftings": {"full": 400, "tiny": 5},
    "edge_lengths": {"full": 420, "tiny": 3},
}

# The golden example configurations of tests/golden, with their alphas.
QUAD_POINTS = ((0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1))
QUAD_ALPHA = (Fraction(1, 3), Fraction(1, 3))
BIPYRAMID_POINTS = ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1))
BIPYRAMID_ALPHA = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))

GOLDEN_SEED = 0


class CheckError(Exception):
    """An operation's output is wrong."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def build(workload: str, seed: int, size: str, root: Path, workdir: Path) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "liftings":
        return _liftings(rng, SIZES[workload][size])
    if workload == "edge_lengths":
        return _edge_lengths(rng, SIZES[workload][size])
    if workload == "theorems":
        return _theorems(rng, seed, root, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# liftings: dual complex, paint, recolor from vertices, serialize


def _liftings(rng, count):
    quad = tp.build_configuration(QUAD_POINTS)
    bipyramid = tp.build_configuration(BIPYRAMID_POINTS)
    cases = [("quad", quad, QUAD_ALPHA), ("bipyramid", bipyramid, BIPYRAMID_ALPHA)]
    for m in (4, 5, 6):
        config = tp.ngon_configuration(m)
        cases.append((f"ngon{m}", config, tp.admissible_alpha(config)))
    signs = {name: tp.sign_vector(config, alpha) for name, config, alpha in cases}
    seen = set()
    ops = []
    for i in range(count):
        name, config, alpha = cases[i % len(cases)]
        while True:
            eta = tuple(rng.randint(-9, 9) for _ in config.points)
            level = Fraction(rng.randint(-16, 16), rng.choice((1, 2)))
            if (name, eta, level) not in seen:
                seen.add((name, eta, level))
                break
        ops.append(_lifting_op(name, config, alpha, signs[name], eta, level))
    return ops


def _lifting_op(name, config, alpha, sign, eta, level):
    def run():
        p, s = tp.dual_complex(config, eta)
        painted = tp.paint(p, tp.PaintSpec.of(config, eta, level, alpha))
        vertex_colors = {
            cell.marking: painted.kappa[cell.marking] for cell in p.cells_of_dim(0)
        }
        recolored = tp.colors_from_vertices(p, vertex_colors, sign)
        text = jsonio.dumps(jsonio.complex_json(p, kappa=painted.kappa))
        return p, s, painted, recolored, text

    def check(out):
        p, s, painted, recolored, text = out
        require(recolored == painted.kappa, "colors_from_vertices disagrees with paint")
        # duality: same markings, complementary dimensions, reversed faces
        require(set(p.cells) == set(s.cells), "dual cells and subdivision cells differ")
        for marks, cell in p.cells.items():
            require(
                cell.dimension + s.cells[marks].dim() == config.dimension,
                f"dimensions of {sorted(marks)} are not complementary",
            )
        require(
            set(p.face_pairs()) == {(b, a) for a, b in s.face_pairs()},
            "face relation is not reversed",
        )
        # each maximal cell's support value is attained at its dual vertex
        f = tp.TropicalPolynomial(config, tp.Lifting.of(config, eta))
        for mc in s.maximal:
            value, argmin = tp.evaluate(f, mc.support.linear)
            require(
                value == mc.support.constant and argmin == mc.marks,
                f"support of {sorted(mc.marks)} is not attained at its dual vertex",
            )
        # a dual cell is unbounded exactly when its marks lie on the boundary
        for marks, cell in p.cells.items():
            on_boundary = any(marks <= fs.members for fs in config.facets)
            require(cell.is_compact() != on_boundary, f"compactness of {sorted(marks)}")
        doc = json.loads(text)
        require(
            [c["color"] for c in doc["cells"]]
            == [painted.kappa[m] for m in sorted(p.cells, key=sorted)],
            "serialized colors differ from the painting",
        )

    return Op(f"{name} eta={list(eta)} c={level}", run, check)


# ---------------------------------------------------------------------------
# edge_lengths: realize seeded compact-edge lengths exactly


def _generic_polygon_lifting(rng, config):
    """Integer heights with no four lifted points coplanar, so the lifting
    induces a triangulation and every diagonal in it is a compact edge."""
    while True:
        eta = tuple(rng.randint(-30, 30) for _ in config.points)
        lifted = [tuple(map(int, p)) + (h,) for p, h in zip(config.points, eta)]
        if all(_orientation(q) != 0 for q in combinations(lifted, 4)):
            return eta


def _orientation(simplex):
    """Determinant of the edge vectors from the first of d+1 points in R^d."""
    return _det([[x - y for x, y in zip(p, simplex[0])] for p in simplex[1:]])


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


def _edge_lengths(rng, count):
    cases = []
    for m in (3, 4, 5):
        config = tp.ngon_configuration(m)
        boundary = {f.members for f in config.facets}
        diagonals = [
            frozenset(pair)
            for pair in combinations(range(len(config.points)), 2)
            if frozenset(pair) not in boundary
        ]
        cases.append((f"ngon{m}", config, tp.admissible_alpha(config), diagonals))
    ops = []
    seen = set()
    for i in range(count):
        name, config, beta, diagonals = cases[i % len(cases)]
        while True:
            eta = _generic_polygon_lifting(rng, config)
            lengths = {
                d: Fraction(rng.randint(1, 60), rng.randint(1, 12)) for d in diagonals
            }
            key = (name, eta, tuple(lengths[d] for d in diagonals))
            if key not in seen:
                seen.add(key)
                break
        ops.append(_edge_op(name, config, beta, eta, lengths))
    return ops


def _edge_op(name, config, beta, eta, lengths):
    def run():
        p, s = tp.dual_complex(config, eta)
        target = multiplihedra.EdgeLengthTarget(lengths)
        return s, tp.realize_edge_lengths(p, beta, target)

    def check(out):
        s, realized = out
        p2, s2 = tp.dual_complex(config, realized)
        require(s2.key == s.key, "the realizing lifting induces another subdivision")
        achieved = {
            mk: off for mk, (_, _, off) in multiplihedra._edge_offset(p2, beta).items()
        }
        require(len(achieved) == len(config.points) - 3, "not every diagonal is an edge")
        require(
            achieved == {mk: lengths[mk] for mk in achieved},
            "achieved edge offsets differ from the targets",
        )

    return Op(f"{name} eta={list(eta)}", run, check)


# ---------------------------------------------------------------------------
# theorems: the CLI's verifications, in process


def _interior_alpha(rng, config):
    """A rational interior point off the affine hull of every set of at most
    dimension-many configuration points."""
    d = config.dimension
    box = [(min(p[i] for p in config.points), max(p[i] for p in config.points)) for i in range(d)]
    while True:
        den = rng.randint(2, 7)
        alpha = tuple(
            Fraction(rng.randint(floor(lo * den), ceil(hi * den)), den) for lo, hi in box
        )
        if config.strictly_contains(alpha) and all(
            tp.affine_rank(list(sub) + [alpha]) > tp.affine_rank(list(sub))
            for k in range(1, d + 1)
            for sub in combinations(config.points, k)
        ):
            return alpha


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tropaint.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _theorems(rng, seed, root, workdir):
    golden = root / "tests" / "golden"
    if seed == GOLDEN_SEED:
        bipyramid_path = golden / "bipyramid.json"
    else:
        bipyramid_path = workdir / "bipyramid.json"
        config = tp.build_configuration(BIPYRAMID_POINTS)
        alpha = _interior_alpha(rng, config)
        bipyramid_path.write_text(
            jsonio.dumps(jsonio.configuration_json(config, alpha=alpha)), encoding="utf-8"
        )

    def cli_op(label, argv, check_report):
        out_dir = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None

        def check(out):
            code, stdout, stderr = out
            require(code == 0, f"exit code {code}: {stderr.strip()}")
            check_report(stdout, out_dir)

        return Op(label, lambda: _cli(argv), check)

    def require_golden(stdout, out_dir, stdout_golden, artifact_goldens):
        require(
            stdout.encode() == (golden / stdout_golden).read_bytes(),
            f"stdout differs from {stdout_golden}",
        )
        for artifact, name in artifact_goldens.items():
            require(
                (out_dir / artifact).read_bytes() == (golden / name).read_bytes(),
                f"{artifact} differs from {name}",
            )

    def painting_polytope_report(stdout, out_dir):
        require(json.loads(stdout)["isomorphic"] is True, "report is not isomorphic")
        report = (out_dir / "report.json").read_bytes()
        require(report == stdout.encode(), "report.json differs from stdout")
        # for a drawn alpha the library's VerificationError (exit 4) is the check
        if seed == GOLDEN_SEED:
            require_golden(
                stdout,
                out_dir,
                "pp_bipyramid_report.json",
                {
                    "extended_configuration.json": "pp_bipyramid_extended.json",
                    "painted_hasse.dot": "pp_bipyramid_painted.dot",
                    "subdivision_hasse.dot": "pp_bipyramid_subdivision.dot",
                },
            )

    def secondary_report(stdout, out_dir):
        require_golden(
            stdout, out_dir, "secondary_quad.json", {"hasse.dot": "secondary_quad_hasse.dot"}
        )

    def multiplihedron_report(stdout, out_dir):
        report = json.loads(stdout)
        require(
            (report["face_count"], report["vertex_count"], report["isomorphic"]) == (13, 6, True),
            f"m = 3 report is {report}",
        )

    return [
        cli_op(
            "painting-polytope bipyramid --out",
            ["painting-polytope", str(bipyramid_path), "--out", str(workdir / "painting-polytope")],
            painting_polytope_report,
        ),
        cli_op(
            "verify multiplihedron -m 3",
            ["verify", "multiplihedron", "-m", "3"],
            multiplihedron_report,
        ),
        cli_op(
            "secondary quad --out",
            ["secondary", str(golden / "quad.json"), "--out", str(workdir / "secondary")],
            secondary_report,
        ),
    ]
