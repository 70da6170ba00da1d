"""Command line front end tying the pipeline together.

Every command reads a configuration JSON (except multiplihedron, which is
purely combinatorial), prints one primary JSON document on stdout, and
optionally writes named artifact files under --out.  All output is
deterministic: orderings are explicit everywhere, so identical inputs give
byte-identical files.

Exit codes: 0 success, 1 usage, 2 bad data, 3 resource cap, 4 verification
failure.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import jsonio, svgout
from .errors import (
    InconsistencyError,
    InputError,
    NoCertificateError,
    ResourceCapError,
    VerificationError,
)
from .geometry import as_fraction
from .multiplihedra import multiplihedron_lattice, verify_multiplihedron_theorem
from .painting import PaintSpec, paint
from .painting_polytope import verify_main_theorem
from .regular_subdivision import (
    Lifting,
    enumerate_coherent_subdivisions,
    induce_subdivision,
)
from .secondary_polytope import secondary_polytope_vertices
from .tropical_dual import dual_complex

DATA_ERRORS = (InputError, InconsistencyError, NoCertificateError)

DEFAULT_MAX_TRIANGULATIONS = 4096
DEFAULT_MAX_CELLS = 65536


def _read_input(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return jsonio.read_configuration(text)


def _parse_eta(config, raw):
    data = jsonio.loads(raw)
    if not isinstance(data, list):
        raise InputError("--eta expects a JSON list of rationals")
    return Lifting.of(config, jsonio.parse_vector(data))


def _parse_bbox(raw):
    parts = raw.split(",")
    if len(parts) != 4:
        raise InputError("--bbox expects xmin,ymin,xmax,ymax")
    return tuple(as_fraction(p.strip()) for p in parts)


def _require_alpha(alpha, path):
    if alpha is None:
        raise InputError(f"{path} carries no alpha; this command needs one")
    return alpha


def _positive_int(raw):
    value = int(raw)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"a cap must be positive, got {value}")
    return value


def _cell_cap(count, cap):
    if count > cap:
        raise ResourceCapError(f"{count} cells exceed --max-cells {cap}")


def _painted_label(pc) -> str:
    parts = []
    for marking, color in sorted(pc.kappa.items(), key=lambda kv: sorted(kv[0])):
        marks = ",".join(str(i) for i in sorted(marking))
        parts.append(f"{marks}:{color[0]}")
    return "|".join(parts)


def _subdivision_label(s) -> str:
    """The subdivision's maximal cells' marks, as "0,1,2|1,2,3"."""
    return "|".join(",".join(str(i) for i in sorted(m)) for m in sorted(s.key, key=sorted))


def _labelled(lattice, label):
    """The lattice with each element of its payload replaced by its label."""
    return replace(lattice, payload=tuple(label(x) for x in lattice.payload))


def _main_report_json(report) -> dict:
    ranks = list(report.painted_poset.ranks)
    counts = sorted(set(ranks))
    return {
        "painted_complexes": len(ranks),
        "extended_subdivisions": len(ranks),
        "rank_counts": [[r, ranks.count(r)] for r in counts],
        "polytope_dimension": report.polytope_dimension,
        "polytope_vertex_count": report.polytope_vertex_count,
        "vertex_checks": report.vertex_checks,
        "lattice_isomorphism": list(report.lattice_match),
        "embedding_map": list(report.constructive_map),
        "isomorphic": True,
    }


def _multiplihedron_report_json(report) -> dict:
    return {
        "leaves": report.m,
        "face_count": report.face_count,
        "vertex_count": report.vertex_count,
        "lattice_isomorphism": list(report.lattice_match),
        "isomorphic": True,
    }


def cmd_subdivide(args):
    config, _ = _read_input(args.input)
    eta = _parse_eta(config, args.eta)
    s = induce_subdivision(config, eta)
    _cell_cap(len(s.maximal), args.max_cells)
    primary = jsonio.dumps(
        {
            "configuration": jsonio.configuration_json(config),
            "eta": jsonio.vector_json(eta.values),
            "subdivision": jsonio.subdivision_json(s),
        }
    )
    return primary, {"subdivision.json": primary}


def cmd_tropical(args):
    config, _ = _read_input(args.input)
    eta = _parse_eta(config, args.eta)
    p, s = dual_complex(config, eta)
    _cell_cap(len(p.cells), args.max_cells)
    primary = jsonio.dumps(
        {
            "configuration": jsonio.configuration_json(config),
            "eta": jsonio.vector_json(eta.values),
            "subdivision": jsonio.subdivision_json(s),
            "complex": jsonio.complex_json(p),
        }
    )
    artifacts = {"complex.json": primary}
    if args.svg:
        bbox = _parse_bbox(args.bbox) if args.bbox else None
        artifacts["complex.svg"] = svgout.complex_svg(p, bbox=bbox)
    return primary, artifacts


def cmd_paint(args):
    config, alpha = _read_input(args.input)
    alpha = _require_alpha(alpha, args.input)
    eta = _parse_eta(config, args.eta)
    level = as_fraction(args.level)
    spec = PaintSpec.of(config, eta.values, level, alpha)
    p, _ = dual_complex(config, spec.eta)
    _cell_cap(len(p.cells), args.max_cells)
    pc = paint(p, spec)
    primary = jsonio.dumps(
        {
            "configuration": jsonio.configuration_json(config, alpha=alpha),
            "eta": jsonio.vector_json(eta.values),
            "level": jsonio.rational_str(level),
            "complex": jsonio.complex_json(p, kappa=pc.kappa),
        }
    )
    artifacts = {"painted.json": primary}
    if args.svg:
        bbox = _parse_bbox(args.bbox) if args.bbox else None
        artifacts["painted.svg"] = svgout.complex_svg(p, bbox=bbox, kappa=pc.kappa)
    return primary, artifacts


def cmd_secondary(args):
    config, _ = _read_input(args.input)
    subdivisions = enumerate_coherent_subdivisions(config, max_count=args.max_triangulations)
    vertices = secondary_polytope_vertices(config, subdivisions)
    lat = _labelled(subdivisions, _subdivision_label)
    primary = jsonio.dumps(
        {
            "configuration": jsonio.configuration_json(config),
            "face_lattice": jsonio.lattice_json(lat),
            "secondary_polytope": jsonio.gkz_json(config, vertices),
        }
    )
    return primary, {
        "secondary.json": primary,
        "hasse.json": jsonio.dumps(jsonio.lattice_json(lat)),
        "hasse.dot": jsonio.lattice_dot(lat),
    }


def _main_report(path):
    """The main-theorem report of a configuration file."""
    config, alpha = _read_input(path)
    return verify_main_theorem(config, _require_alpha(alpha, path))


def cmd_painting_polytope(args):
    report = _main_report(args.input)
    painted_lat = _labelled(report.painted_poset, _painted_label)
    subdivision_lat = _labelled(report.subdivision_poset, _subdivision_label)
    report_text = jsonio.dumps(_main_report_json(report))
    artifacts = {
        "report.json": report_text,
        "extended_configuration.json": jsonio.dumps(
            jsonio.configuration_json(report.extension.extended)
        ),
        "painted_hasse.json": jsonio.dumps(jsonio.lattice_json(painted_lat)),
        "painted_hasse.dot": jsonio.lattice_dot(painted_lat, name="painted"),
        "subdivision_hasse.json": jsonio.dumps(jsonio.lattice_json(subdivision_lat)),
        "subdivision_hasse.dot": jsonio.lattice_dot(subdivision_lat, name="extended"),
    }
    return report_text, artifacts


def cmd_multiplihedron(args):
    lat = multiplihedron_lattice(args.m)
    doc = {"leaves": args.m, "face_lattice": jsonio.lattice_json(lat)}
    if args.verify:
        report = verify_multiplihedron_theorem(args.m)
        doc["verification"] = _multiplihedron_report_json(report)
    primary = jsonio.dumps(doc)
    return primary, {
        "multiplihedron.json": primary,
        "multiplihedron.dot": jsonio.lattice_dot(lat, name="multiplihedron"),
    }


def cmd_verify(args):
    if args.target == "painting-polytope":
        if args.input is None:
            raise InputError("verify painting-polytope needs an input configuration")
        report = _main_report(args.input)
        primary = jsonio.dumps(_main_report_json(report))
    else:
        if args.m is None:
            raise InputError("verify multiplihedron needs -m")
        report = verify_multiplihedron_theorem(args.m)
        primary = jsonio.dumps(_multiplihedron_report_json(report))
    return primary, {"report.json": primary}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tropaint",
        description="Regular subdivisions, tropical dual complexes, paintings, "
        "secondary and painting polytopes, multiplihedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="configuration JSON file")
        p.add_argument("--out", help="directory for artifact files")

    p = sub.add_parser("subdivide", help="regular subdivision induced by a lifting")
    common(p)
    p.add_argument("--eta", required=True, help='JSON list of rationals, e.g. "[-1,1,0,2,0]"')
    p.add_argument("--max-cells", type=_positive_int, default=DEFAULT_MAX_CELLS)
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("tropical", help="dual tropical complex of a lifting")
    common(p)
    p.add_argument("--eta", required=True)
    p.add_argument("--max-cells", type=_positive_int, default=DEFAULT_MAX_CELLS)
    p.add_argument("--svg", action="store_true", help="also render complex.svg")
    p.add_argument("--bbox", help="xmin,ymin,xmax,ymax for the SVG viewport")
    p.set_defaults(func=cmd_tropical)

    p = sub.add_parser("paint", help="three-color a dual complex at a level")
    common(p)
    p.add_argument("--eta", required=True)
    p.add_argument("--level", required=True, help="rational comparison level c")
    p.add_argument("--max-cells", type=_positive_int, default=DEFAULT_MAX_CELLS)
    p.add_argument("--svg", action="store_true", help="also render painted.svg")
    p.add_argument("--bbox", help="xmin,ymin,xmax,ymax for the SVG viewport")
    p.set_defaults(func=cmd_paint)

    p = sub.add_parser("secondary", help="secondary polytope and face lattice")
    common(p)
    p.add_argument(
        "--max-triangulations",
        type=_positive_int,
        default=DEFAULT_MAX_TRIANGULATIONS,
        help="refuse a configuration with more triangulations or more coherent "
        f"subdivisions than this (default {DEFAULT_MAX_TRIANGULATIONS})",
    )
    p.set_defaults(func=cmd_secondary)

    p = sub.add_parser(
        "painting-polytope",
        help="painting polytope with both Hasse diagrams and the report",
    )
    common(p)
    p.set_defaults(func=cmd_painting_polytope)

    p = sub.add_parser("multiplihedron", help="painted-tree face lattice")
    p.add_argument("-m", type=int, required=True, help="number of leaves")
    p.add_argument("--verify", action="store_true", help="also verify against the secondary polytope")
    p.add_argument("--out", help="directory for artifact files")
    p.set_defaults(func=cmd_multiplihedron)

    p = sub.add_parser("verify", help="run a verification and emit its report")
    p.add_argument("target", choices=["painting-polytope", "multiplihedron"])
    p.add_argument("input", nargs="?", help="configuration JSON (painting-polytope)")
    p.add_argument("-m", type=int, help="number of leaves (multiplihedron)")
    p.add_argument("--out", help="directory for artifact files")
    p.set_defaults(func=cmd_verify)

    return parser


_PARSER = _build_parser()  # it depends on no input, so it is built once


def _write_artifacts(out_dir, artifacts):
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted(artifacts):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(artifacts[name])


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        primary, artifacts = args.func(args)
        if args.out:
            _write_artifacts(args.out, artifacts)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(primary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
