"""Spans around calls into the tropaint modules, installed from outside.

Tracer.install() wraps every public function of every loaded ``tropaint``
module and rebinds each module attribute that refers to one, because
``from .geometry import ...`` copies the binding into every importing
module.  A wrapper records one span per call: its id, the function, the
enclosing span, start and end on ``time.perf_counter`` and whether an
exception escaped.  Spans stay in memory; per_layer_metrics() turns them
into the per-layer metrics at the end of a pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

# Layer of each tropaint module.  jsonio and svgout share the io layer.
LAYERS = {
    "geometry": "geometry",
    "point_config": "point_config",
    "regular_subdivision": "regular_subdivision",
    "tropical_dual": "tropical_dual",
    "painting": "painting",
    "secondary_polytope": "secondary_polytope",
    "painting_polytope": "painting_polytope",
    "lattice": "lattice",
    "multiplihedra": "multiplihedra",
    "jsonio": "io",
    "svgout": "io",
    "cli": "cli",
}

# Per-element helpers called millions of times: a span each would cost more
# than the call.  Their time counts as self time of the calling span.
FINE_GRAINED = frozenset(
    {
        "as_fraction",
        "vector",
        "vadd",
        "vsub",
        "vscale",
        "vdot",
        "is_zero_vector",
        "primitive_vector",
        "rational_str",
        "vector_json",
        "parse_rational",
        "parse_vector",
    }
)

# Functions are named "<module>.<function>".
LP = ("geometry.lp_maximize", "geometry.lp_feasible_strict")
HULL = tuple(
    "geometry." + f
    for f in (
        "upper_hull_facets",
        "convex_hull_facets",
        "hull_volume",
        "hull_vertex_indices",
        "point_in_hull",
        "affine_coordinates",
        "polytope_hrep",
        "polytope_vertex_indices",
        "face_member_sets",
    )
)
LINALG = tuple(
    "geometry." + f
    for f in (
        "matrix_rank",
        "solve_square",
        "nullspace_vector",
        "nullspace_basis",
        "affine_rank",
        "affine_combination",
        "interpolate_affine",
        "simplex_normalized_volume",
    )
)
TRIANGULATIONS = "regular_subdivision.enumerate_regular_triangulations"
ENUMERATORS = (TRIANGULATIONS, "regular_subdivision.enumerate_coherent_subdivisions")
PAINTED = "painting.enumerate_painted_complexes"

# Functions whose return value feeds a metric, and what is kept of it.
RESULT_PROBES = {
    "geometry.lp_feasible_strict": lambda r: r is not None,
    ENUMERATORS[0]: len,
    ENUMERATORS[1]: len,
    PAINTED: len,
}

ROOT = "op"

# name -> unit, in output order.  BENCHMARK.json declares the same list.
PER_LAYER = {
    "geometry.lp.calls": "count",
    "geometry.lp.self_s": "s",
    "geometry.lp.feasible_ratio": "ratio",
    "geometry.hull.calls": "count",
    "geometry.hull.self_s": "s",
    "geometry.linalg.calls": "count",
    "geometry.linalg.self_s": "s",
    "regular_subdivision.induce.calls": "count",
    "regular_subdivision.induce.self_s": "s",
    "regular_subdivision.secondary_cone.calls": "count",
    "regular_subdivision.secondary_cone.total_s": "s",
    "regular_subdivision.enumerate.self_s": "s",
    "regular_subdivision.enumerate.results": "count",
    "regular_subdivision.enumerate.induce_per_triangulation": "ratio",
    "tropical_dual.dual_complex.calls": "count",
    "tropical_dual.dual_complex.self_s": "s",
    "painting.paint.calls": "count",
    "painting.paint.self_s": "s",
    "painting.painting_cone.calls": "count",
    "painting.painting_cone.total_s": "s",
    "painting.enumerate.self_s": "s",
    "painting.enumerate.results": "count",
    "painting.enumerate.lp_per_result": "ratio",
    "secondary_polytope.rank.calls": "count",
    "secondary_polytope.rank.total_s": "s",
    "painting_polytope.verify.self_s": "s",
    "lattice.isomorphic.calls": "count",
    "lattice.isomorphic.self_s": "s",
    "multiplihedra.realize.calls": "count",
    "multiplihedra.realize.self_s": "s",
    "multiplihedra.realize.dual_complex_per_call": "ratio",
    "multiplihedra.lattice.self_s": "s",
    "multiplihedra.verify.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in dict.fromkeys(LAYERS.values())},
    **{f"{layer}.errors": "count" for layer in dict.fromkeys(LAYERS.values())},
    "trace.spans": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Span store and wrapper factory for one traced pass."""

    def __init__(self):
        self.names: list[str] = [ROOT]  # function id -> "<module>.<function>"
        self.layers: list[str] = [""]  # function id -> layer
        self.spans: list[tuple] = []  # (id, fid, parent, t0, t1, failed, probe)
        self.stack = [-1]
        self.next_id = 0
        self.enabled = True

    def _wrap(self, fn, fid, probe):
        clock = time.perf_counter
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, fid, parent, t0, t1, True, None))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, fid, parent, t0, t1, False, probe(result) if probe else None))
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions of every loaded tropaint module and
        rebind every module attribute naming one; returns how many."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "tropaint"]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            if short not in LAYERS:
                continue
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in FINE_GRAINED
                ):
                    qualified = f"{short}.{name}"
                    self.names.append(qualified)
                    self.layers.append(LAYERS[short])
                    probe = RESULT_PROBES.get(qualified)
                    wrapped[id(obj)] = self._wrap(obj, len(self.names) - 1, probe)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        return len(wrapped)

    @contextmanager
    def op(self):
        """Root span of one operation: every span inside it descends from it."""
        sid = self.next_id
        self.next_id = sid + 1
        self.stack.append(sid)
        t0 = time.perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            self.stack.pop()
            self.spans.append((sid, 0, -1, t0, time.perf_counter(), failed, None))

    @contextmanager
    def paused(self):
        """Calls made inside are not traced (the output checks run here)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def per_layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric but trace.overhead_ratio, from the spans.

        Self time is a span's duration minus its child spans' durations;
        total_s sums whole spans that are not nested in a span of the same
        function.  A layer's errors count exceptions that leave a span of
        the layer for a span of another layer or for the operation.
        """
        names, layers = self.names, self.layers
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        for sid, _, parent, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

        def fname(sid):
            return names[by_id[sid][1]] if sid >= 0 else None

        def under(span, ancestors):
            parent = span[2]
            while parent >= 0:
                if fname(parent) in ancestors:
                    return True
                parent = by_id[parent][2]
            return False

        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        layer_errors = {layer: 0 for layer in LAYERS.values()}
        spans_of: dict[str, list] = {}
        for span in self.spans:
            sid, fid, parent, t0, t1, failed, _ = span
            name, layer = names[fid], layers[fid]
            own = (t1 - t0) - child_time.get(sid, 0.0)
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if fname(parent) != name:
                total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
            spans_of.setdefault(name, []).append(span)
            if fid == 0:
                continue
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            if failed and (parent < 0 or layers[by_id[parent][1]] != layer):
                layer_errors[layer] += 1

        def n(*fns):
            return sum(calls.get(f, 0) for f in fns)

        def own(*fns):
            return sum(self_s.get(f, 0.0) for f in fns)

        def probed(fn):
            return [s[6] for s in spans_of.get(fn, ()) if not s[5]]

        def ratio(num, den):
            return num / den if den else 0.0

        def count_spans(fn, keep):
            return sum(1 for s in spans_of.get(fn, ()) if keep(s))

        triangulations = sum(probed(TRIANGULATIONS))
        painted = sum(probed(PAINTED))
        enum_results = sum(
            s[6]
            for fn in ENUMERATORS
            for s in spans_of.get(fn, ())
            if not s[5] and not under(s, ENUMERATORS)
        )
        induce_in_enum = count_spans(
            "regular_subdivision.induce_subdivision", lambda s: under(s, (TRIANGULATIONS,))
        )
        chamber_lps = count_spans(
            "geometry.lp_feasible_strict", lambda s: fname(s[2]) == PAINTED
        )
        dual_in_realize = count_spans(
            "tropical_dual.dual_complex",
            lambda s: under(s, ("multiplihedra.realize_edge_lengths",)),
        )

        out = {
            "geometry.lp.calls": n("geometry.lp_maximize"),
            "geometry.lp.self_s": own(*LP),
            "geometry.lp.feasible_ratio": ratio(
                sum(probed("geometry.lp_feasible_strict")), n("geometry.lp_feasible_strict")
            ),
            "geometry.hull.calls": n("geometry.upper_hull_facets", "geometry.convex_hull_facets"),
            "geometry.hull.self_s": own(*HULL),
            "geometry.linalg.calls": n(*LINALG),
            "geometry.linalg.self_s": own(*LINALG),
            "regular_subdivision.induce.calls": n("regular_subdivision.induce_subdivision"),
            "regular_subdivision.induce.self_s": own("regular_subdivision.induce_subdivision"),
            "regular_subdivision.secondary_cone.calls": n("regular_subdivision.secondary_cone"),
            "regular_subdivision.secondary_cone.total_s": total_s.get(
                "regular_subdivision.secondary_cone", 0.0
            ),
            "regular_subdivision.enumerate.self_s": own(*ENUMERATORS),
            "regular_subdivision.enumerate.results": enum_results,
            "regular_subdivision.enumerate.induce_per_triangulation": ratio(
                induce_in_enum, triangulations
            ),
            "tropical_dual.dual_complex.calls": n("tropical_dual.dual_complex"),
            "tropical_dual.dual_complex.self_s": own("tropical_dual.dual_complex"),
            "painting.paint.calls": n("painting.paint"),
            "painting.paint.self_s": own("painting.paint"),
            "painting.painting_cone.calls": n("painting.painting_cone"),
            "painting.painting_cone.total_s": total_s.get("painting.painting_cone", 0.0),
            "painting.enumerate.self_s": own(PAINTED),
            "painting.enumerate.results": painted,
            "painting.enumerate.lp_per_result": ratio(chamber_lps, painted),
            "secondary_polytope.rank.calls": n("secondary_polytope.subdivision_rank"),
            "secondary_polytope.rank.total_s": total_s.get(
                "secondary_polytope.subdivision_rank", 0.0
            ),
            "painting_polytope.verify.self_s": own("painting_polytope.verify_main_theorem"),
            "lattice.isomorphic.calls": n("lattice.lattice_isomorphic"),
            "lattice.isomorphic.self_s": own("lattice.lattice_isomorphic"),
            "multiplihedra.realize.calls": n("multiplihedra.realize_edge_lengths"),
            "multiplihedra.realize.self_s": own("multiplihedra.realize_edge_lengths"),
            "multiplihedra.realize.dual_complex_per_call": ratio(
                dual_in_realize, n("multiplihedra.realize_edge_lengths")
            ),
            "multiplihedra.lattice.self_s": own("multiplihedra.multiplihedron_lattice"),
            "multiplihedra.verify.self_s": own("multiplihedra.verify_multiplihedron_theorem"),
        }
        for layer in dict.fromkeys(LAYERS.values()):
            out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
            out[f"{layer}.errors"] = layer_errors[layer]
        out["trace.spans"] = len(self.spans)
        out["trace.unattributed_s"] = self_s.get(ROOT, 0.0)
        return out
