"""Span recorder for the traced run, attached without editing the library.

While a ``Tracer`` is active it replaces the module attributes through which
surfcover's layers call each other with timing wrappers, so nested calls
become child spans. Each span keeps its name, start, end, parent span, job
and a few counts read from the call's arguments and result. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from checks import refine_gain


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _segments(args, kwargs, out):
    return {"segments": len(out), "visible": int(len(out) - np.count_nonzero(out))}


def _solve(args, kwargs, out):
    model = args[0]
    return {
        "kind": model.kind.value,
        "radius": model.radius,
        "status": out.status.value,
        "nodes": out.nodes,
        "gap": out.gap,
    }


def _dense(args, kwargs, out):
    """Bytes of the (N, M, 3) float64 difference array the call builds."""
    inst = args[0]
    return {"dense_bytes": inst.n_samples * inst.n_candidates * 3 * 8}


def _dense_instance(args, kwargs, out):
    return {"dense_bytes": out.n_samples * out.n_candidates * 3 * 8}


def _k(args, kwargs, out):
    return {"k": args[1]}


def _gain(args, kwargs, out):
    return {"problem": out.problem, "gain": refine_gain(out)}


def _nodes(args, kwargs, out):
    return {"nodes": len(out.left)}


def _file_bytes(path_arg):
    def attrs(args, kwargs, out):
        return {"bytes": os.path.getsize(args[path_arg])}

    return attrs


def _count(name):
    def attrs(args, kwargs, out):
        return {name: len(out)}

    return attrs


# (module, attribute, span name, counts taken from the call)
PATCHES = [
    ("scenes", "gen_room", "scenes.gen", None),
    ("scenes", "gen_terrain", "scenes.gen", None),
    ("mesh", "sample_surface", "mesh.sample", _count("samples")),
    ("mesh", "generate_candidates_plane", "mesh.candidates", _count("candidates")),
    ("visibility", "build_bvh", "visibility.bvh", _nodes),
    ("visibility", "visibility_matrix", "visibility.matrix", None),
    ("visibility", "segments_occluded", "visibility.segments", _segments),
    ("visibility", "save_spvm", "visibility.save_spvm", _file_bytes(1)),
    ("visibility", "load_spvm", "visibility.load_spvm", None),
    ("coverage", "build_instance", "coverage.build_instance", _dense_instance),
    ("drivers", "evaluate", "coverage.evaluate", None),
    ("drivers", "build_visibility_model", "ilp.build_model", None),
    ("drivers", "build_cumulative_model", "ilp.build_model", None),
    ("drivers", "build_feasibility_model", "ilp.build_model", _dense),
    ("drivers", "solve", "ilp.solve", _solve),
    ("drivers", "solve_problem1", "drivers.p1", _k),
    ("drivers", "solve_problem2", "drivers.p2", _k),
    ("drivers", "solve_problem3", "drivers.p3", _k),
    ("drivers", "candidate_radii", "drivers.candidate_radii", _dense),
    ("drivers", "two_phase_coverage", "drivers.two_phase", _gain),
    ("drivers", "two_phase_quality", "drivers.two_phase", _gain),
    ("clustering", "farthest_point_clustering", "clustering.fpc", None),
    ("clustering", "coverage_radius", "clustering.radius", None),
    ("refine", "refine_grid", "refine.grid", None),
    ("refine", "segments_occluded", "refine.segments", _segments),
    ("refine", "improve_quality_max", "refine.improve_quality", None),
    ("refine", "min_sphere_fixed_plane", "refine.min_sphere", None),
    ("export", "sample_colors", "export.colors", None),
    ("export", "write_ply", "export.ply", _file_bytes(0)),
]


class Tracer:
    """Context manager: patches PATCHES on entry and restores them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        for module, attr, name, attrs in PATCHES:
            mod = importlib.import_module(f"surfcover.{module}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, attrs))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    # -- reading the spans back ------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def self_seconds(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, child)]

    def p2_log(self) -> list[dict]:
        """One entry per bisection solve under solve_problem2."""
        log = []
        for s in self.spans:
            if s.name == "ilp.solve" and s.parent is not None:
                parent = self.spans[s.parent]
                if parent.name == "drivers.p2":
                    log.append({"k": parent.attrs.get("k"), "radius": s.attrs["radius"],
                                "status": s.attrs["status"], "nodes": s.attrs["nodes"],
                                "seconds": s.seconds})
        return log

    def write(self, path, extra: dict) -> None:
        spans = [
            [s.name, s.start, s.end, s.parent, s.job, s.attrs] for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "attrs"],
                       "spans": spans, "p2_log": self.p2_log(), **extra}, fh)


def layer_metrics(tr: Tracer, scene, traced_total_s: float, untraced_total_s: float) -> dict:
    """Per-layer metrics of one traced set-up plus one traced pass."""
    selfs = tr.self_seconds()
    self_by = defaultdict(float)
    for s, t in zip(tr.spans, selfs):
        self_by[s.name.split(".")[0]] += t

    def attr_sum(names, key):
        return sum(s.attrs.get(key, 0) for n in names for s in tr.named(n))

    seg_names = ("visibility.segments", "refine.segments")
    segments = attr_sum(seg_names, "segments")
    visible = attr_sum(seg_names, "visible")
    busy = sum(tr.total(n) for n in seg_names)
    solves = tr.named("ilp.solve")
    nodes = sum(s.attrs["nodes"] for s in solves)
    infeasible = [s for s in solves if s.attrs["status"] == "infeasible"]
    p2_log = tr.p2_log()
    p2_steps = len(p2_log)
    p2_infeasible = sum(e["status"] == "infeasible" for e in p2_log)
    p2_s = tr.total("drivers.p2")
    ilp_under_p2 = sum(e["seconds"] for e in p2_log)  # solve spans have no children
    solve_s = tr.total("ilp.solve")
    pipelines = tr.named("drivers.two_phase")
    n_samples = len(scene.samples)
    if scene.quality_samples is not None:
        n_samples += len(scene.quality_samples)

    return {
        "scenes.triangles": (scene.mesh.n_triangles + scene.quality_triangles, "count"),
        "scenes.gen_s": (tr.total("scenes.gen"), "s"),
        "mesh.samples": (n_samples, "count"),
        "mesh.candidates": (len(scene.candidates), "count"),
        "mesh.sample_s": (tr.total("mesh.sample"), "s"),
        "visibility.bvh_s": (tr.total("visibility.bvh"), "s"),
        "visibility.bvh_nodes": (attr_sum(["visibility.bvh"], "nodes"), "count"),
        "visibility.calls": (sum(len(tr.named(n)) for n in seg_names), "count"),
        "visibility.segments": (segments, "count"),
        "visibility.busy_s": (busy, "s"),
        "visibility.segments_per_s": (segments / busy if busy else 0.0, "1/s"),
        "visibility.visible_ratio": (visible / segments if segments else 0.0, "ratio"),
        "visibility.spvm_bytes": (attr_sum(["visibility.save_spvm"], "bytes"), "B"),
        "visibility.total_share": (busy / traced_total_s, "ratio"),
        "coverage.build_instance_s": (tr.total("coverage.build_instance"), "s"),
        "coverage.evaluate_calls": (len(tr.named("coverage.evaluate")), "count"),
        "coverage.evaluate_s": (tr.total("coverage.evaluate"), "s"),
        "coverage.dense_bytes": (
            attr_sum(["coverage.build_instance", "ilp.build_model", "drivers.candidate_radii"],
                     "dense_bytes"),
            "B-computed",
        ),
        "ilp.solve_calls": (len(solves), "count"),
        "ilp.solve_s": (solve_s, "s"),
        "ilp.nodes": (nodes, "count"),
        "ilp.us_per_node": (1e6 * solve_s / nodes if nodes else 0.0, "us"),
        "ilp.build_model_s": (tr.total("ilp.build_model"), "s"),
        "ilp.infeasible_solves": (len(infeasible), "count"),
        "ilp.infeasible_nodes": (sum(s.attrs["nodes"] for s in infeasible), "count"),
        "ilp.infeasible_s": (sum(s.seconds for s in infeasible), "s"),
        "ilp.max_gap": (max((s.attrs["gap"] for s in solves), default=0.0), "ratio"),
        "ilp.p2_self_share": (ilp_under_p2 / p2_s if p2_s else 0.0, "ratio"),
        "drivers.p2_s": (p2_s, "s"),
        "drivers.p2_steps": (p2_steps, "count"),
        "drivers.p2_infeasible": (p2_infeasible, "count"),
        "drivers.p2_infeasible_share": (p2_infeasible / p2_steps if p2_steps else 0.0, "ratio"),
        "drivers.candidate_radii_s": (tr.total("drivers.candidate_radii"), "s"),
        "drivers.self_s": (self_by["drivers"], "s"),
        "clustering.fpc_s": (tr.total("clustering.fpc"), "s"),
        "clustering.radius_s": (tr.total("clustering.radius"), "s"),
        "refine.grid_s": (tr.total("refine.grid"), "s"),
        "refine.vis_calls": (len(tr.named("refine.segments")), "count"),
        "refine.vis_segments": (attr_sum(["refine.segments"], "segments"), "count"),
        "refine.vis_s": (tr.total("refine.segments"), "s"),
        "refine.self_s": (self_by["refine"] - tr.total("refine.segments"), "s"),
        "refine.improve_quality_s": (tr.total("refine.improve_quality"), "s"),
        "refine.min_sphere_calls": (len(tr.named("refine.min_sphere")), "count"),
        "refine.min_sphere_s": (tr.total("refine.min_sphere"), "s"),
        "refine.gain": (sum(s.attrs["gain"] for s in pipelines if s.attrs["problem"] != 2),
                        "samples"),
        "refine.radius_gain": (sum(s.attrs["gain"] for s in pipelines if s.attrs["problem"] == 2),
                               "m"),
        "export.colors_s": (tr.total("export.colors"), "s"),
        "export.ply_s": (tr.total("export.ply"), "s"),
        "export.ply_bytes": (attr_sum(["export.ply"], "bytes"), "B"),
        "trace.total_s": (traced_total_s, "s"),
        "trace.untraced_total_s": (untraced_total_s, "s"),
        "trace.overhead_s": (traced_total_s - untraced_total_s, "s"),
        "trace.spans": (len(tr.spans), "count"),
    }
