"""The benchmark's workloads: seeded scene set-up and the jobs of one pass.

A pass runs every job of a workload once, one after the other, and times each
job into the end-to-end step it belongs to. Library calls go through module
attributes (``drivers.solve_problem1``, not a name imported from it) so that
the traced run can replace those attributes with timing wrappers.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from surfcover import clustering, coverage, drivers, export, mesh, scenes, visibility
from surfcover.coverage import QualityKind

# Obstacle offsets drawn from the seed stay within this many metres along x
# and y. Small on purpose: the offset changes the inputs, but the solver work
# stays close to that of the unjittered room, so runs with different seeds
# measure the same amount of work.
ROOM_JITTER_M = 0.05
DEFAULT_SEED = 0


@dataclass
class Scene:
    """Generated inputs of one workload; everything a pass needs."""

    mesh: Any
    samples: Any
    candidates: Any
    bvh: Any
    quality_samples: Any = None  # office-refine's terrain for the 1-center pipeline
    quality_triangles: int = 0


@dataclass
class Job:
    step: str
    label: str
    params: dict
    out: Any


@dataclass
class PassResult:
    steps: dict = field(default_factory=lambda: defaultdict(float))
    jobs: list = field(default_factory=list)
    total_s: float = 0.0


class PassRunner:
    """Runs the jobs of one pass, timing each into its end-to-end step."""

    def __init__(self, out_dir: Path, tracer=None):
        self.out_dir = out_dir
        self.tracer = tracer
        self.result = PassResult()

    def job(self, step: str, label: str, fn: Callable, *args, params=None, **kwargs):
        """Call fn, add its time to `step` and keep its output, with the
        `params` the checks need, for checking after the pass."""
        if self.tracer is not None:
            self.tracer.job = label
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.result.steps[step] += time.perf_counter() - t0
        self.result.jobs.append(Job(step, label, params or {}, out))
        return out


def run_pass(workload, scene: Scene, out_dir: Path, tracer=None) -> PassResult:
    """One pass of the workload's jobs; total_s is its wall time."""
    runner = PassRunner(out_dir, tracer)
    t0 = time.perf_counter()
    workload.run_pass(scene, runner)
    runner.result.total_s = time.perf_counter() - t0
    return runner.result


def _jittered(boxes, seed: int):
    """Shift each obstacle box along x and y by a seeded offset; the default
    seed keeps the boxes where they are."""
    if seed == DEFAULT_SEED:
        return boxes
    rng = np.random.default_rng(seed)
    out = []
    for lo, hi in boxes:
        dx, dy = rng.uniform(-ROOM_JITTER_M, ROOM_JITTER_M, size=2)
        out.append(((lo[0] + dx, lo[1] + dy, lo[2]), (hi[0] + dx, hi[1] + dy, hi[2])))
    return out


class RoomExact:
    """The criterion-5 room: P1 at k=1..6, P3 at k=1..3, P2 at k=1..4."""

    name = "room-exact"
    obstacles = [((2.0, 1.5, 0.0), (3.5, 2.5, 1.0))]
    p1_ks = range(1, 7)
    # P3 stops at k=3: at k=4 the default room needs 1 node, but some 5 cm
    # obstacle offsets need 40k+, which would triple the pass for those seeds
    p3_ks = range(1, 4)
    p3_threshold = 0.05
    p2_ks = range(1, 5)
    p2_rho = 0.9

    def setup(self, seed):
        room = scenes.gen_room(extent=(6.0, 4.0, 3.0), obstacles=_jittered(self.obstacles, seed))
        samples = mesh.sample_surface(room, pitch=0.65)
        candidates = mesh.generate_candidates_plane(2.8, (0.4, 0.4, 5.6, 3.6), 0.62)
        return Scene(room, samples, candidates, visibility.build_bvh(room))

    def run_pass(self, scene, runner):
        vm = runner.job(
            "visibility_s", "visibility", visibility.visibility_matrix,
            scene.bvh, scene.samples, scene.candidates,
        )
        vis = coverage.build_instance(scene.samples, scene.candidates, vm, QualityKind.VISIBILITY)
        lam = coverage.build_instance(
            scene.samples, scene.candidates, vm, QualityKind.LAMBERT_INVERSE_SQUARE
        )
        for k in self.p1_ks:
            runner.job("p1_s", f"p1 k={k}", drivers.solve_problem1, vis, k, params={"k": k})
        for k in self.p3_ks:
            runner.job("p3_s", f"p3 k={k}", drivers.solve_problem3, lam, k, self.p3_threshold,
                       params={"k": k})
        for k in self.p2_ks:
            runner.job("p2_s", f"p2 k={k}", drivers.solve_problem2, vis, k, self.p2_rho,
                       params={"k": k, "instance": vis, "rho": self.p2_rho})


class TerrainVisibility:
    """A T=7200 terrain: one visibility matrix, P1 at k=2 and 4, SPVM round
    trip and a coloured PLY export."""

    name = "terrain-visibility"
    candidate_pitch = 4.5
    p1_ks = (2, 4)

    def setup(self, seed):
        terrain = scenes.gen_terrain(seed, extent=(10.0, 10.0), cells=60, amplitude=1.2)
        samples = mesh.sample_surface(terrain, pitch=1.0)
        candidates = mesh.generate_candidates_plane(
            3.0, (0.5, 0.5, 9.5, 9.5), self.candidate_pitch
        )
        return Scene(terrain, samples, candidates, visibility.build_bvh(terrain))

    def run_pass(self, scene, runner):
        vm = runner.job(
            "visibility_s", "visibility", visibility.visibility_matrix,
            scene.bvh, scene.samples, scene.candidates,
        )
        vis = coverage.build_instance(scene.samples, scene.candidates, vm, QualityKind.VISIBILITY)
        placement = ()
        for k in self.p1_ks:
            placement, _, _ = runner.job("p1_s", f"p1 k={k}", drivers.solve_problem1, vis, k,
                                         params={"k": k})
        spvm = runner.out_dir / f"{self.name}.spvm"

        def round_trip():
            visibility.save_spvm(vm, spvm)
            return visibility.load_spvm(spvm)

        runner.job("io_s", "spvm round trip", round_trip, params={"vm": vm})
        ply = runner.out_dir / f"{self.name}.ply"

        def colored_export():
            colors = export.sample_colors(vis, placement)
            export.write_ply(ply, scene.samples.positions, colors)
            return colors, ply

        runner.job("io_s", f"export k={len(placement)}", colored_export,
                   params={"placement": placement, "instance": vis})


class OfficeRefine:
    """A furnished office: grid refinement after P1 and P3, and the 1-center
    pipeline on a gentle terrain."""

    name = "office-refine"
    obstacles = [
        ((1.5, 1.5, 0.0), (3.0, 2.5, 1.6)),
        ((6.0, 1.0, 0.0), (7.5, 2.0, 2.0)),
        ((2.0, 5.0, 0.0), (3.5, 6.5, 1.5)),
        ((6.5, 5.0, 0.0), (8.0, 6.0, 2.2)),
    ]
    rect = (1.0, 1.0, 9.0, 7.0)
    sample_pitch = 0.7
    refine = {"pitch_fine": 0.3, "neighborhood": 0.6, "rounds": 1}
    p1_k = 2
    p3_k = 2
    p3_threshold = 0.1
    quality_k = 8
    quality_height = 2.0

    def setup(self, seed):
        room = scenes.gen_room(extent=(10.0, 8.0, 3.0), obstacles=_jittered(self.obstacles, seed))
        samples = mesh.sample_surface(room, pitch=self.sample_pitch)
        candidates = mesh.generate_candidates_plane(2.8, self.rect, 1.5)
        # The 1-center terrain does not follow the seed: between terrain seeds
        # its Lloyd iteration count, and so its time, changes threefold.
        terrain = scenes.gen_terrain(DEFAULT_SEED, extent=(10.0, 10.0), cells=40, amplitude=0.3)
        quality = mesh.sample_surface(terrain, pitch=0.5)
        return Scene(room, samples, candidates, visibility.build_bvh(room),
                     quality_samples=quality, quality_triangles=terrain.n_triangles)

    def run_pass(self, scene, runner):
        vm = runner.job(
            "visibility_s", "visibility", visibility.visibility_matrix,
            scene.bvh, scene.samples, scene.candidates,
        )
        vis = coverage.build_instance(scene.samples, scene.candidates, vm, QualityKind.VISIBILITY)
        lam = coverage.build_instance(
            scene.samples, scene.candidates, vm, QualityKind.LAMBERT_INVERSE_SQUARE
        )
        x0, y0, x1, y1 = self.rect
        bounds = ((x0, y0), (x1, y1))
        runner.job("two_phase_s", f"refine p1 k={self.p1_k}", drivers.two_phase_coverage,
                   vis, scene.bvh, self.p1_k, bounds=bounds, **self.refine)
        runner.job("two_phase_s", f"refine p3 k={self.p3_k}", drivers.two_phase_coverage,
                   lam, scene.bvh, self.p3_k, threshold=self.p3_threshold, bounds=bounds,
                   **self.refine)
        runner.job("two_phase_s", f"approx k={self.quality_k}", drivers.two_phase_quality,
                   scene.quality_samples, self.quality_k,
                   clustering.PlaneDeployment(self.quality_height))


WORKLOADS = {w.name: w for w in (RoomExact(), TerrainVisibility(), OfficeRefine())}
