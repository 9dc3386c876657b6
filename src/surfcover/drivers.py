"""End-to-end solvers for the three coverage problems and the two-phase
coarse-solve + local-improvement pipeline."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import clustering, refine
from .coverage import CoverageInstance, CoverageReport, QualityKind, evaluate
from .ilp import (
    SolveResult,
    SolveStatus,
    build_cumulative_model,
    build_feasibility_model,
    build_visibility_model,
    solve,
)
from .visibility import Bvh


class InfeasibleError(RuntimeError):
    """The demanded coverage ratio is unachievable with the given budget."""


def solve_problem1(
    instance: CoverageInstance,
    k: int,
    time_limit: float | None = None,
    gap_tol: float = 0.0,
) -> tuple[tuple[int, ...], CoverageReport, SolveResult]:
    """Maximize the number of samples visible to at least one of k sensors."""
    model = build_visibility_model(instance, k)
    result = solve(model, time_limit=time_limit, gap_tol=gap_tol)
    return result.placement, evaluate(instance, result.placement), result


def solve_problem3(
    instance: CoverageInstance,
    k: int,
    threshold: float,
    time_limit: float | None = None,
    gap_tol: float = 0.0,
) -> tuple[tuple[int, ...], CoverageReport, SolveResult]:
    """Maximize the number of samples whose summed quality reaches the
    threshold."""
    model = build_cumulative_model(instance, k, threshold)
    result = solve(model, time_limit=time_limit, gap_tol=gap_tol)
    return result.placement, evaluate(instance, result.placement, threshold=threshold), result


def candidate_radii(instance: CoverageInstance) -> np.ndarray:
    """Sorted distinct sample-candidate distances over visible pairs; the
    optimal max-min radius is always one of these."""
    vals = instance.dist[instance.vis.bits]
    if vals.size == 0:
        raise InfeasibleError("no visible sample-candidate pair at all")
    return np.unique(vals)


def solve_problem2(
    instance: CoverageInstance,
    k: int,
    rho: float,
    time_limit: float | None = None,
) -> tuple[float, tuple[int, ...], SolveResult]:
    """Smallest radius r such that k sensors within distance r (and visible)
    can cover a rho fraction of the samples, by a bottleneck descent over the
    finite set of pairwise distances (Edmonds and Fulkerson, "Bottleneck
    extrema", 1970), each step an exact feasibility solve. The first step
    settles the largest radius; each later one probes the candidate radius
    just below the needed radius of the last feasible step's placement
    (`CoverageInstance.needed_radius`), started from that placement. The
    first infeasible probe proves r*, since a smaller radius only drops cover
    entries (a root proof's `SolveResult.multipliers` bound every radius
    below it); a placement that needs the smallest radius leaves nothing to
    probe.

    `time_limit` bounds the whole search: each step gets the time left. When
    the clock stops the search, before a step or inside one, the last
    feasible placement's needed radius (the largest radius when even the
    first step timed out) comes back with status TIME_LIMIT; a search that
    settled r* reports OPTIMAL. The result is the step whose placement
    certifies the returned radius.
    """
    radii = candidate_radii(instance)
    deadline = math.inf if time_limit is None else time.perf_counter() + time_limit

    def step(r: float, start=None) -> tuple[SolveResult, int]:
        """The exact feasibility solve at radius r in the time left, and the
        model's coverage target."""
        left = max(0.0, deadline - time.perf_counter())
        model = build_feasibility_model(instance, k, r, rho)
        return solve(model, time_limit=left, start=start), model.coverage_target

    hi = len(radii) - 1
    res, target = step(float(radii[hi]))
    if res.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(
            f"coverage ratio {rho} unachievable with {k} sensors even at the "
            f"largest radius {radii[hi]:.6g}"
        )
    feasible = res  # the last feasible step, or the first when the clock stopped it
    while res.status is SolveStatus.OPTIMAL:
        feasible = res
        hi = int(np.searchsorted(radii, instance.needed_radius(res.placement, target)))
        if hi == 0 or time.perf_counter() >= deadline:
            break
        res, _ = step(float(radii[hi - 1]), res.placement)
    if hi > 0 and res.status is not SolveStatus.INFEASIBLE:  # the clock stopped it
        feasible = replace(feasible, status=SolveStatus.TIME_LIMIT)
    return float(radii[hi]), feasible.placement, feasible


# ---------------------------------------------------------------------------
# Two-phase pipeline


@dataclass(frozen=True)
class PhaseReport:
    objective: float
    elapsed: float
    positions: np.ndarray  # (k, 3) sensor positions after the phase


@dataclass(frozen=True)
class PipelineReport:
    problem: int
    coarse: PhaseReport
    refined: PhaseReport
    certified_factor: float | None  # problem 2 only


def two_phase_coverage(
    instance: CoverageInstance,
    bvh: Bvh,
    k: int,
    pitch_fine: float,
    neighborhood: float,
    threshold: float | None = None,
    rounds: int = 3,
    bounds=None,
) -> PipelineReport:
    """Coarse ILP then per-sensor grid refinement, for the visibility (problem
    1) and cumulative (problem 3) objectives."""
    t0 = time.perf_counter()
    if instance.kind is QualityKind.VISIBILITY:
        placement, report, _ = solve_problem1(instance, k)
        problem = 1
    else:
        placement, report, _ = solve_problem3(instance, k, threshold)
        problem = 3
    coarse_pos = instance.candidates.positions[list(placement)]
    coarse = PhaseReport(report.objective, time.perf_counter() - t0, coarse_pos)

    t1 = time.perf_counter()
    positions, objective = refine.refine_grid(
        instance,
        placement,
        bvh,
        pitch_fine=pitch_fine,
        rounds=rounds,
        neighborhood=neighborhood,
        threshold=threshold,
        bounds=bounds,
    )
    refined = PhaseReport(objective, time.perf_counter() - t1, positions)
    return PipelineReport(problem, coarse, refined, certified_factor=None)


def two_phase_quality(
    samples,
    k: int,
    plane: clustering.PlaneDeployment,
) -> PipelineReport:
    """Farthest-point clustering then constrained-1-center iteration for the
    best-quality (max-min distance) objective with relaxed visibility.

    The certified global factor is the phase-1 approximation factor scaled by
    the achieved radius-reduction ratio: improving a factor-2 start from r to
    0.75 r certifies factor 1.5.
    """
    t0 = time.perf_counter()
    centers = clustering.farthest_point_clustering(samples, k, plane)
    r1 = clustering.coverage_radius(centers, samples)
    coarse = PhaseReport(r1, time.perf_counter() - t0, centers.positions.copy())

    t1 = time.perf_counter()
    new_pos, r2 = refine.improve_quality_max(samples, centers.positions, plane.height)
    refined = PhaseReport(r2, time.perf_counter() - t1, new_pos)
    factor = 2.0 * (r2 / r1) if r1 > 0 else 2.0
    return PipelineReport(2, coarse, refined, certified_factor=factor)
