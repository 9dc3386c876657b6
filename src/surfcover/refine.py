"""Local improvement: plane-constrained minimum enclosing spheres and
per-sensor grid refinement."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .coverage import (
    CoincidentPointError,
    CoverageInstance,
    check_placement,
    is_covered,
    quality_matrix,
    sample_coverage,
    sensor_offsets,
)
from .mesh import SampleSet
from .visibility import Bvh, pair_packets, segments_occluded

CONTAIN_TOL = 1e-9


@dataclass(frozen=True)
class ConstrainedSphere:
    """Minimum sphere covering a point set with its center pinned to a plane."""

    center: np.ndarray  # (3,), center[2] == plane height
    radius: float
    support: tuple[int, ...]  # indices of the <= 3 boundary points


def _within(d2, r2: float):
    """The one containment rule: squared distance(s) `d2` lie inside the sphere
    of squared radius `r2`, with slack CONTAIN_TOL relative to max(1, r2)."""
    return np.less_equal(d2, r2 + CONTAIN_TOL * max(1.0, r2))


def _basis_sphere(pts: np.ndarray, basis: list[int], h: float) -> ConstrainedSphere | None:
    """The sphere centred on z = h with the 1-3 points `basis` of `pts` on its
    boundary, or None when there is none. With the centre at an offset
    (dx, dy) from the first point's projection, equidistance from point j
    reads u_j dx + v_j dy = (u_j^2 + v_j^2 + w_j - w_0) / 2, where (u_j, v_j)
    is j's projection minus the first's and w_j = (h - z_j)^2. One equation
    is solved along its normal, two by Cramer's rule. Equal projections and
    collinear triples have no solution."""
    (x0, y0, z0), *rest = pts[basis].tolist()
    w0 = (h - z0) ** 2
    rows = []
    for x, y, z in rest:
        u, v = x - x0, y - y0
        rows.append((u, v, (u * u + v * v + (h - z) ** 2 - w0) / 2.0))
    dx = dy = 0.0
    if len(rows) == 1:
        ((u, v, b),) = rows
        n2 = u * u + v * v
        if n2 < 1e-24:
            return None
        dx, dy = b * u / n2, b * v / n2
    elif len(rows) == 2:
        (u0, v0, b0), (u1, v1, b1) = rows
        det = u0 * v1 - v0 * u1
        if abs(det) < 2.5e-19:
            return None
        dx, dy = (b0 * v1 - v0 * b1) / det, (u0 * b1 - b0 * u1) / det
    radius = math.sqrt(dx * dx + dy * dy + w0)
    return ConstrainedSphere(np.array([x0 + dx, y0 + dy, h]), radius, tuple(basis))


def min_sphere_fixed_plane(points, h_plane: float) -> ConstrainedSphere:
    """Smallest sphere containing `points` with its center on z = h_plane.

    Farthest-point pivoting after Gärtner: starting from point 0's sphere,
    each step finds the farthest point with one distance pass and stops once
    `_within`, the one containment rule, holds it. Otherwise
    the support of at most three points pivots to the smallest closed-form
    sphere, over the <= 7 subsets of support + {far} that hold `far`, that
    holds all of them; a degenerate subset has no sphere and is skipped. The
    current sphere is the smallest holding its support, so `far` lies on the
    new optimum, whose basis is one of the non-degenerate subsets. The radius
    grows at each pivot, so no support repeats (office clusters of ~440
    points take at most 5 pivots), and the result is deterministic. Should floating point break that rule (no such sphere, or
    no growth), the search stops at its current center, its radius widened
    to the farthest point. Non-finite input raises `ValueError`.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ValueError("expected a non-empty (n, 3) point array")
    if not (np.isfinite(pts).all() and math.isfinite(h_plane)):
        raise ValueError("points and h_plane must be finite")
    sphere = _basis_sphere(pts, [0], h_plane)
    while True:
        d2 = np.square(pts - sphere.center).sum(axis=1)
        far = int(d2.argmax())
        if _within(d2[far], sphere.radius**2):
            return sphere
        support = sphere.support
        held = pts[[*support, far]]
        subsets = (s for n in range(min(len(support), 2) + 1) for s in combinations(support, n))
        spheres = filter(None, (_basis_sphere(pts, [far, *s], h_plane) for s in subsets))
        fits = [
            c for c in spheres if _within(np.square(held - c.center).sum(axis=1), c.radius**2).all()
        ]
        pivot = min(fits, key=lambda c: c.radius, default=None)
        if pivot is None or not pivot.radius > sphere.radius:
            return ConstrainedSphere(sphere.center, math.sqrt(d2[far]), (far,))
        sphere = pivot


# ---------------------------------------------------------------------------
# Lloyd-style max-min improvement


def improve_quality_max(
    samples: SampleSet,
    centers: np.ndarray,
    h_plane: float,
) -> tuple[np.ndarray, float]:
    """Shrink the covering radius by alternating nearest-center assignment and
    plane-constrained 1-center recomputation. The radius never increases and
    iteration stops once a round improves it by at most 1e-9, or after 1000
    rounds; a last round whose radius rounding grows is undone, so the radius
    returned is that of the centers returned.
    """
    centers = np.array(centers, dtype=np.float64, copy=True)
    pos = samples.positions

    def radius_and_assignment():
        _, d = sensor_offsets(pos, centers)
        assign = d.argmin(axis=1)  # lowest sensor index on ties
        return float(d.min(axis=1).max()), assign

    r, assign = radius_and_assignment()
    for _ in range(1000):
        previous = centers.copy()
        for j in range(len(centers)):
            cluster = pos[assign == j]
            if len(cluster) == 0:
                continue  # no responsibility this round; leave in place
            centers[j] = min_sphere_fixed_plane(cluster, h_plane).center
        r_new, assign = radius_and_assignment()
        if r - r_new <= 1e-9:
            if r_new > r:
                centers = previous
            r = min(r, r_new)
            break
        r = r_new
    return centers, r


# ---------------------------------------------------------------------------
# Per-sensor grid refinement


def _local_grid(center: np.ndarray, pitch: float, halfwidth: float, bounds=None) -> np.ndarray:
    steps = int(np.floor(halfwidth / pitch + 1e-9))
    offs = pitch * np.arange(-steps, steps + 1)
    gx, gy = np.meshgrid(center[0] + offs, center[1] + offs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, center[2])])
    pts = np.delete(pts, gx.size // 2, axis=0)  # the zero offset: the centre is index 0
    if bounds is not None:
        lo, hi = (np.asarray(b, dtype=np.float64)[:2] for b in bounds)
        pts = pts[((pts[:, :2] >= lo - 1e-9) & (pts[:, :2] <= hi + 1e-9)).all(axis=1)]
    # the current location itself, where the sensor stays (index 0)
    return np.vstack([center[None, :], pts])


def _visible_pairs(bvh: Bvh, samples: SampleSet, positions: np.ndarray, mask=None):
    """(N, G) visibility of the samples to `positions`: of every pair, or of
    the pairs the (N, G) bool `mask` sets, with False elsewhere."""
    seen = np.zeros((len(samples), len(positions)), dtype=bool)
    for rows, cols, origins, targets in pair_packets(bvh, samples.positions, positions, mask):
        seen[rows, cols] = ~segments_occluded(bvh, origins, targets)
    return seen


def _grid_scores(bvh, samples, kind, threshold, others, local):
    """Covered count with the moved sensor at each point of `local`, given the
    other sensors' per-sample coverage `others`, and the (N, G) qualities
    where visible. Rows the others cover count everywhere. Hiding a pair only
    zeroes its quality, so only open pairs that cover their row if visible
    are traced."""
    dist, reach = quality_matrix(samples, local, np.ones((len(samples), len(local)), bool), kind)
    if not dist.all():  # the cumulative kind has raised already
        raise CoincidentPointError("a local grid point coincides with a sample")
    open_rows = ~is_covered(kind, others, threshold)
    pairs = np.stack(np.broadcast_arrays(others[:, None], reach), axis=-1)
    reachable = is_covered(kind, sample_coverage(kind, pairs), threshold) & open_rows[:, None]
    seen = _visible_pairs(bvh, samples, local, reachable)
    return np.count_nonzero(~open_rows) + np.count_nonzero(seen, axis=0), reach


def refine_grid(
    instance: CoverageInstance,
    placement,
    bvh: Bvh,
    pitch_fine: float,
    rounds: int,
    neighborhood: float,
    threshold: float | None = None,
    bounds=None,
) -> tuple[np.ndarray, float]:
    """Move sensors one at a time onto a fine local grid, keeping a move only
    when the covered count strictly improves.

    Serves the visibility and cumulative kinds (the cumulative kind needs
    `threshold`); a sample counts as covered by `coverage.is_covered`. A grid
    point's count traces only the samples the other sensors leave open and
    the point could cover if it saw them; an accepted move traces its full
    column. Refinement starts from the instance's quality columns of
    `placement`, so its starting count is `evaluate`'s objective, and `bvh`
    must hold the mesh the instance's visibility was computed on. Returns the
    refined sensor positions and the final covered count.
    """
    if instance.vis.mesh_hash not in (None, bvh.mesh_hash):
        raise ValueError("bvh holds another mesh than the one the visibility was computed on")
    kind = instance.kind
    samples = instance.samples
    placement = check_placement(placement, instance.n_candidates)
    positions = instance.candidates.positions[placement]
    cols = instance.phi[:, placement]  # a copy: moves never write into the instance
    current = float(is_covered(kind, sample_coverage(kind, cols), threshold).sum())
    for _ in range(rounds):
        moved = False
        for j in range(len(positions)):
            local = _local_grid(positions[j], pitch_fine, neighborhood, bounds)
            others = sample_coverage(kind, np.delete(cols, j, axis=1))
            scores, reach = _grid_scores(bvh, samples, kind, threshold, others, local)
            best = int(np.argmax(scores))
            if scores[best] > current + 1e-12 and best != 0:
                positions[j] = local[best]
                seen = _visible_pairs(bvh, samples, local[best : best + 1])[:, 0]
                cols[:, j] = np.where(seen, reach[:, best], 0.0)
                current = float(scores[best])
                moved = True
        if not moved:
            break
    return positions, current
