"""Local improvement: plane-constrained minimum enclosing spheres and
per-sensor grid refinement."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .coverage import (
    CoverageInstance,
    QualityKind,
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

    def contains(self, p) -> bool:
        d2 = float(np.sum((np.asarray(p, float) - self.center) ** 2))
        return bool(_within(d2, self.radius**2))


def _within(d2, r2: float, out=None):
    """The one containment rule: squared distance(s) `d2` lie inside the sphere
    of squared radius `r2`, with slack CONTAIN_TOL relative to max(1, r2)."""
    return np.less_equal(d2, r2 + CONTAIN_TOL * max(1.0, r2), out=out)


def _sphere_1p(p, h: float):
    # center is the vertical projection; radius is the vertical offset
    center = np.array([p[0], p[1], h])
    return center, abs(h - p[2])


def _sphere_2p(p, q, h: float):
    # center on the intersection of the 3D bisector plane with z = h, at the
    # foot of the perpendicular from p's projection
    a = p[:2]
    b = q[:2]
    wa = (h - p[2]) ** 2
    wb = (h - q[2]) ** 2
    d = b - a
    d2 = float(d @ d)
    if d2 < 1e-24:
        # identical projections: fall back to covering the farther point
        if wa >= wb:
            return _sphere_1p(p, h)
        return _sphere_1p(q, h)
    t = (d2 + wb - wa) / (2.0 * d2)
    x = a + t * d
    r = float(np.sqrt(np.sum((x - a) ** 2) + wa))
    return np.array([x[0], x[1], h]), r


def _sphere_3p(p, q, s, h: float):
    # equidistance in 3D of the three points restricted to z = h gives two
    # linear equations a00 x + a01 y = b0, a10 x + a11 y = b1 in the planar
    # center (x, y), solved by Cramer's rule
    (px, py, pz), (qx, qy, qz), (sx, sy, sz) = p.tolist(), q.tolist(), s.tolist()
    wp = (h - pz) ** 2
    sq_p = px * px + py * py + wp
    a00, a01, b0 = 2.0 * (qx - px), 2.0 * (qy - py), qx * qx + qy * qy + (h - qz) ** 2 - sq_p
    a10, a11, b1 = 2.0 * (sx - px), 2.0 * (sy - py), sx * sx + sy * sy + (h - sz) ** 2 - sq_p
    det = a00 * a11 - a01 * a10
    if abs(det) < 1e-18:
        return None  # collinear projections; a 2-point basis will cover
    x = (b0 * a11 - a01 * b1) / det
    y = (a00 * b1 - b0 * a10) / det
    return np.array([x, y, h]), math.sqrt((x - px) ** 2 + (y - py) ** 2 + wp)


def _violator_scan(p: np.ndarray):
    """`first_outside(sphere, lo, hi)`: the index of the first of p[lo:hi]
    that `_within` puts outside `sphere`, or hi if there is none. Works in
    buffers allocated once for all of `p`."""
    diff = np.empty_like(p)
    d2 = np.empty(len(p))
    inside = np.empty(len(p), dtype=bool)

    def first_outside(sphere: ConstrainedSphere, lo: int, hi: int) -> int:
        if lo >= hi:
            return hi
        dm, sq, ok = diff[: hi - lo], d2[: hi - lo], inside[: hi - lo]
        np.subtract(p[lo:hi], sphere.center, out=dm)
        np.square(dm, out=dm)
        np.add.reduce(dm, axis=1, out=sq)
        _within(sq, sphere.radius**2, out=ok)
        k = int(ok.argmin())  # the first False; a NaN distance is outside too
        return hi if ok[k] else lo + k

    return first_outside


def min_sphere_fixed_plane(points, h_plane: float) -> ConstrainedSphere:
    """Smallest sphere containing `points` with its center on z = h_plane.

    Randomized incremental in the style of Welzl's minimum enclosing disc
    algorithm with boundary sets of at most three points solved in closed
    form; the shuffle has the fixed seed 0 so results are reproducible. Each
    level of the search finds its next violator with one batched scan of the
    shuffled points, so it visits the points in the same order as a per-point
    loop.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ValueError("expected a non-empty (n, 3) point array")
    order = list(range(len(pts)))
    random.Random(0).shuffle(order)
    first_outside = _violator_scan(pts[order])  # takes positions in the shuffle order

    def make(basis: list[int]):
        if len(basis) == 1:
            c, r = _sphere_1p(pts[basis[0]], h_plane)
        elif len(basis) == 2:
            c, r = _sphere_2p(pts[basis[0]], pts[basis[1]], h_plane)
        else:
            out = _sphere_3p(pts[basis[0]], pts[basis[1]], pts[basis[2]], h_plane)
            if out is None:
                # degenerate triple: best 2-point sphere covering all three
                best = None
                for a in range(3):
                    for b in range(a + 1, 3):
                        c, r = _sphere_2p(pts[basis[a]], pts[basis[b]], h_plane)
                        cand = ConstrainedSphere(c, r, (basis[a], basis[b]))
                        if all(cand.contains(pts[basis[i]]) for i in range(3)):
                            if best is None or cand.radius < best.radius:
                                best = cand
                if best is not None:
                    return best
                out = _sphere_2p(pts[basis[0]], pts[basis[1]], h_plane)
            c, r = out
        return ConstrainedSphere(c, r, tuple(basis))

    n = len(order)
    sphere = make([order[0]])
    i = first_outside(sphere, 1, n)
    while i < n:
        sphere = make([order[i]])
        j = first_outside(sphere, 0, i)
        while j < i:
            sphere = make([order[i], order[j]])
            l = first_outside(sphere, 0, j)
            while l < j:
                sphere = make([order[i], order[j], order[l]])
                l = first_outside(sphere, l + 1, j)
            j = first_outside(sphere, j + 1, i)
        i = first_outside(sphere, i + 1, n)
    return sphere


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
    rounds.
    """
    centers = np.array(centers, dtype=np.float64, copy=True)
    pos = samples.positions

    def radius_and_assignment():
        _, d = sensor_offsets(pos, centers)
        assign = d.argmin(axis=1)  # lowest sensor index on ties
        return float(d.min(axis=1).max()), assign

    r, assign = radius_and_assignment()
    for _ in range(1000):
        for j in range(len(centers)):
            cluster = pos[assign == j]
            if len(cluster) == 0:
                continue  # no responsibility this round; leave in place
            centers[j] = min_sphere_fixed_plane(cluster, h_plane).center
        r_new, assign = radius_and_assignment()
        if r - r_new <= 1e-9:
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
    if bounds is not None:
        lo, hi = bounds
        keep = (
            (pts[:, 0] >= lo[0] - 1e-9)
            & (pts[:, 0] <= hi[0] + 1e-9)
            & (pts[:, 1] >= lo[1] - 1e-9)
            & (pts[:, 1] <= hi[1] + 1e-9)
        )
        pts = pts[keep]
    # ensure the current location itself is a candidate (index 0)
    return np.vstack([center[None, :], pts])


def _vis_columns(bvh: Bvh, samples: SampleSet, positions: np.ndarray) -> np.ndarray:
    hidden = np.empty(len(samples) * len(positions), dtype=bool)  # position-major
    for sl, origins, targets in pair_packets(samples.positions, positions):
        hidden[sl] = segments_occluded(bvh, origins, targets)
    return ~hidden.reshape(len(positions), len(samples)).T


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
    `threshold`); a sample counts as covered by `coverage.is_covered`.
    Returns the refined sensor positions and the final covered count.
    """
    kind = instance.kind
    if kind is QualityKind.INVERSE_DISTANCE:
        raise ValueError("use two_phase_quality for the best-quality objective")
    samples = instance.samples
    placement = check_placement(placement, instance.n_candidates)
    positions = instance.candidates.positions[placement]

    def quality_columns(pos: np.ndarray) -> np.ndarray:
        return quality_matrix(samples, pos, _vis_columns(bvh, samples, pos), kind)[1]

    def covered_count(cols: np.ndarray):
        """Covered samples of each placement whose columns run along the last axis."""
        return is_covered(kind, sample_coverage(kind, cols), threshold).sum(axis=0)

    cols = quality_columns(positions)
    current = float(covered_count(cols))
    for _ in range(rounds):
        moved = False
        for j in range(len(positions)):
            local = _local_grid(positions[j], pitch_fine, neighborhood, bounds)
            phi_loc = quality_columns(local)
            others = sample_coverage(kind, np.delete(cols, j, axis=1))
            # per grid point: the other sensors' coverage and the moved sensor's
            pairs = np.stack(np.broadcast_arrays(others[:, None], phi_loc), axis=-1)
            scores = covered_count(pairs)
            best = int(np.argmax(scores))
            if scores[best] > current + 1e-12 and best != 0:
                positions[j] = local[best]
                cols[:, j] = phi_loc[:, best]
                current = float(scores[best])
                moved = True
        if not moved:
            break
    return positions, current
