"""Reference refinement loops.

`reference_refine_grid` is grid refinement that traces every sample against
every point of each local grid. `refine.refine_grid` traces only the pairs
that can change a grid point's covered count; the tests require both to give
bit-identical per-point scores, positions and objective. The reference shares
the library's local grid, visibility columns, quality matrix and covered
rule, so only the loop differs.

`min_sphere_welzl` is the plane-constrained 1-center by Welzl's randomized
incremental search, one point per containment test. `refine.min_sphere_fixed_plane`
pivots on the farthest point instead; the tests require the same radius to a
relative 1e-12. Both share the library's closed-form bases and containment
rule, `refine._within`, which `contains` applies to one point. Welzl's search
also builds degenerate bases, which have no closed form and which the pivot
never needs; `basis_sphere` gives them their 1-centers.
"""

import random

import numpy as np

from surfcover import refine
from surfcover.coverage import check_placement, is_covered, quality_matrix, sample_coverage


def reference_refine_grid(
    instance,
    placement,
    bvh,
    pitch_fine,
    rounds,
    neighborhood,
    threshold=None,
    bounds=None,
    scores_log=None,
):
    """`refine_grid` with full visibility columns for every grid point; each
    grid's scores are appended to `scores_log` when it is given."""
    kind = instance.kind
    samples = instance.samples
    placement = check_placement(placement, instance.n_candidates)
    positions = instance.candidates.positions[placement]

    def quality_columns(pos):
        seen = refine._visible_pairs(bvh, samples, pos)
        return quality_matrix(samples, pos, seen, kind)[1]

    def covered_count(cols):
        return is_covered(kind, sample_coverage(kind, cols), threshold).sum(axis=0)

    cols = quality_columns(positions)
    current = float(covered_count(cols))
    for _ in range(rounds):
        moved = False
        for j in range(len(positions)):
            local = refine._local_grid(positions[j], pitch_fine, neighborhood, bounds)
            phi_loc = quality_columns(local)
            others = sample_coverage(kind, np.delete(cols, j, axis=1))
            pairs = np.stack(np.broadcast_arrays(others[:, None], phi_loc), axis=-1)
            scores = covered_count(pairs)
            if scores_log is not None:
                scores_log.append(scores)
            best = int(np.argmax(scores))
            if scores[best] > current + 1e-12 and best != 0:
                positions[j] = local[best]
                cols[:, j] = phi_loc[:, best]
                current = float(scores[best])
                moved = True
        if not moved:
            break
    return positions, current


def contains(sphere, p) -> bool:
    """Whether `sphere` holds point `p` under the library's containment rule."""
    d2 = float(np.sum((np.asarray(p, float) - sphere.center) ** 2))
    return bool(refine._within(d2, sphere.radius**2))


def _largest(spheres):
    return max(spheres, key=lambda s: s.radius)  # the first on ties


def basis_sphere(pts, basis, h):
    """`refine._basis_sphere`, or the 1-center of a degenerate basis: two
    points with equal projections get the farther point's own sphere, and a
    collinear triple, a 1-D problem whose basis has at most two points, the
    largest of its three pairs' minimal spheres."""
    sphere = refine._basis_sphere(pts, basis, h)
    if sphere is not None:
        return sphere
    if len(basis) == 2:
        return _largest(refine._basis_sphere(pts, [i], h) for i in basis)
    return _largest(pair_sphere(pts, pair, h) for pair in (basis[:2], basis[::2], basis[1:]))


def pair_sphere(pts, pair, h):
    """The minimal sphere of `pair`: a point's own sphere if it holds the other, else the pair's."""
    for a, b in (pair, pair[::-1]):
        sphere = refine._basis_sphere(pts, [a], h)
        if contains(sphere, pts[b]):
            return sphere
    return basis_sphere(pts, pair, h)


def min_sphere_welzl(points, h_plane):
    """Welzl's triple loop over a shuffle with the fixed seed 0, with the
    library's closed-form bases, completed by `basis_sphere`, and its
    containment rule, `contains`."""
    pts = np.asarray(points, dtype=np.float64)
    order = list(range(len(pts)))
    random.Random(0).shuffle(order)

    def make(basis):
        return basis_sphere(pts, basis, h_plane)

    sphere = make([order[0]])
    for ii in range(1, len(order)):
        i = order[ii]
        if contains(sphere, pts[i]):
            continue
        sphere = make([i])
        for jj in range(ii):
            j = order[jj]
            if contains(sphere, pts[j]):
                continue
            sphere = make([i, j])
            for ll in range(jj):
                l = order[ll]
                if contains(sphere, pts[l]):
                    continue
                sphere = make([i, j, l])
    return sphere
