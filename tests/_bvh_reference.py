"""Reference BVH builder.

`reference_build_bvh` is the per-node build: one Python step per node, each
gathering its triangles' bounds, taking the longest box axis and stably
argsorting its range by centroid before the median split. `visibility.build_bvh`
builds one level at a time, boxing all of a level's nodes in a few numpy
passes and ordering their ranges with one stable sort of an integer key,
node and centroid rank; the tests require both to give the same tree, byte
for byte.
The slot assembly after the loop is the library's, copied unchanged.
"""

import numpy as np

from surfcover.visibility import LEAF_SIZE, Bvh


def reference_build_bvh(mesh) -> Bvh:
    """Median-split BVH on the longest box axis (ties broken x, y, z), with at
    most LEAF_SIZE triangles in a leaf."""
    a, b, c = mesh.corners()
    tri_lo = np.minimum(np.minimum(a, b), c) + 0.0  # no -0.0, as in build_bvh
    tri_hi = np.maximum(np.maximum(a, b), c) + 0.0
    centroids = (a + b + c) / 3.0

    order = np.arange(mesh.n_triangles)
    ranges = [(0, mesh.n_triangles)]  # node i holds order[lo:hi] of ranges[i]
    nodes = []  # (lo, hi, left child, range start, range count, split axis) of node i
    for lo_i, hi_i in ranges:  # splits append the children's ranges
        idx = order[lo_i:hi_i]
        lo, hi = tri_lo[idx].min(axis=0), tri_hi[idx].max(axis=0)
        n = hi_i - lo_i
        if n <= LEAF_SIZE:
            nodes.append((lo, hi, -1, lo_i, n, -1))
            continue
        axis = int(np.argmax(hi - lo))  # argmax takes first on ties: x, y, z
        order[lo_i:hi_i] = idx[np.argsort(centroids[idx, axis], kind="stable")]
        mid = lo_i + n // 2
        nodes.append((lo, hi, len(ranges), lo_i, n, axis))
        ranges += [(lo_i, mid), (mid, hi_i)]

    lo, hi, left, start, count, axis = (np.array(column) for column in zip(*nodes))
    del nodes  # freed to keep the build's peak memory low
    boxes = np.stack([lo, hi], axis=1)[..., None]
    leaves = np.flatnonzero(left < 0)
    leaves = leaves[np.argsort(start[leaves])]  # leaf order
    slot = start[leaves] + np.arange(count[leaves].max())[:, None]  # (slots, L) positions
    used = slot < start[leaves] + count[leaves]
    slot_tri = np.full(slot.shape, -1)
    slot_tri[used] = order[slot[used]]
    tri = np.zeros((3, 3) + slot.shape)  # a zero triangle has det = 0, so it never hits
    tri[:, :, used] = np.stack([a, b - a, c - a])[:, slot_tri[used]].transpose(0, 2, 1)
    first_leaf = np.searchsorted(start[leaves], start)  # node ranges, counted in leaves
    return Bvh(
        boxes=boxes,
        left=left,
        axis=axis,
        start=first_leaf,
        count=np.searchsorted(start[leaves], start + count) - first_leaf,
        tri_order=slot_tri,
        tri=tri,
        leaf_boxes=boxes[leaves],
        mesh_hash=mesh.content_hash(),
    )
