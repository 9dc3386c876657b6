"""BVH-accelerated segment occlusion and pairwise visibility matrices."""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import CandidateSet, SampleSet, TriangleMesh

SPVM_MAGIC = b"SPVM"
SPVM_VERSION = 2

LEAF_SIZE = 4  # most triangles in a leaf
# relative endpoint shrinkage; samples sit exactly on mesh faces and must not
# self-occlude
DEFAULT_EPS_REL = 1e-6
# pairs per BVH walk in visibility_matrix and refine_grid on a tree of at most
# DEEP_TREE_LEAVES leaves (twice as many on a larger one; see walk_shape): bounds
# the walk's working memory, whatever N x M is, and sets how many walks it takes
PACKET_SEGMENTS = 8192
DEEP_TREE_LEAVES = 256  # more leaves: double packets and batched collapsed steps


@dataclass(frozen=True)
class Bvh:
    """Axis-aligned bounding box tree over mesh triangles, stored in the
    layout the walk reads.

    Nodes are numbered breadth first, so an internal node's children are the
    consecutive nodes left and left + 1. Every node holds a contiguous range
    of the leaves in leaf order; a leaf's slots past its triangles hold zeros.
    """

    boxes: np.ndarray  # (nodes, 2, 3, 1) lo and hi corners
    left: np.ndarray  # (nodes,) child index, -1 for leaves
    axis: np.ndarray  # (nodes,) split axis; the right child holds the higher centroids; -1 for leaves
    start: np.ndarray  # (nodes,) first leaf of the node's range
    count: np.ndarray  # (nodes,) leaves in the node's range
    tri_order: np.ndarray  # (slots, L) triangle of each slot, -1 if unused; slots: the most in a leaf
    tri: np.ndarray  # (3, 3, slots, L) rows of a, b - a and c - a of each leaf slot
    leaf_boxes: np.ndarray  # (L, 2, 3, 1) the box of each leaf, leaf order
    mesh_hash: int  # content hash of the mesh the tree holds
    # a view's (mixed leaves (L,) bool, the full tree's leaf boxes): a hit on a
    # mixed leaf counts only inside its full-tree box; None on a built tree
    gate: tuple[np.ndarray, np.ndarray] | None = None

    @cached_property
    def _face_free(self) -> Bvh | None:
        """The tree without its face slots, for segments that `_clear_of_box_faces`
        passes; None when it has no face slot (nothing to gain).

        A face slot holds a triangle whose edges have exact zeros on one axis k,
        whose corner a_k lies on the root box's lo_k or hi_k face plane, and whose
        cross product over the other two axes a, b, N = e1a e2b - e1b e2a, is well
        conditioned: |N| > 1e-3 (|e1a e2b| + |e1b e2a|). With those zeros every
        other term of `_triangle_hits` is an exact zero, so det is the rounded sum
        of two rounded products whose exact sum is -d_k N, and the t numerator
        one of (o_k - a_k) N: the computed t is (a_k - o_k) / d_k times 1 +- 9e-13
        (a few ulps times the conditioning bound of 1e3), and d_k = 0 makes det
        exactly 0, no hit.
        A segment whose exact parameter at every face plane lies outside
        [-1e-9, 1 + 1e-9] so never gets t inside Moller-Trumbore's
        [-1e-12, 1 + 1e-12] at a face slot. The root box within +-1e100 and the
        segment inside it keep every product finite: below 24 x (2e100)^3. An
        underflowed product can shift det and t by 1e-209 at most, since a hit needs
        |det| >= 1e-14, and a triangle whose conditioning test underflowed has
        |det| below 1e-14. In-room segments pass with room to spare: the
        DEFAULT_EPS_REL shrink alone puts t near -1e-6 at a face a segment starts on.

        The view shares `left`, `axis`, `start` and `count`. Face slots are zeroed
        with `tri_order` -1. A leaf with no other slot gets a box at +inf on every
        axis ((inf - o) x (1 / d) is +-inf, never NaN, so every slab test misses).
        A leaf with no face slot keeps its box. A mixed leaf, with both, gets the
        box of its other slots' corners (a, a + e1, a + e2), each coordinate x
        moved outward by 1e-9 max(1, |x|), and `gate` marks it. Every node box is
        the min / max of its kept leaves' boxes, so a box still holds every box
        below it and the walk's monotonicity holds: a segment reaches a kept leaf
        exactly when it hits that leaf's box in the view.

        The walk counts a Moller-Trumbore hit on a mixed leaf only when the
        segment also hits the leaf's full-tree box. On the full tree a bit is
        the OR, over leaves, of (leaf box hit) and (slot hit); for a clear
        segment the face slots never hit, so the view gives the same OR provided
        every segment that Moller-Trumbore accepts on a kept slot also hits the
        padded box. An accepted hit has u, v and t within 1e-12 of the triangle
        and of [0, 1], so in exact arithmetic its point lies within
        1e-12 (|d| + |e1| + |e2|) of the triangle. The computed u, v and t err
        by a few ulps times the kernel's condition number, about
        |d| |e1| |e2| / |det| at in-scene magnitudes, and the slab test by a few
        ulps of the root box's coordinates. Both stay far inside the pad while
        that condition number is below about 1e6 and the scene spans less than
        about 1e6. Past that (|det| just above the 1e-14 cut-off, or a sliver) a
        computed hit can land anywhere, so that case rests on measurement: 0
        differing bits over every pair of room-exact and office-refine seeds
        0-10, and over five draws of random, grid and vertex-to-vertex segments
        on the office and the rooms at leaf sizes 4, 2 and 1. Without the gate
        those draws do differ: the padded box lets through a graze that the full
        tree's rounded leaf-box test misses (ROADMAP item 1). With it the view
        keeps the full tree's bit, right or wrong."""
        root = self.boxes[0, :, :, 0]  # the triangles' own bounds
        if np.abs(root).max() > 1e100:
            return None
        a, e1, e2 = self.tri  # (3, slots, L) each
        up, down = e1[[1, 2, 0]] * e2[[2, 0, 1]], e1[[2, 0, 1]] * e2[[1, 2, 0]]  # N = up - down
        used = self.tri_order >= 0
        face = (
            (e1 == 0) & (e2 == 0)
            & ((a == root[0, :, None, None]) | (a == root[1, :, None, None]))
            & (np.abs(up - down) > 1e-3 * (np.abs(up) + np.abs(down)))
        ).any(axis=0) & used
        if not face.any():
            return None
        inner = used & ~face
        kept = inner.any(axis=0)
        mixed = kept & face.any(axis=0)
        leaf_boxes = np.where(kept[:, None, None, None], self.leaf_boxes, np.inf)
        m = np.flatnonzero(mixed)
        corners = np.stack([a, a + e1, a + e2])[..., m]  # (corner, axis, slot, mixed leaf)
        lo = np.where(inner[:, m], corners, np.inf).min(axis=(0, 2))  # (axis, mixed leaf)
        hi = np.where(inner[:, m], corners, -np.inf).max(axis=(0, 2))
        leaf_boxes[m, 0, :, 0] = (lo - 1e-9 * np.maximum(1.0, np.abs(lo))).T
        leaf_boxes[m, 1, :, 0] = (hi + 1e-9 * np.maximum(1.0, np.abs(hi))).T
        lo = leaf_boxes[:, 0, :, 0]
        hi = np.where(kept[:, None], leaf_boxes[:, 1, :, 0], -np.inf)
        # each node's [first, past last) leaf; reduceat needs a row past the last leaf
        ends = np.stack([self.start, self.start + self.count], axis=1).ravel()
        lo = np.minimum.reduceat(np.vstack([lo, lo[:1]]), ends)[::2]
        hi = np.maximum.reduceat(np.vstack([hi, hi[:1]]), ends)[::2]
        hi[lo == np.inf] = np.inf  # no kept leaf: lo = hi = +inf
        return dataclasses.replace(
            self,
            boxes=np.stack([lo, hi], axis=1)[..., None],
            tri_order=np.where(face, -1, self.tri_order),
            tri=np.where(face, 0.0, self.tri),
            leaf_boxes=leaf_boxes,
            gate=(mixed, self.leaf_boxes) if m.size else None,
        )


def build_bvh(mesh: TriangleMesh) -> Bvh:
    """Median-split BVH on the longest box axis (ties broken x, y, z), with at
    most LEAF_SIZE triangles in a leaf, built one level at a time: a level's
    nodes are boxed together, then split by one stable argsort of one int64 key,
    the node's first entry x T + the centroid's rank on the node's axis."""
    if mesh.n_triangles == 0:
        raise ValueError("the mesh has no triangles")
    a, b, c = mesh.corners()
    bounds = np.hstack([np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)])
    bounds += 0.0  # -0.0 becomes 0.0: min / max pick a zero's sign by their reduction order
    # dense centroid ranks, one axis at a time; row -1 is zeros: a leaf's key, which keeps its order
    rank = np.zeros((4, mesh.n_triangles), dtype=np.int64)
    for k in range(3):
        centroid = (a[:, k] + b[:, k] + c[:, k]) / 3.0
        up = np.argsort(centroid)
        rank[k, up[1:]] = np.cumsum(centroid[up[1:]] != centroid[up[:-1]])

    order = np.arange(mesh.n_triangles)
    pos, count = order.copy(), np.array([mesh.n_triangles])  # a level's places in order; node sizes
    levels = []  # (lo, hi, range start, range count, split axis) of each level's nodes
    while True:
        first = np.cumsum(count) - count  # each node's first entry in pos
        idx = order[pos]
        box = bounds.take(idx, axis=0)  # [lo | hi]; min-reducing -hi could flip a zero's sign
        lo = np.minimum.reduceat(box[:, :3], first)
        hi = np.maximum.reduceat(box[:, 3:], first)
        split = count > LEAF_SIZE
        axis = np.where(split, np.argmax(hi - lo, axis=1), -1)  # argmax takes first on ties
        levels.append((lo, hi, pos[first], count, axis))
        if not split.any():
            break
        key = np.repeat(first, count) * mesh.n_triangles + rank[np.repeat(axis, count), idx]
        order[pos] = idx[np.argsort(key, kind="stable")]  # tied centroids keep their place
        pos = pos[np.repeat(split, count)]  # the split nodes' ranges hold the children's
        count = (count[split, None] + [0, 1]).ravel() // 2  # n // 2 left, n - n // 2 right

    del box, rank, bounds  # freed before the slot assembly, the build's memory peak
    lo, hi, start, count, axis = (np.concatenate(column) for column in zip(*levels))
    left = np.where(axis >= 0, 2 * np.cumsum(axis >= 0) - 1, -1)  # split node r: 2r + 1, 2r + 2
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


def _clear_of_box_faces(root, o, d):
    """Which shrunk segments may walk `Bvh._face_free`: those whose parameters
    at the two face planes of every axis of the root box (root: lo and hi
    corners) bracket [-2e-9, 1 + 2e-9] strictly. Such a segment lies inside the
    box, and as each parameter is rounded twice (the difference, then the
    quotient), the exact one lies outside [-1e-9, 1 + 1e-9]. d_k = 0 gives -inf
    and +inf for an origin strictly between the planes; an origin on a plane
    gets NaN there, which fails, so such a segment walks the full tree."""
    clear = np.ones(len(o), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(3):
            a, b = (root[0, k] - o[:, k]) / d[:, k], (root[1, k] - o[:, k]) / d[:, k]
            clear &= (np.minimum(a, b) < -2e-9) & (np.maximum(a, b) > 1.0 + 2e-9)
    return clear


def _segment_hits_triangles(o, d, a, b, c):
    """Vectorized Moller-Trumbore: does segment o + t*d, t in [0, 1], hit any of
    the triangles (a, b, c)? Boundary hits (edges, vertices, endpoints) count.

    o, d: (3,); a, b, c: (T, 3). Returns bool array (T,).
    """
    e1 = b - a
    e2 = c - a
    pvec = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    near_parallel = np.abs(det) < 1e-14
    inv = np.where(near_parallel, 1.0, 1.0 / np.where(near_parallel, 1.0, det))
    tvec = o - a
    u = np.einsum("ij,ij->i", tvec, pvec) * inv
    qvec = np.cross(tvec, e1)
    v = (qvec @ d) * inv
    t = np.einsum("ij,ij->i", qvec, e2) * inv
    tol = 1e-12
    hit = (
        ~near_parallel
        & (u >= -tol)
        & (v >= -tol)
        & (u + v <= 1.0 + tol)
        & (t >= -tol)
        & (t <= 1.0 + tol)
    )
    return hit


def _shrunk(origins, targets):
    """The segments' origins and directions, both ends pulled in by DEFAULT_EPS_REL x length."""
    origins = np.asarray(origins, dtype=np.float64).reshape(len(origins), 3)
    targets = np.asarray(targets, dtype=np.float64).reshape(len(targets), 3)
    if not (np.isfinite(origins).all() and np.isfinite(targets).all()):
        raise ValueError("segment endpoints must be finite")
    with np.errstate(over="ignore"):
        d = targets - origins
        lengths = np.linalg.norm(d, axis=1)
    if not np.isfinite(lengths).all():
        raise ValueError("segment lengths must be finite")
    if (lengths == 0).any():
        raise ValueError("segment endpoints coincide")
    e = DEFAULT_EPS_REL * lengths
    u = d / lengths[:, None]
    return origins + e[:, None] * u, d - (2 * e)[:, None] * u


def segments_occluded(bvh: Bvh, origins, targets) -> np.ndarray:
    """Whether the shrunk open segment from each origin to its target hits a
    triangle. When the tree has a view without its box-face slots
    (`Bvh._face_free`), the segments clear of the root box's faces walk it and
    the rest walk the full tree, one walk each."""
    o, d = _shrunk(origins, targets)
    view = bvh._face_free
    if view is None:
        return _segments_occluded_impl(bvh, o, d)
    clear = _clear_of_box_faces(bvh.boxes[0, :, :, 0], o, d)
    if clear.all():
        return _segments_occluded_impl(view, o, d)
    occluded = np.empty(len(o), dtype=bool)
    occluded[clear] = _segments_occluded_impl(view, o[clear], d[clear])
    occluded[~clear] = _segments_occluded_impl(bvh, o[~clear], d[~clear])
    return occluded


def _slab_hits(box, r):
    """Slab test of segments o + t*d, t in [0, 1], against B boxes: box is (B,
    2, 3, 1) corners, r (2, 3, A) rows of o and 1 / d. Returns bool (B, A).
    The axes' (B, A) entry and exit parameters are folded in x, y, z order.
    Where d == 0 on an axis, 1 / d = +-inf gives an origin inside the slab
    (-inf, inf) and one outside two same-signed infinities, a miss; one on a
    slab plane gets 0 * inf = NaN, which np.fmax / np.fmin skip."""
    (o, inv), lo, hi = r, box[:, 0], box[:, 1]
    for k in range(3):
        a, b = (lo[:, k] - o[k]) * inv[k], (hi[:, k] - o[k]) * inv[k]
        near, far = np.minimum(a, b), np.maximum(a, b, out=b)
        if k == 0:
            enter, exit_ = near, far
        else:
            np.fmax(enter, near, out=enter)
            np.fmin(exit_, far, out=exit_)
    np.maximum(enter, 0.0, out=enter)
    np.minimum(exit_, 1.0, out=exit_)
    return enter <= exit_


def _triangle_hits(r, tri):
    """Moller-Trumbore of A segments, r (2, 3, A) rows of o and d, against
    triangles, tri (3, 3, S, 1 or A) rows of a, b - a and c - a; bool (S, A).
    Products and sums are those of np.cross and np.einsum (which adds the x, z,
    then y terms); from tvec on, the (S, A) arrays are worked in place."""
    (ox, oy, oz), (dx, dy, dz) = r
    (ax, ay, az), (e1x, e1y, e1z), (e2x, e2y, e2z) = tri
    p0 = dy * e2z - dz * e2y  # pvec = d x e2
    p1 = dz * e2x - dx * e2z
    p2 = dx * e2y - dy * e2x
    det = (e1x * p0 + e1z * p2) + e1y * p1
    near_parallel = np.abs(det) < 1e-14
    inv = np.divide(1.0, np.where(near_parallel, 1.0, det), out=det)
    t0, t1, t2 = ox - ax, oy - ay, oz - az  # tvec = o - a
    u = np.add(np.multiply(p0, t0, out=p0), np.multiply(p2, t2, out=p2), out=p0)
    u += np.multiply(p1, t1, out=p1)
    u *= inv
    # qvec = tvec x e1, into the buffers of pvec and tvec
    q0 = np.subtract(np.multiply(t1, e1z, out=p1), np.multiply(t2, e1y, out=p2), out=p1)
    q1 = np.subtract(np.multiply(t2, e1x, out=p2), np.multiply(t0, e1z, out=t2), out=p2)
    q2 = np.subtract(np.multiply(t0, e1y, out=t0), np.multiply(t1, e1x, out=t1), out=t0)
    v = np.add(np.multiply(q0, dx, out=t1), np.multiply(q2, dz, out=t2), out=t1)
    v += np.multiply(q1, dy, out=t2)
    v *= inv
    t = np.add(np.multiply(q0, e2x, out=q0), np.multiply(q2, e2z, out=q2), out=q0)
    t += np.multiply(q1, e2y, out=q1)
    t *= inv
    tol = 1e-12
    hit = ~near_parallel & (u >= -tol) & (v >= -tol) & (t >= -tol) & (t <= 1.0 + tol)
    hit &= np.add(u, v, out=u) <= 1.0 + tol
    return hit


@np.errstate(divide="ignore", invalid="ignore")  # 1 / 0 and 0 * inf in the slab test
def _segments_occluded_impl(bvh: Bvh, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Packet traversal of the BVH: each internal node slab-tests both children
    against the segments that reached it, each leaf runs Moller-Trumbore on them.
    The child on the targets' side of the node's split axis is walked first, for
    the packet's majority: a segment occluded there is dropped before the other
    child is walked. The order changes only the work; a bit is the OR, over the
    leaves whose box the segment hits, of the Moller-Trumbore hits.

    A subtree whose segments x leaves fit in `walk_shape`'s collapse budget is
    finished in one step: its leaf boxes are slab-tested once, and
    Moller-Trumbore runs only on the (leaf, segment) pairs that hit, gathered
    with the pairs on the last axis (a pair-major gather runs twice as slow).
    The bits are the walk's: a parent box is the min / max of its children's,
    and IEEE subtraction and multiplication are monotone, so a segment that
    hits a leaf box hits every box on the path to it (also where 0 * inf gives
    NaN). Collapsed steps queue their pairs, and Moller-Trumbore runs once the
    queue holds `walk_shape`'s batch or the walk ends; a segment is dropped
    from later steps once a run finds it occluded, so waiting only adds work,
    never a bit."""
    budget, batch = walk_shape(bvh)
    occluded = np.zeros(len(o), dtype=bool)
    boxes, tri, leaf_boxes = bvh.boxes, bvh.tri, bvh.leaf_boxes
    left, count, start = bvh.left.tolist(), bvh.count.tolist(), bvh.start.tolist()
    axis = bvh.axis.tolist()
    ray = np.ascontiguousarray(np.stack([o, 1.0 / d, d]).transpose(0, 2, 1))  # o, 1/d, d

    def triangles(leaf, seg):
        hit = _triangle_hits(ray[::2].take(seg, axis=2), tri.take(leaf, axis=3))
        hit = np.logical_or.reduce(hit, axis=0)
        if bvh.gate is not None:  # a view: hits on mixed leaves must pass their full-tree box
            mixed, full_boxes = bvh.gate
            g = np.flatnonzero(hit & mixed[leaf])  # a leaf step's one leaf broadcasts
            if g.size:
                box = full_boxes[leaf if len(leaf) == 1 else leaf[g]]  # (1 or G, 2, 3, 1)
                hit[g] = _slab_hits(box.transpose(3, 1, 2, 0), ray[:2].take(seg[g], axis=2))[0]
        occluded[seg[hit]] = True

    queue, queued = [], 0  # collapsed steps' (leaf, segment) pairs, waiting, and their count
    stack = [(0, np.flatnonzero(_slab_hits(boxes[:1], ray[:2])[0]))]
    while stack or queued:
        if queued >= batch or not stack:  # the queued pairs are due
            leaf, seg = queue[0] if len(queue) == 1 else map(np.concatenate, zip(*queue))
            triangles(leaf, seg)
            queue, queued = [], 0
            continue
        node, act = stack.pop()
        act = act[~occluded[act]]
        if act.size == 0:
            continue
        lc, lo, n = left[node], start[node], count[node]
        if lc >= 0 and act.size * n > budget:
            r = ray[:2].take(act, axis=2)
            hit = _slab_hits(boxes[lc : lc + 2], r)
            if 2 * np.count_nonzero(r[1, axis[node]] > 0) > act.size:  # most point up the axis
                stack += [(lc, act[hit[0]]), (lc + 1, act[hit[1]])]  # the right child pops first
            else:
                stack += [(lc + 1, act[hit[1]]), (lc, act[hit[0]])]
            continue
        if lc < 0:  # a leaf: its own box was tested by its parent
            triangles([lo], act)
            continue
        # a collapsed subtree: queue the (leaf, segment) pairs whose leaf box hits
        leaf, seg = np.nonzero(_slab_hits(leaf_boxes[lo : lo + n], ray[:2].take(act, axis=2)))
        queue.append((leaf + lo, act[seg]))
        queued += seg.size
    return occluded


def segment_occluded_brute(mesh: TriangleMesh, a, b) -> bool:
    """Linear scan over every triangle; oracle for the BVH path, with its own
    Moller-Trumbore arithmetic."""
    (o,), (d,) = _shrunk([a], [b])
    return bool(_segment_hits_triangles(o, d, *mesh.corners()).any())


@dataclass(frozen=True)
class VisibilityMatrix:
    """Pairwise sample-to-candidate visibility bits with provenance hashes."""

    bits: np.ndarray  # (N, M) bool
    sample_hash: int
    candidate_hash: int
    mesh_hash: int | None = None  # None: bits built by hand, with no mesh to record

    def check_consistent(
        self, samples: SampleSet, candidates: CandidateSet, mesh: TriangleMesh | None = None
    ) -> None:
        """The one reuse rule: these bits were computed from `samples` and
        `candidates` and, when `mesh` is given, on it; otherwise ValueError."""
        if (
            self.sample_hash != samples.content_hash()
            or self.candidate_hash != candidates.content_hash()
        ):
            raise ValueError(
                "visibility matrix was built from different samples/candidates; "
                "re-run the visibility computation"
            )
        if mesh is not None and self.mesh_hash != mesh.content_hash():
            raise ValueError("visibility matrix was computed on another mesh")


def walk_shape(bvh: Bvh) -> tuple[int, int]:
    """(pairs per packet, Moller-Trumbore batch) of the walk on `bvh`: the
    packet is also the collapse budget, and a batch of 1 runs each collapsed
    step at once. A tree of more than DEEP_TREE_LEAVES leaves walks packets of
    2 x PACKET_SEGMENTS and batches PACKET_SEGMENTS // 2 pairs: its many
    collapsed steps hold a few hundred pairs each, so fewer, fuller steps save
    the per-step overhead. A smaller tree's few steps do not earn it back."""
    if len(bvh.leaf_boxes) > DEEP_TREE_LEAVES:
        return 2 * PACKET_SEGMENTS, PACKET_SEGMENTS // 2
    return PACKET_SEGMENTS, 1


def pair_packets(bvh: Bvh, points: np.ndarray, positions: np.ndarray, mask=None):
    """Yield (rows, cols, origins, targets) packets of the pairs that join
    point rows[i] to position cols[i]: all N x M pairs, or those the (N, M)
    bool `mask` sets, position by position, in packets of `walk_shape(bvh)`'s
    size. Only one packet's rows exist at a time."""
    size, _ = walk_shape(bvh)
    n = len(points)
    pairs = None if mask is None else np.flatnonzero(mask.T)
    total = n * len(positions) if pairs is None else len(pairs)
    for lo in range(0, total, size):
        p = np.arange(lo, min(lo + size, total)) if pairs is None else pairs[lo : lo + size]
        cols, rows = np.divmod(p, n)
        yield rows, cols, points[rows], positions[cols]


def visibility_matrix(
    bvh: Bvh,
    samples: SampleSet,
    candidates: CandidateSet,
) -> VisibilityMatrix:
    """bit (i, j) = segment from sample i to candidate j is unobstructed."""
    bits = np.empty((len(samples), len(candidates)), dtype=bool)
    for rows, cols, origins, targets in pair_packets(bvh, samples.positions, candidates.positions):
        bits[rows, cols] = ~segments_occluded(bvh, origins, targets)
    return VisibilityMatrix(
        bits=bits,
        sample_hash=samples.content_hash(),
        candidate_hash=candidates.content_hash(),
        mesh_hash=bvh.mesh_hash,
    )


# ---------------------------------------------------------------------------
# SPVM binary persistence: magic, version u32, N u64, M u64, sample hash u64,
# candidate hash u64, mesh hash u64, then row-major packed bits, all
# little-endian.

_SPVM_HEADER = struct.Struct("<4sI5Q")


def save_spvm(vm: VisibilityMatrix, path) -> None:
    if vm.mesh_hash is None:
        raise ValueError("an SPVM file records its mesh; this matrix has no mesh hash")
    fields = (*vm.bits.shape, vm.sample_hash, vm.candidate_hash, vm.mesh_hash)
    header = _SPVM_HEADER.pack(SPVM_MAGIC, SPVM_VERSION, *fields)
    packed = np.packbits(vm.bits, axis=1, bitorder="little")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())


def load_spvm(path) -> VisibilityMatrix:
    with open(path, "rb") as fh:
        header = fh.read(_SPVM_HEADER.size)
        if header[:4] != SPVM_MAGIC:
            raise ValueError(f"{path}: not an SPVM file (magic {header[:4]!r})")
        if len(header) != _SPVM_HEADER.size:
            raise ValueError(f"{path}: truncated SPVM header")
        _, version, n, m, shash, chash, mhash = _SPVM_HEADER.unpack(header)
        if version != SPVM_VERSION:
            raise ValueError(f"{path}: unsupported SPVM version {version}")
        row_bytes = (m + 7) // 8
        raw = np.frombuffer(fh.read(), dtype=np.uint8)  # sized by the file, not the header
    if raw.size != n * row_bytes:
        raise ValueError(f"{path}: SPVM payload of {raw.size} B, header says {n} x {row_bytes}")
    bits = np.unpackbits(raw.reshape(n, row_bytes), axis=1, bitorder="little")[:, :m]
    return VisibilityMatrix(
        bits=bits.astype(bool), sample_hash=shash, candidate_hash=chash, mesh_hash=mhash
    )
