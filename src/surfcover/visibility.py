"""BVH-accelerated segment occlusion and pairwise visibility matrices."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .mesh import CandidateSet, SampleSet, TriangleMesh

SPVM_MAGIC = b"SPVM"
SPVM_VERSION = 2  # v2 adds the mesh hash; v1 files still load

DEFAULT_LEAF_SIZE = 4
# relative endpoint shrinkage; samples sit exactly on mesh faces and must not
# self-occlude
DEFAULT_EPS_REL = 1e-6
# pairs per BVH walk in visibility_matrix and refine_grid: bounds the walk's
# working memory, whatever N x M is, and sets how many walks it takes
PACKET_SEGMENTS = 8192


@dataclass(frozen=True)
class Bvh:
    """Axis-aligned bounding box tree over mesh triangles.

    Stored as flat arrays: internal nodes reference children, leaves reference
    a contiguous range of the permuted triangle index array.
    """

    box_lo: np.ndarray  # (nodes, 3)
    box_hi: np.ndarray  # (nodes, 3)
    left: np.ndarray  # (nodes,) child index, -1 for leaves
    right: np.ndarray  # (nodes,)
    start: np.ndarray  # (nodes,) leaf triangle range start
    count: np.ndarray  # (nodes,) leaf triangle count, 0 for internal
    tri_order: np.ndarray  # permutation of triangle indices
    tri_a: np.ndarray  # (T, 3) corner arrays in leaf order
    tri_b: np.ndarray
    tri_c: np.ndarray

    @property
    def n_triangles(self) -> int:
        return len(self.tri_order)


def build_bvh(mesh: TriangleMesh, leaf_size: int = DEFAULT_LEAF_SIZE) -> Bvh:
    """Median-split BVH on the longest box axis (ties broken x, y, z)."""
    a, b, c = mesh.corners()
    tri_lo = np.minimum(np.minimum(a, b), c)
    tri_hi = np.maximum(np.maximum(a, b), c)
    centroids = (a + b + c) / 3.0

    order = np.arange(mesh.n_triangles)
    box_lo, box_hi, left, right, start, count = [], [], [], [], [], []

    def new_node():
        box_lo.append(None)
        box_hi.append(None)
        left.append(-1)
        right.append(-1)
        start.append(0)
        count.append(0)
        return len(box_lo) - 1

    # iterative build; stack of (node_index, lo, hi) ranges into `order`
    root = new_node()
    stack = [(root, 0, mesh.n_triangles)]
    while stack:
        node, lo_i, hi_i = stack.pop()
        idx = order[lo_i:hi_i]
        lo = tri_lo[idx].min(axis=0)
        hi = tri_hi[idx].max(axis=0)
        box_lo[node] = lo
        box_hi[node] = hi
        n = hi_i - lo_i
        if n <= leaf_size:
            start[node] = lo_i
            count[node] = n
            continue
        extent = hi - lo
        axis = int(np.argmax(extent))  # argmax takes first on ties: x, y, z
        key = centroids[idx, axis]
        perm = np.argsort(key, kind="stable")
        order[lo_i:hi_i] = idx[perm]
        mid = lo_i + n // 2
        lc, rc = new_node(), new_node()
        left[node] = lc
        right[node] = rc
        stack.append((rc, mid, hi_i))
        stack.append((lc, lo_i, mid))

    return Bvh(
        box_lo=np.array(box_lo),
        box_hi=np.array(box_hi),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        start=np.array(start, dtype=np.int64),
        count=np.array(count, dtype=np.int64),
        tri_order=order,
        tri_a=a[order],
        tri_b=b[order],
        tri_c=c[order],
    )


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
    origins = np.asarray(origins, dtype=np.float64)
    d = np.asarray(targets, dtype=np.float64) - origins
    lengths = np.linalg.norm(d, axis=1)
    if (lengths == 0).any():
        raise ValueError("segment endpoints coincide")
    e = DEFAULT_EPS_REL * lengths
    u = d / lengths[:, None]
    return origins + e[:, None] * u, d - (2 * e)[:, None] * u


def segment_occluded(bvh: Bvh, a, b) -> bool:
    """True iff the shrunk open segment from a to b hits any mesh triangle."""
    return bool(segments_occluded(bvh, [a], [b])[0])


def segments_occluded(bvh: Bvh, origins, targets) -> np.ndarray:
    """Batched segment_occluded over rows of origins/targets ((n, 3) each)."""
    return _segments_occluded_impl(bvh, *_shrunk(origins, targets))


def _slab_hits(box, r, zero):
    """Slab test of segments o + t*d, t in [0, 1], against B boxes: box is (B,
    2, 3, 1) corners, r (2, 3, A) rows of o and 1 / d, zero the (3, A) mask of
    d == 0 or None when there is none. Returns bool (B, A)."""
    t = (box - r[0]) * r[1]
    tmin = np.minimum(t[:, 0], t[:, 1])
    tmax = np.maximum(t[:, 0], t[:, 1], out=t[:, 1])
    if zero is not None:  # where d == 0: inside the slab or not, not its interval
        outside = ~((r[0] >= box[:, 0]) & (r[0] <= box[:, 1]))
        np.copyto(tmin, np.where(outside, np.inf, -np.inf), where=zero)
        np.copyto(tmax, np.inf, where=zero)
    enter = np.maximum(np.maximum.reduce(tmin, axis=1), 0.0)
    exit_ = np.minimum(np.minimum.reduce(tmax, axis=1), 1.0)
    return enter <= exit_


def _leaf_hits(r, tri):
    """Moller-Trumbore of A segments, r (2, 3, A) rows of o and d, against one
    leaf's L triangles, tri (3, 3, L, 1) rows of a, b - a and c - a; bool (A,).
    Products and sums are those of np.cross and np.einsum (which adds the x, z,
    then y terms); from tvec on, the (L, A) arrays are worked in place."""
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
    return np.logical_or.reduce(hit, axis=0)


@np.errstate(divide="ignore", invalid="ignore")  # 1 / 0 and 0 * inf in the slab test
def _segments_occluded_impl(bvh: Bvh, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Packet traversal of the BVH: each internal node slab-tests both children
    against the segments that reached it, each leaf runs Moller-Trumbore on them."""
    occluded = np.zeros(len(o), dtype=bool)
    count, start = bvh.count.tolist(), bvh.start.tolist()
    children = list(zip(bvh.right.tolist(), bvh.left.tolist()))
    boxes = np.stack([bvh.box_lo, bvh.box_hi], axis=1)[..., None]  # (nodes, 2, 3, 1)
    kids = boxes[np.stack([bvh.right, bvh.left], axis=1)]  # leaves' rows unused
    a = bvh.tri_a
    tri = np.stack([a, bvh.tri_b - a, bvh.tri_c - a]).transpose(0, 2, 1)[..., None]
    ray = np.ascontiguousarray(np.stack([o, 1.0 / d, d]).transpose(0, 2, 1))  # o, 1/d, d
    zero = (ray[2] == 0.0) if (d == 0.0).any() else None
    stack = [(0, np.flatnonzero(_slab_hits(boxes[:1], ray[:2], zero)[0]))]
    while stack:
        node, act = stack.pop()
        act = act[~occluded[act]]
        if act.size == 0:
            continue
        if count[node]:
            leaf = tri[:, :, start[node] : start[node] + count[node]]
            occluded[act[_leaf_hits(ray[::2].take(act, axis=2), leaf)]] = True
            continue
        z = None if zero is None else zero.take(act, axis=1)
        hit = _slab_hits(kids[node], ray[:2].take(act, axis=2), z)
        stack += [(c, act[h]) for c, h in zip(children[node], hit)]
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
    mesh_hash: int | None = None  # None: the occluding mesh is unknown

    @property
    def n_samples(self) -> int:
        return self.bits.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.bits.shape[1]

    def check_consistent(self, samples: SampleSet, candidates: CandidateSet) -> None:
        if (
            self.sample_hash != samples.content_hash()
            or self.candidate_hash != candidates.content_hash()
        ):
            raise ValueError(
                "visibility matrix was built from different samples/candidates; "
                "re-run the visibility computation"
            )


def pair_packets(points: np.ndarray, positions: np.ndarray):
    """Yield (slice, origins, targets) packets of at most PACKET_SEGMENTS of the
    flattened point-to-position pairs: pair p joins point p % N to position
    p // N. Only one packet's rows exist at a time."""
    n = len(points)
    total = n * len(positions)
    for lo in range(0, total, PACKET_SEGMENTS):
        p = np.arange(lo, min(lo + PACKET_SEGMENTS, total))
        yield slice(lo, lo + len(p)), points[p % n], positions[p // n]


def visibility_matrix(
    bvh: Bvh,
    samples: SampleSet,
    candidates: CandidateSet,
) -> VisibilityMatrix:
    """bit (i, j) = segment from sample i to candidate j is unobstructed."""
    hidden = np.empty(len(samples) * len(candidates), dtype=bool)  # candidate-major
    for sl, origins, targets in pair_packets(samples.positions, candidates.positions):
        hidden[sl] = segments_occluded(bvh, origins, targets)
    return VisibilityMatrix(
        bits=np.ascontiguousarray(~hidden.reshape(len(candidates), len(samples)).T),
        sample_hash=samples.content_hash(),
        candidate_hash=candidates.content_hash(),
    )


# ---------------------------------------------------------------------------
# SPVM binary persistence: magic, version u32, N u64, M u64, sample hash u64,
# candidate hash u64, in version 2 the mesh hash u64, then row-major packed
# bits, all little-endian. A matrix without a mesh hash is written as version 1.


def save_spvm(vm: VisibilityMatrix, path) -> None:
    fields = [vm.n_samples, vm.n_candidates, vm.sample_hash, vm.candidate_hash]
    if vm.mesh_hash is not None:
        fields.append(vm.mesh_hash)
    version = 1 if vm.mesh_hash is None else SPVM_VERSION
    header = SPVM_MAGIC + struct.pack(f"<I{len(fields)}Q", version, *fields)
    packed = np.packbits(vm.bits, axis=1, bitorder="little")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())


def _read_header(fh, fmt: str, path) -> tuple:
    raw = fh.read(struct.calcsize(fmt))
    if len(raw) != struct.calcsize(fmt):
        raise ValueError(f"{path}: truncated SPVM header")
    return struct.unpack(fmt, raw)


def load_spvm(path) -> VisibilityMatrix:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SPVM_MAGIC:
            raise ValueError(f"{path}: not an SPVM file (magic {magic!r})")
        (version,) = _read_header(fh, "<I", path)
        if version not in (1, SPVM_VERSION):
            raise ValueError(f"{path}: unsupported SPVM version {version}")
        n, m, shash, chash = _read_header(fh, "<4Q", path)
        mhash = _read_header(fh, "<Q", path)[0] if version == SPVM_VERSION else None
        row_bytes = (m + 7) // 8
        raw = np.frombuffer(fh.read(n * row_bytes), dtype=np.uint8)
    if raw.size != n * row_bytes:
        raise ValueError(f"{path}: truncated SPVM payload")
    bits = np.unpackbits(raw.reshape(n, row_bytes), axis=1, bitorder="little")[:, :m]
    return VisibilityMatrix(
        bits=bits.astype(bool), sample_hash=shash, candidate_hash=chash, mesh_hash=mhash
    )
