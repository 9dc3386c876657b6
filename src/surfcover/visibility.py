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


def _segments_hit_triangles(o, d, a, b, c):
    """Batched form of _segment_hits_triangles: o, d are (S, 3); a, b, c are
    (T, 3). Returns bool (S,): does segment s hit any triangle?
    """
    e1 = b - a  # (T, 3)
    e2 = c - a
    pvec = np.cross(d[:, None, :], e2[None, :, :])  # (S, T, 3)
    det = np.einsum("tj,stj->st", e1, pvec)
    near_parallel = np.abs(det) < 1e-14
    inv = np.where(near_parallel, 1.0, 1.0 / np.where(near_parallel, 1.0, det))
    tvec = o[:, None, :] - a[None, :, :]
    u = np.einsum("stj,stj->st", tvec, pvec) * inv
    qvec = np.cross(tvec, e1[None, :, :])
    v = np.einsum("stj,sj->st", qvec, d) * inv
    t = np.einsum("stj,tj->st", qvec, e2) * inv
    tol = 1e-12
    hit = (
        ~near_parallel
        & (u >= -tol)
        & (v >= -tol)
        & (u + v <= 1.0 + tol)
        & (t >= -tol)
        & (t <= 1.0 + tol)
    )
    return hit.any(axis=1)


def _shrunk(a, b, eps):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = b - a
    length = np.linalg.norm(d)
    if length == 0.0:
        raise ValueError("segment endpoints coincide")
    if eps is None:
        eps = DEFAULT_EPS_REL * length
    u = d / length
    return a + eps * u, d - 2 * eps * u


def segment_occluded(bvh: Bvh, a, b, eps: float | None = None) -> bool:
    """True iff the eps-shrunk open segment from a to b hits any mesh triangle."""
    o, d = _shrunk(a, b, eps)
    return bool(
        _segments_occluded_impl(bvh, o[None, :], d[None, :])[0]
    )


def segments_occluded(bvh: Bvh, origins, targets, eps: float | None = None) -> np.ndarray:
    """Batched segment_occluded over rows of origins/targets ((n, 3) each)."""
    origins = np.asarray(origins, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    d = targets - origins
    lengths = np.linalg.norm(d, axis=1)
    if (lengths == 0).any():
        raise ValueError("segment endpoints coincide")
    e = (DEFAULT_EPS_REL * lengths) if eps is None else np.full(len(d), float(eps))
    u = d / lengths[:, None]
    o = origins + e[:, None] * u
    dshrunk = d - (2 * e)[:, None] * u
    return _segments_occluded_impl(bvh, o, dshrunk)


def _segment_box_overlap(o, d, lo, hi):
    """Slab test of segments (o + t*d, t in [0, 1]) against one box.

    o, d: (n, 3); lo, hi: (3,). Returns bool (n,).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        t1 = (lo - o) * inv
        t2 = (hi - o) * inv
    # where d == 0: inside-slab check instead
    zero = d == 0.0
    tmin = np.where(zero, -np.inf, np.minimum(t1, t2))
    tmax = np.where(zero, np.inf, np.maximum(t1, t2))
    ok_zero = ~zero | ((o >= lo) & (o <= hi))
    enter = np.maximum(tmin.max(axis=1), 0.0)
    exit_ = np.minimum(tmax.min(axis=1), 1.0)
    return ok_zero.all(axis=1) & (enter <= exit_)


def _segments_occluded_impl(bvh: Bvh, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    n = len(o)
    occluded = np.zeros(n, dtype=bool)
    stack = [(0, np.arange(n))]
    while stack:
        node, active = stack.pop()
        active = active[~occluded[active]]
        if active.size == 0:
            continue
        hitbox = _segment_box_overlap(
            o[active], d[active], bvh.box_lo[node], bvh.box_hi[node]
        )
        active = active[hitbox]
        if active.size == 0:
            continue
        if bvh.count[node] > 0:
            s, cnt = bvh.start[node], bvh.count[node]
            ta = bvh.tri_a[s : s + cnt]
            tb = bvh.tri_b[s : s + cnt]
            tc = bvh.tri_c[s : s + cnt]
            hits = _segments_hit_triangles(o[active], d[active], ta, tb, tc)
            occluded[active[hits]] = True
        else:
            stack.append((bvh.right[node], active))
            stack.append((bvh.left[node], active))
    return occluded


def segment_occluded_brute(mesh: TriangleMesh, a, b, eps: float | None = None) -> bool:
    """Linear scan over every triangle; oracle for the BVH path."""
    o, d = _shrunk(a, b, eps)
    ta, tb, tc = mesh.corners()
    return bool(_segment_hits_triangles(o, d, ta, tb, tc).any())


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


def visibility_matrix(
    bvh: Bvh,
    samples: SampleSet,
    candidates: CandidateSet,
    eps: float | None = None,
) -> VisibilityMatrix:
    """bit (i, j) = segment from sample i to candidate j is unobstructed."""
    n, m = len(samples), len(candidates)
    bits = np.zeros((n, m), dtype=bool)
    for j in range(m):
        targets = np.repeat(candidates.positions[j : j + 1], n, axis=0)
        bits[:, j] = ~segments_occluded(bvh, samples.positions, targets, eps)
    return VisibilityMatrix(
        bits=bits,
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
