"""Triangle meshes, surface sampling, and candidate sensor grids."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

FORMAT_VERSION = 1

MIN_TRIANGLE_AREA = 1e-12  # m^2; faces below this are rejected as degenerate


class MeshError(ValueError):
    pass


class EmptySampleError(ValueError):
    """Raised when sampling + filtering leaves no usable target surface."""


def _as_points(a, dtype=np.float64) -> np.ndarray:
    """`a` as an (n, 3) array of `dtype`; MeshError unless that is its shape
    and every entry is finite."""
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise MeshError(f"expected (n, 3) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise MeshError("coordinates must be finite")
    return arr


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup bounding the workspace."""

    vertices: np.ndarray  # (V, 3) float64, meters
    triangles: np.ndarray  # (T, 3) int64 vertex indices

    def __post_init__(self):
        object.__setattr__(self, "vertices", _as_points(self.vertices))
        tris = _as_points(self.triangles, np.int64)  # vertex indices
        object.__setattr__(self, "triangles", tris)
        if tris.size and (tris.min() < 0 or tris.max() >= len(self.vertices)):
            bad = np.where((tris < 0) | (tris >= len(self.vertices)))[0]
            raise MeshError(f"triangle indices out of range in faces {sorted(set(bad.tolist()))}")
        areas = self.areas()
        bad = np.where(areas <= MIN_TRIANGLE_AREA)[0]
        if bad.size:
            raise MeshError(f"degenerate (zero-area) faces: {bad.tolist()}")

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def content_hash(self) -> int:
        return content_hash_u64(self.vertices, self.triangles)

    def corners(self):
        """Return (a, b, c) corner arrays, each (T, 3)."""
        v, t = self.vertices, self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def areas(self) -> np.ndarray:
        a, b, c = self.corners()
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def face_normals(self) -> np.ndarray:
        """Unit normals oriented by winding (right-hand rule)."""
        a, b, c = self.corners()
        n = np.cross(b - a, c - a)
        return n / np.linalg.norm(n, axis=1, keepdims=True)


@dataclass(frozen=True)
class SampleSet:
    """Discretization of the target surface: positions, normals, area weights."""

    positions: np.ndarray  # (N, 3)
    normals: np.ndarray  # (N, 3) unit
    weights: np.ndarray  # (N,) m^2

    def __post_init__(self):
        object.__setattr__(self, "positions", _as_points(self.positions))
        object.__setattr__(self, "normals", _as_points(self.normals))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        n = len(self.positions)
        if n < 1:
            raise EmptySampleError("sample set is empty")
        if self.normals.shape != (n, 3) or self.weights.shape != (n,):
            raise ValueError("positions/normals/weights length mismatch")
        norms = np.linalg.norm(self.normals, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("normals must be unit length")
        if not (np.isfinite(self.weights).all() and (self.weights > 0).all()):
            raise ValueError("sample weights must be finite and > 0")

    def __len__(self) -> int:
        return len(self.positions)

    def content_hash(self) -> int:
        return content_hash_u64(self.positions, self.normals, self.weights)


@dataclass(frozen=True)
class CandidateSet:
    """Discretized candidate sensor locations."""

    positions: np.ndarray  # (M, 3)

    def __post_init__(self):
        pos = _as_points(self.positions)
        # merge exact duplicates, first occurrence wins
        _, idx = np.unique(pos, axis=0, return_index=True)
        if len(idx) != len(pos):
            pos = pos[np.sort(idx)]
        object.__setattr__(self, "positions", pos)
        if len(pos) < 1:
            raise ValueError("candidate set is empty")

    def __len__(self) -> int:
        return len(self.positions)

    def content_hash(self) -> int:
        return content_hash_u64(self.positions)


_KINDS = {SampleSet: "sample_set", CandidateSet: "candidate_set"}


def save_json(obj: SampleSet | CandidateSet, path) -> None:
    """Write JSON of `format_version`, `kind`, then the set's fields in order."""
    record = {"format_version": FORMAT_VERSION, "kind": _KINDS[type(obj)]}
    record.update((f.name, getattr(obj, f.name).tolist()) for f in fields(obj))
    with open(path, "w") as fh:
        json.dump(record, fh)


def _load_set(cls, path):
    """The `cls` set in the file at `path`, whose keys beyond its fields are ignored."""
    with open(path) as fh:
        record = json.load(fh)
    kind = _KINDS[cls]
    if not isinstance(record, dict) or record.get("kind") != kind:
        raise ValueError(f"not a {kind} file")
    if record.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} format_version {record.get('format_version')}")
    return cls(**{f.name: np.array(record[f.name], dtype=np.float64) for f in fields(cls)})


def load_sample_set(path) -> SampleSet:
    return _load_set(SampleSet, path)


def load_candidate_set(path) -> CandidateSet:
    return _load_set(CandidateSet, path)


def content_hash_u64(*arrays: np.ndarray) -> int:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return int.from_bytes(h.digest(), "little")


# ---------------------------------------------------------------------------
# OBJ I/O


def load_obj(path) -> TriangleMesh:
    """Load an ASCII Wavefront OBJ mesh (v/f records; quads fan-triangulated)."""
    vertices = []
    faces = []
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise MeshError(f"{path}:{lineno}: malformed vertex line: {line!r}")
                try:
                    vertices.append([float(x) for x in parts[1:4]])
                except ValueError as exc:
                    raise MeshError(f"{path}:{lineno}: bad vertex coordinate: {line!r}") from exc
            elif tag == "f":
                if len(parts) < 4:
                    raise MeshError(f"{path}:{lineno}: face with fewer than 3 vertices")
                idx = []
                for tok in parts[1:]:
                    vtok = tok.split("/")[0]
                    try:
                        i = int(vtok)
                    except ValueError as exc:
                        raise MeshError(f"{path}:{lineno}: bad face index {tok!r}") from exc
                    # OBJ is 1-based; negative indices count from the end
                    idx.append(i - 1 if i > 0 else len(vertices) + i)
                for a, b in zip(idx[1:-1], idx[2:]):
                    faces.append([idx[0], a, b])
            # vn/vt/usemtl etc. are ignored
    if not vertices:
        raise MeshError(f"{path}: no vertices")
    if not faces:
        raise MeshError(f"{path}: no faces")
    return TriangleMesh(
        vertices=np.array(vertices, dtype=np.float64),
        triangles=np.array(faces, dtype=np.int64),
    )


def save_obj(mesh: TriangleMesh, path) -> None:
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


# ---------------------------------------------------------------------------
# Surface sampling


def _lattice(m: int) -> np.ndarray:
    """Barycentric (u, v) of the centroids of a triangle's m^2 congruent
    sub-triangles, (m^2, 2): row by row, each upward sub-triangle (i, j),
    (i+1, j), (i, j+1) followed by its downward neighbour when there is one."""
    i, j, down = np.indices((m, m, 2)).reshape(3, -1)
    keep = i + j + down < m
    return np.column_stack([3 * i + 1 + down, 3 * j + 1 + down])[keep] / (3 * m)


def sample_surface(mesh: TriangleMesh, pitch: float, drop_downward: float = 0.0) -> SampleSet:
    """Grid-sample every triangle at the given pitch.

    Each triangle is subdivided into m^2 congruent sub-triangles with m chosen
    so sub-triangle edges are at most `pitch`; one sample sits at each
    sub-triangle centroid and carries weight area/m^2. Samples whose face
    normal has z-component below -drop_downward are discarded. The lattice
    depends only on m, so each distinct m's lattice is built once; samples
    come triangle by triangle in mesh order.
    """
    if not 0 < pitch < math.inf:  # also rejects NaN
        raise ValueError("pitch must be a finite number > 0")
    tau = float(drop_downward)
    if not -1.0 <= tau <= 1.0:
        raise ValueError("drop_downward threshold must be in [-1, 1]")
    a, b, c = mesh.corners()
    ab, ac = b - a, c - a
    cross = np.cross(ab, ac)  # the expressions of face_normals() and areas()
    length = np.linalg.norm(cross, axis=1, keepdims=True)
    normals = cross / length
    kept = np.flatnonzero(normals[:, 2] >= -tau)
    if not kept.size:
        raise EmptySampleError(
            "all faces were filtered out (surface faces downward?); no target surface left"
        )
    longest = np.sqrt(np.max([(e * e).sum(axis=1) for e in (ab, c - b, ac)], axis=0))[kept]
    m = np.maximum(1, np.ceil(longest / pitch)).astype(np.int64)
    count = m * m  # samples per kept triangle
    tri = np.repeat(kept, count)  # the triangle of each sample
    levels, level_of = np.unique(m, return_inverse=True)
    table = np.concatenate([_lattice(level) for level in levels])  # level after level
    table_start = (np.cumsum(levels**2) - levels**2)[level_of]  # triangle's first table row
    sample_start = np.cumsum(count) - count  # triangle's first sample
    uv = table[np.repeat(table_start - sample_start, count) + np.arange(len(tri))]
    return SampleSet(
        positions=a[tri] + uv[:, :1] * ab[tri] + uv[:, 1:] * ac[tri],
        normals=normals[tri],
        weights=np.repeat(0.5 * length[kept, 0] / count, count),
    )


# ---------------------------------------------------------------------------
# Candidate grids


def _axis_points(lo: float, hi: float, pitch: float) -> np.ndarray:
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    n = int(math.floor((hi - lo) / pitch + 1e-9)) + 1
    return lo + pitch * np.arange(n)


def generate_candidates_plane(
    h: float, rect: tuple[float, float, float, float], pitch: float
) -> CandidateSet:
    """Regular grid on the plane z = h over rectangle (x0, y0, x1, y1)."""
    if not 0 < pitch < math.inf:  # also rejects NaN
        raise ValueError("pitch must be a finite number > 0")
    x0, y0, x1, y1 = rect
    xs = _axis_points(x0, x1, pitch)
    ys = _axis_points(y0, y1, pitch)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pos = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, float(h))])
    return CandidateSet(positions=pos)
