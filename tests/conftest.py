import numpy as np
import pytest

import surfcover as sc
from surfcover.visibility import segments_occluded


def box_mesh(lo=(0, 0, 0), hi=(1, 1, 1)):
    """Closed axis-aligned box with outward-facing normals."""
    from surfcover.scenes import _BOX_CORNERS, _BOX_FACES

    return sc.TriangleMesh(np.where(_BOX_CORNERS, np.asarray(hi, float), lo), _BOX_FACES)


def square_mesh(flip=False):
    """Unit square in z = 0, normal +z (or -z when flipped)."""
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    tris = [[0, 1, 2], [0, 2, 3]] if not flip else [[0, 2, 1], [0, 3, 2]]
    return sc.TriangleMesh(verts, tris)


def all_visible(samples, candidates):
    """Visibility matrix of all ones (the relaxed-visibility setting)."""
    return sc.VisibilityMatrix(
        bits=np.ones((len(samples), len(candidates)), dtype=bool),
        sample_hash=samples.content_hash(),
        candidate_hash=candidates.content_hash(),
    )


def segment_occluded(bvh, a, b) -> bool:
    """True iff the shrunk open segment from a to b hits any mesh triangle."""
    return bool(segments_occluded(bvh, [a], [b])[0])


def with_panel(room):
    """`room` (6 x 4 x 3) with a panel at z = 2.5, just under the candidate
    plane, that shades the floor and the furniture."""
    n = len(room.vertices)
    panel = [[0.1, 0.1, 2.5], [5.9, 0.1, 2.5], [5.9, 3.9, 2.5], [0.1, 3.9, 2.5]]
    return sc.TriangleMesh(
        np.vstack([room.vertices, panel]),
        np.vstack([room.triangles, [[n, n + 1, n + 2], [n, n + 2, n + 3]]]),
    )


def spvm_version1(v2: bytes) -> bytes:
    """The bytes of an SPVM version-1 file, which no longer loads: a version-2
    file's with version 1 and without the mesh hash (header bytes 40-48)."""
    return v2[:4] + (1).to_bytes(4, "little") + v2[8:40] + v2[48:]


def make_sample_set(positions, normals=None, weights=None):
    positions = np.asarray(positions, float)
    n = len(positions)
    if normals is None:
        normals = np.tile([0.0, 0.0, 1.0], (n, 1))
    if weights is None:
        weights = np.ones(n)
    return sc.SampleSet(positions=positions, normals=normals, weights=weights)


@pytest.fixture(scope="session")
def room_scene():
    """Room with one box obstacle, sampled and with visibility precomputed."""
    mesh = sc.gen_room(extent=(6, 4, 3), obstacles=[((2, 1.5, 0), (3.5, 2.5, 1.0))])
    samples = sc.sample_surface(mesh, pitch=0.7)
    candidates = sc.generate_candidates_plane(2.8, (0.5, 0.5, 5.5, 3.5), 1.0)
    bvh = sc.build_bvh(mesh)
    vm = sc.visibility_matrix(bvh, samples, candidates)
    return mesh, bvh, samples, candidates, vm
