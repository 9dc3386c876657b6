import numpy as np
import pytest

import surfcover as sc
from surfcover.visibility import segment_occluded_brute

from conftest import segment_occluded


def test_flat_terrain_normals_up():
    mesh = sc.gen_terrain(seed=0, cells=4, amplitude=0.0)
    assert np.allclose(mesh.face_normals(), [0, 0, 1])


def test_terrain_deterministic():
    a = sc.gen_terrain(seed=42, cells=6, amplitude=0.5)
    b = sc.gen_terrain(seed=42, cells=6, amplitude=0.5)
    assert (a.vertices == b.vertices).all()
    assert (a.triangles == b.triangles).all()


def test_terrain_triangles_match_per_cell_loop():
    for cells in (1, 2, 7, 20):
        ref = []
        for i in range(cells):
            for j in range(cells):
                v00, v10 = i * (cells + 1) + j, (i + 1) * (cells + 1) + j
                ref += [[v00, v10, v10 + 1], [v00, v10 + 1, v00 + 1]]
        assert np.array_equal(sc.gen_terrain(seed=0, cells=cells).triangles, ref)


def test_terrain_amplitude_bound():
    mesh = sc.gen_terrain(seed=1, cells=10, amplitude=0.7)
    assert np.abs(mesh.vertices[:, 2]).max() <= 4 * 0.7 + 1e-12


def test_terrain_passes_validation():
    # TriangleMesh construction rejects degenerate faces; reaching here is the test
    mesh = sc.gen_terrain(seed=2, cells=8, amplitude=1.0)
    assert mesh.n_triangles == 2 * 8 * 8


def test_room_shell_only():
    mesh = sc.gen_room(extent=(6, 4, 3))
    assert mesh.n_triangles == 12


def test_room_obstacle_outside_rejected():
    with pytest.raises(ValueError, match="outside"):
        sc.gen_room(extent=(6, 4, 3), obstacles=[((5, 3, 0), (7, 4, 1))])


def test_room_overlapping_obstacles_rejected():
    with pytest.raises(ValueError, match="overlap"):
        sc.gen_room(
            extent=(6, 4, 3),
            obstacles=[((1, 1, 0), (3, 3, 1)), ((2, 2, 0), (4, 3.5, 1))],
        )


def test_room_shell_normals_face_interior():
    mesh = sc.gen_room(extent=(6, 4, 3))
    center = np.array([3.0, 2.0, 1.5])
    a, b, c = mesh.corners()
    centroids = (a + b + c) / 3
    normals = mesh.face_normals()
    # every shell face normal points toward the room center
    assert (np.einsum("ij,ij->i", normals, center - centroids) > 0).all()


def test_room_obstacle_occludes_samples_behind_it():
    mesh = sc.gen_room(extent=(6, 4, 3), obstacles=[((2.5, 1.5, 0), (3.5, 2.5, 2.0))])
    bvh = sc.build_bvh(mesh)
    corner = np.array([0.3, 0.3, 2.7])
    behind = np.array([5.0, 3.2, 0.05])  # floor point shadowed by the tall box
    assert segment_occluded(bvh, behind, corner)
    assert segment_occluded(bvh, behind, corner) == segment_occluded_brute(
        mesh, behind, corner
    )


def test_room_obj_roundtrip(tmp_path):
    mesh = sc.gen_room(extent=(6, 4, 3), obstacles=[((1, 1, 0), (2, 2, 1))])
    p = tmp_path / "room.obj"
    sc.save_obj(mesh, p)
    back = sc.load_obj(p)
    assert back.n_triangles == mesh.n_triangles
    assert np.allclose(back.vertices, mesh.vertices)


def test_room_sampling_drops_ceiling():
    mesh = sc.gen_room(extent=(6, 4, 3))
    samples = sc.sample_surface(mesh, pitch=0.8, drop_downward=0.0)
    # ceiling faces point down into the room and are filtered at tau = 0;
    # floor (normal up) and walls (normal horizontal) remain: 6*4 + 2*(6*3 + 4*3)
    assert samples.weights.sum() == pytest.approx(24 + 2 * (18 + 12), rel=1e-9)
