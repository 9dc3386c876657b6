import json
import math

import numpy as np
import pytest

import surfcover as sc
from surfcover.mesh import EmptySampleError, MeshError, load_candidate_set, load_sample_set, save_json

from conftest import box_mesh, make_sample_set, square_mesh


def test_load_obj_minimal(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = sc.load_obj(p)
    assert len(mesh.vertices) == 3
    assert mesh.n_triangles == 1


def test_load_obj_index_out_of_range(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(MeshError, match=r"faces \[0\]"):
        sc.load_obj(p)


def test_load_obj_degenerate_face(tmp_path):
    p = tmp_path / "degen.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
    with pytest.raises(MeshError, match="degenerate"):
        sc.load_obj(p)


def test_load_obj_quad_fan(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = sc.load_obj(p)
    assert mesh.n_triangles == 2


def test_save_load_roundtrip(tmp_path):
    mesh = box_mesh()
    p = tmp_path / "box.obj"
    sc.save_obj(mesh, p)
    back = sc.load_obj(p)
    assert np.allclose(back.vertices, mesh.vertices)
    assert (back.triangles == mesh.triangles).all()


def test_sample_square():
    s = sc.sample_surface(square_mesh(), pitch=0.5, drop_downward=0.0)
    assert np.allclose(s.normals, [0, 0, 1])
    assert s.weights.sum() == pytest.approx(1.0)


def test_sample_flipped_square_all_filtered():
    with pytest.raises(EmptySampleError):
        sc.sample_surface(square_mesh(flip=True), pitch=0.5, drop_downward=0.0)


def test_sample_cube_drops_bottom():
    s = sc.sample_surface(box_mesh(), pitch=0.25, drop_downward=0.0)
    assert s.weights.sum() == pytest.approx(5.0, abs=1e-9)
    assert not (s.normals[:, 2] < 0).any()


def test_weights_sum_to_retained_area():
    mesh = sc.gen_terrain(seed=3, cells=4, amplitude=0.4)
    s = sc.sample_surface(mesh, pitch=0.8)
    assert s.weights.sum() == pytest.approx(mesh.areas().sum(), rel=1e-6)


def test_sampling_deterministic():
    mesh = sc.gen_terrain(seed=7, cells=4, amplitude=0.2)
    s1 = sc.sample_surface(mesh, pitch=0.9)
    s2 = sc.sample_surface(mesh, pitch=0.9)
    assert (s1.positions == s2.positions).all()
    assert (s1.weights == s2.weights).all()


def test_halving_pitch_at_least_doubles_samples():
    mesh = sc.gen_terrain(seed=1, cells=3, amplitude=0.3)
    n1 = len(sc.sample_surface(mesh, pitch=1.5))
    n2 = len(sc.sample_surface(mesh, pitch=0.75))
    assert n2 >= 2 * n1


def sample_surface_per_triangle_ref(mesh, pitch, drop_downward):
    """The per-triangle loop that the per-level lattice replaced: the same
    lattice order, level rule and weights, one triangle at a time."""
    normals, areas = mesh.face_normals(), mesh.areas()
    positions, out_normals, weights = [], [], []
    for t, (a, b, c) in enumerate(zip(*mesh.corners())):
        if normals[t, 2] < -drop_downward:
            continue
        longest = max(np.linalg.norm(b - a), np.linalg.norm(c - b), np.linalg.norm(a - c))
        m = max(1, math.ceil(longest / pitch))
        uv = []
        for i in range(m):
            for j in range(m - i):
                uv.append(((3 * i + 1) / (3 * m), (3 * j + 1) / (3 * m)))
                if i + j <= m - 2:
                    uv.append(((3 * i + 2) / (3 * m), (3 * j + 2) / (3 * m)))
        uv = np.array(uv)
        positions.append(a + uv[:, :1] * (b - a) + uv[:, 1:] * (c - a))
        out_normals.append(np.repeat(normals[t : t + 1], len(uv), axis=0))
        weights.append(np.full(len(uv), areas[t] / len(uv)))
    return np.concatenate(positions), np.concatenate(out_normals), np.concatenate(weights)


def _reference_meshes():
    rng = np.random.default_rng(31)
    lo = rng.uniform(0.3, 2.0, (2, 3)) * [1.0, 1.0, 0.0] + [[0.0, 0.0, 0.0], [2.6, 1.4, 0.0]]
    obstacles = [(tuple(b), tuple(b + rng.uniform(0.4, 1.3, 3))) for b in lo]
    yield sc.gen_room(extent=(6.0, 4.0, 3.0), obstacles=obstacles), 0.65  # jittered room
    yield sc.gen_room(extent=(6, 4, 3), obstacles=[((2, 1.5, 0), (3.5, 2.5, 1.0))]), 0.7  # criterion 5
    yield sc.gen_terrain(seed=4, cells=12, amplitude=1.1), 0.35
    yield box_mesh(lo=(0.1, -0.2, 0.3), hi=(1.7, 0.9, 2.2)), 0.4
    for scale, pitch in ((0.1, 0.02), (1.0, 0.5), (1.0, 0.25), (10.0, 3.0)):
        vertices = rng.normal(size=(12, 3)) * scale
        vertices[:4] = np.round(vertices[:4] / pitch) * pitch  # edges at pitch multiples
        triangles = np.array([rng.choice(12, 3, replace=False) for _ in range(20)])
        yield sc.TriangleMesh(vertices, triangles), pitch


@pytest.mark.parametrize("tau", [0.0, 0.5, -0.3])
def test_sample_surface_matches_per_triangle_loop(tau):
    for mesh, pitch in _reference_meshes():
        ref = sample_surface_per_triangle_ref(mesh, pitch, tau)
        s = sc.sample_surface(mesh, pitch, drop_downward=tau)
        # bytes, not np.array_equal, which takes -0.0 for 0.0: the normals and
        # weights must be face_normals() and areas() / m^2 bit for bit
        for got, want in zip((s.positions, s.normals, s.weights), ref):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pitch", [np.nan, np.inf, 0.0, -1.0])
def test_a_pitch_that_is_not_a_finite_positive_number_is_refused(pitch):
    with pytest.raises(ValueError, match=r"^pitch must be a finite number > 0$"):
        sc.sample_surface(square_mesh(), pitch)
    with pytest.raises(ValueError, match=r"^pitch must be a finite number > 0$"):
        sc.generate_candidates_plane(2.0, (0, 0, 1, 1), pitch)


def test_candidates_plane_grid():
    c = sc.generate_candidates_plane(2.0, (0, 0, 1, 1), 0.5)
    assert len(c) == 9
    assert (c.positions[:, 2] == 2.0).all()


def test_candidates_point_rectangle():
    c = sc.generate_candidates_plane(2.0, (0, 0, 0, 0), 0.5)
    assert len(c) == 1
    assert np.allclose(c.positions[0], [0, 0, 2])


def test_candidate_duplicates_merged():
    c = sc.CandidateSet(positions=[[0, 0, 1], [1, 0, 1], [0, 0, 1]])
    assert len(c) == 2
    assert np.allclose(c.positions[0], [0, 0, 1])


def test_sample_set_json_roundtrip(tmp_path):
    s = sc.sample_surface(square_mesh(), pitch=0.5)
    p = tmp_path / "s.json"
    save_json(s, p)
    back = load_sample_set(p)
    assert (back.positions == s.positions).all()
    assert back.content_hash() == s.content_hash()
    assert json.loads(p.read_text())["format_version"] == 1


def test_candidate_set_json_roundtrip(tmp_path):
    c = sc.generate_candidates_plane(2.0, (0, 0, 1, 1), 0.5)
    p = tmp_path / "c.json"
    save_json(c, p)
    back = load_candidate_set(p)
    assert back.content_hash() == c.content_hash()
    assert list(json.loads(p.read_text())) == ["format_version", "kind", "positions"]


def test_files_in_the_older_layout_still_load(tmp_path):
    # earlier writers put a `# name` line in OBJ files, `grid_pitch` in sample
    # files and `region_kind` in candidate files; readers ignore all three
    room = sc.gen_room(extent=(6, 4, 3), obstacles=[((1, 1, 0), (3, 2.2, 0.7))])
    samples = sc.sample_surface(room, pitch=0.5)
    cands = sc.generate_candidates_plane(2.8, (0.5, 0.5, 5.5, 3.5), 0.8)
    obj = tmp_path / "room.obj"
    sc.save_obj(room, obj)
    obj.write_text("# room\n" + obj.read_text())
    s, c = tmp_path / "samples.json", tmp_path / "cands.json"
    s.write_text(json.dumps({
        "format_version": 1, "kind": "sample_set", "grid_pitch": 0.5,
        "positions": samples.positions.tolist(), "normals": samples.normals.tolist(),
        "weights": samples.weights.tolist(),
    }))
    c.write_text(json.dumps({
        "format_version": 1, "kind": "candidate_set", "region_kind": "plane-at-height",
        "positions": cands.positions.tolist(),
    }))
    assert sc.load_obj(obj).content_hash() == room.content_hash()
    assert load_sample_set(s).content_hash() == samples.content_hash()
    assert load_candidate_set(c).content_hash() == cands.content_hash()


def test_mesh_rejects_nonfinite():
    with pytest.raises(MeshError):
        sc.TriangleMesh([[0, 0, 0], [1, 0, 0], [0, np.nan, 0]], [[0, 1, 2]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_sets_reject_nonfinite_coordinates(bad):
    with pytest.raises(MeshError, match="finite"):
        sc.CandidateSet(positions=[[0, 0, 1], [bad, 0, 1]])
    with pytest.raises(MeshError, match="finite"):
        make_sample_set([[0, 0, 0], [1, bad, 0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_sample_weights_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="weights"):
        make_sample_set([[0, 0, 0], [1, 0, 0]], weights=[1.0, bad])
