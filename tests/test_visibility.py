import dataclasses
import tracemalloc

import numpy as np
import pytest

import surfcover as sc
from surfcover.refine import _vis_columns
from surfcover.visibility import (
    LEAF_SIZE,
    PACKET_SEGMENTS,
    _segment_hits_triangles,
    _segments_occluded_impl,
    load_spvm,
    save_spvm,
    segment_occluded_brute,
    segments_occluded,
)

from conftest import box_mesh, make_sample_set, square_mesh


def single_triangle():
    return sc.TriangleMesh([[-1, -1, 1], [1, -1, 1], [0, 1, 1]], [[0, 1, 2]])


def test_single_leaf_tree():
    bvh = sc.build_bvh(single_triangle())
    assert (bvh.count > 0).sum() == 1
    assert bvh.n_triangles == 1


def test_root_box_is_mesh_bounds():
    mesh = box_mesh((0, 0, 0), (2, 3, 4))
    bvh = sc.build_bvh(mesh)
    lo, hi = mesh.bounds()
    assert np.allclose(bvh.boxes[0, 0, :, 0], lo)
    assert np.allclose(bvh.boxes[0, 1, :, 0], hi)


def test_leaves_partition_triangles():
    rng = np.random.default_rng(0)
    verts, tris = [], []
    for t in range(12):
        base = rng.uniform(0, 10, 3)
        verts += [base, base + [1, 0, 0], base + [0, 1, 0]]
        tris.append([3 * t, 3 * t + 1, 3 * t + 2])
    mesh = sc.TriangleMesh(np.array(verts), np.array(tris))
    bvh = sc.build_bvh(mesh)
    leaf_tris = []
    for n in range(len(bvh.count)):
        if bvh.count[n] > 0:
            assert bvh.count[n] <= LEAF_SIZE
            leaf_tris += bvh.tri_order[bvh.start[n] : bvh.start[n] + bvh.count[n]].tolist()
    assert (bvh.count > 0).sum() > 2
    assert sorted(leaf_tris) == list(range(12))


def test_segment_crosses_triangle():
    bvh = sc.build_bvh(single_triangle())
    assert sc.segment_occluded(bvh, (0, 0, 0), (0, 0, 2))


def test_segment_misses_triangle():
    bvh = sc.build_bvh(single_triangle())
    assert not sc.segment_occluded(bvh, (5, 5, 0), (5, 5, 2))


def test_endpoint_on_vertex_not_occluded():
    # leaving a vertex along the normal: eps shrinkage excludes the contact
    bvh = sc.build_bvh(single_triangle())
    assert not sc.segment_occluded(bvh, (-1, -1, 1), (-1, -1, 3))


def test_segment_symmetry():
    mesh = box_mesh((2, 2, 2), (4, 4, 4))
    bvh = sc.build_bvh(mesh)
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 6, (200, 3))
    b = rng.uniform(0, 6, (200, 3))
    fwd = segments_occluded(bvh, a, b)
    rev = segments_occluded(bvh, b, a)
    assert (fwd == rev).all()


def test_bvh_matches_brute_force(room_scene):
    mesh, bvh, *_ = room_scene
    rng = np.random.default_rng(2)
    a = rng.uniform([0, 0, 0], [6, 4, 3], (1000, 3))
    b = rng.uniform([0, 0, 0], [6, 4, 3], (1000, 3))
    fast = segments_occluded(bvh, a, b)
    slow = np.array([segment_occluded_brute(mesh, a[i], b[i]) for i in range(1000)])
    assert (fast == slow).all()


def test_unobstructed_matrix_all_ones():
    mesh = square_mesh()
    samples = sc.sample_surface(mesh, pitch=0.5)
    cands = sc.generate_candidates_plane(2.0, (0, 0, 1, 1), 0.5)
    vm = sc.visibility_matrix(sc.build_bvh(mesh), samples, cands)
    assert vm.bits.all()


def test_wall_blocks_everything():
    # target square at z=0, a big wall at z=1, candidates at z=2
    target = square_mesh()
    wall_v = [[-10, -10, 1], [10, -10, 1], [10, 10, 1], [-10, 10, 1]]
    verts = np.vstack([target.vertices, wall_v])
    tris = np.vstack([target.triangles, [[4, 5, 6], [4, 6, 7]]])
    occluders = sc.TriangleMesh(verts, tris)
    samples = sc.sample_surface(target, pitch=0.5)
    cands = sc.generate_candidates_plane(2.0, (0, 0, 1, 1), 0.5)
    vm = sc.visibility_matrix(sc.build_bvh(occluders), samples, cands)
    assert not vm.bits.any()


def test_room_matrix_matches_brute_force(room_scene):
    mesh, bvh, samples, candidates, vm = room_scene
    brute = np.zeros_like(vm.bits)
    for i in range(len(samples)):
        for j in range(len(candidates)):
            brute[i, j] = not segment_occluded_brute(
                mesh, samples.positions[i], candidates.positions[j]
            )
    assert (vm.bits == brute).all()


def test_matrix_deterministic(room_scene):
    _, bvh, samples, candidates, vm = room_scene
    again = sc.visibility_matrix(bvh, samples, candidates)
    assert (again.bits == vm.bits).all()


def test_spvm_roundtrip(tmp_path, room_scene):
    *_, vm = room_scene
    p = tmp_path / "vis.spvm"
    save_spvm(vm, p)
    back = load_spvm(p)
    assert (back.bits == vm.bits).all()
    assert back.sample_hash == vm.sample_hash
    assert back.candidate_hash == vm.candidate_hash
    assert p.read_bytes()[:4] == b"SPVM"


def test_spvm_v2_keeps_mesh_hash_and_v1_still_loads(tmp_path, room_scene):
    mesh, *_, vm = room_scene
    for mesh_hash, version in ((None, 1), (mesh.content_hash(), 2)):
        p = tmp_path / f"v{version}.spvm"
        save_spvm(dataclasses.replace(vm, mesh_hash=mesh_hash), p)
        assert int.from_bytes(p.read_bytes()[4:8], "little") == version
        back = load_spvm(p)
        assert back.mesh_hash == mesh_hash
        assert (back.bits == vm.bits).all()


def test_hash_guard_rejects_mismatched_inputs(room_scene):
    _, _, samples, candidates, vm = room_scene
    other = sc.generate_candidates_plane(1.5, (0, 0, 2, 2), 1.0)
    with pytest.raises(ValueError, match="re-run"):
        vm.check_consistent(samples, other)


def packet_scene(n, m):
    """Room with two boxes, n seeded samples on its floor, m candidates at z = 2.5."""
    mesh = sc.gen_room(extent=(6, 4, 3), obstacles=[((1, 1, 0), (3, 2.2, 0.7)),
                                                     ((4.5, 0.5, 0), (5.5, 3.5, 1.1))])
    rng = np.random.default_rng(7)
    floor = np.column_stack([rng.uniform(0, 6, n), rng.uniform(0, 4, n), np.zeros(n)])
    plane = np.column_stack([rng.uniform(0.5, 5.5, m), rng.uniform(0.5, 3.5, m), np.full(m, 2.5)])
    return mesh, sc.build_bvh(mesh), make_sample_set(floor), sc.CandidateSet(plane)


@pytest.fixture(scope="module")
def three_packets():
    """N x M spans more than three packets and is not a multiple of the packet size."""
    m = 7
    n = 3 * PACKET_SEGMENTS // m + 5
    assert n * m > 3 * PACKET_SEGMENTS and (n * m) % PACKET_SEGMENTS
    mesh, bvh, samples, cands = packet_scene(n, m)
    return bvh, samples, cands, sc.visibility_matrix(bvh, samples, cands)


def test_matrix_packets_match_column_by_column(three_packets):
    bvh, samples, cands, vm = three_packets
    n = len(samples)
    ref = np.column_stack([
        ~segments_occluded(bvh, samples.positions, np.repeat(c[None], n, axis=0))
        for c in cands.positions
    ])
    assert vm.bits.shape == ref.shape
    assert (vm.bits == ref).all()
    assert 0 < vm.bits.sum() < vm.bits.size


def test_matrix_bits_are_c_contiguous(three_packets):
    assert three_packets[3].bits.flags.c_contiguous


def test_refine_columns_match_matrix(three_packets):
    bvh, samples, cands, vm = three_packets
    assert (_vis_columns(bvh, samples, cands.positions) == vm.bits).all()


def test_packet_mixing_axis_aligned_and_oblique_segments_matches_brute():
    mesh = sc.gen_room(extent=(6, 4, 3), obstacles=[((1, 1, 0), (3, 2, 1))])
    bvh = sc.build_bvh(mesh)
    rng = np.random.default_rng(3)
    # half-metre grid points: many lie on the planes of the obstacle's faces
    a = rng.integers(0, [13, 9, 7], (600, 3)) * 0.5
    b = rng.integers(0, [13, 9, 7], (600, 3)) * 0.5
    keep = rng.random((600, 3)) < 0.4
    b[:300][keep[:300]] = a[:300][keep[:300]]  # zero direction components
    b[300:] += rng.uniform(-0.2, 0.2, (300, 3))  # oblique
    ok = np.linalg.norm(b - a, axis=1) > 0
    a, b = a[ok], b[ok]
    assert ((b - a) == 0).any(axis=1).sum() > 100
    fast = segments_occluded(bvh, a, b)
    slow = np.array([segment_occluded_brute(mesh, p, q) for p, q in zip(a, b)])
    assert (fast == slow).all()
    assert 0 < fast.sum() < len(fast)


def test_negative_zero_directions_and_flat_leaf_boxes_match_brute():
    # a floor and a ceiling split first along z, so every leaf box is flat in
    # z; origins sit on those planes and on the leaf boxes' x and y planes
    quads = [(x, y, z) for z in (0.0, 4.0) for x in range(3) for y in range(3)]
    verts, tris = [], []
    for x, y, z in quads:
        i = len(verts)
        verts += [(x, y, z), (x + 1, y, z), (x + 1, y + 1, z), (x, y + 1, z)]
        tris += [(i, i + 1, i + 2), (i, i + 2, i + 3)]
    mesh = sc.TriangleMesh(np.array(verts, float), np.array(tris))
    bvh = sc.build_bvh(mesh)
    leaf = bvh.count > 0
    assert (bvh.boxes[leaf, 0, 2] == bvh.boxes[leaf, 1, 2]).all()
    rng = np.random.default_rng(11)
    o = rng.integers(0, [7, 7, 9], (800, 3)) * 0.5
    o[:400, 2] = rng.choice([0.0, 4.0], 400)  # on the flat boxes' planes
    d = rng.integers(-2, 3, (800, 3)) * 0.5
    o, d = o[(d != 0).any(axis=1)], d[(d != 0).any(axis=1)]
    # b - a never gives -0.0, so the walk gets these directions directly
    neg = np.where((d == 0) & (rng.random(d.shape) < 0.5), -0.0, d)
    assert (np.signbit(neg) & (neg == 0)).any(axis=1).sum() > 100
    corners = mesh.corners()
    oracle = np.array([_segment_hits_triangles(p, q, *corners).any() for p, q in zip(o, neg)])
    assert (_segments_occluded_impl(bvh, o, neg) == oracle).all()
    assert (_segments_occluded_impl(bvh, o, d) == oracle).all()
    assert 0 < oracle.sum() < len(oracle)
    fast = segments_occluded(bvh, o, o + d)
    slow = np.array([segment_occluded_brute(mesh, p, p + q) for p, q in zip(o, d)])
    assert (fast == slow).all()


def test_matrix_memory_is_bounded_by_the_packet():
    n = PACKET_SEGMENTS // 2 + 101  # N x 4 already spans three packets
    mesh, bvh, samples, cands = packet_scene(n, 16)
    peaks = []
    for m in (4, 16):
        tracemalloc.start()
        try:
            sc.visibility_matrix(bvh, samples, sc.CandidateSet(cands.positions[:m]))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]
