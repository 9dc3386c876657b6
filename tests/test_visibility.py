import dataclasses
import functools
import struct
import tracemalloc

import numpy as np
import pytest

import surfcover as sc
from surfcover import visibility
from surfcover.refine import _visible_pairs
from surfcover.visibility import (
    LEAF_SIZE,
    PACKET_SEGMENTS,
    Bvh,
    _segment_hits_triangles,
    _segments_occluded_impl,
    _shrunk,
    _slab_hits,
    _triangle_hits,
    load_spvm,
    save_spvm,
    segment_occluded_brute,
    segments_occluded,
)

from _bvh_reference import reference_build_bvh
from conftest import (
    box_mesh,
    make_sample_set,
    segment_occluded,
    spvm_version1,
    square_mesh,
    with_panel,
)


def bounds(mesh):
    """The lo and hi corners of the mesh's vertices."""
    return mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)


def single_triangle():
    return sc.TriangleMesh([[-1, -1, 1], [1, -1, 1], [0, 1, 1]], [[0, 1, 2]])


def stacked_triangles(n):
    """n copies of the single triangle at z = 1, 2, ..., n."""
    tri = single_triangle()
    return sc.TriangleMesh(
        np.vstack([tri.vertices + [0, 0, z] for z in range(n)]), np.arange(3 * n).reshape(n, 3)
    )


def thirteen_triangles():
    """13 seeded small triangles in a 10 m cube: leaves of 3, 3, 3 and 4."""
    rng = np.random.default_rng(0)
    verts, tris = [], []
    for t in range(13):
        base = rng.uniform(0, 10, 3)
        verts += [base, base + [1, 0, 0], base + [0, 1, 0]]
        tris.append([3 * t, 3 * t + 1, 3 * t + 2])
    return sc.TriangleMesh(np.array(verts), np.array(tris))


def test_single_leaf_tree():
    bvh = sc.build_bvh(single_triangle())
    assert (bvh.left < 0).sum() == 1
    assert (bvh.tri_order >= 0).sum() == 1


def test_root_box_is_mesh_bounds():
    mesh = box_mesh((0, 0, 0), (2, 3, 4))
    bvh = sc.build_bvh(mesh)
    lo, hi = bounds(mesh)
    assert np.allclose(bvh.boxes[0, 0, :, 0], lo)
    assert np.allclose(bvh.boxes[0, 1, :, 0], hi)


def test_leaves_partition_triangles():
    mesh = thirteen_triangles()
    bvh = sc.build_bvh(mesh)
    n_leaves = bvh.leaf_boxes.shape[0]
    assert bvh.tri.shape == (3, 3, 4, n_leaves)
    assert bvh.tri_order.shape == (4, n_leaves)
    for n in range(len(bvh.count)):
        if bvh.left[n] < 0:  # a leaf is a range of one leaf, in leaf order
            assert bvh.count[n] == 1
            assert (bvh.leaf_boxes[bvh.start[n]] == bvh.boxes[n]).all()
        else:  # an internal node's range is its children's, joined in order
            lc = bvh.left[n]
            assert bvh.start[lc] == bvh.start[n]
            assert bvh.start[lc + 1] == bvh.start[n] + bvh.count[lc]
            assert bvh.count[lc] + bvh.count[lc + 1] == bvh.count[n]
    assert (bvh.left < 0).sum() == n_leaves > 2
    assert bvh.count[0] == n_leaves
    used = bvh.tri_order >= 0
    assert used[0].all() and (used[:-1] >= used[1:]).all()  # a leaf fills its first slots
    assert sorted(used.sum(axis=0).tolist()) == [3, 3, 3, 4]
    assert sorted(bvh.tri_order[used].tolist()) == list(range(13))
    assert (bvh.tri_order >= 0).sum() == 13
    a, b, c = mesh.corners()
    tris = bvh.tri_order[used]
    assert (bvh.tri[:, :, used] == np.stack([a, b - a, c - a])[:, tris].transpose(0, 2, 1)).all()
    assert (bvh.tri[:, :, ~used] == 0).all()  # the unused slots hold zero triangles


def test_leaves_have_as_many_slots_as_the_fullest_leaf_holds(room_scene):
    # the room's 24 triangles make eight leaves of 3: no slot is left unused
    bvh = room_scene[1]
    assert bvh.tri_order.shape == (3, 8) and (bvh.tri_order >= 0).all()
    assert bvh.tri.shape == (3, 3, 3, 8)


def test_segment_crosses_triangle():
    bvh = sc.build_bvh(single_triangle())
    assert segment_occluded(bvh, (0, 0, 0), (0, 0, 2))


def test_segment_misses_triangle():
    bvh = sc.build_bvh(single_triangle())
    assert not segment_occluded(bvh, (5, 5, 0), (5, 5, 2))


def test_endpoint_on_vertex_not_occluded():
    # leaving a vertex along the normal: eps shrinkage excludes the contact
    bvh = sc.build_bvh(single_triangle())
    assert not segment_occluded(bvh, (-1, -1, 1), (-1, -1, 3))


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
    assert back.mesh_hash == vm.mesh_hash
    assert p.read_bytes()[:4] == b"SPVM"
    assert int.from_bytes(p.read_bytes()[4:8], "little") == 2


@pytest.mark.parametrize("scene", ["triangle", "box", "room", "room with panel"])
def test_a_computed_matrix_records_its_mesh(scene, room_scene):
    room = room_scene[0]
    mesh = {"triangle": single_triangle(), "box": box_mesh(), "room": room,
            "room with panel": with_panel(room)}[scene]
    samples = make_sample_set([[0.5, 0.5, -1.0], [0.2, 0.7, 2.0]])
    cands = sc.CandidateSet(np.array([[0.4, 0.3, 5.0], [3.0, 2.0, 2.8]]))
    vm = sc.visibility_matrix(sc.build_bvh(mesh), samples, cands)
    assert vm.mesh_hash == mesh.content_hash()
    vm.check_consistent(samples, cands, mesh)
    for other in (square_mesh(), with_panel(mesh)):
        with pytest.raises(ValueError, match="another mesh"):
            vm.check_consistent(samples, cands, other)
    with pytest.raises(ValueError, match="another mesh"):  # bits built by hand name no mesh
        dataclasses.replace(vm, mesh_hash=None).check_consistent(samples, cands, mesh)


def test_spvm_version_1_is_refused(tmp_path, room_scene):
    *_, vm = room_scene
    p = tmp_path / "v1.spvm"
    save_spvm(vm, p)
    p.write_bytes(spvm_version1(p.read_bytes()))
    with pytest.raises(ValueError, match="unsupported SPVM version 1"):
        load_spvm(p)


def test_a_matrix_without_a_mesh_is_not_saved(tmp_path, room_scene):
    *_, vm = room_scene
    p = tmp_path / "hand.spvm"
    with pytest.raises(ValueError, match="mesh hash"):
        save_spvm(dataclasses.replace(vm, mesh_hash=None), p)
    assert not p.exists()


@pytest.mark.parametrize("n, m", [(2**40, 1), (2**62, 2**62), (3, 9)])
def test_spvm_payload_must_match_its_header(tmp_path, n, m):
    # the payload's length is checked against the header's N x ceil(M/8),
    # so a corrupt header raises ValueError, not MemoryError or OverflowError
    p = tmp_path / "bad.spvm"
    p.write_bytes(b"SPVM" + struct.pack("<I5Q", 2, n, m, 0, 0, 0) + bytes(5))
    with pytest.raises(ValueError, match="payload"):
        load_spvm(p)


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
    cols = _visible_pairs(bvh, samples, cands.positions)
    assert cols.shape == vm.bits.shape and (cols == vm.bits).all()


def test_listed_pairs_match_matrix(three_packets):
    # the pairs a mask sets, more than one packet of them, read the matrix's
    # bits; every other pair reads False
    bvh, samples, cands, vm = three_packets
    mask = np.zeros(vm.bits.shape, bool)
    picked = np.random.default_rng(11).permutation(mask.size)[: 2 * PACKET_SEGMENTS + 9]
    mask.flat[picked] = True
    seen = _visible_pairs(bvh, samples, cands.positions, mask)
    assert (seen == (vm.bits & mask)).all() and (seen & mask).any()
    empty = _visible_pairs(bvh, samples, cands.positions, mask & False)
    assert empty.shape == mask.shape and not empty.any()


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


def unit_quads(corners):
    """Unit squares in planes z = constant, one at each (x, y, z) low corner,
    each cut into two triangles along the same diagonal."""
    verts, tris = [], []
    for x, y, z in corners:
        i = len(verts)
        verts += [(x, y, z), (x + 1, y, z), (x + 1, y + 1, z), (x, y + 1, z)]
        tris += [(i, i + 1, i + 2), (i, i + 2, i + 3)]
    return sc.TriangleMesh(np.array(verts, float), np.array(tris))


def floor_and_ceiling():
    """3 x 3 unit quads at z = 0 and z = 4: the tree splits first along z, so
    every leaf box is flat in z."""
    return unit_quads([(x, y, z) for z in (0.0, 4.0) for x in range(3) for y in range(3)])


def test_negative_zero_directions_and_flat_leaf_boxes_match_brute():
    # origins sit on the flat leaf boxes' z planes and on their x and y planes
    mesh = floor_and_ceiling()
    bvh = sc.build_bvh(mesh)
    leaf = bvh.left < 0
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


@np.errstate(divide="ignore", invalid="ignore")
def segments_occluded_per_leaf_ref(bvh, o, d):
    """The walk without collapsed subtrees: every internal node slab-tests both
    children, every leaf runs Moller-Trumbore on the segments that reached it."""
    occluded = np.zeros(len(o), dtype=bool)
    ray = np.stack([o, 1.0 / d, d]).transpose(0, 2, 1)
    stack = [(0, np.flatnonzero(_slab_hits(bvh.boxes[:1], ray[:2])[0]))]
    while stack:
        node, act = stack.pop()
        lc = bvh.left[node]
        if lc >= 0:
            hit = _slab_hits(bvh.boxes[lc : lc + 2], ray[:2][..., act])
            stack += [(lc, act[hit[0]]), (lc + 1, act[hit[1]])]
            continue
        leaf_tri = bvh.tri[..., bvh.start[node], None]
        occluded[act[_triangle_hits(ray[::2][..., act], leaf_tri).any(axis=0)]] = True
    return occluded


def terrain_800():
    return sc.gen_terrain(3, extent=(10.0, 10.0), cells=20, amplitude=1.2)


def office_room():
    """The unjittered office: walls on round coordinates, 60 triangles."""
    return sc.gen_room(extent=(10.0, 8.0, 3.0), obstacles=[
        ((1.5, 1.5, 0.0), (3.0, 2.5, 1.6)), ((6.0, 1.0, 0.0), (7.5, 2.0, 2.0)),
        ((2.0, 5.0, 0.0), (3.5, 6.5, 1.5)), ((6.5, 5.0, 0.0), (8.0, 6.0, 2.2)),
    ])


def hard_segments(mesh, rng, n):
    """Shrunk random, half-metre grid and vertex-to-vertex segments around the
    mesh, as origins and directions; half the zero direction components are -0.0."""
    lo, hi = bounds(mesh)
    lo, hi = lo - 0.5, hi + 0.5
    grid = np.round(rng.uniform(lo, hi, (2, n, 3)) * 2) / 2
    same = rng.random((n, 3)) < 0.4
    grid[1][same] = grid[0][same]
    vert = mesh.vertices[rng.integers(0, len(mesh.vertices), (2, n))]
    a = np.vstack([rng.uniform(lo, hi, (n, 3)), grid[0], vert[0]])
    b = np.vstack([rng.uniform(lo, hi, (n, 3)), grid[1], vert[1]])
    keep = (a != b).any(axis=1)
    o, d = _shrunk(a[keep], b[keep])
    assert (d == 0).any(axis=1).sum() > n // 2
    return o, np.where((d == 0) & (rng.random(d.shape) < 0.5), -0.0, d)


@pytest.mark.parametrize("make", [terrain_800, office_room])
def test_collapsed_subtrees_give_the_per_leaf_walks_bits(make, monkeypatch):
    mesh = make()
    bvh = sc.build_bvh(mesh)
    o, d = hard_segments(mesh, np.random.default_rng(5), 3000)
    ref = segments_occluded_per_leaf_ref(bvh, o, d)
    assert 0.05 < ref.mean() < 0.95
    calls = []

    def slab(box, r):
        hit = _slab_hits(box, r)
        calls.append(("slab", box, hit))
        return hit

    def triangles(r, tri):
        calls.append(("triangles", r, tri))
        return _triangle_hits(r, tri)

    monkeypatch.setattr(visibility, "_slab_hits", slab)
    monkeypatch.setattr(visibility, "_triangle_hits", triangles)
    assert (_segments_occluded_impl(bvh, o, d) == ref).all()
    # Moller-Trumbore only runs where a leaf box was hit: a leaf step passes its
    # one leaf, whose box its parent tested, for all of its segments; a
    # collapsed step passes exactly the (leaf, segment) pairs whose leaf-box
    # slab test hit, one leaf per pair
    leaf_of = {bvh.tri[..., j].tobytes(): j for j in range(bvh.tri.shape[3])}
    tested = kept = 0
    for (kind, box, box_hit), (step, r, tri) in zip(calls, calls[1:]):
        if step != "triangles":
            continue
        leaves = [leaf_of[tri[..., k].tobytes()] for k in range(tri.shape[3])]
        # the pairs' own leaf boxes, (1, 2, 3, K) against their K segments
        pair_boxes = bvh.leaf_boxes[leaves][..., 0].transpose(1, 2, 0)[None]
        with np.errstate(divide="ignore", invalid="ignore"):
            assert _slab_hits(pair_boxes, np.stack([r[0], 1.0 / r[1]])).all()
        if kind == "slab" and np.shares_memory(box, bvh.leaf_boxes):  # a collapsed step
            assert len(leaves) == r.shape[2] == box_hit.sum()
            tested, kept = tested + box_hit.size, kept + len(leaves)
    assert 0 < kept < tested


def test_collapsed_subtrees_keep_the_visibility_matrix(monkeypatch):
    mesh = terrain_800()
    bvh = sc.build_bvh(mesh)
    samples = sc.sample_surface(mesh, pitch=1.0)
    cands = sc.generate_candidates_plane(3.0, (0.5, 0.5, 9.5, 9.5), 3.0)
    vm = sc.visibility_matrix(bvh, samples, cands)
    monkeypatch.setattr(visibility, "_segments_occluded_impl", segments_occluded_per_leaf_ref)
    ref = sc.visibility_matrix(bvh, samples, cands)
    assert (vm.bits == ref.bits).all()
    assert 0 < vm.bits.sum() < vm.bits.size


def benchmark_terrain(seed):
    """The terrain of the benchmark's terrain-visibility workload: 7,200
    triangles in 2,048 leaves."""
    return sc.gen_terrain(seed, extent=(10.0, 10.0), cells=60, amplitude=1.2)


def triangle_soup(seed, n):
    """n seeded triangles of random size and slant in a 10 m cube."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 10, (n, 1, 3))
    verts = (base + rng.normal(0, 1, (n, 3, 3)) * rng.uniform(0.1, 2.0, (n, 1, 1))).reshape(-1, 3)
    return sc.TriangleMesh(verts, np.arange(3 * n).reshape(n, 3))


DEEP_AND_SHALLOW = {
    **{f"benchmark terrain seed {seed}": functools.partial(benchmark_terrain, seed)
       for seed in range(3)},
    "soup of 1,500": functools.partial(triangle_soup, 1, 1500),
    "soup of 300": functools.partial(triangle_soup, 2, 300),
}


@pytest.mark.parametrize("scene", DEEP_AND_SHALLOW)
def test_both_packet_sizes_with_and_without_batches_give_the_per_leaf_walks_bits(
    scene, monkeypatch
):
    # a bit is the OR over the hit leaves of their Moller-Trumbore tests, so
    # neither the collapse budget nor queueing the collapsed steps' pairs may
    # change it; the benchmark terrain and the larger soup are deep trees
    mesh = DEEP_AND_SHALLOW[scene]()
    bvh = sc.build_bvh(mesh)
    deep = (2 * PACKET_SEGMENTS, PACKET_SEGMENTS // 2)
    assert (visibility.walk_shape(bvh) == deep) == (scene != "soup of 300")
    o, d = hard_segments(mesh, np.random.default_rng(41), 3000)
    ref = segments_occluded_per_leaf_ref(bvh, o, d)
    assert 0.05 < ref.mean() < 0.95
    runs = []

    def counted(r, tri):
        runs[-1] += 1
        return _triangle_hits(r, tri)

    monkeypatch.setattr(visibility, "_triangle_hits", counted)
    for budget in (PACKET_SEGMENTS, 2 * PACKET_SEGMENTS):
        for batch in (1, PACKET_SEGMENTS // 2):
            runs.append(0)
            monkeypatch.setattr(visibility, "walk_shape", lambda bvh: (budget, batch))
            assert (_segments_occluded_impl(bvh, o, d) == ref).all()
    assert runs[1] < runs[0] and runs[3] < runs[2]  # the batches ran fewer, larger steps


def test_the_deep_tree_walk_keeps_the_visibility_matrix(monkeypatch):
    # the benchmark terrain's matrix, in double packets with batches and in
    # the small trees' packets without: the same bits
    mesh = benchmark_terrain(0)
    bvh = sc.build_bvh(mesh)
    samples = sc.sample_surface(mesh, pitch=1.0)
    cands = sc.generate_candidates_plane(3.0, (0.5, 0.5, 9.5, 9.5), 4.5)
    walks = []
    walk = visibility._segments_occluded_impl

    def recorded(bvh, o, d):
        walks.append(len(o))
        return walk(bvh, o, d)

    monkeypatch.setattr(visibility, "_segments_occluded_impl", recorded)
    vm = sc.visibility_matrix(bvh, samples, cands)
    assert walks == [2 * PACKET_SEGMENTS] * 4 + [len(samples) * len(cands) - 8 * PACKET_SEGMENTS]
    monkeypatch.setattr(visibility, "walk_shape", lambda bvh: (PACKET_SEGMENTS, 1))
    assert (sc.visibility_matrix(bvh, samples, cands).bits == vm.bits).all()
    assert len(walks) == 5 + 9
    assert 0 < vm.bits.sum() < vm.bits.size


def test_the_deep_tree_walks_memory_is_bounded_by_the_packet():
    # the benchmark terrain against its 9 candidates and against 4 x as many:
    # the walk's working memory is one double packet's, whatever N x M is
    mesh = benchmark_terrain(0)
    bvh = sc.build_bvh(mesh)
    samples = sc.sample_surface(mesh, pitch=1.0)
    cands = sc.generate_candidates_plane(3.0, (0.5, 0.5, 9.5, 9.5), 4.5).positions
    shifted = np.vstack([cands + [dx, dy, 0.0] for dx in (0.0, 0.4) for dy in (0.0, 0.4)])
    peaks = []
    for positions in (cands, shifted):
        assert len(samples) * len(positions) > 4 * PACKET_SEGMENTS
        tracemalloc.start()
        try:
            sc.visibility_matrix(bvh, samples, sc.CandidateSet(positions))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_a_grazing_segment_keeps_the_per_leaf_walks_bit():
    # office sample 792 to candidate 13 crosses the shared edge of two triangles
    # exactly: Moller-Trumbore hits both, but the slab test of their leaf box
    # rounds to a miss. One segment collapses the whole tree at the root, where
    # only the leaf-box test keeps the walk's bit.
    mesh = office_room()
    bvh = sc.build_bvh(mesh)
    p = sc.sample_surface(mesh, pitch=0.7).positions[792]
    c = sc.generate_candidates_plane(2.8, (1.0, 1.0, 9.0, 7.0), 1.5).positions[13]
    o, d = _shrunk([p], [c])
    hit = _triangle_hits(np.stack([o.T, d.T]), bvh.tri[..., None])[..., 0]  # (slots, L)
    assert hit.sum() == 2
    with np.errstate(divide="ignore"):
        assert not _slab_hits(bvh.leaf_boxes[hit.any(axis=0)], np.stack([o.T, 1.0 / d.T])).any()
    assert (segments_occluded(bvh, [p], [c]) == segments_occluded_per_leaf_ref(bvh, o, d)).all()


@pytest.mark.parametrize("packet", [0, 10**9])  # every leaf on its own; the tree in one step
@pytest.mark.parametrize("scene", ["five triangles", "room"])
def test_unused_leaf_slots_never_hit(scene, packet, room_scene, monkeypatch):
    # the unused slots of leaves with fewer triangles than the fullest leaf
    # hold zero triangles at the origin; half the segments pass through it.
    # Five triangles make leaves of 2 and 3; the room's 24 triangles make
    # eight leaves of 3, so one more triangle makes a leaf of 4 and leaves
    # seven with an unused slot. The room is centred on the origin: segments
    # through its corner vertex graze every box there, which the box tests do
    # not yet widen for.
    if scene == "five triangles":
        mesh = stacked_triangles(5)
    else:
        room = room_scene[0]
        extra = [[1.0, 1.0, 2.0], [1.5, 1.0, 2.0], [1.0, 1.5, 2.0]]  # inside the room
        mesh = sc.TriangleMesh(
            np.vstack([room.vertices, extra]) - [3.0, 2.0, 1.5],
            np.vstack([room.triangles, np.arange(3) + len(room.vertices)]),
        )
    bvh = sc.build_bvh(mesh)
    unused = bvh.tri_order < 0
    assert unused.any()
    rng = np.random.default_rng(17)
    lo, hi = bounds(mesh)
    a = rng.uniform(lo - 1, hi + 1, (600, 3))
    through_origin = -a[:300] * rng.uniform(0.2, 3.0, (300, 1))
    b = np.vstack([through_origin, rng.uniform(lo - 1, hi + 1, (300, 3))])
    o, d = _shrunk(a, b)
    hit = _triangle_hits(np.stack([o.T, d.T]), bvh.tri[..., None])  # (slots, L, segments)
    assert not hit[unused].any() and hit.any()
    leaves_per_call = []

    def recorded(r, tri):
        leaves_per_call.append(tri.shape[3])
        return _triangle_hits(r, tri)

    monkeypatch.setattr(visibility, "PACKET_SEGMENTS", packet)
    monkeypatch.setattr(visibility, "_triangle_hits", recorded)
    fast = _segments_occluded_impl(bvh, o, d)
    brute = np.array([segment_occluded_brute(mesh, p, q) for p, q in zip(a, b)])
    assert (fast == brute).all()
    assert 0 < brute[:300].sum() < 300
    if packet == 0 or bvh.left[0] < 0:  # leaf steps only, each on its own leaf
        assert set(leaves_per_call) == {1}
    else:  # one collapsed step at the root
        assert len(leaves_per_call) == 1 and leaves_per_call[0] > 1


@pytest.mark.parametrize("make", [terrain_800, office_room, floor_and_ceiling])
def test_a_child_box_hit_implies_a_parent_box_hit(make):
    # the collapsed step tests only leaf boxes; it relies on this for every box on the path
    mesh = make()
    bvh = sc.build_bvh(mesh)
    rng = np.random.default_rng(13)
    n = 2000
    lo, hi = bounds(mesh)
    o = rng.uniform(lo - 0.5, hi + 0.5, (n, 3))
    node = rng.integers(0, len(bvh.left), n)
    planes = bvh.boxes[node[:, None], rng.integers(0, 2, (n, 3)), np.arange(3), 0]
    on = rng.random((n, 3)) < 0.6
    o[on] = planes[on]  # on a plane of some node's box
    d = rng.integers(-3, 4, (n, 3)) * rng.uniform(0.25, 4.0, (n, 1))
    d = np.where((d == 0) & (rng.random((n, 3)) < 0.5), -0.0, d)
    keep = (d != 0).any(axis=1)
    o, d, on = o[keep], d[keep], on[keep]
    assert ((d == 0) & on).any(axis=1).sum() > 200  # 0 * inf = NaN in the slab test
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.stack([o, 1.0 / d]).transpose(0, 2, 1)
        hits = np.concatenate([_slab_hits(bvh.boxes[i : i + 64], r)
                               for i in range(0, len(bvh.left), 64)])
    inner = np.flatnonzero(bvh.left >= 0)
    for child in (bvh.left[inner], bvh.left[inner] + 1):
        assert hits[child].any()
        assert not (hits[child] & ~hits[inner]).any()


def _slab_hits_fused_ref(box, r):
    """The slab test on one fused (B, 2, 3, A) array, reduced over the axes by
    np.fmax / np.fmin: the per-axis kernel must give its bits."""
    t = (box - r[0]) * r[1]
    tmin = np.minimum(t[:, 0], t[:, 1])
    tmax = np.maximum(t[:, 0], t[:, 1], out=t[:, 1])
    enter = np.maximum(np.fmax.reduce(tmin, axis=1), 0.0)
    exit_ = np.minimum(np.fmin.reduce(tmax, axis=1), 1.0)
    return enter <= exit_


@pytest.mark.parametrize("n_boxes", [1, 2, 64, 2048])
@pytest.mark.parametrize("make", [terrain_800, office_room])
def test_per_axis_slab_test_gives_the_fused_tests_bits(make, n_boxes):
    mesh = make()
    bvh = sc.build_bvh(mesh)
    rng = np.random.default_rng(23)
    tree = bvh.boxes
    flat = tree.copy()  # lo == hi on one axis per box
    axis = rng.integers(0, 3, len(flat))
    flat[np.arange(len(flat)), 1, axis] = flat[np.arange(len(flat)), 0, axis]
    endless = tree.copy()  # -inf lows and +inf highs
    endless[:, 0][rng.random(endless[:, 0].shape) < 0.3] = -np.inf
    endless[:, 1][rng.random(endless[:, 1].shape) < 0.3] = np.inf
    pool = np.concatenate([tree, flat, endless])
    box = pool[rng.integers(0, len(pool), n_boxes)]
    o, d = hard_segments(mesh, rng, 200)
    # origins on some tree box's planes where d == 0 there: 0 * inf = NaN
    planes = tree[rng.integers(0, len(tree), len(o)), rng.integers(0, 2, len(o)), :, 0]
    on = (d == 0) & (rng.random(d.shape) < 0.5)
    o = np.where(on, planes, o)
    assert on.any(axis=1).sum() > 50
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.stack([o, 1.0 / d]).transpose(0, 2, 1)
        got, ref = _slab_hits(box, r), _slab_hits_fused_ref(box, r)
    assert got.shape == ref.shape == (n_boxes, len(o))
    assert (got == ref).all()
    assert 0 < ref.sum() < ref.size


@pytest.mark.parametrize("make", [terrain_800, office_room, floor_and_ceiling])
def test_split_axis_is_the_longest_and_orders_the_children(make):
    mesh = make()
    bvh = sc.build_bvh(mesh)
    a, b, c = mesh.corners()
    centroid = (a + b + c) / 3.0
    inner = bvh.left >= 0
    assert (bvh.axis[~inner] == -1).all()
    extent = bvh.boxes[:, 1, :, 0] - bvh.boxes[:, 0, :, 0]
    assert (bvh.axis[inner] == np.argmax(extent[inner], axis=1)).all()

    def centroids(node, ax):
        leaves = bvh.tri_order[:, bvh.start[node] : bvh.start[node] + bvh.count[node]]
        return centroid[leaves[leaves >= 0], ax]

    for node in np.flatnonzero(inner):
        ax, lc = bvh.axis[node], bvh.left[node]
        assert centroids(lc, ax).max() <= centroids(lc + 1, ax).min()


def tied_grid():
    """8 x 3 unit quads at z = 0, their 48 triangles in a seeded order: the
    root splits along x, where a column's triangles tie in threes on their
    centroids, and deeper nodes split along y, where they tie across columns."""
    quads = unit_quads([(x, y, 0.0) for x in range(8) for y in range(3)])
    order = np.random.default_rng(31).permutation(quads.n_triangles)
    return sc.TriangleMesh(quads.vertices, quads.triangles[order])


def square_grid():
    """4 x 4 unit quads at z = 0: the root box's x and y extents tie."""
    return unit_quads([(x, y, 0.0) for x in range(4) for y in range(4)])


def signed_zero_room(seed):
    """The criterion-5 room with each zero coordinate flipped to -0.0 with
    probability 1/2: a min or max over a node's triangles picks a zero's sign
    by the order it reduces in, and the two builds reduce in different orders,
    so they agree byte for byte only because both make every zero 0.0 first."""
    room = sc.gen_room(extent=(6, 4, 3), obstacles=[((2, 1.5, 0), (3.5, 2.5, 1.0))])
    v = room.vertices.copy()
    v[(v == 0) & (np.random.default_rng(seed).random(v.shape) < 0.5)] = -0.0
    assert (np.signbit(v) & (v == 0)).any() and (~np.signbit(v) & (v == 0)).any()
    return sc.TriangleMesh(v, room.triangles)


TREE_MESHES = {
    "one triangle": single_triangle,
    "LEAF_SIZE triangles": lambda: stacked_triangles(LEAF_SIZE),
    "LEAF_SIZE + 1 triangles": lambda: stacked_triangles(LEAF_SIZE + 1),
    "13 triangles": thirteen_triangles,
    "office": office_room,
    "terrain_800": terrain_800,
    **{f"terrain seed {seed}": functools.partial(benchmark_terrain, seed) for seed in range(11)},
    "tied grid": tied_grid,
    "square grid": square_grid,
    **{f"room with -0.0, seed {seed}": functools.partial(signed_zero_room, seed)
       for seed in range(5)},
}


@pytest.mark.parametrize("scene", ["criterion-5 room", *TREE_MESHES])
def test_the_level_by_level_build_gives_the_per_node_builds_tree(scene, room_scene):
    mesh = room_scene[0] if scene == "criterion-5 room" else TREE_MESHES[scene]()
    bvh, ref = sc.build_bvh(mesh), reference_build_bvh(mesh)
    for field in dataclasses.fields(Bvh):
        got, want = getattr(bvh, field.name), getattr(ref, field.name)
        if isinstance(want, np.ndarray):
            # bytes, not np.array_equal, which takes -0.0 for 0.0
            assert (got.dtype, got.shape) == (want.dtype, want.shape), field.name
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name


def test_the_grids_have_the_ties_the_tree_test_needs():
    # the premises of the tied and square grids: centroids tie on the root's
    # split axis, and the root box's x and y extents tie
    a, b, c = tied_grid().corners()
    x = ((a + b + c) / 3.0)[:, 0]
    assert sc.build_bvh(tied_grid()).axis[0] == 0 and np.unique(x).size < x.size // 2
    lo, hi = bounds(square_grid())
    assert (hi - lo)[0] == (hi - lo)[1] > (hi - lo)[2]


def test_a_mesh_without_triangles_has_no_tree():
    empty = sc.TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="the mesh has no triangles"):
        sc.build_bvh(empty)


@pytest.mark.parametrize("sign", [1, -1])
def test_the_walk_visits_the_child_on_the_targets_side_first(sign, monkeypatch):
    # the root splits along x; a packet pointing +x (-x) runs its first
    # Moller-Trumbore call on the right (left) subtree, then the other one
    mesh = terrain_800()
    bvh = sc.build_bvh(mesh)
    assert bvh.axis[0] == 0
    rng = np.random.default_rng(29)
    west = rng.uniform([0.0, 0.0, -1.0], [4.0, 10.0, 2.0], (500, 3))
    east = rng.uniform([6.0, 0.0, -1.0], [10.0, 10.0, 2.0], (500, 3))
    o, d = _shrunk(west, east) if sign > 0 else _shrunk(east, west)
    assert (np.sign(d[:, 0]) == sign).all()
    leaf_of = {bvh.tri[..., j].tobytes(): j for j in range(bvh.tri.shape[3])}
    sides = []

    def triangles(r, tri):
        right = {leaf_of[tri[..., k].tobytes()] >= bvh.start[2] for k in range(tri.shape[3])}
        assert len(right) <= 1  # a call stays in one subtree of the root
        sides.extend(right)
        return _triangle_hits(r, tri)

    monkeypatch.setattr(visibility, "_triangle_hits", triangles)
    occluded = _segments_occluded_impl(bvh, o, d)
    assert 0 < occluded.sum() < len(occluded)
    assert sides[0] == (sign > 0) and (sign < 0) in sides


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_non_finite_endpoints_raise(bad):
    bvh = sc.build_bvh(single_triangle())
    with pytest.raises(ValueError, match="finite"):
        segments_occluded(bvh, [(0, 0, 0), (0, bad, 0)], [(0, 0, 2), (0, 0, 2)])
    with pytest.raises(ValueError, match="finite"):
        segment_occluded(bvh, (0, 0, 0), (bad, 0, 2))


def test_coincident_endpoints_raise():
    # a segment of zero length has no direction to shrink along
    bvh = sc.build_bvh(single_triangle())
    with pytest.raises(ValueError, match="segment endpoints coincide"):
        segments_occluded(bvh, [(0, 0, 0), (0.5, 0.5, 1)], [(0, 0, 2), (0.5, 0.5, 1)])


def test_no_segments_give_an_empty_answer():
    bvh = sc.build_bvh(single_triangle())
    for empty in ([], np.empty((0, 3))):
        out = segments_occluded(bvh, empty, empty)
        assert out.shape == (0,) and out.dtype == bool


def face_free_reference(bvh, mesh):
    """The face-slot view, slot by slot and node by node from the mesh's own
    corners: (face slots (slots, L), kept leaves (L,), node boxes)."""
    (lo, hi), corners = bvh.boxes[0, :, :, 0], mesh.corners()
    face = np.zeros(bvh.tri_order.shape, dtype=bool)
    for s, leaf in zip(*np.nonzero(bvh.tri_order >= 0)):
        a, b, c = (corner[bvh.tri_order[s, leaf]] for corner in corners)
        e1, e2 = b - a, c - a
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            n = e1[i] * e2[j] - e1[j] * e2[i]
            sound = abs(n) > 1e-3 * (abs(e1[i] * e2[j]) + abs(e1[j] * e2[i]))
            if e1[k] == 0 and e2[k] == 0 and a[k] in (lo[k], hi[k]) and sound:
                face[s, leaf] = True
    kept = ((bvh.tri_order >= 0) & ~face).any(axis=0)
    boxes = np.full(bvh.boxes.shape, np.inf)
    for node, (first, n) in enumerate(zip(bvh.start, bvh.count)):
        leaves = [leaf for leaf in range(first, first + n) if kept[leaf]]
        if leaves:
            boxes[node, 0] = bvh.leaf_boxes[leaves, 0].min(axis=0)
            boxes[node, 1] = bvh.leaf_boxes[leaves, 1].max(axis=0)
    return face, kept, boxes


def bare_shell():
    """The criterion-5 room without its obstacle: every triangle on a box face."""
    return sc.gen_room(extent=(6, 4, 3), obstacles=[])


def shell_with_sliver():
    """The bare shell with a sliver on its floor, cut from two nearly parallel
    oblique edges: its cross product cancels too far to count as a face slot."""
    shell = bare_shell()
    n = len(shell.vertices)
    sliver = [[1.0, 1.0, 0.0], [4.0, 2.0, 0.0], [4.000003, 2.000002, 0.0]]
    return sc.TriangleMesh(np.vstack([shell.vertices, sliver]),
                           np.vstack([shell.triangles, [[n, n + 1, n + 2]]]))


FACE_FREE_MESHES = {
    "bare shell": (bare_shell, LEAF_SIZE),
    "shell with a sliver": (shell_with_sliver, LEAF_SIZE),
    "flat floor": (square_grid, LEAF_SIZE),
    "two-box room": (lambda: packet_scene(1, 1)[0], LEAF_SIZE),
    "office, leaves of 1": (office_room, 1),
    "office, leaves of 2": (office_room, 2),
}


@pytest.mark.parametrize("scene", ["criterion-5 room", *FACE_FREE_MESHES])
def test_the_face_free_view_matches_a_slot_by_slot_derivation(scene, room_scene, monkeypatch):
    if scene == "criterion-5 room":
        mesh = room_scene[0]
    else:
        make, leaf_size = FACE_FREE_MESHES[scene]
        monkeypatch.setattr(visibility, "LEAF_SIZE", leaf_size)
        mesh = make()
    bvh = sc.build_bvh(mesh)
    view = bvh._face_free
    face, kept, boxes = face_free_reference(bvh, mesh)
    assert view is not None and not kept.all() and face.any()
    assert view is bvh._face_free  # derived once
    assert (view.tri_order == np.where(face, -1, bvh.tri_order)).all()
    assert (view.tri[:, :, face] == 0).all()
    assert view.tri[:, :, ~face].tobytes() == bvh.tri[:, :, ~face].tobytes()
    assert ((view.leaf_boxes == np.inf).all(axis=(1, 2, 3)) == ~kept).all()
    assert view.leaf_boxes[kept].tobytes() == bvh.leaf_boxes[kept].tobytes()
    assert np.array_equal(view.boxes, boxes)
    for name in ("left", "axis", "start", "count"):
        assert getattr(view, name) is getattr(bvh, name)
    assert view.mesh_hash == bvh.mesh_hash
    if scene == "criterion-5 room":  # floor, walls, ceiling and the box's bottom
        assert (~kept).sum() == 4 and face.sum() == 14
    if scene in ("bare shell", "flat floor"):
        assert not kept.any() and (view.boxes == np.inf).all()
    if scene == "shell with a sliver":  # the sliver, triangle 12, stays
        assert (view.tri_order == 12).sum() == 1 and kept.sum() == 1


@pytest.mark.parametrize("make", [office_room, terrain_800])
def test_a_tree_with_no_leaf_to_prune_has_no_view(make):
    # the office's shell shares its leaves with the boxes, and the terrain has no face
    assert sc.build_bvh(make())._face_free is None


@pytest.mark.parametrize("far, pruned", [(1e99, 3), (2e100, None)])
def test_a_mesh_beyond_1e100_has_no_view(far, pruned, room_scene):
    # a long, thin triangle at z = 1 stretches the root box along x; beyond
    # 1e100, products in the error argument could overflow
    room = room_scene[0]
    n = len(room.vertices)
    mesh = sc.TriangleMesh(np.vstack([room.vertices, [[0, 0, 1], [far, 0, 1], [0, 1, 1]]]),
                           np.vstack([room.triangles, [[n, n + 1, n + 2]]]))
    view = sc.build_bvh(mesh)._face_free
    if pruned is None:
        assert view is None
    else:
        assert (view.leaf_boxes == np.inf).all(axis=(1, 2, 3)).sum() == pruned


@pytest.mark.parametrize("scene", ["criterion-5 room", "office", "office, leaves of 2"])
def test_the_face_free_walk_keeps_the_full_trees_bits(scene, room_scene, monkeypatch):
    if scene == "criterion-5 room":
        mesh = room_scene[0]
    else:
        monkeypatch.setattr(visibility, "LEAF_SIZE", 2 if scene.endswith("2") else LEAF_SIZE)
        mesh = office_room()
    bvh = sc.build_bvh(mesh)
    o, d = hard_segments(mesh, np.random.default_rng(43), 3000)
    a, b = o, o + d
    o, d = _shrunk(a, b)
    full = _segments_occluded_impl(bvh, o, d)
    assert 0.05 < full.mean() < 0.95
    clear = visibility._clear_of_box_faces(bvh.boxes[0, :, :, 0], o, d)
    assert 1000 < clear.sum() < len(clear) - 1000
    view = bvh._face_free
    if view is not None:
        assert (_segments_occluded_impl(view, o[clear], d[clear]) == full[clear]).all()
    walks = []
    walk = visibility._segments_occluded_impl

    def recorded(tree, o, d):
        walks.append((tree is bvh, len(o)))
        return walk(tree, o, d)

    monkeypatch.setattr(visibility, "_segments_occluded_impl", recorded)
    assert (segments_occluded(bvh, a, b) == full).all()
    if view is None:  # the office's leaves hold shell and box triangles alike
        assert scene == "office" and walks == [(True, len(o))]
    else:  # one walk on the view, one on the full tree
        assert sorted(walks) == [(False, clear.sum()), (True, (~clear).sum())]


def against_brute(mesh, a, b):
    """segments_occluded's bits, checked against the oracle, and which of the
    shrunk segments walk the face-free view."""
    bvh = sc.build_bvh(mesh)
    fast = segments_occluded(bvh, a, b)
    assert (fast == [segment_occluded_brute(mesh, p, q) for p, q in zip(a, b)]).all()
    return fast, visibility._clear_of_box_faces(bvh.boxes[0, :, :, 0], *_shrunk(a, b))


def test_segments_from_face_points_match_brute(room_scene):
    # samples lie on the floor, the walls, the ceiling and the box; their
    # shrunk segments to other samples and to interior points walk the view,
    # except those between two samples in one face plane
    mesh, _, samples, *_ = room_scene
    rng = np.random.default_rng(47)
    p = samples.positions[rng.integers(0, len(samples), (2, 400))]
    inner = rng.uniform([0.1, 0.1, 0.1], [5.9, 3.9, 2.9], (400, 3))
    a, b = np.vstack([p[0], p[0]]), np.vstack([p[1], inner])
    a, b = a[(a != b).any(axis=1)], b[(a != b).any(axis=1)]
    fast, clear = against_brute(mesh, a, b)
    one_plane = ((a == b) & ((a == [0, 0, 0]) | (a == [6, 4, 3]))).any(axis=1)
    assert (clear == ~one_plane).all() and 20 < one_plane.sum() < 200
    assert 0.05 < fast.mean() < 0.95


@pytest.mark.parametrize("plane", ["floor", "wall x = 6", "ceiling"])
def test_segments_in_a_face_plane_match_brute(plane, room_scene):
    # d_k = 0 with the origin on the plane: NaN in the clear test, so the full tree
    mesh = room_scene[0]
    rng = np.random.default_rng(53)
    a, b = rng.uniform([-1, -1, -1], [7, 5, 4], (2, 300, 3))
    k, value = {"floor": (2, 0.0), "wall x = 6": (0, 6.0), "ceiling": (2, 3.0)}[plane]
    a[:, k] = b[:, k] = value
    fast, clear = against_brute(mesh, a, b)
    assert not clear.any()
    if plane == "floor":  # the box stands on the floor: its sides block some
        assert 0 < fast.sum() < len(fast)


def test_segments_leaving_through_a_face_take_the_full_tree(room_scene):
    # every segment from inside the room to beyond a wall, the floor or the
    # ceiling crosses a shell triangle, which only the full tree holds
    mesh = room_scene[0]
    rng = np.random.default_rng(59)
    a = rng.uniform([0.1, 0.1, 0.1], [5.9, 3.9, 2.9], (400, 3))
    b = rng.uniform([-2, -2, -2], [8, 6, 5], (400, 3))
    outside = ((b < [0, 0, 0]) | (b > [6, 4, 3])).any(axis=1)
    a, b = a[outside], b[outside]
    fast, clear = against_brute(mesh, a, b)
    assert fast.all() and not clear.any() and len(a) > 200


def test_segments_near_a_face_plane_match_brute(room_scene):
    # origins placed so the shrunk segment meets the floor at parameter t, for
    # t within a few 1e-9 of 0; the reversed segments meet it near 1. Those
    # with t > -2e-9 take the full tree, and the ones crossing the floor at
    # t >= -1e-12 hit it.
    mesh = room_scene[0]
    rng = np.random.default_rng(61)
    ts = np.array([-4e-9, -3e-9, -2.5e-9, -1.5e-9, -1e-9, -5e-10, -1e-12, 0.0, 1e-12, 1e-9, 3e-9])
    t = np.repeat(ts, 20)
    q = rng.uniform([0.2, 0.2, 1.2], [1.8, 3.8, 2.8], (len(t), 3))  # clear of the box
    c = 1e-6 + t * (1 - 2e-6)
    p = np.column_stack([q[:, :2] + rng.uniform(-0.1, 0.1, (len(t), 2)), -q[:, 2] * c / (1 - c)])
    for a, b, near in ((p, q, 0.0), (q, p, 1.0)):
        o, d = _shrunk(a, b)
        at_floor = -o[:, 2] / d[:, 2]
        assert np.allclose(at_floor - near, t * (1 - 2 * near), rtol=1e-3, atol=1e-13)
        fast, clear = against_brute(mesh, a, b)
        # the walls and the ceiling are far; only the floor decides
        assert (clear == ((at_floor < -2e-9) | (at_floor > 1 + 2e-9))).all()
        assert clear.any() and not clear.all()
        assert (fast[t >= 1e-12]).all() and not fast[t <= -1e-9].any()


@pytest.mark.parametrize("make", [bare_shell, square_grid, shell_with_sliver])
def test_meshes_whose_leaves_are_all_pruned_match_brute(make):
    # the bare shell's and the flat floor's every leaf is pruned; the sliver
    # keeps one. Segments inside the shell see each other unless they touch the
    # sliver; no segment is clear of the flat floor's faces, as its box has no depth
    mesh = make()
    rng = np.random.default_rng(67)
    lo, hi = bounds(mesh)
    a, b = rng.uniform(lo - 0.5, hi + 0.5, (2, 500, 3))
    inside = rng.uniform(lo, hi, (2, 300, 3))
    if make is shell_with_sliver:  # from the sliver's own points, up and across
        w = rng.dirichlet([1, 1, 1], 300)
        inside[0] = w @ mesh.vertices[-3:]
    fast, clear = against_brute(mesh, np.vstack([a, inside[0]]), np.vstack([b, inside[1]]))
    if make is square_grid:
        assert not clear.any() and 0 < fast.sum() < len(fast)
    else:
        assert clear[500:].all() and 0 < fast[:500].sum() < 500
        assert not fast[500:].any()
