import importlib.util
import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfcover as sc
from surfcover import refine
from surfcover.coverage import CoincidentPointError, QualityKind

from _refine_reference import basis_sphere, contains, min_sphere_welzl, reference_refine_grid
from conftest import all_visible, make_sample_set, with_panel


def grid_search_min_sphere_radius(points, h, span=12.0, levels=3, cells=60):
    """Two-level grid search over plane centers; oracle for the closed form."""
    points = np.asarray(points, float)
    cx, cy = points[:, 0].mean(), points[:, 1].mean()
    half = span

    def radius_at(x, y):
        return np.sqrt(
            (points[:, 0] - x) ** 2 + (points[:, 1] - y) ** 2 + (points[:, 2] - h) ** 2
        ).max()

    best = (radius_at(cx, cy), cx, cy)
    for _ in range(levels):
        xs = np.linspace(best[1] - half, best[1] + half, cells)
        ys = np.linspace(best[2] - half, best[2] + half, cells)
        for x in xs:
            for y in ys:
                r = radius_at(x, y)
                if r < best[0]:
                    best = (r, x, y)
        half = 3 * half / cells
    return best[0]


def test_min_sphere_single_point():
    s = sc.min_sphere_fixed_plane([[0, 0, 0]], 3.0)
    assert np.allclose(s.center, [0, 0, 3])
    assert s.radius == pytest.approx(3.0)


def test_min_sphere_two_points_symmetric():
    s = sc.min_sphere_fixed_plane([[-4, 0, 0], [4, 0, 0]], 3.0)
    assert np.allclose(s.center, [0, 0, 3])
    assert s.radius == pytest.approx(5.0)


def test_min_sphere_four_fold_symmetry():
    s = sc.min_sphere_fixed_plane([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], 1.0)
    assert np.allclose(s.center, [0, 0, 1], atol=1e-9)
    assert s.radius == pytest.approx(math.sqrt(2))


def test_min_sphere_matches_grid_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        pts = rng.uniform(-4, 4, (n, 3))
        h = float(rng.uniform(5, 7))
        sphere = sc.min_sphere_fixed_plane(pts, h)
        oracle = grid_search_min_sphere_radius(pts, h)
        assert sphere.radius == pytest.approx(oracle, rel=1e-4)


def test_min_sphere_contains_all_points():
    rng = np.random.default_rng(13)
    for _ in range(20):
        pts = rng.uniform(-5, 5, (int(rng.integers(2, 15)), 3))
        sphere = sc.min_sphere_fixed_plane(pts, 6.0)
        assert all(contains(sphere, p) for p in pts)
        assert sphere.center[2] == 6.0


def test_min_sphere_radius_at_least_clearance():
    rng = np.random.default_rng(14)
    pts = rng.uniform(-3, 3, (10, 3))
    h = 8.0
    sphere = sc.min_sphere_fixed_plane(pts, h)
    clearance = np.abs(h - pts[:, 2]).min()
    assert sphere.radius >= clearance - 1e-12


def test_min_sphere_permutation_invariant():
    rng = np.random.default_rng(15)
    pts = rng.uniform(-3, 3, (9, 3))
    r1 = sc.min_sphere_fixed_plane(pts, 5.0)
    r2 = sc.min_sphere_fixed_plane(pts[::-1], 5.0)
    assert r1.radius == pytest.approx(r2.radius, abs=1e-9)
    assert np.allclose(r1.center, r2.center, atol=1e-7)


def test_min_sphere_support_on_boundary():
    rng = np.random.default_rng(16)
    pts = rng.uniform(-3, 3, (12, 3))
    sphere = sc.min_sphere_fixed_plane(pts, 5.0)
    for idx in sphere.support:
        d = np.linalg.norm(pts[idx] - sphere.center)
        assert d == pytest.approx(sphere.radius, abs=1e-9)


def test_basis_sphere_matches_least_squares():
    # the equidistance equations of a 1-3 point basis, in the centre's offset
    # from the first point's projection, solved by LAPACK: the minimum-norm
    # offset puts a 1-point centre on the projection and a 2-point centre on
    # the equation's normal
    rng = np.random.default_rng(25)
    for trial in range(600):
        pts = rng.uniform(-5, 5, (1 + trial % 3, 3))
        h = float(rng.uniform(-2, 4))
        uv = pts[1:, :2] - pts[0, :2]
        w = (h - pts[:, 2]) ** 2
        rhs = ((uv**2).sum(axis=1) + w[1:] - w[0]) / 2.0
        offset = np.linalg.lstsq(uv.reshape(-1, 2), rhs, rcond=None)[0]
        sphere = refine._basis_sphere(pts, list(range(len(pts))), h)
        assert np.allclose(sphere.center, [*(pts[0, :2] + offset), h], rtol=1e-9, atol=1e-9)
        assert sphere.radius == pytest.approx(np.sqrt(offset @ offset + w[0]), rel=1e-9)
        assert sphere.support == tuple(range(len(pts)))
        for p in pts:
            assert np.linalg.norm(p - sphere.center) == pytest.approx(sphere.radius, rel=1e-9)


def test_basis_sphere_is_none_exactly_for_degenerate_bases():
    # every pair and triple of a small integer grid, whose projections are
    # equal or collinear exactly when the integer cross product says so
    grid = np.array([(x, y, z) for x in range(3) for y in range(3) for z in (0, 2)], float)
    degenerate = 0
    for n in (2, 3):
        for basis in combinations(range(len(grid)), n):
            proj = grid[list(basis), :2]
            d = proj[1:] - proj[0]
            if n == 2:
                flat = not d.any()
            else:
                flat = d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0] == 0
            sphere = refine._basis_sphere(grid, list(basis), 1.5)
            assert (sphere is None) == flat, basis
            degenerate += flat
    assert degenerate > 100


def _contains_ref(sphere, p, tol=refine.CONTAIN_TOL):
    d2 = float(np.sum((np.asarray(p, float) - sphere.center) ** 2))
    r2 = sphere.radius**2
    return d2 <= r2 + tol * max(1.0, r2)


def _assert_matches_welzl(pts, h):
    """The pivot's sphere has Welzl's radius to a relative 1e-12, holds every
    point and has its support on its boundary."""
    got = sc.min_sphere_fixed_plane(pts, h)
    assert got.radius == pytest.approx(min_sphere_welzl(pts, h).radius, rel=1e-12, abs=0)
    _assert_encloses_with_support_on_boundary(got, pts)


def _assert_encloses_with_support_on_boundary(sphere, pts):
    pts = np.asarray(pts, float)
    assert all(contains(sphere, p) for p in pts)
    for idx in sphere.support:
        d = np.linalg.norm(pts[idx] - sphere.center)
        assert abs(d - sphere.radius) <= 1e-9 * max(1.0, sphere.radius)


def _on_tolerance_boundary(sphere):
    """Points around `sphere`'s containment limit along four horizontal axes:
    the float offset nearest to sqrt(r2 + tol * max(1, r2)) and 4 ulps to
    either side of it."""
    r2 = sphere.radius**2
    x = math.sqrt(r2 + refine.CONTAIN_TOL * max(1.0, r2))
    for _ in range(4):
        x = np.nextafter(x, 0.0)
    offsets = []
    for _ in range(9):
        offsets.append(x)
        x = np.nextafter(x, np.inf)
    axes = np.array([[1.0, 0, 0], [0, -1.0, 0], [-1.0, 0, 0], [0, 1.0, 0]])
    return np.array([sphere.center + d * a for a in axes for d in offsets])


def test_min_sphere_scan_matches_per_point_loop_on_random_sets():
    rng = np.random.default_rng(21)
    sizes = [1, 2, 3, 4, 5, 8, 13, 400] + [int(n) for n in rng.integers(1, 401, 24)]
    for n in sizes:
        pts = rng.uniform(-5, 5, (n, 3)) * [1.0, 1.0, 0.2]
        _assert_matches_welzl(pts, float(rng.uniform(1, 4)))


def test_min_sphere_scan_matches_per_point_loop_with_duplicates():
    rng = np.random.default_rng(22)
    for n in (2, 6, 40, 200):
        base = np.round(rng.uniform(-3, 3, (max(1, n // 4), 3)), 1)
        pts = base[rng.integers(0, len(base), n)]  # every point repeats
        _assert_matches_welzl(pts, 2.5)
        _assert_matches_welzl(np.vstack([pts, pts]), 2.5)


def test_min_sphere_scan_matches_per_point_loop_on_collinear_projections(monkeypatch):
    # projections on one line: every triple is degenerate, and the pivot
    # skips those bases while Welzl's reference gives them their 1-centers
    rng = np.random.default_rng(23)
    basis_sphere = refine._basis_sphere
    skipped = []

    def counting(pts, basis, h):
        sphere = basis_sphere(pts, basis, h)
        if sphere is None:
            skipped.append(basis)
        return sphere

    for n in (3, 5, 20, 120):
        t = np.round(rng.uniform(-2, 2, n), 1)
        pts = np.column_stack([t, 2.0 * t + 1.0, rng.uniform(-1, 0.5, n)])
        with monkeypatch.context() as mp:
            mp.setattr(refine, "_basis_sphere", counting)
            sc.min_sphere_fixed_plane(pts, 3.0)
        _assert_matches_welzl(pts, 3.0)
    assert skipped


def test_collinear_triple_is_its_largest_pair_sphere():
    # three points whose projections lie exactly on one line have no 3-point
    # basis; the reference's fallback gives the triple's 1-center
    rng = np.random.default_rng(26)
    supports = set()
    for _ in range(20):
        t = rng.integers(-8, 9, 3) / 4.0
        pts = np.column_stack([1.0 + 0.5 * t, -0.5 + 0.75 * t, rng.uniform(-3, 1.5, 3)])
        h = 2.0
        assert refine._basis_sphere(pts, [0, 1, 2], h) is None
        sphere = basis_sphere(pts, [0, 1, 2], h)
        assert all(contains(sphere, p) for p in pts)
        assert sphere.radius == pytest.approx(grid_search_min_sphere_radius(pts, h), rel=1e-4)
        assert sphere.radius == pytest.approx(sc.min_sphere_fixed_plane(pts, h).radius, rel=1e-12)
        for idx in sphere.support:
            assert np.linalg.norm(pts[idx] - sphere.center) == pytest.approx(sphere.radius)
        supports.add(len(sphere.support))
    assert supports == {1, 2}  # one point's sphere wins some triples, a pair's others


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=30),
    st.sampled_from([0.5, 1.0, 2.5, 4.0]),
)
def test_min_sphere_matches_welzl_on_integer_grid_sets(points, h):
    # integer points: many equal and collinear projections, and repeats
    pts = np.array(points, float)
    sphere = sc.min_sphere_fixed_plane(pts, h)
    assert all(contains(sphere, p) for p in pts)
    assert sphere.radius == pytest.approx(min_sphere_welzl(pts, h).radius, rel=1e-12, abs=0)


def test_min_sphere_scan_matches_per_point_loop_on_tolerance_boundary():
    rng = np.random.default_rng(24)
    for h in (0.3, 2.0):
        base = rng.uniform(-2, 2, (3, 3)) * [1.0, 1.0, 0.1]
        sphere = sc.min_sphere_fixed_plane(base, h)
        pts = np.vstack([base, _on_tolerance_boundary(sphere)])
        _assert_matches_welzl(pts, h)
        _assert_matches_welzl(pts[::-1], h)


def test_contains_and_scan_agree_on_tolerance_boundary(monkeypatch):
    # The search returns its first sphere unchanged exactly when its stop test
    # puts every point inside it; `contains` must say the same of each point.
    basis_sphere = refine._basis_sphere
    for radius in (0.4, 1.0, 7.0):
        sphere = sc.ConstrainedSphere(np.array([0.5, -1.0, 2.0]), radius, ())
        pts = _on_tolerance_boundary(sphere)
        inside = [contains(sphere, q) for q in pts]
        assert inside == [_contains_ref(sphere, q) for q in pts]
        assert any(inside) and not all(inside)

        def returns_first_sphere(points):
            first = [sphere]
            monkeypatch.setattr(
                refine,
                "_basis_sphere",
                lambda p, basis, h: first.pop() if first else basis_sphere(p, basis, h),
            )
            return sc.min_sphere_fixed_plane(points, 2.0) is sphere

        assert [returns_first_sphere([q]) for q in pts] == inside
        assert returns_first_sphere(pts[inside])
        assert not returns_first_sphere(pts)


def test_min_sphere_stops_when_no_pivot_holds_its_support(monkeypatch):
    # Spheres of two or more points, shrunk by half, hold none of their
    # points, so the first pivot finds no sphere: the search stops at its
    # current center, widened to the farthest point.
    basis_sphere = refine._basis_sphere
    bases = []

    def shrunk(pts, basis, h):
        bases.append(list(basis))
        s = basis_sphere(pts, basis, h)
        return s if len(basis) == 1 else sc.ConstrainedSphere(s.center, s.radius / 2, s.support)

    monkeypatch.setattr(refine, "_basis_sphere", shrunk)
    sphere = sc.min_sphere_fixed_plane([[0, 0, 0], [4, 0, 0]], 0.0)
    assert bases == [[0], [1], [1, 0]]
    assert np.array_equal(sphere.center, [0, 0, 0])
    assert (sphere.radius, sphere.support) == (4.0, (1,))


def test_min_sphere_stops_when_a_pivot_does_not_grow(monkeypatch):
    # A first sphere wider than the pair's: the pivot that holds both points
    # is smaller than it, so the search stops at its current center, widened
    # to the farthest point, instead of shrinking.
    basis_sphere = refine._basis_sphere
    wide = sc.ConstrainedSphere(np.array([0.0, 0.0, 0.0]), 5.0, (0,))
    bases = []

    def first_wide(pts, basis, h):
        bases.append(list(basis))
        return wide if basis == [0] else basis_sphere(pts, basis, h)

    monkeypatch.setattr(refine, "_basis_sphere", first_wide)
    sphere = sc.min_sphere_fixed_plane([[0, 0, 0], [6, 0, 0]], 0.0)
    assert bases == [[0], [1], [1, 0]]
    assert np.array_equal(sphere.center, [0, 0, 0])
    assert (sphere.radius, sphere.support) == (6.0, (1,))


def test_min_sphere_takes_few_pivots(monkeypatch):
    # each pivot builds one 1-point sphere, of its farthest point, after the
    # search's first sphere of point 0
    basis_sphere = refine._basis_sphere
    singles = []

    def counting(pts, basis, h):
        if len(basis) == 1:
            singles.append(basis[0])
        return basis_sphere(pts, basis, h)

    monkeypatch.setattr(refine, "_basis_sphere", counting)
    rng = np.random.default_rng(27)
    most = 0
    for trial in range(2000):
        n = int(rng.integers(1, 61))
        if trial % 3 == 0:
            pts = rng.uniform(-5, 5, (n, 3)) * [1.0, 1.0, 0.2]
        elif trial % 3 == 1:  # duplicates
            pts = np.round(rng.uniform(-3, 3, (n, 3)), 1)[rng.integers(0, n, n)]
        else:  # integer-grid ties
            pts = rng.integers(-3, 4, (n, 3)).astype(float)
        singles.clear()
        sphere = sc.min_sphere_fixed_plane(pts, float(rng.uniform(0.5, 4)))
        most = max(most, len(singles) - 1)
        assert all(contains(sphere, p) for p in pts)
    assert most <= 20


def test_min_sphere_rejects_non_finite_input():
    with pytest.raises(ValueError, match="finite"):
        sc.min_sphere_fixed_plane([[0, 0, 0], [math.nan, 1, 0], [2, 2, 0]], 1.0)
    with pytest.raises(ValueError, match="finite"):
        sc.min_sphere_fixed_plane([[0, 0, 0], [1, math.inf, 0]], 1.0)
    for h in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            sc.min_sphere_fixed_plane([[0, 0, 0], [2, 2, 0]], h)


def test_improve_quality_max_fixed_point():
    # sensors already at per-cluster optima: nothing to gain
    s = make_sample_set([[-2, 0, 0], [2, 0, 0]])
    centers = np.array([[-2.0, 0.0, 3.0], [2.0, 0.0, 3.0]])
    new_centers, r = sc.improve_quality_max(s, centers, 3.0)
    assert np.allclose(new_centers, centers)
    assert r == pytest.approx(3.0)


def test_improve_quality_max_never_increases_radius():
    rng = np.random.default_rng(18)
    plane = sc.PlaneDeployment(3.0)
    for _ in range(20):
        pts = np.column_stack([rng.uniform(0, 12, (25, 2)), rng.uniform(0, 0.5, 25)])
        s = make_sample_set(pts)
        k = int(rng.integers(1, 5))
        fpc = sc.farthest_point_clustering(s, k, plane)
        r0 = sc.coverage_radius(fpc, s)
        centers, r1 = sc.improve_quality_max(s, fpc.positions, plane.height)
        assert r1 <= r0 + 1e-12
        assert r1 == sc.coverage_radius(sc.CandidateSet(positions=centers), s)


def test_improve_quality_max_returns_the_radius_of_its_centers():
    # the last round's 1-centers cover this terrain at a radius rounded one
    # ulp above the round before's; that round is undone, so the radius
    # reported is the returned centers' own
    terrain = sc.gen_terrain(0, extent=(10, 10), cells=20, amplitude=0.3)
    s = sc.sample_surface(terrain, pitch=0.6)
    plane = sc.PlaneDeployment(2.0)
    fpc = sc.farthest_point_clustering(s, 5, plane)
    centers, r = sc.improve_quality_max(s, fpc.positions, plane.height)
    assert r == 3.9236307424454098
    assert sc.coverage_radius(sc.CandidateSet(positions=centers), s) == r


def test_improve_quality_max_leaves_a_center_no_sample_is_nearest_to():
    # the second center is farther from every sample than the first, so it
    # has no cluster and stays where it is
    rng = np.random.default_rng(5)
    s = make_sample_set(np.column_stack([rng.uniform(0, 2, (30, 2)), np.zeros(30)]))
    start = np.array([[0.0, 0.0, 1.0], [50.0, 50.0, 1.0]])
    centers, r = sc.improve_quality_max(s, start, 1.0)
    assert (centers[1] == start[1]).all()
    assert centers[0].tolist() == sc.min_sphere_fixed_plane(s.positions, 1.0).center.tolist()
    assert r == sc.coverage_radius(sc.CandidateSet(positions=centers), s)


def _coarse_fine_setup():
    mesh = sc.gen_room(extent=(6, 4, 3), obstacles=[((2, 1.5, 0), (3.5, 2.5, 1.0))])
    samples = sc.sample_surface(mesh, pitch=0.9)
    bvh = sc.build_bvh(mesh)
    rect = (1.0, 1.0, 5.0, 3.0)
    coarse = sc.generate_candidates_plane(2.8, rect, 2.0)
    fine = sc.generate_candidates_plane(2.8, rect, 0.5)
    return mesh, bvh, samples, rect, coarse, fine


def test_refine_grid_zero_rounds_is_noop():
    _, bvh, samples, rect, coarse, _ = _coarse_fine_setup()
    vm = sc.visibility_matrix(bvh, samples, coarse)
    placement = (0, len(coarse) - 1)
    for kind, threshold in (
        (QualityKind.VISIBILITY, None),
        (QualityKind.LAMBERT_INVERSE_SQUARE, 0.05),
    ):
        inst = sc.build_instance(samples, coarse, vm, kind)
        pos, obj = sc.refine_grid(
            inst, placement, bvh, pitch_fine=0.5, rounds=0, neighborhood=1.0,
            threshold=threshold,
        )
        assert np.allclose(pos, coarse.positions[list(placement)])
        # refinement and evaluate share one quality matrix and one covered rule
        assert obj == sc.evaluate(inst, placement, threshold=threshold).objective


def test_refine_grid_never_decreases_objective():
    _, bvh, samples, rect, coarse, _ = _coarse_fine_setup()
    vm = sc.visibility_matrix(bvh, samples, coarse)
    inst = sc.build_instance(samples, coarse, vm, QualityKind.VISIBILITY)
    placement, report, _ = sc.solve_problem1(inst, 2)
    pos, obj = sc.refine_grid(
        inst, placement, bvh, pitch_fine=0.5, rounds=2, neighborhood=1.0
    )
    assert obj >= report.objective


def test_refine_grid_bounded_by_fine_ilp():
    # refined positions restricted to the fine lattice: fine ILP is an upper oracle
    _, bvh, samples, rect, coarse, fine = _coarse_fine_setup()
    vm_c = sc.visibility_matrix(bvh, samples, coarse)
    inst_c = sc.build_instance(samples, coarse, vm_c, QualityKind.VISIBILITY)
    placement, report, _ = sc.solve_problem1(inst_c, 2)
    lo = np.array([rect[0], rect[1]])
    hi = np.array([rect[2], rect[3]])
    pos, obj = sc.refine_grid(
        inst_c, placement, bvh, pitch_fine=0.5, rounds=2, neighborhood=2.0,
        bounds=(lo, hi),
    )
    vm_f = sc.visibility_matrix(bvh, samples, fine)
    inst_f = sc.build_instance(samples, fine, vm_f, QualityKind.VISIBILITY)
    _, report_f, _ = sc.solve_problem1(inst_f, 2)
    assert report.objective <= obj <= report_f.objective


def test_refine_grid_cumulative_requires_threshold():
    _, bvh, samples, rect, coarse, _ = _coarse_fine_setup()
    vm = sc.visibility_matrix(bvh, samples, coarse)
    inst = sc.build_instance(samples, coarse, vm, QualityKind.LAMBERT_INVERSE_SQUARE)
    with pytest.raises(ValueError, match="threshold"):
        sc.refine_grid(inst, (0,), bvh, pitch_fine=0.5, rounds=1, neighborhood=1.0)


def test_refine_grid_rejects_a_tree_of_another_mesh():
    # moves are traced through the tree, so it must hold the occluders the
    # instance's columns were computed with
    mesh, bvh, samples, rect, coarse, _ = _coarse_fine_setup()
    vm = sc.visibility_matrix(bvh, samples, coarse)
    inst = sc.build_instance(samples, coarse, vm, QualityKind.VISIBILITY)
    paneled = sc.build_bvh(with_panel(mesh))
    with pytest.raises(ValueError, match="another mesh"):
        sc.refine_grid(inst, (0,), paneled, pitch_fine=0.5, rounds=1, neighborhood=1.0)


@pytest.mark.parametrize("center", [(2.0, 2.0, 2.8), (-0.0, 1.3, 2.5), (0.1, 0.2, 0.3)])
@pytest.mark.parametrize("bounds", [None, ((0.0, 0.0), (6.0, 4.0)), ((-1.0, -1.0), (1.0, 1.0))])
def test_the_local_grid_lists_each_point_once_with_the_centre_first(center, bounds):
    # every listed point costs a traced column, so the centre, where the
    # sensor stays, is index 0 and nowhere else
    center = np.array(center)
    for pitch, halfwidth in ((0.3, 0.6), (0.5, 1.0), (0.25, 0.1)):
        local = refine._local_grid(center, pitch, halfwidth, bounds)
        assert local[0].tobytes() == center.tobytes()
        assert len(np.unique(local, axis=0)) == len(local)
        assert (local[:, 2] == center[2]).all()
        steps = int(np.floor(halfwidth / pitch + 1e-9))
        if bounds is None:
            assert len(local) == (2 * steps + 1) ** 2


def _benchmark_scenes():
    """The scene set-ups of perfbench/workloads.py, which the benchmark's
    office-refine and room-exact workloads run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


def _scene_instances(workload, seed):
    scene = workload.setup(seed)
    vm = sc.visibility_matrix(scene.bvh, scene.samples, scene.candidates)
    vis = sc.build_instance(scene.samples, scene.candidates, vm, QualityKind.VISIBILITY)
    lam = sc.build_instance(scene.samples, scene.candidates, vm, QualityKind.LAMBERT_INVERSE_SQUARE)
    return scene, vis, lam


def test_refine_grid_matches_the_full_column_reference(monkeypatch):
    # bit for bit: every grid's scores, the positions and the objective, on
    # the benchmark rooms with the solvers' placements and seeded random ones
    log = []  # the scores of each local grid refine_grid scores
    grid_scores = refine._grid_scores

    def logged(*args):
        scores, reach = grid_scores(*args)
        log.append(scores)
        return scores, reach

    monkeypatch.setattr(refine, "_grid_scores", logged)
    workloads = _benchmark_scenes()
    rng = np.random.default_rng(27)
    runs = moved = 0
    for name, threshold in (("office-refine", 0.1), ("room-exact", 0.05)):
        for seed in (0, 3):
            scene, vis, lam = _scene_instances(workloads[name], seed)
            m = len(scene.candidates)
            lo, hi = scene.candidates.positions.min(axis=0), scene.candidates.positions.max(axis=0)
            for inst, thr in ((vis, None), (lam, threshold)):
                if thr is None:
                    solved = sc.solve_problem1(inst, 2)[0]
                else:
                    solved = sc.solve_problem3(inst, 2, thr)[0]
                drawn = rng.choice(m, size=int(rng.integers(1, 4)), replace=False).tolist()
                for placement in (solved, drawn):
                    kwargs = dict(pitch_fine=0.3, rounds=2, neighborhood=0.6, threshold=thr,
                                  bounds=(lo, hi))
                    ref_log = []
                    ref_pos, ref_obj = reference_refine_grid(
                        inst, placement, scene.bvh, scores_log=ref_log, **kwargs
                    )
                    log.clear()
                    phi = inst.phi.copy()
                    pos, obj = sc.refine_grid(inst, placement, scene.bvh, **kwargs)
                    assert np.array_equal(inst.phi, phi)  # moves never write into the instance
                    assert len(log) == len(ref_log)
                    for got, ref in zip(log, ref_log):
                        assert got.dtype == ref.dtype and np.array_equal(got, ref)
                    assert np.array_equal(pos, ref_pos) and obj == ref_obj
                    runs += 1
                    moved += not np.array_equal(pos, inst.candidates.positions[list(placement)])
    assert runs == 16 and moved >= 8  # accepted moves trace their full columns


def test_refine_traces_under_half_the_segments_of_the_full_columns(monkeypatch):
    # office-refine seed 0's P1 and P3 refinements at k=2: the full-column
    # loop sends N x (k + the grid points); only the open, reachable pairs
    # and the accepted moves' columns are sent now
    workload = _benchmark_scenes()["office-refine"]
    scene, vis, lam = _scene_instances(workload, 0)
    sent = []
    traced = refine.segments_occluded

    def counting(bvh, origins, targets):
        sent.append(len(origins))
        return traced(bvh, origins, targets)

    monkeypatch.setattr(refine, "segments_occluded", counting)
    x0, y0, x1, y1 = workload.rect
    for inst, thr in ((vis, None), (lam, workload.p3_threshold)):
        if thr is None:
            placement = sc.solve_problem1(inst, workload.p1_k)[0]
        else:
            placement = sc.solve_problem3(inst, workload.p3_k, thr)[0]
        kwargs = dict(threshold=thr, bounds=((x0, y0), (x1, y1)), **workload.refine)
        sent.clear()
        ref = reference_refine_grid(inst, placement, scene.bvh, **kwargs)
        full = sum(sent)
        sent.clear()
        got = sc.refine_grid(inst, placement, scene.bvh, **kwargs)
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
        assert 0 < sum(sent) < full / 2


def test_refine_grid_rejects_a_grid_point_on_a_sample():
    # the point (2.5, 2, 2.8) of the first sensor's grid is also a sample
    _, bvh, samples, _, _, _ = _coarse_fine_setup()
    on_grid = make_sample_set(np.vstack([samples.positions, [[2.5, 2.0, 2.8]]]),
                              np.vstack([samples.normals, [[0.0, 0.0, -1.0]]]))
    cands = sc.CandidateSet(positions=[[2.0, 2.0, 2.8], [5.0, 3.0, 2.8]])
    vm = sc.visibility_matrix(bvh, on_grid, cands)
    for kind, threshold in (
        (QualityKind.VISIBILITY, None),
        (QualityKind.LAMBERT_INVERSE_SQUARE, 0.05),
    ):
        inst = sc.build_instance(on_grid, cands, vm, kind)
        with pytest.raises(CoincidentPointError):
            sc.refine_grid(inst, (0, 1), bvh, pitch_fine=0.5, rounds=1, neighborhood=0.5,
                           threshold=threshold)
    assert issubclass(CoincidentPointError, ValueError)
