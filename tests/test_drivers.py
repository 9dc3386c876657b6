import math
import time
from dataclasses import replace

import numpy as np
import pytest

import surfcover as sc
from surfcover.coverage import QualityKind
from surfcover.drivers import candidate_radii
from surfcover import drivers, ilp
from surfcover.ilp import IlpModel, ModelKind, SolveResult, SolveStatus

from _bnb_reference import brute_force_solve, covered_count
from conftest import all_visible, make_sample_set


def random_instance(rng, n, m, kind):
    pts = np.column_stack([rng.uniform(0, 8, (n, 2)), np.zeros(n)])
    cand = np.column_stack([rng.uniform(0, 8, (m, 2)), np.full(m, 2.0)])
    samples = make_sample_set(pts)
    cands = sc.CandidateSet(positions=cand)
    vm = sc.VisibilityMatrix(
        bits=rng.random((n, m)) < 0.7,
        sample_hash=samples.content_hash(),
        candidate_hash=cands.content_hash(),
    )
    return sc.build_instance(samples, cands, vm, kind)


def line_instance():
    samples = make_sample_set([[0, 0, 0], [4, 0, 0], [8, 0, 0]])
    cands = sc.CandidateSet(positions=[[0, 0, 0], [8, 0, 0]])
    vm = all_visible(samples, cands)
    return sc.build_instance(samples, cands, vm, QualityKind.VISIBILITY)


def test_problem1_k0_trivial():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, 8, 4, QualityKind.VISIBILITY)
    placement, report, result = sc.solve_problem1(inst, 0)
    assert placement == ()
    assert report.objective == 0.0
    assert result.primal == 0.0
    assert (result.status, result.gap, result.nodes) == (SolveStatus.OPTIMAL, 0.0, 0)


def test_problem3_k0_rejects_bad_threshold():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, 8, 4, QualityKind.LAMBERT_INVERSE_SQUARE)
    for k in (0, 1):
        for threshold in (-1.0, 0.0, None, math.nan, math.inf):
            with pytest.raises(ValueError, match="threshold must be positive"):
                sc.solve_problem3(inst, k, threshold)
            # a model built directly is checked the same way
            with pytest.raises(ValueError, match="threshold must be positive"):
                IlpModel(ModelKind.THRESHOLD_COVERAGE, inst.phi, k, threshold)
    with pytest.raises(ValueError, match="threshold must be positive"):
        sc.two_phase_coverage(inst, None, k=1, pitch_fine=0.5, neighborhood=1.0)


def test_problem1_k_equals_m_covers_everything_coverable():
    rng = np.random.default_rng(1)
    inst = random_instance(rng, 12, 5, QualityKind.VISIBILITY)
    _, report, _ = sc.solve_problem1(inst, 5)
    assert report.objective == float(inst.vis.bits.any(axis=1).sum())


def test_problem1_monotone_in_k():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, 20, 6, QualityKind.VISIBILITY)
    prev = -1.0
    for k in range(0, 7):
        _, report, _ = sc.solve_problem1(inst, k)
        assert report.objective >= prev
        prev = report.objective


def test_problem2_line_k2():
    r, placement, _ = sc.solve_problem2(line_instance(), k=2, rho=1.0)
    assert r == pytest.approx(4.0)
    assert set(placement) == {0, 1}


def test_problem2_line_k1():
    r, placement, _ = sc.solve_problem2(line_instance(), k=1, rho=1.0)
    assert r == pytest.approx(8.0)


def test_problem2_rho_zero_gives_smallest_radius():
    inst = line_instance()
    r, _, _ = sc.solve_problem2(inst, k=1, rho=0.0)
    assert r == pytest.approx(candidate_radii(inst)[0])


def test_problem2_infeasible_when_no_visibility():
    samples = make_sample_set([[0, 0, 0], [4, 0, 0]])
    cands = sc.CandidateSet(positions=[[0, 0, 2]])
    vm = sc.VisibilityMatrix(
        bits=np.array([[True], [False]]),
        sample_hash=samples.content_hash(),
        candidate_hash=cands.content_hash(),
    )
    inst = sc.build_instance(samples, cands, vm, QualityKind.VISIBILITY)
    with pytest.raises(sc.InfeasibleError):
        sc.solve_problem2(inst, k=1, rho=1.0)


def _time_out_call(monkeypatch, which):
    """Make the `which`-th feasibility solve of the bisection run out of time."""
    real = drivers.solve
    calls = []

    def solve(model, **kwargs):
        calls.append(model.radius)
        if len(calls) == which:
            return SolveResult(SolveStatus.TIME_LIMIT, (), 0.0, 3.0, 1.0, 1, 0.0)
        return real(model, **kwargs)

    monkeypatch.setattr(drivers, "solve", solve)
    return calls


def test_problem2_time_limit_returns_last_certified_radius(monkeypatch):
    # radii are 0, 4 and 8; k=2 covers everything from r=4 on, and the solve
    # at r=4 is the one that runs out of time
    calls = _time_out_call(monkeypatch, 2)
    r, placement, res = sc.solve_problem2(line_instance(), k=2, rho=1.0, time_limit=1.0)
    assert calls == [8.0, 4.0]  # nothing is solved after the timeout
    assert r == pytest.approx(8.0)  # proven feasible, not proven optimal
    assert res.status is SolveStatus.TIME_LIMIT
    assert len(placement) <= 2


def test_problem2_top_radius_timeout_is_not_infeasible(monkeypatch):
    calls = _time_out_call(monkeypatch, 1)
    r, _, res = sc.solve_problem2(line_instance(), k=2, rho=1.0, time_limit=1.0)
    assert calls == [8.0]
    assert r == pytest.approx(8.0)
    assert res.status is SolveStatus.TIME_LIMIT


def _probed_radii(monkeypatch, inst, spend=0.0, **kwargs):
    """solve_problem2 with every step first spending `spend` s of its budget;
    returns its result and the radii it probed."""
    real = drivers.solve
    radii = []

    def solve(model, time_limit=None, **kwargs):
        radii.append(model.radius)
        time.sleep(min(time_limit, spend) if time_limit is not None else spend)
        return real(model, **kwargs)

    monkeypatch.setattr(drivers, "solve", solve)
    out = sc.solve_problem2(inst, **kwargs)
    monkeypatch.undo()
    return out, radii


def test_problem2_does_not_solve_the_largest_radius_twice(monkeypatch):
    # radii are 1 and sqrt(10); only the largest covers both samples, so the
    # bisection climbs to it after the top probe has already proved it
    samples = make_sample_set([[0, 0, 0], [3, 0, 0]])
    cands = sc.CandidateSet(positions=[[0, 0, 1]])
    inst = sc.build_instance(samples, cands, all_visible(samples, cands), QualityKind.VISIBILITY)
    (r, placement, res), radii = _probed_radii(monkeypatch, inst, k=1, rho=1.0)
    assert radii == [math.sqrt(10.0), 1.0]
    assert r == math.sqrt(10.0) and placement == (0,)
    assert res.status is SolveStatus.OPTIMAL


def test_problem2_time_limit_bounds_the_whole_search(monkeypatch):
    # each step spends 20 ms, so 50 ms covers the first two and a half of
    # the nine steps; the search must share the limit, not restart it
    inst = random_instance(np.random.default_rng(5), 40, 8, QualityKind.VISIBILITY)
    (r_opt, _, _), all_radii = _probed_radii(monkeypatch, inst, k=2, rho=0.9)
    assert len(all_radii) >= 6
    t0 = time.perf_counter()
    (r, placement, res), radii = _probed_radii(
        monkeypatch, inst, spend=0.02, k=2, rho=0.9, time_limit=0.05
    )
    assert time.perf_counter() - t0 < 0.05 + 0.05
    assert res.status is SolveStatus.TIME_LIMIT
    assert radii == all_radii[: len(radii)]  # the same bisection, cut short
    assert r in radii and r >= r_opt  # the last certified radius
    model = sc.build_feasibility_model(inst, 2, r, 0.9)
    assert covered_count(model, placement) >= model.coverage_target


def test_problem2_result_is_a_witnessed_optimum():
    # exactness: feasible at r*, infeasible at the next smaller candidate radius
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = random_instance(rng, 10, 5, QualityKind.VISIBILITY)
        if not inst.vis.bits.any():
            continue
        rho = float(rng.choice([0.5, 0.8, 1.0]))
        k = int(rng.integers(1, 4))
        try:
            r_star, placement, _ = sc.solve_problem2(inst, k=k, rho=rho)
        except sc.InfeasibleError:
            continue
        radii = candidate_radii(inst)
        idx = int(np.searchsorted(radii, r_star))
        assert radii[idx] == pytest.approx(r_star)
        from surfcover.ilp import SolveStatus, build_feasibility_model

        assert (
            sc.solve(build_feasibility_model(inst, k, r_star, rho)).status
            is SolveStatus.OPTIMAL
        )
        if idx > 0:
            below = float(radii[idx - 1])
            assert (
                sc.solve(build_feasibility_model(inst, k, below, rho)).status
                is SolveStatus.INFEASIBLE
            )


def _lagrangian_at_radii(instance, lam, k, radii):
    """L(lam) of the feasibility model at each radius: sum_i max(0, 1 - lam_i)
    plus the k largest positive column weights, each column's weight at r
    being the running sum of lam over its visible samples in distance order
    up to r."""
    weights = np.empty((instance.n_candidates, len(radii)))
    for j in range(instance.n_candidates):
        seen = np.flatnonzero(instance.vis.bits[:, j])
        order = np.argsort(instance.dist[seen, j])
        running = np.concatenate([[0.0], np.cumsum(lam[seen][order])])
        weights[j] = running[np.searchsorted(instance.dist[seen, j][order], radii, "right")]
    top = np.sort(weights, axis=0)[-k:]
    return np.maximum(0.0, 1.0 - lam).sum() + np.maximum(top, 0.0).sum(axis=0)


def test_problem2_carries_multipliers_that_prove_every_radius_below_the_optimum(
    room_scene, monkeypatch
):
    # the step just below r* is proved at the root, and the multipliers it
    # hands on bound that radius and every smaller one below the target
    _, _, samples, candidates, vm = room_scene
    inst = sc.build_instance(samples, candidates, vm, QualityKind.VISIBILITY)
    radii = candidate_radii(inst)
    real = drivers.solve
    steps = {}

    def solve(model, **kwargs):
        steps[model.radius] = res = real(model, **kwargs)
        return res

    monkeypatch.setattr(drivers, "solve", solve)
    for k in range(1, 5):
        steps.clear()
        r_star, _, _ = sc.solve_problem2(inst, k, rho=0.9)
        idx = int(np.searchsorted(radii, r_star))
        below = steps[float(radii[idx - 1])]
        assert (below.status, below.nodes) == (SolveStatus.INFEASIBLE, 1)
        lam = below.multipliers
        assert lam.shape == (inst.n_samples,) and 0 <= lam.min() and lam.max() <= 1
        target = sc.build_feasibility_model(inst, k, r_star, 0.9).coverage_target
        assert (_lagrangian_at_radii(inst, lam, k, radii[:idx]) < target - ilp._PROOF_TOL).all()


def test_problem2_calls_share_no_multipliers(room_scene, monkeypatch):
    # the multipliers live inside one call: a second call repeats the first
    # one's answer and each of its Lagrangian step counts (one clock read per
    # step)
    _, _, samples, candidates, vm = room_scene
    inst = sc.build_instance(samples, candidates, vm, QualityKind.VISIBILITY)
    real, clock = ilp._lagrangian_bound, time.perf_counter
    counts = []

    def counted(*args):
        reads = [0]

        def counting_clock():
            reads[0] += 1
            return clock()

        with monkeypatch.context() as mp:
            mp.setattr(ilp.time, "perf_counter", counting_clock)
            out = real(*args)
        counts.append(reads[0])
        return out

    monkeypatch.setattr(ilp, "_lagrangian_bound", counted)
    runs = []
    for _ in range(2):
        counts.clear()
        r, placement, res = sc.solve_problem2(inst, 3, rho=0.9)
        runs.append((r, placement, replace(res, elapsed=0.0), list(counts)))
    assert runs[0] == runs[1]
    assert len(runs[0][3]) > 3


def test_problem3_huge_threshold_covers_nothing():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, 10, 4, QualityKind.LAMBERT_INVERSE_SQUARE)
    _, report, _ = sc.solve_problem3(inst, 3, threshold=1e9)
    assert report.objective == 0.0


def test_problem3_small_threshold_matches_problem1():
    rng = np.random.default_rng(5)
    lam = random_instance(rng, 12, 5, QualityKind.LAMBERT_INVERSE_SQUARE)
    vis = sc.build_instance(lam.samples, lam.candidates, lam.vis, QualityKind.VISIBILITY)
    floor = lam.phi[lam.phi > 0].min()
    for k in (1, 2, 3):
        _, r3, _ = sc.solve_problem3(lam, k, threshold=floor / 2)
        _, r1, _ = sc.solve_problem1(vis, k)
        # a threshold below every positive quality reduces to plain visibility
        assert r3.objective == r1.objective


def test_problem3_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(10):
        inst = random_instance(rng, 8, 5, QualityKind.LAMBERT_INVERSE_SQUARE)
        k = int(rng.integers(1, 4))
        phi = float(rng.uniform(0.001, 0.05))
        _, report, result = sc.solve_problem3(inst, k, threshold=phi)
        model = IlpModel(ModelKind.THRESHOLD_COVERAGE, inst.phi, k, threshold=phi)
        assert result.primal == brute_force_solve(model).primal


def test_two_phase_quality_refines_without_regressing():
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(0, 10, (30, 2)), rng.uniform(0, 0.4, 30)])
    samples = make_sample_set(pts)
    report = sc.two_phase_quality(samples, k=3, plane=sc.PlaneDeployment(3.0))
    assert report.problem == 2
    assert report.refined.objective <= report.coarse.objective + 1e-12
    assert report.certified_factor <= 2.0 + 1e-12
    assert report.refined.positions.shape == (3, 3)


def test_two_phase_quality_k1_certificate_consistent():
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.uniform(0, 6, (15, 2)), np.zeros(15)])
    samples = make_sample_set(pts)
    report = sc.two_phase_quality(samples, k=1, plane=sc.PlaneDeployment(2.0))
    # k = 1 phase 2 is exactly the constrained 1-center optimum
    exact = sc.min_sphere_fixed_plane(pts, 2.0).radius
    assert report.refined.objective == pytest.approx(exact, abs=1e-9)


def test_two_phase_coverage_room(room_scene):
    mesh, bvh, samples, candidates, vm = room_scene
    inst = sc.build_instance(samples, candidates, vm, QualityKind.VISIBILITY)
    report = sc.two_phase_coverage(
        inst, bvh, k=2, pitch_fine=0.4, neighborhood=0.8, rounds=1
    )
    assert report.problem == 1
    assert report.refined.objective >= report.coarse.objective
    assert report.certified_factor is None
