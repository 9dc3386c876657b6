import functools
import math
import re
import sys
import time

import numpy as np
import pytest

import surfcover as sc
from surfcover import drivers, ilp
from surfcover.ilp import IlpModel, ModelKind, SolveStatus, _lagrangian_bound

from _bnb_reference import brute_force_solve, covered_count, node_bound, reference_solve
from _lputil import solve_lp_file
from conftest import all_visible, make_sample_set


def vis_instance(bits):
    bits = np.asarray(bits, bool)
    n, m = bits.shape
    samples = make_sample_set(np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)]))
    cands = sc.CandidateSet(positions=np.column_stack([np.arange(m), np.ones(m), np.full(m, 2.0)]))
    vm = sc.VisibilityMatrix(bits=bits, sample_hash=samples.content_hash(),
                             candidate_hash=cands.content_hash())
    return sc.build_instance(samples, cands, vm, sc.QualityKind.VISIBILITY)


def lambert_instance(phi):
    phi = np.asarray(phi, float)
    n, m = phi.shape
    samples = make_sample_set(np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)]))
    cands = sc.CandidateSet(positions=np.column_stack([np.arange(m), np.ones(m), np.full(m, 2.0)]))
    vm = sc.VisibilityMatrix(bits=phi > 0, sample_hash=samples.content_hash(),
                             candidate_hash=cands.content_hash())
    inst = sc.build_instance(samples, cands, vm, sc.QualityKind.LAMBERT_INVERSE_SQUARE)
    # swap in the prescribed quality matrix
    object.__setattr__(inst, "phi", phi)
    return inst


# the 3-candidate example: c0 -> {0, 1}, c1 -> {1, 2, 3}, c2 -> {0}
EXAMPLE_BITS = np.array(
    [[1, 0, 1], [1, 1, 0], [0, 1, 0], [0, 1, 0]], dtype=bool
)


def test_visibility_model_row_structure():
    inst = vis_instance(EXAMPLE_BITS)
    model = sc.build_visibility_model(inst, k=2)
    assert model.n_samples == 4
    assert model.n_candidates == 3
    assert model.kind is ModelKind.MAX_VISIBILITY_COVERAGE
    assert model.k == 2


def test_sample_with_empty_visible_set_never_covered():
    bits = EXAMPLE_BITS.copy()
    bits[2] = False
    inst = vis_instance(bits)
    res = sc.solve(sc.build_visibility_model(inst, k=3))
    assert res.primal == 3.0  # sample 2 can never be covered


def test_k_equals_m_covers_all_coverable():
    inst = vis_instance(EXAMPLE_BITS)
    res = sc.solve(sc.build_visibility_model(inst, k=3))
    assert res.primal == float(EXAMPLE_BITS.any(axis=1).sum())


def test_solve_k1_selects_best_column():
    inst = vis_instance(EXAMPLE_BITS)
    res = sc.solve(sc.build_visibility_model(inst, k=1))
    assert res.placement == (1,)
    assert res.primal == 3.0
    assert res.status is SolveStatus.OPTIMAL
    assert res.gap == 0.0


def test_solve_k2():
    inst = vis_instance(EXAMPLE_BITS)
    res = sc.solve(sc.build_visibility_model(inst, k=2))
    assert res.primal == 4.0
    assert set(res.placement) == {0, 1}


def test_cumulative_insufficient_total_quality():
    phi = np.array([[0.1, 0.1], [1.0, 0.2]])
    inst = lambert_instance(phi)
    res = sc.solve(sc.build_cumulative_model(inst, k=2, threshold=0.5))
    assert res.primal == 1.0  # row 0 sums to 0.2 < 0.5


def test_cumulative_tiny_threshold_equals_visibility():
    rng = np.random.default_rng(5)
    phi = np.where(rng.random((6, 4)) < 0.5, rng.uniform(0.1, 1.0, (6, 4)), 0.0)
    inst = lambert_instance(phi)
    vis_inst = vis_instance(phi > 0)
    for k in (1, 2):
        r_cum = sc.solve(sc.build_cumulative_model(inst, k=k, threshold=1e-6))
        r_vis = sc.solve(sc.build_visibility_model(vis_inst, k=k))
        assert r_cum.primal == r_vis.primal


def test_cumulative_boundary_equality_counts():
    phi = np.array([[0.3]])
    inst = lambert_instance(phi)
    res = sc.solve(sc.build_cumulative_model(inst, k=1, threshold=0.3))
    assert res.primal == 1.0


def line_instance():
    samples = make_sample_set([[0, 0, 0], [4, 0, 0], [8, 0, 0]])
    cands = sc.CandidateSet(positions=[[0, 0, 0], [8, 0, 0]])
    vm = all_visible(samples, cands)
    return sc.build_instance(samples, cands, vm, sc.QualityKind.VISIBILITY)


def test_feasibility_line_k1_r8():
    inst = line_instance()
    res = sc.solve(sc.build_feasibility_model(inst, k=1, radius=8.0, rho=1.0))
    assert res.status is SolveStatus.OPTIMAL


def test_feasibility_line_k1_r79():
    inst = line_instance()
    res = sc.solve(sc.build_feasibility_model(inst, k=1, radius=7.9, rho=1.0))
    assert res.status is SolveStatus.INFEASIBLE
    assert res.placement is None


def test_feasibility_line_k2_r4():
    inst = line_instance()
    res = sc.solve(sc.build_feasibility_model(inst, k=2, radius=4.0, rho=1.0))
    assert res.status is SolveStatus.OPTIMAL


def test_models_reject_out_of_range_fields():
    # a model built directly is checked as a built one is, with the same messages
    inst = vis_instance(EXAMPLE_BITS)
    built = functools.partial(sc.build_feasibility_model, inst, 1)
    direct = functools.partial(IlpModel, ModelKind.FEASIBILITY_COVER, EXAMPLE_BITS, 1)
    for make in (built, direct):
        for radius in (None, -1.0, math.nan):  # the builder checks before comparing
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                make(radius=radius, rho=0.5)
        for rho in (None, math.nan, -0.1, 1.5):
            with pytest.raises(ValueError, match=re.escape("rho must be in [0, 1]")):
                make(radius=1.0, rho=rho)
    rng = np.random.default_rng(5)
    for kind in ModelKind:
        with pytest.raises(ValueError, match="sensor budget k must be non-negative"):
            _random_model(rng, kind, 4, 3, -1)
        for k in (1.5, 2.0, None):
            with pytest.raises(ValueError, match="sensor budget k must be an integer"):
                _random_model(rng, kind, 4, 3, k)
        # a numpy integer budget is stored as a Python int
        assert type(_random_model(rng, kind, 4, 3, np.int64(2)).k) is int
    # fields are stored as Python floats; an infinite radius keeps every visible pair
    assert type(direct(radius=np.float32(np.inf), rho=1).rho) is float
    assert (built(radius=math.inf, rho=0.5).cover == EXAMPLE_BITS).all()


def test_feasibility_monotone_in_radius():
    inst = line_instance()
    feasible_at = [
        sc.solve(sc.build_feasibility_model(inst, k=1, radius=r, rho=1.0)).status
        is SolveStatus.OPTIMAL
        for r in (2.0, 5.0, 8.0, 10.0)
    ]
    # once feasible, stays feasible
    assert feasible_at == sorted(feasible_at)


def test_brute_force_matches_solve_small_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n, m, k = int(rng.integers(2, 12)), int(rng.integers(2, 7)), int(rng.integers(1, 4))
        bits = rng.random((n, m)) < 0.5
        model = IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, bits, k)
        assert sc.solve(model).primal == brute_force_solve(model).primal


def test_brute_force_k0():
    model = IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, EXAMPLE_BITS, 0)
    assert brute_force_solve(model).primal == 0.0
    assert sc.solve(model).primal == 0.0


def test_brute_force_cap():
    model = IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, np.ones((2, 60), bool), 20)
    with pytest.raises(ValueError, match="cap"):
        brute_force_solve(model)


def test_budget_slack_k_above_m():
    inst = vis_instance(EXAMPLE_BITS)
    res = sc.solve(sc.build_visibility_model(inst, k=10))
    assert res.primal == float(EXAMPLE_BITS.any(axis=1).sum())


def test_monotone_in_k():
    rng = np.random.default_rng(17)
    bits = rng.random((20, 8)) < 0.3
    prev = -1.0
    for k in range(1, 9):
        model = IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, bits, k)
        val = sc.solve(model).primal
        assert val >= prev
        prev = val


def test_solve_deterministic():
    rng = np.random.default_rng(23)
    bits = rng.random((15, 7)) < 0.4
    model = IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, bits, 3)
    r1, r2 = sc.solve(model), sc.solve(model)
    assert r1.placement == r2.placement
    assert r1.primal == r2.primal
    assert r1.nodes == r2.nodes


def test_time_limit_reports_bound():
    rng = np.random.default_rng(29)
    bits = rng.random((300, 40)) < 0.08
    model = IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, bits, 8)
    res = sc.solve(model, time_limit=0.01)
    assert res.dual_bound >= res.primal
    assert res.gap >= 0.0


def test_export_lp_minimal(tmp_path):
    inst = vis_instance(np.array([[1]], bool))
    model = sc.build_visibility_model(inst, k=1)
    p = tmp_path / "tiny.lp"
    sc.export_lp(model, p)
    text = p.read_text()
    assert "Maximize" in text and "Subject To" in text and "Binary" in text
    assert "y0 - z0 <= 0" in text
    assert "z0 <= 1" in text


def test_export_lp_feasibility_ratio_row(tmp_path):
    inst = line_instance()
    model = sc.build_feasibility_model(inst, k=1, radius=8.0, rho=1.0)
    p = tmp_path / "feas.lp"
    sc.export_lp(model, p)
    assert "ratio: y0 + y1 + y2 >= 3" in p.read_text()


def test_external_solver_cross_check(tmp_path):
    rng = np.random.default_rng(31)
    for t in range(5):
        n, m, k = int(rng.integers(3, 10)), int(rng.integers(2, 6)), int(rng.integers(1, 3))
        if t % 2 == 0:
            model = IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, rng.random((n, m)) < 0.5, k)
        else:
            phi = np.where(rng.random((n, m)) < 0.6, rng.random((n, m)), 0.0)
            model = IlpModel(ModelKind.THRESHOLD_COVERAGE, phi, k, threshold=0.4)
        path = tmp_path / f"m{t}.lp"
        sc.export_lp(model, path)
        external = solve_lp_file(path)
        assert external == pytest.approx(sc.solve(model).primal)


def _random_model(rng, kind, n, m, k):
    if kind is ModelKind.THRESHOLD_COVERAGE:
        phi = np.where(rng.random((n, m)) < 0.4, rng.uniform(0.05, 1.0, (n, m)), 0.0)
        return IlpModel(kind, phi, k, threshold=float(rng.uniform(0.1, 0.8)))
    bits = rng.random((n, m)) < rng.uniform(0.05, 0.5)
    if kind is ModelKind.FEASIBILITY_COVER:
        return IlpModel(kind, bits, k, radius=1.0, rho=float(rng.uniform(0.2, 1.0)))
    return IlpModel(kind, bits, k)


def _assert_matches_brute_force(model):
    """Checks solve(model) against the oracle and returns it."""
    a, b = sc.solve(model), brute_force_solve(model)
    assert a.status == b.status
    if a.status is SolveStatus.INFEASIBLE:
        # primal is the best count seen, the true maximum only when the B&B
        # ran; dual_bound brackets the maximum and is the certificate
        assert a.placement is None
        assert a.primal <= b.primal <= a.dual_bound + 1e-9
        assert a.dual_bound < model.coverage_target
        return a
    assert len(a.placement) <= model.k
    assert covered_count(model, a.placement) == a.primal
    if model.kind is ModelKind.FEASIBILITY_COVER:
        assert a.primal >= model.coverage_target  # stops at the first subset that reaches it
    else:
        assert a.primal == b.primal
    return a


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_solve_matches_brute_force_across_word_boundaries(kind, n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(8):
        m, k = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        _assert_matches_brute_force(_random_model(rng, kind, n, m, k))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_solve_edge_budgets_and_empty_columns(kind):
    rng = np.random.default_rng(7)
    for k in (0, 1, 3, 7, 12):  # k = 0, k > M
        model = _random_model(rng, kind, 65, 7, k)
        cover = model.cover.copy()
        cover[:, [1, 4]] = 0  # all-zero columns are never worth a pick
        model = IlpModel(kind, cover, k, model.threshold, model.radius, model.rho)
        _assert_matches_brute_force(model)


def test_feasibility_exits_at_target():
    bits = np.zeros((64, 6), bool)
    bits[:40, 0] = True
    bits[40:, 1] = True
    model = IlpModel(ModelKind.FEASIBILITY_COVER, bits, 2, radius=1.0, rho=1.0)
    res = sc.solve(model)
    # the greedy start already reaches the target: no branching is needed
    assert res.status is SolveStatus.OPTIMAL
    assert res.nodes == 0
    assert res.placement == (0, 1)


def test_saturated_visibility_proved_at_root():
    # the greedy start sees every sample any candidate can see, and the union
    # cap on the bound proves that at the root node
    rng = np.random.default_rng(41)
    bits = rng.random((300, 30)) < 0.5
    bits[:20] = False  # never coverable
    model = IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, bits, 6)
    res = sc.solve(model)
    assert res.primal == bits.any(axis=1).sum()
    assert res.status is SolveStatus.OPTIMAL
    assert res.nodes == 1


def test_solve_leaves_recursion_limit_alone():
    before = sys.getrecursionlimit()
    rng = np.random.default_rng(43)
    sc.solve(IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, rng.random((40, 300)) < 0.05, 3))
    assert sys.getrecursionlimit() == before


def test_time_limit_bounds_the_warm_start():
    # the 1-swap search of the warm start alone takes longer than the limit
    rng = np.random.default_rng(47)
    bits = rng.random((20000, 300)) < 0.02
    model = IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, bits, 12)
    t0 = time.perf_counter()
    res = sc.solve(model, time_limit=0.001)
    assert time.perf_counter() - t0 < 0.001 + 0.5
    assert res.status is not SolveStatus.OPTIMAL or res.gap == 0
    assert res.dual_bound >= res.primal


def _lagrangian_value(cover, lam, k):
    """L(lam) of the max-coverage relaxation, written from its definition."""
    rows = sum(max(0.0, 1.0 - x) for x in lam)
    weights = sorted((sum(lam[i] for i in np.flatnonzero(col)) for col in cover.T), reverse=True)
    return rows + sum(w for w in weights[:k] if w > 0)


def test_lagrangian_value_bounds_the_optimum():
    rng = np.random.default_rng(53)
    for _ in range(200):
        n, m, k = int(rng.integers(1, 30)), int(rng.integers(1, 8)), int(rng.integers(1, 4))
        model = IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, rng.random((n, m)) < 0.3, k)
        best = brute_force_solve(model).primal
        for lam in (rng.random(n), rng.random(n) ** 4, (rng.random(n) < 0.5).astype(float)):
            assert _lagrangian_value(model.cover, lam, min(k, m)) >= best - 1e-9


def test_lagrangian_bound_never_undercuts_the_optimum():
    # asked to prove a target one above the optimum, the steps may get as
    # close as they can but never below the optimum itself
    rng = np.random.default_rng(59)
    for _ in range(200):
        n, m, k = int(rng.integers(1, 40)), int(rng.integers(1, 8)), int(rng.integers(1, 4))
        model = IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, rng.random((n, m)) < 0.3, k)
        best = brute_force_solve(model).primal
        assert _lagrangian_bound(model.cover, min(k, m), int(best) + 1, math.inf)[0] >= best - 1e-9


def test_feasibility_status_matches_brute_force_over_many_models():
    rng = np.random.default_rng(61)
    root_proofs = 0
    for _ in range(1200):
        n, m, k = int(rng.integers(1, 90)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
        model = _random_model(rng, ModelKind.FEASIBILITY_COVER, n, m, k)
        a = _assert_matches_brute_force(model)
        if a.status is SolveStatus.INFEASIBLE:
            target = model.coverage_target
            lagrangian = _lagrangian_bound(model.cover, min(k, m), target, math.inf)[0]
            if lagrangian < target - 1e-6:
                root_proofs += 1
                assert a.nodes == 1
                assert a.dual_bound == max(a.primal, lagrangian)
    assert root_proofs > 100


def _k4_edges(copies):
    """Samples are the 6 edges of K4, repeated `copies` times; candidates are
    its 4 vertices. Two vertices cover 5 edges, while the LP covers all 6 with
    every z at 1/2, so no Lagrangian bound proves the target 5 * copies + 1."""
    block = np.zeros((6, 4), bool)
    for i, (u, v) in enumerate([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]):
        block[i, [u, v]] = True
    rho = (5 * copies + 1) / (6 * copies)
    cover = np.tile(block, (copies, 1))
    return IlpModel(ModelKind.FEASIBILITY_COVER, cover, 2, radius=1.0, rho=rho)


def test_a_lagrangian_selection_that_covers_the_target_settles_the_root():
    # c0 sees the middle six samples, c1 and c2 five each, and together all
    # ten. The greedy picks take c0 and then cover 8; the first Lagrangian
    # step weighs c1 and c2 at 3.5 against c0's 3, and its own selection
    # covers all ten, so the root settles the model before any swap
    bits = np.zeros((10, 3), bool)
    bits[2:8, 0] = bits[:5, 1] = bits[5:, 2] = True
    model = IlpModel(ModelKind.FEASIBILITY_COVER, bits, 2, radius=1.0, rho=1.0)
    assert ilp._greedy_picks(ilp._PackedCover(bits), 3, 2) == ([0, 1], 8)
    res = sc.solve(model)
    assert (res.status, res.nodes, res.placement) == (SolveStatus.OPTIMAL, 1, (1, 2))
    assert res.primal == 10.0
    assert covered_count(model, res.placement) >= model.coverage_target
    assert _same_answer(res, reference_solve(model))
    # the multipliers it ends at are those of its one step, over all rows
    assert res.multipliers.tolist() == [1.0, 1.0] + [0.5] * 6 + [1.0, 1.0]


def test_unproved_infeasibility_falls_back_to_branching():
    model = _k4_edges(1)
    res = sc.solve(model)
    assert res.status is SolveStatus.INFEASIBLE
    assert res.nodes > 1
    assert res.primal == res.dual_bound == 5.0


def test_time_limit_bounds_the_lagrangian_steps():
    # without the clock, the subgradient steps on 120,000 rows take far
    # longer than the limits below
    model = _k4_edges(20000)
    t0 = time.perf_counter()
    res = sc.solve(model, time_limit=0.001)
    assert time.perf_counter() - t0 < 0.001 + 0.5
    assert res.status is SolveStatus.TIME_LIMIT
    assert isinstance(res.dual_bound, float) and isinstance(res.primal, float)
    t0 = time.perf_counter()
    assert _lagrangian_bound(model.cover, 2, model.coverage_target, t0 + 0.01)[0] >= 100000
    assert time.perf_counter() - t0 < 0.01 + 0.5


def test_lagrangian_steps_stop_once_the_halvings_stall(monkeypatch):
    # no bound proves the K4 model, and its best bound, 6, is met early: the
    # steps stop after a few halvings without a better bound instead of
    # running to the step cap. With a deadline the clock is read once a step.
    model = _k4_edges(1)
    steps = 0
    clock = time.perf_counter

    def counting_clock():
        nonlocal steps
        steps += 1
        return clock()

    monkeypatch.setattr(ilp.time, "perf_counter", counting_clock)
    bound, _, witness = _lagrangian_bound(model.cover, 2, model.coverage_target, math.inf)
    monkeypatch.undo()
    assert steps < 100
    assert bound == 6.0 and witness is None


def _same_answer(a, b):
    return (a.placement, a.primal, a.status, a.dual_bound) == (
        b.placement, b.primal, b.status, b.dual_bound)


def test_solve_matches_the_per_child_reference_search():
    rng = np.random.default_rng(67)
    kinds = list(ModelKind)
    for t in range(3000):
        n, m, k = int(rng.integers(1, 90)), int(rng.integers(1, 10)), int(rng.integers(0, 6))
        model = _random_model(rng, kinds[t % 3], n, m, k)
        a, ref = sc.solve(model), reference_solve(model)
        assert _same_answer(a, ref), (t, a, ref)
        assert a.nodes <= ref.nodes


def test_feasibility_stops_at_the_first_selection_that_meets_the_target():
    # a target one above the greedy picks and their swaps makes the B&B run
    # whenever the Lagrangian test settles nothing at the root; the search
    # stops at the first selection that reaches the target, which may cover
    # fewer samples than a selection the search has not reached yet
    rng = np.random.default_rng(71)
    searched = short_of_the_maximum = 0
    for _ in range(1000):
        n, m, k = int(rng.integers(60, 150)), int(rng.integers(10, 20)), int(rng.integers(3, 6))
        bits = rng.random((n, m)) < rng.uniform(0.05, 0.3)
        scorer = ilp._PackedCover(bits)
        picks, value = ilp._greedy_picks(scorer, m, min(k, m))
        _, warm = ilp._improve_by_swaps(scorer, m, picks, value, math.inf)
        best = sc.solve(IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, bits, k)).primal
        if best < warm + 2:
            continue
        model = IlpModel(ModelKind.FEASIBILITY_COVER, bits, k, radius=1.0, rho=(warm + 1) / n)
        if ilp._root(model, scorer, min(k, m), model.coverage_target, math.inf, None)[2]:
            continue  # settled at the root by a Lagrangian step's selection
        a, ref = sc.solve(model), reference_solve(model)
        assert _same_answer(a, ref)
        assert a.status is SolveStatus.OPTIMAL and a.nodes > 1
        searched += 1
        short_of_the_maximum += a.primal < best
    assert searched >= 10 and short_of_the_maximum >= 3


def test_packed_values_never_increase_in_branching_order():
    # a node's last pick keeps the first maximum of the closing values in
    # this order; for the feasibility kind that is also the first value to
    # meet the target only because the values never increase along it
    rng = np.random.default_rng(73)
    crossing = 0
    for _ in range(2000):
        n, m = int(rng.integers(1, 200)), int(rng.integers(1, 24))
        scorer = ilp._PackedCover(rng.random((n, m)) < rng.uniform(0.02, 0.6))
        # a random covered mask, packed the way the cover columns are
        state = ilp._PackedCover(rng.random((n, 1)) < rng.uniform(0.0, 0.8)).cols[0]
        free = np.flatnonzero(rng.random(m) < rng.uniform(0.2, 1.0))
        gains, closed, order, _ = scorer.expand(state, free, 1)
        assert (order == np.argsort(-gains, kind="stable")).all()
        vals = closed[order]
        assert (vals[1:] <= vals[:-1]).all()
        assert (closed == scorer.value(state) + gains).all()
        crossing += scorer.cols.shape[1] > 1
    assert crossing > 1000


def test_a_stopped_search_never_bounds_below_the_optimum(monkeypatch):
    # a clock that advances one tick per read stops the search after a few
    # pops; the stacked nodes' bounds, exact with one pick left, must still
    # cover every selection the search did not reach
    rng = np.random.default_rng(83)
    kinds = list(ModelKind)
    ticks = [0.0]

    def tick():
        ticks[0] += 1.0
        return ticks[0]

    monkeypatch.setattr(ilp.time, "perf_counter", tick)
    stopped = 0
    for t in range(1500):
        n, m, k = int(rng.integers(1, 90)), int(rng.integers(2, 12)), int(rng.integers(2, 6))
        model = _random_model(rng, kinds[t % 3], n, m, k)
        best = brute_force_solve(model).primal
        ticks[0] = 0.0
        res = sc.solve(model, time_limit=float(rng.integers(0, 40)))
        if res.status in (SolveStatus.TIME_LIMIT, SolveStatus.FEASIBLE):
            stopped += 1
            assert res.primal <= best <= res.dual_bound, (t, res, best)
    assert stopped > 300


@pytest.mark.parametrize("kind", [ModelKind.MAX_VISIBILITY_COVERAGE, ModelKind.THRESHOLD_COVERAGE])
def test_one_pick_left_closes_with_exact_values_and_bound(kind):
    # with one pick left each closing value is the covered count of the
    # state plus that candidate, and the bound is their best (the state's
    # own count when no candidate is free)
    rng = np.random.default_rng(79)
    for _ in range(1000):
        n, m = int(rng.integers(1, 150)), int(rng.integers(1, 16))
        model = _random_model(rng, kind, n, m, 1)
        if kind is ModelKind.THRESHOLD_COVERAGE:
            scorer = ilp._QualitySums(model.cover, model.threshold)
        else:
            scorer = ilp._PackedCover(model.cover)
        state = functools.reduce(scorer.add, np.flatnonzero(rng.random(m) < 0.3), scorer.root)
        free = np.flatnonzero(rng.random(m) < rng.uniform(0.0, 1.0))
        value = scorer.value(state)
        _, closed, _, bounds = scorer.expand(state, free, 1)
        assert closed.tolist() == [scorer.value(scorer.add(state, j)) for j in free]
        assert bounds[0] == max(closed.tolist(), default=value)


@pytest.mark.parametrize("kind", [ModelKind.MAX_VISIBILITY_COVERAGE, ModelKind.THRESHOLD_COVERAGE])
def test_one_pass_orders_and_bounds_the_whole_exclusion_chain(kind):
    # the exclusion siblings of a state pick in repeated-argmax order, and
    # the bound of the link whose free set is order[s:] is the one the
    # per-node oracle gives that free set on its own, to the last bit
    rng = np.random.default_rng(89)
    for t in range(600):
        n, m = int(rng.integers(1, 150)), int(rng.integers(1, 16))
        model = _random_model(rng, kind, n, m, 1)
        if kind is ModelKind.THRESHOLD_COVERAGE:
            if t % 2:  # quarter steps: exact sums, tied scores and needs met exactly
                phi = np.where(model.cover > 0, rng.integers(1, 4, (n, m)) / 4, 0.0)
                model = IlpModel(kind, phi, 1, threshold=float(rng.integers(1, 6)) / 4)
            scorer = ilp._QualitySums(model.cover, model.threshold)
        else:
            scorer = ilp._PackedCover(model.cover)
        state = functools.reduce(scorer.add, np.flatnonzero(rng.random(m) < 0.3), scorer.root)
        free = np.flatnonzero(rng.random(m) < rng.uniform(0.0, 1.0))
        budget = int(rng.integers(1, 6))
        value = scorer.value(state)
        scores, closed, order, bounds = scorer.expand(state, free, budget)
        assert (closed is None) == (budget > 1)
        assert len(bounds) == free.size + 1 and bounds[-1] == value
        rest = free
        for s in range(free.size + 1):
            ref_scores, ref_bound = node_bound(scorer, state, value, rest, budget)
            if s == 0:
                assert (scores == ref_scores).all()
            assert bounds[s] == ref_bound, (t, s)
            if s < free.size:
                assert free[order[s]] == rest[np.argmax(ref_scores)], (t, s)
                rest = rest[rest != free[order[s]]]


@pytest.fixture(scope="module")
def room_models():
    """Every model the drivers solve on the criterion-5 room: P1 at k=1..6,
    P3 at k=1..3 and P2 at k=1..4 at each radius of its bisection."""
    mesh = sc.gen_room(extent=(6, 4, 3), obstacles=[((2, 1.5, 0), (3.5, 2.5, 1.0))])
    samples = sc.sample_surface(mesh, pitch=0.65)
    candidates = sc.generate_candidates_plane(2.8, (0.4, 0.4, 5.6, 3.6), 0.62)
    vm = sc.visibility_matrix(sc.build_bvh(mesh), samples, candidates)
    vis = sc.build_instance(samples, candidates, vm, sc.QualityKind.VISIBILITY)
    lam = sc.build_instance(samples, candidates, vm, sc.QualityKind.LAMBERT_INVERSE_SQUARE)
    models = []

    def recording_solve(model, **kwargs):
        models.append(model)
        return ilp.solve(model, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(drivers, "solve", recording_solve)
        for k in range(1, 7):
            sc.solve_problem1(vis, k)
        for k in range(1, 4):
            sc.solve_problem3(lam, k, threshold=0.05)
        for k in range(1, 5):
            sc.solve_problem2(vis, k, rho=0.9)
    return models


def test_solve_matches_the_per_child_reference_search_on_the_room(room_models):
    kinds = {kind: sum(m.kind is kind for m in room_models) for kind in ModelKind}
    assert kinds[ModelKind.MAX_VISIBILITY_COVERAGE] == 6
    assert kinds[ModelKind.THRESHOLD_COVERAGE] == 3
    assert kinds[ModelKind.FEASIBILITY_COVER] > 4 * 5  # several bisection steps per k
    nodes = ref_nodes = 0
    for model in room_models:
        a, ref = sc.solve(model), reference_solve(model)
        assert _same_answer(a, ref), (model.kind, model.k, model.radius)
        assert a.nodes <= ref.nodes
        nodes, ref_nodes = nodes + a.nodes, ref_nodes + ref.nodes
    assert nodes < ref_nodes


# (nodes, placement) of every room model as `ilp.solve` finds them from a cold
# Lagrangian start: P1 at k=1..6, P3 at k=1..3, then P2's bisection steps.
# The P1 and P3 entries were recorded while each exclusion sibling was still
# bounded by a pass of its own; a P2 step with 1 node and a placement ends at
# a Lagrangian step's covering selection
ROOM_SEARCH = [
    (1, (13,)), (1, (13, 40)), (1, (13, 40)), (1, (13, 40)), (1, (13, 40)), (1, (13, 40)),
    (1, (27,)), (103, (9, 44)), (1707, (3, 24, 51)),
    (0, (13,)), (1, None), (1, None), (0, (25,)), (1, None), (0, (28,)), (1, None),
    (0, (28,)), (0, (28,)), (1, None), (1, None), (1, None), (0, (28,)), (1, None),
    (0, (28,)), (0, (28,)), (0, (13, 40)), (1, (9, 45)), (1, None), (1, None), (1, None),
    (1, None), (1, None), (1, None), (1, (15, 44)), (1, None), (1, None), (1, None),
    (1, None), (1, (15, 44)), (1, None), (1, None), (1, None), (0, (13, 40)),
    (0, (7, 23, 44)), (1, None), (1, None), (0, (9, 37, 40)), (1, (13, 17, 44)), (1, None),
    (1, (13, 16, 44)), (1, (13, 16, 44)), (1, (13, 16, 44)), (1, None), (1, None),
    (1, None), (1, (13, 16, 44)), (1, None), (1, None), (1, None), (0, (13, 40)),
    (0, (4, 12, 40, 44)), (1, None), (1, (7, 17, 43, 46)), (1, None), (1, (10, 13, 43, 46)),
    (1, None), (1, (7, 10, 43, 46)), (1, None), (1, (7, 10, 43, 46)), (1, (7, 10, 43, 46)),
    (1, (10, 13, 43, 46)), (1, (10, 13, 43, 46)), (1, None), (1, None), (1, None),
    (1, (10, 13, 43, 46)),
]


def test_the_room_search_visits_the_recorded_nodes(room_models):
    # any change to the search's order, bounds or stop rule shows up here
    assert [(r.nodes, r.placement) for r in map(sc.solve, room_models)] == ROOM_SEARCH


def test_a_threshold_search_counts_each_state_inside_its_expansion(room_models, monkeypatch):
    # `expand` counts a state's value from the open-row mask it builds anyway;
    # only the warm start's final count calls `value`
    model = next(m for m in room_models if m.kind is ModelKind.THRESHOLD_COVERAGE and m.k == 3)
    calls = [0]
    value = ilp._QualitySums.value

    def counted(self, state):
        calls[0] += 1
        return value(self, state)

    monkeypatch.setattr(ilp._QualitySums, "value", counted)
    res = sc.solve(model)
    assert (res.nodes, res.placement) == (1707, (3, 24, 51))
    assert calls[0] == 1
