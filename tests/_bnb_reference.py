"""Reference branch and bound and the brute-force oracle.

`reference_solve` is the depth-first loop that pushes, pops and re-expands
one child per free candidate all the way to the leaves, each node bounded on
its own by `node_bound`. `ilp.solve` closes a node's last pick in one
vectorised pass and reads every exclusion sibling's bound from its parent's
pass instead; the tests require both to give the same placement, primal,
status and dual bound. The reference takes no time limit, starts from the
solver's own root (`ilp._root`: greedy picks, Lagrangian test, swaps) and
shares its scorers (`add`, `value`), so only the search loop and the
per-node bound differ.

`brute_force_solve` enumerates every k-subset, counting each with
`covered_count`, the model's covered count written from its definition.
"""

import itertools
import math

import numpy as np

from surfcover import ilp
from surfcover.coverage import THRESHOLD_TOL, meets_threshold
from surfcover.ilp import ModelKind, SolveResult, SolveStatus

BRUTE_FORCE_CAP = 10**6


def _top_sum(a: np.ndarray, t: int):
    """Sum of the t largest entries along the last axis."""
    f = a.shape[-1]
    if t < f:
        a = np.partition(a, f - t, axis=-1)[..., f - t :]
    return a.sum(axis=-1)


def node_bound(scorer, state, value: int, free: np.ndarray, budget: int):
    """Branching scores of `free` and an upper bound on the subtree of one
    node, evaluated for that node's free set alone. One pick left bounds by
    the best closing value. With more, the boolean kinds take the `budget`
    best gains capped by the union of the free columns, and the threshold
    kind lets each open sample take its `budget` best free contributions."""
    if isinstance(scorer, ilp._PackedCover):
        fresh = scorer.cols[free] & ~state
        gains = np.bitwise_count(fresh).sum(axis=1, dtype=np.int64)
        if budget == 1:
            return gains, int((value + gains).max(initial=value))
        reach = scorer.value(np.bitwise_or.reduce(fresh, axis=0))
        return gains, value + min(int(_top_sum(gains, budget)), reach)
    open_rows = np.flatnonzero(~meets_threshold(state, scorer.threshold))
    sums = state[open_rows]
    need = scorer.threshold - sums
    sub = scorer.phi[open_rows][:, free]
    scores = np.minimum(sub, need[:, None]).sum(axis=0)
    if budget == 1:
        closed = value + meets_threshold(sums[:, None] + sub, scorer.threshold).sum(axis=0)
        return scores, int(closed.max(initial=value))
    reachable = need <= _top_sum(sub, budget) + THRESHOLD_TOL
    return scores, value + int(reachable.sum())


def reference_solve(model: ilp.IlpModel) -> SolveResult:
    m = model.n_candidates
    k = min(model.k, m)
    target = model.coverage_target if model.kind is ModelKind.FEASIBILITY_COVER else math.inf
    if model.kind is ModelKind.THRESHOLD_COVERAGE:
        scorer = ilp._QualitySums(model.cover, model.threshold)
    else:
        scorer = ilp._PackedCover(model.cover)

    incumbent, inc_value, nodes, root_proof, _ = ilp._root(
        model, scorer, k, target, math.inf, None
    )
    found_target = inc_value >= target

    root = (scorer.root, scorer.value(scorer.root), np.arange(m), [])
    stack = [] if k == 0 or found_target or nodes else [root]
    while stack:
        state, value, free, selected = stack.pop()
        nodes += 1
        if value > inc_value:
            incumbent, inc_value = selected, value
            if inc_value >= target:
                found_target = True
                break
        budget = k - len(selected)
        if budget == 0 or free.size == 0:
            continue
        scores, ub = node_bound(scorer, state, value, free, budget)
        if ub <= inc_value:
            continue
        pick = int(free[int(np.argmax(scores))])
        rest = free[free != pick]
        child = scorer.add(state, pick)
        stack.append((state, value, rest, selected))
        stack.append((child, scorer.value(child), rest, selected + [pick]))  # value 1 first

    primal = float(inc_value)
    if found_target or target == math.inf:
        placement = tuple(sorted(incumbent))
        return SolveResult(SolveStatus.OPTIMAL, placement, primal, primal, 0.0, nodes, 0.0)
    dual = max(primal, root_proof)
    return SolveResult(SolveStatus.INFEASIBLE, None, primal, dual, 0.0, nodes, 0.0)


def covered_count(model: ilp.IlpModel, selected) -> int:
    """Number of samples the selection covers (y set greedily)."""
    selected = list(selected)
    if not selected:
        return 0
    if model.kind is ModelKind.THRESHOLD_COVERAGE:
        sums = model.cover[:, selected].sum(axis=1)
        return int(meets_threshold(sums, model.threshold).sum())
    return int(model.cover[:, selected].any(axis=1).sum())


def brute_force_solve(model: ilp.IlpModel) -> SolveResult:
    """Exhaustive enumeration of all k-subsets; ground truth for tests."""
    m = model.n_candidates
    k = min(model.k, m)
    if math.comb(m, k) > BRUTE_FORCE_CAP:
        raise ValueError(f"C({m}, {k}) exceeds the brute-force cap of {BRUTE_FORCE_CAP}")
    best_value = 0
    best: tuple[int, ...] = ()
    count = 0
    for combo in itertools.combinations(range(m), k):
        count += 1
        value = covered_count(model, combo)
        if value > best_value:
            best_value, best = value, combo
    feasible = model.kind is not ModelKind.FEASIBILITY_COVER or (
        best_value >= model.coverage_target
    )
    return SolveResult(
        status=SolveStatus.OPTIMAL if feasible else SolveStatus.INFEASIBLE,
        placement=best if feasible else None,
        primal=float(best_value),
        dual_bound=float(best_value),
        gap=0.0,
        nodes=count,
        elapsed=0.0,
    )
