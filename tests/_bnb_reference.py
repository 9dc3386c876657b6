"""Reference branch and bound: the depth-first loop that pushes, pops and
re-expands one child per free candidate all the way to the leaves.

`ilp.solve` closes a node's last pick in one vectorised pass instead; the
tests require both to give the same placement, primal, status and dual bound.
The reference takes no time limit and shares the solver's scorers, warm start
and Lagrangian root test, so only the search loop differs.
"""

import math

import numpy as np

from surfcover import ilp
from surfcover.ilp import ModelKind, SolveResult, SolveStatus


def reference_solve(model: ilp.IlpModel) -> SolveResult:
    m = model.n_candidates
    k = min(model.k, m)
    target = model.coverage_target if model.kind is ModelKind.FEASIBILITY_COVER else None
    if model.kind is ModelKind.THRESHOLD_COVERAGE:
        scorer = ilp._QualitySums(model.cover, model.threshold)
    else:
        scorer = ilp._PackedCover(model.cover)

    incumbent, inc_value = ilp._greedy_incumbent(scorer, m, k, math.inf)
    nodes = 0
    found_target = target is not None and inc_value >= target
    root_proof = None
    if target is not None and k > 0 and not found_target:
        lagrangian = ilp._lagrangian_bound(model.cover, k, target, math.inf)
        if lagrangian < target - ilp._PROOF_TOL:
            root_proof, nodes = lagrangian, 1

    root = (scorer.root, scorer.value(scorer.root), np.arange(m), [])
    stack = [] if k == 0 or found_target or root_proof is not None else [root]
    while stack:
        state, value, free, selected = stack.pop()
        nodes += 1
        if value > inc_value:
            incumbent, inc_value = selected, value
            if target is not None and inc_value >= target:
                found_target = True
                break
        budget = k - len(selected)
        if budget == 0 or free.size == 0:
            continue
        scores, ub, _ = scorer.expand(state, value, free, budget)
        if ub <= inc_value:
            continue
        pick = int(free[int(np.argmax(scores))])
        rest = free[free != pick]
        child = scorer.add(state, pick)
        stack.append((state, value, rest, selected))
        stack.append((child, scorer.value(child), rest, selected + [pick]))  # value 1 first

    primal = float(inc_value)
    if found_target or target is None:
        placement = tuple(sorted(incumbent))
        return SolveResult(SolveStatus.OPTIMAL, placement, primal, primal, 0.0, nodes, 0.0)
    dual = primal if root_proof is None else max(primal, root_proof)
    return SolveResult(SolveStatus.INFEASIBLE, None, primal, dual, 0.0, nodes, 0.0)
