"""0/1 coverage models and an embedded deterministic branch-and-bound solver.

Three model kinds are built from a coverage instance:

* max-visibility coverage: pick at most k candidates maximizing the number of
  samples seen by at least one pick,
* threshold coverage: a sample counts when the summed quality of the picks
  reaches the threshold,
* feasibility cover: can k picks, restricted to candidates within a radius and
  visible, cover at least ceil(N * rho) samples?

The solver branches only on the selection variables: for a fixed selection the
coverage variables are determined greedily, which is optimal for all three
kinds. Branching and tie-breaking are fully deterministic so identical inputs
always produce identical results.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .coverage import THRESHOLD_TOL, CoverageInstance, QualityKind, meets_threshold


class ModelKind(enum.Enum):
    MAX_VISIBILITY_COVERAGE = "max-visibility-coverage"
    THRESHOLD_COVERAGE = "threshold-coverage"
    FEASIBILITY_COVER = "feasibility-cover"


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time-limit"


def _check_radius(radius) -> None:
    if radius is None or not radius >= 0:  # NaN fails; inf keeps every visible pair
        raise ValueError("radius must be nonnegative")


@dataclass(frozen=True)
class IlpModel:
    kind: ModelKind
    cover: np.ndarray  # (N, M): bool mask for visibility/feasibility kinds,
    # non-negative quality coefficients for the threshold kind
    k: int
    threshold: float | None = None  # threshold kind only
    radius: float | None = None  # feasibility kind only
    rho: float | None = None  # feasibility kind only

    def __post_init__(self):
        """Every model, however built, is checked here; None and NaN fail."""
        if self.kind is ModelKind.THRESHOLD_COVERAGE:
            if self.threshold is None or not 0 < self.threshold < math.inf:
                raise ValueError("threshold must be positive and finite")
            object.__setattr__(self, "threshold", float(self.threshold))
        if self.kind is ModelKind.FEASIBILITY_COVER:
            _check_radius(self.radius)
            if self.rho is None or not 0 <= self.rho <= 1:  # rho == 0 is a degenerate edge
                raise ValueError("rho must be in [0, 1]")
            object.__setattr__(self, "radius", float(self.radius))
            object.__setattr__(self, "rho", float(self.rho))
        try:
            object.__setattr__(self, "k", operator.index(self.k))  # numpy ints too
        except TypeError:
            raise ValueError("sensor budget k must be an integer") from None
        if self.k < 0:  # k > M is allowed: the cardinality row is simply non-binding
            raise ValueError("sensor budget k must be non-negative")

    @property
    def n_samples(self) -> int:
        return self.cover.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.cover.shape[1]

    @property
    def coverage_target(self) -> int:
        """RHS of the ratio row, ceil(N * rho); the covered count is integral."""
        if self.kind is not ModelKind.FEASIBILITY_COVER:
            raise ValueError("coverage target only exists for the feasibility kind")
        return math.ceil(self.n_samples * self.rho - 1e-12)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    * status: OPTIMAL (proven; for the feasibility kind, the target is met),
      FEASIBLE (stopped by the clock within `gap_tol`), TIME_LIMIT (stopped
      by the clock outside it) or INFEASIBLE (feasibility kind: no k-subset
      covers the coverage target).
    * placement: the sorted selected candidates; None when INFEASIBLE.
    * primal: covered count of the best selection found. After an
      INFEASIBLE proof this is the best count the search saw, which is the
      true maximum only when the B&B ran; a root proof keeps the greedy
      picks' count.
    * dual_bound: upper bound on the covered count of any selection. An
      INFEASIBLE result's dual_bound is below the coverage target: it is the
      certificate.
    * gap: (dual_bound - primal) / max(1, |primal|) for a result stopped by
      the clock, else 0.
    * nodes: B&B nodes visited; a node with one pick left closes its last
      level in place and counts once. 1 when the root's Lagrangian test
      settles a feasibility model either way, by a proof or by a covering
      selection; 0 when the greedy picks and their swaps settle the model.
    * elapsed: wall seconds.
    * multipliers: the Lagrangian multipliers over all N rows that the
      feasibility root test ended at (the ones of its best bound), or the
      ones `solve` was given when the test did not run. Not part of the
      JSON form nor of equality.
    """

    status: SolveStatus
    placement: tuple[int, ...] | None
    primal: float
    dual_bound: float
    gap: float
    nodes: int
    elapsed: float
    multipliers: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "placement": list(self.placement) if self.placement is not None else None,
            "primal": self.primal,
            "dual_bound": self.dual_bound,
            "gap": self.gap,
            "nodes": self.nodes,
            "elapsed": self.elapsed,
        }


# ---------------------------------------------------------------------------
# Model builders


def build_visibility_model(instance: CoverageInstance, k: int) -> IlpModel:
    if instance.kind is not QualityKind.VISIBILITY:
        raise ValueError("visibility model requires a visibility-kind instance")
    return IlpModel(ModelKind.MAX_VISIBILITY_COVERAGE, instance.vis.bits.copy(), k)


def build_cumulative_model(instance: CoverageInstance, k: int, threshold: float) -> IlpModel:
    if instance.kind is not QualityKind.LAMBERT_INVERSE_SQUARE:
        raise ValueError("cumulative model requires a Lambert inverse-square instance")
    return IlpModel(ModelKind.THRESHOLD_COVERAGE, instance.phi.copy(), k, threshold)


def build_feasibility_model(
    instance: CoverageInstance, k: int, radius: float, rho: float
) -> IlpModel:
    _check_radius(radius)  # before `covers_within` compares against it
    return IlpModel(
        kind=ModelKind.FEASIBILITY_COVER,
        cover=instance.covers_within(radius),
        k=k,
        radius=radius,
        rho=rho,
    )


# ---------------------------------------------------------------------------
# Branch and bound


class _PackedCover:
    """Boolean kinds. Each candidate's cover column is packed into uint64
    words; a node's state is the packed mask of covered samples."""

    def __init__(self, cover: np.ndarray):
        n, m = cover.shape
        # zero padding up to whole words never counts as covered
        packed = np.zeros((m, -(-n // 64) * 8), dtype=np.uint8)
        packed[:, : -(-n // 8)] = np.packbits(cover.T, axis=1, bitorder="little")
        self.cols = packed.view(np.uint64)  # (M, ceil(N / 64))
        self.root = np.zeros(self.cols.shape[1], dtype=np.uint64)

    def add(self, state, j: int):
        return state | self.cols[j]

    def value(self, state) -> int:
        return int(np.bitwise_count(state).sum())

    def expand(self, state, free: np.ndarray, budget: int):
        """One pass over `free` for a state and its whole exclusion chain.
        The pass counts the state's own value too, so it takes no value
        argument. Returns the branching scores (newly covered samples) and,
        with one pick left, the closing values (the covered count with each
        free candidate added; None with more picks left), both in `free`'s
        order; the branching order (descending score, lowest index on ties)
        as positions in `free`; and bounds[s] on the subtree whose free set
        is the order's suffix s, for s = 0..F (bounds[F] is the state's
        value). The gains descend along the order, so one pick left bounds a
        suffix by its first closing value, and more by its `budget` first
        gains, capped by the union of its columns, which no selection can
        exceed."""
        value = self.value(state)
        fresh = self.cols[free] & ~state
        gains = np.bitwise_count(fresh).sum(axis=1, dtype=np.int64)
        order = np.argsort(-gains, kind="stable")
        ordered = np.append(gains[order], 0)
        if budget == 1:
            return gains, value + gains, order, value + ordered
        tail = np.cumsum(ordered[::-1])[::-1]  # tail[s]: the gains of suffix s summed
        top = tail - np.append(tail, np.zeros(budget, np.int64))[budget:]
        unions = np.bitwise_or.accumulate(fresh[order[::-1]], axis=0)[::-1]
        reach = np.append(np.bitwise_count(unions).sum(axis=1, dtype=np.int64), 0)
        return gains, None, order, value + np.minimum(top, reach)


class _QualitySums:
    """Threshold kind. A node's state is each sample's summed quality."""

    def __init__(self, cover: np.ndarray, threshold: float):
        self.phi = cover
        self.threshold = threshold
        self.root = np.zeros(cover.shape[0])

    def add(self, state, j: int):
        return state + self.phi[:, j]

    def value(self, state) -> int:
        return int(meets_threshold(state, self.threshold).sum())

    def expand(self, state, free: np.ndarray, budget: int):
        """As `_PackedCover.expand`, with scores the summed progress toward
        each open sample's deficit. Adding phi >= 0 never lowers an IEEE sum,
        so covered rows stay covered and only the open rows are gathered; the
        state's value, bounds[F], counts the rows the open-row mask leaves
        out. One pick left bounds a suffix by its best closing value; with
        more, each open sample independently takes the `budget` best
        contributions of the suffix. Those sums obey top_t[s] = max over
        p >= s of (a[p] + top_t-1[p + 1]) in branching order, with a zero row
        past the end: one add and one running maximum per level, taken row by
        row (numpy's `maximum.accumulate` down axis 0 walks one column at a
        time)."""
        open_rows = np.flatnonzero(~meets_threshold(state, self.threshold))
        value = state.size - open_rows.size
        sums = state[open_rows]
        need = self.threshold - sums
        sub = self.phi[open_rows][:, free]
        scores = np.minimum(sub, need[:, None]).sum(axis=0)
        order = np.argsort(-scores, kind="stable")
        if budget == 1:
            closed = value + meets_threshold(sums[:, None] + sub, self.threshold).sum(axis=0)
            best = np.maximum.accumulate(np.append(closed[order], value)[::-1])[::-1]
            return scores, closed, order, best
        ordered = sub.T[order]
        top = np.zeros((free.size + 1, open_rows.size))
        for _ in range(budget):
            top[:-1] = ordered + top[1:]
            for p in range(free.size - 2, -1, -1):
                np.maximum(top[p], top[p + 1], out=top[p])
        return scores, None, order, value + (need <= top + THRESHOLD_TOL).sum(axis=1)


def _greedy_picks(scorer, m: int, k: int):
    """Greedy picks, each the largest gain (lowest index on ties), until k
    picks or no gain. Returns (selection, value)."""
    selected: list[int] = []
    state = scorer.root
    free = np.arange(m)
    for _ in range(k):
        scores = scorer.expand(state, free, 1)[0]
        best = int(np.argmax(scores))  # argmax keeps lowest index on ties
        if scores[best] <= 0:
            break
        selected.append(int(free[best]))
        state = scorer.add(state, selected[-1])
        free = free[free != selected[-1]]
    return selected, scorer.value(state)


def _improve_by_swaps(scorer, m: int, selected: list[int], current: int, deadline: float):
    """First-improving 1-swaps from a selection worth `current`; stops early
    at the deadline. Returns (selection, value)."""
    for _ in range(20):  # swap passes, each ending at its first improvement
        cands = np.delete(np.arange(m), selected)
        for si in range(len(selected)):
            if time.perf_counter() > deadline:
                return selected, current
            others = selected[:si] + selected[si + 1 :]
            base = functools.reduce(scorer.add, others, scorer.root)
            values = scorer.expand(base, cands, 1)[1]
            better = np.flatnonzero(values > current)
            if better.size:
                j = int(cands[better[0]])
                selected = others[:si] + [j] + others[si:]
                current = int(values[better[0]])
                break
        else:  # no swap improves
            break
    return selected, current


# Lagrangian root test of the feasibility kind
_LAGRANGE_STEPS = 600
_LAGRANGE_PATIENCE = 20  # steps without a better bound before the step factor halves
_LAGRANGE_STALLS = 3  # halvings in a row without a better bound before the steps stop
_PROOF_TOL = 1e-6


def _lagrangian_bound(
    cover: np.ndarray, k: int, target: int, deadline: float, start: np.ndarray | None = None
):
    """Smallest L(lam) met by Polyak subgradient steps toward target - 1, where

        L(lam) = sum_i max(0, 1 - lam_i) + (sum of the k largest positive (lam A)_j)

    relaxes each row y_i <= sum_j A_ij z_j with its multiplier lam_i. Every
    lam in [0, 1]^N gives an upper bound on the covered count of any
    k-selection, so the minimum found is valid however far the steps got.
    Stops at a proof (L < target - tol), once a step's own selection covers
    the target (no proof exists), after `_LAGRANGE_STALLS` halvings of the
    step factor in a row with no better bound, after a fixed step count or at
    the deadline. Rows no candidate covers add nothing at lam_i = 1 and are left
    out of the steps; the others start at `start` (any lam in [0, 1]^N, such
    as the multipliers of a model with fewer cover entries) or else at
    lam_i = 1 / (number of candidates covering i).

    Returns the smallest L, the multipliers that gave it over all N rows (1
    on the rows no candidate covers), and the sorted selection of the step
    that covered the target (None when no step did)."""
    coverable = cover.any(axis=1)
    cols = np.ascontiguousarray(cover[coverable].T, dtype=np.float64)
    m, rows = cols.shape
    lam = 1.0 / cols.sum(axis=0) if start is None else start[coverable]
    factor, best, best_lam, stale, witness = 2.0, math.inf, lam, 0, None
    for _ in range(_LAGRANGE_STEPS):
        if time.perf_counter() > deadline:
            break
        weights = cols @ lam
        top = np.argpartition(weights, m - k)[m - k :]
        top = top[weights[top] > 0]
        value = rows - lam.sum() + weights[top].sum()  # lam stays in [0, 1]
        stale += 1  # steps since the last better bound
        if value < best:
            best, best_lam, stale = value, lam, 0
        elif stale % _LAGRANGE_PATIENCE == 0:
            factor /= 2
        hits = cols[top].sum(axis=0)
        if best < target - _PROOF_TOL:
            break
        if np.count_nonzero(hits) >= target:
            witness = sorted(top.tolist())
            break
        if stale == _LAGRANGE_STALLS * _LAGRANGE_PATIENCE:
            break
        grad = hits - (lam < 1.0)
        norm = grad @ grad
        if norm == 0:  # lam minimises L
            break
        lam = np.minimum(np.maximum(lam - factor * (value - (target - 1)) / norm * grad, 0.0), 1.0)
    multipliers = np.ones(cover.shape[0])
    multipliers[coverable] = best_lam
    return float(best), multipliers, witness


def _root(model: IlpModel, scorer, k: int, target: float, deadline: float, multipliers):
    """The root of a solve, before any branching: the greedy picks; when a
    feasibility model's picks miss the target, the Lagrangian test started
    at `multipliers`; unless that test settles the model, first-improving
    1-swaps from the picks. A Lagrangian bound below the target proves the
    model infeasible and keeps the picks' count; a step whose own selection
    covers the target is the witness of feasibility. Either settles the
    model in one node. Returns (selection, value, nodes, root proof or
    -inf, the multipliers the test ended at, else those it was given)."""
    m = model.n_candidates
    selected, value = _greedy_picks(scorer, m, k)
    if model.kind is ModelKind.FEASIBILITY_COVER and k > 0 and value < target:
        bound, multipliers, witness = _lagrangian_bound(
            model.cover, k, target, deadline, multipliers
        )
        if bound < target - _PROOF_TOL:
            return selected, value, 1, bound, multipliers
        if witness is not None:
            state = functools.reduce(scorer.add, witness, scorer.root)
            return witness, scorer.value(state), 1, -math.inf, multipliers
    selected, value = _improve_by_swaps(scorer, m, selected, value, deadline)
    return selected, value, 0, -math.inf, multipliers


def solve(
    model: IlpModel,
    time_limit: float | None = None,
    gap_tol: float = 0.0,
    multipliers: np.ndarray | None = None,
) -> SolveResult:
    """Exact deterministic branch and bound over the selection variables.

    Depth-first over an explicit stack, branching on the free candidate with
    the largest greedy score (lowest index on ties), select-first. Each child
    derives its state from its parent's by adding one column: the boolean
    kinds OR a packed uint64 cover column into the covered mask, the threshold
    kind adds a quality column to the per-sample sums. The exclusion sibling
    of a pick keeps its parent's state and loses the pick from its free set,
    so a state's siblings pick down its branching order: one pass over the
    free columns (`expand`, which takes no value argument) gives that order,
    the bound of every link of the chain and, with one pick left, the closing
    values. A stack entry is one link, (state, picks, order, bounds, closing
    values, s): the closing values are in branching order (None with more
    picks left), link s's free set is order[s:], and the state's value is
    bounds[-1]. With more picks left, the boolean kinds bound by covered +
    min(sum of the `budget` best marginal gains, samples any free candidate
    can still reach): the first term is valid by submodularity, the second
    because no selection covers more than the union of the free columns; for
    the threshold kind each open sample takes its `budget` best free
    contributions. With one pick left the bound is exact, the best
    closing value, and the node counts as one node; it keeps what the
    per-child search would, the first maximum in branching order. A
    feasibility model branches on its gains, so its first maximum is also its
    first candidate that meets the target. The search runs while nodes are
    stacked and the incumbent is below the target (the coverage target of the
    feasibility kind, else infinite); the clock stops it with the unexplored
    links left stacked, and their bounds give the dual bound.

    The root (`_root`) runs first and may settle a feasibility model; its
    Lagrangian test starts at `multipliers` (N values in [0, 1]) when given,
    and the result carries the multipliers it ended at.
    """
    start = time.perf_counter()
    deadline = math.inf if time_limit is None else start + time_limit
    m = model.n_candidates
    k = min(model.k, m)
    feasibility = model.kind is ModelKind.FEASIBILITY_COVER
    target = model.coverage_target if feasibility else math.inf
    if model.kind is ModelKind.THRESHOLD_COVERAGE:
        scorer = _QualitySums(model.cover, model.threshold)
    else:
        scorer = _PackedCover(model.cover)

    def chain(state, selected, free):
        _, closed, order, bounds = scorer.expand(state, free, k - len(selected))
        closed = None if closed is None else closed[order]
        return state, selected, free[order], bounds, closed, 0

    incumbent, inc_value, nodes, root_proof, multipliers = _root(
        model, scorer, k, target, deadline, multipliers
    )
    search = k > 0 and not nodes and inc_value < target  # the root settled nothing
    stack = [chain(scorer.root, [], np.arange(m))] if search else []

    while stack and inc_value < target:
        entry = state, selected, order, bounds, closed, s = stack.pop()
        nodes += 1
        if time.perf_counter() > deadline:
            stack.append(entry)  # still unexplored
            break
        # a node with one pick left never beats the incumbent here (a k-set
        # holding its picks came first), so one that meets a target branches
        # and the loop test then stops the search
        if bounds[-1] > inc_value:
            incumbent, inc_value = selected, int(bounds[-1])
        if bounds[s] <= inc_value:  # the last bound is the value: a link left has a pick
            continue
        if closed is not None:
            # the DFS would visit these leaves in branching order and keep
            # the first maximum (a pruned sibling is worth <= incumbent),
            # which is the first to meet a target
            incumbent, inc_value = selected + [int(order[np.argmax(closed)])], int(bounds[0])
            continue
        pick = int(order[s])
        stack.append((state, selected, order, bounds, closed, s + 1))
        stack.append(chain(scorer.add(state, pick), selected + [pick], np.sort(order[s + 1 :])))

    primal = float(inc_value)
    placement = tuple(sorted(incumbent))
    dual, gap = primal, 0.0
    if inc_value >= target:
        status = SolveStatus.OPTIMAL
    elif stack:  # the clock stopped the search before the stacked links
        open_bound = max(bounds[s] for _, _, _, bounds, _, s in stack)
        dual = float(max(primal, open_bound))  # the bounds are ints
        gap = (dual - primal) / max(1.0, abs(primal))
        # only an optimization model can settle for a gap within tolerance
        within_tol = not feasibility and gap <= gap_tol
        status = SolveStatus.FEASIBLE if within_tol else SolveStatus.TIME_LIMIT
    elif feasibility:
        status, placement, dual = SolveStatus.INFEASIBLE, None, max(primal, root_proof)
    else:
        status = SolveStatus.OPTIMAL
    return SolveResult(
        status, placement, primal, dual, gap, nodes, time.perf_counter() - start, multipliers
    )


# ---------------------------------------------------------------------------
# CPLEX-LP export


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def export_lp(model: IlpModel, path) -> None:
    """Write the model in CPLEX LP text format for external MILP solvers."""
    n, m = model.n_samples, model.n_candidates
    lines = ["Maximize", " obj: " + " + ".join(f"y{i}" for i in range(n)), "Subject To"]
    if model.kind is ModelKind.THRESHOLD_COVERAGE:
        for i in range(n):
            terms = [f"{_fmt(model.threshold)} y{i}"]
            for j in range(m):
                coef = model.cover[i, j]
                if coef > 0:
                    terms.append(f"- {_fmt(coef)} z{j}")
            lines.append(f" cov{i}: " + " ".join(terms) + " <= 0")
    else:
        for i in range(n):
            terms = [f"y{i}"]
            for j in range(m):
                if model.cover[i, j]:
                    terms.append(f"- z{j}")
            lines.append(f" cov{i}: " + " ".join(terms) + " <= 0")
    lines.append(" card: " + " + ".join(f"z{j}" for j in range(m)) + f" <= {model.k}")
    if model.kind is ModelKind.FEASIBILITY_COVER:
        lines.append(
            " ratio: "
            + " + ".join(f"y{i}" for i in range(n))
            + f" >= {model.coverage_target}"
        )
    lines.append("Binary")
    names = [f"y{i}" for i in range(n)] + [f"z{j}" for j in range(m)]
    for chunk in range(0, len(names), 16):
        lines.append(" " + " ".join(names[chunk : chunk + 16]))
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
