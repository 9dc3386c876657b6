"""Coverage quality functions and aggregate coverage evaluation.

Two quality models are built here: pure visibility (covered iff any selected
sensor sees the sample) and cumulative quality (per-sample coverage is the
sum of Lambertian inverse-square contributions of all visible sensors,
covered iff the sum reaches a threshold, see `meets_threshold`). Problem 2,
best-quality coverage, runs on the visibility model: a sample is covered
when a selected sensor sees it from within a radius
(`CoverageInstance.covers_within`). `sensor_offsets` is the one
sample-to-sensor distance expression, `quality_matrix` builds the distances
and qualities of both models, and `is_covered` is their one covered rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .mesh import CandidateSet, SampleSet
from .visibility import VisibilityMatrix


THRESHOLD_TOL = 1e-9  # slack for float comparisons against the quality threshold


def meets_threshold(sums, threshold: float):
    """The one "is covered" predicate of the cumulative kind: the summed
    quality reaches the threshold, up to `THRESHOLD_TOL`. This is what the ILP
    row threshold * y_i <= sum phi_ij z_j means."""
    return sums >= threshold - THRESHOLD_TOL


class QualityKind(enum.Enum):
    VISIBILITY = "visibility"
    LAMBERT_INVERSE_SQUARE = "lambert-inverse-square"


class CoincidentPointError(ValueError):
    """Sample and sensor coincide; quality is undefined there."""


def sensor_offsets(points: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, M, 3) offsets from `points` (N, 3) to sensor `positions` (M, 3) and
    their (N, M) lengths: the one sample-to-sensor distance expression."""
    diff = positions[None, :, :] - points[:, None, :]
    return diff, np.linalg.norm(diff, axis=2)


def quality_matrix(
    samples: SampleSet, positions: np.ndarray, vis: np.ndarray, kind: QualityKind
) -> tuple[np.ndarray, np.ndarray]:
    """(N, M) sample-to-position distances and the (N, M) quality matrix of
    `kind` for sensors at `positions` (M, 3), zero wherever the boolean `vis`
    is false."""
    diff, dist = sensor_offsets(samples.positions, positions)
    if kind is QualityKind.VISIBILITY:
        return dist, vis.astype(np.float64)
    coincident = (dist == 0.0) & vis
    if coincident.any():
        i, j = np.argwhere(coincident)[0]
        raise CoincidentPointError(
            f"sample {i} coincides with visible candidate {j}; quality undefined"
        )
    safe = np.where(dist == 0, 1.0, dist)
    cosine = np.einsum("nmk,nk->nm", diff, samples.normals) / safe
    return dist, np.where(vis, np.maximum(cosine, 0.0) / safe**2, 0.0)


def sample_coverage(kind: QualityKind, cols: np.ndarray) -> np.ndarray:
    """Per-sample coverage of the quality columns along the last axis: their
    sum for the cumulative kind, their maximum (0 for no column) for the
    visibility kind."""
    if kind is QualityKind.LAMBERT_INVERSE_SQUARE:
        return cols.sum(axis=-1)
    return cols.max(axis=-1, initial=0.0)


def is_covered(kind: QualityKind, f: np.ndarray, threshold: float | None = None) -> np.ndarray:
    """The one "is covered" rule on per-sample coverage `f`: the cumulative
    kind needs `meets_threshold`, the visibility kind any positive coverage."""
    if kind is QualityKind.LAMBERT_INVERSE_SQUARE:
        if threshold is None:
            raise ValueError("cumulative quality kind requires a threshold")
        return meets_threshold(f, threshold)
    return f > 0


def check_placement(selected: Sequence[int], n_candidates: int) -> list[int]:
    """The placement as a list of distinct candidate indices in [0, M)."""
    selected = list(selected)
    if any(isinstance(j, bool) or not isinstance(j, (int, np.integer)) for j in selected):
        raise ValueError("placement indices must be integers")
    if len(set(selected)) != len(selected):
        raise ValueError("placement contains duplicate candidate indices")
    if any(j < 0 or j >= n_candidates for j in selected):
        raise ValueError("placement index out of range")
    return selected


@dataclass(frozen=True)
class CoverageInstance:
    """Samples + candidates + visibility bits + the dense distance and quality
    matrices."""

    samples: SampleSet
    candidates: CandidateSet
    vis: VisibilityMatrix
    phi: np.ndarray  # (N, M), zero wherever vis is zero
    kind: QualityKind
    dist: np.ndarray  # (N, M) sample-to-candidate distances

    def __post_init__(self):
        n, m = len(self.samples), len(self.candidates)
        if any(a.shape != (n, m) for a in (self.vis.bits, self.phi, self.dist)):
            raise ValueError("instance dimension mismatch")
        if not np.isfinite(self.phi).all() or (self.phi < 0).any():
            raise ValueError("phi entries must be finite and non-negative")
        if (self.phi[~self.vis.bits] != 0).any():
            raise ValueError("phi must be zero where visibility is zero")

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    @cached_property
    def _candidate_dist(self) -> np.ndarray:  # (M, N), NaN where the pair is not visible
        return np.where(self.vis.bits, self.dist, np.nan).T.copy()

    def covers_within(self, radius: float) -> np.ndarray:
        """(N, M) bool: candidate j sees sample i from at most `radius` away,
        the cover rule of problem 2 (NaN <= inf fails too): the transposed
        view of a candidate-major array, so `.T` is C-contiguous."""
        return (self._candidate_dist <= radius).T

    def needed_radius(self, selected: Sequence[int], count: int) -> float:
        """The smallest radius at which `selected` covers `count` samples by
        the rule of `covers_within`: the count-th smallest distance from a
        sample to its nearest visible pick, read from the same distances, so
        `covers_within` at it covers `count`. 0.0 for a count of 0; NaN when
        the picks see fewer than `count` samples."""
        if count == 0:
            return 0.0
        nearest = np.fmin.reduce(self._candidate_dist[list(selected)], axis=0, initial=np.nan)
        return float(np.partition(nearest, count - 1)[count - 1])


def build_instance(
    samples: SampleSet,
    candidates: CandidateSet,
    vis: VisibilityMatrix,
    kind: QualityKind,
) -> CoverageInstance:
    """Assemble the dense per-pair distance matrix and the quality matrix
    masked by visibility."""
    vis.check_consistent(samples, candidates)
    dist, phi = quality_matrix(samples, candidates.positions, vis.bits, kind)
    return CoverageInstance(samples, candidates, vis, phi, kind, dist)


@dataclass(frozen=True)
class CoverageReport:
    covered_ids: frozenset[int]
    objective: float
    per_sample_f: np.ndarray

    def coverage_ratio(self, n_samples: int) -> float:
        return len(self.covered_ids) / n_samples


def per_sample_coverage(instance: CoverageInstance, selected: Sequence[int]) -> np.ndarray:
    """f value at every sample for the given selection of candidate indices."""
    selected = check_placement(selected, instance.n_candidates)
    return sample_coverage(instance.kind, instance.phi[:, selected])


def evaluate(
    instance: CoverageInstance,
    selected: Sequence[int],
    threshold: float | None = None,
) -> CoverageReport:
    """Aggregate coverage of a placement under the instance's quality kind.

    A sample counts as covered by the rule of `is_covered`; the cumulative
    kind needs a threshold for it. The objective is the covered count.
    """
    f = per_sample_coverage(instance, selected)
    covered = np.flatnonzero(is_covered(instance.kind, f, threshold))
    return CoverageReport(
        covered_ids=frozenset(covered.tolist()),
        objective=float(len(covered)),
        per_sample_f=f,
    )
