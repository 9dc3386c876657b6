"""Coverage quality functions and aggregate coverage evaluation.

Three sensor models are supported: pure visibility (covered iff any selected
sensor sees the sample), best-quality (per-sample coverage is the maximum
single-sensor quality, quality = 1/distance), and cumulative quality
(per-sample coverage is the sum of Lambertian inverse-square contributions of
all visible sensors, covered iff the sum reaches a threshold, see
`meets_threshold`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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
    INVERSE_DISTANCE = "inverse-distance"
    LAMBERT_INVERSE_SQUARE = "lambert-inverse-square"


class CoincidentPointError(ValueError):
    """Sample and sensor coincide; quality is undefined there."""


def phi_inverse_distance(p, c) -> float:
    """Quality 1/||p - c|| (1/m)."""
    d = float(np.linalg.norm(np.asarray(c, float) - np.asarray(p, float)))
    if d == 0.0:
        raise CoincidentPointError("sample and sensor coincide")
    return 1.0 / d


def phi_lambert(p, n, c) -> float:
    """Lambertian inverse-square quality max(0, <n, unit(c-p)>) / ||c-p||^2.

    The cosine factor is clamped at zero for sensors behind the surface's
    tangent plane so the quality stays non-negative.
    """
    p = np.asarray(p, float)
    c = np.asarray(c, float)
    n = np.asarray(n, float)
    d = c - p
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise CoincidentPointError("sample and sensor coincide")
    cosine = float(n @ d) / dist
    return max(0.0, cosine) / dist**2


@dataclass(frozen=True)
class CoverageInstance:
    """Samples + candidates + visibility bits + the dense quality matrix."""

    samples: SampleSet
    candidates: CandidateSet
    vis: VisibilityMatrix
    phi: np.ndarray  # (N, M), zero wherever vis is zero
    kind: QualityKind

    def __post_init__(self):
        n, m = len(self.samples), len(self.candidates)
        if self.vis.bits.shape != (n, m) or self.phi.shape != (n, m):
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


def build_instance(
    samples: SampleSet,
    candidates: CandidateSet,
    vis: VisibilityMatrix,
    kind: QualityKind,
) -> CoverageInstance:
    """Assemble the dense per-pair quality matrix masked by visibility."""
    vis.check_consistent(samples, candidates)
    diff = candidates.positions[None, :, :] - samples.positions[:, None, :]
    dist = np.linalg.norm(diff, axis=2)
    if kind is not QualityKind.VISIBILITY:
        coincident = (dist == 0.0) & vis.bits
        if coincident.any():
            i, j = np.argwhere(coincident)[0]
            raise CoincidentPointError(
                f"sample {i} coincides with visible candidate {j}; quality undefined"
            )
    if kind is QualityKind.VISIBILITY:
        phi = vis.bits.astype(np.float64)
    elif kind is QualityKind.INVERSE_DISTANCE:
        with np.errstate(divide="ignore"):
            phi = np.where(vis.bits, 1.0 / np.where(dist == 0, 1.0, dist), 0.0)
    elif kind is QualityKind.LAMBERT_INVERSE_SQUARE:
        cosine = np.einsum("nmk,nk->nm", diff, samples.normals) / np.where(
            dist == 0, 1.0, dist
        )
        phi = np.where(
            vis.bits, np.maximum(cosine, 0.0) / np.where(dist == 0, 1.0, dist) ** 2, 0.0
        )
    else:
        raise ValueError(f"unknown quality kind {kind}")
    return CoverageInstance(samples=samples, candidates=candidates, vis=vis, phi=phi, kind=kind)


@dataclass(frozen=True)
class CoverageReport:
    covered_ids: frozenset[int]
    objective: float
    per_sample_f: np.ndarray

    def coverage_ratio(self, n_samples: int) -> float:
        return len(self.covered_ids) / n_samples

    def to_json_dict(self) -> dict:
        return {
            "covered_ids": sorted(self.covered_ids),
            "objective": self.objective,
            "per_sample_f": self.per_sample_f.tolist(),
        }


def per_sample_coverage(instance: CoverageInstance, selected: Sequence[int]) -> np.ndarray:
    """f value at every sample for the given selection of candidate indices."""
    selected = list(selected)
    if len(set(selected)) != len(selected):
        raise ValueError("placement contains duplicate candidate indices")
    if any(j < 0 or j >= instance.n_candidates for j in selected):
        raise ValueError("placement index out of range")
    if not selected:
        return np.zeros(instance.n_samples)
    cols = instance.phi[:, selected]
    if instance.kind is QualityKind.LAMBERT_INVERSE_SQUARE:
        return cols.sum(axis=1)
    return cols.max(axis=1)


def evaluate(
    instance: CoverageInstance,
    selected: Sequence[int],
    threshold: float | None = None,
) -> CoverageReport:
    """Aggregate coverage of a placement under the instance's quality kind.

    For the cumulative kind a positive threshold is required and a sample
    counts as covered when its summed quality reaches it (`meets_threshold`);
    the other kinds count any sample with positive coverage. The reported
    objective is the covered count, except for the best-quality kind where it
    is the minimum per-sample coverage (the max-min objective).
    """
    f = per_sample_coverage(instance, selected)
    if instance.kind is QualityKind.LAMBERT_INVERSE_SQUARE:
        if threshold is None:
            raise ValueError("cumulative quality kind requires a threshold")
        covered = np.flatnonzero(meets_threshold(f, threshold))
    else:
        covered = np.where(f > 0)[0]
    if instance.kind is QualityKind.INVERSE_DISTANCE:
        objective = float(f.min()) if len(f) else 0.0
        if not selected:
            objective = 0.0
    else:
        objective = float(len(covered))
    return CoverageReport(
        covered_ids=frozenset(int(i) for i in covered),
        objective=objective,
        per_sample_f=f,
    )
