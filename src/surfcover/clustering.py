"""Farthest-point clustering on a fixed-height deployment plane.

Approximation route for the best-quality (max-min distance) objective when
every sample is assumed visible: greedily pick the sample farthest from the
current center set and drop its vertical projection onto the deployment
plane. The achieved covering radius is provably at most
sqrt(4 r_opt^2 - 3 h^2), where h is the clearance between the surface and the
plane; the classic planar factor 2 is recovered at h = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import sensor_offsets
from .mesh import CandidateSet, SampleSet


@dataclass(frozen=True)
class PlaneDeployment:
    """Horizontal deployment plane z = height with clearance to the surface."""

    height: float

    def clearance(self, samples: SampleSet) -> float:
        return float(np.abs(self.height - samples.positions[:, 2]).min())

    def project(self, points: np.ndarray) -> np.ndarray:
        out = np.array(points, dtype=np.float64, copy=True)
        out[..., 2] = self.height
        return out


def farthest_point_clustering(
    samples: SampleSet, k: int, plane: PlaneDeployment
) -> CandidateSet:
    """Pick k centers on the plane by repeated farthest-sample projection.

    Seeds with sample 0's projection, then k - 1 times appends the projection
    of the sample farthest from the current centers (lowest id on ties).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    pos = samples.positions
    centers = [plane.project(pos[0])]
    # nearest-center distance, updated incrementally per added center
    dist = sensor_offsets(pos, centers[0][None])[1][:, 0]
    for _ in range(k - 1):
        far = int(np.argmax(dist))  # argmax returns the lowest id on ties
        c = plane.project(pos[far])
        centers.append(c)
        dist = np.minimum(dist, sensor_offsets(pos, c[None])[1][:, 0])
    return CandidateSet(positions=np.array(centers))


def coverage_radius(centers: CandidateSet, samples: SampleSet) -> float:
    """max over samples of the distance to the nearest center."""
    _, d = sensor_offsets(samples.positions, centers.positions)
    return float(d.min(axis=1).max())


def clustering_bound(r_opt: float, clearance: float) -> float:
    """Covering-radius guarantee sqrt(4 r_opt^2 - 3 h^2) of the greedy centers."""
    if r_opt < clearance:
        raise ValueError(
            f"r_opt ({r_opt}) below clearance ({clearance}); no plane center can be closer"
        )
    return math.sqrt(4.0 * r_opt**2 - 3.0 * clearance**2)
