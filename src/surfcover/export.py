"""Colored point-cloud export: each covered sample gets its sensor's color."""

from __future__ import annotations

import numpy as np

from .coverage import CoverageInstance, check_placement, is_covered, sample_coverage

# fixed 12-color cycle by sensor index; uncovered samples are white
PALETTE = [
    (230, 25, 75),
    (60, 180, 75),
    (255, 225, 25),
    (0, 130, 200),
    (245, 130, 48),
    (145, 30, 180),
    (70, 240, 240),
    (240, 50, 230),
    (210, 245, 60),
    (250, 190, 190),
    (0, 128, 128),
    (170, 110, 40),
]
UNCOVERED = (255, 255, 255)


def sample_colors(
    instance: CoverageInstance,
    selected,
    threshold: float | None = None,
    radius: float | None = None,
) -> np.ndarray:
    """(N, 3) uint8 colors: best/assigned sensor's palette entry, white if the
    sample is uncovered. With a problem-2 `radius`, a sample is covered only
    when a selected candidate sees it from within that radius, and takes the
    colour of the nearest selected candidate that sees it."""
    n = instance.n_samples
    colors = np.tile(np.array(UNCOVERED, dtype=np.uint8), (n, 1))
    selected = check_placement(selected, instance.n_candidates)
    if not selected:
        return colors
    if radius is None:
        cols = instance.phi[:, selected]
        best = cols.argmax(axis=1)
        covered = is_covered(instance.kind, sample_coverage(instance.kind, cols), threshold)
    else:
        seen = instance.vis.bits[:, selected]
        best = np.where(seen, instance.dist[:, selected], np.inf).argmin(axis=1)
        covered = instance.covers_within(radius)[:, selected].any(axis=1)
    for rank in range(len(selected)):
        mask = covered & (best == rank)
        colors[mask] = PALETTE[rank % len(PALETTE)]
    return colors


def write_ply(path, positions: np.ndarray, colors: np.ndarray) -> None:
    """ASCII PLY with per-vertex position and RGB color."""
    n = len(positions)
    if colors.shape != (n, 3):
        raise ValueError("colors must be (n, 3)")
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {n}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        for p, c in zip(positions, colors):  # a row's Python scalars format faster than numpy's
            fh.write("%.9g %.9g %.9g %d %d %d\n" % (*p.tolist(), *c.tolist()))
