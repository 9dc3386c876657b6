"""Deterministic synthetic scenes: sinusoidal terrain and box-furnished rooms."""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh


def gen_terrain(
    seed: int,
    extent: tuple[float, float] = (10.0, 10.0),
    cells: int = 20,
    amplitude: float = 0.5,
) -> TriangleMesh:
    """Height field z(x, y) = amplitude * sum of 4 seeded sinusoids over a
    (cells+1)^2 grid; smooth and low-curvature by construction.
    """
    if cells < 1:
        raise ValueError("cells must be at least 1")
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.2, 1.2, size=(4, 2))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
    sx, sy = extent
    xs = np.linspace(0.0, sx, cells + 1)
    ys = np.linspace(0.0, sy, cells + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    z = np.zeros_like(gx)
    for (fx, fy), ph in zip(freqs, phases):
        z += np.sin(fx * gx + fy * gy + ph)
    z *= amplitude
    vertices = np.column_stack([gx.ravel(), gy.ravel(), z.ravel()])

    v = np.arange((cells + 1) ** 2).reshape(cells + 1, cells + 1)  # vertex (i, j)
    v00, v10, v11, v01 = v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]
    # two triangles per cell (i, j), cells in row order, counter-clockwise
    # seen from above: normals point up
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    return TriangleMesh(vertices=vertices, triangles=tris)


# corner c takes the box's high end on axis a where _BOX_CORNERS[c, a]: the
# bottom square counter-clockwise seen from above, then the top one
_BOX_CORNERS = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                         [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=bool)
# two triangles per face, wound so the normals face out of the box
_BOX_FACES = np.array([
    [0, 3, 2], [0, 2, 1],  # bottom, normal -z
    [4, 5, 6], [4, 6, 7],  # top, normal +z
    [0, 1, 5], [0, 5, 4],  # y = y0 side, normal -y
    [2, 3, 7], [2, 7, 6],  # y = y1 side, normal +y
    [0, 4, 7], [0, 7, 3],  # x = x0 side, normal -x
    [1, 2, 6], [1, 6, 5],  # x = x1 side, normal +x
])


def gen_room(
    extent: tuple[float, float, float] = (6.0, 4.0, 3.0),
    obstacles: list[tuple[tuple, tuple]] = (),
) -> TriangleMesh:
    """Interior-facing room shell plus axis-aligned box obstacles.

    The shell's winding is flipped so its normals face the interior (floor up,
    ceiling down, walls inward); obstacle boxes keep outward normals, which
    also face the room interior. Obstacles must lie strictly inside the shell
    and must not overlap each other.
    """
    lo_room = np.zeros(3)
    hi_room = np.array(extent, dtype=np.float64)
    boxes = [(np.asarray(lo, float), np.asarray(hi, float)) for lo, hi in obstacles]
    for lo, hi in boxes:
        if (hi <= lo).any():
            raise ValueError(f"obstacle box has empty extent: {lo} .. {hi}")
        if (lo < lo_room - 1e-12).any() or (hi > hi_room + 1e-12).any():
            raise ValueError(f"obstacle {lo} .. {hi} extends outside the room shell")
    for a in range(len(boxes)):
        for b in range(a + 1, len(boxes)):
            (lo1, hi1), (lo2, hi2) = boxes[a], boxes[b]
            if (lo1 < hi2).all() and (lo2 < hi1).all():
                raise ValueError(f"obstacles {a} and {b} overlap")
    boxes.insert(0, (lo_room, hi_room))
    faces = _BOX_FACES + 8 * np.arange(len(boxes))[:, None, None]  # box b's corners from 8b
    faces[0] = faces[0][:, [0, 2, 1]]  # the shell faces the interior
    return TriangleMesh(
        vertices=np.concatenate([np.where(_BOX_CORNERS, hi, lo) for lo, hi in boxes]),
        triangles=faces.reshape(-1, 3),
    )
