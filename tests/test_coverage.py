import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfcover as sc
from surfcover.coverage import CoincidentPointError, per_sample_coverage, sensor_offsets
from surfcover.export import sample_colors, write_ply

from conftest import all_visible, make_sample_set


# Scalar reference for the expression `quality_matrix` evaluates in bulk.


def phi_lambert(p, n, c) -> float:
    """Lambertian inverse-square quality max(0, <n, unit(c-p)>) / ||c-p||^2,
    clamped at zero for sensors behind the surface's tangent plane."""
    d = np.asarray(c, float) - np.asarray(p, float)
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise CoincidentPointError("sample and sensor coincide")
    cosine = float(np.asarray(n, float) @ d) / dist
    return max(0.0, cosine) / dist**2


def test_phi_lambert_normal_incidence():
    assert phi_lambert((0, 0, 0), (0, 0, 1), (0, 0, 2)) == pytest.approx(0.25)


def test_phi_lambert_oblique():
    # cos 45deg / 8
    val = phi_lambert((0, 0, 0), (0, 0, 1), (2, 0, 2))
    assert val == pytest.approx(1 / (np.sqrt(2) * 8))


def test_phi_lambert_backface_clamp():
    assert phi_lambert((0, 0, 0), (0, 0, 1), (0, 0, -2)) == 0.0


def test_phi_lambert_singularity():
    with pytest.raises(CoincidentPointError):
        phi_lambert((0, 0, 0), (0, 0, 1), (0, 0, 0))


def _tiny_instance(kind, vis_bits=None):
    samples = make_sample_set([[0, 0, 0], [1, 0, 0]])
    cands = sc.CandidateSet(positions=[[0, 0, 2], [3, 4, 0]])
    vm = all_visible(samples, cands)
    if vis_bits is not None:
        vm = sc.VisibilityMatrix(
            bits=np.asarray(vis_bits, bool),
            sample_hash=samples.content_hash(),
            candidate_hash=cands.content_hash(),
        )
    return sc.build_instance(samples, cands, vm, kind)


def test_build_instance_visibility_kind_is_bits():
    inst = _tiny_instance(sc.QualityKind.VISIBILITY)
    assert (inst.phi == inst.vis.bits.astype(float)).all()


def test_build_instance_masking():
    inst = _tiny_instance(sc.QualityKind.LAMBERT_INVERSE_SQUARE, vis_bits=np.zeros((2, 2)))
    assert (inst.phi == 0).all()


def test_build_instance_lambert_matches_pointwise():
    inst = _tiny_instance(sc.QualityKind.LAMBERT_INVERSE_SQUARE)
    for i in range(2):
        for j in range(2):
            expected = phi_lambert(
                inst.samples.positions[i], inst.samples.normals[i], inst.candidates.positions[j]
            )
            assert inst.phi[i, j] == pytest.approx(expected)


def test_instance_dist_is_the_pairwise_norm():
    rng = np.random.default_rng(7)
    samples = make_sample_set(rng.uniform(0, 5, (9, 3)))
    cands = sc.CandidateSet(positions=rng.uniform(0, 5, (4, 3)))
    for kind in sc.QualityKind:
        inst = sc.build_instance(samples, cands, all_visible(samples, cands), kind)
        for i in range(9):
            for j in range(4):
                direct = np.linalg.norm(cands.positions[j] - samples.positions[i])
                # the 1-D norm goes through a dot product and may round an ulp apart
                assert inst.dist[i, j] == pytest.approx(direct, rel=4 * np.finfo(float).eps, abs=0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        dataclasses.replace(inst, dist=inst.dist[:, :3])
    i, j = np.argwhere(inst.phi > 0)[0]
    for bad in (np.nan, np.inf, -1e-300):
        phi = inst.phi.copy()
        phi[i, j] = bad
        with pytest.raises(ValueError, match="phi entries must be finite and non-negative"):
            dataclasses.replace(inst, phi=phi)
    hidden = inst.vis.bits.copy()
    hidden[i, j] = False
    with pytest.raises(ValueError, match="phi must be zero where visibility is zero"):
        dataclasses.replace(inst, vis=dataclasses.replace(inst.vis, bits=hidden))


def test_sensor_offsets_match_the_distance_expressions_they_replace():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-5, 5, (300, 3)) * 10.0 ** rng.uniform(-3, 3, (300, 1))
    pos = rng.uniform(-5, 5, (7, 3))
    diff, dist = sensor_offsets(pts, pos)
    assert np.array_equal(diff, pos[None, :, :] - pts[:, None, :])
    # quality_matrix took the norm of c - p; clustering.coverage_radius and
    # refine.improve_quality_max took the norm of p - c: the same bits
    assert np.array_equal(dist, np.linalg.norm(diff, axis=2))
    assert np.array_equal(dist, np.linalg.norm(pts[:, None, :] - pos[None, :, :], axis=2))
    samples = make_sample_set(pts)
    old_radius = float(
        np.linalg.norm(pts[:, None, :] - pos[None, :, :], axis=2).min(axis=1).max()
    )
    assert sc.coverage_radius(sc.CandidateSet(positions=pos), samples) == old_radius


def test_build_instance_coincident_error():
    samples = make_sample_set([[0, 0, 0]])
    cands = sc.CandidateSet(positions=[[0, 0, 0]])
    with pytest.raises(CoincidentPointError, match="sample 0"):
        sc.build_instance(
            samples, cands, all_visible(samples, cands), sc.QualityKind.LAMBERT_INVERSE_SQUARE
        )


def test_evaluate_empty_placement():
    inst = _tiny_instance(sc.QualityKind.VISIBILITY)
    rep = sc.evaluate(inst, [])
    assert rep.covered_ids == frozenset()
    assert rep.objective == 0


def test_evaluate_single_sensor_visibility_column():
    bits = np.array([[1, 0], [0, 1]], bool)
    inst = _tiny_instance(sc.QualityKind.VISIBILITY, vis_bits=bits)
    rep = sc.evaluate(inst, [0])
    assert rep.covered_ids == frozenset({0})


def test_evaluate_cumulative_threshold():
    samples = make_sample_set([[0, 0, 0]])
    cands = sc.CandidateSet(positions=[[0, 0, 1], [0, 0, 2]])  # phi 1.0 and 0.25
    inst = sc.build_instance(
        samples, cands, all_visible(samples, cands), sc.QualityKind.LAMBERT_INVERSE_SQUARE
    )
    rep = sc.evaluate(inst, [0, 1], threshold=1.1)
    assert rep.per_sample_f[0] == pytest.approx(1.25)
    assert rep.covered_ids == frozenset({0})
    rep2 = sc.evaluate(inst, [1], threshold=1.1)
    assert rep2.covered_ids == frozenset()


def test_threshold_tie_counts_everywhere():
    # phi = 1 / 2^2 = 0.25 exactly; a sum equal to the threshold is covered
    samples = make_sample_set([[0, 0, 0]])
    cands = sc.CandidateSet(positions=[[0, 0, 2]])
    inst = sc.build_instance(
        samples, cands, all_visible(samples, cands), sc.QualityKind.LAMBERT_INVERSE_SQUARE
    )
    assert inst.phi[0, 0] == 0.25
    res = sc.solve(sc.build_cumulative_model(inst, k=1, threshold=0.25))
    assert res.primal == 1.0
    assert sc.evaluate(inst, [0], threshold=0.25).objective == 1.0
    colors = sample_colors(inst, [0], threshold=0.25)
    assert int((colors != 255).any(axis=1).sum()) == 1


def test_evaluate_requires_threshold_for_cumulative():
    inst = _tiny_instance(sc.QualityKind.LAMBERT_INVERSE_SQUARE)
    with pytest.raises(ValueError, match="threshold"):
        sc.evaluate(inst, [0])


def test_evaluate_rejects_bad_placement():
    inst = _tiny_instance(sc.QualityKind.VISIBILITY)
    with pytest.raises(ValueError):
        sc.evaluate(inst, [0, 0])
    with pytest.raises(ValueError):
        sc.evaluate(inst, [5])
    for bad in ([1.5], [1.0], [True], [np.True_]):  # True == 1 == 1.0
        with pytest.raises(ValueError, match="integers"):
            sc.evaluate(inst, bad)
    assert sc.evaluate(inst, np.array([1, 0])).covered_ids == sc.evaluate(inst, [1, 0]).covered_ids


@st.composite
def random_instances(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    samples = make_sample_set(rng.uniform(0, 5, (n, 3)))
    cands = sc.CandidateSet(positions=rng.uniform(6, 10, (m, 3)))
    vm = sc.VisibilityMatrix(
        bits=rng.random((n, len(cands))) < 0.7,
        sample_hash=samples.content_hash(),
        candidate_hash=cands.content_hash(),
    )
    return samples, cands, vm


@settings(max_examples=60, deadline=None)
@given(random_instances(), st.integers(0, 10**6))
def test_covers_within_is_the_visible_pairs_within_the_radius(inst_parts, seed):
    # the candidate-major cover, read through its transposed view, is the
    # problem-2 rule on the sample-major arrays at every radius, inf included
    samples, cands, vm = inst_parts
    inst = sc.build_instance(samples, cands, vm, sc.QualityKind.VISIBILITY)
    rng = np.random.default_rng(seed)
    radii = [0.0, np.inf, *inst.dist.ravel()[:3], *rng.uniform(0, 15, 3)]
    for r in radii:
        cover = inst.covers_within(r)
        assert cover.shape == inst.vis.bits.shape and cover.T.flags.c_contiguous
        assert (cover == (inst.vis.bits & (inst.dist <= r))).all()


@settings(max_examples=40, deadline=None)
@given(random_instances(), st.integers(0, 10**6))
def test_cumulative_dominates_best_sensor(inst_parts, seed):
    samples, cands, vm = inst_parts
    lam = sc.build_instance(samples, cands, vm, sc.QualityKind.LAMBERT_INVERSE_SQUARE)
    sel = list(range(len(cands)))
    f_sum = per_sample_coverage(lam, sel)
    f_max = lam.phi[:, sel].max(axis=1)
    assert (f_sum >= f_max - 1e-12).all()


@settings(max_examples=40, deadline=None)
@given(random_instances())
def test_adding_sensor_never_decreases_coverage(inst_parts):
    samples, cands, vm = inst_parts
    inst = sc.build_instance(samples, cands, vm, sc.QualityKind.LAMBERT_INVERSE_SQUARE)
    m = len(cands)
    before = per_sample_coverage(inst, list(range(m - 1)))
    after = per_sample_coverage(inst, list(range(m)))
    assert (after >= before - 1e-15).all()


@settings(max_examples=40, deadline=None)
@given(random_instances(), st.randoms(use_true_random=False))
def test_evaluate_permutation_invariant(inst_parts, rnd):
    samples, cands, vm = inst_parts
    inst = sc.build_instance(samples, cands, vm, sc.QualityKind.LAMBERT_INVERSE_SQUARE)
    sel = list(range(len(cands)))
    shuffled = sel[:]
    rnd.shuffle(shuffled)
    a = sc.evaluate(inst, sel, threshold=0.05)
    b = sc.evaluate(inst, shuffled, threshold=0.05)
    assert a.covered_ids == b.covered_ids
    assert np.allclose(a.per_sample_f, b.per_sample_f)


def test_ply_rows_match_numpy_scalar_formatting(tmp_path):
    # rows are formatted from Python floats and ints; numpy's float64 and
    # uint8 scalars gave the same text, also for negative, tiny, huge and
    # non-finite values
    rng = np.random.default_rng(3)
    positions = np.vstack([
        rng.normal(0, 10, (50, 3)),
        [[-0.0, 5e-324, -1e-300], [1.7976931348623157e308, -3.4e38, 1e-7]],
        [[123456789.123, -0.1, 2.0 / 3.0], [np.inf, -np.inf, np.nan]],
    ])
    colors = rng.integers(0, 256, (len(positions), 3)).astype(np.uint8)
    write_ply(tmp_path / "out.ply", positions, colors)
    rows = "".join(
        f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} {c[0]} {c[1]} {c[2]}\n"
        for p, c in zip(positions, colors)
    )
    data = (tmp_path / "out.ply").read_bytes()
    header, body = data.split(b"end_header\n")
    assert header.startswith(b"ply\n") and body == rows.encode()
