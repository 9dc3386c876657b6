"""Correctness checks on the outputs of one pass; run outside the timed code.

Every seed gets the invariant checks. Seeds listed in ``reference.json`` are
also compared against the answers recorded for them: P1/P3 objectives, P2
radii, the visibility matrix's content hash and the two-phase objectives.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from surfcover import coverage
from surfcover.drivers import PipelineReport
from surfcover.ilp import SolveStatus
from surfcover.visibility import segment_occluded_brute

REFERENCE = Path(__file__).resolve().parent / "reference.json"
BRUTE_PAIRS = 64  # visibility bits re-checked against the linear-scan oracle
TOL = 1e-9


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def bits_hash(bits: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=8)
    h.update(str(bits.shape).encode())
    h.update(np.packbits(bits, axis=1).tobytes())
    return h.hexdigest()


def _solve_ok(res) -> list[str]:
    bad = []
    if res.status is not SolveStatus.OPTIMAL:
        bad.append(f"status {res.status.value}, expected optimal")
    if res.gap != 0:
        bad.append(f"gap {res.gap}, expected 0")
    return bad


def _check_visibility(vm, scene, seed) -> list[str]:
    rng = np.random.default_rng(seed)
    n, m = vm.bits.shape
    rows = rng.integers(0, n, BRUTE_PAIRS)
    cols = rng.integers(0, m, BRUTE_PAIRS)
    wrong = 0
    for i, j in zip(rows, cols):
        seen = not segment_occluded_brute(
            scene.mesh, scene.samples.positions[i], scene.candidates.positions[j]
        )
        wrong += seen != bool(vm.bits[i, j])
    if wrong:
        return [f"{wrong} of {BRUTE_PAIRS} sampled bits differ from the brute-force oracle"]
    return []


def _check_cover(job) -> tuple[list[str], float]:
    """P1 and P3: optimal, and the solver's value is the evaluated objective."""
    placement, report, res = job.out
    bad = _solve_ok(res)
    if len(placement) > job.params["k"]:
        bad.append(f"placement uses {len(placement)} sensors, budget {job.params['k']}")
    if res.primal != report.objective:
        bad.append(f"solver primal {res.primal} != evaluated objective {report.objective}")
    return bad, report.objective


def _check_p2(job) -> tuple[list[str], float]:
    """P2: optimal, and the placement really covers ceil(N rho) samples
    within the returned radius."""
    radius, placement, res = job.out
    bad = _solve_ok(res)
    inst = job.params["instance"]
    cols = list(placement)
    dist = np.linalg.norm(
        inst.samples.positions[:, None, :] - inst.candidates.positions[cols][None, :, :], axis=2
    )
    covered = int((inst.vis.bits[:, cols] & (dist <= radius)).any(axis=1).sum())
    need = math.ceil(inst.n_samples * job.params["rho"] - 1e-12)
    if len(placement) > job.params["k"] or covered < need:
        bad.append(
            f"{len(placement)} sensors cover {covered} samples within r={radius}, need {need}"
        )
    return bad, radius


def _check_two_phase(job) -> tuple[list[str], list[float]]:
    rep: PipelineReport = job.out
    coarse, refined = rep.coarse.objective, rep.refined.objective
    gain = refine_gain(rep)
    bad = [] if gain >= -TOL else [f"refinement made the objective worse: {coarse} -> {refined}"]
    return bad, [coarse, refined]


def refine_gain(rep: PipelineReport) -> float:
    """Improvement of phase 2 over phase 1: covered samples gained, or, for
    the max-min radius (problem 2), radius removed."""
    if rep.problem == 2:
        return rep.coarse.objective - rep.refined.objective
    return rep.refined.objective - rep.coarse.objective


def _check_spvm(job) -> list[str]:
    loaded, vm = job.out, job.params["vm"]
    same = (
        np.array_equal(loaded.bits, vm.bits)
        and loaded.sample_hash == vm.sample_hash
        and loaded.candidate_hash == vm.candidate_hash
    )
    return [] if same else ["SPVM round trip changed the matrix"]


def _check_export(job) -> list[str]:
    colors, path = job.out
    report = coverage.evaluate(job.params["instance"], job.params["placement"])
    colored = int((colors != 255).any(axis=1).sum())
    bad = []
    if colored != len(report.covered_ids):
        bad.append(f"{colored} coloured samples, {len(report.covered_ids)} covered")
    with open(path) as fh:
        lines = fh.read().splitlines()
    n = len(colors)
    if f"element vertex {n}" not in lines or len(lines) - lines.index("end_header") - 1 != n:
        bad.append(f"PLY file does not hold {n} vertices")
    return bad


def check_pass(workload_name: str, scene, jobs, seed: int, reference: dict):
    """Returns ({job label: [failure, ...]}, {job label: answer})."""
    failures: dict[str, list[str]] = {}
    answers: dict = {}
    last: dict[str, float] = {}
    for job in jobs:
        bad: list[str] = []
        if job.step == "visibility_s":
            bad = _check_visibility(job.out, scene, seed)
            answers[job.label] = bits_hash(job.out.bits)
        elif job.step in ("p1_s", "p3_s", "p2_s"):
            bad, value = (_check_p2 if job.step == "p2_s" else _check_cover)(job)
            prev = last.get(job.step)
            if prev is not None:
                worse = value > prev + TOL if job.step == "p2_s" else value < prev - TOL
                if worse:
                    bad.append(f"objective {value} not monotone in k after {prev}")
            last[job.step] = value
            answers[job.label] = value
        elif job.step == "two_phase_s":
            bad, answers[job.label] = _check_two_phase(job)
        elif job.label == "spvm round trip":
            bad = _check_spvm(job)
        else:
            bad = _check_export(job)
        if bad:
            failures[job.label] = bad
    expected = reference.get(workload_name, {}).get(str(seed), {})
    for label, want in expected.items():
        got = answers.get(label)
        if not _same(got, want):
            failures.setdefault(label, []).append(f"answer {got} differs from reference {want}")
    return failures, answers


def _same(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, str):
        return got == want
    return got is not None and math.isclose(got, want, rel_tol=TOL, abs_tol=TOL)
