import csv
import json
import struct

import numpy as np
import pytest

import surfcover as sc
from surfcover.cli import main
from surfcover.export import PALETTE

from conftest import spvm_version1, with_panel


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Mesh, samples, candidates, and visibility cache built via the CLI."""
    d = tmp_path_factory.mktemp("cli")
    mesh = d / "room.obj"
    samples = d / "samples.json"
    cands = d / "cands.json"
    vis = d / "vis.spvm"
    assert main(["gen-scene", "--kind", "room", "--out", str(mesh)]) == 0
    assert main(["sample", "--mesh", str(mesh), "--pitch", "0.8",
                 "--out", str(samples)]) == 0
    assert main(["candidates", "--plane-z", "2.8",
                 "--rect", "0.5", "0.5", "5.5", "3.5", "--pitch", "1.0",
                 "--out", str(cands)]) == 0
    assert main(["visibility", "--mesh", str(mesh), "--samples", str(samples),
                 "--candidates", str(cands), "--out", str(vis)]) == 0
    return d, mesh, samples, cands, vis


def _trio_args(samples, cands, vis):
    return ["--samples", str(samples), "--candidates", str(cands), "--vis", str(vis)]


def test_visibility_cache_reused(workdir):
    d, mesh, samples, cands, vis = workdir
    before = vis.stat().st_mtime_ns
    assert main(["visibility", "--mesh", str(mesh), "--samples", str(samples),
                 "--candidates", str(cands), "--out", str(vis)]) == 0
    assert vis.stat().st_mtime_ns == before  # untouched on a cache hit


def test_solve_problem1(workdir):
    d, mesh, samples, cands, vis = workdir
    out = d / "p1.json"
    code = main(["solve", "--problem", "1", "--k", "2",
                 *_trio_args(samples, cands, vis), "--out", str(out)])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["problem"] == 1
    assert len(result["placement"]) == 2
    assert result["objective"] > 0
    assert 0 < result["coverage_ratio"] <= 1
    assert "timestamp" in result


def test_solve_problem2(workdir):
    d, mesh, samples, cands, vis = workdir
    out = d / "p2.json"
    code = main(["solve", "--problem", "2", "--k", "3", "--rho", "0.5",
                 *_trio_args(samples, cands, vis), "--out", str(out)])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["radius"] > 0
    assert result["min_quality"] == pytest.approx(1.0 / result["radius"])


def test_solve_problem3(workdir):
    d, mesh, samples, cands, vis = workdir
    out = d / "p3.json"
    code = main(["solve", "--problem", "3", "--k", "2", "--phi", "0.05",
                 *_trio_args(samples, cands, vis), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["params"]["phi"] == 0.05


def test_deterministic_flag_gives_identical_bytes(workdir):
    # problem 3 at k=3 branches down exclusion chains; problem 1 closes early
    d, mesh, samples, cands, vis = workdir
    a, b = d / "det_a.json", d / "det_b.json"
    for problem in (["1", "--k", "2"], ["3", "--k", "3", "--phi", "0.05"]):
        argv = ["solve", "--problem", *problem, "--deterministic",
                *_trio_args(samples, cands, vis)]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_phi_on_problem1_is_usage_error(workdir):
    d, mesh, samples, cands, vis = workdir
    code = main(["solve", "--problem", "1", "--k", "1", "--phi", "0.1",
                 *_trio_args(samples, cands, vis), "--out", str(d / "x.json")])
    assert code == 2


@pytest.mark.parametrize("problem", ["1", "3"])
def test_rho_off_problem2_is_usage_error(workdir, capsys, problem):
    d, mesh, samples, cands, vis = workdir
    phi = ["--phi", "0.1"] if problem == "3" else []
    code = main(["solve", "--problem", problem, "--k", "1", "--rho", "0.5", *phi,
                 *_trio_args(samples, cands, vis), "--out", str(d / "x.json")])
    assert code == 2
    assert "--rho only applies to --problem 2" in capsys.readouterr().err


def test_problem3_without_phi_is_usage_error(workdir):
    d, mesh, samples, cands, vis = workdir
    code = main(["solve", "--problem", "3", "--k", "1",
                 *_trio_args(samples, cands, vis), "--out", str(d / "x.json")])
    assert code == 2


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def test_infeasible_ratio_exits_3(workdir):
    d, mesh, samples, cands, vis = workdir
    # the obstacle shadows some floor samples from every candidate, so full
    # coverage with one sensor is unachievable
    code = main(["solve", "--problem", "2", "--k", "1", "--rho", "1.0",
                 *_trio_args(samples, cands, vis), "--out", str(d / "inf.json")])
    vm = sc.load_spvm(str(vis))
    if vm.bits.all(axis=1).all():
        pytest.skip("every sample sees some candidate with k=1 coverage")
    assert code == 3


def test_problem2_top_radius_timeout_exits_4(workdir, monkeypatch):
    d, mesh, samples, cands, vis = workdir
    timed_out = sc.SolveResult(sc.SolveStatus.TIME_LIMIT, (), 0.0, 1.0, 1.0, 1, 0.0)
    monkeypatch.setattr(sc.drivers, "solve", lambda model, **kwargs: timed_out)
    code = main(["solve", "--problem", "2", "--k", "1", "--rho", "1.0",
                 *_trio_args(samples, cands, vis), "--out", str(d / "tl.json")])
    assert code == 4


def test_stopped_problem2_solve_whose_bound_misses_the_target_exits_3(workdir):
    # one pick's root bound is exact: below the target at the largest radius,
    # it proves infeasibility however soon the clock stops the solve
    d, mesh, samples, cands, vis = workdir
    argv = ["solve", "--problem", "2", "--k", "1", "--rho", "0.85",
            *_trio_args(samples, cands, vis), "--out", str(d / "k1.json")]
    assert main(argv) == 3
    assert main(argv + ["--time-limit", "0.000001"]) == 3


def test_visibility_recomputed_when_mesh_changes(workdir, tmp_path):
    d, mesh, samples, cands, vis = workdir
    occluded = with_panel(sc.load_obj(str(mesh)))
    occluded_obj = tmp_path / "room_panel.obj"
    sc.save_obj(occluded, str(occluded_obj))
    cache = tmp_path / "vis.spvm"
    cache.write_bytes(vis.read_bytes())
    visibility = ["visibility", "--mesh", str(occluded_obj), "--samples", str(samples),
                  "--candidates", str(cands), "--out", str(cache)]
    assert main(visibility) == 0
    expected = sc.visibility_matrix(
        sc.build_bvh(occluded), sc.load_sample_set(str(samples)), sc.load_candidate_set(str(cands))
    )
    bits = sc.load_spvm(str(cache)).bits
    assert (bits == expected.bits).all()
    assert bits.sum() < sc.load_spvm(str(vis)).bits.sum()
    assert sc.load_spvm(str(cache)).mesh_hash == occluded.content_hash()
    rebuilt = cache.read_bytes()
    assert main(visibility) == 0
    assert cache.read_bytes() == rebuilt  # a cache hit
    # a version-1 cache names no mesh and no longer loads, so it is rebuilt as version 2
    cache.write_bytes(spvm_version1(rebuilt))
    assert main(visibility) == 0
    assert cache.read_bytes() == rebuilt


def test_stale_cache_exits_2_and_mentions_rerun(workdir, capsys):
    d, mesh, samples, cands, vis = workdir
    other = d / "fewer.json"
    assert main(["sample", "--mesh", str(mesh), "--pitch", "1.5",
                 "--out", str(other)]) == 0
    code = main(["solve", "--problem", "1", "--k", "1",
                 "--samples", str(other), "--candidates", str(cands),
                 "--vis", str(vis), "--out", str(d / "x.json")])
    assert code == 2
    assert "re-run" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_problem3_nonpositive_phi_exits_2(workdir, capsys, command):
    d, mesh, samples, cands, vis = workdir
    budget = ["--k", "1"] if command == "solve" else ["--k-range", "0..1"]
    code = main([command, "--problem", "3", *budget, "--phi", "0",
                 *_trio_args(samples, cands, vis), "--out", str(d / "phi0.out")])
    assert code == 2
    assert "--phi" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("rho", ["1.5", "0", "-0.2"])
def test_out_of_range_rho_exits_2(workdir, capsys, command, rho):
    d, mesh, samples, cands, vis = workdir
    budget = ["--k", "1"] if command == "solve" else ["--k-range", "1..2"]
    code = main([command, "--problem", "2", *budget, "--rho", rho,
                 *_trio_args(samples, cands, vis), "--out", str(d / "rho.out")])
    assert code == 2
    assert "--rho" in capsys.readouterr().err


@pytest.mark.parametrize("gap", ["0.9", "0"])
def test_gap_on_problem2_exits_2(workdir, capsys, gap):
    d, mesh, samples, cands, vis = workdir
    out = d / "p2gap.json"
    code = main(["solve", "--problem", "2", "--k", "3", "--rho", "0.5", "--gap", gap,
                 *_trio_args(samples, cands, vis), "--out", str(out)])
    assert code == 2
    assert "--gap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budget", [["solve", "--k", "-1"], ["sweep", "--k-range=-1..1"]])
def test_negative_budget_exits_2(workdir, capsys, budget):
    d, mesh, samples, cands, vis = workdir
    code = main([budget[0], "--problem", "1", *budget[1:],
                 *_trio_args(samples, cands, vis), "--out", str(d / "k.out")])
    assert code == 2
    assert "--k" in capsys.readouterr().err


def _flag_argv(workdir, command, flags):
    """Argv of `command` with `flags` and otherwise valid inputs; in `refine`
    a flag paired with None is left out."""
    d, mesh, samples, cands, vis = workdir
    out = ["--out", str(d / "flag.out")]
    if command == "gen-scene":
        return ["gen-scene", "--kind", "terrain", *flags, *out]
    if command in ("solve", "sweep"):
        return [command, "--problem", "1", *_trio_args(samples, cands, vis), *flags, *out]
    if command == "sample":
        return ["sample", "--mesh", str(mesh), *flags, *out]
    if command == "candidates":
        return ["candidates", "--plane-z", "2.8", "--rect", "0.5", "0.5", "5.5", "3.5",
                *flags, *out]
    if command == "approx":
        return ["approx", "--samples", str(samples), "--plane-z", "2.8", *flags, *out]
    solved = d / "p1.json"
    if not solved.exists():
        assert main(["solve", "--problem", "1", "--k", "2",
                     *_trio_args(samples, cands, vis), "--out", str(solved)]) == 0
    inputs = {"--mesh": str(mesh), "--samples": str(samples), "--candidates": str(cands),
              "--vis": str(vis), "--in": str(solved), **dict(zip(flags[::2], flags[1::2]))}
    given = [t for flag, value in inputs.items() if value is not None for t in (flag, value)]
    return ["refine", "--method", "grid", *given, *out]


@pytest.mark.parametrize("command, flags, flag", [
    ("sample", ["--pitch", "-1"], "--pitch"),
    ("sample", ["--pitch", "0.8", "--tau", "5"], "--tau"),
    ("candidates", ["--pitch", "0"], "--pitch"),
    ("approx", ["--k", "0"], "--k"),
    ("refine", ["--fine-pitch", "0"], "--fine-pitch"),
    ("refine", ["--neighborhood", "-1"], "--neighborhood"),
    ("refine", ["--rounds", "-1"], "--rounds"),
    ("solve", ["--k", "1", "--time-limit", "-1"], "--time-limit"),
    ("solve", ["--k", "1", "--time-limit", "nan"], "--time-limit"),
    ("solve", ["--k", "1", "--gap", "-1"], "--gap"),
    ("gen-scene", ["--cells", "0"], "--cells"),
    ("sweep", ["--k-range", "3..1"], "--k-range"),
    ("candidates", ["--pitch", "1.0", "--rect", "5.5", "0.5", "0.5", "3.5"], "--rect"),
    ("refine", ["--mesh", None], "--mesh"),
    ("refine", ["--candidates", None], "--candidates"),
])
def test_out_of_range_flag_exits_2(workdir, capsys, command, flags, flag):
    code = main(_flag_argv(workdir, command, flags))
    assert code == 2
    assert flag in capsys.readouterr().err


def test_zero_neighborhood_reaches_refine_grid(workdir, monkeypatch):
    seen = {}

    def refine_grid(instance, placement, bvh, **kwargs):
        seen.update(kwargs)
        return instance.candidates.positions[list(placement)], 0.0

    monkeypatch.setattr(sc.refine, "refine_grid", refine_grid)
    assert main(_flag_argv(workdir, "refine", ["--neighborhood", "0"])) == 0
    assert seen["neighborhood"] == 0.0


def test_truncated_cache_is_stale(workdir, tmp_path, capsys):
    # a cut-off file, and headers whose N x ceil(M/8) payload is larger than
    # memory (N = 2^40) or than an index (N = M = 2^62) over an empty payload
    d, mesh, samples, cands, vis = workdir
    cache = tmp_path / "vis.spvm"
    headers = [b"SPVM" + struct.pack("<I5Q", 2, n, m, 0, 0, 0)
               for n, m in ((2**40, 1), (2**62, 2**62))]
    for content in (b"SPVM", *headers, spvm_version1(vis.read_bytes())):
        cache.write_bytes(content)
        code = main(["solve", "--problem", "1", "--k", "1", *_trio_args(samples, cands, cache),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "re-run" in capsys.readouterr().err
        assert main(["visibility", "--mesh", str(mesh), "--samples", str(samples),
                     "--candidates", str(cands), "--out", str(cache)]) == 0
        assert (sc.load_spvm(str(cache)).bits == sc.load_spvm(str(vis)).bits).all()


def test_sweep_csv_monotone(workdir):
    d, mesh, samples, cands, vis = workdir
    out = d / "sweep.csv"
    code = main(["sweep", "--problem", "1", "--k-range", "1..4",
                 *_trio_args(samples, cands, vis), "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in rows] == [1, 2, 3, 4]
    objs = [float(r["objective"]) for r in rows]
    assert objs == sorted(objs)
    assert all(float(r["gap"]) == 0.0 and r["status"] == "optimal" for r in rows)


@pytest.mark.parametrize("problem", [["2", "--rho", "0.85"], ["3", "--phi", "0.05"]])
def test_sweep_exits_4_when_the_clock_stops_a_solve(workdir, problem):
    # a microsecond stops each solve at its first clock read after the root;
    # the room is feasible with two sensors at its largest radius, so no
    # problem-2 step of this range can be proved infeasible and exit 3
    d, mesh, samples, cands, vis = workdir
    out = d / "stopped.csv"
    code = main(["sweep", "--problem", *problem, "--k-range", "2..3", "--time-limit", "0.000001",
                 *_trio_args(samples, cands, vis), "--out", str(out)])
    assert code == 4
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in rows] == [2, 3]
    assert "time-limit" in [r["status"] for r in rows]
    for r in rows:
        # only a proof is optimal; problem 2 reports gap 0 even when stopped
        assert r["status"] in ("optimal", "time-limit")
        assert (r["status"] == "optimal") <= (float(r["gap"]) == 0.0)


@pytest.fixture(scope="module")
def readme_room(tmp_path_factory):
    """The inputs of README's walkthrough: its room, sampled at pitch 0.5,
    and candidates at pitch 0.8."""
    d = tmp_path_factory.mktemp("readme")
    trio = _trio_args(d / "samples.json", d / "cands.json", d / "vis.spvm")
    for argv in (["gen-scene", "--kind", "room", "--out", str(d / "room.obj")],
                 ["sample", "--mesh", str(d / "room.obj"), "--pitch", "0.5",
                  "--out", str(d / "samples.json")],
                 ["candidates", "--plane-z", "2.8", "--rect", "0.5", "0.5", "5.5", "3.5",
                  "--pitch", "0.8", "--out", str(d / "cands.json")],
                 ["visibility", "--mesh", str(d / "room.obj"), *trio[:4],
                  "--out", str(d / "vis.spvm")]):
        assert main(argv) == 0
    return d, trio


def _sweep_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_a_problem_2_sweep_keeps_the_rows_of_the_feasible_k(readme_room, capsys):
    # one sensor cannot see 85% of the room at any radius; k = 2..4 can, and
    # their rows are the same bytes as in a sweep that leaves k = 1 out
    d, trio = readme_room
    sweep = ["sweep", "--problem", "2", "--rho", "0.85", *trio, "--deterministic"]
    assert main([*sweep, "--k-range", "1..4", "--out", str(d / "all.csv")]) == 3
    assert "unachievable with 1 sensors" in capsys.readouterr().err
    rows = _sweep_rows(d / "all.csv")
    assert [int(r["k"]) for r in rows] == [1, 2, 3, 4]
    assert (rows[0]["objective"], rows[0]["gap"], rows[0]["status"]) == ("", "", "infeasible")
    assert [r["status"] for r in rows[1:]] == ["optimal"] * 3
    assert main([*sweep, "--k-range", "2..4", "--out", str(d / "feasible.csv")]) == 0
    lines = (d / "all.csv").read_text().splitlines()
    assert lines[:1] + lines[2:] == (d / "feasible.csv").read_text().splitlines()


def test_an_infeasible_k_outranks_a_stopped_clock_in_the_sweeps_exit(readme_room):
    # k = 1 is infeasible even under a microsecond limit, which stops k = 2 or 3
    d, trio = readme_room
    out = d / "mixed.csv"
    code = main(["sweep", "--problem", "2", "--rho", "0.85", "--k-range", "1..3",
                 "--time-limit", "0.000001", *trio, "--out", str(out)])
    assert code == 3
    status = [r["status"] for r in _sweep_rows(out)]
    assert status[0] == "infeasible" and "time-limit" in status[1:]


def test_bad_k_range_exits_2(workdir):
    d, mesh, samples, cands, vis = workdir
    code = main(["sweep", "--problem", "1", "--k-range", "3",
                 *_trio_args(samples, cands, vis), "--out", str(d / "s.csv")])
    assert code == 2


def test_approx_then_onecenter_refine(workdir):
    d, mesh, samples, cands, vis = workdir
    approx_out = d / "fpc.json"
    assert main(["approx", "--samples", str(samples), "--k", "3",
                 "--plane-z", "2.8", "--out", str(approx_out)]) == 0
    fpc = json.loads(approx_out.read_text())
    assert len(fpc["positions"]) == 3
    refined_out = d / "fpc_refined.json"
    assert main(["refine", "--method", "onecenter", "--samples", str(samples),
                 "--in", str(approx_out), "--out", str(refined_out)]) == 0
    refined = json.loads(refined_out.read_text())
    assert refined["radius"] <= fpc["radius"] + 1e-12


def test_grid_refine_after_solve(workdir):
    d, mesh, samples, cands, vis = workdir
    solved = d / "p1.json"
    if not solved.exists():
        assert main(["solve", "--problem", "1", "--k", "2",
                     *_trio_args(samples, cands, vis), "--out", str(solved)]) == 0
    out = d / "p1_refined.json"
    code = main(["refine", "--method", "grid", "--rounds", "1",
                 "--fine-pitch", "0.4", "--mesh", str(mesh),
                 *_trio_args(samples, cands, vis),
                 "--in", str(solved), "--out", str(out)])
    assert code == 0
    assert (json.loads(out.read_text())["objective"]
            >= json.loads(solved.read_text())["objective"])


def test_grid_refine_rejects_problem2_result(workdir):
    d, mesh, samples, cands, vis = workdir
    p2 = d / "p2.json"
    if not p2.exists():
        assert main(["solve", "--problem", "2", "--k", "3", "--rho", "0.5",
                     *_trio_args(samples, cands, vis), "--out", str(p2)]) == 0
    code = main(["refine", "--method", "grid", "--mesh", str(mesh),
                 *_trio_args(samples, cands, vis),
                 "--in", str(p2), "--out", str(d / "x.json")])
    assert code == 2


def test_grid_refine_rejects_a_vis_built_on_another_mesh(workdir, tmp_path, capsys):
    # refinement starts from the --vis columns and traces moves through
    # --mesh, so the two must hold the same occluders
    d, mesh, samples, cands, vis = workdir
    solved = d / "p1.json"
    if not solved.exists():
        assert main(["solve", "--problem", "1", "--k", "2",
                     *_trio_args(samples, cands, vis), "--out", str(solved)]) == 0
    boxed = tmp_path / "room_boxed.obj"
    sc.save_obj(sc.gen_room(obstacles=[
        ((1.0, 1.0, 0.0), (3.0, 2.2, 0.7)),
        ((4.5, 0.5, 0.0), (5.5, 3.5, 1.1)),
        ((3.4, 2.6, 0.0), (4.2, 3.4, 1.5)),
    ]), str(boxed))

    def refine(vis_file):
        return main(["refine", "--method", "grid", "--rounds", "1",
                     "--fine-pitch", "0.4", "--mesh", str(boxed),
                     *_trio_args(samples, cands, vis_file),
                     "--in", str(solved), "--out", str(tmp_path / "x.json")])

    assert refine(vis) == 2
    assert "re-run" in capsys.readouterr().err
    # a version-1 file records no mesh hash, so it cannot show which mesh it is of
    version1 = tmp_path / "v1.spvm"
    version1.write_bytes(spvm_version1(vis.read_bytes()))
    assert refine(version1) == 2
    err = capsys.readouterr().err
    assert "unsupported SPVM version 1" in err and "re-run" in err


def test_export_ply(workdir):
    d, mesh, samples, cands, vis = workdir
    solved = d / "p1.json"
    out = d / "cover.ply"
    code = main(["export", "--in", str(solved),
                 *_trio_args(samples, cands, vis), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    n = len(sc.load_sample_set(str(samples)))
    assert f"element vertex {n}" in text
    assert text.startswith("ply")


def test_export_of_problem2_colours_only_samples_within_the_radius(workdir):
    d, mesh, samples, cands, vis = workdir
    solved, out = d / "p2-rho08.json", d / "p2-rho08.ply"
    assert main(["solve", "--problem", "2", "--k", "3", "--rho", "0.8",
                 *_trio_args(samples, cands, vis), "--out", str(solved)]) == 0
    assert main(["export", "--in", str(solved),
                 *_trio_args(samples, cands, vis), "--out", str(out)]) == 0
    result = json.loads(solved.read_text())
    placement = result["placement"]
    body = out.read_text().split("end_header\n", 1)[1].strip().splitlines()
    colours = np.array([line.split()[3:] for line in body], dtype=int)
    coloured = (colours != 255).any(axis=1)
    s, c = sc.load_sample_set(str(samples)), sc.load_candidate_set(str(cands))
    seen = sc.load_spvm(str(vis)).bits[:, placement]
    instance = sc.build_instance(s, c, sc.load_spvm(str(vis)), sc.QualityKind.VISIBILITY)
    within = instance.covers_within(result["radius"])[:, placement].any(axis=1)
    assert (coloured == within).all()
    assert within.sum() < seen.any(axis=1).sum()
    assert coloured.sum() >= 0.8 * len(s)
    # each coloured sample takes the colour of the nearest selected candidate that sees it
    dist = np.linalg.norm(s.positions[:, None, :] - c.positions[placement][None, :, :], axis=2)
    nearest = np.where(seen, dist, np.inf).argmin(axis=1)
    assert (np.sum(seen, axis=1)[coloured] > 1).any()  # some samples have a choice
    expected = np.array(PALETTE)[nearest % len(PALETTE)]
    assert (colours[coloured] == expected[coloured]).all()


def test_export_empty_placement_all_white(workdir):
    d, mesh, samples, cands, vis = workdir
    empty = d / "empty.json"
    empty.write_text(json.dumps({"problem": 1, "placement": [], "params": {}}))
    out = d / "white.ply"
    assert main(["export", "--in", str(empty),
                 *_trio_args(samples, cands, vis), "--out", str(out)]) == 0
    body = out.read_text().split("end_header\n", 1)[1].strip().splitlines()
    assert all(line.split()[3:] == ["255", "255", "255"] for line in body)


def _free_position_result(workdir, method):
    """A result of `method` (approx, onecenter or grid), whose placement is null."""
    d, mesh, samples, cands, vis = workdir
    fpc, out = d / "free_fpc.json", d / f"free_{method}.json"
    if method != "grid":
        assert main(["approx", "--samples", str(samples), "--k", "2",
                     "--plane-z", "2.8", "--out", str(fpc)]) == 0
    if method == "approx":
        return fpc
    if method == "onecenter":
        refine = ["--method", "onecenter", "--samples", str(samples), "--in", str(fpc)]
    else:
        solved = d / "free_p1.json"
        assert main(["solve", "--problem", "1", "--k", "2",
                     *_trio_args(samples, cands, vis), "--out", str(solved)]) == 0
        refine = ["--method", "grid", "--rounds", "0", "--mesh", str(mesh),
                  *_trio_args(samples, cands, vis), "--in", str(solved)]
    assert main(["refine", *refine, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["placement"] is None
    return out


@pytest.mark.parametrize("method", ["approx", "onecenter", "grid"])
def test_export_without_candidate_placement_exits_2(workdir, capsys, method):
    d, mesh, samples, cands, vis = workdir
    result = _free_position_result(workdir, method)
    out = d / f"free_{method}.ply"
    code = main(["export", "--in", str(result),
                 *_trio_args(samples, cands, vis), "--out", str(out)])
    assert code == 2
    assert "no candidate placement" in capsys.readouterr().err
    assert not out.exists()


def test_grid_refine_of_grid_refined_result_exits_2(workdir, capsys):
    d, mesh, samples, cands, vis = workdir
    result = _free_position_result(workdir, "grid")
    code = main(["refine", "--method", "grid", "--mesh", str(mesh),
                 *_trio_args(samples, cands, vis), "--in", str(result),
                 "--out", str(d / "twice.json")])
    assert code == 2
    assert "no candidate placement" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["export", "refine"])
def test_out_of_range_result_placement_exits_2(workdir, capsys, command):
    d, mesh, samples, cands, vis = workdir
    bad = d / "bad_placement.json"
    bad.write_text(json.dumps({"problem": 1, "k": 1, "placement": [-1], "params": {}}))
    extra = ["--method", "grid", "--mesh", str(mesh)] if command == "refine" else []
    code = main([command, *extra, "--in", str(bad),
                 *_trio_args(samples, cands, vis), "--out", str(d / "bad.out")])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


# OBJ text, and what the error line says after the file's path
BAD_OBJ = {
    "zero-area face": ("v 0 0 0\nv 1 0 0\nv 2 0 0\nv 0 1 0\nf 1 2 4\nf 1 2 3\n", ": "),
    "bad vertex coordinate": ("v 0 0 x\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
                              ":1: bad vertex coordinate: 'v 0 0 x'"),
    "face of 2 vertices": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n",
                           ":4: face with fewer than 3 vertices"),
    "bad face index": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 q 3\n", ":4: bad face index 'q'"),
    "no vertices": ("# a comment only\n", ": no vertices"),
    "no faces": ("v 0 0 0\nv 1 0 0\nv 0 1 0\n", ": no faces"),
}


@pytest.mark.parametrize("case", ["missing mesh", "zero-area face", "problem 5", "no problem",
                                  "not JSON", "no positions", "no out directory", "missing vis",
                                  "bad vertex coordinate", "face of 2 vertices", "bad face index",
                                  "no vertices", "no faces", "sample-set format_version 99"])
def test_bad_input_file_exits_2_with_one_error_line(workdir, tmp_path, capsys, case):
    d, mesh, samples, cands, vis = workdir
    trio = _trio_args(samples, cands, vis)
    bad, out = tmp_path / "bad", str(tmp_path / "out")
    says = ": "
    if case == "missing mesh" or case in BAD_OBJ:
        if case in BAD_OBJ:
            text, says = BAD_OBJ[case]
            bad.write_text(text)
        argv = ["sample", "--mesh", str(bad), "--pitch", "0.5", "--out", out]
    elif case in ("problem 5", "no problem"):
        assert main(["solve", "--problem", "1", "--k", "1", *trio, "--out", str(bad)]) == 0
        result = json.loads(bad.read_text())
        result["problem"] = 5
        if case == "no problem":
            del result["problem"]
        bad.write_text(json.dumps(result))
        argv = ["export", "--in", str(bad), *trio, "--out", out]
    elif case == "not JSON":
        bad.write_text("{not json")
        argv = ["refine", "--method", "onecenter", "--samples", str(samples),
                "--in", str(bad), "--out", out]
    elif case == "no positions":
        sample_set = json.loads(samples.read_text())
        del sample_set["positions"]
        bad.write_text(json.dumps(sample_set))
        argv = ["approx", "--samples", str(bad), "--k", "1", "--plane-z", "2.8", "--out", out]
    elif case == "sample-set format_version 99":
        sample_set = json.loads(samples.read_text())
        sample_set["format_version"] = 99
        bad.write_text(json.dumps(sample_set))
        says = ": unsupported sample_set format_version 99"
        argv = ["approx", "--samples", str(bad), "--k", "1", "--plane-z", "2.8", "--out", out]
    elif case == "no out directory":
        bad = tmp_path / "missing" / "result.json"
        argv = ["solve", "--problem", "1", "--k", "1", *trio, "--out", str(bad)]
    else:
        argv = ["solve", "--problem", "1", "--k", "1", *_trio_args(samples, cands, bad),
                "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}{says}"), err


@pytest.mark.parametrize("method, key", [("grid", "k"), ("grid", "params"), ("onecenter", "k"),
                                         ("onecenter", "params"), ("onecenter", "positions")])
def test_refine_of_a_result_without_a_key_exits_2(workdir, tmp_path, capsys, method, key):
    d, mesh, samples, cands, vis = workdir
    bad, out = tmp_path / "bad.json", str(tmp_path / "out.json")
    if method == "grid":
        assert main(["solve", "--problem", "1", "--k", "1", *_trio_args(samples, cands, vis),
                     "--out", str(bad)]) == 0
        argv = ["refine", "--method", "grid", "--mesh", str(mesh), *_trio_args(samples, cands, vis)]
    else:
        assert main(["approx", "--samples", str(samples), "--k", "1", "--plane-z", "2.8",
                     "--out", str(bad)]) == 0
        argv = ["refine", "--method", "onecenter", "--samples", str(samples)]
    result = json.loads(bad.read_text())
    del result[key]
    bad.write_text(json.dumps(result))
    assert main([*argv, "--in", str(bad), "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: missing key '{key}'"]


@pytest.mark.parametrize("key, value", [("placement", [1.5]), ("placement", [True]),
                                        ("problem", True), ("problem", 1.0)])
@pytest.mark.parametrize("command", ["export", "grid"])
def test_a_result_with_a_non_integer_index_exits_2(workdir, tmp_path, capsys, command, key,
                                                    value):
    # JSON true and 1.0 equal 1 in Python, and 1.5 would reach numpy indexing
    d, mesh, samples, cands, vis = workdir
    bad, out = tmp_path / "bad.json", str(tmp_path / "out")
    trio = _trio_args(samples, cands, vis)
    assert main(["solve", "--problem", "1", "--k", "2", *trio, "--out", str(bad)]) == 0
    bad.write_text(json.dumps({**json.loads(bad.read_text()), key: value}))
    grid = ["refine", "--method", "grid", "--mesh", str(mesh)]
    argv = ["export"] if command == "export" else grid
    assert main([*argv, *trio, "--in", str(bad), "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err


@pytest.mark.parametrize("positions, plane_z", [
    ([[1.0, 1.0, 2.8], [2.0, 1.0]], 2.8),
    ([[1.0, 1.0], [2.0, 1.0]], 2.8),
    (None, 2.8),
    ([], 2.8),
    ([[1.0, float("nan"), 2.8]], 2.8),
    ([["1.0", 1.0, 2.8]], 2.8),
    ([[1.0, 1.0, 2.8]], "2.8"),
    ([[1.0, 1.0, 2.8]], True),
    ([[1.0, 1.0, 2.8]], 10**400),
], ids=["ragged", "k x 2", "null", "empty", "nan", "string position", "string plane",
      "true plane", "huge plane"])
def test_onecenter_refine_of_bad_positions_or_plane_exits_2(workdir, tmp_path, capsys,
                                                           positions, plane_z):
    d, mesh, samples, cands, vis = workdir
    bad = tmp_path / "bad.json"
    assert main(["approx", "--samples", str(samples), "--k", "2", "--plane-z", "2.8",
                 "--out", str(bad)]) == 0
    result = json.loads(bad.read_text())
    bad.write_text(json.dumps({**result, "positions": positions, "params": {"plane_z": plane_z}}))
    assert main(["refine", "--method", "onecenter", "--samples", str(samples),
                 "--in", str(bad), "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err


@pytest.mark.parametrize("params", [None, ["phi", 0.1]])
@pytest.mark.parametrize("command", ["export", "grid", "onecenter"])
def test_a_result_whose_params_is_not_an_object_exits_2(workdir, tmp_path, capsys, command,
                                                        params):
    d, mesh, samples, cands, vis = workdir
    bad, out = tmp_path / "bad.json", str(tmp_path / "out")
    trio = _trio_args(samples, cands, vis)
    if command == "onecenter":
        assert main(["approx", "--samples", str(samples), "--k", "1", "--plane-z", "2.8",
                     "--out", str(bad)]) == 0
        argv = ["refine", "--method", "onecenter", "--samples", str(samples)]
    else:
        assert main(["solve", "--problem", "3", "--k", "1", "--phi", "0.05", *trio,
                     "--out", str(bad)]) == 0
        argv = (["export", *trio] if command == "export"
                else ["refine", "--method", "grid", "--mesh", str(mesh), *trio])
    result = json.loads(bad.read_text())
    result["params"] = params
    bad.write_text(json.dumps(result))
    assert main([*argv, "--in", str(bad), "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: params must be a JSON object"
    ]


MISSING = object()


def _edited_result(workdir, path, solve_or_approx, **edits):
    """Write the result of `solve_or_approx` (argv after the command) at
    `path` with the top-level `edits` applied; MISSING deletes a key."""
    d, mesh, samples, cands, vis = workdir
    command, *flags = solve_or_approx
    inputs = ["--samples", str(samples)] if command == "approx" else _trio_args(samples, cands, vis)
    assert main([command, *flags, *inputs, "--out", str(path)]) == 0
    result = json.loads(path.read_text())
    for key, value in edits.items():
        if value is MISSING:
            del result[key]
        else:
            result[key] = value
    path.write_text(json.dumps(result))


@pytest.mark.parametrize("phi", [MISSING, "0.05", True, None, float("nan"), float("inf"), 0, -1],
                         ids=["missing", "string", "true", "null", "nan", "inf", "zero",
                              "negative"])
@pytest.mark.parametrize("command", ["export", "grid"])
def test_a_problem3_result_with_a_bad_phi_exits_2(workdir, tmp_path, capsys, command, phi):
    d, mesh, samples, cands, vis = workdir
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    params = {} if phi is MISSING else {"phi": phi}
    _edited_result(workdir, bad, ["solve", "--problem", "3", "--k", "1", "--phi", "0.05"],
                   params=params)
    grid = ["refine", "--method", "grid", "--mesh", str(mesh)]
    argv = ["export"] if command == "export" else grid
    assert main([*argv, *_trio_args(samples, cands, vis), "--in", str(bad),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: params.phi must be a finite number > 0"
    ]
    assert not out.exists()


@pytest.mark.parametrize("radius", [MISSING, "2", True, None, float("nan"), float("inf"), -1],
                         ids=["missing", "string", "true", "null", "nan", "inf", "negative"])
def test_export_of_a_problem2_result_with_a_bad_radius_exits_2(workdir, tmp_path, capsys,
                                                               radius):
    d, mesh, samples, cands, vis = workdir
    bad, out = tmp_path / "bad.json", tmp_path / "out.ply"
    _edited_result(workdir, bad, ["solve", "--problem", "2", "--k", "2", "--rho", "0.8"],
                   radius=radius)
    assert main(["export", *_trio_args(samples, cands, vis), "--in", str(bad),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: radius must be a finite number >= 0"
    ]
    assert not out.exists()


@pytest.mark.parametrize("k, code", [(1, 2), (True, 2), (2.0, 2), ("2", 2), (None, 2), (5, 0)])
@pytest.mark.parametrize("method", ["grid", "onecenter"])
def test_refine_checks_that_k_allows_its_sensors(workdir, tmp_path, capsys, method, k, code):
    # both results have 2 sensors; a budget above them stays valid, since a
    # solve may use fewer sensors than it was allowed
    d, mesh, samples, cands, vis = workdir
    prev, out = tmp_path / "prev.json", tmp_path / "out.json"
    if method == "grid":
        _edited_result(workdir, prev, ["solve", "--problem", "1", "--k", "2"], k=k)
        argv = ["--mesh", str(mesh), *_trio_args(samples, cands, vis), "--rounds", "0"]
    else:
        _edited_result(workdir, prev, ["approx", "--k", "2", "--plane-z", "2.8"], k=k)
        argv = ["--samples", str(samples)]
    assert main(["refine", "--method", method, *argv, "--in", str(prev),
                 "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err.splitlines() == [
            f"error: {prev}: k must be an integer >= the result's 2 sensors"
        ]
    else:
        refined = json.loads(out.read_text())
        assert refined["k"] == k and len(refined["positions"]) == 2


def test_grid_refine_of_an_approx_result_names_onecenter(workdir, capsys):
    # an approx result has no placement either, but its problem is the first thing wrong
    d, mesh, samples, cands, vis = workdir
    result = _free_position_result(workdir, "approx")
    code = main(["refine", "--method", "grid", "--mesh", str(mesh),
                 *_trio_args(samples, cands, vis), "--in", str(result),
                 "--out", str(d / "grid_of_approx.json")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --method grid refines problem 1/3 results; use onecenter"
    ]


def test_onecenter_refine_of_a_solve_result_exits_2(workdir, tmp_path, capsys):
    d, mesh, samples, cands, vis = workdir
    solved = tmp_path / "p1.json"
    _edited_result(workdir, solved, ["solve", "--problem", "1", "--k", "2"])
    assert main(["refine", "--method", "onecenter", "--samples", str(samples),
                 "--in", str(solved), "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --method onecenter needs a result produced by `approx`"
    ]


def test_export_of_a_result_without_params_reads_them_as_empty(workdir, tmp_path):
    # `params` is optional for export: problem 1 reads nothing from it
    d, mesh, samples, cands, vis = workdir
    plys = []
    for params in (MISSING, {}):
        solved, ply = tmp_path / "p1.json", tmp_path / f"p1_{len(plys)}.ply"
        _edited_result(workdir, solved, ["solve", "--problem", "1", "--k", "2"], params=params)
        assert main(["export", "--in", str(solved), *_trio_args(samples, cands, vis),
                     "--out", str(ply)]) == 0
        plys.append(ply.read_bytes())
    assert plys[0] == plys[1]


def test_malformed_mesh_error_names_its_file_once(tmp_path, capsys):
    # the OBJ loader's message starts with the path already
    bad_obj = tmp_path / "bad.obj"
    bad_obj.write_text("v 0 0\n")
    assert main(["sample", "--mesh", str(bad_obj), "--pitch", "0.5",
                 "--out", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad_obj}:1: malformed vertex line: 'v 0 0'"
    ]


def test_non_spvm_vis_error_names_its_file_once(workdir, tmp_path, capsys):
    # the SPVM loader's message starts with the path already
    d, mesh, samples, cands, vis = workdir
    bad_vis = tmp_path / "bad.spvm"
    bad_vis.write_bytes(b"JUNKJUNKJUNK")
    assert main(["solve", "--problem", "1", "--k", "1", *_trio_args(samples, cands, bad_vis),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {bad_vis}: not an SPVM file"), err


@pytest.mark.parametrize("command", ["approx", "visibility"])
def test_a_non_finite_coordinate_exits_2(workdir, tmp_path, capsys, command):
    # a sample at Infinity for approx, a candidate at NaN for visibility
    d, mesh, samples, cands, vis = workdir
    key, path = ("samples", samples) if command == "approx" else ("candidates", cands)
    points = json.loads(path.read_text())
    points["positions"][3][0] = float("inf") if command == "approx" else float("nan")
    bad = tmp_path / f"{key}.json"
    bad.write_text(json.dumps(points))
    argv = {
        "approx": ["approx", "--samples", str(bad), "--k", "3", "--plane-z", "2.8"],
        "visibility": ["visibility", "--mesh", str(mesh), "--samples", str(samples),
                       "--candidates", str(bad)],
    }[command]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["candidates", "samples"])
def test_a_coordinate_whose_segments_overflow_exits_2(workdir, tmp_path, capsys, key):
    # 1e300 is finite, but its distance to any point of the room overflows;
    # either file can hold it, so the line names both
    d, mesh, samples, cands, vis = workdir
    inputs = {"samples": samples, "candidates": cands}
    points = json.loads(inputs[key].read_text())
    if key == "candidates":
        points["positions"].append([1e300, 1.0, 2.8])
    else:
        points["positions"][5] = [1e300, 1.0, 0.0]
    inputs[key] = tmp_path / f"{key}.json"
    inputs[key].write_text(json.dumps(points))
    out = tmp_path / "vis.spvm"
    assert main(["visibility", "--mesh", str(mesh), "--samples", str(inputs["samples"]),
                 "--candidates", str(inputs["candidates"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {inputs['samples']} and {inputs['candidates']}: segment lengths must be finite"
    ]
    assert not out.exists()


def test_a_mesh_whose_areas_overflow_exits_2(tmp_path, capsys):
    # the room scaled by 1e160 has finite coordinates, but its faces' cross
    # products overflow, so no TriangleMesh of it exists to save_obj
    room = sc.gen_room()
    huge = tmp_path / "huge.obj"
    huge.write_text("".join(
        f"v {x * 1e160:.17g} {y * 1e160:.17g} {z * 1e160:.17g}\n" for x, y, z in room.vertices
    ) + "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in room.triangles))
    out = tmp_path / "s.json"
    assert main(["sample", "--mesh", str(huge), "--pitch", "1e160", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {huge}: faces whose area is not finite: ")
    assert not out.exists()


@pytest.mark.parametrize("swapped", ["candidates", "samples"])
def test_a_set_file_of_the_other_kind_exits_2(workdir, tmp_path, capsys, swapped):
    d, mesh, samples, cands, vis = workdir
    terrain, terrain_samples = tmp_path / "terrain.obj", tmp_path / "terrain_samples.json"
    assert main(["gen-scene", "--kind", "terrain", "--out", str(terrain)]) == 0
    assert main(["sample", "--mesh", str(terrain), "--pitch", "2.0",
                 "--out", str(terrain_samples)]) == 0
    if swapped == "candidates":  # a sample file read as candidates
        inputs, bad, kind = [str(samples), str(terrain_samples)], terrain_samples, "candidate_set"
    else:
        inputs, bad, kind = [str(cands), str(cands)], cands, "sample_set"
    out = tmp_path / "vis.spvm"
    assert main(["visibility", "--mesh", str(mesh), "--samples", inputs[0],
                 "--candidates", inputs[1], "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: not a {kind} file"]
    assert not out.exists()


def test_a_candidate_on_a_sample_exits_2(workdir, tmp_path, capsys):
    d, mesh, samples, cands, vis = workdir
    points = json.loads(cands.read_text())
    points["positions"].append(json.loads(samples.read_text())["positions"][5])
    on_sample = tmp_path / "cands.json"
    on_sample.write_text(json.dumps(points))
    m = len(points["positions"]) - 1
    assert main(["visibility", "--mesh", str(mesh), "--samples", str(samples),
                 "--candidates", str(on_sample), "--out", str(tmp_path / "vis.spvm")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {on_sample}: candidate {m} coincides with sample 5"
    ]
