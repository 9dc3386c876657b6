"""Command-line front end: scene generation, sampling, visibility caching,
the three solvers, the clustering approximation, refinement, sweeps, and
colored exports.

Exit codes: 0 success, 2 usage error, 3 infeasible, 4 time limit hit with the
gap above tolerance. `sweep` writes a row for every k of its range and exits
3 when any k is infeasible, also when the clock stopped another k, and
otherwise 4 when the clock stopped any k.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import clustering, drivers, export, refine, scenes
from .coverage import QualityKind, build_instance, check_placement
from .ilp import SolveStatus
from .mesh import (
    generate_candidates_plane,
    load_candidate_set,
    load_obj,
    load_sample_set,
    sample_surface,
    save_json,
    save_obj,
)
from .visibility import build_bvh, load_spvm, save_spvm, visibility_matrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_TIME_LIMIT = 4

RESULT_VERSION = 1

PROBLEM_KIND = {
    1: QualityKind.VISIBILITY,
    2: QualityKind.VISIBILITY,
    3: QualityKind.LAMBERT_INVERSE_SQUARE,
}


class UsageError(Exception):
    pass


class _Rule:
    """A numeric rule, stated once for a flag and for the result field that
    mirrors it. As an argparse `type=` it converts the flag's text and keeps
    the value only if `ok(value)`; otherwise argparse exits 2 with `argument
    --flag: must be <text>`. NaN fails every rule."""

    def __init__(self, convert, ok, text: str):
        self.convert, self.ok, self.text = convert, ok, text

    def __call__(self, flag_text: str):
        try:
            value = self.convert(flag_text)
            if self.ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {self.text}")

    def check(self, value, name: str) -> None:
        """ValueError `<name> must be <text>` unless `value`, the JSON number
        of result field `name`, keeps the rule; a string, `true` or `null` is
        not a number, and a huge int overflows."""
        if type(value) not in (int, float) or not self.ok(self.convert(value)):
            raise ValueError(f"{name} must be {self.text}")


def _k_range(text: str) -> range:
    a, b = text.split("..")
    return range(int(a), int(b) + 1)


FINITE = _Rule(float, math.isfinite, "a finite number")
POSITIVE = _Rule(float, lambda x: 0 < x < math.inf, "a finite number > 0")
NONNEGATIVE = _Rule(float, lambda x: 0 <= x < math.inf, "a finite number >= 0")
COSINE = _Rule(float, lambda x: -1 <= x <= 1, "in [-1, 1]")
FRACTION = _Rule(float, lambda x: 0 < x <= 1, "in (0, 1]")
COUNT = _Rule(int, lambda n: n >= 0, "an integer >= 0")
AT_LEAST_1 = _Rule(int, lambda n: n >= 1, "an integer >= 1")
K_RANGE = _Rule(_k_range, lambda ks: 0 <= ks.start < ks.stop, "A..B with 0 <= A <= B")


def _file(path, io, *args, **kwargs):
    """`io(*args, **kwargs)`, which reads, writes or checks the file `path`.
    A missing, unreadable or malformed file is a usage error:
    `error: <path>: <reason>`."""
    try:
        return io(*args, **kwargs)
    except KeyError as exc:
        raise UsageError(f"{path}: missing key {exc}") from exc
    except (OSError, ValueError, TypeError, OverflowError) as exc:  # overflow: a huge JSON int
        raise UsageError(_with_path(path, exc)) from exc


def _with_path(path, exc: Exception) -> str:
    """`exc`'s message prefixed with `path`, unless the loader named it first."""
    return str(exc) if str(exc).startswith(f"{path}:") else f"{path}: {exc}"


def _load_result(path, method=None) -> dict:
    """The result JSON at `path`, with all that `export` (method None) or
    `refine --method <method>` reads from it checked: problem 1, 2 or 3, an
    object `params`, the command's keys, a `k` that allows the sensors refine
    moves, a placement (export, grid) or (k, 3) `positions` and plane_z
    (onecenter), and problem 3's phi or problem 2's radius (export)."""
    with open(path) as fh:
        result = json.load(fh)
    problem = result.get("problem") if isinstance(result, dict) else None
    if type(problem) is not int or problem not in PROBLEM_KIND:  # True and 1.0 equal 1
        raise ValueError("not a result of problem 1, 2 or 3")
    keys = {None: (), "grid": ("k", "params"), "onecenter": ("k", "params", "positions")}[method]
    missing = [key for key in keys if key not in result]
    if missing:
        raise KeyError(missing[0])
    params = result.setdefault("params", {})
    if not isinstance(params, dict):
        raise ValueError("params must be a JSON object")
    if method == "onecenter":
        if params.get("plane_z") is None:
            raise UsageError("--method onecenter needs a result produced by `approx`")
        FINITE.check(params["plane_z"], "params.plane_z")
        centers = np.array(result["positions"])  # strings and nulls give a non-numeric dtype
        shaped = centers.ndim == 2 and centers.shape[1] == 3 and len(centers) > 0
        if not (shaped and centers.dtype.kind in "iuf" and np.isfinite(centers).all()):
            raise ValueError("positions must be a non-empty list of finite [x, y, z]")
        result["positions"] = centers
        sensors = len(centers)
    else:
        if method == "grid" and problem == 2:
            raise UsageError("--method grid refines problem 1/3 results; use onecenter")
        if result.get("placement") is None:
            raise ValueError(
                "the result has no candidate placement, only free positions; use a `solve` result"
            )
        if problem == 3:
            POSITIVE.check(params.get("phi"), "params.phi")
        if problem == 2:
            NONNEGATIVE.check(result.get("radius"), "radius")
        sensors = len(result["placement"])
    if method is not None and (type(result["k"]) is not int or result["k"] < sensors):
        # True and 2.0 are not budgets; a solve may use fewer sensors than its budget, never more
        raise ValueError(f"k must be an integer >= the result's {sensors} sensors")
    return result


def _write_result(args, fields: dict, positions, placement=None, result=None) -> None:
    """Write `fields`, the placement (None for free positions), the positions
    and the solve record of `result` as the result JSON of `solve`, `approx`
    or `refine`, with a timestamp, or with the solve's elapsed time written
    as 0.0 under --deterministic."""
    solve = None if result is None else {
        "status": result.status.value,
        "placement": list(result.placement),  # an infeasible solve exits 3 before this
        "primal": result.primal,
        "dual_bound": result.dual_bound,
        "gap": result.gap,
        "nodes": result.nodes,
        "elapsed": 0.0 if args.deterministic else result.elapsed,
    }
    payload = {
        "format_version": RESULT_VERSION,
        **fields,
        "placement": None if placement is None else list(placement),
        "positions": positions.tolist(),
        "solve": solve,
    }
    if not args.deterministic:
        payload["timestamp"] = time.time()
    with _file(args.out, open, args.out, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_instance(args, problem: int, mesh=None):
    """The instance of `problem` on --samples, --candidates and the --vis
    computed from them, and on `mesh` when given."""
    samples = _file(args.samples, load_sample_set, args.samples)
    candidates = _file(args.candidates, load_candidate_set, args.candidates)
    try:
        vm = load_spvm(args.vis)
        vm.check_consistent(samples, candidates, mesh)
    except (OSError, ValueError) as exc:
        raise UsageError(
            f"{_with_path(args.vis, exc)}; re-run: surfcover visibility --mesh ... "
            f"--samples {args.samples} --candidates {args.candidates} --out {args.vis}"
        ) from exc
    return build_instance(samples, candidates, vm, PROBLEM_KIND[problem])


def _cmd_gen_scene(args) -> int:
    if args.kind == "terrain":
        mesh = scenes.gen_terrain(seed=args.seed, cells=args.cells, amplitude=args.amplitude)
    else:
        # a bed-sized and a counter-sized box furnish the default room
        mesh = scenes.gen_room(
            extent=(6.0, 4.0, 3.0),
            obstacles=[
                ((1.0, 1.0, 0.0), (3.0, 2.2, 0.7)),
                ((4.5, 0.5, 0.0), (5.5, 3.5, 1.1)),
            ],
        )
    _file(args.out, save_obj, mesh, args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    mesh = _file(args.mesh, load_obj, args.mesh)
    samples = sample_surface(mesh, pitch=args.pitch, drop_downward=args.tau)
    _file(args.out, save_json, samples, args.out)
    return EXIT_OK


def _cmd_candidates(args) -> int:
    x0, y0, x1, y1 = args.rect
    if x0 > x1 or y0 > y1:
        raise UsageError("--rect needs X0 <= X1 and Y0 <= Y1")
    cands = generate_candidates_plane(args.plane_z, (x0, y0, x1, y1), args.pitch)
    _file(args.out, save_json, cands, args.out)
    return EXIT_OK


def _cmd_visibility(args) -> int:
    samples = _file(args.samples, load_sample_set, args.samples)
    candidates = _file(args.candidates, load_candidate_set, args.candidates)
    mesh = _file(args.mesh, load_obj, args.mesh)
    try:
        load_spvm(args.out).check_consistent(samples, candidates, mesh)
        return EXIT_OK  # cache hit keyed by content hashes
    except (OSError, ValueError):
        pass  # missing, stale, foreign or unreadable file: recompute below
    sample_at = {p: i for i, p in enumerate(map(tuple, samples.positions.tolist()))}
    for j, p in enumerate(map(tuple, candidates.positions.tolist())):
        if p in sample_at:  # no segment joins a candidate to a sample it sits on
            raise UsageError(f"{args.candidates}: candidate {j} coincides with sample {sample_at[p]}")
    # a coordinate in either file can make a segment's length overflow
    inputs = f"{args.samples} and {args.candidates}"
    vm = _file(inputs, visibility_matrix, build_bvh(mesh), samples, candidates)
    _file(args.out, save_spvm, vm, args.out)
    return EXIT_OK


def _load_problem(args):
    """Check the solve flags, give --rho its default and build the instance
    of --problem."""
    if args.problem != 3 and args.phi is not None:
        raise UsageError("--phi only applies to --problem 3")
    if args.problem != 2 and args.rho is not None:
        raise UsageError("--rho only applies to --problem 2")
    if args.problem == 3 and args.phi is None:
        raise UsageError("--problem 3 requires --phi")
    if args.rho is None:
        args.rho = 1.0
    return _load_instance(args, args.problem)


def _solve_problem(args, instance, k: int, gap_tol: float):
    """Run the driver of --problem at budget k; returns the placement, the
    objective, the solve result and the problem's extra result fields."""
    if args.problem == 2:
        r_star, placement, result = drivers.solve_problem2(
            instance, k, args.rho, time_limit=args.time_limit
        )
        extra = {"radius": r_star, "min_quality": (1.0 / r_star) if r_star > 0 else None}
        return placement, r_star, result, extra
    if args.problem == 1:
        placement, report, result = drivers.solve_problem1(
            instance, k, time_limit=args.time_limit, gap_tol=gap_tol
        )
    else:
        placement, report, result = drivers.solve_problem3(
            instance, k, args.phi, time_limit=args.time_limit, gap_tol=gap_tol
        )
    extra = {"coverage_ratio": report.coverage_ratio(instance.n_samples)}
    return placement, report.objective, result, extra


def _cmd_solve(args) -> int:
    if args.problem == 2 and args.gap is not None:
        raise UsageError("--gap only applies to --problem 1 and 3")
    instance = _load_problem(args)
    gap_tol = 0.0 if args.gap is None else args.gap
    placement, objective, result, extra = _solve_problem(args, instance, args.k, gap_tol)
    params = {2: {"rho": args.rho}, 3: {"phi": args.phi}}.get(args.problem, {})
    fields = {"problem": args.problem, "k": args.k, "params": params, "objective": objective}
    positions = instance.candidates.positions[list(placement)]
    _write_result(args, {**fields, **extra}, positions, placement, result)
    if result.status is SolveStatus.TIME_LIMIT:
        return EXIT_TIME_LIMIT
    return EXIT_OK


def _cmd_approx(args) -> int:
    samples = _file(args.samples, load_sample_set, args.samples)
    plane = clustering.PlaneDeployment(height=args.plane_z)
    centers = clustering.farthest_point_clustering(samples, args.k, plane)
    radius = clustering.coverage_radius(centers, samples)
    fields = {
        "problem": 2,
        "method": "farthest-point-clustering",
        "k": args.k,
        "params": {"plane_z": args.plane_z},
        "objective": radius,
        "radius": radius,
    }
    _write_result(args, fields, centers.positions)
    return EXIT_OK


def _cmd_refine(args) -> int:
    if args.method == "grid" and None in (args.mesh, args.candidates, args.vis):
        raise UsageError("--method grid needs --mesh, --candidates and --vis")
    prev = _file(args.infile, _load_result, args.infile, args.method)
    if args.method == "onecenter":
        samples = _file(args.samples, load_sample_set, args.samples)
        positions, objective = refine.improve_quality_max(
            samples, prev["positions"], prev["params"]["plane_z"]
        )
        extra = {"method": "onecenter-refined", "radius": objective}
    else:
        mesh = _file(args.mesh, load_obj, args.mesh)
        instance = _load_instance(args, prev["problem"], mesh)
        placement = _file(args.infile, check_placement, prev["placement"], instance.n_candidates)
        neighborhood = 2 * args.fine_pitch if args.neighborhood is None else args.neighborhood
        positions, objective = refine.refine_grid(
            instance,
            placement,
            build_bvh(mesh),
            pitch_fine=args.fine_pitch,
            rounds=args.rounds,
            neighborhood=neighborhood,
            threshold=prev["params"].get("phi"),  # read only by problem 3's cumulative kind
        )
        extra = {"method": "grid-refined"}
    fields = {k: prev[k] for k in ("problem", "k", "params")}
    _write_result(args, {**fields, "objective": objective, **extra}, positions)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    instance = _load_problem(args)
    rows, stopped, infeasible = [], False, False
    for k in args.k_range:
        t0 = time.perf_counter()
        try:
            _, objective, result, _ = _solve_problem(args, instance, k, gap_tol=0.0)
        except drivers.InfeasibleError as exc:  # this k's row says so; the next k still runs
            print(f"infeasible: {exc}", file=sys.stderr)
            solved, infeasible = ("", "", "infeasible"), True
        else:
            solved = (objective, result.gap, result.status.value)
            stopped |= result.status is SolveStatus.TIME_LIMIT
        elapsed = 0.0 if args.deterministic else time.perf_counter() - t0
        rows.append((k, *solved, elapsed))
    with _file(args.out, open, args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "objective", "gap", "status", "elapsed"])
        writer.writerows(rows)
    if infeasible:
        return EXIT_INFEASIBLE
    return EXIT_TIME_LIMIT if stopped else EXIT_OK


def _cmd_export(args) -> int:
    prev = _file(args.infile, _load_result, args.infile)
    instance = _load_instance(args, prev["problem"])
    placement = _file(args.infile, check_placement, prev["placement"], instance.n_candidates)
    radius = prev["radius"] if prev["problem"] == 2 else None
    colors = export.sample_colors(instance, placement, prev["params"].get("phi"), radius)
    _file(args.out, export.write_ply, args.out, instance.samples.positions, colors)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="surfcover", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_det(sp):
        sp.add_argument("--deterministic", action="store_true",
                        help="omit timestamps so identical inputs give identical bytes")

    def add_inputs(sp, vis_required=True):
        """--samples, and the --candidates/--vis that go with them."""
        sp.add_argument("--samples", required=True)
        sp.add_argument("--candidates", required=vis_required)
        sp.add_argument("--vis", required=vis_required)

    def add_problem(sp):
        """The flags that `solve` and `sweep` share."""
        sp.add_argument("--problem", type=int, choices=[1, 2, 3], required=True)
        sp.add_argument("--phi", type=POSITIVE)
        sp.add_argument("--rho", type=FRACTION)
        sp.add_argument("--time-limit", type=POSITIVE)
        add_inputs(sp)
        sp.add_argument("--out", required=True)
        add_det(sp)

    sp = sub.add_parser("gen-scene", help="generate a synthetic scene mesh")
    sp.add_argument("--kind", choices=["terrain", "room"], required=True)
    sp.add_argument("--seed", type=COUNT, default=0)
    sp.add_argument("--cells", type=AT_LEAST_1, default=20)
    sp.add_argument("--amplitude", type=FINITE, default=0.5)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_gen_scene)

    sp = sub.add_parser("sample", help="grid-sample a mesh surface")
    sp.add_argument("--mesh", required=True)
    sp.add_argument("--pitch", type=POSITIVE, required=True)
    sp.add_argument("--tau", type=COSINE, default=0.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("candidates", help="candidate grid on a horizontal plane")
    sp.add_argument("--plane-z", type=FINITE, required=True)
    sp.add_argument("--rect", type=FINITE, nargs=4, metavar=("X0", "Y0", "X1", "Y1"),
                    required=True)
    sp.add_argument("--pitch", type=POSITIVE, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_candidates)

    sp = sub.add_parser("visibility", help="precompute the visibility matrix (cached)")
    sp.add_argument("--mesh", required=True)
    sp.add_argument("--samples", required=True)
    sp.add_argument("--candidates", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_visibility)

    sp = sub.add_parser("solve", help="solve problem 1, 2, or 3 exactly")
    add_problem(sp)
    sp.add_argument("--k", type=COUNT, required=True)
    sp.add_argument("--gap", type=NONNEGATIVE, help="gap tolerance of problems 1 and 3 "
                    "(default 0: proven optimal)")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("approx", help="farthest-point clustering on a plane")
    sp.add_argument("--samples", required=True)
    sp.add_argument("--k", type=AT_LEAST_1, required=True)
    sp.add_argument("--plane-z", type=FINITE, required=True)
    sp.add_argument("--out", required=True)
    add_det(sp)
    sp.set_defaults(func=_cmd_approx)

    sp = sub.add_parser("refine", help="local improvement of a previous result")
    sp.add_argument("--method", choices=["grid", "onecenter"], required=True)
    sp.add_argument("--rounds", type=COUNT, default=3)
    sp.add_argument("--fine-pitch", type=POSITIVE, default=0.1)
    sp.add_argument("--neighborhood", type=NONNEGATIVE,
                    help="half-width of each local grid (default: 2 x --fine-pitch)")
    sp.add_argument("--mesh")
    add_inputs(sp, vis_required=False)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    add_det(sp)
    sp.set_defaults(func=_cmd_refine)

    sp = sub.add_parser("sweep", help="objective vs k curve as CSV")
    add_problem(sp)
    sp.add_argument("--k-range", type=K_RANGE, required=True, help="A..B inclusive")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("export", help="colored PLY of per-sensor coverage")
    sp.add_argument("--in", dest="infile", required=True)
    add_inputs(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_export)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except drivers.InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
