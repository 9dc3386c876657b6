"""surfcover benchmark: one workload, single process, single thread, closed loop.

    python3 perfbench/run.py --workload room-exact --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from ``src/``. The
run repeats passes over the workload's jobs, one job after the other, until
the next pass would end after ``--seconds``; between passes it sets the scene
up again several times (``setup_s`` is the median set-up). Each pass's
outputs are checked outside the timed code. The last line of standard output is one JSON object:
with ``--trace 0`` it holds the end-to-end metrics (medians over the passes);
with ``--trace 1`` it holds per-layer metrics from one traced set-up and pass,
measured after one untraced pass of the same inputs.

``--record`` stores the pass's answers as the reference for this workload
and seed in ``reference.json``.
"""

import os

# numpy links a threaded OpenBLAS; one thread keeps the loop single-threaded.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up is timed in rounds of repeats lasting at least SETUP_ROUND_S: a few
# rounds before the first pass and one before each later pass, so that the
# set-up samples spread over the run like the pass samples do.
SETUP_ROUND_S = 0.1
FIRST_SETUP_ROUNDS = 4
END_TO_END = ("setup_s", "total_s", "peak_rss_mb")
STEP_ORDER = ("visibility_s", "p1_s", "p2_s", "p3_s", "two_phase_s", "io_s")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def set_up_round(wl, seed: int, times: list):
    """Set the workload up until the round has lasted SETUP_ROUND_S."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        scene = wl.setup(seed)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 - start >= SETUP_ROUND_S:
            return scene


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "surfcover" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import tracer as tracing
    from workloads import WORKLOADS, run_pass

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reference = {} if args.record else checks.load_reference()
    OUT.mkdir(exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    setups: list[float] = []
    passes, failures, answers = [], {}, {}
    attempted = 0

    def run_checked_pass(scene, tr=None):
        """Run one pass, then check its outputs outside the timed code."""
        nonlocal answers, attempted
        result = run_pass(wl, scene, OUT, tr)
        bad, answers = checks.check_pass(wl.name, scene, result.jobs, args.seed, reference)
        for label, msgs in bad.items():
            failures[f"pass {len(passes) + 1} {label}"] = msgs
        attempted += len(result.jobs)
        result.jobs = None  # drop the outputs so memory does not grow with the pass count
        passes.append(result)

    if tracer is None:
        start = time.perf_counter()
        scene = set_up_round(wl, args.seed, setups)
        for _ in range(FIRST_SETUP_ROUNDS - 1):
            set_up_round(wl, args.seed, setups)
        while True:
            if passes:
                set_up_round(wl, args.seed, setups)
            run_checked_pass(scene)
            wall = time.perf_counter() - start
            if wall + wall / len(passes) > args.seconds:
                break
    else:
        t0 = time.perf_counter()
        with tracer:
            scene = wl.setup(args.seed)
        setups.append(time.perf_counter() - t0)
        run_checked_pass(scene)
        with tracer:
            run_checked_pass(scene, tracer)

    env = environment()
    n, m = len(scene.samples), len(scene.candidates)
    t = scene.mesh.n_triangles
    print(f"workload {wl.name} seed {args.seed}: N={n} M={m} T={t}; "
          f"{len(passes)} pass(es), {len(setups)} set-up(s); " + json.dumps(env))
    if scene.quality_samples is not None:
        print(f"  1-center terrain: N={len(scene.quality_samples)} T={scene.quality_triangles}")
    for label, msgs in failures.items():
        for msg in msgs:
            print(f"  FAILED {label}: {msg}")

    if args.record:
        if failures:
            print("perfbench: not recording answers that fail their checks", file=sys.stderr)
            return 1
        ref = checks.load_reference() if checks.REFERENCE.exists() else {}
        ref.setdefault(wl.name, {})[str(args.seed)] = answers
        with open(checks.REFERENCE, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")

    if tracer is not None:
        untraced, traced = passes
        metrics = tracing.layer_metrics(tracer, scene, traced.total_s, untraced.total_s)
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json",
                     {"workload": wl.name, "seed": args.seed, "environment": env})
        log = tracer.p2_log()
        for k in sorted({e["k"] for e in log}):
            steps = [e for e in log if e["k"] == k]
            proofs = [e for e in steps if e["status"] == "infeasible"]
            print(f"  p2 bisection k={k}: {len(steps)} solves, {len(proofs)} infeasibility "
                  f"proofs ({sum(e['nodes'] for e in proofs)} nodes), "
                  f"{sum(e['seconds'] for e in steps):.3f} s")
    else:
        def med(step):
            return statistics.median(p.steps[step] for p in passes)

        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            **{s: (med(s), "s") for s in STEP_ORDER if s in passes[0].steps},
            "total_s": (statistics.median(p.total_s for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    failed = len(failures)
    print(f"  {'jobs':<28} {attempted:>14} count")
    print(f"  {'jobs_failed':<28} {failed:>14} of {attempted}")
    if tracer is None:
        metrics = {k: metrics[k] for k in END_TO_END}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
