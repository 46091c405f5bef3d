"""coclass-lab benchmark: one workload per process, checked outputs, JSON result.

    python3 perfbench/run.py --workload suite_f3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median
time of one pass over the workload's inputs; at least one pass, and more
while another is expected to end within ``--seconds``), ``setup_s``
(median over fresh processes of importing coclass_lab and building the
inputs) and ``peak_rss_mb`` (peak resident memory after the first pass).  With
``--trace 1`` it runs one untraced and then one traced pass and reports the
per-layer metrics; the spans are written to ``perfbench/.work/``.  The last
line of standard output is the JSON result.  One caller, one thread: a
closed loop with no concurrency.
"""

import os

# Pin every numeric library to one thread before numpy is imported; set-up
# probes inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
WORKLOADS = ("suite_f3", "verify_random", "structure_random")
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 120


def _use_checkout_package() -> None:
    """Import coclass_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "coclass_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no coclass_lab package under {SRC}")
    sys.path.insert(0, str(SRC))


def _setup_probe(workload: str, seed: int) -> None:
    """Child process: time importing coclass_lab and building the inputs."""
    start = time.perf_counter()
    import workloads

    workdir = WORK / f"setup-{os.getpid()}"
    workloads.build_inputs(workload, seed, workdir)
    elapsed = time.perf_counter() - start
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def _setup_samples(workload: str, seed: int, count: int) -> list:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _timed_pass(run_pass, inputs, tracer):
    start = time.perf_counter()
    outcome = run_pass(inputs, tracer)
    return time.perf_counter() - start, outcome


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(workload, seed, seconds, run_pass, inputs):
    # Half the set-up probes run before the passes and half after, so that a
    # slow spell of the host weighs on only part of them.
    setups = _setup_samples(workload, seed, SETUP_SAMPLES // 2)
    walls, attempted, failed, problems = [], 0, 0, []
    started = time.perf_counter()
    while True:
        wall, outcome = _timed_pass(run_pass, inputs, spans.NullTracer())
        walls.append(wall)
        if len(walls) == 1:
            peak_rss_mb = _peak_rss_mb()  # later passes reuse the same inputs
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
        # Start another pass only if it should end within --seconds, so the
        # number of passes does not flip when a pass takes about that long.
        if time.perf_counter() - started + wall > seconds:
            break
    setups += _setup_samples(workload, seed, SETUP_SAMPLES - len(setups))
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    print(f"{workload} seed {seed}: {len(walls)} passes, wall_s "
          + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    return attempted, failed, problems, metrics


def _traced(workload, seed, run_pass, inputs):
    import layers

    # The untraced pass gives the reference output and the wall time the
    # traced pass is compared with.
    plain_wall, first = _timed_pass(run_pass, inputs, spans.NullTracer())
    tracer = spans.Tracer()
    start = time.perf_counter()
    with tracer.span("bench.pass"):
        traced = run_pass(inputs, tracer, first.verdicts)
    traced_wall = time.perf_counter() - start
    metrics = layers.per_layer_metrics(tracer, traced, plain_wall, traced_wall)
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"trace-{workload}-{seed}.json")
    print(layers.self_time_table(tracer, traced_wall, plain_wall), file=sys.stderr)
    outcomes = (first, traced)
    return (sum(o.attempted for o in outcomes), sum(o.failed for o in outcomes),
            [line for o in outcomes for line in o.problems], metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _use_checkout_package()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    import workloads

    inputs = workloads.build_inputs(args.workload, args.seed, WORK)
    run_pass = workloads.PASSES[args.workload]
    if args.trace:
        attempted, failed, problems, metrics = _traced(
            args.workload, args.seed, run_pass, inputs)
    else:
        attempted, failed, problems, metrics = _end_to_end(
            args.workload, args.seed, args.seconds, run_pass, inputs)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
