"""Benchmark launcher for fracsource.

    python3 bench/run.py --workload forward-sweep --seed 1 --seconds 25 --trace 0

Runs one workload on a closed loop (one operation at a time, in this
process) for ``--seconds`` seconds, in whole rounds, checks every output and
prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones, and writes the spans to
``.bench_run/trace-<workload>-<seed>.json``.  Untraced runs scale each
timing to a reference host speed sampled while it runs (``hostspeed``).
See bench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_blas_threads() -> int:
    """One thread: the host-speed probes sample the main thread only, and a
    second BLAS thread on a shared two-CPU host added jitter, not speed."""
    return 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("forward-sweep", "inverse-cli", "oracle-check"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=None,
                   help="BLAS thread count (default: 1)")
    return p.parse_args(argv)


@dataclass
class Measurement:
    durations: list = field(default_factory=list)  # wall seconds per completed run()
    scaled: list = field(default_factory=list)  # the same at the reference host speed
    slots: list = field(default_factory=list)  # position in its round, per duration
    figures: list = field(default_factory=list)  # accuracy figure per passed check
    errors: list = field(default_factory=list)  # one message per failed check
    first_round: list = field(default_factory=list)  # operation numbers of round 0
    attempted: int = 0
    failed: int = 0


def measure(workload, seconds: float, tracer=None, sampler=None) -> Measurement:
    """Run whole rounds of the workload's operations, one at a time, until
    ``seconds`` have passed (at least one round).  An operation that raises
    or whose output fails its check counts as failed.  Without a
    ``sampler`` the scaled times are the wall times."""
    res = Measurement()
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        for slot, op in enumerate(workload.round(r)):
            op.prepare()
            number = res.attempted
            res.attempted += 1
            if r == 0:
                res.first_round.append(number)
            if tracer is not None:
                tracer.op = number
            try:
                mark = sampler.mark() if sampler is not None else None
                start = time.perf_counter()
                result = op.run()
                wall = time.perf_counter() - start
                res.durations.append(wall)
                res.scaled.append(sampler.scaled(wall, mark) if sampler is not None else wall)
                res.slots.append(slot)
            except Exception:  # a refusal or crash is a failed operation
                res.failed += 1
                traceback.print_exc()
                continue
            finally:
                if tracer is not None:
                    tracer.op = -1
            figure, error = op.check(result)
            if error is None:
                res.figures.append(figure)
            else:
                res.failed += 1
                res.errors.append(error)
                print(f"check failed: {error}", file=sys.stderr)
        r += 1
    return res


def solve_time(durations: list, slots: list) -> float | None:
    """Median over rounds of each slot's time, averaged over the slots: the
    typical time of one operation of a round's mix."""
    by_slot = {}
    for d, slot in zip(durations, slots):
        by_slot.setdefault(slot, []).append(d)
    if not by_slot:
        return None
    return statistics.fmean(statistics.median(v) for v in by_slot.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = args.blas_threads or default_blas_threads()
    # numpy reads these when it loads, so they must be set before the import.
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    if not (ROOT / "src" / "fracsource" / "__init__.py").is_file():
        print(f"fracsource sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import hostspeed  # the first numpy import, after the BLAS variables

    # Untraced runs sample the host's speed from here to the end; traced runs
    # keep their spans free of probes.
    sampler = hostspeed.Sampler()
    if not args.trace:
        sampler.start()
    start = sampler.mark()

    import tracing
    import workloads

    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.install() if args.trace else None
    setup_wall_s = time.perf_counter() - _T0
    setup_s = sampler.scaled(setup_wall_s, start)

    try:
        res = measure(workload, args.seconds, tracer, sampler)
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.uninstall()

    with open(workdir / f"ops-trace{args.trace}.json", "w") as fh:
        json.dump({"setup_s": setup_s, "setup_wall_s": setup_wall_s, "blas_threads": threads,
                   "probes": len(sampler.samples), "probe_s": sum(sampler.samples),
                   "durations": res.durations, "scaled": res.scaled, "slots": res.slots,
                   "figures": res.figures, "errors": res.errors}, fh)
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, list(range(res.attempted)), res.first_round)
        tracer.dump(ROOT / ".bench_run" / f"trace-{args.workload}-{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "blas_threads": threads,
            "operations": res.attempted, "traced_solve_s": solve_time(res.durations, res.slots),
            "metrics": metrics,
        })
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in tracing.LAYER_UNITS.items()}
    else:
        out = {
            "solve_s": {"value": solve_time(res.scaled, res.slots), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "accuracy_err": {"value": statistics.median(res.figures) if res.figures else None, "unit": "1"},
        }
    print(json.dumps({
        "correct": not res.errors,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
