"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload study-replay --seed 1 --seconds 10 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced replay. Workloads, metrics and how the
bounds were set are described in perfbench/README.md. Run outputs go to
.perfbench_out/<workload>/ under the repository root.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one thread per numeric library (at most nproc),
# so that no run competes with itself for the cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("study-replay", "cohort-scale", "resume-weekly")
SETUPS = 3  # setup_s is the median of this many set-ups


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="recorded only: every workload replays one fixed cohort (see README)",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cohortsense" / "__init__.py").is_file():
        print(f"error: no cohortsense sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import cohorts
    from speed import Gauge
    from tracer import Tracer

    workload = cohorts.WORKLOADS[args.workload]
    run_dir = ROOT / ".perfbench_out" / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    data_dir, out_dir = run_dir / "data", run_dir / "out"
    print("threads: " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS), flush=True)

    rounds = []
    if args.trace:
        # no probes: they would land in the self time of whichever span is open
        gauge = Gauge(probe_every=None)
        _, _, batches = bench.setup(workload, data_dir, gauge)
        rounds.append(bench.replay(workload, batches, data_dir, out_dir, gauge))
        tracer = Tracer().install()
        try:
            _, _, batches = bench.setup(workload, data_dir, gauge)
            rounds.append(bench.replay(workload, batches, data_dir, out_dir, gauge))
        finally:
            tracer.close()
        tracer.write(run_dir / "trace.json")
        metrics = {k: (v, "count" if isinstance(v, int) else "s") for k, v in tracer.layer_metrics().items()}
        metrics["trace.replay_s"] = (rounds[1].replay_wall, "s")
        metrics["trace.overhead_s"] = (rounds[1].replay_wall - rounds[0].replay_wall, "s")
    else:
        gauge = Gauge()
        setup_s = []
        for _ in range(SETUPS):
            _, seconds, batches = bench.setup(workload, data_dir, gauge)
            setup_s.append(seconds)
        # a fixed number of rounds for a given --seconds, so that every run
        # does the same work whatever the machine's speed
        for _ in range(max(1, int(args.seconds // workload.round_s))):
            rounds.append(bench.replay(workload, batches, data_dir, out_dir, gauge))
        last = rounds[-1]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "replay_s": (statistics.median(r.replay_s for r in rounds), "s"),
            # a round that raised in its first week has no sample; the run fails anyway
            "last_week_s": (statistics.median(r.week_seconds[-1] if r.week_seconds else 0.0 for r in rounds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "checkpoint_kb": (last.checkpoint_bytes / 1024, "KB"),
            "vote_f1": (last.vote_f1, "ratio"),
            "cohort_ari": (last.cohort_ari, "ratio"),
        }

    first = rounds[0]
    for k, rnd in enumerate(rounds):
        if rnd.digests != first.digests:
            rnd.errors[max(rnd.errors)].append(f"round {k + 1} outputs differ from round 1")
        for week, errors in sorted(rnd.errors.items()):
            for error in errors:
                print(f"FAILED round {k + 1} week {week}: {error}", flush=True)
    for k, rnd in enumerate(rounds):
        print(f"round {k + 1} week seconds: " + " ".join(f"{t:.3f}" for t in rnd.week_seconds))
        print(f"round {k + 1} week wall seconds: " + " ".join(f"{t:.3f}" for t in rnd.week_wall))
    g = sorted(gauge.samples)
    print(f"gauge kernel ms over {len(g)} samples and probes: min {1000 * g[0]:.2f} "
          f"median {1000 * statistics.median(g):.2f} max {1000 * g[-1]:.2f}")
    print("digests: " + json.dumps(first.digests, sort_keys=True))
    attempted = sum(len(r.errors) for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
