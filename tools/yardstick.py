"""The two replay yardsticks beside perfbench: the paper's ten weeks and the
16x probe. Each run prints one JSON line.

    python3 tools/yardstick.py ten-weeks     # study-replay's cohort and config, weeks 1-10
    python3 tools/yardstick.py probe         # cohort-scale with copies=16, weeks 1-4

The inputs come from perfbench/bench.py `_setup`, so they are perfbench's
own cohorts with the weeks or copies changed. Each week runs perfbench's
weekly operation, `bench._step`: one `engine.run_replay` call with an
output directory and a checkpoint beside it, as a weekly job does. The
line gives, per week, the wall seconds
of that call, the seconds inside `engine.step`, and the seconds the stepping
process waited for the specialized refresh helper after its own refresh was
done. Then the final checkpoint's bytes, its sha256 and its payload's bytes,
and the digest of the output files, `(cd out && sha256sum $(ls | sort)) |
sha256sum` in Python.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
import cohorts  # noqa: E402
from cohortsense import engine  # noqa: E402

# yardstick -> (perfbench workload, the fields it changes)
YARDSTICKS = {
    "ten-weeks": ("study-replay", {"weeks": 10}),
    "probe": ("cohort-scale", {"copies": 16}),
}


def replay(workload: cohorts.Workload, batches: list, work: Path) -> dict:
    """Replay ``batches`` one `run_replay` call a week into ``work``; give the
    per-week timings and the digests of the final files and checkpoint."""
    out, ckpt = work / "out", work / "state.csk"
    step, side_by_side = engine.step, engine.side_by_side
    timings = {}  # the last step's seconds and its wait for the helper

    def timed_step(*args):
        start = time.perf_counter()
        try:
            return step(*args)
        finally:
            timings["step"] = time.perf_counter() - start

    def timed_side_by_side(here, there, what):
        done = []

        def timed_here():
            result = here()
            done.append(time.perf_counter())
            return result

        result = side_by_side(timed_here, there, what)
        timings["wait"] = time.perf_counter() - done[0]
        return result

    weeks = []
    state = workload.config
    with mock.patch.object(engine, "step", timed_step), mock.patch.object(
        engine, "side_by_side", timed_side_by_side
    ):
        for batch in batches:
            start = time.perf_counter()
            _, state = bench._step(state, batch, out, ckpt, load=False)
            weeks.append((time.perf_counter() - start, timings["step"], timings["wait"]))
    listing = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
        for p in sorted(out.iterdir(), key=lambda p: p.name)
    )
    data = ckpt.read_bytes()
    walls, steps, waits = (list(column) for column in zip(*weeks))
    return {
        "week_wall_s": walls,
        "week_step_s": steps,
        "week_helper_wait_s": waits,
        "checkpoint_bytes": len(data),
        "checkpoint_sha256": hashlib.sha256(data).hexdigest(),
        "payload_bytes": len(gzip.decompress(data)),
        "files_digest": hashlib.sha256(listing.encode()).hexdigest(),
    }


def main(argv: list[str] | None = None, overrides: dict | None = None) -> int:
    """Run the yardstick that ``argv`` names; ``overrides`` changes more
    fields of its workload, so that a test can run it small."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("yardstick", choices=YARDSTICKS)
    args = parser.parse_args(argv)
    name, changes = YARDSTICKS[args.yardstick]
    changes = {**changes, **(overrides or {})}
    workload = dataclasses.replace(cohorts.WORKLOADS[name], **changes)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        start = time.perf_counter()
        batches = bench._setup(workload, work / "data")
        setup_s = time.perf_counter() - start
        line = {"yardstick": args.yardstick, "workload": name, **changes, "setup_s": setup_s}
        line.update(replay(workload, batches, work))
    line["replay_wall_s"] = sum(line["week_wall_s"])
    line["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
