"""The ``batch`` workload's program under test: BatchEngine in its own process.

Started by ``bench_layers.py`` so that set-up time (interpreter start,
imports, engine construction) and peak memory are measured the same way
as for the servers. Prints ``ready`` once the engines exist, then
compresses one seeded fleet of URBAN trips through the five specs, job
after job, until ``--seconds`` have passed and prints one JSON result
line.

The first job is checked against a reference run of the same fleet:
an inline (``workers=0``) engine for a pooled run, or, with
``--trace-dir``, the untraced first half of the run against the traced
second half (both inline; the traced half records spans).

Run standalone::

    PYTHONPATH=src python benchmarks/layered/batch_runner.py --seed 7 --seconds 5
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

SPECS = (
    "td-tr:epsilon=25",
    "opw-tr:epsilon=25",
    "opw-sp:epsilon=25,speed=5",
    "operb:epsilon=25",
    "td-tr-budget:budget=50",
)
#: Pool size of the measured engines (the traced run goes inline).
WORKERS = 2


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of one process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing for pid {pid}")


def make_fleet(seed: int, trips: int) -> list:
    """Seeded URBAN trips sampled every 2 s (~480 points each)."""
    from repro.datagen.generator import TrajectoryGenerator
    from repro.datagen.profiles import URBAN

    profile = dataclasses.replace(URBAN, sample_interval_s=2.0)
    generator = TrajectoryGenerator(seed=seed)
    return [
        generator.generate(profile, object_id=f"trip-{i:03d}") for i in range(trips)
    ]


def _encoded_bytes(trips: list, runs: list) -> int:
    """Store-codec bytes of every compressed output of one job."""
    from repro.storage.codec import encode_trajectory
    from repro.trajectory.trajectory import Trajectory

    total = 0
    for run in runs:
        for traj, item in zip(trips, run.results):
            kept = Trajectory(
                traj.t[item.indices], traj.xy[item.indices], traj.object_id
            )
            total += len(encode_trajectory(kept, 1e-3, 0.01))
    return total


def _run_jobs(engines: list, fleet: list, seconds: float) -> tuple[list, list]:
    """Jobs over the fleet until ``seconds`` pass; returns them and the first runs."""
    jobs: list[dict] = []
    first: list = []
    points = sum(len(traj) for traj in fleet) * len(engines)
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        started = time.perf_counter()
        runs = [engine.run(fleet) for engine in engines]
        elapsed = time.perf_counter() - started
        jobs.append(
            {
                "seconds": elapsed,
                "points": points,
                "items": len(fleet) * len(engines),
                "failed": sum(len(run.failures) for run in runs),
            }
        )
        first = first or runs
    return jobs, first


def _mismatches(runs: list, reference: list, tamper: bool) -> int:
    """Items whose kept indices differ from the reference run's."""
    count = 0
    for run, ref in zip(runs, reference):
        for ours, theirs in zip(run.results, ref.results):
            expected = list(theirs.indices)
            if tamper:
                expected = expected[:-1]
            if list(ours.indices) != expected:
                count += 1
    return count


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trips", type=int, default=30)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args(argv)

    from repro.pipeline import BatchEngine

    workers = 0 if args.trace_dir else WORKERS
    engines = [BatchEngine(spec, workers=workers, evaluate="sync") for spec in SPECS]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    fleet = make_fleet(args.seed, args.trips)
    result: dict = {}
    if args.trace_dir is None:
        jobs, runs = _run_jobs(engines, fleet, args.seconds)
        reference = [
            BatchEngine(spec, workers=0, evaluate="sync").run(fleet) for spec in SPECS
        ]
    else:
        from layer_trace import SpanRecorder

        half = args.seconds / 2
        result["untraced_jobs"], reference = _run_jobs(engines, fleet, half)
        recorder = SpanRecorder()
        recorder.install_batch()
        jobs, runs = _run_jobs(engines, fleet, half)
        recorder.dump(Path(args.trace_dir) / "spans-batch.json")
    result.update(
        jobs=jobs,
        mismatches=_mismatches(runs, reference, args.tamper),
        first_job_points=jobs[0]["points"],
        first_job_bytes=_encoded_bytes(fleet, runs),
        kept_points={
            spec.split(":", 1)[0]: sum(item.n_kept for item in run.results)
            for spec, run in zip(SPECS, runs)
        },
        rss_mb=peak_rss_mb(),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
