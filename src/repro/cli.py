"""Command-line interface: ``python -m repro <command>``.

Exposes the library's everyday operations without writing code:

* ``stats`` — Table 2 style statistics of a trajectory file;
* ``compress`` — run any registered algorithm on a trajectory file;
* ``generate`` — produce synthetic GPS trajectories;
* ``dataset`` — materialize the standard ten-trip evaluation dataset;
* ``figures`` — regenerate the numeric series behind the paper's
  evaluation figures (7–11) as text tables;
* ``table2`` — regenerate the paper's Table 2 comparison;
* ``cluster`` — group trajectory files by route or synchronized
  similarity;
* ``flow`` — rush-hour analytics (speed profile, hotspots, OD counts)
  over a set of trajectory files;
* ``pipeline`` — batch-compress a whole fleet of trajectory files
  through the parallel engine, with fault isolation and a metrics
  JSON export;
* ``report`` — per-segment error diagnostics of a compression;
* ``serve`` — run the trajectory-ingestion service (see
  ``docs/SERVING.md``);
* ``query`` — position/window/nearest/summaries queries over compressed
  records, against a ``.rsto`` store file or a live server (see
  ``docs/QUERYING.md``);
* ``serve-chaos`` — fault-injection harness proving the serve tier's
  crash recovery (WAL replay, torn tails, SIGKILL);
* ``obs dump`` — export metrics (from a live server's ``stats`` verb or
  a metrics JSON file) as Prometheus text exposition or JSON (see
  ``docs/OBSERVABILITY.md``).

Algorithms are selected either by name plus flags (``-a opw-sp -e 30
--speed 5``) or as one spec string (``-a "opw-sp:epsilon=30,speed=5"``).
File formats are chosen by suffix: ``.csv``, ``.json`` and ``.gpx`` are
supported for input; ``.csv`` and ``.json`` for output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.exceptions import ReproError

if TYPE_CHECKING:
    from repro.trajectory.trajectory import Trajectory

__all__ = ["main", "build_parser"]

# Each command imports the modules it runs, so that a serve router or
# worker never loads the pipeline, the error metrics, the file formats,
# the synthetic-data generator ``repro.datagen`` or ``repro.experiments``.
# The parser's choices are spelled out here instead; tests pin them to
# their sources.
#: The generator's movement profiles (``repro.datagen.profiles``).
_PROFILE_NAMES = ("highway", "rural", "urban")
#: The paper's figures (``repro.experiments.figures.ALL_FIGURES``).
_FIGURE_IDS = ("fig07", "fig08", "fig09", "fig10", "fig11")
#: ``repro.experiments.dataset.DATASET_SEED``.
_DATASET_SEED = 2004
#: The fault-injection scenarios (``repro.serve.chaos.SCENARIOS``).
_CHAOS_SCENARIOS = ("fsync-fail", "torn-tail", "disconnect", "sigkill", "worker-kill")

#: The ``compress``/``report`` parameter flags. Each one that is set
#: passes as the spec key of its own name when the algorithm accepts it.
_PARAM_FLAGS = ("epsilon", "speed", "step", "angle", "budget")


def _load_trajectory(path: Path) -> Trajectory:
    from repro.trajectory import gpx as _gpx
    from repro.trajectory import io as _io

    suffix = path.suffix.lower()
    if suffix == ".csv":
        return _io.read_csv(path, object_id=path.stem)
    if suffix == ".json":
        return _io.read_json(path)
    if suffix == ".gpx":
        return _gpx.read_gpx(path)
    raise ReproError(f"unsupported input format {suffix!r} (use .csv/.json/.gpx)")


def _save_trajectory(traj: Trajectory, path: Path) -> None:
    from repro.trajectory import io as _io

    suffix = path.suffix.lower()
    if suffix == ".csv":
        _io.write_csv(traj, path)
    elif suffix == ".json":
        _io.write_json(traj, path)
    else:
        raise ReproError(f"unsupported output format {suffix!r} (use .csv/.json)")


def _stats_table(traj: Trajectory) -> str:
    from repro.experiments.reporting import render_table
    from repro.trajectory.stats import trajectory_stats

    stats = trajectory_stats(traj)
    return render_table(
        ["statistic", "value"],
        [
            ("object id", traj.object_id or "-"),
            ("points", stats.n_points),
            ("duration", stats.duration_hms),
            ("length (km)", stats.length_m / 1000.0),
            ("displacement (km)", stats.displacement_m / 1000.0),
            ("mean speed (km/h)", stats.mean_speed_kmh),
        ],
        title=f"trajectory statistics",
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    traj = _load_trajectory(Path(args.input))
    print(_stats_table(traj))
    return 0


def _make_cli_compressor(args: argparse.Namespace):
    from repro.core.registry import make_compressor, resolve

    name = args.algorithm
    if ":" in name or "=" in name:
        return make_compressor(name)
    form = resolve(name, "batch")
    flags = {flag: getattr(args, flag) for flag in _PARAM_FLAGS if flag in form.keys}
    missing = [
        f"--{flag}" for flag, value in flags.items()
        if value is None and form.keys[flag] in form.required
    ]
    if missing:
        raise ReproError(f"{name} requires {' and '.join(missing)}")
    return make_compressor(
        name, **{flag: value for flag, value in flags.items() if value is not None}
    )


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.error.metrics import evaluate_compression

    traj = _load_trajectory(Path(args.input))
    compressor = _make_cli_compressor(args)
    result = compressor.compress(traj)
    report = evaluate_compression(traj, result.compressed)
    print(
        f"{compressor.name}: {result.n_original} -> {result.n_kept} points "
        f"({result.compression_percent:.1f}% removed)"
    )
    print(
        f"mean sync error {report.mean_sync_error_m:.2f} m, "
        f"max {report.max_sync_error_m:.2f} m, "
        f"mean speed error {report.mean_speed_error_ms:.2f} m/s"
    )
    if args.output:
        _save_trajectory(result.compressed, Path(args.output))
        print(f"wrote {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.error.report import detailed_report

    traj = _load_trajectory(Path(args.input))
    compressor = _make_cli_compressor(args)
    result = compressor.compress(traj)
    report = detailed_report(traj, result.compressed)
    print(f"algorithm: {compressor.name}")
    print(report.render())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datagen import profiles
    from repro.datagen.generator import TrajectoryGenerator

    profile = getattr(profiles, args.profile.upper())
    if args.length_km is not None:
        profile = profile.with_length(args.length_km * 1000.0)
    generator = TrajectoryGenerator(seed=args.seed)
    traj = generator.generate(profile, object_id=args.object_id)
    _save_trajectory(traj, Path(args.output))
    print(f"wrote {args.output} ({len(traj)} fixes)")
    print(_stats_table(traj))
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.experiments.dataset import paper_dataset
    from repro.trajectory import io as _io
    from repro.trajectory.stats import dataset_stats

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = paper_dataset(args.seed)
    for traj in dataset:
        _io.write_csv(traj, out_dir / f"{traj.object_id}.csv")
    agg = dataset_stats(dataset)
    print(f"wrote {len(dataset)} trajectories to {out_dir}/")
    print(
        f"aggregate: {agg.points_mean:.0f} points avg, "
        f"{agg.length_mean_km:.1f} km avg, {agg.speed_mean_kmh:.1f} km/h avg"
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import figures as _figures
    from repro.experiments.dataset import DATASET_SEED, paper_dataset
    from repro.experiments.reporting import (
        render_aggregate_rows,
        render_series_chart,
        series_by_algorithm,
    )

    wanted = sorted(_figures.ALL_FIGURES) if args.figure == "all" else [args.figure]
    if args.quick:
        dataset = paper_dataset(DATASET_SEED)[:3]
        thresholds: Sequence[float] = (30.0, 60.0, 100.0)
    else:
        dataset = paper_dataset(DATASET_SEED)
        thresholds = tuple(_figures.DISTANCE_THRESHOLDS_M)
    for figure_id in wanted:
        fig = _figures.ALL_FIGURES[figure_id](dataset, thresholds)
        print(render_aggregate_rows(fig.rows, title=f"{fig.figure_id}: {fig.title}"))
        if args.chart:
            grouped = series_by_algorithm(fig.rows)
            for quantity, attr in (
                ("compression %", "compression_percent"),
                ("mean sync error (m)", "mean_sync_error_m"),
            ):
                chart_series = {
                    name: [(r.threshold_m, getattr(r, attr)) for r in rows]
                    for name, rows in grouped.items()
                }
                print()
                print(
                    render_series_chart(
                        chart_series,
                        title=f"{fig.figure_id}: {quantity} vs threshold",
                        x_label="threshold (m)",
                        y_label=quantity,
                    )
                )
        print()
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.analysis import (
        cluster_trajectories,
        hausdorff_distance,
        mean_synchronized_distance,
    )

    paths = _collect_input_files(args.inputs)
    if len(paths) < 2:
        raise ReproError("clustering needs at least two trajectory files")
    trajectories = [_load_trajectory(path) for path in paths]
    names = [
        traj.object_id or path.stem for traj, path in zip(trajectories, paths)
    ]
    metric = (
        hausdorff_distance if args.metric == "route" else mean_synchronized_distance
    )
    result = cluster_trajectories(
        trajectories,
        n_clusters=args.clusters,
        max_distance=args.max_distance,
        metric=metric,
    )
    print(
        f"{len(trajectories)} trajectories -> {result.n_clusters} clusters "
        f"({args.metric} metric)"
    )
    for cluster in range(result.n_clusters):
        members = [names[i] for i in result.members(cluster)]
        print(f"  cluster {cluster}: {', '.join(members)}")
    return 0


def _collect_input_files(entries: list[str]) -> list[Path]:
    paths: list[Path] = []
    for entry in entries:
        path = Path(entry)
        if path.is_dir():
            for suffix in ("*.csv", "*.json", "*.gpx"):
                paths.extend(sorted(path.glob(suffix)))
        else:
            paths.append(path)
    return paths


def _cmd_flow(args: argparse.Namespace) -> int:
    from repro.analysis import occupancy_grid, od_matrix, speed_over_time
    from repro.experiments.reporting import render_table
    from repro.pipeline.engine import load_fleet

    paths = _collect_input_files(args.inputs)
    if not paths:
        raise ReproError("no trajectory files found")
    fleet, failures = load_fleet(
        paths,
        workers=args.workers,
        on_error=args.on_error,
        on_malformed=args.on_malformed,
    )
    for failure in failures:
        where = f" (moved to {failure.quarantined_to})" if failure.quarantined_to else ""
        print(
            f"warning: skipped {failure.item_id}: "
            f"{failure.error_type}: {failure.message}{where}",
            file=sys.stderr,
        )
    if not fleet:
        raise ReproError("no trajectory files could be loaded")

    profile = speed_over_time(fleet, bin_seconds=args.bin_seconds)
    rows = []
    for k in range(profile.bin_centers.size):
        if profile.observations[k] == 0:
            continue
        rows.append(
            (
                f"{profile.bin_edges[k]:.0f}-{profile.bin_edges[k + 1]:.0f}",
                profile.mean_speed_ms[k] * 3.6,
                int(profile.observations[k]),
            )
        )
    print(render_table(["time window (s)", "mean km/h", "segments"], rows,
                       title=f"fleet speed profile ({len(fleet)} trajectories)"))

    grid = occupancy_grid(fleet, cell_size_m=args.cell_m)
    print()
    print(render_table(
        ["cell", "distinct objects"],
        [(str(cell), count) for cell, count in grid.top_cells(args.top)],
        title=f"busiest {args.cell_m:g} m cells",
    ))

    od = od_matrix(fleet, cell_size_m=args.cell_m * 4)
    ranked = sorted(od.items(), key=lambda kv: -kv[1])[: args.top]
    print()
    print(render_table(
        ["origin zone", "destination zone", "trips"],
        [(str(o), str(d), count) for (o, d), count in ranked],
        title=f"top origin-destination pairs ({args.cell_m * 4:g} m zones)",
    ))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.dataset import PAPER_TABLE2, paper_dataset
    from repro.experiments.reporting import render_table
    from repro.pipeline.executor import execute
    from repro.trajectory.stats import aggregate_trajectory_stats, trajectory_stats

    dataset = paper_dataset(args.seed)
    # Per-trajectory statistics go through the pipeline executor (the
    # dataset itself is generated sequentially — one seeded RNG stream).
    outcomes = execute(
        trajectory_stats,
        [(traj.object_id or f"trip-{i:02d}", traj) for i, traj in enumerate(dataset)],
        workers=args.workers,
        policy="raise",
    )
    agg = aggregate_trajectory_stats(outcome.value for outcome in outcomes)
    ref = PAPER_TABLE2
    print(
        render_table(
            ["statistic", "paper_mean", "ours_mean"],
            [
                ("duration (s)", ref.duration_mean_s, agg.duration_mean_s),
                ("speed (km/h)", ref.speed_mean_kmh, agg.speed_mean_kmh),
                ("length (km)", ref.length_mean_km, agg.length_mean_km),
                ("displacement (km)", ref.displacement_mean_km, agg.displacement_mean_km),
                ("# of data points", ref.points_mean, agg.points_mean),
            ],
            title="Table 2: paper vs this reproduction",
        )
    )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.core.registry import make_compressor
    from repro.experiments.reporting import render_table
    from repro.pipeline.checkpoint import read_manifest
    from repro.pipeline.engine import BatchEngine
    from repro.trajectory import io as _io

    paths = _collect_input_files(args.inputs)
    if not paths:
        raise ReproError("no trajectory files found")
    spec = args.spec
    on_error = args.on_error
    on_malformed = args.on_malformed
    evaluate = "sync"
    checkpoint = args.checkpoint
    if args.resume:
        if checkpoint and Path(checkpoint) != Path(args.resume):
            raise ReproError("--resume already names the checkpoint directory; "
                             "drop --checkpoint or make them match")
        checkpoint = args.resume
        # Resume under the *original* configuration, not re-typed flags:
        # the manifest is the source of truth for what this run is.
        manifest = read_manifest(args.resume)
        spec = manifest.get("compressor", spec)
        on_error = manifest.get("on_error", on_error)
        on_malformed = manifest.get("on_malformed", on_malformed)
        evaluate = manifest.get("evaluate", evaluate)
    compressor = make_compressor(spec)  # validate the spec before any work
    engine = BatchEngine(
        spec,
        workers=args.workers,
        on_error=on_error,
        evaluate=evaluate,
        on_malformed=on_malformed,
    )
    run = engine.run(paths, checkpoint=checkpoint)
    rows = []
    for item in run.results:
        sync = (
            f"{item.mean_sync_error_m:.2f}"
            if item.mean_sync_error_m is not None
            else "-"
        )
        rows.append(
            (
                item.item_id,
                item.n_original,
                item.n_kept,
                f"{item.compression_percent:.1f}",
                sync,
                f"{item.runtime_s * 1000.0:.1f}",
            )
        )
    print(
        render_table(
            ["trajectory", "points", "kept", "removed %", "mean sync err (m)", "ms"],
            rows,
            title=f"pipeline: {compressor.name} on {len(paths)} file(s)",
        )
    )
    for failure in run.failures:
        where = f" (quarantined to {failure.quarantined_to})" if failure.quarantined_to else ""
        print(
            f"failed: {failure.item_id} after {failure.attempts} attempt(s): "
            f"{failure.error_type}: {failure.message}{where}",
            file=sys.stderr,
        )
    print(run.summary())
    if run.items_resumed:
        print(f"resumed {run.items_resumed} already-completed item(s) from {checkpoint}")
    if run.n_quarantined:
        print(f"quarantined {run.n_quarantined} malformed input file(s)")
    if args.output_dir:
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        by_id = {path.stem: path for path in paths}
        for item in run.results:
            source = by_id.get(item.item_id)
            if source is None:
                continue
            compressed = _load_trajectory(source).subset(item.indices)
            _io.write_csv(compressed, out_dir / f"{item.item_id}.csv")
        print(f"wrote {len(run.results)} compressed trajectories to {out_dir}/")
    if args.metrics_json:
        run.write_metrics_json(args.metrics_json)
        print(f"wrote metrics to {args.metrics_json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers > 1:
        return _cmd_serve_sharded(args)

    import asyncio
    import contextlib
    import signal

    from repro.serve.server import TrajectoryServer

    server = TrajectoryServer(
        host=args.host,
        port=args.port,
        store_path=args.store,
        max_sessions=args.max_sessions,
        idle_timeout_s=args.idle_timeout,
        sweep_interval_s=args.sweep_interval,
        queue_size=args.queue_size,
        replace=args.replace,
        default_spec=args.algorithm,
        wal_dir=args.wal,
        shard=args.shard,
        degrade_budget_floor=args.degrade_floor,
        degrade_budget_factor=args.degrade_factor,
    )

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        drain_requested = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, drain_requested.set)
        await server.start()
        recovery = server.recovery
        if recovery and recovery["sessions"]:
            print(
                f"recovered {recovery['sessions']} session(s), "
                f"{recovery['fixes']} fixes from the WAL",
                flush=True,
            )
        where = f" (store: {args.store})" if args.store else ""
        wal = f" (wal: {args.wal})" if args.wal else ""
        print(f"serving on {server.host}:{server.port}{where}{wal}", flush=True)
        serving = asyncio.create_task(server.serve_forever())
        waiter = asyncio.create_task(drain_requested.wait())
        try:
            await asyncio.wait(
                {serving, waiter}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            serving.cancel()
            waiter.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serving
        # Graceful drain on SIGTERM/SIGINT: stop accepting, flush every
        # live session into the store, persist, exit 0 — a supervisor's
        # TERM loses nothing.
        drained = await server.drain()
        failed = drained["failed"]
        print(
            f"drained: {len(drained['flushed'])} session(s) flushed"
            + (f", {failed} failed" if failed else ""),
            flush=True,
        )

    try:
        asyncio.run(_run())
    finally:
        # Abnormal exits land here with sessions possibly un-flushed:
        # persist the store file (atomic) and release the locks. After
        # a drain this does nothing.
        server.close()
    return 0


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    """``repro serve --workers N``: the consistent-hash router tier.

    Spawns N worker processes (each a full durable server with its own
    WAL directory and store partition) under one thin router that
    hashes object ids onto them. SIGTERM/SIGINT drains the whole fleet
    — every worker flushes and persists its partition, the partitions
    are merged into the ``--store`` file — and exits 0.
    """
    import asyncio
    import contextlib
    import signal

    from repro.serve.pool import WorkerPool
    from repro.serve.router import ServeRouter

    pool = WorkerPool(
        args.workers,
        wal_dir=args.wal,
        store_path=args.store,
        default_spec=args.algorithm,
        max_sessions=args.max_sessions,
        degrade_budget_floor=args.degrade_floor,
        degrade_budget_factor=args.degrade_factor,
        idle_timeout_s=args.idle_timeout,
        sweep_interval_s=args.sweep_interval,
        queue_size=args.queue_size,
        replace=args.replace,
    )
    router = ServeRouter(
        pool,
        host=args.host,
        port=args.port,
        shed_inflight=args.shed_inflight,
    )

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        drain_requested = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, drain_requested.set)
        await router.start()
        where = f" (store: {args.store})" if args.store else ""
        wal = f" (wal: {args.wal})" if args.wal else ""
        print(
            f"serving on {router.host}:{router.port}{where}{wal} "
            f"[router, {args.workers} workers]",
            flush=True,
        )
        serving = asyncio.create_task(router.serve_forever())
        waiter = asyncio.create_task(drain_requested.wait())
        try:
            await asyncio.wait(
                {serving, waiter}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            serving.cancel()
            waiter.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serving
        drained = await router.drain()
        merged = drained["merged"]
        exit_codes = drained["workers"]
        clean = sum(1 for code in exit_codes.values() if code == 0)
        summary = f"drained: {clean}/{len(exit_codes)} worker(s) exited cleanly"
        if merged is not None:
            summary += (
                f", merged {merged['n_objects']} object(s) into {merged['path']}"
            )
        print(summary, flush=True)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.io_util import write_atomic_json
    from repro.serve.chaos import SCENARIOS, run_chaos

    names = tuple(args.scenario) if args.scenario else SCENARIOS
    if args.fast:
        names = tuple(
            name for name in names if name not in ("sigkill", "worker-kill")
        )
        if not names:
            raise ReproError(
                "--fast skips the sigkill and worker-kill scenarios, which "
                "leaves none of the selected ones to run"
            )
    report = run_chaos(names, seed=args.seed, n_fixes=args.fixes)
    for entry in report["scenarios"]:
        verdict = "PASS" if entry["passed"] else "FAIL"
        extras = {k: v for k, v in entry.items() if k not in ("name", "passed")}
        print(f"{verdict}  {entry['name']}: {json.dumps(extras, sort_keys=True)}")
    if args.output:
        write_atomic_json(Path(args.output), report)
        print(f"wrote {args.output}")
    if not report["passed"]:
        print("chaos: durability contract violated", file=sys.stderr)
        return 1
    print(f"chaos: {len(report['scenarios'])} scenario(s) passed (seed {args.seed})")
    return 0


def _query_local(args: argparse.Namespace) -> dict:
    """Answer one query against a store file via the local engine."""
    from repro.exceptions import ObjectNotFoundError
    from repro.geometry.bbox import BBox
    from repro.query.engine import QueryEngine
    from repro.storage.store import TrajectoryStore

    store = TrajectoryStore.load(Path(args.store))
    engine = QueryEngine(store)
    kind = args.query_command
    try:
        if kind == "position":
            answer = engine.position_at(args.object, args.t)
            return {**answer.to_wire(), "source": answer.source}
        if kind == "window":
            box = None if args.bbox is None else BBox(*args.bbox)
            ids = engine.window(args.t0, args.t1, box, args.mode)
            return {"objects": ids, "n": len(ids)}
        if kind == "nearest":
            answers = engine.nearest(args.x, args.y, args.t, k=args.k)
            return {"results": [answer.to_wire() for answer in answers]}
        # summaries
        if args.object is not None:
            objects = {args.object: store.summary(args.object).to_wire()}
        else:
            objects = {
                key: store.summary(key).to_wire() for key in store.object_ids()
            }
        return {
            "objects": objects,
            "live_sessions": [],
            "config": store.summary_config.to_wire(),
        }
    except ObjectNotFoundError as exc:
        raise ReproError(f"no stored object {exc} in {args.store}") from None
    except ValueError as exc:
        raise ReproError(str(exc)) from None


def _query_remote(args: argparse.Namespace) -> dict:
    """Answer one query against a live server (or router) over the wire."""
    import asyncio

    from repro.exceptions import ServeError
    from repro.serve.client import ServeClient

    async def _run() -> dict:
        async with await ServeClient.connect(args.host, args.port) as client:
            kind = args.query_command
            if kind == "position":
                response = await client.request(
                    {
                        "op": "query",
                        "query": "position",
                        "object": args.object,
                        "t": args.t,
                    }
                )
                return {**response["result"], "source": response.get("source")}
            if kind == "window":
                ids = await client.query_window(
                    args.t0, args.t1, args.bbox, args.mode
                )
                return {"objects": ids, "n": len(ids)}
            if kind == "nearest":
                results = await client.query_nearest(
                    args.x, args.y, args.t, k=args.k
                )
                return {"results": results}
            return await client.summaries(args.object)

    try:
        return asyncio.run(_run())
    except OSError as exc:
        raise ReproError(
            f"cannot reach server at {args.host}:{args.port}: {exc} "
            f"(use --store to query a store file directly)"
        ) from exc
    except ServeError as exc:
        raise ReproError(f"{exc} (code {exc.code})") from exc


def _print_query_result(kind: str, result: dict) -> None:
    from repro.experiments.reporting import render_table

    if kind == "position":
        bound = result.get("error_bound_m")
        margin = "no error bound" if bound is None else f"±{bound:g} m"
        print(
            f"{result['object']} @ t={result['t']:g}: "
            f"({result['x']:.3f}, {result['y']:.3f})  [{margin}, "
            f"{result.get('source', 'stored')}]"
        )
    elif kind == "window":
        print(f"{result['n']} object(s)")
        for object_id in result["objects"]:
            print(f"  {object_id}")
    elif kind == "nearest":
        rows = []
        for rank, entry in enumerate(result["results"], start=1):
            bound = entry.get("error_bound_m")
            rows.append(
                (
                    rank,
                    entry["object"],
                    f"{entry['distance_m']:.3f}",
                    f"({entry['x']:.3f}, {entry['y']:.3f})",
                    "-" if bound is None else f"{bound:g}",
                    entry.get("source", "stored"),
                )
            )
        print(
            render_table(
                ["#", "object", "distance (m)", "position", "bound (m)", "source"],
                rows,
                title="nearest objects",
            )
        )
    else:  # summaries
        config = result.get("config")
        if config:
            print(
                f"summary grid: {config['partition_points']} points/partition, "
                f"{config['grid_m']:g} m x {config['time_grid_s']:g} s"
            )
        rows = [
            (
                object_id,
                summary["n_points"],
                len(summary["partitions"]),
                f"[{summary['partitions'][0]['t0']:g}, "
                f"{summary['partitions'][-1]['t1']:g}]"
                if summary["partitions"]
                else "-",
            )
            for object_id, summary in sorted(result["objects"].items())
        ]
        print(
            render_table(
                ["object", "points", "partitions", "time span"],
                rows,
                title=f"{len(rows)} stored object(s)",
            )
        )
        live = result.get("live_sessions") or []
        if live:
            print(f"live sessions: {', '.join(live)}")


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    result = _query_local(args) if args.store is not None else _query_remote(args)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        _print_query_result(args.query_command, result)
    return 0


def _instrument_numbers(category: str, entry: object) -> list:
    """The values ``render_prometheus`` prints for one instrument of a
    registry export (``Registry.to_dict``)."""
    if category in ("counters", "gauges"):
        return [entry]
    if not isinstance(entry, dict):
        return [None]
    if category == "timers":
        return [entry.get(key) for key in ("count", "total_s", "max_s")]
    buckets = entry.get("buckets")
    if not isinstance(buckets, list) or not all(
        isinstance(bucket, dict) for bucket in buckets
    ):
        return [None]
    return [entry.get("count"), entry.get("sum"), entry.get("overflow", 0)] + [
        bucket.get(key) for bucket in buckets for key in ("le", "count")
    ]


def _read_metrics(path: str) -> dict:
    """The registry export in a metrics JSON file: the file itself, or
    the ``metrics`` of a saved ``stats`` payload."""
    import json

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ReproError(f"{path}: not a metrics JSON file: {exc}") from None
    metrics = data.get("metrics", data) if isinstance(data, dict) else data
    categories = ("counters", "gauges", "timers", "histograms")
    if not isinstance(metrics, dict) or not metrics.keys() & set(categories):
        raise ReproError(f"{path}: expected a registry export or a stats payload")
    for category in categories:
        entries = metrics.get(category, {})
        if not isinstance(entries, dict) or not all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for entry in entries.values()
            for value in _instrument_numbers(category, entry)
        ):
            raise ReproError(f"{path}: malformed {category} in the registry export")
    return metrics


def _cmd_obs_dump(args: argparse.Namespace) -> int:
    import json

    from repro.obs import render_prometheus

    if args.input is not None:
        metrics = _read_metrics(args.input)
    else:
        import asyncio

        from repro.serve.client import ServeClient

        async def _fetch() -> dict:
            async with await ServeClient.connect(args.host, args.port) as client:
                return await client.stats()

        try:
            stats = asyncio.run(_fetch())
        except OSError as exc:
            raise ReproError(
                f"cannot reach server at {args.host}:{args.port}: {exc}"
            ) from exc
        metrics = stats.get("metrics", stats)
    if args.format == "json":
        print(json.dumps(metrics, indent=2, sort_keys=True))
    else:
        print(render_prometheus(metrics, prefix=args.prefix), end="")
    return 0


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected at parse time.

    Catching these at the parser keeps bad values out of the server
    constructor, where a ``ValueError`` would print a traceback instead
    of a usage line.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0, rejected at parse time."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatiotemporal trajectory compression (Meratnia & de By, EDBT 2004)",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print statistics of a trajectory file")
    p_stats.add_argument("input", help="trajectory file (.csv/.json/.gpx)")
    p_stats.set_defaults(func=_cmd_stats)

    p_compress = sub.add_parser("compress", help="compress a trajectory file")
    p_compress.add_argument("input", help="trajectory file (.csv/.json/.gpx)")
    p_compress.add_argument(
        "--algorithm", "-a", default="td-tr",
        help="algorithm name or spec string, e.g. td-tr or "
             "'opw-sp:epsilon=30,speed=5'",
    )
    p_compress.add_argument("--epsilon", "-e", type=float, default=None,
                            help="distance threshold in metres (or alpha budget)")
    p_compress.add_argument("--speed", type=float, default=None,
                            help="speed-difference threshold in m/s (SP algorithms)")
    p_compress.add_argument("--step", type=int, default=None,
                            help="decimation step (every-ith)")
    p_compress.add_argument("--angle", type=float, default=None,
                            help="angular threshold in radians (angular)")
    p_compress.add_argument("--budget", type=int, default=None,
                            help="point budget (budget algorithms)")
    p_compress.add_argument("--output", "-o", default=None,
                            help="write the compressed trajectory here (.csv/.json)")
    p_compress.set_defaults(func=_cmd_compress)

    p_report = sub.add_parser(
        "report", help="detailed per-segment error diagnostics of a compression"
    )
    p_report.add_argument("input", help="trajectory file (.csv/.json/.gpx)")
    p_report.add_argument(
        "--algorithm", "-a", default="td-tr",
        help="algorithm name or spec string",
    )
    p_report.add_argument("--epsilon", "-e", type=float, default=None)
    p_report.add_argument("--speed", type=float, default=None)
    p_report.add_argument("--step", type=int, default=None)
    p_report.add_argument("--angle", type=float, default=None)
    p_report.add_argument("--budget", type=int, default=None)
    p_report.set_defaults(func=_cmd_report)

    p_generate = sub.add_parser("generate", help="generate a synthetic trajectory")
    p_generate.add_argument("--profile", choices=_PROFILE_NAMES, default="urban")
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--length-km", type=float, default=None)
    p_generate.add_argument("--object-id", default=None)
    p_generate.add_argument("--output", "-o", required=True)
    p_generate.set_defaults(func=_cmd_generate)

    p_dataset = sub.add_parser(
        "dataset", help="materialize the standard evaluation dataset as CSVs"
    )
    p_dataset.add_argument("output_dir")
    p_dataset.add_argument("--seed", type=int, default=_DATASET_SEED)
    p_dataset.set_defaults(func=_cmd_dataset)

    p_figures = sub.add_parser(
        "figures", help="regenerate the paper's evaluation figures as tables"
    )
    p_figures.add_argument(
        "figure", choices=[*_FIGURE_IDS, "all"], default="all",
        nargs="?",
    )
    p_figures.add_argument(
        "--quick", action="store_true",
        help="3 trajectories x 3 thresholds instead of the full grid",
    )
    p_figures.add_argument(
        "--chart", action="store_true",
        help="also draw ASCII charts of each figure's series",
    )
    p_figures.set_defaults(func=_cmd_figures)

    p_cluster = sub.add_parser(
        "cluster", help="group trajectory files by similarity"
    )
    p_cluster.add_argument(
        "inputs", nargs="+", help="trajectory files and/or directories"
    )
    p_cluster.add_argument(
        "--metric", choices=("route", "synchronized"), default="route",
        help="route shape (Hausdorff, time-blind) or synchronized distance",
    )
    group = p_cluster.add_mutually_exclusive_group(required=True)
    group.add_argument("--clusters", type=int, default=None,
                       help="stop at this many clusters")
    group.add_argument("--max-distance", type=float, default=None,
                       help="stop before merges beyond this distance (m)")
    p_cluster.set_defaults(func=_cmd_cluster)

    p_flow = sub.add_parser(
        "flow", help="rush-hour analytics over trajectory files"
    )
    p_flow.add_argument("inputs", nargs="+", help="trajectory files/directories")
    p_flow.add_argument("--bin-seconds", type=float, default=600.0,
                        help="speed-profile bin width")
    p_flow.add_argument("--cell-m", type=float, default=400.0,
                        help="occupancy cell size in metres")
    p_flow.add_argument("--top", type=int, default=5,
                        help="how many hotspots / OD pairs to list")
    p_flow.add_argument("--workers", "-w", type=int, default=0,
                        help="worker processes for loading files (0 = inline)")
    p_flow.add_argument("--on-error", default="raise",
                        help="raise, skip, or retry(n) for unreadable files")
    p_flow.add_argument(
        "--on-malformed", default=None,
        help="unparsable-file policy: raise, skip, or quarantine:<dir> "
             "(default: follow --on-error)",
    )
    p_flow.set_defaults(func=_cmd_flow)

    p_table2 = sub.add_parser("table2", help="regenerate the Table 2 comparison")
    p_table2.add_argument("--seed", type=int, default=_DATASET_SEED)
    p_table2.add_argument("--workers", "-w", type=int, default=0,
                          help="worker processes for the per-trip statistics")
    p_table2.set_defaults(func=_cmd_table2)

    p_pipeline = sub.add_parser(
        "pipeline",
        help="batch-compress a fleet of trajectory files through the "
             "parallel engine",
    )
    p_pipeline.add_argument(
        "inputs", nargs="+", help="trajectory files and/or directories"
    )
    p_pipeline.add_argument(
        "--spec", "-s", default="td-tr:epsilon=30",
        help="compressor spec string, e.g. 'opw-sp:epsilon=30,speed=5'",
    )
    p_pipeline.add_argument("--workers", "-w", type=int, default=0,
                            help="worker processes (0 = inline serial)")
    p_pipeline.add_argument(
        "--on-error", default="raise",
        help="failure policy: raise, skip, retry(n), or retry(n,backoff=s)",
    )
    p_pipeline.add_argument(
        "--on-malformed", default=None,
        help="unparsable-input policy: raise, skip, or quarantine:<dir> "
             "(default: follow --on-error)",
    )
    p_pipeline.add_argument(
        "--checkpoint", default=None,
        help="checkpoint directory: journal completed items so a killed "
             "run can resume",
    )
    p_pipeline.add_argument(
        "--resume", default=None,
        help="resume a checkpointed run from this directory, restoring "
             "its original configuration and skipping finished items",
    )
    p_pipeline.add_argument(
        "--metrics-json", default=None,
        help="write the run's aggregated metrics JSON here (atomically)",
    )
    p_pipeline.add_argument(
        "--output-dir", "-o", default=None,
        help="write each compressed trajectory as CSV into this directory",
    )
    p_pipeline.set_defaults(func=_cmd_pipeline)

    p_serve = sub.add_parser(
        "serve",
        help="run the trajectory-ingestion service (NDJSON over TCP)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default loopback)")
    p_serve.add_argument("--port", type=int, default=8750,
                         help="TCP port (0 = ephemeral, printed on start)")
    p_serve.add_argument(
        "--store", default=None,
        help="store file (.rsto) closed sessions are flushed into; "
             "loaded first if it already exists",
    )
    p_serve.add_argument("--max-sessions", type=_positive_int, default=1024,
                         help="admission limit: opens beyond this are rejected")
    p_serve.add_argument("--idle-timeout", type=_positive_float, default=300.0,
                         help="seconds of inactivity before a session is "
                              "flushed and evicted")
    p_serve.add_argument("--sweep-interval", type=_positive_float, default=5.0,
                         help="how often the idle sweeper runs (seconds)")
    p_serve.add_argument("--queue-size", type=_positive_int, default=64,
                         help="per-connection request queue bound (backpressure)")
    p_serve.add_argument(
        "--replace", action="store_true",
        help="allow a flushed session to overwrite a stored object id",
    )
    p_serve.add_argument(
        "--wal", default=None, metavar="DIR",
        help="write-ahead log directory: every acknowledged request is "
             "fsynced there before the response, and a restart replays "
             "surviving sessions (see docs/SERVING.md)",
    )
    p_serve.add_argument(
        "--algorithm", "-a", default=None, metavar="SPEC",
        help="default online compressor spec for opens that carry none, "
             "e.g. 'operb:epsilon=30' (see repro.streaming)",
    )
    p_serve.add_argument(
        "--degrade-floor", type=_positive_int, default=None, metavar="N",
        help="degraded admission: when the session table is full, "
             "renegotiate live budget-capable sessions down (never below "
             "this floor) instead of rejecting the open (see "
             "docs/SERVING.md)",
    )
    p_serve.add_argument(
        "--degrade-factor", type=_positive_float, default=0.5, metavar="F",
        help="multiplier applied to each live session's budget during a "
             "degraded admission (0 < F < 1, default 0.5)",
    )
    p_serve.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="shard the service across N worker processes behind a "
             "consistent-hash router; each worker gets its own WAL "
             "directory and store partition (see docs/SERVING.md)",
    )
    p_serve.add_argument(
        "--shed-inflight", type=_positive_int, default=256, metavar="N",
        help="router only: per-shard inflight-request ceiling before the "
             "router sheds load for that shard (code 'rejected')",
    )
    p_serve.add_argument(
        "--shard", default=None, metavar="NAME",
        help=argparse.SUPPRESS,  # set by the router when spawning workers
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_chaos = sub.add_parser(
        "serve-chaos",
        help="fault-injection harness: prove the serve tier's crash "
             "recovery (see docs/SERVING.md)",
    )
    p_chaos.add_argument(
        "--scenario", action="append", default=None, choices=_CHAOS_SCENARIOS,
        help="run only this scenario (repeatable; default all)",
    )
    p_chaos.add_argument(
        "--fast", action="store_true",
        help="skip the sigkill/worker-kill scenarios (they spawn real "
             "server subprocesses)",
    )
    p_chaos.add_argument("--fixes", type=_positive_int, default=120,
                         help="fixes streamed per scenario")
    p_chaos.add_argument("--seed", type=int, default=7,
                         help="scenario RNG seed (fault offsets, workload)")
    p_chaos.add_argument("--output", "-o", default=None,
                         help="write the JSON report here (atomically)")
    p_chaos.set_defaults(func=_cmd_serve_chaos)

    p_query = sub.add_parser(
        "query",
        help="query compressed trajectories: a .rsto store file directly, "
             "or a live server/router (see docs/QUERYING.md)",
    )
    query_sub = p_query.add_subparsers(dest="query_command", required=True)

    def _query_target_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store", default=None, metavar="FILE",
            help="query this .rsto store file locally (no server needed)",
        )
        p.add_argument("--host", default="127.0.0.1",
                       help="live server/router address (when --store absent)")
        p.add_argument("--port", type=int, default=8750,
                       help="live server/router port")
        p.add_argument("--json", action="store_true",
                       help="print the raw JSON result instead of a table")

    p_qpos = query_sub.add_parser(
        "position", help="interpolated position of one object at a time"
    )
    p_qpos.add_argument("object", help="object id")
    p_qpos.add_argument("t", type=float, help="query time (seconds)")
    _query_target_args(p_qpos)
    p_qpos.set_defaults(func=_cmd_query)

    p_qwin = query_sub.add_parser(
        "window", help="object ids matching a time window (and optional box)"
    )
    p_qwin.add_argument("t0", type=float, help="window start (seconds)")
    p_qwin.add_argument("t1", type=float, help="window end (seconds)")
    p_qwin.add_argument(
        "--bbox", type=float, nargs=4, default=None,
        metavar=("MIN_X", "MIN_Y", "MAX_X", "MAX_Y"),
        help="restrict to trajectories passing through this box (metres)",
    )
    p_qwin.add_argument(
        "--mode", choices=("stored", "possibly", "definitely"),
        default="stored",
        help="answer semantics under compression error (docs/QUERYING.md)",
    )
    _query_target_args(p_qwin)
    p_qwin.set_defaults(func=_cmd_query)

    p_qnear = query_sub.add_parser(
        "nearest", help="the k objects nearest a point at a time"
    )
    p_qnear.add_argument("x", type=float, help="query x (metres)")
    p_qnear.add_argument("y", type=float, help="query y (metres)")
    p_qnear.add_argument("t", type=float, help="query time (seconds)")
    p_qnear.add_argument("-k", type=_positive_int, default=1,
                         help="how many neighbours (default 1)")
    _query_target_args(p_qnear)
    p_qnear.set_defaults(func=_cmd_query)

    p_qsum = query_sub.add_parser(
        "summaries", help="partition summaries of stored objects"
    )
    p_qsum.add_argument("object", nargs="?", default=None,
                        help="one object id (default: every stored object)")
    _query_target_args(p_qsum)
    p_qsum.set_defaults(func=_cmd_query)

    p_obs = sub.add_parser(
        "obs", help="observability utilities (see docs/OBSERVABILITY.md)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_dump = obs_sub.add_parser(
        "dump",
        help="export metrics as Prometheus text exposition or JSON",
    )
    p_dump.add_argument(
        "--input", "-i", default=None,
        help="metrics JSON file (a registry export or a saved stats "
             "payload); omit to query a live server's stats verb",
    )
    p_dump.add_argument("--host", default="127.0.0.1",
                        help="server address for live queries")
    p_dump.add_argument("--port", type=int, default=8750,
                        help="server port for live queries")
    p_dump.add_argument(
        "--format", "-f", choices=("prometheus", "json"), default="prometheus",
        help="output format (default Prometheus text exposition 0.0.4)",
    )
    p_dump.add_argument("--prefix", default="repro",
                        help="metric-name prefix for Prometheus output")
    p_dump.set_defaults(func=_cmd_obs_dump)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. `repro stats x.csv | head`): exit quietly.
        return 0
    except KeyboardInterrupt:
        # Ctrl-C (e.g. stopping `repro serve`): no traceback, POSIX code.
        print(file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
