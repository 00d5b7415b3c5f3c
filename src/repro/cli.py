"""Command-line interface: ``python -m repro <command>``.

The operational surface a deployment needs:

.. code-block:: text

    python -m repro ingest demo --profile venice --duration 6  --root /tmp/db
    python -m repro ls                 --root /tmp/db
    python -m repro info demo          --root /tmp/db
    python -m repro serve demo --policy predictive --bandwidth 20000
    python -m repro serve demo --transport http     # real-socket delivery
    python -m repro control http://127.0.0.1:8600   # live control-plane state
    python -m repro export demo /tmp/demo.mp4
    python -m repro metrics demo --sessions 4 --format prom
    python -m repro drop demo

Every command operates on the database directory given by ``--root``
(default ``./visualcloud-db``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.errors import CatalogError, VisualCloudError
from repro.core.export import export_video, import_video
from repro.core.metadata import PROJECTION
from repro.core.server import VisualCloud
from repro.core.storage import IngestConfig
from repro.core.streamer import SessionConfig
from repro.core.predictor import PREDICTOR_KINDS
from repro.geometry.grid import TileGrid
from repro.stream.abr import POLICIES, PredictiveTilingPolicy
from repro.stream.network import ConstantBandwidth
from repro.video.quality import Quality
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import PROFILES, synthetic_video


def _parse_grid(text: str) -> TileGrid:
    try:
        rows, cols = (int(part) for part in text.lower().split("x"))
        return TileGrid(rows, cols)
    except (ValueError, TypeError) as error:
        raise argparse.ArgumentTypeError(f"grid must look like 4x8, got {text!r}") from error


def _int_at_least(name: str, minimum: int):
    """An argparse ``type`` for an integer option with a floor."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer, got {text!r}"
            ) from error
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{name} must be >= {minimum}, got {value}")
        return value

    return parse


def _parse_qualities(text: str) -> tuple[Quality, ...]:
    try:
        return tuple(Quality.from_label(label.strip()) for label in text.split(","))
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VisualCloud: a DBMS for virtual-reality (360) video",
    )
    parser.add_argument(
        "--root",
        default="./visualcloud-db",
        help="database directory (default: ./visualcloud-db)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("ls", help="list stored videos")

    ingest = commands.add_parser("ingest", help="ingest a procedural 360 video")
    ingest.add_argument("name")
    ingest.add_argument("--profile", choices=sorted(PROFILES), default="venice")
    ingest.add_argument("--width", type=int, default=256)
    ingest.add_argument("--height", type=int, default=128)
    ingest.add_argument("--fps", type=float, default=10.0)
    ingest.add_argument("--duration", type=float, default=6.0)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--grid", type=_parse_grid, default=TileGrid(4, 8))
    ingest.add_argument(
        "--qualities", type=_parse_qualities, default=(Quality.HIGH, Quality.LOWEST)
    )
    ingest.add_argument("--gop-frames", type=int, default=10)
    ingest.add_argument(
        "--workers",
        type=_int_at_least("workers", 1),
        default=None,
        help="encode worker processes (default: every core this process may use; 1 = in-process)",
    )

    info = commands.add_parser("info", help="show a video's metadata")
    info.add_argument("name")
    info.add_argument("--version", type=int, default=None)

    serve = commands.add_parser(
        "serve", help="stream to a viewer (simulated link or real HTTP socket)"
    )
    serve.add_argument("name")
    serve.add_argument("--policy", choices=sorted(POLICIES), default="predictive")
    # No verb trains a Markov model, and a session never outlives its
    # process, so ``markov`` could only ever exit 2 here.
    serve.add_argument(
        "--predictor",
        choices=[kind for kind in PREDICTOR_KINDS if kind != "markov"],
        default=SessionConfig.predictor,
    )
    serve.add_argument("--bandwidth", type=float, default=20_000.0, help="bytes/second")
    serve.add_argument("--viewer-seed", type=int, default=0)
    serve.add_argument("--probe", action="store_true", help="compute viewport PSNR")
    serve.add_argument(
        "--transport",
        choices=("sim", "http"),
        default="sim",
        help="sim = in-process simulated link; http = fetch segments "
        "over a real socket",
    )
    serve.add_argument(
        "--url",
        default=None,
        help="segment server to stream from (with --transport http); "
        "omitted, a loopback server over --root is started for the session",
    )

    control = commands.add_parser(
        "control",
        help="inspect a live segment server's control plane (GET /control) or "
        "retune it: the flags given replace those fields of the node's slice "
        "and one full plan is posted (POST /control/plan), so the "
        "predicted-heat layer is replaced too — empty without --prewarm",
    )
    control.add_argument("url", help="base URL of a running segment server")
    control.add_argument(
        "--max-inflight",
        type=_int_at_least("max-inflight", 0),
        default=None,
        help="set the admission ceiling (0 = unlimited)",
    )
    control.add_argument(
        "--pin-budget",
        type=_int_at_least("pin-budget", 0),
        default=None,
        help="resize the RAM hot-set budget in bytes",
    )
    control.add_argument(
        "--prewarm",
        default=None,
        metavar="VIDEO",
        help="pre-warm VIDEO's segments hottest-first under the pin budget",
    )

    export = commands.add_parser("export", help="flatten one quality to a single file")
    export.add_argument("name")
    export.add_argument("output")
    export.add_argument("--quality", type=Quality.from_label, default=None)

    imported = commands.add_parser("import", help="store an exported file under a new name")
    imported.add_argument("name")
    imported.add_argument("input")

    drop = commands.add_parser("drop", help="remove a video and its segments")
    drop.add_argument("name")

    vacuum = commands.add_parser(
        "vacuum", help="drop old versions and unreferenced packs"
    )
    vacuum.add_argument("name")
    vacuum.add_argument("--keep", type=int, default=1, help="versions to retain")

    commands.add_parser("stats", help="catalog and cache statistics")

    fsck = commands.add_parser(
        "fsck",
        help="audit the catalog for crash debris (uncommitted versions, "
        "orphan temp files, damaged segments); exits nonzero if unclean",
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="fix what the audit finds: adopt valid marker-less versions, "
        "delete torn ones, sweep orphan temp files and packs",
    )

    scrub = commands.add_parser(
        "scrub",
        help="verify every committed segment's bytes against its content "
        "checksum (bit-rot detection); exits nonzero on any corruption",
    )
    scrub.add_argument(
        "name",
        nargs="?",
        default=None,
        help="restrict the scrub to one video (default: the whole catalog)",
    )

    metrics = commands.add_parser(
        "metrics",
        help="export live metrics (JSON or Prometheus text), optionally after "
        "exercising a multi-session delivery run",
    )
    metrics.add_argument(
        "name",
        nargs="?",
        default=None,
        help="video to stream to --sessions simulated viewers over one shared "
        "link before exporting (omit to export whatever has accrued)",
    )
    metrics.add_argument(
        "--sessions", type=int, default=4, help="simulated viewers (default 4)"
    )
    metrics.add_argument(
        "--bandwidth",
        type=float,
        default=200_000.0,
        help="shared uplink capacity in bytes/second",
    )
    metrics.add_argument(
        "--viewer-seed", type=int, default=0, help="viewer population seed"
    )
    metrics.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        dest="export_format",
        help="json = registry snapshot; prom = Prometheus text exposition",
    )
    metrics.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )

    chaos = commands.add_parser(
        "chaos",
        help="replay a chaos scenario (fault-injected streaming under "
        "invariant checks); exits nonzero on any violation",
    )
    chaos.add_argument("--plan", required=True, help="scenario JSON file")
    chaos.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the scenario's seed (same seed => identical report)",
    )
    chaos.add_argument(
        "--output", default=None, help="write the invariant report JSON here"
    )

    return parser


def _command_ls(db: VisualCloud, args) -> None:
    videos = db.list_videos()
    if not videos:
        print("(no videos)")
        return
    for name in videos:
        try:
            meta = db.meta(name)
        except CatalogError as error:
            # A killed first ingest (or damaged metadata) must not hide
            # the healthy videos beside it.
            print(f"{name}  ({error}; run `repro fsck`)")
            continue
        print(
            f"{name}  v{meta.version}  {meta.duration:.1f}s  "
            f"{meta.width}x{meta.height}@{meta.fps:g}fps  "
            f"grid {meta.grid.rows}x{meta.grid.cols}  "
            f"ladder [{', '.join(quality.label for quality in meta.qualities)}]"
        )


def _command_ingest(db: VisualCloud, args) -> None:
    config = IngestConfig(
        grid=args.grid,
        qualities=args.qualities,
        gop_frames=args.gop_frames,
        fps=args.fps,
    )
    frames = synthetic_video(
        args.profile,
        width=args.width,
        height=args.height,
        fps=args.fps,
        duration=args.duration,
        seed=args.seed,
    )
    meta = db.ingest(args.name, frames, config, workers=args.workers)
    print(
        f"ingested {args.name!r}: {meta.gop_count} windows, "
        f"{db.storage.total_bytes(args.name)} bytes stored"
    )


def _command_info(db: VisualCloud, args) -> None:
    meta = db.meta(args.name, args.version)
    print(f"name        : {meta.name}")
    print(f"version     : {meta.version} (streaming={meta.streaming})")
    print(f"dimensions  : {meta.width}x{meta.height} @ {meta.fps:g} fps")
    print(f"projection  : {PROJECTION}")
    print(f"duration    : {meta.duration:.2f}s in {meta.gop_count} windows")
    print(f"grid        : {meta.grid.rows}x{meta.grid.cols} tiles")
    print(f"ladder      : {', '.join(quality.label for quality in meta.qualities)}")
    print(f"segments    : {len(meta.entries)}")
    print(f"stored bytes: {db.storage.total_bytes(args.name, args.version)}")


def _command_serve(db: VisualCloud, args) -> None:
    meta = db.meta(args.name)
    trace = ViewerPopulation(seed=args.viewer_seed).trace(
        0, duration=meta.duration, rate=10.0
    )
    config = SessionConfig(
        policy=POLICIES[args.policy](),
        bandwidth=ConstantBandwidth(args.bandwidth),
        predictor=args.predictor,
        evaluate_quality=args.probe,
    )
    if args.transport == "http":
        if args.probe:
            raise VisualCloudError("--probe needs decoded access; not available over http")
        if args.url is not None:
            report = db.serve(args.name, (trace, config), base_url=args.url)
        else:
            from repro.serve import start_server

            with start_server(db.storage) as handle:
                print(f"(loopback segment server at {handle.base_url})")
                report = db.serve(
                    args.name, (trace, config), base_url=handle.base_url
                )
    else:
        report = db.serve(args.name, (trace, config))
    for key, value in report.summary().items():
        print(f"{key:>19}: {value}")


def _command_export(db: VisualCloud, args) -> None:
    written = export_video(db.storage, args.name, args.output, quality=args.quality)
    print(f"wrote {written} bytes to {args.output}")


def _command_import(db: VisualCloud, args) -> None:
    meta = import_video(db.storage, args.name, args.input)
    print(f"imported {args.name!r}: {meta.gop_count} windows at v{meta.version}")


def _command_drop(db: VisualCloud, args) -> None:
    db.drop(args.name)
    print(f"dropped {args.name!r}")


def _command_vacuum(db: VisualCloud, args) -> None:
    files, freed = db.vacuum(args.name, keep_versions=args.keep)
    print(f"vacuumed {args.name!r}: removed {files} files, freed {freed} bytes")


def _command_metrics(db: VisualCloud, args) -> None:
    import json

    from repro.stream.estimator import HarmonicMeanEstimator
    from repro.stream.network import SimulatedLink

    if args.name is not None:
        meta = db.meta(args.name)
        population = ViewerPopulation(seed=args.viewer_seed)
        sessions = []
        for viewer in range(max(1, args.sessions)):
            trace = population.trace(viewer, duration=meta.duration, rate=10.0)
            config = SessionConfig(
                policy=PredictiveTilingPolicy(),
                bandwidth=ConstantBandwidth(args.bandwidth),
                estimator=HarmonicMeanEstimator(),
            )
            sessions.append((trace, config))
        link = SimulatedLink(ConstantBandwidth(args.bandwidth))
        db.serve(args.name, sessions, link=link)

    if args.export_format == "prom":
        rendered = db.metrics.to_prometheus()
    else:
        rendered = json.dumps(db.metrics.snapshot(), indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote metrics to {args.output}")
    else:
        print(rendered)


def _command_control(db: VisualCloud, args) -> int:
    """Operate a live server's control plane over its HTTP endpoints.

    With no action flags, prints ``GET /control``. Otherwise posts the
    node's slice as that reports it, the flagged fields replaced, as one
    plan at the active version + 1 — a concurrent controller's newer plan
    makes that a 409, not a silent rollback. (A full slice: see the help.)
    """
    import json

    from repro.control import ControlPlan, NodePlan, warm_slice
    from repro.serve.client import HttpSegmentClient

    with HttpSegmentClient(args.url) as client:
        state = client.fetch_control()
        if (args.max_inflight, args.pin_budget, args.prewarm) == (None, None, None):
            print(json.dumps(state, indent=2, sort_keys=True))
            return 0
        ceiling, budget, prewarm = state["max_inflight"], state["pin_budget_bytes"], ()
        if args.max_inflight is not None:
            ceiling = args.max_inflight or None  # 0 = unlimited
        if args.pin_budget is not None:
            budget = args.pin_budget
        if args.prewarm is not None:
            # The planner's ranking at demand 1.0, unfitted: the node fits
            # it to its budget over the segments it owns.
            prewarm = warm_slice({args.prewarm: client.fetch_manifest(args.prewarm)})
        plan = ControlPlan(
            version=int(state["version"]) + 1,
            nodes=(NodePlan(state["node_id"], ceiling, budget, prewarm),),
        )
        result = client.post_control(plan.to_json())
        print(
            f"v{result['version']}: max_inflight "
            f"{result['max_inflight'] or 'unlimited'}, pin budget "
            f"{result['pin_budget_bytes']} bytes, pinned {result['pinned']} "
            f"segments ({result['dropped']} dropped)"
        )
        print(json.dumps(client.fetch_control(), indent=2, sort_keys=True))
    return 0


def _command_chaos(db: VisualCloud, args) -> int:
    # The scenario ingests its own synthetic video into a throwaway
    # directory; the --root database is deliberately left untouched.
    from repro.chaos import Scenario, ScenarioRunner

    scenario = Scenario.load(Path(args.plan), seed=args.seed)
    report = ScenarioRunner(scenario).run()
    rendered = report.dumps()
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)
    failed = [check.name for check in report.checks if not check.ok]
    if failed:
        print(
            f"chaos: scenario {scenario.name!r} (seed {scenario.seed}) VIOLATED: "
            + ", ".join(failed),
            file=sys.stderr,
        )
        return 1
    print(
        f"chaos: scenario {scenario.name!r} (seed {scenario.seed}) ok — "
        f"{len(report.checks)} invariants held, "
        f"{len(report.events)} degradation events",
        file=sys.stderr,
    )
    return 0


def _command_fsck(db: VisualCloud, args) -> int:
    report = db.fsck(repair=args.repair)
    print(f"videos checked: {report['videos_checked']}")
    for key in (
        "adopted_versions",
        "rolled_back_versions",
        "dangling_markers",
        "dropped_videos",
        "orphan_tmp",
        "orphan_packs",
        "damaged_metadata",
    ):
        values = report.get(key, [])
        if values:
            print(f"{key.replace('_', ' ')}: {', '.join(str(v) for v in values)}")
    if report["clean"]:
        print("clean")
        return 0
    if report["damaged_metadata"]:
        # Rotted committed metadata is the one finding fsck cannot undo:
        # the version's index is lost unless a copy is restored.
        print("NOT CLEAN (damaged metadata: restore the file or drop the video)")
        return 1
    if args.repair:
        # Everything fsck reports under --repair it also fixed; the
        # catalog is consistent now even though the audit found debris.
        print("repaired")
        return 0
    print("NOT CLEAN (re-run with --repair to fix)")
    return 1


def _command_scrub(db: VisualCloud, args) -> int:
    report = db.scrub(video=args.name)
    corrupt = report["corrupt"]
    print(
        f"scrubbed {report['segments_checked']} segments: "
        f"{len(corrupt)} corrupt"
    )
    for item in corrupt:
        print(f"  corrupt: {item}")
    return 0 if not corrupt else 1


def _command_stats(db: VisualCloud, args) -> None:
    snapshot = db.stats()
    for name, info in snapshot["videos"].items():
        print(
            f"{name}: v{info['version']} ({info['versions']} versions), "
            f"{info['duration_s']}s, {info['bytes']} bytes, "
            f"{info['segments']} segments"
        )
    cache = snapshot["cache"]
    if cache is None:
        print("cache: disabled")
    else:
        hit_rate = cache["hit_rate"]
        rendered = "n/a" if hit_rate != hit_rate else f"{100 * hit_rate:.1f}%"
        print(
            f"cache: {cache['entries']} entries, {cache['bytes']}/{cache['capacity']} "
            f"bytes, hit rate {rendered}, {cache['evictions']} evictions"
        )


_COMMANDS = {
    "ls": _command_ls,
    "ingest": _command_ingest,
    "info": _command_info,
    "serve": _command_serve,
    "export": _command_export,
    "import": _command_import,
    "drop": _command_drop,
    "vacuum": _command_vacuum,
    "fsck": _command_fsck,
    "scrub": _command_scrub,
    "stats": _command_stats,
    "metrics": _command_metrics,
    "control": _command_control,
    "chaos": _command_chaos,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    db = VisualCloud(Path(args.root))
    try:
        result = _COMMANDS[args.command](db, args)
    except VisualCloudError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        # Config dataclasses (IngestConfig, ...) validate in __post_init__:
        # a bad option value is a usage error, like argparse's own exit 2.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. head);
        # that is the consumer's prerogative, not an error.
        return 0
    return int(result or 0)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
