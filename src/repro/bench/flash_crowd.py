"""Flash-crowd differential: ``python -m repro.bench.flash_crowd``.

The one measurement no other harness makes: the predictive control plane
off versus on under the same ~100x demand spike. A small Zipf catalog of
videos is served while background demand shifts onto one video
(throttled baseline → linear ramp → unthrottled peak), twice — once with
the control loop off and once with a live
:class:`~repro.control.Controller` forecasting demand and applying
pre-warm pins, pin-budget resizing, and admission ceilings to the
server's handle. Both arms run identical servers (cold hot set,
bounded ``max_inflight``); QoE sessions on the spiking video launch at
peak start.

The report's ``flash_crowd`` section carries per-arm peak p99, shed
counts, QoE degradations, the controller's plan trail, and an off-vs-on
comparison; ``invariants`` holds the anti-vacuity checks (both arms
served a peak, the controller stepped and applied a plan) and the
quality gate: segments pinned before the peak, and controller-on no
worse than off on QoE and — with a 25 % tolerance for shared-runner
noise — on effective peak p99. Everything else the delivery tier
promises is gated elsewhere: invariants by the tier-1 tests, faults by
``plans/*.json``, req/s and latency by ``benchmarks/perf``.

Writes ``BENCH_flash_crowd.json``. Run with ``--smoke`` in CI for a
seconds-long pass.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import random
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from repro.bench.harness import emit_table
from repro.control import ControlConfig, Controller, NodeState, Planner
from repro.control.controller import INTERVAL
from repro.core.storage import IngestConfig, StorageManager
from repro.core.streamer import SessionConfig
from repro.geometry.grid import TileGrid
from repro.obs import MetricsRegistry
from repro.serve.client import serve_session
from repro.serve.server import ServerConfig, start_server
from repro.stream.abr import PredictiveTilingPolicy
from repro.stream.estimator import HarmonicMeanEstimator
from repro.stream.network import ConstantBandwidth
from repro.video.quality import Quality
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video


@dataclass(frozen=True)
class _Profile:
    """Every knob of one run. There are exactly two: the full run and
    the seconds-long CI pass (``--smoke``)."""

    bandwidth: float = 200_000.0  # bytes/second per QoE session
    video: str = "venice"
    width: int = 128
    height: int = 64
    fps: float = 10.0
    duration: float = 4.0
    grid: str = "2x4"
    gop_frames: int = 10
    seed: int = 0
    pin_budget: int = 64 * 1024 * 1024  # bytes the controller may grow the hot set into
    catalog: int = 3  # videos in the Zipf catalog; >= 2, the spike needs a background
    flash_sessions: int = 4  # QoE sessions launched on the spiking video at peak start
    flash_connections: int = 32  # background-load connections
    flash_baseline: float = 2.0  # seconds of throttled whole-catalog load before the ramp
    flash_ramp: float = 2.0  # seconds over which demand shifts onto the spike video
    flash_peak: float = 4.0  # seconds of unthrottled spike-video load
    flash_inflight: int = 8  # both arms' starting admission ceiling (max_inflight)


_FULL = _Profile()
_SMOKE = replace(
    _FULL,
    width=64,
    height=32,
    duration=2.0,
    grid="2x2",
    gop_frames=5,
    catalog=2,
    flash_sessions=2,
    flash_connections=16,
    flash_baseline=1.0,
    flash_ramp=1.5,
    flash_peak=2.5,
)


def _session_config(bandwidth: float) -> SessionConfig:
    return SessionConfig(
        policy=PredictiveTilingPolicy(),
        bandwidth=ConstantBandwidth(bandwidth),
        estimator=HarmonicMeanEstimator(),
    )


def _catalog_zipf_paths(
    storage: StorageManager, names: list[str], seed: int, count: int = 2048
) -> list[str]:
    """A Zipf-skewed request mix over every segment of ``names``.

    Viewport-adaptive delivery concentrates on a small equatorial hot
    set; rank-1/r^1.1 over a seeded shuffle reproduces that shape
    deterministically.
    """
    rng = random.Random(seed)
    entries: list[str] = []
    for name in names:
        manifest = storage.build_manifest(name)
        keys = sorted(manifest.segment_sizes, key=lambda key: key.to_path())
        entries.extend(key.url(name) for key in keys)
    rng.shuffle(entries)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(entries))]
    return rng.choices(entries, weights=weights, k=count)


async def _drive_flash(
    host: str,
    port: int,
    baseline_paths: list[str],
    spike_paths: list[str],
    *,
    baseline_seconds: float,
    ramp_seconds: float,
    peak_seconds: float,
    connections: int,
    base_interval: float,
    seed: int,
) -> dict:
    """The spiking background load: every connection serves the Zipf
    catalog at a throttled baseline rate, shifts linearly onto the spike
    video while shedding its throttle through the ramp, then hammers the
    spike video unthrottled through the peak (~100x the baseline rate).

    Latencies are bucketed per phase; 503/429 shed responses are counted
    separately from errors (admission control working as designed is not
    a failure — it is exactly what the controller is supposed to relax).
    Each phase reports two distributions: ``served`` over 200 responses
    only, and ``effective`` — the client-perceived one — where every
    shed is charged its ``Retry-After`` backoff on top of the response
    time. Comparing arms on ``served`` alone is survivorship bias: a
    tier that sheds most of the crowd posts excellent latencies for the
    lucky few.
    """
    loop = asyncio.get_running_loop()
    started = loop.time()
    ramp_start = started + baseline_seconds
    peak_start = ramp_start + ramp_seconds
    end = peak_start + peak_seconds
    phases: dict[str, list[float]] = {"baseline": [], "ramp": [], "peak": []}
    effective: dict[str, list[float]] = {"baseline": [], "ramp": [], "peak": []}
    counts = {"requests": 0, "shed": 0, "errors": 0, "reconnects": 0}

    async def worker(index: int) -> None:
        rng = random.Random(seed * 9973 + index)
        reader = writer = None

        async def connect():
            nonlocal reader, writer
            reader, writer = await asyncio.open_connection(host, port)

        async def close():
            if writer is None:
                return
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

        try:
            await connect()
        except OSError:
            counts["errors"] += 1
            return
        try:
            while True:
                now = loop.time()
                if now >= end:
                    break
                if now < ramp_start:
                    phase, pool, delay = "baseline", baseline_paths, base_interval
                elif now < peak_start:
                    fraction = (now - ramp_start) / ramp_seconds
                    phase = "ramp"
                    pool = spike_paths if rng.random() < fraction else baseline_paths
                    delay = base_interval * (1.0 - fraction)
                else:
                    phase, pool, delay = "peak", spike_paths, 0.0
                path = rng.choice(pool)
                request = f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")
                sent = loop.time()
                try:
                    writer.write(request)
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = 0
                    for line in head.split(b"\r\n")[1:]:
                        if line[:15].lower() == b"content-length:":
                            length = int(line[15:])
                    if length:
                        await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
                    counts["reconnects"] += 1
                    await close()
                    try:
                        await connect()
                    except OSError:
                        counts["errors"] += 1
                        return
                    continue
                finish = loop.time()
                counts["requests"] += 1
                if head.startswith(b"HTTP/1.1 200"):
                    phases[phase].append(finish - sent)
                    effective[phase].append(finish - sent)
                elif head.startswith((b"HTTP/1.1 503", b"HTTP/1.1 429")):
                    counts["shed"] += 1
                    retry_after = 0.5
                    for line in head.split(b"\r\n")[1:]:
                        if line[:12].lower() == b"retry-after:":
                            retry_after = float(line[12:])
                    effective[phase].append(finish - sent + retry_after)
                else:
                    counts["errors"] += 1
                if b"Connection: close" in head:
                    counts["reconnects"] += 1
                    await close()
                    try:
                        await connect()
                    except OSError:
                        counts["errors"] += 1
                        return
                if delay:
                    await asyncio.sleep(delay)
        finally:
            await close()

    await asyncio.gather(*(worker(index) for index in range(connections)))

    def stats(latencies: list[float]) -> dict:
        latencies = sorted(latencies)

        def quantile(q: float) -> float:
            if not latencies:
                return math.nan
            return latencies[
                min(len(latencies) - 1, max(0, round(q * (len(latencies) - 1))))
            ]

        return {
            "requests": len(latencies),
            "p50_ms": quantile(0.5) * 1e3,
            "p90_ms": quantile(0.9) * 1e3,
            "p99_ms": quantile(0.99) * 1e3,
        }

    return {
        **counts,
        "phases": {
            name: {
                **stats(phases[name]),
                "effective": stats(effective[name]),
            }
            for name in phases
        },
    }


def control_config(profile: _Profile) -> ControlConfig:
    """The ``on`` arm's control loop: a three-interval lookahead, and a
    video warms at one predicted request per interval."""
    return ControlConfig(horizon=3.0, planner=Planner(prewarm_threshold=1.0))


def _run_flash_arm(
    storage: StorageManager,
    names: list[str],
    spike_name: str,
    traces: list,
    profile: _Profile,
    controller_on: bool,
) -> dict:
    """One arm of the flash-crowd comparison. Both arms get an identical
    server — cold hot set (budget 0), bounded admission — and identical
    load; only the ``on`` arm runs the control loop."""
    server_config = ServerConfig(
        max_inflight=profile.flash_inflight,
        pin_budget_bytes=0,
        drain_timeout=2.0,
    )
    registry = MetricsRegistry()
    handle = start_server(storage, server_config, registry=registry)
    controller = None
    if controller_on:
        controller = Controller(
            control_config(profile),
            registry=registry,
            storage=storage,
            nodes=(
                NodeState(
                    node_id=server_config.node_id,
                    pin_budget_bytes=profile.pin_budget,
                    max_inflight=server_config.max_inflight,
                ),
            ),
            servers=(handle,),
        )
    try:
        host, port = handle.address
        baseline_paths = _catalog_zipf_paths(storage, names, profile.seed)
        spike_paths = _catalog_zipf_paths(storage, [spike_name], profile.seed, count=1024)
        if controller is not None:
            controller.start()

        driver_result: dict = {}

        def run_driver() -> None:
            driver_result.update(
                asyncio.run(
                    _drive_flash(
                        host,
                        port,
                        baseline_paths,
                        spike_paths,
                        baseline_seconds=profile.flash_baseline,
                        ramp_seconds=profile.flash_ramp,
                        peak_seconds=profile.flash_peak,
                        connections=profile.flash_connections,
                        base_interval=0.05,
                        seed=profile.seed,
                    )
                )
            )

        driver = threading.Thread(target=run_driver, name="flash-driver")
        driver.start()
        # QoE sessions on the spiking video launch exactly at peak start,
        # so they contend with the worst of the crowd.
        time.sleep(profile.flash_baseline + profile.flash_ramp)
        pre_peak_state = handle.control_state()

        def drive_session(viewer: int) -> dict:
            session_registry = MetricsRegistry()
            try:
                report = serve_session(
                    [handle.base_url],
                    spike_name,
                    traces[viewer],
                    _session_config(profile.bandwidth),
                    registry=session_registry,
                )
            except Exception as error:  # noqa: BLE001 — counted, not fatal
                return {"error": f"{type(error).__name__}: {error}"}
            return {
                "error": "",
                "windows": len(report.records),
                "degradations": report.degradation_count,
                "skips": sum(
                    1
                    for record in report.records
                    for event in record.events
                    if event.kind == "skip"
                ),
            }

        with ThreadPoolExecutor(max_workers=len(traces)) as pool:
            session_results = list(pool.map(drive_session, range(len(traces))))
        driver.join()
        final_state = handle.control_state()
    finally:
        if controller is not None:
            controller.stop()
        handle.stop()

    arm = {
        "controller": controller_on,
        "load": driver_result,
        "qoe": {
            "sessions": len(session_results),
            "completed": sum(1 for r in session_results if not r["error"]),
            "errors": sum(1 for r in session_results if r["error"]),
            "degradations": sum(r.get("degradations", 0) for r in session_results),
            "skips": sum(r.get("skips", 0) for r in session_results),
        },
        "server": {
            "shed": registry.counter("serve.shed").total(),
            "pin_hits": registry.counter("serve.pin_hits").total(),
            "pre_peak_state": pre_peak_state,
            "final_state": final_state,
        },
    }
    if controller_on:
        arm["control"] = {
            "steps": registry.counter("control.steps").total(),
            "plans_applied": registry.counter("control.plans_applied").total(),
            "plans_noop": registry.counter("control.plans_noop").total(),
            "actuate_errors": registry.counter("control.actuate_errors").total(),
            "final_plan_version": final_state["version"],
        }
    return arm


def _run_flash_crowd(root: Path, frames: list, grid: TileGrid, profile: _Profile) -> dict:
    """The controller-on/off differential: one Zipf catalog, one ~100x
    spike, two identical runs apart from the control loop."""
    storage = StorageManager(root)
    names = [f"vid-{index}" for index in range(profile.catalog)]
    for name in names:
        storage.ingest(
            name,
            iter(frames),
            IngestConfig(
                grid=grid,
                qualities=(Quality.HIGH, Quality.LOW),
                gop_frames=profile.gop_frames,
                fps=profile.fps,
            ),
        )
    spike_name = names[0]
    meta = storage.meta(spike_name)
    population = ViewerPopulation(seed=profile.seed + 17)
    traces = [
        population.trace(viewer, duration=meta.duration, rate=10.0)
        for viewer in range(profile.flash_sessions)
    ]
    off = _run_flash_arm(storage, names, spike_name, traces, profile, controller_on=False)
    on = _run_flash_arm(storage, names, spike_name, traces, profile, controller_on=True)
    # The headline p99 is the *effective* (client-perceived) one: sheds
    # are charged their Retry-After backoff, so an arm cannot buy a good
    # tail by refusing the crowd.
    off_p99 = off["load"]["phases"]["peak"]["effective"]["p99_ms"]
    on_p99 = on["load"]["phases"]["peak"]["effective"]["p99_ms"]
    comparison = {
        "peak_p99_ms_off": off_p99,
        "peak_p99_ms_on": on_p99,
        "peak_p99_improvement_ms": off_p99 - on_p99,
        "peak_served_p99_ms_off": off["load"]["phases"]["peak"]["p99_ms"],
        "peak_served_p99_ms_on": on["load"]["phases"]["peak"]["p99_ms"],
        # An errored session (every request shed, client gave up) counts
        # as one degradation-equivalent: under a hard overload the off
        # arm can complete zero sessions, and "no completed sessions" is
        # worse than any degradation count, not better.
        "qoe_degradations_off": off["qoe"]["degradations"]
        + off["qoe"]["skips"]
        + off["qoe"]["errors"],
        "qoe_degradations_on": on["qoe"]["degradations"]
        + on["qoe"]["skips"]
        + on["qoe"]["errors"],
        "shed_off": off["server"]["shed"],
        "shed_on": on["server"]["shed"],
        "controller_wins_p99": bool(on_p99 <= off_p99)
        if math.isfinite(on_p99) and math.isfinite(off_p99)
        else False,
        "controller_wins_qoe": (
            on["qoe"]["degradations"] + on["qoe"]["skips"] + on["qoe"]["errors"]
        )
        <= (
            off["qoe"]["degradations"]
            + off["qoe"]["skips"]
            + off["qoe"]["errors"]
        ),
    }
    return {
        "params": {
            "catalog": profile.catalog,
            "spike_video": spike_name,
            "flash_sessions": profile.flash_sessions,
            "flash_connections": profile.flash_connections,
            "baseline_seconds": profile.flash_baseline,
            "ramp_seconds": profile.flash_ramp,
            "peak_seconds": profile.flash_peak,
            "max_inflight": profile.flash_inflight,
            "pin_budget_bytes": profile.pin_budget,
            "control_interval": INTERVAL,
        },
        "off": off,
        "on": on,
        "comparison": comparison,
    }


def _check_flash_invariants(flash: dict) -> list[str]:
    """Anti-vacuity, then the on-vs-off quality gate."""
    violations: list[str] = []
    for arm_name in ("off", "on"):
        arm = flash[arm_name]
        if arm["load"]["phases"]["peak"]["requests"] == 0:
            violations.append(
                f"flash-crowd {arm_name} arm served zero peak requests"
            )
        if arm["qoe"]["completed"] == 0 and arm["qoe"]["errors"] == 0:
            violations.append(
                f"flash-crowd {arm_name} arm ran zero QoE sessions"
            )
    on = flash["on"]
    # The off arm may legitimately complete nothing under a hard
    # overload (every request shed) — that IS the finding. The on arm
    # completing nothing means the controller failed at its one job.
    if on["qoe"]["completed"] == 0:
        violations.append(
            "flash-crowd controller-on arm completed zero QoE sessions"
        )
    if on["control"]["steps"] == 0:
        violations.append("flash-crowd controller never stepped")
    if on["control"]["plans_applied"] == 0:
        violations.append("flash-crowd controller never applied a plan")
    if on["server"]["pre_peak_state"]["pinned_entries"] <= 0:
        violations.append(
            "flash-crowd controller pinned none of the spiking video's "
            "segments before the peak"
        )
    # Gate with slack: shared runners jitter, so the controller must not
    # LOSE by more than 25% on client-perceived peak p99 — locally it
    # wins by ~50x (shed requests eat Retry-After).
    comparison = flash["comparison"]
    off_p99, on_p99 = comparison["peak_p99_ms_off"], comparison["peak_p99_ms_on"]
    if on_p99 > off_p99 * 1.25:
        violations.append(
            f"flash-crowd controller-on regressed effective peak p99: "
            f"{on_p99:.2f} ms vs {off_p99:.2f} ms off"
        )
    if comparison["qoe_degradations_on"] > comparison["qoe_degradations_off"]:
        violations.append(
            f"flash-crowd controller-on regressed QoE: "
            f"{comparison['qoe_degradations_on']} degradations vs "
            f"{comparison['qoe_degradations_off']} off"
        )
    return violations


def run(profile: _Profile, output: Path) -> dict:
    grid = TileGrid(*(int(part) for part in profile.grid.split("x")))
    frames = list(
        synthetic_video(
            profile.video,
            width=profile.width,
            height=profile.height,
            fps=profile.fps,
            duration=profile.duration,
            seed=profile.seed,
        )
    )
    with tempfile.TemporaryDirectory(prefix="bench-flash-") as root:
        flash = _run_flash_crowd(Path(root), frames, grid, profile)
    violations = _check_flash_invariants(flash)

    report = {
        "params": {
            "bandwidth": profile.bandwidth,
            "profile": profile.video,
            "width": profile.width,
            "height": profile.height,
            "fps": profile.fps,
            "duration": profile.duration,
            "grid": profile.grid,
            "gop_frames": profile.gop_frames,
            "seed": profile.seed,
            "cpu_count": os.cpu_count(),
        },
        "invariants": {
            "violations": violations,
            "violation_count": len(violations),
            "ok": not violations,
        },
        "flash_crowd": flash,
    }

    comparison = flash["comparison"]
    emit_table(
        "flash crowd (controller off vs on)",
        [
            {
                "arm": "off" if not arm["controller"] else "on",
                "eff p99 ms": (
                    f"{arm['load']['phases']['peak']['effective']['p99_ms']:.2f}"
                ),
                "served p99 ms": f"{arm['load']['phases']['peak']['p99_ms']:.2f}",
                "peak reqs": arm["load"]["phases"]["peak"]["requests"],
                "shed": f"{arm['server']['shed']:.0f}",
                "qoe degr": arm["qoe"]["degradations"] + arm["qoe"]["skips"],
                "pins@peak": arm["server"]["pre_peak_state"]["pinned_entries"],
                "plans": f"{arm.get('control', {}).get('plans_applied', 0):.0f}",
            }
            for arm in (flash["off"], flash["on"])
        ],
    )
    print(
        "flash crowd: controller "
        + ("WINS" if comparison["controller_wins_p99"] else "LOSES")
        + f" p99 ({comparison['peak_p99_ms_off']:.2f} -> "
        f"{comparison['peak_p99_ms_on']:.2f} ms), "
        + ("WINS" if comparison["controller_wins_qoe"] else "LOSES")
        + f" QoE ({comparison['qoe_degradations_off']} -> "
        f"{comparison['qoe_degradations_on']} degradations)"
    )
    for violation in violations:
        print(f"INVARIANT VIOLATED: {violation}", file=sys.stderr)

    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_flash_crowd.json")
    parser.add_argument("--smoke", action="store_true", help="seconds-long pass for CI")
    args = parser.parse_args(argv)
    report = run(_SMOKE if args.smoke else _FULL, Path(args.output))
    return 0 if report["invariants"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
