"""Wire delivery load harness: ``python -m repro.bench.serve``.

Two phases over one freshly ingested store:

**QoE phase** — drives N *concurrent* wire sessions (the full ABR +
predictor + resilient-assembly loop, every segment over a real localhost
socket) and checks the delivery invariants:

1. **Chaos invariants, no-fault edition** — with a healthy store the
   wire must deliver flawlessly: every session covers every window,
   zero degradation events, zero skipped tiles. Any violation fails the
   run (exit 1), mirroring the scenario runner's verdicts.
2. **Sim/wire equivalence** — each session's QoE summary must equal a
   simulated-path run of the same trace and config (the differential
   acceptance criterion), since playback timing follows the same
   bandwidth model on both paths.

**Load phase** — the saturating driver: hundreds of lightweight
keep-alive connections issue pipelined GETs over a Zipf-skewed segment
popularity distribution (the request shape viewport-adaptive tiled
delivery actually sees), with a warmup period excluded and a fixed
measurement window, in three server modes — single process unpinned,
single process with the RAM hot set pinned, and ``processes=N`` workers
sharing the port via SO_REUSEPORT. Each mode reports requests/s and
client-observed p50/p90/p99 (measured send-to-last-byte per pipelined
batch, so the quantiles are conservative), plus the server's own merged
``/metrics`` view as a cross-check.

``--replicas N`` serves the same store from N servers and streams every
session through the failover client; ``--kill-after T`` hard-stops
replica 0 mid-run (requires ``--replicas >= 2``). In that mode the bench
measures failover QoE instead of sim-equivalence (and skips the load
phase): every session must still complete every window with zero escaped
errors, and the report gains a ``failover`` section (failovers, retries,
degradations, budget spend) so the cost of the outage is visible, not
just survived.

``--shards N`` (with ``--replication-factor R``) runs the *sharded*
tier instead: the ingested store is partitioned across N per-node roots
by the consistent-hash shard map (every node holds all metadata but only
its owned segment files — see :mod:`repro.serve.placement`), sessions
stream through the shard-aware failover client, and non-owned requests
exercise the server-side peer-fetch tier. A deterministic *peer probe*
(one non-owned segment fetched directly from a non-owner, byte-compared
against storage) runs before the sessions so the report always proves
the fabric works. Without ``--kill-after`` the sharded QoE must still
bit-match the simulated path — the differential acceptance criterion
extended to shard routing; with it, node-0 dies mid-run and every
session must still complete. The report gains a ``shards`` section with
the peer-fetch and shard-routing counters.

``--controller`` adds the **flash-crowd phase**: a small Zipf catalog of
videos is served while background demand spikes ~100× onto one video
(throttled baseline → linear ramp → unthrottled peak), twice — once with
the predictive control plane off and once with a live
:class:`~repro.control.Controller` forecasting demand and actuating
pre-warm pins, pin-budget resizing, and admission ceilings through the
``/control`` plane. Both arms run identical servers (cold hot set,
bounded ``max_inflight``); QoE sessions on the spiking video launch at
peak start. The report's ``flash_crowd`` section carries per-arm peak
p99, shed counts, QoE degradations, the controller's plan trail, and an
off-vs-on comparison — the CI gate fails when controller-on regresses
either p99 or QoE.

Writes ``BENCH_serve.json``. Run with ``--smoke`` in CI for a
seconds-long pass with 4 sessions and a 1-second measurement window.
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
from pathlib import Path

from repro.bench.harness import emit_table, format_bytes
from repro.core.predictor import PredictionService
from repro.core.storage import IngestConfig, StorageManager, segment_checksum
from repro.core.streamer import SessionConfig, Streamer
from repro.geometry.grid import TileGrid
from repro.obs import MetricsRegistry
from repro.serve.client import HttpSegmentClient, serve_session
from repro.serve.server import ServerConfig, start_server
from repro.stream.abr import PredictiveTilingPolicy
from repro.stream.estimator import HarmonicMeanEstimator
from repro.stream.network import ConstantBandwidth
from repro.video.quality import Quality
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video


def _session_config(bandwidth: float) -> SessionConfig:
    return SessionConfig(
        policy=PredictiveTilingPolicy(),
        bandwidth=ConstantBandwidth(bandwidth),
        predictor="static",
        estimator=HarmonicMeanEstimator(),
    )


def _summary_key(report) -> str:
    """A comparable rendering of a QoE summary (NaN-stable via JSON)."""
    return json.dumps(report.summary(), sort_keys=True)


def _check_invariants(
    results: list[dict],
    window_count: int,
    require_sim_match: bool = True,
    require_no_degradation: bool = True,
) -> list[str]:
    """The wire invariants; returns violation descriptions.

    A kill-mid-run failover bench relaxes exactly two of them: sessions
    may degrade (bounded, reported) and their QoE need not bit-match the
    simulated path — but they must still complete every window with no
    escaped error.
    """
    violations: list[str] = []
    for result in results:
        session = result["session"]
        if result.get("error"):
            violations.append(f"session {session} raised: {result['error']}")
            continue
        if result["windows"] != window_count:
            violations.append(
                f"session {session} covered {result['windows']}/{window_count} windows"
            )
        if require_no_degradation and (result["degradations"] or result["skips"]):
            violations.append(
                f"session {session} degraded on a healthy store "
                f"({result['degradations']} degradations, {result['skips']} skips)"
            )
        if require_sim_match and not result["matches_sim"]:
            violations.append(
                f"session {session} wire QoE diverged from the simulated path"
            )
    return violations


def _sessions_summary(results: list[dict], window_count: int) -> dict:
    """The aggregate view that replaced the per-session array: diffable
    at thousands of sessions, and everything the validators check."""
    return {
        "sessions": len(results),
        "completed": sum(1 for r in results if not r.get("error")),
        "errors": sum(1 for r in results if r.get("error")),
        "windows_ok": sum(
            1 for r in results if r.get("windows") == window_count
        ),
        "degradations": sum(r.get("degradations", 0) for r in results),
        "skips": sum(r.get("skips", 0) for r in results),
        "bytes": sum(r.get("bytes", 0) for r in results),
        "matches_sim": sum(1 for r in results if r.get("matches_sim")),
    }


def _bench_checksum_cost(storage, manifest) -> dict:
    """Verify-cost honesty: every wire response in this report was
    checksum-stamped and every storage read checksum-verified; this
    measures what that per-segment hash actually costs, best-of-5 over
    the bench catalog's real payloads."""
    keys = sorted(manifest.segment_sizes, key=lambda key: key.to_path())
    payloads = [
        storage.read_segment("bench", key.window, key.tile, key.quality)
        for key in keys
    ]
    total = sum(len(payload) for payload in payloads)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for payload in payloads:
            segment_checksum(payload)
        best = min(best, time.perf_counter() - start)
    return {
        "segments": len(payloads),
        "bytes": total,
        "verify_seconds": best,
        "verify_microseconds_per_segment": (
            1e6 * best / len(payloads) if payloads else 0.0
        ),
        "verify_mb_per_second": total / best / 1e6 if best > 0 else 0.0,
    }


def _peer_probe(storage, manifest, shard_map, node_ids, node_urls) -> dict:
    """One deterministic peer fetch: the first segment (path order)
    requested from a node that does *not* own it, byte-compared against
    the authoritative store.

    This is the fabric's proof-of-life, independent of whether the
    session traffic happens to route any request off its owners — the CI
    gate asserts on the resulting ``serve.peer_fetches >= 1``.
    """
    keys = sorted(manifest.segment_sizes, key=lambda key: key.to_path())
    for key in keys:
        owners = shard_map.owners("bench", key)
        outsiders = [node for node in node_ids if node not in owners]
        if not outsiders:
            continue  # replication_factor == shards: everyone owns everything
        node = outsiders[0]
        with HttpSegmentClient(node_urls[node]) as client:
            data = client.fetch_segment("bench", key)
        expected = storage.read_segment("bench", key.window, key.tile, key.quality)
        return {
            "node": node,
            "segment": key.to_path(),
            "owners": list(owners),
            "byte_identical": data == expected,
        }
    return {"skipped": "every node owns every segment"}


# -- the saturating load driver -----------------------------------------------


def _zipf_paths(manifest, name: str, seed: int, count: int = 4096) -> list[str]:
    """A Zipf-skewed request sequence over the stored segments.

    Viewport-adaptive delivery concentrates on a small equatorial hot
    set; rank-1/r^1.1 over a seeded shuffle reproduces that shape
    deterministically.
    """
    keys = sorted(manifest.segment_sizes, key=lambda key: key.to_path())
    rng = random.Random(seed)
    rng.shuffle(keys)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(keys))]
    paths = [f"/segment/{name}/{key.to_path()}" for key in keys]
    return rng.choices(paths, weights=weights, k=count)


async def _drive_load(
    host: str,
    port: int,
    paths: list[str],
    connections: int,
    warmup: float,
    measure: float,
    pipeline: int,
) -> dict:
    """Open-loop-style saturation: ``connections`` keep-alive sockets,
    each issuing ``pipeline`` back-to-back GETs per round, for a fixed
    wall-clock window with warmup excluded.

    Latency is measured batch-send to response-complete, so with
    ``pipeline > 1`` every quantile *includes* in-batch queueing — the
    conservative direction for the p99 acceptance bound.
    """
    requests = [
        f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")
        for path in paths
    ]
    loop = asyncio.get_running_loop()
    started = loop.time()
    warm_end = started + warmup
    end = warm_end + measure
    latencies: list[float] = []
    counts = {"requests": 0, "warmup": 0, "tail": 0, "errors": 0, "bytes": 0}
    total = len(requests)

    async def worker(offset: int) -> None:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            counts["errors"] += 1
            return
        index = offset
        try:
            while loop.time() < end:
                payload = b"".join(
                    requests[(index + step) % total] for step in range(pipeline)
                )
                sent = loop.time()
                writer.write(payload)
                await writer.drain()
                for _ in range(pipeline):
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = 0
                    for line in head.split(b"\r\n")[1:]:
                        if line[:15].lower() == b"content-length:":
                            length = int(line[15:])
                    if length:
                        await reader.readexactly(length)
                    finish = loop.time()
                    if not head.startswith(b"HTTP/1.1 200"):
                        counts["errors"] += 1
                    elif finish < warm_end:
                        counts["warmup"] += 1
                    elif finish > end:
                        counts["tail"] += 1
                    else:
                        counts["requests"] += 1
                        counts["bytes"] += length
                        latencies.append(finish - sent)
                index += pipeline
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
            counts["errors"] += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # Spread each connection's start offset so the fleet doesn't sweep
    # the path list in lockstep.
    await asyncio.gather(*(worker(index * 37) for index in range(connections)))

    latencies.sort()

    def quantile(q: float) -> float:
        if not latencies:
            return math.nan
        return latencies[min(len(latencies) - 1, max(0, round(q * (len(latencies) - 1))))]

    return {
        **counts,
        "seconds": measure,
        "requests_per_second": counts["requests"] / measure if measure else 0.0,
        "bytes_per_second": counts["bytes"] / measure if measure else 0.0,
        "latency_ms": {
            "mean": (sum(latencies) / len(latencies)) * 1e3 if latencies else math.nan,
            "p50": quantile(0.5) * 1e3,
            "p90": quantile(0.9) * 1e3,
            "p99": quantile(0.99) * 1e3,
            "max": latencies[-1] * 1e3 if latencies else math.nan,
        },
    }


def _load_modes(args) -> list[tuple[str, ServerConfig]]:
    base = dict(
        read_workers=args.read_workers,
        queue_depth=args.queue_depth,
        drain_timeout=2.0,
    )
    pinned = dict(
        pin_budget_bytes=args.pin_budget,
        pin_threshold=1,
        prewarm=("bench",),
    )
    return [
        ("1proc", ServerConfig(**base)),
        ("1proc-pinned", ServerConfig(**base, **pinned)),
        (
            f"{args.processes}proc-pinned",
            ServerConfig(**base, **pinned, processes=args.processes),
        ),
    ]


def _run_load_phase(storage: StorageManager, args) -> list[dict]:
    manifest = storage.build_manifest("bench")
    paths = _zipf_paths(manifest, "bench", args.seed)
    modes: list[dict] = []
    for name, config in _load_modes(args):
        registry = MetricsRegistry() if config.processes == 1 else None
        handle = start_server(storage, config, registry=registry)
        try:
            host, port = handle.address
            stats = asyncio.run(
                _drive_load(
                    host,
                    port,
                    paths,
                    args.connections,
                    args.warmup,
                    args.measure_seconds,
                    args.pipeline,
                )
            )
            with HttpSegmentClient(handle.base_url) as probe:
                snapshot = probe.fetch_metrics()
        finally:
            handle.stop()
        counters = snapshot.get("counters", {})
        modes.append(
            {
                "mode": name,
                "processes": config.processes,
                "pinned": config.pin_budget_bytes > 0,
                **stats,
                "server": {
                    "workers": snapshot.get("workers", 1),
                    "requests_total": sum(
                        value
                        for key, value in counters.items()
                        if key.startswith("serve.requests")
                    ),
                    "pin_hits": counters.get("serve.pin_hits", 0.0),
                },
            }
        )
    return modes


def _check_load_invariants(modes: list[dict]) -> list[str]:
    violations: list[str] = []
    for mode in modes:
        if mode["requests"] == 0:
            violations.append(f"load mode {mode['mode']} completed zero requests")
            continue
        if mode["errors"] > 0.01 * mode["requests"]:
            violations.append(
                f"load mode {mode['mode']} had {mode['errors']} errors over "
                f"{mode['requests']} requests"
            )
    return violations


# -- the flash-crowd phase (predictive control plane on vs off) ----------------


def _catalog_zipf_paths(
    storage: StorageManager, names: list[str], seed: int, count: int = 2048
) -> list[str]:
    """Zipf-skewed request mix over every video in the catalog."""
    rng = random.Random(seed)
    entries: list[str] = []
    for name in names:
        manifest = storage.build_manifest(name)
        keys = sorted(manifest.segment_sizes, key=lambda key: key.to_path())
        entries.extend(f"/segment/{name}/{key.to_path()}" for key in keys)
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


def _run_flash_arm(
    storage: StorageManager,
    names: list[str],
    spike_name: str,
    traces: list,
    args,
    controller_on: bool,
) -> dict:
    """One arm of the flash-crowd comparison. Both arms get an identical
    server — cold hot set (budget 0), bounded admission — and identical
    load; only the ``on`` arm runs the control loop."""
    from repro.control import (
        ClusterConfig,
        ControlConfig,
        Controller,
        HandleActuator,
        NodeState,
        catalog_from_storage,
    )

    cluster = ClusterConfig(
        server=ServerConfig(
            read_workers=args.read_workers,
            queue_depth=args.queue_depth,
            max_inflight=args.flash_inflight,
            pin_budget_bytes=0,
            drain_timeout=2.0,
        ),
        control=ControlConfig(
            enabled=controller_on,
            interval=args.control_interval,
            horizon=3.0,
            prewarm_threshold=1.0,
            min_inflight=4,
            inflight_ceiling=max(64, 8 * args.flash_inflight),
            fallback_inflight=args.flash_inflight,
        ),
    )
    registry = MetricsRegistry()
    handle = start_server(storage, cluster.server, registry=registry)
    controller = None
    control_metrics = MetricsRegistry()
    if controller_on:
        controller = Controller(
            cluster.control,
            metrics_source=registry.snapshot,
            catalog_source=lambda: catalog_from_storage(storage),
            nodes_source=lambda: (
                NodeState(
                    node_id=cluster.server.node_id,
                    pin_budget_bytes=args.pin_budget,
                    max_inflight=cluster.server.max_inflight,
                ),
            ),
            actuators=(HandleActuator(handle),),
            registry=control_metrics,
        )
    try:
        host, port = handle.address
        baseline_paths = _catalog_zipf_paths(storage, names, args.seed)
        spike_paths = _zipf_paths(
            storage.build_manifest(spike_name), spike_name, args.seed, count=1024
        )
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
                        baseline_seconds=args.flash_baseline,
                        ramp_seconds=args.flash_ramp,
                        peak_seconds=args.flash_peak,
                        connections=args.flash_connections,
                        base_interval=0.05,
                        seed=args.seed,
                    )
                )
            )

        driver = threading.Thread(target=run_driver, name="flash-driver")
        driver.start()
        # QoE sessions on the spiking video launch exactly at peak start,
        # so they contend with the worst of the crowd.
        time.sleep(args.flash_baseline + args.flash_ramp)
        pre_peak_state = handle.control_state()

        def drive_session(viewer: int) -> dict:
            session_registry = MetricsRegistry()
            try:
                report = serve_session(
                    [handle.base_url],
                    spike_name,
                    traces[viewer],
                    _session_config(args.bandwidth),
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
            "steps": control_metrics.counter("control.steps").total(),
            "plans_applied": control_metrics.counter("control.plans_applied").total(),
            "plans_noop": control_metrics.counter("control.plans_noop").total(),
            "actuate_errors": control_metrics.counter(
                "control.actuate_errors"
            ).total(),
            "final_plan_version": final_state["version"],
        }
    return arm


def _run_flash_crowd(root: Path, frames: list, grid: TileGrid, args) -> dict:
    """The controller-on/off differential: one Zipf catalog, one ~100x
    spike, two identical runs apart from the control loop."""
    storage = StorageManager(root)
    names = [f"vid-{index}" for index in range(args.catalog)]
    for name in names:
        storage.ingest(
            name,
            iter(frames),
            IngestConfig(
                grid=grid,
                qualities=(Quality.HIGH, Quality.LOW),
                gop_frames=args.gop_frames,
                fps=args.fps,
            ),
        )
    spike_name = names[0]
    meta = storage.meta(spike_name)
    population = ViewerPopulation(seed=args.seed + 17)
    traces = [
        population.trace(viewer, duration=meta.duration, rate=10.0)
        for viewer in range(args.flash_sessions)
    ]
    off = _run_flash_arm(storage, names, spike_name, traces, args, controller_on=False)
    on = _run_flash_arm(storage, names, spike_name, traces, args, controller_on=True)
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
            "catalog": args.catalog,
            "spike_video": spike_name,
            "flash_sessions": args.flash_sessions,
            "flash_connections": args.flash_connections,
            "baseline_seconds": args.flash_baseline,
            "ramp_seconds": args.flash_ramp,
            "peak_seconds": args.flash_peak,
            "max_inflight": args.flash_inflight,
            "pin_budget_bytes": args.pin_budget,
            "control_interval": args.control_interval,
        },
        "off": off,
        "on": on,
        "comparison": comparison,
    }


def _check_flash_invariants(flash: dict | None) -> list[str]:
    """Anti-vacuity only: the on-vs-off quality gate lives in CI, where
    a tolerance keeps shared-runner noise from flaking the bench."""
    if flash is None:
        return []
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
    return violations


def run(args: argparse.Namespace) -> dict:
    grid = TileGrid(*(int(part) for part in args.grid.lower().split("x")))
    frames = list(
        synthetic_video(
            args.profile,
            width=args.width,
            height=args.height,
            fps=args.fps,
            duration=args.duration,
            seed=args.seed,
        )
    )
    population = ViewerPopulation(seed=args.seed)

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as root:
        storage = StorageManager(root)
        meta = storage.ingest(
            "bench",
            iter(frames),
            IngestConfig(
                grid=grid,
                qualities=(Quality.HIGH, Quality.LOW),
                gop_frames=args.gop_frames,
                fps=args.fps,
            ),
        )
        manifest = storage.build_manifest("bench")
        checksum_cost = _bench_checksum_cost(storage, manifest)

        # Simulated-path references, one per viewer: the differential
        # baseline the wire sessions must reproduce exactly.
        traces = [
            population.trace(viewer, duration=meta.duration, rate=10.0)
            for viewer in range(args.sessions)
        ]
        sim_registry = MetricsRegistry()
        sim_streamer = Streamer(
            storage, PredictionService(registry=sim_registry), registry=sim_registry
        )
        sim_keys = [
            _summary_key(
                sim_streamer.serve("bench", trace, _session_config(args.bandwidth))
            )
            for trace in traces
        ]

        shard_mode = args.shards > 1
        failover_mode = args.replicas > 1 or args.kill_after is not None or shard_mode
        serve_registry = MetricsRegistry()  # shared: /metrics is tier-wide
        shard_map = None
        node_urls: dict[str, str] | None = None
        shards_report: dict | None = None
        if shard_mode:
            from repro.serve.placement import ShardMap, materialize_shards

            node_ids = [f"node-{index}" for index in range(args.shards)]
            shard_map = ShardMap(
                nodes=tuple(node_ids), replication_factor=args.replication_factor
            )
            node_roots = {
                node: Path(root) / "shards" / node for node in node_ids
            }
            placed = materialize_shards(storage, node_roots, shard_map)
            handles = [
                start_server(
                    StorageManager(node_roots[node], registry=serve_registry),
                    ServerConfig(
                        read_workers=args.read_workers,
                        queue_depth=args.queue_depth,
                        node_id=node,
                        shard_map=shard_map,
                        peer_timeout=2.0,
                    ),
                    registry=serve_registry,
                )
                for node in node_ids
            ]
            # Two-phase wiring: ports are ephemeral, so the node → URL
            # table exists only after every server is up.
            node_urls = {
                node_ids[index]: handles[index].base_url
                for index in range(args.shards)
            }
            for handle in handles:
                handle.update_shard_map(shard_map, node_urls)
            shards_report = {
                "shards": args.shards,
                "replication_factor": args.replication_factor,
                "map_version": shard_map.version,
                "segments_per_node": placed,
                "probe": _peer_probe(
                    storage, manifest, shard_map, node_ids, node_urls
                ),
            }
        else:
            handles = [
                start_server(
                    storage,
                    ServerConfig(
                        read_workers=args.read_workers, queue_depth=args.queue_depth
                    ),
                    registry=serve_registry,
                )
                for _ in range(args.replicas)
            ]
        killer: threading.Timer | None = None
        try:
            base_urls = [handle.base_url for handle in handles]
            target = base_urls if failover_mode else base_urls[0]
            session_registries = [MetricsRegistry() for _ in range(args.sessions)]

            def drive(viewer: int) -> dict:
                registry = session_registries[viewer]
                try:
                    report = serve_session(
                        target,
                        "bench",
                        traces[viewer],
                        _session_config(args.bandwidth),
                        registry=registry,
                        shard_map=shard_map,
                        node_urls=node_urls,
                    )
                except Exception as error:  # a died session is a violation, not a crash
                    return {"session": viewer, "error": f"{type(error).__name__}: {error}"}
                return {
                    "session": viewer,
                    "error": "",
                    "windows": len(report.records),
                    "degradations": report.degradation_count,
                    "skips": sum(
                        1
                        for record in report.records
                        for event in record.events
                        if event.kind == "skip"
                    ),
                    "bytes": sum(record.bytes_sent for record in report.records),
                    "matches_sim": _summary_key(report) == sim_keys[viewer],
                }

            if args.kill_after is not None:

                def kill_first_replica() -> None:
                    try:
                        handles[0].stop()
                    except Exception:  # noqa: BLE001 — a racing clean stop is fine
                        pass

                killer = threading.Timer(args.kill_after, kill_first_replica)
                killer.daemon = True
                killer.start()

            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=args.sessions) as pool:
                results = list(pool.map(drive, range(args.sessions)))
            wall_seconds = time.perf_counter() - started

            with HttpSegmentClient(handles[-1].base_url) as probe:
                metrics = probe.fetch_metrics()
        finally:
            if killer is not None:
                killer.cancel()
            for handle in handles:
                try:
                    handle.stop()
                except Exception:  # noqa: BLE001 — already killed mid-run
                    pass

        # Saturating load phase: single-server raw-speed modes. Skipped
        # in failover mode, which measures outage QoE instead.
        load_modes = [] if (failover_mode or args.skip_load) else _run_load_phase(
            storage, args
        )

        # Flash-crowd phase: the predictive control plane's differential.
        flash = (
            _run_flash_crowd(Path(root) / "flash", frames, grid, args)
            if args.controller
            else None
        )

    violations = _check_invariants(
        results,
        manifest.window_count,
        # A healthy sharded tier must still bit-match the simulated path
        # (the shard-routing differential); only replica spreading and
        # mid-run kills relax the equivalence.
        require_sim_match=(not failover_mode)
        or (shard_mode and args.replicas == 1 and args.kill_after is None),
        require_no_degradation=args.kill_after is None,
    )
    violations.extend(_check_load_invariants(load_modes))
    violations.extend(_check_flash_invariants(flash))
    metrics.pop("spans", None)  # per-request debug detail, not a bench artifact
    counters = metrics["counters"]
    histograms = metrics["histograms"]
    segment_latency = histograms.get("serve.request_seconds{endpoint=segment}", {})
    requests_total = sum(
        value
        for key, value in counters.items()
        if key.startswith("serve.requests")
    )
    bytes_sent = counters.get("serve.bytes_sent", 0.0)
    ok_sessions = sum(1 for result in results if not result.get("error"))
    peak = max(
        (mode["requests_per_second"] for mode in load_modes),
        default=requests_total / wall_seconds if wall_seconds else 0.0,
    )

    report = {
        "params": {
            "sessions": args.sessions,
            "bandwidth": args.bandwidth,
            "profile": args.profile,
            "width": args.width,
            "height": args.height,
            "fps": args.fps,
            "duration": args.duration,
            "grid": args.grid,
            "gop_frames": args.gop_frames,
            "seed": args.seed,
            "read_workers": args.read_workers,
            "queue_depth": args.queue_depth,
            "replicas": args.replicas,
            "kill_after": args.kill_after,
            "shards": args.shards,
            "replication_factor": args.replication_factor,
            "cpu_count": os.cpu_count(),
            "processes": args.processes,
            "pin_budget_bytes": args.pin_budget,
            "connections": args.connections,
            "warmup_seconds": args.warmup,
            "measure_seconds": args.measure_seconds,
            "pipeline": args.pipeline,
            # Every wire response above carried an X-Checksum and every
            # storage read was verified; the "checksum" section prices it.
            "checksums": True,
        },
        "checksum": checksum_cost,
        "wall_seconds": wall_seconds,
        "sessions_completed": ok_sessions,
        "sessions_per_second": ok_sessions / wall_seconds if wall_seconds else 0.0,
        "requests_total": requests_total,
        "requests_per_second": peak,
        "qoe_requests_per_second": requests_total / wall_seconds if wall_seconds else 0.0,
        "bytes_sent": bytes_sent,
        "bytes_per_second": bytes_sent / wall_seconds if wall_seconds else 0.0,
        "segment_latency_seconds": segment_latency,
        "invariants": {
            "violations": violations[:50],
            "violation_count": len(violations),
            "ok": not violations,
        },
        "sessions_summary": _sessions_summary(results, manifest.window_count),
        "load": {"modes": load_modes},
        "metrics": metrics,
    }
    if flash is not None:
        report["flash_crowd"] = flash
    if shard_mode:
        assert shards_report is not None
        shards_report.update(
            {
                "peer_fetches": serve_registry.counter("serve.peer_fetches").total(),
                "peer_bytes": serve_registry.counter("serve.peer_bytes").total(),
                "peer_cache_hits": serve_registry.counter(
                    "serve.peer_cache_hits"
                ).total(),
                "peer_errors": serve_registry.counter("serve.peer_errors").total(),
                "peer_fallback_local": serve_registry.counter(
                    "serve.peer_fallback_local"
                ).total(),
                "shard_routed": sum(
                    registry.counter("failover.shard_routed").total()
                    for registry in session_registries
                ),
                "shard_unroutable": sum(
                    registry.counter("failover.shard_unroutable").total()
                    for registry in session_registries
                ),
            }
        )
        report["shards"] = shards_report
    if failover_mode:

        def across_sessions(name: str) -> float:
            return sum(
                registry.counter(name).total() for registry in session_registries
            )

        report["failover"] = {
            "requests": across_sessions("failover.requests"),
            "failovers": across_sessions("failover.failovers"),
            "hedges": across_sessions("failover.hedges"),
            "budget_exhausted": across_sessions("failover.budget_exhausted"),
            "stream_retries": across_sessions("stream.retries"),
            "degradations": sum(
                result.get("degradations", 0) for result in results
            ),
            "skips": sum(result.get("skips", 0) for result in results),
        }

    def fmt_quantile(name: str) -> str:
        value = segment_latency.get(name, math.nan)
        return f"{value * 1e3:.2f}" if isinstance(value, float) else "n/a"

    emit_table(
        "wire delivery (QoE phase)",
        [
            {
                "sessions": args.sessions,
                "completed": ok_sessions,
                "wall s": f"{wall_seconds:.2f}",
                "req/s": f"{report['qoe_requests_per_second']:.0f}",
                "sent": format_bytes(bytes_sent),
                "p50 ms": fmt_quantile("p50"),
                "p90 ms": fmt_quantile("p90"),
                "p99 ms": fmt_quantile("p99"),
                "violations": len(violations),
            }
        ],
    )
    print(
        f"checksum verify: {checksum_cost['verify_microseconds_per_segment']:.1f} "
        f"µs/segment ({checksum_cost['verify_mb_per_second']:.0f} MB/s over "
        f"{checksum_cost['segments']} segments)"
    )
    if load_modes:
        emit_table(
            "saturating load",
            [
                {
                    "mode": mode["mode"],
                    "req/s": f"{mode['requests_per_second']:.0f}",
                    "p50 ms": f"{mode['latency_ms']['p50']:.2f}",
                    "p90 ms": f"{mode['latency_ms']['p90']:.2f}",
                    "p99 ms": f"{mode['latency_ms']['p99']:.2f}",
                    "errors": mode["errors"],
                    "workers": mode["server"]["workers"],
                    "pin hits": f"{mode['server']['pin_hits']:.0f}",
                }
                for mode in load_modes
            ],
        )
    if shard_mode:
        shards = report["shards"]
        emit_table(
            "sharded delivery",
            [
                {
                    "nodes": shards["shards"],
                    "rf": shards["replication_factor"],
                    "peer fetches": f"{shards['peer_fetches']:.0f}",
                    "peer hits": f"{shards['peer_cache_hits']:.0f}",
                    "peer errs": f"{shards['peer_errors']:.0f}",
                    "routed": f"{shards['shard_routed']:.0f}",
                    "probe": "ok"
                    if shards["probe"].get("byte_identical")
                    else shards["probe"].get("skipped", "FAILED"),
                }
            ],
        )
    if flash is not None:
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
    if failover_mode:
        failover = report["failover"]
        emit_table(
            "failover",
            [
                {
                    "replicas": args.replicas,
                    "kill s": "-" if args.kill_after is None else f"{args.kill_after:g}",
                    "failovers": f"{failover['failovers']:.0f}",
                    "retries": f"{failover['stream_retries']:.0f}",
                    "degraded": f"{failover['degradations']:.0f}",
                    "skips": f"{failover['skips']:.0f}",
                    "budget dry": f"{failover['budget_exhausted']:.0f}",
                }
            ],
        )
    for violation in violations:
        print(f"INVARIANT VIOLATED: {violation}", file=sys.stderr)

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=32)
    parser.add_argument("--bandwidth", type=float, default=200_000.0, help="bytes/second")
    parser.add_argument("--profile", default="venice")
    parser.add_argument("--width", type=int, default=128)
    parser.add_argument("--height", type=int, default=64)
    parser.add_argument("--fps", type=float, default=10.0)
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--grid", default="2x4")
    parser.add_argument("--gop-frames", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--read-workers", type=int, default=8)
    parser.add_argument("--queue-depth", type=int, default=32)
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="serve the store from N replicas through the failover client",
    )
    parser.add_argument(
        "--kill-after",
        type=float,
        default=None,
        help="hard-stop replica (or shard node) 0 this many seconds into the run",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition the store across N consistent-hash shard nodes",
    )
    parser.add_argument(
        "--replication-factor",
        type=int,
        default=2,
        help="owners per segment in the shard map (--shards mode)",
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=128,
        help="concurrent keep-alive sockets in the saturating load phase",
    )
    parser.add_argument(
        "--pipeline",
        type=int,
        default=4,
        help="back-to-back GETs per connection round (HTTP/1.1 pipelining)",
    )
    parser.add_argument(
        "--warmup",
        type=float,
        default=1.0,
        help="seconds of load excluded from the measurement window",
    )
    parser.add_argument(
        "--measure-seconds",
        type=float,
        default=5.0,
        help="fixed measurement window per load mode",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=max(2, min(4, os.cpu_count() or 1)),
        help="worker processes for the multi-process load mode",
    )
    parser.add_argument(
        "--pin-budget",
        type=int,
        default=64 * 1024 * 1024,
        help="hot-set pin budget (bytes) for the pinned load modes",
    )
    parser.add_argument(
        "--skip-load",
        action="store_true",
        help="run only the QoE phase (the pre-saturation bench shape)",
    )
    parser.add_argument(
        "--controller",
        action="store_true",
        help="run the flash-crowd phase: predictive control plane on vs off",
    )
    parser.add_argument(
        "--catalog",
        type=int,
        default=3,
        help="videos in the flash-crowd Zipf catalog",
    )
    parser.add_argument(
        "--flash-sessions",
        type=int,
        default=4,
        help="QoE sessions launched on the spiking video at peak start",
    )
    parser.add_argument(
        "--flash-connections",
        type=int,
        default=32,
        help="background-load connections in the flash-crowd phase",
    )
    parser.add_argument(
        "--flash-baseline",
        type=float,
        default=2.0,
        help="seconds of throttled whole-catalog load before the ramp",
    )
    parser.add_argument(
        "--flash-ramp",
        type=float,
        default=2.0,
        help="seconds over which demand shifts onto the spike video",
    )
    parser.add_argument(
        "--flash-peak",
        type=float,
        default=4.0,
        help="seconds of unthrottled spike-video load",
    )
    parser.add_argument(
        "--flash-inflight",
        type=int,
        default=8,
        help="both arms' starting admission ceiling (max_inflight)",
    )
    parser.add_argument(
        "--control-interval",
        type=float,
        default=0.3,
        help="controller step cadence in seconds (must exceed the "
        "server's /metrics render TTL of 0.25s)",
    )
    parser.add_argument("--output", default="BENCH_serve.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long 4-session pass for CI",
    )
    args = parser.parse_args(argv)
    if args.replicas < 1:
        parser.error("--replicas must be >= 1")
    if args.shards < 0 or args.shards == 1:
        parser.error("--shards must be 0 (off) or >= 2")
    if args.shards:
        if args.replicas > 1:
            parser.error("--shards and --replicas are mutually exclusive tiers")
        if not 1 <= args.replication_factor <= args.shards:
            parser.error("--replication-factor must be in [1, --shards]")
        if args.kill_after is not None and args.replication_factor < 2:
            parser.error(
                "--kill-after with --shards needs --replication-factor >= 2 "
                "(a surviving owner must remain for every segment)"
            )
    elif args.kill_after is not None and args.replicas < 2:
        parser.error("--kill-after needs --replicas >= 2 (a survivor must remain)")
    if args.connections < 1:
        parser.error("--connections must be >= 1")
    if args.pipeline < 1:
        parser.error("--pipeline must be >= 1")
    if args.processes < 2:
        parser.error("--processes must be >= 2 (it names the multi-process mode)")
    if args.controller:
        if args.shards or args.replicas > 1 or args.kill_after is not None:
            parser.error(
                "--controller benches a single node; it composes with "
                "neither --shards, --replicas, nor --kill-after"
            )
        if args.catalog < 2:
            parser.error("--catalog must be >= 2 (the spike needs a background)")
        if args.control_interval <= 0.25:
            parser.error(
                "--control-interval must exceed the server's 0.25s "
                "/metrics render TTL or the controller reads stale counters"
            )
    if args.smoke:
        args.sessions = min(args.sessions, 4)
        args.width, args.height = 64, 32
        args.duration = min(args.duration, 2.0)
        args.grid = "2x2"
        args.gop_frames = 5
        args.connections = min(args.connections, 32)
        args.warmup = min(args.warmup, 0.3)
        args.measure_seconds = min(args.measure_seconds, 1.0)
        args.catalog = min(args.catalog, 2)
        args.flash_sessions = min(args.flash_sessions, 2)
        args.flash_connections = min(args.flash_connections, 16)
        args.flash_baseline = min(args.flash_baseline, 1.0)
        args.flash_ramp = min(args.flash_ramp, 1.5)
        args.flash_peak = min(args.flash_peak, 2.5)
    report = run(args)
    return 0 if report["invariants"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
