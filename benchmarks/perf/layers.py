"""Per-layer numbers that are not read off a phase: tight timing loops
over one layer's public function, on inputs taken from the run's store.

The loops come in groups, one per layer or pair of layers, and a
workload runs only the groups its path reaches (README, "moves"); the
metrics of the others read 0 in its report. Every loop reports the best
of a few repeats — the sandbox's noise is one-sided, so the minimum is
the steadiest estimate of what the call costs. ``HOST_GROUPS`` run
inside the host (library calls), ``SOCKET_GROUPS`` in the driver.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import awake
import inputs
import sessions
import wire


def best(call, number: int = 1, repeats: int = 5) -> float:
    """Seconds per call: the fastest of ``repeats`` loops of ``number``."""
    fastest = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        for _ in range(number):
            call()
        fastest = min(fastest, (perf_counter() - started) / number)
    return fastest


# -- in the host ----------------------------------------------------------------


def host_side(host, name: str, frames: list, traces: list, groups: list[str]) -> dict:
    """The library-call loops of ``groups`` against the host's database.
    ``frames`` is one GOP of the raw clip behind stored video ``name``."""
    found: dict[str, float] = {}
    for group in groups:
        found.update(HOST_GROUPS[group](host, name, frames, traces))
    return found


def _video(host, name: str, gop: list, traces: list) -> dict:
    import numpy as np
    from repro.video.blocks import forward_dct, split_blocks
    from repro.video.codec import PlaneCodec
    from repro.video.tiles import TiledVideoCodec, make_encode_executor

    planes = [plane for frame in gop for plane in frame.planes]
    blocks = [split_blocks(plane.astype(np.float64) - 128.0) for plane in planes]
    dct = best(lambda: [forward_dct(stack) for stack in blocks], repeats=3)
    codec = PlaneCodec(np.full((8, 8), 16.0))  # a flat mid-ladder quantiser
    quantise = best(lambda: [codec.quantise(plane, None) for plane in planes], repeats=3)
    encode = best(lambda: [codec.encode(plane, None) for plane in planes], repeats=3)
    megabytes = sum(plane.nbytes for plane in planes) / 1e6

    tiled = TiledVideoCodec(inputs.GRID, gop[0].width, gop[0].height)
    ladders = {tile: inputs.QUALITIES for tile in inputs.GRID.tiles()}
    serial = best(lambda: tiled.encode_gop_ladders(gop, ladders, workers=1), repeats=1)
    workers = os.cpu_count() or 1
    pool = make_encode_executor(workers, len(ladders))
    try:
        # The first pass starts the workers; the second is the steady cost,
        # so serial minus parallel x workers is what shm + IPC cost.
        parallel = best(
            lambda: tiled.encode_gop_ladders(gop, ladders, workers=workers, executor=pool),
            repeats=2,
        )
    finally:
        if pool is not None:
            pool.shutdown()
    return {
        "video.blocks.dct_ms_per_gop": 1e3 * dct,
        "video.codec.quantise_ms_per_gop": 1e3 * quantise,
        # encode = quantise + entropy coding; the difference is the coder.
        "video.bitstream.entropy_encode_mb_s": megabytes / max(encode - quantise, 1e-9),
        "video.tiles.encode_gop_ms": 1e3 * serial,
        "video.tiles.encode_gop_parallel_ms": 1e3 * parallel,
    }


def _write(host, name: str, gop: list, traces: list) -> dict:
    """What the registry timed inside the run's own ingests and appends."""
    histograms = host.db.metrics.snapshot()["histograms"]
    total = histograms.get("storage.ingest.seconds", {}).get("sum", 0.0)
    encode = histograms.get("storage.ingest.encode.seconds", {}).get("sum", 0.0)
    written = host.db.metrics.counter("storage.bytes_written").total()
    return {
        "core.storage.ingest_encode_share": encode / total if total else 0.0,
        "core.storage.ingest_write_ms_per_gop": 1e3 * histograms.get(
            "storage.ingest.write.seconds", {}).get("mean", 0.0),
        "core.storage.bytes_written_per_raw_byte": written / (
            host.frames_written * inputs.RAW_BYTES_PER_FRAME),
    }


def _catalog(host, name: str, gop: list, traces: list) -> dict:
    """Version lookup rescans the video's directory: cost at 1 and at 25
    committed versions of a one-tile scratch video."""
    from repro import Quality

    storage = host.db.storage
    window = storage.read_window(name, 0, {(0, 0): Quality.HIGH})
    lookup = lambda: storage.catalog.latest_version("layers-versions")
    found, stored = {}, 0
    for versions in (1, 25):
        for _ in range(versions - stored):
            storage.store_windows("layers-versions", [window], inputs.FPS)
        stored = versions
        found[f"core.catalog.latest_version_us_v{versions}"] = 1e6 * best(lookup, number=200)
    return found


def _read(host, name: str, gop: list, traces: list) -> dict:
    from repro import Quality
    from repro.core.cache import LruSegmentCache
    from repro.core.storage import StorageManager, segment_checksum

    storage = host.db.storage
    tile, top = (0, 0), Quality.HIGH
    read = lambda: storage.read_segment(name, 0, tile, top)
    read()
    uncached = StorageManager(host.root, cache_bytes=0)
    payloads = [storage.read_segment(name, 0, each, quality)
                for each in inputs.GRID.tiles() for quality in inputs.QUALITIES]
    cache = LruSegmentCache(1 << 20)
    cache.put("key", payloads[0])
    return {
        "core.storage.read_segment_hit_us": 1e6 * best(read, number=500),
        "core.storage.read_segment_miss_us": 1e6 * best(
            lambda: uncached.read_segment(name, 0, tile, top), number=200),
        "core.storage.checksum_us_per_segment": 1e6 * best(
            lambda: [segment_checksum(payload) for payload in payloads], number=5) / len(payloads),
        "core.cache.get_or_load_hit_us": 1e6 * best(
            lambda: cache.get_or_load("key", bytes), number=2000),
    }


def _manifest(host, name: str, gop: list, traces: list) -> dict:
    return {"core.storage.build_manifest_ms": 1e3 * best(
        lambda: host.db.storage.build_manifest(name), number=5)}


def _hotset(host, name: str, gop: list, traces: list) -> dict:
    from repro import MetricsRegistry, Quality, ServerConfig, start_server
    from repro.core.storage import StorageManager
    from repro.serve.hotset import HotSet

    hot = HotSet(1 << 20, 1, MetricsRegistry())
    hot.pin("/segment/x/0/0/0/high", host.db.storage.read_segment(name, 0, (0, 0), Quality.HIGH))

    def start(**config) -> float:
        """Seconds to start (and then stop) one more server over the root."""
        started = perf_counter()
        handle = start_server(StorageManager(host.root), ServerConfig(**config))
        took = perf_counter() - started
        handle.stop()
        return took

    pins = dict(pin_budget_bytes=64 * 1024 * 1024, pin_threshold=1)
    return {
        "serve.hotset.lookup_us": 1e6 * best(
            lambda: hot.lookup("/segment/x/0/0/0/high"), number=5000),
        # What prewarming adds to a pinned server's start.
        "serve.hotset.prewarm_ms": 1e3 * (start(**pins, prewarm=(name,)) - start(**pins)),
    }


def _delivery(host, name: str, gop: list, traces: list) -> dict:
    from repro import Orientation, PredictiveTilingPolicy, Viewport
    from repro.predict.evaluate import tile_prediction_scores
    from repro.stream.abr import estimate_budget

    manifest = host.db.storage.build_manifest(name)
    grid, viewport = manifest.grid, Viewport()
    found = {}
    trace = traces[0]
    predicted = set()
    for kind, margin in (("deadreckoning", 1), ("markov", 0)):
        predictor = host.db.prediction.session_predictor(
            kind, video=name, grid=grid, trace=trace)
        predictor.reset()
        for time, theta, phi in zip(trace.times, trace.thetas, trace.phis):
            if time > 2.0:
                break
            predictor.observe(float(time), Orientation(float(theta), float(phi)))
        predict = lambda: predictor.predict_tiles(3.0, grid, viewport, margin)
        predicted = predict()
        found[f"predict.predict_tiles_us.{kind}"] = 1e6 * best(predict, number=50)
        # Horizon: one delivery window ahead, the lead a session decides at.
        scores = [
            tile_prediction_scores(
                host.db.prediction.session_predictor(kind, video=name, grid=grid, trace=each),
                each, grid, viewport, horizon=manifest.window_duration, margin=margin)
            for each in traces
        ]
        found[f"predict.recall.{kind}"] = statistics.fmean(s.recall for s in scores)
        found[f"predict.precision.{kind}"] = statistics.fmean(s.precision for s in scores)

    policy = PredictiveTilingPolicy()
    budget = estimate_budget(sessions.naive_rate(manifest), manifest.window_duration)
    found["stream.abr.assign_us"] = 1e6 * best(
        lambda: policy.assign(manifest, 0, predicted, budget), number=50)
    gaze = Orientation(1.0, 1.5)
    found["geometry.visible_tiles_us"] = 1e6 * best(
        lambda: viewport.visible_tiles(gaze, grid), number=50)
    return found


def _observability(host, name: str, gop: list, traces: list) -> dict:
    from repro import MetricsRegistry

    registry = MetricsRegistry()
    counter = registry.counter("layers.count").labels()
    histogram = registry.histogram("layers.seconds").labels()

    def span():
        with registry.span("layers.span"):
            pass

    return {
        "obs.metrics.inc_ns": 1e9 * best(counter.inc, number=20000),
        "obs.metrics.observe_ns": 1e9 * best(lambda: histogram.observe(0.001), number=20000),
        "obs.metrics.span_us": 1e6 * best(span, number=2000),
    }


HOST_GROUPS = {
    "video": _video,
    "write": _write,
    "catalog": _catalog,
    "read": _read,
    "manifest": _manifest,
    "hotset": _hotset,
    "delivery": _delivery,
    "obs": _observability,
}


# -- in the driver --------------------------------------------------------------


def measure(bench, name: str, frames: list, groups: tuple[str, ...],
            server: dict | None = None) -> None:
    """Run the loops of ``groups`` (``manifest`` has a half on each side
    of the pipe); the socket ones go to ``server``, the workload's own."""
    population = inputs.population(bench.seed)
    catalog = bench.host.call("catalog", name=name)
    traces = [population.trace(index, float(catalog["windows"])) for index in range(4)]
    found = bench.host.call(
        "layers", name=name, frames=frames[:inputs.GOP_FRAMES], traces=traces,
        groups=[group for group in groups if group in HOST_GROUPS])
    loops = [SOCKET_GROUPS[group] for group in groups if group in SOCKET_GROUPS]
    if loops:
        # One request at a time is the exchange awake.py exists for.
        with awake.keep_awake():
            for loop in loops:
                found.update(loop(bench, server, name, catalog["paths"][0]))
    for metric, value in found.items():
        bench.put(metric, value)


def _depth_one(address, path: str, number: int = 300) -> float:
    """Median seconds of one raw GET at a time on one connection."""
    connection = wire.Connection(address)
    try:
        wire.fetch(connection, [path])
        took = []
        for _ in range(number):
            started = perf_counter()
            response = wire.fetch(connection, [path])[0]
            took.append(perf_counter() - started)
            if response[0] != 200:
                raise RuntimeError(f"GET {path} answered {response[0]}")
        return statistics.median(took)
    finally:
        connection.close()


def _manifest_get(bench, server: dict, name: str, path: str) -> dict:
    return {"serve.server.manifest_ms": 1e3 * _depth_one(
        server["address"], f"/manifest/{name}", number=20)}


def _hop(bench, server: dict, name: str, path: str) -> dict:
    """One pool-resident segment, one request at a time: the workload's
    unpinned server crosses the executor, a pinned twin over the same
    root answers on the loop thread — the difference is the hop."""
    twin = bench.host.call("start_pinned_twin", name=name)
    try:
        hop = _depth_one(server["address"], path) - _depth_one(twin["address"], path)
    finally:
        bench.host.call("stop_pinned_twin")
    return {"serve.server.unpinned_minus_pinned_us": 1e6 * hop}


def _client(bench, server: dict, name: str, path: str) -> dict:
    from repro import HttpSegmentClient
    from repro.serve.failover import FailoverSegmentClient
    from repro.stream.dash import SegmentKey

    key = SegmentKey.from_path(path.split("/", 3)[3])

    def fetch_median(client) -> float:
        client.fetch_segment(name, key)
        took = []
        for _ in range(300):
            started = perf_counter()
            client.fetch_segment(name, key)
            took.append(perf_counter() - started)
        return statistics.median(took)

    raw = _depth_one(server["address"], path)
    with HttpSegmentClient(server["base_url"]) as client:
        single = fetch_median(client)
    with FailoverSegmentClient([server["base_url"]]) as client:
        failover = fetch_median(client)
    return {
        "serve.client.fetch_segment_us": 1e6 * single,
        "serve.client.overhead_us": 1e6 * (single - raw),
        "serve.failover.overhead_us": 1e6 * (failover - single),
    }


SOCKET_GROUPS = {"manifest": _manifest_get, "hop": _hop, "client": _client}
