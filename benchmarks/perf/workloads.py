"""The four workloads. Later issues refer to them by these names.

Each ``Bench`` run is: set-up (timed only as ``setup_s``), a warm-up
that is discarded, then the measured phases, whose lengths add up to
``--seconds``. A traced run measures every phase twice at half length —
first untraced, then with benchmark-side spans — and then runs the
timing loops of ``layers.py``, so per-layer numbers and the tracing
overhead come out of one invocation.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
from time import perf_counter

import awake
import inputs
import sessions
import spans as spans_module
import stats
import wire

TILES = inputs.GRID.rows * inputs.GRID.cols
CONNECTIONS = min(2, os.cpu_count() or 1)  # never more sockets than cores
PIPELINE_DEPTH = 8
PACED_RATE = 200.0  # requests/s offered in the open-loop phase
COLD_POOL_BYTES = 32 * 1024  # about a third of the common store
HOT_POOL_BYTES = 8 * 1024 * 1024  # the program's default buffer pool
WARMUP_SECONDS = 1.5
SMOKE_SECONDS = 1.5  # --smoke: the whole measured time of a pass
ROUND_SECONDS = 1.0  # serve_*: how long a phase runs before the next takes its turn
ARCHIVE_SHARE = 0.4  # ingest_live: archive ingests' share of the time; appends get the rest
NOMINAL_WRITE_SECONDS = 1.7  # ingest_live: a 20-frame ingest, or a 10-frame append beside a reader
SETUP_BUDGET_SECONDS = 9.0  # set-ups are repeated only while they fit in this


class Bench:
    """State of one run: the host, the clocks' results, the gate counts."""

    def __init__(self, host, args, out_dir) -> None:
        self.host = host
        self.seed = args.seed
        self.seconds = SMOKE_SECONDS if args.smoke else args.seconds
        self.trace = args.trace
        self.workload = args.workload
        self.out_dir = out_dir
        self.setups = 1 if args.smoke or args.trace else 6
        # Held-out viewers the savings numbers are taken over: a fixed
        # set, so the seed alone decides them, not the speed of the box.
        self.viewers = 3 if args.smoke else 48
        self.spans = spans_module.OFF
        self.values: dict[str, dict] = {}
        self.sizes: dict = {}
        self.notes: list[str] = []
        self.span_self_times: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, **extra) -> None:
        self.values[name] = {"value": float(value), **extra}

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} of {attempted} {what} failed")

    def gate(self, ok: bool, what: str) -> None:
        """One correctness check, counted as an operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"gate failed: {what}")

    def set_up(self, once) -> None:
        """Run ``once()`` (one complete set-up) up to ``self.setups`` times
        and report the median as ``setup_s``. About ten seconds of set-ups
        make a steady median (runs that sampled 10 s differed by 7 %, runs
        that sampled 4 s by 20 %). The repeats stop when another would not
        fit in ``SETUP_BUDGET_SECONDS``: on a slow stretch of the box one
        set-up can take four times its usual time, and the driver's budget
        for all its runs does not stretch with it."""
        took: list[float] = []
        while len(took) < self.setups and sum(took) + max(took, default=0.0) <= SETUP_BUDGET_SECONDS:
            started = perf_counter()
            once()
            took.append(perf_counter() - started)
        self.put("setup_s", statistics.median(took), runs=len(took))
        self.sizes["setups"] = len(took)

    def passes(self):
        """``(label, share of --seconds)`` per measuring pass. A traced
        run splits the time between an untraced and a traced pass."""
        if not self.trace:
            return [("plain", 1.0)]
        return [("plain", 0.5), ("traced", 0.5)]

    def tracing(self, on: bool) -> None:
        self.spans = spans_module.Spans("driver") if on else spans_module.OFF
        self.host.spans = self.spans  # host spans hang under the calling span
        self.host.call("trace", on=on)

    def finish_trace(self, started: float, ended: float, plain: float, traced: float) -> None:
        """Write the span file and report what tracing cost: the relative
        loss of the workload's main rate between the two passes."""
        rows = self.spans.rows + self.host.call("take_spans")
        spans_module.write_jsonl(self.out_dir / f"trace-{self.workload}.jsonl", rows)
        self.put("trace_overhead_pct", 100.0 * (plain - traced) / plain if plain else 0.0)
        self.put("trace_top_level_coverage",
                 spans_module.top_level_coverage(rows, started, ended), spans=len(rows))
        self.span_self_times = spans_module.self_times(rows)
        self.tracing(False)


# -- shared pieces --------------------------------------------------------------


def wait_ready(address) -> None:
    connection = wire.Connection(address)
    try:
        status, _, _ = wire.fetch(connection, ["/healthz"])[0]
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
    finally:
        connection.close()


def stored_ratio(writes: list[dict]) -> float:
    """Bytes stored per raw (luma + chroma) byte ingested."""
    raw = sum(write["frames"] for write in writes) * inputs.RAW_BYTES_PER_FRAME
    return sum(write["stored_bytes"] for write in writes) / raw


def put_savings(bench: Bench, rows: list[dict]) -> None:
    """The paper's number over headline-arm sessions, and its raw cousin."""
    headline = [row for row in rows if row["arm"] == "headline"]
    naive = sum(row["naive_bytes"] for row in headline)
    bench.put("matched_saved_pct",
              100.0 * sum(row["credit_bytes"] for row in headline) / naive,
              sessions=len(headline), windows=sum(row["windows"] for row in headline))
    sent = sum(row["bytes"] for row in headline)
    bench.put("stream.abr.saved_pct", 100.0 * (1.0 - sent / naive))
    bench.put("stream.abr.out_of_view_byte_share",
              sum(row["out_of_view_bytes"] for row in headline) / sent)
    bench.put("stream.qoe.visible_at_best",
              statistics.fmean(row["visible_at_best"] for row in headline))
    bench.put("stall_s", sum(row["stall_s"] for row in headline))
    for arm in ("markov", "oracle"):
        rows_of = [row for row in rows if row["arm"] == arm]
        if rows_of:
            saved = 1.0 - sum(r["bytes"] for r in rows_of) / sum(r["naive_bytes"] for r in rows_of)
            bench.put(f"stream.abr.saved_pct.{arm}", 100.0 * saved)


def check_sessions(bench: Bench, rows: list[dict], windows: int) -> None:
    """Every session covers every window, nothing degraded or retried,
    and matched savings never exceed raw savings."""
    bad = [
        row for row in rows
        if row["windows"] != windows or row["degraded"] or row["retries"]
        or row["credit_bytes"] > row["naive_bytes"] - row["bytes"]
        or (row["arm"] == "naive" and row["bytes"] != row["naive_bytes"])
        or (row["arm"] == "oracle" and row["visible_at_best"] != 1.0)
    ]
    bench.ops(len(rows), len(bad), "sessions")


def compare_bodies(bench: Bench, kept: list[tuple[str, bytes]]) -> None:
    """The sampled 1 % of wire bodies, byte-compared with what
    ``StorageManager.read_segment`` returns in the host."""
    if not kept:
        return
    truth = bench.host.call("read_segments", paths=[path for path, _ in kept])
    wrong = sum(1 for (_, body), expected in zip(kept, truth) if body != expected)
    bench.ops(len(kept), wrong, "sampled bodies vs read_segment")


def counter_delta(before: dict, after: dict, name: str, labels: str = "") -> float:
    """Growth of counter ``name`` summed over its series (those whose
    rendered label set starts with ``labels``, when given)."""
    def total(snapshot):
        return sum(value for series, value in snapshot.get("counters", {}).items()
                   if series == name or series.startswith(f"{name}{{{labels}"))
    return total(after) - total(before)


# -- serve_hot / serve_cold -----------------------------------------------------


def serve(bench: Bench, hot: bool) -> None:
    from repro import HttpSegmentClient

    frames = inputs.clip("venice", inputs.STORE_SECONDS, bench.seed)
    population = inputs.population(bench.seed)
    config = (
        dict(pin_budget_bytes=64 * 1024 * 1024, pin_threshold=1, prewarm=("venice",))
        if hot else {}
    )
    pool = HOT_POOL_BYTES if hot else COLD_POOL_BYTES

    writes, servers = [], []

    def set_up() -> None:
        bench.host.call("new_db")
        writes.append(bench.host.call("ingest", name="venice", frames=frames))
        servers.append(bench.host.call("start_server", cache_bytes=pool, config=config))
        wait_ready(servers[-1]["address"])

    bench.set_up(set_up)
    server = servers[-1]
    bench.ops(len(writes), 0, "ingests")
    bench.put("stored_bytes_per_raw_byte", stored_ratio(writes[-1:]))

    catalog = bench.host.call("catalog", name="venice")
    order = inputs.request_order(catalog["paths"], bench.seed, zipf=hot)
    wire.closed_loop(server["address"], order, CONNECTIONS, PIPELINE_DEPTH, WARMUP_SECONDS,
                     spans_module.OFF)

    bench.sizes.update(store_segments=len(catalog["paths"]), pool_bytes=pool,
                       connections=CONNECTIONS, depth=PIPELINE_DEPTH, paced_rate=PACED_RATE)
    traces = viewer_traces(population, bench.viewers, inputs.STORE_SECONDS)
    with HttpSegmentClient(server["base_url"]) as client:
        manifest = client.fetch_manifest("venice")
    # Most of these phases are request/response exchanges with one side
    # asleep; see awake.py for what that measures on an idle vCPU.
    with awake.keep_awake():
        serve_passes(bench, server, order, traces, manifest)

    bench.put("peak_rss_mb", bench.host.call("observe")["peak_rss_mb"])
    if bench.trace:
        import layers

        # The loops over the layers this path reaches (README, "moves").
        reached = ("hotset", "obs") if hot else ("read", "catalog", "hop")
        layers.measure(bench, "venice", frames, (*reached, "manifest", "client"), server)


def serve_passes(bench: Bench, server: dict, order: list[str], traces: list, manifest) -> None:
    """The measured passes of ``serve_hot`` / ``serve_cold``: saturate,
    paced and wire phases."""
    from repro import MetricsRegistry

    address = server["address"]
    rates = {}
    for label, share in bench.passes():
        bench.tracing(label == "traced")
        # The phases take turns, a second at a time, so each one samples
        # the whole pass: a slow stretch of the box then costs every
        # phase a few slices instead of costing one phase all of them.
        rounds = max(1, round(bench.seconds * share / (3 * ROUND_SECONDS)))
        turn = bench.seconds * share / (3 * rounds)
        load, paced = wire.LoadResult(), wire.LoadResult()
        rows, registry = [], MetricsRegistry()
        cpu_s = 0.0
        before = bench.host.call("observe")
        pass_started = perf_counter()
        for _ in range(rounds):
            busy = bench.host.call("cpu_seconds")
            with bench.spans.span("phase.saturate"):
                wire.closed_loop(address, order, CONNECTIONS, PIPELINE_DEPTH, turn,
                                 bench.spans, into=load)
            cpu_s += bench.host.call("cpu_seconds") - busy
            with bench.spans.span("phase.paced"):
                wire.open_loop(address, order, CONNECTIONS, PACED_RATE, turn,
                               bench.spans, into=paced)
            with bench.spans.span("phase.wire"):
                rows += wire_sessions(bench, server["base_url"], manifest, traces,
                                      len(rows), turn, registry)
        pass_ended = perf_counter()
        after = bench.host.call("observe")
        rps = stats.burst_rate([done for done, _ in load.samples])
        rates[label] = rps["value"]
        if label == "traced":
            bench.finish_trace(pass_started, pass_ended, rates["plain"], rates["traced"])
            continue

        bench.ops(load.attempted, load.failed, "saturate GETs")
        compare_bodies(bench, load.kept)
        bench.put("rps", **rps, requests=len(load.samples))
        # Server-side counts cover the whole pass (every phase is GETs
        # over the same keys); CPU time is the saturate turns' alone.
        served = lambda name: counter_delta(before["served"], after["served"], name)
        requests = counter_delta(before["served"], after["served"],
                                 "serve.requests", "endpoint=segment")
        bench.put("serve.server.cpu_us_per_req", 1e6 * cpu_s / load.attempted)
        bench.put("serve.server.pin_hit_rate", served("serve.pin_hits") / requests)
        bench.put("serve.server.shed_per_kreq", 1e3 * served("serve.shed") / requests)
        lookups = served("cache.hits") + served("cache.misses")
        bench.put("core.cache.hit_rate", served("cache.hits") / lookups if lookups else 0.0,
                  lookups=lookups)
        bench.put("core.cache.evictions_per_kreq", 1e3 * served("cache.evictions") / requests)
        handled = after["served"]["histograms"].get("serve.request_seconds{endpoint=segment}", {})
        bench.put("serve.server.handle_p50_us", 1e6 * handled.get("p50", 0.0))

        bench.ops(paced.attempted, paced.failed, "paced GETs")
        compare_bodies(bench, paced.kept)
        count = len(paced.samples)
        bench.put("paced_p50_ms", **stats.calm_time(paced.samples, 0.5), samples=count)
        bench.put("paced_p99_ms",
                  1e3 * stats.percentile([s for _, s in paced.samples], 0.99),
                  samples=count, supported_tail=stats.supported_tail(count))
        bench.put("paced_late_ms", 1e3 * stats.percentile(paced.lateness, 0.5),
                  p99=1e3 * stats.percentile(paced.lateness, 0.99))

        check_sessions(bench, rows, manifest.window_count)
        simulated = compare_with_sim(bench, "venice", rows, traces)
        walls = [wall for row in rows for wall in row["walls"]]
        bench.put("wire_window_p50_ms", **stats.calm_time(walls, 0.5), samples=len(walls))
        # The plain p95 of every window: a tail is what the noise makes it,
        # so it is reported, not smoothed.
        bench.put("wire_window_p95_ms", 1e3 * stats.percentile([s for _, s in walls], 0.95),
                  samples=len(walls), supported_tail=stats.supported_tail(len(walls)))
        # From the simulated twins: the same numbers (the gate above), but
        # over the whole viewer set however many wire sessions fitted.
        put_savings(bench, simulated)
        client = registry.snapshot()
        bench.put("serve.failover.failovers", counter_delta({}, client, "failover.failovers"))
        bench.put("serve.client.retries", counter_delta({}, client, "stream.retries"))


def viewer_traces(population, count: int, seconds: float) -> list:
    """Head-movement traces of the first ``count`` held-out viewers."""
    return [population.trace(inputs.FIRST_TEST_USER + index, seconds)
            for index in range(count)]


def wire_sessions(bench: Bench, base_url: str, manifest, traces: list, first: int,
                  seconds: float, registry) -> list[dict]:
    """Back-to-back headline-arm sessions, cycling through ``traces``
    from index ``first``, through ``serve_session`` in its list form, so
    ``FailoverSegmentClient`` -> checksum verify -> ``RemoteStorage`` ->
    ``Streamer`` is the client stack."""
    from repro import serve_session

    rate = sessions.naive_rate(manifest)
    rows = []
    end = perf_counter() + seconds
    while perf_counter() < end:
        trace = traces[(first + len(rows)) % len(traces)]
        config = sessions.session_config("headline", rate, bench.spans)
        with bench.spans.span("serve.client.session"):
            started = perf_counter()
            report = serve_session([base_url], "venice", trace, config, registry=registry)
            ended = perf_counter()
        rows.append(sessions.digest(report, manifest, config, "headline", started, ended))
    return rows


def compare_with_sim(bench: Bench, name: str, rows: list[dict], traces: list) -> list[dict]:
    """Every wire session's ``QoEReport.summary()`` must equal the same
    trace on the simulated path (run in the host, after the timed phase)."""
    simulated = bench.host.call("run_sessions", name=name, traces=traces, arms=["headline"])
    differ = sum(1 for index, row in enumerate(rows)
                 if row["summary"] != simulated[index % len(traces)]["summary"])
    bench.ops(len(rows), differ, "wire sessions vs the simulated path")
    return simulated


# -- stream_sim -----------------------------------------------------------------


def stream_sim(bench: Bench) -> None:
    population = inputs.population(bench.seed)
    training = population.traces(inputs.TRAIN_USERS, inputs.STORE_SECONDS)
    clips = {
        profile: inputs.clip(profile, inputs.STORE_SECONDS, bench.seed * 16 + index)
        for index, profile in enumerate(inputs.PROFILES)
    }
    # One set-up per store (ingest + train), all three needed: three a run.
    bench.host.call("new_db")
    setup_seconds, writes = [], []
    for profile, frames in clips.items():
        started = perf_counter()
        writes.append(bench.host.call("ingest", name=profile, frames=frames))
        bench.host.call("train", name=profile, traces=training)
        setup_seconds.append(perf_counter() - started)
    bench.put("setup_s", statistics.median(setup_seconds), runs=len(setup_seconds))
    bench.ops(len(writes), 0, "ingests")
    bench.put("stored_bytes_per_raw_byte", stored_ratio(writes))

    arms = list(sessions.ARMS)
    windows = int(inputs.STORE_SECONDS * inputs.FPS / inputs.GOP_FRAMES)
    per_viewer = len(clips) * len(arms)
    # The savings numbers are taken over this many viewers of each video;
    # the loop keeps serving further viewers until the time is up.
    fixed = max(1, bench.viewers // len(clips))
    bench.sizes.update(videos=list(clips), arms=arms, windows_per_session=windows,
                       savings_viewers_per_video=fixed)
    viewer = 0

    def one_viewer(which: int) -> list[dict]:
        """Round ``which``: a different held-out viewer for each video."""
        rows = []
        for index, profile in enumerate(clips):
            trace = population.trace(
                inputs.FIRST_TEST_USER + which * len(clips) + index, inputs.STORE_SECONDS)
            rows += bench.host.call("run_sessions", name=profile, traces=[trace], arms=arms)
        return rows

    one_viewer(viewer)  # warm-up, discarded
    rates = {}
    for label, share in bench.passes():
        bench.tracing(label == "traced")
        started = perf_counter()
        end = started + bench.seconds * share
        least = fixed * per_viewer if label == "plain" else 0
        rows: list[dict] = []
        with bench.spans.span("phase.sessions"):
            while perf_counter() < end or len(rows) < least:
                viewer += 1
                rows += one_viewer(viewer)
        done = [end_of for row in rows for end_of, _ in row["walls"]]
        rate = stats.burst_rate(done)
        rates[label] = rate["value"]
        if label == "traced":
            bench.finish_trace(started, perf_counter(), rates["plain"], rates["traced"])
            continue
        check_sessions(bench, rows, windows)
        bench.put("sim_windows_per_s", **rate, windows=len(done))
        headline = [row for row in rows if row["arm"] == "headline"]
        bench.put("core.streamer.session_ms",
                  1e3 * statistics.median(row["ended"] - row["started"] for row in headline))
        put_savings(bench, rows[:least])

    if bench.trace:
        trace = population.trace(inputs.FIRST_TEST_USER, inputs.STORE_SECONDS)
        probed = []
        for profile in clips:
            probed += bench.host.call("run_sessions", name=profile, traces=[trace],
                                      arms=["headline"], probe=True)
        bench.put("viewport_psnr_db", statistics.fmean(row["psnr_db"] for row in probed))
    bench.put("peak_rss_mb", bench.host.call("observe")["peak_rss_mb"])
    if bench.trace:
        import layers

        layers.measure(bench, "venice", clips["venice"], ("delivery", "read"))


# -- ingest_live ----------------------------------------------------------------


def ingest_live(bench: Bench) -> None:
    base = inputs.clip("venice", inputs.STORE_SECONDS, bench.seed)
    clips = [base[start:start + 20] for start in range(0, len(base), 20)]
    gops = [base[start:start + inputs.GOP_FRAMES]
            for start in range(0, len(base), inputs.GOP_FRAMES)]

    # Set-up: an empty database behind a server, and the live video's
    # first GOP committed so readers have something to fetch.
    servers, lives = [], []

    def set_up() -> None:
        bench.host.call("new_db")
        servers.append(bench.host.call("start_server", cache_bytes=HOT_POOL_BYTES, config={}))
        lives.append(bench.host.call("ingest", name="live", frames=gops[0], streaming=True))
        wait_ready(servers[-1]["address"])

    bench.set_up(set_up)
    address, live = servers[-1]["address"], lives[-1]
    bench.sizes.update(archive_clip_frames=20, append_frames=inputs.GOP_FRAMES)

    def writes_in(share: float, least: int) -> int:
        """How many clips or appends a phase holds. It follows ``--seconds``
        at the nominal cost of one, not the clock: the live video's length,
        and with it every exact metric, is then the same on a fast and a
        slow box. The time the phase takes is the box's."""
        return max(least, round(share * bench.seconds / NOMINAL_WRITE_SECONDS))

    rates = {}
    for label, share in bench.passes():
        bench.tracing(label == "traced")
        pass_started = perf_counter()

        # Archive phase: whole clips back to back, one ingest per slice.
        with bench.spans.span("phase.archive"):
            clip_writes = [
                bench.host.call("ingest", name=f"{label}{index}", frames=clips[index % len(clips)])
                for index in range(writes_in(ARCHIVE_SHARE * share, 1))
            ]
        fps = stats.best_quartile([w["frames"] / w["seconds"] for w in clip_writes], "higher")
        rates[label] = fps["value"]

        # Live phase: back-to-back appends while connection #2 keeps
        # fetching whole committed windows.
        reader = LiveReader(address, live["windows"], bench.spans)
        reader.start()
        append_writes, appends, edges = [], [], []
        edge = wire.Connection(address)
        try:
            # The encode pool wants both cores, so the spinners stay paused
            # except around the live-edge fetch (see awake.py).
            with bench.spans.span("phase.live"), awake.keep_awake(paused=True) as spinners:
                for _ in range(writes_in((1.0 - ARCHIVE_SHARE) * share, 2)):
                    sent = perf_counter()
                    live = bench.host.call(
                        "append", name="live", frames=gops[live["windows"] % len(gops)])
                    appends.append(perf_counter() - sent)
                    append_writes.append(live)
                    # The edge fetch runs alone: connection #2 sits out (two
                    # Python threads in one driver trade the GIL in 5 ms
                    # turns, which is not the program's latency) and the
                    # spinners keep the vCPUs up (see awake.py).
                    reader.pause()
                    spinners.resume()
                    with bench.spans.span("driver.live_edge"):
                        fetched = perf_counter()
                        ok = fetch_live_edge(edge, live["windows"])
                        edges.append(perf_counter() - fetched)
                    spinners.pause()
                    reader.resume()
                    bench.ops(TILES + 1, 0 if ok else TILES + 1,
                              "live-edge GETs (manifest and newest window after a commit)")
                    reader.committed = live["windows"]
        finally:
            reader.stop()
            edge.close()
        if label == "traced":
            bench.finish_trace(pass_started, perf_counter(), rates["plain"], rates["traced"])
            continue

        bench.ops(len(clip_writes) + len(appends), 0, "ingests and appends")
        bench.ops(reader.attempted, reader.failed, "background GETs")
        bench.put("ingest_fps", **fps)
        bench.put("append_gop_ms", **stats.best_quartile([1e3 * s for s in appends], "lower"))
        bench.put("live_edge_ms", **stats.best_quartile([1e3 * s for s in edges], "lower"))
        bench.put("live_read_rps", **stats.burst_rate([done for done, _ in reader.responses]))
        count = len(reader.responses)
        bench.put("live_read_p99_ms",
                  1e3 * stats.percentile([s for _, s in reader.responses], 0.99),
                  samples=count, supported_tail=stats.supported_tail(count))
        bench.sizes.update(archive_clips=len(clip_writes), appends=len(appends))
        # The live video counts once, at the pass's last version.
        live_total = {"frames": live["windows"] * inputs.GOP_FRAMES,
                      "stored_bytes": live["stored_bytes"]}
        bench.put("stored_bytes_per_raw_byte", stored_ratio(clip_writes + [live_total]))
        # Commit cost grows with the version count, which only appends raise.
        for which, write in (("first", append_writes[0]), ("last", append_writes[-1])):
            bench.put(f"core.storage.commit_ms_{which}", 1e3 * write["commit_s"],
                      version=write["version"])

    # Viewers of what was just recorded: the headline arm over the live video.
    catalog = bench.host.call("catalog", name="live")
    traces = viewer_traces(inputs.population(bench.seed), bench.viewers,
                           float(catalog["windows"]))
    rows = bench.host.call("run_sessions", name="live", traces=traces, arms=["headline"])
    check_sessions(bench, rows, catalog["windows"])
    put_savings(bench, rows)

    # Stored bytes at the default worker count must equal a serial ingest.
    serial = bench.host.call("ingest", name="serial", frames=clips[0], workers=1)
    same = bench.host.call("same_bytes", first="plain0", second="serial")
    bench.gate(same, "default-workers ingest differs from workers=1")
    bench.put("core.storage.serial_ingest_fps", serial["frames"] / serial["seconds"])
    bench.put("peak_rss_mb", bench.host.call("observe")["peak_rss_mb"])
    if bench.trace:
        import layers

        layers.measure(bench, "live", base, ("video", "write", "catalog", "manifest"),
                       servers[-1])


def fetch_live_edge(connection: wire.Connection, windows: int) -> bool:
    """What a live viewer does after a commit: the manifest, then the
    newest window's 32 top-rung tiles, each verified. These tiles were
    written a moment ago and never read, so every GET is a pool miss
    behind a fresh version lookup."""
    status, _, body = wire.fetch(connection, ["/manifest/live"])[0]
    if status != 200 or json.loads(body)["window_count"] != windows:
        return False
    return all(wire.verified(*response)
               for response in wire.fetch(connection, window_paths("live", windows - 1)))


def window_paths(name: str, window: int) -> list[str]:
    return [f"/segment/{name}/{window}/{row}/{col}/high"
            for row in range(inputs.GRID.rows) for col in range(inputs.GRID.cols)]


class LiveReader(threading.Thread):
    """Connection #2 of ``ingest_live``: closed-loop fetches of whole
    committed windows (32 pipelined top-rung GETs) while appends run."""

    def __init__(self, address, committed: int, spans) -> None:
        super().__init__(daemon=True)
        self.address = address
        self.committed = committed  # windows readers may ask for; the driver raises it
        self.spans = spans
        self.responses: list[tuple[float, float]] = []
        self.attempted = self.failed = 0
        self._halt = threading.Event()
        self._go = threading.Event()  # cleared while the reader sits out
        self._idle = threading.Event()  # set once it is sitting out
        self._go.set()

    def pause(self) -> None:
        """Returns once the window in flight is done and no more start."""
        self._idle.clear()
        self._go.clear()
        while self.is_alive() and not self._idle.wait(0.05):
            pass

    def resume(self) -> None:
        self._go.set()

    def stop(self) -> None:
        self._halt.set()
        self._go.set()
        self.join()

    def run(self) -> None:
        connection = wire.Connection(self.address)
        window = 0
        try:
            while not self._halt.is_set():
                if not self._go.is_set():
                    self._idle.set()
                    self._go.wait()
                    continue
                paths = window_paths("live", window % self.committed)
                window += 1
                with self.spans.span("driver.socket.window"):
                    sent = perf_counter()
                    connection.send(b"".join(wire.request_bytes(path) for path in paths))
                    for _ in paths:
                        response = connection.read()
                        done = perf_counter()
                        self.attempted += 1
                        if wire.verified(*response):
                            self.responses.append((done, done - sent))
                        else:
                            self.failed += 1
        except (OSError, ValueError):
            self.attempted += 1
            self.failed += 1
        finally:
            connection.close()


RUNNERS = {
    "ingest_live": ingest_live,
    "stream_sim": stream_sim,
    "serve_hot": lambda bench: serve(bench, hot=True),
    "serve_cold": lambda bench: serve(bench, hot=False),
}
