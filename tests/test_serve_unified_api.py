"""The unified ``VisualCloud.serve`` entry point.

One method covers the whole delivery matrix — single simulated session,
shared-link contention, and real HTTP transport (``base_url=``). These
tests pin three things: shapes the signature no longer has (the PR 4-era
positional config, ``transport=``, ``cluster=``) die with Python's own
``TypeError``, dispatch errors fire before any work happens, and a
no-fault wire session is QoE-indistinguishable from its simulated twin.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import SessionConfig
from repro.serve import serve_session, start_server
from repro.stream.abr import PredictiveTilingPolicy, UniformAdaptive
from repro.stream.network import ConstantBandwidth, SimulatedLink
from repro.workloads.users import ViewerPopulation


def _config(bandwidth=200_000, **overrides):
    defaults = dict(
        policy=UniformAdaptive(),
        bandwidth=ConstantBandwidth(bandwidth),
        predictor="static",
    )
    defaults.update(overrides)
    return SessionConfig(**defaults)


def _trace(session_db, user=0):
    meta = session_db.meta("clip")
    return ViewerPopulation(seed=2).trace(user, duration=meta.duration, rate=10.0)


def _summary_key(report):
    # json.dumps renders NaN stably, so reports whose PSNR fields are
    # NaN (no quality probe) still compare equal.
    return json.dumps(report.summary(), sort_keys=True)


class TestRemovedShims:
    def test_legacy_serve_trace_config_raises(self, session_db):
        # The config slot is keyword-only territory now, so the old
        # 3-positional shape dies at the signature.
        with pytest.raises(TypeError, match="positional"):
            session_db.serve("clip", _trace(session_db), _config())

    def test_legacy_serve_bare_trace_raises(self, session_db):
        with pytest.raises(TypeError):
            session_db.serve("clip", _trace(session_db))

    def test_serve_all_is_gone(self, session_db):
        assert not hasattr(session_db, "serve_all")

    def test_new_forms_do_not_warn(self, session_db, recwarn):
        session_db.serve("clip", (_trace(session_db), _config()))
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


class TestDeprecatedClusterKwargs:
    """``transport=`` and ``cluster=`` are not parameters: no tombstone,
    the signature itself refuses them."""

    def test_transport_kwarg_rejected(self, session_db):
        for legacy in ({"transport": "sim"}, {"cluster": None}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                session_db.serve("clip", (_trace(session_db), _config()), **legacy)


class TestReturnShapes:
    def test_single_pair_returns_one_report(self, session_db):
        report = session_db.serve("clip", (_trace(session_db), _config()))
        assert not isinstance(report, list)
        assert report.records

    def test_list_returns_reports_in_order(self, session_db):
        sessions = [(_trace(session_db, user), _config()) for user in range(3)]
        reports = session_db.serve("clip", sessions)
        assert isinstance(reports, list) and len(reports) == 3
        # Order is observable: each report replays its own trace, and
        # per-user traces differ, so summaries must line up one-to-one
        # with a sequential re-run.
        expected = [
            _summary_key(session_db.serve("clip", pair)) for pair in sessions
        ]
        assert [_summary_key(r) for r in reports] == expected

    def test_shared_link_single_pair_still_returns_one_report(self, session_db):
        report = session_db.serve(
            "clip",
            (_trace(session_db), _config()),
            link=SimulatedLink(ConstantBandwidth(100_000)),
        )
        assert not isinstance(report, list)


class TestHttpTransport:
    def test_wire_reports_match_simulated_reports(self, session_db):
        # The differential acceptance criterion: same traces, same
        # configs, no faults — the wire path must produce QoE reports
        # JSON-equal to the simulated path. Playback timing stays on the
        # session's bandwidth model; only the bytes travel differently.
        sessions = [(_trace(session_db, user), _config()) for user in range(4)]
        sim = [_summary_key(session_db.serve("clip", pair)) for pair in sessions]
        handle = start_server(session_db.storage)
        try:
            # One after another through the facade ...
            sequential = session_db.serve("clip", sessions, base_url=handle.base_url)
            # ... and all at once against the same server.
            with ThreadPoolExecutor(max_workers=len(sessions)) as pool:
                concurrent = list(
                    pool.map(
                        lambda pair: serve_session(handle.base_url, "clip", *pair),
                        sessions,
                    )
                )
        finally:
            handle.stop()
        window_count = session_db.storage.build_manifest("clip").window_count
        for wire in (sequential, concurrent):
            assert [_summary_key(report) for report in wire] == sim
            for report in wire:
                assert len(report.records) == window_count
                assert report.degradation_count == 0
                assert not [
                    event
                    for record in report.records
                    for event in record.events
                    if event.kind == "skip"
                ]

    def test_http_uses_trained_predictors(self, session_db):
        meta = session_db.meta("clip")
        population = ViewerPopulation(seed=9)
        session_db.train_predictor(
            "clip",
            [population.trace(user, meta.duration, rate=10.0) for user in range(1, 5)],
        )
        config = _config(policy=PredictiveTilingPolicy(), predictor="markov")
        trace = population.trace(0, meta.duration, rate=10.0)
        sim = session_db.serve("clip", (trace, config))
        handle = start_server(session_db.storage)
        try:
            wire = session_db.serve("clip", (trace, config), base_url=handle.base_url)
        finally:
            handle.stop()
        assert _summary_key(wire) == _summary_key(sim)


class TestDispatchErrors:
    def test_positional_config_rejected(self, session_db):
        # serve() takes only (name, sessions) positionally now; the old
        # third positional config slot is gone from the signature.
        with pytest.raises(TypeError, match="positional"):
            session_db.serve("clip", (_trace(session_db), _config()), _config())

    def test_http_rejects_simulated_link(self, session_db):
        with pytest.raises(ValueError, match="link"):
            session_db.serve(
                "clip",
                (_trace(session_db), _config()),
                base_url="http://127.0.0.1:1",
                link=SimulatedLink(ConstantBandwidth(100_000)),
            )

    def test_start_offsets_require_a_link(self, session_db):
        with pytest.raises(ValueError, match="start_offsets"):
            session_db.serve(
                "clip", (_trace(session_db), _config()), start_offsets=[0.0]
            )

    def test_malformed_session_pair(self, session_db):
        with pytest.raises(TypeError, match="pairs"):
            session_db.serve("clip", [_trace(session_db)])
