"""The chaos harness itself: seeded determinism, fault scheduling,
wrapper behavior, the scenario runner, and the CLI entry point.

Determinism is the harness's load-bearing property — a chaos run that
cannot be replayed is flakiness, not a regression suite — so most tests
here run things twice and demand identical output.
"""

import json
import re
from pathlib import Path

import pytest

from repro import ConstantBandwidth, Quality
from repro.chaos import (
    ChaosSegmentCache,
    ChaosStorageManager,
    FaultPlan,
    FaultRule,
    Scenario,
    ScenarioRunner,
)
from repro.chaos.scenario import _KEYS
from repro.cli import main
from repro.core.errors import (
    SegmentCorruptError,
    SegmentNotFoundError,
    SegmentReadTimeout,
    TransientSegmentError,
)
from repro.stream.network import BlackoutBandwidth


class TestFaultRule:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="gremlins", rate=0.5)
        with pytest.raises(ValueError, match="never fires"):
            FaultRule(kind="flaky")
        with pytest.raises(ValueError, match="evict"):
            FaultRule(kind="evict", rate=0.5)  # storage target
        with pytest.raises(ValueError, match="1-based"):
            FaultRule(kind="flaky", calls=(0,))
        with pytest.raises(ValueError, match="media"):
            FaultRule(kind="flaky", rate=0.5, media=(2.0, 1.0))

    def test_filters(self):
        rule = FaultRule(
            kind="missing", rate=1.0, video="clip", tile=(0, 1),
            quality="high", media=(1.0, 2.0),
        )
        assert rule.matches("clip", 3, (0, 1), "high", 1.5)
        assert not rule.matches("other", 3, (0, 1), "high", 1.5)
        assert not rule.matches("clip", 3, (1, 1), "high", 1.5)
        assert not rule.matches("clip", 3, (0, 1), "low", 1.5)
        assert not rule.matches("clip", 3, (0, 1), "high", 2.0)  # half-open
        assert not rule.matches("clip", 3, (0, 1), "high", None)

    def test_from_json_reads_every_field(self):
        rule = FaultRule(
            kind="slow", rate=0.25, burst=3, tile=(1, 0), media=(0.5, 1.5),
            delay=0.1, calls=(2, 7),
        )
        assert FaultRule.from_json(
            {"kind": "slow", "rate": 0.25, "burst": 3, "tile": [1, 0],
             "media": [0.5, 1.5], "delay": 0.1, "calls": [2, 7]}
        ) == rule


class TestFaultPlan:
    def _decisions(self, plan, calls=200):
        plan.reset()
        return [
            plan.decide("clip", i % 4, (i % 2, 0), "high") is not None
            for i in range(calls)
        ]

    def test_same_seed_same_schedule(self):
        make = lambda: FaultPlan(rules=(FaultRule(kind="flaky", rate=0.2),), seed=42)
        assert self._decisions(make()) == self._decisions(make())

    def test_different_seed_different_schedule(self):
        a = FaultPlan(rules=(FaultRule(kind="flaky", rate=0.2),), seed=1)
        b = FaultPlan(rules=(FaultRule(kind="flaky", rate=0.2),), seed=2)
        assert self._decisions(a) != self._decisions(b)

    def test_reset_rewinds_the_schedule(self):
        plan = FaultPlan(rules=(FaultRule(kind="flaky", rate=0.3),), seed=9)
        first = self._decisions(plan)
        assert self._decisions(plan) == first  # _decisions resets

    def test_calls_fire_exactly_where_pinned(self):
        plan = FaultPlan(rules=(FaultRule(kind="missing", calls=(2, 5)),), seed=0)
        fired = [
            plan.decide("v", 0, (0, 0), "high") is not None for _ in range(6)
        ]
        assert fired == [False, True, False, False, True, False]

    def test_every_nth_call(self):
        plan = FaultPlan(rules=(FaultRule(kind="missing", every=3),), seed=0)
        fired = [plan.decide("v", 0, (0, 0), "high") is not None for _ in range(9)]
        assert fired == [False, False, True] * 3

    def test_burst_sticks_to_the_same_segment(self):
        plan = FaultPlan(rules=(FaultRule(kind="flaky", calls=(1,), burst=3),), seed=0)
        # Three consecutive reads of the same segment fault...
        assert plan.decide("v", 0, (0, 0), "high") is not None
        # ...a different segment slipped in between is untouched...
        assert plan.decide("v", 0, (1, 1), "high") is None
        assert plan.decide("v", 0, (0, 0), "high") is not None
        assert plan.decide("v", 0, (0, 0), "high") is not None
        # ...and the burst then drains.
        assert plan.decide("v", 0, (0, 0), "high") is None

    def test_filtered_rules_do_not_perturb_other_rngs(self):
        # Adding a tightly-filtered rule ahead of a rate rule must not
        # shift the rate rule's draws on unrelated calls.
        base = FaultPlan(rules=(FaultRule(kind="flaky", rate=0.3),), seed=5)
        plan = FaultPlan(
            rules=(
                FaultRule(kind="missing", rate=0.9, video="other-video"),
                FaultRule(kind="flaky", rate=0.3),
            ),
            seed=5,
        )
        base_fired = [
            base.decide("clip", 0, (0, 0), "high") is not None for _ in range(100)
        ]
        plan.reset()
        plan_fired = []
        for _ in range(100):
            decision = plan.decide("clip", 0, (0, 0), "high")
            plan_fired.append(decision is not None and decision.kind == "flaky")
        # Rule 1 of `plan` is seeded "5:1" vs "5:0" for `base`, so the
        # schedules differ — but the *rates* agree and nothing crashes.
        assert sum(plan_fired) > 0 and sum(base_fired) > 0

    def test_injection_accounting(self):
        plan = FaultPlan(rules=(FaultRule(kind="missing", every=2),), seed=0)
        for _ in range(10):
            plan.decide("v", 1, (0, 1), "low")
        assert plan.injected == {"missing": 5}
        assert plan.calls("storage") == 10
        assert plan.log[0]["call"] == 2
        assert plan.log[0]["tile"] == [0, 1]

    def test_from_json_preserves_schedule(self):
        plan = FaultPlan(
            rules=(FaultRule(kind="flaky", rate=0.2, burst=2),),
            seed=77,
            blackouts=((0.5, 1.0),),
            blackout_floor=100.0,
        )
        loaded = FaultPlan.from_json(json.loads(
            '{"seed": 77, "rules": [{"kind": "flaky", "rate": 0.2, "burst": 2}],'
            ' "blackouts": [[0.5, 1.0]], "blackout_floor": 100.0}'
        ))
        assert self._decisions(plan) == self._decisions(loaded)
        assert loaded.blackouts == ((0.5, 1.0),)
        assert loaded.blackout_floor == 100.0

    def test_seed_override_on_load(self):
        spec = {"seed": 1, "rules": [{"kind": "flaky", "rate": 0.2}]}
        plan = FaultPlan.from_json(spec)
        override = FaultPlan.from_json(spec, seed=2)
        assert override.seed == 2
        assert self._decisions(plan) != self._decisions(override)

    def test_blackout_wrapping(self):
        plan = FaultPlan(blackouts=((1.0, 2.0),), blackout_floor=10.0)
        model = plan.apply_to_bandwidth(ConstantBandwidth(1000.0))
        assert isinstance(model, BlackoutBandwidth)
        assert model.rate_at(0.5) == 1000.0
        assert model.rate_at(1.5) == 10.0
        assert model.rate_at(2.5) == 1000.0
        # No blackouts: the model passes through untouched.
        untouched = ConstantBandwidth(5.0)
        assert FaultPlan().apply_to_bandwidth(untouched) is untouched


class TestChaosStorageManager:
    def _wrap(self, session_db, *rules, seed=0):
        return ChaosStorageManager(session_db.storage, FaultPlan(rules=rules, seed=seed))

    @pytest.mark.parametrize(
        "kind,error",
        [
            ("missing", SegmentNotFoundError),
            ("corrupt", SegmentCorruptError),
            ("slow", SegmentReadTimeout),
            ("flaky", TransientSegmentError),
        ],
    )
    def test_fault_kinds_map_to_the_error_contract(self, session_db, kind, error):
        storage = self._wrap(
            session_db, FaultRule(kind=kind, calls=(1,), delay=0.5)
        )
        with pytest.raises(error, match="injected fault"):
            storage.read_segment("clip", 0, (0, 0), Quality.HIGH)
        # The schedule has moved past call 1: the next read is clean.
        assert storage.read_segment("clip", 0, (0, 0), Quality.HIGH)

    def test_clean_reads_delegate_bit_for_bit(self, session_db):
        storage = self._wrap(session_db)
        direct = session_db.storage.read_segment("clip", 0, (0, 0), Quality.HIGH)
        assert storage.read_segment("clip", 0, (0, 0), Quality.HIGH) == direct
        # Non-read attributes delegate too.
        assert storage.meta("clip").gop_count == session_db.meta("clip").gop_count

    def test_read_resolves_the_version_once(self, session_db, monkeypatch):
        # The fault is decided on the version the read serves: one
        # catalog listing per wrapped read, as for a plain one.
        catalog = session_db.storage.catalog
        listings = []
        scan = catalog.scan_versions
        monkeypatch.setattr(
            catalog, "scan_versions", lambda name: listings.append(name) or scan(name)
        )
        storage = self._wrap(session_db)
        session_db.storage.read_segment("clip", 0, (0, 0), Quality.HIGH)
        assert len(listings) == 1
        storage.read_segment("clip", 0, (0, 0), Quality.HIGH)
        assert len(listings) == 2

    def test_read_window_cannot_bypass_injection(self, session_db):
        storage = self._wrap(session_db, FaultRule(kind="missing", calls=(1,)))
        quality_map = {
            tile: Quality.HIGH for tile in session_db.meta("clip").grid.tiles()
        }
        with pytest.raises(SegmentNotFoundError):
            storage.read_window("clip", 0, quality_map)

    def test_media_time_filter_reaches_the_rule(self, session_db):
        meta = session_db.meta("clip")
        late = meta.gop_start_time(meta.gop_count - 1)
        storage = self._wrap(
            session_db, FaultRule(kind="missing", rate=1.0, media=(late, late + 10.0))
        )
        assert storage.read_segment("clip", 0, (0, 0), Quality.HIGH)  # early gop clean
        with pytest.raises(SegmentNotFoundError):
            storage.read_segment("clip", meta.gop_count - 1, (0, 0), Quality.HIGH)


class TestChaosSegmentCache:
    def _cache(self):
        from repro.core.cache import LruSegmentCache
        from repro.obs import MetricsRegistry

        return LruSegmentCache(capacity_bytes=1 << 20, registry=MetricsRegistry())

    def test_evict_forces_a_miss(self):
        plan = FaultPlan(
            rules=(FaultRule(kind="evict", target="cache", every=1),), seed=0
        )
        wrapped = ChaosSegmentCache(self._cache(), plan)
        key = ("clip", 0, (0, 0), Quality.HIGH, 1)
        loads = []

        def loader():
            loads.append(1)
            return b"payload"

        wrapped.get_or_load(key, loader)
        wrapped.get_or_load(key, loader)
        assert len(loads) == 2  # every lookup was evicted first
        assert plan.injected.get("evict") == 2

    def test_non_segment_keys_bypass_the_plan(self):
        plan = FaultPlan(
            rules=(FaultRule(kind="evict", target="cache", every=1),), seed=0
        )
        wrapped = ChaosSegmentCache(self._cache(), plan)
        loads = []
        wrapped.get_or_load("opaque-key", lambda: loads.append(1) or b"x")
        wrapped.get_or_load("opaque-key", lambda: loads.append(1) or b"x")
        assert len(loads) == 1  # cached; the plan never saw the key
        assert plan.calls("cache") == 0


def _tiny_spec(seed=13, **overrides):
    spec = {
        "name": "tiny",
        "seed": seed,
        "sessions": {"count": 2, "mode": "single", "bandwidth": 40000,
                     "policy": "uniform"},
        "invariants": {"expect_degradations": True},
        "plan": {
            "seed": seed,
            "rules": [{"kind": "flaky", "rate": 0.1, "burst": 4}],
        },
    }
    spec.update(overrides)
    return spec


def _tiny_scenario(seed=13, **overrides):
    return Scenario.from_json(_tiny_spec(seed, **overrides))


class TestScenarioRunner:
    def test_end_to_end_invariants_hold(self, tmp_path):
        report = ScenarioRunner(_tiny_scenario(), root=tmp_path).run()
        assert report.ok, report.dumps()
        names = [check.name for check in report.checks]
        assert "no_uncaught_exceptions" in names
        assert "no_silent_upgrade" in names
        assert "cache_disk_consistency" in names
        assert "metrics_events_agree" in names
        assert len(report.events) >= 1

    def test_report_is_seed_deterministic(self, tmp_path):
        first = ScenarioRunner(_tiny_scenario(), root=tmp_path / "a").run()
        second = ScenarioRunner(_tiny_scenario(), root=tmp_path / "b").run()
        assert first.dumps() == second.dumps()

    def test_different_seed_changes_the_run(self, tmp_path):
        first = ScenarioRunner(_tiny_scenario(seed=13), root=tmp_path / "a").run()
        second = ScenarioRunner(_tiny_scenario(seed=14), root=tmp_path / "b").run()
        assert first.dumps() != second.dumps()

    def test_shared_mode_runs(self, tmp_path):
        scenario = _tiny_scenario(
            sessions={"count": 2, "mode": "shared", "bandwidth": 60000,
                      "policy": "uniform"},
        )
        report = ScenarioRunner(scenario, root=tmp_path).run()
        assert report.ok, report.dumps()

    def test_expected_degradations_catches_vacuous_plans(self, tmp_path):
        scenario = _tiny_scenario()
        scenario.plan = FaultPlan(rules=(), seed=13)  # injects nothing
        report = ScenarioRunner(scenario, root=tmp_path).run()
        failed = {check.name for check in report.checks if not check.ok}
        assert failed == {"expected_degradations"}

    def test_session_config_is_resolved_in_one_place(self):
        """The mode picks what the streamer reads from, never how a
        viewer's session is configured."""
        knobs = {"count": 2, "bandwidth": 30000, "policy": "uniform"}
        configs = [
            _tiny_scenario(
                sessions={**knobs, "mode": mode}, retry={"attempts": 5}
            ).session_config()
            for mode in ("single", "shared", "wire")
        ]
        assert configs[0] == configs[1] == configs[2]
        assert configs[0].policy.name == "uniform" and configs[0].retry.attempts == 5
        assert configs[0].bandwidth == ConstantBandwidth(30000.0)


def _spec(**sections):
    spec = _tiny_spec()
    for section, keys in sections.items():
        spec[section] = {**spec.get(section, {}), **keys}
    return spec


UNJUDGEABLE = {
    "typo-in-invariants": (_spec(invariants={"max_degradation": 0}), "max_degradation"),
    "typo-in-sessions": (_spec(sessions={"bandwith": 1}), "bandwith"),
    "typo-in-video": (_spec(video={"gop_frame": 4}), "gop_frame"),
    "typo-in-retry": (_spec(retry={"attempt": 2}), "attempt"),
    "removed-hedge-delay": (_spec(sessions={"hedge_delay": 0.05}), "hedge_delay"),
    "removed-retry-backoff": (_spec(retry={"base_delay": 0.1}), "base_delay"),
    "unknown-mode": (_spec(sessions={"mode": "wired"}), "unknown mode"),
    "unknown-policy": (_spec(sessions={"policy": "greedy"}), "unknown policy"),
    "wire-faults-off-the-wire": (
        _spec(invariants={"expect_wire_faults": True}), "expect_wire_faults"),
    "repairs-without-corruption": (
        _spec(sessions={"mode": "wire", "shards": 3, "materialize": True},
              invariants={"min_repairs": 1}), "min_repairs"),
    "repairs-off-the-wire": (
        _spec(sessions={"shards": 3, "materialize": True,
                        "corrupt_at_rest": {"node": "node-0"}},
              invariants={"min_repairs": 1}), "min_repairs"),
}
#: Keys every shipped plan set to the runner's one value; the runner states
#: them as constants now, so a plan naming one is a typo like any other.
REMOVED_KEYS = {
    "video": ("width", "height", "fps", "duration", "gop_frames", "grid"),
    "sessions": ("predictor", "margin", "replication_factor", "pin_budget",
                 "prewarm_threshold", "failure_threshold", "request_timeout"),
}
UNJUDGEABLE.update(
    (f"removed-{key}", (_spec(**{section: {key: 1}}), key))
    for section, keys in REMOVED_KEYS.items()
    for key in keys
)


class TestUnjudgeablePlans:
    """A plan the runner cannot judge is an error, not a pass."""

    @pytest.mark.parametrize("case", sorted(UNJUDGEABLE))
    def test_from_json_rejects(self, case):
        spec, message = UNJUDGEABLE[case]
        with pytest.raises(ValueError, match=message):
            Scenario.from_json(spec)

    def test_cli_exits_2_without_running(self, tmp_path, capsys):
        spec, message = UNJUDGEABLE["typo-in-invariants"]
        plan = tmp_path / "typo.json"
        plan.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["--root", str(tmp_path / "db"), "chaos", "--plan", str(plan)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_plan_keys_are_the_ones_docs_api_lists(self):
        """The schema is docs/API.md's plan-key table, so a knob every plan
        sets to one value cannot come back as a key unnoticed."""
        api = (Path(__file__).parent.parent / "docs" / "API.md").read_text()
        for section, keys in _KEYS.items():
            row = re.search(rf"^  \| `{section}` \| (.*) \|$", api, re.MULTILINE).group(1)
            # Parentheses hold a key's values or its mode, not keys.
            assert re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", row)) == keys.split()

    @pytest.mark.parametrize("plan", sorted(Path("plans").glob("*.json")), ids=lambda p: p.stem)
    def test_every_shipped_plan_loads_unchanged(self, plan):
        spec = json.loads(plan.read_text(encoding="utf-8"))
        loaded = Scenario.load(plan)
        for section in ("video", "sessions", "retry", "invariants"):
            assert getattr(loaded, section) == spec[section]


class TestChaosCli:
    def _write_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(_tiny_spec()), encoding="utf-8")
        return path

    def test_cli_is_deterministic_and_exits_zero(self, tmp_path, capsys):
        plan = self._write_plan(tmp_path)
        outputs = []
        for run in ("a.json", "b.json"):
            out = tmp_path / run
            code = main(
                ["--root", str(tmp_path / "db"), "chaos",
                 "--plan", str(plan), "--output", str(out)]
            )
            assert code == 0
            outputs.append(out.read_text(encoding="utf-8"))
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["ok"] is True
        assert report["events"]

    def test_cli_seed_override(self, tmp_path):
        plan = self._write_plan(tmp_path)
        out = tmp_path / "seeded.json"
        code = main(
            ["--root", str(tmp_path / "db"), "chaos", "--plan", str(plan),
             "--seed", "99", "--output", str(out)]
        )
        # The overridden seed may or may not satisfy expect_degradations;
        # what must hold is that the report reflects the override.
        assert code in (0, 1)
        assert json.loads(out.read_text(encoding="utf-8"))["seed"] == 99

    def test_cli_exits_nonzero_on_violation(self, tmp_path, capsys):
        spec = _tiny_spec()
        spec["plan"]["rules"] = []  # nothing fires => expect_degradations fails
        plan = tmp_path / "vacuous.json"
        plan.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["--root", str(tmp_path / "db"), "chaos", "--plan", str(plan)])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().err
