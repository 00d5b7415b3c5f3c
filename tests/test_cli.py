"""Tests for the command-line interface (invoked in-process)."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.control import Forecast, NodeState, Planner, catalog_from_storage
from repro.core.predictor import PREDICTOR_KINDS
from repro.core.storage import StorageManager
from repro.serve import ServerConfig, start_server
from repro.serve.placement import ShardMap

SMALL_CLIP = (
    "--width", "64", "--height", "32", "--duration", "2", "--fps", "4",
    "--grid", "2x2", "--gop-frames", "4",
)


def run(tmp_path, *argv) -> int:
    return main(["--root", str(tmp_path / "db"), *argv])


def ingest_small(tmp_path, name="demo") -> None:
    assert run(tmp_path, "ingest", name, *SMALL_CLIP) == 0


def _verbs() -> dict:
    (verbs,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return verbs


def _predictor_choices() -> list[str]:
    (choices,) = (
        action.choices for action in _verbs()["serve"]._actions if action.dest == "predictor"
    )
    return list(choices)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_grid_argument(self):
        args = build_parser().parse_args(["ingest", "x", "--grid", "2x4"])
        assert (args.grid.rows, args.grid.cols) == (2, 4)

    def test_bad_grid_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "x", "--grid", "banana"])

    def test_qualities_argument(self):
        from repro.video.quality import Quality

        args = build_parser().parse_args(["ingest", "x", "--qualities", "high,low"])
        assert args.qualities == (Quality.HIGH, Quality.LOW)

    def test_bad_quality_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "x", "--qualities", "ultra"])

    def test_verbs_are_the_ones_docs_api_lists(self):
        api = (Path(__file__).parent.parent / "docs" / "API.md").read_text()
        listed = re.search(r"python -m repro --root DIR \{([^}]*)\}", api).group(1)
        assert set(_verbs()) == set(re.findall(r"[a-z]+", listed))

    def test_serve_does_not_offer_markov(self):
        # No verb trains a Markov model, so the choice could only exit 2.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "x", "--predictor", "markov"])
        assert set(_predictor_choices()) == set(PREDICTOR_KINDS) - {"markov"}


class TestCommands:
    def test_ls_empty(self, tmp_path, capsys):
        assert run(tmp_path, "ls") == 0
        assert "(no videos)" in capsys.readouterr().out

    def test_ingest_then_ls(self, tmp_path, capsys):
        ingest_small(tmp_path)
        assert run(tmp_path, "ls") == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "2.0s" in out

    def test_info(self, tmp_path, capsys):
        ingest_small(tmp_path)
        assert run(tmp_path, "info", "demo") == 0
        out = capsys.readouterr().out
        assert "64x32" in out
        assert "2x2 tiles" in out
        assert "projection  : equirectangular" in out

    def test_serve(self, tmp_path, capsys):
        ingest_small(tmp_path)
        assert run(tmp_path, "serve", "demo", "--bandwidth", "20000") == 0
        out = capsys.readouterr().out
        assert "total_bytes" in out
        assert "stall_time_s" in out

    def test_every_predictor_choice_serves_a_fresh_store(self, tmp_path, capsys):
        ingest_small(tmp_path)
        for kind in _predictor_choices():
            argv = ("serve", "demo", "--predictor", kind, "--transport", "sim")
            assert run(tmp_path, *argv) == 0, kind

    def test_export_import_cycle(self, tmp_path, capsys):
        ingest_small(tmp_path)
        target = tmp_path / "out.mp4"
        assert run(tmp_path, "export", "demo", str(target)) == 0
        assert target.exists()
        assert run(tmp_path, "import", "copy", str(target)) == 0
        run(tmp_path, "ls")
        assert "copy" in capsys.readouterr().out

    def test_drop(self, tmp_path, capsys):
        ingest_small(tmp_path)
        assert run(tmp_path, "drop", "demo") == 0
        run(tmp_path, "ls")
        assert "(no videos)" in capsys.readouterr().out

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        assert run(tmp_path, "drop", "ghost") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--gop-frames", "0"), "gop_frames must be >= 1"),
            (("--width", "60"), "multiples of 16"),
            (("--width", "0"), "positive multiples of 16"),
            (("--height", "0"), "positive multiples of 16"),
        ],
    )
    def test_config_validation_errors_exit_2_without_traceback(
        self, tmp_path, capsys, flags, message
    ):
        # IngestConfig validates in __post_init__ and raises ValueError;
        # that is a usage error, not a crash.
        assert run(tmp_path, "ingest", "demo", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_metrics_json_after_multisession_run(self, tmp_path, capsys):
        import math

        ingest_small(tmp_path)
        capsys.readouterr()  # drop the ingest chatter
        assert (
            run(tmp_path, "metrics", "demo", "--sessions", "3", "--bandwidth", "50000")
            == 0
        )
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) >= {"counters", "gauges", "histograms", "spans"}
        counters = snapshot["counters"]
        assert counters["storage.segments_read"] > 0
        assert counters["cache.hits"] > 0  # 3 viewers, one clip: reads amortise
        assert counters["sharedlink.bytes_sent"] > 0
        assert any(key.startswith("stream.windows") for key in counters)
        assert any(key.startswith("stream.bytes_sent") for key in counters)
        assert snapshot["histograms"]["storage.read_segment.seconds"]["count"] > 0
        for name, summary in snapshot["histograms"].items():
            assert summary["count"] == 0 or math.isfinite(summary["sum"]), name

    def test_metrics_prometheus_format(self, tmp_path, capsys):
        ingest_small(tmp_path)
        capsys.readouterr()
        assert (
            run(
                tmp_path, "metrics", "demo", "--sessions", "2", "--bandwidth",
                "50000", "--format", "prom",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE cache_hits counter" in out
        assert "# TYPE storage_read_segment_seconds summary" in out
        assert 'quantile="0.5"' in out
        assert "storage_read_segment_seconds_count" in out
        assert any(line.startswith("stream_windows") for line in out.splitlines())

    def test_metrics_output_file(self, tmp_path, capsys):
        ingest_small(tmp_path)
        target = tmp_path / "metrics.json"
        assert (
            run(
                tmp_path, "metrics", "demo", "--sessions", "2", "--bandwidth",
                "50000", "--output", str(target),
            )
            == 0
        )
        assert "wrote metrics" in capsys.readouterr().out
        snapshot = json.loads(target.read_text())
        assert snapshot["counters"]["storage.segments_read"] > 0

    def test_metrics_without_run_exports_empty_registry(self, tmp_path, capsys):
        ingest_small(tmp_path)
        capsys.readouterr()
        assert run(tmp_path, "metrics") == 0  # no name: export what accrued
        snapshot = json.loads(capsys.readouterr().out)
        # Ingest happened in a separate process; this one only opened the
        # catalog, so streaming counters are absent but the shape holds.
        assert set(snapshot) >= {"counters", "gauges", "histograms", "spans"}

    def test_duplicate_ingest_fails_cleanly(self, tmp_path, capsys):
        ingest_small(tmp_path)
        code = run(
            tmp_path, "ingest", "demo", "--width", "64", "--height", "32",
            "--duration", "1", "--fps", "4", "--grid", "2x2", "--gop-frames", "4",
        )
        assert code == 1

    def test_control_reads_and_retunes_a_live_server(self, tmp_path, capsys):
        ingest_small(tmp_path)
        with start_server(StorageManager(tmp_path / "db")) as handle:
            capsys.readouterr()
            assert run(tmp_path, "control", handle.base_url) == 0
            state = json.loads(capsys.readouterr().out)
            assert (state["version"], state["max_inflight"]) == (0, None)
            assert state["pinned_entries"] == 0

            code = run(
                tmp_path, "control", handle.base_url, "--pin-budget", "1048576",
                "--prewarm", "demo", "--max-inflight", "8",
            )
            assert code == 0
            state = handle.control_state()
            # Three flags, one full plan: one POST, one version bump.
            applies = handle.server.metrics.counter("serve.control_applies")
            assert applies.total() == 1
            assert (state["version"], state["max_inflight"]) == (1, 8)
            assert state["pin_budget_bytes"] == 1048576
            assert state["pinned_entries"] > 0
            # The controller's slice at demand 1.0: same paths, same heats.
            demand = {"demo": Forecast("demo", 1.0, 0.0, 1.0, 1)}
            expected = Planner().plan(
                demand,
                catalog_from_storage(handle.server.storage),
                (NodeState("", pin_budget_bytes=1048576),),
            ).node("").prewarm
            hot = handle.server.hot
            assert sorted(hot.paths()) == sorted(path for path, _ in expected)
            assert {path: hot.heat(path) for path, _ in expected} == dict(expected)
            assert max(heat for _, heat in expected) == 100  # weight 1.0 x 100

            assert run(tmp_path, "control", handle.base_url, "--max-inflight", "0") == 0
            state = handle.control_state()
            assert (state["version"], state["max_inflight"]) == (2, None)
            assert "max_inflight unlimited" in capsys.readouterr().out
            # A posted plan is a full slice: the fields not named keep
            # their values, the predicted-heat layer is replaced (emptied).
            assert state["pin_budget_bytes"] == 1048576
            assert state["pinned_entries"] > 0
            assert not handle.server.hot._base_heat

    def test_control_prewarm_on_a_shard_node_pins_what_it_owns(self, tmp_path):
        """The posted slice is unfitted, so a shard node spends its whole
        budget on the segments it owns, not on a peer's."""
        ingest_small(tmp_path)
        storage = StorageManager(tmp_path / "db")
        manifest = storage.build_manifest("demo")
        shard_map = ShardMap(nodes=("node-0", "node-1"), replication_factor=1)
        owned = {
            f"/segment/demo/{key.to_path()}": size
            for key, size in manifest.segment_sizes.items()
            if shard_map.owns("node-0", "demo", key)
        }
        assert 0 < len(owned) < len(manifest.segment_sizes)
        config = ServerConfig(node_id="node-0", shard_map=shard_map)
        with start_server(storage, config) as handle:
            budget = str(sum(owned.values()))
            code = run(
                tmp_path, "control", handle.base_url, "--pin-budget", budget,
                "--prewarm", "demo",
            )
            assert code == 0
            assert set(handle.server.hot.paths()) == set(owned)

    def test_control_refuses_a_negative_ceiling_before_sending_it(self, tmp_path, capsys):
        """``--max-inflight -5`` used to reach the server, which installed
        it and shed every cold request from then on."""
        with start_server(StorageManager(tmp_path / "db")) as handle:
            with pytest.raises(SystemExit) as caught:
                run(tmp_path, "control", handle.base_url, "--max-inflight", "-5")
            assert caught.value.code == 2
            assert "max-inflight must be >= 0" in capsys.readouterr().err
            state = handle.control_state()
            assert (state["version"], state["max_inflight"]) == (0, None)

    def test_fsck_and_scrub_recover_a_killed_ingest(self, tmp_path, capsys):
        """SIGKILL at publish #2 of 4 (the second of two packs), then the operator
        path: ls still lists the healthy video beside it, fsck finds it,
        fsck --repair reclaims it, the name is reusable and scrubs clean."""
        ingest_small(tmp_path, "good")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, REPRO_CRASH_AFTER_WRITES="2")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        killed = subprocess.run(
            [sys.executable, "-m", "repro", "--root", str(tmp_path / "db"),
             "ingest", "demo", *SMALL_CLIP, "--workers", "1"],
            env=env, capture_output=True, timeout=120,
        )
        assert killed.returncode in (-9, 137), killed.stderr.decode()

        capsys.readouterr()
        assert run(tmp_path, "ls") == 0
        listing = capsys.readouterr().out
        assert re.search(r"^good  v1 ", listing, re.M)
        assert re.search(r"^demo  \(.*fsck", listing, re.M)
        assert run(tmp_path, "fsck") == 1
        assert "NOT CLEAN" in capsys.readouterr().out
        assert run(tmp_path, "fsck", "--repair") == 0
        assert "dropped videos: demo" in capsys.readouterr().out
        assert run(tmp_path, "fsck") == 0
        ingest_small(tmp_path)
        capsys.readouterr()
        assert run(tmp_path, "scrub") == 0
        assert "0 corrupt" in capsys.readouterr().out
