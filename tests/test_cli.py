"""The command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.scenarios import SCENARIOS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (["scenario", "list"], ["scenario", "run", "F5"],
                     ["scenario", "run", "F5", "--seed", "s", "--rep", "0"],
                     ["scenario", "describe", "F5"], ["demo"],
                     ["workload", "--clients", "2"], ["obs"],
                     ["obs", "--seed", "s", "--dump-dir", "/tmp/x"],
                     ["forensics", "--tamper"], ["replication"], ["slo"],
                     ["profile", "--flamegraph"]):
            args = parser.parse_args(argv)
            assert callable(args.func)


class TestCommands:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for scenario in SCENARIOS:
            assert scenario.spec.scenario_id in out
            assert scenario.run_key()[:16] in out

    def test_unknown_experiment(self, capsys):
        assert main(["scenario", "run", "Z9"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert len(err.strip().splitlines()) == 1

    def test_experiment_t1(self, capsys):
        assert main(["scenario", "run", "T1", "--seed", "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "[T1]" in out and "PUT" in out
        assert "4 facts expected, 0 broken" in out

    def test_experiment_case_insensitive(self, capsys):
        assert main(["scenario", "run", "t1", "--seed", "cli-test"]) == 0

    def test_demo(self, capsys):
        assert main(["demo", "--seed", "cli-demo"]) == 0
        out = capsys.readouterr().out
        assert "provider-at-fault" in out
        assert "upload.receipt" in out  # the sequence diagram

    def test_workload(self, capsys):
        assert main(["workload", "--clients", "2", "--transactions", "2",
                     "--seed", "cli-wl"]) == 0
        out = capsys.readouterr().out
        assert "success rate" in out
        assert "all terminated" in out and ": yes" in out
        assert "sessions           : 4" in out and "signature" in out

    def test_gauntlet(self, capsys):
        """The §5 attack matrix runs as scenario S5; its contract is the
        defended column holding and every weakened target falling."""
        assert main(["scenario", "run", "S5", "--seed", "cli-g"]) == 0
        out = capsys.readouterr().out
        assert "robustness gauntlet" in out
        assert "2 facts expected, 0 broken" in out

    def test_experiment_registry_complete(self):
        """Every experiment id documented in DESIGN.md §4 is runnable."""
        for expected in ("T1", "F1", "F2", "F3", "F4", "F5", "F6",
                         "S3", "S4", "S5", "S6", "W1", "R1", "A1", "OB1"):
            assert expected in SCENARIOS.ids()

    def test_obs(self, capsys):
        assert main(["obs", "--seed", "cli-obs"]) == 0
        out = capsys.readouterr().out
        assert "trace TXN-" in out  # the span tree
        assert "tree complete" in out and "telemetry ok" in out

    def test_obs_dump_dir(self, capsys, tmp_path):
        import json

        assert main(["obs", "--seed", "cli-obs", "--dump-dir", str(tmp_path)]) == 0
        spans = (tmp_path / "spans.jsonl").read_text().splitlines()
        assert spans and all("trace_id" in json.loads(line) for line in spans)
        metrics = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert metrics and all("name" in json.loads(line) for line in metrics)
        assert "# TYPE" in (tmp_path / "metrics.prom").read_text()


class TestScenarioRun:
    def test_broken_expect_exits_1_and_names_the_fact(self, capsys, monkeypatch):
        scenario = SCENARIOS.get("T1")
        monkeypatch.setattr(scenario, "spec", scenario.spec.with_overrides(
            expect={**scenario.spec.expect, "forged_rejected": False}))
        assert main(["scenario", "run", "T1"]) == 1
        err = capsys.readouterr().err
        assert "forged_rejected" in err
        assert "put_ok" not in err

    def test_rep_outside_the_spec_exits_2(self, capsys):
        assert main(["scenario", "run", "T1", "--rep", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro scenario: ")
        assert len(err.strip().splitlines()) == 1

    def test_json_is_the_canonical_result(self, capsys):
        assert main(["scenario", "run", "T1", "--json"]) == 0
        out = capsys.readouterr().out
        assert f'"{SCENARIOS.get("T1").run_key()}"' in out

    def test_seed_override_changes_the_run_key(self, capsys):
        assert main(["scenario", "run", "T1", "--seed", "other"]) == 0
        out = capsys.readouterr().out
        assert SCENARIOS.get("T1").run_key() not in out
        assert SCENARIOS.get("T1").reseeded("other").run_key() in out


class TestThroughputFlags:
    """The engine's `--tenants/--shards/--top` flags (on
    `repro profile`), `repro workload`'s counts and drop probability,
    `repro forensics --max-rows` and `repro slo --plans`: invalid values
    exit 2 with one stderr line, never a traceback."""

    @pytest.mark.parametrize("argv,message", [
        (["profile", "--tenants", "0"], "--tenants must be >= 1"),
        (["profile", "--top", "0"], "--top must be >= 1"),
        (["profile", "--top", "-1"], "--top must be >= 1"),
        (["slo", "--plans", "0"], "--plans must be >= 1"),
        (["workload", "--clients", "0"], "--clients must be >= 1 (got 0)"),
        (["workload", "--transactions", "0"], "--transactions must be >= 1 (got 0)"),
        (["workload", "--drop", "1.5"], "drop_prob must be a probability"),
        (["workload", "--drop", "nan"], "drop_prob must be a probability"),
        (["forensics", "--max-rows", "-1"], "--max-rows must be >= 0 (got -1)"),
    ])
    def test_counts_below_one_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1

    def test_shards_below_one_exits_2(self, capsys):
        assert main(["profile", "--shards", "0"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_negative_shards_exits_2(self, capsys):
        assert main(["profile", "--shards", "-3"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_sharded_sweep_runs(self, capsys):
        assert main(["profile", "--tenants", "2", "--shards", "2",
                     "--seed", "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "2 shard(s)" in out
        assert "engine/drive;crypto/rsa.sign" in out

