"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_a_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_trends_command_prints_generations(capsys):
    assert main(["trends"]) == 0
    out = capsys.readouterr().out
    assert "HBM1" in out and "HBM4" in out


def test_design_space_command_lists_six_points(capsys):
    assert main(["--json", "design-space"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6


def test_pins_command_reports_expansion(capsys):
    assert main(["pins"]) == 0
    out = capsys.readouterr().out
    assert "minimum C/A pins: 5" in out
    assert "+12.5% bandwidth" in out


def test_tpot_command_json_rows(capsys):
    assert main(["--json", "tpot", "--model", "grok-1", "--batches", "8", "16"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert all(row["hbm4_tpot_ms"] > row["rome_tpot_ms"] for row in rows)


def test_lbr_command_json_rows(capsys):
    assert main(["--json", "lbr", "--model", "llama-3-405b", "--batches", "8"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert 0.8 <= rows[0]["lbr_attention"] <= 1.0


def test_energy_command_json_rows(capsys):
    assert main(["--json", "energy", "--model", "deepseek-v3", "--batch", "64"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["energy_reduction"] > 0


def test_queue_depth_command_runs(capsys):
    assert main(["--json", "queue-depth", "--bytes", "65536",
                 "--rome-depths", "1", "2", "--hbm4-depths", "8"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {row["system"] for row in rows} == {"rome", "hbm4"}


def test_bandwidth_command_runs(capsys):
    assert main(["--json", "bandwidth", "--bytes", "65536"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_queue_depth_workers_matches_serial(capsys):
    argv = ["--json", "queue-depth", "--bytes", "65536",
            "--rome-depths", "1", "2", "--hbm4-depths", "8"]
    assert main(argv) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(argv + ["--workers", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert serial == parallel


def test_tpot_workers_matches_serial(capsys):
    argv = ["--json", "tpot", "--model", "grok-1", "--batches", "8", "16"]
    assert main(argv) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(argv + ["--workers", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert serial == parallel


def test_lbr_workers_matches_serial(capsys):
    argv = ["--json", "lbr", "--model", "llama-3-405b", "--batches", "8"]
    assert main(argv) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(argv + ["--workers", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert serial == parallel


def test_bandwidth_workers_matches_serial(capsys):
    argv = ["--json", "bandwidth", "--bytes", "65536"]
    assert main(argv) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(argv + ["--workers", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert serial == parallel


def test_design_space_simulate_reports_utilization(capsys):
    assert main(["--json", "design-space", "--simulate",
                 "--bytes", str(16 * 4096), "--workers", "2"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6
    assert all(row["utilization"] > 0.9 for row in rows)


def test_workload_command_runs_both_controllers(capsys):
    assert main(["--json", "workload", "--scenario", "decode-serving",
                 "--rate", "200", "--seed", "0", "--requests", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {row["system"] for row in rows} == {"rome", "hbm4"}
    for row in rows:
        assert row["p50_latency_ns"] <= row["p99_latency_ns"]
        assert row["achieved_gbps"] > 0
        assert row["saturated"] is False


def test_workload_rate_sweep_workers_matches_serial(capsys):
    argv = ["--json", "workload", "--scenario", "decode-serving",
            "--system", "rome", "--rate", "200", "400", "--seed", "0",
            "--requests", "3"]
    assert main(argv) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(argv + ["--workers", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert serial == parallel
    assert [row["rate_per_s"] for row in serial] == [200.0, 400.0]


def test_workload_unknown_scenario_errors(capsys):
    assert main(["workload", "--scenario", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err and "decode-serving" in err


def test_workload_resume_skips_journaled_points(capsys, tmp_path):
    argv = ["--json", "workload", "--scenario", "decode-serving",
            "--system", "rome", "--rate", "200", "400", "--seed", "0",
            "--requests", "3", "--checkpoint-dir", str(tmp_path)]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert (tmp_path / "sweep-journal.jsonl").exists()
    # The resumed run restores every point from the journal and reports
    # identical rows without re-simulating.
    assert main(argv + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == first
    assert "restored from the journal" in captured.err


def test_workload_without_resume_discards_stale_journal(capsys, tmp_path):
    argv = ["--json", "workload", "--scenario", "decode-serving",
            "--system", "rome", "--rate", "200", "--seed", "0",
            "--requests", "3", "--checkpoint-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0  # no --resume: journal rebuilt from scratch
    captured = capsys.readouterr()
    assert "restored from the journal" not in captured.err


def test_workload_resume_requires_checkpoint_dir(capsys):
    with pytest.raises(SystemExit, match="--resume requires"):
        main(["workload", "--resume"])


def test_workload_closed_loop_adds_goodput_columns(capsys):
    assert main(["--json", "workload", "--scenario", "decode-serving",
                 "--system", "rome", "--rate", "200", "--seed", "0",
                 "--requests", "3", "--closed-loop",
                 "--slo-ttft-ms", "5", "--slo-tpot-ms", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)
    for row in rows:
        assert row["goodput_per_s"] <= row["offered_per_s"]
        assert 0.0 <= row["goodput_fraction"] <= 1.0
        assert row["slo_met"] + row["rejected"] <= 3


def test_workload_open_loop_rows_keep_their_shape(capsys):
    # No --closed-loop: the goodput columns must not appear, so existing
    # consumers of the open-loop row schema are unaffected.
    assert main(["--json", "workload", "--scenario", "decode-serving",
                 "--system", "rome", "--rate", "200", "--seed", "0",
                 "--requests", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all("goodput_per_s" not in row for row in rows)


def _simulated(rows):
    """Rows minus the wall-clock cost column (the ``compare=False``
    convention for result rows: ``probe_wall_s`` measures the box, not
    the search)."""
    return [{key: value for key, value in row.items()
             if key != "probe_wall_s"} for row in rows]


def test_workload_find_max_rate_bisects_the_rate_bracket(capsys):
    argv = ["--json", "workload", "--scenario", "decode-serving",
            "--system", "rome", "--rate", "1000", "4000", "--seed", "0",
            "--requests", "2", "--model", "grok-1", "--find-max-rate"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["system"] for row in rows] == ["rome"]
    row = rows[0]
    assert row["scenario"] == "max-sustainable-rate"
    assert row["max_rate_per_s"] == 4000.0  # default SLO: bracket top holds
    assert row["probe_rates"].startswith("1000 4000")
    assert row["probe_wall_s"] > 0.0
    # The search is a pure function of its arguments.
    assert main(argv) == 0
    assert _simulated(json.loads(capsys.readouterr().out)) == _simulated(rows)


def test_workload_find_max_rate_requires_a_bracket(capsys):
    assert main(["workload", "--system", "rome", "--rate", "1000",
                 "--find-max-rate"]) == 2
    assert "two --rate values" in capsys.readouterr().err


def test_workload_find_max_rate_journal_resumes(capsys, tmp_path):
    argv = ["--json", "workload", "--scenario", "decode-serving",
            "--system", "rome", "--rate", "1000", "4000", "--seed", "0",
            "--requests", "2", "--model", "grok-1", "--find-max-rate",
            "--checkpoint-dir", str(tmp_path)]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert (tmp_path / "rate-search-rome.jsonl").exists()
    # --resume replays every journaled probe without re-simulating --
    # including the recorded probe wall time, so the rows match exactly.
    assert main(argv + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == first
    assert "probes restored from the journal" in captured.err
    # Without --resume the stale journal is discarded and rebuilt.
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert _simulated(json.loads(captured.out)) == _simulated(first)
    assert "restored" not in captured.err


FLEET_CAMPAIGN_ARGV = [
    "--json", "fleet", "--scenario", "decode-serving", "--system", "rome",
    "--rate", "400000", "--requests", "12", "--seed", "3", "--replicas", "3",
    "--fault-seed", "0", "--health-window", "2000", "--due-rate", "0.8",
    "--due-threshold", "2", "--hard-failure-rate", "0.02",
    "--degraded-escalation", "8", "--recovery", "12000",
    "--health-interval", "4000", "--request-timeout", "6000",
    "--retry-backoff", "1000", "--hedge-delay", "1000",
]


def test_fleet_campaign_reports_failover_columns(capsys):
    assert main(FLEET_CAMPAIGN_ARGV) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["replicas"] == 3
    assert row["served"] + row["shed"] + row["failed"] == row["requests"]
    assert row["rerouted"] > 0
    assert row["hedged"] > 0
    assert 0.0 < row["availability"] < 1.0
    assert "down" in row["transitions"]


def test_fleet_workers_matches_serial(capsys):
    assert main(FLEET_CAMPAIGN_ARGV) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(FLEET_CAMPAIGN_ARGV + ["--workers", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert serial == parallel


def test_fleet_resume_skips_journaled_replicas(capsys, tmp_path):
    argv = FLEET_CAMPAIGN_ARGV + ["--checkpoint-dir", str(tmp_path)]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert (tmp_path / "sweep-journal.jsonl").exists()
    assert main(argv + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == first
    assert "restored from the journal" in captured.err


def test_fleet_rejects_scenarios_without_serving_plans(capsys):
    assert main(["fleet", "--scenario", "streaming-drain"]) == 2
    assert "no serving plan" in capsys.readouterr().err
