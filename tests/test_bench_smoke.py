"""Tier-1 checks of the ``bench-smoke`` CI gate.

One real run (the ``bench_run`` fixture) backs every check on the perf
document.  The gate table is checked on canned reports built from the
committed ``BENCH_20260807.json``, and the CLI's exit and validation
paths run with the section producers stubbed, simulating nothing.
"""

import copy
import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.sim import bench
from repro.sim.bench import GATES, default_thresholds, evaluate_gates

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMITTED = json.loads((REPO_ROOT / "BENCH_20260807.json").read_text())


def _assert_report_schema(report):
    """The perf-document schema the in-repo trajectory must satisfy.

    Each schema from 3 to 8 adds one section: ``workload`` (3),
    ``checkpoint`` (4), ``max_sustainable_rate`` (5), ``reliability``
    (6), ``fleet`` (7) and ``observability`` (8).  Schema 9 drops the
    ``sweep`` and ``cache`` sections and the ``workers`` parameter.  The
    identity flags, and the facts behind them, are the gate table's
    business, checked on every schema-8 document.
    """
    assert isinstance(report["gates_passed"], bool)
    meta = report["meta"]
    assert meta["schema"] >= 2
    assert isinstance(meta["generated_utc"], str) and meta["generated_utc"]
    assert isinstance(meta["package_version"], str)
    assert isinstance(meta["cpu_count"], int) and meta["cpu_count"] >= 1
    assert meta["label"] is None or isinstance(meta["label"], str)
    knobs = ("bytes", "conventional_bytes", "repeats")
    if meta["schema"] <= 8:
        knobs += ("workers",)
    for knob in knobs:
        assert isinstance(meta["parameters"][knob], int)
    assert {row["system"] for row in report["core"]} == {"rome", "hbm4"}
    for key, scenario in (
        ("streaming_conventional", "streaming_conventional"),
        ("streaming_conventional_refresh", "streaming_conventional_refresh"),
        ("rome_refresh", "rome_refresh"),
    ):
        row = report[key]
        assert row["scenario"] == scenario
        assert row["tick_evaluations"] >= row["event_evaluations"] > 0
        assert row["evaluation_reduction"] > 0
    assert report["streaming_conventional_refresh"]["refreshes"] > 0
    if meta["schema"] >= 3:
        workload = report["workload"]
        assert {row["system"] for row in workload} == {"rome", "hbm4"}
        for row in workload:
            assert row["scenario"] == "workload_decode_serving"
            assert row["tick_evaluations"] >= row["event_evaluations"] > 0
            assert 0.0 < row["bandwidth_fraction"] <= 1.0
            assert isinstance(row["saturated"], bool)
    if meta["schema"] >= 4:
        checkpoint = report["checkpoint"]
        assert {row["system"] for row in checkpoint} == {"rome", "hbm4"}
        for row in checkpoint:
            assert row["scenario"] == "checkpoint"
            assert row["snapshot_bytes"] > 0
            assert row["snapshot_ms"] >= 0 and row["restore_ms"] >= 0
            assert row["overhead_fraction"] >= 0
            assert row["refreshes"] > 0
            assert row["simulated_ns"] > 0
    if meta["schema"] >= 5:
        rate_rows = report["max_sustainable_rate"]
        assert {row["system"] for row in rate_rows} == {"rome", "hbm4"}
        for row in rate_rows:
            assert row["scenario"] == "max_sustainable_rate"
            assert 0.0 < row["goodput_fraction"] <= 1.0
            assert row["probes"] >= 1
            assert 0.0 < row["threshold"] <= 1.0
    if meta["schema"] >= 6:
        reliability = report["reliability"]
        assert {row["system"] for row in reliability} == {"rome", "hbm4"}
        for row in reliability:
            assert row["scenario"] == "reliability"
            assert row["reads_checked"] > 0
            assert row["corrected"] > 0
            assert row["due"] > 0
            assert row["retries"] > 0
            assert row["scrub_passes"] > 0
            assert 0.0 <= row["sdc_rate"] <= 1.0
    if meta["schema"] >= 7:
        fleet = report["fleet"]
        scenarios = {row["scenario"] for row in fleet}
        assert {"fleet-zero-fault", "fleet-failover"} <= scenarios
        for row in fleet:
            assert row["replicas"] >= 1
            assert row["requests"] > 0
            assert 0.0 < row["availability"] <= 1.0
            assert row["goodput_per_s"] >= 0.0
    if meta["schema"] >= 8:
        observability = report["observability"]
        assert {row["target"] for row in observability} \
            == {"rome", "hbm4", "fleet"}
        for row in observability:
            assert row["trace_events"] > 0
            assert row["metric_series"] > 0
            assert row["overhead_x"] > 0.0
    if meta["schema"] <= 8:
        assert {row["phase"] for row in report["sweep"]} == {"cold", "warm"}
        assert report["cache"]["cold_ms"] > 0


def test_bench_smoke_gates_pass_and_write_perf_document(bench_run):
    assert bench_run.exit_code == 0
    assert "FAIL" not in bench_run.stderr
    report = bench_run.document
    assert report["gates_passed"] is True
    _assert_report_schema(report)
    assert report["meta"]["schema"] == 9
    assert list(report) == [
        "meta", "core", "streaming_conventional",
        "streaming_conventional_refresh", "rome_refresh", "workload",
        "max_sustainable_rate", "checkpoint", "reliability", "fleet",
        "observability", "gates_passed"]
    # --json prints the same document, minus the verdict.
    del report["gates_passed"]
    assert bench_run.report == report
    # The tick core evaluates once per simulated nanosecond.
    for key in ("streaming_conventional", "streaming_conventional_refresh"):
        assert report[key]["tick_evaluations"] == report[key]["simulated_ns"]
    assert all(row["saturated"] for row in report["workload"])


def test_rate_search_rows_count_scheduler_evaluations(bench_run):
    for row in bench_run.document["max_sustainable_rate"]:
        assert row["evaluations"] >= row["probes"] > 0


def test_bench_smoke_label_and_parameters_are_stamped(bench_run):
    meta = bench_run.document["meta"]
    assert meta["label"] == "tier1-bench"
    assert meta["parameters"] == {"bytes": 65536,
                                  "conventional_bytes": 131072,
                                  "repeats": 1}


def test_bench_smoke_emits_no_deprecation_warnings(bench_run):
    assert not [category for category in bench_run.warnings
                if issubclass(category, (DeprecationWarning, FutureWarning))]


def test_committed_bench_trajectory_matches_schema():
    """Every BENCH_<date>.json committed at the repo root must stay
    machine-readable under the report schema."""
    documents = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert documents, "no committed BENCH_<date>.json trajectory found"
    for document in documents:
        _assert_report_schema(json.loads(document.read_text()))


# ------------------------------------------------------------ gate table


def test_committed_document_passes_the_gate_table():
    assert COMMITTED["gates_passed"] is True
    assert evaluate_gates(COMMITTED, default_thresholds()) == []


#: One mutation per gate of the first row the gate selects in the
#: committed document; each must fail that gate alone.
MUTATIONS = {
    "min-speedup": {"speedup": 1.0},
    "min-conventional-speedup": {"speedup": 1.0},
    "min-evaluation-reduction": {"evaluation_reduction": 2.0},
    "min-refresh-evaluation-reduction": {"evaluation_reduction": 2.0},
    "min-workload-bandwidth-fraction": {"bandwidth_fraction": 0.25},
    "min-goodput-fraction": {"max_rate_per_s": 0.0, "goodput_fraction": 0.0},
    "checkpoint-identical": {"identical": False},
    "max-checkpoint-overhead": {"overhead_fraction": 2.5},
    "zero-rate-identical": {"zero_rate_identical": False},
    "fault-campaign-identical": {"campaign_identical": False},
    "fleet-zero-fault-identical": {"zero_fault_identical": False},
    "fleet-campaign-identical": {"campaign_identical": False},
    "obs-off-identical": {"obs_off_identical": False},
    "obs-on-deterministic": {"obs_on_deterministic": False},
    "max-obs-overhead": {"overhead_x": 3.0},
}


def test_mutations_cover_every_gate():
    assert list(MUTATIONS) == [gate.name for gate in GATES]
    assert len(GATES) == 15 and len(default_thresholds()) == 8


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_each_gate_fails_alone_on_its_mutation(gate):
    report = copy.deepcopy(COMMITTED)
    rows = report[gate.section]
    row = next(row for row in (rows if isinstance(rows, list) else [rows])
               if gate.select is None or row[gate.select[0]] == gate.select[1])
    row.update(MUTATIONS[gate.name])
    thresholds = default_thresholds()
    assert evaluate_gates(report, thresholds) == [gate.message.format(
        row=row, threshold=thresholds.get(gate.flag), flag=gate.flag)]
    if gate.default is not None:
        # A threshold of 0 disables a tunable gate.
        assert evaluate_gates(report, {**thresholds, gate.flag: 0.0}) == []


@pytest.mark.parametrize("scenario, field", [
    ("fleet-zero-fault", "zero_fault_identical"),
    ("fleet-failover", "campaign_identical"),
])
def test_fleet_row_missing_its_identity_field_raises(scenario, field):
    report = copy.deepcopy(COMMITTED)
    (row,) = [row for row in report["fleet"] if row["scenario"] == scenario]
    del row[field]
    with pytest.raises(KeyError, match=field):
        evaluate_gates(report, default_thresholds())


def test_gate_with_no_selected_row_raises():
    report = copy.deepcopy(COMMITTED)
    report["fleet"] = [row for row in report["fleet"]
                       if row["scenario"] != "fleet-failover"]
    with pytest.raises(ValueError, match="fleet-campaign-identical"):
        evaluate_gates(report, default_thresholds())


def test_readme_gate_table_lists_every_gate():
    rows = re.findall(r"^\| [^|]+ \| (—|`--[a-z-]+`) \| ([^|]+) \|$",
                      (REPO_ROOT / "README.md").read_text(), re.MULTILINE)
    assert {flag.strip("`"): float(re.match(r"[0-9.]+", default)[0])
            for flag, default in rows if flag != "—"} == default_thresholds()
    assert [default for flag, default in rows if flag == "—"] \
        == ["always on"] * sum(gate.default is None for gate in GATES)


# ------------------------------------------------- CLI without simulation


def test_bench_smoke_exits_nonzero_on_gate_failure(capsys, monkeypatch,
                                                    tmp_path):
    monkeypatch.setattr(bench, "SECTIONS", [
        (key, lambda parameters, key=key: COMMITTED[key])
        for key, _ in bench.SECTIONS])
    out = tmp_path / "BENCH_fail.json"
    assert main(["--json", "bench-smoke", "--min-speedup", "1e9",
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("FAIL: event core speedup 142.3x is below the "
                   "--min-speedup gate of 1e+09x\n")
    assert json.loads(out.read_text())["gates_passed"] is False


@pytest.mark.parametrize("flag, value, message", [
    ("--bytes", "4095", "--bytes must be at least 4096"),
    ("--conventional-bytes", "0",
     "--conventional-bytes must be at least 4096"),
    ("--repeats", "0", "--repeats must be at least 1"),
])
def test_bench_smoke_rejects_bad_sizes_before_simulating(
        capsys, monkeypatch, tmp_path, flag, value, message):
    def simulate(parameters):
        raise AssertionError("bench-smoke simulated despite a bad argument")

    monkeypatch.setattr(bench, "SECTIONS", [("core", simulate)])
    out = tmp_path / "BENCH_bad.json"
    assert main(["bench-smoke", flag, value, "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
