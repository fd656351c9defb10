"""Smoke tests keeping the example scripts runnable.

The quickstart is executed end-to-end; the heavier examples are imported and
compiled so that API drift in the library breaks the build immediately.
"""

import importlib.util
import pathlib
import sys
import tempfile

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.replace(".py", ""), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_has_at_least_three_scripts():
    scripts = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 3
    assert "quickstart.py" in scripts


def test_quickstart_runs_end_to_end(capsys):
    module = _load("quickstart.py")
    module.main()
    out = capsys.readouterr().out
    assert "RoMe TPOT" in out
    assert "+12.5% bandwidth" in out


def test_dram_microbenchmark_sections_run(capsys):
    module = _load("dram_microbenchmark.py")
    module.refresh_study()
    module.overfetch_study()
    out = capsys.readouterr().out
    assert "288 ns" in out
    assert "overfetch" in out


def test_vba_design_space_measure_helper():
    module = _load("vba_design_space.py")
    from repro.core.virtual_bank import paper_vba_config

    utilization = module.measure(paper_vba_config())
    assert utilization > 0.9


def test_llm_serving_example_importable():
    module = _load("llm_serving_tpot.py")
    assert callable(module.main)


def test_llm_serving_arrivals_example_importable():
    module = _load("llm_serving_arrivals.py")
    assert callable(module.main)


def test_max_sustainable_rate_example_importable():
    module = _load("max_sustainable_rate.py")
    assert callable(module.main)
    assert module.SERVING.batch_capacity == 2


def test_fault_campaign_example_campaign_helper():
    # One cheap RoMe campaign point instead of the full grid: the helper
    # must return a deterministic result whose reliability block is live.
    module = _load("fault_campaign.py")
    assert callable(module.main)
    first = module.campaign("rome", 1e-4, "secded", seed=11, requests=2)
    second = module.campaign("rome", 1e-4, "secded", seed=11, requests=2)
    assert first == second
    stats = first.reliability
    assert stats.reads_checked > 0
    assert stats.corrected > 0
    assert 0.0 <= stats.sdc_rate <= 1.0


def test_fleet_failover_example_campaign_helper():
    # One cheap campaign point instead of the full MTBF sweep: the
    # helper must return a deterministic result whose failover path is
    # live (at least one hard failure inside the episode).
    module = _load("fleet_failover.py")
    assert callable(module.main)
    first = module.campaign(50_000, seed=0, requests=12)
    second = module.campaign(50_000, seed=0, requests=12)
    assert first == second
    assert first.replicas == 3
    assert any("down" in kinds for kinds in first.transitions)
    assert 0.0 < first.availability < 1.0
    assert first.served + first.shed + first.failed == first.requests


def test_trace_decode_serving_example_record_helper():
    # One cheap recorded episode instead of the full script: the helper
    # must return a deterministic result carrying a live trace and
    # metrics without perturbing the serving outputs.
    module = _load("trace_decode_serving.py")
    assert callable(module.main)
    first = module.record("rome", requests=4, seed=0)
    second = module.record("rome", requests=4, seed=0)
    assert first == second
    assert len(first.trace.events) > 0
    assert "serving.decode_iter" in {e.name for e in first.trace.events}
    assert "serving.running_batch" in first.metrics.names()


def test_checkpointed_long_run_example_end_to_end(capsys, monkeypatch,
                                                  tmp_path):
    # The checkpoint example is small enough to execute for real: it
    # kills and resumes a run, and asserts bit-identity itself.  Its
    # checkpoint goes to a temporary directory that it removes again.
    monkeypatch.setattr(sys, "argv", ["checkpointed_long_run.py"])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    module = _load("checkpointed_long_run.py")
    module.main()
    out = capsys.readouterr().out
    assert "bit-identical" in out
    assert "checkpointed at" in out
    assert list(tmp_path.iterdir()) == []
