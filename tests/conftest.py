"""Shared fixtures for the RoMe reproduction test suite."""

from __future__ import annotations

import contextlib
import io
import json
import types
import warnings

import pytest

from repro.controller.mc import ControllerConfig
from repro.core.controller import RoMeControllerConfig
from repro.core.virtual_bank import paper_vba_config
from repro.dram.timing import TimingParameters


@pytest.fixture
def timing() -> TimingParameters:
    """The paper's HBM4 timing parameters."""
    return TimingParameters()


@pytest.fixture
def small_controller_config(timing: TimingParameters) -> ControllerConfig:
    """A single-SID conventional controller (small, fast to simulate)."""
    return ControllerConfig(
        timing=timing,
        read_queue_depth=64,
        write_queue_depth=64,
        num_stack_ids=1,
        enable_refresh=False,
    )


@pytest.fixture
def rome_controller_config() -> RoMeControllerConfig:
    """A single-SID RoMe controller without refresh (fast to simulate)."""
    return RoMeControllerConfig(
        vba=paper_vba_config(),
        request_queue_depth=4,
        num_stack_ids=1,
        enable_refresh=False,
    )


@pytest.fixture(scope="session")
def bench_run(tmp_path_factory) -> types.SimpleNamespace:
    """The suite's one real ``bench-smoke`` run: small drains, permissive
    wall-clock gates (shared CI box); the evaluation-reduction and
    identity gates are deterministic, so they stay meaningful here."""
    from repro.cli import main

    out = tmp_path_factory.mktemp("bench") / "BENCH_test.json"
    argv = ["--json", "bench-smoke", "--bytes", "65536",
            "--conventional-bytes", "131072", "--repeats", "1",
            "--workers", "2", "--label", "tier1-bench",
            "--output", str(out),
            "--min-speedup", "2", "--min-conventional-speedup", "0.5",
            "--min-evaluation-reduction", "5",
            "--min-refresh-evaluation-reduction", "5",
            "--max-checkpoint-overhead", "100", "--max-obs-overhead", "100"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        exit_code = main(argv)
    return types.SimpleNamespace(
        exit_code=exit_code,
        report=json.loads(stdout.getvalue()),
        stderr=stderr.getvalue(),
        warnings=[warning.category for warning in caught],
        document=json.loads(out.read_text()),
    )
