"""Command-line interface for the RoMe reproduction.

Provides quick access to the main experiments without writing code:

* ``rome-repro tpot`` -- Figure 12: TPOT for HBM4 vs RoMe across batch sizes.
* ``rome-repro lbr`` -- Figure 13: channel load-balance ratio sweep.
* ``rome-repro energy`` -- Figure 14: DRAM energy breakdown at batch 256.
* ``rome-repro bandwidth`` -- cycle-level streaming-bandwidth comparison.
* ``rome-repro queue-depth`` -- request-queue-depth sensitivity.
* ``rome-repro pins`` -- Figure 10: C/A pin sweep and channel expansion.
* ``rome-repro design-space`` -- the six-point VBA design space.
* ``rome-repro trends`` -- Figure 2: HBM generation trends.
* ``rome-repro workload`` -- arrival-driven LLM serving workloads
  (decode serving, prefill-interleaved, mixed-tenant, antagonist) on the
  cycle-level controllers, with per-request latency percentiles.
* ``rome-repro trace-report`` -- span self-time profile of a trace
  exported via ``--trace-out``.
* ``rome-repro bench-smoke`` -- CI perf smoke: builds the report
  sections of :data:`repro.sim.bench.SECTIONS` and checks them against
  the gate table :data:`repro.sim.bench.GATES`.

``workload`` and ``fleet`` accept ``--trace-out``/``--metrics-out``
(plus ``--metrics-interval-ns``) to record the run through the
:mod:`repro.obs` layer: a Perfetto-loadable Chrome trace (or JSONL when
the path ends in ``.jsonl``) and windowed sim-time metric series, both
byte-deterministic across worker counts and start methods.

Sweep-style subcommands (``tpot``, ``lbr``, ``queue-depth``,
``design-space``, ``bandwidth``, ``workload``) accept ``--workers N`` to
run their independent points in up to ``N`` worker processes at a time
(one per point attempt) via :mod:`repro.sim.sweep`; ``--workers 1``
(default) is the exact in-process serial path and ``--workers 0`` means
one worker per CPU.  Results are identical at any worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional


def _print_rows(rows: List[Dict[str, Any]], as_json: bool) -> None:
    if as_json:
        print(json.dumps(rows, indent=2, default=str))
        return
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    header = "  ".join(f"{key:>18}" for key in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for key in keys:
            value = row.get(key, "")
            if isinstance(value, float):
                cells.append(f"{value:>18.4g}")
            else:
                cells.append(f"{str(value):>18}")
        print("  ".join(cells))


def _models(names: Optional[List[str]] = None):
    from repro.llm.models import MODELS, model_by_name

    if not names:
        return list(MODELS.values())
    return [model_by_name(name) for name in names]


def cmd_tpot(args: argparse.Namespace) -> int:
    from repro.llm.inference import multi_model_sweep, tpot_point

    rows = multi_model_sweep(
        tpot_point, _models(args.model), args.batches, args.sequence_length,
        workers=args.workers, fall_back_to_limit=True,
    )
    _print_rows(rows, args.json)
    return 0


def cmd_lbr(args: argparse.Namespace) -> int:
    from repro.llm.inference import lbr_point, multi_model_sweep

    rows = multi_model_sweep(
        lbr_point, _models(args.model), args.batches, args.sequence_length,
        workers=args.workers,
    )
    _print_rows(rows, args.json)
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    from repro.analysis.energy_report import energy_comparison

    rows = []
    for model in _models(args.model):
        reports = energy_comparison(model, batch=args.batch,
                                    sequence_length=args.sequence_length)
        hbm4, rome = reports["hbm4"], reports["rome"]
        rows.append(
            {
                "model": model.name,
                "hbm4_total_pj": hbm4.total_pj,
                "rome_total_pj": rome.total_pj,
                "energy_reduction": 1.0 - rome.total_pj / hbm4.total_pj,
                "act_energy_ratio": rome.act_pj / hbm4.act_pj if hbm4.act_pj else 0.0,
            }
        )
    _print_rows(rows, args.json)
    return 0


def cmd_bandwidth(args: argparse.Namespace) -> int:
    from repro.sim.runner import streaming_point
    from repro.sim.sweep import run_sweep

    journal = _resolve_journal(args)
    sweep = run_sweep(
        streaming_point,
        [("hbm4", args.bytes), ("rome", args.bytes)],
        workers=args.workers,
        journal=journal,
        point_timeout_s=args.point_timeout,
        retries=args.retries,
        on_error=args.on_error,
    )
    _report_sweep_stats(sweep.stats)
    rows = [
        {
            "system": result.name,
            "achieved_gbps": result.bandwidth.achieved_gbps,
            "utilization": result.utilization,
            "avg_read_latency_ns": result.latency.average,
        }
        for result in sweep.values
        if result is not None
    ]
    _print_rows(rows, args.json)
    return 1 if sweep.stats.failures else 0


def cmd_queue_depth(args: argparse.Namespace) -> int:
    from repro.sim.runner import queue_depth_sweep

    rows = []
    for system, depths in (("rome", args.rome_depths), ("hbm4", args.hbm4_depths)):
        sweep = queue_depth_sweep(depths, system=system, total_bytes=args.bytes,
                                  workers=args.workers)
        for depth, utilization in sweep.items():
            rows.append({"system": system, "depth": depth, "utilization": utilization})
    _print_rows(rows, args.json)
    return 0


def cmd_pins(args: argparse.Namespace) -> int:
    from repro.core.pins import ca_pin_sweep, channel_expansion, minimum_ca_pins

    rows = ca_pin_sweep()
    _print_rows(rows, args.json)
    expansion = channel_expansion()
    print()
    print(f"minimum C/A pins: {minimum_ca_pins()}")
    print(f"channel expansion: {expansion.describe()}")
    return 0


def cmd_design_space(args: argparse.Namespace) -> int:
    from repro.core.virtual_bank import design_space_summary

    if args.simulate:
        from repro.sim.runner import vba_design_space_sweep

        rows = vba_design_space_sweep(total_bytes=args.bytes,
                                      workers=args.workers)
    else:
        rows = design_space_summary()
    _print_rows(rows, args.json)
    return 0


def cmd_trends(args: argparse.Namespace) -> int:
    from repro.analysis.trends import hbm_generation_trends

    _print_rows(hbm_generation_trends(), args.json)
    return 0


def _resolve_journal(args: argparse.Namespace) -> Optional[str]:
    """Turn ``--checkpoint-dir``/``--resume`` into a sweep-journal path.

    Without ``--resume`` an existing journal is discarded (the sweep runs
    from scratch and rebuilds it); with ``--resume`` completed points in
    the journal are skipped.  ``--resume`` without ``--checkpoint-dir``
    is an error -- there is nothing to resume from.
    """
    import os

    if args.checkpoint_dir is None:
        if args.resume:
            raise SystemExit(
                "error: --resume requires --checkpoint-dir "
                "(the directory holding the sweep journal)"
            )
        return None
    os.makedirs(args.checkpoint_dir, exist_ok=True)
    journal = os.path.join(args.checkpoint_dir, "sweep-journal.jsonl")
    if not args.resume and os.path.exists(journal):
        os.remove(journal)
    return journal


def _report_sweep_stats(stats) -> None:
    """Print journal-skip and quarantine records of a hardened sweep."""
    if stats.journal_skipped:
        print(f"resumed: {stats.journal_skipped} of {stats.points} points "
              f"restored from the journal", file=sys.stderr)
    for failure in stats.failures:
        print(f"FAIL: point {failure.index} failed after "
              f"{failure.attempts} attempt(s): {failure.error}",
              file=sys.stderr)


def _obs_config(args: argparse.Namespace):
    """The :class:`~repro.obs.config.ObsConfig` implied by the obs flags
    (``None`` when neither output was requested, keeping the run on the
    exact pre-obs code paths)."""
    if not args.trace_out and not args.metrics_out:
        return None
    from repro.obs import ObsConfig

    return ObsConfig(
        trace=bool(args.trace_out),
        metrics=bool(args.metrics_out),
        metrics_interval_ns=args.metrics_interval_ns,
    )


def _write_obs(args: argparse.Namespace, result) -> None:
    """Export a result's recordings to the requested output files."""
    if args.trace_out and result.trace is not None:
        from repro.obs import write_trace

        write_trace(args.trace_out, result.trace)
        dropped = f" ({result.trace.dropped} dropped)" \
            if result.trace.dropped else ""
        print(f"trace: {len(result.trace.events)} events{dropped} -> "
              f"{args.trace_out}", file=sys.stderr)
    if args.metrics_out and result.metrics is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(result.metrics.as_dict(), sort_keys=True,
                                    separators=(",", ":")) + "\n")
        print(f"metrics: {len(result.metrics)} series -> {args.metrics_out}",
              file=sys.stderr)


def _find_max_rate(args: argparse.Namespace, spec, systems) -> int:
    """``workload --find-max-rate``: bisect per system over the --rate
    bracket; the probe journal (one per system) lives in
    --checkpoint-dir, so a killed search resumes mid-bisection."""
    import os

    from repro.workloads import find_max_sustainable_rate

    low, high = min(args.rate), max(args.rate)
    if not low < high:
        print("error: --find-max-rate needs at least two --rate values "
              "(the bracket low and high)", file=sys.stderr)
        return 2
    rows = []
    for system in systems:
        journal = None
        if args.checkpoint_dir is not None:
            os.makedirs(args.checkpoint_dir, exist_ok=True)
            journal = os.path.join(args.checkpoint_dir,
                                   f"rate-search-{system}.jsonl")
            if not args.resume and os.path.exists(journal):
                os.remove(journal)
        search = find_max_sustainable_rate(
            spec.with_system(system), low, high,
            threshold=args.min_goodput_fraction,
            journal=journal,
        )
        if search.executed_probes < len(search.probes):
            print(f"resumed: {len(search.probes) - search.executed_probes} "
                  f"of {len(search.probes)} {system} probes restored from "
                  f"the journal", file=sys.stderr)
        # Each probe is a full closed-loop episode (~seconds of wall
        # time), so its cost is worth seeing per probe: journaled
        # replays report 0.00s, which is also how a resumed search
        # shows where it saved time.
        for number, probe in enumerate(search.probes):
            verdict = "sustainable" if probe.sustainable else "unsustainable"
            print(f"probe {system}[{number}]: {probe.rate_per_s:g} req/s "
                  f"-> goodput {probe.goodput_fraction:.3f} ({verdict}), "
                  f"{probe.wall_s:.2f}s wall", file=sys.stderr)
        rows.append({
            "scenario": "max-sustainable-rate",
            "system": system,
            "max_rate_per_s": search.max_rate_per_s,
            "threshold": search.threshold,
            "probes": len(search.probes),
            "probe_rates": " ".join(f"{probe.rate_per_s:g}"
                                    for probe in search.probes),
            "probe_wall_s": sum(probe.wall_s for probe in search.probes),
        })
    _print_rows(rows, args.json)
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads import (
        ScenarioSpec,
        SLOSpec,
        available_scenarios,
        workload_sweep,
    )

    if args.scenario not in available_scenarios():
        print(f"error: unknown scenario {args.scenario!r}; known: "
              f"{', '.join(available_scenarios())}", file=sys.stderr)
        return 2
    closed_loop = args.closed_loop or args.find_max_rate
    obs = _obs_config(args)
    if obs is not None and args.find_max_rate:
        print("error: --trace-out/--metrics-out record a single run and "
              "cannot be combined with --find-max-rate", file=sys.stderr)
        return 2
    reliability = None
    if args.fault_rate > 0 or args.hard_fault_rate > 0:
        from repro.reliability import ReliabilityConfig

        reliability = ReliabilityConfig(
            seed=args.fault_seed,
            transient_ber=args.fault_rate,
            retention_ber=args.fault_rate / 4,
            hard_row_rate=args.hard_fault_rate,
            ecc_scheme=args.ecc_scheme,
            scrub_interval_ns=args.scrub,
        )
    spec = ScenarioSpec(
        scenario=args.scenario,
        rate_per_s=args.rate[0],
        num_requests=args.requests,
        seed=args.seed,
        model_name=args.model,
        enable_refresh=args.refresh,
        closed_loop=closed_loop,
        slo=(SLOSpec(ttft_ms=args.slo_ttft_ms, tpot_ms=args.slo_tpot_ms)
             if closed_loop else None),
        reliability=reliability,
        obs=obs,
    )
    systems = ("rome", "hbm4") if args.system == "both" else (args.system,)
    if args.find_max_rate:
        return _find_max_rate(args, spec, systems)
    journal = _resolve_journal(args)
    specs = [
        spec.with_rate(rate).with_system(system)
        for rate in args.rate
        for system in systems
    ]
    if obs is not None and len(specs) != 1:
        print("error: --trace-out/--metrics-out record a single run; "
              "pass one --rate value and a concrete --system",
              file=sys.stderr)
        return 2
    sweep = workload_sweep(specs, workers=args.workers, journal=journal,
                           point_timeout_s=args.point_timeout,
                           retries=args.retries, on_error=args.on_error)
    _report_sweep_stats(sweep.stats)
    rows = []
    # run_sweep returns values in input order, so each row's labels come
    # from the very spec that produced it (plus the result's own fields).
    # Quarantined points hold None and were already reported above.
    for point, result in zip(specs, sweep.values):
        if result is None:
            continue
        row = {
            "scenario": result.scenario,
            "system": result.system,
            "rate_per_s": point.rate_per_s,
            "transfers": result.transfers,
            "p50_latency_ns": result.latency.p50,
            "p99_latency_ns": result.latency.p99,
            "avg_latency_ns": result.latency.average,
            "achieved_gbps": result.bandwidth.achieved_gbps,
            "utilization": result.utilization,
            "saturated": result.overloaded,
            "evaluations": result.evaluations,
        }
        if result.slo is not None:
            row.update({
                "offered_per_s": result.offered_rate_per_s,
                "goodput_per_s": result.goodput_per_s,
                "goodput_fraction": result.goodput_fraction,
                "slo_met": result.slo_met,
                "rejected": result.rejected,
            })
        if result.reliability is not None:
            stats = result.reliability
            row.update({
                "corrected": stats.corrected,
                "due": stats.detected_uncorrectable,
                "sdc": stats.silent_miscorrects,
                "retries": stats.retries_scheduled,
                "recovered": stats.recovered_reads,
                "unrecoverable": stats.unrecoverable_reads,
                "spared_rows": stats.spared_rows,
                "offlined_banks": stats.offlined_banks,
                "scrub_passes": stats.scrub_passes,
                "sdc_rate": stats.sdc_rate,
            })
        rows.append(row)
    _print_rows(rows, args.json)
    if obs is not None and sweep.values and sweep.values[0] is not None:
        _write_obs(args, sweep.values[0])
    return 1 if sweep.stats.failures else 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import (
        FleetSpec,
        ReplicaFaultConfig,
        RouterPolicy,
        run_fleet,
    )
    from repro.workloads import SLOSpec, ScenarioSpec
    from repro.workloads.scenarios import SERVING_PLANS

    if args.scenario not in SERVING_PLANS:
        print(f"error: scenario {args.scenario!r} has no serving plan; "
              f"closed-loop scenarios: {', '.join(sorted(SERVING_PLANS))}",
              file=sys.stderr)
        return 2
    if args.replicas < 1:
        print("error: --replicas must be at least 1", file=sys.stderr)
        return 2
    base = ScenarioSpec(
        scenario=args.scenario,
        system=args.system,
        rate_per_s=args.rate,
        num_requests=args.requests,
        seed=args.seed,
        model_name=args.model,
        closed_loop=True,
        slo=SLOSpec(ttft_ms=args.slo_ttft_ms, tpot_ms=args.slo_tpot_ms),
        obs=_obs_config(args),
    )
    spec = FleetSpec(
        base=base,
        num_replicas=args.replicas,
        faults=ReplicaFaultConfig(
            seed=args.fault_seed,
            window_ns=args.health_window,
            due_rate=args.due_rate,
            due_threshold=args.due_threshold,
            hard_failure_rate=args.hard_failure_rate,
            degraded_escalation=args.degraded_escalation,
            recovery_ns=args.recovery,
        ),
        router=RouterPolicy(
            health_check_interval_ns=args.health_interval,
            request_timeout_ns=args.request_timeout,
            max_retries=args.max_retries,
            retry_backoff_ns=args.retry_backoff,
            hedge_delay_ns=args.hedge_delay,
            max_admissions_per_window=args.max_admissions,
        ),
    )
    journal = _resolve_journal(args)
    result = run_fleet(spec, workers=args.workers, journal=journal)
    if result.stats is not None:
        _report_sweep_stats(result.stats)
    row = {
        "scenario": result.scenario,
        "system": result.system,
        "replicas": result.replicas,
        "requests": result.requests,
        "served": result.served,
        "shed": result.shed,
        "failed": result.failed,
        "slo_met": result.slo_met,
        "availability": result.availability,
        "offered_per_s": result.offered_rate_per_s,
        "goodput_per_s": result.goodput_per_s,
        "goodput_fraction": result.goodput_fraction,
        "rerouted": result.counters.rerouted,
        "hedged": result.counters.hedged,
        "timeouts": result.counters.timeouts,
        "p99_ttft_ns": result.ttft.p99,
        "transitions": " ".join(
            f"r{replica}:{','.join(kinds) or '-'}"
            for replica, kinds in enumerate(result.transitions)),
    }
    _print_rows([row], args.json)
    if not args.json:
        print(result.summary())
    _write_obs(args, result)
    return 0


def cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import trace_report

    rows = trace_report(args.trace_file, top=args.top)
    if not rows:
        print("(no spans in trace)", file=sys.stderr)
        return 0
    _print_rows(rows, args.json)
    return 0


def cmd_bench_smoke(args: argparse.Namespace) -> int:
    import datetime
    import os
    import pathlib

    from repro import __version__
    from repro.sim import bench

    for flag, value, floor, why in (
        ("--bytes", args.bytes, 4096, " (one effective row)"),
        ("--conventional-bytes", args.conventional_bytes, 4096,
         " (one 4 KiB request)"),
        ("--repeats", args.repeats, 1, ""),
    ):
        if value < floor:
            print(f"error: {flag} must be at least {floor}{why}",
                  file=sys.stderr)
            return 2
    parameters = {
        "bytes": args.bytes,
        "conventional_bytes": args.conventional_bytes,
        "repeats": args.repeats,
    }
    sections = {key: produce(parameters) for key, produce in bench.SECTIONS}
    report = {
        "meta": {
            "schema": 9,
            "generated_utc": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "package_version": __version__,
            "cpu_count": os.cpu_count(),
            "label": args.label,
            "parameters": parameters,
        },
        **sections,
    }
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        for key, rows in sections.items():
            print(f"{key}:")
            _print_rows(rows if isinstance(rows, list) else [rows], False)
            print()

    thresholds = {gate.flag: getattr(args, gate.name.replace("-", "_"))
                  for gate in bench.GATES if gate.default is not None}
    failures = bench.evaluate_gates(report, thresholds)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)

    # Persist the full document so the perf trajectory accumulates; one
    # file per UTC day (reruns overwrite, so the day's *latest* run wins).
    # ``--output ''`` disables the write.
    out = args.output
    if out is None:
        date = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%d")
        out = f"BENCH_{date}.json"
    if out:
        report["gates_passed"] = not failures
        pathlib.Path(out).write_text(
            json.dumps(report, indent=2, default=str) + "\n"
        )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="rome-repro",
        description="Reproduction experiments for RoMe (HPCA 2026).",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--json", action="store_true", help="emit JSON rows")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", action="append",
                       help="model name (repeatable); default: all three")
        p.add_argument("--sequence-length", type=int, default=8192)

    def add_workers_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for independent sweep points "
                            "(1 = serial, 0 = one per CPU); results are "
                            "identical at any worker count")

    def add_obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record a deterministic event trace and write "
                            "it here: Perfetto-loadable Chrome trace-event "
                            "JSON, or JSONL when the path ends in .jsonl")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="record windowed sim-time metric series and "
                            "write them here as JSON")
        p.add_argument("--metrics-interval-ns", type=int, default=1_000,
                       help="metric sampling-window width in simulated "
                            "nanoseconds")

    def add_fault_tolerance_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--point-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock deadline per sweep point attempt; "
                            "a point still running at the deadline is "
                            "killed and counts as a failed attempt")
        p.add_argument("--retries", type=int, default=0,
                       help="failed attempts per point beyond the first "
                            "(deterministic backoff between attempts)")
        p.add_argument("--on-error", choices=["raise", "quarantine"],
                       default="raise",
                       help="'raise' aborts on the first exhausted point; "
                            "'quarantine' keeps going and reports partial "
                            "results plus per-point failure records "
                            "(exit code 1 when any point failed)")
        p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for the append-only sweep journal "
                            "of completed point values (created if "
                            "missing)")
        p.add_argument("--resume", action="store_true",
                       help="skip points already completed in the "
                            "--checkpoint-dir journal from a previous "
                            "(killed) run instead of starting over")

    p = sub.add_parser("tpot", help="Figure 12: TPOT across batch sizes")
    add_model_args(p)
    add_workers_arg(p)
    p.add_argument("--batches", type=int, nargs="+",
                   default=[8, 16, 32, 64, 128, 256, 512, 1024])
    p.set_defaults(func=cmd_tpot)

    p = sub.add_parser("lbr",
                       help="Figure 13: channel load balance ratio "
                            "across batch sizes")
    add_model_args(p)
    add_workers_arg(p)
    p.add_argument("--batches", type=int, nargs="+",
                   default=[8, 16, 32, 64, 128, 256, 512, 1024])
    p.set_defaults(func=cmd_lbr)

    p = sub.add_parser("energy",
                       help="Figure 14: DRAM energy breakdown at batch 256")
    add_model_args(p)
    p.add_argument("--batch", type=int, default=256)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("bandwidth",
                       help="Section VI-A: cycle-level streaming bandwidth, "
                            "HBM4 vs RoMe")
    add_workers_arg(p)
    add_fault_tolerance_args(p)
    p.add_argument("--bytes", type=int, default=256 * 1024)
    p.set_defaults(func=cmd_bandwidth)

    p = sub.add_parser("queue-depth",
                       help="Section V-A: request-queue depth sensitivity")
    add_workers_arg(p)
    p.add_argument("--bytes", type=int, default=128 * 1024)
    p.add_argument("--rome-depths", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--hbm4-depths", type=int, nargs="+", default=[8, 16, 32, 64])
    p.set_defaults(func=cmd_queue_depth)

    p = sub.add_parser("pins",
                       help="Figure 10 + Section IV-E: C/A pin sweep and "
                            "channel expansion")
    p.set_defaults(func=cmd_pins)

    p = sub.add_parser("design-space",
                       help="Section IV-B: the six-point VBA design space")
    add_workers_arg(p)
    p.add_argument("--simulate", action="store_true",
                   help="run the cycle-level streaming drain per design "
                        "point (utilization column) instead of the "
                        "analytic summary table")
    p.add_argument("--bytes", type=int, default=96 * 4096,
                   help="drain size per simulated design point")
    p.set_defaults(func=cmd_design_space)

    p = sub.add_parser("trends", help="Figure 2: HBM generation trends")
    p.set_defaults(func=cmd_trends)

    p = sub.add_parser(
        "workload",
        help="arrival-driven LLM serving workloads (Section VI serving "
             "traffic) on the cycle-level controllers: per-request latency "
             "percentiles, achieved bandwidth, and a saturation flag",
    )
    add_workers_arg(p)
    add_fault_tolerance_args(p)
    add_obs_args(p)
    p.add_argument("--scenario", default="decode-serving",
                   help="registered scenario name (streaming-drain, "
                        "decode-serving, prefill-interleaved, mixed-tenant, "
                        "antagonist)")
    p.add_argument("--rate", type=float, nargs="+", default=[200.0],
                   help="arrival rate(s) in requests per simulated second; "
                        "several values form a sweep whose points shard "
                        "across --workers")
    p.add_argument("--model", default="deepseek-v3",
                   help="LLM whose tensor populations drive the serving "
                        "traffic (Figure 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="arrival-process seed; equal seeds compile "
                        "bit-identical schedules in any process")
    p.add_argument("--requests", type=int, default=32,
                   help="number of serving requests per point")
    p.add_argument("--system", choices=["both", "rome", "hbm4"],
                   default="both",
                   help="which controller(s) to run each point on")
    p.add_argument("--refresh", action="store_true",
                   help="enable per-bank refresh in the simulated "
                        "controllers")
    p.add_argument("--closed-loop", action="store_true",
                   help="run serving scenarios closed-loop: each decode "
                        "iteration launches only after the previous "
                        "iteration's memory traffic completes; adds "
                        "SLO-gated goodput columns")
    p.add_argument("--slo-ttft-ms", type=float, default=10.0,
                   help="closed-loop SLO: time-to-first-token target in "
                        "milliseconds (from request arrival)")
    p.add_argument("--slo-tpot-ms", type=float, default=1.0,
                   help="closed-loop SLO: time-per-output-token target in "
                        "milliseconds")
    p.add_argument("--fault-rate", type=float, default=0.0, metavar="BER",
                   help="transient bit-error rate per read (retention BER "
                        "is derived at a quarter of it); 0 keeps the ideal "
                        "memory, bit-identical to runs without fault flags")
    p.add_argument("--hard-fault-rate", type=float, default=0.0,
                   metavar="RATE",
                   help="probability a touched row is stuck-at-fault "
                        "(sticky per (seed, bank, row); drives the "
                        "retry/spare/offline RAS ladder)")
    p.add_argument("--ecc-scheme", choices=["secded", "rs", "none"],
                   default="secded",
                   help="ECC scheme classifying faulty reads: SEC-DED, "
                        "symbol-based RS, or no code (SDC-prone)")
    p.add_argument("--scrub", type=int, default=0, metavar="NS",
                   help="patrol-scrub period in simulated nanoseconds "
                        "(0 disables scrubbing)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="device-fault model seed; equal seeds draw "
                        "bit-identical fault campaigns in any process")
    p.add_argument("--find-max-rate", action="store_true",
                   help="instead of sweeping each --rate value, bisect the "
                        "max sustainable arrival rate between the smallest "
                        "and largest --rate (implies --closed-loop; with "
                        "--checkpoint-dir the probe journal makes the "
                        "search resumable)")
    p.add_argument("--min-goodput-fraction", type=float, default=0.9,
                   help="goodput/offered fraction a --find-max-rate probe "
                        "must reach to count as sustainable")
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser(
        "fleet",
        help="multi-replica serving with health-gated failover: one "
             "traffic stream routed across N seeded closed-loop replicas "
             "under a replica-fault process, with retries, hedging, "
             "admission shedding, and fleet-level availability/goodput",
    )
    add_workers_arg(p)
    add_obs_args(p)
    p.add_argument("--scenario", default="decode-serving",
                   help="closed-loop scenario whose serving plan feeds the "
                        "fleet (any scenario with a registered plan)")
    p.add_argument("--system", choices=["rome", "hbm4"], default="rome",
                   help="controller every replica runs on")
    p.add_argument("--rate", type=float, default=200_000.0,
                   help="fleet-wide arrival rate in requests per simulated "
                        "second (split across replicas by the router)")
    p.add_argument("--requests", type=int, default=32,
                   help="number of requests in the traffic stream")
    p.add_argument("--seed", type=int, default=0,
                   help="arrival-process seed of the base scenario")
    p.add_argument("--model", default="deepseek-v3",
                   help="LLM whose tensor populations drive the serving "
                        "traffic")
    p.add_argument("--replicas", type=int, default=3,
                   help="number of serving replicas (each one full "
                        "TP/DP group)")
    p.add_argument("--slo-ttft-ms", type=float, default=10.0,
                   help="time-to-first-token SLO target in milliseconds, "
                        "measured from fleet arrival (retries count)")
    p.add_argument("--slo-tpot-ms", type=float, default=1.0,
                   help="time-per-output-token SLO target in milliseconds")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="replica-fault process seed; equal seeds draw "
                        "bit-identical health timelines in any process")
    p.add_argument("--health-window", type=int, default=100_000,
                   metavar="NS",
                   help="health window: device-fault pressure (DUE/SDC "
                        "counts, bank offlining) is drawn per window")
    p.add_argument("--due-rate", type=float, default=0.0,
                   help="Poisson mean of detected-uncorrectable errors "
                        "per health window (0 = no DUE pressure)")
    p.add_argument("--due-threshold", type=int, default=3,
                   help="DUE count in one window that degrades a replica "
                        "(0 disables the trigger)")
    p.add_argument("--hard-failure-rate", type=float, default=0.0,
                   help="per-window probability of a hard replica failure "
                        "(escalated by --degraded-escalation while "
                        "degraded)")
    p.add_argument("--degraded-escalation", type=float, default=4.0,
                   help="multiplier on --hard-failure-rate while a replica "
                        "is degraded")
    p.add_argument("--recovery", type=int, default=0, metavar="NS",
                   help="repair time after a hard failure; 0 keeps a down "
                        "replica down for the rest of the episode")
    p.add_argument("--health-interval", type=int, default=50_000,
                   metavar="NS",
                   help="router health-check period; the routing view "
                        "lags true replica health by up to one period")
    p.add_argument("--request-timeout", type=int, default=200_000,
                   metavar="NS",
                   help="how long the router waits on a lost request "
                        "before re-routing it")
    p.add_argument("--max-retries", type=int, default=2,
                   help="re-route attempts after the first send "
                        "(0 = a lost request just fails)")
    p.add_argument("--retry-backoff", type=int, default=25_000,
                   metavar="NS",
                   help="linear backoff between re-route attempts")
    p.add_argument("--hedge-delay", type=int, default=None, metavar="NS",
                   help="send a hedge copy this long after routing to a "
                        "degraded-in-view replica (omit to disable "
                        "hedging)")
    p.add_argument("--max-admissions", type=int, default=None, metavar="N",
                   help="admission cap per replica per health window; "
                        "excess requests are shed (omit to disable "
                        "shedding)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="directory for the append-only journal of "
                        "completed replica episodes (created if missing)")
    p.add_argument("--resume", action="store_true",
                   help="skip replicas already completed in the "
                        "--checkpoint-dir journal from a previous "
                        "(killed) campaign instead of starting over")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "trace-report",
        help="span self-time profile of a trace exported via --trace-out: "
             "top-N span names by self time (duration minus directly "
             "nested child spans on the same track)",
    )
    p.add_argument("trace_file",
                   help="exported trace file (Chrome trace-event JSON or "
                        "JSONL)")
    p.add_argument("--top", type=int, default=10,
                   help="number of span names to show")
    p.set_defaults(func=cmd_trace_report)

    from repro.sim.bench import GATES, SECTIONS

    p = sub.add_parser(
        "bench-smoke",
        help="CI perf smoke: measures the "
             + ", ".join(key for key, _ in SECTIONS)
             + " sections, checks every bench gate, and writes "
             "BENCH_<UTC-date>.json stamped with run metadata",
    )
    p.add_argument("--bytes", type=int, default=128 * 1024,
                   help="streaming drain size for the RoMe comparison")
    p.add_argument("--conventional-bytes", type=int, default=512 * 1024,
                   help="streaming drain size for the conventional "
                        "event-core gates (the paper's headline saturation "
                        "scenario)")
    p.add_argument("--repeats", type=int, default=2)
    for gate in GATES:
        if gate.default is not None:
            p.add_argument(gate.flag, type=float, default=gate.default,
                           help=gate.help)
    p.add_argument("--label", default=None,
                   help="free-form label stamped into the perf document's "
                        "metadata (e.g. the tier-1 commit under test)")
    p.add_argument("--output", default=None,
                   help="path for the JSON perf document (default: "
                        "BENCH_<UTC-date>.json in the current directory; "
                        "'' disables the write)")
    p.set_defaults(func=cmd_bench_smoke)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
