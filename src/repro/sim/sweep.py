"""Process-parallel, fault-tolerant sweep runner for independent points.

Every headline experiment in the paper -- TPOT (Figure 12), LBR
(Figure 13), queue-depth sensitivity (Section V-A), the VBA design space
(Section IV-B) -- is a *sweep*: many independent simulation or model
evaluations over batch sizes, queue depths, or controller configurations.
This module runs such sweeps, optionally across worker processes, and
reports aggregate statistics.

Sweep points may be load-then-drain measurements *or* arrival-driven
workloads: a workload point is a picklable
:class:`~repro.workloads.scenarios.ScenarioSpec` whose schedule is
recompiled deterministically inside the worker (seeded arrival
processes), so both families shard identically and ``workers=1`` stays
bit-identical to any parallel run.

One executor
------------
Every point attempt goes through one attempt loop with one retry,
quarantine, journal and raise policy.  Only *where* an attempt runs
varies:

* **in a child process** -- a fresh process and pipe per attempt, at
  most ``workers`` at a time, killed at an optional wall-clock deadline
  -- when ``fn`` and the first point pickle and either more than one
  worker has more than one point to run, or ``point_timeout_s`` or
  ``fault_plan`` asks for isolation;
* **inline**, in the calling process, in every other case.  The default
  ``workers=1`` sweep is exactly a hand-written loop: nothing is pickled
  or probed.

Guarantees
----------
*Deterministic ordering.*  ``run_sweep`` returns one value per input
point, in input order, regardless of worker count or completion order.

*No silent fallbacks.*  An unpicklable function or point at
``workers > 1`` runs inline, and the stats record ``parallel=False``
with ``fallback_reason="unpicklable function or point"``; with a
timeout or fault plan, which need a child process, it raises
``ValueError`` instead.  An ``OSError`` starting a child runs the rest of
the sweep inline, again with the reason recorded.

*One raise rule.*  Under ``on_error="raise"`` the first point to
exhaust its attempts stops new points from starting; attempts already
running, and their retries, settle; then the *lowest-index* exhausted
point raises.  Points start in index order, so that is the same point
at any worker count.  It raises its own exception when one came back
(unpickled from the child); kills, timeouts, injected faults and
unpicklable results raise :class:`SweepPointError`.

*Fault tolerance.*  Failed attempts retry with a deterministic linear
backoff (``retries``, ``backoff_s``); under ``on_error="quarantine"`` the
sweep returns partial results with structured :class:`PointFailure`
records instead of raising.  :class:`FaultPlan` injects deterministic
worker kills, delays, and exceptions so every failure path is testable.

*Resumability.*  Passing ``journal=<path>`` keeps an append-only on-disk
journal of completed point values keyed by a content hash of
``(fn, point)``; a re-run of a killed sweep skips finished points.

Two levels of parallelism are offered:

* :func:`run_sweep` -- shard independent sweep *points* across workers
  (one simulation per point);
* :func:`run_system_until_idle_result` -- shard the per-channel
  *controllers* of one multi-channel memory system through the same
  executor (the controllers are independent between arrival points; the
  engine's ``advance_to``/``next_event_ns`` protocol is the cut point).
"""

from __future__ import annotations

import base64
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.reliability.taxonomy import HarnessFaultKind

__all__ = [
    "FaultInjection",
    "FaultPlan",
    "HarnessFaultKind",
    "InjectedFault",
    "PointFailure",
    "SweepPointError",
    "SweepResult",
    "SweepStats",
    "SystemRunResult",
    "resolve_workers",
    "run_sweep",
    "run_system_until_idle_result",
]

#: Exit code a :class:`FaultPlan` ``"kill"`` injection dies with (the
#: conventional SIGKILL-style code, chosen so failure records are
#: deterministic across platforms and worker counts).
_KILL_EXIT_CODE = 137


def _picklable(*objects: Any) -> bool:
    """Whether every object survives pickling (child-transport probe)."""
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request.

    ``None`` or any value < 1 means "one worker per available CPU"
    (``os.cpu_count()``); positive values are taken as-is.
    """
    if workers is None or workers < 1:
        return os.cpu_count() or 1
    return workers


# ----------------------------------------------------------- fault injection


class InjectedFault(RuntimeError):
    """The exception a :class:`FaultPlan` ``"raise"`` injection raises."""


class SweepPointError(RuntimeError):
    """A sweep point exhausted its retry budget under ``on_error="raise"``
    without an exception of its own to raise (killed, timed out, injected
    fault, or unpicklable result).

    Carries the structured :class:`PointFailure` record as ``failure``.
    """

    def __init__(self, failure: "PointFailure") -> None:
        super().__init__(
            f"sweep point {failure.index} failed after "
            f"{failure.attempts} attempt(s): {failure.error}"
        )
        self.failure = failure


@dataclass(frozen=True)
class FaultInjection:
    """One planned fault: what happens to ``index`` on listed attempts.

    ``action`` is a :class:`repro.reliability.taxonomy.HarnessFaultKind`
    (plain strings are accepted and normalized): ``"raise"`` (the worker
    raises :class:`InjectedFault`), ``"kill"`` (the worker process dies
    with ``os._exit`` before reporting anything -- the hard-crash path),
    or ``"delay"`` (the worker sleeps ``delay_s`` before running the
    point, which trips per-point timeouts when ``delay_s`` exceeds them).
    ``attempts`` holds 1-based attempt numbers; an injection listing only
    attempt 1 makes the first try fail and every retry succeed.
    """

    index: int
    action: HarnessFaultKind = HarnessFaultKind.RAISE
    attempts: Tuple[int, ...] = (1,)
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        try:
            normalized = HarnessFaultKind(self.action)
        except ValueError:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"expected 'raise', 'kill', or 'delay'"
            ) from None
        object.__setattr__(self, "action", normalized)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into a sweep.

    Plans are plain frozen data, so they pickle into worker processes and
    two runs with the same plan fail identically -- the tests use this to
    exercise every failure path of :func:`run_sweep` deterministically.
    Build one explicitly from :class:`FaultInjection` records or
    seed-driven via :meth:`seeded`.
    """

    injections: Tuple[FaultInjection, ...] = ()

    def for_attempt(self, index: int,
                    attempt: int) -> Optional[FaultInjection]:
        """The injection hitting ``(point index, 1-based attempt)``."""
        for injection in self.injections:
            if injection.index == index and attempt in injection.attempts:
                return injection
        return None

    @classmethod
    def seeded(cls, seed: int, num_points: int,
               kill_fraction: float = 0.0,
               raise_fraction: float = 0.0,
               delay_fraction: float = 0.0,
               delay_s: float = 0.0,
               attempts: Tuple[int, ...] = (1,)) -> "FaultPlan":
        """Draw a plan from ``random.Random(seed)``: each point is killed,
        raised on, or delayed with the given probabilities (at most one
        action per point; equal seeds build equal plans anywhere)."""
        rng = random.Random(seed)
        injections: List[FaultInjection] = []
        for index in range(num_points):
            draw = rng.random()
            if draw < kill_fraction:
                action = HarnessFaultKind.KILL
            elif draw < kill_fraction + raise_fraction:
                action = HarnessFaultKind.RAISE
            elif draw < kill_fraction + raise_fraction + delay_fraction:
                action = HarnessFaultKind.DELAY
            else:
                continue
            injections.append(FaultInjection(index=index, action=action,
                                             attempts=attempts,
                                             delay_s=delay_s))
        return cls(injections=tuple(injections))


@dataclass(frozen=True)
class PointFailure:
    """One sweep point that exhausted its retry budget.

    ``error`` is the exception repr (or a normalized description for
    kills/timeouts/transport failures), chosen to be deterministic across
    worker counts and start methods; ``wall_s`` is the wall-clock spent
    across all attempts and is excluded from equality for the same reason
    ``evaluations`` is everywhere else in this tree.
    """

    index: int
    attempts: int
    error: str
    wall_s: float = field(default=0.0, compare=False)


# ------------------------------------------------------------------- results


@dataclass(frozen=True)
class SweepStats:
    """Aggregate statistics of one :func:`run_sweep` call.

    ``workers`` is the worker count actually used (after clamping to the
    point count; 1 when attempts ran inline); ``parallel`` records
    whether attempts really ran concurrently in child processes -- it is
    ``False`` for ``workers=1`` and for sweeps that ran inline instead,
    in which case ``fallback_reason`` says why.  ``evaluations`` sums the
    scheduler-evaluation counters of swept values that expose one (a
    :class:`~repro.sim.stats.SimulationResult` or a mapping with an
    ``"evaluations"`` key); it is 0 for sweeps whose points return bare
    numbers.  ``failures`` holds one :class:`PointFailure` per quarantined
    point (empty unless ``on_error="quarantine"`` saw failures), and
    ``journal_skipped`` counts points restored from the on-disk journal
    instead of being re-run.
    """

    points: int
    workers: int
    parallel: bool
    wall_s: float
    evaluations: int = 0
    failures: Tuple[PointFailure, ...] = ()
    fallback_reason: Optional[str] = None
    journal_skipped: int = 0

    @property
    def points_per_s(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.points / self.wall_s

    @property
    def points_per_s_per_worker(self) -> float:
        """Per-worker throughput (the ``bench-smoke`` headline number)."""
        if self.workers <= 0:
            return 0.0
        return self.points_per_s / self.workers


@dataclass(frozen=True)
class SweepResult:
    """Values of a sweep, in input-point order, plus run statistics.

    Under ``on_error="quarantine"`` a failed point's slot holds ``None``
    and its :class:`PointFailure` record sits in ``stats.failures``.
    """

    values: Tuple[Any, ...]
    stats: SweepStats

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]


def _evaluations_of(value: Any) -> int:
    """Scheduler evaluations carried by one swept value (0 if absent)."""
    if isinstance(value, Mapping):
        count = value.get("evaluations")
    else:
        count = getattr(value, "evaluations", None)
    if isinstance(count, bool) or not isinstance(count, (int, float)):
        return 0
    return int(count)


def _apply(fn: Callable[..., Any], point: Any) -> Any:
    """Call ``fn`` on one sweep point.

    Mappings expand to keyword arguments, tuples to positional arguments,
    and anything else is passed as the single positional argument -- which
    is how spec-object points travel: an arrival-driven workload point is
    a frozen :class:`~repro.workloads.scenarios.ScenarioSpec` (not a
    closure), handed whole to ``fn`` so the worker process recompiles the
    schedule from the spec's seed.
    """
    if isinstance(point, Mapping):
        return fn(**point)
    if isinstance(point, tuple):
        return fn(*point)
    return fn(point)


# ------------------------------------------------------------- sweep journal


class _SweepJournal:
    """Append-only on-disk journal of completed sweep-point values.

    One JSON line per completed point: ``{"key": <hex>, "value": <b64>}``
    where ``key`` is a SHA-256 content hash of the swept function's
    identity (module + qualname) and the pickled point, and ``value`` is
    the base64-pickled result.  Appends are flushed per point, so a sweep
    killed mid-run leaves every completed point recoverable; a torn final
    line (the kill landed mid-write) is skipped on load rather than
    poisoning the resume.  Values that refuse to pickle are simply not
    journaled (the point re-runs on resume).
    """

    def __init__(self, path: Union[str, os.PathLike],
                 fn: Callable[..., Any]) -> None:
        self.path = os.fspath(path)
        self._fn_token = (
            getattr(fn, "__module__", "") or "",
            getattr(fn, "__qualname__", None) or repr(fn),
        )

    def key(self, point: Any) -> str:
        payload = pickle.dumps((self._fn_token, point),
                               protocol=pickle.HIGHEST_PROTOCOL)
        return hashlib.sha256(payload).hexdigest()

    def load(self) -> Dict[str, Any]:
        """Completed values keyed by content hash (empty if no journal)."""
        completed: Dict[str, Any] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as stream:
                for line in stream:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        value = pickle.loads(
                            base64.b64decode(record["value"]))
                    except Exception:
                        continue  # torn or corrupt line: re-run that point
                    completed[record["key"]] = value
        except FileNotFoundError:
            pass
        return completed

    def record(self, key: str, value: Any) -> None:
        try:
            blob = base64.b64encode(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii")
        except Exception:
            return  # unpicklable value: resume will recompute it
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps({"key": key, "value": blob}) + "\n")
            stream.flush()
            os.fsync(stream.fileno())


# ----------------------------------------------------------------- attempts
#
# An attempt's outcome is ``("ok", value)`` or
# ``("error", message, exception-or-None)``, wherever it ran.


def _run_inline(fn: Callable[..., Any], point: Any) -> tuple:
    try:
        return "ok", _apply(fn, point)
    except Exception as exc:  # noqa: BLE001 - settled by the attempt loop
        return "error", repr(exc), exc


def _child_main(conn, fn: Callable[..., Any], point: Any,
                injection: Optional[FaultInjection]) -> None:
    """Child-process entry point: one attempt, reported through the pipe.

    A ``"kill"`` injection exits without reporting anything -- exactly
    what a crashed or OOM-killed worker looks like to the parent.  The
    swept function's exception travels pickled, so the parent can raise
    it as its own; an injected fault travels as its repr only.
    """
    action = injection.action if injection is not None else None
    if action == HarnessFaultKind.KILL:
        os._exit(_KILL_EXIT_CODE)
    if action == HarnessFaultKind.DELAY:
        time.sleep(injection.delay_s)
    if action == HarnessFaultKind.RAISE:
        fault = InjectedFault(
            f"injected fault at sweep point {injection.index}")
        conn.send(("error", repr(fault), None))
        return
    try:
        outcome = ("ok", _apply(fn, point))
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        try:
            blob = pickle.dumps(exc)
        except Exception:
            blob = None
        outcome = ("error", repr(exc), blob)
    try:
        conn.send(outcome)
    except Exception as exc:
        # The value itself refused to pickle.  Connection.send pickles the
        # whole message before writing, so the channel is still clean for
        # the normalized error below (normalized because reprs of
        # unpicklable objects embed memory addresses).
        conn.send(("error", f"unpicklable result ({type(exc).__name__})",
                   None))


@dataclass
class _Child:
    index: int
    attempt: int
    process: Any
    conn: Any
    started: float
    deadline: Optional[float]

    def stop(self) -> None:
        self.process.kill()
        self.process.join()
        self.conn.close()


def _launch(context, fn: Callable[..., Any], point: Any, index: int,
            attempt: int, fault_plan: Optional[FaultPlan],
            point_timeout_s: Optional[float], started: float) -> _Child:
    """Start one attempt in a fresh child process with a private pipe."""
    injection = (fault_plan.for_attempt(index, attempt)
                 if fault_plan is not None else None)
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(target=_child_main,
                              args=(child_conn, fn, point, injection))
    try:
        process.start()
    finally:
        child_conn.close()
    deadline = None if point_timeout_s is None else started + point_timeout_s
    return _Child(index=index, attempt=attempt, process=process,
                  conn=parent_conn, started=started, deadline=deadline)


def _unpickled(blob: Optional[bytes]) -> Optional[BaseException]:
    try:
        return pickle.loads(blob) if blob is not None else None
    except Exception:
        return None


def _finish(child: _Child) -> tuple:
    """Collect a child whose pipe is readable (a message, or EOF)."""
    message = None
    try:
        if child.conn.poll():
            message = child.conn.recv()
    except (EOFError, OSError):
        message = None
    except Exception as exc:
        message = ("error", f"unpicklable result ({type(exc).__name__})",
                   None)
    child.process.join()
    child.conn.close()
    if message is None:
        return ("error",
                f"worker killed (exit code {child.process.exitcode})", None)
    if message[0] == "error":
        return "error", message[1], _unpickled(message[2])
    return message


def _wait(running: Dict[int, _Child],
          point_timeout_s: Optional[float]) -> List[Tuple[_Child, tuple]]:
    """Block until a running child reports or passes its deadline; return
    the settled children with their outcomes, in launch order."""
    deadlines = [child.deadline for child in running.values()
                 if child.deadline is not None]
    timeout = (max(0.0, min(deadlines) - time.monotonic())
               if deadlines else None)
    ready = set(multiprocessing.connection.wait(
        [child.conn for child in running.values()], timeout=timeout))
    now = time.monotonic()
    settled = []
    for index, child in list(running.items()):
        if child.conn in ready:
            outcome = _finish(child)
        elif child.deadline is not None and now >= child.deadline:
            child.stop()
            outcome = ("error", f"point timed out after {point_timeout_s:g}s",
                       None)
        else:
            continue
        del running[index]
        settled.append((child, outcome))
    return settled


# ------------------------------------------------------------------ run_sweep


def run_sweep(
    fn: Callable[..., Any],
    points: Sequence[Any],
    workers: int = 1,
    *,
    point_timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.0,
    fault_plan: Optional[FaultPlan] = None,
    on_error: str = "raise",
    journal: Optional[Union[str, os.PathLike]] = None,
    start_method: Optional[str] = None,
) -> SweepResult:
    """Evaluate ``fn`` on every point of a sweep, optionally in parallel.

    Parameters
    ----------
    fn:
        The function evaluated per point.  Attempts run in child
        processes only when ``fn`` and the first point pickle (a
        module-level function); see the module docstring for when.
    points:
        Sweep points, applied per :func:`_apply` (dict -> kwargs,
        tuple -> args, scalar -> single argument).
    workers:
        Maximum concurrent child processes.  ``1`` (default) runs inline;
        values < 1 or ``None`` mean one worker per CPU.  The effective
        count never exceeds the number of points left to run.
    point_timeout_s:
        Wall-clock deadline per point *attempt*; a child still running at
        its deadline is killed and the attempt fails.  Forces child
        processes, so it requires a picklable ``fn``/point.
    retries:
        Failed attempts per point beyond the first; retries back off
        deterministically (``backoff_s * attempt`` seconds, default 0)
        and run before any later point starts.
    fault_plan:
        A :class:`FaultPlan` injecting deterministic kills, delays, or
        exceptions -- how the tests exercise every failure path.  Forces
        child processes, like ``point_timeout_s``.
    on_error:
        ``"raise"`` (default) raises the lowest-index exhausted point once
        every started attempt has settled (completed values are still
        journaled, so a resume skips them); ``"quarantine"`` returns
        partial results with ``None`` in failed slots and
        :class:`PointFailure` records in ``stats.failures``.
    journal:
        Path of an append-only on-disk journal of completed point values
        keyed by a content hash of ``(fn, point)``.  Points already in
        the journal are skipped (``stats.journal_skipped``) and newly
        completed points are appended, so a killed sweep resumes where it
        stopped.
    start_method:
        Multiprocessing start method for child processes (``None`` uses
        the platform default; results are identical either way, which is
        what lets fleet campaigns assert fork/spawn bit-identity).

    Returns
    -------
    SweepResult
        ``values`` in input order plus :class:`SweepStats` (wall time,
        effective workers, failure and journal records).
    """
    if on_error not in ("raise", "quarantine"):
        raise ValueError("on_error must be 'raise' or 'quarantine'")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    points = list(points)
    start = time.perf_counter()

    journal_store = _SweepJournal(journal, fn) if journal is not None else None
    restored: Dict[int, Any] = {}
    if journal_store is not None:
        completed = journal_store.load()
        for index, point in enumerate(points):
            key = journal_store.key(point)
            if key in completed:
                restored[index] = completed[key]
    todo = [index for index in range(len(points)) if index not in restored]

    workers = min(resolve_workers(workers), max(1, len(todo)))
    isolate = point_timeout_s is not None or fault_plan is not None
    context = None
    fallback_reason: Optional[str] = None
    if todo and (isolate or workers > 1):
        if _picklable(fn, points[todo[0]]):
            context = multiprocessing.get_context(start_method)
        elif isolate:
            raise ValueError(
                "point timeouts and fault injection need isolated "
                "worker processes, which require a picklable fn and "
                "points"
            )
        else:
            fallback_reason = "unpicklable function or point"

    values: Dict[int, Any] = {}
    raised: Dict[int, Optional[BaseException]] = {}
    failures: List[PointFailure] = []
    spent: Dict[int, float] = {}
    pending: deque = deque((index, 1) for index in todo)
    running: Dict[int, _Child] = {}

    def settle(index: int, attempt: int, started: float,
               outcome: tuple) -> None:
        nonlocal pending
        spent[index] = spent.get(index, 0.0) + (time.monotonic() - started)
        if outcome[0] == "ok":
            value = values[index] = outcome[1]
            if journal_store is not None:
                # Journal each point as it completes, so a sweep killed
                # mid-run leaves every finished point recoverable.
                journal_store.record(journal_store.key(points[index]), value)
        elif attempt <= retries:
            if backoff_s > 0:
                time.sleep(backoff_s * attempt)
            pending.appendleft((index, attempt + 1))
        else:
            failures.append(PointFailure(index=index, attempts=attempt,
                                         error=outcome[1],
                                         wall_s=spent[index]))
            if on_error == "raise":
                raised[index] = outcome[2]
                # Start no new points; queued retries still run.
                pending = deque(task for task in pending if task[1] > 1)

    try:
        while pending or running:
            while pending and len(running) < workers:
                index, attempt = pending.popleft()
                started = time.monotonic()
                if context is not None:
                    try:
                        running[index] = _launch(
                            context, fn, points[index], index, attempt,
                            fault_plan, point_timeout_s, started)
                        continue
                    except OSError as exc:
                        if isolate:
                            raise
                        context = None
                        fallback_reason = (f"child process unavailable "
                                           f"({type(exc).__name__} at start)")
                settle(index, attempt, started,
                       _run_inline(fn, points[index]))
            if running:
                for child, outcome in _wait(running, point_timeout_s):
                    settle(child.index, child.attempt, child.started,
                           outcome)
    finally:
        for child in running.values():
            child.stop()

    if failures and on_error == "raise":
        first = min(failures, key=lambda failure: failure.index)
        exc = raised[first.index]
        raise exc if exc is not None else SweepPointError(first)

    final_values = [
        restored[index] if index in restored else values.get(index)
        for index in range(len(points))
    ]
    parallel = context is not None and workers > 1
    return SweepResult(
        values=tuple(final_values),
        stats=SweepStats(
            points=len(points), workers=workers if parallel else 1,
            parallel=parallel, wall_s=time.perf_counter() - start,
            evaluations=sum(_evaluations_of(v) for v in final_values),
            failures=tuple(sorted(failures, key=lambda f: f.index)),
            fallback_reason=fallback_reason,
            journal_skipped=len(restored),
        ),
    )


# --------------------------------------------------------- channel sharding

def _drain_controller(controller: Any, max_ns: Optional[int],
                      event_driven: bool) -> Tuple[Any, int]:
    """Sweep point: drain one channel controller to idle."""
    if max_ns is None:
        end = controller.run_until_idle(event_driven=event_driven)
    else:
        end = controller.run_until_idle(max_ns, event_driven=event_driven)
    return controller, end


@dataclass(frozen=True)
class SystemRunResult:
    """How one :func:`run_system_until_idle_result` call actually ran.

    ``parallel`` records whether channels really drained in child
    processes; when more than one worker was requested but they did not
    run in parallel, ``fallback_reason`` says why (a single channel, or
    the sweep runner's own reason, such as unpicklable controllers).
    """

    end_ns: int
    workers: int
    parallel: bool
    fallback_reason: Optional[str] = None


def run_system_until_idle_result(
    system: Any,
    workers: int = 1,
    max_ns: Optional[int] = None,
    event_driven: bool = True,
) -> SystemRunResult:
    """Drain a multi-channel memory system, reporting which path ran.

    ``system`` is a :class:`~repro.sim.memory_system.ConventionalMemorySystem`
    or :class:`~repro.sim.memory_system.RoMeMemorySystem` (anything with a
    ``controllers`` list whose members implement ``run_until_idle``).
    Channels are independent once their requests are enqueued, so each
    controller is one :func:`run_sweep` point, and the drained controllers
    -- stats, energy counters and all -- replace the originals in channel
    order.  ``end_ns`` is the latest channel's end time.

    ``workers=1`` drains every controller inline, in channel order, which
    is exactly ``system.run_until_idle``; ``max_ns=None`` keeps each
    controller's own drain deadline.
    """
    sweep = run_sweep(
        _drain_controller,
        [(controller, max_ns, event_driven)
         for controller in system.controllers],
        workers=workers,
    )
    system.controllers = [controller for controller, _ in sweep.values]
    fallback_reason = sweep.stats.fallback_reason
    if len(system.controllers) <= 1 and resolve_workers(workers) > 1:
        fallback_reason = "single channel"
    return SystemRunResult(
        end_ns=max(end for _, end in sweep.values),
        workers=sweep.stats.workers,
        parallel=sweep.stats.parallel,
        fallback_reason=fallback_reason,
    )
