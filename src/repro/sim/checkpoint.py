"""Versioned controller checkpoints for fault-tolerant long horizons.

A long simulation -- a diurnal trace replay, a rate search where every
bisection step re-ramps from cold -- is a single serial process, and
before this module a crash lost all of its progress.  A
:class:`Checkpoint` captures the *complete* machine state of a controller
(or any picklable simulation state bundle) at one instant:

* the request queues and backlogs, with request-object identity intact
  (everything is pickled as one object graph, so a request referenced
  from both a queue and an issued-transfer record stays one object);
* per-bank / per-pseudo-channel timing state (``_VbaTracker`` rows, FAW
  windows, bus-busy heaps, gap tables);
* the refresh engines, including postponement counters mid-window;
* the stats accumulators, including ``LatencyAccumulator`` reservoirs
  (their LCG state is plain data, so sampling continues identically).

Restoring a checkpoint and continuing is **bit-identical** to never
having stopped: the equivalence suite (``tests/sim/test_checkpoint.py``)
proves it for both controllers, refresh enabled, checkpoints taken
mid-burst included -- a checkpoint request is one more advance target, at
which the event core stops exactly as at a scheduled arrival, so the
controller state at the cut is a state the uninterrupted run also visits.

Format
------
A checkpoint is a frozen record: a format ``version``, a ``kind`` tag
naming what was snapshotted, the capture time, the pickled state payload,
and a SHA-256 digest of the payload verified before unpickling (a torn
or bit-rotted file fails loudly as :class:`CheckpointError`, never as a
subtly wrong simulation).  On-disk files add a magic header so stray
files are rejected before any unpickling happens.

Version 10 pickles the conventional controller's unbuilt work as request
cursors (:class:`repro.controller.request.RequestCursor`: the request, its
direction, its next and end block numbers, all plain data) behind a
backlog that holds at most one window of built transactions besides RAS
replays, and its transactions without ``served`` and ``data_ready_ns``
fields.  Version 9, like it, pickles each conventional pseudo channel
with its table of banks by flat bank index (``banks_by_index``) and the
channel with the pseudo channel of each flat bank index (``bank_pcs``),
which address the column rule and the column issue.  Version 8, like
it, pickles the conventional controller with its per-direction data
latencies and its observability recorders (``_data_latency``,
``_record_bandwidth`` and the like).  Version 7, like it, pickles the
queued RAS replays of both controllers, and their sequence counter, in
the controller's :class:`~repro.reliability.ras.RasEngine`
(``_replays``, ``_replay_seq``) instead of in the controller.  Version
6, like it, pickles the
conventional pseudo channels' and channel's timing state under public
field names (``last_cas_time``, ``data_bus_busy_until``, ``last_row_ca``
and the like, read by the scheduler's decision loop) and the
conventional controller's stats with an ``instants`` counter.  Version
5, like it, pickles each conventional bank as its open row and timing
windows (:class:`repro.dram.bank.Bank`, no state machine or pending
auto-precharge) and the conventional controller without a train-planning
cooldown.  Version 4, like it,
pickles DRAM coordinates as immutable named tuples
(:class:`repro.dram.address.DramCoordinate`) and the conventional
controller's stats without a per-kind command dict (the channel's own
command counts hold them).  Version 3, like it, pickles the request
queues with their bank machines
(:class:`repro.controller.queues.RequestQueue`: admission sequence
numbers, per-bank FIFOs, hit counts and head lists), but its coordinates
were dataclass instances.  Version 2 queues were flat entry lists, and
version 1 payloads also carried per-target refresh deadline dicts that
the rotation-based trackers
(:class:`repro.dram.refresh.RefreshRotation`, since version 2) never
read.  All nine are rejected rather than restored into a silently
different state.

Only load checkpoint files you wrote yourself: like any pickle-based
format, a malicious file can execute code.  The digest detects
corruption, not tampering.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

import os

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "load_checkpoint",
    "make_checkpoint",
    "restore_controller",
    "save_checkpoint",
    "snapshot_controller",
]

#: Current checkpoint format version.  Bump when the pickled state layout
#: changes incompatibly; :func:`load_checkpoint` and
#: :func:`restore_controller` reject other versions loudly.
CHECKPOINT_VERSION = 10

#: Magic header of on-disk checkpoint files (rejects stray files before
#: any unpickling happens).
_FILE_MAGIC = b"ROMECKPT"


class CheckpointError(RuntimeError):
    """A checkpoint could not be created, verified, or restored."""


@dataclass(frozen=True)
class Checkpoint:
    """One captured simulation state, verifiable and picklable.

    ``payload`` is the pickled state as bytes -- keeping it opaque means a
    ``Checkpoint`` itself always pickles (pool transport, on-disk files)
    without re-walking the state graph, and the ``digest`` keeps the
    payload honest across that transport.  ``meta`` carries small
    plain-data annotations (scenario names, rate steps); it is not
    covered by the digest and never needed for restore correctness.
    """

    version: int
    kind: str
    now_ns: int
    payload: bytes = field(repr=False)
    digest: str
    meta: Dict[str, Any] = field(default_factory=dict)

    def state(self) -> Any:
        """Verify the payload digest, then unpickle and return the state."""
        actual = hashlib.sha256(self.payload).hexdigest()
        if actual != self.digest:
            raise CheckpointError(
                f"checkpoint payload digest mismatch (kind={self.kind!r}): "
                f"expected {self.digest[:12]}..., got {actual[:12]}..."
            )
        return pickle.loads(self.payload)


def make_checkpoint(kind: str, now_ns: int, state: Any,
                    meta: Optional[Dict[str, Any]] = None) -> Checkpoint:
    """Capture ``state`` (any picklable object graph) as a checkpoint."""
    try:
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"state of kind {kind!r} is not picklable: {exc!r}"
        ) from exc
    return Checkpoint(
        version=CHECKPOINT_VERSION,
        kind=kind,
        now_ns=now_ns,
        payload=payload,
        digest=hashlib.sha256(payload).hexdigest(),
        meta=dict(meta or {}),
    )


def _controller_kind(controller: Any) -> str:
    # Local imports: checkpoint is a leaf module both controller layers
    # may eventually import for self-snapshotting.
    from repro.controller.mc import ConventionalMemoryController
    from repro.core.controller import RoMeMemoryController

    if isinstance(controller, RoMeMemoryController):
        return "rome-controller"
    if isinstance(controller, ConventionalMemoryController):
        return "conventional-controller"
    raise CheckpointError(
        f"cannot snapshot {type(controller).__name__}: expected "
        f"RoMeMemoryController or ConventionalMemoryController"
    )


def snapshot_controller(controller: Any,
                        meta: Optional[Dict[str, Any]] = None) -> Checkpoint:
    """Snapshot a memory controller's complete state.

    The controller must be at a quiescent instant from the engine's point
    of view -- between ``advance_to`` calls, which is the only time caller
    code ever sees it.  Both controllers keep all state in plain picklable
    containers (queues, dicts, heaps as lists, dataclasses), so one
    whole-object pickle captures everything: queue contents, bank timing,
    refresh postponement counters, stats, latency reservoirs.
    """
    return make_checkpoint(
        kind=_controller_kind(controller),
        now_ns=controller.now,
        state=controller,
        meta=meta,
    )


def restore_controller(checkpoint: Checkpoint) -> Any:
    """Rebuild the controller captured by :func:`snapshot_controller`.

    Returns a fresh, independent controller object: restoring twice gives
    two controllers that do not share mutable state, so one checkpoint
    can seed several what-if continuations.
    """
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {checkpoint.version} is not supported "
            f"(this tree reads version {CHECKPOINT_VERSION})"
        )
    if checkpoint.kind not in ("rome-controller", "conventional-controller"):
        raise CheckpointError(
            f"checkpoint kind {checkpoint.kind!r} is not a controller "
            f"snapshot"
        )
    controller = checkpoint.state()
    if controller.now != checkpoint.now_ns:
        raise CheckpointError(
            f"restored controller is at {controller.now} ns but the "
            f"checkpoint was captured at {checkpoint.now_ns} ns"
        )
    return controller


# ------------------------------------------------------------------ on disk


def save_checkpoint(checkpoint: Checkpoint,
                    path: Union[str, os.PathLike]) -> None:
    """Write a checkpoint to ``path`` (magic header + pickled record)."""
    blob = pickle.dumps(
        {
            "version": checkpoint.version,
            "kind": checkpoint.kind,
            "now_ns": checkpoint.now_ns,
            "payload": checkpoint.payload,
            "digest": checkpoint.digest,
            "meta": checkpoint.meta,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    with open(path, "wb") as stream:
        stream.write(_FILE_MAGIC)
        stream.write(blob)
        stream.flush()
        os.fsync(stream.fileno())


def load_checkpoint(path: Union[str, os.PathLike]) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Rejects files without the magic header before unpickling anything;
    version and digest checks happen in :class:`Checkpoint` accessors.
    """
    with open(path, "rb") as stream:
        magic = stream.read(len(_FILE_MAGIC))
        if magic != _FILE_MAGIC:
            raise CheckpointError(
                f"{os.fspath(path)!r} is not a checkpoint file "
                f"(bad magic header)"
            )
        try:
            record = pickle.loads(stream.read())
        except Exception as exc:
            raise CheckpointError(
                f"{os.fspath(path)!r} is corrupt: {exc!r}"
            ) from exc
    try:
        checkpoint = Checkpoint(
            version=record["version"],
            kind=record["kind"],
            now_ns=record["now_ns"],
            payload=record["payload"],
            digest=record["digest"],
            meta=record["meta"],
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointError(
            f"{os.fspath(path)!r} is missing checkpoint fields: {exc!r}"
        ) from exc
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {checkpoint.version} is not supported "
            f"(this tree reads version {CHECKPOINT_VERSION})"
        )
    return checkpoint
