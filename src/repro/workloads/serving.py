"""Continuous-batching decode-serving traffic model.

This is the workload half of the paper's serving evaluation: requests
arrive over time, join a bounded decode batch, stream weight and KV-cache
tensors every iteration, and depart after their output tokens.  The model
composes the per-token tensor populations of :mod:`repro.llm.traffic`
(Figure 1) and the model shapes of :mod:`repro.llm.models` into
per-iteration *memory transfers*, then compiles the whole episode into an
:class:`~repro.workloads.arrivals.ArrivalSchedule` the simulation driver
can replay.

Open-loop cadence
-----------------
Decode iterations tick on the accelerator's compute clock
(``iteration_interval_ns``), independent of whether the simulated memory
channel kept up -- the workload is *open loop*.  When the channel falls
behind, transfers queue up and the run is flagged saturated; when it
keeps up, per-request latencies stay near the isolated service time.
This mirrors the paper's serving experiments, where memory either
sustains the decode stream or becomes the bottleneck.

Closed-loop serving
-------------------
:class:`ClosedLoopServer` holds the *batch dynamics* of the closed-loop
mode: the next decode iteration launches only once the previous
iteration's memory traffic has completed (the driver feeds completion
instants back through :meth:`ClosedLoopServer.finish_iteration`), so the
reported bandwidth is what the serving stack actually sustains under
memory backpressure.  On top of the completion gating it adds

* **admission control** -- the running batch is bounded by
  ``batch_capacity`` *and* an optional KV-memory budget
  (``kv_budget_bytes``, reserved at each sequence's peak context), and
  the waiting queue by ``max_queue_depth`` (arrivals beyond it are
  rejected and count against goodput);
* **chunked prefill** -- ``prefill_chunk_tokens`` splits each prompt
  into per-iteration chunks that interleave with decode instead of one
  monolithic admission burst (``None`` keeps the monolithic prefill,
  which is what makes the closed loop provably equivalent to the open
  loop when the channel never falls behind);
* **SLO accounting** -- per-request TTFT (measured from *arrival*, not
  admission) and per-token TPOT, judged against a picklable
  :class:`SLOSpec` so the driver can report goodput: requests per second
  that met both objectives.

Scaling
-------
A real serving system streams hundreds of gigabytes per iteration across
hundreds of channels; a cycle-level simulation drives one.
``traffic_scale`` maps a representative slice of the full per-iteration
traffic onto the simulated channel (default ``2**-24``, tens to hundreds
of kilobytes per iteration for the paper's models).  Relative bandwidth,
queueing, and latency behavior are preserved; absolute byte counts are
the scaled slice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, List, Optional, Sequence, Tuple

from repro.llm.models import ModelConfig, model_by_name
from repro.workloads.arrivals import ArrivalSchedule, Transfer

if TYPE_CHECKING:
    from repro.obs.sink import ObsSink

__all__ = [
    "ClosedLoopServer",
    "DecodeServingModel",
    "RequestRecord",
    "SLOSpec",
    "ServingConfig",
    "active_decode_weight_bytes",
    "prefill_weight_bytes",
]

#: One millisecond in nanoseconds (SLO specs are written in milliseconds).
_MS_NS = 1_000_000


@dataclass(frozen=True)
class SLOSpec:
    """Service-level objectives of one serving episode.

    ``ttft_ms`` bounds the time to first token measured from the request's
    *arrival* (so admission queueing counts against it); ``tpot_ms``
    bounds the average time per output token after the first.  The spec is
    a frozen dataclass of plain floats, so it pickles into sweep workers
    and :class:`~repro.workloads.scenarios.ScenarioSpec` unchanged.
    """

    ttft_ms: float = 10.0
    tpot_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.ttft_ms <= 0 or self.tpot_ms <= 0:
            raise ValueError("SLO targets must be positive")

    @property
    def ttft_ns(self) -> float:
        return self.ttft_ms * _MS_NS

    @property
    def tpot_ns(self) -> float:
        return self.tpot_ms * _MS_NS


def active_decode_weight_bytes(model: ModelConfig, tokens: int) -> int:
    """Weight bytes one decode iteration streams for ``tokens`` tokens.

    Dense layers read their full projections; MoE layers read the
    *expected* number of distinct routed experts
    (:meth:`~repro.llm.models.ModelConfig.expected_active_experts`) plus
    shared experts and the router.  The LM head is read once per
    iteration; the embedding gather is negligible and ignored.
    """
    ffn, hidden, dtype = model.ffn, model.hidden_size, model.dtype_bytes
    moe_layers = model.moe_layer_count()
    # Every MoE layer reads the same expected expert bytes, so one
    # truncation times the layer count equals the per-layer sum.
    moe = (int(model.expected_active_experts(max(1, tokens))
               * ffn.expert_weight_bytes(hidden, dtype))
           + ffn.shared_expert_weight_bytes(hidden, dtype)
           + ffn.router_weight_bytes(hidden, dtype))
    return (model.lm_head_weight_bytes()
            + model.num_layers * model.attention_weight_bytes_per_layer()
            + (model.num_layers - moe_layers)
            * ffn.dense_weight_bytes(hidden, dtype)
            + moe_layers * moe)


def prefill_weight_bytes(model: ModelConfig, prompt_tokens: int) -> int:
    """Weight bytes one prefill pass streams for a ``prompt_tokens`` prompt.

    Identical composition to :func:`active_decode_weight_bytes`, but the
    expected-expert count is evaluated at the prompt length -- long
    prompts touch essentially every expert, so prefill bursts approach a
    full weight sweep (the Figure 1 prefill population).
    """
    return active_decode_weight_bytes(model, prompt_tokens)


@dataclass(frozen=True)
class ServingConfig:
    """Shape of one continuous-batching decode-serving episode.

    Parameters
    ----------
    model_name:
        Key into :data:`repro.llm.models.MODELS` (kept as a name so the
        config -- and any :class:`ScenarioSpec` embedding it -- stays
        trivially picklable).
    batch_capacity:
        Maximum concurrent sequences; arrivals beyond it wait and join at
        a later iteration boundary (continuous batching).
    prompt_tokens / output_tokens:
        Per-request prompt length and number of decode steps.
    iteration_interval_ns:
        The accelerator's decode-step cadence (the open-loop clock).
    traffic_scale:
        Fraction of the full system's per-iteration traffic mapped onto
        the simulated channel (see module docstring).
    min_transfer_bytes:
        Floor for any scaled transfer, so every record moves at least one
        effective row / a few interface blocks.
    prefill_chunk_tokens:
        Closed-loop only: split each prompt into per-iteration chunks of
        at most this many tokens, interleaving prefill with decode.
        ``None`` (default) keeps the monolithic single-iteration prefill
        the open-loop model uses.
    max_queue_depth:
        Closed-loop only: bound on the waiting queue.  A request arriving
        while the queue holds this many waiting requests is *rejected*
        (it departs unserved and fails its SLOs).  ``None`` leaves the
        queue unbounded.
    kv_budget_bytes:
        Closed-loop only: KV-cache memory budget for the running batch.
        Admission reserves each sequence's *peak* KV footprint
        (``prompt + output`` tokens), so the running batch can never
        outgrow the budget mid-decode.  ``None`` leaves KV unbounded.
    """

    model_name: str = "deepseek-v3"
    batch_capacity: int = 8
    prompt_tokens: int = 512
    output_tokens: int = 4
    iteration_interval_ns: int = 8192
    traffic_scale: float = 2.0 ** -24
    min_transfer_bytes: int = 4096
    prefill_chunk_tokens: Optional[int] = None
    max_queue_depth: Optional[int] = None
    kv_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_capacity < 1:
            raise ValueError("batch_capacity must be at least 1")
        if self.output_tokens < 1:
            raise ValueError("output_tokens must be at least 1")
        if self.iteration_interval_ns < 1:
            raise ValueError("iteration_interval_ns must be at least 1 ns")
        if not 0.0 < self.traffic_scale <= 1.0:
            raise ValueError("traffic_scale must be in (0, 1]")
        if self.prefill_chunk_tokens is not None \
                and self.prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be at least 1")
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")
        if self.kv_budget_bytes is not None and self.kv_budget_bytes < 1:
            raise ValueError("kv_budget_bytes must be positive")


@dataclass
class _Sequence:
    """One request inside the compiled batch."""

    context_tokens: int
    remaining_outputs: int


class DecodeServingModel:
    """Compile arrival instants into a continuous-batching schedule.

    The compilation is pure: given the same config and arrival times it
    produces the same :class:`ArrivalSchedule` in any process, which is
    what lets arrival-driven sweep points shard across workers.
    """

    def __init__(self, config: ServingConfig) -> None:
        self.config = config
        self.model = model_by_name(config.model_name)

    # ------------------------------------------------------------- traffic

    def _scaled(self, nbytes: float) -> int:
        scaled = int(nbytes * self.config.traffic_scale)
        return max(self.config.min_transfer_bytes, scaled)

    def prefill_transfer(self, admitted: int) -> Transfer:
        """The burst a group of ``admitted`` requests issues on joining:
        one shared weight pass plus each prompt's KV-cache write."""
        model, cfg = self.model, self.config
        read = prefill_weight_bytes(model, cfg.prompt_tokens)
        write = admitted * model.kv_bytes_per_sequence(cfg.prompt_tokens)
        return Transfer(read_bytes=self._scaled(read),
                        write_bytes=self._scaled(write), tag="prefill")

    def prefill_chunk_transfer(self, chunk_tokens: int,
                               kv_tokens: int) -> Transfer:
        """One chunked-prefill step: a shared weight pass sized by the
        largest per-sequence chunk this iteration, plus the KV-cache
        append for every prompt token processed across the batch.

        With ``chunk_tokens`` covering the whole prompt and ``kv_tokens ==
        admitted * prompt_tokens`` this is byte-identical to
        :meth:`prefill_transfer` -- the monolithic special case the
        closed-loop/open-loop equivalence proof relies on.
        """
        read = prefill_weight_bytes(self.model, chunk_tokens)
        write = kv_tokens * self.model.kv_bytes_per_token()
        return Transfer(read_bytes=self._scaled(read),
                        write_bytes=self._scaled(write), tag="prefill")

    def decode_transfer(self, batch: Sequence[_Sequence]) -> Transfer:
        """One decode iteration over the current batch: the active weight
        stream, every sequence's KV-cache read, and one KV append each."""
        model = self.model
        read = active_decode_weight_bytes(model, len(batch))
        for sequence in batch:
            read += model.kv_bytes_per_sequence(sequence.context_tokens)
        write = len(batch) * model.kv_bytes_per_token()
        return Transfer(read_bytes=self._scaled(read),
                        write_bytes=self._scaled(write), tag="decode")

    # ------------------------------------------------------------- compile

    def compile(self, arrival_times_ns: Sequence[int]) -> ArrivalSchedule:
        """Run the batch dynamics and emit the full transfer schedule.

        Each iteration boundary first admits waiting arrivals into free
        batch slots (emitting one prefill-burst transfer for the group),
        then emits the decode transfer for the occupied batch; sequences
        depart once their output tokens are generated.  When the batch
        drains, time jumps to the next arrival.
        """
        cfg = self.config
        waiting: Deque[int] = deque(sorted(arrival_times_ns))
        active: List[_Sequence] = []
        records: List[Tuple[int, Transfer]] = []
        now = 0
        while waiting or active:
            if not active:
                now = max(now, waiting[0])
            admitted = 0
            while waiting and waiting[0] <= now \
                    and len(active) < cfg.batch_capacity:
                waiting.popleft()
                active.append(_Sequence(context_tokens=cfg.prompt_tokens,
                                        remaining_outputs=cfg.output_tokens))
                admitted += 1
            if admitted:
                records.append((now, self.prefill_transfer(admitted)))
            records.append((now, self.decode_transfer(active)))
            for sequence in active:
                sequence.context_tokens += 1
                sequence.remaining_outputs -= 1
            active = [s for s in active if s.remaining_outputs > 0]
            now += cfg.iteration_interval_ns
        return ArrivalSchedule(records=tuple(records))


# ------------------------------------------------------------- closed loop


@dataclass
class RequestRecord:
    """Per-request lifecycle of one closed-loop serving episode.

    All instants are absolute simulation nanoseconds.  ``first_token_ns``
    is the completion instant of the iteration that produced the request's
    first output token, so TTFT includes admission queueing and (chunked)
    prefill; ``finished_ns`` is the completion instant of its last token.
    """

    index: int
    arrival_ns: int
    prompt_tokens: int
    output_tokens: int
    admitted_ns: Optional[int] = None
    first_token_ns: Optional[int] = None
    finished_ns: Optional[int] = None
    rejected: bool = False

    @property
    def ttft_ns(self) -> Optional[int]:
        """Time to first token, measured from *arrival* (not admission)."""
        if self.first_token_ns is None:
            return None
        return self.first_token_ns - self.arrival_ns

    @property
    def tpot_ns(self) -> Optional[float]:
        """Average time per output token after the first (0 for a single
        output token: there is no inter-token gap to measure)."""
        if self.first_token_ns is None or self.finished_ns is None:
            return None
        if self.output_tokens <= 1:
            return 0.0
        return ((self.finished_ns - self.first_token_ns)
                / (self.output_tokens - 1))

    def meets(self, slo: SLOSpec) -> bool:
        """Did this request clear both SLOs?  Rejected or unfinished
        requests never do."""
        ttft, tpot = self.ttft_ns, self.tpot_ns
        return (not self.rejected and ttft is not None and tpot is not None
                and ttft <= slo.ttft_ns and tpot <= slo.tpot_ns)


@dataclass
class _ClosedLoopSequence:
    """One admitted request inside the closed-loop batch."""

    record: RequestRecord
    prefill_remaining: int
    kv_reserved_bytes: int
    context_tokens: int = 0
    generated: int = 0
    #: Set per iteration by :meth:`ClosedLoopServer.begin_iteration` --
    #: only sequences whose prefill has completed decode this iteration.
    decoding: bool = False


class ClosedLoopServer:
    """Batch dynamics of the closed-loop serving mode.

    The server is pure bookkeeping -- it never advances simulated time
    itself.  The driver alternates :meth:`next_launch_ns` /
    :meth:`begin_iteration` (admission + this iteration's transfers) /
    :meth:`finish_iteration` (the iteration's memory-completion instant,
    fed back as the gate for the next launch), so the decode cadence
    follows ``max(accelerator interval, memory completion)`` instead of
    the open-loop fixed clock.

    Determinism: given the same config and arrival instants, the server
    makes the same admission and chunking decisions in any process; the
    only external inputs are the completion instants the (cycle-exact)
    controllers report.
    """

    def __init__(self, config: ServingConfig,
                 arrival_times_ns: Sequence[int],
                 obs: Optional[ObsSink] = None) -> None:
        self.config = config
        # Observability sink shared with the run's controller; ``None``
        # keeps every hook short-circuited (the unobserved loop is
        # bit-identical to the pre-obs tree).  Serving events land on
        # their own "serving" track.
        self._obs = obs
        self.model = DecodeServingModel(config)
        self.records: List[RequestRecord] = [
            RequestRecord(index=index, arrival_ns=time_ns,
                          prompt_tokens=config.prompt_tokens,
                          output_tokens=config.output_tokens)
            for index, time_ns in enumerate(sorted(arrival_times_ns))
        ]
        self._pending: Deque[RequestRecord] = deque(self.records)
        self._queue: Deque[RequestRecord] = deque()
        self._active: List[_ClosedLoopSequence] = []
        self._kv_reserved = 0
        self._last_launch_ns: Optional[int] = None
        self._last_completion_ns = 0
        self.rejected = 0
        self.peak_batch = 0
        self.peak_kv_bytes = 0

    # ------------------------------------------------------------- queries

    @property
    def done(self) -> bool:
        return not (self._pending or self._queue or self._active)

    def finishing(self) -> bool:
        """Will :meth:`finish_iteration` leave the server :attr:`done`?

        Asked between :meth:`begin_iteration` and :meth:`finish_iteration`:
        true when nothing is pending or queued and every active sequence
        decodes its last output token this iteration.
        """
        return not (self._pending or self._queue) and all(
            sequence.decoding
            and sequence.generated + 1 >= sequence.record.output_tokens
            for sequence in self._active
        )

    def next_launch_ns(self) -> Optional[int]:
        """Instant of the next iteration launch, or ``None`` when done.

        With work batched or queued, the launch waits for both the
        accelerator cadence (``last launch + iteration_interval_ns``) and
        the previous iteration's memory completion -- the closed loop.
        A drained batch jumps to the next arrival (never earlier than the
        cadence allows, matching the open-loop compile).
        """
        earliest = 0
        if self._last_launch_ns is not None:
            earliest = max(
                self._last_launch_ns + self.config.iteration_interval_ns,
                self._last_completion_ns,
            )
        if self._active or self._queue:
            return earliest
        if self._pending:
            return max(earliest, self._pending[0].arrival_ns)
        return None

    # ----------------------------------------------------------- iteration

    def _try_admit(self, record: RequestRecord, now_ns: int) -> bool:
        """Admit ``record`` if a batch slot and KV reservation fit."""
        cfg = self.config
        if len(self._active) >= cfg.batch_capacity:
            return False
        reserve = self.model.model.kv_bytes_per_token() \
            * (record.prompt_tokens + record.output_tokens)
        if cfg.kv_budget_bytes is not None \
                and self._kv_reserved + reserve > cfg.kv_budget_bytes:
            if not self._active:
                raise RuntimeError(
                    f"kv_budget_bytes={cfg.kv_budget_bytes} cannot fit "
                    f"a single sequence (needs {reserve} bytes)"
                )
            return False
        record.admitted_ns = now_ns
        self._kv_reserved += reserve
        self._active.append(_ClosedLoopSequence(
            record=record,
            prefill_remaining=record.prompt_tokens,
            kv_reserved_bytes=reserve,
        ))
        self.peak_batch = max(self.peak_batch, len(self._active))
        self.peak_kv_bytes = max(self.peak_kv_bytes, self._kv_reserved)
        obs = self._obs
        if obs is not None:
            obs.event(now_ns, "serving.admit", track="serving",
                      request=record.index)
            obs.gauge(now_ns, "serving.running_batch", len(self._active))
            obs.gauge(now_ns, "serving.kv_reserved_bytes", self._kv_reserved)
        return True

    def _admit_queue(self, now_ns: int) -> None:
        """FIFO admission of waiting requests into free batch slots."""
        while self._queue and self._try_admit(self._queue[0], now_ns):
            self._queue.popleft()

    def _absorb_arrivals(self, now_ns: int) -> None:
        """Process arrivals due by ``now_ns`` in arrival order: admit
        directly when no earlier request is still waiting (FIFO), else
        queue; an arrival finding the queue full is rejected."""
        depth = self.config.max_queue_depth
        while self._pending and self._pending[0].arrival_ns <= now_ns:
            record = self._pending.popleft()
            if not self._queue and self._try_admit(record, now_ns):
                continue
            if depth is None or len(self._queue) < depth:
                self._queue.append(record)
            else:
                record.rejected = True
                self.rejected += 1
                obs = self._obs
                if obs is not None:
                    obs.event(now_ns, "serving.reject", track="serving",
                              request=record.index)
                    obs.count(now_ns, "serving.rejected")

    def begin_iteration(self, now_ns: int) -> List[Transfer]:
        """Admit due arrivals and build this iteration's transfers.

        Prefilling sequences advance by one chunk (the whole prompt when
        ``prefill_chunk_tokens`` is ``None``); one shared prefill transfer
        covers the largest chunk's weight pass plus every prompt token's
        KV append.  Sequences whose prefill is complete -- including ones
        that finished it *this* iteration -- share the decode transfer.
        Returns ``[]`` when the batch is empty after admission.
        """
        self._admit_queue(now_ns)
        self._absorb_arrivals(now_ns)
        if not self._active:
            return []
        chunk_cap = self.config.prefill_chunk_tokens
        transfers: List[Transfer] = []
        largest_chunk = 0
        kv_tokens = 0
        for sequence in self._active:
            if sequence.prefill_remaining > 0:
                step = sequence.prefill_remaining if chunk_cap is None \
                    else min(chunk_cap, sequence.prefill_remaining)
                sequence.prefill_remaining -= step
                sequence.context_tokens += step
                largest_chunk = max(largest_chunk, step)
                kv_tokens += step
            sequence.decoding = sequence.prefill_remaining == 0
        if kv_tokens:
            transfers.append(
                self.model.prefill_chunk_transfer(largest_chunk, kv_tokens))
            if self._obs is not None:
                self._obs.event(now_ns, "serving.prefill_chunk",
                                track="serving", tokens=largest_chunk,
                                kv_tokens=kv_tokens)
        decoding = [s for s in self._active if s.decoding]
        if decoding:
            transfers.append(self.model.decode_transfer(decoding))
        return transfers

    def finish_iteration(self, launch_ns: int, completion_ns: int) -> None:
        """Account the iteration's tokens at its memory-completion instant
        and retire finished sequences (freeing their KV reservation)."""
        self._last_launch_ns = launch_ns
        self._last_completion_ns = completion_ns
        obs = self._obs
        if obs is not None:
            decoding = sum(1 for s in self._active if s.decoding)
            obs.span(launch_ns, max(completion_ns - launch_ns, 1),
                     "serving.decode_iter", track="serving", batch=decoding)
        still_active: List[_ClosedLoopSequence] = []
        for sequence in self._active:
            if sequence.decoding:
                sequence.generated += 1
                sequence.context_tokens += 1
                record = sequence.record
                if sequence.generated == 1:
                    record.first_token_ns = completion_ns
                if sequence.generated >= record.output_tokens:
                    record.finished_ns = completion_ns
                    self._kv_reserved -= sequence.kv_reserved_bytes
                    continue
            still_active.append(sequence)
        self._active = still_active
        if obs is not None:
            obs.gauge(completion_ns, "serving.running_batch",
                      len(self._active))
            obs.gauge(completion_ns, "serving.kv_reserved_bytes",
                      self._kv_reserved)
