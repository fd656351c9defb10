"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.lbr import tensor_set_lbr
from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.command_generator import CommandGenerator
from repro.core.controller import RoMeControllerConfig, RoMeMemoryController
from repro.core.interface import RowRequest, RowRequestKind, requests_for_transfer
from repro.core.pins import command_issue_latency_ns
from repro.core.timing import derive_rome_timing
from repro.core.virtual_bank import VBA_DESIGN_SPACE
from repro.dram.address import AddressMapping, baseline_hbm4_mapping
from repro.dram.commands import CommandKind
from repro.dram.timing import TimingParameters
from repro.llm.models import MODELS
from repro.sim.traces import streaming_trace


# --------------------------------------------------------------------------- address mapping

@given(block=st.integers(min_value=0, max_value=10**7))
def test_address_mapping_decode_encode_is_identity(block):
    mapping = baseline_hbm4_mapping(num_channels=8)
    address = block * mapping.granularity_bytes
    assert mapping.encode(mapping.decode(address)) == address


@given(
    block=st.integers(min_value=0, max_value=10**6),
    granularity=st.sampled_from([32, 64, 4096]),
    channels=st.integers(min_value=1, max_value=36),
)
def test_address_mapping_fields_stay_in_range(block, granularity, channels):
    mapping = AddressMapping(granularity_bytes=granularity, num_channels=channels)
    coord = mapping.decode(block * granularity)
    assert 0 <= coord.channel < channels
    assert 0 <= coord.pseudo_channel < mapping.num_pseudo_channels
    assert 0 <= coord.bank_group < mapping.num_bank_groups
    assert 0 <= coord.bank < mapping.banks_per_group
    assert 0 <= coord.column < mapping.columns_per_row


@given(
    address=st.integers(min_value=0, max_value=10**8),
    size=st.integers(min_value=1, max_value=64 * 1024),
)
def test_decode_range_covers_request_exactly(address, size):
    mapping = baseline_hbm4_mapping(num_channels=4)
    coords = mapping.decode_range(address, size)
    first_block = address // mapping.granularity_bytes
    last_block = (address + size - 1) // mapping.granularity_bytes
    assert len(coords) == last_block - first_block + 1


# --------------------------------------------------------------------------- LBR

@given(
    sizes=st.lists(st.integers(min_value=0, max_value=10**9), min_size=0, max_size=20),
    channels=st.integers(min_value=1, max_value=512),
    chunk=st.sampled_from([32, 1024, 4096]),
)
def test_lbr_always_in_unit_interval(sizes, channels, chunk):
    lbr = tensor_set_lbr(sizes, channels, chunk)
    assert 0.0 <= lbr <= 1.0


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10**8), min_size=1, max_size=10),
    channels=st.integers(min_value=1, max_value=512),
)
def test_lbr_worst_alignment_is_a_lower_bound(sizes, channels):
    worst = tensor_set_lbr(sizes, channels, 4096, alignment="worst")
    best = tensor_set_lbr(sizes, channels, 4096, alignment="best")
    assert worst <= best + 1e-12


@given(multiple=st.integers(min_value=1, max_value=64))
def test_lbr_perfect_for_exact_multiples_of_channel_count(multiple):
    channels = 288
    assert tensor_set_lbr([multiple * channels * 4096], channels, 4096) == 1.0


# --------------------------------------------------------------------------- row interface

@settings(max_examples=50)
@given(
    total=st.integers(min_value=1, max_value=4 * 10**6),
    channels=st.integers(min_value=1, max_value=36),
    vbas=st.integers(min_value=1, max_value=16),
)
def test_requests_for_transfer_conserves_bytes(total, channels, vbas):
    requests = requests_for_transfer(
        total,
        kind=RowRequestKind.RD_ROW,
        effective_row_bytes=4096,
        num_channels=channels,
        vbas_per_channel=vbas,
        rows_per_vba=1 << 22,
    )
    assert sum(r.valid_bytes for r in requests) == total
    assert all(0 < r.valid_bytes <= 4096 for r in requests)
    assert all(r.channel < channels and r.vba < vbas for r in requests)


# --------------------------------------------------------------------------- traces

@settings(max_examples=50)
@given(
    total=st.integers(min_value=1, max_value=10**6),
    request_bytes=st.sampled_from([512, 4096, 65536]),
)
def test_streaming_trace_is_contiguous_and_complete(total, request_bytes):
    trace = streaming_trace(total, request_bytes=request_bytes)
    assert sum(r.size_bytes for r in trace) == total
    end = 0
    for request in trace:
        assert request.address == end
        end += request.size_bytes


# --------------------------------------------------------------------------- timing derivations

@given(scale=st.floats(min_value=0.5, max_value=3.0, allow_nan=False))
def test_derived_rome_timing_is_internally_consistent(scale):
    conventional = TimingParameters().scaled(scale)
    for vba in VBA_DESIGN_SPACE:
        derived = derive_rome_timing(conventional, vba)
        assert derived.tR2RS <= derived.tRD_row
        assert derived.tW2WS <= derived.tWR_row
        assert derived.tR2RR > derived.tR2RS
        assert derived.effective_row_bytes == vba.effective_row_bytes


@given(
    bits=st.integers(min_value=1, max_value=64),
    pins=st.integers(min_value=1, max_value=32),
)
def test_command_issue_latency_monotone_in_pins(bits, pins):
    wider = command_issue_latency_ns(bits, pins + 1)
    narrower = command_issue_latency_ns(bits, pins)
    assert wider <= narrower


# --------------------------------------------------------------------------- command generator

@settings(max_examples=20, deadline=None)
@given(
    vba_config=st.sampled_from(VBA_DESIGN_SPACE),
    vba_index=st.integers(min_value=0, max_value=7),
    row=st.integers(min_value=0, max_value=1000),
)
def test_command_generator_expansions_are_always_legal(vba_config, vba_index, row):
    generator = CommandGenerator(timing=TimingParameters(), vba=vba_config)
    request = RowRequest(kind=RowRequestKind.RD_ROW, vba=vba_index, row=row)
    assert generator.validate_against_channel(request)


@settings(max_examples=20, deadline=None)
@given(vba_index=st.integers(min_value=0, max_value=7),
       is_read=st.booleans())
def test_command_generator_conserves_row_bytes(vba_index, is_read):
    generator = CommandGenerator()
    kind = RowRequestKind.RD_ROW if is_read else RowRequestKind.WR_ROW
    expansion = generator.expand(RowRequest(kind=kind, vba=vba_index, row=1))
    assert expansion.bytes_transferred == 4096
    assert expansion.activates == 4
    column_kind = CommandKind.RD if is_read else CommandKind.WR
    data_commands = [c for c in expansion.commands if c.command.kind is column_kind]
    assert len(data_commands) == expansion.column_commands


# --------------------------------------------------------------------------- event vs tick core

_rome_request_specs = st.lists(
    st.tuples(
        st.booleans(),                      # is_read
        st.integers(min_value=0, max_value=7),   # vba
        st.integers(min_value=0, max_value=1),   # stack_id
        st.integers(min_value=0, max_value=31),  # row
        st.sampled_from([4096, 1000]),           # valid_bytes
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=15, deadline=None)
@given(specs=_rome_request_specs, enable_refresh=st.booleans())
def test_rome_event_core_matches_single_step_for_random_mixes(
    specs, enable_refresh
):
    """The event core and the 1-ns tick core must produce identical stats,
    energy counters, and per-request timestamps for any request mix -- the
    event core may only jump over instants where provably nothing issues."""
    fingerprints = []
    for event_driven in (False, True):
        controller = RoMeMemoryController(
            config=RoMeControllerConfig(num_stack_ids=2,
                                        enable_refresh=enable_refresh)
        )
        requests = [
            RowRequest(
                kind=RowRequestKind.RD_ROW if is_read else RowRequestKind.WR_ROW,
                vba=vba, stack_id=stack, row=row, valid_bytes=valid,
            )
            for is_read, vba, stack, row, valid in specs
        ]
        for request in requests:
            controller.enqueue(request)
        end = controller.run_until_idle(event_driven=event_driven)
        fingerprints.append((
            end,
            controller.stats,
            controller.energy_counters(),
            [(r.issue_ns, r.completion_ns) for r in requests],
        ))
    assert fingerprints[0] == fingerprints[1]


_conventional_request_specs = st.lists(
    st.tuples(
        st.booleans(),                            # is_write
        st.integers(min_value=0, max_value=255),  # address block (x 1 KiB)
        st.sampled_from([256, 1024, 2048]),       # size_bytes
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=10, deadline=None)
@given(specs=_conventional_request_specs, enable_refresh=st.booleans())
def test_conventional_train_path_matches_single_step_for_random_mixes(
    specs, enable_refresh
):
    fingerprints = []
    for event_driven in (False, True):
        controller = ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=1,
                                    enable_refresh=enable_refresh)
        )
        requests = [
            MemoryRequest(
                kind=RequestKind.WRITE if is_write else RequestKind.READ,
                address=block * 1024,
                size_bytes=size,
            )
            for is_write, block, size in specs
        ]
        for request in requests:
            controller.enqueue(request)
        end = controller.run_until_idle(event_driven=event_driven)
        fingerprints.append((
            end,
            controller.stats,
            controller.channel.command_counts(),
            controller.energy_counters(),
            [r.completion_ns for r in requests],
        ))
    assert fingerprints[0] == fingerprints[1]


# --------------------------------------------------------------------------- model configs

@given(tokens=st.integers(min_value=0, max_value=100_000))
def test_expected_active_experts_bounded_by_pool(tokens):
    for model in MODELS.values():
        active = model.expected_active_experts(tokens)
        assert 0.0 <= active <= max(model.ffn.num_experts, 0)
