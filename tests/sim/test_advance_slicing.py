"""Arbitrary advance slicing is one advance.

The closed-loop driver reaches each decode cadence instant in a single
``run_for`` and only then waits for the iteration's requests in one
``controller.run_until`` call; that is sound only if cutting an advance
at any instants leaves the controllers exactly where one uninterrupted
advance does.  Both controllers are loaded with a
streaming transfer plus staggered arrivals (registered as engine
arrivals, as the driver does) and run to the same horizon in one call
and in slices cut at drawn instants (scattered, or every ``stride`` ns).
"""

from hypothesis import given, settings, strategies as st

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.controller import RoMeControllerConfig, RoMeMemoryController
from repro.core.interface import RowRequest, RowRequestKind
from repro.sim.engine import Simulation
from repro.sim.traces import streaming_trace

HORIZON_NS = {"hbm4": 2_500, "rome": 3_000}


def _hbm4_load(arrivals):
    controller = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=True))
    stream = streaming_trace(8 * 4096, request_bytes=4096)
    late = [MemoryRequest(kind=RequestKind.WRITE if index % 2 else
                          RequestKind.READ,
                          address=(1 << 20) + index * 4096,
                          size_bytes=512, arrival_ns=time_ns)
            for index, time_ns in enumerate(arrivals)]
    return controller, stream, late


def _rome_load(arrivals):
    controller = RoMeMemoryController(
        config=RoMeControllerConfig(num_stack_ids=1, enable_refresh=True))
    stream = [RowRequest(kind=RowRequestKind.RD_ROW, vba=index % 8,
                         row=index // 8) for index in range(24)]
    late = [RowRequest(kind=RowRequestKind.WR_ROW if index % 2 else
                       RowRequestKind.RD_ROW,
                       vba=(3 * index) % 8, row=100 + index,
                       arrival_ns=time_ns)
            for index, time_ns in enumerate(arrivals)]
    return controller, stream, late


LOADS = {"hbm4": _hbm4_load, "rome": _rome_load}


def _run(system, arrivals, cuts, stride=None):
    controller, stream, late = LOADS[system](arrivals)
    simulation = Simulation(controllers=[controller])
    for request in stream:
        controller.enqueue(request)
    for request in late:
        simulation.at(request.arrival_ns,
                      lambda now, request=request: controller.enqueue(request))
    horizon = HORIZON_NS[system]
    instants = {horizon * permille // 1000 for permille in cuts}
    if stride is not None:
        instants.update(range(stride, horizon, stride))
    for cut in sorted(instants) + [horizon]:
        if cut > simulation.now:
            simulation.run_for(cut - simulation.now)
    return (simulation.now, controller.now, controller.stats,
            [request.completion_ns for request in stream + late])


@settings(max_examples=10, deadline=None)
@given(
    system=st.sampled_from(sorted(LOADS)),
    arrivals=st.lists(st.integers(min_value=1, max_value=1_500),
                      min_size=1, max_size=4),
    cuts=st.lists(st.integers(min_value=1, max_value=999), max_size=12),
    stride=st.none() | st.integers(min_value=1, max_value=64),
)
def test_sliced_advance_equals_one_advance(system, arrivals, cuts, stride):
    whole = _run(system, arrivals, [])
    assert _run(system, arrivals, cuts, stride) == whole
    # The horizon drains the whole load, with refreshes spliced in.
    assert None not in whole[3]
    assert whole[2].refreshes_issued > 0
