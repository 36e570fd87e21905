"""Memory guard: what one more rank costs at flow fidelity.

Past the packet model's 1,056 nodes a run's memory is per-rank and
per-message bookkeeping (MPI requests and waits, envelopes, flows and the
links they cross), so the guard measures it per rank: the difference in
tracemalloc peak between a 2,000-rank and a 4,000-rank contiguous, minimal
flow shift on one 8,400-node system.  Everything that does not grow with
the rank count (topology tables, imports) cancels out.
"""

import gc
import tracemalloc

import pytest

from repro.config import SimulationConfig, SystemConfig
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import Scenario

#: Measured on CPython 3.11 (x86-64): 4,785 B/rank with a closure per wait,
#: a dict per flow link and a dict payload per message; 2,787 B/rank with a
#: single waiter per request, list-valued link flows and one envelope per
#: message.  The bound sits between the two.
MAX_BYTES_PER_RANK = 3_800


def _traced_peak(ranks: int) -> int:
    system = SystemConfig(num_groups=21, routers_per_group=10, nodes_per_router=40)
    config = (
        SimulationConfig(system=system, seed=11).with_routing("minimal").with_fidelity("flow")
    )
    shift = AppSpec("shift", ranks, {"message_bytes": 4096, "iterations": 1})
    scenario = Scenario(
        name=f"shift-{ranks}", jobs=(shift,), config=config, placement="contiguous"
    )
    gc.collect()
    tracemalloc.start()
    try:
        assert scenario.run().completed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_flow_shift_bytes_per_rank_stay_bounded():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    _traced_peak(200)  # first-run imports and caches stay out of the difference
    per_rank = (_traced_peak(4_000) - _traced_peak(2_000)) / 2_000
    assert 0 < per_rank <= MAX_BYTES_PER_RANK, f"{per_rank:.0f} B per rank"
