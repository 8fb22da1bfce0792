"""Serving's steady state replays iteration graphs (DESIGN.md §12, §14).

Both engines launch a captured graph on every serve after their capture,
and the fast path is bit-identical to the eager fallback: forcing every
launch onto the fallback must not move a single simulated time, result
byte or command.
"""

import dataclasses
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Scheduler
from repro.core.graph import IterationGraph
from repro.hardware import GTX_780
from repro.serving import ServingConfig, ServingNode, poisson_trace
from repro.serving.models import LeNetEngine, SgemmEngine
from repro.serving.trace import Request
from repro.sim import SimNode
from repro.sim.faults import FaultPlan, Straggler

CFG = ServingConfig()
BASE_RATE = 6000.0  # requests per simulated second


def _run(trace, cfg):
    sn = ServingNode(cfg)
    rep = sn.run(trace)
    return rep, sn.node.engine.commands_executed


def _summary(rep, commands):
    return (
        rep.makespan,
        [(s.rid, s.latency) for s in rep.served],
        rep.results_hash(),
        [(e.time, e.action) for e in rep.scaling_events],
        rep.batches,
        commands,
    )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    rate_x=st.floats(0.5, 2.0),
    max_batch=st.sampled_from([2, 4, 8]),
    limit_frac=st.sampled_from([0.5, 1.0]),
    capacity_frac=st.sampled_from([1.0, 0.6]),
    straggler=st.booleans(),
    shed_expired=st.booleans(),
)
def test_fast_path_equals_fallback(
    seed, rate_x, max_batch, limit_frac, capacity_frac, straggler,
    shed_expired,
):
    trace = poisson_trace(40, BASE_RATE * rate_x, seed=seed)

    def cfg():
        # A fresh plan per run: fault plans carry per-run counters.
        faults = None
        if straggler:
            faults = FaultPlan(
                stragglers=(
                    Straggler(device=0, compute_factor=3.0, end=2e-3),
                )
            )
        return dataclasses.replace(
            CFG,
            max_batch=max_batch,
            batch_limit=max(1, int(max_batch * limit_frac)),
            capacity_frac=capacity_frac,
            faults=faults,
            shed_expired=shed_expired,
        )

    fast = _summary(*_run(trace, cfg()))
    with mock.patch.object(IterationGraph, "_fast_ok", lambda self: False):
        eager = _summary(*_run(trace, cfg()))
    assert fast == eager


def test_every_launch_after_capture_is_fast():
    launches: dict[int, list] = {}
    launch = IterationGraph.launch

    def counting(self, n=1):
        before = self.fast_launches
        out = launch(self, n)
        launches.setdefault(id(self), [len(self.calls), 0, 0])
        launches[id(self)][1] += 1
        launches[id(self)][2] += self.fast_launches - before
        return out

    trace = poisson_trace(300, BASE_RATE, seed=1)
    with mock.patch.object(IterationGraph, "launch", counting):
        _run(trace, CFG)
    kinds = {calls for calls, _, _ in launches.values()}
    assert kinds == {2, 8}  # SGEMM ping-pong pairs and LeNet forward passes
    for calls, total, fast in launches.values():
        assert fast == total, (calls, fast, total)


def test_pending_read_lists_stay_bounded():
    # Read-only data (SGEMM B, the LeNet weights, inputs on the host)
    # gains a reader on every serve and is never written; its completed
    # readers must be folded instead of accumulating.
    node = SimNode(GTX_780, 1, functional=True)
    sched = Scheduler(node, devices=(0,))
    engines = [LeNetEngine(sched, 2), SgemmEngine(sched, 2)]

    def pending() -> int:
        return sum(
            len(lst)
            for s in sched.monitor._state.values()
            for lst in s.pending_reads.values()
        )

    lengths = []
    for i in range(500):
        eng = engines[i % 2]
        eng.serve([Request(rid=i, kind=eng.kind, arrival=0.0, seed=i)])
        lengths.append(pending())
    assert max(lengths) <= 64
    assert lengths[-1] == lengths[99]
