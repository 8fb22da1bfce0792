"""Plan templates shared through the node (§4.3 amortization across
schedulers).

Plans are keyed by structure, not by datum or kernel identity, and one
store per node serves every scheduler on it, together with the location
monitor's geometry tables. Sharing must be invisible: a scheduler that
replays another scheduler's templates emits exactly the commands, trace,
timeline and numerics it would emit on a fresh store, and it still
validates each template against its own analyzed boxes (§4.2).
"""

import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Kernel, Matrix, Scheduler
from repro.core import plan as plan_mod
from repro.core.plan import task_signature
from repro.core.task import Task
from repro.errors import AnalysisError, UnrecoverableError
from repro.hardware import GTX_780
from repro.kernels.game_of_life import gol_containers, make_gol_kernel
from repro.libs.cublas import make_sgemm_routine, sgemm_containers
from repro.patterns import StructuredInjective, Window2D
from repro.server import GoLWorkload, HistogramWorkload, SgemmWorkload
from repro.sim import AllocFailure, FaultPlan, SimNode

GPUS = 4
WORKLOADS = {
    "gol": GoLWorkload,
    "histogram": HistogramWorkload,
    "sgemm": SgemmWorkload,
}


def _increment(ctx):
    win, out = ctx.views
    out.write(win.neighborhood_sum(include_center=True) + 1)


INCREMENT = Kernel("inc", func=_increment)


def run_lease(sched, jobs, seed):
    """One lease: server workloads ``jobs`` (``(kind, size)`` pairs) in
    order, then an in-place increment (one datum behind both containers)
    over a fresh matrix."""
    results = []
    for kind, size in jobs:
        wl = WORKLOADS[kind](size=size, iterations=3, seed=seed)
        wl.bind(sched)
        while not wl.finished:
            wl.run_chunk(sched)
        results.append(wl.result())
    size = jobs[0][1]
    host = np.arange(size * size, dtype=np.int32).reshape(size, size)
    m = Matrix(size, size, np.int32, "inplace").bind(host)
    containers = (Window2D(m, 0), StructuredInjective(m))
    sched.analyze_call(INCREMENT, *containers)
    for _ in range(2):
        sched.invoke(INCREMENT, *containers)
    sched.gather(m)
    return results + [host.copy()]


def normalized_trace(node):
    return [
        (r.kind, re.sub(r"#\d+", "#N", r.label), r.device, r.start, r.end,
         r.nbytes, r.src)
        for r in node.trace
    ]


def run_leases(leases, share):
    """Run ``leases`` in sequence on one node. With ``share=False`` every
    lease starts on a fresh plan store — the reference."""
    node = SimNode(GTX_780, GPUS, functional=True)
    outcomes = []
    for devices, faults, jobs, seed in leases:
        if not share:
            plan_mod._STORES.pop(node, None)
        node.begin_lease(faults=faults, devices=devices)
        sched = Scheduler(node, devices=devices)
        try:
            outcomes.append(run_lease(sched, jobs, seed))
        except UnrecoverableError as e:
            outcomes.append(type(e).__name__)
        outcomes.append(sched.alive_devices)
        sched.release()
        node.end_lease()
    return node, outcomes


device_sets = st.lists(
    st.integers(0, GPUS - 1), min_size=1, max_size=GPUS, unique=True
).map(lambda ds: tuple(sorted(ds)))
jobs = st.lists(
    st.tuples(st.sampled_from(sorted(WORKLOADS)), st.sampled_from([16, 24])),
    min_size=1, max_size=2,
)
lease = st.tuples(device_sets, jobs, st.integers(0, 2**16))


class TestSharedEqualsFresh:
    @given(
        first=lease,
        second=lease,
        same_structure=st.booleans(),
        failure=st.none() | st.tuples(
            st.integers(0, GPUS - 1), st.integers(1, 3)
        ),
    )
    # Pinned: runs in which the two monitors number shared geometries
    # differently unless they share one state-id table.
    @example(
        first=((0, 1, 2), [("gol", 16), ("histogram", 24)], 0),
        second=((0, 1), [("gol", 16)], 0),
        same_structure=False,
        failure=(2, 1),
    )
    @example(
        first=((0, 1, 2), [("gol", 16), ("histogram", 24)], 0),
        second=((0,), [("gol", 16)], 0),
        same_structure=True,
        failure=None,
    )
    @settings(max_examples=25, deadline=None)
    def test_second_scheduler_matches_fresh_store(
        self, first, second, same_structure, failure
    ):
        """Two schedulers in sequence on one node (the first may lose a
        device to an injected allocation failure) match the same run with
        a fresh store per scheduler: commands, trace, node time, survivors
        and numerics."""
        devices, jobs, seed = first
        if same_structure:
            # Maximal template reuse: the same structures over new data,
            # in reverse order so the two monitors meet the shared
            # geometries in a different order.
            second = (devices, jobs[::-1], second[2])
        faults = None
        if failure is not None:
            dev, nth = failure
            faults = FaultPlan(alloc_failures=[
                AllocFailure(devices[dev % len(devices)], nth)
            ])
        leases = [(devices, faults, jobs, seed), (second[0], None) + second[1:]]
        shared, out_shared = run_leases(leases, share=True)
        fresh, out_fresh = run_leases(leases, share=False)
        assert shared.engine.commands_executed == fresh.engine.commands_executed
        assert normalized_trace(shared) == normalized_trace(fresh)
        assert shared.time == fresh.time
        assert len(out_shared) == len(out_fresh)
        for a, b in zip(out_shared, out_fresh):
            if isinstance(a, list):
                assert all(np.array_equal(x, y) for x, y in zip(a, b))
            else:
                assert a == b

    def test_leases_share_templates(self):
        """The second lease of the same structure replays the first
        lease's plans and monitor transitions instead of rebuilding."""
        node = SimNode(GTX_780, GPUS, functional=True)
        first = Scheduler(node, devices=(0, 1))
        run_lease(first, [("gol", 24)], seed=1)
        first.release()
        second = Scheduler(node, devices=(0, 1))
        run_lease(second, [("gol", 24)], seed=2)
        assert second.plans.stats["misses"] == 0
        assert second.plans.stats["hits"] > 0
        assert second.monitor.transition_misses == 0

    def test_store_pins_no_datum(self):
        """The node outlives its leases; the store it holds must not keep
        a lease's datums (or their host arrays) alive."""
        node = SimNode(GTX_780, GPUS, functional=True)
        sched = Scheduler(node, devices=(0, 1))
        wl = GoLWorkload(size=24, iterations=2, seed=1)
        wl.bind(sched)
        while not wl.finished:
            wl.run_chunk(sched)
        datum = weakref.ref(wl._datums[0])
        sched.release()
        del sched, wl
        gc.collect()
        assert datum() is None
        assert Scheduler(node).plans.stats["plans"] > 0

    def test_uncached_scheduler_shares_nothing(self):
        node = SimNode(GTX_780, GPUS, functional=True)
        first = Scheduler(node)
        run_lease(first, [("gol", 24)], seed=1)
        first.release()
        off = Scheduler(node, plan_cache=False)
        run_lease(off, [("gol", 24)], seed=2)
        assert off.plans.stats["plans"] == 0
        assert off.plans.stats["hits"] == 0
        assert off.monitor.transition_hits == 0


class TestBindingValidation:
    def _seed_template(self, node, n):
        sched = Scheduler(node)
        a = Matrix(n, n, np.int32, "A").bind(np.zeros((n, n), np.int32))
        b = Matrix(n, n, np.int32, "B").bind(np.zeros((n, n), np.int32))
        k = make_gol_kernel()
        sched.analyze_call(k, *gol_containers(a, b))
        sched.invoke(k, *gol_containers(a, b))
        sched.wait_all()
        sched.release()

    def test_under_analyzed_datum_raises_on_shared_hit(self):
        """A template stored by another scheduler still validates against
        this scheduler's boxes: a radius-0 analysis does not cover the
        radius-1 window the shared plan requires."""
        n = 32
        node = SimNode(GTX_780, GPUS, functional=True)
        self._seed_template(node, n)
        sched = Scheduler(node)
        c = Matrix(n, n, np.int32, "C").bind(np.zeros((n, n), np.int32))
        d = Matrix(n, n, np.int32, "D").bind(np.zeros((n, n), np.int32))
        k = make_gol_kernel()
        sched.analyze_call(k, Window2D(c, 0), StructuredInjective(d))
        with pytest.raises(AnalysisError):
            sched.invoke(k, *gol_containers(c, d))
        assert sched.plans.stats["hits"] == 1  # the shared plan was found

    def test_unanalyzed_datum_raises_on_shared_hit(self):
        n = 32
        node = SimNode(GTX_780, GPUS, functional=True)
        self._seed_template(node, n)
        sched = Scheduler(node)
        c = Matrix(n, n, np.int32, "C").bind(np.zeros((n, n), np.int32))
        d = Matrix(n, n, np.int32, "D").bind(np.zeros((n, n), np.int32))
        with pytest.raises(AnalysisError):
            sched.invoke(make_gol_kernel(), *gol_containers(c, d))


class TestAliasingKeys:
    def test_aliasing_changes_the_key(self):
        def mats(*names):
            return [Matrix(16, 16, np.float32, n) for n in names]

        gemm = make_sgemm_routine()
        x, b, y = mats("X", "B", "Y")
        p, q, r = mats("P", "Q", "R")
        distinct = Task(gemm, sgemm_containers(x, b, y))
        renamed = Task(gemm, sgemm_containers(p, q, r))
        squared = Task(gemm, sgemm_containers(x, x, y))  # A and B alias
        assert task_signature(distinct, 2) == task_signature(renamed, 2)
        assert task_signature(distinct, 2) != task_signature(squared, 2)

    def test_kernel_identity_is_not_in_the_key(self):
        a, b = Matrix(16, 16, np.uint8, "A"), Matrix(16, 16, np.uint8, "B")
        one = Task(make_gol_kernel(), gol_containers(a, b))
        two = Task(make_gol_kernel(), gol_containers(b, a))
        assert task_signature(one, 4) == task_signature(two, 4)


class TestPerJobState:
    def test_durations_follow_the_bound_datums(self):
        """Cost models may read datum attributes (SpMV reads an nnz hint),
        so two structurally equal tasks over different datums share a plan
        but not their kernel durations."""

        def cost(ctx):
            return ctx.containers[0].datum.cost_hint

        kernel = Kernel("hinted", cost=cost)
        node = SimNode(GTX_780, 2, functional=False)
        sched = Scheduler(node)
        out = Matrix(32, 32, np.float32, "out")
        rounds = []
        for hint in (1e-4, 3e-4):
            src = Matrix(32, 32, np.float32, f"src{hint}")
            src.cost_hint = hint
            args = (Window2D(src, 0), StructuredInjective(out))
            sched.analyze_call(kernel, *args)
            first = len(node.trace.records)
            for _ in range(2):
                sched.invoke(kernel, *args)
            sched.wait_all()
            rounds.append([
                r.end - r.start for r in node.trace.records[first:]
                if r.kind == "kernel"
            ])
        assert sched.plans.stats["plans"] == 1
        # Same launch overhead, 2e-4 s more modelled work per kernel.
        assert len(rounds[0]) == len(rounds[1]) == 4
        assert [b - a for a, b in zip(*rounds)] == pytest.approx([2e-4] * 4)
