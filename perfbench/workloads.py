"""The four benchmark workloads.

Each workload is driven only through public entry points of ``repro``
(``SimNode``/``Scheduler``, ``JobServer``, ``ServingNode``,
``ClusterStencil``) and splits one *pass* into phases:

* ``generate(seed, scale)`` builds the seeded inputs (boards, job specs);
* ``build(inputs)`` is the rest of set-up: node, scheduler, analysis,
  warm-up, capacity calibration;
* ``run(system, inputs, calls)`` is the timed work; it appends the host
  seconds of every work-completing public call to ``calls`` and returns
  ``(units done, units lost)``;
* ``exact(system, inputs)`` returns the simulated-time results and counts
  of the pass, which must repeat bit-for-bit in every pass of the seed
  (keys named like per-layer metrics are reported as such);
* ``check(system, inputs)`` compares outputs with a plain-numpy reference
  and raises :class:`CheckFailed` on a mismatch.

``probe_sensitivity`` is the log-log slope of a workload's pass time
against the machine-speed probe in ``run.py`` (when the probe slows by
10%, the pass slows by about ``10% * probe_sensitivity``), chosen once
on the reference machine; ``NOTES.md`` gives the measurements.

See ``NOTES.md`` for why each workload exists and what it stresses.
"""

from __future__ import annotations

import hashlib
import time
from types import SimpleNamespace

import numpy as np

from repro.bench.serving import calibrate_capacity
from repro.cluster import (
    ClusterFaultPlan,
    ClusterStencil,
    NodeCrash,
    NodeRepair,
)
from repro.core import Matrix, Scheduler
from repro.hardware import GTX_780
from repro.kernels.game_of_life import (
    gol_containers,
    gol_reference_step,
    make_gol_kernel,
)
from repro.server.jobs import DONE, JobSpec, TenantQuota
from repro.server.server import JobServer
from repro.server.workloads import (
    GoLWorkload,
    HistogramWorkload,
    SgemmWorkload,
)
from repro.serving import ServingConfig, ServingNode, poisson_trace
from repro.sim import SimNode


class CheckFailed(Exception):
    """An output of the program differs from its reference."""


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def sliced_gol_step(board: np.ndarray, wrap: bool) -> np.ndarray:
    """Plain-numpy Game of Life tick: pad once (wrap or zero), sum the
    eight shifted slices. The baseline the framework's tax is measured
    against."""
    p = np.pad(board, 1, mode="wrap" if wrap else "constant")
    n = (
        p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
        + p[1:-1, :-2] + p[1:-1, 2:]
        + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]
    )
    return ((n == 3) | ((board == 1) & (n == 2))).astype(board.dtype)


def _percentile_ms(xs, q) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q) * 1e3)


class _Board:
    """Shared by the two Game of Life workloads: a seeded board, a numpy
    reference, and a numpy baseline timing."""

    wrap = True
    rows = cols = 0

    def board(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return (rng.random((self.rows, self.cols)) < 0.35).astype(np.int32)

    def startup_check(self, seed: int) -> None:
        """The sliced baseline must equal the repository's reference."""
        a = b = self.board(seed)
        for _ in range(3):
            a = sliced_gol_step(a, self.wrap)
            b = gol_reference_step(b, wrap=self.wrap)
        if not np.array_equal(a, b):
            raise CheckFailed(
                "sliced numpy step differs from gol_reference_step"
            )

    def reference(self, board: np.ndarray, ticks: int) -> np.ndarray:
        for _ in range(ticks):
            board = sliced_gol_step(board, self.wrap)
        return board

    def numpy_wall(self, seed: int) -> float:
        """Host seconds of the sliced step over the timed ticks."""
        board = self.board(seed)
        t0 = time.perf_counter()
        self.reference(board, self.timed_ticks)
        return time.perf_counter() - t0


class Stencil(_Board):
    """Functional eager Game of Life on one node of 4 GTX 780s, as a
    closed loop of rounds: ``K`` invokes then one gather."""

    name, unit, call = "stencil", "tick", "round"
    tail_q = 90.0  # about 290 rounds in a 15 s run
    probe_sensitivity = 1.0
    rows = cols = 512
    K = 8  # invokes per round
    ROUNDS = 16  # timed rounds per pass, after one warm-up round
    timed_ticks = K * ROUNDS

    def generate(self, seed: int, scale: float = 1.0):
        return SimpleNamespace(seed=seed, board=self.board(seed))

    def build(self, inp):
        node = SimNode(GTX_780, 4, functional=True)
        sched = Scheduler(node)
        hosts = [inp.board.copy(), np.zeros_like(inp.board)]
        datums = [
            Matrix(self.rows, self.cols, np.int32, name).bind(h)
            for name, h in zip("AB", hosts)
        ]
        kernel = make_gol_kernel("maps_ilp")
        sched.analyze_call(kernel, *gol_containers(datums[0], datums[1]))
        sched.analyze_call(kernel, *gol_containers(datums[1], datums[0]))
        s = SimpleNamespace(
            node=node, sched=sched, datums=datums, kernel=kernel, tick=0
        )
        self._round(s)  # warm-up: pays the first host->device distribution
        return s

    def _round(self, s, tracer=None) -> None:
        d = s.datums
        for _ in range(self.K):
            if tracer is not None:
                tracer.unit = s.tick
            src, dst = d[s.tick % 2], d[(s.tick + 1) % 2]
            s.sched.invoke(s.kernel, *gol_containers(src, dst))
            s.tick += 1
        s.sched.gather(d[s.tick % 2])

    def run(self, s, inp, calls, tracer=None):
        clock = time.perf_counter
        for _ in range(self.ROUNDS):
            t0 = clock()
            self._round(s, tracer)
            calls.append(clock() - t0)
        return self.timed_ticks, 0

    def exact(self, s, inp) -> dict:
        return {
            "sim_s": s.node.time,
            "engine_commands": s.node.engine.commands_executed,
            "board": digest([s.datums[s.tick % 2].host]),
        }

    def check(self, s, inp) -> None:
        want = self.reference(inp.board, s.tick)
        if not np.array_equal(s.datums[s.tick % 2].host, want):
            raise CheckFailed(
                f"stencil board differs from numpy after {s.tick} ticks"
            )


class Cluster(_Board):
    """Functional ``ClusterStencil`` Game of Life on 4 nodes x 2 GPUs with
    one node crash and its later repair (re-admission)."""

    name, unit, call = "cluster", "tick", "ClusterStencil.step"
    tail_q = 99.0  # about 2300 steps in a 15 s run
    probe_sensitivity = 1.0
    wrap = False  # the cluster's global boundary is zero
    rows = cols = 256
    TICKS = 48  # one warm-up step, then TICKS - 1 timed steps
    timed_ticks = TICKS - 1
    CRASH = NodeCrash(2, 2.5e-3)  # simulated seconds; ~0.19 ms per tick
    REPAIR = NodeRepair(2, 5.0e-3)

    def generate(self, seed: int, scale: float = 1.0):
        plan = ClusterFaultPlan(
            seed=seed, node_crashes=[self.CRASH], node_repairs=[self.REPAIR]
        )
        return SimpleNamespace(seed=seed, board=self.board(seed), plan=plan)

    def build(self, inp):
        cs = ClusterStencil(
            GTX_780, 4, 2, inp.board, make_gol_kernel("maps"), faults=inp.plan
        )
        cs.step()  # warm-up
        return cs

    def run(self, cs, inp, calls, tracer=None):
        clock = time.perf_counter
        for _ in range(self.timed_ticks):
            t0 = clock()
            cs.step()
            calls.append(clock() - t0)
        return self.timed_ticks, 0

    def exact(self, cs, inp) -> dict:
        plan = inp.plan
        return {
            "sim_s": cs.time,
            "cluster.checkpoints": plan.checkpoints_taken,
            "cluster.recoveries": plan.recoveries,
            "cluster.readmissions": plan.nodes_readmitted,
            "cluster.net_bytes": sum(cs.network.link_bytes.values()),
            "membership": tuple(e.action for e in cs.membership_log),
            "board": digest([cs.board()]),
        }

    def check(self, cs, inp) -> None:
        want = self.reference(inp.board, self.TICKS)
        if not np.array_equal(cs.board(), want):
            raise CheckFailed("cluster board differs from numpy")
        if "re-admit" not in [e.action for e in cs.membership_log]:
            raise CheckFailed("the repaired node was never re-admitted")


class Jobs:
    """Three tenants (shares 2:1:1) submit small GoL / histogram / SGEMM
    jobs to one ``JobServer``; arrivals are open-loop Poisson in simulated
    time at about twice the node's capacity."""

    name, unit, call = "jobs", "job", "JobServer.step"
    tail_q = 99.0  # about 6000 steps in a 15 s run
    probe_sensitivity = 0.75
    exponent_metric = "server.step_exponent"
    N = 1000
    #: The job mix is a fixed multiset (kind x size x GPUs x iterations,
    #: cycled); the seed sets the order, the arrivals and the data.
    #: Tenants take turns in arrival order, independent of the mix.
    MIX = [
        (kind, size, gpus, iters)
        for kind in (GoLWorkload, HistogramWorkload, SgemmWorkload)
        for size in (16, 24, 32)
        for gpus in (1, 2)
        for iters in (1, 2, 3, 4)
    ]
    TENANTS = ("t0", "t0", "t1", "t2")  # t0 submits half the jobs
    SHARES = {"t0": 2.0, "t1": 1.0, "t2": 1.0}
    #: Mean simulated inter-arrival gap. The mix's mean service time is
    #: about 0.34 ms, so this offers about twice what the node can serve.
    GAP = 1.7e-4
    TIME_SLICE = 2e-4

    def generate(self, seed: int, scale: float = 1.0):
        n = max(1, int(self.N * scale))
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        arrivals = np.cumsum(rng.exponential(self.GAP, size=n))
        data_seeds = rng.integers(0, 2**31, size=n)
        specs = []
        for i, j in enumerate(order):
            kind, size, gpus, iters = self.MIX[j % len(self.MIX)]
            wl = kind(size=size, iterations=iters, seed=int(data_seeds[i]))
            specs.append(
                JobSpec(
                    wl,
                    tenant=self.TENANTS[i % len(self.TENANTS)],
                    # The server numbers jobs the same way on submit.
                    name=f"job-{i + 1:04d}",
                    gpus=gpus,
                    arrival=float(arrivals[i]),
                )
            )
        return SimpleNamespace(seed=seed, specs=specs, jobs=[])

    def build(self, inp):
        quotas = {t: TenantQuota(share=s) for t, s in self.SHARES.items()}
        return JobServer(
            GTX_780, 4, time_slice=self.TIME_SLICE, quotas=quotas
        )

    def run(self, srv, inp, calls, tracer=None):
        inp.jobs = [srv.submit(spec) for spec in inp.specs]
        clock = time.perf_counter
        while True:
            t0 = clock()
            job = srv.step()
            calls.append(clock() - t0)
            if job is None:
                break
        done = sum(j.state == DONE for j in inp.jobs)
        return done, len(inp.jobs) - done

    def exact(self, srv, inp) -> dict:
        lat = [j.end_time - j.spec.arrival for j in inp.jobs]
        return {
            "sim_s": srv.node.time,
            "server.sim_latency_p50_ms": _percentile_ms(lat, 50),
            "server.sim_latency_p99_ms": _percentile_ms(lat, 99),
            "server.fairness": srv.fairness(),
            "server.preemptions": sum(j.preemptions for j in inp.jobs),
            "engine_commands": srv.node.engine.commands_executed,
            "results": digest(j.spec.workload.result() for j in inp.jobs),
        }

    def check(self, srv, inp) -> None:
        for j in inp.jobs:
            if j.state != DONE:
                raise CheckFailed(f"{j.id} ended {j.state}: {j.error}")
            wl = j.spec.workload
            if not np.array_equal(wl.result(), wl.reference()):
                raise CheckFailed(
                    f"{j.id} ({wl.kind}) differs from reference"
                )


class Serving:
    """A seeded Poisson trace at 1x calibrated capacity with the default
    LeNet + SGEMM mix against one ``ServingNode`` (default autoscaling)."""

    name, unit, call = "serving", "request", "ServingNode.run"
    tail_q = 100.0  # one call per pass: about 12 in a 15 s run
    probe_sensitivity = 0.75  # BLAS-heavy payloads drift less
    exponent_metric = "serving.request_exponent"
    N = 2000
    SHORT = 64  # requests of the batched == sequential check

    def generate(self, seed: int, scale: float = 1.0):
        return SimpleNamespace(seed=seed, n=max(1, int(self.N * scale)))

    def build(self, inp):
        cfg = ServingConfig()
        rate = calibrate_capacity(cfg)["capacity_rps"]
        return SimpleNamespace(
            cfg=cfg,
            rate=rate,
            trace=poisson_trace(inp.n, rate, seed=inp.seed),
            node=ServingNode(cfg),
            report=None,
        )

    def run(self, s, inp, calls, tracer=None):
        t0 = time.perf_counter()
        s.report = s.node.run(s.trace)
        calls.append(time.perf_counter() - t0)
        served = len(s.report.served)
        return served, inp.n - served

    def exact(self, s, inp) -> dict:
        r = s.report
        return {
            "sim_s": r.makespan,
            "serving.sim_latency_p50_ms": _percentile_ms(r.latencies, 50),
            "serving.sim_latency_p99_ms": _percentile_ms(r.latencies, 99),
            "serving.slo_attainment": r.slo_attainment,
            "serving.batches": r.batches,
            "serving.mean_batch": r.mean_batch,
            "peak_replicas": r.peak_replicas,
            "engine_commands": s.node.node.engine.commands_executed,
            "results": r.results_hash(),
        }

    def check(self, s, inp) -> None:
        short = poisson_trace(self.SHORT, s.rate, seed=inp.seed)
        batched = ServingNode(s.cfg).run(short)
        seq_cfg = ServingConfig(batch_limit=1)
        sequential = ServingNode(seq_cfg).run(short)
        if batched.results.keys() != sequential.results.keys() or any(
            not np.array_equal(batched.results[k], sequential.results[k])
            for k in batched.results
        ):
            raise CheckFailed("batched serving differs from sequential")
        if len(s.report.results) != inp.n:
            raise CheckFailed(
                f"{inp.n - len(s.report.results)} requests got no result"
            )


WORKLOADS = {w.name: w for w in (Stencil(), Jobs(), Serving(), Cluster())}
