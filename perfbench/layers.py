"""Where the traced run puts its spans, and the per-layer metrics it
derives from them.

Every span wraps a public call into one layer of ``repro``:

==================  ======================================================
span                wrapped calls
==================  ======================================================
core.analyze        ``MemoryAnalyzer.analyze`` (via ``Scheduler.analyze_call``)
core.invoke         ``Scheduler.invoke`` / ``invoke_unmodified``
core.plan           ``PlanCache.lookup``
core.monitor        ``LocationMonitor.compute_copies`` / ``replay_copies``
core.graph          ``IterationGraph.launch``
core.gather         ``Scheduler.gather`` / ``gather_region``
core.wait           ``Scheduler.wait_all`` / ``wait``
core.lifecycle      ``Scheduler.__init__`` / ``release``
sim.engine          ``Engine.run`` / ``run_graph``
device_api.view     ``make_view`` and the view accessors
kernels.payload     kernel bodies and ``libs`` routines (``Kernel.func``)
server.submit       ``JobServer.submit``
server.step         ``JobServer.step``
server.workload     ``Workload.bind`` / ``run_chunk``
serving.driver      ``ServingNode.run``
serving.serve       ``LeNetEngine.serve`` / ``SgemmEngine.serve``
cluster.step        ``ClusterStencil.step``
cluster.agent       ``NodeAgent.compute`` / ``gather_rows`` / ``checkpoint_local``
bench.accounting    byte tally of a node trace before ``Trace.clear``
==================  ======================================================
"""

from __future__ import annotations

import repro.cluster.agent as cluster_agent
import repro.cluster.stencil as cluster_stencil
import repro.core.graph as core_graph
import repro.core.location_monitor as core_monitor
import repro.core.memory_analyzer as core_analyzer
import repro.core.plan as core_plan
import repro.core.scheduler as core_scheduler
import repro.core.task as core_task
import repro.device_api.views as views
import repro.server.server as server
import repro.server.workloads as server_workloads
import repro.serving.models as serving_models
import repro.serving.service as serving_service
import repro.sim.engine as sim_engine
import repro.sim.trace as sim_trace
from repro.hardware.topology import HOST

#: View accessors traced as ``device_api.view`` (class -> public members).
VIEW_ACCESSORS = {
    views.WindowView: ("center", "offset", "neighborhood_sum"),
    views.BlockView: ("stripe",),
    views.FullView: ("array",),
    views.StructuredInjectiveView: (
        "array", "write", "write_element", "commit",
    ),
    views.ReductiveStaticView: ("partial", "add_at", "max_at", "commit"),
    views.DynamicOutputView: ("append",),
    views.UnstructuredInjectiveView: ("duplicate", "scatter"),
}

WORKLOAD_CLASSES = (
    server_workloads.GoLWorkload,
    server_workloads.GoLGraphWorkload,
    server_workloads.HistogramWorkload,
    server_workloads.SgemmWorkload,
)


def memcpy_bytes(trace) -> tuple[int, int, int]:
    """(host->device, device->host, peer-to-peer) bytes of a node trace."""
    h2d = d2h = p2p = 0
    for r in trace.memcpys():
        if r.src == HOST:
            h2d += r.nbytes
        elif r.device == HOST:
            d2h += r.nbytes
        else:
            p2p += r.nbytes
    return h2d, d2h, p2p


def install(tracer, job_of: dict | None = None) -> None:
    """Patch every layer boundary. ``job_of`` maps ``id(workload)`` to its
    job id, which becomes the unit of the job-server spans."""
    counts = tracer.counts
    job_of = job_of if job_of is not None else {}

    def engine_before(args):
        return args[0].commands_executed

    def engine_after(args, before, _):
        counts["engine.commands"] += args[0].commands_executed - before

    def graph_before(args):
        return args[0].fast_launches

    def graph_after(args, before, _):
        counts["graph.fast"] += args[0].fast_launches - before

    def job_unit(args):
        tracer.unit = job_of.get(id(args[0]), tracer.unit)

    def batch_unit(args):
        tracer.unit = counts["serving.batch_index"]
        counts["serving.batch_index"] += 1

    def tick_unit(args):
        tracer.unit = args[0].master.tick

    clear = sim_trace.Trace.clear

    def tally_and_clear(trace):
        # Node traces are cleared periodically by long runs; count their
        # copy bytes first.
        h2d, d2h, p2p = memcpy_bytes(trace)
        counts["bytes.h2d"] += h2d
        counts["bytes.d2h"] += d2h
        counts["bytes.p2p"] += p2p
        clear(trace)

    # Instances whose counters are summed afterwards.
    tracer.record_new(core_plan.PlanCache, "plans")
    tracer.record_new(core_monitor.LocationMonitor, "monitors")
    tracer.record_new(sim_trace.Trace, "traces")
    tracer.substitute(
        sim_trace.Trace, "clear", "bench.accounting", tally_and_clear
    )

    p = tracer.patch
    Sched = core_scheduler.Scheduler
    p(core_analyzer.MemoryAnalyzer, "analyze", "core.analyze")
    p(Sched, "invoke", "core.invoke")
    p(Sched, "invoke_unmodified", "core.invoke")
    p(core_plan.PlanCache, "lookup", "core.plan")
    p(core_monitor.LocationMonitor, "compute_copies", "core.monitor")
    p(core_monitor.LocationMonitor, "replay_copies", "core.monitor")
    p(core_graph.IterationGraph, "launch", "core.graph",
      before=graph_before, after=graph_after)
    p(Sched, "gather", "core.gather")
    p(Sched, "gather_region", "core.gather")
    p(Sched, "wait_all", "core.wait")
    p(Sched, "wait", "core.wait")
    p(Sched, "__init__", "core.lifecycle")
    p(Sched, "release", "core.lifecycle")
    p(sim_engine.Engine, "run", "sim.engine",
      before=engine_before, after=engine_after)
    p(sim_engine.Engine, "run_graph", "sim.engine",
      before=engine_before, after=engine_after)
    p(core_scheduler, "make_view", "device_api.view")
    for cls, members in VIEW_ACCESSORS.items():
        for m in members:
            p(cls, m, "device_api.view")
    tracer.patch_kernel_bodies(core_task.Kernel, "kernels.payload")
    p(server.JobServer, "submit", "server.submit")
    p(server.JobServer, "step", "server.step")
    for cls in WORKLOAD_CLASSES:
        for m in ("bind", "run_chunk"):
            if m in cls.__dict__:  # inherited ones are traced on the base
                p(cls, m, "server.workload", before=job_unit)
    p(serving_service.ServingNode, "run", "serving.driver")
    p(serving_models.LeNetEngine, "serve", "serving.serve", before=batch_unit)
    p(serving_models.SgemmEngine, "serve", "serving.serve", before=batch_unit)
    p(cluster_stencil.ClusterStencil, "step", "cluster.step", before=tick_unit)
    for m in ("compute", "gather_rows", "checkpoint_local"):
        p(cluster_agent.NodeAgent, m, "cluster.agent")


#: Per-layer metrics: name -> (unit, better). Every traced run reports all
#: of them; a layer the workload does not use reads 0.
PER_LAYER = {
    "core.analyze.calls": ("count", "lower"),
    "core.analyze.self_s": ("s", "lower"),
    "core.invoke.calls": ("count", "lower"),
    "core.invoke.self_s": ("s", "lower"),
    "core.plan.lookups": ("count", "lower"),
    "core.plan.hit_ratio": ("ratio", "higher"),
    "core.plan.self_s": ("s", "lower"),
    "core.monitor.calls": ("count", "lower"),
    "core.monitor.self_s": ("s", "lower"),
    "core.monitor.transition_hit_ratio": ("ratio", "higher"),
    "core.graph.launches": ("count", "lower"),
    "core.graph.fast_ratio": ("ratio", "higher"),
    "core.graph.self_s": ("s", "lower"),
    "core.gather.calls": ("count", "lower"),
    "core.gather.self_s": ("s", "lower"),
    "core.wait.calls": ("count", "lower"),
    "core.wait.self_s": ("s", "lower"),
    "core.lifecycle.calls": ("count", "lower"),
    "core.lifecycle.self_s": ("s", "lower"),
    "sim.engine.commands": ("count", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.us_per_command": ("us", "lower"),
    "sim.bytes.h2d": ("B", "lower"),
    "sim.bytes.d2h": ("B", "lower"),
    "sim.bytes.p2p": ("B", "lower"),
    "device_api.view.calls": ("count", "lower"),
    "device_api.view.self_s": ("s", "lower"),
    "kernels.payload.calls": ("count", "lower"),
    "kernels.payload.self_s": ("s", "lower"),
    "server.submit.self_s": ("s", "lower"),
    "server.step.calls": ("count", "lower"),
    "server.policy.self_s": ("s", "lower"),
    "server.policy.share": ("ratio", "lower"),
    "server.workload.self_s": ("s", "lower"),
    "server.preemptions": ("count", "lower"),
    "server.fairness": ("index", "higher"),
    "server.sim_latency_p50_ms": ("sim_ms", "lower"),
    "server.sim_latency_p99_ms": ("sim_ms", "lower"),
    "server.step_exponent": ("slope", "lower"),
    "serving.driver.self_s": ("s", "lower"),
    "serving.serve.calls": ("count", "lower"),
    "serving.serve.self_s": ("s", "lower"),
    "serving.batches": ("count", "lower"),
    "serving.mean_batch": ("requests", "higher"),
    "serving.slo_attainment": ("ratio", "higher"),
    "serving.sim_latency_p50_ms": ("sim_ms", "lower"),
    "serving.sim_latency_p99_ms": ("sim_ms", "lower"),
    "serving.request_exponent": ("slope", "lower"),
    "cluster.step.calls": ("count", "lower"),
    "cluster.control.self_s": ("s", "lower"),
    "cluster.agent.self_s": ("s", "lower"),
    "cluster.checkpoints": ("count", "lower"),
    "cluster.recoveries": ("count", "lower"),
    "cluster.readmissions": ("count", "lower"),
    "cluster.net_bytes": ("B", "lower"),
    "numpy_ref.wall_s": ("s", "lower"),
    "numpy_ref.tax_x": ("x", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_x": ("x", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}

#: span name -> metric prefix of its call count and self time.
SPAN_METRICS = {
    "core.analyze": ("core.analyze.calls", "core.analyze.self_s"),
    "core.invoke": ("core.invoke.calls", "core.invoke.self_s"),
    "core.plan": ("core.plan.lookups", "core.plan.self_s"),
    "core.monitor": ("core.monitor.calls", "core.monitor.self_s"),
    "core.graph": ("core.graph.launches", "core.graph.self_s"),
    "core.gather": ("core.gather.calls", "core.gather.self_s"),
    "core.wait": ("core.wait.calls", "core.wait.self_s"),
    "core.lifecycle": ("core.lifecycle.calls", "core.lifecycle.self_s"),
    "sim.engine": (None, "sim.engine.self_s"),
    "device_api.view": ("device_api.view.calls", "device_api.view.self_s"),
    "kernels.payload": ("kernels.payload.calls", "kernels.payload.self_s"),
    "server.submit": (None, "server.submit.self_s"),
    "server.step": ("server.step.calls", "server.policy.self_s"),
    "server.workload": (None, "server.workload.self_s"),
    "serving.driver": (None, "serving.driver.self_s"),
    "serving.serve": ("serving.serve.calls", "serving.serve.self_s"),
    "cluster.step": ("cluster.step.calls", "cluster.control.self_s"),
    "cluster.agent": (None, "cluster.agent.self_s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``wall`` seconds."""
    out = {
        name: 0 if unit in ("count", "B") else 0.0
        for name, (unit, _) in PER_LAYER.items()
    }
    selfs = tracer.self_times()
    for span, (calls_key, self_key) in SPAN_METRICS.items():
        calls, self_s = selfs.get(span, (0, 0.0))
        if calls_key is not None:
            out[calls_key] = calls
        out[self_key] = self_s
    counts = tracer.counts
    out["core.graph.fast_ratio"] = _ratio(
        counts["graph.fast"], out["core.graph.launches"]
    )
    plans = tracer.created["plans"]
    hits = sum(pc.stats["hits"] for pc in plans)
    out["core.plan.hit_ratio"] = _ratio(
        hits, sum(pc.stats["hits"] + pc.stats["misses"] for pc in plans)
    )
    monitors = tracer.created["monitors"]
    t_hits = sum(m.transition_hits for m in monitors)
    out["core.monitor.transition_hit_ratio"] = _ratio(
        t_hits, t_hits + sum(m.transition_misses for m in monitors)
    )
    commands = counts["engine.commands"]
    out["sim.engine.commands"] = commands
    out["sim.engine.us_per_command"] = _ratio(
        1e6 * out["sim.engine.self_s"], commands
    )
    h2d, d2h, p2p = (counts[k] for k in ("bytes.h2d", "bytes.d2h", "bytes.p2p"))
    for t in tracer.created["traces"]:
        a, b, c = memcpy_bytes(t)
        h2d, d2h, p2p = h2d + a, d2h + b, p2p + c
    out["sim.bytes.h2d"], out["sim.bytes.d2h"] = h2d, d2h
    out["sim.bytes.p2p"] = p2p
    out["server.policy.share"] = _ratio(out["server.policy.self_s"], wall)
    total_self = sum(s for _, s in selfs.values())
    out["trace.wall_s"] = wall
    out["trace.spans"] = len(tracer.spans)
    out["trace.unattributed_share"] = 1.0 - _ratio(total_self, wall)
    return out
