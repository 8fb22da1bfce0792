"""Distributed stencil execution across multi-GPU nodes (paper §8).

The paper's closing direction: extending the MAPS-Multi paradigm to
clusters, where *"communication latency is orders of magnitude higher
than within a multi-GPU node"*. This module is the user-facing facade of
that extension for the Window → Structured Injective family (the Game of
Life and friends):

* the global board is split into row **slabs**, one per node; each slab
  is stored with ``radius`` ghost rows on either side;
* within a node, the unmodified MAPS-Multi scheduler partitions the slab
  across the node's GPUs exactly as before (patterns unchanged);
* between ticks, each node gathers only its edge rows
  (``Scheduler.gather_region``), ships them over the simulated fabric to
  its neighbors' ghost rows, and invalidates the device copies of the
  ghost region (``mark_host_region_dirty``) so the framework re-uploads
  them.

Execution is delegated to the master/agent subsystem (DESIGN.md §15):
:class:`~repro.cluster.master.ClusterMaster` drives one
:class:`~repro.cluster.agent.NodeAgent` per node through the simulated
fabric, and — when a :class:`~repro.cluster.faults.ClusterFaultPlan` is
installed — detects node crashes, link faults and partitions via
heartbeats, checkpoints slabs to peer nodes, and recovers by re-slabbing
the board across survivors, with results bit-identical to the fault-free
run. Without a fault plan the schedule (and simulated time) is identical
to the original fault-intolerant cluster layer.
"""

from __future__ import annotations


import numpy as np

from repro.cluster.faults import ClusterFaultPlan
from repro.cluster.master import ClusterMaster
from repro.cluster.network import NetworkCalibration
from repro.core import Kernel
from repro.hardware.specs import GPUSpec


class ClusterStencil:
    """A 2-D stencil (Window2D → StructuredInjective) on a cluster.

    Args:
        spec: GPU model of every node (homogeneous cluster unless
            ``node_specs`` overrides individual nodes).
        num_nodes: Number of multi-GPU nodes.
        gpus_per_node: GPUs per node.
        board: Initial global board (rows divisible by ``num_nodes``),
            or a ``(rows, cols)`` tuple for timing-only runs.
        kernel: The per-tick kernel (same object the single-node
            framework runs).
        radius: Stencil radius (ghost depth).
        functional: Functional vs timing-only per-node simulation.
        network: Fabric calibration.
        wrap: Cyclic (toroidal) row boundary via ring exchange.
        faults: Optional cluster fault plan (crashes, link faults,
            partitions, slow links) — enables heartbeats, checkpointing
            and recovery.
        node_specs: Optional per-node GPU spec overrides.

    The global boundary condition is ZERO (the slab decomposition makes
    global WRAP a cyclic exchange — supported by passing ``wrap=True``).
    """

    def __init__(
        self,
        spec: GPUSpec,
        num_nodes: int,
        gpus_per_node: int,
        board: np.ndarray | tuple[int, int],
        kernel: Kernel,
        radius: int = 1,
        functional: bool = True,
        network: NetworkCalibration | None = None,
        wrap: bool = False,
        faults: ClusterFaultPlan | None = None,
        node_specs: dict[int, GPUSpec] | None = None,
    ):
        self.master = ClusterMaster(
            spec,
            num_nodes,
            gpus_per_node,
            board,
            kernel,
            radius=radius,
            functional=functional,
            network=network,
            wrap=wrap,
            faults=faults,
            node_specs=node_specs,
        )
        self.rows = self.master.rows
        self.cols = self.master.cols
        self.radius = radius
        self.wrap = wrap
        self.num_nodes = num_nodes
        self.slab_rows = self.rows // num_nodes
        self.kernel = kernel
        self.functional = functional
        self.faults = faults

    # -- delegation -----------------------------------------------------------
    @property
    def network(self):
        return self.master.network

    @property
    def monitor(self):
        return self.master.monitor

    @property
    def agents(self):
        return self.master.agents

    @property
    def events(self):
        """Typed failure errors the master detected, in order."""
        return self.master.events

    @property
    def recovery_log(self):
        return self.master.recovery_log

    @property
    def membership_log(self):
        """Elastic-membership audit trail (MembershipEvent records)."""
        return self.master.membership_log

    def membership_stats(self):
        """Per-action counts over the membership log plus node statuses."""
        return self.master.membership_stats()

    # -- execution ------------------------------------------------------------
    def step(self) -> None:
        """One tick on every node plus the inter-node ghost exchange
        (recovering from any injected cluster faults on the way)."""
        self.master.step()

    def run(self, ticks: int) -> float:
        """Run ``ticks`` steps; returns the cluster time afterwards."""
        return self.master.run(ticks)

    @property
    def time(self) -> float:
        return self.master.time

    # -- results --------------------------------------------------------------
    def board(self) -> np.ndarray:
        """Gather and assemble the current global board (functional)."""
        return self.master.board()
