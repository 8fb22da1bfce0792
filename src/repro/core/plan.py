"""Invocation plans: cached host-side scheduling state (§4.3 amortization).

The paper's flagship workloads are iterative — every Game-of-Life tick, NMF
multiplicative update and LeNet batch re-submits a task with the *same*
kernel, containers, grid and device count. The geometry the scheduler
derives for such a task (grid partition, per-device ``required``/``owned``
rects, peer-preference order) is a pure function of the task's
*structure*, so it is computed once and replayed on every subsequent
``Invoke``. Only the residency-dependent part — the Segment Location
Monitor's copy planning — runs per invocation.

A :class:`TaskPlan` is keyed by :func:`task_signature`: the grid, the
device set (and straggler weights), and per container its pattern type,
pattern parameters, datum shape and dtype, plus a slot-aliasing tuple
saying which containers name the same datum. No datum or kernel identity
enters the key, so a plan is a datum-free template: Game of Life's
``A→B`` and ``B→A`` ticks share one, and so do two job-server leases that
submit the same structure over fresh datums.

Templates live in one :class:`PlanStore` per :class:`~repro.sim.SimNode`
(:meth:`PlanCache.shared`), shared by every ``Scheduler`` on that node
together with the location monitor's geometry tables
(``TaskPlan.copy_memo`` is keyed by monitor state ids, so the three share
one lifetime). A template is bound to a scheduler's kernel and datums at
lookup: the first use of each binding validates it against that
scheduler's analyzed boxes (``MemoryAnalyzer.check_plan``), and the
binding keeps the per-job state — kernel durations and out-of-core chunk
plans — out of the shared store.

Plan caching changes *wall-clock* host cost only. Simulated time is
unaffected: the scheduler charges the same modelled host overhead per
invocation whether a plan was replayed or freshly built, and the replayed
command sequence is identical to the one the slow path emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Mapping
from weakref import WeakKeyDictionary

from repro.patterns.base import Requirement
from repro.utils.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.task import Task
    from repro.patterns.base import Container
    from repro.sim.node import SimNode


class Uncacheable(Exception):
    """A task signature component is unhashable; the plan cannot be keyed."""


def _freeze(value: Any) -> Hashable:
    """A hashable stand-in for a pattern parameter or constant."""
    try:
        hash(value)
    except TypeError:
        raise Uncacheable(f"unhashable signature component {value!r}") from None
    return value


def container_signature(c: "Container") -> tuple:
    """Stable signature of one container: pattern type + parameters +
    datum shape and dtype (never the datum's identity).

    Pattern parameters are taken from the instance dict (``radius``,
    ``boundary``, ``ilp``, ``op``, ...), so new pattern classes participate
    without registration; an unhashable parameter makes the task
    signature :class:`Uncacheable` and the invocation bypasses the cache.
    """
    return (
        type(c).__qualname__,
        c.datum.shape,
        c.datum.dtype.str,
        tuple(sorted((k, v) for k, v in vars(c).items() if k != "datum")),
    )


def _device_tuple(devices: "int | tuple[int, ...]") -> tuple[int, ...]:
    """Normalize a device-set argument: an int ``n`` means the first ``n``
    devices (the pre-fault convention); a tuple is the explicit alive set.
    Fault recovery shrinks the alive set to an arbitrary subset, so plans
    are keyed by the exact device ids they were built for."""
    if isinstance(devices, int):
        return tuple(range(devices))
    return tuple(devices)


def task_signature(
    task: "Task",
    devices: "int | tuple[int, ...]",
    weights: "tuple[int, ...] | None" = None,
) -> tuple:
    """The plan-cache key for one task submission (see module docstring).

    The aliasing tuple gives, per container, the index of the first
    container holding the same datum: an in-place task (one datum read
    and written) and an out-of-place one differ in residency behaviour,
    so they never share a plan's copy memo.

    ``weights`` is the quantized per-device throughput-ratio vector the
    straggler-feedback loop segments by (DESIGN.md §11); it is part of the
    key, so plans built for a different observed ratio are re-keyed, never
    replayed — a plan cached under the even split (``weights=None``) is
    re-hit as soon as the node heals.
    """
    first: dict[int, int] = {}
    sig = (
        task.grid.shape,
        task.grid.block0,
        _device_tuple(devices),
        tuple(container_signature(c) for c in task.containers),
        tuple(
            first.setdefault(id(c.datum), i)
            for i, c in enumerate(task.containers)
        ),
    )
    if weights is not None:
        sig += (tuple(weights),)
    _freeze(sig)
    return sig


def freeze_constants(constants: Mapping[str, Any]) -> tuple | None:
    """Hashable form of a task's constants, or ``None`` if any value is
    unhashable (per-device durations are then recomputed each invocation,
    since cost models may inspect constants)."""
    try:
        return tuple(sorted((k, _freeze(v)) for k, v in constants.items()))
    except Uncacheable:
        return None


@dataclass(frozen=True)
class DevicePlan:
    """One active device's precomputed share of a task."""

    device: int
    work_rect: Rect
    #: Input requirements, aligned with ``task.inputs``.
    input_reqs: tuple[Requirement, ...]
    #: Owned output rects, aligned with ``task.outputs``.
    output_rects: tuple[Rect, ...]
    #: Preferred peer copy sources (same-switch devices first).
    peers: tuple[int, ...]


@dataclass(eq=False)
class TaskPlan:
    """Everything structure-determined about scheduling one task.

    Holds geometry only — no datum, kernel or host array — so one plan
    serves every task of its signature on the node. Each scheduler keeps
    its per-job state (kernel durations, chunk plans) in a binding of the
    plan to its kernel and datums.
    """

    signature: tuple
    active: tuple[int, ...]
    device_plans: dict[int, DevicePlan]
    #: Per-input consumer rects {device: virtual rect} for the device-level
    #: reduce-scatter path (aligned with ``task.inputs``).
    consumer_rects: tuple[dict[int, Rect], ...]
    #: Memoized location-monitor copy decisions for steady-state replay:
    #: ``(input_index, device, residency fingerprint) ->
    #: tuple[(src, src_index, rect), ...]``. Iterative workloads cycle
    #: through a handful of residency states, so after a warm-up lap every
    #: copy plan is rebuilt from here — the rect algebra of Algorithm 2 is
    #: skipped, only the (per-iteration) producer events are re-read. A
    #: state never seen before falls back to ``compute_copies``, so this is
    #: still "copy computation against current residency", just memoized.
    #: Fingerprints are state ids of the node's shared geometry table, so
    #: decisions recorded by one scheduler replay for another. Bounded by
    #: ``COPY_MEMO_LIMIT``; exists only while the plan itself is cached, so
    #: the uncached baseline (fresh plan per invocation) cannot carry
    #: decisions across invocations.
    copy_memo: dict[tuple, tuple] = field(default_factory=dict)
    #: Set by :meth:`PlanCache.store` once an invocation has run the plan:
    #: from then on lookups hit and copy decisions are memoized. A template
    #: only ``analyze_call`` has derived so far, and a one-shot plan (cache
    #: disabled, or unhashable signature), stay False.
    memoize: bool = False


#: Upper bound on memoized copy decisions per plan. Steady-state iterative
#: workloads need a few entries per (input, device); a workload whose
#: residency never revisits a state stops memoizing here instead of growing
#: the dict unboundedly.
COPY_MEMO_LIMIT = 512


def build_plan(task: "Task", devices: "int | tuple[int, ...]", analyzer=None,
               peers_of=None, weights=None) -> TaskPlan:
    """Compute a task's invocation plan (the slow path, run once per
    signature and node).

    ``devices`` is the alive device set the work is segmented across (an
    int means the first N devices). Pure geometry: partitions the grid and
    evaluates every container's ``required``/``owned`` rects per active
    device. With ``weights`` (the quantized observed-throughput ratio
    vector, aligned with ``devices``), the grid is split proportionally
    instead of evenly — the ratio-aware segmenter of the straggler
    feedback loop (DESIGN.md §11). When ``analyzer`` is given, the plan is
    validated against its analyzed allocation boxes
    (``MemoryAnalyzer.check_plan``). No commands are enqueued and no
    monitor state is touched.
    """
    devices = _device_tuple(devices)
    try:
        signature = task_signature(task, devices, weights)
    except Uncacheable:
        signature = ()  # plan still usable once; callers won't store it
    if weights is None:
        partition = task.grid.partition(len(devices))
    else:
        partition = task.grid.partition_weighted(weights)
    device_plans: dict[int, DevicePlan] = {}
    inputs = task.inputs
    outputs = task.outputs
    work_shape = task.grid.shape
    for d, w in zip(devices, partition):
        if w.empty:
            continue
        device_plans[d] = DevicePlan(
            device=d,
            work_rect=w,
            input_reqs=tuple(c.required(work_shape, w) for c in inputs),
            output_rects=tuple(c.owned(work_shape, w) for c in outputs),
            peers=tuple(peers_of(d)) if peers_of is not None else (),
        )
    active = tuple(device_plans)
    consumer_rects = tuple(
        {d: device_plans[d].input_reqs[i].virtual for d in active}
        for i in range(len(inputs))
    )
    plan = TaskPlan(
        signature=signature,
        active=active,
        device_plans=device_plans,
        consumer_rects=consumer_rects,
    )
    if analyzer is not None:
        analyzer.check_plan(task, plan)
    return plan


@dataclass(frozen=True)
class ChunkStep:
    """One sub-segment of a device's work under out-of-core replay."""

    work_rect: Rect
    #: Input requirements for this chunk, aligned with ``task.inputs``.
    input_reqs: tuple[Requirement, ...]
    #: Owned output rects for this chunk, aligned with ``task.outputs``.
    output_rects: tuple[Rect, ...]


@dataclass
class ChunkPlan:
    """Out-of-core execution plan for one device (DESIGN.md §10 stage 2).

    The device's block range is split along the outermost grid dimension
    into ``num_chunks`` block-aligned sub-segments whose staging footprint
    fits the byte budget the escalation left free. Staging uses fixed
    *slot pools*: ``slots`` interchangeable buffers per rotating container
    (2 = double-buffered, overlapping chunk i's copy-out with chunk i+1's
    compute on the dual copy engines; 1 = serialized fallback), plus one
    buffer per chunk-invariant ("persistent") input that is copied in once.
    Duplicated outputs are not staged at all — they accumulate across
    chunks in the analyzer's regular per-device buffer.
    """

    device: int
    num_chunks: int
    slots: int
    steps: tuple[ChunkStep, ...]
    #: Aligned with ``task.inputs``: True = chunk-invariant, copied once.
    persistent_in: tuple[bool, ...]
    #: Aligned with ``task.inputs``: pool shape (per-dim max over chunks
    #: for rotating inputs; the invariant box for persistent ones).
    in_pool_shapes: tuple[tuple[int, ...], ...]
    #: Aligned with ``task.outputs``: pool shape, or None for duplicated
    #: outputs (they live in the analyzer's buffer, outside the pools).
    out_pool_shapes: tuple[tuple[int, ...] | None, ...]
    #: Total staging bytes: persistent pools + slots x rotating set.
    footprint: int


def _split_chunks(work_rect: Rect, block0: int, k: int) -> list[Rect]:
    """Split ``work_rect`` along dim 0 into ``k`` block-aligned pieces.

    Block rows are distributed as evenly as possible (first ``nb % k``
    chunks get one extra row of blocks); every boundary except the last is
    a multiple of ``block0`` from the rect's start, matching how
    ``Grid.partition`` aligns device boundaries.
    """
    lo, hi = work_rect[0].begin, work_rect[0].end
    nb = -((lo - hi) // block0)  # ceil((hi - lo) / block0)
    base, extra = divmod(nb, k)
    out: list[Rect] = []
    cursor = lo
    for j in range(k):
        rows = base + (1 if j < extra else 0)
        end = min(cursor + rows * block0, hi)
        out.append(Rect((cursor, end), *work_rect.intervals[1:]))
        cursor = end
    return out


def build_chunk_plan(
    task: "Task",
    device: int,
    work_rect: Rect,
    budget: int,
    capacity: int,
) -> ChunkPlan:
    """Find the smallest chunk count whose staging footprint fits ``budget``.

    Tries K = 2, 4, 8, ... up to one chunk per block row, preferring 2
    staging slots (double-buffered pipeline) and falling back to 1 before
    growing K further. Raises :class:`~repro.errors.CapacityError` — naming
    the datum that dominates the irreducible footprint — when even maximal
    chunking with a single slot does not fit.
    """
    from repro.errors import CapacityError

    inputs = task.inputs
    outputs = task.outputs
    work_shape = task.grid.shape
    block0 = task.grid.block0
    lo, hi = work_rect[0].begin, work_rect[0].end
    nb = -((lo - hi) // block0)

    def measure(k: int):
        steps = []
        for rect in _split_chunks(work_rect, block0, k):
            reqs = tuple(c.required(work_shape, rect) for c in inputs)
            owned = tuple(c.owned(work_shape, rect) for c in outputs)
            steps.append(ChunkStep(rect, reqs, owned))
        persistent = tuple(
            all(
                s.input_reqs[i].virtual == steps[0].input_reqs[i].virtual
                for s in steps
            )
            for i in range(len(inputs))
        )
        in_shapes = []
        contrib: list[tuple[int, str]] = []  # (bytes toward footprint, name)
        persistent_bytes = 0
        per_set = 0
        for i, c in enumerate(inputs):
            shape = tuple(
                max(s.input_reqs[i].virtual.shape[d] for s in steps)
                for d in range(c.datum.ndim)
            )
            in_shapes.append(shape)
            nbytes = 1
            for n in shape:
                nbytes *= n
            nbytes *= c.datum.dtype.itemsize
            if persistent[i]:
                persistent_bytes += nbytes
                contrib.append((nbytes, c.datum.name))
            else:
                per_set += nbytes
                contrib.append((nbytes, c.datum.name))
        out_shapes: list[tuple[int, ...] | None] = []
        for j, c in enumerate(outputs):
            if c.duplicated:
                out_shapes.append(None)  # analyzer buffer, not staged
                continue
            shape = tuple(
                max(s.output_rects[j].shape[d] for s in steps)
                for d in range(c.datum.ndim)
            )
            out_shapes.append(shape)
            nbytes = 1
            for n in shape:
                nbytes *= n
            nbytes *= c.datum.dtype.itemsize
            per_set += nbytes
            contrib.append((nbytes, c.datum.name))
        return steps, persistent, in_shapes, out_shapes, \
            persistent_bytes, per_set, contrib

    ks: list[int] = []
    k = 2
    while k < nb:
        ks.append(k)
        k *= 2
    if nb >= 2:
        ks.append(nb)
    else:
        # A single block row cannot be split further; measure it anyway so
        # the CapacityError reports the true irreducible floor.
        ks.append(1)
    best_floor = None
    for k in ks:
        (steps, persistent, in_shapes, out_shapes,
         persistent_bytes, per_set, contrib) = measure(k)
        for slots in (2, 1):
            eff_slots = min(slots, k)
            footprint = persistent_bytes + eff_slots * per_set
            if footprint <= budget:
                return ChunkPlan(
                    device=device,
                    num_chunks=k,
                    slots=eff_slots,
                    steps=tuple(steps),
                    persistent_in=persistent,
                    in_pool_shapes=tuple(in_shapes),
                    out_pool_shapes=tuple(out_shapes),
                    footprint=footprint,
                )
        if k == ks[-1]:
            best_floor = (persistent_bytes + per_set, contrib)
    required, contrib = best_floor if best_floor is not None else (0, [])
    worst = max(contrib, default=(0, "?"))
    raise CapacityError(
        f"device {device}: irreducible out-of-core footprint {required} B "
        f"exceeds budget {budget} B (capacity {capacity} B); dominated by "
        f"datum {worst[1]!r} ({worst[0]} B per chunk)",
        datum=worst[1],
        required=required,
        capacity=capacity,
        device=device,
    )


#: Upper bound on the plans a node's store holds. Past it, new structures
#: get one-shot plans (built per invocation, never stored), as the monitor
#: stops assigning state ids at ``_GEOM_LIMIT``.
PLAN_LIMIT = 4096


class PlanStore:
    """The datum-free scheduling templates shared by every scheduler on
    one node: plans keyed by structure, plus the location monitor's
    geometry state ids and memoized transitions (see module docstring).
    Holds rects, ints and positions only — no datum, event or array."""

    def __init__(self) -> None:
        self.plans: dict[tuple, TaskPlan] = {}
        #: ``LocationMonitor`` tables: geometry fingerprint -> state id,
        #: and (state id, kind, loc, rect) -> (post state id, template).
        self.geom_ids: dict[tuple, int] = {}
        self.transitions: dict[tuple, tuple[int, tuple]] = {}


#: One store per node, created on first use; it lives and dies with the
#: node.
_STORES: "WeakKeyDictionary[SimNode, PlanStore]" = WeakKeyDictionary()


class PlanCache:
    """One scheduler's view of a :class:`PlanStore`, with its own lookup
    counters (each lookup is counted once, by the cache that made it).

    ``PlanCache()`` owns a private store; :meth:`shared` binds the node's.
    ``enabled=False`` turns the scheduler into the uncached baseline: every
    invocation rebuilds its plan from scratch (and nothing is stored), which
    is what ``python -m repro.bench --overhead`` measures against.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._store = PlanStore()
        self._plans = self._store.plans
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        #: Invocations satisfied by iteration-graph replay (DESIGN.md §12)
        #: without even a cache lookup — the macro-command fast path.
        self.graph_hits = 0

    @classmethod
    def shared(cls, node: "SimNode") -> "PlanCache":
        """A cache over ``node``'s store, shared with every other
        scheduler on the node."""
        store = _STORES.get(node)
        if store is None:
            store = _STORES[node] = PlanStore()
        cache = cls()
        cache._store = store
        cache._plans = store.plans
        return cache

    @property
    def templates(self) -> PlanStore:
        """The store this cache reads and writes."""
        return self._store

    def __len__(self) -> int:
        return len(self._plans)

    def lookup(
        self,
        task: "Task",
        devices: "int | tuple[int, ...]",
        weights: "tuple[int, ...] | None" = None,
    ) -> TaskPlan | None:
        """The stored plan for ``task``'s structure, or None.

        A hit is a plan some invocation on this node already ran; a
        template only ``analyze_call`` derived so far is a miss (the caller
        then takes it from :meth:`template` without rebuilding)."""
        if not self.enabled:
            self.misses += 1
            return None
        try:
            key = task_signature(task, devices, weights)
        except Uncacheable:
            self.bypasses += 1
            return None
        plan = self._plans.get(key)
        if plan is None or not plan.memoize:
            self.misses += 1
            return None
        self.hits += 1
        return plan

    def template(
        self,
        task: "Task",
        devices: "int | tuple[int, ...]",
        weights: "tuple[int, ...] | None" = None,
        peers_of=None,
    ) -> TaskPlan:
        """``task``'s plan from the store, else built (and stored, within
        :data:`PLAN_LIMIT`). Not a lookup: the counters do not move. The
        analyzer sizes its boxes from this plan, so analysis and invocation
        derive per-device rects once, in one place."""
        plan = None
        if self.enabled:
            try:
                plan = self._plans.get(task_signature(task, devices, weights))
            except Uncacheable:
                pass
        if plan is None:
            plan = build_plan(task, devices, peers_of=peers_of, weights=weights)
            if (self.enabled and plan.signature
                    and len(self._plans) < PLAN_LIMIT):
                self._plans[plan.signature] = plan
        return plan

    def store(self, plan: TaskPlan) -> None:
        """Mark ``plan`` replayable: store it (within :data:`PLAN_LIMIT`)
        and let later lookups hit it."""
        if not (self.enabled and plan.signature):
            return
        plans = self._plans
        if plan.signature not in plans and len(plans) >= PLAN_LIMIT:
            return
        plans[plan.signature] = plan
        plan.memoize = True

    def invalidate_device(self, device: int) -> int:
        """Drop every plan that segments work onto ``device`` (fault
        recovery: the device set changed, so those plans can never be
        replayed safely). Returns the number of plans dropped."""
        doomed = [
            key for key, plan in self._plans.items()
            if device in plan.active
        ]
        for key in doomed:
            del self._plans[key]
        return len(doomed)

    @property
    def stats(self) -> dict[str, int]:
        return {
            "plans": len(self._plans),
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "graph_hits": self.graph_hits,
        }
