"""Iteration-graph capture & replay (DESIGN.md §12).

CUDA-graph-style batch submission for the steady state: the scheduler
records one full iteration's *resolved* command stream — every kernel,
copy, event dependency and host-clock advance that planning produced —
into an :class:`IterationGraph`, then re-dispatches it ``n`` times as a
pre-lowered macro-command, skipping task construction, plan lookup,
copy-decision memoization and per-task monitor queries entirely.

The replay is *bit-identical* to the eager path, not merely equivalent:

* Every opcode performs the same floating-point arithmetic in the same
  order as :meth:`Engine._dispatch` (durations, channel occupancy and
  engine busy times are precomputed only where the eager expression is a
  pure function of captured values).
* Host-clock checkpoints re-accumulate the captured per-lap advances with
  the same sequential additions the eager submission loop performs.
* Cross-lap event dependencies are resolved through the location
  monitor: a captured wait on a pre-capture event reads whatever the
  monitor held at that event's position when the capture began, so in a
  later lap it is the window slot the previous lap left there (or, at an
  untouched position, the same event again).
* Device-LRU touch order, per-link fault counters and EWMA observer
  callbacks are replayed so every side channel the scheduler might read
  later has the exact state an uncaptured run would have left.

A launch takes the fast path only when the steady state it froze still
holds; otherwise :meth:`IterationGraph.launch` falls back to re-invoking
the recorded calls through the normal scheduler path, bit-identically by
construction. It falls back when an EWMA rebalance changed segment
weights, a device was retired, a replica was evicted or chunked under
memory pressure (all bump the scheduler's graph generation), straggler
windows or pending transfer faults are still active, work is still
queued, or a datum the recorded calls touch is not in the captured
entry geometry. Validation is scoped to those datums and matches their
events by position, not identity: with the node drained and every
matched event recorded by the host clock, waiting on any of them is a
no-op, so an eager prefix, a gather or another engine's work between
launches leaves the next launch fast.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.location_monitor import LocationMonitor, _DatumState, _Instance
from repro.errors import GraphCaptureError
from repro.hardware.topology import HOST
from repro.sim.commands import (
    Event,
    EventRecord,
    EventWait,
    HostOp,
    KernelLaunch,
    Memcpy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import Scheduler
    from repro.sim.stream import Stream


class GraphRecorder:
    """Collects one steady-state period as the scheduler submits it.

    Installed as ``node.graph_recorder`` by ``Scheduler.begin_batch``;
    submission behaviour is unchanged, the recorder only mirrors what was
    enqueued (plus the host-clock advances and device-LRU touches the
    replay must reproduce).
    """

    __slots__ = (
        "commands",
        "streams",
        "events",
        "deltas",
        "touches",
        "h_start",
    )

    def __init__(self, host_time: float):
        #: stream id -> [(command, checkpoint index)]; the checkpoint is
        #: the number of host advances seen before submission, so replay
        #: can reconstruct the command's ``earliest_start`` per lap.
        self.commands: dict[int, list[tuple[Any, int]]] = {}
        self.streams: dict[int, "Stream"] = {}
        #: Events created during the capture window, in creation order
        #: (slot s holds the event with sequence number ``S0 + s``).
        self.events: list[Event] = []
        #: Host-clock advances of the period, in order.
        self.deltas: list[float] = []
        #: Submission-time device-LRU touches ``(memory, buffer)``.
        self.touches: list[tuple[Any, Any]] = []
        self.h_start = host_time

    def record(self, stream: "Stream", cmd: Any) -> None:
        sid = stream.id
        cmds = self.commands.get(sid)
        if cmds is None:
            self.streams[sid] = stream
            cmds = self.commands[sid] = []
        cmds.append((cmd, len(self.deltas)))

    def record_event(self, event: Event) -> None:
        self.events.append(event)

    def record_host(self, dt: float) -> None:
        self.deltas.append(dt)


def _copy_state(monitor, st: _DatumState) -> _DatumState:
    """Frozen copy of one datum's monitor state (events by reference;
    instances are never mutated in place, so sharing them is safe)."""
    monitor._sid(st)
    return _DatumState(
        up_to_date={loc: list(v) for loc, v in st.up_to_date.items()},
        agg_mode=st.agg_mode,
        agg_sources=dict(st.agg_sources),
        pending_reads={loc: list(v) for loc, v in st.pending_reads.items()},
        settled_reads=dict(st.settled_reads),
        sid=st.sid,
        agg_lost=st.agg_lost,
        agg_shadow=st.agg_shadow,
    )


def snapshot_monitor(monitor) -> dict[int, _DatumState]:
    """Copy every datum's residency state (taken when a capture begins;
    finalization compares the datums the period touched against it)."""
    return {
        did: _copy_state(monitor, st) for did, st in monitor._state.items()
    }


def _view(monitor, st: _DatumState, consumed: tuple) -> tuple[tuple, list]:
    """``(geometry, events)`` of one datum's state, as a graph sees it.

    The geometry is everything the eager path's command stream depends
    on: instance rects (the canonical state id), aggregation structure,
    and — for the locations ``consumed`` by a writer of the period — the
    pending-read list length and folded-reader count, which fix how many
    WAR waits that writer emits. Which positions hold no event is part of
    the geometry too (a ``None`` producer emits no wait). ``events`` lists
    every event reference in a fixed order, so two states of equal
    geometry can be matched position by position.
    """
    evs = [inst.event for insts in st.up_to_date.values() for inst in insts]
    aggs = st.agg_sources
    if aggs:
        evs.extend(aggs.values())
    shadow = st.agg_shadow
    if shadow is not None:
        evs.extend(shadow[1].values())
        evs.append(shadow[2])
    pend: tuple = ()
    if consumed:
        rows = []
        for loc in consumed:
            lst = st.pending_reads.get(loc, ())
            settled = st.settled_reads.get(loc)
            count = 0
            if settled is not None:
                evs.append(settled[0])
                count = settled[1]
            evs.extend(lst)
            rows.append((len(lst), count))
        pend = tuple(rows)
    sid = st.sid
    if sid < 0:
        sid = monitor._sid(st)
        if sid < 0:  # id table full: compare the rects themselves
            sid = tuple(
                (loc, tuple(i.rect for i in insts))
                for loc, insts in st.up_to_date.items()
            )
    geo = (
        sid,
        st.agg_mode,
        tuple(aggs) if aggs else (),
        None if shadow is None else (shadow[0], tuple(shadow[1])),
        st.agg_lost,
        pend,
        tuple(i for i, ev in enumerate(evs) if ev is None)
        if None in evs else (),
    )
    return geo, evs


class IterationGraph:
    """A captured steady-state period, replayable as one macro-command.

    Produced by ``Scheduler.begin_batch()``/``end_batch()`` (or the
    ``with sched.capture() as g:`` form). :meth:`launch` re-dispatches the
    period ``n`` times; when the frozen steady state no longer holds it
    transparently falls back to re-invoking the recorded calls through
    the normal scheduler path.
    """

    def __init__(self, scheduler: "Scheduler"):
        self._sched = scheduler
        #: The invoke-level calls of the period, for the fallback path:
        #: ``(raw, kernel, containers, grid, constants)``.
        self.calls: list[tuple] = []
        #: Whether the capture compiled to a replayable macro-command.
        self.replayable = False
        #: Whether the period is a fixed point (its exit geometry equals
        #: its entry geometry), so the fast path may replay several laps
        #: in one launch; a replayable non-periodic graph replays one lap
        #: per launch (e.g. a forward pass bracketed by an upload and a
        #: gather that reset the state in between).
        self.periodic = False
        #: Human-readable reason when not replayable.
        self.reason = "capture not finalized"
        #: Scheduler graph generation the capture is valid for; any
        #: weight rebalance / device retirement / eviction / chunking
        #: bumps the scheduler counter and permanently invalidates this.
        self.generation = -1
        self.launches = 0
        self.fast_launches = 0
        self.replayed_laps = 0
        # Compiled state (set by _finalize when replayable):
        self._programs: list[tuple["Stream", list[tuple]]] = []
        self._deltas: list[float] = []
        self._K = 1
        self._E = 0
        self._const_events: list[Event] = []
        self._slot_labels: list[str] = []
        self._link_inc: dict[tuple, int] = {}
        self._devices: set[int] = set()
        self._touches: list[tuple[Any, Any]] = []
        #: Datums the recorded calls touch, in first-use order; the only
        #: monitor state the graph validates and refreshes.
        self._scope: tuple[int, ...] = ()
        #: did -> locations whose pending reads a writer of the period
        #: consumes (their list shape fixes the WAR waits it emits).
        self._consumed: dict[int, tuple[int, ...]] = {}
        #: did -> entry geometry a launch's live state must match.
        self._geometry: dict[int, tuple] = {}
        #: did -> (exit layout, event sources): the state one lap leaves,
        #: each event either a window slot ``(True, slot)``, the event at
        #: entry position ``(False, k)``, or ``None``. The layout is None
        #: when a lap leaves the datum's state as it found it.
        self._exit: dict[int, tuple[tuple, tuple]] = {}
        #: did -> ((loc, slots), ...): pending-read lists the period only
        #: reads (never consumes) and the slots each lap appends.
        self._tails: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}
        #: Entry positions ``(did, k)`` of the pre-capture events the
        #: program waits on, giving their lap-0 times from the live state:
        #: per constant (None: not held by the monitor) and per
        #: previous-lap slot.
        self._const_pos: list[tuple[int, int] | None] = []
        self._boundary_pos: dict[int, tuple[int, int]] = {}
        #: did -> live event list of the state a passing _fast_ok matched.
        self._live: dict[int, list] = {}

    # -- capture finalization -------------------------------------------------
    def _fail(self, reason: str) -> None:
        self.replayable = False
        self.periodic = False
        self.reason = reason

    def _finalize(
        self,
        rec: GraphRecorder,
        entry: dict[int, _DatumState],
        war_log: set[tuple[int, int]],
        fold_log: set[tuple[int, int]],
        h_submit_end: float,
        gen0: int,
    ) -> None:
        """Compile the recorded period into per-stream opcode programs and
        prove replayability; on any failed proof the graph stays usable
        through the fallback path only."""
        sched = self._sched
        self.generation = sched._graph_generation
        self.launches = 0
        if gen0 != self.generation:
            return self._fail(
                "steady state changed during capture (weight rebalance, "
                "device retirement, eviction or chunking)"
            )
        if not rec.commands:
            return self._fail("empty capture: no commands were submitted")
        events = rec.events
        E = len(events)
        if E == 0:
            return self._fail("capture produced no events")
        S0 = events[0].seq
        for i, ev in enumerate(events):
            if ev.seq != S0 + i:
                return self._fail("event creation window is not contiguous")
            if not ev.recorded:
                return self._fail(
                    f"captured event {ev.label!r} was never recorded"
                )
        # Host clock must have moved only through host_advance (a recovery
        # or mitigation pass mid-capture jumps it directly).
        h = rec.h_start
        for d in rec.deltas:
            h += d
        if h != h_submit_end:
            return self._fail(
                "host clock advanced outside host_advance during capture"
            )

        slot_of = {ev: i for i, ev in enumerate(events)}
        engine = sched.node.engine
        topology = sched.node.topology
        faults = sched.node.faults
        # Waits on pre-capture events, classified once the entry and exit
        # states are known: (program ops, index, event).
        pre_waits: list[tuple[list, int, Event]] = []
        link_inc: dict[tuple, int] = {}
        devices: set[int] = set()
        programs: list[tuple["Stream", list[tuple]]] = []

        for sid, cmds in rec.commands.items():
            stream = rec.streams[sid]
            ops: list[tuple] = []
            for cmd, ck in cmds:
                t = type(cmd)
                if t is EventWait:
                    ev = cmd.event
                    if ev is None:
                        return self._fail("captured wait without an event")
                    s = ev.seq
                    if S0 <= s < S0 + E:
                        ops.append((0, ck, 0, s - S0))
                        continue
                    if not ev.recorded:
                        return self._fail(
                            f"wait on pre-capture event {ev.label!r} "
                            "that never recorded"
                        )
                    pre_waits.append((ops, len(ops), ev))
                    ops.append((0, ck))
                elif t is EventRecord:
                    slot = slot_of.get(cmd.event)
                    if slot is None:
                        return self._fail(
                            "captured record of a pre-capture event"
                        )
                    ops.append((1, ck, slot))
                elif t is KernelLaunch:
                    dev = stream.device
                    devices.add(dev)
                    ops.append(
                        (
                            2,
                            ck,
                            engine.devices[dev].compute,
                            cmd.duration,
                            cmd.label,
                            cmd.payload,
                            dev,
                        )
                    )
                elif t is Memcpy:
                    engines, path, channels = engine._route(
                        cmd.src, cmd.dst, cmd.pageable
                    )
                    duration = (
                        topology.transfer_time(cmd.nbytes, path)
                        + cmd.extra_latency
                    )
                    segchan = tuple(
                        (ch, cmd.nbytes / seg.link.bandwidth)
                        for seg, ch in zip(path, channels)
                    )
                    if cmd.src != HOST:
                        devices.add(cmd.src)
                    if cmd.dst != HOST:
                        devices.add(cmd.dst)
                    if faults is not None:
                        # Per-link dispatch counters the eager path would
                        # advance in transfer_faults_now; replayed as a
                        # per-lap delta at launch.
                        for spec in faults.transfer_faults:
                            if spec.src is not None and spec.src != cmd.src:
                                continue
                            if spec.dst is not None and spec.dst != cmd.dst:
                                continue
                            key = (spec.src, spec.dst)
                            link_inc[key] = link_inc.get(key, 0) + 1
                    ops.append(
                        (
                            3,
                            ck,
                            engines,
                            segchan,
                            duration,
                            cmd.label,
                            cmd.payload,
                            cmd.src,
                            cmd.dst,
                            cmd.nbytes,
                        )
                    )
                elif t is HostOp:
                    ops.append((4, ck, cmd.duration, cmd.label, cmd.payload))
                else:
                    return self._fail(
                        f"unreplayable command type {t.__name__}"
                    )
            programs.append((stream, ops))

        # -- the touched datums' entry and exit states ------------------------
        scope: list[int] = []
        for _raw, _kernel, containers, _grid, _constants in self.calls:
            for c in containers:
                did = id(c.datum)
                if did not in scope:
                    scope.append(did)
        monitor = sched.monitor
        state = monitor._state
        positions: dict[Event, list[tuple[int, int]]] = {}
        periodic = True
        for did in scope:
            en = entry.get(did)
            st = state.get(did)
            if en is None or st is None:
                return self._fail(
                    "a datum first touched during capture has no "
                    "steady-state entry snapshot"
                )
            consumed = tuple(sorted(loc for d, loc in war_log if d == did))
            for loc in consumed:
                if (did, loc) in fold_log:
                    # Readers folded before a writer consumed them: later
                    # laps (whose readers are still in flight) would wait
                    # on each reader instead of one representative.
                    return self._fail(
                        "a writer consumed readers the period folded"
                    )
            e_geo, e_evs = _view(monitor, en, consumed)
            x_geo, x_evs = _view(monitor, st, consumed)
            entry_pos: dict[Event, int] = {}
            for k, ev in enumerate(e_evs):
                if ev is not None:
                    entry_pos.setdefault(ev, k)
                    positions.setdefault(ev, []).append((did, k))
            srcs = []
            for ev in x_evs:
                if ev is None:
                    srcs.append(None)
                    continue
                s = slot_of.get(ev)
                if s is not None:
                    srcs.append((True, s))
                    continue
                k = entry_pos.get(ev)
                if k is None:
                    return self._fail(
                        "the period left an event from neither the capture "
                        "window nor the entry state"
                    )
                srcs.append((False, k))
            layout = (
                st.sid,
                tuple(
                    (loc, tuple(i.rect for i in insts))
                    for loc, insts in st.up_to_date.items()
                ),
                st.agg_mode,
                tuple(st.agg_sources),
                None if st.agg_shadow is None else st.agg_shadow[0],
                tuple(st.agg_shadow[1]) if st.agg_shadow else (),
                st.agg_lost,
                x_geo[5],
            )
            tails = []
            for loc, lst in st.pending_reads.items():
                if loc in consumed:
                    continue
                before = en.pending_reads.get(loc, [])
                if len(lst) == len(before) and all(
                    a is b for a, b in zip(lst, before)
                ):
                    continue  # untouched by the period
                slots = []
                for ev in lst:
                    s = slot_of.get(ev)
                    if s is None:
                        return self._fail(
                            "a pending-read list grew by a pre-capture event"
                        )
                    slots.append(s)
                tails.append((loc, tuple(slots)))
            for loc, lst in en.pending_reads.items():
                if lst and loc not in st.pending_reads and loc not in consumed:
                    return self._fail(
                        "a pending-read list vanished without a writer"
                    )
            self._consumed[did] = consumed
            self._geometry[did] = e_geo
            same = x_geo == e_geo
            if same and all(
                src is None or src == (False, k) for k, src in enumerate(srcs)
            ):
                layout = None  # a lap leaves everything but the tails
            self._exit[did] = (layout, tuple(srcs))
            self._tails[did] = tuple(tails)
            periodic = periodic and same

        # -- waits on pre-capture events ----------------------------------------
        # Each reads the event some entry position holds. Lap 0 takes its
        # time from the live state at that position; a later lap waits on
        # whatever the previous lap left there: a window slot (a cross-lap
        # dependency) or the same untouched event (a constant). Positions
        # that disagree, or an event the monitor does not hold, limit the
        # graph to one lap per launch.
        const_events: list[Event] = []
        const_pos: list[tuple[int, int] | None] = []
        boundary_pos: dict[int, tuple[int, int]] = {}
        resolved: dict[Event, tuple[int, int]] = {}
        for ops, i, ev in pre_waits:
            op = resolved.get(ev)
            if op is None:
                poss = positions.get(ev, ())
                # Exit positions line up with entry ones only when the
                # period is a fixed point; otherwise only lap 0 exists.
                srcs = (
                    {self._exit[did][1][k] for did, k in poss}
                    if periodic else set()
                )
                src = srcs.pop() if len(srcs) == 1 else None
                if src is not None and src[0]:
                    boundary_pos.setdefault(src[1], poss[0])
                    op = (1, src[1])
                else:
                    if periodic and (not poss or any(
                        self._exit[did][1][k] != (False, k)
                        for did, k in poss
                    )):
                        periodic = False
                    op = (2, len(const_events))
                    const_events.append(ev)
                    const_pos.append(poss[0] if poss else None)
                resolved[ev] = op
            ops[i] = ops[i] + op

        self._programs = programs
        self._deltas = list(rec.deltas)
        self._K = len(rec.deltas) + 1
        self._E = E
        self._const_events = const_events
        self._const_pos = const_pos
        self._boundary_pos = boundary_pos
        self._slot_labels = [ev.label for ev in events]
        self._link_inc = link_inc
        self._devices = devices
        self._touches = list(rec.touches)
        self._scope = tuple(scope)
        self.replayable = True
        self.periodic = periodic
        self.reason = ""

    # -- launch ---------------------------------------------------------------
    def launch(self, n: int = 1) -> float:
        """Re-dispatch the captured period ``n`` times; returns the
        simulated time afterwards (the period's commands are fully
        drained, like ``wait_all``).

        Uses the pre-lowered macro-command when the frozen steady state
        still holds; otherwise falls back to re-invoking the recorded
        calls through the normal scheduler path (bit-identical results
        either way — the fast path only skips host-side work).
        """
        sched = self._sched
        if sched._released:
            # The scheduler's lease ended (job-server preemption,
            # DESIGN.md §13): its streams are gone from the node and its
            # buffers are freed, so neither the macro-command nor the
            # eager fallback has anything valid to drive. The workload
            # must re-capture on the scheduler of its next lease.
            raise GraphCaptureError(
                "iteration graph belongs to a released scheduler; "
                "re-capture after resuming on a live scheduler"
            )
        if sched.node.graph_recorder is not None:
            raise GraphCaptureError(
                "cannot launch an iteration graph while a capture is "
                "recording"
            )
        if n <= 0:
            return sched.node.time
        self.launches += 1
        self.replayed_laps += n
        if (n == 1 or self.periodic) and self._fast_ok():
            self.fast_launches += 1
            return self._fast(n)
        for _ in range(n):
            for raw, kernel, containers, grid, constants in self.calls:
                if raw:
                    sched.invoke_unmodified(
                        kernel, *containers, grid=grid, constants=constants
                    )
                else:
                    sched.invoke(
                        kernel, *containers, grid=grid, constants=constants
                    )
        return sched.wait_all()

    # -- fast-path validation -------------------------------------------------
    def _fast_ok(self) -> bool:
        """Whether the macro-command reproduces what the eager laps would
        do from the live state. Only the touched datums are checked: each
        must match the captured entry geometry, and with every stream
        drained and every matched event recorded no later than the host
        clock, a lap-0 wait on any pre-launch event is a no-op — so live
        events are accepted by position, whatever their identity."""
        if not self.replayable:
            return False
        sched = self._sched
        if sched._graph_generation != self.generation:
            return False
        node = sched.node
        for s in node.streams:
            if s.commands:
                return False
        if not self._faults_quiescent():
            return False
        # An EWMA drift that would flip weights on the next eager invoke
        # must take the slow path (which then bumps the generation).
        if sched._current_weights() != sched._weights:
            return False
        host = node.host_time
        monitor = sched.monitor
        state = monitor._state
        live: dict[int, list] = {}
        for did in self._scope:
            st = state.get(did)
            if st is None:
                return False
            geo, evs = _view(monitor, st, self._consumed[did])
            if geo != self._geometry[did]:
                return False
            for ev in evs:
                if ev is not None:
                    t = ev.recorded_at
                    if t is None or t > host:
                        return False
            for loc, _slots in self._tails[did]:
                for ev in st.pending_reads.get(loc, ()):
                    if ev.recorded_at is None:
                        return False
            live[did] = evs
        for ev, pos in zip(self._const_events, self._const_pos):
            if pos is None and ev.recorded_at > host:
                return False
        self._live = live
        return True

    def _faults_quiescent(self) -> bool:
        """The replay skips per-dispatch fault checks, so it is only valid
        when the eager path would provably perform none of their effects:
        every permanent failure already happened (and not on a device the
        graph uses), every degradation window with a factor ended, no
        random or pending targeted transfer faults remain, and watchdog
        deadlines cannot fire at factor 1.0."""
        node = self._sched.node
        now = node.time
        dead = node.engine.dead
        if dead:
            for d, ft in dead.items():
                if ft > now or d in self._devices:
                    return False
        fp = node.faults
        if fp is None:
            return True
        if fp.transfer_fault_rate > 0.0:
            return False
        for spec in fp.transfer_faults:
            c = fp._link_counts.get((spec.src, spec.dst), 0)
            if c < spec.nth + spec.count - 1:
                return False
        for wins in fp._stragglers.values():
            for start, end, cf, bf in wins:
                if cf == 1.0 and bf == 1.0:
                    continue
                # Window bounds are plan-relative (FaultPlan.epoch).
                if end is None or end + fp.epoch > now:
                    return False
        if fp.mitigate_stragglers and (
            fp.watchdog_patience <= 1.0 or fp.hedge_patience <= 1.0
        ):
            return False
        return True

    # -- fast path ------------------------------------------------------------
    def _fast(self, n: int) -> float:
        sched = self._sched
        node = sched.node
        engine = node.engine
        deltas = self._deltas
        K = self._K
        E = self._E
        live = self._live
        self._live = {}
        # Host checkpoints: the eager submission loop's host_time after
        # each advance, re-accumulated with the same sequential additions.
        ck_vals: list[float] = []
        h = node.host_time
        for _ in range(n):
            ck_vals.append(h)
            for d in deltas:
                h += d
                ck_vals.append(h)
        # Submission-time LRU touches (all laps' submissions precede the
        # drain in the eager order; dispatch-time touches replay through
        # the re-executed payload closures).
        touches = self._touches
        if touches:
            for _ in range(n):
                for mem, buf in touches:
                    mem.touch(buf)
        # Lap-0 waits on pre-launch events read the events the live state
        # holds at the captured positions (all no-ops, see _fast_ok).
        const_times = [
            ev.recorded_at if pos is None else live[pos[0]][pos[1]].recorded_at
            for ev, pos in zip(self._const_events, self._const_pos)
        ]
        boundary: list = [None] * E  # only previous-lap slots are read
        for slot, (did, k) in self._boundary_pos.items():
            boundary[slot] = live[did][k].recorded_at
        ev_time = engine.run_graph(
            self._programs, n, ck_vals, K, E, boundary, const_times,
        )
        node.host_time = max(h, engine.now)
        self._refresh_monitor(ev_time, n, live)
        fp = node.faults
        if fp is not None and self._link_inc:
            counts = fp._link_counts
            for key, c in self._link_inc.items():
                counts[key] = counts.get(key, 0) + n * c
        sched.plans.graph_hits += n * max(1, len(self.calls))
        return node.time

    def _refresh_monitor(
        self, ev_time: list, n: int, live: dict[int, list]
    ) -> None:
        """Epilogue: leave each touched datum's monitor state exactly as
        the ``n`` eager laps would have — window events become fresh
        :class:`Event` objects carrying their lap's recorded time, events
        the period carries over are taken from the live state by
        position, and read-only pending lists fold their completed
        readers and grow by each lap's readers, as :meth:`LocationMonitor.
        mark_read` does."""
        E = self._E
        labels = self._slot_labels
        made: dict[int, Event] = {}

        def lap_ev(lap: int, slot: int) -> Event:
            key = lap * E + slot
            ev = made.get(key)
            if ev is None:
                ev = made[key] = Event(label=labels[slot])
                ev.recorded_at = ev_time[key]
            return ev

        state = self._sched.monitor._state
        for did in self._scope:
            st = state[did]
            layout, srcs = self._exit[did]
            for loc, slots in self._tails[did]:
                lst = st.pending_reads.get(loc)
                if lst:
                    LocationMonitor._fold(st, loc, lst)
                else:
                    lst = st.pending_reads[loc] = []
                for lap in range(n):
                    for s in slots:
                        lst.append(lap_ev(lap, s))
            if layout is None:
                continue
            cur = live[did]

            def resolve(p: int):
                lap = n - 1
                while True:
                    src = srcs[p]
                    if src is None:
                        return None
                    is_slot, a = src
                    if is_slot:
                        return lap_ev(lap, a)
                    if lap == 0 or srcs[a] == (False, a):
                        return cur[a]
                    lap -= 1
                    p = a

            evs = [resolve(p) for p in range(len(srcs))]
            sid, utd, mode, agg_keys, sh_mode, sh_keys, lost, pend = layout
            i = 0
            new_utd: dict[int, list[_Instance]] = {}
            for loc, rects in utd:
                insts = []
                for rect in rects:
                    insts.append(_Instance(rect, evs[i]))
                    i += 1
                new_utd[loc] = insts
            st.up_to_date = new_utd
            st.sid = sid
            st.agg_mode = mode
            st.agg_lost = lost
            st.agg_sources = {d: evs[i + j] for j, d in enumerate(agg_keys)}
            i += len(agg_keys)
            if sh_mode is None:
                st.agg_shadow = None
            else:
                sources = {d: evs[i + j] for j, d in enumerate(sh_keys)}
                i += len(sh_keys)
                st.agg_shadow = (sh_mode, sources, evs[i])
                i += 1
            for loc, (length, count) in zip(self._consumed[did], pend):
                if count:
                    st.settled_reads[loc] = (evs[i], count)
                    i += 1
                else:
                    st.settled_reads.pop(loc, None)
                if length:
                    st.pending_reads[loc] = evs[i:i + length]
                    i += length
                else:
                    st.pending_reads.pop(loc, None)
