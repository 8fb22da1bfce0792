"""The multi-tenant job server (DESIGN.md §13).

One :class:`JobServer` owns one simulated node and time-slices it between
tenants, Slurm-style: ``submit`` runs admission control against the
tenant's :class:`~repro.server.jobs.TenantQuota` and enqueues a
:class:`~repro.server.jobs.Job`; the scheduling loop picks the most
underserved eligible job (fair share with priority aging), leases the node
to it (``SimNode.begin_lease``: tenant fault plan, memory-quota capacity
clamp, per-tenant fault domain), and runs checkpoint-sized chunks until
the job finishes, its time slice expires (cooperative preemption at a
checkpoint boundary, recorded as a :class:`~repro.errors.PreemptedError`),
its deadline or simulated-time quota trips, or an unrecoverable fault
tears the lease down (capped-exponential backoff requeue).

Scheduling is **serial**: at most one job runs at a time, which keeps
fault attribution exact and makes every schedule a deterministic function
of the submissions — two servers fed the same jobs produce identical
histories, simulated times and (bit-identical) results.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from repro.core import Scheduler
from repro.errors import (
    CapacityError,
    DeadlineExceededError,
    PreemptedError,
    QuotaExceededError,
    UnrecoverableError,
)
from repro.hardware import GTX_780
from repro.hardware.specs import GPUSpec
from repro.server.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    PREEMPTED,
    RUNNING,
    Job,
    JobSpec,
    TenantQuota,
)
from repro.server.workloads import Workload
from repro.sim.faults import capped_backoff
from repro.sim.node import SimNode

_QUEUED = (PENDING, PREEMPTED)


class _ReadyGroup:
    """The eligible queued jobs of one ``(tenant, priority)`` (DESIGN.md
    §13 "Indexed queue"): a min-heap of distinct time keys, each naming a
    bucket, a min-heap of ``(order, generation, job)`` entries."""

    __slots__ = ("keys", "buckets")

    def __init__(self):
        self.keys: list[float] = []
        self.buckets: dict[float, list] = {}

    def push(self, key: float, entry: tuple) -> None:
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = []
            heapq.heappush(self.keys, key)
        heapq.heappush(bucket, entry)


def solo_run(
    workload: Workload,
    spec: GPUSpec = GTX_780,
    num_gpus: int = 4,
    gpus: Optional[int] = None,
    functional: bool = True,
) -> tuple:
    """Run a workload alone on a fresh node — the baseline every server
    job is compared against. Returns ``(result, sim_seconds)``."""
    node = SimNode(spec, num_gpus, functional=functional)
    devices = tuple(range(gpus)) if gpus is not None else None
    sched = Scheduler(node, devices=devices)
    t0 = node.time  # before bind: leases pay analysis too, so the
    workload.bind(sched)  # baseline must include it once
    while not workload.finished:
        workload.run_chunk(sched)
    return workload.result(), node.time - t0


class JobServer:
    """Slurm-like multi-tenant job service over one simulated node.

    Args:
        spec: GPU model of the node (Table 3).
        num_gpus: Node size.
        functional: Functional-mode node (results checkable); the server
            is mode-agnostic.
        time_slice: Simulated seconds a job may hold the node while other
            work is eligible; expiry preempts at the next checkpoint
            boundary. ``None`` disables preemption.
        quotas: tenant name -> :class:`TenantQuota`. Unknown tenants get
            ``default_quota``.
        default_quota: Allowance for tenants not in ``quotas``.
        aging_rate: Fair-share priority aging (DESIGN.md §13): a waiting
            job's effective usage is discounted by ``aging_rate`` *
            wait-seconds, so even a heavy tenant's job eventually runs
            (no starvation).
        requeue_base: First fault-requeue backoff in simulated seconds
            (doubles per requeue).
        requeue_cap: Upper bound on a single backoff interval.
        max_requeues: Fault requeues before the job fails for good.
    """

    def __init__(
        self,
        spec: GPUSpec = GTX_780,
        num_gpus: int = 4,
        functional: bool = True,
        time_slice: Optional[float] = None,
        quotas: Optional[dict[str, TenantQuota]] = None,
        default_quota: TenantQuota = TenantQuota(),
        aging_rate: float = 0.1,
        requeue_base: float = 1e-4,
        requeue_cap: float = 1e-2,
        max_requeues: int = 4,
    ):
        self.node = SimNode(spec, num_gpus, functional=functional)
        self.time_slice = time_slice
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        self.aging_rate = float(aging_rate)
        self.requeue_base = float(requeue_base)
        self.requeue_cap = float(requeue_cap)
        self.max_requeues = int(max_requeues)
        self.jobs: dict[str, Job] = {}
        self._order: dict[str, int] = {}  # submission sequence (tie-break)
        self._ids = itertools.count(1)
        #: tenant -> simulated execution seconds delivered (fair share).
        self.tenant_usage: dict[str, float] = {}
        # The indexed queue (DESIGN.md §13). Entries are never removed
        # from the middle of a heap: an entry is live only while its job
        # is queued and its generation is the job's latest.
        self._gen: dict[str, int] = {}
        #: (max(arrival, not_before), order, gen, job): not yet eligible.
        self._future: list[tuple] = []
        #: (tenant, priority) -> eligible jobs of that group.
        self._ready: dict[tuple, _ReadyGroup] = {}
        #: (deadline, order, job) for every job submitted with a deadline.
        self._deadlines: list[tuple] = []
        # Within a group the score rises with submit_time * sign: a later
        # submission scores higher under positive aging, lower under
        # negative aging, and the same under none.
        self._age_sign = (self.aging_rate > 0) - (self.aging_rate < 0)

    # -- quota helpers ---------------------------------------------------------
    def quota(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def _gpus_of(self, spec: JobSpec) -> int:
        return spec.gpus if spec.gpus is not None else self.node.num_gpus

    # -- Slurm-like API --------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Admission control, then enqueue. Raises
        :class:`~repro.errors.QuotaExceededError` when the submission can
        never fit its tenant's allowance — over-quota work is rejected at
        the door, not discovered mid-run."""
        q = self.quota(spec.tenant)
        gpus = self._gpus_of(spec)
        if gpus < 1 or gpus > self.node.num_gpus:
            raise QuotaExceededError(
                f"job requests {gpus} GPUs on a "
                f"{self.node.num_gpus}-GPU node",
                tenant=spec.tenant,
                resource="gpus",
                requested=gpus,
                limit=self.node.num_gpus,
            )
        if q.max_gpus is not None and gpus > q.max_gpus:
            raise QuotaExceededError(
                f"tenant {spec.tenant!r} may use at most {q.max_gpus} "
                f"GPUs, requested {gpus}",
                tenant=spec.tenant,
                resource="gpus",
                requested=gpus,
                limit=q.max_gpus,
            )
        if q.max_device_bytes is not None:
            floor = spec.workload.min_device_bytes(gpus)
            if floor > q.max_device_bytes:
                raise QuotaExceededError(
                    f"workload needs >= {floor} B per device even fully "
                    f"chunked; tenant {spec.tenant!r} is allowed "
                    f"{q.max_device_bytes} B",
                    tenant=spec.tenant,
                    resource="device-memory",
                    requested=floor,
                    limit=q.max_device_bytes,
                )
        job = Job(
            id=f"job-{next(self._ids):04d}",
            spec=spec,
            submit_time=max(self.node.time, spec.arrival),
        )
        job.log(job.submit_time, "submitted")
        self.jobs[job.id] = job
        self._order[job.id] = len(self._order)
        self.tenant_usage.setdefault(spec.tenant, 0.0)
        self._enqueue(job)
        if spec.deadline is not None:
            heapq.heappush(
                self._deadlines, (spec.deadline, self._order[job.id], job)
            )
        return job

    def status(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job id {job_id!r}") from None

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued (PENDING/PREEMPTED) job. Terminal jobs are left
        untouched; the serial scheduler never exposes a RUNNING job to
        callers, so there is nothing to kill mid-flight."""
        job = self.status(job_id)
        if job.state in (PENDING, PREEMPTED):
            job.state = CANCELLED
            # A job cancelled before its open-loop arrival has
            # submit_time in the future; clamp so end_time - submit_time
            # (the reported queue residency) can never go negative.
            job.end_time = max(self.node.time, job.submit_time)
            job.log(job.end_time, "cancelled")
        return job

    def queue(self) -> list[Job]:
        """Non-terminal jobs in current scheduling preference order."""
        live = [
            j
            for j in self.jobs.values()
            if j.state in (PENDING, PREEMPTED, RUNNING)
        ]
        return sorted(live, key=lambda j: self._score(j, self.node.time))

    # -- fair share ------------------------------------------------------------
    def _score(self, job: Job, now: float) -> tuple:
        """Lower runs first: normalized tenant usage, discounted by how
        long the job has waited (priority aging) and its nice value;
        submission order breaks exact ties deterministically."""
        return (self._score_value(job, now), self._order[job.id])

    def _score_value(self, job: Job, now: float) -> float:
        q = self.quota(job.spec.tenant)
        usage = self.tenant_usage.get(job.spec.tenant, 0.0)
        share = max(q.share, 1e-9)
        wait = max(0.0, now - job.submit_time)
        return usage / share - self.aging_rate * wait - job.spec.priority

    # -- indexed queue ---------------------------------------------------------
    def _enqueue(self, job: Job) -> None:
        """Index a job that just became queued. The new generation kills
        every entry pushed for the job before."""
        gen = self._gen[job.id] = self._gen.get(job.id, 0) + 1
        heapq.heappush(
            self._future,
            (
                max(job.spec.arrival, job.not_before),
                self._order[job.id],
                gen,
                job,
            ),
        )

    def _live(self, gen: int, job: Job) -> bool:
        return job.state in _QUEUED and self._gen[job.id] == gen

    def _promote(self, now: float) -> None:
        """Move jobs whose arrival and backoff have passed into their
        ``(tenant, priority)`` ready group."""
        future = self._future
        while future and future[0][0] <= now:
            _, order, gen, job = heapq.heappop(future)
            if not self._live(gen, job):
                continue
            key = (job.spec.tenant, job.spec.priority)
            group = self._ready.get(key)
            if group is None:
                group = self._ready[key] = _ReadyGroup()
            group.push(job.submit_time * self._age_sign, (order, gen, job))

    def _bucket_head(self, bucket: list) -> Optional[tuple]:
        while bucket and not self._live(*bucket[0][1:]):
            heapq.heappop(bucket)
        return bucket[0] if bucket else None

    def _group_head(self, group: _ReadyGroup) -> Optional[tuple]:
        """Live entry of lowest (key, order), dropping drained buckets."""
        keys, buckets = group.keys, group.buckets
        while keys:
            head = self._bucket_head(buckets[keys[0]])
            if head is not None:
                return head
            del buckets[heapq.heappop(keys)]
        return None

    def _group_best(self, group: _ReadyGroup, now: float) -> Optional[tuple]:
        """``(score, order, job)`` of the group's minimum-``_score`` job,
        or None when the group has no live entry.

        Scores rise with the key, so the head scores lowest. Later keys
        can round to the same float score, and one of them may hold a
        lower order: those tied keys form a subtree at the top of the
        key heap, which is searched until the score rises."""
        head = self._group_head(group)
        if head is None:
            return None
        best_order, _, best = head
        score, _ = self._score(best, now)
        keys, buckets = group.keys, group.buckets
        stack = [1, 2]
        while stack:
            i = stack.pop()
            if i >= len(keys):
                continue
            entry = self._bucket_head(buckets[keys[i]])
            if entry is not None:
                if self._score_value(entry[2], now) != score:
                    continue
                if entry[0] < best_order:
                    best_order, best = entry[0], entry[2]
            stack += (2 * i + 1, 2 * i + 2)
        return score, best_order, best

    def _expire_dead_jobs(self) -> None:
        """Fail queued jobs whose deadline already passed, *before* they
        are leased: a dead-on-arrival job would otherwise burn a full
        lease (at least one chunk — the progress guarantee) on work whose
        result is contractually worthless, stealing node time from live
        tenants."""
        now = self.node.time
        deadlines = self._deadlines
        while deadlines and deadlines[0][0] < now:
            _, _, job = heapq.heappop(deadlines)
            if job.state in _QUEUED:
                e = DeadlineExceededError(
                    f"job {job.id} deadline t={job.spec.deadline:.6g} "
                    f"expired before it could start (now t={now:.6g})",
                    job_id=job.id,
                    deadline=job.spec.deadline,
                    now=now,
                )
                self._fail(
                    job,
                    e,
                    f"deadline t={job.spec.deadline:.6g} expired while "
                    f"queued",
                )

    def _pick(self) -> Optional[Job]:
        """The eligible job of minimum ``_score``: the best of each
        group's best."""
        now = self.node.time
        self._promote(now)
        best = None
        for key in list(self._ready):
            cand = self._group_best(self._ready[key], now)
            if cand is None:
                del self._ready[key]
            elif best is None or cand[:2] < best[:2]:
                best = cand
        return None if best is None else best[2]

    def _next_eligibility(self) -> Optional[float]:
        """Earliest future time a queued job becomes eligible (arrival or
        fault backoff), or None if the queue is truly empty. Called when
        ``_pick`` found nothing, so every queued job is in the future
        heap."""
        future = self._future
        while future and not self._live(*future[0][2:]):
            heapq.heappop(future)
        return future[0][0] if future else None

    # -- scheduling loop -------------------------------------------------------
    def _idle_advance(self, to: float) -> None:
        """Advance the node clock to ``to`` in one hop. The host clock is
        advanced by ``to - host_time`` (not ``to - node.time``): a
        partially drained lease leaves the engine clock ahead of the host
        clock, and stepping by the node-time delta would then creep the
        host clock toward ``to`` one sliver per call — thousands of idle
        hops for a closely spaced serving trace."""
        if to > self.node.host_time:
            self.node.host_advance(to - self.node.host_time)

    def step(self) -> Optional[Job]:
        """One scheduling decision: run the best eligible job for one
        lease (to completion, preemption, or failure). Returns the job, or
        None when nothing is eligible (idle-advances the clock to the next
        arrival/backoff expiry if one exists). The idle advance is an
        iterative loop: recursing once per future arrival overflows the
        interpreter stack on serving-scale traces."""
        while True:
            self._expire_dead_jobs()
            job = self._pick()
            if job is not None:
                self._run_lease(job)
                return job
            nxt = self._next_eligibility()
            if nxt is None or nxt <= self.node.time:
                return None
            self._idle_advance(nxt)

    def run(self) -> None:
        """Drain the queue: step until no job is pending or preempted."""
        while self.step() is not None:
            pass

    def step_until(self, horizon: float) -> list[Job]:
        """Arrival-driven stepping: run every lease that becomes eligible
        up to simulated time ``horizon``, then stop with the clock at
        ``max(node.time, horizon)`` — never idle-advancing past it.

        This is the open-loop injection hook: a traffic generator
        alternates ``submit`` (with future ``arrival`` stamps) and
        ``step_until(now)`` without handing the server an excuse to race
        ahead of the part of the trace it has seen. Returns the jobs run,
        in execution order."""
        ran: list[Job] = []
        while True:
            self._expire_dead_jobs()
            job = self._pick()
            if job is not None:
                self._run_lease(job)
                ran.append(job)
                continue
            nxt = self._next_eligibility()
            if nxt is None or nxt > horizon:
                break
            if nxt <= self.node.time:
                break
            self._idle_advance(nxt)
        if horizon > self.node.time:
            self._idle_advance(horizon)
            self._expire_dead_jobs()
        return ran

    # -- one lease -------------------------------------------------------------
    def _others_waiting(self, job: Job) -> bool:
        """Some job other than the RUNNING ``job`` is eligible: a live
        ready head (``job``'s own entries are dead while it runs)."""
        self._promote(self.node.time)
        return any(
            self._group_head(g) is not None for g in self._ready.values()
        )

    def _run_lease(self, job: Job) -> None:
        node = self.node
        spec = job.spec
        q = self.quota(spec.tenant)
        devices = tuple(range(self._gpus_of(spec)))
        lease_start = node.time
        # Plan-relative clock: the job has lived `sim_time_used` seconds
        # of execution so far, so its fault plan's t=0 maps to
        # `lease_start - sim_time_used` on the node's clock.
        node.begin_lease(
            faults=spec.faults,
            epoch=lease_start - job.sim_time_used,
            capacity=q.max_device_bytes,
            devices=devices,
        )
        sched = Scheduler(node, devices=devices)
        resumed = job.state == PREEMPTED or job.requeues > 0
        job.state = RUNNING
        if job.start_time is None:
            job.start_time = lease_start
        job.log(
            lease_start,
            f"resumed at iteration {spec.workload.completed}"
            if resumed
            else "started",
        )
        try:
            spec.workload.bind(sched)
            self._drive(job, sched, lease_start)
        except UnrecoverableError as e:
            self._requeue_after_fault(job, e)
        except CapacityError as e:
            self._fail(job, e, f"capacity: {e}")
        except BaseException as e:
            # Any other escape (a workload bug, a KeyboardInterrupt, an
            # unexpected scheduler error) used to leave the job RUNNING
            # forever — a zombie that haunts queue() and pins its tenant's
            # fair-share score. Settle it as FAILED, then re-raise: the
            # error is the caller's problem, the bookkeeping is ours.
            if job.state == RUNNING:
                self._fail(job, e, f"server error: {e!r}")
            raise
        finally:
            used = node.time - lease_start
            job.sim_time_used += used
            self.tenant_usage[spec.tenant] = (
                self.tenant_usage.get(spec.tenant, 0.0) + used
            )
            sched.release()
            node.end_lease()

    def _drive(self, job: Job, sched: Scheduler, lease_start: float) -> None:
        """Chunk loop of one lease; every lap starts and ends at a
        checkpoint boundary (host state complete)."""
        node = self.node
        spec = job.spec
        q = self.quota(spec.tenant)
        wl = spec.workload
        first = True
        while not wl.finished:
            # Guarantee progress: at least one chunk runs per lease, so a
            # pathological slice cannot livelock the queue.
            if not first and self._slice_expired(job, lease_start):
                self._preempt(job)
                return
            wl.run_chunk(sched)
            first = False
            now = node.time
            used = job.sim_time_used + (now - lease_start)
            if q.max_sim_time is not None and used > q.max_sim_time:
                e = QuotaExceededError(
                    f"job {job.id} consumed {used:.6g}s simulated "
                    f"execution time; tenant {spec.tenant!r} allows "
                    f"{q.max_sim_time:.6g}s",
                    tenant=spec.tenant,
                    resource="sim-time",
                    requested=used,
                    limit=q.max_sim_time,
                )
                self._fail(job, e, f"sim-time quota: {used:.6g}s")
                return
            if spec.deadline is not None and now > spec.deadline:
                e = DeadlineExceededError(
                    f"job {job.id} missed its deadline "
                    f"t={spec.deadline:.6g} (now t={now:.6g})",
                    job_id=job.id,
                    deadline=spec.deadline,
                    now=now,
                )
                self._fail(job, e, f"deadline missed at t={now:.6g}")
                return
        job.state = DONE
        job.end_time = node.time
        job.log(node.time, "completed")

    def _slice_expired(self, job: Job, lease_start: float) -> bool:
        if self.time_slice is None:
            return False
        if self.node.time - lease_start < self.time_slice:
            return False
        return self._others_waiting(job)

    def _preempt(self, job: Job) -> None:
        now = self.node.time
        wl = job.spec.workload
        err = PreemptedError(
            f"job {job.id} preempted at iteration {wl.completed} "
            f"(t={now:.6g})",
            job_id=job.id,
            at_iteration=wl.completed,
            time=now,
        )
        job.state = PREEMPTED
        job.preemptions += 1
        job.last_preemption = err
        job.log(now, f"preempted at iteration {wl.completed}")
        self._enqueue(job)

    def _requeue_after_fault(self, job: Job, err: UnrecoverableError) -> None:
        now = self.node.time
        job.requeues += 1
        if job.requeues > self.max_requeues:
            self._fail(
                job, err, f"failed for good after {self.max_requeues} requeues"
            )
            return
        backoff = capped_backoff(
            self.requeue_base, self.requeue_cap, job.requeues
        )
        job.not_before = now + backoff
        job.state = PENDING
        self._enqueue(job)
        job.log(
            now,
            f"unrecoverable fault; requeued with backoff {backoff:.6g}s "
            f"(attempt {job.requeues})",
        )

    def _fail(self, job: Job, err: BaseException, note: str) -> None:
        job.state = FAILED
        job.error = err
        # Clamp like cancel(): a job failed before its open-loop arrival
        # (e.g. an already-expired deadline) must not report a negative
        # queue residency.
        job.end_time = max(self.node.time, job.submit_time)
        job.log(job.end_time, f"failed: {note}")

    # -- reporting -------------------------------------------------------------
    def fairness(self) -> float:
        """Jain's fairness index over share-normalized tenant usage
        (1.0 = perfectly fair; 1/n = one tenant got everything)."""
        xs = [
            self.tenant_usage[t] / max(self.quota(t).share, 1e-9)
            for t in sorted(self.tenant_usage)
        ]
        xs = [x for x in xs if x > 0.0] or [1.0]
        n = len(xs)
        s, s2 = sum(xs), sum(x * x for x in xs)
        return (s * s) / (n * s2) if s2 > 0 else 1.0
