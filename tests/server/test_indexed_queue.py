"""The job server's indexed queue (DESIGN.md §13 "Indexed queue").

* A differential test: random submission streams run through
  ``JobServer`` and through a copy of the full-table-scan policy it
  replaced must produce identical schedules.
* A scaling test: the policy re-scores at most one job per live
  ``(tenant, priority)`` group per decision, however many jobs were ever
  submitted. It counts calls, never wall-clock time.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlineExceededError
from repro.server import GoLWorkload, JobServer, JobSpec, TenantQuota, Workload
from repro.server.jobs import PENDING, PREEMPTED
from repro.sim import DeviceFailure, FaultPlan


class NoOpWorkload(Workload):
    """No datums, no kernels. Each one-iteration chunk bills ``cost``
    simulated seconds to the host clock, so leases take time and time
    slices can expire."""

    kind = "noop"

    def __init__(self, iterations: int, cost: float = 0.0):
        super().__init__(iterations)
        self.cost = cost

    def bind(self, sched):
        self.node = sched.node

    def run_chunk(self, sched):
        self.node.host_advance(self.cost)
        self.completed += 1
        return 1

    def result(self):
        return np.asarray([self.completed])


class ScanServer(JobServer):
    """The policy as it was before the indexed queue: every decision
    scans every job ever submitted. Kept here as the oracle."""

    def _enqueue(self, job):
        pass

    def _score(self, job, now):
        q = self.quota(job.spec.tenant)
        usage = self.tenant_usage.get(job.spec.tenant, 0.0)
        share = max(q.share, 1e-9)
        wait = max(0.0, now - job.submit_time)
        score = usage / share - self.aging_rate * wait - job.spec.priority
        return (score, self._order[job.id])

    def _eligible(self, job, now):
        return (
            job.state in (PENDING, PREEMPTED)
            and job.spec.arrival <= now
            and job.not_before <= now
        )

    def _expire_dead_jobs(self):
        now = self.node.time
        for job in self.jobs.values():
            if (
                job.state in (PENDING, PREEMPTED)
                and job.spec.deadline is not None
                and now > job.spec.deadline
            ):
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

    def _pick(self):
        now = self.node.time
        candidates = [j for j in self.jobs.values() if self._eligible(j, now)]
        if not candidates:
            return None
        return min(candidates, key=lambda j: self._score(j, now))

    def _next_eligibility(self):
        times = [
            max(j.spec.arrival, j.not_before)
            for j in self.jobs.values()
            if j.state in (PENDING, PREEMPTED)
        ]
        return min(times) if times else None

    def _others_waiting(self, job):
        now = self.node.time
        return any(
            self._eligible(j, now) for j in self.jobs.values() if j is not job
        )


# -- differential test ---------------------------------------------------------
#: Arrival bases; each job adds 0-2 ulps. Once the clock passes about
#: twice a base, 1-ulp differences vanish in ``now - submit``, so the two
#: jobs tie on score. A "twin" job is submitted right after a copy of
#: itself one ulp later: a tie in inverted submission order.
BASES = [0.0, 1e-4, 2e-4, 3.3e-4, 1e-3]

job_st = st.fixed_dictionaries(
    {
        "tenant": st.integers(0, 3),
        "priority": st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5]),
        "base": st.sampled_from(BASES),
        "ulps": st.integers(0, 2),
        "iterations": st.integers(1, 4),
        "cost": st.sampled_from([0.0, 3e-5, 1e-4]),
        # Relative to arrival; negative = already expired on submit.
        "deadline": st.sampled_from([None, None, -1e-4, 0.0, 2e-4, 1e-2]),
        "faulty": st.booleans(),
        "twin": st.booleans(),
    }
)

op_st = st.one_of(
    st.tuples(st.just("step")),
    st.tuples(st.just("until"), st.sampled_from(BASES + [5e-4, 2e-3])),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("advance"), st.sampled_from([1e-5, 1e-4])),
    st.tuples(st.just("submit"), job_st),
)

scenario_st = st.fixed_dictionaries(
    {
        "shares": st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=4
        ),
        "aging_rate": st.sampled_from([0.0, 0.1, 1.0, 1e3, -0.5]),
        "time_slice": st.sampled_from([None, 5e-5, 2e-4]),
        "max_requeues": st.integers(0, 2),
        "jobs": st.lists(job_st, min_size=1, max_size=14),
        "ops": st.lists(op_st, max_size=12),
    }
)


def _specs(j: dict, n_tenants: int) -> list[JobSpec]:
    specs = [_spec(j, n_tenants, j["ulps"])]
    if j["twin"]:
        specs.insert(0, _spec(j, n_tenants, j["ulps"] + 1))
    return specs


def _spec(j: dict, n_tenants: int, ulps: int) -> JobSpec:
    arrival = j["base"]
    for _ in range(ulps):
        arrival = math.nextafter(arrival, math.inf)
    deadline = None if j["deadline"] is None else arrival + j["deadline"]
    if j["faulty"]:
        # Device 0 fails at once: the lease dies with an unrecoverable
        # fault and the job requeues with backoff.
        workload = GoLWorkload(size=8, iterations=min(j["iterations"], 2))
        faults = FaultPlan(device_failures=[DeviceFailure(0, 1e-9)])
    else:
        workload = NoOpWorkload(j["iterations"], j["cost"])
        faults = None
    return JobSpec(
        workload,
        tenant=f"t{j['tenant'] % n_tenants}",
        priority=j["priority"],
        deadline=deadline,
        arrival=arrival,
        gpus=1,
        faults=faults,
    )


def _play(cls, sc: dict):
    n = len(sc["shares"])
    srv = cls(
        num_gpus=2,
        time_slice=sc["time_slice"],
        quotas={
            f"t{i}": TenantQuota(share=s) for i, s in enumerate(sc["shares"])
        },
        aging_rate=sc["aging_rate"],
        requeue_base=1e-4,
        max_requeues=sc["max_requeues"],
    )
    jobs = [srv.submit(s) for j in sc["jobs"] for s in _specs(j, n)]
    trace = []
    for op in sc["ops"]:
        if op[0] == "step":
            job = srv.step()
            trace.append(None if job is None else job.id)
        elif op[0] == "until":
            trace.append([j.id for j in srv.step_until(op[1])])
        elif op[0] == "cancel":
            srv.cancel(jobs[op[1] % len(jobs)].id)
        elif op[0] == "advance":
            srv.node.host_advance(op[1])
        else:
            jobs += [srv.submit(s) for s in _specs(op[1], n)]
    srv.run()
    return srv, jobs, trace


class TestMatchesFullScan:
    @settings(max_examples=150, deadline=None)
    @given(scenario_st)
    def test_schedules_are_identical(self, sc):
        new, new_jobs, new_trace = _play(JobServer, sc)
        old, old_jobs, old_trace = _play(ScanServer, sc)
        assert new_trace == old_trace
        for a, b in zip(new_jobs, old_jobs):
            assert a.history == b.history
            assert a.state == b.state
            assert a.end_time == b.end_time
        assert new.tenant_usage == old.tenant_usage
        assert new.node.time == old.node.time

    def test_ulp_close_arrivals_in_inverted_order(self):
        """Two submit times one ulp apart round to the same score; the
        earlier-submitted (lower order) job must win, as under the scan,
        even though its submit time is the later one."""
        late = math.nextafter(1e-4, math.inf)
        picked = []
        for cls in (JobServer, ScanServer):
            srv = cls(num_gpus=1, aging_rate=0.1)
            a = srv.submit(JobSpec(NoOpWorkload(1), arrival=late, gpus=1))
            b = srv.submit(JobSpec(NoOpWorkload(1), arrival=1e-4, gpus=1))
            srv.node.host_advance(1e-3)
            assert srv._score(a, 1e-3)[0] == srv._score(b, 1e-3)[0]
            picked.append([srv.step().id, srv.step().id])
        assert picked[0] == picked[1] == [a.id, b.id]


# -- scaling test --------------------------------------------------------------
def _count_scoring(n: int, monkeypatch) -> tuple[int, int, int]:
    """Run ``n`` no-op jobs from 3 tenants at about twice the node's
    capacity; returns (picks, _score calls, max calls in one pick)."""
    calls = {"score": 0, "picks": 0, "worst": 0}
    score, pick = JobServer._score, JobServer._pick

    def counting_score(self, job, now):
        calls["score"] += 1
        return score(self, job, now)

    def counting_pick(self):
        before = calls["score"]
        job = pick(self)
        calls["picks"] += 1
        made = calls["score"] - before
        # Every live group was re-scored once, and nothing else was.
        assert made <= len(self._ready) <= 6
        calls["worst"] = max(calls["worst"], made)
        return job

    monkeypatch.setattr(JobServer, "_score", counting_score)
    monkeypatch.setattr(JobServer, "_pick", counting_pick)
    srv = JobServer(num_gpus=1, quotas={"a": TenantQuota(share=2.0)})
    for i in range(n):
        srv.submit(
            JobSpec(
                NoOpWorkload(2, cost=1e-5),
                tenant="abc"[i % 3],
                priority=float(i % 2),
                arrival=i * 1e-5,
                gpus=1,
            )
        )
    srv.run()
    assert all(j.state == "DONE" for j in srv.jobs.values())
    monkeypatch.undo()
    return calls["picks"], calls["score"], calls["worst"]


class TestScoringScales:
    def test_score_calls_per_job_do_not_grow(self, monkeypatch):
        picks_1k, score_1k, worst_1k = _count_scoring(1000, monkeypatch)
        picks_4k, score_4k, worst_4k = _count_scoring(4000, monkeypatch)
        # 3 tenants x 2 priorities: at most 6 groups to compare.
        assert worst_1k <= 6 and worst_4k <= 6
        assert score_1k <= 6 * picks_1k and score_4k <= 6 * picks_4k
        # Per job, the 4x longer run scores no more than the short one
        # (up to the different share of decisions spent draining).
        assert score_4k / 4000 <= 1.05 * score_1k / 1000
