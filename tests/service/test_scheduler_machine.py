"""The scheduler as a checked state machine.

A Hypothesis ``RuleBasedStateMachine`` drives the real
:class:`~repro.service.scheduler.Scheduler` without its thread.  The loop
body ``_step(now)`` is a rule of its own; chunks go to a fake pool that
lands them only when a rule says so, in any order, each as a result, a
``WorkerCrashError`` or a ``BrokenExecutor``; and a stub ``time`` module
patched into the scheduler module makes the clock a rule too.  The other
rules submit (fresh, duplicate or warm; plain, island or hardened jobs;
priorities; enforced deadlines), cancel, crash the process and resume
from the spill store, and shut down with or without draining.

Invariants at every step: no handle resolves twice (``JobHandle`` ignores
a second resolution silently, so the calls are counted), the pending
counter matches the queue, no worker slot is over-committed, and every job
the scheduler holds sits in one place, unresolved.  At
quiescence: every handle is resolved exactly once, every result equals
``execute_request`` on its request, the counters conserve, every slot is
free and no spill file remains.
"""

import concurrent.futures
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.service.scheduler as scheduler_module
from repro.core.params import GAParameters
from repro.service import (
    BatchPolicy,
    ChaosMonkey,
    ChaosPlan,
    CheckpointStore,
    GARequest,
    GAService,
    JobCancelledError,
    JobFailedError,
    OverloadedError,
    QueueFullError,
    RetryPolicy,
    Scheduler,
    ServiceClosedError,
    WorkerCrashError,
)
from repro.service.batcher import JobRecord, Slab
from repro.service.jobs import JobHandle
from repro.service.workers import run_slab_chunk
from repro.store import RunStore, job_key, results_identical
from repro.store.replay import execute_request

KINDS = {
    "plain": {},
    "island": {"n_islands": 2, "migration_interval": 2},
    "hardened": {"protection": "hardened", "upset_rate": 0.002},
}


def make_request(
    seed=1, gens=6, pop=4, kind="plain", priority=0, deadline=None,
    enforce=False, attempts=3,
) -> GARequest:
    return GARequest(
        params=GAParameters(
            n_generations=gens, population_size=pop,
            crossover_threshold=10, mutation_threshold=1, rng_seed=seed,
        ),
        priority=priority,
        deadline_s=deadline,
        deadline_mode="enforce" if enforce and deadline else "observe",
        retry=RetryPolicy(max_attempts=attempts, backoff_s=0.05),
        **KINDS[kind],
    )


requests = st.builds(
    make_request,
    seed=st.integers(1, 6),
    gens=st.integers(1, 7),
    pop=st.sampled_from([4, 6]),
    kind=st.sampled_from(["plain", "plain", "plain", "island", "hardened"]),
    priority=st.integers(0, 2),
    deadline=st.none() | st.sampled_from([0.5, 3.0]),
    enforce=st.booleans(),
    attempts=st.integers(1, 3),
)

#: job key -> the request's reference result, shared by every example
EXPECTED: dict = {}


def expected(request: GARequest):
    key = job_key(request)
    if key not in EXPECTED:
        EXPECTED[key] = execute_request(request)
    return EXPECTED[key]


class FakeClock:
    """Stands in for the ``time`` module inside the scheduler."""

    def __init__(self):
        self.now = 1000.0

    def monotonic(self) -> float:
        return self.now


class FakePool:
    """A worker pool that runs a chunk only when told to land it."""

    def __init__(self, n_workers=1, can_respawn=False):
        self.n_workers = n_workers
        self.can_respawn = can_respawn
        self.generation = 0
        #: (spec, callback) of every chunk not yet landed, stale ones too
        self.outstanding: list[tuple[dict, object]] = []

    def respawn(self, seen_generation=None) -> bool:
        if not self.can_respawn or (
            seen_generation is not None and self.generation > seen_generation
        ):
            return False
        self.generation += 1
        return True

    def submit_chunk(self, spec, callback) -> None:
        self.outstanding.append((spec, callback))

    def land(self, index=0, outcome="result") -> None:
        spec, callback = self.outstanding.pop(index)
        if outcome == "result":
            callback(run_slab_chunk(spec))
        elif outcome == "crash":
            callback(WorkerCrashError("worker killed"))
        else:
            callback(concurrent.futures.BrokenExecutor("pool broken"))


def step(scheduler: Scheduler, now: float | None = None) -> None:
    with scheduler._cond:
        scheduler._step(time.monotonic() if now is None else now)


def _counted(settle):
    def wrapper(handle, outcome):
        handle.resolutions = getattr(handle, "resolutions", 0) + 1
        settle(handle, outcome)

    return wrapper


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        self.tmp = Path(tempfile.mkdtemp(prefix="sched-machine-"))
        self.patches = [
            mock.patch.object(scheduler_module, "time", self.clock),
            mock.patch.object(JobHandle, "_fulfil", _counted(JobHandle._fulfil)),
            mock.patch.object(JobHandle, "_fail", _counted(JobHandle._fail)),
        ]
        for patch in self.patches:
            patch.start()
        #: every handle ever returned, with the request it was given for
        self.handles: list[tuple[JobHandle, GARequest]] = []
        #: handles the current process must resolve before it quiesces
        self.live: list[JobHandle] = []
        self.seen: list[GARequest] = []
        self.warm: list[GARequest] = []
        self.scheduler = None

    @initialize(
        workers=st.integers(1, 2),
        processes=st.booleans(),
        spill=st.booleans(),
        cached=st.booleans(),
        max_pending=st.integers(2, 6),
        shed=st.none() | st.integers(1, 3),
        watchdog=st.none() | st.just(2.0),
    )
    def boot(self, workers, processes, spill, cached, max_pending, shed, watchdog):
        self.workers, self.processes = workers, processes
        self.policy = BatchPolicy(
            max_batch=3, admit_interval=2, max_pending=max_pending,
            chunk_timeout_s=watchdog, shed_queue_depth=shed,
        )
        self.spill = CheckpointStore(self.tmp / "spill") if spill else None
        self.run_store = RunStore(self.tmp / "runs") if cached else None
        if self.run_store is not None:
            self.warm = [make_request(seed=11, gens=3), make_request(seed=12, pop=6)]
            for request in self.warm:
                self.run_store.put(request, expected(request), compute_s=0.0)
        self._boot()

    def _boot(self) -> None:
        self.pool = FakePool(self.workers, self.processes)
        self.scheduler = Scheduler(
            self.pool, self.policy, store=self.spill, run_store=self.run_store
        )
        self.live = []
        for handle in self.scheduler.resume_spilled():
            self._track(handle, handle.request)

    def _track(self, handle: JobHandle, request: GARequest) -> None:
        self.handles.append((handle, request))
        self.live.append(handle)

    # -- rules ----------------------------------------------------------
    # every rule but shutdown ends with an optional pass of the loop body,
    # so its thread may run at once or only after later events
    def _then(self, step_now: bool) -> None:
        if step_now:
            step(self.scheduler, self.clock.now)

    @rule(
        data=st.data(),
        how=st.sampled_from(["fresh", "fresh", "duplicate", "warm"]),
        step_now=st.booleans(),
    )
    def submit(self, data, how, step_now):
        if how == "duplicate" and self.seen:
            request = data.draw(st.sampled_from(self.seen))
        elif how == "warm" and self.warm:
            request = data.draw(st.sampled_from(self.warm))
        else:
            request = data.draw(requests)
        try:
            handle = self.scheduler.submit(request)
        except (QueueFullError, OverloadedError, ServiceClosedError):
            return
        self.seen.append(request)
        self._track(handle, request)
        self._then(step_now)

    @precondition(lambda self: self.handles)
    @rule(data=st.data(), step_now=st.booleans())
    def cancel(self, data, step_now):
        handle, _ = data.draw(st.sampled_from(self.handles))
        handle.cancel()
        self._then(step_now)

    @precondition(lambda self: self.pool.outstanding)
    @rule(data=st.data(), step_now=st.booleans())
    def land(self, data, step_now):
        index = data.draw(st.integers(0, len(self.pool.outstanding) - 1))
        self.pool.land(index)
        self._then(step_now)

    @precondition(lambda self: self.pool.outstanding)
    @rule(
        data=st.data(),
        outcome=st.sampled_from(["crash", "broken"]),
        step_now=st.booleans(),
    )
    def kill(self, data, outcome, step_now):
        index = data.draw(st.integers(0, len(self.pool.outstanding) - 1))
        self.pool.land(index, outcome)
        self._then(step_now)

    @rule(dt=st.sampled_from([0.01, 0.2, 1.0, 3.0]), step_now=st.booleans())
    def advance_clock(self, dt, step_now):
        self.clock.now += dt
        self._then(step_now)

    @precondition(lambda self: self.spill is not None and self.spill.spilled())
    @rule(step_now=st.booleans())
    def crash_and_resume(self, step_now):
        # the process dies: its queue, its pool and its unresolved handles
        # are gone; what it spilled comes back under fresh handles
        self._boot()
        self._then(step_now)

    @precondition(lambda self: not self.scheduler._closing)
    @rule(drain=st.booleans())
    def shutdown(self, drain):
        self.scheduler.shutdown(drain=drain)

    # -- invariants -----------------------------------------------------
    @invariant()
    def no_handle_resolves_twice(self):
        for handle, _ in self.handles:
            assert getattr(handle, "resolutions", 0) <= 1, handle.job_id

    @invariant()
    def pending_counters_match_the_queue(self):
        queued = [r for records in self.scheduler._pending.values() for r in records]
        assert all(self.scheduler._pending.values())
        assert self.scheduler._pending_count == len(queued)
        assert self.scheduler._slots_free >= 0

    @invariant()
    def every_held_job_is_held_once_and_unresolved(self):
        held = [r for records in self.scheduler._pending.values() for r in records]
        held += [r for slab in self.scheduler._slabs.values() for r in slab.entries]
        assert len(set(map(id, held))) == len(held)
        assert not any(record.handle.done() for record in held)

    # -- quiescence -----------------------------------------------------
    def settle(self) -> None:
        """Land every chunk, let every backoff expire, step until idle."""
        scheduler = self.scheduler
        for _ in range(2000):
            step(scheduler, self.clock.now)
            if self.pool.outstanding:
                self.pool.land(0)
            elif scheduler._pending or scheduler._slabs:
                self.clock.now += 10.0
            else:
                return
        raise AssertionError("scheduler never quiesced")

    def teardown(self):
        try:
            if self.scheduler is not None:
                self.settle()
                self.check_quiescence()
        finally:
            for patch in reversed(self.patches):
                patch.stop()
            shutil.rmtree(self.tmp, ignore_errors=True)

    def check_quiescence(self) -> None:
        for handle in self.live:
            assert handle.done() and handle.resolutions == 1, handle.job_id
        for handle, request in self.handles:
            if handle.done() and handle._error is None:
                assert results_identical(handle.result(0), expected(request))
        m = self.scheduler.metrics
        assert m.submitted + m.resumed == m.completed + m.failed
        assert self.scheduler._slots_free == self.pool.n_workers
        assert not self.scheduler._zombies
        if self.spill is not None:
            assert not self.spill.spilled()


SchedulerMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSchedulerMachine = SchedulerMachine.TestCase


@pytest.mark.slow
def test_scheduler_machine_deep():
    # long runs find what short ones miss: the (since fixed) reuse of a
    # resumed job's id by a fresh submission was found in each of 3 runs
    # at this budget, after 40-70 s, and in none of 8 at tier-1's
    run_state_machine_as_test(
        SchedulerMachine,
        settings=settings(
            max_examples=1500,
            stateful_step_count=50,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


# ---------------------------------------------------------------------------
# the resume collision, pinned deterministically
# ---------------------------------------------------------------------------

POLICY = BatchPolicy(max_batch=4, admit_interval=3)


def _resume_beside_a_fresh_job(spill: Path):
    """Process 1 completes job 0 and dies with job 1 in flight; process 2
    resumes job 1 and late-admits a fresh job into its slab."""
    pool = FakePool(1)
    first = Scheduler(pool, POLICY, store=CheckpointStore(spill))
    done = first.submit(make_request(seed=1, gens=3))
    first.submit(make_request(seed=2, gens=9))
    step(first)  # one slab [job 0, job 1] takes the only worker
    pool.land()  # job 0 retires; job 1 re-dispatches, checkpointed
    assert done.result(0).job_id == 0 and len(pool.outstanding) == 1

    pool = FakePool(1)
    second = Scheduler(pool, POLICY, store=CheckpointStore(spill))
    (resumed,) = second.resume_spilled()
    assert resumed.job_id == 1
    step(second)  # the resumed slab takes the only worker
    fresh = second.submit(make_request(seed=3, gens=6))
    pool.land()  # the fresh job joins the resumed slab at the boundary
    (slab,) = second._slabs.values()
    assert [r.handle for r in slab.entries] == [resumed, fresh]
    return second, pool, resumed, fresh


def _finish(scheduler: Scheduler, pool: FakePool) -> None:
    while pool.outstanding:
        pool.land()
        step(scheduler)


def test_resumed_and_fresh_jobs_in_one_slab_both_complete_correctly(tmp_path):
    second, pool, resumed, fresh = _resume_beside_a_fresh_job(tmp_path)
    _finish(second, pool)
    for handle in (resumed, fresh):
        assert results_identical(
            handle.result(0), execute_request(handle.request)
        )
    assert second.metrics.completed == 2
    assert fresh.job_id != resumed.job_id


def test_cancelling_the_fresh_job_leaves_the_resumed_one_alone(tmp_path):
    second, pool, resumed, fresh = _resume_beside_a_fresh_job(tmp_path)
    assert fresh.cancel() is True
    _finish(second, pool)
    assert results_identical(
        resumed.result(0), execute_request(resumed.request)
    )
    with pytest.raises(JobCancelledError):
        fresh.result(0)


def test_resumed_slab_waiting_for_a_worker_survives_a_second_crash(tmp_path):
    first = Scheduler(FakePool(2), POLICY, store=CheckpointStore(tmp_path))
    for seed, pop in ((1, 4), (2, 6)):
        first.submit(make_request(seed=seed, pop=pop))
    step(first)  # two slabs in flight, both spilled
    second = Scheduler(FakePool(1), POLICY, store=CheckpointStore(tmp_path))
    assert len(second.resume_spilled()) == 2
    step(second)  # one slab takes the only worker, the other waits
    third = Scheduler(FakePool(1), POLICY, store=CheckpointStore(tmp_path))
    assert len(third.resume_spilled()) == 2


def test_chunk_outputs_pair_with_entries_by_position():
    # two records under one job id still receive their own outputs
    records = []
    for seed in (5, 6):
        request = make_request(seed=seed, gens=4)
        records.append(JobRecord(
            job_id=7, request=request, handle=JobHandle(7, request, 0.0),
            submitted_at=0.0, seq=seed,
        ))
    slab = Slab(records, BatchPolicy(admit_interval=4))
    assert slab.apply_chunk(run_slab_chunk(slab.make_spec(4)), 4) == records
    for record in records:
        assert results_identical(
            record.to_result(0.0), execute_request(record.request)
        )
    request = records[0].request
    stray = Slab([JobRecord(
        job_id=7, request=request, handle=JobHandle(7, request, 0.0),
        submitted_at=0.0, seq=9,
    )], BatchPolicy())
    with pytest.raises(ValueError, match="paired"):
        stray.apply_chunk({"entries": [{"job_id": 8}]}, 4)


def test_threaded_stress_resolves_every_handle_once(monkeypatch, tmp_path):
    # the real loop thread and more pool threads than cores, switching
    # often: cancels from another thread race chunk landings and kills
    for name in ("_fulfil", "_fail"):
        monkeypatch.setattr(JobHandle, name, _counted(getattr(JobHandle, name)))
    jobs = [
        make_request(seed=i % 6 + 1, gens=i % 7 + 1, pop=(4, 6)[i % 2], attempts=6)
        for i in range(48)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        service = GAService(
            workers=4, mode="thread", store_dir=tmp_path,
            policy=BatchPolicy(max_batch=4, admit_interval=2),
            chaos=ChaosMonkey(ChaosPlan.from_seed(7, kill_rate=0.2)),
        ).start()
        handles = [service.submit(request) for request in jobs]
        canceller = threading.Thread(
            target=lambda: [handle.cancel() for handle in handles[::3]]
        )
        canceller.start()
        canceller.join(timeout=30)
        service.shutdown(drain=True, timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not canceller.is_alive()
    for handle, request in zip(handles, jobs):
        assert handle.done() and handle.resolutions == 1, handle.job_id
        if handle._error is None:
            assert results_identical(handle.result(0), expected(request))
        else:
            assert isinstance(handle._error, (JobCancelledError, JobFailedError))
    m = service.metrics
    assert m.submitted == m.completed + m.failed == len(jobs)
    assert service.scheduler._slots_free == 4 and not service.scheduler._slabs
