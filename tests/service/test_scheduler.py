"""Scheduler behaviour: backpressure, shutdown, failures, metrics."""

import threading
import time

import pytest

from repro.core.params import GAParameters
from repro.service import (
    BatchPolicy,
    DeadlineExceededError,
    GARequest,
    GAService,
    JobCancelledError,
    JobFailedError,
    OverloadedError,
    QueueFullError,
    Scheduler,
    ServiceClosedError,
    ShutdownTimeoutError,
    WorkerPool,
)
from repro.service.batcher import JobRecord
from repro.service.jobs import JobHandle


def request(seed=45890, gens=8, pop=16, **kw) -> GARequest:
    return GARequest(
        params=GAParameters(
            n_generations=gens, population_size=pop,
            crossover_threshold=10, mutation_threshold=1, rng_seed=seed,
        ),
        **kw,
    )


class WorkerHold:
    """Parks every chunk in the worker until :meth:`release`.

    Dispatch is work-conserving, so a job stays pending only while no
    worker slot is free: one blocker job held in a one-worker service's
    only slot makes every later submission queue deterministically.
    """

    def __init__(self, monkeypatch):
        import repro.service.workers as workers_mod

        self.entered = threading.Event()
        self.released = threading.Event()
        run = workers_mod.run_slab_chunk

        def held(spec):
            self.entered.set()
            self.released.wait(timeout=60)
            return run(spec)

        monkeypatch.setattr(workers_mod, "run_slab_chunk", held)

    def occupy(self, service, **kw) -> JobHandle:
        """Submit a blocker to a service or scheduler; return once its
        chunk holds the worker."""
        handle = service.submit(request(seed=99, **kw))
        assert self.entered.wait(timeout=10), "blocker was never dispatched"
        return handle

    def release(self) -> None:
        self.released.set()


@pytest.fixture
def hold(monkeypatch):
    hold = WorkerHold(monkeypatch)
    yield hold
    hold.release()


class TestWorkConservingDispatch:
    def test_lone_job_dispatches_while_a_slot_is_free(self):
        pool = WorkerPool(1, "thread")
        scheduler = Scheduler(pool)  # never started: no loop thread
        try:
            handle = scheduler.submit(request())
            with scheduler._cond:
                scheduler._step(time.monotonic())
                (slab,) = scheduler._slabs.values()
                assert slab.token is not None  # in flight, not parked
                assert not scheduler._pending
            # the chunk's own callback completes the job
            assert handle.result(timeout=10).best_fitness >= 0
        finally:
            pool.shutdown()

    def test_late_admission_fills_the_running_slab(self, hold):
        with GAService(workers=1, mode="thread") as service:
            # 32 generations: two admit_interval-16 chunks
            blocker = hold.occupy(service, gens=32)
            riders = [service.submit(request(seed=s)) for s in (1, 2, 3, 4)]
            hold.release()
            for handle in [blocker, *riders]:
                assert handle.result(timeout=30).best_fitness >= 0
            assert service.metrics.max_occupancy == 5


class TestAdmissionControl:
    def test_queue_bound_rejects_with_queue_full(self, hold):
        policy = BatchPolicy(max_pending=3)
        service = GAService(workers=1, mode="thread", policy=policy).start()
        try:
            handles = [hold.occupy(service)]
            handles += [service.submit(request(seed=s)) for s in (1, 2, 3)]
            with pytest.raises(QueueFullError):
                service.submit(request(seed=4))
            assert service.metrics.rejected == 1
        finally:
            hold.release()
            service.shutdown(drain=True)
        # draining shutdown still completes every accepted job
        assert all(h.result(timeout=30).best_fitness >= 0 for h in handles)

    def test_submit_after_shutdown_raises_service_closed(self):
        service = GAService(workers=1, mode="thread").start()
        service.shutdown(drain=True)
        with pytest.raises(ServiceClosedError):
            service.submit(request())


class TestShutdown:
    def test_drain_false_cancels_pending_jobs(self, hold):
        service = GAService(workers=1, mode="thread").start()
        blocker = hold.occupy(service)
        handles = [service.submit(request(seed=s)) for s in (1, 2)]
        # shutdown cancels the queue at once, then waits for the held chunk
        stopper = threading.Thread(
            target=service.shutdown, kwargs={"drain": False}
        )
        stopper.start()
        for handle in handles:
            with pytest.raises(JobCancelledError):
                handle.result(timeout=5)
        hold.release()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        # the in-flight blocker finished with its only chunk
        assert blocker.result(timeout=1).best_fitness >= 0
        assert service.metrics.failed == 2

    def test_context_manager_drains_on_clean_exit(self):
        with GAService(workers=1, mode="thread") as service:
            handle = service.submit(request())
        assert handle.result(timeout=5).best_fitness >= 0


class TestFailures:
    def test_worker_exception_fails_every_job_in_the_slab(self, monkeypatch):
        import repro.service.workers as workers_mod

        def boom(spec):
            raise RuntimeError("synthetic worker crash")

        monkeypatch.setattr(workers_mod, "run_slab_chunk", boom)
        service = GAService(
            workers=1, mode="thread",
            policy=BatchPolicy(max_batch=2),
        ).start()
        try:
            handles = [service.submit(request(seed=s)) for s in (1, 2)]
            for handle in handles:
                with pytest.raises(JobFailedError, match="synthetic"):
                    handle.result(timeout=10)
            assert service.metrics.failed == 2
        finally:
            service.shutdown(drain=False)


class TestLoadShedding:
    def test_depth_bound_sheds_the_incoming_job_on_equal_priority(self, hold):
        policy = BatchPolicy(max_pending=10, shed_queue_depth=2)
        service = GAService(workers=1, mode="thread", policy=policy).start()
        try:
            kept = [hold.occupy(service)]
            kept += [service.submit(request(seed=s)) for s in (1, 2)]
            with pytest.raises(OverloadedError, match="queue depth"):
                service.submit(request(seed=3))
            assert service.metrics.shed == 1
            assert service.metrics.rejected == 1
        finally:
            hold.release()
            service.shutdown(drain=True)
        assert all(h.result(timeout=30).best_fitness >= 0 for h in kept)

    def test_higher_priority_arrival_sheds_the_worst_pending_victim(self, hold):
        policy = BatchPolicy(max_pending=10, shed_queue_depth=2)
        service = GAService(workers=1, mode="thread", policy=policy).start()
        try:
            blocker = hold.occupy(service)
            keeper = service.submit(request(seed=1))
            victim = service.submit(request(seed=2))
            urgent = service.submit(request(seed=3, priority=-5))
            with pytest.raises(OverloadedError, match="shed"):
                victim.result(timeout=5)
            assert service.metrics.shed == 1
        finally:
            hold.release()
            service.shutdown(drain=True)
        for handle in (blocker, keeper, urgent):
            assert handle.result(timeout=30).best_fitness >= 0


class TestDeadlineEnforcement:
    def test_enforced_deadline_expires_in_queue(self, hold):
        service = GAService(workers=1, mode="thread").start()
        try:
            hold.occupy(service)
            handle = service.submit(
                request(deadline_s=0.05, deadline_mode="enforce")
            )
            with pytest.raises(DeadlineExceededError, match="in queue"):
                handle.result(timeout=10)
            assert service.metrics.deadline_enforced == 1
        finally:
            hold.release()
            service.shutdown(drain=False)

    def test_enforced_deadline_cancels_at_a_chunk_boundary(self):
        policy = BatchPolicy(admit_interval=2)
        with GAService(workers=1, mode="thread", policy=policy) as service:
            handle = service.submit(
                request(gens=4096, deadline_s=0.02, deadline_mode="enforce")
            )
            with pytest.raises(DeadlineExceededError):
                handle.result(timeout=30)
            assert service.metrics.deadline_enforced == 1

    def test_observe_mode_still_only_reports(self):
        with GAService(workers=1, mode="thread") as service:
            result = service.submit(
                request(gens=32, deadline_s=1e-6)
            ).result(timeout=30)
        assert result.deadline_missed and result.best_fitness >= 0


class TestCancellation:
    def test_cancel_pending_job_fails_fast(self, hold):
        service = GAService(workers=1, mode="thread").start()
        try:
            hold.occupy(service)
            handle = service.submit(request(seed=1))
            assert handle.cancel() is True
            with pytest.raises(JobCancelledError):
                handle.result(timeout=5)
            assert service.metrics.cancelled == 1
            assert handle.cancel() is False  # already settled
        finally:
            hold.release()
            service.shutdown(drain=False)

    def test_cancel_inflight_job_stops_at_next_chunk_boundary(self):
        policy = BatchPolicy(admit_interval=2)
        with GAService(workers=1, mode="thread", policy=policy) as service:
            handle = service.submit(request(gens=4096))
            deadline = time.monotonic() + 10
            while service.metrics.chunks == 0 and time.monotonic() < deadline:
                time.sleep(0.002)
            assert handle.cancel() is True
            with pytest.raises(JobCancelledError):
                handle.result(timeout=30)
            assert service.metrics.cancelled == 1

    def test_cancelled_job_does_not_disturb_slab_mates(self, hold):
        policy = BatchPolicy(max_batch=4, admit_interval=2)
        with GAService(workers=1, mode="thread", policy=policy) as service:
            # both queue behind the blocker's first chunk and join its slab
            # at that chunk's boundary
            blocker = hold.occupy(service, gens=4)
            doomed = service.submit(request(seed=1, gens=4096))
            mate = service.submit(request(seed=2, gens=16))
            hold.release()
            deadline = time.monotonic() + 10
            while service.metrics.max_occupancy < 3:
                assert time.monotonic() < deadline, "jobs never shared a slab"
                time.sleep(0.001)
            assert doomed.cancel() is True  # in flight: evicted at a boundary
            assert mate.result(timeout=30).best_fitness >= 0
            assert blocker.result(timeout=30).best_fitness >= 0
            with pytest.raises(JobCancelledError):
                doomed.result(timeout=5)
            assert service.metrics.cancelled == 1


class TestShutdownTimeout:
    def test_expired_timeout_abandons_with_named_error(self, hold):
        pool = WorkerPool(1, "thread")
        scheduler = Scheduler(pool, BatchPolicy(max_pending=4)).start()
        inflight = hold.occupy(scheduler)
        queued = scheduler.submit(request(seed=2))
        scheduler.shutdown(drain=True, timeout=0.2)
        for handle in (inflight, queued):
            with pytest.raises(ShutdownTimeoutError, match="abandoned"):
                handle.result(timeout=1)
        hold.release()
        pool.shutdown(wait=True)

    def test_timeout_that_completes_in_time_is_clean(self):
        service = GAService(workers=1, mode="thread").start()
        handle = service.submit(request(gens=4))
        service.shutdown(drain=True, timeout=30.0)
        assert handle.result(timeout=1).best_fitness >= 0


class TestSchedulingHints:
    def test_order_key_priority_then_deadline_then_fifo(self):
        def rec(seq, priority=0, deadline=None):
            req = request(priority=priority, deadline_s=deadline)
            return JobRecord(
                job_id=seq, request=req, handle=JobHandle(seq, req, 0.0),
                submitted_at=0.0, seq=seq,
            )

        urgent = rec(5, priority=-1)
        tight = rec(3, deadline=0.5)
        loose = rec(1, deadline=9.0)
        fifo_a, fifo_b = rec(0), rec(2)
        ordered = sorted(
            [fifo_b, loose, urgent, fifo_a, tight], key=JobRecord.order_key
        )
        assert [r.seq for r in ordered] == [5, 3, 1, 0, 2]

    def test_missed_deadline_is_reported_not_enforced(self):
        with GAService(workers=1, mode="thread") as service:
            result = service.submit(
                request(gens=32, deadline_s=1e-6)
            ).result(timeout=30)
        assert result.deadline_missed
        assert result.best_fitness >= 0  # the job still ran to completion

    def test_met_deadline_not_flagged(self):
        with GAService(workers=1, mode="thread") as service:
            result = service.submit(
                request(gens=4, deadline_s=60.0)
            ).result(timeout=30)
        assert not result.deadline_missed


class TestMetrics:
    def test_snapshot_accounts_for_every_job(self):
        policy = BatchPolicy(max_batch=4, admit_interval=4)
        with GAService(workers=2, mode="thread", policy=policy) as service:
            results = service.run_all(
                [request(seed=s, gens=12) for s in range(1, 9)], timeout=30
            )
            snap = service.snapshot()
        assert len(results) == 8
        assert snap["jobs"]["submitted"] == 8
        assert snap["jobs"]["completed"] == 8
        assert snap["jobs"]["failed"] == 0
        assert snap["queue"]["depth"] == 0
        assert snap["batching"]["chunks"] >= 3  # 12 gens / admit_interval 4
        assert 0 < snap["batching"]["mean_occupancy"] <= 1.0
        assert snap["latency"]["p95_ms"] >= snap["latency"]["p50_ms"] > 0
        assert snap["throughput"]["generations_per_s"] > 0

    def test_hardened_job_reports_protection_stats(self):
        with GAService(workers=1, mode="thread") as service:
            result = service.submit(
                request(gens=16, protection="hardened", upset_rate=1e-3)
            ).result(timeout=30)
        assert result.n_chunks == 1  # hardened jobs never split or batch
        assert set(result.protection_stats) >= {"rollbacks", "corrected"}
