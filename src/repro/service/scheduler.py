"""The async job scheduler: bounded queue, slab table, dispatch.

The scheduler is a state machine over two structures guarded by one
condition variable: the pending queue (jobs grouped by compat key) and the
slab table, which holds every live :class:`~repro.service.batcher.Slab`.
A slab is *in flight* while its ``token`` names a chunk at the worker pool
and *parked* otherwise (waiting out a retry backoff, or resumed and not
yet re-sent); its ``wake_at`` is the watchdog deadline in the first state
and the backoff expiry in the second.  Jobs are tracked by their
:class:`~repro.service.batcher.JobRecord` object, never by ``job_id``.

One scheduler thread runs :meth:`Scheduler._step` whenever it wakes — on
submission, cancel, chunk completion, shutdown, or the earliest timed
event (a slab's wake time or an enforce-mode job's deadline).  A step
treats overdue chunks as lost, sweeps the queue and the parked slabs, and
gives every free worker slot work: first parked slabs whose backoff is
over, then the group of compatible jobs that owns the best-ordered pending
job (at most ``max_batch`` of them), sealed into a new slab.  Dispatch is
*work-conserving*: no partial group waits for company; jobs that arrive
while every slot is busy are admitted into a running slab at its next
chunk boundary instead.

Chunk completions are folded back in from the pool's callback thread:
finished jobs retire and fulfil their handles, evicted jobs fail,
compatible pending jobs are admitted into the freed replica rows, and a
non-empty slab re-dispatches immediately so workers never idle while work
exists.  Because each job's evolution depends only on its own seed,
parameters, and carried state, *no scheduling decision can change a job's
numbers* — arrival order, batch width, chunk boundaries, and worker count
only move wall-clock time (property-tested in
``tests/service/test_determinism.py``; the transitions themselves are
driven by a state machine in ``tests/service/test_scheduler_machine.py``).

Fault tolerance (``docs/architecture.md`` has the full story):

* **Crash recovery** — a chunk lost to a dead worker (a
  ``BrokenProcessPool``, a chaos kill, or the per-chunk wall-clock
  watchdog) is *retryable*: ``run_slab_chunk`` is stateless and chunk
  boundaries are generation boundaries, so re-executing the lost chunk
  from the slab's carried state is bit-identical by construction.  The
  slab parks for the per-job :class:`~repro.service.jobs.RetryPolicy`
  backoff, the broken process pool respawns (generation-guarded, so one
  crash's cascade of broken futures triggers exactly one respawn), and
  the chunk re-dispatches.  Application exceptions raised by the job
  itself are *not* retried — re-execution is deterministic, so they
  would simply recur — and fail the slab immediately.
* **Checkpointed resume** — with a spill store attached, every slab's
  carried state is checkpointed at every dispatch and discarded at
  retirement; :meth:`Scheduler.resume_spilled` reloads whatever a
  crashed process left behind and re-dispatches it from the last
  boundary instead of generation 0.
* **Overload protection** — besides the hard ``max_pending`` bound,
  a pending queue ``shed_queue_depth`` deep starts *shedding*: the
  worst-ordered job (the incoming one, or a pending victim it beats)
  fails fast with :class:`~repro.service.jobs.OverloadedError` instead
  of joining a queue the service cannot drain in time.  Queue depth is
  scheduler state, so shedding reads no clock and no throughput
  estimate.
* **Eviction** — a handle's ``cancel()``, a non-draining shutdown and a
  blown ``deadline_mode="enforce"`` deadline take one path: a queued or
  parked job fails at the next sweep, an in-flight one at its chunk's
  boundary, with :class:`~repro.service.jobs.JobCancelledError` or
  :class:`~repro.service.jobs.DeadlineExceededError`.

Backpressure is explicit: ``submit`` raises
:class:`~repro.service.jobs.QueueFullError` once ``max_pending`` jobs
wait, and :class:`~repro.service.jobs.ServiceClosedError` after shutdown
begins.  Shutdown drains by default (every accepted job completes);
``drain=False`` evicts every job; a ``timeout`` that expires with the
scheduler thread still alive abandons the backlog, failing every
remaining handle with :class:`~repro.service.jobs.ShutdownTimeoutError`
so no client blocks forever.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import logging
import threading
import time

from repro.service.batcher import (
    BatchPolicy,
    JobRecord,
    Slab,
    compat_key,
    restore_records,
)
from repro.service.checkpoint import CheckpointStore
from repro.service.jobs import (
    ChunkTimeoutError,
    DeadlineExceededError,
    GARequest,
    JobCancelledError,
    JobFailedError,
    JobHandle,
    JobResult,
    OverloadedError,
    QueueFullError,
    ServiceClosedError,
    ShutdownTimeoutError,
    WorkerCrashError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.workers import WorkerPool
from repro.store.keys import job_key

log = logging.getLogger("repro.service")

#: infrastructure failures whose chunks re-execute bit-identically;
#: anything else is an application error and fails the slab at once
RETRYABLE_ERRORS = (
    concurrent.futures.BrokenExecutor,
    WorkerCrashError,
    ChunkTimeoutError,
)


class Scheduler:
    """Continuous-batching job scheduler over a worker pool."""

    def __init__(
        self,
        pool: WorkerPool,
        policy: BatchPolicy | None = None,
        metrics: ServiceMetrics | None = None,
        store: CheckpointStore | None = None,
        run_store=None,
        cache: bool = True,
    ):
        self.pool = pool
        self.policy = policy or BatchPolicy()
        self.metrics = metrics or ServiceMetrics(max_batch=self.policy.max_batch)
        self.store = store
        #: content-addressed result cache (:class:`repro.store.RunStore`):
        #: admission lookups, in-flight coalescing, completion write-back
        self.run_store = run_store
        #: service-level cache-read switch (``repro serve --no-cache``):
        #: ``False`` disables lookups and coalescing but keeps write-back,
        #: so a no-cache server still populates the store it is given
        self.cache = cache
        #: store key -> the primary record of every keyed job currently
        #: pending or in a slab (the coalescing target map)
        self._active_keys: dict[str, JobRecord] = {}
        #: store key -> handles of duplicate submissions riding the
        #: primary computation (fulfilled/failed when the primary is)
        self._followers: dict[str, list[JobHandle]] = {}
        self._cond = threading.Condition()
        self._pending: dict[tuple, list[JobRecord]] = {}
        self._pending_count = 0
        #: slab_id -> every live slab, in flight or parked
        self._slabs: dict[int, Slab] = {}
        #: thread-mode hung chunks: their worker thread is still occupied,
        #: so each zombie token subtracts a slot until its callback lands
        self._zombies: set[int] = set()
        self._tokens = itertools.count()
        self._seq = itertools.count()
        self._closing = False
        self._abandoned = False
        self._started = False
        self._thread = threading.Thread(
            target=self._loop, name="ga-scheduler", daemon=True
        )

    @property
    def _slots_free(self) -> int:
        """Worker slots not held by an in-flight chunk or a zombie."""
        busy = sum(slab.token is not None for slab in self._slabs.values())
        return self.pool.n_workers - busy - len(self._zombies)

    # -- client API -----------------------------------------------------
    def start(self) -> "Scheduler":
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    def submit(self, request: GARequest) -> JobHandle:
        """Enqueue one job; returns its handle immediately.

        With a run store attached, admission first consults the cache: a
        stored result fulfils the handle before it is even returned (no
        queue, no worker dispatch), and a duplicate of a job already
        pending or in flight becomes a *follower* riding that primary's
        computation.  Cache hits and followers never occupy the pending
        queue, so they are served even at the admission bound.

        Raises :class:`QueueFullError` (hard admission bound),
        :class:`OverloadedError` (load shedding) or
        :class:`ServiceClosedError` (shutdown in progress).
        """
        with self._cond:
            if self._closing:
                raise ServiceClosedError("service is shutting down")
            now = time.monotonic()
            key = None
            if self.run_store is not None:
                key = job_key(request)
                if self.cache and request.use_cache:
                    stored = self.run_store.get_result(key)
                    if stored is not None:
                        seq = next(self._seq)
                        handle = JobHandle(seq, request, now)
                        handle._fulfil(
                            self._revive_cached(stored, seq, key, now, now)
                        )
                        self.metrics.cache_hit()
                        self.metrics.job_submitted(self._pending_count)
                        self.metrics.job_completed(0.0, 0.0)
                        return handle
                    primary = self._active_keys.get(key)
                    if primary is not None and primary.cancel_reason is None:
                        seq = next(self._seq)
                        handle = JobHandle(seq, request, now)
                        handle._canceller = (
                            lambda _job_id, k=key, h=handle:
                            self._cancel_follower(k, h)
                        )
                        self._followers.setdefault(key, []).append(handle)
                        self.metrics.job_coalesced()
                        self.metrics.job_submitted(self._pending_count)
                        return handle
                    self.metrics.cache_miss()
            if self._pending_count >= self.policy.max_pending:
                self.metrics.job_rejected()
                raise QueueFullError(
                    f"pending queue at bound ({self.policy.max_pending})"
                )
            seq = next(self._seq)
            record = JobRecord(
                job_id=seq, request=request,
                handle=JobHandle(seq, request, now),
                submitted_at=now, seq=seq, store_key=key,
            )
            reason = self._overload_reason()
            if reason is not None:
                victim = self._worst_pending()
                if victim is None or record.order_key() >= victim.order_key():
                    # the incoming job is the worst-ordered: shed it
                    self.metrics.job_rejected()
                    self.metrics.job_shed()
                    raise OverloadedError(f"job shed: {reason}")
                self._shed_pending(victim, reason)
            self._track(record)
            self._pending.setdefault(compat_key(record), []).append(record)
            self._pending_count += 1
            self.metrics.job_submitted(self._pending_count)
            self._cond.notify_all()
            return record.handle

    def resume_spilled(self) -> list[JobHandle]:
        """Reload every spilled slab checkpoint and re-dispatch it.

        Resumed jobs get fresh handles (returned here) and keep their
        original ``job_id``; the id counter then moves past every resumed
        id, so a fresh submission never reuses one.  Each spilled slab is
        checkpointed again under this process's name and re-enters the
        slab table parked and ready at once; results are bit-identical to
        an uninterrupted run because the checkpoint is the carried state
        at a chunk boundary.  A no-op without a spill store.
        """
        if self.store is None:
            return []
        handles: list[JobHandle] = []
        with self._cond:
            now = time.monotonic()
            for payload in self.store.claim_all():
                try:
                    records = restore_records(payload, self._seq, now)
                except ValueError as exc:
                    # claiming consumed every spill file, so one payload
                    # that no longer validates (a retired engine mode, an
                    # unknown fitness) must not take its siblings with it
                    log.warning("not resuming spilled slab: %s", exc)
                    continue
                if not records:
                    continue
                for record in records:
                    if self.run_store is not None:
                        # resumed jobs re-enter the coalescing map so later
                        # duplicates ride them instead of recomputing
                        record.store_key = job_key(record.request)
                    self._track(record)
                    handles.append(record.handle)
                slab = Slab(records, self.policy)
                self._slabs[slab.slab_id] = slab
                # the claim deleted its file: keep the slab on disk while
                # it waits for a worker, or a second crash would lose it
                self.store.save(slab.slab_id, slab.checkpoint_payload())
                self.metrics.slab_checkpointed()
            if handles:
                top = max(handle.job_id for handle in handles)
                self._seq = itertools.count(max(next(self._seq), top + 1))
                self.metrics.jobs_resumed(len(handles))
                self._cond.notify_all()
        return handles

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting jobs; drain (default) or cancel the backlog.

        ``drain=False`` flags every job for eviction: pending and parked
        ones fail at once, in-flight ones at their next chunk boundary.
        When ``timeout`` expires with the scheduler thread still alive,
        the backlog is *abandoned*: every job still pending, parked, or
        in flight fails with :class:`ShutdownTimeoutError` so no client
        waits on a handle that will never land, and the loop exits at
        its next wakeup.
        """
        with self._cond:
            self._closing = True
            if not drain:
                for record in self._records():
                    record.cancel_reason = "cancelled by shutdown"
                self._sweep(time.monotonic())
            self._cond.notify_all()
        if not self._started:
            return
        self._thread.join(timeout)
        if not self._thread.is_alive():
            return
        log.warning(
            "scheduler thread still alive after %ss shutdown timeout; "
            "abandoning in-flight work",
            timeout,
        )
        with self._cond:
            self._abandoned = True
            leftovers = list(self._records())
            for key in list(self._pending):
                self._take_pending(key, len(self._pending[key]))
            self._slabs.clear()
            for record in leftovers:
                self._fail_record(
                    record,
                    ShutdownTimeoutError(
                        f"job {record.job_id} abandoned: scheduler did not "
                        f"stop within {timeout}s"
                    ),
                )
            # safety net: any follower whose primary was not among the
            # leftovers can never be served now
            for handles in self._followers.values():
                for handle in handles:
                    handle._fail(
                        ShutdownTimeoutError(
                            f"job {handle.job_id} abandoned: scheduler did "
                            f"not stop within {timeout}s"
                        )
                    )
                    self.metrics.job_failed()
            self._followers.clear()
            self._active_keys.clear()
            self._cond.notify_all()

    def _records(self):
        """Every job the scheduler holds: queued, parked or in flight."""
        for records in self._pending.values():
            yield from records
        for slab in self._slabs.values():
            yield from slab.entries

    # -- overload protection --------------------------------------------
    def _overload_reason(self) -> str | None:
        """Why admission should shed right now, or None (lock held)."""
        if (
            self.policy.shed_queue_depth is not None
            and self._pending_count >= self.policy.shed_queue_depth
        ):
            return (
                f"queue depth {self._pending_count} >= shed bound "
                f"{self.policy.shed_queue_depth}"
            )
        return None

    def _worst_pending(self) -> JobRecord | None:
        worst: JobRecord | None = None
        for records in self._pending.values():
            for record in records:
                if worst is None or record.order_key() > worst.order_key():
                    worst = record
        return worst

    def _shed_pending(self, victim: JobRecord, reason: str) -> None:
        """Fail a queued job to make room for a better-ordered arrival."""
        self._drop_pending(victim)
        self._fail_record(
            victim, OverloadedError(f"job {victim.job_id} shed: {reason}")
        )
        self.metrics.job_shed()

    # -- cancellation and eviction --------------------------------------
    def _request_cancel(self, record: JobRecord) -> bool:
        """Handle-side cancel: flag the job for eviction at the next sweep
        (queued or parked) or chunk boundary (in flight)."""
        with self._cond:
            if record.handle.done():
                return False
            record.cancel_reason = "cancelled"
            self._cond.notify_all()
            return True

    def _evict(
        self, records: list[JobRecord], now: float, where: str = ""
    ) -> list[JobRecord]:
        """The one eviction path (lock held): fail every job that was
        cancelled or is past an enforced deadline; return the rest."""
        keep: list[JobRecord] = []
        for record in records:
            if record.cancel_reason is not None:
                self.metrics.job_cancelled()
                self._fail_record(
                    record,
                    JobCancelledError(
                        f"job {record.job_id} {record.cancel_reason}"
                    ),
                )
            elif (
                record.request.deadline_mode == "enforce"
                and now > record.deadline_at
            ):
                self.metrics.job_deadline_enforced()
                self._fail_record(
                    record,
                    DeadlineExceededError(
                        f"job {record.job_id} blew its "
                        f"{record.request.deadline_s}s deadline{where}"
                    ),
                )
            else:
                keep.append(record)
        return keep

    def _sweep(self, now: float) -> None:
        """Evict from the pending queue and every parked slab (lock held);
        a parked slab left empty retires at once."""
        queued = [record for records in self._pending.values() for record in records]
        kept = self._evict(queued, now, " in queue")
        if len(kept) < len(queued):
            for record in set(queued).difference(kept):
                self._drop_pending(record)
        for slab in [s for s in self._slabs.values() if s.token is None]:
            slab.entries = self._evict(slab.entries, now)
            if not slab.entries:
                self._retire_slab(slab)

    # -- scheduler loop -------------------------------------------------
    def _loop(self) -> None:
        with self._cond:
            while True:
                now = time.monotonic()
                if self._step(now):
                    return
                self._cond.wait(self._wait_timeout(now))

    def _step(self, now: float) -> bool:
        """One pass of the loop (lock held); True once the loop may exit.

        Overdue chunks are treated as lost, the queue and the parked slabs
        are swept, and every free worker slot gets work.
        """
        self._fail_hung_chunks(now)
        self._sweep(now)
        self._dispatch_ready(now)
        return self._abandoned or (
            self._closing and not self._pending and not self._slabs
        )

    def _wait_timeout(self, now: float) -> float | None:
        """Sleep until the earliest timed event the loop must act on.

        A parked slab already past its wake time waits for a free slot,
        and every event that frees one notifies the loop.
        """
        wakes = [
            slab.wake_at
            for slab in self._slabs.values()
            if slab.wake_at is not None and slab.wake_at > now
        ]
        for records in self._pending.values():
            for record in records:
                if record.request.deadline_mode == "enforce":
                    wakes.append(record.deadline_at)
        if not wakes:
            return None
        return max(min(wakes) - now, 1e-4)

    def _dispatch_ready(self, now: float) -> None:
        """Work-conserving dispatch (lock held): while a worker slot is
        free, re-send the parked slabs whose backoff is over (earliest
        first), then seal the group owning the best-ordered pending job.
        A partial group never waits for company — jobs arriving later
        join a running slab at its next chunk boundary."""
        ready = sorted(
            (
                slab for slab in self._slabs.values()
                if slab.token is None and slab.wake_at <= now
            ),
            key=lambda slab: slab.wake_at,
        )
        for slab in ready:
            if self._slots_free <= 0:
                return
            self._dispatch(slab, now)
        while self._slots_free > 0 and self._pending:
            key = min(
                self._pending,
                key=lambda k: min(r.order_key() for r in self._pending[k]),
            )
            self._dispatch(
                Slab(self._take_pending(key, self.policy.max_batch), self.policy),
                now,
            )

    def _dispatch(self, slab: Slab, now: float) -> None:
        """Send the slab's next chunk to the pool (lock held)."""
        slab.chunk = slab.next_chunk_gens()
        slab.token = token = next(self._tokens)
        slab.pool_gen = self.pool.generation
        slab.wake_at = (
            now + self.policy.chunk_timeout_s
            if self.policy.chunk_timeout_s is not None
            else None
        )
        self._slabs[slab.slab_id] = slab
        for record in slab.entries:
            if record.started_at is None:
                record.started_at = now
        if self.store is not None:
            self.store.save(slab.slab_id, slab.checkpoint_payload())
            self.metrics.slab_checkpointed()
        self.metrics.chunk_dispatched(len(slab))
        self.pool.submit_chunk(
            slab.make_spec(slab.chunk),
            lambda out: self._on_chunk(slab, token, out),
        )

    def _fail_hung_chunks(self, now: float) -> None:
        """The per-chunk wall-clock watchdog: treat overdue chunks as lost
        (lock held)."""
        if self.policy.chunk_timeout_s is None:
            return
        for slab in list(self._slabs.values()):
            if slab.token is None or now < slab.wake_at:
                continue
            if self.pool.can_respawn:
                # the stuck process dies with its pool; the stale future's
                # eventual callback no longer matches the slab's token
                if self.pool.respawn(slab.pool_gen):
                    self.metrics.pool_respawned()
            else:
                # a thread cannot be killed: it keeps occupying a worker
                # slot until it returns, so account it as a zombie
                self._zombies.add(slab.token)
            self.metrics.chunk_timed_out()
            log.warning(
                "chunk on slab %d overdue after %.3fs; retrying",
                slab.slab_id,
                self.policy.chunk_timeout_s,
            )
            self._chunk_failed(
                slab,
                ChunkTimeoutError(
                    f"chunk on slab {slab.slab_id} exceeded "
                    f"{self.policy.chunk_timeout_s}s watchdog"
                ),
                now,
            )

    # -- pool callback --------------------------------------------------
    def _on_chunk(self, slab: Slab, token: int, out: dict | BaseException) -> None:
        with self._cond:
            if self._abandoned:
                return
            if slab.token != token:
                # stale: a zombie finally returned, or a respawned pool's
                # broken future landed after the watchdog already retried
                self._zombies.discard(token)
                self._cond.notify_all()
                return
            now = time.monotonic()
            if isinstance(out, BaseException):
                if isinstance(out, concurrent.futures.BrokenExecutor):
                    if self.pool.respawn(slab.pool_gen):
                        self.metrics.pool_respawned()
                self._chunk_failed(slab, out, now)
                self._cond.notify_all()
                return
            slab.token = None
            self.metrics.chunk_completed(len(slab), slab.chunk)
            for record in slab.apply_chunk(out, slab.chunk):
                self._complete_record(record, record.to_result(now), now)
            if slab.failed_at is not None:
                self.metrics.chunk_recovered(now - slab.failed_at)
                slab.failed_at = None
            slab.entries = self._evict(slab.entries, now)
            if slab.capacity_left > 0 and slab.key in self._pending:
                # continuous batching: compatible pending jobs fill the
                # freed replica rows at the chunk boundary
                slab.admit(
                    self._evict(
                        self._take_pending(slab.key, slab.capacity_left),
                        now,
                        " in queue",
                    )
                )
            if slab.entries:
                self._dispatch(slab, now)
            else:
                self._retire_slab(slab)
            self._cond.notify_all()

    def _chunk_failed(self, slab: Slab, exc: BaseException, now: float) -> None:
        """A chunk was lost or raised (lock held).

        A retryable loss costs each job one attempt of its budget: jobs
        with attempts left park for the longest of their backoffs, the
        rest fail.  An application error would recur on re-execution, so
        it fails every job at once.
        """
        slab.token = None
        retryable = isinstance(exc, RETRYABLE_ERRORS)
        survivors: list[JobRecord] = []
        for record in slab.entries:
            record.attempts += 1
            if retryable and record.attempts < record.request.retry.max_attempts:
                survivors.append(record)
            else:
                self._fail_record(
                    record,
                    JobFailedError(
                        f"job {record.job_id} failed after "
                        f"{record.attempts} attempts: {exc!r}"
                    ),
                )
        slab.entries = survivors
        if not survivors:
            self._retire_slab(slab)
            return
        slab.failed_at = slab.failed_at if slab.failed_at is not None else now
        delay = max(
            r.request.retry.delay_s(r.attempts, r.request.params.rng_seed)
            for r in survivors
        )
        slab.wake_at = now + delay
        self.metrics.chunk_retried()
        log.warning(
            "retrying slab %d (%d jobs) in %.3fs after %r",
            slab.slab_id,
            len(survivors),
            delay,
            exc,
        )

    def _retire_slab(self, slab: Slab) -> None:
        """A slab leaves the table: drop its spilled checkpoint."""
        del self._slabs[slab.slab_id]
        if self.store is not None:
            self.store.discard(slab.slab_id)

    # -- run-store cache (admission, coalescing, write-back) -------------
    def _revive_cached(
        self,
        stored: JobResult,
        job_id: int,
        key: str,
        submitted_at: float,
        now: float,
    ) -> JobResult:
        """A stored result re-addressed to one submission (lock held).

        The scientific payload (best individual/fitness, evaluations,
        history, stats) is byte-for-byte the stored computation; only the
        execution-bookkeeping fields are this submission's own.
        """
        result = JobResult.from_dict(stored.to_dict())
        result.job_id = job_id
        result.cache_hit = True
        result.store_key = key
        result.latency_s = max(now - submitted_at, 0.0)
        result.wait_s = 0.0
        result.n_chunks = 0
        result.deadline_missed = False
        return result

    def _track(self, record: JobRecord) -> None:
        """Bind the job's handle to its record for cancellation, and make
        a keyed job the coalescing target for later duplicates (lock
        held; no coalescing without a key or with caching disabled)."""
        record.handle._canceller = (
            lambda _job_id, r=record: self._request_cancel(r)
        )
        if record.store_key is not None and self.cache:
            self._active_keys[record.store_key] = record
            self._followers.setdefault(record.store_key, [])

    def _pop_followers(self, record: JobRecord) -> list[JobHandle]:
        """Release a terminating primary's followers (lock held)."""
        key = record.store_key
        if key is None or self._active_keys.get(key) is not record:
            return []
        del self._active_keys[key]
        return self._followers.pop(key, [])

    def _fail_record(self, record: JobRecord, exc: BaseException) -> None:
        """The one terminal failure path: the primary's handle and every
        follower riding it fail together (lock held).  Followers share
        their primary's fate by design — the duplicate work they avoided
        no longer exists to fall back on."""
        record.handle._fail(exc)
        self.metrics.job_failed()
        for handle in self._pop_followers(record):
            handle._fail(exc)
            self.metrics.job_failed()

    def _complete_record(
        self, record: JobRecord, result: JobResult, now: float
    ) -> None:
        """The one terminal success path: write back to the run store,
        fulfil the primary, serve every follower (lock held)."""
        if self.run_store is not None and record.store_key is not None:
            result.store_key = record.store_key
            try:
                self.run_store.put(
                    record.request,
                    result,
                    compute_s=now - (record.started_at or now),
                    source="service",
                )
                self.metrics.cache_written()
            except OSError as exc:
                log.warning(
                    "run-store write-back failed for job %d: %s",
                    record.job_id,
                    exc,
                )
        record.handle._fulfil(result)
        self.metrics.job_completed(
            now - record.submitted_at,
            (record.started_at or now) - record.submitted_at,
        )
        for handle in self._pop_followers(record):
            served = self._revive_cached(
                result, handle.job_id, record.store_key,
                handle.submitted_at, now,
            )
            handle._fulfil(served)
            self.metrics.job_completed(served.latency_s, 0.0)

    def _cancel_follower(self, key: str, handle: JobHandle) -> bool:
        """Handle-side cancel for a follower: drops only that handle,
        never the primary computation other clients are riding."""
        with self._cond:
            followers = self._followers.get(key)
            if followers is None or handle not in followers:
                return False
            followers.remove(handle)
            handle._fail(JobCancelledError(f"job {handle.job_id} cancelled"))
            self.metrics.job_failed()
            self.metrics.job_cancelled()
            return True

    # -- the pending queue (lock held) -------------------------------------
    def _take_pending(self, key: tuple, n: int) -> list[JobRecord]:
        """Remove and return the ``n`` best-ordered jobs of one group."""
        records = sorted(self._pending.pop(key), key=JobRecord.order_key)
        taken, rest = records[:n], records[n:]
        if rest:
            self._pending[key] = rest
        self._pending_count -= len(taken)
        self.metrics.queue_drained_to(self._pending_count)
        return taken

    def _drop_pending(self, record: JobRecord) -> None:
        """Remove one queued job (cancel, shed, deadline expiry)."""
        key = compat_key(record)
        self._pending[key].remove(record)
        if not self._pending[key]:
            del self._pending[key]
        self._pending_count -= 1
        self.metrics.queue_drained_to(self._pending_count)
