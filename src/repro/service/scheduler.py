"""The async job scheduler: bounded queue, slab formation, dispatch.

One scheduler thread owns the pending queue and the set of in-flight
slabs.  Its loop is event-driven: it sleeps on a condition variable and
wakes on submission, chunk completion, shutdown, or the earliest of the
timed events it tracks — a parked slab's retry-backoff expiry, an
in-flight chunk's watchdog deadline, or an enforce-mode job's deadline.
Dispatch is *work-conserving*: while a worker slot is free, the loop
seals the group of compatible jobs that owns the best-ordered pending job
(at most ``max_batch`` of them) into a
:class:`~repro.service.batcher.Slab` and sends its first chunk to the
worker pool.  No partial group waits for company; jobs that arrive while
every slot is busy are admitted into a running slab at its next chunk
boundary instead.

Chunk completions are folded back in from the pool's callback thread:
finished jobs retire and fulfil their handles, compatible pending jobs are
admitted into the freed replica rows, and a non-empty slab re-dispatches
immediately so workers never idle while work exists.  Because each job's
evolution depends only on its own seed, parameters, and carried state,
*no scheduling decision can change a job's numbers* — arrival order,
batch width, chunk boundaries, and worker count only move wall-clock time
(property-tested in ``tests/service/test_determinism.py``).

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
  would simply recur — and fail the slab immediately, as before.
* **Checkpointed resume** — with a spill store attached, every slab's
  carried state is checkpointed at every dispatch and discarded at
  retirement; :meth:`Scheduler.resume_spilled` reloads whatever a
  crashed process left behind and re-dispatches it from the last
  boundary instead of generation 0.
* **Overload protection** — beyond the hard ``max_pending`` bound,
  ``shed_queue_depth``/``max_backlog_s`` start *shedding*: the
  worst-ordered job (the incoming one, or a pending victim it beats)
  fails fast with :class:`~repro.service.jobs.OverloadedError` instead
  of joining a queue the service cannot drain in time.
* **Deadline enforcement** — ``deadline_mode="enforce"`` jobs are
  cancelled with :class:`~repro.service.jobs.DeadlineExceededError` at
  the first chunk boundary (or queue scan) past their deadline, instead
  of merely reporting the miss.

Backpressure is explicit: ``submit`` raises
:class:`~repro.service.jobs.QueueFullError` once ``max_pending`` jobs
wait, and :class:`~repro.service.jobs.ServiceClosedError` after shutdown
begins.  Shutdown drains by default (every accepted job completes);
``drain=False`` cancels pending jobs and fails in-flight ones at their
next chunk boundary; a ``timeout`` that expires with the scheduler
thread still alive abandons the backlog, failing every remaining handle
with :class:`~repro.service.jobs.ShutdownTimeoutError` so no client
blocks forever.
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
        #: store key -> primary job_id for every keyed job currently
        #: pending, parked, or in flight (the coalescing target map)
        self._active_keys: dict[str, int] = {}
        #: store key -> handles of duplicate submissions riding the
        #: primary computation (fulfilled/failed when the primary is)
        self._followers: dict[str, list[JobHandle]] = {}
        self._cond = threading.Condition()
        self._pending: dict[tuple, list[JobRecord]] = {}
        self._pending_count = 0
        #: sum of pending jobs' remaining generations — the backlog-time
        #: estimator's numerator, maintained incrementally
        self._pending_gens = 0
        #: slab_id -> {"slab", "chunk", "token", "at", "deadline",
        #: "pool_gen"} for every chunk currently at the pool
        self._inflight: dict[int, dict] = {}
        #: (ready_at, slab) pairs waiting out a retry backoff (or a resume)
        self._parked: list[tuple[float, Slab]] = []
        #: thread-mode hung chunks: their worker thread is still occupied,
        #: so each zombie token subtracts a slot until its callback lands
        self._zombies: set[int] = set()
        #: process-mode tokens whose pool was respawned; their eventual
        #: callbacks are stale and must be discarded
        self._dead_tokens: set[int] = set()
        self._tokens = itertools.count()
        self._seq = itertools.count()
        self._closing = False
        self._draining = True
        self._abandoned = False
        self._started = False
        self._thread = threading.Thread(
            target=self._loop, name="ga-scheduler", daemon=True
        )

    @property
    def _slots_free(self) -> int:
        """Worker slots not held by an in-flight chunk or a zombie."""
        return self.pool.n_workers - len(self._inflight) - len(self._zombies)

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
                    if key in self._active_keys:
                        seq = next(self._seq)
                        handle = JobHandle(seq, request, now)
                        handle._canceller = (
                            lambda job_id, k=key, h=handle:
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
            handle = JobHandle(seq, request, now)
            record = JobRecord(
                job_id=seq, request=request, handle=handle,
                submitted_at=now, seq=seq, store_key=key,
            )
            handle._canceller = self._request_cancel
            reason = self._overload_reason()
            if reason is not None:
                victim = self._worst_pending()
                if victim is None or record.order_key() >= victim.order_key():
                    # the incoming job is the worst-ordered: shed it
                    self.metrics.job_rejected()
                    self.metrics.job_shed()
                    raise OverloadedError(f"job shed: {reason}")
                self._shed_pending(victim, reason)
            self._register_primary(record)
            self._pending.setdefault(compat_key(record), []).append(record)
            self._pending_count += 1
            self._pending_gens += record.remaining
            self.metrics.job_submitted(self._pending_count)
            self._cond.notify_all()
            return handle

    def resume_spilled(self) -> list[JobHandle]:
        """Reload every spilled slab checkpoint and re-dispatch it.

        Resumed jobs get fresh handles (returned here, keyed by original
        ``job_id``) and re-enter as parked slabs ready immediately; their
        results are bit-identical to an uninterrupted run because the
        checkpoint is the carried state at a chunk boundary.  A no-op
        without a spill store.
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
                    record.handle._canceller = self._request_cancel
                    if self.run_store is not None:
                        # resumed jobs re-enter the coalescing map so later
                        # duplicates ride them instead of recomputing
                        record.store_key = job_key(record.request)
                        self._register_primary(record)
                    handles.append(record.handle)
                self._parked.append((0.0, Slab(records, self.policy)))
            if handles:
                self.metrics.jobs_resumed(len(handles))
                self._cond.notify_all()
        return handles

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting jobs; drain (default) or cancel the backlog.

        When ``timeout`` expires with the scheduler thread still alive,
        the backlog is *abandoned*: every job still pending, parked, or
        in flight fails with :class:`ShutdownTimeoutError` so no client
        waits on a handle that will never land, and the loop exits at
        its next wakeup.
        """
        with self._cond:
            self._closing = True
            self._draining = drain
            if not drain:
                for key in list(self._pending):
                    for record in self._take_pending(key, len(self._pending[key])):
                        self._fail_record(
                            record,
                            JobCancelledError(
                                f"job {record.job_id} cancelled by shutdown"
                            ),
                        )
                for _, slab in self._parked:
                    self._cancel_slab(slab, "cancelled by shutdown")
                    self._retire_slab(slab)
                self._parked = []
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
            leftovers: list[JobRecord] = []
            for key in list(self._pending):
                leftovers.extend(self._take_pending(key, len(self._pending[key])))
            for entry in self._inflight.values():
                leftovers.extend(entry["slab"].entries)
            for _, slab in self._parked:
                leftovers.extend(slab.entries)
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
            self._parked = []
            self._inflight.clear()
            self._cond.notify_all()

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
        if self.policy.max_backlog_s is not None:
            # no rate (and no estimate) before the first chunk completes
            rate = self.metrics.generations_rate()
            if rate > 0:
                backlog = self._pending_gens / rate
                if backlog > self.policy.max_backlog_s:
                    return (
                        f"estimated backlog {backlog:.2f}s > "
                        f"{self.policy.max_backlog_s}s"
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

    # -- cancellation ---------------------------------------------------
    def _request_cancel(self, job_id: int) -> bool:
        """Handle-side cancel: drop a pending job now, flag an in-flight
        or parked one for eviction at its next chunk boundary."""
        with self._cond:
            for records in self._pending.values():
                for record in records:
                    if record.job_id != job_id:
                        continue
                    self._drop_pending(record)
                    self._fail_record(
                        record, JobCancelledError(f"job {job_id} cancelled")
                    )
                    self.metrics.job_cancelled()
                    self._cond.notify_all()
                    return True
            for entry in self._inflight.values():
                for record in entry["slab"].entries:
                    if record.job_id == job_id:
                        record.cancel_requested = True
                        return True
            for _, slab in self._parked:
                for record in slab.entries:
                    if record.job_id == job_id:
                        record.cancel_requested = True
                        self._cond.notify_all()
                        return True
            return False

    # -- scheduler loop -------------------------------------------------
    def _loop(self) -> None:
        with self._cond:
            while True:
                now = time.monotonic()
                self._fail_hung_chunks(now)
                self._expire_pending(now)
                self._unpark(now)
                self._dispatch_ready()
                if self._abandoned:
                    break
                if (
                    self._closing
                    and self._pending_count == 0
                    and not self._inflight
                    and not self._parked
                ):
                    break
                self._cond.wait(self._wait_timeout(now))

    def _wait_timeout(self, now: float) -> float | None:
        """Sleep until the earliest timed event the loop must act on."""
        deadlines: list[float] = []
        for records in self._pending.values():
            for record in records:
                if record.request.deadline_mode == "enforce":
                    deadlines.append(record.deadline_at)
        for ready_at, _ in self._parked:
            deadlines.append(ready_at)
        for entry in self._inflight.values():
            if entry["deadline"] is not None:
                deadlines.append(entry["deadline"])
        if not deadlines:
            return None
        return max(min(deadlines) - now, 1e-4)

    def _dispatch_ready(self) -> None:
        """Work-conserving dispatch (lock held): while a worker slot is
        free, seal the group owning the best-ordered pending job and send
        it.  A partial group never waits for company — jobs arriving
        later join a running slab at its next chunk boundary."""
        while self._slots_free > 0 and self._pending:
            key = min(
                self._pending,
                key=lambda k: min(r.order_key() for r in self._pending[k]),
            )
            self._dispatch(
                Slab(self._take_pending(key, self.policy.max_batch), self.policy)
            )

    def _dispatch(self, slab: Slab) -> None:
        """Send the slab's next chunk to the pool (lock held)."""
        chunk = slab.next_chunk_gens()
        now = time.monotonic()
        token = next(self._tokens)
        for record in slab.entries:
            if record.started_at is None:
                record.started_at = now
        if self.store is not None:
            self.store.save(slab.slab_id, slab.checkpoint_payload())
            self.metrics.slab_checkpointed()
        deadline = (
            now + self.policy.chunk_timeout_s
            if self.policy.chunk_timeout_s is not None
            else None
        )
        self._inflight[slab.slab_id] = {
            "slab": slab,
            "chunk": chunk,
            "token": token,
            "at": now,
            "deadline": deadline,
            "pool_gen": self.pool.generation,
        }
        self.metrics.chunk_dispatched(len(slab))
        spec = slab.make_spec(chunk)
        self.pool.submit_chunk(
            spec,
            lambda out, sid=slab.slab_id, tok=token: self._on_chunk(
                sid, tok, out
            ),
        )

    # -- timed-event sweeps (lock held) ---------------------------------
    def _fail_hung_chunks(self, now: float) -> None:
        """The per-chunk wall-clock watchdog: treat overdue chunks as lost."""
        if self.policy.chunk_timeout_s is None:
            return
        for slab_id in list(self._inflight):
            entry = self._inflight[slab_id]
            if entry["deadline"] is None or now < entry["deadline"]:
                continue
            del self._inflight[slab_id]
            if self.pool.can_respawn:
                # the stuck process dies with its pool; the stale future's
                # eventual callback is discarded by token
                if self.pool.respawn(entry["pool_gen"]):
                    self.metrics.pool_respawned()
                self._dead_tokens.add(entry["token"])
            else:
                # a thread cannot be killed: it keeps occupying a worker
                # slot until it returns, so account it as a zombie
                self._zombies.add(entry["token"])
            self.metrics.chunk_timed_out()
            log.warning(
                "chunk on slab %d overdue after %.3fs; retrying",
                slab_id,
                self.policy.chunk_timeout_s,
            )
            self._chunk_failed(
                entry["slab"],
                ChunkTimeoutError(
                    f"chunk on slab {slab_id} exceeded "
                    f"{self.policy.chunk_timeout_s}s watchdog"
                ),
                now,
            )

    def _expire_pending(self, now: float) -> None:
        """Fail enforce-mode jobs that blew their deadline while queued."""
        expired = [
            record
            for records in self._pending.values()
            for record in records
            if record.request.deadline_mode == "enforce"
            and now > record.deadline_at
        ]
        for record in expired:
            self._drop_pending(record)
            self._fail_record(
                record,
                DeadlineExceededError(
                    f"job {record.job_id} blew its "
                    f"{record.request.deadline_s}s deadline in queue"
                ),
            )
            self.metrics.job_deadline_enforced()

    def _unpark(self, now: float) -> None:
        """Re-dispatch parked slabs whose backoff has expired."""
        still: list[tuple[float, Slab]] = []
        for ready_at, slab in sorted(self._parked, key=lambda p: p[0]):
            if now < ready_at or self._slots_free <= 0:
                still.append((ready_at, slab))
                continue
            self._evict(slab, now)
            if slab.entries:
                self._dispatch(slab)
            else:
                self._retire_slab(slab)
        self._parked = still

    # -- pool callback --------------------------------------------------
    def _on_chunk(self, slab_id: int, token: int, out: dict | BaseException) -> None:
        with self._cond:
            if self._abandoned:
                return
            entry = self._inflight.get(slab_id)
            if entry is None or entry["token"] != token:
                # stale: a zombie finally returned, or a respawned pool's
                # broken future landed after the watchdog already retried
                self._zombies.discard(token)
                self._dead_tokens.discard(token)
                self._cond.notify_all()
                return
            del self._inflight[slab_id]
            slab = entry["slab"]
            now = time.monotonic()
            if isinstance(out, BaseException):
                if isinstance(out, RETRYABLE_ERRORS):
                    if isinstance(out, concurrent.futures.BrokenExecutor):
                        if self.pool.respawn(entry["pool_gen"]):
                            self.metrics.pool_respawned()
                    self._chunk_failed(slab, out, now)
                else:
                    # application error: deterministic, retry cannot help
                    self._fail_slab(slab, out)
                self._cond.notify_all()
                return
            self.metrics.chunk_completed(len(slab), entry["chunk"])
            finished = slab.apply_chunk(out, entry["chunk"])
            if slab.failed_at is not None:
                self.metrics.chunk_recovered(now - slab.failed_at)
                slab.failed_at = None
            for record in finished:
                self._complete_record(record, record.to_result(now), now)
            self._evict(slab, now)
            if self._closing and not self._draining:
                self._cancel_slab(slab, "cancelled by shutdown")
            else:
                self._admit_into(slab)
            if slab.entries:
                self._dispatch(slab)
            else:
                self._retire_slab(slab)
            self._cond.notify_all()

    def _chunk_failed(self, slab: Slab, exc: BaseException, now: float) -> None:
        """Retry accounting for a lost chunk (lock held).

        Jobs whose retry budget is exhausted fail; the survivors park for
        the longest of their per-job backoffs and re-dispatch.
        """
        survivors: list[JobRecord] = []
        for record in slab.entries:
            record.attempts += 1
            if record.attempts >= record.request.retry.max_attempts:
                self._fail_record(
                    record,
                    JobFailedError(
                        f"job {record.job_id} failed after "
                        f"{record.attempts} attempts: {exc!r}"
                    ),
                )
            else:
                survivors.append(record)
        slab.entries = survivors
        if self._closing and not self._draining:
            self._cancel_slab(slab, "cancelled by shutdown")
        if not slab.entries:
            self._retire_slab(slab)
            return
        slab.failed_at = slab.failed_at if slab.failed_at is not None else now
        delay = max(
            r.request.retry.delay_s(r.attempts, r.request.params.rng_seed)
            for r in slab.entries
        )
        self._parked.append((now + delay, slab))
        self.metrics.chunk_retried(len(slab.entries))
        log.warning(
            "retrying slab %d (%d jobs) in %.3fs after %r",
            slab.slab_id,
            len(slab.entries),
            delay,
            exc,
        )

    def _fail_slab(self, slab: Slab, exc: BaseException) -> None:
        for record in slab.entries:
            self._fail_record(
                record, JobFailedError(f"job {record.job_id} failed: {exc!r}")
            )
        slab.entries = []
        self._retire_slab(slab)

    def _cancel_slab(self, slab: Slab, reason: str) -> None:
        for record in slab.entries:
            self._fail_record(
                record, JobCancelledError(f"job {record.job_id} {reason}")
            )
        slab.entries = []

    def _evict(self, slab: Slab, now: float) -> None:
        """Drop cancelled and enforce-expired jobs at a chunk boundary."""
        keep: list[JobRecord] = []
        for record in slab.entries:
            if record.cancel_requested:
                self._fail_record(
                    record, JobCancelledError(f"job {record.job_id} cancelled")
                )
                self.metrics.job_cancelled()
            elif (
                record.request.deadline_mode == "enforce"
                and now > record.deadline_at
            ):
                self._fail_record(
                    record,
                    DeadlineExceededError(
                        f"job {record.job_id} blew its "
                        f"{record.request.deadline_s}s deadline"
                    ),
                )
                self.metrics.job_deadline_enforced()
            else:
                keep.append(record)
        slab.entries = keep

    def _retire_slab(self, slab: Slab) -> None:
        """A slab leaves the scheduler: drop its spilled checkpoint."""
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

    def _register_primary(self, record: JobRecord) -> None:
        """Make a keyed job the coalescing target for later duplicates
        (lock held).  No-op without a key or with caching disabled."""
        if record.store_key is not None and self.cache:
            self._active_keys[record.store_key] = record.job_id
            self._followers.setdefault(record.store_key, [])

    def _pop_followers(self, record: JobRecord) -> list[JobHandle]:
        """Release a terminating primary's followers (lock held)."""
        key = record.store_key
        if key is None or self._active_keys.get(key) != record.job_id:
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

    def _admit_into(self, slab: Slab) -> None:
        """Continuous batching: pull compatible pending jobs into freed
        replica rows at the chunk boundary (lock held)."""
        if slab.capacity_left > 0 and slab.key in self._pending:
            slab.admit(self._take_pending(slab.key, slab.capacity_left))

    # -- the pending queue (lock held) -------------------------------------
    def _take_pending(self, key: tuple, n: int) -> list[JobRecord]:
        """Remove and return the ``n`` best-ordered jobs of one group."""
        records = sorted(self._pending.pop(key), key=JobRecord.order_key)
        taken, rest = records[:n], records[n:]
        if rest:
            self._pending[key] = rest
        self._pending_count -= len(taken)
        self._pending_gens -= sum(r.remaining for r in taken)
        self.metrics.queue_drained_to(self._pending_count)
        return taken

    def _drop_pending(self, record: JobRecord) -> None:
        """Remove one queued job (cancel, shed, deadline expiry)."""
        key = compat_key(record)
        self._pending[key].remove(record)
        if not self._pending[key]:
            del self._pending[key]
        self._pending_count -= 1
        self._pending_gens -= record.remaining
        self.metrics.queue_drained_to(self._pending_count)
