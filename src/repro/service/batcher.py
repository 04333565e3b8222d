"""Dynamic batching: coalescing pending jobs into resumable slabs.

A *slab* is the serving-layer unit of execution: up to ``max_batch`` jobs
sharing a population size, evolved together as one
:class:`~repro.core.batch.BatchBehavioralGA` replica axis.  Jobs in a slab
may differ in everything else the batch engine permits — generations,
thresholds, seeds, fitness slots — because the slab advances in *chunks*
of at most ``admit_interval`` generations and re-forms at every chunk
boundary: finished jobs retire, and compatible late arrivals are admitted
(continuous batching, exactly the policy an inference server applies to
token generation).  The chunk length is clamped to the slab's shortest
remaining job so retirement always happens on a boundary.

The scheduler seals a slab as soon as a worker slot is free, with however
many compatible jobs are pending (at most ``max_batch``); late admission
at the next chunk boundary fills the rows it sealed without.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.stats import GenerationStats
from repro.service.jobs import (
    GARequest,
    JobHandle,
    JobResult,
    params_to_dict,
    reject_retired_mode,
)


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the scheduler's batching, admission, and fault handling."""

    #: slab width cap (the replica axis of one BatchBehavioralGA)
    max_batch: int = 32
    #: generations per chunk — the late-admission boundary spacing
    admit_interval: int = 16
    #: admission-control bound on the pending queue (backpressure)
    max_pending: int = 1024
    #: hung-chunk watchdog: a dispatched chunk older than this is treated
    #: as lost (process pools are respawned, the chunk retried); ``None``
    #: disables the watchdog
    chunk_timeout_s: float | None = None
    #: queue depth at which load shedding starts (lowest-priority pending
    #: jobs fail with ``OverloadedError``); ``None`` disables shedding
    shed_queue_depth: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {self.max_batch}")
        if self.admit_interval < 1:
            raise ValueError(
                f"admit_interval must be >= 1: {self.admit_interval}"
            )
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1: {self.max_pending}")
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise ValueError(
                f"chunk_timeout_s must be positive: {self.chunk_timeout_s}"
            )
        if self.shed_queue_depth is not None and self.shed_queue_depth < 1:
            raise ValueError(
                f"shed_queue_depth must be >= 1: {self.shed_queue_depth}"
            )


def compat_key(record: "JobRecord") -> tuple:
    """Jobs sharing this key may ride one slab.

    Population size is structural (it is the member axis of the 2-D
    population array), so batchable jobs key on it.  Three kinds of job
    run *solo* under a unique ``("solo", seq)`` key: hardened jobs (their
    fault streams are addressed per solo run), island jobs (``n_islands >
    1``: the replica axis is already the island) and non-behavioral
    substrates (the cycle-accurate and dual-32 engines run one job).
    """
    request = record.request
    if (
        request.protection is not None
        or request.n_islands > 1
        or request.substrate != "behavioral"
    ):
        return ("solo", record.seq)
    return ("batch", request.params.population_size)


@dataclass(eq=False)
class JobRecord:
    """Scheduler-side state of one job across its slab chunks.

    Records compare and hash by identity: a ``job_id`` is a reporting
    label (a resumed job keeps the one it was first given), so the
    scheduler tracks jobs by the record, never by id.
    """

    job_id: int
    request: GARequest
    handle: JobHandle
    submitted_at: float
    seq: int
    remaining: int = 0
    population: list[int] | None = None
    rng_state: int | None = None
    evaluations: int = 0
    chunks: int = 0
    started_at: float | None = None
    stats: list[tuple[int, int, int]] = field(default_factory=list)
    best_individual: int = 0
    best_fitness: int = -1
    protection_stats: dict = field(default_factory=dict)
    island_stats: dict = field(default_factory=dict)
    substrate_stats: dict = field(default_factory=dict)
    #: consecutive failed executions of the current chunk (reset on every
    #: chunk that completes); bounded by ``request.retry.max_attempts``
    attempts: int = 0
    #: why the job is to be evicted (its handle's cancel, or a
    #: non-draining shutdown); honoured at the next queue sweep or chunk
    #: boundary
    cancel_reason: str | None = None
    #: canonical run-store key (set at admission when a store is attached;
    #: the write-back address and the in-flight coalescing handle)
    store_key: str | None = None

    def __post_init__(self) -> None:
        self.remaining = self.request.params.n_generations

    @property
    def deadline_at(self) -> float:
        if self.request.deadline_s is None:
            return float("inf")
        return self.submitted_at + self.request.deadline_s

    def order_key(self) -> tuple:
        """Pending-queue order: priority, then EDF, then FIFO."""
        return (self.request.priority, self.deadline_at, self.seq)

    def to_result(self, completed_at: float) -> JobResult:
        pop = self.request.params.population_size
        return JobResult(
            job_id=self.job_id,
            best_individual=self.best_individual,
            best_fitness=self.best_fitness,
            evaluations=self.evaluations,
            fitness_name=self.request.fitness_name,
            params=self.request.params,
            history=[
                GenerationStats(
                    generation=g, best_fitness=bf, best_individual=bi,
                    fitness_sum=fs, population_size=pop,
                )
                for g, (bf, bi, fs) in enumerate(self.stats)
            ],
            latency_s=completed_at - self.submitted_at,
            wait_s=(self.started_at or completed_at) - self.submitted_at,
            n_chunks=self.chunks,
            deadline_missed=completed_at > self.deadline_at,
            protection_stats=self.protection_stats,
            island_stats=self.island_stats,
            substrate_stats=self.substrate_stats,
        )


class Slab:
    """A set of co-executing jobs plus the chunk bookkeeping around them."""

    _ids = itertools.count()

    def __init__(self, entries: list[JobRecord], policy: BatchPolicy):
        if not entries:
            raise ValueError("slab needs at least one job")
        self.slab_id = next(Slab._ids)
        self.entries = list(entries)
        self.policy = policy
        #: the compat_key the slab was sealed under; late admission takes
        #: pending jobs from this key
        self.key = compat_key(entries[0])
        if self.solo and len(entries) != 1:
            raise ValueError("solo jobs run in single-job slabs")
        #: monotonic time of the first unrecovered chunk failure, for the
        #: recovery-latency histogram; cleared on the next success
        self.failed_at: float | None = None
        #: dispatch token of the chunk at the pool; ``None`` while the slab
        #: is parked (retry backoff, or resumed and not yet re-sent)
        self.token: int | None = None
        #: generations in the chunk at the pool
        self.chunk = 0
        #: the pool generation the chunk was sent under
        self.pool_gen = 0
        #: when the scheduler must next act on the slab: the watchdog
        #: deadline while in flight (``None`` without a watchdog), the
        #: backoff expiry while parked
        self.wake_at: float | None = 0.0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def solo(self) -> bool:
        """True for slabs that own a single job start to finish."""
        return self.key[0] == "solo"

    @property
    def capacity_left(self) -> int:
        if self.solo:
            return 0
        return self.policy.max_batch - len(self.entries)

    def admit(self, records: list[JobRecord]) -> None:
        """Merge late arrivals at a chunk boundary."""
        if self.solo and records:
            raise ValueError("solo slabs do not admit")
        self.entries.extend(records)

    def next_chunk_gens(self) -> int:
        """Chunk length: the admission interval, clamped to the shortest
        remaining job so retirements land on chunk boundaries.  Hardened,
        island, and non-behavioral-substrate slabs run to completion in
        one chunk (fault injection, migration schedules, and substrate
        engines are addressed against an uninterrupted run)."""
        shortest = min(r.remaining for r in self.entries)
        if self.solo:
            return shortest
        return min(self.policy.admit_interval, shortest)

    def make_spec(self, chunk_gens: int) -> dict:
        """The picklable worker payload for the next chunk."""
        spec_entries = []
        for record in self.entries:
            spec_entries.append(
                {
                    "job_id": record.job_id,
                    "params": params_to_dict(record.request.params),
                    "fitness": record.request.fitness_name,
                    "population": record.population,
                    "rng_state": record.rng_state,
                    "record_stats": record.request.record_trace,
                }
            )
        # a batch slab's jobs share these fields (unprotected, one island,
        # behavioral), so the first request speaks for the whole slab
        req = self.entries[0].request
        protection = None
        if req.protection is not None:
            protection = {
                "preset": req.protection,
                "upset_rate": req.upset_rate,
                "campaign_seed": req.campaign_seed,
            }
        island = None
        if req.n_islands > 1:
            island = {
                "n_islands": req.n_islands,
                "migration_interval": req.migration_interval,
                "topology": req.topology,
            }
        return {
            "chunk_gens": chunk_gens,
            "entries": spec_entries,
            "protection": protection,
            "island": island,
            "substrate": req.substrate,
        }

    def apply_chunk(self, out: dict, chunk_gens: int) -> list[JobRecord]:
        """Fold a worker's chunk result back into the records.

        Output entries pair with the spec's by position (a slab's entries
        do not change while its chunk is out), and each must carry its
        record's ``job_id``.  Returns the records that finished with this
        chunk (and removes them from the slab).  Trace splicing: a resumed
        chunk's local generation 0 restates the previous chunk's final
        generation, so it is dropped before concatenation — the spliced
        trace is then bit-identical to one uninterrupted run's.
        """
        finished: list[JobRecord] = []
        for record, entry_out in zip(self.entries, out["entries"], strict=True):
            if entry_out["job_id"] != record.job_id:
                raise ValueError(
                    f"chunk output for job {entry_out['job_id']} paired "
                    f"with job {record.job_id}"
                )
            rows = entry_out["stats"]
            if record.chunks > 0:
                rows = rows[1:]
            record.stats.extend(rows)
            record.population = entry_out["population"]
            record.rng_state = entry_out["rng_state"]
            record.evaluations += entry_out["evaluations"]
            record.best_individual = entry_out["best_individual"]
            record.best_fitness = entry_out["best_fitness"]
            record.protection_stats = entry_out["protection_stats"]
            record.island_stats = entry_out.get("island_stats", {})
            record.substrate_stats = entry_out.get("substrate_stats", {})
            record.chunks += 1
            record.remaining -= chunk_gens
            record.attempts = 0  # the retry budget is per chunk
            if record.remaining <= 0:
                finished.append(record)
        self.entries = [r for r in self.entries if r.remaining > 0]
        return finished

    # -- checkpoint spill (scheduler restart / crash recovery) ----------
    def checkpoint_payload(self) -> dict:
        """This slab's resumable state as a plain JSON-ready dict.

        Each entry rides the resilience layer's checkpoint codec
        (:func:`repro.resilience.harden.encode_checkpoint`): the carried
        population + RNG stream position + best tracking at the last
        chunk boundary, plus the splice bookkeeping (``stats``,
        ``chunks``, ``remaining``, ``evaluations``) that makes the
        resumed trace bit-identical to an uninterrupted run's.
        """
        from repro.resilience.harden import encode_checkpoint

        entries = []
        for record in self.entries:
            done = record.request.params.n_generations - record.remaining
            entries.append(
                {
                    "request": record.request.to_dict(),
                    "job_id": record.job_id,
                    "remaining": record.remaining,
                    "evaluations": record.evaluations,
                    "chunks": record.chunks,
                    "stats": list(record.stats),  # tuples encode as arrays
                    "state": encode_checkpoint(
                        generation=done,
                        individuals=record.population,
                        fitnesses=None,
                        best_individual=record.best_individual,
                        best_fitness=record.best_fitness,
                        rng_state=record.rng_state,
                    ),
                }
            )
        return {"entries": entries}


def restore_records(payload: dict, seq_source, now: float) -> list[JobRecord]:
    """Rebuild a spilled slab's :class:`JobRecord` list with fresh handles.

    ``seq_source`` is the scheduler's sequence counter: resumed jobs get
    new queue positions but keep their original ``job_id`` for reporting,
    so the resuming scheduler must then move its counter past every
    restored id (:meth:`~repro.service.scheduler.Scheduler.resume_spilled`
    does) or a fresh submission could reuse one.  ``now`` becomes the
    records' submission time, so latency accounting restarts at resume —
    wall-clock spent crashed is not attributed to the service.
    """
    from repro.resilience.harden import decode_checkpoint

    reject_retired_mode(payload)
    records = []
    for entry in payload["entries"]:
        request = GARequest.from_dict(entry["request"])
        seq = next(seq_source)
        job_id = int(entry["job_id"])
        record = JobRecord(
            job_id=job_id,
            request=request,
            handle=JobHandle(job_id, request, now),
            submitted_at=now,
            seq=seq,
        )
        _gen, individuals, _fits, best_ind, best_fit, rng_state = (
            decode_checkpoint(entry["state"])
        )
        record.remaining = int(entry["remaining"])
        record.evaluations = int(entry["evaluations"])
        record.chunks = int(entry["chunks"])
        record.stats = [tuple(int(v) for v in row) for row in entry["stats"]]
        record.population = (
            None if individuals is None else [int(v) for v in individuals]
        )
        record.rng_state = rng_state
        record.best_individual = best_ind
        record.best_fitness = best_fit
        records.append(record)
    return records
