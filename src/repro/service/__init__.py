"""GA-as-a-service: async scheduling, dynamic batching, worker pool.

The serving layer around the GA engines — the ROADMAP's
"heavy traffic" direction made concrete.  Clients submit
:class:`GARequest` jobs (Table III parameters + a fitness slot + priority
/ deadline); the :class:`Scheduler` coalesces compatible jobs into
dynamically sized :class:`~repro.core.batch.BatchBehavioralGA` slabs,
executes them in chunks on a :class:`WorkerPool`, admits late arrivals at
generation boundaries (continuous batching), and streams each job's
result back bit-identical to a solo serial run of the same seed.

The layer is fault tolerant (see ``docs/architecture.md``): chunks lost
to worker crashes or the hung-chunk watchdog are retried under a per-job
:class:`RetryPolicy` (bit-identically — chunk re-execution is stateless),
broken process pools respawn, in-flight slabs checkpoint to a
:class:`CheckpointStore` for ``--resume`` after a crash, overload sheds
the worst-ordered jobs with :class:`OverloadedError`, and the whole stack
is soak-tested under seed-deterministic fault plans
(:class:`ChaosPlan` / :class:`ChaosMonkey`).

Quickstart::

    from repro import GAParameters
    from repro.service import BatchPolicy, GARequest, GAService

    with GAService(workers=2) as service:
        handle = service.submit(GARequest(
            params=GAParameters(n_generations=64, population_size=32,
                                crossover_threshold=10, mutation_threshold=1,
                                rng_seed=0x061F),
            fitness_name="mBF6_2",
        ))
        print(handle.result().best_fitness)
        print(service.snapshot()["latency"])
"""

from repro.service.batcher import BatchPolicy, Slab, compat_key
from repro.service.chaos import ChaosMonkey, ChaosPlan
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
    RetiredEngineModeError,
    RetryPolicy,
    ServiceClosedError,
    ServiceError,
    ShutdownTimeoutError,
    WorkerCrashError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import Scheduler
from repro.service.server import (
    GAService,
    ServiceTCPServer,
    serve,
    submit_remote,
)
from repro.service.workers import WorkerPool, run_slab_chunk

__all__ = [
    "BatchPolicy",
    "ChaosMonkey",
    "ChaosPlan",
    "CheckpointStore",
    "ChunkTimeoutError",
    "DeadlineExceededError",
    "GARequest",
    "GAService",
    "JobCancelledError",
    "JobFailedError",
    "JobHandle",
    "JobResult",
    "OverloadedError",
    "QueueFullError",
    "RetiredEngineModeError",
    "RetryPolicy",
    "Scheduler",
    "ServiceClosedError",
    "ServiceError",
    "ServiceMetrics",
    "ServiceTCPServer",
    "ShutdownTimeoutError",
    "Slab",
    "WorkerCrashError",
    "WorkerPool",
    "compat_key",
    "run_slab_chunk",
    "serve",
    "submit_remote",
]
