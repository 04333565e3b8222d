"""Chaos-driven differential suite: faults must never change results.

The fault-tolerance acceptance property: under any seed-deterministic
fault plan — worker kills (thread and process mode), chunk delays long
enough to trip the hung-chunk watchdog, dropped TCP connections, even a
mid-slab scheduler restart from a spilled checkpoint — every job that
completes returns a :class:`~repro.service.jobs.JobResult` bit-identical
to a fault-free run.  Lost chunks re-execute from carried state that only
moves at chunk boundaries, so recovery is invisible in the numbers and
only visible in the fault counters (``snapshot()["faults"]``).
"""

import shutil
import threading
import time
from dataclasses import replace

import pytest

from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.fitness.functions import by_name
from repro.service import (
    BatchPolicy,
    ChaosMonkey,
    ChaosPlan,
    GARequest,
    GAService,
    JobFailedError,
    RetryPolicy,
    ServiceError,
    ServiceTCPServer,
)
from repro.service.server import call

#: fast retries so the chaos suite spends its time evolving, not backing off
FAST_RETRY = RetryPolicy(max_attempts=5, backoff_s=0.005, max_backoff_s=0.05)

JOBS = [
    GARequest(
        params=GAParameters(
            n_generations=gens, population_size=pop,
            crossover_threshold=xt, mutation_threshold=mt, rng_seed=seed,
        ),
        fitness_name=fn,
        retry=FAST_RETRY,
    )
    for seed, gens, pop, xt, mt, fn in [
        (45890, 33, 16, 10, 1, "mBF6_2"),
        (10593, 12, 16, 13, 2, "mBF6_2"),
        (1567, 20, 16, 10, 1, "mShubert2D"),
        (777, 25, 16, 15, 0, "F3"),
        (31337, 33, 24, 10, 1, "mShubert2D"),
        (8081, 18, 16, 0, 15, "F2"),
    ]
]


def solo_outcome(request: GARequest):
    result = BehavioralGA(
        request.params, by_name(request.fitness_name), record_members=False
    ).run()
    return (
        result.best_individual,
        result.best_fitness,
        result.evaluations,
        [
            (g.generation, g.best_fitness, g.best_individual, g.fitness_sum)
            for g in result.history
        ],
    )


BASELINE = {request.params.rng_seed: solo_outcome(request) for request in JOBS}


def outcome(result):
    return (
        result.best_individual,
        result.best_fitness,
        result.evaluations,
        [
            (g.generation, g.best_fitness, g.best_individual, g.fitness_sum)
            for g in result.history
        ],
    )


def chaotic_outcomes(jobs, chaos, workers=2, mode="thread", **policy_kw):
    policy_kw.setdefault("admit_interval", 4)
    with GAService(
        workers=workers, mode=mode, policy=BatchPolicy(**policy_kw),
        chaos=chaos,
    ) as service:
        results = service.run_all(list(jobs), timeout=120)
        snap = service.snapshot()
    return (
        {r.params.rng_seed: outcome(r) for r in results},
        snap["faults"],
    )


class TestChaosPlan:
    def test_from_seed_is_deterministic(self):
        a = ChaosPlan.from_seed(99, kill_rate=0.2, delay_rate=0.2, drop_rate=0.3)
        b = ChaosPlan.from_seed(99, kill_rate=0.2, delay_rate=0.2, drop_rate=0.3)
        assert a == b
        c = ChaosPlan.from_seed(100, kill_rate=0.2, delay_rate=0.2, drop_rate=0.3)
        assert a != c  # overwhelmingly likely for these rates

    def test_kill_and_delay_sets_are_disjoint(self):
        plan = ChaosPlan.from_seed(7, kill_rate=0.5, delay_rate=0.5)
        assert not set(plan.kill_chunks) & set(plan.delay_chunks)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(delay_s=-1.0)
        with pytest.raises(ValueError):
            ChaosPlan(kill_chunks=(-1,))

    def test_monkey_counts_injected_faults(self):
        monkey = ChaosMonkey(ChaosPlan(kill_chunks=(0,), delay_chunks=(2,)))
        faults = [monkey.chunk_fault() for _ in range(4)]
        assert faults[0]["action"] == "kill"
        assert faults[1] is None
        assert faults[2]["action"] == "delay"
        assert (monkey.kills, monkey.delays) == (1, 1)


class TestWorkerKills:
    def test_thread_mode_kills_recover_bit_identically(self):
        chaos = ChaosMonkey(ChaosPlan(kill_chunks=(0, 3, 7)))
        outcomes, faults = chaotic_outcomes(JOBS, chaos, workers=2)
        assert outcomes == BASELINE
        assert chaos.kills == 3
        assert faults["chunk_retries"] >= 1
        assert faults["recovery_p95_ms"] >= 0

    def test_seeded_kill_plan_recovers_bit_identically(self):
        # which slab absorbs each planned kill depends on thread timing,
        # so one slab can meet every kill in a row: give each job a retry
        # budget deeper than the plan's kill count (exhaustion is
        # test_retry_budget_exhaustion_fails_the_job's subject)
        plan = ChaosPlan.from_seed(1234, kill_rate=0.25)
        deep = replace(FAST_RETRY, max_attempts=len(plan.kill_chunks) + 1)
        chaos = ChaosMonkey(plan)
        outcomes, faults = chaotic_outcomes(
            [replace(request, retry=deep) for request in JOBS],
            chaos, workers=2,
        )
        assert outcomes == BASELINE
        # a thread-mode kill loses only its own chunk: one retry per kill
        assert chaos.kills >= 1
        assert faults["chunk_retries"] == chaos.kills

    def test_retried_chunk_counts_its_generations_once(self):
        chaos = ChaosMonkey(ChaosPlan(kill_chunks=(0,)))
        request = replace(JOBS[0], params=JOBS[0].params.with_(n_generations=8))
        with GAService(workers=1, mode="thread", chaos=chaos) as service:
            service.submit(request).result(timeout=30)
            assert service.metrics.retries == 1
            assert service.metrics.generations_executed == 8

    def test_process_mode_kill_respawns_pool(self):
        chaos = ChaosMonkey(ChaosPlan(kill_chunks=(1,)))
        outcomes, faults = chaotic_outcomes(
            JOBS[:3], chaos, workers=2, mode="process", admit_interval=8
        )
        expected = {
            request.params.rng_seed: BASELINE[request.params.rng_seed]
            for request in JOBS[:3]
        }
        assert outcomes == expected
        assert chaos.kills == 1
        assert faults["pool_respawns"] >= 1
        assert faults["chunk_retries"] >= 1

    def test_retry_budget_exhaustion_fails_the_job(self):
        # every dispatch dies; one total attempt means no retries
        chaos = ChaosMonkey(ChaosPlan(kill_chunks=tuple(range(64))))
        request = GARequest(
            params=JOBS[0].params, retry=RetryPolicy(max_attempts=1)
        )
        with GAService(workers=1, mode="thread", chaos=chaos) as service:
            handle = service.submit(request)
            with pytest.raises(JobFailedError, match="after 1 attempts"):
                handle.result(timeout=30)


class TestHungChunkWatchdog:
    def test_delayed_chunk_times_out_and_retries_bit_identically(self):
        # the injected delay far exceeds the watchdog, so the first
        # dispatch is declared lost and re-executed
        chaos = ChaosMonkey(ChaosPlan(delay_chunks=(0,), delay_s=1.0))
        outcomes, faults = chaotic_outcomes(
            JOBS[:3], chaos, workers=2, chunk_timeout_s=0.2,
        )
        expected = {
            request.params.rng_seed: BASELINE[request.params.rng_seed]
            for request in JOBS[:3]
        }
        assert outcomes == expected
        assert faults["chunk_timeouts"] >= 1
        assert faults["chunk_retries"] >= 1


class TestMidSlabRestart:
    def test_resume_from_copied_checkpoint_is_bit_identical(self, tmp_path):
        # service 1 checkpoints every chunk into its spill dir; snapshot
        # the dir mid-flight (a crashed process leaves exactly this), then
        # have service 2 resume the copy and finish the interrupted jobs
        spill1, spill2 = tmp_path / "live", tmp_path / "crashed"
        policy = BatchPolicy(admit_interval=4)
        with GAService(
            workers=1, mode="thread", policy=policy, spill_dir=spill1
        ) as service:
            handles = [service.submit(request) for request in JOBS]
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                files = list(spill1.glob("slab-*.json"))
                if files and service.metrics.chunks >= 2:
                    break
                time.sleep(0.002)
            assert files, "no checkpoint was spilled"
            # copy the finished spill files one by one: the live service
            # keeps writing (temp file, then rename) and retiring them, so
            # a directory copy can list a file that is gone a moment later
            spill2.mkdir()
            while not list(spill2.glob("slab-*.json")):
                for path in spill1.glob("slab-*.json"):
                    try:
                        shutil.copy(path, spill2 / path.name)
                    except FileNotFoundError:
                        pass  # its slab retired between listing and copy
                assert time.monotonic() < deadline, "no checkpoint to copy"
            for handle in handles:
                handle.result(timeout=120)
            assert service.metrics.checkpoints >= 1

        with GAService(
            workers=2, mode="thread", policy=policy,
            spill_dir=spill2, resume=True,
        ) as resumed:
            assert resumed.resumed_handles, "nothing was resumed"
            assert resumed.metrics.resumed == len(resumed.resumed_handles)
            for handle in resumed.resumed_handles:
                result = handle.result(timeout=120)
                assert outcome(result) == BASELINE[result.params.rng_seed]
        # resumed slabs that retired drop their spill files
        assert not list(spill2.glob("slab-*.json"))

    def test_spill_dir_empties_after_clean_drain(self, tmp_path):
        with GAService(
            workers=1, mode="thread",
            policy=BatchPolicy(admit_interval=4),
            spill_dir=tmp_path,
        ) as service:
            service.run_all(JOBS[:2], timeout=60)
        assert not list(tmp_path.glob("slab-*.json"))


class TestEngineAndTopologyModes:
    def test_island_job_survives_kill_identically(self):
        island_job = GARequest(
            params=GAParameters(
                n_generations=24, population_size=16,
                crossover_threshold=10, mutation_threshold=1, rng_seed=4242,
            ),
            n_islands=4, migration_interval=8, retry=FAST_RETRY,
        )
        clean, _ = chaotic_outcomes([island_job], chaos=None, workers=1)
        chaos = ChaosMonkey(ChaosPlan(kill_chunks=(0,)))
        faulted, faults = chaotic_outcomes([island_job], chaos, workers=1)
        assert faulted == clean
        assert faults["chunk_retries"] >= 1


class TestConnectionDrops:
    def test_dropped_connection_then_healthy_service(self):
        chaos = ChaosMonkey(ChaosPlan(drop_connections=(0,)))
        service = GAService(workers=1, mode="thread", chaos=chaos).start()
        server = ServiceTCPServer(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.endpoint
            with pytest.raises(ServiceError, match="closed the connection"):
                call(host, port, {"op": "ping"}, timeout=10)
            assert chaos.drops == 1
            assert service.metrics.dropped_connections == 1
            # connection 1 is not in the plan: service stays healthy
            assert call(host, port, {"op": "ping"}, timeout=10)["ok"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.shutdown()


@pytest.mark.slow
class TestChaosSoak:
    def test_every_fault_schedule_yields_identical_results(self):
        # the full differential soak: sweep seed-derived fault plans with
        # kills and watchdog-tripping delays; every schedule must
        # reproduce the fault-free numbers exactly.  The retry budget is
        # deeper than FAST_RETRY's because which dispatch index a chunk
        # lands on is timing-dependent: at a 30% combined fault rate a
        # 5-attempt budget legitimately exhausts (~0.3^4 per first fault,
        # near-certain across 8 plans), which is correct behaviour but
        # not what this test measures
        deep = replace(FAST_RETRY, max_attempts=12)
        jobs = [replace(request, retry=deep) for request in JOBS]
        for plan_seed in range(8):
            chaos = ChaosMonkey(
                ChaosPlan.from_seed(
                    plan_seed, kill_rate=0.2, delay_rate=0.1, delay_s=0.5
                )
            )
            outcomes, _ = chaotic_outcomes(
                jobs, chaos, workers=2, chunk_timeout_s=0.25
            )
            assert outcomes == BASELINE, f"fault plan {plan_seed} changed results"
