"""Request/result types: validation, wire round trips, handle semantics."""

import pytest

from repro.core.params import GAParameters
from repro.core.stats import GenerationStats
from repro.service.jobs import GARequest, JobHandle, JobResult, RetryPolicy


def params(**overrides) -> GAParameters:
    base = dict(
        n_generations=8,
        population_size=16,
        crossover_threshold=10,
        mutation_threshold=1,
        rng_seed=45890,
    )
    base.update(overrides)
    return GAParameters(**base)


class TestGARequest:
    def test_unknown_fitness_slot_rejected(self):
        with pytest.raises(ValueError, match="unknown fitness slot"):
            GARequest(params=params(), fitness_name="nope")

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            GARequest(params=params(), deadline_s=0)

    def test_unknown_protection_rejected(self):
        with pytest.raises(ValueError, match="protection preset"):
            GARequest(params=params(), protection="tinfoil")

    def test_negative_upset_rate_rejected(self):
        with pytest.raises(ValueError, match="upset_rate"):
            GARequest(params=params(), upset_rate=-1e-4)

    def test_upsets_without_a_preset_rejected(self):
        # without a preset no harness injects them: the job would run
        # fault-free under a store key of its own
        with pytest.raises(ValueError, match='protection="unprotected"'):
            GARequest(params=params(), upset_rate=0.05)
        GARequest(params=params(), upset_rate=0.05, protection="unprotected")

    def test_cycle_population_limit_is_the_cores_bank(self):
        with pytest.raises(ValueError, match="populations up to 128"):
            GARequest(params=params(population_size=200), substrate="cycle")
        GARequest(params=params(population_size=128), substrate="cycle")
        GARequest(params=params(population_size=200))

    def test_wire_round_trip(self):
        request = GARequest(
            params=params(rng_seed=0x2961),
            fitness_name="mShubert2D",
            priority=-2,
            deadline_s=1.5,
            record_trace=False,
            protection="hardened",
            upset_rate=5e-4,
            campaign_seed=7,
            retry=RetryPolicy(max_attempts=5, backoff_s=0.01, jitter=0.5),
            deadline_mode="enforce",
        )
        assert GARequest.from_dict(request.to_dict()) == request

    def test_deadline_mode_validation(self):
        with pytest.raises(ValueError, match="deadline_mode"):
            GARequest(params=params(), deadline_mode="hope")
        with pytest.raises(ValueError, match="requires deadline_s"):
            GARequest(params=params(), deadline_mode="enforce")
        GARequest(params=params(), deadline_mode="enforce", deadline_s=1.0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="max_backoff_s"):
            RetryPolicy(backoff_s=1.0, max_backoff_s=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_backoff_is_exponential_capped_and_deterministic(self):
        policy = RetryPolicy(
            backoff_s=0.1, multiplier=2.0, max_backoff_s=0.3, jitter=0.0
        )
        delays = [policy.delay_s(a, seed=45890) for a in (1, 2, 3, 4)]
        assert delays == [
            pytest.approx(0.1), pytest.approx(0.2),
            pytest.approx(0.3), pytest.approx(0.3),  # capped
        ]

    def test_jitter_is_seed_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=0.1, jitter=0.25)
        assert policy.delay_s(1, seed=7) == policy.delay_s(1, seed=7)
        assert policy.delay_s(1, seed=7) != policy.delay_s(1, seed=8)
        for seed in range(20):
            delay = policy.delay_s(1, seed=seed)
            assert 0.1 <= delay <= 0.1 * 1.25

    def test_wire_round_trip(self):
        policy = RetryPolicy(
            max_attempts=7, backoff_s=0.2, multiplier=3.0,
            max_backoff_s=5.0, jitter=0.1,
        )
        assert RetryPolicy.from_dict(policy.to_dict()) == policy


class TestJobResult:
    def test_wire_round_trip_rebuilds_history(self):
        result = JobResult(
            job_id=3,
            best_individual=65521,
            best_fitness=8183,
            evaluations=136,
            fitness_name="mBF6_2",
            params=params(),
            history=[
                GenerationStats(
                    generation=g, best_fitness=100 + g, best_individual=g,
                    fitness_sum=1000 + g, population_size=16,
                )
                for g in range(3)
            ],
            latency_s=0.25,
            wait_s=0.01,
            n_chunks=2,
            deadline_missed=True,
        )
        back = JobResult.from_dict(result.to_dict())
        assert back == result
        assert back.best_series() == [100, 101, 102]

    def test_cache_provenance_round_trips(self):
        result = JobResult(
            job_id=9, best_individual=1, best_fitness=2, evaluations=3,
            fitness_name="mBF6_2", params=params(),
            cache_hit=True, store_key="ab" * 32,
        )
        back = JobResult.from_dict(result.to_dict())
        assert back.cache_hit is True
        assert back.store_key == "ab" * 32
        assert back == result

    def test_pre_cache_wire_payload_defaults_cold(self):
        # frames from servers predating the run store carry no cache
        # provenance; they must still parse, defaulting to a cold result
        result = JobResult(
            job_id=9, best_individual=1, best_fitness=2, evaluations=3,
            fitness_name="mBF6_2", params=params(),
        )
        legacy = result.to_dict()
        del legacy["cache_hit"]
        del legacy["store_key"]
        back = JobResult.from_dict(legacy)
        assert back.cache_hit is False
        assert back.store_key is None

    def test_use_cache_is_wire_compatible(self):
        request = GARequest(params=params(), use_cache=False)
        assert GARequest.from_dict(request.to_dict()).use_cache is False
        # pre-cache request frames default to cache-enabled
        legacy = request.to_dict()
        del legacy["use_cache"]
        assert GARequest.from_dict(legacy).use_cache is True


class TestJobHandle:
    def test_result_times_out_until_fulfilled(self):
        handle = JobHandle(0, GARequest(params=params()), 0.0)
        assert not handle.done()
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.01)
        handle._fail(RuntimeError("boom"))
        assert handle.done()
        with pytest.raises(RuntimeError, match="boom"):
            handle.result(timeout=0.01)

    def test_cancel_without_scheduler_is_a_noop(self):
        handle = JobHandle(0, GARequest(params=params()), 0.0)
        assert handle.cancel() is False  # never registered

    def test_cancel_routes_through_the_canceller_until_done(self):
        handle = JobHandle(3, GARequest(params=params()), 0.0)
        seen = []
        handle._canceller = lambda job_id: seen.append(job_id) or True
        assert handle.cancel() is True
        assert seen == [3]
        handle._fail(RuntimeError("done"))
        assert handle.cancel() is False  # completed handles cannot cancel

    def test_settlement_is_idempotent_first_wins(self):
        handle = JobHandle(0, GARequest(params=params()), 0.0)
        handle._fail(RuntimeError("first"))
        handle._fail(RuntimeError("second"))
        with pytest.raises(RuntimeError, match="first"):
            handle.result(timeout=0.01)
