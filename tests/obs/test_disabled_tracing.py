"""The disabled tracing path takes no per-generation timestamps.

``benchmarks/bench_obs_overhead.py`` bounds the disabled path's cost by
timing; this pins what that bound protects, deterministically.  Every
timestamp the engines take goes through the ``perf_counter`` bound in
their module, so counting calls to it shows the instrumentation: with
tracing off (``None`` or ``NULL_TRACER``) a run takes its two run-level
timestamps however many generations it evolves, and a live
:class:`~repro.obs.Tracer` takes more as the run gets longer.
"""

import time

import pytest

import repro.core.batch as batch_module
import repro.core.behavioral as behavioral_module
from repro.core.batch import BatchBehavioralGA
from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.fitness.functions import by_name
from repro.obs import NULL_TRACER, Tracer

FN = by_name("mBF6_2")


def _params(gens: int) -> GAParameters:
    return GAParameters(
        n_generations=gens, population_size=32,
        crossover_threshold=10, mutation_threshold=1, rng_seed=0x061F,
    )


def _run_batch(gens, tracer):
    BatchBehavioralGA([_params(gens)] * 4, FN, tracer=tracer).run()


def _run_serial(gens, tracer):
    BehavioralGA(_params(gens), FN, tracer=tracer).run()


@pytest.fixture()
def timestamps(monkeypatch):
    """Count calls to the engines' ``perf_counter``."""
    calls = [0]

    def counting():
        calls[0] += 1
        return time.perf_counter()

    monkeypatch.setattr(batch_module, "perf_counter", counting)
    monkeypatch.setattr(behavioral_module, "perf_counter", counting)

    def count(run, gens, tracer):
        calls[0] = 0
        run(gens, tracer)
        return calls[0]

    return count


@pytest.mark.parametrize("run", [_run_batch, _run_serial], ids=["batch", "serial"])
@pytest.mark.parametrize("disabled", [None, NULL_TRACER], ids=["none", "null"])
def test_disabled_tracing_takes_no_per_generation_timestamps(
    timestamps, run, disabled
):
    short, long = timestamps(run, 8, disabled), timestamps(run, 32, disabled)
    assert short == long == 2


@pytest.mark.parametrize("run", [_run_batch, _run_serial], ids=["batch", "serial"])
def test_live_tracer_timestamps_grow_with_generations(timestamps, run):
    short, long = timestamps(run, 8, Tracer()), timestamps(run, 32, Tracer())
    assert 2 < short < long
