"""Observability overhead: disabled tracing must be free, enabled cheap.

Three measurements over the PR 1 batched baseline (the 24-cell Table VII
grid through :func:`repro.core.batch.run_batched` equivalents):

* **disabled** — engines constructed with ``tracer=None`` (the exact
  pre-instrumentation hot loop) vs engines constructed with the explicit
  :data:`NULL_TRACER` (the instrumented-but-disabled path).  Many
  interleaved A/B pairs, alternating which variant runs first; the median
  of the per-pair time ratios must stay within 2% — the acceptance bound
  on disabled-tracing overhead — and its interquartile range is reported;
* **anchor** — the batched engine must still beat the looped serial
  engine by the PR 1 factor (>= 5x), proving instrumentation did not
  erode the baseline win;
* **enabled** — the full-tracing cost is measured and *reported* (into
  ``BENCH_results.json`` via ``benchmark.extra_info``), not asserted:
  enabled tracing is allowed to cost what it costs.
"""

import statistics
import time

import pytest

from conftest import print_table
from repro.core.batch import BatchBehavioralGA
from repro.core.behavioral import BehavioralGA
from repro.experiments.config import fpga_sweep_params
from repro.fitness import MBF6_2
from repro.obs import NULL_TRACER, Tracer

#: interleaved None / NULL_TRACER timing pairs.  One sweep takes about
#: 20 ms, so a single pair's ratio carries several percent of jitter (an
#: IQR of about 0.96-1.03 on a 2-vCPU VM).  There, five runs of this many
#: pairs read medians of -0.98% to -0.18%, inside the 2% bound; four runs
#: of 61 pairs spread over -0.93% to +1.06%
PAIRS = 121


def _grid_jobs():
    fn = MBF6_2()
    fn.table()
    return [(params, fn) for params in fpga_sweep_params()]


def _sweep(jobs, tracer):
    """One full grid sweep, batched by population size (the PR 1 shape);
    results come back in the original job order."""
    by_pop: dict[int, list] = {}
    for i, (params, fn) in enumerate(jobs):
        by_pop.setdefault(params.population_size, []).append((i, params, fn))
    results = [None] * len(jobs)
    for group in by_pop.values():
        params_list = [p for _, p, _ in group]
        fns = [f for _, _, f in group]
        batch = BatchBehavioralGA(
            params_list, fns, record_members=False, tracer=tracer
        )
        for (i, _, _), result in zip(group, batch.run()):
            results[i] = result
    return results


def _timed(fn_call):
    t0 = time.perf_counter()
    result = fn_call()
    return time.perf_counter() - t0, result


@pytest.mark.benchmark(group="obs-overhead")
def test_disabled_tracing_overhead_within_2pct(benchmark):
    jobs = _grid_jobs()
    _sweep(jobs, None)  # warm orbit/slot tables and allocator

    none_times, ratios = [], []
    baseline = None
    for pair in range(PAIRS):
        # alternate A/B order so cache/clock drift cannot bias one variant
        order = [None, NULL_TRACER] if pair % 2 == 0 else [NULL_TRACER, None]
        times = {}
        for tracer_arg in order:
            t, results = _timed(lambda: _sweep(jobs, tracer_arg))
            times[tracer_arg] = t
            # the disabled path must also stay bit-identical, every round
            key = [
                (r.best_individual, r.best_fitness, r.evaluations)
                for r in results
            ]
            if baseline is None:
                baseline = key
            assert key == baseline
        none_times.append(times[None])
        ratios.append(times[NULL_TRACER] / times[None])

    ratio = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    overhead = ratio - 1.0
    t_none = statistics.median(none_times)

    # enabled tracing: measured once, reported (not asserted)
    tracer = Tracer()
    t_traced, r_traced = _timed(lambda: _sweep(jobs, tracer))
    assert [
        (r.best_individual, r.best_fitness, r.evaluations) for r in r_traced
    ] == baseline
    enabled_ratio = t_traced / t_none

    benchmark.extra_info["disabled_overhead_pct"] = round(overhead * 100, 2)
    benchmark.extra_info["disabled_ratio_median"] = round(ratio, 4)
    benchmark.extra_info["disabled_ratio_iqr"] = [round(q1, 4), round(q3, 4)]
    benchmark.extra_info["disabled_pairs"] = PAIRS
    benchmark.extra_info["enabled_cost_ratio"] = round(enabled_ratio, 3)
    benchmark.extra_info["trace_records"] = len(tracer.records)
    benchmark.pedantic(_sweep, args=(jobs, None), rounds=1, iterations=1)

    print_table(
        "Observability overhead (24-run Table VII grid, median of "
        f"{PAIRS} interleaved pairs)",
        [
            {"variant": "tracer=None (pre-instrumentation path)",
             "time_s": round(t_none, 4), "ratio": 1.0},
            {"variant": "NULL_TRACER (disabled instrumentation)",
             "time_s": round(t_none * ratio, 4),
             "ratio": round(ratio, 4)},
            {"variant": "live Tracer (full span/event stream)",
             "time_s": round(t_traced, 4),
             "ratio": round(enabled_ratio, 4)},
        ],
    )
    print(
        f"disabled overhead: {overhead * 100:+.2f}% (bound: 2%), per-pair "
        f"ratio IQR {q1:.4f}-{q3:.4f}"
    )
    print(f"enabled cost: {enabled_ratio:.2f}x, {len(tracer.records)} records")

    assert overhead < 0.02, (
        f"disabled tracing costs {overhead * 100:.2f}% (> 2% bound)"
    )


@pytest.mark.benchmark(group="obs-overhead")
def test_batched_speedup_anchor_holds_with_instrumentation(benchmark):
    """The PR 1 acceptance anchor: instrumented batched engine still >= 5x
    the looped serial engine on the 24-run grid."""
    jobs = _grid_jobs()
    _sweep(jobs, None)  # warm

    t_loop, looped = _timed(lambda: [
        BehavioralGA(params, fn, record_members=False).run()
        for params, fn in jobs
    ])
    t_batch, batched = _timed(lambda: _sweep(jobs, None))
    benchmark.pedantic(_sweep, args=(jobs, None), rounds=1, iterations=1)

    assert [r.best_fitness for r in looped] == [r.best_fitness for r in batched]
    speedup = t_loop / t_batch
    benchmark.extra_info["batched_speedup"] = round(speedup, 2)
    print(f"\nbatched speedup with instrumentation in place: {speedup:.1f}x")
    assert speedup >= 5.0
