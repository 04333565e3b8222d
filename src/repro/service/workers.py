"""Stateless slab-chunk execution and the worker pool that runs it.

The scheduler owns all slab state; what it ships to a worker is a plain
picklable *chunk spec* — per-job parameters, carried population and RNG
state (or "fresh"), and a generation count — and what comes back is the
updated carried state plus per-generation statistics.  Keeping workers
stateless makes the pool trivially elastic (any worker can run any chunk)
and makes late admission a pure scheduler-side merge between chunks.

Bit-exactness contract: a fresh entry draws its initial population with
its own :class:`~repro.rng.cellular_automaton.CellularAutomatonPRNG`
exactly as a solo :class:`~repro.core.behavioral.BehavioralGA` would, and
every chunk then advances the carried stream through
:class:`~repro.core.batch.BatchBehavioralGA` (itself property-tested
bit-identical to serial).  Chunking is invisible: the resumed chunk's
generation-0 record duplicates the previous chunk's last generation and is
dropped by the scheduler when splicing traces.

Hardened jobs (``protection`` set) bypass batching entirely: the
resilience harness addresses its fault streams by replica and boundary
index, so the job runs solo and unchunked through
:class:`~repro.core.behavioral.BehavioralGA` with a fresh
:class:`~repro.resilience.harden.ResilienceHarness` — bit-identical to a
solo hardened run by construction.
"""

from __future__ import annotations

import concurrent.futures
import threading

import numpy as np

from repro.core.batch import BatchBehavioralGA
from repro.core.params import GAParameters
from repro.fitness.functions import by_name
from repro.obs.profile import ProfileScope
from repro.obs.tracer import get_tracer
from repro.rng.cellular_automaton import CellularAutomatonPRNG
from repro.service.chaos import apply_chunk_fault


def run_slab_chunk(spec: dict) -> dict:
    """Execute one slab chunk; module-level so process pools can pickle it.

    ``spec``::

        {"chunk_gens": int,
         "chaos": None | {"action": "kill" | "delay", ...},  # injected fault
         "protection": None | {"preset", "upset_rate", "campaign_seed"},
         "entries": [{"job_id", "params": {...}, "fitness",
                      "population": [..] | None,   # None -> fresh draw
                      "rng_state": int | None,
                      "record_stats": bool}, ...]}

    Returns ``{"entries": [{"job_id", "population", "rng_state",
    "evaluations", "stats", "best_individual", "best_fitness",
    "protection_stats"}, ...]}`` where ``stats`` rows are
    ``(best_fitness, best_individual, fitness_sum)`` for the chunk's local
    generations 0..chunk_gens (empty when ``record_stats`` is off).

    Observability: every chunk is timed into the process registry's
    ``profile.service.slab_chunk`` histogram, and when the process default
    tracer (:func:`~repro.obs.tracer.get_tracer`) is enabled — which a
    thread-mode :class:`WorkerPool` shares with the caller — the chunk
    runs inside a ``service.chunk`` span carrying its ``job_ids``, with
    the engine's per-generation events nested under it.  Process-mode
    workers run with the default null tracer unless their interpreter
    arms one.
    """
    from contextlib import nullcontext

    tracer = get_tracer()
    span = (
        tracer.span(
            "service.chunk",
            job_ids=[entry["job_id"] for entry in spec["entries"]],
            chunk_gens=spec.get("chunk_gens"),
            hardened=spec.get("protection") is not None,
            island=spec.get("island") is not None,
        )
        if tracer.enabled
        else nullcontext()
    )
    with ProfileScope("service.slab_chunk"), span:
        if spec.get("chaos") is not None:
            # injected fault (see repro.service.chaos): may sleep, raise
            # WorkerCrashError, or os._exit this worker outright
            apply_chunk_fault(spec["chaos"])
        if spec.get("protection") is not None:
            return _run_hardened(spec, tracer)
        if spec.get("island") is not None:
            return _run_island(spec, tracer)
        substrate = spec.get("substrate", "behavioral")
        if substrate == "cycle":
            return _run_cycle(spec)
        if substrate == "dual32":
            return _run_dual32(spec)
        return _run_batched(spec, tracer)


def _run_batched(spec: dict, tracer=None) -> dict:
    """The common path: one :class:`BatchBehavioralGA` call per chunk."""
    chunk = spec["chunk_gens"]
    entries = spec["entries"]
    params_list = []
    fns = []
    states = []
    populations = []
    base_evals = []
    for entry in entries:
        params = GAParameters(**entry["params"]).with_(n_generations=chunk)
        params_list.append(params)
        fns.append(by_name(entry["fitness"]))
        if entry["population"] is None:
            # fresh job joining the slab: draw its initial population from
            # its own seed exactly as a solo serial run would
            rng = CellularAutomatonPRNG(params.rng_seed)
            populations.append(rng.block(params.population_size).tolist())
            states.append(rng.state)
            base_evals.append(params.population_size)
        else:
            populations.append(entry["population"])
            states.append(entry["rng_state"])
            base_evals.append(0)

    batch = BatchBehavioralGA(
        params_list,
        fns,
        rng_states=states,
        tracer=tracer,
    )
    initial = np.asarray(populations, dtype=np.int64)
    results = batch.run(initial=initial)
    return {
        "entries": [
            _output_entry(
                entry,
                results[i],
                population=batch.final_populations[i].tolist(),
                rng_state=int(batch.rng_states[i]),
                evaluations=base_evals[i] + results[i].evaluations,
            )
            for i, entry in enumerate(entries)
        ]
    }


def _run_hardened(spec: dict, tracer=None) -> dict:
    """Solo, unchunked execution of one job under a resilience harness."""
    from repro.core.behavioral import BehavioralGA
    from repro.resilience import (
        PROTECTION_PRESETS,
        ResilienceHarness,
        UpsetRates,
    )

    (entry,) = spec["entries"]
    prot = spec["protection"]
    params = GAParameters(**entry["params"])
    harness = ResilienceHarness(
        PROTECTION_PRESETS[prot["preset"]],
        UpsetRates.uniform(prot["upset_rate"]),
        seed=prot["campaign_seed"],
        n_replicas=1,
        tracer=tracer,
    )
    ga = BehavioralGA(
        params, by_name(entry["fitness"]), record_members=False,
        resilience=harness, tracer=tracer,
    )
    result = ga.run()
    return {
        "entries": [
            _output_entry(
                entry,
                result,
                population=ga.final_population.tolist(),
                rng_state=int(ga.rng.state),
                protection_stats={
                    "rollbacks": int(harness.rollbacks[0]),
                    "generations_lost": int(harness.generations_lost[0]),
                    "corrected": int(harness.corrected[0]),
                    "elite_repairs": int(harness.elite_repairs[0]),
                    "failovers": int(harness.failovers[0]),
                },
            )
        ]
    }


def _run_island(spec: dict, tracer=None) -> dict:
    """Solo, unchunked execution of one archipelago job.

    The whole archipelago *is* one
    :class:`~repro.parallel.archipelago.VectorIslandGA` slab (replica
    axis = island), so the job runs to completion in a single chunk; the
    returned ``stats`` rows are per *epoch* —
    ``(best_fitness, best_individual, champion_fitness_sum)`` — and
    ``island_stats`` carries the archipelago counters.  Results are
    bit-identical to a local ``VectorIslandGA(...).run()`` of the same
    request by construction (same engine, same seeds, same topology
    wiring from the job's ``rng_seed``).
    """
    from repro.parallel.archipelago import VectorIslandGA

    (entry,) = spec["entries"]
    isl = spec["island"]
    params = GAParameters(**entry["params"])
    ga = VectorIslandGA(
        params,
        by_name(entry["fitness"]),
        n_islands=isl["n_islands"],
        migration_interval=isl["migration_interval"],
        topology=isl["topology"],
        record_champions=False,
        tracer=tracer,
    )
    result = ga.run()
    return {
        "entries": [
            _output_entry(
                entry,
                result,
                rows=result.epoch_summary,
                island_stats={
                    "islands": isl["n_islands"],
                    "migration_interval": isl["migration_interval"],
                    "topology": isl["topology"],
                    "migrations": result.migrations,
                    "island_bests": result.island_bests,
                },
            )
        ]
    }


def _output_entry(entry: dict, result, rows=None, **fields) -> dict:
    """One job's worker→scheduler payload, for every execution path.

    ``stats`` rows are ``(best_fitness, best_individual, fitness_sum)``
    per history generation, or ``rows`` (an island run's epoch summary)
    when given; empty unless the entry records stats.  ``fields`` adds
    or overrides keys: the carried ``population``/``rng_state`` of a
    resumable chunk (``None`` for paths that run to completion), the
    slab-adjusted ``evaluations``, and the path's counters.
    """
    if not entry.get("record_stats", True):
        stats = []
    elif rows is None:
        stats = [
            (g.best_fitness, g.best_individual, g.fitness_sum)
            for g in result.history
        ]
    else:
        stats = [tuple(row) for row in rows]
    return {
        "job_id": entry["job_id"],
        "population": None,
        "rng_state": None,
        "evaluations": result.evaluations,
        "stats": stats,
        "best_individual": result.best_individual,
        "best_fitness": result.best_fitness,
        "protection_stats": {},
        **fields,
    }


def _run_cycle(spec: dict) -> dict:
    """Solo, unchunked execution on the cycle-accurate Fig. 4 testbench.

    The job runs the full HDL-modelled system (GA module + init +
    application + lookup FEM); ``substrate_stats`` reports the GA-domain
    clock cycles the run consumed — the number the paper's Table VI
    hardware-runtime claims are made from.
    """
    from repro.core.system import GASystem

    (entry,) = spec["entries"]
    params = GAParameters(**entry["params"])
    result = GASystem(params, by_name(entry["fitness"])).run()
    return {
        "entries": [
            _output_entry(
                entry,
                result,
                substrate_stats={"substrate": "cycle", "cycles": result.cycles},
            )
        ]
    }


def _run_dual32(spec: dict) -> dict:
    """Solo, unchunked execution on the dual-core 32-bit composition.

    ``best_individual`` (and the per-generation stats rows) carry 32-bit
    chromosomes; the fitness name resolves through the 32-bit registry
    (``repro.fitness.ehw_targets.FITNESS32_REGISTRY``), not the 16-bit
    FEM registry.
    """
    from repro.core.scaling import DualCoreGA32
    from repro.fitness.ehw_targets import FITNESS32_REGISTRY

    (entry,) = spec["entries"]
    params = GAParameters(**entry["params"])
    fitness32 = FITNESS32_REGISTRY[entry["fitness"]]
    result = DualCoreGA32(params, fitness32).run()
    return {
        "entries": [
            _output_entry(
                entry,
                result,
                substrate_stats={"substrate": "dual32", "width": 32},
            )
        ]
    }


class WorkerPool:
    """A thin executor wrapper: ``mode`` picks threads or processes.

    ``process`` (the production mode) forks interpreter workers so slab
    chunks run truly in parallel; ``thread`` keeps everything in-process,
    which tests prefer (no fork cost, full tracebacks) and which still
    overlaps numpy work releasing the GIL.

    Fault tolerance: a crashed process worker poisons its whole
    ``ProcessPoolExecutor`` (every queued future fails with
    ``BrokenProcessPool``), so the pool supports :meth:`respawn` — tear
    the broken executor down and stand up a fresh one.  ``generation``
    counts respawns; the scheduler passes the generation it *observed* the
    failure under so that a cascade of broken futures from one crash
    triggers exactly one respawn.  An optional
    :class:`~repro.service.chaos.ChaosMonkey` injects per-dispatch faults
    into outgoing chunk specs.
    """

    def __init__(self, n_workers: int = 2, mode: str = "process", chaos=None):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1: {n_workers}")
        if mode not in ("process", "thread"):
            raise ValueError(f"mode must be 'process' or 'thread': {mode!r}")
        self.n_workers = n_workers
        self.mode = mode
        self.chaos = chaos
        self._generation = 0
        self._lock = threading.Lock()
        self._executor = self._make_executor()

    def _make_executor(self) -> concurrent.futures.Executor:
        if self.mode == "process":
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=self.n_workers
            )
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="ga-slab"
        )

    @property
    def generation(self) -> int:
        """How many times the executor has been respawned."""
        with self._lock:
            return self._generation

    @property
    def can_respawn(self) -> bool:
        """Thread pools never break wholesale; only processes respawn."""
        return self.mode == "process"

    def respawn(self, seen_generation: int | None = None) -> bool:
        """Replace a broken executor with a fresh one.

        ``seen_generation`` is the generation under which the caller
        observed the failure; if the pool has already moved past it the
        call is a no-op (one worker crash fails every queued future, and
        each failure callback asks for a respawn).  Returns True when a
        new executor was actually created.
        """
        if not self.can_respawn:
            return False
        with self._lock:
            if seen_generation is not None and self._generation > seen_generation:
                return False
            old = self._executor
            # a broken pool's shutdown() can hang on dead children; kill
            # any stragglers outright before abandoning it
            processes = list(getattr(old, "_processes", {}).values())
            for proc in processes:
                if proc.is_alive():
                    proc.terminate()
            old.shutdown(wait=False, cancel_futures=True)
            self._executor = self._make_executor()
            self._generation += 1
            return True

    def submit_chunk(self, spec: dict, callback) -> None:
        """Run ``run_slab_chunk(spec)``; invoke ``callback(result_or_exc)``
        from a pool thread when it lands.

        A broken process pool raises *synchronously* from ``submit``; the
        exception is then delivered through ``callback`` from a fresh
        thread instead of propagating, so the scheduler sees every
        failure on the same (callback) path and its lock is never held
        across the delivery.
        """
        if self.chaos is not None:
            fault = self.chaos.chunk_fault()
            if fault is not None:
                spec = {**spec, "chaos": fault}
        try:
            with self._lock:
                future = self._executor.submit(run_slab_chunk, spec)
        except (concurrent.futures.BrokenExecutor, RuntimeError) as exc:
            threading.Thread(
                target=callback, args=(exc,), daemon=True
            ).start()
            return

        def _done(fut: concurrent.futures.Future) -> None:
            exc = fut.exception()
            callback(exc if exc is not None else fut.result())

        future.add_done_callback(_done)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._executor.shutdown(wait=wait)
