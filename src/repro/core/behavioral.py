"""Behavioural (numpy-vectorised) twin of the GA core.

Implements *exactly* the algorithm of :class:`repro.core.ga_core.GACore` —
same operators, same proportionate-selection arithmetic, same RNG draw
sequence — without the clock.  Given the same parameters and RNG it produces
bit-identical populations and statistics (property-tested in
``tests/core/test_equivalence.py``), which lets the sweep experiments
(Tables V, VII-IX) run in milliseconds while the cycle-accurate model
anchors fidelity.

This is the "behavioral VHDL model" level of the paper's design flow
(Sec. III-B), and also the vectorisation fast path the HPC guides prescribe:
the per-generation work is two ``np.cumsum``/``searchsorted`` selections and
table-lookup fitness, with only the unavoidable sequential RNG dependency
left in Python.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.params import GAParameters
from repro.core.stats import GenerationStats
from repro.core.validate import validate_initial_population
from repro.fitness.base import FitnessFunction
from repro.obs.metrics import record_engine_run
from repro.rng.base import RandomSource
from repro.rng.cellular_automaton import CellularAutomatonPRNG


class BehavioralGA:
    """Algorithm-level GA engine with the IP core's exact semantics.

    Parameters
    ----------
    params:
        The five programmable parameters (population limit here is the
        architectural 256, not the 128 imposed by the single-chip memory).
    fitness:
        Any :class:`FitnessFunction`; evaluated through its lookup table,
        mirroring the paper's block-ROM FEM.
    rng:
        Random source; defaults to the CA PRNG seeded from ``params``.
    record_members:
        Keep every member's fitness per generation (Figs. 8-12 scatter
        data).  Disable for large sweeps to save memory.
    resilience:
        Optional :class:`~repro.resilience.harden.ResilienceHarness`
        (``n_replicas=1``).  Its ``serial_boundary`` hook runs after every
        generation is recorded, injecting that boundary's upsets and
        applying the armed protections; with zero upset rates the hook is
        a no-op and the run stays bit-identical to an unhardened one.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  When enabled, the
        run emits one ``ga.run`` span, a ``ga.generation`` event per
        generation boundary (best/sum — the Fig. 8 data), and a
        ``ga.phases`` event per evolved generation with the wall time
        spent in selection, crossover, mutation, and evaluation.
        Tracing never touches the RNG or the arithmetic, so a traced run
        is bit-identical to an untraced one; with the default ``None``
        the only cost is one hoisted flag check per generation.
    """

    def __init__(
        self,
        params: GAParameters,
        fitness: FitnessFunction,
        rng: RandomSource | None = None,
        record_members: bool = True,
        resilience=None,
        tracer=None,
    ):
        self.params = params
        self.fitness = fitness
        self.rng = rng if rng is not None else CellularAutomatonPRNG(params.rng_seed)
        self.record_members = record_members
        self.resilience = resilience
        self.tracer = tracer
        self.table = fitness.table()
        self.history: list[GenerationStats] = []
        self.evaluations = 0

    # ------------------------------------------------------------------
    def _select(self, cum_fits: np.ndarray, total: int) -> int:
        """Proportionate selection index: threshold = (rn * sum) >> 16,
        pick the first member whose cumulative fitness exceeds it (last
        member as the hardware's fallback)."""
        threshold = (self.rng.next_word() * total) >> 16
        index = int(np.searchsorted(cum_fits, threshold, side="right"))
        return min(index, len(cum_fits) - 1)

    def _crossover(self, p1: int, p2: int) -> tuple[int, int]:
        if (self.rng.next_word() & 0xF) < self.params.crossover_threshold:
            cut = self.rng.next_word() & 0xF
            mask = (1 << cut) - 1
            inv = ~mask & 0xFFFF
            return (p1 & mask) | (p2 & inv), (p2 & mask) | (p1 & inv)
        return p1, p2

    def _mutate(self, ind: int) -> int:
        if (self.rng.next_word() & 0xF) < self.params.mutation_threshold:
            point = self.rng.next_word() & 0xF
            return ind ^ (1 << point)
        return ind

    def _record(self, generation: int, inds: np.ndarray, fits: np.ndarray) -> None:
        best_idx = int(fits.argmax())
        self.history.append(
            GenerationStats(
                generation=generation,
                best_fitness=int(fits[best_idx]),
                best_individual=int(inds[best_idx]),
                fitness_sum=int(fits.sum()),
                population_size=len(inds),
                fitnesses=fits.tolist() if self.record_members else [],
            )
        )
        if self.tracer is not None and self.tracer.enabled:
            g = self.history[-1]
            self.tracer.event(
                "ga.generation",
                generation=g.generation,
                best_fitness=g.best_fitness,
                best_individual=g.best_individual,
                fitness_sum=g.fitness_sum,
            )

    # ------------------------------------------------------------------
    def run(self, initial: np.ndarray | None = None):
        """Execute the full optimization cycle of Fig. 2; returns a
        :class:`repro.core.system.GAResult`.

        ``initial`` optionally seeds the population with given individuals
        (how a serial island-model epoch resumes a migrated population);
        when omitted the population is drawn from the RNG exactly
        like the hardware.  A seeded population is already evaluated, so it
        does not count towards ``self.evaluations`` — only genuinely new
        FEM requests do.  The final population is kept in
        ``self.final_population``.
        """
        from contextlib import nullcontext

        from repro.core.system import GAResult  # deferred: avoids cycle

        pop = self.params.population_size
        table = self.table
        self.history = []
        self.evaluations = 0
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        t_run = perf_counter()

        run_scope = (
            tracer.span(
                "ga.run",
                engine="behavioral",
                fitness=self.fitness.name,
                pop=pop,
                generations=self.params.n_generations,
                seed=self.params.rng_seed,
            )
            if tracing
            else nullcontext()
        )
        with run_scope:
            if initial is not None:
                inds = validate_initial_population(initial, (pop,))
            else:
                inds = self.rng.block(pop).astype(np.int64)
                self.evaluations += pop
            fits = table[inds].astype(np.int64)
            # hardware tie-breaking: first occurrence of the max wins
            best_idx = int(fits.argmax())
            best_ind, best_fit = int(inds[best_idx]), int(fits[best_idx])
            self._record(0, inds, fits)
            if self.resilience is not None:
                inds, fits, best_ind, best_fit = self.resilience.serial_boundary(
                    self, 0, inds, fits, best_ind, best_fit
                )

            for gen in range(1, self.params.n_generations + 1):
                if tracing:
                    ph = {"selection": 0.0, "crossover": 0.0, "mutation": 0.0,
                          "eval": 0.0, "elitism": 0.0, "record": 0.0}
                    t = perf_counter()
                cum = np.cumsum(fits)
                total = int(cum[-1])
                new_inds = np.empty(pop, dtype=np.int64)
                new_fits = np.empty(pop, dtype=np.int64)
                new_inds[0], new_fits[0] = best_ind, best_fit  # elitism
                count = 1
                if tracing:
                    now = perf_counter()
                    ph["elitism"] += now - t
                    t = now
                while count < pop:
                    p1 = int(inds[self._select(cum, total)])
                    p2 = int(inds[self._select(cum, total)])
                    if tracing:
                        now = perf_counter()
                        ph["selection"] += now - t
                        t = now
                    off1, off2 = self._crossover(p1, p2)
                    if tracing:
                        now = perf_counter()
                        ph["crossover"] += now - t
                        t = now
                    off1 = self._mutate(off1)
                    if tracing:
                        now = perf_counter()
                        ph["mutation"] += now - t
                        t = now
                    f1 = int(table[off1])
                    new_inds[count], new_fits[count] = off1, f1
                    count += 1
                    self.evaluations += 1
                    if f1 > best_fit:
                        best_ind, best_fit = off1, f1
                    if tracing:
                        now = perf_counter()
                        ph["eval"] += now - t
                        t = now
                    if count < pop:
                        off2 = self._mutate(off2)
                        if tracing:
                            now = perf_counter()
                            ph["mutation"] += now - t
                            t = now
                        f2 = int(table[off2])
                        new_inds[count], new_fits[count] = off2, f2
                        count += 1
                        self.evaluations += 1
                        if f2 > best_fit:
                            best_ind, best_fit = off2, f2
                        if tracing:
                            now = perf_counter()
                            ph["eval"] += now - t
                            t = now
                inds, fits = new_inds, new_fits
                self._record(gen, inds, fits)
                if tracing:
                    now = perf_counter()
                    ph["record"] += now - t
                    t = now
                if self.resilience is not None:
                    inds, fits, best_ind, best_fit = self.resilience.serial_boundary(
                        self, gen, inds, fits, best_ind, best_fit
                    )
                    if tracing:
                        ph["scrub"] = perf_counter() - t
                if tracing:
                    tracer.event("ga.phases", generation=gen, phases=ph)

        self.final_population = inds.copy()
        record_engine_run(
            self.params.n_generations, self.evaluations, perf_counter() - t_run
        )
        return GAResult(
            best_individual=best_ind,
            best_fitness=best_fit,
            history=self.history,
            evaluations=self.evaluations,
            params=self.params,
            fitness_name=self.fitness.name,
            cycles=None,
        )
