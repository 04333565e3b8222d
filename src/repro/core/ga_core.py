"""The GA core: cycle-accurate FSM implementing Fig. 2's optimization cycle.

This is the reproduction of the paper's synthesized controller + datapath at
clock-cycle granularity.  Every interaction happens over the Table II ports:

* parameters arrive through the ``index``/``value``/``data_valid``/
  ``data_ack`` handshake while ``ga_load`` is high (Sec. III-B.6);
* the population lives in the external single-port GA memory, double
  buffered in two 128-word banks (``mem_address``/``mem_data_out``/
  ``mem_wr``/``mem_data_in``), with the documented one-cycle read latency;
* fitness is obtained over the ``candidate``/``fit_request``/``fit_value``/
  ``fit_valid`` two-way handshake (Sec. III-B.5);
* random words come from the ``rn`` port, consumed via dedicated fetch
  states that pulse ``rn_taken`` so the RNG module advances exactly once per
  draw;
* ``start_GA`` launches a run; ``GA_done`` + the final best on ``candidate``
  end it; the best of every generation is also placed on ``candidate`` at
  each generation boundary ("the best candidate of every generation is
  always output to the application", Sec. III-C.3).

The algorithm (identical, draw for draw, to
:class:`repro.core.behavioral.BehavioralGA`):

1. Generate ``pop`` random individuals, evaluate each, accumulate the
   fitness sum, track the best (elitist model).
2. Per generation: copy the best into slot 0 of the new bank; then until
   the new bank is full, select two parents by proportionate selection
   (threshold = ``(rn * fitness_sum) >> 16`` against the running cumulative
   sum scanned out of memory), apply single-point crossover with
   probability ``crossover_threshold/16``, single-bit mutation per
   offspring with probability ``mutation_threshold/16``, evaluate and store
   each offspring.
3. After ``n_generations`` bank swaps, assert ``GA_done`` with the best
   individual found.
"""

from __future__ import annotations

from repro.core.ga_memory import BANK_SIZE, bank_address, pack_word, unpack_word
from repro.core.params import GAParameters, PRESET_MODES, PresetMode
from repro.core.ports import GAPorts
from repro.core.stats import GenerationStats
from repro.core.validate import check_cycle_population
from repro.hdl.component import Component


#: FSM-state to GA-phase attribution for the traced cycle breakdown —
#: the software rendition of the paper's hardware convergence counters
#: (Tables VII-IX count generations; this counts where the cycles go).
_STATE_PHASE = {
    "FETCH_RN": "rng",
    "SEL1_BEGIN": "selection", "SEL1_THRESHOLD": "selection",
    "SEL1_READ": "selection", "SEL1_WAIT": "selection",
    "SEL1_SCAN": "selection",
    "SEL2_BEGIN": "selection", "SEL2_THRESHOLD": "selection",
    "SEL2_READ": "selection", "SEL2_WAIT": "selection",
    "SEL2_SCAN": "selection",
    "XOVER_DECIDE": "crossover", "XOVER_APPLY": "crossover",
    "MUT1_DECIDE": "mutation", "MUT1_APPLY": "mutation",
    "MUT2_PREP": "mutation", "MUT2_DECIDE": "mutation",
    "MUT2_APPLY": "mutation",
    "EVAL1": "eval", "EVAL2": "eval", "INITPOP_EVAL": "eval",
    "STORE1": "store", "STORE2": "store", "INITPOP_STORE": "store",
    "ELITE": "elitism",
}


class GACore(Component):
    """Cycle-accurate model of the GA IP core FSM.

    ``tracer`` (settable after construction, e.g. by
    :class:`~repro.core.system.GASystem`) arms the observability probes:
    one ``cycle.generation`` event per generation boundary and a
    ``cycle.phase_cycles`` event at ``GA_done`` attributing every clock
    cycle of the run to its GA phase.  With the default ``None`` the
    per-clock cost is a single attribute check.
    """

    #: Cycle-accurate population limit: two banks in the 256-word memory.
    MAX_POPULATION = BANK_SIZE

    def __init__(self, ports: GAPorts, rng_module=None, name: str = "ga_core"):
        super().__init__(name)
        self.ports = ports
        self.rng_module = rng_module
        self.tracer = None
        self._power_on()

    # ------------------------------------------------------------------
    def _power_on(self) -> None:
        self.state = "IDLE"
        self.after_fetch = "IDLE"
        self.rn_latch = 0
        # programmable parameter registers (Table III) + programmed flag
        self.param_words: dict[int, int] = {}
        self.programmed = False
        self.ack_high = False
        # resolved configuration for the current run
        self.cfg: GAParameters | None = None
        # architectural registers
        self.gen_index = 0
        self.pop_index = 0
        self.cur_bank = 0
        self.cur_sum = 0
        self.new_sum = 0
        self.new_count = 0
        self.best_ind = 0
        self.best_fit = 0
        self.cum_sum = 0
        self.scan_index = 0
        self.sel_threshold = 0
        self.parent1 = 0
        self.parent2 = 0
        self.off1 = 0
        self.off2 = 0
        self.fit_latch = 0
        self.req_active = False
        self.current_offspring = 0
        # instrumentation
        self.history: list[GenerationStats] = []
        self._gen_fitnesses: list[int] = []
        self.evaluations = 0
        self.start_cycle = 0
        self.done_cycle = 0
        self._phase_cycles: dict[str, int] = {}

    def reset(self) -> None:
        super().reset()
        self._power_on()
        p = self.ports
        for sig in (p.data_ack, p.fit_request, p.candidate, p.mem_address,
                    p.mem_data_out, p.mem_wr, p.GA_done, p.rn_taken, p.scanout):
            sig.reset()

    # ------------------------------------------------------------------
    # helpers (queue effects through the two-phase machinery)
    # ------------------------------------------------------------------
    def _goto(self, state: str) -> None:
        self.set_state(state=state)

    def _fetch_rn(self, then: str) -> None:
        """Enter the RNG fetch state; the word lands in ``rn_latch``."""
        self.set_state(state="FETCH_RN", after_fetch=then)

    def _resolve_parameters(self) -> GAParameters:
        preset = self.ports.preset.value
        if preset != PresetMode.USER:
            return PRESET_MODES[PresetMode(preset)]
        if not self.programmed:
            raise RuntimeError(
                "GA started in user mode (preset=00) without parameter "
                "initialization; program Table III parameters or select a preset"
            )
        cfg = GAParameters.from_index_values(self.param_words)
        check_cycle_population(cfg.population_size)
        return cfg

    def _record_generation(self) -> None:
        self.history.append(
            GenerationStats(
                generation=self.gen_index,
                best_fitness=self.best_fit,
                best_individual=self.best_ind,
                fitness_sum=self.new_sum if self.gen_index > 0 else self.cur_sum,
                population_size=self.cfg.population_size,
                fitnesses=list(self._gen_fitnesses),
            )
        )
        self._gen_fitnesses = []
        if self.tracer is not None and self.tracer.enabled:
            g = self.history[-1]
            self.tracer.event(
                "cycle.generation",
                generation=g.generation,
                best_fitness=g.best_fitness,
                best_individual=g.best_individual,
                fitness_sum=g.fitness_sum,
                cycle=self.cycles,
            )

    # ------------------------------------------------------------------
    # the FSM
    # ------------------------------------------------------------------
    #: States that assert the memory write strobe.
    _WRITE_STATES = frozenset({"INITPOP_STORE", "ELITE", "STORE1", "STORE2"})

    def clock(self) -> None:
        p = self.ports
        state = self.state

        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            phase = _STATE_PHASE.get(state, "control")
            self._phase_cycles[phase] = self._phase_cycles.get(phase, 0) + 1

        if state != "FETCH_RN":
            self.drive(p.rn_taken, 0)
        if state not in self._WRITE_STATES:
            self.drive(p.mem_wr, 0)

        handler = getattr(self, f"_state_{state}", None)
        if handler is None:
            # A corrupted FSM state vector (SEU on the one-hot register)
            # decodes to no active state: the core freezes until reset —
            # run_until's timeout is the system-level symptom.
            return
        handler()

    # -- idle / parameter initialization --------------------------------
    def _state_IDLE(self) -> None:
        p = self.ports
        if p.ga_load.value:
            self._handle_param_handshake()
            return
        if p.start_GA.value:
            self._begin_run()

    def _handle_param_handshake(self) -> None:
        """Table III handshake: latch value into the indexed register."""
        p = self.ports
        if p.data_valid.value and not self.ack_high:
            words = dict(self.param_words)
            words[p.index.value] = p.value.value
            self.set_state(param_words=words, programmed=True, ack_high=True)
            self.drive(p.data_ack, 1)
        elif not p.data_valid.value and self.ack_high:
            self.drive(p.data_ack, 0)
            self.set_state(ack_high=False)

    def _begin_run(self) -> None:
        p = self.ports
        cfg = self._resolve_parameters()
        self.set_state(
            cfg=cfg,
            gen_index=0,
            pop_index=0,
            cur_bank=0,
            cur_sum=0,
            new_sum=0,
            new_count=0,
            best_ind=0,
            best_fit=0,
            evaluations=0,
            start_cycle=self.cycles,
            # clear the previous run's latch so _state_DONE re-latches and
            # GAResult.cycles stays correct on a back-to-back restart
            done_cycle=0,
        )
        self.history = []
        self._gen_fitnesses = []
        self._phase_cycles = {}
        if self.rng_module is not None:
            seed = cfg.rng_seed
            self.rng_module.load_seed(seed)
        self.drive(p.GA_done, 0)
        self._fetch_rn("INITPOP_EVAL")

    # -- RNG fetch -------------------------------------------------------
    def _state_FETCH_RN(self) -> None:
        p = self.ports
        self.set_state(rn_latch=p.rn.value, state=self.after_fetch)
        self.drive(p.rn_taken, 1)

    # -- initial population ----------------------------------------------
    def _state_INITPOP_EVAL(self) -> None:
        done, fit = self._fitness_handshake(self.rn_latch)
        if done:
            self.set_state(fit_latch=fit, current_offspring=self.rn_latch)
            self._goto("INITPOP_STORE")

    def _state_INITPOP_STORE(self) -> None:
        p = self.ports
        ind, fit = self.current_offspring, self.fit_latch
        self.drive(p.mem_address, bank_address(self.cur_bank, self.pop_index))
        self.drive(p.mem_data_out, pack_word(ind, fit))
        self.drive(p.mem_wr, 1)
        self._gen_fitnesses.append(fit)
        updates = {
            "cur_sum": self.cur_sum + fit,
            "pop_index": self.pop_index + 1,
        }
        if fit > self.best_fit or self.pop_index == 0:
            updates.update(best_ind=ind, best_fit=fit)
        self.set_state(**updates)
        self.evaluations += 1
        if self.pop_index + 1 == self.cfg.population_size:
            self._goto("INITPOP_DONE")
        else:
            self._fetch_rn("INITPOP_EVAL")

    def _state_INITPOP_DONE(self) -> None:
        p = self.ports
        self.drive(p.mem_wr, 0)
        self._record_generation()
        self.drive(p.candidate, self.best_ind)
        if self.cfg.n_generations == 0:
            self._goto("DONE")
        else:
            self._goto("ELITE")

    # -- generation loop ---------------------------------------------------
    def _state_ELITE(self) -> None:
        """Copy the best individual into slot 0 of the new bank."""
        p = self.ports
        new_bank = 1 - self.cur_bank
        self.drive(p.mem_address, bank_address(new_bank, 0))
        self.drive(p.mem_data_out, pack_word(self.best_ind, self.best_fit))
        self.drive(p.mem_wr, 1)
        self._gen_fitnesses.append(self.best_fit)
        self.set_state(new_count=1, new_sum=self.best_fit)
        self._goto("SEL1_BEGIN")

    def _begin_selection(self, then_threshold_state: str) -> None:
        self.drive(self.ports.mem_wr, 0)
        self._fetch_rn(then_threshold_state)

    def _state_SEL1_BEGIN(self) -> None:
        self._begin_selection("SEL1_THRESHOLD")

    def _state_SEL1_THRESHOLD(self) -> None:
        self.set_state(
            sel_threshold=(self.rn_latch * self.cur_sum) >> 16,
            cum_sum=0,
            scan_index=0,
        )
        self._goto("SEL1_READ")

    def _state_SEL1_READ(self) -> None:
        self._selection_read()
        self._goto("SEL1_WAIT")

    def _state_SEL1_WAIT(self) -> None:
        self._goto("SEL1_SCAN")

    def _state_SEL1_SCAN(self) -> None:
        selected, ind = self._selection_scan()
        if selected:
            self.set_state(parent1=ind)
            self._goto("SEL2_BEGIN")
        else:
            self._goto("SEL1_READ")

    def _state_SEL2_BEGIN(self) -> None:
        self._begin_selection("SEL2_THRESHOLD")

    def _state_SEL2_THRESHOLD(self) -> None:
        self.set_state(
            sel_threshold=(self.rn_latch * self.cur_sum) >> 16,
            cum_sum=0,
            scan_index=0,
        )
        self._goto("SEL2_READ")

    def _state_SEL2_READ(self) -> None:
        self._selection_read()
        self._goto("SEL2_WAIT")

    def _state_SEL2_WAIT(self) -> None:
        self._goto("SEL2_SCAN")

    def _state_SEL2_SCAN(self) -> None:
        selected, ind = self._selection_scan()
        if selected:
            self.set_state(parent2=ind)
            self._fetch_rn("XOVER_DECIDE")
        else:
            self._goto("SEL2_READ")

    def _selection_read(self) -> None:
        self.drive(
            self.ports.mem_address, bank_address(self.cur_bank, self.scan_index)
        )

    def _selection_scan(self) -> tuple[bool, int]:
        """Proportionate selection: accumulate fitness from memory until the
        cumulative sum exceeds the threshold (Sec. III-B.2)."""
        cand, fit = unpack_word(self.ports.mem_data_in.value)
        cum = self.cum_sum + fit
        last = self.scan_index == self.cfg.population_size - 1
        if cum > self.sel_threshold or last:
            return True, cand
        self.set_state(cum_sum=cum, scan_index=self.scan_index + 1)
        return False, 0

    # -- crossover ---------------------------------------------------------
    def _state_XOVER_DECIDE(self) -> None:
        if (self.rn_latch & 0xF) < self.cfg.crossover_threshold:
            self._fetch_rn("XOVER_APPLY")
        else:
            self.set_state(off1=self.parent1, off2=self.parent2)
            self._fetch_rn("MUT1_DECIDE")

    def _state_XOVER_APPLY(self) -> None:
        cut = self.rn_latch & 0xF
        mask = (1 << cut) - 1
        inv = ~mask & 0xFFFF
        self.set_state(
            off1=(self.parent1 & mask) | (self.parent2 & inv),
            off2=(self.parent2 & mask) | (self.parent1 & inv),
        )
        self._fetch_rn("MUT1_DECIDE")

    # -- mutation + evaluation + store, offspring 1 then 2 -----------------
    def _state_MUT1_DECIDE(self) -> None:
        if (self.rn_latch & 0xF) < self.cfg.mutation_threshold:
            self._fetch_rn("MUT1_APPLY")
        else:
            self.set_state(current_offspring=self.off1)
            self._goto("EVAL1")

    def _state_MUT1_APPLY(self) -> None:
        point = self.rn_latch & 0xF
        self.set_state(current_offspring=self.off1 ^ (1 << point))
        self._goto("EVAL1")

    def _state_EVAL1(self) -> None:
        done, fit = self._fitness_handshake(self.current_offspring)
        if done:
            self.set_state(fit_latch=fit)
            self._goto("STORE1")

    def _state_STORE1(self) -> None:
        self._store_offspring(next_pair_state="MUT2_PREP")

    def _state_MUT2_PREP(self) -> None:
        self.drive(self.ports.mem_wr, 0)
        self._fetch_rn("MUT2_DECIDE")

    def _state_MUT2_DECIDE(self) -> None:
        if (self.rn_latch & 0xF) < self.cfg.mutation_threshold:
            self._fetch_rn("MUT2_APPLY")
        else:
            self.set_state(current_offspring=self.off2)
            self._goto("EVAL2")

    def _state_MUT2_APPLY(self) -> None:
        point = self.rn_latch & 0xF
        self.set_state(current_offspring=self.off2 ^ (1 << point))
        self._goto("EVAL2")

    def _state_EVAL2(self) -> None:
        done, fit = self._fitness_handshake(self.current_offspring)
        if done:
            self.set_state(fit_latch=fit)
            self._goto("STORE2")

    def _state_STORE2(self) -> None:
        self._store_offspring(next_pair_state="SEL1_BEGIN")

    def _store_offspring(self, next_pair_state: str) -> None:
        p = self.ports
        ind, fit = self.current_offspring, self.fit_latch
        new_bank = 1 - self.cur_bank
        self.drive(p.mem_address, bank_address(new_bank, self.new_count))
        self.drive(p.mem_data_out, pack_word(ind, fit))
        self.drive(p.mem_wr, 1)
        self._gen_fitnesses.append(fit)
        updates = {"new_sum": self.new_sum + fit, "new_count": self.new_count + 1}
        if fit > self.best_fit:
            updates.update(best_ind=ind, best_fit=fit)
        self.set_state(**updates)
        self.evaluations += 1
        if self.new_count + 1 == self.cfg.population_size:
            self._goto("GEN_END")
        else:
            self._goto(next_pair_state)

    def _state_GEN_END(self) -> None:
        p = self.ports
        self.drive(p.mem_wr, 0)
        self.set_state(
            gen_index=self.gen_index + 1,
            cur_bank=1 - self.cur_bank,
            cur_sum=self.new_sum,
            new_sum=0,
            new_count=0,
        )
        # Output the generation's best for emergency use (Sec. III-C.3c).
        self.drive(p.candidate, self.best_ind)
        self._goto("GEN_RECORD")

    def _state_GEN_RECORD(self) -> None:
        # Committed state now reflects the finished generation.
        self.history.append(
            GenerationStats(
                generation=self.gen_index,
                best_fitness=self.best_fit,
                best_individual=self.best_ind,
                fitness_sum=self.cur_sum,
                population_size=self.cfg.population_size,
                fitnesses=list(self._gen_fitnesses),
            )
        )
        self._gen_fitnesses = []
        if self.tracer is not None and self.tracer.enabled:
            g = self.history[-1]
            self.tracer.event(
                "cycle.generation",
                generation=g.generation,
                best_fitness=g.best_fitness,
                best_individual=g.best_individual,
                fitness_sum=g.fitness_sum,
                cycle=self.cycles,
            )
        if self.gen_index >= self.cfg.n_generations:
            self._goto("DONE")
        else:
            self._goto("ELITE")

    def _state_DONE(self) -> None:
        p = self.ports
        if self.done_cycle == 0:
            self.set_state(done_cycle=self.cycles)
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.event(
                    "cycle.phase_cycles",
                    cycles=dict(self._phase_cycles),
                    total=self.cycles - self.start_cycle,
                )
        if p.start_GA.value:
            self._begin_run()  # drives GA_done low for the new run
            return
        self.drive(p.candidate, self.best_ind)
        self.drive(p.GA_done, 1)
        if p.ga_load.value:
            self._goto("IDLE")

    # -- fitness handshake -------------------------------------------------
    def _fitness_handshake(self, candidate: int) -> tuple[bool, int]:
        """Drive one 4-phase fitness request; returns (finished, fitness)."""
        p = self.ports
        self.drive(p.candidate, candidate)
        if not self.req_active:
            if p.fit_valid.value == 0:
                self.drive(p.fit_request, 1)
                self.set_state(req_active=True)
            return False, 0
        if p.fit_valid.value:
            self.drive(p.fit_request, 0)
            self.set_state(req_active=False)
            return True, p.fit_value.value
        return False, 0
