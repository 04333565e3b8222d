"""The protection stack: SECDED memory, scrubbing, watchdog, checkpoints.

Two halves, matching :mod:`repro.resilience.seu`:

* :class:`ResilienceHarness` — the generation-boundary fault-and-defence
  pipeline for the behavioural engines.  Pass one as ``resilience=`` to
  :class:`~repro.core.behavioral.BehavioralGA` or
  :class:`~repro.core.batch.BatchBehavioralGA`; at every generation
  boundary it draws that boundary's upsets from its
  :class:`~repro.resilience.seu.SEUInjector`, applies them, and then runs
  whatever defences the :class:`ProtectionConfig` enables.  The harness is
  written once against ``(replica, member)`` arrays and adapted to both
  engines, so a batch of N replicas behaves bit-for-bit like N serial runs
  with the same campaign seed — the property the parity tests lock down.

* the cycle-accurate hardening components —
  :class:`SECDEDGAMemory` (block RAM storing 39-bit codewords, corrects on
  read), :class:`MemoryScrubber` (background read-correct-writeback walker),
  and :class:`FEMWatchdog` (handshake timeout -> bounded retry -> failover
  to a fallback slot of the 8-way :class:`~repro.fitness.mux.FitnessMux`) —
  wired into :class:`~repro.core.system.GASystem` via
  :class:`CycleResilienceOptions`.

Fault-model semantics (documented modelling choices):

* Upsets land at generation boundaries, after the generation's statistics
  are recorded; the fixed domain order is FEM handshake -> memory -> RNG
  state -> best register -> defences (scrub -> elite guard -> checkpoint).
* A *hang* (dropped response or dead FEM with no watchdog, or a dead FEM
  with no fallback slots left) is metric-level: the run's outcome is frozen
  at the hang generation — the paper's Sec. III-C.3c generation-best output
  is what the application last received — but the simulation itself keeps
  stepping so serial and batched replicas stay in lock-step.
* A transient FEM corruption is a *store-path* corruption: the bad value
  lands in memory but not in the best-register comparison (the comparator
  tapped the response before the upset).  No phantom champions from
  transients; corrupted champions come from best-register upsets.
* An RNG upset that would produce the all-zero CA state (the lockup fixed
  point, unreachable by normal operation) is masked — the cell array's
  feedback cannot latch it from a single flip.
* Rollback restores population, RNG state, and best register from the last
  checkpoint but *not* the lockstep generation counter: recovery costs the
  generations since the checkpoint (reported as ``generations_lost``), it
  does not rewind time.
* The elite guard validates *consistency*, not provenance: it re-evaluates
  the champion and repairs a corrupted fitness, and its monotonic shadow
  register catches champions whose re-evaluated fitness regressed; a
  best-individual flip that lands on a genuinely fitter individual passes —
  honest guard behaviour, visible in the campaign's SDC column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ga_memory import GAMemory, bank_address, unpack_word
from repro.core.ports import GAPorts
from repro.fitness.mux import MAX_SLOTS
from repro.hdl.component import Component
from repro.hdl.signal import Signal
from repro.resilience.secded import (
    CODEWORD_BITS,
    DATA_BITS,
    STATUS_CORRECTED,
    STATUS_DOUBLE,
    secded_encode,
    secded_extract,
    secded_scrub,
)
from repro.obs.metrics import get_registry
from repro.resilience.seu import FEM_DROP, SEUInjector, UpsetRates

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtectionConfig:
    """Which defences are armed (the campaign's second sweep axis).

    ``checkpoint_interval`` of 0 disables checkpointing; ``max_rollbacks``
    bounds recovery so a pathological upset rate cannot loop forever, and
    ``fem_fallback_slots`` is how many spare FEM slots the watchdog may
    fail over to (the 8-way mux offers at most 7 spares).
    """

    name: str = "unprotected"
    secded: bool = False
    watchdog: bool = False
    elite_guard: bool = False
    checkpoint_interval: int = 0
    max_rollbacks: int = 8
    fem_fallback_slots: int = MAX_SLOTS - 1

    @property
    def word_bits(self) -> int:
        """Stored bits per memory word — the SEU cross-section.  SECDED
        widens the word to 39 bits, honestly increasing exposure."""
        return CODEWORD_BITS if self.secded else DATA_BITS


# ---------------------------------------------------------------------------
# checkpoint codec
# ---------------------------------------------------------------------------
#
# The rollback checkpoint tuple — (generation, individuals, fitnesses,
# best_individual, best_fitness, rng_state) — is also the serialization
# format the serving layer spills resumable slab state in (ROADMAP's
# checkpoint/resume item), so the codec lives here rather than privately
# inside :class:`ResilienceHarness`.  The service generalizes it to batch
# slabs by encoding one checkpoint per job record; ``fitnesses`` may be
# ``None`` there (carried populations are re-evaluated on resume).

CHECKPOINT_VERSION = 1


def encode_checkpoint(
    generation: int,
    individuals,
    fitnesses,
    best_individual: int,
    best_fitness: int,
    rng_state,
) -> dict:
    """The checkpoint tuple as a plain JSON-ready dict.

    ``individuals``/``fitnesses`` may be numpy arrays, lists of Python
    ints, or ``None``; ``rng_state`` may be ``None`` for jobs that have
    not drawn yet.  Arrays convert in one ``tolist()`` call and lists are
    copied as they are, not element by element.
    """

    def as_list(arr):
        if arr is None:
            return None
        return arr.tolist() if isinstance(arr, np.ndarray) else list(arr)

    return {
        "version": CHECKPOINT_VERSION,
        "generation": int(generation),
        "individuals": as_list(individuals),
        "fitnesses": as_list(fitnesses),
        "best_individual": int(best_individual),
        "best_fitness": int(best_fitness),
        "rng_state": None if rng_state is None else int(rng_state),
    }


def decode_checkpoint(data: dict) -> tuple:
    """Invert :func:`encode_checkpoint` back to the harness tuple
    ``(generation, individuals, fitnesses, best_individual, best_fitness,
    rng_state)`` with int64 arrays (``None`` fields pass through)."""
    version = data.get("version", CHECKPOINT_VERSION)
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )

    def as_array(values):
        if values is None:
            return None
        return np.asarray(values, dtype=np.int64)

    return (
        int(data["generation"]),
        as_array(data["individuals"]),
        as_array(data["fitnesses"]),
        int(data["best_individual"]),
        int(data["best_fitness"]),
        None if data["rng_state"] is None else int(data["rng_state"]),
    )


UNPROTECTED = ProtectionConfig()
HARDENED = ProtectionConfig(
    name="hardened",
    secded=True,
    watchdog=True,
    elite_guard=True,
    checkpoint_interval=16,
)

#: Named configs for the CLI / campaign sweep axis.
PROTECTION_PRESETS: dict[str, ProtectionConfig] = {
    "unprotected": UNPROTECTED,
    "secded": ProtectionConfig(name="secded", secded=True),
    "watchdog": ProtectionConfig(name="watchdog", watchdog=True),
    "guard": ProtectionConfig(name="guard", elite_guard=True),
    "checkpoint": ProtectionConfig(
        name="checkpoint", secded=True, checkpoint_interval=16
    ),
    "hardened": HARDENED,
}


# ---------------------------------------------------------------------------
# behavioural harness
# ---------------------------------------------------------------------------


class ResilienceHarness:
    """Generation-boundary SEU pipeline for the behavioural engines.

    One harness serves one engine run: ``n_replicas`` must match the batch
    width (1 for :class:`BehavioralGA`).  ``replica_offset`` lets a serial
    engine impersonate batch replica ``r`` exactly — the injector streams
    are addressed by ``replica_offset + local_index``.
    """

    def __init__(
        self,
        config: ProtectionConfig,
        rates: UpsetRates,
        seed: int,
        n_replicas: int = 1,
        replica_offset: int = 0,
        tracer=None,
    ):
        self.config = config
        self.rates = rates
        #: optional :class:`~repro.obs.tracer.Tracer`: recovery events
        #: (``resilience.hang`` / ``.failover`` / ``.watchdog_retry`` /
        #: ``.rollback`` / ``.elite_repair`` / ``.shadow_restore`` /
        #: ``.secded``) fire only when a fault actually lands, so the
        #: fault-free path pays nothing.  Regardless of tracing, rare-fault
        #: sites bump the process-wide metrics registry
        #: (``resilience.seu_corrected`` / ``.seu_double`` /
        #: ``.fem_failovers`` / ``.rollbacks``).
        self.tracer = tracer
        self.injector = SEUInjector(rates, seed, n_replicas, replica_offset)
        n = n_replicas
        self.n_replicas = n
        self.hung = np.zeros(n, dtype=bool)
        self.hang_gen = np.full(n, -1, dtype=np.int64)
        self.best_at_hang = np.zeros(n, dtype=np.int64)
        self.fallback_left = np.full(n, config.fem_fallback_slots, dtype=np.int64)
        self.rollbacks = np.zeros(n, dtype=np.int64)
        self.generations_lost = np.zeros(n, dtype=np.int64)
        self.corrected = np.zeros(n, dtype=np.int64)
        self.detected_double = np.zeros(n, dtype=np.int64)
        self.accepted_uncorrectable = np.zeros(n, dtype=np.int64)
        self.elite_repairs = np.zeros(n, dtype=np.int64)
        self.shadow_restores = np.zeros(n, dtype=np.int64)
        self.watchdog_retries = np.zeros(n, dtype=np.int64)
        self.failovers = np.zeros(n, dtype=np.int64)
        self._shadow_ind = np.zeros(n, dtype=np.int64)
        self._shadow_fit = np.full(n, -1, dtype=np.int64)
        self._checkpoints: list[tuple | None] = [None] * n

    # -- engine adapters ------------------------------------------------
    def serial_boundary(self, engine, gen, inds, fits, best_ind, best_fit):
        """Hook for :class:`BehavioralGA`; arrays are 1-D, best is scalar."""
        rng = engine.rng

        def rng_get(_r: int) -> int:
            return int(rng.state)

        def rng_set(_r: int, state: int) -> None:
            rng.state = state

        bi = np.array([best_ind], dtype=np.int64)
        bf = np.array([best_fit], dtype=np.int64)
        self._boundary(
            gen,
            len(inds),
            inds[None, :],
            fits[None, :],
            bi,
            bf,
            rng_get,
            rng_set,
            lambda b: engine.table[b].astype(np.int64),
        )
        return inds, fits, int(bi[0]), int(bf[0])

    def batch_boundary(self, engine, gen, inds, fits, best_ind, best_fit, cur):
        """Hook for :class:`BatchBehavioralGA`; arrays are ``(n, pop)``,
        ``cur`` is the per-replica orbit-position vector (mutated in place
        on RNG upsets and checkpoint rollback)."""
        from repro.rng.cellular_automaton import orbit_tables

        bank = engine.bank
        orbit, position = orbit_tables(bank.rule_vector, bank.width)

        def rng_get(r: int) -> int:
            return int(orbit[cur[r]])

        def rng_set(r: int, state: int) -> None:
            cur[r] = int(position[state])

        self._boundary(
            gen,
            engine.pop,
            inds,
            fits,
            best_ind,
            best_fit,
            rng_get,
            rng_set,
            engine._eval,
        )
        return inds, fits, best_ind, best_fit, cur

    # -- the pipeline ----------------------------------------------------
    def _boundary(
        self, gen, pop, inds, fits, best_ind, best_fit, rng_get, rng_set, eval_many
    ):
        cfg = self.config
        word_bits = cfg.word_bits
        n_evals = pop if gen == 0 else pop - 1
        col_base = 0 if gen == 0 else 1  # offspring columns start at 1
        rolled = np.zeros(self.n_replicas, dtype=bool)
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled

        for r in range(self.n_replicas):
            if self.hung[r]:
                continue
            u = self.injector.draw(r, pop, word_bits, n_evals)
            if u.empty:
                continue

            # -- FEM handshake faults --
            hang = False
            if u.fem_stuck:
                if cfg.watchdog and self.fallback_left[r] > 0:
                    self.fallback_left[r] -= 1
                    self.failovers[r] += 1
                    get_registry().counter("resilience.fem_failovers").inc()
                    if tracing:
                        tracer.event(
                            "resilience.failover",
                            replica=r,
                            generation=gen,
                            fallback_left=int(self.fallback_left[r]),
                        )
                else:
                    hang = True
            if not hang:
                for slot, kind, bit in u.fem_faults:
                    if kind == FEM_DROP:
                        if cfg.watchdog:
                            self.watchdog_retries[r] += 1
                            if tracing:
                                tracer.event(
                                    "resilience.watchdog_retry",
                                    replica=r,
                                    generation=gen,
                                )
                        else:
                            hang = True
                            break
                    else:
                        fits[r, col_base + slot] ^= np.int64(1) << bit
            if hang:
                self.hung[r] = True
                self.hang_gen[r] = gen
                self.best_at_hang[r] = best_fit[r]
                if tracing:
                    tracer.event(
                        "resilience.hang",
                        replica=r,
                        generation=gen,
                        best_at_hang=int(best_fit[r]),
                    )
                continue

            # -- memory upsets (through SECDED when armed) --
            if len(u.mem_slots):
                if cfg.secded:
                    rolled[r] = self._secded_memory_upsets(
                        r, gen, u, inds, fits, best_ind, best_fit, rng_set
                    )
                    if rolled[r]:
                        continue  # recovery consumes the boundary
                else:
                    packed = ((fits[r] & 0xFFFF) << 16) | (inds[r] & 0xFFFF)
                    np.bitwise_xor.at(
                        packed, u.mem_slots, np.int64(1) << u.mem_bits
                    )
                    inds[r] = packed & 0xFFFF
                    fits[r] = (packed >> 16) & 0xFFFF

            # -- RNG state upsets --
            for bit in u.rng_bits:
                state = rng_get(r) ^ (1 << int(bit))
                if state != 0:  # the all-zero lockup state is masked
                    rng_set(r, state)

            # -- best-register upsets --
            if len(u.best_bits):
                reg = ((int(best_fit[r]) & 0xFFFF) << 16) | (
                    int(best_ind[r]) & 0xFFFF
                )
                for bit in u.best_bits:
                    reg ^= 1 << int(bit)
                best_ind[r] = reg & 0xFFFF
                best_fit[r] = (reg >> 16) & 0xFFFF

        # -- elite re-evaluation guard + monotonic shadow register --
        if cfg.elite_guard:
            active = ~self.hung & ~rolled
            true_fit = np.asarray(eval_many(best_ind), dtype=np.int64)
            mismatch = active & (true_fit != best_fit)
            self.elite_repairs += mismatch
            best_fit[mismatch] = true_fit[mismatch]
            worse = active & (best_fit < self._shadow_fit)
            self.shadow_restores += worse
            best_ind[worse] = self._shadow_ind[worse]
            best_fit[worse] = self._shadow_fit[worse]
            update = active & ~worse
            self._shadow_ind[update] = best_ind[update]
            self._shadow_fit[update] = best_fit[update]
            if tracing:
                for r in np.flatnonzero(mismatch):
                    tracer.event(
                        "resilience.elite_repair",
                        replica=int(r),
                        generation=gen,
                        repaired_fitness=int(best_fit[r]),
                    )
                for r in np.flatnonzero(worse):
                    tracer.event(
                        "resilience.shadow_restore",
                        replica=int(r),
                        generation=gen,
                        restored_fitness=int(best_fit[r]),
                    )

        # -- checkpoint capture --
        if cfg.checkpoint_interval and gen % cfg.checkpoint_interval == 0:
            for r in range(self.n_replicas):
                if not self.hung[r] and not rolled[r]:
                    self._checkpoints[r] = (
                        gen,
                        inds[r].copy(),
                        fits[r].copy(),
                        int(best_ind[r]),
                        int(best_fit[r]),
                        rng_get(r),
                    )

    def _secded_memory_upsets(
        self, r, gen, u, inds, fits, best_ind, best_fit, rng_set
    ) -> bool:
        """Apply one replica's memory upsets through the SECDED codec.

        Returns True when a detected-uncorrectable word triggered a
        checkpoint rollback (the caller then skips the rest of the
        boundary for this replica).
        """
        cfg = self.config
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        slots = np.unique(u.mem_slots)
        words = ((fits[r, slots] & 0xFFFF) << 16) | (inds[r, slots] & 0xFFFF)
        codes = secded_encode(words)
        np.bitwise_xor.at(
            codes, np.searchsorted(slots, u.mem_slots), np.int64(1) << u.mem_bits
        )
        _fixed, data, status = secded_scrub(codes)
        n_corrected = int((status == STATUS_CORRECTED).sum())
        self.corrected[r] += n_corrected
        n_double = int((status == STATUS_DOUBLE).sum())
        if n_corrected:
            get_registry().counter("resilience.seu_corrected").inc(n_corrected)
        if tracing and (n_corrected or n_double):
            tracer.event(
                "resilience.secded",
                replica=r,
                generation=gen,
                corrected=n_corrected,
                double=n_double,
            )
        if n_double:
            get_registry().counter("resilience.seu_double").inc(n_double)
            self.detected_double[r] += n_double
            checkpoint = self._checkpoints[r]
            if (
                cfg.checkpoint_interval
                and checkpoint is not None
                and self.rollbacks[r] < cfg.max_rollbacks
            ):
                ck_gen, ck_inds, ck_fits, ck_bi, ck_bf, ck_rng = checkpoint
                inds[r] = ck_inds
                fits[r] = ck_fits
                best_ind[r] = ck_bi
                best_fit[r] = ck_bf
                self._shadow_ind[r] = ck_bi
                self._shadow_fit[r] = ck_bf
                rng_set(r, ck_rng)
                self.rollbacks[r] += 1
                self.generations_lost[r] += gen - ck_gen
                get_registry().counter("resilience.rollbacks").inc()
                if tracing:
                    tracer.event(
                        "resilience.rollback",
                        replica=r,
                        generation=gen,
                        checkpoint_generation=ck_gen,
                        generations_lost=gen - ck_gen,
                    )
                return True
            self.accepted_uncorrectable[r] += n_double
        inds[r, slots] = data & 0xFFFF
        fits[r, slots] = (data >> 16) & 0xFFFF
        return False

    # -- checkpoint persistence ------------------------------------------
    def export_checkpoints(self) -> list[dict | None]:
        """Every replica's last checkpoint through the module codec
        (``None`` where no checkpoint was captured yet) — the persistable
        form the serving layer's spill store also uses."""
        return [
            None if ck is None else encode_checkpoint(*ck)
            for ck in self._checkpoints
        ]

    def restore_checkpoints(self, encoded: list[dict | None]) -> None:
        """Reload checkpoints exported by :meth:`export_checkpoints`."""
        if len(encoded) != self.n_replicas:
            raise ValueError(
                f"expected {self.n_replicas} checkpoints, got {len(encoded)}"
            )
        self._checkpoints = [
            None if data is None else decode_checkpoint(data)
            for data in encoded
        ]

    # -- reporting -------------------------------------------------------
    def outcomes(self, results) -> list[dict]:
        """Per-replica outcome dicts, combining harness state with the
        engine's :class:`GAResult` list (``best_at_hang`` replaces the
        engine's best for hung replicas — the application never saw more)."""
        out = []
        for r in range(self.n_replicas):
            hung = bool(self.hung[r])
            out.append(
                {
                    "completed": not hung,
                    "hang_gen": int(self.hang_gen[r]) if hung else None,
                    "final_best": int(self.best_at_hang[r])
                    if hung
                    else int(results[r].best_fitness),
                    "corrected": int(self.corrected[r]),
                    "detected_double": int(self.detected_double[r]),
                    "accepted_uncorrectable": int(self.accepted_uncorrectable[r]),
                    "rollbacks": int(self.rollbacks[r]),
                    "generations_lost": int(self.generations_lost[r]),
                    "elite_repairs": int(self.elite_repairs[r]),
                    "shadow_restores": int(self.shadow_restores[r]),
                    "watchdog_retries": int(self.watchdog_retries[r]),
                    "failovers": int(self.failovers[r]),
                }
            )
        return out


# ---------------------------------------------------------------------------
# cycle-accurate hardening components
# ---------------------------------------------------------------------------

class SECDEDGAMemory(GAMemory):
    """GA memory whose backing array holds 39-bit SECDED codewords.

    The GA core is oblivious: writes are encoded on the way in, reads are
    decoded — with single-bit correction — on the way out.  Read-path
    correction does not write back (that is the scrubber's job), exactly
    like a block-RAM ECC wrapper.  ``corrected``/``double_errors`` count
    read-path events for the campaign report.
    """

    def __init__(self, ports: GAPorts, name: str = "ga_memory_secded"):
        super().__init__(ports, name)
        self.corrected = 0
        self.double_errors = 0

    @property
    def width(self) -> int:
        # resource accounting sees the real stored word, parity included
        return CODEWORD_BITS

    def clock(self) -> None:
        addr = self.addr.value % self.depth
        if self.wr.value:
            word = self.din.value
            self._pending_write = (addr, int(secded_encode(word)))
            self.drive(self.dout, word)
        else:
            self._pending_write = None
            _fixed, data, status = secded_scrub(self.data[addr])
            if status == STATUS_CORRECTED:
                self.corrected += 1
            elif status == STATUS_DOUBLE:
                self.double_errors += 1
            self.drive(self.dout, data)

    def population(self, bank: int, size: int) -> list[tuple[int, int]]:
        base = bank_address(bank, 0)
        return [
            unpack_word(int(secded_extract(self.data[base + i])))
            for i in range(size)
        ]

    def reset(self) -> None:
        super().reset()
        self.corrected = 0
        self.double_errors = 0


class MemoryScrubber(Component):
    """Background SECDED scrubber walking one word per enabled cycle.

    Models the ECC scrub engine of radiation-tolerant block-RAM wrappers:
    it reads a word through a backdoor port (the data array), corrects a
    single-bit error in place, and flags uncorrectable words.  ``interval``
    slows the walk (one word every ``interval`` of this component's clock
    edges) to model a low-priority scrub port.
    """

    def __init__(self, memory: SECDEDGAMemory, interval: int = 1, name: str = "scrubber"):
        super().__init__(name)
        if interval < 1:
            raise ValueError("scrub interval must be >= 1")
        self.memory = memory
        self.interval = interval
        self.scan_addr = 0
        self.countdown = interval
        self.words_scrubbed = 0
        self.corrected = 0
        self.uncorrectable = 0

    def clock(self) -> None:
        self.countdown -= 1
        if self.countdown > 0:
            return
        self.countdown = self.interval
        addr = self.scan_addr
        fixed, _data, status = secded_scrub(self.memory.data[addr])
        if status == STATUS_CORRECTED:
            self.memory.data[addr] = int(fixed)
            self.corrected += 1
        elif status == STATUS_DOUBLE:
            self.uncorrectable += 1
        self.words_scrubbed += 1
        self.scan_addr = (addr + 1) % self.memory.depth

    def reset(self) -> None:
        super().reset()
        self.scan_addr = 0
        self.countdown = self.interval
        self.words_scrubbed = 0
        self.corrected = 0
        self.uncorrectable = 0


class FEMWatchdog(Component):
    """Handshake watchdog: timeout -> bounded retry -> mux failover.

    Watches ``fit_request``/``fit_valid`` on the GA side of the mux.  A
    request outstanding for ``timeout`` cycles is a timeout; the watchdog
    retries (keeps the latency-insensitive request asserted while
    restarting its timer, with the timeout doubled each retry as backoff)
    up to ``max_retries`` times, then fails over: it repoints
    ``fitfunc_select`` at the next slot of ``fallback_order``.  A response
    from a revived FEM at any point clears the timer.
    """

    def __init__(
        self,
        fit_request: Signal,
        fit_valid: Signal,
        select: Signal,
        fallback_order: list[int],
        timeout: int = 64,
        max_retries: int = 2,
        name: str = "fem_watchdog",
    ):
        super().__init__(name)
        self.fit_request = fit_request
        self.fit_valid = fit_valid
        self.select = select
        self.fallback_order = list(fallback_order)
        self.timeout = timeout
        self.max_retries = max_retries
        self.waited = 0
        self.retries = 0
        self.timeouts = 0
        self.failovers = 0
        self._fallback_cursor = 0

    def clock(self) -> None:
        if not self.fit_request.value or self.fit_valid.value:
            self.waited = 0
            self.retries = 0
            return
        self.waited += 1
        # exponential backoff: each retry doubles the allowance
        if self.waited < self.timeout << self.retries:
            return
        self.timeouts += 1
        self.waited = 0
        if self.retries < self.max_retries:
            self.retries += 1
            return
        self.retries = 0
        if self._fallback_cursor < len(self.fallback_order):
            slot = self.fallback_order[self._fallback_cursor]
            self._fallback_cursor += 1
            self.failovers += 1
            self.select.poke(slot)

    def reset(self) -> None:
        super().reset()
        self.waited = 0
        self.retries = 0
        self.timeouts = 0
        self.failovers = 0
        self._fallback_cursor = 0


@dataclass
class CycleResilienceOptions:
    """Hardening/injection bundle for :class:`~repro.core.system.GASystem`.

    ``injector`` is an optional
    :class:`~repro.resilience.seu.CycleSEUInjector`; ``secded`` swaps the
    GA memory for :class:`SECDEDGAMemory`; ``scrub_interval`` > 0 adds a
    :class:`MemoryScrubber` (requires ``secded``); ``watchdog`` adds a
    :class:`FEMWatchdog` failing over through ``fallback_order`` (defaults
    to every configured FEM slot above the initial selection).
    """

    injector: object | None = None
    secded: bool = False
    scrub_interval: int = 0
    watchdog: bool = False
    watchdog_timeout: int = 64
    watchdog_retries: int = 2
    fallback_order: list[int] | None = None
