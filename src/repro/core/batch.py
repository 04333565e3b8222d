"""Batched behavioural GA engine — N independent replicas as 2-D arrays.

The paper's evaluation is sweep-shaped: Tables V and VII–IX are grids of
24–72 *independent* GA runs over seed × population × crossover settings.
:class:`BehavioralGA` vectorises the member axis of one run;
:class:`BatchBehavioralGA` vectorises the replica axis too, evolving N
populations simultaneously as ``(replica, member)`` arrays.  This is the
software rendition of the fine-grained-parallelism argument the paper makes
for hardware GAs (Sec. I) and the multi-core fabric of Sec. II-B: every
per-generation operator becomes one numpy pass over all replicas.

The engine is **bit-identical, draw for draw**, to running N separate
:class:`BehavioralGA` instances (property-tested in
``tests/core/test_batch.py``).  Each replica owns an independent CA-PRNG
stream addressed by orbit position (see
:class:`repro.rng.cellular_automaton.CAStreamBank`); the core trick is that
the *consumption pattern* of the stream — which words feed selection, which
feed the crossover/mutation decisions, and whether the data-dependent
crossover-point/mutation-point words are consumed at all — depends only on
the stream itself and the two threshold parameters, never on the population
or its fitness.  That lets the engine precompute, for every one of the
65,535 orbit positions, the complete outcome of one offspring-pair "slot":

* the two raw selection words,
* the effective crossover mask (0 when the crossover decision fails),
* the mutation XOR bits for both offspring (0 when mutation fails),
* the successor orbit position and the number of words consumed.

Because each slot starts where the previous slot's stream left off, the
start position of slot ``k`` is ``NEXT`` applied ``k`` times to the
generation's start position.  Per threshold class the engine keeps
pointer-jumping tables ``J[j] = NEXT^(2^j)`` and fills every
``(replica, slot)`` start position by doubling — ``ceil(log2(slots))``
gathers, 7 for a population of 256 — then gathers every slot's table row
at once.  Selection reads only the previous generation's fitness, so all
``2 x slots`` parent picks are one flattened ``searchsorted`` and the
offspring land in the new population by strided assignment: one array
pass per operator per generation, with no per-slot Python iteration, and
still the serial engine's words in the serial engine's order.

Replicas in one batch must share ``n_generations`` and ``population_size``
(the array shape); seeds, thresholds, and even the fitness function may
differ per replica.  :func:`run_batched` is the sweep-facing convenience:
it groups arbitrary (params, fitness) jobs by shape, runs one batch per
group, and returns results in input order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.core.params import GAParameters
from repro.core.stats import GenerationStats
from repro.core.validate import validate_initial_population
from repro.fitness.base import FitnessFunction
from repro.obs.metrics import record_engine_run
from repro.rng.cellular_automaton import (
    DEFAULT_RULE_VECTOR,
    CAStreamBank,
    orbit_tables,
)

#: Row offset separating replica segments in the flattened cumulative-sum
#: array used for batched selection; must exceed any per-replica fitness
#: total (max is 256 members * 0xFFFF < 2**24).
_ROW_STRIDE = np.int64(1) << 32

# Columns of the per-position slot-outcome table (see _slot_table).
_W1, _W2 = 0, 1  # raw selection words (offsets 0 and 1)
_XMASK = 2  # crossover combine mask: inv(cut) when crossing, else 0
_M1BIT, _M2BIT = 3, 4  # mutation XOR bit per offspring, 0 when not mutating
_NEXT, _CONSUMED = 5, 6  # successor position / words consumed (full pair)
_NEXT1, _CONSUMED1 = 7, 8  # same for a single-offspring tail slot
_COLS = 9

#: Byte bound of the per-class table cache: 32 threshold classes at full
#: depth (a population-256 slab needs 7 jump tables), i.e. one class per
#: job of a ``max_batch=32`` serving slab.  Live engines keep their own
#: references, so eviction never invalidates a running batch.
TABLE_CACHE_BYTES = 32 * 65535 * 4 * (_COLS + 7)

_TABLE_CACHE: OrderedDict[tuple, "ClassTables"] = OrderedDict()
_TABLE_CACHE_LOCK = threading.Lock()


def _slot_table(
    crossover_threshold: int,
    mutation_threshold: int,
    rule_vector: int = DEFAULT_RULE_VECTOR,
    width: int = 16,
    spacing: int = 1,
) -> np.ndarray:
    """Per-orbit-position outcome of one offspring slot, as a ``(size, 9)``
    int32 table.

    A slot starting with the stream at orbit position ``p`` consumes, in
    the serial engine's order: two selection words, the crossover-decision
    word, the crossover-point word (only when the decision fires), then per
    offspring a mutation-decision word and a mutation-point word (only when
    that decision fires).  All of it is a pure function of ``p`` and the two
    thresholds, so it is precomputed here for every position at once.
    Every column fits int32: positions are below 65,535, words and masks
    are 16-bit, counts are below 8.
    """
    orbit, _position = orbit_tables(rule_vector, width)
    size = orbit.shape[0]
    s = spacing % size
    pos = np.arange(size, dtype=np.int64)
    # a slot reads at most 8 words, so index p + k * s never passes
    # size + 8 * s: extend the orbit (and its positions) cyclically
    # instead of reducing every read modulo size
    word = np.resize(orbit.astype(np.int64), size + 8 * s)
    wrap = np.resize(pos, size + 8 * s)
    dec = word & 0xF  # the 4-bit decision field of each word

    table = np.empty((size, _COLS), dtype=np.int32)
    table[:, _W1] = word[:size]
    table[:, _W2] = word[pos + s]

    do_x = dec[pos + 2 * s] < crossover_threshold
    cut = dec[pos + 3 * s]  # read speculatively, masked below
    inv = (0xFFFF << cut) & 0xFFFF  # ~((1 << cut) - 1) in 16 bits
    table[:, _XMASK] = np.where(do_x, inv, 0)

    m1 = pos + (3 + do_x) * s
    do_m1 = dec[m1] < mutation_threshold
    point1 = dec[m1 + s]
    table[:, _M1BIT] = np.where(do_m1, np.int64(1) << point1, 0)
    table[:, _NEXT1] = wrap[m1 + (1 + do_m1) * s]
    table[:, _CONSUMED1] = 4 + do_x + do_m1

    m2 = m1 + (1 + do_m1) * s
    do_m2 = dec[m2] < mutation_threshold
    point2 = dec[m2 + s]
    table[:, _M2BIT] = np.where(do_m2, np.int64(1) << point2, 0)
    table[:, _NEXT] = wrap[m2 + (1 + do_m2) * s]
    table[:, _CONSUMED] = 5 + do_x + do_m1 + do_m2
    return table


class ClassTables:
    """The slot table and pointer-jumping tables of one threshold class.

    ``jumps[j]`` maps an orbit position to the start of the slot ``2**j``
    slots later (``jumps[0]`` is the ``NEXT`` column); a batch with
    ``slots`` offspring slots per generation needs
    ``(slots - 1).bit_length()`` of them.  Immutable once built: a deeper
    request builds a new instance that shares the shallower arrays.
    """

    __slots__ = ("slots", "jumps")

    def __init__(self, slots: np.ndarray, jumps: tuple[np.ndarray, ...]):
        self.slots = slots
        self.jumps = jumps

    @property
    def nbytes(self) -> int:
        return self.slots.nbytes + sum(j.nbytes for j in self.jumps)

    def deepened(self, levels: int) -> "ClassTables":
        jumps = list(self.jumps) or [np.ascontiguousarray(self.slots[:, _NEXT])]
        while len(jumps) < levels:
            jumps.append(jumps[-1][jumps[-1]])
        return ClassTables(self.slots, tuple(jumps))


def class_tables(
    crossover_threshold: int,
    mutation_threshold: int,
    levels: int,
    rule_vector: int = DEFAULT_RULE_VECTOR,
    width: int = 16,
    spacing: int = 1,
) -> ClassTables:
    """The cached tables of one threshold class, at least ``levels`` jump
    tables deep.

    One entry per class, least recently used evicted first once the cache
    holds more than :data:`TABLE_CACHE_BYTES` — so a process's table
    memory is bounded by the request mix it is serving now, not by every
    class set it has ever seen.
    """
    key = (crossover_threshold, mutation_threshold, rule_vector, width, spacing)
    with _TABLE_CACHE_LOCK:
        tables = _TABLE_CACHE.get(key)
    # build outside the lock: concurrent engines (thread-mode workers) do
    # not queue behind one another's table builds
    if tables is None:
        tables = ClassTables(
            _slot_table(
                crossover_threshold, mutation_threshold, rule_vector,
                width, spacing,
            ),
            (),
        )
    if len(tables.jumps) < levels:
        tables = tables.deepened(levels)
    with _TABLE_CACHE_LOCK:
        _TABLE_CACHE[key] = tables
        _TABLE_CACHE.move_to_end(key)
        while len(_TABLE_CACHE) > 1 and _cached_bytes() > TABLE_CACHE_BYTES:
            _TABLE_CACHE.popitem(last=False)
    return tables


def _cached_bytes() -> int:
    return sum(t.nbytes for t in _TABLE_CACHE.values())


def table_cache_bytes() -> int:
    """Bytes currently held by the per-class table cache."""
    with _TABLE_CACHE_LOCK:
        return _cached_bytes()


class BatchBehavioralGA:
    """N replicas of the behavioural GA evolved in lock-step numpy arrays.

    Parameters
    ----------
    params_list:
        One :class:`GAParameters` per replica.  All replicas must agree on
        ``n_generations`` and ``population_size``; seeds and thresholds are
        free per replica.
    fitness:
        A single :class:`FitnessFunction` shared by every replica, or one
        per replica (mixed-function batches, e.g. Table V).
    record_members:
        Keep every member's fitness per generation in the history (needed
        for the Figs. 8-12 scatter data); off by default for sweeps.
    rng_states:
        Optional per-replica CA states to resume the streams from (a
        service slab resuming suspended jobs); defaults to each replica's
        ``params.rng_seed``.
    resilience:
        Optional :class:`~repro.resilience.harden.ResilienceHarness` with
        ``n_replicas`` matching the batch width.  Its ``batch_boundary``
        hook runs after every generation is recorded, injecting that
        boundary's upsets per replica and applying the armed protections;
        replica ``r`` behaves bit-identically to a serial
        :class:`BehavioralGA` run carrying the same harness at
        ``replica_offset=r``.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  When enabled, every
        generation boundary emits one ``ga.generation`` event whose
        ``best_fitness``/``fitness_sum`` attrs are per-replica lists, and
        one ``ga.phases`` event with the slab-wide wall time per phase.
        Tracing only adds timestamps between the generation's array
        passes, so results are bit-identical either way.
    record_history:
        Keep per-generation :class:`GenerationStats` rows (default on).
    """

    def __init__(
        self,
        params_list: Sequence[GAParameters],
        fitness: FitnessFunction | Sequence[FitnessFunction],
        record_members: bool = False,
        rng_states: Sequence[int] | None = None,
        resilience=None,
        tracer=None,
        record_history: bool = True,
    ):
        self.tracer = tracer
        self.params_list = list(params_list)
        n = len(self.params_list)
        if n == 0:
            raise ValueError("batch needs at least one replica")
        first = self.params_list[0]
        for p in self.params_list[1:]:
            if (
                p.n_generations != first.n_generations
                or p.population_size != first.population_size
            ):
                raise ValueError(
                    "all replicas in a batch must share n_generations and "
                    "population_size (group jobs with run_batched instead)"
                )
        self.n_replicas = n
        self.n_generations = first.n_generations
        self.pop = first.population_size
        self.record_members = record_members
        #: When off, per-generation :class:`GenerationStats` rows are not
        #: accumulated — the archipelago engine runs thousands of replicas
        #: and cannot afford O(replicas x generations) Python objects; the
        #: evolution itself (and any armed tracer's events) is unchanged.
        self.record_history = record_history
        self.resilience = resilience

        if isinstance(fitness, FitnessFunction):
            self.fitnesses: list[FitnessFunction] = [fitness] * n
        else:
            self.fitnesses = list(fitness)
            if len(self.fitnesses) != n:
                raise ValueError(
                    f"got {len(self.fitnesses)} fitness functions for {n} replicas"
                )
        distinct = {fn.name: fn for fn in self.fitnesses}
        if len(distinct) == 1:
            self._table = self.fitnesses[0].table().astype(np.int64)
        else:
            self._table = None
            # one table per distinct fitness, flattened so a lookup is a
            # single gather at the replica's table offset
            names = list(distinct)
            stacked = np.stack(
                [fn.table().astype(np.int64) for fn in distinct.values()]
            )
            self._tables_flat = stacked.ravel()
            self._fit_base = stacked.shape[1] * np.array(
                [names.index(fn.name) for fn in self.fitnesses], dtype=np.int64
            )

        seeds = (
            list(rng_states)
            if rng_states is not None
            else [p.rng_seed for p in self.params_list]
        )
        self.bank = CAStreamBank(seeds)

        # a generation is n_slots offspring slots: n_pairs full pairs plus
        # a single-offspring tail slot when pop - 1 is odd
        self._n_pairs = (self.pop - 1) // 2
        self._n_slots = self.pop // 2
        self._rows = np.arange(n, dtype=np.int64)
        self._row_offsets = (self._rows * _ROW_STRIDE)[:, None]
        # flat index of each replica's last member, for the hardware's
        # "last member as fallback" clamp, once per parent pick
        self._sel_cap = np.tile(
            np.repeat(self._rows * self.pop, 2), self._n_slots
        ) + (self.pop - 1)
        # slot and jump tables per distinct threshold class, with the
        # replica rows each class serves
        self._levels = levels = (self._n_slots - 1).bit_length()
        pairs = [
            (p.crossover_threshold, p.mutation_threshold)
            for p in self.params_list
        ]
        classes = list(dict.fromkeys(pairs))
        class_of = np.array([classes.index(pair) for pair in pairs])
        self._classes = [
            (
                np.nonzero(class_of == c)[0],
                class_tables(
                    xt, mt, levels, self.bank.rule_vector, self.bank.width,
                    self.bank.spacing,
                ),
            )
            for c, (xt, mt) in enumerate(classes)
        ]

        self.histories: list[list[GenerationStats]] = [[] for _ in range(n)]
        self.evaluations = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------
    def _eval(self, inds: np.ndarray) -> np.ndarray:
        """Fitness lookup — shared table or per-replica flattened tables."""
        if self._table is not None:
            return self._table[inds]
        if inds.ndim == 1:
            return self._tables_flat[self._fit_base + inds]
        return self._tables_flat[self._fit_base[:, None] + inds]

    def _record(
        self,
        generation: int,
        fits: np.ndarray,
        best_fit: np.ndarray,
        best_ind: np.ndarray,
        sums: np.ndarray,
    ) -> None:
        tracing = self.tracer is not None and self.tracer.enabled
        if not self.record_history and not tracing:
            return
        # tolist() batches the numpy-scalar -> int conversions; the loop
        # below is on the per-generation path
        bf, bi = best_fit.tolist(), best_ind.tolist()
        sm = sums.tolist()
        if self.record_history:
            members = fits.tolist() if self.record_members else None
            pop = self.pop
            for r in range(self.n_replicas):
                self.histories[r].append(
                    GenerationStats(
                        generation=generation,
                        best_fitness=bf[r],
                        best_individual=bi[r],
                        fitness_sum=sm[r],
                        population_size=pop,
                        fitnesses=members[r] if members is not None else [],
                    )
                )
        if tracing:
            self.tracer.event(
                "ga.generation",
                generation=generation,
                best_fitness=bf,
                best_individual=bi,
                fitness_sum=sm,
            )

    def _validate_initial(self, initial: np.ndarray) -> np.ndarray:
        """Check a caller-supplied initial population up front.

        The generation loop assumes 16-bit non-negative integers in an
        ``(n_replicas, population_size)`` layout; anything else used to
        surface as a baffling failure (or silent masking) deep inside the
        loop, so the contract is enforced up front with named errors —
        the same errors, via the same shared helper, that the serial
        engine raises (``tests/core/test_validate.py``).
        """
        return validate_initial_population(initial, (self.n_replicas, self.pop))

    # ------------------------------------------------------------------
    # resumable stepping API: begin / step / finalize.  run() is the
    # one-shot composition; the serving layer steps slabs one admission
    # interval at a time so late-arriving jobs can join at generation
    # boundaries (continuous batching).
    # ------------------------------------------------------------------
    def begin(self, initial: np.ndarray | None = None) -> "BatchBehavioralGA":
        """Initialise (or re-initialise) a run without evolving it.

        Draws or adopts the initial populations, records generation 0, and
        leaves the engine paused at generation 0.  ``initial`` optionally
        seeds every replica's population with an
        ``(n_replicas, population_size)`` array of already-evaluated
        individuals (a service slab resuming suspended jobs); seeded
        members are *not* counted as new FEM evaluations.
        """
        n, pop = self.n_replicas, self.pop
        rows = self._rows
        self.histories = [[] for _ in range(n)]
        self.evaluations = np.zeros(n, dtype=np.int64)
        self._t_begin = perf_counter()

        if initial is not None:
            inds = self._validate_initial(initial)
        else:
            inds = self.bank.block2d(pop).astype(np.int64)
            self.evaluations += pop
        fits = self._eval(inds)
        # take over the streams from the bank; positions are handed back
        # (with the consumed-word count) when the run is finalized
        cur = self.bank.pos.copy()

        # hardware tie-breaking: first occurrence of the max wins
        best_idx = fits.argmax(axis=1)
        best_fit = fits[rows, best_idx]
        best_ind = inds[rows, best_idx]
        self._record(0, fits, best_fit, best_ind, fits.sum(axis=1))
        if self.resilience is not None:
            inds, fits, best_ind, best_fit, cur = self.resilience.batch_boundary(
                self, 0, inds, fits, best_ind, best_fit, cur
            )

        self._gen = 0
        self._inds = inds
        self._fits = fits
        self._best_ind = best_ind
        self._best_fit = best_fit
        self._cur = cur
        self._consumed = np.zeros(n, dtype=np.int64)
        self._finalized = False
        return self

    @property
    def generation(self) -> int:
        """Generations evolved since :meth:`begin` (0 right after it)."""
        if not hasattr(self, "_gen"):
            raise RuntimeError("call begin() before inspecting the run")
        return self._gen

    @property
    def done(self) -> bool:
        """True once every programmed generation has executed."""
        return self.generation >= self.n_generations

    # ------------------------------------------------------------------
    # slab inspection / surgery helpers: the archipelago layer treats the
    # replica axis as an island axis, so it needs to read each replica's
    # champion, find worst members, splice migrants in, and re-anchor the
    # best-tracking registers — all as array operations between step()s.
    # ------------------------------------------------------------------
    def _require_live(self, what: str) -> None:
        if not hasattr(self, "_gen"):
            raise RuntimeError(f"call begin() before {what}")
        if self._finalized:
            raise RuntimeError(f"run already finalized; cannot {what}")

    def champions(self) -> tuple[np.ndarray, np.ndarray]:
        """Current best ``(individuals, fitnesses)`` per replica — the
        running strict-improvement best since :meth:`begin` (or the last
        :meth:`reanchor_best`).  Returns copies; mutating them does not
        touch the run."""
        self._require_live("champions()")
        return self._best_ind.copy(), self._best_fit.copy()

    def worst_member_order(self) -> np.ndarray:
        """Member indices per replica sorted worst-fitness-first.

        Column 0 is each replica's first-occurrence ``argmin`` (the member
        the hardware-style migration replaces); stable sort, so ties
        resolve to the lowest index exactly like repeated ``argmin`` picks.
        """
        self._require_live("worst_member_order()")
        return np.argsort(self._fits, axis=1, kind="stable")

    def replace_members(
        self, rows: np.ndarray, cols: np.ndarray, individuals: np.ndarray
    ) -> None:
        """Overwrite members ``(rows, cols)`` with ``individuals`` and
        re-evaluate their fitness in place (the migration scatter).

        Consumes no RNG words and touches no other state: stepping after a
        replacement behaves exactly as if the new population had been
        passed to a fresh :meth:`begin` with the same streams (modulo best
        tracking — see :meth:`reanchor_best`).
        """
        self._require_live("replace_members()")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        inds = np.asarray(individuals, dtype=np.int64)
        self._inds[rows, cols] = inds
        if self._table is not None:
            self._fits[rows, cols] = self._table[inds]
        else:
            self._fits[rows, cols] = self._tables_flat[self._fit_base[rows] + inds]

    def reanchor_best(self) -> None:
        """Reset best tracking to the *current* populations — the
        first-occurrence row argmax, exactly what a fresh :meth:`begin`
        over these populations would compute.

        The archipelago calls this at every migration boundary so each
        epoch's champion race restarts from the migrated populations (a
        freshly arrived migrant can be an island's champion), keeping the
        carried slab bit-identical to the legacy one-engine-per-epoch
        loop.
        """
        self._require_live("reanchor_best()")
        best_idx = self._fits.argmax(axis=1)
        self._best_fit = self._fits[self._rows, best_idx]
        self._best_ind = self._inds[self._rows, best_idx]

    def _slot_rows(self, cur: np.ndarray) -> np.ndarray:
        """Every slot's table row for this generation, slot-major:
        ``(slots, n, 9)``.

        Slot ``k`` of a replica starts at ``NEXT^k(cur)``.  The start
        positions fill by doubling — the first ``h`` slots, jumped ``h``
        slots ahead, give the next ``h``, with a partial last step when
        the slot count is not a power of two — and one gather per class
        then reads every row.
        """
        if len(self._classes) == 1:
            ((_rows, tables),) = self._classes
            return np.take(tables.slots, self._starts(tables, cur), axis=0)
        out = np.empty((self._n_slots, self.n_replicas, _COLS), dtype=np.int32)
        for rows, tables in self._classes:
            out[:, rows] = np.take(
                tables.slots, self._starts(tables, cur[rows]), axis=0
            )
        return out

    def _starts(self, tables: ClassTables, cur: np.ndarray) -> np.ndarray:
        n_slots = self._n_slots
        starts = np.empty((n_slots, cur.size), dtype=np.int32)
        starts[0] = cur
        h = 1
        for jump in tables.jumps[: self._levels]:
            m = min(h, n_slots - h)
            np.take(jump, starts[:m], out=starts[h : h + m])
            h += m
        return starts

    def step(self, n_generations: int | None = None) -> int:
        """Advance up to ``n_generations`` generations (all remaining when
        ``None``); returns the number actually executed.

        Stepping a run in any sequence of chunk sizes is draw-for-draw
        identical to one uninterrupted :meth:`run` — the loop below *is*
        the run loop, merely bounded — which is what lets a serving slab
        pause at a generation boundary, admit new jobs, and resume.
        """
        if not hasattr(self, "_gen"):
            raise RuntimeError("call begin() before step()")
        if self._finalized:
            raise RuntimeError("run already finalized; call begin() to restart")
        n, pop = self.n_replicas, self.pop
        rows = self._rows
        remaining = self.n_generations - self._gen
        todo = remaining if n_generations is None else min(n_generations, remaining)
        if todo <= 0:
            return 0

        inds, fits = self._inds, self._fits
        best_ind, best_fit = self._best_ind, self._best_fit
        cur, consumed = self._cur, self._consumed
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        n_pairs, n_slots = self._n_pairs, self._n_slots
        has_tail = n_slots > n_pairs

        for gen in range(self._gen + 1, self._gen + todo + 1):
            if tracing:
                ph = {"selection": 0.0, "crossover": 0.0, "mutation": 0.0,
                      "eval": 0.0, "elitism": 0.0, "record": 0.0}
                t = perf_counter()
            slot = self._slot_rows(cur)
            # proportionate selection, all 2 x slots parents in one
            # flattened searchsorted: threshold = (rn * sum) >> 16 (up to
            # 2**40, so int64), first member whose cumulative fitness
            # exceeds it, last member as the hardware fallback
            cum = fits.cumsum(axis=1)
            flat = (cum + self._row_offsets).ravel()
            thresholds = (slot[:, :, _W1 : _W2 + 1] * cum[:, -1:]) >> 16
            picks = np.minimum(
                flat.searchsorted(
                    (thresholds + self._row_offsets).ravel(), side="right"
                ),
                self._sel_cap,
            )
            parents = inds.ravel()[picks].reshape(n_slots, n, 2)
            p1, p2 = parents[:, :, 0], parents[:, :, 1]
            if tracing:
                now = perf_counter()
                ph["selection"] += now - t
                t = now
            # single-point crossover as an XOR update; XMASK is zero where
            # a slot's crossover decision failed
            diff = (p1 ^ p2) & slot[:, :, _XMASK]
            if tracing:
                now = perf_counter()
                ph["crossover"] += now - t
                t = now
            new_inds = np.empty((n, pop), dtype=np.int64)
            new_inds[:, 1::2] = (p1 ^ diff ^ slot[:, :, _M1BIT]).T
            new_inds[:, 2::2] = (p2 ^ diff ^ slot[:, :, _M2BIT])[:n_pairs].T
            if has_tail:
                consumed += slot[:-1, :, _CONSUMED].sum(axis=0)
                consumed += slot[-1, :, _CONSUMED1]
                cur = slot[-1, :, _NEXT1].astype(np.int64)
            else:
                consumed += slot[:, :, _CONSUMED].sum(axis=0)
                cur = slot[-1, :, _NEXT].astype(np.int64)
            if tracing:
                now = perf_counter()
                ph["mutation"] += now - t
                t = now
            new_inds[:, 0] = best_ind  # elitism
            inds = new_inds
            # selection only reads the previous generation's fitness, so the
            # whole offspring generation is evaluated in one table gather
            fits = self._eval(inds)
            if tracing:
                now = perf_counter()
                ph["eval"] += now - t
                t = now
            # column 0 stores the best *register* value, as the serial
            # engine's elitism copy does; identical to the table gather on
            # a healthy run, but a corrupted register must propagate the
            # register value, not a fresh re-evaluation
            fits[:, 0] = best_fit
            # the serial engine's running strict-improvement update equals
            # the first occurrence of the row max (the elite in column 0
            # carries the previous best, so ties keep the old champion)
            best_idx = fits.argmax(axis=1)
            gen_best = fits[rows, best_idx]
            improved = gen_best > best_fit
            best_fit = np.where(improved, gen_best, best_fit)
            best_ind = np.where(improved, inds[rows, best_idx], best_ind)
            if tracing:
                now = perf_counter()
                ph["elitism"] += now - t
                t = now
            self._record(
                gen, fits, gen_best, inds[rows, best_idx], fits.sum(axis=1)
            )
            if tracing:
                now = perf_counter()
                ph["record"] += now - t
                t = now
            if self.resilience is not None:
                inds, fits, best_ind, best_fit, cur = (
                    self.resilience.batch_boundary(
                        self, gen, inds, fits, best_ind, best_fit, cur
                    )
                )
                if tracing:
                    ph["scrub"] = perf_counter() - t
            if tracing:
                tracer.event("ga.phases", generation=gen, phases=ph)

        # each generation evaluates pop - 1 new offspring (the elite is
        # copied with its stored fitness), exactly as the serial engine
        self.evaluations += todo * (pop - 1)
        self._gen += todo
        self._inds, self._fits = inds, fits
        self._best_ind, self._best_fit = best_ind, best_fit
        self._cur, self._consumed = cur, consumed
        return todo

    def finalize(self) -> list:
        """Hand the RNG streams back to the bank and build the results.

        Legal at any generation boundary: a partial run's results cover
        the generations executed so far (the serving layer suspends slabs
        this way, carrying ``final_populations``/``rng_states`` into a
        successor batch).  Final populations land in
        ``self.final_populations`` and the per-replica RNG end states in
        ``self.rng_states``.
        """
        from repro.core.system import GAResult  # deferred: avoids cycle

        if not hasattr(self, "_gen"):
            raise RuntimeError("call begin() before finalize()")
        if self._finalized:
            raise RuntimeError("run already finalized")
        self._finalized = True
        self.bank.pos = self._cur % self.bank._size
        self.bank.draws += self._consumed
        self.final_populations = self._inds.copy()
        self.rng_states = self.bank.states
        record_engine_run(
            self._gen * self.n_replicas,
            int(self.evaluations.sum()),
            perf_counter() - self._t_begin,
        )
        return [
            GAResult(
                best_individual=int(self._best_ind[r]),
                best_fitness=int(self._best_fit[r]),
                history=self.histories[r],
                evaluations=int(self.evaluations[r]),
                params=self.params_list[r],
                fitness_name=self.fitnesses[r].name,
                cycles=None,
            )
            for r in range(self.n_replicas)
        ]

    def run(self, initial: np.ndarray | None = None) -> list:
        """Evolve all replicas to completion; one ``GAResult`` per replica.

        Equivalent to ``begin(initial)``, ``step()``, ``finalize()`` — and
        bit-identical to any other chunking of the same generations.
        """
        self.begin(initial)
        self.step()
        return self.finalize()


def run_batched(
    jobs: Sequence[tuple[GAParameters, FitnessFunction]],
    record_members: bool = False,
) -> list:
    """Run a heterogeneous sweep through the batch engine.

    ``jobs`` is any sequence of ``(params, fitness)`` cells; cells sharing
    ``(n_generations, population_size)`` are grouped into one
    :class:`BatchBehavioralGA` run each, and the results come back in input
    order — bit-identical to looping ``BehavioralGA(params, fitness).run()``
    over the jobs one by one.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (params, _fn) in enumerate(jobs):
        groups.setdefault(
            (params.n_generations, params.population_size), []
        ).append(i)
    results: list = [None] * len(jobs)
    for indices in groups.values():
        params_list = [jobs[i][0] for i in indices]
        fns = [jobs[i][1] for i in indices]
        batch = BatchBehavioralGA(params_list, fns, record_members=record_members)
        for i, result in zip(indices, batch.run()):
            results[i] = result
    return results
