"""Cellular-automaton PRNG — the GA core's random number generator.

The paper uses "a 16-bit cellular automaton-based PRNG, similar to the
implementation in [5]" (Scott et al.), i.e. a null-boundary one-dimensional
CA where each cell follows rule 90 (``left XOR right``) or rule 150
(``left XOR self XOR right``).  The rule assignment is fixed per cell by a
*rule vector*; a well-chosen hybrid vector gives the maximal period of
``2**16 - 1`` non-zero states.

The paper does not publish its rule vector, so this reproduction uses
``0x6C04``, found by exhaustive period search and locked down by a unit test
(``tests/rng/test_cellular_automaton.py::test_default_rule_is_maximal``).

The full orbit of the CA is precomputed lazily (65,535 ``uint16`` values,
128 KiB) which makes block draws O(1) numpy slices — the vectorised fast
path the behavioural GA model rides on — while staying bit-identical to the
cycle-accurate stepped hardware model.
"""

from __future__ import annotations

import numpy as np

from repro.rng.base import RandomSource

#: Verified maximal-length hybrid 90/150 rule vector (bit i set = rule 150).
DEFAULT_RULE_VECTOR = 0x6C04

#: The three in-built seeds selectable via the preset mechanism
#: (Sec. II-C: "three in-built seeds to select from").  These are the three
#: seeds the paper's RT-level experiments use (Table V).
PRESET_SEEDS: tuple[int, int, int] = (45890, 10593, 1567)


def ca_step(state: int, rule_vector: int = DEFAULT_RULE_VECTOR, width: int = 16) -> int:
    """One synchronous update of the null-boundary hybrid 90/150 CA.

    Bit ``i`` of the next state is ``state[i+1] XOR state[i-1]``, additionally
    XOR ``state[i]`` where the rule vector selects rule 150.  Out-of-range
    neighbours read as 0 (null boundary).
    """
    mask = (1 << width) - 1
    left = state >> 1
    right = (state << 1) & mask
    return (left ^ right ^ (state & rule_vector)) & mask


def ca_period(rule_vector: int, width: int = 16, limit: int | None = None) -> int:
    """Cycle length of the orbit containing state 1 (== ``2**width - 1`` for
    a maximal-length rule vector).  Returns -1 if no cycle is found within
    ``limit`` steps."""
    limit = limit if limit is not None else (1 << width) + 1
    start = 1
    state = ca_step(start, rule_vector, width)
    steps = 1
    while state != start:
        state = ca_step(state, rule_vector, width)
        steps += 1
        if steps > limit:
            return -1
    return steps


_ORBIT_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _orbit(rule_vector: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(orbit, position) tables for a maximal-length rule vector.

    ``orbit[k]`` is the state after ``k`` steps from state 1;
    ``position[s]`` is the index of state ``s`` in the orbit (0 for unused
    state 0, which never occurs for valid seeds).
    """
    key = (rule_vector, width)
    cached = _ORBIT_CACHE.get(key)
    if cached is not None:
        return cached
    size = (1 << width) - 1
    orbit = np.empty(size, dtype=np.uint32)
    state = 1
    for k in range(size):
        orbit[k] = state
        state = ca_step(state, rule_vector, width)
    if state != 1:
        raise ValueError(
            f"rule vector {rule_vector:#x} is not maximal-length for width {width}"
        )
    position = np.zeros(1 << width, dtype=np.uint32)
    position[orbit] = np.arange(size, dtype=np.uint32)
    cached = (orbit.astype(np.uint16), position)
    _ORBIT_CACHE[key] = cached
    return cached


def orbit_tables(
    rule_vector: int = DEFAULT_RULE_VECTOR, width: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Public accessor for the precomputed ``(orbit, position)`` tables.

    ``orbit[k]`` is the CA state after ``k`` steps from state 1 and
    ``position[s]`` inverts it (``orbit[position[s]] == s`` for every
    non-zero state ``s``).  Both tables are cached per ``(rule_vector,
    width)``; callers must treat them as read-only.
    """
    return _orbit(rule_vector, width)


class CAStreamBank:
    """``N`` independent CA-PRNG streams advanced by orbit-index slicing.

    The vectorised multi-stream twin of :class:`CellularAutomatonPRNG`:
    every stream is just a position on the shared precomputed orbit, so a
    draw across all streams is one numpy gather and an advance is one add.
    Stream ``i`` is draw-for-draw identical to
    ``CellularAutomatonPRNG(seeds[i], spacing=spacing)`` — including
    *conditional* consumption: :meth:`draw` takes a boolean mask selecting
    which streams actually advance, mirroring serial code where only some
    replicas take an RNG-consuming branch.  This is what lets
    :class:`repro.core.batch.BatchBehavioralGA` stay bit-identical to N
    separate serial runs.
    """

    def __init__(
        self,
        seeds,
        rule_vector: int = DEFAULT_RULE_VECTOR,
        width: int = 16,
        spacing: int = 1,
    ):
        if spacing < 1:
            raise ValueError("spacing must be >= 1")
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.ndim != 1 or seeds.size == 0:
            raise ValueError("seeds must be a non-empty 1-D sequence")
        if np.any((seeds <= 0) | (seeds >= (1 << width))):
            raise ValueError(
                f"every seed must be in [1, {(1 << width) - 1}]"
            )
        self.rule_vector = rule_vector
        self.width = width
        self.spacing = spacing
        orbit, position = _orbit(rule_vector, width)
        self._orbit = orbit
        self._size = orbit.shape[0]
        #: Orbit index of each stream's current state.
        self.pos = position[seeds].astype(np.int64)
        #: Words consumed per stream (matches ``RandomSource.draws``).
        self.draws = np.zeros(seeds.size, dtype=np.int64)

    def __len__(self) -> int:
        return self.pos.size

    @property
    def states(self) -> np.ndarray:
        """Current state (= next word to be emitted) of every stream."""
        return self._orbit[self.pos].astype(np.int64)

    def draw(self, advance: np.ndarray | None = None) -> np.ndarray:
        """Return the current word of every stream as ``int64``.

        Streams selected by the boolean mask ``advance`` (all streams when
        ``None``) step to their next state; the others are *peeked* — they
        did not consume a word, exactly like serial replicas that skip an
        RNG-consuming branch.
        """
        out = self._orbit[self.pos].astype(np.int64)
        if advance is None:
            self.pos += self.spacing
            self.pos %= self._size
            self.draws += 1
        else:
            adv = np.asarray(advance, dtype=bool)
            self.pos += self.spacing * adv
            self.pos %= self._size
            self.draws += adv
        return out

    def block2d(self, n: int) -> np.ndarray:
        """The next ``n`` words of every stream as an ``(N, n)`` array.

        Row ``i`` equals what ``CellularAutomatonPRNG.block(n)`` would
        return for stream ``i``; all streams advance by ``n`` draws.
        """
        steps = self.spacing * np.arange(n, dtype=np.int64)
        out = self._orbit[(self.pos[:, None] + steps[None, :]) % self._size]
        self.pos = (self.pos + self.spacing * n) % self._size
        self.draws += n
        return out


class CellularAutomatonPRNG(RandomSource):
    """The GA core's RNG module, software twin.

    ``next_word()`` models the core reading the RNG output register (the
    module advances after each read); ``block(n)`` produces the same stream
    via precomputed-orbit slicing for the vectorised behavioural model.
    """

    def __init__(
        self,
        seed: int,
        rule_vector: int = DEFAULT_RULE_VECTOR,
        width: int = 16,
        precompute: bool = True,
        spacing: int = 1,
    ):
        """``spacing`` is the number of CA steps per emitted word (time
        spacing).  Raw successive CA states are serially correlated because
        the update is local; spacing >= 2 decorrelates the stream, modelling
        a hardware RNG that free-runs between core reads."""
        if spacing < 1:
            raise ValueError("spacing must be >= 1")
        self.width = width
        self.rule_vector = rule_vector
        self.spacing = spacing
        super().__init__(seed)
        self._tables: tuple[np.ndarray, np.ndarray] | None = None
        if precompute:
            self._tables = _orbit(rule_vector, width)

    def _advance(self, state: int) -> int:
        for _ in range(self.spacing):
            state = ca_step(state, self.rule_vector, self.width)
        return state

    def block(self, n: int) -> np.ndarray:
        if self._tables is None:
            return super().block(n)
        orbit, position = self._tables
        size = orbit.shape[0]
        start = int(position[self.state])
        idx = (start + self.spacing * np.arange(n, dtype=np.int64)) % size
        out = orbit[idx]
        self.state = int(orbit[(start + self.spacing * n) % size])
        self.draws += n
        return out

    def orbit_position(self) -> int:
        """Index of the current state on the precomputed orbit.

        Two generators are at the same point of their stream iff their
        orbit positions are equal; the batch engine uses this to resume a
        vectorised multi-stream run from serial generator states.
        """
        _orbit_tab, position = orbit_tables(self.rule_vector, self.width)
        return int(position[self.state])

    def stream_bank(self) -> CAStreamBank:
        """A single-stream :class:`CAStreamBank` positioned at this
        generator's current state (continues the same word sequence)."""
        return CAStreamBank(
            [self.state],
            rule_vector=self.rule_vector,
            width=self.width,
            spacing=self.spacing,
        )

    @classmethod
    def block2d(
        cls,
        seeds,
        n: int,
        rule_vector: int = DEFAULT_RULE_VECTOR,
        width: int = 16,
        spacing: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One-shot vectorised multi-stream draw.

        Returns ``(words, end_states)`` where ``words[i]`` is bit-identical
        to ``CellularAutomatonPRNG(seeds[i], spacing=spacing).block(n)`` and
        ``end_states[i]`` is that generator's state afterwards.
        """
        bank = CAStreamBank(
            seeds, rule_vector=rule_vector, width=width, spacing=spacing
        )
        words = bank.block2d(n)
        return words, bank.states

    @classmethod
    def from_preset(cls, index: int, **kwargs) -> "CellularAutomatonPRNG":
        """Construct from one of the three in-built preset seeds."""
        if not 0 <= index < len(PRESET_SEEDS):
            raise ValueError(f"preset seed index must be 0..2, got {index}")
        return cls(PRESET_SEEDS[index], **kwargs)
