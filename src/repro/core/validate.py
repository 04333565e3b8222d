"""Shared input validation for the GA engines and the jobs that name them.

The serial and batched engines accept caller-supplied initial populations
(the service layer resuming suspended slabs).  Both must enforce the same
contract — 16-bit non-negative integer chromosomes in the engine's
expected layout — and, critically, must *disagree on nothing*: a payload
that raises from one engine raises the same named error from the other
(the parity property in ``tests/core/test_validate.py``).  Before this
helper existed the serial engine silently masked out-of-range members
with ``& 0xFFFF`` while the batch engine raised, so the same bad job
produced different populations depending on which engine the scheduler
happened to route it through.

The island-model checks live here too, fan-in included, so a request
that no archipelago could run is refused at admission rather than in a
worker: :func:`topology_fan_in` derives the fan-in from the spec alone
and :func:`torus_grid` is the one place the torus grid shape is decided.

:func:`validate_request` is the one legality check for a job request, so
an illegal combination of substrate, islands and protection is refused
in one place.
"""

from __future__ import annotations

import numpy as np

from repro.core.ga_memory import BANK_SIZE
from repro.fitness.functions import REGISTRY

#: Topology names the archipelago layer implements
#: (:mod:`repro.parallel.archipelago` builds its wiring factory from this
#: tuple, so the wire layer can validate a request without importing it).
#: ``random`` optionally carries a fan-in: ``"random:3"`` wires three
#: incoming edges per island.
KNOWN_TOPOLOGIES: tuple[str, ...] = ("ring", "torus", "random")


def validate_request(request) -> None:
    """Refuse, with a named error, a job no engine could run as asked.

    ``request`` has :class:`~repro.service.jobs.GARequest`'s fields, and
    ``GARequest`` calls this on construction.  Checked in order: the
    substrate and what it combines with (only ``"behavioral"`` runs
    islands or a protection preset, never both); the island parameters;
    the fitness name in the substrate's registry; the cycle-accurate
    core's population limit; the protection preset; and upsets only
    through a preset, since without one no harness injects them.
    """
    substrate = request.substrate
    if substrate not in ("behavioral", "cycle", "dual32"):
        raise ValueError(
            f"substrate must be 'behavioral', 'cycle' or 'dual32': "
            f"{substrate!r}"
        )
    protection = request.protection
    if substrate != "behavioral":
        if request.n_islands > 1:
            raise ValueError(f"substrate {substrate!r} jobs cannot be islands")
        if protection is not None:
            raise ValueError(
                f"substrate {substrate!r} jobs cannot request a "
                "protection preset"
            )
    population_size = request.params.population_size
    validate_island_params(
        request.n_islands,
        request.migration_interval,
        request.topology,
        population_size,
    )
    if request.n_islands > 1 and protection is not None:
        raise ValueError(
            "island jobs cannot request a protection preset; the "
            "resilience harness addresses solo engine runs"
        )
    if substrate == "dual32":
        from repro.fitness.ehw_targets import FITNESS32_REGISTRY

        if request.fitness_name not in FITNESS32_REGISTRY:
            raise ValueError(
                f"unknown 32-bit fitness {request.fitness_name!r}; "
                f"available: {sorted(FITNESS32_REGISTRY)}"
            )
    elif request.fitness_name not in REGISTRY:
        raise ValueError(
            f"unknown fitness slot {request.fitness_name!r}; "
            f"available: {sorted(REGISTRY)}"
        )
    if substrate == "cycle":
        check_cycle_population(population_size)
    if protection is not None:
        from repro.resilience import PROTECTION_PRESETS

        if protection not in PROTECTION_PRESETS:
            raise ValueError(
                f"unknown protection preset {protection!r}; "
                f"available: {sorted(PROTECTION_PRESETS)}"
            )
    if request.upset_rate < 0:
        raise ValueError(f"upset_rate must be >= 0: {request.upset_rate}")
    if request.upset_rate > 0 and protection is None:
        raise ValueError(
            f"upset_rate {request.upset_rate} needs a protection preset; "
            'pass protection="unprotected" to inject raw upsets'
        )


def check_cycle_population(population_size: int) -> None:
    """The cycle-accurate core's limit: one population per bank of its
    256-word GA memory (Sec. III-B.7).  :class:`~repro.core.ga_core.GACore`
    raises through this too, so a refused request and a refused run carry
    one message."""
    if population_size > BANK_SIZE:
        raise ValueError(
            f"cycle-accurate core supports populations up to {BANK_SIZE} "
            f"(two banks in the 256-word GA memory); got {population_size}"
        )


def validate_island_params(
    n_islands: int, migration_interval: int, topology: str, population_size: int
) -> None:
    """Check island-model parameters with named errors.

    The same contract is enforced — via this one helper, so the messages
    cannot drift — by :class:`~repro.parallel.archipelago.VectorIslandGA`
    and by :func:`validate_request`.  ``n_islands == 1`` is the
    degenerate single-population archipelago (no migration edges), which
    is how a non-island job is encoded on the wire.  A topology whose
    fan-in would replace a whole population at a migration boundary is
    rejected here, before any wiring is built.
    """
    if not isinstance(n_islands, int) or isinstance(n_islands, bool):
        raise ValueError(f"n_islands must be an integer: {n_islands!r}")
    if n_islands < 1:
        raise ValueError(f"n_islands must be >= 1: {n_islands}")
    if not isinstance(migration_interval, int) or isinstance(
        migration_interval, bool
    ):
        raise ValueError(
            f"migration_interval must be an integer: {migration_interval!r}"
        )
    if migration_interval < 1:
        raise ValueError(
            f"migration_interval must be >= 1: {migration_interval}"
        )
    fan_in = topology_fan_in(topology, n_islands)
    if fan_in >= population_size:
        raise ValueError(
            f"topology fan-in {fan_in} would replace "
            f"a whole population of {population_size}"
        )


def torus_grid(n_islands: int) -> tuple[int, int]:
    """The torus's most-square factorization ``rows x cols = n_islands``
    with ``rows <= cols``; a prime count gives a ``1 x n`` row."""
    rows = next(
        r for r in range(int(n_islands**0.5), 0, -1) if n_islands % r == 0
    )
    return rows, n_islands // rows


def topology_fan_in(topology: str, n_islands: int) -> int:
    """Most migrants one island receives per boundary, from the spec.

    Equal to ``build_topology(topology, n_islands, seed).max_fan_in`` for
    every seed (property-tested) without building the wiring: 0 for one
    island, 1 for a ring, 2 for a torus whose grid has more than one row
    (else 1), and ``min(k, n_islands - 1)`` for ``random:k``.
    """
    name, k = parse_topology(topology)
    if n_islands < 2:
        return 0
    if name == "ring":
        return 1
    if name == "torus":
        return 2 if torus_grid(n_islands)[0] > 1 else 1
    return min(k, n_islands - 1)


def parse_topology(topology: str) -> tuple[str, int]:
    """Split a topology spec into ``(name, fan_in)`` with named errors.

    ``"ring"`` and ``"torus"`` have fixed wiring (fan-in reported as 0);
    ``"random"`` defaults to 2 incoming edges per island and accepts an
    explicit count as ``"random:<k>"``.
    """
    if not isinstance(topology, str):
        raise ValueError(f"topology must be a string: {topology!r}")
    name, _, arg = topology.partition(":")
    if name not in KNOWN_TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r}; "
            f"available: {sorted(KNOWN_TOPOLOGIES)}"
        )
    if name != "random":
        if arg:
            raise ValueError(
                f"topology {name!r} takes no argument: {topology!r}"
            )
        return name, 0
    if not arg:
        return name, 2
    try:
        k = int(arg)
    except ValueError:
        raise ValueError(
            f"random topology fan-in must be an integer: {topology!r}"
        ) from None
    if k < 1:
        raise ValueError(f"random topology fan-in must be >= 1: {topology!r}")
    return name, k


def validate_initial_population(
    initial, expected_shape: tuple[int, ...]
) -> np.ndarray:
    """Check an initial population and return it as a fresh int64 array.

    ``expected_shape`` is ``(population_size,)`` for the serial engine and
    ``(n_replicas, population_size)`` for the batched one.  Raises
    ``ValueError`` naming the defect (dtype, shape, or member range) —
    never silently coerces.
    """
    arr = np.asarray(initial)
    if arr.dtype == np.bool_ or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(
            "initial populations must be an integer array of 16-bit "
            f"chromosomes, got dtype {arr.dtype}"
        )
    if arr.shape != expected_shape:
        raise ValueError(
            f"initial populations have shape {arr.shape}, "
            f"expected {expected_shape}"
        )
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) > 0xFFFF):
        raise ValueError(
            "initial population members must be 16-bit values in "
            f"[0, 65535]; got range [{int(arr.min())}, {int(arr.max())}]"
        )
    return arr.astype(np.int64, copy=True)
