"""Parallel GA extensions (the Sec. II-B acceleration direction).

The related-work section cites pipelined/parallel hardware GA architectures
[11]-[13]; the natural multi-core analogue of "several GA cores on one
fabric" is the island model: independent GA engines with periodic best-
individual migration.  :mod:`repro.parallel.archipelago` implements it as
one batched slab whose replica axis is the island axis, in a single
process; the service's worker pool is where jobs run in parallel.
"""

from repro.parallel.archipelago import (
    IslandResult,
    MigrationTopology,
    VectorIslandGA,
    build_topology,
    ring_topology,
    random_topology,
    torus_topology,
)

__all__ = [
    "IslandResult",
    "MigrationTopology",
    "VectorIslandGA",
    "build_topology",
    "ring_topology",
    "random_topology",
    "torus_topology",
]
