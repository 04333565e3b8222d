"""Slab spill store: checkpointed in-flight state for scheduler restart.

Between chunks, a job's whole evolution state is the carried
``(population, rng_state)`` pair plus splicing bookkeeping — exactly the
rollback checkpoint tuple of :mod:`repro.resilience.harden`, generalized
to one checkpoint per slab entry.  The scheduler serializes a slab
through :func:`repro.resilience.harden.encode_checkpoint` into this store
each time it dispatches one of the slab's chunks, and discards the file
when the slab retires; after a crash, ``Scheduler.resume_spilled()`` (surfaced as
``repro serve --resume``) reloads each spilled slab and re-dispatches it
from its last checkpoint — results stay bit-identical to an uninterrupted
run because chunk boundaries are generation boundaries.

Files are JSON, one per slab, written by the run store's one durable
writer (:func:`repro.store.runstore.write_json_atomic`): one C-encoded
``json.dumps``, a temp file private to the call, then ``os.replace``, so
a crash mid-write can never leave a half checkpoint that resume would
trust.  The save is synchronous, under the scheduler's lock, and lands
before the chunk is sent to a worker.  Corrupt or unreadable files are
skipped with a warning rather than failing the restart.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

from repro.store.runstore import write_json_atomic

log = logging.getLogger("repro.service")

#: format version of one spill file (the per-entry state rides the
#: resilience checkpoint codec, which carries its own version field)
SPILL_VERSION = 1


class CheckpointStore:
    """A directory of resumable slab checkpoints."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: distinguishes files written by different scheduler lifetimes
        #: (slab ids restart from 0 in every process)
        self._pid = os.getpid()

    def _path(self, slab_id: int) -> Path:
        return self.root / f"slab-{self._pid}-{slab_id}.json"

    def save(self, slab_id: int, payload: dict) -> Path:
        """Atomically persist one slab's checkpoint payload."""
        path = self._path(slab_id)
        write_json_atomic(path, {"spill_version": SPILL_VERSION, **payload})
        return path

    def discard(self, slab_id: int) -> None:
        """Drop a retired slab's checkpoint (missing file is fine)."""
        try:
            self._path(slab_id).unlink()
        except FileNotFoundError:
            pass

    def spilled(self) -> list[Path]:
        """Every spill file currently in the store (any process's)."""
        return sorted(self.root.glob("slab-*.json"))

    def claim_all(self) -> list[dict]:
        """Read and remove every spilled payload (crash-recovery sweep).

        The claim deletes the source file immediately: the resuming
        scheduler checkpoints each resumed slab again at once, under a
        fresh file name, so a stale copy must not be replayed twice.  Unreadable
        or version-mismatched files are skipped with a warning.
        """
        payloads = []
        for path in self.spilled():
            try:
                with open(path) as handle:
                    payload = json.load(handle)
                if payload.get("spill_version") != SPILL_VERSION:
                    raise ValueError(
                        f"spill_version {payload.get('spill_version')!r}"
                    )
            except (OSError, ValueError) as exc:
                log.warning("skipping unreadable checkpoint %s: %s", path, exc)
                continue
            finally:
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            payloads.append(payload)
        return payloads
