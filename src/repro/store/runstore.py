"""The persistent content-addressed run store.

One directory holds every finished run the process (or fleet sharing the
directory) has ever computed, keyed by the canonical job hash of
:func:`repro.store.keys.job_key` — the software twin of the paper's
lookup-table FEM (Sec. IV-C), lifted from fitness values to whole GA
runs.  Layout::

    <root>/
      objects/<key>.json   # one finished run per file, atomic
      spill/               # in-progress slab checkpoints (CheckpointStore)

Entries and spill checkpoints are written by one function,
:func:`write_json_atomic`: one C-encoded ``json.dumps``, a temp file
private to the call, then ``os.replace``.  A crash mid-write can never
leave a half entry that a later lookup would trust, and writers sharing
the directory (``repro serve`` beside ``repro run --store-dir``) never
collide on a temp file.  Each entry carries provenance: the store schema
version, the repo version, the engine mode, and the wall-clock cost of
the cold computation — enough for ``repro replay`` to re-execute and
re-verify any entry years later.

The ``spill/`` subdirectory is the serving layer's
:class:`~repro.service.checkpoint.CheckpointStore` root: in-progress long
jobs checkpoint into the store (through the
``encode_checkpoint``/``decode_checkpoint`` codec of
:mod:`repro.resilience.harden`) and resume from it, so one ``--store-dir``
configures both the result cache and crash recovery.  ``gc()`` reclaims
what both halves leave behind: interrupted temp files, corrupt or
mis-keyed entries, and spill files orphaned by dead processes.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path

from typing import TYPE_CHECKING

from repro.obs.metrics import get_registry
from repro.store.keys import KEY_SCHEMA_VERSION, job_key

if TYPE_CHECKING:  # service imports stay lazy at runtime so that
    # ``repro.store`` is importable while ``repro.service`` is still
    # mid-initialization (the scheduler imports store.keys during init)
    from repro.service.checkpoint import CheckpointStore
    from repro.service.jobs import GARequest, JobResult

log = logging.getLogger("repro.store")

#: On-disk format version of one store entry.  Independent of the key
#: schema version (which addresses entries); both ride the provenance.
STORE_SCHEMA_VERSION = 1


def write_json_atomic(path: Path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON, atomically.

    The one durable writer: store entries and spill checkpoints
    (:class:`~repro.service.checkpoint.CheckpointStore`) both go through
    it.  The text comes from one ``json.dumps`` call, which runs CPython's
    C encoder; ``json.dump`` to a file streams through the pure-Python
    encoder and costs about 5x as much for the same bytes.  The text goes
    to a temp file next to ``path`` and is ``os.replace``d into place, so
    a reader sees the old file or the new one, never half of one.  Each
    call draws its own random temp name (still ``*.tmp``, which ``gc``
    sweeps), so writers sharing a directory never move each other's
    temp file.
    """
    text = json.dumps(payload)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


@dataclass
class StoreEntry:
    """One finished run: its request, result, and provenance."""

    key: str
    request: "GARequest"
    result: "JobResult"
    provenance: dict
    path: Path


class RunStore:
    """A directory of content-addressed finished runs."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        reg = get_registry()
        self._puts = reg.counter("store.puts")
        self._gets = reg.counter("store.gets")
        self._hits = reg.counter("store.hits")

    def checkpoint_store(self) -> "CheckpointStore":
        """The spill store for in-progress slabs, under this store's root
        (one ``--store-dir`` configures caching and crash recovery)."""
        from repro.service.checkpoint import CheckpointStore

        return CheckpointStore(self.root / "spill")

    # -- addressing -----------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.objects / f"{key}.json"

    def has(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> list[str]:
        """Every entry key currently in the store, sorted."""
        return sorted(p.stem for p in self.objects.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    # -- read / write ---------------------------------------------------
    def put(self, request: "GARequest", result: "JobResult", **provenance) -> str:
        """Persist one finished run under its canonical key (atomic).

        Returns the key.  Extra keyword arguments join the provenance
        block (e.g. ``compute_s=...`` from the serving layer).
        """
        key = job_key(request)
        import repro

        payload = {
            "store_version": STORE_SCHEMA_VERSION,
            "key": key,
            "request": request.to_dict(),
            "result": result.to_dict(),
            "provenance": {
                "key_schema": KEY_SCHEMA_VERSION,
                "repro_version": repro.__version__,
                "fitness_name": request.fitness_name,
                "created_unix": time.time(),
                **provenance,
            },
        }
        write_json_atomic(self.path_for(key), payload)
        self._puts.inc()
        return key

    def get(self, key: str) -> StoreEntry | None:
        """Load one entry; ``None`` on miss or an unreadable file."""
        self._gets.inc()
        path = self.path_for(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
            entry = self._parse(key, path, payload)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            log.warning("unreadable store entry %s: %s", path, exc)
            return None
        self._hits.inc()
        return entry

    def get_result(self, key: str) -> "JobResult | None":
        entry = self.get(key)
        return None if entry is None else entry.result

    def entries(self) -> list[StoreEntry]:
        """Every readable entry (unreadable ones are skipped, warned)."""
        loaded = []
        for key in self.keys():
            entry = self.get(key)
            if entry is not None:
                loaded.append(entry)
        return loaded

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def _parse(self, key: str, path: Path, payload: dict) -> StoreEntry:
        from repro.service.jobs import GARequest, JobResult

        version = payload.get("store_version")
        if version != STORE_SCHEMA_VERSION:
            raise ValueError(f"unsupported store_version {version!r}")
        return StoreEntry(
            key=key,
            request=GARequest.from_dict(payload["request"]),
            result=JobResult.from_dict(payload["result"]),
            provenance=dict(payload.get("provenance", {})),
            path=path,
        )

    # -- maintenance (``repro store verify|gc``) ------------------------
    def verify(self) -> list[dict]:
        """Integrity-check every entry file.

        Each report row is ``{"key", "ok", "reason"}``.  An entry is bad
        when it cannot be parsed, when its stored request no longer hashes
        to its file name (bit rot, or a key-schema change), or when its
        recorded key disagrees with the file name.  ``repro replay``
        performs the stronger check — re-executing and comparing bits.
        """
        rows = []
        for key in self.keys():
            path = self.path_for(key)
            try:
                with open(path) as handle:
                    payload = json.load(handle)
                entry = self._parse(key, path, payload)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                rows.append({"key": key, "ok": False, "reason": str(exc)})
                continue
            if payload.get("key") != key:
                rows.append(
                    {
                        "key": key,
                        "ok": False,
                        "reason": f"recorded key {payload.get('key')!r} "
                        "disagrees with file name",
                    }
                )
            elif job_key(entry.request) != key:
                rows.append(
                    {
                        "key": key,
                        "ok": False,
                        "reason": "stored request no longer hashes to this key",
                    }
                )
            else:
                rows.append({"key": key, "ok": True, "reason": ""})
        return rows

    def gc(self, all_spills: bool = False) -> dict:
        """Reclaim debris: temp files, corrupt/mis-keyed entries, and
        spill checkpoints orphaned by dead processes.

        A spill file is orphaned when the pid embedded in its name
        (``slab-<pid>-<id>.json``) is no longer alive; ``all_spills=True``
        reclaims every spill regardless (after a fleet-wide stop).
        Returns removal counts.
        """
        removed = {"tmp": 0, "corrupt": 0, "spills": 0}
        for tmp in self.objects.glob("*.tmp"):
            tmp.unlink(missing_ok=True)
            removed["tmp"] += 1
        for row in self.verify():
            if not row["ok"]:
                if self.delete(row["key"]):
                    removed["corrupt"] += 1
                    log.warning(
                        "gc removed bad entry %s: %s", row["key"], row["reason"]
                    )
        spill_root = self.root / "spill"
        if spill_root.is_dir():
            for tmp in spill_root.glob("*.tmp"):
                tmp.unlink(missing_ok=True)
                removed["tmp"] += 1
            for path in spill_root.glob("slab-*.json"):
                if all_spills or self._spill_orphaned(path):
                    path.unlink(missing_ok=True)
                    removed["spills"] += 1
        return removed

    @staticmethod
    def _spill_orphaned(path: Path) -> bool:
        """True when the spill's writer process is certainly gone."""
        parts = path.stem.split("-")
        if len(parts) < 3:
            return True  # not a name CheckpointStore writes
        try:
            pid = int(parts[1])
        except ValueError:
            return True
        if pid == os.getpid():
            return False
        try:
            os.kill(pid, 0)
            return False  # alive (or at least present)
        except ProcessLookupError:
            return True
        except PermissionError:
            return False  # alive, owned by someone else
        except OSError:
            return False
