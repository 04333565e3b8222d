"""Canonical job keying: a stable content hash over the determinism surface.

Every engine in this repo is deterministic by contract — the same
:class:`~repro.service.jobs.GARequest` always yields the bit-identical
:class:`~repro.service.jobs.JobResult` no matter which worker ran it, in
what batch, or at which chunk boundaries (the property suites in
``tests/service/test_determinism.py`` and ``tests/core/test_batch.py``
lock this down).  That contract makes results *content-addressable*: the
request's determinism surface IS the result's identity, so one canonical
hash of it can key a persistent cache of finished runs.

The determinism surface of a request is everything that feeds the
evolution or the shape of its recorded result:

* the five Table III parameters — keyed as the same ``(index, value)``
  words the initialization handshake transfers (Sec. III-B.6), so the key
  schema mirrors the hardware programming model;
* the fitness slot (the Sec. III-B.5 FEM mux selector);
* the archipelago configuration (islands / migration interval / topology);
* the protection configuration (preset, upset rate, campaign seed — the
  resilience fault streams are seed-addressed);
* ``record_trace`` (it decides whether the stored history is populated).

Scheduling-only fields — priority, deadline, retry policy, deadline mode,
``use_cache`` — move wall-clock time, never result bits, and are excluded.
The exclusion is an explicit allowlist: a *new* request field added later
joins the key by default (changing keys needlessly is safe; silently
aliasing two different computations is not).

Keys are ``sha256`` over a canonical JSON rendering (sorted keys, compact
separators) of the surface plus a schema version, so any change to the
key schema itself also changes every key.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.params import GAParameters

#: Version of the canonical key schema.  Bump whenever the canonical
#: rendering changes meaning — old store entries then miss rather than
#: alias (``RunStore.verify`` flags them for ``repro store gc``).
#: v2: the request gained a ``substrate`` field (behavioral / cycle /
#: dual32 execution engines), which joins the surface by default.
#: v3: the request lost its engine-mode field (one exact engine remains);
#: result digests are unchanged, only the keys move.
KEY_SCHEMA_VERSION = 3

#: Request wire fields that only schedule the job (ordering, deadlines,
#: retries, cache policy) and can never change the result bits.
SCHEDULING_ONLY_FIELDS = frozenset(
    {"priority", "deadline_s", "deadline_mode", "retry", "use_cache"}
)


def canonical_request_dict(request) -> dict:
    """The determinism surface of one request as a plain, stable dict.

    Starts from the full wire rendering (``request.to_dict()``) so any
    future determinism-relevant field is captured by default, strips the
    scheduling-only allowlist, and re-keys the Table III parameters as
    the handshake's ``(index, value)`` words.
    """
    surface = {
        k: v
        for k, v in request.to_dict().items()
        if k not in SCHEDULING_ONLY_FIELDS
    }
    params = GAParameters(**surface.pop("params"))
    surface["table3"] = [
        [int(index), int(value)] for index, value in params.to_index_values()
    ]
    surface["key_schema"] = KEY_SCHEMA_VERSION
    return surface


def canonical_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, compact separators, pure ASCII."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def job_key(request) -> str:
    """The content-address of one request's (deterministic) result."""
    return hashlib.sha256(
        canonical_json(canonical_request_dict(request)).encode()
    ).hexdigest()


#: ``JobResult`` wire fields that describe one particular *execution*
#: (identity, timing, scheduling shape, cache provenance) rather than the
#: deterministic result content.
EXECUTION_ONLY_FIELDS = frozenset(
    {
        "job_id",
        "latency_s",
        "wait_s",
        "n_chunks",
        "deadline_missed",
        "cache_hit",
        "store_key",
    }
)


def canonical_result_dict(result) -> dict:
    """The deterministic content of one result as a plain, stable dict.

    Two executions of the same request must agree on this rendering
    byte-for-byte (under :func:`canonical_json`) — it is what
    ``repro replay`` and the differential cache tests compare.
    """
    return {
        k: v
        for k, v in result.to_dict().items()
        if k not in EXECUTION_ONLY_FIELDS
    }


def results_identical(a, b) -> bool:
    """Bit-identity of two results' deterministic content."""
    return canonical_json(canonical_result_dict(a)) == canonical_json(
        canonical_result_dict(b)
    )
