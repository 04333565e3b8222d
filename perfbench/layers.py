"""Per-layer timing for the traced run, installed from outside the program.

:class:`LayerRecorder` wraps the public functions a served job crosses
and records how long each call took.  Nothing under ``src/`` changes: the
wrappers are swapped in with ``install()`` and out with ``uninstall()``,
and only the traced run installs them.

* ``service.workers`` -- ``WorkerPool.submit_chunk`` records the pickled
  spec size and the send/land times; the pool runs
  :func:`traced_run_slab_chunk` in place of ``run_slab_chunk``.  That
  function times the chunk inside the worker and rides the timing back
  under an extra result key, which the ``submit_chunk`` wrapper removes
  before the scheduler's callback sees the result.
* ``core.batch`` / ``parallel.archipelago`` -- inside each worker,
  ``BatchBehavioralGA.__init__`` and ``VectorIslandGA.run`` are timed per
  chunk.  These patches go in lazily, in the worker only.
* ``store`` -- ``job_key`` (as imported by the scheduler and the run
  store), ``RunStore.put`` and ``RunStore.get_result``.
* ``service.server`` -- the JSON codec of one TCP request:
  ``json.loads``/``json.dumps`` in the server module,
  ``GARequest.from_dict`` and ``JobResult.to_dict``, summed per request
  in the handler thread, excluding calls made during admission (the store
  lookup decodes entries too; that is ``store.lookup_us``).

``install()`` must run before the pool's workers fork; the process pool
pickles :func:`traced_run_slab_chunk` by reference, so forked workers
find this module already imported.
"""

from __future__ import annotations

import json
import pickle
import threading
import time

import repro.service.scheduler as scheduler_module
import repro.service.server as server_module
import repro.service.workers as workers_module
import repro.store.runstore as runstore_module
from repro.core.batch import BatchBehavioralGA
from repro.parallel.archipelago import VectorIslandGA
from repro.service import GARequest, JobResult, Scheduler, WorkerPool
from repro.store.keys import job_key
from repro.store.runstore import RunStore

from measure import median

TIMING_KEY = "_perfbench"
_ORIGINAL_RUN_SLAB_CHUNK = workers_module.run_slab_chunk

#: worker-side totals for the chunk in progress (a worker runs one chunk
#: at a time, and this state lives only in worker processes)
_CHUNK = {"construct_s": 0.0, "island_run_s": 0.0, "island_gens": 0}
_WORKER_PATCHED = False


def _patch_worker_engines() -> None:
    global _WORKER_PATCHED
    if _WORKER_PATCHED:
        return
    _WORKER_PATCHED = True
    construct = BatchBehavioralGA.__init__
    island_run = VectorIslandGA.run

    def timed_construct(self, *args, **kwargs):
        start = time.perf_counter()
        construct(self, *args, **kwargs)
        _CHUNK["construct_s"] += time.perf_counter() - start

    def timed_island_run(self):
        start = time.perf_counter()
        result = island_run(self)
        _CHUNK["island_run_s"] += time.perf_counter() - start
        _CHUNK["island_gens"] += self.n_islands * self.params.n_generations
        return result

    BatchBehavioralGA.__init__ = timed_construct
    VectorIslandGA.run = timed_island_run


def traced_run_slab_chunk(spec: dict) -> dict:
    """``run_slab_chunk`` plus worker-side timing under ``TIMING_KEY``."""
    _patch_worker_engines()
    _CHUNK.update(construct_s=0.0, island_run_s=0.0, island_gens=0)
    start = time.perf_counter()
    out = _ORIGINAL_RUN_SLAB_CHUNK(spec)
    end = time.perf_counter()
    out[TIMING_KEY] = {
        "start": start,
        "end": end,
        "evaluations": sum(entry["evaluations"] for entry in out["entries"]),
        **_CHUNK,
    }
    return out


class _TimedJson:
    """Stand-in for the server module's ``json``: codec calls are timed."""

    def __init__(self, recorder: "LayerRecorder"):
        self._recorder = recorder

    def loads(self, text, **kwargs):
        return self._recorder._codec(json.loads, text, **kwargs)

    def dumps(self, obj, **kwargs):
        text = self._recorder._codec(json.dumps, obj, **kwargs)
        state = self._recorder._tls
        if getattr(state, "codec", None) is not None:
            state.response_bytes = len(text) + 1  # plus the newline
        return text


class LayerRecorder:
    """Records per-layer call timings while installed.

    Timestamps are ``time.perf_counter()`` values (``CLOCK_MONOTONIC`` on
    Linux), so records from the server and worker processes line up with
    the client's.
    """

    def __init__(self):
        #: one dict per chunk that landed: sent/back (parent side),
        #: start/end (worker side), spec_bytes, job_ids, evaluations,
        #: construct_s, island_run_s, island_gens
        self.chunks: list[dict] = []
        #: [t, job_id, seconds] per RunStore.put
        self.puts: list[list] = []
        #: [t, seconds] per job_key call
        self.keys: list[list] = []
        #: [t, seconds, hit] per RunStore.get_result
        self.lookups: list[list] = []
        #: [t, codec_seconds, response_bytes] per TCP submit request
        self.requests: list[list] = []
        self._tls = threading.local()
        self._undo: list[tuple] = []

    # -- install / uninstall -------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def install(self) -> "LayerRecorder":
        self._patch(workers_module, "run_slab_chunk", traced_run_slab_chunk)
        self._patch(WorkerPool, "submit_chunk",
                    self._wrap_submit_chunk(WorkerPool.submit_chunk))
        timed_key = self._wrap_job_key(job_key)
        self._patch(scheduler_module, "job_key", timed_key)
        self._patch(runstore_module, "job_key", timed_key)
        self._patch(RunStore, "put", self._wrap_put(RunStore.put))
        self._patch(RunStore, "get_result",
                    self._wrap_get_result(RunStore.get_result))
        self._patch(server_module, "json", _TimedJson(self))
        self._patch(server_module._Handler, "handle",
                    self._wrap_handle(server_module._Handler.handle))
        self._patch(Scheduler, "submit", self._wrap_admission(Scheduler.submit))
        from_dict = vars(GARequest)["from_dict"].__func__
        self._patch(GARequest, "from_dict", classmethod(
            lambda cls, data: self._codec(from_dict, cls, data)))
        to_dict = JobResult.to_dict
        self._patch(JobResult, "to_dict",
                    lambda result: self._codec(to_dict, result))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- wrappers ------------------------------------------------------
    def _wrap_submit_chunk(self, submit_chunk):
        def wrapper(pool, spec, callback):
            spec_bytes = len(pickle.dumps(spec))
            sent = time.perf_counter()

            def landed(out):
                back = time.perf_counter()
                if isinstance(out, dict) and TIMING_KEY in out:
                    self.chunks.append({
                        "sent": sent,
                        "back": back,
                        "spec_bytes": spec_bytes,
                        "job_ids": [e["job_id"] for e in spec["entries"]],
                        **out.pop(TIMING_KEY),
                    })
                callback(out)

            submit_chunk(pool, spec, landed)

        return wrapper

    def _wrap_job_key(self, key_fn):
        def wrapper(request):
            start = time.perf_counter()
            key = key_fn(request)
            self.keys.append([start, time.perf_counter() - start])
            return key

        return wrapper

    def _wrap_put(self, put):
        def wrapper(store, request, result, **provenance):
            start = time.perf_counter()
            key = put(store, request, result, **provenance)
            self.puts.append(
                [start, result.job_id, time.perf_counter() - start])
            return key

        return wrapper

    def _wrap_get_result(self, get_result):
        def wrapper(store, key):
            start = time.perf_counter()
            result = get_result(store, key)
            self.lookups.append(
                [start, time.perf_counter() - start, result is not None])
            return result

        return wrapper

    def _wrap_handle(self, handle):
        state = self._tls

        def wrapper(handler):
            start = time.perf_counter()
            state.codec = [0.0]
            state.response_bytes = 0
            state.submit = False
            try:
                handle(handler)
            finally:
                if state.submit:
                    self.requests.append(
                        [start, state.codec[0], state.response_bytes])
                state.codec = None

        return wrapper

    def _wrap_admission(self, submit):
        state = self._tls

        def wrapper(scheduler, request):
            held = getattr(state, "codec", None)
            state.codec = None
            state.submit = held is not None
            try:
                return submit(scheduler, request)
            finally:
                state.codec = held

        return wrapper

    def _codec(self, fn, *args, **kwargs):
        totals = getattr(self._tls, "codec", None)
        if totals is None:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        totals[0] += time.perf_counter() - start
        return out

    # -- transport (the TCP server writes its records at exit) ----------
    def to_dict(self) -> dict:
        return {
            "chunks": self.chunks,
            "puts": self.puts,
            "keys": self.keys,
            "lookups": self.lookups,
            "requests": self.requests,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LayerRecorder":
        recorder = cls()
        for name in ("chunks", "puts", "keys", "lookups", "requests"):
            setattr(recorder, name, list(data[name]))
        return recorder


def layer_metrics(recorder: LayerRecorder, cold, warm, window,
                  cold_seconds: float, n_workers: int) -> dict:
    """Per-layer metrics of one traced pass.

    ``cold``/``warm`` are the successful outcomes of the timed rounds,
    ``window`` their ``perf_counter`` span and ``cold_seconds`` the summed
    length of their cold parts.  Only records of these jobs, or inside the
    window, count.  Returns ``{name: (value, unit, samples)}``.
    """

    def timed(t: float) -> bool:
        return window[0] <= t <= window[1]

    cold_ids = {o.job_id for o in cold}
    chunks = [c for c in recorder.chunks if cold_ids.intersection(c["job_ids"])]
    busy = [c["end"] - c["start"] for c in chunks]
    hops = [c["back"] - c["sent"] - (c["end"] - c["start"]) for c in chunks]
    puts = {job_id: s for _t, job_id, s in recorder.puts if job_id in cold_ids}
    keys = [s for t, s in recorder.keys if timed(t)]
    hit_lookups = [s for t, s, hit in recorder.lookups if hit and timed(t)]
    per_job = {job_id: 0.0 for job_id in cold_ids}
    for chunk, hop, chunk_busy in zip(chunks, hops, busy):
        for job_id in chunk["job_ids"]:
            if job_id in per_job:
                per_job[job_id] += hop + chunk_busy
    unattributed = [
        # latency_s is stamped before write-back, so the put (and the
        # front end) fall outside it: what remains is time between chunks
        (o.latency_s - o.wait_s - per_job[o.job_id]) * 1e3
        for o in cold
    ]
    metrics = {
        "server.overhead_ms": (
            median([(o.done - o.sent - o.latency_s) * 1e3 for o in warm]),
            "ms", len(warm)),
        "admit.key_us": (median(keys) * 1e6, "us", len(keys)),
        "store.lookup_us": (median(hit_lookups) * 1e6, "us", len(hit_lookups)),
        "store.put_us": (median(list(puts.values())) * 1e6, "us", len(puts)),
        "queue.wait_ms": (
            median([o.wait_s for o in cold]) * 1e3, "ms", len(cold)),
        "dispatch.spec_bytes": (
            sum(c["spec_bytes"] for c in chunks) / len(chunks), "bytes",
            len(chunks)),
        "dispatch.hop_ms": (median(hops) * 1e3, "ms", len(hops)),
        "kernel.busy_frac": (
            sum(busy) / (n_workers * cold_seconds), "ratio", len(chunks)),
        "kernel.chunk_ms": (median(busy) * 1e3, "ms", len(busy)),
        "kernel.construct_ms": (
            median([c["construct_s"] for c in chunks]) * 1e3, "ms",
            len(chunks)),
        "kernel.evals_per_busy_s": (
            sum(c["evaluations"] for c in chunks) / sum(busy), "evals/s",
            len(chunks)),
        "unattributed_ms": (median(unattributed), "ms", len(unattributed)),
    }
    islands = [c for c in chunks if c["island_gens"]]
    if islands:
        metrics["islands.run_ms"] = (
            median([c["island_run_s"] for c in islands]) * 1e3, "ms",
            len(islands))
        metrics["islands.island_gens_per_busy_s"] = (
            sum(c["island_gens"] for c in islands)
            / sum(c["island_run_s"] for c in islands),
            "island-gens/s", len(islands))
    requests = [r for r in recorder.requests if timed(r[0])]
    if requests:
        metrics["server.codec_us"] = (
            median([r[1] for r in requests]) * 1e6, "us", len(requests))
        metrics["server.response_bytes"] = (
            sum(r[2] for r in requests) / len(requests), "bytes",
            len(requests))
    return metrics
