"""Orchestration of one benchmark run: set-up, timed rounds, checks, metrics.

``run.py`` is the entry point; this module needs ``repro`` importable.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import layers
import measure
from reference import result_content
from repro.store.keys import job_key
from workloads import WORKLOADS, fresh_requests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: set-ups per pass; ``setup_s`` is their median
SETUPS = 5
N_WORKERS = 2
JOB_TIMEOUT_S = 60.0
#: length of the cold part of one TCP round
ROUND_S = 2.0
#: the warm part of a round resends the round's requests until it has
#: made at least this many hits, so the first hits after the cold part
#: are a small share of the tail ...
MIN_HITS_PER_ROUND = 200
#: ... and has lasted this share of the round's cold part, so the hit
#: latencies sample the machine over seconds of each run, not moments
WARM_SHARE = 0.2
#: how often a closed burst checks its handles: coarse next to burst
#: latencies of seconds, and rare enough not to contend with the service
#: for the host's interpreter lock
POLL_S = 0.005
#: ordinary jobs per run also recomputed with ``execute_request``
SPOT_CHECKS = 2

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "hit_latency_p50_ms": "ms",
    "hit_latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: per-layer metrics every workload reports; the server codec and island
#: metrics apply to one workload each and appear in the table only
PER_LAYER = (
    "server.overhead_ms", "admit.key_us", "store.lookup_us",
    "store.hit_ratio", "store.put_us", "store.entry_bytes", "queue.wait_ms",
    "batch.mean_occupancy", "batch.chunks", "dispatch.spec_bytes",
    "dispatch.hop_ms", "kernel.busy_frac", "kernel.chunk_ms",
    "kernel.construct_ms", "kernel.evals_per_busy_s", "unattributed_ms",
)


class BenchError(RuntimeError):
    """The run cannot produce a result (the system under test misbehaved
    outside what ``failed`` counts, e.g. a process survived shutdown)."""


@dataclass
class Outcome:
    """One client request: what was sent, when, and what came back.

    Only a compact copy of the result is kept: holding every ``JobResult``
    would grow the host's heap with the run, and with it the in-process
    workloads' peak RSS and garbage-collection pauses.
    """

    request: object
    sent: float
    done: float = 0.0
    error: str | None = None
    job_id: int = -1
    latency_s: float = 0.0
    wait_s: float = 0.0
    cache_hit: bool = False
    #: ``result_content`` of the result; ``None`` when the request failed
    content: str | None = None

    @property
    def ok(self) -> bool:
        return self.content is not None

    def settle(self, result) -> None:
        self.job_id = result.job_id
        self.latency_s = result.latency_s
        self.wait_s = result.wait_s
        self.cache_hit = result.cache_hit
        self.content = result_content(result)


@dataclass
class Pass:
    """Everything one pass (set-ups, then the timed rounds) produced."""

    setups: list[float]
    cold: list[Outcome]
    #: the warm part of each round
    warm_rounds: list[list[Outcome]]
    #: completed cold jobs per second of each round's cold part
    round_rates: list[float]
    #: summed duration of the rounds' cold parts
    cold_seconds: float
    #: perf_counter span of all timed rounds
    window: tuple[float, float]
    batching: tuple[dict, dict]
    peak_rss_mb: float = 0.0
    entry_bytes: list[int] = field(default_factory=list)
    records: object = None

    @property
    def warm(self) -> list[Outcome]:
        return [o for part in self.warm_rounds for o in part]


# -- systems under test --------------------------------------------------

class InProcessService:
    """``GAService(workers=2, mode="process")`` over a fresh run store."""

    def __init__(self, store_dir: Path):
        from repro.service import GAService

        self.store_dir = store_dir
        self._baseline = set(measure.children(os.getpid()))
        self.service = GAService(
            workers=N_WORKERS, mode="process", store_dir=store_dir
        ).start()

    def call(self, request):
        return self.service.submit(request).result(JOB_TIMEOUT_S)

    def snapshot(self) -> dict:
        return self.service.snapshot()

    def pids(self) -> list[int]:
        workers = set(measure.children(os.getpid())) - self._baseline
        return [os.getpid(), *sorted(workers)]

    def close(self) -> list[int]:
        workers = self.pids()[1:]
        self.service.shutdown()
        return _survivors(workers)


def _child_env() -> dict:
    """The environment of a Python child process: ``repro`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class TcpServer:
    """A ``repro serve`` subprocess (defaults plus ``--store-dir``)."""

    def __init__(self, store_dir: Path, records: Path | None):
        self.store_dir = store_dir
        argv = ["serve", "--store-dir", str(store_dir)]
        if records is None:
            command = [sys.executable, "-m", "repro.cli", *argv]
        else:
            command = [sys.executable, str(BENCH / "serve_traced.py"),
                       str(records), *argv]
        self._log = open(store_dir.parent / f"{store_dir.name}.log", "w")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=_child_env(), cwd=ROOT,
        )
        self.host, self.port = self._endpoint(timeout=60.0)

    def _endpoint(self, timeout: float) -> tuple[str, int]:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            self.close()
            raise BenchError(f"repro serve did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        return host, int(port)

    def call(self, request):
        from repro.service import submit_remote

        return submit_remote(self.host, self.port, request,
                             timeout=JOB_TIMEOUT_S)

    def snapshot(self) -> dict:
        from repro.service.server import call

        return call(self.host, self.port, {"op": "metrics"},
                    timeout=JOB_TIMEOUT_S)["metrics"]

    def pids(self) -> list[int]:
        return [self.proc.pid, *measure.children(self.proc.pid)]

    def close(self) -> list[int]:
        """SIGINT, the signal ``repro serve`` turns into a drained
        ``service.shutdown()``; anything still running afterwards is a
        survivor, killed here and reported."""
        pids = self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            pass
        survivors = _survivors(pids)
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return survivors


def _survivors(pids: list[int], grace_s: float = 10.0) -> list[int]:
    """Processes of ``pids`` still alive after ``grace_s``; killed."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline and any(map(measure.alive, pids)):
        time.sleep(0.05)
    survivors = [pid for pid in pids if measure.alive(pid)]
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return survivors


# -- load generators -----------------------------------------------------

class Tape:
    """The workload's request stream, materialised once and replayed by
    every pass of a run (same seed, same inputs).  ``iter(tape)`` starts
    from the first request."""

    def __init__(self, stream):
        self._stream = stream
        self._items: list = []

    def __getitem__(self, index: int):
        while len(self._items) <= index:
            self._items.append(next(self._stream))
        return self._items[index]


def _fail(outcome: Outcome, exc: BaseException) -> None:
    outcome.done = time.perf_counter()
    outcome.error = type(exc).__name__


def closed_burst(service, requests: list) -> list[Outcome]:
    """Submit every request at once, then collect results as they land
    (polled every ``POLL_S``, the resolution of "result in hand")."""
    outcomes = []
    pending = []
    landed = []
    for request in requests:
        outcome = Outcome(request, time.perf_counter())
        outcomes.append(outcome)
        try:
            pending.append((outcome, service.submit(request)))
        except Exception as exc:  # refused: counted, the run goes on
            _fail(outcome, exc)
    while pending:
        time.sleep(POLL_S)
        now = time.perf_counter()
        still = []
        for outcome, handle in pending:
            if handle.done():
                try:
                    landed.append((outcome, handle.result(0)))
                    outcome.done = now
                except Exception as exc:
                    _fail(outcome, exc)
            elif now - outcome.sent > JOB_TIMEOUT_S:
                handle.cancel()
                outcome.done = now
                outcome.error = "Timeout"
            else:
                still.append((outcome, handle))
        pending = still
    for outcome, result in landed:
        outcome.settle(result)
    return outcomes


def closed_loop(call, next_request, clients: int) -> list[Outcome]:
    """``clients`` threads, each sending its next request only after the
    previous one returned; ``next_request()`` returns ``None`` to stop.
    Results are settled after the loop, so one client's bookkeeping never
    holds the interpreter lock while another client is being timed."""
    landed = []

    def client() -> None:
        while (request := next_request()) is not None:
            outcome = Outcome(request, time.perf_counter())
            try:
                result = call(request)
                outcome.done = time.perf_counter()
            except Exception as exc:  # counted, the client goes on
                _fail(outcome, exc)
                result = None
            landed.append((outcome, result))

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for outcome, result in landed:
        if result is not None:
            outcome.settle(result)
    return [outcome for outcome, _result in landed]


def _shared(requests):
    """A thread-safe ``next_request`` drawing from one iterator."""
    lock = threading.Lock()

    def next_request():
        with lock:
            return next(requests, None)

    return next_request


def _until(deadline: float, requests):
    """``requests`` until the ``perf_counter`` deadline passes."""
    while time.perf_counter() < deadline:
        yield next(requests)


def _resend(requests: list, deadline: float):
    """``requests`` over and over, until at least ``MIN_HITS_PER_ROUND``
    were sent and the ``perf_counter`` deadline has passed."""
    for sent, request in enumerate(itertools.cycle(requests)):
        if sent >= MIN_HITS_PER_ROUND and time.perf_counter() >= deadline:
            return
        yield request


# -- one pass ------------------------------------------------------------

def _start(workload, tmp_root: Path, records: Path | None):
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=tmp_root))
    if workload.front_end == "tcp":
        sut = TcpServer(store_dir, records)
        warm = closed_loop(sut.call, _shared(iter(workload.warmup)),
                           workload.clients)
    else:
        sut = InProcessService(store_dir)
        warm = closed_burst(sut.service, list(workload.warmup))
    errors = [o.error for o in warm if o.error]
    if errors:
        sut.close()
        raise BenchError(f"warm-up failed: {Counter(errors)}")
    return sut


def run_pass(workload, tape: Tape, seconds: float, tmp_root: Path,
             recorder=None) -> Pass:
    """Set up ``SETUPS`` times, then run the timed rounds on the last
    set-up.  ``recorder`` (traced in-process pass) is installed
    before the first set-up, so the pool forks with the wrappers in."""
    traced_tcp = recorder is not None and workload.front_end == "tcp"
    records = tmp_root / "server-records.json" if traced_tcp else None
    if recorder is not None and not traced_tcp:
        recorder.install()
    try:
        setups = []
        for attempt in range(SETUPS):
            started = time.perf_counter()
            sut = _start(workload, tmp_root, records)
            setups.append(time.perf_counter() - started)
            if attempt < SETUPS - 1:
                _check_survivors(sut.close())
        try:
            result = _timed_rounds(workload, sut, tape, seconds, setups)
            result.peak_rss_mb = max(map(measure.peak_rss_mib, sut.pids()))
        finally:
            _check_survivors(sut.close())
    finally:
        if recorder is not None and not traced_tcp:
            recorder.uninstall()
    keys = {job_key(o.request) for o in result.cold if o.ok}
    result.entry_bytes = [
        (sut.store_dir / "objects" / f"{key}.json").stat().st_size
        for key in keys
    ]
    if traced_tcp:
        result.records = layers.LayerRecorder.from_dict(
            json.loads(records.read_text()))
    elif recorder is not None:
        result.records = recorder
    return result


def _timed_rounds(workload, sut, tape: Tape, seconds: float, setups) -> Pass:
    """Rounds until the cold parts add up to ``seconds``.  A round is a
    cold part -- one closed burst of a block (in-process), or ``ROUND_S``
    of the closed client loop (TCP) -- then a warm part resending the
    round's requests (cyclically, see ``_resend``).
    Interleaving spreads the hit samples over the whole run, so a short
    stall of the machine moves them less."""
    requests = iter(tape)
    before = sut.snapshot()
    start = time.perf_counter()
    cold, warm_rounds, rates = [], [], []
    cold_seconds = 0.0
    while cold_seconds < seconds:
        if workload.front_end == "tcp":
            deadline = time.perf_counter() + ROUND_S
            fresh = closed_loop(sut.call, _shared(_until(deadline, requests)),
                                workload.clients)
        else:
            fresh = closed_burst(sut.service, list(
                itertools.islice(requests, workload.block_size)))
        fresh.sort(key=lambda o: o.sent)
        span = max(o.done for o in fresh) - fresh[0].sent
        cold_seconds += span
        rates.append(sum(o.ok for o in fresh) / span)
        cold += fresh
        warm_rounds.append(closed_loop(
            sut.call,
            _shared(_resend([o.request for o in fresh],
                            time.perf_counter() + WARM_SHARE * span)),
            workload.clients))
    window = (start, time.perf_counter())
    after = sut.snapshot()
    return Pass(setups=setups, cold=cold, warm_rounds=warm_rounds,
                round_rates=rates,
                cold_seconds=cold_seconds, window=window,
                batching=(before["batching"], after["batching"]))


def _check_survivors(survivors: list[int]) -> None:
    if survivors:
        raise BenchError(
            f"processes of the system under test survived shutdown: "
            f"{survivors}")


# -- correctness ---------------------------------------------------------

def reference_results(requests: list) -> tuple[dict, Counter]:
    """Reference ``result_content`` per store key, computed outside the
    timed window by ``reference.py`` (in ``execute_elsewhere``).  The
    first ``SPOT_CHECKS`` ordinary jobs, whose references come from
    ``run_batched``, are also recomputed here with ``execute_request`` and
    must agree."""
    from repro.store.replay import execute_request

    unique = list({job_key(r): r for r in requests}.items())
    refs = dict(zip((key for key, _r in unique),
                    execute_elsewhere([r for _key, r in unique])))
    problems = Counter()
    plain = [(key, r) for key, r in unique if r.n_islands == 1]
    for key, request in plain[:SPOT_CHECKS]:
        if result_content(execute_request(request)) != refs[key]:
            problems["reference disagrees with execute_request"] += 1
    return refs, problems


def execute_elsewhere(requests: list) -> list[str]:
    """``reference.reference_contents`` of ``requests``, split over
    ``N_WORKERS`` fresh interpreters running ``reference.py`` (clean of
    this process's threads and state).  Each is waited for on every path
    out, and none leaves a helper process behind."""
    if not requests:
        return []
    shares = [requests[i::N_WORKERS] for i in range(N_WORKERS)]
    procs = []
    try:
        for share in shares:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "reference.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                env=_child_env(), cwd=ROOT,
            )
            procs.append(proc)
            proc.stdin.write(pickle.dumps(share))
            proc.stdin.close()
        outputs = [proc.stdout.read() for proc in procs]
        codes = [proc.wait() for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if any(codes):
        raise BenchError(f"reference computation failed: exit codes {codes}")
    contents = [None] * len(requests)
    for i, output in enumerate(outputs):
        contents[i::N_WORKERS] = pickle.loads(output)
    return contents


def verify(cold: list[Outcome], warm: list[Outcome], refs: dict) -> Counter:
    """Failures by kind: errors, refusals and timeouts as reported, cold
    results that differ from their reference or came from the cache, warm
    results that missed the store or differ from their cold result."""
    failures = Counter()
    cold_by_key = {}
    for outcome in cold:
        key = job_key(outcome.request)
        if outcome.error:
            failures[f"cold {outcome.error}"] += 1
        elif outcome.cache_hit:
            failures["cold job served from the store"] += 1
        elif outcome.content != refs[key]:
            failures["cold result differs from reference"] += 1
        else:
            cold_by_key[key] = outcome.content
    for outcome in warm:
        key = job_key(outcome.request)
        if outcome.error:
            failures[f"warm {outcome.error}"] += 1
        elif not outcome.cache_hit:
            failures["warm repeat not served from the store"] += 1
        elif outcome.content != cold_by_key.get(key):
            failures["warm result differs from cold result"] += 1
    return failures


# -- metrics -------------------------------------------------------------

def _latencies_ms(outcomes: list[Outcome]) -> list[float]:
    return [(o.done - o.sent) * 1e3 for o in outcomes if o.ok]


def end_to_end(p: Pass) -> dict:
    """``jobs_per_s`` and the cold latencies pool every round.  The hit
    latencies are each warm part's percentile (over at least
    ``MIN_HITS_PER_ROUND`` samples) averaged over the rounds: on a shared
    machine a warm part runs in a fast or a slow state, and a median
    across rounds jumps between the two where a mean moves smoothly."""
    latency = _latencies_ms(p.cold)
    hit_rounds = [_latencies_ms(part) for part in p.warm_rounds]
    if not latency or not all(hit_rounds):
        raise BenchError("no successful job to measure")
    return {
        "jobs_per_s": len(latency) / p.cold_seconds,
        "latency_p50_ms": measure.percentile(latency, 50),
        "latency_p95_ms": measure.percentile(latency, 95),
        "hit_latency_p50_ms": statistics.fmean(
            measure.percentile(hits, 50) for hits in hit_rounds),
        "hit_latency_p95_ms": statistics.fmean(
            measure.percentile(hits, 95) for hits in hit_rounds),
        "setup_s": measure.median(p.setups),
        "peak_rss_mb": p.peak_rss_mb,
    }


def per_layer(p: Pass) -> dict:
    cold = [o for o in p.cold if o.ok]
    warm = [o for o in p.warm if o.ok]
    metrics = layers.layer_metrics(p.records, cold, warm, p.window,
                                   p.cold_seconds, N_WORKERS)
    before, after = p.batching
    chunks = after["chunks"] - before["chunks"]
    occupancy = (after["mean_occupancy"] * after["chunks"]
                 - before["mean_occupancy"] * before["chunks"]) / chunks
    metrics["batch.mean_occupancy"] = (occupancy, "ratio", chunks)
    metrics["batch.chunks"] = (chunks, "count", chunks)
    metrics["store.hit_ratio"] = (
        sum(o.cache_hit for o in warm) / len(p.warm), "ratio",
        len(p.warm))
    metrics["store.entry_bytes"] = (
        sum(p.entry_bytes) / len(p.entry_bytes), "bytes", len(p.entry_bytes))
    return metrics


def _latency_note(values: list[float]) -> str:
    """Sample count and support of a p95 over pooled ``values`` (ms)."""
    note = f"n={len(values)}, " \
           f"{measure.samples_beyond(len(values), 95)} beyond p95"
    tail = measure.supported_percentile(values)
    if tail is not None:
        note += f"; highest supported p{tail[0]:.1f} = {tail[1]:.3f} ms"
    return note


def _rounds_note(rounds: list[list[Outcome]]) -> str:
    """Sample counts of per-round p95s (the smallest round has the least
    support)."""
    counts = sorted(len(part) for part in rounds)
    return f"n={counts[0]}..{counts[-1]} per round, " \
           f">={measure.samples_beyond(counts[0], 95)} beyond p95"


def print_table(heading: str, workload, e2e: dict, p: Pass, layer=None,
                overhead=None) -> None:
    print(heading)
    print(f"  why: {workload.why}")
    print(f"  loads: {', '.join(workload.loads)}")
    print(f"  bypasses: {', '.join(workload.bypasses)}")
    print(f"  cold jobs {len(p.cold)}, warm repeats {len(p.warm)}, "
          f"setups {', '.join(f'{s:.3f}' for s in p.setups)} s")
    rates = sorted(p.round_rates)
    print(f"  rounds {len(rates)}: jobs/s per round {rates[0]:.2f} .. "
          f"{rates[-1]:.2f}")
    print("  end-to-end:")
    notes = {"latency_p95_ms": _latency_note(_latencies_ms(p.cold)),
             "hit_latency_p95_ms": _rounds_note(p.warm_rounds)}
    for name, value in e2e.items():
        line = f"    {name:<24}{value:>14.4f} {END_TO_END_UNITS[name]}"
        print(line + (f"   ({notes[name]})" if name in notes else ""))
    if layer is not None:
        print("  per-layer (traced pass):")
        for name, (value, unit, samples) in sorted(layer.items()):
            print(f"    {name:<32}{value:>16.4f} {unit:<14} n={samples}")
        print("  trace.overhead_frac (traced - untraced) / untraced:")
        for name, value in overhead.items():
            print(f"    {name:<24}{value:>+14.4f}")


# -- one run -------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints the table and returns the result object.
    A process of this run still alive at its end is killed and fails it."""
    try:
        return _run(WORKLOADS[workload_name], seed, seconds, trace)
    finally:
        _check_survivors(_survivors(measure.children(os.getpid())))


def _run(workload, seed: int, seconds: float, trace: bool) -> dict:
    tmp_base = ROOT / ".perfbench_tmp"
    tmp_base.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_base))
    try:
        tape = Tape(fresh_requests(workload, seed))
        passes = [run_pass(workload, tape, seconds, tmp_root)]
        if trace:
            passes.append(run_pass(workload, tape, seconds, tmp_root,
                                   recorder=layers.LayerRecorder()))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    refs, failures = reference_results(
        [o.request for p in passes for o in p.cold])
    attempted = 0
    for p in passes:
        failures += verify(p.cold, p.warm, refs)
        attempted += len(p.cold) + len(p.warm)
    heading = (f"perfbench {workload.name}: seed={seed} seconds={seconds} "
               f"trace={int(trace)}")
    untraced = end_to_end(passes[0])
    if trace:
        traced = end_to_end(passes[1])
        layer = per_layer(passes[1])
        overhead = {name: (traced[name] - untraced[name]) / untraced[name]
                    for name in untraced}
        print_table(heading, workload, traced, passes[1], layer, overhead)
        metrics = {name: {"value": layer[name][0], "unit": layer[name][1]}
                   for name in PER_LAYER}
        for name, value in overhead.items():
            metrics[f"trace.overhead_frac.{name}"] = {
                "value": value, "unit": "ratio"}
    else:
        print_table(heading, workload, untraced, passes[0])
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in untraced.items()}
    failed = sum(failures.values())
    print(f"  errors: attempted {attempted}, failed {failed}, "
          f"error_rate {failed / attempted:.4f}"
          + (f" {dict(failures)}" if failures else ""))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
