"""The TCP front end and the ``repro serve`` / ``repro submit`` CLI."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.params import GAParameters
from repro.service import (
    GARequest,
    GAService,
    ServiceError,
    ServiceTCPServer,
    submit_remote,
)
from repro.service.server import call

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def request(seed=45890, gens=8, pop=16) -> GARequest:
    return GARequest(
        params=GAParameters(
            n_generations=gens, population_size=pop,
            crossover_threshold=10, mutation_threshold=1, rng_seed=seed,
        )
    )


@pytest.fixture()
def live_server():
    service = GAService(workers=1, mode="thread").start()
    server = ServiceTCPServer(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.endpoint
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.shutdown()


class TestTCPServer:
    def test_ping(self, live_server):
        host, port = live_server
        assert call(host, port, {"op": "ping"}) == {"ok": True, "op": "ping"}

    def test_submit_round_trip_returns_full_result(self, live_server):
        host, port = live_server
        result = submit_remote(host, port, request(), timeout=30)
        assert result.best_fitness >= 0
        assert len(result.history) == 8 + 1  # gen 0 .. gens

    def test_metrics_op_reflects_served_jobs(self, live_server):
        host, port = live_server
        submit_remote(host, port, request(seed=10593), timeout=30)
        response = call(host, port, {"op": "metrics"})
        assert response["ok"]
        assert response["metrics"]["jobs"]["completed"] >= 1

    def test_unknown_op_and_malformed_json_are_soft_errors(self, live_server):
        host, port = live_server
        bad_op = call(host, port, {"op": "explode"})
        assert not bad_op["ok"] and bad_op["error"]["kind"] == "BadRequest"
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            line = sock.makefile("r").readline()
        response = json.loads(line)
        assert not response["ok"]
        assert response["error"]["kind"] == "MalformedJSON"
        assert "detail" in response["error"]

    def test_over_large_fan_in_is_bad_request_and_never_queued(
        self, live_server
    ):
        # every illegal combination is refused at admission with the one
        # legality check's message, never queued to fail in a worker
        host, port = live_server
        illegal = [
            (
                dict(request(pop=4).to_dict(), n_islands=8, topology="random:4"),
                "topology fan-in 4 would replace a whole population of 4",
            ),
            (
                dict(request(pop=200).to_dict(), substrate="cycle"),
                "cycle-accurate core supports populations up to 128 "
                "(two banks in the 256-word GA memory); got 200",
            ),
            (
                dict(request().to_dict(), upset_rate=0.05),
                "upset_rate 0.05 needs a protection preset; "
                'pass protection="unprotected" to inject raw upsets',
            ),
        ]
        for job, detail in illegal:
            response = call(host, port, {"op": "submit", "job": job})
            assert not response["ok"]
            assert response["error"]["kind"] == "BadRequest"
            assert response["error"]["detail"] == detail
        jobs = call(host, port, {"op": "metrics"})["metrics"]["jobs"]
        assert jobs["submitted"] == 0 and jobs["failed"] == 0

    def test_remote_rejection_surfaces_as_service_error(self):
        # a closed service rejects submissions; the client must see a
        # ServiceError naming the remote failure, not a silent hang
        service = GAService(workers=1, mode="thread").start()
        service.shutdown(drain=True)
        server = ServiceTCPServer(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.endpoint
            with pytest.raises(ServiceError, match="ServiceClosedError"):
                submit_remote(host, port, request(), timeout=10)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestCLIRoundTrip:
    def test_serve_then_submit_subprocesses(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--max-jobs", "1", "--workers", "1", "--mode", "thread",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=REPO_ROOT,
        )
        try:
            banner = server.stdout.readline().strip()
            assert banner.startswith("serving on ")
            host, port = banner.split()[-1].rsplit(":", 1)
            submit = subprocess.run(
                [
                    sys.executable, "-m", "repro", "submit",
                    "--host", host, "--port", port,
                    "--pop", "16", "--gens", "8", "--seed", "45890",
                ],
                capture_output=True, text=True, env=env, cwd=REPO_ROOT,
                timeout=60,
            )
            assert submit.returncode == 0, submit.stderr
            assert "best" in submit.stdout
            assert server.wait(timeout=30) == 0  # --max-jobs 1 exits cleanly
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    def test_sigterm_drains_like_sigint(self):
        """``repro serve`` with process workers shuts the service down on
        SIGTERM: it exits cleanly and leaves no pool worker behind."""
        if not Path("/proc/self/stat").exists():
            pytest.skip("child discovery reads /proc")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", "2", "--mode", "process",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=REPO_ROOT,
        )
        children: list[int] = []
        try:
            banner = server.stdout.readline().strip()
            assert banner.startswith("serving on ")
            host, port = banner.split()[-1].rsplit(":", 1)
            result = submit_remote(host, int(port), request(), timeout=60)
            assert result.best_fitness >= 0
            children = _children(server.pid)
            assert children  # the job ran in a forked pool worker
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=60) == 0
            deadline = time.monotonic() + 10
            while any(_alive(pid) for pid in children):
                assert time.monotonic() < deadline, "pool workers outlived serve"
                time.sleep(0.05)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            for pid in children:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid`` (Linux ``/proc``)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while scanning
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def _alive(pid: int) -> bool:
    """True unless ``pid`` is gone or a zombie awaiting its reaper."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"
