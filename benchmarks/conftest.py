"""Shared helpers for the benchmark harnesses.

Each ``bench_*.py`` regenerates one table or figure of the paper.  The
pytest-benchmark plugin times the regeneration; the printed report is the
reproduced artefact itself (rows or an ASCII plot) with the paper's values
alongside, mirroring EXPERIMENTS.md.

At session end the collected timings are also dumped to
``BENCH_results.json`` in the repo root, so the performance trajectory
stays machine-readable across PRs (the CI smoke job runs the suite with
``--benchmark-disable``, which still exercises every bench body once and
records the run with empty timing stats).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
import warnings

#: Version of the BENCH_results.json payload and the per-run trajectory
#: rows appended to BENCH_trajectory.jsonl.  Bump when a field changes
#: meaning so downstream trend tooling can branch on it.
RESULTS_SCHEMA_VERSION = 1


def print_table(title: str, rows: list[dict], keys: list[str] | None = None) -> None:
    """Render rows as an aligned text table to the captured stdout."""
    if not rows:
        print(f"\n== {title} == (no rows)")
        return
    keys = keys or list(rows[0].keys())
    widths = {
        k: max(len(str(k)), *(len(str(r.get(k, ""))) for r in rows)) for k in keys
    }
    print(f"\n== {title} ==")
    print(" | ".join(str(k).ljust(widths[k]) for k in keys))
    print("-+-".join("-" * widths[k] for k in keys))
    for r in rows:
        print(" | ".join(str(r.get(k, "")).ljust(widths[k]) for k in keys))


def _git_sha(root: str) -> str | None:
    """The commit the benches ran on: CI's ``GITHUB_SHA``, else the
    checkout's ``HEAD`` (None outside a git checkout), suffixed
    ``-dirty`` when ``src`` or ``benchmarks`` differ from it — such a
    row measured uncommitted code, not that commit."""
    if os.environ.get("GITHUB_SHA"):
        return os.environ["GITHUB_SHA"]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        dirty = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--", "src", "benchmarks"],
            cwd=root, capture_output=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    if out.returncode != 0 or not sha:
        return None
    return f"{sha}-dirty" if dirty.returncode != 0 else sha


def _maybe(getter):
    try:
        value = getter()
    except Exception:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    # keep counts (rounds, iterations) as ints; only real measurements
    # become floats
    return value if isinstance(value, int) else float(value)


def pytest_sessionfinish(session, exitstatus):
    """Dump per-bench timings to ``BENCH_results.json`` (repo root)."""
    bsession = getattr(session.config, "_benchmarksession", None)
    if bsession is None:
        return
    rows = []
    for bench in getattr(bsession, "benchmarks", []):
        stats = getattr(bench, "stats", None)
        rows.append(
            {
                "name": getattr(bench, "name", None),
                "fullname": getattr(bench, "fullname", None),
                "group": getattr(bench, "group", None),
                "rounds": _maybe(lambda: stats.rounds),
                "mean_s": _maybe(lambda: stats.mean),
                "min_s": _maybe(lambda: stats.min),
                "max_s": _maybe(lambda: stats.max),
                "stddev_s": _maybe(lambda: stats.stddev),
                "extra_info": dict(getattr(bench, "extra_info", None) or {}),
            }
        )
    payload = {
        "schema": RESULTS_SCHEMA_VERSION,
        "generated_unix": time.time(),
        "pytest_exitstatus": int(exitstatus),
        "benchmarks_disabled": bool(getattr(bsession, "disabled", False)),
        "benchmarks": sorted(rows, key=lambda r: str(r["fullname"])),
    }
    path = os.path.join(str(session.config.rootdir), "BENCH_results.json")
    try:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:  # never fail a bench run over the artefact dump
        warnings.warn(
            f"could not write bench artefact {path}: {exc}",
            RuntimeWarning,
            stacklevel=1,
        )
        return

    # one compact trajectory row per run: mean time + headline extra_info
    # per bench, appended so the perf history survives across PRs
    trajectory_row = {
        "schema": RESULTS_SCHEMA_VERSION,
        "generated_unix": payload["generated_unix"],
        "pytest_exitstatus": payload["pytest_exitstatus"],
        "benchmarks_disabled": payload["benchmarks_disabled"],
        "git_sha": _git_sha(str(session.config.rootdir)),
        "benchmarks": {
            str(r["fullname"]): {
                "group": r["group"],
                "mean_s": r["mean_s"],
                "extra_info": r["extra_info"],
            }
            for r in rows
        },
    }
    trajectory_path = os.path.join(
        str(session.config.rootdir), "BENCH_trajectory.jsonl"
    )
    try:
        with open(trajectory_path, "a") as handle:
            json.dump(trajectory_row, handle, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        warnings.warn(
            f"could not append trajectory row {trajectory_path}: {exc}",
            RuntimeWarning,
            stacklevel=1,
        )
