"""Sample statistics and Linux process probes for the serving benchmark."""

from __future__ import annotations

import math
import os
from pathlib import Path

#: a reported tail percentile must leave at least this many samples above it
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def supported_percentile(values, min_beyond: int = MIN_BEYOND):
    """The highest percentile that keeps ``min_beyond`` samples above it.

    Returns ``(q, value, n)``: the percentile (nearest rank ``n -
    min_beyond``), its value, and the sample count.  ``None`` when the
    sample has ``min_beyond`` or fewer values, so no percentile qualifies.
    """
    n = len(values)
    if n <= min_beyond:
        return None
    rank = n - min_beyond
    return 100.0 * rank / n, sorted(values)[rank - 1], n


def median(values) -> float:
    return percentile(values, 50)


# -- processes of the system under test ----------------------------------

def _status_field(pid: int, field: str) -> str | None:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return line.split(":", 1)[1].strip()
    return None


def peak_rss_mib(pid: int) -> float:
    """Largest resident set the process has had so far (``VmHWM``), MiB;
    0.0 once the process is gone."""
    value = _status_field(pid, "VmHWM")
    if value is None:
        return 0.0
    return int(value.split()[0]) / 1024.0


def children(pid: int) -> list[int]:
    """Live direct children of ``pid`` (a scan of ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return sorted(found)


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    state = _status_field(pid, "State")
    return state is not None and not state.startswith("Z")
