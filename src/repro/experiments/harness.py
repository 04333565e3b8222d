"""The experiment harness: named, repeatable scenario sweeps.

The paper's evaluation is a fixed grid; this module is the general form —
an :class:`Experiment` is a named list of :class:`Scenario`s, each any
:class:`~repro.service.jobs.GARequest`-expressible job (the behavioural
engine, archipelagos, hardened runs, the cycle-accurate testbench, the
dual-core 32-bit composition), swept over ``nb_repeats`` derived seeds and
executed through the serving layer with a content-addressed
:class:`~repro.store.runstore.RunStore` attached — so re-running an
experiment is nearly free (every repeated scenario is a cache hit) and
every row is replayable by store key.

Seed derivation contract (property-tested in
``tests/experiments/test_harness.py``):

* repeat 0 runs the scenario's own pinned seed, untouched;
* repeat ``i > 0`` draws a seed from ``sha256(scenario-name, base seed,
  i)`` — a pure function of the scenario itself, so adding, removing, or
  reordering *other* scenarios in the experiment never moves any seed;
* collisions within a scenario's repeat list are resolved by a
  deterministic salt bump (seeds must be distinct or two repeats would
  alias to one store key).

An experiment run writes a per-experiment output directory::

    <out>/<experiment-name>/
        results.jsonl    one JSON object per (scenario, repeat)
        summary.json     per-scenario aggregates + run metadata
        summary.md       the same, as a readable table

"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.service.jobs import GARequest

#: results.jsonl / summary.json format version (schema evolution guard
#: for downstream tooling and the perf-trajectory consumers).
#: v2: rows no longer carry an engine-mode column.
RESULTS_SCHEMA_VERSION = 2


def derive_seeds(scenario_name: str, base_seed: int, nb_repeats: int) -> list[int]:
    """The per-repeat RNG seeds of one scenario.

    Pure function of ``(scenario_name, base_seed, nb_repeats)`` — never of
    the surrounding experiment — with repeat 0 pinned to ``base_seed``.
    Derived seeds live in the core's 16-bit non-zero range and are
    pairwise distinct (deterministic salt-bump rejection on collision).
    """
    if nb_repeats < 1:
        raise ValueError(f"nb_repeats must be >= 1: {nb_repeats}")
    if not 1 <= base_seed <= 0xFFFF:
        raise ValueError(f"base_seed must be a non-zero 16-bit word: {base_seed}")
    seeds = [base_seed]
    for repeat in range(1, nb_repeats):
        salt = 0
        while True:
            digest = hashlib.sha256(
                f"{scenario_name}:{base_seed}:{repeat}:{salt}".encode()
            ).digest()
            seed = (int.from_bytes(digest[:2], "big") % 0xFFFF) + 1
            if seed not in seeds:
                break
            salt += 1
        seeds.append(seed)
    return seeds


@dataclass(frozen=True)
class Scenario:
    """One named, seed-pinned workload of an experiment.

    ``request`` carries everything, including the base seed
    (``request.params.rng_seed``); repeats re-seed via
    :func:`derive_seeds` and change nothing else.
    """

    name: str
    request: GARequest
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a non-empty name")

    @property
    def base_seed(self) -> int:
        return self.request.params.rng_seed

    def repeat_requests(self, nb_repeats: int) -> list[GARequest]:
        """The scenario's requests for repeats ``0..nb_repeats-1``."""
        return [
            replace(
                self.request, params=self.request.params.with_(rng_seed=seed)
            )
            for seed in derive_seeds(self.name, self.base_seed, nb_repeats)
        ]


@dataclass(frozen=True)
class Experiment:
    """A named list of scenarios swept over ``nb_repeats`` derived seeds."""

    name: str
    scenarios: tuple[Scenario, ...]
    nb_repeats: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("experiment needs a non-empty name")
        if not self.scenarios:
            raise ValueError(f"experiment {self.name!r} has no scenarios")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(
                f"experiment {self.name!r} has duplicate scenario names"
            )
        if self.nb_repeats < 1:
            raise ValueError(f"nb_repeats must be >= 1: {self.nb_repeats}")

    def jobs(self) -> list[tuple[Scenario, int, GARequest]]:
        """Every (scenario, repeat, request) of the sweep, in order."""
        out = []
        for scenario in self.scenarios:
            for repeat, request in enumerate(
                scenario.repeat_requests(self.nb_repeats)
            ):
                out.append((scenario, repeat, request))
        return out

    # ------------------------------------------------------------------
    def run(
        self,
        out_dir: str | Path,
        workers: int = 2,
        mode: str = "thread",
        store_dir: str | Path | None = None,
        timeout: float | None = None,
    ) -> "ExperimentResult":
        """Execute the sweep through a :class:`GAService` with a run store.

        ``store_dir`` defaults to ``<out_dir>/<name>/store`` so repeated
        runs of the same experiment hit the content-addressed cache; point
        it at a shared store to reuse results across experiments.
        Writes ``results.jsonl``/``summary.json``/``summary.md`` into the
        per-experiment directory and returns the in-memory result.
        """
        from repro.service.server import GAService

        exp_dir = Path(out_dir) / self.name
        exp_dir.mkdir(parents=True, exist_ok=True)
        store_path = Path(store_dir) if store_dir is not None else exp_dir / "store"

        jobs = self.jobs()
        t0 = time.perf_counter()
        with GAService(
            workers=workers, mode=mode, store_dir=store_path
        ) as service:
            results = service.run_all(
                [request for _, _, request in jobs], timeout=timeout
            )
        wall_s = time.perf_counter() - t0

        rows = [
            scenario_row(scenario, repeat, request, result)
            for (scenario, repeat, request), result in zip(jobs, results)
        ]
        experiment_result = ExperimentResult(
            experiment=self, rows=rows, wall_s=wall_s, out_dir=exp_dir
        )
        experiment_result.write()
        return experiment_result


def convergence_generation(result) -> int | None:
    """First generation whose best equals the final best (None: no trace)."""
    series = result.best_series()
    if not series:
        return None
    final = series[-1]
    for generation, best in enumerate(series):
        if best == final:
            return generation
    return None  # pragma: no cover - series always contains its last value


def scenario_row(scenario: Scenario, repeat: int, request, result) -> dict:
    """One results.jsonl row: identity, seed, store key, outcome."""
    return {
        "schema": RESULTS_SCHEMA_VERSION,
        "scenario": scenario.name,
        "repeat": repeat,
        "rng_seed": request.params.rng_seed,
        "substrate": request.substrate,
        "n_islands": request.n_islands,
        "fitness_name": request.fitness_name,
        "store_key": result.store_key,
        "cache_hit": result.cache_hit,
        "best_fitness": result.best_fitness,
        "best_individual": result.best_individual,
        "evaluations": result.evaluations,
        "convergence_generation": convergence_generation(result),
        "latency_s": result.latency_s,
    }


@dataclass
class ExperimentResult:
    """Everything one :meth:`Experiment.run` produced."""

    experiment: Experiment
    rows: list[dict]
    wall_s: float
    out_dir: Path
    #: populated by :meth:`write`
    summary: dict = field(default_factory=dict)

    def by_scenario(self) -> dict[str, list[dict]]:
        grouped: dict[str, list[dict]] = {
            s.name: [] for s in self.experiment.scenarios
        }
        for row in self.rows:
            grouped[row["scenario"]].append(row)
        return grouped

    def build_summary(self) -> dict:
        """Per-scenario aggregates over the repeat axis."""
        scenarios = {}
        for name, rows in self.by_scenario().items():
            bests = [row["best_fitness"] for row in rows]
            convergences = [
                row["convergence_generation"]
                for row in rows
                if row["convergence_generation"] is not None
            ]
            scenarios[name] = {
                "repeats": len(rows),
                "seeds": [row["rng_seed"] for row in rows],
                "store_keys": [row["store_key"] for row in rows],
                "cache_hits": sum(1 for row in rows if row["cache_hit"]),
                "best_fitness": max(bests),
                "mean_best_fitness": sum(bests) / len(bests),
                "worst_best_fitness": min(bests),
                "mean_convergence_generation": (
                    sum(convergences) / len(convergences)
                    if convergences
                    else None
                ),
                "evaluations": sum(row["evaluations"] for row in rows),
            }
        return {
            "schema": RESULTS_SCHEMA_VERSION,
            "experiment": self.experiment.name,
            "description": self.experiment.description,
            "nb_repeats": self.experiment.nb_repeats,
            "wall_s": self.wall_s,
            "scenarios": scenarios,
        }

    def write(self) -> None:
        """Persist results.jsonl + summary.json + summary.md atomically-ish."""
        from repro.experiments.report import experiment_summary_md

        self.summary = self.build_summary()
        lines = "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in self.rows
        )
        (self.out_dir / "results.jsonl").write_text(lines)
        (self.out_dir / "summary.json").write_text(
            json.dumps(self.summary, indent=2, sort_keys=True) + "\n"
        )
        (self.out_dir / "summary.md").write_text(
            experiment_summary_md(self.summary)
        )


def load_summary(out_dir: str | Path, name: str) -> dict:
    """Read back a previously written experiment summary."""
    path = Path(out_dir) / name / "summary.json"
    return json.loads(path.read_text())
