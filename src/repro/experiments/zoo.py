"""The workload zoo: named, seed-pinned scenarios beyond the paper's grid.

Three workload families extend the paper's combinational Tables V/VII-IX
evaluation, each expressed as ordinary :class:`~repro.service.jobs.GARequest`
scenarios so the whole zoo runs through the serving layer and the
content-addressed store:

* **sequential logic** (Soleimani et al., PAPERS.md): evolve the complete
  next-state table of a 4-state Moore machine against counter / sequence-
  detector targets — on the behavioral engine, an archipelago, and the
  cycle-accurate Fig. 4 testbench
  (``substrate="cycle"``);
* **scaled EHW** (Sec. III-D / Fig. 6): 6-input multiplexer and parity
  targets on an 8-cell virtual fabric whose 32-bit configuration runs on
  the dual-core composition (``substrate="dual32"``);
* **constrained multi-objective**: two conflicting sequential targets
  blended through the 8-way FEM mux with a feasibility constraint
  (``mo_seq_blend``).

Every scenario is pinned to a seed from the paper's FPGA experiment seed
list, and every scenario has a committed golden summary under
``goldens/`` that ``tests/experiments/test_goldens.py`` replays
bit-identically — the zoo doubles as a differential conformance suite
across engines.  All zoo fitness functions are integer-exact (no libm),
so the goldens are portable across platforms and numpy versions.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.params import GAParameters
from repro.experiments.harness import Experiment, Scenario
from repro.service.jobs import GARequest

#: Where the committed golden summaries live (one JSON per scenario).
GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"


def _params(gens: int, pop: int, seed: int) -> GAParameters:
    # crossover 10/16, mutation 2/16: the paper's Table VII operating point
    return GAParameters(
        n_generations=gens,
        population_size=pop,
        crossover_threshold=10,
        mutation_threshold=2,
        rng_seed=seed,
    )


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="seq-counter",
            request=GARequest(
                params=_params(24, 32, 0x2961), fitness_name="seq_counter4"
            ),
            description="mod-4 enable counter, exact engine",
        ),
        Scenario(
            name="seq-detector",
            request=GARequest(
                params=_params(24, 32, 0x061F), fitness_name="seq_detect101"
            ),
            description='overlapping "101" detector, exact engine',
        ),
        Scenario(
            name="seq-archipelago",
            request=GARequest(
                params=_params(16, 16, 0xB342),
                fitness_name="seq_detect101",
                n_islands=4,
                migration_interval=4,
                topology="ring",
            ),
            description="detector on a 4-island ring archipelago",
        ),
        Scenario(
            name="seq-cycle",
            request=GARequest(
                params=_params(8, 16, 0x2961),
                fitness_name="seq_counter4",
                substrate="cycle",
            ),
            description="mod-4 counter on the cycle-accurate Fig. 4 testbench",
        ),
        Scenario(
            name="mux6-dual32",
            request=GARequest(
                params=_params(12, 16, 0xAAAA),
                fitness_name="fabric32_mux6",
                substrate="dual32",
            ),
            description="6-input multiplexer on the dual-core 32-bit fabric",
        ),
        Scenario(
            name="parity6-dual32",
            request=GARequest(
                params=_params(12, 16, 0xA0A0),
                fitness_name="fabric32_parity6",
                substrate="dual32",
            ),
            description="6-input odd parity on the dual-core 32-bit fabric",
        ),
        Scenario(
            name="mo-constrained",
            request=GARequest(
                params=_params(24, 32, 0xFFFF), fitness_name="mo_seq_blend"
            ),
            description="constrained multi-objective blend via the FEM mux",
        ),
    )
}


#: The zoo's experiments: each a themed slice of the scenarios above.
ZOO: dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in (
        Experiment(
            name="sequential",
            scenarios=(
                SCENARIOS["seq-counter"],
                SCENARIOS["seq-detector"],
                SCENARIOS["mo-constrained"],
            ),
            nb_repeats=3,
            description="sequential-logic evolution + multi-objective blend",
        ),
        Experiment(
            name="engines",
            scenarios=(
                SCENARIOS["seq-counter"],
                SCENARIOS["seq-archipelago"],
            ),
            nb_repeats=2,
            description="one workload on one population and on islands",
        ),
        Experiment(
            name="substrates",
            scenarios=(
                SCENARIOS["seq-cycle"],
                SCENARIOS["mux6-dual32"],
                SCENARIOS["parity6-dual32"],
            ),
            nb_repeats=2,
            description="cycle-accurate testbench + 32-bit scaled core",
        ),
        Experiment(
            name="zoo-smoke",
            scenarios=tuple(SCENARIOS.values()),
            nb_repeats=1,
            description="every zoo scenario once (the CI smoke sweep)",
        ),
    )
}


def experiment(name: str, nb_repeats: int | None = None) -> Experiment:
    """A zoo experiment by name, optionally overriding the repeat count."""
    try:
        exp = ZOO[name]
    except KeyError:
        raise KeyError(
            f"unknown zoo experiment {name!r}; available: {sorted(ZOO)}"
        ) from None
    if nb_repeats is not None and nb_repeats != exp.nb_repeats:
        exp = Experiment(
            name=exp.name,
            scenarios=exp.scenarios,
            nb_repeats=nb_repeats,
            description=exp.description,
        )
    return exp


def golden_path(scenario_name: str) -> Path:
    return GOLDENS_DIR / f"{scenario_name}.json"


#: Golden file format version.
GOLDEN_SCHEMA_VERSION = 1


def make_golden(scenario: Scenario) -> dict:
    """Cold-compute one scenario's repeat-0 run into a golden summary.

    The golden pins the full deterministic result (every canonical field,
    via the same rendering ``repro replay`` compares), its sha256 digest,
    and the content-addressed store key — so the committed file detects
    any drift in champion, trace, evaluations count, or key schema.
    """
    import hashlib

    from repro.store.keys import (
        canonical_json,
        canonical_result_dict,
        job_key,
    )
    from repro.store.replay import execute_request

    result = execute_request(scenario.request)
    digest = hashlib.sha256(
        canonical_json(canonical_result_dict(result)).encode()
    ).hexdigest()
    return {
        "schema": GOLDEN_SCHEMA_VERSION,
        "scenario": scenario.name,
        "description": scenario.description,
        "request": scenario.request.to_dict(),
        "store_key": job_key(scenario.request),
        "result": result.to_dict(),
        "result_digest": digest,
    }


def write_goldens(out_dir: Path | None = None, progress=None) -> list[Path]:
    """(Re)generate every zoo scenario's committed golden file."""
    import json

    out = Path(out_dir) if out_dir is not None else GOLDENS_DIR
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for scenario in SCENARIOS.values():
        if progress is not None:
            progress(f"golden: {scenario.name}")
        golden = make_golden(scenario)
        path = out / f"{scenario.name}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        paths.append(path)
    return paths


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    import sys

    for p in write_goldens(progress=lambda m: print(m, file=sys.stderr)):
        print(p)
