"""Property suite for the canonical job key (``repro.store.keys``).

The contract under test: the key is a pure function of the request's
determinism surface — equal surfaces collide, any perturbation of a
determinism field produces a fresh key, and scheduling-only fields
(priority, deadlines, retry policy, cache policy) never move it.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import GAParameters
from repro.fitness.functions import REGISTRY
from repro.service.jobs import GARequest, RetryPolicy
from repro.store.keys import (
    KEY_SCHEMA_VERSION,
    SCHEDULING_ONLY_FIELDS,
    canonical_json,
    canonical_request_dict,
    job_key,
)

params_st = st.builds(
    GAParameters,
    n_generations=st.integers(1, 1 << 20),
    population_size=st.sampled_from([2, 4, 8, 16, 24, 32, 64, 128, 256]),
    crossover_threshold=st.integers(0, 15),
    mutation_threshold=st.integers(0, 15),
    rng_seed=st.integers(1, 0xFFFF),
)

#: solo requests (protection/island constraints stay legal);
#: the scheduling fields vary freely so their irrelevance is exercised on
#: every example
requests_st = st.builds(
    GARequest,
    params=params_st,
    fitness_name=st.sampled_from(sorted(REGISTRY)),
    priority=st.integers(-5, 5),
    deadline_s=st.none() | st.floats(0.01, 100.0),
    record_trace=st.booleans(),
    use_cache=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(requests_st)
def test_equal_requests_equal_keys(request):
    clone = GARequest.from_dict(request.to_dict())
    assert job_key(request) == job_key(clone)
    assert canonical_json(canonical_request_dict(request)) == canonical_json(
        canonical_request_dict(clone)
    )


@settings(max_examples=60, deadline=None)
@given(requests_st, st.data())
def test_determinism_field_perturbation_changes_key(request, data):
    field = data.draw(
        st.sampled_from(
            [
                "n_generations",
                "population_size",
                "crossover_threshold",
                "mutation_threshold",
                "rng_seed",
                "fitness_name",
                "record_trace",
                "n_islands",
                "topology",
                "migration_interval",
                "campaign_seed",
            ]
        )
    )
    p = request.params
    if field == "n_generations":
        perturbed = replace(request, params=p.with_(n_generations=p.n_generations + 1))
    elif field == "population_size":
        pop = 16 if p.population_size != 16 else 32
        perturbed = replace(request, params=p.with_(population_size=pop))
    elif field == "crossover_threshold":
        perturbed = replace(
            request,
            params=p.with_(crossover_threshold=(p.crossover_threshold + 1) % 16),
        )
    elif field == "mutation_threshold":
        perturbed = replace(
            request,
            params=p.with_(mutation_threshold=(p.mutation_threshold + 1) % 16),
        )
    elif field == "rng_seed":
        perturbed = replace(
            request, params=p.with_(rng_seed=p.rng_seed % 0xFFFF + 1)
        )
    elif field == "fitness_name":
        other = data.draw(
            st.sampled_from(sorted(set(REGISTRY) - {request.fitness_name}))
        )
        perturbed = replace(request, fitness_name=other)
    elif field == "record_trace":
        perturbed = replace(request, record_trace=not request.record_trace)
    elif field == "n_islands":
        perturbed = replace(request, n_islands=4)
    elif field == "topology":
        # three islands keep the torus's fan-in at 1, legal for every
        # population size drawn above (pop 2 cannot take a fan-in of 2)
        perturbed = replace(request, topology="torus", n_islands=3)
        request = replace(request, n_islands=3)
    elif field == "migration_interval":
        perturbed = replace(request, migration_interval=request.migration_interval + 1)
    else:  # campaign_seed
        perturbed = replace(request, campaign_seed=request.campaign_seed + 1)
    assert job_key(perturbed) != job_key(request)


@settings(max_examples=60, deadline=None)
@given(requests_st, st.data())
def test_scheduling_fields_do_not_change_key(request, data):
    baseline = job_key(request)
    rescheduled = replace(
        request,
        priority=data.draw(st.integers(-10, 10)),
        deadline_s=data.draw(st.none() | st.floats(0.01, 500.0)),
        use_cache=data.draw(st.booleans()),
        retry=RetryPolicy(
            max_attempts=data.draw(st.integers(1, 8)),
            backoff_s=data.draw(st.floats(0.0, 1.0)),
        ),
    )
    assert job_key(rescheduled) == baseline
    # enforce-mode needs a deadline; still scheduling-only
    enforced = replace(request, deadline_s=5.0, deadline_mode="enforce")
    assert job_key(enforced) == baseline


@settings(max_examples=30, deadline=None)
@given(requests_st)
def test_canonical_surface_shape(request):
    surface = canonical_request_dict(request)
    assert surface["key_schema"] == KEY_SCHEMA_VERSION
    assert not SCHEDULING_ONLY_FIELDS & set(surface)
    assert "params" not in surface  # re-keyed as Table III words
    # six handshake words, [index, value] pairs in Table III order
    assert [row[0] for row in surface["table3"]] == [0, 1, 2, 3, 4, 5]


def test_protection_fields_join_the_key():
    base = GARequest(
        params=GAParameters(64, 32, 10, 1, 0x061F), fitness_name="mBF6_2"
    )
    hardened = replace(base, protection="hardened", upset_rate=1e-4)
    assert job_key(hardened) != job_key(base)
    assert job_key(replace(hardened, upset_rate=5e-4)) != job_key(hardened)
    assert job_key(replace(hardened, campaign_seed=1)) != job_key(hardened)


def test_key_is_pinned_across_versions():
    # golden key: any drift in the canonical rendering is a schema change
    # and must bump KEY_SCHEMA_VERSION (which re-pins this hash)
    request = GARequest(
        params=GAParameters(64, 32, 10, 1, 0x061F), fitness_name="mBF6_2"
    )
    assert job_key(request) == (
        "85c73bbc30fc0800a7f11cc282fccf45fac72f6ea9d5890020ef2518d4ada1d6"
    )
    assert job_key(request) == job_key(GARequest.from_dict(request.to_dict()))


def test_substrate_joins_the_key():
    base = GARequest(
        params=GAParameters(64, 32, 10, 1, 0x061F), fitness_name="seq_counter4"
    )
    cycle = replace(base, substrate="cycle")
    assert job_key(cycle) != job_key(base)
    dual = GARequest(
        params=GAParameters(64, 32, 10, 1, 0x061F),
        fitness_name="fabric32_mux6",
        substrate="dual32",
    )
    assert len({job_key(base), job_key(cycle), job_key(dual)}) == 3
