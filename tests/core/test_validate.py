"""Parity of initial-population validation across the two engines.

The serial engine used to silently mask out-of-range members with
``& 0xFFFF`` while the batch engine raised named errors — the same bad
payload produced different populations depending on which engine the
scheduler routed it through.  Both now share
:func:`repro.core.validate.validate_initial_population`; these tests pin
the parity: one payload, one verdict, the same message text.  The same holds for the
cycle-accurate core's population limit, shared by a served request and a
direct run.
"""

import numpy as np
import pytest

from repro.core.batch import BatchBehavioralGA
from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.core.validate import validate_initial_population
from repro.fitness.functions import by_name

FN = by_name("mBF6_2")
POP = 16


def _params(seed=0x061F):
    return GAParameters(
        n_generations=4, population_size=POP,
        crossover_threshold=12, mutation_threshold=1, rng_seed=seed,
    )


def _serial_error(initial):
    with pytest.raises(ValueError) as excinfo:
        BehavioralGA(_params(), FN).run(initial=initial)
    return str(excinfo.value)


def _batch_error(initial):
    with pytest.raises(ValueError) as excinfo:
        BatchBehavioralGA([_params()], FN).run(
            initial=np.asarray(initial)[None, :]
        )
    return str(excinfo.value)


def test_out_of_range_members_raise_identically():
    bad = np.arange(POP, dtype=np.int64)
    bad[3] = 0x1FFFF  # would have been silently masked to 0xFFFF before
    assert _serial_error(bad) == _batch_error(bad)
    assert "16-bit values" in _serial_error(bad)


def test_negative_members_raise_identically():
    bad = np.arange(POP, dtype=np.int64)
    bad[0] = -7
    assert _serial_error(bad) == _batch_error(bad)


def test_float_dtype_raises_identically():
    bad = np.linspace(0.0, 1.0, POP)
    assert _serial_error(bad) == _batch_error(bad)
    assert "dtype" in _serial_error(bad)


def test_bool_dtype_rejected():
    bad = np.ones(POP, dtype=bool)
    with pytest.raises(ValueError, match="integer array"):
        validate_initial_population(bad, (POP,))


def test_shape_errors_name_the_expected_shape():
    bad = np.arange(POP - 1, dtype=np.int64)
    assert f"({POP},)" in _serial_error(bad)
    with pytest.raises(ValueError, match=rf"\(1, {POP}\)"):
        BatchBehavioralGA([_params()], FN).run(initial=bad[None, :-1])


def test_valid_payload_accepted_by_both_and_copied():
    good = np.arange(POP, dtype=np.uint16)
    out = validate_initial_population(good, (POP,))
    assert out.dtype == np.int64
    out[0] = 99  # the helper copies: caller arrays are never aliased
    assert good[0] == 0

    serial = BehavioralGA(_params(), FN).run(initial=good.astype(np.int64))
    batch = BatchBehavioralGA([_params()], FN).run(
        initial=good.astype(np.int64)[None, :]
    )
    assert serial.best_fitness == batch[0].best_fitness
    assert serial.best_individual == batch[0].best_individual


def test_cycle_population_refused_identically_by_request_and_core():
    """A served cycle job and a direct cycle-accurate run share one limit
    and one message, so the two cannot drift."""
    from repro.core.system import GASystem
    from repro.service.jobs import GARequest

    params = GAParameters(
        n_generations=4, population_size=200,
        crossover_threshold=12, mutation_threshold=1, rng_seed=0x061F,
    )
    with pytest.raises(ValueError) as request_error:
        GARequest(params=params, fitness_name="mBF6_2", substrate="cycle")
    with pytest.raises(ValueError) as core_error:
        GASystem(params, FN).run()
    assert str(request_error.value) == str(core_error.value)
    assert "populations up to 128" in str(core_error.value)


def test_serial_no_longer_masks_silently():
    """The regression itself: 0x1FFFF must raise, not alias to 0xFFFF."""
    bad = np.full(POP, 0x1FFFF, dtype=np.int64)
    with pytest.raises(ValueError):
        BehavioralGA(_params(), FN).run(initial=bad)
