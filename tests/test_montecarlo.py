import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st

import unsharp_qubit.montecarlo as montecarlo
import unsharp_qubit.sequential as sequential
from unsharp_qubit import derive_stream

SEED_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)
INDEX_EDGES = (0, 2**32 - 1)


def _state(rng):
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


def _first_draws(rng):
    # every kind of draw the sequence drivers make, in their order
    return rng.standard_normal(7).tolist(), rng.random(3).tolist(), rng.standard_normal(2).tolist()


@pytest.fixture
def derivations(monkeypatch):
    """Counts the streams `_stream_states` derives one at a time through derive_stream."""
    calls = []

    def counted(seed, index):
        calls.append(index)
        return derive_stream(seed, index)

    monkeypatch.setattr(montecarlo, "derive_stream", counted)
    return calls


@hypothesis_settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**32 - 1), count=st.integers(1, 4))
@example(seed=0, index=0, count=1)
@example(seed=2**32 - 1, index=2**32 - 1, count=1)
@example(seed=2**32, index=2**32 - 4, count=4)
@example(seed=2**64 - 1, index=0, count=4)
def test_bulk_states_equal_derive_stream(seed, index, count):
    lo = min(index, 2**32 - count)
    states = montecarlo._stream_states(seed, lo, lo + count)
    assert states == [_state(derive_stream(seed, k)) for k in range(lo, lo + count)]
    streams = sequential._GroupStreams(seed, lo, lo + count)
    draws = [_first_draws(g) for g in streams]
    assert draws == [_first_draws(derive_stream(seed, k)) for k in range(lo, lo + count)]


@pytest.mark.parametrize("seed", SEED_EDGES)
@pytest.mark.parametrize("index", INDEX_EDGES)
def test_bulk_states_at_the_edges_need_no_derivation(derivations, seed, index):
    assert montecarlo._stream_states(seed, index, index + 1) == [_state(derive_stream(seed, index))]
    assert derivations == []


@pytest.mark.parametrize(("seed", "lo"), [(7, 2**32), (7, 2**32 - 1), (2**64, 0), (2**70 + 3, 5)])
def test_out_of_range_streams_fall_back(derivations, seed, lo):
    states = montecarlo._stream_states(seed, lo, lo + 2)
    assert states == [_state(derive_stream(seed, k)) for k in (lo, lo + 1)]
    assert derivations == [lo, lo + 1]


def test_bulk_states_refuse_what_derive_stream_refuses():
    assert montecarlo._stream_states(3, 5, 5) == []
    with pytest.raises(ValueError):
        montecarlo._stream_states(3, -1, 2)
    with pytest.raises(ValueError):
        montecarlo._stream_states(-3, 0, 2)


def test_one_trial_group_carries_its_stream_across_blocks():
    streams = sequential._GroupStreams(31, 9, 10)
    blocks = [_first_draws(g) for _ in range(3) for g in streams]
    rng = derive_stream(31, 9)
    assert blocks == [_first_draws(rng) for _ in range(3)]


def test_group_of_several_trials_is_positioned_once():
    streams = sequential._GroupStreams(31, 0, 3)
    assert len(streams) == 3
    assert [_first_draws(g) for g in streams] == [_first_draws(derive_stream(31, k)) for k in range(3)]
    with pytest.raises(RuntimeError):
        next(iter(streams))
