"""Counter-based streams: keys, and the replica streams built at once."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdlab.rng import derive_key, replica_stream, replica_streams


def _same_state(a: dict, b: dict) -> bool:
    """Bit generator states equal entry by entry, arrays included."""
    if a.keys() != b.keys():
        return False
    return all(_same_state(a[k], b[k]) if isinstance(a[k], dict)
               else np.array_equal(a[k], b[k]) for k in a)


@given(seed=st.integers(-2 ** 70, 2 ** 70), first=st.integers(0, 2 ** 40),
       count=st.integers(0, 70))
@example(seed=0, first=0, count=1)
@example(seed=-1, first=0, count=3)
@example(seed=2 ** 64 - 1, first=256, count=3)
@example(seed=2 ** 64, first=0, count=3)
@example(seed=-2 ** 64 - 5, first=2048, count=2)
@settings(max_examples=200, deadline=None)
def test_replica_streams_have_the_derived_keys(seed, first, count):
    gens = replica_streams(seed, count, first)
    assert len(gens) == count
    for i, g in enumerate(gens):
        state = g.bit_generator.state
        key = state["state"]["key"]
        assert int(key[0]) | int(key[1]) << 64 == derive_key(seed, first + i), i
        assert not np.any(state["state"]["counter"]), i
        assert _same_state(state, np.random.Philox(key=derive_key(seed, first + i)).state), i
    if count:
        assert np.array_equal(gens[-1].standard_normal(9),
                              replica_stream(seed, first + count - 1).standard_normal(9))


def test_a_range_of_replica_streams_is_a_slice_of_all_of_them():
    whole = [g.standard_normal(5) for g in replica_streams(11, 600)]
    for first, count in ((0, 256), (256, 344), (512, 88), (599, 1)):
        part = [g.standard_normal(5) for g in replica_streams(11, count, first)]
        assert np.array_equal(part, whole[first:first + count]), first
