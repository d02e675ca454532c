"""Counter-based streams: keys, and the replica streams built at once."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdlab.rng import derive_key, replica_stream, replica_streams


@given(seed=st.integers(-2 ** 70, 2 ** 70), count=st.integers(0, 70))
@example(seed=0, count=1)
@example(seed=-1, count=3)
@example(seed=2 ** 64 - 1, count=3)
@example(seed=2 ** 64, count=3)
@example(seed=-2 ** 64 - 5, count=2)
@settings(max_examples=200, deadline=None)
def test_replica_streams_have_the_derived_keys(seed, count):
    gens = replica_streams(seed, count)
    assert len(gens) == count
    for i, g in enumerate(gens):
        state = g.bit_generator.state
        key = state["state"]["key"]
        assert int(key[0]) | int(key[1]) << 64 == derive_key(seed, i), i
        assert not np.any(state["state"]["counter"]), i
    if count:
        assert np.array_equal(gens[-1].standard_normal(9),
                              replica_stream(seed, count - 1).standard_normal(9))
