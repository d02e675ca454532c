"""A run of precomputed Philox keys as one numpy seed sequence.

`rng.replica_streams` imports this module when it first runs, so that
importing sgdlab does not load numpy.random: loading it that early raised
the peak RSS (`ru_maxrss`) of a 200-replica, 20 000-iteration stride-1
`lyapunov` run by about 0.5 MB.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class PhiloxKeys(ISeedSequence):
    """Philox seeds its key with `generate_state(2, np.uint64)`; each call
    returns the next key's low and high words, so one instance seeds a run
    of streams and none of them holds a key object of its own."""

    def __init__(self, words: np.ndarray):
        self._pairs = iter(words.reshape(-1, 2))

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is exactly two uint64 words")
        return next(self._pairs)
