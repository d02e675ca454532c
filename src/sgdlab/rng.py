"""Counter-based random streams.

Every replica of an experiment gets its own Philox stream whose 128-bit key
is derived from the 64-bit master seed and the replica index by a splitmix64
finalizer.  Philox is counter-based, so within a replica the draw counter
indexes iterations; across replicas the keys differ by avalanche, never by
sequential offsets.  Identical (master_seed, index) pairs always reproduce
the identical stream, which is what makes manifests replayable.

`replica_streams` builds the streams of replicas 0..count-1 at once: one
numpy pass of the same splitmix64 arithmetic in uint64 (which wraps mod
2**64, as `mix64` masks) gives every key, so stream i is exactly
`replica_stream(master_seed, i)`.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit avalanche permutation."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """`mix64` of every entry of a uint64 array."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_key(master_seed: int, index: int) -> int:
    """128-bit Philox key for stream ``index`` under ``master_seed``.

    Two mixed words so that neither nearby seeds nor nearby indices give
    correlated keys.
    """
    master_seed = int(master_seed) & _MASK64
    index = int(index)
    if index < 0:
        raise ValueError("stream index must be non-negative")
    lo = mix64(master_seed ^ mix64(2 * index))
    hi = mix64(master_seed ^ mix64(2 * index + 1))
    return lo | (hi << 64)


def stream(key: int) -> np.random.Generator:
    """Generator over a Philox counter-based stream with the given key."""
    return np.random.Generator(np.random.Philox(key=key))


def replica_stream(master_seed: int, index: int) -> np.random.Generator:
    return stream(derive_key(master_seed, index))


def replica_streams(master_seed: int, count: int) -> list:
    """Generators over the streams of replicas 0..count-1 under
    ``master_seed``; the i-th has the key ``derive_key(master_seed, i)``."""
    seed = np.uint64(int(master_seed) & _MASK64)
    # Key i's low and high 64-bit words come from indices 2i and 2i + 1.
    words = _mix64_array(seed ^ _mix64_array(np.arange(2 * int(count), dtype=np.uint64)))
    return [np.random.Generator(np.random.Philox(key=pair))
            for pair in words.reshape(-1, 2)]
