"""Counter-based deterministic random streams.

Walk sampling must produce the same draws for a given (seed, node id) no
matter how nodes are batched across workers, so drawing from a shared
stateful generator is out.  Instead each node gets its own stream keyed by
a 64-bit avalanche mix of the global seed and the node id, and the k-th
draw of a stream is a pure function of (stream key, k).  Any batching or
thread count then reproduces identical walks.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53_INV = float(2.0**-53)


def mix64(x):
    """SplitMix64 finalizer: avalanche a uint64 value or array.

    uint64 arithmetic wraps modulo 2**64 by design.
    """
    return _mix64_inplace(np.array(x, dtype=np.uint64))[()]


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """mix64 overwriting the uint64 array x, with one scratch array."""
    shifted = np.empty_like(x)
    with np.errstate(over="ignore"):
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            x ^= np.right_shift(x, np.uint64(shift), out=shifted)
            x *= mult
        x ^= np.right_shift(x, np.uint64(31), out=shifted)
    return x


def stream_key(seed: int, node) -> np.ndarray:
    """64-bit stream key for each node id under a global seed."""
    node = np.asarray(node, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * (node + np.uint64(1)))


def skip_ahead(key, index):
    """Key of the stream(s) that begin at the index-th draw of `key`.

    ``uniform_at(skip_ahead(k, i), j) == uniform_at(k, i + j)``: the counter
    enters the mix only through ``key + _GOLDEN * (index + 1)``, which wraps
    modulo 2**64, so moving a stream's origin is one add.
    """
    key = np.asarray(key, dtype=np.uint64)
    index = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return key + _GOLDEN * index


def uniform_at(key, index):
    """The index-th uniform in [0, 1) of the stream(s) with the given key(s).

    Pure function of (key, index); broadcasting applies.
    """
    bits = np.asarray(skip_ahead(key, np.asarray(index, dtype=np.uint64) + np.uint64(1)))
    _mix64_inplace(bits)
    bits >>= np.uint64(11)
    return bits * _U53_INV


class CounterStream:
    """Sequential view over one node's counter-based stream.

    `jump(pos)` repositions the cursor; draws at a position are identical
    regardless of how many draws were taken before it.
    """

    def __init__(self, seed: int, node: int, pos: int = 0):
        self._key = stream_key(seed, node)
        self.pos = pos

    def jump(self, pos: int) -> None:
        self.pos = pos

    def uniform(self) -> float:
        u = float(uniform_at(self._key, self.pos))
        self.pos += 1
        return u
