"""Counter-based deterministic random streams.

Walk sampling must produce the same draws for a given (seed, node id) no
matter how nodes are batched across workers, so drawing from a shared
stateful generator is out.  Instead each node gets its own stream keyed by
a 64-bit avalanche mix of the global seed and the node id, and the k-th
draw of a stream is a pure function of (stream key, k).  Any batching or
thread count then reproduces identical walks.

The streams hold no state: ``stream_key`` gives each node's key,
``uniform_at`` the k-th draw of a key and ``skip_ahead`` the key of the
stream that starts k draws later, all vectorized over arrays of keys, so
``hash_all`` steps a whole block of walks at once.  The per-node reference
hasher in ``tests/oracles.py`` reads the same draws one at a time.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53_INV = float(2.0**-53)


def _mix64_inplace(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer: avalanche the uint64 array x in place, with one
    scratch array of x's shape (allocated when not given).

    uint64 arithmetic wraps modulo 2**64 by design.
    """
    shifted = np.empty_like(x) if scratch is None else scratch
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
        key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * (node + np.uint64(1))
    return _mix64_inplace(np.asarray(key))


def skip_ahead(key, index, out=None):
    """Key of the stream(s) that begin at the index-th draw of `key`.

    ``uniform_at(skip_ahead(k, i), j) == uniform_at(k, i + j)``: the counter
    enters the mix only through ``key + _GOLDEN * (index + 1)``, which wraps
    modulo 2**64, so moving a stream's origin is one add (into `out`, a
    uint64 array of the broadcast shape, when given).
    """
    key = np.asarray(key, dtype=np.uint64)
    index = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return np.add(key, _GOLDEN * index, out=out)


def uniform_at(key, index, *, out=None, bits=None, scratch=None):
    """The index-th uniform in [0, 1) of the stream(s) with the given key(s).

    Pure function of (key, index); broadcasting applies.  `out` (float64)
    and `bits`, `scratch` (uint64) are optional buffers of the broadcast
    shape; given all three, a draw allocates no array of that shape.
    """
    bits = np.asarray(skip_ahead(key, np.asarray(index, dtype=np.uint64) + np.uint64(1),
                                 out=bits))
    _mix64_inplace(bits, scratch)
    bits >>= np.uint64(11)
    return np.multiply(bits, _U53_INV, out=out)
