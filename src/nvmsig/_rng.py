"""Counter-based randomness helpers.

Latency noise must depend only on (chip_seed, addr, wear) so that samples
are identical no matter in which order locations are visited.  A stateless
SplitMix64-style mixer gives that directly and vectorizes over numpy
arrays; per-sample Generator objects would not.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def mix64(x):
    """SplitMix64 finalizer over a uint64 scalar or array."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _M1
        x = (x ^ (x >> np.uint64(27))) * _M2
        x = x ^ (x >> np.uint64(31))
    return x


def combine(*parts):
    """Fold integer scalars/arrays into one well-mixed uint64 stream.

    Broadcasting applies, so one array part (e.g. a wear vector) yields a
    vector of independent hashes.
    """
    h = np.uint64(0x243F6A8885A308D3)
    with np.errstate(over="ignore"):
        for p in parts:
            p = np.asarray(p)
            if p.dtype.kind in "iu":
                p = p.astype(np.int64, copy=False).view(np.uint64)
            else:
                p = p.astype(np.uint64)
            h = mix64((h ^ p) * _GOLDEN + _GOLDEN)
    return h


def derive_seed(*parts) -> int:
    """Derive a sub-seed from a root seed plus context tags."""
    return int(combine(*parts))


def hashed_uniform(*parts):
    """Uniform(0, 1) doubles keyed by the hash of `parts` (never 0 or 1)."""
    h = combine(*parts)
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def hashed_normal(*parts):
    """Standard normal deviates keyed by the hash of `parts`."""
    return ndtri(hashed_uniform(*parts))
