"""One-function-at-a-time reference for the sketch layer's hash kernel.

``UniversalHash.hash_array`` exactly as ``repro.sketch`` ran it before
every function of a clone set or count-min was fused into one
``hash_rows`` pass: seven uint64 divisions per value, one call per
function.  Kept in the test tree, like ``tests/detection/reference.py``:
an independent implementation the fused kernel must equal bin for bin.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.hashing import MERSENNE_PRIME, UniversalHash


def reference_hash_array(fn: UniversalHash, values: np.ndarray) -> np.ndarray:
    """Bin ``values`` by ``fn`` with ``%`` reductions.

    Computes ``(a*x + b) mod p`` without 64-bit overflow by splitting
    both operands into 31/30-bit halves and exploiting the Mersenne
    identity ``2^61 === 1 (mod p)``:

        a*x = aH*xH*2^62 + (aH*xL + aL*xH)*2^31 + aL*xL

    where ``2^62 === 2 (mod p)`` and the middle term's shift by 31 is
    folded with the same identity.  Every intermediate stays below
    2^63, so plain uint64 arithmetic is exact.
    """
    p = np.uint64(MERSENNE_PRIME)
    x = np.asarray(values, dtype=np.uint64) % p
    a_hi = np.uint64(fn.a >> 31)          # < 2^30
    a_lo = np.uint64(fn.a & ((1 << 31) - 1))  # < 2^31
    x_hi = x >> np.uint64(31)             # < 2^30
    x_lo = x & np.uint64((1 << 31) - 1)   # < 2^31
    # High term: aH*xH*2^62 === 2*aH*xH (mod p); aH*xH < 2^60.
    t1 = (np.uint64(2) * (a_hi * x_hi)) % p
    # Middle term: (aH*xL + aL*xH) < 2^62, reduce then shift by 31
    # via y*2^31 === (y mod 2^30)*2^31 + (y >> 30) (mod p).
    t2 = (a_hi * x_lo + a_lo * x_hi) % p
    t2 = ((t2 & np.uint64((1 << 30) - 1)) << np.uint64(31)) + (
        t2 >> np.uint64(30)
    )
    # Low term: aL*xL < 2^62, one reduction suffices.
    t3 = (a_lo * x_lo) % p
    hashed = (t1 + (t2 % p) + t3 + np.uint64(fn.b)) % p
    return (hashed % np.uint64(fn.bins)).astype(np.int64)
