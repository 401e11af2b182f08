"""Universal hash functions for histogram cloning and sketches.

Histogram cloning (paper Section II-D) requires *independent* hash
functions that randomly place each feature value into one of ``m`` bins.
We use the Carter–Wegman multiply-mod-prime family

    h_{a,b}(x) = ((a * x + b) mod p) mod m

with ``p`` the Mersenne prime 2^61 - 1, ``a`` drawn uniformly from
[1, p) and ``b`` from [0, p).  The family is 2-universal, which is what
the collision analysis of the paper (equation (3), q = B/m) assumes.
Keys are the integers of [0, 2^64) - every uint64 flow field; anything
outside is refused with :class:`~repro.errors.SketchError` rather than
wrapped, so a scalar and an array query of one key always agree.

:func:`hash_rows` is the only vectorized kernel.  It never divides by
``p``: for ``t < 2^64``, ``t === (t & p) + (t >> 61) (mod p)`` because
``2^61 === 1``, and the right-hand side is at most ``p + 7``, so one
conditional subtract lands it in [0, p).  The key is folded that way
once; the product ``a * x + b`` is assembled from 31/30-bit halves into
a sum below ``2^63 + 2^61 + 2^32 < 2^64`` (bounds at each term) and
folded once more.  A power-of-two ``m`` bins with ``& (m - 1)``; only
other bin counts pay a ``% m``.  A :class:`HashMatrix` lets one call
bin each value by its own column of functions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, SketchError

#: Mersenne prime 2^61 - 1; comfortably exceeds 32-bit feature values.
MERSENNE_PRIME = (1 << 61) - 1

_P = np.uint64(MERSENNE_PRIME)
_LOW31 = np.uint64((1 << 31) - 1)
_LOW30 = np.uint64((1 << 30) - 1)


def checked_key(value: int) -> int:
    """``value`` as a key, refusing what the array path cannot hold."""
    key = int(value)
    if not 0 <= key < 1 << 64:
        raise SketchError(f"hash key outside [0, 2^64): {key}")
    return key


def checked_keys(values: np.ndarray) -> np.ndarray:
    """``values`` as an array of keys: a signed column with a negative
    entry is refused (one ``min`` - unsigned columns pay nothing), since
    casting it to uint64 would silently hash ``2^64 - |v|``."""
    keys = np.asarray(values)
    if keys.dtype.kind in "if" and keys.size and keys.min() < 0:
        raise SketchError(
            f"hash keys must be non-negative: minimum {keys.min()}"
        )
    return keys


def _fold(t: np.ndarray) -> np.ndarray:
    """``t mod p`` for uint64 ``t``, in place: ``(t & p) + (t >> 61)``
    is at most ``p + 7``, and ``min(r, r - p)`` subtracts ``p`` exactly
    when ``r >= p`` (below it the difference wraps past ``r``)."""
    high = t >> np.uint64(61)
    t &= _P
    t += high
    return np.minimum(t, t - _P, out=t)


def hash_rows(
    fns: Sequence[UniversalHash] | HashMatrix,
    values: np.ndarray,
    sizes: Sequence[int] | None = None,
) -> np.ndarray:
    """Bin ``values`` by rows of hash functions in one pass, as a
    ``(rows, n)`` int64.

    ``fns`` is either a sequence of functions, each applied to every
    value (``out[i, j] == fns[i](values[j])``), or a :class:`HashMatrix`
    whose columns bin consecutive runs of ``values``: the first
    ``sizes[0]`` values by column 0's functions, the next ``sizes[1]``
    by column 1's, and so on (``out[r, j] == fns.columns[k][r](
    values[j])`` for the run ``k`` holding ``j``).  A detector bank
    hashes every feature's values by that feature's clone functions in
    one call.  A one-column matrix applies to every value, so it
    needs no ``sizes``.

    With ``x = xH*2^31 + xL`` and ``a = aH*2^31 + aL`` (``xH, aH <
    2^30``; ``xL, aL < 2^31``):

        a*x = aH*xH*2^62 + (aH*xL + aL*xH)*2^31 + aL*xL

    where ``2^62 === 2`` and, splitting the middle sum ``y < 2^62`` as
    ``yH*2^30 + yL``, ``y*2^31 === yL*2^31 + yH`` (mod p).  The terms are
    below 2^61, 2^61 + 2^32, 2^62 and (``b``) 2^61, so their sum fits
    uint64 exactly and one :func:`_fold` reduces it.
    """
    if isinstance(fns, HashMatrix):
        a, b = per_value(fns.a, sizes), per_value(fns.b, sizes)
        bins = [fns.bins]
    else:
        a = np.array([[fn.a] for fn in fns], dtype=np.uint64)
        b = np.array([[fn.b] for fn in fns], dtype=np.uint64)
        bins = [fn.bins for fn in fns]
    x = _fold(np.array(values, dtype=np.uint64))
    x_hi = x >> np.uint64(31)
    x_lo = x & _LOW31
    a_hi = a >> np.uint64(31)
    a_lo = a & _LOW31
    total = (a_hi << np.uint64(1)) * x_hi
    middle = a_hi * x_lo
    term = a_lo * x_hi
    middle += term
    np.bitwise_and(middle, _LOW30, out=term)
    term <<= np.uint64(31)
    total += term
    middle >>= np.uint64(30)
    total += middle
    total += np.multiply(a_lo, x_lo, out=term)
    total += b
    hashed = _fold(total)
    width = np.array([[m] for m in bins], dtype=np.uint64)
    if all(m & (m - 1) == 0 for m in bins):
        hashed &= width - np.uint64(1)
    else:
        hashed %= width
    return hashed.view(np.int64)


def per_value(matrix: np.ndarray, sizes: Sequence[int] | None) -> np.ndarray:
    """Column ``k`` of a ``(R, K)`` matrix repeated for the ``sizes[k]``
    values of run ``k``; a one-column matrix broadcasts as it is."""
    if matrix.shape[1] == 1:
        return matrix
    if sizes is None:
        raise ConfigError(
            f"a {matrix.shape[1]}-column hash matrix needs the number of "
            f"values of every column"
        )
    return np.repeat(matrix, sizes, axis=1)


class HashMatrix:
    """``K`` columns of ``R`` universal hash functions over one bin
    count, with their parameters laid out as the ``(R, K)`` uint64
    matrices :func:`hash_rows` reads.

    Column ``k`` is one feature's ``R`` clone functions.  A matrix is
    built once - per detector, detector bank, clone set or digest
    schema - so an interval's hashing reads arrays, not Python objects.
    """

    __slots__ = ("columns", "bins", "a", "b")

    def __init__(self, columns: Sequence[Sequence[UniversalHash]]):
        self.columns = tuple(tuple(column) for column in columns)
        if not self.columns or not self.columns[0]:
            raise ConfigError("a hash matrix needs at least one function")
        if len({len(column) for column in self.columns}) != 1:
            raise ConfigError(
                "every column of a hash matrix needs the same number "
                "of functions"
            )
        bins = {fn.bins for column in self.columns for fn in column}
        if len(bins) != 1:
            raise ConfigError(
                f"a hash matrix bins by one bin count, got {sorted(bins)}"
            )
        (self.bins,) = bins
        self.a = self._parameter("a")
        self.b = self._parameter("b")

    def _parameter(self, name: str) -> np.ndarray:
        matrix = np.array(
            [[getattr(fn, name) for fn in column] for column in self.columns],
            dtype=np.uint64,
        ).T.copy()
        matrix.setflags(write=False)
        return matrix


@dataclass(frozen=True, slots=True)
class UniversalHash:
    """One member of the multiply-mod-prime universal family.

    ``a`` and ``b`` fully determine the function, so instances can be
    persisted and compared; equality means identical binning.
    """

    a: int
    b: int
    bins: int

    def __post_init__(self) -> None:
        if not 1 <= self.a < MERSENNE_PRIME:
            raise ConfigError(f"hash multiplier out of range: {self.a}")
        if not 0 <= self.b < MERSENNE_PRIME:
            raise ConfigError(f"hash offset out of range: {self.b}")
        if self.bins < 1:
            raise ConfigError(f"bin count must be >= 1: {self.bins}")

    def __call__(self, value: int) -> int:
        """Hash one key of [0, 2^64) to a bin index (exact Python ints:
        the independent check on :func:`hash_rows`)."""
        key = checked_key(value)
        return (self.a * key + self.b) % MERSENNE_PRIME % self.bins

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized hashing of a uint64 array to int64 bin indices:
        the one-row :func:`hash_rows`."""
        return hash_rows((self,), values)[0]


class HashFamily:
    """Deterministic generator of independent :class:`UniversalHash`
    functions.

    A family is seeded; clone ``i`` of every run with the same seed gets
    the same hash function, which makes detection experiments exactly
    reproducible.
    """

    def __init__(self, bins: int, seed: int = 0):
        if bins < 1:
            raise ConfigError(f"bin count must be >= 1: {bins}")
        self._bins = bins
        self._rng = np.random.default_rng(seed)

    @property
    def bins(self) -> int:
        return self._bins

    def fresh(self) -> UniversalHash:
        """Draw the next independent hash function."""
        a = int(self._rng.integers(1, MERSENNE_PRIME))
        b = int(self._rng.integers(0, MERSENNE_PRIME))
        return UniversalHash(a=a, b=b, bins=self._bins)

    def take(self, count: int) -> list[UniversalHash]:
        """Draw ``count`` independent hash functions."""
        if count < 1:
            raise ConfigError(f"must request at least one hash: {count}")
        return [self.fresh() for _ in range(count)]
