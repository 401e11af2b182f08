"""How plain-data state is read: one strict field reader.

Every ``from_state`` / ``from_dict`` of the package - checkpoints,
federation digests, stored report rows - reads its document through
:func:`read_fields`, naming a *kind* per field.  A kind returns the
value the document holds or refuses it; nothing is coerced: ``true`` is
not an integer, ``0.5`` is not an index, ``NaN`` / ``inf`` is not a
number, a ``{}`` is not a list.  Any refusal - a missing field, a wrong
kind, a nested decoder's own :class:`~repro.errors.ReproError` -
surfaces as the *caller's* error type, worded ``malformed <what>:
<field path> <reason>``, so each boundary sees exactly one typed error.

The module also owns the two encodings those documents share:
:func:`pack_array` / :func:`unpack_array` and :func:`canonical_json`.
"""

from __future__ import annotations

import binascii
import itertools
import json
import math
import reprlib
from collections.abc import Callable, Iterable, Mapping
from typing import Any

import numpy as np
from numpy.typing import DTypeLike, NDArray

from repro.errors import ReproError

#: A field kind: returns the value it was handed, or refuses it.  Any
#: ``from_dict`` classmethod is one too (its ``ReproError`` refuses).
Kind = Callable[[Any], Any]


def canonical_json(doc: Any) -> str:
    """The byte-stable rendering of a state document or report: sorted
    keys, minimal separators, no ASCII escaping (non-ASCII text, such
    as a custom feature's name, stays UTF-8; skipping the escape pass
    is measurably faster)."""
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


class _Refused(Exception):
    """A kind's refusal, worded ``<path under the field> <reason>``."""


def _under(step: str, exc: Exception) -> _Refused:
    """``exc`` (a refusal or a nested decoder's error) one level up."""
    return _Refused(
        step + (str(exc) if isinstance(exc, _Refused) else f": {exc}")
    )


def _got(what: str, value: Any) -> _Refused:
    return _Refused(
        f" must be {what}, got {type(value).__name__} {reprlib.repr(value)}"
    )


def _read(kinds: Mapping[str, Kind], value: Any) -> dict[str, Any]:
    """The named fields of object ``value``, each through its kind."""
    mapping(value)
    fields: dict[str, Any] = {}
    for name, kind in kinds.items():
        try:
            if name not in value:
                raise _Refused(" is missing")
            fields[name] = kind(value[name])
        except (_Refused, ReproError) as exc:
            raise _under(f".{name}", exc) from exc
    return fields


def read_fields(
    what: str, state: Any, error: type[ReproError], /, **kinds: Kind
) -> dict[str, Any]:
    """Read the named fields of document ``state``, each through its
    kind, or raise ``error("malformed <what>: <field path> <reason>")``.
    Fields the call does not name are ignored."""
    try:
        return _read(kinds, state)
    except _Refused as exc:
        raise error(f"malformed {what}: {str(exc).lstrip('. ')}") from exc


def record(**kinds: Kind) -> Kind:
    """A nested object, read like :func:`read_fields` reads its own."""
    return lambda value: _read(kinds, value)


def mapping(value: Any) -> Mapping[str, Any]:
    """A nested document, handed on as it is to its own decoder."""
    if not isinstance(value, Mapping):
        raise _got("an object", value)
    return value


def integer(minimum: int | None = None) -> Kind:
    """An ``int`` (never a ``bool`` or a float), ``>= minimum``."""

    def kind(value: Any) -> int:
        if type(value) is not int:
            raise _got("an integer", value)
        if minimum is not None and value < minimum:
            raise _Refused(f" must be >= {minimum}, got {value}")
        return value

    return kind


#: A counter or an index: an integer ``>= 0``.
count = integer(0)


def finite(value: Any) -> float:
    """A finite real number (an integer widens to ``float``)."""
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
    ):
        raise _got("a finite number", value)
    return float(value)


def text(value: Any) -> str:
    if not isinstance(value, str):
        raise _got("a string", value)
    return value


def optional(kind: Kind) -> Kind:
    """``null`` or ``kind``."""
    return lambda value: None if value is None else kind(value)


def _items(kinds: Iterable[Kind], value: Any, length: int | None) -> list[Any]:
    """``value``, a list (of ``length`` entries), each through its kind."""
    if not isinstance(value, (list, tuple)):
        raise _got("a list", value)
    if length is not None and len(value) != length:
        raise _Refused(f" must hold {length} entries, holds {len(value)}")
    items = []
    for index, (kind, item) in enumerate(zip(kinds, value)):
        try:
            items.append(kind(item))
        except (_Refused, ReproError) as exc:
            raise _under(f"[{index}]", exc) from exc
    return items


def listof(
    kind: Kind,
    length: int | None = None,
    into: Callable[[list[Any]], Any] = list,
) -> Kind:
    """A list of ``kind`` (exactly ``length`` entries when given),
    returned as ``into`` (``tuple`` for frozen dataclass fields)."""
    return lambda value: into(_items(itertools.repeat(kind), value, length))


def tupleof(*kinds: Kind) -> Kind:
    """A fixed-length list with one kind per position."""
    return lambda value: _items(kinds, value, len(kinds))


# ----------------------------------------------------------------------
# Packed arrays
# ----------------------------------------------------------------------
#: Arrays below this size keep their native dtype: the handful of
#: bytes a narrower rendering would save cannot pay for the value-range
#: scans.  256 keeps every histogram-sized buffer (the smallest
#: supported bin count) on the narrowed path - those dominate detector
#: state - while skipping the tiny series tails.
_NARROW_MIN_SIZE = 256


def _narrowed(array: NDArray[Any]) -> NDArray[Any]:
    """Smallest integer rendering that reproduces ``array`` exactly.

    Integer columns narrow to the tightest dtype holding their value
    range (ports fit uint16, protocols uint8, ...) - exact by
    construction, since ``min_scalar_type`` covers ``[min, max]`` and
    integer casts inside that range are lossless; an unsigned array
    narrows on its maximum alone, since its minimum cannot widen the
    rendering.  Float arrays (histogram counts are float64 but
    integer-valued) narrow via a cast-and-verify: the ``array_equal``
    round trip through the narrow dtype IS the correctness guarantee,
    so NaN, fractions, negatives, and out-of-range values all fall
    back to the native rendering.  The checkpoint path calls this per
    array, so both paths stay at a handful of numpy operations.
    """
    if array.size < _NARROW_MIN_SIZE or array.dtype.kind not in "uif":
        return array
    if array.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            narrowed = array.astype(np.uint32, casting="unsafe")
            if not np.array_equal(narrowed.astype(array.dtype), array):
                return array
    else:
        narrowed = array
    lo = 0 if narrowed.dtype.kind == "u" else int(narrowed.min())
    small = np.promote_types(
        np.min_scalar_type(lo), np.min_scalar_type(int(narrowed.max()))
    )
    if small.itemsize >= array.dtype.itemsize or small.kind not in "ui":
        return array
    return narrowed.astype(small)


def pack_array(array: NDArray[Any]) -> dict[str, str]:
    """Compact JSON-safe encoding of a numeric array.

    The array is rendered as its dtype tag plus the base64 of its
    little-endian buffer, after value-lossless integer narrowing
    (:func:`_narrowed`).  Compared to a JSON list of Python numbers
    this serializes several times faster and round-trips every value
    exactly (not via shortest-repr), both of which the durable
    checkpoint path depends on: checkpoints are written per ingest
    batch, and identical state must produce an identical document.
    Readers re-cast to their working dtype (:func:`packed`).
    """
    little = _narrowed(array)
    # base64 reads the contiguous little-endian buffer itself.
    little = np.ascontiguousarray(little, little.dtype.newbyteorder("<"))
    return {
        "dtype": little.dtype.str,
        "data": binascii.b2a_base64(little, newline=False).decode("ascii"),
    }


#: What a packed array tag of a kind no reader takes holds.
_NON_NUMERIC_KINDS = dict(
    b="boolean", c="complex", m="timedelta", M="datetime", O="object",
    S="bytes", T="string", U="unicode", V="void",
)

#: The widths a flat list of Python ints is read at, in order.
_INT_LIST_WIDTHS = (np.iinfo(np.int64), np.iinfo(np.uint64))


def _int_list(values: list[int] | tuple[int, ...]) -> NDArray[Any]:
    """``values`` as int64 when they fit, else as uint64 when they fit
    (numpy alone reads a list mixing the two ranges as float64)."""
    lo, hi = min(values), max(values)
    for width in _INT_LIST_WIDTHS:
        if width.min <= lo and hi <= width.max:
            return np.array(values, width.dtype)
    raise ValueError(
        f"integer list spanning [{lo}, {hi}] fits neither int64 nor uint64"
    )


def _payload(state: object) -> NDArray[Any]:
    """The numbers a :func:`pack_array` document or a flat number list
    holds - for a document, a read-only view of its decoded payload in
    the tag's byte order; raises ``ValueError`` on malformed input."""
    if isinstance(state, Mapping):
        try:
            tag, data = state["dtype"], state["data"]
            if not (isinstance(tag, str) and isinstance(data, str)):
                raise TypeError("dtype and data must be strings")
            dtype = np.dtype(tag)
            # Strict base64 read straight from the ASCII text (what
            # ``b64decode(validate=True)`` runs after copying it).
            raw = binascii.a2b_base64(data, strict_mode=True)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed packed array: {exc!r}") from exc
        if dtype.kind not in "uif":
            kind = _NON_NUMERIC_KINDS.get(dtype.kind, dtype.kind)
            raise ValueError(f"packed array tag {dtype.str} is {kind}, not numeric")
        if len(raw) % dtype.itemsize:
            raise ValueError(
                f"packed array buffer of {len(raw)} bytes does not "
                f"divide into {dtype.str} numbers"
            )
        return np.frombuffer(raw, dtype)
    if (
        isinstance(state, list | tuple)
        and state
        and all(type(value) is int for value in state)
    ):
        return _int_list(state)
    try:
        array = np.asarray(state)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"malformed number list: {exc}") from exc
    if array.ndim != 1 or array.dtype.kind not in "uif":
        raise ValueError(
            f"expected a packed array or a flat list of numbers, "
            f"got {reprlib.repr(state)}"
        )
    return array


def unpack_array(state: object) -> NDArray[Any]:
    """Inverse of :func:`pack_array`: an owned, platform-native array;
    raises ``ValueError`` on malformed input.

    A plain flat list of numbers is also accepted (hand-written
    states), making the packed form an encoding detail rather than a
    schema requirement.
    """
    array = _payload(state)
    return array.astype(array.dtype.newbyteorder("="))


def packed_view(dtype: DTypeLike) -> Kind:
    """A :func:`pack_array` document (or a flat number list) holding
    values that ``dtype`` represents exactly, left as sent: a read-only
    view of the decoded payload when ``dtype`` holds every value of its
    tag (any width or byte order), else a verified cast to ``dtype``.
    For a reader that copies the values into place itself."""
    target = np.dtype(dtype)
    # np.can_cast costs more than the rest of a small array's read;
    # only a few dozen numeric tags exist, so remember each answer.
    safe: dict[np.dtype[Any], bool] = {}

    def kind(value: Any) -> NDArray[Any]:
        try:
            array = _payload(value)
        except ValueError as exc:
            raise _Refused(f": {exc}") from exc
        fits = safe.get(array.dtype)
        if fits is None:
            fits = safe[array.dtype] = np.can_cast(array.dtype, target, "safe")
        if fits:
            return array
        with np.errstate(invalid="ignore"):
            cast = array.astype(target)
        if not np.array_equal(cast, array):
            raise _Refused(f" holds values that do not fit {target}")
        return cast

    return kind


def packed(dtype: DTypeLike) -> Kind:
    """A :func:`packed_view`, copied into an owned ``dtype`` array."""
    target = np.dtype(dtype)
    view = packed_view(target)
    return lambda value: view(value).astype(target)
