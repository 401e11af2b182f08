"""Packed-array edge cases, pinned outcome by outcome.

``repro.state`` reads every numeric array of a state document - a
checkpoint's columns and histograms, a digest's observed values and
counts - as a :func:`~repro.state.pack_array` document (dtype tag plus
base64 payload) or a flat number list.  Each case below is read by the
three entry points, ``packed(np.uint64)``, ``packed(np.int64)`` (both
through :func:`~repro.state.read_fields`) and
:func:`~repro.state.unpack_array`, and its outcome - the array's dtype
and bit patterns, or the error type and message - is compared with the
table.  A change to the decoder's internals that moves any outcome,
an error's wording included, fails here by case.
"""

from __future__ import annotations

import base64

import numpy as np
import pytest

from repro.errors import ReproError
from repro.state import packed, read_fields, unpack_array


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _doc(tag: str, values: list, dtype: str | None = None) -> dict:
    """``values`` rendered as ``dtype`` (default: the tag itself)."""
    return {"dtype": tag, "data": _b64(np.array(values, dtype or tag).tobytes())}


def _raw(tag: object, data: object) -> dict:
    return {"dtype": tag, "data": data}


U8_MAX = 2**64 - 1
I8_MIN, I8_MAX = -(2**63), 2**63 - 1

CASES: dict[str, object] = {
    # Every integer width, native / little / big-endian tags.
    "u1": _doc("|u1", [0, 1, 255]),
    "u2-le": _doc("<u2", [0, 1, 65535]),
    "u2-be": _doc(">u2", [0, 1, 65535]),
    "u4-le": _doc("<u4", [0, 1, 2**32 - 1]),
    "u4-be": _doc(">u4", [0, 1, 2**32 - 1]),
    "u4-native": _doc("u4", [0, 7, 2**32 - 1]),
    "u8-le": _doc("<u8", [0, 1, I8_MAX, U8_MAX]),
    "u8-be": _doc(">u8", [0, 1, I8_MAX, U8_MAX]),
    "u8-small": _doc("<u8", [0, 1, I8_MAX]),
    "i1": _doc("|i1", [-128, -1, 0, 127]),
    "i1-positive": _doc("|i1", [0, 1, 127]),
    "i2-le": _doc("<i2", [-32768, -1, 0, 32767]),
    "i2-be": _doc(">i2", [-32768, -1, 0, 32767]),
    "i4-le": _doc("<i4", [-(2**31), -1, 0, 2**31 - 1]),
    "i4-be": _doc(">i4", [-(2**31), -1, 0, 2**31 - 1]),
    "i4-positive-be": _doc(">i4", [0, 5, 2**31 - 1]),
    "i8-le": _doc("<i8", [I8_MIN, -1, 0, I8_MAX]),
    "i8-be": _doc(">i8", [I8_MIN, -1, 0, I8_MAX]),
    "i8-positive": _doc("<i8", [0, 1, I8_MAX]),
    "int16-name": _doc("int16", [-2, 3]),
    "u8-empty": _doc("<u8", []),
    # Float tags: integer-valued ones are cast and verified.
    "f2-integral": _doc("<f2", [0.0, 1.0, 2048.0]),
    "f4-integral": _doc("<f4", [0.0, 3.0, 2.0**24]),
    "f4-integral-be": _doc(">f4", [0.0, 3.0, 255.0]),
    "f8-integral": _doc("<f8", [0.0, 1.0, 2.0**53]),
    "f8-integral-be": _doc(">f8", [0.0, 1.0, 2.0**53]),
    "f8-two-to-63": _doc("<f8", [2.0**63]),
    "f8-negative-zero": _doc("<f8", [-0.0, 1.0]),
    "f8-negative-integral": _doc("<f8", [-1.0, 2.0]),
    "f8-fractional": _doc("<f8", [1.0, 2.5]),
    "f4-fractional": _doc("<f4", [0.25]),
    "f8-nan": _doc("<f8", [1.0, float("nan")]),
    "f8-inf": _doc("<f8", [float("inf")]),
    "f8-empty": _doc("<f8", []),
    # Tags of kinds no reader takes.
    "bool": _doc("|b1", [True, False]),
    "complex": _doc("<c16", [1 + 0j]),
    "unicode": _doc("<U2", ["ab"]),
    "bytes": _doc("|S2", [b"ab"]),
    "object": _raw("|O", _b64(bytes(8))),
    "datetime": _doc("<M8[s]", [0], "<i8"),
    "void": _raw("|V8", _b64(bytes(8))),
    "structured": _raw("u4,u4", _b64(bytes(8))),
    "unknown-tag": _raw("zz9", _b64(bytes(8))),
    "numeric-tag": _raw(8, _b64(bytes(8))),
    "null-tag": _raw(None, _b64(bytes(8))),
    # Payloads that are not strict base64 of whole numbers.
    "non-ascii": _raw("<u8", "AAAAAAAAAAA=é"),
    "non-alphabet": _raw("<u8", "AAAA*AAAAAA="),
    "urlsafe-alphabet": _raw("<u8", "AAAA-_AAAAA="),
    "inner-space": _raw("<u8", "AAAA AAAAAA="),
    "trailing-newline": _raw("<u8", "AAAAAAAAAAA=\n"),
    "missing-padding": _raw("<u2", "AQ"),
    "short-padding": _raw("<u2", "AQ="),
    "excess-padding": _raw("<u8", "AAAAAAAAAAA=="),
    "leading-padding": _raw("<u1", "=AAA"),
    "inner-padding": _raw("<u1", "AQ==AQ=="),
    "bad-length": _raw("<u8", "AAAAA"),
    "empty-data": _raw("<u4", ""),
    "bytes-data": _raw("<u8", bytes(8)),
    "list-data": _raw("<u8", [0]),
    "ragged-u8": _raw("<u8", _b64(bytes(3))),
    "ragged-u2": _raw("<u2", _b64(bytes(3))),
    "ragged-f4": _raw("<f4", _b64(bytes(6))),
    # Extra and missing keys.
    "extra-key": {**_doc("<u4", [1, 2]), "shape": [2]},
    "missing-data": {"dtype": "<u4"},
    "missing-dtype": {"data": _b64(bytes(4))},
    "empty-object": {},
    # Plain number lists (hand-written states) and other JSON values.
    "list-empty": [],
    "list-ints": [1, 2, 3],
    "list-negative": [-1, 0, 1],
    "list-u8-max": [0, U8_MAX],
    "list-two-to-63": [2**63],
    "list-beyond-u8": [2**64],
    "list-both-ranges": [-1, 2**63],
    "list-below-i8": [I8_MIN - 1],
    "list-integral-floats": [1.0, 2.0],
    "list-fractional": [1.5],
    "list-nan": [float("nan")],
    "list-bools": [True, False],
    "list-strings": ["1"],
    "list-null": [None],
    "list-nested": [[1, 2]],
    "scalar": 5,
    "string": "AAAA",
    "null": None,
}

READERS = {
    "packed-uint64": packed(np.uint64),
    "packed-int64": packed(np.int64),
}


def outcome(reader: str, value: object) -> tuple:
    """``(dtype tag, bit patterns)`` of what ``reader`` returns, or
    ``(error type, message)`` of its refusal."""
    try:
        if reader == "unpack_array":
            array = unpack_array(value)
        else:
            array = read_fields(
                "case", {"array": value}, ReproError, array=READERS[reader]
            )["array"]
    except (ReproError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    bits = array.view(np.dtype(f"=u{array.itemsize}"))
    return array.dtype.str, bits.tolist()


EXPECTED: dict[str, dict[str, tuple]] = {
    "u1": {
        "packed-uint64": ("<u8", [0, 1, 255]),
        "packed-int64": ("<i8", [0, 1, 255]),
        "unpack_array": ("|u1", [0, 1, 255]),
    },
    "u2-le": {
        "packed-uint64": ("<u8", [0, 1, 65535]),
        "packed-int64": ("<i8", [0, 1, 65535]),
        "unpack_array": ("<u2", [0, 1, 65535]),
    },
    "u2-be": {
        "packed-uint64": ("<u8", [0, 1, 65535]),
        "packed-int64": ("<i8", [0, 1, 65535]),
        "unpack_array": ("<u2", [0, 1, 65535]),
    },
    "u4-le": {
        "packed-uint64": ("<u8", [0, 1, 4294967295]),
        "packed-int64": ("<i8", [0, 1, 4294967295]),
        "unpack_array": ("<u4", [0, 1, 4294967295]),
    },
    "u4-be": {
        "packed-uint64": ("<u8", [0, 1, 4294967295]),
        "packed-int64": ("<i8", [0, 1, 4294967295]),
        "unpack_array": ("<u4", [0, 1, 4294967295]),
    },
    "u4-native": {
        "packed-uint64": ("<u8", [0, 7, 4294967295]),
        "packed-int64": ("<i8", [0, 7, 4294967295]),
        "unpack_array": ("<u4", [0, 7, 4294967295]),
    },
    "u8-le": {
        "packed-uint64": ("<u8", [0, 1, 9223372036854775807, 18446744073709551615]),
        "packed-int64": (
            "ReproError",
            "malformed case: array holds values that do not fit int64",
        ),
        "unpack_array": ("<u8", [0, 1, 9223372036854775807, 18446744073709551615]),
    },
    "u8-be": {
        "packed-uint64": ("<u8", [0, 1, 9223372036854775807, 18446744073709551615]),
        "packed-int64": (
            "ReproError",
            "malformed case: array holds values that do not fit int64",
        ),
        "unpack_array": ("<u8", [0, 1, 9223372036854775807, 18446744073709551615]),
    },
    "u8-small": {
        "packed-uint64": ("<u8", [0, 1, 9223372036854775807]),
        "packed-int64": ("<i8", [0, 1, 9223372036854775807]),
        "unpack_array": ("<u8", [0, 1, 9223372036854775807]),
    },
    "i1": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": ("<i8", [18446744073709551488, 18446744073709551615, 0, 127]),
        "unpack_array": ("|i1", [128, 255, 0, 127]),
    },
    "i1-positive": {
        "packed-uint64": ("<u8", [0, 1, 127]),
        "packed-int64": ("<i8", [0, 1, 127]),
        "unpack_array": ("|i1", [0, 1, 127]),
    },
    "i2-le": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": ("<i8", [18446744073709518848, 18446744073709551615, 0, 32767]),
        "unpack_array": ("<i2", [32768, 65535, 0, 32767]),
    },
    "i2-be": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": ("<i8", [18446744073709518848, 18446744073709551615, 0, 32767]),
        "unpack_array": ("<i2", [32768, 65535, 0, 32767]),
    },
    "i4-le": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": (
            "<i8",
            [18446744071562067968, 18446744073709551615, 0, 2147483647],
        ),
        "unpack_array": ("<i4", [2147483648, 4294967295, 0, 2147483647]),
    },
    "i4-be": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": (
            "<i8",
            [18446744071562067968, 18446744073709551615, 0, 2147483647],
        ),
        "unpack_array": ("<i4", [2147483648, 4294967295, 0, 2147483647]),
    },
    "i4-positive-be": {
        "packed-uint64": ("<u8", [0, 5, 2147483647]),
        "packed-int64": ("<i8", [0, 5, 2147483647]),
        "unpack_array": ("<i4", [0, 5, 2147483647]),
    },
    "i8-le": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": (
            "<i8",
            [9223372036854775808, 18446744073709551615, 0, 9223372036854775807],
        ),
        "unpack_array": (
            "<i8",
            [9223372036854775808, 18446744073709551615, 0, 9223372036854775807],
        ),
    },
    "i8-be": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": (
            "<i8",
            [9223372036854775808, 18446744073709551615, 0, 9223372036854775807],
        ),
        "unpack_array": (
            "<i8",
            [9223372036854775808, 18446744073709551615, 0, 9223372036854775807],
        ),
    },
    "i8-positive": {
        "packed-uint64": ("<u8", [0, 1, 9223372036854775807]),
        "packed-int64": ("<i8", [0, 1, 9223372036854775807]),
        "unpack_array": ("<i8", [0, 1, 9223372036854775807]),
    },
    "int16-name": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": ("<i8", [18446744073709551614, 3]),
        "unpack_array": ("<i2", [65534, 3]),
    },
    "u8-empty": {
        "packed-uint64": ("<u8", []),
        "packed-int64": ("<i8", []),
        "unpack_array": ("<u8", []),
    },
    "f2-integral": {
        "packed-uint64": ("<u8", [0, 1, 2048]),
        "packed-int64": ("<i8", [0, 1, 2048]),
        "unpack_array": ("<f2", [0, 15360, 26624]),
    },
    "f4-integral": {
        "packed-uint64": ("<u8", [0, 3, 16777216]),
        "packed-int64": ("<i8", [0, 3, 16777216]),
        "unpack_array": ("<f4", [0, 1077936128, 1266679808]),
    },
    "f4-integral-be": {
        "packed-uint64": ("<u8", [0, 3, 255]),
        "packed-int64": ("<i8", [0, 3, 255]),
        "unpack_array": ("<f4", [0, 1077936128, 1132396544]),
    },
    "f8-integral": {
        "packed-uint64": ("<u8", [0, 1, 9007199254740992]),
        "packed-int64": ("<i8", [0, 1, 9007199254740992]),
        "unpack_array": ("<f8", [0, 4607182418800017408, 4845873199050653696]),
    },
    "f8-integral-be": {
        "packed-uint64": ("<u8", [0, 1, 9007199254740992]),
        "packed-int64": ("<i8", [0, 1, 9007199254740992]),
        "unpack_array": ("<f8", [0, 4607182418800017408, 4845873199050653696]),
    },
    "f8-two-to-63": {
        "packed-uint64": ("<u8", [9223372036854775808]),
        "packed-int64": (
            "ReproError",
            "malformed case: array holds values that do not fit int64",
        ),
        "unpack_array": ("<f8", [4890909195324358656]),
    },
    "f8-negative-zero": {
        "packed-uint64": ("<u8", [0, 1]),
        "packed-int64": ("<i8", [0, 1]),
        "unpack_array": ("<f8", [9223372036854775808, 4607182418800017408]),
    },
    "f8-negative-integral": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": ("<i8", [18446744073709551615, 2]),
        "unpack_array": ("<f8", [13830554455654793216, 4611686018427387904]),
    },
    "f8-fractional": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array holds values that do not fit int64",
        ),
        "unpack_array": ("<f8", [4607182418800017408, 4612811918334230528]),
    },
    "f4-fractional": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array holds values that do not fit int64",
        ),
        "unpack_array": ("<f4", [1048576000]),
    },
    "f8-nan": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array holds values that do not fit int64",
        ),
        "unpack_array": ("<f8", [4607182418800017408, 9221120237041090560]),
    },
    "f8-inf": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array holds values that do not fit int64",
        ),
        "unpack_array": ("<f8", [9218868437227405312]),
    },
    "f8-empty": {
        "packed-uint64": ("<u8", []),
        "packed-int64": ("<i8", []),
        "unpack_array": ("<f8", []),
    },
    "bool": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: packed array tag |b1 is boolean, not numeric",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: packed array tag |b1 is boolean, not numeric",
        ),
        "unpack_array": ("ValueError", "packed array tag |b1 is boolean, not numeric"),
    },
    "complex": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: packed array tag <c16 is complex, not numeric",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: packed array tag <c16 is complex, not numeric",
        ),
        "unpack_array": ("ValueError", "packed array tag <c16 is complex, not numeric"),
    },
    "unicode": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: packed array tag <U2 is unicode, not numeric",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: packed array tag <U2 is unicode, not numeric",
        ),
        "unpack_array": ("ValueError", "packed array tag <U2 is unicode, not numeric"),
    },
    "bytes": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: packed array tag |S2 is bytes, not numeric",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: packed array tag |S2 is bytes, not numeric",
        ),
        "unpack_array": ("ValueError", "packed array tag |S2 is bytes, not numeric"),
    },
    "object": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: packed array tag |O is object, not numeric",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: packed array tag |O is object, not numeric",
        ),
        "unpack_array": ("ValueError", "packed array tag |O is object, not numeric"),
    },
    "datetime": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: packed array tag <M8[s] is datetime, not numeric",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: packed array tag <M8[s] is datetime, not numeric",
        ),
        "unpack_array": (
            "ValueError",
            "packed array tag <M8[s] is datetime, not numeric",
        ),
    },
    "void": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: packed array tag |V8 is void, not numeric",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: packed array tag |V8 is void, not numeric",
        ),
        "unpack_array": ("ValueError", "packed array tag |V8 is void, not numeric"),
    },
    "structured": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: packed array tag |V8 is void, not numeric",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: packed array tag |V8 is void, not numeric",
        ),
        "unpack_array": ("ValueError", "packed array tag |V8 is void, not numeric"),
    },
    "unknown-tag": {
        "packed-uint64": (
            "ReproError",
            'malformed case: array: malformed packed array: TypeError("data type '
            '\'zz9\' not understood")',
        ),
        "packed-int64": (
            "ReproError",
            'malformed case: array: malformed packed array: TypeError("data type '
            '\'zz9\' not understood")',
        ),
        "unpack_array": (
            "ValueError",
            'malformed packed array: TypeError("data type \'zz9\' not understood")',
        ),
    },
    "numeric-tag": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: TypeError('dtype and "
            "data must be strings')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: TypeError('dtype and "
            "data must be strings')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: TypeError('dtype and data must be strings')",
        ),
    },
    "null-tag": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: TypeError('dtype and "
            "data must be strings')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: TypeError('dtype and "
            "data must be strings')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: TypeError('dtype and data must be strings')",
        ),
    },
    "non-ascii": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: ValueError('string "
            "argument should contain only ASCII characters')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: ValueError('string "
            "argument should contain only ASCII characters')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: ValueError('string argument should contain "
            "only ASCII characters')",
        ),
    },
    "non-alphabet": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Only base64 data "
            "is allowed')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Only base64 data "
            "is allowed')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: Error('Only base64 data is allowed')",
        ),
    },
    "urlsafe-alphabet": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Only base64 data "
            "is allowed')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Only base64 data "
            "is allowed')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: Error('Only base64 data is allowed')",
        ),
    },
    "inner-space": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Only base64 data "
            "is allowed')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Only base64 data "
            "is allowed')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: Error('Only base64 data is allowed')",
        ),
    },
    "trailing-newline": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Excess data "
            "after padding')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Excess data "
            "after padding')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: Error('Excess data after padding')",
        ),
    },
    "missing-padding": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Incorrect padding')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Incorrect padding')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: Error('Incorrect padding')",
        ),
    },
    "short-padding": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Incorrect padding')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Incorrect padding')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: Error('Incorrect padding')",
        ),
    },
    "excess-padding": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Excess data "
            "after padding')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Excess data "
            "after padding')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: Error('Excess data after padding')",
        ),
    },
    "leading-padding": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Leading padding "
            "not allowed')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Leading padding "
            "not allowed')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: Error('Leading padding not allowed')",
        ),
    },
    "inner-padding": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Excess data "
            "after padding')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Excess data "
            "after padding')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: Error('Excess data after padding')",
        ),
    },
    "bad-length": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Invalid "
            "base64-encoded string: number of data characters (5) cannot be 1 more "
            "than a multiple of 4')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: Error('Invalid "
            "base64-encoded string: number of data characters (5) cannot be 1 more "
            "than a multiple of 4')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: Error('Invalid base64-encoded string: number "
            "of data characters (5) cannot be 1 more than a multiple of 4')",
        ),
    },
    "empty-data": {
        "packed-uint64": ("<u8", []),
        "packed-int64": ("<i8", []),
        "unpack_array": ("<u4", []),
    },
    "bytes-data": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: TypeError('dtype and "
            "data must be strings')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: TypeError('dtype and "
            "data must be strings')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: TypeError('dtype and data must be strings')",
        ),
    },
    "list-data": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: TypeError('dtype and "
            "data must be strings')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: TypeError('dtype and "
            "data must be strings')",
        ),
        "unpack_array": (
            "ValueError",
            "malformed packed array: TypeError('dtype and data must be strings')",
        ),
    },
    "ragged-u8": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: packed array buffer of 3 bytes does not divide "
            "into <u8 numbers",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: packed array buffer of 3 bytes does not divide "
            "into <u8 numbers",
        ),
        "unpack_array": (
            "ValueError",
            "packed array buffer of 3 bytes does not divide into <u8 numbers",
        ),
    },
    "ragged-u2": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: packed array buffer of 3 bytes does not divide "
            "into <u2 numbers",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: packed array buffer of 3 bytes does not divide "
            "into <u2 numbers",
        ),
        "unpack_array": (
            "ValueError",
            "packed array buffer of 3 bytes does not divide into <u2 numbers",
        ),
    },
    "ragged-f4": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: packed array buffer of 6 bytes does not divide "
            "into <f4 numbers",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: packed array buffer of 6 bytes does not divide "
            "into <f4 numbers",
        ),
        "unpack_array": (
            "ValueError",
            "packed array buffer of 6 bytes does not divide into <f4 numbers",
        ),
    },
    "extra-key": {
        "packed-uint64": ("<u8", [1, 2]),
        "packed-int64": ("<i8", [1, 2]),
        "unpack_array": ("<u4", [1, 2]),
    },
    "missing-data": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: KeyError('data')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: KeyError('data')",
        ),
        "unpack_array": ("ValueError", "malformed packed array: KeyError('data')"),
    },
    "missing-dtype": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: KeyError('dtype')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: KeyError('dtype')",
        ),
        "unpack_array": ("ValueError", "malformed packed array: KeyError('dtype')"),
    },
    "empty-object": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: malformed packed array: KeyError('dtype')",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: malformed packed array: KeyError('dtype')",
        ),
        "unpack_array": ("ValueError", "malformed packed array: KeyError('dtype')"),
    },
    "list-empty": {
        "packed-uint64": ("<u8", []),
        "packed-int64": ("<i8", []),
        "unpack_array": ("<f8", []),
    },
    "list-ints": {
        "packed-uint64": ("<u8", [1, 2, 3]),
        "packed-int64": ("<i8", [1, 2, 3]),
        "unpack_array": ("<i8", [1, 2, 3]),
    },
    "list-negative": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": ("<i8", [18446744073709551615, 0, 1]),
        "unpack_array": ("<i8", [18446744073709551615, 0, 1]),
    },
    "list-u8-max": {
        "packed-uint64": ("<u8", [0, 18446744073709551615]),
        "packed-int64": (
            "ReproError",
            "malformed case: array holds values that do not fit int64",
        ),
        "unpack_array": ("<u8", [0, 18446744073709551615]),
    },
    "list-two-to-63": {
        "packed-uint64": ("<u8", [9223372036854775808]),
        "packed-int64": (
            "ReproError",
            "malformed case: array holds values that do not fit int64",
        ),
        "unpack_array": ("<u8", [9223372036854775808]),
    },
    "list-beyond-u8": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: integer list spanning [18446744073709551616, "
            "18446744073709551616] fits neither int64 nor uint64",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: integer list spanning [18446744073709551616, "
            "18446744073709551616] fits neither int64 nor uint64",
        ),
        "unpack_array": (
            "ValueError",
            "integer list spanning [18446744073709551616, 18446744073709551616] fits "
            "neither int64 nor uint64",
        ),
    },
    "list-both-ranges": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: integer list spanning [-1, 9223372036854775808] "
            "fits neither int64 nor uint64",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: integer list spanning [-1, 9223372036854775808] "
            "fits neither int64 nor uint64",
        ),
        "unpack_array": (
            "ValueError",
            "integer list spanning [-1, 9223372036854775808] fits neither int64 nor "
            "uint64",
        ),
    },
    "list-below-i8": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: integer list spanning [-9223372036854775809, "
            "-9223372036854775809] fits neither int64 nor uint64",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: integer list spanning [-9223372036854775809, "
            "-9223372036854775809] fits neither int64 nor uint64",
        ),
        "unpack_array": (
            "ValueError",
            "integer list spanning [-9223372036854775809, -9223372036854775809] fits "
            "neither int64 nor uint64",
        ),
    },
    "list-integral-floats": {
        "packed-uint64": ("<u8", [1, 2]),
        "packed-int64": ("<i8", [1, 2]),
        "unpack_array": ("<f8", [4607182418800017408, 4611686018427387904]),
    },
    "list-fractional": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array holds values that do not fit int64",
        ),
        "unpack_array": ("<f8", [4609434218613702656]),
    },
    "list-nan": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array holds values that do not fit uint64",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array holds values that do not fit int64",
        ),
        "unpack_array": ("<f8", [9221120237041090560]),
    },
    "list-bools": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got [True, False]",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got [True, False]",
        ),
        "unpack_array": (
            "ValueError",
            "expected a packed array or a flat list of numbers, got [True, False]",
        ),
    },
    "list-strings": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got ['1']",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got ['1']",
        ),
        "unpack_array": (
            "ValueError",
            "expected a packed array or a flat list of numbers, got ['1']",
        ),
    },
    "list-null": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got [None]",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got [None]",
        ),
        "unpack_array": (
            "ValueError",
            "expected a packed array or a flat list of numbers, got [None]",
        ),
    },
    "list-nested": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got [[1, 2]]",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got [[1, 2]]",
        ),
        "unpack_array": (
            "ValueError",
            "expected a packed array or a flat list of numbers, got [[1, 2]]",
        ),
    },
    "scalar": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got 5",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got 5",
        ),
        "unpack_array": (
            "ValueError",
            "expected a packed array or a flat list of numbers, got 5",
        ),
    },
    "string": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got 'AAAA'",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got 'AAAA'",
        ),
        "unpack_array": (
            "ValueError",
            "expected a packed array or a flat list of numbers, got 'AAAA'",
        ),
    },
    "null": {
        "packed-uint64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got None",
        ),
        "packed-int64": (
            "ReproError",
            "malformed case: array: expected a packed array or a flat list of "
            "numbers, got None",
        ),
        "unpack_array": (
            "ValueError",
            "expected a packed array or a flat list of numbers, got None",
        ),
    },
}


@pytest.mark.parametrize("reader", [*READERS, "unpack_array"])
@pytest.mark.parametrize("case", list(CASES))
def test_outcome_is_pinned(case, reader):
    assert outcome(reader, CASES[case]) == EXPECTED[case][reader]
