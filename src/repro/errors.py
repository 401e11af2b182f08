"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
:func:`check_count` is the one refusal of a count knob.
"""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class FlowError(ReproError):
    """Invalid flow record or flow table operation."""


class TraceFormatError(ReproError):
    """A trace file could not be parsed or has inconsistent columns."""


class ConfigError(ReproError):
    """Invalid configuration value (bad parameter range or combination)."""


def check_count(name: str, value: object) -> None:
    """Refuse a count knob (a support floor, a window, a gap, a batch
    size) that is not an integer >= 1: a :class:`ConfigError` naming
    ``name``.  Booleans and floats are refused, ``2.0`` too."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 1
    ):
        raise ConfigError(f"{name} must be an integer >= 1: {value}")


class RegistryError(ConfigError):
    """Unknown or non-string name for a built-in table entry (a miner,
    feature set or fleet router; see :func:`repro.registry.lookup`).

    Subclasses :class:`ConfigError`: a bad name is a configuration
    mistake, and code that catches ``ConfigError`` sees it.
    """


class DetectionError(ReproError):
    """Detector used in an invalid state (e.g. no reference interval yet)."""


class MiningError(ReproError):
    """Invalid input to a frequent item-set miner."""


class ExtractionError(ReproError):
    """The extraction pipeline was driven with inconsistent inputs."""


class IncidentError(ReproError):
    """Invalid incident-store operation (bad schema, path, or query)."""


class SketchError(ReproError):
    """Incompatible sketch operation (merging count-min tables or
    histogram snapshots whose width/depth/seed/hash parameters differ,
    or restoring a sketch document that does not match its schema)."""


class FederationError(ReproError):
    """Invalid federation input (unknown site, stale or malformed
    interval digest, or a wire-format version this build refuses)."""


class ServiceError(ReproError):
    """The extraction daemon was driven or configured incorrectly
    (bad request framing, unusable bind address, invalid lifecycle)."""


class CheckpointError(ServiceError):
    """A durable checkpoint could not be written, read, or restored
    (schema-version mismatch, corrupt payload, or state that does not
    match the pipeline it is being restored into)."""
