"""Structured logging under the ``repro.*`` namespace.

:func:`get_logger` hands out stdlib loggers rooted at ``repro`` with a
one-time default configuration: INFO level, messages only (no
timestamps or level prefixes, so CLI summaries stay byte-identical to
the historical ``print(..., file=sys.stderr)``), written to whatever
``sys.stderr`` is *at emit time* - pytest's ``capsys`` and shell
redirections both see the output.

:func:`kv` renders keyword fields as canonical ``key=value`` pairs for
interval events::

    log = get_logger("cli.extract")
    log.info("interval closed %s", kv(interval=7, flows=1200))

Applications embedding the library can re-route everything the usual
``logging`` way: the ``repro`` logger is an ordinary stdlib logger -
swap its handlers, change its level, or re-enable propagation.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["get_logger", "kv"]

_ROOT_NAME = "repro"


class _DynamicStderrHandler(logging.Handler):
    """Write to the *current* ``sys.stderr`` at emit time.

    A plain ``StreamHandler(sys.stderr)`` captures the stream object at
    configuration time, which breaks test capture and any later
    redirection; looking it up per record keeps the logger behaviorally
    identical to ``print(..., file=sys.stderr)``.
    """

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:
            self.handleError(record)


def _configure_root() -> logging.Logger:
    root = logging.getLogger(_ROOT_NAME)
    if not any(
        isinstance(h, _DynamicStderrHandler) for h in root.handlers
    ):
        handler = _DynamicStderrHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)
        root.setLevel(logging.INFO)
        # The repro namespace is self-contained: don't double-emit
        # through the (possibly application-configured) root logger.
        root.propagate = False
    return root


def get_logger(name: str = "") -> logging.Logger:
    """A configured logger under the ``repro.*`` namespace.

    ``get_logger("cli.extract")`` returns ``repro.cli.extract``; an empty
    name (or ``"repro"`` itself) returns the namespace root.
    """
    root = _configure_root()
    if not name or name == _ROOT_NAME:
        return root
    if name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def kv(**fields: object) -> str:
    """Render keyword fields as ``key=value`` pairs, in call order.

    Values containing whitespace are repr-quoted so lines stay
    machine-splittable on spaces.
    """
    parts = []
    for key, value in fields.items():
        text = str(value)
        if any(c.isspace() for c in text):
            text = repr(text)
        parts.append(f"{key}={text}")
    return " ".join(parts)
