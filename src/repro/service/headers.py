"""The HTTP header-block reader both ends of the service transport share.

:mod:`http.server` and :mod:`http.client` hand every header block to
:mod:`email.parser` and answer every lookup through
:class:`email.message.Message` — general RFC 5322 machinery, paid on
each request and each reply.  :func:`read_headers` reads the same block
into a :class:`Headers` map instead; the server's ``parse_request``
(:class:`~repro.service.http.JsonRequestHandler`) and the client's
response ``begin`` (:mod:`repro.service.client`) both call it, each
through its own subclass — no stdlib global is replaced.

It keeps the stdlib's limits: a line of at most :data:`MAX_LINE` bytes
and at most :data:`MAX_HEADERS` lines, the closing blank line counted as
the stdlib counts it.  Past either, :class:`HeadersTooLarge` (HTTP 431).
It is stricter than the e-mail parser where that one guesses: a line
that is not ``name: value`` — no colon, an empty name, whitespace before
the colon (RFC 9112 §5.1) — is a ``ValueError`` (HTTP 400), not the
silent start of a message body.  An obs-fold continuation line joins the
previous value with one space, and a value loses its surrounding
whitespace (RFC 9112 §5.2, RFC 9110 §5.5).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import BinaryIO

from repro.service.errors import HeadersTooLarge

__all__ = ["MAX_HEADERS", "MAX_LINE", "Headers", "read_headers"]

#: The longest header line read, in bytes (``http.client._MAXLINE``).
MAX_LINE = 65536
#: The most lines one block may take, its blank line included
#: (``http.client._MAXHEADERS``).
MAX_HEADERS = 100

_BLANK = (b"\r\n", b"\n", b"")
_OWS = " \t"
_FOLD = (" ", "\t")


class Headers:
    """One header block: case-insensitive names, every value in order.

    ``get`` gives a name's first value, ``get_all`` every value and
    ``items`` every field as it arrived — what the stdlib's
    :class:`email.message.Message` gives.
    """

    __slots__ = ("_fields", "_values")

    def __init__(self, fields: Iterable[tuple[str, str]] = ()) -> None:
        self._fields = list(fields)
        self._values: dict[str, list[str]] = {}
        for name, value in self._fields:
            self._values.setdefault(name.lower(), []).append(value)

    def get(self, name: str, default: str | None = None) -> str | None:
        """The first value of ``name``, or ``default`` when it is absent."""
        values = self._values.get(name.lower())
        return default if values is None else values[0]

    def get_all(
        self, name: str, default: list[str] | None = None
    ) -> list[str] | None:
        """Every value of ``name`` in arrival order, or ``default``."""
        values = self._values.get(name.lower())
        return default if values is None else list(values)

    def items(self) -> list[tuple[str, str]]:
        """Every ``(name, value)`` field, names as sent, in arrival order."""
        return list(self._fields)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._values


def read_headers(stream: BinaryIO) -> Headers:
    """Read one header block from ``stream``, through its blank line.

    End of stream ends the block too, as it does for the stdlib.
    Raises :class:`HeadersTooLarge` past :data:`MAX_LINE` or
    :data:`MAX_HEADERS`, and ``ValueError`` for a malformed line.
    """
    fields: list[tuple[str, str]] = []
    for _ in range(MAX_HEADERS):
        line = stream.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeadersTooLarge(f"header line longer than {MAX_LINE} bytes")
        if line in _BLANK:
            return Headers(fields)
        text = line.decode("iso-8859-1").rstrip("\r\n")
        if text[:1] in _FOLD:
            if not fields:
                raise ValueError(f"continuation line {text!r} opens the header block")
            name, value = fields[-1]
            fields[-1] = (name, f"{value} {text.strip(_OWS)}".lstrip(_OWS))
            continue
        name, colon, value = text.partition(":")
        if not colon or not name or name[-1] in _OWS:
            raise ValueError(f"malformed header line {text!r}")
        fields.append((name, value.strip(_OWS)))
    raise HeadersTooLarge(f"more than {MAX_HEADERS} header lines")
