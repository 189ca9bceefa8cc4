"""Streaming stdout sink: SHA-256, byte and line counts, head and tail.

The CLI writes each result as one (possibly 100 MB) string. The sink
encodes and hashes it in fixed-size slices, so the benchmark adds no
second full copy to the process's peak memory and writes nothing to
disk. It keeps the first and last characters of each output for the
benchmark's own checks, and small outputs whole on request
(``keep=True``). `reproduce` reports carry a wall-clock `runtime_ms` per
claim; ``strip_runtime=True`` drops those fields before hashing, so the
hash locks every other byte.
"""

from __future__ import annotations

import hashlib
import re

_SLICE = 1 << 20
# Characters kept from the start and the end of every output: a few
# table rows even at n = 12.
HEAD_CHARS = 64 << 10
TAIL_CHARS = 16 << 10

# `"runtime_ms": <number>` is the last key of each report object, so the
# field goes together with the comma that ends the previous line.
_RUNTIME_FIELD = re.compile(r',\n[ ]*"runtime_ms": -?[0-9][0-9.eE+-]*')


def strip_runtime(text: str) -> str:
    """Remove every `runtime_ms` field from indented `reproduce` JSON."""
    return _RUNTIME_FIELD.sub("", text)


class HashSink:
    """A write-only text stream keeping a digest, counts, a head and a tail."""

    def __init__(self, keep: bool = False, strip_runtime: bool = False):
        self._hash = hashlib.sha256()
        self._buffered = keep or strip_runtime
        self._strip = strip_runtime
        self._parts: list[str] = []
        self.text: str | None = None
        self.nbytes = 0
        self.newlines = 0
        self.head = ""
        self.tail = ""

    def write(self, text: str) -> int:
        if len(self.head) < HEAD_CHARS:
            self.head += text[: HEAD_CHARS - len(self.head)]
        self.tail = (self.tail + text[-TAIL_CHARS:])[-TAIL_CHARS:]
        if self._buffered:
            self._parts.append(text)
        else:
            self._feed(text)
        return len(text)

    def _feed(self, text: str) -> None:
        for i in range(0, len(text), _SLICE):
            chunk = text[i : i + _SLICE].encode("utf-8")
            self._hash.update(chunk)
            self.nbytes += len(chunk)
            self.newlines += chunk.count(b"\n")

    def flush(self) -> None:
        pass

    def finish(self) -> str:
        """Hex digest of everything written (after stripping, if enabled)."""
        if self._buffered:
            text, self._parts = "".join(self._parts), []
            if self._strip:
                text = strip_runtime(text)
            self._feed(text)
            self.text = text
        return self._hash.hexdigest()
