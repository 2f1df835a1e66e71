"""Record files: the one way the package writes and reads JSON(L).

* **Append.** A record is one JSON object (keys sorted) plus ``\n``,
  written with one ``write``, then flushed and fsynced.
* **Documents.** A file written whole (a JSON document or a JSONL
  export) replaces its target atomically: tmp file, fsync,
  ``os.replace``.
* **Reading.** :func:`iter_records` yields ``(lineno, record)`` and
  raises :class:`RecordError`, a ``ValueError`` naming ``path:line``,
  for a line that does not parse or is not an object.
* **Torn tail.** A final fragment that has no newline *and does not
  parse* is a torn append: readers drop it, and :func:`seal` cuts it
  off before the next append.  A newline-terminated bad line is
  corruption.

Each format keeps its own policy by catching the one error.  Standard
library only, so every layer may import it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, List, Optional, Tuple, Union

PathLike = Union[str, "os.PathLike[str]"]


class RecordError(ValueError):
    """A record-file line that does not parse or is not a JSON object;
    the message starts with ``path:line:``."""


def dumps_record(record: dict) -> str:
    """The one record encoding: compact JSON with sorted keys, no newline."""
    return json.dumps(record, sort_keys=True)


def append_record(handle: IO[bytes], record: dict) -> None:
    """Durably append one record to a binary append-mode ``handle``."""
    handle.write((dumps_record(record) + "\n").encode("utf-8"))
    handle.flush()
    os.fsync(handle.fileno())


def write_atomic(path: PathLike, text: str) -> Path:
    """Replace ``path`` with ``text`` atomically, creating its directory;
    on failure the tmp file is removed and ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_lines(path: PathLike, lines: Iterable[str]) -> Path:
    """Atomically write encoded records as a JSONL file; returns the path."""
    return write_atomic(path, "".join(line + "\n" for line in lines))


def _parse(raw: bytes) -> Any:
    """The value on one line; ``None`` for a blank line or a torn tail."""
    try:
        return json.loads(raw)
    except ValueError:
        if raw.strip() and raw.endswith(b"\n"):
            raise
        return None


def _scan(path: PathLike) -> Iterator[Tuple[int, int, dict]]:
    """Yield ``(lineno, end, record)``, ``end`` being the byte offset
    just past the record's line."""
    end = 0
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            end += len(raw)
            try:
                record = _parse(raw)
            except ValueError as exc:
                raise RecordError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            if record is None:
                continue
            if not isinstance(record, dict):
                raise RecordError(f"{path}:{lineno}: not a JSON object")
            yield lineno, end, record


def iter_records(path: PathLike) -> Iterator[Tuple[int, dict]]:
    """Yield ``(lineno, record)`` per record; see the module rules."""
    for lineno, _, record in _scan(path):
        yield lineno, record


def read_prefix(path: PathLike) -> Tuple[List[dict], int]:
    """The records before the first bad line, and the byte offset just
    past the last of them; ``([], 0)`` for a missing file."""
    records: List[dict] = []
    valid = 0
    try:
        for _, valid, record in _scan(path):
            records.append(record)
    except (RecordError, FileNotFoundError):
        pass
    return records, valid


def seal(path: PathLike, end: Optional[int] = None) -> int:
    """End a record stream on a line boundary; returns the bytes cut off.

    The file is cut at byte ``end`` (by default where a torn tail
    starts), and a final record that lacks its newline gets one, so the
    next append starts on its own line.  A missing file stays missing.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return 0
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if end is None:
            handle.seek(0)
            data = handle.read()
            tail = data[data.rfind(b"\n") + 1 :]
            end = size if _parse(tail) is not None else size - len(tail)
        handle.truncate(end)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
    return size - end


__all__ = [
    "RecordError",
    "append_record",
    "dumps_record",
    "iter_records",
    "read_prefix",
    "seal",
    "write_atomic",
    "write_lines",
]
