"""One durability policy for every append-only JSONL file.

The experiment checkpoints and the gateway session snapshots both keep
their state as JSON objects, one per line, and both need the same three
operations done the same crash-safe way:

* **append** -- all lines of one record group in a single write, then
  ``flush`` + ``os.fsync``; the group is durable when the call returns.
  Creating the file also fsyncs its directory, or a crash could drop
  the new directory entry together with everything appended to it;
* **read** -- tolerant of a torn tail or flipped bits: a line that does
  not decode to a JSON object is skipped, never fatal;
* **replace** -- rewrite the whole file atomically: a fsynced temp file
  renamed over the original with ``os.replace``, then the directory is
  fsynced so the rename itself survives a crash (without it the old
  inode can come back, and every later append to the new one is lost).
  A failed rewrite removes its temp file and leaves the original as it
  was.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

__all__ = ["DurableLog"]


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_synced(fh: Any, lines: list[str]) -> None:
    fh.write("".join(line + "\n" for line in lines))
    fh.flush()
    os.fsync(fh.fileno())


class DurableLog:
    """An append-only JSONL file (see the module docstring)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def records(self) -> Iterator[dict[str, Any]]:
        """Every decodable JSON-object line, in file order."""
        try:
            fh = self.path.open("r", encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return
        with fh:
            for line in fh:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # blank, torn or bit-flipped: skip, don't die
                if isinstance(record, dict):
                    yield record

    def append(self, records: Iterable[Mapping[str, Any]]) -> list[str]:
        """Durably append ``records``; returns the lines as written.

        Keys keep their order (no ``sort_keys``): callers decode what
        they wrote and must read back exactly that.
        """
        lines = [json.dumps(record) for record in records]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        with self.path.open("a", encoding="utf-8") as fh:
            _write_synced(fh, lines)
        if created:
            _fsync_dir(self.path.parent)
        return lines

    def replace(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Atomically make ``records`` the file's whole content."""
        lines = [json.dumps(record) for record in records]
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                _write_synced(fh, lines)
            os.replace(tmp, self.path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        _fsync_dir(self.path.parent)

    def remove(self) -> None:
        """Delete the file (no-op when it does not exist)."""
        self.path.unlink(missing_ok=True)
