"""Append-only JSONL journal: the campaign's crash-safe source of truth.

Every state transition of a campaign — start, resume, cell start, cell
finish, interrupt, finish — is one JSON object on one line, appended and
fsync'd before the orchestrator moves on. Because appends are the *only*
write mode during a run, a SIGKILL can damage at most the trailing
line: replay therefore

* parses every complete line into a record,
* moves any unparseable bytes (a torn tail from a killed process, or
  garbage from disk trouble) to a ``<journal>.quarantine`` sidecar,
* rewrites the journal to the surviving records with
  :func:`repro.io.atomic_write`, and
* emits a single :class:`RuntimeWarning` naming what was quarantined —

so a resumed campaign starts from a clean, fully-parseable journal and
nothing is silently dropped. Only a journal that cannot be read or
rewritten at all raises :class:`repro.exceptions.JournalError`.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

from repro.exceptions import JournalError
from repro.io import atomic_write, sweep_dead_temp_files


class Journal:
    """One append-only JSONL event log under a campaign directory."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        sweep_dead_temp_files(self.path.parent, self.path.name)

    @property
    def quarantine_path(self) -> Path:
        """Sidecar receiving unparseable journal bytes on replay."""
        return self.path.with_name(self.path.name + ".quarantine")

    def append(self, record: dict) -> None:
        """Durably append one event (sorted keys, flushed, fsync'd)."""
        if not isinstance(record, dict) or "type" not in record:
            raise JournalError("journal records must be dicts with a 'type'")
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise JournalError(
                f"cannot append to journal {self.path}: {exc}"
            ) from exc

    def replay(self) -> list[dict]:
        """Parse the journal, recovering from torn/corrupt lines.

        Returns the parseable records in append order. Unparseable lines
        are quarantined (appended to :attr:`quarantine_path`), the
        journal is atomically rewritten without them, and one warning is
        emitted. A missing journal is an empty campaign, not an error.
        """
        if not self.path.exists():
            return []
        try:
            raw = self.path.read_bytes()
        except OSError as exc:
            raise JournalError(
                f"cannot read journal {self.path}: {exc}"
            ) from exc
        records: list[dict] = []
        good_lines: list[bytes] = []
        bad_lines: list[bytes] = []
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                record = None
            if isinstance(record, dict) and "type" in record:
                records.append(record)
                good_lines.append(line)
            else:
                bad_lines.append(line)
        if bad_lines:
            self._quarantine(good_lines, bad_lines)
        return records

    def _quarantine(
        self, good_lines: list[bytes], bad_lines: list[bytes]
    ) -> None:
        """Move bad bytes aside and rewrite the journal to the good prefix."""
        try:
            with open(self.quarantine_path, "ab") as fh:
                for line in bad_lines:
                    fh.write(line + b"\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise JournalError(
                f"cannot quarantine corrupt journal lines at {self.path}: {exc}"
            ) from exc
        atomic_write(
            self.path, b"".join(line + b"\n" for line in good_lines), JournalError
        )
        warnings.warn(
            f"journal {self.path} held {len(bad_lines)} unparseable line(s) "
            f"(torn tail from a killed run, or disk corruption); moved to "
            f"{self.quarantine_path.name} and recovered "
            f"{len(good_lines)} record(s)",
            RuntimeWarning,
            stacklevel=3,
        )


__all__ = ["Journal"]
