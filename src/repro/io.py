"""Crash-safe writes and SHA-256 digests shared by every on-disk store.

Every store writes through :func:`atomic_write`: the payload goes to a
same-directory ``<name>.<pid>.tmp`` file, is flushed and fsync'd, then
``os.replace``'d over the final name, so a reader sees the previous or
the new complete file, never a torn one. A writer killed mid-write
leaves its temp file behind; every store calls
:func:`sweep_dead_temp_files` when it opens its directory. What a store
does with a bad file on *read* is its own policy (docs/robustness.md,
"Crash-safe writes").
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
from pathlib import Path

#: ``<name>.<pid>.tmp``, the temp-file name :func:`atomic_write` uses.
_TEMP_NAME = re.compile(r"(.+)\.(\d+)\.tmp")


def atomic_write(path: str | Path, payload: bytes, error: type[Exception]) -> None:
    """Replace ``path`` with ``payload`` atomically and durably.

    A failure raises the caller's ``error`` naming the path, chained to
    the underlying :class:`OSError` (disk full, unwritable directory).
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise error(f"cannot write {path}: {exc}") from exc
        raise


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):  # another user's, or not a pid
        return True
    return True


def sweep_dead_temp_files(directory: str | Path, name: str | None = None) -> None:
    """Remove the temp files that killed :func:`atomic_write` callers left.

    Every ``<name>.<pid>.tmp`` file in ``directory`` (only those for the
    given ``name``, when set) whose pid is no longer alive is deleted; a
    live writer's file, this process's included, is kept. Pids are
    checked in this process's pid namespace, so a directory written by
    processes in other containers must not be swept. A missing or
    unreadable directory, or a file that cannot be removed, is skipped.
    """
    try:
        entries = list(Path(directory).iterdir())
    except OSError:
        return
    for path in entries:
        match = _TEMP_NAME.fullmatch(path.name)
        if match is None or (name is not None and match[1] != name):
            continue
        if not _pid_alive(int(match[2])):
            with contextlib.suppress(OSError):
                path.unlink()


def sha256_bytes(payload: bytes) -> str:
    """Hex SHA-256 of a byte string."""
    return hashlib.sha256(payload).hexdigest()


def sha256_file(path: str | Path) -> str:
    """Hex SHA-256 of a file's contents, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_json(path: str | Path, error: type[Exception]) -> object:
    """Parse a JSON file, raising the caller's ``error`` when unreadable."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"unreadable {path}: {exc}") from exc


def check_manifest(
    path: str | Path, fingerprint: dict, error: type[Exception], owner: str
) -> None:
    """Write a directory's fingerprint manifest once, then verify it.

    The first call writes ``fingerprint`` (sorted-key JSON) to ``path``.
    Later calls compare it with the stored one and raise ``error`` when
    the manifest is unreadable or differs, so work recorded under one
    fingerprint never merges with work from a different ``owner`` (the
    noun naming what the directory belongs to, e.g. ``"campaign"``).
    """
    path = Path(path)
    if path.exists():
        if read_json(path, error) != fingerprint:
            raise error(
                f"{path.parent} belongs to a different {owner} (its "
                f"{path.name} differs from the requested fingerprint); use "
                f"a fresh directory or resume with the original settings"
            )
        return
    payload = (json.dumps(fingerprint, indent=2, sort_keys=True) + "\n").encode()
    atomic_write(path, payload, error)


__all__ = ["atomic_write", "check_manifest", "read_json", "sha256_bytes", "sha256_file"]
