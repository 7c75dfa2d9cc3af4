"""Run manifests: everything needed to reproduce a discovery run.

A manifest pins the four reproducibility axes of a run: the full
:class:`~repro.core.config.IPSConfig` (seeds included), a content
fingerprint of the training data, the package versions that executed the
run, and the source revision (git SHA, resolved without spawning a
subprocess). ``IPS.discover`` attaches one to every trace, so any
``DiscoveryResult`` carrying ``extra["trace"]`` can be re-derived from
its manifest alone.
"""

from __future__ import annotations

import dataclasses
import platform
import time
from pathlib import Path

from repro._version import __version__
from repro.io import sha256_bytes


#: Manifest value when no commit SHA can be determined. A constant (not
#: ``None``) so downstream consumers comparing manifests never have to
#: branch on missing keys vs null values.
UNKNOWN_GIT_SHA = "unknown"


def git_sha(start: str | Path | None = None) -> str:
    """Best-effort HEAD commit of the enclosing git checkout.

    Reads ``.git`` directly (no subprocess): resolves ``HEAD`` through
    one level of symbolic ref, falling back to ``packed-refs``, and
    follows a ``.git`` *file* (worktree/submodule ``gitdir:`` pointer)
    one hop. Degrades to :data:`UNKNOWN_GIT_SHA` outside a checkout, on
    a detached/malformed ``HEAD``, an unreadable or packed ref, or any
    other parsing hiccup — a manifest must never fail a run, whatever
    state the checkout is in.
    """
    try:
        here = Path(start) if start is not None else Path(__file__).resolve()
        for parent in [here, *here.parents]:
            git_dir = parent / ".git"
            if git_dir.is_file():
                # Worktree / submodule: ".git" is a one-line pointer file.
                pointer = git_dir.read_text(errors="replace").strip()
                if not pointer.startswith("gitdir:"):
                    return UNKNOWN_GIT_SHA
                target = Path(pointer.split(":", 1)[1].strip())
                if not target.is_absolute():
                    target = parent / target
                git_dir = target
            if not git_dir.is_dir():
                continue
            head_file = git_dir / "HEAD"
            if not head_file.exists():
                return UNKNOWN_GIT_SHA
            head = head_file.read_text(errors="replace").strip()
            if not head.startswith("ref:"):
                # Detached HEAD: the file holds the commit SHA itself.
                return head or UNKNOWN_GIT_SHA
            parts = head.split(None, 1)
            if len(parts) < 2 or not parts[1].strip():
                return UNKNOWN_GIT_SHA
            ref = parts[1].strip()
            ref_file = git_dir / ref
            if ref_file.exists():
                return ref_file.read_text(errors="replace").strip() or UNKNOWN_GIT_SHA
            packed = git_dir / "packed-refs"
            if packed.exists():
                for line in packed.read_text(errors="replace").splitlines():
                    if line.endswith(ref) and not line.startswith(("#", "^")):
                        return line.split(None, 1)[0]
            return UNKNOWN_GIT_SHA
    except Exception:  # noqa: BLE001 - manifests degrade, never raise
        return UNKNOWN_GIT_SHA
    return UNKNOWN_GIT_SHA


def dataset_fingerprint(dataset) -> dict:
    """Content identity of a :class:`~repro.ts.series.Dataset`.

    The SHA-256 spans the value matrix, the internal labels, and the
    original class values, so any change to the training data changes
    the fingerprint.
    """
    return {
        "name": dataset.name,
        "n_series": dataset.n_series,
        "series_length": dataset.series_length,
        "n_classes": dataset.n_classes,
        "sha256": sha256_bytes(
            dataset.X.tobytes() + dataset.y.tobytes() + dataset.classes_.tobytes()
        ),
    }


def package_versions() -> dict:
    """Versions of the packages that determine numerical results."""
    import numpy
    import scipy

    return {
        "repro": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def run_manifest(config, dataset=None) -> dict:
    """Build the manifest of one discovery run.

    Only called in the trace modes — fingerprinting hashes the whole
    training matrix, which would violate the counters-mode overhead
    budget if done unconditionally.
    """
    from repro.obs.trace import jsonify

    return {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": jsonify(dataclasses.asdict(config)),
        "seed": config.seed,
        "dataset": dataset_fingerprint(dataset) if dataset is not None else None,
        "versions": package_versions(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }
