"""Frozen-model artifacts: save/load a fitted classifier with integrity checks.

An artifact is a directory::

    <artifact_dir>/
        manifest.json   # run-manifest fields + format version + checksums
        model.bin       # the frozen classifier: config, shapelets_, model_ (pickle)

The manifest reuses the :func:`repro.obs.run_manifest` format — full
config, seed, dataset SHA-256 fingerprint, package versions, git SHA —
extended with an artifact ``format_version`` and a per-file SHA-256
checksum table. Loading refuses, with *typed* errors, anything it cannot
vouch for:

* missing directory / manifest / payload → :class:`ArtifactError`;
* unparseable manifest, checksum mismatch, unpicklable payload, or a
  payload that is not a fitted classifier →
  :class:`ArtifactIntegrityError`;
* unknown ``format_version`` (or, under ``strict_versions=True``, any
  package-version drift) → :class:`ArtifactVersionError`.

The checksum table guards against *corruption* (torn writes, bit rot,
truncated copies), not against a malicious artifact author: the payload
is a pickle, so only load artifacts you produced. Writes follow
:func:`repro.io.atomic_write` (docs/robustness.md, "Crash-safe writes").
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import time
from pathlib import Path

from repro.exceptions import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactVersionError,
    NotFittedError,
)
from repro.io import atomic_write, read_json, sha256_bytes, sha256_file
from repro.obs.manifest import dataset_fingerprint, git_sha, package_versions

#: Bumped whenever the payload layout changes incompatibly.
ARTIFACT_FORMAT_VERSION = 2

_MANIFEST = "manifest.json"
_MODEL = "model.bin"


def _frozen_copy(classifier):
    """A lean, inference-only copy of a fitted classifier.

    The copy keeps ``config``, ``shapelets_`` and ``model_`` (its
    transform unbound from any kernel cache). Discovery-time state
    (candidate pools, traces, kernel caches) and the training matrix can
    be orders of magnitude larger than the model and are useless at
    serving time, so nothing else is kept. ``predict``/``score`` stay
    bit-identical — only ``fit`` is off the table, which is the
    definition of a frozen artifact.
    """
    frozen = type(classifier)(classifier.config)
    frozen.discoverer_ = None
    frozen.shapelets_ = classifier.shapelets_
    frozen.model_ = classifier.model_.with_cache(None)
    return frozen


def save_artifact(classifier, artifact_dir: str | Path) -> Path:
    """Persist a fitted :class:`~repro.core.pipeline.IPSClassifier`.

    Returns the artifact directory. Raises
    :class:`~repro.exceptions.NotFittedError` for an unfitted classifier
    — an artifact that cannot predict is not worth writing.
    """
    model = getattr(classifier, "model_", None)
    if model is None:
        raise NotFittedError("cannot save an unfitted classifier as an artifact")
    artifact_dir = Path(artifact_dir)
    artifact_dir.mkdir(parents=True, exist_ok=True)

    payload = pickle.dumps(_frozen_copy(classifier), protocol=4)
    atomic_write(artifact_dir / _MODEL, payload, ArtifactError)

    from repro.obs.trace import jsonify

    manifest = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": jsonify(dataclasses.asdict(classifier.config)),
        "seed": classifier.config.seed,
        "dataset": dataset_fingerprint(classifier._dataset),
        "versions": package_versions(),
        "git_sha": git_sha(),
        "model": {
            "n_shapelets": len(classifier.shapelets_ or []),
            "series_length": model.series_length,
            "n_classes": int(model.classes_.size),
            "classes": [int(c) for c in model.classes_],
            "final_classifier": classifier.config.final_classifier,
        },
        "files": {_MODEL: sha256_bytes(payload)},
    }
    atomic_write(
        artifact_dir / _MANIFEST,
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
        ArtifactError,
    )
    return artifact_dir


def read_manifest(artifact_dir: str | Path) -> dict:
    """Parse and structurally check an artifact manifest (typed errors)."""
    artifact_dir = Path(artifact_dir)
    path = artifact_dir / _MANIFEST
    if not artifact_dir.is_dir():
        raise ArtifactError(f"artifact directory {artifact_dir} does not exist")
    if not path.exists():
        raise ArtifactError(f"artifact at {artifact_dir} has no {_MANIFEST}")
    manifest = read_json(path, ArtifactIntegrityError)
    if not isinstance(manifest, dict) or "files" not in manifest:
        raise ArtifactIntegrityError(
            f"artifact manifest at {path} is missing its checksum table"
        )
    version = manifest.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactVersionError(
            f"artifact format_version {version!r} is not the supported "
            f"{ARTIFACT_FORMAT_VERSION}; re-export the artifact"
        )
    return manifest


def verify_checksums(artifact_dir: str | Path, manifest: dict) -> None:
    """Check every file in the manifest's checksum table (typed errors)."""
    artifact_dir = Path(artifact_dir)
    for name, expected in manifest["files"].items():
        path = artifact_dir / name
        if not path.exists():
            raise ArtifactIntegrityError(
                f"artifact file {name} listed in the manifest is missing"
            )
        actual = sha256_file(path)
        if actual != expected:
            raise ArtifactIntegrityError(
                f"artifact file {name} failed its checksum "
                f"(expected {expected[:12]}..., got {actual[:12]}...): "
                "the artifact is corrupt; re-export it"
            )


def load_artifact(
    artifact_dir: str | Path, *, strict_versions: bool = False
):
    """Load a frozen classifier, refusing corrupt or mismatched artifacts.

    Parameters
    ----------
    artifact_dir:
        Directory written by :func:`save_artifact`.
    strict_versions:
        When True, any difference between the manifest's recorded
        package versions (numpy/scipy/repro/python) and the running
        environment raises :class:`ArtifactVersionError`. Default off:
        numerical drift across patch versions is tolerated, format drift
        never is.

    Returns
    -------
    The fitted classifier, exactly as frozen (``predict`` bit-identical
    to the classifier that was saved).
    """
    artifact_dir = Path(artifact_dir)
    manifest = read_manifest(artifact_dir)
    if strict_versions:
        current = package_versions()
        recorded = manifest.get("versions", {})
        drift = {
            name: (recorded.get(name), current[name])
            for name in current
            if recorded.get(name) != current[name]
        }
        if drift:
            detail = ", ".join(
                f"{name}: artifact {old!r} vs running {new!r}"
                for name, (old, new) in sorted(drift.items())
            )
            raise ArtifactVersionError(
                f"package versions drifted since the artifact was written "
                f"({detail}); pass strict_versions=False to accept"
            )
    verify_checksums(artifact_dir, manifest)
    model_path = artifact_dir / _MODEL
    try:
        with open(model_path, "rb") as fh:
            classifier = pickle.load(fh)
    except Exception as exc:  # noqa: BLE001 - any unpickle failure => corrupt
        raise ArtifactIntegrityError(
            f"artifact payload {model_path} failed to load: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    from repro.core.pipeline import IPSClassifier

    if not isinstance(classifier, IPSClassifier):
        raise ArtifactIntegrityError(
            f"artifact payload is a {type(classifier).__name__}, "
            "not an IPSClassifier"
        )
    if getattr(classifier, "model_", None) is None:
        raise ArtifactIntegrityError(
            "artifact payload is an unfitted classifier"
        )
    return classifier


__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "load_artifact",
    "read_manifest",
    "save_artifact",
    "verify_checksums",
]
