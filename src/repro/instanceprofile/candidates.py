"""Algorithm 1: shapelet-candidate generation with the instance profile.

For every class: draw ``Q_N`` bagging samples of ``Q_S`` instances,
concatenate each sample, compute the instance profile at every candidate
length, and harvest the motif (IP minimum) and discord (IP maximum) as
candidates. Candidates carry full provenance (instance, offset, sample id)
for interpretability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.exceptions import EmptyPoolError, ValidationError
from repro.instanceprofile.profile import instance_profiles
from repro.instanceprofile.sampling import BaggingSampler
from repro.kernels import SeriesCache
from repro.matrixprofile.discovery import top_k_discords, top_k_motifs
from repro.obs import NULL_TRACER
from repro.ts.concat import concatenate_series
from repro.ts.series import Dataset
from repro.types import Candidate, CandidateKind


@dataclass
class CandidatePool:
    """The paper's candidate pool Phi, organized per class and kind."""

    _motifs: dict[int, list[Candidate]] = field(default_factory=dict)
    _discords: dict[int, list[Candidate]] = field(default_factory=dict)

    @property
    def classes(self) -> list[int]:
        """Class labels present in the pool, sorted."""
        return sorted(set(self._motifs) | set(self._discords))

    def add(self, candidate: Candidate) -> None:
        """Insert a candidate under its label and kind."""
        store = self._motifs if candidate.kind is CandidateKind.MOTIF else self._discords
        store.setdefault(candidate.label, []).append(candidate)

    def motifs(self, label: int) -> list[Candidate]:
        """Motif candidates of a class (the paper's Phi_C^motif)."""
        return list(self._motifs.get(label, []))

    def discords(self, label: int) -> list[Candidate]:
        """Discord candidates of a class (the paper's Phi_C^discord)."""
        return list(self._discords.get(label, []))

    def all_of_class(self, label: int) -> list[Candidate]:
        """Motifs then discords of a class (the paper's Phi_C)."""
        return self.motifs(label) + self.discords(label)

    def other_classes(self, label: int) -> list[Candidate]:
        """All candidates of every class except ``label`` (Phi_{C-bar})."""
        out: list[Candidate] = []
        for cls in self.classes:
            if cls != label:
                out.extend(self.all_of_class(cls))
        return out

    def remove(self, candidate: Candidate) -> bool:
        """Remove one candidate (Algorithm 3, lines 6/9). Returns success."""
        store = self._motifs if candidate.kind is CandidateKind.MOTIF else self._discords
        bucket = store.get(candidate.label)
        if not bucket:
            return False
        try:
            bucket.remove(candidate)
        except ValueError:
            return False
        return True

    def counts(self) -> dict[int, tuple[int, int]]:
        """Per-class ``(n_motifs, n_discords)``."""
        return {
            cls: (len(self._motifs.get(cls, [])), len(self._discords.get(cls, [])))
            for cls in self.classes
        }

    def __len__(self) -> int:
        return sum(len(v) for v in self._motifs.values()) + sum(
            len(v) for v in self._discords.values()
        )

    def __iter__(self):
        for cls in self.classes:
            yield from self.all_of_class(cls)

    def copy(self) -> "CandidatePool":
        """Shallow copy (candidates are immutable, lists are fresh)."""
        out = CandidatePool()
        out._motifs = {k: list(v) for k, v in self._motifs.items()}
        out._discords = {k: list(v) for k, v in self._discords.items()}
        return out


def _harvest(
    out: list[Candidate],
    ip,
    label: int,
    sample_id: int,
    kind: CandidateKind,
    per_profile: int,
) -> None:
    """Extract top positions from one instance profile into ``out``."""
    picker = top_k_motifs if kind is CandidateKind.MOTIF else top_k_discords
    for position, _value in picker(ip.profile, per_profile):
        instance_id, offset = ip.locate(position)
        out.append(
            Candidate(
                values=ip.subsequence(position),
                label=label,
                kind=kind,
                source_instance=instance_id,
                start=offset,
                sample_id=sample_id,
            )
        )


class BagSample(NamedTuple):
    """One (class, bagging sample) work unit of Algorithm 1."""

    label: int
    sample_id: int
    #: Dataset row ids of the sampled instances (candidate provenance).
    rows: np.ndarray
    #: Their values, one instance per row.
    X_rows: np.ndarray


def bag_candidates(
    units: list[BagSample],
    lengths: list[int],
    motifs_per_profile: int,
    discords_per_profile: int,
    normalized: bool,
    counters=None,
    tracer=NULL_TRACER,
) -> list[list[Candidate]]:
    """Algorithm-1 inner loop for several work units at once.

    Each unit's sample is concatenated and profiled at every candidate
    length that fits its shortest instance. All those instance profiles,
    across units, run through one batched STOMP row loop (a ``"stomp"``
    span); then each unit harvests its motifs and discords, per length,
    in a ``"unit"`` span with one ``"mp"`` span per length. Returns the
    candidates of each unit, in unit order.

    Each unit gets a private :class:`~repro.kernels.SeriesCache` scoped
    to its concatenated sample: the sample's cumulative sums and FFT
    spectra are computed once and reused across the whole candidate-length
    grid, then released with the call. ``counters`` aggregates the
    caches' hit/miss/FFT tallies into the run-wide perf counters.
    """
    requests = []
    owners = []
    for index, unit in enumerate(units):
        sample = concatenate_series(unit.X_rows, instance_ids=unit.rows)
        cache = SeriesCache(counters=counters)
        min_instance = int(np.diff(sample.boundaries).min())
        for length in lengths:
            # A window longer than some instance is skipped.
            if length <= min_instance:
                requests.append((sample, length, cache))
                owners.append(index)
    with tracer.span("stomp", problems=len(requests)):
        profiles = instance_profiles(requests, normalized=normalized)
    by_unit: list[list] = [[] for _ in units]
    for index, ip in zip(owners, profiles):
        by_unit[index].append(ip)

    out: list[list[Candidate]] = []
    for unit, unit_profiles in zip(units, by_unit):
        with tracer.span(
            "unit", label=unit.label, sample_id=unit.sample_id
        ) as unit_span:
            found: list[Candidate] = []
            for ip in unit_profiles:
                with tracer.span("mp", length=ip.window) as mp_span:
                    if not np.any(np.isfinite(ip.values)):
                        mp_span.set(degenerate=True)
                        continue
                    _harvest(
                        found, ip, unit.label, unit.sample_id,
                        CandidateKind.MOTIF, motifs_per_profile,
                    )
                    _harvest(
                        found, ip, unit.label, unit.sample_id,
                        CandidateKind.DISCORD, discords_per_profile,
                    )
            unit_span.set(n_candidates=len(found))
        out.append(found)
    return out


def generate_candidates(
    dataset: Dataset,
    q_n: int,
    q_s: int,
    lengths: list[int],
    motifs_per_profile: int = 1,
    discords_per_profile: int = 1,
    normalized: bool = True,
    seed: int | np.random.Generator | None = None,
    budget_tracker=None,
    perf_counters=None,
    tracer=NULL_TRACER,
) -> CandidatePool:
    """Algorithm 1: generate the candidate pool Phi with the IP.

    Parameters
    ----------
    dataset:
        Training data.
    q_n, q_s:
        Sample count and sample size (bagging parameters).
    lengths:
        Concrete candidate lengths (use
        :func:`repro.instanceprofile.sampling.resolve_lengths` to derive
        them from the paper's ratios).
    motifs_per_profile, discords_per_profile:
        How many motifs/discords to harvest per instance profile; the paper
        takes one of each (min and max of the IP).
    normalized:
        Distance flavour for the underlying profile computation.
    seed:
        Reproducibility seed for the bagging sampler.
    budget_tracker:
        Optional :class:`repro.core.budget.BudgetTracker`. Units are
        processed one round at a time (all classes at sample 0, then
        sample 1, ...; a round's instance profiles share one batched
        STOMP row loop) and the budget is checked between rounds, so
        an exhausted budget truncates at a round boundary with every
        class equally covered. The first round always completes. The
        per-class candidate lists are identical to the unbudgeted run up
        to the truncation point: bagging samples are pre-drawn in the
        historical class-major RNG order.
    perf_counters:
        Optional :class:`repro.kernels.PerfCounters`; per-unit kernel
        caches report their hit/miss/FFT tallies into it. Never affects
        the candidates produced.
    tracer:
        Optional :class:`repro.obs.Trace`; each round records a
        ``"round"`` span (sample id) holding the batched kernel's
        ``"stomp"`` span and then one ``"unit"`` span (label, sample id,
        candidate count) per class, containing an ``"mp"`` span per
        candidate length for the harvest. Defaults to the no-op
        :data:`repro.obs.NULL_TRACER`.
    """
    if tracer is None:
        tracer = NULL_TRACER
    if not lengths:
        raise ValidationError("at least one candidate length is required")
    for length in lengths:
        if not 2 <= length <= dataset.series_length:
            raise ValidationError(
                f"candidate length {length} invalid for series of length "
                f"{dataset.series_length}"
            )
    sampler = BaggingSampler(q_n=q_n, q_s=q_s, seed=seed)
    # Class-major draw order keeps pools bit-identical to older releases.
    samples_by_class = [
        sampler.samples_for_class(dataset.class_indices(label))
        for label in range(dataset.n_classes)
    ]
    pool = CandidatePool()
    rounds_completed = 0
    for sample_id in range(q_n):
        if budget_tracker is not None and sample_id > 0 and budget_tracker.exhausted:
            break
        units = []
        for label in range(dataset.n_classes):
            rows = samples_by_class[label][sample_id]
            units.append(BagSample(label, sample_id, rows, dataset.X[rows]))
        with tracer.span("round", sample_id=sample_id):
            found = bag_candidates(
                units,
                lengths,
                motifs_per_profile,
                discords_per_profile,
                normalized,
                counters=perf_counters,
                tracer=tracer,
            )
        for unit in found:
            for candidate in unit:
                pool.add(candidate)
            if budget_tracker is not None:
                budget_tracker.charge(
                    len(unit), sum(c.length for c in unit)
                )
        rounds_completed += 1
    if budget_tracker is not None:
        budget_tracker.record_phase(
            "generation",
            rounds_completed=rounds_completed,
            rounds_total=q_n,
            truncated=rounds_completed < q_n,
        )
    if len(pool) == 0:
        raise EmptyPoolError(
            "candidate generation produced no candidates; check lengths and data"
        )
    return pool
