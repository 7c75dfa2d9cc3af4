"""End-to-end IPS: discovery (Fig. 5) and the transform+SVM classifier."""

from __future__ import annotations

import warnings

import numpy as np

from repro.classify.naive_bayes import GaussianNB
from repro.classify.svm import OneVsRestSVM
from repro.classify.tree import DecisionTree
from repro.core.config import IPSConfig
from repro.core.model import ShapeletModel, ShapeletModelPredictor
from repro.core.selection import select_top_k_per_class
from repro.core.transform import ShapeletTransform
from repro.core.utility import (
    UtilityScores,
    _PairDistanceCache,
    score_candidates_brute,
    score_candidates_dt,
)
from repro.exceptions import EmptyPoolError, NotFittedError
from repro.filters.dabf import DABF, NaivePruner, PruneReport
from repro.instanceprofile.candidates import CandidatePool, generate_candidates
from repro.kernels import SeriesCache
from repro.instanceprofile.sampling import resolve_lengths
from repro.obs import NULL_TRACER, make_tracer, run_manifest
from repro.ts.series import Dataset
from repro.types import DiscoveryResult, ParamsMixin, PredictorMixin, Shapelet


def restore_emptied_classes(
    original: CandidatePool, pruned: CandidatePool
) -> CandidatePool:
    """Undo pruning for any class whose motif set it emptied.

    Algorithm 3 has no guard against removing every motif of a class; a
    class with zero motifs would get zero shapelets and become
    unclassifiable, so pruning falls back to the unpruned motifs for that
    class (a safety net the paper leaves implicit).
    """
    for label in original.classes:
        if not pruned.motifs(label):
            for candidate in original.motifs(label):
                pruned.add(candidate)
    return pruned


def score_with_class_fallback(scorer, pruned, pool, labels, tracer=NULL_TRACER) -> dict:
    """Score every class, surviving a degraded per-class pool.

    ``scorer(active_pool, label)`` computes one class's utilities. When
    the pruned pool is degraded for a class — scoring raises
    :class:`EmptyPoolError`, or it yields no candidates although the
    unpruned pool has motifs for that class (possible after a distributed
    quorum merge lost units) — the class falls back to its *unpruned*
    candidates with a warning, instead of aborting the whole run or
    silently dropping the class. ``tracer`` records one ``utility`` span
    per class (with the fallback flagged) when tracing is active.
    """
    scores_by_class: dict[int, UtilityScores] = {}
    for label in labels:
        with tracer.span("utility", label=label) as span:
            try:
                scores = scorer(pruned, label)
                if not scores.candidates and pool.motifs(label):
                    raise EmptyPoolError(
                        f"pruned pool holds no motif candidates for class {label}"
                    )
            except EmptyPoolError as exc:
                warnings.warn(
                    f"class {label}: degraded pruned pool ({exc}); falling back "
                    "to the unpruned candidates for this class",
                    RuntimeWarning,
                    stacklevel=2,
                )
                span.set(fallback=True, reason=str(exc))
                tracer.count("utility.class_fallbacks")
                scores = scorer(pool, label)
            span.set(n_candidates=len(scores.candidates))
            tracer.count("utility.classes_scored")
        scores_by_class[label] = scores
    return scores_by_class


class IPS:
    """Shapelet discovery with the instance profile (the paper's method).

    Parameters
    ----------
    config:
        Pipeline tunables; see :class:`repro.core.config.IPSConfig`.
    """

    def __init__(self, config: IPSConfig | None = None) -> None:
        self.config = config or IPSConfig()
        self.pool_: CandidatePool | None = None
        self.pruned_pool_: CandidatePool | None = None
        self.dabf_: DABF | None = None
        self.prune_report_: PruneReport | None = None
        self.kernel_cache_: SeriesCache | None = None
        #: Trace of the last run (``None`` unless tracing was active).
        self.trace_ = None

    def _generate(
        self, dataset: Dataset, lengths, tracker, tracer, gen_span
    ) -> tuple[CandidatePool, dict]:
        """Algorithm 1: the candidate pool plus generation-specific extras.

        The one stage a subclass swaps (see
        :class:`repro.distributed.DistributedIPS`); pruning and selection
        in :meth:`discover` are shared. Runs inside the ``generation``
        stage, whose span is ``gen_span``.
        """
        config = self.config
        pool = generate_candidates(
            dataset,
            q_n=config.q_n,
            q_s=config.q_s,
            lengths=lengths,
            motifs_per_profile=config.motifs_per_profile,
            discords_per_profile=config.discords_per_profile,
            normalized=config.normalized_profiles,
            seed=config.seed,
            budget_tracker=tracker,
            tracer=tracer,
        )
        return pool, {}

    def discover(self, dataset: Dataset) -> DiscoveryResult:
        """Run candidate generation, pruning, and top-k selection.

        With ``config.budget`` set, the run is *anytime*: the budget is
        checked between generation rounds and at phase boundaries. On
        exhaustion, generation truncates at a round boundary (every
        class equally covered), pruning is skipped, and selection runs
        on whatever pool exists — the result is valid but flagged
        ``completed=False``, with ``extra["budget"]`` recording per-phase
        progress. Truncation points are reproducible: candidate/memory
        budgets always cut at the same round for a fixed seed, and a
        deadline tight enough to expire within the first round cuts at
        the guaranteed one-round minimum.
        """
        tracer = make_tracer(self.config.observability)
        result = self._discover(dataset, tracer)
        tracer.finish(self.config.obs_jsonl_path)
        return result

    def _discover(self, dataset: Dataset, tracer) -> DiscoveryResult:
        """:meth:`discover` on the caller's tracer, whose stage times and
        kernel counters it adds into; the caller finishes the run."""
        config = self.config
        lengths = resolve_lengths(dataset.series_length, config.length_ratios)
        tracker = config.budget.start() if config.budget is not None else None
        self.trace_ = tracer if tracer.active else None
        if tracer.active:
            tracer.manifest = run_manifest(config, dataset)
        counters = tracer.counters
        # Run-wide series cache shared by the scoring and transform phases
        # (generation uses per-unit caches to bound memory — see
        # instanceprofile.candidates — but reports into the same counters).
        # When configured, the cache carries the persistent on-disk
        # spectra store shared across runs.
        run_cache = (
            SeriesCache(counters=counters, store=config.spectra_cache_dir)
            if config.kernel_cache
            else None
        )
        self.kernel_cache_ = run_cache

        with tracer.span(
            "discover",
            dataset=dataset.name,
            n_series=dataset.n_series,
            n_classes=dataset.n_classes,
            series_length=dataset.series_length,
            k=config.k,
            seed=config.seed,
        ):
            with tracer.stage(
                "generation", q_n=config.q_n, q_s=config.q_s, lengths=lengths
            ) as gen_span:
                pool, gen_extra = self._generate(
                    dataset, lengths, tracker, tracer, gen_span
                )
                gen_span.set(n_candidates=len(pool))
                tracer.count("candidates.generated", len(pool))
            self.pool_ = pool

            multi_class = dataset.n_classes > 1
            out_of_budget = tracker is not None and tracker.exhausted
            if out_of_budget:
                tracer.event(
                    "budget.exhausted",
                    phase="generation",
                    reason=tracker.check(),
                )
            dabf: DABF | None = None
            with tracer.stage("pruning") as prune_span:
                if out_of_budget:
                    # Pruning is an optimization, not a correctness stage:
                    # skip it to leave the remaining budget to selection.
                    pruned, report = pool.copy(), PruneReport()
                    prune_span.set(method="skipped(budget)")
                elif multi_class and config.use_dabf:
                    with tracer.span("dabf.build"):
                        dabf = DABF.build(
                            pool,
                            scheme=config.lsh_scheme,
                            n_projections=config.n_projections,
                            bins=config.bins,
                            seed=config.seed,
                        )
                    with tracer.span("dabf.prune", theta=config.theta):
                        pruned, report = dabf.prune(pool, theta=config.theta)
                    pruned = restore_emptied_classes(pool, pruned)
                    prune_span.set(method="dabf")
                elif multi_class:
                    pruner = NaivePruner(
                        pool,
                        theta=config.theta,
                        seed=config.seed,
                        series_cache=run_cache,
                    )
                    pruned, report = pruner.prune(pool)
                    pruned = restore_emptied_classes(pool, pruned)
                    prune_span.set(method="naive")
                else:
                    pruned, report = pool.copy(), PruneReport()
                    prune_span.set(method="single-class-passthrough")
                prune_span.set(
                    n_removed=report.n_removed, n_kept=len(pruned)
                )
                tracer.count("candidates.pruned", report.n_removed)
            self.pruned_pool_ = pruned
            self.prune_report_ = report
            if tracker is not None:
                tracker.record_phase("pruning", skipped=out_of_budget)
                was_exhausted = out_of_budget
                out_of_budget = tracker.exhausted
                if out_of_budget and not was_exhausted:
                    tracer.event(
                        "budget.exhausted",
                        phase="pruning",
                        reason=tracker.check(),
                    )

            use_dt = config.use_dt_cr and not out_of_budget
            shared_cache = _PairDistanceCache(series_cache=run_cache)

            def _score(active_pool: CandidatePool, label: int) -> UtilityScores:
                if use_dt:
                    return score_candidates_dt(
                        dataset,
                        active_pool,
                        label,
                        dabf,
                        normalize=config.normalize_utility_sums,
                    )
                return score_candidates_brute(
                    dataset,
                    active_pool,
                    label,
                    use_cr=False,
                    normalize=config.normalize_utility_sums,
                    cache=shared_cache,
                    series_cache=(
                        run_cache
                        if run_cache is not None
                        else SeriesCache(counters=counters)
                    ),
                )

            with tracer.stage("selection", dt_used=use_dt):
                if use_dt and dabf is None:
                    # DT needs the bucket tables even when DABF pruning is off.
                    with tracer.span("dabf.build", reason="dt-tables"):
                        dabf = DABF.build(
                            pool,
                            scheme=config.lsh_scheme,
                            n_projections=config.n_projections,
                            bins=config.bins,
                            seed=config.seed,
                        )
                scores_by_class = score_with_class_fallback(
                    _score, pruned, pool, range(dataset.n_classes), tracer=tracer
                )
                shapelets = select_top_k_per_class(scores_by_class, config.k)
            self.dabf_ = dabf

        extra = {
            "lengths": lengths,
            "prune_report": report,
            "scores_by_class": scores_by_class,
            # There is one float64 kernel path; the key stays for
            # readers that record which path ran.
            "kernel_backend": "reference",
            **gen_extra,
        }
        perf = tracer.perf()
        if perf is not None:
            extra["perf"] = perf
        completed = not gen_extra.get("interrupted", False)
        if tracker is not None:
            tracker.record_phase(
                "selection", classes_scored=len(scores_by_class), dt_used=use_dt
            )
            # "Completed" means every phase did its full work — a deadline
            # expiring after the last phase finished does not un-complete it.
            gen_truncated = tracker.progress.get("generation", {}).get(
                "truncated", False
            )
            completed = completed and not (
                gen_truncated
                or tracker.progress.get("pruning", {}).get("skipped", False)
                or (config.use_dt_cr and not use_dt)
            )
            extra["budget"] = tracker.snapshot()
        if tracer.active:
            extra["trace"] = tracer
        times = tracer.times
        return DiscoveryResult(
            shapelets=shapelets,
            n_candidates_generated=len(pool),
            n_candidates_after_pruning=len(pruned),
            time_candidate_generation=times["generation"],
            time_pruning=times["pruning"],
            time_selection=times["selection"],
            completed=completed,
            extra=extra,
        )


class _Feature1NN(PredictorMixin):
    """1NN on the shapelet-feature space (one of the classic choices).

    Non-finite feature cells (a degenerate transform can emit them) are
    zeroed deterministically on both sides, so a NaN in one column can
    never poison every distance and flip ``argmin`` arbitrarily.
    """

    def __init__(self) -> None:
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self.classes_: np.ndarray | None = None

    @staticmethod
    def _sanitize(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if np.isfinite(X).all():
            return X
        return np.where(np.isfinite(X), X, 0.0)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_Feature1NN":
        """Memorize the feature matrix."""
        self._X = self._sanitize(X)
        self._y = np.asarray(y, dtype=np.int64)
        self.classes_ = np.unique(self._y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Nearest-neighbour label per feature row."""
        if self._X is None:
            raise NotFittedError("call fit before predict")
        X = self._sanitize(X)
        out = np.empty(X.shape[0], dtype=np.int64)
        for i, row in enumerate(X):
            diffs = self._X - row
            out[i] = self._y[np.argmin(np.einsum("ij,ij->i", diffs, diffs))]
        return out


def _make_final_classifier(config: IPSConfig):
    """Instantiate the post-transform classifier chosen in the config."""
    if config.final_classifier == "svm":
        return OneVsRestSVM(C=config.svm_c, seed=config.seed)
    if config.final_classifier == "nb":
        return GaussianNB()
    if config.final_classifier == "tree":
        return DecisionTree(seed=config.seed)
    return _Feature1NN()


class IPSClassifier(ShapeletModelPredictor, ParamsMixin):
    """IPS discovery + shapelet transform + standardization + classifier.

    The final classifier defaults to the paper's linear SVM and can be
    switched via ``IPSConfig(final_classifier=...)``. The
    ``fit``/``predict``/``score`` interface takes raw ``(M, N)`` arrays
    with arbitrary integer labels (a :class:`Dataset` is also accepted by
    :meth:`fit_dataset`). The fitted stack is :attr:`model_`, a
    :class:`~repro.core.model.ShapeletModel`.
    """

    def __init__(self, config: IPSConfig | None = None) -> None:
        self.config = config or IPSConfig()
        self.discoverer_ = IPS(self.config)
        self.shapelets_: list[Shapelet] | None = None
        self.discovery_result_: DiscoveryResult | None = None
        #: The (validated) training set of the last fit; the artifact
        #: manifest fingerprints it. Not part of :attr:`model_`.
        self._dataset: Dataset | None = None

    def fit_dataset(self, dataset: Dataset) -> "IPSClassifier":
        """Fit on an already-constructed :class:`Dataset`.

        Unless ``config.validation_mode == "off"``, the dataset is first
        checked against the data contracts (:mod:`repro.validation`);
        the resulting report is attached to
        ``discovery_result_.extra["validation_report"]``.
        """
        return self._fit(dataset)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "IPSClassifier":
        """Fit on raw arrays.

        In ``"repair"``/``"strict"`` validation modes the raw arrays are
        validated *before* :class:`Dataset` construction, so NaN gaps and
        ragged rows reach the repair policies instead of the
        constructor's blanket rejection.
        """
        if self.config.validation_mode == "off":
            return self._fit(Dataset(X=X, y=y))
        return self._fit(X, y)

    def _fit(self, X, y=None) -> "IPSClassifier":
        """Validate, discover, transform and classify under one tracer,
        the fit's stage clock and kernel counters, finished here."""
        from repro.validation import validate_dataset

        config = self.config
        tracer = make_tracer(config.observability)
        dataset, validation_report = X, None
        if config.validation_mode != "off":
            with tracer.stage("validation", mode=config.validation_mode) as span:
                validated = validate_dataset(
                    X,
                    y,
                    mode=config.validation_mode,
                    min_class_size=config.min_class_size,
                )
                report = validated.report
                n_repairs = len(getattr(report, "repairs", []) or [])
                span.set(
                    n_findings=len(getattr(report, "findings", []) or []),
                    n_repairs=n_repairs,
                )
                tracer.count("validation.repairs", n_repairs)
            dataset, validation_report = validated.dataset, report
        result = self.discoverer_._discover(dataset, tracer)
        result.extra["validation_report"] = validation_report
        self.discovery_result_ = result
        self.shapelets_ = result.shapelets
        self._dataset = dataset
        # Share the discovery run's series cache with the transform, so
        # the training series' FFT spectra and window statistics computed
        # during utility scoring are reused here instead of redone (and
        # offline predict keeps using it).
        transform_cache = self.discoverer_.kernel_cache_
        if transform_cache is None:
            transform_cache = SeriesCache(counters=tracer.counters)
        self.model_ = ShapeletModel.fit(
            ShapeletTransform(result.shapelets, cache=transform_cache),
            dataset,
            _make_final_classifier(config),
            config.final_classifier,
            tracer,
        )
        perf = tracer.finish(config.obs_jsonl_path)
        if perf is not None:
            result.extra["perf"] = perf
        return self
