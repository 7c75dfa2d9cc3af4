"""Configuration of the IPS pipeline (parameter grid of Section IV-A)."""

from __future__ import annotations

import dataclasses
import difflib
import functools
from dataclasses import dataclass, field

from repro.core.budget import Budget
from repro.exceptions import ConfigError, ValidationError

#: Accepted values of ``IPSConfig.validation_mode``.
VALIDATION_MODES: tuple[str, ...] = ("strict", "repair", "off")

#: Accepted values of ``IPSConfig.observability`` (see ``repro.obs``).
OBSERVABILITY_MODES: tuple[str, ...] = ("off", "counters", "trace", "trace+jsonl")

#: The paper's candidate-length ratio grid.
DEFAULT_LENGTH_RATIOS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Fault-tolerance policy for distributed candidate generation.

    Attaching one of these to ``IPSConfig.fault_tolerance`` switches
    :class:`repro.distributed.DistributedIPS` from the fail-fast path
    (any worker exception aborts discovery) to the resilient path:
    per-unit retries with exponential backoff, a per-class success
    quorum, and optional checkpoint/resume. See ``docs/robustness.md``.

    Attributes
    ----------
    max_retries:
        Extra attempts per work unit after the first (0 = fail fast per
        unit, but still apply the quorum policy).
    base_delay, max_delay:
        Exponential-backoff schedule between retry rounds: round ``r``
        sleeps ``min(max_delay, base_delay * 2**(r-1))`` scaled by jitter.
        ``base_delay=0`` disables sleeping (useful in tests).
    jitter:
        Fractional jitter added to each backoff sleep, drawn from a
        seeded RNG so schedules are reproducible.
    unit_timeout:
        Wall-clock budget per unit in seconds; a unit exceeding it is
        treated as a retryable timeout failure. ``None`` disables the
        check.
    quorum:
        Minimum fraction of work units per class that must succeed for
        the merged pool to be trusted; below it discovery raises
        :class:`repro.exceptions.QuorumError`. ``1.0`` demands every
        unit.
    checkpoint_dir:
        Directory for the unit-result checkpoint store; completed units
        are persisted there and a re-run resumes instead of recomputing.
        ``None`` disables checkpointing.
    seed:
        Seed of the backoff-jitter RNG (falls back to the pipeline's
        master seed when ``None``). Never affects results, only sleeps.
    """

    max_retries: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.1
    unit_timeout: float | None = None
    quorum: float = 1.0
    checkpoint_dir: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValidationError("backoff delays must be >= 0")
        if self.max_delay < self.base_delay:
            raise ValidationError("max_delay must be >= base_delay")
        if self.jitter < 0:
            raise ValidationError(f"jitter must be >= 0, got {self.jitter}")
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValidationError("unit_timeout must be > 0 when set")
        if not 0.0 < self.quorum <= 1.0:
            raise ValidationError(
                f"quorum must be in (0, 1], got {self.quorum}"
            )


@dataclass
class IPSConfig:
    """All tunables of the IPS pipeline.

    Defaults follow Section IV-A: shapelet number ``k = 5``, candidate
    length ratios {0.1..0.5}, ``Q_N`` from {10, 20, 50, 100} (default 20)
    and ``Q_S`` from {2, 3, 4, 5, 10} (default 3).

    Attributes
    ----------
    k:
        Number of shapelets selected per class.
    q_n, q_s:
        Bagging sample count / size for the instance profile.
    length_ratios:
        Candidate lengths as fractions of the series length.
    lsh_scheme:
        ``"l2"`` (paper default), ``"cosine"``, or ``"hamming"``
        (Table VII ablation).
    n_projections:
        Hash functions per LSH signature.
    theta:
        DABF 3-sigma-rule threshold.
    bins:
        Histogram bins for the DABF distribution fit.
    use_dabf:
        Toggle Algorithm-3 pruning (off = the Table V "without DABF" arm,
        which prunes with the naive quadratic method).
    use_dt_cr:
        Toggle the DT & CR optimizations (off = brute-force utilities, the
        Table V / Fig. 10(b) "without DT+CR" arm).
    normalized_profiles:
        Distance flavour inside the instance profile.
    motifs_per_profile, discords_per_profile:
        Harvest width of Algorithm 1.
    svm_c:
        Soft-margin penalty of the final linear SVM.
    final_classifier:
        Classifier applied to the shapelet-transformed features:
        ``"svm"`` (the paper's choice), ``"nb"`` (Gaussian naive Bayes),
        ``"tree"`` (CART), or ``"1nn"`` — the classic post-transform set
        of Lines et al. cited in Section I.
    normalize_utility_sums:
        Divide utility sums by their term count before the sigmoid
        (Defs. 11-13 apply the sigmoid to a raw sum, which saturates to 1.0
        in float64 once the sum exceeds ~40 and erases the ranking; the
        paper's formula is recovered with ``False``). See DESIGN.md.
    seed:
        Master seed; every stochastic stage derives from it.
    fault_tolerance:
        Optional :class:`FaultToleranceConfig` enabling retries, quorum
        merging, and checkpointing in the distributed pipeline; ``None``
        keeps the historical fail-fast behaviour.
    validation_mode:
        Data-contract handling on ``fit``: ``"repair"`` (default — apply
        deterministic repair policies and record them in
        ``DiscoveryResult.extra["validation_report"]``), ``"strict"``
        (raise :class:`~repro.exceptions.ValidationError` on any
        ERROR-severity finding), or ``"off"`` (legacy passthrough). See
        :mod:`repro.validation`.
    min_class_size:
        Classes with fewer training examples are flagged by validation
        (WARNING severity; discovery still runs).
    budget:
        Optional :class:`repro.core.budget.Budget`. When set, discovery
        becomes *anytime*: the budget is checked at round and phase
        boundaries, and on exhaustion a valid best-so-far result is
        returned with ``completed=False`` instead of running to the end.
    kernel_cache:
        Share one :class:`repro.kernels.SeriesCache` across the discovery
        phases (matrix profiles, utility scoring, shapelet transform), so
        each series' FFT spectrum and rolling statistics are computed once
        per run. Results are bit-identical either way — ``False`` only
        disables the reuse (the equivalence-testing and micro-benchmark
        arm). Perf counters are collected regardless and surface at
        ``DiscoveryResult.extra["perf"]``.
    spectra_cache_dir:
        Optional directory of a persistent
        :class:`repro.kernels.SpectraStore`. When set, the run's
        ``SeriesCache`` consults/updates the on-disk spectrum cache, so
        repeated runs over the same data skip the forward FFTs
        (``spectra_disk_hits`` in the perf counters). Entries are
        content-addressed and checksummed; corruption is quarantined and
        recomputed, never served.
    observability:
        How much the run observes itself (:mod:`repro.obs`): ``"off"``
        (no counters, no trace — the no-op singletons ride the hot
        paths), ``"counters"`` (default: kernel perf counters and stage
        times, ``extra["perf"]``), ``"trace"``
        (adds the span tree, metrics registry, and run manifest at
        ``DiscoveryResult.extra["trace"]``), or ``"trace+jsonl"``
        (additionally streams the trace to ``obs_jsonl_path``). Never
        affects numerical results.
    obs_jsonl_path:
        Destination of the ``"trace+jsonl"`` sink; ``None`` uses
        ``.repro-obs/last-run.jsonl`` (what ``repro obs report`` reads
        by default).
    streaming_margin_threshold:
        Decision-margin threshold of
        :class:`repro.streaming.EarlyClassifier`: once the classifier's
        :func:`repro.types.decision_margin` on the partial series clears
        it (and ``streaming_min_fraction`` is satisfied), the label is
        emitted early. ``0.0`` emits at the first eligible window.
    streaming_min_fraction:
        Fraction of the training series length that must have arrived
        before early emission is allowed — a guard against confident
        nonsense on the first few samples. ``1.0`` disables early
        emission entirely (decisions only at end of stream).
    streaming_chunk_size:
        Default chunk size of the chunked-replay driver
        (:func:`repro.datasets.iter_chunks`) and the ``repro stream``
        CLI.
    """

    k: int = 5
    q_n: int = 20
    q_s: int = 3
    length_ratios: tuple[float, ...] = DEFAULT_LENGTH_RATIOS
    lsh_scheme: str = "l2"
    n_projections: int = 8
    theta: float = 3.0
    bins: int = 16
    use_dabf: bool = True
    use_dt_cr: bool = True
    normalized_profiles: bool = True
    motifs_per_profile: int = 1
    discords_per_profile: int = 1
    svm_c: float = 1.0
    final_classifier: str = "svm"
    normalize_utility_sums: bool = True
    seed: int | None = 0
    fault_tolerance: FaultToleranceConfig | None = None
    validation_mode: str = "repair"
    min_class_size: int = 2
    budget: Budget | None = None
    kernel_cache: bool = True
    spectra_cache_dir: str | None = None
    observability: str = "counters"
    obs_jsonl_path: str | None = None
    streaming_margin_threshold: float = 1.0
    streaming_min_fraction: float = 0.3
    streaming_chunk_size: int = 32
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.q_n < 1 or self.q_s < 1:
            raise ValidationError("q_n and q_s must be >= 1")
        if not self.length_ratios:
            raise ValidationError("length_ratios must be non-empty")
        for ratio in self.length_ratios:
            if not 0.0 < ratio <= 1.0:
                raise ValidationError(f"length ratio {ratio} outside (0, 1]")
        if self.lsh_scheme not in ("l2", "cosine", "hamming"):
            raise ValidationError(f"unknown lsh_scheme {self.lsh_scheme!r}")
        if self.theta <= 0:
            raise ValidationError(f"theta must be > 0, got {self.theta}")
        if self.n_projections < 1:
            raise ValidationError("n_projections must be >= 1")
        if self.bins < 2:
            raise ValidationError("bins must be >= 2")
        if self.motifs_per_profile < 1 or self.discords_per_profile < 0:
            raise ValidationError("invalid per-profile harvest counts")
        if self.svm_c <= 0:
            raise ValidationError("svm_c must be > 0")
        if self.final_classifier not in ("svm", "nb", "tree", "1nn"):
            raise ValidationError(
                f"unknown final_classifier {self.final_classifier!r}"
            )
        if self.fault_tolerance is not None and not isinstance(
            self.fault_tolerance, FaultToleranceConfig
        ):
            raise ValidationError(
                "fault_tolerance must be a FaultToleranceConfig or None"
            )
        if self.validation_mode not in VALIDATION_MODES:
            raise ValidationError(
                f"unknown validation_mode {self.validation_mode!r}; "
                f"choose from {VALIDATION_MODES}"
            )
        if self.min_class_size < 1:
            raise ValidationError(
                f"min_class_size must be >= 1, got {self.min_class_size}"
            )
        if self.budget is not None and not isinstance(self.budget, Budget):
            raise ValidationError("budget must be a Budget or None")
        if self.observability not in OBSERVABILITY_MODES:
            raise ValidationError(
                f"unknown observability {self.observability!r}; "
                f"choose from {OBSERVABILITY_MODES}"
            )
        if self.streaming_margin_threshold < 0:
            raise ValidationError(
                "streaming_margin_threshold must be >= 0, got "
                f"{self.streaming_margin_threshold}"
            )
        if not 0.0 <= self.streaming_min_fraction <= 1.0:
            raise ValidationError(
                "streaming_min_fraction must be in [0, 1], got "
                f"{self.streaming_min_fraction}"
            )
        if self.streaming_chunk_size < 1:
            raise ValidationError(
                "streaming_chunk_size must be >= 1, got "
                f"{self.streaming_chunk_size}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "IPSConfig":
        """Rebuild a config from its manifest form (``dataclasses.asdict``).

        Run manifests serialize the config as a plain dict (nested
        dataclasses become dicts, tuples become lists); this inverts
        that: ``fault_tolerance``/``budget`` dicts are reconstructed into
        their dataclasses and ``length_ratios`` is re-tupled, so
        ``IPSConfig.from_dict(asdict(config)) == config`` round-trips —
        including the ``streaming_*`` fields. Unknown keys raise
        :class:`~repro.exceptions.ConfigError` (strict, with a
        did-you-mean hint), never silently drop.
        """
        if not isinstance(data, dict):
            raise ConfigError(
                f"IPSConfig.from_dict expects a dict, got {type(data).__name__}"
            )
        kwargs = dict(data)
        value = kwargs.get("fault_tolerance")
        if isinstance(value, dict):
            kwargs["fault_tolerance"] = FaultToleranceConfig(**value)
        value = kwargs.get("budget")
        if isinstance(value, dict):
            kwargs["budget"] = Budget(**value)
        value = kwargs.get("length_ratios")
        if isinstance(value, list):
            kwargs["length_ratios"] = tuple(value)
        return cls(**kwargs)


#: Every field name IPSConfig accepts, for strict unknown-kwarg rejection.
_CONFIG_FIELDS: frozenset[str] = frozenset(
    f.name for f in dataclasses.fields(IPSConfig)
)

_generated_init = IPSConfig.__init__


@functools.wraps(_generated_init)
def _strict_init(self, *args, **kwargs) -> None:
    unknown = sorted(set(kwargs) - _CONFIG_FIELDS)
    if unknown:
        hints = []
        for name in unknown:
            close = difflib.get_close_matches(name, _CONFIG_FIELDS, n=1)
            hints.append(
                f"{name!r} (did you mean {close[0]!r}?)" if close else repr(name)
            )
        raise ConfigError(
            f"unknown IPSConfig field(s): {', '.join(hints)}"
        )
    _generated_init(self, *args, **kwargs)


# A mistyped field name historically raised a bare TypeError from the
# dataclass-generated __init__; manifests written by a newer version (or
# plain typos) now fail with a typed, suggestion-bearing ConfigError.
IPSConfig.__init__ = _strict_init
