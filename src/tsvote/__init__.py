"""Time series classification under a latent source model.

Shift-minimized distances, weighted majority voting and nearest-neighbor
classifiers, an oracle posterior baseline, synthetic data generation,
misclassification bounds, rate preprocessing, and an experiment harness.
"""

from .classify import (
    BlockOutcome,
    ClassificationOutcome,
    MapKernel,
    NearestBlock,
    VotingKernel,
    classify_gwmv,
    classify_knn,
    classify_map,
    lambda_ratio,
    log_vote_sum,
    nearest_neighbor,
)
from .core import (
    Label,
    LabeledDataset,
    Provenance,
    TimeSeries,
    VotingParams,
    advance,
    shift_min_distance,
    window_sq_dist,
)
from .errors import (
    ConfigError,
    EmptyPrefixError,
    ParamError,
    ProvenanceError,
    SupportError,
    TsvoteError,
)
from .gapbounds import (
    BoundInputs,
    GaussianConditionsReport,
    gap,
    gap_star,
    gaussian_conditions,
    is_vacuous,
    nn_bound,
    required_gap,
    wmv_bound,
)
from .pipeline import (
    PipelineParams,
    RateSeries,
    baseline_normalize,
    log_transform,
    preprocess,
    slice_training_window,
    smooth,
    spike_emphasize,
)
from .synth import (
    GeneratorConfig,
    LatentSourceModel,
    NoiseSpec,
    coverage_counts,
    make_latent_sources,
    sample_dataset,
    sample_series,
    training_size,
)
from .experiments import (
    CorpusConfig,
    DetectionConfig,
    DetectionResult,
    ErrorCurves,
    ExperimentConfig,
    RocPoint,
    RocSweepResult,
    SweepGrid,
    detect_online,
    error_curves,
    error_vs_T,
    error_vs_beta,
    make_detection_corpus,
    prepare_training,
    roc_sweep,
    split_topics,
)

__version__ = "0.1.0"
