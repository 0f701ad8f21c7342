"""ICU mortality risk prediction from irregularly sampled physiological time-series.

The package parses raw per-patient records into episodes whose
measurements are one numpy structured array of (minutes, parameter, value)
rows, turns them into equal-length interval feature matrices, runs a
(bidirectional) LSTM over them, pools the hidden states with soft attention
reading heads, and scores mortality risk with a logistic classifier.  The
parameters are plain numpy arrays, one set per layer: both LSTM directions
stacked in one, every reading head in one.  Each layer records its own
hand-written backward rule on a tape (:mod:`icurisk.autodiff`), a chain of
at most four entries whose one backward sweep gives one gradient per named
parameter, so the whole model trains with Adam and is checked against
finite differences.
"""

__version__ = "0.1.0"

from icurisk.ingest import (
    MEASUREMENT_DTYPE,
    RawEpisode,
    join_labels,
    parse_outcomes,
    parse_record,
    serialize_record,
)
from icurisk.preprocess import (
    EpisodeFeatures,
    PipelineStats,
    build_features,
    fit_pipeline,
)
from icurisk.model import (
    AttentionTrace,
    ModelConfig,
    ModelParams,
    forward_batch,
    forward_episode,
    grad_check,
    load_model,
    save_model,
)
from icurisk.train import (
    TrainConfig,
    auc,
    cross_validate,
    kfold_split,
    train_fold,
)

__all__ = [
    "MEASUREMENT_DTYPE",
    "RawEpisode",
    "parse_record",
    "parse_outcomes",
    "serialize_record",
    "join_labels",
    "EpisodeFeatures",
    "PipelineStats",
    "fit_pipeline",
    "build_features",
    "ModelConfig",
    "ModelParams",
    "AttentionTrace",
    "forward_batch",
    "forward_episode",
    "grad_check",
    "save_model",
    "load_model",
    "TrainConfig",
    "kfold_split",
    "train_fold",
    "cross_validate",
    "auc",
    "__version__",
]
