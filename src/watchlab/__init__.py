"""Uncovering user interest from duration-biased, noise-contaminated
video watch-time logs."""

__version__ = "0.1.0"

from .data_model import (  # noqa: F401
    Dataset,
    DatasetStats,
    compute_stats,
    ingest_csv,
    split_chronological,
    write_csv,
)
from .synthgen import Curve, GroundTruth, SynthConfig, generate, true_curves  # noqa: F401
from .estimator import (  # noqa: F401
    BiasNoiseCurves,
    GmmOptions,
    GroupEstimate,
    fit_all_groups,
    fit_group_gmm,
    smooth_curves,
)
from .correction import (  # noqa: F401
    CorrectionParams,
    apply_method,
    denoise_postprocess,
    error_decomposition,
    label_d2co_affine,
    label_d2co_sensitivity,
    label_pcr,
    label_wtg,
)
from .trainer import FMModel, TrainConfig, build_vocab, train  # noqa: F401
from .evaluation import (  # noqa: F401
    EvalReport,
    evaluate,
    gauc,
    improve_percentage,
    ndcg_at_k,
    oracle_labels,
)
