"""stemts: spatial-change-event mining for multidimensional time series.

The pipeline has four stages, each usable on its own:

1. ``dataset``  — load/generate raw samples, normalize, pad.
2. ``events``   — symbolize each step of each dimension (up/flat/down) and
   fuse the per-dimension symbols into one event code per step.
3. ``mining``   — mine frequent variable-length code tuples with one array
   walk over every window, shared with vectorizing, and support pruning.
4. ``features``/``evaluate`` — vectorize sequences over the mined tuples and
   run a leakage-safe classification benchmark with CPU-time accounting.
"""

from .dataset import (
    MtsDataset,
    MtsSample,
    SynthSpec,
    generate_synthetic,
    load_csv,
    load_synth_spec,
    noiseless_trend,
    normalize_sample,
    pad_to_length,
    write_csv,
)
from .errors import StemError
from .evaluate import (
    ClassifierConfig,
    EvalReport,
    SplitSpec,
    baseline_histogram_eval,
    class_centroids,
    evaluate_pipeline,
    knn_classify,
    nearest_centroid_classify,
    render_report_table,
    reports_to_json,
    split_dataset,
    write_report_files,
)
from .events import (
    EventBatch,
    EventSequence,
    SymbolizerConfig,
    alphabet_size,
    convert_dataset,
    decode_event,
    encode_event,
    explain_event,
    explain_tuple,
    load_events,
    symbolize_dimension,
    symbolize_sample,
    write_events,
)
from .features import (
    FeatureVector,
    FeatureVocabulary,
    build_vocabulary,
    full_alphabet_vocabulary,
    load_vocabulary,
    save_vocabulary,
    vectorize,
    vectorize_dataset,
    write_feature_matrix,
)
from .mining import (
    MinerConfig,
    PrefixForest,
    brute_force_mine,
    build_forest,
    extract_rts_features,
    load_feature_list,
    prune_bottom_up,
    resolve_min_support,
    write_feature_list,
)

__version__ = "0.1.0"

__all__ = [
    "MtsSample",
    "MtsDataset",
    "SynthSpec",
    "load_csv",
    "write_csv",
    "normalize_sample",
    "pad_to_length",
    "generate_synthetic",
    "noiseless_trend",
    "load_synth_spec",
    "SymbolizerConfig",
    "EventBatch",
    "EventSequence",
    "alphabet_size",
    "symbolize_dimension",
    "encode_event",
    "decode_event",
    "symbolize_sample",
    "convert_dataset",
    "explain_event",
    "explain_tuple",
    "write_events",
    "load_events",
    "MinerConfig",
    "PrefixForest",
    "resolve_min_support",
    "build_forest",
    "prune_bottom_up",
    "extract_rts_features",
    "brute_force_mine",
    "write_feature_list",
    "load_feature_list",
    "FeatureVocabulary",
    "FeatureVector",
    "build_vocabulary",
    "full_alphabet_vocabulary",
    "vectorize",
    "vectorize_dataset",
    "save_vocabulary",
    "load_vocabulary",
    "write_feature_matrix",
    "SplitSpec",
    "ClassifierConfig",
    "EvalReport",
    "split_dataset",
    "class_centroids",
    "knn_classify",
    "nearest_centroid_classify",
    "evaluate_pipeline",
    "baseline_histogram_eval",
    "reports_to_json",
    "render_report_table",
    "write_report_files",
    "StemError",
]
