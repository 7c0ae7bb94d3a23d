"""stemts: spatial-change-event mining for multidimensional time series.

The pipeline has four stages, each usable on its own:

1. ``dataset``  — load/generate raw samples, normalize, pad.
2. ``events``   — symbolize each step of each dimension (up/flat/down) and
   fuse the per-dimension symbols into one event code per step.
3. ``mining``   — mine frequent variable-length code tuples with one array
   walk over every window, shared with vectorizing, and support pruning.
4. ``features``/``evaluate`` — vectorize an event batch over the mined tuples
   (``vectorize_batch``) and run a leakage-safe, CPU-timed classification benchmark.

The imports below are the one list of public names: no submodule keeps its own
``__all__``, and other submodule names stay importable from their modules.
``stemts.evaluate`` stays the module: exporting its function would hide it.
"""

from types import ModuleType as _Module

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
    evaluate_pipeline,
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
    vectorize_batch,
    vectorize_dataset,
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

# every name imported above, but not the submodules those imports bind
__all__ = [n for n, v in globals().items() if not (n[0] == "_" or isinstance(v, _Module))]
