"""The traced pass: every layer of stemts called once, each call in a span.

The pass replays what ``stemts eval --baseline`` does through public calls,
then the stem vocabulary build stage by stage, and runs the CLI commands as
subprocesses. Every workload runs the whole pass on its own inputs and
settings, so every per-layer metric exists on every workload; which metric
matters on which workload is recorded in ``workloads.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from stemts import (
    build_forest,
    build_vocabulary,
    convert_dataset,
    extract_rts_features,
    full_alphabet_vocabulary,
    load_csv,
    load_events,
    prune_bottom_up,
    split_dataset,
    vectorize_dataset,
    write_csv,
    write_events,
    write_feature_list,
)

import workloads
from tracing import Tracer, self_times, uncovered_share

TOP_LEVEL = ("setup", "cli", "eval", "stages")
WALL_SPANS = (
    "dataset.load_csv",
    "dataset.write_csv",
    "dataset.generate_synthetic",
    "events.convert_dataset",
    "events.write_events",
    "events.load_events",
    "mining.build_forest",
    "mining.prune_bottom_up",
    "mining.extract_rts_features",
    "mining.write_feature_list",
    "features.vectorize_dataset.stem",
    "features.vectorize_dataset.baseline",
    "features.build_vocabulary",
    "features.save_vocabulary",
    "evaluate.evaluate_pipeline",
    "evaluate.baseline_histogram_eval",
    "evaluate.write_report_files",
    "cli.convert",
    "cli.mine",
    "cli.explain",
)
# The spans that repeat what one untraced repetition of each kind runs.
OWN_PATH = {
    "cli-eval": ("cli.import", "eval"),
    "library": ("evaluate.evaluate_pipeline", "evaluate.baseline_histogram_eval"),
}


def windows(lengths: list[int], max_len: int) -> int:
    """Windows of length 1..max_len that fit inside sequences of these lengths."""
    return sum(max(0, n - k + 1) for n in lengths for k in range(1, max_len + 1))


def traced_pass(record: dict, generator: dict, seed: int, out: Path, run_proc, tracer: Tracer):
    """Run every layer once under ``tracer``; returns the per-layer metrics.

    ``run_proc(argv, stdout_path)`` runs a subprocess and returns its
    outcome. Outputs land in ``out`` with the names a repetition of
    ``record`` writes, so the caller can check them the same way.
    """
    symbolizer, miner, split, _ = workloads.configs(record, seed)
    csv_path = out / "data.csv"
    m: dict[str, float] = {}

    with tracer.span("setup"):
        with tracer.span("dataset.generate_synthetic"):
            dataset = workloads.generate(record, generator, seed)
        with tracer.span("dataset.write_csv"):
            write_csv(dataset, csv_path)

    with tracer.span("cli"):
        with tracer.span("cli.import"):
            proc = run_proc([sys.executable, "-c", "import stemts.cli"], out / "import.stdout")
        _require(proc, "import stemts.cli")
        for step, argv in workloads.chain_argvs(record, csv_path, out).items():
            with tracer.span(f"cli.{step}"):
                proc = run_proc(argv, out / f"{step}.stdout")
            _require(proc, f"stemts {step}")

    with tracer.span("eval"):
        with tracer.span("dataset.load_csv"):
            loaded = load_csv(csv_path)
        reports = workloads.run_library(record, loaded, seed, tracer)
        workloads.write_eval_outputs(reports, out / "report", tracer)

    with tracer.span("stages"):
        with tracer.span("events.convert_dataset") as convert:
            sequences = convert_dataset(loaded, symbolizer)
        with tracer.span("evaluate.split_dataset"):
            train_ids, test_ids = split_dataset(loaded, split)
        by_id = {s.sample_id: s for s in sequences}
        train = [by_id[i] for i in train_ids]
        test = [by_id[i] for i in test_ids]
        with tracer.span("mining.build_forest") as forest_span:
            forest = build_forest(train, miner)
        with tracer.span("mining.prune_bottom_up"):
            pruned = prune_bottom_up(forest, miner)
        with tracer.span("mining.extract_rts_features"):
            features = extract_rts_features(pruned)
        with tracer.span("features.build_vocabulary"):
            vocab = build_vocabulary(features, loaded.dims, symbolizer.delta, miner)
        with tracer.span("features.vectorize_dataset.stem"):
            vectors = vectorize_dataset(train, vocab) + vectorize_dataset(test, vocab)
        with tracer.span("features.vectorize_dataset.baseline"):
            histogram = full_alphabet_vocabulary(loaded.dims, symbolizer.delta)
            vectorize_dataset(train, histogram) + vectorize_dataset(test, histogram)
        with tracer.span("mining.node_count"):
            forest_nodes, kept_nodes = forest.node_count(), pruned.node_count()
        with tracer.span("events.write_events"):
            write_events(sequences, symbolizer, out / "stage_events.csv")
        with tracer.span("events.load_events"):
            load_events(out / "stage_events.csv")
        with tracer.span("mining.write_feature_list"):
            write_feature_list(
                out / "stage_features.json", features, pruned, loaded.dims, symbolizer.delta, miner
            )

    if tuple(vocab.features) != tuple(reports[0].vocabulary.features):
        raise RuntimeError("the stage-by-stage vocabulary differs from evaluate_pipeline's")

    for name in WALL_SPANS:
        m[f"{name}.wall_s"] = tracer.wall(name)
    m["cli.import_s"] = tracer.wall("cli.import")
    m["dataset.load_csv.rows"] = sum(s.length for s in loaded.samples)
    m["dataset.load_csv.mb_per_s"] = csv_path.stat().st_size / 1e6 / tracer.wall("dataset.load_csv")
    m["events.convert_dataset.cpu_s"] = convert.cpu_s
    m["events.codes"] = sum(len(s) for s in sequences)
    m["events.codes_per_s"] = m["events.codes"] / convert.duration
    m["events.symbolize_passes"] = sum(1 for r in reports if r.timings["symbolize"] > 0.0)
    m["mining.build_forest.cpu_s"] = forest_span.cpu_s
    m["mining.windows"] = windows([len(s) for s in train], miner.max_len)
    m["mining.forest_nodes"] = forest_nodes
    m["mining.kept_nodes"] = kept_nodes
    m["mining.kept_ratio"] = kept_nodes / forest_nodes
    m["mining.features"] = len(features)

    lengths = sorted({len(t) for t in vocab.features})
    seq_lengths = [len(s) for s in train + test]
    lookups = sum(max(0, n - k + 1) for n in seq_lengths for k in lengths)
    # a vector entry is count / positions, so count = entry * positions
    positions = np.maximum(
        0, np.array(seq_lengths)[:, None] - np.array([len(t) for t in vocab.features])[None, :] + 1
    )
    hits = int(np.rint(np.vstack([v.values for v in vectors]) * positions).sum())
    m["features.window_lookups"] = lookups
    m["features.hit_ratio"] = hits / lookups

    for report in reports:
        for stage in ("symbolize", "mine", "featurize", "classify"):
            m[f"evaluate.{report.method}.{stage}_cpu_s"] = report.timings[stage]
        m[f"accuracy.{report.method}"] = report.accuracy
    m["evaluate.classify_cpu_s"] = sum(r.timings["classify"] for r in reports)
    return m


def trace_metrics(tracer: Tracer, kind: str, lo: float, hi: float, untraced_wall: float) -> dict:
    """Self times of the top-level spans, uncovered share and tracing overhead."""
    selfs = self_times(tracer.spans)
    m = {}
    for s in tracer.spans:
        if s.parent is None and s.name in TOP_LEVEL:
            m[f"trace.{s.name}.self_s"] = selfs[s.id]
    m["trace.uncovered_share"] = uncovered_share(tracer.spans, lo, hi)
    m["trace.overhead_s"] = sum(tracer.wall(n) for n in OWN_PATH[kind]) - untraced_wall
    return m


def _require(proc, what: str) -> None:
    if proc.code != 0:
        raise RuntimeError(f"{what} exited with {proc.code}: {proc.stderr_tail}")
