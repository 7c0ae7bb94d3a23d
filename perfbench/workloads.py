"""Workload definitions, their library calls and their output fingerprints.

``workloads.json`` is the record of what each workload runs and why; this
module turns a record and a seed into inputs, configs, command lines and
fingerprints. Import it only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from stemts import (
    ClassifierConfig,
    MinerConfig,
    SplitSpec,
    SymbolizerConfig,
    SynthSpec,
    baseline_histogram_eval,
    evaluate_pipeline,
    generate_synthetic,
    save_vocabulary,
    split_dataset,
    write_report_files,
)

import oracle

HERE = Path(__file__).resolve().parent
DATASET_NAME = "data"


def load() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def spec(record: dict, generator: dict, seed: int) -> SynthSpec:
    """The workload's generator spec; the seed is the only thing a run varies."""
    classes = tuple(
        (f"run{r}", ((("up", r), ("down", r)),) * generator["dims"])
        for r in generator["run_lengths"]
    )
    return SynthSpec(
        classes=classes,
        samples_per_class=record["samples"] // len(classes),
        length=record["length"],
        noise_amplitude=generator["noise_amplitude"],
        seed=seed,
        step_size=generator["step_size"],
        separable=generator["separable"],
    )


def configs(record: dict, seed: int):
    """(symbolizer, miner, split, classifier) for one run."""
    return (
        SymbolizerConfig(delta=record["delta"]),
        MinerConfig(**record["miner"]),
        SplitSpec(train_fraction=record["train_fraction"], seed=seed),
        ClassifierConfig(**record["classifier"]),
    )


def generate(record: dict, generator: dict, seed: int):
    return generate_synthetic(spec(record, generator, seed))


def dataset_digest(dataset) -> str:
    """sha256 over ids, labels and value bytes: equal digests mean equal inputs."""
    h = hashlib.sha256()
    for s in dataset.samples:
        h.update(f"{s.id}\0{s.label}\0{s.values.shape}\0".encode())
        h.update(np.ascontiguousarray(s.values).tobytes())
    return h.hexdigest()


def run_library(record: dict, dataset, seed: int, tracer=None) -> list:
    """What ``stemts eval --baseline`` runs after loading: both methods, same split."""
    symbolizer, miner, split, classifier = configs(record, seed)
    with _span(tracer, "evaluate.evaluate_pipeline"):
        stem = evaluate_pipeline(
            dataset, symbolizer, miner, split, classifier, dataset_name=DATASET_NAME
        )
    with _span(tracer, "evaluate.baseline_histogram_eval"):
        base = baseline_histogram_eval(
            dataset, split, symbolizer, classifier, dataset_name=DATASET_NAME
        )
    return [stem, base]


def write_eval_outputs(reports: list, prefix: Path, tracer=None) -> None:
    """The files ``stemts eval --out prefix`` writes."""
    with _span(tracer, "evaluate.write_report_files"):
        write_report_files(reports, prefix)
    with _span(tracer, "features.save_vocabulary"):
        save_vocabulary(reports[0].vocabulary, str(prefix) + ".vocab.json")


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


# ---------------------------------------------------------------------------
# Command lines
# ---------------------------------------------------------------------------


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "stemts.cli", *args]


def eval_argv(record: dict, seed: int, csv_path: Path, prefix: Path) -> list[str]:
    miner, clf = record["miner"], record["classifier"]
    return cli(
        "eval", "--in", str(csv_path), "--delta", str(record["delta"]),
        "--min-support", str(miner["min_support"]), "--max-len", str(miner["max_len"]),
        "--gain-gamma", str(miner["gain_gamma"]), "--classifier", clf["kind"],
        "--k", str(clf["k"]), "--metric", clf["metric"],
        "--train-frac", str(record["train_fraction"]), "--seed", str(seed),
        "--baseline", "--out", str(prefix),
    )


def chain_argvs(record: dict, csv_path: Path, out: Path) -> dict[str, list[str]]:
    """The traced pass's convert -> mine -> explain, each reading the previous command's file."""
    miner = record["miner"]
    return {
        "convert": cli(
            "convert", "--in", str(csv_path), "--delta", str(record["delta"]),
            "--out", str(out / "events.csv"),
        ),
        "mine": cli(
            "mine", "--in", str(out / "events.csv"),
            "--min-support", str(miner["min_support"]), "--max-len", str(miner["max_len"]),
            "--gain-gamma", str(miner["gain_gamma"]), "--out", str(out / "features.json"),
        ),
        "explain": cli("explain", "--features", str(out / "features.json")),
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    with path.open("rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def report_digest(path: Path) -> str:
    """sha256 of report.json with every method's ``timings`` block removed."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    for method in payload["methods"].values():
        method.pop("timings", None)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def fingerprint(out: Path) -> dict:
    """What must not change when only the speed does, read from a repetition's files."""
    methods = json.loads((out / "report.json").read_text(encoding="utf-8"))["methods"]
    return {
        "accuracy.stem": methods["stem"]["accuracy"],
        "accuracy.baseline": methods["baseline"]["accuracy"],
        "report": report_digest(out / "report.json"),
        "vocab": sha256_file(out / "report.vocab.json"),
    }


def expected_features(record: dict, dataset, seed: int) -> list:
    """The oracle's features for the training split, which the eval workloads mine."""
    values = np.stack([s.values for s in dataset.samples])
    codes = oracle.symbolize(values, record["delta"])
    miner = record["miner"]
    train_ids, _ = split_dataset(dataset, configs(record, seed)[2])
    position = {s.id: i for i, s in enumerate(dataset.samples)}
    rows = np.array([position[i] for i in train_ids])
    mined = oracle.mine(
        codes[rows], 3 ** dataset.dims, miner["min_support"], miner["max_len"], miner["gain_gamma"]
    )
    return [list(t) for t, _ in mined]


def mined_features(out: Path) -> list:
    """The features a repetition wrote, in the shape ``expected_features`` returns."""
    payload = json.loads((out / "report.vocab.json").read_text(encoding="utf-8"))
    return payload["features"]


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Keys whose values differ, as readable lines; empty when the outputs match."""
    return [
        f"{key}: expected {expected.get(key)!r}, got {actual.get(key)!r}"
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    ]
