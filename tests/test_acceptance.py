"""Acceptance gate: every release-blocking property in one module.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Tolerances and case counts are pinned here on purpose; loosen
nothing without a recorded reason.
"""

import functools
import json
import time

import numpy as np
import pytest

from stemts import (
    ClassifierConfig,
    MinerConfig,
    MtsDataset,
    MtsSample,
    SplitSpec,
    SymbolizerConfig,
    alphabet_size,
    baseline_histogram_eval,
    brute_force_mine,
    build_forest,
    decode_event,
    encode_event,
    evaluate_pipeline,
    extract_rts_features,
    generate_synthetic,
    load_csv,
    normalize_sample,
    pad_to_length,
    prune_bottom_up,
    resolve_min_support,
    split_dataset,
    symbolize_dimension,
    symbolize_sample,
    write_csv,
)
from stemts.cli import main

from conftest import random_event_sequences, run_length_spec


def criterion(number, description):
    """Print one pass/fail line per criterion, whatever happens inside."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:>2} [FAIL] {description}")
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"criterion {number:>2} [PASS] {description}{suffix}")

        return wrapper

    return decorate


# --- independent references, deliberately plain -----------------------------


def naive_symbols(row, delta):
    out = []
    for prev, cur in zip(row, row[1:]):
        diff = cur - prev
        if abs(diff) <= delta:
            out.append(0)
        elif diff > delta:
            out.append(1)
        else:
            out.append(-1)
    return out


def rescan_doc_support(sequences, tup):
    n = len(tup)
    return sum(
        1
        for s in sequences
        if any(s.codes[i : i + n] == tup for i in range(len(s.codes) - n + 1))
    )


@pytest.fixture(scope="module")
def small_instances():
    rng = np.random.default_rng(20240)
    instances = []
    for _ in range(500):
        dims = int(rng.integers(1, 3))
        sequences = random_event_sequences(rng, int(rng.integers(1, 21)), 15, dims)
        config = MinerConfig(
            min_support=int(rng.integers(1, 5)), max_len=int(rng.integers(1, 6))
        )
        instances.append((sequences, config))
    return instances


@criterion(1, "symbolizer matches the naive reference on 10,000 random cases")
def test_symbolizer_oracle():
    rng = np.random.default_rng(11)
    start = time.process_time()
    for case in range(10_000):
        length = int(rng.integers(2, 61))
        if case % 10 == 0:
            row = np.full(length, float(rng.random()))
        elif case % 10 == 1:
            row = np.sort(rng.random(length))
        else:
            row = rng.random(length)
        delta = float(rng.uniform(0.0, 0.99))
        assert symbolize_dimension(row, delta) == naive_symbols(list(row), delta)
    elapsed = time.process_time() - start
    assert elapsed < 5.0, f"oracle run took {elapsed:.2f}s"
    return f"{elapsed:.2f}s CPU"


@criterion(2, "event encoding is a bijection on all 3^D codes for D = 1..6")
def test_alphabet_bijection():
    for dims in range(1, 7):
        size = alphabet_size(dims)
        assert size == 3**dims
        seen = set()
        for code in range(size):
            symbols = decode_event(code, dims)
            assert encode_event(symbols) == code
            seen.add(symbols)
        assert len(seen) == size


@criterion(3, "forest mining equals brute force on 500 random instances")
def test_miner_oracle_equivalence(small_instances):
    start = time.process_time()
    for sequences, config in small_instances:
        mined = extract_rts_features(
            prune_bottom_up(build_forest(sequences, config), config)
        )
        assert mined == brute_force_mine(sequences, config)
    elapsed = time.process_time() - start
    assert elapsed < 30.0, f"equivalence run took {elapsed:.2f}s"
    return f"{elapsed:.2f}s CPU"


@criterion(4, "every mined feature set is prefix-free with sound supports")
def test_feature_soundness(small_instances):
    for sequences, config in small_instances:
        sigma = resolve_min_support(config.min_support, len(sequences))
        features = extract_rts_features(
            prune_bottom_up(build_forest(sequences, config), config)
        )
        feature_set = set(features)
        for tup in features:
            for cut in range(1, len(tup)):
                assert tup[:cut] not in feature_set, "prefix-freeness violated"
            assert rescan_doc_support(sequences, tup) >= sigma, "support unsound"


@criterion(5, "padding a sample appends only all-flat event codes")
def test_padding_appends_flat():
    rng = np.random.default_rng(17)
    config = SymbolizerConfig(0.05)
    for _ in range(200):
        dims = int(rng.integers(1, 4))
        length = int(rng.integers(2, 21))
        extra = int(rng.integers(1, 8))
        scale = float(rng.uniform(0.1, 50.0))
        sample = MtsSample("s", None, rng.random((dims, length)) * scale)
        base = symbolize_sample(normalize_sample(sample), config)
        padded = symbolize_sample(
            normalize_sample(pad_to_length(sample, length + extra)), config
        )
        flat = encode_event((0,) * dims)
        assert padded.codes[: length - 1] == base.codes
        assert padded.codes[length - 1 :] == (flat,) * extra


@criterion(6, "symbolization is exactly invariant under x -> a*x + b, a > 0")
def test_scale_invariance():
    rng = np.random.default_rng(23)
    for _ in range(300):
        dims = int(rng.integers(1, 4))
        length = int(rng.integers(2, 41))
        delta = float(rng.choice([0.0, 0.05, 0.3]))
        a = float(10.0 ** rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(-10.0, 10.0))
        values = rng.random((dims, length))
        config = SymbolizerConfig(delta)
        base = symbolize_sample(normalize_sample(MtsSample("s", None, values)), config)
        moved = symbolize_sample(
            normalize_sample(MtsSample("s", None, a * values + b)), config
        )
        assert moved.codes == base.codes


@criterion(7, "desk-scale classification hits its accuracy bars")
def test_desk_scale_classification():
    symbolizer = SymbolizerConfig(0.05)
    miner = MinerConfig(min_support=0.05, max_len=5)
    split = SplitSpec(train_fraction=0.8, seed=0)
    classifier = ClassifierConfig("knn", 1, "euclidean")

    clean = generate_synthetic(run_length_spec(0.0))
    clean_report = evaluate_pipeline(clean, symbolizer, miner, split, classifier)
    assert clean_report.accuracy == 1.0, f"noiseless accuracy {clean_report.accuracy}"

    noisy = generate_synthetic(run_length_spec(0.4))
    stem = evaluate_pipeline(noisy, symbolizer, miner, split, classifier)
    base = baseline_histogram_eval(noisy, split, symbolizer, classifier)
    assert stem.accuracy >= 0.90, f"noisy accuracy {stem.accuracy}"
    assert stem.accuracy > base.accuracy, (
        f"stem {stem.accuracy} not above baseline {base.accuracy}"
    )
    return f"clean 1.0, noisy {stem.accuracy:.3f} > baseline {base.accuracy:.3f}"


@criterion(8, "full pipeline on 400 samples stays under 10s CPU with sane stages")
def test_timing_harness():
    dataset = generate_synthetic(run_length_spec(0.4))
    assert len(dataset) == 400 and dataset.dims == 3 and dataset.t_max == 100
    start = time.process_time()
    report = evaluate_pipeline(
        dataset,
        SymbolizerConfig(0.05),
        MinerConfig(min_support=0.05, max_len=5),
        SplitSpec(train_fraction=0.8, seed=0),
        ClassifierConfig("knn", 1, "euclidean"),
    )
    elapsed = time.process_time() - start
    assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s CPU"
    stages = {k: v for k, v in report.timings.items() if k != "total"}
    total = report.timings["total"]
    assert all(v > 0.0 for v in stages.values()), f"non-positive stage in {stages}"
    assert total >= max(stages.values())
    assert sum(stages.values()) >= 0.9 * total, (
        f"stages {sum(stages.values()):.4f}s vs total {total:.4f}s"
    )
    assert sum(stages.values()) <= total + 1e-6
    return f"{elapsed:.2f}s CPU, stage sum {sum(stages.values()):.2f}s of {total:.2f}s"


def _eval_args(data_path, out_prefix):
    return [
        "-q",
        "eval",
        "--in",
        str(data_path),
        "--delta",
        "0.05",
        "--min-support",
        "0.05",
        "--max-len",
        "5",
        "--k",
        "1",
        "--metric",
        "euclidean",
        "--train-frac",
        "0.8",
        "--seed",
        "0",
        "--baseline",
        "--out",
        str(out_prefix),
    ]


def _json_without_timings(path):
    payload = json.loads(path.read_text())
    for method in payload["methods"].values():
        method.pop("timings")
    return json.dumps(payload, sort_keys=True)


def _text_without_cpu_section(path):
    return path.read_text().split("CPU time (seconds)")[0]


@criterion(9, "eval command is byte-identical across runs outside the timings block")
def test_cmd_eval_determinism(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(generate_synthetic(run_length_spec(0.4, samples_per_class=30, length=60)), data)
    assert main(_eval_args(data, tmp_path / "one")) == 0
    assert main(_eval_args(data, tmp_path / "two")) == 0
    assert _json_without_timings(tmp_path / "one.json") == _json_without_timings(
        tmp_path / "two.json"
    )
    assert _text_without_cpu_section(tmp_path / "one.txt") == _text_without_cpu_section(
        tmp_path / "two.txt"
    )
    assert (tmp_path / "one.vocab.json").read_bytes() == (
        tmp_path / "two.vocab.json"
    ).read_bytes()


@criterion(10, "mutating a test sample leaves the vocabulary file byte-identical")
def test_leakage_via_vocabulary_file(tmp_path):
    dataset = generate_synthetic(run_length_spec(0.4, samples_per_class=30, length=60))
    data = tmp_path / "data.csv"
    write_csv(dataset, data)

    # same split the eval command will compute for these flags
    _, test_ids = split_dataset(load_csv(data), SplitSpec(train_fraction=0.8, seed=0))
    victim = test_ids[0]
    mutated_samples = tuple(
        MtsSample(s.id, s.label, np.cos(s.values) * 7.0 - 2.0) if s.id == victim else s
        for s in dataset.samples
    )
    mutated = tmp_path / "mutated.csv"
    write_csv(MtsDataset.from_samples(mutated_samples), mutated)

    assert main(_eval_args(data, tmp_path / "base")) == 0
    assert main(_eval_args(mutated, tmp_path / "moved")) == 0
    assert (tmp_path / "base.vocab.json").read_bytes() == (
        tmp_path / "moved.vocab.json"
    ).read_bytes()
    return f"mutated test sample {victim!r}"


@criterion(11, "lengthening a test sample under --pad leaves the vocabulary file byte-identical")
def test_pad_leakage_via_vocabulary_file(tmp_path):
    dataset = generate_synthetic(run_length_spec(0.4, samples_per_class=30, length=60))
    data = tmp_path / "data.csv"
    write_csv(dataset, data)

    _, test_ids = split_dataset(load_csv(data), SplitSpec(train_fraction=0.8, seed=0))
    victim = test_ids[0]
    rng = np.random.default_rng(29)
    lengthened_samples = tuple(
        MtsSample(s.id, s.label, np.hstack([s.values, rng.random((s.dims, 40)) * 5.0]))
        if s.id == victim
        else s
        for s in dataset.samples
    )
    lengthened = tmp_path / "lengthened.csv"
    write_csv(MtsDataset.from_samples(lengthened_samples), lengthened)

    assert main(_eval_args(data, tmp_path / "base") + ["--pad"]) == 0
    assert main(_eval_args(lengthened, tmp_path / "longer") + ["--pad"]) == 0
    assert (tmp_path / "base.vocab.json").read_bytes() == (
        tmp_path / "longer.vocab.json"
    ).read_bytes()
    return f"test sample {victim!r} lengthened by 40 steps"


@criterion(
    12, "a changed and lengthened test sample leaves the vocabulary file alone under 3 flag sets"
)
def test_leakage_under_flag_sets(tmp_path):
    dataset = generate_synthetic(run_length_spec(0.4, samples_per_class=12, length=40))
    data = tmp_path / "data.csv"
    write_csv(dataset, data)

    # a test sample of the stratified and of the plain split of the flags below (seed 0)
    tests = [
        split_dataset(load_csv(data), SplitSpec(train_fraction=0.8, seed=0, stratified=s))[1]
        for s in (True, False)
    ]
    victim = next(i for i in tests[0] if i in tests[1])
    rng = np.random.default_rng(31)
    mutated_samples = tuple(
        MtsSample(s.id, s.label, np.hstack([np.cos(s.values) * 7 - 2, rng.random((s.dims, 40))]))
        if s.id == victim
        else s
        for s in dataset.samples
    )
    mutated = tmp_path / "mutated.csv"
    write_csv(MtsDataset.from_samples(mutated_samples), mutated)

    flag_sets = [
        ["--pad", "--min-support", "0.1", "--max-len", "6", "--gain-gamma", "0.7", "--k", "5"],
        ["--no-stratified", "--min-support", "3", "--max-len", "3", "--gain-gamma", "0.3",
         "--classifier", "centroid", "--metric", "cosine"],
        ["--pad", "--no-stratified", "--min-support", "2", "--k", "3", "--metric", "cosine",
         "--baseline"],
    ]
    for n, flags in enumerate(flag_sets):
        common = ["-q", "eval", "--seed", "0", *flags, "--out"]
        assert main([*common, str(tmp_path / f"base{n}"), "--in", str(data)]) == 0
        assert main([*common, str(tmp_path / f"moved{n}"), "--in", str(mutated)]) == 0
        base = (tmp_path / f"base{n}.vocab.json").read_bytes()
        assert json.loads(base)["features"], flags  # an empty vocabulary would show nothing
        assert base == (tmp_path / f"moved{n}.vocab.json").read_bytes(), flags
    return f"test sample {victim!r} changed and lengthened by 40 steps"
