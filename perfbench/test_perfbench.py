"""Tests for the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from stemts import (  # noqa: E402
    EventSequence,
    MinerConfig,
    SymbolizerConfig,
    brute_force_mine,
    build_forest,
    convert_dataset,
    extract_rts_features,
    prune_bottom_up,
    write_csv,
)

import oracle  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, covered, self_times, uncovered_share  # noqa: E402

SPEC = workloads.load()


def small(name: str, **sizes) -> dict:
    record = dict(SPEC["workloads"][name])
    record.update(samples=40, length=30, **sizes)
    return record


def write_inputs(record: dict, seed: int, path: Path) -> bytes:
    write_csv(workloads.generate(record, SPEC["generator"], seed), path)
    return path.read_bytes()


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    record = small("eval-cli")
    first = write_inputs(record, 3, tmp_path / "a.csv")
    second = write_inputs(record, 3, tmp_path / "b.csv")
    assert first == second
    assert workloads.dataset_digest(
        workloads.generate(record, SPEC["generator"], 3)
    ) == workloads.dataset_digest(workloads.generate(record, SPEC["generator"], 3))


def test_different_seed_gives_different_inputs(tmp_path):
    record = small("eval-cli")
    assert write_inputs(record, 3, tmp_path / "a.csv") != write_inputs(record, 4, tmp_path / "b.csv")


def eval_outputs(record: dict, seed: int, out: Path):
    dataset = workloads.generate(record, SPEC["generator"], seed)
    reports = workloads.run_library(record, dataset, seed)
    workloads.write_eval_outputs(reports, out / "report")
    return dataset


@pytest.mark.parametrize("name", ["eval-cli", "mine-deep"])
def test_tampered_vocabulary_fails_the_check(tmp_path, name):
    record = small(name)
    dataset = eval_outputs(record, 0, tmp_path)
    reference = workloads.fingerprint(tmp_path)
    expected = workloads.expected_features(record, dataset, 0)
    checker = run.Checker(expected, reference)
    assert checker.check(tmp_path, {}) == []

    vocab_path = tmp_path / "report.vocab.json"
    payload = json.loads(vocab_path.read_text(encoding="utf-8"))
    payload["features"] = payload["features"][:-1]
    vocab_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    problems = checker.check(tmp_path, {})
    assert any(p.startswith("vocab:") for p in problems)
    assert "mined features differ from the oracle's" in problems


def test_first_repetition_is_the_reference_without_a_recorded_fingerprint(tmp_path):
    record = small("many-short")
    dataset = eval_outputs(record, 1, tmp_path)
    checker = run.Checker(workloads.expected_features(record, dataset, 1), None)
    assert checker.check(tmp_path, {"inputs": "x"}) == []
    assert checker.check(tmp_path, {"inputs": "y"}) == ["inputs: expected 'x', got 'y'"]


def test_report_digest_ignores_timings(tmp_path):
    record = small("eval-cli")
    eval_outputs(record, 0, tmp_path)
    path = tmp_path / "report.json"
    before = workloads.report_digest(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    for method in payload["methods"].values():
        method["timings"] = {"total": 123.0}
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert workloads.report_digest(path) == before
    payload["methods"]["stem"]["accuracy"] = 0.5
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert workloads.report_digest(path) != before


def test_end_to_end_scales_each_time_by_the_probe_after_it():
    ref = run.PROBE_REFERENCE_S
    samples = {"wall_s": [3.0, 1.0], "cpu_s": [0.9], "peak_rss_mb": [5.0, 7.0, 6.0], "setup_s": []}
    probes = {"wall_s": [3 * ref, 2 * ref], "cpu_s": [2 * ref], "peak_rss_mb": [ref] * 3, "setup_s": []}
    assert run.end_to_end(samples, probes) == {
        "wall_s": {"value": pytest.approx((1.0 + 0.5) / 2), "unit": "s"},
        "cpu_s": {"value": pytest.approx(0.45), "unit": "s"},
        "peak_rss_mb": {"value": 6.0, "unit": "MiB"},
    }


def span(id_, parent, start, end, name="s"):
    return Span(id=id_, name=name, parent=parent, run_id="r", start=start, end=end)


def test_self_time_on_a_hand_built_tree():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 3.0),  # overlaps the next child: union, not sum
        span(2, 0, 2.0, 5.0),
        span(3, 0, 8.0, 12.0),  # runs past its parent: clipped to 10
        span(4, 2, 2.5, 3.5),  # a grandchild does not count for span 0
        span(5, None, 11.0, 14.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(3.0)
    assert covered([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(6.0)
    # top-level spans cover [0, 10] and [11, 14] of [0, 16]
    assert uncovered_share(spans, 0.0, 16.0) == pytest.approx(3.0 / 16.0)


def random_codes(rng, n, steps, alphabet):
    return rng.integers(0, alphabet, size=(n, steps))


@pytest.mark.parametrize("trial", range(30))
def test_oracle_agrees_with_the_package_miners(trial):
    rng = np.random.default_rng(trial)
    alphabet = 9
    codes = random_codes(rng, int(rng.integers(2, 12)), int(rng.integers(1, 15)), alphabet)
    sequences = [
        EventSequence(f"s{i}", None, 2, tuple(int(c) for c in row)) for i, row in enumerate(codes)
    ]
    support = int(rng.integers(1, 4))
    max_len = int(rng.integers(1, 6))
    gamma = float(rng.choice([0.0, 0.3, 0.7]))
    config = MinerConfig(min_support=support, max_len=max_len, gain_gamma=gamma)
    mined = [t for t, _ in oracle.mine(codes, alphabet, support, max_len, gamma)]
    forest = prune_bottom_up(build_forest(sequences, config), config)
    assert mined == extract_rts_features(forest)
    if gamma == 0.0:
        assert mined == brute_force_mine(sequences, config)


def test_oracle_symbolizer_matches_the_package():
    record = small("eval-cli")
    dataset = workloads.generate(record, SPEC["generator"], 5)
    expected = [s.codes for s in convert_dataset(dataset, SymbolizerConfig(record["delta"]))]
    values = np.stack([s.values for s in dataset.samples])
    assert [tuple(row) for row in oracle.symbolize(values, record["delta"]).tolist()] == expected


def test_windows_counts_every_fitting_window():
    assert replay.windows([3], 2) == 3 + 2
    assert replay.windows([1, 4], 3) == 1 + (4 + 3 + 2)


def test_every_workload_has_a_short_reason():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in bench["workloads"]} <= set(SPEC["workloads"])
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])


def test_traced_pass_emits_every_per_layer_metric(tmp_path):
    record = small("eval-cli")
    tracer = Tracer("test")
    deadline = time.monotonic() + 120.0
    metrics = replay.traced_pass(
        record,
        SPEC["generator"],
        0,
        tmp_path,
        lambda argv, path: run.run_proc(argv, path, deadline),
        tracer,
    )
    lo, hi = tracer.spans[0].start, tracer.spans[-1].end
    metrics.update(replay.trace_metrics(tracer, record["kind"], lo, hi, 1.0))
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(metrics) == sorted(m["name"] for m in bench["per_layer"])
    assert metrics["accuracy.stem"] > 0.0
    assert metrics["trace.uncovered_share"] < 0.1


def test_record_leaves_the_table_alone_when_the_repetition_fails(tmp_path, monkeypatch):
    table = tmp_path / "fingerprints.json"
    table.write_text('{"eval-cli": {"0": {"vocab": "abc"}}}\n', encoding="utf-8")
    before = table.read_bytes()
    monkeypatch.setattr(run, "FINGERPRINTS", table)
    seen = []

    def prepare(self, use_recorded=True):
        seen.append(use_recorded)

    def measure(self, seconds):
        self.attempted, self.failed = 1, 1

    monkeypatch.setattr(run.Workload, "prepare", prepare)
    monkeypatch.setattr(run.Workload, "measure", measure)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    assert run.record({"generator": {}, "workloads": {"eval-cli": {"kind": "cli-eval"}}}, [0]) == 1
    assert seen == [False]
    assert table.read_bytes() == before
