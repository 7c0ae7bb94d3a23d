"""One fresh-process step of the benchmark.

    python3 perfbench/worker.py oracle <workload> <seed> <out_dir>
    python3 perfbench/worker.py setup <workload> <seed> <out_dir>
    python3 perfbench/worker.py rep <workload> <seed> <out_dir>

``oracle`` generates the inputs and records their digest and the features
the independent miner finds in them. ``setup`` generates a CLI workload's
inputs and writes them to ``<out_dir>/data.csv``. ``rep`` generates a library
workload's inputs, runs ``evaluate_pipeline`` and ``baseline_histogram_eval``
on them and writes the files ``stemts eval`` would write. Each mode ends by
writing ``result.json``; its ``ready`` timestamp is ``time.monotonic()``,
which the parent compares with its own launch time (the same system-wide
clock on Linux).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    mode, name, seed, out = argv[0], argv[1], int(argv[2]), Path(argv[3])
    sys.path.insert(0, str(SRC))
    import workloads
    from stemts import write_csv

    spec = workloads.load()
    record = spec["workloads"][name]
    dataset = workloads.generate(record, spec["generator"], seed)
    result = {"inputs": workloads.dataset_digest(dataset)}
    if mode == "oracle":
        result["expected_features"] = workloads.expected_features(record, dataset, seed)
    elif mode == "setup":
        write_csv(dataset, out / "data.csv")
        result["ready"] = time.monotonic()
    elif mode == "rep":
        result["ready"] = time.monotonic()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        reports = workloads.run_library(record, dataset, seed)
        result["wall_s"] = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = _cpu_s(after) - _cpu_s(before)
        result["peak_rss_mb"] = after.ru_maxrss / 1024.0
        workloads.write_eval_outputs(reports, out / "report")
    (out / "result.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
