"""Benchmark for stemts: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload eval-cli --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0
    python3 perfbench/run.py --record 0-19

Run from the root of a checkout; the package is imported from ``src`` there
and nowhere else. ``--trace 0`` measures the end-to-end metrics: fresh-process
repetitions of the workload, with their setups, for ``--seconds`` seconds, each one
checked against the recorded fingerprints (or, for a seed without any, the
first repetition) and against an independent miner. ``--trace 1`` adds one
traced pass over every layer and prints the per-layer metrics instead. The
last line of standard output is the result as one JSON object. Work files go
to ``.perfbench_work/`` in the checkout.

``--record`` runs one repetition per workload for each listed seed and writes
their fingerprints to ``perfbench/fingerprints.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
FINGERPRINTS = HERE / "fingerprints.json"
# Each repetition is one single-threaded process: with idle BLAS threads
# spinning on a small machine, CPU time would measure the thread pool.
SINGLE_THREADED_BLAS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

if not (SRC / "stemts" / "__init__.py").is_file():
    print(f"error: no stemts sources under {SRC}; run from a full checkout", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))
os.environ.update(SINGLE_THREADED_BLAS)  # before numpy loads, for the traced pass
import replay  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# metric -> (unit, statistic over the run's samples). A time ("s") is the
# mean over the run of each sample scaled by the probe that followed it.
END_TO_END = {
    "wall_s": ("s", statistics.fmean),
    "cpu_s": ("s", statistics.fmean),
    "peak_rss_mb": ("MiB", statistics.median),
    "setup_s": ("s", statistics.fmean),
}
# A shared VM changes speed by up to 1.8x, from one second to the next and
# for minutes at a time, and a fixed Python loop slows as much as stemts.
# So the benchmark times that loop (probe) after every repetition and scales
# each sample of the repetition by PROBE_REFERENCE_S / (that probe's time):
# seconds at the speed where the loop takes PROBE_REFERENCE_S, about its
# fastest time on an unloaded 2-vCPU x86-64 VM under Python 3.11. There, over
# ten 50 s runs with different seeds, the run's fastest repetition as
# measured spread 0.25-0.34 (quartile distance / median), and the mean of the
# scaled repetitions 0.06-0.11.
PROBE_REFERENCE_S = 0.15
# A CLI workload writes its CSV this many times per run, evenly spread over
# the timed loop so the setups do not all fall into one slow period.
CLI_SETUPS = 3
# Every run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0


def probe() -> float:
    """Seconds one fixed pure-Python loop takes: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def end_to_end(samples: dict[str, list[float]], probes: dict[str, list[float]]) -> dict:
    """The run's end-to-end metrics; ``probes[key][i]`` followed ``samples[key][i]``."""
    metrics = {}
    for key, (unit, statistic) in END_TO_END.items():
        vals = samples[key]
        if unit == "s":
            vals = [v * PROBE_REFERENCE_S / p for v, p in zip(vals, probes[key], strict=True)]
        if vals:
            metrics[key] = {"value": statistic(vals), "unit": unit}
    return metrics


@dataclass
class Proc:
    code: int
    launched: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr_tail: str


def run_proc(argv: list[str], stdout_path: Path, deadline: float) -> Proc:
    """Run ``argv`` from the checkout root; resources come from wait4.

    The child is killed if it is still running at ``deadline``
    (``time.monotonic()``), so a hung program cannot outlast the run.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREADED_BLAS)
    stderr_path = stdout_path.with_suffix(".stderr")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        launched = time.monotonic()
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(max(0.0, deadline - launched), child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]
    return Proc(
        child.returncode,
        launched,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        tail,
    )


class Checker:
    """Decides whether a repetition's outputs are correct.

    The reference is the recorded fingerprint for this workload and seed, or
    else the first repetition's. Mined features must also equal the oracle's.
    """

    def __init__(self, expected_features: list, recorded: dict | None):
        self.reference = recorded
        self.recorded = recorded is not None
        self.expected_features = expected_features

    def check(self, out: Path, inputs: dict) -> list[str]:
        fp = dict(workloads.fingerprint(out), **inputs)
        problems = []
        if workloads.mined_features(out) != self.expected_features:
            problems.append("mined features differ from the oracle's")
        if self.reference is None:
            self.reference = fp
        else:
            problems += workloads.mismatches(self.reference, fp)
        return problems


class Workload:
    """One workload's setup, repetitions and traced pass."""

    def __init__(self, spec: dict, name: str, seed: int, deadline: float):
        self.generator = spec["generator"]
        self.name = name
        self.record = spec["workloads"][name]
        self.kind = self.record["kind"]
        self.seed = seed
        self.deadline = deadline
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.csv = self.work / "data.csv"
        self.inputs: dict[str, str] = {}
        self.checker: Checker | None = None
        self.samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
        self.probes: dict[str, list[float]] = {k: [] for k in END_TO_END}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def proc(self, argv: list[str], stdout_path: Path) -> Proc:
        return run_proc(argv, stdout_path, self.deadline)

    def worker(self, mode: str, out: Path) -> tuple[Proc, dict]:
        argv = [sys.executable, str(HERE / "worker.py"), mode, self.name, str(self.seed), str(out)]
        proc = self.proc(argv, out / f"{mode}.stdout")
        if proc.code != 0:
            raise RuntimeError(f"worker {mode} exited with {proc.code}: {proc.stderr_tail}")
        return proc, json.loads((out / "result.json").read_text(encoding="utf-8"))

    def prepare(self, use_recorded: bool = True) -> None:
        """Compute the oracle's answer in a child process.

        A child's ru_maxrss counts the parent's memory high-water mark at
        exec, so the parent keeps no inputs of its own and stays smaller than
        every repetition. Without ``use_recorded`` the first repetition is the
        reference.
        """
        _, result = self.worker("oracle", self.work)
        self.inputs = {"inputs": result["inputs"]}
        recorded = _load_json(FINGERPRINTS).get(self.name, {}).get(str(self.seed))
        self.checker = Checker(result["expected_features"], recorded if use_recorded else None)

    def setup(self) -> None:
        """Write the CLI workload's CSV; every setup must write the same bytes."""
        proc, result = self.worker("setup", self.work)
        self.samples["setup_s"].append(result["ready"] - proc.launched)
        if result["inputs"] != self.inputs["inputs"]:
            raise RuntimeError("the setup process generated different inputs")
        csv_digest = workloads.sha256_file(self.csv)
        if self.inputs.setdefault("csv", csv_digest) != csv_digest:
            raise RuntimeError("two setups wrote different CSV files")

    def repetition(self) -> None:
        out = self.work / "rep"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        inputs = dict(self.inputs)
        if self.kind == "library":
            proc, measured = self.worker("rep", out)
            inputs["inputs"] = measured["inputs"]
            self.samples["setup_s"].append(measured["ready"] - proc.launched)
        else:
            argv = workloads.eval_argv(self.record, self.seed, self.csv, out / "report")
            proc = self.proc(argv, out / "eval.stdout")
            if proc.code != 0:
                raise RuntimeError(f"stemts eval exited with {proc.code}: {proc.stderr_tail}")
            measured = {"wall_s": proc.wall_s, "cpu_s": proc.cpu_s, "peak_rss_mb": proc.peak_rss_mb}
        problems = self.checker.check(out, inputs)
        if problems:
            raise RuntimeError("; ".join(problems))
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            self.samples[key].append(measured[key])

    def measure(self, seconds: float) -> None:
        """Closed loop: start a repetition while time is left and the last one fits.

        A CLI workload sets up before its first repetition and then once
        each time another ``1 / CLI_SETUPS`` of ``seconds`` has passed. Every
        repetition is followed by one probe, which pairs with every sample
        that its setup and repetition took.
        """
        start = time.monotonic()
        longest = 0.0
        setups = 0
        while True:
            began = time.monotonic()
            self.attempted += 1
            try:
                if self.kind == "cli-eval" and setups < CLI_SETUPS and (
                    began - start >= setups * seconds / CLI_SETUPS
                ):
                    setups += 1
                    self.setup()
                self.repetition()
            except Exception as exc:  # a failed repetition is counted, not fatal
                self.failed += 1
                self.problems.append(f"repetition {self.attempted}: {exc}")
            speed = probe()
            for key, vals in self.samples.items():
                self.probes[key] += [speed] * (len(vals) - len(self.probes[key]))
            now = time.monotonic()
            longest = max(longest, now - began)
            if now - start >= seconds or now + longest >= self.deadline:
                return

    def traced(self, untraced_wall: float) -> tuple[dict, Path]:
        out = self.work / "trace"
        out.mkdir()
        tracer = Tracer(run_id=f"{self.name}/seed{self.seed}/{os.getpid()}")
        lo = time.perf_counter()
        metrics = replay.traced_pass(
            self.record,
            self.generator,
            self.seed,
            out,
            self.proc,
            tracer,
        )
        hi = time.perf_counter()
        problems = self.checker.check(out, dict(self.inputs, **self._csv_digest(out)))
        if problems:
            raise RuntimeError("traced pass: " + "; ".join(problems))
        metrics.update(replay.trace_metrics(tracer, self.kind, lo, hi, untraced_wall))
        trace_file = WORK / f"trace-{self.name}-seed{self.seed}.json"
        extra = {"workload": self.name, "seed": self.seed, "environment": environment()}
        tracer.write(trace_file, dict(extra, metrics=metrics))
        return metrics, trace_file

    def _csv_digest(self, out: Path) -> dict:
        return {"csv": workloads.sha256_file(out / "data.csv")} if "csv" in self.inputs else {}


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def environment() -> dict:
    """What the numbers depend on besides the code: hardware and library builds."""
    import numpy

    commit = None  # a checkout made without git history has none
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    sources = sorted((SRC / "stemts").glob("*.py"))
    return {
        "commit": commit,
        "src_stemts_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": SINGLE_THREADED_BLAS,
        "machine": platform.machine(),
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run as the contract defines it; returns the result object."""
    started = time.monotonic()
    wl = Workload(spec, name, seed, started + RUN_LIMIT_S)
    correct = True
    metrics: dict[str, dict] = {}
    try:
        wl.prepare()
        wl.measure(seconds)
        samples = {"samples": wl.samples, "probes": wl.probes}
        (WORK / f"samples-{name}-seed{seed}.json").write_text(json.dumps(samples), encoding="utf-8")
        if trace and wl.samples["wall_s"]:
            layer, trace_file = wl.traced(statistics.median(wl.samples["wall_s"]))
            print(f"trace written to {trace_file.relative_to(ROOT)}")
            metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()}
    except Exception as exc:  # the run cannot go on; report it as incorrect
        correct = False
        wl.problems.append(f"{type(exc).__name__}: {exc}")
    if not trace:
        metrics = end_to_end(wl.samples, wl.probes)
    correct = correct and wl.failed == 0 and len(metrics) > 0
    _print_summary(wl, metrics, seconds, trace)
    return {
        "correct": correct,
        "attempted": max(1, wl.attempted),
        "failed": wl.failed if wl.attempted else 1,
        "metrics": metrics,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")) or name.startswith("accuracy."):
        return "fraction"
    return "count"


def _print_summary(wl: Workload, metrics: dict, seconds: float, trace: bool) -> None:
    checked = "recorded fingerprints" if wl.checker and wl.checker.recorded else "first repetition"
    print(
        f"workload {wl.name} seed {wl.seed}: {wl.attempted} repetitions in a {seconds:g} s "
        f"closed loop, {wl.failed} failed (error_rate {wl.failed / max(1, wl.attempted):.3f}); "
        f"outputs checked against {checked} and the oracle"
    )
    for problem in wl.problems:
        print(f"  problem: {problem}")
    if trace:
        for key, metric in metrics.items():
            print(f"  {key:<46} {metric['value']:.6g} {metric['unit']}")
        return
    for key, vals in wl.samples.items():
        if vals:
            print(
                f"  {key:<12} median {statistics.median(vals):.4f} {END_TO_END[key][0]:<3} "
                f"n={len(vals)} min {min(vals):.4f} max {max(vals):.4f}"
            )
    if probes := wl.probes["wall_s"]:
        print(
            f"  {'probe_s':<12} median {statistics.median(probes):.4f} s   n={len(probes)} "
            f"min {min(probes):.4f} max {max(probes):.4f}; the times above are as measured, "
            f"the result scales each by {PROBE_REFERENCE_S:g} s / the probe after it"
        )
    reference = (wl.checker and wl.checker.reference) or {}
    for key in ("accuracy.stem", "accuracy.baseline"):
        if key in reference:
            print(f"  {key:<18} {reference[key]:.4f} fraction")


def record(spec: dict, seeds: list[int]) -> int:
    """Write one repetition's fingerprint per workload and seed.

    The file changes only after a repetition passed the oracle check.
    """
    table = _load_json(FINGERPRINTS)
    for name in spec["workloads"]:
        for seed in seeds:
            wl = Workload(spec, name, seed, time.monotonic() + RUN_LIMIT_S)
            wl.prepare(use_recorded=False)
            wl.measure(0.0)
            if wl.failed:
                print(f"{name} seed {seed}: not recorded: {wl.problems}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = wl.checker.reference
            _save_fingerprints(table)
            print(f"recorded {name} seed {seed}")
    return 0


def _save_fingerprints(table: dict) -> None:
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _run_apart(name: str, args: argparse.Namespace) -> dict:
    """One workload in its own process, so no run inherits another's memory."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    print(child.stdout, end="")
    print(child.stderr, end="", file=sys.stderr)
    try:
        return json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def _seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name from workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=_seed_list, metavar="SEEDS", help="e.g. 0-19")
    args = parser.parse_args(argv)

    spec = workloads.load()
    if args.record is not None:
        return record(spec, args.record)
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    if any(n not in spec["workloads"] for n in names):
        parser.error(f"--workload must be one of {list(spec['workloads'])} or 'all'")

    if args.workload != "all":
        print("env " + json.dumps(environment(), sort_keys=True))
        result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        results = {n: _run_apart(n, args) for n in names}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
