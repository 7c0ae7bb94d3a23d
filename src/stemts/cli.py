"""Command-line front end: synth, convert, mine, eval, explain.

Each stage reads and writes the documented file formats, so the commands pipe
into each other: ``synth`` makes a dataset CSV, ``convert`` turns it into an
events CSV, ``mine`` turns events into a feature list, ``explain`` decodes
codes or feature lists, and ``eval`` runs the whole pipeline and writes
report files. All commands are deterministic given their flags and seed
(CPU timings excepted); errors go to stderr with a nonzero exit.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import suppress
from pathlib import Path

from .dataset import generate_synthetic, load_csv, load_synth_spec, write_csv
from .errors import ConfigError, StemError
from .evaluate import (
    ClassifierConfig,
    SplitSpec,
    evaluate,
    render_report_table,
    write_report_files,
)
from .events import SymbolizerConfig, convert_dataset, explain_event, write_events, load_events
from .features import save_vocabulary
from .mining import (
    MinerConfig,
    build_forest,
    extract_rts_features,
    load_feature_list,
    prune_bottom_up,
    resolve_min_support,
    write_feature_list,
)

__all__ = ["main"]


def _default_seed() -> int:
    text = os.environ.get("STEM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"STEM_SEED must be an integer, got {text!r}") from None


def _support_value(text: str) -> int | float:
    """min-support flag: integers are absolute counts, other numbers fractions."""
    for kind in (int, float):
        with suppress(ValueError):
            return kind(text)
    raise argparse.ArgumentTypeError(f"{text!r} is not a count or fraction")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stemts",
        description="Mine spatial-change-event features from multidimensional time series.",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress output")
    parser.add_argument("-v", "--verbose", action="store_true", help="chatty progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV from a YAML spec")
    p_synth.add_argument("spec", help="path to the synthetic spec file")
    p_synth.add_argument("--out", required=True, help="output dataset CSV path")
    p_synth.set_defaults(func=cmd_synth)

    # flags shared by several commands, declared once
    symbolizing = argparse.ArgumentParser(add_help=False)
    symbolizing.add_argument("--delta", type=float, default=0.05, help="flatness threshold")
    mining = argparse.ArgumentParser(add_help=False)
    mining.add_argument(
        "--min-support",
        type=_support_value,
        default=0.05,
        help="document support: integer count or fraction of samples",
    )
    mining.add_argument("--max-len", type=int, default=5, help="maximum tuple length")
    mining.add_argument(
        "--gain-gamma", type=float, default=0.0, help="optional leaf gain test (0 disables)"
    )

    p_convert = sub.add_parser(
        "convert", parents=[symbolizing], help="normalize and symbolize a dataset CSV"
    )
    p_convert.add_argument("--in", dest="input", required=True, help="input dataset CSV")
    p_convert.add_argument(
        "--pad",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="pad all samples to the dataset maximum length first",
    )
    p_convert.add_argument("--out", required=True, help="output events CSV path")
    p_convert.set_defaults(func=cmd_convert)

    p_mine = sub.add_parser(
        "mine", parents=[mining], help="mine root-to-leaf tuple features from events"
    )
    p_mine.add_argument("--in", dest="input", required=True, help="input events CSV")
    p_mine.add_argument("--out", required=True, help="output feature list path (JSON)")
    p_mine.set_defaults(func=cmd_mine)

    p_eval = sub.add_parser(
        "eval", parents=[symbolizing, mining], help="run the pipeline and write report files"
    )
    p_eval.add_argument("--in", dest="input", required=True, help="input dataset CSV")
    p_eval.add_argument("--k", type=int, default=1, help="neighbors for the knn classifier")
    p_eval.add_argument("--metric", choices=["euclidean", "cosine"], default="euclidean")
    p_eval.add_argument(
        "--classifier", choices=["knn", "centroid"], default="knn", help="classifier kind"
    )
    p_eval.add_argument("--train-frac", type=float, default=0.8)
    p_eval.add_argument(
        "--stratified", action=argparse.BooleanOptionalAction, default=True
    )
    p_eval.add_argument(
        "--seed", type=int, default=None, help="split seed (STEM_SEED env as fallback, then 0)"
    )
    p_eval.add_argument(
        "--baseline",
        action="store_true",
        help="also run the 1-gram histogram baseline on the same split",
    )
    p_eval.add_argument(
        "--pad",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="pad shorter samples to the longest training sample first",
    )
    p_eval.add_argument(
        "--resubstitution",
        action="store_true",
        help="evaluate on the training set itself (sanity mode)",
    )
    p_eval.add_argument(
        "--out", required=True, help="report prefix; writes .json, .txt and .vocab.json"
    )
    p_eval.set_defaults(func=cmd_eval)

    p_explain = sub.add_parser("explain", help="decode event codes or a mined feature list")
    group = p_explain.add_mutually_exclusive_group(required=True)
    group.add_argument("--code", type=int, help="single event code to decode")
    group.add_argument("--features", help="feature list file to decode")
    p_explain.add_argument("--dims", type=int, help="dimension count (required with --code)")
    p_explain.set_defaults(func=cmd_explain)

    return parser


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _say_verbose(args: argparse.Namespace, message: str) -> None:
    if args.verbose and not args.quiet:
        print(message, file=sys.stderr)


def cmd_synth(args: argparse.Namespace) -> int:
    spec = load_synth_spec(args.spec)
    _say_verbose(
        args,
        f"spec: {len(spec.classes)} classes x {spec.samples_per_class} samples, "
        f"noise {spec.noise_amplitude}, seed {spec.seed}",
    )
    dataset = generate_synthetic(spec)
    write_csv(dataset, args.out)
    _say(
        args,
        f"wrote {len(dataset)} samples ({spec.dims} dims, length {spec.length}) to {args.out}",
    )
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    dataset = load_csv(args.input)
    config = SymbolizerConfig(delta=args.delta)
    _say_verbose(args, f"delta {config.delta}, pad {args.pad}")
    batch = convert_dataset(dataset, config, dataset.t_max if args.pad else None)
    write_events(batch, config, args.out)
    _say(args, f"wrote {len(batch)} event sequences to {args.out}")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    batch, sym_config = load_events(args.input)
    config = MinerConfig(
        min_support=args.min_support, max_len=args.max_len, gain_gamma=args.gain_gamma
    )
    _say_verbose(
        args,
        f"{len(batch)} sequences, support threshold "
        f"{resolve_min_support(config.min_support, len(batch))} samples, "
        f"max_len {config.max_len}",
    )
    forest = build_forest(batch, config)
    pruned = prune_bottom_up(forest, config)
    features = extract_rts_features(pruned)
    if not features:
        warnings.warn("no tuple met the support threshold; writing an empty feature list")
    write_feature_list(args.out, features, pruned, batch.dims, sym_config.delta, config)
    _say(args, f"wrote {len(features)} features to {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    dataset = load_csv(args.input)
    symbolizer = SymbolizerConfig(delta=args.delta)
    miner = MinerConfig(
        min_support=args.min_support, max_len=args.max_len, gain_gamma=args.gain_gamma
    )
    split = SplitSpec(train_fraction=args.train_frac, seed=seed, stratified=args.stratified)
    classifier = ClassifierConfig(kind=args.classifier, k=args.k, metric=args.metric)
    name = Path(args.input).stem
    _say_verbose(
        args,
        f"delta {symbolizer.delta}, min_support {miner.min_support}, "
        f"max_len {miner.max_len}, {classifier.kind} k={classifier.k} "
        f"{classifier.metric}, train_frac {split.train_fraction}, seed {split.seed}",
    )
    methods = ("stem", "baseline") if args.baseline else ("stem",)
    same = {"pad": args.pad, "resubstitution": args.resubstitution, "dataset_name": name}
    reports = evaluate(dataset, symbolizer, miner, split, classifier, methods=methods, **same)
    json_path, text_path = write_report_files(reports, args.out)
    save_vocabulary(reports[0].vocabulary, str(args.out) + ".vocab.json")
    if not args.quiet:
        print(render_report_table(reports), end="")
    _say(args, f"reports written to {json_path} and {text_path}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    if args.code is not None:
        if args.dims is None:
            print("error: --code needs --dims", file=sys.stderr)
            return 1
        print(explain_event(args.code, args.dims))
        return 0
    payload = load_feature_list(args.features)
    for record in payload["features"]:
        codes = ",".join(str(c) for c in record["codes"])
        print(
            f"{record['ordinal']}\tcodes={codes}\tdoc={record['doc_support']}"
            f"\tocc={record['occ_count']}\t{record['description']}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # warnings print as one line each once the command has succeeded, so a
    # failure prints exactly its error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            rc = args.func(args)
            sys.stdout.flush()
        except StemError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except BrokenPipeError:
            # downstream consumer (head, less) closed the pipe; not our problem
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
