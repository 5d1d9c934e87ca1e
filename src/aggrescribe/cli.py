"""Command-line pipeline: validate, stats, aggregate, agree, split, filter, emit.

Every subcommand reads a manifest, writes outputs atomically, prints a
human-readable summary table to stdout and, with ``--json``, a
machine-readable summary to stderr. Exit codes: 1 usage error, 2 manifest
validation failure, 3 I/O failure.

Set ``AGGRESCRIBE_THREADS`` to parallelize per-line work in ``aggregate`` and
``agree``; outputs are identical to single-threaded runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .assemble import Strategy, emit, write_ground_truth
from .corpus import (
    Corpus,
    ManifestError,
    Split,
    atomic_write_text,
    corpus_stats,
    parse_manifest,
    write_manifest,
)
from .quality import agreement_score, filter_by_agreement
from .rasa import selected_transcription
from .rover import Granularity, consensus_transcription
from .splits import agreement_split, apply_split, random_split, split_counts

PROG = "aggrescribe"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

THREADS_ENV = "AGGRESCRIBE_THREADS"


class UsageError(Exception):
    """Bad flag combination or environment detected after parsing."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the pipeline reserves
    # 2 for manifest validation failures.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _thread_cap() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return max(1, value)


def _map_lines(fn: Callable, lines: Sequence, threads: int) -> list:
    # Results keep corpus order regardless of worker count, so parallel runs
    # are byte-identical to sequential ones.
    if threads <= 1 or len(lines) < 2:
        return [fn(line) for line in lines]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, lines))


def _sizes(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated counts: TRAIN,VAL,TEST")
    try:
        train, val, test = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be integers, got {text!r}") from None
    if min(train, val, test) < 0:
        raise argparse.ArgumentTypeError("sizes must be non-negative")
    return train, val, test


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"threshold must be a number, got {text!r}") from None
    if not 0.0 <= value <= 100.0:
        raise argparse.ArgumentTypeError("threshold must be in [0, 100]")
    return value


def _print_table(rows: Sequence[tuple[str, str]]) -> None:
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")


def _split_table(counts: dict[Split, int]) -> list[tuple[str, str]]:
    total = sum(counts.values())
    names = {Split.TRAIN: "Train", Split.VALIDATION: "Validation", Split.TEST: "Test"}
    rows = [("Split", "Number  Percentage (%)")]
    for split in (Split.TRAIN, Split.VALIDATION, Split.TEST):
        share = 100.0 * counts[split] / total if total else 0.0
        rows.append((names[split], f"{counts[split]:>6}  {share:.1f}"))
    rows.append(("Total", f"{total:>6}  100.0" if total else f"{total:>6}  0.0"))
    return rows


def cmd_validate(args: argparse.Namespace) -> dict:
    corpus = parse_manifest(args.manifest)
    print(f"ok: {len(corpus)} lines ({args.manifest})")
    return {"command": "validate", "manifest": str(args.manifest), "lines": len(corpus)}


def cmd_stats(args: argparse.Namespace) -> dict:
    corpus = parse_manifest(args.manifest)
    report = corpus_stats(corpus)
    rows = [
        ("Lines", f"{report.total_lines}"),
        (
            "Lines with two human transcriptions",
            f"{report.two_human_lines} ({report.two_human_share:.1f}%)",
        ),
        ("Transcriptions", f"{report.total_transcriptions}"),
    ]
    for tag, count in report.per_source.items():
        rows.append((f"  {tag}", f"{count}"))
    for size, count in report.transcriptions_per_line.items():
        rows.append((f"Lines with {size} transcriptions", f"{count}"))
    _print_table(rows)
    return {
        "command": "stats",
        "lines": report.total_lines,
        "two_human_lines": report.two_human_lines,
        "two_human_share": report.two_human_share,
        "per_source": report.per_source,
        "transcriptions_per_line": {str(k): v for k, v in report.transcriptions_per_line.items()},
    }


def cmd_aggregate(args: argparse.Namespace) -> dict:
    corpus = parse_manifest(args.manifest)
    level = Granularity.CHARACTER if args.level == "char" else Granularity.WORD
    if args.method == "rover":
        per_line = partial(consensus_transcription, level=level)
    else:
        per_line = selected_transcription
    threads = _thread_cap()
    aggregates = _map_lines(per_line, corpus.lines, threads)
    updated = Corpus(
        tuple(line.with_aggregate(t) for line, t in zip(corpus.lines, aggregates))
    )
    write_manifest(updated, args.output)
    print(f"aggregated {len(updated)} lines with {args.method} -> {args.output}")
    return {
        "command": "aggregate",
        "method": args.method,
        "level": args.level,
        "lines": len(updated),
        "output": str(args.output),
    }


def cmd_agree(args: argparse.Namespace) -> dict:
    corpus = parse_manifest(args.manifest)
    threads = _thread_cap()
    scores = _map_lines(agreement_score, corpus.lines, threads)
    updated = Corpus(
        tuple(line.with_agreement(score) for line, score in zip(corpus.lines, scores))
    )
    write_manifest(updated, args.output)
    mean = sum(scores) / len(scores) if scores else 0.0
    unanimous = sum(1 for s in scores if s == 100.0)
    _print_table(
        [
            ("Lines", f"{len(scores)}"),
            ("Mean agreement", f"{mean:.2f}"),
            ("Lines at 100", f"{unanimous}"),
        ]
    )
    return {
        "command": "agree",
        "lines": len(scores),
        "mean_agreement": mean,
        "lines_at_100": unanimous,
        "output": str(args.output),
    }


def cmd_split(args: argparse.Namespace) -> dict:
    corpus = parse_manifest(args.manifest)
    if args.mode == "agreement":
        assignments = agreement_split(corpus)
    else:
        sizes = args.sizes
        if sizes is None:
            # The paper-shaped default: a random split with the same
            # cardinalities the agreement rule would produce.
            counts = split_counts(agreement_split(corpus).values())
            sizes = (counts[Split.TRAIN], counts[Split.VALIDATION], counts[Split.TEST])
        if sum(sizes) != len(corpus):
            raise UsageError(
                f"--sizes {sizes} sum to {sum(sizes)}, but the manifest has "
                f"{len(corpus)} lines"
            )
        assignments = random_split(corpus, sizes, args.seed)
    updated = apply_split(corpus, assignments)
    write_manifest(updated, args.output)
    counts = split_counts(assignments.values())
    _print_table(_split_table(counts))
    return {
        "command": "split",
        "mode": args.mode,
        "seed": args.seed,
        "counts": {
            "train": counts[Split.TRAIN],
            "val": counts[Split.VALIDATION],
            "test": counts[Split.TEST],
        },
        "output": str(args.output),
    }


def cmd_filter(args: argparse.Namespace) -> dict:
    corpus = parse_manifest(args.manifest)
    try:
        filtered = filter_by_agreement(corpus, args.min_agreement)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    write_manifest(filtered, args.output)

    before = split_counts(line.split for line in corpus.lines)
    after = split_counts(line.split for line in filtered.lines)
    retained = after[Split.TRAIN]
    total = before[Split.TRAIN]
    share = 100.0 * retained / total if total else 0.0
    _print_table(
        [
            ("Threshold", f"{args.min_agreement:g}%"),
            ("Training samples", f"{retained} ({share:.1f}%)"),
            ("Validation samples", f"{after[Split.VALIDATION]}"),
            ("Test samples", f"{after[Split.TEST]}"),
        ]
    )
    return {
        "command": "filter",
        "threshold": args.min_agreement,
        "train_before": total,
        "train_after": retained,
        "train_retained_pct": share,
        "output": str(args.output),
    }


def cmd_emit(args: argparse.Namespace) -> dict:
    corpus = parse_manifest(args.manifest)
    strategy = Strategy(args.strategy)
    try:
        records = emit(corpus, strategy, seed=args.seed)
        write_ground_truth(records, args.out)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    counts = {
        "train": sum(1 for r in records if r.split is Split.TRAIN),
        "val": sum(1 for r in records if r.split is Split.VALIDATION),
        "test": sum(1 for r in records if r.split is Split.TEST),
    }
    summary = {"strategy": strategy.value, "seed": args.seed, "counts": counts}
    atomic_write_text(Path(args.out) / "summary.json", json.dumps(summary) + "\n")
    _print_table(
        [
            ("Strategy", strategy.value),
            ("Train records", f"{counts['train']}"),
            ("Validation records", f"{counts['val']}"),
            ("Test records", f"{counts['test']}"),
        ]
    )
    return {"command": "emit", "out": str(args.out), **summary}


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    parser.add_argument(
        "--json",
        action="store_true",
        help="also print a machine-readable summary to stderr",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, func, help_text: str, output: bool = True) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text, description=help_text)
        sub.add_argument("manifest", type=Path, help="input manifest (NDJSON)")
        if output:
            sub.add_argument(
                "-o", "--output", type=Path, required=True, help="output manifest path"
            )
        sub.set_defaults(func=func)
        return sub

    add("validate", cmd_validate, "parse a manifest and report whether it is valid", output=False)
    add("stats", cmd_stats, "corpus statistics: line/transcription counts and shares", output=False)

    aggregate = add("aggregate", cmd_aggregate, "append a consensus or selected transcription")
    aggregate.add_argument("--method", choices=("rover", "rasa"), required=True)
    aggregate.add_argument(
        "--level",
        choices=("char", "word"),
        default="char",
        help="voting granularity (rover only; rasa compares whole strings)",
    )

    add("agree", cmd_agree, "annotate every line with its agreement score")

    split = add("split", cmd_split, "assign train/val/test splits")
    split.add_argument("--mode", choices=("agreement", "random"), required=True)
    split.add_argument("--seed", type=int, default=0, help="random-mode shuffle seed")
    split.add_argument(
        "--sizes",
        type=_sizes,
        default=None,
        metavar="TRAIN,VAL,TEST",
        help="random-mode cardinalities; defaults to the agreement split's",
    )

    filter_cmd = add("filter", cmd_filter, "drop train lines below an agreement threshold")
    filter_cmd.add_argument(
        "--min-agreement", type=_threshold, required=True, metavar="T", help="threshold in [0, 100]"
    )

    emit_cmd = add(
        "emit", cmd_emit, "write trainer-ready TSV ground truth under a strategy", output=False
    )
    emit_cmd.add_argument(
        "--strategy", choices=[s.value for s in Strategy], required=True
    )
    emit_cmd.add_argument("--seed", type=int, default=0, help="random-one selection seed")
    emit_cmd.add_argument("--out", type=Path, required=True, help="output directory")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        summary = args.func(args)
    except UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ManifestError as exc:
        print(f"{PROG}: manifest error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"{PROG}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.json:
        print(json.dumps(summary), file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
