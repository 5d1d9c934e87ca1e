"""Command-line pipeline: validate, stats, aggregate, agree, split, filter, emit.

Every subcommand reads a manifest, writes outputs atomically, prints a
human-readable summary table to stdout and, with ``--json``, a
machine-readable summary to stderr, whose ``timings`` give the seconds spent
parsing, computing and writing and the input lines per second over the three.
Exit codes: 1 usage error, 2 a manifest that fails validation or holds a line
the step cannot use, 3 I/O failure. Any other exception is a bug and
propagates.

Set ``AGGRESCRIBE_THREADS`` to spread the per-line work of ``aggregate`` and
``agree`` over up to that many forked worker processes, at most one per CPU and
per line. Where the platform has no ``fork``, the work runs inline. The output
bytes are identical either way.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from collections.abc import Callable, Sequence
from functools import partial
from pathlib import Path

from . import __version__
from .corpus import (
    Corpus,
    ManifestError,
    Split,
    atomic_write_text,
    corpus_stats,
    parse_manifest,
    write_manifest,
)

PROG = "aggrescribe"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

THREADS_ENV = "AGGRESCRIBE_THREADS"


#: ``assemble.Strategy``'s values, for the parser, which must not load
#: ``assemble`` for every command.
STRATEGIES = ("random-one", "rasa-one", "rover-one", "all-human", "all-human-auto", "all")


def __getattr__(name: str):
    """A name the package exports, bound here on first access.

    The commands call library names beyond ``corpus`` through this module's
    attributes, read at each call. A command binds the names it calls, and
    only those, when it runs (``_bind``), so a process loads only the modules
    its command needs. A name set beforehand, by a patch or a tracer, is kept.
    """
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(package, name)
    globals()[name] = value
    return value


def _bind(*names: str) -> None:
    """Make the package's ``names`` attributes of this module, unless they
    already are."""
    bound = globals()
    for name in names:
        if name not in bound:
            __getattr__(name)


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
    # are byte-identical to sequential ones. No more workers than CPUs or
    # lines, whatever the environment asks for.
    workers = min(threads, os.cpu_count() or 1, len(lines))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(line) for line in lines]
    return _forked_map(fn, lines, workers)


def _forked_map(fn: Callable, lines: Sequence, workers: int) -> list:
    """``[fn(line) for line in lines]`` over ``workers`` processes.

    The lines are cut into contiguous chunks. A forked child computes each
    chunk but the last, which this process computes itself. Children inherit
    ``fn`` and the lines, so only their results, or the exception they raised,
    are pickled, into one pipe per child. Every child is reaped before this
    returns or raises. The first exception in chunk order is raised, with the
    type and message an inline run would raise.
    """
    # Imported here: a single-worker process never pays for it.
    import pickle

    cuts = [len(lines) * k // workers for k in range(workers + 1)]
    children = []  # (pid, read end of the child's pipe)
    try:
        for k in range(workers - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _child(fn, lines[cuts[k] : cuts[k + 1]], write_end)
            os.close(write_end)
            children.append((pid, os.fdopen(read_end, "rb")))
        try:
            own = [fn(line) for line in lines[cuts[-2] :]]
        except Exception as exc:
            own = exc
        received = [reader.read() for _, reader in children]
    finally:
        statuses = []
        for pid, reader in children:
            reader.close()
            statuses.append(os.waitpid(pid, 0)[1])
    outcomes = []
    for (pid, _), data, status in zip(children, received, statuses):
        if status != 0:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"worker process {pid} exited with status {code}")
        outcomes.append(pickle.loads(data))
    outcomes.append(own)
    results = []
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        results.extend(outcome)
    return results


def _child(fn: Callable, chunk: Sequence, write_end: int) -> None:
    # A forked child never returns into its parent's code: it leaves through
    # os._exit, which also skips the parent's atexit handlers and unflushed
    # buffers. A nonzero status tells the parent that no outcome was sent.
    import pickle

    status = 1
    try:
        try:
            outcome = [fn(line) for line in chunk]
        except Exception as exc:
            outcome = exc
        with os.fdopen(write_end, "wb") as out:
            pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


class _Stopwatch:
    """Splits a command's run into parse, compute and write seconds for its
    ``--json`` summary; they never enter an output file."""

    def __init__(self) -> None:
        self.laps = {"parse_s": 0.0, "compute_s": 0.0, "write_s": 0.0}
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        """Record the time since the previous lap, or the start, as ``name``."""
        now = time.perf_counter()
        self.laps[name] = now - self._last
        self._last = now

    def timings(self, lines: int) -> dict:
        total = sum(self.laps.values())
        return {**self.laps, "lines_per_s": lines / total if total else 0.0}


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
    clock = _Stopwatch()
    corpus = parse_manifest(args.manifest)
    clock.lap("parse_s")
    print(f"ok: {len(corpus)} lines ({args.manifest})")
    return {
        "command": "validate",
        "manifest": str(args.manifest),
        "lines": len(corpus),
        "timings": clock.timings(len(corpus)),
    }


def cmd_stats(args: argparse.Namespace) -> dict:
    clock = _Stopwatch()
    corpus = parse_manifest(args.manifest)
    clock.lap("parse_s")
    report = corpus_stats(corpus)
    clock.lap("compute_s")
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
        "timings": clock.timings(report.total_lines),
    }


def cmd_aggregate(args: argparse.Namespace) -> dict:
    if args.method == "rasa" and args.level is not None:
        raise UsageError("--level applies only to --method rover")
    level = "char" if args.method == "rover" and args.level is None else args.level
    if args.method == "rover":
        _bind("Granularity", "consensus_transcription")
        granularity = Granularity(level)
        per_line = partial(consensus_transcription, level=granularity)
    else:
        _bind("selected_transcription")
        per_line = selected_transcription
    clock = _Stopwatch()
    corpus = parse_manifest(args.manifest)
    clock.lap("parse_s")
    threads = _thread_cap()
    aggregates = _map_lines(per_line, corpus.lines, threads)
    updated = Corpus(
        tuple(line.with_aggregate(t) for line, t in zip(corpus.lines, aggregates))
    )
    clock.lap("compute_s")
    write_manifest(updated, args.output)
    clock.lap("write_s")
    print(f"aggregated {len(updated)} lines with {args.method} -> {args.output}")
    return {
        "command": "aggregate",
        "method": args.method,
        "level": level,
        "lines": len(updated),
        "output": str(args.output),
        "timings": clock.timings(len(corpus)),
    }


def cmd_agree(args: argparse.Namespace) -> dict:
    _bind("agreement_score")
    clock = _Stopwatch()
    corpus = parse_manifest(args.manifest)
    clock.lap("parse_s")
    threads = _thread_cap()
    scores = _map_lines(agreement_score, corpus.lines, threads)
    updated = Corpus(
        tuple(line.with_agreement(score) for line, score in zip(corpus.lines, scores))
    )
    clock.lap("compute_s")
    write_manifest(updated, args.output)
    clock.lap("write_s")
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
        "timings": clock.timings(len(corpus)),
    }


def cmd_split(args: argparse.Namespace) -> dict:
    if args.mode == "agreement":
        for flag, value in (("--sizes", args.sizes), ("--seed", args.seed)):
            if value is not None:
                raise UsageError(f"{flag} applies only to --mode random")
    seed = 0 if args.mode == "random" and args.seed is None else args.seed
    _bind("agreement_split", "apply_split", "random_split", "split_counts")
    clock = _Stopwatch()
    corpus = parse_manifest(args.manifest)
    clock.lap("parse_s")
    if args.mode == "agreement":
        splits = agreement_split(corpus)
    else:
        sizes = args.sizes
        if sizes is None:
            # The paper-shaped default: a random split with the same
            # cardinalities the agreement rule would produce.
            counts = split_counts(agreement_split(corpus))
            sizes = (counts[Split.TRAIN], counts[Split.VALIDATION], counts[Split.TEST])
        if sum(sizes) != len(corpus):
            raise UsageError(
                f"--sizes {sizes} sum to {sum(sizes)}, but the manifest has "
                f"{len(corpus)} lines"
            )
        splits = random_split(corpus, sizes, seed)
    updated = apply_split(corpus, splits)
    clock.lap("compute_s")
    write_manifest(updated, args.output)
    clock.lap("write_s")
    counts = split_counts(splits)
    _print_table(_split_table(counts))
    return {
        "command": "split",
        "mode": args.mode,
        "seed": seed,
        "counts": {
            "train": counts[Split.TRAIN],
            "val": counts[Split.VALIDATION],
            "test": counts[Split.TEST],
        },
        "output": str(args.output),
        "timings": clock.timings(len(corpus)),
    }


def cmd_filter(args: argparse.Namespace) -> dict:
    _bind("filter_by_agreement", "split_counts")
    clock = _Stopwatch()
    corpus = parse_manifest(args.manifest)
    clock.lap("parse_s")
    filtered = filter_by_agreement(corpus, args.min_agreement)
    clock.lap("compute_s")
    write_manifest(filtered, args.output)
    clock.lap("write_s")

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
        "timings": clock.timings(len(corpus)),
    }


def cmd_emit(args: argparse.Namespace) -> dict:
    _bind("Strategy", "emit", "write_ground_truth", "split_counts")
    clock = _Stopwatch()
    corpus = parse_manifest(args.manifest)
    clock.lap("parse_s")
    strategy = Strategy(args.strategy)
    records = emit(corpus, strategy, seed=args.seed)
    by_split = split_counts(r.split for r in records)
    counts = {
        "train": by_split[Split.TRAIN],
        "val": by_split[Split.VALIDATION],
        "test": by_split[Split.TEST],
    }
    clock.lap("compute_s")
    write_ground_truth(records, args.out)
    summary = {"strategy": strategy.value, "seed": args.seed, "counts": counts}
    atomic_write_text(Path(args.out) / "summary.json", json.dumps(summary) + "\n")
    clock.lap("write_s")
    _print_table(
        [
            ("Strategy", strategy.value),
            ("Train records", f"{counts['train']}"),
            ("Validation records", f"{counts['val']}"),
            ("Test records", f"{counts['test']}"),
        ]
    )
    return {
        "command": "emit",
        "out": str(args.out),
        **summary,
        "timings": clock.timings(len(corpus)),
    }


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
        help="rover voting granularity (default: char); rasa compares whole strings",
    )

    add("agree", cmd_agree, "annotate every line with its agreement score")

    split = add("split", cmd_split, "assign train/val/test splits")
    split.add_argument("--mode", choices=("agreement", "random"), required=True)
    split.add_argument("--seed", type=int, help="random-mode shuffle seed (default: 0)")
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
    emit_cmd.add_argument("--strategy", choices=STRATEGIES, required=True)
    emit_cmd.add_argument("--seed", type=int, default=0, help="random-one selection seed")
    emit_cmd.add_argument("--out", type=Path, required=True, help="output directory")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The records and lattices a command builds form no reference cycles, so
    # the cyclic collector would only spend its passes finding none.
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()
    if args.json:
        print(json.dumps(summary), file=sys.stderr)
    return EXIT_OK


def run() -> None:
    """Entry of an ``aggrescribe`` process: exit with ``main()``'s code.

    Nothing the process built is needed once ``main()`` returns or raises,
    argparse's ``SystemExit`` for ``--help``, ``--version`` and usage errors
    included, so the heap is frozen on every way out: the interpreter's exit
    then skips its cyclic collection over everything still alive. Atexit
    handlers still run and the standard streams are still flushed."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
