"""Command-line pipeline: validate, stats, aggregate, agree, split, filter, emit.

Every subcommand reads a manifest, writes outputs atomically, prints a
human-readable summary table to stdout and, with ``--json``, a
machine-readable summary to stderr: ``command``, the command's own fields,
``output`` for the commands that write a manifest, and last ``timings``, the
seconds spent parsing, computing and writing and the input lines per second
over the three. Exit codes: 1 usage error, 2 a manifest that fails validation
or holds a line the step cannot use, 3 I/O failure. Any other exception is a
bug and propagates with its traceback.

Set ``AGGRESCRIBE_THREADS`` to spread the per-line work of ``aggregate`` and
``agree`` over up to that many forked workers, at most one per line and per
usable CPU; below 1 means one. A chunk that raises is mapped again inline, so
errors raise as in a one-worker run. Without ``fork`` the work runs inline.
The output bytes are identical either way. A value that is not an integer is
a usage error, reported before the manifest is read.
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
    _CHARACTER,
    Corpus,
    Granularity,
    ManifestError,
    Split,
    Strategy,
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
    # are byte-identical to sequential ones. No more workers than lines or
    # than CPUs this process may run on, whatever the environment asks for.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, cpus or 1, len(lines))
    results = _forked_map(fn, lines, workers) if workers > 1 and hasattr(os, "fork") else None
    # One worker, or a chunk raised: the first failing line raises here, with
    # the type, message and traceback of a one-worker run.
    return [fn(line) for line in lines] if results is None else results


def _forked_map(fn: Callable, lines: Sequence, workers: int) -> list | None:
    """``[fn(line) for line in lines]`` over ``workers`` processes, or None
    if a chunk raised.

    The lines are cut into contiguous chunks. A forked child computes each
    chunk but the last, which this process computes itself. Children inherit
    ``fn`` and the lines, so only their results are pickled, into one pipe per
    child; a child whose chunk raises sends nothing. Every child is reaped
    before this returns or raises, and a child that exited nonzero raises
    ``ChildProcessError`` before anything else is looked at.
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
        except Exception:
            own = None  # the caller maps every line again, and it raises there
        received = [reader.read() for _, reader in children]
    finally:
        statuses = []
        for pid, reader in children:
            reader.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _), status in zip(children, statuses):
        if status != 0:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"worker process {pid} exited with status {code}")
    if own is not None and all(received):
        return [result for data in received for result in pickle.loads(data)] + own
    return None


def _child(fn: Callable, chunk: Sequence, write_end: int) -> None:
    # A forked child never returns into its parent's code: it leaves through
    # os._exit, skipping the parent's atexit handlers and unflushed buffers.
    # A raising chunk sends nothing; a nonzero status says results could not be sent.
    import pickle

    status = 1
    try:
        with os.fdopen(write_end, "wb") as out:
            try:
                results = [fn(line) for line in chunk]
            except Exception:
                pass
            else:
                pickle.dump(results, out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


class _Stage:
    """A command's frame: it parses ``args.manifest`` into ``corpus``, writes
    ``args.output`` and splits the run into parse, compute and write seconds
    for the ``--json`` summary; they never enter an output file.

    ``parse_manifest`` and ``write_manifest`` are looked up as this module's
    attributes at each call, so a patch or a tracer on them sees every
    command's parse and write.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.laps = {"parse_s": 0.0, "compute_s": 0.0, "write_s": 0.0}
        self._last = time.perf_counter()
        self.corpus = parse_manifest(args.manifest)
        self.lap("parse_s")

    def lap(self, name: str) -> None:
        """Record the time since the previous lap, or the start, as ``name``."""
        now = time.perf_counter()
        self.laps[name] = now - self._last
        self._last = now

    def write(self, corpus: Corpus) -> None:
        """End the compute lap and write ``corpus`` to ``args.output``."""
        self.lap("compute_s")
        write_manifest(corpus, self.args.output)
        self.lap("write_s")

    def summary(self, **fields) -> dict:
        """The command's summary: its name, ``fields``, the ``-o`` manifest
        of a command that has one, which it has written by now, and the
        timings over the input lines."""
        summary = {"command": self.args.command, **fields}
        if "output" in self.args:
            summary["output"] = str(self.args.output)
        total = sum(self.laps.values())
        lines_per_s = len(self.corpus) / total if total else 0.0
        summary["timings"] = {**self.laps, "lines_per_s": lines_per_s}
        return summary


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
    return value or 0.0  # -0 is 0, and prints so in the table and the summary


def _print_table(rows: Sequence[tuple[str, str]]) -> None:
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")


#: Each split's label in the printed tables, in ``Split`` member order.
_SPLIT_NAMES = {Split.TRAIN: "Train", Split.VALIDATION: "Validation", Split.TEST: "Test"}


def _split_table(counts: dict[Split, int]) -> list[tuple[str, str]]:
    total = sum(counts.values())
    rows = [("Split", "Number  Percentage (%)")]
    for split, name in _SPLIT_NAMES.items():
        share = 100.0 * counts[split] / total if total else 0.0
        rows.append((name, f"{counts[split]:>6}  {share:.1f}"))
    rows.append(("Total", f"{total:>6}  100.0" if total else f"{total:>6}  0.0"))
    return rows


def cmd_validate(args: argparse.Namespace) -> dict:
    stage = _Stage(args)
    print(f"ok: {len(stage.corpus)} lines ({args.manifest})")
    return stage.summary(manifest=str(args.manifest), lines=len(stage.corpus))


def cmd_stats(args: argparse.Namespace) -> dict:
    stage = _Stage(args)
    report = corpus_stats(stage.corpus)
    stage.lap("compute_s")
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
    return stage.summary(
        lines=report.total_lines,
        two_human_lines=report.two_human_lines,
        two_human_share=report.two_human_share,
        per_source=report.per_source,
        transcriptions_per_line={str(k): v for k, v in report.transcriptions_per_line.items()},
    )


def cmd_aggregate(args: argparse.Namespace) -> dict:
    if args.method == "rasa" and args.level is not None:
        raise UsageError("--level applies only to --method rover")
    level = _CHARACTER.value if args.method == "rover" and args.level is None else args.level
    threads = _thread_cap()
    if args.method == "rover":
        _bind("consensus_transcription")
        per_line = partial(consensus_transcription, level=Granularity(level))
    else:
        _bind("selected_transcription")
        per_line = selected_transcription
    stage = _Stage(args)
    lines = stage.corpus.lines
    aggregates = _map_lines(per_line, lines, threads)
    stage.write(Corpus(tuple(line.with_aggregate(t) for line, t in zip(lines, aggregates))))
    print(f"aggregated {len(lines)} lines with {args.method} -> {args.output}")
    # An uncertain aggregate is an empty vote's fallback to the first reading.
    fallbacks = [line.line_id for line, t in zip(lines, aggregates) if t.uncertain]
    return stage.summary(
        method=args.method,
        level=level,
        lines=len(lines),
        fallback_lines=len(fallbacks),
        fallback_line_ids=fallbacks[:5],
    )


def cmd_agree(args: argparse.Namespace) -> dict:
    threads = _thread_cap()
    _bind("agreement_score")
    stage = _Stage(args)
    lines = stage.corpus.lines
    scores = _map_lines(agreement_score, lines, threads)
    stage.write(Corpus(tuple(line.with_agreement(s) for line, s in zip(lines, scores))))
    mean = sum(scores) / len(scores) if scores else 0.0
    unanimous = sum(1 for s in scores if s == 100.0)
    _print_table(
        [
            ("Lines", f"{len(scores)}"),
            ("Mean agreement", f"{mean:.2f}"),
            ("Lines at 100", f"{unanimous}"),
        ]
    )
    return stage.summary(lines=len(scores), mean_agreement=mean, lines_at_100=unanimous)


def cmd_split(args: argparse.Namespace) -> dict:
    if args.mode == "agreement":
        for flag, value in (("--sizes", args.sizes), ("--seed", args.seed)):
            if value is not None:
                raise UsageError(f"{flag} applies only to --mode random")
    seed = 0 if args.mode == "random" and args.seed is None else args.seed
    _bind("agreement_split", "apply_split", "random_split", "split_counts")
    stage = _Stage(args)
    corpus = stage.corpus
    if args.mode == "agreement":
        splits = agreement_split(corpus)
    else:
        sizes = args.sizes
        if sizes is None:
            # The paper-shaped default: a random split with the same
            # cardinalities the agreement rule would produce.
            sizes = tuple(split_counts(agreement_split(corpus)).values())
        if sum(sizes) != len(corpus):
            raise UsageError(
                f"--sizes {sizes} sum to {sum(sizes)}, but the manifest has "
                f"{len(corpus)} lines"
            )
        splits = random_split(corpus, sizes, seed)
    stage.write(apply_split(corpus, splits))
    counts = split_counts(splits)
    _print_table(_split_table(counts))
    return stage.summary(
        mode=args.mode, seed=seed, counts={split.value: n for split, n in counts.items()}
    )


def cmd_filter(args: argparse.Namespace) -> dict:
    _bind("filter_by_agreement", "split_counts")
    stage = _Stage(args)
    filtered = filter_by_agreement(stage.corpus, args.min_agreement)
    stage.write(filtered)
    before = split_counts(line.split for line in stage.corpus.lines)
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
    return stage.summary(
        threshold=args.min_agreement,
        train_before=total,
        train_after=retained,
        train_retained_pct=share,
    )


def cmd_emit(args: argparse.Namespace) -> dict:
    _bind("emit", "write_ground_truth")
    stage = _Stage(args)
    records = emit(stage.corpus, args.strategy, seed=args.seed)
    stage.lap("compute_s")
    counts = write_ground_truth(records, args.out)
    summary = {"strategy": args.strategy, "seed": args.seed, "counts": counts}
    atomic_write_text(Path(args.out) / "summary.json", json.dumps(summary) + "\n")
    stage.lap("write_s")
    rows = [(f"{_SPLIT_NAMES[split]} records", f"{counts[split.value]}") for split in Split]
    _print_table([("Strategy", args.strategy), *rows])
    return stage.summary(out=str(args.out), **summary)


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
        choices=[level.value for level in Granularity],
        help=f"rover voting granularity (default: {_CHARACTER.value}); rasa compares whole strings",
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
    emit_cmd.add_argument("--strategy", choices=[s.value for s in Strategy], required=True)
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
