"""Benchmark of the aggrescribe CLI pipeline, end to end and per layer.

    python3 bench/run.py --workload belfort-char --seed 1 --seconds 40 --trace 0

Generates the workload's corpus from the seed, then, for ``--seconds``, runs
the workload's chain of CLI stages again and again, each stage a fresh
``python -m aggrescribe`` process started when the previous one has exited
(closed loop, one client). It checks the outputs, prints every metric with
its unit, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and the metrics named in ``BENCHMARK.json``.

With ``--trace 1`` the chain runs in this process through
``aggrescribe.cli.main`` instead, alternating untraced passes with passes in
which the library's module boundaries are wrapped (see ``spans.py``); the
result carries the per-layer metrics and the tracing overhead, and the spans
of the last traced pass are written to ``bench/_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = BENCH / "_work"
DIGESTS = BENCH / "digests.json"

STRATEGIES = ("random-one", "rasa-one", "rover-one", "all-human", "all-human-auto", "all")
SETUP_RUNS = 7
CORPUS = "corpus.jsonl"


def _pipeline(level: str) -> tuple:
    # The paper's run: both aggregates, agreement, both splits, the 90 %
    # filter and the richest emission strategy. "@name" is a file in the
    # pass's output directory.
    return (
        ("aggregate_rover", f"aggregate @{CORPUS} -o @rover.jsonl --method rover --level {level}"),
        ("aggregate_rasa", "aggregate @rover.jsonl -o @both.jsonl --method rasa"),
        ("agree", "agree @both.jsonl -o @agreed.jsonl"),
        ("split", "split @agreed.jsonl -o @split.jsonl --mode agreement"),
        ("split", "split @agreed.jsonl -o @random.jsonl --mode random --seed 7"),
        ("filter", "filter @split.jsonl -o @filtered.jsonl --min-agreement 90"),
        ("emit", "emit @filtered.jsonl --strategy all --seed 17 --out @gt-all"),
    )


# The paper's experiment sweep over an already aggregated and scored corpus.
_SWEEP = (
    ("split", f"split @{CORPUS} -o @split.jsonl --mode agreement"),
    ("split", f"split @{CORPUS} -o @random.jsonl --mode random --seed 7"),
    *(
        ("filter", f"filter @split.jsonl -o @filtered{t}.jsonl --min-agreement {t}")
        for t in (90, 97, 99)
    ),
    *(("emit", f"emit @split.jsonl --strategy {s} --seed 17 --out @gt-{s}") for s in STRATEGIES),
)


@dataclass(frozen=True)
class Workload:
    lines: int
    threads: int
    steps: tuple
    # Lines sampled for each oracle check; the brute-force distance is
    # quadratic in memory and time, so long lines get fewer.
    oracle_sample: int


WORKLOADS = {
    "belfort-char": Workload(lines=300, threads=1, steps=_pipeline("char"), oracle_sample=12),
    "long-word-threads": Workload(lines=30, threads=2, steps=_pipeline("word"), oracle_sample=3),
    "downstream-sweep": Workload(lines=3000, threads=1, steps=_SWEEP, oracle_sample=12),
}

STAGE_METRICS = (
    "aggregate_rover_s",
    "aggregate_rasa_s",
    "agree_s",
    "split_s",
    "filter_s",
    "emit_s",
)

# Printed for every workload; BENCHMARK.json names the ones that also go in
# the result line.
END_TO_END_UNITS = {
    "lines_per_s": "lines/s",
    **{name: "s" for name in STAGE_METRICS},
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "error_rate": "ratio",
}

PER_LAYER_UNITS = {
    "corpus.parse_manifest.us_per_line": "us/line",
    "corpus.write_manifest.us_per_line": "us/line",
    "corpus.bytes_read": "bytes",
    "corpus.bytes_written": "bytes",
    "metrics.sym_char_distance.calls": "count",
    "metrics.sym_char_distance.us_p50": "us",
    "metrics.sym_char_distance.us_p99": "us",
    "metrics.sym_char_distance.demanded_cells": "count",
    "metrics.sym_char_distance.ns_per_cell": "ns/cell",
    "rover.build_lattice.ms_p50": "ms",
    "rover.build_lattice.ms_p99": "ms",
    "rover.tokens_in": "count",
    "rover.slots_out": "count",
    "rover.vote.s": "s",
    "rover.null_win_share": "ratio",
    "rasa.distance_matrix.s": "s",
    "rasa.rasa_select.self_s": "s",
    "rasa.iterations.mean": "count",
    "rasa.iterations.p99": "count",
    "rasa.nonconverged_share": "ratio",
    "quality.agreement_score.ms_p50": "ms",
    "quality.agreement_score.ms_p99": "ms",
    "quality.agreement_score.self_s": "s",
    "quality.consensus_reuse_share": "ratio",
    "splits.agreement_split.s": "s",
    "splits.random_split.s": "s",
    "splits.agreement_split.calls": "count",
    "assemble.emit.s": "s",
    "assemble.emit.records": "count",
    "assemble.write_ground_truth.s": "s",
    "assemble.bytes_written": "bytes",
    **{f"cli.{stage}.self_s": "s" for stage in ("aggregate", "agree", "split", "filter", "emit")},
    "cli.map_lines.cores_used": "cores",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


def declared_metrics(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


@dataclass
class Pass:
    """One run of a workload's stage chain."""

    stage_s: dict = field(default_factory=lambda: dict.fromkeys(STAGE_METRICS, 0.0))
    wall_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def add(self, stage: str, seconds: float, ok: bool, what: str) -> None:
        self.stage_s[f"{stage}_s"] += seconds
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def stage_env(threads: int) -> dict:
    """Environment for stage processes: the checkout's ``src`` by absolute
    path, so the stages import this tree whatever their working directory."""
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        AGGRESCRIBE_THREADS=str(threads),
    )


def stage_argv(command: str, out: Path) -> list[str]:
    return [str(out / tok[1:]) if tok.startswith("@") else tok for tok in command.split()]


def run_process(argv: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one child process."""
    with open(log, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=log.parent, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def clear_outputs(out: Path) -> None:
    for entry in out.iterdir():
        if entry.name != CORPUS:
            shutil.rmtree(entry) if entry.is_dir() else entry.unlink()


def output_digests(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != CORPUS
    }


def chain_subprocess(workload: Workload, out: Path, env: dict, log: Path) -> Pass:
    clear_outputs(out)
    result = Pass()
    started = time.perf_counter()
    for stage, command in workload.steps:
        argv = [sys.executable, "-m", "aggrescribe", *stage_argv(command, out)]
        code, wall, rss = run_process(argv, env, log)
        what = f"{command}: exit {code}: {log.read_text()[-300:]}"
        result.add(stage, wall, code == 0, what)
        result.rss_mb = max(result.rss_mb, rss)
    result.wall_s = time.perf_counter() - started
    result.digests = output_digests(out)
    return result


def chain_inprocess(workload: Workload, out: Path, tracer=None) -> Pass:
    """The same chain through ``cli.main`` in this process; with a tracer,
    each stage is a ``cli.<command>`` span."""
    from aggrescribe import cli

    clear_outputs(out)
    result = Pass()
    started = time.perf_counter()
    for stage, command in workload.steps:
        argv = stage_argv(command, out)
        sink = io.StringIO()
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.stage = stage
            span = tracer.span(f"cli.{argv[0]}")
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        result.add(stage, time.perf_counter() - t0, code == 0, f"{command}: exit {code}")
    result.wall_s = time.perf_counter() - started
    result.digests = output_digests(out)
    return result


def setup_seconds(env: dict, log: Path) -> float:
    """Median wall time of a fresh ``python -m aggrescribe --version``,
    after one untimed start that fills the bytecode cache."""
    argv = [sys.executable, "-m", "aggrescribe", "--version"]
    run_process(argv, env, log)
    times = []
    for _ in range(SETUP_RUNS):
        code, wall, _ = run_process(argv, env, log)
        if code != 0:
            raise SystemExit(f"bench: `aggrescribe --version` failed: {log.read_text()}")
        times.append(wall)
    return median(times)


def import_seconds(env: dict, log: Path) -> float:
    """Median time a fresh interpreter spends importing ``aggrescribe.cli``."""
    code = (
        "import time; t = time.perf_counter(); import aggrescribe.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        times.append(float(proc.stdout))
    return median(times)


def recorded_digests(workload: str, seed: int) -> dict | None:
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    entry = table.get(workload, {})
    if entry.get("lines") != WORKLOADS[workload].lines:
        return None
    return entry.get("seeds", {}).get(str(seed))


def _opt(tokens: list[str], flag: str) -> str:
    return tokens[tokens.index(flag) + 1]


def output_checks(workload: Workload, out: Path, corpus: list[dict], seed: int) -> list[tuple]:
    """Oracle and invariant checks on one pass's outputs, stage by stage."""
    import checks

    load = {}

    def records(name: str) -> list[dict]:
        if name not in load:
            load[name] = checks.read_manifest(out / name)
        return load[name]

    k = workload.oracle_sample
    found = [checks.check_distances(corpus, seed, k)]
    for _, command in workload.steps:
        tokens = command.split()
        name, source = tokens[0], tokens[1][1:]
        if name == "aggregate" and _opt(tokens, "--method") == "rover":
            target = _opt(tokens, "-o")[1:]
            found += checks.check_rover(records(target), _opt(tokens, "--level") == "char", seed, k)
        elif name == "aggregate":
            found.append(checks.check_rasa(records(_opt(tokens, "-o")[1:])))
        elif name == "agree":
            found += checks.check_agreement(records(_opt(tokens, "-o")[1:]), seed, k)
        elif name == "split" and _opt(tokens, "--mode") == "agreement":
            found += checks.check_split(records(_opt(tokens, "-o")[1:]), len(corpus), seed, k)
        elif name == "split":
            found.append(
                checks.check_random_split(records(_opt(tokens, "-o")[1:]), records("split.jsonl"))
            )
        elif name == "filter":
            threshold = float(_opt(tokens, "--min-agreement"))
            target = records(_opt(tokens, "-o")[1:])
            found.append(checks.check_filter(target, records(source), threshold))
        elif name == "emit":
            directory = out / _opt(tokens, "--out")[1:]
            found += checks.check_emit(directory, records(source), _opt(tokens, "--strategy"))
    return found


def digest_checks(name: str, seed: int, passes: list[Pass]) -> list[tuple]:
    first = passes[0].digests
    found = [
        (
            "digest.repeatable",
            all(p.digests == first for p in passes),
            f"{len(passes)} passes, {len(first)} outputs each",
        )
    ]
    recorded = recorded_digests(name, seed)
    if recorded is None:
        print(f"note: no digests recorded for {name} seed {seed}; byte-identity not gated")
    else:
        differ = sorted(k for k in set(first) | set(recorded) if first.get(k) != recorded.get(k))
        found.append(
            (
                "digest.recorded",
                not differ,
                f"{len(recorded) - len(differ)}/{len(recorded)} outputs match"
                + (f"; differ: {', '.join(differ)}" if differ else ""),
            )
        )
    return found


def shape_observed(name: str, out: Path) -> list[str]:
    """Realized agreement split and retention, read from the outputs."""
    import checks

    split = checks.read_manifest(out / "split.jsonl")
    counts = {s: sum(r["split"] == s for r in split) for s in ("train", "val", "test")}
    rows = [
        "  observed split train/val/test "
        + "/".join(f"{100 * counts[s] / len(split):.1f}" for s in counts)
        + " %"
    ]
    if name == "downstream-sweep":
        kept = [
            sum(r["split"] == "train" for r in checks.read_manifest(out / f"filtered{t}.jsonl"))
            for t in (90, 97, 99)
        ]
        rows.append(
            "  observed train kept at 90/97/99 "
            + "/".join(f"{100 * k / counts['train']:.1f}" for k in kept)
            + " %"
        )
    return rows


def facts() -> dict:
    sha = ""
    # Only this checkout's own history: git would otherwise look upwards
    # and report the sha of whatever repository encloses it.
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "loadavg_start": _loadavg(),
    }


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def measure(seconds: float, one_pass) -> list:
    """Repeat ``one_pass`` for about ``seconds``: stop before a pass that
    would likely end past the window, but always run at least one."""
    results, started = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        took = time.perf_counter() - t0
        if time.perf_counter() - started + took > seconds:
            return results


def end_to_end(
    workload: Workload, passes: list[Pass], setup_s: float, failed: int, attempted: int
) -> dict:
    # Totals over the whole window rather than a median of its few passes:
    # on a shared host the CPU speed flips between modes for seconds at a
    # time, and a median of three or four passes jumps with it where a
    # total averages over them.
    return {
        "lines_per_s": workload.lines * len(passes) / sum(p.wall_s for p in passes),
        **{name: sum(p.stage_s[name] for p in passes) / len(passes) for name in STAGE_METRICS},
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "setup_s": setup_s,
        "error_rate": failed / attempted,
    }


def per_layer(layers: list[dict], overhead: list[float], import_s: float) -> dict:
    values = {name: median(layer[name] for layer in layers) for name in layers[0]}
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = median(overhead)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (SRC / "aggrescribe" / "__init__.py", TESTS / "oracles.py")
    missing = [str(path) for path in needed if not path.exists()]
    if missing:
        print(f"bench: not a source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for path in (BENCH, TESTS, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    # The brute-force oracle recurses once per character of both strings.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))
    import workloads

    workload = WORKLOADS[args.workload]
    threads = min(workload.threads, os.cpu_count() or 1)
    info = facts()
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out = work / "out"
    out.mkdir(parents=True)
    try:
        corpus = workloads.generate(args.workload, args.seed, workload.lines)
        workloads.write(corpus, out / CORPUS)
        env = stage_env(threads)
        log = work / "stderr.txt"
        if args.trace:
            passes, metrics, overhead = trace_run(args, workload, threads, out, env, log)
        else:
            setup_s = setup_seconds(env, log)
            passes = measure(args.seconds, lambda: chain_subprocess(workload, out, env, log))
        found = digest_checks(args.workload, args.seed, passes)
        found += output_checks(workload, out, corpus, args.seed)
        attempted = sum(p.attempted for p in passes) + len(found)
        failed = sum(len(p.failures) for p in passes) + sum(not ok for _, ok, _ in found)
        if not args.trace:
            metrics = end_to_end(workload, passes, setup_s, failed, attempted)
        info["loadavg_end"] = _loadavg()
        info["threads"] = threads
        info["passes"] = len(passes)

        print("facts " + json.dumps(info))
        print("\n".join(workloads.shape_report(args.workload, corpus)))
        print("\n".join(shape_observed(args.workload, out)))
        for p in passes:
            for failure in p.failures:
                print(f"FAILED stage {failure}")
        for name, ok, detail in found:
            print(f"{'ok    ' if ok else 'FAILED'} {name}: {detail}")
        units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        for name, value in metrics.items():
            print(f"{name:<42} {value:>16.6f} {units[name]}")
        if args.trace:
            print("trace overhead by pass (s): " + ", ".join(f"{o:.4f}" for o in overhead))
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in declared},
                }
            )
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def trace_run(args, workload: Workload, threads: int, out: Path, env: dict, log: Path):
    """Alternate untraced and traced in-process passes for the window;
    return every pass, the per-layer metrics and the overhead of each pair
    (traced minus untraced stage time)."""
    import spans

    import_s = import_seconds(env, log)
    os.environ["AGGRESCRIBE_THREADS"] = str(threads)
    chain_inprocess(workload, out)  # warm: imports, bytecode, allocator

    def one_pair():
        plain = chain_inprocess(workload, out)
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced = chain_inprocess(workload, out, tracer)
        if traced.digests != plain.digests:
            traced.failures.append("traced outputs differ from untraced outputs")
        return plain, traced, tracer

    pairs = measure(args.seconds, one_pair)
    overhead = [sum(t.stage_s.values()) - sum(p.stage_s.values()) for p, t, _ in pairs]
    layers = [spans.layer_metrics(tracer.spans) for _, _, tracer in pairs]
    metrics = per_layer(layers, overhead, import_s)
    last = pairs[-1][2]
    with open(WORK / f"spans-{args.workload}.jsonl", "w", encoding="utf-8") as handle:
        for span in last.spans:
            handle.write(json.dumps(span.record(), ensure_ascii=False) + "\n")
    return [p for pair in pairs for p in pair[:2]], metrics, overhead


if __name__ == "__main__":
    # A termination request unwinds like an error, so the running stage
    # process is killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
