"""Record the output digests that the benchmark's byte-identity gate uses.

    python3 bench/record_digests.py --seeds 0-31

Runs every workload's stage chain in this process for each seed (the CLI's
outputs do not depend on how it is started), checks the outputs as a
benchmark run would, and writes ``bench/digests.json``. Rerun it only when
a change is meant to alter output bytes or the workload sizes change; a run
whose seed is not in the table reports that byte identity was not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, metavar="LO-HI")
    args = parser.parse_args()
    for path in (run.TESTS, run.SRC):
        sys.path.insert(0, str(path))
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))
    import workloads

    table = {}
    for name, workload in run.WORKLOADS.items():
        os.environ["AGGRESCRIBE_THREADS"] = str(min(workload.threads, os.cpu_count() or 1))
        seeds = {}
        for seed in args.seeds:
            out = run.WORK / f"record-{name}-seed{seed}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            try:
                corpus = workloads.generate(name, seed, workload.lines)
                workloads.write(corpus, out / run.CORPUS)
                done = run.chain_inprocess(workload, out)
                bad = done.failures + [
                    f"{check}: {detail}"
                    for check, ok, detail in run.output_checks(workload, out, corpus, seed)
                    if not ok
                ]
                if bad:
                    print(f"{name} seed {seed}: not recorded: {bad}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = done.digests
                print(f"{name} seed {seed}: {len(done.digests)} outputs", flush=True)
            finally:
                shutil.rmtree(out, ignore_errors=True)
        table[name] = {"lines": workload.lines, "seeds": seeds}
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
