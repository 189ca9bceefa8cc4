"""Record reference output hashes and exit codes into bench/refs.json.

    python3 bench/record_refs.py --seeds 0-31 [--workload exports ...]

Runs each workload's request list once in a fresh worker on the
checkout's source. For every request it stores the output's SHA-256 and
byte count (after `runtime_ms` is stripped) and the exit code. The
references are what later runs are held to, so record them only on a
commit whose outputs are known good. A request must pass every other
check first, and an entry already stored is never replaced by a
different value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import corpus
import run as bench


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _put(store: dict, key: str, value, what: str) -> None:
    if store.setdefault(key, value) != value:
        raise SystemExit(f"{what}: stored {store[key]}, now {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1"),
                        help="seed or inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=corpus.WORKLOADS,
                        help="record only this workload (repeatable)")
    args = parser.parse_args(argv)
    bench.check_source()
    refs = bench._load_refs()
    env = bench.worker_env()
    for seed in args.seeds:
        for workload in args.workload or corpus.WORKLOADS:
            if workload == "registry" and seed != args.seeds[0]:
                continue  # fixed inputs
            workdir = os.path.join(".bench_work", f"record-{workload}-seed{seed}")
            requests = corpus.build_requests(workload, seed, bench.ROOT, workdir)
            result = bench.run_worker(requests, workdir, False, 0.0, env,
                                      time.monotonic() + 600.0, [])
            passes = result["passes"]
            problems = bench.check_requests(requests, passes, refs["requests"])
            for req, found in zip(requests, problems[0]):
                if found:
                    raise SystemExit(f"{workload} seed {seed} {req.label}: {found}")
            for req, res in zip(requests, passes[0]["requests"]):
                _put(refs["requests"], req.key, {
                    "label": req.label, "sha256": res["sha256"],
                    "nbytes": res["nbytes"], "exit": res["code"],
                }, req.label)
            print(f"seed {seed} {workload}: {len(requests)} requests", flush=True)
    with open(bench.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
