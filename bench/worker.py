"""The workload process: one client issuing one CLI request at a time.

    python3 bench/worker.py --probe       import bctlab, report ready, exit
    python3 bench/worker.py PLAN.json     run the plan's requests, write results

Both print `ready` on stdout once `import bctlab` is done and the first
request could be issued; run.py times set-up from spawn to that line.
Each request calls `bctlab.cli.main(argv)` in this process with stdout
replaced by a hashing sink. The request list is repeated in passes until
the plan's seconds are used (at least one pass), or exactly the plan's
passes when it names a number. With tracing on, every
pass is traced, there are at least two, and pairs counts are computed
between requests, untimed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from hashsink import HashSink

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_cli():
    sys.path.insert(0, SRC)
    import bctlab
    import bctlab.cli

    where = os.path.realpath(bctlab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"bctlab was imported from {where}, not from {SRC}")
    return bctlab, bctlab.cli.main


def _pass_count(seconds: float, first_pass: float) -> int:
    # tolerate a first pass up to 25% slower before dropping a pass
    return max(1, int(seconds / max(first_pass, 1e-9) + 0.25))


def _run_pass(main, requests, tracer=None):
    real_stdout = sys.stdout
    results, traced = [], []
    for req in requests:
        sink = HashSink(keep=req["keep"], strip_runtime=req["strip_runtime"])
        code, error = None, None
        sys.stdout = sink
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter()
        try:
            code = main(list(req["argv"]))
        except Exception as exc:  # a raising request is a failed request
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        spans = tracer.end() if tracer is not None else None
        sys.stdout = real_stdout
        digest = sink.finish()
        results.append({
            "seconds": seconds,
            "code": code,
            "error": error,
            "sha256": digest,
            "nbytes": sink.nbytes,
            "newlines": sink.newlines,
            "head": sink.head,
            "tail": sink.tail,
            "text": sink.text,
        })
        if spans is not None:
            traced.append((spans, sink.nbytes))
    return results, traced


def run(plan: dict) -> dict:
    bctlab, main = _import_cli()
    requests, seconds = plan["requests"], plan["seconds"]
    print("ready", flush=True)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)  # the CLI writes to sinks; the pipe stays quiet
    os.close(devnull)

    layers, installed, tr, pairs_of = [], [], None, None
    if plan["trace"]:
        import tracer as tracing

        public_ddt = bctlab.ddt  # captured before wrapping
        memo = {}

        def pairs_of(sbox):
            key = hashlib.sha256(sbox.table.tobytes()).hexdigest()
            if key not in memo:
                memo[key] = tracing.ddt_pairs(public_ddt, sbox)
            return memo[key]

        tr = tracing.Tracer()
        tr.install()
        installed = tr.installed

    passes, total = [], 1
    t_begin = time.perf_counter()
    while len(passes) < total:
        results, traced = _run_pass(main, requests, tr)
        passes.append({"traced": tr is not None, "requests": results})
        if tr is not None:
            layers.append(tracing.summarize(traced, pairs_of))
        if len(passes) == 1:
            total = plan["passes"] or _pass_count(seconds, time.perf_counter() - t_begin)
            if tr is not None:
                total = max(total, 2)  # work counts must repeat pass to pass

    import numpy

    return {
        "passes": passes,
        "layers": layers,
        "installed": installed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
    }


def main(argv) -> int:
    if argv[:1] == ["--probe"]:
        _import_cli()
        print("ready", flush=True)
        return 0
    if len(argv) != 1:
        print("usage: worker.py --probe | worker.py PLAN.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run(plan)
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
