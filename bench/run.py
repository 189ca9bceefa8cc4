"""bctlab benchmark: the CLI as a user runs it, closed loop, output-locked.

    python3 bench/run.py --workload answers|exports|registry --seed N \\
        --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is `src/bctlab`
of that checkout, imported in a fresh worker process. One client sends
one request at a time (closed loop) and the CLI runs with its defaults:
no `--threads`, no `--algo`. See bench/README.md for the workloads and
the metrics.

With --trace 0 the last stdout line reports the end-to-end metrics:
setup_s (median over several fresh spawns of spawn -> `import bctlab`
done), wall_s (the request list's time, averaged over the passes) and
peak_rss_mb (the worker's ru_maxrss). With --trace 1 it
reports the per-layer metrics of a traced run. The line before it is
an environment record. Every request is checked (see `check_requests`); any
failure makes `correct` false. Exit status is non-zero, with no result
line, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

PROBES = 6  # extra fresh spawns timed for setup_s, besides the worker
DEADLINE_S = 170.0  # the whole run, set-up included
REFS_PATH = os.path.join(HERE, "refs.json")


class BenchError(Exception):
    """The program could not be run; no result is reported."""


def _spawn(args, env):
    """Start a worker; return (process, seconds until it printed `ready`)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 60.0)
    line = proc.stdout.readline() if ready else b""
    setup = time.perf_counter() - t0
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise BenchError("worker did not start: bctlab failed to import")
    return proc, setup


def _wait(proc, deadline: float) -> None:
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the run's time limit") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "bctlab", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_requests(requests, passes, refs) -> list[list[str]]:
    """Problems per (pass, request); an empty list means the request passed."""
    problems = [[[] for _ in requests] for _ in passes]
    first = passes[0]["requests"]
    for p, run in enumerate(passes):
        for i, (req, res) in enumerate(zip(requests, run["requests"])):
            found = problems[p][i]
            if res["error"]:
                found.append(f"raised {res['error']}")
            elif res["code"] != req.exit_code:
                found.append(f"exit {res['code']}, expected {req.exit_code}")
            ref = refs.get(req.key)
            if ref and (ref["sha256"], ref["nbytes"], ref["exit"]) != (
                    res["sha256"], res["nbytes"], res["code"]):
                found.append("output or exit code differs from the stored reference")
            if res["sha256"] != first[i]["sha256"]:
                found.append("output differs from the first pass")
    for i, (req, res) in enumerate(zip(requests, first)):
        if req.sbox is None or res["error"] or res["code"] != req.exit_code:
            continue
        if req.keep:
            found = oracle.check_answer(req.argv, res["text"],
                                        os.path.join(ROOT, req.sbox["path"]),
                                        req.sbox["kind"])
        else:
            found = oracle.check_export(req.argv, os.path.join(ROOT, req.sbox["path"]),
                                        res["head"], res["tail"], res["newlines"])
        for run_problems in problems:  # a wrong answer is wrong in every pass
            run_problems[i].extend(found)
    return problems


def _mean_wall(passes) -> float:
    """The request list's time, averaged over the passes."""
    return sum(r["seconds"] for p in passes for r in p["requests"]) / len(passes)


def _layer_metrics(base, result, notes):
    """Per-layer metrics of the traced passes and their checks.

    Times are medians over the traced passes. Memory rises come from the
    first pass, the only one that starts below the process's peak. Work
    counts must be equal in every pass.
    """
    layers = result["layers"]
    values = {}
    ok = True
    for name, _, _ in tracer.PER_LAYER:
        series = [m[name] for m in layers]
        if name in tracer.EXACT:
            if len(set(series)) != 1:
                ok = False
                notes.append(f"{name} differs between passes: {series}")
            values[name] = series[0]
        elif name.endswith("_rss_rise_mb"):
            values[name] = series[0]
        elif not name.startswith("trace."):
            values[name] = statistics.median(series)
    values["trace.wall_s"] = _mean_wall(result["passes"])
    values["trace.overhead_s"] = values["trace.wall_s"] - _mean_wall(base["passes"])
    return values, ok


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(requests, workdir, trace: bool, seconds: float, env, deadline,
               setups: list, passes: int = 0) -> dict:
    """Run the request list in one fresh worker; append its set-up time.

    The worker repeats the list until `seconds` are used, or exactly
    `passes` times when that is given.
    """
    name = "traced" if trace else "untraced"
    plan_path = os.path.join(ROOT, workdir, f"plan-{name}.json")
    result_path = os.path.join(ROOT, workdir, f"result-{name}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({
            "requests": [
                {"argv": r.argv, "keep": r.keep, "strip_runtime": r.strip_runtime}
                for r in requests
            ],
            "seconds": seconds,
            "passes": passes,
            "trace": trace,
            "result_path": result_path,
        }, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    proc, setup = _spawn([plan_path], env)
    setups.append(setup)
    _wait(proc, deadline)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_source() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "bctlab", "cli.py")):
        raise BenchError(f"no bctlab source under {os.path.join(ROOT, 'src')}")


def run(args) -> dict:
    check_source()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    refs = _load_refs()
    workdir = os.path.join(".bench_work", f"{args.workload}-seed{args.seed}")
    requests = corpus.build_requests(args.workload, args.seed, ROOT, workdir)
    env = worker_env()

    setups = []
    if not args.trace:
        for _ in range(PROBES):
            proc, setup = _spawn(["--probe"], env)
            _wait(proc, deadline)
            setups.append(setup)

    def work(trace, seconds, passes=0):
        return run_worker(requests, workdir, trace, seconds, env, deadline, setups,
                          passes)

    if args.trace:
        # Two fresh processes, so the traced one's first pass sees its own
        # memory peaks; the untraced one, with as many passes, gives the
        # overhead's base.
        result = work(True, args.seconds / 2)
        base = work(False, 0.0, len(result["passes"]))
    else:
        base = result = work(False, args.seconds)

    passes = base["passes"] + result["passes"] if args.trace else result["passes"]
    problems = check_requests(requests, passes, refs["requests"])
    attempted = sum(len(p["requests"]) for p in passes)
    failed = sum(1 for run_problems in problems for found in run_problems if found)
    notes = [
        f"pass {p} {req.label}: {'; '.join(found)}"
        for p, run_problems in enumerate(problems)
        for req, found in zip(requests, run_problems) if found
    ]
    correct = failed == 0
    if args.trace:
        values, counts_ok = _layer_metrics(base, result, notes)
        correct = correct and counts_ok
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": _mean_wall(passes),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
    env_record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": result["versions"]["python"],
        "numpy": result["versions"]["numpy"],
        "cpu_count": os.cpu_count(),
        "ram_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "passes": len(passes),
        "requests_per_pass": len(requests),
        "references": sum(1 for r in requests if r.key in refs["requests"]),
        "setup_samples_s": setups,
        "run_s": time.monotonic() - start,
        "wrapped": result["installed"],
        "problems": notes,
    }
    with open(os.path.join(ROOT, workdir, f"record-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env_record, "values": values, "result": result}, fh)
    return {
        "env": env_record,
        "summary": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": out["env"]}))
    print(json.dumps(out["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
