"""Request lists of the three workloads and their seeded inputs.

A request is one `bctlab` command line. Generic S-boxes are drawn from
the workload seed with Python's `random` (stable across versions) and
written as `--file` inputs in the CLI text format; the program never
sees the seed. This module does not import bctlab.

No request passes `--threads` or `--algo`, and none builds a full table
at n >= 13 or a Walsh spectrum at n > 12: those exhaust an 8 GB machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("answers", "exports", "registry")
MAX_TABLE_N = 12  # full tables and spectra stop here

# Paper families, fixed inputs (argv after the verb, without the input).
_FAMILY_ANSWERS = [
    ("uniformity", "kasami n=12 i=5"),
    ("uniformity", "kasami n=7 i=3"),
    ("uniformity", "gold n=9 i=2"),
    ("uniformity", "welch k=4"),
    ("uniformity", "niho k=4"),
    ("uniformity", "dobbertin k=2"),
    ("uniformity", "modified_inverse n=9"),
    ("uniformity", "zieve_binomial q=32"),
    ("uniformity", "btt k=2 s=4"),
    ("certify --delta 4", "inverse n=10"),
    ("certify --delta 6", "modified_inverse n=8"),
    ("certify --delta 2", "kasami n=9 i=2"),
    ("certify --two-uniform", "gold n=5 i=1"),
    ("certify --two-uniform", "welch k=2"),
    ("certify --two-uniform", "kasami n=5 i=2"),
    ("certify --two-uniform", "bracken_leander k=1"),
    ("moment --j 1", "inverse n=10"),
    ("moment --j 1", "modified_inverse n=10"),
]

# Seeded generic inputs: (verb, kind, n); kind "perm" or "map".
_GENERIC_ANSWERS = [
    ("uniformity", "perm", 6),
    ("uniformity", "perm", 7),
    ("uniformity", "perm", 8),
    ("uniformity", "perm", 9),
    ("uniformity", "perm", 10),
    ("uniformity", "perm", 12),
    ("uniformity", "map", 10),
    ("certify --delta 6", "perm", 8),
    ("certify --delta 8", "perm", 9),
    ("moment --j 1", "perm", 10),
]

_GENERIC_EXPORTS = [
    ("ddt", "perm", 11),
    ("bct", "perm", 11),
    ("walsh", "perm", 10),
    ("ddt --json", "perm", 10),
    ("bct --json", "perm", 10),
    ("walsh --json", "perm", 9),
    ("bct", "perm", 9),
]


@dataclass
class Request:
    label: str
    argv: list[str]
    exit_code: int = 0
    keep: bool = False  # small output, kept for the benchmark's own checks
    strip_runtime: bool = False
    sbox: dict | None = None  # {"kind", "n", "path"} for seeded inputs
    key: str = ""  # identity of (argv, input bytes)


def _sbox_values(seed: int, tag: str, kind: str, n: int) -> list[int]:
    rng = random.Random(f"bctlab-bench:{seed}:{tag}")
    size = 1 << n
    if kind == "perm":
        values = list(range(size))
        rng.shuffle(values)
        return values
    if kind == "map":
        return [rng.randrange(size) for _ in range(size)]
    raise ValueError(f"unknown S-box kind {kind!r}")


def sbox_text(values: list[int], n: int) -> str:
    """The CLI's S-box file format: `n=<int>` then 16 values per line."""
    lines = [f"n={n}"]
    for i in range(0, len(values), 16):
        lines.append(" ".join(str(v) for v in values[i : i + 16]))
    return "\n".join(lines) + "\n"


def _request_key(argv: list[str], input_digest: str | None) -> str:
    ident = [input_digest if a == "{input}" else a for a in argv]
    return hashlib.sha256(json.dumps(ident).encode()).hexdigest()[:32]


def build_requests(workload: str, seed: int, root: str, workdir: str) -> list[Request]:
    """The workload's request list, writing seeded inputs under root/workdir.

    Input paths in argv are relative to root, where the worker runs.
    """
    os.makedirs(os.path.join(root, workdir), exist_ok=True)
    if workload == "registry":
        argv = ["reproduce", "--tier", "full"]
        # table4.k1 fails by design (published 4, true value 6): exit 1.
        return [
            Request("reproduce --tier full", argv, exit_code=1, keep=True,
                    strip_runtime=True, key=_request_key(argv, None))
        ]
    if workload == "answers":
        fixed, generic, keep = _FAMILY_ANSWERS, _GENERIC_ANSWERS, True
    elif workload == "exports":
        fixed, generic, keep = [], _GENERIC_EXPORTS, False
    else:
        raise ValueError(f"unknown workload {workload!r}")

    requests = []
    for verb, family in fixed:
        argv = verb.split() + ["--family", family]
        requests.append(Request(f"{verb} [{family}]", argv, keep=keep,
                                key=_request_key(argv, None)))
    for i, (verb, kind, n) in enumerate(generic):
        if n > MAX_TABLE_N:
            raise ValueError(f"request {verb} at n={n} exceeds n <= {MAX_TABLE_N}")
        tag = f"{workload}.{i}.{kind}.{n}"
        text = sbox_text(_sbox_values(seed, tag, kind, n), n)
        path = os.path.join(workdir, f"{tag}.sbox")
        with open(os.path.join(root, path), "w", encoding="ascii") as fh:
            fh.write(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        template = verb.split() + ["--file", "{input}"]
        argv = [path if a == "{input}" else a for a in template]
        requests.append(Request(
            f"{verb} [{kind} n={n}]", argv, keep=keep,
            sbox={"kind": kind, "n": n, "path": path},
            key=_request_key(template, digest),
        ))
    return requests
