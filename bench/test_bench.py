"""Tests of the benchmark's own helpers (not of bctlab)."""

import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import hashsink  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

from bctlab import SBox, bct_system, ddt, make_field  # noqa: E402


def _random_perm(n, seed):
    values = list(range(1 << n))
    random.Random(seed).shuffle(values)
    return SBox(make_field(n), values)


# -- hashing sink ------------------------------------------------------------------


def test_sink_hashes_streamed_text_like_the_whole():
    pieces = ["x" * (hashsink._SLICE + 17), "a,b\n" * 1000, "", "tail\n"]
    sink = hashsink.HashSink()
    for p in pieces:
        assert sink.write(p) == len(p)
    whole = "".join(pieces).encode()
    assert sink.finish() == hashlib.sha256(whole).hexdigest()
    assert sink.nbytes == len(whole)
    assert sink.newlines == whole.count(b"\n")
    assert sink.text is None
    assert sink.head == whole[: hashsink.HEAD_CHARS].decode()
    assert sink.tail == whole[-hashsink.TAIL_CHARS:].decode()


def test_sink_keeps_small_text_on_request():
    sink = hashsink.HashSink(keep=True)
    sink.write('{"schema": 1}\n')
    assert sink.finish() == hashlib.sha256(b'{"schema": 1}\n').hexdigest()
    assert sink.text == '{"schema": 1}\n'


def test_strip_runtime_drops_exactly_the_runtime_fields():
    reports = [
        {"claim_id": "a.n3", "expected": 4, "computed": 4, "status": "pass",
         "runtime_ms": 12.345},
        {"claim_id": "b.k10", "expected": -1, "computed": None,
         "status": "skipped(cost)", "runtime_ms": 0.0},
        {"claim_id": "c", "expected": 6, "computed": 6, "status": "pass",
         "runtime_ms": 1.5e-05},
    ]
    text = json.dumps(reports, indent=2) + "\n"
    without = [{k: v for k, v in r.items() if k != "runtime_ms"} for r in reports]
    assert hashsink.strip_runtime(text) == json.dumps(without, indent=2) + "\n"

    sink = hashsink.HashSink(strip_runtime=True)
    sink.write(text)
    other = json.dumps([dict(r, runtime_ms=999.25) for r in reports], indent=2) + "\n"
    sink2 = hashsink.HashSink(strip_runtime=True)
    sink2.write(other)
    assert sink.finish() == sink2.finish()
    assert sink.nbytes == len(json.dumps(without, indent=2)) + 1


# -- self time over thread spans -----------------------------------------------------


def _span(name, parent, start, end, rss0=0.0, rss1=0.0):
    s = tracer.Span(name, parent, start, rss0, end=end, rss1=rss1)
    if parent is not None:
        parent.children.append(s)
    return s


def test_union_length_merges_overlaps_and_clips():
    assert tracer.union_length([], 0, 10) == 0
    assert tracer.union_length([(1, 5), (3, 8), (9, 12)], 0, 10) == 8
    assert tracer.union_length([(2, 3), (2, 3), (0, 1)], 0, 10) == 2
    assert tracer.union_length([(-5, 2)], 0, 10) == 2


def test_self_time_counts_overlapping_thread_spans_once():
    root = _span("cli.main", None, 0.0, 10.0)
    a = _span("verify.claim", root, 1.0, 5.0)  # pool thread 1
    b = _span("verify.claim", root, 3.0, 8.0)  # pool thread 2, overlapping
    _span("tables.bct_fast", a, 2.0, 4.0)
    assert tracer.self_time(root) == pytest.approx(10.0 - 7.0)
    assert tracer.self_time(a) == pytest.approx(4.0 - 2.0)
    assert tracer.self_time(b) == pytest.approx(5.0)


def test_pool_thread_spans_attach_to_the_request_root():
    from concurrent.futures import ThreadPoolExecutor

    tr = tracer.Tracer()
    inner = tr.wrap("tables.ddt", lambda x: x + 1)
    outer = tr.wrap("verify.claim", lambda x: inner(x))
    root = tr.begin()
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(outer, range(4))) == [1, 2, 3, 4]
    spans = tr.end()
    assert spans[0] is root
    claims = [s for s in spans if s.name == "verify.claim"]
    assert len(claims) == 4 and all(s.parent is root for s in claims)
    ddts = [s for s in spans if s.name == "tables.ddt"]
    assert len(ddts) == 4 and all(s.parent.name == "verify.claim" for s in ddts)
    assert tracer.self_time(root) >= 0
    assert inner(1) == 2  # outside a request the wrapper only passes through


# -- work counts -------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pairs_counter_matches_brute_force_bucket_count(n):
    f = _random_perm(n, n)
    size = 1 << n
    buckets = {}
    for c, x in itertools.product(range(size), repeat=2):
        b = f[x] ^ f[x ^ c]
        buckets[c, b] = buckets.get((c, b), 0) + 1
    brute = sum(m * m for m in buckets.values())
    assert tracer.ddt_pairs(ddt, f) == brute
    assert int(bct_system(f).counts.sum()) == brute  # one BCT solution per pair


def test_oracle_matches_library_tables_on_small_inputs():
    f = _random_perm(5, 7)
    table = np.asarray(f.table)
    du, arg, squares = oracle.ddt_stats(table)
    d = ddt(f).counts
    assert du == int(d[1:].max())
    assert arg == (1 + int(np.argmax(d[1:])) // 32, int(np.argmax(d[1:])) % 32)
    assert squares == int((d.astype(np.int64) ** 2).sum())
    t = bct_system(f).counts
    for a, b in [(1, 1), (3, 17), (31, 30), (0, 5)]:
        assert oracle.bct_entry(table, a, b) == int(t[a, b])


def test_oracle_accepts_the_cli_answer_and_rejects_a_changed_one(tmp_path, capsys):
    from bctlab.cli import main

    f = _random_perm(6, 3)
    path = tmp_path / "f.sbox"
    path.write_text(corpus.sbox_text([int(v) for v in f.table], 6))
    for verb in (["uniformity"], ["moment", "--j", "1"]):
        assert main(verb + ["--file", str(path)]) == 0
        text = capsys.readouterr().out
        assert oracle.check_answer(verb, text, str(path), "perm") == []
        out = json.loads(text)
        key = "boomerang_uniformity" if verb[0] == "uniformity" else "direct"
        out[key] += 2
        assert oracle.check_answer(verb, json.dumps(out), str(path), "perm") != []


@pytest.mark.parametrize("verb", ["ddt", "bct", "walsh"])
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_export_check_recomputes_kept_rows(tmp_path, monkeypatch, verb, fmt):
    from bctlab.cli import main

    n = 9 if verb == "walsh" else 7
    f = _random_perm(n, 11)
    path = tmp_path / "f.sbox"
    path.write_text(corpus.sbox_text([int(v) for v in f.table], n))
    sink = hashsink.HashSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main([verb, "--file", str(path)] + fmt) == 0
    monkeypatch.undo()
    argv = [verb] + fmt
    assert oracle.check_export(argv, str(path), sink.head, sink.tail, sink.newlines) == []
    lines = sink.tail.split("\n")
    i = -4 if fmt else -2  # the last JSON value, or the last CSV row
    lines[i] = re.sub(r"-?\d+$", lambda m: str(int(m.group()) + 1), lines[i])
    bad_tail = "\n".join(lines)
    assert oracle.check_export(argv, str(path), sink.head, bad_tail, sink.newlines) != []


def test_traced_request_counts_repeat_exactly(tmp_path):
    """Install the tracer in a fresh interpreter and trace one CLI request."""
    script = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import bctlab, bctlab.cli, tracer, hashsink
tr = tracer.Tracer()
tr.install()
runs = []
for _ in range(2):
    sink = hashsink.HashSink()
    sys.stdout, real = sink, sys.stdout
    tr.begin()
    code = bctlab.cli.main(["uniformity", "--family", "gold n=5 i=1"])
    spans = tr.end()
    sys.stdout = real
    sink.finish()
    m = tracer.summarize([(spans, sink.nbytes)],
                         lambda f: tracer.ddt_pairs(bctlab.ddt, f))
    runs.append({k: m[k] for k in tracer.EXACT})
f = bctlab.gold(5, 1)
print(json.dumps({"code": code, "runs": runs,
                  "pairs": tracer.ddt_pairs(bctlab.ddt, f),
                  "wrapped": tr.installed}))
"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script, HERE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    first, second = got["runs"]
    assert got["code"] == 0 and first == second
    assert first["tables.bct_fast_calls"] == 1
    assert first["tables.ddt_calls"] == 1
    assert first["families.build_calls"] == 1
    assert first["tables.bct_fast_pairs"] == got["pairs"]
    assert "bctlab.gf2n.FieldSpec._tables" in got["wrapped"]


def test_seeded_inputs_repeat_and_stay_within_table_limits(tmp_path):
    a = corpus.build_requests("exports", 5, str(tmp_path), "a")
    b = corpus.build_requests("exports", 5, str(tmp_path), "b")
    c = corpus.build_requests("exports", 6, str(tmp_path), "c")
    assert [r.key for r in a] == [r.key for r in b]
    assert [r.key for r in a] != [r.key for r in c]
    for workload in corpus.WORKLOADS:
        for r in corpus.build_requests(workload, 1, str(tmp_path), workload):
            assert "--threads" not in r.argv and "--algo" not in r.argv
            if r.sbox:
                assert r.sbox["n"] <= corpus.MAX_TABLE_N
