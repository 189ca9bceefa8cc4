"""Command-line interface: verbs, formats, exit codes, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bctlab import (
    KTable,
    SBox,
    bct,
    cli,
    ddt,
    gold,
    identity_sbox,
    inverse_fn,
    ktable_to_csv,
    ktable_to_json,
    make_field,
    random_permutation,
    tables,
    walsh_spectrum,
    write_sbox,
)
from bctlab.cli import main

from conftest import walsh_cells


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bct_family_json(capsys):
    code, out, _ = run_cli(capsys, "bct", "--family", "kasami n=6 i=2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["max_nonzero"] == 4
    assert payload["kind"] == "BCT"
    assert len(payload["counts"]) == 64 * 64


def test_uniformity_on_identity_file(tmp_path, capsys):
    path = tmp_path / "id16.sbx"
    write_sbox(identity_sbox(make_field(4)), str(path))
    code, out, _ = run_cli(capsys, "uniformity", "--file", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["differential_uniformity"] == 16
    assert payload["boomerang_uniformity"] == 16
    assert payload["field"] == "4:13"


def test_bct_algorithms_byte_identical(tmp_path, capsys):
    fam = ["--family", "modified_inverse n=4"]
    outputs, payloads = [], {"bct": [], "uniformity": []}
    for algo in ("naive", "system", "fast"):
        code, out, _ = run_cli(capsys, "bct", *fam, "--algo", algo)
        assert code == 0
        outputs.append(out)
        # JSON differs across algorithms only in its "algorithm" field
        for argv in (["bct", *fam, "--json"], ["uniformity", *fam]):
            code, out, _ = run_cli(capsys, *argv, "--algo", algo)
            assert code == 0
            payload = json.loads(out)
            assert payload.pop("algorithm") == algo
            payloads[argv[0]].append(payload)
    assert outputs[0] == outputs[1] == outputs[2]
    for same in payloads.values():
        assert same[0] == same[1] == same[2]


def test_threads_option_exits_2(capsys):
    code, out, err = run_cli(capsys, "ddt", "--family", "gold n=5 i=1", "--threads", "4")
    assert code == 2
    assert out == ""
    assert "--threads" in err
    fam = ["--family", "gold n=3 i=1"]
    for argv in (
        ["bct", *fam],
        ["uniformity", *fam],
        ["walsh", *fam],
        ["moment", *fam],
        ["certify", *fam, "--two-uniform"],
        ["family", *fam],
        ["reproduce", "--tier", "fast"],
    ):
        assert run_cli(capsys, *argv, "--threads", "1")[0] == 2


def test_json_option_only_on_table_verbs(capsys):
    fam = ["--family", "gold n=3 i=1"]
    for argv in (
        ["uniformity", *fam],
        ["moment", *fam],
        ["certify", *fam, "--two-uniform"],
        ["family", *fam],
    ):
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 2
        assert out == ""
        assert "--json" in err


def test_count_overflow_exits_2(capsys, monkeypatch):
    # --json builds the table (CSV streams its rows and builds none)
    def overflowing_ddt(f):
        return KTable(f.spec, "DDT", np.full((f.spec.size,) * 2, 2**32), "ddt")

    monkeypatch.setattr(cli, "ddt", overflowing_ddt)
    code, out, err = run_cli(capsys, "ddt", "--family", "gold n=3 i=1", "--json")
    assert code == 2
    assert out == ""
    assert "exceeds the int32 maximum" in err


def test_table_over_memory_budget_exits_2(capsys, monkeypatch):
    # uniformity reads a power map past this budget off row 1 instead (see
    # test_uniformity_of_a_power_map_past_the_tables_reach); --json builds
    # the table, and CSV, which streams its rows, builds none
    monkeypatch.setattr(tables, "_memory_budget", lambda: 1024)
    code, out, err = run_cli(capsys, "bct", "--family", "gold n=3 i=1", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bct_fast at n = 3 needs about ")
    assert "physical memory is 1024 bytes" in err


def test_uniformity_of_a_power_map_past_the_tables_reach(capsys, monkeypatch):
    # no table fits, so the inverse map is one orbit read off row 1
    monkeypatch.setattr(tables, "_memory_budget", lambda: 0)
    code, out, _ = run_cli(capsys, "uniformity", "--family", "inverse n=16")
    assert code == 0
    payload = json.loads(out)
    assert (payload["boomerang_uniformity"], payload["differential_uniformity"]) == (6, 4)


def test_ddt_over_memory_budget_exits_2(capsys, monkeypatch):
    # bct_system's preflight passes just below ddt's estimate, so uniformity
    # reaches ddt's; ddt --json builds the table (CSV streams its rows)
    assert tables._oracle_peak_bytes(3) < tables._ddt_peak_bytes(3) - 1
    for argv, budget in ((["ddt", "--json"], 512),
                         (["uniformity", "--algo", "system"], tables._ddt_peak_bytes(3) - 1)):
        monkeypatch.setattr(tables, "_memory_budget", lambda: budget)
        code, out, err = run_cli(capsys, *argv, "--family", "gold n=3 i=1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ddt at n = 3 needs about ")
        assert f"physical memory is {budget} bytes" in err


@pytest.mark.parametrize("verb", ["bct", "uniformity"])
@pytest.mark.parametrize("algo", ["naive", "system"])
def test_oracle_over_memory_budget_exits_2(tmp_path, capsys, monkeypatch, verb, algo):
    need = tables._oracle_peak_bytes(5)
    monkeypatch.setattr(tables, "_memory_budget", lambda: need - 1)
    path = tmp_path / "out"
    code, out, err = run_cli(capsys, verb, "--algo", algo, "--family", "gold n=5 i=1",
                             "--out", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: bct_{algo} at n = 5 needs about {need} bytes; "
                   f"physical memory is {need - 1} bytes\n")
    assert not path.exists()


def test_out_file_is_not_created_when_the_request_fails(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ddt.csv"
    monkeypatch.setattr(tables, "_memory_budget", lambda: 512)
    code, out, err = run_cli(capsys, "ddt", "--family", "gold n=3 i=1", "--json",
                             "--out", str(path))
    assert code == 2 and out == "" and err.startswith("error: ddt at n = 3 needs about ")
    assert not path.exists()
    monkeypatch.undo()

    def failing_chunks(corner, shape, blocks):  # fails while the first chunk is built
        raise ValueError("no chunk")
        yield

    monkeypatch.setattr(cli, "_csv_chunks", failing_chunks)
    code, out, err = run_cli(capsys, "ddt", "--family", "gold n=3 i=1", "--out", str(path))
    assert code == 2 and out == "" and err == "error: no chunk\n"
    assert not path.exists()


def _table_texts(f, verb, fmt):
    """The export as ktable_to_csv or json.dumps(indent=2) of its plain lists writes it."""
    if verb == "walsh":
        values = walsh_spectrum(f).values
        if not fmt:
            return "".join(tables._csv_chunks("u\\v", values.shape, tables._blocks_of(values)))
        payload = {"schema": 1, "n": f.spec.n, "field": f.spec.label(),
                   "values": values.ravel().tolist()}
        return json.dumps(payload, indent=2) + "\n"
    t = ddt(f) if verb == "ddt" else bct(f)
    if not fmt:
        return ktable_to_csv(t)
    return json.dumps({"schema": 1, "field": f.spec.label(), **ktable_to_json(t)}, indent=2) + "\n"


@pytest.mark.parametrize("verb", ["ddt", "bct", "walsh"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
def test_exports_are_byte_identical_across_chunk_boundaries(tmp_path, capsys, monkeypatch, rng,
                                                            verb, fmt):
    spec = make_field(6)
    f = SBox(spec, rng.integers(0, spec.size, spec.size))
    path = tmp_path / "f.sbox"
    write_sbox(f, str(path))
    argv = [verb, "--file", str(path), *fmt]
    expected = _table_texts(f, verb, fmt)
    code, whole, _ = run_cli(capsys, *argv)
    assert code == 0 and whole == expected
    assert len(expected) < tables._CHUNK  # one chunk at the default size
    monkeypatch.setattr(tables, "_CHUNK", 1)  # every piece its own chunk
    writes = []
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
        assert main(argv) == 0
    assert "".join(writes) == expected
    # one write per chunk: a CSV has the header and one piece per row
    assert len(writes) == spec.size + 1 if not fmt else len(writes) > spec.size
    code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "out.txt"))
    assert code == 0 and out == ""
    assert (tmp_path / "out.txt").read_text(encoding="ascii") == expected


def test_ddt_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "ddt", "--family", "gold n=3 i=1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("a\\b,0,1,")
    assert len(lines) == 9


def test_family_emit_and_reimport(tmp_path, capsys):
    path = tmp_path / "fam.sbx"
    code, _, _ = run_cli(
        capsys, "family", "--family", "kasami n=6 i=2", "--out", str(path)
    )
    assert code == 0
    code, out1, _ = run_cli(capsys, "uniformity", "--file", str(path))
    code2, out2, _ = run_cli(capsys, "uniformity", "--family", "kasami n=6 i=2")
    assert code == code2 == 0
    assert out1 == out2


def test_field_override(capsys):
    code, out, _ = run_cli(
        capsys, "uniformity", "--family", "inverse n=4", "--field", "4:19"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["field"] == "4:19"
    assert payload["differential_uniformity"] == 4


def test_walsh_json(capsys):
    code, out, _ = run_cli(capsys, "walsh", "--family", "gold n=3 i=1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"][0] == 8  # W(0, 0) = 2^n
    assert len(payload["values"]) == 64


def test_moment_verb(capsys):
    code, out, _ = run_cli(capsys, "moment", "--family", "gold n=5 i=1", "--j", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["direct"] == payload["walsh"]
    assert payload["j"] == 1


def test_certify_delta(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--family", "modified_inverse n=4", "--delta", "6"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["is_zero"] is True
    assert payload["value_numerator"] == 0
    code, out, _ = run_cli(
        capsys, "certify", "--family", "modified_inverse n=4", "--delta", "4"
    )
    payload = json.loads(out)
    assert payload["is_zero"] is False
    assert payload["value_numerator"] > 0


def test_certify_two_uniform(capsys):
    code, out, _ = run_cli(capsys, "certify", "--family", "gold n=5 i=1", "--two-uniform")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_two_uniform"] is True and payload["gap"] == 0


def test_certify_two_uniform_refuses_non_permutation(tmp_path, capsys):
    path = tmp_path / "np3.sbx"
    path.write_text("n=3\n0 6 0 4 0 2 3 3\n")
    code, out, err = run_cli(capsys, "certify", "--file", str(path), "--two-uniform")
    assert code == 2 and out == ""
    assert "permutation" in err


def test_moment_refuses_non_permutation(tmp_path, capsys):
    path = tmp_path / "np3.sbx"
    path.write_text("n=3\n0 6 0 4 0 2 3 3\n")
    for j in ("1", "2"):
        code, out, err = run_cli(capsys, "moment", "--file", str(path), "--j", j)
        assert code == 2 and out == ""
        assert "permutation" in err


def test_moment_refuses_past_the_spectrum_cap_before_the_table(monkeypatch, capsys):
    # n = 13 is past S_2's cost cap, so j = 2 is refused, and the refusal
    # must come before any BCT row is counted; S_1 is a row sum, which
    # refuses no n, so j = 1 is served
    def no_rows(f):
        raise AssertionError("BCT rows were counted")

    monkeypatch.setattr("bctlab.walsh._orbit_rows", no_rows)
    code, out, err = run_cli(capsys, "moment", "--family", "inverse n=13", "--j", "2")
    assert code == 2 and out == ""
    assert "capped at n <=" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "moment", "--family", "inverse n=13", "--j", "1")
    assert code == 0 and json.loads(out)["equal"] is True


def test_certify_delta_above_field_size_exits_2(capsys):
    fam = ["--family", "gold n=5 i=1"]
    code, out, err = run_cli(capsys, "certify", *fam, "--delta", "34")
    assert code == 2 and out == ""
    assert "at most 2^n = 32" in err
    code, out, _ = run_cli(capsys, "certify", *fam, "--delta", "32")
    assert code == 0 and json.loads(out)["is_zero"] is True


def test_certify_delta_of_a_non_permutation_is_bounded_by_4_to_the_n(tmp_path, capsys):
    # any map's counts are at most BCT(0, 0) <= 4^n; this one's are 0 and 32
    path = tmp_path / "two.sbx"
    path.write_text("n=3\n0 0 0 0 1 1 1 1\n")
    code, out, _ = run_cli(capsys, "certify", "--file", str(path), "--delta", "32")
    assert code == 0 and json.loads(out)["is_zero"] is True
    code, out, err = run_cli(capsys, "certify", "--file", str(path), "--delta", "66")
    assert code == 2 and out == ""
    assert "at most 4^n = 64" in err


def test_reproduce_claims(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--claim", "thm9.n4", "--claim", "example.n3")
    assert code == 0
    reports = json.loads(out)
    assert [r["claim_id"] for r in reports] == ["thm9.n4", "example.n3"]
    assert all(r["status"] == "pass" for r in reports)


def test_reproduce_failure_exit_code(capsys):
    # the known-defective published cell (see decisions ledger) exits 1
    code, out, _ = run_cli(capsys, "reproduce", "--claim", "table4.k1")
    assert code == 1
    assert json.loads(out)[0]["status"] == "fail"


def test_reproduce_audit(capsys):
    code, out, _ = run_cli(
        capsys, "reproduce", "--claim", "thm9.n3", "--audit", "6"
    )
    assert code == 0
    ids = [r["claim_id"] for r in json.loads(out)]
    assert ids == ["thm9.n3", "appendix.n6.case1", "appendix.n6.case2", "appendix.n6.case3"]


def test_reproduce_refuses_the_audit_before_any_claim(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "reproduce", lambda *args: ran.append(args))
    monkeypatch.setattr(cli, "reproduce_all", lambda *args: ran.append(args))
    for argv in (["--tier", "full"], ["--claim", "thm9.n3"]):
        code, out, err = run_cli(capsys, "reproduce", *argv, "--audit", "17")
        assert code == 2 and out == "" and "17" in err
        assert ran == []


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process: a verb prints what it prints
    # alone whatever verb ran before it (bct sets --algo system and --json,
    # uniformity must still report the default "fast"), and a usage error
    # exits 2 on every call
    fam = ["--family", "gold n=3 i=1"]
    first, second = ["bct", *fam, "--algo", "system", "--json"], ["uniformity", *fam]
    alone = []
    for argv in (first, second):
        cli._build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    assert json.loads(alone[1][1])["algorithm"] == "fast"
    assert [run_cli(capsys, *first), run_cli(capsys, *second)] == alone
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        code, out, err = run_cli(capsys, *second, "--json")
        assert code == 2 and out == "" and "--json" in err


def test_usage_errors(tmp_path, capsys):
    # unknown verb
    assert run_cli(capsys, "frobnicate")[0] == 2
    # no input source
    assert run_cli(capsys, "ddt")[0] == 2
    # both input sources
    path = tmp_path / "x.sbx"
    write_sbox(identity_sbox(make_field(3)), str(path))
    assert run_cli(capsys, "ddt", "--file", str(path), "--family", "gold n=3 i=1")[0] == 2
    # malformed family
    assert run_cli(capsys, "ddt", "--family", "gold n=3")[0] == 2
    # malformed file
    bad = tmp_path / "bad.sbx"
    bad.write_text("n=3\n1 2 3\n")
    assert run_cli(capsys, "ddt", "--file", str(bad))[0] == 2
    # missing file
    assert run_cli(capsys, "ddt", "--file", str(tmp_path / "nope.sbx"))[0] == 2
    # bad field label
    assert run_cli(capsys, "ddt", "--family", "gold n=4 i=1", "--field", "4:15")[0] == 2


def _child_env():
    """The environment of a child interpreter that imports this bctlab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


@pytest.mark.parametrize("family", [
    "btt k=2 s=4 alpha=-1",
    "zieve_binomial q=8 gamma=-1",
    "zieve_binomial_inverse q=8 gamma=-3",
    "zieve_binomial q=8 gamma=64",
])
def test_parameters_outside_the_field_exit_2(tmp_path, family):
    # the negative ones never returned (scalar mul shifted a negative factor
    # right forever) and gamma=64 raised IndexError; run in a child with a
    # timeout, so a hang fails this test instead of stalling the suite
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bctlab", "uniformity", "--family", family, "--out", str(out)],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert "field element" in proc.stderr and not out.exists()


@pytest.mark.parametrize("argv", [
    ["ddt", "--family", "gold n=5 i=1"],
    ["ddt", "--family", "gold n=11 i=1"],
    ["bct", "--json", "--family", "gold n=7 i=1"],
])
def test_a_reader_that_goes_away_ends_the_output_quietly(argv):
    # stdout is a pipe whose read end is closed, as when head has its
    # bytes: exit 1 with nothing on stderr, not exit 2 as if refused; a
    # short text fails at the flush, a long one in a write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "bctlab", *argv], env=_child_env(),
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1 and proc.stderr == b"", argv


_COLD_WARM_SCRIPT = r"""
import contextlib, io, json, re, sys
from bctlab import cli
from bctlab.gf2n import FieldSpec

tables, calls = FieldSpec._tables, []

def counted(self):
    calls.append(1)
    return tables(self)

FieldSpec._tables = counted
runs = []
for argv in json.loads(sys.argv[1]):
    for _ in range(2):
        calls.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = re.sub(r'"runtime_ms": [^,}]*', '"runtime_ms": 0', out.getvalue())
        runs.append([argv, code, len(calls), text])
print(json.dumps(runs))
"""


def test_cold_and_warm_requests_do_the_same_work():
    # the fields and their orbits are built once per process: a second,
    # warm request must call FieldSpec._tables as often as the first (the
    # benchmark's traced runs require each pass to repeat its counts
    # exactly) and print the same bytes; reproduce's runtime_ms is wall time
    requests = [
        ["reproduce", "--tier", "full"],
        ["uniformity", "--family", "modified_inverse n=9"],
        ["uniformity", "--family", "kasami n=7 i=3"],
        ["certify", "--delta", "4", "--family", "inverse n=10"],
        ["moment", "--j", "1", "--family", "inverse n=10"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_WARM_SCRIPT, json.dumps(requests)],
        env=_child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert len(runs) == 2 * len(requests)
    for cold, warm in zip(runs[::2], runs[1::2]):
        assert cold == warm, cold[0]
        assert cold[1] in (0, 1) and cold[2] > 0 and cold[3], cold[0]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys, "ddt", "--family", "gold n=3 i=1", "--out", str(path)
    )
    assert code == 0 and out == ""
    code2, out2, _ = run_cli(capsys, "ddt", "--family", "gold n=3 i=1")
    assert path.read_text() == out2


def test_reproduce_unknown_claim_exits_2(capsys):
    code, _, err = run_cli(capsys, "reproduce", "--claim", "table9.k1")
    assert code == 2
    assert "unknown claim" in err


def test_certify_odd_delta_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "certify", "--family", "gold n=4 i=1", "--delta", "5"
    )
    assert code == 2
    assert "even" in err


def test_walsh_cap_exits_2(monkeypatch, capsys):
    # the spectrum's rows are a stream, which refuses no n, so n = 13 is
    # served. The request's chunks are taken unwritten, so its 4^13 cells
    # are never written: the header and the first block of rows equal the
    # literal sums
    results = []
    monkeypatch.setattr(cli, "_write", lambda result, out: results.append(result))
    assert run_cli(capsys, "walsh", "--family", "inverse n=13") == (0, "", "")
    (chunks,) = results
    N = 1 << 13
    assert next(chunks) == "u\\v," + ",".join(map(str, range(N))) + "\n"
    block = np.array([line.split(",") for line in next(chunks).splitlines()], dtype=np.int64)
    us = np.arange(len(block))
    assert len(block) and np.array_equal(block[:, 0], us)
    f = inverse_fn(13)
    for v0 in range(0, N, 512):
        assert np.array_equal(block[:, 1 + v0 : 513 + v0], walsh_cells(f, us, range(v0, v0 + 512)))


# SHA-256 of stdout for one small input per verb and format. `reproduce`
# output has its wall-clock `runtime_ms` fields removed before hashing.
_STDOUT_SHA256 = [
    (("ddt", "--family", "gold n=5 i=1"),
     "f1bb4bd6b01022ccb1e9f9a7387d179f064b0faf28662c56f2a7b7b32e09b4f8"),
    (("bct", "--family", "modified_inverse n=4"),
     "47680da51d570393b9a8a12594ac31966ec411431d0cad75316fbce87ca7dfc1"),
    (("bct", "--family", "kasami n=5 i=2", "--json"),
     "b387730333a153b82e5fa35b822a736d88312f6758bef957526c7690e953de80"),
    (("uniformity", "--family", "inverse n=4"),
     "7c346820b359a0ffc9cbe9b53b5114240d524bef609fe3ea3bdeaa349a227571"),
    (("walsh", "--family", "gold n=3 i=1"),
     "ded174db393b622589ba24c5a8a228f9759896857ab84e0f4c435e64adda0fa2"),
    (("walsh", "--family", "gold n=4 i=1", "--json"),
     "dd33cd897accb73394dcb5edf970248f9792e37ce4c8f6af5f2f234ca7d7ac13"),
    (("moment", "--family", "gold n=5 i=1", "--j", "1"),
     "2a76508b8bcd2dcd785948d43e57387d7f60141b06fb78a52bd188e027bd47bb"),
    (("certify", "--family", "modified_inverse n=4", "--delta", "6"),
     "1389733f907e03e7ff4043efa58f32517bd1855a2c4c95b56200b701873b43b7"),
    (("certify", "--family", "gold n=5 i=1", "--two-uniform"),
     "288d24fb47bbc4218e331dc45f41ffaa3d0b23333a26c40878ff3e57b6fa002d"),
    (("family", "--family", "kasami n=5 i=2"),
     "8f79f26d1f43096655c6b1f3271ae2b63d6f33ded37bedc24749c9d145a3a744"),
    (("reproduce", "--claim", "thm9.n4"),
     "e896ba53557a70d881ca7f49a20c55b821ecc44992faae1bea1ed45d8f55c329"),
]


@pytest.mark.parametrize(
    "argv,digest", _STDOUT_SHA256, ids=[" ".join(argv) for argv, _ in _STDOUT_SHA256]
)
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    out = re.sub(r',\n[ ]*"runtime_ms": -?[0-9][0-9.eE+-]*', "", out)
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_walsh_csv_matches_spectrum_and_json(capsys):
    fam = ["--family", "gold n=3 i=1"]
    code, out, _ = run_cli(capsys, "walsh", *fam)
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "u\\v," + ",".join(str(v) for v in range(8))
    values = walsh_spectrum(gold(3, 1)).values
    rows = [[int(x) for x in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == list(range(8))
    assert [r[1:] for r in rows] == values.tolist()
    assert min(min(r[1:]) for r in rows) < 0
    code, out, _ = run_cli(capsys, "walsh", *fam, "--json")
    assert code == 0
    assert json.loads(out)["values"] == [x for r in rows for x in r[1:]]


def _as_lists(payload):
    """The payload as json.dumps sees it: every ndarray as its row-major list."""
    if isinstance(payload, dict):
        return {k: _as_lists(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_as_lists(v) for v in payload]
    if isinstance(payload, np.ndarray):
        return payload.ravel().tolist()
    return payload


def _as_sources(payload):
    """The payload as the writer takes it: every ndarray field as its row source."""
    if not isinstance(payload, dict):
        return payload
    return {k: tables._blocks_of(v) if isinstance(v, np.ndarray) else v
            for k, v in payload.items()}


_WRITER_PAYLOADS = {
    "1-d": {"schema": 1, "values": np.arange(-3, 9)},
    "2-d negatives": {"n": 2, "values": np.array([[4, -4], [0, -2]], dtype=np.int32)},
    "empty arrays": {"a": np.zeros(0, dtype=np.int32), "b": np.zeros((0, 3), dtype=np.int64)},
    "one cell": {"a": np.array([[7]]), "b": np.array([-1])},
    "wide span": {"counts": np.array([[0, 10**6], [-5, 3]], dtype=np.int64)},
    "nested": {
        "schema": 1,
        "table": np.arange(6, dtype=np.int32).reshape(2, 3),
        "report": {"witness": [1, [2, 3]], "ok": True, "none": None, "empty": {}},
        "list": [],
        "text": "a\nb \"q\"",
        "ratio": 0.5,
    },
    "empty dict": {},
    "list payload": [{"claim_id": "thm9.n4", "computed": 6}, True, None, "x\ny"],
}


@pytest.mark.parametrize("payload", _WRITER_PAYLOADS.values(), ids=_WRITER_PAYLOADS.keys())
def test_json_writer_matches_json_dumps(capsys, tmp_path, payload):
    expected = json.dumps(_as_lists(payload), indent=2) + "\n"
    cli._write(_as_sources(payload), None)
    assert capsys.readouterr().out == expected
    path = tmp_path / "out.json"
    cli._write(_as_sources(payload), str(path))
    assert path.read_text(encoding="ascii") == expected


def test_json_writer_matches_json_dumps_in_one_character_chunks(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_CHUNK", 1)
    for payload in _WRITER_PAYLOADS.values():
        expected = json.dumps(_as_lists(payload), indent=2) + "\n"
        cli._write(_as_sources(payload), None)
        assert capsys.readouterr().out == expected
        path = tmp_path / "out.json"
        cli._write(_as_sources(payload), str(path))
        assert path.read_text(encoding="ascii") == expected


# Peak RSS rise of one request in a fresh interpreter, after a small request
# of the same verb has loaded every code path. The peak is VmHWM, in kB: a
# child's ru_maxrss starts at its parent's peak across exec, so it would
# read the test runner's memory, not the request's.
_RISE_SCRIPT = r"""
import sys
from bctlab.cli import main

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

verb, small, big, out, *extra = sys.argv[1:]
assert main([verb, "--file", small, "--out", out, *extra]) == 0
before = peak()
assert main([verb, "--file", big, "--out", out, *extra]) == 0
print((peak() - before) * 1024)
"""


def _rss_rise(tmp_path, verb, n, *extra):
    rng = np.random.default_rng(n)
    paths = []
    for m in (6, n):
        paths.append(str(tmp_path / f"perm{m}.sbox"))
        write_sbox(random_permutation(make_field(m), rng), paths[-1])
    proc = subprocess.run(
        [sys.executable, "-c", _RISE_SCRIPT, verb, *paths, str(tmp_path / "out"), *extra],
        env=_child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_streamed_requests_stay_below_their_tables(tmp_path):
    # generic uniformity streams its rows: the GF(2^12) BCT alone is 64 MiB
    # (through the table it rose about 73 MiB, streamed about 10 MiB)
    assert _rss_rise(tmp_path, "uniformity", 12) < 4 * 4**12
    # ddt --json holds its 4 MiB table and writes 7 MiB of text a block of
    # rows at a time; each block's piece ids and gathered pieces take about
    # _CHUNK bytes, and one block is built and written before the next.
    # Built whole, the text rose about 32 MiB; streamed, about 5.7 MiB
    assert _rss_rise(tmp_path, "ddt", 10, "--json") < 4 * 4**10 + 4 * tables._CHUNK
    # past the oracles' reach the reducers still hold one block of rows: at
    # n = 13 they stay below the kernel term of _fast_peak_bytes (about 9
    # and 11 MiB measured), where the BCT alone would be 256 MiB
    for verb, *extra in (["uniformity"], ["certify", "--delta", "8"]):
        assert _rss_rise(tmp_path, verb, 13, *extra) < 160 * tables._BLOCK


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
@pytest.mark.parametrize("argv", ["ddt", "bct", "walsh", "walsh --json", "moment --j 1"])
def test_csv_exports_hold_no_table(tmp_path, argv):
    # CSV, walsh --json and the spectrum sum of moment --j 1 read the table's
    # row source a block at a time, so the rise stays under 4^n bytes, a
    # quarter of the int32 table. Through the table, n = 12 rose about 66,
    # 70 and 129 MiB for the CSVs, 66 MiB for walsh --json and 256 MiB for
    # moment; streamed, 2-10 MiB
    verb, *extra = argv.split()
    assert _rss_rise(tmp_path, verb, 12, *extra) < 4**12


@pytest.mark.parametrize("algo", ["naive", "system"])
def test_oracles_refuse_n_13_before_any_work(tmp_path, capsys, algo):
    # O(2^3n): n = 13 passes the memory preflight but would run about half an hour
    path = tmp_path / "out"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bct", "--algo", algo, "--family", "inverse n=13",
                             "--out", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith(f"error: bct_{algo} costs O(2^3n) steps") and "n <= 12" in err


def test_budget_30_skips_only_the_out_of_reach_claim(capsys):
    # the skip reads the registry estimates only, so this does not depend on
    # the speed of the machine
    code, out, _ = run_cli(capsys, "reproduce", "--tier", "full", "--budget", "30")
    assert code == 1  # table4.k1 fails by design
    skipped = [r["claim_id"] for r in json.loads(out) if r["status"] == "skipped(cost)"]
    assert skipped == ["btt.k10"]


def test_budget_must_be_a_non_negative_number(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--claim", "btt.k10", "--budget", "inf")
    assert code == 0
    assert json.loads(out)[0]["status"] == "skipped(cost)"
    for budget in ("nan", "-1"):
        code, out, err = run_cli(capsys, "reproduce", "--claim", "btt.k10", f"--budget={budget}")
        assert code == 2 and out == "" and "budget" in err
