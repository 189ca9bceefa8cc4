"""Command-line interface: verbs, formats, exit codes, determinism."""

import json

import pytest

from bctlab import identity_sbox, make_field, write_sbox
from bctlab.cli import main


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
    args = ["bct", "--family", "modified_inverse n=4"]
    outputs = []
    for algo in ("naive", "system", "fast"):
        code, out, _ = run_cli(capsys, *args, "--algo", algo)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


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


def test_walsh_cap_exits_2(tmp_path, capsys):
    # a 2^13 input exceeds the spectrum cap and reports an input error
    from bctlab import identity_sbox, make_field, write_sbox

    path = tmp_path / "big.sbx"
    write_sbox(identity_sbox(make_field(13)), str(path))
    code, _, err = run_cli(capsys, "walsh", "--file", str(path))
    assert code == 2
    assert "capped" in err
