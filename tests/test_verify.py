"""Claim registry, reproduction reports, and the per-case audit."""

import math

import pytest

from bctlab import (
    appendix_case_audit,
    bct_fast,
    claim_ids,
    find_omega,
    make_field,
    modified_inverse,
    modified_inverse_expected_delta,
    reproduce,
    reproduce_all,
)


def test_expected_delta_formula():
    assert [modified_inverse_expected_delta(n) for n in range(3, 13)] == [
        8, 6, 6, 10, 6, 6, 8, 6, 6, 10,
    ]


def test_reproduce_single_claims():
    r = reproduce("table4.k1")
    assert r.expected == 4
    # the published cell is a typo (it is the DDT uniformity); the harness
    # honestly reports the computed BCT value 6 and flags the claim, see
    # the decisions ledger
    assert r.computed == 6
    assert r.status == "fail"

    r = reproduce("thm9.n5")
    assert r.expected == 6 and r.computed == 6 and r.status == "pass"
    r = reproduce("example.n8")
    assert r.expected == 6 and r.computed == 6 and r.status == "pass"
    r = reproduce("table3.k3.i2")
    assert r.expected == 4 and r.status == "pass"


def test_reproduce_unknown_claim():
    with pytest.raises(ValueError):
        reproduce("table9.k9")


def test_tier_listing():
    fast = claim_ids("fast")
    full = claim_ids("full")
    assert set(fast) <= set(full)
    assert "table3.k7.i4" in full and "table3.k7.i4" not in fast
    assert "table4.k3" in full and "table4.k3" not in fast
    assert "thm9.n12" in full and "thm9.n12" not in fast
    assert "btt.k10" in full
    assert "thm10.q32" in fast  # n = 10 stays in the fast tier
    with pytest.raises(ValueError):
        claim_ids("medium")
    with pytest.raises(ValueError):
        reproduce_all("medium")


def test_budget_skips_costly_claims():
    r = reproduce("table3.k5.i2", budget_seconds=1e-6)
    assert r.status == "skipped(cost)"
    assert r.computed is None
    # the GF(2^30) entry is out of reach no matter the budget
    for budget in (1e12, math.inf):
        r = reproduce("btt.k10", budget_seconds=budget)
        assert r.status == "skipped(cost)" and r.computed is None
    for budget in (math.nan, -1.0):
        with pytest.raises(ValueError, match="budget"):
            reproduce("table3.k3.i2", budget_seconds=budget)


def test_fast_tier_full_run():
    reports = reproduce_all("fast")
    assert [r.claim_id for r in reports] == claim_ids("fast")
    failures = {r.claim_id for r in reports if r.status == "fail"}
    skipped = {r.claim_id for r in reports if r.status == "skipped(cost)"}
    assert not skipped
    # exactly the one known-defective published cell fails (decisions ledger)
    assert failures == {"table4.k1"}
    for r in reports:
        if r.status == "pass":
            assert r.expected == r.computed


def test_reports_are_stable():
    a = reproduce("example.n4")
    b = reproduce("example.n4")
    assert (a.claim_id, a.expected, a.computed, a.status) == (
        b.claim_id,
        b.expected,
        b.computed,
        b.status,
    )
    payload = a.to_json()
    assert set(payload) == {"claim_id", "expected", "computed", "status", "runtime_ms"}


def test_appendix_case_audit_values():
    byid = {r.claim_id: r for r in appendix_case_audit(6)}
    assert byid["appendix.n6.case1"].computed == 4
    assert byid["appendix.n6.case2"].computed == 4
    assert byid["appendix.n6.case3"].computed == 10
    assert all(r.status == "pass" for r in byid.values())

    reports7 = appendix_case_audit(7)
    assert [r.claim_id for r in reports7] == ["appendix.n7.case1", "appendix.n7.case3"]
    assert reports7[0].computed == 2
    assert reports7[1].computed == 6

    byid8 = {r.claim_id: r for r in appendix_case_audit(8)}
    assert byid8["appendix.n8.case1"].computed == 6
    assert byid8["appendix.n8.case2"].computed == 6
    assert byid8["appendix.n8.case3"].computed == 6


def _audit_from_full_table(n):
    # the per-class maxima read off the whole BCT
    spec = make_field(n)
    counts = bct_fast(modified_inverse(n, spec)).counts
    omegas = []
    if n % 2 == 0:
        w = find_omega(spec)
        omegas = [w, spec.mul(w, w)]
    classes = {1: [1], 2: omegas, 3: [a for a in range(2, spec.size) if a not in omegas]}
    return {c: int(counts[rows, 1:].max()) for c, rows in classes.items() if rows}


@pytest.mark.parametrize("n", range(3, 11))
def test_appendix_case_audit_equals_the_full_table(n):
    reports = appendix_case_audit(n)
    expected = _audit_from_full_table(n)
    assert [r.claim_id for r in reports] == [f"appendix.n{n}.case{c}" for c in expected]
    assert [r.computed for r in reports] == list(expected.values())


def test_appendix_case_audit_range():
    # the audit builds no table, so the field's n <= 16 is its only upper bound
    with pytest.raises(ValueError):
        appendix_case_audit(2)
    with pytest.raises(ValueError):
        appendix_case_audit(17)


def test_appendix_case_audit_past_the_tables_reach():
    # the published case table: case 1 is 2 for odd n, 4 for n = 2 mod 4 and
    # 6 for n = 0 mod 4; case 2 (n even) is 6 for n = 0 mod 4; case 3 is
    # the modified inverse's delta
    published = {11: {1: 2, 3: 6}, 12: {1: 6, 2: 6, 3: 10}, 13: {1: 2, 3: 6}}
    for n, cases in published.items():
        reports = appendix_case_audit(n)
        assert [r.claim_id for r in reports] == [f"appendix.n{n}.case{c}" for c in cases]
        assert [r.computed for r in reports] == list(cases.values())
        assert all(r.status == "pass" for r in reports)


def test_reproduce_all_matches_one_by_one():
    # registry order, and each claim's values as reproduce gives them alone
    together = reproduce_all("fast")
    alone = [reproduce(cid) for cid in claim_ids("fast")]
    assert [(r.claim_id, r.expected, r.computed, r.status) for r in together] == [
        (r.claim_id, r.expected, r.computed, r.status) for r in alone
    ]
