"""Reproduction harness: a registry of published reference values.

Every claim binds an identifier to a minimal deterministic computation and
an expected integer. Identifiers follow the source material's layout
("table3.k5.i2", "thm9.n7", "example.n4", "thm10.q8", ...) and are stable
API; the registry order fixes the report order. Claims whose estimated
cost exceeds the caller's budget are reported skipped(cost) rather than
run. The one entry out of reach at desk scale (btt.k10, a GF(2^30) table)
has no computation at all, so it is skipped(cost) no matter the budget,
infinite included. Budgets must be non-negative numbers; NaN is refused.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Callable

from .gf2n import find_omega, make_field
from .sbox import SBox, compose, from_monomial, identity_sbox, inverse_table
from .tables import _orbit_report, _orbit_rows, quadratic_bound_check
from .families import (
    _field_from_q,
    btt,
    cube_condition_roots,
    gold,
    modified_inverse,
    modified_inverse_condition_sets,
    zieve_binomial,
    zieve_binomial_inverse,
    zieve_gamma_candidates,
)

__all__ = [
    "ClaimReport",
    "claim_ids",
    "reproduce",
    "reproduce_all",
    "appendix_case_audit",
    "modified_inverse_expected_delta",
]


@dataclass
class ClaimReport:
    claim_id: str
    expected: int
    computed: int | None
    status: str  # "pass" | "fail" | "skipped(cost)"
    runtime_ms: float

    def to_json(self) -> dict:
        return {**asdict(self), "runtime_ms": round(self.runtime_ms, 3)}


def _judged(claim_id: str, expected: int, computed: int, ms: float) -> ClaimReport:
    """A run claim's report: pass exactly when computed equals expected."""
    status = "pass" if computed == expected else "fail"
    return ClaimReport(claim_id, expected, computed, status, ms)


@dataclass(frozen=True)
class _Claim:
    claim_id: str
    expected: int
    run: Callable[[], int] | None  # None: out of reach, always skipped
    dim: int  # field dimension, drives the fast/full tier split
    est_seconds: float


def modified_inverse_expected_delta(n: int) -> int:
    """Boomerang uniformity of the modified inverse by residue of n mod 6."""
    if n % 6 == 0:
        return 10
    if n % 6 == 3:
        return 8
    return 6


# -- claim computations ------------------------------------------------------------


def _delta(f: SBox) -> int:
    """Boomerang uniformity of f from one BCT row per orbit of its symmetry."""
    return _orbit_report(f, "row").boomerang_uniformity


def _zieve_delta(q: int, take: int | None) -> int:
    """delta over the first take admissible gammas (all for None); -1 if
    any of them fails to permute."""
    spec = _field_from_q(q)
    deltas = set()
    for gamma in zieve_gamma_candidates(spec)[:take]:
        f = zieve_binomial(spec, gamma)
        if not f.is_permutation():
            return -1
        deltas.add(_delta(f))
    return max(deltas)


def _inverse_roundtrip_mismatches(q: int) -> int:
    spec = _field_from_q(q)
    gamma = zieve_gamma_candidates(spec)[0]
    f = zieve_binomial(spec, gamma)
    g = zieve_binomial_inverse(spec, gamma)
    ident = identity_sbox(spec)
    bad = int((compose(g, f).table != ident.table).sum())
    bad += int((compose(f, g).table != ident.table).sum())
    bad += int((g.table != inverse_table(f).table).sum())
    return bad


def _condition_set_violations(n: int) -> int:
    """Check the published intersection structure of the four condition sets.

    The sets attached to the special points x=0, x=1, x=a, x=a+1 intersect
    exactly on pairs with a^3 + a + 1 = 0 and specific b values; returns
    how many of the seven identities fail over GF(2^n).
    """
    spec = make_field(n)
    sets = modified_inverse_condition_sets(spec)
    s1, s2 = sets["x=0"], sets["x=1"]
    s3, s4 = sets["x=a"], sets["x=a+1"]
    roots = cube_condition_roots(spec)
    b_a = {(a, a) for a in roots}
    b_frac = {(a, spec.mul(a ^ 1, spec.inv(a))) for a in roots}  # (1+a)/a
    b_inv = {(a, spec.inv(a ^ 1)) for a in roots}  # 1/(a+1)
    checks = [
        (s1 & s2) == b_a | b_frac | b_inv,
        (s1 & s3) == s3,
        (s1 & s4) == b_a | b_frac,
        (s2 & s3) == b_a | b_inv,
        (s2 & s4) == s4,
        (s3 & s4) == b_a,
        (s1 & s2 & s3 & s4) == b_a,
    ]
    return sum(0 if ok else 1 for ok in checks)


# -- registry ----------------------------------------------------------------------


def _build_registry() -> dict[str, _Claim]:
    reg: dict[str, _Claim] = {}

    def add(claim_id, expected, run, dim, est):
        reg[claim_id] = _Claim(claim_id, expected, run, dim, est)

    for k, i, val, est in (
        (3, 2, 4, 0.01), (3, 4, 4, 0.01),
        (5, 2, 44, 0.01), (5, 4, 44, 0.01), (5, 6, 44, 0.01),
        (7, 2, 24, 0.05), (7, 4, 16, 0.05), (7, 6, 16, 0.05),
    ):
        d = (1 << (2 * i)) - (1 << i) + 1
        add(
            f"table3.k{k}.i{i}",
            val,
            lambda n=2 * k, d=d: _delta(from_monomial(make_field(n), d)),
            2 * k,
            est,
        )
    for k, val, est in ((1, 4, 0.1), (3, 14, 0.02)):
        d = (1 << (2 * k)) + (1 << k) + 1
        add(
            f"table4.k{k}",
            val,
            lambda n=4 * k, d=d: _delta(from_monomial(make_field(n), d)),
            4 * k,
            est,
        )
    for n, val in ((3, 8), (4, 6), (5, 6), (6, 10), (7, 6), (8, 6), (9, 8)):
        add(f"example.n{n}", val, lambda n=n: _delta(modified_inverse(n)), n, 0.02)
    for n in range(3, 13):
        est = {10: 0.03, 11: 0.1, 12: 0.3}.get(n, 0.02)
        add(
            f"thm9.n{n}",
            modified_inverse_expected_delta(n),
            lambda n=n: _delta(modified_inverse(n)),
            n,
            est,
        )
    add("thm10.q8", 4, lambda: _zieve_delta(8, None), 6, 0.1)
    add("thm10.q32", 4, lambda: _zieve_delta(32, 1), 10, 0.03)
    add("corollary11.q8", 0, lambda: _inverse_roundtrip_mismatches(8), 6, 0.5)
    add("corollary11.q32", 0, lambda: _inverse_roundtrip_mismatches(32), 10, 1.0)
    add("btt.k2", 4, lambda: _delta(btt(2, 4)), 6, 0.5)
    # GF(2^30): the table alone is beyond desk scale; kept for completeness
    add("btt.k10", -1, None, 30, math.inf)
    add("quadbound.gold.n5", 2, lambda: _delta(gold(5, 1)), 5, 0.2)
    add("quadbound.gold.n6", 1, lambda: int(quadratic_bound_check(gold(6, 2))), 6, 0.5)
    add("quadbound.gold.n10", 1, lambda: int(quadratic_bound_check(gold(10, 2))), 10, 0.1)
    for n in range(3, 9):
        add(f"sets.n{n}", 0, lambda n=n: _condition_set_violations(n), n, 1.0)
    return reg


_REGISTRY = _build_registry()


def claim_ids(tier: str = "full") -> list[str]:
    """Registry keys in report order; tier "fast" keeps dimensions <= 10."""
    if tier not in ("fast", "full"):
        raise ValueError(f"tier must be 'fast' or 'full', got {tier!r}")
    return [
        cid for cid, c in _REGISTRY.items() if tier == "full" or c.dim <= 10
    ]


def reproduce(claim_id: str, budget_seconds: float = 600.0) -> ClaimReport:
    """Run one claim and compare against its expected value.

    budget_seconds must be a non-negative number (inf runs every claim in
    reach); a claim estimated to cost more, or out of reach, is skipped.
    """
    if not budget_seconds >= 0:
        raise ValueError(f"budget must be a non-negative number, got {budget_seconds}")
    try:
        claim = _REGISTRY[claim_id]
    except KeyError:
        raise ValueError(f"unknown claim id {claim_id!r}") from None
    if claim.run is None or claim.est_seconds > budget_seconds:
        return ClaimReport(claim_id, claim.expected, None, "skipped(cost)", 0.0)
    t0 = time.perf_counter()
    computed = claim.run()
    ms = (time.perf_counter() - t0) * 1000.0
    return _judged(claim_id, claim.expected, computed, ms)


def reproduce_all(tier: str = "fast", budget_seconds: float = 600.0) -> list[ClaimReport]:
    """Run every claim in the tier, one after another, in registry order."""
    return [reproduce(cid, budget_seconds) for cid in claim_ids(tier)]


# -- per-case audit of the modified inverse ------------------------------------------


def _expected_case1(n: int) -> int:
    return 2 if n % 2 else (4 if n % 4 == 2 else 6)


def _expected_case2(n: int) -> int:
    return 4 if n % 4 == 2 else 6


def appendix_case_audit(n: int) -> list[ClaimReport]:
    """Split the BCT maximum of the modified inverse by shift class.

    The shift a is classified as a=1, a in {w, w^2} (n even only), or
    generic; the per-class maxima over b != 0 must match the published
    case table. Returns one report per class present. The map commutes
    with squaring, so each class is a union of squaring orbits of a:
    {1}, {w, w^2} and all the others, and one row per orbit is read, with
    no table: n runs from 3 to the field's own bound, 16.
    """
    if n < 3:
        raise ValueError(f"audit supports n >= 3, got {n}")
    spec = make_field(n)
    f = modified_inverse(n, spec)
    omegas = set()
    if n % 2 == 0:
        w = find_omega(spec)
        omegas = {w, spec.mul(w, w)}
    t0 = time.perf_counter()
    case_max = {}
    for a, _, block, _, _ in _orbit_rows(f):
        for rep, row_max in zip(a.tolist(), block[:, 1:].max(axis=1).tolist()):
            case = 1 if rep == 1 else 2 if rep in omegas else 3
            case_max[case] = max(case_max.get(case, 0), row_max)
    ms = (time.perf_counter() - t0) * 1000.0
    expected = {
        1: _expected_case1(n),
        2: _expected_case2(n),
        3: modified_inverse_expected_delta(n),
    }
    return [
        _judged(f"appendix.n{n}.case{case}", expected[case], case_max[case], ms)
        for case in sorted(case_max)
    ]
