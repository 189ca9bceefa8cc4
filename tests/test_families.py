"""Family constructors, their side conditions, and the special-point analysis."""

import tracemalloc

import numpy as np
import pytest

from bctlab import (
    FamilySpec,
    bct_fast,
    bct_row,
    bct_system,
    boomerang_uniformity,
    bracken_leander,
    btt,
    compose,
    ddt,
    differential_uniformity,
    dobbertin,
    find_omega,
    from_monomial,
    from_polynomial,
    gold,
    gold_case,
    identity_sbox,
    inverse_fn,
    inverse_table,
    kasami,
    make_field,
    modified_inverse,
    modified_inverse_condition_sets,
    modified_inverse_expected_delta,
    modified_inverse_special_solutions,
    niho,
    welch,
    zieve_binomial,
    zieve_binomial_inverse,
    zieve_gamma_candidates,
)
from bctlab import families, tables
from bctlab.families import FAMILY_PARAMETERS, cube_condition_roots
from bctlab.walsh import _bct_value_counts

from conftest import system_solutions


# -- monomial families ----------------------------------------------------------------


def test_gold():
    assert gold(5, 1) == from_monomial(make_field(5), 3)
    assert gold(5, 1).is_permutation()
    assert differential_uniformity(ddt(gold(5, 1))) == 2
    assert differential_uniformity(ddt(gold(6, 2))) == 4
    assert not gold(4, 2).is_permutation()  # gcd(5, 15) = 5
    with pytest.raises(ValueError):
        gold(5, 0)
    with pytest.raises(ValueError):
        gold(5, 5)


def test_gold_case_classification():
    assert gold_case(5, 1) == "apn"
    assert gold_case(6, 2) == "four_uniform_ddt"
    assert gold_case(4, 2) == "unclassified"
    assert gold_case(8, 2) == "unclassified"  # n = 0 mod 4


def test_kasami():
    assert kasami(6, 2) == from_monomial(make_field(6), 13)
    assert kasami(6, 4) == from_monomial(make_field(6), 241)
    assert boomerang_uniformity(kasami(5, 2)).boomerang_uniformity == 2  # APN
    assert bct_fast(kasami(6, 2)).max_nonzero() == 4


def test_welch():
    assert welch(1) == from_monomial(make_field(3), 5)
    assert welch(2) == from_monomial(make_field(5), 7)
    for k in (1, 2, 3):
        f = welch(k)
        assert f.is_permutation()
        assert differential_uniformity(ddt(f)) == 2
    with pytest.raises(ValueError):
        welch(0)


def test_niho():
    # exponent selected by the parity of k
    assert niho(2) == from_monomial(make_field(5), 5)  # 2^2 + 2^1 - 1
    assert niho(1) == from_monomial(make_field(3), 5)  # 2^1 + 2^2 - 1
    for k in (1, 2, 3):
        assert differential_uniformity(ddt(niho(k))) == 2


def test_inverse_fn():
    f = inverse_fn(5)
    assert compose(f, f) == identity_sbox(make_field(5))  # self-inverse
    assert differential_uniformity(ddt(inverse_fn(5))) == 2
    assert differential_uniformity(ddt(inverse_fn(4))) == 4


def test_dobbertin():
    assert dobbertin(1) == from_monomial(make_field(5), 29)
    assert dobbertin(1).is_permutation()
    assert differential_uniformity(ddt(dobbertin(1))) == 2
    f = dobbertin(2)
    assert f == from_monomial(make_field(10), (1 << 8) + (1 << 6) + (1 << 4) + (1 << 2) - 1)
    # n = 10 is even, so this APN exponent has gcd(d, 2^n - 1) = 3 and the
    # map is 3-to-1 on nonzero inputs rather than a permutation
    assert not f.is_permutation()
    assert differential_uniformity(ddt(f)) == 2


def test_bracken_leander():
    f = bracken_leander(1)
    assert f == from_monomial(make_field(4), 7)
    assert differential_uniformity(ddt(f)) == 4
    # published table lists 4 here, which is the DDT value; the BCT max is 6
    # (x^7 is linear-equivalent to the inverse map, see decisions ledger)
    assert bct_fast(f).max_nonzero() == 6
    with pytest.raises(ValueError):
        bracken_leander(2)  # k must be odd


def test_table1_families_smallest_parameters_are_two_uniform():
    for f in (gold(3, 1), kasami(3, 1), welch(1), niho(1), inverse_fn(3), dobbertin(1)):
        rep = boomerang_uniformity(f)
        assert rep.differential_uniformity == 2
        assert rep.boomerang_uniformity == 2


def test_table2_families_smallest_parameters_are_four_uniform_ddt():
    for f in (gold(6, 2), kasami(6, 2), inverse_fn(4), bracken_leander(1), btt(2, 4)):
        assert differential_uniformity(ddt(f)) == 4


# -- Bracken-Tan-Tan --------------------------------------------------------------------


def test_btt_conditions():
    with pytest.raises(ValueError):
        btt(2, 2)  # 3 does not divide k+s
    with pytest.raises(ValueError):
        btt(2, 3)  # gcd(6, 3) = 3
    with pytest.raises(ValueError):
        btt(4, 4)  # k/2 even
    with pytest.raises(ValueError):
        btt(6, 4)  # 3 | k
    with pytest.raises(ValueError):
        btt(3, 4)  # k odd
    with pytest.raises(ValueError):
        btt(2, 4, alpha=find_omega(make_field(6)))  # order 3, not primitive


def test_btt_k2_matches_defining_binomial():
    spec = make_field(6)
    alpha = spec.primitive_element
    f = btt(2, 4)
    direct = from_polynomial(
        spec, [((1 << 4) + 1, alpha), ((1 << 4) + (1 << 6), spec.pow(alpha, 4))]
    )
    assert f == direct
    assert f.is_permutation()
    # the k=2 instance collapses to a single Gold-type monomial term
    c = alpha ^ spec.pow(alpha, 4)
    assert f == from_polynomial(spec, [(17, c)])
    # s = 4 and s = 10 define the same function
    assert btt(2, 10) == f


def test_btt_k2_uniformities():
    rep = boomerang_uniformity(btt(2, 4))
    assert rep.boomerang_uniformity == 4
    assert rep.differential_uniformity == 4


# -- modified inverse --------------------------------------------------------------------


def test_modified_inverse_values():
    for n in range(3, 13):
        f = modified_inverse(n)
        spec = f.spec
        assert f[0] == 1 and f[1] == 0
        for x in range(2, spec.size):
            assert f[x] == spec.inv(x)
        assert compose(f, f) == identity_sbox(spec)  # involution


@pytest.mark.parametrize(
    "n,delta", [(3, 8), (4, 6), (5, 6), (6, 10)]
)
def test_modified_inverse_uniformity(n, delta):
    assert boomerang_uniformity(modified_inverse(n)).boomerang_uniformity == delta


def _switched_bct_rows(n, shifts, per=64):
    """Rows T_g(a, .) of the modified inverse g for the nonzero shifts, by switching.

    g is the inverse F with its values at 0 and 1 swapped, so a solution
    (x, y) of h(x)+h(y) = b = h(x+a)+h(y+a) none of whose points lies in
    {0, 1} is one for h = F and h = g alike: with S' = {0, 1, a, a+1},
    T_g(a, b) = T_F(a, b) - C_F(a, b) + C_g(a, b), where C_h counts h's
    solutions with x or y in S'. The solutions are symmetric, so C_h is
    twice the solving x in S', less those whose partner y is in S' too;
    x's partners are the y with D_a h(y) = D_a h(x), at b = h(x)+h(y).
    T_F(a, b) = T_F(1, a b), as F is x^-1. O(|S'| 2^n) per row, in blocks
    of per shifts.
    """
    F, g = inverse_fn(n), modified_inverse(n)
    spec, y = F.spec, np.arange(F.spec.size)
    row1 = bct_row(F, 1)
    out = []
    for i in range(0, len(shifts), per):
        a = np.asarray(shifts[i : i + per])[:, None]
        x = np.array([0, 1, 0, 1]) ^ np.array([0, 0, 1, 1]) * a  # S', one row per a
        once = (np.arange(4) < 2) | (a != 1)  # S' = {0, 1} when a = 1
        switched = row1[spec.mul_vec(a, y)]
        for h, sign in ((F.table, -1), (g.table, 1)):
            D = h ^ h[y ^ a]  # D_a h, one row per a
            r, k, z = np.nonzero(D[:, None] == np.take_along_axis(D, x, 1)[:, :, None])
            weight = once[r, k] * (2 - ((z < 2) | ((z ^ a[r, 0]) < 2)))
            np.add.at(switched, (r, h[x[r, k]] ^ h[z]), sign * weight)
        out.append(switched)
    return np.concatenate(out)


def test_switching_oracle_gives_theorem_9_past_the_oracles():
    # Theorem 9 by the switching method: the modified inverse's rows from
    # the inverse's row 1 and the solutions through {0, 1, a, a+1}, equal to
    # the row kernel's at n = 13-14, and its boomerang uniformity over every
    # Frobenius orbit at n = 13
    for n in (13, 14):
        g = modified_inverse(n)
        shifts = [1, 2, 3, g.spec.size - 1, *np.random.default_rng(n).integers(4, g.spec.size, 4)]
        for a, row in zip(shifts, _switched_bct_rows(n, shifts)):
            assert np.array_equal(row, bct_row(g, a)), (n, a)
    g = modified_inverse(13)
    reps, _ = g.spec._shift_orbits(1, True)
    assert tables._symmetry(g) == (True, 1, 0) and reps.size == 631
    rows = _switched_bct_rows(13, reps)
    assert rows[:, 1:].max() == 6 == modified_inverse_expected_delta(13)


# -- the x^(q+2) + gamma x binomial ---------------------------------------------------------


def test_zieve_candidates():
    spec = make_field(6)
    cands = zieve_gamma_candidates(spec)
    assert cands and cands == sorted(cands)
    assert 1 not in cands
    for g in cands:
        assert spec.element_order(spec.pow(g, 7)) == 3
    with pytest.raises(ValueError):
        zieve_gamma_candidates(make_field(8))  # q = 2^4, exponent m even
    with pytest.raises(ValueError):
        zieve_gamma_candidates(make_field(7))  # odd extension


@pytest.mark.parametrize("n", [6, 10])
def test_zieve_candidates_match_element_order(n):
    # the definition: gamma^(q-1) has multiplicative order exactly 3
    spec = make_field(n)
    q = 1 << (n // 2)
    expected = [g for g in range(1, spec.size) if spec.element_order(spec.pow(g, q - 1)) == 3]
    cands = zieve_gamma_candidates(spec)
    assert cands == expected and all(type(g) is int for g in cands)


def test_zieve_permutation_iff_condition():
    spec = make_field(6)
    cands = set(zieve_gamma_candidates(spec))
    for gamma in range(1, spec.size):
        f = from_polynomial(spec, [(10, 1), (1, gamma)])
        assert f.is_permutation() == (gamma in cands)


def test_zieve_binomial_uniformity():
    spec = make_field(6)
    gamma = zieve_gamma_candidates(spec)[0]
    f = zieve_binomial(spec, gamma)
    assert f.is_permutation()
    assert boomerang_uniformity(f).boomerang_uniformity == 4
    assert differential_uniformity(ddt(f)) == 4
    with pytest.raises(ValueError):
        zieve_binomial(spec, 1)


def test_zieve_inverse_closed_form():
    spec = make_field(6)
    ident = identity_sbox(spec)
    for gamma in zieve_gamma_candidates(spec):
        f = zieve_binomial(spec, gamma)
        g = zieve_binomial_inverse(spec, gamma)
        assert g[0] == 0
        assert g == inverse_table(f)
        assert compose(g, f) == ident
        assert compose(f, g) == ident


@pytest.mark.parametrize("n", [6, 10])
def test_zieve_gammas_fall_into_one_class(n):
    # Theorem 10's f_gamma(x) = x^(q+2) + gamma x. With gamma' =
    # gamma c^-(q+1), f_gamma(c x) = c^(q+2) f_gamma'(x), and f_gamma(x)^2 =
    # f_(gamma^2)(x^2): both are linear equivalences, so gamma, gamma u for
    # u in GF(q)* (the norms c^(q+1)) and gamma^2 have BCTs with the same
    # value counts. Every candidate is in the class of the least one
    spec, q = make_field(n), 1 << n // 2
    xs = np.arange(spec.size)
    cands = zieve_gamma_candidates(spec)
    norms = np.unique(spec.pow_vec(xs[1:], q + 1))
    assert norms.size == q - 1
    seen, new = set(), {cands[0]}
    while new:
        seen |= new
        g = np.array(sorted(new))
        new = set(spec.mul_vec(g[:, None], norms).ravel().tolist()) | set(spec.mul_vec(g, g).tolist())
        new -= seen
    assert seen == set(cands)
    c = spec.primitive_element
    expect = _bct_value_counts(zieve_binomial(spec, cands[0]))
    for gamma in cands:
        f = zieve_binomial(spec, gamma)
        scaled = zieve_binomial(spec, spec.mul(gamma, spec.inv(spec.pow(c, q + 1))))
        assert np.array_equal(f.table[spec.mul_vec(c, xs)], spec.mul_vec(spec.pow(c, q + 2), scaled.table))
        squared = zieve_binomial(spec, spec.mul(gamma, gamma))
        assert np.array_equal(spec.mul_vec(f.table, f.table), squared.table[spec.mul_vec(xs, xs)])
        assert _bct_value_counts(f) == expect, gamma


# -- special-point analysis of the modified inverse -----------------------------------------


def _admissible_shifts(spec):
    excl = {0, 1}
    if spec.n % 2 == 0:
        w = find_omega(spec)
        excl |= {w, spec.mul(w, w)}
    return [a for a in range(spec.size) if a not in excl]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_special_solutions_are_solutions(n):
    spec = make_field(n)
    f = modified_inverse(n, spec)
    t = f.table
    for a in _admissible_shifts(spec):
        for b in range(1, spec.size):
            for case, x, y in modified_inverse_special_solutions(spec, a, b):
                assert t[x] ^ t[y] == b, (case, a, b)
                assert t[x ^ a] ^ t[y ^ a] == b, (case, a, b)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_special_solutions_complete(n):
    # brute enumeration restricted to x in {0, 1, a, a+1} matches the
    # classification exactly, partner included
    spec = make_field(n)
    f = modified_inverse(n, spec)
    for a in _admissible_shifts(spec):
        special = {0, 1, a, a ^ 1}
        for b in range(1, spec.size):
            classified = modified_inverse_special_solutions(spec, a, b)
            predicted = {(x, y) for _, x, y in classified}
            brute = {
                (x, y) for x, y in system_solutions(f, a, b) if x in special
            }
            # every classified pair and its mirror appear among solutions
            mirrored = predicted | {(y, x) for x, y in predicted}
            assert {(x, y) for x, y in mirrored if x in special} == brute


def test_special_solutions_preconditions():
    spec = make_field(4)
    w = find_omega(spec)
    with pytest.raises(ValueError):
        modified_inverse_special_solutions(spec, 1, 3)
    with pytest.raises(ValueError):
        modified_inverse_special_solutions(spec, w, 3)
    with pytest.raises(ValueError):
        modified_inverse_special_solutions(spec, 5, 0)


def test_all_cases_fire_on_cubic_root():
    # n divisible by 3: a^3 + a + 1 = 0 has roots; at b = a all four cases
    # fire and the system has at least eight solutions
    spec = make_field(6)
    roots = cube_condition_roots(spec)
    assert roots
    f = modified_inverse(6, spec)
    for a in roots:
        fired = modified_inverse_special_solutions(spec, a, a)
        assert {case for case, _, _ in fired} == {"x=0", "x=1", "x=a", "x=a+1"}
        assert len(system_solutions(f, a, a)) >= 8
    # no roots off the 3 | n lattice
    assert not cube_condition_roots(make_field(5))
    assert not cube_condition_roots(make_field(7))


@pytest.mark.parametrize("n", [4, 5])
def test_condition_sets_match_scalar_definition(n):
    spec = make_field(n)
    sets = modified_inverse_condition_sets(spec)
    excl = set(_admissible_shifts(spec))
    mul, inv = spec.mul, spec.inv
    for a in range(1, spec.size):
        if a not in excl:
            continue
        for b in range(1, spec.size):
            asq, bsq, ab = mul(a, a), mul(b, b), mul(a, b)
            cond_a = mul(asq, bsq) ^ mul(asq, b) ^ ab ^ 1
            cond_b = mul(asq, bsq) ^ mul(a, bsq) ^ ab ^ 1
            assert ((a, b) in sets["x=0"]) == (
                b == mul(a ^ 1, inv(a)) or cond_a == 0
            )
            assert ((a, b) in sets["x=1"]) == (b == inv(a ^ 1) or cond_b == 0)
            assert ((a, b) in sets["x=a"]) == (cond_a == 0)
            assert ((a, b) in sets["x=a+1"]) == (cond_b == 0)


@pytest.mark.parametrize("n", [5, 6])
def test_condition_sets_match_the_special_solutions_cell_by_cell(n, monkeypatch):
    # every admissible (a, b != 0): the cases whose sets hold the cell are
    # the cases modified_inverse_special_solutions fires there, and blocks
    # of one shift each give the sets of one block
    spec = make_field(n)
    sets = modified_inverse_condition_sets(spec)
    monkeypatch.setattr(families, "_BLOCK", spec.size)
    assert modified_inverse_condition_sets(spec) == sets
    for a in _admissible_shifts(spec):
        for b in range(1, spec.size):
            fired = {case for case, _, _ in modified_inverse_special_solutions(spec, a, b)}
            assert fired == {case for case, cells in sets.items() if (a, b) in cells}, (a, b)


def test_condition_sets_build_no_grid_of_every_cell():
    # the sets are evaluated over blocks of shifts: one int64 grid of every
    # (a, b) at n = 10 and the masks over it peaked at 82.6 MiB
    spec = make_field(10)
    tracemalloc.start()
    try:
        modified_inverse_condition_sets(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak / 2**20


def _special_point_cells(table, A):
    # for each case, the (a, b != 0) at which the map has a solution (x, y)
    # of f(x)+f(y) = b, f(x+a)+f(y+a) = b with x that case's point
    y = np.arange(table.size)
    cells = {}
    for case, x in (("x=0", 0 * A), ("x=1", 0 * A + 1), ("x=a", A), ("x=a+1", A ^ 1)):
        b = table[x][:, None] ^ table[y]  # b at (a, y), a solution where the shifted sum agrees
        i, j = np.nonzero((b == table[x ^ A][:, None] ^ table[y ^ A[:, None]]) & (b != 0))
        cells[case] = set(zip(A[i].tolist(), b[i, j].tolist()))
    return cells


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_condition_sets_are_the_special_point_solutions(n):
    # Theorem 9's case analysis against a literal count: for a outside
    # {0, 1, w, w^2} and b != 0, the (a, b) at which the modified inverse g
    # has a solution with x = 0 or x = 1 are that case's set. (x, y) ->
    # (x+a, y+a) maps solutions to solutions, so x = a adds the set of
    # x = 0, and x = a+1 that of x = 1
    spec = make_field(n)
    sets = modified_inverse_condition_sets(spec)
    A = np.array(_admissible_shifts(spec))
    found = _special_point_cells(modified_inverse(n, spec).table, A)
    assert found["x=0"] == sets["x=0"] and found["x=1"] == sets["x=1"]
    assert found["x=a"] == sets["x=a"] | sets["x=0"]
    assert found["x=a+1"] == sets["x=a+1"] | sets["x=1"]
    # g's BCT differs from the inverse F's exactly where g gains a solution
    # through {0, 1, a, a+1} (the union of the sets) or F has one there: so
    # not only where a case fires (180 cells against 120 at n = 5)
    union = set().union(*sets.values())
    lost = set().union(*_special_point_cells(inverse_fn(n, spec).table, A).values())
    diff = bct_fast(modified_inverse(n, spec)).counts != bct_fast(inverse_fn(n, spec)).counts
    rows, cols = np.nonzero(diff[A, 1:])
    assert set(zip(A[rows].tolist(), (cols + 1).tolist())) == union | lost
    assert union < union | lost


# -- FamilySpec parsing ---------------------------------------------------------------------


def test_family_spec_parse_and_build():
    fs = FamilySpec.parse("kasami n=6 i=2")
    assert fs.build() == kasami(6, 2)
    assert FamilySpec.parse("gold n=5 i=1").build() == gold(5, 1)
    assert FamilySpec.parse("modified_inverse n=4").build() == modified_inverse(4)
    spec6 = make_field(6)
    first = zieve_gamma_candidates(spec6)[0]
    assert FamilySpec.parse("zieve_binomial q=8").build() == zieve_binomial(spec6, first)
    assert FamilySpec.parse(f"zieve_binomial q=8 gamma={first}").build() == zieve_binomial(
        spec6, first
    )
    assert FamilySpec.parse("inverse n=0x4").build() == inverse_fn(4)


def _gamma(i: int) -> int:
    return zieve_gamma_candidates(make_field(6))[i]


def _alpha() -> int:
    """A primitive element of GF(2^6) other than the default one."""
    spec = make_field(6)
    return spec.pow(spec.primitive_element, 5)


# one spec per family name, with the constructor call it must equal
_SPEC_BUILDS = {
    "gold": ("gold n=5 i=2", lambda: gold(5, 2)),
    "kasami": ("kasami n=7 i=3", lambda: kasami(7, 3)),
    "welch": ("welch k=2", lambda: welch(2)),
    "niho": ("niho k=3", lambda: niho(3)),
    "inverse": ("inverse n=6", lambda: inverse_fn(6)),
    "dobbertin": ("dobbertin k=1", lambda: dobbertin(1)),
    "bracken_leander": ("bracken_leander k=1", lambda: bracken_leander(1)),
    "btt": (f"btt k=2 s=4 alpha={_alpha()}", lambda: btt(2, 4, _alpha())),
    "modified_inverse": ("modified_inverse n=5", lambda: modified_inverse(5)),
    "zieve_binomial": (
        f"zieve_binomial q=8 gamma={_gamma(1)}",
        lambda: zieve_binomial(make_field(6), _gamma(1)),
    ),
    "zieve_binomial_inverse": (
        "zieve_binomial_inverse q=8",
        lambda: zieve_binomial_inverse(make_field(6), _gamma(0)),
    ),
}


@pytest.mark.parametrize("name", sorted(FAMILY_PARAMETERS))
def test_family_spec_builds_every_family_like_its_constructor(name):
    text, direct = _SPEC_BUILDS[name]
    assert FamilySpec.parse(text).build() == direct()


def test_family_spec_parse_errors():
    for text in (
        "",
        "nope n=4",
        "gold n=5",  # missing i
        "gold n=5 i=1 z=9",  # unknown key
        "gold n=5 i=1 i=2",  # duplicate
        "gold n=five i=1",
        "gold n",
        "zieve_binomial q=9",  # not a power of two
        "zieve_binomial q=0",
    ):
        with pytest.raises(ValueError):
            FamilySpec.parse(text).build()
    for q in (0, 1):
        with pytest.raises(ValueError, match="power of two"):
            FamilySpec.parse(f"zieve_binomial q={q}").build()


def test_zieve_q32_every_gamma():
    # the full invariant at q = 32: every admissible gamma gives a
    # permutation with boomerang uniformity 4 whose closed-form inverse
    # matches the table inverse exactly
    spec = make_field(10)
    cands = zieve_gamma_candidates(spec)
    assert len(cands) == 62
    for gamma in cands:
        f = zieve_binomial(spec, gamma)
        assert f.is_permutation()
        assert bct_fast(f).max_nonzero() == 4
        assert zieve_binomial_inverse(spec, gamma) == inverse_table(f)
