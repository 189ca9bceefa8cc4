"""DDT/BCT builders, uniformity extraction, exports, and table invariants."""

import dataclasses
import hashlib
import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from bctlab import (
    FieldSpec,
    KTable,
    affine_apply,
    bct,
    bct_fast,
    bct_naive,
    bct_row,
    bct_system,
    boomerang_uniformity,
    btt,
    ddt,
    differential_uniformity,
    from_monomial,
    gold,
    identity_sbox,
    inverse_fn,
    inverse_table,
    kasami,
    ktable_to_csv,
    ktable_to_json,
    make_field,
    modified_inverse,
    monomial_boomerang_uniformity,
    quadratic_bound_check,
    random_affine_permutation,
    random_permutation,
    SBox,
    walsh_spectrum,
    zieve_binomial,
    zieve_gamma_candidates,
)
from bctlab import cli, tables
from bctlab.walsh import _walsh_blocks

from conftest import system_solutions


# -- DDT ------------------------------------------------------------------------


def test_ddt_identity():
    spec = make_field(4)
    t = ddt(identity_sbox(spec))
    expect = np.zeros((16, 16), dtype=np.int64)
    np.fill_diagonal(expect, 16)
    assert np.array_equal(t.counts, expect)


def test_ddt_row_sums(rng):
    for n in (3, 4, 6):
        spec = make_field(n)
        f = SBox(spec, rng.integers(0, spec.size, spec.size))
        t = ddt(f)
        assert (t.counts.sum(axis=1) == spec.size).all()


def test_differential_uniformity_examples():
    assert differential_uniformity(ddt(identity_sbox(make_field(4)))) == 16
    assert differential_uniformity(ddt(gold(5, 1))) == 2
    assert differential_uniformity(ddt(gold(6, 2))) == 4
    assert differential_uniformity(ddt(inverse_fn(6))) == 4
    assert differential_uniformity(ddt(inverse_fn(8))) == 4
    with pytest.raises(ValueError):
        differential_uniformity(bct_fast(gold(5, 1)))


# -- BCT builders ------------------------------------------------------------------


def test_bct_naive_identity():
    spec = make_field(3)
    t = bct_naive(identity_sbox(spec))
    assert (t.counts == 8).all()


def test_bct_naive_requires_permutation():
    spec = make_field(3)
    with pytest.raises(ValueError):
        bct_naive(SBox(spec, [0] * 8))


def test_bct_system_identity_and_constant():
    spec = make_field(3)
    t = bct_system(identity_sbox(spec))
    assert (t.counts == 8).all()
    c = bct_system(SBox(spec, [5] * 8))
    assert (c.counts[:, 0] == 64).all()
    assert (c.counts[:, 1:] == 0).all()


def test_builders_agree_on_permutations(rng):
    for n in (3, 4, 5):
        spec = make_field(n)
        for _ in range(5):
            f = random_permutation(spec, rng)
            tn = bct_naive(f).counts
            ts = bct_system(f).counts
            tf = bct_fast(f).counts
            assert np.array_equal(tn, ts)
            assert np.array_equal(ts, tf)


def test_fast_agrees_with_system_on_non_permutations(rng):
    for n in (2, 3, 4, 5):
        spec = make_field(n)
        for _ in range(5):
            f = SBox(spec, rng.integers(0, spec.size, spec.size))
            assert np.array_equal(bct_system(f).counts, bct_fast(f).counts)


def test_bct_dispatcher():
    f = gold(4, 1)
    assert np.array_equal(bct(f, "system").counts, bct(f, "fast").counts)
    with pytest.raises(ValueError):
        bct(f, "sideways")


def test_bct_row():
    f = inverse_fn(5)
    assert (bct_row(f, 0) == 32).all()
    k = kasami(6, 2)
    row = bct_row(k, 1)
    assert int(row[1:].max()) == 4
    t = bct_fast(k).counts
    for a in (0, 1, 5, 40, np.int64(0), np.int64(5)):  # numpy integers too
        assert np.array_equal(bct_row(k, a), t[a])
    for a in (-1, 64, np.int64(-1), np.int64(64)):  # row 63 is the last
        with pytest.raises(ValueError, match=rf"field element must lie in \[0, 2\^n\), got {a}$"):
            bct_row(k, a)


def _squaring(spec):
    idx = np.arange(spec.size)
    return spec.mul_vec(idx, idx)


def _equivariant_corpus():
    """Maps with f(x^2) = f(x)^2: x^d over every d at n <= 6 (x^0 and the
    non-permutations x^3 at even n among them) and the modified inverse."""
    for n in (3, 4, 5, 6):
        spec = make_field(n)
        for d in range(spec.size):
            yield from_monomial(spec, d)
    for n in (3, 4, 5, 6, 7):
        yield modified_inverse(n)
    yield from_monomial(make_field(7), 13)


def test_bct_is_invariant_under_squaring_both_indices():
    # T(a^2, b^2) = T(a, b) when f commutes with squaring
    for f in _equivariant_corpus():
        sq = _squaring(f.spec)
        t = bct_system(f).counts
        assert np.array_equal(t[sq][:, sq], t)


def _takes_table_route(f):
    """boomerang_uniformity's table test: one orbit with f(1) = 1, that is x^d,
    whose whole table the row kernel counts in one block."""
    N = f.spec.size
    return (tables._symmetry(f).order == N - 1 and f.table[1] == 1
            and tables._rows_per_block(f.spec.n) >= N)


def _scaled_monomial(spec, c, d):
    """c x^d; c x^0 is the constant c."""
    return SBox(spec, spec.mul_vec(from_monomial(spec, d).table, c))


def test_power_exponent_detects_power_maps(monkeypatch, rng):
    # power maps are the case U = GF(2^n)* of the one symmetry detector:
    # f(c x) = c^e f(x) for every c, with e = d mod 2^n - 1. Of the
    # one-orbit maps, boomerang_uniformity builds tables exactly for the
    # x^d within one kernel block (every n here); c x^d with c != 0, 1 and
    # the constants other than 1 = x^0 are read off row 1 with no table
    bct_, built = tables.bct, []

    def recorded(f, **kwargs):
        built.append(f)
        return bct_(f, **kwargs)

    monkeypatch.setattr(tables, "bct", recorded)
    for n in (2, 3, 4, 5, 6):
        spec = make_field(n)
        M = spec.size - 1
        for d in range(spec.size + 1):
            f = from_monomial(spec, d)
            assert tables._symmetry(f) == (True, M, d % M)
            assert _takes_table_route(f)
            boomerang_uniformity(f)
            assert built.pop() is f and not built, (n, d)
            for c in {2, 3, M}:
                g = _scaled_monomial(spec, c, d)
                assert tables._symmetry(g).order == M and not _takes_table_route(g)
                boomerang_uniformity(g)
                assert not built, (n, c, d)
        for c in range(spec.size):
            if c != 1:  # the constant 1 is x^0
                boomerang_uniformity(SBox(spec, np.full(spec.size, c)))
                assert not built, (n, c)
    monkeypatch.undo()
    assert tables._symmetry(from_monomial(make_field(7), 13)) == (True, 127, 13)
    for n in (3, 4, 5, 6, 7):
        assert tables._symmetry(modified_inverse(n)) == (True, 1, 0)
    for n in (5, 6, 7, 8):
        assert tables._symmetry(random_permutation(make_field(n), rng)) == (False, 1, 0)
    # a constant c != 0, 1 has f(c x) = f(x) for every c, and is no x^d
    constant = SBox(make_field(5), np.full(32, 5))
    assert tables._symmetry(constant) == (False, 31, 0)
    # the constant 0 has no scaling: f(1) = 0
    assert tables._symmetry(SBox(make_field(5), np.zeros(32, dtype=int))) == (True, 1, 0)
    # passes the f(1) = 1, f(0) = 0 pre-check, fails the table comparison
    near = from_monomial(make_field(5), 3).table.copy()
    near[[2, 3]] = near[[3, 2]]
    assert tables._symmetry(SBox(make_field(5), near)) == (False, 1, 0)


def _scaling_by_brute_force(f):
    """(m, e) for the largest m dividing 2^n - 1 with f(c x) = c^e f(x) for
    every c with c^m = 1 and every x, e the least; scalar mul and pow only."""
    spec, t = f.spec, f.table.tolist()
    M = spec.size - 1
    for m in (m for m in range(M, 0, -1) if M % m == 0):
        U = [c for c in range(2, spec.size) if spec.pow(c, m) == 1]  # c = 1 holds for any e
        for e in range(m):
            if all(t[spec.mul(c, x)] == spec.mul(ce, t[x])
                   for c, ce in ((c, spec.pow(c, e)) for c in U) for x in range(spec.size)):
                return m, e


def test_symmetry_finds_every_subgroup_order():
    # f(x) = x^e phi(x^m) has f(c x) = c^e f(x) whenever c^m = 1; with a
    # random phi of nonzero values the largest such subgroup has order m,
    # one map for every divisor m of 2^n - 1
    rng = np.random.default_rng(23)
    for n in (4, 6, 8):
        spec = make_field(n)
        M = spec.size - 1
        orders = set()
        for m in (m for m in range(1, M + 1) if M % m == 0):
            e, phi = int(rng.integers(1, M)), rng.integers(1, spec.size, spec.size)
            f = SBox(spec, [spec.mul(spec.pow(x, e), int(phi[spec.pow(x, m)]))
                            for x in range(spec.size)])
            sym = tables._symmetry(f)
            assert (sym.order, sym.e) == _scaling_by_brute_force(f), (n, m)
            orders.add(sym.order)
        assert orders == {m for m in range(1, M + 1) if M % m == 0}, n


def test_bct_row_matches_system_rows(rng):
    pairs = ((4, 0), (4, 3), (6, 3), (6, 7), (7, 13))
    one_orbit = [from_monomial(make_field(n), d) for n, d in pairs]
    one_orbit += [SBox(make_field(n), np.full(2**n, 6)) for n in (3, 6)]  # constant != 0, 1
    others = [modified_inverse(n) for n in (5, 6, 7)]
    others += [random_permutation(make_field(n), rng) for n in (4, 5, 6, 7)]
    assert all(tables._symmetry(f).order == f.spec.size - 1 for f in one_orbit)
    assert all(tables._symmetry(f).order == 1 for f in others)
    for f in one_orbit + others:
        t = bct_system(f).counts
        for a in (0, 1, f.spec.size - 3):
            assert np.array_equal(bct_row(f, a), t[a]), (f, a)


def _symmetric_corpus():
    """Maps with a symmetry on the shift a: x^d, the modified inverse, the
    Zieve binomial over GF(8^2) for every gamma, and constant maps (0 has
    the Frobenius only, 1 both symmetries, 5 the scaling with e = 0)."""
    for n, d in ((4, 3), (4, 7), (5, 5), (6, 0), (6, 9), (7, 13)):
        yield from_monomial(make_field(n), d)
    for n in (3, 4, 5, 6, 7):
        yield modified_inverse(n)
    spec = make_field(6)
    for gamma in zieve_gamma_candidates(spec):
        yield zieve_binomial(spec, gamma)
    for n in (4, 7):
        for c in (0, 1, 5):
            yield SBox(make_field(n), np.full(2**n, c))


def _engine_rows(f):
    """{a: (BCT row, DDT row, orbit size)} for the representatives a."""
    rows = {}
    for a, size, block, ddt_rows, ddt_max in tables._orbit_rows(f):
        assert ddt_max == ddt_rows.max()
        for i, r in enumerate(a.tolist()):
            rows[r] = block[i].copy(), ddt_rows[i].copy(), int(size[i])
    return rows


def test_orbit_rows_are_column_permutations_of_every_member():
    # T(c a^(2^k), b) = T(a, (b c^-e)^(2^(n-k))) for c in U, and the same
    # for the DDT: each representative's row, permuted, is every member's
    # row; the orbits cover the shifts a != 0 once, and each is as large as
    # reported. The fields keep their orbits, so each map is checked with
    # its field's orbits computed afresh and then as kept
    for f, warm in itertools.product(_symmetric_corpus(), (False, True)):
        spec, n, M = f.spec, f.spec.n, f.spec.size - 1
        if not warm:
            spec._orbits.clear()
        sym = tables._symmetry(f)
        assert sym.frobenius or sym.order > 1, f
        t, dt = bct_system(f).counts, _literal_ddt(f)
        log, exp = spec._tables()
        bs, seen = np.arange(spec.size), set()
        engine_rows = _engine_rows(f)
        assert (sym.order, sym.frobenius) in spec._orbits and engine_rows
        for r, (row, drow, size) in engine_rows.items():
            members = set()
            for c in exp[:: M // sym.order].tolist():
                scaled = spec.mul_vec(bs, spec.inv(spec.pow(c, sym.e)))
                for k in range(n if sym.frobenius else 1):
                    a = spec.mul(c, spec.pow(r, 2**k))
                    cols = spec.pow_vec(scaled, 2 ** (n - k))
                    assert np.array_equal(t[a], row[cols]), (f, r, a)
                    assert np.array_equal(dt[a], drow[cols]), (f, r, a)
                    members.add(a)
            assert min(members) == r and len(members) == size and not members & seen
            seen |= members
        assert seen == set(range(1, spec.size))


def test_symmetry_rejects_unstructured_maps(rng):
    # random permutations, and affine images A2 o f o A1 of the modified
    # inverse; a translate with g(0) = 0 passes the O(1) pre-check, so its
    # scaling candidates reach the table comparison
    for n in (4, 6, 8, 10):
        spec = make_field(n)
        f = modified_inverse(n)
        assert tables._symmetry(f) == (True, 1, 0)
        for _ in range(3):
            g = affine_apply(random_affine_permutation(spec, rng), f, "pre")
            g = affine_apply(random_affine_permutation(spec, rng), g, "post")
            for h in (g, SBox(spec, g.table ^ g.table[0]), random_permutation(spec, rng)):
                assert tables._symmetry(h) == (False, 1, 0), (n, h.table[:4])


def _table_report(f):
    return (tables._peak(ddt(f).counts[1:, :], 1, 0), tables._peak(bct_fast(f).counts[1:, 1:], 1, 1))


def test_orbit_uniformity_matches_the_full_tables(monkeypatch):
    # the least a reaching a maximum is an orbit's least element, so the
    # values and first row-major witnesses are the tables'; no table is built
    funcs = [modified_inverse(n) for n in range(3, 11)]
    for n in (6, 10):  # GF(q^2) for q = 8 and 32
        spec = make_field(n)
        funcs.append(zieve_binomial(spec, zieve_gamma_candidates(spec)[0]))
    expected = [_table_report(f) for f in funcs]

    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(tables, "bct", refuse)
    monkeypatch.setattr(tables, "ddt", refuse)
    for f, ((delta, ddt_arg), (boom, bct_arg)) in zip(funcs, expected):
        rep = boomerang_uniformity(f)
        assert rep == tables.UniformityReport(delta, boom, ddt_arg, bct_arg, "fast"), f
    monkeypatch.undo()
    # constants tie every row, so the first row-major witness is the test
    for f in _symmetric_corpus():
        (delta, ddt_arg), (boom, bct_arg) = _table_report(f)
        rep = tables._orbit_report(f, "row")
        assert rep == tables.UniformityReport(delta, boom, ddt_arg, bct_arg, "row"), f


def _literal_ddt(f):
    N, t = f.spec.size, f.table
    return np.array([np.bincount(t ^ t[np.arange(N) ^ a], minlength=N) for a in range(N)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_power_path_matches_oracles(n):
    # every x^d, d = 0 .. 2^n: non-permutations, and the constant x^0 and
    # linear x^(2^i), whose derivative has one fibre of all 2^n inputs
    spec = make_field(n)
    for d in range(spec.size + 1):
        f = from_monomial(spec, d)
        t = bct_system(f).counts
        assert np.array_equal(bct_fast(f).counts, t), d
        assert np.array_equal(ddt(f).counts, _literal_ddt(f)), d
        for a in (0, 1, 2, spec.size - 1):
            assert np.array_equal(bct_row(f, a), t[a]), (d, a)
    # the other one-orbit maps take the same rotation: c x^d, and every
    # nonzero constant c x^0
    scales, exponents = {2, 3, spec.size - 1}, range(spec.size + 1)
    funcs = [_scaled_monomial(spec, c, d) for c in scales for d in exponents]
    funcs += [SBox(spec, np.full(spec.size, c)) for c in range(1, spec.size)]
    for f in funcs:
        assert tables._symmetry(f).order == spec.size - 1
        assert np.array_equal(bct_fast(f).counts, bct_system(f).counts), f.table
        assert np.array_equal(ddt(f).counts, _literal_ddt(f)), f.table


def test_power_map_rows_are_rescaled_row_one():
    # the identity the power path rotates by: T(a, b) = T(1, b * a^-d)
    for n, d in ((4, 3), (4, 7), (5, 5), (5, 30), (6, 9), (6, 0), (6, 63)):
        spec = make_field(n)
        f = from_monomial(spec, d)
        for t in (bct_system(f).counts, _literal_ddt(f)):
            for a in range(1, spec.size):
                scale = spec.inv(spec.pow(a, d))
                cols = [spec.mul(b, scale) for b in range(spec.size)]
                assert np.array_equal(t[a], t[1][cols]), (n, d, a)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_power_map_ddt_is_row_one_rotated(monkeypatch, n):
    # every x^d, d = 0 .. 2^n - 1: x^0, x^(2^n-1) and the exponents with
    # gcd(d, 2^n - 1) > 1, which give no permutation; each goes through
    # the rotation by e = d mod 2^n - 1 (x^(2^n-1) by 0, as x^0) and
    # equals the bincount of every row
    spec = make_field(n)
    power_rows, rotated = tables._power_rows, []

    def counted(f, e, *rest):
        rotated.append(e)
        return power_rows(f, e, *rest)

    monkeypatch.setattr(tables, "_power_rows", counted)
    for d in range(spec.size):
        f = from_monomial(spec, d)
        assert np.array_equal(ddt(f).counts, _literal_ddt(f)), d
    assert rotated == [d % (spec.size - 1) for d in range(spec.size)]


def _kernel_branches(monkeypatch):
    # counts the buckets the row kernel sends to the transform and the
    # pairs its walk yields
    seen = {"transforms": 0, "pairs": 0}
    bucket_transforms, equal_pairs = tables._add_bucket_transforms, tables._equal_pairs

    def transform(out, ks, fr):
        seen["transforms"] += np.unique(ks).size
        return bucket_transforms(out, ks, fr)

    def walk(ks):
        for i, j in equal_pairs(ks):
            seen["pairs"] += i.size
            yield i, j

    monkeypatch.setattr(tables, "_add_bucket_transforms", transform)
    monkeypatch.setattr(tables, "_equal_pairs", walk)
    return seen


@pytest.mark.parametrize("N", [8, 64, 512])
def test_fibre_pair_row_matches_literal_count(monkeypatch, rng, N):
    # bct_row, the row of fibre-pair counts, against the literal count of
    # pairs (y, y') in one fibre of D(y) = f(y+a) + f(y) at f(y) + f(y'),
    # on maps with values in 1, 3, 20 and 2^n classes: fibres small (pair
    # branch) and, for the constant map from GF(2^6) on, large (transform
    # branch)
    spec, idx = make_field(N.bit_length() - 1), np.arange(N)
    seen = _kernel_branches(monkeypatch)
    for classes in (1, 3, 20, N):
        levels = rng.choice(N, min(classes, N), replace=False)
        values = levels[rng.integers(0, levels.size, N)]
        for a in (0, 1, 2, N // 2 + 1, N - 1):
            D = values ^ values[idx ^ a]
            same = D[:, None] == D[None, :]
            expected = np.bincount((values[:, None] ^ values[None, :])[same], minlength=N)
            assert np.array_equal(bct_row(SBox(spec, values), a), expected), (classes, a)
    assert seen["pairs"] > 0 and (seen["transforms"] > 0) == (N > 8)


def test_bct_known_values():
    assert bct_fast(modified_inverse(6)).max_nonzero() == 10
    assert bct_naive(modified_inverse(6)).max_nonzero() == 10
    assert bct_fast(kasami(6, 2)).max_nonzero() == 4


def test_boomerang_uniformity_reports():
    rep = boomerang_uniformity(gold(5, 1))
    assert rep.boomerang_uniformity == 2
    assert rep.differential_uniformity == 2
    a, b = rep.bct_argmax
    assert a != 0 and b != 0
    assert boomerang_uniformity(btt(2, 4)).boomerang_uniformity == 4
    assert boomerang_uniformity(modified_inverse(3)).boomerang_uniformity == 8
    assert boomerang_uniformity(modified_inverse(4)).boomerang_uniformity == 6


def _generic_corpus(rng, n):
    """Maps at dimension n that are not x^d, most with no symmetry (the constant has one)."""
    spec = make_field(n)
    g = gold(n, 1) if n > 2 else random_permutation(spec, rng)
    g = affine_apply(random_affine_permutation(spec, rng), g, "pre")
    g = affine_apply(random_affine_permutation(spec, rng), g, "post")
    tables_ = (random_permutation(spec, rng).table, rng.integers(0, spec.size, spec.size),
               rng.integers(0, 4, spec.size), np.full(spec.size, 3 % spec.size),
               np.arange(spec.size) & 3, g.table)
    return [SBox(spec, t) for t in tables_]


@pytest.mark.parametrize("block", [1, 1 << 17])
def test_generic_uniformity_matches_the_table_peaks(monkeypatch, rng, block):
    # one row per block at _BLOCK = 1, so a maximum tied across blocks must
    # keep the first witness; small images and x & 3 tie many maxima
    monkeypatch.setattr(tables, "_BLOCK", block)
    for n in range(2, 11 if block > 1 else 10):  # a row per block takes seconds at n = 10
        funcs = [f for f in _generic_corpus(rng, n) if not _takes_table_route(f)]
        assert len(funcs) >= 5  # x & 3 is the identity at n = 2
        assert any(tables._symmetry(f) == (False, 1, 0) for f in funcs)  # trivial orbits
        expected = [_table_report(f) for f in funcs]
        with monkeypatch.context() as m:
            m.setattr(tables, "bct", lambda *a, **k: pytest.fail("bct called"))
            m.setattr(tables, "ddt", lambda *a, **k: pytest.fail("ddt called"))
            for f, ((delta, ddt_arg), (boom, bct_arg)) in zip(funcs, expected):
                rep = boomerang_uniformity(f)
                assert rep == tables.UniformityReport(delta, boom, ddt_arg, bct_arg, "fast"), f


def test_generic_uniformity_matches_the_system_oracle(rng):
    for n in range(2, 7):
        for f in _generic_corpus(rng, n):
            rep = boomerang_uniformity(f, algorithm="system")
            assert boomerang_uniformity(f) == dataclasses.replace(rep, algorithm="fast"), f


def test_boomerang_uniformity_builds_no_ddt_after_bct_fast(monkeypatch, rng):
    funcs = [random_permutation(make_field(7), rng), modified_inverse(6),
             SBox(make_field(6), rng.integers(0, 64, 64))]
    oracle = [boomerang_uniformity(f, algorithm="system") for f in funcs]

    def refuse(f):
        raise AssertionError("ddt called")

    monkeypatch.setattr(tables, "ddt", refuse)
    for f, rep in zip(funcs, oracle):
        assert boomerang_uniformity(f) == dataclasses.replace(rep, algorithm="fast")
    # the oracles and power maps carry no DDT peak and still build the DDT
    with pytest.raises(AssertionError, match="ddt called"):
        boomerang_uniformity(funcs[0], algorithm="system")
    with pytest.raises(AssertionError, match="ddt called"):
        boomerang_uniformity(gold(5, 1))


def test_symmetry_is_found_once_per_sbox(monkeypatch):
    # routing, bct_fast and ddt each ask for the symmetry of x^3 over
    # GF(2^5); only the search squares the field (one mul_vec call)
    f = gold(5, 1)
    want = dataclasses.replace(boomerang_uniformity(f, "system"), algorithm="fast")
    squarings = []
    mul_vec = FieldSpec.mul_vec

    def counted(self, a, b):
        squarings.append(1)
        return mul_vec(self, a, b)

    monkeypatch.setattr(FieldSpec, "mul_vec", counted)
    g = gold(5, 1)
    assert boomerang_uniformity(g, "fast") == want
    assert len(squarings) == 1
    assert tables._symmetry(g) is g._sym and len(squarings) == 1


def test_monomial_shortcut_examples():
    spec = make_field(4)
    assert monomial_boomerang_uniformity(spec, 1).boomerang_uniformity == 16
    # x^7 over GF(2^4) is linear-equivalent to the inverse map (x^14 = x^7 o x^2),
    # whose boomerang uniformity at n = 0 mod 4 is 6; one published table lists
    # this cell as 4, which is its DDT uniformity instead.
    rep = monomial_boomerang_uniformity(spec, 7)
    assert rep.boomerang_uniformity == 6
    assert rep.differential_uniformity == 4


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_monomial_shortcut_matches_full_table(n):
    spec = make_field(n)
    for d in range(spec.size - 1):
        short = monomial_boomerang_uniformity(spec, d)
        full = boomerang_uniformity(from_monomial(spec, d))
        assert short.boomerang_uniformity == full.boomerang_uniformity
        assert short.differential_uniformity == full.differential_uniformity
        assert short.bct_argmax == full.bct_argmax
        assert short.ddt_argmax == full.ddt_argmax


def test_quadratic_bound_all_gold_permutations():
    for n in range(3, 9):
        for i in range(1, n):
            f = gold(n, i)
            if f.is_permutation():
                assert quadratic_bound_check(f)
    # the two published anchors
    rep = boomerang_uniformity(gold(6, 2))
    assert rep.differential_uniformity == 4
    assert 4 <= rep.boomerang_uniformity <= 12
    rep = boomerang_uniformity(gold(5, 1))
    assert rep.boomerang_uniformity == rep.differential_uniformity == 2


def _literal_degree(f):
    # the largest weight of a u whose ANF coefficient, the XOR of f(x) over
    # the x covered by u, is nonzero
    x = np.arange(f.spec.size)
    return max(u.bit_count() for u in range(f.spec.size)
               if np.bitwise_xor.reduce(f.table[x & u == x]))


def test_quadratic_bound_check_refuses_maps_outside_its_precondition(rng):
    # the bound holds for quadratic permutations: the degree comes from one
    # XOR Moebius transform of the table, checked against the literal ANF
    spec7 = make_field(7)
    quadratic = [gold(5, 1), gold(6, 2), gold(7, 3)]
    quadratic += [affine_apply(random_affine_permutation(spec7, rng), gold(7, i), side)
                  for i, side in ((1, "pre"), (2, "post"))]
    for f in quadratic:
        assert tables._algebraic_degree(f) == _literal_degree(f) == 2, f
        assert quadratic_bound_check(f), f
    for f, degree in ((inverse_fn(5), 4), (kasami(7, 3), 4), (modified_inverse(6), 5),
                      (random_permutation(spec7, rng), 6)):
        assert tables._algebraic_degree(f) == _literal_degree(f) == degree, f
        with pytest.raises(ValueError, match=f"algebraic degree at most 2, got {degree}"):
            quadratic_bound_check(f)
    with pytest.raises(ValueError, match="permutations only"):
        quadratic_bound_check(gold(6, 1))  # x^3 over GF(2^6): 3 divides 63


def _quadratic_bct_row(f, a):
    """T(a, .) of a map of algebraic degree at most 2, as a sum of DDT rows.

    D_a f is affine, so D_a f(x) = D_a f(y) exactly when x + y lies in
    K_a = {z : D_a f(z) = D_a f(0)}, and T(a, b) is the sum over z in K_a
    of DDT(z, b), each row counted literally. Returns the row and K_a.
    """
    N, t = f.spec.size, f.table
    x = np.arange(N)
    D = t ^ t[x ^ a]
    K = np.flatnonzero(D == D[0])
    return sum(np.bincount(t ^ t[x ^ z], minlength=N) for z in K), K


def test_quadratic_bct_rows_are_sums_of_ddt_rows(rng):
    # Gold maps between random affine permutations, quadratic with no
    # detected symmetry, so the kernel counts each row with no rotation;
    # every nonzero count of DDT(a, .) is |K_a| (2, 4 and 16 here)
    for n, i in ((13, 1), (14, 2), (12, 4)):
        spec = make_field(n)
        f = affine_apply(random_affine_permutation(spec, rng), gold(n, i), "pre")
        f = affine_apply(random_affine_permutation(spec, rng), f, "post")
        assert tables._symmetry(f) == (False, 1, 0)
        for a in rng.choice(np.arange(1, spec.size), 16, replace=False):
            row, K = _quadratic_bct_row(f, a)
            assert np.array_equal(row, bct_row(f, a)), (n, i, a)
            counts = np.bincount(f.table ^ f.table[np.arange(spec.size) ^ a])
            assert set(counts[counts > 0]) == {K.size} == {2 ** math.gcd(n, i)}, (n, i, a)


# -- invariants ---------------------------------------------------------------------


def test_all_entries_even(rng):
    for n in (3, 4, 5):
        spec = make_field(n)
        for _ in range(4):
            f = SBox(spec, rng.integers(0, spec.size, spec.size))
            assert (bct_fast(f).counts % 2 == 0).all()
            assert (ddt(f).counts % 2 == 0).all()


def test_bct_dominates_ddt_on_permutations(rng):
    for n in (3, 4, 5):
        spec = make_field(n)
        for _ in range(5):
            f = random_permutation(spec, rng)
            assert (
                bct_fast(f).counts[1:, 1:] >= ddt(f).counts[1:, 1:]
            ).all()


def test_bct_boundary_rows_for_permutations(rng):
    f = random_permutation(make_field(4), rng)
    t = bct_fast(f).counts
    assert (t[0, :] == 16).all()
    assert (t[:, 0] == 16).all()


def test_inverse_transposes_bct(rng):
    for n in (3, 4, 5):
        spec = make_field(n)
        for _ in range(4):
            f = random_permutation(spec, rng)
            tf = bct_fast(f).counts
            tg = bct_fast(inverse_table(f)).counts
            assert np.array_equal(tf, tg.T)


def test_solution_structure_closure(rng):
    # solutions come in orbits (x,y), (y,x), (x+a,y+a), (y+a,x+a)
    spec = make_field(4)
    f = random_permutation(spec, rng)
    t = bct_fast(f).counts
    checked = 0
    for a in range(1, 8):
        for b in range(1, 8):
            sols = system_solutions(f, a, b)
            assert len(sols) == t[a, b]
            sset = set(sols)
            for x, y in sols:
                assert (y, x) in sset
                assert (x ^ a, y ^ a) in sset
                assert (y ^ a, x ^ a) in sset
            checked += len(sols)
    assert checked > 0


def test_representation_independence():
    # same uniformities under a different irreducible polynomial
    alternates = {4: 0x19, 6: 0x6D, 8: 0x12D}
    for n, red in alternates.items():
        default = make_field(n)
        other = FieldSpec(n, red)
        for build in (
            lambda s: inverse_fn(n, s),
            lambda s: modified_inverse(n, s),
            lambda s: gold(n, 2, s),
        ):
            f0, f1 = build(default), build(other)
            r0, r1 = boomerang_uniformity(f0), boomerang_uniformity(f1)
            assert r0.boomerang_uniformity == r1.boomerang_uniformity
            assert r0.differential_uniformity == r1.differential_uniformity


def test_bct_fast_matches_system_on_degenerate_maps(rng):
    # buckets of three or more representatives exercise the pair decode
    for n in range(2, 8):
        spec = make_field(n)
        idx = np.arange(spec.size)
        for table in (np.zeros(spec.size, dtype=int), idx, idx & 3, idx >> 1,
                      rng.integers(0, 2, spec.size), rng.integers(0, spec.size, spec.size)):
            f = SBox(spec, table)
            assert np.array_equal(bct_fast(f).counts, bct_system(f).counts)


def test_constant_bucket_takes_the_walk_or_the_transform(monkeypatch):
    # a constant map has one bucket of m = 2^(n-1) representatives per row
    # a. At n = 4, m^2 = n 2^n sits on the transform rule, so the walk
    # takes the bucket's pairs of row 1 (the constant 3 is one orbit, so
    # its other rows are rotated) in one step per offset, up to m - 1; at
    # n = 5, m^2 > n 2^n, and every row a != 0 of the constant 0, which
    # has no scaling symmetry, takes the transform
    equal_pairs, offsets = tables._equal_pairs, []

    def counted(ks):
        for i, j in equal_pairs(ks):
            offsets.append(int((j - i).max()))
            yield i, j

    monkeypatch.setattr(tables, "_equal_pairs", counted)
    f = SBox(make_field(4), [3] * 16)
    assert np.array_equal(bct_fast(f).counts, bct_system(f).counts)
    assert max(offsets) == 2**3 - 1
    seen = _kernel_branches(monkeypatch)
    f = SBox(make_field(5), [0] * 32)
    assert np.array_equal(bct_fast(f).counts, bct_system(f).counts)
    assert seen == {"transforms": 31, "pairs": 0}


def test_equal_pairs_matches_combinations(rng):
    # every unordered pair of equal keys once, one step per offset up to
    # the longest run
    cases = [np.array([], dtype=np.int64), np.array([7]), np.full(6, 3)]
    for k in (1, 3, 8):
        cases.append(np.repeat(np.sort(rng.choice(50, k, replace=False)), rng.integers(1, 10, k)))
    for ks in cases:
        steps = list(tables._equal_pairs(ks))
        got = sorted((int(i), int(j)) for I, J in steps for i, j in zip(I, J))
        expect = [(i, j) for i, j in itertools.combinations(range(ks.size), 2) if ks[i] == ks[j]]
        assert got == expect
        longest = max((len(list(g)) for _, g in itertools.groupby(ks.tolist())), default=1)
        assert len(steps) == longest - 1


def _row_from_representative_pairs(f, a):
    # T(a, .) = DDT(a, .) + N at b = 0 + 4 at f(r)+f(r') and at
    # f(r)+f(r')+beta for each unordered pair {r, r'} of representatives
    # r < r+a in one fibre beta of D_a, as literal Python loops. The pairs
    # of a fibre are counted by value: h(u) h(v) pairs take the values
    # {u, v}, u != v, and C(h(u), 2) take u twice, so a fibre of few values
    # costs no more than its values squared
    N, t = f.spec.size, f.table.tolist()
    row = [0] * N
    for y in range(N):
        row[t[y] ^ t[y ^ a]] += 1
    row[0] += N
    fibres = {}
    for r in range(N):
        if r < r ^ a:
            h = fibres.setdefault(t[r] ^ t[r ^ a], {})
            h[t[r]] = h.get(t[r], 0) + 1
    for beta, h in fibres.items():
        for (u, hu), (v, hv) in itertools.combinations_with_replacement(h.items(), 2):
            pairs = hu * hv if u != v else hu * (hu - 1) // 2
            row[u ^ v] += 4 * pairs
            row[u ^ v ^ beta] += 4 * pairs
    return row


def test_bct_rows_from_representative_pairs_of_derivative_fibres(rng):
    # the identity the generic bct_fast pass counts by
    for n in (3, 4, 5, 6):
        spec = make_field(n)
        funcs = [random_permutation(spec, rng), SBox(spec, rng.integers(0, spec.size, spec.size)),
                 modified_inverse(n), SBox(spec, np.zeros(spec.size, dtype=int))]
        for f in funcs:
            expect = bct_system(f).counts
            for a in range(1, spec.size):
                assert _row_from_representative_pairs(f, a) == expect[a].tolist(), (n, a)


def test_bct_blocks_keep_packed_keys_in_32_bits(monkeypatch):
    # the kernel packs (row, beta, f(r)) into one uint32 below rows * 4^n,
    # so no block may hold more than 2^(32 - 2n) rows: the cap binds at
    # n = 15 (4 rows, not 8) and n = 16 (one row, not 4). The BCT stage is
    # stubbed; the count stage blocks every row to n = 10, and past that
    # the first and last 64 rows of every top bit, which fill whole blocks
    sizes = []

    def kernel(out, ddt_rows, frep, key):
        n = out.shape[1].bit_length() - 1
        assert out.dtype == tables._fast_dtype(n) and ddt_rows.shape == out.shape
        assert key.dtype == np.uint32 and key.shape == (out.shape[0], out.shape[1] // 2)
        sizes.append(out.shape[0])
        return 0

    monkeypatch.setattr(tables, "_bct_rows", kernel)
    widest = {}
    for n in range(2, 17):
        N, sizes[:] = 2**n, []
        if n <= 10:
            rows = np.arange(1, N)
        else:
            rows = np.unique([r for k in range(n) for r in (*range(1 << k, min(2 << k, (1 << k) + 64)),
                                                              *range(max(1 << k, (2 << k) - 64), 2 << k))])
        blocks = []
        for a, block, ddt_rows, _ in tables._bct_blocks(np.zeros(N, dtype=np.int64), rows):
            assert block.shape == (a.size, N) and ddt_rows.shape == (a.size, N)
            assert (a >> int(a[0]).bit_length() - 1 == 1).all()  # one top bit
            blocks.append(a)
        assert np.array_equal(np.concatenate(blocks), rows)
        assert sizes == [a.size for a in blocks]
        assert all(size << 2 * n <= 2**32 for size in sizes), n
        widest[n] = max(sizes)
    assert [widest[n] for n in range(10, 17)] == [256, 128, 64, 32, 16, 4, 1]


@pytest.mark.parametrize("n, rows", [(14, 16), (15, 4), (16, 1)])
def test_row_kernel_at_the_32_bit_key_bound(monkeypatch, rng, n, rows):
    # the top rows of a GF(2^n), whose packed keys come closest to 2^32: a
    # full block at n = 14, a block capped at 4 rows at n = 15 and one row
    # at n = 16, against the literal count. A random permutation's pairs
    # go through the walk, a 3-valued map's buckets through the transform
    spec = make_field(n)
    seen = _kernel_branches(monkeypatch)
    levels = rng.choice(spec.size, 3, replace=False)
    for f in (random_permutation(spec, rng), SBox(spec, levels[rng.integers(0, 3, spec.size)])):
        ((a, block, _, _),) = tables._bct_blocks(f.table, np.arange(spec.size - rows, spec.size))
        for i in range(rows):
            assert block[i].tolist() == _row_from_representative_pairs(f, int(a[i])), (n, a[i])
    assert seen["pairs"] > 0 and seen["transforms"] > 0


def test_row_kernel_adds_the_cells_of_pair_heavy_blocks_in_parts(monkeypatch, rng):
    # a 4-valued map of GF(2^8): a row's fibres hold about 16-32
    # representatives, below the transform's m^2 > n 2^n, so the walk
    # yields several pairs per derivative value, and some block's held
    # cells reach its values and are added before the walk ends
    spec = make_field(8)
    levels = rng.choice(spec.size, 4, replace=False)
    f = SBox(spec, levels[rng.integers(0, 4, spec.size)])
    seen = _kernel_branches(monkeypatch)
    assert np.array_equal(bct_fast(f).counts, bct_system(f).counts)
    assert seen["pairs"] > 4 * (spec.size - 1) * spec.size // 2


def test_pair_heavy_blocks_stay_below_the_peak_estimate(rng):
    # a 4-valued map of GF(2^10) yields about 20 pairs per derivative
    # value; held to the end of each walk, their cells would take several
    # times the estimate's 160 bytes per value
    spec = make_field(10)
    levels = rng.choice(spec.size, 4, replace=False)
    f = SBox(spec, levels[rng.integers(0, 4, spec.size)])
    tracemalloc.start()
    try:
        bct_fast(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= tables._fast_peak_bytes(10)


def _literal_bct_row(f, a):
    # T(a, b) = #{(x, y) : f(x)+f(y) = b = f(x+a)+f(y+a)}, counted as it
    # reads: a block of x against every y, O(4^n) steps and one block of
    # about 2^20 pairs in memory. No fibre, derivative or representative
    # enters, so it checks the row kernel independently past the oracles' cap
    N, t = f.spec.size, f.table
    ta = t[np.arange(N) ^ a]
    row = np.zeros(N, dtype=np.int64)
    per = max(1, (1 << 20) // N)
    for x0 in range(0, N, per):
        b = t[x0 : x0 + per, None] ^ t
        row += np.bincount(b[b == ta[x0 : x0 + per, None] ^ ta], minlength=N)
    return row


def test_row_kernel_matches_the_literal_count_past_the_oracles(rng):
    # n = 13, where bct_naive and bct_system refuse: the least orbit
    # representative and both witness rows of _orbit_report against the
    # literal count, and the witnessed values against those rows and a
    # literal DDT count. The modified inverse has Frobenius orbits, the
    # Kasami map one orbit, and a random permutation none
    spec = make_field(13)
    for f in (modified_inverse(13), kasami(13, 3), random_permutation(spec, rng)):
        report = tables._orbit_report(f, "fast")
        (a_bct, b_bct), (a_ddt, b_ddt) = report.bct_argmax, report.ddt_argmax
        for a in sorted({1, a_bct, a_ddt}):
            literal = _literal_bct_row(f, a)
            assert np.array_equal(bct_row(f, a), literal), (f, a)
            if a == a_bct:
                assert literal[b_bct] == literal[1:].max() == report.boomerang_uniformity
        D = f.table ^ f.table[np.arange(spec.size) ^ a_ddt]
        assert np.count_nonzero(D == b_ddt) == report.differential_uniformity


def test_row_kernel_matches_the_literal_count_at_n_14(rng):
    # one row of a random permutation of GF(2^14), two past the oracles'
    # cap, against the O(4^n) literal count (about 1 s)
    f = random_permutation(make_field(14), rng)
    assert np.array_equal(bct_row(f, 1), _literal_bct_row(f, 1))


def test_bct_fast_does_not_depend_on_block_size(monkeypatch, rng):
    # one c per block against the default, which holds every c of a top
    # bit in one block at n = 8
    funcs = [random_permutation(make_field(8), rng), SBox(make_field(8), np.arange(256) & 3)]
    whole = [bct_fast(f).counts for f in funcs]
    monkeypatch.setattr(tables, "_BLOCK", 1)
    for f, expect in zip(funcs, whole):
        assert np.array_equal(bct_fast(f).counts, expect)
    assert np.array_equal(whole[1], bct_system(funcs[1]).counts)


def _identity_corpus(rng):
    for n in (3, 4, 5, 6):
        spec = make_field(n)
        yield random_permutation(spec, rng)
        yield SBox(spec, rng.integers(0, spec.size, spec.size))
    yield inverse_fn(4)
    yield modified_inverse(5)
    yield kasami(6, 2)


def test_bct_row_zero_is_ddt_column_sums(rng):
    for f in _identity_corpus(rng):
        assert np.array_equal(bct_system(f).counts[0], ddt(f).counts.sum(axis=0))


def test_bct_congruent_to_ddt_mod_4(rng):
    for f in _identity_corpus(rng):
        t, d = bct_system(f).counts[1:, 1:], ddt(f).counts[1:, 1:]
        assert ((t - d) % 4 == 0).all()


def test_bct_equals_ddt_off_boundary_when_apn():
    # x^3 is APN for every n and a permutation only for odd n
    funcs = [from_monomial(make_field(n), 3) for n in (3, 4, 5, 6)]
    funcs += [inverse_fn(5), gold(5, 2), gold(7, 3)]
    assert not funcs[1].is_permutation() and not funcs[3].is_permutation()
    for f in funcs:
        d = ddt(f)
        assert differential_uniformity(d) == 2
        assert np.array_equal(bct_system(f).counts[1:, 1:], d.counts[1:, 1:])


def test_bct_fast_enumerates_no_pair_for_apn_maps(monkeypatch, rng):
    # an APN map that is not a power map, so the generic builder runs
    f = affine_apply(random_affine_permutation(make_field(7), rng), gold(7, 3), "post")
    assert tables._symmetry(f).order < f.spec.size - 1
    expect = bct_system(f).counts
    equal_pairs, callers, pairs = tables._equal_pairs, [], []

    def counted(ks):
        callers.append(sys._getframe(1).f_code.co_name)
        pairs.extend(i.size for i, _ in equal_pairs(ks))
        return equal_pairs(ks)

    monkeypatch.setattr(tables, "_equal_pairs", counted)
    assert np.array_equal(bct_fast(f).counts, expect)
    # every block goes through the row kernel, and no block yields a pair
    assert callers and set(callers) == {"_bct_rows"} and sum(pairs) == 0


@pytest.mark.parametrize("block", [1, 256, None])
def test_bucket_transforms_batch_buckets_and_rows(monkeypatch, rng, block):
    # maps with values in 1, 2 and 3 classes have one to four large buckets
    # per row; at _BLOCK = 1 each bucket is its own transform chunk, at 256
    # a chunk holds buckets of several rows, and by default the whole block
    if block is not None:
        monkeypatch.setattr(tables, "_BLOCK", block)
    seen = _kernel_branches(monkeypatch)
    for n in (5, 6, 7):
        N = 2**n
        for classes in (1, 2, 3):
            levels = rng.choice(N, classes, replace=False)
            f = SBox(make_field(n), levels[rng.integers(0, classes, N)])
            assert np.array_equal(bct_fast(f).counts, bct_system(f).counts), (n, classes)
            for a in (1, N // 2 + 1, N - 1):
                assert np.array_equal(bct_row(f, a), bct_system(f).counts[a]), (n, classes, a)
    assert seen["transforms"] > 0


def test_bct_fast_of_a_constant_map_is_closed_form(monkeypatch):
    # every pair (x, y) has f(x)+f(y) = 0 = f(x+a)+f(y+a): column 0 is
    # 4^n and every other cell 0. Each counted row's one bucket of 2^(n-1)
    # representatives takes the transform, so the walk yields no pair. The
    # constant 5 is one orbit, so only row 1 is counted and then rotated;
    # the constant 0 has no scaling symmetry (f(1) = 0), so every row is
    n = 10
    seen = _kernel_branches(monkeypatch)
    expect = np.zeros((2**n, 2**n), dtype=np.int64)
    expect[:, 0] = 4**n
    assert np.array_equal(bct_fast(SBox(make_field(n), np.full(2**n, 5))).counts, expect)
    assert seen == {"transforms": 1, "pairs": 0}
    seen["transforms"] = 0
    assert np.array_equal(bct_fast(SBox(make_field(n), np.zeros(2**n, dtype=int))).counts, expect)
    assert seen == {"transforms": 2**n - 1, "pairs": 0}


def test_bct_column_zero_of_permutation(rng):
    for n in (3, 4, 5, 6):
        f = random_permutation(make_field(n), rng)
        assert (bct_system(f).counts[:, 0] == 2**n).all()


def test_bct_fast_refuses_tables_over_the_memory_budget(monkeypatch):
    f = gold(5, 1)
    need = tables._fast_peak_bytes(5)
    monkeypatch.setattr(tables, "_memory_budget", lambda: need - 1)
    with pytest.raises(MemoryError, match=f"needs about {need} bytes"):
        bct_fast(f)
    monkeypatch.setattr(tables, "_memory_budget", lambda: need)
    assert bct_fast(f).max_nonzero() == 2


@pytest.mark.parametrize("builder", [bct_naive, bct_system], ids=["naive", "system"])
def test_oracles_refuse_tables_over_the_memory_budget(monkeypatch, builder):
    f = gold(5, 1)
    need = tables._oracle_peak_bytes(5)
    monkeypatch.setattr(tables, "_memory_budget", lambda: need - 1)
    with pytest.raises(MemoryError, match=f"{builder.__name__} at n = 5 needs about {need} bytes"):
        builder(f)
    monkeypatch.setattr(tables, "_memory_budget", lambda: need)
    assert builder(f).max_nonzero() == 2


def test_oracles_fill_through_the_one_fill_after_their_cost_cap(monkeypatch):
    # the oracles are row sources filled by _filled, the one allocator of a
    # table; their cost cap comes first, so n = 13 is refused by cost even
    # with no memory at all
    calls, filled = [], tables._filled

    def counted(builder, *args):
        calls.append(builder)
        return filled(builder, *args)

    monkeypatch.setattr(tables, "_filled", counted)
    f = gold(5, 1)
    assert bct_naive(f).max_nonzero() == bct_system(f).max_nonzero() == 2
    assert calls == ["bct_naive", "bct_system"]
    monkeypatch.setattr(tables, "_memory_budget", lambda: 0)
    for builder in (bct_naive, bct_system):
        with pytest.raises(ValueError, match="costs O\\(2\\^3n\\) steps"):
            builder(identity_sbox(make_field(13)))
    assert calls == ["bct_naive", "bct_system"]


def test_oracle_peak_estimate_covers_allocations(rng):
    # int32 counts hold the oracles to 21-23 bytes per cell from n = 8;
    # an int64 table would read 25-26
    for n in (6, 7, 8, 9):
        f = random_permutation(make_field(n), rng)
        for builder in (bct_naive, bct_system):
            tracemalloc.start()
            try:
                builder(f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= tables._oracle_peak_bytes(n), (builder.__name__, n)
            assert n < 9 or peak <= 24 * 4**n, (builder.__name__, peak / 4**n)


def _uniformity_peak(f, algorithm):
    tracemalloc.start()
    try:
        boomerang_uniformity(f, algorithm)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_route_peak_holds_both_tables_within_the_estimates(rng):
    # the table route holds the BCT and the DDT together at its end: on the
    # oracle routes the oracle's own peak stays the larger, and an x^d's
    # route adds one int32 BCT to the DDT's estimate
    f = random_permutation(make_field(8), rng)
    for algorithm in ("naive", "system"):
        assert _uniformity_peak(f, algorithm) <= tables._oracle_peak_bytes(8), algorithm
    for n in (8, 9):
        f = gold(n, 1)
        assert _takes_table_route(f)
        assert _uniformity_peak(f, "fast") <= tables._ddt_peak_bytes(n) + 4 * 4**n, n


def test_power_map_past_one_kernel_block_reads_row_one(monkeypatch):
    # exactly where the row kernel would need a second block for the whole
    # table (_rows_per_block(5) = 31 at _BLOCK = 511, 32 at 512),
    # boomerang_uniformity reads the power map off row 1, with the table
    # route's report
    f = gold(5, 1)
    report = boomerang_uniformity(f)

    def refuse(*args, **kwargs):
        raise AssertionError("table built")

    monkeypatch.setattr(tables, "bct", refuse)
    monkeypatch.setattr(tables, "ddt", refuse)
    monkeypatch.setattr(tables, "_BLOCK", 511)
    assert boomerang_uniformity(f) == report and report.algorithm == "fast"
    monkeypatch.setattr(tables, "_BLOCK", 512)
    with pytest.raises(AssertionError, match="table built"):
        boomerang_uniformity(f)


def test_power_maps_past_one_kernel_block_hold_no_table(monkeypatch):
    # past n = 9 every x^d is read off row 1, whatever the machine's memory,
    # with the report of the full tables
    funcs = [g(n) for n in (10, 11, 12) for g in (inverse_fn, lambda n: kasami(n, 5),
                                                   lambda n: gold(n, 1))]
    for f in funcs:  # x^d, one block short of the table route
        assert tables._symmetry(f).order == f.spec.size - 1 and f.table[1] == 1
        assert tables._rows_per_block(f.spec.n) < f.spec.size
    expected = [_table_report(f) for f in funcs]

    def refuse(*args, **kwargs):
        raise AssertionError("table built")

    monkeypatch.setattr(tables, "bct", refuse)
    monkeypatch.setattr(tables, "ddt", refuse)
    for f, ((delta, ddt_arg), (boom, bct_arg)) in zip(funcs, expected):
        rep = boomerang_uniformity(f)
        assert rep == tables.UniformityReport(delta, boom, ddt_arg, bct_arg, "fast"), f


def test_bct_fast_peak_estimate_covers_allocations(rng, monkeypatch):
    # numpy reports its buffers to tracemalloc; a pair-heavy map, a
    # random permutation, a power map's rotated rows, a constant map,
    # which takes the transform on every row a != 0, and a 3-valued map,
    # whose blocks hold about 1000 large buckets each, stay under the
    # estimate the preflight uses
    for f in (SBox(make_field(9), np.arange(512) & 3), random_permutation(make_field(11), rng),
              inverse_fn(10), SBox(make_field(10), np.zeros(1024, dtype=int)),
              SBox(make_field(10), rng.integers(0, 3, 1024))):
        tracemalloc.start()
        try:
            bct_fast(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tables._fast_peak_bytes(f.spec.n)
    # the kernel's blocks are int64 where 4^n overflows int32 (n = 16), and
    # each is converted into the int32 table as it comes: 4 bytes per cell
    # and one block of kernel temporaries at n = 16, here at n = 12
    assert tables._fast_peak_bytes(16) <= 4 * 4**16 + 160 * tables._BLOCK
    monkeypatch.setattr(tables, "_fast_dtype", lambda n: np.int64)
    f = random_permutation(make_field(12), rng)
    tracemalloc.start()
    try:
        t = bct_fast(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.counts.dtype == np.int32
    assert peak <= tables._fast_peak_bytes(12)


def test_bct_fast_refuses_an_int32_overflow_at_row_0(monkeypatch):
    # with the int32 limit lowered to 1000 the kernel's blocks are int64, as
    # at n = 16, and the constant 0 of GF(2^5), BCT(0, 0) = 4^5 = 1024, is
    # refused at row 0, its first block, before the kernel counts a row
    def kernel(*args):
        raise AssertionError("the kernel counted a row a != 0")

    monkeypatch.setattr(tables, "_INT32_MAX", 1000)
    monkeypatch.setattr(tables, "_bct_rows", kernel)
    assert tables._fast_dtype(5) == np.int64
    with pytest.raises(ValueError, match="count 1024 exceeds the int32 maximum 1000"):
        bct_fast(SBox(make_field(5), np.zeros(32, dtype=int)))


def test_row_kernel_keeps_a_count_past_int32_exact_at_n16():
    # f = 3 Tr(x) over GF(2^16) takes each of its two values 2^15 times, and
    # D_a f is the constant 3 Tr(a), so every pair (x, y) counts: T(a, 0) =
    # T(a, 3) = 2 (2^15)^2 = 2^31, one past the int32 maximum, at every a.
    # An int32 kernel block would wrap it
    spec = make_field(16)
    f = SBox(spec, 3 * spec.trace_vec(np.arange(spec.size)))
    expected = np.zeros(spec.size, dtype=np.int64)
    expected[[0, 3]] = 2**31
    for a in (1, 2, 12345):
        assert np.array_equal(bct_row(f, a), expected), a


def test_bct_0_0_is_the_largest_count(rng):
    # BCT(a, b) <= BCT(0, b) = sum over u of h(u) h(u+b) <= sum of h^2 =
    # BCT(0, 0), by Cauchy-Schwarz over the value histogram h: the bound
    # that lets bct_fast refuse at row 0 a table int32 cannot hold
    for n in (4, 6, 8):
        spec = make_field(n)
        N = spec.size
        levels = rng.choice(N, 3, replace=False)
        for f in (SBox(spec, np.zeros(N, dtype=int)), SBox(spec, levels[rng.integers(0, 3, N)]),
                  SBox(spec, np.arange(N) & 3), SBox(spec, rng.integers(0, N, N)),
                  random_permutation(spec, rng)):
            t = bct_system(f).counts
            assert t.max() == t[0, 0] == (np.bincount(f.table) ** 2).sum(), (n, f.table)
            assert (t <= t[0]).all(), (n, f.table)


def test_ddt_rows_are_the_kernel_counts_past_the_oracles(rng):
    # the DDT source reads the row kernel's count stage, 2 per
    # representative r of {r, r + a} at D_a(r): at n = 13, sampled rows of
    # the streamed DDT, the first and last of every top bit among them,
    # against the literal bincount of f(x + a) + f(x), on a random map, a
    # random permutation and a 3-valued map
    spec = make_field(13)
    N, x = spec.size, np.arange(spec.size)
    levels = rng.choice(N, 3, replace=False)
    for f in (SBox(spec, rng.integers(0, N, N)), random_permutation(spec, rng),
              SBox(spec, levels[rng.integers(0, 3, N)])):
        sample = {0, *rng.choice(N, 16).tolist()}
        sample |= {1 << k for k in range(13)} | {(2 << k) - 1 for k in range(13)}
        seen = set()
        for a0, block in tables._ddt_blocks(f):
            for a in sample & set(range(a0, a0 + len(block))):
                literal = np.bincount(f.table ^ f.table[x ^ a], minlength=N)
                assert np.array_equal(block[a - a0], literal), (f.table[:4], a)
                seen.add(a)
        assert seen == sample


def test_ddt_refuses_tables_over_the_memory_budget(monkeypatch):
    f = gold(5, 1)
    need = tables._ddt_peak_bytes(5)
    monkeypatch.setattr(tables, "_memory_budget", lambda: need - 1)
    with pytest.raises(MemoryError, match=f"ddt at n = 5 needs about {need} bytes"):
        ddt(f)
    monkeypatch.setattr(tables, "_memory_budget", lambda: need)
    assert differential_uniformity(ddt(f)) == 2


def test_ddt_peak_estimate_covers_allocations(rng):
    # the int32 table is kept by KTable without a copy; an int64 table or a
    # copy would exceed the estimate at this n; a power map as well
    for f in (SBox(make_field(10), np.zeros(1024, dtype=np.int64)), random_permutation(make_field(10), rng), inverse_fn(10)):
        tracemalloc.start()
        try:
            t = ddt(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.counts.dtype == np.int32
        assert peak <= tables._ddt_peak_bytes(10)


def _first_argmax(m):
    i, j = np.unravel_index(np.argmax(m), m.shape)
    return int(m[i, j]), (int(i), int(j))


@pytest.mark.parametrize("m", [
    np.array([[1, 7, 3], [7, 0, 7], [2, 7, 1]]),  # tied maxima
    np.full((3, 4), 5),  # all equal
    np.array([[3, 9, 9, 1]]),  # one row
    np.array([[2], [8], [8]]),  # one column
    np.array([[0, 1], [4, 2]]),
])
def test_peak_is_the_first_row_major_maximum(m):
    assert tables._peak(m, 0, 0) == _first_argmax(m)
    value, (a, b) = tables._peak(m, 1, 2)
    assert (value, (a - 1, b - 2)) == _first_argmax(m)


def test_peak_of_a_strided_view_copies_no_table(rng):
    counts = rng.integers(0, 6, (1024, 1024)).astype(np.int32)
    sub = counts[1:, 1:]
    tracemalloc.start()
    try:
        got = tables._peak(sub, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    value, (a, b) = _first_argmax(sub)
    assert got == (value, (a + 1, b + 1))
    assert peak < 64 * 1024  # the view is 4 MiB


# -- exports -----------------------------------------------------------------------


def test_ktable_validation():
    spec = make_field(3)
    with pytest.raises(ValueError):
        KTable(spec, "XXX", np.zeros((8, 8)), "t")
    with pytest.raises(ValueError):
        KTable(spec, "DDT", np.zeros((4, 8)), "t")


def test_ktable_refuses_counts_above_int32():
    spec = make_field(2)
    with pytest.raises(ValueError, match="count 4294967296 exceeds"):
        KTable(spec, "BCT", np.full((4, 4), 2**32), "x")
    top = KTable(spec, "BCT", np.full((4, 4), 2**31 - 1), "x")
    assert top.counts.dtype == np.int32
    assert int(top.counts[0, 0]) == 2**31 - 1


def test_csv_export():
    t = ddt(identity_sbox(make_field(2)))
    text = ktable_to_csv(t)
    lines = text.strip().split("\n")
    assert lines[0] == "a\\b,0,1,2,3"
    assert lines[1] == "0,4,0,0,0"
    assert len(lines) == 5


def _csv_chunks(corner, m):
    """The CSV chunks of an array, as one block of rows."""
    return tables._csv_chunks(corner, m.shape, tables._blocks_of(m))


def _csv_per_cell(corner, m):
    lines = [corner + "," + ",".join(str(v) for v in range(m.shape[1]))]
    lines += [f"{i}," + ",".join(str(int(v)) for v in row) for i, row in enumerate(m)]
    return "\n".join(lines) + "\n"


def test_matrix_csv_matches_str_per_cell(rng):
    f = random_permutation(make_field(8), rng)
    spectrum = walsh_spectrum(f).values
    assert spectrum.min() < 0
    const = SBox(make_field(5), [3] * 32)
    const_bct = bct_fast(const).counts
    assert int(const_bct.max()) - int(const_bct.min()) >= const_bct.size  # the str fallback
    cases = [
        ("a\\b", bct_fast(f).counts),
        ("u\\v", spectrum),
        ("a\\b", ddt(const).counts),
        ("a\\b", const_bct),
    ]
    for corner, m in cases:
        assert "".join(_csv_chunks(corner, m)) == _csv_per_cell(corner, m)


def _formatter_cases():
    """(corner, array) pairs for the text formatter, each an edge of its lookup.

    An array whose span of values is narrower than its size is looked up
    over the span, any other by each block's distinct values.
    """
    const_bct = bct_fast(SBox(make_field(5), [3] * 32)).counts
    assert int(const_bct.max()) - int(const_bct.min()) >= const_bct.size
    widths = [9, 10, 99, 100, -1, 0, -10]  # the digit width changes inside one block
    yield "a\\b", np.resize(widths, (12, 12))  # over the span
    yield "a\\b", np.resize(widths, (3, 3))  # by distinct values
    yield "a\\b", -np.arange(1, 13).reshape(3, 4)
    yield "a\\b", np.array([[-3, -1000, -7], [-42, -1, -5]])
    yield "a\\b", np.full((3, 4), 17)
    yield "a\\b", np.array([[5]])
    yield "a\\b", np.array([[4, -12, 0, 123456, 7]])
    yield "a\\b", np.array([[1], [-1], [100], [0]])
    yield "a\\b", const_bct
    yield "u\\v", walsh_spectrum(random_permutation(make_field(6), np.random.default_rng(6))).values


@pytest.mark.parametrize("chunk", [tables._CHUNK, 1], ids=["default", "one"])
def test_text_blocks_are_byte_identical_to_str_and_json_dumps(monkeypatch, chunk):
    # one gather of NUL-padded pieces per block, with the pad deleted,
    # against str per cell (CSV) and json.dumps (JSON)
    monkeypatch.setattr(tables, "_CHUNK", chunk)
    for corner, m in _formatter_cases():
        chunks = list(_csv_chunks(corner, m))
        assert "".join(chunks) == _csv_per_cell(corner, m)
        if chunk == 1:  # the header, then one block per row
            assert len(chunks) == m.shape[0] + 1
        arrays = {"counts": m, "flat": m.ravel(), "first": m.ravel()[:1]}
        expected = json.dumps({"schema": 1, **{k: v.ravel().tolist() for k, v in arrays.items()}},
                              indent=2) + "\n"
        payload = {"schema": 1, **{k: tables._blocks_of(v) for k, v in arrays.items()}}
        assert "".join(cli._json_pieces(payload)) == expected


def test_decimal_rows_lookup_is_no_larger_than_the_array():
    # the span [-5, 10^6] is wider than the array, so each block looks up
    # its distinct values
    wide = np.array([[0, 10**6], [-5, 7]], dtype=np.int64)
    tracemalloc.start()
    text = "".join(tables._text_blocks(tables._blocks_of(wide), ",", wide.shape[0]))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert text == "0,0,1000000\n1,-5,7\n"
    assert peak < 100_000  # a lookup over [-5, 10^6] would take tens of MB
    assert "".join(tables._text_blocks(tables._blocks_of(np.array([2, -1, 2])), ",")) == ",2,-1,2"


def _export_inputs(n):
    """A random permutation, a constant, a 3-valued map, x^3 and c x^d with c != 1."""
    spec = make_field(n)
    rng = np.random.default_rng(n)
    levels = rng.choice(spec.size, 3, replace=False)
    power = from_monomial(spec, 5 if n % 2 else 7)
    return {
        "permutation": random_permutation(spec, rng),
        "constant": SBox(spec, np.full(spec.size, spec.size - 1)),
        "3-valued": SBox(spec, levels[rng.integers(0, 3, spec.size)]),
        "x^3": from_monomial(spec, 3),
        "c x^d": SBox(spec, [spec.mul(3, int(v)) for v in power.table]),
    }


def _sha256(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("ascii"))
    return digest.hexdigest()


def _kept(blocks, copies):
    """The row source blocks, passed through, with a copy of each block kept in copies."""
    for first, block in blocks:
        copies.append((first, block.copy()))
        yield first, block


@pytest.mark.parametrize("n", range(2, 12))
def test_streamed_exports_equal_the_table_route(monkeypatch, n):
    # each row source streamed into text, a reused buffer a block at a time,
    # against the text of the table filled from it: CSV and JSON lists,
    # at the default _CHUNK and at one row per chunk. The source runs once:
    # its CSV is written live, and the other texts from copies of its blocks
    sources = {"ddt": (tables._ddt_blocks, lambda f: ddt(f).counts),
               "bct": (tables._bct_fast_blocks, lambda f: bct_fast(f).counts),
               "walsh": (_walsh_blocks, lambda f: walsh_spectrum(f).values)}
    for name, f in _export_inputs(n).items():
        for verb, (blocks, table) in sources.items():
            m = table(f)
            expected = (_sha256(_csv_chunks("a\\b", m)),
                        _sha256(tables._json_list_chunks(tables._blocks_of(m))))
            copies = []
            live = _sha256(tables._csv_chunks("a\\b", m.shape, _kept(blocks(f), copies)))
            for chunk in (tables._CHUNK, 1):
                with monkeypatch.context() as patch:
                    patch.setattr(tables, "_CHUNK", chunk)
                    streamed = (_sha256(tables._csv_chunks("a\\b", m.shape, copies)),
                                _sha256(tables._json_list_chunks(copies)))
                assert live == expected[0] and streamed == expected, (name, verb, chunk)


def test_row_sources_yield_every_row_once_in_order(monkeypatch, rng):
    # small blocks, so every source yields many, the last one short
    monkeypatch.setattr(tables, "_BLOCK", 3 * 2**6)
    monkeypatch.setattr("bctlab.walsh._BLOCK", 3 * 2**6)
    for name, f in _export_inputs(6).items():
        for blocks, m in ((tables._ddt_blocks, _literal_ddt(f)),
                          (tables._bct_fast_blocks, bct_system(f).counts),
                          (_walsh_blocks, walsh_spectrum(f).values)):
            firsts, rows = [], []
            for first, block in blocks(f):
                firsts.append(first)
                rows.append(block.copy())
            assert firsts == sorted(firsts) and firsts[0] == 0, name
            assert np.array_equal(np.concatenate(rows), m), (name, blocks)


def test_export_lookup_is_bounded_by_one_block():
    # the BCT of a 3-valued map of GF(2^10) spans [0, 349858], narrower than
    # the array but wider than one block's cells (at most _CHUNK / 8, for
    # 8-byte piece ids), with about 2,000 distinct values: each block looks
    # up its own. A lookup over the span peaked at 24 MiB (CSV) and 27 MiB
    # (JSON); 8 MiB is the bound test_streamed_requests_stay_below_their_tables
    # allows at n = 10
    t = bct_fast(SBox(make_field(10), np.random.default_rng(3).integers(0, 3, 1 << 10)))
    m = t.counts
    assert m.size > int(m.max()) - int(m.min()) > tables._CHUNK // 8
    payload = {"schema": 1, **tables._ktable_fields(t)}  # as bct --json writes it
    expected_json = json.dumps({**payload, "counts": m.ravel().tolist()}, indent=2) + "\n"
    for chunks, expected in (
        (_csv_chunks("a\\b", m), _csv_per_cell("a\\b", m)),
        (cli._json_pieces(payload), expected_json),
    ):
        pos = 0
        tracemalloc.start()
        try:
            for chunk in chunks:  # compared in place, so no text is held whole
                assert expected.startswith(chunk, pos)
                pos += len(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pos == len(expected)
        assert peak < 8 * 2**20


def test_json_export():
    t = bct_fast(kasami(6, 2))
    payload = ktable_to_json(t)
    assert payload["kind"] == "BCT"
    assert payload["n"] == 6
    assert payload["algorithm"] == "fast"
    assert payload["max_nonzero"] == 4
    assert len(payload["counts"]) == 64 * 64
    assert payload["counts"][0] == t.counts[0, 0]


def test_uniformity_report_invariants(rng):
    # Delta >= 2 always; for permutations delta_f >= Delta; both even
    funcs = [gold(5, 1), inverse_fn(4), modified_inverse(5), btt(2, 4)]
    for n in (3, 4, 5):
        spec = make_field(n)
        funcs.append(random_permutation(spec, rng))
        funcs.append(SBox(spec, rng.integers(0, spec.size, spec.size)))
    for f in funcs:
        rep = boomerang_uniformity(f)
        assert rep.differential_uniformity >= 2
        assert rep.differential_uniformity % 2 == 0
        assert rep.boomerang_uniformity % 2 == 0
        if f.is_permutation():
            assert rep.boomerang_uniformity >= rep.differential_uniformity
