"""DDT/BCT builders, uniformity extraction, exports, and table invariants."""

import dataclasses
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from bctlab import (
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
)
from bctlab import tables

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
        with pytest.raises(ValueError, match="shift"):
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


def test_power_exponent_detects_power_maps(rng):
    for n in (3, 4, 5, 6):
        spec = make_field(n)
        xs = np.arange(spec.size)
        for d in range(spec.size + 1):
            e = tables._power_exponent(from_monomial(spec, d))
            assert e is not None and np.array_equal(spec.pow_vec(xs, e), spec.pow_vec(xs, d))
        # x^0 is 1 everywhere, x^(2^n-1) is 0 at 0: equal off 0, told apart
        assert tables._power_exponent(from_monomial(spec, 0)) == 0
        assert tables._power_exponent(from_monomial(spec, spec.size - 1)) == spec.size - 1
    assert tables._power_exponent(from_monomial(make_field(7), 13)) == 13
    for n in (3, 4, 5, 6, 7):
        assert tables._power_exponent(modified_inverse(n)) is None
    for n in (5, 6, 7, 8):
        assert tables._power_exponent(random_permutation(make_field(n), rng)) is None
    assert tables._power_exponent(SBox(make_field(5), np.full(32, 5))) is None
    # passes the f(1) = 1, f(0) = 0 pre-check, fails the table comparison
    near = from_monomial(make_field(5), 3).table.copy()
    near[[2, 3]] = near[[3, 2]]
    assert tables._power_exponent(SBox(make_field(5), near)) is None


def test_bct_row_matches_system_rows(rng):
    powers = [from_monomial(make_field(n), d) for n, d in ((4, 0), (4, 3), (6, 3), (6, 7), (7, 13))]
    others = [modified_inverse(n) for n in (5, 6, 7)]
    others += [random_permutation(make_field(n), rng) for n in (4, 5, 6, 7)]
    others += [SBox(make_field(n), np.full(2**n, 6)) for n in (3, 6)]  # constant != 0, 1
    assert all(tables._power_exponent(f) is not None for f in powers)
    assert all(tables._power_exponent(f) is None for f in others)
    for f in powers + others:
        t = bct_system(f).counts
        for a in (0, 1, f.spec.size - 3):
            assert np.array_equal(bct_row(f, a), t[a]), (f, a)


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
    # the rotation and equals the bincount of every row
    spec = make_field(n)
    power_rows, rotated = tables._power_rows, []

    def counted(f, d, *rest):
        rotated.append(d)
        power_rows(f, d, *rest)

    monkeypatch.setattr(tables, "_power_rows", counted)
    for d in range(spec.size):
        f = from_monomial(spec, d)
        assert np.array_equal(ddt(f).counts, _literal_ddt(f)), d
    assert rotated == list(range(spec.size))


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
    # bct_row against the literal count of pairs (y, y') in one fibre of
    # D(y) = f(y+a) + f(y) at f(y) + f(y'), on maps with values in 1, 3,
    # 20 and 2^n classes: fibres small (pair branch) and, for the constant
    # map from GF(2^6) on, large (transform branch)
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


@pytest.mark.parametrize("block", [1, 1 << 17])
def test_bct_fast_keeps_the_ddt_peak(monkeypatch, rng, block):
    # one DDT row per block at _BLOCK = 1, so a maximum tied across blocks
    # must keep the first witness; small images and x & 3 tie many maxima
    monkeypatch.setattr(tables, "_BLOCK", block)
    for n in range(3, 10):
        spec = make_field(n)
        for table in (random_permutation(spec, rng).table, rng.integers(0, spec.size, spec.size),
                      rng.integers(0, 4, spec.size), np.arange(spec.size) & 3):
            f = SBox(spec, table)
            assert tables._power_exponent(f) is None
            assert bct_fast(f)._ddt_peak == tables._peak(ddt(f).counts[1:, :], 1, 0)


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
        from bctlab import FieldSpec

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


def test_bct_fast_pair_chunks_split_runs(monkeypatch):
    # a constant map has one bucket of m = 2^(n-1) representatives per row
    # a. At n = 4, m^2 = n 2^n sits on the transform rule, so the walk
    # takes the bucket's pairs in one step per offset, up to m - 1; at
    # n = 5, m^2 > n 2^n and every row a != 0 takes the transform
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
    f = SBox(make_field(5), [3] * 32)
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
    # r < r+a in one fibre beta of D_a, as literal Python loops
    N, t = f.spec.size, f.table.tolist()
    row = [0] * N
    for y in range(N):
        row[t[y] ^ t[y ^ a]] += 1
    row[0] += N
    fibres = {}
    for r in range(N):
        if r < r ^ a:
            fibres.setdefault(t[r] ^ t[r ^ a], []).append(r)
    for beta, reps in fibres.items():
        for r, r2 in itertools.combinations(reps, 2):
            row[t[r] ^ t[r2]] += 4
            row[t[r] ^ t[r2] ^ beta] += 4
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
    assert tables._power_exponent(f) is None
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
    # 4^n and every other cell 0. Each row's one bucket of 2^(n-1)
    # representatives takes the transform, so the walk yields no pair
    n = 10
    seen = _kernel_branches(monkeypatch)
    expect = np.zeros((2**n, 2**n), dtype=np.int64)
    expect[:, 0] = 4**n
    assert np.array_equal(bct_fast(SBox(make_field(n), np.full(2**n, 5))).counts, expect)
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


def test_bct_fast_peak_estimate_covers_allocations(rng):
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
    assert tables._fast_peak_bytes(16) > 8 * 4**16  # int64 where 4^n overflows int32


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
        assert tables._matrix_csv(corner, m) == _csv_per_cell(corner, m)


def test_decimal_rows_lookup_is_no_larger_than_the_array():
    wide = np.array([[0, 10**6], [-5, 7]], dtype=np.int64)
    tracemalloc.start()
    rows = list(tables._decimal_rows(wide))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rows == [["0", "1000000"], ["-5", "7"]]
    assert peak < 100_000  # a lookup over [-5, 10^6] would take tens of MB
    assert list(tables._decimal_rows(np.array([2, -1, 2]))) == [["2", "-1", "2"]]


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
