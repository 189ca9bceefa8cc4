"""Walsh spectra, moment identities, and uniformity certificates."""

from fractions import Fraction

from math import gcd
import tracemalloc

import numpy as np
import pytest

from bctlab import (
    CertificatePolynomial,
    SBox,
    bct_fast,
    bct_moment_direct,
    bct_moment_walsh,
    bracken_leander,
    btt,
    delta_uniform_certificate,
    dobbertin,
    from_monomial,
    from_polynomial,
    gold,
    identity_sbox,
    inverse_fn,
    kasami,
    make_field,
    modified_inverse,
    monomial_boomerang_uniformity,
    niho,
    random_permutation,
    two_uniform_certificate,
    walsh_spectrum,
    welch,
    zieve_binomial,
    zieve_gamma_candidates,
)
from bctlab import tables, walsh
from bctlab.walsh import (
    _bct_value_counts,
    _constrained_quad_sum,
    _fwht,
    _spectrum_peak_bytes,
    _spectrum_sums,
    _walsh_blocks,
    _walsh_rows,
)

from conftest import walsh_cells, walsh_oracle


# -- spectrum ----------------------------------------------------------------------


def test_spectrum_against_literal_sum(rng):
    spec = make_field(3)
    f = random_permutation(spec, rng)
    W = walsh_spectrum(f).values
    for u in range(8):
        for v in range(8):
            assert W[u, v] == walsh_oracle(f, u, v)


def test_spectrum_identity():
    spec = make_field(4)
    W = walsh_spectrum(identity_sbox(spec)).values
    expect = np.zeros((16, 16), dtype=np.int64)
    np.fill_diagonal(expect, 16)
    assert np.array_equal(W, expect)


def test_spectrum_corner_and_balance(rng):
    for n in (3, 5):
        spec = make_field(n)
        f = random_permutation(spec, rng)
        W = walsh_spectrum(f).values
        assert W[0, 0] == spec.size
        assert (W[1:, 0] == 0).all()  # v = 0 column
        assert (W[0, 1:] == 0).all()  # balanced components
        assert (W % 2 == 0).all()


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_parseval_per_component(n, rng):
    spec = make_field(n)
    f = random_permutation(spec, rng)
    W = walsh_spectrum(f).values.astype(object)
    for v in range(1, spec.size):
        assert int((W[:, v] ** 2).sum()) == spec.size**2


def _fwht_literal(a, axis):
    # W[..., u, ...] = sum over x of (-1)^(u.x) a[..., x, ...], in Python ints
    a = np.moveaxis(np.asarray(a, dtype=object), axis, -1)
    size = a.shape[-1]
    out = np.empty_like(a)
    for u in range(size):
        signs = np.array([-1 if bin(u & x).count("1") & 1 else 1 for x in range(size)], dtype=object)
        out[..., u] = (a * signs).sum(axis=-1)
    return np.moveaxis(out, -1, axis)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shape, axis", [((16,), -1), ((8, 4), 0), ((8, 4), 1), ((4, 8), -1)])
def test_fwht_matches_literal_sum(rng, dtype, shape, axis):
    a = rng.integers(-1000, 1000, shape).astype(dtype)
    before = a.copy()
    out = _fwht(a, axis=axis)
    assert out.dtype == dtype and out.shape == shape
    assert np.array_equal(out, _fwht_literal(a, axis).astype(dtype))
    assert np.array_equal(a, before)  # the input is left as it was


def test_fwht_accepts_read_only_input(rng):
    a = rng.integers(-8, 8, (16, 4)).astype(np.int32)
    a.flags.writeable = False
    out = _fwht(a, axis=0)
    assert out.flags.writeable and out.flags.c_contiguous
    assert np.array_equal(out, _fwht_literal(a, 0).astype(np.int32))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_walsh_rows_equal_the_literal_sum(monkeypatch, rng, n):
    # W(u, v) = sum over x of (-1)^(u.x + v.f(x)), as one integer matrix
    # product of the two sign matrices, against the rows of u the source
    # transforms along y = f(x): a permutation (one gather of signs), a
    # random map and a constant (two bincounts). Blocks of 3 rows, so the
    # last block is short
    spec = make_field(n)
    x = np.arange(spec.size)
    monkeypatch.setattr("bctlab.walsh._BLOCK", 3 * spec.size)

    def signs(a):
        return 1 - 2 * (np.bitwise_count(a) & 1).astype(np.int64)

    for f in (random_permutation(spec, rng), SBox(spec, rng.integers(0, spec.size, spec.size)),
              SBox(spec, np.full(spec.size, 1))):
        literal = signs(x[:, None] & x) @ signs(f.table[:, None] & x)
        rows = [(first, block.copy()) for first, block in _walsh_blocks(f)]
        assert [first for first, _ in rows] == list(range(0, spec.size, 3))
        assert np.array_equal(np.concatenate([block for _, block in rows]), literal)


def test_spectrum_values_are_read_only_int32(rng):
    W = walsh_spectrum(random_permutation(make_field(6), rng)).values
    assert W.dtype == np.int32 and W.flags.c_contiguous and not W.flags.writeable


def test_spectrum_size_cap(monkeypatch):
    # the table refuses by memory, as ddt and bct_fast do, before any
    # allocation: the 4^13 int32 table would be 256 MiB
    need = _spectrum_peak_bytes(13)
    monkeypatch.setattr(tables, "_memory_budget", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=f"walsh_spectrum at n = 13 needs about {need} bytes"):
            walsh_spectrum(identity_sbox(make_field(13)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    need = _spectrum_peak_bytes(5)
    monkeypatch.setattr(tables, "_memory_budget", lambda: need)
    assert np.array_equal(walsh_spectrum(identity_sbox(make_field(5))).values, 32 * np.eye(32))


def test_spectrum_peak_estimate_covers_allocations(rng):
    # the int32 table is kept by WalshSpectrum without a copy; a random map
    # takes the cumulative-sum path and peaks highest. An int64 table, or a
    # copy of the int32 one, adds 4 MiB at this n and would exceed the estimate
    spec = make_field(10)
    need = _spectrum_peak_bytes(10)
    for f in (SBox(spec, np.zeros(spec.size, dtype=np.int64)), random_permutation(spec, rng),
              SBox(spec, rng.integers(0, spec.size, spec.size))):
        tracemalloc.start()
        try:
            W = walsh_spectrum(f).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert W.dtype == np.int32
        assert peak <= need < peak + 4 * 4**10


@pytest.mark.parametrize("n", [13, 16])
def test_walsh_rows_at_n13_and_n16_equal_the_literal_sum(rng, n):
    # the row kernel serves every n: sampled cells of a random map at n = 13
    # (the cumulative-sum path) and of the inverse at n = 16 (the gather)
    spec = make_field(n)
    f = SBox(spec, rng.integers(0, spec.size, spec.size)) if n == 13 else inverse_fn(16)
    us = np.sort(rng.choice(spec.size, 5, replace=False))
    vs = rng.choice(spec.size, 7, replace=False)
    rows = np.concatenate([block[:, vs] for _, block in _walsh_rows(f, us)])
    assert np.array_equal(rows, walsh_cells(f, us, vs))


# -- moments ------------------------------------------------------------------------


def test_moment_zero_order():
    f = gold(4, 1)
    assert bct_moment_direct(f, 0) == 15**2


def test_moment_identity_function():
    spec = make_field(3)
    ident = identity_sbox(spec)
    expect = 8 * 7**2
    assert bct_moment_direct(ident, 1) == expect
    assert bct_moment_walsh(ident, 1) == expect


def _moment_corpus(rng, max_n):
    out = [
        gold(3, 1),
        gold(5, 1),
        welch(1),
        inverse_fn(4),
        modified_inverse(3),
        modified_inverse(4),
    ]
    if max_n >= 5:
        out += [kasami(5, 2), modified_inverse(5)]
    if max_n >= 6:
        out += [gold(6, 2), inverse_fn(6), modified_inverse(6)]
    for n in range(3, max_n + 1):
        spec = make_field(n)
        out.append(random_permutation(spec, rng))
    return [f for f in out if f.spec.n <= max_n]


def test_moment_first_order_matches_direct(rng):
    for f in _moment_corpus(rng, 6):
        assert bct_moment_walsh(f, 1) == bct_moment_direct(f, 1)


def test_moment_second_order_matches_direct(rng):
    for f in _moment_corpus(rng, 4):
        assert bct_moment_walsh(f, 2) == bct_moment_direct(f, 2)


def test_moment_caps():
    f = gold(6, 2)
    with pytest.raises(ValueError):
        bct_moment_walsh(f, 3)
    with pytest.raises(ValueError):
        bct_moment_walsh(f, 2)  # n = 6 exceeds the j=2 cap
    with pytest.raises(ValueError):
        bct_moment_direct(f, -1)


def _quad_sum_brute(W, n):
    # literal sum over the six free variables with the two XOR constraints
    N = 1 << n
    total = 0
    for a1 in range(N):
        for a2 in range(N):
            for b1 in range(N):
                b2 = a1 ^ a2 ^ b1
                for g1 in range(N):
                    for e1 in range(N):
                        w11 = int(W[g1, a1]) * int(W[e1, a1])
                        w12 = int(W[g1, b1]) * int(W[e1, b1])
                        if w11 * w12 == 0:
                            continue
                        for g2 in range(N):
                            e2 = g1 ^ g2 ^ e1
                            total += (
                                w11
                                * w12
                                * int(W[g2, a2])
                                * int(W[e2, a2])
                                * int(W[g2, b2])
                                * int(W[e2, b2])
                            )
    return total


def _every_t(n):
    # every t as its own term, weight 1: the unreduced sum
    return [(t, 1) for t in range(1 << n)]


@pytest.mark.parametrize("n", [2, 3])
def test_constrained_sum_matches_brute_force(n, rng):
    spec = make_field(n)
    f = random_permutation(spec, rng)
    W = walsh_spectrum(f).values
    assert _constrained_quad_sum(W, _every_t(n)) == _quad_sum_brute(W, n)


def _walsh_power_sums(f):
    # S_1 = sum W^4 and S_2 from the direct BCT moments (Python ints), by
    # the moment identity for permutations
    n = f.spec.n
    boundary = (1 << (n + 1)) - 1
    s1 = (bct_moment_direct(f, 1) + (1 << n) * boundary) << (2 * n)
    s2 = (bct_moment_direct(f, 2) + (1 << (2 * n)) * boundary) << (6 * n)
    return s1, s2


def test_n5_spectrum_sums_match_python_int_references(rng):
    # int32 spectrum, int64 products: S_2 reaches 2^(8n) = 2^40 at n = 5
    n = 5
    corpus = [gold(5, 1), kasami(5, 2), inverse_fn(5), modified_inverse(5)]
    corpus += [random_permutation(make_field(n), rng) for _ in range(2)]
    for f in corpus:
        assert walsh_spectrum(f).values.dtype == np.int32
        s1, s2 = _walsh_power_sums(f)
        assert bct_moment_walsh(f, 2) == bct_moment_direct(f, 2)
        rhs = (1 << (4 * n + 1)) * s1 + (1 << (9 * n + 1)) - 5 * (1 << (8 * n)) + (1 << (7 * n + 1))
        assert two_uniform_certificate(f) == (s2, rhs, s2 - rhs)


def test_constrained_sum_is_exact_on_int32_input(rng):
    # S_2 is homogeneous of degree 8 in W; 8 W is still int32, but its
    # products overflow int32 (X(g, 0) reaches 64 * 2^(2n) = 2^16 at n = 5)
    n = 5
    W = walsh_spectrum(random_permutation(make_field(n), rng)).values
    assert _constrained_quad_sum(8 * W, _every_t(n)) == 8**8 * _constrained_quad_sum(W, _every_t(n))


# -- two-uniform certificate ----------------------------------------------------------


def test_two_uniform_certificate_examples():
    lhs, rhs, gap = two_uniform_certificate(gold(3, 1))
    assert gap == 0 and lhs == rhs
    _, _, gap = two_uniform_certificate(identity_sbox(make_field(3)))
    assert gap > 0
    assert two_uniform_certificate(kasami(5, 2))[2] == 0
    with pytest.raises(ValueError):
        two_uniform_certificate(gold(6, 2))  # n cap


def test_two_uniform_certificate_iff_delta_two(rng):
    corpus = [
        gold(3, 1),
        gold(5, 1),
        gold(5, 2),
        welch(1),
        welch(2),
        inverse_fn(3),
        inverse_fn(4),
        modified_inverse(3),
        modified_inverse(4),
        identity_sbox(make_field(4)),
    ]
    for n in (3, 4, 5):
        corpus.append(random_permutation(make_field(n), rng))
    for f in corpus:
        _, _, gap = two_uniform_certificate(f)
        delta = bct_fast(f).max_nonzero()
        assert (gap == 0) == (delta == 2), f"{f!r}: gap={gap}, delta={delta}"
        assert gap >= 0


def test_two_uniform_certificate_refuses_non_permutations():
    # the boundary correction presumes a permutation: on this map the gap
    # was 2^26 although its boomerang uniformity is 2
    f = SBox(make_field(3), [0, 6, 0, 4, 0, 2, 3, 3])
    assert not f.is_permutation() and bct_fast(f).max_nonzero() == 2
    with pytest.raises(ValueError, match="permutation"):
        two_uniform_certificate(f)


def test_spectrum_moment_refuses_non_permutations():
    # the boundary correction presumes a permutation: on this map the
    # spectrum side read 56 and 368 against direct moments of 48 and 96
    f = SBox(make_field(3), [0, 6, 0, 4, 0, 2, 3, 3])
    assert (bct_moment_direct(f, 1), bct_moment_direct(f, 2)) == (48, 96)
    for j in (1, 2):
        with pytest.raises(ValueError, match="permutation"):
            bct_moment_walsh(f, j)


def test_two_uniform_gap_is_the_delta_two_certificate(rng):
    # both equal 2^(6n) * sum of T(T - 2) over nonzero (a, b) for permutations
    corpus = [gold(3, 1), gold(5, 1), gold(5, 2), kasami(3, 2), kasami(5, 2), kasami(5, 3)]
    for n in (3, 4, 5):
        spec = make_field(n)
        corpus += [inverse_fn(n), modified_inverse(n), identity_sbox(spec)]
        corpus += [random_permutation(spec, rng) for _ in range(2)]
    for f in corpus:
        n = f.spec.n
        assert f.is_permutation()
        value, _ = delta_uniform_certificate(f, 2)
        assert two_uniform_certificate(f)[2] == value * 2 ** (6 * n), repr(f)


# -- certificate polynomials ----------------------------------------------------------


def test_certificate_polynomial_canonical():
    phi = CertificatePolynomial.for_delta(2)
    assert [c for c in phi.coefficients] == [0, -2, 1]  # x(x-2)
    phi = CertificatePolynomial.for_delta(4)
    for x in (0, 2, 4):
        assert phi.evaluate(x) == 0
    assert phi.evaluate(6) > 0


def test_certificate_polynomial_validation():
    with pytest.raises(ValueError):
        CertificatePolynomial([1, 1], 2)  # does not vanish at 0
    with pytest.raises(ValueError):
        CertificatePolynomial([0, -2, 1], 3)  # odd delta
    # vanishes beyond delta: rejected once a dimension is known
    bad = CertificatePolynomial.for_delta(4)
    with pytest.raises(ValueError):
        CertificatePolynomial(bad.coefficients, 2, n=4)
    with pytest.raises(ValueError):
        delta_uniform_certificate(gold(4, 1), 4, phi=CertificatePolynomial.for_delta(6))
    # x(x-2)(x-5)(x-7) vanishes at 0 and 2 and, among 4, 6, 8, is negative only at 6
    coeffs = [0, -70, 59, -14, 1]
    for scale in (1, Fraction(1, 3)):
        phi = CertificatePolynomial([c * scale for c in coeffs], 2)
        with pytest.raises(ValueError, match="positive at 6 for n=3"):
            phi.validate(3)
        phi.validate(2)  # 4 is the only point in (2, 4]


def test_delta_certificate_full_range_is_zero(rng):
    # delta = 2^n certifies every function
    for f in (identity_sbox(make_field(3)), gold(4, 1), random_permutation(make_field(3), rng)):
        value, is_zero = delta_uniform_certificate(f, f.spec.size)
        assert is_zero and value == 0


def test_delta_certificate_refuses_delta_above_field_size():
    # every count is at most 2^n, so delta > 2^n states nothing
    f = gold(5, 1)
    with pytest.raises(ValueError, match="at most 2\\^n = 32"):
        delta_uniform_certificate(f, 34)
    with pytest.raises(ValueError, match="at most"):
        delta_uniform_certificate(f, 34, phi=CertificatePolynomial.for_delta(34))
    assert delta_uniform_certificate(f, 32) == (0, True)


def test_delta_certificate_bounds_a_non_permutation_by_4_to_the_n():
    # BCT(a, b) <= BCT(0, 0) <= 4^n for any map: this two-valued map has
    # counts 32 > 2^3, so delta up to 4^n = 64 states something
    f = SBox(make_field(3), [0, 0, 0, 0, 1, 1, 1, 1])
    assert _bct_value_counts(f) == [(0, 42), (32, 7)]
    assert delta_uniform_certificate(f, 32) == (0, True)
    assert delta_uniform_certificate(f, 64) == (0, True)
    value, is_zero = delta_uniform_certificate(f, 30)
    assert not is_zero and value > 0
    with pytest.raises(ValueError, match="at most 4\\^n = 64, got 66"):
        delta_uniform_certificate(f, 66)
    # phi = x (x - 2) (20 - x) is positive on (2, 2^3] but negative at the count 32
    phi = CertificatePolynomial([0, -40, 22, -1], 2, n=3)
    with pytest.raises(ValueError, match="must be positive at the count 32"):
        delta_uniform_certificate(f, 2, phi=phi)
    phi = CertificatePolynomial([0, -40, 22, -1], 2)
    assert delta_uniform_certificate(gold(3, 1), 2, phi=phi) == (0, True)


def test_delta_certificate_modified_inverse_n4():
    f = modified_inverse(4)  # boomerang uniformity 6
    value6, zero6 = delta_uniform_certificate(f, 6)
    assert zero6 and value6 == 0
    value4, zero4 = delta_uniform_certificate(f, 4)
    assert not zero4 and value4 > 0


def test_delta_certificate_monotone(rng):
    for f in (modified_inverse(4), random_permutation(make_field(4), rng)):
        delta_f = bct_fast(f).max_nonzero()
        seen_zero = False
        for delta in range(2, f.spec.size + 1, 2):
            _, is_zero = delta_uniform_certificate(f, delta)
            if seen_zero:
                assert is_zero
            seen_zero = seen_zero or is_zero
            assert is_zero == (delta_f <= delta)


def test_delta_certificate_nonnegative_random(rng):
    spec = make_field(4)
    for _ in range(5):
        f = random_permutation(spec, rng)
        for delta in (2, 4, 8):
            value, _ = delta_uniform_certificate(f, delta)
            assert value >= 0
            assert isinstance(value, Fraction)


def test_delta_certificate_rational_phi():
    # scaling phi by a positive rational preserves the zero/nonzero verdict
    f = modified_inverse(4)
    base = CertificatePolynomial.for_delta(6)
    scaled = CertificatePolynomial(
        [Fraction(c, 3) for c in base.coefficients], 6, n=4
    )
    v1, z1 = delta_uniform_certificate(f, 6, phi=scaled)
    assert z1 and v1 == 0
    v2, z2 = delta_uniform_certificate(modified_inverse(3), 6, phi=scaled)
    assert z2 == (bct_fast(modified_inverse(3)).max_nonzero() <= 6)


def test_certificate_is_moment_weighted_sum(rng):
    # the certificate sums phi over the nonzero cells; by linearity that is
    # sum_j A_j * (j-th direct moment) for phi = sum A_j x^j
    spec = make_field(4)
    corpus = [gold(5, 1), modified_inverse(4), modified_inverse(5)]
    corpus += [random_permutation(spec, rng), SBox(spec, rng.integers(0, 16, 16))]
    assert not corpus[-1].is_permutation()
    for f in corpus:
        for delta in (2, 6):
            canonical = CertificatePolynomial.for_delta(delta, f.spec.n)
            # canonical * (1/2 + x^2/3): rational, with the same zeros
            coeffs = [c / 2 for c in canonical.coefficients] + [0, 0]
            for j, c in enumerate(canonical.coefficients):
                coeffs[j + 2] += c / 3
            rational = CertificatePolynomial(coeffs, delta, f.spec.n)
            for phi in (canonical, rational):
                value, _ = delta_uniform_certificate(f, delta, phi=phi)
                moments = enumerate(phi.coefficients)
                assert value == sum(a * bct_moment_direct(f, j) for j, a in moments)


def _value_count_corpus(rng):
    # maps with no symmetry, power maps, the modified inverse, the Zieve
    # binomial, constants, and 2-valued maps, whose counts reach past 2^n
    # and take the distinct-value branch of the per-block count
    for n in range(2, 11):
        spec = make_field(n)
        yield random_permutation(spec, rng)
        yield SBox(spec, rng.integers(0, spec.size, spec.size))
        yield SBox(spec, rng.choice(spec.size, 2, replace=False)[rng.integers(0, 2, spec.size)])
        yield SBox(spec, np.full(spec.size, 3))
        yield modified_inverse(n)
        yield from_monomial(spec, 3)
        if n in (6, 10):
            yield zieve_binomial(spec, zieve_gamma_candidates(spec)[0])


def test_value_counts_from_orbit_rows_match_the_table(rng):
    for f in _value_count_corpus(rng):
        vals, cells = np.unique(bct_fast(f).counts[1:, 1:], return_counts=True)
        assert _bct_value_counts(f) == list(zip(vals.tolist(), cells.tolist())), f


def test_canonical_certificate_product_equals_coefficient_form(rng):
    # phi(v) = prod (v - 2k), k <= delta/2, taken as a product at each count
    # against the expanded polynomial, for every even delta <= 64 at n <= 6
    for n in range(2, 7):
        spec = make_field(n)
        funcs = [random_permutation(spec, rng), SBox(spec, rng.integers(0, spec.size, spec.size)),
                 modified_inverse(n), inverse_fn(n)]
        for f in funcs:
            for delta in range(2, min(64, spec.size) + 1, 2):
                phi = CertificatePolynomial.for_delta(delta, n)
                assert delta_uniform_certificate(f, delta) == (
                    delta_uniform_certificate(f, delta, phi=phi)
                ), (f, delta)


def test_canonical_certificate_builds_no_polynomial(monkeypatch):
    # delta = 4096 at n = 12 would expand a degree-2049 polynomial
    def refuse(*args):
        raise AssertionError("a certificate polynomial was built")

    monkeypatch.setattr(CertificatePolynomial, "__init__", refuse)
    assert delta_uniform_certificate(inverse_fn(12), 4096) == (0, True)
    value, is_zero = delta_uniform_certificate(inverse_fn(12), 4)
    assert not is_zero and value > 0
    with pytest.raises(ValueError, match="positive even"):
        delta_uniform_certificate(inverse_fn(4), 3)


def test_first_moment_equals_the_ddt_square_sum_past_the_oracles(rng):
    # sum over b of BCT(a, b) = sum over beta of DDT(a, beta)^2 for any f,
    # and a permutation's column b = 0 holds 2^n in every row a != 0, so
    # M_1 = sum over a != 0 of the DDT row's squares - 2^n (2^n - 1). The
    # DDT side counts every y of every row literally, one bincount of
    # f(x + a) + f(x) per row, and shares no code with the row kernel; the
    # direct side counts one pair of representatives per bucket and one row
    # per orbit; n = 13 is past the oracles and the spectrum
    N = 1 << 13
    x = np.arange(N)
    for f in (random_permutation(make_field(13), rng), modified_inverse(13)):
        t = f.table
        squares = sum(int((np.bincount(t ^ t[x ^ a], minlength=N) ** 2).sum()) for a in range(1, N))
        assert bct_moment_direct(f, 1) == squares - N * (N - 1), f


def _cyclotomic_classes(n):
    """The least d of each class {d 2^k mod 2^n - 1} with gcd(d, 2^n - 1) = 1."""
    m = (1 << n) - 1
    return sorted({min((d << k) % m for k in range(n)) for d in range(1, m) if gcd(d, m) == 1})


def test_power_map_invariants_over_every_cyclotomic_class():
    # BCT(f^-1) is the transpose of BCT(f) (Boura & Canteaut), and squaring
    # is linear and bijective, so x^d, x^(d^-1) and x^(2d) share (Delta,
    # delta) and the value counts of their BCTs over a, b != 0
    classes = 0
    for n in range(5, 11):
        spec, m = make_field(n), (1 << n) - 1
        for d in _cyclotomic_classes(n):
            classes += 1
            exponents = (d, pow(d, -1, m), 2 * d % m)
            reports = [monomial_boomerang_uniformity(spec, e) for e in exponents]
            assert len({(r.differential_uniformity, r.boomerang_uniformity)
                        for r in reports}) == 1, (n, d)
            counts = [_bct_value_counts(from_monomial(spec, e)) for e in exponents]
            assert counts[0] == counts[1] == counts[2], (n, d)
    assert classes == 154


def test_moment_first_order_wide_field():
    # n = 7: a wider field than the other moment tests
    f = inverse_fn(7)
    assert bct_moment_walsh(f, 1) == bct_moment_direct(f, 1)


@pytest.mark.parametrize("n", [7, 10])
def test_fourth_power_sum_matches_object_arithmetic(rng, n):
    # S_1 from the int64 row sums, weighted in Python ints, against the
    # whole table's W^4 as Python ints
    f = random_permutation(make_field(n), rng)
    W = walsh_spectrum(f).values
    assert _spectrum_sums(f, 1) == [int((W.astype(object) ** 4).sum())]


# -- spectrum sums by symmetry orbits ----------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_trace_dual_is_the_dot_product_form(n):
    # mu(w).x = Tr(w x) for every w and x, and mu is a bijection, so every
    # u is mu(lambda(u)) with u.x = Tr(lambda(u) x)
    spec = make_field(n)
    w = np.arange(spec.size)
    u = spec._trace_dual(w)
    assert np.array_equal(np.sort(u), w)
    dot = np.bitwise_count(u[:, None] & w) & 1
    assert np.array_equal(dot, spec.trace_vec(spec.mul_vec(w[:, None], w)))


def _orbit_of(f, w):
    """The orbit of w under w -> c w^(2^k), c in f's subgroup U, by brute force."""
    spec, sym = f.spec, tables._symmetry(f)
    g, step = spec.primitive_element, (spec.size - 1) // sym.order
    U = [spec.pow(g, step * i) for i in range(sym.order)]
    orbit, frontier = {w}, [w]
    while frontier:
        x = frontier.pop()
        for y in [spec.mul(c, x) for c in U] + ([spec.mul(x, x)] if sym.frobenius else []):
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def test_walsh_rows_are_column_permutations_across_an_orbit():
    # W(mu(w), mu(b)) = W(mu(c w), mu(c^e b)), and the same with square
    # roots under the Frobenius: the sorted rows of one orbit are equal,
    # and the field's orbits are these, as large as reported
    spec6 = make_field(6)
    for f in (inverse_fn(6), zieve_binomial(spec6, zieve_gamma_candidates(spec6)[0])):
        spec, sym = f.spec, tables._symmetry(f)
        W = walsh_spectrum(f).values
        reps, sizes = spec._shift_orbits(sym.order, sym.frobenius)
        assert reps.size < spec.size - 1, f  # the symmetry reduces
        covered = set()
        for r, size in zip(reps.tolist(), sizes.tolist()):
            orbit = sorted(_orbit_of(f, r))
            assert len(orbit) == size and orbit[0] == r
            rows = np.sort(W[spec._trace_dual(orbit)], axis=1)
            assert (rows == rows[0]).all(), (f, r)
            covered.update(orbit)
        assert covered == set(range(1, spec.size))


def _orbit_corpus(rng, max_n):
    """Power maps (Frobenius and the whole group), the modified inverse
    (Frobenius alone), binomials whose subgroup U is proper and which do
    not commute with squaring, and maps with no symmetry."""
    spec4, spec6 = make_field(4), make_field(6)
    out = [gold(3, 1), gold(5, 1), gold(5, 2), gold(7, 3), kasami(5, 2), kasami(7, 3),
           welch(1), welch(2), welch(3), niho(1), niho(2), niho(3), dobbertin(1),
           bracken_leander(1), btt(2, 4),
           zieve_binomial(spec6, zieve_gamma_candidates(spec6)[0]),
           from_polynomial(spec4, [(4, 1), (1, 2)]),  # x(x^3 + 2), U of order 3
           from_polynomial(spec6, [(10, 1), (1, 3)]),  # x(x^9 + 3), U of order 9
           from_polynomial(spec6, [(26, 1), (5, 6)])]  # x^5(x^21 + 6), U of order 21
    for n in range(2, max_n + 1):
        spec = make_field(n)
        out += [inverse_fn(n), modified_inverse(n), identity_sbox(spec),
                random_permutation(spec, rng)]
    return [f for f in out if f.spec.n <= max_n]


def test_orbit_sums_equal_the_unreduced_sums(monkeypatch, rng):
    # S_1 at n <= 8 and S_2 at n <= 5, one term per orbit against every u
    # (and every t) as its own orbit
    corpus = _orbit_corpus(rng, 8)
    syms = [tables._symmetry(f) for f in corpus]
    assert all(f.is_permutation() for f in corpus)
    assert any(1 < s.order < f.spec.size - 1 and not s.frobenius for f, s in zip(corpus, syms))
    assert any(s.order == 1 and s.frobenius for s in syms)
    reduced = [_spectrum_sums(f, 2 if f.spec.n <= 5 else 1) for f in corpus]
    monkeypatch.setattr(walsh, "_symmetry", lambda f: tables._Symmetry(False, 1, 0))
    for f, sums in zip(corpus, reduced):
        assert sums == _spectrum_sums(f, len(sums)), f
        if len(sums) == 2:
            assert sums[1] == _constrained_quad_sum(walsh_spectrum(f).values, _every_t(f.spec.n))


def test_spectrum_sums_do_one_term_per_orbit(monkeypatch):
    # the inverse and x^3 are one orbit of u != 0: S_1 transforms the rows
    # of u = 0 and one more, and S_2 evaluates the terms of t = 0 and one more
    rows, terms, autocorrelation = [], [], walsh._autocorrelation

    def counted_fwht(a, axis=-1):
        rows.append(a.shape[1])
        return _fwht(a, axis)

    def counted_autocorrelation(h):
        terms.append(h.shape)
        return autocorrelation(h)

    monkeypatch.setattr(walsh, "_fwht", counted_fwht)
    _spectrum_sums(inverse_fn(10), 1)
    assert sum(rows) == 2
    monkeypatch.setattr(walsh, "_autocorrelation", counted_autocorrelation)
    _spectrum_sums(gold(5, 1), 2)
    assert len(terms) == 2


def test_first_moment_sides_agree_at_n16():
    # row u = 0 of every permutation sums W^4 = 2^(4n), 2^64 at n = 16,
    # which int64 stores as 0. The identity's BCT is 2^n in every cell, so
    # M_1 = 2^n (2^n - 1)^2. Both maps are one orbit, so S_1 is two rows
    N = 1 << 16
    ident, f = identity_sbox(make_field(16)), inverse_fn(16)
    assert bct_moment_walsh(ident, 1) == bct_moment_direct(ident, 1) == N * (N - 1) ** 2
    assert bct_moment_walsh(f, 1) == bct_moment_direct(f, 1)


def test_first_moment_sides_agree_at_the_spectrum_cap():
    # n = 12: a power map's S_1 is two rows, and the
    # modified inverse's one row per Frobenius orbit
    for f in (inverse_fn(12), modified_inverse(12)):
        assert bct_moment_walsh(f, 1) == bct_moment_direct(f, 1), f


def test_streamed_first_moment_sides_agree_at_n13_and_n14(rng):
    # S_1 is a row sum, so it serves every n: one row per orbit for the
    # inverse (two rows), Kasami and the modified inverse, and every row of
    # a random permutation at n = 13
    for f in (inverse_fn(13), inverse_fn(14), kasami(13, 3), modified_inverse(13),
              random_permutation(make_field(13), rng)):
        assert bct_moment_walsh(f, 1) == bct_moment_direct(f, 1), f
