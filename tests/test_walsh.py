"""Walsh spectra, moment identities, and uniformity certificates."""

from fractions import Fraction

import numpy as np
import pytest

from bctlab import (
    CertificatePolynomial,
    SBox,
    bct_fast,
    bct_moment_direct,
    bct_moment_walsh,
    delta_uniform_certificate,
    from_monomial,
    gold,
    identity_sbox,
    inverse_fn,
    kasami,
    make_field,
    modified_inverse,
    random_permutation,
    two_uniform_certificate,
    walsh_spectrum,
    welch,
    zieve_binomial,
    zieve_gamma_candidates,
)
from bctlab.walsh import _bct_value_counts, _constrained_quad_sum, _fourth_power_sum, _fwht

from conftest import walsh_oracle


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


def test_spectrum_values_are_read_only_int32(rng):
    W = walsh_spectrum(random_permutation(make_field(6), rng)).values
    assert W.dtype == np.int32 and W.flags.c_contiguous and not W.flags.writeable


def test_spectrum_size_cap():
    with pytest.raises(ValueError):
        walsh_spectrum(identity_sbox(make_field(13)))


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


@pytest.mark.parametrize("n", [2, 3])
def test_constrained_sum_matches_brute_force(n, rng):
    spec = make_field(n)
    f = random_permutation(spec, rng)
    W = walsh_spectrum(f).values
    assert _constrained_quad_sum(W, n) == _quad_sum_brute(W, n)


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
    assert _constrained_quad_sum(8 * W, n) == 8**8 * _constrained_quad_sum(W, n)


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


def test_moment_first_order_wide_field():
    # n = 7: a wider field than the other moment tests
    f = inverse_fn(7)
    assert bct_moment_walsh(f, 1) == bct_moment_direct(f, 1)


@pytest.mark.parametrize("n", [7, 10])
def test_fourth_power_sum_matches_object_arithmetic(rng, n):
    W = walsh_spectrum(random_permutation(make_field(n), rng)).values
    assert _fourth_power_sum(W) == int((W.astype(object) ** 4).sum())

