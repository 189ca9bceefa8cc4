"""S-box construction, composition, affine maps, and file format."""

import io
from math import gcd

import numpy as np
import pytest

from bctlab import (
    AffineMap,
    KTable,
    SBox,
    WalshSpectrum,
    affine_apply,
    boomerang_uniformity,
    btt,
    compose,
    derivative,
    dobbertin,
    from_monomial,
    from_polynomial,
    gold,
    identity_sbox,
    inverse_table,
    kasami,
    make_field,
    modified_inverse,
    niho,
    random_affine_permutation,
    random_permutation,
    read_sbox,
    write_sbox,
)


_REFUSALS = {
    "gold over a field of another n": (lambda: gold(5, 1, field=make_field(6)),
                                       "needs GF\\(2\\^5\\) but field has n=6"),
    "kasami i=0": (lambda: kasami(5, 0), "need 1 <= i < n"),
    "niho k=0": (lambda: niho(0), "niho parameter k must be >= 1"),
    "dobbertin k=0": (lambda: dobbertin(0), "dobbertin parameter k must be >= 1"),
    "btt s=0": (lambda: btt(2, 0), "btt shift s must be positive"),
    "header n=abc": (lambda: read_sbox(io.StringIO("n=abc\n0 1 2 3\n")), "bad dimension"),
    "negative monomial": (lambda: from_monomial(make_field(3), -1), "non-negative"),
    "negative pow_vec": (lambda: make_field(3).pow_vec(np.arange(8), -1), "non-negative"),
    "affine map of another field": (
        lambda: affine_apply(AffineMap(make_field(3), [1, 0, 0]), gold(4, 1), "pre"),
        "different fields",
    ),
    "spectrum of a wrong shape": (lambda: WalshSpectrum(make_field(3), np.zeros((8, 4))),
                                  "2\\^n x 2\\^n"),
    # stored as int32, 2^32 would wrap to 0 and 2.7 truncate to 2
    "spectrum holding 2^32": (lambda: WalshSpectrum(make_field(2), np.full((4, 4), 2**32)),
                              "count 4294967296 exceeds the int32 maximum 2147483647"),
    "spectrum holding -2^31 - 1": (
        lambda: WalshSpectrum(make_field(2), np.full((4, 4), -(2**31) - 1)),
        "count -2147483649 is below the int32 minimum -2147483648",
    ),
    "float spectrum": (lambda: WalshSpectrum(make_field(2), np.full((4, 4), 2.7)),
                       "counts must be integers, got dtype float64"),
    "float counts": (lambda: KTable(make_field(2), "DDT", np.full((4, 4), 2.7), "x"),
                     "counts must be integers, got dtype float64"),
    "float S-box table": (lambda: SBox(make_field(2), [0.5, 1.9, 2, 3]),
                          "table must be integers, got dtype float64"),
}


@pytest.mark.parametrize("call, message", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_refused_inputs_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_integer_and_bool_arrays_are_stored_exactly():
    spec = make_field(2)
    for values in (np.array([0, 1, 1, 0], dtype=bool), np.array([3, 2, 1, 0], dtype=np.uint64),
                   np.array([1, 0, 3, 2], dtype=np.int8), [2, 3, 0, 1]):
        f = SBox(spec, values)
        assert f.table.dtype == np.int64 and f.table.tolist() == np.asarray(values).tolist()
    for counts in (np.eye(4, dtype=bool), np.full((4, 4), 2**31 - 1, dtype=np.uint64),
                   np.full((4, 4), -(2**31), dtype=np.int64), np.arange(16, dtype=np.int16)):
        counts = counts.reshape(4, 4)
        for stored in (KTable(spec, "BCT", counts, "x").counts,
                       WalshSpectrum(spec, counts).values):
            assert stored.dtype == np.int32 and np.array_equal(stored, counts)
            assert not stored.flags.writeable


def test_tables_alias_an_int32_input_without_freezing_it():
    # the table is a read-only view of the caller's array: no copy, and the
    # caller can still write its own array, which the table then shows
    spec = make_field(2)
    for make, stored in ((lambda a: KTable(spec, "DDT", a, "x"), "counts"),
                         (lambda a: WalshSpectrum(spec, a), "values")):
        a = np.zeros((4, 4), np.int32)
        t = make(a)
        a[0, 0] = 1
        view = getattr(t, stored)
        assert not view.flags.writeable and np.shares_memory(view, a)
        assert view[0, 0] == 1
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 2


def test_sbox_range_check_names_an_unsigned_entry_past_int64():
    # checked before the cast to int64, which would wrap 2^64 - 1 to -1
    table = np.array([0, 1, 2, 2**64 - 1], dtype=np.uint64)
    with pytest.raises(ValueError, match=r"got 18446744073709551615$"):
        SBox(make_field(2), table)


def test_sbox_validation():
    spec = make_field(3)
    with pytest.raises(ValueError):
        SBox(spec, [0] * 7)
    for bad in (-1, 8):  # the message names the entry, as the scalar operations do
        with pytest.raises(ValueError, match=rf"field element must lie in \[0, 2\^n\), got {bad}$"):
            SBox(spec, list(range(7)) + [bad])
    f = SBox(spec, range(8))
    with pytest.raises(ValueError):
        f.table[0] = 1  # tables are frozen


def test_monomial_basics():
    spec = make_field(5)
    assert from_monomial(spec, 1) == identity_sbox(spec)
    assert from_monomial(spec, 3).is_permutation()  # gcd(3, 31) = 1
    f = from_monomial(make_field(4), 3)  # gcd(3, 15) = 3
    assert not f.is_permutation()
    # 3-to-1 on nonzero inputs
    nonzero_images = set(int(v) for v in f.table[1:])
    assert len(nonzero_images) == 5
    counts = np.bincount(f.table, minlength=16)
    assert all(counts[v] == 3 for v in nonzero_images)


def test_monomial_permutation_iff_gcd():
    for n in range(2, 11):
        spec = make_field(n)
        for d in range(0, spec.size - 1):
            assert from_monomial(spec, d).is_permutation() == (
                gcd(d, spec.size - 1) == 1
            )


def test_from_polynomial():
    spec = make_field(4)
    assert from_polynomial(spec, []) == SBox(spec, [0] * 16)
    assert from_polynomial(spec, [(1, 1)]) == identity_sbox(spec)
    # binomial x^(q+2) + gamma*x over GF(q^2), against scalar evaluation
    spec = make_field(6)
    q, gamma = 8, 5
    f = from_polynomial(spec, [(q + 2, 1), (1, gamma)])
    for x in range(spec.size):
        assert f[x] == spec.pow(x, q + 2) ^ spec.mul(gamma, x)
    # a coefficient outside the field: -1 read the log table from its end
    # (the map of c = 63), and 64 raised IndexError
    for c in (-1, spec.size):
        with pytest.raises(ValueError, match=rf"got {c}$"):
            from_polynomial(spec, [(1, c)])


def test_is_permutation_examples():
    spec = make_field(4)
    assert identity_sbox(spec).is_permutation()
    assert not SBox(spec, [0] * 16).is_permutation()
    for n in range(3, 9):
        assert modified_inverse(n).is_permutation()


def test_inverse_table(rng):
    spec = make_field(5)
    ident = identity_sbox(spec)
    assert inverse_table(ident) == ident
    for _ in range(10):
        f = random_permutation(spec, rng)
        g = inverse_table(f)
        assert compose(f, g) == ident
        assert compose(g, f) == ident
        assert inverse_table(g) == f
    with pytest.raises(ValueError):
        inverse_table(SBox(spec, [0] * 32))


def test_compose(rng):
    spec = make_field(4)
    ident = identity_sbox(spec)
    f = random_permutation(spec, rng)
    assert compose(f, ident) == f
    assert compose(ident, f) == f
    for _ in range(5):
        a = random_permutation(spec, rng)
        b = random_permutation(spec, rng)
        c = random_permutation(spec, rng)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
    with pytest.raises(ValueError):
        compose(f, identity_sbox(make_field(5)))


def test_derivative(rng):
    spec = make_field(5)
    f = random_permutation(spec, rng)
    assert derivative(f, 0) == SBox(spec, [0] * 32)
    for a in (1, 7, 19, np.int64(19)):  # numpy integers too
        d = derivative(f, a)
        for x in range(spec.size):
            assert d[x] == d[x ^ a]
    for a in (-1, spec.size, np.int64(-1), np.int64(spec.size)):
        with pytest.raises(ValueError, match=rf"field element must lie in \[0, 2\^n\), got {a}$"):
            derivative(f, a)


@pytest.mark.parametrize("f", [gold(5, 1), gold(6, 2)])
def test_gold_derivative_is_affine(f):
    # derivatives of a quadratic map satisfy the affinity identity everywhere
    spec = f.spec
    for a in range(1, spec.size):
        d = derivative(f, a).table
        xs = np.arange(spec.size)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        assert (d[X] ^ d[Y] ^ d[X ^ Y] ^ d[0] == 0).all()


def test_affine_map_matches_scalar_evaluation(rng):
    for n in (3, 4, 5, 8):
        spec = make_field(n)
        for _ in range(5):
            linear = [int(rng.integers(0, spec.size)) for _ in range(n)]
            const = int(rng.integers(0, spec.size))
            m = AffineMap(spec, linear, const)
            for x in range(spec.size):
                acc = const
                for i, a in enumerate(linear):
                    acc ^= spec.mul(a, spec.pow(x, 1 << i))
                assert m.table[x] == acc


def test_affine_map_validation():
    spec = make_field(4)
    with pytest.raises(ValueError):
        AffineMap(spec, [1, 2])  # wrong coefficient count
    # coefficients and constants outside the field: 99 gave table values
    # 96-103, which affine_apply(..., "pre") then indexed out of range
    for bad in (-1, spec.size, 99):
        with pytest.raises(ValueError, match=rf"got {bad}$"):
            AffineMap(spec, [1, 0, bad, 0])
        with pytest.raises(ValueError, match=rf"got {bad}$"):
            AffineMap(spec, [1, 0, 0, 0], bad)


def test_affine_apply_basics(rng):
    spec = make_field(4)
    f = random_permutation(spec, rng)
    ident_map = AffineMap(spec, [1] + [0] * 3, 0)
    assert affine_apply(ident_map, f, "pre") == f
    assert affine_apply(ident_map, f, "post") == f
    const_map = AffineMap(spec, [1] + [0] * 3, 9)
    assert np.array_equal(affine_apply(const_map, f, "post").table, f.table ^ 9)
    with pytest.raises(ValueError):
        affine_apply(const_map, f, "sideways")


def test_affine_sandwich_preserves_uniformities(rng):
    spec = make_field(4)
    f = modified_inverse(4, spec)
    base = boomerang_uniformity(f)
    a1 = random_affine_permutation(spec, rng)
    a2 = random_affine_permutation(spec, rng)
    g = affine_apply(a1, affine_apply(a2, f, "pre"), "post")
    rep = boomerang_uniformity(g)
    assert rep.boomerang_uniformity == base.boomerang_uniformity
    assert rep.differential_uniformity == base.differential_uniformity


def test_affine_apply_preserves_permutation_status(rng):
    spec = make_field(5)
    f = random_permutation(spec, rng)
    m = random_affine_permutation(spec, rng)
    assert affine_apply(m, f, "pre").is_permutation()
    assert affine_apply(m, f, "post").is_permutation()


# -- file format -------------------------------------------------------------------


def test_file_round_trip(tmp_path, rng):
    f = random_permutation(make_field(6), rng)
    path = tmp_path / "box.sbx"
    write_sbox(f, str(path))
    g = read_sbox(str(path))
    assert g == f


def test_read_hex_and_decimal():
    text = "n=2\n0x3 2 0x1 0\n"
    f = read_sbox(io.StringIO(text))
    assert list(f.table) == [3, 2, 1, 0]


def test_read_errors():
    with pytest.raises(ValueError):
        read_sbox(io.StringIO("m=2\n0 1 2 3\n"))
    with pytest.raises(ValueError):
        read_sbox(io.StringIO("n=2\n0 1 2\n"))  # wrong count
    with pytest.raises(ValueError):
        read_sbox(io.StringIO("n=2\n0 1 2 9\n"))  # out of range
    with pytest.raises(ValueError):
        read_sbox(io.StringIO("n=2\n0 1 two 3\n"))
    with pytest.raises(ValueError):
        read_sbox(io.StringIO("n=2\n0 1 2 3\n"), field=make_field(3))


def test_read_with_field_override():
    alt = make_field(2)
    f = read_sbox(io.StringIO("n=2\n0 1 2 3\n"), field=alt)
    assert f.spec == alt
