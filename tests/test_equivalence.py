"""The BCT's equivalence identities as oracles for the fast engines.

For g = A2 o f o A1, with A1 and A2 affine permutations of linear parts L1
and L2, the pair (x, y) counts toward T_g(a, b) exactly when (A1 x, A1 y)
counts toward T_f(L1 a, L2^-1 b), so g's BCT is f's with its rows and
columns permuted and 0 fixed. The images drawn here have no symmetry, so
every engine on g counts every row through the generic blocks, while f's
table is the rotated row 1 (the inverse) and its uniformity and value
counts come from one row per Frobenius orbit (the modified inverse).
"""

import numpy as np
import pytest

from bctlab import (
    SBox,
    bct_fast,
    bct_system,
    boomerang_uniformity,
    ddt,
    differential_uniformity,
    from_monomial,
    inverse_fn,
    make_field,
    modified_inverse,
    random_affine_permutation,
    tables,
)
from bctlab.walsh import _bct_value_counts


def _affine_image(f, rng):
    """(g, L1, L2^-1) for g = A2 o f o A1, the linear parts as lookup tables."""
    a1, a2 = random_affine_permutation(f.spec, rng), random_affine_permutation(f.spec, rng)
    g = SBox(f.spec, a2.table[f.table[a1.table]])
    return g, a1.table ^ a1.constant, np.argsort(a2.table ^ a2.constant)


@pytest.mark.parametrize("n", [*range(3, 11), 13])
def test_bct_of_an_affine_image_is_the_permuted_table(n, rng):
    # at n = 13 only the value counts and the uniformities, which hold no table
    for f in (inverse_fn(n), modified_inverse(n)):
        g, l1, l2_inv = _affine_image(f, rng)
        assert tables._symmetry(g) == (False, 1, 0), repr(g)
        if n <= 10:
            tf = bct_fast(f).counts
            if n <= 6:
                assert np.array_equal(tf, bct_system(f).counts)
            assert np.array_equal(bct_fast(g).counts, tf[l1[:, None], l2_inv[None, :]])
        assert _bct_value_counts(g) == _bct_value_counts(f)
        rep_f, rep_g = boomerang_uniformity(f), boomerang_uniformity(g)
        assert rep_g.boomerang_uniformity == rep_f.boomerang_uniformity
        assert rep_g.differential_uniformity == rep_f.differential_uniformity


def test_x14_is_x7_squared_over_gf16():
    # the defect behind criterion 02a (claim table4.k1): over GF(2^4),
    # x^14 = (x^7)^2 is the inverse map, and squaring is linear with
    # inverse b -> b^8, so BCT(x^14)(a, b) = BCT(x^7)(a, sqrt(b)). Both
    # boomerang uniformities are 6; the published 4 is x^7's DDT uniformity
    spec = make_field(4)
    f, g = from_monomial(spec, 7), from_monomial(spec, 14)
    assert np.array_equal(g.table, inverse_fn(4).table)
    assert np.array_equal(g.table, spec.pow_vec(f.table, 2))
    tf = bct_fast(f).counts
    assert np.array_equal(tf, bct_system(f).counts)
    assert np.array_equal(bct_fast(g).counts, tf[:, spec.pow_vec(np.arange(16), 8)])
    assert boomerang_uniformity(f).boomerang_uniformity == 6
    assert boomerang_uniformity(g).boomerang_uniformity == 6
    assert differential_uniformity(ddt(f)) == 4
