"""Shared oracles and corpora for the test suite.

The oracles here recompute results through routes independent of the
library paths they check: long-division GF(2)[x] arithmetic for field
products, brute-force scans for roots and solution counts, and the
literal definitions for transforms and tables.
"""

import numpy as np
import pytest

from bctlab import (
    bracken_leander,
    btt,
    dobbertin,
    gold,
    inverse_fn,
    kasami,
    make_field,
    modified_inverse,
    niho,
    random_permutation,
    welch,
    zieve_binomial,
    zieve_gamma_candidates,
)


def gf2_polymul(a, b):
    """Carryless product of two GF(2)[x] bitmasks."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def gf2_polymod(a, m):
    """Long division remainder of GF(2)[x] bitmasks."""
    dm = m.bit_length()
    while a.bit_length() >= dm and a:
        a ^= m << (a.bit_length() - dm)
    return a


def field_mul_oracle(spec, x, y):
    """Field product recomputed as carryless multiply + long division."""
    return gf2_polymod(gf2_polymul(x, y), spec.reduction)


def walsh_oracle(f, u, v):
    """Literal character sum for one Walsh coefficient."""
    total = 0
    for x in range(f.spec.size):
        bit = (bin(u & x).count("1") + bin(v & f[x]).count("1")) & 1
        total += -1 if bit else 1
    return total


def walsh_cells(f, us, vs):
    """W(u, v) for each u in us (rows) and v in vs (columns): the literal
    sums over x, as one product of the two sign matrices. The product runs
    in float64, where NumPy has a BLAS product and int64 has none, and is
    exact: every term is +-1 and every partial sum at most 2^16 in
    magnitude, far below 2^53."""
    x = np.arange(f.spec.size)

    def signs(a):
        return 1 - 2 * (np.bitwise_count(a) & 1).astype(np.float64)

    cells = signs(np.asarray(us)[:, None] & x) @ signs(f.table[:, None] & np.asarray(vs))
    return cells.astype(np.int64)


def system_solutions(f, a, b):
    """All pairs (x, y) with f(x)+f(y) = b and f(x+a)+f(y+a) = b."""
    N = f.spec.size
    t = f.table
    return [
        (x, y)
        for x in range(N)
        for y in range(N)
        if t[x] ^ t[y] == b and t[x ^ a] ^ t[y ^ a] == b
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(0xB00)


def family_corpus(max_n=8):
    """Named family instances (all permutations) with dimension <= max_n."""
    out = [
        ("gold(3,1)", gold(3, 1)),
        ("gold(5,1)", gold(5, 1)),
        ("gold(5,2)", gold(5, 2)),
        ("gold(6,2)", gold(6, 2)),
        ("gold(7,1)", gold(7, 1)),
        ("kasami(5,2)", kasami(5, 2)),
        ("kasami(6,2)", kasami(6, 2)),
        ("kasami(7,2)", kasami(7, 2)),
        ("welch(1)", welch(1)),
        ("welch(2)", welch(2)),
        ("welch(3)", welch(3)),
        ("niho(1)", niho(1)),
        ("niho(2)", niho(2)),
        ("niho(3)", niho(3)),
        ("inverse(3)", inverse_fn(3)),
        ("inverse(4)", inverse_fn(4)),
        ("inverse(6)", inverse_fn(6)),
        ("inverse(8)", inverse_fn(8)),
        ("dobbertin(1)", dobbertin(1)),
        ("bracken_leander(1)", bracken_leander(1)),
        ("btt(2,4)", btt(2, 4)),
        ("modified_inverse(3)", modified_inverse(3)),
        ("modified_inverse(4)", modified_inverse(4)),
        ("modified_inverse(6)", modified_inverse(6)),
        ("modified_inverse(8)", modified_inverse(8)),
    ]
    spec6 = make_field(6)
    out.append(("zieve(q=8)", zieve_binomial(spec6, zieve_gamma_candidates(spec6)[0])))
    return [(name, f) for name, f in out if f.spec.n <= max_n]


def permutation_corpus(rng, ns=(3, 4, 5), per_n=5, max_family_n=6):
    """Family permutations plus seeded random permutations."""
    out = family_corpus(max_family_n)
    for n in ns:
        spec = make_field(n)
        for k in range(per_n):
            out.append((f"random(n={n},{k})", random_permutation(spec, rng)))
    return out
