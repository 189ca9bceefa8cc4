"""Walsh spectra, BCT moment identities, and uniformity certificates.

The Walsh transform of f at (u, v) is the signed character sum

    W_f(u, v) = sum over x of (-1)^(u.x + v.f(x))

with u.x the GF(2) dot product of bit strings. Sums of BCT powers over
nonzero (a, b) can be evaluated two independent ways: directly from the
table, or from the spectrum via

    sum T(a,b)^j = 2^(2n-4nj) * S_j - 2^(nj) * (2^(n+1) - 1)

where S_j is the sum of products W(g_i,a_i) W(e_i,a_i) W(g_i,b_i) W(e_i,b_i)
over all 4j-tuples whose a/b and g/e halves each XOR to zero. The boundary
correction assumes a permutation (rows a=0 and b=0 all equal 2^n), so
the spectrum side refuses any other map; the table side holds for any.
The spectrum side is one route: _spectrum_sums refuses a non-permutation
and S_2 past its cost cap, sums S_1 over the rows of the spectrum and
builds the spectrum for S_2 alone, and _walsh_moment states the identity
above. Both sums take one term per orbit of f's symmetry
(tables._symmetry) weighted by the orbit's size, as the table side takes
one BCT row per orbit: a power map's S_1 is two rows, u = 0 and one more,
and a map with no symmetry has every u as its own orbit. The moments M_1 and M_2 come from it, and so does the two-uniform
certificate, whose gap is 2^(6n) * (M_2 - 2 M_1), the sum of T (T - 2)
scaled.

The table side reads every statistic from one count of the values over
nonzero (a, b): the j-th moment is sum of cells * value^j, and the
delta-certificate is sum of cells * phi(value), which by linearity is
sum_j A_j * (j-th moment) for phi(x) = sum A_j x^j.

Everything here is exact integer or Fraction arithmetic; no floats. The
spectrum is held as int32, by the tables' storage rule (tables._stored):
|W(u, v)| <= 2^n, and the transform's partial sums are bounded the same
way. Its rows come from one kernel, _walsh_rows, a block of any u at a
time. The row source _walsh_blocks runs it on every u in order:
walsh_spectrum fills the table from it through the tables' one fill
(tables._filled), and the CSV and JSON exports read it with no table. S_1
runs it on one u per orbit. Sums of products of spectrum values are taken
in int64 or Python ints. One refusal rule holds here as in the tables: a
table refuses by memory (walsh_spectrum); a stream or a row sum never does
(the exports and S_1 serve every n to 16); the O(2^3n) oracles and S_2
refuse by cost (_MAX_QUAD_SUM_N).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gf2n import _PARITY16, _autocorrelation, _fwht
from .sbox import SBox
from .tables import _BLOCK, _filled, _orbit_rows, _require_memory, _stored, _symmetry

__all__ = [
    "WalshSpectrum",
    "walsh_spectrum",
    "bct_moment_direct",
    "bct_moment_walsh",
    "two_uniform_certificate",
    "CertificatePolynomial",
    "delta_uniform_certificate",
]

_MAX_QUAD_SUM_N = 5  # S_2 costs O(n * 2^3n); its int64 sums are exact to n = 12


class WalshSpectrum:
    """Full table of Walsh coefficients, values[u, v]: C-ordered, read-only
    int32, which is exact because |W(u, v)| <= 2^n. Stored by the tables'
    one rule (tables._stored), so a value int32 cannot hold is refused, not
    wrapped. values is a read-only view: of a C-ordered int32 input, with
    no copy, so the spectrum aliases that array (which stays writable for
    its owner), and of the converted copy of any other."""

    def __init__(self, spec, values):
        self.values = _stored(spec, values, "spectrum must be a 2^n x 2^n matrix")
        self.spec = spec

    def __repr__(self):
        return f"WalshSpectrum({self.spec.label()})"


def walsh_spectrum(f: SBox) -> WalshSpectrum:
    """All 4^n Walsh coefficients, O(n * 4^n), filled from their row source
    by the tables' one fill (see _walsh_blocks and tables._filled). The
    table refuses by memory, as every table does: MemoryError, before
    anything is allocated, when _spectrum_peak_bytes exceeds physical
    memory (16 GiB of int32 at n = 16). The row source and the row sums
    refuse nothing."""
    _require_memory("walsh_spectrum", f.spec.n, _spectrum_peak_bytes(f.spec.n))
    return WalshSpectrum(f.spec, _filled(f.spec.size, _walsh_blocks(f)))


def _spectrum_peak_bytes(n: int) -> int:
    """Upper estimate of the bytes walsh_spectrum allocates at dimension n:
    the int32 table, about 8 int64 arrays of one row (the sort order, the
    sorted values, the runs' ends, the sign table), and 32 bytes per cell
    of one block of about _BLOCK cells (see _walsh_rows): the int32 signs
    and G, the int64 gather indices, the transform's int32 copy and a
    non-permutation's two int32 run sums. Under tracemalloc at n = 10 the
    kernel's arrays peak at 3.4 MiB over the table for a random map,
    3.0 MiB for the constant 0 and 2.5 MiB for a random permutation, so an
    int64 table, or a copy of the table, exceeds the estimate."""
    return 4 * 4**n + 64 * 2**n + 32 * _BLOCK


def _walsh_blocks(f: SBox):
    """The spectrum's row source: (u0, block), the rows W(u, .) of u0 .. u0 + len(block) - 1.

    The row kernel (_walsh_rows) on every u in increasing order, so each
    block's first index is its first u. A stream, so it serves every n: it
    holds one block, never the table.
    """
    return _walsh_rows(f, np.arange(f.spec.size))


def _walsh_rows(f: SBox, us: np.ndarray):
    """The spectrum's row kernel: yield (i, block), the rows W(u, .) of u = us[i], us[i + 1], ...

    For a block of B values of u, about _BLOCK cells, G(y, u) = sum over
    the x with f(x) = y of (-1)^(u.x) is a (2^n, B) array, and one
    transform of it along its first axis, over y, gives W(u, v) at (v, u):
    the block is its transpose. With x sorted by f(x), the signs are one
    gather for any u: for a permutation, x = f^-1(y), they are G; for any
    other map, G(y, .) is the sum of the run of x with f(x) = y, one
    cumulative sum differenced at the runs' ends (0.12 s at n = 12, against
    0.19 s by bincounts of the x with u.x odd), and 0 where y is no value
    of f. Built as (B, 2^n) and transformed along its last axis, the block
    took about 5x as long at n = 12. The signs and G are reused buffers,
    and each block is the transposed view of its transform. |G| and every
    partial sum of the transform are at most 2^n, so int32 is exact at
    every n to 16. The kernel holds no policy, like tables._ddt_blocks and
    tables._bct_fast_blocks: it holds one block, so it serves every n, and
    only the table (walsh_spectrum) refuses, by memory. The blocks come in
    the order of us.
    """
    N, table = f.spec.size, f.table
    per = max(1, min(us.size, _BLOCK // N))
    sign = 1 - 2 * _PARITY16[:N].astype(np.int32)
    order = np.argsort(table, kind="stable")  # x by f(x): f^-1 for a permutation
    values = table[order]
    ends = np.flatnonzero(np.append(values[1:] != values[:-1], True))  # each run's last x
    perm = ends.size == N
    signs = np.empty((N, per), dtype=np.int32)
    G = signs if perm else np.zeros((N, per), dtype=np.int32)
    for i in range(0, us.size, per):
        u = us[i : i + per]
        s, g = signs[:, : u.size], G[:, : u.size]
        np.take(sign, order[:, None] & u, out=s)
        if not perm:
            np.cumsum(s, axis=0, out=s)
            runs = s[ends]
            runs[1:] -= s[ends[:-1]]
            g[values[ends]] = runs
        yield i, _fwht(g, axis=0).T


# -- moments ----------------------------------------------------------------------


def _bct_value_counts(f: SBox) -> list[tuple[int, int]]:
    """(value, cells) for each distinct count T(a, b) over nonzero a, b.

    Counted from one BCT row per orbit of f's symmetry on the shift a,
    weighted by the orbit's size (see tables._orbit_rows), so no table is
    built: a power map is row 1 alone, and a map with no symmetry has every
    row as its own orbit. Each block of rows is one bincount of (row, value)
    when its values are below the row length (every permutation's are),
    else of (row, index of the value among the block's distinct values).
    """
    total: dict[int, int] = {}
    for _, size, block, _, _ in _orbit_rows(f):
        sub = block[:, 1:]
        top = int(sub.max())
        if top < sub.shape[1]:
            vals, index = np.arange(top + 1), sub
        else:
            vals, index = np.unique(sub, return_inverse=True)
        k, rows = vals.size, size.size
        keys = np.arange(rows)[:, None] * k + index.reshape(sub.shape)
        cells = size @ np.bincount(keys.ravel(), minlength=rows * k).reshape(rows, k)
        for v, c in zip(vals[cells > 0].tolist(), cells[cells > 0].tolist()):
            total[v] = total.get(v, 0) + c
    return sorted(total.items())


def bct_moment_direct(f: SBox, j: int) -> int:
    """sum of T(a, b)^j over nonzero a, b, from the table itself."""
    if j < 0:
        raise ValueError("moment order must be non-negative")
    return sum(c * v**j for v, c in _bct_value_counts(f))


def _constrained_quad_sum(W: np.ndarray, terms) -> int:
    """The 8-fold constrained spectrum sum S_2, exactly, from (t, weight) pairs.

    Factorization: with V_t(g, a) = W(g, a) * W(g^t, a), the sum equals
    sum over (t, s) of Q(t, s)^2 where Q(t, .) is the XOR-autocorrelation
    over a of V_t summed over g, two transforms per g (see
    gf2n._autocorrelation). terms holds each t once with the number of t
    its term stands for (see _spectrum_sums); every t with weight 1 is the
    whole sum. W is cast to int64 first, and for a permutation's spectrum
    every intermediate is exact in int64 to n = 12. Each row of W has sum
    of squares 2^(2n) (Parseval), so by Cauchy-Schwarz the first transform
    of a row of V_t is at most sum over a of |W(g, a) W(g^t, a)| <= 2^(2n),
    and its butterfly step -2y at most 2^(2n+1). Squared, that is 2^(4n);
    the second unnormalized transform is at most 2^n times that, 2^(5n),
    and its butterfly step at most 2^(5n+1), below 2^63 to n = 12. Divided
    by 2^n, each autocorrelation is at most 2^(4n), and Q sums 2^n of
    them, at most 2^(5n). The squares of Q and the weighted terms are added
    as Python ints. _MAX_QUAD_SUM_N caps S_2 below n = 12, by its cost.
    """
    W = np.asarray(W, dtype=np.int64)
    gidx = np.arange(W.shape[0])
    total = 0
    for t, weight in terms:
        Q = _autocorrelation(W * W[gidx ^ t, :]).sum(axis=0)
        total += weight * sum(q * q for q in Q.tolist())
    return total


def _spectrum_sums(f: SBox, j: int) -> list[int]:
    """[S_1] for j = 1 and [S_1, S_2] for j = 2, from f's spectrum, one term per orbit.

    If f(c x) = c^e f(x) for c in U, then x -> c x gives W(mu(w), mu(b)) =
    W(mu(c w), mu(c^e b)), with mu(w) the u of u.x = Tr(w x)
    (FieldSpec._trace_dual), and x -> x^2 gives the same with square roots
    when f commutes with squaring. So the rows W(u, .) of the u in the
    mu-image of one orbit of w -> c w^(2^k) (the field's own,
    FieldSpec._shift_orbits, for f's symmetry, tables._symmetry) are column
    permutations of each other, and so are the t-terms of S_2: both are
    constant on it. Each sum takes one u per orbit, weighted by the
    orbit's size; u = 0 is an orbit of size 1, and a map with no symmetry
    has every u as its own orbit.

    S_1 = sum W^4: the rows come from the row kernel (_walsh_rows), with
    no 4^n array, so S_1 is a row sum and refuses no n. A row's sum reaches 2^(4n): row u = 0 of a permutation
    is 2^n at v = 0 and 0 elsewhere, and 2^64 wraps to 0 in int64 at
    n = 16. Every W of a permutation is divisible by 4 for n >= 2: W(u, 0)
    is 0 or 2^n, and for v != 0, v.f is balanced, so v.f + u.x has even
    weight. So a row's (W / 4)^4 is summed in int64: sum over v of
    (W / 4)^2 is 2^(2n-4) (Parseval) and |W / 4| <= 2^(n-2), so the sum is
    at most 2^(4n-8), exact to n = 16; the weighted rows and the factor
    4^4 are taken in Python ints. S_2 is the constrained sum above, which
    reads the whole spectrum, so the table is built for j = 2 alone. The
    boundary correction of every spectrum-side identity presumes a
    permutation, so any other f is refused. S_2 costs O(n * 2^3n) after
    factorization, over the orbits of t, and refuses by that cost past
    n = _MAX_QUAD_SUM_N, as the O(2^3n) oracles do past theirs; its table
    would refuse by memory (walsh_spectrum) only far past that.
    """
    if j not in (1, 2):
        raise ValueError("spectrum-side moments are implemented for j in {1, 2}")
    spec = f.spec
    if j == 2 and spec.n > _MAX_QUAD_SUM_N:
        raise ValueError(f"the j=2 spectrum sum is capped at n <= {_MAX_QUAD_SUM_N}")
    if not f.is_permutation():
        raise ValueError("the spectrum-side identities hold only for permutations")
    sym = _symmetry(f)
    reps, sizes = spec._shift_orbits(sym.order, sym.frobenius)
    us = spec._trace_dual(np.append(0, reps))
    weights = [1] + sizes.tolist()
    s1 = 0
    for i, block in _walsh_rows(f, us):
        sq = np.square(block, dtype=np.int64)
        sq >>= 4  # (W / 4)^2, exact (see above)
        rows = np.einsum("ij,ij->i", sq, sq).tolist()
        s1 += sum(w * r for w, r in zip(weights[i : i + len(rows)], rows))
    s1 <<= 8
    if j == 1:
        return [s1]
    return [s1, _constrained_quad_sum(walsh_spectrum(f).values, zip(us.tolist(), weights))]


def _walsh_moment(S: int, j: int, n: int) -> int:
    """The j-th BCT moment from S_j: 2^(2n-4nj) * S_j - 2^(nj) * (2^(n+1) - 1)."""
    den = 1 << (4 * n * j - 2 * n)
    if S % den:
        raise AssertionError("spectrum sum S_j not divisible by 2^(4nj-2n)")
    return S // den - (1 << (n * j)) * ((1 << (n + 1)) - 1)


def bct_moment_walsh(f: SBox, j: int) -> int:
    """Spectrum-side evaluation of the j-th BCT moment; j in {1, 2}.

    Exact for permutations, and refused for any other f; j = 1 serves
    every n to 16, and j = 2 is capped at n <= _MAX_QUAD_SUM_N by its cost
    (see _spectrum_sums).
    """
    return _walsh_moment(_spectrum_sums(f, j)[j - 1], j, f.spec.n)


def two_uniform_certificate(f: SBox) -> tuple[int, int, int]:
    """Spectrum-only test for boomerang uniformity 2.

    Returns (lhs, rhs, gap) with

        lhs = S_2,   rhs = 2^(4n+1) * sum W^4 + 2^(9n+1) - 5*2^(8n) + 2^(7n+1)

    gap = lhs - rhs = 2^(6n) * (M_2 - 2 M_1), with M_j the spectrum-side
    moments, that is 2^(6n) times the sum of T (T - 2) over nonzero (a, b).
    It is non-negative and zero exactly when every nonzero BCT entry is 0
    or 2 (f is APN). Refused for non-permutations and capped as the j = 2
    moment is (see _spectrum_sums).
    """
    n = f.spec.n
    s1, s2 = _spectrum_sums(f, 2)
    gap = (_walsh_moment(s2, 2, n) - 2 * _walsh_moment(s1, 1, n)) << (6 * n)
    return s2, s2 - gap, gap


# -- certificate polynomials --------------------------------------------------------


def _require_even(delta: int) -> None:
    if delta <= 0 or delta % 2:
        raise ValueError("target delta must be a positive even integer")


class CertificatePolynomial:
    """A real polynomial vanishing on the even integers 0..delta.

    phi(x) = sum A_j x^j must satisfy phi(x) = 0 for even x <= delta and
    phi(x) > 0 for even x in (delta, 2^n]; the second half depends on the
    ambient field size and is checked when a dimension is available.

    Every value of phi comes from one exact evaluator: the rational
    coefficients scaled by the LCM of their denominators are integers, and
    one Horner pass in Python ints gives scale * phi(x) for a whole array
    of points. The scale is positive, so the signs are phi's own.
    """

    def __init__(self, coefficients: Sequence, delta: int, n: int | None = None):
        _require_even(delta)
        self.coefficients = tuple(Fraction(c) for c in coefficients)
        self.delta = delta
        self._scale = math.lcm(*(c.denominator for c in self.coefficients))
        self._horner = [int(c * self._scale) for c in reversed(self.coefficients)]
        nonzero = np.flatnonzero(self._scaled_values(range(0, delta + 1, 2)) != 0)
        if nonzero.size:
            raise ValueError(f"certificate polynomial must vanish at {2 * nonzero[0]}")
        if n is not None:
            self.validate(n)

    @classmethod
    def for_delta(cls, delta: int, n: int | None = None) -> "CertificatePolynomial":
        """The canonical choice: the product of (x - 2k) for k = 0..delta/2."""
        coeffs = [1]
        for k in range(0, delta + 1, 2):
            coeffs = [0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= k * coeffs[i + 1]
        return cls(coeffs, delta, n)

    def _scaled_values(self, xs) -> np.ndarray:
        """scale * phi(x) for each integer x in xs, exactly (object array)."""
        xs = np.array(xs, dtype=object)
        acc = np.zeros(xs.size, dtype=object)
        for c in self._horner:
            acc = acc * xs + c
        return acc

    def evaluate(self, x: int) -> Fraction:
        return Fraction(self._scaled_values([x])[0], self._scale)

    def validate(self, n: int) -> None:
        """Check strict positivity at every even point in (delta, 2^n]."""
        xs = range(self.delta + 2, (1 << n) + 1, 2)
        bad = np.flatnonzero(self._scaled_values(xs) <= 0)
        if bad.size:
            raise ValueError(
                f"certificate polynomial must be positive at {xs[bad[0]]} for n={n}"
            )

    def __repr__(self):
        return f"CertificatePolynomial(delta={self.delta}, degree={len(self.coefficients) - 1})"


def delta_uniform_certificate(
    f: SBox, delta: int, phi: CertificatePolynomial | None = None
) -> tuple[Fraction, bool]:
    """Moment-weighted certificate that every BCT count is at most delta.

    value = sum over nonzero a, b of phi(T(a, b)), which equals
    sum_j A_j * (direct j-th moment). It is always non-negative, and zero
    exactly when every nonzero-entry count lies in {0, 2, ..., delta}, i.e.
    the boomerang uniformity is at most delta. Every count of a permutation
    is at most 2^n, and every count of any map at most BCT(0, 0) <= 4^n
    (see tables), so delta above that bound is refused before any
    polynomial is built.

    With no phi, the canonical product of (x - 2k) for k = 0..delta/2 is
    evaluated as a product at each distinct count, in Python ints: it
    vanishes at every even x <= delta and is positive past it by
    construction, so neither its coefficients nor those checks are needed.
    A given phi keeps its coefficient form and is validated for the field,
    on (delta, 2^n]; a count of a non-permutation can exceed 2^n, so phi
    must also be positive at each distinct count above delta, or
    ValueError names the first count where it is not.
    """
    perm = f.is_permutation()
    bound = f.spec.size if perm else f.spec.size**2
    if delta > bound:
        raise ValueError(f"delta must be at most {'2^n' if perm else '4^n'} = {bound}, got {delta}")
    if phi is None:
        _require_even(delta)
        roots = range(0, delta + 1, 2)
        total = sum(c * math.prod(v - k for k in roots) for v, c in _bct_value_counts(f))
        value = Fraction(total)
    else:
        if phi.delta != delta:
            raise ValueError("polynomial was built for a different delta")
        phi.validate(f.spec.n)
        counts = _bct_value_counts(f)
        scaled = phi._scaled_values([v for v, _ in counts])
        bad = [v for (v, _), s in zip(counts, scaled) if v > delta and s <= 0]
        if bad:
            raise ValueError(f"certificate polynomial must be positive at the count {bad[0]}")
        value = Fraction(sum(c * s for (_, c), s in zip(counts, scaled)), phi._scale)
    if value < 0:
        raise AssertionError("certificate value must be non-negative")
    return value, value == 0
