"""DDT and BCT construction plus uniformity extraction.

Both tables are 2^n x 2^n count matrices indexed (a, b) with a the input
shift and b the output difference:

    DDT(a, b) = #{ x : f(x+a) + f(x) = b }
    BCT(a, b) = #{ (x, y) : f(x)+f(y) = b  and  f(x+a)+f(y+a) = b }

The pair-counting form of the BCT needs no compositional inverse and is
well defined for non-permutations. For permutations it agrees entrywise
with the classical inverse-based count once both are indexed this way;
bct_naive evaluates that inverse-based count as the reference oracle.

Three BCT builders with identical output:

    bct_naive   O(2^3n), permutations only, the oracle
    bct_system  O(2^3n), any function, literal pair counting
    bct_fast    representative pairs, zero for APN maps; any function

Every BCT row a != 0 comes from one kernel, _bct_rows, over the fibres
of the derivative D_a(y) = f(y+a) + f(y): the pairs (y, y) and {y, y+a}
give N at b = 0 and the DDT row, and it enumerates only unordered pairs
of representatives of one fibre under y -> y+a, sum over beta of
C(DDT(a, beta)/2, 2) pairs, none when Delta = 2. It packs (row, fibre,
value) into one int64, sorts it once and takes the pairs from one walk,
_equal_pairs, over the equal keys; the fibres with too many
representatives to pair go through Walsh-Hadamard autocorrelations
instead, many fibres to one batched transform. Row 0, one fibre
of every y, is the autocorrelation of the value histogram. _bct_blocks
runs the kernel over blocks of rows that share a top bit, into one
reused buffer, in one serial pass; bct_fast copies each block into the
table, the reducers below read it, and bct_row(f, a) is one row.
bct_fast and ddt refuse, before allocating, a table whose estimated peak
exceeds physical memory. No builder starts a thread.
Counts are stored as int32, and KTable refuses any count above its
maximum: every count is at most 4^n, which fits up to n = 15, but BCT(0, 0)
of a constant map is exactly 4^n and does not fit at n = 16.

Symmetry orbits. _symmetry reads two symmetries off the table (O(1)
lookups turn unstructured maps away first): f(x^2) = f(x)^2, and the
largest subgroup U of GF(2^n)* with f(c x) = c^e f(x). Under them the BCT
and DDT rows of the shifts in one orbit of a -> c a^(2^k), c in U, are
column permutations of each other that fix b = 0, so the orbit engine,
_orbit_rows, counts one row per orbit, its least element, with the same
kernel and weighted by the orbit's size. A map with no symmetry has each
shift as its own orbit, so its rows stream through in blocks. That gives
boomerang_uniformity on every map that is not a power map and
monomial_boomerang_uniformity their values and first row-major witnesses,
and the moments and certificates their value counts (walsh), with no
table. The same test routes the tables: in bct_fast and ddt a one-orbit
map (U = GF(2^n)*: every c x^d with c != 0, the nonzero constants c x^0
among them) is row 1 rotated, T(a, b) = T(1, b * a^-e) in log order of
b, with row 0 counted as for any map, and every other map runs the
generic builders (ddt one bincount per row). boomerang_uniformity takes
that table route for the one-orbit maps with f(1) = 1, exactly the x^d,
while bct_fast can hold their table, and row 1 alone past that reach:
the benchmark pins `uniformity` on x^3 over GF(2^5) (bench/test_bench.py,
test_traced_request_counts_repeat_exactly) to one bct_fast call and one
ddt call.

Exports are byte-identical to str() per cell: each row's decimal strings
are looked up in one table over the value span (str per value only when
the span is wider than the table has cells). The CSV comes row by row in
chunks of about _CHUNK characters (_csv_chunks), which the CLI writes one
at a time and ktable_to_csv joins; the CLI streams JSON tables from the
same rows, never building the text whole or a list of Python ints.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gf2n import FieldSpec, _autocorrelation
from .sbox import SBox, _shift, from_monomial, inverse_table

__all__ = [
    "KTable",
    "UniformityReport",
    "ddt",
    "differential_uniformity",
    "bct",
    "bct_naive",
    "bct_system",
    "bct_fast",
    "bct_row",
    "boomerang_uniformity",
    "monomial_boomerang_uniformity",
    "quadratic_bound_check",
    "ktable_to_csv",
    "ktable_to_json",
]

# the builders work on int64 temporaries of one block; at 2^17 elements each
# is 1 MiB and stays in a core's L2 cache (2^20 measured slower)
_BLOCK = 1 << 17  # derivative values per bct_fast block, cells per power-map row block
_INT32_MAX = np.iinfo(np.int32).max
_CHUNK = 1 << 20  # characters per chunk of exported text


class KTable:
    """A 2^n x 2^n table of non-negative counts (DDT or BCT)."""

    def __init__(self, spec: FieldSpec, kind: str, counts, algorithm: str):
        if kind not in ("DDT", "BCT"):
            raise ValueError(f"kind must be 'DDT' or 'BCT', got {kind!r}")
        arr = np.asarray(counts)
        if arr.shape != (spec.size, spec.size):
            raise ValueError("counts must be a 2^n x 2^n matrix")
        peak = int(arr.max())
        if peak > _INT32_MAX:
            raise ValueError(f"count {peak} exceeds the int32 maximum {_INT32_MAX}")
        arr = np.asarray(arr, dtype=np.int32)
        arr.flags.writeable = False
        self.spec = spec
        self.kind = kind
        self.counts = arr
        self.algorithm = algorithm

    def __repr__(self):
        return f"KTable({self.kind}, {self.spec.label()}, algorithm={self.algorithm!r})"

    def max_nonzero(self) -> int:
        """The headline statistic: max over a != 0 (DDT) or a, b != 0 (BCT)."""
        if self.kind == "DDT":
            return int(self.counts[1:, :].max())
        return int(self.counts[1:, 1:].max())


@dataclass(frozen=True)
class UniformityReport:
    """Differential and boomerang uniformities with argmax witnesses."""

    differential_uniformity: int
    boomerang_uniformity: int
    ddt_argmax: tuple[int, int]
    bct_argmax: tuple[int, int]
    algorithm: str


# -- DDT -------------------------------------------------------------------------


def ddt(f: SBox) -> KTable:
    """Difference distribution table: counts(a, b) = #{x : f(x+a)+f(x) = b}.

    Each row is the bincount of one derivative. A one-orbit map (every
    c x^d with c != 0) counts rows 1 and 0 only and rotates row 1 into
    every row a != 0 (see _power_rows).
    Counts are at most 2^n, so the table accumulates int32 and KTable keeps
    it without a copy. Raises MemoryError, before allocating, when the
    estimated peak exceeds physical memory.
    """
    n, N, table = f.spec.n, f.spec.size, f.table
    _require_memory("ddt", n, _ddt_peak_bytes(n))
    idx = np.arange(N)
    counts = np.zeros((N, N), dtype=np.int32)
    sym = _symmetry(f)
    one_orbit = sym.order == N - 1
    for a in (0, 1) if one_orbit else range(N):
        counts[a] = np.bincount(table ^ table[idx ^ a], minlength=N)
    if one_orbit:
        _power_rows(f, sym.e, counts)
    return KTable(f.spec, "DDT", counts, "ddt")


def differential_uniformity(t: KTable) -> int:
    """Max DDT count over a != 0 (all b)."""
    if t.kind != "DDT":
        raise ValueError(f"expected a DDT, got {t.kind}")
    return t.max_nonzero()


# -- BCT builders -----------------------------------------------------------------


def bct_naive(f: SBox) -> KTable:
    """Inverse-based reference count, O(2^3n); requires a permutation.

    Entry (a, b) counts the x with finv(f(x)+b) + finv(f(x+a)+b) = a,
    the single-variable form of the pair count at the same index.
    """
    g = inverse_table(f).table
    N = f.spec.size
    table = f.table
    idx = np.arange(N)
    # M[x, b] = finv(f(x) + b), shared across rows
    M = g[table[:, None] ^ idx[None, :]]
    counts = np.zeros((N, N), dtype=np.int64)
    for a in range(N):
        counts[a] = ((M ^ M[idx ^ a, :]) == a).sum(axis=0)
    return KTable(f.spec, "BCT", counts, "naive")


def bct_system(f: SBox) -> KTable:
    """Literal pair count of the two-equation system, O(2^3n); any function."""
    N = f.spec.size
    table = f.table
    idx = np.arange(N)
    B1 = table[:, None] ^ table[None, :]
    counts = np.zeros((N, N), dtype=np.int64)
    for a in range(N):
        fa = table[idx ^ a]
        mask = B1 == (fa[:, None] ^ fa[None, :])
        counts[a] = np.bincount(B1[mask], minlength=N)
    return KTable(f.spec, "BCT", counts, "system")


def _memory_budget() -> int:
    """Physical memory in bytes: the most one table build may plan to use."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(builder: str, n: int, need: int) -> None:
    """Raise MemoryError when a build's estimated peak exceeds the budget."""
    budget = _memory_budget()
    if need > budget:
        raise MemoryError(
            f"{builder} at n = {n} needs about {need} bytes; "
            f"physical memory is {budget} bytes"
        )


def _ddt_peak_bytes(n: int) -> int:
    """Upper estimate of the bytes ddt allocates at dimension n: the int32
    table plus about 8 int64 arrays of one row and 2 of one power-map row
    block (the rotation's gather indices)."""
    return 4 * 4**n + 64 * 2**n + 16 * _BLOCK


def _fast_dtype(n: int):
    """Every count is at most 4^n, which fits int32 up to n = 15."""
    return np.int32 if 4**n <= _INT32_MAX else np.int64


def _fast_peak_bytes(n: int) -> int:
    """Upper estimate of the bytes bct_fast allocates at dimension n: the
    table plus about 20 int64 arrays of one block (20 MiB at 2^17
    elements; no pair walk step holds more positions than its block), so
    from n = 12 the table dominates. The large buckets' transforms run in
    chunks of about _BLOCK histogram cells, so their few int64 arrays
    (histograms, transforms, autocorrelations) are each about one block
    array; a 3-valued map of GF(2^10), about 1000 large buckets per
    block, peaks at 19.4 MiB of the 24 MiB estimate under tracemalloc."""
    return np.dtype(_fast_dtype(n)).itemsize * 4**n + 160 * _BLOCK


def bct_fast(f: SBox) -> KTable:
    """Whole rows from the fibres of D_a; representative pairs, zero for APN maps.

    Row 0 is the XOR autocorrelation of the value histogram (see bct_row).
    The rows a != 0 run in blocks through one kernel (see _bct_blocks),
    and each block is copied into the table. A one-orbit map (every
    c x^d with c != 0) counts row 1 alone and rotates it into every row
    a != 0 (see _power_rows). Raises MemoryError, before allocating,
    when the estimated peak exceeds physical memory.
    """
    n, N, table = f.spec.n, f.spec.size, f.table
    _require_memory("bct_fast", n, _fast_peak_bytes(n))
    counts = np.empty((N, N), dtype=_fast_dtype(n))
    counts[0] = _autocorrelation(np.bincount(table, minlength=N))
    sym = _symmetry(f)
    one_orbit = sym.order == N - 1
    rows = np.array([1]) if one_orbit else np.arange(1, N)
    for a, block, _, _ in _bct_blocks(table, rows):
        counts[a] = block
    if one_orbit:
        _power_rows(f, sym.e, counts)
    return KTable(f.spec, "BCT", counts, "fast")


def _bct_blocks(table: np.ndarray, rows: np.ndarray):
    """Count the BCT rows a in rows, nonzero and increasing, with the row kernel.

    The rows sharing a top bit run in blocks of about _BLOCK derivative
    values through _bct_rows, whose temporaries stay near cache size;
    counts are integer sums, so the block size changes no cell. Yields
    (a, block, ddt_rows, ddt_max) per block, in increasing a. Every block
    is one reused buffer, to be read before the next is asked for.
    """
    N = table.size
    n = N.bit_length() - 1
    per = max(1, _BLOCK // (N // 2))
    buf = np.empty((min(per, rows.size), N), dtype=_fast_dtype(n))
    for k in range(n):
        top = rows[rows >> k == 1]  # the rows with top bit 2^k
        for i in range(0, top.size, per):
            a = top[i : i + per]
            block = buf[: a.size]
            yield (a, block, *_bct_rows(table, a, block))


def _bct_rows(table: np.ndarray, a: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, int]:
    """Write the BCT rows a, an array of shifts sharing one top bit, into out.

    Row a counts the pairs (y, y') in one fibre X of the derivative
    D_a(y) = f(y+a) + f(y) at b = f(y) + f(y') (see bct_row). X is closed
    under y -> y+a, and the representatives reps hold one y of each pair
    {y, y+a}: the y with the top bit of a clear. The pairs (y, y) add N at
    b = 0, the pairs {y, y+a} add DDT(a, .), and each unordered pair
    {r, r'} of representatives in one fibre beta adds 4 at f(r)+f(r') and
    4 at f(r)+f(r')+beta. The (row, beta, f(r)) keys are sorted once and
    _equal_pairs walks the equal ones, C(m, 2) pairs for a bucket of m
    representatives. A bucket with m^2 > n 2^n goes to the Walsh-Hadamard
    transform instead (see _add_bucket_transforms): timed per bucket on
    two CPUs, the two cost the same between m^2 = 0.6 n 2^n and
    1.3 n 2^n from n = 7 to 14.
    The test reads the block maximum that the DDT peak takes anyway, so a
    block with no large bucket does no extra work. out is a C-contiguous
    (rows, 2^n) array. Returns the DDT rows and their maximum.
    """
    N = table.size
    n = N.bit_length() - 1
    y = np.arange(N)
    reps = y[y & (1 << int(a[0]).bit_length() - 1) == 0]
    frep = table[reps]
    # key = i * N + beta for the element (a[i], r), beta = D_a[i](r)
    key = np.arange(a.size)[:, None] * N + (frep ^ table[reps ^ a[:, None]])
    reps_per_bucket = np.bincount(key.ravel(), minlength=out.size)
    ddt_rows = 2 * reps_per_bucket.reshape(out.shape)
    out[:] = ddt_rows
    out[:, 0] += N
    most = int(reps_per_bucket.max())
    # key << n | f(r) over the buckets with a pair, one run per bucket
    packed = np.sort((key << n | frep)[reps_per_bucket[key] >= 2])
    ks = packed >> n
    if most * most > n * N:  # some bucket goes to the transform
        large = reps_per_bucket[ks] ** 2 > n * N
        _add_bucket_transforms(out, ks[large], packed[large] & (N - 1))
        packed, ks = packed[~large], ks[~large]
    four = out.dtype.type(4)  # np.add.at with a Python int scalar takes about 3x as long
    for i, j in _equal_pairs(ks):
        # equal keys, so packed[i] ^ packed[j] = f(r) + f(r'); xored into
        # the key it is the cell (row, f(r)+f(r')+beta), and ^ beta moves
        # that to (row, f(r)+f(r'))
        cell = ks[i] ^ packed[i] ^ packed[j]
        np.add.at(out.reshape(-1), np.concatenate((cell, cell ^ (ks[i] & (N - 1)))), four)
    return ddt_rows, 2 * most


def _add_bucket_transforms(out: np.ndarray, ks: np.ndarray, fr: np.ndarray) -> None:
    """Add the pairs of whole buckets to the rows out of _bct_rows by transforms.

    ks holds the sorted keys i 2^n + beta of the buckets' representatives
    r in row i of out, one run per bucket, and fr their f(r). With A the
    XOR autocorrelation of the histogram of a bucket's f(r), less its m
    pairs r = r' at b = 0, the bucket adds 2 A(b) + 2 A(b + beta) to its
    row: the same cells as its C(m, 2) pairs. The buckets go through the
    transforms together, in chunks of about _BLOCK histogram cells, so the
    Python work is per chunk and no temporary outgrows a block array.
    """
    N = out.shape[1]
    first = np.flatnonzero(np.diff(ks, prepend=-1))  # each bucket's first position
    per = max(1, _BLOCK // N)
    for lo, hi in zip(first[::per], np.append(first[per::per], ks.size)):
        # ks[lo:hi] is sorted, so slot numbers the chunk's buckets in order
        b, slot = np.unique(ks[lo:hi], return_inverse=True)
        h = np.bincount(slot * N + fr[lo:hi], minlength=b.size * N).reshape(-1, N)
        A = _autocorrelation(h)
        A[:, 0] -= np.bincount(slot)  # the pairs r = r'
        A += A[np.arange(b.size)[:, None], np.arange(N) ^ (b % N)[:, None]]
        # the buckets of one row are adjacent, so each row takes one sum
        row, new = np.unique(b // N, return_index=True)
        out[row] += 2 * np.add.reduceat(A, new)


def _equal_pairs(ks: np.ndarray):
    """Yield (i, i + s) position arrays, s = 1, 2, ..., of the equal keys in sorted ks.

    Each key is one run, so position i pairs with i + s exactly when ks
    holds s later copies of ks[i]: every unordered pair of equal keys once,
    for the pair count plus one step per run length, each yield at most
    ks.size positions.
    """
    i, s = np.flatnonzero(ks[1:] == ks[:-1]), 1
    while i.size:
        yield i, i + s
        s += 1
        i = i[i + s < ks.size]
        i = i[ks[i + s] == ks[i]]


def bct_row(f: SBox, a: int) -> np.ndarray:
    """One BCT row T(a, .), counted from the fibres of D(y) = f(y+a) + f(y).

    T(a, b) counts the pairs (y, y') with f(y)+f(y') = b and
    f(y+a)+f(y'+a) = b, that is D(y) = D(y'). Row 0, one fibre of every y,
    is the XOR autocorrelation of the value histogram, a Walsh-Hadamard
    transform of the squared transform. Any other row is one row of the
    bct_fast kernel (see _bct_rows): sum over beta of C(DDT(a, beta)/2, 2)
    representative pairs, with the fibres too large to pair taken by the
    transform. a is checked as derivative checks it (see sbox._shift).
    """
    a, N = _shift(f, a), f.spec.size
    if a == 0:
        return _autocorrelation(np.bincount(f.table, minlength=N))
    row = np.empty((1, N), dtype=np.int64)
    _bct_rows(f.table, np.array([a]), row)
    return row[0]


# -- symmetry orbits --------------------------------------------------------------


class _Symmetry(NamedTuple):
    """Symmetries of f that act on the shift a of its BCT and DDT.

    frobenius: f(x^2) = f(x)^2, so T(a^2, b^2) = T(a, b).
    order, e: f(c x) = c^e f(x) for every c in the subgroup U of GF(2^n)*
    of this order, so T(c a, b) = T(a, b c^-e); order 1 is no scaling.
    """

    frobenius: bool
    order: int
    e: int


def _symmetry(f: SBox) -> _Symmetry:
    """The Frobenius and the largest scaling symmetry of f, from its table.

    O(1) lookups turn unstructured maps away before any field table is
    read: Frobenius needs f(0), f(1) in {0, 1}; scaling needs f(1) != 0,
    which gives e from f(c) = c^e f(1), and f(0) = 0, or f(0) = f(1) for
    the e = 0 of x^0 (f(0) = c^e f(0) for every c in U). The subgroups U
    are tried from the largest, over the divisors of 2^n - 1, each with an
    O(1) test of f(c) against U and then one whole-table comparison for
    its generator c. The orders that hold are closed under lcm, so the
    first one found is the largest.
    """
    table, spec = f.table, f.spec
    t0, t1, M = int(table[0]), int(table[1]), spec.size - 1
    frobenius = False
    if t0 <= 1 and t1 <= 1:
        idx = np.arange(spec.size)
        sq = spec.mul_vec(idx, idx)
        frobenius = np.array_equal(table[sq], sq[table])
    if t1 == 0 or t0 not in (0, t1):
        return _Symmetry(frobenius, 1, 0)
    log, exp = spec._tables()
    along = None  # f(g^i) for i = 0 .. 2^n - 2, read once a candidate passes
    for m in _divisors(M, spec._factors)[:-1]:  # the last, 1, is no scaling
        s = M // m  # U is generated by c = g^s
        fc = int(table[exp[s]])
        t = (int(log[fc]) - int(log[t1])) % M  # c^e = g^t when fc = c^e f(1)
        if fc == 0 or t % s or (t0 and t):
            continue
        if along is None:
            along = table[exp]
        if np.array_equal(np.roll(along, -s), spec._mul_by(along, int(exp[t]))):
            return _Symmetry(frobenius, m, t // s)
    return _Symmetry(frobenius, 1, 0)


def _divisors(m: int, primes) -> list[int]:
    """The divisors of m, largest first, from its prime factors."""
    divs = [1]
    for p in primes:
        powers, q = [1], m
        while q % p == 0:
            q //= p
            powers.append(powers[-1] * p)
        divs = [d * k for d in divs for k in powers]
    return sorted(divs, reverse=True)


def _orbit_rows(f: SBox):
    """Yield (a, size, block, ddt_rows, ddt_max) for the orbit representatives a.

    The orbits of a != 0 under a -> c a^(2^k) (c in U, k over 0 .. n-1 when
    f commutes with squaring, k = 0 otherwise; see _symmetry): with a = g^i,
    U moves i by multiples of s = (2^n - 1)/|U| and squaring doubles it, so
    the orbits are the cyclotomic classes of i mod s, each |U| times as
    large, and the representative is the least element. The BCT and DDT
    rows of every other member are its representative's with the columns
    permuted and b = 0 fixed, so one row per orbit, weighted by the orbit's
    size, holds every maximum and every value count over b != 0. The
    representatives come in increasing a in blocks of the row kernel (see
    _bct_blocks); block is reused. A map with no symmetry has each a as its
    own orbit.
    """
    spec, sym = f.spec, _symmetry(f)
    log, _ = spec._tables()
    s = (spec.size - 1) // sym.order
    shifts = np.arange(1, spec.size)
    lead = r = log[shifts] % s
    for _ in range(spec.n - 1 if sym.frobenius else 0):
        r = 2 * r % s
        lead = np.minimum(lead, r)
    _, first, sizes = np.unique(lead, return_index=True, return_counts=True)
    size_of = np.zeros(spec.size, dtype=np.int64)
    size_of[shifts[first]] = sizes
    for a, block, ddt_rows, ddt_max in _bct_blocks(f.table, shifts[np.sort(first)]):
        yield a, size_of[a], block, ddt_rows, ddt_max


def _orbit_report(f: SBox, algorithm: str) -> UniformityReport:
    """Both uniformities and witnesses from one row per orbit (see _orbit_rows).

    The rows of an orbit share their maxima, so the least a whose row
    reaches a maximum is its orbit's least element, a representative, and
    the first row-major witnesses are the full tables' (the _peak rule).
    """
    delta = boom = -1
    for a, _, block, ddt_rows, ddt_max in _orbit_rows(f):
        if ddt_max > delta:
            delta, (i, b) = _peak(ddt_rows, 0, 0)
            ddt_arg = int(a[i]), b
        value, (i, b) = _peak(block[:, 1:], 0, 1)
        if value > boom:
            boom, bct_arg = value, (int(a[i]), b)
    return UniformityReport(delta, boom, ddt_arg, bct_arg, algorithm)


# -- one-orbit maps -----------------------------------------------------------------


def _power_rows(f: SBox, e: int, out: np.ndarray) -> None:
    """Rows 2 .. 2^n - 1 of the DDT or BCT of a one-orbit f, rotated from row 1 in out.

    f is one orbit when f(u x) = u^e f(x) for every u != 0 (_symmetry's
    order 2^n - 1): c x^d, c != 0, with e = d mod 2^n - 1, and e = 0 for
    the constants c x^0. With x = a*x', T(a, b) = T(1, b * a^-e) for
    a != 0, in either table. In log order of b, row a is row 1 rotated by
    -e log a, a window of the doubled row, gathered in blocks of about
    _BLOCK cells. The caller counts rows 0 and 1 into out: bct_fast with
    the autocorrelation and its row kernel, ddt by bincounts.
    """
    spec = f.spec
    N, m = spec.size, spec.size - 1
    log, exp = spec._tables()
    ring = out[1][exp]
    doubled = np.concatenate((ring, ring)).astype(out.dtype)
    rows = max(1, _BLOCK // N)
    for a0 in range(2, N, rows):
        block = out[a0 : a0 + rows]
        start = m - e * log[a0 : a0 + block.shape[0]] % m
        # whole rows keep out contiguous, so take writes it without a buffer;
        # column 0 (log[0] is a dead slot) is set after
        np.take(doubled, start[:, None] + log, out=block, mode="clip")
        block[:, 0] = out[1, 0]


_BCT_BUILDERS = {"naive": bct_naive, "system": bct_system, "fast": bct_fast}


def bct(f: SBox, algorithm: str = "fast") -> KTable:
    """Build the BCT with a selectable algorithm (naive | system | fast)."""
    try:
        builder = _BCT_BUILDERS[algorithm]
    except KeyError:
        raise ValueError(f"unknown BCT algorithm {algorithm!r}") from None
    return builder(f)


def _peak(sub: np.ndarray, off_a: int, off_b: int) -> tuple[int, tuple[int, int]]:
    """Maximum of sub and its first row-major position, shifted by (off_a, off_b).

    Row maxima, then the first row holding the overall maximum, then argmax
    within it: argmax over the strided view sub would ravel a full copy.
    """
    row_max = sub.max(axis=1)
    i = int(np.argmax(row_max))
    return int(row_max[i]), (i + off_a, int(np.argmax(sub[i])) + off_b)


def boomerang_uniformity(f: SBox, algorithm: str = "fast") -> UniformityReport:
    """Boomerang and differential uniformities with first row-major witnesses.

    With "fast", every map that is not a power map is read off one row per
    orbit, with no table (see _orbit_report); with no symmetry each a is
    its own orbit, so its rows stream through in blocks. So is a power map
    past bct_fast's reach, whose table would exceed physical memory: it is
    one orbit, read off row 1. Power maps within that reach, the one-orbit
    maps with f(1) = 1, and the oracles take the table route: the BCT is
    reduced to its maximum and dropped before the DDT is built, so the two
    tables are never held at once and each builder's memory check is true.
    """
    if algorithm == "fast" and (
        _symmetry(f).order < f.spec.size - 1
        or f.table[1] != 1
        or _fast_peak_bytes(f.spec.n) > _memory_budget()
    ):
        return _orbit_report(f, algorithm)
    t = bct(f, algorithm=algorithm)
    boom, bct_arg = _peak(t.counts[1:, 1:], 1, 1)
    del t  # the BCT goes before any DDT is built
    delta, ddt_arg = _peak(ddt(f).counts[1:, :], 1, 0)
    return UniformityReport(
        differential_uniformity=delta,
        boomerang_uniformity=boom,
        ddt_argmax=ddt_arg,
        bct_argmax=bct_arg,
        algorithm=algorithm,
    )


def monomial_boomerang_uniformity(spec: FieldSpec, d: int) -> UniformityReport:
    """Row shortcut for power maps: every row a != 0 is a rescaled copy of row 1.

    For f = x^d, T(a, b) = T(1, b * a^-d), in the DDT as well, so the
    nonzero shifts are one orbit (see _orbit_report) and row 1 alone, sum
    over beta of C(DDT(1, beta)/2, 2) representative pairs, gives both
    uniformities and the witnesses of boomerang_uniformity.
    """
    return _orbit_report(from_monomial(spec, d), "row")


def quadratic_bound_check(f: SBox) -> bool:
    """For a quadratic permutation: Delta <= delta_f <= Delta*(Delta-1)."""
    rep = _orbit_report(f, "fast")
    lo = rep.differential_uniformity
    return lo <= rep.boomerang_uniformity <= lo * (lo - 1)


# -- exports ---------------------------------------------------------------------


def _decimal_rows(m: np.ndarray):
    """Yield each row of an integer array (a 1-D array is one row) as decimal strings.

    Counts and Walsh values span few integers, so each row is a lookup in one
    table of strings over [min, max]. When that span is wider than the array
    has cells (BCT(0, 0) = 4^n of a constant map), each value goes through
    str instead, so the table is never larger than the array itself.
    """
    m = np.atleast_2d(m)
    if m.size == 0:
        return
    lo, hi = int(m.min()), int(m.max())
    if hi - lo >= m.size:
        for row in m:
            yield list(map(str, row.tolist()))
        return
    lut = np.array(list(map(str, range(lo, hi + 1))), dtype=object)
    for row in m:  # row by row: a whole-table list would raise peak memory
        yield lut[row - lo].tolist()


def _chunks(pieces):
    """Join an iterable of strings into chunks of about _CHUNK characters.

    A chunk closes at the first piece that takes it to _CHUNK characters,
    so it outgrows _CHUNK by less than one piece; only the last is shorter.
    """
    buf, size = [], 0
    for piece in pieces:
        buf.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            chunk, buf, size = "".join(buf), [], 0
            yield chunk
            del chunk  # hold no written chunk while the next is built
    if buf:
        chunk, buf = "".join(buf), None
        yield chunk


def _csv_chunks(corner: str, m: np.ndarray):
    """CSV with header "<corner>,0,1,..." and one row "i,m[i,0],m[i,1],..." per i.

    Yielded in chunks (see _chunks), so the text is never held whole.
    """
    header = corner + "," + ",".join(map(str, range(m.shape[1]))) + "\n"
    rows = (f"{i},{','.join(row)}\n" for i, row in enumerate(_decimal_rows(m)))
    return _chunks(itertools.chain((header,), rows))


def ktable_to_csv(t: KTable) -> str:
    r"""CSV with header "a\b,0,1,..." and one row of plain decimal counts per a."""
    return "".join(_csv_chunks("a\\b", t.counts))


def _ktable_fields(t: KTable) -> dict:
    """The JSON fields of a table, with the counts left as the 2-D array."""
    return {
        "kind": t.kind,
        "n": t.spec.n,
        "algorithm": t.algorithm,
        "max_nonzero": t.max_nonzero(),
        "counts": t.counts,
    }


def ktable_to_json(t: KTable) -> dict:
    """JSON payload: kind, n, algorithm, headline max, row-major counts."""
    return {**_ktable_fields(t), "counts": t.counts.ravel().tolist()}
