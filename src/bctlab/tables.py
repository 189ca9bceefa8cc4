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

bct_fast counts whole rows a from the fibres of the derivative
D_a(y) = f(y+a) + f(y): the pairs (y, y) and {y, y+a} give N at b = 0 and
the DDT row, and it enumerates only unordered pairs of representatives of
one fibre under y -> y+a, none when Delta = 2. Row 0 is the fibre row of
the zero derivative. It is one serial pass in blocks of rows, and the DDT
rows it counts on the way give boomerang_uniformity the DDT maximum with
no DDT built.
bct_fast and ddt refuse, before allocating, a table whose estimated peak
exceeds physical memory. No builder starts a thread.
Counts are stored as int32, and KTable refuses any count above its
maximum: every count is at most 4^n, which fits up to n = 15, but BCT(0, 0)
of a constant map is exactly 4^n and does not fit at n = 16.

bct_row counts one row T(a, .) of any map from the fibres of the
derivative D(y) = f(y+a) + f(y): sum over beta of C(DDT(a, beta), 2)
unordered pairs, or one Walsh-Hadamard autocorrelation for a fibre too
large to pair. bct_fast and bct_row pack (fibre, value) into one int64,
sort it once and take their pairs from one walk, _equal_pairs, over the
equal keys of the sorted array. Power maps f = x^d are
detected from the table (two lookups reject other maps) in bct_fast and
ddt: every row a != 0 of either table is row 1 with its columns
rescaled, T(a, b) = T(1, b * a^-d), a rotation in log order of b, and
row 0 is counted as for any map. Other maps run the generic builders;
ddt is then one bincount per row.
monomial_boomerang_uniformity reads a power map's uniformity off row 1.

Exports are byte-identical to str() per cell: each row's decimal strings
are looked up in one table over the value span (str per value only when
the span is wider than the table has cells), and the CLI writes JSON tables
from the same rows without building a list of Python ints.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .gf2n import FieldSpec, _fwht
from .sbox import SBox, derivative, from_monomial, inverse_table

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


class KTable:
    """A 2^n x 2^n table of non-negative counts (DDT or BCT)."""

    # (DDT maximum over a != 0, its first row-major witness), kept by the
    # generic bct_fast pass for boomerang_uniformity
    _ddt_peak: tuple[int, tuple[int, int]] | None = None

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

    Each row is the bincount of one derivative. A power map x^d counts rows
    1 and 0 only and rotates row 1 into every row a != 0 (see _power_rows).
    Counts are at most 2^n, so the table accumulates int32 and KTable keeps
    it without a copy. Raises MemoryError, before allocating, when the
    estimated peak exceeds physical memory.
    """
    n, N, table = f.spec.n, f.spec.size, f.table
    _require_memory("ddt", n, _ddt_peak_bytes(n))
    idx = np.arange(N)
    counts = np.zeros((N, N), dtype=np.int32)

    def row(a: int) -> np.ndarray:
        return np.bincount(table ^ table[idx ^ a], minlength=N)

    d = _power_exponent(f)
    if d is not None:
        _power_rows(f, d, counts, row(1), row(0))
    else:
        for a in range(N):
            counts[a] = row(a)
    return KTable(f.spec, "DDT", counts, "ddt")


def differential_uniformity(t: KTable) -> int:
    """Max DDT count over a != 0 (all b)."""
    if t.kind != "DDT":
        raise ValueError(f"expected a DDT, got {t.kind}")
    return int(t.counts[1:, :].max())


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
    from n = 12 the table dominates."""
    return np.dtype(_fast_dtype(n)).itemsize * 4**n + 160 * _BLOCK


def bct_fast(f: SBox) -> KTable:
    """Whole rows from the fibres of D_a; representative pairs, zero for APN maps.

    Row a != 0 counts the pairs (y, y') in one fibre X of the derivative
    D_a(y) = f(y+a) + f(y) at b = f(y) + f(y') (see bct_row). X is closed
    under y -> y+a, and its representatives r have the top bit of a clear.
    The pairs (y, y) add N at b = 0, the pairs {y, y+a} add DDT(a, .), and
    each unordered pair {r, r'} of one fibre beta adds 4 at f(r)+f(r') and
    4 at f(r)+f(r')+beta, so the work is sum over (a, beta) of
    C(DDT(a, beta)/2, 2) pairs. Row 0 is the fibre row of the zero
    derivative. The rows a sharing a top bit share the representatives and
    run as blocks of about _BLOCK derivative values: each block sorts its
    (row, beta, f(r)) keys once, walks the equal keys with _equal_pairs and
    writes its own rows, so its temporaries stay near cache size; counts
    are integer sums, so the block size changes no cell. The blocks are
    whole DDT rows in increasing a, so the pass keeps the DDT maximum over
    a != 0 and its first row-major witness as well, in the table's
    _ddt_peak. A power map skips all of this: its row 1, counted from one
    derivative's fibres, is rotated into every row a != 0 (see
    _power_rows). Raises MemoryError, before allocating, when the
    estimated peak exceeds physical memory.
    """
    n, N, table = f.spec.n, f.spec.size, f.table
    _require_memory("bct_fast", n, _fast_peak_bytes(n))
    counts = np.empty((N, N), dtype=_fast_dtype(n))
    row0 = _fibre_pair_row(np.zeros_like(table), table)
    idx = np.arange(N)
    d = _power_exponent(f)
    if d is not None:
        _power_rows(f, d, counts, _fibre_pair_row(table ^ table[idx ^ 1], table), row0)
        return KTable(f.spec, "BCT", counts, "fast")
    # a typed 4: np.add.at with a Python int scalar takes about 3x as long
    four = counts.dtype.type(4)
    rows, delta, witness = max(1, _BLOCK // (N // 2)), -1, None
    for k in range(n):
        top = 1 << k
        reps = idx[(idx & top) == 0]
        frep = table[reps]
        for a0 in range(top, 2 * top, rows):
            block = counts[a0 : min(a0 + rows, 2 * top)]  # whole rows, so a view
            flat = block.reshape(-1)
            a = np.arange(a0, a0 + block.shape[0])
            # key = (a - a0) * N + beta for the element (a, r), beta = D_a(r)
            key = (a - a0)[:, None] * N + (frep ^ table[reps ^ a[:, None]])
            reps_per_bucket = np.bincount(key.ravel(), minlength=block.size)
            ddt_rows = 2 * reps_per_bucket.reshape(block.shape)
            block[:] = ddt_rows
            block[:, 0] += N
            if 2 * int(reps_per_bucket.max()) > delta:
                delta, witness = _peak(ddt_rows, a0, 0)
            # key << n | f(r) over the buckets of two or more, one run per bucket
            packed = np.sort((key << n | frep)[reps_per_bucket[key] >= 2])
            ks = packed >> n
            for i, j in _equal_pairs(ks):
                # equal keys, so packed[i] ^ packed[j] = f(r) + f(r'); xored
                # into the key it is the cell (a - a0, f(r)+f(r')+beta), and
                # ^ beta moves that to (a - a0, f(r)+f(r'))
                cell = ks[i] ^ packed[i] ^ packed[j]
                np.add.at(flat, np.concatenate((cell, cell ^ (ks[i] & (N - 1)))), four)
    counts[0] = row0
    t = KTable(f.spec, "BCT", counts, "fast")
    t._ddt_peak = delta, witness
    return t


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
    f(y+a)+f(y'+a) = b, that is D(y) = D(y'): each y adds 1 at b = 0 and
    each unordered pair of one fibre of D adds 2 at f(y) + f(y') (see
    _fibre_pair_row). The work is sum over beta of C(DDT(a, beta), 2)
    pairs, for any map; row 0, one fibre of every y, is a Walsh-Hadamard
    autocorrelation of the value histogram. Raises ValueError for a
    outside [0, 2^n).
    """
    return _fibre_pair_row(derivative(f, a).table, f.table)


def _fibre_pair_row(D: np.ndarray, values: np.ndarray) -> np.ndarray:
    """row[b] = #{(y, y') : D[y] = D[y'] and values[y] + values[y'] = b}.

    D and values lie in [0, 2^n); D << n | values is sorted once, so each
    fibre is one run. A fibre of m positions with m^2 at most the n 2^n
    steps of a Walsh-Hadamard transform goes through _equal_pairs: each
    position adds 1 at b = 0 and each unordered pair adds 2 at
    values[y] + values[y'], C(m, 2) pairs. A larger fibre (row 0 of any
    map, and x^0 and x^(2^i), have one fibre of 2^n) is a histogram h
    instead: its row is the XOR autocorrelation sum_u h(u) h(u+b), the
    transform of the squared transform over 2^n, exact in int64 since the
    sums stay below 2^(3n).
    """
    N = D.size
    n = N.bit_length() - 1
    packed = np.sort(D << n | values)
    ks = packed >> n
    starts = np.flatnonzero(np.diff(ks, prepend=-1))
    sizes = np.diff(starts, append=N)
    large = sizes * sizes > n * N
    small = ~np.repeat(large, sizes)
    row, squares = np.zeros(N, dtype=np.int64), np.zeros(N, dtype=np.int64)
    two = row.dtype.type(2)  # typed, as bct_fast's four
    row[0] = np.count_nonzero(small)
    ps = packed[small]
    for i, j in _equal_pairs(ks[small]):
        # equal keys, so ps[i] ^ ps[j] = values[y] + values[y']
        np.add.at(row, ps[i] ^ ps[j], two)
    for s, m in zip(starts[large].tolist(), sizes[large].tolist()):
        squares += _fwht(np.bincount(packed[s : s + m] & (N - 1), minlength=N)) ** 2
    if squares.any():
        row += _fwht(squares) // N
    return row


# -- power maps ---------------------------------------------------------------------


def _power_exponent(f: SBox) -> int | None:
    """d when f is x^d, else None; x^0 (1 at 0) and x^(2^n-1) (0 at 0) differ.

    Only maps with f(1) = 1 and f(0) in {0, 1} get past two lookups. Then
    d = log f(g) for the generator g of FieldSpec._tables, or 2^n - 1 in
    place of 0 when f(0) = 0, and the whole table is compared once.
    """
    table, spec = f.table, f.spec
    if table[1] != 1 or table[0] > 1:
        return None
    log, exp = spec._tables()
    d = int(log[table[exp[1]]])
    if d == 0 and table[0] == 0:
        d = spec.size - 1
    return d if np.array_equal(table, spec.pow_vec(np.arange(spec.size), d)) else None


def _power_rows(f: SBox, d: int, out: np.ndarray, row1: np.ndarray, row0: np.ndarray) -> None:
    """The whole DDT or BCT of f = x^d, written into out from its rows 1 and 0.

    With x = a*x', f(a*x) = a^d f(x) gives T(a, b) = T(1, b * a^-d) for
    a != 0, in either table. In log order of b, row a is row 1 rotated by
    -d log a, a window of the doubled row, gathered in blocks of about
    _BLOCK cells. The caller counts both rows: bct_fast from the fibres of
    the derivatives f(y+1) + f(y) and f(y) + f(y), ddt by their bincounts.
    """
    spec = f.spec
    N, m = spec.size, spec.size - 1
    log, exp = spec._tables()
    ring = row1[exp]
    doubled = np.concatenate((ring, ring)).astype(out.dtype)
    rows = max(1, _BLOCK // N)
    for a0 in range(1, N, rows):
        block = out[a0 : a0 + rows]
        start = m - (d % m) * log[a0 : a0 + block.shape[0]] % m
        # whole rows keep out contiguous, so take writes it without a buffer;
        # column 0 (log[0] is a dead slot) is set after
        np.take(doubled, start[:, None] + log, out=block, mode="clip")
        block[:, 0] = row1[0]
    out[0] = row0


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
    """Full-table boomerang and differential uniformities with witnesses.

    The generic bct_fast pass also keeps the DDT maximum and its witness,
    so for those maps no DDT is built. The oracles and power maps carry
    none; their BCT is reduced to its maximum and dropped before the DDT is
    built, so the two tables are never held at once and each builder's
    memory check is true.
    """
    t = bct(f, algorithm=algorithm)
    (boom, bct_arg), fused = _peak(t.counts[1:, 1:], 1, 1), t._ddt_peak
    del t  # the BCT goes before any DDT is built
    delta, ddt_arg = fused or _peak(ddt(f).counts[1:, :], 1, 0)
    return UniformityReport(
        differential_uniformity=delta,
        boomerang_uniformity=boom,
        ddt_argmax=ddt_arg,
        bct_argmax=bct_arg,
        algorithm=algorithm,
    )


def monomial_boomerang_uniformity(spec: FieldSpec, d: int) -> UniformityReport:
    """Row shortcut for power maps: every row is a scaled copy of row a=1.

    For f = x^d, T(a, b) = T(1, b * a^-d), so the maximum over the whole
    table equals the maximum of the single row a=1 (and likewise for the
    DDT). bct_row counts that row from the fibres of f(y+1) + f(y), sum
    over beta of C(DDT(1, beta), 2) pairs, instead of a full table build.
    Both witnesses come from _peak, as in boomerang_uniformity.
    """
    f = from_monomial(spec, d)
    boom, bct_arg = _peak(bct_row(f, 1)[None, 1:], 1, 1)
    drow = np.bincount(f.table ^ f.table[np.arange(spec.size) ^ 1], minlength=spec.size)
    delta, ddt_arg = _peak(drow[None, :], 1, 0)
    return UniformityReport(
        differential_uniformity=delta,
        boomerang_uniformity=boom,
        ddt_argmax=ddt_arg,
        bct_argmax=bct_arg,
        algorithm="row",
    )


def quadratic_bound_check(f: SBox) -> bool:
    """For a quadratic permutation: Delta <= delta_f <= Delta*(Delta-1)."""
    rep = boomerang_uniformity(f)
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


def _matrix_csv(corner: str, m: np.ndarray) -> str:
    """CSV with header "<corner>,0,1,..." and one row "i,m[i,0],m[i,1],..." per i."""
    lines = [corner + "," + ",".join(map(str, range(m.shape[1])))]
    lines += [f"{i}," + ",".join(row) for i, row in enumerate(_decimal_rows(m))]
    return "\n".join(lines) + "\n"


def ktable_to_csv(t: KTable) -> str:
    r"""CSV with header "a\b,0,1,..." and one row of plain decimal counts per a."""
    return _matrix_csv("a\\b", t.counts)


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
