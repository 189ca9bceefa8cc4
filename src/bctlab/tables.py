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

Every DDT and BCT row a != 0 comes from one row kernel over the fibres
of the derivative D_a(y) = f(y+a) + f(y), each closed under y -> y+a.
Its count stage, _derivative_counts, runs over blocks of rows that share
a top bit, in one serial pass, takes one representative of each pair
{y, y+a} and counts the fibres into int32 DDT rows by np.add.at, 2 per
representative: that is the DDT's row source. The BCT stage, _bct_rows,
reads the same block: the pairs (y, y) and {y, y+a} give N at b = 0 and
the DDT row, and it enumerates only unordered pairs of representatives
of one fibre, sum over beta of C(DDT(a, beta)/2, 2) pairs, none when
Delta = 2. It packs (row, fibre, value) into one uint32 key, below
rows * 4^n, so a block holds at most 2^(32 - 2n) rows (one at n = 16)
and every n from 2 to 16 has the same key width. It sorts every key
once and takes the pairs from one walk, _equal_pairs, over the equal
ones, which skips the fibres of one representative, adding the cells of
every step at once; the fibres with too many representatives to pair go
through Walsh-Hadamard autocorrelations instead, many fibres to one
batched transform. Row 0, one fibre of every y, is N at b = 0 in the DDT
and the autocorrelation of the value histogram in the BCT. _bct_blocks
writes the BCT rows into one reused buffer, which bct_fast, the reducers
below and the CSV export read; the kernel's work buffers (keys, DDT
rows, row offsets, the BCT block) are allocated once per call, so no
block allocates them again; bct_row(f, a) is one row.
One refusal rule: a table refuses by memory; a stream or a row sum never
does; the O(2^3n) oracles and S_2 refuse by cost. Every table builder
(ddt, bct_fast, the oracles, walsh.walsh_spectrum) refuses, before
allocating, a table whose estimated peak exceeds physical memory, and the
two O(2^3n) oracles refuse n > 12, which would take half an hour at
n = 13. No builder starts a thread.
Every table is stored as int32, by one rule, _int32: an int32 array is
kept as it is, any other integer or bool array is converted, and a value
int32 cannot hold, or a dtype that is not integer, is refused. KTable and
walsh.WalshSpectrum store their values by it through one helper,
_stored, and every fill applies it. Every count is at most 4^n,
which fits up to n = 15, but BCT(0, 0) of a constant map is exactly 4^n
and does not fit at n = 16. No BCT count exceeds BCT(0, 0): BCT(a, b) <=
BCT(0, b) = sum over u of h(u) h(u+b) <= sum of h^2 = BCT(0, 0), with h
the value histogram, by Cauchy-Schwarz. So a BCT that int32 cannot hold
is refused at row 0, its first block, before the kernel counts a row.

Symmetry orbits. _symmetry reads two symmetries off the table (O(1)
lookups turn unstructured maps away first): f(x^2) = f(x)^2, and the
largest subgroup U of GF(2^n)* with f(c x) = c^e f(x). Under them the BCT
and DDT rows of the shifts in one orbit of a -> c a^(2^k), c in U, are
column permutations of each other that fix b = 0, so the orbit engine,
_orbit_rows, counts one row per orbit, its least element, with the same
kernel and weighted by the orbit's size. The orbits depend on the field
and the symmetry alone, so each field computes them once per symmetry and
keeps them read-only (FieldSpec._shift_orbits). A map with no symmetry has
each shift as its own orbit, so its rows stream through in blocks. That gives
boomerang_uniformity on every map but an x^d with n <= 9 and
monomial_boomerang_uniformity their values and first row-major witnesses,
and the moments and certificates their value counts (walsh), with no
table. The same test shortens the row sources of the tables, by one
rule, _row_source: for a one-orbit map (U = GF(2^n)*: every c x^d with
c != 0, the nonzero constants c x^0 among them) the kernel stops after
row 1, which _power_rows rotates into every later row, T(a, b) =
T(1, b * a^-e) in log order of b. boomerang_uniformity takes
that table route only for the one-orbit maps with f(1) = 1, exactly the
x^d, whose whole table the kernel counts in one block (n <= 9), and reads
row 1 alone past it, so its route depends on the request, never on the
machine: the benchmark pins `uniformity` on x^3 over GF(2^5)
(bench/test_bench.py, test_traced_request_counts_repeat_exactly) to one
bct_fast call and one ddt call.

Row sources. Each table has one, with one path and one mode: _ddt_blocks
(row 0, then _derivative_counts), _bct_fast_blocks (row 0 the
autocorrelation, then _bct_blocks) and walsh._walsh_blocks yield (first
row, block) in increasing row order, every row once, each block one
reused buffer: about 2 _BLOCK cells for a DDT or BCT block, two cells
per derivative value, and about _BLOCK for a spectrum block or a
rotated power-map block, so a stream needs no memory preflight and
serves every n. ddt, bct_fast and walsh_spectrum fill
their tables from them through one fill, _filled, after their memory preflights. Whatever reads
a table once, in row order, reads its source: the CSV exports and walsh
--json; the spectrum sum S_1 (walsh) reads one row per orbit from the
spectrum's row kernel. A table is built whole only where it is needed
whole: DDT and BCT --json, the oracles, S_2, the public builders and the
x^d route of boomerang_uniformity, no larger than one kernel block.

Exports are byte-identical to str() per cell, from one formatter,
_text_blocks, over a row source (_blocks_of makes one of an array): each
value is the piece sep + str(v) ("," in a CSV, ",\\n    " in JSON),
looked up in one NUL-padded ASCII array over the span of the values so
far, grown when a block widens it (over each block's distinct values when
the span is as wide as one block's cells, so the lookup is never larger
than one block), and a block of rows is one gather of piece ids with the
pad deleted. The CSV is its header and then one chunk per block of about
_CHUNK bytes of ids and pieces (_csv_chunks), which the CLI writes one at
a time and ktable_to_csv joins; a JSON list is "[" and the same blocks
(_json_list_chunks), never built whole or as a list of Python ints. The
writers take a table's values only as a row source: the CLI writes CSV
straight from one, so it holds no table, and a table's JSON fields
(_ktable_fields) hold its counts as _blocks_of(counts). Those fields write
max_nonzero before the counts, so ddt and bct --json build the table.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gf2n import FieldSpec, _autocorrelation
from .sbox import SBox, _integers, _shift, from_monomial, inverse_table

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

# the builders work on temporaries of one block; at 2^17 elements an int64
# one is 1 MiB and stays in a core's L2 cache (2^20 measured slower)
_BLOCK = 1 << 17  # derivative values per bct_fast block, cells per power-map row block
_INT32_MAX = np.iinfo(np.int32).max
_MAX_ORACLE_N = 12  # bct_naive and bct_system are O(2^3n): n = 13 would take about half an hour
_CHUNK = 1 << 20  # bytes of piece ids and gathered pieces per block of exported text


def _int32(values) -> np.ndarray:
    """The storage rule of every table: values as int32. An int32 array is
    kept as it is, unscanned and uncopied; any other integer or bool array
    is converted. ValueError for any other dtype (see sbox._integers) and
    for a value that int32 cannot hold, which a conversion would wrap."""
    arr = _integers(values, "counts")
    hi, lo = (0, 0) if arr.dtype == np.int32 else (int(arr.max()), int(arr.min()))
    if hi > _INT32_MAX:
        raise ValueError(f"count {hi} exceeds the int32 maximum {_INT32_MAX}")
    if lo < -_INT32_MAX - 1:
        raise ValueError(f"count {lo} is below the int32 minimum {-_INT32_MAX - 1}")
    return arr.astype(np.int32, copy=False)


def _stored(spec: FieldSpec, values, error: str) -> np.ndarray:
    """A stored table's values: a C-ordered, read-only int32 view of the 2^n x 2^n values.

    ValueError with the caller's error text for any other shape, and
    _int32's for any other dtype or an out-of-range value. A C-ordered
    int32 input is viewed with no copy, so the table aliases that array,
    which stays writable for its owner; any other is viewed as its
    converted copy. KTable and walsh.WalshSpectrum store by it.
    """
    if np.shape(values) != (spec.size, spec.size):
        raise ValueError(error)
    view = np.ascontiguousarray(_int32(values)).view()
    view.flags.writeable = False
    return view


class KTable:
    """A 2^n x 2^n table of non-negative counts (DDT or BCT), stored by _stored.

    counts is a C-ordered, read-only view: of a C-ordered int32 input,
    with no copy, so the table aliases that array (which stays writable
    for its owner), and of the converted copy of any other."""

    def __init__(self, spec: FieldSpec, kind: str, counts, algorithm: str):
        if kind not in ("DDT", "BCT"):
            raise ValueError(f"kind must be 'DDT' or 'BCT', got {kind!r}")
        self.counts = _stored(spec, counts, "counts must be a 2^n x 2^n matrix")
        self.spec = spec
        self.kind = kind
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

    Filled from its row source, _ddt_blocks (see _filled). Raises
    MemoryError, before allocating, when the estimated peak exceeds
    physical memory.
    """
    _require_memory("ddt", f.spec.n, _ddt_peak_bytes(f.spec.n))
    return KTable(f.spec, "DDT", _filled(f.spec.size, _ddt_blocks(f)), "ddt")


def _filled(N: int, blocks) -> np.ndarray:
    """The int32 N x N table of a row source: each block copied into its rows.

    blocks yields (first row, block) in increasing row order, every row
    once (see _ddt_blocks). Each block is stored by _int32 as it comes, so
    an int32 block is copied once, and a block int32 cannot hold is
    refused before the source is asked for the next.
    """
    table = np.empty((N, N), dtype=np.int32)
    for a0, block in blocks:
        table[a0 : a0 + len(block)] = _int32(block)
    return table


def _ddt_blocks(f: SBox):
    """Yield (a0, block), the DDT rows a0 .. a0 + len(block) - 1, in increasing a0.

    Row 0 is N at b = 0 (D_0 vanishes on every x), and the rows a != 0
    are the row kernel's count stage itself (see _derivative_counts);
    _row_source states the one-orbit rule.
    """
    row0 = np.zeros(f.spec.size, dtype=np.int32)
    row0[0] = f.spec.size
    return _row_source(f, row0, _derivative_counts)


def _row_source(f: SBox, row0: np.ndarray, kernel):
    """Yield (a0, block), row0 and then a table's rows a != 0, in increasing a0.

    The one-orbit rule of both row sources, _ddt_blocks and
    _bct_fast_blocks: kernel(table, rows) yields (a, block, ...) for the
    increasing a in rows, and a one-orbit map (every c x^d with c != 0)
    asks it for row 1 alone, which _power_rows rotates into rows
    2 .. 2^n - 1. Every block after row 0 is a reused buffer, to be read
    before the next is asked for.
    """
    N, sym = f.spec.size, _symmetry(f)
    counted = 2 if sym.order == N - 1 else N
    yield 0, row0[None]
    for a, block, *_ in kernel(f.table, np.arange(1, counted)):
        yield int(a[0]), block
    if counted < N:
        yield from _power_rows(f, sym.e, block[-1])


def differential_uniformity(t: KTable) -> int:
    """Max DDT count over a != 0 (all b)."""
    if t.kind != "DDT":
        raise ValueError(f"expected a DDT, got {t.kind}")
    return t.max_nonzero()


# -- BCT builders -----------------------------------------------------------------


def bct_naive(f: SBox) -> KTable:
    """Inverse-based reference count, O(2^3n); requires a permutation.

    Entry (a, b) counts the x with finv(f(x)+b) + finv(f(x+a)+b) = a,
    the single-variable form of the pair count at the same index. Every
    row is counted into an int32 table, which KTable keeps without a copy:
    a count is at most 4^n, below 2^31 under the cap. Refused past
    n = _MAX_ORACLE_N or over physical memory, before any work (see
    _require_oracle).
    """
    _require_oracle("bct_naive", f.spec.n)
    g = inverse_table(f).table
    N = f.spec.size
    table = f.table
    idx = np.arange(N)
    # M[x, b] = finv(f(x) + b), shared across rows
    M = g[table[:, None] ^ idx[None, :]]
    counts = np.empty((N, N), dtype=np.int32)
    for a in range(N):
        counts[a] = ((M ^ M[idx ^ a, :]) == a).sum(axis=0)
    return KTable(f.spec, "BCT", counts, "naive")


def bct_system(f: SBox) -> KTable:
    """Literal pair count of the two-equation system, O(2^3n); any function.

    Every row is counted into an int32 table, as in bct_naive. Refused
    past n = _MAX_ORACLE_N or over physical memory, before any work (see
    _require_oracle).
    """
    _require_oracle("bct_system", f.spec.n)
    N = f.spec.size
    table = f.table
    idx = np.arange(N)
    B1 = table[:, None] ^ table[None, :]
    counts = np.empty((N, N), dtype=np.int32)
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


def _require_oracle(builder: str, n: int) -> None:
    """Refuse an O(2^3n) oracle past n = _MAX_ORACLE_N (ValueError) or
    over physical memory (MemoryError, see _oracle_peak_bytes)."""
    if n > _MAX_ORACLE_N:
        raise ValueError(
            f"{builder} costs O(2^3n) steps, about 8 times as long per n "
            f"(30 s at n = 11); capped at n <= {_MAX_ORACLE_N}, got n = {n}"
        )
    _require_memory(builder, n, _oracle_peak_bytes(n))


def _ddt_peak_bytes(n: int) -> int:
    """Upper estimate of the bytes ddt allocates at dimension n: the int32
    table, about 8 int64 arrays of one row (the uint32 value table, the
    representatives and their values, the rotation's doubled row), and 24
    bytes per derivative value of one row-kernel block of about _BLOCK
    values (see _derivative_counts): the int32 DDT rows, two cells of 4
    bytes per value, the uint32 keys, 4, and the int64 index copy that
    np.take or np.add.at makes of them, 8. Under tracemalloc the kernel
    peaks at 2.5-2.8 MiB over the table for a random permutation at
    n = 10-13. A one-orbit map counts row 1 alone, and its rotation's
    int32 block and int64 gather indices, 12 bytes per cell of about
    _BLOCK cells, fit the same term."""
    return 4 * 4**n + 64 * 2**n + 24 * _BLOCK


def _fast_dtype(n: int):
    """The dtype of the row kernel's blocks: every count is at most 4^n,
    which fits int32 up to n = 15. The table is int32 at every n (see
    _int32)."""
    return np.int32 if 4**n <= _INT32_MAX else np.int64


def _fast_peak_bytes(n: int) -> int:
    """Upper estimate of the bytes bct_fast allocates at dimension n: the
    int32 table plus 160 bytes per derivative value of one block (20 MiB at
    2^17 values), so from n = 12 the table dominates. A block has two
    cells per value, so the block and the int32 DDT rows, work buffers
    allocated once per call (_derivative_counts), take 8
    bytes per value each (16 for the int64 block at n = 16); the uint32
    keys, the int64 index copies that np.take and np.add.at make of them
    and the pair walk's int64
    positions and uint32 cells (at most about four cells per value are
    held at once, see _bct_rows) take a few dozen more. The large
    buckets' transforms run in chunks of about _BLOCK histogram cells, so
    their few int64 arrays (histograms, transforms, autocorrelations) are
    each about one int64 block array. Under tracemalloc the kernel's
    arrays peak at 9.8 MiB over the table for the constant 0 of GF(2^10),
    every row a transform, 8.9 MiB for a 3-valued map of GF(2^10), 8.2 MiB
    for a 4-valued map of GF(2^10), whose walk holds more pairs than
    values, and 4.4 MiB for a random permutation of GF(2^12). At n = 16
    the kernel's blocks are int64 (see _fast_dtype), one row of 2^16 cells
    each, and _filled converts each into the int32 table, so the table is
    4 bytes per cell at every n: 16.02 GiB at n = 16."""
    return 4 * 4**n + 160 * _BLOCK


def _oracle_peak_bytes(n: int) -> int:
    """Upper estimate of the bytes bct_naive or bct_system allocates at
    dimension n: 32 bytes per table cell and 64 KiB of fixed overhead. Each
    holds one int64 4^n array (bct_naive's M, bct_system's B1), a
    row-shifted int64 copy of it, a bool mask and the int32 counts, about
    21 bytes per cell; under tracemalloc both peak at 21-23 bytes per cell
    from n = 8 and 28-38 at n = 6-7, where the fixed part still shows."""
    return 32 * 4**n + (1 << 16)


def bct_fast(f: SBox) -> KTable:
    """Whole rows from the fibres of D_a; representative pairs, zero for APN maps.

    Filled from its row source, _bct_fast_blocks (see _filled), whose
    first block, row 0, holds the largest count (see the module
    docstring): a table int32 cannot hold is refused there, before the
    kernel counts any other row. Raises MemoryError, before allocating,
    when the estimated peak exceeds physical memory.
    """
    _require_memory("bct_fast", f.spec.n, _fast_peak_bytes(f.spec.n))
    return KTable(f.spec, "BCT", _filled(f.spec.size, _bct_fast_blocks(f)), "fast")


def _bct_fast_blocks(f: SBox):
    """Yield (a0, block), the BCT rows a0 .. a0 + len(block) - 1, in increasing a0.

    Row 0, the first block, is the int64 XOR autocorrelation of the value
    histogram (see bct_row). The rows a != 0 come in blocks from one
    kernel (see _bct_blocks), and _row_source states the one-orbit rule.
    """
    row0 = _autocorrelation(np.bincount(f.table, minlength=f.spec.size))
    return _row_source(f, row0, _bct_blocks)


def _rows_per_block(n: int) -> int:
    """The row kernel's rows per block: about _BLOCK derivative values, and
    at most 2^(32 - 2n) rows, so the packed keys fit in uint32 (see _bct_rows)."""
    return min(max(1, _BLOCK >> n - 1), 1 << 32 - 2 * n)


def _derivative_counts(table: np.ndarray, rows: np.ndarray, out_dtype=None):
    """Yield (a, ddt_rows, frep, key, out) per block of the rows a in rows, nonzero and increasing.

    The count stage of the row kernel, which both tables read: ddt_rows
    holds the DDT rows a, counted on the fibres of D_a(y) = f(y+a) + f(y).
    A fibre is closed under y -> y+a, so each representative r of a pair
    {y, y+a}, the y with the top bit of a clear, adds 2 to DDT(a, D_a(r)),
    by one int32 np.add.at per block. The rows sharing a top bit run in
    blocks of _rows_per_block(n) rows, whose temporaries stay near cache
    size; counts are integer sums, so the block size changes no cell. frep
    holds the representatives' values f(r), taken once per top bit, and
    key (uint32, (rows, 2^(n-1))) the bucket keys i 2^n + D_a(r) of row i,
    which the BCT kernel goes on to pack and sort in place (see
    _bct_rows). Given out_dtype, out is a block of the same shape as
    ddt_rows, of that dtype, for the caller's rows (None otherwise), so
    the block size is decided here alone. table is converted to uint32
    once per call, and ddt_rows, key, out and each row's key offset i 2^n
    are allocated once per call too: ddt_rows, key and out are reused
    buffers, to be read before the next block is asked for.
    """
    N = table.size
    n = N.bit_length() - 1
    table = table.astype(np.uint32)
    size = min(_rows_per_block(n), rows.size)
    key_buf = np.empty((size, N // 2), dtype=np.uint32)
    ddt_buf = np.empty((size, N), dtype=np.int32)
    out_buf = None if out_dtype is None else np.empty((size, N), dtype=out_dtype)
    offs = np.arange(size, dtype=np.uint32)[:, None] * np.uint32(N)
    y = np.arange(N, dtype=np.uint32)
    for k in range(n):
        top = rows[rows >> k == 1]  # the rows with top bit 2^k
        if not top.size:
            continue
        reps = y[y & (1 << k) == 0]  # one y of each pair {y, y+a}
        frep = table[reps]
        for i in range(0, top.size, size):
            a = top[i : i + size]
            key, ddt_rows = key_buf[: a.size], ddt_buf[: a.size]
            # key = i * N + beta for the element (a[i], r), beta = D_a[i](r)
            np.bitwise_xor(reps, a.astype(np.uint32)[:, None], out=key)
            np.take(table, key, out=key, mode="clip")  # every y+a is below 2^n: written in place
            key ^= frep
            key += offs[: a.size]
            ddt_rows.fill(0)
            np.add.at(ddt_rows.reshape(-1), key.reshape(-1), np.int32(2))
            yield a, ddt_rows, frep, key, None if out_buf is None else out_buf[: a.size]


def _bct_blocks(table: np.ndarray, rows: np.ndarray):
    """Count the BCT rows a in rows, nonzero and increasing, with the row kernel.

    Yields (a, block, ddt_rows, ddt_max) per block, in increasing a: the
    BCT rows a, and the DDT rows a of the count stage, _derivative_counts,
    with their maximum, from which _bct_rows counts the pairs. block and
    ddt_rows are reused buffers, block of _fast_dtype(n), to be read before
    the next is asked for.
    """
    n = table.size.bit_length() - 1
    for a, ddt_rows, frep, key, block in _derivative_counts(table, rows, _fast_dtype(n)):
        yield a, block, ddt_rows, _bct_rows(block, ddt_rows, frep, key)


def _bct_rows(out: np.ndarray, ddt_rows: np.ndarray, frep: np.ndarray, key: np.ndarray) -> int:
    """Write the BCT rows of one _derivative_counts block into out; return the DDT maximum.

    Row a counts the pairs (y, y') in one fibre X of the derivative
    D_a(y) = f(y+a) + f(y) at b = f(y) + f(y') (see bct_row). X is closed
    under y -> y+a, and the representatives hold one y of each pair
    {y, y+a}, with values frep. The pairs (y, y) add N at b = 0, the pairs
    {y, y+a} add DDT(a, .), and each unordered pair {r, r'} of
    representatives in one fibre beta adds 4 at f(r)+f(r') and 4 at
    f(r)+f(r')+beta. Every key is a uint32: the bucket key i 2^n + beta
    and the packed key (i 2^n + beta) 2^n + f(r), below rows * 4^n <= 2^32
    (_rows_per_block caps the rows). Row i's keys lie in
    [i 4^n, (i+1) 4^n), so sorting each row in place sorts the block,
    with no filter in front: _equal_pairs walks the equal keys, C(m, 2)
    pairs for a bucket of m = DDT(a, beta) / 2 representatives, and skips
    the buckets of one. The cells of every step of the walk are added
    together, by one np.add.at per block, or per block's worth of pairs
    when a block holds more pairs than values.
    A bucket with m^2 > n 2^n goes to the Walsh-Hadamard
    transform instead (see _add_bucket_transforms): timed per bucket on
    two CPUs, the two cost the same between m^2 = 0.6 n 2^n and
    1.3 n 2^n from n = 7 to 14.
    The test reads the block maximum that the DDT peak takes anyway, so a
    block with no large bucket does no extra work. out is a C-contiguous
    (rows, 2^n) array, ddt_rows the int32 DDT rows and key their uint32
    bucket keys, which are packed and sorted here, in place.
    """
    N = out.shape[1]
    n = N.bit_length() - 1
    most = int(ddt_rows.max())
    np.copyto(out, ddt_rows)
    out[:, 0] += N
    # key << n | f(r), one run per bucket; each row sorted is the block sorted
    key <<= n
    key |= frep
    key.sort()
    packed = key.ravel()
    ks = packed >> n
    cut = 2 * math.isqrt(n * N)  # m^2 > n 2^n exactly when DDT = 2 m > cut
    if most > cut:  # some bucket goes to the transform
        large = ddt_rows.reshape(-1)[ks] > cut
        # int64 keys: np.diff(ks, prepend=-1) takes no uint32
        _add_bucket_transforms(out, ks[large].astype(np.int64), packed[large] & (N - 1))
        packed, ks = packed[~large], ks[~large]
    four = out.dtype.type(4)  # np.add.at with a Python int scalar takes about 3x as long
    cells, held = [], 0
    for i, j in _equal_pairs(ks):
        # equal keys, so packed[i] ^ packed[j] = f(r) + f(r'); xored into
        # the key it is the cell (row, f(r)+f(r')+beta), and ^ beta moves
        # that to (row, f(r)+f(r'))
        k = ks[i]
        cell = k ^ packed[i] ^ packed[j]
        cells += (cell, cell ^ (k & (N - 1)))
        held += i.size
        if held >= ks.size:  # add once the held pairs reach the block's values
            np.add.at(out.reshape(-1), np.concatenate(cells), four)
            cells, held = [], 0
    if cells:
        np.add.at(out.reshape(-1), np.concatenate(cells), four)
    return most


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
    ((_, block, _, _),) = _bct_blocks(f.table, np.array([a]))
    return block[0].astype(np.int64)


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

    Computed once per S-box and kept on it, like its permutation status
    (the table is read-only). O(1) lookups turn unstructured maps away
    before any field table is read: Frobenius needs f(0), f(1) in {0, 1};
    scaling needs f(1) != 0, which gives e from f(c) = c^e f(1), and
    f(0) = 0, or f(0) = f(1) for the e = 0 of x^0 (f(0) = c^e f(0) for
    every c in U). The subgroups U
    are tried from the largest, over the divisors of 2^n - 1, each with an
    O(1) test of f(c) against U and then one whole-table comparison for
    its generator c. The orders that hold are closed under lcm, so the
    first one found is the largest.
    """
    if f._sym is None:
        f._sym = _find_symmetry(f)
    return f._sym


def _find_symmetry(f: SBox) -> _Symmetry:
    """The search _symmetry describes, run once per S-box."""
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
    along = table[exp]  # f(g^i) for i = 0 .. 2^n - 2
    # U = <g^s> has order M / s: s ascending is U from the largest down, and
    # s = M, no scaling, is left out
    for s in (np.flatnonzero(M % np.arange(1, M) == 0) + 1).tolist():
        fc = int(table[exp[s]])
        t = (int(log[fc]) - int(log[t1])) % M  # c^e = g^t when fc = c^e f(1)
        if fc == 0 or t % s or (t0 and t):
            continue
        if np.array_equal(np.roll(along, -s), spec._mul_by(along, int(exp[t]))):
            return _Symmetry(frobenius, M // s, t // s)
    return _Symmetry(frobenius, 1, 0)


def _orbit_rows(f: SBox):
    """Yield (a, size, block, ddt_rows, ddt_max) for the orbit representatives a.

    The orbits of a != 0 under a -> c a^(2^k) (c in U, k over 0 .. n-1 when
    f commutes with squaring, k = 0 otherwise; see _symmetry), each led by
    its least element, are the field's own, computed once per field and
    symmetry (FieldSpec._shift_orbits). The BCT and DDT rows of every other
    member are its representative's with the columns permuted and b = 0
    fixed, so one row per orbit, weighted by the orbit's size, holds every
    maximum and every value count over b != 0. The representatives come in
    increasing a in blocks of the row kernel (see _bct_blocks, which also
    gives the DDT rows); block and ddt_rows are reused, and size is a
    read-only view. A map with no symmetry has each a as its own orbit.
    """
    spec, sym = f.spec, _symmetry(f)
    reps, sizes = spec._shift_orbits(sym.order, sym.frobenius)
    done = 0
    for a, block, ddt_rows, ddt_max in _bct_blocks(f.table, reps):
        yield a, sizes[done : done + a.size], block, ddt_rows, ddt_max
        done += a.size


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
            ddt_arg = (int(a[i]), b)
        value, (i, b) = _peak(block[:, 1:], 0, 1)
        if value > boom:
            boom, bct_arg = value, (int(a[i]), b)
    return UniformityReport(delta, boom, ddt_arg, bct_arg, algorithm)


# -- one-orbit maps -----------------------------------------------------------------


def _power_rows(f: SBox, e: int, row1: np.ndarray):
    """Yield (a0, block), rows 2 .. 2^n - 1 of a one-orbit f's DDT or BCT, rotated from row1.

    f is one orbit when f(u x) = u^e f(x) for every u != 0 (_symmetry's
    order 2^n - 1): c x^d, c != 0, with e = d mod 2^n - 1, and e = 0 for
    the constants c x^0. With x = a*x', T(a, b) = T(1, b * a^-e) for
    a != 0, in either table. In log order of b, row a is row 1 rotated by
    -e log a, a window of the doubled row, gathered in blocks of about
    _BLOCK cells into one reused buffer of row1's dtype, to be read before
    the next is asked for. row1 is read before the first block is written.
    Both row sources count rows 0 and 1 and stop there (see _row_source):
    _ddt_blocks and _bct_fast_blocks by row 0's rule and the row kernel.
    """
    spec = f.spec
    N, m = spec.size, spec.size - 1
    log, exp = spec._tables()
    ring = row1[exp]
    doubled, corner = np.concatenate((ring, ring)), row1[0]
    rows = max(1, _BLOCK // N)
    buf = np.empty((min(rows, N - 2), N), dtype=row1.dtype)
    for a0 in range(2, N, rows):
        block = buf[: min(rows, N - a0)]
        start = m - e * log[a0 : a0 + block.shape[0]] % m
        # whole rows keep the block contiguous, so take writes it without a
        # buffer; column 0 (log[0] is a dead slot) is set after
        np.take(doubled, start[:, None] + log, out=block, mode="clip")
        block[:, 0] = corner
        yield a0, block


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

    With "fast", every map is read off one row per orbit, with no table
    (see _orbit_report), except a power map whose whole table the row
    kernel counts in one block (_rows_per_block(n) >= 2^n: n <= 9 at
    _BLOCK = 2^17, and never past n = 10 by the uint32 key cap). A map
    with no symmetry has each a as its own orbit, so its rows stream
    through in blocks; a power map (a one-orbit map with f(1) = 1) is
    read off row 1. The route depends on the request alone, never on the
    machine. The x^d within one block and the oracles take the table
    route: the BCT is reduced to its maximum and dropped before the DDT is
    built, so the two tables are never held at once and each builder's
    memory check is true.
    """
    if algorithm == "fast" and (
        _symmetry(f).order < f.spec.size - 1
        or f.table[1] != 1
        or _rows_per_block(f.spec.n) < f.spec.size
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


def _pieces(sep: str, values) -> np.ndarray:
    """sep + str(v) for each v, as one array of ASCII bytes NUL-padded to the widest."""
    return np.array([sep + str(v) for v in values], dtype="S")


def _blocks_of(m: np.ndarray):
    """An integer array as a row source: an iterator of (0, m as 2-D), empty when m is."""
    return iter([(0, np.atleast_2d(m))] if m.size else [])


def _text_blocks(blocks, sep: str, rows: int = 0):
    """Yield the decimal text of a row source's rows in blocks.

    blocks yields (first row, 2-D integer block) in increasing row order
    (see _ddt_blocks; _blocks_of makes one of an array). Each value v is
    the piece sep + str(v); with rows, the blocks are the rows 0 .. rows-1
    of a CSV, and row i also takes the piece str(i) in front and a newline
    after. The pieces are ASCII, NUL-padded to the widest in one S{w}
    lookup, so a block of rows is one gather of piece ids with the pad
    deleted, which is exact: no decimal piece holds a NUL. Counts and Walsh
    values span few integers, so the lookup holds every value of the span
    [lo, hi] of the blocks so far, and is rebuilt only when a block widens
    it; when that span is as wide as the cells of one block (BCT(0, 0) =
    4^n of a constant map, or the sparse counts of a 3-valued map), it
    holds each block's distinct values instead, so it is never larger than
    one block. A block holds at least one row, and its ids and gathered
    pieces take about _CHUNK bytes at most: the ids are built per block,
    never for the whole array, and are dropped before the text is yielded.
    """
    heads = _pieces("", [*range(rows), "\n"] if rows else [])  # the CSV row labels
    labels = 2 if rows else 0  # id columns for a row's label and newline
    span_lut = span_of = lo = hi = None  # span_lut holds the pieces of span_of = [lo, hi]
    for first, m in blocks:
        cols = m.shape[1]
        lo = int(m.min()) if lo is None else min(lo, int(m.min()))
        hi = int(m.max()) if hi is None else max(hi, int(m.max()))
        width = max(heads.itemsize, len(sep) + max(len(str(lo)), len(str(hi))))
        per = max(1, _CHUNK // ((width + np.dtype(np.intp).itemsize) * (cols + labels)))
        span = hi - lo < min(per, m.shape[0]) * cols
        if span and span_of != (lo, hi):
            span_lut, span_of = np.concatenate((heads, _pieces(sep, range(lo, hi + 1)))), (lo, hi)
        for r0 in range(0, m.shape[0], per):
            block = m[r0 : r0 + per]
            ids = np.empty((block.shape[0], cols + labels), dtype=np.intp)
            values = ids[:, 1:-1] if labels else ids
            if span:
                lut = span_lut
                np.subtract(block, lo - heads.size, out=values, dtype=np.intp)
            else:
                distinct, inverse = np.unique(block, return_inverse=True)
                lut = np.concatenate((heads, _pieces(sep, distinct.tolist())))
                np.add(inverse.reshape(block.shape), heads.size, out=values)
            if labels:
                ids[:, 0] = np.arange(first + r0, first + r0 + block.shape[0])
                ids[:, -1] = rows
            # np.take gathers the S{w} pieces in about 60% of the time of lut[ids]
            text = np.take(lut, ids).tobytes().translate(None, b"\0").decode("ascii")
            del ids, values, lut  # no block's ids are held while its text is written
            yield text
            del text  # hold no written block while the next is built


def _json_list_chunks(blocks):
    """The row-major list of a row source's values as json.dumps(indent=2) writes a dict field.

    "[", the pieces ",\\n    " + str(v) of _text_blocks with the first one's
    comma dropped, then "\\n  ]", one chunk per block of rows; "[]" when
    the source has no block.
    """
    chunks = _text_blocks(blocks, ",\n    ")
    first = next(chunks, None)
    if first is None:
        yield "[]"
        return
    yield "["
    yield first[1:]
    yield from chunks
    yield "\n  ]"


def _csv_chunks(corner: str, shape: tuple[int, int], blocks):
    """CSV with header "<corner>,0,1,..." and one row "i,m[i,0],m[i,1],..." per row i.

    m is the array of this shape whose rows the row source blocks yields
    (see _text_blocks). The header comes first, then one chunk per block of
    rows, so the text is never held whole. The one refusal rule holds: a
    table refuses by memory, a row source never does, and the oracles
    refuse by cost. A table's refusal (the builders' preflights and the
    oracles' caps) comes before its source exists, so before any text.
    """
    rows, cols = shape
    yield corner + "," + ",".join(map(str, range(cols))) + "\n"
    yield from _text_blocks(blocks, ",", rows)


def ktable_to_csv(t: KTable) -> str:
    r"""CSV with header "a\b,0,1,..." and one row of plain decimal counts per a."""
    return "".join(_csv_chunks("a\\b", t.counts.shape, _blocks_of(t.counts)))


def _ktable_fields(t: KTable) -> dict:
    """The JSON fields of a table, with the counts as the table's row source."""
    return {
        "kind": t.kind,
        "n": t.spec.n,
        "algorithm": t.algorithm,
        "max_nonzero": t.max_nonzero(),
        "counts": _blocks_of(t.counts),
    }


def ktable_to_json(t: KTable) -> dict:
    """JSON payload: kind, n, algorithm, headline max, row-major counts."""
    return {**_ktable_fields(t), "counts": t.counts.ravel().tolist()}
