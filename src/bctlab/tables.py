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
    bct_fast    sum(|X(c,b)|^2) <= Delta * 2^2n, any function

bct_fast buckets inputs x by b = f(x)+f(x+c) for every c; each ordered
bucket pair (x, x') contributes one solution at a = x+x'. From n = 11 on,
and only when called on the main thread, it splits the c loop over one
thread per CPU into disjoint accumulators merged by addition, so the
output does not depend on the split. Every other builder is a plain loop.
Counts are stored as int32, and KTable refuses any count above its
maximum: every count is at most 4^n, which fits up to n = 15, but BCT(0, 0)
of a constant map is exactly 4^n and does not fit at n = 16.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gf2n import FieldSpec
from .sbox import SBox, inverse_table

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

_PAIR_CHUNK = 8_000_000  # flush threshold for bct_fast key buffers
_SPLIT_MIN_N = 11  # smallest n where splitting bct_fast over threads pays
_INT32_MAX = np.iinfo(np.int32).max


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
    """Difference distribution table: counts(a, b) = #{x : f(x+a)+f(x) = b}."""
    N = f.spec.size
    table = f.table
    idx = np.arange(N)
    counts = np.zeros((N, N), dtype=np.int64)
    for a in range(N):
        counts[a] = np.bincount(table ^ table[idx ^ a], minlength=N)
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


def _fast_keys(table: np.ndarray, idx: np.ndarray, c: int, N: int) -> np.ndarray:
    """Flattened (a, b) keys of all bucket pairs for one input difference c."""
    D = table ^ table[idx ^ c]
    order = np.argsort(D, kind="stable")
    Ds = D[order]
    change = np.flatnonzero(Ds[1:] != Ds[:-1]) + 1
    starts = np.concatenate(([0], change))
    sizes = np.diff(np.concatenate((starts, [N])))
    bvals = Ds[starts]
    # left element: each x in a size-m bucket appears m times consecutively
    reps = np.repeat(sizes, sizes)
    left = np.repeat(order, reps)
    # right element: the whole bucket tiled m times, via block-local indices
    sq = sizes * sizes
    block = np.repeat(np.arange(sizes.size), sq)
    offsets = np.concatenate(([0], np.cumsum(sq)[:-1]))
    local = np.arange(int(sq.sum())) - offsets[block]
    right = order[starts[block] + local % sizes[block]]
    return (left ^ right) * N + np.repeat(bvals, sq)


def bct_fast(f: SBox) -> KTable:
    """Bucketed pair enumeration; cost sum(|X(c,b)|^2) <= Delta * 2^2n.

    From n = 11 on, a call on the main thread splits the c loop over one
    thread per CPU; below that, or on any other thread (a claim pool, say),
    it runs serially, so pools never nest.
    """
    N = f.spec.size
    table = f.table
    idx = np.arange(N)

    def worker(crange):
        part = np.zeros(N * N, dtype=np.int64)
        buf, buffered = [], 0
        for c in crange:
            keys = _fast_keys(table, idx, c, N)
            buf.append(keys)
            buffered += keys.size
            if buffered >= _PAIR_CHUNK:
                part += np.bincount(np.concatenate(buf), minlength=N * N)
                buf, buffered = [], 0
        if buf:
            part += np.bincount(np.concatenate(buf), minlength=N * N)
        return part

    if f.spec.n < _SPLIT_MIN_N or threading.current_thread() is not threading.main_thread():
        counts = worker(range(N))
    else:
        workers = os.cpu_count() or 1
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(worker, (range(w, N, workers) for w in range(workers)))
            counts = next(parts)
            for part in parts:
                counts += part
    return KTable(f.spec, "BCT", counts.reshape(N, N), "fast")


def bct_row(f: SBox, a: int) -> np.ndarray:
    """One BCT row T(a, .) in O(2^2n): sum over c of coincidence counts."""
    N = f.spec.size
    table = f.table
    idx = np.arange(N)
    shifted = idx ^ a
    row = np.zeros(N, dtype=np.int64)
    for c in range(N):
        D = table ^ table[idx ^ c]
        mask = D == D[shifted]
        row += np.bincount(D[mask], minlength=N)
    return row


_BCT_BUILDERS = {"naive": bct_naive, "system": bct_system, "fast": bct_fast}


def bct(f: SBox, algorithm: str = "fast") -> KTable:
    """Build the BCT with a selectable algorithm (naive | system | fast)."""
    try:
        builder = _BCT_BUILDERS[algorithm]
    except KeyError:
        raise ValueError(f"unknown BCT algorithm {algorithm!r}") from None
    return builder(f)


def _argmax_pair(sub: np.ndarray, off_a: int, off_b: int) -> tuple[int, int]:
    flat = int(np.argmax(sub))
    return (flat // sub.shape[1] + off_a, flat % sub.shape[1] + off_b)


def boomerang_uniformity(f: SBox, algorithm: str = "fast") -> UniformityReport:
    """Full-table boomerang and differential uniformities with witnesses."""
    bt = bct(f, algorithm=algorithm)
    dt = ddt(f)
    bsub = bt.counts[1:, 1:]
    dsub = dt.counts[1:, :]
    return UniformityReport(
        differential_uniformity=int(dsub.max()),
        boomerang_uniformity=int(bsub.max()),
        ddt_argmax=_argmax_pair(dsub, 1, 0),
        bct_argmax=_argmax_pair(bsub, 1, 1),
        algorithm=algorithm,
    )


def monomial_boomerang_uniformity(spec: FieldSpec, d: int) -> UniformityReport:
    """Row shortcut for power maps: every row is a scaled copy of row a=1.

    For f = x^d, T(a, b) = T(1, b * a^-d), so the maximum over the whole
    table equals the maximum of the single row a=1 (and likewise for the
    DDT). Costs O(2^2n) instead of a full table build.
    """
    from .sbox import from_monomial

    f = from_monomial(spec, d)
    brow = bct_row(f, 1)
    drow = np.bincount(f.table ^ f.table[np.arange(spec.size) ^ 1], minlength=spec.size)
    delta_arg = int(np.argmax(drow))
    boom_arg = 1 + int(np.argmax(brow[1:]))
    return UniformityReport(
        differential_uniformity=int(drow.max()),
        boomerang_uniformity=int(brow[1:].max()),
        ddt_argmax=(1, delta_arg),
        bct_argmax=(1, boom_arg),
        algorithm="row",
    )


def quadratic_bound_check(f: SBox) -> bool:
    """For a quadratic permutation: Delta <= delta_f <= Delta*(Delta-1)."""
    rep = boomerang_uniformity(f)
    lo = rep.differential_uniformity
    return lo <= rep.boomerang_uniformity <= lo * (lo - 1)


# -- exports ---------------------------------------------------------------------


def _matrix_csv(corner: str, m: np.ndarray) -> str:
    """CSV with header "<corner>,0,1,..." and one row "i,m[i,0],m[i,1],..." per i."""
    lines = [corner + "," + ",".join(map(str, range(m.shape[1])))]
    for i, row in enumerate(m):  # a whole-table .tolist() would raise peak memory
        lines.append(f"{i}," + ",".join(map(str, row.tolist())))
    return "\n".join(lines) + "\n"


def ktable_to_csv(t: KTable) -> str:
    r"""CSV with header "a\b,0,1,..." and one row of plain decimal counts per a."""
    return _matrix_csv("a\\b", t.counts)


def ktable_to_json(t: KTable) -> dict:
    """JSON payload: kind, n, algorithm, headline max, row-major counts."""
    return {
        "kind": t.kind,
        "n": t.spec.n,
        "algorithm": t.algorithm,
        "max_nonzero": t.max_nonzero(),
        "counts": t.counts.ravel().tolist(),
    }
