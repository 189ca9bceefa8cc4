"""S-boxes: functions GF(2^n) -> GF(2^n) as full lookup tables.

An SBox is representation-complete (2^n entries, numpy int64, read-only);
permutation status is a queried property, never a construction precondition.
The text file format used by the CLI is

    n=<int>
    v0 v1 v2 ... v_{2^n-1}

with values in input order, whitespace/newline separated, decimal or 0x-hex.
"""

from __future__ import annotations

import operator
import os
from typing import Iterable, Sequence

import numpy as np

from .gf2n import FieldSpec, make_field

__all__ = [
    "SBox",
    "AffineMap",
    "identity_sbox",
    "from_monomial",
    "from_polynomial",
    "is_permutation",
    "inverse_table",
    "compose",
    "derivative",
    "affine_apply",
    "read_sbox",
    "write_sbox",
    "random_permutation",
    "random_affine_permutation",
]


class SBox:
    """A function over GF(2^n) given by its value table."""

    def __init__(self, spec: FieldSpec, table):
        arr = np.asarray(table, dtype=np.int64).copy()
        if arr.shape != (spec.size,):
            raise ValueError(
                f"table must have exactly {spec.size} entries, got {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= spec.size):
            raise ValueError("table entries must lie in [0, 2^n)")
        arr.flags.writeable = False
        self.spec = spec
        self.table = arr
        self._is_perm = None

    @property
    def n(self) -> int:
        return self.spec.n

    def __len__(self):
        return self.spec.size

    def __getitem__(self, x: int) -> int:
        return int(self.table[x])

    def __eq__(self, other):
        return (
            isinstance(other, SBox)
            and self.spec == other.spec
            and np.array_equal(self.table, other.table)
        )

    def __repr__(self):
        head = ", ".join(str(int(v)) for v in self.table[:4])
        return f"SBox({self.spec.label()}, [{head}, ...])"

    def is_permutation(self) -> bool:
        """True iff the table entries are pairwise distinct."""
        if self._is_perm is None:
            counts = np.bincount(self.table, minlength=self.spec.size)
            self._is_perm = bool((counts == 1).all())
        return self._is_perm


def identity_sbox(spec: FieldSpec) -> SBox:
    return SBox(spec, np.arange(spec.size))


def from_monomial(spec: FieldSpec, d: int) -> SBox:
    """The power map x -> x^d; a permutation iff gcd(d, 2^n - 1) = 1."""
    if d < 0:
        raise ValueError("exponent must be non-negative")
    return SBox(spec, spec.pow_vec(np.arange(spec.size), d))


def from_polynomial(spec: FieldSpec, terms: Iterable[tuple[int, int]]) -> SBox:
    """Pointwise evaluation of sum(c * x^e for (e, c) in terms)."""
    xs = np.arange(spec.size, dtype=np.int64)
    acc = np.zeros(spec.size, dtype=np.int64)
    for e, c in terms:
        acc ^= spec.mul_vec(c, spec.pow_vec(xs, e))
    return SBox(spec, acc)


def is_permutation(f: SBox) -> bool:
    return f.is_permutation()


def inverse_table(f: SBox) -> SBox:
    """The compositional inverse g with g[f[x]] = x; f must be a permutation."""
    if not f.is_permutation():
        raise ValueError("cannot invert a non-permutation S-box")
    g = np.empty(f.spec.size, dtype=np.int64)
    g[f.table] = np.arange(f.spec.size)
    return SBox(f.spec, g)


def compose(f: SBox, g: SBox) -> SBox:
    """(f o g)[x] = f[g[x]]; both over the same field."""
    if f.spec != g.spec:
        raise ValueError("cannot compose S-boxes over different fields")
    return SBox(f.spec, f.table[g.table])


def _shift(f: SBox, a) -> int:
    """a as a Python int, numpy integers included; ValueError outside [0, 2^n)."""
    a = operator.index(a)
    if not 0 <= a < f.spec.size:
        raise ValueError(f"shift must lie in [0, 2^n), got {a}")
    return a


def derivative(f: SBox, a: int) -> SBox:
    """The map x -> f(x+a) + f(x); a must lie in [0, 2^n) (see _shift)."""
    idx = np.arange(f.spec.size)
    return SBox(f.spec, f.table[idx ^ _shift(f, a)] ^ f.table)


class AffineMap:
    """x -> sum(a_i * x^(2^i)) + c, evaluated to a table on construction.

    The linearized part is GF(2)-linear, so the table is assembled from the
    images of the basis elements in O(n^2) field multiplications plus one
    doubling pass.
    """

    def __init__(self, spec: FieldSpec, linear: Sequence[int], constant: int = 0):
        if len(linear) != spec.n:
            raise ValueError(f"need exactly {spec.n} linear coefficients")
        self.spec = spec
        self.linear = tuple(int(a) for a in linear)
        self.constant = int(constant)
        images = []
        for j in range(spec.n):
            acc = 0
            for i, a in enumerate(self.linear):
                acc ^= spec.mul(a, spec.pow(1 << j, 1 << i))
            images.append(acc)
        table = np.zeros(spec.size, dtype=np.int64)
        for j in range(spec.n):
            half = 1 << j
            table[half : 2 * half] = table[:half] ^ images[j]
        table ^= self.constant
        table.flags.writeable = False
        self.table = table

    def __repr__(self):
        return f"AffineMap({self.spec.label()}, linear={self.linear}, constant={self.constant})"

    def as_sbox(self) -> SBox:
        return SBox(self.spec, self.table)

    def is_permutation(self) -> bool:
        return self.as_sbox().is_permutation()


def affine_apply(m: AffineMap, f: SBox, side: str) -> SBox:
    """Compose with an affine map: side="post" gives A o f, side="pre" gives f o A."""
    if m.spec != f.spec:
        raise ValueError("affine map and S-box live over different fields")
    if side == "post":
        return SBox(f.spec, m.table[f.table])
    if side == "pre":
        return SBox(f.spec, f.table[m.table])
    raise ValueError(f"side must be 'pre' or 'post', got {side!r}")


# -- file format ---------------------------------------------------------------


def write_sbox(f: SBox, dest) -> None:
    """Write the CLI text format to a path or text file object."""
    if isinstance(dest, (str, bytes, os.PathLike)):
        with open(dest, "w", encoding="ascii") as fh:
            write_sbox(f, fh)
        return
    dest.write(f"n={f.spec.n}\n")
    vals = list(map(str, f.table.tolist()))
    for i in range(0, len(vals), 16):
        dest.write(" ".join(vals[i : i + 16]) + "\n")


def read_sbox(src, field: FieldSpec | None = None) -> SBox:
    """Read the CLI text format from a path or text file object."""
    if isinstance(src, (str, bytes, os.PathLike)):
        with open(src, "r", encoding="ascii") as fh:
            return read_sbox(fh, field)
    header = src.readline().strip()
    if not header.startswith("n="):
        raise ValueError(f"first line must be 'n=<int>', got {header!r}")
    try:
        n = int(header[2:])
    except ValueError:
        raise ValueError(f"bad dimension in header {header!r}") from None
    if field is None:
        field = make_field(n)
    elif field.n != n:
        raise ValueError(f"file declares n={n} but field has n={field.n}")
    tokens = src.read().split()
    if len(tokens) != field.size:
        raise ValueError(f"expected {field.size} values, got {len(tokens)}")
    try:
        values = [int(t, 16) if t.lower().startswith("0x") else int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"bad table value: {exc}") from None
    return SBox(field, values)


# -- randomized constructions (testing and demos) -------------------------------


def random_permutation(spec: FieldSpec, rng: np.random.Generator) -> SBox:
    return SBox(spec, rng.permutation(spec.size))


def random_affine_permutation(spec: FieldSpec, rng: np.random.Generator) -> AffineMap:
    """Rejection-sample an invertible affine map."""
    while True:
        m = AffineMap(
            spec,
            [int(rng.integers(0, spec.size)) for _ in range(spec.n)],
            int(rng.integers(0, spec.size)),
        )
        if m.is_permutation():
            return m
