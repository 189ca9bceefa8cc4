"""Arithmetic and equation solving in GF(2^n) for 2 <= n <= 16.

Field elements are plain Python ints: bit i of the value is the coefficient
of x^i in the polynomial basis fixed by a FieldSpec. The integer encoding
doubles as a table index, which is what keeps the counting engines in the
rest of the library at O(1) per access.

Every FieldSpec pins an explicit degree-n reduction polynomial (also a
bitmask, bit n set). The defaults in DEFAULT_REDUCTION are the irreducible
of minimal Hamming weight with the smallest integer encoding for each n,
published here so that per-entry results are reproducible across versions.
Uniformity statistics themselves are representation independent, so any
other irreducible of the right degree may be supplied instead.

The bit-vector helpers the engines share, a 16-bit parity table, the
Walsh-Hadamard transform and the XOR autocorrelation it gives, live here
too, below every module that uses them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_REDUCTION",
    "FieldSpec",
    "make_field",
    "parse_field",
    "is_irreducible",
    "find_omega",
    "solve_artin_schreier",
    "solve_quadratic",
    "cubic_roots",
    "quartic_roots",
    "quartic_has_four_roots",
]

# Minimal-weight, smallest-encoding irreducible polynomial per degree.
# Verified against the brute-force derivation in the test suite.
DEFAULT_REDUCTION = {
    2: 0x7,       # x^2 + x + 1
    3: 0xB,       # x^3 + x + 1
    4: 0x13,      # x^4 + x + 1
    5: 0x25,      # x^5 + x^2 + 1
    6: 0x43,      # x^6 + x + 1
    7: 0x83,      # x^7 + x + 1
    8: 0x11B,     # x^8 + x^4 + x^3 + x + 1
    9: 0x203,     # x^9 + x + 1
    10: 0x409,    # x^10 + x^3 + 1
    11: 0x805,    # x^11 + x^2 + 1
    12: 0x1009,   # x^12 + x^3 + 1
    13: 0x201B,   # x^13 + x^4 + x^3 + x + 1
    14: 0x4021,   # x^14 + x^5 + 1
    15: 0x8003,   # x^15 + x + 1
    16: 0x1002B,  # x^16 + x^5 + x^3 + x + 1
}

# parity-of-popcount lookup for 16-bit values, used by the vector paths
_P = np.arange(1 << 16, dtype=np.uint32)
_P ^= _P >> 8
_P ^= _P >> 4
_P ^= _P >> 2
_P ^= _P >> 1
_PARITY16 = (_P & 1).astype(np.int64)
del _P


def _fwht(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along one power-of-two axis.

    Makes one C-ordered copy of a, in a's dtype, and runs the butterflies
    (x, y) -> (x + y, x - y) in place on views of it. Integer arithmetic
    wraps, so the result is exact whenever the transform fits the dtype.
    """
    out = np.array(a, order="C", copy=True)
    axis = axis % out.ndim
    size = out.shape[axis]
    lead = (slice(None),) * (axis + 1)
    h = 1
    while h < size:
        pairs = out.reshape(out.shape[:axis] + (size // (2 * h), 2, h) + out.shape[axis + 1 :])
        top, bot = pairs[lead + (0,)], pairs[lead + (1,)]
        top += bot
        bot *= -2
        bot += top
        h *= 2
    return out


def _autocorrelation(h: np.ndarray) -> np.ndarray:
    """sum_u h(u) h(u + b) over b in [0, N) along the last axis of integer arrays h.

    The transform of the squared transform over N, exact in int64 while
    that fits: below N^3 for histograms of at most N values.
    """
    return _fwht(_fwht(h) ** 2) // h.shape[-1]


def _poly_mod(a: int, m: int) -> int:
    """Remainder of a modulo m, both GF(2)[x] bitmasks."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def is_irreducible(poly: int) -> bool:
    """Exhaustive trial division of a GF(2)[x] bitmask by all lower degrees."""
    n = poly.bit_length() - 1
    if n < 1:
        return False
    if n == 1:
        return True
    if not poly & 1:  # divisible by x
        return False
    for d in range(1, n // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _poly_mod(poly, q) == 0:
                return False
    return True


def _trial_factorize(m: int) -> tuple[int, ...]:
    """Prime factors of m (m <= 2^16, trial division)."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return tuple(out)


class FieldSpec:
    """The field GF(2^n) in the polynomial basis of one reduction polynomial.

    All operations are pure; derived data (discrete logs, trace mask,
    factors of 2^n - 1, the generator, Artin-Schreier preimages) is
    computed once on first use, so instances are safe for unrestricted
    concurrent reads after warm-up and cheap to share.
    """

    def __init__(self, n: int, reduction: int | None = None):
        if not 2 <= n <= 16:
            raise ValueError(f"field dimension must be in 2..16, got {n}")
        if reduction is None:
            reduction = DEFAULT_REDUCTION[n]
        if reduction.bit_length() - 1 != n:
            raise ValueError(
                f"reduction polynomial 0x{reduction:x} does not have degree {n}"
            )
        if not is_irreducible(reduction):
            raise ValueError(f"reduction polynomial 0x{reduction:x} is reducible")
        self.n = n
        self.reduction = reduction
        self.size = 1 << n
        self._log = self._exp = None  # filled by _tables

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.n == other.n
            and self.reduction == other.reduction
        )

    def __hash__(self):
        return hash((self.n, self.reduction))

    def __repr__(self):
        return f"FieldSpec(n={self.n}, reduction=0x{self.reduction:x})"

    def label(self) -> str:
        """Serialized form "n:reduction-hex", e.g. "3:b" for x^3+x+1."""
        return f"{self.n}:{self.reduction:x}"

    # -- scalar arithmetic --------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        """Product modulo the reduction polynomial (shift-and-xor)."""
        r = 0
        top = self.size
        red = self.reduction
        while y:
            if y & 1:
                r ^= x
            x <<= 1
            if x & top:
                x ^= red
            y >>= 1
        return r

    def pow(self, x: int, e: int) -> int:
        """Square-and-multiply exponentiation; 0^0 is defined as 1."""
        if e < 0:
            raise ValueError("exponent must be non-negative")
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    def inv(self, x: int) -> int:
        """Multiplicative inverse via x^(2^n - 2); branch-free on x != 0."""
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(x, self.size - 2)

    def sqrt(self, x: int) -> int:
        """The unique square root x^(2^(n-1)) (squaring is a bijection)."""
        return self.pow(x, self.size >> 1)

    @cached_property
    def _trace_mask(self) -> int:
        """Bit i is the trace of the basis element x^i."""
        mask = 0
        for i in range(self.n):
            t, y = 0, 1 << i
            for _ in range(self.n):
                t ^= y
                y = self.mul(y, y)
            mask |= (t & 1) << i  # t is 0 or 1 for every basis element
        return mask

    def trace(self, x: int) -> int:
        """Absolute trace x + x^2 + ... + x^(2^(n-1)), a bit."""
        return bin(x & self._trace_mask).count("1") & 1

    @cached_property
    def _factors(self) -> tuple[int, ...]:
        """Prime factors of the group order 2^n - 1."""
        return _trial_factorize(self.size - 1)

    def element_order(self, x: int) -> int:
        """Least k >= 1 with x^k = 1; divides 2^n - 1."""
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        k = self.size - 1
        for p in self._factors:
            while k % p == 0 and self.pow(x, k // p) == 1:
                k //= p
        return k

    @cached_property
    def primitive_element(self) -> int:
        """Smallest-by-encoding generator of the multiplicative group."""
        order = self.size - 1
        return next(
            g
            for g in range(2, self.size)
            if all(self.pow(g, order // p) != 1 for p in self._factors)
        )

    # -- vector arithmetic ---------------------------------------------------
    #
    # Bulk operations run on numpy int64 arrays through discrete log/antilog
    # tables built from the smallest primitive element. They agree with the
    # scalar operations exactly (asserted exhaustively in the test suite) and
    # exist purely for throughput when whole tables are evaluated at once.

    def _tables(self):
        # exp[k : 2k] = exp[:k] * g^k, doubling k from 1
        if self._log is None:
            order = self.size - 1
            exp = np.ones(order, dtype=np.int64)
            k, step = 1, self.primitive_element
            while k < order:
                m = min(k, order - k)
                exp[k : k + m] = self._mul_by(exp[:m], step)
                k, step = k + m, self.mul(step, step)
            log = np.zeros(self.size, dtype=np.int64)  # log[0] is a dead slot
            log[exp] = np.arange(order)
            self._exp, self._log = exp, log
        return self._log, self._exp

    def _mul_by(self, x: np.ndarray, y: int) -> np.ndarray:
        """Elementwise x * y for one scalar y, by shift-and-xor over y's bits."""
        r = np.zeros_like(x)
        x = x.copy()
        while y:
            if y & 1:
                r ^= x
            x <<= 1
            x ^= (x >> self.n) * self.reduction  # reduce where bit n is set
            y >>= 1
        return r

    def mul_vec(self, a, b):
        """Elementwise field product of two int arrays, either of them a scalar."""
        log, exp = self._tables()
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        r = exp[(log[a] + log[b]) % (self.size - 1)]
        return np.where((a == 0) | (b == 0), 0, r)

    def pow_vec(self, x, e: int):
        """Elementwise x^e for one non-negative integer exponent."""
        if e < 0:
            raise ValueError("exponent must be non-negative")
        x = np.asarray(x, dtype=np.int64)
        if e == 0:
            return np.ones_like(x)
        log, exp = self._tables()
        r = exp[(log[x] * (e % (self.size - 1))) % (self.size - 1)]
        return np.where(x == 0, 0, r)

    def inv_vec(self, x):
        """Elementwise inverse; every entry must be nonzero."""
        x = np.asarray(x, dtype=np.int64)
        if (x == 0).any():
            raise ZeroDivisionError("0 has no multiplicative inverse")
        log, exp = self._tables()
        return exp[(self.size - 1 - log[x]) % (self.size - 1)]

    def trace_vec(self, x):
        """Elementwise absolute trace."""
        x = np.asarray(x, dtype=np.int64)
        return _PARITY16[x & self._trace_mask]

    # -- Artin-Schreier preimages ---------------------------------------------

    @cached_property
    def _as_pre(self) -> np.ndarray:
        """Smallest x with x^2 + x = c, at index c; size where c has none."""
        xs = np.arange(self.size, dtype=np.int64)
        pre = np.full(self.size, self.size, dtype=np.int64)
        np.minimum.at(pre, self.mul_vec(xs, xs) ^ xs, xs)
        return pre


def make_field(n: int) -> FieldSpec:
    """GF(2^n) with this library's fixed default reduction polynomial."""
    return FieldSpec(n)


def parse_field(label: str) -> FieldSpec:
    """Parse the "n:reduction-hex" serialization, e.g. "3:b"."""
    try:
        n_str, red_str = label.split(":", 1)
        return FieldSpec(int(n_str), int(red_str, 16))
    except ValueError as exc:
        raise ValueError(f"bad field label {label!r}: {exc}") from None


def find_omega(spec: FieldSpec) -> int:
    """Smallest-by-encoding element of multiplicative order 3.

    Exists iff GF(4) embeds, i.e. n is even; satisfies w^2 + w + 1 = 0.
    """
    if spec.n % 2:
        raise ValueError("GF(4) is not a subfield when n is odd")
    for w in range(2, spec.size):
        if spec.mul(w, w) ^ w == 1:
            return w
    raise AssertionError("unreachable: GF(4) subfield missing")  # pragma: no cover


def solve_artin_schreier(spec: FieldSpec, c: int) -> set[int]:
    """All x with x^2 + x = c: empty iff trace(c) = 1, else {x0, x0+1}."""
    if spec.trace(c):
        return set()
    x0 = int(spec._as_pre[c])
    return {x0, x0 ^ 1}


def solve_quadratic(spec: FieldSpec, a: int, b: int) -> set[int]:
    """All roots of x^2 + a*x + b.

    For a != 0 there are two roots iff trace(b/a^2) = 0 and none otherwise;
    for a = 0 the single root is the square root b^(2^(n-1)).
    """
    if a == 0:
        return {spec.sqrt(b)}
    c = spec.mul(b, spec.inv(spec.mul(a, a)))
    return {spec.mul(a, y) for y in solve_artin_schreier(spec, c)}


def cubic_roots(spec: FieldSpec, a2: int, a1: int) -> set[int]:
    """All distinct roots of x^3 + a2*x + a1 in the field (full scan)."""
    xs = np.arange(spec.size, dtype=np.int64)
    vals = spec.pow_vec(xs, 3) ^ spec.mul_vec(a2, xs) ^ a1
    return {int(r) for r in xs[vals == 0]}


def quartic_has_four_roots(spec: FieldSpec, a2: int, a1: int, a0: int) -> bool:
    """Splitting criterion for x^4 + a2*x^2 + a1*x + a0 with a0*a1 != 0.

    The quartic has four roots in the field iff the resolvent cubic
    x^3 + a2*x + a1 has three roots r1, r2, r3 there and
    trace(a0 * ri^2 / a1^2) = 0 for each of them.
    """
    if spec.mul(a0, a1) == 0:
        raise ValueError("criterion requires a0 and a1 nonzero")
    rs = cubic_roots(spec, a2, a1)
    if len(rs) != 3:
        return False
    inv_a1sq = spec.inv(spec.mul(a1, a1))
    return all(
        spec.trace(spec.mul(spec.mul(a0, spec.mul(r, r)), inv_a1sq)) == 0 for r in rs
    )


def quartic_roots(spec: FieldSpec, a2: int, a1: int, a0: int) -> set[int]:
    """All roots of x^4 + a2*x^2 + a1*x + a0 in the field, a0*a1 != 0.

    Roots are extracted by a full 2^n scan (cheap for n <= 16); the
    four-root splitting criterion is evaluated alongside and cross-checked
    against the scan, so a disagreement would surface as a hard error.
    """
    if spec.mul(a0, a1) == 0:
        raise ValueError("quartic solver requires a0 and a1 nonzero")
    xs = np.arange(spec.size, dtype=np.int64)
    sq = spec.mul_vec(xs, xs)
    vals = (
        spec.mul_vec(sq, sq)
        ^ spec.mul_vec(a2, sq)
        ^ spec.mul_vec(a1, xs)
        ^ a0
    )
    roots = {int(r) for r in xs[vals == 0]}
    if (len(roots) == 4) != quartic_has_four_roots(spec, a2, a1, a0):
        raise AssertionError(
            f"splitting criterion disagrees with root scan for "
            f"({a2:#x}, {a1:#x}, {a0:#x}) over {spec.label()}"
        )
    return roots
