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

The table side reads every statistic from one count of the values over
nonzero (a, b): the j-th moment is sum of cells * value^j, and the
delta-certificate is sum of cells * phi(value), which by linearity is
sum_j A_j * (j-th moment) for phi(x) = sum A_j x^j.

Everything here is exact integer or Fraction arithmetic; no floats. The
spectrum is held as int32: |W(u, v)| <= 2^n, and the transform's partial
sums are bounded the same way. Sums of products of spectrum values are
taken in int64 or Python ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gf2n import _PARITY16, _fwht
from .sbox import SBox
from .tables import _autocorrelation, bct_fast

__all__ = [
    "WalshSpectrum",
    "walsh_spectrum",
    "bct_moment_direct",
    "bct_moment_walsh",
    "two_uniform_certificate",
    "CertificatePolynomial",
    "delta_uniform_certificate",
]

_MAX_SPECTRUM_N = 12  # full spectrum is 4^n int32 cells (|W| <= 2^n)
_MAX_QUAD_SUM_N = 5  # S_2 costs O(n * 2^3n) and its int64 sums are exact to here


class WalshSpectrum:
    """Full table of Walsh coefficients, values[u, v]: C-ordered, read-only
    int32, which is exact because |W(u, v)| <= 2^n."""

    def __init__(self, spec, values):
        arr = np.ascontiguousarray(values, dtype=np.int32)
        if arr.shape != (spec.size, spec.size):
            raise ValueError("spectrum must be a 2^n x 2^n matrix")
        arr.flags.writeable = False
        self.spec = spec
        self.values = arr

    def __repr__(self):
        return f"WalshSpectrum({self.spec.label()})"


def walsh_spectrum(f: SBox) -> WalshSpectrum:
    """All 4^n Walsh coefficients via one batched transform, O(n * 4^n)."""
    n = f.spec.n
    if n > _MAX_SPECTRUM_N:
        raise ValueError(
            f"full spectrum needs 4^{n} cells; capped at n <= {_MAX_SPECTRUM_N}"
        )
    N = f.spec.size
    # signs[x, v] = (-1)^(v . f(x)); transform over x gives W[u, v]. int32
    # throughout: the index table and the signs are 4^n cells each
    sign = 1 - 2 * _PARITY16.astype(np.int32)
    idx = np.arange(N, dtype=np.int32)
    signs = sign[np.bitwise_and.outer(f.table.astype(np.int32), idx)]
    return WalshSpectrum(f.spec, _fwht(signs, axis=0))


# -- moments ----------------------------------------------------------------------


def _bct_value_counts(f: SBox) -> list[tuple[int, int]]:
    """(value, cells) for each distinct count T(a, b) over nonzero a, b."""
    vals, cells = np.unique(bct_fast(f).counts[1:, 1:], return_counts=True)
    return list(zip(vals.tolist(), cells.tolist()))


def bct_moment_direct(f: SBox, j: int) -> int:
    """sum of T(a, b)^j over nonzero a, b, from the table itself."""
    if j < 0:
        raise ValueError("moment order must be non-negative")
    return sum(c * v**j for v, c in _bct_value_counts(f))


def _fourth_power_sum(W: np.ndarray) -> int:
    """sum of W^4, exactly: count each |W| = v, then add count * v^4 as ints."""
    counts = np.bincount(np.abs(W).ravel())
    return sum(c * v**4 for v, c in enumerate(counts.tolist()) if c)


def _constrained_quad_sum(W: np.ndarray, n: int) -> int:
    """The 8-fold constrained spectrum sum S_2, exactly.

    Factorization: with V_t(g, a) = W(g, a) * W(g^t, a), the sum equals
    sum over (t, s) of Q(t, s)^2 where Q(t, .) is the XOR-autocorrelation
    over a of V_t summed over g, two transforms per g (see
    tables._autocorrelation). Intermediates are bounded by 2^(8n), so W
    is cast to int64 first and they stay exact for n <= 5.
    """
    W = np.asarray(W, dtype=np.int64)
    gidx = np.arange(1 << n)
    total = 0
    for t in range(1 << n):
        Q = _autocorrelation(W * W[gidx ^ t, :]).sum(axis=0)
        total += sum(q * q for q in Q.tolist())
    return total


def bct_moment_walsh(f: SBox, j: int) -> int:
    """Spectrum-side evaluation of the j-th BCT moment; j in {1, 2}.

    Exact for permutations; the boundary correction presumes one, so any
    other f is refused. The j=2 sum costs O(n * 2^3n) after factorization
    and is capped at n <= _MAX_QUAD_SUM_N.
    """
    n = f.spec.n
    if j not in (1, 2):
        raise ValueError("spectrum-side moments are implemented for j in {1, 2}")
    if j == 2 and n > _MAX_QUAD_SUM_N:
        raise ValueError(f"j=2 moment is capped at n <= {_MAX_QUAD_SUM_N}")
    if not f.is_permutation():
        raise ValueError("the spectrum-side moment holds only for permutations")
    W = walsh_spectrum(f).values
    if j == 1:
        s1 = _fourth_power_sum(W)
        num = s1  # 2^(2n-4n) * S_1
        den = 1 << (2 * n)
    else:
        num = _constrained_quad_sum(W, n)
        den = 1 << (6 * n)
    if num % den:
        raise AssertionError("constrained spectrum sum not divisible by 2^(4nj-2n)")
    return num // den - (1 << (n * j)) * ((1 << (n + 1)) - 1)


def two_uniform_certificate(f: SBox) -> tuple[int, int, int]:
    """Spectrum-only test for boomerang uniformity 2.

    Returns (lhs, rhs, gap) with

        lhs = S_2,   rhs = 2^(4n+1) * sum W^4 + 2^(9n+1) - 5*2^(8n) + 2^(7n+1)

    gap = lhs - rhs is non-negative and zero exactly when every nonzero BCT
    entry is 0 or 2 (f is APN). The boundary correction presumes a
    permutation, so any other f is refused.
    """
    n = f.spec.n
    if n > _MAX_QUAD_SUM_N:
        raise ValueError(f"certificate evaluation is capped at n <= {_MAX_QUAD_SUM_N}")
    if not f.is_permutation():
        raise ValueError("the two-uniform certificate holds only for permutations")
    W = walsh_spectrum(f).values
    lhs = _constrained_quad_sum(W, n)
    rhs = (
        (1 << (4 * n + 1)) * _fourth_power_sum(W)
        + (1 << (9 * n + 1))
        - 5 * (1 << (8 * n))
        + (1 << (7 * n + 1))
    )
    return lhs, rhs, lhs - rhs


# -- certificate polynomials --------------------------------------------------------


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
        if delta <= 0 or delta % 2:
            raise ValueError("target delta must be a positive even integer")
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
    the boomerang uniformity is at most delta. Every count is at most 2^n,
    so delta above 2^n is refused before any polynomial is built.
    """
    if delta > f.spec.size:
        raise ValueError(f"delta must be at most 2^n = {f.spec.size}, got {delta}")
    if phi is None:
        phi = CertificatePolynomial.for_delta(delta, f.spec.n)
    else:
        if phi.delta != delta:
            raise ValueError("polynomial was built for a different delta")
        phi.validate(f.spec.n)
    counts = _bct_value_counts(f)
    scaled = phi._scaled_values([v for v, _ in counts])
    value = Fraction(sum(c * s for (_, c), s in zip(counts, scaled)), phi._scale)
    if value < 0:
        raise AssertionError("certificate value must be non-negative")
    return value, value == 0
