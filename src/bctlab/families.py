"""Parametrized constructors for the analyzed permutation families.

Monomial families are classified by their published side conditions:

    gold             x^(2^i+1)                 APN: gcd(n,i)=1, n odd
    kasami           x^(2^2i - 2^i + 1)        APN: gcd(n,i)=1, n odd
    welch            x^(2^k+3)                 n = 2k+1
    niho             x^(2^k + 2^(k/2) - 1)     n = 2k+1, k even
                     x^(2^k + 2^((3k+1)/2)-1)  n = 2k+1, k odd
    inverse          x^(2^n-2)
    dobbertin        x^(2^4k+2^3k+2^2k+2^k-1)  n = 5k
    bracken_leander  x^(2^2k+2^k+1)            n = 4k, k odd

plus three non-monomial constructions: the Bracken-Tan-Tan binomial over
GF(2^3k), the modified inverse map (0 and 1 swapped, 1/x elsewhere), and
the binomial x^(q+2) + gamma*x over GF(q^2) together with its closed-form
compositional inverse.

Niho exponents are implemented exactly as printed above; other sources
sometimes normalize them differently (the two conventions agree up to
cyclotomic equivalence of the exponent).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping

import numpy as np

from .gf2n import FieldSpec, cubic_roots, find_omega, make_field
from .sbox import SBox, from_monomial, from_polynomial

__all__ = [
    "FamilySpec",
    "FAMILY_PARAMETERS",
    "gold",
    "gold_case",
    "kasami",
    "kasami_case",
    "welch",
    "niho",
    "inverse_fn",
    "dobbertin",
    "bracken_leander",
    "btt",
    "modified_inverse",
    "zieve_gamma_candidates",
    "zieve_binomial",
    "zieve_binomial_inverse",
    "modified_inverse_special_solutions",
    "modified_inverse_condition_sets",
]


def _field_for(n: int, field: FieldSpec | None) -> FieldSpec:
    if field is None:
        return make_field(n)
    if field.n != n:
        raise ValueError(f"family needs GF(2^{n}) but field has n={field.n}")
    return field


def gold_case(n: int, i: int) -> str:
    """Which published condition set x^(2^i+1) falls under, if any."""
    if gcd(n, i) == 1 and n % 2:
        return "apn"
    if n % 4 == 2 and gcd(n, i) == 2:
        return "four_uniform_ddt"
    return "unclassified"


kasami_case = gold_case  # same gcd side conditions for both exponent families


def gold(n: int, i: int, field: FieldSpec | None = None) -> SBox:
    """x^(2^i + 1) over GF(2^n), 1 <= i < n."""
    if not 1 <= i < n:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    return from_monomial(_field_for(n, field), (1 << i) + 1)


def kasami(n: int, i: int, field: FieldSpec | None = None) -> SBox:
    """x^(2^2i - 2^i + 1) over GF(2^n), 1 <= i < n."""
    if not 1 <= i < n:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    return from_monomial(_field_for(n, field), (1 << (2 * i)) - (1 << i) + 1)


def welch(k: int, field: FieldSpec | None = None) -> SBox:
    """x^(2^k + 3) over GF(2^(2k+1))."""
    if k < 1:
        raise ValueError("welch parameter k must be >= 1")
    return from_monomial(_field_for(2 * k + 1, field), (1 << k) + 3)


def niho(k: int, field: FieldSpec | None = None) -> SBox:
    """The Niho exponent over GF(2^(2k+1)), selected by the parity of k."""
    if k < 1:
        raise ValueError("niho parameter k must be >= 1")
    if k % 2 == 0:
        d = (1 << k) + (1 << (k // 2)) - 1
    else:
        d = (1 << k) + (1 << ((3 * k + 1) // 2)) - 1
    return from_monomial(_field_for(2 * k + 1, field), d)


def inverse_fn(n: int, field: FieldSpec | None = None) -> SBox:
    """x^(2^n - 2): the inverse map extended by 0 -> 0."""
    spec = _field_for(n, field)
    return from_monomial(spec, spec.size - 2)


def dobbertin(k: int, field: FieldSpec | None = None) -> SBox:
    """x^(2^4k + 2^3k + 2^2k + 2^k - 1) over GF(2^5k)."""
    if k < 1:
        raise ValueError("dobbertin parameter k must be >= 1")
    d = (1 << (4 * k)) + (1 << (3 * k)) + (1 << (2 * k)) + (1 << k) - 1
    return from_monomial(_field_for(5 * k, field), d)


def bracken_leander(k: int, field: FieldSpec | None = None) -> SBox:
    """x^(2^2k + 2^k + 1) over GF(2^4k), k odd."""
    if k < 1 or k % 2 == 0:
        raise ValueError("bracken_leander parameter k must be odd and >= 1")
    return from_monomial(_field_for(4 * k, field), (1 << (2 * k)) + (1 << k) + 1)


def btt(k: int, s: int, alpha: int | None = None, field: FieldSpec | None = None) -> SBox:
    """The Bracken-Tan-Tan binomial a*x^(2^s+1) + a^(2^k)*x^(2^(n-k)+2^(k+s)).

    Side conditions: n = 3k, k even with k/2 odd, 3 does not divide k,
    gcd(3k, s) = 2, and 3 divides k+s; alpha must be primitive (defaults
    to the smallest primitive element). The exponent 2^-k is read as
    2^(n-k), the inverse of the k-fold Frobenius.
    """
    n = 3 * k
    if k < 2 or k % 2 or (k // 2) % 2 == 0 or k % 3 == 0:
        raise ValueError(f"btt needs k even, k/2 odd, 3 not dividing k; got k={k}")
    if s < 1:
        raise ValueError(f"btt shift s must be positive, got s={s}")
    if gcd(n, s) != 2 or (k + s) % 3:
        raise ValueError(f"btt needs gcd(3k, s)=2 and 3 | k+s; got k={k}, s={s}")
    spec = _field_for(n, field)
    if alpha is None:
        alpha = spec.primitive_element
    elif spec.element_order(alpha) != spec.size - 1:
        raise ValueError(f"alpha={alpha:#x} is not primitive in {spec.label()}")
    e1 = (1 << s) + 1
    e2 = (1 << (n - k)) + (1 << (k + s))
    return from_polynomial(spec, [(e1, alpha), (e2, spec.pow(alpha, 1 << k))])


def modified_inverse(n: int, field: FieldSpec | None = None) -> SBox:
    """The inverse map with the images of 0 and 1 swapped."""
    spec = _field_for(n, field)
    table = np.zeros(spec.size, dtype=np.int64)
    table[0] = 1
    table[2:] = spec.inv_vec(np.arange(2, spec.size))
    return SBox(spec, table)


# -- the x^(q+2) + gamma*x binomial over GF(q^2) ------------------------------------


def _field_from_q(q: int, field: FieldSpec | None = None) -> FieldSpec:
    """GF(q^2) for q a power of two, at least 2 (field, if given, must match)."""
    m = q.bit_length() - 1
    if q < 2 or q != 1 << m:
        raise ValueError(f"q must be a power of two, at least 2, got {q}")
    return _field_for(2 * m, field)


def _split_quadratic_extension(spec: FieldSpec) -> int:
    """Return q = 2^m for a field GF(q^2) with m odd (so q = 2 mod 6)."""
    if spec.n % 2 or (spec.n // 2) % 2 == 0:
        raise ValueError(
            f"need GF(q^2) with q = 2^m, m odd; got n={spec.n}"
        )
    return 1 << (spec.n // 2)


def zieve_gamma_candidates(spec: FieldSpec) -> list[int]:
    """All gamma for which gamma^(q-1) has multiplicative order 3, ascending.

    Exactly these gamma make x^(q+2) + gamma*x a permutation of GF(q^2)
    when q = 2 mod 6.
    """
    q = _split_quadratic_extension(spec)
    g = np.arange(1, spec.size)
    h = spec.pow_vec(g, q - 1)
    return g[(h != 1) & (spec.pow_vec(h, 3) == 1)].tolist()


def _check_gamma(spec: FieldSpec, gamma: int) -> int:
    q = _split_quadratic_extension(spec)
    if gamma == 0 or spec.element_order(spec.pow(gamma, q - 1)) != 3:
        raise ValueError(f"gamma={gamma:#x} fails the order-3 condition")
    return q


def zieve_binomial(spec: FieldSpec, gamma: int) -> SBox:
    """x^(q+2) + gamma*x over GF(q^2); a permutation for valid gamma."""
    q = _check_gamma(spec, gamma)
    return from_polynomial(spec, [(q + 2, 1), (1, gamma)])


def zieve_binomial_inverse(spec: FieldSpec, gamma: int) -> SBox:
    """Closed-form compositional inverse of x^(q+2) + gamma*x.

    Pointwise evaluation of

        x^(q^2-q-1) * ((x^(q+1) + e^3)^(2*t) + gamma^q * (x^(q+1) + e^3)^t
                       + e^2 + e*gamma^q)

    with e = gamma^q + gamma and t = (2q-1)/3 the inverse of 3 modulo q-1
    (the base x^(q+1) + e^3 lies in the subfield GF(q)).
    """
    q = _check_gamma(spec, gamma)
    t = (2 * q - 1) // 3
    gq = spec.pow(gamma, q)
    eps = gq ^ gamma
    xs = np.arange(spec.size, dtype=np.int64)
    base = spec.pow_vec(xs, q + 1) ^ spec.pow(eps, 3)
    inner = (
        spec.pow_vec(base, 2 * t)
        ^ spec.mul_vec(gq, spec.pow_vec(base, t))
        ^ (spec.pow(eps, 2) ^ spec.mul(eps, gq))
    )
    return SBox(spec, spec.mul_vec(spec.pow_vec(xs, q * q - q - 1), inner))


# -- special-point solutions for the modified inverse -------------------------------
#
# For f the modified inverse and a outside {0, 1, w, w^2}, the pair system
# f(x)+f(y) = b, f(x+a)+f(y+a) = b can only pick up solutions with
# x in {0, 1, a, a+1} (where f deviates from 1/x under one of the two
# shifts) when (a, b) satisfies one of two quadratic-in-b conditions or
# one of two exceptional b values. Each firing case contributes the pair
# (x, y) and its mirror (y, x).


def _excluded_shifts(spec: FieldSpec) -> set[int]:
    out = {0, 1}
    if spec.n % 2 == 0:
        w = find_omega(spec)
        out |= {w, spec.mul(w, w)}
    return out


def _special_points(spec: FieldSpec, A: np.ndarray, B: np.ndarray) -> dict[str, np.ndarray]:
    """Which of the four special points fire at each (A[i], B[i]), one mask per case.

    cond_a = a^2 b^2 + a^2 b + a b + 1 fires x=0 and x=a, and
    cond_b = a^2 b^2 + a b^2 + a b + 1 fires x=1 and x=a+1; x=0 also fires
    at b = (1+a)/a, and x=1 at b = 1/(a+1).
    """
    asq, bsq, ab = spec.mul_vec(A, A), spec.mul_vec(B, B), spec.mul_vec(A, B)
    common = spec.mul_vec(asq, bsq) ^ ab ^ 1
    cond_a = (common ^ spec.mul_vec(asq, B)) == 0
    cond_b = (common ^ spec.mul_vec(A, bsq)) == 0
    return {
        "x=0": cond_a | (B == spec.mul_vec(A ^ 1, spec.inv_vec(A))),
        "x=1": cond_b | (B == spec.inv_vec(A ^ 1)),
        "x=a": cond_a,
        "x=a+1": cond_b,
    }


def modified_inverse_special_solutions(
    spec: FieldSpec, a: int, b: int
) -> list[tuple[str, int, int]]:
    """Which of the four special points fire at (a, b), with their partners.

    Returns [(case, x, y), ...] where case is one of "x=0", "x=1", "x=a",
    "x=a+1"; for each entry both (x, y) and (y, x) solve the pair system
    of the modified inverse at (a, b). Requires b != 0 and a outside
    {0, 1, w, w^2}.
    """
    if b == 0 or a in _excluded_shifts(spec):
        raise ValueError("need b != 0 and a outside {0, 1, w, w^2}")
    mul, inv = spec.mul, spec.inv
    partners = {  # built only for a case that fires, which for x=0 and x=a rules out b = 1
        "x=0": lambda: (0, inv(b ^ 1)),
        "x=1": lambda: (1, inv(b)),
        "x=a": lambda: (a, mul(mul(a, b) ^ a ^ 1, inv(b ^ 1))),
        "x=a+1": lambda: (a ^ 1, mul(mul(a, b) ^ 1, inv(b))),
    }
    fires = _special_points(spec, np.array([a]), np.array([b]))
    return [(case, *partners[case]()) for case, hit in fires.items() if hit[0]]


def modified_inverse_condition_sets(spec: FieldSpec) -> dict[str, set[tuple[int, int]]]:
    """The four condition sets over all admissible (a, b), keyed by case."""
    shifts = _excluded_shifts(spec)
    avals = np.array([a for a in range(2, spec.size) if a not in shifts], dtype=np.int64)
    bvals = np.arange(1, spec.size, dtype=np.int64)
    A, B = np.meshgrid(avals, bvals, indexing="ij")
    A, B = A.ravel(), B.ravel()
    return {
        case: {(int(x), int(y)) for x, y in zip(A[m], B[m])}
        for case, m in _special_points(spec, A, B).items()
    }


def cube_condition_roots(spec: FieldSpec) -> set[int]:
    """Roots of a^3 + a + 1, the shifts where all four cases can co-fire."""
    return cubic_roots(spec, 1, 1)


# -- named dispatch for the CLI ------------------------------------------------------


def _from_q(builder):
    """Adapt a GF(q^2) constructor to (q, gamma, field), gamma defaulting."""

    def build(q: int, gamma: int | None, field: FieldSpec | None) -> SBox:
        spec = _field_from_q(q, field)
        if gamma is None:
            gamma = zieve_gamma_candidates(spec)[0]
        return builder(spec, gamma)

    return build


# family name -> (constructor, required params, optional params); the
# constructor takes the params in that order (None if absent), then field
_FAMILIES = {
    "gold": (gold, ("n", "i"), ()),
    "kasami": (kasami, ("n", "i"), ()),
    "welch": (welch, ("k",), ()),
    "niho": (niho, ("k",), ()),
    "inverse": (inverse_fn, ("n",), ()),
    "dobbertin": (dobbertin, ("k",), ()),
    "bracken_leander": (bracken_leander, ("k",), ()),
    "btt": (btt, ("k", "s"), ("alpha",)),
    "modified_inverse": (modified_inverse, ("n",), ()),
    "zieve_binomial": (_from_q(zieve_binomial), ("q",), ("gamma",)),
    "zieve_binomial_inverse": (_from_q(zieve_binomial_inverse), ("q",), ("gamma",)),
}

# family name -> (required params, optional params)
FAMILY_PARAMETERS: Mapping[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    name: (required, optional) for name, (_, required, optional) in _FAMILIES.items()
}


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its integer parameters, validated on build."""

    name: str
    params: tuple[tuple[str, int], ...]

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse "name key=value ..." with decimal or 0x-hex values."""
        tokens = text.split()
        if not tokens:
            raise ValueError("empty family specification")
        name, items = tokens[0], []
        if name not in FAMILY_PARAMETERS:
            raise ValueError(f"unknown family {name!r}")
        required, optional = FAMILY_PARAMETERS[name]
        for tok in tokens[1:]:
            if "=" not in tok:
                raise ValueError(f"expected key=value, got {tok!r}")
            key, val = tok.split("=", 1)
            if key not in required and key not in optional:
                raise ValueError(f"unknown parameter {key!r} for family {name!r}")
            try:
                items.append((key, int(val, 16) if val.lower().startswith("0x") else int(val)))
            except ValueError:
                raise ValueError(f"bad integer value in {tok!r}") from None
        seen = [k for k, _ in items]
        if len(seen) != len(set(seen)):
            raise ValueError("duplicate parameter")
        missing = [k for k in required if k not in seen]
        if missing:
            raise ValueError(f"family {name!r} is missing parameters {missing}")
        return cls(name, tuple(items))

    def build(self, field: FieldSpec | None = None) -> SBox:
        p = dict(self.params)
        builder, required, optional = _FAMILIES[self.name]
        return builder(*(p.get(k) for k in required + optional), field)
