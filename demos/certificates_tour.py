"""Walsh spectra, moment identities, and uniformity certificates.

Run:  python demos/certificates_tour.py
"""

import bctlab as B

# The Walsh spectrum W(u, v) = sum_x (-1)^(u.x + v.f(x)) determines sums of
# BCT powers over nonzero cells exactly, for permutations.
f = B.gold(5, 1)  # x^3 over GF(2^5), an APN permutation
direct = B.bct_moment_direct(f, 1)  # from the table
spectral = B.bct_moment_walsh(f, 1)  # from the spectrum alone
print(f"gold(5,1) first moment: table {direct}, spectrum {spectral}")
assert direct == spectral

# Both sides count one term per orbit of the map's symmetry: the inverse
# over GF(2^16) is one BCT row on the table side and two Walsh rows
# (u = 0 and one more) on the spectrum side, so its moment takes
# milliseconds at n = 16, where the full table would be 16 GiB. Rows and
# row sums refuse no n; only a table refuses, by memory.
g = B.inverse_fn(16)
direct, spectral = B.bct_moment_direct(g, 1), B.bct_moment_walsh(g, 1)
print(f"inverse_fn(16) first moment: table {direct}, spectrum {spectral}")
assert direct == spectral

# Second moments use a constrained 8-fold spectrum sum; both routes agree.
h = B.modified_inverse(4)
print(f"modified_inverse(4) second moment: {B.bct_moment_direct(h, 2)}"
      f" == {B.bct_moment_walsh(h, 2)}")

# The two-uniform certificate decides boomerang uniformity 2 from the
# spectrum, with no table at all: gap = 0 exactly for APN permutations.
for name, box in (("gold(3,1)", B.gold(3, 1)), ("modified_inverse(4)", h)):
    lhs, rhs, gap = B.two_uniform_certificate(box)
    print(f"{name}: certificate gap {gap} -> {'2-uniform' if gap == 0 else 'not 2-uniform'}")

# General thresholds: weight the moments by a polynomial vanishing on the
# even integers up to delta. The weighted sum is zero exactly when every
# BCT count is at most delta.
for delta in (4, 6, 8):
    value, is_zero = B.delta_uniform_certificate(h, delta)
    print(f"modified_inverse(4) <= {delta}-uniform? {is_zero} (value {value})")

# A custom certificate polynomial just has to vanish on {0, 2, ..., delta}
# and stay positive on the larger even values.
phi = B.CertificatePolynomial.for_delta(6, n=4)
print(f"canonical polynomial for delta=6: degree {len(phi.coefficients) - 1}")
