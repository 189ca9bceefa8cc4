"""bctlab: boomerang and differential analysis of S-boxes over GF(2^n).

Exact-table computation of Difference Distribution Tables, Boomerang
Connectivity Tables (three interchangeable algorithms), Walsh spectra,
moment identities and uniformity certificates, plus constructors for the
standard low-uniformity permutation families and a registry that
reproduces their published uniformity values.

The public names are exactly those in the six modules' __all__ lists,
republished here unchanged.
"""

from .gf2n import *  # noqa: F401,F403
from .sbox import *  # noqa: F401,F403
from .tables import *  # noqa: F401,F403
from .walsh import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "1.0.0"
