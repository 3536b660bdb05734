"""refl2: exact invariant theory for characteristic-2 reflection groups.

Builds the rank-3 transvection groups whose restriction to an invariant
plane is SL2(GF(2^n)), constructs their Dickson-style invariants, and
machine-checks polynomiality of the invariant ring via the degree
product / Jacobian criterion plus an independent graded fixed-space
oracle.
"""

from refl2 import linalg  # noqa: F401  (tracers look every refl2 module up)
