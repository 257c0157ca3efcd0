"""Complex scalar utilities shared by every other module.

The square root used throughout is the principal branch: analytic off the
nonpositive real axis (the branch cut, Gamma), Re sqrt(z) >= 0 everywhere.
On the cut itself we return the limit from the upper half plane, so
principal_sqrt(-4) == 2j.

Tolerance policy: every fuzzy comparison uses one of two fixed constants.
EQ_TOL is the band for equality, ordering and ray membership; IDENTITY_TOL
is the band on |sigma1 - sigma2| in the T4 equivalence check. Neither can be
set by a caller. The input gate (cubic.order_roots) applies EQ_TOL to the
scale-free configuration (lengths relative to the root triangle's diameter),
so its decisions do not change when the roots are translated or scaled by a
positive factor; w and the ratios are dimensionless already.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "EQ_TOL",
    "IDENTITY_TOL",
    "SQRT3",
    "principal_sqrt",
    "require_finite",
]

SQRT3 = math.sqrt(3.0)

#: ulp-scale constant used for cancellation-aware floors.
MACHINE_EPS = 2.220446049250313e-16

#: Equality band on dimensionless quantities: ties, ordering gaps and the
#: excluded rays.
EQ_TOL = 1e-9

#: Band on |sigma1 - sigma2| in the T4 equivalence check.
IDENTITY_TOL = 1e-10


def require_finite(z: complex, name: str = "value") -> complex:
    """Coerce to complex and reject NaN/inf components."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must have finite components, got {z!r}")
    return z


def principal_sqrt(z: complex) -> complex:
    """Principal square root: Re >= 0, and i*sqrt(|z|) on the cut.

    A real input carrying a negative-zero imaginary part would select the
    lower limit, so the sign of zero is normalized first.
    """
    z = require_finite(z, "sqrt argument")
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.sqrt(z)


def _on_rays(w):
    """Whether w lies on the excluded rays Re w = 0, |Im w| >= sqrt(3), where
    3 + w^2 is on the branch cut; elementwise for a complex array. This one
    band decides the rays for the input gate, the closed forms and the
    datasets."""
    return (abs(w.real) <= EQ_TOL) & (abs(w.imag) >= SQRT3 - EQ_TOL)
