"""Complex scalar utilities shared by every other module.

The square root used throughout is the principal branch: analytic off the
nonpositive real axis (the branch cut, Gamma), Re sqrt(z) >= 0 everywhere.
On the cut itself we return the limit from the upper half plane, so
principal_sqrt(-4) == 2j. All fuzzy comparisons go through one explicit
tolerance policy instead of ad-hoc constants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "SQRT3",
    "principal_sqrt",
    "in_gamma",
    "approx_eq",
    "require_finite",
]

SQRT3 = math.sqrt(3.0)

#: ulp-scale constant used for cancellation-aware floors.
MACHINE_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class ToleranceConfig:
    """Central tolerance policy.

    eq_tol        absolute band for equality and ordering comparisons
    boundary_tol  distance band deciding membership of the branch cut and
                  of the excluded vertical rays
    identity_tol  allowed residual in the identity (1 - sigma1) * sigma2 = 1/3
    """

    eq_tol: float = 1e-9
    boundary_tol: float = 1e-9
    identity_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.eq_tol > 0.0 and self.boundary_tol > 0.0 and self.identity_tol > 0.0):
            raise ValueError("all tolerances must be strictly positive")
        if self.eq_tol > self.boundary_tol:
            raise ValueError("eq_tol must not exceed boundary_tol")


DEFAULT_TOL = ToleranceConfig()


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


def in_gamma(z: complex, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether z lies on the branch cut (nonpositive reals, 0 included)."""
    z = require_finite(z)
    return abs(z.imag) <= tol.boundary_tol and z.real <= tol.boundary_tol


def _on_rays(w: complex, tol: ToleranceConfig) -> bool:
    """Whether w lies on the excluded rays Re w = 0, |Im w| >= sqrt(3)."""
    return abs(w.real) <= tol.boundary_tol and abs(w.imag) >= SQRT3 - tol.boundary_tol


def approx_eq(a: complex, b: complex, tol: float = DEFAULT_TOL.eq_tol) -> bool:
    """|a - b| <= tol, with both operands validated finite."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return abs(require_finite(a) - require_finite(b)) <= tol
