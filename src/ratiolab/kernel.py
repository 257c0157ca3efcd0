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

The array gate (cubic.order_roots_array) must decide every row as the
scalar gate does and return the same bits, so it cannot use numpy's complex
operations. numpy divides by multiplying with a reciprocal, so many of its
quotients, by 3.0 as well, differ from CPython's in the last bit
(tests/test_kernel.py checks this on a fixed seed); its products depend
on the SIMD loop it picks for the CPU (with numpy 2.4 on an AVX-512 CPU
about one random product in ten differs), and its abs is not libm's hypot.
The private helpers _cmul, _cquot, _cabs and _csqrt instead spell
out, on the real and imaginary parts of complex arrays, CPython's
_Py_c_prod, _Py_c_quot (Smith's two-branch division), abs (libm hypot) and
principal_sqrt (cmath.sqrt's algorithm, with its scaled path for subnormal
inputs); numpy's complex add and subtract are component-wise and exact
already. A real operand counts as a complex with a +0.0 imaginary part, as
CPython before 3.14 coerces it; the mixed-mode rules of 3.14 differ from
that only in the sign of a zero part.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

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


def _complex(re, im) -> np.ndarray:
    """The complex array with parts re and im, bit for bit (re + 1j*im
    would turn a -0.0 real part into +0.0)."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _cmul(a, b) -> np.ndarray:
    """a * b as CPython's _Py_c_prod forms it; either operand may be a real
    scalar (a complex with imaginary part +0.0)."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _cquot(a, b) -> np.ndarray:
    """a / b as CPython's _Py_c_quot forms it: Smith's division by the part
    of b with the larger magnitude (the real part on a tie). b may be a real
    scalar; rows with b == 0 hold NaN where CPython raises."""
    by_imag = np.abs(b.real) < np.abs(b.imag)
    big = np.where(by_imag, b.imag, b.real)
    small = np.where(by_imag, b.real, b.imag)
    ratio = small / big
    denom = big + small * ratio
    re = np.where(by_imag, a.real * ratio + a.imag, a.real + a.imag * ratio)
    im = np.where(by_imag, a.imag * ratio - a.real, a.imag - a.real * ratio)
    return _complex(re / denom, im / denom)


def _cabs(a) -> np.ndarray:
    """abs(a): libm hypot, as CPython's abs(complex) (np.abs rounds
    differently in about a third of cases)."""
    return np.hypot(a.real, a.imag)


#: cmath.sqrt's scaling of subnormal inputs: 2**53 up, 2**-27 down.
_SCALE_UP, _SCALE_DOWN = 53, -27
_DBL_MIN = 2.2250738585072014e-308


def _csqrt(z) -> np.ndarray:
    """principal_sqrt(z) for a finite complex array, bit for bit: a -0.0
    imaginary part becomes +0.0, then cmath.sqrt's algorithm."""
    im = z.imag + 0.0
    ax, ay = np.abs(z.real), np.abs(im)
    tiny = (ax < _DBL_MIN) & (ay < _DBL_MIN)
    axu = np.ldexp(ax, _SCALE_UP)
    scaled = np.ldexp(np.sqrt(axu + np.hypot(axu, np.ldexp(ay, _SCALE_UP))), _SCALE_DOWN)
    ax8 = ax / 8.0
    s = np.where(tiny, scaled, 2.0 * np.sqrt(ax8 + np.hypot(ax8, ay / 8.0)))
    with np.errstate(invalid="ignore"):  # 0/0 at z == 0, replaced below
        d = ay / (2.0 * s)
    right = z.real >= 0.0
    re = np.where(right, s, d)
    im_out = np.copysign(np.where(right, d, s), im)
    zero = (z.real == 0.0) & (im == 0.0)
    return _complex(np.where(zero, 0.0, re), np.where(zero, im, im_out))


def _on_rays(w):
    """Whether w lies on the excluded rays Re w = 0, |Im w| >= sqrt(3), where
    3 + w^2 is on the branch cut; elementwise for a complex array. This one
    band decides the rays for the input gate, the closed forms and the
    datasets."""
    return (abs(w.real) <= EQ_TOL) & (abs(w.imag) >= SQRT3 - EQ_TOL)
