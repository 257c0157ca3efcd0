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

Each gate step (cubic, ratios.ratios_direct) and verdict body (theorems) is
written once and runs on Python complex values with the ops record _SCALAR
or on numpy complex arrays with _ARRAY, with the same bits: + and - act on
each part alike in both, products and real operands are spelled out on the
parts in correctly rounded IEEE arithmetic (a real operand as a complex
with a +0.0 imaginary part, as CPython before 3.14 coerces it), and the
record supplies the modulus (libm hypot in both), CPython's complex
division and cmath.sqrt, which _ARRAY spells out on the parts.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "EQ_TOL",
    "IDENTITY_TOL",
    "SQRT3",
    "principal_sqrt",
]

SQRT3 = math.sqrt(3.0)

#: ulp-scale constant used for cancellation-aware floors.
MACHINE_EPS = 2.220446049250313e-16

#: Equality band on dimensionless quantities: ties, ordering gaps and the
#: excluded rays.
EQ_TOL = 1e-9

#: Band on |sigma1 - sigma2| in the T4 equivalence check.
IDENTITY_TOL = 1e-10

#: Real operands as the complex numbers CPython before 3.14 turns them into.
_ONE, _TWO, _THREE = complex(1.0, 0.0), complex(2.0, 0.0), complex(3.0, 0.0)


def _finite(name: str, *zs: complex) -> tuple[complex, ...]:
    """zs, complex numbers, rejecting NaN/inf components in any of them."""
    for z in zs:
        if not cmath.isfinite(z):
            raise ValueError(f"{name} must have finite components, got {zs!r}")
    return zs


def principal_sqrt(z: complex) -> complex:
    """Principal square root: Re >= 0, and i*sqrt(|z|) on the cut.

    A real input carrying a negative-zero imaginary part would select the
    lower limit, so the sign of zero is normalized first.
    """
    (z,) = _finite("sqrt argument", complex(z))
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.sqrt(z)


def _modulus_scalar(z: complex) -> float:
    try:
        return abs(z)
    except OverflowError:  # abs refuses the inf that hypot rounds to
        return math.inf


def _complex(re, im) -> np.ndarray:
    """The complex array with parts re and im, bit for bit (re + 1j*im
    would turn a -0.0 real part into +0.0)."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _cquot(a, b) -> np.ndarray:
    """a / b on complex arrays as CPython's _Py_c_quot forms it: Smith's
    division by the part of b with the larger magnitude (the real part on a
    tie). Where that is the imaginary part, a and b are first turned by -i,
    which is exact and gives the same bits, so the division is written once,
    by the real part. Rows with b == 0 hold NaN where CPython raises.

    A scalar divisor (a Python complex, such as _THREE) takes one branch,
    picked once, and only that one is computed on a's parts; its own parts
    divide as numpy floats, so b == 0 gives NaN rows there too."""
    ax, ay, bx, by = a.real, a.imag, b.real, b.imag
    if isinstance(b, complex):
        bx, by = np.float64(bx), np.float64(by)
        if abs(bx) < abs(by):
            ax, ay, bx, by = ay, -ax, by, -bx
    else:
        turn = np.abs(bx) < np.abs(by)
        ax, ay, bx, by = (np.where(turn, p, q) for p, q in ((ay, ax), (-ax, ay), (by, bx), (-bx, by)))
    ratio = by / bx
    denom = bx + by * ratio
    return _complex((ax + ay * ratio) / denom, (ay - ax * ratio) / denom)


#: cmath.sqrt's scaling of subnormal inputs: 2**53 up, 2**-27 down.
_SCALE_UP, _SCALE_DOWN = 53, -27
_DBL_MIN = 2.2250738585072014e-308


def _csqrt(z) -> np.ndarray:
    """cmath.sqrt on a finite complex array, bit for bit: its algorithm on
    the parts, with its scaled path for subnormal inputs."""
    x, y = z.real, z.imag
    ax, ay = np.abs(x), np.abs(y)
    ax8 = ax / 8.0
    s = np.asarray(2.0 * np.sqrt(ax8 + np.hypot(ax8, ay / 8.0)))  # writable for a 0-d z too
    tiny = (ax < _DBL_MIN) & (ay < _DBL_MIN)
    if tiny.any():  # the scaled path, on those rows only
        axu, ayu = np.ldexp(ax[tiny], _SCALE_UP), np.ldexp(ay[tiny], _SCALE_UP)
        s[tiny] = np.ldexp(np.sqrt(axu + np.hypot(axu, ayu)), _SCALE_DOWN)
    with np.errstate(invalid="ignore"):  # 0/0 at z == 0, replaced below
        d = ay / (2.0 * s)
    right = x >= 0.0
    zero = s == 0.0  # z == 0, where s is +0.0 and d is NaN
    im = np.where(zero, y, np.copysign(np.where(right, d, s), y))
    return _complex(np.where(right, s, d), im)


class _Ops(NamedTuple):
    """The operations that Python complex values and numpy complex arrays
    do not share; a body takes them from the record of its operands."""

    modulus: Callable    # |z| as libm hypot forms it (inf where it overflows)
    maximum: Callable    # of two or more values
    minimum: Callable
    where: Callable      # where(c, a, b): a where c holds, else b
    select: Callable     # where on each entry of two tuples
    sqrt: Callable       # cmath.sqrt (principal_sqrt where Im z is not -0.0)
    quot: Callable       # a / b as CPython divides complex numbers
    complex: Callable    # (x, y) -> x + iy
    floats: Callable     # a real value as a float or a float array
    every: Callable      # whether every entry of a truth value holds


_SCALAR = _Ops(
    _modulus_scalar, max, min, lambda c, a, b: a if c else b, lambda c, a, b: a if c else b,
    cmath.sqrt, operator.truediv, complex, float, bool,
)
_ARRAY = _Ops(
    lambda z: np.hypot(z.real, z.imag),
    lambda *xs: reduce(np.maximum, xs), lambda *xs: reduce(np.minimum, xs), np.where,
    lambda c, a, b: tuple(np.where(c, x, y) for x, y in zip(a, b)),
    _csqrt, _cquot, _complex, lambda t: np.asarray(t, dtype=float), np.all,
)


def _radicand(ops, w):
    """3 + w^2, the radicand of R(w) = sqrt(3 + w^2), on the parts as
    CPython forms _THREE + w * w. Its imaginary part is never -0.0, so
    ops.sqrt of it is principal_sqrt's root."""
    wx, wy = w.real, w.imag
    return ops.complex(3.0 + (wx * wx - wy * wy), 0.0 + (wx * wy + wy * wx))


def _on_rays(w):
    """Whether w lies on the excluded rays Re w = 0, |Im w| >= sqrt(3), where
    3 + w^2 is on the branch cut; elementwise for a complex array. This one
    band decides the rays for the input gate, the closed forms and the
    datasets."""
    return (abs(w.real) <= EQ_TOL) & (abs(w.imag) >= SQRT3 - EQ_TOL)
