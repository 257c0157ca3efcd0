"""Ratio vectors: direct definition, closed forms in w, boundary formulas.

For an ordered cubic the ratio vector is

    sigma1 = (z1 - w1) / (w2 - w1),   sigma2 = (z2 - w2) / (w3 - w2)

and always satisfies (1 - sigma1) * sigma2 = 1/3. On admissible interior
configurations the ratios are functions of w = w2/w3 alone:

    f(w) = (w + 3 - R) / (3 (w + 1)) = 2 / (w + 3 + R),   R = sqrt(3 + w^2)
    g(w) = 1 - f(-w)

g is the reversal symmetry: negating the roots (w -> -w) reverses their
order by real part and gives sigma1' = 1 - sigma2, sigma2' = 1 - sigma1.
R(-w) = R(w), so one square root serves both ratios, and 1 - f cannot
cancel because 0 < Re f < 2/3. Each point takes the form of f whose
terms add rather than cancel: the rationalized one where
Re((w + 3) conj(R)) >= 0, the textbook quotient elsewhere (large |w| with
Re w < 0, where w + 3 + R cancels). The removable point w = -1 of f (value
1/2, and so g(1) = 1/2) falls on the rationalized side, whose denominator
never vanishes on the principal branch, so it needs no special case; the
textbook denominator 3 (w + 1) vanishes only there. R, f, g and the ray
identity sigma2 = 1 / (3 (1 - sigma1)) are each one body over kernel's ops
record: f_extension and g_extension run them on a Python complex,
closed_forms_array and the datasets on numpy arrays, with the same bits.

f and g extend analytically to the whole plane minus the excluded rays
E = {Re w = 0, |Im w| >= sqrt(3)}, where sqrt(3 + w^2) crosses the branch
cut. On the rays themselves (w = i t, |t| >= sqrt(3)) the ratio is given by
a one-sided limit that depends on the sign of Im w3:

    sigma1 = (i t + i sqrt(t^2 - 3) + 3) / (3 (i t + 1))     Im w3 > 0
    sigma1 = conj of the value at -t                          Im w3 < 0

with real/imaginary parts u1(t), v1(t) (and u2, v2 for the mirror side).
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .cubic import GATE_TABLE, MAX_ROOT_MAGNITUDE, AdmissibilityReport, NormalizedCubic, OrderedCubic
from .errors import BadParameterError, NotAdmissibleError, OutsideDomainError
from .kernel import (
    _ARRAY, _ONE, _SCALAR, _THREE, _TWO, EQ_TOL, SQRT3, _on_rays, _radicand,
    principal_sqrt,
)

__all__ = [
    "RatioPath",
    "RatioVector",
    "ratios_direct",
    "ratios_direct_array",
    "f_extension",
    "g_extension",
    "closed_forms_array",
    "boundary_sigma1",
    "boundary_uv",
    "boundary_modulus_sq",
    "boundary_sigma_diff",
    "identity_residual",
    "ratios_via_w",
]


class RatioPath(enum.Enum):
    DIRECT = "direct"
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    COINCIDENT = "coincident"


class RatioVector(NamedTuple):
    """The pair (sigma1, sigma2) plus the formula that produced it."""

    sigma1: complex
    sigma2: complex
    path: RatioPath


def _sigmas(ops, w1, w2, w3, z1, z2):
    """sigma1 = (z1 - w1) / (w2 - w1) and sigma2 = (z2 - w2) / (w3 - w2):
    complex scalars with kernel._SCALAR or complex arrays with
    kernel._ARRAY, with the same bits."""
    return ops.quot(z1 - w1, w2 - w1), ops.quot(z2 - w2, w3 - w2)


def ratios_direct(c: OrderedCubic) -> RatioVector:
    """Ratio vector straight from the definition on the labeled critical points."""
    s1, s2 = _sigmas(_SCALAR, c.w1, c.w2, c.w3, c.z1, c.z2)
    return RatioVector(s1, s2, RatioPath.COINCIDENT if c.coincident else RatioPath.DIRECT)


def ratios_direct_array(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma1, sigma2) of ratios_direct on each row of a
    cubic.order_roots_array table, bit for bit."""
    return _sigmas(_ARRAY, *(table[name] for name in GATE_TABLE.names[:5]))


def _root_term(w: complex) -> tuple[complex, complex]:
    """(w, R = sqrt(3 + w^2)), rejecting a part of w beyond
    MAX_ROOT_MAGNITUDE (or not finite) and w on the open excluded rays (the
    _on_rays band).

    The ray tips +-i*sqrt(3) map to 3 + w^2 = 0 where the principal root is
    continuous, so they evaluate fine; only the open rays are rejected.
    """
    w = complex(w)
    if not (abs(w.real) <= MAX_ROOT_MAGNITUDE >= abs(w.imag)):
        raise BadParameterError(f"w={w!r} needs finite parts within +-{MAX_ROOT_MAGNITUDE:.0e}")
    d = _radicand(_SCALAR, w)
    if _on_rays(w) and abs(d) > EQ_TOL:
        raise OutsideDomainError(
            f"w={w!r} lies on the excluded rays; use the boundary formula"
        )
    return w, principal_sqrt(d)


def _adds(a, r):
    """Whether a = w + 3 and R add, Re(a conj(R)) >= 0; elementwise on
    arrays."""
    return a.real * r.real + a.imag * r.imag >= 0.0


def _f(ops, w, r):
    """f(w) from w and R = R(w) in the form whose terms add: 2 / (a + R) or
    (a - R) / (3 u) with a = w + 3, u = w + 1. 3 u is spelled on the parts;
    CPython's _THREE * u has the same bits, as no part of u is -0.0."""
    a = w + _THREE
    add = _adds(a, r)
    u = w + _ONE
    return ops.quot(ops.where(add, _TWO, a - r),
                    ops.where(add, a + r, ops.complex(3.0 * u.real, 3.0 * u.imag)))


def _g(ops, w, r):
    """g(w) = 1 - f(-w), on the same root term R(-w) = R(w)."""
    return _ONE - _f(ops, -w, r)


def f_extension(w: complex) -> complex:
    """Analytic extension of sigma1 as a function of w (value 1/2 at w = -1)."""
    return _f(_SCALAR, *_root_term(w))


def g_extension(w: complex) -> complex:
    """Analytic extension of sigma2 as a function of w (value 1/2 at w = +1)."""
    return _g(_SCALAR, *_root_term(w))


def closed_forms_array(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f(w), g(w)) of f_extension/g_extension elementwise on a complex
    array of finite points off the excluded rays, bit for bit (the caller
    masks the rays out; nothing is validated)."""
    w = np.asarray(w, dtype=complex)
    r = _ARRAY.sqrt(_radicand(_ARRAY, w))
    return _f(_ARRAY, w, r), _g(_ARRAY, w, r)


def _ray_sigma2(ops, s1):
    """sigma2 = 1 / (3 (1 - sigma1)) from the identity (1 - sigma1) sigma2
    = 1/3, with 3 (1 - sigma1) spelled on the parts as in _f (no part of
    1 - sigma1 is -0.0 either)."""
    u = _ONE - s1
    return ops.quot(_ONE, ops.complex(3.0 * u.real, 3.0 * u.imag))


def _ray_terms(t):
    """The ops record for t, the validated t, and the ray terms of
    _ray_values. |t| may not exceed MAX_ROOT_MAGNITUDE, so t^2 cannot
    overflow.

    A scalar t becomes a Python float and goes through math only; anything
    else becomes a float array.
    """
    ops = _SCALAR if np.isscalar(t) else _ARRAY
    t = ops.floats(t)
    a = abs(t)
    if not ops.every(a <= MAX_ROOT_MAGNITUDE):
        raise BadParameterError(
            f"boundary parameter must be finite with |t| <= {MAX_ROOT_MAGNITUDE:.0e}"
        )
    if not ops.every(a >= SQRT3 - EQ_TOL):
        raise BadParameterError("boundary parameter needs |t| >= sqrt(3)")
    return _ray_values(ops, t)


def _ray_values(ops, t):
    """(ops, t, a, r, heavy) with the ray terms a = |t|, r = sqrt(t^2 - 3)
    and heavy = t^2 + 3 + |t| r of an already validated t. The tip
    rounding residue of t^2 - 3 is clamped to 0."""
    a = abs(t)
    aa = a * a
    r = ops.real_sqrt(ops.maximum(aa - 3.0, 0.0))
    return ops, t, a, r, aa + 3.0 + a * r


# The ray formulas below are bodies over _ray_terms(t), so that one block's
# terms can serve several of them. _uv and _modulus_sq select between the
# two sides by the sign of t; _uv_upper and _modulus_sq_upper are their
# values for t >= 0, which the other side mirrors.


def _uv_upper(terms):
    """(u1, u2, v1, v2) for t >= 0, from _ray_terms(t)."""
    _, _, a, r, heavy = terms
    den = 3.0 * (a * a + 1.0)
    return heavy / den, 3.0 / heavy, -1.0 / (r + 2.0 * a), -((2.0 * a + r) / den)


def _uv(terms):
    """The ops record and boundary_uv(t), from _ray_terms(t): for t < 0 the
    mirror (u2, u1, -v2, -v1) of the t >= 0 values."""
    ops, t = terms[:2]
    upper = u1, u2, v1, v2 = _uv_upper(terms)
    return ops, ops.select(t >= 0, upper, (u2, u1, -v2, -v1))


def boundary_uv(t):
    """(u1, u2, v1, v2) on the rays; Python floats for a scalar t (computed
    with math only), arrays for an array.

    Cancellation-free arrangements are used so the asymptotic tails stay
    accurate (the textbook quotients lose all digits past |t| ~ 1e8):

        u_big(|t|)   = (t^2 + 3 + |t| r) / (3 (t^2 + 1))      r = sqrt(t^2-3)
        u_small(|t|) = 3 / (t^2 + 3 + |t| r)
        v_neg(|t|)   = (2 |t| + r) / (3 (t^2 + 1))
        v_pos(|t|)   = -1 / (r + 2 |t|)

    with u1 = u_big, v1 = v_pos for t > 0 and the mirror images for t < 0.
    Every |t| from sqrt(3) to MAX_ROOT_MAGNITUDE (1e100) is served.
    """
    return _uv(_ray_terms(t))[1]


def boundary_sigma1(t) -> complex:
    """sigma1 on the rays, upper side (Im w3 > 0): u1(t) + i v1(t).

    For a configuration with Im w3 < 0 the value is conj(boundary_sigma1(-t)).
    """
    ops, (u1, _, v1, _) = _uv(_ray_terms(t))
    return ops.complex(u1, v1)


def boundary_modulus_sq(t):
    """(a, b) with a = 9(u1^2 + v1^2), b = 9(u2^2 + v2^2); both stay below 4."""
    return _modulus_sq(_ray_terms(t))


def _modulus_sq_upper(terms):
    """boundary_modulus_sq(t) for t >= 0, from _ray_terms(t)."""
    _, _, a, _, heavy = terms
    return 2.0 * heavy / (a * a + 1.0), 18.0 / heavy


def _modulus_sq(terms):
    """boundary_modulus_sq(t), from _ray_terms(t): for t < 0 the pair
    swapped."""
    ops, t = terms[:2]
    big, small = _modulus_sq_upper(terms)
    return ops.select(t >= 0, (big, small), (small, big))


def boundary_sigma_diff(t) -> complex:
    """sigma2 - sigma1 on the rays (upper side):
    ((t^2 - 3) - 2 i sqrt(t^2 - 3)) / (3 (t^2 + 1)); real part >= 0."""
    return _sigma_diff(_ray_terms(t))


def _sigma_diff(terms):
    """boundary_sigma_diff(t), from _ray_terms(t)."""
    ops, _, a, r, _ = terms
    den = 3.0 * (a * a + 1.0)
    return ops.complex((a * a - 3.0) / den, -2.0 * r / den)


def identity_residual(r: RatioVector) -> float:
    """|(1 - sigma1) sigma2 - 1/3|."""
    return abs((1.0 - r.sigma1) * r.sigma2 - 1.0 / 3.0)


def ratios_via_w(n: NormalizedCubic, report: AdmissibilityReport) -> RatioVector:
    """Ratio vector from the closed forms, dispatched by the admissibility report.

    Interior points use f/g; ray points use the boundary formula on the side
    selected by sign(Im w3n). Raises NotAdmissibleError otherwise.
    """
    if not report.admissible:
        raise NotAdmissibleError(
            "pair is not admissible: " + ", ".join(report.reasons)
        )
    if report.on_boundary:
        t = n.w.imag
        if abs(t) < SQRT3:
            t = math.copysign(SQRT3, t)  # tip rounding
        if n.w3n.imag >= 0.0:
            s1 = boundary_sigma1(t)
        else:
            s1 = boundary_sigma1(-t).conjugate()
        return RatioVector(s1, _ray_sigma2(_SCALAR, s1), RatioPath.BOUNDARY)
    s1 = f_extension(n.w)
    s2 = g_extension(n.w)
    return RatioVector(s1, s2, RatioPath.INTERIOR)
