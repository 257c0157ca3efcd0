"""Ratio vectors: direct definition, closed forms in w, boundary formulas.

For an ordered cubic the ratio vector is

    sigma1 = (z1 - w1) / (w2 - w1),   sigma2 = (z2 - w2) / (w3 - w2)

and always satisfies (1 - sigma1) * sigma2 = 1/3. On admissible interior
configurations the ratios are functions of w = w2/w3 alone:

    f(w) = (w + 3 - sqrt(3 + w^2)) / (3 (w + 1)) = 2 / (w + 3 + R)
    g(w) = (-2 w + sqrt(3 + w^2)) / (3 (1 - w))  = (w + 3 + R) / (3 (w + 1 + R))

with R = sqrt(3 + w^2). Each point is evaluated with the form whose terms
add rather than cancel: the rationalized right-hand forms where
Re((w + 3) conj(R)) >= 0, the textbook quotients elsewhere (large |w| with
Re w < 0, where w + 3 + R cancels). The removable points w = -1 (for f) and
w = +1 (for g), both of value 1/2, fall on the rationalized side, whose
denominators never vanish on the principal branch; so they need no special
case, and the textbook denominators w + 1 and 1 - w stay away from zero.
The four quotients are written once, with operators only: f_extension and
g_extension apply them to one point (cmath, bit-for-bit stable), and
closed_forms_array to a numpy array, picking the same form per point with
a mask (np.sqrt rounds differently, so the two agree to a few ulps).

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
from dataclasses import dataclass

import numpy as np

from .cubic import AdmissibilityReport, NormalizedCubic, OrderedCubic
from .errors import BadParameterError, NotAdmissibleError, OutsideDomainError
from .kernel import EQ_TOL, SQRT3, _on_rays, principal_sqrt, require_finite

__all__ = [
    "RatioPath",
    "RatioVector",
    "ratios_direct",
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


@dataclass(frozen=True)
class RatioVector:
    """The pair (sigma1, sigma2) plus the formula that produced it."""

    sigma1: complex
    sigma2: complex
    path: RatioPath


def ratios_direct(c: OrderedCubic) -> RatioVector:
    """Ratio vector straight from the definition on the labeled critical points."""
    s1 = (c.z1 - c.w1) / (c.w2 - c.w1)
    s2 = (c.z2 - c.w2) / (c.w3 - c.w2)
    return RatioVector(s1, s2, RatioPath.COINCIDENT if c.coincident else RatioPath.DIRECT)


def _root_term(w: complex) -> tuple[complex, complex, bool]:
    """(w, R = sqrt(3 + w^2), whether w + 3 and R add), rejecting w on the
    open excluded rays (the _on_rays band).

    The ray tips +-i*sqrt(3) map to 3 + w^2 = 0 where the principal root is
    continuous, so they evaluate fine; only the open rays are rejected.
    """
    w = require_finite(w, "w")
    d = 3.0 + w * w
    if _on_rays(w) and abs(d) > EQ_TOL:
        raise OutsideDomainError(
            f"w={w!r} lies on the excluded rays; use the boundary formula"
        )
    r = principal_sqrt(d)
    a = w + 3.0
    return w, r, a.real * r.real + a.imag * r.imag >= 0.0


# The four closed-form bodies, operators only, so that the scalar and the
# array forms share them: the rationalized ("add") and textbook ("sub")
# quotients of f and g in w and R = sqrt(3 + w^2).


def _f_add(w, r):
    return 2.0 / (w + 3.0 + r)


def _f_sub(w, r):
    return (w + 3.0 - r) / (3.0 * (w + 1.0))


def _g_add(w, r):
    return (w + 3.0 + r) / (3.0 * (w + 1.0 + r))


def _g_sub(w, r):
    return (-2.0 * w + r) / (3.0 * (1.0 - w))


def f_extension(w: complex) -> complex:
    """Analytic extension of sigma1 as a function of w (value 1/2 at w = -1)."""
    w, r, add = _root_term(w)
    if add:
        return _f_add(w, r)
    return _f_sub(w, r)


def g_extension(w: complex) -> complex:
    """Analytic extension of sigma2 as a function of w (value 1/2 at w = +1)."""
    w, r, add = _root_term(w)
    if add:
        return _g_add(w, r)
    return _g_sub(w, r)


def _root_terms_array(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array counterpart of _root_term without the validation: (R, add)."""
    d = 3.0 + w * w
    # principal_sqrt's rule: -0.0 would select the lower limit on the cut.
    # Adding 3.0 already turns -0.0 into +0.0; this keeps the rule explicit.
    d.imag[d.imag == 0.0] = 0.0
    r = np.sqrt(d)
    a = w + 3.0
    return r, a.real * r.real + a.imag * r.imag >= 0.0


def closed_forms_array(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f(w), g(w)) elementwise on a complex array of finite points off the
    excluded rays (the caller masks the rays out; nothing is validated).

    Each point takes the same form as f_extension/g_extension, with
    principal_sqrt's sign-of-zero rule; np.sqrt and numpy's complex
    arithmetic round differently from cmath, so values agree to a few ulps
    rather than bit for bit.
    """
    w = np.asarray(w, dtype=complex)
    r, add = _root_terms_array(w)
    sub = ~add
    wa, ra, ws, rs = w[add], r[add], w[sub], r[sub]
    f = np.empty_like(w)
    g = np.empty_like(w)
    f[add] = _f_add(wa, ra)
    f[sub] = _f_sub(ws, rs)
    g[add] = _g_add(wa, ra)
    g[sub] = _g_sub(ws, rs)
    return f, g


def _ray_terms(t):
    """Validated t with |t|, r = sqrt(t^2 - 3) and heavy = t^2 + 3 + |t| r.

    t is a scalar or an array; the tip rounding residue of t^2 - 3 is
    clamped to 0.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise BadParameterError("boundary parameter must be finite")
    if np.any(np.abs(t_arr) < SQRT3 - EQ_TOL):
        raise BadParameterError("boundary parameter needs |t| >= sqrt(3)")
    if not np.isscalar(t):
        t = t_arr
    at = np.abs(t)
    r = np.sqrt(np.maximum(at * at - 3.0, 0.0))
    return t, at, r, at * at + 3.0 + at * r


def boundary_uv(t):
    """(u1, u2, v1, v2) on the rays; accepts scalars or arrays.

    Cancellation-free arrangements are used so the asymptotic tails stay
    accurate (the textbook quotients lose all digits past |t| ~ 1e8):

        u_big(|t|)   = (t^2 + 3 + |t| r) / (3 (t^2 + 1))      r = sqrt(t^2-3)
        u_small(|t|) = 3 / (t^2 + 3 + |t| r)
        v_neg(|t|)   = (2 |t| + r) / (3 (t^2 + 1))
        v_pos(|t|)   = -1 / (r + 2 |t|)

    with u1 = u_big, v1 = v_pos for t > 0 and the mirror images for t < 0.
    """
    t, at, r, heavy = _ray_terms(t)
    u_big = heavy / (3.0 * (at * at + 1.0))
    u_small = 3.0 / heavy
    v_neg = (2.0 * at + r) / (3.0 * (at * at + 1.0))
    v_pos = -1.0 / (r + 2.0 * at)
    pos = np.asarray(t) >= 0
    u1 = np.where(pos, u_big, u_small)
    u2 = np.where(pos, u_small, u_big)
    v1 = np.where(pos, v_pos, v_neg)
    v2 = np.where(pos, -v_neg, -v_pos)
    if np.isscalar(t):
        return (float(u1), float(u2), float(v1), float(v2))
    return (u1, u2, v1, v2)


def boundary_sigma1(t) -> complex:
    """sigma1 on the rays, upper side (Im w3 > 0): u1(t) + i v1(t).

    For a configuration with Im w3 < 0 the value is conj(boundary_sigma1(-t)).
    """
    u1, _, v1, _ = boundary_uv(t)
    if isinstance(u1, float):
        return complex(u1, v1)
    return u1 + 1j * v1


def boundary_modulus_sq(t):
    """(a, b) with a = 9(u1^2 + v1^2), b = 9(u2^2 + v2^2); both stay below 4."""
    t, at, _, heavy = _ray_terms(t)
    big = 2.0 * heavy / (at * at + 1.0)
    small = 18.0 / heavy
    pos = np.asarray(t) >= 0
    a = np.where(pos, big, small)
    b = np.where(pos, small, big)
    if np.isscalar(t):
        return (float(a), float(b))
    return (a, b)


def boundary_sigma_diff(t) -> complex:
    """sigma2 - sigma1 on the rays (upper side):
    ((t^2 - 3) - 2 i sqrt(t^2 - 3)) / (3 (t^2 + 1)); real part >= 0."""
    t, at, r, _ = _ray_terms(t)
    den = 3.0 * (at * at + 1.0)
    re = (at * at - 3.0) / den
    im = -2.0 * r / den
    if np.isscalar(t):
        return complex(re, im)
    return re + 1j * im


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
        s2 = 1.0 / (3.0 * (1.0 - s1))
        return RatioVector(s1, s2, RatioPath.BOUNDARY)
    s1 = f_extension(n.w)
    s2 = g_extension(n.w)
    return RatioVector(s1, s2, RatioPath.INTERIOR)
