"""Root ordering, normalization, critical points, and admissibility.

A cubic is given by its three roots. We order them by increasing real part,
compute the critical points from the closed form

    z = (w1 + w2 + w3 +- sqrt(w1^2 + w2^2 + w3^2 - w1w2 - w1w3 - w2w3)) / 3

with the principal square root, and label them z1, z2 so that z1 == z2 or
Re z1 < Re z2. Translating all roots by the same constant leaves the ratio
vector unchanged, so configurations are normalized to w1 + w3 = 0 and
summarized by the single parameter w = w2/w3.

Admissibility captures when the closed forms in w reproduce the directly
defined ratios. Besides the ordering conditions this requires branch
coherence: sqrt(3*w3^2 + w2^2) must equal w3 * sqrt(3 + w^2) for the
principal branch. Pairs exist that satisfy every ordering condition yet
wrap the branch (arg w3^2 + arg(3 + w^2) leaves (-pi, pi]); their ratios
are well defined but are NOT values of the w-plane closed forms, and the
ratio bounds verified by the theorem suite do not cover them.

The input gate is scale-free: order_roots compares every gap against
EQ_TOL times the diameter of the root triangle (the largest pairwise
distance) and tests for a double critical point on the roots centred at
their centroid. Translating the roots or scaling them by a positive factor
thus changes neither the error raised nor the classification or path, as
long as two guards for inputs the arithmetic cannot resolve stay quiet:
root magnitudes above 1e100 or a diameter below 1e-100, and a root
separation below 1e-12 of the largest magnitude (a small triangle far from
the origin, whose shape the input's rounding has already blurred).

order_roots_array, normalize_array and admissibility_mask are the same gate
on whole blocks of configurations, for the sampler: each mirrors the body of
its scalar form with kernel's bit-faithful complex helpers, so every row gets
the scalar decision and the scalar values to the last bit. The scalar forms
keep their own bodies, because a numpy call on one row costs about twenty
times the scalar arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    CriticalRealPartsEqualError,
    RootRealPartsEqualError,
    RootsNotDistinctError,
    ScaleGuardError,
)
from .kernel import (
    EQ_TOL,
    MACHINE_EPS,
    _cabs,
    _cmul,
    _cquot,
    _csqrt,
    _on_rays,
    principal_sqrt,
    require_finite,
)

__all__ = [
    "Configuration",
    "OrderedCubic",
    "NormalizedCubic",
    "AdmissibilityReport",
    "GATE_REASONS",
    "GATE_TABLE",
    "order_roots",
    "order_roots_array",
    "normalize_array",
    "admissibility_mask",
    "critical_points_direct",
    "critical_points_bruteforce",
    "normalize",
    "assess_admissibility",
    "classify_configuration",
]

#: Inputs with larger root magnitude, or a smaller root triangle diameter,
#: are rejected outright.
MAX_ROOT_MAGNITUDE = 1e100
MIN_ROOT_DIAMETER = 1e-100
#: Inputs whose root separation falls below this fraction of the magnitude
#: are rejected (tolerances would be meaningless).
MIN_SEPARATION_RATIO = 1e-12


class Configuration(enum.Enum):
    GENERIC = "generic"
    COLLINEAR = "collinear"
    EQUILATERAL = "equilateral"


@dataclass(frozen=True)
class OrderedCubic:
    """Three distinct roots with Re w1 < Re w2 < Re w3 and labeled critical
    points (z1 == z2 in the coincident case, else Re z1 < Re z2)."""

    w1: complex
    w2: complex
    w3: complex
    z1: complex
    z2: complex
    coincident: bool

    @property
    def roots(self) -> tuple[complex, complex, complex]:
        return (self.w1, self.w2, self.w3)


@dataclass(frozen=True)
class NormalizedCubic:
    """Translated configuration with w1n = -w3n; offset restores the original."""

    w2n: complex
    w3n: complex
    offset: complex
    w: complex


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility conditions for a normalized pair.

    on_boundary means w sits on the excluded vertical rays |Im w| >= sqrt(3),
    Re w = 0, where a dedicated boundary formula applies instead of the
    interior closed forms.
    """

    admissible: bool
    on_boundary: bool
    reasons: tuple[str, ...]


#: |q| below this times the squared length scale is indistinguishable from a
#: double critical point: either the EQ_TOL band on |z2 - z1| = (2/3)sqrt|q|,
#: or accumulated cancellation noise in q itself, whichever is larger.
_COINCIDENCE = max((1.5 * EQ_TOL) ** 2, 512.0 * MACHINE_EPS)


#: The gate's reject reasons; bit k of a reasons mask stands for
#: GATE_REASONS[k]. The first six are order_roots's checks in the order it
#: makes them, each named for the error it raises there (three for
#: ScaleGuardError); the rest are assess_admissibility's reason tags.
GATE_REASONS = (
    "root-magnitude",             # ScaleGuardError
    "roots-not-distinct",         # RootsNotDistinctError
    "root-diameter",              # ScaleGuardError
    "root-separation",            # ScaleGuardError
    "root-real-parts-equal",      # RootRealPartsEqualError
    "critical-real-parts-equal",  # CriticalRealPartsEqualError
    "w3-real-part-not-positive",
    "ordering-w2-w3",
    "ordering-w1-w2",
    "w2-plus-w3-zero",
    "boundary-real-w3",
    "branch-incoherent",
)
_BIT = {tag: 1 << k for k, tag in enumerate(GATE_REASONS)}

#: Row type of order_roots_array's table: the fields of OrderedCubic.
GATE_TABLE = np.dtype(
    [(name, complex) for name in ("w1", "w2", "w3", "z1", "z2")] + [("coincident", bool)],
    align=True,
)


def _radicand(w1: complex, w2: complex, w3: complex) -> tuple[complex, complex, complex]:
    """Root sum s, centroid m and the radicand q of the critical points
    (s -+ sqrt(q)) / 3; q is formed on the centred roots u = w - m, where a
    far-off centroid cannot cancel the triangle's shape away."""
    s = w1 + w2 + w3
    m = s / 3.0
    u1, u2, u3 = w1 - m, w2 - m, w3 - m
    return s, m, u1 * u1 + u2 * u2 + u3 * u3 - u1 * u2 - u1 * u3 - u2 * u3


def critical_points_direct(
    w1: complex, w2: complex, w3: complex
) -> tuple[complex, complex]:
    """Both derivative roots from the radical formula, unlabeled.

    Returned as (minus-branch, plus-branch); each satisfies
    p'(z) = 3 z^2 - 2 (w1+w2+w3) z + (w1w2 + w1w3 + w2w3) = 0.
    """
    w1 = require_finite(w1, "w1")
    w2 = require_finite(w2, "w2")
    w3 = require_finite(w3, "w3")
    s, _, q = _radicand(w1, w2, w3)
    r = principal_sqrt(q)
    return ((s - r) / 3.0, (s + r) / 3.0)


def critical_points_bruteforce(
    w1: complex, w2: complex, w3: complex
) -> tuple[complex, complex]:
    """Derivative roots via the plain quadratic formula, sorted by real part.

    Independent of the principal-branch convention: both candidates are
    formed and sorted, so the branch choice inside the radical cancels.
    Kept separate from critical_points_direct as a cross-check route.
    """
    w1 = require_finite(w1, "w1")
    w2 = require_finite(w2, "w2")
    w3 = require_finite(w3, "w3")
    e1 = w1 + w2 + w3
    e2 = w1 * w2 + w1 * w3 + w2 * w3
    disc = e1 * e1 - 3.0 * e2
    r = disc ** 0.5
    za = (e1 - r) / 3.0
    zb = (e1 + r) / 3.0
    if (za.real, za.imag) <= (zb.real, zb.imag):
        return (za, zb)
    return (zb, za)


def order_roots(r1: complex, r2: complex, r3: complex) -> OrderedCubic:
    """Sort roots by real part and attach labeled critical points.

    Raises RootsNotDistinctError, RootRealPartsEqualError,
    CriticalRealPartsEqualError, or ScaleGuardError when the ratio vector
    is undefined for the input. Every band is EQ_TOL times the diameter of
    the root triangle.
    """
    ws = sorted(
        (require_finite(r1, "root"), require_finite(r2, "root"), require_finite(r3, "root")),
        key=lambda z: z.real,
    )
    w1, w2, w3 = ws

    mag = max(abs(w1), abs(w2), abs(w3))
    if mag > MAX_ROOT_MAGNITUDE:
        raise ScaleGuardError(f"root magnitude {mag:.3g} exceeds {MAX_ROOT_MAGNITUDE:.0e}")
    dists = (abs(w1 - w2), abs(w1 - w3), abs(w2 - w3))
    sep, diam = min(dists), max(dists)
    band = EQ_TOL * diam
    if sep <= band:
        raise RootsNotDistinctError("two roots coincide")
    if diam < MIN_ROOT_DIAMETER:
        raise ScaleGuardError(f"root diameter {diam:.3g} below {MIN_ROOT_DIAMETER:.0e}")
    if sep / mag < MIN_SEPARATION_RATIO:
        raise ScaleGuardError(
            f"root separation ratio {sep / mag:.3g} below {MIN_SEPARATION_RATIO:.0e}"
        )
    if w2.real - w1.real <= band or w3.real - w2.real <= band:
        raise RootRealPartsEqualError("two roots have equal real parts")

    s, m, q = _radicand(w1, w2, w3)
    if abs(q) <= _COINCIDENCE * diam * diam:
        return OrderedCubic(w1, w2, w3, m, m, True)

    r = principal_sqrt(q)
    z1 = (s - r) / 3.0
    z2 = (s + r) / 3.0
    if z2.real - z1.real <= band:
        raise CriticalRealPartsEqualError("critical points have equal real parts")
    return OrderedCubic(w1, w2, w3, z1, z2, False)


def order_roots_array(roots) -> tuple[np.ndarray, np.ndarray]:
    """order_roots on each row of an (n, 3) complex array, bit for bit.

    Returns (table, reasons). table holds a GATE_TABLE row per input row,
    the OrderedCubic that order_roots returns; reasons holds 0 there, or
    else the GATE_REASONS bit of the error order_roots raises, and the row's
    table values mean nothing. Raises ValueError on a non-finite root, as
    order_roots does.
    """
    roots = np.asarray(roots, dtype=complex)
    if not np.isfinite(roots).all():
        raise ValueError("roots must have finite components")
    ws = np.take_along_axis(roots, np.argsort(roots.real, axis=1, kind="stable"), axis=1)
    w1, w2, w3 = ws.T
    # rejected rows may overflow or divide by zero; their values are unused
    with np.errstate(all="ignore"):
        mag = np.maximum(np.maximum(_cabs(w1), _cabs(w2)), _cabs(w3))
        d12, d13, d23 = _cabs(w1 - w2), _cabs(w1 - w3), _cabs(w2 - w3)
        sep = np.minimum(np.minimum(d12, d13), d23)
        diam = np.maximum(np.maximum(d12, d13), d23)
        band = EQ_TOL * diam

        s = w1 + w2 + w3
        m = _cquot(s, 3.0)
        u1, u2, u3 = w1 - m, w2 - m, w3 - m
        q = (_cmul(u1, u1) + _cmul(u2, u2) + _cmul(u3, u3)
             - _cmul(u1, u2) - _cmul(u1, u3) - _cmul(u2, u3))
        coincident = _cabs(q) <= _COINCIDENCE * diam * diam
        r = _csqrt(q)
        z1 = np.where(coincident, m, _cquot(s - r, 3.0))
        z2 = np.where(coincident, m, _cquot(s + r, 3.0))

        failed = (  # in order_roots's order, one per GATE_REASONS bit
            mag > MAX_ROOT_MAGNITUDE,
            sep <= band,
            diam < MIN_ROOT_DIAMETER,
            sep / mag < MIN_SEPARATION_RATIO,
            (w2.real - w1.real <= band) | (w3.real - w2.real <= band),
            ~coincident & (z2.real - z1.real <= band),
        )
    reasons = np.zeros(len(ws), dtype=np.uint16)
    for k in reversed(range(len(failed))):  # the first failing check wins
        reasons[failed[k]] = 1 << k
    table = np.empty(len(ws), dtype=GATE_TABLE)
    for name, column in zip(GATE_TABLE.names, (w1, w2, w3, z1, z2, coincident)):
        table[name] = column
    return table, reasons


def normalize(c: OrderedCubic) -> NormalizedCubic:
    """Translate so that w1 + w3 = 0; the ratio vector is unchanged."""
    offset = (c.w1 + c.w3) / 2.0
    w2n = c.w2 - offset
    w3n = c.w3 - offset
    return NormalizedCubic(w2n=w2n, w3n=w3n, offset=offset, w=w2n / w3n)


def normalize_array(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w2n, w3n) of normalize on each row of an order_roots_array table,
    bit for bit."""
    offset = _cquot(table["w1"] + table["w3"], 2.0)
    return table["w2"] - offset, table["w3"] - offset


def assess_admissibility(w2n: complex, w3n: complex) -> AdmissibilityReport:
    """Check whether the w-plane closed forms apply to the pair (w2n, w3n).

    Conditions (reason tags in parentheses):
      * 0 < Re w3n                            (w3-real-part-not-positive)
      * Re w2n < Re w3n                       (ordering-w2-w3)
      * -Re w3n < Re w2n                      (ordering-w1-w2)
      * w2n + w3n != 0                        (w2-plus-w3-zero)
      * off the rays: principal_sqrt(3 w3n^2 + w2n^2)
          == w3n * principal_sqrt(3 + w^2)    (branch-incoherent)
      * on the open rays: Im w3n != 0         (boundary-real-w3)

    On the rays (on_boundary = True, the kernel._on_rays band) the ratio
    comes from the boundary formula with a side chosen by the sign of
    Im w3n. Off that band 3 + w^2 stays off the branch cut, so no cut
    condition is needed there. Bands on w2n and w3n are EQ_TOL * |w3n|.
    """
    w2n = require_finite(w2n, "w2n")
    w3n = require_finite(w3n, "w3n")
    reasons: list[str] = []
    band = EQ_TOL * abs(w3n)

    if w3n.real <= band:
        reasons.append("w3-real-part-not-positive")
    if w3n.real - w2n.real <= band:
        reasons.append("ordering-w2-w3")
    if w2n.real + w3n.real <= band:
        reasons.append("ordering-w1-w2")
    if abs(w2n + w3n) <= band:
        reasons.append("w2-plus-w3-zero")
    if w3n == 0:
        # w cannot even be formed; the first reason already fired.
        return AdmissibilityReport(False, False, tuple(reasons))

    w = w2n / w3n
    d = 3.0 + w * w
    on_boundary = _on_rays(w)

    if on_boundary:
        if abs(d) > EQ_TOL and abs(w3n.imag) <= band:
            # real w3 on the open rays: critical points get equal real parts
            reasons.append("boundary-real-w3")
    else:
        q = 3.0 * w3n * w3n + w2n * w2n
        big = max(abs(w2n), abs(w3n))
        if abs(q) > _COINCIDENCE * big * big:
            rq = principal_sqrt(q)
            if abs(rq - w3n * principal_sqrt(d)) >= abs(rq):
                reasons.append("branch-incoherent")

    return AdmissibilityReport(not reasons, on_boundary, tuple(reasons))


def admissibility_mask(w2n, w3n) -> tuple[np.ndarray, np.ndarray]:
    """assess_admissibility on complex arrays, bit for bit.

    Returns (reasons, on_boundary): reasons holds the GATE_REASONS bits of
    the tags the report lists, so 0 marks an admissible pair. Raises
    ValueError on a non-finite component, as assess_admissibility does.
    """
    w2n = np.asarray(w2n, dtype=complex)
    w3n = np.asarray(w3n, dtype=complex)
    if not (np.isfinite(w2n).all() and np.isfinite(w3n).all()):
        raise ValueError("w2n and w3n must have finite components")
    # rows with w3n == 0 divide by zero; they keep only the first four tags
    with np.errstate(all="ignore"):
        band = EQ_TOL * _cabs(w3n)
        formed = w3n != 0
        w = _cquot(w2n, w3n)
        d = 3.0 + _cmul(w, w)
        on_boundary = formed & _on_rays(w)
        q = _cmul(_cmul(3.0, w3n), w3n) + _cmul(w2n, w2n)
        big = np.maximum(_cabs(w2n), _cabs(w3n))
        rq = _csqrt(q)
        wraps = (_cabs(q) > _COINCIDENCE * big * big) & (
            _cabs(rq - _cmul(w3n, _csqrt(d))) >= _cabs(rq))
        tags = {
            "w3-real-part-not-positive": w3n.real <= band,
            "ordering-w2-w3": w3n.real - w2n.real <= band,
            "ordering-w1-w2": w2n.real + w3n.real <= band,
            "w2-plus-w3-zero": _cabs(w2n + w3n) <= band,
            "boundary-real-w3": on_boundary & (_cabs(d) > EQ_TOL) & (np.abs(w3n.imag) <= band),
            "branch-incoherent": formed & ~on_boundary & wraps,
        }
    reasons = np.zeros(w3n.shape, dtype=np.uint16)
    for tag, hit in tags.items():
        reasons[hit] |= _BIT[tag]
    return reasons, on_boundary


def _diameter(w1, w2, w3, modulus, maximum):
    """The largest pairwise distance of the roots: complex scalars (modulus =
    abs, maximum = max) or complex arrays (kernel._cabs, np.maximum), with
    the same bits."""
    return maximum(maximum(modulus(w1 - w2), modulus(w1 - w3)), modulus(w2 - w3))


def _collinear(w1, w2, w3, modulus, maximum):
    """Whether the root triangle's area is at most EQ_TOL * diameter^2; on
    scalars or arrays as _diameter. The area |Im((w2 - w1) conj(w3 - w1))| / 2
    is spelled on real and imaginary parts, as CPython's complex product
    forms that imaginary part, so arrays get the scalar bits."""
    ax, ay = w2.real - w1.real, w2.imag - w1.imag
    bx, by = w3.real - w1.real, w3.imag - w1.imag
    area = abs(ay * bx - ax * by) / 2.0
    diam = _diameter(w1, w2, w3, modulus, maximum)
    return area <= EQ_TOL * diam * diam


def classify_configuration(c: OrderedCubic) -> Configuration:
    """Equilateral, collinear, or generic root triangle.

    Equilateral means the gate's double critical point (c.coincident), the
    shape on which T4 puts sigma1 = sigma2; collinear means a triangle area
    of at most EQ_TOL * diameter^2. Both decisions are scale-free.
    """
    if c.coincident:
        return Configuration.EQUILATERAL
    if _collinear(c.w1, c.w2, c.w3, abs, max):
        return Configuration.COLLINEAR
    return Configuration.GENERIC
