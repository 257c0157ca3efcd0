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
on whole blocks of configurations, for the sampler: each gate step is one
body that runs on Python complex values or on numpy arrays through kernel's
ops record, so every row gets the scalar decision and the scalar values to
the last bit.
"""

from __future__ import annotations

import enum
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import (
    CriticalRealPartsEqualError,
    RootRealPartsEqualError,
    RootsNotDistinctError,
    ScaleGuardError,
    UndefinedRatioError,
)
from .kernel import (
    _ARRAY, _ONE, _SCALAR, _THREE, _TWO, EQ_TOL, MACHINE_EPS, _finite, _on_rays, _radicand,
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


class OrderedCubic(NamedTuple):
    """Three distinct roots with Re w1 < Re w2 < Re w3 and labeled critical
    points (z1 == z2 in the coincident case, else Re z1 < Re z2). A record
    is a GATE_TABLE row: it equals the plain tuple of its fields."""

    w1: complex
    w2: complex
    w3: complex
    z1: complex
    z2: complex
    coincident: bool

    @property
    def roots(self) -> tuple[complex, complex, complex]:
        return (self.w1, self.w2, self.w3)


class NormalizedCubic(NamedTuple):
    """Translated configuration with w1n = -w3n; offset restores the original."""

    w2n: complex
    w3n: complex
    offset: complex
    w: complex


class AdmissibilityReport(NamedTuple):
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
_ORDER_CHECKS = 6  # order_roots's checks at the head of GATE_REASONS
_TAGS = GATE_REASONS[_ORDER_CHECKS:]

#: Row type of order_roots_array's table: the fields of OrderedCubic.
GATE_TABLE = np.dtype(
    [(name, complex) for name in ("w1", "w2", "w3", "z1", "z2")] + [("coincident", bool)],
    align=True,
)


def _critical_points(ops, w1, w2, w3):
    """The centroid m, the radicand q and the critical points
    (s -+ sqrt(q)) / 3 of the roots, s their sum. q is formed on the centred
    roots u = w - m, where a far-off centroid cannot cancel the triangle's
    shape away, with its products spelled out on parts as CPython forms
    them."""
    s = w1 + w2 + w3
    m = ops.quot(s, _THREE)
    u1, u2, u3 = w1 - m, w2 - m, w3 - m
    a1, b1, a2, b2, a3, b3 = u1.real, u1.imag, u2.real, u2.imag, u3.real, u3.imag
    q = ops.complex(
        (a1 * a1 - b1 * b1) + (a2 * a2 - b2 * b2) + (a3 * a3 - b3 * b3)
        - (a1 * a2 - b1 * b2) - (a1 * a3 - b1 * b3) - (a2 * a3 - b2 * b3),
        # + 0.0 turns a -0.0 into +0.0, so that the root is principal_sqrt's
        0.0 + ((a1 * b1 + b1 * a1) + (a2 * b2 + b2 * a2) + (a3 * b3 + b3 * a3)
               - (a1 * b2 + b1 * a2) - (a1 * b3 + b1 * a3) - (a2 * b3 + b2 * a3)),
    )
    r = ops.sqrt(q)
    return m, q, ops.quot(s - r, _THREE), ops.quot(s + r, _THREE)


def critical_points_direct(
    w1: complex, w2: complex, w3: complex
) -> tuple[complex, complex]:
    """Both derivative roots from the radical formula, unlabeled.

    Returned as (minus-branch, plus-branch); each satisfies
    p'(z) = 3 z^2 - 2 (w1+w2+w3) z + (w1w2 + w1w3 + w2w3) = 0.
    """
    roots = _finite("roots", complex(w1), complex(w2), complex(w3))
    _, _, z1, z2 = _critical_points(_SCALAR, *roots)
    return z1, z2


def critical_points_bruteforce(
    w1: complex, w2: complex, w3: complex
) -> tuple[complex, complex]:
    """Derivative roots via the plain quadratic formula, sorted by real part.

    Independent of the principal-branch convention: both candidates are
    formed and sorted, so the branch choice inside the radical cancels.
    Kept separate from critical_points_direct as a cross-check route.
    """
    w1, w2, w3 = _finite("roots", complex(w1), complex(w2), complex(w3))
    e1 = w1 + w2 + w3
    e2 = w1 * w2 + w1 * w3 + w2 * w3
    disc = e1 * e1 - 3.0 * e2
    r = disc ** 0.5
    za = (e1 - r) / 3.0
    zb = (e1 + r) / 3.0
    if (za.real, za.imag) <= (zb.real, zb.imag):
        return (za, zb)
    return (zb, za)


def _order(ops, w1, w2, w3):
    """order_roots on roots sorted by real part: the bands (mag, sep, diam),
    the outcome of each of its checks in GATE_REASONS order, and the
    critical points z1, z2 with whether they coincide (then both are the
    centroid). Every step runs, also past a failing check, and none raises:
    mag, the one divisor that can be 0, is 0 only where roots-not-distinct
    holds, and there 1 stands in for it."""
    mod = ops.modulus
    mag = ops.maximum(mod(w1), mod(w2), mod(w3))
    d12, d13, d23 = mod(w1 - w2), mod(w1 - w3), mod(w2 - w3)
    sep, diam = ops.minimum(d12, d13, d23), ops.maximum(d12, d13, d23)
    band = EQ_TOL * diam
    m, q, z1, z2 = _critical_points(ops, w1, w2, w3)
    coincident = mod(q) <= _COINCIDENCE * diam * diam
    failed = (
        mag > MAX_ROOT_MAGNITUDE,
        sep <= band,
        diam < MIN_ROOT_DIAMETER,
        sep / (mag + (mag == 0.0)) < MIN_SEPARATION_RATIO,
        (w2.real - w1.real <= band) | (w3.real - w2.real <= band),
        ops.where(coincident, False, z2.real - z1.real <= band),
    )
    z1, z2 = ops.select(coincident, (m, m), (z1, z2))
    return (mag, sep, diam), failed, z1, z2, coincident


def _order_error(k: int, mag: float, sep: float, diam: float) -> UndefinedRatioError:
    """The error order_roots raises when its check k fails."""
    return (
        lambda: ScaleGuardError(f"root magnitude {mag:.3g} exceeds {MAX_ROOT_MAGNITUDE:.0e}"),
        lambda: RootsNotDistinctError("two roots coincide"),
        lambda: ScaleGuardError(f"root diameter {diam:.3g} below {MIN_ROOT_DIAMETER:.0e}"),
        lambda: ScaleGuardError(
            f"root separation ratio {sep / mag:.3g} below {MIN_SEPARATION_RATIO:.0e}"),
        lambda: RootRealPartsEqualError("two roots have equal real parts"),
        lambda: CriticalRealPartsEqualError("critical points have equal real parts"),
    )[k]()


def order_roots(r1: complex, r2: complex, r3: complex) -> OrderedCubic:
    """Sort roots by real part and attach labeled critical points.

    Raises RootsNotDistinctError, RootRealPartsEqualError,
    CriticalRealPartsEqualError, or ScaleGuardError when the ratio vector
    is undefined for the input. Every band is EQ_TOL times the diameter of
    the root triangle.
    """
    roots = _finite("roots", complex(r1), complex(r2), complex(r3))
    w1, w2, w3 = sorted(roots, key=lambda z: z.real)
    bands, failed, z1, z2, coincident = _order(_SCALAR, w1, w2, w3)
    if True in failed:
        raise _order_error(failed.index(True), *bands)
    return OrderedCubic(w1, w2, w3, z1, z2, coincident)


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
    # rejected rows may overflow or divide by zero; their values are unused
    with np.errstate(all="ignore"):
        _, failed, z1, z2, coincident = _order(_ARRAY, *ws.T)
    reasons = np.zeros(len(ws), dtype=np.uint16)
    for k in reversed(range(len(failed))):  # the first failing check wins
        reasons[failed[k]] = 1 << k
    table = np.empty(len(ws), dtype=GATE_TABLE)
    for name, column in zip(GATE_TABLE.names, (*ws.T, z1, z2, coincident)):
        table[name] = column
    return table, reasons


def _translated(ops, w1, w2, w3):
    """The offset (w1 + w3) / 2 and the translated roots w2n, w3n."""
    offset = ops.quot(w1 + w3, _TWO)
    return offset, w2 - offset, w3 - offset


def normalize(c: OrderedCubic) -> NormalizedCubic:
    """Translate so that w1 + w3 = 0; the ratio vector is unchanged."""
    offset, w2n, w3n = _translated(_SCALAR, c.w1, c.w2, c.w3)
    return NormalizedCubic(w2n=w2n, w3n=w3n, offset=offset, w=w2n / w3n)


def normalize_array(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w2n, w3n) of normalize on each row of an order_roots_array table,
    bit for bit."""
    _, w2n, w3n = _translated(_ARRAY, table["w1"], table["w2"], table["w3"])
    return w2n, w3n


def _admissibility(ops, w2n, w3n):
    """assess_admissibility on complex scalars or arrays: the outcome of
    each of its tags in GATE_REASONS order, and whether w lies on the rays.
    Where w3n == 0, w cannot be formed: the division is by 1 instead, and
    only the first four tags can hold."""
    x3, y3 = w3n.real, w3n.imag
    band = EQ_TOL * ops.modulus(w3n)
    formed = w3n != 0
    w = ops.quot(w2n, ops.where(formed, w3n, _ONE))
    d = _radicand(ops, w)
    on_rays = formed & _on_rays(w)
    # w3n R(w) is a square root of q = 3 w3n^2 + w2n^2; the pair is coherent
    # when it is the principal one
    r = ops.sqrt(d)
    px, py = x3 * r.real - y3 * r.imag, x3 * r.imag + y3 * r.real
    tags = (
        x3 <= band,
        x3 - w2n.real <= band,
        w2n.real + x3 <= band,
        ops.modulus(w2n + w3n) <= band,
        # real w3 on the open rays: critical points get equal real parts
        on_rays & (ops.modulus(d) > EQ_TOL) & (abs(y3) <= band),
        formed & ops.where(on_rays, False, (px < 0.0) | ((px == 0.0) & (py < 0.0))),
    )
    return tags, on_rays


def assess_admissibility(w2n: complex, w3n: complex) -> AdmissibilityReport:
    """Check whether the w-plane closed forms apply to the pair (w2n, w3n).

    Conditions (reason tags in parentheses):
      * 0 < Re w3n                            (w3-real-part-not-positive)
      * Re w2n < Re w3n                       (ordering-w2-w3)
      * -Re w3n < Re w2n                      (ordering-w1-w2)
      * w2n + w3n != 0                        (w2-plus-w3-zero)
      * off the rays: w3n * principal_sqrt(3 + w^2), a square root of
          3 w3n^2 + w2n^2, is its principal root: Re > 0, or Re = 0 and
          Im >= 0                             (branch-incoherent)
      * on the open rays: Im w3n != 0         (boundary-real-w3)

    On the rays (on_boundary = True, the kernel._on_rays band) the ratio
    comes from the boundary formula with a side chosen by the sign of
    Im w3n. Off that band 3 + w^2 stays off the branch cut, so no cut
    condition is needed there. Bands on w2n and w3n are EQ_TOL * |w3n|.
    """
    w2n, w3n = _finite("w2n and w3n", complex(w2n), complex(w3n))
    tags, on_boundary = _admissibility(_SCALAR, w2n, w3n)
    reasons = tuple(compress(_TAGS, tags)) if True in tags else ()
    return AdmissibilityReport(not reasons, on_boundary, reasons)


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
        tags, on_boundary = _admissibility(_ARRAY, w2n, w3n)
    reasons = np.zeros(w3n.shape, dtype=np.uint16)
    for k, hit in enumerate(tags, _ORDER_CHECKS):
        reasons[hit] |= 1 << k
    return reasons, on_boundary


def _diameter(ops, w1, w2, w3):
    """The largest pairwise distance of the roots: complex scalars with
    kernel._SCALAR or complex arrays with kernel._ARRAY, with the same bits."""
    return ops.maximum(ops.modulus(w1 - w2), ops.modulus(w1 - w3), ops.modulus(w2 - w3))


def _collinear(ops, w1, w2, w3):
    """Whether the root triangle's area is at most EQ_TOL * diameter^2; on
    scalars or arrays as _diameter. The area |Im((w2 - w1) conj(w3 - w1))| / 2
    is spelled on real and imaginary parts, as CPython's complex product
    forms that imaginary part."""
    ax, ay = w2.real - w1.real, w2.imag - w1.imag
    bx, by = w3.real - w1.real, w3.imag - w1.imag
    area = abs(ay * bx - ax * by) / 2.0
    diam = _diameter(ops, w1, w2, w3)
    return area <= EQ_TOL * diam * diam


def classify_configuration(c: OrderedCubic) -> Configuration:
    """Equilateral, collinear, or generic root triangle.

    Equilateral means the gate's double critical point (c.coincident), the
    shape on which T4 puts sigma1 = sigma2; collinear means a triangle area
    of at most EQ_TOL * diameter^2. Both decisions are scale-free.
    """
    if c.coincident:
        return Configuration.EQUILATERAL
    if _collinear(_SCALAR, c.w1, c.w2, c.w3):
        return Configuration.COLLINEAR
    return Configuration.GENERIC
