"""Deterministic random configuration generators.

All generators draw from a caller-supplied numpy Generator, so identical
seeds give identical samples. Admissible interior pairs are produced by
rejection: w3 from Re in (0, 10], Im in [-10, 10], w2 from the square
[-10, 10]^2, gatekept by assess_admissibility. Ray configurations are built
separately from (t, w3) with w2 = i t w3. Each accepted pair is then scaled
by a log-uniform positive factor in [1e-3, 1e3] (ratios are invariant under
positive scaling) and translated by an offset proportional to that scale.

Margins enforced during rejection (|w -+ 1| >= 1e-6, real-part gaps and
|w2 + w3| >= 1e-4 at pair scale, w3 components >= 0.05 for ray samples)
keep every accepted configuration far enough from the degenerate sets that
the documented comparison tolerances hold with headroom.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .cubic import OrderedCubic, assess_admissibility, order_roots
from .errors import UndefinedRatioError
from .kernel import SQRT3

__all__ = [
    "sample_ordered_cubics",
    "sample_hyperbolic",
    "sample_collinear",
    "sample_equilateral",
    "sample_near_equilateral",
]

_GAP = 1e-4                 # real-part and |w2 + w3| margin at pair scale
_W_MARGIN = 1e-6            # keep-away band around w = +-1
_RAY_COMPONENT = 0.05
_BOUNDARY_FRACTION = 0.2    # share of ray samples in sample_ordered_cubics
_T_MAX = 1e3                # largest |t| of a ray sample
_SCALE_SPAN = (1e-3, 1e3)   # range of the log-uniform positive scale factor
_DELTA_SPAN = (1e-4, 1e-1)  # range of the log-uniform near-equilateral shift


def _scale_offset(rng: np.random.Generator) -> tuple[float, complex]:
    s = math.exp(rng.uniform(math.log(_SCALE_SPAN[0]), math.log(_SCALE_SPAN[1])))
    off = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) * s
    return s, off


def _interior_pair(rng: np.random.Generator):
    while True:
        w3 = complex(rng.uniform(0.0, 10.0), rng.uniform(-10.0, 10.0))
        w2 = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        if w3.real < _GAP:
            continue
        if not (-w3.real + _GAP < w2.real < w3.real - _GAP):
            continue
        if abs(w2 + w3) < _GAP or abs(w3 - w2) < _GAP:
            continue
        w = w2 / w3
        if abs(w + 1.0) < _W_MARGIN or abs(w - 1.0) < _W_MARGIN:
            continue
        report = assess_admissibility(w2, w3)
        if report.admissible and not report.on_boundary:
            return w2, w3


def _ray_pair(rng: np.random.Generator):
    while True:
        t = math.exp(rng.uniform(math.log(SQRT3 * (1.0 + 1e-6)), math.log(_T_MAX)))
        if rng.uniform() < 0.5:
            t = -t
        re3 = rng.uniform(_RAY_COMPONENT, 10.0)
        im3 = rng.uniform(_RAY_COMPONENT, 10.0)
        if rng.uniform() < 0.5:
            im3 = -im3
        w3 = complex(re3, im3)
        w2 = 1j * t * w3
        if not (-w3.real + _GAP < w2.real < w3.real - _GAP):
            continue
        report = assess_admissibility(w2, w3)
        if report.admissible and report.on_boundary:
            return w2, w3


def sample_ordered_cubics(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n admissible configurations, mixing interior and ray samples."""
    produced = 0
    while produced < n:
        on_ray = rng.uniform() < _BOUNDARY_FRACTION
        if on_ray:
            w2, w3 = _ray_pair(rng)
        else:
            w2, w3 = _interior_pair(rng)
        s, off = _scale_offset(rng)
        try:
            c = order_roots(-w3 * s + off, w2 * s + off, w3 * s + off)
        except UndefinedRatioError:
            continue
        produced += 1
        yield c


def sample_hyperbolic(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n all-real-root configurations with comfortably distinct roots."""
    produced = 0
    while produced < n:
        xs = np.sort(rng.uniform(-10.0, 10.0, size=3))
        if xs[1] - xs[0] < 1e-3 or xs[2] - xs[1] < 1e-3:
            continue
        s = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        off = rng.uniform(-5.0, 5.0) * s
        try:
            c = order_roots(xs[0] * s + off, xs[1] * s + off, xs[2] * s + off)
        except UndefinedRatioError:
            continue
        produced += 1
        yield c


def sample_collinear(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n collinear (generally non-real) configurations.

    Roots are c + d * x_k for sorted reals x_k and a direction d kept away
    from vertical so the real parts stay distinct.
    """
    produced = 0
    while produced < n:
        xs = np.sort(rng.uniform(-5.0, 5.0, size=3))
        if xs[1] - xs[0] < 1e-3 or xs[2] - xs[1] < 1e-3:
            continue
        ang = rng.uniform(-1.2, 1.2)  # |angle| < pi/2 - margin
        d = complex(math.cos(ang), math.sin(ang))
        off = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        try:
            c = order_roots(off + d * xs[0], off + d * xs[1], off + d * xs[2])
        except UndefinedRatioError:
            continue
        produced += 1
        yield c


def _equilateral_base(rng: np.random.Generator) -> tuple[complex, complex]:
    re3 = rng.uniform(0.5, 5.0)
    im3 = rng.uniform(-1.0, 1.0) * re3 / (2.0 * SQRT3)
    w3 = complex(re3, im3)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return w3, sign * SQRT3 * 1j * w3


def sample_equilateral(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n equilateral configurations (w = +-i sqrt(3), no vertical side)."""
    produced = 0
    while produced < n:
        w3, w2 = _equilateral_base(rng)
        off = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        try:
            c = order_roots(-w3 + off, w2 + off, w3 + off)
        except UndefinedRatioError:
            continue
        produced += 1
        yield c


def sample_near_equilateral(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n slightly perturbed equilateral configurations (never exactly
    equilateral: w moves off +-i sqrt(3) parallel to the real axis)."""
    produced = 0
    while produced < n:
        w3, w2 = _equilateral_base(rng)
        delta = math.exp(rng.uniform(math.log(_DELTA_SPAN[0]), math.log(_DELTA_SPAN[1])))
        w2 = w2 + delta * w3
        off = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        try:
            c = order_roots(-w3 + off, w2 + off, w3 + off)
        except UndefinedRatioError:
            continue
        produced += 1
        yield c
