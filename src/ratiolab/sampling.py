"""Deterministic random configuration generators.

All generators draw from a caller-supplied numpy Generator, so identical
seeds give identical samples.

sample_ordered_cubics draws its candidates as numpy arrays, one block of
1024 at a time. Per candidate it draws a mix flag (a ray sample with
probability 0.2), a log-uniform positive scale factor in [1e-3, 1e3]
(ratios are invariant under positive scaling), an offset proportional to
that scale, and Re w3 in [0, 10) with density proportional to Re w3.
Interior candidates add Im w3 in [-10, 10], Re w2 uniform on
(-Re w3, Re w3) and Im w2 in [-10, 10]: uniform on the box
[0, 10) x [-10, 10] x [-10, 10]^2, restricted to the slice |Re w2| < Re w3
that holds every admissible pair. Ray candidates are built directly as
w2 = i t w3: |t| is log-uniform in [sqrt(3)(1 + 1e-6), 1e3] with a random
sign, and |Im w3| is uniform on [1e-3 b, b) with b = (Re w3 - 1e-4) / |t|.
Below b the roots stay ordered (|Re w2| = |t Im w3| < Re w3 - 1e-4); the
floor keeps apart the critical points' real parts, which meet at
Im w3 = 0. There is no rejection loop and no fixed floor on the components
of w3, so ray samples reach |t| = 1e3.

The cheap filters (real-part ordering with a gap of 1e-4, |w2 +- w3| >= 1e-4
at pair scale, |w -+ 1| >= 1e-6) run as array masks. The surviving
candidates are scaled and translated, and the whole block goes through the
array gate (order_roots_array, normalize_array, admissibility_mask), which
decides each row as the scalar order_roots and assess_admissibility would;
a row is kept when it is admissible, on the rays exactly when it was drawn
as a ray sample. The T1-T3 pass reads these gate tables directly, and
sample_ordered_cubics yields an OrderedCubic per row. Blocks do not depend
on n, so a shorter run is a prefix of a longer one with the same seed.

The four scalar samplers (hyperbolic, collinear, equilateral and
near-equilateral) each draw root triples one at a time from a private
candidate generator, the two equilateral ones from the same generator, and
pass them through _gated: it yields order_roots of each triple and skips
the triples order_roots rejects. n <= 0 yields nothing and draws nothing.

The margins keep every accepted configuration far enough from the
degenerate sets that the documented comparison tolerances hold with
headroom.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator

import numpy as np

from .cubic import (
    OrderedCubic,
    admissibility_mask,
    normalize_array,
    order_roots,
    order_roots_array,
)
from .errors import UndefinedRatioError
from .kernel import SQRT3

__all__ = [
    "sample_ordered_cubics",
    "sample_hyperbolic",
    "sample_collinear",
    "sample_equilateral",
    "sample_near_equilateral",
]

_BLOCK = 1024               # candidates per block; a block stays live while it is consumed
_GAP = 1e-4                 # real-part and |w2 +- w3| margin at pair scale
_W_MARGIN = 1e-6            # keep-away band around w = +-1
_RAY_FLOOR = 1e-3           # least |Im w3| of a ray sample, as a share of its band
_BOUNDARY_FRACTION = 0.2    # share of ray samples in sample_ordered_cubics
_T_MAX = 1e3                # largest |t| of a ray sample
_SCALE_SPAN = (1e-3, 1e3)   # range of the log-uniform positive scale factor
_DELTA_SPAN = (1e-4, 1e-1)  # range of the log-uniform near-equilateral shift


def _signs(rng: np.random.Generator, size: int) -> np.ndarray:
    return np.where(rng.uniform(size=size) < 0.5, 1.0, -1.0)


def _candidate_block(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One block of candidates: the (k, 3) root triples that pass the
    array masks, and whether each was drawn as a ray sample."""
    on_ray = rng.uniform(size=_BLOCK) < _BOUNDARY_FRACTION
    s = np.exp(rng.uniform(math.log(_SCALE_SPAN[0]), math.log(_SCALE_SPAN[1]), _BLOCK))
    off = (rng.uniform(-5.0, 5.0, _BLOCK) + 1j * rng.uniform(-5.0, 5.0, _BLOCK)) * s

    # Re w3 has density proportional to Re w3 on [0, 10): the marginal of the
    # box slice |Re w2| < Re w3, which holds every admissible interior pair.
    re3 = 10.0 * np.sqrt(rng.uniform(0.0, 1.0, _BLOCK))
    im3 = np.empty(_BLOCK)
    w2 = np.empty(_BLOCK, dtype=complex)

    inner = ~on_ray
    k = int(inner.sum())
    im3[inner] = rng.uniform(-10.0, 10.0, k)
    w2[inner] = re3[inner] * rng.uniform(-1.0, 1.0, k) + 1j * rng.uniform(-10.0, 10.0, k)

    r = _BLOCK - k
    t = _signs(rng, r) * np.exp(
        rng.uniform(math.log(SQRT3 * (1.0 + 1e-6)), math.log(_T_MAX), r))
    band = (re3[on_ray] - _GAP) / np.abs(t)
    im3[on_ray] = _signs(rng, r) * band * rng.uniform(_RAY_FLOOR, 1.0, r)
    w3 = re3 + 1j * im3
    w2[on_ray] = 1j * t * w3[on_ray]

    re2 = w2.real
    w = w2 / w3
    keep = (
        (-re3 + _GAP < re2) & (re2 < re3 - _GAP)
        & (np.abs(w2 + w3) >= _GAP) & (np.abs(w3 - w2) >= _GAP)
        & (np.abs(w + 1.0) >= _W_MARGIN) & (np.abs(w - 1.0) >= _W_MARGIN)
    )
    s, off, w2, w3 = s[keep], off[keep], w2[keep], w3[keep]
    roots = np.stack((-w3 * s + off, w2 * s + off, w3 * s + off), axis=1)
    return roots, on_ray[keep]


def _admissible_blocks(n: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """GATE_TABLE blocks of admissible configurations, n rows in all: the
    rows of each candidate block that pass the array gate, on the rays
    exactly when drawn as ray samples."""
    produced = 0
    while produced < n:
        roots, ray = _candidate_block(rng)
        table, reasons = order_roots_array(roots)
        table, ray = table[reasons == 0], ray[reasons == 0]
        tags, on_boundary = admissibility_mask(*normalize_array(table))
        block = table[(tags == 0) & (on_boundary == ray)][: n - produced]
        produced += len(block)
        yield block


def sample_ordered_cubics(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n admissible configurations, mixing interior and ray samples."""
    for block in _admissible_blocks(n, rng):
        for row in block.tolist():
            yield OrderedCubic(*row)


def _gated(candidates: Iterator[tuple]) -> Iterator[OrderedCubic]:
    """order_roots of each candidate root triple; triples it rejects are skipped."""
    for roots in candidates:
        try:
            c = order_roots(*roots)
        except UndefinedRatioError:
            continue
        yield c


def _hyperbolic_roots(rng: np.random.Generator) -> Iterator[tuple]:
    while True:
        xs = np.sort(rng.uniform(-10.0, 10.0, size=3))
        if xs[1] - xs[0] < 1e-3 or xs[2] - xs[1] < 1e-3:
            continue
        s = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        off = rng.uniform(-5.0, 5.0) * s
        yield xs[0] * s + off, xs[1] * s + off, xs[2] * s + off


def sample_hyperbolic(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n all-real-root configurations with comfortably distinct roots."""
    yield from islice(_gated(_hyperbolic_roots(rng)), max(n, 0))


def _collinear_roots(rng: np.random.Generator) -> Iterator[tuple]:
    while True:
        xs = np.sort(rng.uniform(-5.0, 5.0, size=3))
        if xs[1] - xs[0] < 1e-3 or xs[2] - xs[1] < 1e-3:
            continue
        ang = rng.uniform(-1.2, 1.2)  # |angle| < pi/2 - margin
        d = complex(math.cos(ang), math.sin(ang))
        off = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        yield off + d * xs[0], off + d * xs[1], off + d * xs[2]


def sample_collinear(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n collinear (generally non-real) configurations.

    Roots are c + d * x_k for sorted reals x_k and a direction d kept away
    from vertical so the real parts stay distinct.
    """
    yield from islice(_gated(_collinear_roots(rng)), max(n, 0))


def _equilateral_roots(rng: np.random.Generator, near: bool) -> Iterator[tuple]:
    """Equilateral triples (w = +-i sqrt(3)); when near, w2 moves by a
    log-uniform delta * w3, which shifts w parallel to the real axis."""
    while True:
        re3 = rng.uniform(0.5, 5.0)
        im3 = rng.uniform(-1.0, 1.0) * re3 / (2.0 * SQRT3)
        w3 = complex(re3, im3)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        w2 = sign * SQRT3 * 1j * w3
        if near:
            delta = math.exp(rng.uniform(math.log(_DELTA_SPAN[0]), math.log(_DELTA_SPAN[1])))
            w2 = w2 + delta * w3
        off = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        yield -w3 + off, w2 + off, w3 + off


def sample_equilateral(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n equilateral configurations (w = +-i sqrt(3), no vertical side)."""
    yield from islice(_gated(_equilateral_roots(rng, near=False)), max(n, 0))


def sample_near_equilateral(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n slightly perturbed equilateral configurations (never exactly
    equilateral: w moves off +-i sqrt(3) parallel to the real axis)."""
    yield from islice(_gated(_equilateral_roots(rng, near=True)), max(n, 0))
