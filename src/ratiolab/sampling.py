"""Deterministic random configuration generators.

All generators draw from a caller-supplied numpy Generator, so identical
seeds give identical samples. Each draws its candidates as numpy arrays,
one block of 1024 at a time, with bounds and gap filters as masks. The
whole block goes through the array gate order_roots_array, which decides
each row as the scalar order_roots would, and the sampler yields the kept
rows as OrderedCubic records, named tuples of a row's fields, until there
are n; n <= 0 draws nothing, and an n that is not a Python or numpy
integer raises BadParameterError. Blocks do not depend on n, so a shorter
run is a prefix of a longer one.

sample_ordered_cubics draws per candidate a mix flag (a ray sample with
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
of w3, so ray samples reach |t| = 1e3. Its cheap filters (real-part
ordering with a gap of 1e-4, |w2 +- w3| >= 1e-4 at pair scale, which
keeps w over 7e-6 from +-1) run before scaling and translation, and its
gate table also goes through normalize_array and admissibility_mask: a
row is kept when it is admissible, on the rays exactly when it was drawn
as a ray sample.

Each sampler's draw of one gated block is a private function
(_admissible_block, _hyperbolic_block, _collinear_block,
_equilateral_block, _near_equilateral_block), and _blocks(n, rng, draw)
yields its GATE_TABLE blocks, n rows in all. The claim runs read those
blocks directly, one at a time: T1-T3 the admissible ones, T4 the
equilateral and near-equilateral ones, T5 the collinear ones and HYP the
hyperbolic ones. Only the random configurations of T4 and T5 go through
the public sample_ordered_cubics records.

The margins keep every accepted configuration far enough from the
degenerate sets that the documented comparison tolerances hold with
headroom.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .cubic import OrderedCubic, admissibility_mask, normalize_array, order_roots_array
from .errors import BadParameterError
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
_RAY_FLOOR = 1e-3           # least |Im w3| of a ray sample, as a share of its band
_BOUNDARY_FRACTION = 0.2    # share of ray samples in sample_ordered_cubics
_T_MAX = 1e3                # largest |t| of a ray sample
_SCALE_SPAN = (1e-3, 1e3)   # range of the log-uniform positive scale factor
_DELTA_SPAN = (1e-4, 1e-1)  # range of the log-uniform near-equilateral shift
_REAL_GAP = 1e-3            # least gap of the sorted reals in a hyperbolic or collinear draw


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
    keep = (
        (-re3 + _GAP < re2) & (re2 < re3 - _GAP)
        & (np.abs(w2 + w3) >= _GAP) & (np.abs(w3 - w2) >= _GAP)
    )
    s, off, w2, w3 = s[keep], off[keep], w2[keep], w3[keep]
    roots = np.stack((-w3 * s + off, w2 * s + off, w3 * s + off), axis=1)
    return roots, on_ray[keep]


def _gate(roots: np.ndarray) -> np.ndarray:
    """The GATE_TABLE rows of the (k, 3) root triples that order_roots accepts."""
    table, reasons = order_roots_array(roots)
    return table[reasons == 0]


def _blocks(n: int, rng: np.random.Generator,
            draw: Callable[[np.random.Generator], np.ndarray]) -> Iterator[np.ndarray]:
    """GATE_TABLE blocks of draw(rng), n rows in all: the last block is cut
    short, and n <= 0 draws nothing."""
    produced = 0
    while produced < n:
        block = draw(rng)[: n - produced]
        produced += len(block)
        yield block


def _cubics(n: int, rng: np.random.Generator,
            draw: Callable[[np.random.Generator], np.ndarray]) -> Iterator[OrderedCubic]:
    if not isinstance(n, (int, np.integer)):
        raise BadParameterError(f"the sample count must be an integer, got {n!r}")
    for block in _blocks(n, rng, draw):
        yield from map(OrderedCubic._make, block.tolist())


def _admissible_block(rng: np.random.Generator) -> np.ndarray:
    """The rows of a candidate block that pass the array gate and are
    admissible, on the rays exactly when drawn as ray samples."""
    roots, ray = _candidate_block(rng)
    table, reasons = order_roots_array(roots)
    table, ray = table[reasons == 0], ray[reasons == 0]
    tags, on_boundary = admissibility_mask(*normalize_array(table))
    return table[(tags == 0) & (on_boundary == ray)]


def _admissible_blocks(n: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """GATE_TABLE blocks of admissible configurations, n rows in all."""
    return _blocks(n, rng, _admissible_block)


def sample_ordered_cubics(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n admissible configurations, mixing interior and ray samples."""
    yield from _cubics(n, rng, _admissible_block)


def _sorted_reals(rng: np.random.Generator, half: float) -> tuple[np.ndarray, np.ndarray]:
    """(_BLOCK, 3) rows of sorted uniform reals on [-half, half), and the
    mask of the rows whose neighbours lie at least _REAL_GAP apart."""
    xs = np.sort(rng.uniform(-half, half, (_BLOCK, 3)), axis=1)
    return xs, (np.diff(xs, axis=1) >= _REAL_GAP).all(axis=1)


def _hyperbolic_roots(rng: np.random.Generator) -> np.ndarray:
    xs, keep = _sorted_reals(rng, 10.0)
    s = np.exp(rng.uniform(math.log(_SCALE_SPAN[0]), math.log(_SCALE_SPAN[1]), _BLOCK))
    off = rng.uniform(-5.0, 5.0, _BLOCK) * s
    return (xs * s[:, None] + off[:, None])[keep].astype(complex)


def _hyperbolic_block(rng: np.random.Generator) -> np.ndarray:
    return _gate(_hyperbolic_roots(rng))


def sample_hyperbolic(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n all-real-root configurations with comfortably distinct roots."""
    yield from _cubics(n, rng, _hyperbolic_block)


def _collinear_roots(rng: np.random.Generator) -> np.ndarray:
    xs, keep = _sorted_reals(rng, 5.0)
    d = np.exp(1j * rng.uniform(-1.2, 1.2, _BLOCK))  # |angle| < pi/2 - margin
    off = rng.uniform(-5.0, 5.0, _BLOCK) + 1j * rng.uniform(-5.0, 5.0, _BLOCK)
    return (off[:, None] + d[:, None] * xs)[keep]


def _collinear_block(rng: np.random.Generator) -> np.ndarray:
    return _gate(_collinear_roots(rng))


def sample_collinear(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n collinear (generally non-real) configurations.

    Roots are c + d * x_k for sorted reals x_k and a direction d kept away
    from vertical so the real parts stay distinct.
    """
    yield from _cubics(n, rng, _collinear_block)


def _equilateral_roots(rng: np.random.Generator, near: bool) -> np.ndarray:
    """Equilateral triples (w = +-i sqrt(3)); when near, w2 moves by a
    log-uniform delta * w3, which shifts w parallel to the real axis."""
    re3 = rng.uniform(0.5, 5.0, _BLOCK)
    w3 = re3 + 1j * (rng.uniform(-1.0, 1.0, _BLOCK) * re3 / (2.0 * SQRT3))
    w2 = _signs(rng, _BLOCK) * SQRT3 * 1j * w3
    if near:
        delta = np.exp(rng.uniform(math.log(_DELTA_SPAN[0]), math.log(_DELTA_SPAN[1]), _BLOCK))
        w2 = w2 + delta * w3
    off = rng.uniform(-5.0, 5.0, _BLOCK) + 1j * rng.uniform(-5.0, 5.0, _BLOCK)
    return np.stack((-w3 + off, w2 + off, w3 + off), axis=1)


def _equilateral_block(rng: np.random.Generator) -> np.ndarray:
    return _gate(_equilateral_roots(rng, near=False))


def _near_equilateral_block(rng: np.random.Generator) -> np.ndarray:
    return _gate(_equilateral_roots(rng, near=True))


def sample_equilateral(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n equilateral configurations (w = +-i sqrt(3), no vertical side)."""
    yield from _cubics(n, rng, _equilateral_block)


def sample_near_equilateral(n: int, rng: np.random.Generator) -> Iterator[OrderedCubic]:
    """Yield n slightly perturbed equilateral configurations (never exactly
    equilateral: w moves off +-i sqrt(3) parallel to the real axis)."""
    yield from _cubics(n, rng, _near_equilateral_block)
