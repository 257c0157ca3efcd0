"""Benchmark-side inputs and oracles, written apart from the ratiolab code.

Nothing here imports ratiolab: the references are what the program's
outputs are checked against, so they must not share its code.

* ``routes_batch`` builds the seeded root triples of the ``routes``
  workload, plus two fixed slices that exercise known faults.
* ``reference_ratios`` is a vectorized critical-point route: both
  quadratic candidates, labeled by real part, on roots centred first.
* ``mp_f`` / ``mp_g`` / ``mp_ray_sigma1`` are 50-digit mpmath evaluations
  of the rationalized closed forms and of the ray formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi

#: Base triples per category; each appears twice in the batch (two
#: placements: shuffled, scaled and translated independently).
CATEGORY_COUNTS = {
    "generic": 4000,
    "real": 1000,
    "collinear": 1000,
    "equilateral": 500,
    "near_equilateral": 1000,
    "ray": 2000,
}

#: Fixed slices (inputs do not depend on the seed), one per known fault.
SCALE_SLICE = 200        # well-separated triples scaled by 1e-10
NEAR_ONE_SLICE = 200     # |w -+ 1| in [3e-8, 9e-8], half near -1, half near +1
SCALE_FACTOR = 1e-10
FIXED_SLICE_SEED = 20070601


@dataclass
class RoutesBatch:
    """Root triples as an (n, 3) complex array plus per-row labels.

    ``category`` names the kind of configuration; ``twin`` is the row index
    of the other placement of the same base triple (-1 for the fixed
    slices); ``original`` holds the scale slice's triples before scaling,
    in the slice's row order.
    """

    roots: np.ndarray
    category: np.ndarray
    twin: np.ndarray
    original: np.ndarray

    def __len__(self) -> int:
        return len(self.roots)


def sort_by_real(roots: np.ndarray) -> np.ndarray:
    order = np.argsort(roots.real, axis=1, kind="stable")
    return np.take_along_axis(roots, order, axis=1)


def reference_critical_points(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Critical points of each triple, labeled so that Re z1 <= Re z2.

    Roots are centred on their mean first, which leaves the critical points
    translated by the same amount and keeps the discriminant free of the
    translation's cancellation.
    """
    centre = roots.mean(axis=1)
    c = roots - centre[:, None]
    e2 = c[:, 0] * c[:, 1] + c[:, 0] * c[:, 2] + c[:, 1] * c[:, 2]
    r = np.sqrt(-3.0 * e2 + 0j)
    za = centre - r / 3.0
    zb = centre + r / 3.0
    swap = (za.real > zb.real) | ((za.real == zb.real) & (za.imag > zb.imag))
    return np.where(swap, zb, za), np.where(swap, za, zb)


def reference_ratios(roots: np.ndarray, double_point: np.ndarray | None = None):
    """(sigma1, sigma2, z1, z2) per triple, from the definition.

    Rows flagged in ``double_point`` (equilateral triangles) take the
    centroid as their double critical point: there the discriminant is
    rounding noise and its square root carries only half the digits.
    """
    w = sort_by_real(roots)
    z1, z2 = reference_critical_points(w)
    if double_point is not None:
        centroid = w.mean(axis=1)
        z1 = np.where(double_point, centroid, z1)
        z2 = np.where(double_point, centroid, z2)
    s1 = (z1 - w[:, 0]) / (w[:, 1] - w[:, 0])
    s2 = (z2 - w[:, 1]) / (w[:, 2] - w[:, 1])
    return s1, s2, z1, z2


def normalized_w(roots: np.ndarray) -> np.ndarray:
    w = sort_by_real(roots)
    m = (w[:, 0] + w[:, 2]) / 2.0
    return (w[:, 1] - m) / (w[:, 2] - m)


def _diameter(roots: np.ndarray) -> np.ndarray:
    return np.max(np.abs(roots[:, [0, 0, 1]] - roots[:, [1, 2, 2]]), axis=1)


def _area(roots: np.ndarray) -> np.ndarray:
    a = roots[:, 1] - roots[:, 0]
    b = roots[:, 2] - roots[:, 0]
    return np.abs((a * np.conj(b)).imag) / 2.0


def _well_posed(roots: np.ndarray, crit_gap: float | None = None) -> np.ndarray:
    """Mask of triples whose ratios are defined with a wide margin: root
    real parts apart by 1e-3 of the diameter, w away from the keep-away
    band around +-1 and, unless ``crit_gap`` is None (a double critical
    point), critical-point real parts apart by ``crit_gap`` of the diameter."""
    w = sort_by_real(roots)
    diam = _diameter(w)
    gaps = np.minimum(w[:, 1].real - w[:, 0].real, w[:, 2].real - w[:, 1].real)
    wn = normalized_w(w)
    ok = (gaps >= 1e-3 * diam) & (np.abs(wn + 1.0) >= 1e-5) & (np.abs(wn - 1.0) >= 1e-5)
    if crit_gap is not None:
        z1, z2 = reference_critical_points(w)
        ok &= z2.real - z1.real >= crit_gap * diam
    return ok


def _cplx(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return rng.uniform(lo, hi, n) + 1j * rng.uniform(lo, hi, n)


def _take(rng: np.random.Generator, n: int, draw, keep) -> np.ndarray:
    """Draw candidate blocks until n triples pass ``keep``."""
    out = []
    got = 0
    while got < n:
        cand = draw(rng, 2 * (n - got) + 16)
        cand = cand[keep(cand)]
        out.append(cand)
        got += len(cand)
    return np.concatenate(out)[:n]


def _generic(rng, n):
    def draw(rng, m):
        return np.stack([_cplx(rng, m, -10.0, 10.0) for _ in range(3)], axis=1)

    def keep(c):
        diam = _diameter(c)
        return (diam >= 1.0) & (_area(c) >= 1e-3 * diam**2) & _well_posed(c, 1e-3)

    return _take(rng, n, draw, keep)


def _real(rng, n):
    def draw(rng, m):
        return rng.uniform(-10.0, 10.0, (m, 3)) + 0j

    def keep(c):
        x = np.sort(c.real, axis=1)
        diam = x[:, 2] - x[:, 0]
        return (diam >= 1.0) & (np.min(np.diff(x, axis=1), axis=1) >= 0.05 * diam)

    return _take(rng, n, draw, keep)


def _collinear(rng, n):
    def draw(rng, m):
        x = rng.uniform(-5.0, 5.0, (m, 3))
        d = np.exp(1j * rng.uniform(-1.2, 1.2, m))
        off = _cplx(rng, m, -5.0, 5.0)
        return off[:, None] + d[:, None] * x

    def keep(c):
        return (_diameter(c) >= 1.0) & _well_posed(c, 1e-3)

    return _take(rng, n, draw, keep)


def _equilateral_draw(rng, m):
    # keep theta off multiples of pi/3, where two vertices share a real part
    theta = rng.uniform(0.05, math.pi / 3 - 0.05, m) + (math.pi / 3) * rng.integers(0, 6, m)
    rho = rng.uniform(1.0, 5.0, m)
    k = np.arange(3) * (TWO_PI / 3.0)
    return rho[:, None] * np.exp(1j * (theta[:, None] + k[None, :]))


def _equilateral(rng, n):
    return _take(rng, n, _equilateral_draw, _well_posed)


def _near_equilateral(rng, n):
    def draw(rng, m):
        c = _equilateral_draw(rng, m)
        delta = np.exp(rng.uniform(math.log(1e-4), math.log(1e-1), m))
        side = np.abs(c[:, 1] - c[:, 0])
        c[:, 1] += delta * side * np.exp(1j * rng.uniform(0.0, TWO_PI, m))
        return c

    return _take(rng, n, draw, lambda c: _well_posed(c, 1e-6))


def _ray(rng, n):
    # w = i t exactly: w1 = -w3, w2 = i t w3, with |t Im w3| < Re w3 so the
    # real parts stay ordered; w3 is drawn to fit instead of by rejection
    def draw(rng, m):
        t = np.exp(rng.uniform(math.log(SQRT3 * (1.0 + 1e-3)), math.log(1e3), m))
        t *= rng.choice([-1.0, 1.0], m)
        re3 = rng.uniform(1.0, 10.0, m)
        im3 = rng.uniform(0.05, 0.9, m) * re3 / np.abs(t) * rng.choice([-1.0, 1.0], m)
        w3 = re3 + 1j * im3
        return np.stack([-w3, 1j * t * w3, w3], axis=1)

    return _take(rng, n, draw, lambda c: _well_posed(c, 1e-6))


_MAKERS = {
    "generic": _generic,
    "real": _real,
    "collinear": _collinear,
    "equilateral": _equilateral,
    "near_equilateral": _near_equilateral,
    "ray": _ray,
}


def _place(rng: np.random.Generator, base: np.ndarray, real_offset: bool) -> np.ndarray:
    """Shuffle each triple, scale it by 10^U(-2, 2) and translate it."""
    m = len(base)
    perm = np.argsort(rng.uniform(size=(m, 3)), axis=1)
    s = 10.0 ** rng.uniform(-2.0, 2.0, m)
    if real_offset:
        off = rng.uniform(-5.0, 5.0, m) + 0j
    else:
        off = _cplx(rng, m, -5.0, 5.0)
    return np.take_along_axis(base, perm, axis=1) * s[:, None] + (off * s)[:, None]


def _scale_slice() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([FIXED_SLICE_SEED, 1])

    def draw(rng, m):
        return np.stack([_cplx(rng, m, -2.0, 2.0) for _ in range(3)], axis=1)

    def keep(c):
        diam = _diameter(c)
        sep = np.min(np.abs(c[:, [0, 0, 1]] - c[:, [1, 2, 2]]), axis=1)
        return (
            (diam >= 1.0) & (diam <= 4.0) & (sep >= 0.05 * diam)
            & (_area(c) >= 1e-2 * diam**2) & _well_posed(c, 1e-2)
        )

    original = _take(rng, SCALE_SLICE, draw, keep)
    return original * SCALE_FACTOR, original


def _near_one_slice() -> np.ndarray:
    """Triples whose w = w2n / w3n is -1 + q (first half) or 1 - q (second
    half), with |q| in [3e-8, 9e-8] and arg q 30..60 degrees off the real
    axis, so the ordering gaps and the triangle's area stay far above the
    absolute tolerances."""
    rng = np.random.default_rng([FIXED_SLICE_SEED, 2])
    n = NEAR_ONE_SLICE
    w3n = rng.uniform(1.0, 5.0, n) * np.exp(1j * rng.uniform(-0.3, 0.3, n))
    phi = rng.uniform(math.pi / 6, math.pi / 3, n) * rng.choice([-1.0, 1.0], n)
    q = rng.uniform(3e-8, 9e-8, n) * np.exp(1j * phi)
    w2n = np.where(np.arange(n) < n // 2, -w3n + w3n * q, w3n - w3n * q)
    off = _cplx(rng, n, -5.0, 5.0)
    roots = np.stack([-w3n, w2n, w3n], axis=1) + off[:, None]
    perm = np.argsort(rng.uniform(size=(n, 3)), axis=1)
    return np.take_along_axis(roots, perm, axis=1)


def routes_batch(seed: int, counts: dict[str, int] | None = None) -> RoutesBatch:
    """The seeded triples (two placements per base) and the fixed slices."""
    counts = CATEGORY_COUNTS if counts is None else counts
    rng = np.random.default_rng([seed, 7])
    roots, category, twin = [], [], []
    start = 0
    for name, n in counts.items():
        base = _MAKERS[name](rng, n)
        real_offset = name == "real"
        roots += [_place(rng, base, real_offset), _place(rng, base, real_offset)]
        category += [name] * (2 * n)
        idx = np.arange(n) + start
        twin += [idx + n, idx]
        start += 2 * n
    scaled, original = _scale_slice()
    near = _near_one_slice()
    roots += [scaled, near]
    category += ["scale_1e-10"] * len(scaled) + ["near_one"] * len(near)
    twin += [np.full(len(scaled) + len(near), -1)]
    return RoutesBatch(
        roots=np.concatenate(roots),
        category=np.array(category),
        twin=np.concatenate(twin),
        original=original,
    )


# ---------------------------------------------------------------------------
# mpmath oracles

def _mp_sqrt_forms(w: complex):
    import mpmath

    z = mpmath.mpc(w.real, w.imag)
    return z, mpmath.sqrt(3 + z * z)


def mp_f(w: complex) -> complex:
    """sigma1 as f(w) = 2 / (w + 3 + R), R = sqrt(3 + w^2), to 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        z, r = _mp_sqrt_forms(w)
        return complex(2 / (z + 3 + r))


def mp_g(w: complex) -> complex:
    """sigma2 as g(w) = (w + 3 + R) / (3 (w + 1 + R)), to 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        z, r = _mp_sqrt_forms(w)
        return complex((z + 3 + r) / (3 * (z + 1 + r)))


def mp_ray_sigma1(t: float) -> complex:
    """Upper-side ray value (i t + i sqrt(t^2 - 3) + 3) / (3 (i t + 1)).

    The double nearest sqrt(3) lies just inside the tip, so t^2 - 3 is
    clamped at 0 there, as on the rays' closure.
    """
    import mpmath

    with mpmath.workdps(50):
        tt = mpmath.mpf(t)
        j = mpmath.mpc(0, 1)
        r = mpmath.sqrt(max(tt * tt - 3, 0))
        return complex((j * tt + j * r + 3) / (3 * (j * tt + 1)))
