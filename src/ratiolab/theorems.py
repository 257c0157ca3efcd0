"""Executable claim catalog: bounds, equivalences, scans, extremal families.

Claim identifiers (CLI selector `verify` accepts the prefixes):

    L1A, L1B   the derivative numerators 4t sqrt(t^2-3) -+ (5t^2 - 3) of the
               ray functions u1, u2 never vanish for |t| >= sqrt(3)
    L2A, L2B   t^3 - 7t -+ 2(t^2-1) sqrt(t^2-3) has exactly one real zero,
               at t = -2 (A) resp. t = +2 (B); L1A/L1B and L2A/L2B are
               mirror pairs under t -> -t
    T1A-T1E    sigma1: 0 < Re < 2/3 (sharp), |Im| <= 1/3, Im = +-1/3 exactly
               on the +-i z0 / 2 z0 family, |sigma1| <= 2/3
    T2A-T2E    sigma2: 1/3 < Re < 1 (sharp), |Im| <= 1/3, Im = +-1/3 exactly
               on the mirrored family, |sigma2| <= 1; T2A-T2D are T1A-T1D
               on the mirror w -> -conj w of the roots, which reverses
               their order: sigma2' = 1 - conj sigma1
    T3         Re sigma2 >= Re sigma1
    T4         sigma1 = sigma2 iff the roots form an equilateral triangle
    T5         a ratio is real iff the roots are collinear
    HYP        all-real roots: 1/3 < sigma1 < 1/2 < sigma2 < 2/3

Every claim is checked numerically: Monte Carlo over admissible
configurations, dense grid scans with sign-change detection and root
refinement, and the explicit extremal families. t -> -t maps each lemma
and ray envelope expression onto its partner bit for bit, so the lemma
scans and the ray envelopes of T1E, T3 and T5 walk t >= sqrt(3) only, in
blocks of _SCAN_BLOCK points whose temporaries stay in cache; a scan's
minimum is folded block by block, which gives the bits of the whole-grid
minimum. Reports carry a margin (signed distance to the bound) and a
witness record for the extremal or violating configuration. The Monte
Carlo pass of T1-T3 keeps its samples in one complex table (80 B per
sample); each bound's margin is the minimum over the table, its witness
the first sample at that minimum, and its verdict the bound's open or
closed threshold applied to that minimum. T4, T5 and HYP put the
configurations the public samplers yield into one GATE_TABLE array per
claim and decide all rows at once. Each verdict is one body written with
operators only, which check_equivalence_t4, check_equivalence_t5 and
check_hyperbolic run on complex scalars and the claim runs on the table's
columns, with the same bits. The claim fails when any row fails, and its
witness is the last failing row.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .cubic import (
    GATE_TABLE,
    Configuration,
    OrderedCubic,
    _collinear,
    _diameter,
    classify_configuration,
    normalize,
    order_roots,
)
from .errors import BadParameterError, BadRangeError, ConstraintViolatedError, NotHyperbolicError
from .kernel import EQ_TOL, IDENTITY_TOL, SQRT3, _cabs
from .ratios import (
    RatioVector,
    boundary_modulus_sq,
    boundary_sigma_diff,
    boundary_uv,
    ratios_direct,
    ratios_direct_array,
)
from .records import SampleRecord
from .sampling import (
    _admissible_blocks,
    sample_collinear,
    sample_equilateral,
    sample_hyperbolic,
    sample_near_equilateral,
    sample_ordered_cubics,
)

__all__ = [
    "TheoremReport",
    "DEFAULT_SEED",
    "CLAIM_GROUPS",
    "CLOSED_BOUND_SLACK",
    "check_bounds",
    "bounds_mask",
    "check_equivalence_t4",
    "check_equivalence_t5",
    "check_hyperbolic",
    "scan_lemma1",
    "scan_lemma2",
    "lemma1_expressions",
    "lemma2_expressions",
    "sharpness_probe_re",
    "extremal_family_im",
    "sigma2_extremal_family",
    "run_claims",
]

#: Published default seed; CLI falls back to it when neither --seed nor
#: RATIOLAB_SEED is given.
DEFAULT_SEED = 1729

#: Closed bounds (attained in the limit or on families) may undershoot by this.
CLOSED_BOUND_SLACK = 1e-12

CLAIM_GROUPS = ("all", "L1", "L2", "T1", "T2", "T3", "T4", "T5", "HYP")


@dataclass(frozen=True)
class TheoremReport:
    claim_id: str
    passed: bool
    witness: Optional[SampleRecord]
    margin: float
    note: str = ""


def _witness(c: OrderedCubic, rv: RatioVector) -> SampleRecord:
    return SampleRecord(
        w=normalize(c).w,
        sigma1=rv.sigma1,
        sigma2=rv.sigma2,
        path=rv.path.value,
        classification=classify_configuration(c).value,
    )


# ---------------------------------------------------------------------------
# per-configuration checks


#: The seven per-sample bound claims, in the order of their margins.
_BOUND_IDS = ("T1A", "T1B", "T1E", "T2A", "T2B", "T2E", "T3")
_NO_WITNESS = (None,) * len(_BOUND_IDS)


def _bound_margins(s1, s2, minimum, modulus):
    """The signed margins of _BOUND_IDS. s1 and s2 are complex scalars
    (minimum = min, modulus = abs) or complex arrays (np.minimum,
    kernel._cabs)."""
    two_thirds = 2.0 / 3.0
    return (
        minimum(s1.real, two_thirds - s1.real),
        1.0 / 3.0 - abs(s1.imag),
        two_thirds - modulus(s1),
        minimum(s2.real - 1.0 / 3.0, 1.0 - s2.real),
        1.0 / 3.0 - abs(s2.imag),
        1.0 - modulus(s2),
        s2.real - s1.real,
    )


def _bound_verdicts(margins):
    """Whether each margin passes, for scalars or arrays."""
    t1a, t1b, t1e, t2a, t2b, t2e, t3 = margins
    lo = -CLOSED_BOUND_SLACK
    return (t1a > 0.0, t1b >= lo, t1e >= lo, t2a > 0.0, t2b >= lo, t2e >= lo, t3 >= lo)


def check_bounds(r: RatioVector) -> list[TheoremReport]:
    """Signed margins for the seven per-sample bound claims.

    Open bounds (T1A, T2A) must have strictly positive margin; the closed
    ones tolerate CLOSED_BOUND_SLACK since their extremes are attained.
    """
    margins = _bound_margins(r.sigma1, r.sigma2, min, abs)
    return list(map(TheoremReport, _BOUND_IDS, _bound_verdicts(margins), _NO_WITNESS, margins))


def bounds_mask(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Elementwise all(rep.passed for rep in check_bounds(...)) on complex
    arrays of sigma1 and sigma2."""
    margins = _bound_margins(s1, s2, np.minimum, _cabs)
    return np.logical_and.reduce(_bound_verdicts(margins))


# T4, T5 and HYP decide each configuration in one body, written with
# operators only like _bound_margins: on complex scalars for the check_*
# functions, on the complex columns of a GATE_TABLE array for the claim runs.


def _t4_verdict(s1, s2, equilateral, modulus):
    """T4's (passed, margin): |sigma1 - sigma2| <= IDENTITY_TOL exactly on
    the equilateral configurations. modulus is abs or kernel._cabs."""
    margin = modulus(s1 - s2)
    return (margin <= IDENTITY_TOL) == equilateral, margin


def _t5_verdict(s1, s2, collinear, minimum):
    """T5's (passed, margin): a ratio within EQ_TOL of real exactly on the
    collinear configurations; the margin is the smaller |Im sigma|."""
    im1, im2 = abs(s1.imag), abs(s2.imag)
    return ((im1 <= EQ_TOL) | (im2 <= EQ_TOL)) == collinear, minimum(im1, im2)


def _hyp_verdict(s1, s2, minimum, maximum):
    """HYP's (passed, margin): 1/3 < Re sigma1 < 1/2 < Re sigma2 < 2/3 and
    both ratios within EQ_TOL of real; the margin is the least distance to
    the four thresholds."""
    margin = minimum(
        minimum(s1.real - 1.0 / 3.0, 0.5 - s1.real),
        minimum(s2.real - 0.5, 2.0 / 3.0 - s2.real),
    )
    real_enough = maximum(abs(s1.imag), abs(s2.imag)) <= EQ_TOL
    return (margin > 0.0) & real_enough, margin


def _off_real_axis(w1, w2, w3, modulus, maximum):
    """Whether a root lies more than EQ_TOL times the diameter of the root
    triangle off the real axis (HYP's realness test)."""
    far = maximum(maximum(abs(w1.imag), abs(w2.imag)), abs(w3.imag))
    return far > EQ_TOL * _diameter(w1, w2, w3, modulus, maximum)


def check_equivalence_t4(c: OrderedCubic) -> TheoremReport:
    """sigma1 == sigma2 (within IDENTITY_TOL) iff the triangle is equilateral."""
    rv = ratios_direct(c)
    equilateral = classify_configuration(c) is Configuration.EQUILATERAL
    passed, margin = _t4_verdict(rv.sigma1, rv.sigma2, equilateral, abs)
    return TheoremReport("T4", passed, None if passed else _witness(c, rv), margin)


def check_equivalence_t5(c: OrderedCubic) -> TheoremReport:
    """a ratio is real (within EQ_TOL) iff the roots are collinear."""
    rv = ratios_direct(c)
    collinear = classify_configuration(c) is Configuration.COLLINEAR
    passed, margin = _t5_verdict(rv.sigma1, rv.sigma2, collinear, min)
    return TheoremReport("T5", passed, None if passed else _witness(c, rv), margin)


def check_hyperbolic(c: OrderedCubic) -> TheoremReport:
    """All-real roots: 1/3 < sigma1 < 1/2 and 1/2 < sigma2 < 2/3.

    A root counts as real when its imaginary part is at most EQ_TOL times
    the diameter of the root triangle.
    """
    if _off_real_axis(c.w1, c.w2, c.w3, abs, max):
        raise NotHyperbolicError("roots must all be real")
    rv = ratios_direct(c)
    passed, margin = _hyp_verdict(rv.sigma1, rv.sigma2, min, max)
    return TheoremReport("HYP", passed, None if passed else _witness(c, rv), margin)


# ---------------------------------------------------------------------------
# lemma scans


def lemma1_expressions(t):
    """(A, B) = 4 t sqrt(t^2 - 3) -+ (5 t^2 - 3); vectorized."""
    t = np.asarray(t, dtype=float)
    r = np.sqrt(np.maximum(t * t - 3.0, 0.0))
    a = 4.0 * t * r - 5.0 * t * t + 3.0
    b = 4.0 * t * r + 5.0 * t * t - 3.0
    return a, b


def lemma2_expressions(t):
    """(A, B) = t^3 - 7t -+ 2 (t^2 - 1) sqrt(t^2 - 3); vectorized."""
    t = np.asarray(t, dtype=float)
    r = np.sqrt(np.maximum(t * t - 3.0, 0.0))
    core = 2.0 * (t * t - 1.0) * r
    base = _cube(t) - 7.0 * t
    return base - core, base + core


def _cube(t):
    """t^3 as an exactly odd function. numpy's `t ** 3` takes a slow scalar
    path for negative bases; this stays within 1 ulp of it."""
    return np.copysign(np.abs(t) ** 3, t)


@functools.lru_cache(maxsize=2)
def _scan_grid(t_min: float, t_max: float, steps: int) -> np.ndarray:
    """The branch t >= t_min of the rays, read-only: [t_min, t_max] densely
    plus a logarithmic tail out to 1e9. The last two grids are kept: the
    lemma grid and the ray grid."""
    if not (SQRT3 - EQ_TOL <= t_min < t_max):
        raise BadRangeError(f"need sqrt(3) <= t_min < t_max, got [{t_min}, {t_max}]")
    if steps < 1000:
        raise BadRangeError("steps must be at least 1000")
    main = np.linspace(t_min, t_max, steps)
    tail = np.logspace(math.log10(t_max), 9.0, 1000)[1:]
    grid = np.concatenate([main, tail])
    grid.flags.writeable = False
    return grid


def _ray_grid() -> np.ndarray:
    """The grid of the ray envelope scans in T1E, T3 and T5."""
    return _scan_grid(SQRT3, 1e3, 200000)


#: Points per block of the lemma scans and the ray envelopes: each temporary
#: of a block (256 KiB) stays in cache, and a scan's peak memory stays
#: under 4 MiB.
_SCAN_BLOCK = 2**15


def _blocks(grid: np.ndarray):
    """Consecutive views of at most _SCAN_BLOCK points covering grid."""
    return (grid[i:i + _SCAN_BLOCK] for i in range(0, len(grid), _SCAN_BLOCK))


def _ray_envelope(expression: Callable[[np.ndarray], np.ndarray]) -> float:
    """The least value of expression over the ray grid, one block at a time
    (np.minimum keeps a NaN, as np.min over the grid does)."""
    low = np.inf
    for t in _blocks(_ray_grid()):
        low = np.minimum(low, np.min(expression(t)))
    return float(low)


# The ray envelope expressions of T1E, T3 and T5, on t >= sqrt(3).


def _t1e_ray(t: np.ndarray) -> np.ndarray:
    """4 - a and 4 - b, the lesser per t: |sigma_k| <= 2/3 resp. 1 on the rays."""
    a, b = boundary_modulus_sq(t)
    return np.minimum(4.0 - a, 4.0 - b)


def _t3_ray(t: np.ndarray) -> np.ndarray:
    """Re(sigma2 - sigma1) on the rays."""
    return boundary_sigma_diff(t).real


def _t5_ray(t: np.ndarray) -> np.ndarray:
    """The lesser of |v1| and |v2|, the imaginary parts of sigma1 on the two
    sides of the rays."""
    _, _, v1, v2 = boundary_uv(t)
    return np.minimum(np.abs(v1), np.abs(v2))


def scan_lemma1(
    t_min: float = SQRT3, t_max: float = 1e3, steps: int = 10**6
) -> tuple[TheoremReport, TheoremReport]:
    """Grid minima of |A| and |B|; zero anywhere fails the claim.

    L1A and L1B are a mirror pair, A(-t) = -B(t) bit for bit: both take
    the least of |A| and |B| over t >= t_min, the only branch scanned.

    Cross-check: squaring the radical equation collapses to
    16 t^2 (t^2 - 3) - (5 t^2 - 3)^2 = -9 (t^2 + 1)^2 identically, which the
    grid verifies to 1e-6 relative accuracy.
    """
    low = np.inf
    max_resid = -np.inf
    for t in _blocks(_scan_grid(t_min, t_max, steps)):
        a, b = lemma1_expressions(t)
        t2 = t * t
        rhs = 9.0 * (t2 + 1.0) ** 2
        resid = np.abs(16.0 * t2 * (t2 - 3.0) - (5.0 * t2 - 3.0) ** 2 + rhs) / rhs
        # np.minimum/np.maximum keep a NaN, as np.min/np.max over the grid do
        low = np.minimum(low, np.minimum(np.min(np.abs(a)), np.min(np.abs(b))))
        max_resid = np.maximum(max_resid, np.max(resid))
    low = float(low)
    ok = low > 0.0 and bool(max_resid <= 1e-6)
    note = f"identity max rel resid {max_resid:.3e}"
    return (
        TheoremReport("L1A", ok, None, low, note),
        TheoremReport("L1B", ok, None, low, note),
    )


def _sign_change_roots(fn: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> list[float]:
    """Zeros of fn on an ascending grid: grid points where it is exactly 0,
    and every sign change between neighbours, bisected on fn down to
    adjacent floats. Roots closer than 1e-6 are coalesced."""
    vals = fn(grid)
    brackets = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    lo, hi = grid[brackets], grid[brackets + 1]
    f_lo = vals[brackets]
    while True:
        mid = 0.5 * (lo + hi)
        live = (mid != lo) & (mid != hi)
        if not live.any():
            break
        f_mid = fn(mid)
        exact = live & (f_mid == 0.0)
        right = live & (np.sign(f_mid) == np.sign(f_lo))
        lo = np.where(right | exact, mid, lo)
        f_lo = np.where(right, f_mid, f_lo)
        hi = np.where(live & ~right, mid, hi)
    roots = np.sort(np.concatenate([grid[vals == 0.0], lo]))
    keep = np.diff(roots, prepend=-math.inf) > 1e-6
    return roots[keep].tolist()


def scan_lemma2(
    t_min: float = SQRT3, t_max: float = 1e3, steps: int = 10**6
) -> tuple[TheoremReport, TheoremReport]:
    """Locate all sign changes; branch A must root only at -2, branch B at +2.

    L2A and L2B are a mirror pair, A(-t) = -B(t) bit for bit: the scan
    walks t >= t_min only, and A's zeros on t <= -t_min are B's negated.

    Cross-check: (t^3 - 7t)^2 - 4 (t^2 - 1)^2 (t^2 - 3) factors as
    -3 (t - 2)(t + 2)(t^2 + 1)^2, verified on the grid to 1e-6 relative.
    """
    grid = _scan_grid(t_min, t_max, steps)
    # a coarse sub-grid brackets each sign change, refinement is exact
    coarse = grid[::max(1, len(grid) // 10000)]
    pos_a = _sign_change_roots(lambda t: lemma2_expressions(t)[0], coarse)
    pos_b = _sign_change_roots(lambda t: lemma2_expressions(t)[1], coarse)
    roots_a = [-r for r in reversed(pos_b)] + pos_a
    roots_b = [-r for r in reversed(pos_a)] + pos_b

    max_resid = -np.inf
    for t in _blocks(grid):
        t2 = t * t
        lhs = (_cube(t) - 7.0 * t) ** 2 - 4.0 * (t2 - 1.0) ** 2 * (t2 - 3.0)
        # (t - 2)(t + 2) first: the product is then even bit for bit
        rhs = -3.0 * ((t - 2.0) * (t + 2.0)) * (t2 + 1.0) ** 2
        scale = np.maximum(np.abs(lhs), np.maximum(np.abs(rhs), 1.0))
        max_resid = np.maximum(max_resid, np.max(np.abs(lhs - rhs) / scale))
    identity_ok = bool(max_resid <= 1e-6)
    note = f"identity max rel resid {max_resid:.3e}"

    ok_a = identity_ok and len(roots_a) == 1 and abs(roots_a[0] + 2.0) <= 1e-9
    ok_b = identity_ok and len(roots_b) == 1 and abs(roots_b[0] - 2.0) <= 1e-9
    dev_a = max((abs(r + 2.0) for r in roots_a), default=math.inf)
    dev_b = max((abs(r - 2.0) for r in roots_b), default=math.inf)
    return (
        TheoremReport("L2A", ok_a, None, dev_a, note + f"; roots {roots_a}"),
        TheoremReport("L2B", ok_b, None, dev_b, note + f"; roots {roots_b}"),
    )


# ---------------------------------------------------------------------------
# extremal families


def sharpness_probe_re(t: float) -> tuple[OrderedCubic, RatioVector]:
    """Ray family driving Re sigma1 to its bounds: Re sigma1 = u1(t).

    t > sqrt(3):  roots -2t - i, -t + 2 t^2 i, 2t + i
    t < -sqrt(3): roots  2t - i, -t - 2 t^2 i, -2t + i

    Both normalize to w = i t with Im w3 > 0, the side on which sigma1 is
    u1(t) + i v1(t); mirroring by plain sign flips would land on the other
    side of the rays (Im w3 < 0), where Re sigma1 is u2(t) -> 2/3 instead
    of u1(t) -> 0.
    """
    if not math.isfinite(t) or abs(t) <= SQRT3:
        raise BadParameterError("sharpness probe needs |t| > sqrt(3)")
    if t > 0:
        roots = (complex(-2 * t, -1.0), complex(-t, 2 * t * t), complex(2 * t, 1.0))
    else:
        roots = (complex(2 * t, -1.0), complex(-t, -2 * t * t), complex(-2 * t, 1.0))
    c = order_roots(*roots)
    return c, ratios_direct(c)


def _im_family(
    z0: complex, c: complex, sign: int, re_sign: int
) -> tuple[OrderedCubic, RatioVector]:
    """Roots +-i z0 + c and 2 z0 + c, with z0 on the strip where the family
    attains Im sigma_k = sign/3: -sign Im z0 > 0 and
    0 < re_sign Re z0 < |Im z0| / 2 (re_sign +1 for sigma1, -1 for the
    mirrored sigma2 strip). Every band is EQ_TOL * |z0|, so scaling z0 by a
    positive factor does not move the strip's edges."""
    z0 = complex(z0)
    if sign not in (+1, -1):
        raise BadParameterError("sign must be +1 or -1")
    band = EQ_TOL * abs(z0)
    y = -sign * z0.imag
    x = re_sign * z0.real
    if not (y > band and band < x < 0.5 * y - band):
        strip = f"sign={sign:+d} half-strip" if re_sign > 0 else f"sigma2 sign={sign:+d} strip"
        raise ConstraintViolatedError(f"z0={z0!r} outside the {strip}")
    cub = order_roots(1j * z0 + c, -1j * z0 + c, 2.0 * z0 + c)
    return cub, ratios_direct(cub)


def extremal_family_im(
    z0: complex, c: complex = 0j, sign: int = +1
) -> tuple[OrderedCubic, RatioVector]:
    """Family attaining Im sigma1 = sign/3: roots +-i z0 + c and 2 z0 + c.

    sign +1 needs Im z0 < 0 and 0 < Re z0 < -Im z0 / 2; sign -1 the mirror
    (Im z0 > 0, 0 < Re z0 < Im z0 / 2), both up to bands of EQ_TOL * |z0|.
    Outside the strip the family does not attain the extreme and
    ConstraintViolatedError is raised.
    """
    return _im_family(z0, c, sign, +1)


def sigma2_extremal_family(
    z0: complex, c: complex = 0j, sign: int = +1
) -> tuple[OrderedCubic, RatioVector]:
    """Family attaining Im sigma2 = sign/3: same root shape +-i z0 + c,
    2 z0 + c, but with the real-part constraint mirrored to Re z0 < 0
    (sign +1: Im z0 < 0 and Im z0 / 2 < Re z0 < 0; sign -1 the conjugate),
    with the same bands of EQ_TOL * |z0|.

    It is the mirror z0 -> -conj z0 of the sigma1 family, whose sigma2 is
    1 - conj of that family's sigma1. On the sigma1 strip itself the second
    ratio is (2 + sign i) / 5, not extremal.
    """
    return _im_family(z0, c, sign, -1)


# ---------------------------------------------------------------------------
# aggregated claim runners


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _row_witness(row: np.ndarray) -> SampleRecord:
    """The witness record of a bounds-table row (w1, w2, w3, ...)."""
    c = order_roots(*row[:3].tolist())
    return _witness(c, ratios_direct(c))


#: The fields of an OrderedCubic in GATE_TABLE order.
_GATE_FIELDS = operator.attrgetter(*GATE_TABLE.names)


def _gate_table(cubics: Iterable[OrderedCubic]) -> np.ndarray:
    """A GATE_TABLE row per cubic, in order; the iterable is consumed here."""
    return np.array(list(map(_GATE_FIELDS, cubics)), dtype=GATE_TABLE)


def _t4_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_t4_verdict on each row of a GATE_TABLE array."""
    s1, s2 = ratios_direct_array(table)
    return _t4_verdict(s1, s2, table["coincident"], _cabs)


def _t5_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_t5_verdict on each row of a GATE_TABLE array; collinear as
    classify_configuration decides it (unless equilateral)."""
    s1, s2 = ratios_direct_array(table)
    w1, w2, w3 = table["w1"], table["w2"], table["w3"]
    collinear = ~table["coincident"] & _collinear(w1, w2, w3, _cabs, np.maximum)
    return _t5_verdict(s1, s2, collinear, np.minimum)


def _hyp_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_hyp_verdict on each row of a GATE_TABLE array; NotHyperbolicError
    if a row has a root off the real axis."""
    if _off_real_axis(table["w1"], table["w2"], table["w3"], _cabs, np.maximum).any():
        raise NotHyperbolicError("roots must all be real")
    s1, s2 = ratios_direct_array(table)
    return _hyp_verdict(s1, s2, np.minimum, np.maximum)


def _last_failing(table: np.ndarray, passed: np.ndarray) -> Optional[SampleRecord]:
    """The witness of the last table row that fails, None if none does."""
    failed = np.flatnonzero(~passed)
    if not len(failed):
        return None
    c = OrderedCubic(*table[failed[-1]].tolist())
    return _witness(c, ratios_direct(c))


def _bounds_table(samples: int, rng: np.random.Generator) -> np.ndarray:
    """A (samples, 5) complex table of rows (w1, w2, w3, sigma1, sigma2),
    one per configuration sample_ordered_cubics would yield, filled from the
    sampler's gate tables."""
    table = np.empty((samples, 5), dtype=complex)
    start = 0
    for block in _admissible_blocks(samples, rng):
        rows = table[start:start + len(block)]
        rows[:, 0], rows[:, 1], rows[:, 2] = block["w1"], block["w2"], block["w3"]
        rows[:, 3], rows[:, 4] = ratios_direct_array(block)
        start += len(block)
    return table


def _bounds_claims(samples: int, seed: int) -> tuple[dict[str, TheoremReport], tuple[list, list]]:
    """One Monte Carlo pass: the reports of _BOUND_IDS and the witnesses of
    stray attainments of |Im sigma1| and |Im sigma2| = 1/3 (T1C/T1D, T2C/T2D).

    A table row (w1, w2, w3, sigma1, sigma2) per sample, 80 B. A claim's
    margin is its column minimum, its witness the first sample there, and
    _bound_verdicts on the minima says whether every sample passes, since
    each verdict is a threshold on one margin (a NaN margin is the minimum).
    """
    table = _bounds_table(samples, _rng_for(seed, 1))
    margins = _bound_margins(table[:, 3], table[:, 4], np.minimum, _cabs)
    minima = [float(m.min()) for m in margins]
    note = f"{samples} samples"
    reports = {
        cid: TheoremReport(cid, ok, _row_witness(table[np.argmin(m)]), low, note)
        for cid, m, low, ok in zip(_BOUND_IDS, margins, minima, _bound_verdicts(minima))
    }
    # |Im sigma| may reach 1/3 only at w = -+2i, and touches it quadratically
    # along the rays (the v-functions have zero slope at t = -+2), so an
    # Im-band of EQ_TOL admits w within ~sqrt(EQ_TOL / 0.14) of those points
    window = max(EQ_TOL, math.sqrt(40.0 * EQ_TOL))
    strays = ([], [])
    for sigma, found in zip((table[:, 3], table[:, 4]), strays):
        for i in np.flatnonzero(1.0 / 3.0 - np.abs(sigma.imag) <= EQ_TOL):
            wit = _row_witness(table[i])
            if abs(wit.w - (-2j if sigma[i].imag > 0 else 2j)) > window:
                found.append(wit)
    return reports, strays


def _sharpness(base: TheoremReport, k: int, above: float, below: float) -> TheoremReport:
    """base plus sharpness of the open bound on Re sigma_k at the asymptotic
    ray probes: Re sigma_k(+1e3) > above and Re sigma_k(-1e3) < below."""
    probes = []
    for t in (1e3, -1e3):
        _, rv = sharpness_probe_re(t)
        probes.append((t, (rv.sigma1, rv.sigma2)[k - 1].real))
    (_, re_pos), (_, re_neg) = probes
    sharp_ok = re_pos > above and re_neg < below
    note = base.note + "; " + ", ".join(f"Re sigma{k}({t:+g}) = {re:.6g}" for t, re in probes)
    return TheoremReport(base.claim_id, base.passed and sharp_ok, base.witness, base.margin, note)


#: Per ratio k: the sign of Re z0 on the strip of the family attaining
#: Im sigma_k = +-1/3.
_IM_RE_SIGN = {1: +1, 2: -1}


def _im_attainment(
    cid: str, k: int, sign: int, rng: np.random.Generator, strays: list, tail: str
) -> TheoremReport:
    """Im sigma_k = sign/3 to 1e-12 over 64 draws of its extremal family,
    and no stray attainment in the Monte Carlo pass."""
    re_sign = _IM_RE_SIGN[k]
    worst = 0.0
    witness = None
    for _ in range(64):
        y = rng.uniform(0.5, 4.0) * (-1 if sign > 0 else 1)
        x = re_sign * rng.uniform(0.05, 0.95) * (abs(y) / 2.0)
        z0 = complex(x, y)
        off = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        cub, rv = _im_family(z0, off, sign, re_sign)
        dev = abs((rv.sigma1, rv.sigma2)[k - 1].imag - sign / 3.0)
        if dev > worst:
            worst = dev
            witness = _witness(cub, rv)
    ok = worst <= 1e-12 and not strays
    note = f"max |Im sigma{k} - ({sign:+d}/3)| = {worst:.3e}{tail}"
    if strays:
        note += f"; {len(strays)} stray attainments"
    return TheoremReport(cid, ok, witness if not ok else None, worst, note)


def _claims_t1(seed: int, shared: dict, strays: list) -> list[TheoremReport]:
    # T1A: bounds plus sharpness at the asymptotic probes
    reports = [_sharpness(shared["T1A"], 1, 0.666, 1e-4), shared["T1B"]]

    # T1C / T1D: attainment on the half-strip family, exactness 1e-12,
    # plus no stray attainments in the Monte Carlo sample
    rng = _rng_for(seed, 2)
    for cid, sign in (("T1C", +1), ("T1D", -1)):
        reports.append(_im_attainment(cid, 1, sign, rng, strays, " over 64 family draws"))

    # T1E: Monte Carlo margin plus the ray modulus envelope a, b < 4
    base = shared["T1E"]
    env = _ray_envelope(_t1e_ray)
    # on the asymptotic tail the envelope rounds onto its unattained limit 4
    ok = base.passed and env > -CLOSED_BOUND_SLACK
    reports.append(
        TheoremReport("T1E", ok, base.witness, base.margin, base.note + f"; min(4 - a, 4 - b) = {env:.3e}")
    )
    return reports


def _claims_t2(seed: int, shared: dict, strays: list) -> list[TheoremReport]:
    reports = [_sharpness(shared["T2A"], 2, 0.999, 1.0 / 3.0 + 1e-3), shared["T2B"]]

    # T2C / T2D: z0 -> -conj z0 mirrors the T1C / T1D family's roots, and
    # the mirror's sigma2 = 1 - conj sigma1 has the same imaginary part
    rng = _rng_for(seed, 3)
    for cid, mirror, sign in (("T2C", "T1C", +1), ("T2D", "T1D", -1)):
        tail = f" over 64 family draws, the mirror z0 -> -conj z0 of the {mirror} family"
        reports.append(_im_attainment(cid, 2, sign, rng, strays, tail))

    reports.append(shared["T2E"])
    return reports


def _claims_t3(shared: dict) -> list[TheoremReport]:
    base = shared["T3"]
    ray_min = _ray_envelope(_t3_ray)
    ok = base.passed and ray_min >= -CLOSED_BOUND_SLACK
    return [
        TheoremReport(
            "T3", ok, base.witness, min(base.margin, ray_min),
            base.note + f"; ray min Re(sigma2 - sigma1) = {ray_min:.3e}",
        )
    ]


def _claims_t4(samples: int, seed: int) -> list[TheoremReport]:
    rng = _rng_for(seed, 4)
    n = max(1000, samples // 10)
    table = np.concatenate([
        _gate_table(sample_ordered_cubics(n, rng)),
        _gate_table(sample_equilateral(200, rng)),
        _gate_table(sample_near_equilateral(200, rng)),
        # the proof witnesses w = +-i sqrt(3)
        _gate_table(order_roots(-1.0, w2, 1.0) for w2 in (SQRT3 * 1j, -SQRT3 * 1j)),
    ])
    passed, margin = _t4_rows(table)
    # the equilateral draws and the proof witnesses must show exact
    # equality (1e-10); the T4 margin is |sigma1 - sigma2|
    eq_worst = float(max(margin[n:n + 200].max(), margin[-2:].max()))
    ok = bool(passed.all()) and eq_worst <= 1e-10
    note = f"{n} random + 400 constructed; max |sigma1 - sigma2| on equilateral = {eq_worst:.3e}"
    return [TheoremReport("T4", ok, _last_failing(table, passed), eq_worst, note)]


def _claims_t5(samples: int, seed: int) -> list[TheoremReport]:
    rng = _rng_for(seed, 5)
    n = max(1000, samples // 10)
    table = np.concatenate([
        _gate_table(sample_ordered_cubics(n, rng)),
        _gate_table(sample_collinear(400, rng)),
    ])
    passed, _ = _t5_rows(table)
    s1, s2 = ratios_direct_array(table[n:])
    col_worst = float(np.max(np.maximum(np.abs(s1.imag), np.abs(s2.imag))))
    # on the rays the v-numerators -2t -+ sqrt(t^2 - 3) never vanish,
    # so ray configurations never have a real ratio
    ray_min = _ray_envelope(_t5_ray)
    ok = bool(passed.all()) and col_worst <= 1e-10 and ray_min > 0.0
    note = (
        f"{n} random + 400 collinear; max |Im sigma| on collinear = {col_worst:.3e}; "
        f"ray min |Im sigma1| = {ray_min:.3e}"
    )
    return [TheoremReport("T5", ok, _last_failing(table, passed), col_worst, note)]


def _claims_hyp(samples: int, seed: int) -> list[TheoremReport]:
    rng = _rng_for(seed, 6)
    n = max(1000, samples // 10)
    table = _gate_table(sample_hyperbolic(n, rng))
    passed, margins = _hyp_rows(table)
    margin = float(margins.min())
    ok = bool(passed.all()) and margin > 0.0
    return [TheoremReport("HYP", ok, _last_failing(table, passed), margin, f"{n} samples")]


def run_claims(
    selector: str = "all", samples: int = 100000, seed: int = DEFAULT_SEED
) -> list[TheoremReport]:
    """Run the selected claim group(s); deterministic for a given seed."""
    sel = selector.upper() if selector.lower() != "all" else "all"
    if sel not in CLAIM_GROUPS:
        raise BadParameterError(f"unknown selector {selector!r}; choose from {CLAIM_GROUPS}")
    if samples < 1:
        raise BadParameterError(f"samples must be at least 1, got {samples}")
    reports: list[TheoremReport] = []
    if sel in ("all", "L1"):
        reports.extend(scan_lemma1())
    if sel in ("all", "L2"):
        reports.extend(scan_lemma2())
    if sel in ("all", "T1", "T2", "T3"):
        shared, (strays1, strays2) = _bounds_claims(samples, seed)
        if sel in ("all", "T1"):
            reports.extend(_claims_t1(seed, shared, strays1))
        if sel in ("all", "T2"):
            reports.extend(_claims_t2(seed, shared, strays2))
        if sel in ("all", "T3"):
            reports.extend(_claims_t3(shared))
    if sel in ("all", "T4"):
        reports.extend(_claims_t4(samples, seed))
    if sel in ("all", "T5"):
        reports.extend(_claims_t5(samples, seed))
    if sel in ("all", "HYP"):
        reports.extend(_claims_hyp(samples, seed))
    return reports
