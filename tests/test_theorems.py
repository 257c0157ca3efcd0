import ast
import cmath
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ratiolab import (
    CLAIM_GROUPS,
    CLAIMS,
    BadParameterError,
    Configuration,
    ConstraintViolatedError,
    CriticalRealPartsEqualError,
    NotHyperbolicError,
    SQRT3,
    RatioPath,
    RatioVector,
    UndefinedRatioError,
    bounds_mask,
    check_bounds,
    check_equivalence_t4,
    check_equivalence_t5,
    check_hyperbolic,
    classify_configuration,
    extremal_family_im,
    normalize,
    order_roots,
    ratios_direct,
    run_claims,
    sample_collinear,
    sample_equilateral,
    sample_hyperbolic,
    sample_near_equilateral,
    sample_ordered_cubics,
    scan_lemma1,
    scan_lemma2,
    sharpness_probe_re,
    sigma2_extremal_family,
)
from ratiolab import theorems
from ratiolab.cubic import GATE_TABLE, OrderedCubic, order_roots_array
from ratiolab.errors import BadRangeError
from ratiolab.ratios import _ray_terms, _ray_values, boundary_modulus_sq, boundary_sigma_diff, boundary_uv
from ratiolab.kernel import _ARRAY, EQ_TOL, IDENTITY_TOL
from ratiolab.theorems import CLOSED_BOUND_SLACK, DEFAULT_SEED, lemma1_expressions, lemma2_expressions
from test_cubic import _reference_collinear


def test_lemma1_spot_values():
    a, b = lemma1_expressions(2.0)
    assert abs(a - (-9.0)) < 1e-12  # 4*2*1 - 20 + 3
    a, _ = lemma1_expressions(SQRT3)
    assert abs(a - (-12.0)) < 1e-12  # radical term vanishes
    # squaring identity at t = 2: 16*4*1 - 17^2 = -225 = -9 * 25
    t = 2.0
    lhs = 16 * t * t * (t * t - 3) - (5 * t * t - 3) ** 2
    assert lhs == -225.0 == -9.0 * (t * t + 1) ** 2
    # t = +-2 makes sqrt(t^2 - 3) = 1, so the scanned A B is exact there
    for t in (2.0, -2.0):
        a, b = lemma1_expressions(t)
        assert a * b == theorems._L1_IDENTITY.product(int(t)) == -225


def test_lemma2_spot_values():
    a, b = lemma2_expressions(-2.0)
    assert abs(a) < 1e-12  # -8 + 14 - 2*3*1 = 0
    a, _ = lemma2_expressions(2.0)
    assert abs(a - (-12.0)) < 1e-12  # 8 - 14 - 6
    t = 3.0
    lhs = (t**3 - 7 * t) ** 2 - 4 * (t * t - 1) ** 2 * (t * t - 3)
    rhs = -3 * (t - 2) * (t + 2) * (t * t + 1) ** 2
    assert lhs == -1500.0 == rhs
    for t in (2.0, -2.0):
        a, b = lemma2_expressions(t)
        assert a * b == theorems._L2_IDENTITY.product(int(t)) == 0


def test_scan_lemma1_short_grid():
    ra, rb = scan_lemma1(SQRT3, 50.0, 2000)
    assert ra.claim_id == "L1A" and rb.claim_id == "L1B"
    assert ra.passed and rb.passed
    assert ra.margin > 3.0 and rb.margin > 3.0


def test_scan_lemma2_short_grid():
    ra, rb = scan_lemma2(SQRT3, 50.0, 2000)
    assert ra.passed and rb.passed
    assert ra.margin <= 1e-9 and rb.margin <= 1e-9
    for rep, where in ((ra, -2.0), (rb, 2.0)):
        # the note lists plain floats, so it parses as a Python literal
        roots = ast.literal_eval(rep.note.split("roots ")[1])
        assert len(roots) == 1 and type(roots[0]) is float
        assert abs(roots[0] - where) <= 1e-12


def test_scan_range_validation():
    # t_min inside the rays' EQ_TOL band below sqrt(3) is off the rays
    for t_min in (1.0, SQRT3 - EQ_TOL / 2, math.nextafter(SQRT3, 0)):
        for scan in (scan_lemma1, scan_lemma2):
            with pytest.raises(BadRangeError):
                scan(t_min, 50.0, 2000)
    with pytest.raises(BadRangeError):
        scan_lemma1(SQRT3, 50.0, 10)
    # steps must be an integer, a numpy one included
    for scan in (scan_lemma1, scan_lemma2):
        for steps in (2000.0, np.float64(2000), "2000"):
            with pytest.raises(BadRangeError, match="steps"):
                scan(SQRT3, 50.0, steps)
        assert all(rep.passed for rep in scan(SQRT3, 50.0, np.int64(2000)))
    with pytest.raises(BadRangeError):
        scan_lemma2(50.0, 2.0, 2000)
    # t_max must lie below 1e9, where the grid's tail ends
    for t_min, t_max in ((SQRT3, 1e77), (SQRT3, math.inf)):
        for scan in (scan_lemma1, scan_lemma2):
            with pytest.raises(BadRangeError):
                scan(t_min, t_max, 2000)


def _grid(t_min=SQRT3, t_max=1e3, steps=10**6):
    """The scanned branch t >= t_min as one array: np.linspace from t_min
    to t_max, then the np.logspace tail out to 1e9 without its first
    point."""
    return np.concatenate([np.linspace(t_min, t_max, steps), np.logspace(math.log10(t_max), 9.0, 1000)[1:]])


def _both_branches(t_min=SQRT3, t_max=1e3, steps=10**6):
    """The ascending grid of both rays: the scanned branch t >= t_min and
    its mirror image."""
    g = _grid(t_min, t_max, steps)
    return np.concatenate([-g[::-1], g])


def _reference_scan_lemma1(t_min=SQRT3, t_max=1e3, steps=10**6):
    """scan_lemma1 over both branches at once, without blocks."""
    grid = _both_branches(t_min, t_max, steps)
    a, b = lemma1_expressions(grid)
    note = "identity A*B = -9 (t^2 + 1)^2 exact"
    min_a = float(np.min(np.abs(a)))
    min_b = float(np.min(np.abs(b)))
    return (
        theorems.TheoremReport("L1A", min_a > 0.0, None, min_a, note),
        theorems.TheoremReport("L1B", min_b > 0.0, None, min_b, note),
    )


def _reference_scan_lemma2(t_min=SQRT3, t_max=1e3, steps=10**6):
    """scan_lemma2 over both branches at once, without blocks, bracketing
    each branch on its own coarse sub-grid; the same _cube, so only the
    mirror and the blocking differ."""
    grid = _both_branches(t_min, t_max, steps)
    half = len(grid) // 2
    stride = max(1, half // 10000)
    branches = (grid[:half][::stride], grid[half:][::stride])
    roots_a = [r for br in branches for r in theorems._sign_change_roots(lambda t: lemma2_expressions(t)[0], br)]
    roots_b = [r for br in branches for r in theorems._sign_change_roots(lambda t: lemma2_expressions(t)[1], br)]
    note = "identity A*B = -3 (t - 2)(t + 2)(t^2 + 1)^2 exact"

    ok_a = len(roots_a) == 1 and abs(roots_a[0] + 2.0) <= 1e-9
    ok_b = len(roots_b) == 1 and abs(roots_b[0] - 2.0) <= 1e-9
    dev_a = max((abs(r + 2.0) for r in roots_a), default=math.inf)
    dev_b = max((abs(r - 2.0) for r in roots_b), default=math.inf)
    return (
        theorems.TheoremReport("L2A", ok_a, None, dev_a, note + f"; roots {roots_a}"),
        theorems.TheoremReport("L2B", ok_b, None, dev_b, note + f"; roots {roots_b}"),
    )


_IDENTITIES = {"L1": theorems._L1_IDENTITY, "L2": theorems._L2_IDENTITY}


def test_lemma_identities_hold_beyond_their_degree():
    # the scans check the d + 1 integers 0 ... d; both identities hold on
    # -10 ... 16 too, and there each side's (d + 1)-th finite difference
    # vanishes, so no side has a degree above the stated d
    ts = range(-10, 17)
    for identity in _IDENTITIES.values():
        assert all(identity.product(t) == identity.factored(t) for t in ts)
        for side in (identity.product, identity.factored):
            values = [side(t) for t in ts]
            for _ in range(identity.degree + 1):
                values = [b - a for a, b in zip(values, values[1:])]
            assert values == [0] * (len(ts) - identity.degree - 1)
    assert (theorems._L1_IDENTITY.degree, theorems._L2_IDENTITY.degree) == (4, 6)


def test_lemma_identities_match_the_scanned_expressions():
    # on floats, A B of the scanned expressions is the factored form up to
    # rounding: the integer identities are about the expressions scanned
    t = np.concatenate([-_grid(SQRT3, 50.0, 1000)[::-1], _grid(SQRT3, 50.0, 1000)])
    for expressions, identity in zip((lemma1_expressions, lemma2_expressions), _IDENTITIES.values()):
        a, b = expressions(t)
        scale = (t * t + 1.0) ** (identity.degree // 2)
        assert np.all(np.abs(a * b - identity.factored(t)) <= 1e-12 * scale)


@pytest.mark.parametrize("lemma, power, off_by", [
    (lemma, power, off_by)
    for lemma, identity in _IDENTITIES.items()
    for power in range(identity.degree + 1)
    for off_by in (1, -1)
])
def test_a_planted_wrong_identity_fails_its_lemma(monkeypatch, lemma, power, off_by):
    # the coefficient of t^power of the factored form off by one
    identity = _IDENTITIES[lemma]
    wrong = identity._replace(factored=lambda t: identity.factored(t) + off_by * t**power)
    monkeypatch.setattr(theorems, f"_{lemma}_IDENTITY", wrong)
    scan = {"L1": scan_lemma1, "L2": scan_lemma2}[lemma]
    reports = scan(SQRT3, 50.0, 2000)
    assert [r.claim_id for r in reports] == [lemma + "A", lemma + "B"]
    assert not any(r.passed for r in reports)
    for rep in reports:
        assert rep.note.startswith(f"identity {identity.text} fails at t = ")
    # the rest of the scan is untouched: margins, and L2's roots
    monkeypatch.setattr(theorems, f"_{lemma}_IDENTITY", identity)
    assert [r.margin for r in reports] == [r.margin for r in scan(SQRT3, 50.0, 2000)]
    if lemma == "L2":
        assert [r.note.split("; ")[1] for r in reports] == ["roots [-2.0]", "roots [2.0]"]


def _assert_same_reports(got, want):
    assert got == want
    assert [r.margin.hex() for r in got] == [r.margin.hex() for r in want]


#: The scan block, which the seam parameters below target.
_BLOCK = theorems._SCAN_BLOCK


# the scanned branch has steps + 999 points: 1 999 (under one block), a
# block exactly, and a block plus one or two points; over both branches, as
# the references walk them, _BLOCK / 2 - 999 and one more step give one
# block and one block plus two points. At _BLOCK steps t_max is the last
# point of the first block and the tail starts the second; at _BLOCK + 1
# steps t_max starts the second block.
@pytest.mark.parametrize(
    "args",
    [(), (SQRT3, 50.0, 2000), (SQRT3, 1e3, 10**6), (2.5, 40.0, 5000),
     (SQRT3, 5.0, 1000), (SQRT3, 5.0, _BLOCK // 2 - 999), (SQRT3, 5.0, _BLOCK // 2 - 998),
     (SQRT3, 5.0, _BLOCK - 999), (SQRT3, 5.0, _BLOCK - 998), (SQRT3, 5.0, _BLOCK - 997),
     (SQRT3, 5.0, _BLOCK), (SQRT3, 5.0, _BLOCK + 1)],
)
def test_blocked_scans_match_the_unblocked_scans(args):
    _assert_same_reports(scan_lemma1(*args), _reference_scan_lemma1(*args))
    _assert_same_reports(scan_lemma2(*args), _reference_scan_lemma2(*args))


# the branch of (SQRT3, 50.0, 4999) has 5 998 points: one block plus one
# point, and five blocks plus a short sixth one
@pytest.mark.parametrize("block", [5997, 1000])
def test_blocked_scans_match_across_planted_seams(monkeypatch, block):
    assert theorems._scan_grid(SQRT3, 5.0, _BLOCK - 999).size == theorems._SCAN_BLOCK
    args = (SQRT3, 50.0, 4999)
    assert theorems._scan_grid(*args).size == 5998
    monkeypatch.setattr(theorems, "_SCAN_BLOCK", block)
    _assert_same_reports(scan_lemma1(*args), _reference_scan_lemma1(*args))
    _assert_same_reports(scan_lemma2(*args), _reference_scan_lemma2(*args))


@pytest.mark.parametrize("extra", [-1, 0, 1, 2])
def test_blocks_cover_the_grid_in_order(extra):
    # branches of the least size (1 999 points), and of one and of three
    # blocks give or take a point or two
    block = theorems._SCAN_BLOCK
    for size in (1999, block + extra, 3 * block + extra):
        args = (SQRT3, 5.0, size - 999)
        blocks = list(theorems._blocks(theorems._scan_grid(*args)))
        assert all(len(b) == block for b in blocks[:-1]) and 0 < len(blocks[-1]) <= block
        assert np.array_equal(np.concatenate(blocks).view(np.uint64), _grid(*args).view(np.uint64))


# the lemma grid and the ray grid; t_max inside a block, on a block's last
# point (_BLOCK steps, where the tail starts the next block) and on a
# block's first point (_BLOCK + 1 steps); integer bounds; a coarse stride of
# 2 that takes the t_max point (20 001 steps)
@pytest.mark.parametrize(
    "args",
    [(SQRT3, 1e3, 10**6), (SQRT3, 1e3, 200000), (2.5, 40.0, 5000), (SQRT3, 50.0, 4999),
     (SQRT3, 5.0, _BLOCK), (SQRT3, 5.0, _BLOCK + 1), (2, 7, 1000), (SQRT3, 5.0, 20001)],
)
def test_generated_grid_is_linspace_and_logspace_bit_for_bit(args):
    grid, want = theorems._scan_grid(*args), _grid(*args)
    assert grid.size == len(want)
    got = np.concatenate(list(theorems._blocks(grid)))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[grid.steps - 1] == args[1] < got[grid.steps]
    # scan_lemma2's coarse sub-grid: every stride-th point
    stride = max(1, grid.size // 10000)
    coarse = theorems._points(grid, range(0, grid.size, stride))
    assert np.array_equal(coarse.view(np.uint64), want[::stride].view(np.uint64))


def test_generated_grid_ends_its_linear_part_on_t_max():
    # on the lemma grid, index times step plus t_min misses t_max by an ulp:
    # the point at index steps - 1 is t_max itself, as np.linspace sets it
    grid = theorems._scan_grid(SQRT3, 1e3, 10**6)
    assert grid.t_min + (grid.steps - 1) * grid.step != grid.t_max
    (last,) = theorems._points(grid, range(grid.steps - 1, grid.steps))
    assert last == grid.t_max == 1e3


def test_cube_is_odd_and_within_one_ulp_of_pow():
    grid = _both_branches()
    cube, pow3 = theorems._cube(grid), grid**3
    assert np.array_equal(theorems._cube(-grid), -cube)
    assert np.array_equal(np.signbit(cube), np.signbit(grid))
    assert np.all(np.abs(cube - pow3) <= np.spacing(np.abs(pow3)))
    assert theorems._cube(-2.0) == -8.0 and theorems._cube(3.0) == 27.0


@pytest.mark.parametrize("args", [(SQRT3, 1e3, 10**6), (SQRT3, 1e3, 200000)], ids=["lemma", "ray"])
def test_mirror_maps_each_scanned_expression_onto_its_partner(args):
    # the premise of scanning t >= sqrt(3) only: on both branches, each
    # expression at -t is its partner at t, bit for bit
    t = _both_branches(*args)
    for expressions in (lemma1_expressions, lemma2_expressions):
        a, b = expressions(t)
        mirror_a, mirror_b = expressions(-t)
        assert np.array_equal(mirror_a, -b) and np.array_equal(mirror_b, -a)
    # the in-place bodies the scans run, on buffers that hold NaN, and the
    # operator spellings have the bits of the public expressions and terms
    dirty = np.full((5, t.size), np.nan)
    a, b = lemma1_expressions(t)
    r = np.sqrt(np.maximum(t * t - 3.0, 0.0))
    for got in (theorems._lemma1_into(t, *dirty[:3]),
                (4.0 * t * r - 5.0 * t * t + 3.0, 4.0 * t * r + 5.0 * t * t - 3.0)):
        assert all(np.array_equal(x.view(np.uint64), y.view(np.uint64)) for x, y in zip(got, (a, b)))
    dirty[:] = np.nan
    a = np.abs(t)
    square = a * a
    r = np.sqrt(np.maximum(square - 3.0, 0.0))
    want = (a, r, square + 3.0 + a * r, square, square + 1.0)
    for got in (_ray_values(_ARRAY, t, dirty), _ray_terms(t)):
        assert all(np.array_equal(x.view(np.uint64), y.view(np.uint64)) for x, y in zip(got[2:], want))
    u1, u2, v1, v2 = boundary_uv(t)
    for got, want in zip(boundary_uv(-t), (u2, u1, -v2, -v1)):
        assert np.array_equal(got, want)
    a, b = boundary_modulus_sq(t)
    mirror_a, mirror_b = boundary_modulus_sq(-t)
    assert np.array_equal(mirror_a, b) and np.array_equal(mirror_b, a)
    assert np.array_equal(boundary_sigma_diff(-t), boundary_sigma_diff(t))


@pytest.mark.parametrize("scan", [scan_lemma1, scan_lemma2])
def test_lemma_scan_memory_bounded(scan):
    # the grid included: its points are made block by block
    tracemalloc.start()
    try:
        scan()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_check_bounds_hyperbolic_margins():
    rv = ratios_direct(order_roots(-1, 0, 1))
    reports = {r.claim_id: r for r in check_bounds(rv)}
    assert all(r.passed for r in reports.values())
    expected_t3 = 2.0 * SQRT3 / 3.0 - 1.0
    assert abs(reports["T3"].margin - expected_t3) < 1e-12


def test_check_bounds_equilateral_t3_margin_zero():
    rv = ratios_direct(order_roots(-1, SQRT3 * 1j, 1))
    reports = {r.claim_id: r for r in check_bounds(rv)}
    assert abs(reports["T3"].margin) < 1e-15
    assert reports["T3"].passed


def test_check_bounds_extremal_im_margin_zero():
    _, rv = extremal_family_im(1 - 4j, 0j, +1)
    reports = {r.claim_id: r for r in check_bounds(rv)}
    assert abs(reports["T1B"].margin) < 1e-15
    assert reports["T1B"].passed


def test_sharpness_probe_values():
    _, rv = sharpness_probe_re(100.0)
    assert rv.sigma1.real >= 0.66
    _, rv = sharpness_probe_re(-100.0)
    assert rv.sigma1.real <= 0.01
    _, rv = sharpness_probe_re(2.0)
    assert abs(rv.sigma1 - (0.6 - 0.2j)) < 1e-12
    with pytest.raises(BadParameterError):
        sharpness_probe_re(1.0)


def test_sharpness_probe_matches_ray_parameterization():
    for t in (2.0, 5.0, 37.5, 400.0, -2.0, -5.0, -37.5, -400.0):
        _, rv = sharpness_probe_re(t)
        u1, _, v1, _ = boundary_uv(t)
        assert abs(rv.sigma1.real - u1) < 1e-9
        assert abs(rv.sigma1.imag - v1) < 1e-9


def test_sharpness_attainment_monotone():
    values = [sharpness_probe_re(t)[1].sigma1.real for t in (10.0, 1e2, 1e3, 1e4)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[2] > 0.666
    downsides = [sharpness_probe_re(-t)[1].sigma1.real for t in (10.0, 1e2, 1e3, 1e4)]
    assert all(b < a for a, b in zip(downsides, downsides[1:]))


def test_extremal_family_im_positive():
    cub, rv = extremal_family_im(1 - 4j, 0j, +1)
    assert {cub.w1, cub.w2, cub.w3} == {-4 - 1j, 2 - 8j, 4 + 1j}
    assert abs(rv.sigma1 - (1 / 3 + 1j / 3)) < 1e-12
    assert abs(rv.sigma1.imag - 1 / 3) < 1e-12


def test_extremal_family_im_negative():
    _, rv = extremal_family_im(1 + 4j, 0j, -1)
    assert abs(rv.sigma1.imag + 1 / 3) < 1e-12


def test_extremal_family_im_translation_invariant():
    _, rv = extremal_family_im(1 - 4j, 3.5 - 2.25j, +1)
    assert abs(rv.sigma1.imag - 1 / 3) < 1e-12


def test_extremal_family_constraint_validation():
    with pytest.raises(ConstraintViolatedError):
        extremal_family_im(1 + 4j, 0j, +1)  # wrong half plane
    with pytest.raises(ConstraintViolatedError):
        extremal_family_im(3 - 4j, 0j, +1)  # Re z0 too large
    with pytest.raises(BadParameterError):
        extremal_family_im(1 - 4j, 0j, 2)


def test_mirror_family_does_not_attain_extreme():
    # other side of the strip (Re w2 < 0): sigma1 = 3/5 + i/5, not extremal
    u = -1 - 4j
    c = order_roots(1j * u, -1j * u, 2 * u)
    rv = ratios_direct(c)
    assert abs(rv.sigma1 - (0.6 + 0.2j)) < 1e-12
    assert abs(rv.sigma1.imag - 1 / 3) > 0.1


def test_sigma2_family_attains_extreme():
    _, rv = sigma2_extremal_family(-1 - 4j, 0j, +1)
    assert abs(rv.sigma2.imag - 1 / 3) < 1e-12
    _, rv = sigma2_extremal_family(-1 + 4j, 0j, -1)
    assert abs(rv.sigma2.imag + 1 / 3) < 1e-12
    with pytest.raises(ConstraintViolatedError):
        sigma2_extremal_family(1 - 4j, 0j, +1)


def test_sigma1_family_misses_sigma2_extreme():
    # on the sigma1 strip the second ratio sits at (2 + i)/5
    _, rv = extremal_family_im(1 - 4j, 0j, +1)
    assert abs(rv.sigma2 - (0.4 + 0.2j)) < 1e-12
    assert abs(rv.sigma2.imag - 1 / 3) > 0.13


@pytest.mark.parametrize(
    "family, cases",
    [
        (extremal_family_im, [(1 - 4j, +1, True), (1 + 4j, -1, True), (3 - 4j, +1, False)]),
        (sigma2_extremal_family, [(-1 - 4j, +1, True), (-1 + 4j, -1, True), (-3 - 4j, +1, False)]),
    ],
)
def test_families_scale_free(family, cases):
    # the strips are cones: scaling z0 by lambda > 0 neither moves a point
    # across an edge nor changes the ratios
    for z0, sign, inside in cases:
        ref = family(z0, 0j, sign)[1] if inside else None
        for lam in 10.0 ** np.linspace(-90, 90, 37):
            if not inside:
                with pytest.raises(ConstraintViolatedError):
                    family(lam * z0, 0j, sign)
                continue
            _, rv = family(lam * z0, 0j, sign)
            assert abs(rv.sigma1 - ref.sigma1) <= 1e-12
            assert abs(rv.sigma2 - ref.sigma2) <= 1e-12


def _reference_im_attainment(cid, k, sign, rng, strays, tail):
    """_im_attainment as a loop over 64 draws, each four scalar rng.uniform
    calls and one scalar family member; a strictly larger deviation takes
    the witness, so it is the first draw at the maximum."""
    re_sign = (+1, -1)[k - 1]
    strays = strays[k - 1]
    worst = 0.0
    witness = None
    for _ in range(64):
        y = rng.uniform(0.5, 4.0) * (-1 if sign > 0 else 1)
        x = re_sign * rng.uniform(0.05, 0.95) * (abs(y) / 2.0)
        z0 = complex(x, y)
        off = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        cub, rv = theorems._im_family(z0, off, sign, re_sign)
        dev = abs((rv.sigma1, rv.sigma2)[k - 1].imag - sign / 3.0)
        if dev > worst:
            worst = dev
            witness = theorems._witness(cub, rv)
    ok = worst <= theorems._FAMILY_TOL and not strays
    note = f"max |Im sigma{k} - ({sign:+d}/3)| = {worst:.3e}{tail}"
    if strays:
        note += f"; {len(strays)} stray attainments"
    witness = None if ok else strays[0] if worst <= theorems._FAMILY_TOL else witness
    return theorems.TheoremReport(cid, ok, witness, worst, note)


#: The attainment claims: (k, rng stream, the claims in the order they draw).
_ATTAINMENTS = ((1, 2, (("T1C", +1), ("T1D", -1))), (2, 3, (("T2C", +1), ("T2D", -1))))


def _attainment_pairs(seed, strays=([], [])):
    """(array report, reference report) of each attainment claim, both
    drawing from their own generators at the claim's stream."""
    for k, stream, claims in _ATTAINMENTS:
        rngs = theorems._rng_for(seed, stream), theorems._rng_for(seed, stream)
        for cid, sign in claims:
            yield tuple(f(cid, k, sign, rng, strays, " tail")
                        for f, rng in zip((theorems._im_attainment, _reference_im_attainment), rngs))


def _report_key(rep):
    return rep.claim_id, rep.passed, rep.margin.hex(), rep.witness, rep.note


@pytest.mark.parametrize("seed", [1, 1729, 31337])
def test_array_families_match_the_scalar_loop(seed):
    for got, want in _attainment_pairs(seed):
        assert got.passed and got.witness is None
        assert _report_key(got) == _report_key(want)


def test_array_families_report_the_first_draw_at_the_largest_deviation(monkeypatch):
    # with no deviation allowed every claim fails on its family, and the
    # witness is the scalar loop's: the first draw at the maximum
    monkeypatch.setattr(theorems, "_FAMILY_TOL", 0.0)
    for got, want in _attainment_pairs(1729):
        assert not got.passed and got.witness is not None
        assert _report_key(got) == _report_key(want)


class _FixedGenerator:
    """A generator whose every family draw is the four variates row."""

    def __init__(self, row):
        self.row = row

    def random(self, size):
        return np.tile(self.row, (size[0], 1))


@pytest.mark.parametrize("k, sign", [(1, +1), (1, -1), (2, +1), (2, -1)])
def test_array_family_raises_as_the_scalar_family(k, sign):
    # every variate 1.2: Re z0 lands past the strip
    with pytest.raises(ConstraintViolatedError):
        theorems._im_attainment("T", k, sign, _FixedGenerator([1.2] * 4), ([], []), "")
    # |Im z0| = 2 and Re z0 = +-3e-9, inside the strip's band of 2e-9 but
    # with critical points closer in real part than the gate's band
    row = [1.5 / 3.5, (3e-9 - 0.05) / 0.9, 0.5, 0.5]
    with pytest.raises(CriticalRealPartsEqualError):
        theorems._im_attainment("T", k, sign, _FixedGenerator(row), ([], []), "")
    z0 = complex((1, -1)[k - 1] * 3e-9, -sign * 2.0)
    with pytest.raises(CriticalRealPartsEqualError):
        theorems._im_family(z0, 0j, sign, (1, -1)[k - 1])


def test_a_stray_alone_is_the_witness_of_its_attainment_claim(monkeypatch):
    # test_bounds_pass_reports_stray_attainment's pair strays on sigma1
    # (Im sigma1 = -0.362); its negation, sigma2' = 1 - sigma1, on sigma2
    w2 = 3.1348651577320052 + 9.238696826921835j
    w3 = 4.664688529761268 - 1.789596054354937j
    planted = order_roots(-w3, w2, w3)
    negated = order_roots(*(-z for z in planted.roots))
    reports, (strays1, _), _ = _planted_pass(monkeypatch, planted)
    _, (_, strays2), _ = _planted_pass(monkeypatch, negated)
    assert len(strays1) == len(strays2) == 1
    strays = (strays1, strays2)
    got = theorems._claims_t1(1, reports, strays, 0.0) + theorems._claims_t2(1, reports, strays)
    got = {rep.claim_id: rep for rep in got}
    for cid, stray in (("T1C", strays1[0]), ("T1D", strays1[0]), ("T2C", strays2[0]), ("T2D", strays2[0])):
        rep = got[cid]
        # the family holds; the claim fails on the stray alone
        assert not rep.passed and rep.margin <= theorems._FAMILY_TOL and rep.note.endswith("1 stray attainments")
        assert rep.witness == stray
    assert got["T1C"].witness.sigma1.imag < -0.36 and got["T2C"].witness.sigma2.imag > 0.36


def test_t4_equivalence_cases():
    assert check_equivalence_t4(order_roots(-1, SQRT3 * 1j, 1)).passed
    assert check_equivalence_t4(order_roots(-1, 0, 1)).passed
    rep = check_equivalence_t4(order_roots(-1, SQRT3 * 1j + 0.01, 1))
    assert rep.passed  # near-equilateral: neither equal nor classified equilateral
    c = order_roots(-1, -SQRT3 * 1j, 1)
    assert classify_configuration(c) is Configuration.EQUILATERAL
    rv = ratios_direct(c)
    assert abs(rv.sigma1 - rv.sigma2) < 1e-12


def test_t4_near_equilateral_set():
    # the apex moved by |d| log-uniform in [1e-12, 1e-3], random direction:
    # equilateral (double critical point) exactly where sigma1 = sigma2
    rng = np.random.default_rng(20260)
    mags = 10.0 ** rng.uniform(-12.0, -3.0, 2000)
    angles = rng.uniform(0.0, 2.0 * np.pi, 2000)
    built = 0
    for mag, ang in zip(mags, angles):
        try:
            c = order_roots(-1, SQRT3 * 1j + cmath.rect(mag, ang), 1)
        except UndefinedRatioError:
            continue  # critical points on a common vertical line
        built += 1
        rep = check_equivalence_t4(c)
        assert rep.passed, (mag, ang, rep.margin)
    assert built >= 1990


def test_t5_equivalence_cases():
    assert check_equivalence_t5(order_roots(-1 - 1j, 0, 1 + 1j)).passed
    rv = ratios_direct(order_roots(-1 - 1j, 0, 1 + 1j))
    assert abs(rv.sigma1.imag) < 1e-12 and abs(rv.sigma2.imag) < 1e-12
    assert check_equivalence_t5(order_roots(-1, SQRT3 * 1j, 1)).passed
    assert check_equivalence_t5(order_roots(-1, 0, 1)).passed
    assert check_equivalence_t5(order_roots(-4 - 1j, -2 + 8j, 4 + 1j)).passed


def test_hyperbolic_cases():
    rep = check_hyperbolic(order_roots(-1, 0, 1))
    assert rep.passed
    rv = ratios_direct(order_roots(-1, 0, 1))
    assert 1 / 3 < rv.sigma1.real < 0.5 < rv.sigma2.real < 2 / 3
    assert check_hyperbolic(order_roots(0, 1, 100)).passed
    assert check_hyperbolic(order_roots(0, 1, 1 + 1e-6)).passed
    with pytest.raises(NotHyperbolicError):
        check_hyperbolic(order_roots(-1, 1j, 1))
    # realness is relative to the diameter: (-1, 1j, 1) scaled down is not
    # real, and a 1j offset on a 3e10-wide triangle is
    with pytest.raises(NotHyperbolicError):
        check_hyperbolic(order_roots(0, 1e-10, 2e-10 + 5e-10j))
    assert check_hyperbolic(order_roots(0, 1e10, 3e10 + 1j)).passed


def test_run_claims_selector_validation():
    with pytest.raises(BadParameterError):
        run_claims("T9", samples=100)


@pytest.mark.parametrize("samples", [20000.0, np.float64(100), "100", None])
def test_run_claims_rejects_a_non_integer_sample_count_before_any_work(monkeypatch, samples):
    for name in ("scan_lemma1", "scan_lemma2"):
        monkeypatch.setattr(theorems, name, lambda: pytest.fail("a scan ran"))
    with pytest.raises(BadParameterError, match="samples"):
        run_claims("all", samples)


def test_run_claims_accepts_numpy_integer_sample_counts():
    assert run_claims("T3", np.int64(400), 7) == run_claims("T3", 400, 7)


@pytest.mark.parametrize("selector", ["all", "L1", "T1", "T3", "HYP"])
@pytest.mark.parametrize("samples", [0, -5])
def test_run_claims_rejects_sample_counts_below_one(selector, samples):
    with pytest.raises(BadParameterError, match="samples"):
        run_claims(selector, samples=samples)


@pytest.mark.parametrize("selector", CLAIM_GROUPS)
@pytest.mark.parametrize("seed", [-1, np.int64(-1), 1.0, "1"])
def test_run_claims_rejects_a_bad_seed_for_every_group_before_any_work(monkeypatch, selector, seed):
    for name in ("scan_lemma1", "scan_lemma2"):
        monkeypatch.setattr(theorems, name, lambda: pytest.fail("a scan ran"))
    with pytest.raises(BadParameterError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
        run_claims(selector, samples=100, seed=seed)


def test_run_claims_lemma_groups():
    reports = run_claims("L2", samples=100)
    assert [r.claim_id for r in reports] == ["L2A", "L2B"]
    assert all(r.passed for r in reports)


def test_run_claims_t3_smoke():
    reports = run_claims("T3", samples=400, seed=7)
    assert len(reports) == 1 and reports[0].claim_id == "T3"
    assert reports[0].passed
    assert reports[0].margin >= -1e-12


def test_run_claims_deterministic():
    a = run_claims("HYP", samples=500, seed=42)
    b = run_claims("HYP", samples=500, seed=42)
    assert a == b


# ---------------------------------------------------------------------------
# the claim table and its readers


def _readme_claim_table():
    """The table lines under README's "## Claim catalog" heading."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    section = lines[lines.index("## Claim catalog"):]
    table = itertools.dropwhile(lambda line: not line.startswith("|"), section)
    return list(itertools.takewhile(lambda line: line.startswith("|"), table))


def test_readme_claim_table_renders_claims():
    rendered = ["| id | statement (verified numerically) |", "|----|----------------------------------|"]
    rendered += ["| " + ", ".join(c.ids) + " | " + c.statement.replace("|", "\\|") + " |" for c in CLAIMS]
    assert _readme_claim_table() == rendered


@pytest.fixture(scope="module")
def all_claims():
    return run_claims("all", 2000, 7)


def test_run_claims_reports_the_catalog_in_order(all_claims):
    assert CLAIM_GROUPS == ("all", "L1", "L2", "T1", "T2", "T3", "T4", "T5", "HYP")
    assert [r.claim_id for r in all_claims] == [cid for c in CLAIMS for cid in c.ids]


@pytest.mark.parametrize("group", CLAIM_GROUPS[1:])
def test_each_claim_group_alone_is_its_slice_of_all(all_claims, group):
    ids = {cid for c in CLAIMS if c.group == group for cid in c.ids}
    assert run_claims(group, 2000, 7) == [r for r in all_claims if r.claim_id in ids]


def test_run_claims_draws_the_bounds_pass_only_when_asked_and_once(monkeypatch):
    calls = []
    bounds_claims = theorems._bounds_claims
    monkeypatch.setattr(theorems, "_bounds_claims", lambda *args: calls.append(args) or bounds_claims(*args))
    run_claims("L2", 500, 7)
    assert calls == []
    # the groups that do not read the pass, made cheap
    for name in ("scan_lemma1", "scan_lemma2"):
        monkeypatch.setattr(theorems, name, lambda: ())
    for name in ("_claims_t4", "_claims_t5", "_claims_hyp"):
        monkeypatch.setattr(theorems, name, lambda *args: [])
    assert [r.claim_id for r in run_claims("all", 500, 7)] == [
        "T1A", "T1B", "T1C", "T1D", "T1E", "T2A", "T2B", "T2C", "T2D", "T2E", "T3"]
    assert calls == [(500, 7)]


@pytest.mark.parametrize("envelope, passed", [
    (-CLOSED_BOUND_SLACK, True),
    (math.nextafter(-CLOSED_BOUND_SLACK, -math.inf), False),
])
def test_t1e_and_t3_ray_envelopes_share_the_closed_bound_threshold(monkeypatch, envelope, passed):
    # both envelopes are closed bounds: exactly -CLOSED_BOUND_SLACK passes,
    # one float lower fails
    monkeypatch.setattr(theorems, "_ray_envelopes", lambda *expressions: (envelope,) * len(expressions))
    reports = {r.claim_id: r for r in run_claims("T1", 2000, 7) + run_claims("T3", 2000, 7)}
    assert (reports["T1E"].passed, reports["T3"].passed) == (passed, passed)
    assert reports["T3"].margin == envelope


def _bound_edge_pairs():
    """(sigma1, sigma2) pairs that put one bound margin at 0, at
    +-CLOSED_BOUND_SLACK or at the floats next to them (and a few ulps
    around), with the other six margins comfortable."""
    slack = CLOSED_BOUND_SLACK
    targets = [0.0, 5e-324, -5e-324, slack, -slack]
    targets += [np.nextafter(x, d) for x in (slack, -slack) for d in (0.0, 2.0 * x)]
    families = {
        "T1A low": lambda x: (complex(x, 0.1), 0.6 - 0.1j),
        "T1A high": lambda x: (complex(2.0 / 3.0 - x, 0.0), 0.9 + 0j),
        "T1B": lambda x: (complex(0.4, 1.0 / 3.0 - x), 0.6 - 0.1j),
        "T1E": lambda x: ((2.0 / 3.0 - x) * (0.96 + 0.28j), 0.8 + 0j),
        "T2A low": lambda x: (0.2 + 0.1j, complex(1.0 / 3.0 + x, -0.1)),
        "T2A high": lambda x: (0.4 + 0.1j, complex(1.0 - x, 0.0)),
        "T2B": lambda x: (0.4 + 0.1j, complex(0.6, x - 1.0 / 3.0)),
        "T2E": lambda x: (0.4 + 0.1j, (1.0 - x) * (0.96 + 0.28j)),
        "T3": lambda x: (0.5 + 0.1j, complex(0.5 + x, -0.1)),
    }
    pairs = {}
    for name, family in families.items():
        out = []
        for x in targets:
            s1, s2 = family(x)
            for k in range(-3, 4):
                # nudge both parts of the ratio that carries the margin
                nudge = lambda v: complex(  # noqa: E731
                    v.real + k * np.spacing(v.real), v.imag + k * np.spacing(v.imag)
                )
                out.append((nudge(s1), s2) if name.startswith("T1") else (s1, nudge(s2)))
        pairs[name] = out
    return pairs


def test_bounds_mask_matches_check_bounds(rng):
    edges = _bound_edge_pairs()
    for name, pairs in edges.items():
        s1 = np.array([p[0] for p in pairs])
        s2 = np.array([p[1] for p in pairs])
        expected = [all(r.passed for r in check_bounds(RatioVector(a, b, RatioPath.INTERIOR)))
                    for a, b in pairs]
        assert bounds_mask(s1, s2).tolist() == expected, name
        assert any(expected) and not all(expected), name  # the edge is crossed
    s1 = rng.uniform(-0.1, 0.8, 20000) + 1j * rng.uniform(-0.4, 0.4, 20000)
    s2 = rng.uniform(0.2, 1.1, 20000) + 1j * rng.uniform(-0.4, 0.4, 20000)
    expected = [all(r.passed for r in check_bounds(RatioVector(a, b, RatioPath.INTERIOR)))
                for a, b in zip(s1.tolist(), s2.tolist())]
    mask = bounds_mask(s1, s2)
    assert mask.tolist() == expected
    assert 0 < mask.sum() < mask.size


_BOUND_IDS = ("T1A", "T1B", "T1E", "T2A", "T2B", "T2E", "T3")


def _reference_bounds_pass(cubics):
    """The bounds pass one sample at a time: check_bounds on every sample,
    a strictly smaller margin takes the witness, any failing sample marks
    the claim failed, and the verdict also needs the open or closed
    threshold on the smallest margin."""
    best = {cid: (math.inf, None) for cid in _BOUND_IDS}
    failed = set()
    strays = ([], [])
    window = max(EQ_TOL, math.sqrt(40.0 * EQ_TOL))
    for c in cubics:
        rv = ratios_direct(c)
        for rep in check_bounds(rv):
            if rep.margin < best[rep.claim_id][0]:
                best[rep.claim_id] = (rep.margin, theorems._witness(c, rv))
            if not rep.passed:
                failed.add(rep.claim_id)
        for s, found in zip((rv.sigma1, rv.sigma2), strays):
            if 1.0 / 3.0 - abs(s.imag) <= EQ_TOL:
                target = -2j if s.imag > 0 else 2j
                if abs(normalize(c).w - target) > window:
                    found.append(theorems._witness(c, rv))
    verdicts = {}
    for cid, (margin, witness) in best.items():
        threshold = margin > 0.0 if cid in ("T1A", "T2A") else margin >= -CLOSED_BOUND_SLACK
        verdicts[cid] = (cid not in failed and threshold, margin, witness)
    return verdicts, strays


def _assert_matches_reference(reports, strays, cubics):
    expected, expected_strays = _reference_bounds_pass(cubics)
    assert list(reports) == list(_BOUND_IDS)
    for cid, rep in reports.items():
        assert (rep.passed, rep.margin, rep.witness) == expected[cid], cid
    assert strays == expected_strays


@pytest.mark.parametrize("seed", [11, 2026])
def test_bounds_pass_matches_per_sample_loop(seed):
    reports, strays = theorems._bounds_claims(3000, seed)
    cubics = sample_ordered_cubics(3000, np.random.default_rng([seed, 1]))
    _assert_matches_reference(reports, strays, cubics)
    assert all(rep.passed for rep in reports.values())


def _planted_pass(monkeypatch, planted, samples=2000, at=1000):
    """_bounds_claims on the sampler's own draws with one cubic put in at
    position at; returns its reports, its strays and the cubics it saw."""
    good = list(sample_ordered_cubics(samples - 1, np.random.default_rng([5, 1])))
    cubics = good[:at] + [planted] + good[at:]
    # the pass reads the sampler's gate tables: hand it one of these cubics
    table = np.array([tuple(c) for c in cubics], dtype=GATE_TABLE)
    monkeypatch.setattr(theorems, "_admissible_blocks", lambda n, rng: iter([table[:n]]))
    reports, strays = theorems._bounds_claims(samples, 5)
    return reports, strays, cubics


def test_bounds_pass_fails_on_branch_incoherent_pair(monkeypatch):
    # the README's pair: ordered, but sqrt(3 w3^2 + w2^2) wraps the branch
    w2 = -1.144943420509371 + 8.6203463196231j
    w3 = 2.6620365926506335 + 0.7786881524437383j
    planted = order_roots(-w3, w2, w3)
    reports, strays, cubics = _planted_pass(monkeypatch, planted)
    _assert_matches_reference(reports, strays, cubics)
    own = {rep.claim_id: rep.margin for rep in check_bounds(ratios_direct(planted))}
    for cid in ("T1A", "T1E"):
        rep = reports[cid]
        assert not rep.passed and rep.margin == own[cid] < 0.0
        assert rep.witness.w == normalize(planted).w
    assert -1e-3 < reports["T1A"].margin < -9e-4 and -1.2e-2 < reports["T1E"].margin < -1.1e-2
    assert all(reports[cid].passed for cid in ("T1B", "T2A", "T2B", "T2E", "T3"))
    assert strays == ([], [])


def test_bounds_pass_reports_stray_attainment(monkeypatch):
    # another branch-incoherent pair, with |Im sigma1| = 0.362 > 1/3 far
    # from the attainment points w = -+2i
    w2 = 3.1348651577320052 + 9.238696826921835j
    w3 = 4.664688529761268 - 1.789596054354937j
    planted = order_roots(-w3, w2, w3)
    reports, strays, cubics = _planted_pass(monkeypatch, planted)
    _assert_matches_reference(reports, strays, cubics)
    assert not reports["T1B"].passed and reports["T1B"].witness.w == normalize(planted).w
    assert [rec.w for rec in strays[0]] == [normalize(planted).w] and strays[1] == []


#: README's branch-incoherent pair: ordered, but sqrt(3 w3^2 + w2^2) wraps
#: the branch, so its T1A and T1E margins are negative, the least of a pass.
_INCOHERENT = order_roots(-(2.6620365926506335 + 0.7786881524437383j),
                          -1.144943420509371 + 8.6203463196231j,
                          2.6620365926506335 + 0.7786881524437383j)


def _pass_in_blocks(monkeypatch, cubics, cuts):
    """_bounds_claims on cubics, handed to it as GATE_TABLE blocks cut at
    the indices cuts; returns its reports and its strays."""
    table = np.array([tuple(c) for c in cubics], dtype=GATE_TABLE)
    monkeypatch.setattr(theorems, "_admissible_blocks", lambda n, rng: iter(np.split(table[:n], cuts)))
    return theorems._bounds_claims(len(cubics), 5)


@pytest.mark.parametrize("row", ["first", "last"])
def test_bounds_pass_finds_a_minimum_planted_on_a_block_seam(monkeypatch, row):
    good = list(sample_ordered_cubics(1999, np.random.default_rng([5, 1])))
    cubics = good[:1000] + [_INCOHERENT] + good[1000:]
    # the planted sample opens the block of rows 1000-1499, or closes the
    # block of rows 500-1000
    cuts = [500, 1000, 1500] if row == "first" else [500, 1001, 1500]
    reports, strays = _pass_in_blocks(monkeypatch, cubics, cuts)
    _assert_matches_reference(reports, strays, cubics)
    for cid in ("T1A", "T1E"):
        assert not reports[cid].passed and reports[cid].witness.w == normalize(_INCOHERENT).w


@pytest.mark.parametrize("cuts", [[], [1200]], ids=["one-block", "two-blocks"])
def test_bounds_pass_keeps_the_earlier_sample_on_a_tie(monkeypatch, cuts):
    # the mirror image of the roots has the same margins, bit for bit, at
    # the conjugate w: whichever comes first is the witness, within a block
    # and across blocks
    mirror = order_roots(*(z.conjugate() for z in _INCOHERENT.roots))
    margins = [[rep.margin.hex() for rep in check_bounds(ratios_direct(c))] for c in (_INCOHERENT, mirror)]
    assert margins[0] == margins[1] and normalize(mirror).w == normalize(_INCOHERENT).w.conjugate()
    good = list(sample_ordered_cubics(1998, np.random.default_rng([5, 1])))
    for first, second in ((_INCOHERENT, mirror), (mirror, _INCOHERENT)):
        cubics = good[:1000] + [first] + good[1000:1500] + [second] + good[1500:]
        reports, strays = _pass_in_blocks(monkeypatch, cubics, cuts)
        _assert_matches_reference(reports, strays, cubics)
        for cid in ("T1A", "T1E"):
            assert reports[cid].witness.w == normalize(first).w != normalize(second).w


@pytest.mark.parametrize("samples", [10**5, 10**6])
def test_bounds_pass_memory_does_not_grow_with_samples(samples):
    # the pass folds over the sampler's blocks; a table of all samples
    # would take 120 B a sample, 11 MiB at 1e5
    tracemalloc.start()
    try:
        theorems._bounds_claims(samples, DEFAULT_SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_t4_witness_is_the_last_failing_configuration(monkeypatch):
    # two sampled triangles flagged as the gate's double critical point:
    # T4 fails on both (equilateral by the flag, yet sigma1 != sigma2), and
    # the report's witness is the later one
    good = list(sample_ordered_cubics(1000, np.random.default_rng([7, 4])))
    first, second = (c._replace(coincident=True) for c in good[:2])
    cubics = good[2:300] + [first] + good[300:600] + [second] + good[600:]
    assert not check_equivalence_t4(first).passed and not check_equivalence_t4(second).passed
    monkeypatch.setattr(theorems, "sample_ordered_cubics", lambda n, rng: iter(cubics[:n]))
    (rep,) = theorems._claims_t4(1000, 7)
    assert not rep.passed
    assert rep.witness == theorems._witness(second, ratios_direct(second))
    assert rep.witness.w == normalize(second).w != normalize(first).w
    assert rep.witness.classification == "equilateral"


# ---------------------------------------------------------------------------
# T4, T5 and HYP: the scalar checks and the array masks of the claim runs

_SAMPLERS = (
    sample_ordered_cubics,
    sample_equilateral,
    sample_near_equilateral,
    sample_collinear,
    sample_hyperbolic,
)

#: claim id -> (scalar check, array verdict over a GATE_TABLE array)
_ROW_CHECKS = {
    "T4": (check_equivalence_t4, theorems._t4_rows),
    "T5": (check_equivalence_t5, theorems._t5_rows),
    "HYP": (check_hyperbolic, theorems._hyp_rows),
}


def _assert_rows_match_checks(cid, cubics, table):
    """The array verdict on table and the scalar check on each cubic give
    the same passed and the same (==) margin; returns the failing rows."""
    check, rows = _ROW_CHECKS[cid]
    passed, margin = rows(table)[:2]
    assert passed.dtype == bool and margin.dtype == float
    reports = [check(c) for c in cubics]
    assert passed.tolist() == [rep.passed for rep in reports], cid
    assert margin.tolist() == [rep.margin for rep in reports], cid
    return np.flatnonzero(~passed).tolist()


@pytest.mark.parametrize("seed", [3, 2027])
@pytest.mark.parametrize("sampler", _SAMPLERS, ids=lambda s: s.__name__)
def test_array_verdicts_match_scalar_checks_on_sampler_rows(sampler, seed):
    cubics = list(sampler(3000, np.random.default_rng([seed, 9])))
    table = theorems._gate_table(cubics)
    assert [OrderedCubic(*row) for row in table.tolist()] == cubics
    for cid in ("T4", "T5"):
        _assert_rows_match_checks(cid, cubics, table)
    if sampler is sample_hyperbolic:
        assert _assert_rows_match_checks("HYP", cubics, table) == []
    else:
        with pytest.raises(NotHyperbolicError):
            theorems._hyp_rows(table)


def _ulps_around(x, k=3):
    """x and the k floats on either side of it."""
    out = [x]
    for d in (-math.inf, math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, d)
            out.append(y)
    return sorted(out)


def _verdict_edge_pairs():
    """claim id -> (cubics, (sigma1, sigma2) pairs): pairs that put a margin
    or the EQ_TOL realness band at IDENTITY_TOL, at EQ_TOL or at one of the
    four HYP thresholds, a few ulps either way, each with a cubic of either
    class the claim tells apart."""
    equilateral = order_roots(-1, SQRT3 * 1j, 1)
    collinear = order_roots(-1, 0, 1)
    generic = order_roots(-1, 1j, 1)
    t4 = []
    for d in _ulps_around(IDENTITY_TOL):
        for step in (1, 1j, 0.6 + 0.8j):
            t4 += [(0.4 + 0.1j, 0.4 + 0.1j + d * step), (0.4 + 0.1j - d * step, 0.4 + 0.1j)]
    t5 = []
    for y in _ulps_around(EQ_TOL) + _ulps_around(-EQ_TOL):
        t5 += [(complex(0.4, y), 0.6 + 0.2j), (0.4 - 0.2j, complex(0.6, y))]
    hyp = []
    for edge in (0.0, 5e-324, 1e-16):
        for x in _ulps_around(edge) + _ulps_around(-edge):
            hyp += [
                (complex(1.0 / 3.0 + x, 0.0), 0.6 + 0j),
                (complex(0.5 - x, 0.0), 0.6 + 0j),
                (0.4 + 0j, complex(0.5 + x, 0.0)),
                (0.4 + 0j, complex(2.0 / 3.0 - x, 0.0)),
            ]
    for y in _ulps_around(EQ_TOL) + _ulps_around(-EQ_TOL):
        hyp += [(complex(0.4, y), 0.6 + 0j), (0.4 + 0j, complex(0.6, y))]
    return {
        "T4": ((equilateral, collinear), t4),
        "T5": ((collinear, generic, equilateral), t5),
        "HYP": ((collinear,), hyp),
    }


@pytest.mark.parametrize("cid", ["T4", "T5", "HYP"])
def test_array_verdicts_match_scalar_checks_at_the_thresholds(monkeypatch, cid):
    cubics, pairs = _verdict_edge_pairs()[cid]
    check, rows = _ROW_CHECKS[cid]
    s1 = np.array([p[0] for p in pairs])
    s2 = np.array([p[1] for p in pairs])
    for c in cubics:
        expected = []
        for a, b in pairs:
            monkeypatch.setattr(theorems, "ratios_direct", lambda _c, a=a, b=b: RatioVector(a, b, RatioPath.DIRECT))
            rep = check(c)
            expected.append((rep.passed, rep.margin))
        monkeypatch.setattr(theorems, "ratios_direct_array", lambda _table: (s1, s2))
        passed, margin = rows(theorems._gate_table([c] * len(pairs)))[:2]
        assert list(zip(passed.tolist(), margin.tolist())) == expected, (cid, c)
        assert any(p for p, _ in expected) and not all(p for p, _ in expected), (cid, c)


def _near_collinear_triangles(seed=2, n=20000):
    """Three points on a random line (direction within 1.2 rad of the real
    axis), then the middle one moved by 10^[-12, -4] in a random direction:
    the gate table of the triangles the gate accepts."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-5.0, 5.0, (n, 3)), axis=1)
    direction = np.exp(1j * rng.uniform(-1.2, 1.2, n))
    offset = rng.uniform(-5.0, 5.0, n) + 1j * rng.uniform(-5.0, 5.0, n)
    roots = offset[:, None] + direction[:, None] * xs
    roots[:, 1] += 10.0 ** rng.uniform(-12.0, -4.0, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    table, reasons = order_roots_array(roots)
    return table[reasons == 0]


def test_array_verdicts_match_scalar_checks_on_near_collinear_triangles():
    # the two T5 bands disagree here (relative area against |Im sigma|):
    # both paths must fail the same rows
    table = _near_collinear_triangles()
    cubics = [OrderedCubic(*row) for row in table.tolist()]
    collinear = [classify_configuration(c) is Configuration.COLLINEAR for c in cubics]
    assert collinear == table["collinear"].tolist() == (
        ~table["coincident"] & _reference_collinear(_ARRAY, table["w1"], table["w2"], table["w3"])
    ).tolist()
    failing = _assert_rows_match_checks("T5", cubics, table)
    assert 500 < len(failing) < 3000, len(failing)
    _assert_rows_match_checks("T4", cubics, table)


def test_t5_witness_is_the_last_failing_configuration(monkeypatch):
    # two near-collinear triangles between the T5 bands: relative area
    # above EQ_TOL (generic), yet |Im sigma1| below it
    good = list(sample_ordered_cubics(1000, np.random.default_rng([7, 5])))
    first, second = order_roots(-1, 6e-9j, 1), order_roots(-1, 7e-9j, 1)
    cubics = good[:300] + [first] + good[300:600] + [second] + good[600:]
    assert not check_equivalence_t5(first).passed and not check_equivalence_t5(second).passed
    monkeypatch.setattr(theorems, "sample_ordered_cubics", lambda n, rng: iter(cubics[:n]))
    (rep,) = theorems._claims_t5(1000, 7, 1.0)  # with a passing ray envelope
    assert not rep.passed
    assert rep.witness == theorems._witness(second, ratios_direct(second))
    assert rep.witness.w == normalize(second).w != normalize(first).w
    assert rep.witness.classification == "generic"


def test_t5_claim_computes_each_chunks_ratios_once(monkeypatch):
    calls = []
    ratios = theorems.ratios_direct_array
    monkeypatch.setattr(theorems, "ratios_direct_array", lambda t: calls.append(len(t)) or ratios(t))
    (rep,) = theorems._claims_t5(1000, 7, 1.0)
    assert rep.passed
    assert calls == [1000, 400]  # the random chunk, then the collinear one


def _plant_hyperbolic_blocks(monkeypatch, cubics):
    """HYP's block source yields cubics as one GATE_TABLE block, cut to the
    claim's sample count."""
    monkeypatch.setattr(theorems, "_hyperbolic_block", lambda rng: theorems._gate_table(cubics))


def test_hyp_witness_is_the_last_failing_configuration(monkeypatch):
    # two sampled all-real triangles with planted critical points: the
    # first with z1 and z2 swapped (sigma1 > 1), the second with z1 moved
    # off the real axis (|Im sigma1| = 1e-6 > EQ_TOL, margin still > 0)
    good = list(sample_hyperbolic(1000, np.random.default_rng([7, 6])))
    first = good[0]._replace(z1=good[0].z2, z2=good[0].z1)
    c = good[1]
    second = c._replace(z1=c.z1 + 1e-6j * (c.w2 - c.w1))
    cubics = good[2:300] + [first] + good[300:600] + [second] + good[600:]
    for planted in (first, second):
        assert not check_hyperbolic(planted).passed
    assert check_hyperbolic(second).margin > 0.0
    _plant_hyperbolic_blocks(monkeypatch, cubics)
    (rep,) = theorems._claims_hyp(1000, 7)
    assert not rep.passed
    assert rep.witness == theorems._witness(second, ratios_direct(second))
    assert rep.witness.sigma1 != ratios_direct(first).sigma1


def test_hyp_claim_raises_on_a_row_off_the_real_axis(monkeypatch):
    good = list(sample_hyperbolic(1000, np.random.default_rng([7, 6])))
    cubics = good[:500] + [order_roots(-1, 1j, 1)] + good[500:]
    _plant_hyperbolic_blocks(monkeypatch, cubics)
    with pytest.raises(NotHyperbolicError, match="roots must all be real"):
        theorems._claims_hyp(1000, 7)


def _reference_chunks(*parts):
    """(chunk, flag) for consecutive chunks of at most 1024 records of each
    (records, flag) part, each chunk one np.array of GATE_TABLE rows; the
    parts are consumed one after another, each to its end."""
    for records, flag in parts:
        it = iter(records)
        while chunk := list(itertools.islice(it, 1024)):
            yield np.array(chunk, dtype=GATE_TABLE), flag


def _reference_row_claim(cid, samples, seed):
    """The T4, T5 or HYP report folded over chunks of the public samplers'
    records: the last failing row, and the claim's extreme margin."""
    rng = np.random.default_rng([seed, {"T4": 4, "T5": 5, "HYP": 6}[cid]])
    n = max(1000, samples // 10)
    parts = {
        "T4": lambda: (
            (sample_ordered_cubics(n, rng), False),
            (sample_equilateral(200, rng), True),
            (sample_near_equilateral(200, rng), False),
            ([order_roots(-1.0, w2, 1.0) for w2 in (SQRT3 * 1j, -SQRT3 * 1j)], True),
        ),
        "T5": lambda: ((sample_ordered_cubics(n, rng), False), (sample_collinear(400, rng), True)),
        "HYP": lambda: ((sample_hyperbolic(n, rng), True),),
    }[cid]()
    failing, extreme = None, math.inf if cid == "HYP" else -math.inf
    for chunk, flag in _reference_chunks(*parts):
        passed, margin, *sigmas = _ROW_CHECKS[cid][1](chunk)
        failed = np.flatnonzero(~passed)
        if len(failed):
            failing = chunk[failed[-1]].tolist()
        if cid == "HYP":
            extreme = min(extreme, float(margin.min()))
        elif flag and cid == "T4":
            extreme = max(extreme, float(margin.max()))
        elif flag:
            s1, s2 = sigmas[0]
            extreme = max(extreme, float(np.maximum(np.abs(s1.imag), np.abs(s2.imag)).max()))
    if cid == "T4":
        ok = failing is None and extreme <= 1e-10
        note = f"{n} random + 400 constructed; max |sigma1 - sigma2| on equilateral = {extreme:.3e}"
    elif cid == "T5":
        ok = failing is None and extreme <= 1e-10
        note = (f"{n} random + 400 collinear; max |Im sigma| on collinear = {extreme:.3e}; "
                "ray min |Im sigma1| = 1.000e+00")
    else:
        ok = failing is None and extreme > 0.0
        note = f"{n} samples"
    return theorems.TheoremReport(cid, ok, theorems._row_witness(failing), extreme, note)


@pytest.mark.parametrize("seed", [1, 1729, 31337])
@pytest.mark.parametrize("cid", ["T4", "T5", "HYP"])
def test_row_claims_match_the_fold_over_sampler_records(cid, seed):
    (got,) = {
        "T4": lambda: theorems._claims_t4(20000, seed),
        "T5": lambda: theorems._claims_t5(20000, seed, 1.0),
        "HYP": lambda: theorems._claims_hyp(20000, seed),
    }[cid]()
    want = _reference_row_claim(cid, 20000, seed)
    assert (got.passed, got.note, got.witness) == (want.passed, want.note, want.witness)
    assert got.margin.hex() == want.margin.hex()


@pytest.mark.parametrize("sampler", _SAMPLERS, ids=lambda s: s.__name__)
def test_gate_table_fills_the_rows_of_np_array(sampler):
    cubics = list(sampler(3000, np.random.default_rng([5, 9])))
    for records in (cubics, cubics[:1], []):
        got, want = theorems._gate_table(records), np.array(records, dtype=GATE_TABLE)
        assert got.dtype == GATE_TABLE and len(got) == len(want)
        for name in GATE_TABLE.names:  # field by field: the aligned rows have padding
            assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("cid", ["T4", "T5", "HYP"])
def test_row_claims_fold_the_same_at_any_chunk_size(monkeypatch, cid):
    run = {
        "T4": lambda: theorems._claims_t4(2000, 7),
        "T5": lambda: theorems._claims_t5(2000, 7, 1.0),
        "HYP": lambda: theorems._claims_hyp(2000, 7),
    }[cid]
    (want,) = run()
    for chunk in (3, 200, 201, 2000):
        monkeypatch.setattr(theorems, "_CHUNK", chunk)
        (got,) = run()
        assert got == want and got.margin.hex() == want.margin.hex(), chunk


# the T4 witness test's failing rows sit at indices 298 and 599: the last
# row of a chunk of 299 and the first of the next chunk of 298, the last
# row of a chunk of 600 and the first of the next chunk of 599
@pytest.mark.parametrize("chunk", [298, 299, 599, 600])
def test_t4_last_failing_row_across_chunk_seams(monkeypatch, chunk):
    good = list(sample_ordered_cubics(1000, np.random.default_rng([7, 4])))
    first, second = (c._replace(coincident=True) for c in good[:2])
    cubics = good[2:300] + [first] + good[300:600] + [second] + good[600:]
    monkeypatch.setattr(theorems, "sample_ordered_cubics", lambda n, rng: iter(cubics[:n]))
    monkeypatch.setattr(theorems, "_CHUNK", chunk)
    (rep,) = theorems._claims_t4(1000, 7)
    assert not rep.passed and rep.witness == theorems._witness(second, ratios_direct(second))


# ---------------------------------------------------------------------------
# the ray envelopes of T1E, T3 and T5, block by block


def _whole_grid_envelopes():
    """The three envelopes on the whole ray grid at once, as np.min."""
    grid = _grid(SQRT3, 1e3, 200000)
    a, b = boundary_modulus_sq(grid)
    _, _, v1, v2 = boundary_uv(grid)
    return {
        theorems._t1e_ray: float(min(np.min(4.0 - a), np.min(4.0 - b))),
        theorems._t3_ray: float(np.min(np.real(boundary_sigma_diff(grid)))),
        theorems._t5_ray: float(min(np.min(np.abs(v1)), np.min(np.abs(v2)))),
    }


def _hexes(values):
    return [v.hex() for v in values]


def test_blocked_ray_envelopes_match_the_whole_grid(monkeypatch):
    grid = _grid(SQRT3, 1e3, 200000)
    expected = _whole_grid_envelopes()
    # the three in one pass, and each alone; the L1 scan before and after
    # gives the same bits, so no scan's buffers carry into the next
    lemma = _hexes(r.margin for r in scan_lemma1())
    assert _hexes(theorems._ray_envelopes(*expected)) == _hexes(expected.values())
    assert _hexes(r.margin for r in scan_lemma1()) == lemma
    for expression, want in expected.items():
        assert _hexes(theorems._ray_envelopes(expression)) == [want.hex()], expression.__name__
    # seams at each minimum: the block size that makes it the first point
    # of a block and the one that makes it the last (index 0 is the first
    # point of the first block for every size)
    seams = {1000, 1001}
    for expression in expected:
        i = int(np.argmin(expression(_ray_terms(grid), np.empty((2, grid.size)))))
        seams |= {i, i + 1} if i >= 1000 else set()
    assert len(seams) > 2
    for block in sorted(seams):
        monkeypatch.setattr(theorems, "_SCAN_BLOCK", block)
        assert _hexes(theorems._ray_envelopes(*expected)) == _hexes(expected.values()), block


@pytest.mark.parametrize("cid", ["T1E", "T3", "T5"])
def test_ray_envelope_memory_bounded(cid):
    expression = {"T1E": theorems._t1e_ray, "T3": theorems._t3_ray, "T5": theorems._t5_ray}[cid]
    # the grid included: its points are made block by block
    for expressions in ((expression,), (theorems._t1e_ray, theorems._t3_ray, theorems._t5_ray)):
        tracemalloc.start()
        try:
            theorems._ray_envelopes(*expressions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (expressions, peak)
