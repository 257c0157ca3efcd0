import cmath
import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratiolab import (
    EQ_TOL,
    BadParameterError,
    NotAdmissibleError,
    OutsideDomainError,
    RatioPath,
    RatioVector,
    SQRT3,
    assess_admissibility,
    boundary_modulus_sq,
    boundary_sigma1,
    boundary_sigma_diff,
    boundary_uv,
    closed_forms_array,
    f_extension,
    g_extension,
    identity_residual,
    normalize,
    order_roots,
    ratios_direct,
    ratios_via_w,
    sample_ordered_cubics,
)
from ratiolab.cubic import order_roots_array
from ratiolab.kernel import _ARRAY, _on_rays, _radicand
from ratiolab.ratios import _adds, _f, _g, _root_term, ratios_direct_array

INV_SQRT3 = 1.0 / SQRT3
EQUILATERAL_SIGMA = complex(0.5, -SQRT3 / 6.0)


def via_w(*roots):
    c = order_roots(*roots)
    n = normalize(c)
    return ratios_via_w(n, assess_admissibility(n.w2n, n.w3n))


def test_golden_hyperbolic_ratios():
    rv = ratios_direct(order_roots(-1, 0, 1))
    assert abs(rv.sigma1 - (1 - INV_SQRT3)) < 1e-12
    assert abs(rv.sigma2 - INV_SQRT3) < 1e-12
    assert rv.path is RatioPath.DIRECT


def test_golden_equilateral_ratios():
    rv = ratios_direct(order_roots(-1, SQRT3 * 1j, 1))
    assert abs(rv.sigma1 - EQUILATERAL_SIGMA) < 1e-12
    assert abs(rv.sigma2 - EQUILATERAL_SIGMA) < 1e-12
    assert rv.path is RatioPath.COINCIDENT


def test_golden_ray_configuration():
    rv = ratios_direct(order_roots(-4 - 1j, -2 + 8j, 4 + 1j))
    assert abs(rv.sigma1 - (0.6 - 0.2j)) < 1e-12


def test_f_extension_values():
    assert abs(f_extension(0) - (1 - INV_SQRT3)) < 1e-15
    assert f_extension(-1) == 0.5
    assert abs(f_extension(SQRT3 * 1j) - EQUILATERAL_SIGMA) < 1e-7


def test_g_extension_values():
    assert abs(g_extension(0) - INV_SQRT3) < 1e-15
    assert g_extension(1) == 0.5
    assert abs(g_extension(SQRT3 * 1j) - EQUILATERAL_SIGMA) < 1e-7


def test_extensions_reject_open_rays():
    # the message names the caller's w, also for g, which evaluates f at -w
    for w in (2j, -2j, 5j, complex(1e-12, 3.0), complex(1e-10, 10.0)):
        for extension in (f_extension, g_extension):
            with pytest.raises(OutsideDomainError, match=re.escape(f"w={w!r} ")):
                extension(w)


def test_extensions_use_the_ray_band():
    # the closed forms reject exactly the _on_rays band that the gate and
    # the sweep use, which is wider than the cut band of 3 + w^2 there
    # (Im(3 + w^2) = 1e-8 at 5e-10 + 10i); the tips +-i sqrt(3) evaluate
    for w in (5e-10 + 10j, -5e-10 + 10j, 9e-10 + 2j):
        assert _on_rays(w)
        with pytest.raises(OutsideDomainError):
            f_extension(w)
        with pytest.raises(OutsideDomainError):
            g_extension(w)
    # 3 + w^2 rounds to 4.4e-16 there, so R is off by about 2e-8
    for w, sigma in ((SQRT3 * 1j, EQUILATERAL_SIGMA), (-SQRT3 * 1j, EQUILATERAL_SIGMA.conjugate())):
        assert abs(f_extension(w) - sigma) <= 1e-8
        assert abs(g_extension(w) - sigma) <= 1e-8


def _mp_closed_forms(w: complex) -> tuple[complex, complex]:
    """f(w), g(w) from the unrationalized quotients to 50 digits (1/2 at
    their removable points). w + 3 - R cancels 2 log10|w| digits for large
    |w|, so those are added."""
    with mpmath.workdps(50 + 2 * int(math.log10(max(abs(w), 1.0)))):
        z = mpmath.mpc(w.real, w.imag)
        r = mpmath.sqrt(3 + z * z)
        f = mpmath.mpf(0.5) if z == -1 else (z + 3 - r) / (3 * (z + 1))
        g = mpmath.mpf(0.5) if z == 1 else (-2 * z + r) / (3 * (1 - z))
        return complex(f), complex(g)


def test_removable_singularity_plateau():
    # on and around w = -1 (f) and w = +1 (g) the values match 50-digit
    # arithmetic; the removable points need no special case
    for eps in (0.0, 1e-12, 1e-10, 1e-9, 9e-8, 1e-6, 1e-4):
        for ang in (0.0, 1.3, 2.9, 4.4):
            dw = eps * cmath.exp(1j * ang)
            for w in (-1 + dw, 1 + dw):
                mp_f, mp_g = _mp_closed_forms(w)
                assert abs(f_extension(w) - mp_f) <= 1e-14
                assert abs(g_extension(w) - mp_g) <= 1e-14
    # far from the origin, in every quadrant, the per-point choice of form
    # keeps full relative accuracy (w + 3 + R cancels for Re w < 0)
    for mod in (1e3, 1e6, 1e9, 1e12):
        for ang in (0.0, 0.4, 1.2, 1.9, 2.7, 3.1416, 3.6, 4.4, 5.1, 5.9):
            w = mod * cmath.exp(1j * ang)
            mp_f, mp_g = _mp_closed_forms(w)
            assert abs(f_extension(w) - mp_f) <= 1e-14 * abs(mp_f)
            assert abs(g_extension(w) - mp_g) <= 1e-14 * abs(mp_g)


def test_extensions_stop_at_the_magnitude_limit():
    # parts at +-1e100 evaluate to full relative accuracy (off the rays); one
    # float beyond on either part, and a part that is not finite, raise and
    # name the limit (beyond about 1.3e154, 3 + w^2 overflows)
    assert f_extension(1e100) == 1e-100 and f_extension(-1e100) == 2.0 / 3.0
    edge = 1e100
    for w in (edge, -edge, complex(1.0, edge), complex(1.0, -edge), complex(edge, edge),
              complex(-edge, edge), complex(edge, -edge), complex(-edge, -edge)):
        mp_f, mp_g = _mp_closed_forms(w)
        assert abs(f_extension(w) - mp_f) <= 1e-15 * abs(mp_f), w
        assert abs(g_extension(w) - mp_g) <= 1e-15 * abs(mp_g), w
    beyond = math.nextafter(edge, math.inf)
    for w in (beyond, -beyond, complex(0.0, beyond), complex(1.0, -beyond), 1e160,
              complex(math.nan, 0.0), complex(0.0, math.inf)):
        for extension in (f_extension, g_extension):
            with pytest.raises(BadParameterError, match=re.escape("within +-1e+100")):
                extension(w)


def test_extension_values_continuous_past_plateau():
    # near the removable points the values approach 1/2 continuously
    assert abs(f_extension(-1 + 2e-7) - 0.5) < 1e-6
    assert abs(g_extension(1 + 2e-7) - 0.5) < 1e-6


def test_boundary_sigma1_values():
    assert abs(boundary_sigma1(2.0) - (0.6 - 0.2j)) < 1e-15
    assert abs(boundary_sigma1(SQRT3) - EQUILATERAL_SIGMA) < 1e-15
    s = boundary_sigma1(-2.0)
    assert abs(s.imag - 1.0 / 3.0) < 1e-15
    assert abs(s - (1 / 3 + 1j / 3)) < 1e-15


def test_boundary_sigma1_accepts_boundary_point():
    # only ray parameters |t| >= sqrt(3) are boundary points
    with pytest.raises(BadParameterError):
        boundary_sigma1(0.5)


def test_boundary_uv_values():
    for t in (SQRT3, -SQRT3):
        u1, u2, v1, v2 = boundary_uv(t)
        assert abs(u1 - 0.5) < 1e-15 and abs(u2 - 0.5) < 1e-15
    _, _, v1, _ = boundary_uv(-2.0)
    assert abs(v1 - 1.0 / 3.0) < 1e-15
    _, _, _, v2 = boundary_uv(2.0)
    assert abs(v2 + 1.0 / 3.0) < 1e-15


def test_boundary_uv_matches_textbook_quotients():
    # the rearranged cancellation-free forms against the raw quotients
    ts = np.concatenate([np.linspace(SQRT3, 1e3, 4001), -np.linspace(SQRT3, 1e3, 4001)])
    r = np.sqrt(np.maximum(ts * ts - 3.0, 0.0))  # clamp the tip rounding residue
    u1_raw = (ts * ts + 3.0 + ts * r) / (3.0 * (ts * ts + 1.0))
    u2_raw = (ts * ts + 3.0 - ts * r) / (3.0 * (ts * ts + 1.0))
    v1_raw = (-2.0 * ts + r) / (3.0 * (ts * ts + 1.0))
    v2_raw = (-2.0 * ts - r) / (3.0 * (ts * ts + 1.0))
    u1, u2, v1, v2 = boundary_uv(ts)
    assert np.max(np.abs(u1 - u1_raw)) < 1e-12
    assert np.max(np.abs(u2 - u2_raw)) < 1e-12
    assert np.max(np.abs(v1 - v1_raw)) < 1e-12
    assert np.max(np.abs(v2 - v2_raw)) < 1e-12


def test_boundary_sigma1_is_u1_plus_iv1():
    # complex ray formula evaluated literally vs the (u1, v1) decomposition
    ts = np.concatenate(
        [np.linspace(SQRT3, 1e3, 5000), -np.linspace(SQRT3, 1e3, 5000)]
    )
    r = np.sqrt(np.maximum(ts * ts - 3.0, 0.0))
    literal = (1j * ts + 1j * r + 3.0) / (3.0 * (1j * ts + 1.0))
    assert np.max(np.abs(boundary_sigma1(ts) - literal)) < 1e-12
    u1, _, v1, _ = boundary_uv(ts)
    assert np.max(np.abs((u1 + 1j * v1) - literal)) < 1e-12


#: The largest ray parameter |t| the ray formulas serve, and |t| beyond it.
T_EDGE = 1e100
T_BEYOND = [math.nextafter(T_EDGE, math.inf), 1e150, 2.0**500, 1.7976931348623157e308]


def _ray_parameters() -> np.ndarray:
    """t from the tips (down to EQ_TOL below sqrt(3)) to T_EDGE, both signs."""
    tips = SQRT3 - EQ_TOL * np.array([0.0, 1e-6, 0.25, 0.5, 0.999])
    near = np.linspace(SQRT3, 4.0, 2001)
    far = np.append(np.logspace(np.log10(4.0), 100.0, 8001)[:-1], T_EDGE)
    ts = np.concatenate([tips, np.nextafter(SQRT3, 0.0) - np.arange(4) * 2e-16, near, far])
    return np.concatenate([ts, -ts])


@pytest.mark.parametrize(
    "fn", [boundary_uv, boundary_modulus_sq, boundary_sigma_diff, boundary_sigma1]
)
def test_ray_formulas_scalar_equals_array(fn):
    # the scalar path (math only) against the array path, bit for bit; it
    # raises no RuntimeWarning, ZeroDivisionError or OverflowError even at
    # the limit T_EDGE. Every 50th point of verify's ray grid joins the
    # parameters, both signs.
    ray_grid = np.linspace(SQRT3, 1e3, 200000)[::50]
    ts = np.concatenate([_ray_parameters(), ray_grid, -ray_grid])
    with np.errstate(all="ignore"):
        want = fn(ts)
    want = list(zip(*want)) if isinstance(want, tuple) else list(want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [fn(t) for t in ts.tolist()]
    for t, g, w in zip(ts.tolist(), got, want):
        if isinstance(g, tuple):
            assert all(type(x) is float for x in g)
            parts = [(x, float(y)) for x, y in zip(g, w)]
        else:
            assert type(g) is complex
            parts = [(g.real, w.real), (g.imag, w.imag)]
        assert [x.hex() for x, _ in parts] == [float(y).hex() for _, y in parts], t


def _mp_ray_values(t):
    """The four ray functions at t from their definitions, to 50 digits:
    sigma1 = (i t + i sqrt(t^2 - 3) + 3) / (3 (i t + 1)), sigma2 =
    1 / (3 (1 - sigma1)), u1 + i v1 = sigma1, u2 = 1 - Re sigma2,
    v2 = Im sigma2, a = 9 |sigma1|^2 and b = 9 (u2^2 + v2^2). For t < 0,
    t + sqrt(t^2 - 3) cancels 2 log10|t| digits, so those are added."""
    with mpmath.workdps(50 + 2 * int(math.log10(abs(t)))):
        t = mpmath.mpf(t)
        s1 = (1j * t + 1j * mpmath.sqrt(t * t - 3) + 3) / (3 * (1j * t + 1))
        s2 = 1 / (3 * (1 - s1))
        u2, v2 = 1 - s2.real, s2.imag
        return {
            boundary_uv: (s1.real, u2, s1.imag, v2),
            boundary_modulus_sq: (9 * abs(s1) ** 2, 9 * (u2 * u2 + v2 * v2)),
            boundary_sigma_diff: (s2 - s1,),
            boundary_sigma1: (s1,),
        }


@pytest.mark.parametrize(
    "fn", [boundary_uv, boundary_modulus_sq, boundary_sigma_diff, boundary_sigma1]
)
def test_ray_formulas_hold_over_the_whole_double_range(fn):
    # every double |t| up to the limit T_EDGE is served, from 1e8 to T_EDGE
    # within 4 ulps of 50-digit mpmath, scalar and array alike; every double
    # beyond it, up to the largest, raises
    big = np.append(np.logspace(8.0, 100.0, 401)[:-1], T_EDGE)
    ts = np.concatenate([big, -big])
    rows = fn(ts)
    rows = zip(*rows) if isinstance(rows, tuple) else ((value,) for value in rows)
    for t, array_row in zip(ts.tolist(), rows):
        scalar_row = fn(t)
        scalar_row = scalar_row if isinstance(scalar_row, tuple) else (scalar_row,)
        want = _mp_ray_values(t)[fn]
        for got in (scalar_row, array_row):
            for value, exact in zip(got, want):
                # a real value has a zero imaginary part on both sides
                for part, exact_part in ((value.real, exact.real), (value.imag, exact.imag)):
                    err = abs(mpmath.mpf(float(part)) - exact_part)
                    assert err <= 4 * 2.0**-52 * abs(exact_part), (fn, t)
    for beyond in T_BEYOND:
        for t in (beyond, -beyond, np.array([2.0, -beyond])):
            with pytest.raises(BadParameterError, match="must be finite"):
                fn(t)


@pytest.mark.parametrize(
    "fn", [boundary_uv, boundary_modulus_sq, boundary_sigma_diff, boundary_sigma1]
)
def test_ray_formulas_reject_bad_parameters(fn):
    for bad, message in (
        (math.nan, "must be finite"),
        (math.inf, "must be finite"),
        (-math.inf, "must be finite"),
        (0.5, r"needs \|t\| >= sqrt\(3\)"),
        (-(SQRT3 - 2.0 * EQ_TOL), r"needs \|t\| >= sqrt\(3\)"),
    ):
        for t in (bad, np.float64(bad), np.array([2.0, bad])):
            with pytest.raises(BadParameterError, match=message):
                fn(t)
    assert fn(np.float64(2.0)) == fn(2) == fn(2.0)


def test_boundary_modulus_values():
    a, b = boundary_modulus_sq(SQRT3)
    assert abs(a - 3.0) < 1e-14 and abs(b - 3.0) < 1e-14
    a, _ = boundary_modulus_sq(100.0)
    assert a < 4.0
    _, b = boundary_modulus_sq(-100.0)
    assert b < 4.0


def test_boundary_modulus_consistency_with_uv():
    ts = np.concatenate([np.linspace(SQRT3, 1e3, 3000), -np.linspace(SQRT3, 1e3, 3000)])
    u1, u2, v1, v2 = boundary_uv(ts)
    a, b = boundary_modulus_sq(ts)
    assert np.max(np.abs(a - 9.0 * (u1 * u1 + v1 * v1))) < 1e-12
    assert np.max(np.abs(b - 9.0 * (u2 * u2 + v2 * v2))) < 1e-12


def test_boundary_sigma_diff_values():
    assert abs(boundary_sigma_diff(SQRT3)) < 1e-15
    assert abs(boundary_sigma_diff(-SQRT3)) < 1e-15
    assert abs(boundary_sigma_diff(2.0) - (1.0 - 2.0j) / 15.0) < 1e-15


def test_boundary_sigma_diff_matches_ray_pipeline():
    for t in np.concatenate([np.linspace(SQRT3, 50, 500), -np.linspace(SQRT3, 50, 500)]):
        s1 = boundary_sigma1(float(t))
        s2 = 1.0 / (3.0 * (1.0 - s1))
        assert abs((s2 - s1) - boundary_sigma_diff(float(t))) < 1e-12
        assert boundary_sigma_diff(float(t)).real >= -1e-15


def test_identity_residual_values():
    assert identity_residual(ratios_direct(order_roots(-1, 0, 1))) < 1e-15
    assert identity_residual(ratios_direct(order_roots(-1, SQRT3 * 1j, 1))) < 1e-15
    assert abs(identity_residual(RatioVector(0j, 0j, RatioPath.DIRECT)) - 1 / 3) < 1e-15


def test_ratios_via_w_interior():
    rv = via_w(-1, 0, 1)
    assert rv.path is RatioPath.INTERIOR
    assert abs(rv.sigma1 - (1 - INV_SQRT3)) < 1e-12
    assert abs(rv.sigma2 - INV_SQRT3) < 1e-12


def test_ratios_via_w_boundary_upper_side():
    rv = via_w(-4 - 1j, -2 + 8j, 4 + 1j)
    assert rv.path is RatioPath.BOUNDARY
    assert abs(rv.sigma1 - (0.6 - 0.2j)) < 1e-12
    direct = ratios_direct(order_roots(-4 - 1j, -2 + 8j, 4 + 1j))
    assert abs(rv.sigma1 - direct.sigma1) < 1e-10
    assert abs(rv.sigma2 - direct.sigma2) < 1e-10


def test_ratios_via_w_boundary_band_families():
    # w = -2i family with Im w3 > 0: sigma1 touches 1/3 + i/3
    rv = via_w(-4 - 1j, 2 - 8j, 4 + 1j)
    assert abs(rv.sigma1 - (1 / 3 + 1j / 3)) < 1e-12
    # conjugated configuration: w = +2i with Im w3 < 0, conjugate values
    rv = via_w(-4 + 1j, 2 + 8j, 4 - 1j)
    assert abs(rv.sigma1 - (1 / 3 - 1j / 3)) < 1e-12
    direct = ratios_direct(order_roots(-4 + 1j, 2 + 8j, 4 - 1j))
    assert abs(rv.sigma1 - direct.sigma1) < 1e-10
    assert abs(rv.sigma2 - direct.sigma2) < 1e-10


def test_ratios_via_w_rejects_inadmissible():
    n = normalize(order_roots(-1, 0.2j, 1))  # fine: |t| < sqrt(3) interior
    rep = assess_admissibility(n.w2n, n.w3n)
    assert rep.admissible
    bad = assess_admissibility(5, 1)
    with pytest.raises(NotAdmissibleError):
        ratios_via_w(n, bad)


coord = st.floats(min_value=-20, max_value=20, allow_nan=False)


@given(coord, coord)
def test_identity_of_extensions(re, im):
    w = complex(re, im)
    d = 3 + w * w
    assume(abs(d.imag) > 1e-6 or d.real > 1e-6)
    assume(abs(w - 1) > 1e-3 and abs(w + 1) > 1e-3)
    resid = abs((1 - f_extension(w)) * g_extension(w) - 1 / 3)
    assert resid <= 1e-12


def test_extension_identity_bulk(rng):
    # (1 - f) g = 1/3 across a large w sample clear of the rays and of +-1
    checked = 0
    worst = 0.0
    while checked < 100000:
        w = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        d = 3 + w * w
        if abs(d.imag) <= 1e-6 and d.real <= 1e-6:
            continue
        if abs(w - 1) < 1e-3 or abs(w + 1) < 1e-3:
            continue
        worst = max(worst, abs((1 - f_extension(w)) * g_extension(w) - 1 / 3))
        checked += 1
    assert worst <= 1e-12


def test_u2_monotone_on_both_rays():
    # strictly monotone away from each tip: down from 1/2 toward 0 on the
    # positive branch, up from 1/2 toward 2/3 as t runs to -infinity
    ts = np.linspace(SQRT3, 1e3, 100000)
    _, u2_pos, _, _ = boundary_uv(ts)
    assert np.all(np.diff(u2_pos) < 0.0)
    _, u2_neg, _, _ = boundary_uv(-ts)
    assert np.all(np.diff(u2_neg) > 0.0)
    assert np.all((0.0 < u2_pos) & (u2_pos < 2.0 / 3.0))
    assert np.all((0.0 < u2_neg) & (u2_neg < 2.0 / 3.0))


def test_near_ray_pairs_direct_vs_closed():
    # pairs hugging the rays from either side, with either sign of Im w3:
    # whenever admissible, the dispatched closed form must match the
    # definition; the mismatched combinations must be tagged incoherent
    rejected = 0
    agreed = 0
    for t in (2.0, -2.0, 3.7, -3.7, 10.0):
        for side in (1e-3, 1e-5, -1e-3, -1e-5, 0.0):
            for im3 in (2.0, -2.0, 0.5, -0.5):
                w3 = complex(1.5, im3)
                w = complex(side, t)
                w2 = w * w3
                if not (-w3.real < w2.real < w3.real):
                    continue
                rep = assess_admissibility(w2, w3)
                if not rep.admissible:
                    rejected += 1
                    continue
                c = order_roots(-w3, w2, w3)
                rv_d = ratios_direct(c)
                rv_w = ratios_via_w(normalize(c), rep)
                agreed += 1
                assert abs(rv_d.sigma1 - rv_w.sigma1) < 1e-10
                assert abs(rv_d.sigma2 - rv_w.sigma2) < 1e-10
    assert agreed >= 10 and rejected >= 5


def test_conjugation_symmetry(rng):
    # conjugating all roots preserves ordering and conjugates the ratios
    from ratiolab.sampling import sample_ordered_cubics

    for c in sample_ordered_cubics(300, rng):
        rv = ratios_direct(c)
        cc = order_roots(
            c.w1.conjugate(), c.w2.conjugate(), c.w3.conjugate()
        )
        rvc = ratios_direct(cc)
        assert abs(rvc.sigma1 - rv.sigma1.conjugate()) < 1e-12
        assert abs(rvc.sigma2 - rv.sigma2.conjugate()) < 1e-12


def test_u1_limits_checked_directly():
    u1_pos, _, _, _ = boundary_uv(1e6)
    u1_neg, _, _, _ = boundary_uv(-1e6)
    assert abs(u1_pos - 2.0 / 3.0) < 1e-11
    assert u1_neg < 1e-11


def _agreement_points() -> np.ndarray:
    """The sweep grid, rings of radius 0 to 1e-4 around +-1, and |w| from
    1e-3 to 1e12 in all four quadrants; the excluded rays left out."""
    axis = np.linspace(-3.0, 3.0, 201)
    grid = (axis[:, None] + 1j * axis[None, :]).ravel()
    angles = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    radii = np.concatenate([[0.0], np.logspace(-16, -4, 25)])
    rings = [c + (radii[:, None] * angles[None, :]).ravel() for c in (-1.0, 1.0)]
    quadrants = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 97, endpoint=False))
    far = (np.logspace(-3, 12, 61)[:, None] * quadrants[None, :]).ravel()
    w = np.concatenate([grid, *rings, far])
    return w[~_on_rays(w)]


def _bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def test_closed_forms_array_match_scalar_forms():
    # the array forms choose the same quotient as f_extension/g_extension at
    # every point, both quotients occur, and the values have the same bits,
    # signed zeros included; on every 7th point they are within 1e-15
    # relative of 50-digit arithmetic
    w = _agreement_points()
    add = _adds(w + 3.0, _ARRAY.sqrt(_radicand(_ARRAY, w)))
    assert add.any() and not add.all()
    f, g = closed_forms_array(w)
    points = w.tolist()
    assert add.tolist() == [_adds(x + 3.0, _root_term(x)[1]) for x in points]
    assert np.array_equal(_bits(f), _bits([f_extension(x) for x in points]))
    assert np.array_equal(_bits(g), _bits([g_extension(x) for x in points]))
    for x, fs, gs in zip(points[::7], f[::7].tolist(), g[::7].tolist()):
        mp_f, mp_g = _mp_closed_forms(x)
        assert abs(fs - mp_f) <= 1e-15 * abs(mp_f), x
        assert abs(gs - mp_g) <= 1e-15 * abs(mp_g), x
    f, g = closed_forms_array(np.array([-1.0 + 0j, 1.0 + 0j]))
    assert f[0] == 0.5 and g[1] == 0.5


def _mirror_triples() -> np.ndarray:
    """(n, 3) root triples: 20 000 sampler draws, then hand-placed triples
    with |w -+ 1| from 1e-6 to 1e-3, rotated, scaled and translated."""
    drawn = [(c.w1, c.w2, c.w3) for c in sample_ordered_cubics(20000, np.random.default_rng(17))]
    placed = []
    for center in (-1.0, 1.0):
        for eps in (1e-6, 1e-5, 1e-4, 1e-3):
            for ang in (0.3, 1.3, 2.0, 2.9, 4.0, 5.5):
                w = center + eps * cmath.exp(1j * ang)
                for w3n, shift in ((1.0, 0j), (cmath.exp(0.4j), 2 - 3j), (7 * cmath.exp(-0.7j), -5j)):
                    placed.append((shift - w3n, shift + w * w3n, shift + w3n))
    return np.array(drawn + placed, dtype=complex)


def test_mirror_swaps_the_ratios():
    # reflecting the roots in a vertical line (w -> -conj w) reverses their
    # order by real part: sigma1' = 1 - conj sigma2, sigma2' = 1 - conj sigma1,
    # on the direct route through the scalar and the array gate alike (bit
    # for bit), and on the closed forms (every mirrored pair here is
    # admissible). Near w = -+1 the direct route loses about eps / |w -+ 1|
    # (ray formulas and closed forms do not), so its band widens there to
    # 8 eps / |w -+ 1|
    roots = _mirror_triples()
    mirrored = -roots.conj()
    table, reasons = order_roots_array(mirrored)
    assert not reasons.any()
    s1_arr, s2_arr = ratios_direct_array(table)

    def swapped(rv):
        return 1.0 - rv.sigma2.conjugate(), 1.0 - rv.sigma1.conjugate()

    def close(rv, want, tol):
        return abs(rv.sigma1 - want[0]) <= tol and abs(rv.sigma2 - want[1]) <= tol

    for i, (triple, image) in enumerate(zip(roots.tolist(), mirrored.tolist())):
        c = order_roots(*image)
        mv = ratios_direct(c)
        *fields, coincident, _ = table[i].tolist()
        scalar = np.array([c.w1, c.w2, c.w3, c.z1, c.z2, mv.sigma1, mv.sigma2])
        array = np.array([*fields, s1_arr[i], s2_arr[i]])
        assert np.array_equal(scalar.view(np.uint64), array.view(np.uint64)), image
        assert c.coincident == coincident, image
        n = normalize(c)
        tol = max(1e-12, 8 * np.finfo(float).eps / min(abs(n.w - 1), abs(n.w + 1)))
        want = swapped(ratios_direct(order_roots(*triple)))
        assert close(mv, want, tol), triple
        report = assess_admissibility(n.w2n, n.w3n)
        assert report.admissible, image
        wv = ratios_via_w(n, report)
        assert close(wv, want, tol), triple
        assert close(wv, swapped(via_w(*triple)), 1e-12), triple


def test_g_is_one_minus_f_at_minus_w():
    # negating the roots (w -> -w) reverses their order by real part, and
    # R(-w) = R(w): g(w) = 1 - f(-w) bit for bit, signed zeros on both axes
    # included, on Python complex values and on arrays
    axis = [0.0, -0.0, 1e-300, 0.5, 1.0, SQRT3, 3.0, 1e100]
    on_axes = [complex(x, z) for x in axis + [-x for x in axis] for z in (0.0, -0.0)]
    on_axes += [complex(z, x) for x in axis + [-x for x in axis] for z in (0.0, -0.0)]
    w = np.concatenate([_agreement_points(), np.array(on_axes)])
    w = w[~_on_rays(w)]
    one = complex(1.0, 0.0)
    points = w.tolist()
    assert np.array_equal(_bits([g_extension(x) for x in points]),
                          _bits([one - f_extension(-x) for x in points]))
    assert np.array_equal(_bits(closed_forms_array(w)[1]), _bits(one - closed_forms_array(-w)[0]))


def test_every_labeling_of_a_triangle_is_one_closed_form():
    # the paper's ordering problem: complex roots have no natural order.
    # Each of the 12 labelings of the triangle (-1, w, 1), 6 vertex orders
    # times 2 critical-point labels, has its own (sigma1, sigma2) from the
    # definition; that pair is (f, g) at the labeling's own
    # w' = (b - m)/(c - m), m = (a + c)/2, taken with R(w') or with -R(w')
    rng = np.random.default_rng(31)
    w = rng.uniform(-3.0, 3.0, 4000) + 1j * rng.uniform(-3.0, 3.0, 4000)
    far = np.min(np.abs(w[:, None] - np.array([1.0, -1.0, SQRT3 * 1j, -SQRT3 * 1j])), axis=1)
    w = w[far > 0.05][:1000]
    assert w.size == 1000
    roots = (-np.ones_like(w), w, np.ones_like(w))
    # the critical points of (z + 1)(z - w)(z - 1), from its derivative
    # 3 z^2 - 2 s z + e2 on the roots' elementary symmetric functions
    s = sum(roots)
    e2 = roots[0] * roots[1] + roots[1] * roots[2] + roots[2] * roots[0]
    root = np.sqrt(s * s - 3.0 * e2)
    crit = ((s + root) / 3.0, (s - root) / 3.0)
    signs = []
    for a, b, c in itertools.permutations(roots):
        m = (a + c) / 2.0
        w_prime = (b - m) / (c - m)
        r = _ARRAY.sqrt(_radicand(_ARRAY, w_prime))
        candidates = [(_f(_ARRAY, w_prime, sign * r), _g(_ARRAY, w_prime, sign * r)) for sign in (1.0, -1.0)]
        for z1, z2 in (crit, crit[::-1]):
            sigma1, sigma2 = (z1 - a) / (b - a), (z2 - b) / (c - b)
            errs = [np.maximum(np.abs(sigma1 - f) / np.abs(sigma1), np.abs(sigma2 - g) / np.abs(sigma2))
                    for f, g in candidates]
            assert np.max(np.minimum(*errs)) <= 1e-12
            signs.append(errs[0] <= errs[1])
    # the two critical-point labels of each vertex order take opposite roots
    for plus, minus in zip(signs[::2], signs[1::2]):
        assert np.array_equal(plus, ~minus)
