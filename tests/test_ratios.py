import cmath

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratiolab import (
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
)
from ratiolab.kernel import _on_rays
from ratiolab.ratios import _root_term, _root_terms_array

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
    for w in (2j, -2j, 5j, complex(1e-12, 3.0)):
        with pytest.raises(OutsideDomainError):
            f_extension(w)
        with pytest.raises(OutsideDomainError):
            g_extension(w)


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
    """f(w), g(w) from the unrationalized quotients at 50 digits (1/2 at
    their removable points)."""
    with mpmath.workdps(50):
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


def test_closed_forms_array_match_scalar_forms():
    # the array forms choose the same quotient as f_extension/g_extension at
    # every point and agree to a relative 4 eps (np.sqrt and numpy's complex
    # arithmetic round differently from cmath)
    w = _agreement_points()
    _, add = _root_terms_array(w)
    f, g = closed_forms_array(w)
    rel = 4.0 * np.finfo(float).eps
    for i, x in enumerate(w.tolist()):
        assert add[i] == _root_term(x)[2], x
        fs, gs = f_extension(x), g_extension(x)
        assert abs(f[i] - fs) <= rel * abs(fs), x
        assert abs(g[i] - gs) <= rel * abs(gs), x
    f, g = closed_forms_array(np.array([-1.0 + 0j, 1.0 + 0j]))
    assert f[0] == 0.5 and g[1] == 0.5
