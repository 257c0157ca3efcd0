import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratiolab import (
    Configuration,
    CriticalRealPartsEqualError,
    RootRealPartsEqualError,
    RootsNotDistinctError,
    ScaleGuardError,
    SQRT3,
    UndefinedRatioError,
    assess_admissibility,
    classify_configuration,
    critical_points_bruteforce,
    critical_points_direct,
    normalize,
    order_roots,
    ratios_direct,
)
from ratiolab.sampling import sample_ordered_cubics

INV_SQRT3 = 1.0 / SQRT3


def test_order_roots_sorts_and_labels():
    c = order_roots(0, -1, 1)
    assert (c.w1, c.w2, c.w3) == (-1, 0, 1)
    assert abs(c.z1 + INV_SQRT3) < 1e-15
    assert abs(c.z2 - INV_SQRT3) < 1e-15
    assert not c.coincident


def test_order_roots_equilateral_coincident():
    c = order_roots(-1, SQRT3 * 1j, 1)
    assert c.coincident
    assert abs(c.z1 - 1j * INV_SQRT3) < 1e-15
    assert c.z1 == c.z2


def test_order_roots_vertical_middle_rejected():
    # w2 = t i with |t| > sqrt(3): distinct critical points, equal real parts
    with pytest.raises(CriticalRealPartsEqualError):
        order_roots(-1, 2j, 1)


def test_order_roots_equal_real_parts_rejected():
    with pytest.raises(RootRealPartsEqualError):
        order_roots(0, 1j, 1)


def test_order_roots_coincident_roots_rejected():
    with pytest.raises(RootsNotDistinctError):
        order_roots(1, 1, 0)
    with pytest.raises(RootsNotDistinctError):
        order_roots(0, 1e-12, 1)
    # a separation of 1e-15 diameters is a coincidence at any scale
    with pytest.raises(RootsNotDistinctError):
        order_roots(0.0, 1e20, 1e20 + 1e5)


def test_order_roots_scale_guard():
    with pytest.raises(ScaleGuardError):
        order_roots(-1e101, 0, 1e101)
    # below a diameter of 1e-100 the squared lengths in q lose precision
    # (at 1e-160 they turn subnormal, at 1e-200 they vanish)
    with pytest.raises(ScaleGuardError):
        order_roots(-1e-200, complex(0.3e-200, 0.5e-200), 1e-200)
    # a well-shaped triangle of size 1e-7 at distance 1e6 from the origin:
    # its shape is below the resolution of the input
    with pytest.raises(ScaleGuardError):
        order_roots(1e6 - 1e-7, 1e6, 1e6 + 1e-7)


def test_critical_points_direct_examples():
    za, zb = critical_points_direct(-1, 0, 1)
    assert abs(za + INV_SQRT3) < 1e-15 and abs(zb - INV_SQRT3) < 1e-15
    za, zb = critical_points_direct(-1, SQRT3 * 1j, 1)
    assert abs(za - 1j * INV_SQRT3) < 1e-7 and abs(zb - 1j * INV_SQRT3) < 1e-7
    za, zb = critical_points_direct(-4 - 1j, -2 + 8j, 4 + 1j)
    got = sorted([za, zb], key=lambda z: z.real)
    assert abs(got[0] - (-1 + 4j)) < 1e-12
    assert abs(got[1] - (-1 + 4j) / 3) < 1e-12


def test_critical_points_match_companion_matrix(rng):
    for _ in range(200):
        ws = rng.uniform(-10, 10, size=6)
        w1, w2, w3 = complex(*ws[:2]), complex(*ws[2:4]), complex(*ws[4:])
        e1 = w1 + w2 + w3
        e2 = w1 * w2 + w1 * w3 + w2 * w3
        expected = sorted(np.roots([3.0, -2.0 * e1, e2]), key=lambda z: (z.real, z.imag))
        direct = sorted(critical_points_direct(w1, w2, w3), key=lambda z: (z.real, z.imag))
        brute = critical_points_bruteforce(w1, w2, w3)
        scale = max(1.0, abs(w1), abs(w2), abs(w3))
        for a, b in zip(direct, expected):
            assert abs(a - b) < 1e-9 * scale
        for a, b in zip(brute, expected):
            assert abs(a - b) < 1e-9 * scale


def _mp_critical_points(c):
    with mpmath.workdps(50):
        w1, w2, w3 = (mpmath.mpc(z.real, z.imag) for z in c.roots)
        e1 = w1 + w2 + w3
        e2 = w1 * w2 + w1 * w3 + w2 * w3
        r = mpmath.sqrt(e1 * e1 - 3 * e2)
        return complex((e1 - r) / 3), complex((e1 + r) / 3)


def test_critical_points_direct_far_from_origin(rng):
    # the radicand is formed on the centred roots, so a centroid near 1e6
    # costs a few ulps of the roots' magnitude, not ulps of its square
    checked = 0
    for _ in range(300):
        ws = rng.uniform(-10, 10, size=6)
        roots = [complex(*ws[k:k + 2]) + 1e6 * (1 + 0.5j) for k in (0, 2, 4)]
        try:
            c = order_roots(*roots)
        except UndefinedRatioError:
            continue
        exact = _mp_critical_points(c)
        bound = 16 * np.finfo(float).eps * max(map(abs, c.roots))
        for z in critical_points_direct(*c.roots):
            assert min(abs(z - e) for e in exact) <= bound
        checked += 1
    assert checked >= 290


def test_derivative_residual_on_random_configurations(rng):
    # |p'(z)| within 1e-9 of the size of its terms across a large random
    # batch, and on every 50th sample both critical points within 1e-13 of
    # the diameter of a 50-digit mpmath evaluation
    n = 0
    for c in sample_ordered_cubics(100000, rng):
        e1 = c.w1 + c.w2 + c.w3
        e2 = c.w1 * c.w2 + c.w1 * c.w3 + c.w2 * c.w3
        for z in (c.z1, c.z2):
            resid = abs(3 * z * z - 2 * e1 * z + e2)
            assert resid <= 1e-9 * (3 * abs(z) ** 2 + 2 * abs(e1) * abs(z) + abs(e2))
        if n % 50 == 0:
            diam = max(abs(c.w1 - c.w2), abs(c.w1 - c.w3), abs(c.w2 - c.w3))
            exact = _mp_critical_points(c)
            for z in (c.z1, c.z2):
                assert min(abs(z - e) for e in exact) <= 1e-13 * diam
        n += 1
    assert n == 100000


def test_normalize_examples():
    n = normalize(order_roots(-1, 0, 1))
    assert n.offset == 0 and n.w == 0
    n = normalize(order_roots(0, 1, 2))
    assert n.offset == 1
    assert n.w3n == 1 and n.w2n == 0 and n.w == 0
    n = normalize(order_roots(-4 - 1j, -2 + 8j, 4 + 1j))
    assert n.offset == 0
    assert abs(n.w - 2j) < 1e-15


small = st.floats(min_value=-5, max_value=5, allow_nan=False)


@given(small, small, small, small, small, small, small, small)
def test_translation_invariance(a, b, c_, d, e, f, g, h):
    roots = [complex(a, b), complex(c_ + 11, d), complex(e + 22, f)]
    off = complex(g, h)
    base = order_roots(*roots)
    shifted = order_roots(*(r + off for r in roots))
    rv0 = ratios_direct(base)
    rv1 = ratios_direct(shifted)
    assert abs(rv0.sigma1 - rv1.sigma1) < 1e-10
    assert abs(rv0.sigma2 - rv1.sigma2) < 1e-10


@given(small, small, small, small, small, small,
       st.floats(min_value=-2.5, max_value=2.5))
def test_positive_scaling_invariance(a, b, c_, d, e, f, log_s):
    roots = [complex(a, b), complex(c_ + 11, d), complex(e + 22, f)]
    s = 10.0 ** log_s
    base = order_roots(*roots)
    scaled = order_roots(*(r * s for r in roots))
    rv0 = ratios_direct(base)
    rv1 = ratios_direct(scaled)
    assert abs(rv0.sigma1 - rv1.sigma1) < 1e-10
    assert abs(rv0.sigma2 - rv1.sigma2) < 1e-10


def _gate_outcome(roots):
    try:
        c = order_roots(*roots)
    except UndefinedRatioError as exc:
        return type(exc), None
    rv = ratios_direct(c)
    return (classify_configuration(c), rv.path), rv


unit = st.floats(min_value=-1, max_value=1, allow_nan=False)


@given(unit, unit, unit, unit, unit, unit,
       st.floats(min_value=-90, max_value=90), unit, unit)
def test_gate_scale_and_translation_invariant(a, b, c_, d, e, f, log_lam, cr, ci):
    roots = sorted((complex(a, b), complex(c_, d), complex(e, f)), key=lambda z: z.real)
    dists = (abs(roots[0] - roots[1]), abs(roots[0] - roots[2]), abs(roots[1] - roots[2]))
    diam = max(dists)
    assume(diam > 0.0 and min(dists) >= 0.05 * diam)
    assume(min(roots[1].real - roots[0].real, roots[2].real - roots[1].real) >= 0.01 * diam)
    roots = [r / diam for r in roots]
    lam = 10.0 ** log_lam
    off = complex(cr, ci) * 7.0 * lam  # |off| <= 10 lam
    base, rv0 = _gate_outcome(roots)
    moved, rv1 = _gate_outcome([r * lam + off for r in roots])
    assert base == moved
    m = sum(roots) / 3.0
    u1, u2, u3 = (r - m for r in roots)
    q = u1 * u1 + u2 * u2 + u3 * u3 - u1 * u2 - u1 * u3 - u2 * u3
    # the ratios' sensitivity to input rounding grows like 1/sqrt|q| near a
    # double critical point, so only well-conditioned triangles compare values
    if rv0 is not None and abs(q) >= 1e-4:
        assert abs(rv0.sigma1 - rv1.sigma1) <= 1e-12
        assert abs(rv0.sigma2 - rv1.sigma2) <= 1e-12


def test_vieta_sum_of_critical_points(rng):
    for _ in range(500):
        ws = rng.uniform(-10, 10, size=6)
        try:
            c = order_roots(complex(*ws[:2]), complex(*ws[2:4]), complex(*ws[4:]))
        except Exception:
            continue
        lhs = c.z1 + c.z2
        rhs = (2.0 / 3.0) * (c.w1 + c.w2 + c.w3)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_admissibility_interior_example():
    rep = assess_admissibility(0, 1)
    assert rep.admissible and not rep.on_boundary and rep.reasons == ()


def test_admissibility_real_w3_on_ray():
    rep = assess_admissibility(2j, 1)
    assert rep.on_boundary and not rep.admissible
    assert "boundary-real-w3" in rep.reasons


def test_admissibility_complex_w3_on_ray():
    rep = assess_admissibility(2j * (3 + 1j), 3 + 1j)
    assert rep.on_boundary and rep.admissible
    # same shape but with w2 left of -w3: the pair cannot be the middle root,
    # so only the ordering condition fires (the ray conditions hold)
    rep = assess_admissibility(2j * (1 + 1j), 1 + 1j)
    assert rep.on_boundary
    assert rep.reasons == ("ordering-w1-w2",)


def test_admissibility_ordering_violations():
    rep = assess_admissibility(5, 1)
    assert not rep.admissible and "ordering-w2-w3" in rep.reasons
    rep = assess_admissibility(-5, 1)
    assert not rep.admissible and "ordering-w1-w2" in rep.reasons
    rep = assess_admissibility(0, -1)
    assert not rep.admissible and "w3-real-part-not-positive" in rep.reasons


def test_admissibility_rejects_branch_incoherent_pair():
    # ordering holds, the radical argument is off the cut, yet the pair-space
    # and w-plane radicals disagree: the closed forms do not give the ratios
    w2 = -1.144943420509371 + 8.6203463196231j
    w3 = 2.6620365926506335 + 0.7786881524437383j
    rep = assess_admissibility(w2, w3)
    assert not rep.admissible
    assert rep.reasons == ("branch-incoherent",)
    # the ratio itself exists and escapes the usual envelope
    rv = ratios_direct(order_roots(-w3, w2, w3))
    assert rv.sigma1.real > 2.0 / 3.0


def test_coherence_dichotomy(rng):
    # over ordering-valid pairs: admissible ones agree with the closed form
    # in w, branch-incoherent ones provably do not (they sit on the other
    # branch), with nothing in between
    from ratiolab.kernel import principal_sqrt
    from ratiolab import f_extension

    coherent = wrapped = 0
    while coherent < 4000 or wrapped < 60:
        x3 = rng.uniform(0.01, 10)
        w3 = complex(x3, rng.uniform(-10, 10))
        w2 = complex(rng.uniform(-x3, x3), rng.uniform(-10, 10))
        if not (-x3 + 1e-4 < w2.real < x3 - 1e-4):
            continue
        w = w2 / w3
        if abs(w + 1) < 1e-4 or abs(w - 1) < 1e-4:
            continue
        d = 3 + w * w
        if abs(d.imag) <= 1e-6 and d.real <= 1e-6:
            continue
        rep = assess_admissibility(w2, w3)
        if rep.on_boundary:
            continue
        rv = ratios_direct(order_roots(-w3, w2, w3))
        dev = abs(rv.sigma1 - f_extension(w))
        if rep.admissible:
            assert dev < 1e-9
            coherent += 1
        else:
            assert rep.reasons == ("branch-incoherent",)
            # the other branch: sigma1 = (w + 3 + sqrt(3 + w^2)) / (3 (w + 1))
            other = (w + 3 + principal_sqrt(d)) / (3 * (w + 1))
            assert abs(rv.sigma1 - other) < 1e-9
            assert dev > 1e-6
            wrapped += 1


def test_equilateral_tip_is_admissible_with_real_w3():
    c = order_roots(-1, SQRT3 * 1j, 1)
    n = normalize(c)
    rep = assess_admissibility(n.w2n, n.w3n)
    assert rep.admissible and rep.on_boundary


def test_classification_examples():
    assert classify_configuration(order_roots(-1, SQRT3 * 1j, 1)) is Configuration.EQUILATERAL
    assert classify_configuration(order_roots(-1, 0.2, 1)) is Configuration.COLLINEAR
    assert classify_configuration(order_roots(-4 - 1j, -2 + 8j, 4 + 1j)) is Configuration.GENERIC
    # slanted line through the origin
    assert classify_configuration(order_roots(-1 - 1j, 0, 1 + 1j)) is Configuration.COLLINEAR
    # sides equal to 1e-10 relative, yet |sigma1 - sigma2| = 4.4e-6: not
    # the double critical point that makes the ratios equal
    near = order_roots(-1, 2e-10 + 1.7320508075688772j, 1)
    assert classify_configuration(near) is Configuration.GENERIC
    rv = ratios_direct(near)
    assert abs(rv.sigma1 - rv.sigma2) > 1e-6
