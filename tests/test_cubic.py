import cmath

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
from ratiolab.cubic import (
    _COINCIDENCE,
    GATE_REASONS,
    MAX_ROOT_MAGNITUDE,
    MIN_ROOT_DIAMETER,
    MIN_SEPARATION_RATIO,
    _diameter,
    admissibility_mask,
    normalize_array,
    order_roots_array,
)
from ratiolab.kernel import _SCALAR, EQ_TOL
from ratiolab.ratios import _root_term, ratios_direct_array
from ratiolab.sampling import _candidate_block, sample_ordered_cubics

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


# A reference copy of the input gate in Python complex arithmetic: the
# bodies order_roots, normalize, assess_admissibility and ratios_direct had
# before the gate was written once for scalars and arrays. Both forms of the
# gate must match it bit for bit. Every real operand of a complex operation
# is spelled as the complex number CPython before 3.14 turns it into
# (complex(3.0, 0.0) for 3.0), so the copy means the same on every Python
# version. Its branch test is the two-root one: principal_sqrt(q) against
# w3n * principal_sqrt(3 + w^2).

_TWO, _THREE = complex(2.0, 0.0), complex(3.0, 0.0)


def _ref_principal_sqrt(z):
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.sqrt(z)


def _ref_radicand(w1, w2, w3):
    s = w1 + w2 + w3
    m = s / _THREE
    u1, u2, u3 = w1 - m, w2 - m, w3 - m
    return s, m, u1 * u1 + u2 * u2 + u3 * u3 - u1 * u2 - u1 * u3 - u2 * u3


def _reference_collinear(ops, w1, w2, w3):
    """The collinear rule as a function of its own, the reference for the
    gate's flag: whether the root triangle's area is at most
    EQ_TOL * diameter^2; on scalars or arrays as _diameter. The area |Im((w2 - w1) conj(w3 - w1))| / 2
    is spelled on real and imaginary parts, as CPython's complex product
    forms that imaginary part."""
    ax, ay = w2.real - w1.real, w2.imag - w1.imag
    bx, by = w3.real - w1.real, w3.imag - w1.imag
    area = abs(ay * bx - ax * by) / 2.0
    diam = _diameter(ops, w1, w2, w3)
    return area <= EQ_TOL * diam * diam


def _ref_order_roots(r1, r2, r3):
    """(reason, values): reason is the GATE_REASONS tag of the check that
    fails, or None and values = (w1, w2, w3, z1, z2, coincident, collinear);
    collinear is the former separate rule, _reference_collinear, on the
    triangles that are not coincident."""
    w1, w2, w3 = sorted((complex(r1), complex(r2), complex(r3)), key=lambda z: z.real)
    mag = max(abs(w1), abs(w2), abs(w3))
    if mag > MAX_ROOT_MAGNITUDE:
        return "root-magnitude", None
    dists = (abs(w1 - w2), abs(w1 - w3), abs(w2 - w3))
    sep, diam = min(dists), max(dists)
    band = EQ_TOL * diam
    if sep <= band:
        return "roots-not-distinct", None
    if diam < MIN_ROOT_DIAMETER:
        return "root-diameter", None
    if sep / mag < MIN_SEPARATION_RATIO:
        return "root-separation", None
    if w2.real - w1.real <= band or w3.real - w2.real <= band:
        return "root-real-parts-equal", None
    s, m, q = _ref_radicand(w1, w2, w3)
    if abs(q) <= _COINCIDENCE * diam * diam:
        return None, (w1, w2, w3, m, m, True, False)
    r = _ref_principal_sqrt(q)
    z1 = (s - r) / _THREE
    z2 = (s + r) / _THREE
    if z2.real - z1.real <= band:
        return "critical-real-parts-equal", None
    return None, (w1, w2, w3, z1, z2, False, _reference_collinear(_SCALAR, w1, w2, w3))


def _ref_normalize(w1, w2, w3):
    """(w2n, w3n, offset, w)."""
    offset = (w1 + w3) / _TWO
    w2n = w2 - offset
    w3n = w3 - offset
    return w2n, w3n, offset, w2n / w3n


def _ref_ratios_direct(w1, w2, w3, z1, z2):
    return (z1 - w1) / (w2 - w1), (z2 - w2) / (w3 - w2)


def _ref_assess_admissibility(w2n, w3n):
    """(reasons, on_boundary), reasons a tuple of GATE_REASONS tags."""
    w2n, w3n = complex(w2n), complex(w3n)
    reasons = []
    band = EQ_TOL * abs(w3n)
    if w3n.real <= band:
        reasons.append("w3-real-part-not-positive")
    if w3n.real - w2n.real <= band:
        reasons.append("ordering-w2-w3")
    if w2n.real + w3n.real <= band:
        reasons.append("ordering-w1-w2")
    if abs(w2n + w3n) <= band:
        reasons.append("w2-plus-w3-zero")
    if w3n == 0:
        return tuple(reasons), False
    w = w2n / w3n
    d = _THREE + w * w
    on_boundary = abs(w.real) <= EQ_TOL and abs(w.imag) >= SQRT3 - EQ_TOL
    if on_boundary:
        if abs(d) > EQ_TOL and abs(w3n.imag) <= band:
            reasons.append("boundary-real-w3")
    else:
        q = _THREE * w3n * w3n + w2n * w2n
        big = max(abs(w2n), abs(w3n))
        if abs(q) > _COINCIDENCE * big * big:
            rq = _ref_principal_sqrt(q)
            if abs(rq - w3n * _ref_principal_sqrt(d)) >= abs(rq):
                reasons.append("branch-incoherent")
    return tuple(reasons), on_boundary


# Both forms of the gate against the reference copy, row by row: the same
# decision, the reason bit of the same check or tags, and the same bits in
# every value, signed zeros included.

_ERROR_REASONS = {
    RootsNotDistinctError: "roots-not-distinct",
    RootRealPartsEqualError: "root-real-parts-equal",
    CriticalRealPartsEqualError: "critical-real-parts-equal",
}
_GUARD_REASONS = {
    "root magnitude": "root-magnitude",
    "root diameter": "root-diameter",
    "root separation": "root-separation",
}


def _reason_of(exc):
    if isinstance(exc, ScaleGuardError):
        return next(tag for msg, tag in _GUARD_REASONS.items() if str(exc).startswith(msg))
    return _ERROR_REASONS[type(exc)]


def _mask(tags):
    return sum(1 << GATE_REASONS.index(tag) for tag in tags)


def _bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


_BRANCH_W2 = -1.144943420509371 + 8.6203463196231j  # the README's pair
_BRANCH_W3 = 2.6620365926506335 + 0.7786881524437383j
_M0 = complex(-1.0, -0.0)


def _hand_placed_roots():
    """Root triples in every band of the gate."""
    band = 2e-9  # EQ_TOL times the diameter 2 of most rows below
    rows = [
        (0, -1, 1), (0, 1j, 1), (1, 1, 0), (0, 1e-12, 1), (0.0, 1e20, 1e20 + 1e5),
        # each scale guard
        (-1e101, 0, 1e101), (-1e-200, 0.3e-200 + 0.5e-200j, 1e-200),
        (1e6 - 1e-7, 1e6, 1e6 + 1e-7), (-1e100, 3j, 1e100), (-1e-100, 1e-101j, 1e-100),
        # on the rays, real w3: critical real parts tie; the tips +-i sqrt(3)
        (-1, 2j, 1), (-1, -5j, 1), (-1, SQRT3 * 1j, 1), (-1, -SQRT3 * 1j, 1),
        (-2 - 1j, SQRT3 * 1j * (2 + 1j), 2 + 1j),
        # on the rays with complex w3, inside and left of the ordering
        (-(3 + 1j), 2j * (3 + 1j), 3 + 1j), (-(1 + 1j), 2j * (1 + 1j), 1 + 1j),
        # near-equilateral and exactly coincident
        (-1, 2e-10 + 1.7320508075688772j, 1), (-1, 1e-8 + SQRT3 * 1j, 1),
        (-4 - 1j, -2 + 8j, 4 + 1j), (-1 - 1j, 0, 1 + 1j), (-1, 0.2, 1),
        (-_BRANCH_W3, _BRANCH_W2, _BRANCH_W3),
        (-3.1348651577320052 + 1.789596054354937j, 3.1348651577320052 + 9.238696826921835j,
         4.664688529761268 - 1.789596054354937j),
        # signed zeros
        (_M0, complex(-0.0, 2.0), complex(1.0, -0.0)), (_M0, complex(0.2, -0.0), complex(1.0, -0.0)),
        (complex(-0.0, -0.0), complex(1.0, -0.0), complex(2.0, -1.0)),
        (complex(-1.0, 0.5), complex(-0.0, 0.0), complex(1.0, -0.5)),
    ]
    # ties and near +-1: real-part gaps and root separations on either
    # side of the band EQ_TOL * diameter
    for k in (0.5, 0.999, 1.0, 1.001, 2.0):
        rows += [
            (-1, -1 + k * band + 1j, 1), (-1, 1 - k * band - 1j, 1),
            (-1, 1 - k * band, 1), (-1, -1 + k * band, 1), (-1, 1 - k * band * 1j, 1),
            (-1, 0.5 + 1.5j, 1 + k * band * 1j), (-1 + 0.3j, 0.4j + k * band, 1),
        ]
    # within 3 ulps of the collinear band's edge: area y against EQ_TOL * 2^2
    edge = 2 * band
    rows += [(-1, complex(0.5, y), 1) for y in edge + np.spacing(edge) * np.arange(-3, 4)]
    return np.array(rows, dtype=complex)


def _raw_candidates(count):
    """Raw sampler candidates, rejects included: about count root triples."""
    rng = np.random.default_rng(20261018)
    blocks, total = [], 0
    while total < count:
        roots, _ = _candidate_block(rng)
        blocks.append(roots)
        total += len(roots)
    return np.concatenate(blocks)


def _gate_outcomes(roots, order, rest):
    """The reasons mask of each row, and rest(values) for each row that
    order accepts with those values."""
    reasons, accepted = [], []
    for row in roots.tolist():
        reason, values = order(*row)
        reasons.append(0 if reason is None else _mask([reason]))
        if values is not None:
            accepted.append(rest(values))
    return reasons, accepted


def _reference_rest(values):
    w1, w2, w3, z1, z2, coincident, collinear = values
    w2n, w3n, offset, w = _ref_normalize(w1, w2, w3)
    tags, on_boundary = _ref_assess_admissibility(w2n, w3n)
    s1, s2 = _ref_ratios_direct(w1, w2, w3, z1, z2)
    values = (w1, w2, w3, z1, z2, w2n, w3n, offset, w, s1, s2)
    return values, coincident, collinear, _mask(tags), on_boundary


def _scalar_order(*row):
    try:
        c = order_roots(*row)
    except UndefinedRatioError as exc:
        return _reason_of(exc), None
    return None, c


def _scalar_rest(c):
    n = normalize(c)
    rep = assess_admissibility(n.w2n, n.w3n)
    assert rep.admissible == (not rep.reasons)
    rv = ratios_direct(c)
    values = (c.w1, c.w2, c.w3, c.z1, c.z2, n.w2n, n.w3n, n.offset, n.w, rv.sigma1, rv.sigma2)
    return values, c.coincident, c.collinear, _mask(rep.reasons), rep.on_boundary


def _assert_gate_matches_reference(roots):
    """Both forms of the gate give the reference's decisions and values on
    each row; returns the reasons masks of order_roots and of the
    admissibility of the accepted rows."""
    reasons, accepted = _gate_outcomes(roots, _ref_order_roots, _reference_rest)
    values, coincident, collinear, adm, on_boundary = (list(col) for col in zip(*accepted))
    assert not any(a and b for a, b in zip(coincident, collinear))
    scalar_reasons, scalar = _gate_outcomes(roots, _scalar_order, _scalar_rest)
    assert scalar_reasons == reasons
    assert [row[1:] for row in scalar] == list(zip(coincident, collinear, adm, on_boundary))
    assert np.array_equal(_bits([row[0] for row in scalar]), _bits(values))

    table, got_reasons = order_roots_array(roots)
    assert got_reasons.tolist() == reasons
    table = table[got_reasons == 0]
    assert table["coincident"].tolist() == coincident
    assert table["collinear"].tolist() == collinear
    w2n, w3n = normalize_array(table)
    got_adm, got_on_boundary = admissibility_mask(w2n, w3n)
    assert got_adm.tolist() == adm and got_on_boundary.tolist() == on_boundary
    s1, s2 = ratios_direct_array(table)
    got = [table[f] for f in ("w1", "w2", "w3", "z1", "z2")] + [w2n, w3n, s1, s2]
    want = np.array(values)[:, [0, 1, 2, 3, 4, 5, 6, 9, 10]]
    assert np.array_equal(_bits(np.stack(got, axis=1)), _bits(want))
    return np.array(reasons), np.array(adm)


def test_array_gate_matches_scalar_gate_on_hand_placed_rows():
    roots = _hand_placed_roots()
    reasons, adm = _assert_gate_matches_reference(roots)
    # the last seven rows straddle the collinear band: area up to 4e-9
    assert order_roots_array(roots[-7:])[0]["collinear"].tolist() == [True] * 4 + [False] * 3
    # the rows reach every order_roots check
    assert {_mask([tag]) for tag in GATE_REASONS[:6]} <= set(reasons.tolist())
    assert np.count_nonzero(reasons == 0) >= 10
    # translated and scaled copies stay in their bands
    _assert_gate_matches_reference(roots * 1e-3 + (2.5 - 7j))
    _assert_gate_matches_reference(roots[:, ::-1] * 1e40)


def test_array_gate_matches_scalar_gate_on_sampler_candidates():
    roots = _raw_candidates(100_000)
    reasons, adm = _assert_gate_matches_reference(roots)
    # the sampler's array masks pass only well-ordered triples, so the
    # rejects among them are assess_admissibility's branch-incoherent pairs
    assert len(roots) >= 100_000 and (adm == _mask(["branch-incoherent"])).sum() > 100


def test_admissibility_mask_matches_scalar_on_hand_placed_pairs():
    pairs = [
        (0, 1), (2j, 1), (2j * (3 + 1j), 3 + 1j), (2j * (1 + 1j), 1 + 1j), (5, 1), (-5, 1),
        (0, -1), (0, 0), (1, 0), (-1, 1), (1, 1), (-1 + 1e-10, 1), (_BRANCH_W2, _BRANCH_W3),
        (SQRT3 * 1j, 1), (-SQRT3 * 1j * (2 + 1j), 2 + 1j), (1.999e-9j, 1), (2j, 1 + 1e-10j),
        (complex(-0.0, 2.0), complex(1.0, -0.0)), (complex(0.5, -0.0), complex(-0.0, -0.0)),
        (complex(0.3, 0.4), complex(1.0, -0.0)), (3.1348651577320052 + 9.238696826921835j,
                                                  4.664688529761268 - 1.789596054354937j),
    ]
    # just off the ray band near the tips w = +-i sqrt(3), where the two
    # square roots of q nearly vanish
    for w in (complex(x, SQRT3 * s + y) for x in (1.01e-9, -1.5e-9, 1e-7)
              for y in (0.0, 1e-9, -1e-9, 1e-6) for s in (1, -1)):
        pairs += [(w * w3, w3) for w3 in (1 + 0j, 2 - 1j, 0.5 + 3j)]
    w2n, w3n = (np.array(col, dtype=complex) for col in zip(*pairs))
    adm, on_boundary = admissibility_mask(w2n, w3n)
    seen = set()
    for i, (a, b) in enumerate(pairs):
        tags, on_rays = _ref_assess_admissibility(a, b)
        rep = assess_admissibility(a, b)
        assert rep.reasons == tags and rep.on_boundary == on_rays, (a, b)
        assert adm[i] == _mask(tags) and on_boundary[i] == on_rays, (a, b)
        seen.update(tags)
    assert seen == set(GATE_REASONS[6:])


# ordered pairs with Re(w3n R(w)) == 0.0 exactly, where the coherence test
# falls to the sign of Im(w3n R(w)); found by setting
# Im w3n = Re w3n Re R / Im R and keeping the pairs whose recomputed real
# part is exactly 0
@pytest.mark.parametrize(
    "w2n, w3n, tags",
    [
        (1.444756892152817 - 8.285372170491621j, 3.5789234557306924 + 1.1148928530637328j, ()),
        (1.4220544110579674 - 31.482743147213704j, 1.7861062103966372 + 8.35526530731119j, ()),
        (-0.7930997004548832 - 11.247830788006706j, 1.7215322203854568 - 1.7272696812567676j,
         ("branch-incoherent",)),
        (-4.46998696711856 - 16.67241443751597j, 4.9962925177928215 - 4.972051775104255j,
         ("branch-incoherent",)),
    ],
)
def test_coherence_on_the_imaginary_axis(w2n, w3n, tags):
    _, r = _root_term(w2n / w3n)
    assert w3n.real * r.real - w3n.imag * r.imag == 0.0
    assert (w3n.real * r.imag + w3n.imag * r.real < 0.0) == bool(tags)
    rep = assess_admissibility(w2n, w3n)
    assert rep.reasons == tags and not rep.on_boundary
    adm, on_boundary = admissibility_mask(np.array([w2n]), np.array([w3n]))
    assert adm.tolist() == [_mask(tags)] and not on_boundary.any()


@pytest.mark.parametrize("imag", [(1.0, 2.0, 3.0), (3.0, -1.0, 2.0)])
def test_array_gate_orders_tied_real_parts_as_sorted(imag):
    # every row ties two or three real parts (-0.0 and 0.0 tie too): the
    # array gate keeps tied roots in their input order, as sorted does, and
    # rejects each row with the error order_roots raises
    reals = [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)]
    rows = [[complex(x, y) for x, y in zip(re, imag)] for re in reals]
    table, reasons = order_roots_array(np.array(rows))
    for row, got, reason in zip(rows, table.tolist(), reasons.tolist()):
        assert np.array_equal(_bits(got[:3]), _bits(sorted(row, key=lambda z: z.real))), row
        with pytest.raises(UndefinedRatioError) as exc:
            order_roots(*row)
        assert reason == _mask([_reason_of(exc.value)]), row


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
def test_array_gate_rejects_nonfinite_input(bad):
    with pytest.raises(ValueError):
        order_roots(-1, bad, 1)
    with pytest.raises(ValueError):
        order_roots_array(np.array([[-1, 0.5j, 1], [-1, bad, 1]]))
    with pytest.raises(ValueError):
        assess_admissibility(bad, 1)
    with pytest.raises(ValueError):
        admissibility_mask(np.array([0.5, bad]), np.array([1.0, 1.0]))
